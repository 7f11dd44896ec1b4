//! Ablation: sensitivity of the synchronous abstraction to the test-cycle
//! bound `k` (§4.1).  Short test cycles prune slow-settling vectors,
//! shrinking the CSSG and with it the achievable fault coverage.

use satpg_core::{build_cssg, run_atpg, AtpgConfig, CssgConfig};
use satpg_serve::{resolve_circuit, CircuitSpec};

fn main() {
    let circuits = ["chu150", "master-read", "alloc-outbound", "vbe6a"];
    println!("ablation: CSSG and coverage vs transition bound k");
    println!(
        "{:<16} {:>4} {:>7} {:>7} {:>9} {:>9}",
        "example", "k", "states", "edges", "in cov", "in tot"
    );
    for name in circuits {
        let ckt = resolve_circuit(&CircuitSpec::Bench {
            name: name.to_string(),
            style: "si".to_string(),
        })
        .expect("suite benchmarks synthesize");
        let default_k = 4 * ckt.num_gates() + 4;
        for k in [2, 4, 8, 16, default_k] {
            let cfg = CssgConfig {
                k: Some(k),
                ..CssgConfig::default()
            };
            let Ok(cssg) = build_cssg(&ckt, &cfg) else {
                continue;
            };
            let atpg = AtpgConfig {
                cssg: cfg,
                ..AtpgConfig::paper()
            };
            let (cov, tot) = match run_atpg(&ckt, &atpg) {
                Ok(r) => (r.covered(), r.total()),
                Err(_) => (0, 0),
            };
            println!(
                "{:<16} {:>4} {:>7} {:>7} {:>9} {:>9}",
                name,
                k,
                cssg.num_states(),
                cssg.num_edges(),
                cov,
                tot
            );
        }
    }
}
