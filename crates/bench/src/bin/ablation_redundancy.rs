//! Ablation: the cost of hazard-cover redundancy (the Table 2 story).
//! For the three designated circuits, compare the two-level netlist with
//! and without redundant consensus cubes: the redundant version carries
//! untestable faults, lowering coverage and raising ATPG effort.

use satpg_core::{run_atpg, AtpgConfig};
use satpg_serve::{resolve_circuit, CircuitSpec};

fn main() {
    println!("ablation: two-level synthesis with vs without redundant hazard covers");
    println!(
        "{:<14} {:>10} {:>7} {:>7} {:>5} {:>9} {:>9}",
        "example", "redundancy", "in tot", "in cov", "unt", "cover %", "CPU(us)"
    );
    for name in ["trimos-send", "vbe10b", "vbe6a"] {
        for (label, style) in [("minimal", "2l"), ("all-primes", "2lr")] {
            let ckt = resolve_circuit(&CircuitSpec::Bench {
                name: name.to_string(),
                style: style.to_string(),
            })
            .unwrap();
            let r = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
            println!(
                "{:<14} {:>10} {:>7} {:>7} {:>5} {:>8.2}% {:>9}",
                name,
                label,
                r.total(),
                r.covered(),
                r.untestable(),
                r.coverage(),
                r.us_total()
            );
        }
    }
}
