//! Golden pin of the explicit CSSG builder and its settle ledger.
//!
//! Each row pins the FNV-1a digest of one CSSG built serially under the
//! default configuration (POR on, ternary fast path on): every state in
//! numbering order, every edge list in order, the pruning counters and
//! every [`SettleStats`](satpg::sim::SettleStats) field.  The settle
//! counters are part of the digest on purpose: a faster settle kernel
//! must make the same POR decisions and expand the same frontiers, not
//! only reach the same graph.  The digests were taken from the
//! sweep-based kernel, so any rewrite of the settle walk has to
//! reproduce it exactly to keep this green.

use satpg::core::{build_cssg, Cssg, CssgConfig};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::Circuit;
use satpg::stg::synth::complex_gate;
use satpg::stg::{suite, StateGraph};
use std::fmt::Write as _;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

/// The canonical text of a CSSG: states with their edge lists, then the
/// pruning counters, then the settle ledger.
fn cssg_text(g: &Cssg) -> String {
    let mut out = format!("k={} inputs={}\n", g.k(), g.num_inputs());
    for (i, s) in g.states().iter().enumerate() {
        let _ = write!(out, "{i} {s}:");
        for (p, t) in g.edges(i) {
            let _ = write!(out, " {p}->{t}");
        }
        out.push('\n');
    }
    let st = g.settle_stats();
    let _ = writeln!(
        out,
        "pruned nc={} un={} tr={} skipped={}\n\
         settle settles={} explored={} por_states={} por_pruned={} truncated={} fallbacks={}",
        g.pruned_nonconfluent(),
        g.pruned_unstable(),
        g.pruned_truncated(),
        g.patterns_skipped(),
        st.settles,
        st.states_explored,
        st.por_states,
        st.por_pruned,
        st.truncated,
        st.fallbacks,
    );
    out
}

fn digest(ckt: &Circuit, cfg: &CssgConfig) -> u64 {
    fnv1a(&cssg_text(&build_cssg(ckt, cfg).unwrap()))
}

/// Checks every row and reports all mismatches at once, with the digest
/// each row now produces.
fn check(rows: &[(&str, u64)], build: impl Fn(&str) -> Circuit, cfg: &CssgConfig) {
    let bad: Vec<String> = rows
        .iter()
        .filter_map(|&(name, want)| {
            let got = digest(&build(name), cfg);
            (got != want).then(|| format!("(\"{name}\", {got:#018x}), // want {want:#018x}"))
        })
        .collect();
    assert!(bad.is_empty(), "CSSG digests changed:\n{}", bad.join("\n"));
}

/// The exact k-bounded semantics: no ternary fast path, so every edge is
/// decided by the (POR-reduced) interleaving walk.  Under the default
/// configuration the bundled benchmarks are all ternary-definite and
/// never reach the walk.
fn exact() -> CssgConfig {
    CssgConfig {
        ternary_fast_path: false,
        ..CssgConfig::default()
    }
}

/// `(benchmark, digest)` of the complex-gate (`si`) netlist's CSSG.
const BENCHMARKS: &[(&str, u64)] = &[
    ("alloc-outbound", 0xfac527465551855d),
    ("atod", 0xfac527465551855d),
    ("chu150", 0x4ab341a3c9d39def),
    ("converta", 0x780bc9b4defbc9e3),
    ("dff", 0xc07a5800b5b7a698),
    ("ebergen", 0x780bc9b4defbc9e3),
    ("hazard", 0x780bc9b4defbc9e3),
    ("master-read", 0x8f881b09a4fd4723),
    ("mmu", 0xfac527465551855d),
    ("mp-forward-pkt", 0xbb165d416b85b9dd),
    ("nak-pa", 0x4ab341a3c9d39def),
    ("nowick", 0xa28f3e817ac0fb6d),
    ("ram-read-sbuf", 0xfac527465551855d),
    ("rcv-setup", 0x780bc9b4defbc9e3),
    ("rpdft", 0x780bc9b4defbc9e3),
    ("sbuf-ram-write", 0x7376c94b9c64c6ff),
    ("sbuf-send-ctl", 0xfac527465551855d),
    ("sbuf-send-pkt2", 0x8f881b09a4fd4723),
    ("seq4", 0x780bc9b4defbc9e3),
    ("trimos-send", 0xbfa075487f6ccdb1),
    ("vbe10b", 0xbfa075487f6ccdb1),
    ("vbe5b", 0x780bc9b4defbc9e3),
    ("vbe6a", 0xbfa075487f6ccdb1),
];

/// The same netlists under [`exact`].
const BENCHMARKS_EXACT: &[(&str, u64)] = &[
    ("alloc-outbound", 0x341a709792bd468f),
    ("atod", 0x341a709792bd468f),
    ("chu150", 0x1fbbac192af83c53),
    ("converta", 0xb4ba85668d08446b),
    ("dff", 0x16d5cece42c6a02a),
    ("ebergen", 0xdb6ae043dccce737),
    ("hazard", 0xb4ba85668d08446b),
    ("master-read", 0x053860ae4b870e40),
    ("mmu", 0x341a709792bd468f),
    ("mp-forward-pkt", 0x61139783af3cabbc),
    ("nak-pa", 0x1fbbac192af83c53),
    ("nowick", 0xbed66e8480bd7ef1),
    ("ram-read-sbuf", 0x341a709792bd468f),
    ("rcv-setup", 0xb4ba85668d08446b),
    ("rpdft", 0xb4ba85668d08446b),
    ("sbuf-ram-write", 0x9ce8e8492a2e91c0),
    ("sbuf-send-ctl", 0x341a709792bd468f),
    ("sbuf-send-pkt2", 0x872953c09006aa60),
    ("seq4", 0xb4ba85668d08446b),
    ("trimos-send", 0xe95795e50db46cd4),
    ("vbe10b", 0xe95795e50db46cd4),
    ("vbe5b", 0xb4ba85668d08446b),
    ("vbe6a", 0xe95795e50db46cd4),
];

/// `(family-size, digest)`: Muller 24–48 every fourth size, arbiter 5–6.
const FAMILIES: &[(&str, u64)] = &[
    ("muller-24", 0xb39e574b6b830034),
    ("muller-28", 0x5b35c1c298730c79),
    ("muller-32", 0x76a9269b8875ec3c),
    ("muller-36", 0xed8923c026d09e28),
    ("muller-40", 0xc507ce7c659537b5),
    ("muller-44", 0x8bdc827b2130c4e9),
    ("muller-48", 0xe7f048d6a0500623),
    ("arbiter-5", 0xd7f6c8b1e9e374b9),
    ("arbiter-6", 0x2492e83c45d999bc),
];

fn family(name: &str) -> Circuit {
    let (kind, size) = name.split_once('-').unwrap();
    let size: usize = size.parse().unwrap();
    match kind {
        "muller" => muller_pipeline(size),
        "arbiter" => arbiter_tree(size),
        other => panic!("unknown family {other}"),
    }
}

#[test]
fn every_bundled_benchmark_is_pinned() {
    for rows in [BENCHMARKS, BENCHMARKS_EXACT] {
        let pinned: Vec<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!(pinned, suite::NAMES);
    }
}

#[test]
fn bundled_benchmark_cssgs_match_golden() {
    check(BENCHMARKS, si_circuit, &CssgConfig::default());
}

#[test]
fn bundled_benchmark_exact_cssgs_match_golden() {
    check(BENCHMARKS_EXACT, si_circuit, &exact());
}

#[test]
fn generated_family_cssgs_match_golden() {
    check(FAMILIES, family, &CssgConfig::default());
}
