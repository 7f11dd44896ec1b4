//! Golden pin of the synthesized netlists.
//!
//! The digests below were taken from the Quine–McCluskey minimizer that
//! ran over an explicit don't-care list of every unreachable code.  Each
//! row pins, per benchmark and synthesis style, the FNV-1a digest of the
//! `satpg synth` text and of the `.ckt` text; each family row pins the
//! `.ckt` text that `satpg gen` prints.  Any change of a cover — a cube,
//! a literal, the cube order — changes a digest, so a minimizer rewrite
//! must reproduce the old covers byte for byte to keep this green.

use satpg_netlist::{to_ckt, Circuit, GateId};
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{families, suite, StateGraph, Stg};
use std::fmt::Write as _;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn synthesize(stg: &Stg, style: &str) -> Circuit {
    let sg = StateGraph::build(stg).unwrap();
    match style {
        "si" => complex_gate(stg, &sg),
        "2l" => two_level(stg, &sg, Redundancy::None),
        "2lr" => two_level(stg, &sg, Redundancy::AllPrimes),
        other => panic!("unknown style {other}"),
    }
    .unwrap()
}

/// The text `satpg synth` prints: the summary line, then one line per
/// gate.
fn synth_text(ckt: &Circuit) -> String {
    let mut out = format!("{ckt}\n");
    for (gi, g) in ckt.gates().iter().enumerate() {
        let ins: Vec<&str> = g.inputs.iter().map(|&s| ckt.signal_name(s)).collect();
        let _ = writeln!(
            out,
            "  {} = {}({})",
            ckt.signal_name(ckt.gate_output(GateId(gi as u32))),
            g.kind.name(),
            ins.join(", ")
        );
    }
    out
}

/// `(benchmark, style, synth-text digest, .ckt digest)`.
const BENCHMARKS: &[(&str, &str, u64, u64)] = &[
    (
        "alloc-outbound",
        "si",
        0x825db5689575606e,
        0x6f84a1c33694dd28,
    ),
    (
        "alloc-outbound",
        "2l",
        0x52b18831441e1a63,
        0x6bd8b57ed51f43c7,
    ),
    (
        "alloc-outbound",
        "2lr",
        0x52b18831441e1a63,
        0x6bd8b57ed51f43c7,
    ),
    ("atod", "si", 0x497f8aed10a03184, 0x9bbbdecb4b3b058a),
    ("atod", "2l", 0x10fe152b6f44059d, 0x87a5cf66be6ded1d),
    ("atod", "2lr", 0x10fe152b6f44059d, 0x87a5cf66be6ded1d),
    ("chu150", "si", 0xd703a622be81c475, 0x2616b4d754080820),
    ("chu150", "2l", 0x0ba7759c04481b43, 0x0f08c4522b3f7725),
    ("chu150", "2lr", 0x0ba7759c04481b43, 0x0f08c4522b3f7725),
    ("converta", "si", 0xa91386509d35b6c2, 0xbf077d56581df66a),
    ("converta", "2l", 0x36dc1e2221014bad, 0x2dedb299c2eae105),
    ("converta", "2lr", 0x36dc1e2221014bad, 0x2dedb299c2eae105),
    ("dff", "si", 0x331ef0cdccf1a48f, 0x1da820aded2f4796),
    ("dff", "2l", 0xfb5244433c911aac, 0xd480ff5f2b9d1821),
    ("dff", "2lr", 0xfb5244433c911aac, 0xd480ff5f2b9d1821),
    ("ebergen", "si", 0x43987216bc55ca47, 0x38c26af9b70aa9f3),
    ("ebergen", "2l", 0x9c1791a3d57cc270, 0x89b45c38dc7af6d8),
    ("ebergen", "2lr", 0x9c1791a3d57cc270, 0x89b45c38dc7af6d8),
    ("hazard", "si", 0x1de16fca95d8e8c8, 0x369c36e6b9bd3a00),
    ("hazard", "2l", 0x7a30af5cda51214d, 0x8b2226c9dadd493b),
    ("hazard", "2lr", 0x7a30af5cda51214d, 0x8b2226c9dadd493b),
    ("master-read", "si", 0xb1680ead320d29f3, 0x89e7266cebc6b5cf),
    ("master-read", "2l", 0xbae5fed9c73918b1, 0xe2f4e06ac7911365),
    ("master-read", "2lr", 0x933028e7fd51af9f, 0x24555c9031b8515f),
    ("mmu", "si", 0xcdef375f547690f3, 0xc0cf78b7db131913),
    ("mmu", "2l", 0x3b378e1fddc26e34, 0xcf39a01eacac50e6),
    ("mmu", "2lr", 0x3b378e1fddc26e34, 0xcf39a01eacac50e6),
    (
        "mp-forward-pkt",
        "si",
        0xd8ecc0a596a27b4a,
        0x63372ab64b7da714,
    ),
    (
        "mp-forward-pkt",
        "2l",
        0xb6b25c963f482906,
        0xf537c40ec4b3e72b,
    ),
    (
        "mp-forward-pkt",
        "2lr",
        0xb6b25c963f482906,
        0xf537c40ec4b3e72b,
    ),
    ("nak-pa", "si", 0x1f1a738bb0f30da1, 0x32fb3eef2d1f245e),
    ("nak-pa", "2l", 0xd1122040503e3eab, 0x877ebd42543e6e91),
    ("nak-pa", "2lr", 0xd1122040503e3eab, 0x877ebd42543e6e91),
    ("nowick", "si", 0xaf9175259234ac1e, 0x99558b97c0b2735a),
    ("nowick", "2l", 0xf2fc59adfed368e4, 0x6c789da66bf9429c),
    ("nowick", "2lr", 0xf2fc59adfed368e4, 0x6c789da66bf9429c),
    (
        "ram-read-sbuf",
        "si",
        0x783b75267cc9f433,
        0xde26150b36ff5ba7,
    ),
    (
        "ram-read-sbuf",
        "2l",
        0x571548095eea1426,
        0xb072c77e1f89d30c,
    ),
    (
        "ram-read-sbuf",
        "2lr",
        0x571548095eea1426,
        0xb072c77e1f89d30c,
    ),
    ("rcv-setup", "si", 0xc667381a15dd5aa3, 0x6611c9ee2883bb60),
    ("rcv-setup", "2l", 0x0fc2c0ff0fa8a0a6, 0x2bd4126aa8f60df3),
    ("rcv-setup", "2lr", 0x0fc2c0ff0fa8a0a6, 0x2bd4126aa8f60df3),
    ("rpdft", "si", 0xf1197e45d3362f9a, 0x892f78cbcd06143e),
    ("rpdft", "2l", 0x602cf5ce8a8164b1, 0xa79fca0e061fe03d),
    ("rpdft", "2lr", 0x602cf5ce8a8164b1, 0xa79fca0e061fe03d),
    (
        "sbuf-ram-write",
        "si",
        0xc065135d5fd8301c,
        0x59570ffb575de5f1,
    ),
    (
        "sbuf-ram-write",
        "2l",
        0x1a57003edaf1447c,
        0x4ed988ff824b2a0f,
    ),
    (
        "sbuf-ram-write",
        "2lr",
        0x1a57003edaf1447c,
        0x4ed988ff824b2a0f,
    ),
    (
        "sbuf-send-ctl",
        "si",
        0x9e3eaff98091e305,
        0x8d70fd03e00989c7,
    ),
    (
        "sbuf-send-ctl",
        "2l",
        0xcd1983902128c46e,
        0x68409d799d1e9bb2,
    ),
    (
        "sbuf-send-ctl",
        "2lr",
        0xcd1983902128c46e,
        0x68409d799d1e9bb2,
    ),
    (
        "sbuf-send-pkt2",
        "si",
        0x552b1e1bf8aa62ed,
        0x6259b3200bd31c5a,
    ),
    (
        "sbuf-send-pkt2",
        "2l",
        0x73d4d11dcfd9504b,
        0xef57c1d0b09af3c0,
    ),
    (
        "sbuf-send-pkt2",
        "2lr",
        0x73d4d11dcfd9504b,
        0xef57c1d0b09af3c0,
    ),
    ("seq4", "si", 0x08e7345faa86261f, 0x70d2ed7de3834b91),
    ("seq4", "2l", 0x65d21d8e86e039aa, 0x469e2a646b5de350),
    ("seq4", "2lr", 0x65d21d8e86e039aa, 0x469e2a646b5de350),
    ("trimos-send", "si", 0x5f6da6f2ee386a6b, 0x6875438dec5a45fa),
    ("trimos-send", "2l", 0xae9884ebdc2752b5, 0x1de2593c8e95aab7),
    ("trimos-send", "2lr", 0xd9092d824d7690d8, 0x8eceffd502b4af3c),
    ("vbe10b", "si", 0x6fe85792f2bf16f9, 0x47f2eaf0a3676228),
    ("vbe10b", "2l", 0xbe544b5db9354d8b, 0x9acc72d805b0b208),
    ("vbe10b", "2lr", 0xf506b3975cbe30de, 0x7a2cdb5f7a2e1725),
    ("vbe5b", "si", 0x1eb9bb3b70781c24, 0x8ce54bbd79e4ea92),
    ("vbe5b", "2l", 0x9c3c28d4ea9d2c67, 0xb3d03aadccb7c609),
    ("vbe5b", "2lr", 0x9c3c28d4ea9d2c67, 0xb3d03aadccb7c609),
    ("vbe6a", "si", 0xbe1fb5dfb47ec0cc, 0xa13d83e618e6b064),
    ("vbe6a", "2l", 0xda3c4de7d58475fe, 0x0ada88f2a79bad6d),
    ("vbe6a", "2lr", 0x0cebe36d5629c0f9, 0xb52c639d6800914a),
];

/// `(family, size, .ckt digest)`.
const FAMILIES: &[(&str, usize, u64)] = &[
    ("dme", 2, 0xdfe63220e6dc22fe),
    ("dme", 3, 0x5b3fafe8ed806262),
    ("dme", 4, 0x9c433b4420e11893),
    ("dme", 5, 0xf3a08961229302c6),
    ("dme", 6, 0x6eba855c196eeb23),
    ("seq", 1, 0xe36f44add06312e9),
    ("seq", 2, 0xe5bb0953b276a405),
    ("seq", 3, 0x3487f962f693ee02),
    ("seq", 4, 0xb9cd6eebdf344792),
    ("seq", 5, 0x8491e625241efc01),
    ("seq", 6, 0x3888f5af7448e63d),
    ("seq", 7, 0xbeeb2f2c15a63f62),
    ("seq", 8, 0xa6b8c1431c84fa5a),
    ("seq", 9, 0xd8e569dcef0a3239),
    ("seq", 10, 0xecff92e53e8e0d26),
    ("seq", 11, 0x27743be5dec6ca32),
    ("seq", 12, 0x02c826dfdedcde0d),
];

#[test]
fn benchmark_netlists_match_the_golden_digests() {
    let mut got = Vec::new();
    for &name in suite::NAMES {
        let stg = suite::load(name).unwrap();
        for style in ["si", "2l", "2lr"] {
            let ckt = synthesize(&stg, style);
            got.push((name, style, fnv1a(&synth_text(&ckt)), fnv1a(&to_ckt(&ckt))));
        }
    }
    let rows: Vec<String> = got
        .iter()
        .map(|(n, s, a, b)| format!("(\"{n}\", \"{s}\", {a:#018x}, {b:#018x}),"))
        .collect();
    assert!(
        got == BENCHMARKS,
        "synthesized netlists moved; now:\n{}",
        rows.join("\n")
    );
}

#[test]
fn family_netlists_match_the_golden_digests() {
    let mut got = Vec::new();
    for size in 2..=6 {
        let ckt = synthesize(&families::dme_ring(size).unwrap(), "si");
        got.push(("dme", size, fnv1a(&to_ckt(&ckt))));
    }
    for size in 1..=12 {
        let ckt = synthesize(&families::sequencer(size).unwrap(), "si");
        got.push(("seq", size, fnv1a(&to_ckt(&ckt))));
    }
    let rows: Vec<String> = got
        .iter()
        .map(|(n, k, d)| format!("(\"{n}\", {k}, {d:#018x}),"))
        .collect();
    assert!(
        got == FAMILIES,
        "generated netlists moved; now:\n{}",
        rows.join("\n")
    );
}
