//! The `satpg` binary end to end: every subcommand that takes a circuit
//! accepts a benchmark name, `-` (`.g` or `.ckt` text on stdin) or
//! `--family F [--size K]`, and the three spellings of one circuit give
//! the same report.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Runs `satpg args…`, feeding `stdin` when given.
fn satpg(args: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_satpg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("satpg runs");
    let mut pipe = child.stdin.take().expect("stdin pipe");
    pipe.write_all(stdin.unwrap_or_default())
        .expect("stdin accepts");
    drop(pipe);
    child.wait_with_output().expect("satpg exits")
}

/// The stdout of a run that must succeed.
fn ok(args: &[&str], stdin: Option<&[u8]>) -> String {
    let out = satpg(args, stdin);
    assert!(
        out.status.success(),
        "satpg {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The coverage summary line without its trailing wall-clock field.
fn summary(stdout: &str) -> String {
    let line = stdout.lines().next().expect("a summary line");
    match line.rsplit_once(", ") {
        Some((head, tail)) if tail.ends_with(" us") => head.to_string(),
        _ => line.to_string(),
    }
}

#[test]
fn generated_text_pipes_into_cssg_and_atpg() {
    let ckt = ok(&["gen", "muller", "--size", "6"], None);
    let cssg = ok(&["cssg", "-"], Some(ckt.as_bytes()));
    assert!(cssg.starts_with("CSSG(k="), "{cssg}");
    let atpg = ok(&["atpg", "-"], Some(ckt.as_bytes()));
    assert!(atpg.starts_with("muller_pipe6: "), "{atpg}");
    assert_eq!(
        summary(&atpg),
        summary(&ok(&["atpg", "--family", "muller", "--size", "6"], None))
    );
}

#[test]
fn stg_text_on_stdin_matches_the_named_benchmark() {
    let g = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/stg/benchmarks/converta.g"
    ))
    .expect("bundled benchmark source");
    let piped = ok(&["engine", "-"], Some(&g));
    let named = ok(&["engine", "converta"], None);
    assert!(named.starts_with("converta: "), "{named}");
    assert_eq!(summary(&piped), summary(&named));
}

#[test]
fn family_flag_matches_the_generated_netlist() {
    let ckt = ok(&["gen", "muller", "--size", "6"], None);
    assert_eq!(
        summary(&ok(&["engine", "--family", "muller", "--size", "6"], None)),
        summary(&ok(&["engine", "-"], Some(ckt.as_bytes())))
    );
}

/// `gen` and `--family` read one table of default sizes.
#[test]
fn gen_and_family_share_default_sizes() {
    for (family, default, name) in [
        ("muller", "4", "muller_pipe4"),
        ("arbiter", "4", "arbiter4"),
        ("dme", "3", "dme-gen3"),
        ("seq", "4", "seq-gen4"),
    ] {
        let generated = ok(&["gen", family], None);
        assert_eq!(generated, ok(&["gen", family, "--size", default], None));
        assert_eq!(
            generated.lines().next(),
            Some(format!("circuit {name}").as_str())
        );
        let synth = ok(&["synth", "--family", family], None);
        assert!(
            synth.starts_with(&format!("circuit {name} ")),
            "{family}: {synth}"
        );
    }
    let out = satpg(&["gen", "muller", "--size", "0"], None);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

/// A daemon builds the same default-size family a local run does.
#[test]
fn submit_family_uses_the_shared_default_size() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_satpg"))
        .args(["serve", "--addr", "127.0.0.1:0", "--serve-workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut line = String::new();
    std::io::BufRead::read_line(
        &mut std::io::BufReader::new(daemon.stdout.take().expect("daemon stdout")),
        &mut line,
    )
    .expect("daemon prints its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening line")
        .to_string();
    let submitted = satpg(
        &[
            "submit",
            "--family",
            "dme",
            "--addr",
            &addr,
            "--workers",
            "1",
        ],
        None,
    );
    let _ = satpg(&["shutdown", "--addr", &addr], None);
    let _ = daemon.wait();
    let stdout = String::from_utf8_lossy(&submitted.stdout);
    assert!(submitted.status.success(), "{stdout}");
    assert!(stdout.contains("circuit dme-gen3 "), "{stdout}");
}

/// Paper-table rows account for every covered fault exactly once, and
/// speed-independent circuits are fully output stuck-at testable.
#[test]
fn table_rows_have_consistent_columns() {
    let table = ok(&["table", "1"], None);
    let mut rows = 0;
    for line in table.lines().skip(2) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let Some(Ok(n)) = cols.get(1..9).map(|c| {
            c.iter()
                .map(|c| c.parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
        }) else {
            continue; // the totals line
        };
        let [out_tot, out_cov, in_tot, in_cov, rnd, ph3, sim, _unt] = n[..] else {
            unreachable!()
        };
        assert_eq!(rnd + ph3 + sim, in_cov, "{line}");
        assert!(in_tot >= out_tot, "{line}");
        assert_eq!(out_cov, out_tot, "{line}");
        rows += 1;
    }
    assert_eq!(rows, 23);
}

/// Two-level bounded-delay synthesis never uses fewer gates than the
/// complex-gate style.
#[test]
fn two_level_style_has_at_least_the_complex_gate_count() {
    let gates = |style: &str| {
        ok(&["synth", "converta", "--style", style], None)
            .lines()
            .filter(|l| l.starts_with("  ") && l.contains(" = "))
            .count()
    };
    assert!(gates("2l") >= gates("si"));
}
