//! Self-tests of the benchmark: the metric table matches
//! `BENCHMARK.json`, a tiny run of every workload emits every metric,
//! the output check catches a wrong reference, inputs are fixed by the
//! seed, and the ledger partitions each campaign's wall time.

use satpg_core::json::Json;
use satpg_perfbench::inproc::{settle_cases, staged_campaign, synth_cases};
use satpg_perfbench::ledger::{campaign_ledgers, check_chrome_trace, chrome_trace, Recorder};
use satpg_perfbench::metrics::{MetricSpec, Outcome, END_TO_END, PER_LAYER};
use satpg_perfbench::{run, Options, Workload};
use std::path::PathBuf;
use std::time::Instant;

fn smoke(w: Workload, seed: u64, trace: bool) -> Options {
    let mut o = Options::new(w, seed, 0.0, trace);
    o.smoke = true;
    o.trace_dir = Some(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traces"));
    o
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn assert_table(json: &Json, key: &str, specs: &[MetricSpec]) {
    let listed = json.get(key).and_then(Json::as_arr).expect("metric list");
    assert_eq!(listed.len(), specs.len(), "{key}: count");
    for (j, m) in listed.iter().zip(specs) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            j.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(m.better.as_str()),
            "{}",
            m.name
        );
        assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
    }
}

#[test]
fn metric_table_matches_benchmark_json() {
    let json = benchmark_json();
    assert_table(&json, "end_to_end", END_TO_END);
    assert_table(&json, "per_layer", PER_LAYER);
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
}

/// Parses the result line and checks it names exactly `specs`, each
/// with its unit; returns the values.
fn result_values(out: &Outcome, specs: &[MetricSpec]) -> Vec<(String, f64)> {
    let line = out.result_line(specs);
    let v = Json::parse(&line).expect("result line is JSON");
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object in {line}")
    };
    assert_eq!(metrics.len(), specs.len());
    metrics
        .iter()
        .zip(specs)
        .map(|((name, m), spec)| {
            assert_eq!(name, spec.name);
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "{name}"
            );
            (
                name.clone(),
                m.get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value"),
            )
        })
        .collect()
}

#[test]
fn smoke_run_of_every_workload_emits_every_metric() {
    for w in Workload::ALL {
        let out = run(&smoke(w, 1, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(out.attempted > 0, "{}", w.name());
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.detail);
        for (name, v) in result_values(&out, END_TO_END) {
            assert!(v > 0.0, "{}: end-to-end metric {name} reads {v}", w.name());
        }

        let traced = run(&smoke(w, 1, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.detail);
        let values = result_values(&traced, PER_LAYER);
        let get = |n: &str| {
            values
                .iter()
                .find(|(k, _)| k == n)
                .map(|&(_, v)| v)
                .expect("metric")
        };
        assert!(get("ledger.campaign_us") > 0.0, "{}", w.name());
        let dominant = match w {
            Workload::SynthFrontEnd => "ledger.stg_us",
            Workload::SettleBound => "ledger.core.cssg_us",
            Workload::DaemonSubmit => "ledger.serve_us",
            Workload::FleetCampaign => "ledger.serve.fleet_us",
        };
        assert!(get(dominant) > 0.0, "{}: {dominant} is empty", w.name());
        let trace_file = traced
            .detail
            .iter()
            .find(|(k, _)| k == "trace_file")
            .expect("trace written");
        let path = trace_file.1.trim_matches('"');
        let text = std::fs::read_to_string(path).expect("trace file");
        assert!(check_chrome_trace(&text).expect("valid Chrome trace") > 0);
    }
}

#[test]
fn a_wrong_reference_raises_failed_frac() {
    for w in Workload::ALL {
        let mut o = smoke(w, 1, false);
        o.corrupt_reference = true;
        let out = run(&o).expect("runs");
        assert!(out.attempted > 0);
        // Every reference is broken, so every campaign fails: on
        // `daemon_submit` the renamed misses as well as the suite hits.
        assert_eq!(
            out.failed,
            out.attempted,
            "{}: a corrupt reference went unnoticed",
            w.name()
        );
        assert!(out
            .result_line(END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}

fn digest(w: Workload, seed: u64) -> String {
    let out = run(&smoke(w, seed, false)).expect("runs");
    out.detail
        .iter()
        .find(|(k, _)| k == "input_digest")
        .map(|(_, v)| v.clone())
        .expect("digest recorded")
}

#[test]
fn the_seed_fixes_the_inputs() {
    for w in Workload::ALL {
        let a = digest(w, 11);
        assert_eq!(a, digest(w, 11), "{}: same seed, same inputs", w.name());
        assert_ne!(a, digest(w, 12), "{}: another seed, other inputs", w.name());
    }
}

#[test]
fn ledger_layers_and_remainder_equal_campaign_wall_time() {
    let cases: Vec<_> = synth_cases(true)
        .into_iter()
        .chain(settle_cases(true))
        .collect();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1, true);
    let mut walls = Vec::new();
    for c in &cases {
        let t0 = rec.at(Instant::now());
        staged_campaign(c, &mut rec).expect("campaign runs");
        walls.push(rec.at(Instant::now()) - t0);
    }
    let spans = rec.into_spans();
    let ledgers = campaign_ledgers(&spans, "campaign");
    assert_eq!(ledgers.len(), cases.len());
    for (l, outside) in ledgers.iter().zip(&walls) {
        let sum: f64 = l.layers.values().sum::<f64>() + l.unattributed_us;
        assert!(
            (sum - l.wall_us).abs() < 1e-6,
            "layers + unattributed = campaign wall"
        );
        assert!(
            l.wall_us <= *outside && *outside - l.wall_us < 1_000.0,
            "root span spans the campaign"
        );
        assert!(l.unattributed_us >= 0.0);
    }
    assert_eq!(check_chrome_trace(&chrome_trace(&spans)), Ok(spans.len()));
}
