//! The metric vocabulary (mirrored by `BENCHMARK.json`) and the result
//! line every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Tolerated relative regression of the median (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("campaign_ms.p50", "ms", L, 0.2),
    e2e("campaign_ms.p90", "ms", L, 0.2),
    e2e("campaigns_per_s", "1/s", H, 0.2),
    e2e("cpu_ms_per_campaign", "ms", L, 0.2),
    e2e("setup_s", "s", L, 0.25),
    e2e("peak_rss_mb", "MB", L, 0.25),
    e2e("fault_coverage_pct", "%", H, 0.05),
    e2e("tests_per_campaign", "count", L, 0.2),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).  A
/// layer a workload never enters reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // stg: state graph and complex-gate synthesis.
    layer("stg.sg_us", "us", L),
    layer("stg.synth_us", "us", L),
    layer("stg.sg_states", "count", L),
    layer("stg.gates", "count", L),
    // netlist: `.ckt` parsing.
    layer("netlist.parse_us", "us", L),
    // core.cssg: the explicit CSSG over the settler.
    layer("cssg.build_us", "us", L),
    layer("cssg.states", "count", L),
    layer("cssg.edges", "count", L),
    layer("cssg.settle_states", "count", L),
    layer("cssg.por_pruned", "count", H),
    layer("cssg.truncated", "count", L),
    layer("cssg.settle_states_per_ms", "1/ms", H),
    // core.random: the random-TPG stage.
    layer("random.us", "us", L),
    layer("random.passes", "count", L),
    layer("random.patterns", "count", L),
    layer("random.resolved", "count", H),
    layer("random.resolved_per_kpattern", "1/kpattern", H),
    // core.targeted: three-phase search plus fault simulation.
    layer("targeted.three_phase_us", "us", L),
    layer("targeted.fsim_us", "us", L),
    layer("targeted.searched", "count", L),
    layer("targeted.tests", "count", L),
    layer("targeted.untestable", "count", L),
    layer("targeted.aborted", "count", L),
    // engine: parallel stage, merge, symbolic audit.
    layer("engine.parallel_us", "us", L),
    layer("engine.merge_us", "us", L),
    layer("engine.busy_frac", "ratio", H),
    layer("engine.stolen", "count", L),
    layer("engine.broadcast_drops", "count", L),
    layer("engine.merge_fallbacks", "count", L),
    layer("engine.audit_us", "us", L),
    layer("engine.bdd_peak_nodes", "count", L),
    // serve: client-side view of the daemon protocol.
    layer("serve.connect_us", "us", L),
    layer("serve.ack_us", "us", L),
    layer("serve.queue_us", "us", L),
    layer("serve.exec_us", "us", L),
    layer("serve.tail_us", "us", L),
    layer("serve.reuse_ms.p50", "ms", L),
    layer("serve.reconnect_ms.p50", "ms", L),
    layer("serve.circuit_hit_ratio", "ratio", H),
    layer("serve.cssg_hit_ratio", "ratio", H),
    layer("serve.rejected", "count", L),
    // serve.fleet: distributed campaigns.
    layer("fleet.prepare_us", "us", L),
    layer("fleet.distribute_us", "us", L),
    layer("fleet.merge_us", "us", L),
    layer("fleet.shards", "count", L),
    layer("fleet.retries", "count", L),
    layer("fleet.remote_verdicts", "count", H),
    layer("fleet.merge_fallbacks", "count", L),
    // The ledger: per-campaign self time of each layer.
    layer("ledger.campaign_us", "us", L),
    layer("ledger.stg_us", "us", L),
    layer("ledger.netlist_us", "us", L),
    layer("ledger.core.cssg_us", "us", L),
    layer("ledger.core.random_us", "us", L),
    layer("ledger.core.targeted_us", "us", L),
    layer("ledger.engine_us", "us", L),
    layer("ledger.serve_us", "us", L),
    layer("ledger.serve.fleet_us", "us", L),
    layer("unattributed_us", "us", L),
    layer("trace_overhead_pct", "%", L),
];

/// The ledger's layers, in the order their `ledger.*` metrics appear.
pub const LAYERS: &[&str] = &[
    "stg",
    "netlist",
    "core.cssg",
    "core.random",
    "core.targeted",
    "engine",
    "serve",
    "serve.fleet",
];

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Campaigns attempted (timed region plus traced campaigns).
    pub attempted: u64,
    /// Campaigns that failed the output check or errored.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Context printed on the line before the result: input digest,
    /// sample counts, failure reasons.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds a context field; `value` must already be JSON.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// Share of failed campaigns.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every metric of `specs` (missing ones read 0).
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in specs.iter().enumerate() {
            let v = self.values.get(m.name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                number(v),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The context line printed before the result.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        let _ = write!(
            out,
            "{}\"failed_frac\": {}}}",
            if self.detail.is_empty() { "" } else { ", " },
            number(self.failed_frac())
        );
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (metric names and labels are plain ASCII).
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
