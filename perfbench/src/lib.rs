//! `satpg-perfbench`: the repository's benchmark.
//!
//! Four workloads drive the paths a user runs — spec → report through
//! the synthesis front end, `.ckt` → report through the settle-bound
//! engine, daemon submits over loopback TCP, and fleet campaigns over
//! in-process peer daemons — from one process.  Every campaign's
//! timing-free report is checked byte for byte against the serial
//! `run_atpg` reference, and every distinct emitted test is replayed
//! through the independent delay oracle.
//!
//! An untraced run (`trace: false`) reports the end-to-end metrics; a
//! traced run reports the per-layer ledger, timed by this crate around
//! calls into each layer's public functions (see [`ledger`]).  The
//! program itself is not modified or instrumented.  See `README.md`.

pub mod check;
pub mod daemon;
pub mod fleet;
pub mod host;
pub mod inproc;
pub mod ledger;
pub mod metrics;
pub mod sys;

use host::Calibration;
use ledger::{CampaignLedger, Span};
use metrics::{quoted, Outcome, LAYERS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// STG spec text → state graph → complex-gate synthesis → engine.
    SynthFrontEnd,
    /// `.ckt` text → parse → engine with two workers (settle-bound).
    SettleBound,
    /// Two closed-loop clients against an in-process daemon.
    DaemonSubmit,
    /// Fleet campaigns over two in-process peer daemons.
    FleetCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SynthFrontEnd,
        Workload::SettleBound,
        Workload::DaemonSubmit,
        Workload::FleetCampaign,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthFrontEnd => "synth_front_end",
            Workload::SettleBound => "settle_bound",
            Workload::DaemonSubmit => "daemon_submit",
            Workload::FleetCampaign => "fleet_campaign",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured region; whole rounds of inputs run until
    /// it has passed (at least one round, so 0 runs exactly one).
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
    /// Shrinks every size range and set-up count (self-tests).
    pub smoke: bool,
    /// Breaks every reference on purpose (self-test of the check).
    pub corrupt_reference: bool,
    /// Where a traced run writes its Chrome trace; `None` skips it.
    pub trace_dir: Option<PathBuf>,
}

impl Options {
    /// Default options for a workload: full sizes, no trace file.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            smoke: false,
            corrupt_reference: false,
            trace_dir: None,
        }
    }

    /// How many times set-up runs; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Whether the measured region is over.
    pub fn done(&self, start: Instant) -> bool {
        start.elapsed() >= Duration::from_secs_f64(self.seconds)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Failures that prevent measuring at all (a daemon that cannot bind, a
/// reference that cannot be computed).  Failed campaigns are not errors:
/// they are counted in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = match opts.workload {
        Workload::SynthFrontEnd | Workload::SettleBound => inproc::run(opts)?,
        Workload::DaemonSubmit => daemon::run(opts)?,
        Workload::FleetCampaign => fleet::run(opts)?,
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let head = [
        ("workload", quoted(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        ("cpus", cpus.to_string()),
    ];
    out.detail
        .splice(0..0, head.map(|(k, v)| (k.to_string(), v)));
    Ok(out)
}

/// What an untraced measured region produced.  Compute-bound times are
/// scaled to the nominal host speed (see [`host`]).
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Campaign wall times the quantiles are taken over, milliseconds.
    pub walls_ms: Vec<f64>,
    /// Wall time those campaigns took together (the rate's denominator).
    pub region: Duration,
    /// Real length of the measured region.
    pub measured: Duration,
    /// Process CPU time those campaigns took together.
    pub cpu: Duration,
    /// Campaigns actually run in the region.
    pub campaigns_run: usize,
    /// Peak RSS at the end of the measured region, before any reference
    /// is computed.
    pub peak_rss_mb: f64,
    /// Median calibration time of the region, milliseconds.
    pub calibration_ms: f64,
}

/// One campaign of a measured region: its wall and process CPU
/// milliseconds as measured, and the calibration sample taken just
/// before it.
#[derive(Clone, Copy, Debug)]
pub struct CampaignTime {
    /// Wall milliseconds.
    pub wall_ms: f64,
    /// Process CPU milliseconds.
    pub cpu_ms: f64,
    /// Index of the calibration sample taken before the campaign.
    pub probe: usize,
}

impl Timed {
    /// Closes a measured region of campaigns timed one by one, which
    /// began at `start` with process CPU time `cpu0`.
    pub fn finish(&mut self, start: Instant, cpu0: Duration) {
        self.region = start.elapsed();
        self.measured = self.region;
        self.cpu = sys::cpu_time().saturating_sub(cpu0);
        self.campaigns_run = self.walls_ms.len();
        self.peak_rss_mb = sys::peak_rss_mb();
    }

    /// A region of whole rounds, summarised per input: `samples[i]`
    /// holds every campaign of input `i`, and the input's time is the
    /// 75th percentile of its campaigns.
    ///
    /// Each campaign's CPU time, and its wall time when `scale_wall`
    /// (the campaign computes all the time it takes), is first scaled to
    /// the nominal host speed by the calibration beside it.  What the
    /// calibration leaves of the host's noise only ever slows campaigns,
    /// in bursts; an input's 75th percentile sits inside the usual,
    /// slower state and is steadier than its minimum or median.
    /// Quantiles are then taken over inputs, each weighted by its equal
    /// number of campaigns, and the rate is campaigns per second at those
    /// times: `region` is the sum of the inputs' 75th percentiles.
    pub fn per_input(
        samples: &[Vec<CampaignTime>],
        cal: &Calibration,
        scale_wall: bool,
        measured: Duration,
    ) -> Timed {
        const Q: f64 = 0.75;
        let scaled = |v: &Vec<CampaignTime>, wall: bool| -> f64 {
            let times: Vec<f64> = v
                .iter()
                .map(|c| {
                    let f = cal.factor_at(c.probe);
                    match (wall, scale_wall) {
                        (true, true) => c.wall_ms * f,
                        (true, false) => c.wall_ms,
                        (false, _) => c.cpu_ms * f,
                    }
                })
                .collect();
            sys::quantile(&times, Q)
        };
        let walls: Vec<f64> = samples.iter().map(|v| scaled(v, true)).collect();
        let cpus: f64 = samples.iter().map(|v| scaled(v, false)).sum();
        let ms = |v: f64| Duration::from_secs_f64(v / 1e3);
        Timed {
            region: ms(walls.iter().sum()),
            measured,
            cpu: ms(cpus),
            walls_ms: walls,
            campaigns_run: samples.iter().map(Vec::len).sum(),
            peak_rss_mb: sys::peak_rss_mb(),
            calibration_ms: cal.median_ms(),
        }
    }
}

/// Whole rounds of campaigns, one at a time, until the measured region
/// is over: returns every campaign's times, per input, the calibration
/// sampled before each campaign, and the region's length, and collects
/// each output for the check.
pub fn timed_rounds(
    opts: &Options,
    order: &[Vec<usize>],
    labels: &[&str],
    outputs: &mut check::Outputs,
    mut campaign: impl FnMut(usize) -> Result<String, String>,
) -> (Vec<Vec<CampaignTime>>, Calibration, Duration) {
    let mut samples = vec![Vec::new(); labels.len()];
    let mut cal = Calibration::default();
    let start = Instant::now();
    for round in order.iter().cycle() {
        for &i in round {
            let probe = cal.probe();
            let (t, cpu0) = (Instant::now(), sys::cpu_time());
            let res = campaign(i);
            samples[i].push(CampaignTime {
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
                cpu_ms: sys::cpu_time().saturating_sub(cpu0).as_secs_f64() * 1e3,
                probe,
            });
            outputs.add(i, labels[i], None, res);
        }
        if opts.done(start) {
            break;
        }
    }
    (samples, cal, start.elapsed())
}

/// Fills the end-to-end metrics.  Coverage and tests per campaign are
/// means over the workload's distinct inputs, each counted once, read
/// from their references (every campaign was checked identical to its
/// reference).
pub fn fill_end_to_end(
    out: &mut Outcome,
    timed: &Timed,
    setups_s: &[f64],
    refs: &[check::Reference],
) {
    let n = timed.walls_ms.len().max(1) as f64;
    out.set("campaign_ms.p50", sys::quantile(&timed.walls_ms, 0.5));
    out.set("campaign_ms.p90", sys::quantile(&timed.walls_ms, 0.9));
    out.set(
        "campaigns_per_s",
        timed.walls_ms.len() as f64 / timed.region.as_secs_f64().max(1e-9),
    );
    out.set("cpu_ms_per_campaign", timed.cpu.as_secs_f64() * 1e3 / n);
    out.set("setup_s", sys::quantile(setups_s, 0.5));
    out.set("peak_rss_mb", timed.peak_rss_mb);
    let coverage: Vec<f64> = refs.iter().map(|r| r.report.coverage()).collect();
    let tests: Vec<f64> = refs.iter().map(|r| r.report.tests.len() as f64).collect();
    out.set("fault_coverage_pct", sys::mean(&coverage));
    out.set("tests_per_campaign", sys::mean(&tests));
    out.note("campaign_ms_samples", timed.walls_ms.len().to_string());
    out.note("campaigns_run", timed.campaigns_run.to_string());
    out.note("setup_samples", setups_s.len().to_string());
    out.note("distinct_inputs", refs.len().to_string());
    out.note("host_calibration_ms", metrics::number(timed.calibration_ms));
    out.note(
        "host_factor",
        metrics::number(host::NOMINAL_MS / timed.calibration_ms.max(1e-9)),
    );
    let measured = timed.measured.as_secs_f64();
    out.note("measured_s", metrics::number(measured));
    out.note(
        "measured_campaigns_per_s",
        metrics::number(timed.campaigns_run as f64 / measured.max(1e-9)),
    );
}

/// Checks the collected outputs against the references (broken first
/// when the options ask for it) and records the tally and what the
/// oracle decided.
pub fn finish(
    out: &mut Outcome,
    opts: &Options,
    outputs: check::Outputs,
    mut refs: Vec<check::Reference>,
) {
    if opts.corrupt_reference {
        refs.iter_mut().for_each(check::Reference::corrupt);
    }
    let confirmed: usize = refs.iter().map(|r| r.oracle_confirmed).sum();
    let undecided: usize = refs.iter().map(|r| r.oracle_undecided).sum();
    out.note("oracle_confirmed", confirmed.to_string());
    out.note("oracle_undecided", undecided.to_string());
    let tally = outputs.check(&refs);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let reasons: Vec<String> = tally.reasons.iter().map(|r| quoted(r)).collect();
    out.note("failures", format!("[{}]", reasons.join(", ")));
}

/// Fills the `ledger.*` and `unattributed_us` metrics (per-campaign
/// means) and `trace_overhead_pct`; writes the Chrome trace when asked.
pub fn fill_ledger(
    out: &mut Outcome,
    opts: &Options,
    spans: &[Span],
    ledgers: &[CampaignLedger],
    overhead_pct: f64,
) -> Result<(), String> {
    let n = ledgers.len().max(1) as f64;
    let wall: f64 = ledgers.iter().map(|l| l.wall_us).sum();
    out.set("ledger.campaign_us", wall / n);
    let mut shares = Vec::new();
    for &layer in LAYERS {
        let total: f64 = ledgers
            .iter()
            .map(|l| l.layers.get(layer).copied().unwrap_or(0.0))
            .sum();
        out.set(&format!("ledger.{layer}_us"), total / n);
        shares.push(format!(
            "{}: {}",
            quoted(layer),
            metrics::number(total / wall.max(1e-9))
        ));
    }
    let unattributed: f64 = ledgers.iter().map(|l| l.unattributed_us).sum();
    out.set("unattributed_us", unattributed / n);
    out.set("trace_overhead_pct", overhead_pct);
    out.note("ledger_campaigns", ledgers.len().to_string());
    out.note("ledger_shares", format!("{{{}}}", shares.join(", ")));
    if let Some(dir) = &opts.trace_dir {
        let text = ledger::chrome_trace(spans);
        let count = ledger::check_chrome_trace(&text)?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note("trace_file", quoted(&path.display().to_string()));
        out.note("trace_spans", count.to_string());
    }
    Ok(())
}

/// Sum of the durations of spans named `name`, per campaign.
pub fn span_us(spans: &[Span], name: &str, campaigns: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .sum::<f64>()
        / campaigns.max(1) as f64
}

/// Sum of the same-thread self times of spans named `name`, per campaign.
pub fn span_self_us(spans: &[Span], name: &str, campaigns: usize) -> f64 {
    let own = ledger::self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, o)| o)
        .sum::<f64>()
        / campaigns.max(1) as f64
}

/// Times `setup` `opts.setups()` times, keeping the last result; the
/// returned durations feed `setup_s`.  Earlier results are dropped
/// (daemons shut down) before the next set-up starts.  With `scale` (a
/// set-up that computes all the time it takes), each set-up's time is
/// scaled to the nominal host speed by calibration samples taken just
/// before it, outside the timed interval.
pub fn repeat_setup<T>(
    opts: &Options,
    scale: bool,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    const PROBES: usize = 5;
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..opts.setups() {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let mut cal = Calibration::default();
        if scale {
            (0..PROBES).for_each(|_| {
                cal.probe();
            });
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64() * cal.run_factor());
    }
    Ok((kept.expect("at least one set-up"), times))
}
