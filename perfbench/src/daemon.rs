//! `daemon_submit`: two closed-loop clients against an in-process
//! `satpg serve` daemon on loopback TCP.
//!
//! Most submits name one of the bundled suite benchmarks (every style,
//! both fault models); after warm-up these are cache hits, so transport
//! and queueing dominate.  A seeded one in eight submits inline `.ckt`
//! text of a generated netlist under a fresh name — a cache miss that
//! builds its CSSG.  Three of every four submits reuse the client's
//! connection; one in four reconnects, as `satpg submit` does.

use crate::check::{par_map, Outputs, Reference};
use crate::host::Calibration;
use crate::ledger::{campaign_ledgers, Recorder, Span};
use crate::metrics::{quoted, Outcome};
use crate::sys::{self, Digest, Rng};
use crate::{fill_end_to_end, fill_ledger, finish, repeat_setup, Options, Timed};
use satpg_core::json::Json;
use satpg_netlist::{families as nf, parse_ckt, to_ckt};
use satpg_serve::{
    job_atpg_config, resolve_circuit, CircuitSpec, Client, ClientError, JobSpec, ServeConfig,
    Server,
};
use satpg_stg::suite;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Closed-loop clients (one connection each).
pub const CLIENTS: usize = 2;

/// How often the host's speed is sampled while the clients run.
const CALIBRATION_EVERY: Duration = Duration::from_millis(200);

/// A running in-process daemon.
pub struct Daemon {
    /// The address clients connect to.
    pub addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds and starts a daemon.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, String> {
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    /// Shuts the daemon down and waits for its accept loop and executor
    /// pool to finish.
    pub fn stop(self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let _ = self.handle.join();
    }
}

/// The daemon's configuration: two job executors, one engine worker per
/// job, and caches large enough that nothing is evicted during a run.
fn serve_config() -> ServeConfig {
    ServeConfig {
        pool_workers: 2,
        default_job_workers: 1,
        cache_entries: 4096,
        ..ServeConfig::default()
    }
}

const STYLES: [&str; 3] = ["si", "2l", "2lr"];

fn suite_specs(smoke: bool) -> Vec<JobSpec> {
    let names = if smoke {
        &suite::NAMES[..2]
    } else {
        suite::NAMES
    };
    let styles = if smoke { &STYLES[..1] } else { &STYLES[..] };
    let mut v = Vec::new();
    for &name in names {
        for &style in styles {
            for output_model in [false, true] {
                v.push(JobSpec {
                    workers: 1,
                    output_model,
                    ..JobSpec::new(CircuitSpec::Bench {
                        name: name.to_string(),
                        style: style.to_string(),
                    })
                });
            }
        }
    }
    v
}

/// Generated netlists submitted (renamed) as cache misses.
fn miss_bases(smoke: bool) -> Vec<String> {
    let (muller, arbiter) = if smoke {
        (3..=4, 2..=2)
    } else {
        (8..=16, 3..=4)
    };
    muller
        .map(|n| to_ckt(&nf::muller_pipeline(n)))
        .chain(arbiter.map(|n| to_ckt(&nf::arbiter_tree(n))))
        .collect()
}

/// `.ckt` text under another circuit name.
fn renamed(text: &str, name: &str) -> String {
    let rest = text.split_once('\n').map(|(_, r)| r).unwrap_or("");
    format!("circuit {name}\n{rest}")
}

fn circuit_name(text: &str) -> &str {
    text.lines()
        .next()
        .and_then(|l| l.strip_prefix("circuit "))
        .unwrap_or("anon")
}

/// One slot of a client's submit sequence.
#[derive(Clone, Debug)]
struct Slot {
    /// Index into the suite specs, or `suite.len() + base` for a miss.
    input: usize,
    /// Open a new connection for this submit.
    reconnect: bool,
}

/// Each client's seeded sequence: in every block of eight one slot is a
/// miss, in every block of four one slot reconnects; suite jobs and miss
/// bases are dealt from reshuffled decks.
fn sequences(rng: &mut Rng, suite_n: usize, bases_n: usize, len: usize) -> Vec<Vec<Slot>> {
    (0..CLIENTS)
        .map(|_| {
            let mut suite_deck = Vec::new();
            let mut base_deck = Vec::new();
            let mut miss_at = 0;
            let mut reconnect_at = 0;
            (0..len)
                .map(|i| {
                    if i % 8 == 0 {
                        miss_at = i + rng.below(8);
                    }
                    if i % 4 == 0 {
                        reconnect_at = i + rng.below(4);
                    }
                    let input = if i == miss_at {
                        if base_deck.is_empty() {
                            base_deck = rng.permutation(bases_n);
                        }
                        suite_n + base_deck.pop().expect("refilled")
                    } else {
                        if suite_deck.is_empty() {
                            suite_deck = rng.permutation(suite_n);
                        }
                        suite_deck.pop().expect("refilled")
                    };
                    Slot {
                        input,
                        reconnect: i == reconnect_at,
                    }
                })
                .collect()
        })
        .collect()
}

/// What the client saw of one submit.
#[derive(Clone, Debug, Default)]
struct Sample {
    input: usize,
    reconnect: bool,
    wall_us: f64,
    connect_us: f64,
    ack_us: f64,
    queue_us: f64,
    exec_us: f64,
    tail_us: f64,
    circuit_hit: bool,
    cssg_hit: bool,
    rejected: bool,
    cssg: Option<Json>,
    random: Option<Json>,
    report: Option<Json>,
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut v = j;
    for k in path {
        match v.get(k) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// The timing-free report inside a `report` event.
fn report_json(ev: &Json) -> Option<String> {
    let Some(Json::Obj(members)) = ev.get("report") else {
        return None;
    };
    let kept: Vec<(String, Json)> = members
        .iter()
        .filter(|(k, _)| k != "timing_us")
        .cloned()
        .collect();
    Some(Json::Obj(kept).render())
}

struct Shared<'a> {
    opts: &'a Options,
    addr: &'a str,
    specs: &'a [JobSpec],
    bases: &'a [String],
    /// Keep each report for the per-layer statistics (traced runs).
    keep_reports: bool,
    /// Fresh-name counter, so a miss is a miss even when a sequence
    /// replays.
    fresh: &'a AtomicUsize,
}

/// One client's closed loop until the region is over.  When reports
/// are kept, each submit is also laid out as ledger spans (a no-op on a
/// disabled recorder).
fn client_loop(
    sh: &Shared<'_>,
    client: usize,
    slots: &[Slot],
    start: Instant,
    rec: &mut Recorder,
) -> (Vec<Sample>, Outputs, Instant) {
    let mut samples = Vec::new();
    let mut outputs = Outputs::default();
    let mut conn: Option<Client> = None;
    let mut last_end = start;
    // At least one block of eight slots, so even a zero-length region
    // submits a miss and reconnects.
    for (i, slot) in slots.iter().cycle().enumerate() {
        if i >= 8 && sh.opts.done(start) {
            break;
        }
        let (spec, renamed_as) = if slot.input < sh.specs.len() {
            (sh.specs[slot.input].clone(), None)
        } else {
            let base = &sh.bases[slot.input - sh.specs.len()];
            let n = sh.fresh.fetch_add(1, Ordering::SeqCst);
            let name = format!("{}_c{client}_{n}", circuit_name(base));
            let text = renamed(base, &name);
            let mut spec = JobSpec::new(CircuitSpec::InlineCkt { text });
            spec.workers = 1;
            (spec, Some(name))
        };
        let label = format!("{:?}", spec.circuit)
            .chars()
            .take(60)
            .collect::<String>();
        let mut s = Sample {
            input: slot.input,
            reconnect: slot.reconnect || conn.is_none(),
            ..Sample::default()
        };
        let t0 = Instant::now();
        if s.reconnect {
            conn = None;
            match Client::connect(sh.addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    outputs.add(slot.input, &label, None, Err(format!("connect: {e}")));
                    continue;
                }
            }
        }
        let t_conn = Instant::now();
        let (mut t_acc, mut t_first, mut t_last) = (None, None, None);
        let res = conn
            .as_mut()
            .expect("connected")
            .submit_streaming(spec, &mut |ev| {
                let now = Instant::now();
                match ev.get("event").and_then(Json::as_str) {
                    Some("accepted") => t_acc = Some(now),
                    Some("stage") => {
                        t_first.get_or_insert(now);
                        t_last = Some(now);
                        match ev.get("stage").and_then(Json::as_str) {
                            Some("circuit") => {
                                s.circuit_hit =
                                    ev.get("cache").and_then(Json::as_str) == Some("hit")
                            }
                            Some("cssg") => {
                                s.cssg_hit = ev.get("cache").and_then(Json::as_str) == Some("hit");
                                s.cssg = Some(ev.clone());
                            }
                            Some("random") => s.random = Some(ev.clone()),
                            _ => {}
                        }
                    }
                    _ => {}
                }
            });
        let t_end = Instant::now();
        last_end = t_end;
        let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
        s.wall_us = us(t0, t_end);
        s.connect_us = us(t0, t_conn);
        let t_acc = t_acc.unwrap_or(t_end);
        let (t_first, t_last) = (t_first.unwrap_or(t_acc), t_last.unwrap_or(t_acc));
        s.ack_us = us(t_conn, t_acc);
        s.queue_us = us(t_acc, t_first);
        s.exec_us = us(t_first, t_last);
        s.tail_us = us(t_last, t_end);
        match res {
            Ok(outcome) => {
                let got = report_json(&outcome.report)
                    .ok_or_else(|| "report event without a report".to_string());
                outputs.add(slot.input, &label, renamed_as, got);
                if sh.keep_reports {
                    s.report = Some(outcome.report);
                }
            }
            Err(e) => {
                conn = None;
                s.rejected = matches!(e, ClientError::Rejected(_));
                outputs.add(slot.input, &label, None, Err(e.to_string()));
            }
        }
        if let Some(report) = &s.report {
            // The submit as ledger spans: connect and acknowledgement on
            // the client side, then the job interval with the stages the
            // daemon reported nested where the daemon spent them; the
            // rest of the job interval is the serve layer's own
            // queueing, plumbing and transport.
            let root = rec.open_at("campaign", None, rec.at(t0));
            if s.reconnect {
                rec.record("serve.connect", Some("serve"), rec.at(t0), rec.at(t_conn));
            }
            rec.record("serve.ack", Some("serve"), rec.at(t_conn), rec.at(t_acc));
            let end = rec.at(t_end);
            let job = rec.open_at("serve.job", Some("serve"), rec.at(t_acc));
            let mut cursor = rec.at(t_acc);
            for (name, layer, dur) in [
                (
                    "cssg",
                    "core.cssg",
                    num(report, &["report", "timing_us", "cssg"]),
                ),
                (
                    "random",
                    "core.random",
                    num(report, &["report", "timing_us", "random"]),
                ),
                (
                    "engine",
                    "engine",
                    num(report, &["engine", "us_parallel"]) + num(report, &["engine", "us_merge"]),
                ),
            ] {
                let next = (cursor + dur).min(end);
                rec.record(name, Some(layer), cursor, next);
                cursor = next;
            }
            rec.close_at(job, end);
            rec.close_at(root, end);
        }
        samples.push(s);
    }
    (samples, outputs, last_end)
}

/// One recorder per client, on a shared epoch.
fn recorders(enabled: bool) -> Vec<Recorder> {
    let epoch = Instant::now();
    (0..CLIENTS)
        .map(|c| Recorder::new(epoch, c as u64 + 1, enabled))
        .collect()
}

/// Runs the closed loop of both clients, client `c` recording through
/// `recs[c]`; returns every sample, the outputs, and the region's
/// timings.  The region's CPU time is scaled to the nominal host speed
/// by calibration samples this otherwise idle thread takes while the
/// clients run; their own CPU time is taken out first.  Submit wall
/// times are reported as measured: they are mostly protocol waits.
fn closed_loop(
    sh: &Shared<'_>,
    seqs: &[Vec<Slot>],
    recs: &mut [Recorder],
) -> (Vec<Sample>, Outputs, Timed) {
    let start = Instant::now();
    let cpu0 = sys::cpu_time();
    let mut cal = Calibration::default();
    let mut cal_cpu = Duration::ZERO;
    let results: Vec<(Vec<Sample>, Outputs, Instant)> = thread::scope(|scope| {
        let handles: Vec<_> = recs
            .iter_mut()
            .enumerate()
            .map(|(c, rec)| {
                let slots = &seqs[c];
                scope.spawn(move || client_loop(sh, c, slots, start, rec))
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            let c0 = sys::thread_cpu_time();
            cal.probe();
            cal_cpu += sys::thread_cpu_time().saturating_sub(c0);
            thread::sleep(CALIBRATION_EVERY);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut outputs = Outputs::default();
    let mut end = start;
    for (s, o, e) in results {
        samples.extend(s);
        outputs.merge(o);
        end = end.max(e);
    }
    let mut timed = Timed {
        walls_ms: samples.iter().map(|s| s.wall_us / 1e3).collect(),
        calibration_ms: cal.median_ms(),
        ..Timed::default()
    };
    timed.finish(start, cpu0);
    timed.cpu = timed.cpu.saturating_sub(cal_cpu).mul_f64(cal.run_factor());
    // The region ends with the last reply, not with the joins.
    timed.region = end.duration_since(start);
    timed.measured = timed.region;
    (samples, outputs, timed)
}

/// Warm-up: every suite job once, split across the clients, each
/// submit on a fresh connection.
fn warm(addr: &str, specs: &[JobSpec]) -> Result<(), String> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    for spec in specs.iter().skip(c).step_by(CLIENTS) {
                        let mut client =
                            Client::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
                        client
                            .submit(spec.clone())
                            .map_err(|e| format!("warm-up submit: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread"))
    })
}

/// Runs `daemon_submit`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, opts.workload.name());
    let specs = suite_specs(opts.smoke);
    let bases = miss_bases(opts.smoke);
    let seqs = sequences(
        &mut rng,
        specs.len(),
        bases.len(),
        if opts.smoke { 64 } else { 4096 },
    );
    let mut digest = Digest::default();
    for seq in &seqs {
        for slot in seq {
            match specs.get(slot.input) {
                Some(spec) => digest.add(&format!("{spec:?}")),
                None => digest.add(&bases[slot.input - specs.len()]),
            }
            digest.add(if slot.reconnect { "reconnect" } else { "reuse" });
        }
    }

    let (daemon, setups) = repeat_setup(
        opts,
        false,
        || {
            let d = Daemon::start(serve_config())?;
            warm(&d.addr, &specs)?;
            Ok(d)
        },
        Daemon::stop,
    )?;
    let fresh = AtomicUsize::new(0);
    let sh = Shared {
        opts,
        addr: &daemon.addr,
        specs: &specs,
        bases: &bases,
        keep_reports: opts.trace,
        fresh: &fresh,
    };

    let mut out = Outcome::default();
    out.note("input_digest", quoted(&digest.hex()));
    let (outputs, timed) = if opts.trace {
        (traced(opts, &sh, &seqs, &mut out)?, None)
    } else {
        let (_, outputs, timed) = closed_loop(&sh, &seqs, &mut recorders(false));
        (outputs, Some(timed))
    };
    daemon.stop();

    // References, indexed like `Slot::input`.
    let mut refs = par_map(&specs, |spec| {
        let ckt = resolve_circuit(&spec.circuit)?;
        Reference::compute(&ckt, &job_atpg_config(spec, &ckt))
    })?;
    refs.extend(par_map(&bases, |base| {
        let ckt = parse_ckt(base).map_err(|e| e.to_string())?;
        let spec = JobSpec::new(CircuitSpec::InlineCkt { text: base.clone() });
        Reference::compute(&ckt, &job_atpg_config(&spec, &ckt))
    })?);
    if let Some(timed) = &timed {
        fill_end_to_end(&mut out, timed, &setups, &refs);
    }
    finish(&mut out, opts, outputs, refs);
    Ok(out)
}

/// The traced run: the first half of the region through disabled
/// recorders, the second half with every submit laid out as ledger
/// spans; `trace_overhead_pct` compares their mean latency.
fn traced(
    opts: &Options,
    sh: &Shared<'_>,
    seqs: &[Vec<Slot>],
    out: &mut Outcome,
) -> Result<Outputs, String> {
    let half = Options {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let sh_half = Shared { opts: &half, ..*sh };
    let (plain, mut outputs, _) = closed_loop(&sh_half, seqs, &mut recorders(false));
    let mut recs = recorders(true);
    let (samples, o, _) = closed_loop(&sh_half, seqs, &mut recs);
    outputs.merge(o);
    let spans: Vec<Span> = recs.into_iter().flat_map(Recorder::into_spans).collect();
    let ledgers = campaign_ledgers(&spans, "campaign");
    let mean_wall = |v: &[Sample]| sys::mean(&v.iter().map(|s| s.wall_us).collect::<Vec<_>>());
    fill_ledger(
        out,
        opts,
        &spans,
        &ledgers,
        (mean_wall(&samples) / mean_wall(&plain).max(1e-9) - 1.0) * 100.0,
    )?;

    let all: Vec<&Sample> = plain.iter().chain(&samples).collect();
    let n = all.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Sample) -> f64| all.iter().map(|s| f(s)).sum::<f64>() / n;
    let connects: Vec<f64> = all
        .iter()
        .filter(|s| s.reconnect)
        .map(|s| s.connect_us)
        .collect();
    out.set("serve.connect_us", sys::mean(&connects));
    out.set("serve.ack_us", avg(&|s| s.ack_us));
    out.set("serve.queue_us", avg(&|s| s.queue_us));
    out.set("serve.exec_us", avg(&|s| s.exec_us));
    out.set("serve.tail_us", avg(&|s| s.tail_us));
    let walls = |reconnect: bool| -> Vec<f64> {
        all.iter()
            .filter(|s| s.reconnect == reconnect)
            .map(|s| s.wall_us / 1e3)
            .collect()
    };
    out.set("serve.reuse_ms.p50", sys::quantile(&walls(false), 0.5));
    out.set("serve.reconnect_ms.p50", sys::quantile(&walls(true), 0.5));
    out.set(
        "serve.circuit_hit_ratio",
        avg(&|s| s.circuit_hit as u8 as f64),
    );
    out.set("serve.cssg_hit_ratio", avg(&|s| s.cssg_hit as u8 as f64));
    out.set(
        "serve.rejected",
        all.iter().filter(|s| s.rejected).count() as f64,
    );

    // Stage telemetry the daemon streamed: the CSSG build time of the
    // misses, and per distinct input the deterministic counts.
    let builds: Vec<f64> = all
        .iter()
        .filter(|s| !s.cssg_hit)
        .filter_map(|s| s.cssg.as_ref().map(|c| num(c, &["us"])))
        .collect();
    out.set("cssg.build_us", sys::mean(&builds));
    let settle_total: f64 = all
        .iter()
        .filter(|s| !s.cssg_hit)
        .filter_map(|s| s.cssg.as_ref().map(|c| num(c, &["settle_states"])))
        .sum();
    out.set(
        "cssg.settle_states_per_ms",
        settle_total / (builds.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    let mut first: Vec<Option<&Sample>> = vec![None; sh.specs.len() + sh.bases.len()];
    for s in &all {
        if s.report.is_some() {
            first[s.input].get_or_insert(s);
        }
    }
    let distinct: Vec<&Sample> = first.into_iter().flatten().collect();
    let per =
        |f: &dyn Fn(&Sample) -> f64| sys::mean(&distinct.iter().map(|s| f(s)).collect::<Vec<_>>());
    let cssg = |s: &Sample, k: &str| s.cssg.as_ref().map_or(0.0, |c| num(c, &[k]));
    let random = |s: &Sample, k: &str| s.random.as_ref().map_or(0.0, |c| num(c, &[k]));
    let report = |s: &Sample, p: &[&str]| s.report.as_ref().map_or(0.0, |r| num(r, p));
    out.set("cssg.states", per(&|s| cssg(s, "states")));
    out.set("cssg.edges", per(&|s| cssg(s, "edges")));
    out.set("cssg.settle_states", per(&|s| cssg(s, "settle_states")));
    out.set("cssg.por_pruned", per(&|s| cssg(s, "por_pruned")));
    out.set("cssg.truncated", per(&|s| cssg(s, "truncated")));
    out.set("random.us", avg(&|s| random(s, "us")));
    out.set("random.passes", per(&|s| random(s, "passes")));
    out.set("random.patterns", per(&|s| random(s, "patterns_evaluated")));
    out.set("random.resolved", per(&|s| random(s, "resolved")));
    let patterns: f64 = distinct
        .iter()
        .map(|s| random(s, "patterns_evaluated"))
        .sum();
    let resolved: f64 = distinct.iter().map(|s| random(s, "resolved")).sum();
    out.set(
        "random.resolved_per_kpattern",
        resolved / (patterns / 1e3).max(1e-9),
    );
    let searched = |s: &Sample| {
        s.report
            .as_ref()
            .and_then(|r| r.get("engine"))
            .and_then(|e| e.get("workers"))
            .and_then(Json::as_arr)
            .map_or(0.0, |ws| ws.iter().map(|w| num(w, &["searched"])).sum())
    };
    out.set("targeted.searched", per(&searched));
    out.set(
        "targeted.tests",
        per(&|s| {
            s.report
                .as_ref()
                .and_then(|r| r.get("report"))
                .and_then(|r| r.get("tests"))
                .and_then(Json::as_arr)
                .map_or(0.0, |t| t.len() as f64)
        }),
    );
    out.set(
        "targeted.untestable",
        per(&|s| report(s, &["report", "totals", "untestable"])),
    );
    out.set(
        "targeted.aborted",
        per(&|s| report(s, &["report", "totals", "aborted"])),
    );
    out.set(
        "engine.parallel_us",
        avg(&|s| report(s, &["engine", "us_parallel"])),
    );
    out.set(
        "engine.merge_us",
        avg(&|s| report(s, &["engine", "us_merge"])),
    );
    out.set(
        "engine.merge_fallbacks",
        avg(&|s| report(s, &["engine", "merge_fallbacks"])),
    );
    Ok(outputs)
}
