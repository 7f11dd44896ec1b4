//! `fleet_campaign`: `run_fleet` over two in-process peer daemons with
//! warm caches, on Muller pipelines (10–16) and arbiter-5 — the only
//! path into `serve.fleet`.

use crate::check::{par_map, Outputs, Reference};
use crate::daemon::Daemon;
use crate::inproc::rounds;
use crate::ledger::{campaign_ledgers, Paired, Recorder, Span};
use crate::metrics::{quoted, Outcome};
use crate::sys::{Digest, Rng};
use crate::{
    fill_end_to_end, fill_ledger, finish, repeat_setup, span_us, timed_rounds, Options, Timed,
};
use satpg_core::stages::{random_stage, targeted_stage, FaultPlan, StageState};
use satpg_core::{build_cssg_sharded, faults_for, three_phase, AtpgConfig, FaultStatus};
use satpg_engine::{merge_partial, prepare_campaign};
use satpg_netlist::{families as nf, parse_ckt, to_ckt, Circuit};
use satpg_serve::{
    job_atpg_config, run_fleet, run_fleet_built, CircuitSpec, FleetConfig, FleetStats, JobSpec,
    ServeConfig,
};
use std::time::Instant;

/// Peer daemons of the fleet.
pub const PEERS: usize = 2;

struct Case {
    label: String,
    spec: JobSpec,
    text: String,
}

fn cases(smoke: bool) -> Vec<Case> {
    let (muller, arbiter) = if smoke {
        (3..=4, 2..=2)
    } else {
        (10..=16, 5..=5)
    };
    muller
        .map(|n| (format!("muller-{n}"), nf::muller_pipeline(n)))
        .chain(arbiter.map(|n| (format!("arbiter-{n}"), nf::arbiter_tree(n))))
        .map(|(label, ckt)| {
            let text = to_ckt(&ckt);
            let spec = JobSpec {
                workers: 2,
                ..JobSpec::new(CircuitSpec::InlineCkt { text: text.clone() })
            };
            Case { label, spec, text }
        })
        .collect()
}

/// The three-phase verdict of every class the serial flow searches,
/// recorded for replaying the coordinator's merge on its own.
fn serial_verdicts(ckt: &Circuit, cfg: &AtpgConfig) -> Result<Vec<Option<FaultStatus>>, String> {
    let cssg = build_cssg_sharded(ckt, &cfg.cssg, 1).map_err(|e| e.to_string())?;
    let faults = faults_for(ckt, cfg.fault_model);
    let plan = FaultPlan::new(ckt, &faults, cfg.collapse);
    let mut state = StageState::new(plan.len());
    if let Some(r) = &cfg.random {
        random_stage(ckt, &cssg, &plan, r, &mut state);
    }
    let mut verdicts = vec![None; plan.len()];
    let queue: Vec<usize> = (0..plan.len()).collect();
    targeted_stage(
        ckt,
        &cssg,
        &plan,
        cfg.fault_sim,
        &queue,
        &mut state,
        &mut |ci, f| {
            let v = three_phase(ckt, &cssg, f, &cfg.three_phase);
            verdicts[ci] = Some(v.clone());
            v
        },
    );
    Ok(verdicts)
}

/// One fleet campaign through its public pieces, timed as spans:
/// parse → CSSG → `run_fleet_built` (random stage, distribution,
/// merge).  Returns the timing-free report, the fleet statistics, and
/// the report's three-phase time (distribution plus merge) and the
/// coordinator's random-stage time.
fn traced_campaign(
    case: &Case,
    fc: &FleetConfig,
    rec: &mut Recorder,
) -> Result<(String, FleetStats, f64, f64), String> {
    let root = rec.open("campaign", None);
    let out = (|| {
        let ckt = rec
            .time("netlist.parse", Some("netlist"), || parse_ckt(&case.text))
            .map_err(|e| e.to_string())?;
        let cfg = job_atpg_config(&case.spec, &ckt);
        let cssg = rec
            .time("cssg.build", Some("core.cssg"), || {
                build_cssg_sharded(&ckt, &cfg.cssg, 1)
            })
            .map_err(|e| e.to_string())?;
        let faults = faults_for(&ckt, cfg.fault_model);
        let run = rec.open("fleet.run", Some("serve.fleet"));
        let start = rec.now_us();
        let outcome = run_fleet_built(&ckt, &cssg, &faults, &cfg, &case.spec, fc, 0);
        // The coordinator's random stage runs first inside the call; its
        // reported duration is nested where it ran.
        let us_random = outcome.report.us_random as f64;
        rec.record("random", Some("core.random"), start, start + us_random);
        rec.close(run);
        Ok((
            outcome.report.to_json_value(false).render(),
            outcome.stats,
            outcome.report.us_three_phase as f64,
            us_random,
        ))
    })();
    rec.close(root);
    out
}

/// The untraced workload campaign: `run_fleet` from the spec.
fn campaign(case: &Case, fc: &FleetConfig) -> Result<String, String> {
    let out = run_fleet(&case.spec, fc)?;
    Ok(out.report.to_json_value(false).render())
}

struct Fleet {
    peers: Vec<Daemon>,
    config: FleetConfig,
}

fn start_fleet(cases: &[Case]) -> Result<Fleet, String> {
    let peers = (0..PEERS)
        .map(|_| {
            Daemon::start(ServeConfig {
                cache_entries: 4096,
                ..ServeConfig::default()
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let config = FleetConfig {
        peers: peers.iter().map(|p| p.addr.clone()).collect(),
        ..FleetConfig::default()
    };
    // Warm-up: one campaign per distinct input fills both peers'
    // circuit and CSSG caches.
    for c in cases {
        campaign(c, &config)?;
    }
    Ok(Fleet { peers, config })
}

fn stop_fleet(f: Fleet) {
    f.peers.into_iter().for_each(Daemon::stop);
}

/// Runs `fleet_campaign`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, opts.workload.name());
    let cases = cases(opts.smoke);
    let order = rounds(&mut rng, cases.len());
    let mut digest = Digest::default();
    for c in &cases {
        digest.add(&c.text);
    }
    for r in &order {
        digest.add(&format!("{r:?}"));
    }
    let specs = |c: &Case| -> Result<(Circuit, AtpgConfig), String> {
        let ckt = parse_ckt(&c.text).map_err(|e| e.to_string())?;
        let cfg = job_atpg_config(&c.spec, &ckt);
        Ok((ckt, cfg))
    };
    // The traced run replays the merge from recorded serial verdicts.
    let verdicts = if opts.trace {
        par_map(&cases, |c| {
            specs(c).and_then(|(ckt, cfg)| serial_verdicts(&ckt, &cfg))
        })?
    } else {
        Vec::new()
    };

    let (fleet, setups) = repeat_setup(opts, false, || start_fleet(&cases), stop_fleet)?;
    let mut out = Outcome::default();
    out.note("input_digest", quoted(&digest.hex()));
    let mut outputs = Outputs::default();
    let result = if opts.trace {
        traced(
            opts,
            &cases,
            &order,
            &verdicts,
            &fleet.config,
            &mut outputs,
            &mut out,
        )
        .map(|()| None)
    } else {
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        let (samples, cal, measured) = timed_rounds(opts, &order, &labels, &mut outputs, |i| {
            campaign(&cases[i], &fleet.config)
        });
        // A fleet campaign mostly waits on its peers' replies: its wall
        // time is reported as measured, its CPU time scaled.
        Ok(Some(Timed::per_input(&samples, &cal, false, measured)))
    };
    stop_fleet(fleet);
    let timed = result?;

    let refs = par_map(&cases, |c| {
        specs(c).and_then(|(ckt, cfg)| Reference::compute(&ckt, &cfg))
    })?;
    if let Some(timed) = &timed {
        fill_end_to_end(&mut out, timed, &setups, &refs);
    }
    finish(&mut out, opts, outputs, refs);
    Ok(out)
}

/// The traced run: every campaign through [`traced_campaign`], paired
/// untraced and traced (see [`Paired`]); after each pair the
/// coordinator's merge is replayed on its own (with every verdict
/// delivered, as the peers deliver them) to split the traced report's
/// three-phase time into distribution and merge.
fn traced(
    opts: &Options,
    cases: &[Case],
    order: &[Vec<usize>],
    verdicts: &[Vec<Option<FaultStatus>>],
    fc: &FleetConfig,
    outputs: &mut Outputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut paired = Paired::new(Instant::now(), 1);
    let mut stats = Vec::new();
    let (mut three_phase_us, mut random_us, mut merge_us) = (0.0, 0.0, 0.0);
    let start = Instant::now();
    for round in order.iter().cycle() {
        for &i in round {
            let c = &cases[i];
            let [plain, traced] = paired.run(|rec| traced_campaign(c, fc, rec));
            outputs.add(i, &c.label, None, plain.map(|r| r.0));
            let (json, s, tp, rnd) = match traced {
                Ok(r) => r,
                Err(e) => {
                    outputs.add(i, &c.label, None, Err(e));
                    continue;
                }
            };
            outputs.add(i, &c.label, None, Ok(json));
            stats.push(s);
            three_phase_us += tp;
            random_us += rnd;
            merge_us += replay_merge(c, &verdicts[i])?;
        }
        if opts.done(start) {
            break;
        }
    }
    let overhead = paired.overhead_pct();
    let spans: Vec<Span> = paired.into_spans();
    let ledgers = campaign_ledgers(&spans, "campaign");
    let k = ledgers.len();
    fill_ledger(out, opts, &spans, &ledgers, overhead)?;

    let n = stats.len().max(1) as f64;
    out.set("netlist.parse_us", span_us(&spans, "netlist.parse", k));
    let build = span_us(&spans, "cssg.build", k);
    out.set("cssg.build_us", build);
    out.set("random.us", random_us / n);
    out.set("fleet.prepare_us", build + random_us / n);
    out.set(
        "fleet.distribute_us",
        ((three_phase_us - merge_us) / n).max(0.0),
    );
    out.set("fleet.merge_us", merge_us / n);
    let avg = |f: fn(&FleetStats) -> usize| stats.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    out.set("fleet.shards", avg(|s| s.shards));
    out.set("fleet.retries", avg(|s| s.retries));
    out.set("fleet.remote_verdicts", avg(|s| s.remote_verdicts));
    out.set("fleet.merge_fallbacks", avg(|s| s.merge_fallbacks));
    Ok(())
}

/// Replays the coordinator's deterministic merge for one input with
/// every verdict present; returns its duration in microseconds.
fn replay_merge(case: &Case, verdicts: &[Option<FaultStatus>]) -> Result<f64, String> {
    let ckt = parse_ckt(&case.text).map_err(|e| e.to_string())?;
    let cfg = job_atpg_config(&case.spec, &ckt);
    let cssg = build_cssg_sharded(&ckt, &cfg.cssg, 1).map_err(|e| e.to_string())?;
    let faults = faults_for(&ckt, cfg.fault_model);
    let campaign = prepare_campaign(&ckt, &cssg, &faults, &cfg);
    let merged = merge_partial(
        &ckt,
        &cssg,
        &faults,
        &cfg,
        &campaign.plan,
        campaign.state,
        0,
        0,
        0,
        &mut |ci| verdicts.get(ci).cloned().flatten(),
    );
    Ok(merged.us_merge as f64)
}
