//! The in-process workloads: `synth_front_end` (STG spec text through
//! the synthesis front end) and `settle_bound` (`.ckt` text through the
//! two-worker engine).

use crate::check::{par_map, Outputs, Reference};
use crate::ledger::{campaign_ledgers, Paired, Recorder, Span};
use crate::metrics::{quoted, Outcome};
use crate::sys::{self, Digest, Rng};
use crate::{
    fill_end_to_end, fill_ledger, finish, repeat_setup, span_self_us, span_us, timed_rounds,
    Options, Timed, Workload,
};
use satpg_core::stages::{
    assemble_report, random_stage, targeted_stage, FaultPlan, StageState, StageTimings,
};
use satpg_core::{build_cssg_sharded, faults_for, three_phase, AtpgConfig, RandomTpgConfig};
use satpg_engine::audit::WalkAuditor;
use satpg_engine::{run_engine, EngineConfig, EngineReport};
use satpg_netlist::{families as nf, parse_ckt, to_ckt, Circuit};
use satpg_stg::families as sf;
use satpg_stg::synth::complex_gate;
use satpg_stg::{parse_g, StateGraph};
use std::time::Instant;

/// Engine workers (and CSSG build shards) of every in-process campaign.
pub const WORKERS: usize = 2;

/// How an input's text reaches a circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Front {
    /// `.g` STG spec: parse, state graph, complex-gate synthesis.
    Spec,
    /// `.ckt` netlist: parse.
    Netlist,
}

/// One distinct input.
#[derive(Clone, Debug)]
pub struct Case {
    /// Family and size, e.g. `dme-4`.
    pub label: String,
    /// Text kind.
    pub front: Front,
    /// The text the program receives.
    pub text: String,
    /// The random-TPG seed of this input.
    pub rng_seed: u64,
}

/// An input whose random-TPG seed is fixed by its label, not drawn from
/// the run's seed: the test set a seed draws moves a Muller input's
/// campaign time by up to a fifth, and `campaign_ms.p50` is the time of
/// one input, so a drawn seed would make that metric differ between
/// runs by more than any noise.  The run's seed draws the order.
fn case(label: String, front: Front, text: String) -> Case {
    Case {
        rng_seed: sys::fnv64(label.as_bytes()),
        label,
        front,
        text,
    }
}

/// The distinct inputs of `synth_front_end`: dme rings (3–4 cells) and
/// sequencers (6–9 stages) as STG spec text.  A round takes about half
/// a second, so each input repeats often enough in a run for its 75th
/// percentile to be steady; dme-5 and seq-10 take over a second each.
pub fn synth_cases(smoke: bool) -> Vec<Case> {
    let (dme, seq) = if smoke {
        (3..=3, 6..=7)
    } else {
        (3..=4, 6..=9)
    };
    let mut v: Vec<Case> = dme
        .map(|n| case(format!("dme-{n}"), Front::Spec, sf::dme_ring_source(n)))
        .collect();
    v.extend(seq.map(|n| case(format!("seq-{n}"), Front::Spec, sf::sequencer_source(n))));
    v
}

/// The distinct inputs of `settle_bound`: Muller pipelines (24–48
/// stages, every fourth size) and arbiter trees (5–6) as `.ckt` text.  A
/// round takes about a second, so each input repeats some twenty times
/// in a run; with every other Muller size, the fifteen inputs repeated
/// too few times for `campaign_ms.p50`, one input's time, to be steady.
pub fn settle_cases(smoke: bool) -> Vec<Case> {
    let (muller, arbiter) = if smoke {
        (4..=6, 3..=3)
    } else {
        (24..=48, 5..=6)
    };
    let mut v: Vec<Case> = muller
        .step_by(if smoke { 1 } else { 4 })
        .map(|n| {
            case(
                format!("muller-{n}"),
                Front::Netlist,
                to_ckt(&nf::muller_pipeline(n)),
            )
        })
        .collect();
    v.extend(arbiter.map(|n| {
        case(
            format!("arbiter-{n}"),
            Front::Netlist,
            to_ckt(&nf::arbiter_tree(n)),
        )
    }));
    v
}

/// Round orders: each round visits every distinct input once, in a
/// seed-drawn order, so every run sees the same size mix.
pub fn rounds(rng: &mut Rng, n: usize) -> Vec<Vec<usize>> {
    (0..256).map(|_| rng.permutation(n)).collect()
}

/// The flow configuration of an input: the scaled paper flow with the
/// input's random-TPG seed.
pub fn atpg_config(ckt: &Circuit, rng_seed: u64) -> AtpgConfig {
    AtpgConfig {
        random: Some(RandomTpgConfig {
            seed: rng_seed,
            ..RandomTpgConfig::default()
        }),
        ..AtpgConfig::scaled(ckt)
    }
}

fn engine_config(ckt: &Circuit, rng_seed: u64) -> EngineConfig {
    EngineConfig {
        atpg: atpg_config(ckt, rng_seed),
        workers: WORKERS,
        ..EngineConfig::default()
    }
}

/// The program's front end for an input (untimed helper).
pub fn circuit_of(case: &Case) -> Result<Circuit, String> {
    match case.front {
        Front::Spec => {
            let stg = parse_g(&case.text).map_err(|e| e.to_string())?;
            let sg = StateGraph::build(&stg).map_err(|e| e.to_string())?;
            complex_gate(&stg, &sg).map_err(|e| e.to_string())
        }
        Front::Netlist => parse_ckt(&case.text).map_err(|e| e.to_string()),
    }
}

/// One campaign on the workload path: text → circuit → `run_engine`
/// with two workers → timing-free report.
pub fn campaign(case: &Case) -> Result<(String, EngineReport), String> {
    let ckt = circuit_of(case)?;
    let out = run_engine(&ckt, &engine_config(&ckt, case.rng_seed)).map_err(|e| e.to_string())?;
    Ok((out.report.to_json_value(false).render(), out))
}

/// Deterministic counts of one staged campaign.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    sg_states: f64,
    gates: f64,
    cssg_states: f64,
    cssg_edges: f64,
    settle_states: f64,
    por_pruned: f64,
    truncated: f64,
    passes: f64,
    patterns: f64,
    resolved: f64,
    searched: f64,
    tests: f64,
    untestable: f64,
    aborted: f64,
}

/// One campaign through the public staged pipeline, every layer call
/// timed as a span: front end → CSSG → `FaultPlan` + `random_stage` →
/// `targeted_stage` with a timed three-phase oracle → `assemble_report`
/// → the engine's symbolic audit of every test.
pub fn staged_campaign(case: &Case, rec: &mut Recorder) -> Result<(String, Counts), String> {
    let root = rec.open("campaign", None);
    let out = staged_body(case, rec);
    rec.close(root);
    out
}

fn staged_body(case: &Case, rec: &mut Recorder) -> Result<(String, Counts), String> {
    let mut n = Counts::default();
    let ckt = match case.front {
        Front::Spec => {
            let stg = rec
                .time("stg.parse", Some("stg"), || parse_g(&case.text))
                .map_err(|e| e.to_string())?;
            let sg = rec
                .time("stg.sg", Some("stg"), || StateGraph::build(&stg))
                .map_err(|e| e.to_string())?;
            n.sg_states = sg.states().len() as f64;
            rec.time("stg.synth", Some("stg"), || complex_gate(&stg, &sg))
                .map_err(|e| e.to_string())?
        }
        Front::Netlist => rec
            .time("netlist.parse", Some("netlist"), || parse_ckt(&case.text))
            .map_err(|e| e.to_string())?,
    };
    n.gates = ckt.num_gates() as f64;
    let cfg = atpg_config(&ckt, case.rng_seed);
    // The CSSG is built on as many shards as the workload's engine
    // builds it; the stages after it run on this one thread.
    let cssg = rec
        .time("cssg.build", Some("core.cssg"), || {
            build_cssg_sharded(&ckt, &cfg.cssg, WORKERS)
        })
        .map_err(|e| e.to_string())?;
    if cssg.num_edges() == 0 {
        return Err(satpg_core::CoreError::NoValidVectors.to_string());
    }
    n.cssg_states = cssg.num_states() as f64;
    n.cssg_edges = cssg.num_edges() as f64;
    n.settle_states = cssg.settle_stats().states_explored as f64;
    n.por_pruned = cssg.settle_stats().por_pruned as f64;
    n.truncated = cssg.pruned_truncated() as f64;

    let faults = faults_for(&ckt, cfg.fault_model);
    let (plan, mut state) = rec.time("random", Some("core.random"), || {
        let plan = FaultPlan::new(&ckt, &faults, cfg.collapse);
        let mut state = StageState::new(plan.len());
        if let Some(r) = &cfg.random {
            random_stage(&ckt, &cssg, &plan, r, &mut state);
        }
        (plan, state)
    });
    n.passes = state.random.passes as f64;
    n.patterns = state.random.patterns_evaluated as f64;
    n.resolved = (plan.len() - state.open_classes().len()) as f64;

    let targeted = rec.open("targeted", Some("core.targeted"));
    let queue: Vec<usize> = (0..plan.len()).collect();
    let mut searched = 0usize;
    targeted_stage(
        &ckt,
        &cssg,
        &plan,
        cfg.fault_sim,
        &queue,
        &mut state,
        &mut |_, f| {
            searched += 1;
            rec.time("three_phase", Some("core.targeted"), || {
                three_phase(&ckt, &cssg, f, &cfg.three_phase)
            })
        },
    );
    rec.close(targeted);
    n.searched = searched as f64;

    let report = rec.time("assemble", Some("engine"), || {
        assemble_report(&ckt, &cssg, &faults, &plan, state, StageTimings::default())
    });
    let audited = rec.time("audit", Some("engine"), || {
        let mut auditor = WalkAuditor::new(&cssg);
        report.tests.iter().all(|t| auditor.check(t))
    });
    if !audited {
        return Err(format!("{}: a test failed the symbolic audit", case.label));
    }
    n.tests = report.tests.len() as f64;
    n.untestable = report.untestable() as f64;
    n.aborted = report.aborted() as f64;
    Ok((report.to_json_value(false).render(), n))
}

/// Runs `synth_front_end` or `settle_bound`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, opts.workload.name());
    let cases = match opts.workload {
        Workload::SynthFrontEnd => synth_cases(opts.smoke),
        _ => settle_cases(opts.smoke),
    };
    let order = rounds(&mut rng, cases.len());
    let mut digest = Digest::default();
    for c in &cases {
        digest.add(&c.text);
        digest.add(&c.rng_seed.to_string());
    }
    for r in &order {
        digest.add(&format!("{r:?}"));
    }

    // Set-up: a warm-up round, every input once in its generated order.
    let ((), setups) = repeat_setup(
        opts,
        true,
        || cases.iter().try_for_each(|c| campaign(c).map(|_| ())),
        |_| {},
    )?;

    let mut out = Outcome::default();
    out.note("input_digest", quoted(&digest.hex()));
    let mut outputs = Outputs::default();
    let timed = if opts.trace {
        traced(opts, &cases, &order, &mut outputs, &mut out)?;
        None
    } else {
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        let (per_input, cal, measured) = timed_rounds(opts, &order, &labels, &mut outputs, |i| {
            campaign(&cases[i]).map(|(json, _)| json)
        });
        Some(Timed::per_input(&per_input, &cal, true, measured))
    };

    // References: after the measured region, outside the set-up.
    let refs = par_map(&cases, |c| {
        let ckt = circuit_of(c)?;
        Reference::compute(&ckt, &atpg_config(&ckt, c.rng_seed))
    })?;
    if let Some(timed) = &timed {
        fill_end_to_end(&mut out, timed, &setups, &refs);
    }
    finish(&mut out, opts, outputs, refs);
    Ok(out)
}

/// The traced run: per input, one campaign on the workload path (the
/// source of the engine telemetry) and a [`Paired`] staged campaign,
/// untraced and traced (the ledger and `trace_overhead_pct`).
fn traced(
    opts: &Options,
    cases: &[Case],
    order: &[Vec<usize>],
    outputs: &mut Outputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut paired = Paired::new(Instant::now(), 1);
    let mut counts: Vec<Option<Counts>> = vec![None; cases.len()];
    let mut engine_runs: Vec<EngineReport> = Vec::new();
    let mut bdd_peak: Vec<Option<f64>> = vec![None; cases.len()];
    let start = Instant::now();
    for round in order.iter().cycle() {
        for &i in round {
            let c = &cases[i];
            let res = campaign(c).map(|(json, r)| {
                let peak = r
                    .workers
                    .iter()
                    .map(|w| w.bdd_peak_unique)
                    .max()
                    .unwrap_or(0) as f64;
                bdd_peak[i].get_or_insert(peak);
                engine_runs.push(r);
                json
            });
            outputs.add(i, &c.label, None, res);

            for res in paired.run(|rec| staged_campaign(c, rec)) {
                let res = res.map(|(json, n)| {
                    counts[i].get_or_insert(n);
                    json
                });
                outputs.add(i, &c.label, None, res);
            }
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

    out.set("stg.sg_us", span_us(&spans, "stg.sg", k));
    out.set("stg.synth_us", span_us(&spans, "stg.synth", k));
    out.set("netlist.parse_us", span_us(&spans, "netlist.parse", k));
    let build_us = span_us(&spans, "cssg.build", k);
    out.set("cssg.build_us", build_us);
    out.set("random.us", span_us(&spans, "random", k));
    out.set("targeted.three_phase_us", span_us(&spans, "three_phase", k));
    out.set("targeted.fsim_us", span_self_us(&spans, "targeted", k));
    out.set("engine.audit_us", span_us(&spans, "audit", k));

    // Deterministic counts: one value per distinct input.
    let per_input: Vec<&Counts> = counts.iter().flatten().collect();
    let avg =
        |f: fn(&Counts) -> f64| sys::mean(&per_input.iter().map(|c| f(c)).collect::<Vec<_>>());
    out.set("stg.sg_states", avg(|c| c.sg_states));
    out.set("stg.gates", avg(|c| c.gates));
    out.set("cssg.states", avg(|c| c.cssg_states));
    out.set("cssg.edges", avg(|c| c.cssg_edges));
    out.set("cssg.settle_states", avg(|c| c.settle_states));
    out.set("cssg.por_pruned", avg(|c| c.por_pruned));
    out.set("cssg.truncated", avg(|c| c.truncated));
    out.set("random.passes", avg(|c| c.passes));
    out.set("random.patterns", avg(|c| c.patterns));
    out.set("random.resolved", avg(|c| c.resolved));
    out.set("targeted.searched", avg(|c| c.searched));
    out.set("targeted.tests", avg(|c| c.tests));
    out.set("targeted.untestable", avg(|c| c.untestable));
    out.set("targeted.aborted", avg(|c| c.aborted));
    out.set(
        "engine.bdd_peak_nodes",
        sys::mean(&bdd_peak.iter().flatten().copied().collect::<Vec<_>>()),
    );
    // Rates over every traced campaign: work per unit of time.
    let settle_total: f64 = counts.iter().flatten().map(|c| c.settle_states).sum();
    let inputs = per_input.len().max(1) as f64;
    out.set(
        "cssg.settle_states_per_ms",
        settle_total / inputs / (build_us / 1e3).max(1e-9),
    );
    let patterns_total: f64 = per_input.iter().map(|c| c.patterns).sum();
    let resolved_total: f64 = per_input.iter().map(|c| c.resolved).sum();
    out.set(
        "random.resolved_per_kpattern",
        resolved_total / (patterns_total / 1e3).max(1e-9),
    );

    // Engine telemetry from the workload-path campaigns.
    let runs = engine_runs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&EngineReport) -> f64| engine_runs.iter().map(f).sum::<f64>();
    out.set("engine.parallel_us", sum(&|r| r.us_parallel as f64) / runs);
    out.set("engine.merge_us", sum(&|r| r.us_merge as f64) / runs);
    let busy = sum(&|r| r.workers.iter().map(|w| w.us_busy as f64).sum());
    let capacity = sum(&|r| r.workers.len() as f64 * r.us_parallel as f64);
    out.set("engine.busy_frac", busy / capacity.max(1e-9));
    out.set(
        "engine.stolen",
        sum(&|r| r.workers.iter().map(|w| w.stolen as f64).sum()) / runs,
    );
    out.set(
        "engine.broadcast_drops",
        sum(&|r| r.workers.iter().map(|w| w.broadcast_drops as f64).sum()) / runs,
    );
    out.set(
        "engine.merge_fallbacks",
        sum(&|r| r.merge_fallbacks as f64) / runs,
    );
    out.note("engine_campaigns", engine_runs.len().to_string());
    Ok(())
}
