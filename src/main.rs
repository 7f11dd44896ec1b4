//! The `satpg` command-line interface.
//!
//! ```text
//! satpg list                         # bundled benchmarks
//! satpg synth <circuit> [--style si|2l|2lr]   # print the netlist
//! satpg cssg <circuit> [--k N]       # synchronous abstraction
//! satpg atpg <circuit> [--output-model] [--collapse] [--no-random]
//! satpg scan <circuit>               # scan-point candidates (extension)
//! satpg table <1|2>                  # regenerate a paper table
//! satpg dot <circuit>                # Graphviz export
//! satpg gen <family> [--size K]      # muller|dme|arbiter|seq → .ckt on stdout
//! satpg engine <circuit> [--workers N] [--no-broadcast] [--no-audit]
//!                                    # fault-parallel ATPG
//! satpg serve  [--addr A] [--serve-workers N] [--queue-depth N] ...
//!                                    # persistent service daemon
//! satpg submit <circuit> [--addr A] ...   # submit a job to the daemon
//! satpg fleet <circuit> --peers A,B  # one campaign across peer daemons
//! satpg status [--addr A]            # daemon scheduler/cache counters
//! satpg shutdown [--addr A]          # stop the daemon cleanly
//! ```
//!
//! `<circuit>` is a benchmark name, `-` (`.g` or `.ckt` text on stdin,
//! e.g. piped from `satpg gen`), or `--family F [--size K]`.  Every
//! subcommand resolves it through [`satpg::serve::resolve_circuit`] and
//! derives its flow configuration from [`satpg::serve::job_atpg_config`],
//! the same path the daemon and the fleet take.

use satpg::core::json::Json;
use satpg::core::report::{format_table, TableRow};
use satpg::core::tester::TestProgram;
use satpg::core::{
    build_cssg_sharded, run_atpg, run_atpg_on, AtpgConfig, AtpgReport, CapPolicy, CoreError, Cssg,
};
use satpg::engine::{run_engine, EngineConfig};
use satpg::netlist::{to_ckt, Circuit};
use satpg::serve::{
    family_spec, job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, Client, JobSpec,
    ServeConfig, Server,
};
use satpg::stg::suite;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default daemon address for `serve`/`submit`/`status`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:9117";

fn usage() -> ExitCode {
    eprintln!(
        "usage: satpg <command> [...]\n\
         commands:\n  \
           list\n  \
           synth  <circuit>\n  \
           cssg   <circuit> [--k N] [--cssg-shards N] [--no-por]\n          \
                  [--settle-cap N]\n  \
           atpg   <circuit> [--output-model] [--collapse] [--no-random]\n          \
                  [--pp-random] [--pattern-budget N] [--program] [--json] [--cssg-shards N]\n          \
                  [--no-por] [--settle-cap N]\n  \
           scan   <circuit>\n  \
           table  <1|2>\n  \
           dot    <circuit>\n  \
           gen    <muller|dme|arbiter|seq> [--size K]   # .ckt on stdout\n  \
           engine <circuit> [--k N] [--workers N] [--output-model]\n          \
                  [--collapse] [--no-random] [--no-broadcast] [--no-audit] [--json]\n          \
                  [--pp-random]       # random stage: 64 patterns per pass, 1 fault\n          \
                  [--pattern-budget N]# per-state CSSG pattern cap (needed past 63 inputs)\n          \
                  [--gc-threshold N]  # sweep worker BDDs above N live nodes\n          \
                  [--cssg-shards N]   # parallel CSSG build (0 = worker count)\n          \
                  [--no-por]          # naive interleaving walks (no reduction)\n          \
                  [--settle-cap N]    # fixed interleaving-set cap (default: scaled)\n  \
           serve  [--addr HOST:PORT|unix:PATH] [--serve-workers N] [--queue-depth N]\n          \
                  [--cache-size N] [--workers N] [--gc-threshold N]\n          \
                  [--peers A,B,..]    # coordinator mode: partition jobs across peers\n          \
                  [--max-shards N] [--fleet-chunk N] [--fleet-retries N]\n          \
                  [--fleet-timeout-ms N] [--fleet-backoff-ms N]\n  \
           fleet  <circuit> --peers A,B,..\n          \
                  [--fleet-chunk N] [--fleet-retries N] [--fleet-timeout-ms N]\n          \
                  [--fleet-backoff-ms N] [--k N] [--output-model] [--collapse]\n          \
                  [--no-random] [--json]   # one campaign across peer daemons\n  \
           submit <circuit> [--addr A]\n          \
                  [--workers N] [--gc-threshold N] [--k N] [--output-model] [--collapse]\n          \
                  [--no-random] [--json]\n  \
           status [--addr A] [--json]\n  \
           metrics [--addr A] [--json]   # process-wide metrics registry snapshot\n  \
           shutdown [--addr A]\n  \
           bench-diff <old.json> <new.json> [--ignore-timing]\n                \
                  # compare bench_report.json files; >20% regressions exit nonzero\n  \
           trace-check <trace.json>      # validate a Chrome trace-event file\n\
         <circuit> is a benchmark name [--style si|2l|2lr], `-` (.g or .ckt text on\n\
         stdin) or --family muller|dme|arbiter|seq [--size K].\n\
         engine/atpg/fleet/serve also accept --trace-out DIR to write Chrome trace-event\n\
         files (load them at https://ui.perfetto.dev or chrome://tracing)"
    );
    ExitCode::FAILURE
}

struct Opts {
    /// The positional argument: a benchmark name, `-` for stdin, or the
    /// family name of `gen`.
    bench: Option<String>,
    family: Option<String>,
    size: Option<usize>,
    style: String,
    k: Option<usize>,
    output_model: bool,
    collapse: bool,
    no_random: bool,
    pp_random: bool,
    pattern_budget: Option<u64>,
    program: bool,
    workers: usize,
    no_broadcast: bool,
    no_audit: bool,
    gc_threshold: Option<usize>,
    cssg_shards: usize,
    no_por: bool,
    settle_cap: Option<usize>,
    json: bool,
    /// Daemon, fleet and `--trace-out` settings.
    serve: ServeConfig,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        bench: None,
        family: None,
        size: None,
        style: "si".into(),
        k: None,
        output_model: false,
        collapse: false,
        no_random: false,
        pp_random: false,
        pattern_budget: None,
        program: false,
        workers: 0,
        no_broadcast: false,
        no_audit: false,
        gc_threshold: None,
        cssg_shards: 0,
        no_por: false,
        settle_cap: None,
        json: false,
        serve: ServeConfig {
            addr: DEFAULT_ADDR.into(),
            ..ServeConfig::default()
        },
    };
    let s = &mut o.serve;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--style" => o.style = it.next()?.clone(),
            "--k" => o.k = Some(it.next()?.parse().ok()?),
            "--output-model" => o.output_model = true,
            "--collapse" => o.collapse = true,
            "--no-random" => o.no_random = true,
            "--pp-random" => o.pp_random = true,
            "--pattern-budget" => o.pattern_budget = Some(it.next()?.parse().ok()?),
            "--program" => o.program = true,
            "--workers" => o.workers = it.next()?.parse().ok()?,
            "--size" => o.size = Some(it.next()?.parse().ok()?),
            "--no-broadcast" => o.no_broadcast = true,
            "--no-audit" => o.no_audit = true,
            "--gc-threshold" => o.gc_threshold = Some(it.next()?.parse().ok()?),
            "--cssg-shards" => o.cssg_shards = it.next()?.parse().ok()?,
            "--no-por" => o.no_por = true,
            "--settle-cap" => o.settle_cap = Some(it.next()?.parse().ok()?),
            "--json" => o.json = true,
            "--family" => o.family = Some(it.next()?.clone()),
            "--addr" => s.addr = it.next()?.clone(),
            "--serve-workers" => s.pool_workers = it.next()?.parse().ok()?,
            "--queue-depth" => s.queue_depth = it.next()?.parse().ok()?,
            "--cache-size" => s.cache_entries = it.next()?.parse().ok()?,
            "--trace-out" => s.trace_out = Some(PathBuf::from(it.next()?)),
            "--peers" => {
                s.peers = it
                    .next()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--max-shards" => s.max_shards = it.next()?.parse().ok()?,
            "--fleet-chunk" => s.fleet_chunk = it.next()?.parse().ok()?,
            "--fleet-retries" => s.fleet_retries = it.next()?.parse().ok()?,
            "--fleet-timeout-ms" => s.fleet_timeout_ms = it.next()?.parse().ok()?,
            "--fleet-backoff-ms" => s.fleet_backoff_ms = it.next()?.parse().ok()?,
            "-" if o.bench.is_none() => o.bench = Some("-".to_string()),
            s if !s.starts_with('-') && o.bench.is_none() => o.bench = Some(s.to_string()),
            _ => return None,
        }
    }
    Some(o)
}

/// The circuit the options name: `--family`, a benchmark, or stdin text
/// (`.g` when it uses dot-directives, `.ckt` otherwise).
fn circuit_spec(o: &Opts) -> Result<CircuitSpec, String> {
    if let Some(family) = &o.family {
        return Ok(family_spec(family, o.size));
    }
    match o.bench.as_deref() {
        Some("-") => {
            let mut text = String::new();
            use std::io::Read as _;
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            let looks_like_g = text
                .lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .find(|l| !l.is_empty())
                .is_some_and(|l| l.starts_with('.'));
            Ok(if looks_like_g {
                CircuitSpec::InlineG {
                    text,
                    style: o.style.clone(),
                }
            } else {
                CircuitSpec::InlineCkt { text }
            })
        }
        Some(name) => Ok(CircuitSpec::Bench {
            name: name.to_string(),
            style: o.style.clone(),
        }),
        None => Err("needs a benchmark name, `-` (stdin) or --family".to_string()),
    }
}

/// The job the options describe — what `submit` and `fleet` send, and
/// what every local subcommand runs.
fn job_spec(o: &Opts) -> Result<JobSpec, String> {
    Ok(JobSpec {
        circuit: circuit_spec(o)?,
        workers: o.workers,
        gc_threshold: o.gc_threshold,
        output_model: o.output_model,
        collapse: o.collapse,
        no_random: o.no_random,
        pp_random: o.pp_random,
        k: o.k,
        pattern_budget: o.pattern_budget,
    })
}

/// The job's flow configuration with the local-only settle flags
/// (`--no-por`, `--settle-cap`) applied on top.
fn flow_config(o: &Opts, spec: &JobSpec, ckt: &Circuit) -> AtpgConfig {
    let mut cfg = job_atpg_config(spec, ckt);
    if o.no_por {
        cfg.cssg.por = false;
        cfg.three_phase.por = false;
    }
    if let Some(n) = o.settle_cap {
        cfg.cssg.settle_cap = CapPolicy::Fixed(n);
        cfg.three_phase.settle_cap = CapPolicy::Fixed(n);
    }
    cfg
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => {
            for &n in suite::NAMES {
                let tag = if suite::is_redundant(n) {
                    "  (redundant in table 2)"
                } else {
                    ""
                };
                println!("{n}{tag}");
            }
            ExitCode::SUCCESS
        }
        "table" => {
            let (title, style_of): (&str, fn(&str) -> &'static str) =
                match args.get(1).map(String::as_str) {
                    Some("1") => ("Table 1 (speed-independent)", |_| "si"),
                    Some("2") => ("Table 2 (bounded delays)", |n| {
                        if suite::is_redundant(n) {
                            "2lr"
                        } else {
                            "2l"
                        }
                    }),
                    _ => return usage(),
                };
            let rows: Result<Vec<TableRow>, String> = suite::NAMES
                .iter()
                .map(|&n| row_for(n, style_of(n)))
                .collect();
            match rows {
                Ok(rows) => {
                    print!("{}", format_table(title, &rows));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "serve" | "status" | "metrics" | "shutdown" => match parse_opts(&args[1..]) {
            Some(o) => service_command(cmd, &o).unwrap_or_else(fail),
            None => usage(),
        },
        "bench-diff" => {
            let mut ignore_timing = false;
            let mut files: Vec<&str> = Vec::new();
            for a in &args[1..] {
                match a.as_str() {
                    "--ignore-timing" => ignore_timing = true,
                    s if !s.starts_with('-') => files.push(s),
                    _ => return usage(),
                }
            }
            let [old_path, new_path] = files[..] else {
                return usage();
            };
            match bench_diff(old_path, new_path, ignore_timing) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!("bench-diff: {n} regression(s) over 20%");
                    ExitCode::FAILURE
                }
                Err(e) => fail(e),
            }
        }
        "trace-check" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match trace_check(path) {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "gen" | "synth" | "dot" | "cssg" | "atpg" | "scan" | "engine" | "submit" | "fleet" => {
            match parse_opts(&args[1..]) {
                Some(o) if o.bench.is_some() || o.family.is_some() => {
                    circuit_command(cmd, &o).unwrap_or_else(fail)
                }
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

fn fail(e: String) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// The subcommands that take a circuit.
fn circuit_command(cmd: &str, o: &Opts) -> Result<ExitCode, String> {
    if cmd == "gen" {
        let family = o.family.as_ref().or(o.bench.as_ref()).expect("checked");
        print!(
            "{}",
            to_ckt(&resolve_circuit(&family_spec(family, o.size))?)
        );
        return Ok(ExitCode::SUCCESS);
    }
    let spec = job_spec(o)?;
    if cmd == "submit" || cmd == "fleet" {
        return remote_command(cmd, o, spec);
    }
    let ckt = resolve_circuit(&spec.circuit)?;
    let cfg = flow_config(o, &spec, &ckt);
    match cmd {
        "synth" => {
            println!("{ckt}");
            for (gi, g) in ckt.gates().iter().enumerate() {
                let out = ckt.gate_output(satpg::netlist::GateId(gi as u32));
                let ins: Vec<&str> = g.inputs.iter().map(|&s| ckt.signal_name(s)).collect();
                println!(
                    "  {} = {}({})",
                    ckt.signal_name(out),
                    g.kind.name(),
                    ins.join(", ")
                );
            }
        }
        "dot" => print!("{}", ckt.to_dot()),
        "cssg" => {
            let c = build_cssg_sharded(&ckt, &cfg.cssg, o.cssg_shards.max(1))
                .map_err(|e| e.to_string())?;
            println!(
                "CSSG(k={}): {} stable states, {} edges; pruned {} non-confluent, {} unstable; {} truncated at resource limits",
                c.k(),
                c.num_states(),
                c.num_edges(),
                c.pruned_nonconfluent(),
                c.pruned_unstable(),
                c.pruned_truncated()
            );
            let ss = c.settle_stats();
            println!(
                "settler: {} state expansions over {} analyses; POR reduced {} expansions, pruned {} branches{}",
                ss.states_explored,
                ss.settles,
                ss.por_states,
                ss.por_pruned,
                if cfg.cssg.por { "" } else { " (POR off)" }
            );
        }
        "atpg" | "scan" => {
            let tracing = trace_setup(o);
            // The abstraction is built up front (optionally sharded —
            // structurally identical either way) and reused for the
            // tester program and the scan analysis below.
            let t0 = std::time::Instant::now();
            let cssg = build_cssg_sharded(&ckt, &cfg.cssg, o.cssg_shards.max(1))
                .map_err(|e| e.to_string())?;
            let us_cssg = t0.elapsed().as_micros();
            if cssg.num_edges() == 0 {
                return Err(CoreError::NoValidVectors.to_string());
            }
            let faults = satpg::core::faults_for(&ckt, cfg.fault_model);
            let result = run_atpg_on(&ckt, &cssg, &faults, &cfg, us_cssg);
            trace_finish(tracing, ckt.name());
            let r = result.map_err(|e| e.to_string())?;
            if cmd == "scan" {
                print_scan(&ckt, &cssg, &r);
            } else if o.json {
                println!("{}", r.to_json());
            } else {
                println!("{}, {} us", summary(&r), r.us_total());
                if o.program {
                    let mut prog = TestProgram::new(&ckt);
                    for (i, t) in r.tests.iter().enumerate() {
                        prog.push_sequence(&ckt, &cssg, format!("test {i}"), t);
                    }
                    print!("{prog}");
                }
            }
        }
        "engine" => {
            let cfg = EngineConfig {
                atpg: cfg,
                workers: o.workers,
                broadcast: !o.no_broadcast,
                symbolic_audit: !o.no_audit,
                gc_threshold: o.gc_threshold,
                cssg_shards: o.cssg_shards,
            };
            let tracing = trace_setup(o);
            let result = run_engine(&ckt, &cfg);
            trace_finish(tracing, ckt.name());
            let out = result.map_err(|e| e.to_string())?;
            if o.json {
                println!("{}", out.to_json_value(true).render());
                return Ok(ExitCode::SUCCESS);
            }
            let r = &out.report;
            println!("{}, {} us", summary(r), r.us_total());
            println!(
                "engine: {} workers, {} parallel verdicts, {} merge fallbacks, parallel {} us, merge {} us",
                out.workers.len(),
                out.parallel_verdicts,
                out.merge_fallbacks,
                out.us_parallel,
                out.us_merge
            );
            for w in &out.workers {
                println!(
                    "  worker {}: searched {:>3} (stolen {:>3}), tests {:>3}, drops {:>3}, bdd {} nodes / {} cache ({} clears), gc {} sweeps / {} reclaimed (peak {}), settle {} states / {} por-pruned, busy {} us",
                    w.worker,
                    w.searched,
                    w.stolen,
                    w.tests_found,
                    w.broadcast_drops,
                    w.bdd_nodes,
                    w.bdd_cache,
                    w.bdd_cache_clears,
                    w.bdd_gc_runs,
                    w.bdd_reclaimed,
                    w.bdd_peak_unique,
                    w.settle_states,
                    w.settle_por_pruned,
                    w.us_busy
                );
            }
        }
        _ => unreachable!(),
    }
    Ok(ExitCode::SUCCESS)
}

/// The coverage summary line of a campaign report (scripts strip a
/// trailing `, N us` before diffing runs).
fn summary(r: &AtpgReport) -> String {
    format!(
        "{}: {}/{} detected ({:.2}% coverage, {:.2}% efficiency), {} untestable, {} aborted, {} tests",
        r.circuit,
        r.covered(),
        r.total(),
        r.coverage(),
        r.efficiency(),
        r.untestable(),
        r.aborted(),
        r.tests.len()
    )
}

/// Scan-point candidates: the observation points that would expose the
/// faults the report leaves undetected.
fn print_scan(ckt: &Circuit, cssg: &Cssg, report: &AtpgReport) {
    let analysis = satpg::core::scan_candidates(ckt, cssg, report, &Default::default());
    println!(
        "{}: {}/{} undetected; scan candidates:",
        ckt.name(),
        report.total() - report.covered(),
        report.total()
    );
    for c in analysis.candidates.iter().take(8) {
        println!(
            "  observe {:<12} exposes {:>3} faults",
            ckt.signal_name(c.signal),
            c.exposes.len()
        );
    }
    if !analysis.hopeless.is_empty() {
        println!(
            "  {} faults exposed by no single point",
            analysis.hopeless.len()
        );
    }
}

/// `submit` (one job to a daemon) and `fleet` (one campaign across
/// peer daemons).
fn remote_command(cmd: &str, o: &Opts, spec: JobSpec) -> Result<ExitCode, String> {
    if cmd == "submit" {
        let mut client =
            Client::connect(&o.serve.addr).map_err(|e| format!("connect {}: {e}", o.serve.addr))?;
        let quiet = o.json;
        let out = client
            .submit_streaming(spec, &mut |ev| {
                if !quiet {
                    print_event(ev);
                }
            })
            .map_err(|e| e.to_string())?;
        if o.json {
            println!("{}", out.report.render());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if o.serve.peers.is_empty() {
        return Err("fleet needs --peers A,B,..".to_string());
    }
    let tracing = trace_setup(o);
    let result = run_fleet(&spec, &o.serve.fleet_config());
    let out = match result {
        Ok(out) => {
            trace_finish(tracing, &out.report.circuit);
            out
        }
        Err(e) => {
            trace_finish(tracing, "fleet");
            return Err(e);
        }
    };
    if o.json {
        let body = Json::Obj(vec![
            ("report".to_string(), out.report.to_json_value(true)),
            ("fleet".to_string(), out.stats.to_json_value()),
        ]);
        println!("{}", body.render());
        return Ok(ExitCode::SUCCESS);
    }
    let r = &out.report;
    println!("{}", summary(r));
    let s = &out.stats;
    println!(
        "fleet: {} peers, {} shards, {} remote verdicts, {} broadcasts relayed, {} retries, {} peer deaths, {} merge fallbacks",
        s.peers,
        s.shards,
        s.remote_verdicts,
        s.broadcasts_relayed,
        s.retries,
        s.peer_deaths,
        s.merge_fallbacks,
    );
    Ok(ExitCode::SUCCESS)
}

/// The `serve` / `status` / `metrics` / `shutdown` commands.
fn service_command(cmd: &str, o: &Opts) -> Result<ExitCode, String> {
    let addr = &o.serve.addr;
    if cmd == "serve" {
        let cfg = ServeConfig {
            default_job_workers: o.workers,
            gc_threshold: o.gc_threshold,
            ..o.serve.clone()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind {addr}: {e}"))?;
        // Scripts scrape this line for the ephemeral port.
        println!("listening on {}", server.local_addr());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        server.run().map_err(|e| e.to_string())?;
        return Ok(ExitCode::SUCCESS);
    }
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match cmd {
        "status" => {
            let status = client.status().map_err(|e| e.to_string())?;
            if o.json {
                println!("{status}");
            } else {
                print_status(&status);
            }
        }
        "metrics" => {
            let m = client.metrics().map_err(|e| e.to_string())?;
            if o.json {
                println!("{m}");
            } else {
                print_metrics(&m);
            }
        }
        _ => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon at {addr} shutting down");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable line per streamed event.
fn print_event(ev: &Json) {
    let kind = ev.get("event").and_then(Json::as_str).unwrap_or("?");
    let get = |k: &str| ev.get(k).and_then(Json::as_u128).unwrap_or(0);
    match kind {
        "accepted" => println!(
            "job {} accepted (queue depth {})",
            get("job"),
            get("queue_depth")
        ),
        "stage" => {
            let stage = ev.get("stage").and_then(Json::as_str).unwrap_or("?");
            match stage {
                "circuit" => println!(
                    "  circuit {} ({}): {} gates, {} inputs",
                    ev.get("name").and_then(Json::as_str).unwrap_or("?"),
                    ev.get("cache").and_then(Json::as_str).unwrap_or("?"),
                    get("gates"),
                    get("inputs")
                ),
                "cssg" => println!(
                    "  cssg ({}): {} states, {} edges, {} truncated, {} shards, {} us",
                    ev.get("cache").and_then(Json::as_str).unwrap_or("?"),
                    get("states"),
                    get("edges"),
                    get("truncated"),
                    get("shards"),
                    get("us")
                ),
                "random" => println!("  random: {} resolved, {} us", get("resolved"), get("us")),
                "parallel" => println!(
                    "  parallel: {} workers over {} classes",
                    get("workers"),
                    get("pending")
                ),
                "merge" => println!("  merge: {} fallbacks, {} us", get("fallbacks"), get("us")),
                other => println!("  stage {other}"),
            }
        }
        "test" => println!(
            "  worker {} found a {}-cycle test for class {}",
            get("worker"),
            get("cycles"),
            get("class")
        ),
        "worker" => {
            if let Some(s) = ev.get("stats") {
                let g = |k: &str| s.get(k).and_then(Json::as_u128).unwrap_or(0);
                println!(
                    "  worker {}: searched {} (stolen {}), tests {}, drops {}, gc {} sweeps / {} reclaimed (peak {}), busy {} us",
                    g("worker"), g("searched"), g("stolen"), g("tests_found"),
                    g("broadcast_drops"), g("bdd_gc_runs"), g("bdd_reclaimed"),
                    g("bdd_peak_unique"), g("us_busy")
                );
            }
        }
        "report" => {
            if let Some(r) = ev.get("report") {
                let t = |k: &str| {
                    r.get("totals")
                        .and_then(|t| t.get(k))
                        .and_then(Json::as_u128)
                        .unwrap_or(0)
                };
                println!(
                    "{}: {}/{} detected ({:.2}% coverage, {:.2}% efficiency), {} untestable, {} aborted",
                    r.get("circuit").and_then(Json::as_str).unwrap_or("?"),
                    t("detected"),
                    t("faults"),
                    r.get("coverage_pct").and_then(Json::as_f64).unwrap_or(0.0),
                    r.get("efficiency_pct").and_then(Json::as_f64).unwrap_or(0.0),
                    t("untestable"),
                    t("aborted")
                );
            }
        }
        // The error event surfaces as the submit's returned error;
        // printing it here too would duplicate the message.
        "error" => {}
        _ => println!("{ev}"),
    }
}

fn print_status(status: &Json) {
    let jobs = |k: &str| {
        status
            .get("jobs")
            .and_then(|j| j.get(k))
            .and_then(Json::as_u128)
            .unwrap_or(0)
    };
    println!(
        "jobs: {} queued, {} running, {} done, {} failed, {} rejected",
        jobs("queued"),
        jobs("running"),
        jobs("done"),
        jobs("failed"),
        jobs("rejected")
    );
    for level in ["circuits", "cssgs"] {
        if let Some(c) = status.get("cache").and_then(|c| c.get(level)) {
            let g = |k: &str| c.get(k).and_then(Json::as_u128).unwrap_or(0);
            println!(
                "cache {level}: {} entries, {} hits, {} misses, {} evictions",
                g("entries"),
                g("hits"),
                g("misses"),
                g("evictions")
            );
        }
    }
    if let Some(f) = status.get("fleet") {
        let g = |k: &str| f.get(k).and_then(Json::as_u128).unwrap_or(0);
        println!(
            "fleet: {} peers, {} campaigns, {} retries, {} peer deaths, {} remote verdicts, {} merge fallbacks",
            g("peers"),
            g("campaigns"),
            g("retries"),
            g("peer_deaths"),
            g("remote_verdicts"),
            g("merge_fallbacks")
        );
    }
    let top = |k: &str| status.get(k).and_then(Json::as_u128).unwrap_or(0);
    println!(
        "peak bdd nodes {}, queue depth {}, pool workers {}, uptime {} us",
        top("peak_bdd_nodes"),
        top("queue_depth"),
        top("pool_workers"),
        top("uptime_us")
    );
}

/// Installs the span collector when `--trace-out` was given; returns
/// the directory to drain into after the run.
fn trace_setup(o: &Opts) -> Option<PathBuf> {
    o.serve.trace_out.as_ref().map(|dir| {
        satpg::trace::install();
        dir.clone()
    })
}

/// Drains the collector into `DIR/trace-<name>.json` (Chrome
/// trace-event format, Perfetto-loadable).  A no-op without
/// `--trace-out`.
fn trace_finish(dir: Option<PathBuf>, name: &str) {
    let Some(dir) = dir else { return };
    let Some(col) = satpg::trace::installed_collector() else {
        return;
    };
    let events = col.drain();
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("trace-{safe}.json"));
    match satpg::trace::chrome::write_file(&path, &events, "satpg") {
        Ok(()) => eprintln!("trace: {} events -> {}", events.len(), path.display()),
        Err(e) => eprintln!("error: trace write {}: {e}", path.display()),
    }
}

/// Renders a daemon `metrics` event for humans: one `name value` line
/// per counter/gauge, one summary line per histogram.
fn print_metrics(m: &Json) {
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(pairs)) = m.get(section) {
            for (k, v) in pairs {
                println!("{k} {v}");
            }
        }
    }
    if let Some(Json::Obj(pairs)) = m.get("histograms") {
        for (k, v) in pairs {
            let count = v.get("count").and_then(Json::as_u128).unwrap_or(0);
            let sum = v.get("sum").and_then(Json::as_u128).unwrap_or(0);
            let mean = sum.checked_div(count).unwrap_or(0);
            println!("{k} count {count} sum {sum} mean {mean}");
        }
    }
}

/// Wall-clock units; skipped under `--ignore-timing` so CI can diff the
/// deterministic records of two runs on machines of different speed.
fn is_timing_unit(unit: &str) -> bool {
    matches!(unit, "ns" | "us" | "ms" | "s")
}

/// Loads a `bench_report.json` (an array of `{bench, params, value,
/// unit}` records) into `(key, value)` pairs.
fn load_bench_report(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("{path}: expected a JSON array of records"))?;
    let mut out = Vec::new();
    for (i, rec) in arr.iter().enumerate() {
        let bench = rec
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record {i} has no string `bench`"))?;
        let unit = rec
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record {i} has no string `unit`"))?;
        let value = rec
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: record {i} has no numeric `value`"))?;
        let params = rec.get("params").map(Json::render).unwrap_or_default();
        out.push((format!("{bench} {params}"), unit.to_string(), value));
    }
    Ok(out)
}

/// Compares two bench reports record by record and prints every
/// regression over 20%; returns how many there were.  "Worse" means a
/// larger value except for `pct` units (coverage/efficiency), where it
/// means smaller.  Records present on only one side are reported but
/// are not regressions (benchmark sets may grow).
fn bench_diff(old_path: &str, new_path: &str, ignore_timing: bool) -> Result<usize, String> {
    let old = load_bench_report(old_path)?;
    let new = load_bench_report(new_path)?;
    let mut regressions = 0usize;
    for (key, unit, old_v) in &old {
        if ignore_timing && is_timing_unit(unit) {
            continue;
        }
        let Some((_, _, new_v)) = new.iter().find(|(k, u, _)| k == key && u == unit) else {
            println!("only in {old_path}: {key} ({unit})");
            continue;
        };
        let worse = if unit == "pct" {
            *new_v < old_v * 0.8
        } else {
            *new_v > old_v * 1.2
        };
        if worse {
            regressions += 1;
            println!("REGRESSION {key}: {old_v} -> {new_v} {unit}");
        }
    }
    for (key, unit, _) in &new {
        if ignore_timing && is_timing_unit(unit) {
            continue;
        }
        if !old.iter().any(|(k, u, _)| k == key && u == unit) {
            println!("only in {new_path}: {key} ({unit})");
        }
    }
    println!(
        "bench-diff: {} record(s) compared, {} regression(s)",
        old.len(),
        regressions
    );
    Ok(regressions)
}

/// Validates a Chrome trace-event file: every non-metadata event is a
/// `B` or `E`, `B`/`E` balance per thread, and per-thread timestamps
/// never go backwards.  This is the schema every file written by
/// `--trace-out` satisfies by construction; CI runs it on the artifact.
fn trace_check(path: &str) -> Result<String, String> {
    use std::collections::HashMap;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `traceEvents` array"))?;
    let mut depth: HashMap<(u128, u128), i64> = HashMap::new();
    let mut last_ts: HashMap<(u128, u128), u128> = HashMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_u128).unwrap_or(0);
        let tid = ev.get("tid").and_then(Json::as_u128).unwrap_or(0);
        let ts = ev
            .get("ts")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("event {i}: missing integer `ts`"))?;
        let key = (pid, tid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts went backwards on tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(key, ts);
        let d = depth.entry(key).or_insert(0);
        match ph {
            "B" => {
                *d += 1;
                spans += 1;
            }
            "E" => {
                *d -= 1;
                if *d < 0 {
                    return Err(format!(
                        "event {i}: `E` without a matching `B` on tid {tid}"
                    ));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for ((_, tid), d) in &depth {
        if *d != 0 {
            return Err(format!("tid {tid}: {d} unclosed span(s)"));
        }
    }
    Ok(format!(
        "{path}: OK - {spans} span(s) across {} thread(s), balanced and monotone",
        depth.len()
    ))
}

/// One paper-table row: the benchmark under the output and the input
/// stuck-at model.
fn row_for(name: &str, style: &str) -> Result<TableRow, String> {
    let mut spec = JobSpec::new(CircuitSpec::Bench {
        name: name.to_string(),
        style: style.to_string(),
    });
    let ckt = resolve_circuit(&spec.circuit)?;
    let input = run_atpg(&ckt, &job_atpg_config(&spec, &ckt)).map_err(|e| e.to_string())?;
    spec.output_model = true;
    let output = run_atpg(&ckt, &job_atpg_config(&spec, &ckt)).map_err(|e| e.to_string())?;
    Ok(TableRow::new(name, &output, &input))
}
