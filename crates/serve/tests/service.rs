//! Service integration tests: concurrent submissions against a live
//! daemon, result identity with the serial flow, cache hit paths,
//! backpressure, malformed input, and bounded memory across jobs.

use satpg_core::json::Json;
use satpg_core::{run_atpg, AtpgConfig, ThreePhaseConfig};
use satpg_serve::{CircuitSpec, Client, ClientError, JobSpec, ServeConfig, Server};
use std::thread;

fn start(cfg: ServeConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn bench_spec(name: &str) -> JobSpec {
    JobSpec {
        workers: 2,
        ..JobSpec::new(CircuitSpec::Bench {
            name: name.to_string(),
            style: "si".to_string(),
        })
    }
}

/// The serial reference for a bench submission with daemon defaults,
/// serialized without timing.
fn serial_json(name: &str) -> String {
    let ckt = satpg_serve::resolve_circuit(&CircuitSpec::Bench {
        name: name.to_string(),
        style: "si".to_string(),
    })
    .expect("suite synthesizes");
    let cfg = AtpgConfig {
        three_phase: ThreePhaseConfig::scaled(&ckt),
        ..AtpgConfig::paper()
    };
    run_atpg(&ckt, &cfg)
        .expect("serial flow runs")
        .to_json_value(false)
        .render()
}

/// Timing-free rendering of the `report` object inside a report event.
fn daemon_report_json(report_event: &Json) -> String {
    let report = report_event.get("report").expect("report body");
    let Json::Obj(members) = report else {
        panic!("report must be an object")
    };
    let stripped: Vec<(String, Json)> = members
        .iter()
        .filter(|(k, _)| k != "timing_us")
        .cloned()
        .collect();
    Json::Obj(stripped).render()
}

#[test]
fn concurrent_clients_get_serial_identical_reports() {
    let (addr, handle) = start(ServeConfig {
        pool_workers: 3,
        ..ServeConfig::default()
    });
    // Five concurrent clients; two share a benchmark so the duplicate
    // exercises the cache while the others race it.
    let benches = ["converta", "dff", "seq4", "nowick", "converta"];
    let results: Vec<(String, String)> = thread::scope(|s| {
        let handles: Vec<_> = benches
            .iter()
            .map(|&name| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    // Each client submits twice to exercise per-connection
                    // sequencing as well.
                    let first = client.submit(bench_spec(name)).expect("submit 1");
                    let second = client.submit(bench_spec(name)).expect("submit 2");
                    assert_eq!(
                        daemon_report_json(&first.report),
                        daemon_report_json(&second.report),
                        "{name}: resubmission changed the verdicts"
                    );
                    (name.to_string(), daemon_report_json(&second.report))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (name, daemon) in &results {
        assert_eq!(
            daemon,
            &serial_json(name),
            "{name}: daemon report differs from serial run_atpg"
        );
    }
    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(
        status
            .get("jobs")
            .and_then(|j| j.get("done"))
            .and_then(Json::as_usize),
        Some(benches.len() * 2)
    );
    // 5 distinct (bench, k) jobs → ≥ 5 misses; 10 jobs total → 5 hits.
    let cssgs = status.get("cache").and_then(|c| c.get("cssgs")).unwrap();
    assert!(cssgs.get("hits").and_then(Json::as_usize).unwrap() >= 5);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn duplicate_submission_hits_the_cssg_cache() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let first = client.submit(bench_spec("converta")).expect("submit");
    let cssg_stage = |events: &[Json]| {
        events
            .iter()
            .find(|e| e.get("stage").and_then(Json::as_str) == Some("cssg"))
            .expect("cssg stage event")
            .get("cache")
            .and_then(Json::as_str)
            .expect("cache flag")
            .to_string()
    };
    assert_eq!(cssg_stage(&first.events), "miss");

    let second = client.submit(bench_spec("converta")).expect("submit");
    assert_eq!(cssg_stage(&second.events), "hit");
    assert_eq!(
        second
            .report
            .get("cache")
            .and_then(|c| c.get("cssg"))
            .and_then(Json::as_str),
        Some("hit")
    );
    // The same circuit pasted inline shares the CSSG entry: the content
    // hash is over the canonical netlist, not the submission form.
    let ckt = satpg_serve::resolve_circuit(&CircuitSpec::Bench {
        name: "converta".to_string(),
        style: "si".to_string(),
    })
    .unwrap();
    let inline = client
        .submit(JobSpec {
            workers: 2,
            ..JobSpec::new(CircuitSpec::InlineCkt {
                text: satpg_netlist::to_ckt(&ckt),
            })
        })
        .expect("inline submit");
    assert_eq!(cssg_stage(&inline.events), "hit");
    assert_eq!(
        daemon_report_json(&inline.report),
        daemon_report_json(&second.report)
    );

    let status = client.status().expect("status");
    let cache = status.get("cache").unwrap();
    let hits = |lvl: &str| {
        cache
            .get(lvl)
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_usize)
            .unwrap()
    };
    assert_eq!(hits("cssgs"), 2, "bench resubmit + inline twin");
    assert_eq!(hits("circuits"), 1, "only the bench resubmit");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The anti-stampede satellite: two clients racing the same cold CSSG
/// key must trigger exactly **one** construction.  Whether the second
/// requester lands while the first is mid-build (it then blocks on the
/// single-flight guard and takes a cache hit afterwards) or after it
/// finished (a plain hit), `cssg_builds` stays 1 — so the assertion is
/// deterministic even though the interleaving is not.
#[test]
fn concurrent_misses_single_flight_the_cssg_build() {
    let (addr, handle) = start(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    });
    // muller-12 is new to the cache and its CSSG build is slow enough
    // that two pool workers usually overlap on it.
    let spec = || JobSpec {
        workers: 1,
        ..JobSpec::new(CircuitSpec::Family {
            name: "muller".to_string(),
            size: 12,
        })
    };
    let reports: Vec<String> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let out = client.submit(spec()).expect("submit");
                    daemon_report_json(&out.report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(reports[0], reports[1], "both clients get the same report");

    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    let top = |k: &str| status.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(top("cssg_builds"), 1, "the stampede built once: {status}");
    let jobs = status.get("jobs").unwrap();
    assert_eq!(jobs.get("done").and_then(Json::as_usize), Some(2));
    let cssg_cache = status
        .get("cache")
        .and_then(|c| c.get("cssgs"))
        .expect("cssg cache stats");
    let hits = cssg_cache.get("hits").and_then(Json::as_usize).unwrap();
    let misses = cssg_cache.get("misses").and_then(Json::as_usize).unwrap();
    // One requester built (≥1 miss); the other either waited out the
    // build or arrived late — both paths end in a hit.
    assert!(misses >= 1, "{status}");
    assert!(hits >= 1, "{status}");
    // Waits only happen on true overlap; the counter must exist and
    // never exceed the loser count.
    assert!(top("cssg_singleflight_waits") <= 1, "{status}");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn zero_depth_queue_rejects_with_backpressure() {
    let (addr, handle) = start(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    match client.submit(bench_spec("dff")) {
        Err(ClientError::Rejected(reason)) => assert!(reason.contains("queue full"), "{reason}"),
        other => panic!("expected backpressure rejection, got {other:?}"),
    }
    let status = client.status().expect("status");
    assert_eq!(
        status
            .get("jobs")
            .and_then(|j| j.get("rejected"))
            .and_then(Json::as_usize),
        Some(1)
    );
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_submissions_fail_with_line_numbers_not_panics() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Truncated .g text: the daemon answers with the parser's located
    // error and stays alive.
    match client.submit(JobSpec::new(CircuitSpec::InlineG {
        text: ".model broken\n.inputs a\n.graph\nq+ r+\n".to_string(),
        style: "si".to_string(),
    })) {
        Err(ClientError::Job(msg)) => assert!(msg.contains("unknown signal"), "{msg}"),
        other => panic!("expected job error, got {other:?}"),
    }
    match client.submit(JobSpec::new(CircuitSpec::InlineCkt {
        text: "circuit x\ninputs A:a\ngarbage here\n".to_string(),
    })) {
        Err(ClientError::Job(msg)) => assert!(msg.contains("line 3"), "{msg}"),
        other => panic!("expected job error, got {other:?}"),
    }
    // Unknown bench and a bad family size.
    assert!(matches!(
        client.submit(bench_spec("no-such-bench")),
        Err(ClientError::Job(_))
    ));
    assert!(matches!(
        client.submit(JobSpec::new(CircuitSpec::Family {
            name: "muller".into(),
            size: 4096,
        })),
        Err(ClientError::Job(_))
    ));
    // The daemon is still healthy after four failed jobs.
    let out = client.submit(bench_spec("dff")).expect("daemon survived");
    assert_eq!(daemon_report_json(&out.report), serial_json("dff"));
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The ==64-input boundary through the daemon: a 64-request arbiter
/// without a pattern budget fails with the same diagnostic the serial
/// core raises (no panic, no silent one-pattern truncation); with a
/// budget the job completes and the report ledger counts the skipped
/// patterns.
#[test]
fn sixty_four_input_jobs_need_a_budget_and_then_run() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let arbiter64 = || {
        JobSpec::new(CircuitSpec::Family {
            name: "arbiter".to_string(),
            size: 64,
        })
    };
    // Without a budget: the daemon reports the core's own diagnostic.
    let expected = satpg_core::CoreError::PatternBudgetRequired(64).to_string();
    match client.submit(arbiter64()) {
        Err(ClientError::Job(msg)) => assert_eq!(msg, expected),
        other => panic!("expected the budget diagnostic, got {other:?}"),
    }
    // With a budget: the flow completes and the shortfall is counted.
    let out = client
        .submit(JobSpec {
            pattern_budget: Some(4),
            no_random: true,
            ..arbiter64()
        })
        .expect("budgeted 64-input job runs");
    let report = out.report.get("report").expect("report body");
    let skipped = report
        .get("cssg")
        .and_then(|c| c.get("patterns_skipped"))
        .and_then(Json::as_usize)
        .expect("skip ledger present");
    assert!(skipped > 0, "2^64 under budget 4 must record skips");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn raw_garbage_lines_get_rejected_events() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for bad in ["not json", "{\"cmd\":\"frob\"}", "[1,2,3]"] {
        stream.write_all(bad.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("reply is protocol JSON");
        assert_eq!(v.get("event").and_then(Json::as_str), Some("rejected"));
    }
    drop(stream);
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// Correlation ids round-trip at the service level: a tagged request
/// gets its id echoed on every reply (including every streamed job
/// event), an untagged request gets untagged replies, and distinct ids
/// on one connection never cross.
#[test]
fn correlation_ids_echo_on_every_reply() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = |req: &str| -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).expect("reply is protocol JSON")
    };
    // Tagged status/metrics echo their ids back, in order.
    for id in [7usize, 99, 1] {
        let v = reply(&format!("{{\"cmd\":\"status\",\"id\":{id}}}"));
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(id), "{v}");
    }
    let v = reply("{\"cmd\":\"metrics\",\"id\":42}");
    assert_eq!(v.get("id").and_then(Json::as_usize), Some(42), "{v}");
    // An untagged request gets an untagged reply (old-client compat).
    let v = reply("{\"cmd\":\"status\"}");
    assert!(
        v.get("id").is_none(),
        "untagged request must not grow an id: {v}"
    );
    // A tagged submit tags the whole event stream through the report.
    stream
        .write_all(
            b"{\"cmd\":\"submit\",\"id\":5,\"circuit\":{\"bench\":\"dff\",\"style\":\"si\"},\"workers\":1}\n",
        )
        .unwrap();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("event is protocol JSON");
        assert_eq!(
            v.get("id").and_then(Json::as_usize),
            Some(5),
            "every streamed event must echo the submit id: {v}"
        );
        if v.get("event").and_then(Json::as_str) == Some("report") {
            break;
        }
    }
    drop(stream);
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn twenty_sequential_jobs_keep_bdd_memory_bounded() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let spec = || JobSpec {
        workers: 1, // deterministic audit partition → comparable peaks
        gc_threshold: Some(1024),
        no_random: true, // keep every class for the workers' managers
        ..JobSpec::new(CircuitSpec::Bench {
            name: "converta".to_string(),
            style: "si".to_string(),
        })
    };
    let mut peaks = Vec::new();
    for i in 0..20 {
        let out = client
            .submit(spec())
            .unwrap_or_else(|e| panic!("job {i}: {e}"));
        let engine = out.report.get("engine").expect("engine telemetry");
        let peak = engine
            .get("workers")
            .and_then(Json::as_arr)
            .expect("worker stats")
            .iter()
            .map(|w| w.get("bdd_peak_unique").and_then(Json::as_usize).unwrap())
            .max()
            .unwrap();
        peaks.push(peak);
    }
    // Per-job managers die with the job and GC bounds them while alive:
    // the peak must not grow across jobs (the RSS proxy of the daemon).
    let first = peaks[0];
    assert!(first > 0);
    for (i, &p) in peaks.iter().enumerate() {
        assert_eq!(p, first, "job {i}: peak drifted across identical jobs");
    }
    let status = client.status().expect("status");
    let reported = status
        .get("peak_bdd_nodes")
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(reported, first);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let path = format!("/tmp/satpg-serve-test-{}.sock", std::process::id());
    let (addr, handle) = start(ServeConfig {
        addr: format!("unix:{path}"),
        ..ServeConfig::default()
    });
    assert_eq!(addr, format!("unix:{path}"));
    let mut client = Client::connect(&addr).expect("connect over unix socket");
    let out = client.submit(bench_spec("dff")).expect("submit");
    assert_eq!(daemon_report_json(&out.report), serial_json("dff"));
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
    assert!(!std::path::Path::new(&path).exists(), "socket file cleaned");
}

/// A shard session screens with the tests the coordinator relays: a
/// broadcast that detects the shard's first class drops it before any
/// search (no test of the shard's own can have), the session reports
/// `dropped > 0`, and the verdicts it did stream still merge to the
/// serial report.
#[test]
fn relayed_broadcasts_drop_shard_classes_and_still_merge() {
    use satpg_core::{build_cssg_sharded, faults_for, run_atpg_on, three_phase, FaultStatus};
    use satpg_engine::{merge_partial, prepare_campaign, screened};
    use satpg_serve::proto::{verdict_from_json, Request, ShardSpec};
    use std::io::{BufRead, BufReader, Write};

    let job = JobSpec {
        no_random: true,
        ..JobSpec::new(satpg_serve::family_spec("muller", Some(8)))
    };
    let ckt = satpg_serve::resolve_circuit(&job.circuit).expect("family builds");
    let acfg = satpg_serve::job_atpg_config(&job, &ckt);
    let cssg = build_cssg_sharded(&ckt, &acfg.cssg, 1).expect("CSSG builds");
    let faults = faults_for(&ckt, acfg.fault_model);
    let campaign = prepare_campaign(&ckt, &cssg, &faults, &acfg);
    let open = campaign.state.open_classes();
    // The first class whose test screens out the very next open class.
    let (ca, test, shard) = open
        .iter()
        .enumerate()
        .find_map(|(i, &ca)| {
            let rep = campaign.plan.classes()[ca].representative;
            let FaultStatus::Detected { sequence } =
                three_phase(&ckt, &cssg, &rep, &acfg.three_phase)
            else {
                return None;
            };
            let shard = open[i + 1..].to_vec();
            let first = *shard.first()?;
            screened(&ckt, &cssg, &campaign.plan, ca, &sequence, &shard)
                .contains(&first)
                .then_some((ca, sequence, shard))
        })
        .expect("some test screens the next class");

    let (addr, handle) = start(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // One write: the relay is queued behind the submit, so it lands
    // while the session is still building its circuit and CSSG.
    let submit = Request::ShardSubmit(Box::new(ShardSpec {
        job: job.clone(),
        classes: shard.clone(),
    }));
    let relay = Request::Broadcast {
        shard: 1,
        class: ca,
        test,
    };
    let lines = format!(
        "{}\n{}\n",
        submit.to_json_with_id(Some(1)).render(),
        relay.to_json_value().render()
    );
    stream.write_all(lines.as_bytes()).unwrap();
    let mut verdicts: Vec<Option<FaultStatus>> = vec![None; campaign.plan.len()];
    let (computed, dropped) = loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("reply is protocol JSON");
        match v.get("event").and_then(Json::as_str) {
            Some("shard_verdict") => {
                let class = v.get("class").and_then(Json::as_usize).expect("class");
                verdicts[class] = Some(verdict_from_json(&v).expect("verdict"));
            }
            Some("shard_result") => {
                let n = |k: &str| v.get(k).and_then(Json::as_usize).expect("count");
                break (n("computed"), n("dropped"));
            }
            Some("shard_accepted" | "broadcast_ok") => {}
            other => panic!("unexpected reply {other:?}: {v}"),
        }
    };
    assert!(dropped > 0, "the relayed test must drop classes");
    assert_eq!(computed + dropped, shard.len());
    assert!(
        verdicts[shard[0]].is_none(),
        "the relay screened class {}",
        shard[0]
    );

    let merged = merge_partial(
        &ckt,
        &cssg,
        &faults,
        &acfg,
        &campaign.plan,
        campaign.state,
        0,
        0,
        0,
        &mut |ci| verdicts[ci].take(),
    );
    let serial = run_atpg_on(&ckt, &cssg, &faults, &acfg, 0).expect("serial ATPG runs");
    assert_eq!(
        merged.report.to_json_value(false).render(),
        serial.to_json_value(false).render()
    );
    drop(stream);
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}
