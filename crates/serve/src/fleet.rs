//! The fleet coordinator: one ATPG campaign partitioned across N peer
//! daemons over the ordinary JSON-lines protocol.
//!
//! The shape of the campaign mirrors the in-process engine exactly —
//! prepare (fault plan + random stage), distribute the open classes,
//! deterministically merge — with the distribution step swapped from a
//! thread pool to a pool of remote daemons:
//!
//! * each peer gets an `enlist` handshake, then `shard_submit` requests
//!   carrying contiguous runs of serial class indices;
//! * peers stream back one `shard_verdict` per class; a `Detected`
//!   verdict is relayed to every other busy peer as a `broadcast`, so
//!   remote workers drop classes the test already covers (peers run the
//!   engine's `ShardExecutor`, so they screen by the workers' own rule);
//! * a peer that dies, stalls past the timeout, or replies garbage is
//!   declared lost: its unfinished classes requeue for the survivors and
//!   a bounded-backoff reviver tries to reconnect it.
//!
//! Correctness never depends on any of that machinery.  A class verdict
//! is a pure function of `(circuit, CSSG, fault, config)`, and the final
//! [`satpg_engine::merge_partial`] replays the exact serial control flow,
//! recomputing any class the fleet failed to deliver.  Peer loss —
//! including losing *every* peer — therefore moves work, never results:
//! the report stays byte-identical to a serial run.  See
//! `crates/serve/DESIGN.md` for the full argument.

use crate::job::{job_atpg_config, resolve_circuit};
use crate::net::{connect, write_line, Conn, LineRead, TimedLineReader};
use crate::proto::{
    verdict_from_json, JobSpec, Request, ShardSpec, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use satpg_core::json::Json;
use satpg_core::{
    build_cssg_sharded, faults_for, AtpgConfig, AtpgReport, Cssg, Fault, FaultStatus, TestSequence,
};
use satpg_engine::{merge_partial, prepare_campaign};
use satpg_netlist::Circuit;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator-side fleet tuning.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Peer daemon addresses (`host:port` or `unix:/path`).
    pub peers: Vec<String>,
    /// Classes per shard; `0` sizes shards so each live peer sees about
    /// three of them (enough granularity to rebalance around a loss
    /// without drowning the wire in tiny submissions).
    pub chunk: usize,
    /// Reconnect attempts per lost peer before it is abandoned.
    pub max_retries: usize,
    /// Milliseconds of in-flight silence before a peer is declared lost.
    pub peer_timeout_ms: u64,
    /// Base reconnect backoff in milliseconds, doubled per attempt.
    pub backoff_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            peers: Vec::new(),
            chunk: 0,
            max_retries: 2,
            peer_timeout_ms: 10_000,
            backoff_ms: 50,
        }
    }
}

/// What the distribution phase did — the observability half of the
/// fleet's contract (the report itself never varies with any of this).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Configured peer count.
    pub peers: usize,
    /// Shards dispatched (requeues included).
    pub shards: usize,
    /// Shards requeued because their peer was lost mid-flight.
    pub retries: usize,
    /// Peer-loss events (initial connection failures included).
    pub peer_deaths: usize,
    /// Class verdicts delivered by peers and consumed by the merge.
    pub remote_verdicts: usize,
    /// Cross-peer test broadcasts relayed.
    pub broadcasts_relayed: usize,
    /// Classes the merge re-searched locally (missing or dropped
    /// verdicts); the serial-fallback safety net in action.
    pub merge_fallbacks: usize,
    /// Classes never dispatched because every peer was lost.
    pub unassigned_classes: usize,
}

impl FleetStats {
    /// The machine-readable form, embedded in the daemon's `report`
    /// event and the CLI's `--json` output.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("peers".to_string(), Json::int(self.peers)),
            ("shards".to_string(), Json::int(self.shards)),
            ("retries".to_string(), Json::int(self.retries)),
            ("peer_deaths".to_string(), Json::int(self.peer_deaths)),
            (
                "remote_verdicts".to_string(),
                Json::int(self.remote_verdicts),
            ),
            (
                "broadcasts_relayed".to_string(),
                Json::int(self.broadcasts_relayed),
            ),
            (
                "merge_fallbacks".to_string(),
                Json::int(self.merge_fallbacks),
            ),
            (
                "unassigned_classes".to_string(),
                Json::int(self.unassigned_classes),
            ),
        ])
    }
}

/// A finished fleet campaign.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged report — byte-identical (timing aside) to a serial
    /// [`satpg_core::run_atpg`] with the same spec.
    pub report: AtpgReport,
    /// Distribution telemetry.
    pub stats: FleetStats,
}

/// Runs one job as a fleet campaign from a bare spec: resolves the
/// circuit, builds the CSSG locally (the coordinator needs it for the
/// random stage and the merge anyway), then distributes and merges.
///
/// # Errors
///
/// Circuit resolution and CSSG construction failures, plus the empty
/// abstraction (`NoValidVectors`) — exactly the failures a serial run
/// reports for the same spec.  Peer failures are *not* errors.
pub fn run_fleet(spec: &JobSpec, fc: &FleetConfig) -> Result<FleetOutcome, String> {
    let ckt = resolve_circuit(&spec.circuit)?;
    let acfg = job_atpg_config(spec, &ckt);
    let t0 = Instant::now();
    let cssg = build_cssg_sharded(&ckt, &acfg.cssg, 1).map_err(|e| e.to_string())?;
    let us_cssg = t0.elapsed().as_micros();
    if cssg.num_edges() == 0 {
        return Err(satpg_core::CoreError::NoValidVectors.to_string());
    }
    let faults = faults_for(&ckt, acfg.fault_model);
    Ok(run_fleet_built(
        &ckt, &cssg, &faults, &acfg, spec, fc, us_cssg,
    ))
}

/// [`run_fleet`] over prebuilt artifacts — the entry point the daemon's
/// coordinator path uses, so its circuit/CSSG caches keep working.
pub fn run_fleet_built(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    acfg: &AtpgConfig,
    spec: &JobSpec,
    fc: &FleetConfig,
    us_cssg: u128,
) -> FleetOutcome {
    let m = satpg_trace::metrics();
    m.counter("fleet.campaigns").inc();
    let _span = satpg_trace::span!(
        "fleet.run",
        peers = fc.peers.len(),
        circuit = ckt.name().to_string()
    );
    let campaign = prepare_campaign(ckt, cssg, faults, acfg);
    let pending = campaign.state.open_classes();
    let mut verdicts: Vec<Option<FaultStatus>> = vec![None; campaign.plan.len()];
    let mut stats = FleetStats {
        peers: fc.peers.len(),
        ..FleetStats::default()
    };
    let t0 = Instant::now();
    if !pending.is_empty() && !fc.peers.is_empty() {
        distribute(spec, acfg, fc, &pending, &mut verdicts, &mut stats);
    }
    let us_distributed = t0.elapsed().as_micros();
    let merged = merge_partial(
        ckt,
        cssg,
        faults,
        acfg,
        &campaign.plan,
        campaign.state,
        us_cssg,
        campaign.us_random,
        us_distributed,
        &mut |ci| verdicts[ci].take(),
    );
    stats.merge_fallbacks = merged.fallbacks;
    m.counter("fleet.merge_fallbacks")
        .add(merged.fallbacks as u64);
    FleetOutcome {
        report: merged.report,
        stats,
    }
}

/// Messages from peer reader / reviver threads to the coordinator loop.
enum PeerMsg {
    /// A peer delivered one class verdict.
    Verdict {
        peer: usize,
        class: usize,
        status: FaultStatus,
    },
    /// A peer finished its in-flight shard.
    ShardDone { peer: usize, gen: usize },
    /// A peer was lost: EOF, stall past the timeout, or garbage.
    Dead {
        peer: usize,
        gen: usize,
        reason: String,
    },
    /// A reviver reconnected and re-enlisted a lost peer.
    Revived {
        peer: usize,
        writer: Conn,
        reader: TimedLineReader,
    },
    /// A reviver's attempt failed.
    ReviveFailed { peer: usize, reason: String },
}

/// Watchdog state shared between the coordinator and a peer's reader
/// thread (a socket property would not survive reconnects).
struct PeerShared {
    /// When the in-flight shard was dispatched (refreshed on every reply
    /// line); `None` while idle, so silence without work is not a stall.
    inflight_since: Mutex<Option<Instant>>,
    /// Set when the campaign is over so lingering reader threads exit on
    /// their next poll instead of spinning on an idle socket forever.
    closed: AtomicBool,
}

/// Coordinator-side view of one peer.
struct Peer {
    addr: String,
    /// Write half of the live connection; `None` while lost.
    writer: Option<Conn>,
    /// In-flight shard id, if any.
    shard: Option<u64>,
    /// The in-flight shard's classes (for requeue on loss).
    chunk: Vec<usize>,
    /// Revival attempts initiated so far.
    attempts: usize,
    /// Connection generation; messages from older generations are stale
    /// stragglers and ignored.
    gen: usize,
    shared: Arc<PeerShared>,
}

/// Connects to a peer and runs the `enlist` handshake, returning the
/// write half and the (timeout-polling) line reader with any handshake
/// overshoot still buffered.
fn enlist(addr: &str, timeout: Duration) -> Result<(Conn, TimedLineReader), String> {
    let conn = connect(addr).map_err(|e| format!("{addr}: connect: {e}"))?;
    let mut writer = conn
        .try_clone()
        .map_err(|e| format!("{addr}: clone: {e}"))?;
    // Short socket timeout; the reader thread polls and applies the
    // (much longer) in-flight stall timeout itself.
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("{addr}: timeout: {e}"))?;
    let mut reader = TimedLineReader::new(conn, MAX_LINE_BYTES);
    write_line(&mut writer, &Request::Enlist.to_json_value().render())
        .map_err(|e| format!("{addr}: enlist write: {e}"))?;
    let deadline = Instant::now() + timeout;
    loop {
        match reader.next() {
            Ok(LineRead::Line(line)) => {
                let v = Json::parse(&line).map_err(|e| format!("{addr}: enlist reply: {e}"))?;
                return match v.get("event").and_then(Json::as_str) {
                    Some("enlisted") => {
                        let proto = v.get("protocol").and_then(Json::as_usize).unwrap_or(0);
                        if proto == PROTOCOL_VERSION as usize {
                            Ok((writer, reader))
                        } else {
                            Err(format!(
                                "{addr}: speaks protocol {proto}, need {PROTOCOL_VERSION}"
                            ))
                        }
                    }
                    other => Err(format!("{addr}: unexpected {other:?} during enlist")),
                };
            }
            Ok(LineRead::TimedOut) => {
                if Instant::now() > deadline {
                    return Err(format!("{addr}: enlist timed out"));
                }
            }
            Ok(LineRead::Eof) => return Err(format!("{addr}: closed during enlist")),
            Err(e) => return Err(format!("{addr}: enlist read: {e}")),
        }
    }
}

/// The per-peer reader thread: parses reply lines into [`PeerMsg`]s and
/// enforces the in-flight stall timeout.  Exits on EOF, on any fatal
/// parse problem (reported as a death — a peer speaking garbage cannot
/// be trusted with work), or once the campaign closes.
fn reader_loop(
    mut reader: TimedLineReader,
    peer: usize,
    gen: usize,
    shared: Arc<PeerShared>,
    timeout: Duration,
    tx: mpsc::Sender<PeerMsg>,
) {
    let dead = |reason: String| {
        let _ = tx.send(PeerMsg::Dead { peer, gen, reason });
    };
    loop {
        match reader.next() {
            Ok(LineRead::Line(line)) => {
                // Any reply line proves liveness; refresh the watchdog.
                if let Some(t) = shared
                    .inflight_since
                    .lock()
                    .expect("peer watchdog lock")
                    .as_mut()
                {
                    *t = Instant::now();
                }
                let v = match Json::parse(&line) {
                    Ok(v) => v,
                    Err(e) => return dead(format!("garbage reply: {e}")),
                };
                match v.get("event").and_then(Json::as_str) {
                    Some("shard_verdict") => {
                        let class = v.get("class").and_then(Json::as_usize);
                        match (class, verdict_from_json(&v)) {
                            (Some(class), Ok(status)) => {
                                let _ = tx.send(PeerMsg::Verdict {
                                    peer,
                                    class,
                                    status,
                                });
                            }
                            (_, Err(e)) => return dead(format!("bad verdict: {e}")),
                            (None, _) => return dead("verdict without class".to_string()),
                        }
                    }
                    Some("shard_result") => {
                        let _ = tx.send(PeerMsg::ShardDone { peer, gen });
                    }
                    // Handshake echoes and acks carry no coordinator
                    // state; `status`/`metrics` could share the socket.
                    Some("enlisted" | "shard_accepted" | "broadcast_ok" | "status" | "metrics") => {
                    }
                    Some("rejected" | "error") => {
                        let why = v
                            .get("reason")
                            .or_else(|| v.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified");
                        return dead(format!("peer refused work: {why}"));
                    }
                    other => return dead(format!("unknown event {other:?}")),
                }
            }
            Ok(LineRead::TimedOut) => {
                if shared.closed.load(Ordering::SeqCst) {
                    return;
                }
                let since = *shared.inflight_since.lock().expect("peer watchdog lock");
                if let Some(t) = since {
                    if t.elapsed() > timeout {
                        return dead(format!(
                            "no reply for {}ms with a shard in flight",
                            t.elapsed().as_millis()
                        ));
                    }
                }
            }
            Ok(LineRead::Eof) => return dead("connection closed".to_string()),
            Err(e) => return dead(format!("read: {e}")),
        }
    }
}

/// Installs a fresh connection on peer `q` and spawns its reader thread
/// under a new generation.
fn attach(
    peers: &mut [Peer],
    q: usize,
    writer: Conn,
    reader: TimedLineReader,
    timeout: Duration,
    tx: &mpsc::Sender<PeerMsg>,
) {
    let p = &mut peers[q];
    p.gen += 1;
    p.writer = Some(writer);
    let gen = p.gen;
    let shared = p.shared.clone();
    let tx = tx.clone();
    std::thread::spawn(move || reader_loop(reader, q, gen, shared, timeout, tx));
}

/// Schedules one revival attempt for peer `q` with exponential backoff.
fn spawn_reviver(
    q: usize,
    addr: String,
    attempt: usize,
    fc: &FleetConfig,
    tx: &mpsc::Sender<PeerMsg>,
) {
    let backoff = Duration::from_millis(fc.backoff_ms << attempt.saturating_sub(1).min(16));
    let timeout = Duration::from_millis(fc.peer_timeout_ms.max(1));
    let tx = tx.clone();
    std::thread::spawn(move || {
        std::thread::sleep(backoff);
        match enlist(&addr, timeout) {
            Ok((writer, reader)) => {
                let _ = tx.send(PeerMsg::Revived {
                    peer: q,
                    writer,
                    reader,
                });
            }
            Err(reason) => {
                let _ = tx.send(PeerMsg::ReviveFailed { peer: q, reason });
            }
        }
    });
}

/// Declares peer `q` lost: requeues whatever of its in-flight shard
/// still lacks verdicts and (within the retry budget) schedules a
/// revival attempt.
#[allow(clippy::too_many_arguments)]
fn kill_peer(
    peers: &mut [Peer],
    q: usize,
    reason: &str,
    queue: &mut VecDeque<Vec<usize>>,
    verdicts: &[Option<FaultStatus>],
    stats: &mut FleetStats,
    fc: &FleetConfig,
    reviving: &mut usize,
    tx: &mpsc::Sender<PeerMsg>,
) {
    let m = satpg_trace::metrics();
    let addr = peers[q].addr.clone();
    eprintln!("satpg fleet: peer {addr} lost: {reason}");
    let p = &mut peers[q];
    p.writer = None;
    // Invalidate straggler messages from the dying connection's reader.
    p.gen += 1;
    *p.shared.inflight_since.lock().expect("peer watchdog lock") = None;
    stats.peer_deaths += 1;
    m.counter("fleet.peer_deaths").inc();
    if p.shard.take().is_some() {
        let chunk = std::mem::take(&mut p.chunk);
        // Verdicts that already arrived are kept — work is requeued,
        // never redone.
        let remaining: Vec<usize> = chunk
            .into_iter()
            .filter(|&c| verdicts[c].is_none())
            .collect();
        if !remaining.is_empty() {
            stats.retries += 1;
            m.counter("fleet.retries").inc();
            queue.push_back(remaining);
        }
    }
    if p.attempts < fc.max_retries {
        p.attempts += 1;
        let attempt = p.attempts;
        *reviving += 1;
        spawn_reviver(q, addr, attempt, fc, tx);
    }
}

/// Fans the open classes out across the peers, collecting verdicts into
/// `verdicts`.  Never fails: every loss path either requeues for the
/// survivors or leaves classes unassigned for the merge to recompute.
fn distribute(
    spec: &JobSpec,
    acfg: &AtpgConfig,
    fc: &FleetConfig,
    pending: &[usize],
    verdicts: &mut [Option<FaultStatus>],
    stats: &mut FleetStats,
) {
    let m = satpg_trace::metrics();
    let _span = satpg_trace::span!(
        "fleet.distribute",
        classes = pending.len(),
        peers = fc.peers.len()
    );
    let timeout = Duration::from_millis(fc.peer_timeout_ms.max(1));
    let chunk = if fc.chunk > 0 {
        fc.chunk
    } else {
        pending.len().div_ceil(fc.peers.len() * 3).max(1)
    };
    // Contiguous ascending runs: each shard self-screens (a found test
    // drops the shard's own later classes) without any cross-chunk
    // bookkeeping, because all of a chunk's classes ascend.
    let mut queue: VecDeque<Vec<usize>> = pending.chunks(chunk).map(<[usize]>::to_vec).collect();
    let (tx, rx) = mpsc::channel::<PeerMsg>();
    let mut peers: Vec<Peer> = fc
        .peers
        .iter()
        .map(|addr| Peer {
            addr: addr.clone(),
            writer: None,
            shard: None,
            chunk: Vec::new(),
            attempts: 0,
            gen: 0,
            shared: Arc::new(PeerShared {
                inflight_since: Mutex::new(None),
                closed: AtomicBool::new(false),
            }),
        })
        .collect();
    let mut reviving = 0usize;
    for q in 0..peers.len() {
        match enlist(&peers[q].addr, timeout) {
            Ok((writer, reader)) => attach(&mut peers, q, writer, reader, timeout, &tx),
            Err(reason) => kill_peer(
                &mut peers,
                q,
                &reason,
                &mut queue,
                verdicts,
                stats,
                fc,
                &mut reviving,
                &tx,
            ),
        }
    }

    let mut next_shard: u64 = 1;
    loop {
        // Hand every idle live peer the next queued shard.
        for q in 0..peers.len() {
            if peers[q].writer.is_none() || peers[q].shard.is_some() {
                continue;
            }
            let Some(classes) = queue.pop_front() else {
                break;
            };
            let shard = next_shard;
            next_shard += 1;
            let req = Request::ShardSubmit(Box::new(ShardSpec {
                job: spec.clone(),
                classes: classes.clone(),
            }));
            let line = req.to_json_with_id(Some(shard)).render();
            match write_line(peers[q].writer.as_mut().expect("live peer"), &line) {
                Ok(()) => {
                    peers[q].shard = Some(shard);
                    peers[q].chunk = classes;
                    *peers[q]
                        .shared
                        .inflight_since
                        .lock()
                        .expect("peer watchdog lock") = Some(Instant::now());
                    stats.shards += 1;
                    m.counter("fleet.shards").inc();
                }
                Err(e) => {
                    queue.push_front(classes);
                    kill_peer(
                        &mut peers,
                        q,
                        &format!("shard write: {e}"),
                        &mut queue,
                        verdicts,
                        stats,
                        fc,
                        &mut reviving,
                        &tx,
                    );
                }
            }
        }

        let inflight = peers.iter().any(|p| p.shard.is_some());
        if queue.is_empty() && !inflight {
            break;
        }
        if reviving == 0 && peers.iter().all(|p| p.writer.is_none()) {
            // The whole fleet is gone and nothing is coming back.  Count
            // what never ran and let the merge recompute it locally.
            stats.unassigned_classes += queue.iter().map(Vec::len).sum::<usize>()
                + peers
                    .iter()
                    .flat_map(|p| p.chunk.iter())
                    .filter(|&&c| verdicts[c].is_none())
                    .count();
            break;
        }

        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(PeerMsg::Verdict {
                peer,
                class,
                status,
            }) => {
                if class < verdicts.len() && verdicts[class].is_none() {
                    // Relay a found test to every other busy peer so its
                    // remaining classes can be screened.  Verdicts are
                    // pure, so a missed or raced relay costs time only.
                    if acfg.fault_sim {
                        if let FaultStatus::Detected { sequence } = &status {
                            relay(
                                &mut peers,
                                peer,
                                class,
                                sequence,
                                &mut queue,
                                verdicts,
                                stats,
                                fc,
                                &mut reviving,
                                &tx,
                            );
                        }
                    }
                    verdicts[class] = Some(status);
                    stats.remote_verdicts += 1;
                    m.counter("fleet.remote_verdicts").inc();
                }
            }
            Ok(PeerMsg::ShardDone { peer, gen }) => {
                if gen == peers[peer].gen {
                    peers[peer].shard = None;
                    peers[peer].chunk.clear();
                    *peers[peer]
                        .shared
                        .inflight_since
                        .lock()
                        .expect("peer watchdog lock") = None;
                }
            }
            Ok(PeerMsg::Dead { peer, gen, reason }) => {
                if gen == peers[peer].gen {
                    kill_peer(
                        &mut peers,
                        peer,
                        &reason,
                        &mut queue,
                        verdicts,
                        stats,
                        fc,
                        &mut reviving,
                        &tx,
                    );
                }
            }
            Ok(PeerMsg::Revived {
                peer,
                writer,
                reader,
            }) => {
                reviving -= 1;
                eprintln!("satpg fleet: peer {} revived", peers[peer].addr);
                attach(&mut peers, peer, writer, reader, timeout, &tx);
            }
            Ok(PeerMsg::ReviveFailed { peer, reason }) => {
                reviving -= 1;
                if peers[peer].attempts < fc.max_retries {
                    peers[peer].attempts += 1;
                    let attempt = peers[peer].attempts;
                    reviving += 1;
                    spawn_reviver(peer, peers[peer].addr.clone(), attempt, fc, &tx);
                } else {
                    eprintln!(
                        "satpg fleet: peer {} abandoned after {} attempts: {reason}",
                        peers[peer].addr, peers[peer].attempts
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable while we hold `tx`, but harmless.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Release lingering reader threads (idle pollers exit on the flag;
    // dropping the write halves below does not close their sockets,
    // since each reader owns a clone).
    for p in &peers {
        p.shared.closed.store(true, Ordering::SeqCst);
    }
}

/// Relays a `Detected` test from `from` to every other peer with a
/// shard in flight.  A failed write is a peer death (the socket is
/// broken for shard traffic too).
#[allow(clippy::too_many_arguments)]
fn relay(
    peers: &mut [Peer],
    from: usize,
    class: usize,
    test: &TestSequence,
    queue: &mut VecDeque<Vec<usize>>,
    verdicts: &[Option<FaultStatus>],
    stats: &mut FleetStats,
    fc: &FleetConfig,
    reviving: &mut usize,
    tx: &mpsc::Sender<PeerMsg>,
) {
    for q in 0..peers.len() {
        if q == from || peers[q].writer.is_none() {
            continue;
        }
        let Some(shard) = peers[q].shard else {
            continue;
        };
        let req = Request::Broadcast {
            shard,
            class,
            test: test.clone(),
        };
        match write_line(
            peers[q].writer.as_mut().expect("live peer"),
            &req.to_json_value().render(),
        ) {
            Ok(()) => {
                stats.broadcasts_relayed += 1;
                satpg_trace::metrics().counter("fleet.broadcasts").inc();
            }
            Err(e) => kill_peer(
                peers,
                q,
                &format!("broadcast write: {e}"),
                queue,
                verdicts,
                stats,
                fc,
                reviving,
                tx,
            ),
        }
    }
}
