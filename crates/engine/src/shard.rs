//! Shard execution: per-worker fault deques with work stealing, and the
//! one loop that turns a shard's classes into verdicts.
//!
//! Each worker owns the front of its deque; idle workers steal from the
//! *back* of a victim's deque, so an owner and a thief contend only when
//! one item is left.  Items are class indices — plain `usize`s — and are
//! never re-enqueued, so termination is simply "every deque is empty".
//! (Built on `std::sync::Mutex` because the workspace is dependency-free;
//! the deques are coarse-grained but the unit of work — a three-phase
//! search — dwarfs the lock cost.)
//!
//! [`ShardExecutor`] is the screen → pop → search → emit loop shared by
//! the engine's workers and the fleet's peer daemons; [`screened`] is
//! the one home of the screening rule both rely on.

use crate::audit::WalkAuditor;
use crate::run::WorkerStats;
use satpg_core::stages::FaultPlan;
use satpg_core::{fault_simulate, three_phase_traced, AtpgConfig, Cssg, FaultStatus, TestSequence};
use satpg_netlist::Circuit;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// The sharded queues of one engine run.
pub struct ShardedQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

/// Where a popped item came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Popped {
    /// From the worker's own deque.
    Own(usize),
    /// Stolen from `victim`'s deque.
    Stolen {
        /// The item.
        item: usize,
        /// The worker it was taken from.
        victim: usize,
    },
}

impl Popped {
    /// The class index regardless of provenance.
    pub fn item(self) -> usize {
        match self {
            Popped::Own(i) => i,
            Popped::Stolen { item, .. } => item,
        }
    }
}

impl ShardedQueues {
    /// Distributes `items` round-robin over `workers` deques.
    pub fn new(workers: usize, items: &[usize]) -> Self {
        assert!(workers > 0, "at least one worker");
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for (i, &item) in items.iter().enumerate() {
            queues[i % workers].push_back(item);
        }
        ShardedQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Number of worker deques.
    pub fn num_workers(&self) -> usize {
        self.queues.len()
    }

    /// Pops the next item for `worker`: front of its own deque first,
    /// then the back of the fullest other deque.  `None` means every
    /// deque is empty and the worker can retire.
    pub fn pop(&self, worker: usize) -> Option<Popped> {
        if let Some(item) = self.queues[worker].lock().expect("queue lock").pop_front() {
            return Some(Popped::Own(item));
        }
        // Steal from the victim with the most pending work.
        let mut best: Option<(usize, usize)> = None; // (len, victim)
        for v in 0..self.queues.len() {
            if v == worker {
                continue;
            }
            let len = self.queues[v].lock().expect("queue lock").len();
            if len > 0 && best.map(|(l, _)| len > l).unwrap_or(true) {
                best = Some((len, v));
            }
        }
        let (_, victim) = best?;
        self.queues[victim]
            .lock()
            .expect("queue lock")
            .pop_back()
            .map(|item| Popped::Stolen { item, victim })
    }

    /// Removes every pending item that `drop_if` approves from `worker`'s
    /// own deque, returning how many were removed.  This is the broadcast
    /// path: a test found elsewhere screens this worker's backlog.
    pub fn drop_pending(
        &self,
        worker: usize,
        drop_if: impl FnOnce(&[usize]) -> Vec<usize>,
    ) -> usize {
        let mut q = self.queues[worker].lock().expect("queue lock");
        let snapshot: Vec<usize> = q.iter().copied().collect();
        if snapshot.is_empty() {
            return 0;
        }
        let doomed = drop_if(&snapshot);
        if doomed.is_empty() {
            return 0;
        }
        let before = q.len();
        q.retain(|item| !doomed.contains(item));
        before - q.len()
    }
}

/// The classes of `pending` that `test`, found by the search of class
/// `ca`, screens out: those after `ca` in serial order that it detects.
/// Those are the classes the serial flow would also have resolved by
/// fault simulation, so the merge credits them without re-searching.
/// This is the only place the rule lives; one [`fault_simulate`] call
/// replays `test` once per 63 candidates.
pub fn screened(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    ca: usize,
    test: &TestSequence,
    pending: &[usize],
) -> Vec<usize> {
    let candidates: Vec<usize> = pending.iter().copied().filter(|&cb| cb > ca).collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let faults: Vec<_> = candidates
        .iter()
        .map(|&cb| plan.classes()[cb].representative)
        .collect();
    fault_simulate(ckt, cssg, test, &faults)
        .into_iter()
        .map(|hit| candidates[hit])
        .collect()
}

/// Where a [`ShardExecutor`] gets its classes and tests, and where its
/// verdicts go.  An engine worker feeds it from its [`ShardedQueues`]
/// deque and the campaign's broadcast log; a fleet peer feeds it one
/// shard's classes and the tests the coordinator relays.
pub trait ShardFeed {
    /// Tests published since the last call, as `(class, test)` pairs:
    /// the class whose search found the test, and the test.
    fn fresh_tests(&mut self) -> Vec<(usize, TestSequence)>;
    /// Removes the pending classes `doomed` picks from the snapshot it
    /// is handed; returns how many were removed.
    fn drop_pending(&mut self, doomed: &mut dyn FnMut(&[usize]) -> Vec<usize>) -> usize;
    /// The next class to search; `None` ends the run.
    fn pop(&mut self) -> Option<Popped>;
    /// Takes the verdict of `class`.
    fn emit(&mut self, class: usize, verdict: FaultStatus);
}

/// Runs a shard: screens the pending classes against tests not seen
/// yet, pops the next class, searches it with the three-phase search,
/// audits a found test when configured, and emits the verdict — until
/// the feed runs dry.
pub struct ShardExecutor<'a> {
    ckt: &'a Circuit,
    cssg: &'a Cssg,
    plan: &'a FaultPlan,
    cfg: &'a AtpgConfig,
    /// Whether to audit found tests, and the auditor's GC policy.
    audit: bool,
    gc_threshold: Option<usize>,
    stats: WorkerStats,
}

impl<'a> ShardExecutor<'a> {
    /// An executor without the symbolic audit; `worker` labels its
    /// telemetry.
    pub fn new(
        ckt: &'a Circuit,
        cssg: &'a Cssg,
        plan: &'a FaultPlan,
        cfg: &'a AtpgConfig,
        worker: usize,
    ) -> Self {
        ShardExecutor {
            ckt,
            cssg,
            plan,
            cfg,
            audit: false,
            gc_threshold: None,
            stats: WorkerStats {
                worker,
                ..WorkerStats::default()
            },
        }
    }

    /// Audits every found test on a private BDD manager under the given
    /// GC policy (see [`WalkAuditor::with_gc`]).  The manager is built
    /// when [`ShardExecutor::run`] starts, on the running thread.
    pub fn with_audit(mut self, gc_threshold: Option<usize>) -> Self {
        self.audit = true;
        self.gc_threshold = gc_threshold;
        self
    }

    /// Drains `feed` and returns the telemetry: `searched` counts the
    /// verdicts emitted, `broadcast_drops` the classes screened out.
    pub fn run(mut self, feed: &mut dyn ShardFeed) -> WorkerStats {
        let t0 = Instant::now();
        let (ckt, cssg, plan) = (self.ckt, self.cssg, self.plan);
        let mut auditor = self
            .audit
            .then(|| WalkAuditor::with_gc(cssg, self.gc_threshold));
        loop {
            // A drop is only sound when the flow fault-simulates found
            // tests: that is how the merge credits the dropped class.
            if self.cfg.fault_sim {
                for (ca, test) in feed.fresh_tests() {
                    let dropped = feed
                        .drop_pending(&mut |pending| screened(ckt, cssg, plan, ca, &test, pending));
                    self.stats.broadcast_drops += dropped;
                }
            }
            let Some(popped) = feed.pop() else {
                break;
            };
            if matches!(popped, Popped::Stolen { .. }) {
                self.stats.stolen += 1;
            }
            let ci = popped.item();
            let fault = plan.classes()[ci].representative;
            let (verdict, settle) = three_phase_traced(ckt, cssg, &fault, &self.cfg.three_phase);
            self.stats.settle_states += settle.states_explored;
            self.stats.settle_por_pruned += settle.por_pruned;
            self.stats.settle_fallbacks += settle.fallbacks;
            self.stats.searched += 1;
            if let FaultStatus::Detected { sequence } = &verdict {
                self.stats.tests_found += 1;
                if let Some(aud) = auditor.as_mut() {
                    if !aud.check(sequence) {
                        self.stats.audit_failures += 1;
                    }
                }
            }
            feed.emit(ci, verdict);
        }
        if let Some(aud) = &auditor {
            self.stats.bdd_nodes = aud.num_nodes();
            self.stats.bdd_cache = aud.cache_len();
            self.stats.bdd_cache_clears = aud.cache_clears;
            self.stats.bdd_gc_runs = aud.gc_runs();
            self.stats.bdd_reclaimed = aud.reclaimed_nodes();
            self.stats.bdd_peak_unique = aud.peak_unique();
        }
        self.stats.us_busy = t0.elapsed().as_micros();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_robin_distribution() {
        let items: Vec<usize> = (0..10).collect();
        let q = ShardedQueues::new(3, &items);
        assert_eq!(q.num_workers(), 3);
        // Worker 0 gets 0,3,6,9; worker 1 gets 1,4,7; worker 2 gets 2,5,8.
        assert_eq!(q.pop(0), Some(Popped::Own(0)));
        assert_eq!(q.pop(1), Some(Popped::Own(1)));
        assert_eq!(q.pop(2), Some(Popped::Own(2)));
    }

    #[test]
    fn drains_every_item_exactly_once() {
        let items: Vec<usize> = (0..100).collect();
        let q = ShardedQueues::new(4, &items);
        let mut seen = HashSet::new();
        // Single consumer drains everything, stealing included.
        while let Some(p) = q.pop(2) {
            assert!(seen.insert(p.item()), "duplicate {}", p.item());
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn steals_from_fullest_victim() {
        let q = ShardedQueues::new(3, &[0, 1, 2, 4, 7]);
        // Deques: w0 = [0, 4], w1 = [1, 7], w2 = [2].
        assert_eq!(q.pop(2), Some(Popped::Own(2)));
        // w2 now empty; both victims have 2 items; the first maximal one
        // (w0) is chosen, stealing its back item.
        assert_eq!(q.pop(2), Some(Popped::Stolen { item: 4, victim: 0 }));
    }

    #[test]
    fn drop_pending_removes_only_approved() {
        let q = ShardedQueues::new(1, &[10, 11, 12, 13]);
        let removed = q.drop_pending(0, |pending| {
            pending.iter().copied().filter(|&i| i % 2 == 0).collect()
        });
        assert_eq!(removed, 2);
        let mut left = Vec::new();
        while let Some(p) = q.pop(0) {
            left.push(p.item());
        }
        assert_eq!(left, vec![11, 13]);
    }

    /// The batched screen (one replay per 63 candidates) drops exactly
    /// the classes one-fault-at-a-time simulation with `cb > ca` drops,
    /// over backlogs long enough to span several replays.
    #[test]
    fn batched_screen_matches_per_class_simulation() {
        use satpg_core::{build_cssg, faults_for, run_atpg_on, AtpgConfig, CssgConfig, FaultModel};
        use satpg_netlist::families::{arbiter_tree, muller_pipeline};
        let both = |ckt: &Circuit| {
            let mut f = faults_for(ckt, FaultModel::InputStuckAt);
            f.extend(faults_for(ckt, FaultModel::OutputStuckAt));
            f
        };
        let muller = muller_pipeline(12);
        let arbiter = arbiter_tree(6);
        // Arbiter-6 has 58 faults across both models; listed twice they
        // make a 116-class backlog (a repeated fault screens like its
        // twin) without the cost of a wider arbiter's CSSG.
        let arbiter_faults = [both(&arbiter), both(&arbiter)].concat();
        for (ckt, faults) in [(&muller, both(&muller)), (&arbiter, arbiter_faults)] {
            let cssg = build_cssg(ckt, &CssgConfig::default()).unwrap();
            let plan = FaultPlan::new(ckt, &faults, false);
            let pending: Vec<usize> = (0..plan.len()).collect();
            let cfg = AtpgConfig::scaled(ckt);
            let tests = run_atpg_on(ckt, &cssg, &faults_for(ckt, cfg.fault_model), &cfg, 0)
                .unwrap()
                .tests;
            let mut drops = 0;
            for (ti, test) in tests.iter().enumerate() {
                for ca in [0, ti, plan.len() / 3] {
                    let expected: Vec<usize> = pending
                        .iter()
                        .copied()
                        .filter(|&cb| {
                            let rep = plan.classes()[cb].representative;
                            cb > ca && !fault_simulate(ckt, &cssg, test, &[rep]).is_empty()
                        })
                        .collect();
                    let got = screened(ckt, &cssg, &plan, ca, test, &pending);
                    assert_eq!(got, expected, "{} test {ti} after class {ca}", ckt.name());
                    drops += got.len();
                }
            }
            assert!(plan.len() > 64, "{}: {} classes", ckt.name(), plan.len());
            assert!(drops > 0, "{}: the screen must drop something", ckt.name());
        }
    }

    #[test]
    fn concurrent_drain_is_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let q = ShardedQueues::new(4, &items);
        let seen = Mutex::new(HashSet::new());
        let (q, seen_ref) = (&q, &seen);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    while let Some(p) = q.pop(w) {
                        assert!(seen_ref.lock().unwrap().insert(p.item()));
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 500);
    }
}
