//! The settle kernel against an independent reference walker.
//!
//! [`Reference`] is the k-bounded settling semantics written as plainly
//! as possible: a full excitation rescan of every state, `BTreeSet`
//! frontiers, no partial-order reduction, Eichelberger's algorithms A
//! and B as gate-order sweeps, and the oscillation closure as plain
//! reachability.  [`ternary_settle`], [`Settler::settle`],
//! [`Settler::settle_set`] and every lane of [`parallel_settle`] must
//! agree with it, with POR on and off and with the ternary fast path on
//! and off, for every input pattern applied to the reset state of every
//! library circuit, Muller pipelines 3–8 and arbiter trees 2–4, on the
//! good machine and under every single stuck-at injection.

use satpg_netlist::families::{arbiter_tree, muller_pipeline};
use satpg_netlist::{library, Bits, Circuit, GateId, Pattern};
use satpg_sim::{
    eval_gate_ternary, is_excited_inj, parallel_settle, ternary_settle, Injection,
    ParallelInjection, PlaneState, SetSettle, Settle, Settler, SettlerConfig, Site, TernaryOutcome,
    TritVec, LANES,
};
use std::collections::BTreeSet;

struct Reference<'c> {
    ckt: &'c Circuit,
    inj: &'c Injection,
    k: usize,
}

impl Reference<'_> {
    fn excited(&self, s: &Bits) -> Vec<GateId> {
        (0..self.ckt.num_gates() as u32)
            .map(GateId)
            .filter(|&g| is_excited_inj(self.ckt, g, s, self.inj))
            .collect()
    }

    fn successors(&self, s: &Bits) -> Vec<Bits> {
        let excited = self.excited(s);
        if excited.is_empty() {
            return vec![s.clone()];
        }
        let fire = |g: GateId| {
            let mut t = s.clone();
            t.toggle(self.ckt.gate_output(g).index());
            t
        };
        excited.into_iter().map(fire).collect()
    }

    /// The frontier after the `k − 1` gate steps that follow the input
    /// application.
    fn frontier(&self, start: &Bits) -> BTreeSet<Bits> {
        let mut f = BTreeSet::from([start.clone()]);
        for _ in 1..self.k.max(1) {
            f = f.iter().flat_map(|s| self.successors(s)).collect();
        }
        f
    }

    /// Every state reachable from `f` (the sampled set of a machine that
    /// has not settled by depth `k`).
    fn reachable(&self, f: BTreeSet<Bits>) -> BTreeSet<Bits> {
        let mut seen = f.clone();
        let mut todo: Vec<Bits> = f.into_iter().collect();
        while let Some(s) = todo.pop() {
            for t in self.successors(&s) {
                if seen.insert(t.clone()) {
                    todo.push(t);
                }
            }
        }
        seen
    }

    /// Algorithms A then B, each swept in gate order to a fixpoint.
    fn ternary(&self, start: &Bits) -> TernaryOutcome {
        let mut tv = TritVec::from_bits(start);
        for lub in [true, false] {
            let mut changed = true;
            while changed {
                changed = false;
                for g in (0..self.ckt.num_gates() as u32).map(GateId) {
                    let out = self.ckt.gate_output(g).index();
                    let eval = eval_gate_ternary(self.ckt, g, &tv, self.inj);
                    let next = if lub { tv.0[out].lub(eval) } else { eval };
                    changed |= next != tv.0[out];
                    tv.0[out] = next;
                }
            }
        }
        match tv.to_bits() {
            Some(b) => TernaryOutcome::Definite(b),
            None => TernaryOutcome::Uncertain(tv),
        }
    }

    /// The verdict of [`Settler::settle`] and the sampled set of
    /// [`Settler::settle_set`], both from the exhaustive walk.
    fn walk(&self, start: &Bits) -> (Settle, BTreeSet<Bits>) {
        let f = self.frontier(start);
        let (stable, unstable): (Vec<Bits>, Vec<Bits>) =
            f.iter().cloned().partition(|s| self.excited(s).is_empty());
        match (stable.len(), unstable.is_empty()) {
            (_, false) => (
                Settle::Unstable(stable.into_iter().chain(unstable).collect()),
                self.reachable(f),
            ),
            (1, true) => (Settle::Confluent(stable[0].clone()), f),
            _ => (Settle::NonConfluent(stable), f),
        }
    }
}

/// The good machine, then every single stuck-at: each pin and each
/// output of each gate, at 0 and at 1.
fn injections(ckt: &Circuit) -> Vec<Injection> {
    let mut all = vec![Injection::none()];
    for (i, gate) in ckt.gates().iter().enumerate() {
        let sites = (0..gate.inputs.len()).map(Site::Pin).chain([Site::Output]);
        for site in sites {
            for value in [false, true] {
                all.push(Injection::single(GateId(i as u32), site, value));
            }
        }
    }
    all
}

fn circuits() -> Vec<Circuit> {
    let mut all = library::all();
    all.extend((3..=8).map(muller_pipeline));
    all.extend((2..=4).map(arbiter_tree));
    all
}

#[test]
fn settler_matches_reference_everywhere() {
    let configs = [(false, false), (true, false), (false, true), (true, true)];
    let mut cases = 0usize;
    let mut walked = [0usize; 3]; // unstable, non-confluent, oscillation-closed
    for ckt in circuits() {
        let reset = ckt.initial_state();
        let from = BTreeSet::from([reset.clone()]);
        for inj in injections(&ckt) {
            let cfgs = configs.map(|(por, ternary_fast_path)| SettlerConfig {
                por,
                ternary_fast_path,
                ..SettlerConfig::for_circuit(&ckt)
            });
            let mut settlers = cfgs.map(|cfg| Settler::new(&ckt, &inj, &cfg));
            let reference = Reference {
                ckt: &ckt,
                inj: &inj,
                k: cfgs[0].k,
            };
            for pattern in Pattern::all(ckt.num_inputs()) {
                let start = ckt.with_inputs(reset, &pattern);
                let ternary = reference.ternary(&start);
                assert_eq!(
                    ternary_settle(&ckt, reset, &pattern, &inj),
                    ternary,
                    "{} {inj:?} {pattern}",
                    ckt.name()
                );
                let (verdict, set) = reference.walk(&start);
                walked[0] += matches!(verdict, Settle::Unstable(_)) as usize;
                walked[1] += matches!(verdict, Settle::NonConfluent(_)) as usize;
                walked[2] += (set.len() > 1 && set.iter().any(|s| !reference.excited(s).is_empty()))
                    as usize;
                for ((por, fast_path), settler) in configs.iter().zip(&mut settlers) {
                    let ctx = format!(
                        "{} {inj:?} por={por} fast={fast_path} {pattern}",
                        ckt.name()
                    );
                    let (want, want_set) = match ternary.definite().filter(|_| *fast_path) {
                        Some(b) => (Settle::Confluent(b.clone()), BTreeSet::from([b.clone()])),
                        None => (verdict.clone(), set.clone()),
                    };
                    match (&want, settler.settle(reset, &pattern)) {
                        // A reduced walk keeps a sound subset of the
                        // depth-k frontier; the naive walk keeps all of it.
                        (Settle::Unstable(w), Settle::Unstable(g)) if *por => {
                            assert!(g.iter().all(|s| w.contains(s)), "{ctx}");
                        }
                        (_, got) => assert_eq!(got, want, "{ctx}"),
                    }
                    assert_eq!(
                        settler.settle_set(&from, &pattern),
                        SetSettle::Set(want_set),
                        "{ctx}"
                    );
                    cases += 1;
                }
            }
        }
    }
    // The comparison must reach the verdicts that need the walk.
    assert!(cases > 10_000, "{cases} cases");
    assert!(walked.iter().all(|&n| n > 0), "{walked:?}");
}

/// The 64-lane engine, one single stuck-at (or the good machine) per
/// lane, against the reference's sweeps signal by signal.
#[test]
fn parallel_lanes_match_reference() {
    for ckt in circuits() {
        let reset = ckt.initial_state();
        let all = injections(&ckt);
        for lanes in all.chunks(LANES) {
            let pinj = ParallelInjection::new(lanes);
            for pattern in Pattern::all(ckt.num_inputs()) {
                let start = ckt.with_inputs(reset, &pattern);
                let got = parallel_settle(&ckt, &PlaneState::broadcast(reset), &pattern, &pinj);
                for (lane, inj) in lanes.iter().enumerate() {
                    let reference = Reference {
                        ckt: &ckt,
                        inj,
                        k: 0,
                    };
                    let want = match reference.ternary(&start) {
                        TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
                        TernaryOutcome::Uncertain(tv) => tv,
                    };
                    for (i, &t) in want.0.iter().enumerate() {
                        assert_eq!(got.trit(i, lane), t, "{} {inj:?} {pattern}", ckt.name());
                    }
                }
            }
        }
    }
}
