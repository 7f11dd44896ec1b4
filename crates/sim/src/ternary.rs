//! Scalar ternary (three-valued) simulation: Eichelberger's algorithms
//! A and B.
//!
//! Values are `0`, `1` and `Φ` (unknown).  Algorithm A repeatedly raises
//! every gate to the least upper bound of its current value and its
//! evaluation, spreading `Φ` through every signal that *could* switch.
//! Algorithm B then re-evaluates every gate, resolving signals whose final
//! value does not depend on the order of transitions.  If the resulting
//! state is fully definite, the applied input vector is free of critical
//! races and oscillation, and all interleavings settle to that state
//! (Brzozowski & Seger, *Asynchronous Circuits*, 1995).

use crate::inject::Injection;
use satpg_netlist::{Bits, Circuit, GateId, GateKind, IntoPattern, Pattern, SignalId};
use std::collections::VecDeque;

/// A three-valued signal level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Trit {
    /// Definite 0.
    Zero,
    /// Definite 1.
    One,
    /// Unknown / could be either (`Φ` in the paper).
    X,
}

impl Trit {
    /// From a Boolean.
    pub fn from_bool(b: bool) -> Trit {
        if b {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// To a Boolean if definite.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Trit {
        match self {
            Trit::Zero => Trit::One,
            Trit::One => Trit::Zero,
            Trit::X => Trit::X,
        }
    }

    /// Kleene conjunction.
    pub fn and(self, o: Trit) -> Trit {
        match (self, o) {
            (Trit::Zero, _) | (_, Trit::Zero) => Trit::Zero,
            (Trit::One, Trit::One) => Trit::One,
            _ => Trit::X,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, o: Trit) -> Trit {
        match (self, o) {
            (Trit::One, _) | (_, Trit::One) => Trit::One,
            (Trit::Zero, Trit::Zero) => Trit::Zero,
            _ => Trit::X,
        }
    }

    /// Kleene exclusive-or.
    pub fn xor(self, o: Trit) -> Trit {
        match (self.to_bool(), o.to_bool()) {
            (Some(a), Some(b)) => Trit::from_bool(a != b),
            _ => Trit::X,
        }
    }

    /// Least upper bound in the information order (`x ⊔ y = x` if equal,
    /// else `Φ`).
    pub fn lub(self, o: Trit) -> Trit {
        if self == o {
            self
        } else {
            Trit::X
        }
    }
}

/// A ternary circuit state: one [`Trit`] per state bit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TritVec(pub Vec<Trit>);

impl TritVec {
    /// Broadcast of a definite binary state.
    pub fn from_bits(b: &Bits) -> Self {
        TritVec(b.iter().map(Trit::from_bool).collect())
    }

    /// Converts back to a binary state if fully definite.
    pub fn to_bits(&self) -> Option<Bits> {
        self.0
            .iter()
            .map(|t| t.to_bool())
            .collect::<Option<Vec<bool>>>()
            .map(|v| Bits::from_fn(v.len(), |i| v[i]))
    }

    /// Number of unknown positions.
    pub fn num_unknown(&self) -> usize {
        self.0.iter().filter(|&&t| t == Trit::X).count()
    }
}

/// Result of a ternary settling run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TernaryOutcome {
    /// Every signal settled to a definite value: the vector is valid and
    /// this is the unique settled state.
    Definite(Bits),
    /// Some signal remained `Φ`: possible critical race or oscillation
    /// (conservative).
    Uncertain(TritVec),
}

impl TernaryOutcome {
    /// The settled state if definite.
    pub fn definite(&self) -> Option<&Bits> {
        match self {
            TernaryOutcome::Definite(b) => Some(b),
            TernaryOutcome::Uncertain(_) => None,
        }
    }
}

/// Evaluates gate `g`'s function in ternary `state` under `inj`.
pub fn eval_gate_ternary(ckt: &Circuit, g: GateId, state: &TritVec, inj: &Injection) -> Trit {
    if let Some(v) = inj.output_force(g) {
        return Trit::from_bool(v);
    }
    let gate = ckt.gate(g);
    let pin = |p: usize| -> Trit {
        if let Some(v) = inj.pin_force(g, p) {
            return Trit::from_bool(v);
        }
        state.0[gate.inputs[p].index()]
    };
    let n = gate.inputs.len();
    match &gate.kind {
        GateKind::Input | GateKind::Buf => pin(0),
        GateKind::Not => pin(0).not(),
        GateKind::And => (0..n).fold(Trit::One, |a, p| a.and(pin(p))),
        GateKind::Or => (0..n).fold(Trit::Zero, |a, p| a.or(pin(p))),
        GateKind::Nand => (0..n).fold(Trit::One, |a, p| a.and(pin(p))).not(),
        GateKind::Nor => (0..n).fold(Trit::Zero, |a, p| a.or(pin(p))).not(),
        GateKind::Xor => (0..n).fold(Trit::Zero, |a, p| a.xor(pin(p))),
        GateKind::Xnor => (0..n).fold(Trit::Zero, |a, p| a.xor(pin(p))).not(),
        GateKind::C => {
            let all = (0..n).fold(Trit::One, |a, p| a.and(pin(p)));
            let any = (0..n).fold(Trit::Zero, |a, p| a.or(pin(p)));
            let out = state.0[ckt.gate_output(g).index()];
            all.or(out.and(any))
        }
        GateKind::Sop(s) => s.cubes.iter().fold(Trit::Zero, |acc, c| {
            acc.or(c.0.iter().fold(Trit::One, |a, l| {
                let v = pin(l.pin);
                a.and(if l.positive { v } else { v.not() })
            }))
        }),
        GateKind::Const(v) => Trit::from_bool(*v),
    }
}

/// The event queue of every ternary fixpoint, scalar and 64-lane:
/// [`Worklist::seed`] queues the gates that can move, and
/// [`Worklist::run`] updates queued gates first in, first out, queueing
/// the readers of every signal that changes.  Both of Eichelberger's
/// updates are monotone on a finite lattice and each output (each lane
/// of one) changes at most once, so a fixpoint ends after `O(fanout)`
/// updates, and any fair order — this queue or a sweep in gate order —
/// reaches the same fixpoint (`crates/sim/DESIGN.md`).  The buffers are
/// reused from run to run.
#[derive(Default)]
pub(crate) struct Worklist {
    /// Set while the gate waits in `work`; the frozen gate stays set.
    queued: Vec<bool>,
    work: VecDeque<GateId>,
    /// The signals the current fixpoint changed.
    pub(crate) changed: Vec<usize>,
}

impl Worklist {
    /// Starts a fixpoint: queues `gates`, except `frozen`, which is
    /// never updated.
    pub(crate) fn seed(
        &mut self,
        ckt: &Circuit,
        frozen: Option<GateId>,
        gates: impl IntoIterator<Item = GateId>,
    ) {
        self.queued.clear();
        self.queued.resize(ckt.num_gates(), false);
        if let Some(f) = frozen {
            self.queued[f.index()] = true;
        }
        self.work.clear();
        self.changed.clear();
        for g in gates {
            self.push(g);
        }
    }

    fn push(&mut self, g: GateId) {
        if !std::mem::replace(&mut self.queued[g.index()], true) {
            self.work.push_back(g);
        }
    }

    /// Updates queued gates until none is left: `update(g)` returns
    /// `g`'s output signal if its value changed.  Gives up as soon as a
    /// changed signal's index satisfies `stop`, and reports whether it
    /// did.
    pub(crate) fn run(
        &mut self,
        ckt: &Circuit,
        mut update: impl FnMut(GateId) -> Option<SignalId>,
        stop: impl Fn(usize) -> bool,
    ) -> bool {
        while let Some(g) = self.work.pop_front() {
            self.queued[g.index()] = false;
            if let Some(out) = update(g) {
                self.changed.push(out.index());
                if stop(out.index()) {
                    return true;
                }
                for &h in ckt.fanout(out) {
                    self.push(h);
                }
            }
        }
        false
    }

    /// Algorithms A and B on `state` with the inputs of `pattern`
    /// applied: [`ternary_settle_from`] on this worklist.
    pub(crate) fn settle(
        &mut self,
        ckt: &Circuit,
        mut state: TritVec,
        pattern: &Pattern,
        inj: &Injection,
    ) -> TernaryOutcome {
        for i in 0..ckt.num_inputs() {
            state.0[i] = Trit::from_bool(pattern.get(i));
        }
        let all = (0..ckt.num_gates()).map(|i| GateId(i as u32));
        self.seed(ckt, None, all.clone());
        self.run(ckt, |g| update(ckt, g, &mut state, inj, true), |_| false);
        // At an A fixpoint every definite output already equals its
        // evaluation, so only the `Φ` outputs can move under B.
        let unknown = |g: &GateId| state.0[ckt.gate_output(*g).index()] == Trit::X;
        self.seed(ckt, None, all.filter(unknown));
        self.run(ckt, |g| update(ckt, g, &mut state, inj, false), |_| false);
        match state.to_bits() {
            Some(b) => TernaryOutcome::Definite(b),
            None => TernaryOutcome::Uncertain(state),
        }
    }
}

/// Updates gate `g`'s output in `state` to `cur ⊔ eval` (algorithm A,
/// `lub`) or to `eval` (algorithm B); returns the output if it changed.
pub(crate) fn update(
    ckt: &Circuit,
    g: GateId,
    state: &mut TritVec,
    inj: &Injection,
    lub: bool,
) -> Option<SignalId> {
    let out = ckt.gate_output(g);
    let cur = state.0[out.index()];
    let eval = eval_gate_ternary(ckt, g, state, inj);
    let next = if lub { cur.lub(eval) } else { eval };
    state.0[out.index()] = next;
    (next != cur).then_some(out)
}

/// Applies input pattern `pattern` to the (binary) stable state `from`
/// and runs algorithms A and B.
pub fn ternary_settle(
    ckt: &Circuit,
    from: &Bits,
    pattern: impl IntoPattern,
    inj: &Injection,
) -> TernaryOutcome {
    ternary_settle_from(ckt, &TritVec::from_bits(from), pattern, inj)
}

/// Like [`ternary_settle`], but from a possibly-uncertain ternary state
/// (used when chaining test cycles on a faulty machine).
pub fn ternary_settle_from(
    ckt: &Circuit,
    from: &TritVec,
    pattern: impl IntoPattern,
    inj: &Injection,
) -> TernaryOutcome {
    let pattern = pattern.into_pattern(ckt.num_inputs());
    Worklist::default().settle(ckt, from.clone(), &pattern, inj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_netlist::library;

    #[test]
    fn trit_kleene_tables() {
        use Trit::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(One.xor(X), X);
        assert_eq!(Zero.lub(One), X);
        assert_eq!(One.lub(One), One);
    }

    #[test]
    fn c_element_settles_definite() {
        let c = library::c_element();
        let out = ternary_settle(&c, c.initial_state(), 0b11, &Injection::none());
        let settled = out.definite().expect("C-element raise is race-free");
        let y = c.signal_by_name("y").unwrap();
        assert!(settled.get(y.index()));
        assert!(c.is_stable(settled));
    }

    #[test]
    fn figure1a_race_detected_as_uncertain() {
        let c = library::figure1a();
        // AB = 10 from the paper's initial state: non-confluent.
        let out = ternary_settle(&c, c.initial_state(), 0b01, &Injection::none());
        match out {
            TernaryOutcome::Uncertain(tv) => {
                let y = c.signal_by_name("y").unwrap();
                assert_eq!(tv.0[y.index()], Trit::X, "racing output is Φ");
            }
            TernaryOutcome::Definite(_) => panic!("race missed by ternary simulation"),
        }
    }

    #[test]
    fn figure1b_oscillation_detected_as_uncertain() {
        let c = library::figure1b();
        let out = ternary_settle(&c, c.initial_state(), 0b01, &Injection::none());
        assert!(out.definite().is_none(), "oscillation must yield Φ");
    }

    #[test]
    fn benign_vector_stays_definite() {
        let c = library::figure1b();
        // Raising B only (A stays 0) is race-free.
        let out = ternary_settle(&c, c.initial_state(), 0b10, &Injection::none());
        assert!(out.definite().is_some());
    }

    #[test]
    fn sr_latch_both_phases() {
        let c = library::sr_latch();
        let set = ternary_settle(&c, c.initial_state(), 0b01, &Injection::none());
        let s1 = set.definite().expect("set is race-free").clone();
        let hold = ternary_settle(&c, &s1, 0b00, &Injection::none());
        let s2 = hold.definite().unwrap().clone();
        let q = c.signal_by_name("q").unwrap();
        assert!(s2.get(q.index()), "latch holds");
    }

    #[test]
    fn stuck_output_forces_value() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let inj = Injection::single(y, crate::Site::Output, false);
        let out = ternary_settle(&c, c.initial_state(), 0b11, &inj);
        let settled = out.definite().unwrap();
        assert!(!settled.get(c.signal_by_name("y").unwrap().index()));
    }

    #[test]
    fn uncertain_state_can_be_chained() {
        let c = library::figure1a();
        let out = ternary_settle(&c, c.initial_state(), 0b01, &Injection::none());
        let tv = match out {
            TernaryOutcome::Uncertain(tv) => tv,
            _ => unreachable!(),
        };
        // Returning to AB=01 resets the race; y may remain unknown (it
        // latched nondeterministically) but a and b are definite again.
        let out2 = ternary_settle_from(&c, &tv, 0b10, &Injection::none());
        if let TernaryOutcome::Uncertain(tv2) = out2 {
            let a = c.signal_by_name("a").unwrap();
            assert_ne!(tv2.0[a.index()], Trit::X);
        }
    }
}
