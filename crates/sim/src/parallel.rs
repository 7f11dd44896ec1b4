//! Bit-parallel ternary simulation: 64 machines per pass.
//!
//! Each signal holds two 64-bit planes, `lo` and `hi`; lane `l` encodes a
//! ternary value as `(lo, hi)` bits: `(1,0)` = 0, `(0,1)` = 1, `(1,1)` =
//! `Φ`.  Kleene operators become plain word operations, so algorithms A
//! and B run over the good machine and 63 faulty machines simultaneously —
//! the combination of *parallel* and *ternary* simulation the paper uses
//! for random TPG and fault simulation.

use crate::inject::{Injection, Site};
use crate::ternary::{Trit, Worklist};
use satpg_netlist::{Bits, Circuit, GateId, GateKind, IntoPattern, Pattern};

/// Number of machines simulated per pass.
pub const LANES: usize = 64;

/// Plane pair for one signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Planes {
    lo: u64,
    hi: u64,
}

impl Planes {
    const ZERO: Planes = Planes { lo: !0, hi: 0 };
    const ONE: Planes = Planes { lo: 0, hi: !0 };

    #[inline]
    fn from_bool(b: bool) -> Planes {
        if b {
            Planes::ONE
        } else {
            Planes::ZERO
        }
    }

    #[inline]
    fn not(self) -> Planes {
        Planes {
            lo: self.hi,
            hi: self.lo,
        }
    }

    #[inline]
    fn and(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo | o.lo,
            hi: self.hi & o.hi,
        }
    }

    #[inline]
    fn or(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo & o.lo,
            hi: self.hi | o.hi,
        }
    }

    #[inline]
    fn xor(self, o: Planes) -> Planes {
        let known = !(self.lo & self.hi) & !(o.lo & o.hi);
        let v = self.hi ^ o.hi;
        Planes {
            lo: (known & !v) | !known,
            hi: (known & v) | !known,
        }
    }

    /// Least upper bound in the information order, lane-wise.
    #[inline]
    fn lub(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo | o.lo,
            hi: self.hi | o.hi,
        }
    }

    /// Forces lanes in `mask` to `value`.
    #[inline]
    fn force(self, mask: u64, value: bool) -> Planes {
        if value {
            Planes {
                lo: self.lo & !mask,
                hi: self.hi | mask,
            }
        } else {
            Planes {
                lo: self.lo | mask,
                hi: self.hi & !mask,
            }
        }
    }

    #[inline]
    fn trit(self, lane: usize) -> Trit {
        let m = 1u64 << lane;
        match ((self.lo & m) != 0, (self.hi & m) != 0) {
            (true, false) => Trit::Zero,
            (false, true) => Trit::One,
            _ => Trit::X,
        }
    }
}

/// A 64-lane ternary circuit state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlaneState {
    planes: Vec<Planes>,
}

impl PlaneState {
    /// Broadcasts one binary state to all lanes.
    pub fn broadcast(state: &Bits) -> Self {
        PlaneState {
            planes: state.iter().map(Planes::from_bool).collect(),
        }
    }

    /// Sets the ternary value of `signal` on `lane`.
    pub fn set_trit(&mut self, signal: usize, lane: usize, t: Trit) {
        let m = 1u64 << lane;
        let p = &mut self.planes[signal];
        let (lo, hi) = match t {
            Trit::Zero => (true, false),
            Trit::One => (false, true),
            Trit::X => (true, true),
        };
        p.lo = if lo { p.lo | m } else { p.lo & !m };
        p.hi = if hi { p.hi | m } else { p.hi & !m };
    }

    /// Reads the ternary value of `signal` on `lane`.
    pub fn trit(&self, signal: usize, lane: usize) -> Trit {
        self.planes[signal].trit(lane)
    }

    /// Reads `signal` on `lane` as a Boolean if definite.
    pub fn definite(&self, signal: usize, lane: usize) -> Option<bool> {
        self.trit(signal, lane).to_bool()
    }

    /// Whether every signal on `lane` is definite.
    pub fn lane_definite(&self, lane: usize) -> bool {
        let m = 1u64 << lane;
        self.planes.iter().all(|p| (p.lo & p.hi & m) == 0)
    }

    /// Extracts `lane` as a binary state if fully definite.
    pub fn lane_bits(&self, lane: usize) -> Option<Bits> {
        if !self.lane_definite(lane) {
            return None;
        }
        Some(Bits::from_fn(self.planes.len(), |i| {
            self.trit(i, lane) == Trit::One
        }))
    }

    /// Overwrites `lane` of `self` with `lane` of `from` on every signal.
    ///
    /// Used by the pattern-parallel random stage to restart a single
    /// lane's machine from a stored checkpoint (e.g. the post-reset
    /// state) without touching the other 63 lanes.
    pub fn copy_lane_from(&mut self, from: &PlaneState, lane: usize) {
        assert_eq!(self.planes.len(), from.planes.len(), "same circuit");
        let m = 1u64 << lane;
        for (p, q) in self.planes.iter_mut().zip(&from.planes) {
            p.lo = (p.lo & !m) | (q.lo & m);
            p.hi = (p.hi & !m) | (q.hi & m);
        }
    }
}

/// Per-lane fault forces, pre-compiled to masks.
///
/// Lane 0 is conventionally the good machine; [`ParallelInjection::new`]
/// takes one [`Injection`] per lane.
#[derive(Clone, Debug, Default)]
pub struct ParallelInjection {
    /// `(gate, pin, force-1 mask, force-0 mask)` for pins.
    pins: Vec<(GateId, usize, u64, u64)>,
    /// `(gate, force-1 mask, force-0 mask)` for outputs.
    outputs: Vec<(GateId, u64, u64)>,
}

impl ParallelInjection {
    /// Compiles per-lane injections (at most [`LANES`]) into masks.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] injections are given.
    pub fn new(lanes: &[Injection]) -> Self {
        assert!(lanes.len() <= LANES, "at most {LANES} lanes");
        let mut pins: std::collections::HashMap<(GateId, usize), (u64, u64)> =
            std::collections::HashMap::new();
        let mut outputs: std::collections::HashMap<GateId, (u64, u64)> =
            std::collections::HashMap::new();
        for (lane, inj) in lanes.iter().enumerate() {
            let m = 1u64 << lane;
            for f in &inj.forces {
                match f.site {
                    Site::Pin(p) => {
                        let e = pins.entry((f.gate, p)).or_default();
                        if f.value {
                            e.0 |= m;
                        } else {
                            e.1 |= m;
                        }
                    }
                    Site::Output => {
                        let e = outputs.entry(f.gate).or_default();
                        if f.value {
                            e.0 |= m;
                        } else {
                            e.1 |= m;
                        }
                    }
                }
            }
        }
        ParallelInjection {
            pins: pins
                .into_iter()
                .map(|((g, p), (m1, m0))| (g, p, m1, m0))
                .collect(),
            outputs: outputs
                .into_iter()
                .map(|(g, (m1, m0))| (g, m1, m0))
                .collect(),
        }
    }

    #[inline]
    fn pin_masks(&self, g: GateId, p: usize) -> (u64, u64) {
        for &(gg, pp, m1, m0) in &self.pins {
            if gg == g && pp == p {
                return (m1, m0);
            }
        }
        (0, 0)
    }

    #[inline]
    fn output_masks(&self, g: GateId) -> (u64, u64) {
        for &(gg, m1, m0) in &self.outputs {
            if gg == g {
                return (m1, m0);
            }
        }
        (0, 0)
    }
}

fn eval_gate_planes(ckt: &Circuit, g: GateId, st: &PlaneState, inj: &ParallelInjection) -> Planes {
    let gate = ckt.gate(g);
    let pin = |p: usize| -> Planes {
        let raw = st.planes[gate.inputs[p].index()];
        let (m1, m0) = inj.pin_masks(g, p);
        raw.force(m1, true).force(m0, false)
    };
    let n = gate.inputs.len();
    let f = match &gate.kind {
        GateKind::Input | GateKind::Buf => pin(0),
        GateKind::Not => pin(0).not(),
        GateKind::And => (0..n).fold(Planes::ONE, |a, p| a.and(pin(p))),
        GateKind::Or => (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p))),
        GateKind::Nand => (0..n).fold(Planes::ONE, |a, p| a.and(pin(p))).not(),
        GateKind::Nor => (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p))).not(),
        GateKind::Xor => (0..n).fold(Planes::ZERO, |a, p| a.xor(pin(p))),
        GateKind::Xnor => (0..n).fold(Planes::ZERO, |a, p| a.xor(pin(p))).not(),
        GateKind::C => {
            let all = (0..n).fold(Planes::ONE, |a, p| a.and(pin(p)));
            let any = (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p)));
            let out = st.planes[ckt.gate_output(g).index()];
            all.or(out.and(any))
        }
        GateKind::Sop(s) => s.cubes.iter().fold(Planes::ZERO, |acc, c| {
            acc.or(c.0.iter().fold(Planes::ONE, |a, l| {
                let v = pin(l.pin);
                a.and(if l.positive { v } else { v.not() })
            }))
        }),
        GateKind::Const(v) => Planes::from_bool(*v),
    };
    let (m1, m0) = inj.output_masks(g);
    f.force(m1, true).force(m0, false)
}

/// Algorithms A then B over every lane, on the scalar engine's event
/// queue: A from every gate, B from the gates A left `Φ` on some lane (a
/// definite lane cannot move under B).  Each lane is its own monotone
/// fixpoint, so the result is the sweeps' lane by lane.
fn settle_planes(ckt: &Circuit, st: &mut PlaneState, inj: &ParallelInjection) {
    let update = |g: GateId, st: &mut PlaneState, lub: bool| {
        let out = ckt.gate_output(g);
        let cur = st.planes[out.index()];
        let eval = eval_gate_planes(ckt, g, st, inj);
        let next = if lub { cur.lub(eval) } else { eval };
        st.planes[out.index()] = next;
        (next != cur).then_some(out)
    };
    let mut wl = Worklist::default();
    let all = (0..ckt.num_gates()).map(|i| GateId(i as u32));
    wl.seed(ckt, None, all.clone());
    wl.run(ckt, |g| update(g, st, true), |_| false);
    let unknown = |g: &GateId| {
        let p = st.planes[ckt.gate_output(*g).index()];
        p.lo & p.hi != 0
    };
    wl.seed(ckt, None, all.filter(unknown));
    wl.run(ckt, |g| update(g, st, false), |_| false);
}

/// Applies `pattern` to every lane's environment pins and runs algorithms
/// A and B across all 64 lanes simultaneously.
pub fn parallel_settle(
    ckt: &Circuit,
    from: &PlaneState,
    pattern: impl IntoPattern,
    inj: &ParallelInjection,
) -> PlaneState {
    let pattern = pattern.into_pattern(ckt.num_inputs());
    let mut st = from.clone();
    for i in 0..ckt.num_inputs() {
        st.planes[i] = Planes::from_bool(pattern.get(i));
    }
    settle_planes(ckt, &mut st, inj);
    st
}

/// Applies a *distinct* pattern to each lane — the pattern-per-bit mode
/// (PPSFP): one fault injection broadcast across all lanes, up to
/// [`LANES`] input vectors evaluated in a single fixpoint pass.
///
/// Lanes beyond `patterns.len()` repeat the last pattern (so their
/// results are redundant, never garbage).
///
/// # Panics
///
/// Panics if `patterns` is empty or longer than [`LANES`].
pub fn parallel_settle_patterns(
    ckt: &Circuit,
    from: &PlaneState,
    patterns: &[Pattern],
    inj: &ParallelInjection,
) -> PlaneState {
    assert!(!patterns.is_empty(), "at least one pattern");
    assert!(patterns.len() <= LANES, "at most {LANES} patterns");
    let mut st = from.clone();
    for i in 0..ckt.num_inputs() {
        let mut ones = 0u64;
        for l in 0..LANES {
            let p = patterns.get(l).unwrap_or_else(|| patterns.last().unwrap());
            if p.get(i) {
                ones |= 1u64 << l;
            }
        }
        st.planes[i] = Planes {
            lo: !ones,
            hi: ones,
        };
    }
    settle_planes(ckt, &mut st, inj);
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::{ternary_settle, TernaryOutcome, TritVec};
    use satpg_netlist::library;

    /// Lane-0 of the parallel engine must agree with the scalar engine.
    fn check_lane0_agrees(ckt: &satpg_netlist::Circuit, pattern: u64) {
        let scalar = ternary_settle(ckt, ckt.initial_state(), pattern, &Injection::none());
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let par = parallel_settle(
            ckt,
            &PlaneState::broadcast(ckt.initial_state()),
            pattern,
            &pinj,
        );
        let scalar_tv = match scalar {
            TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
            TernaryOutcome::Uncertain(tv) => tv,
        };
        for i in 0..ckt.num_state_bits() {
            assert_eq!(
                par.trit(i, 0),
                scalar_tv.0[i],
                "signal {i} pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn parallel_matches_scalar_on_library() {
        for ckt in library::all() {
            for pattern in Pattern::all(ckt.num_inputs()) {
                check_lane0_agrees(&ckt, pattern.as_u64().unwrap());
            }
        }
    }

    #[test]
    fn pattern_per_lane_matches_broadcast() {
        // Every pattern of the C-element applied per-lane in one pass must
        // agree lane-by-lane with a broadcast pass of that same pattern.
        let c = library::c_element();
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let patterns: Vec<Pattern> = Pattern::all(c.num_inputs()).collect();
        let from = PlaneState::broadcast(c.initial_state());
        let multi = parallel_settle_patterns(&c, &from, &patterns, &pinj);
        for (l, p) in patterns.iter().enumerate() {
            let single = parallel_settle(&c, &from, p, &pinj);
            for i in 0..c.num_state_bits() {
                assert_eq!(multi.trit(i, l), single.trit(i, 0), "signal {i} lane {l}");
            }
        }
        // Lanes past the pattern list repeat the last pattern.
        for i in 0..c.num_state_bits() {
            assert_eq!(multi.trit(i, LANES - 1), multi.trit(i, patterns.len() - 1));
        }
    }

    #[test]
    fn copy_lane_restores_checkpoint() {
        let c = library::c_element();
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let reset = PlaneState::broadcast(c.initial_state());
        let mut st = parallel_settle(&c, &reset, 0b11, &pinj);
        assert_ne!(st, reset);
        let settled = st.clone();
        st.copy_lane_from(&reset, 5);
        for i in 0..c.num_state_bits() {
            assert_eq!(st.trit(i, 5), reset.trit(i, 5), "lane 5 restored");
            assert_eq!(st.trit(i, 0), settled.trit(i, 0), "lane 0 untouched");
            assert_eq!(st.trit(i, 6), settled.trit(i, 6), "lane 6 untouched");
        }
    }

    #[test]
    fn faulty_lane_diverges_from_good_lane() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let lanes = vec![
            Injection::none(),
            Injection::single(y, Site::Output, false), // y stuck-at-0
        ];
        let pinj = ParallelInjection::new(&lanes);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b11, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        assert_eq!(st.definite(ysig, 0), Some(true), "good machine raises y");
        assert_eq!(
            st.definite(ysig, 1),
            Some(false),
            "stuck-at-0 lane stays low"
        );
    }

    #[test]
    fn pin_fault_masks_only_its_lane() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let lanes = vec![Injection::none(), Injection::single(y, Site::Pin(1), true)];
        let pinj = ParallelInjection::new(&lanes);
        // Raise only A: good machine holds y=0, faulty (b pin stuck-1) sees
        // both inputs high and raises y.
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        assert_eq!(st.definite(ysig, 0), Some(false));
        assert_eq!(st.definite(ysig, 1), Some(true));
    }

    #[test]
    fn race_shows_as_phi_on_every_lane() {
        let c = library::figure1a();
        let pinj = ParallelInjection::new(&vec![Injection::none(); 3]);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        for lane in 0..3 {
            assert_eq!(st.trit(ysig, lane), Trit::X);
            assert!(!st.lane_definite(lane));
        }
    }

    #[test]
    fn lane_bits_roundtrip() {
        let c = library::sr_latch();
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let bits = st.lane_bits(0).expect("set is race-free");
        assert!(c.is_stable(&bits));
    }

    #[test]
    fn set_trit_and_read_back() {
        let c = library::c_element();
        let mut st = PlaneState::broadcast(c.initial_state());
        st.set_trit(4, 7, Trit::X);
        assert_eq!(st.trit(4, 7), Trit::X);
        assert_eq!(st.trit(4, 6), Trit::Zero);
        st.set_trit(4, 7, Trit::One);
        assert_eq!(st.trit(4, 7), Trit::One);
    }
}
