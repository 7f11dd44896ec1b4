//! The token game and the state graph (reachability) of an STG.

use crate::error::StgError;
use crate::model::{SignalClass, SignalIdx, Stg, TransitionId};
use crate::Result;
use std::collections::HashMap;

/// A reachable STG state: a safe marking plus the binary signal code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SgState {
    /// Bit `p` set iff place `p` is marked.
    pub marking: u128,
    /// Bit `s` set iff signal `s` is 1.
    pub code: u64,
}

/// The reachable state graph of a consistent, safe STG.
#[derive(Clone, Debug)]
pub struct StateGraph {
    states: Vec<SgState>,
    edges: Vec<Vec<(TransitionId, usize)>>,
    initial: usize,
    num_signals: usize,
}

impl StateGraph {
    /// Explores the reachable states, checking safeness and consistency,
    /// and inferring initial signal values from the marking when they are
    /// not given explicitly.
    ///
    /// # Errors
    ///
    /// [`StgError::NotSafe`], [`StgError::Inconsistent`],
    /// [`StgError::TooManyStates`] or [`StgError::TooLarge`].
    pub fn build(stg: &Stg) -> Result<Self> {
        Self::build_bounded(stg, 1 << 20)
    }

    /// Like [`StateGraph::build`] with an explicit state budget.
    pub fn build_bounded(stg: &Stg, max_states: usize) -> Result<Self> {
        let mut span = satpg_trace::span!("stg.sg", signals = stg.num_signals());
        if stg.num_signals() > 64 {
            return Err(StgError::TooLarge {
                what: "signals",
                limit: 64,
            });
        }
        if stg.num_places() > 128 {
            return Err(StgError::TooLarge {
                what: "places",
                limit: 128,
            });
        }
        let masks: Vec<(u128, u128)> = (0..stg.transitions().len() as u32)
            .map(|t| {
                let t = TransitionId(t);
                let pre = stg.pre(t).iter().fold(0u128, |m, &p| m | (1 << p));
                let post = stg.post(t).iter().fold(0u128, |m, &p| m | (1 << p));
                (pre, post)
            })
            .collect();
        let m0: u128 = stg.initial_marking().iter().fold(0, |m, &p| m | (1 << p));

        let code0 = infer_initial_code(stg, &masks, m0, max_states)?;

        let mut states = vec![SgState {
            marking: m0,
            code: code0,
        }];
        let mut index: HashMap<SgState, usize> = HashMap::new();
        index.insert(states[0], 0);
        let mut edges: Vec<Vec<(TransitionId, usize)>> = vec![Vec::new()];
        let mut work = vec![0usize];
        while let Some(si) = work.pop() {
            let st = states[si];
            for (ti, &(pre, post)) in masks.iter().enumerate() {
                if st.marking & pre != pre {
                    continue;
                }
                let t = TransitionId(ti as u32);
                let tr = &stg.transitions()[ti];
                let bit = 1u64 << tr.signal;
                let cur = st.code & bit != 0;
                if cur == tr.rising {
                    return Err(StgError::Inconsistent {
                        transition: stg.transition_label(t),
                    });
                }
                let consumed = st.marking & !pre;
                if consumed & post != 0 {
                    return Err(StgError::NotSafe {
                        transition: stg.transition_label(t),
                    });
                }
                let next = SgState {
                    marking: consumed | post,
                    code: st.code ^ bit,
                };
                let ni = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= max_states {
                            return Err(StgError::TooManyStates(max_states));
                        }
                        let i = states.len();
                        states.push(next);
                        index.insert(next, i);
                        edges.push(Vec::new());
                        work.push(i);
                        i
                    }
                };
                edges[si].push((t, ni));
            }
        }
        span.arg("states", states.len());
        Ok(StateGraph {
            states,
            edges,
            initial: 0,
            num_signals: stg.num_signals(),
        })
    }

    /// The reachable states; index 0 is the initial state.
    pub fn states(&self) -> &[SgState] {
        &self.states
    }

    /// Outgoing edges of state `i` as `(transition, successor)` pairs.
    pub fn edges(&self, i: usize) -> &[(TransitionId, usize)] {
        &self.edges[i]
    }

    /// Index of the initial state (always 0).
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Number of signals in the underlying STG.
    pub fn num_signals(&self) -> usize {
        self.num_signals
    }

    /// Whether some transition of `signal` is enabled in state `i`.
    pub fn is_excited(&self, stg: &Stg, i: usize, signal: SignalIdx) -> bool {
        self.edges[i]
            .iter()
            .any(|&(t, _)| stg.transitions()[t.0 as usize].signal == signal)
    }

    /// The next-state function `f_signal` at state `i`: the value the
    /// signal is headed for (its current value if not excited).
    pub fn next_value(&self, stg: &Stg, i: usize, signal: SignalIdx) -> bool {
        for &(t, _) in &self.edges[i] {
            let tr = &stg.transitions()[t.0 as usize];
            if tr.signal == signal {
                return tr.rising;
            }
        }
        self.states[i].code & (1 << signal) != 0
    }

    /// Errors unless only input transitions are enabled initially (so the
    /// synthesized circuit has a stable reset state).
    pub fn check_initial_quiescent(&self, stg: &Stg) -> Result<()> {
        for &(t, _) in &self.edges[self.initial] {
            let tr = &stg.transitions()[t.0 as usize];
            if stg.signal_class(tr.signal) != SignalClass::Input {
                return Err(StgError::InitialNotQuiescent {
                    transition: stg.transition_label(t),
                });
            }
        }
        Ok(())
    }

    /// Errors if an enabled non-input transition can be disabled by firing
    /// another transition (violating output persistency, hence
    /// speed-independence of any implementation).
    pub fn check_output_persistent(&self, stg: &Stg) -> Result<()> {
        for (si, outs) in self.edges.iter().enumerate() {
            for &(t, _) in outs {
                let tr = &stg.transitions()[t.0 as usize];
                if stg.signal_class(tr.signal) == SignalClass::Input {
                    continue;
                }
                for &(u, ui) in outs {
                    if u == t {
                        continue;
                    }
                    let still = self.edges[ui].iter().any(|&(w, _)| w == t);
                    if !still {
                        return Err(StgError::NotOutputPersistent {
                            disabled: stg.transition_label(t),
                            by: stg.transition_label(u),
                        });
                    }
                }
                let _ = si;
            }
        }
        Ok(())
    }
}

/// Infers the initial binary code: for each signal, the direction of the
/// transitions reachable *before any other transition of that signal*
/// determines the starting value; explicit `.init` values override.
fn infer_initial_code(
    stg: &Stg,
    masks: &[(u128, u128)],
    m0: u128,
    max_states: usize,
) -> Result<u64> {
    let mut code = 0u64;
    let explicit: HashMap<SignalIdx, bool> =
        stg.explicit_initial_values().iter().copied().collect();
    for s in 0..stg.num_signals() {
        if let Some(&v) = explicit.get(&s) {
            if v {
                code |= 1 << s;
            }
            continue;
        }
        // BFS over markings firing only transitions of other signals.
        let mut seen = std::collections::HashSet::new();
        seen.insert(m0);
        let mut work = vec![m0];
        let mut first_dir: Option<bool> = None;
        while let Some(m) = work.pop() {
            for (ti, &(pre, post)) in masks.iter().enumerate() {
                if m & pre != pre {
                    continue;
                }
                let tr = &stg.transitions()[ti];
                if tr.signal == s {
                    match first_dir {
                        None => first_dir = Some(tr.rising),
                        Some(d) if d != tr.rising => {
                            return Err(StgError::Inconsistent {
                                transition: stg.transition_label(TransitionId(ti as u32)),
                            })
                        }
                        _ => {}
                    }
                    continue; // do not fire s's own transitions
                }
                let next = (m & !pre) | post;
                if seen.len() >= max_states {
                    return Err(StgError::TooManyStates(max_states));
                }
                if seen.insert(next) {
                    work.push(next);
                }
            }
        }
        // First transition rising ⇒ the signal starts at 0.
        if first_dir == Some(false) {
            code |= 1 << s;
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_g;

    const SEQ2: &str = "\
.model seq2
.inputs r
.outputs a b
.graph
r+ a+
a+ b+
b+ r-
r- a-
a- b-
b- r+
.marking { <b-,r+> }
";

    #[test]
    fn sequencer_has_six_states() {
        let g = parse_g(SEQ2).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert_eq!(sg.states().len(), 6);
        assert_eq!(sg.states()[sg.initial()].code, 0, "all signals start low");
        // Each state has exactly one successor (a simple cycle).
        for i in 0..6 {
            assert_eq!(sg.edges(i).len(), 1);
        }
        sg.check_initial_quiescent(&g).unwrap();
        sg.check_output_persistent(&g).unwrap();
    }

    #[test]
    fn celement_spec_has_eight_states() {
        let src = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert_eq!(sg.states().len(), 8);
        sg.check_output_persistent(&g).unwrap();
        let c = g.signal_by_name("c").unwrap();
        // In the state where a and b are up and c is not, c is excited.
        let s = sg
            .states()
            .iter()
            .position(|st| st.code == 0b011)
            .expect("state ab=11, c=0 reachable");
        assert!(sg.is_excited(&g, s, c));
        assert!(sg.next_value(&g, s, c));
    }

    #[test]
    fn initial_value_inference_handles_high_start() {
        // b starts at 1: its first transition is b-.
        let src = "\
.model hi
.inputs a
.outputs b
.graph
a+ b-
b- a-
a- b+
b+ a+
.marking { <b+,a+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        let b = g.signal_by_name("b").unwrap();
        assert!(sg.states()[0].code & (1 << b) != 0, "b inferred high");
    }

    #[test]
    fn explicit_init_overrides_inference() {
        let src = "\
.model hi
.inputs a
.outputs b
.graph
a+ b-
b- a-
a- b+
b+ a+
.marking { <b+,a+> }
.init b=1 a=0
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert_eq!(sg.states()[0].code, 0b10);
    }

    #[test]
    fn inconsistent_spec_rejected() {
        let src = "\
.model bad
.inputs a
.outputs b
.graph
a+ b+
b+ a+
.marking { <b+,a+> }
";
        // a+ fires twice in a row around the cycle with no a-.
        let g = parse_g(src).unwrap();
        assert!(matches!(
            StateGraph::build(&g),
            Err(StgError::Inconsistent { .. })
        ));
    }

    #[test]
    fn unsafe_net_rejected() {
        let src = "\
.model unsafe
.inputs a
.outputs b
.graph
p0 a+
a+ p1
a+ b+
b+ p1
.marking { p0 }
.init a=0 b=0
";
        // Both a+ and b+ put a token in p1.
        let g = parse_g(src).unwrap();
        assert!(matches!(
            StateGraph::build(&g),
            Err(StgError::NotSafe { .. })
        ));
    }

    #[test]
    fn non_quiescent_initial_detected() {
        let src = "\
.model nq
.inputs a
.outputs b
.graph
b+ a+
a+ b-
b- a-
a- b+
.marking { <a-,b+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert!(matches!(
            sg.check_initial_quiescent(&g),
            Err(StgError::InitialNotQuiescent { .. })
        ));
    }

    #[test]
    fn fork_join_is_output_persistent() {
        let src = "\
.model fj
.inputs r
.outputs x y a
.graph
r+ x+ y+
x+ a+
y+ a+
a+ r-
r- x- y-
x- a-
y- a-
a- r+
.marking { <a-,r+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert_eq!(sg.states().len(), 2 + 4 + 4); // 10 states
        sg.check_output_persistent(&g).unwrap();
    }
}
