//! The STG front end explains itself in a trace: `stg.sg` and
//! `stg.synth` spans with their sizes, and the `stg.primes` counter.

use satpg_stg::{parse_g, synth, StateGraph};
use satpg_trace::{ArgValue, EventKind};

const CELEM: &str = "\
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

#[test]
fn front_end_spans_carry_their_counts() {
    let g = parse_g(CELEM).unwrap();
    let collector = satpg_trace::install();
    let sg = StateGraph::build(&g).unwrap();
    synth::next_state_covers(&g, &sg).unwrap();
    satpg_trace::uninstall();
    let events = collector.drain();
    let args = |name: &str| {
        let begin = events.iter().find(|e| e.name == name).unwrap();
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::End && e.id == begin.id)
            .unwrap();
        (begin.args.clone(), end.args.clone())
    };
    let int = |k, v| (k, ArgValue::Int(v));
    assert_eq!(
        args("stg.sg"),
        (vec![int("signals", 3)], vec![int("states", 8)])
    );
    // c = ab + ac + bc: three primes; ON and OFF are four codes each.
    assert_eq!(
        args("stg.synth"),
        (
            vec![int("signals", 3)],
            vec![int("on", 4), int("off", 4), int("primes", 3)]
        )
    );
    assert_eq!(satpg_trace::metrics().counter("stg.primes").get(), 3);
}
