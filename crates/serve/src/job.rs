//! Circuit resolution: from a wire-level [`CircuitSpec`] to a parsed,
//! validated [`Circuit`].  Every failure path returns a message (with
//! the parser's line number where one exists) — submissions are
//! untrusted input and must never panic the daemon.

use crate::proto::{CircuitSpec, JobSpec};
use satpg_core::{AtpgConfig, CssgConfig, FaultModel, RandomTpgConfig, ThreePhaseConfig};
use satpg_netlist::{parse_ckt, Circuit};
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{parse_g, suite, StateGraph};
use std::ops::RangeInclusive;

/// A generated circuit family.
struct Family {
    /// The name a [`CircuitSpec::Family`] carries.
    name: &'static str,
    /// The size `satpg gen` and `--family` build when none is given.
    default_size: usize,
    /// Accepted sizes.  For `muller`/`arbiter` they are resource
    /// guards, not representation limits: patterns and states are
    /// multi-word, so arbiter widths past 63 are legal — such jobs just
    /// need an explicit `pattern_budget`.  `dme`/`seq` stop where their
    /// state graph does (128 places: 21 ring cells, 63 stages; 64
    /// signals), and `satpg gen` builds either top size in well under
    /// 100 ms.
    sizes: RangeInclusive<usize>,
}

/// The one table of generated families, shared by the daemon and every
/// CLI subcommand.
const FAMILIES: [Family; 4] = [
    Family {
        name: "muller",
        default_size: 4,
        sizes: 1..=128,
    },
    Family {
        name: "arbiter",
        default_size: 4,
        sizes: 2..=128,
    },
    Family {
        name: "dme",
        default_size: 3,
        sizes: 2..=21,
    },
    Family {
        name: "seq",
        default_size: 4,
        sizes: 1..=63,
    },
];

/// The spec of family `name` at `size`, or at the family's default size
/// when `size` is `None`.  An unknown name is left for
/// [`resolve_circuit`] to reject.
pub fn family_spec(name: &str, size: Option<usize>) -> CircuitSpec {
    let default = FAMILIES.iter().find(|f| f.name == name);
    CircuitSpec::Family {
        name: name.to_string(),
        size: size.unwrap_or_else(|| default.map_or(0, |f| f.default_size)),
    }
}

/// Builds the circuit a spec names: netlists directly, STG specs
/// through the state graph and the synthesis style.
///
/// # Errors
///
/// A human-readable message: parse errors (line-numbered), unknown
/// benchmark/family names, out-of-range sizes, synthesis failures.
pub fn resolve_circuit(spec: &CircuitSpec) -> Result<Circuit, String> {
    let (stg, style) = match spec {
        CircuitSpec::Bench { name, style } => (
            suite::load(name).map_err(|e| format!("{name}: {e}"))?,
            style.as_str(),
        ),
        CircuitSpec::Family { name, size } => {
            let family = FAMILIES
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown family `{name}` (muller|dme|arbiter|seq)"))?;
            if !family.sizes.contains(size) {
                return Err(format!(
                    "size {size} out of range for this family ({}..={})",
                    family.sizes.start(),
                    family.sizes.end()
                ));
            }
            let stg = match family.name {
                "muller" => return Ok(satpg_netlist::families::muller_pipeline(*size)),
                "arbiter" => return Ok(satpg_netlist::families::arbiter_tree(*size)),
                "dme" => satpg_stg::families::dme_ring(*size),
                _ => satpg_stg::families::sequencer(*size),
            };
            (stg.map_err(|e| e.to_string())?, "si")
        }
        CircuitSpec::InlineG { text, style } => {
            (parse_g(text).map_err(|e| e.to_string())?, style.as_str())
        }
        CircuitSpec::InlineCkt { text } => return parse_ckt(text).map_err(|e| e.to_string()),
    };
    let synthesize = || -> Result<Circuit, String> {
        let sg = StateGraph::build(&stg).map_err(|e| e.to_string())?;
        match style {
            "si" => complex_gate(&stg, &sg).map_err(|e| e.to_string()),
            "2l" => two_level(&stg, &sg, Redundancy::None).map_err(|e| e.to_string()),
            "2lr" => two_level(&stg, &sg, Redundancy::AllPrimes).map_err(|e| e.to_string()),
            other => Err(format!("unknown style `{other}` (si|2l|2lr)")),
        }
    };
    match spec {
        CircuitSpec::Bench { name, .. } => synthesize().map_err(|e| format!("{name}: {e}")),
        _ => synthesize(),
    }
}

/// The flow configuration a job spec denotes for `ckt` — the single
/// definition shared by the daemon's engine path, a fleet coordinator
/// and its peer shards.  Byte-identical fleet reports depend on every
/// node deriving the *same* `AtpgConfig` from the same spec, so this
/// must stay the only place that mapping lives.
pub fn job_atpg_config(spec: &JobSpec, ckt: &Circuit) -> AtpgConfig {
    AtpgConfig {
        cssg: CssgConfig {
            k: spec.k,
            pattern_budget: spec.pattern_budget,
            ..CssgConfig::default()
        },
        random: if spec.no_random {
            None
        } else {
            Some(RandomTpgConfig {
                pattern_parallel: spec.pp_random,
                ..Default::default()
            })
        },
        fault_model: if spec.output_model {
            FaultModel::OutputStuckAt
        } else {
            FaultModel::InputStuckAt
        },
        collapse: spec.collapse,
        fault_sim: true,
        three_phase: ThreePhaseConfig::scaled(ckt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_spec_kinds() {
        let bench = resolve_circuit(&CircuitSpec::Bench {
            name: "converta".into(),
            style: "si".into(),
        })
        .unwrap();
        assert_eq!(bench.name(), "converta");
        let fam = resolve_circuit(&CircuitSpec::Family {
            name: "muller".into(),
            size: 3,
        })
        .unwrap();
        assert!(fam.num_gates() > 0);
        let g = resolve_circuit(&CircuitSpec::InlineG {
            text: suite::source("seq4").unwrap().to_string(),
            style: "si".into(),
        })
        .unwrap();
        assert_eq!(g.name(), "seq4");
        let ckt = resolve_circuit(&CircuitSpec::InlineCkt {
            text: "circuit inv\ninputs A:a\noutputs y\ngate y = not(a)\nsettle\n".into(),
        })
        .unwrap();
        assert_eq!(ckt.name(), "inv");
    }

    #[test]
    fn errors_carry_context_not_panics() {
        let e = resolve_circuit(&CircuitSpec::Bench {
            name: "no-such".into(),
            style: "si".into(),
        })
        .unwrap_err();
        assert!(e.contains("no-such"));
        let e = resolve_circuit(&CircuitSpec::Family {
            name: "muller".into(),
            size: 10_000,
        })
        .unwrap_err();
        assert!(e.contains("out of range"));
        let e = resolve_circuit(&CircuitSpec::InlineG {
            text: ".model m\n.bogus\n".into(),
            style: "si".into(),
        })
        .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = resolve_circuit(&CircuitSpec::InlineCkt {
            text: "circuit x\nnonsense\n".into(),
        })
        .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }
}
