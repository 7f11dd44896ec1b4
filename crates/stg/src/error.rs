//! Error type for STG parsing, analysis and synthesis.

use std::error::Error;
use std::fmt;

/// Errors from STG parsing, state-graph construction and synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// Syntax error in a `.g` file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable message.
        msg: String,
    },
    /// A transition references an undeclared signal.
    UnknownSignal(String),
    /// The net is not safe: a token was produced on a marked place.
    NotSafe {
        /// Offending transition label.
        transition: String,
    },
    /// Signal values do not alternate (`a+` fired while `a` was already 1).
    Inconsistent {
        /// Offending transition label.
        transition: String,
    },
    /// The reachability analysis exceeded its state budget.
    TooManyStates(usize),
    /// Unique State Coding violation (informational; synthesis needs CSC).
    UscViolation {
        /// A binary code shared by two different markings.
        code: u64,
    },
    /// Complete State Coding violation: the next-state function of
    /// `signal` is ill-defined at `code`.
    CscViolation {
        /// The conflicting signal name.
        signal: String,
        /// The shared binary code.
        code: u64,
    },
    /// An output transition is enabled in the initial marking, so the
    /// synthesized circuit would not have a stable reset state.
    InitialNotQuiescent {
        /// The enabled output transition label.
        transition: String,
    },
    /// An enabled output transition was disabled by another transition
    /// firing (the specification is not output-persistent, so no
    /// speed-independent implementation exists).
    NotOutputPersistent {
        /// The disabled output transition label.
        disabled: String,
        /// The transition whose firing disabled it.
        by: String,
    },
    /// The STG has no output signals to synthesize.
    NoOutputs,
    /// Too many signals or places for the fixed-width internal
    /// encodings, or too many primes for synthesis.
    TooLarge {
        /// What overflowed (`"signals"`, `"places"` or `"primes"`).
        what: &'static str,
        /// The limit.
        limit: usize,
    },
    /// A netlist-level error surfaced during synthesis.
    Netlist(String),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            StgError::UnknownSignal(s) => write!(f, "unknown signal `{s}`"),
            StgError::NotSafe { transition } => {
                write!(f, "net is not safe when firing `{transition}`")
            }
            StgError::Inconsistent { transition } => {
                write!(f, "inconsistent signal values at `{transition}`")
            }
            StgError::TooManyStates(n) => write!(f, "state graph exceeds {n} states"),
            StgError::UscViolation { code } => {
                write!(f, "USC violation: two markings share code {code:b}")
            }
            StgError::CscViolation { signal, code } => {
                write!(f, "CSC violation on `{signal}` at code {code:b}")
            }
            StgError::InitialNotQuiescent { transition } => {
                write!(f, "output transition `{transition}` enabled at reset")
            }
            StgError::NotOutputPersistent { disabled, by } => {
                write!(f, "output transition `{disabled}` disabled by `{by}`")
            }
            StgError::NoOutputs => write!(f, "specification declares no output signals"),
            StgError::TooLarge { what, limit } => {
                write!(f, "too many {what} (limit {limit})")
            }
            StgError::Netlist(msg) => write!(f, "netlist construction failed: {msg}"),
        }
    }
}

impl Error for StgError {}

impl From<satpg_netlist::NetlistError> for StgError {
    fn from(e: satpg_netlist::NetlistError) -> Self {
        StgError::Netlist(e.to_string())
    }
}
