//! The workspace-wide error type.
//!
//! Every fallible operation across the SDG crates returns [`SdgResult`]. The
//! variants mirror the major subsystems so callers can match on the class of
//! failure without parsing strings.

use std::fmt;

/// Result alias used across the SDG workspace.
pub type SdgResult<T> = Result<T, SdgError>;

/// Errors produced by the SDG crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdgError {
    /// A value had an unexpected runtime type (e.g. `Int` where `Str` was
    /// required).
    Type {
        /// What the operation expected.
        expected: &'static str,
        /// What it actually found.
        found: &'static str,
    },
    /// Decoding a binary payload failed.
    Codec(String),
    /// Lexing or parsing a StateLang program failed.
    Parse {
        /// 1-based source line of the offending token.
        line: u32,
        /// 1-based source column of the offending token.
        col: u32,
        /// Human-readable description.
        message: String,
    },
    /// Semantic analysis of a StateLang program failed (unknown variable,
    /// annotation misuse, conflicting partitioning strategies, ...).
    Analysis {
        /// 1-based source line of the offending construct (0 when the
        /// violation has no single source position, e.g. recursion).
        line: u32,
        /// 1-based source column (0 when positionless).
        col: u32,
        /// Human-readable description.
        message: String,
    },
    /// Translating an analysed program into an SDG failed.
    Translate(String),
    /// The constructed SDG violates a structural invariant (e.g. a task
    /// element with access edges to two distinct state elements).
    InvalidGraph(String),
    /// A runtime request referenced an unknown element or instance.
    NotFound(String),
    /// The runtime engine failed (channel disconnect, worker panic, ...).
    Runtime(String),
    /// Checkpointing or recovery failed.
    Recovery(String),
    /// A backup-store I/O operation failed. `transient` errors are worth
    /// retrying with backoff; persistent ones are not.
    Io {
        /// Whether a retry may plausibly succeed.
        transient: bool,
        /// Human-readable description.
        message: String,
    },
    /// Interpreting task element code failed (division by zero, missing
    /// binding, ...).
    Eval(String),
    /// A state-structure operation was used inconsistently (e.g. conflicting
    /// partition strategies, out-of-range partition index).
    State(String),
    /// A configuration value was out of range or inconsistent.
    Config(String),
}

impl SdgError {
    /// Builds a [`SdgError::Type`] error.
    pub fn type_mismatch(expected: &'static str, found: &'static str) -> Self {
        SdgError::Type { expected, found }
    }

    /// Builds a [`SdgError::Parse`] error at the given source position.
    pub fn parse(line: u32, col: u32, message: impl Into<String>) -> Self {
        SdgError::Parse {
            line,
            col,
            message: message.into(),
        }
    }

    /// Builds a [`SdgError::Analysis`] error at the given source position
    /// (use `0, 0` when the violation has no single position).
    pub fn analysis(line: u32, col: u32, message: impl Into<String>) -> Self {
        SdgError::Analysis {
            line,
            col,
            message: message.into(),
        }
    }

    /// Builds a transient [`SdgError::Io`] error (worth retrying).
    pub fn io_transient(message: impl Into<String>) -> Self {
        SdgError::Io {
            transient: true,
            message: message.into(),
        }
    }

    /// `true` for errors that a bounded retry with backoff may clear.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SdgError::Io {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for SdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdgError::Type { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            SdgError::Codec(m) => write!(f, "codec error: {m}"),
            SdgError::Parse { line, col, message } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            SdgError::Analysis { line, col, message } => {
                if *line == 0 {
                    write!(f, "analysis error: {message}")
                } else {
                    write!(f, "analysis error at {line}:{col}: {message}")
                }
            }
            SdgError::Translate(m) => write!(f, "translation error: {m}"),
            SdgError::InvalidGraph(m) => write!(f, "invalid SDG: {m}"),
            SdgError::NotFound(m) => write!(f, "not found: {m}"),
            SdgError::Runtime(m) => write!(f, "runtime error: {m}"),
            SdgError::Recovery(m) => write!(f, "recovery error: {m}"),
            SdgError::Io { transient, message } => {
                let class = if *transient {
                    "transient"
                } else {
                    "persistent"
                };
                write!(f, "{class} I/O error: {message}")
            }
            SdgError::Eval(m) => write!(f, "evaluation error: {m}"),
            SdgError::State(m) => write!(f, "state error: {m}"),
            SdgError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}

impl std::error::Error for SdgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SdgError::type_mismatch("Int", "Str");
        assert_eq!(e.to_string(), "type error: expected Int, found Str");

        let e = SdgError::parse(3, 14, "unexpected token `@`");
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected token `@`");

        let e = SdgError::analysis(7, 9, "undefined variable `x`");
        assert_eq!(
            e.to_string(),
            "analysis error at 7:9: undefined variable `x`"
        );
        let e = SdgError::analysis(0, 0, "recursive call");
        assert_eq!(e.to_string(), "analysis error: recursive call");
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&SdgError::Runtime("boom".into()));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            SdgError::Codec("short read".into()),
            SdgError::Codec("short read".into())
        );
        assert_ne!(SdgError::Codec("a".into()), SdgError::analysis(0, 0, "a"));
    }
}
