//! Model validation errors.

use std::error::Error;
use std::fmt;

/// Errors raised by [`SystemModel::elaborate`](crate::SystemModel::elaborate).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A declared function was never mapped to hardware or a processor.
    UnmappedFunction {
        /// The function's name.
        function: String,
    },
    /// A function was mapped to a processor that was never declared.
    UnknownProcessor {
        /// The function's name.
        function: String,
        /// The missing processor's name.
        processor: String,
    },
    /// A script names a relation the model does not declare, or declares
    /// with another kind.
    UnknownRelation {
        /// The function's name.
        function: String,
        /// The relation's name.
        relation: String,
        /// The kind the instruction needs: `event`, `queue` or
        /// `shared-variable`.
        kind: &'static str,
    },
    /// A script has a `Forever` loop with an empty body, which could never
    /// make progress.
    EmptyForever {
        /// The function's name.
        function: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnmappedFunction { function } => {
                write!(f, "function `{function}` has no mapping")
            }
            ModelError::UnknownProcessor {
                function,
                processor,
            } => write!(
                f,
                "function `{function}` is mapped to undeclared processor `{processor}`"
            ),
            ModelError::UnknownRelation {
                function,
                relation,
                kind,
            } => write!(
                f,
                "function `{function}` names no declared {kind} relation `{relation}`"
            ),
            ModelError::EmptyForever { function } => {
                write!(
                    f,
                    "function `{function}` has a `Forever` with an empty body"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::UnmappedFunction {
            function: "F1".into(),
        };
        assert_eq!(e.to_string(), "function `F1` has no mapping");
        let e = ModelError::UnknownProcessor {
            function: "F1".into(),
            processor: "CPU9".into(),
        };
        assert!(e.to_string().contains("CPU9"));
    }
}
