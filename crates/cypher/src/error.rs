//! Query errors.

use std::fmt;

/// Errors raised while lexing, parsing, or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CypherError {
    /// Lexical error with byte position.
    Lex { pos: usize, msg: String },
    /// Parse error with token position and message.
    Parse { pos: usize, msg: String },
    /// Runtime error (type mismatch, unknown function, …).
    Runtime(String),
    /// The query was cancelled at a row boundary after exceeding its
    /// deadline (or being cancelled explicitly).
    Timeout {
        /// Wall-clock milliseconds the query had run when cancelled.
        after_ms: u64,
    },
}

impl CypherError {
    pub(crate) fn runtime(msg: impl Into<String>) -> Self {
        CypherError::Runtime(msg.into())
    }
}

impl fmt::Display for CypherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CypherError::Lex { pos, msg } => write!(f, "lex error at byte {pos}: {msg}"),
            CypherError::Parse { pos, msg } => write!(f, "parse error near token {pos}: {msg}"),
            CypherError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            CypherError::Timeout { after_ms } => write!(
                f,
                "timeout: query cancelled at a row boundary after {after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for CypherError {}

impl From<iyp_graph::GraphError> for CypherError {
    fn from(e: iyp_graph::GraphError) -> Self {
        CypherError::runtime(e.to_string())
    }
}
