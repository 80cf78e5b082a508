//! Workspace error type.
//!
//! A small hand-rolled error enum (the dependency budget excludes
//! `thiserror`). Variants cover the failure modes that cross crate
//! boundaries: malformed input graphs/keyword files, invalid query
//! parameters, and I/O.

use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, KtgError>;

/// Errors surfaced by the KTG workspace crates.
#[derive(Debug)]
pub enum KtgError {
    /// A query parameter is out of its valid domain (e.g. `p == 0`,
    /// `|W_Q| > 64`, keyword unknown to the vocabulary).
    InvalidQuery(String),
    /// Input data is malformed (edge list syntax, vertex out of range, ...).
    InvalidInput(String),
    /// An index was asked about a graph it was not built for.
    IndexMismatch(String),
    /// A draining server (`/drain`, until `/resume`) refused a query
    /// unsolved; a retry once it serves again can succeed.
    Overloaded(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for KtgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KtgError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            KtgError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            KtgError::IndexMismatch(msg) => write!(f, "index mismatch: {msg}"),
            KtgError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            KtgError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for KtgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KtgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KtgError {
    fn from(e: std::io::Error) -> Self {
        KtgError::Io(e)
    }
}

impl KtgError {
    /// Shorthand constructor for [`KtgError::InvalidQuery`].
    pub fn query(msg: impl Into<String>) -> Self {
        KtgError::InvalidQuery(msg.into())
    }

    /// Shorthand constructor for [`KtgError::InvalidInput`].
    pub fn input(msg: impl Into<String>) -> Self {
        KtgError::InvalidInput(msg.into())
    }

    /// Shorthand constructor for [`KtgError::Overloaded`].
    pub fn overloaded(msg: impl Into<String>) -> Self {
        KtgError::Overloaded(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_messages() {
        assert_eq!(
            KtgError::query("p must be >= 2").to_string(),
            "invalid query: p must be >= 2"
        );
        assert_eq!(
            KtgError::input("bad edge").to_string(),
            "invalid input: bad edge"
        );
    }

    #[test]
    fn io_source_is_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = KtgError::from(io);
        assert!(err.source().is_some());
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn non_io_has_no_source() {
        assert!(KtgError::query("x").source().is_none());
    }

    #[test]
    fn overloaded_display() {
        let err = KtgError::overloaded("shed while draining, until /resume");
        assert_eq!(err.to_string(), "overloaded: shed while draining, until /resume");
        assert!(err.source().is_none());
    }
}
