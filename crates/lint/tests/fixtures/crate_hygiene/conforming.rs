//! Fixture lib.rs: a fully wired public error enum.

use std::fmt;

/// Failure modes of the fixture crate.
#[derive(Debug)]
pub enum FixtureError {
    /// The input did not parse.
    Malformed,
    /// An index was out of range.
    OutOfRange,
}

impl fmt::Display for FixtureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixtureError::Malformed => write!(f, "the input did not parse"),
            FixtureError::OutOfRange => write!(f, "an index was out of range"),
        }
    }
}

impl std::error::Error for FixtureError {}
