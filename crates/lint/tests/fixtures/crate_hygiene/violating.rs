//! Fixture lib.rs: a public error enum with neither `Display` nor
//! `std::error::Error`.

/// Failure modes of the fixture crate.
pub enum FixtureError {
    /// The input did not parse.
    Malformed,
    /// An index was out of range.
    OutOfRange,
}
