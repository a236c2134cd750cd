//! Error type for the solver.

use std::fmt;

/// Errors surfaced by Omega-test operations.
///
/// The solver never panics on valid inputs: coefficient growth and
/// combinatorial explosion are reported through this type instead.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Intermediate arithmetic exceeded `i64`.
    Overflow,
    /// The search exceeded its work budget (e.g. pathological splintering).
    TooComplex {
        /// The budget (in elementary solver steps) that was exhausted.
        budget: usize,
    },
    /// A formula nests connectives and quantifiers deeper than the
    /// formula layer follows (negating projections whose pieces keep
    /// existentials can regress without bound).
    TooDeep {
        /// The nesting-depth limit that was exceeded.
        depth: usize,
    },
    /// An operation mixed problems with incompatible variable tables.
    SpaceMismatch,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Overflow => write!(f, "integer overflow in constraint arithmetic"),
            Error::TooComplex { budget } => {
                write!(f, "work budget of {budget} solver steps exhausted")
            }
            Error::TooDeep { depth } => {
                write!(f, "formula nesting depth limit of {depth} exceeded")
            }
            Error::SpaceMismatch => {
                write!(f, "operands do not share a variable table")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        for e in [
            Error::Overflow,
            Error::TooComplex { budget: 10 },
            Error::TooDeep { depth: 64 },
            Error::SpaceMismatch,
        ] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
