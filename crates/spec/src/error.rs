//! Error type for spec construction and (de)serialization.

use std::error::Error;
use std::fmt;

/// Errors produced when building or decoding machine specs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// JSON text could not be parsed.
    Json {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A required field was absent from a JSON object.
    MissingField {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field held a value of the wrong JSON type or range.
    InvalidField {
        /// Dotted path of the offending field.
        field: String,
        /// What was expected.
        expected: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            SpecError::MissingField { field } => write!(f, "missing field '{field}'"),
            SpecError::InvalidField { field, expected } => {
                write!(f, "field '{field}' is invalid: expected {expected}")
            }
        }
    }
}

impl Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = SpecError::MissingField {
            field: "chip.name".into(),
        };
        assert!(e.to_string().contains("chip.name"));
        let e = SpecError::InvalidField {
            field: "fleet_chips".into(),
            expected: "number".into(),
        };
        assert!(e.to_string().contains("number"));
        let e = SpecError::Json {
            offset: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("byte 3"));
    }
}
