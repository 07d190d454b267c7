//! Error types for prefix parsing and construction.

use core::fmt;

/// Errors produced when constructing or parsing a [`crate::Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length above 32.
    LengthOutOfRange(u8),
    /// The textual form was not `a.b.c.d/len`.
    Malformed(String),
    /// The address part did not parse as an IPv4 dotted quad.
    BadAddress(String),
    /// The length part did not parse as an integer.
    BadLength(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(len) => {
                write!(f, "prefix length {len} out of range (max 32)")
            }
            PrefixError::Malformed(s) => write!(f, "malformed prefix {s:?}: expected a.b.c.d/len"),
            PrefixError::BadAddress(s) => write!(f, "bad IPv4 address {s:?}"),
            PrefixError::BadLength(s) => write!(f, "bad prefix length {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(PrefixError::LengthOutOfRange(40).to_string().contains("40"));
        assert!(PrefixError::Malformed("x".into())
            .to_string()
            .contains("a.b.c.d/len"));
        assert!(PrefixError::BadAddress("1.2.3".into())
            .to_string()
            .contains("1.2.3"));
        assert!(PrefixError::BadLength("zz".into())
            .to_string()
            .contains("zz"));
    }
}
