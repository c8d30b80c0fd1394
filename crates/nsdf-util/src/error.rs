//! Unified error type shared by every crate in the `nsdf-rs` workspace.
//!
//! The stack spans file formats, simulated networks, and numerical kernels,
//! so the error type enumerates the failure classes a caller can actually
//! react to rather than exposing source-crate internals.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, NsdfError>;

/// Error type for all `nsdf-rs` operations.
#[derive(Debug)]
pub enum NsdfError {
    /// Underlying I/O failure (filesystem-backed stores, format readers).
    Io(std::io::Error),
    /// A file or stream did not conform to its declared format.
    Format(String),
    /// A named object, dataset, field, or record does not exist.
    NotFound(String),
    /// Caller supplied an argument outside the valid domain.
    InvalidArg(String),
    /// Stored data failed an integrity check (checksum, bounds, magic).
    Corrupt(String),
    /// The operation is valid but not supported by this implementation.
    Unsupported(String),
}

impl fmt::Display for NsdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsdfError::Io(e) => write!(f, "i/o error: {e}"),
            NsdfError::Format(m) => write!(f, "format error: {m}"),
            NsdfError::NotFound(m) => write!(f, "not found: {m}"),
            NsdfError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            NsdfError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            NsdfError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for NsdfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NsdfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NsdfError {
    fn from(e: std::io::Error) -> Self {
        NsdfError::Io(e)
    }
}

impl NsdfError {
    /// Convenience constructor for [`NsdfError::Format`].
    pub fn format(msg: impl Into<String>) -> Self {
        NsdfError::Format(msg.into())
    }

    /// Convenience constructor for [`NsdfError::NotFound`].
    pub fn not_found(msg: impl Into<String>) -> Self {
        NsdfError::NotFound(msg.into())
    }

    /// Convenience constructor for [`NsdfError::InvalidArg`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        NsdfError::InvalidArg(msg.into())
    }

    /// Convenience constructor for [`NsdfError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        NsdfError::Corrupt(msg.into())
    }

    /// Convenience constructor for [`NsdfError::Unsupported`].
    pub fn unsupported(msg: impl Into<String>) -> Self {
        NsdfError::Unsupported(msg.into())
    }

    /// True when the error represents a missing object rather than a fault.
    pub fn is_not_found(&self) -> bool {
        matches!(self, NsdfError::NotFound(_))
    }

    /// True when stored data failed an integrity check (bad block headers,
    /// truncated codec streams, checksum mismatches).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, NsdfError::Corrupt(_))
    }

    /// Produce an equivalent error preserving the variant and message.
    ///
    /// `NsdfError` is not `Clone` because `std::io::Error` is not, but the
    /// single-flight cache must hand one fetch failure to every waiter.
    /// The replica of an [`NsdfError::Io`] keeps the original `ErrorKind`
    /// and message; all other variants are reproduced exactly, so
    /// classification helpers like [`NsdfError::is_not_found`] agree
    /// between the original and the replica.
    pub fn replicate(&self) -> NsdfError {
        match self {
            NsdfError::Io(e) => NsdfError::Io(std::io::Error::new(e.kind(), e.to_string())),
            NsdfError::Format(m) => NsdfError::Format(m.clone()),
            NsdfError::NotFound(m) => NsdfError::NotFound(m.clone()),
            NsdfError::InvalidArg(m) => NsdfError::InvalidArg(m.clone()),
            NsdfError::Corrupt(m) => NsdfError::Corrupt(m.clone()),
            NsdfError::Unsupported(m) => NsdfError::Unsupported(m.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_class_and_message() {
        let e = NsdfError::format("bad magic");
        assert_eq!(e.to_string(), "format error: bad magic");
        let e = NsdfError::not_found("blob 7");
        assert_eq!(e.to_string(), "not found: blob 7");
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::other("disk on fire");
        let e: NsdfError = io.into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn is_not_found_discriminates() {
        assert!(NsdfError::not_found("x").is_not_found());
        assert!(!NsdfError::invalid("x").is_not_found());
    }

    #[test]
    fn is_corrupt_discriminates() {
        assert!(NsdfError::corrupt("x").is_corrupt());
        assert!(!NsdfError::format("x").is_corrupt());
    }

    #[test]
    fn replicate_preserves_variant_and_message() {
        let nf = NsdfError::not_found("block 9");
        let r = nf.replicate();
        assert!(r.is_not_found());
        assert_eq!(r.to_string(), nf.to_string());

        let io = NsdfError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "stream dropped",
        ));
        match io.replicate() {
            NsdfError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset);
                assert!(e.to_string().contains("stream dropped"));
            }
            other => panic!("expected Io, got {other}"),
        }

        for e in [
            NsdfError::format("f"),
            NsdfError::invalid("i"),
            NsdfError::corrupt("c"),
            NsdfError::unsupported("u"),
        ] {
            assert_eq!(e.replicate().to_string(), e.to_string());
        }
    }
}
