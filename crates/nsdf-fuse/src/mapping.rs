//! Mapping packages: how files map onto objects.
//!
//! NSDF-FUSE (paper §III-B, ref \[3\]) studies "customizable mapping
//! packages" between a POSIX-ish file view and S3-compatible object
//! storage. The three mappings here reproduce the design space that work
//! explores:
//!
//! * **one-to-one** — each file is one object; simplest, but small-file
//!   workloads pay one WAN round-trip per file;
//! * **chunked** — each file is split into fixed-size chunk objects plus a
//!   manifest; enables ranged reads and parallel transfer of big files;
//! * **packed** — many files are appended into large pack objects with a
//!   shared index; amortises per-request overhead for small files.

use nsdf_util::{NsdfError, Result};

/// A file-to-object mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// One file ⇔ one object.
    OneToOne,
    /// Files split into `chunk_bytes` objects plus a manifest object.
    Chunked {
        /// Chunk size in bytes (must be positive).
        chunk_bytes: usize,
    },
    /// Files appended into pack objects of roughly `pack_target_bytes`.
    Packed {
        /// Pack flush threshold in bytes (must be positive).
        pack_target_bytes: usize,
    },
}

impl Mapping {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Mapping::OneToOne => Ok(()),
            Mapping::Chunked { chunk_bytes } if chunk_bytes > 0 => Ok(()),
            Mapping::Packed { pack_target_bytes } if pack_target_bytes > 0 => Ok(()),
            _ => Err(NsdfError::invalid("mapping parameter must be positive")),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mapping::OneToOne => "one-to-one",
            Mapping::Chunked { .. } => "chunked",
            Mapping::Packed { .. } => "packed",
        }
    }

    /// The default palette NSDF-FUSE-style benchmarks sweep.
    pub fn palette() -> Vec<Mapping> {
        vec![
            Mapping::OneToOne,
            Mapping::Chunked { chunk_bytes: 1 << 20 },
            Mapping::Packed { pack_target_bytes: 8 << 20 },
        ]
    }
}

/// Validate a virtual file path (same grammar as object keys).
pub(crate) fn validate_path(path: &str) -> Result<()> {
    nsdf_storage::validate_key(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palette_is_valid() {
        for m in Mapping::palette() {
            assert!(m.validate().is_ok(), "{}", m.name());
        }
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(Mapping::Chunked { chunk_bytes: 0 }.validate().is_err());
        assert!(Mapping::Packed { pack_target_bytes: 0 }.validate().is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Mapping::OneToOne.name(), "one-to-one");
        assert_eq!(Mapping::Chunked { chunk_bytes: 1 }.name(), "chunked");
        assert_eq!(Mapping::Packed { pack_target_bytes: 1 }.name(), "packed");
    }
}
