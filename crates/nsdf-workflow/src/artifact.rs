//! Artifact descriptors.
//!
//! The tutorial stresses modular workflows whose every step produces
//! inspectable artifacts (Figs. 3–4), and the group's related work (ref
//! \[16\]) argues for data traceability. A descriptor names one stored
//! object with its size and content checksum; the run report
//! ([`crate::graph::GraphRun`]) lists which task produced and consumed
//! which artifact, so a finished run can answer "where did this file come
//! from" and every entry can be checked against the object it names.

use nsdf_util::json::{hex_u64, parse_hex_u64, JsonValue};
use nsdf_util::{checksum64, Result};

/// Descriptor of one produced artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact name (unique within a run).
    pub name: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Content checksum.
    pub checksum: u64,
    /// Where the artifact lives (object key, path, or URL-ish string).
    pub location: String,
}

impl Artifact {
    /// Describe a byte payload stored at `location`.
    pub fn of_bytes(name: impl Into<String>, data: &[u8], location: impl Into<String>) -> Artifact {
        Artifact {
            name: name.into(),
            bytes: data.len() as u64,
            checksum: checksum64(data),
            location: location.into(),
        }
    }

    /// This artifact as a JSON object.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("bytes", self.bytes.into()),
            ("checksum", hex_u64(self.checksum)),
            ("location", self.location.as_str().into()),
            ("name", self.name.as_str().into()),
        ])
    }

    /// Parse one artifact from its [`Artifact::to_json`] form.
    pub(crate) fn from_json_value(v: &JsonValue) -> Result<Artifact> {
        Ok(Artifact {
            name: v.field("name")?.str_of("artifact.name")?.to_string(),
            bytes: v.field("bytes")?.u64_of("artifact.bytes")?,
            checksum: parse_hex_u64(v.field("checksum")?, "artifact.checksum")?,
            location: v.field("location")?.str_of("artifact.location")?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_constructors() {
        let a = Artifact::of_bytes("dem", b"payload", "store/dem.tif");
        assert_eq!(a.bytes, 7);
        assert_eq!(a.checksum, checksum64(b"payload"));
    }
}
