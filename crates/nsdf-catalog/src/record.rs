//! Catalog records: the lightweight per-object metadata NSDF-Catalog
//! indexes (paper §III-B: "a centralized repository that indexes over
//! 1.59 billion records").

use nsdf_util::{NsdfError, Result};

/// One indexed data object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Unique record id.
    pub id: u64,
    /// Object name (path-like, searchable by prefix).
    pub name: String,
    /// Source repository (e.g. `"materials-commons"`, `"dataverse"`).
    pub source: String,
    /// Object size in bytes.
    pub size: u64,
    /// Content checksum, used for cross-repository duplicate detection.
    pub checksum: u64,
}

impl Record {
    /// Construct with validation.
    pub fn new(
        id: u64,
        name: impl Into<String>,
        source: impl Into<String>,
        size: u64,
        checksum: u64,
    ) -> Result<Record> {
        let name = name.into();
        let source = source.into();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(NsdfError::invalid(format!("bad record name {name:?}")));
        }
        if source.is_empty() || source.contains(char::is_whitespace) {
            return Err(NsdfError::invalid(format!("bad record source {source:?}")));
        }
        Ok(Record { id, name, source, size, checksum })
    }

    /// One-line log serialization (whitespace-separated, stable order).
    pub fn to_line(&self) -> String {
        format!("{} {} {} {} {:016x}", self.id, self.source, self.size, self.name, self.checksum)
    }

    /// Append the compact binary encoding used inside sorted segments:
    /// `size u64 · checksum u64 · name_len u16 · name · source_len u16 ·
    /// source`, all little-endian. The id lives in the segment's sorted id
    /// column, not here.
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) -> Result<()> {
        if self.name.len() > u16::MAX as usize || self.source.len() > u16::MAX as usize {
            return Err(NsdfError::invalid(format!("record {} name/source too long", self.id)));
        }
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.source.len() as u16).to_le_bytes());
        out.extend_from_slice(self.source.as_bytes());
        Ok(())
    }

    /// Decode a body written by [`Record::encode_body`] for the given id.
    pub(crate) fn decode_body(id: u64, buf: &[u8]) -> Result<Record> {
        let err = || NsdfError::corrupt(format!("truncated record body for id {id}"));
        let take = |buf: &[u8], pos: &mut usize, n: usize| -> Result<Vec<u8>> {
            let end = pos.checked_add(n).ok_or_else(err)?;
            let out = buf.get(*pos..end).ok_or_else(err)?.to_vec();
            *pos = end;
            Ok(out)
        };
        let mut pos = 0usize;
        let size = u64::from_le_bytes(take(buf, &mut pos, 8)?.try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(take(buf, &mut pos, 8)?.try_into().expect("8 bytes"));
        let name_len = u16::from_le_bytes(take(buf, &mut pos, 2)?.try_into().expect("2 bytes"));
        let name = String::from_utf8(take(buf, &mut pos, name_len as usize)?)
            .map_err(|_| NsdfError::corrupt("record name not UTF-8"))?;
        let src_len = u16::from_le_bytes(take(buf, &mut pos, 2)?.try_into().expect("2 bytes"));
        let source = String::from_utf8(take(buf, &mut pos, src_len as usize)?)
            .map_err(|_| NsdfError::corrupt("record source not UTF-8"))?;
        if pos != buf.len() {
            return Err(NsdfError::corrupt(format!("trailing bytes in record body for id {id}")));
        }
        Record::new(id, name, source, size, checksum)
    }

    /// Approximate in-memory footprint, used for memtable budgeting.
    pub fn approx_bytes(&self) -> usize {
        48 + self.name.len() + self.source.len()
    }

    /// Parse a line produced by [`Record::to_line`].
    pub(crate) fn from_line(line: &str) -> Result<Record> {
        let mut it = line.split_whitespace();
        let (Some(id), Some(source), Some(size), Some(name), Some(ck), None) =
            (it.next(), it.next(), it.next(), it.next(), it.next(), it.next())
        else {
            return Err(NsdfError::corrupt(format!("bad record line {line:?}")));
        };
        Record::new(
            id.parse().map_err(|_| NsdfError::corrupt("bad record id"))?,
            name,
            source,
            size.parse().map_err(|_| NsdfError::corrupt("bad record size"))?,
            u64::from_str_radix(ck, 16).map_err(|_| NsdfError::corrupt("bad checksum"))?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_roundtrip() {
        let r =
            Record::new(42, "soil/moisture/t01.idx", "dataverse", 1_234_567, 0xdeadbeef).unwrap();
        let back = Record::from_line(&r.to_line()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn validation() {
        assert!(Record::new(1, "", "s", 0, 0).is_err());
        assert!(Record::new(1, "has space", "s", 0, 0).is_err());
        assert!(Record::new(1, "n", "two words", 0, 0).is_err());
    }

    #[test]
    fn binary_body_roundtrip() {
        let r =
            Record::new(9, "geo/dem/tile-007.tif", "materials-commons", 88_001, 0xfeed).unwrap();
        let mut buf = Vec::new();
        r.encode_body(&mut buf).unwrap();
        assert_eq!(Record::decode_body(9, &buf).unwrap(), r);
        // Truncations and trailing garbage are structured corruption.
        for cut in [0, 1, 17, buf.len() - 1] {
            assert!(Record::decode_body(9, &buf[..cut]).unwrap_err().is_corrupt());
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(Record::decode_body(9, &long).unwrap_err().is_corrupt());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(Record::from_line("only three fields").is_err());
        assert!(Record::from_line("x src 10 name ff").is_err());
        assert!(Record::from_line("1 src ten name ff").is_err());
        assert!(Record::from_line("1 src 10 name zz-not-hex").is_err());
    }
}
