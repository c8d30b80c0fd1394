//! Catalog records: the lightweight per-object metadata NSDF-Catalog
//! indexes (paper §III-B: "a centralized repository that indexes over
//! 1.59 billion records").

use nsdf_util::{NsdfError, Result};
use std::fmt;

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

/// The log line of [`Record::to_line`].
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {} {:016x}", self.id, self.source, self.size, self.name, self.checksum)
    }
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
        let record = Record { id, name: name.into(), source: source.into(), size, checksum };
        record.check()?;
        Ok(record)
    }

    /// The checks of [`Record::new`], for a record built field by field:
    /// name and source are non-empty, whitespace-free and short enough for
    /// the segment encoding. The catalog runs it on every record before
    /// logging or staging it, since a record its log or segments cannot
    /// hold would be acknowledged and then lost.
    pub(crate) fn check(&self) -> Result<()> {
        for (what, text) in [("name", &self.name), ("source", &self.source)] {
            if !is_token(text) || text.len() > u16::MAX as usize {
                return Err(NsdfError::invalid(format!("bad record {what} {text:?}")));
            }
        }
        Ok(())
    }

    /// One-line log serialization (whitespace-separated, stable order).
    pub fn to_line(&self) -> String {
        self.to_string()
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

/// True for a valid name or source: not empty, no `char::is_whitespace`.
/// ASCII text, the common case, is scanned bytewise, which is faster.
fn is_token(text: &str) -> bool {
    let spaced = if text.is_ascii() {
        text.bytes().any(|b| matches!(b, b' ' | b'\t'..=b'\r'))
    } else {
        text.contains(char::is_whitespace)
    };
    !text.is_empty() && !spaced
}

/// A record read in place from a body [`Record::encode_body`] wrote: no
/// allocation, and every check of [`Record::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordRef<'a> {
    pub id: u64,
    pub name: &'a str,
    pub source: &'a str,
    pub size: u64,
    pub checksum: u64,
}

impl<'a> RecordRef<'a> {
    /// Parse the body of record `id`; any bad length, byte or text is
    /// [`NsdfError::Corrupt`], since only damage puts one in a segment.
    pub(crate) fn parse(id: u64, body: &'a [u8]) -> Result<RecordRef<'a>> {
        let truncated = || NsdfError::corrupt(format!("truncated record body for id {id}"));
        let mut rest = body;
        let mut take = |n: usize| -> Result<&'a [u8]> {
            let (head, tail) = rest.split_at_checked(n).ok_or_else(truncated)?;
            rest = tail;
            Ok(head)
        };
        let size = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let mut text = |what: &str| -> Result<&'a str> {
            let len = u16::from_le_bytes(take(2)?.try_into().expect("2 bytes"));
            let text = std::str::from_utf8(take(len as usize)?)
                .map_err(|_| NsdfError::corrupt(format!("record {what} not UTF-8")))?;
            if !is_token(text) {
                return Err(NsdfError::corrupt(format!("bad record {what} {text:?} for id {id}")));
            }
            Ok(text)
        };
        let (name, source) = (text("name")?, text("source")?);
        if !rest.is_empty() {
            return Err(NsdfError::corrupt(format!("trailing bytes in record body for id {id}")));
        }
        Ok(RecordRef { id, name, source, size, checksum })
    }

    /// The owned record.
    pub(crate) fn to_owned(self) -> Record {
        let RecordRef { id, name, source, size, checksum } = self;
        Record { id, name: name.to_owned(), source: source.to_owned(), size, checksum }
    }
}

impl<'a> From<&'a Record> for RecordRef<'a> {
    fn from(r: &'a Record) -> RecordRef<'a> {
        RecordRef { id: r.id, name: &r.name, source: &r.source, size: r.size, checksum: r.checksum }
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
        assert!(Record::new(1, "n".repeat(1 << 16), "s", 0, 0).is_err());
        assert!(Record::new(1, "n".repeat(u16::MAX as usize), "s", 0, 0).is_ok());
    }

    #[test]
    fn binary_body_roundtrip() {
        let r =
            Record::new(9, "geo/dem/tile-007.tif", "materials-commons", 88_001, 0xfeed).unwrap();
        let mut buf = Vec::new();
        r.encode_body(&mut buf).unwrap();
        assert_eq!(RecordRef::parse(9, &buf).unwrap().to_owned(), r);
        assert_eq!(RecordRef::parse(9, &buf).unwrap(), RecordRef::from(&r));
        // Truncations and trailing garbage are structured corruption.
        for cut in [0, 1, 17, buf.len() - 1] {
            assert!(RecordRef::parse(9, &buf[..cut]).unwrap_err().is_corrupt());
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(RecordRef::parse(9, &long).unwrap_err().is_corrupt());
    }

    #[test]
    fn tokens_reject_exactly_what_char_is_whitespace_does() {
        for c in (0..0x3000u32).filter_map(char::from_u32) {
            for text in [c.to_string(), format!("a{c}b")] {
                let want = !text.contains(char::is_whitespace);
                assert_eq!(is_token(&text), want, "{text:?}");
            }
        }
        assert!(!is_token(""));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(Record::from_line("only three fields").is_err());
        assert!(Record::from_line("x src 10 name ff").is_err());
        assert!(Record::from_line("1 src ten name ff").is_err());
        assert!(Record::from_line("1 src 10 name zz-not-hex").is_err());
    }
}
