//! # nsdf-compress
//!
//! From-scratch compression codecs covering the roles the paper assigns to
//! ZIP/ZLIB, LZ4, and ZFP in the OpenVisus data stack (§III-A, §IV-B):
//!
//! * [`rle`] — PackBits run-length coding (also used by the TIFF writer);
//! * `lzss` — LZ77/LZSS with hash chains, the "zlib-class" codec;
//! * `lz4like` — token-format fast byte LZ, the "lz4-class" codec;
//! * `filter` — byte shuffle and delta pre-filters for float rasters;
//! * `huffman` — canonical Huffman entropy stage ("zlib" pipeline tail);
//! * `planes` — shuffle + delta, then one entropy body per byte plane:
//!   the float-native lossless codec adaptive blocks use;
//! * `fixedrate` — block fixed-rate lossy float codec, the "zfp-class"
//!   codec with a precision-bits knob;
//! * [`adaptive`] — per-block framing (`planes`, or raw when that does
//!   not shrink the block) behind a self-describing block header;
//! * [`codec`] — the unified [`Codec`] palette with stable textual names;
//! * `bits` — MSB-first bit I/O under the Huffman and fixed-rate codecs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod bits;
pub mod codec;
mod filter;
mod fixedrate;
mod huffman;
mod lz4like;
mod lzss;
mod matchfinder;
mod planes;
pub mod rle;

pub use adaptive::AdaptiveCodec;
pub use codec::{Codec, CompressionStats};
