//! The `.idx` dataset header.
//!
//! Mirrors the role of OpenVisus's text `.idx` metadata file: logical
//! dimensions, the HZ bitmask, field descriptors, block sizing, codec, and
//! optional geo-referencing. Serialized through [`nsdf_util::Meta`] so the
//! header stays a human-readable text object next to the block data.

use nsdf_compress::Codec;
use nsdf_hz::BitMask;
use nsdf_util::{DType, GeoTransform, Meta, NsdfError, Result};

/// Current header format version.
pub(crate) const IDX_VERSION: u32 = 1;

/// One named field (variable) of the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (e.g. `"elevation"`).
    pub name: String,
    /// Sample type.
    pub dtype: DType,
}

impl Field {
    /// Construct a field, validating the name.
    pub fn new(name: impl Into<String>, dtype: DType) -> Result<Field> {
        let name = name.into();
        if name.is_empty()
            || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(NsdfError::invalid(format!("bad field name {name:?}")));
        }
        Ok(Field { name, dtype })
    }
}

/// Complete dataset description.
#[derive(Debug, Clone, PartialEq)]
pub struct IdxMeta {
    /// Dataset display name.
    pub name: String,
    /// Logical grid dimensions (x, y) or (x, y, z), possibly
    /// non-power-of-two.
    pub dims: Vec<u64>,
    /// HZ interleaving mask (covers the padded power-of-two grid).
    pub bitmask: BitMask,
    /// Fields stored per timestep.
    pub fields: Vec<Field>,
    /// log2 of samples per block.
    pub bits_per_block: u32,
    /// Codec applied to each block.
    pub codec: Codec,
    /// Number of timesteps.
    pub timesteps: u32,
    /// Optional geo-referencing of the full-resolution grid.
    pub geo: Option<GeoTransform>,
}

impl IdxMeta {
    /// Build metadata for a 2-D (`[width, height]`) or 3-D
    /// (`[width, height, depth]`) dataset, deriving the bitmask from `dims`.
    pub fn new(
        name: impl Into<String>,
        dims: &[u64],
        fields: Vec<Field>,
        bits_per_block: u32,
        codec: Codec,
    ) -> Result<IdxMeta> {
        let meta = IdxMeta {
            name: name.into(),
            dims: dims.to_vec(),
            bitmask: BitMask::for_dims(dims)?,
            fields,
            bits_per_block,
            codec,
            timesteps: 1,
            geo: None,
        };
        meta.validate()?;
        Ok(meta)
    }

    /// [`IdxMeta::new`] for a `width` x `height` grid.
    pub fn new_2d(
        name: impl Into<String>,
        width: u64,
        height: u64,
        fields: Vec<Field>,
        bits_per_block: u32,
        codec: Codec,
    ) -> Result<IdxMeta> {
        IdxMeta::new(name, &[width, height], fields, bits_per_block, codec)
    }

    /// The one consistency check of a header, whoever built it
    /// ([`IdxMeta::new`], [`IdxMeta::from_text`], or a caller editing the
    /// public fields before `IdxDataset::create`): every block-size, shape
    /// and address computation downstream relies on it.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.fields.is_empty() {
            return Err(NsdfError::invalid("dataset needs at least one field"));
        }
        if !(4..=28).contains(&self.bits_per_block) {
            return Err(NsdfError::invalid("bits_per_block must be in 4..=28"));
        }
        if self.timesteps == 0 {
            return Err(NsdfError::invalid("timesteps must be positive"));
        }
        if !(2..=3).contains(&self.dims.len()) {
            return Err(NsdfError::invalid("a dataset has 2 or 3 dims"));
        }
        if self.bitmask != BitMask::for_dims(&self.dims)? {
            return Err(NsdfError::invalid("bitmask does not match dims"));
        }
        Ok(())
    }

    /// Builder: set the number of timesteps.
    pub fn with_timesteps(mut self, t: u32) -> Result<IdxMeta> {
        self.timesteps = t;
        self.validate()?;
        Ok(self)
    }

    /// Builder: attach geo-referencing.
    pub fn with_geo(mut self, geo: GeoTransform) -> IdxMeta {
        self.geo = Some(geo);
        self
    }

    /// Samples per block.
    pub fn block_samples(&self) -> u64 {
        1u64 << self.bits_per_block
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| NsdfError::not_found(format!("field {name:?}")))
    }

    /// Total number of blocks per (field, timestep), including blocks that
    /// fall entirely in the power-of-two padding.
    pub fn blocks_per_field(&self) -> u64 {
        let total = 1u64 << self.bitmask.num_bits();
        total.div_ceil(self.block_samples())
    }

    /// Serialize to the text header format.
    pub fn to_text(&self) -> String {
        let mut m = Meta::new();
        let set = |m: &mut Meta, k: &str, v: String| {
            m.set(k, v).expect("valid metadata key/value");
        };
        set(&mut m, "version", IDX_VERSION.to_string());
        set(&mut m, "name", self.name.clone());
        set(&mut m, "dims", self.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" "));
        set(&mut m, "bitmask", self.bitmask.to_text());
        set(
            &mut m,
            "fields",
            self.fields
                .iter()
                .map(|f| format!("{}:{}", f.name, f.dtype))
                .collect::<Vec<_>>()
                .join(" "),
        );
        set(&mut m, "bits_per_block", self.bits_per_block.to_string());
        set(&mut m, "codec", self.codec.name());
        set(&mut m, "timesteps", self.timesteps.to_string());
        if let Some(g) = self.geo {
            set(&mut m, "geo", format!("{} {} {} {}", g.x0, g.y0, g.dx, g.dy));
        }
        m.to_text()
    }

    /// Parse a header produced by [`IdxMeta::to_text`].
    pub fn from_text(text: &str) -> Result<IdxMeta> {
        let m = Meta::from_text(text)?;
        let version: u32 = m.get_parsed("version")?;
        if version != IDX_VERSION {
            return Err(NsdfError::format(format!("unsupported idx version {version}")));
        }
        let dims: Vec<u64> = m.get_list("dims")?;
        let bitmask = BitMask::parse(m.require("bitmask")?)?;
        let mut fields = Vec::new();
        for tok in m.require("fields")?.split_whitespace() {
            let (name, dt) = tok
                .split_once(':')
                .ok_or_else(|| NsdfError::format(format!("bad field descriptor {tok:?}")))?;
            fields.push(Field::new(name, DType::parse(dt)?)?);
        }
        let geo = match m.get("geo") {
            None => None,
            Some(_) => {
                let v: Vec<f64> = m.get_list("geo")?;
                if v.len() != 4 {
                    return Err(NsdfError::format("geo must have 4 numbers"));
                }
                Some(GeoTransform { x0: v[0], y0: v[1], dx: v[2], dy: v[3] })
            }
        };
        let meta = IdxMeta {
            name: m.require("name")?.to_string(),
            dims,
            bitmask,
            fields,
            bits_per_block: m.get_parsed("bits_per_block")?,
            codec: Codec::parse(m.require("codec")?)?,
            timesteps: m.get_parsed("timesteps")?,
            geo,
        };
        meta.validate()?;
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> IdxMeta {
        IdxMeta::new_2d(
            "conus-elevation",
            4096,
            2160,
            vec![
                Field::new("elevation", DType::F32).unwrap(),
                Field::new("slope", DType::F32).unwrap(),
            ],
            14,
            Codec::ShuffleLzss { sample_size: 4 },
        )
        .unwrap()
        .with_timesteps(3)
        .unwrap()
        .with_geo(GeoTransform::north_up(-125.0, 49.0, 0.0003))
    }

    #[test]
    fn text_roundtrip() {
        let meta = sample_meta();
        let text = meta.to_text();
        let back = IdxMeta::from_text(&text).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn derived_quantities() {
        let meta = sample_meta();
        assert_eq!(meta.block_samples(), 16384);
        // Padded grid 4096x4096 = 2^24 addresses / 2^14 per block = 1024.
        assert_eq!(meta.blocks_per_field(), 1024);
        assert_eq!(meta.field_index("slope").unwrap(), 1);
        assert!(meta.field_index("aspect").unwrap_err().is_not_found());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(Field::new("", DType::F32).is_err());
        assert!(Field::new("has space", DType::F32).is_err());
        assert!(IdxMeta::new_2d("x", 16, 16, vec![], 14, Codec::Raw).is_err());
        let f = vec![Field::new("v", DType::F32).unwrap()];
        assert!(IdxMeta::new_2d("x", 16, 16, f.clone(), 2, Codec::Raw).is_err());
        assert!(IdxMeta::new_2d("x", 16, 16, f.clone(), 29, Codec::Raw).is_err());
        assert!(IdxMeta::new("x", &[16], f.clone(), 6, Codec::Raw).is_err());
        assert!(IdxMeta::new("x", &[16, 16, 16, 16], f.clone(), 6, Codec::Raw).is_err());
        assert!(IdxMeta::new("x", &[16, 0, 4], f.clone(), 6, Codec::Raw).is_err());
        let cube = IdxMeta::new("x", &[16, 16, 4], f.clone(), 6, Codec::Raw).unwrap();
        assert_eq!(cube.bitmask, BitMask::for_dims(&[16, 16, 4]).unwrap());
        let ok = IdxMeta::new_2d("x", 16, 16, f, 14, Codec::Raw).unwrap();
        assert!(ok.with_timesteps(0).is_err());
    }

    #[test]
    fn parse_rejects_malformed_headers() {
        assert!(IdxMeta::from_text("version=99\n").is_err());
        assert!(IdxMeta::from_text("").is_err());
        let text = sample_meta().to_text();
        // Each edit is a forged `dataset.idx`: every one of them must be an
        // error here, before a dataset computes block sizes from it.
        for (from, to) in [
            ("float32", "float99"),
            ("bits_per_block=14", "bits_per_block=64"),
            ("bits_per_block=14", "bits_per_block=63"),
            ("bits_per_block=14", "bits_per_block=3"),
            ("timesteps=3", "timesteps=0"),
            ("fields=elevation:float32 slope:float32", "fields="),
            ("dims=4096 2160", "dims=4096"),
            ("dims=4096 2160", "dims=4096 2160 8 8"),
            ("dims=4096 2160", "dims=4096 9000"),
            ("dims=4096 2160", "dims=4096 2160 2"),
        ] {
            assert!(text.contains(from), "{from:?} not in the header");
            let forged = text.replace(from, to);
            assert!(IdxMeta::from_text(&forged).is_err(), "accepted {to:?}");
        }
    }

    #[test]
    fn adaptive_codec_roundtrips_through_header_text() {
        let mut meta = sample_meta();
        meta.codec = Codec::Adaptive { sample_size: 4 };
        let text = meta.to_text();
        assert!(text.contains("codec=adaptive4"));
        let back = IdxMeta::from_text(&text).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.codec, Codec::Adaptive { sample_size: 4 });
    }

    #[test]
    fn header_is_human_readable() {
        let text = sample_meta().to_text();
        assert!(text.contains("bitmask=V"));
        assert!(text.contains("fields=elevation:float32 slope:float32"));
        assert!(text.contains("codec=shuffle4-lzss"));
    }
}
