//! IDX-style bit masks describing how axes interleave in the Z address.
//!
//! A mask is written `V` followed by one digit per address bit, **most
//! significant first**; digit `d` means that bit splits axis `d`. This is
//! the same convention as OpenVisus `.idx` files (`V0101...`), and is what
//! lets IDX handle rectangular, non-square grids: the longer axis simply
//! owns more mask positions.

use nsdf_util::{NsdfError, Result};

/// Maximum number of axes a mask may reference.
pub(crate) const MAX_AXES: usize = 3;

/// An interleaving pattern for up to `MAX_AXES` (3) axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    /// Axis for each address bit, most significant first.
    axes_msb_first: Vec<u8>,
    /// Number of mask positions owned by each axis.
    bits_per_axis: [u32; MAX_AXES],
}

impl BitMask {
    /// Parse a textual mask such as `"V01010"`.
    pub fn parse(s: &str) -> Result<Self> {
        let body = s
            .strip_prefix('V')
            .ok_or_else(|| NsdfError::format(format!("bitmask {s:?} must start with 'V'")))?;
        if body.is_empty() {
            return Err(NsdfError::format("bitmask has no bits"));
        }
        if body.len() > 62 {
            return Err(NsdfError::format("bitmask longer than 62 bits"));
        }
        let mut axes = Vec::with_capacity(body.len());
        let mut bits = [0u32; MAX_AXES];
        for c in body.chars() {
            let a = c
                .to_digit(10)
                .filter(|&d| (d as usize) < MAX_AXES)
                .ok_or_else(|| NsdfError::format(format!("bad bitmask digit {c:?}")))?
                as u8;
            bits[a as usize] += 1;
            axes.push(a);
        }
        Ok(BitMask { axes_msb_first: axes, bits_per_axis: bits })
    }

    /// Build the canonical mask for a grid of the given dimensions
    /// (each padded up to a power of two).
    ///
    /// Bits are assigned from the finest (least significant) position
    /// upwards, cycling through axes in order (`x` fastest), skipping axes
    /// that have exhausted their bits. Leftover coarse bits therefore land
    /// on the larger dimensions, which is what keeps coarse levels roughly
    /// isotropic.
    pub fn for_dims(dims: &[u64]) -> Result<Self> {
        if dims.is_empty() || dims.len() > MAX_AXES {
            return Err(NsdfError::invalid(format!(
                "bitmask supports 1..={MAX_AXES} dims, got {}",
                dims.len()
            )));
        }
        if dims.contains(&0) {
            return Err(NsdfError::invalid("zero-sized dimension"));
        }
        let mut remaining: Vec<u32> = dims.iter().map(|&d| ceil_log2(d)).collect();
        let total: u32 = remaining.iter().sum();
        if total > 62 {
            return Err(NsdfError::invalid("grid too large: more than 62 address bits"));
        }
        // Degenerate 1x1x... grid: one bit on axis 0 keeps the machinery uniform.
        if total == 0 {
            return Ok(BitMask { axes_msb_first: vec![0], bits_per_axis: bits_array(&[1]) });
        }
        let mut lsb_first = Vec::with_capacity(total as usize);
        let mut axis = 0usize;
        while lsb_first.len() < total as usize {
            if remaining[axis] > 0 {
                remaining[axis] -= 1;
                lsb_first.push(axis as u8);
            }
            axis = (axis + 1) % dims.len();
        }
        lsb_first.reverse();
        let mut bits = [0u32; MAX_AXES];
        for &a in &lsb_first {
            bits[a as usize] += 1;
        }
        Ok(BitMask { axes_msb_first: lsb_first, bits_per_axis: bits })
    }

    /// Total number of address bits (= maximum HZ level).
    pub fn num_bits(&self) -> u32 {
        self.axes_msb_first.len() as u32
    }

    /// Number of axes that own at least one bit.
    pub(crate) fn num_axes(&self) -> usize {
        (0..MAX_AXES).rev().find(|&a| self.bits_per_axis[a] > 0).map_or(0, |a| a + 1)
    }

    /// Side lengths of the padded power-of-two grid the mask addresses.
    pub fn padded_dims(&self) -> Vec<u64> {
        (0..self.num_axes()).map(|a| 1u64 << self.bits_per_axis[a]).collect()
    }

    /// Textual form (`"V0101..."`).
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.axes_msb_first.len() + 1);
        s.push('V');
        for &a in &self.axes_msb_first {
            s.push(char::from_digit(a as u32, 10).expect("axis < 10"));
        }
        s
    }

    /// Interleave coordinates into a Z address according to the mask.
    ///
    /// `coords[a]` must be `< 2^axis_bits(a)`.
    pub fn encode(&self, coords: &[u64]) -> Result<u64> {
        for a in 0..MAX_AXES {
            let c = coords.get(a).copied().unwrap_or(0);
            if c >= (1u64 << self.bits_per_axis[a]) && self.bits_per_axis[a] < 64 {
                return Err(NsdfError::invalid(format!(
                    "coordinate {c} exceeds {} bits on axis {a}",
                    self.bits_per_axis[a]
                )));
            }
        }
        let mut z = 0u64;
        // Track, per axis, how many of its bits we have *not yet* consumed;
        // mask positions left of the current one hold higher-order bits.
        let mut left = self.bits_per_axis;
        for &a in &self.axes_msb_first {
            let a = a as usize;
            left[a] -= 1;
            let bit = (coords.get(a).copied().unwrap_or(0) >> left[a]) & 1;
            z = (z << 1) | bit;
        }
        Ok(z)
    }

    /// The Z-address bits axis `a` owns: what [`BitMask::encode`] sets for
    /// the all-ones coordinate on that axis.
    pub(crate) fn axis_bits(&self, a: usize) -> u64 {
        let n = self.axes_msb_first.len();
        let owned = self.axes_msb_first.iter().enumerate().filter(|&(_, &b)| b as usize == a);
        owned.fold(0, |bits, (i, _)| bits | 1 << (n - 1 - i))
    }

    /// Inverse of [`BitMask::encode`].
    pub fn decode(&self, z: u64) -> Vec<u64> {
        let n = self.num_bits();
        let mut coords = vec![0u64; self.num_axes()];
        for (i, &a) in self.axes_msb_first.iter().enumerate() {
            let bit = (z >> (n as usize - 1 - i)) & 1;
            coords[a as usize] = (coords[a as usize] << 1) | bit;
        }
        coords
    }

    /// Per-axis sampling stride of the grid formed by all samples at HZ
    /// levels `0..=level`.
    ///
    /// The low `num_bits - level` address bits of such samples are zero, so
    /// each axis coordinate is a multiple of two to the number of *its* bits
    /// among those low positions.
    pub fn level_strides(&self, level: u32) -> Result<Vec<u64>> {
        let n = self.num_bits();
        if level > n {
            return Err(NsdfError::invalid(format!("level {level} exceeds max {n}")));
        }
        let low = (n - level) as usize;
        let mut k = [0u32; MAX_AXES];
        for &a in self.axes_msb_first.iter().rev().take(low) {
            k[a as usize] += 1;
        }
        Ok((0..self.num_axes()).map(|a| 1u64 << k[a]).collect())
    }
}

/// Ceiling of log2, with `ceil_log2(1) == 0`.
pub(crate) fn ceil_log2(v: u64) -> u32 {
    debug_assert!(v > 0);
    64 - (v - 1).leading_zeros().min(64)
}

fn bits_array(counts: &[u32]) -> [u32; MAX_AXES] {
    let mut out = [0u32; MAX_AXES];
    out[..counts.len()].copy_from_slice(counts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn parse_and_print_roundtrip() {
        let m = BitMask::parse("V01010").unwrap();
        assert_eq!(m.num_bits(), 5);
        assert_eq!(m.padded_dims(), vec![8, 4]);
        assert_eq!(m.to_text(), "V01010");
        assert!(BitMask::parse("01010").is_err());
        assert!(BitMask::parse("V015").is_err());
        assert!(BitMask::parse("V").is_err());
    }

    #[test]
    fn for_dims_square_alternates() {
        let m = BitMask::for_dims(&[8, 8]).unwrap();
        // 3 bits each; finest (rightmost) is x.
        assert_eq!(m.to_text(), "V101010");
        assert_eq!(m.padded_dims(), vec![8, 8]);
    }

    #[test]
    fn for_dims_rectangular_gives_extra_bits_to_long_axis() {
        let m = BitMask::for_dims(&[8, 2]).unwrap();
        // x: 3 bits, y: 1 bit. LSB-first cycle: x,y,x,x -> msb-first "0010".
        assert_eq!(m.padded_dims(), vec![8, 2]);
        assert_eq!(m.to_text(), "V0010");
    }

    #[test]
    fn for_dims_pads_to_power_of_two() {
        let m = BitMask::for_dims(&[100, 60]).unwrap();
        assert_eq!(m.padded_dims(), vec![128, 64]);
        assert_eq!(m.num_bits(), 13);
    }

    #[test]
    fn for_dims_one_by_one() {
        let m = BitMask::for_dims(&[1]).unwrap();
        assert_eq!(m.num_bits(), 1);
        assert_eq!(m.encode(&[0]).unwrap(), 0);
    }

    #[test]
    fn for_dims_rejects_bad_inputs() {
        assert!(BitMask::for_dims(&[]).is_err());
        assert!(BitMask::for_dims(&[0]).is_err());
        assert!(BitMask::for_dims(&[1, 2, 3, 4]).is_err());
        assert!(BitMask::for_dims(&[1u64 << 40, 1 << 40]).is_err());
    }

    #[test]
    fn encode_matches_plain_morton_on_square_grid() {
        let m = BitMask::for_dims(&[16, 16]).unwrap();
        for y in 0..16u64 {
            for x in 0..16u64 {
                let z = m.encode(&[x, y]).unwrap();
                assert_eq!(z, crate::morton::morton2_encode(x as u32, y as u32));
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_rectangular() {
        let m = BitMask::for_dims(&[32, 8]).unwrap();
        for y in 0..8u64 {
            for x in 0..32u64 {
                let z = m.encode(&[x, y]).unwrap();
                assert_eq!(m.decode(z), vec![x, y]);
            }
        }
    }

    #[test]
    fn encode_is_bijective_on_padded_grid() {
        let m = BitMask::for_dims(&[8, 4]).unwrap();
        let mut seen = [false; 32];
        for y in 0..4u64 {
            for x in 0..8u64 {
                let z = m.encode(&[x, y]).unwrap() as usize;
                assert!(!seen[z], "collision at z={z}");
                seen[z] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let m = BitMask::for_dims(&[8, 8]).unwrap();
        assert!(m.encode(&[8, 0]).is_err());
        assert!(m.encode(&[0, 9]).is_err());
    }

    #[test]
    fn three_axis_masks_work() {
        let m = BitMask::for_dims(&[4, 4, 4]).unwrap();
        assert_eq!(m.num_bits(), 6);
        assert_eq!(m.num_axes(), 3);
        let z = m.encode(&[1, 2, 3]).unwrap();
        assert_eq!(m.decode(z), vec![1, 2, 3]);
    }

    #[test]
    fn level_strides_shrink_with_level() {
        let m = BitMask::for_dims(&[8, 8]).unwrap(); // V101010
        assert_eq!(m.level_strides(0).unwrap(), vec![8, 8]);
        assert_eq!(m.level_strides(6).unwrap(), vec![1, 1]);
        // One level up from finest removes the rightmost mask bit (x).
        assert_eq!(m.level_strides(5).unwrap(), vec![2, 1]);
        assert_eq!(m.level_strides(4).unwrap(), vec![2, 2]);
        assert!(m.level_strides(7).is_err());
    }

    #[test]
    fn level_dims_cover_logical_grid() {
        let m = BitMask::for_dims(&[100, 60]).unwrap();
        let level_dims = |level| -> Vec<u64> {
            let strides = m.level_strides(level).unwrap();
            [100u64, 60].iter().zip(&strides).map(|(&d, &s)| d.div_ceil(s)).collect()
        };
        assert_eq!(level_dims(m.num_bits()), vec![100, 60]);
        assert_eq!(level_dims(0), vec![1, 1]);
    }
}
