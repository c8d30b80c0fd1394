//! The hierarchical Z (HZ) order itself.
//!
//! HZ order rearranges the Z (Morton) order into resolution levels: level 0
//! is the single coarsest sample, and each level ℓ ≥ 1 holds the 2^(ℓ-1)
//! samples that refine level ℓ-1 — exactly the layout the OpenVisus IDX
//! format stores on disk. Consecutive HZ addresses within a level are
//! spatially coherent, which is what makes progressive region queries touch
//! few, contiguous blocks.
//!
//! For a grid with `n` address bits the mapping is the classic one from
//! Pascucci et al.: a sample with Z address `z > 0` whose binary expansion
//! ends in `t` zeros sits at level `n - t`, and its in-level rank is `z`
//! with the trailing zeros *and* the lowest set bit stripped.
//!
//! IDX stores `2^k` consecutive HZ addresses per block, and a scatter or
//! gather visits a box one x-row at a time: [`HzCurve::row_block_offsets`]
//! yields a row's `(block, offset)` pairs by Morton addition along x, so a
//! sample costs a few word operations rather than one mask step per
//! address bit. [`HzCurve::block_offset`] is the per-sample oracle.

use crate::bitmask::BitMask;
use nsdf_util::{Box3i, NsdfError, Result};

/// HZ address from a Z (Morton) address on an `n`-bit grid.
#[inline]
pub(crate) fn hz_from_z(z: u64, n: u32) -> u64 {
    debug_assert!(n < 64 && (n == 63 || z < (1u64 << n)));
    if z == 0 {
        return 0;
    }
    let t = z.trailing_zeros();
    let level = n - t;
    (1u64 << (level - 1)) + (z >> (t + 1))
}

/// Inverse of [`hz_from_z`]: the oracle the tests decode addresses with.
#[cfg(test)]
fn z_from_hz(h: u64, n: u32) -> u64 {
    debug_assert!(n < 64 && (n == 63 || h < (1u64 << n)));
    if h == 0 {
        return 0;
    }
    let level = 64 - h.leading_zeros(); // floor(log2(h)) + 1
    let rank = h - (1u64 << (level - 1));
    (rank << (n - level + 1)) | (1u64 << (n - level))
}

/// Resolution level of an HZ address: 0 for the root, else `floor(log2)+1`.
#[inline]
pub(crate) fn hz_level(h: u64) -> u32 {
    if h == 0 {
        0
    } else {
        64 - h.leading_zeros()
    }
}

/// First HZ address of level `level` (inclusive).
#[inline]
pub(crate) fn level_start(level: u32) -> u64 {
    if level == 0 {
        0
    } else {
        1u64 << (level - 1)
    }
}

/// One past the last HZ address of level `level`.
#[inline]
pub(crate) fn level_end(level: u32) -> u64 {
    1u64 << level
}

/// A [`BitMask`] bundled with the HZ arithmetic: the full address machinery
/// for one dataset shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HzCurve {
    mask: BitMask,
}

impl HzCurve {
    /// Curve over the given mask.
    pub fn new(mask: BitMask) -> Self {
        HzCurve { mask }
    }

    /// The interleaving mask.
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// Total address bits; also the finest resolution level.
    pub fn max_level(&self) -> u32 {
        self.mask.num_bits()
    }

    /// Total number of addresses on the padded grid.
    pub(crate) fn num_addresses(&self) -> u64 {
        1u64 << self.mask.num_bits()
    }

    /// HZ address of a sample at the given coordinates.
    pub fn hz_from_coords(&self, coords: &[u64]) -> Result<u64> {
        Ok(hz_from_z(self.mask.encode(coords)?, self.mask.num_bits()))
    }

    /// Block index and in-block sample offset of the sample at `coords`,
    /// for blocks of `block_samples` consecutive HZ addresses — one sample
    /// at a time, the oracle of [`HzCurve::row_block_offsets`]. A zero
    /// `block_samples` is an `InvalidArg`, as for
    /// [`HzCurve::blocks_in_region`].
    #[inline]
    pub fn block_offset(&self, coords: &[u64], block_samples: u64) -> Result<(u64, usize)> {
        if block_samples == 0 {
            return Err(NsdfError::invalid("block_samples must be positive"));
        }
        let hz = self.hz_from_coords(coords)?;
        Ok((hz / block_samples, (hz % block_samples) as usize))
    }

    /// [`HzCurve::block_offset`] of each of the `n` samples
    /// `start + i·(step, 0, 0)`, `i < n`, in order — the row walk every
    /// IDX scatter and gather loop runs on. `block_samples` must be a power
    /// of two, as an IDX block is.
    ///
    /// The row is checked once, at its first and last sample, with the
    /// error `block_offset` returns (and one for a last `x` past `u64`).
    /// Then each sample costs a few word operations instead of a bit-by-bit
    /// [`BitMask::encode`]: the y/z bits of the Z address are deposited
    /// once, and x advances by masked Morton addition — with `mx` the bits
    /// x owns and `dep(step)` the step spread onto them,
    /// `dx = ((dx | !mx) + dep(step)) & mx` carries through the bits x
    /// does not own.
    pub fn row_block_offsets(
        &self,
        start: [u64; 3],
        step: u64,
        n: usize,
        block_samples: u64,
    ) -> Result<impl Iterator<Item = (u64, usize)>> {
        if !block_samples.is_power_of_two() {
            return Err(NsdfError::invalid(format!(
                "block_samples {block_samples} is not a power of two"
            )));
        }
        let last = (n.saturating_sub(1) as u64)
            .checked_mul(step)
            .and_then(|span| span.checked_add(start[0]))
            .ok_or_else(|| {
                NsdfError::invalid(format!("row of {n} from x {} by {step} overflows", start[0]))
            })?;
        self.mask.encode(&[last, start[1], start[2]])?;
        let z = self.mask.encode(&start)?;
        // A row of two or more ends at or past `step`, so it fits x's bits.
        let dstep = self.mask.encode(&[if n > 1 { step } else { 0 }])?;
        let mx = self.mask.axis_bits(0);
        let (yz, mut dx) = (z & !mx, z & mx);
        let (bits, shift) = (self.max_level(), block_samples.trailing_zeros());
        Ok((0..n).map(move |_| {
            let hz = hz_from_z(dx | yz, bits);
            dx = (dx | !mx).wrapping_add(dstep) & mx;
            (hz >> shift, (hz & (block_samples - 1)) as usize)
        }))
    }

    /// Output grid of a box query at `level`: per axis, the first
    /// coordinate on the level's grid, its stride, and the sample count.
    /// Axes the mask owns no bits on (a 100x1 dataset, the z axis of a 2-D
    /// one) have stride 1. `None` when the box holds no sample of that
    /// grid.
    pub fn level_grid(&self, level: u32, region: Box3i) -> Result<Option<[(i64, i64, usize); 3]>> {
        let strides = axes3(&self.mask.level_strides(level)?, 1);
        let (lo, hi) = corners(region);
        let mut grid = [(0, 1, 1); 3];
        for (a, axis) in grid.iter_mut().enumerate() {
            let origin = align_up(lo[a], strides[a]);
            if origin >= hi[a] {
                return Ok(None);
            }
            *axis = (
                origin,
                strides[a],
                ((hi[a] - origin) as u64).div_ceil(strides[a] as u64) as usize,
            );
        }
        Ok(Some(grid))
    }

    /// Coordinates of the sample with the given HZ address.
    #[cfg(test)]
    fn coords_from_hz(&self, h: u64) -> Vec<u64> {
        self.mask.decode(z_from_hz(h, self.mask.num_bits()))
    }

    /// Walk the samples of exactly `level` (not cumulative) whose
    /// coordinates fall inside `region`, x fastest, yielding
    /// `([x, y, z], hz)`. Samples of level ℓ lie on the cumulative level-ℓ
    /// grid but *off* the level-(ℓ-1) grid, so the walk steps the finer
    /// strides and skips the coarser points.
    ///
    /// O(samples): the oracle the block planner is tested against, and the
    /// address source of the layout ablation — queries plan with
    /// [`HzCurve::blocks_in_region`].
    pub fn level_samples_in_box(
        &self,
        level: u32,
        region: impl Into<Box3i>,
    ) -> Result<Vec<([u64; 3], u64)>> {
        let strides = axes3(&self.mask.level_strides(level)?, 1);
        let coarser = match level {
            0 => None,
            l => Some(axes3(&self.mask.level_strides(l - 1)?, 1)),
        };
        let padded = axes3(&self.mask.padded_dims(), 1);
        let (lo, hi) = corners(region.into());
        let axis = |a: usize| {
            (align_up(lo[a].max(0), strides[a])..hi[a].min(padded[a])).step_by(strides[a] as usize)
        };
        let mut out = Vec::new();
        for z in axis(2) {
            for y in axis(1) {
                for x in axis(0) {
                    let at = [x, y, z];
                    if coarser.is_some_and(|c| (0..3).all(|a| at[a] % c[a] == 0)) {
                        continue;
                    }
                    let at = at.map(|c| c as u64);
                    let h = self.hz_from_coords(&at).expect("in-range coordinates");
                    debug_assert_eq!(hz_level(h), level);
                    out.push((at, h));
                }
            }
        }
        Ok(out)
    }

    /// Blocks of `block_samples` consecutive HZ addresses that hold at
    /// least one sample of levels `0..=level` inside `region` — the block
    /// set a box query must fetch. A 2-D region is a box one sample deep.
    ///
    /// Runs in time proportional to the number of *blocks* returned (plus
    /// a logarithmic descent overhead), not the number of samples in the
    /// region: within each level, aligned in-level rank ranges map to exact
    /// axis-aligned bounding boxes (every varying Z bit feeds exactly one
    /// coordinate bit, monotonically), so whole subtrees are accepted —
    /// their HZ span is contiguous, every block in it is marked at once —
    /// or rejected without visiting individual samples.
    pub fn blocks_in_region(
        &self,
        region: impl Into<Box3i>,
        level: u32,
        block_samples: u64,
    ) -> Result<Vec<u64>> {
        if level > self.max_level() {
            return Err(NsdfError::invalid(format!(
                "level {level} exceeds max {}",
                self.max_level()
            )));
        }
        if block_samples == 0 {
            return Err(NsdfError::invalid("block_samples must be positive"));
        }
        // Clip to the padded grid.
        let padded = axes3(&self.mask.padded_dims(), 1);
        let (lo, hi) = corners(region.into());
        let lo = lo.map(|v| v.max(0));
        let hi: [i64; 3] = std::array::from_fn(|a| hi[a].min(padded[a]));
        let mut blocks = std::collections::BTreeSet::new();
        if (0..3).all(|a| lo[a] < hi[a]) {
            for l in 0..=level {
                self.descend_level(l, &(lo, hi), block_samples, &mut blocks);
            }
        }
        Ok(blocks.into_iter().collect())
    }

    /// How many of block `block`'s `block_samples` consecutive HZ addresses
    /// hold a sample inside the logical grid `dims` — the rest is
    /// power-of-two padding no write ever covers, so a block is completely
    /// written exactly when this many distinct offsets are.
    ///
    /// Cost is a few mask decodes per resolution level the block spans (one
    /// for every block but the first), not a walk over its samples: an
    /// aligned in-level rank range is a lattice whose axes vary
    /// independently (see `descend_ranks`), so its in-bounds count is the
    /// product of the per-axis counts.
    pub fn block_samples_in_bounds(
        &self,
        block: u64,
        block_samples: u64,
        dims: &[u64],
    ) -> Result<u64> {
        if block_samples == 0 {
            return Err(NsdfError::invalid("block_samples must be positive"));
        }
        let lo = block.saturating_mul(block_samples);
        let hi = lo.saturating_add(block_samples).min(self.num_addresses());
        let mut inside = 0;
        let mut h = lo;
        if h == 0 && hi > 0 {
            // Level 0 is the single sample at the origin.
            inside += dims.iter().all(|&d| d > 0) as u64;
            h = 1;
        }
        while h < hi {
            // Longest aligned power-of-two rank run starting at `h` that
            // stays inside both the block and `h`'s level.
            let level = hz_level(h);
            let r0 = h - level_start(level);
            let room = hi.min(level_end(level)) - h;
            let mut count = 1u64 << (63 - room.leading_zeros());
            if r0 != 0 {
                count = count.min(1u64 << r0.trailing_zeros());
            }
            inside += self.aligned_ranks_in_bounds(level, r0, count, dims);
            h += count;
        }
        Ok(inside)
    }

    /// In-bounds samples of the level-`level` rank range `[r0, r0 + count)`
    /// (`count` a power of two, `r0` a multiple of it). Each axis takes the
    /// values `lo + k * stride` for `k < n`: the varying Z bits are
    /// contiguous, so the coordinate bits they feed on one axis are too.
    fn aligned_ranks_in_bounds(&self, level: u32, r0: u64, count: u64, dims: &[u64]) -> u64 {
        let t = self.max_level() - level;
        let z_lo = (r0 << (t + 1)) | (1u64 << t);
        let lo = self.mask.decode(z_lo);
        let hi = self.mask.decode(z_lo | ((count - 1) << (t + 1)));
        let mut inside = 1;
        for (a, (&lo, &hi)) in lo.iter().zip(&hi).enumerate() {
            let dim = dims.get(a).copied().unwrap_or(1);
            if lo >= dim {
                return 0;
            }
            let span = hi - lo;
            if span > 0 {
                let stride = 1u64 << span.trailing_zeros();
                inside *= (span / stride + 1).min((dim - lo).div_ceil(stride));
            }
        }
        inside
    }

    /// Mark the blocks holding a sample of exactly `level` inside the
    /// `[lo, hi)` corners `region`, already clipped to the padded grid.
    fn descend_level(
        &self,
        level: u32,
        region: &Corners,
        block_samples: u64,
        blocks: &mut std::collections::BTreeSet<u64>,
    ) {
        if level > 0 {
            self.descend_ranks(level, 0, 1u64 << (level - 1), region, block_samples, blocks);
        } else if region.0 == [0; 3] {
            // Level 0 is the single sample at the origin (HZ address 0).
            blocks.insert(0);
        }
    }

    /// Recursive step of [`HzCurve::blocks_in_region`]: resolve the
    /// level-`level` rank range `[r0, r0 + count)` (with `count` a power of
    /// two and `r0` a multiple of `count`).
    fn descend_ranks(
        &self,
        level: u32,
        r0: u64,
        count: u64,
        region: &Corners,
        block_samples: u64,
        blocks: &mut std::collections::BTreeSet<u64>,
    ) {
        // Contiguous HZ span of the range, and the blocks it overlaps.
        let hz_lo = level_start(level) + r0;
        let b_lo = hz_lo / block_samples;
        let b_hi = (hz_lo + count - 1) / block_samples;
        // Every overlapped block already marked: descending adds nothing.
        if blocks.range(b_lo..=b_hi).count() as u64 == b_hi - b_lo + 1 {
            return;
        }
        // A level-`level` rank r maps to z = (r << (t+1)) | (1 << t) with
        // t = n - level trailing bits. Over an aligned rank range only the
        // low rank bits vary; each such z bit raises exactly one coordinate
        // bit of one axis, so all-zeros / all-ones of the varying bits
        // decode to the exact per-axis min / max of the range.
        let (r_lo, r_hi) = region;
        let t = self.max_level() - level;
        let z_lo = (r0 << (t + 1)) | (1u64 << t);
        let varying = (count - 1) << (t + 1);
        let lo = axes3(&self.mask.decode(z_lo), 0);
        let hi = axes3(&self.mask.decode(z_lo | varying), 0);
        // Bounding box misses the region: no sample below contributes.
        if (0..3).any(|a| lo[a] >= r_hi[a] || hi[a] < r_lo[a]) {
            return;
        }
        // Box fully inside (as the box of a single rank that does not miss
        // the region is): every sample of the range is in-region, and every
        // overlapped block holds at least one of them.
        if (0..3).all(|a| lo[a] >= r_lo[a] && hi[a] < r_hi[a]) {
            blocks.extend(b_lo..=b_hi);
            return;
        }
        let half = count / 2;
        self.descend_ranks(level, r0, half, region, block_samples, blocks);
        self.descend_ranks(level, r0 + half, half, region, block_samples, blocks);
    }
}

/// `[lo, hi)` corners of a box, per axis.
type Corners = ([i64; 3], [i64; 3]);

fn corners(b: Box3i) -> Corners {
    ([b.x0, b.y0, b.z0], [b.x1, b.y1, b.z1])
}

/// A per-axis quantity of the mask over all three axes, `fill` on those a
/// 1-D or 2-D mask owns no bits on.
fn axes3(v: &[u64], fill: u64) -> [i64; 3] {
    std::array::from_fn(|a| v.get(a).copied().unwrap_or(fill) as i64)
}

/// Smallest multiple of `m` that is `>= v`, for non-negative `v`.
fn align_up(v: i64, m: i64) -> i64 {
    debug_assert!(v >= 0 && m > 0);
    let r = v % m;
    if r == 0 {
        v
    } else {
        v + (m - r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_util::Box2i;
    use proptest::prelude::*;

    #[test]
    fn hz_1d_classic_ordering() {
        // 8-sample 1-D grid: HZ visits 0, 4, 2, 6, 1, 3, 5, 7.
        let expected = [(0u64, 0u64), (4, 1), (2, 2), (6, 3), (1, 4), (3, 5), (5, 6), (7, 7)];
        for &(z, h) in &expected {
            assert_eq!(hz_from_z(z, 3), h, "z={z}");
            assert_eq!(z_from_hz(h, 3), z, "h={h}");
        }
    }

    #[test]
    fn hz_is_bijective() {
        for n in 1..=12u32 {
            let size = 1u64 << n;
            let mut seen = vec![false; size as usize];
            for z in 0..size {
                let h = hz_from_z(z, n);
                assert!(h < size);
                assert!(!seen[h as usize], "n={n} collision at h={h}");
                seen[h as usize] = true;
                assert_eq!(z_from_hz(h, n), z);
            }
        }
    }

    #[test]
    fn hz_levels_partition_addresses() {
        let n = 10u32;
        for h in 0..(1u64 << n) {
            let l = hz_level(h);
            assert!(l <= n);
            assert!(h >= level_start(l) && h < level_end(l));
        }
        // Level sizes: 1, 1, 2, 4, ...
        assert_eq!(level_end(0) - level_start(0), 1);
        assert_eq!(level_end(1) - level_start(1), 1);
        assert_eq!(level_end(5) - level_start(5), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hz_z_bijection(n in 1u32..20, samples in proptest::collection::vec(any::<u64>(), 1..50)) {
            let size = 1u64 << n;
            for s in samples {
                let z = s % size;
                let h = hz_from_z(z, n);
                prop_assert!(h < size);
                prop_assert_eq!(z_from_hz(h, n), z);
                prop_assert!(hz_level(h) <= n);
            }
        }

        #[test]
        fn hz_levels_partition_the_address_space(n in 1u32..24, h in any::<u64>()) {
            // Level ranges tile [0, 2^n) contiguously ...
            prop_assert_eq!(level_start(0), 0);
            for l in 1..=n {
                prop_assert_eq!(level_start(l), level_end(l - 1));
                prop_assert!(level_start(l) < level_end(l));
            }
            prop_assert_eq!(level_end(n), 1u64 << n);
            // ... and hz_level is the inverse lookup for every address.
            let h = h % (1u64 << n);
            let l = hz_level(h);
            prop_assert!(l <= n);
            prop_assert!(level_start(l) <= h && h < level_end(l));
        }
    }

    #[test]
    fn curve_roundtrips_coordinates() {
        let c = HzCurve::new(BitMask::for_dims(&[32, 8]).unwrap());
        for y in 0..8u64 {
            for x in 0..32u64 {
                let h = c.hz_from_coords(&[x, y]).unwrap();
                assert_eq!(c.coords_from_hz(h), vec![x, y]);
            }
        }
    }

    #[test]
    fn level_zero_sample_is_origin() {
        let c = HzCurve::new(BitMask::for_dims(&[16, 16]).unwrap());
        assert_eq!(c.hz_from_coords(&[0, 0]).unwrap(), 0);
        assert_eq!(c.coords_from_hz(0), vec![0, 0]);
    }

    #[test]
    fn level_samples_cover_whole_grid_once() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 8]).unwrap());
        let full = Box2i::new(0, 0, 8, 8);
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for level in 0..=c.max_level() {
            for ([x, y, _], h) in c.level_samples_in_box(level, full).unwrap() {
                assert!(seen.insert((x, y)), "duplicate sample ({x},{y})");
                assert_eq!(hz_level(h), level);
                total += 1;
            }
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn level_samples_respect_region() {
        let c = HzCurve::new(BitMask::for_dims(&[16, 16]).unwrap());
        let region = Box2i::new(4, 4, 9, 9);
        for level in 0..=c.max_level() {
            for ([x, y, _], _) in c.level_samples_in_box(level, region).unwrap() {
                assert!(region.contains(x as i64, y as i64));
            }
        }
        // Finest level inside a 5x5 region: every off-coarse cell appears;
        // cumulative count across levels must equal the region area.
        let total: usize =
            (0..=c.max_level()).map(|l| c.level_samples_in_box(l, region).unwrap().len()).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn level_samples_clip_to_padded_grid() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 8]).unwrap());
        let region = Box2i::new(-10, -10, 100, 100);
        let total: usize =
            (0..=c.max_level()).map(|l| c.level_samples_in_box(l, region).unwrap().len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn level_samples_rejects_overflow_level() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 8]).unwrap());
        assert!(c.level_samples_in_box(7, Box2i::new(0, 0, 8, 8)).is_err());
    }

    /// O(samples) reference implementation of [`HzCurve::blocks_in_region`]:
    /// enumerate every cumulative-level sample in the region and collect the
    /// blocks their HZ addresses land in.
    fn blocks_by_sample_walk(
        c: &HzCurve,
        region: Box2i,
        level: u32,
        block_samples: u64,
    ) -> Vec<u64> {
        let mut blocks = std::collections::BTreeSet::new();
        for l in 0..=level {
            for (_, hz) in c.level_samples_in_box(l, region).unwrap() {
                blocks.insert(hz / block_samples);
            }
        }
        blocks.into_iter().collect()
    }

    #[test]
    fn blocks_in_region_matches_sample_oracle() {
        for (w, h) in [(8u64, 8u64), (16, 16), (32, 8), (64, 64), (100, 37)] {
            let c = HzCurve::new(BitMask::for_dims(&[w, h]).unwrap());
            let regions = [
                Box2i::new(0, 0, w as i64, h as i64),
                Box2i::new(1, 1, (w as i64 - 1).max(2), (h as i64 - 1).max(2)),
                Box2i::new(w as i64 / 4, h as i64 / 4, 3 * w as i64 / 4 + 1, 3 * h as i64 / 4 + 1),
                Box2i::new(0, 0, 1, 1),
                Box2i::new(w as i64 - 1, h as i64 - 1, w as i64, h as i64),
                Box2i::new(-5, -5, w as i64 + 9, h as i64 + 9), // over-clipped
            ];
            for region in regions {
                for level in 0..=c.max_level() {
                    for bs in [1u64, 4, 16, 256] {
                        let fast = c.blocks_in_region(region, level, bs).unwrap();
                        let slow = blocks_by_sample_walk(&c, region, level, bs);
                        assert_eq!(
                            fast, slow,
                            "dims ({w},{h}) region {region:?} level {level} bs {bs}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_in_region_random_region_sweep_matches_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_b10c);
        for (w, h) in [(16u64, 16u64), (64, 32), (100, 37), (128, 128)] {
            let c = HzCurve::new(BitMask::for_dims(&[w, h]).unwrap());
            for trial in 0..40 {
                let region = match trial {
                    // Degenerate 1-wide boxes along each axis.
                    0 => {
                        let x = rng.gen_range(0..w as i64);
                        Box2i::new(x, 0, x + 1, h as i64)
                    }
                    1 => {
                        let y = rng.gen_range(0..h as i64);
                        Box2i::new(0, y, w as i64, y + 1)
                    }
                    // The full volume.
                    2 => Box2i::new(0, 0, w as i64, h as i64),
                    // Random (possibly over-clipped) boxes.
                    _ => {
                        let x0 = rng.gen_range(-2..w as i64 - 1);
                        let y0 = rng.gen_range(-2..h as i64 - 1);
                        let x1 = rng.gen_range(x0 + 1..=w as i64 + 2);
                        let y1 = rng.gen_range(y0 + 1..=h as i64 + 2);
                        Box2i::new(x0, y0, x1, y1)
                    }
                };
                let level = rng.gen_range(0..=c.max_level());
                let bs = 1u64 << rng.gen_range(0u32..=8);
                let fast = c.blocks_in_region(region, level, bs).unwrap();
                let slow = blocks_by_sample_walk(&c, region, level, bs);
                assert_eq!(
                    fast, slow,
                    "dims ({w},{h}) region {region:?} level {level} bs {bs} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn block_offset_rejects_zero_block_samples() {
        let c = HzCurve::new(BitMask::for_dims(&[16, 16]).unwrap());
        let err = c.block_offset(&[3, 5], 0).unwrap_err();
        assert!(matches!(err, NsdfError::InvalidArg(_)), "{err}");
        assert_eq!(c.block_offset(&[0, 0], 1).unwrap(), (0, 0));
    }

    #[test]
    fn blocks_in_region_handles_degenerate_inputs() {
        let c = HzCurve::new(BitMask::for_dims(&[16, 16]).unwrap());
        // Empty after clipping.
        assert!(c.blocks_in_region(Box2i::new(50, 50, 60, 60), 4, 4).unwrap().is_empty());
        // Invalid arguments.
        assert!(c.blocks_in_region(Box2i::new(0, 0, 4, 4), 99, 4).is_err());
        assert!(c.blocks_in_region(Box2i::new(0, 0, 4, 4), 4, 0).is_err());
        // Level 0 of a region containing the origin is exactly block 0.
        assert_eq!(c.blocks_in_region(Box2i::new(0, 0, 4, 4), 0, 8).unwrap(), vec![0]);
        // Level 0 of a region missing the origin holds nothing.
        assert!(c.blocks_in_region(Box2i::new(1, 1, 4, 4), 0, 8).unwrap().is_empty());
    }

    #[test]
    fn block_samples_in_bounds_matches_address_walk() {
        let curves = [
            (HzCurve::new(BitMask::for_dims(&[100, 37]).unwrap()), vec![100u64, 37]),
            (HzCurve::new(BitMask::for_dims(&[64, 64]).unwrap()), vec![64, 64]),
            (HzCurve::new(BitMask::for_dims(&[100, 1]).unwrap()), vec![100, 1]),
            (HzCurve::new(BitMask::for_dims(&[1, 1]).unwrap()), vec![1, 1]),
            (HzCurve::new(BitMask::for_dims(&[20, 9, 5]).unwrap()), vec![20, 9, 5]),
        ];
        for (c, dims) in &curves {
            // Powers of two (what IDX uses), odd sizes, and a block larger
            // than the whole grid.
            for bs in [1u64, 2, 8, 64, 256, 7, 100, 1 << 14] {
                let blocks = c.num_addresses().div_ceil(bs);
                let mut total = 0;
                for block in 0..blocks + 1 {
                    let walked = (block * bs..((block + 1) * bs).min(c.num_addresses()))
                        .filter(|&h| c.coords_from_hz(h).iter().zip(dims).all(|(v, d)| v < d))
                        .count() as u64;
                    let fast = c.block_samples_in_bounds(block, bs, dims).unwrap();
                    assert_eq!(fast, walked, "dims {dims:?} bs {bs} block {block}");
                    total += fast;
                }
                assert_eq!(total, dims.iter().product::<u64>(), "dims {dims:?} bs {bs}");
            }
        }
        assert!(curves[0].0.block_samples_in_bounds(0, 0, &[100, 37]).is_err());
    }

    #[test]
    fn blocks_in_region_full_grid_is_all_blocks() {
        let c = HzCurve::new(BitMask::for_dims(&[32, 32]).unwrap());
        let bs = 16u64;
        let all = c.blocks_in_region(Box2i::new(0, 0, 32, 32), c.max_level(), bs).unwrap();
        let expect: Vec<u64> = (0..c.num_addresses() / bs).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn hz_addresses_within_level_are_spatially_coherent() {
        // The first half of the finest level on a square grid must stay in
        // the left half... not exactly; instead verify a weaker, true
        // property: consecutive finest-level HZ addresses differ by a bounded
        // spatial distance on average compared to random order.
        let c = HzCurve::new(BitMask::for_dims(&[32, 32]).unwrap());
        let samples = c.level_samples_in_box(c.max_level(), Box2i::new(0, 0, 32, 32)).unwrap();
        let mut by_h = samples.clone();
        by_h.sort_by_key(|&(_, h)| h);
        let mean_jump: f64 = by_h
            .windows(2)
            .map(|w| {
                let ([x0, y0, _], _) = w[0];
                let ([x1, y1, _], _) = w[1];
                ((x0 as f64 - x1 as f64).powi(2) + (y0 as f64 - y1 as f64).powi(2)).sqrt()
            })
            .sum::<f64>()
            / (by_h.len() - 1) as f64;
        // Random order over a 32x32 grid would average ~16.9; HZ stays small.
        assert!(mean_jump < 6.0, "mean consecutive jump {mean_jump}");
    }
}

#[cfg(test)]
mod tests3d {
    use super::*;

    #[test]
    fn curve_3d_roundtrips() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 8, 8]).unwrap());
        assert_eq!(c.max_level(), 9);
        for z in 0..8u64 {
            for y in 0..8u64 {
                for x in 0..8u64 {
                    let h = c.hz_from_coords(&[x, y, z]).unwrap();
                    assert_eq!(c.coords_from_hz(h), vec![x, y, z]);
                }
            }
        }
    }

    #[test]
    fn level_samples_cover_volume_once() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 8, 8]).unwrap());
        let full = Box3i::of_size(8, 8, 8);
        let mut seen = std::collections::HashSet::new();
        for level in 0..=c.max_level() {
            for ([x, y, z], h) in c.level_samples_in_box(level, full).unwrap() {
                assert!(seen.insert((x, y, z)), "duplicate ({x},{y},{z})");
                assert_eq!(hz_level(h), level);
            }
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn box3_region_respected() {
        let c = HzCurve::new(BitMask::for_dims(&[16, 16, 16]).unwrap());
        let region = Box3i::new(4, 4, 4, 9, 9, 9);
        let total: usize =
            (0..=c.max_level()).map(|l| c.level_samples_in_box(l, region).unwrap().len()).sum();
        assert_eq!(total, 125);
        for level in 0..=c.max_level() {
            for ([x, y, z], _) in c.level_samples_in_box(level, region).unwrap() {
                assert!(region.contains(x as i64, y as i64, z as i64));
            }
        }
        assert!(c.level_samples_in_box(99, region).is_err());
    }

    #[test]
    fn rectangular_volume_covered() {
        let c = HzCurve::new(BitMask::for_dims(&[8, 4, 2]).unwrap());
        let full = Box3i::of_size(8, 4, 2);
        let total: usize =
            (0..=c.max_level()).map(|l| c.level_samples_in_box(l, full).unwrap().len()).sum();
        assert_eq!(total, 64);
    }
}
