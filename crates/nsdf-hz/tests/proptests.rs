//! Property tests for the space-filling curve layer: bijectivity and level
//! structure must hold for arbitrary (not just square) grid shapes.

use nsdf_hz::{BitMask, HzCurve};
use nsdf_util::{Box2i, Box3i, NsdfError};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mask_encode_is_bijective_for_random_shapes(w in 1u64..40, h in 1u64..40) {
        let mask = BitMask::for_dims(&[w, h]).unwrap();
        let padded = mask.padded_dims();
        let (pw, ph) = (padded[0], padded.get(1).copied().unwrap_or(1));
        let mut seen = HashSet::new();
        for y in 0..ph {
            for x in 0..pw {
                let z = mask.encode(&[x, y]).unwrap();
                prop_assert!(seen.insert(z), "collision at ({x},{y})");
                // Degenerate axes own no mask bits and are dropped by decode.
                let mut want = vec![x, y];
                want.truncate(padded.len());
                prop_assert_eq!(mask.decode(z), want);
            }
        }
        prop_assert_eq!(seen.len() as u64, pw * ph);
    }

    #[test]
    fn level_samples_partition_random_grids(w in 2u64..24, h in 2u64..24) {
        let curve = HzCurve::new(BitMask::for_dims(&[w, h]).unwrap());
        let full = Box2i::new(0, 0, w as i64, h as i64);
        let mut seen = HashSet::new();
        for level in 0..=curve.max_level() {
            for ([x, y, _], hz) in curve.level_samples_in_box(level, full).unwrap() {
                prop_assert!(seen.insert((x, y)));
                // Level ℓ holds the HZ addresses [2^ℓ / 2, 2^ℓ).
                prop_assert!(hz < 1 << level && hz >= (1 << level) >> 1);
            }
        }
        prop_assert_eq!(seen.len() as u64, w * h);
    }

    #[test]
    fn planner_matches_sample_walk_in_any_dimension(
        dims in (1u64..24, 1u64..20, 1u64..12),
        corner in (any::<u64>(), any::<u64>(), any::<u64>()),
        extent in (any::<u64>(), any::<u64>(), any::<u64>()),
        thin_axis in 0usize..4,
        level_pick in any::<u32>(),
        bs_pick in 0usize..3,
    ) {
        // Non-power-of-two extents; `d == 1` is a 2-D grid one sample deep.
        let (w, h, d) = dims;
        let curve = HzCurve::new(BitMask::for_dims(&[w, h, d]).unwrap());
        // A random box that may overhang the grid by up to two samples per
        // side; `thin_axis < 3` flattens it to a one-sample slab there.
        let side = |a: usize, dim: u64, at: u64, len: u64| {
            let lo = (at % (dim + 2)) as i64 - 2;
            let len = if a == thin_axis { 1 } else { 1 + (len % (dim + 2)) as i64 };
            (lo, lo + len)
        };
        let (x, y, z) =
            (side(0, w, corner.0, extent.0), side(1, h, corner.1, extent.1), side(2, d, corner.2, extent.2));
        let region = Box3i::new(x.0, y.0, z.0, x.1, y.1, z.1);
        let level = level_pick % (curve.max_level() + 1);
        // One sample per block, a mid-sized block, a block larger than any level.
        let bs = [1, 16, 2 << curve.max_level()][bs_pick];

        let walk = |l: u32| -> BTreeSet<u64> {
            curve.level_samples_in_box(l, region).unwrap().into_iter().map(|(_, hz)| hz / bs).collect()
        };
        // The planner at every level up to `level` is the cumulative walk.
        let mut cumulative = BTreeSet::new();
        for l in 0..=level {
            cumulative.extend(walk(l));
            let planned = curve.blocks_in_region(region, l, bs).unwrap();
            prop_assert_eq!(planned, cumulative.iter().copied().collect::<Vec<_>>(), "level {}", l);
        }
    }

    #[test]
    fn strides_are_monotone_in_level(w in 2u64..64, h in 2u64..64) {
        let mask = BitMask::for_dims(&[w, h]).unwrap();
        let mut prev = u64::MAX;
        for level in 0..=mask.num_bits() {
            let s = mask.level_strides(level).unwrap();
            let max_stride = s.iter().copied().max().unwrap();
            prop_assert!(max_stride <= prev, "level {level}");
            prev = max_stride;
        }
        // Finest level has unit strides.
        let finest = mask.level_strides(mask.num_bits()).unwrap();
        prop_assert!(finest.iter().all(|&s| s == 1));
    }

    #[test]
    fn text_roundtrip_random_masks(w in 1u64..100, h in 1u64..100) {
        let mask = BitMask::for_dims(&[w, h]).unwrap();
        let back = BitMask::parse(&mask.to_text()).unwrap();
        prop_assert_eq!(back, mask);
    }
}

proptest! {
    // Cheap cases, a third of them off the grid: run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_walk_matches_block_offset_per_sample(
        sides in (any::<u64>(), any::<u64>(), any::<u64>()),
        axes in 1usize..4,
        shuffle in any::<u64>(),
        start in (any::<u64>(), any::<u64>(), any::<u64>()),
        len in any::<u64>(),
        level_pick in any::<u32>(),
        bs_pick in any::<u32>(),
        off_grid in 0u32..6,
    ) {
        // 1–3 axes, a quarter of them 1 wide (an axis that owns no bits).
        let side = |v: u64, max: u64| if v.is_multiple_of(4) { 1 } else { 1 + v / 4 % max };
        let dims = [side(sides.0, 40), side(sides.1, 24), side(sides.2, 10)];
        let canonical = BitMask::for_dims(&dims[..axes]).unwrap();
        // Half the cases permute the canonical mask's digits.
        let mask = if shuffle.is_multiple_of(2) {
            canonical
        } else {
            let mut digits: Vec<char> = canonical.to_text()[1..].chars().collect();
            let mut rng = shuffle;
            for i in (1..digits.len()).rev() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                digits.swap(i, (rng >> 33) as usize % (i + 1));
            }
            BitMask::parse(&format!("V{}", digits.into_iter().collect::<String>())).unwrap()
        };
        let curve = HzCurve::new(mask.clone());
        let padded: Vec<u64> = (0..3).map(|a| mask.padded_dims().get(a).copied().unwrap_or(1)).collect();
        // Each level's x stride, and blocks from one sample to past the grid.
        let level = level_pick % (curve.max_level() + 1);
        let mut step = mask.level_strides(level).unwrap()[0];
        let bs = 1u64 << (bs_pick % (curve.max_level() + 2));
        let mut at = [start.0 % padded[0], start.1 % padded[1], start.2 % padded[2]];
        let mut n = (len % (padded[0] / step + 3)) as usize;
        match off_grid {
            // Past the padded grid on y or z, or a row running off in x.
            0 => at[1] = padded[1] + start.1 % 3,
            1 => at[2] = padded[2] + start.2 % 3,
            2 => n = (padded[0] / step + 1 + len % 3) as usize,
            // A last x past `u64`: an error, never a wrap or a panic.
            3 => (at[0], step, n) = (u64::MAX - start.0 % 5, 1 + len % 7, 2 + (len % 3) as usize),
            _ => {}
        }
        let oracle: Option<Vec<(u64, usize)>> = (0..n as u64)
            .map(|i| {
                let x = i.checked_mul(step).and_then(|d| d.checked_add(at[0]))?;
                curve.block_offset(&[x, at[1], at[2]], bs).ok()
            })
            .collect();
        match curve.row_block_offsets(at, step, n, bs) {
            Ok(walk) => prop_assert_eq!(Some(walk.collect::<Vec<_>>()), oracle),
            Err(e) => {
                prop_assert!(matches!(e, NsdfError::InvalidArg(_)), "{e}");
                // An empty row checks its start only.
                prop_assert!(oracle.is_none() || n == 0, "{e}");
                prop_assert!(n > 0 || curve.block_offset(&at, bs).is_err());
            }
        }
    }
}
