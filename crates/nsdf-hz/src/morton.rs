//! Plain Morton (Z-order) encoding for square 2-D grids, with the classic
//! parallel-prefix bit tricks: the reference [`crate::BitMask`]'s 2-D
//! encoding is checked against.

/// Spread the low 32 bits of `v` so bit i moves to bit 2i.
#[inline]
fn part1by1(v: u32) -> u64 {
    let mut x = v as u64;
    x &= 0x0000_0000_ffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`part1by1`]: gather even-position bits back together.
#[inline]
fn compact1by1(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x as u32
}

/// Interleave `(x, y)` into a Morton address with `x` in the even bits.
#[inline]
pub(crate) fn morton2_encode(x: u32, y: u32) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// Inverse of [`morton2_encode`].
#[inline]
fn morton2_decode(z: u64) -> (u32, u32) {
    (compact1by1(z), compact1by1(z >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_matches_manual_interleave() {
        // x = 0b101, y = 0b011 -> z bits (y2 x2 y1 x1 y0 x0) = 0 1 1 0 1 1
        assert_eq!(morton2_encode(0b101, 0b011), 0b011011);
        assert_eq!(morton2_encode(0, 0), 0);
        assert_eq!(morton2_encode(1, 0), 1);
        assert_eq!(morton2_encode(0, 1), 2);
        assert_eq!(morton2_encode(1, 1), 3);
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        for y in 0..32u32 {
            for x in 0..32u32 {
                let z = morton2_encode(x, y);
                assert_eq!(morton2_decode(z), (x, y));
            }
        }
    }

    #[test]
    fn roundtrip_large_coordinates() {
        for &(x, y) in &[(u32::MAX, 0), (0, u32::MAX), (0xdead_beef, 0x1234_5678)] {
            assert_eq!(morton2_decode(morton2_encode(x, y)), (x, y));
        }
    }

    #[test]
    fn morton_is_monotone_in_quadrants() {
        // All addresses in the lower-left 2x2 quadrant precede the rest of a 4x4 grid.
        let max_ll = (0..2).flat_map(|y| (0..2).map(move |x| morton2_encode(x, y))).max().unwrap();
        let min_rest = morton2_encode(2, 0);
        assert!(max_ll < min_rest);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn morton_bijection_over_full_u32_domain(x in any::<u32>(), y in any::<u32>()) {
            // part1by1/compact1by1 are exact inverses on the whole u32 domain,
            // and the interleave keeps the axes in disjoint bit lanes.
            prop_assert_eq!(compact1by1(part1by1(x)), x);
            prop_assert_eq!(compact1by1(part1by1(y)), y);
            prop_assert_eq!(part1by1(x) & (part1by1(y) << 1), 0);
            let z = morton2_encode(x, y);
            prop_assert_eq!(morton2_decode(z), (x, y));
        }

        #[test]
        fn morton_is_strictly_monotone_per_axis(x in 0u32..u32::MAX, y in 0u32..u32::MAX) {
            // With the other axis fixed, a coordinate increment strictly
            // increases the Morton address (each axis owns its bit lane).
            prop_assert!(morton2_encode(x + 1, y) > morton2_encode(x, y));
            prop_assert!(morton2_encode(x, y + 1) > morton2_encode(x, y));
        }
    }
}
