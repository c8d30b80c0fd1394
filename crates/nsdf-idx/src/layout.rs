//! Layout baselines for the HZ-locality ablation.
//!
//! The paper's §III-A claim is that HZ reorganisation "ensures that
//! spatially close data points are stored together" and enables coarse
//! access without reading fine data. To quantify that, this module counts
//! the blocks a query must touch under three layouts over the *same* block
//! size: HZ order (what [`crate::IdxDataset`] stores), plain Morton/Z
//! order (spatial locality but no resolution hierarchy), and row-major
//! order (neither).

use nsdf_hz::HzCurve;
use nsdf_util::{Box2i, Result};
use std::collections::BTreeSet;

/// Storage layout under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Hierarchical Z order (the IDX layout).
    Hz,
    /// Plain Morton/Z order.
    ZOrder,
    /// Row-major raster order.
    RowMajor,
}

impl Layout {
    /// All layouts, for sweeps.
    pub fn all() -> [Layout; 3] {
        [Layout::Hz, Layout::ZOrder, Layout::RowMajor]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::Hz => "hz",
            Layout::ZOrder => "z-order",
            Layout::RowMajor => "row-major",
        }
    }
}

/// Count the distinct blocks (of `2^bits_per_block` samples) that a query
/// for `region` at cumulative resolution `level` touches under `layout`,
/// on the padded grid described by `curve`.
///
/// For `RowMajor` and `ZOrder` the notion of "level" still applies to the
/// *query* (the sample stride), but the layout has no resolution hierarchy
/// — coarse samples are scattered across the full address range, which is
/// precisely the pathology IDX avoids.
pub fn blocks_touched(
    curve: &HzCurve,
    layout: Layout,
    region: Box2i,
    level: u32,
    bits_per_block: u32,
) -> Result<u64> {
    let block_samples = 1u64 << bits_per_block;
    let n_bits = curve.max_level();
    let padded = curve.mask().padded_dims();
    let width = padded[0];
    let mut blocks = BTreeSet::new();
    for l in 0..=level {
        for ([x, y, _], hz) in curve.level_samples_in_box(l, region)? {
            let addr = match layout {
                Layout::Hz => hz,
                Layout::ZOrder => curve.mask().encode(&[x, y])?,
                Layout::RowMajor => y * width + x,
            };
            blocks.insert(addr / block_samples);
        }
    }
    debug_assert!(blocks.iter().all(|&b| b < (1u64 << n_bits) / block_samples + 1));
    Ok(blocks.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_hz::BitMask;

    fn curve() -> HzCurve {
        HzCurve::new(BitMask::for_dims(&[256, 256]).unwrap())
    }

    #[test]
    fn full_grid_full_res_touches_everything_under_all_layouts() {
        let c = curve();
        let full = Box2i::new(0, 0, 256, 256);
        let total_blocks = (256u64 * 256) / (1 << 10);
        for layout in Layout::all() {
            let n = blocks_touched(&c, layout, full, c.max_level(), 10).unwrap();
            assert_eq!(n, total_blocks, "{}", layout.name());
        }
    }

    #[test]
    fn coarse_query_favors_hz_strongly() {
        let c = curve();
        let full = Box2i::new(0, 0, 256, 256);
        let level = c.max_level() - 6; // stride-8 overview
        let hz = blocks_touched(&c, Layout::Hz, full, level, 10).unwrap();
        let zo = blocks_touched(&c, Layout::ZOrder, full, level, 10).unwrap();
        let rm = blocks_touched(&c, Layout::RowMajor, full, level, 10).unwrap();
        // HZ stores all coarse samples in the first few blocks; the others
        // scatter them across the whole address space.
        assert!(hz * 8 <= zo, "hz={hz} z={zo}");
        assert!(hz * 8 <= rm, "hz={hz} rm={rm}");
    }

    #[test]
    fn small_region_full_res_favors_spatial_layouts_over_row_major() {
        let c = curve();
        let region = Box2i::new(64, 64, 96, 96); // 32x32 window
        let level = c.max_level();
        let hz = blocks_touched(&c, Layout::Hz, region, level, 10).unwrap();
        let zo = blocks_touched(&c, Layout::ZOrder, region, level, 10).unwrap();
        let rm = blocks_touched(&c, Layout::RowMajor, region, level, 10).unwrap();
        // Row-major: every row of the window lands in a different stripe.
        assert!(zo <= rm, "z={zo} rm={rm}");
        assert!(hz <= rm * 2, "hz={hz} rm={rm}");
    }

    #[test]
    fn layout_names() {
        assert_eq!(Layout::Hz.name(), "hz");
        assert_eq!(Layout::all().len(), 3);
    }
}
