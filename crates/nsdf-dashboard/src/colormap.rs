//! Color palettes for raster visualization.
//!
//! The paper's dashboard lets users "select from various color palettes"
//! (§III-A). Palettes here are piecewise-linear ramps through control
//! points sampled from the standard matplotlib/GMT definitions, evaluated
//! at query time — no external assets.

use nsdf_util::{NsdfError, Result};

/// An RGB color.
pub(crate) type Rgb = [u8; 3];

/// Available palettes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Colormap {
    /// Perceptually uniform blue-green-yellow (matplotlib default).
    Viridis,
    /// Hypsometric tints for elevation (sea green → brown → white).
    Terrain,
    /// Linear grayscale.
    Gray,
    /// Blue-white-red diverging, for signed anomalies.
    CoolWarm,
}

impl Colormap {
    /// All palettes, for the dashboard dropdown.
    pub fn all() -> [Colormap; 4] {
        [Colormap::Viridis, Colormap::Terrain, Colormap::Gray, Colormap::CoolWarm]
    }

    /// Stable name.
    pub fn name(&self) -> &'static str {
        match self {
            Colormap::Viridis => "viridis",
            Colormap::Terrain => "terrain",
            Colormap::Gray => "gray",
            Colormap::CoolWarm => "coolwarm",
        }
    }

    /// Parse a name produced by [`Colormap::name`].
    pub fn parse(s: &str) -> Result<Colormap> {
        match s {
            "viridis" => Ok(Colormap::Viridis),
            "terrain" => Ok(Colormap::Terrain),
            "gray" => Ok(Colormap::Gray),
            "coolwarm" => Ok(Colormap::CoolWarm),
            other => Err(NsdfError::invalid(format!("unknown colormap {other:?}"))),
        }
    }

    fn control_points(&self) -> &'static [(f64, Rgb)] {
        match self {
            Colormap::Viridis => &[
                (0.00, [68, 1, 84]),
                (0.25, [59, 82, 139]),
                (0.50, [33, 145, 140]),
                (0.75, [94, 201, 98]),
                (1.00, [253, 231, 37]),
            ],
            Colormap::Terrain => &[
                (0.00, [51, 102, 153]),
                (0.15, [46, 154, 90]),
                (0.40, [222, 214, 126]),
                (0.70, [145, 90, 60]),
                (0.90, [200, 200, 200]),
                (1.00, [255, 255, 255]),
            ],
            Colormap::Gray => &[(0.00, [0, 0, 0]), (1.00, [255, 255, 255])],
            Colormap::CoolWarm => {
                &[(0.00, [59, 76, 192]), (0.50, [221, 221, 221]), (1.00, [180, 4, 38])]
            }
        }
    }

    /// Map a normalised value `t in [0, 1]` (clamped; NaN → mid-gray) to RGB.
    pub fn map(&self, t: f64) -> Rgb {
        if t.is_nan() {
            return [127, 127, 127];
        }
        let t = t.clamp(0.0, 1.0);
        let pts = self.control_points();
        let mut prev = pts[0];
        for &cur in &pts[1..] {
            if t <= cur.0 {
                let span = (cur.0 - prev.0).max(f64::MIN_POSITIVE);
                let u = (t - prev.0) / span;
                return [
                    lerp(prev.1[0], cur.1[0], u),
                    lerp(prev.1[1], cur.1[1], u),
                    lerp(prev.1[2], cur.1[2], u),
                ];
            }
            prev = cur;
        }
        pts[pts.len() - 1].1
    }
}

#[inline]
fn lerp(a: u8, b: u8, t: f64) -> u8 {
    (a as f64 + (b as f64 - a as f64) * t).round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for c in Colormap::all() {
            assert_eq!(Colormap::parse(c.name()).unwrap(), c);
        }
        assert!(Colormap::parse("jet").is_err());
    }

    #[test]
    fn endpoints_match_control_points() {
        assert_eq!(Colormap::Viridis.map(0.0), [68, 1, 84]);
        assert_eq!(Colormap::Viridis.map(1.0), [253, 231, 37]);
        assert_eq!(Colormap::Gray.map(0.0), [0, 0, 0]);
        assert_eq!(Colormap::Gray.map(1.0), [255, 255, 255]);
    }

    #[test]
    fn gray_is_linear() {
        let mid = Colormap::Gray.map(0.5);
        assert_eq!(mid, [128, 128, 128]);
    }

    #[test]
    fn out_of_range_clamps_and_nan_is_gray() {
        assert_eq!(Colormap::Viridis.map(-3.0), Colormap::Viridis.map(0.0));
        assert_eq!(Colormap::Viridis.map(7.0), Colormap::Viridis.map(1.0));
        assert_eq!(Colormap::Terrain.map(f64::NAN), [127, 127, 127]);
    }

    #[test]
    fn interpolation_is_monotone_for_gray() {
        let mut prev = -1i32;
        for i in 0..=100 {
            let v = Colormap::Gray.map(i as f64 / 100.0)[0] as i32;
            assert!(v >= prev);
            prev = v;
        }
    }
}
