//! Dense row-major 2-D raster, the in-memory currency of the whole stack.
//!
//! A `Raster<T>` is what the TIFF reader produces, what GEOtiled kernels
//! consume and emit, what IDX box queries return, and what the dashboard
//! renders. It carries an optional [`GeoTransform`] so geographic provenance
//! survives windowing and resampling.

use crate::dtype::Sample;
use crate::error::{NsdfError, Result};
use crate::geo::{Box2i, GeoTransform};

/// Dense row-major 2-D array of samples with optional geo-referencing.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster<T: Sample> {
    width: usize,
    height: usize,
    data: Vec<T>,
    /// Pixel→world transform, if the raster is geo-referenced.
    pub geo: Option<GeoTransform>,
}

impl<T: Sample> Raster<T> {
    /// A `width x height` raster filled with `fill`.
    pub fn filled(width: usize, height: usize, fill: T) -> Self {
        Raster { width, height, data: vec![fill; width * height], geo: None }
    }

    /// A zero-filled raster.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self::filled(width, height, T::ZERO)
    }

    /// Wrap an existing row-major buffer.
    ///
    /// Errors when `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != width * height {
            return Err(NsdfError::invalid(format!(
                "buffer length {} does not match {width}x{height}",
                data.len()
            )));
        }
        Ok(Raster { width, height, data, geo: None })
    }

    /// Build a raster by evaluating `f(x, y)` at every cell.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Raster { width, height, data, geo: None }
    }

    /// Attach a geotransform (builder style).
    pub fn with_geo(mut self, geo: GeoTransform) -> Self {
        self.geo = Some(geo);
        self
    }

    /// Raster width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raster height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the raster has no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bounding box anchored at the origin.
    pub fn bounds(&self) -> Box2i {
        Box2i::of_size(self.width, self.height)
    }

    /// Borrow the underlying row-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Sample at `(x, y)`; panics out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sample with clamp-to-edge semantics for possibly-negative coordinates;
    /// the access pattern used by convolution stencils at raster borders.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> T {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.get(cx, cy)
    }

    /// Write the sample at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Borrow row `y`.
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Copy out a window. The window must lie inside the raster.
    ///
    /// The result inherits a shifted geotransform when one is attached.
    pub fn window(&self, b: Box2i) -> Result<Raster<T>> {
        if !self.bounds().contains_box(&b) {
            return Err(NsdfError::invalid(format!(
                "window {b:?} exceeds raster bounds {:?}",
                self.bounds()
            )));
        }
        let (w, h) = (b.width() as usize, b.height() as usize);
        let mut out = Vec::with_capacity(w * h);
        for y in b.y0..b.y1 {
            let row = self.row(y as usize);
            out.extend_from_slice(&row[b.x0 as usize..b.x1 as usize]);
        }
        let mut r = Raster::from_vec(w, h, out)?;
        r.geo = self.geo.map(|g| g.for_window(b.x0, b.y0));
        Ok(r)
    }

    /// Paste `src` with its top-left corner at `(x0, y0)`; the region must
    /// fit inside `self`.
    pub fn paste(&mut self, src: &Raster<T>, x0: usize, y0: usize) -> Result<()> {
        if x0 + src.width > self.width || y0 + src.height > self.height {
            return Err(NsdfError::invalid("paste target exceeds raster bounds"));
        }
        for y in 0..src.height {
            let dst_off = (y0 + y) * self.width + x0;
            self.data[dst_off..dst_off + src.width].copy_from_slice(src.row(y));
        }
        Ok(())
    }

    /// Apply `f` to every sample, producing a raster of another sample type.
    pub fn map<U: Sample>(&self, f: impl Fn(T) -> U) -> Raster<U> {
        Raster {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
            geo: self.geo,
        }
    }

    /// Combine two same-shape rasters sample-wise.
    pub fn zip_map<U: Sample, V: Sample>(
        &self,
        other: &Raster<U>,
        f: impl Fn(T, U) -> V,
    ) -> Result<Raster<V>> {
        if self.shape() != other.shape() {
            return Err(NsdfError::invalid(format!(
                "shape mismatch: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        Ok(Raster {
            width: self.width,
            height: self.height,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            geo: self.geo,
        })
    }

    /// Minimum and maximum sample values (as `f64`), ignoring NaNs.
    ///
    /// Returns `None` for empty or all-NaN rasters.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut mm: Option<(f64, f64)> = None;
        for &v in &self.data {
            let f = v.to_f64();
            if f.is_nan() {
                continue;
            }
            mm = Some(match mm {
                None => (f, f),
                Some((lo, hi)) => (lo.min(f), hi.max(f)),
            });
        }
        mm
    }

    /// Downsample by an integer `factor` using block-mean resampling.
    ///
    /// Output dimensions are `ceil(dim / factor)`; edge blocks average the
    /// partial footprint. This is the decimation strategy IDX uses when
    /// serving coarse resolution levels, so dashboard overviews and coarse
    /// queries agree.
    pub fn downsample_mean(&self, factor: u32) -> Raster<T> {
        let f = factor.max(1) as usize;
        if f == 1 {
            return self.clone();
        }
        let ow = self.width.div_ceil(f);
        let oh = self.height.div_ceil(f);
        let mut out = Vec::with_capacity(ow * oh);
        for oy in 0..oh {
            for ox in 0..ow {
                let x_end = ((ox + 1) * f).min(self.width);
                let y_end = ((oy + 1) * f).min(self.height);
                let mut acc = 0.0;
                let mut n = 0.0;
                for y in oy * f..y_end {
                    for x in ox * f..x_end {
                        let v = self.get(x, y).to_f64();
                        if !v.is_nan() {
                            acc += v;
                            n += 1.0;
                        }
                    }
                }
                out.push(T::from_f64(if n > 0.0 { acc / n } else { f64::NAN }));
            }
        }
        let mut r = Raster { width: ow, height: oh, data: out, geo: None };
        r.geo = self.geo.map(|g| g.downsampled(factor));
        r
    }

    /// Bilinear upsample to an exact target shape, used by the dashboard to
    /// stretch a coarse progressive level onto the viewport.
    pub fn resize_bilinear(&self, new_w: usize, new_h: usize) -> Raster<T> {
        assert!(new_w > 0 && new_h > 0 && self.width > 0 && self.height > 0);
        let sx = self.width as f64 / new_w as f64;
        let sy = self.height as f64 / new_h as f64;
        let mut out = Vec::with_capacity(new_w * new_h);
        for oy in 0..new_h {
            let fy = ((oy as f64 + 0.5) * sy - 0.5).max(0.0);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(self.height - 1);
            let ty = fy - y0 as f64;
            for ox in 0..new_w {
                let fx = ((ox as f64 + 0.5) * sx - 0.5).max(0.0);
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(self.width - 1);
                let tx = fx - x0 as f64;
                let v00 = self.get(x0, y0).to_f64();
                let v10 = self.get(x1, y0).to_f64();
                let v01 = self.get(x0, y1).to_f64();
                let v11 = self.get(x1, y1).to_f64();
                let v = v00 * (1.0 - tx) * (1.0 - ty)
                    + v10 * tx * (1.0 - ty)
                    + v01 * (1.0 - tx) * ty
                    + v11 * tx * ty;
                out.push(T::from_f64(v));
            }
        }
        Raster { width: new_w, height: new_h, data: out, geo: self.geo }
    }

    /// Iterate `(x, y, value)` in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let w = self.width;
        self.data.iter().enumerate().map(move |(i, &v)| (i % w, i / w, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Raster<f32> {
        Raster::from_fn(w, h, |x, y| (y * w + x) as f32)
    }

    #[test]
    fn construction_and_access() {
        let r = ramp(4, 3);
        assert_eq!(r.shape(), (4, 3));
        assert_eq!(r.get(0, 0), 0.0);
        assert_eq!(r.get(3, 2), 11.0);
        assert_eq!(r.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Raster::<u8>::from_vec(2, 2, vec![0; 3]).is_err());
        assert!(Raster::<u8>::from_vec(2, 2, vec![0; 4]).is_ok());
    }

    #[test]
    fn clamped_access_at_borders() {
        let r = ramp(3, 3);
        assert_eq!(r.get_clamped(-5, -5), 0.0);
        assert_eq!(r.get_clamped(10, 10), 8.0);
        assert_eq!(r.get_clamped(1, -1), 1.0);
    }

    #[test]
    fn window_extracts_and_shifts_geo() {
        let r = ramp(4, 4).with_geo(GeoTransform::north_up(100.0, 200.0, 1.0));
        let w = r.window(Box2i::new(1, 2, 3, 4)).unwrap();
        assert_eq!(w.shape(), (2, 2));
        assert_eq!(w.data(), &[9.0, 10.0, 13.0, 14.0]);
        let g = w.geo.unwrap();
        assert_eq!((g.x0, g.y0), (101.0, 198.0));
    }

    #[test]
    fn window_out_of_bounds_rejected() {
        let r = ramp(4, 4);
        assert!(r.window(Box2i::new(2, 2, 5, 4)).is_err());
    }

    #[test]
    fn paste_roundtrips_window() {
        let src = ramp(4, 4);
        let w = src.window(Box2i::new(1, 1, 3, 3)).unwrap();
        let mut dst = Raster::<f32>::zeros(4, 4);
        dst.paste(&w, 1, 1).unwrap();
        assert_eq!(dst.get(1, 1), 5.0);
        assert_eq!(dst.get(2, 2), 10.0);
        assert_eq!(dst.get(0, 0), 0.0);
        assert!(dst.paste(&w, 3, 3).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let r = ramp(2, 2);
        let doubled = r.map(|v| v * 2.0);
        assert_eq!(doubled.data(), &[0.0, 2.0, 4.0, 6.0]);
        let sum = r.zip_map(&doubled, |a, b| a + b).unwrap();
        assert_eq!(sum.data(), &[0.0, 3.0, 6.0, 9.0]);
        let other = Raster::<f32>::zeros(3, 2);
        assert!(r.zip_map(&other, |a, _| a).is_err());
    }

    #[test]
    fn min_max_ignores_nan() {
        let mut r = ramp(2, 2);
        r.set(0, 0, f32::NAN);
        assert_eq!(r.min_max(), Some((1.0, 3.0)));
        let all_nan = Raster::<f32>::filled(2, 2, f32::NAN);
        assert_eq!(all_nan.min_max(), None);
    }

    #[test]
    fn downsample_mean_averages_blocks() {
        let r = ramp(4, 4);
        let d = r.downsample_mean(2);
        assert_eq!(d.shape(), (2, 2));
        // Block (0,0) = mean(0,1,4,5) = 2.5
        assert_eq!(d.get(0, 0), 2.5);
        assert_eq!(d.get(1, 1), 12.5);
    }

    #[test]
    fn downsample_handles_non_divisible() {
        let r = ramp(5, 5);
        let d = r.downsample_mean(2);
        assert_eq!(d.shape(), (3, 3));
        // Right-edge block covers a single column.
        assert_eq!(d.get(2, 0), (4.0 + 9.0) / 2.0);
    }

    #[test]
    fn resize_bilinear_identity_shape_preserves() {
        let r = ramp(4, 4);
        let s = r.resize_bilinear(4, 4);
        assert_eq!(r.data(), s.data());
    }

    #[test]
    fn resize_bilinear_upsamples_smoothly() {
        let r = Raster::<f32>::from_fn(2, 1, |x, _| x as f32 * 10.0);
        let s = r.resize_bilinear(4, 1);
        // Monotone ramp from 0 to 10.
        let d = s.data();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
        assert_eq!(d[0], 0.0);
        assert_eq!(d[3], 10.0);
    }

    #[test]
    fn downsample_preserves_geo_scaling() {
        let r = ramp(4, 4).with_geo(GeoTransform::north_up(0.0, 0.0, 30.0));
        let d = r.downsample_mean(2);
        let g = d.geo.unwrap();
        assert_eq!(g.dx, 60.0);
        assert_eq!(g.dy, -60.0);
    }
}
