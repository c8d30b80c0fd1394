//! Geospatial primitives: integer boxes, affine geotransforms, great-circle
//! distance.
//!
//! `Box2i` is the half-open axis-aligned rectangle used for raster windows,
//! IDX box queries, and dashboard crops. `GeoTransform` mirrors the GDAL
//! convention (origin + per-pixel step) used by GeoTIFF. `haversine_km` backs
//! the NSDF-Plugin testbed model.

/// Half-open axis-aligned 2-D integer box: `x0 <= x < x1`, `y0 <= y < y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box2i {
    /// Inclusive minimum x.
    pub x0: i64,
    /// Inclusive minimum y.
    pub y0: i64,
    /// Exclusive maximum x.
    pub x1: i64,
    /// Exclusive maximum y.
    pub y1: i64,
}

impl Box2i {
    /// Build a box from its corners; normalizes so that `x0 <= x1`, `y0 <= y1`.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Box2i { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Box covering a full `width x height` raster anchored at the origin.
    pub fn of_size(width: usize, height: usize) -> Self {
        Box2i::new(0, 0, width as i64, height as i64)
    }

    /// Width (`>= 0`).
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height (`>= 0`).
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Number of cells covered.
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// True when the box covers no cells.
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }

    /// True when `(x, y)` lies inside the half-open box.
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// True when `other` is fully inside `self`.
    pub fn contains_box(&self, other: &Box2i) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1)
    }

    /// Intersection; `None` when the boxes do not overlap.
    pub fn intersect(&self, other: &Box2i) -> Option<Box2i> {
        let b = Box2i {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if b.is_empty() {
            None
        } else {
            Some(b)
        }
    }

    /// Grow the box by `margin` cells on every side (shrink when negative).
    pub fn inflate(&self, margin: i64) -> Box2i {
        Box2i::new(self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)
    }

    /// Iterate over every `(x, y)` cell in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let b = *self;
        (b.y0..b.y1).flat_map(move |y| (b.x0..b.x1).map(move |x| (x, y)))
    }
}

/// Affine pixel→world transform following the GeoTIFF/GDAL convention.
///
/// World coordinates of the *center* of pixel `(col, row)` are
/// `(x0 + (col + 0.5) * dx, y0 + (row + 0.5) * dy)`; `dy` is typically
/// negative for north-up rasters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoTransform {
    /// World x of the raster's top-left corner.
    pub x0: f64,
    /// World y of the raster's top-left corner.
    pub y0: f64,
    /// Pixel width in world units.
    pub dx: f64,
    /// Pixel height in world units (negative for north-up).
    pub dy: f64,
}

impl GeoTransform {
    /// North-up transform with square `pixel_size` and top-left `(x0, y0)`.
    pub fn north_up(x0: f64, y0: f64, pixel_size: f64) -> Self {
        GeoTransform { x0, y0, dx: pixel_size, dy: -pixel_size }
    }

    /// Transform for a window of this raster whose top-left pixel is
    /// `(col0, row0)` in the parent.
    pub fn for_window(&self, col0: i64, row0: i64) -> GeoTransform {
        GeoTransform {
            x0: self.x0 + col0 as f64 * self.dx,
            y0: self.y0 + row0 as f64 * self.dy,
            dx: self.dx,
            dy: self.dy,
        }
    }

    /// Transform for the same extent downsampled by integer `factor`.
    pub(crate) fn downsampled(&self, factor: u32) -> GeoTransform {
        let f = factor.max(1) as f64;
        GeoTransform { x0: self.x0, y0: self.y0, dx: self.dx * f, dy: self.dy * f }
    }
}

/// A geographic point in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Construct, clamping latitude to `[-90, 90]` and wrapping longitude
    /// into `[-180, 180)`.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        LatLon { lat, lon: lon - 180.0 }
    }
}

/// Great-circle distance between two points, in kilometres (mean Earth
/// radius 6371 km). Used by the NSDF-Plugin testbed to derive base RTTs.
pub fn haversine_km(a: LatLon, b: LatLon) -> f64 {
    const R_KM: f64 = 6371.0;
    let (la1, la2) = (a.lat.to_radians(), b.lat.to_radians());
    let dla = (b.lat - a.lat).to_radians();
    let dlo = (b.lon - a.lon).to_radians();
    let h = (dla / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlo / 2.0).sin().powi(2);
    2.0 * R_KM * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_normalizes_corners() {
        let b = Box2i::new(10, 20, 0, 5);
        assert_eq!(b, Box2i { x0: 0, y0: 5, x1: 10, y1: 20 });
        assert_eq!(b.width(), 10);
        assert_eq!(b.height(), 15);
        assert_eq!(b.area(), 150);
    }

    #[test]
    fn box_intersection() {
        let a = Box2i::new(0, 0, 10, 10);
        let b = Box2i::new(5, 5, 15, 15);
        assert_eq!(a.intersect(&b), Some(Box2i::new(5, 5, 10, 10)));
        let c = Box2i::new(20, 20, 30, 30);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn box_contains_half_open() {
        let b = Box2i::new(0, 0, 4, 4);
        assert!(b.contains(0, 0));
        assert!(b.contains(3, 3));
        assert!(!b.contains(4, 3));
        assert!(!b.contains(-1, 0));
        assert!(b.contains_box(&Box2i::new(1, 1, 4, 4)));
        assert!(!b.contains_box(&Box2i::new(1, 1, 5, 4)));
    }

    #[test]
    fn box_cells_row_major() {
        let b = Box2i::new(1, 1, 3, 3);
        let cells: Vec<_> = b.cells().collect();
        assert_eq!(cells, vec![(1, 1), (2, 1), (1, 2), (2, 2)]);
    }

    #[test]
    fn inflate_grows_and_shrinks() {
        let b = Box2i::new(2, 2, 4, 4).inflate(2);
        assert_eq!(b, Box2i::new(0, 0, 6, 6));
        assert_eq!(b.inflate(-1), Box2i::new(1, 1, 5, 5));
    }

    #[test]
    fn geotransform_window_and_downsample() {
        let gt = GeoTransform::north_up(0.0, 0.0, 1.0);
        let w = gt.for_window(10, 5);
        assert_eq!((w.x0, w.y0), (10.0, -5.0));
        let d = gt.downsampled(4);
        assert_eq!(d.dx, 4.0);
        assert_eq!(d.dy, -4.0);
    }

    #[test]
    fn haversine_known_distance() {
        // Salt Lake City to Knoxville is roughly 2410 km.
        let slc = LatLon::new(40.76, -111.89);
        let knox = LatLon::new(35.96, -83.92);
        let d = haversine_km(slc, knox);
        assert!((2300.0..2500.0).contains(&d), "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let p = LatLon::new(10.0, 20.0);
        assert!(haversine_km(p, p) < 1e-9);
    }

    #[test]
    fn latlon_wraps() {
        let p = LatLon::new(95.0, 190.0);
        assert_eq!(p.lat, 90.0);
        assert!((p.lon - -170.0).abs() < 1e-9);
    }
}

/// Half-open axis-aligned 3-D integer box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box3i {
    /// Inclusive minimum x.
    pub x0: i64,
    /// Inclusive minimum y.
    pub y0: i64,
    /// Inclusive minimum z.
    pub z0: i64,
    /// Exclusive maximum x.
    pub x1: i64,
    /// Exclusive maximum y.
    pub y1: i64,
    /// Exclusive maximum z.
    pub z1: i64,
}

impl Box3i {
    /// Build from corners, normalizing so minima precede maxima.
    pub fn new(x0: i64, y0: i64, z0: i64, x1: i64, y1: i64, z1: i64) -> Self {
        Box3i {
            x0: x0.min(x1),
            y0: y0.min(y1),
            z0: z0.min(z1),
            x1: x0.max(x1),
            y1: y0.max(y1),
            z1: z0.max(z1),
        }
    }

    /// Box covering a `w x h x d` volume anchored at the origin.
    pub fn of_size(w: usize, h: usize, d: usize) -> Self {
        Box3i::new(0, 0, 0, w as i64, h as i64, d as i64)
    }

    /// Extent along x.
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Extent along y.
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Extent along z.
    pub fn depth(&self) -> i64 {
        self.z1 - self.z0
    }

    /// Number of cells covered.
    pub fn volume(&self) -> i64 {
        self.width() * self.height() * self.depth()
    }

    /// True when the box covers no cells.
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0 || self.z1 <= self.z0
    }

    /// True when `(x, y, z)` lies inside the half-open box.
    pub fn contains(&self, x: i64, y: i64, z: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1 && z >= self.z0 && z < self.z1
    }

    /// True when `other` is fully inside `self`.
    pub fn contains_box(&self, other: &Box3i) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1
                && other.z0 >= self.z0
                && other.z1 <= self.z1)
    }

    /// Intersection; `None` when disjoint.
    pub fn intersect(&self, other: &Box3i) -> Option<Box3i> {
        let b = Box3i {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            z0: self.z0.max(other.z0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            z1: self.z1.min(other.z1),
        };
        if b.is_empty() {
            None
        } else {
            Some(b)
        }
    }

    /// The z-slice of this box at depth `z` as a 2-D box, when inside.
    pub fn slice_z(&self, z: i64) -> Option<Box2i> {
        if z < self.z0 || z >= self.z1 {
            return None;
        }
        Some(Box2i { x0: self.x0, y0: self.y0, x1: self.x1, y1: self.y1 })
    }
}

/// A 2-D box is the 3-D box one sample deep, on the plane `z = 0`.
impl From<Box2i> for Box3i {
    fn from(b: Box2i) -> Box3i {
        Box3i { x0: b.x0, y0: b.y0, z0: 0, x1: b.x1, y1: b.y1, z1: 1 }
    }
}

#[cfg(test)]
mod box3_tests {
    use super::*;

    #[test]
    fn normalization_and_measures() {
        let b = Box3i::new(4, 4, 4, 0, 0, 0);
        assert_eq!(b, Box3i::of_size(4, 4, 4));
        assert_eq!(b.volume(), 64);
        assert_eq!((b.width(), b.height(), b.depth()), (4, 4, 4));
        assert!(!b.is_empty());
    }

    #[test]
    fn containment_and_intersection() {
        let a = Box3i::of_size(10, 10, 10);
        assert!(a.contains(0, 0, 0));
        assert!(!a.contains(10, 0, 0));
        assert!(a.contains_box(&Box3i::new(1, 1, 1, 5, 5, 5)));
        let b = Box3i::new(5, 5, 5, 15, 15, 15);
        assert_eq!(a.intersect(&b), Some(Box3i::new(5, 5, 5, 10, 10, 10)));
        let c = Box3i::new(20, 20, 20, 30, 30, 30);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn z_slice_projects() {
        let b = Box3i::new(1, 2, 3, 5, 6, 7);
        assert_eq!(b.slice_z(3), Some(Box2i::new(1, 2, 5, 6)));
        assert_eq!(b.slice_z(7), None);
        assert_eq!(b.slice_z(2), None);
    }
}
