//! K-nearest-neighbour regression — the model family SOMOSPIE's published
//! pipeline uses for soil-moisture spatial inference (paper ref \[8\]).
//!
//! Features are standardised internally so elevation (thousands of
//! metres) does not drown slope (tens of degrees).
//!
//! # Structure
//!
//! [`KnnRegressor::fit`] builds a k-d tree over the standardised points:
//! a node of more than `LEAF_POINTS` (8) points splits at the median of its
//! widest dimension, and the points are reordered so that every subtree
//! is one contiguous run of a single flat array. A leaf is scanned; a
//! training set of at most `LEAF_POINTS` points is one leaf, so the
//! smallest models *are* the exhaustive scan.
//! [`KnnRegressor::predict`] descends into the child on the query's side
//! first, keeps the `k` best candidates in a sorted list, and skips the
//! other child only when the squared gap to the splitting plane is
//! *strictly greater* than the current `k`-th squared distance. A query of
//! up to `INLINE_DIMS` (8) dimensions and `INLINE_K` (16) neighbours (every
//! caller in this workspace) allocates nothing.
//!
//! # Tie rule
//!
//! Neighbours are ranked by the total order (squared distance, then
//! training index): among equidistant points the one given to `fit` first
//! wins, and the inverse-distance weights are accumulated in that rank
//! order. The strict inequality above is what keeps this exact — a point
//! behind the plane at exactly the `k`-th distance may still win its tie on
//! the index, so its subtree is visited.
//!
//! # Why results are bit-stable
//!
//! The answer is a function of the training set and the query alone, not
//! of the tree's shape. Every squared distance is computed by the one
//! `dist2` expression (dimensions summed in order), the plane gap is a
//! lower bound on it *in floating point* (IEEE subtraction, squaring and
//! the addition of non-negative terms are all monotone), so pruning never
//! drops a point the exhaustive scan would have ranked in the first `k`,
//! and the total order leaves no freedom in which `k` are taken or in what
//! order they are summed. The `#[cfg(test)]` exhaustive scan applies the
//! same order and the tests compare the two bit for bit.

use nsdf_util::{NsdfError, Result};

/// A node with at most this many points is a leaf.
const LEAF_POINTS: usize = 8;
/// Query dimensions `predict` holds on the stack; more spill to a `Vec`.
const INLINE_DIMS: usize = 8;
/// Neighbours `predict` holds on the stack; more spill to a `Vec`.
const INLINE_K: usize = 16;

/// One k-d tree node; `lo..hi` and the children index the regressor's
/// reordered point array and node list.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        lo: usize,
        hi: usize,
    },
    /// Every point under `left` has `coordinate[dim] <= split`, every
    /// point under `right` has `coordinate[dim] >= split`.
    Split {
        dim: usize,
        split: f64,
        left: usize,
        right: usize,
    },
}

/// A candidate neighbour: (squared distance, training index).
type Candidate = (f64, usize);

/// The total order neighbours are taken and summed in.
fn rank(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Squared Euclidean distance, dimensions summed in order.
fn dist2(point: &[f64], query: &[f64]) -> f64 {
    point.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// The `k` best candidates seen so far, sorted by [`rank`].
struct Best<'a> {
    slots: &'a mut [Candidate],
    len: usize,
}

impl Best<'_> {
    /// The `k`-th squared distance, infinite until `k` candidates are held.
    fn kth(&self) -> f64 {
        if self.len < self.slots.len() {
            f64::INFINITY
        } else {
            self.slots[self.len - 1].0
        }
    }

    fn offer(&mut self, cand: Candidate) {
        let full = self.len == self.slots.len();
        if full && rank(&cand, &self.slots[self.len - 1]).is_ge() {
            return;
        }
        let at = self.slots[..self.len].partition_point(|held| rank(held, &cand).is_lt());
        if !full {
            self.len += 1;
        }
        self.slots.copy_within(at..self.len - 1, at + 1);
        self.slots[at] = cand;
    }
}

/// `len` elements of scratch: on the stack when they fit, else in `spill`.
fn scratch<'a, T: Copy + Default, const N: usize>(
    inline: &'a mut [T; N],
    spill: &'a mut Vec<T>,
    len: usize,
) -> &'a mut [T] {
    if len <= N {
        &mut inline[..len]
    } else {
        spill.resize(len, T::default());
        spill
    }
}

/// Inverse-distance weighted mean of `(squared distance, target)` pairs,
/// accumulated in the order given; an exact hit short-circuits.
fn weighted_mean(neighbours: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for (d2, t) in neighbours {
        if d2 <= 1e-24 {
            return t;
        }
        let w = 1.0 / d2.sqrt();
        wsum += w;
        acc += w * t;
    }
    acc / wsum
}

/// A fitted KNN regressor.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    dims: usize,
    /// Standardised training features, row-major, in tree order.
    features: Vec<f64>,
    /// `order[i]` is the training index of row `i` of `features`.
    order: Vec<usize>,
    /// Targets by training index.
    targets: Vec<f64>,
    /// The k-d tree, children before parents: the root is the last node.
    nodes: Vec<Node>,
    /// Per-dimension mean of the raw training features.
    means: Vec<f64>,
    /// Per-dimension standard deviation (>= tiny epsilon).
    stds: Vec<f64>,
}

/// Build the subtree over `order` (training indices into the row-major
/// `rows`), which will sit at `lo..` of the reordered array; returns its
/// node index.
fn build(
    nodes: &mut Vec<Node>,
    rows: &[f64],
    dims: usize,
    order: &mut [usize],
    lo: usize,
) -> usize {
    if order.len() <= LEAF_POINTS {
        nodes.push(Node::Leaf { lo, hi: lo + order.len() });
        return nodes.len() - 1;
    }
    let coord = |i: usize, d: usize| rows[i * dims + d];
    let mut dim = 0;
    let mut widest = f64::NEG_INFINITY;
    for d in 0..dims {
        let (min, max) = order.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), &i| {
            (min.min(coord(i, d)), max.max(coord(i, d)))
        });
        if max - min > widest {
            (dim, widest) = (d, max - min);
        }
    }
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| coord(a, dim).total_cmp(&coord(b, dim)));
    let split = coord(order[mid], dim);
    let (below, above) = order.split_at_mut(mid);
    let left = build(nodes, rows, dims, below, lo);
    let right = build(nodes, rows, dims, above, lo + mid);
    nodes.push(Node::Split { dim, split, left, right });
    nodes.len() - 1
}

impl KnnRegressor {
    /// Fit on `points` of `(feature_vector, target)` pairs. All feature
    /// vectors must share a length and every value must be finite.
    pub fn fit(points: &[(Vec<f64>, f64)]) -> Result<KnnRegressor> {
        let Some(first) = points.first() else {
            return Err(NsdfError::invalid("KNN needs at least one training point"));
        };
        let dims = first.0.len();
        if dims == 0 {
            return Err(NsdfError::invalid("KNN features must be non-empty"));
        }
        if points.iter().any(|(f, _)| f.len() != dims) {
            return Err(NsdfError::invalid("inconsistent feature dimensionality"));
        }
        if points.iter().any(|(f, t)| !t.is_finite() || f.iter().any(|v| !v.is_finite())) {
            return Err(NsdfError::invalid("KNN features and targets must be finite"));
        }
        let n = points.len();
        let mut means = vec![0.0; dims];
        for (f, _) in points {
            for (m, v) in means.iter_mut().zip(f) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut stds = vec![0.0; dims];
        for (f, _) in points {
            for d in 0..dims {
                stds[d] += (f[d] - means[d]).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt().max(1e-12);
        }
        // A finite spread means every mean and centred value was finite too.
        if stds.iter().any(|s| !s.is_finite()) {
            return Err(NsdfError::invalid("KNN feature spread overflows f64"));
        }
        let mut rows = Vec::with_capacity(n * dims);
        for (f, _) in points {
            for d in 0..dims {
                rows.push((f[d] - means[d]) / stds[d]);
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut nodes = Vec::new();
        build(&mut nodes, &rows, dims, &mut order, 0);
        let features =
            order.iter().flat_map(|&i| &rows[i * dims..(i + 1) * dims]).copied().collect();
        let targets = points.iter().map(|(_, t)| *t).collect();
        Ok(KnnRegressor { dims, features, order, targets, nodes, means, stds })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the model holds no training data (never constructible).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    fn standardise(&self, x: &[f64], out: &mut [f64]) {
        for d in 0..self.dims {
            out[d] = (x[d] - self.means[d]) / self.stds[d];
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.dims..(i + 1) * self.dims]
    }

    fn search(&self, node: usize, query: &[f64], best: &mut Best) {
        match self.nodes[node] {
            Node::Leaf { lo, hi } => {
                for i in lo..hi {
                    best.offer((dist2(self.row(i), query), self.order[i]));
                }
            }
            Node::Split { dim, split, left, right } => {
                let (near, far) = if query[dim] < split { (left, right) } else { (right, left) };
                self.search(near, query, best);
                let gap = query[dim] - split;
                // Strictly greater: a far point at exactly the k-th
                // distance can still win its tie on the training index. A
                // NaN gap compares false and the walk visits everything.
                if gap * gap > best.kth() {
                    return;
                }
                self.search(far, query, best);
            }
        }
    }

    /// Predict at `x` using the `k` nearest training points, weighted by
    /// inverse distance (an exact neighbour dominates). Equidistant
    /// points rank by training index; a non-finite `x` predicts NaN.
    pub fn predict(&self, x: &[f64], k: usize) -> Result<f64> {
        if x.len() != self.dims {
            return Err(NsdfError::invalid(format!(
                "query has {} dims, model has {}",
                x.len(),
                self.dims
            )));
        }
        if k == 0 {
            return Err(NsdfError::invalid("k must be positive"));
        }
        let (mut inline_q, mut spill_q) = ([0.0; INLINE_DIMS], Vec::new());
        let query = scratch(&mut inline_q, &mut spill_q, self.dims);
        self.standardise(x, query);
        let (mut inline_best, mut spill_best) = ([Candidate::default(); INLINE_K], Vec::new());
        let slots = scratch(&mut inline_best, &mut spill_best, k.min(self.len()));
        let mut best = Best { slots, len: 0 };
        self.search(self.nodes.len() - 1, query, &mut best);
        Ok(weighted_mean(best.slots[..best.len].iter().map(|&(d2, i)| (d2, self.targets[i]))))
    }

    /// The exhaustive scan [`KnnRegressor::predict`] must equal bit for
    /// bit on a valid query: every distance, the same total order, the
    /// same summation.
    #[cfg(test)]
    pub(crate) fn predict_exhaustive(&self, x: &[f64], k: usize) -> f64 {
        let mut query = vec![0.0; self.dims];
        self.standardise(x, &mut query);
        let mut all: Vec<Candidate> =
            (0..self.len()).map(|i| (dist2(self.row(i), &query), self.order[i])).collect();
        let k = k.min(all.len());
        all.select_nth_unstable_by(k - 1, rank);
        all.truncate(k);
        all.sort_unstable_by(rank);
        weighted_mean(all.iter().map(|&(d2, i)| (d2, self.targets[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(f: impl Fn(f64, f64) -> f64) -> Vec<(Vec<f64>, f64)> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64, j as f64);
                pts.push((vec![x, y], f(x, y)));
            }
        }
        pts
    }

    #[test]
    fn exact_training_points_reproduced_with_k1() {
        let pts = grid_points(|x, y| x * 2.0 + y);
        let m = KnnRegressor::fit(&pts).unwrap();
        for (f, t) in pts.iter().step_by(37) {
            assert_eq!(m.predict(f, 1).unwrap(), *t);
        }
    }

    #[test]
    fn interpolates_smooth_fields() {
        let pts = grid_points(|x, y| (x * 0.3).sin() + (y * 0.2).cos());
        let m = KnnRegressor::fit(&pts).unwrap();
        let truth = (7.5f64 * 0.3).sin() + (3.5f64 * 0.2).cos();
        let pred = m.predict(&[7.5, 3.5], 4).unwrap();
        assert!((pred - truth).abs() < 0.1, "pred {pred} truth {truth}");
    }

    #[test]
    fn standardisation_balances_scales() {
        // Same information in both dims, but dim 0 is scaled by 1e6; an
        // unstandardised KNN would ignore dim 1 (harmless here) — verify
        // predictions remain sane when querying between points.
        let pts: Vec<(Vec<f64>, f64)> =
            (0..100).map(|i| (vec![i as f64 * 1e6, i as f64], i as f64)).collect();
        let m = KnnRegressor::fit(&pts).unwrap();
        let p = m.predict(&[55.3e6, 55.3], 2).unwrap();
        assert!((p - 55.3).abs() < 0.6, "p={p}");
    }

    #[test]
    fn k_larger_than_train_set_clamps() {
        let pts = vec![(vec![0.0], 1.0), (vec![1.0], 3.0)];
        let m = KnnRegressor::fit(&pts).unwrap();
        let p = m.predict(&[0.5], 100).unwrap();
        assert!((p - 2.0).abs() < 1e-9); // equidistant -> plain mean
    }

    #[test]
    fn validation_errors() {
        assert!(KnnRegressor::fit(&[]).is_err());
        assert!(KnnRegressor::fit(&[(vec![], 0.0)]).is_err());
        assert!(KnnRegressor::fit(&[(vec![1.0], 0.0), (vec![1.0, 2.0], 0.0)]).is_err());
        let m = KnnRegressor::fit(&[(vec![0.0], 1.0)]).unwrap();
        assert!(m.predict(&[0.0, 0.0], 1).is_err());
        assert!(m.predict(&[0.0], 0).is_err());
    }

    #[test]
    fn rmse_zero_on_training_data_k1() {
        let pts = grid_points(|x, y| x - y);
        let m = KnnRegressor::fit(&pts).unwrap();
        let ss: f64 = pts.iter().map(|(f, t)| (m.predict(f, 1).unwrap() - t).powi(2)).sum();
        assert_eq!((ss / pts.len() as f64).sqrt(), 0.0);
    }

    #[test]
    fn constant_feature_dimension_is_harmless() {
        let pts: Vec<(Vec<f64>, f64)> =
            (0..50).map(|i| (vec![i as f64, 7.0], i as f64 * 2.0)).collect();
        let m = KnnRegressor::fit(&pts).unwrap();
        let p = m.predict(&[10.0, 7.0], 1).unwrap();
        assert_eq!(p, 20.0);
    }

    #[test]
    fn fit_rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let feature = KnnRegressor::fit(&[(vec![0.0, 1.0], 1.0), (vec![bad, 2.0], 2.0)]);
            assert!(matches!(feature, Err(NsdfError::InvalidArg(_))), "feature {bad}");
            let target = KnnRegressor::fit(&[(vec![0.0, 1.0], 1.0), (vec![1.0, 2.0], bad)]);
            assert!(matches!(target, Err(NsdfError::InvalidArg(_))), "target {bad}");
        }
        // Finite inputs whose mean or spread is not: the standardised rows
        // would be NaN, or all collapse to zero.
        for pair in [[f64::MAX, f64::MAX], [f64::MAX, f64::MIN]] {
            let overflow = KnnRegressor::fit(&[(vec![pair[0]], 0.0), (vec![pair[1]], 1.0)]);
            assert!(matches!(overflow, Err(NsdfError::InvalidArg(_))), "{pair:?}");
        }
    }

    #[test]
    fn non_finite_query_predicts_nan_and_terminates() {
        // Deep enough that the walk crosses many splitting planes.
        let pts = grid_points(|x, y| x + y);
        let m = KnnRegressor::fit(&pts).unwrap();
        assert!(m.nodes.len() > 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for q in [[bad, 3.0], [3.0, bad], [bad, bad]] {
                for k in [1, 5, 1000] {
                    assert!(m.predict(&q, k).unwrap().is_nan(), "query {q:?} k {k}");
                }
            }
        }
    }

    #[test]
    fn at_most_one_leaf_of_points_is_the_scan() {
        let pts: Vec<(Vec<f64>, f64)> =
            (0..LEAF_POINTS).map(|i| (vec![i as f64, (i * i) as f64], i as f64)).collect();
        let m = KnnRegressor::fit(&pts).unwrap();
        assert!(matches!(m.nodes[..], [Node::Leaf { lo: 0, hi: LEAF_POINTS }]));
    }

    #[test]
    fn equidistant_neighbours_rank_by_training_index() {
        // Four copies of one point with different targets, then a far one:
        // k = 2 must take the first two given to `fit`, whatever the tree
        // did with them.
        let mut pts: Vec<(Vec<f64>, f64)> = (0..40).map(|i| (vec![1.0, 1.0], i as f64)).collect();
        pts.push((vec![9.0, 9.0], 100.0));
        let m = KnnRegressor::fit(&pts).unwrap();
        let p = m.predict(&[2.0, 1.0], 2).unwrap();
        assert_eq!(p, 0.5);
        assert_eq!(p.to_bits(), m.predict_exhaustive(&[2.0, 1.0], 2).to_bits());
    }

    /// Training sets built to stress the tie rule: `mode` 0 is continuous,
    /// 1 an integer lattice (exact distance ties), 2 the lattice with a
    /// constant first dimension, 3 copies of three points (duplicates with
    /// different targets).
    fn training_set(dims: usize, n: usize, mode: u8, raw: &[u32]) -> Vec<(Vec<f64>, f64)> {
        let value = |i: usize, d: usize| {
            let r = raw[(i * dims + d) % raw.len()];
            match mode {
                0 => r as f64 / u32::MAX as f64 * 200.0 - 100.0,
                2 if d == 0 => 7.0,
                1 | 2 => (r % 4) as f64,
                _ => (raw[(r as usize % 3 * dims + d) % raw.len()] % 4) as f64,
            }
        };
        (0..n)
            .map(|i| {
                (
                    (0..dims).map(|d| value(i, d)).collect(),
                    raw[(i * 31 + 7) % raw.len()] as f64 / 1e6,
                )
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn predict_equals_exhaustive_scan_bitwise(
            dims in 1usize..=10, // 1-6 as tiles use, and past INLINE_DIMS
            n in 1usize..=150,
            mode in 0u8..4,
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 256),
        ) {
            let pts = training_set(dims, n, mode, &raw);
            let m = KnnRegressor::fit(&pts).unwrap();
            // Queries: training points (exact hits), lattice mid-points
            // (equidistant from two cells) and points of another draw.
            let mut queries: Vec<Vec<f64>> = pts.iter().step_by(17).map(|(f, _)| f.clone()).collect();
            queries.extend(pts.iter().step_by(23).map(|(f, _)| f.iter().map(|v| v + 0.5).collect()));
            queries.extend(training_set(dims, 4, 0, &raw[1..]).into_iter().map(|(f, _)| f));
            for q in &queries {
                for k in [1, 2, 5, INLINE_K + 1, n, n + 3] {
                    let tree = m.predict(q, k).unwrap();
                    let scan = m.predict_exhaustive(q, k);
                    proptest::prop_assert_eq!(
                        tree.to_bits(), scan.to_bits(),
                        "dims {} n {} mode {} k {} query {:?}: {} vs {}", dims, n, mode, k, q, tree, scan
                    );
                }
            }
        }
    }
}
