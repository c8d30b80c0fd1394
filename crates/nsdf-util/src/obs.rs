//! Unified observability: a thread-safe metrics registry plus hierarchical
//! spans timed against the deterministic virtual clock.
//!
//! Every layer of the stack (WAN stores, caches, retries, IDX queries,
//! GEOtiled workers, dashboard frames) registers named counters, gauges and
//! fixed-bucket histograms in one shared [`Obs`] registry, and opens
//! [`SpanGuard`] spans around its hot paths. Because spans are stamped with
//! the *virtual* clock ([`SimClock`]), traces are byte-for-byte reproducible
//! under test: two identically-seeded runs yield identical
//! [`MetricsSnapshot`] JSON and identical span trees.
//!
//! Determinism rules baked into the design:
//!
//! * all registry state accumulates in integer atomics (u64 adds commute),
//!   including histogram sums, which are kept in fixed-point nanounits —
//!   thread scheduling cannot perturb a floating-point sum that was never
//!   computed in floating point;
//! * snapshots serialize through [`std::collections::BTreeMap`], so key
//!   order is stable;
//! * wall-clock time is *displayed* on span trees for humans but excluded
//!   from [`MetricsSnapshot::to_json`] and [`Obs::spans_json`].

use crate::clock::SimClock;
use crate::json::JsonValue;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonically increasing integer metric.
///
/// Handles are cheap clones of a shared atomic; a handle stays valid (and
/// keeps feeding the same registry slot) for the life of the [`Obs`] that
/// issued it.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins floating-point metric (stored as f64 bit pattern).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Fixed-bucket histogram metric.
///
/// Bucket `i` counts observations `v <= bounds[i]`; one implicit overflow
/// bucket counts the rest. The running sum is accumulated in integer
/// nanounits (`round(v * 1e9)`) so concurrent observations commute and the
/// serialized sum is deterministic under any thread interleaving.
#[derive(Debug, Clone)]
pub struct HistogramMetric {
    bounds: Arc<Vec<f64>>,
    counts: Arc<Vec<AtomicU64>>,
    sum_nanos: Arc<AtomicU64>,
}

impl HistogramMetric {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramMetric {
            bounds: Arc::new(bounds.to_vec()),
            counts: Arc::new(counts),
            sum_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let nanos = if v <= 0.0 { 0 } else { (v * 1e9).round() as u64 };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values (reconstructed from the nanounit accumulator).
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Reset all buckets and the sum to zero.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_nanos.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.as_ref().clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
        }
    }
}

/// One span as recorded: label, tree position, virtual bounds, wall cost.
#[derive(Debug, Clone)]
struct SpanRecord {
    label: String,
    parent: Option<usize>,
    start_vns: u64,
    end_vns: u64,
    wall_secs: f64,
    open: bool,
}

#[derive(Debug, Default)]
struct SpanLog {
    records: Vec<SpanRecord>,
    /// Indices of currently-open spans, innermost last. New spans parent to
    /// the top of this stack, which is why spans should be opened on the
    /// query/caller thread, not inside parallel workers.
    stack: Vec<usize>,
}

/// RAII guard for an open span; records end time (virtual) and wall cost on
/// drop. Obtain via [`Obs::span`].
#[derive(Debug)]
pub struct SpanGuard {
    inner: Arc<ObsInner>,
    idx: usize,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_vns = self.inner.clock.now_ns();
        let wall_secs = self.started.elapsed().as_secs_f64();
        let mut log = self.inner.spans.lock();
        if let Some(r) = log.records.get_mut(self.idx) {
            r.end_vns = end_vns;
            r.wall_secs = wall_secs;
            r.open = false;
        }
        // Search from the top so out-of-order drops (guards held across
        // sibling spans) still unlink the right entry.
        if let Some(pos) = log.stack.iter().rposition(|&i| i == self.idx) {
            log.stack.remove(pos);
        }
    }
}

/// One node of the reconstructed span tree (see [`Obs::span_tree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Fully scoped span label, e.g. `seal.idx.read_box`.
    pub label: String,
    /// Span start, virtual nanoseconds.
    pub start_vns: u64,
    /// Span end, virtual nanoseconds.
    pub end_vns: u64,
    /// Wall-clock cost of the span (non-deterministic; display only).
    pub wall_secs: f64,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Span duration in virtual seconds.
    pub fn virtual_secs(&self) -> f64 {
        self.end_vns.saturating_sub(self.start_vns) as f64 / 1e9
    }
}

#[derive(Debug)]
struct ObsInner {
    clock: SimClock,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, HistogramMetric>>,
    spans: Mutex<SpanLog>,
}

/// Handle to a shared observability registry.
///
/// Clones share state; [`Obs::scoped`] derives a handle whose metric and
/// span names are prefixed (`"seal"` + `"wan.bytes_down"` →
/// `"seal.wan.bytes_down"`), which is how per-endpoint stores share one
/// registry without name collisions.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
    scope: String,
}

impl Default for Obs {
    /// Registry on a fresh private clock. Components use this when no
    /// shared registry is wired in, so instrumentation is always live.
    fn default() -> Self {
        Obs::new(SimClock::new())
    }
}

impl Obs {
    /// New unscoped registry stamping spans against `clock`.
    ///
    /// Share the clock with the WAN stores being observed, otherwise spans
    /// will not see virtual time advance.
    pub fn new(clock: SimClock) -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(SpanLog::default()),
            }),
            scope: String::new(),
        }
    }

    /// The virtual clock spans are stamped against.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// This handle's scope prefix (empty for the root handle).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Derive a handle on the same registry with `scope` appended to the
    /// name prefix.
    pub fn scoped(&self, scope: &str) -> Obs {
        Obs { inner: Arc::clone(&self.inner), scope: self.full_name(scope) }
    }

    fn full_name(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.scope, name)
        }
    }

    /// Get or register the counter `name` (scoped).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.counters.lock().entry(self.full_name(name)).or_default().clone()
    }

    /// Get or register the gauge `name` (scoped).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.gauges.lock().entry(self.full_name(name)).or_default().clone()
    }

    /// Get or register the fixed-bucket histogram `name` (scoped). `bounds`
    /// must be strictly increasing; they are fixed at first registration
    /// (later calls with different bounds return the existing histogram).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> HistogramMetric {
        self.inner
            .histograms
            .lock()
            .entry(self.full_name(name))
            .or_insert_with(|| HistogramMetric::new(bounds))
            .clone()
    }

    /// Open a span labelled `label` (scoped), parented to the innermost
    /// currently-open span. Closes (and timestamps) when the guard drops.
    ///
    /// Open spans only from query/caller threads: the parent is tracked via
    /// a registry-wide stack, so spans opened concurrently from parallel
    /// workers would race for parentage.
    pub fn span(&self, label: &str) -> SpanGuard {
        let start_vns = self.inner.clock.now_ns();
        let mut log = self.inner.spans.lock();
        let parent = log.stack.last().copied();
        let idx = log.records.len();
        log.records.push(SpanRecord {
            label: self.full_name(label),
            parent,
            start_vns,
            end_vns: start_vns,
            wall_secs: 0.0,
            open: true,
        });
        log.stack.push(idx);
        drop(log);
        SpanGuard { inner: Arc::clone(&self.inner), idx, started: Instant::now() }
    }

    /// Record an instantaneous event: a zero-duration span stamped at the
    /// current virtual time, parented like [`Obs::span`]. State transitions
    /// (circuit breaker opening, degradation decisions) use this so they
    /// land on the span timeline without holding a guard across calls.
    pub fn event(&self, label: &str) {
        drop(self.span(label));
    }

    /// Reset every metric whose name falls under this handle's scope
    /// (all metrics for the root handle). Registrations and handles stay
    /// valid; values return to zero. Spans are unaffected (see
    /// [`Obs::clear_spans`]).
    pub fn reset(&self) {
        let under = |name: &str| {
            self.scope.is_empty()
                || name == self.scope
                || (name.starts_with(&self.scope)
                    && name.as_bytes().get(self.scope.len()) == Some(&b'.'))
        };
        for (name, c) in self.inner.counters.lock().iter() {
            if under(name) {
                c.reset();
            }
        }
        for (name, g) in self.inner.gauges.lock().iter() {
            if under(name) {
                g.reset();
            }
        }
        for (name, h) in self.inner.histograms.lock().iter() {
            if under(name) {
                h.reset();
            }
        }
    }

    /// Drop all recorded spans (open guards keep working; they just no
    /// longer resolve to a record).
    pub fn clear_spans(&self) {
        let mut log = self.inner.spans.lock();
        log.records.clear();
        log.stack.clear();
    }

    /// Point-in-time copy of the whole registry (all scopes).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self.inner.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Reconstruct the forest of recorded spans (closed or still open), in
    /// recording order, with parent/child nesting.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        let records = self.inner.spans.lock().records.clone();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match r.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn build(i: usize, records: &[SpanRecord], children: &[Vec<usize>]) -> SpanNode {
            let r = &records[i];
            SpanNode {
                label: r.label.clone(),
                start_vns: r.start_vns,
                end_vns: r.end_vns,
                wall_secs: r.wall_secs,
                children: children[i].iter().map(|&c| build(c, records, children)).collect(),
            }
        }
        roots.into_iter().map(|i| build(i, &records, &children)).collect()
    }

    /// Human-readable ASCII rendering of the span forest, two-space
    /// indented, showing virtual and wall time per span.
    pub fn render_spans(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{label:w$} virtual {v:>9.4}s  wall {wall:>8.4}s\n",
                label = node.label,
                w = 46usize.saturating_sub(indent.len()),
                v = node.virtual_secs(),
                wall = node.wall_secs,
            ));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for root in self.span_tree() {
            walk(&root, 0, &mut out);
        }
        out
    }

    /// The span forest as a JSON document: labels, virtual start and
    /// duration only (wall time deliberately excluded).
    pub fn spans_json(&self) -> JsonValue {
        fn node(n: &SpanNode) -> JsonValue {
            JsonValue::obj([
                ("children", n.children.iter().map(node).collect()),
                ("dur_vns", n.end_vns.saturating_sub(n.start_vns).into()),
                ("label", n.label.as_str().into()),
                ("start_vns", n.start_vns.into()),
            ])
        }
        self.span_tree().iter().map(node).collect()
    }
}

/// Point-in-time copy of a registry: name → value maps with stable
/// (sorted) ordering, and a byte-stable JSON encoding.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by full name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by full name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Frozen state of one [`HistogramMetric`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (the overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of observations (exact: reconstructed from integer nanounits).
    pub sum: f64,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, or 0.0 if never registered.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of one counter `name` across every scope that ends with it:
    /// `sum_counter_across_scopes("retry.retries")` adds
    /// `t000.retry.retries`, `t001.retry.retries`, … — the fleet-wide
    /// total of a per-tenant counter.
    pub fn sum_counter_across_scopes(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name || k.ends_with(name) && k[..k.len() - name.len()].ends_with('.')
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// The snapshot as a JSON document. Floats are written in Rust's
    /// shortest round-trip form, so two snapshots of identically-seeded
    /// runs render to identical bytes.
    pub fn to_json(&self) -> JsonValue {
        fn map<V>(m: &BTreeMap<String, V>, value: impl Fn(&V) -> JsonValue) -> JsonValue {
            JsonValue::Obj(m.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        JsonValue::obj([
            ("counters", map(&self.counters, |&c| c.into())),
            ("gauges", map(&self.gauges, |&g| g.into())),
            (
                "histograms",
                map(&self.histograms, |h| {
                    JsonValue::obj([
                        ("bounds", h.bounds.iter().copied().collect()),
                        ("counts", h.counts.iter().copied().collect()),
                        ("sum", h.sum.into()),
                    ])
                }),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let obs = Obs::default();
        let a = obs.counter("reads");
        let b = obs.counter("reads");
        a.add(3);
        b.inc();
        assert_eq!(obs.counter("reads").get(), 4);
        assert_eq!(obs.snapshot().counter("reads"), 4);
        assert_eq!(obs.snapshot().counter("never"), 0);
    }

    #[test]
    fn scoped_handles_prefix_names_on_shared_registry() {
        let obs = Obs::default();
        let seal = obs.scoped("seal");
        let wan = seal.scoped("wan");
        wan.counter("bytes_down").add(10);
        assert_eq!(obs.snapshot().counter("seal.wan.bytes_down"), 10);
        // Root handle sees the same slot under the full name.
        assert_eq!(obs.counter("seal.wan.bytes_down").get(), 10);
    }

    #[test]
    fn sum_counter_across_scopes_totals_per_tenant_metrics() {
        let obs = Obs::default();
        obs.counter("t000.retry.retries").add(2);
        obs.counter("t001.retry.retries").add(5);
        obs.counter("retry.retries").add(1); // unscoped root counter
        obs.counter("t001.retry.retries_total").add(99); // different metric
        let snap = obs.snapshot();
        assert_eq!(snap.sum_counter_across_scopes("retry.retries"), 8);
    }

    #[test]
    fn gauge_set_get() {
        let obs = Obs::default();
        let g = obs.gauge("resident");
        g.set(1.5);
        assert_eq!(obs.gauge("resident").get(), 1.5);
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_exact_sum() {
        let obs = Obs::default();
        let h = obs.histogram("lat", &[0.1, 1.0]);
        h.observe(0.05); // bucket 0
        h.observe(0.1); // bucket 0 (v <= bound)
        h.observe(0.5); // bucket 1
        h.observe(2.0); // overflow
        let snap = obs.snapshot();
        let hs = &snap.histograms["lat"];
        assert_eq!(hs.counts, vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 2.65).abs() < 1e-12);
    }

    #[test]
    fn scoped_reset_only_clears_own_prefix() {
        let obs = Obs::default();
        obs.scoped("a").counter("x").add(5);
        obs.scoped("ab").counter("x").add(7);
        obs.scoped("a").reset();
        assert_eq!(obs.snapshot().counter("a.x"), 0);
        // "ab.x" does not fall under scope "a" (dot-boundary check).
        assert_eq!(obs.snapshot().counter("ab.x"), 7);
    }

    #[test]
    fn spans_nest_and_accumulate_virtual_time() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        {
            let _q = obs.span("query");
            clock.advance_secs(1.0);
            {
                let _f = obs.span("fetch");
                clock.advance_secs(2.0);
            }
            {
                let _d = obs.span("decode");
                clock.advance_secs(0.5);
            }
        }
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        let q = &tree[0];
        assert_eq!(q.label, "query");
        assert!((q.virtual_secs() - 3.5).abs() < 1e-12);
        assert_eq!(q.children.len(), 2);
        assert_eq!(q.children[0].label, "fetch");
        assert!((q.children[0].virtual_secs() - 2.0).abs() < 1e-12);
        assert_eq!(q.children[1].label, "decode");
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_sane() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let a = obs.span("a");
        let b = obs.span("b");
        drop(a); // dropped before its child-position sibling
        clock.advance_secs(1.0);
        drop(b);
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].label, "a");
        assert_eq!(tree[0].children[0].label, "b");
        // New span after the mess still roots correctly.
        drop(obs.span("c"));
        assert_eq!(obs.span_tree().len(), 2);
    }

    #[test]
    fn snapshot_json_is_stable_and_sorted() {
        let obs = Obs::default();
        obs.counter("zeta").add(1);
        obs.counter("alpha").add(2);
        obs.gauge("g").set(0.15);
        obs.histogram("h", &[1.0]).observe(0.5);
        let j1 = obs.snapshot().to_json().to_string();
        let j2 = obs.snapshot().to_json().to_string();
        assert_eq!(j1, j2);
        assert!(j1.find("\"alpha\"").unwrap() < j1.find("\"zeta\"").unwrap());
        let expected = concat!(
            "{\"counters\":{\"alpha\":2,\"zeta\":1},",
            "\"gauges\":{\"g\":0.15},",
            "\"histograms\":{\"h\":{\"bounds\":[1.0],\"counts\":[1,0],\"sum\":0.5}}}",
        );
        assert_eq!(j1, expected);
    }

    #[test]
    fn spans_json_excludes_wall_time() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        {
            let _s = obs.span("work");
            clock.advance_ns(500);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let j = obs.spans_json().to_string();
        assert_eq!(j, "[{\"children\":[],\"dur_vns\":500,\"label\":\"work\",\"start_vns\":0}]");
    }

    #[test]
    fn concurrent_counter_adds_are_exact() {
        let obs = Obs::default();
        let c = obs.counter("n");
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move |_| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn clear_spans_resets_forest() {
        let obs = Obs::default();
        drop(obs.span("x"));
        obs.clear_spans();
        assert!(obs.span_tree().is_empty());
        assert_eq!(obs.spans_json().to_string(), "[]");
    }

    #[test]
    fn render_spans_shows_hierarchy() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        {
            let _a = obs.span("outer");
            let _b = obs.span("inner");
            clock.advance_secs(0.25);
        }
        let text = obs.render_spans();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("outer"));
        assert!(lines[1].starts_with("  inner"));
        assert!(lines[1].contains("0.2500"));
    }
}
