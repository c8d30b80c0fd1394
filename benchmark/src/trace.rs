//! Spans recorded by the benchmark's own code, around its calls into each
//! layer — the program under test is not instrumented for this.
//!
//! A [`Tracer`] records one [`Span`] per driver call into a public entry
//! point and, through [`SpanStore`], one per `ObjectStore` call crossing
//! each boundary of the store stack. Every span carries a name, the layer
//! it enters, its parent, the request it belongs to, and start/end in both
//! currencies: virtual ns (the shared `SimClock`) and wall ns. Spans stay
//! in memory until the run ends.
//!
//! A layer's *self time* is its spans' duration minus the part their child
//! spans cover. [`Budget`] sums self time per layer; whatever part of the
//! measured phase no span covers is reported as `unattributed`, so the
//! rows always add up to the phase exactly, in both currencies.

use nsdf_storage::{ObjectMeta, ObjectStore};
use nsdf_util::{Result, SimClock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`get_many`, `render_frame`, ...).
    pub name: &'static str,
    /// The layer the call enters.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (frame / tile / batch / task-run).
    pub request: u64,
    /// Start, virtual ns.
    pub v0: u64,
    /// End, virtual ns.
    pub v1: u64,
    /// Start, wall ns since the tracer was created.
    pub w0: u64,
    /// End, wall ns since the tracer was created.
    pub w1: u64,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    /// Open spans, innermost last. The benchmark drives everything from
    /// one thread, so one stack is the whole call tree.
    stack: Vec<usize>,
    request: u64,
}

struct Inner {
    clock: SimClock,
    epoch: Instant,
    log: Mutex<Log>,
}

/// Handle on a span log; clones share it. A disabled tracer (the untraced
/// runs) records nothing and costs one branch per call.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

/// Closes its span when dropped.
pub struct SpanGuard {
    tracer: Option<(Arc<Inner>, usize)>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer stamping virtual time from `clock`.
    pub fn recording(clock: SimClock) -> Tracer {
        Tracer(Some(Arc::new(Inner { clock, epoch: Instant::now(), log: Mutex::default() })))
    }

    /// Whether spans are being recorded.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Tag the spans that follow with request `id`.
    pub fn set_request(&self, id: u64) {
        if let Some(inner) = &self.0 {
            inner.log.lock().expect("span log poisoned").request = id;
        }
    }

    /// Open a span entering `layer`; it closes when the guard drops.
    pub fn span(&self, layer: &'static str, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.0 else { return SpanGuard { tracer: None } };
        let v0 = inner.clock.now_ns();
        let w0 = inner.epoch.elapsed().as_nanos() as u64;
        let mut log = inner.log.lock().expect("span log poisoned");
        let idx = log.spans.len();
        let (parent, request) = (log.stack.last().copied(), log.request);
        log.spans.push(Span { name, layer, parent, request, v0, v1: v0, w0, w1: w0 });
        log.stack.push(idx);
        SpanGuard { tracer: Some((Arc::clone(inner), idx)) }
    }

    /// Drop everything recorded so far (set-up spans), keeping open spans
    /// out of the log: call only between top-level calls.
    pub fn reset(&self) {
        if let Some(inner) = &self.0 {
            let mut log = inner.log.lock().expect("span log poisoned");
            assert!(log.stack.is_empty(), "tracer reset inside an open span");
            log.spans.clear();
        }
    }

    /// Copy of the recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.log.lock().expect("span log poisoned").spans.clone())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, idx)) = self.tracer.take() else { return };
        let v1 = inner.clock.now_ns();
        let w1 = inner.epoch.elapsed().as_nanos() as u64;
        // A poisoned log means a panic is already unwinding; skip quietly.
        let Ok(mut log) = inner.log.lock() else { return };
        if let Some(s) = log.spans.get_mut(idx) {
            s.v1 = v1;
            s.w1 = w1;
        }
        if let Some(pos) = log.stack.iter().rposition(|&i| i == idx) {
            log.stack.remove(pos);
        }
    }
}

/// Serialize spans as a JSON array (one object per span).
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"parent\":{parent},\"request\":{},\
             \"v0\":{},\"v1\":{},\"w0\":{},\"w1\":{}}}",
            s.name, s.layer, s.request, s.v0, s.v1, s.w0, s.w1
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Per-layer self time of a measured phase, in both currencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Layer → (self virtual ns, self wall ns).
    pub rows: BTreeMap<&'static str, (u64, u64)>,
    /// Virtual ns of the phase no span covers.
    pub unattributed_vns: u64,
    /// Wall ns of the phase no span covers. Signed: the phase is measured
    /// in CPU time, which can read a hair below the spans' wall time.
    pub unattributed_wns: i64,
}

impl Budget {
    /// Sum self time per layer over `spans`, against a phase that lasted
    /// `phase_vns` virtual ns and `phase_wns` ns of the CPU/wall currency.
    ///
    /// Self time is a span's duration minus the durations of its direct
    /// children (children nest inside their parent on both clocks, since
    /// one thread drives everything). Root spans therefore cover exactly
    /// the sum of all self times, and the remainder of the phase is
    /// unattributed — rows plus unattributed equal the phase exactly.
    pub fn from_spans(spans: &[Span], phase_vns: u64, phase_wns: u64) -> Budget {
        let mut child_v = vec![0u64; spans.len()];
        let mut child_w = vec![0u64; spans.len()];
        let (mut root_v, mut root_w) = (0u64, 0u64);
        for s in spans {
            let (dv, dw) = (s.v1 - s.v0, s.w1 - s.w0);
            match s.parent {
                Some(p) => {
                    child_v[p] += dv;
                    child_w[p] += dw;
                }
                None => {
                    root_v += dv;
                    root_w += dw;
                }
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let row = rows.entry(s.layer).or_default();
            row.0 += (s.v1 - s.v0).saturating_sub(child_v[i]);
            row.1 += (s.w1 - s.w0).saturating_sub(child_w[i]);
        }
        Budget {
            rows,
            unattributed_vns: phase_vns.saturating_sub(root_v),
            unattributed_wns: phase_wns as i64 - root_w as i64,
        }
    }

    /// Move up to `wns` wall ns (and `vns` virtual ns) of self time from
    /// layer `from` to layer `to` — how a probe or a `*Stats` timer splits
    /// a span that covers several layers the benchmark cannot see between.
    /// Never moves more than `from` holds, so the rows keep their sum.
    pub fn reattribute(&mut self, from: &'static str, to: &'static str, vns: u64, wns: u64) {
        let src = self.rows.entry(from).or_default();
        let (mv, mw) = (vns.min(src.0), wns.min(src.1));
        src.0 -= mv;
        src.1 -= mw;
        let dst = self.rows.entry(to).or_default();
        dst.0 += mv;
        dst.1 += mw;
    }

    /// Self wall seconds of `layer`.
    pub fn wall_secs(&self, layer: &str) -> f64 {
        self.rows.get(layer).map_or(0.0, |r| r.1 as f64 / 1e9)
    }

    /// Sum of the virtual rows plus unattributed — the phase's virtual ns.
    pub fn total_vns(&self) -> u64 {
        self.rows.values().map(|r| r.0).sum::<u64>() + self.unattributed_vns
    }

    /// Sum of the wall rows plus unattributed — the phase's wall/CPU ns.
    pub fn total_wns(&self) -> i64 {
        self.rows.values().map(|r| r.1 as i64).sum::<i64>() + self.unattributed_wns
    }
}

/// An `ObjectStore` shim that records one span per call and forwards the
/// call unchanged. Interposed between every pair of layers of a store
/// stack; `layer` names the store it wraps.
pub struct SpanStore {
    inner: Arc<dyn ObjectStore>,
    layer: &'static str,
    tracer: Tracer,
}

impl SpanStore {
    /// Wrap `inner`, attributing calls to `layer`.
    pub fn wrap(
        inner: Arc<dyn ObjectStore>,
        layer: &'static str,
        tracer: &Tracer,
    ) -> Arc<dyn ObjectStore> {
        Arc::new(SpanStore { inner, layer, tracer: tracer.clone() })
    }
}

impl ObjectStore for SpanStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        let _s = self.tracer.span(self.layer, "put");
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "get");
        self.inner.get(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "get_range");
        self.inner.get_range(key, offset, len)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        let _s = self.tracer.span(self.layer, "get_many");
        self.inner.get_many(keys)
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let _s = self.tracer.span(self.layer, "put_many");
        self.inner.put_many(items)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        let _s = self.tracer.span(self.layer, "head");
        self.inner.head(key)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        let _s = self.tracer.span(self.layer, "head_many");
        self.inner.head_many(keys)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        let _s = self.tracer.span(self.layer, "list");
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        let _s = self.tracer.span(self.layer, "delete");
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool> {
        let _s = self.tracer.span(self.layer, "exists");
        self.inner.exists(key)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_storage::MemoryStore;

    fn span(layer: &'static str, parent: Option<usize>, v: (u64, u64), w: (u64, u64)) -> Span {
        Span { name: "op", layer, parent, request: 0, v0: v.0, v1: v.1, w0: w.0, w1: w.1 }
    }

    #[test]
    fn children_subtract_and_rows_sum_to_the_phase() {
        // frame [0,100] ⊃ sched [10,90] ⊃ { tier [20,40], tier [50,80] ⊃ wan [55,75] }
        let spans = vec![
            span("dashboard", None, (0, 100), (0, 1000)),
            span("sched", Some(0), (10, 90), (100, 900)),
            span("tier", Some(1), (20, 40), (200, 400)),
            span("tier", Some(1), (50, 80), (500, 800)),
            span("wan", Some(3), (55, 75), (550, 750)),
        ];
        let b = Budget::from_spans(&spans, 120, 1100);
        assert_eq!(b.rows["dashboard"], (20, 200));
        assert_eq!(b.rows["sched"], (30, 300)); // 80 - (20 + 30)
        assert_eq!(b.rows["tier"], (30, 300)); // 20 + (30 - 20)
        assert_eq!(b.rows["wan"], (20, 200));
        assert_eq!(b.unattributed_vns, 20);
        assert_eq!(b.unattributed_wns, 100);
        assert_eq!(b.total_vns(), 120, "virtual rows + unattributed == phase, exactly");
        assert_eq!(b.total_wns(), 1100);
    }

    #[test]
    fn reattribution_keeps_the_sum_and_never_overdraws() {
        let spans = vec![span("idx", None, (0, 50), (0, 500))];
        let mut b = Budget::from_spans(&spans, 50, 500);
        b.reattribute("idx", "compress", 0, 200);
        assert_eq!(b.rows["idx"], (50, 300));
        assert_eq!(b.rows["compress"], (0, 200));
        b.reattribute("idx", "hz", 0, 10_000); // more than idx holds
        assert_eq!(b.rows["idx"], (50, 0));
        assert_eq!(b.rows["hz"], (0, 300));
        assert_eq!(b.total_vns(), 50);
        assert_eq!(b.total_wns(), 500);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let clock = SimClock::new();
        let t = Tracer::recording(clock.clone());
        t.set_request(7);
        {
            let _a = t.span("dashboard", "render_frame");
            clock.advance_ns(5);
            {
                let _b = t.span("sched", "get_many");
                clock.advance_ns(10);
            }
            clock.advance_ns(1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[0].v0, spans[0].v1), (0, 16));
        assert_eq!((spans[1].v0, spans[1].v1), (5, 15));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[1].w0 >= spans[0].w0 && spans[1].w1 <= spans[0].w1);
        let json = spans_to_json(&spans);
        assert!(json.contains("\"layer\":\"sched\"") && json.contains("\"parent\":0"));
        t.reset();
        assert!(t.spans().is_empty());
        assert!(Tracer::disabled().spans().is_empty());
    }

    #[test]
    fn span_store_forwards_every_method_unchanged() {
        let clock = SimClock::new();
        let tracer = Tracer::recording(clock);
        let plain = Arc::new(MemoryStore::new());
        let twin = Arc::new(MemoryStore::new());
        let wrapped = SpanStore::wrap(Arc::clone(&twin) as Arc<dyn ObjectStore>, "memory", &tracer);
        let plain: Arc<dyn ObjectStore> = plain;

        // The same script against a bare store and a wrapped one must give
        // the same results, call for call.
        for s in [&plain, &wrapped] {
            s.put("a/1", b"one").unwrap();
            s.put_many(&[("a/2", b"two".as_slice()), ("b/3", b"three".as_slice())])
                .into_iter()
                .for_each(|r| drop(r.unwrap()));
        }
        assert_eq!(wrapped.get("a/1").unwrap(), plain.get("a/1").unwrap());
        assert_eq!(wrapped.get_range("b/3", 1, 3).unwrap(), plain.get_range("b/3", 1, 3).unwrap());
        let many = |s: &Arc<dyn ObjectStore>| {
            s.get_many(&["a/2", "missing"])
                .into_iter()
                .map(|r| r.map_err(|e| e.is_not_found()))
                .collect::<Vec<_>>()
        };
        assert_eq!(many(&wrapped), many(&plain));
        assert_eq!(wrapped.head("a/2").unwrap(), plain.head("a/2").unwrap());
        let heads = |s: &Arc<dyn ObjectStore>| {
            s.head_many(&["a/1", "nope"]).into_iter().map(|r| r.ok()).collect::<Vec<_>>()
        };
        assert_eq!(heads(&wrapped), heads(&plain));
        assert_eq!(wrapped.list("a/").unwrap(), plain.list("a/").unwrap());
        assert_eq!(wrapped.exists("b/3").unwrap(), plain.exists("b/3").unwrap());
        assert_eq!(wrapped.describe(), twin.describe());
        for s in [&plain, &wrapped] {
            s.delete("a/1").unwrap();
            assert!(s.get("a/1").unwrap_err().is_not_found());
            assert!(s.delete("a/1").is_err());
        }
        assert_eq!(twin.object_count(), 2);

        // One span per call, all on the wrapped store's layer.
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "put",
                "put_many",
                "get",
                "get_range",
                "get_many",
                "head",
                "head_many",
                "list",
                "exists",
                "delete",
                "get",
                "delete"
            ]
        );
        assert!(tracer.spans().iter().all(|s| s.layer == "memory" && s.parent.is_none()));
    }
}
