//! Every metric the benchmark reports, by name, with unit and direction.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step. End-to-end metrics are what a user of the system sees; per-layer
//! metrics are measured at one layer's boundary and exist to explain a
//! movement of an end-to-end metric (README.md has the interaction table).

use nsdf_util::MetricsSnapshot;
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["pipeline", "ingest", "classroom", "catalog"];

/// End-to-end metrics: every workload reports every one, none is ever 0.
pub const END_TO_END: [MetricDef; 8] = [
    lo("setup_s", "s"),
    lo("cpu_s", "s"),
    lo("virtual_s", "s"),
    lo("op_virtual_p50_ms", "ms"),
    lo("op_virtual_p95_ms", "ms"),
    lo("stored_bytes_per_user_byte", "ratio"),
    lo("wan_bytes_per_user_byte", "ratio"),
    lo("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, grouped by layer. A workload that bypasses a layer
/// reports 0 for it (and the runner asserts the cells that must be 0).
pub const PER_LAYER: [MetricDef; 116] = [
    // nsdf-somospie, nsdf-geotiled, nsdf-tiff: the pipeline's kernels.
    lo("somospie.cpu_s", "s"),
    lo("somospie.pixels", "count"),
    lo("geotiled.cpu_s", "s"),
    lo("geotiled.pixels", "count"),
    lo("tiff.cpu_s", "s"),
    lo("tiff.bytes", "count"),
    // nsdf-workflow graph engine + nsdf-core dag.
    lo("workflow.waves", "count"),
    lo("workflow.tasks_executed", "count"),
    hi("workflow.tasks_up_to_date", "count"),
    lo("workflow.compute_vns", "ns"),
    lo("workflow.wave_critical_vns", "ns"),
    lo("workflow.io_vns", "ns"),
    lo("workflow.self_cpu_s", "s"),
    // nsdf-compress, as seen through the IDX write/read statistics.
    lo("compress.encode_cpu_s", "s"),
    lo("compress.decode_cpu_s", "s"),
    hi("compress.encode_mb_s", "MB/s"),
    hi("compress.decode_mb_s", "MB/s"),
    hi("compress.ratio", "ratio"),
    lo("compress.huff_block_frac", "ratio"),
    // nsdf-hz query planning.
    lo("hz.plan_cpu_s", "s"),
    lo("hz.blocks_planned", "count"),
    // nsdf-idx dataset: write side, then read side.
    lo("idx.blocks_written", "count"),
    lo("idx.rmw_fetches", "count"),
    lo("idx.rmw_per_block_written", "ratio"),
    lo("idx.write_amp", "ratio"),
    lo("idx.put_batches", "count"),
    lo("idx.put_vns", "ns"),
    lo("idx.rmw_fetch_vns", "ns"),
    lo("idx.queries", "count"),
    lo("idx.blocks_touched", "count"),
    lo("idx.blocks_decoded", "count"),
    hi("idx.decoded_cache_hit_ratio", "ratio"),
    lo("idx.fetch_vns", "ns"),
    lo("idx.gather_cpu_s", "s"),
    // nsdf-idx interactive sessions.
    lo("session.frames", "count"),
    lo("session.blocks_fetched", "count"),
    hi("session.reuse_ratio", "ratio"),
    lo("session.prefetch_issued", "count"),
    hi("session.prefetch_hit_ratio", "ratio"),
    lo("session.prefetch_shed", "count"),
    lo("session.cancelled", "count"),
    lo("session.fetch_vns", "ns"),
    lo("session.prefetch_vns", "ns"),
    // nsdf-dashboard.
    lo("dashboard.render_cpu_s", "s"),
    lo("dashboard.pixels_rendered", "count"),
    // nsdf-storage admission scheduler.
    lo("sched.submitted", "count"),
    lo("sched.granted.interactive", "count"),
    lo("sched.granted.prefetch", "count"),
    lo("sched.granted.bulk", "count"),
    lo("sched.queue_wait_vns", "ns"),
    lo("sched.interactive_wait_p95_ms", "ms"),
    lo("sched.shed", "count"),
    lo("sched.reissued", "count"),
    lo("sched.granted_vns", "ns"),
    lo("sched.errors", "count"),
    lo("sched.self_cpu_s", "s"),
    // nsdf-storage two-tier cache.
    lo("tier.lookups", "count"),
    hi("tier.ram_hit_ratio", "ratio"),
    hi("tier.disk_hit_ratio", "ratio"),
    lo("tier.wan_fetches", "count"),
    lo("tier.evictions", "count"),
    lo("tier.admit_rejected", "count"),
    lo("tier.promotions", "count"),
    lo("tier.quarantined", "count"),
    lo("tier.coalesced_waits", "count"),
    lo("tier.resident_mib", "MiB"),
    lo("tier.self_cpu_s", "s"),
    // nsdf-storage resilience stack (reliability + fault).
    lo("retry.retries", "count"),
    lo("retry.waves", "count"),
    lo("retry.backoff_vns", "ns"),
    lo("retry.hedge_waves", "count"),
    hi("retry.hedge_win_ratio", "ratio"),
    lo("retry.hedge_vns", "ns"),
    lo("breaker.opened", "count"),
    lo("breaker.fast_failures", "count"),
    lo("integrity.verified", "count"),
    lo("integrity.rejected", "count"),
    lo("fault.injected", "count"),
    lo("fault.corrupted", "count"),
    lo("resilience.self_cpu_s", "s"),
    // nsdf-storage WAN model (CloudStore).
    lo("wan.read_ops", "count"),
    lo("wan.write_ops", "count"),
    lo("wan.waves", "count"),
    hi("wan.ops_per_wave", "ratio"),
    lo("wan.bytes_up", "count"),
    lo("wan.bytes_down", "count"),
    lo("wan.busy_vns", "ns"),
    lo("wan.busy_share", "ratio"),
    // nsdf-catalog LSM engine.
    lo("catalog.upserts", "count"),
    lo("catalog.gets", "count"),
    lo("catalog.wal_batches", "count"),
    lo("catalog.flushes", "count"),
    lo("catalog.segments_written", "count"),
    lo("catalog.segment_bytes_written", "count"),
    lo("catalog.compactions", "count"),
    lo("catalog.compaction_bytes", "count"),
    lo("catalog.write_amp", "ratio"),
    lo("catalog.read_amp", "ratio"),
    lo("catalog.bloom_fpr", "ratio"),
    hi("catalog.dedup_records", "count"),
    lo("catalog.compact_vns", "ns"),
    lo("catalog.reopen_vns", "ns"),
    lo("catalog.ingest_cpu_s", "s"),
    lo("catalog.get_cpu_us", "us"),
    lo("catalog.scan_cpu_ms", "ms"),
    lo("catalog.compact_cpu_s", "s"),
    lo("catalog.reopen_cpu_s", "s"),
    // Interactive frames as the classroom driver sees them.
    lo("frames.failed_frac", "ratio"),
    lo("frames.degraded_frac", "ratio"),
    lo("frames.wan_touch_frac", "ratio"),
    lo("openloop.lateness_p95_ms", "ms"),
    lo("openloop.busy_vns", "ns"),
    // The traced run itself.
    lo("trace.overhead_frac", "ratio"),
    lo("trace.unattributed_vns", "ns"),
    lo("trace.unattributed_cpu_s", "s"),
    hi("trace.equivalent", "bool"),
];

/// Per-layer metrics that are exact counts or virtual ns (source C in the
/// README): identical on every run of one seed, so the runner compares
/// them across repetitions. The rest are CPU timings from the traced run
/// (source P) or derived from one.
pub fn is_exact(name: &str) -> bool {
    !(name.ends_with("cpu_s")
        || name.ends_with("cpu_us")
        || name.ends_with("cpu_ms")
        || name.ends_with("_mb_s")
        || name.starts_with("trace."))
}

/// Values of the per-layer metrics of one repetition, keyed by name.
/// Anything never set reads 0 — the bypassed layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set `name`; panics on a name that is not in [`PER_LAYER`], so a typo
    /// cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown per-layer metric {name:?}");
        self.0.insert(name, value);
    }

    /// Value of `name` (0 when the workload never touched the layer).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The exact (count / virtual ns) metrics, for run-to-run comparison.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        self.0.iter().filter(|(k, _)| is_exact(k)).map(|(k, v)| (*k, v.to_bits())).collect()
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counter movement over the measured phase: a registry snapshot before
/// and one after, read by full counter name (`"seal.wan.read_ops"`).
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    /// Movement between two snapshots of one registry.
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    /// How far counter `name` moved.
    pub fn c(&self, name: &str) -> u64 {
        self.after.counter(name).saturating_sub(self.before.counter(name))
    }

    /// [`Delta::c`] as `f64`.
    pub fn f(&self, name: &str) -> f64 {
        self.c(name) as f64
    }

    /// Gauge `name` at the end of the phase.
    pub fn gauge(&self, name: &str) -> f64 {
        self.after.gauge(name)
    }

    /// The counters every store stack has — WAN, tier cache, the
    /// resilience wrappers under `scope` (`"seal."`, `"dataverse."`, `""`)
    /// and the admission scheduler at the registry root. `phase_vns` is
    /// the phase's virtual length (for `wan.busy_share`).
    pub fn fill_store_layers(&self, l: &mut Layers, scope: &str, phase_vns: u64) {
        let f = |name: &str| self.f(&format!("{scope}{name}"));
        let gauge = |name: &str| self.gauge(&format!("{scope}{name}"));
        for name in [
            "wan.read_ops",
            "wan.write_ops",
            "wan.waves",
            "wan.bytes_up",
            "wan.bytes_down",
            "wan.busy_vns",
            "retry.retries",
            "retry.waves",
            "retry.backoff_vns",
            "retry.hedge_waves",
            "retry.hedge_vns",
            "breaker.opened",
            "breaker.fast_failures",
            "integrity.verified",
            "integrity.rejected",
            "fault.injected",
            "fault.corrupted",
        ] {
            l.set(static_name(name), f(name));
        }
        let ops = f("wan.read_ops") + f("wan.write_ops");
        l.set("wan.ops_per_wave", ratio(ops, f("wan.waves")));
        l.set("wan.busy_share", ratio(f("wan.busy_vns"), phase_vns as f64));
        l.set("retry.hedge_win_ratio", ratio(f("retry.hedge_wins"), f("retry.hedges")));
        l.set("tier.lookups", f("tiercache.lookups"));
        l.set("tier.ram_hit_ratio", ratio(f("tiercache.ram_hits"), f("tiercache.lookups")));
        l.set("tier.disk_hit_ratio", ratio(f("tiercache.disk_hits"), f("tiercache.lookups")));
        l.set("tier.wan_fetches", f("tiercache.wan_fetches"));
        l.set("tier.evictions", f("cache.evictions"));
        l.set("tier.admit_rejected", f("tiercache.admit_rejected"));
        l.set("tier.promotions", f("tiercache.promotions"));
        l.set("tier.quarantined", f("tiercache.quarantined"));
        l.set("tier.coalesced_waits", f("cache.coalesced_waits"));
        for name in [
            "sched.submitted",
            "sched.granted.interactive",
            "sched.granted.prefetch",
            "sched.granted.bulk",
            "sched.queue_wait_vns",
            "sched.shed",
            "sched.reissued",
            "sched.granted_vns",
            "sched.errors",
        ] {
            l.set(static_name(name), self.f(name));
        }
        l.set(
            "tier.resident_mib",
            (gauge("cache.resident_bytes") + gauge("tiercache.disk_resident_bytes"))
                / (1 << 20) as f64,
        );
    }
}

/// The `'static` spelling of a per-layer metric name.
fn static_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name:?}"))
        .name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_well_formed_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut all: Vec<&str> =
            WORKLOADS.iter().copied().chain(END_TO_END.iter().map(|m| m.name)).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        use nsdf_workflow::json::JsonValue;
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let strings = |section: &str, keys: &[&str]| -> Vec<Vec<String>> {
            let items = doc.field(section).and_then(|v| v.arr_of(section)).expect("array");
            items
                .iter()
                .map(|o| {
                    keys.iter()
                        .map(|k| o.field(k).and_then(|v| v.str_of(k)).expect("string").to_string())
                        .collect()
                })
                .collect()
        };
        let defined = |defs: &[MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|m| vec![m.name.into(), m.unit.into(), m.better.as_str().into()])
                .collect()
        };
        let keys = ["name", "unit", "better"];
        assert_eq!(strings("end_to_end", &keys), defined(&END_TO_END));
        assert_eq!(strings("per_layer", &keys), defined(&PER_LAYER));
        let workloads: Vec<String> =
            strings("workloads", &["name"]).into_iter().flatten().collect();
        assert_eq!(workloads, WORKLOADS);
        for o in doc.field("end_to_end").and_then(|v| v.arr_of("end_to_end")).expect("array") {
            let JsonValue::Num(bound) = o.field("bound").expect("bound") else {
                panic!("bound is not a number")
            };
            let bound: f64 = bound.parse().expect("numeric bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} outside (0, 0.25]");
        }
    }

    #[test]
    fn layers_default_to_zero_and_reject_unknown_names() {
        let mut l = Layers::default();
        l.set("wan.waves", 3.0);
        l.set("tier.self_cpu_s", 0.5);
        assert_eq!(l.get("wan.waves"), 3.0);
        assert_eq!(l.get("catalog.gets"), 0.0);
        assert_eq!(l.exact(), vec![("wan.waves", 3.0f64.to_bits())]);
        assert!(std::panic::catch_unwind(|| Layers::default().set("nope", 1.0)).is_err());
    }

    #[test]
    fn exact_metrics_exclude_timings() {
        assert!(is_exact("idx.rmw_fetches") && is_exact("workflow.io_vns"));
        assert!(is_exact("sched.interactive_wait_p95_ms") && is_exact("tier.ram_hit_ratio"));
        for timed in ["somospie.cpu_s", "catalog.get_cpu_us", "catalog.scan_cpu_ms"] {
            assert!(!is_exact(timed));
        }
        assert!(!is_exact("compress.decode_mb_s") && !is_exact("trace.equivalent"));
    }
}
