//! Stateful interactive query sessions.
//!
//! A [`QuerySession`] is the progressive-query engine one viewer (a
//! dashboard viewport, a notebook cell, a FUSE reader) owns for the
//! lifetime of its interaction with a dataset. Its view is a rectangle of
//! one z-plane: the only plane of a 2-D dataset, or the slice of a 3-D one
//! that [`QuerySession::set_slice`] scrubs to ([`crate::IdxVolume::session`]).
//! Where a bare [`IdxDataset::read_box`] starts from zero every call, a
//! session:
//!
//! * plans **level deltas** — stepping refinement from level `L-1` to `L`
//!   enumerates only the blocks newly required at `L` (via
//!   [`nsdf_hz::HzCurve::blocks_at_level`]) and subtracts blocks already
//!   resident, so a full refinement sequence fetches and decodes each
//!   block at most once;
//! * keeps a per-session **resident set** of the blocks it resolved — a
//!   byte-budgeted `DecodedCache` (256 MiB, FIFO) of the *same* `Arc`'d raw
//!   images the dataset's decoded cache (or write buffer) holds, never a
//!   copy — so pans and slice probes over the same data resolve nothing
//!   twice. The budget bounds what a viewer keeps *between* frames: a
//!   frame pins every image it needs while it gathers, so a view larger
//!   than the budget still renders whole and merely reuses less next time;
//! * honors a [`CancelToken`] checked between `get_many` waves, so a new
//!   interaction (pan / zoom / time change) abandons in-flight refinement
//!   deterministically on the virtual clock;
//! * issues **speculative prefetch** (neighbor viewport in the last pan
//!   direction, next timestep during playback) through the same store
//!   path, warming the shared caches so the next interaction is cheap.
//!   Prefetch cooperates with a shared-WAN admission layer: the store
//!   calls run under the sheddable `Priority::Prefetch` ambient tag, and
//!   a [`NsdfError::Shed`] from a `SchedStore` under pressure quietly
//!   skips the speculation (`session.prefetch_shed`) — the scheduler
//!   re-issues the work itself when pressure drops, so nothing is lost;
//! * optionally tags all its store calls with a tenant id
//!   ([`QuerySession::with_tenant`]) so a shared admission scheduler can
//!   attribute and meter this viewer's traffic.
//!
//! Sessions report `session.{frames,blocks_reused,blocks_fetched,
//! cancelled,prefetch_issued,prefetch_hits,prefetch_shed,fetch_vns,
//! prefetch_vns}` counters and `session.fetch` spans into the registry
//! passed to [`QuerySession::with_obs`]; on a shared clock the
//! `fetch_vns` counter reconciles exactly with the store's
//! `wan.busy_vns`.

use crate::dataset::{DecodedCache, DecodedEntry, IdxDataset, QueryStats, WaveReport};
use nsdf_storage::sched::{tag_class, tag_tenant, Priority, TenantId};
use nsdf_util::obs::{Counter, Obs};
use nsdf_util::{Box2i, Box3i, NsdfError, Raster, Result, Sample, SimClock};
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Byte budget of a session's resident set (raw block-image bytes).
const DEFAULT_RESIDENT_BUDGET: u64 = 256 << 20;

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    /// Virtual-clock deadline in nanoseconds; `u64::MAX` means none.
    deadline_vns: AtomicU64,
}

/// A shareable cancellation handle checked between fetch waves.
///
/// Cancellation is deterministic two ways: [`CancelToken::cancel`] flips a
/// flag (the "user clicked something else" path), and
/// [`CancelToken::cancel_at`] arms a virtual-clock deadline — because all
/// WAN cost is charged on the shared [`SimClock`], the same seed abandons
/// refinement at exactly the same wave every run.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline_vns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Cancel immediately (takes effect at the next wave boundary).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Arm a virtual-clock deadline: the token reads as cancelled once the
    /// session's clock reaches `deadline_vns` nanoseconds.
    pub fn cancel_at(&self, deadline_vns: u64) {
        self.inner.deadline_vns.store(deadline_vns, Ordering::SeqCst);
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<u64> {
        let d = self.inner.deadline_vns.load(Ordering::SeqCst);
        (d != u64::MAX).then_some(d)
    }

    /// Whether the token is cancelled as of virtual time `now_vns`.
    pub fn is_cancelled_at(&self, now_vns: u64) -> bool {
        self.inner.flag.load(Ordering::SeqCst)
            || now_vns >= self.inner.deadline_vns.load(Ordering::SeqCst)
    }
}

/// Cumulative per-session accounting (mirrored into `session.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Completed frames gathered.
    pub frames: u64,
    /// Needed blocks served from the resident set without any resolve.
    pub blocks_reused: u64,
    /// Blocks the session resolved (store fetch or decoded-cache hit) —
    /// over a cold refinement this equals the planner's unique block count.
    pub blocks_fetched: u64,
    /// Refinement steps abandoned by the cancel token mid-fetch.
    pub cancelled: u64,
    /// Blocks resolved speculatively by prefetch calls.
    pub prefetch_issued: u64,
    /// Prefetched blocks a later frame actually needed.
    pub prefetch_hits: u64,
    /// Prefetch attempts shed by an admission layer under pressure (the
    /// scheduler re-issues the work itself; the session just skips).
    pub prefetch_shed: u64,
    /// Virtual nanoseconds the clock advanced inside demand fetch waves.
    pub fetch_vns: u64,
    /// Virtual nanoseconds the clock advanced inside prefetch waves.
    pub prefetch_vns: u64,
}

/// Registry handles for one session, under the `session` scope.
struct SessionMetrics {
    obs: Obs,
    frames: Counter,
    blocks_reused: Counter,
    blocks_fetched: Counter,
    cancelled: Counter,
    prefetch_issued: Counter,
    prefetch_hits: Counter,
    prefetch_shed: Counter,
    fetch_vns: Counter,
    prefetch_vns: Counter,
}

impl SessionMetrics {
    fn new(obs: &Obs) -> Self {
        let obs = obs.scoped("session");
        SessionMetrics {
            frames: obs.counter("frames"),
            blocks_reused: obs.counter("blocks_reused"),
            blocks_fetched: obs.counter("blocks_fetched"),
            cancelled: obs.counter("cancelled"),
            prefetch_issued: obs.counter("prefetch_issued"),
            prefetch_hits: obs.counter("prefetch_hits"),
            prefetch_shed: obs.counter("prefetch_shed"),
            fetch_vns: obs.counter("fetch_vns"),
            prefetch_vns: obs.counter("prefetch_vns"),
            obs,
        }
    }
}

/// One gathered frame of a session.
#[derive(Debug, Clone)]
pub struct SessionFrame<T: Sample> {
    /// Resolution level the frame was gathered at.
    pub level: u32,
    /// The gathered raster (missing blocks read as zeros, like `read_box`).
    pub raster: Raster<T>,
    /// Query accounting compatible with the non-session read path.
    pub stats: QueryStats,
    /// Needed blocks already resident before this frame.
    pub blocks_reused: u64,
    /// Blocks resolved for this frame (store fetch or decoded-cache hit).
    pub blocks_fetched: u64,
    /// Needed blocks that arrived via an earlier speculative prefetch.
    pub prefetch_hits: u64,
    /// True when the cancel token fired mid-fetch: the raster holds the
    /// partially upgraded view — blocks already resident plus those
    /// resolved before it fired.
    pub cancelled: bool,
}

/// Outcome of one [`QuerySession::refine_step`].
#[derive(Debug)]
pub enum RefineOutcome<T: Sample> {
    /// The next level completed.
    Frame(SessionFrame<T>),
    /// The step was abandoned mid-fetch; the frame holds the partial state
    /// and the same level is retried by the next step.
    Cancelled(SessionFrame<T>),
    /// The target level has been delivered; nothing left to refine.
    Done,
}

/// Result of running [`QuerySession::refine`] to completion or cancellation.
#[derive(Debug)]
pub struct RefineRun<T: Sample> {
    /// Frames delivered, coarse to fine (a trailing cancelled frame holds
    /// the partial state of the abandoned level).
    pub frames: Vec<SessionFrame<T>>,
    /// The level abandoned mid-fetch, if the run was cancelled.
    pub cancelled_at: Option<u32>,
}

/// Per-frame resolve accounting threaded through the fetch path, with the
/// images the frame gathers from.
#[derive(Debug, Default)]
struct FrameAcct {
    reused: u64,
    fetched: u64,
    prefetch_hits: u64,
    /// `needed → image` of the frame in the making: what it found resident
    /// plus what it resolved. Holding the `Arc`s pins them for the gather,
    /// whatever the resident set evicts while the frame resolves.
    blocks: BTreeMap<u64, DecodedEntry>,
}

/// Split a frame's `needed` blocks of field/timestep `at` against a
/// session's resident set: the images it holds, and the blocks to resolve.
fn split_resident(
    resident: &DecodedCache,
    at: (usize, u32),
    needed: &[u64],
) -> (BTreeMap<u64, DecodedEntry>, Vec<u64>) {
    let mut held = BTreeMap::new();
    let mut to_resolve = Vec::new();
    for &block in needed {
        match resident.get(&(at.0, at.1, block)) {
            Some(image) => {
                held.insert(block, image);
            }
            None => to_resolve.push(block),
        }
    }
    (held, to_resolve)
}

/// The chunk loop a session drives the dataset's block pipeline with:
/// blocks the handle already holds in RAM first, then
/// `fetch_concurrency`-wide [`IdxDataset::read_wave`]s with `cancel` checked
/// before each. Every resolved block goes to `sink` as it arrives (the flag
/// says it came from RAM, not a store trip), so what earlier waves brought
/// stays with the caller whether a later wave is cancelled, shed, or fails.
/// Returns `true` when the token fired.
fn resolve_waves(
    ds: &IdxDataset,
    at: (usize, u32),
    to_resolve: &[u64],
    cancel: &CancelToken,
    report: &WaveReport,
    stats: &mut QueryStats,
    mut sink: impl FnMut(u64, DecodedEntry, bool),
) -> Result<bool> {
    let (hits, misses, epoch) = ds.decoded_partition(at.0, at.1, to_resolve);
    for (block, raw) in hits {
        stats.decoded_cache_hits += 1;
        sink(block, raw, true);
    }
    for chunk in misses.chunks(ds.fetch_concurrency()) {
        if cancel.is_cancelled_at(report.clock.now_ns()) {
            return Ok(true);
        }
        for (block, raw) in ds.read_wave(at, chunk, Some(epoch), report, None, stats)? {
            sink(block, raw, false);
        }
    }
    Ok(false)
}

/// A stateful progressive-query session over one z-plane of an
/// [`IdxDataset`].
///
/// See the [module docs](crate::session) for the full behavioural model.
pub struct QuerySession<T: Sample> {
    ds: Arc<IdxDataset>,
    field: String,
    field_idx: usize,
    time: u32,
    region: Box2i,
    /// Depth of the viewed plane (always 0 on a 2-D dataset).
    z: i64,
    start_level: u32,
    target_level: u32,
    /// Next level `refine_step` delivers (`> target_level` = done).
    next_level: u32,
    /// Cumulative planned block set of the box in `planned`.
    view_blocks: BTreeSet<u64>,
    /// The view box `view_blocks` was planned for, and the finest level
    /// planned so far.
    planned: Option<(Box3i, u32)>,
    /// Blocks of the current field and timestep resolved by earlier frames
    /// (`None` = known missing), shared with the dataset by `Arc`.
    resident: DecodedCache,
    /// Blocks resolved speculatively, keyed `(time, block)`; consumed (and
    /// counted as hits) by the first frame that needs them.
    prefetched: BTreeSet<(u32, u64)>,
    /// Tenant the session's store calls are attributed to (ambient tag).
    tenant: Option<TenantId>,
    cancel: CancelToken,
    last_pan: (i64, i64),
    clock: SimClock,
    stats: SessionStats,
    m: SessionMetrics,
    _sample: PhantomData<T>,
}

impl<T: Sample> QuerySession<T> {
    /// Open a session on `field`, viewing the full dataset bounds with a
    /// refinement target of the finest level.
    ///
    /// The session checks cancellation deadlines against the clock of the
    /// dataset's observability registry — wire the dataset with
    /// [`IdxDataset::with_obs`] on the WAN clock for deterministic
    /// deadline cancellation.
    pub fn new(ds: Arc<IdxDataset>, field: &str) -> Result<QuerySession<T>> {
        let field_idx = ds.field_checked::<T>(field)?;
        let clock = ds.obs().clock().clone();
        let region = ds.bounds();
        let target = ds.max_level();
        let m = SessionMetrics::new(&Obs::new(clock.clone()));
        Ok(QuerySession {
            ds,
            field: field.to_string(),
            field_idx,
            time: 0,
            region,
            z: 0,
            start_level: 0,
            target_level: target,
            next_level: 0,
            view_blocks: BTreeSet::new(),
            planned: None,
            resident: DecodedCache::new(DEFAULT_RESIDENT_BUDGET),
            prefetched: BTreeSet::new(),
            tenant: None,
            cancel: CancelToken::new(),
            last_pan: (0, 0),
            clock,
            stats: SessionStats::default(),
            m,
            _sample: PhantomData,
        })
    }

    /// Report `session.*` counters and spans into `obs` — pass the same
    /// registry the dataset and stores share so session fetch time lines up
    /// with `wan.busy_vns` on one timeline.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.m = SessionMetrics::new(obs);
        self
    }

    /// Attribute this session's store calls to `tenant` — a
    /// `nsdf_storage::sched::SchedStore` anywhere below picks the tag up
    /// at call time, so one shared store stack can meter many sessions
    /// per tenant without widening the `ObjectStore` signatures.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// The field this session reads.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// The current timestep.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// The current viewport region.
    pub fn region(&self) -> Box2i {
        self.region
    }

    /// The refinement target level.
    pub fn target_level(&self) -> u32 {
        self.target_level
    }

    /// Cumulative session accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The dataset this session reads.
    pub fn dataset(&self) -> &Arc<IdxDataset> {
        &self.ds
    }

    /// A handle on the token guarding the current refinement — cancel it
    /// (or arm a virtual-clock deadline) to abandon in-flight work at the
    /// next wave boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replace a fired token with a fresh one so refinement can resume.
    pub fn reset_cancel(&mut self) {
        self.cancel = CancelToken::new();
    }

    /// Abandon the in-flight refinement (if any) and arm a fresh token for
    /// the next interaction.
    fn interrupt(&mut self) {
        self.cancel.cancel();
        self.cancel = CancelToken::new();
    }

    /// Point the session at a new viewport: `region` (clipped to bounds)
    /// refined from `start_level` up to `target_level`. A genuine change
    /// interrupts in-flight refinement and restarts the cursor; a no-op
    /// call leaves the session untouched. Pure translations record the pan
    /// direction for [`QuerySession::prefetch_pan_neighbor`].
    pub fn set_view(&mut self, region: Box2i, start_level: u32, target_level: u32) -> Result<()> {
        let region = region
            .intersect(&self.ds.bounds())
            .ok_or_else(|| NsdfError::invalid("view region does not intersect dataset"))?;
        let target = target_level.min(self.ds.max_level());
        let start = start_level.min(target);
        if region == self.region && start == self.start_level && target == self.target_level {
            return Ok(());
        }
        if region != self.region {
            if region.width() == self.region.width() && region.height() == self.region.height() {
                self.last_pan =
                    ((region.x0 - self.region.x0).signum(), (region.y0 - self.region.y0).signum());
            }
            self.forget_plan();
        }
        self.region = region;
        self.start_level = start;
        self.target_level = target;
        self.next_level = start;
        self.interrupt();
        Ok(())
    }

    /// Pan the viewport by `(dx, dy)` cells, clamped to the dataset bounds,
    /// recording the pan direction for speculative prefetch.
    pub fn pan(&mut self, dx: i64, dy: i64) -> Result<()> {
        let bounds = self.ds.bounds();
        let (w, h) = (self.region.width(), self.region.height());
        let x0 = (self.region.x0 + dx).clamp(bounds.x0, bounds.x1 - w);
        let y0 = (self.region.y0 + dy).clamp(bounds.y0, bounds.y1 - h);
        let region = Box2i::new(x0, y0, x0 + w, y0 + h);
        self.set_view(region, self.start_level, self.target_level)?;
        // set_view derives the direction from the clamped translation; keep
        // the caller's intent when clamping swallowed the move entirely.
        if (dx, dy) != (0, 0) {
            self.last_pan = (dx.signum(), dy.signum());
        }
        Ok(())
    }

    /// Scrub to the z-plane at depth `z` of a 3-D dataset (a 2-D one has
    /// plane 0 only). A frame at level `L` shows the plane snapped down to
    /// `L`'s z-stride. Blocks adjacent planes share stay resident; a genuine
    /// change interrupts in-flight refinement and restarts the cursor.
    pub fn set_slice(&mut self, z: i64) -> Result<()> {
        self.ds.plane_box(self.region, z, 0)?;
        if z != self.z {
            self.z = z;
            self.forget_plan();
            self.next_level = self.start_level;
            self.interrupt();
        }
        Ok(())
    }

    /// Move the time slider. Flushes the resident set (blocks are
    /// per-timestep) and interrupts in-flight refinement.
    pub fn set_time(&mut self, time: u32) -> Result<()> {
        self.ds.check_time(time)?;
        if time == self.time {
            return Ok(());
        }
        self.time = time;
        self.flush_resident();
        self.next_level = self.start_level;
        self.interrupt();
        Ok(())
    }

    /// Switch fields. Flushes the resident set and interrupts in-flight
    /// refinement.
    pub fn set_field(&mut self, field: &str) -> Result<()> {
        if field == self.field {
            return Ok(());
        }
        self.field_idx = self.ds.field_checked::<T>(field)?;
        self.field = field.to_string();
        self.flush_resident();
        self.next_level = self.start_level;
        self.interrupt();
        Ok(())
    }

    fn flush_resident(&mut self) {
        self.resident = DecodedCache::new(DEFAULT_RESIDENT_BUDGET);
        self.forget_plan();
    }

    /// The view moved: what was planned describes another box.
    fn forget_plan(&mut self) {
        self.planned = None;
        self.view_blocks.clear();
    }

    /// Resolve `to_resolve` blocks of `time` through [`resolve_waves`].
    /// Resolved blocks of the session's current timestep land in the
    /// resident set and, on a demand resolve, in `acct.blocks` for the
    /// frame's gather; all decoded payloads land in the dataset's shared
    /// decoded cache (and therefore warmed any `TierCache` below on the
    /// way).
    ///
    /// Returns `true` when the token fired and the resolve was abandoned.
    fn resolve_blocks(
        &mut self,
        time: u32,
        to_resolve: &[u64],
        prefetch: bool,
        stats: &mut QueryStats,
        acct: &mut FrameAcct,
    ) -> Result<bool> {
        let ds = Arc::clone(&self.ds);
        let (obs, cancel, clock) = (self.m.obs.clone(), self.cancel.clone(), self.clock.clone());
        let vns = if prefetch { self.m.prefetch_vns.clone() } else { self.m.fetch_vns.clone() };
        let report = WaveReport {
            obs: &obs,
            span: if prefetch { "prefetch" } else { "fetch" },
            vns: &vns,
            clock: &clock,
        };
        let install_resident = time == self.time;

        // Attribute the store calls below to this session's tenant, and
        // mark speculative resolves with the sheddable prefetch class —
        // an admission scheduler in the store stack reads both at call
        // time, and under demand pressure sheds the speculation (handled
        // below) instead of queueing it behind real work.
        let _tenant_tag = self.tenant.map(tag_tenant);
        let _class_tag = prefetch.then(|| tag_class(Priority::Prefetch));

        let at = (self.field_idx, time);
        let resolved =
            resolve_waves(&ds, at, to_resolve, &cancel, &report, stats, |b, raw, warm| {
                acct.fetched += 1;
                if prefetch {
                    self.note_prefetched(time, b);
                } else if self.prefetched.remove(&(time, b)) && warm {
                    // Prefetched earlier, kept warm by the decoded cache. (A
                    // marker on a block that still needed a store trip is stale
                    // — evicted since — and is consumed without a hit.)
                    acct.prefetch_hits += 1;
                }
                if install_resident {
                    self.resident.insert((at.0, time, b), raw.clone());
                }
                if !prefetch {
                    acct.blocks.insert(b, raw);
                }
            });
        match resolved {
            // The admission layer shed this speculative wave: skip the rest
            // of the resolve — the scheduler holds the descriptor and
            // re-issues it itself when pressure drops, so nothing is lost.
            Err(e) if prefetch && e.is_shed() => {
                self.stats.prefetch_shed += 1;
                self.m.prefetch_shed.inc();
                Ok(false)
            }
            resolved => resolved,
        }
    }

    fn note_prefetched(&mut self, time: u32, block: u64) {
        if self.prefetched.insert((time, block)) {
            self.stats.prefetch_issued += 1;
            self.m.prefetch_issued.inc();
        }
    }

    /// `region` of the viewed plane as the one-sample-deep box a query at
    /// `level` reads.
    fn view_box(&self, region: Box2i, level: u32) -> Result<Box3i> {
        self.ds.plane_box(region, self.z, level)
    }

    /// Blocks a query of `region` at `level` must read.
    fn plan(&self, region: Box3i, level: u32) -> Result<Vec<u64>> {
        self.ds.curve().blocks_in_region(region, level, self.ds.meta().block_samples())
    }

    /// Extend the cumulative block plan of the view's box at `level` to that
    /// level, and return the box.
    fn plan_level(&mut self, level: u32) -> Result<Box3i> {
        let region = self.view_box(self.region, level)?;
        match self.planned {
            // Level-delta planning: the only new blocks stepping from a
            // planned level P to `level` can need are those holding samples
            // of exactly P+1..=level.
            Some((planned, p)) if planned == region => {
                let bs = self.ds.meta().block_samples();
                for l in (p + 1)..=level {
                    self.view_blocks.extend(self.ds.curve().blocks_at_level(region, l, bs)?);
                }
                self.planned = Some((region, p.max(level)));
            }
            _ => {
                self.view_blocks = self.plan(region, level)?.into_iter().collect();
                self.planned = Some((region, level));
            }
        }
        Ok(region)
    }

    /// Resolve `needed` minus what is already resident, then gather and
    /// account one frame of `region` at `level` — the shared body of
    /// [`QuerySession::frame_at`] and [`QuerySession::read_region`].
    fn frame(&mut self, region: Box3i, level: u32, needed: &[u64]) -> Result<SessionFrame<T>> {
        let grid = self.ds.curve().level_grid(level, region)?.ok_or_else(|| {
            NsdfError::invalid("query region contains no samples at the requested level")
        })?;
        let mut stats =
            QueryStats { blocks_touched: needed.len() as u64, ..self.ds.query_stats(level) };
        let at = (self.field_idx, self.time);
        let (held, to_resolve) = split_resident(&self.resident, at, needed);
        let mut acct =
            FrameAcct { reused: held.len() as u64, blocks: held, ..FrameAcct::default() };
        for &b in acct.blocks.keys() {
            if self.prefetched.remove(&(self.time, b)) {
                acct.prefetch_hits += 1;
            }
        }
        let cancelled =
            self.resolve_blocks(self.time, &to_resolve, false, &mut stats, &mut acct)?;
        let raster = self.ds.plane(grid, self.ds.gather(grid, &acct.blocks, &mut stats)?)?;

        // Blocks resolved before a cancellation still cost WAN time and
        // stay resident; credit them so fetched-block accounting always
        // sums to the planner's unique block count.
        self.stats.blocks_fetched += acct.fetched;
        self.m.blocks_fetched.add(acct.fetched);
        if cancelled {
            self.stats.cancelled += 1;
            self.m.cancelled.inc();
            self.m.obs.event("cancelled");
        } else {
            self.stats.frames += 1;
            self.m.frames.inc();
            self.stats.blocks_reused += acct.reused;
            self.m.blocks_reused.add(acct.reused);
            self.stats.prefetch_hits += acct.prefetch_hits;
            self.m.prefetch_hits.add(acct.prefetch_hits);
        }
        self.stats.fetch_vns = self.m.fetch_vns.get();
        self.stats.prefetch_vns = self.m.prefetch_vns.get();
        Ok(SessionFrame {
            level,
            raster,
            stats,
            blocks_reused: acct.reused,
            blocks_fetched: acct.fetched,
            prefetch_hits: acct.prefetch_hits,
            cancelled,
        })
    }

    /// Ensure blocks for the current view at `level` and gather a frame.
    ///
    /// If the cancel token fires mid-fetch the returned frame is flagged
    /// [`SessionFrame::cancelled`] and holds the partially upgraded state
    /// (useful to display while the retry runs).
    pub fn frame_at(&mut self, level: u32) -> Result<SessionFrame<T>> {
        self.ds.check_level(level)?;
        let _frame_span = self.m.obs.span("frame");
        let region = self.plan_level(level)?;
        let needed: Vec<u64> = self.view_blocks.iter().copied().collect();
        self.frame(region, level, &needed)
    }

    /// Deliver the next refinement level of the current view.
    ///
    /// Levels whose grid has no samples inside the viewport are skipped. A
    /// cancelled step leaves the cursor in place so the same level is
    /// retried after [`QuerySession::reset_cancel`] (or a view change).
    pub fn refine_step(&mut self) -> Result<RefineOutcome<T>> {
        while self.next_level <= self.target_level {
            let view = self.view_box(self.region, self.next_level)?;
            if self.ds.curve().level_grid(self.next_level, view)?.is_none() {
                self.next_level += 1;
                continue;
            }
            let frame = self.frame_at(self.next_level)?;
            if frame.cancelled {
                return Ok(RefineOutcome::Cancelled(frame));
            }
            self.next_level += 1;
            return Ok(RefineOutcome::Frame(frame));
        }
        Ok(RefineOutcome::Done)
    }

    /// Run refinement until the target level is delivered or the token
    /// fires.
    pub fn refine(&mut self) -> Result<RefineRun<T>> {
        let mut frames = Vec::new();
        loop {
            match self.refine_step()? {
                RefineOutcome::Frame(f) => frames.push(f),
                RefineOutcome::Cancelled(f) => {
                    let cancelled_at = Some(f.level);
                    frames.push(f);
                    return Ok(RefineRun { frames, cancelled_at });
                }
                RefineOutcome::Done => return Ok(RefineRun { frames, cancelled_at: None }),
            }
        }
    }

    /// One-shot read of an arbitrary `region` at `level` through the
    /// session (the snip / slice-probe path): resolves only blocks not
    /// already resident, without disturbing the refinement cursor of the
    /// current view.
    pub fn read_region(&mut self, region: Box2i, level: u32) -> Result<SessionFrame<T>> {
        self.ds.check_level(level)?;
        let region = region
            .intersect(&self.ds.bounds())
            .ok_or_else(|| NsdfError::invalid("query region does not intersect dataset"))?;
        let _frame_span = self.m.obs.span("frame");
        let region = self.view_box(region, level)?;
        let needed = self.plan(region, level)?;
        self.frame(region, level, &needed)
    }

    /// Speculatively resolve the neighbor viewport one region-width ahead
    /// in the last pan direction, refined to `level`. Blocks land in the
    /// resident set and shared caches and are counted as
    /// `prefetch_hits` when a later frame needs them. Returns the number
    /// of blocks resolved.
    pub fn prefetch_pan_neighbor(&mut self, level: u32) -> Result<u64> {
        let (dx, dy) = self.last_pan;
        if (dx, dy) == (0, 0) {
            return Ok(0);
        }
        let (w, h) = (self.region.width(), self.region.height());
        let shifted = Box2i::new(
            self.region.x0 + dx * w,
            self.region.y0 + dy * h,
            self.region.x1 + dx * w,
            self.region.y1 + dy * h,
        );
        let Some(neighbor) = shifted.intersect(&self.ds.bounds()) else {
            return Ok(0);
        };
        let level = level.min(self.ds.max_level());
        let needed = self.plan(self.view_box(neighbor, level)?, level)?;
        let key = |b: u64| (self.field_idx, self.time, b);
        let to_resolve: Vec<u64> =
            needed.into_iter().filter(|&b| self.resident.get(&key(b)).is_none()).collect();
        let mut stats = QueryStats::default();
        let mut acct = FrameAcct::default();
        self.resolve_blocks(self.time, &to_resolve, true, &mut stats, &mut acct)?;
        Ok(acct.fetched)
    }

    /// Speculatively resolve the current viewport's blocks for another
    /// timestep (playback's next step) refined to `level`, warming the
    /// shared decoded cache and any `TierCache` below. Returns the
    /// number of blocks resolved.
    pub fn prefetch_time(&mut self, time: u32, level: u32) -> Result<u64> {
        self.ds.check_time(time)?;
        if time == self.time {
            return Ok(0);
        }
        let level = level.min(self.ds.max_level());
        let needed = self.plan(self.view_box(self.region, level)?, level)?;
        let mut stats = QueryStats::default();
        let mut acct = FrameAcct::default();
        self.resolve_blocks(time, &needed, true, &mut stats, &mut acct)?;
        Ok(acct.fetched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{Field, IdxMeta};
    use nsdf_compress::Codec;
    use nsdf_storage::{MemoryStore, ObjectStore};
    use nsdf_util::{DType, Volume};

    /// Raw bytes of one block image in the datasets below (2^8 `f32`s).
    const BLOCK_BYTES: u64 = 256 * 4;

    fn dataset(w: u64, h: u64) -> Arc<IdxDataset> {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let meta = IdxMeta::new_2d("s", w, h, fields, 8, Codec::Lz4).unwrap();
        Arc::new(IdxDataset::create(store, "s", meta).unwrap())
    }

    #[test]
    fn a_frame_larger_than_the_budget_renders_whole() {
        let ds = dataset(100, 60);
        let data = Raster::from_fn(100, 60, |x, y| (y * 100 + x) as f32 + 0.5);
        ds.write_raster("v", 0, &data).unwrap();
        let level = ds.max_level();
        let (want, direct) = ds.read_full::<f32>("v", 0).unwrap();
        assert!(direct.blocks_touched > 8, "the view must not fit four blocks");

        let mut session = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
        session.resident = DecodedCache::new(4 * BLOCK_BYTES);
        for round in 0..2 {
            let frame = session.frame_at(level).unwrap();
            assert_eq!(frame.raster.data(), want.data(), "round {round}");
            assert_eq!(frame.stats.blocks_missing, direct.blocks_missing);
            assert_eq!(frame.blocks_reused + frame.blocks_fetched, direct.blocks_touched);
            assert!(frame.blocks_reused <= 4);
            assert!(session.resident.bytes <= 4 * BLOCK_BYTES);
        }
    }

    #[test]
    fn a_resident_snapshot_outlives_a_later_merge_into_its_block() {
        let ds = dataset(32, 32);
        let first = Raster::from_fn(8, 8, |x, y| (y * 8 + x) as f32 + 1.0);
        ds.write_box("v", 0, 0, 0, &first).unwrap();

        // The session resolves the pending images themselves, not copies.
        let mut session = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
        let level = ds.max_level();
        let before = session.frame_at(level).unwrap();
        assert_eq!(before.raster.window(Box2i::new(0, 0, 8, 8)).unwrap().data(), first.data());
        assert_eq!(before.raster.get(20, 20), 0.0);

        // A later write merges into those blocks: the handle sees it, the
        // session keeps the snapshot it resolved.
        let second = Raster::from_fn(32, 16, |x, y| -((y * 32 + x) as f32) - 1.0);
        ds.write_box("v", 0, 0, 0, &second).unwrap();
        let (now, _) = ds.read_full::<f32>("v", 0).unwrap();
        assert_eq!(now.window(Box2i::new(0, 0, 32, 16)).unwrap().data(), second.data());
        let after = session.frame_at(level).unwrap();
        assert_eq!(after.blocks_fetched, 0);
        assert_eq!(after.raster.data(), before.raster.data());

        // A fresh view of the same handle resolves the merged images.
        let mut fresh = QuerySession::<f32>::new(Arc::clone(&ds), "v").unwrap();
        assert_eq!(fresh.frame_at(level).unwrap().raster.data(), now.data());
    }

    #[test]
    fn a_flythrough_larger_than_the_budget_stays_within_it() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let fields = vec![Field::new("v", DType::F32).unwrap()];
        let meta = IdxMeta::new_3d("vol", 20, 12, 9, fields, 8, Codec::Lz4).unwrap();
        let vol = crate::IdxVolume::create(store, "vol", meta).unwrap();
        let data = Volume::from_fn(20, 12, 9, |x, y, z| ((z * 12 + y) * 20 + x) as f32 - 7.0);
        vol.write_volume("v", 0, &data).unwrap();
        let level = vol.max_level();

        let budget = 3 * BLOCK_BYTES;
        let mut session = vol.session::<f32>("v").unwrap();
        session.resident = DecodedCache::new(budget);
        let mut touched = BTreeSet::new();
        for z in (0..9).chain((0..9).rev()) {
            session.set_slice(z).unwrap();
            let frame = session.frame_at(level).unwrap();
            assert_eq!(frame.raster.data(), data.slice_z(z as usize).unwrap().data(), "z={z}");
            assert_eq!(frame.stats.blocks_missing, 0);
            assert!(session.resident.bytes <= budget, "z={z}: {}", session.resident.bytes);
            touched.extend(session.view_blocks.iter().copied());
        }
        assert!(touched.len() as u64 * BLOCK_BYTES > budget, "the sweep must not fit");
        assert!(session.stats().blocks_fetched > touched.len() as u64, "nothing was evicted");
    }
}
