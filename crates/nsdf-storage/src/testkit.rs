//! Deterministic test-injection stores for crash and ordering experiments.
//!
//! Two wrappers that differential and recovery suites across the workspace
//! share (the catalog crash-recovery battery is the primary customer):
//!
//! * [`GateStore`] parks writes to a chosen key prefix until the test
//!   releases them, so a test can hold a writer *inside* its durability
//!   write and observe what concurrent readers see at that instant —
//!   exactly the window where write-ahead ordering bugs live. Built with
//!   [`GateStore::on_gets`] it parks reads instead, freezing a cache miss
//!   mid-fetch so a write can land inside the miss window.
//! * [`CrashStore`] kills the process model at a scripted write: the n-th
//!   `put` matching a prefix either fails before any byte lands, lands a
//!   torn (truncated) object, or lands fully and *then* dies — or the n-th
//!   matching delete dies with the earlier keys of its `delete_many` wave
//!   already gone. After the crash point every operation fails, simulating
//!   the dead process; the test then reopens the underlying store with a
//!   fresh client and checks recovery.
//!
//! Both wrappers are deterministic: no clocks, no randomness — the scripted
//! write index alone decides when the event fires.

use crate::store::{ObjectMeta, ObjectStore};
use nsdf_util::{NsdfError, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where, relative to the n-th matching `put` (or, for
/// [`CrashPoint::BeforeDelete`], the n-th matching delete), a
/// [`CrashStore`] dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// Die before any byte reaches the inner store: the object is absent.
    BeforeWrite,
    /// Die mid-write: the inner store holds only this fraction (0..1) of
    /// the payload — a torn object a recovery path must detect and never
    /// serve.
    Torn(f64),
    /// Die after the write fully landed but before the caller could act on
    /// the acknowledgement.
    AfterWrite,
    /// Count deletes instead of puts — single `delete`s and the keys of a
    /// `delete_many` in input order — and die before the scripted one
    /// removes its key: the matching keys ahead of it (in the same wave
    /// included) are gone, it and everything after it are not.
    BeforeDelete,
}

/// One scripted crash: the `nth` (0-based) `put` — or delete, for
/// [`CrashPoint::BeforeDelete`] — whose key starts with `prefix` triggers
/// `point`.
#[derive(Debug, Clone)]
pub struct CrashSpec {
    /// Key prefix the scripted operation must match.
    pub prefix: String,
    /// 0-based index among matching operations.
    pub nth: u64,
    /// What happens at that operation.
    pub point: CrashPoint,
}

/// Store wrapper that dies at a scripted write (see module docs).
pub struct CrashStore {
    inner: Arc<dyn ObjectStore>,
    armed: Mutex<Option<CrashSpec>>,
    matched: AtomicU64,
    dead: AtomicBool,
}

impl CrashStore {
    /// Wrap `inner` with no crash armed.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        CrashStore {
            inner,
            armed: Mutex::new(None),
            matched: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Arm (or re-arm) the scripted crash and reset the match counter.
    pub fn arm(&self, spec: CrashSpec) {
        *self.armed.lock() = Some(spec);
        self.matched.store(0, Ordering::SeqCst);
    }

    /// True once the crash fired; every operation fails from then on.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn dead_err(&self) -> NsdfError {
        NsdfError::Io(std::io::Error::other("crash store: process is dead"))
    }

    fn guard(&self) -> Result<()> {
        if self.is_dead() {
            Err(self.dead_err())
        } else {
            Ok(())
        }
    }

    /// Count `key` against the armed script if it scripts this kind of
    /// operation; the crash point when this is the scripted one.
    fn fires(&self, key: &str, is_delete: bool) -> Option<CrashPoint> {
        let armed = self.armed.lock();
        let spec = armed.as_ref()?;
        if (spec.point == CrashPoint::BeforeDelete) != is_delete || !key.starts_with(&spec.prefix) {
            return None;
        }
        let n = self.matched.fetch_add(1, Ordering::SeqCst);
        (n == spec.nth).then_some(spec.point)
    }
}

impl ObjectStore for CrashStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.guard()?;
        match self.fires(key, false) {
            None => self.inner.put(key, data),
            Some(point) => {
                self.dead.store(true, Ordering::SeqCst);
                match point {
                    CrashPoint::BeforeWrite | CrashPoint::BeforeDelete => {}
                    CrashPoint::Torn(frac) => {
                        let keep = ((data.len() as f64) * frac.clamp(0.0, 1.0)) as usize;
                        // A torn object exists with only a prefix of the
                        // payload — the write raced the crash.
                        self.inner.put(key, &data[..keep.min(data.len())])?;
                    }
                    CrashPoint::AfterWrite => {
                        self.inner.put(key, data)?;
                    }
                }
                Err(self.dead_err())
            }
        }
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.guard()?;
        self.inner.get(key)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.guard()?;
        self.inner.head(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.guard()?;
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.guard()?;
        if self.fires(key, true).is_some() {
            self.dead.store(true, Ordering::SeqCst);
            return Err(self.dead_err());
        }
        self.inner.delete(key)
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        // The keys ahead of the scripted delete go down as one inner
        // batch; from the scripted key on, the process is dead.
        let cut = if self.is_dead() {
            0
        } else {
            keys.iter().position(|k| self.fires(k, true).is_some()).unwrap_or(keys.len())
        };
        let mut results = if cut == 0 { Vec::new() } else { self.inner.delete_many(&keys[..cut]) };
        if cut < keys.len() {
            self.dead.store(true, Ordering::SeqCst);
            results.extend(keys[cut..].iter().map(|_| Err(self.dead_err())));
        }
        results
    }

    fn describe(&self) -> String {
        format!("crash-scripted {}", self.inner.describe())
    }
}

/// Store wrapper that parks `put`s — or, built with
/// [`GateStore::on_gets`], `get`s — to a key prefix until released.
///
/// The writer thread calls `put` and blocks *after* the payload has been
/// handed to the store but *before* the call returns — modelling a durable
/// write still in flight. The test thread waits for the writer to arrive
/// ([`GateStore::wait_entered`]), observes whatever invariant it is probing
/// (e.g. "an unacknowledged record must not be readable"), then opens the
/// gate ([`GateStore::open`]). A gated `get` likewise captures the inner
/// store's answer first and parks holding it, so a write that lands while
/// it is parked leaves the reader with the pre-write payload.
pub struct GateStore {
    inner: Arc<dyn ObjectStore>,
    prefix: String,
    gate_gets: bool,
    entered: Mutex<u64>,
    entered_cv: Condvar,
    release: Mutex<bool>,
    release_cv: Condvar,
}

impl GateStore {
    /// Gate `put`s on keys starting with `prefix`; everything else passes
    /// straight through.
    pub fn new(inner: Arc<dyn ObjectStore>, prefix: impl Into<String>) -> Self {
        GateStore {
            inner,
            prefix: prefix.into(),
            gate_gets: false,
            entered: Mutex::new(0),
            entered_cv: Condvar::new(),
            release: Mutex::new(false),
            release_cv: Condvar::new(),
        }
    }

    /// Gate `get`s (not `put`s) on keys starting with `prefix`.
    pub fn on_gets(inner: Arc<dyn ObjectStore>, prefix: impl Into<String>) -> Self {
        GateStore { gate_gets: true, ..GateStore::new(inner, prefix) }
    }

    /// Block until at least `n` gated calls have parked at the gate.
    pub fn wait_entered(&self, n: u64) {
        let mut e = self.entered.lock();
        while *e < n {
            e = self.entered_cv.wait(e);
        }
    }

    /// Open the gate: parked and future gated calls complete immediately.
    pub fn open(&self) {
        *self.release.lock() = true;
        self.release_cv.notify_all();
    }

    fn park(&self) {
        *self.entered.lock() += 1;
        self.entered_cv.notify_all();
        let mut r = self.release.lock();
        while !*r {
            r = self.release_cv.wait(r);
        }
    }
}

impl ObjectStore for GateStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        if !self.gate_gets && key.starts_with(&self.prefix) {
            // The payload is durably in the inner store; the acknowledgement
            // is what the gate withholds.
            let meta = self.inner.put(key, data)?;
            self.park();
            Ok(meta)
        } else {
            self.inner.put(key, data)
        }
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let result = self.inner.get(key);
        if self.gate_gets && key.starts_with(&self.prefix) {
            self.park();
        }
        result
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.inner.head(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn delete_many(&self, keys: &[&str]) -> Vec<Result<()>> {
        self.inner.delete_many(keys)
    }

    fn describe(&self) -> String {
        format!("gated({}) {}", self.prefix, self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;

    #[test]
    fn crash_before_write_leaves_no_object_and_kills_the_store() {
        let mem = Arc::new(MemoryStore::new());
        let crash = CrashStore::new(mem.clone());
        crash.arm(CrashSpec { prefix: "wal/".into(), nth: 1, point: CrashPoint::BeforeWrite });
        crash.put("wal/w-0", b"first").unwrap();
        crash.put("other/x", b"unmatched").unwrap();
        assert!(crash.put("wal/w-1", b"second").is_err());
        assert!(crash.is_dead());
        assert!(mem.get("wal/w-1").unwrap_err().is_not_found());
        // Dead store fails everything, reads included.
        assert!(crash.get("wal/w-0").is_err());
        assert!(crash.put("wal/w-2", b"x").is_err());
        // The underlying bytes survive for a fresh client.
        assert_eq!(mem.get("wal/w-0").unwrap(), b"first");
    }

    #[test]
    fn crash_torn_write_stores_a_prefix_of_the_payload() {
        let mem = Arc::new(MemoryStore::new());
        let crash = CrashStore::new(mem.clone());
        crash.arm(CrashSpec { prefix: "seg/".into(), nth: 0, point: CrashPoint::Torn(0.5) });
        assert!(crash.put("seg/s-0", b"0123456789").is_err());
        assert_eq!(mem.get("seg/s-0").unwrap(), b"01234");
    }

    #[test]
    fn crash_after_write_stores_everything_but_still_errors() {
        let mem = Arc::new(MemoryStore::new());
        let crash = CrashStore::new(mem.clone());
        crash.arm(CrashSpec { prefix: "m/".into(), nth: 0, point: CrashPoint::AfterWrite });
        assert!(crash.put("m/mf-0", b"manifest").is_err());
        assert_eq!(mem.get("m/mf-0").unwrap(), b"manifest");
    }

    #[test]
    fn crash_inside_a_delete_wave_removes_only_the_keys_ahead_of_it() {
        let mem = Arc::new(MemoryStore::new());
        let crash = CrashStore::new(mem.clone());
        for k in ["gc/a", "keep/x", "gc/b", "gc/c"] {
            crash.put(k, b"v").unwrap();
        }
        crash.arm(CrashSpec { prefix: "gc/".into(), nth: 2, point: CrashPoint::BeforeDelete });
        crash.put("gc/d", b"puts are not counted by a delete script").unwrap();
        let results = crash.delete_many(&["gc/a", "keep/x", "gc/b", "gc/c", "gc/d"]);
        let ok: Vec<bool> = results.iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, true, true, false, false]);
        assert!(crash.is_dead());
        let left: Vec<String> = mem.list("").unwrap().into_iter().map(|m| m.key).collect();
        assert_eq!(left, ["gc/c", "gc/d"]);
        assert!(crash.delete("gc/c").is_err(), "dead store fails everything");
    }

    #[test]
    fn gate_parks_matching_puts_until_opened() {
        let mem = Arc::new(MemoryStore::new());
        let gate = Arc::new(GateStore::new(mem.clone(), "wal/"));
        gate.put("free/k", b"passes").unwrap();
        let g2 = Arc::clone(&gate);
        let writer = std::thread::spawn(move || g2.put("wal/w-0", b"gated").unwrap());
        gate.wait_entered(1);
        // Parked: the bytes are in the inner store, the ack is withheld.
        assert_eq!(mem.get("wal/w-0").unwrap(), b"gated");
        assert!(!writer.is_finished());
        gate.open();
        writer.join().unwrap();
    }

    #[test]
    fn gate_on_gets_parks_reads_holding_the_pre_write_payload() {
        let gate = Arc::new(GateStore::on_gets(Arc::new(MemoryStore::new()), "blk/"));
        gate.put("blk/0", b"old").unwrap(); // puts pass in get mode
        gate.put("free/k", b"x").unwrap();
        assert_eq!(gate.get("free/k").unwrap(), b"x");
        let g2 = Arc::clone(&gate);
        let reader = std::thread::spawn(move || g2.get("blk/0").unwrap());
        gate.wait_entered(1);
        gate.put("blk/0", b"new").unwrap(); // lands while the read is parked
        gate.open();
        assert_eq!(reader.join().unwrap(), b"old");
        assert_eq!(gate.get("blk/0").unwrap(), b"new");
    }
}
