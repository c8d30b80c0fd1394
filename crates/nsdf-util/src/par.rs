//! Minimal data-parallel helpers built on `crossbeam::scope`.
//!
//! The workspace deliberately avoids a global thread-pool dependency; these
//! helpers give GEOtiled tiles, IDX block codecs, and benchmark sweeps
//! fork-join parallelism with deterministic output ordering. Workers claim
//! items one at a time from a shared cursor, so uneven per-item cost
//! balances across them.

use std::cell::UnsafeCell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: `available_parallelism`, floored at 1.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parallel ordered map: applies `f` to every item of `items` and returns
/// the results in input order.
///
/// Items are pulled from a shared atomic cursor so uneven per-item cost
/// (e.g. tiles with different relief) balances across workers.
pub fn par_map<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    par_map_indexed(items, threads, |_, item| f(item))
}

/// Like [`par_map`] but `f` also receives the item index.
pub(crate) fn par_map_indexed<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    let mapped = claim_by_cursor(items.iter(), threads, |i, item| Ok::<U, Infallible>(f(i, item)));
    match mapped {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Fallible parallel ordered map that consumes `items` and hands each one to
/// `f` **by value**, so codecs can reuse an input buffer instead of copying
/// it (the `Raw` passthrough becomes a move). Returns the results in input
/// order, or the error `f` produced for the **earliest** item that failed.
///
/// The error choice is deterministic regardless of thread count or
/// scheduling: workers record the lowest failing index seen so far and skip
/// items beyond it (those may be dropped unprocessed), and every item before
/// the final lowest failure has already been computed, so the returned error
/// is always the one a sequential left-to-right run would hit first. This
/// keeps parallel IDX block decoding byte- and error-identical to the
/// sequential path.
pub fn try_par_map_owned<T: Send, U: Send, E: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> std::result::Result<U, E> + Sync,
) -> std::result::Result<Vec<U>, E> {
    claim_by_cursor(items.into_iter(), threads, |_, item| f(item))
}

/// One item's place in the worker loop: the input until a worker claims it,
/// the result once computed.
enum Slot<T, U> {
    Todo(T),
    Taken,
    Done(U),
}

/// Slots that scoped workers fill at disjoint indices.
struct Slots<T, U>(Vec<UnsafeCell<Slot<T, U>>>);

// SAFETY: only `claim_by_cursor` touches the cells, each index from at most
// one thread (enforced by its atomic cursor) until the scope has joined.
unsafe impl<T: Send, U: Send> Sync for Slots<T, U> {}

impl<T, U> Slots<T, U> {
    fn cell(&self, i: usize) -> *mut Slot<T, U> {
        self.0[i].get()
    }
}

/// The one worker loop behind the maps above: up to `threads` scoped workers
/// claim indices from a shared cursor, take the item and leave the result —
/// or record the lowest failing index — in its slot.
fn claim_by_cursor<T: Send, U: Send, E: Send>(
    items: impl ExactSizeIterator<Item = T>,
    threads: usize,
    f: impl Fn(usize, T) -> std::result::Result<U, E> + Sync,
) -> std::result::Result<Vec<U>, E> {
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let slots = Slots(items.map(|item| UnsafeCell::new(Slot::Todo(item))).collect());
    let cursor = AtomicUsize::new(0);
    // Lowest failing index seen so far; items beyond it are skipped.
    let err_idx = AtomicUsize::new(usize::MAX);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);

    crossbeam::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if i > err_idx.load(Ordering::Acquire) {
                    continue;
                }
                // SAFETY: each index i is claimed by exactly one worker via
                // the atomic fetch_add, so no two threads hold the same slot,
                // and the scope joins all workers before `slots` is read.
                let slot = unsafe { &mut *slots.cell(i) };
                let Slot::Todo(item) = std::mem::replace(slot, Slot::Taken) else {
                    unreachable!("slot {i} claimed twice")
                };
                match f(i, item) {
                    Ok(v) => *slot = Slot::Done(v),
                    Err(e) => {
                        err_idx.fetch_min(i, Ordering::AcqRel);
                        let mut first = first_err.lock().expect("error slot poisoned");
                        if first.as_ref().is_none_or(|(j, _)| i < *j) {
                            *first = Some((i, e));
                        }
                    }
                }
            });
        }
    })
    .expect("worker thread panicked");

    match first_err.into_inner().expect("error slot poisoned") {
        Some((_, e)) => Err(e),
        None => Ok(slots
            .0
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Slot::Done(v) => v,
                _ => unreachable!("all slots filled"),
            })
            .collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 32] {
            let par = par_map(&items, threads, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(par_map(&[42u32], 4, |x| x + 1), vec![43]);
    }

    #[test]
    fn par_map_indexed_passes_index() {
        let items = vec!["a", "b", "c"];
        let out = par_map_indexed(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn try_par_map_owned_moves_items_and_preserves_order() {
        let items: Vec<Vec<u8>> = (0..300u16).map(|i| i.to_le_bytes().to_vec()).collect();
        let seq: Vec<Vec<u8>> = items.clone();
        for threads in [1, 2, 8, 32] {
            let par = try_par_map_owned(items.clone(), threads, |mut v| {
                // Mutating in place proves ownership (no borrow of the input).
                v.push(0xAB);
                v.pop();
                Ok::<Vec<u8>, String>(v)
            });
            assert_eq!(par.as_ref().unwrap(), &seq, "threads={threads}");
        }
    }

    #[test]
    fn try_par_map_owned_returns_earliest_error() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 2, 8, 32] {
            let r = try_par_map_owned(items.clone(), threads, |x| {
                if x == 77 || x == 301 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(r.unwrap_err(), "bad 77", "threads={threads}");
        }
    }

    #[test]
    fn try_par_map_returns_earliest_error() {
        // Borrowed items are the owned map over references. Items 100, 300
        // and 400 fail; the earliest (100) must win no matter how threads
        // interleave.
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 2, 8, 32] {
            let r = try_par_map_owned(items.iter().collect(), threads, |&x| {
                if x == 100 || x == 300 || x == 400 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(r.unwrap_err(), "bad 100", "threads={threads}");
        }
    }

    #[test]
    fn try_par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert_eq!(try_par_map_owned(empty, 4, Ok::<u32, ()>).unwrap(), Vec::<u32>::new());
        assert_eq!(try_par_map_owned(vec![9u32], 4, |x| Ok::<u32, ()>(x + 1)).unwrap(), vec![10]);
        assert!(try_par_map_owned(vec![9u32], 4, |_| Err::<u32, &str>("nope")).is_err());
    }
}
