//! The tick-stamped recency queue behind every byte-budgeted cache.

use std::{borrow::Borrow, collections::HashMap, collections::VecDeque, hash::Hash};

/// A size-accounted LRU with lazy invalidation: each touch or insert queues
/// `(key, tick)` with a fresh tick, live while that tick is the entry's; stale
/// pairs go once they outnumber live ones (queue ≤ 2 × entries + 1). Without
/// [`Lru::touch`] it is a FIFO. `entries` and `queue` are public to inspect.
#[derive(Debug, Default)]
pub struct Lru<K, V> {
    /// Each resident key's `(value, size, tick of its latest stamp)`.
    pub entries: HashMap<K, (V, u64, u64)>,
    /// `(key, tick)` pairs, oldest stamp first.
    pub queue: VecDeque<(K, u64)>,
    bytes: u64,
    next_tick: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Sum of the resident entries' sizes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Drop stale pairs once they outnumber live ones; live pairs keep order.
    fn compact(&mut self) {
        if self.queue.len() > 2 * self.entries.len() {
            let entries = &self.entries;
            self.queue.retain(|(key, tick)| entries.get(key).is_some_and(|e| e.2 == *tick));
        }
    }

    /// Mark `key` most recently used; `None` when it is not resident.
    pub fn touch<Q: Hash + Eq + ToOwned<Owned = K> + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.compact();
        let entry = self.entries.get_mut(key)?;
        entry.2 = self.next_tick;
        self.next_tick += 1;
        self.queue.push_back((key.to_owned(), entry.2));
        Some(&entry.0)
    }

    /// Insert (or replace) `key` as most recently used.
    pub fn insert(&mut self, key: K, value: V, size: u64) {
        self.compact();
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(old) = self.entries.insert(key.clone(), (value, size, tick)) {
            self.bytes -= old.1;
        }
        self.bytes += size;
        self.queue.push_back((key, tick));
    }

    /// Drop `key`; true when it was resident.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        let Some(old) = self.entries.remove(key) else { return false };
        self.bytes -= old.1;
        true
    }

    /// The least recently used resident key, skipping stale pairs.
    pub fn victim(&mut self) -> Option<K> {
        while let Some((key, tick)) = self.queue.front() {
            if self.entries.get(key).is_some_and(|e| e.2 == *tick) {
                return Some(key.clone());
            }
            self.queue.pop_front();
        }
        None
    }
}
