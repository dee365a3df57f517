//! Load queues (LDQ) with request deduplication.
//!
//! Both CAM levels pair with a load queue (Sections III-B and III-C) whose
//! job is to "remove the duplication of data requests": when several
//! non-zeros (or several bank groups) need the same input-vector block, only
//! the first lookup sends a request downstream; later requestors are parked
//! as waiters and woken when the response arrives.
//!
//! The queues are fully associative with a fixed capacity (512 entries for
//! L1, 8192 for L2 in the default configuration). A full queue back-pressures
//! the requestor, which retries on its next scan — the same behaviour as the
//! paper's cyclic PE queue revisit.

use crate::stats::LdqCounters;

/// Outcome of pushing a request into a load queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdqPush {
    /// The key was not pending: a new downstream request must be sent.
    NewRequest,
    /// The key is already in flight: the waiter was parked, no new request.
    Deduplicated,
    /// The queue is full; the requestor must retry later.
    Full,
}

/// End of a waiter chain, and the vacant marker of an index slot.
const NIL: u32 = u32::MAX;

/// Index slots allocated up front; the table doubles from here as keys
/// arrive, so an idle queue costs 256 bytes.
const MIN_SLOTS: usize = 16;

/// Fibonacci hashing: the multiplier is 2⁶⁴/φ, so the top bits of the
/// product spread consecutive block indices across the table.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One open-addressed index slot: a pending key and its entry's position
/// in the slab (`NIL` when the slot is vacant).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    entry: u32,
}

/// One in-flight key: the simulated cycle it was admitted at (the
/// latency-probe timestamp behind the `queue-age` gauge) and the first and
/// last node of its waiter chain.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    since: u64,
    head: u32,
    tail: u32,
}

/// A parked waiter: a link in its key's FIFO chain, or in the free list.
#[derive(Debug, Clone, Copy)]
struct Node<W> {
    waiter: W,
    next: u32,
}

/// A fully-associative load queue tracking in-flight keys and their waiters.
///
/// `W` identifies a waiter (a PE queue slot, a bank-group id, a vault id…)
/// and is handed back verbatim by [`LoadQueue::complete_into`].
///
/// The state is three reusable arrays, so once a run has reached its peak
/// occupancy no push, dedup or completion allocates:
///
/// * a dense slab of pending entries (completion swap-removes);
/// * an open-addressed index from key to slab position — linear probing, a
///   multiplicative hash, a power-of-two table kept at most half full
///   (doubling as keys arrive, including forced pushes past capacity), and
///   backward-shift deletion, so no tombstones build up;
/// * a slab of waiter nodes holding each key's waiters as a FIFO chain,
///   with completed chains spliced onto a free list.
///
/// Every operation is deterministic: nothing depends on a seeded hasher or
/// on allocation addresses.
///
/// # Example
///
/// ```
/// use spacea_sim::ldq::{LdqPush, LoadQueue};
///
/// let mut ldq: LoadQueue<&str> = LoadQueue::new(2);
/// assert_eq!(ldq.push(10, "pe0"), LdqPush::NewRequest);
/// assert_eq!(ldq.push(10, "pe1"), LdqPush::Deduplicated);
/// let mut woken = Vec::new();
/// assert_eq!(ldq.complete_into(10, &mut woken), 2);
/// assert_eq!(woken, vec!["pe0", "pe1"]);
/// ```
#[derive(Debug, Clone)]
pub struct LoadQueue<W> {
    capacity: usize,
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    entries: Vec<Entry>,
    nodes: Vec<Node<W>>,
    /// Head of the free-node list (`NIL` when empty).
    free: u32,
    counters: LdqCounters,
}

impl<W: Copy> LoadQueue<W> {
    /// Creates an empty queue holding at most `capacity` distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load queue capacity must be positive");
        LoadQueue {
            capacity,
            slots: vec![Slot { key: 0, entry: NIL }; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            entries: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            counters: LdqCounters::default(),
        }
    }

    /// Maximum number of distinct in-flight keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no keys are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `key` is currently in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.probe(key).1
    }

    /// Activity counters accumulated so far.
    pub fn counters(&self) -> &LdqCounters {
        &self.counters
    }

    /// Registers `waiter` for `key`.
    ///
    /// Returns [`LdqPush::NewRequest`] if this is the first request for the
    /// key (the caller must send it downstream), [`LdqPush::Deduplicated`] if
    /// the key was already pending, or [`LdqPush::Full`] if the queue cannot
    /// accept a new key (the waiter is *not* registered in that case).
    pub fn push(&mut self, key: u64, waiter: W) -> LdqPush {
        self.push_at(key, waiter, 0)
    }

    /// [`push`](LoadQueue::push) with an admission timestamp: `now` is the
    /// simulated cycle, recorded for new keys so
    /// [`oldest_age`](LoadQueue::oldest_age) can report how long the
    /// longest-waiting request has been in flight.
    pub fn push_at(&mut self, key: u64, waiter: W, now: u64) -> LdqPush {
        self.push_impl(key, waiter, now, false)
    }

    /// Registers `waiter` for `key`, admitting the key even when the queue
    /// is over capacity.
    ///
    /// Structural overflow is counted in
    /// [`rejected_full`](crate::stats::LdqCounters::rejected_full) but the
    /// waiter is always parked; never returns [`LdqPush::Full`]. Used where
    /// dropping the request would require a retry loop the caller cannot
    /// express (the requestor has already moved on, as the non-blocking PE
    /// control unit does).
    pub fn push_forced(&mut self, key: u64, waiter: W) -> LdqPush {
        self.push_forced_at(key, waiter, 0)
    }

    /// [`push_forced`](LoadQueue::push_forced) with an admission timestamp
    /// (see [`push_at`](LoadQueue::push_at)).
    pub fn push_forced_at(&mut self, key: u64, waiter: W, now: u64) -> LdqPush {
        self.push_impl(key, waiter, now, true)
    }

    fn push_impl(&mut self, key: u64, waiter: W, now: u64, forced: bool) -> LdqPush {
        let (slot, found) = self.probe(key);
        if found {
            let node = self.alloc_node(waiter);
            let entry = &mut self.entries[self.slots[slot].entry as usize];
            let tail = std::mem::replace(&mut entry.tail, node);
            self.nodes[tail as usize].next = node;
            self.counters.deduplicated += 1;
            return LdqPush::Deduplicated;
        }
        if self.entries.len() >= self.capacity {
            self.counters.rejected_full += 1;
            if !forced {
                return LdqPush::Full;
            }
        }
        // Keep the table at most half full, so probe runs stay short and a
        // vacant slot always ends them.
        let slot = if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
            self.probe(key).0
        } else {
            slot
        };
        let node = self.alloc_node(waiter);
        self.slots[slot] = Slot { key, entry: self.entries.len() as u32 };
        self.entries.push(Entry { key, since: now, head: node, tail: node });
        self.counters.new_requests += 1;
        LdqPush::NewRequest
    }

    /// Completes `key`: removes it and appends its waiters to `out` in
    /// arrival order, returning how many were appended (0, with `out`
    /// untouched, if the key was not pending). Callers keep one `out`
    /// buffer and clear it between completions, so waking waiters does not
    /// allocate either.
    pub fn complete_into(&mut self, key: u64, out: &mut Vec<W>) -> usize {
        let (slot, found) = self.probe(key);
        if !found {
            return 0;
        }
        let ix = self.slots[slot].entry as usize;
        self.remove_slot(slot);
        let entry = self.entries.swap_remove(ix);
        if let Some(moved) = self.entries.get(ix) {
            // The last entry now sits at `ix`: repoint its index slot.
            let (moved_slot, _) = self.probe(moved.key);
            self.slots[moved_slot].entry = ix as u32;
        }
        let mut n = 0;
        let mut node = entry.head;
        while node != NIL {
            let Node { waiter, next } = self.nodes[node as usize];
            out.push(waiter);
            n += 1;
            node = next;
        }
        self.nodes[entry.tail as usize].next = self.free;
        self.free = entry.head;
        self.counters.completed += 1;
        n
    }

    /// Age in cycles of the longest-waiting in-flight key at cycle `now`,
    /// or 0 when the queue is empty. A *growing* age under steady
    /// occupancy is the signature of a stuck (not merely deep) queue —
    /// the stall-diagnosis signal occupancy gauges cannot provide.
    pub fn oldest_age(&self, now: u64) -> u64 {
        self.entries.iter().map(|e| now.saturating_sub(e.since)).max().unwrap_or(0)
    }

    /// The slot holding `key` and `true`, or the vacant slot that ends its
    /// probe run and `false`.
    fn probe(&self, key: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.entry == NIL {
                return (i, false);
            }
            if s.key == key {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Doubles the index and re-inserts every pending key.
    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        self.slots = vec![Slot { key: 0, entry: NIL }; size];
        self.shift = 64 - size.trailing_zeros();
        for ix in 0..self.entries.len() {
            let key = self.entries[ix].key;
            let (slot, _) = self.probe(key);
            self.slots[slot] = Slot { key, entry: ix as u32 };
        }
    }

    /// Backward-shift deletion: empties `hole`, then walks the rest of its
    /// probe run moving back every key whose home slot lies at or before
    /// the hole, so each remaining key stays reachable from its home.
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s.entry == NIL {
                break;
            }
            let displacement = i.wrapping_sub(self.home(s.key)) & mask;
            if displacement >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole].entry = NIL;
    }

    /// A node holding `waiter` at the end of a chain, reusing a freed one
    /// when there is one.
    fn alloc_node(&mut self, waiter: W) -> u32 {
        let node = Node { waiter, next: NIL };
        if self.free == NIL {
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let ix = self.free;
        self.free = self.nodes[ix as usize].next;
        self.nodes[ix as usize] = node;
        ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes `key` into a fresh vector (the tests' shorthand for
    /// `complete_into`).
    fn complete<W: Copy>(q: &mut LoadQueue<W>, key: u64) -> Vec<W> {
        let mut out = Vec::new();
        q.complete_into(key, &mut out);
        out
    }

    #[test]
    fn first_push_is_new_request() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        assert_eq!(q.push(1, 100), LdqPush::NewRequest);
        assert!(q.contains(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn duplicate_pushes_dedupe() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        q.push(1, 100);
        assert_eq!(q.push(1, 101), LdqPush::Deduplicated);
        assert_eq!(q.push(1, 102), LdqPush::Deduplicated);
        assert_eq!(q.len(), 1, "dedup must not consume capacity");
        assert_eq!(q.counters().deduplicated, 2);
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut q: LoadQueue<&str> = LoadQueue::new(4);
        q.push(9, "a");
        q.push(9, "b");
        assert_eq!(complete(&mut q, 9), vec!["a", "b"]);
        assert!(!q.contains(9));
        assert_eq!(complete(&mut q, 9), Vec::<&str>::new());
    }

    #[test]
    fn complete_into_appends_and_counts() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        q.push(5, 1);
        q.push(5, 2);
        let mut out = vec![9];
        assert_eq!(q.complete_into(5, &mut out), 2);
        assert_eq!(out, vec![9, 1, 2], "waiters are appended after existing items");
        assert_eq!(q.complete_into(5, &mut out), 0, "an absent key appends nothing");
        assert_eq!(out, vec![9, 1, 2]);
        assert_eq!(q.counters().completed, 1);
    }

    #[test]
    fn full_queue_rejects_new_keys_only() {
        let mut q: LoadQueue<u32> = LoadQueue::new(2);
        q.push(1, 0);
        q.push(2, 0);
        assert_eq!(q.push(3, 0), LdqPush::Full);
        // Existing keys still accept waiters when full.
        assert_eq!(q.push(1, 1), LdqPush::Deduplicated);
        assert_eq!(q.counters().rejected_full, 1);
    }

    #[test]
    fn completion_frees_capacity() {
        let mut q: LoadQueue<u32> = LoadQueue::new(1);
        q.push(1, 0);
        assert_eq!(q.push(2, 0), LdqPush::Full);
        complete(&mut q, 1);
        assert_eq!(q.push(2, 0), LdqPush::NewRequest);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: LoadQueue<()> = LoadQueue::new(0);
    }

    #[test]
    fn oldest_age_tracks_the_longest_waiting_key() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        assert_eq!(q.oldest_age(100), 0, "empty queue has no age");
        q.push_at(1, 0, 10);
        q.push_at(2, 0, 30);
        assert_eq!(q.oldest_age(50), 40);
        // Deduplicated waiters do not reset the admission stamp.
        q.push_at(1, 1, 45);
        assert_eq!(q.oldest_age(50), 40);
        // Completing the oldest key leaves the younger one's age.
        complete(&mut q, 1);
        assert_eq!(q.oldest_age(50), 20);
        // Forced pushes stamp too.
        q.push_forced_at(3, 0, 48);
        assert_eq!(q.oldest_age(50), 20);
        complete(&mut q, 2);
        assert_eq!(q.oldest_age(50), 2);
    }

    #[test]
    fn push_forced_overflows_but_registers() {
        let mut q: LoadQueue<u32> = LoadQueue::new(1);
        assert_eq!(q.push_forced(1, 0), LdqPush::NewRequest);
        assert_eq!(q.push_forced(2, 0), LdqPush::NewRequest);
        assert_eq!(q.len(), 2, "forced push admits over capacity");
        assert_eq!(q.counters().rejected_full, 1);
        assert_eq!(complete(&mut q, 2), vec![0]);
    }
}
