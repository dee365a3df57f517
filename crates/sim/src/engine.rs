//! Deterministic discrete-event engine: a bucketed calendar queue.
//!
//! The engine is intentionally policy-free: it orders `(cycle, event)` pairs
//! and hands them back either one at a time ([`EventQueue::pop`]) or as
//! whole same-cycle batches ([`EventQueue::drain_cycle`]). The architecture
//! model (the `spacea-arch` crate) owns all machine state and interprets the
//! events. Events scheduled for the same cycle are delivered in scheduling
//! (FIFO) order, which makes every simulation bit-for-bit reproducible.
//!
//! # Layout
//!
//! The queue is a timing wheel of [`WHEEL_BUCKETS`] one-cycle buckets
//! covering the near future `[now, now + WHEEL_BUCKETS)`, an occupancy
//! bitmap (one bit per bucket, scanned a 64-bucket word at a time), and a
//! sorted overflow tree for events beyond the horizon (watchdog-scale
//! timers, far-future retries, deeply backlogged banks).
//!
//! Wheel events live in one node arena. Each bucket is an intrusive FIFO
//! list through that arena — a head and a tail index — and freed nodes go
//! on a LIFO free list, so a schedule reuses the node a drain just
//! released and the whole wheel is three flat arrays. Scheduling and
//! popping inside the horizon are O(1) amortized — a node link and a
//! bitmap probe — versus the O(log n) sift of the previous `BinaryHeap`
//! engine (kept as [`reference::HeapQueue`], the oracle the equivalence
//! proptests and `engine_bench` compare against).
//!
//! # Tie-break contract
//!
//! Within one cycle, events are delivered in exactly the order `schedule`
//! was called, and an event scheduled *while* draining cycle `t` for cycle
//! `t` lands after everything already pending at `t`. No sequence number
//! is stored: FIFO order is list order, since a schedule appends at its
//! bucket's tail and overflow events for a cycle migrate into the wheel
//! (in their order) before the horizon lets a new schedule reach that
//! cycle directly. This makes [`EventQueue::drain_cycle`] observationally
//! identical to a `pop` loop: the batch boundary is invisible to the model.

use crate::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// Buckets in the timing wheel (one cycle each, a power of two).
///
/// Sized to cover the common latency scale of the machine model (CAM/TSV
/// latencies, DRAM timings, NoC hop chains, the stall-retry bounce) without
/// touching the overflow tree; only genuinely far-future events (deeply
/// backlogged banks, fault-plan delays) pay the tree's O(log n).
pub const WHEEL_BUCKETS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;

/// The queue operations every engine implementation provides.
///
/// The heap-vs-calendar equivalence proptests and the `engine_bench`
/// workloads drive both [`EventQueue`] and [`reference::HeapQueue`] through
/// this trait, so a schedule replays identically on either engine.
pub trait DesQueue<E> {
    /// Schedules `event` at absolute cycle `at` (clamped to `now`).
    fn schedule(&mut self, at: Cycle, event: E);
    /// Pops the next event, advancing the clock to its cycle.
    fn pop(&mut self) -> Option<(Cycle, E)>;
    /// Moves every event pending at the next occupied cycle into `sink`
    /// (appending, in scheduling order) and returns that cycle.
    fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle>;
    /// The cycle of the most recently delivered event.
    fn now(&self) -> Cycle;
    /// Number of events currently pending.
    fn len(&self) -> usize;
    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic calendar queue of timed events.
///
/// # Example
///
/// ```
/// use spacea_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(10, "late");
/// q.schedule(1, "early");
/// assert_eq!(q.pop(), Some((1, "early")));
/// assert_eq!(q.now(), 1);
/// ```
///
/// Same-cycle batches can be drained whole; scheduling order is preserved
/// and follow-up events scheduled for the drained cycle surface on the next
/// drain of that cycle:
///
/// ```
/// use spacea_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(7, "a");
/// q.schedule(7, "b");
/// q.schedule(9, "c");
/// let mut batch = Vec::new();
/// assert_eq!(q.drain_cycle(&mut batch), Some(7));
/// assert_eq!(batch, vec!["a", "b"]);
/// batch.clear();
/// assert_eq!(q.drain_cycle(&mut batch), Some(9));
/// assert_eq!(batch, vec!["c"]);
/// ```
///
/// # Counter invariant
///
/// At every point in the queue's lifetime,
///
/// ```text
/// scheduled_count() − processed_count() == len()
/// ```
///
/// Every scheduled event is either still pending or has been delivered
/// exactly once — events are never dropped, duplicated, or conjured. Run
/// telemetry (the `spacea-harness` manifest) relies on this to report
/// events-processed counts that reconcile with queue occupancy; see
/// [`EventQueue::check_counters`] and the `counter_invariant_*` tests.
///
/// ```
/// use spacea_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(3, "a");
/// q.schedule(5, "b");
/// q.pop();
/// assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
/// q.check_counters(); // would panic if the invariant were violated
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The node arena: every event in the wheel occupies one node, and
    /// every node is on exactly one list — a bucket's FIFO or the free list.
    nodes: Vec<Node<E>>,
    /// First and last node of each bucket's FIFO list; bucket
    /// `c % WHEEL_BUCKETS` holds only events at cycle `c` (the horizon is
    /// shorter than the wheel, so two distinct pending cycles never share
    /// a bucket).
    buckets: Vec<Bucket>,
    /// Head of the LIFO free list (`NIL` when empty): a drained batch is
    /// spliced onto it whole, so the next schedule reuses a node whose
    /// cache line was just touched.
    free: u32,
    /// One occupancy bit per bucket, scanned 64 buckets per probe.
    occupied: [u64; WHEEL_WORDS],
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Events beyond the horizon, keyed by cycle; each deque is in
    /// scheduling order. Invariant: every key is `>= now + WHEEL_BUCKETS`.
    overflow: BTreeMap<Cycle, VecDeque<E>>,
    /// Events currently in the overflow tree.
    overflow_len: usize,
    now: Cycle,
    scheduled: u64,
    processed: u64,
}

/// End of a list: an empty bucket, the last node of a FIFO, or an empty
/// free list.
const NIL: u32 = u32::MAX;

/// One arena slot: an event (`None` while the node is free) and the next
/// node on its list.
#[derive(Debug, Clone)]
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// The first and last node of one bucket's FIFO list (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            buckets: vec![Bucket { head: NIL, tail: NIL }; WHEEL_BUCKETS],
            free: NIL,
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            overflow: BTreeMap::new(),
            overflow_len: 0,
            now: 0,
            scheduled: 0,
            processed: 0,
        }
    }

    /// The cycle of the most recently delivered event (0 before the first).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow_len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered over the queue's lifetime.
    pub fn processed_count(&self) -> u64 {
        self.processed
    }

    #[inline]
    fn bucket_of(at: Cycle) -> usize {
        (at % WHEEL_BUCKETS as Cycle) as usize
    }

    #[inline]
    fn clear_bit(&mut self, bucket: usize) {
        self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
    }

    /// Schedules `event` to fire at absolute cycle `at`.
    ///
    /// Scheduling in the past is clamped to `now`: a component reacting to an
    /// event at cycle `t` may trigger follow-up work "immediately", which
    /// lands at `t` and is delivered after all earlier-scheduled cycle-`t`
    /// events.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let at = at.max(self.now);
        self.scheduled += 1;
        if at - self.now < WHEEL_BUCKETS as Cycle {
            self.push_wheel(at, event);
        } else {
            self.overflow.entry(at).or_default().push_back(event);
            self.overflow_len += 1;
        }
    }

    /// Appends `event` to the FIFO list of `at`'s bucket in a node taken
    /// from the free list (or a new one when the list is empty).
    fn push_wheel(&mut self, at: Cycle, event: E) {
        let node = match self.free {
            NIL => {
                self.nodes.push(Node { event: Some(event), next: NIL });
                (self.nodes.len() - 1) as u32
            }
            free => {
                let slot = &mut self.nodes[free as usize];
                self.free = slot.next;
                *slot = Node { event: Some(event), next: NIL };
                free
            }
        };
        let bucket = Self::bucket_of(at);
        let list = &mut self.buckets[bucket];
        if list.head == NIL {
            list.head = node;
            self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
        } else {
            self.nodes[list.tail as usize].next = node;
        }
        list.tail = node;
        self.wheel_len += 1;
    }

    /// Schedules `event` to fire `delay` cycles after the current time.
    pub fn schedule_after(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// The earliest occupied cycle in the wheel, scanning the occupancy
    /// bitmap from `now` forward (with wrap). `None` when the wheel is
    /// empty.
    fn next_wheel_cycle(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = Self::bucket_of(self.now);
        let mut word_ix = start / 64;
        // First probe masks off buckets before `now` within the word.
        let mut word = self.occupied[word_ix] & (!0u64 << (start % 64));
        for _ in 0..=WHEEL_WORDS {
            if word != 0 {
                let bucket = word_ix * 64 + word.trailing_zeros() as usize;
                let offset = (bucket + WHEEL_BUCKETS - start) % WHEEL_BUCKETS;
                return Some(self.now + offset as Cycle);
            }
            word_ix = (word_ix + 1) % WHEEL_WORDS;
            // On wrap-around the start word is re-probed unmasked: its low
            // bits map to cycles just under one full wheel ahead.
            word = self.occupied[word_ix];
        }
        None
    }

    /// Advances the clock to `to` and migrates every overflow entry that
    /// the move brought inside the horizon into the wheel. Called only with
    /// `to` at or before the earliest pending event, so migrated events are
    /// always strictly in the future.
    fn advance_to(&mut self, to: Cycle) {
        self.now = to;
        let horizon = to.saturating_add(WHEEL_BUCKETS as Cycle);
        while let Some((&at, _)) = self.overflow.first_key_value() {
            if at >= horizon {
                break;
            }
            let Some(events) = self.overflow.remove(&at) else { break };
            self.overflow_len -= events.len();
            for event in events {
                self.push_wheel(at, event);
            }
        }
    }

    /// Positions the clock on the next occupied cycle, pulling from the
    /// overflow tree when the wheel is empty. Returns that cycle.
    fn seek_next(&mut self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            let (&at, _) = self.overflow.first_key_value()?;
            self.advance_to(at);
        }
        let next = self.next_wheel_cycle()?;
        if next > self.now {
            self.advance_to(next);
        }
        Some(next)
    }

    /// Pops the next event, advancing the clock to its cycle.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let at = self.seek_next()?;
        let bucket = Self::bucket_of(at);
        let node = self.buckets[bucket].head;
        let slot = self.nodes.get_mut(node as usize)?;
        let event = slot.event.take()?;
        self.buckets[bucket].head = std::mem::replace(&mut slot.next, self.free);
        self.free = node;
        if self.buckets[bucket].head == NIL {
            self.buckets[bucket].tail = NIL;
            self.clear_bit(bucket);
        }
        self.wheel_len -= 1;
        self.processed += 1;
        Some((at, event))
    }

    /// Moves every event pending at the next occupied cycle into `sink`
    /// (appending, in scheduling order), advances the clock to that cycle,
    /// and returns it.
    ///
    /// Events scheduled *for the drained cycle* while the batch is being
    /// processed are not lost: they start a new list in the (now empty)
    /// bucket — reusing the nodes the batch just freed — and the next
    /// `drain_cycle` call returns the same cycle again with just those
    /// follow-ups, in exactly the order a `pop` loop would have delivered.
    pub fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
        let at = self.seek_next()?;
        let bucket = Self::bucket_of(at);
        let Bucket { head, tail } = self.buckets[bucket];
        self.buckets[bucket] = Bucket { head: NIL, tail: NIL };
        self.clear_bit(bucket);
        let mut n = 0;
        let mut node = head;
        while let Some(slot) = self.nodes.get_mut(node as usize) {
            sink.extend(slot.event.take());
            n += 1;
            node = slot.next;
        }
        // Splice the drained list onto the free list whole.
        if let Some(last) = self.nodes.get_mut(tail as usize) {
            last.next = self.free;
            self.free = head;
        }
        self.wheel_len -= n;
        self.processed += n as u64;
        Some(at)
    }

    /// The cycle of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Cycle> {
        match self.next_wheel_cycle() {
            Some(wheel_next) => Some(wheel_next),
            None => self.overflow.first_key_value().map(|(&at, _)| at),
        }
    }

    /// Asserts the counter invariant `scheduled − processed == len`.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated, which would indicate a bug in
    /// the queue itself (events lost or double-delivered).
    pub fn check_counters(&self) {
        if let Err(msg) = self.try_check_counters() {
            // lint:allow(R1) documented panic; try_check_counters is the fallible twin
            panic!("{msg}");
        }
    }

    /// Checks the counter invariant `scheduled − processed == len`,
    /// returning the violation as a message instead of panicking — for
    /// callers (the machine's supervised run path) that surface it as a
    /// structured error.
    ///
    /// # Errors
    ///
    /// Returns a message naming all three counters when the invariant does
    /// not hold.
    pub fn try_check_counters(&self) -> Result<(), String> {
        if self.scheduled.checked_sub(self.processed) == Some(self.len() as u64) {
            Ok(())
        } else {
            Err(format!(
                "event-queue counter invariant violated: scheduled {} - processed {} != pending {}",
                self.scheduled,
                self.processed,
                self.len()
            ))
        }
    }
}

impl<E> DesQueue<E> for EventQueue<E> {
    fn schedule(&mut self, at: Cycle, event: E) {
        EventQueue::schedule(self, at, event);
    }
    fn pop(&mut self) -> Option<(Cycle, E)> {
        EventQueue::pop(self)
    }
    fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
        EventQueue::drain_cycle(self, sink)
    }
    fn now(&self) -> Cycle {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

pub mod reference {
    //! The previous `BinaryHeap`-backed engine, kept verbatim as the
    //! reference implementation: the heap-vs-calendar equivalence proptests
    //! replay arbitrary schedules on both engines and demand identical
    //! delivery, and `engine_bench` measures the calendar queue's speedup
    //! against this baseline.

    use super::DesQueue;
    use crate::Cycle;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        at: Cycle,
        seq: u64,
    }

    /// Wrapper so the heap never compares payloads: ordering is fully
    /// determined by the key, and `E` needs no `Ord` bound.
    #[derive(Debug, Clone)]
    struct EventSlot<E>(E);

    impl<E> PartialEq for EventSlot<E> {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }
    impl<E> Eq for EventSlot<E> {}
    impl<E> PartialOrd for EventSlot<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for EventSlot<E> {
        fn cmp(&self, _: &Self) -> std::cmp::Ordering {
            std::cmp::Ordering::Equal
        }
    }

    /// The O(log n) binary-heap event queue (pre-calendar engine).
    #[derive(Debug, Clone)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Key, EventSlot<E>)>>,
        seq: u64,
        now: Cycle,
        scheduled: u64,
        processed: u64,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue at cycle 0.
        pub fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), seq: 0, now: 0, scheduled: 0, processed: 0 }
        }

        /// The cycle of the most recently popped event.
        pub fn now(&self) -> Cycle {
            self.now
        }

        /// Number of events currently pending.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns `true` if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total events scheduled over the queue's lifetime.
        pub fn scheduled_count(&self) -> u64 {
            self.scheduled
        }

        /// Total events popped over the queue's lifetime.
        pub fn processed_count(&self) -> u64 {
            self.processed
        }

        /// Schedules `event` at absolute cycle `at` (clamped to `now`).
        pub fn schedule(&mut self, at: Cycle, event: E) {
            let at = at.max(self.now);
            let key = Key { at, seq: self.seq };
            self.seq += 1;
            self.scheduled += 1;
            self.heap.push(Reverse((key, EventSlot(event))));
        }

        /// Pops the next event, advancing the clock to its cycle.
        pub fn pop(&mut self) -> Option<(Cycle, E)> {
            let Reverse((key, EventSlot(ev))) = self.heap.pop()?;
            debug_assert!(key.at >= self.now, "event queue time went backwards");
            self.now = key.at;
            self.processed += 1;
            Some((key.at, ev))
        }

        /// Drains every event at the next pending cycle into `sink`
        /// (appending), returning that cycle — the batch API mirror.
        pub fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
            let (at, first) = self.pop()?;
            sink.push(first);
            while self.heap.peek().is_some_and(|Reverse((k, _))| k.at == at) {
                if let Some(Reverse((_, EventSlot(ev)))) = self.heap.pop() {
                    self.processed += 1;
                    sink.push(ev);
                }
            }
            Some(at)
        }

        /// The cycle of the next pending event without popping it.
        pub fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|Reverse((k, _))| k.at)
        }
    }

    impl<E> DesQueue<E> for HeapQueue<E> {
        fn schedule(&mut self, at: Cycle, event: E) {
            HeapQueue::schedule(self, at, event);
        }
        fn pop(&mut self) -> Option<(Cycle, E)> {
            HeapQueue::pop(self)
        }
        fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
            HeapQueue::drain_cycle(self, sink)
        }
        fn now(&self) -> Cycle {
            HeapQueue::now(self)
        }
        fn len(&self) -> usize {
            HeapQueue::len(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(5, ());
        q.pop();
        assert_eq!(q.now(), 5);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        q.pop();
        q.schedule(3, "late");
        assert_eq!(q.pop(), Some((10, "late")));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(10, "first");
        q.pop();
        q.schedule_after(5, "second");
        assert_eq!(q.pop(), Some((15, "second")));
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.pop();
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.processed_count(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counter_invariant_holds_throughout_lifetime() {
        let mut q = EventQueue::new();
        q.check_counters();
        for i in 0..50 {
            q.schedule(i % 7, i);
            q.check_counters();
            assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
        }
        while q.pop().is_some() {
            q.check_counters();
            assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
        }
        assert_eq!(q.scheduled_count(), 50);
        assert_eq!(q.processed_count(), 50);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn counter_invariant_survives_interleaving() {
        // Schedule-from-pop interleaving (the machine's actual usage
        // pattern): follow-up events created while draining.
        let mut q = EventQueue::new();
        q.schedule(0, 0u64);
        let mut processed = 0u64;
        while let Some((t, ev)) = q.pop() {
            processed += 1;
            if ev < 20 {
                q.schedule(t + 1, ev + 1);
                q.schedule(t + 2, ev + 2);
            }
            q.check_counters();
        }
        assert_eq!(q.processed_count(), processed);
        assert_eq!(q.scheduled_count(), processed, "drained queue: all scheduled were processed");
    }

    #[test]
    fn try_check_counters_reports_instead_of_panicking() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        assert!(q.try_check_counters().is_ok());
        q.pop();
        assert!(q.try_check_counters().is_ok());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn payload_needs_no_ord() {
        // f64 is not Ord; the queue must still work.
        let mut q = EventQueue::new();
        q.schedule(1, 2.5f64);
        assert_eq!(q.pop(), Some((1, 2.5)));
    }

    #[test]
    fn far_future_events_route_through_overflow_and_back() {
        let mut q = EventQueue::new();
        let far = WHEEL_BUCKETS as Cycle * 37 + 11;
        q.schedule(far, "far");
        q.schedule(2, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.pop(), Some((2, "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.now(), far);
        q.check_counters();
    }

    #[test]
    fn overflow_preserves_fifo_against_later_wheel_inserts() {
        // An event parked in overflow for cycle c must still precede an
        // event scheduled for c *later* (higher seq), even though the
        // latter may be inserted directly into the wheel after the horizon
        // has moved.
        let mut q = EventQueue::new();
        let c = WHEEL_BUCKETS as Cycle + 100;
        q.schedule(c, "first");
        q.schedule(c - WHEEL_BUCKETS as Cycle, "mover");
        assert_eq!(q.pop(), Some((c - WHEEL_BUCKETS as Cycle, "mover")));
        // Horizon now covers c; this insert goes straight to the wheel.
        q.schedule(c, "second");
        assert_eq!(q.pop(), Some((c, "first")));
        assert_eq!(q.pop(), Some((c, "second")));
    }

    #[test]
    fn drain_cycle_hands_back_whole_batches() {
        let mut q = EventQueue::new();
        q.schedule(4, 1);
        q.schedule(4, 2);
        q.schedule(4, 3);
        q.schedule(9, 4);
        let mut sink = Vec::new();
        assert_eq!(q.drain_cycle(&mut sink), Some(4));
        assert_eq!(sink, vec![1, 2, 3]);
        assert_eq!(q.now(), 4);
        q.check_counters();
        sink.clear();
        assert_eq!(q.drain_cycle(&mut sink), Some(9));
        assert_eq!(sink, vec![4]);
        assert_eq!(q.drain_cycle(&mut sink), None);
    }

    #[test]
    fn drain_cycle_resurfaces_same_cycle_followups() {
        let mut q = EventQueue::new();
        q.schedule(5, "a");
        q.schedule(5, "b");
        let mut sink = Vec::new();
        assert_eq!(q.drain_cycle(&mut sink), Some(5));
        // The model reacts to the batch by scheduling more work at cycle 5.
        q.schedule(5, "c");
        q.schedule(5, "d");
        sink.clear();
        assert_eq!(q.drain_cycle(&mut sink), Some(5), "same cycle drains again");
        assert_eq!(sink, vec!["c", "d"]);
        q.check_counters();
    }

    /// Drains `q` to empty batch by batch. The first batch at cycle 5
    /// schedules one cycle-5 follow-up per event; the second schedules one
    /// cycle-6 follow-up per event. Returns every batch with its cycle.
    fn replay_followups<Q: DesQueue<u32>>(q: &mut Q) -> Vec<(Cycle, Vec<u32>)> {
        for (at, ev) in [(5, 1), (5, 2), (5, 3), (6, 10)] {
            q.schedule(at, ev);
        }
        let mut batches = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = q.drain_cycle(&mut batch) {
            for &ev in &batch {
                match batches.len() {
                    0 => q.schedule(t, ev + 100),
                    1 => q.schedule(t + 1, ev + 200),
                    _ => {}
                }
            }
            batches.push((t, std::mem::take(&mut batch)));
        }
        batches
    }

    #[test]
    fn followups_in_nodes_freed_by_a_drain_land_after_the_batch() {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let got = replay_followups(&mut cal);
        assert_eq!(
            got,
            vec![(5, vec![1, 2, 3]), (5, vec![101, 102, 103]), (6, vec![10, 301, 302, 303])]
        );
        assert_eq!(got, replay_followups(&mut reference::HeapQueue::new()));
        // Every follow-up reused a node the previous batch released: the
        // arena never grew past the four events first scheduled.
        assert_eq!(cal.nodes.len(), 4);
        cal.check_counters();
    }

    #[test]
    fn wheel_wraparound_keeps_order() {
        // March the clock across several full wheel revolutions with a
        // stride that exercises bucket reuse and the bitmap wrap scan.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..200 {
            let at = i * 97; // crosses the 4096 boundary repeatedly
            q.schedule(at, i);
            expect.push((at, i));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_schedule() {
        // A quick inline cross-check (the full property test lives in
        // tests/engine_equivalence.rs): interleaved schedules and pops with
        // bursts and far-future outliers replay identically.
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: reference::HeapQueue<u64> = reference::HeapQueue::new();
        let mut state = 0x9E37_79B9u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..5_000u64 {
            let r = step();
            match r % 4 {
                0 | 1 => {
                    let delay = match r % 97 {
                        0 => 100_000, // overflow territory
                        d => d,
                    };
                    cal.schedule(cal.now() + delay, i);
                    heap.schedule(heap.now() + delay, i);
                }
                2 => {
                    // Same-cycle burst.
                    let at = cal.now() + (r % 16);
                    for b in 0..(r % 7) {
                        cal.schedule(at, i + b);
                        heap.schedule(at, i + b);
                    }
                }
                _ => assert_eq!(cal.pop(), heap.pop()),
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.processed_count(), heap.processed_count());
    }
}
