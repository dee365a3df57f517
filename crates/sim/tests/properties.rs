//! Property tests for the simulation substrate: each stateful component is
//! checked against a simple reference model under arbitrary operation
//! sequences.

use proptest::prelude::*;
use spacea_sim::cam::{Cam, CamConfig};
use spacea_sim::dram::{AccessKind, DramBank, DramTiming};
use spacea_sim::engine::EventQueue;
use spacea_sim::ldq::{LdqPush, LoadQueue};
use spacea_sim::link::Link;
use spacea_sim::noc::MeshNoc;
use spacea_sim::stats::{CamCounters, LdqCounters};
use std::collections::BTreeMap;

/// Reference LRU model for one CAM set: a vector ordered most-recent-first.
#[derive(Default)]
struct RefLru {
    entries: Vec<(u64, u32)>,
    ways: usize,
}

impl RefLru {
    fn lookup(&mut self, key: u64) -> Option<u32> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        Some(self.entries[0].1)
    }

    fn insert(&mut self, key: u64, value: u32) {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.ways {
            self.entries.pop();
        }
        self.entries.insert(0, (key, value));
    }
}

/// The CAM as it was before its ways went flat: one `Vec` of ways per set,
/// filled by `push`, LRU victim by smallest last-use tick. The flat `Cam`
/// must match it op for op.
struct RefCam {
    sets: Vec<Vec<(u64, u32, u64)>>,
    ways: usize,
    tick: u64,
    counters: CamCounters,
}

impl RefCam {
    fn new(sets: usize, ways: usize) -> Self {
        RefCam {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            tick: 0,
            counters: CamCounters::default(),
        }
    }

    fn set_ix(&self, key: u64) -> usize {
        (key % self.sets.len() as u64) as usize
    }

    fn lookup(&mut self, key: u64) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_ix(key);
        match self.sets[s].iter_mut().find(|w| w.0 == key) {
            Some(way) => {
                way.2 = tick;
                self.counters.hits += 1;
                Some(way.1)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    fn peek(&self, key: u64) -> Option<u32> {
        self.sets[self.set_ix(key)].iter().find(|w| w.0 == key).map(|w| w.1)
    }

    fn insert(&mut self, key: u64, value: u32) -> Option<(u64, u32)> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        self.counters.fills += 1;
        let s = self.set_ix(key);
        let set = &mut self.sets[s];
        if let Some(way) = set.iter_mut().find(|w| w.0 == key) {
            way.1 = value;
            way.2 = tick;
            return None;
        }
        if set.len() < ways {
            set.push((key, value, tick));
            return None;
        }
        let (ix, _) = set.iter().enumerate().min_by_key(|(_, w)| w.2)?;
        let victim = std::mem::replace(&mut set[ix], (key, value, tick));
        self.counters.evictions += 1;
        Some((victim.0, victim.1))
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The load queue as a `BTreeMap` from key to admission cycle and waiter
/// list: the reference the slab-and-index `LoadQueue` must match.
struct RefLdq {
    capacity: usize,
    pending: BTreeMap<u64, (u64, Vec<u32>)>,
    counters: LdqCounters,
}

impl RefLdq {
    fn push(&mut self, key: u64, waiter: u32, now: u64, forced: bool) -> LdqPush {
        if let Some((_, waiters)) = self.pending.get_mut(&key) {
            waiters.push(waiter);
            self.counters.deduplicated += 1;
            return LdqPush::Deduplicated;
        }
        if self.pending.len() >= self.capacity {
            self.counters.rejected_full += 1;
            if !forced {
                return LdqPush::Full;
            }
        }
        self.pending.insert(key, (now, vec![waiter]));
        self.counters.new_requests += 1;
        LdqPush::NewRequest
    }

    fn complete(&mut self, key: u64) -> Vec<u32> {
        match self.pending.remove(&key) {
            Some((_, waiters)) => {
                self.counters.completed += 1;
                waiters
            }
            None => Vec::new(),
        }
    }

    fn oldest_age(&self, now: u64) -> u64 {
        self.pending.values().map(|(since, _)| now.saturating_sub(*since)).max().unwrap_or(0)
    }
}

/// One step of a CAM op sequence.
#[derive(Debug, Clone, Copy)]
enum CamOp {
    Lookup(u64),
    Insert(u64, u32),
    Peek(u64),
    Clear,
}

/// Lookups and inserts in equal measure, some peeks, a rare clear.
fn cam_op(keys: u64) -> impl Strategy<Value = CamOp> {
    (0u8..40, 0..keys, any::<u32>()).prop_map(|(sel, k, v)| match sel {
        0..=17 => CamOp::Lookup(k),
        18..=35 => CamOp::Insert(k, v),
        36..=38 => CamOp::Peek(k),
        _ => CamOp::Clear,
    })
}

/// One step of a load-queue op sequence.
#[derive(Debug, Clone, Copy)]
enum LdqOp {
    Push { key: u64, forced: bool, dt: u64 },
    Complete(u64),
    Age(u64),
}

/// Pushes (plain or forced) twice as often as completions, so forced
/// pushes drive occupancy past capacity and the index grows; completions
/// of absent keys come up naturally.
fn ldq_op(keys: u64) -> impl Strategy<Value = LdqOp> {
    (0u8..10, 0..keys, any::<bool>(), 0u64..4).prop_map(|(sel, key, forced, dt)| match sel {
        0..=5 => LdqOp::Push { key, forced, dt },
        6..=8 => LdqOp::Complete(key),
        _ => LdqOp::Age(dt * 2),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn flat_cam_matches_vec_of_sets_cam(
        sets in 1usize..9,
        ways in 1usize..7,
        ops in (1u64..64).prop_flat_map(|keys| proptest::collection::vec(cam_op(keys), 1..400)),
    ) {
        let mut cam: Cam<u32> = Cam::new(CamConfig { sets, ways, way_bytes: 32 });
        let mut reference = RefCam::new(sets, ways);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                CamOp::Lookup(k) => prop_assert_eq!(cam.lookup(k), reference.lookup(k), "op {}", i),
                CamOp::Insert(k, v) => prop_assert_eq!(cam.insert(k, v), reference.insert(k, v), "op {}", i),
                CamOp::Peek(k) => prop_assert_eq!(cam.peek(k).copied(), reference.peek(k), "op {}", i),
                CamOp::Clear => {
                    cam.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(cam.counters(), &reference.counters, "op {}", i);
            prop_assert_eq!(cam.len(), reference.len(), "op {}", i);
        }
    }

    #[test]
    fn ldq_matches_btreemap_reference(
        capacity in 1usize..12,
        ops in (1u64..80).prop_flat_map(|keys| proptest::collection::vec(ldq_op(keys), 1..400)),
    ) {
        let mut ldq: LoadQueue<u32> = LoadQueue::new(capacity);
        let mut reference = RefLdq { capacity, pending: BTreeMap::new(), counters: LdqCounters::default() };
        let mut now = 0u64;
        let mut woken = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let waiter = i as u32;
            match op {
                LdqOp::Push { key, forced, dt } => {
                    now += dt;
                    let got = if forced {
                        ldq.push_forced_at(key, waiter, now)
                    } else {
                        ldq.push_at(key, waiter, now)
                    };
                    prop_assert_eq!(got, reference.push(key, waiter, now, forced), "op {}", i);
                }
                LdqOp::Complete(key) => {
                    woken.clear();
                    let n = ldq.complete_into(key, &mut woken);
                    let expected = reference.complete(key);
                    prop_assert_eq!(n, expected.len(), "op {}", i);
                    prop_assert_eq!(&woken, &expected, "op {}: waiter order", i);
                }
                LdqOp::Age(dt) => {
                    let at = now + dt;
                    prop_assert_eq!(ldq.oldest_age(at), reference.oldest_age(at), "op {}", i);
                }
            }
            prop_assert_eq!(ldq.len(), reference.pending.len(), "op {}", i);
            prop_assert_eq!(ldq.counters(), &reference.counters, "op {}", i);
        }
        for key in reference.pending.keys() {
            prop_assert!(ldq.contains(*key), "pending key {} lost", key);
        }
    }

    #[test]
    fn cam_matches_reference_lru(ops in proptest::collection::vec((0u64..24, any::<bool>(), any::<u32>()), 1..200)) {
        // Single-set CAM so every key collides: the hardest LRU case.
        let mut cam: Cam<u32> = Cam::new(CamConfig { sets: 1, ways: 4, way_bytes: 32 });
        let mut reference = RefLru { ways: 4, ..Default::default() };
        for (key, is_insert, value) in ops {
            if is_insert {
                cam.insert(key, value);
                reference.insert(key, value);
            } else {
                prop_assert_eq!(cam.lookup(key), reference.lookup(key), "key {}", key);
            }
        }
    }

    #[test]
    fn event_queue_is_a_stable_sort(events in proptest::collection::vec((0u64..1000, 0u32..1000), 0..300)) {
        let mut q = EventQueue::new();
        for &(t, payload) in &events {
            q.schedule(t, payload);
        }
        let mut expected: Vec<(u64, u32)> = events.clone();
        // Stable sort by time reproduces FIFO-within-cycle semantics.
        expected.sort_by_key(|&(t, _)| t);
        let drained: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn dram_bank_time_is_monotone(accesses in proptest::collection::vec((0u64..16, 1usize..300), 1..100)) {
        let mut bank = DramBank::new(DramTiming::default());
        let mut last = 0;
        for (row, bytes) in accesses {
            let done = bank.access(0, row, bytes, AccessKind::Read);
            prop_assert!(done >= last, "bank completion times must not go backwards");
            prop_assert!(done > 0);
            last = done;
        }
        let c = bank.counters();
        prop_assert!(c.activates >= 1, "the first access always activates");
    }

    #[test]
    fn ldq_waiters_conserved(ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200)) {
        let mut ldq: LoadQueue<u32> = LoadQueue::new(8);
        let mut pushed = 0u64;
        let mut returned = 0u64;
        for (i, (key, complete)) in ops.into_iter().enumerate() {
            if complete {
                returned += ldq.complete_into(key, &mut Vec::new()) as u64;
            } else if ldq.push(key, i as u32) != LdqPush::Full {
                pushed += 1;
            }
        }
        // Drain everything still pending.
        for key in 0..16 {
            returned += ldq.complete_into(key, &mut Vec::new()) as u64;
        }
        prop_assert_eq!(pushed, returned, "no waiter may be lost or duplicated");
    }

    #[test]
    fn link_transfers_never_overlap(transfers in proptest::collection::vec((0u64..500, 1usize..100), 1..60)) {
        let mut link = Link::new_bus(3, 16);
        let mut prev_done = 0;
        for (earliest, bytes) in transfers {
            let done = link.transfer(earliest, bytes);
            prop_assert!(done >= prev_done, "bus transfers must serialize");
            prop_assert!(done >= earliest);
            prev_done = done;
        }
    }

    #[test]
    fn noc_accounts_every_byte(sends in proptest::collection::vec((0usize..16, 0usize..16, 1usize..100), 1..60)) {
        let mut noc = MeshNoc::new(4, 4, 2, 16);
        let mut bytes = 0u64;
        let mut byte_hops = 0u64;
        for (src, dst, sz) in sends {
            let arrive = noc.send(0, src, dst, sz);
            let hops = noc.hops(src, dst) as u64;
            bytes += sz as u64;
            byte_hops += sz as u64 * hops;
            if src == dst {
                prop_assert_eq!(arrive, 0);
            } else {
                prop_assert!(arrive >= hops * (2 + 1), "at least latency+ser per hop");
            }
        }
        prop_assert_eq!(noc.bytes(), bytes);
        prop_assert_eq!(noc.byte_hops(), byte_hops);
    }
}
