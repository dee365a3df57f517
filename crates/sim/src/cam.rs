//! Set-associative content-addressable memory (CAM).
//!
//! SpaceA integrates an L1 CAM per bank group and an L2 CAM per vault
//! controller (Sections III-B and III-C) as key-value stores from input-vector
//! block index to block contents. Both levels share this implementation:
//! configurable set count, associativity and way size, with LRU replacement
//! inside a set.
//!
//! The paper's default configuration gives each way 32 bytes — four
//! double-precision elements of the input vector — so the CAM caches
//! *blocks* of `X`, and spatial locality across neighbouring column indices
//! turns into CAM hits.
//!
//! Each way is stored as one `{key, stamp, value}` record, set-major, so a
//! lookup or a fill reads the records of one set and nothing else (see
//! [`Cam`]).

use crate::stats::CamCounters;

/// Geometry of a CAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamConfig {
    /// Number of sets (paper defaults: 32 for L1, 2048 for L2).
    pub sets: usize,
    /// Ways per set (default 4).
    pub ways: usize,
    /// Bytes per way (default 32 B = 4 × f64 input-vector elements).
    pub way_bytes: usize,
}

impl CamConfig {
    /// The paper's default L1 CAM: 32 sets × 4 ways × 32 B = 4 KB.
    pub fn l1_default() -> Self {
        CamConfig { sets: 32, ways: 4, way_bytes: 32 }
    }

    /// The paper's default L2 CAM: 2048 sets × 4 ways × 32 B = 256 KB.
    pub fn l2_default() -> Self {
        CamConfig { sets: 2048, ways: 4, way_bytes: 32 }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.way_bytes
    }

    /// Vector elements (f64) per way.
    pub fn elements_per_way(&self) -> usize {
        self.way_bytes / 8
    }
}

/// A set-associative CAM with LRU replacement.
///
/// Keys are block indices (`u64`); values are the cached block payloads.
///
/// The ways live in one flat, set-major array of `{key, stamp, value}`
/// records: way `w` of set `s` sits at index `s * ways + w`, so a CAM is one
/// allocation whatever its geometry, and a lookup reads one contiguous run
/// of records — a 4-way set of `()` payloads is 64 bytes, one cache line's
/// worth. A way's stamp is the tick of its last use; ticks start at 1, so a
/// zero stamp marks an empty way. Ways fill in index order and are never
/// emptied one by one (only [`Cam::clear`] empties them), so the occupied
/// ways of a set are always a prefix.
///
/// # Example
///
/// ```
/// use spacea_sim::cam::{Cam, CamConfig};
///
/// let mut cam: Cam<[f64; 4]> = Cam::new(CamConfig::l1_default());
/// assert!(cam.lookup(7).is_none());
/// cam.insert(7, [1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cam.lookup(7), Some([1.0, 2.0, 3.0, 4.0]));
/// ```
#[derive(Debug, Clone)]
pub struct Cam<V> {
    config: CamConfig,
    ways: Vec<Way<V>>,
    tick: u64,
    counters: CamCounters,
}

/// One CAM way: its key, its last-use tick (LRU order; 0 = empty way) and
/// its cached payload.
#[derive(Debug, Clone, Copy, Default)]
struct Way<V> {
    key: u64,
    stamp: u64,
    value: V,
}

impl<V: Copy + Default> Cam<V> {
    /// Creates an empty CAM with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(config: CamConfig) -> Self {
        assert!(config.sets > 0, "CAM needs at least one set");
        assert!(config.ways > 0, "CAM needs at least one way");
        Cam {
            config,
            ways: vec![Way::default(); config.sets * config.ways],
            tick: 0,
            counters: CamCounters::default(),
        }
    }

    /// The geometry this CAM was built with.
    pub fn config(&self) -> &CamConfig {
        &self.config
    }

    /// Hit/miss counters accumulated so far.
    pub fn counters(&self) -> &CamCounters {
        &self.counters
    }

    /// The index range of `key`'s set in the flat way array.
    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let base = (key % self.config.sets as u64) as usize * self.config.ways;
        base..base + self.config.ways
    }

    /// The flat index of the resident way holding `key`, if any.
    fn find(&self, key: u64) -> Option<usize> {
        self.set_range(key).find(|&i| self.ways[i].stamp != 0 && self.ways[i].key == key)
    }

    /// Searches for `key`, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        match self.find(key) {
            Some(i) => {
                self.ways[i].stamp = self.tick;
                self.counters.hits += 1;
                Some(self.ways[i].value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Searches for `key` without disturbing LRU order or counters (used by
    /// tests and by response paths that only need presence information).
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.ways[i].value)
    }

    /// Inserts or refreshes `key`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        self.tick += 1;
        self.counters.fills += 1;
        let range = self.set_range(key);
        // One pass: a resident `key` is refreshed in place; otherwise the
        // way with the smallest stamp is replaced. Empty ways stamp 0, so
        // they win over every resident way (first empty way first), and
        // resident stamps are distinct ticks, so the LRU victim is unique.
        let mut victim = range.start;
        for i in range {
            let way = &self.ways[i];
            if way.stamp != 0 && way.key == key {
                self.ways[i] = Way { key, stamp: self.tick, value };
                return None;
            }
            if way.stamp < self.ways[victim].stamp {
                victim = i;
            }
        }
        let old = std::mem::replace(&mut self.ways[victim], Way { key, stamp: self.tick, value });
        let evicted = (old.stamp != 0).then_some((old.key, old.value));
        if evicted.is_some() {
            self.counters.evictions += 1;
        }
        evicted
    }

    /// Removes every entry but keeps the counters.
    pub fn clear(&mut self) {
        for way in &mut self.ways {
            way.stamp = 0;
        }
    }

    /// Number of currently resident entries.
    pub fn len(&self) -> usize {
        self.ways.iter().filter(|w| w.stamp != 0).count()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.ways.iter().all(|w| w.stamp == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cam<u32> {
        Cam::new(CamConfig { sets: 2, ways: 2, way_bytes: 32 })
    }

    #[test]
    fn miss_then_hit() {
        let mut cam = tiny();
        assert_eq!(cam.lookup(4), None);
        cam.insert(4, 44);
        assert_eq!(cam.lookup(4), Some(44));
        assert_eq!(cam.counters().hits, 1);
        assert_eq!(cam.counters().misses, 1);
    }

    #[test]
    fn keys_map_to_sets_by_modulo() {
        let mut cam = tiny();
        // Keys 0 and 2 share set 0; keys 1 and 3 share set 1.
        cam.insert(0, 0);
        cam.insert(2, 2);
        cam.insert(1, 1);
        cam.insert(3, 3);
        assert_eq!(cam.len(), 4);
        // A fifth key in set 0 must evict.
        let evicted = cam.insert(4, 4);
        assert!(evicted.is_some());
        assert_eq!(cam.len(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cam = tiny();
        cam.insert(0, 10);
        cam.insert(2, 20);
        cam.lookup(0); // refresh key 0 → key 2 is now LRU
        let evicted = cam.insert(4, 40).expect("set full");
        assert_eq!(evicted, (2, 20));
        assert_eq!(cam.lookup(0), Some(10));
        assert_eq!(cam.lookup(4), Some(40));
    }

    #[test]
    fn insert_refreshes_existing() {
        let mut cam = tiny();
        cam.insert(0, 1);
        assert!(cam.insert(0, 2).is_none());
        assert_eq!(cam.lookup(0), Some(2));
        assert_eq!(cam.len(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut cam = tiny();
        cam.insert(0, 5);
        assert_eq!(cam.peek(0), Some(&5));
        assert_eq!(cam.peek(1), None);
        assert_eq!(cam.counters().hits, 0);
        assert_eq!(cam.counters().misses, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut cam = tiny();
        cam.insert(0, 5);
        cam.lookup(0);
        cam.clear();
        assert!(cam.is_empty());
        assert_eq!(cam.counters().hits, 1);
    }

    #[test]
    fn paper_default_capacities() {
        assert_eq!(CamConfig::l1_default().capacity_bytes(), 4 * 1024);
        assert_eq!(CamConfig::l2_default().capacity_bytes(), 256 * 1024);
        assert_eq!(CamConfig::l1_default().elements_per_way(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _: Cam<u8> = Cam::new(CamConfig { sets: 0, ways: 1, way_bytes: 8 });
    }
}
