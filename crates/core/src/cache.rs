//! A bounded LRU cache for online-phase prediction results.
//!
//! The online phase predicts a *normalized* profile — power per
//! frequency, `T(f)/T(f_max)` per frequency, and the time ratio at the
//! default clock — from the profiled activities alone. Those activities
//! are DVFS-invariant application fingerprints, so two reference runs
//! with (nearly) the same `fp_active`/`dram_active` on the same device
//! and grid produce the same normalized profile; only the absolute-time
//! anchor differs per request. That makes the normalized profile an
//! ideal cache value: a hit skips both network forward passes and pays
//! only the per-request anchor rescale.
//!
//! Keys quantize the two activities to a fixed 1e-3 step and fingerprint
//! the device spec and frequency grid, so near-identical requests share
//! an entry while different devices or sweeps never collide. Entries
//! computed on a miss use the *bucket-center* activities, so the cached
//! value is independent of which request inside a bucket arrived first —
//! concurrent and reordered request streams stay deterministic.

use gpu_model::DeviceSpec;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// Cache key: quantized activities plus a device/grid fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    fp_bucket: i64,
    dram_bucket: i64,
    context_hash: u64,
}

impl CacheKey {
    /// A stable 64-bit mix of all three key fields, used to pick a shard
    /// in [`ShardedProfileCache`]. Deliberately *not* `std::hash::Hash`
    /// (whose `DefaultHasher` output is unspecified across releases):
    /// shard placement — and therefore per-shard LRU eviction order —
    /// stays reproducible run to run.
    pub fn shard_hash(&self) -> u64 {
        fn mix(h: u64, word: u64) -> u64 {
            // FNV-1a over the word's bytes.
            word.to_le_bytes().into_iter().fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = mix(h, self.fp_bucket as u64);
        h = mix(h, self.dram_bucket as u64);
        h = mix(h, self.context_hash);
        h
    }
}

/// The frequency-invariant part of a predicted profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedProfile {
    /// Predicted power in watts at each grid frequency.
    pub power_w: Vec<f64>,
    /// Predicted `T(f)/T(f_max)` at each grid frequency.
    pub time_ratio: Vec<f64>,
    /// Predicted time ratio at the default clock (the anchor divisor).
    pub ratio_at_max: f64,
}

/// Hit/miss/eviction counters, readable at any time.
///
/// Every per-shard copy summed by [`ShardedProfileCache::stats`] is
/// snapshotted while that shard's lock is held, so the counters are
/// mutually consistent: `lookups == hits + misses` always holds, even
/// while other threads are mid-lookup. (An earlier sketch kept the
/// counters in independent atomics, which let a reader observe `hits +
/// misses` disagreeing with the lookup total under concurrent load.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (always `hits + misses`).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    ///
    /// Clamped to `0.0` before any lookup — the naive `hits / lookups`
    /// would be `0/0 = NaN`, which poisons every gauge arithmetic
    /// downstream (NaN compares false with everything, so an alert on
    /// `hit_rate < threshold` would silently never fire).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Element-wise sum, for aggregating per-shard snapshots.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// Activity quantization step. Activities live in `[0, 1]`, so 1e-3
/// gives ~a thousand buckets per axis — fine enough that bucket-center
/// predictions track the exact ones, coarse enough that repeated runs of
/// the same application collapse onto one entry despite measurement
/// noise.
const QUANTUM: f64 = 1e-3;

fn bucket(activity: f64) -> i64 {
    (activity / QUANTUM).round() as i64
}

struct Slot {
    value: NormalizedProfile,
    last_used: u64,
}

struct CacheState {
    entries: HashMap<CacheKey, Slot>,
    /// Every resident key under its `last_used` tick, oldest first. Ticks
    /// are unique, so the first entry is exactly the entry a scan for the
    /// smallest `last_used` would pick, found in O(log n) instead of
    /// O(capacity).
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
    stats: CacheStats,
}

impl CacheState {
    /// Re-files `key` in the order index from its old tick to `tick`
    /// (the caller has already stored `tick` in the slot).
    fn touch(&mut self, key: CacheKey, old: u64, tick: u64) {
        self.order.remove(&old);
        self.order.insert(tick, key);
    }
}

/// One shard: a bounded LRU of [`NormalizedProfile`]s behind one lock.
struct Shard {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// Returns the cached profile for `key`, computing it with `fill` and
    /// inserting (evicting the least-recently-used entry if full) on a
    /// miss.
    fn get_or_insert_with(
        &self,
        key: CacheKey,
        fill: impl FnOnce() -> NormalizedProfile,
    ) -> NormalizedProfile {
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            state.tick += 1;
            let tick = state.tick;
            // `lookups` moves in the same critical section as the
            // hit/miss counter it classifies, so `stats()` can never
            // observe `lookups != hits + misses`.
            state.stats.lookups += 1;
            if let Some(slot) = state.entries.get_mut(&key) {
                let value = slot.value.clone();
                let old = std::mem::replace(&mut slot.last_used, tick);
                state.touch(key, old, tick);
                state.stats.hits += 1;
                return value;
            }
            state.stats.misses += 1;
        }
        // Compute outside the lock so concurrent misses on different keys
        // don't serialize the (relatively expensive) forward passes.
        let value = fill();
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.tick += 1;
        let tick = state.tick;
        if let Some(slot) = state.entries.get_mut(&key) {
            // Another lookup filled the key meanwhile: keep its entry (the
            // same profile) and refresh its recency.
            let old = std::mem::replace(&mut slot.last_used, tick);
            state.touch(key, old, tick);
            return value;
        }
        if state.entries.len() >= self.capacity {
            // Evict the least-recently-used entry: the oldest tick.
            if let Some((_, victim)) = state.order.pop_first() {
                state.entries.remove(&victim);
                state.stats.evictions += 1;
            }
        }
        state.entries.insert(
            key,
            Slot {
                value: value.clone(),
                last_used: tick,
            },
        );
        state.order.insert(tick, key);
        value
    }

    fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    fn len(&self) -> usize {
        self.state.lock().entries.len()
    }
}

/// The lookup surface the online predictor needs from a profile cache,
/// so `Predictor::predict_batch_cached` can run against a wrapper (a
/// benchmark timing each call, say) as well as the cache itself.
pub trait CacheHandle: Sync {
    /// Builds the key for a (device, activities, frequency-grid) request.
    fn key(
        &self,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
    ) -> CacheKey;

    /// Snaps an activity to the center of its quantization bucket.
    fn quantize(&self, activity: f64) -> f64;

    /// Returns the cached profile for `key`, computing and inserting on a
    /// miss.
    fn get_or_insert_with<F: FnOnce() -> NormalizedProfile>(
        &self,
        key: CacheKey,
        fill: F,
    ) -> NormalizedProfile;
}

/// A bounded, thread-safe LRU cache of [`NormalizedProfile`]s, split
/// into N independent shards picked by a stable hash of the quantized
/// cache key.
///
/// Each shard has its own lock, so concurrent server workers serving
/// different applications never contend on a global cache mutex; a
/// lookup touches exactly one shard. Shard placement is a pure function
/// of the key ([`CacheKey::shard_hash`]), so a request stream produces
/// the same residency regardless of which worker serves which request.
/// With one shard this is a plain LRU (`dvfs batch`).
pub struct ShardedProfileCache {
    shards: Box<[Shard]>,
}

impl ShardedProfileCache {
    /// Creates a cache of `shards` shards holding at most `capacity`
    /// profiles in total (split evenly, rounded up per shard).
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "cache shard count must be positive");
        assert!(capacity > 0, "cache capacity must be positive");
        let per_shard = capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
        }
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// Number of cached profiles across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no shard holds a profile.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters.
    ///
    /// Each per-shard snapshot is taken under that shard's lock, so it is
    /// internally consistent (`lookups == hits + misses`); the sums
    /// therefore preserve the invariant even though the shards are read
    /// at slightly different instants.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(&s.stats()))
    }

    /// Bridges the aggregated counters into the global metrics registry:
    /// `cache.lookups` / `cache.hits` / `cache.misses` /
    /// `cache.evictions` counters plus `cache.hit_rate` (zero-total
    /// guarded by [`CacheStats::hit_rate`]),
    /// `cache.evictions_per_capacity`, `cache.resident`,
    /// `cache.capacity` and `cache.shards` gauges. Absolute values are
    /// published (the shards keep their own counters under their locks),
    /// so call this once per reporting point, e.g. after a batch
    /// completes. Safe on a completely idle cache: every gauge is finite.
    pub fn publish_stats(&self) {
        let stats = self.stats();
        let capacity = self.capacity();
        let reg = obs::global();
        reg.counter("cache.lookups").set(stats.lookups);
        reg.counter("cache.hits").set(stats.hits);
        reg.counter("cache.misses").set(stats.misses);
        reg.counter("cache.evictions").set(stats.evictions);
        reg.gauge("cache.hit_rate").set(stats.hit_rate());
        reg.gauge("cache.evictions_per_capacity")
            .set(stats.evictions as f64 / capacity as f64);
        reg.gauge("cache.resident").set(self.len() as f64);
        reg.gauge("cache.capacity").set(capacity as f64);
        reg.gauge("cache.shards").set(self.shards.len() as f64);
    }

    /// Accounts `n` lookups answered by a layer *in front of* this cache
    /// (the serve workers keep a per-snapshot serialized-reply cache
    /// whose hits never reach the shards). Booked as `n` lookups + `n`
    /// hits in one critical section of shard 0, so the invariant
    /// `lookups == hits + misses` and the published hit rate stay
    /// truthful about the request stream as a whole.
    pub fn record_front_hits(&self, n: u64) {
        let mut state = self.shards[0].state.lock();
        state.stats.lookups += n;
        state.stats.hits += n;
    }
}

impl CacheHandle for ShardedProfileCache {
    fn key(
        &self,
        spec: &DeviceSpec,
        fp_active: f64,
        dram_active: f64,
        frequencies: &[f64],
    ) -> CacheKey {
        // FNV-1a over the spec identity and the exact grid bits: a
        // different chip, TDP, default clock, or sweep must never share
        // an entry. Keys do not depend on the shard count.
        fn fnv(h: u64, byte: u8) -> u64 {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        }
        fn mix(h: u64, word: u64) -> u64 {
            word.to_le_bytes().into_iter().fold(h, fnv)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = spec.arch.chip_name().bytes().fold(h, fnv);
        h = mix(h, spec.max_core_mhz.to_bits());
        h = mix(h, spec.tdp_w.to_bits());
        h = mix(h, frequencies.len() as u64);
        for &f in frequencies {
            h = mix(h, f.to_bits());
        }
        CacheKey {
            fp_bucket: bucket(fp_active),
            dram_bucket: bucket(dram_active),
            context_hash: h,
        }
    }

    fn quantize(&self, activity: f64) -> f64 {
        bucket(activity) as f64 * QUANTUM
    }

    fn get_or_insert_with<F: FnOnce() -> NormalizedProfile>(
        &self,
        key: CacheKey,
        fill: F,
    ) -> NormalizedProfile {
        self.shard(key).get_or_insert_with(key, fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(tag: f64) -> NormalizedProfile {
        NormalizedProfile {
            power_w: vec![tag; 3],
            time_ratio: vec![1.0, 1.0, 1.0],
            ratio_at_max: 1.0,
        }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::ga100()
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ShardedProfileCache::new(4, 1);
        let grid = [510.0, 960.0, 1410.0];
        let key = cache.key(&spec(), 0.5, 0.5, &grid);
        let a = cache.get_or_insert_with(key, || profile(1.0));
        let b = cache.get_or_insert_with(key, || profile(2.0));
        // Second lookup must return the first value, not recompute.
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.lookups, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_lookup() {
        // Regression: `hits / lookups` on an idle cache is 0/0; the
        // accessor must clamp it to 0.0 — a NaN here silently disables
        // every downstream `hit_rate < x` comparison.
        let idle = ShardedProfileCache::new(4, 1).stats();
        assert_eq!(idle.hit_rate(), 0.0);
        assert!(!idle.hit_rate().is_nan());
        let sharded = ShardedProfileCache::new(8, 4);
        assert_eq!(sharded.stats().hit_rate(), 0.0);
        // And publishing from the idle caches keeps every gauge finite.
        sharded.publish_stats();
        assert!(obs::global().gauge("cache.hit_rate").get().is_finite());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ShardedProfileCache::new(2, 1);
        let grid = [510.0, 1410.0];
        let s = spec();
        let k1 = cache.key(&s, 0.1, 0.1, &grid);
        let k2 = cache.key(&s, 0.2, 0.2, &grid);
        let k3 = cache.key(&s, 0.3, 0.3, &grid);
        cache.get_or_insert_with(k1, || profile(1.0));
        cache.get_or_insert_with(k2, || profile(2.0));
        // Touch k1 so k2 becomes the LRU victim.
        cache.get_or_insert_with(k1, || profile(-1.0));
        cache.get_or_insert_with(k3, || profile(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // k1 survived (hit), k2 was evicted (recomputes).
        let v1 = cache.get_or_insert_with(k1, || profile(-1.0));
        assert_eq!(v1.power_w[0], 1.0);
        let v2 = cache.get_or_insert_with(k2, || profile(20.0));
        assert_eq!(v2.power_w[0], 20.0);
    }

    #[test]
    fn quantization_merges_nearby_activities_only() {
        let cache = ShardedProfileCache::new(8, 1);
        let grid = [510.0, 1410.0];
        let s = spec();
        // Same bucket: within half a quantum of the center.
        assert_eq!(
            cache.key(&s, 0.5000, 0.25, &grid),
            cache.key(&s, 0.5004, 0.25, &grid)
        );
        // Across the bucket boundary: different keys.
        assert_ne!(
            cache.key(&s, 0.5004, 0.25, &grid),
            cache.key(&s, 0.5006, 0.25, &grid)
        );
        // Quantize returns the shared bucket center.
        assert!((cache.quantize(0.5004) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn device_and_grid_changes_never_collide() {
        let cache = ShardedProfileCache::new(8, 1);
        let ga = DeviceSpec::ga100();
        let gv = DeviceSpec::gv100();
        let grid_a = [510.0, 1410.0];
        let grid_b = [510.0, 960.0, 1410.0];
        assert_ne!(
            cache.key(&ga, 0.5, 0.5, &grid_a),
            cache.key(&gv, 0.5, 0.5, &grid_a)
        );
        assert_ne!(
            cache.key(&ga, 0.5, 0.5, &grid_a),
            cache.key(&ga, 0.5, 0.5, &grid_b)
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ShardedProfileCache::new(0, 1);
    }

    #[test]
    fn publish_stats_bridges_into_the_global_registry() {
        let cache = ShardedProfileCache::new(2, 1);
        let grid = [510.0, 1410.0];
        let s = spec();
        // Idle cache: the hit-rate gauge must guard the zero-total case.
        cache.publish_stats();
        assert_eq!(obs::global().gauge("cache.hit_rate").get(), 0.0);
        // 1 miss + 1 hit per key, third key evicts.
        for (fp, repeat) in [(0.1, true), (0.2, true), (0.3, false)] {
            let k = cache.key(&s, fp, fp, &grid);
            cache.get_or_insert_with(k, || profile(fp));
            if repeat {
                cache.get_or_insert_with(k, || profile(-fp));
            }
        }
        cache.publish_stats();
        let reg = obs::global();
        assert_eq!(reg.counter("cache.lookups").get(), 5);
        assert_eq!(reg.counter("cache.hits").get(), 2);
        assert_eq!(reg.counter("cache.misses").get(), 3);
        assert_eq!(reg.counter("cache.evictions").get(), 1);
        assert_eq!(reg.gauge("cache.hit_rate").get(), 2.0 / 5.0);
        assert_eq!(reg.gauge("cache.evictions_per_capacity").get(), 0.5);
        assert_eq!(reg.gauge("cache.resident").get(), 2.0);
        assert_eq!(reg.gauge("cache.capacity").get(), 2.0);
        assert_eq!(reg.gauge("cache.shards").get(), 1.0);
    }

    #[test]
    fn sharded_cache_spreads_keys_and_serves_like_flat() {
        let sharded = ShardedProfileCache::new(64, 8);
        assert_eq!(sharded.num_shards(), 8);
        assert_eq!(sharded.capacity(), 64);
        let s = spec();
        let grid = [510.0, 1410.0];
        // Many distinct keys: placement must use more than one shard, and
        // every key must round-trip its own value.
        for i in 0..32 {
            let fp = i as f64 / 32.0;
            let k = sharded.key(&s, fp, 1.0 - fp, &grid);
            let v = sharded.get_or_insert_with(k, || profile(fp));
            assert_eq!(v.power_w[0], fp);
            let again = sharded.get_or_insert_with(k, || profile(-1.0));
            assert_eq!(again.power_w[0], fp, "hit must not recompute");
        }
        let touched = (0..sharded.num_shards())
            .filter(|&i| sharded.shards[i].len() > 0)
            .count();
        assert!(touched > 1, "all 32 keys landed in one shard");
        let stats = sharded.stats();
        assert_eq!((stats.hits, stats.misses), (32, 32));
        assert_eq!(stats.lookups, 64);
        assert_eq!(sharded.len(), 32);
        // Shard placement is a pure function of the key.
        let k = sharded.key(&s, 0.25, 0.75, &grid);
        assert!(std::ptr::eq(sharded.shard(k), sharded.shard(k)));
    }

    #[test]
    fn concurrent_stats_snapshots_stay_consistent() {
        // The satellite bug this guards: counters read non-atomically
        // relative to each other let `hits + misses` disagree with
        // `lookups` while writers are mid-lookup. Hammer a sharded cache
        // from several threads while a sampler thread asserts the
        // invariant on every snapshot it takes.
        let cache = std::sync::Arc::new(ShardedProfileCache::new(32, 4));
        let s = spec();
        let grid = [510.0, 960.0, 1410.0];
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let sref = &s;
                let gref = &grid;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        // 64 distinct keys over a 32-entry cache: steady
                        // mix of hits, misses, and evictions.
                        let fp = ((i * 7 + t * 13) % 64) as f64 / 64.0;
                        let k = cache.key(sref, fp, fp, gref);
                        let _ = cache.get_or_insert_with(k, || profile(fp));
                    }
                });
            }
            let sampler = {
                let cache = std::sync::Arc::clone(&cache);
                let stop = std::sync::Arc::clone(&stop);
                scope.spawn(move || {
                    let mut samples = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let st = cache.stats();
                        assert_eq!(
                            st.lookups,
                            st.hits + st.misses,
                            "torn stats snapshot: {st:?}"
                        );
                        assert!(!st.hit_rate().is_nan());
                        samples += 1;
                    }
                    samples
                })
            };
            // Scope drops worker handles first; signal the sampler once
            // the workers are done by joining them explicitly.
            // (Workers were moved into the scope — spawn order above —
            // so just wait for the writers via a final barrier lookup.)
            std::thread::sleep(std::time::Duration::from_millis(30));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let samples = sampler.join().expect("sampler panicked");
            assert!(samples > 0, "sampler never ran");
        });
        let end = cache.stats();
        assert_eq!(end.lookups, 4 * 2_000);
        assert_eq!(end.lookups, end.hits + end.misses);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::cell::RefCell;

        /// The LRU as it was before the order index: the victim is found
        /// by scanning every slot for the smallest `last_used`. Interior
        /// mutability lets a fill re-enter it, like a lookup that races
        /// another thread's insert of the same key.
        struct ScanLru {
            state: RefCell<ScanState>,
            capacity: usize,
        }

        /// Each key's `(value, last_used)`, the tick and the counters.
        #[derive(Default)]
        struct ScanState {
            entries: HashMap<CacheKey, (f64, u64)>,
            tick: u64,
            stats: CacheStats,
        }

        impl ScanLru {
            fn get_or_insert_with(&self, key: CacheKey, fill: impl FnOnce() -> f64) -> f64 {
                {
                    let s = &mut *self.state.borrow_mut();
                    s.tick += 1;
                    s.stats.lookups += 1;
                    if let Some((value, last_used)) = s.entries.get_mut(&key) {
                        *last_used = s.tick;
                        s.stats.hits += 1;
                        return *value;
                    }
                    s.stats.misses += 1;
                }
                let value = fill();
                let s = &mut *self.state.borrow_mut();
                s.tick += 1;
                if s.entries.len() >= self.capacity && !s.entries.contains_key(&key) {
                    let victim = *s.entries.iter().min_by_key(|(_, e)| e.1).unwrap().0;
                    s.entries.remove(&victim);
                    s.stats.evictions += 1;
                }
                s.entries.entry(key).or_insert((value, s.tick)).1 = s.tick;
                value
            }

            /// Resident keys with their `last_used` ticks, oldest first.
            fn residency(&self) -> Vec<(CacheKey, u64)> {
                let s = self.state.borrow();
                let mut v: Vec<_> = s.entries.iter().map(|(k, e)| (*k, e.1)).collect();
                v.sort_by_key(|&(_, t)| t);
                v
            }
        }

        fn shard_residency(shard: &Shard) -> Vec<(CacheKey, u64)> {
            let state = shard.state.lock();
            assert_eq!(
                state.order.len(),
                state.entries.len(),
                "order index and entry map disagree in length"
            );
            let mut v: Vec<_> = state
                .entries
                .iter()
                .map(|(k, s)| (*k, s.last_used))
                .collect();
            v.sort_by_key(|&(_, t)| t);
            let indexed: Vec<_> = state.order.iter().map(|(&t, &k)| (k, t)).collect();
            assert_eq!(v, indexed, "order index does not mirror the slots' ticks");
            v
        }

        fn key(i: u64) -> CacheKey {
            CacheKey {
                fp_bucket: i as i64,
                dram_bucket: -(i as i64),
                context_hash: 7,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]
            /// The order-indexed shard evicts, counts and keeps exactly
            /// what the scanning LRU does, step by step. A step is a
            /// lookup (hit or miss), or a miss whose fill first looks up
            /// `inner`: with `inner == key` the outer insert then finds
            /// its key present (the re-insert path), otherwise the inner
            /// miss may evict entries under the outer one.
            #[test]
            fn order_index_evicts_like_a_scan(
                capacity in 1usize..7,
                steps in proptest::collection::vec((0u8..3, 0u64..12, 0u64..12), 1..120),
            ) {
                let shard = Shard::new(capacity);
                let model = ScanLru {
                    state: RefCell::default(),
                    capacity,
                };
                for (n, &(kind, k, inner)) in steps.iter().enumerate() {
                    let tag = n as f64;
                    let inner_tag = tag + 0.5;
                    let (got, want) = if kind < 2 {
                        (
                            shard.get_or_insert_with(key(k), || profile(tag)),
                            model.get_or_insert_with(key(k), || tag),
                        )
                    } else {
                        (
                            shard.get_or_insert_with(key(k), || {
                                shard.get_or_insert_with(key(inner), || profile(inner_tag));
                                profile(tag)
                            }),
                            model.get_or_insert_with(key(k), || {
                                model.get_or_insert_with(key(inner), || inner_tag);
                                tag
                            }),
                        )
                    };
                    prop_assert_eq!(got.power_w[0], want, "value at step {}", n);
                    prop_assert_eq!(shard.stats(), model.state.borrow().stats, "stats at step {}", n);
                    // Equal residency after every step means equal victims.
                    prop_assert_eq!(
                        shard_residency(&shard),
                        model.residency(),
                        "residency at step {}",
                        n
                    );
                }
            }
        }
    }
}
