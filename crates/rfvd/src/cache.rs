//! The daemon's compile + predecode cache: [`rfv_sim::cache::Cache`]
//! keyed by [`crate::spec::JobSpec::cache_key`], an FNV-1a hash over
//! the job spec's canonical form plus the compile flavor.
//!
//! Every job with the same key reuses the `Arc`'d [`CachedKernel`],
//! paying zero generate, compile, and predecode cost. Keying by spec
//! (not by built kernel) matters: a warm job never even constructs
//! the source kernel. The cache's LRU bound (`--cache-entries`),
//! single-flight builds and hit/miss/eviction counters are
//! `rfv_sim::cache`'s, shared with the experiment harness.

use rfv_sim::cache::Cache;

pub use rfv_sim::cache::{compile_flavored, CachedKernel};

/// The daemon's bounded compile cache. See [`rfv_sim::cache`] for the
/// eviction and build-coalescing contracts.
pub type CompileCache = Cache<u64, CachedKernel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn spec(s: &str) -> JobSpec {
        JobSpec::parse(s).unwrap()
    }

    fn build_for(spec: &JobSpec, release_flags: bool) -> Result<CachedKernel, String> {
        CachedKernel::build(&spec.build_kernel(), release_flags)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = CompileCache::new();
        let s = spec("synth:");
        let key = s.cache_key(true);
        let (a, hit_a) = cache.get_or_build(key, || build_for(&s, true)).unwrap();
        let (b, hit_b) = cache.get_or_build(key, || build_for(&s, true)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn flavors_do_not_collide() {
        let cache = CompileCache::new();
        let s = spec("synth:");
        let (_, hit_full) = cache
            .get_or_build(s.cache_key(true), || build_for(&s, true))
            .unwrap();
        let (_, hit_plain) = cache
            .get_or_build(s.cache_key(false), || build_for(&s, false))
            .unwrap();
        assert!(!hit_full);
        assert!(!hit_plain, "plain flavor must not reuse the full compile");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let a = spec("synth:rep=1").cache_key(true);
        let b = spec("synth:rep=2").cache_key(true);
        let c = spec("synth:regs=20").cache_key(true);
        let d = spec("VectorAdd").cache_key(true);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // and the key is deterministic
        assert_eq!(a, spec("synth:rep=1").cache_key(true));
    }

    #[test]
    fn build_error_is_not_cached() {
        let cache = CompileCache::new();
        let err = cache.get_or_build(7, || Err("boom".into()));
        assert!(matches!(err, Err(ref e) if e == "boom"));
        assert!(cache.is_empty());
        let ok = cache.get_or_build(7, || build_for(&spec("synth:"), true));
        assert!(ok.is_ok(), "a failed build must not poison the key");
    }

    #[test]
    fn capacity_bound_evicts_lru_and_counts_it() {
        let cache = CompileCache::with_capacity(2);
        let specs = ["synth:rep=1", "synth:rep=2", "synth:rep=3"];
        let keys: Vec<u64> = specs.iter().map(|s| spec(s).cache_key(true)).collect();
        for (s, &key) in specs.iter().zip(&keys) {
            cache
                .get_or_build(key, || build_for(&spec(s), true))
                .unwrap();
        }
        // rep=1 was least recently used: it was the eviction victim
        assert_eq!(cache.len(), 2, "the bound is a hard ceiling");
        assert_eq!(cache.evictions(), 1);
        let (_, hit) = cache
            .get_or_build(keys[1], || build_for(&spec(specs[1]), true))
            .unwrap();
        assert!(hit, "rep=2 must have survived");
        let (_, hit) = cache
            .get_or_build(keys[0], || build_for(&spec(specs[0]), true))
            .unwrap();
        assert!(!hit, "the evicted key rebuilds as a miss");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2, "the rebuild evicted in turn");
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let cache = CompileCache::with_capacity(2);
        let ids = ["synth:rep=1", "synth:rep=2", "synth:rep=3"];
        let keys: Vec<u64> = ids.iter().map(|s| spec(s).cache_key(true)).collect();
        cache
            .get_or_build(keys[0], || build_for(&spec(ids[0]), true))
            .unwrap();
        cache
            .get_or_build(keys[1], || build_for(&spec(ids[1]), true))
            .unwrap();
        // touch rep=1 so rep=2 becomes the LRU
        cache
            .get_or_build(keys[0], || build_for(&spec(ids[0]), true))
            .unwrap();
        cache
            .get_or_build(keys[2], || build_for(&spec(ids[2]), true))
            .unwrap();
        let (_, hit) = cache
            .get_or_build(keys[0], || build_for(&spec(ids[0]), true))
            .unwrap();
        assert!(hit, "recently touched rep=1 must survive the eviction");
        let (_, hit) = cache
            .get_or_build(keys[1], || build_for(&spec(ids[1]), true))
            .unwrap();
        assert!(!hit, "rep=2 was the LRU victim");
    }

    #[test]
    fn racing_misses_coalesce_into_one_build() {
        let cache = Arc::new(CompileCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let s = Arc::new(spec("synth:regs=24,rep=8"));
        let key = s.cache_key(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_build(key, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // widen the race window: the other threads must
                        // wait on this build, not start their own
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        build_for(&s, true)
                    })
                    .unwrap()
                    .0
            }));
        }
        let kernels: Vec<Arc<CachedKernel>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "concurrent misses on one key must run exactly one build"
        );
        for k in &kernels[1..] {
            assert!(Arc::ptr_eq(&kernels[0], k));
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3, "waiters count as served-from-cache");
    }

    #[test]
    fn waiters_on_a_failed_build_get_the_error_and_can_retry() {
        let cache = Arc::new(CompileCache::new());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let c2 = Arc::clone(&cache);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            g2.wait(); // the builder owns the key before we look
            std::thread::sleep(std::time::Duration::from_millis(20));
            c2.get_or_build(42, || build_for(&spec("synth:"), true))
        });
        let err = cache.get_or_build(42, || {
            gate.wait();
            std::thread::sleep(std::time::Duration::from_millis(60));
            Err("boom".into())
        });
        assert!(matches!(err, Err(ref e) if e == "boom"));
        // the waiter either observed the in-flight failure or retried
        // fresh; both are sound, and the key is never poisoned
        match waiter.join().unwrap() {
            Ok((_, _)) => assert_eq!(cache.len(), 1),
            Err(e) => {
                assert_eq!(e, "boom");
                assert!(cache.is_empty());
            }
        }
    }
}
