//! One bounded, build-coalescing memo cache, and the compiled-kernel
//! entry it most often holds.
//!
//! Compilation (CFG, liveness, lifetime intervals, metadata packing),
//! predecode and simulation are pure: the same input always produces
//! the same output. [`Cache`] therefore builds each value once per key
//! and hands every later lookup the same `Arc`. It is the only memo in
//! the workspace: the experiment harness keeps its compiled kernels
//! and run results in it, and `rfvd` its spec-keyed compile cache.
//!
//! Three guarantees:
//!
//! * **Bounded residency.** A cache holds at most `capacity` values
//!   (0 = unbounded). Inserting past the bound evicts the
//!   least-recently-used ready entry and counts the eviction. An
//!   evicted value simply rebuilds on next sight, byte-identical.
//! * **Single-flight builds.** A miss installs an in-flight marker
//!   *before* building, so a second racing miss on the same key
//!   blocks on the first build instead of duplicating it. Building
//!   happens outside the map lock, so a slow build never stalls
//!   unrelated lookups. A failed build is handed to every waiter but
//!   never cached.
//! * **Unwind safety.** A build that panics settles its flight on the
//!   way out: the key is freed for the next lookup to rebuild, and
//!   every waiter gets an error instead of blocking forever.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rfv_compiler::{compile, CompileOptions, CompiledKernel};
use rfv_isa::prelude::Kernel;

use crate::PredecodedKernel;

/// A compiled kernel plus its issue-ready predecoded image (and the
/// execution plan lowered into it). Both are pure functions of the
/// source kernel and compile options, so every run of the kernel
/// shares them. Derefs to the [`CompiledKernel`].
#[derive(Clone)]
pub struct CachedKernel {
    /// The compiled binary.
    pub compiled: Arc<CompiledKernel>,
    /// The predecoded program image every SM of every run reuses.
    pub predecoded: Arc<PredecodedKernel>,
}

impl CachedKernel {
    /// Predecodes `compiled`.
    pub fn new(compiled: CompiledKernel) -> CachedKernel {
        let predecoded = Arc::new(PredecodedKernel::new(&compiled));
        CachedKernel {
            compiled: Arc::new(compiled),
            predecoded,
        }
    }

    /// Compiles and predecodes `kernel` in the flavor `release_flags`
    /// selects (see [`flavor_options`]).
    ///
    /// # Errors
    ///
    /// The compiler's error, stringified.
    pub fn build(kernel: &Kernel, release_flags: bool) -> Result<CachedKernel, String> {
        compile_flavored(kernel, release_flags).map(CachedKernel::new)
    }
}

impl Deref for CachedKernel {
    type Target = CompiledKernel;

    fn deref(&self) -> &CompiledKernel {
        &self.compiled
    }
}

/// The compile options of each binary flavor: the default
/// renaming-table budget, with `pir`/`pbr` release metadata, for
/// machines that honour release flags; a zero budget, so no metadata
/// at all, for the conventional and hardware-only machines. A
/// machine's flavor is `policy.uses_release_flags()`.
pub fn flavor_options(release_flags: bool) -> CompileOptions {
    if release_flags {
        CompileOptions::default()
    } else {
        CompileOptions {
            table_budget_bytes: 0,
        }
    }
}

/// Compiles `kernel` in the flavor `release_flags` selects (see
/// [`flavor_options`]).
///
/// # Errors
///
/// The compiler's error, stringified.
pub fn compile_flavored(kernel: &Kernel, release_flags: bool) -> Result<CompiledKernel, String> {
    compile(kernel, &flavor_options(release_flags)).map_err(|e| e.to_string())
}

/// What a waiter on a build that panicked receives.
const BUILD_PANICKED: &str = "cache build panicked";

/// The in-flight rendezvous one building thread shares with its
/// waiters: `result` is `None` until the build finishes.
struct Flight<V> {
    result: Mutex<Option<Result<Arc<V>, String>>>,
    done: Condvar,
}

enum Slot<V> {
    /// Built and resident, with the recency tick LRU eviction orders
    /// by.
    Ready { value: Arc<V>, last_used: u64 },
    /// A build is in flight; waiters block on the [`Flight`].
    Building(Arc<Flight<V>>),
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Monotonic recency clock; bumped on every hit and insert.
    tick: u64,
}

impl<K: Hash + Eq + Clone, V> Inner<K, V> {
    fn ready_count(&self) -> usize {
        self.map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Evicts the least-recently-used ready entry. In-flight builds
    /// are never evicted (there is nothing resident to drop yet).
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { last_used, .. } => Some((k, *last_used)),
                Slot::Building(_) => None,
            })
            .min_by_key(|&(_, used)| used)
            .map(|(k, _)| k.clone());
        victim.is_some_and(|k| self.map.remove(&k).is_some())
    }
}

/// Locks `m`, recovering the guard if a holder panicked. That is sound
/// here: every critical section is a single map lookup, insert or
/// remove, or a tick bump, so the data is valid at every step; and a
/// build that panicked must still settle its flight from `Drop`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent, bounded memo cache. See the module docs for the
/// eviction, build-coalescing and unwind contracts.
pub struct Cache<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Maximum resident values; 0 means unbounded.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> Default for Cache<K, V> {
    fn default() -> Cache<K, V> {
        Cache::unbounded()
    }
}

impl<K: Hash + Eq + Clone, V> Cache<K, V> {
    /// A cache evicting LRU entries beyond `capacity` resident
    /// values; `0` disables the bound.
    pub fn with_capacity(capacity: usize) -> Cache<K, V> {
        Cache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An unbounded cache (embedders that manage their own lifetime).
    pub fn unbounded() -> Cache<K, V> {
        Cache::with_capacity(0)
    }

    /// An empty unbounded cache.
    pub fn new() -> Cache<K, V> {
        Cache::default()
    }

    /// Returns the value under `key`, running `build` (and caching its
    /// result) on first sight. The `bool` is true on a cache hit —
    /// including a wait on another thread's in-flight build, which
    /// serves this caller without building anything.
    ///
    /// # Errors
    ///
    /// Whatever `build` fails with. Waiters on a failed in-flight
    /// build receive the same error, and waiters on one that panicked
    /// an error saying so; nothing is cached either way.
    pub fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, String>,
    ) -> Result<(Arc<V>, bool), String> {
        let flight = {
            let mut inner = lock(&self.inner);
            let Inner { map, tick } = &mut *inner;
            match map.get_mut(&key) {
                Some(Slot::Ready { value, last_used }) => {
                    *tick += 1;
                    *last_used = *tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(value), true));
                }
                Some(Slot::Building(flight)) => {
                    // someone else is building this key: wait for
                    // their result instead of duplicating the build
                    let flight = Arc::clone(flight);
                    drop(inner);
                    let mut result = lock(&flight.result);
                    while result.is_none() {
                        result = flight
                            .done
                            .wait(result)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    let value = result.clone().expect("loop exits on Some")?;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((value, true));
                }
                None => {
                    // claim the key before building so racing misses
                    // coalesce onto this build
                    let flight = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key.clone(), Slot::Building(Arc::clone(&flight)));
                    flight
                }
            }
        };

        // we own the build; run it outside the map lock, under a
        // claim that settles the flight even if `build` unwinds
        let mut claim = Claim {
            cache: self,
            key: Some(key),
            flight,
        };
        let built = build().map(Arc::new);
        claim.settle(built.clone());
        built.map(|value| (value, false))
    }

    /// Cache hits so far (including coalesced waits on in-flight
    /// builds).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of values resident right now.
    pub fn len(&self) -> usize {
        lock(&self.inner).ready_count()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A build in progress: owns `key`'s in-flight slot until
/// [`Claim::settle`] publishes the outcome. Dropped unsettled — the
/// build panicked — it settles with an error, so the key is freed and
/// no waiter blocks forever.
struct Claim<'a, K: Hash + Eq + Clone, V> {
    cache: &'a Cache<K, V>,
    /// `None` once settled.
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Hash + Eq + Clone, V> Claim<'_, K, V> {
    fn settle(&mut self, built: Result<Arc<V>, String>) {
        let Some(key) = self.key.take() else {
            return;
        };
        let cache = self.cache;
        cache.misses.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = lock(&cache.inner);
            match &built {
                Ok(value) => {
                    inner.tick += 1;
                    let last_used = inner.tick;
                    let value = Arc::clone(value);
                    inner.map.insert(key, Slot::Ready { value, last_used });
                    while cache.capacity > 0
                        && inner.ready_count() > cache.capacity
                        && inner.evict_lru()
                    {
                        cache.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // a failed build must not poison the key
                Err(_) => {
                    inner.map.remove(&key);
                }
            }
        }
        // release the waiters, success or failure alike
        *lock(&self.flight.result) = Some(built);
        self.flight.done.notify_all();
    }
}

impl<K: Hash + Eq + Clone, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        // a no-op after a normal settle; reached with the key still
        // held only while `build` unwinds
        self.settle(Err(BUILD_PANICKED.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// How many handles on `key`'s in-flight build exist: 2 while only
    /// the builder holds it (map slot + claim), 3 once a waiter has
    /// joined.
    fn flight_handles(cache: &Cache<u32, u32>, key: u32) -> usize {
        match lock(&cache.inner).map.get(&key) {
            Some(Slot::Building(f)) => Arc::strong_count(f),
            _ => 0,
        }
    }

    #[test]
    fn a_panicking_build_frees_its_key_and_fails_its_waiters() {
        let cache = Arc::new(Cache::<u32, u32>::new());
        let c2 = Arc::clone(&cache);
        let builder = std::thread::spawn(move || {
            c2.get_or_build(5, || {
                // panic only once the main thread is parked on this
                // build, so the waiter's outcome is deterministic
                let deadline = Instant::now() + Duration::from_secs(10);
                while flight_handles(&c2, 5) < 3 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                panic!("build blew up");
            })
        });
        while flight_handles(&cache, 5) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = cache.get_or_build(5, || Ok(1));
        assert_eq!(waited, Err(BUILD_PANICKED.to_string()));
        assert!(builder.join().is_err(), "the builder's panic propagates");
        assert!(cache.is_empty(), "nothing was cached");
        let (value, hit) = cache.get_or_build(5, || Ok(2)).unwrap();
        assert_eq!((*value, hit), (2, false), "the next lookup rebuilds");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0, "a failed wait is not a hit");
    }

    #[test]
    fn a_panic_without_waiters_frees_the_key() {
        let cache = Cache::<u32, u32>::with_capacity(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(1, || panic!("build blew up"))
        }));
        assert!(caught.is_err());
        assert!(cache.is_empty());
        let (value, hit) = cache.get_or_build(1, || Ok(3)).unwrap();
        assert_eq!((*value, hit), (3, false));
        let (value, hit) = cache.get_or_build(1, || Ok(4)).unwrap();
        assert_eq!((*value, hit), (3, true));
    }
}
