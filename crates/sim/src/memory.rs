//! Functional + timing memory model: global, shared, and per-thread
//! local spaces, with 128 B coalescing for global accesses.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use rfv_isa::WARP_SIZE;
use rfv_trace::{Dec, Enc, WireError};

/// Size of one coalesced memory transaction, bytes.
pub const SEGMENT_BYTES: u64 = 128;

/// A multiply–xor hasher for the sparse memory maps. Word addresses
/// hash on every simulated load/store lane, and the default SipHash
/// showed up prominently in profiles; integer keys need no DoS
/// resistance here. Only the map's *internal* layout changes — lookup
/// results, equality, and every statistic are unaffected.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHashBuilder;

impl BuildHasher for FastHashBuilder {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

/// See [`FastHashBuilder`].
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Global (device) memory: a sparse word store. Unwritten words read
/// as a deterministic address-derived pattern so that data-dependent
/// kernels (graph traversals, reductions over "input" arrays) behave
/// reproducibly without explicit initialization.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct GlobalMemory {
    words: HashMap<u64, u32, FastHashBuilder>,
    /// Word reads served.
    pub reads: u64,
    /// Word writes served.
    pub writes: u64,
}

impl GlobalMemory {
    /// An empty memory (all defaults).
    pub fn new() -> GlobalMemory {
        GlobalMemory::default()
    }

    /// The deterministic content of an unwritten word.
    pub fn default_word(addr: u64) -> u32 {
        ((addr >> 2) as u32).wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995
    }

    /// Reads the 32-bit word at byte address `addr` (word aligned;
    /// low bits ignored).
    pub fn read_word(&mut self, addr: u64) -> u32 {
        self.reads += 1;
        let a = addr & !3;
        self.words
            .get(&a)
            .copied()
            .unwrap_or_else(|| GlobalMemory::default_word(a))
    }

    /// Writes the 32-bit word at byte address `addr`.
    pub fn write_word(&mut self, addr: u64, value: u32) {
        self.writes += 1;
        self.words.insert(addr & !3, value);
    }

    /// Writes every `(addr, value)` pair as [`GlobalMemory::write_word`]
    /// does, with room for all of them reserved first.
    pub fn preload(&mut self, words: &[(u64, u32)]) {
        self.words.reserve(words.len());
        for &(addr, value) in words {
            self.write_word(addr, value);
        }
    }

    /// Reads without counting (verification helpers).
    pub fn peek_word(&self, addr: u64) -> u32 {
        let a = addr & !3;
        self.words
            .get(&a)
            .copied()
            .unwrap_or_else(|| GlobalMemory::default_word(a))
    }

    /// Words explicitly written so far.
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }

    /// Serializes the word store for a checkpoint frame. Keys are
    /// written in sorted order so equal memories always encode to
    /// identical bytes ([`FastHashBuilder`] iteration order is not
    /// deterministic across maps with different insertion histories).
    pub fn encode(&self, e: &mut Enc) {
        let mut words: Vec<(u64, u32)> = self.words.iter().map(|(&k, &v)| (k, v)).collect();
        sort_by_addr(&mut words);
        e.usize(words.len());
        for (k, v) in words {
            e.u64(k);
            e.u32(v);
        }
        e.u64(self.reads);
        e.u64(self.writes);
    }

    /// Rebuilds a memory written by [`GlobalMemory::encode`].
    ///
    /// # Errors
    ///
    /// Propagates truncation/corruption as a typed [`WireError`].
    pub fn decode(d: &mut Dec<'_>) -> Result<GlobalMemory, WireError> {
        let n = d.usize()?;
        let mut m = GlobalMemory::new();
        m.words.reserve(n);
        for _ in 0..n {
            let k = d.u64()?;
            let v = d.u32()?;
            m.words.insert(k, v);
        }
        m.reads = d.u64()?;
        m.writes = d.u64()?;
        Ok(m)
    }
}

/// Sorts `(address, word)` pairs by address: an LSD radix sort, one
/// byte a pass, that skips the bytes every address shares. On a suite
/// workload's 88k pre-loaded words (2-vCPU host) it takes 4.4 ms in a
/// release build where `sort_unstable_by_key` took 5.3 ms, and 18 ms in
/// a debug build, where the comparison sort's calls are not inlined and
/// took 80 ms.
fn sort_by_addr(words: &mut Vec<(u64, u32)>) {
    let mut out = vec![(0, 0); words.len()];
    for shift in (0..64).step_by(8) {
        let mut counts = [0usize; 256];
        for &(addr, _) in words.iter() {
            counts[(addr >> shift) as usize & 0xff] += 1;
        }
        if counts.contains(&words.len()) {
            continue;
        }
        let mut next = 0;
        for c in &mut counts {
            (*c, next) = (next, next + *c);
        }
        for &w in words.iter() {
            let slot = &mut counts[(w.0 >> shift) as usize & 0xff];
            out[*slot] = w;
            *slot += 1;
        }
        std::mem::swap(words, &mut out);
    }
}

/// A warp's per-lane addresses coalesced into sorted, deduplicated
/// 128 B segment ids, in a fixed-size buffer (one warp has at most
/// [`WARP_SIZE`] distinct segments, so the hot path never allocates).
#[derive(Clone, Copy, Debug)]
pub struct SegmentSet {
    segs: [u64; WARP_SIZE],
    len: usize,
}

impl SegmentSet {
    /// Coalesces `addrs` (lanes with `None` are inactive).
    pub fn from_addrs(addrs: &[Option<u64>]) -> SegmentSet {
        let mut segs = [0u64; WARP_SIZE];
        let mut n = 0;
        for a in addrs.iter().flatten() {
            segs[n] = a / SEGMENT_BYTES;
            n += 1;
        }
        segs[..n].sort_unstable();
        let mut len = 0;
        for i in 0..n {
            if len == 0 || segs[len - 1] != segs[i] {
                segs[len] = segs[i];
                len += 1;
            }
        }
        SegmentSet { segs, len }
    }

    /// The distinct segment ids, ascending.
    pub fn segments(&self) -> &[u64] {
        &self.segs[..self.len]
    }
}

/// Counts the coalesced 128 B transactions needed to serve a warp's
/// per-lane addresses (lanes with `None` are inactive).
pub fn coalesce_count(addrs: &[Option<u64>]) -> usize {
    SegmentSet::from_addrs(addrs).len
}

/// Per-CTA shared memory (a plain word array).
#[derive(Clone, Debug)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Creates a shared memory of `bytes` bytes (rounded down to
    /// whole words).
    pub fn new(bytes: usize) -> SharedMemory {
        SharedMemory {
            words: vec![0; bytes / 4],
        }
    }

    /// Reads the word at byte offset `addr` (wrapping within the
    /// array, mirroring hardware address truncation).
    pub fn read_word(&self, addr: u64) -> u32 {
        let idx = (addr / 4) as usize % self.words.len().max(1);
        self.words.get(idx).copied().unwrap_or(0)
    }

    /// Writes the word at byte offset `addr`.
    pub fn write_word(&mut self, addr: u64, value: u32) {
        if self.words.is_empty() {
            return;
        }
        let len = self.words.len();
        self.words[(addr / 4) as usize % len] = value;
    }

    /// Clears contents (CTA slot reuse).
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Serializes the word array for a checkpoint frame.
    pub fn encode(&self, e: &mut Enc) {
        e.usize(self.words.len());
        for &w in &self.words {
            e.u32(w);
        }
    }

    /// Rebuilds a shared memory written by [`SharedMemory::encode`].
    ///
    /// # Errors
    ///
    /// Rejects streams whose size disagrees with `bytes`.
    pub fn decode(d: &mut Dec<'_>, bytes: usize) -> Result<SharedMemory, WireError> {
        let mut s = SharedMemory::new(bytes);
        if d.usize()? != s.words.len() {
            return Err(WireError::Invalid("shared memory size"));
        }
        for w in s.words.iter_mut() {
            *w = d.u32()?;
        }
        Ok(s)
    }
}

/// Per-thread local memory (spill space): sparse, zero-filled,
/// keyed by (hardware warp slot, lane, word address).
#[derive(Clone, Default, Debug)]
pub struct LocalMemory {
    words: HashMap<(usize, usize, u64), u32, FastHashBuilder>,
    /// Word accesses served (spill traffic statistic).
    pub accesses: u64,
}

impl LocalMemory {
    /// An empty local memory.
    pub fn new() -> LocalMemory {
        LocalMemory::default()
    }

    /// Reads a thread's local word.
    pub fn read_word(&mut self, warp_slot: usize, lane: usize, addr: u64) -> u32 {
        self.accesses += 1;
        self.words
            .get(&(warp_slot, lane, addr / 4))
            .copied()
            .unwrap_or(0)
    }

    /// Writes a thread's local word.
    pub fn write_word(&mut self, warp_slot: usize, lane: usize, addr: u64, value: u32) {
        self.accesses += 1;
        self.words.insert((warp_slot, lane, addr / 4), value);
    }

    /// Drops a warp slot's contents (warp retirement).
    pub fn clear_warp(&mut self, warp_slot: usize) {
        self.words.retain(|&(w, _, _), _| w != warp_slot);
    }

    /// Serializes the word store for a checkpoint frame (sorted keys,
    /// see [`GlobalMemory::encode`]).
    pub fn encode(&self, e: &mut Enc) {
        let mut keys: Vec<(usize, usize, u64)> = self.words.keys().copied().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for k in keys {
            e.usize(k.0);
            e.usize(k.1);
            e.u64(k.2);
            e.u32(self.words[&k]);
        }
        e.u64(self.accesses);
    }

    /// Rebuilds a local memory written by [`LocalMemory::encode`].
    ///
    /// # Errors
    ///
    /// Propagates truncation/corruption as a typed [`WireError`].
    pub fn decode(d: &mut Dec<'_>) -> Result<LocalMemory, WireError> {
        let n = d.usize()?;
        let mut m = LocalMemory::new();
        m.words.reserve(n);
        for _ in 0..n {
            let k = (d.usize()?, d.usize()?, d.u64()?);
            let v = d.u32()?;
            m.words.insert(k, v);
        }
        m.accesses = d.u64()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_read_your_writes() {
        let mut m = GlobalMemory::new();
        m.write_word(0x100, 42);
        assert_eq!(m.read_word(0x100), 42);
        assert_eq!(m.read_word(0x102), 42, "word aligned");
        assert_eq!(m.footprint_words(), 1);
    }

    #[test]
    fn global_default_pattern_is_deterministic() {
        let mut m = GlobalMemory::new();
        let v1 = m.read_word(0x2000);
        let v2 = m.read_word(0x2000);
        assert_eq!(v1, v2);
        assert_ne!(m.read_word(0x2000), m.read_word(0x2004));
        assert_eq!(m.reads, 4);
    }

    #[test]
    fn coalescing_counts_unique_segments() {
        // all 32 lanes in one 128 B segment -> 1 transaction
        let unit: Vec<Option<u64>> = (0..32).map(|i| Some(i * 4)).collect();
        assert_eq!(coalesce_count(&unit), 1);
        // stride-128 -> 32 transactions
        let strided: Vec<Option<u64>> = (0..32).map(|i| Some(i * 128)).collect();
        assert_eq!(coalesce_count(&strided), 32);
        // inactive lanes don't count
        let sparse: Vec<Option<u64>> = (0..32)
            .map(|i| if i < 2 { Some(i * 4) } else { None })
            .collect();
        assert_eq!(coalesce_count(&sparse), 1);
        assert_eq!(coalesce_count(&[None; 32]), 0);
    }

    #[test]
    fn shared_memory_roundtrip() {
        let mut s = SharedMemory::new(1024);
        s.write_word(16, 7);
        assert_eq!(s.read_word(16), 7);
        s.reset();
        assert_eq!(s.read_word(16), 0);
    }

    #[test]
    fn memory_snapshots_encode_canonically_and_round_trip() {
        // two globals with the same content but different insertion
        // histories must encode to identical bytes
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        for addr in [0x100u64, 0x2000, 0x44] {
            a.write_word(addr, (addr as u32) ^ 7);
        }
        for addr in [0x2000u64, 0x44, 0x100] {
            b.write_word(addr, (addr as u32) ^ 7);
        }
        let enc = |m: &GlobalMemory| {
            let mut e = Enc::new();
            m.encode(&mut e);
            e.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b), "sorted-key encoding is canonical");
        let bytes = enc(&a);
        let r = GlobalMemory::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(r, a);
        assert!(GlobalMemory::decode(&mut Dec::new(&bytes[..5])).is_err());

        let mut s = SharedMemory::new(64);
        s.write_word(8, 99);
        let mut e = Enc::new();
        s.encode(&mut e);
        let sb = e.into_bytes();
        let rs = SharedMemory::decode(&mut Dec::new(&sb), 64).unwrap();
        assert_eq!(rs.read_word(8), 99);
        assert!(SharedMemory::decode(&mut Dec::new(&sb), 128).is_err());

        let mut l = LocalMemory::new();
        l.write_word(2, 5, 16, 77);
        let mut e = Enc::new();
        l.encode(&mut e);
        let lb = e.into_bytes();
        let mut rl = LocalMemory::decode(&mut Dec::new(&lb)).unwrap();
        assert_eq!(rl.read_word(2, 5, 16), 77);
        assert_eq!(rl.accesses, l.accesses + 1);
    }

    #[test]
    fn radix_sort_matches_a_comparison_sort() {
        let mut state = 7;
        for n in [0, 1, 2, 300, 5000] {
            // addresses that differ in every byte, in low bytes only,
            // and in the high bytes only
            for mask in [u64::MAX, 0xfff, 0xff00_0000_0000_0000] {
                let mut words: Vec<(u64, u32)> = (0..n)
                    .map(|i| (rfv_faults::splitmix64(&mut state) & mask, i))
                    .collect();
                let mut want = words.clone();
                want.sort_by_key(|&(addr, _)| addr);
                sort_by_addr(&mut words);
                assert_eq!(words, want, "n {n} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn local_memory_is_per_thread() {
        let mut l = LocalMemory::new();
        l.write_word(0, 3, 8, 11);
        l.write_word(1, 3, 8, 22);
        assert_eq!(l.read_word(0, 3, 8), 11);
        assert_eq!(l.read_word(1, 3, 8), 22);
        assert_eq!(l.read_word(0, 4, 8), 0, "unwritten lane reads zero");
        l.clear_warp(0);
        assert_eq!(l.read_word(0, 3, 8), 0);
        assert_eq!(l.read_word(1, 3, 8), 22);
    }
}
