//! rfv-faults — deterministic, seeded fault planes.
//!
//! The simulator's correctness argument rests on early release never
//! freeing a live register. This crate provides the *attack side* of
//! that argument: a [`FaultPlan`] describes which microarchitectural
//! faults to inject (premature release, dropped release, metadata
//! bit-flips, renaming-table corruption, stale flag-cache hits, spill
//! write loss) and a [`FaultInjector`] decides — reproducibly, from a
//! seed — exactly which dynamic occurrences of each site get
//! perturbed.
//!
//! The plan is generic: a [`Plan`] arms each kind of a [`Kind`]
//! vocabulary with a count (`u16`, as here) or a firing rate (`f64`,
//! as `rfvd`'s disk and socket chaos does), and owns the one
//! `kind[:value][,…]` spec parser and the one summary for both. Every
//! seeded stream on either plane steps the one [`splitmix64`] from
//! [`Plan::stream_seed`].
//!
//! The crate is zero-dependency and knows nothing about the
//! simulator: the simulator asks [`FaultInjector::should_fire`] at
//! each candidate site and applies the perturbation itself.
//!
//! Determinism contract: the firing pattern is a pure function of
//! `(seed, kind, occurrence number)`. Two runs with the same plan and
//! the same sequence of `should_fire` calls observe the same faults,
//! regardless of wall clock, thread scheduling, or allocation order.

use std::fmt;
use std::marker::PhantomData;

/// The kinds of fault the plane can inject.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Release a register that the architectural intent still holds
    /// live (the paper's cardinal sin: an unsound early release).
    PrematureRelease,
    /// Swallow a release that should have happened (leaks physical
    /// registers; starves the throttle).
    DroppedRelease,
    /// Flip a per-instruction release (pir) flag bit at decode.
    PirFlagFlip,
    /// Flip a pbr bulk-release decision at decode.
    PbrFlagFlip,
    /// Corrupt a renaming-table entry (point an arch reg at a
    /// different physical register).
    RenameCorrupt,
    /// Report a flag-cache hit for a line that was never filled
    /// (stale metadata served to the decoder).
    StaleFlagCacheHit,
    /// Drop a spill write on the floor during a register swap-out.
    SpillWriteLoss,
}

/// Number of distinct [`FaultKind`]s.
pub const NUM_FAULT_KINDS: usize = 7;

impl Kind<NUM_FAULT_KINDS> for FaultKind {
    const ALL: [FaultKind; NUM_FAULT_KINDS] = [
        FaultKind::PrematureRelease,
        FaultKind::DroppedRelease,
        FaultKind::PirFlagFlip,
        FaultKind::PbrFlagFlip,
        FaultKind::RenameCorrupt,
        FaultKind::StaleFlagCacheHit,
        FaultKind::SpillWriteLoss,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            FaultKind::PrematureRelease => "premature-release",
            FaultKind::DroppedRelease => "dropped-release",
            FaultKind::PirFlagFlip => "pir-flip",
            FaultKind::PbrFlagFlip => "pbr-flip",
            FaultKind::RenameCorrupt => "rename-corrupt",
            FaultKind::StaleFlagCacheHit => "stale-flag-hit",
            FaultKind::SpillWriteLoss => "spill-loss",
        }
    }
}

/// A fault vocabulary: a fieldless enum of `N` kinds.
pub trait Kind<const N: usize>: Copy {
    /// Every kind, in discriminant order.
    const ALL: [Self; N];

    /// Stable index into per-kind arrays: the enum discriminant.
    fn index(self) -> usize;

    /// The CLI / trace spelling of this kind.
    fn name(self) -> &'static str;

    /// Parses the spelling produced by [`Kind::name`].
    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How a [`Plan`] arms one kind: how many faults to inject (`u16`) or
/// how likely each occurrence is to fault (`f64`).
pub trait Arming: Copy + PartialEq + Default + fmt::Display {
    /// The arming of a bare `kind` entry, with no `:value`.
    const BARE: Self;
    /// What the value of a `kind:value` entry must be.
    const EXPECTED: &'static str;
    /// Parses the value of a `kind:value` entry.
    fn parse(value: &str) -> Option<Self>;
}

impl Arming for u16 {
    const BARE: u16 = 1;
    const EXPECTED: &'static str = "a count up to 65535";

    fn parse(value: &str) -> Option<u16> {
        value.parse().ok()
    }
}

/// Rates resolve to whole parts per million.
pub const PPM: u64 = 1_000_000;

impl Arming for f64 {
    const BARE: f64 = 0.01;
    const EXPECTED: &'static str = "a rate in [0, 1]";

    /// Rounds to whole parts per million, so specs that fire alike
    /// parse to one plan and a summary spells it exactly.
    fn parse(value: &str) -> Option<f64> {
        let rate: f64 = value.parse().ok()?;
        (0.0..=1.0)
            .contains(&rate)
            .then(|| (rate * PPM as f64).round() / PPM as f64)
    }
}

/// A declarative fault plan: a seed plus, per kind of the vocabulary
/// `K`, an arming `A`. `Copy` so it can ride inside a config
/// unchanged; all mutable injection state lives in the injector that
/// executes it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Plan<K, A, const N: usize> {
    /// Seed for the per-kind firing streams.
    pub seed: u64,
    armed: [A; N],
    kinds: PhantomData<K>,
}

impl<K: Kind<N>, A: Arming, const N: usize> Plan<K, A, N> {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        Plan {
            seed: 0,
            armed: [A::default(); N],
            kinds: PhantomData,
        }
    }

    /// A plan arming a single kind.
    pub fn single(kind: K, armed: A, seed: u64) -> Self {
        Self::none().with(kind, armed).seeded(seed)
    }

    /// Builder: sets the arming of `kind`.
    pub fn with(mut self, kind: K, armed: A) -> Self {
        self.armed[kind.index()] = armed;
        self
    }

    /// Builder: sets the seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a CLI spec: a comma-separated list of `kind` or
    /// `kind:value` entries, where `kind` is a [`Kind::name`] or the
    /// wildcard `all` and a bare kind takes [`Arming::BARE`]. Entries
    /// are trimmed; later entries override earlier ones.
    ///
    /// ```
    /// use rfv_faults::{FaultKind, FaultPlan};
    /// let p = FaultPlan::parse("premature-release:3,rename-corrupt", 42).unwrap();
    /// assert_eq!(p.count(FaultKind::PrematureRelease), 3);
    /// assert_eq!(p.count(FaultKind::RenameCorrupt), 1);
    /// assert_eq!(p.seed, 42);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds or
    /// malformed values.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = Self::none().seeded(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, armed) = match entry.split_once(':') {
                Some((name, value)) => {
                    let armed = A::parse(value).ok_or_else(|| {
                        format!("bad value in `{entry}` (expected {})", A::EXPECTED)
                    })?;
                    (name, armed)
                }
                None => (entry, A::BARE),
            };
            if name == "all" {
                plan.armed = [armed; N];
            } else {
                let kind = K::parse(name).ok_or_else(|| {
                    format!(
                        "unknown fault kind `{name}` (expected one of: all {})",
                        K::ALL.map(K::name).join(" ")
                    )
                })?;
                plan.armed[kind.index()] = armed;
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.armed.iter().all(|&a| a == A::default())
    }

    /// The CLI spelling of this plan (`none` when empty), suitable
    /// for run headers and JSON artifacts: a spec for the same plan.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        K::ALL
            .into_iter()
            .filter(|&k| self.armed[k.index()] != A::default())
            .map(|k| format!("{}:{}", k.name(), self.armed[k.index()]))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The initial state of `kind`'s [`splitmix64`] stream: the seed
    /// with the kind folded in, so kinds sharing a seed draw
    /// decorrelated sequences.
    pub fn stream_seed(&self, kind: K) -> u64 {
        self.seed ^ (kind.index() as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
    }
}

impl<K: Kind<N>, const N: usize> Plan<K, u16, N> {
    /// Number of faults of `kind` this plan injects.
    pub fn count(&self, kind: K) -> u16 {
        self.armed[kind.index()]
    }
}

impl<K: Kind<N>, const N: usize> Plan<K, f64, N> {
    /// Probability that one occurrence of `kind` is faulted.
    pub fn rate(&self, kind: K) -> f64 {
        self.armed[kind.index()]
    }
}

/// The splitmix64 state increment. A stream shared between threads
/// advances with one atomic `fetch_add(GAMMA)` and passes the state it
/// read to [`splitmix64`].
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Sebastiano Vigna's splitmix64: a tiny, statistically solid step
/// function, used for reproducible fault placement and jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulator's fault plan: per kind, how many faults to inject
/// over the run. Rides inside `SimConfig`.
pub type FaultPlan = Plan<FaultKind, u16, NUM_FAULT_KINDS>;

/// One kind's firing stream: fires `remaining` times, at occurrence
/// numbers spaced by seeded pseudo-random gaps.
#[derive(Clone, Debug)]
struct Stream {
    rng: u64,
    seen: u64,
    next_at: u64,
    remaining: u16,
    fired: u64,
}

impl Stream {
    fn new(mut rng: u64, count: u16) -> Stream {
        let first = 1 + splitmix64(&mut rng) % 8;
        Stream {
            rng,
            seen: 0,
            next_at: first,
            remaining: count,
            fired: 0,
        }
    }

    fn should_fire(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.seen += 1;
        if self.seen < self.next_at {
            return false;
        }
        self.remaining -= 1;
        self.fired += 1;
        self.next_at = self.seen + 1 + splitmix64(&mut self.rng) % 32;
        true
    }
}

/// The runtime half of the plane: owns per-kind pseudo-random
/// streams and answers "does this dynamic occurrence get faulted?".
#[derive(Clone, Debug)]
pub struct FaultInjector {
    streams: Vec<Stream>,
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        FaultInjector {
            streams: FaultKind::ALL
                .into_iter()
                .map(|k| Stream::new(plan.stream_seed(k), plan.count(k)))
                .collect(),
        }
    }

    /// Reports — and consumes — whether the current dynamic
    /// occurrence of a `kind` site should be faulted. Call exactly
    /// once per candidate site, in program order.
    pub fn should_fire(&mut self, kind: FaultKind) -> bool {
        self.streams[kind.index()].should_fire()
    }

    /// A deterministic choice in `0..n` for parameterizing a fault
    /// (e.g. which register to corrupt). Draws from the kind's
    /// stream so the choice is reproducible.
    pub fn pick(&mut self, kind: FaultKind, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (splitmix64(&mut self.streams[kind.index()].rng) % n as u64) as usize
    }

    /// Faults of `kind` fired so far.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.streams[kind.index()].fired
    }

    /// Total faults fired across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.streams.iter().map(|s| s.fired).sum()
    }

    /// Number of `u64` state words per stream in
    /// [`FaultInjector::state_words`].
    pub const WORDS_PER_STREAM: usize = 5;

    /// Dumps the injector's mutable state as plain words (5 per kind,
    /// in [`FaultKind::ALL`] order) so a checkpointing host can
    /// serialize it without this crate growing an encoding dependency.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.streams.len() * Self::WORDS_PER_STREAM);
        for s in &self.streams {
            words.push(s.rng);
            words.push(s.seen);
            words.push(s.next_at);
            words.push(u64::from(s.remaining));
            words.push(s.fired);
        }
        words
    }

    /// Rebuilds an injector from [`FaultInjector::state_words`] output
    /// for the same `plan`. Returns `None` when the word count or a
    /// field range is wrong (corrupt input).
    pub fn from_state_words(plan: &FaultPlan, words: &[u64]) -> Option<FaultInjector> {
        if words.len() != NUM_FAULT_KINDS * Self::WORDS_PER_STREAM {
            return None;
        }
        let mut inj = FaultInjector::new(plan);
        for (s, w) in inj
            .streams
            .iter_mut()
            .zip(words.chunks(Self::WORDS_PER_STREAM))
        {
            s.rng = w[0];
            s.seen = w[1];
            s.next_at = w[2];
            s.remaining = u16::try_from(w[3]).ok()?;
            s.fired = w[4];
        }
        Some(inj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let p = FaultPlan::parse("premature-release:2,spill-loss", 7).unwrap();
        assert_eq!(p.count(FaultKind::PrematureRelease), 2);
        assert_eq!(p.count(FaultKind::SpillWriteLoss), 1);
        assert_eq!(p.count(FaultKind::DroppedRelease), 0);
        assert_eq!(p.seed, 7);
        assert_eq!(p.summary(), "premature-release:2,spill-loss:1");
        let again = FaultPlan::parse(&p.summary(), 7).unwrap();
        assert_eq!(again, p);
    }

    #[test]
    fn parse_all_wildcard() {
        let p = FaultPlan::parse("all:3", 0).unwrap();
        for k in FaultKind::ALL {
            assert_eq!(p.count(k), 3);
        }
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("no-such-fault", 0).is_err());
        assert!(FaultPlan::parse("premature-release:lots", 0).is_err());
        assert_eq!(FaultPlan::parse("", 0).unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::none().summary(), "none");
    }

    #[test]
    fn firing_is_deterministic_and_bounded() {
        let plan = FaultPlan::single(FaultKind::PrematureRelease, 5, 1234);
        let fire = |mut inj: FaultInjector| -> Vec<u64> {
            let mut hits = Vec::new();
            for occurrence in 0..10_000u64 {
                if inj.should_fire(FaultKind::PrematureRelease) {
                    hits.push(occurrence);
                }
            }
            assert_eq!(inj.fired(FaultKind::PrematureRelease), hits.len() as u64);
            hits
        };
        let a = fire(FaultInjector::new(&plan));
        let b = fire(FaultInjector::new(&plan));
        assert_eq!(a, b, "same seed, same firing pattern");
        assert_eq!(a.len(), 5, "exactly the planned count fires");
    }

    #[test]
    fn seeds_move_the_firing_points() {
        let hits = |seed: u64| -> Vec<u64> {
            let plan = FaultPlan::single(FaultKind::DroppedRelease, 4, seed);
            let mut inj = FaultInjector::new(&plan);
            (0..1000u64)
                .filter(|_| inj.should_fire(FaultKind::DroppedRelease))
                .collect()
        };
        assert_ne!(hits(1), hits(2));
    }

    #[test]
    fn kinds_are_decorrelated() {
        let plan = FaultPlan::none()
            .with(FaultKind::PirFlagFlip, 3)
            .with(FaultKind::PbrFlagFlip, 3)
            .seeded(99);
        let mut inj = FaultInjector::new(&plan);
        let mut pir = Vec::new();
        let mut pbr = Vec::new();
        for occurrence in 0..1000u64 {
            if inj.should_fire(FaultKind::PirFlagFlip) {
                pir.push(occurrence);
            }
            if inj.should_fire(FaultKind::PbrFlagFlip) {
                pbr.push(occurrence);
            }
        }
        assert_ne!(pir, pbr, "same seed, different kinds, different points");
        assert_eq!(inj.total_fired(), 6);
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut inj = FaultInjector::new(&FaultPlan::none());
        for _ in 0..100 {
            for k in FaultKind::ALL {
                assert!(!inj.should_fire(k));
            }
        }
        assert_eq!(inj.total_fired(), 0);
    }

    #[test]
    fn pick_is_in_range_and_deterministic() {
        let plan = FaultPlan::single(FaultKind::RenameCorrupt, 1, 5);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for n in 1..50 {
            let x = a.pick(FaultKind::RenameCorrupt, n);
            assert!(x < n);
            assert_eq!(x, b.pick(FaultKind::RenameCorrupt, n));
        }
        assert_eq!(a.pick(FaultKind::RenameCorrupt, 0), 0, "degenerate range");
    }

    #[test]
    fn state_words_resume_the_firing_pattern_exactly() {
        let plan = FaultPlan::parse("all:3", 77).unwrap();
        let mut uninterrupted = FaultInjector::new(&plan);
        let mut first_half = FaultInjector::new(&plan);
        let mut a = Vec::new();
        for occ in 0..60u64 {
            for k in FaultKind::ALL {
                if uninterrupted.should_fire(k) {
                    a.push((occ, k));
                }
                first_half.should_fire(k);
            }
        }
        // snapshot at occurrence 60, restore, and run both to 300
        let words = first_half.state_words();
        let mut resumed = FaultInjector::from_state_words(&plan, &words).unwrap();
        let mut b: Vec<(u64, FaultKind)> = Vec::new();
        for occ in 60..300u64 {
            for k in FaultKind::ALL {
                if uninterrupted.should_fire(k) {
                    a.push((occ, k));
                }
                if resumed.should_fire(k) {
                    b.push((occ, k));
                }
            }
        }
        let tail: Vec<_> = a.iter().filter(|(occ, _)| *occ >= 60).copied().collect();
        assert_eq!(tail, b, "resumed stream continues the exact pattern");
        assert_eq!(resumed.total_fired(), uninterrupted.total_fired());
        // corrupt word counts are rejected, not panicked on
        assert!(FaultInjector::from_state_words(&plan, &words[..words.len() - 1]).is_none());
        let mut bad = words.clone();
        bad[3] = u64::MAX; // remaining must fit u16
        assert!(FaultInjector::from_state_words(&plan, &bad).is_none());
    }

    #[test]
    fn names_parse_back() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }
    /// Sequences captured before the plan became generic over its kind
    /// vocabulary: seeded placement, `pick` draws and the 5-word
    /// checkpoint layout must stay bit for bit.
    #[test]
    fn seeded_sequences_are_pinned() {
        let plan = FaultPlan::parse("all:5", 42).unwrap();
        let mut inj = FaultInjector::new(&plan);
        let mut hits = vec![Vec::new(); NUM_FAULT_KINDS];
        for occurrence in 0..400u64 {
            for k in FaultKind::ALL {
                if inj.should_fire(k) {
                    hits[k.index()].push(occurrence);
                }
            }
        }
        assert_eq!(
            hits,
            [
                [4, 19, 29, 41, 71],
                [2, 19, 41, 50, 79],
                [7, 20, 48, 62, 91],
                [7, 14, 26, 41, 61],
                [0, 4, 28, 43, 68],
                [5, 9, 18, 37, 60],
                [0, 32, 64, 89, 109],
            ]
        );
        let picks = FaultKind::ALL.map(|k| inj.pick(k, 1000));
        assert_eq!(picks, [639, 497, 899, 536, 210, 303, 944]);
        let words = inj.state_words();
        assert_eq!(
            words
                .chunks(FaultInjector::WORDS_PER_STREAM)
                .collect::<Vec<_>>(),
            [
                &[17_580_488_851_104_123_032, 72, 82, 0, 5][..],
                &[10_696_206_188_074_511_623, 80, 102, 0, 5][..],
                &[3_811_923_525_044_900_154, 92, 105, 0, 5][..],
                &[15_374_384_935_724_840_233, 62, 82, 0, 5][..],
                &[8_490_102_272_695_228_756, 69, 101, 0, 5][..],
                &[1_605_819_609_665_617_347, 61, 88, 0, 5][..],
                &[13_168_281_020_345_557_494, 110, 142, 0, 5][..],
            ]
        );
    }
}
