//! Seeded job streams for the two `rfvd` workloads. The daemon only
//! ever sees the spec strings generated here.

use std::collections::HashSet;

use rfv_workloads::TABLE1;

/// The four machines the paper's evaluation compares.
pub const MACHINES: [&str; 4] = ["conventional", "full", "shrink50", "hwonly"];

/// Looped synthetic shapes added to the Table 1 kernels in the warm hot
/// set: one long job spanning several preemption slices and one short
/// looped job.
pub const WARM_SYNTH: [&str; 2] = [
    "synth:regs=32,trips=300,mem=1,ctas=6,tpc=256,conc=2",
    "synth:regs=24,trips=40,mem=1,diamond=1,ctas=2,tpc=64,conc=2",
];

/// Jobs per deck: every warm deck holds each hot (spec, machine) pair
/// once; a fresh deck is a block of this many jobs.
pub const FRESH_DECK: usize = 64;

/// One generated job.
#[derive(Clone)]
pub struct JobDesc {
    pub spec: String,
    pub machine: &'static str,
    pub high: bool,
    pub nonce: u64,
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn nonce(&mut self) -> u64 {
        loop {
            let n = self.next();
            if n != 0 {
                return n;
            }
        }
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Every spec of the warm hot set.
pub fn hot_specs() -> Vec<String> {
    TABLE1
        .iter()
        .map(|g| g.name.to_string())
        .chain(WARM_SYNTH.iter().map(|s| s.to_string()))
        .collect()
}

/// One compile flavor per machine class, so priming these jobs puts
/// every hot (spec, flavor) pair in the daemon's cache.
pub fn priming_jobs(seed: u64) -> Vec<JobDesc> {
    let mut rng = Rng::new(seed ^ 0x5052_494d_4500_0000);
    let mut out = Vec::new();
    for spec in hot_specs() {
        for machine in ["full", "conventional"] {
            out.push(JobDesc {
                spec: spec.clone(),
                machine,
                high: false,
                nonce: rng.nonce(),
            });
        }
    }
    out
}

/// The warm stream: decks of every hot (spec, machine) pair, each deck
/// shuffled. The same 9 of the 72 pairs are high priority in every
/// deck: odd-numbered specs, machines in turn, never the long synth job.
/// A fixed high-priority mix keeps the high-priority latency tail from
/// depending on which jobs a seed happens to promote.
pub fn warm_stream(seed: u64, len: usize) -> Vec<JobDesc> {
    let mut rng = Rng::new(seed);
    let pairs: Vec<(String, &'static str, bool)> = hot_specs()
        .into_iter()
        .enumerate()
        .flat_map(|(i, s)| {
            MACHINES
                .iter()
                .enumerate()
                .map(move |(j, &m)| (s.clone(), m, i % 2 == 1 && j == (i / 2) % 4))
        })
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut deck = pairs.clone();
        rng.shuffle(&mut deck);
        for (spec, machine, high) in deck {
            out.push(JobDesc {
                spec,
                machine,
                high,
                nonce: rng.nonce(),
            });
        }
    }
    out.truncate(len);
    out
}

/// The fresh stream: distinct straight-line synthetic kernels (no spec
/// repeats, so every job misses the daemon's cache), one job in eight
/// high priority.
pub fn fresh_stream(seed: u64, len: usize) -> Vec<JobDesc> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(len);
    let mut out = Vec::with_capacity(len);
    let mut high_slot = 0;
    while out.len() < len {
        let regs = 8 + rng.below(56);
        let rep = 16 + rng.below(49);
        let tpc = [32, 64, 128][rng.below(3) as usize];
        let ctas = 1 + rng.below(3);
        let conc = 1 + rng.below(2);
        let mem = rng.below(4);
        let spec = format!(
            "synth:regs={regs},trips=0,mem={mem},ctas={ctas},tpc={tpc},conc={conc},rep={rep}"
        );
        if !seen.insert(spec.clone()) {
            continue;
        }
        if out.len() % 8 == 0 {
            high_slot = rng.below(8) as usize;
        }
        out.push(JobDesc {
            spec,
            machine: MACHINES[rng.below(4) as usize],
            high: out.len() % 8 == high_slot,
            nonce: rng.nonce(),
        });
    }
    out
}
