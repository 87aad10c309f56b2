//! The seeded planes behind `rfvsim --inject` and `rfvd --chaos`, and
//! the retry client's nonce stream, pinned bit for bit: a seed must
//! place the same faults and mint the same nonces on every build.
//! Plus spec totality: any string is a plan or a typed error, never a
//! panic, and a plan's summary is a spec for the same plan.

use rfv_sim::faults::Kind;
use rfv_sim::FaultPlan;
use rfvd::chaos::{ChaosInjector, ChaosKind, ChaosPlan};
use rfvd::client::{ResilientClient, RetryPolicy};

#[test]
fn chaos_sequences_are_pinned() {
    let inj = ChaosInjector::new(ChaosPlan::parse("all:0.3", 11).unwrap());
    // bit i set = the kind's i-th draw fired
    let draws = ChaosKind::ALL
        .map(|k| (0..128).fold(0u128, |bits, i| bits | u128::from(inj.should_fire(k)) << i));
    assert_eq!(
        draws,
        [
            0x87c4_0596_12b9_9358_c840_3080_1588_0418,
            0x1a35_8d80_007a_8a80_6000_0090_8e68_02a0,
            0xc9a4_8890_a26b_0241_03c0_3347_600a_80af,
            0x1085_2c40_b305_d058_cf6a_0088_0089_cb27,
            0x1800_3847_01f0_7092_0481_c291_0280_9c0a,
            0x3020_2008_0e22_0003_480c_0801_619a_c3a1,
            0x3204_9640_8c03_8400_1808_5222_0c19_21b0,
            0x85c7_008a_5644_7228_2c58_ac17_318a_0480,
            0x80f3_d232_5206_00e1_a023_a813_0de8_3216,
            0x04a7_0a90_4420_0445_ac30_810a_8d02_284e,
        ]
    );
    assert_eq!(inj.fired(ChaosKind::DiskTorn), 45);
    assert_eq!(inj.fired(ChaosKind::NetReset), 45);
    let rolls = ChaosKind::ALL.map(|k| inj.roll(k, 1000));
    assert_eq!(rolls, [779, 781, 116, 30, 132, 75, 27, 978, 497, 802]);
}

#[test]
fn client_nonces_are_pinned() {
    let mut c = ResilientClient::seeded("127.0.0.1:1", None, RetryPolicy::default(), 7);
    let nonces: Vec<u64> = (0..4).map(|_| c.nonce()).collect();
    assert_eq!(
        nonces,
        [
            7_191_089_600_892_374_487,
            309_689_372_594_955_804,
            16_616_101_746_815_609_346,
            10_753_165_928_301_472_203,
        ]
    );
}

/// Spec heads: every kind name on both planes, and the wildcard.
const NAMES: [&str; 18] = [
    "premature-release",
    "dropped-release",
    "pir-flip",
    "pbr-flip",
    "rename-corrupt",
    "stale-flag-hit",
    "spill-loss",
    "disk_eio",
    "disk_enospc",
    "disk_fsync",
    "disk_torn",
    "disk_short",
    "net_short_read",
    "net_short_write",
    "net_reset",
    "net_accept",
    "net_stall",
    "all",
];

/// Value pieces: number characters, separators, blanks, non-ASCII and
/// kind-name fragments.
const PIECES: [&str; 21] = [
    "0", "1", "2", "5", "9", "65535", "0.", ".", "e", "-", "+", " ", "\t", "é", "→", ":", ",",
    "all", "disk_", "-release", "flip",
];

/// 20,000 seeded specs of one to three `name[:value]` entries, each
/// value spliced from one to three pieces: a good share parse, and
/// the rest fail in every way a spec can.
fn specs() -> Vec<String> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |n: usize| {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    (0..20_000)
        .map(|_| {
            let mut spec = String::new();
            for entry in 0..1 + next(3) {
                if entry > 0 {
                    spec.push(',');
                }
                spec.push_str(NAMES[next(NAMES.len())]);
                if next(4) > 0 {
                    spec.push(':');
                    for _ in 0..1 + next(3) {
                        spec.push_str(PIECES[next(PIECES.len())]);
                    }
                }
            }
            spec
        })
        .collect()
}

#[test]
fn specs_are_total_and_fault_summaries_round_trip() {
    let (mut faults_ok, mut chaos_ok) = (0, 0);
    for spec in specs() {
        if let Ok(plan) = FaultPlan::parse(&spec, 9) {
            faults_ok += 1;
            if plan.is_empty() {
                assert_eq!(plan.summary(), "none", "{spec:?}");
            } else {
                assert_eq!(FaultPlan::parse(&plan.summary(), 9), Ok(plan), "{spec:?}");
            }
        }
        if ChaosPlan::parse(&spec, 9).is_ok() {
            chaos_ok += 1;
        }
    }
    // the round trip above is not vacuous
    assert!(faults_ok > 1_000, "{faults_ok} fault specs parsed");
    assert!(chaos_ok > 1_000, "{chaos_ok} chaos specs parsed");
}

#[test]
fn chaos_summary_is_a_spec_for_the_same_plan() {
    let plan = ChaosPlan::parse("disk_torn:0.05,net_reset:0.05", 11).unwrap();
    assert_eq!(plan.summary(), "disk_torn:0.05,net_reset:0.05");
    assert_eq!(ChaosPlan::none().summary(), "none");
    for spec in specs() {
        if let Ok(plan) = ChaosPlan::parse(&spec, 9) {
            if plan.is_empty() {
                assert_eq!(plan.summary(), "none", "{spec:?}");
            } else {
                assert_eq!(ChaosPlan::parse(&plan.summary(), 9), Ok(plan), "{spec:?}");
            }
        }
    }
}
