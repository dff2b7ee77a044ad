//! Hostile-input contract of the two serving formats: a byte-mutated
//! `DLBSNAP1` snapshot or `DLBJRNL1` journal either decodes or returns
//! an error — it never panics, aborts or hangs — a snapshot that
//! decodes and resumes also runs a few rounds without panicking, and a
//! journal that decodes also replays to `Ok` or `Err`, within the
//! replay round budget.
//!
//! The mutations start from valid bytes of churning, injecting tenants
//! and flip bits, truncate, extend, and overwrite 4- and 8-byte fields
//! with extreme values: once exhaustively at every offset, and as
//! random stacks through the vendored proptest.

use dlb_core::LoadVector;
use dlb_graph::{generators, BalancingGraph};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{Journal, SchemeKind, Tenant, TenantError, TenantSnapshot, WINDOW};
use dlb_topology::ScheduleSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Extreme 4-byte field values: both ends of `u32` and `i32`.
const EXTREMES_32: [u32; 6] = [0, 1, 2, 0x7fff_ffff, 0x8000_0000, u32::MAX];

/// Extreme 8-byte field values: both ends of `u64` and `i64`, and the
/// 32-bit boundaries.
const EXTREMES_64: [u64; 8] = [
    0,
    1,
    u32::MAX as u64,
    1 << 32,
    i64::MAX as u64,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

/// Tenants whose snapshots and journals seed the mutations: a
/// rotor-router under full churn (swaps plus sleeping nodes) and bursty
/// arrivals, a closed SEND tenant that takes the vector path, and a
/// ROTOR-ROUTER* tenant under churn and steady arrivals, whose mutated
/// snapshots resume the kernel with forged inner-rotor words.
fn seed_tenants() -> Vec<Tenant> {
    let churning = Tenant::new(
        BalancingGraph::lazy(generators::cycle(12).unwrap()),
        LoadVector::point_mass(12, 240),
        SchemeKind::RotorRouter,
        Some(WorkloadSpec::Bursty {
            on: 2,
            off: 1,
            rate: 6,
            seed: 4,
        }),
        ScheduleSpec::Churn {
            period: 2,
            swaps: 1,
            fail_pct: 30,
            max_down: 2,
            seed: 8,
        },
    )
    .unwrap();
    let closed = Tenant::new(
        BalancingGraph::lazy(generators::torus(2, 4).unwrap()),
        LoadVector::point_mass(16, 320),
        SchemeKind::SendFloor,
        None,
        ScheduleSpec::Static,
    )
    .unwrap();
    let star = Tenant::new(
        BalancingGraph::lazy(generators::cycle(10).unwrap()),
        LoadVector::point_mass(10, 230),
        SchemeKind::RotorRouterStar,
        Some(WorkloadSpec::Steady { rate: 5, seed: 3 }),
        ScheduleSpec::Churn {
            period: 3,
            swaps: 1,
            fail_pct: 30,
            max_down: 2,
            seed: 6,
        },
    )
    .unwrap();
    let mut tenants = vec![churning, closed, star];
    for t in &mut tenants {
        assert!(t.run_rounds(5));
        assert!(t.run_rounds(4));
    }
    tenants
}

/// Valid bytes of the seed tenants.
struct Seeds {
    snapshots: Vec<Vec<u8>>,
    journals: Vec<Vec<u8>>,
}

/// The seed bytes, built once.
fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let tenants = seed_tenants();
        Seeds {
            snapshots: tenants.iter().map(Tenant::snapshot).collect(),
            journals: tenants
                .iter()
                .map(|t| t.journal().as_bytes().to_vec())
                .collect(),
        }
    })
}

/// Feeds snapshot bytes through every consumer: decode, resume, and
/// four rounds of a resumed tenant. Returns whether it resumed.
fn exercise_snapshot(bytes: &[u8]) -> bool {
    let decoded = TenantSnapshot::decode(bytes);
    let resumed = Tenant::resume_from_snapshot(bytes);
    assert!(
        decoded.is_ok() || resumed.is_err(),
        "a snapshot that fails to decode must not resume"
    );
    match resumed {
        Ok(mut tenant) => {
            tenant.run_rounds(4);
            true
        }
        Err(_) => false,
    }
}

/// Feeds journal bytes through adoption, decoding and replay, which
/// must return (`Ok` or `Err`) without panicking.
fn exercise_journal(bytes: Vec<u8>) {
    if let Ok(journal) = Journal::from_bytes(bytes) {
        journal.decode().expect("an adopted journal decodes again");
        let _ = Tenant::replay(&journal);
    }
}

fn overwrite(bytes: &[u8], at: usize, field: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let end = (at + field.len()).min(out.len());
    out[at..end].copy_from_slice(&field[..end - at]);
    out
}

/// Every 4- and 8-byte window of every seed, overwritten with every
/// extreme, plus every single-bit flip and every truncation.
#[test]
fn every_field_overwrite_bit_flip_and_cut_is_handled() {
    let Seeds {
        snapshots,
        journals,
    } = seeds();
    let mut resumed = 0usize;
    let mut variants = 0usize;
    for (bytes, is_snapshot) in snapshots
        .iter()
        .map(|b| (b, true))
        .chain(journals.iter().map(|b| (b, false)))
    {
        let mut check = |mutant: Vec<u8>| {
            variants += 1;
            if is_snapshot {
                resumed += usize::from(exercise_snapshot(&mutant));
            } else {
                exercise_journal(mutant);
            }
        };
        for at in 0..bytes.len() {
            for v in EXTREMES_32 {
                check(overwrite(bytes, at, &v.to_le_bytes()));
            }
            for v in EXTREMES_64 {
                check(overwrite(bytes, at, &v.to_le_bytes()));
            }
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                check(flipped);
            }
            check(bytes[..at].to_vec());
        }
    }
    // The sweep must reach the resume-and-run path, not stop at decode.
    assert!(resumed > 0, "no mutant of {variants} resumed");
}

/// Applies one mutation: `kind` picks flip / truncate / extend /
/// 4-byte overwrite / 8-byte overwrite at `pos` (modulo the length).
fn mutate(bytes: &mut Vec<u8>, (kind, pos, pick, tail): (u8, usize, usize, Vec<u16>)) {
    if bytes.is_empty() {
        return;
    }
    let at = pos % bytes.len();
    match kind {
        0 => bytes[at] ^= 1 << (pick % 8),
        1 => bytes.truncate(at),
        2 => bytes.extend(tail.iter().map(|&b| b as u8)),
        3 => {
            *bytes = overwrite(
                bytes,
                at,
                &EXTREMES_32[pick % EXTREMES_32.len()].to_le_bytes(),
            )
        }
        _ => {
            *bytes = overwrite(
                bytes,
                at,
                &EXTREMES_64[pick % EXTREMES_64.len()].to_le_bytes(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random stacks of one to four mutations on each seed snapshot.
    #[test]
    fn mutated_snapshots_decode_or_error(
        which in 0usize..3,
        ops in proptest::collection::vec(
            (0u8..5, 0usize..1 << 16, 0usize..64, proptest::collection::vec(0u16..256, 1..24)),
            1..5,
        ),
    ) {
        let mut bytes = seeds().snapshots[which].clone();
        for op in ops {
            mutate(&mut bytes, op);
        }
        exercise_snapshot(&bytes);
    }

    /// Random stacks of one to four mutations on each seed journal.
    #[test]
    fn mutated_journals_decode_or_error(
        which in 0usize..3,
        ops in proptest::collection::vec(
            (0u8..5, 0usize..1 << 16, 0usize..64, proptest::collection::vec(0u16..256, 1..24)),
            1..5,
        ),
    ) {
        let mut bytes = seeds().journals[which].clone();
        for op in ops {
            mutate(&mut bytes, op);
        }
        exercise_journal(bytes);
    }
}

/// A churning tenant run past two checkpoints, so its journal's base is
/// a spliced-in checkpoint and its records span more than `WINDOW`
/// rounds.
fn windowed_journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let mut tenant = seed_tenants().swap_remove(0);
        assert!(tenant.run_rounds(2 * WINDOW));
        assert_eq!(tenant.checkpoints(), 2);
        let bytes = tenant.journal().as_bytes().to_vec();
        let contents = Journal::from_bytes(bytes.clone())
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(contents.base.engine.step, WINDOW);
        bytes
    })
}

/// Appends a forged advance record asking replay to run through
/// `through_round`.
fn with_horizon(bytes: &[u8], through_round: u64) -> Journal {
    let mut forged = bytes.to_vec();
    forged.push(1);
    forged.extend_from_slice(&through_round.to_le_bytes());
    Journal::from_bytes(forged).expect("an advance record decodes")
}

/// A forged horizon more than `2·WINDOW` rounds past the base is
/// refused with the typed budget error before any round runs; one at
/// exactly `2·WINDOW` still replays.
#[test]
fn forged_horizons_past_the_budget_are_refused() {
    let journals = seeds().journals.iter().map(Vec::as_slice);
    for bytes in journals.chain([windowed_journal()]) {
        let base = Journal::from_bytes(bytes.to_vec())
            .unwrap()
            .decode()
            .unwrap()
            .base
            .engine
            .step as u64;
        let budget = 2 * WINDOW as u64;
        for through in [base + budget + 1, u64::MAX] {
            let err = Tenant::replay(&with_horizon(bytes, through)).unwrap_err();
            assert_eq!(
                err,
                TenantError::ReplayBudget {
                    base_round: base,
                    through_round: through,
                }
            );
        }
        let replayed = Tenant::replay(&with_horizon(bytes, base + budget)).unwrap();
        assert_eq!(replayed.step as u64, base + budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random stacks of one to four mutations on a windowed journal,
    /// whose base is a spliced-in checkpoint.
    #[test]
    fn mutated_windowed_journals_replay_or_error(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..1 << 16, 0usize..64, proptest::collection::vec(0u16..256, 1..24)),
            1..5,
        ),
    ) {
        let mut bytes = windowed_journal().to_vec();
        for op in ops {
            mutate(&mut bytes, op);
        }
        exercise_journal(bytes);
    }
}

/// The fresh journal of a closed SEND tenant on a lazy 8-cycle with 4
/// tokens per node, for forging records onto.
fn closed_journal() -> Vec<u8> {
    let tenant = Tenant::new(
        BalancingGraph::lazy(generators::cycle(8).unwrap()),
        LoadVector::uniform(8, 4),
        SchemeKind::SendFloor,
        None,
        ScheduleSpec::Static,
    )
    .unwrap();
    tenant.journal().as_bytes().to_vec()
}

/// A replayed round that sleeps a loaded node next to a node injected
/// with `i64::MAX` hands its tokens over into an overflowing delta.
/// Found by replaying mutated journals: the handoff used to panic with
/// an add overflow in debug builds (and wrap in release). Replay must
/// stop the round with the typed injection-overflow error.
#[test]
fn replayed_handoff_past_i64_is_an_error_not_a_panic() {
    let mut bytes = closed_journal();
    // Round 1: one event (sleep node 1), one delta (node 0, i64::MAX).
    bytes.push(0);
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(2);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&i64::MAX.to_le_bytes());
    let replayed = Tenant::replay(&Journal::from_bytes(bytes).unwrap()).unwrap();
    assert_eq!(
        replayed.error,
        Some(dlb_core::EngineError::InjectionOverflow { node: 0, step: 1 })
    );
    assert_eq!(replayed.step, 0);
    assert_eq!(replayed.loads, vec![4; 8]);
}

/// A forged round record listing one node twice, with deltas
/// `i64::MAX` and 1, made replay sum them into an add overflow that
/// panicked in debug builds. Delta nodes must ascend, as recorded, so
/// the journal is rejected at the repeated node.
#[test]
fn repeated_delta_nodes_are_rejected_not_summed_past_i64() {
    let mut bytes = closed_journal();
    // Round 1: no events, deltas (0, i64::MAX) and (0, 1).
    bytes.push(0);
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&i64::MAX.to_le_bytes());
    let repeat_at = bytes.len();
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&1i64.to_le_bytes());
    let err = Journal::from_bytes(bytes).unwrap_err();
    assert_eq!(err.offset, repeat_at, "{err}");
    assert!(err.reason.contains("out of order"), "{err}");
}
