//! Pins the event streams of the swap-emitting schedules on rings.
//!
//! Each constant is an FNV-1a hash of every emitted swap (round and
//! endpoints) plus the schedule's final [`SwapShortfall`] counters, so
//! a change to how candidates are validated that moves one RNG draw or
//! one accept/reject decision changes the hash. The period/swap mix is
//! the one the serve-fleet benchmark gives its rewiring tenants.
//!
//! [`SwapShortfall`]: dlb_topology::SwapShortfall

use dlb_graph::{generators, traversal, RegularGraph, TopologyEvent};
use dlb_topology::schedules::{AdversarialCut, PeriodicRewiring};
use dlb_topology::TopologySchedule;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Runs `schedule` for `rounds` rounds on `graph`, applying what it
/// emits, and folds every swap and the final shortfall into `hash`.
/// Returns the number of swaps emitted.
fn fold_stream(
    hash: &mut u64,
    schedule: &mut dyn TopologySchedule,
    graph: &mut RegularGraph,
    rounds: usize,
) -> usize {
    let mut out = Vec::new();
    let mut emitted = 0;
    for round in 1..=rounds {
        out.clear();
        schedule.events(round, graph, &mut out);
        for ev in &out {
            graph.apply_event(ev).expect("emitted events must apply");
            let TopologyEvent::Swap { a, b, c, d } = *ev else {
                panic!("a swap schedule emitted {ev:?}");
            };
            for word in [round, a, b, c, d] {
                mix(hash, word as u64);
            }
        }
        emitted += out.len();
    }
    if let Some(sf) = schedule.swap_shortfall() {
        for word in [
            sf.requested,
            sf.emitted,
            sf.simplicity_rejects,
            sf.connectivity_rejects,
        ] {
            mix(hash, word);
        }
    }
    emitted
}

/// Every (period, swaps) pair a serve-fleet rewiring tenant can draw,
/// each under two seeds, for 256 rounds from `start`.
fn periodic_hash(start: &RegularGraph) -> u64 {
    let mut hash = FNV_OFFSET;
    for period in 3..=6 {
        for swaps in 1..=2 {
            for seed in [41u64, 0x9e37_79b9_7f4a_7c15 ^ period as u64] {
                let mut graph = start.clone();
                let mut s = PeriodicRewiring::new(period, swaps, seed);
                assert!(fold_stream(&mut hash, &mut s, &mut graph, 256) > 0);
                let connected = traversal::is_connected(&graph);
                assert!(connected || !traversal::is_connected(start));
                mix(&mut hash, u64::from(connected));
            }
        }
    }
    hash
}

/// Two disjoint `half`-cycles on `0..half` and `half..2·half`.
fn two_rings(half: usize) -> RegularGraph {
    let ring = |u: usize, base: usize| {
        let i = u - base;
        [
            (base + (i + half - 1) % half) as u32,
            (base + (i + 1) % half) as u32,
        ]
    };
    let adjacency = (0..2 * half)
        .flat_map(|u| ring(u, if u < half { 0 } else { half }))
        .collect();
    RegularGraph::from_adjacency(2 * half, 2, adjacency).unwrap()
}

#[test]
fn periodic_rewiring_streams_on_cycles_are_pinned() {
    let pins = [
        (8, 0xd094_f84a_db89_23cdu64),
        (16, 0xec19_ea24_22ce_4b43),
        (24, 0x5fbc_b02e_8746_594b),
        (64, 0x7eb9_31c2_8cf6_91f5),
        (1024, 0xdc5b_c26a_1636_6c2c),
    ];
    let hashes: Vec<(usize, u64)> = pins
        .iter()
        .map(|&(n, _)| (n, periodic_hash(&generators::cycle(n).unwrap())))
        .collect();
    let shown: Vec<String> = hashes
        .iter()
        .map(|(n, h)| format!("{n}: {h:#018x}"))
        .collect();
    assert_eq!(hashes, pins, "cycle stream hashes {shown:?}");
}

#[test]
fn periodic_rewiring_stream_from_two_rings_is_pinned() {
    // The graph starts disconnected, so the only swaps the schedule
    // accepts merge the two rings into one.
    let hash = periodic_hash(&two_rings(12));
    assert_eq!(hash, 0xddca_c7a7_da4d_cef4, "stream hash {hash:#018x}");
}

#[test]
fn adversarial_cut_streams_on_cycle_64_are_pinned() {
    let mut hash = FNV_OFFSET;
    // The plain cycle has two cut edges, and swapping them splits it.
    let mut graph = generators::cycle(64).unwrap();
    let mut cut = AdversarialCut::new(1);
    assert_eq!(fold_stream(&mut hash, &mut cut, &mut graph, 32), 0);
    mix(&mut hash, cut.probes());
    // A cycle scrambled by rewiring crosses the bisection many times.
    let mut graph = generators::cycle(64).unwrap();
    fold_stream(
        &mut hash,
        &mut PeriodicRewiring::new(1, 2, 7),
        &mut graph,
        64,
    );
    let mut cut = AdversarialCut::new(2);
    let thinned = fold_stream(&mut hash, &mut cut, &mut graph, 64);
    assert!(thinned > 0, "the scrambled cycle's cut must thin");
    mix(&mut hash, cut.probes());
    assert!(traversal::is_connected(&graph));
    assert_eq!(hash, 0x35a7_60b6_1046_6b10, "stream hash {hash:#018x}");
}
