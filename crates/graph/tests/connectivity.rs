//! Oracle property tests for [`dlb_graph::DynamicConnectivity`]: on
//! long random swap/sleep/wake sequences over all five graph families
//! (the cycles included, where the spanning forest degenerates), the
//! incrementally maintained structure must agree with the from-scratch
//! BFS oracle [`traversal::is_connected`] after **every** event and
//! after **every** undo — including the apply-then-roll-back probing
//! the topology generators do on rejected candidates.

use dlb_graph::{generators, traversal, DynamicConnectivity, RegularGraph, TopologyEvent};
use proptest::prelude::*;

/// The five generator families at a parameterised size (`pick ∈ 0..5`),
/// mirroring the other property suites.
fn family_graph(pick: usize, size: usize, seed: u64) -> RegularGraph {
    match pick {
        0 => generators::cycle(4 + size).unwrap(),
        1 => generators::torus(2, 3 + size % 8).unwrap(),
        2 => generators::hypercube(2 + size % 6).unwrap(),
        3 => generators::clique_circulant(12 + 2 * (size % 12), 4).unwrap(),
        _ => {
            let n = 10 + 2 * (size % 40);
            generators::random_regular(n, 4, seed).unwrap()
        }
    }
}

/// A deterministic splitmix-style word stream for candidate draws
/// (proptest supplies the seed; the tape itself must be cheap).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws one simple swap candidate against `g`; `None` if the draw is
/// rejected (the caller just draws again).
fn draw_candidate(g: &RegularGraph, state: &mut u64) -> Option<(usize, usize, usize, usize)> {
    let n = g.num_nodes();
    let deg = g.degree();
    let a = (mix(state) % n as u64) as usize;
    let b = g.neighbor(a, (mix(state) % deg as u64) as usize);
    let c = (mix(state) % n as u64) as usize;
    let d = g.neighbor(c, (mix(state) % deg as u64) as usize);
    let simple = a != c && a != d && b != c && b != d && !g.has_edge(a, c) && !g.has_edge(b, d);
    simple.then_some((a, b, c, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every applied event (swap, sleep, wake), every undone
    /// event, and every rejected-candidate rollback, the structure's
    /// `is_connected` equals the BFS oracle's answer on the mutated
    /// graph — on all five families.
    #[test]
    fn agrees_with_bfs_oracle_through_events_and_undos(
        pick in 0usize..5,
        size in 0usize..32,
        seed in 0u64..40,
        events in 20usize..60,
    ) {
        let mut g = family_graph(pick, size, seed);
        let mut dc = DynamicConnectivity::new(&g);
        prop_assert_eq!(dc.is_connected(), traversal::is_connected(&g));
        let mut state = seed ^ 0xabcd_ef01_2345_6789;
        let mut applied: Vec<TopologyEvent> = Vec::new();
        let mut emitted = 0usize;
        let mut draws = 0usize;
        while emitted < events && draws < events * 64 {
            draws += 1;
            match mix(&mut state) % 8 {
                // Mostly swaps; sleep/wake sprinkled in. They leave the
                // adjacency alone, so they apply to the graph only and
                // the BFS oracle must not move either.
                0 => {
                    let node = (mix(&mut state) % g.num_nodes() as u64) as usize;
                    let ev = if g.is_awake(node) {
                        TopologyEvent::Sleep { node }
                    } else {
                        TopologyEvent::Wake { node }
                    };
                    g.apply_event(&ev).unwrap();
                    applied.push(ev);
                }
                1..=5 => {
                    let Some((a, b, c, d)) = draw_candidate(&g, &mut state) else {
                        continue;
                    };
                    g.apply_swap(a, b, c, d).unwrap();
                    dc.apply_swap(a, b, c, d);
                    applied.push(TopologyEvent::Swap { a, b, c, d });
                }
                _ => {
                    // Rejected-candidate probing: apply a swap, check,
                    // roll it straight back — exactly the generators'
                    // validation pattern on a reject. The one-shot
                    // accept query must agree with the oracle on the
                    // post-swap graph even when the *current* graph is
                    // already disconnected mid-tape.
                    let Some((a, b, c, d)) = draw_candidate(&g, &mut state) else {
                        continue;
                    };
                    let accept_verdict = dc.would_leave_disconnected(a, b, c, d);
                    dc.apply_swap(a, b, c, d);
                    g.apply_swap(a, b, c, d).unwrap();
                    prop_assert_eq!(accept_verdict, !traversal::is_connected(&g));
                    prop_assert_eq!(dc.is_connected(), traversal::is_connected(&g));
                    dc.undo_swap(a, b, c, d);
                    g.apply_swap(a, c, b, d).unwrap();
                }
            }
            emitted += 1;
            prop_assert_eq!(
                dc.is_connected(),
                traversal::is_connected(&g),
                "divergence after event {} (family {}, size {})",
                emitted, pick, size
            );
        }
        // Unwind the whole tape; the structure must track every undo.
        for ev in applied.iter().rev() {
            g.apply_event(&ev.inverted()).unwrap();
            if let TopologyEvent::Swap { a, b, c, d } = *ev {
                dc.undo_swap(a, b, c, d);
            }
            prop_assert_eq!(dc.is_connected(), traversal::is_connected(&g));
        }
        prop_assert!(dc.is_connected() == traversal::is_connected(&g));
    }

    /// `would_disconnect` is a pure query: it answers exactly what the
    /// oracle says about the post-swap graph and leaves the structure's
    /// verdict on the *current* graph unchanged.
    #[test]
    fn would_disconnect_matches_oracle_and_is_pure(
        pick in 0usize..5,
        size in 0usize..32,
        seed in 0u64..40,
    ) {
        let mut g = family_graph(pick, size, seed);
        // `would_disconnect` reports a component-count increase; on an
        // already-split graph that is not the same thing as the
        // post-swap graph being disconnected.
        prop_assume!(traversal::is_connected(&g));
        let mut dc = DynamicConnectivity::new(&g);
        let mut state = seed ^ 0x5a5a_5a5a_5a5a_5a5a;
        let mut checked = 0usize;
        for _ in 0..512 {
            if checked >= 12 {
                break;
            }
            let Some((a, b, c, d)) = draw_candidate(&g, &mut state) else {
                continue;
            };
            checked += 1;
            let before = dc.is_connected();
            g.apply_swap(a, b, c, d).unwrap();
            let oracle = !traversal::is_connected(&g);
            g.apply_swap(a, c, b, d).unwrap();
            prop_assert_eq!(dc.would_disconnect(a, b, c, d), oracle);
            prop_assert_eq!(dc.is_connected(), before, "query must not mutate the verdict");
        }
    }
}
