//! Cross-crate property tests for the paper's class definitions:
//! Observations 2.2 and 3.2 and the potential lemmas 3.5/3.7, verified
//! by the runtime instrumentation over randomized instances.

use dlb::core::potential::PotentialTracker;
use dlb::core::{Engine, LoadVector, Run};
use dlb::graph::{generators, BalancingGraph};
use dlb::harness::SchemeSpec;
use proptest::prelude::*;

fn graph_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (6usize..28, 2usize..5, 0u64..500)
        .prop_filter("n*d even, d < n", |(n, d, _)| n * d % 2 == 0 && d < n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Observation 2.2: SEND(⌊x/d⁺⌋) and SEND([x/d⁺]) are cumulatively
    /// 0-fair; ROTOR-ROUTER is cumulatively 1-fair.
    #[test]
    fn observation_2_2_cumulative_fairness(
        (n, d, seed) in graph_params(),
        steps in 5usize..60,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::point_mass(n, 37 * n as i64);
        for (scheme, delta) in [
            (SchemeSpec::SendFloor, 0),
            (SchemeSpec::SendRound, 0),
            (SchemeSpec::RotorRouter, 1),
        ] {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.attach_monitor();
            engine.run(bal.as_mut(), Run::new(steps)).unwrap();
            prop_assert!(
                engine.monitor().unwrap().ledger().original_edge_spread() <= delta,
                "{} witnessed spread {} > δ = {delta}",
                scheme.label(),
                engine.monitor().unwrap().ledger().original_edge_spread()
            );
        }
    }

    /// Definition 2.1 (i): every edge receives at least ⌊x/d⁺⌋, for all
    /// cumulatively fair schemes.
    #[test]
    fn definition_2_1_floor_condition(
        (n, d, seed) in graph_params(),
        steps in 5usize..60,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::point_mass(n, 41 * n as i64);
        for scheme in [
            SchemeSpec::SendFloor,
            SchemeSpec::SendRound,
            SchemeSpec::RotorRouter,
            SchemeSpec::RotorRouterStar,
            SchemeSpec::Good { s: 2 },
        ] {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.attach_monitor();
            engine.run(bal.as_mut(), Run::new(steps)).unwrap();
            prop_assert_eq!(
                engine.monitor().unwrap().floor_violations(), 0,
                "{} starved an edge", scheme.label()
            );
        }
    }

    /// Definition 3.1 / Observation 3.2: the good balancers are
    /// round-fair and s-self-preferring at their declared s.
    #[test]
    fn observation_3_2_good_balancers(
        (n, d, seed) in graph_params(),
        steps in 5usize..60,
        s in 1usize..3,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::with_self_loops(graph, 2 * d).unwrap();
        let initial = LoadVector::point_mass(n, 43 * n as i64);
        let scheme = SchemeSpec::Good { s };
        let mut bal = scheme.build(&gp).unwrap();
        let mut engine = Engine::new(gp.clone(), initial.clone());
        engine.attach_monitor();
        engine.run(bal.as_mut(), Run::new(steps)).unwrap();
        let m = engine.monitor().unwrap();
        prop_assert_eq!(m.round_violations(), 0);
        if let Some(witnessed) = m.witnessed_s() {
            prop_assert!(
                witnessed >= s as u64,
                "declared s = {s} but witnessed only {witnessed}"
            );
        }
        prop_assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
    }

    /// Lemmas 3.5 and 3.7: the potentials φ and φ′ are non-increasing
    /// under good s-balancers, for arbitrary thresholds c.
    #[test]
    fn lemmas_3_5_and_3_7_potential_monotonicity(
        (n, d, seed) in graph_params(),
        c in 1i64..20,
        s in 1usize..3,
        steps in 10usize..80,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let d_plus = gp.degree_plus();
        let initial = LoadVector::point_mass(n, 29 * n as i64);
        let scheme = SchemeSpec::Good { s };
        let mut bal = scheme.build(&gp).unwrap();
        let mut engine = Engine::new(gp.clone(), initial.clone());
        let mut tracker = PotentialTracker::new(c, d_plus, s);
        tracker.sample(engine.loads());
        for _ in 0..steps {
            engine.step(bal.as_mut()).unwrap();
            tracker.sample(engine.loads());
        }
        prop_assert!(tracker.phi_monotone(), "φ increased (Lemma 3.5 violated)");
        prop_assert!(tracker.phi_prime_monotone(), "φ′ increased (Lemma 3.7 violated)");
    }

    /// Rotor-router is cumulatively 1-fair across *all* ports (stronger
    /// than Definition 2.1, which only asks it on original edges).
    #[test]
    fn rotor_router_is_fair_on_all_ports(
        (n, d, seed) in graph_params(),
        steps in 5usize..60,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let d_plus = gp.degree_plus();
        let initial = LoadVector::point_mass(n, 31 * n as i64);
        let mut bal = SchemeSpec::RotorRouter.build(&gp).unwrap();
        let mut engine = Engine::new(gp.clone(), initial);
        engine.attach_monitor();
        engine.run(bal.as_mut(), Run::new(steps)).unwrap();
        for u in 0..n {
            let totals = engine.monitor().unwrap().ledger().node(u);
            let max = totals.iter().max().unwrap();
            let min = totals.iter().min().unwrap();
            prop_assert!(max - min <= 1, "node {u}: all-port spread {} > 1", max - min);
            prop_assert_eq!(totals.len(), d_plus);
        }
    }
}

/// Lemma 3.5's monotonicity is a property of good s-balancers, not of
/// balancing in general — schemes outside the class do violate it
/// (sanity check that the property test above is not vacuous).
#[test]
fn potential_monotonicity_is_not_universal() {
    let graph = generators::cycle(8).unwrap();
    let gp = BalancingGraph::lazy(graph);
    let d_plus = gp.degree_plus();
    let schemes = [
        SchemeSpec::RandomizedExtra { seed: 3 },
        SchemeSpec::RandomizedRounding { seed: 3 },
        SchemeSpec::ContinuousMimic,
    ];
    let mut any_violation = false;
    'outer: for scheme in schemes {
        for c in 0..30 {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(8, 801));
            let mut tracker = PotentialTracker::new(c, d_plus, 1);
            tracker.sample(engine.loads());
            for _ in 0..60 {
                engine.step(bal.as_mut()).unwrap();
                tracker.sample(engine.loads());
            }
            if !tracker.phi_monotone() {
                any_violation = true;
                break 'outer;
            }
        }
    }
    assert!(
        any_violation,
        "expected a φ monotonicity violation outside the good-balancer class"
    );
}
