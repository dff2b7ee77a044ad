//! Cross-crate verification of the Section 4 lower-bound states:
//! exact invariance (fixed points, 2-periodic orbits) and the claimed
//! discrepancy figures, over parameter sweeps.

use dlb::bounds::{thm41, thm42, thm43};
use dlb::core::{Engine, LoadVector, Run};
use dlb::graph::traversal::diameter;
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::harness::SchemeSpec;
use proptest::prelude::*;

#[test]
fn thm41_fixed_points_across_families() {
    let graphs = vec![
        ("cycle-20", generators::cycle(20).unwrap()),
        ("circulant-24", generators::circulant(24, &[1, 3]).unwrap()),
        ("hypercube-4", generators::hypercube(4).unwrap()),
        ("torus-5x5", generators::torus(2, 5).unwrap()),
        ("petersen", generators::petersen()),
    ];
    for (name, graph) in graphs {
        let diam = diameter(&graph).unwrap();
        let mut inst = thm41::instance(graph, 0).unwrap();
        assert!(
            inst.discrepancy() >= inst.guaranteed_discrepancy(),
            "{name}: {} < guarantee",
            inst.discrepancy()
        );
        // The guarantee is Ω(d·diam) with the eccentricity of the root;
        // the root's eccentricity is at least diam/2.
        assert!(u64::from(inst.radius) * 2 >= u64::from(diam), "{name}");
        let before = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(25)).unwrap();
        assert_eq!(engine.loads(), &before, "{name}: must be a fixed point");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn thm41_fixed_point_on_random_circulants(
        n in 12usize..64,
        root in 0usize..12,
    ) {
        let graph = generators::circulant(n, &[1, 2]).unwrap();
        let mut inst = thm41::instance(graph, root).unwrap();
        let before = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(10)).unwrap();
        prop_assert_eq!(engine.loads(), &before);
        prop_assert!(inst.discrepancy() >= inst.guaranteed_discrepancy());
    }

    #[test]
    fn thm43_orbits_on_odd_cycles(m in 2usize..40) {
        let n = 2 * m + 1;
        let mut inst = thm43::instance_on_cycle(n).unwrap();
        let phi = m as i64;
        prop_assert_eq!(inst.discrepancy(), 4 * phi - 1);
        let x0 = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.step(&mut inst.balancer).unwrap();
        let x1 = engine.loads().clone();
        prop_assert_ne!(&x1, &x0);
        engine.step(&mut inst.balancer).unwrap();
        prop_assert_eq!(engine.loads(), &x0);
        // Total load is the orbit average · n at both phases.
        prop_assert_eq!(x1.total(), x0.total());
    }

    #[test]
    fn thm43_levels_above_minimum_also_orbit(m in 2usize..12, extra in 0i64..20) {
        let n = 2 * m + 1;
        let level = m as i64 + extra;
        let graph = generators::cycle(n).unwrap();
        let mut inst = thm43::instance(graph, 0, level).unwrap();
        let x0 = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(2 * (m + 1))).unwrap();
        prop_assert_eq!(engine.loads(), &x0, "orbit must close at any valid L");
    }
}

#[test]
fn thm42_trap_and_escape_panel() {
    let inst = thm42::instance(48, 8).unwrap();
    let gp = inst.lazy_graph();
    let stuck = inst.stuck_discrepancy();

    // Deterministic stateless: exact fixed point.
    for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
        let mut bal = scheme.build(&gp).unwrap();
        let mut engine = Engine::new(gp.clone(), inst.initial.clone());
        engine.run(bal.as_mut(), Run::new(300)).unwrap();
        assert_eq!(engine.loads(), &inst.initial, "{}", scheme.label());
    }

    // Stateful deterministic: escapes.
    let mut rotor = SchemeSpec::RotorRouter.build(&gp).unwrap();
    let mut engine = Engine::new(gp.clone(), inst.initial.clone());
    engine.run(rotor.as_mut(), Run::new(300)).unwrap();
    assert!(engine.loads().discrepancy() < stuck);

    // Stateless randomized: escapes.
    let mut rnd = SchemeSpec::RandomizedExtra { seed: 23 }.build(&gp).unwrap();
    let mut engine = Engine::new(gp.clone(), inst.initial.clone());
    engine.run(rnd.as_mut(), Run::new(300)).unwrap();
    assert!(engine.loads().discrepancy() < stuck);
}

#[test]
fn thm43_orbit_requires_the_adversarial_state() {
    // From a *generic* state on the same bare odd cycle, the
    // rotor-router does not reproduce the orbit's stuck discrepancy —
    // the lower bound needs its adversarial initialisation.
    let n = 17;
    let inst = thm43::instance_on_cycle(n).unwrap();
    let gp = BalancingGraph::bare(generators::cycle(n).unwrap());
    let mut rotor = dlb::core::schemes::RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
    let total = inst.initial.total();
    let mut engine = Engine::new(gp, LoadVector::point_mass(n, total));
    engine.run(&mut rotor, Run::new(20_000)).unwrap();
    assert!(
        engine.loads().discrepancy() < inst.discrepancy(),
        "generic start ({}) should do better than the adversarial orbit ({})",
        engine.loads().discrepancy(),
        inst.discrepancy()
    );
}

#[test]
fn thm42_trap_degrees_sweep() {
    for d in [4usize, 6, 8, 12, 16] {
        let inst = thm42::instance(6 * d, d).unwrap();
        assert_eq!(inst.stuck_discrepancy(), (d / 2) as i64 - 1, "d = {d}");
        let gp = inst.lazy_graph();
        let mut bal = SchemeSpec::SendFloor.build(&gp).unwrap();
        let mut engine = Engine::new(gp, inst.initial.clone());
        engine.run(bal.as_mut(), Run::new(50)).unwrap();
        assert_eq!(engine.loads(), &inst.initial, "d = {d}");
    }
}
