//! Cross-crate property tests: token conservation under every scheme.
//!
//! The single most fundamental invariant of the model (§1.3: "the total
//! load summed over all nodes does not change over time"), checked by
//! proptest across random graphs, random initial loads, random
//! self-loop counts and every scheme in the library — and its
//! open-system generalisation: with a workload injecting signed deltas
//! every round, the total after `t` rounds equals the initial total
//! plus the workload's cumulative delta, on every execution path.

use dlb::core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb::core::{Engine, LoadVector, Path, Run, Workload};
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::harness::SchemeSpec;
use dlb::scenario::WorkloadSpec;
use proptest::prelude::*;

/// Strategy: a connected-ish random regular graph spec (n, d, seed).
fn graph_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (4usize..32, 2usize..5, 0u64..1000).prop_filter("n*d must be even and d < n", |(n, d, _)| {
        n * d % 2 == 0 && d < n
    })
}

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
        SchemeSpec::RotorRouterStar,
        SchemeSpec::Good { s: 1 },
        SchemeSpec::RoundFairFirstPorts,
        SchemeSpec::RoundFairRandom { seed: 5 },
        SchemeSpec::RoundFairLagged { period: 3 },
        SchemeSpec::Quasirandom,
        SchemeSpec::ContinuousMimic,
        SchemeSpec::RandomizedExtra { seed: 5 },
        SchemeSpec::RandomizedRounding { seed: 5 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_scheme_conserves_tokens(
        (n, d, seed) in graph_params(),
        loads in proptest::collection::vec(0i64..200, 4..32),
        steps in 1usize..40,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let mut initial = vec![0i64; n];
        for (slot, &value) in initial.iter_mut().zip(loads.iter().cycle().take(n)) {
            *slot = value;
        }
        let initial = LoadVector::new(initial);
        let total = initial.total();
        for scheme in all_schemes() {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), Run::new(steps)).unwrap();
            prop_assert_eq!(
                engine.loads().total(), total,
                "{} lost tokens on n={} d={} seed={}", scheme.label(), n, d, seed
            );
        }
    }

    #[test]
    fn non_overdrawing_schemes_never_go_negative(
        (n, d, seed) in graph_params(),
        steps in 1usize..40,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::point_mass(n, 50 * n as i64);
        for scheme in all_schemes() {
            let mut bal = scheme.build(&gp).unwrap();
            if bal.may_overdraw() {
                continue;
            }
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), Run::new(steps)).unwrap();
            prop_assert_eq!(
                engine.negative_node_steps(), 0,
                "{} went negative", scheme.label()
            );
        }
    }

    #[test]
    fn discrepancy_never_increases_above_initial_by_much(
        (n, d, seed) in graph_params(),
        steps in 1usize..60,
    ) {
        // Not a theorem — but a strong smoke invariant: from a point
        // mass, no scheme should ever *worsen* the discrepancy.
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let k = 50 * n as i64;
        let initial = LoadVector::point_mass(n, k);
        for scheme in all_schemes() {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), Run::new(steps)).unwrap();
            prop_assert!(
                engine.loads().discrepancy() <= k,
                "{} worsened the discrepancy", scheme.label()
            );
        }
    }
}

/// Wraps a workload and independently accumulates the cumulative signed
/// delta it emitted, so the conservation law can be checked against a
/// second source of truth rather than the engine's own counter alone.
struct Recording {
    inner: Box<dyn Workload>,
    cumulative: i64,
}

impl Recording {
    fn new(inner: Box<dyn Workload>) -> Self {
        Recording {
            inner,
            cumulative: 0,
        }
    }
}

impl Workload for Recording {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        self.inner.inject(round, loads, deltas);
        self.cumulative += deltas.iter().sum::<i64>();
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.cumulative = 0;
    }
}

/// The error-free workload mix (clamped drains only): these runs must
/// complete, so the recorded cumulative delta covers every round.
fn conserving_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Steady { rate: 11, seed: 3 },
        WorkloadSpec::Bursty {
            on: 2,
            off: 3,
            rate: 9,
            seed: 4,
        },
        WorkloadSpec::Hotspot { rate: 6 },
        WorkloadSpec::Drain { rate: 2 },
        WorkloadSpec::Adversary { budget: 5 },
        WorkloadSpec::ArriveAndDrain { rate: 8, seed: 5 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Open-system conservation, every scheme family: after `t` rounds,
    /// `total == initial + Σ_t Σ_u w_t(u)` — with the cumulative delta
    /// witnessed both by the engine's counter and by an independent
    /// recording wrapper around the workload.
    #[test]
    fn every_scheme_conserves_total_plus_cumulative_delta(
        (n, d, seed) in graph_params(),
        workload_idx in 0usize..6,
        steps in 1usize..30,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::uniform(n, 40);
        let total = initial.total();
        let wspec = &conserving_workloads()[workload_idx];
        for scheme in all_schemes() {
            let mut bal = scheme.build(&gp).unwrap();
            let mut workload = Recording::new(wspec.build(n));
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), Run { workload: Some(&mut workload), path: Path::Reference, ..Run::new(steps) }).unwrap();
            prop_assert_eq!(
                engine.injected_total(), workload.cumulative,
                "{} under {}: engine counter disagrees with the workload record",
                scheme.label(), wspec.label()
            );
            prop_assert_eq!(
                engine.loads().total(), total + workload.cumulative,
                "{} under {} broke open-system conservation", scheme.label(), wspec.label()
            );
        }
    }

    /// Open-system conservation, every execution path: the law holds —
    /// with the *same* cumulative delta — through one reference round
    /// per call, one reference run and the kernel rounds (scalar
    /// rotor-router and SEND kernels).
    #[test]
    fn every_path_conserves_total_plus_cumulative_delta(
        (n, d, seed) in graph_params(),
        workload_idx in 0usize..6,
        steps in 1usize..25,
    ) {
        let graph = generators::random_regular(n, d, seed).unwrap();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::uniform(n, 40);
        let total = initial.total();
        let wspec = &conserving_workloads()[workload_idx];

        // Reference cumulative delta from the per-round reference path.
        let expected = {
            let mut workload = Recording::new(wspec.build(n));
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            for _ in 0..steps {
                engine.run(&mut bal, Run { workload: Some(&mut workload), path: Path::Reference, ..Run::new(1) }).unwrap();
            }
            prop_assert_eq!(engine.loads().total(), total + workload.cumulative);
            workload.cumulative
        };

        let mut engine = Engine::new(gp.clone(), initial.clone());
        let mut workload = wspec.build(n);
        engine
            .run(&mut SendRound::new(), Run { workload: Some(workload.as_mut()), path: Path::Reference, ..Run::new(steps) })
            .unwrap();
        prop_assert_eq!(engine.loads().total(), total + engine.injected_total());

        let mut engine = Engine::new(gp.clone(), initial.clone());
        let mut workload = wspec.build(n);
        let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        engine
            .run(&mut rotor, Run { workload: Some(workload.as_mut()), ..Run::new(steps) })
            .unwrap();
        prop_assert_eq!(engine.injected_total(), expected,
            "kernel path saw a different delta stream");
        prop_assert_eq!(engine.loads().total(), total + expected);

        let mut engine = Engine::new(gp.clone(), initial.clone());
        let mut workload = wspec.build(n);
        engine
            .run(&mut SendFloor::new(), Run { workload: Some(workload.as_mut()), ..Run::new(steps) })
            .unwrap();
        prop_assert_eq!(engine.injected_total(), expected,
            "SEND kernel path saw a different delta stream");
        prop_assert_eq!(engine.loads().total(), total + expected);
    }
}

#[test]
fn conservation_on_structured_graphs() {
    // Deterministic spot-checks on the named families.
    for graph in [
        generators::cycle(12).unwrap(),
        generators::hypercube(4).unwrap(),
        generators::torus(2, 4).unwrap(),
        generators::complete(8).unwrap(),
        generators::petersen(),
    ] {
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::point_mass(n, 997);
        for scheme in all_schemes() {
            let mut bal = scheme.build(&gp).unwrap();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), Run::new(50)).unwrap();
            assert_eq!(engine.loads().total(), 997, "{}", scheme.label());
        }
    }
}
