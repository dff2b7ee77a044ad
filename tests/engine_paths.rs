//! Cross-path property tests: the engine's kernel rounds must be
//! indistinguishable from the planned stepping loop.
//!
//! Five guarantees, checked by proptest across every structured
//! generator family (cycle, torus, hypercube, clique-circulant,
//! random-regular), plus a sixth on fixed cells:
//!
//! 1. every non-overdrawing scheme conserves tokens and never produces
//!    a negative load, on every execution path;
//! 2. a `Path::Planned` run and a `Path::Auto` run (the plan-free
//!    kernel rounds) produce bit-identical load vectors to the `step()`
//!    loop for every scheme with a kernel;
//! 3. `run_parallel` is bit-identical to `Engine::run` — loads, step
//!    count and vector counters — for every thread count (1/2/3/4
//!    explicitly) and every vector inner loop, for the SEND schemes;
//! 4. running on an RCM-relabeled graph with permuted loads and mapping
//!    the result back through the inverse reproduces the original run
//!    exactly (port numbering is preserved, so even the rotor-router
//!    commutes with relabeling);
//! 5. the kernel rounds report the same `Overdraw`/`NegativeLoad` error —
//!    same node, load and step — as the `step()` loop;
//! 6. under the default `VectorConfig`, closed SEND runs at n = 4096
//!    dispatch into the vector layer and take the inner loop recorded
//!    for their graph (banded on the cycle and torus, blocked on the
//!    random-regular graph, relabeled or not).

use dlb::core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb::core::{
    Balancer, Engine, EngineError, FlowPlan, KernelBalancer, KernelRounds, LoadVector, NoWorkload,
    Path, Run, StaticTopology, VectorConfig, VectorStrategy, VectorWidth, I32_HEADROOM_LIMIT,
};
use dlb::graph::relabel::Relabeling;
use dlb::graph::{generators, BalancingGraph, PortOrder, RegularGraph};
use dlb::harness::SchemeSpec;
use dlb::topology::ScheduleSpec;
use proptest::prelude::*;

/// The structured generator families the fast paths are validated on.
fn graph_family() -> Vec<(&'static str, RegularGraph)> {
    vec![
        ("cycle", generators::cycle(24).unwrap()),
        ("torus", generators::torus(2, 5).unwrap()),
        ("hypercube", generators::hypercube(5).unwrap()),
        (
            "clique-circulant",
            generators::clique_circulant(24, 4).unwrap(),
        ),
        (
            "random-regular",
            generators::random_regular(30, 3, 7).unwrap(),
        ),
    ]
}

/// Cycles `pattern` into a load vector of length `n`.
fn loads_for(n: usize, pattern: &[i64]) -> LoadVector {
    let mut loads = vec![0i64; n];
    for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
        *slot = value;
    }
    LoadVector::new(loads)
}

fn non_overdrawing_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
        SchemeSpec::RotorRouterStar,
        SchemeSpec::Good { s: 1 },
        SchemeSpec::RoundFairFirstPorts,
        SchemeSpec::RoundFairLagged { period: 3 },
        SchemeSpec::RandomizedExtra { seed: 11 },
    ]
}

/// Drives `steps` rounds of the kernel scheme named by `which` through
/// a `Path::Auto` run, which takes the kernel rounds.
fn auto_run_by_name(
    gp: &BalancingGraph,
    which: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
) -> Result<Engine, EngineError> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    match which {
        SchemeSpec::SendFloor => engine.run(&mut SendFloor::new(), Run::new(steps))?,
        SchemeSpec::SendRound => engine.run(&mut SendRound::new(), Run::new(steps))?,
        SchemeSpec::RotorRouter => {
            let mut rotor = RotorRouter::new(gp, PortOrder::Sequential).expect("rotor builds");
            engine.run(&mut rotor, Run::new(steps))?;
        }
        other => panic!("no kernel dispatch for {}", other.label()),
    }
    Ok(engine)
}

/// The forced vector configurations the kernel path is pinned on: each
/// inner loop (banded/blocked × i64/i32) explicitly, so no dispatch
/// heuristic can hide one from the differential battery. `scalar`
/// (vector layer disabled) is the oracle.
fn vector_configs() -> Vec<(&'static str, VectorConfig)> {
    vec![
        (
            "scalar",
            VectorConfig {
                enabled: false,
                ..VectorConfig::default()
            },
        ),
        (
            "banded-i64",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I64,
            },
        ),
        (
            "blocked-i64",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I64,
            },
        ),
        (
            "banded-i32",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I32 {
                    limit: I32_HEADROOM_LIMIT,
                },
            },
        ),
        (
            "blocked-i32",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I32 {
                    limit: I32_HEADROOM_LIMIT,
                },
            },
        ),
    ]
}

/// A `Path::Auto` run under an explicit vector configuration.
fn auto_run_configured(
    gp: &BalancingGraph,
    which: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
    config: VectorConfig,
) -> Engine {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    engine.set_vector_config(config);
    match which {
        SchemeSpec::SendFloor => engine.run(&mut SendFloor::new(), Run::new(steps)).unwrap(),
        SchemeSpec::SendRound => engine.run(&mut SendRound::new(), Run::new(steps)).unwrap(),
        other => panic!("no kernel dispatch for {}", other.label()),
    }
    engine
}

/// `run_parallel` at `threads` workers under an explicit vector
/// configuration.
fn run_parallel_configured(
    gp: &BalancingGraph,
    which: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
    config: VectorConfig,
    threads: usize,
) -> Engine {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    engine.set_vector_config(config);
    match which {
        SchemeSpec::SendFloor => engine
            .run_parallel(&SendFloor::new(), steps, threads)
            .unwrap(),
        SchemeSpec::SendRound => engine
            .run_parallel(&SendRound::new(), steps, threads)
            .unwrap(),
        other => panic!("no parallel dispatch for {}", other.label()),
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guarantee 1: conservation + non-negativity on the serial paths.
    #[test]
    fn non_overdrawing_schemes_conserve_and_stay_non_negative(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..30,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let total = initial.total();
            for scheme in non_overdrawing_schemes() {
                let mut bal = scheme.build(&gp).unwrap();
                prop_assert!(!bal.may_overdraw());
                let mut engine = Engine::new(gp.clone(), initial.clone());
                engine.run(bal.as_mut(), Run { path: Path::Planned, ..Run::new(steps) }).unwrap();
                prop_assert_eq!(
                    engine.loads().total(), total,
                    "{} lost tokens on {}", scheme.label(), name
                );
                prop_assert_eq!(
                    engine.negative_node_steps(), 0,
                    "{} went negative on {}", scheme.label(), name
                );
                prop_assert_eq!(engine.loads().negative_nodes(), 0);
            }
        }
    }

    /// Guarantees 2 and 3: the fast, kernel and parallel paths are
    /// bit-identical to the instrumented stepping loop — parallel at
    /// 1, 2, 3 and 4 threads explicitly.
    #[test]
    fn fast_kernel_and_parallel_paths_match_instrumented_stepping(
        pattern in proptest::collection::vec(0i64..400, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
                // Reference: the planned step() loop.
                let mut bal = scheme.build(&gp).unwrap();
                let mut reference = Engine::new(gp.clone(), initial.clone());
                for _ in 0..steps {
                    reference.step(bal.as_mut()).unwrap();
                }

                let mut bal = scheme.build(&gp).unwrap();
                let mut fast = Engine::new(gp.clone(), initial.clone());
                fast.run(bal.as_mut(), Run { path: Path::Planned, ..Run::new(steps) }).unwrap();
                prop_assert_eq!(
                    fast.loads(), reference.loads(),
                    "planned run diverged: {} on {}", scheme.label(), name
                );

                let kernel = auto_run_by_name(&gp, &scheme, &initial, steps).unwrap();
                prop_assert_eq!(
                    kernel.loads(), reference.loads(),
                    "kernel rounds diverged: {} on {}", scheme.label(), name
                );
                prop_assert_eq!(kernel.step_count(), reference.step_count());
                prop_assert_eq!(
                    kernel.negative_node_steps(),
                    reference.negative_node_steps()
                );

                for t in [1, 2, 3, 4] {
                    let par = run_parallel_configured(
                        &gp, &scheme, &initial, steps, VectorConfig::default(), t,
                    );
                    prop_assert_eq!(
                        par.loads(), reference.loads(),
                        "run_parallel({}) diverged: {} on {}", t, scheme.label(), name
                    );
                    prop_assert_eq!(par.step_count(), reference.step_count());
                    prop_assert_eq!(
                        par.negative_node_steps(),
                        reference.negative_node_steps()
                    );
                    prop_assert_eq!(par.vector_stats(), kernel.vector_stats());
                }
            }
        }
    }

    /// The vectorized inner loops — banded and blocked gathers, at
    /// both load widths — are bit-identical to the instrumented
    /// stepping loop for both SEND schemes on every graph family, and
    /// the forced configurations really do dispatch (a silently
    /// scalar-fallback run cannot pass for a vector one).
    #[test]
    fn vector_inner_loops_match_instrumented_stepping(
        pattern in proptest::collection::vec(0i64..400, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
                let mut bal = scheme.build(&gp).unwrap();
                let mut reference = Engine::new(gp.clone(), initial.clone());
                for _ in 0..steps {
                    reference.step(bal.as_mut()).unwrap();
                }
                for (label, config) in vector_configs() {
                    let engine =
                        auto_run_configured(&gp, &scheme, &initial, steps, config);
                    prop_assert_eq!(
                        engine.loads(), reference.loads(),
                        "{} diverged: {} on {}", label, scheme.label(), name
                    );
                    prop_assert_eq!(engine.step_count(), reference.step_count());
                    prop_assert_eq!(
                        engine.negative_node_steps(),
                        reference.negative_node_steps()
                    );
                    let dispatched = engine.vector_stats().runs;
                    if config.enabled {
                        prop_assert_eq!(
                            dispatched, 1,
                            "{} eligible but not dispatched: {} on {}",
                            label, scheme.label(), name
                        );
                    } else {
                        prop_assert_eq!(dispatched, 0);
                    }
                    // The same inner loop split by node range: identical
                    // loads, clock and counters at every worker count.
                    for t in 2..=4 {
                        let par =
                            run_parallel_configured(&gp, &scheme, &initial, steps, config, t);
                        prop_assert_eq!(
                            par.loads(), engine.loads(),
                            "{} run_parallel({}) diverged: {} on {}",
                            label, t, scheme.label(), name
                        );
                        prop_assert_eq!(par.step_count(), engine.step_count());
                        prop_assert_eq!(par.vector_stats(), engine.vector_stats());
                    }
                }
            }
        }
    }

    /// The rotor-router (stateful, no parallel path) must still agree
    /// between its serial paths — including the plan-free kernel, whose
    /// rotor advances in stream order rather than plan order.
    #[test]
    fn rotor_router_fast_and_kernel_paths_match_stepping(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..30,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let mut bal = SchemeSpec::RotorRouter.build(&gp).unwrap();
            let mut reference = Engine::new(gp.clone(), initial.clone());
            for _ in 0..steps {
                reference.step(bal.as_mut()).unwrap();
            }
            let mut bal = SchemeSpec::RotorRouter.build(&gp).unwrap();
            let mut fast = Engine::new(gp.clone(), initial.clone());
            fast.run(bal.as_mut(), Run { path: Path::Planned, ..Run::new(steps) }).unwrap();
            prop_assert_eq!(
                fast.loads(), reference.loads(),
                "rotor planned run diverged on {}", name
            );
            let kernel =
                auto_run_by_name(&gp, &SchemeSpec::RotorRouter, &initial, steps).unwrap();
            prop_assert_eq!(
                kernel.loads(), reference.loads(),
                "rotor kernel rounds diverged on {}", name
            );
        }
    }

    /// Guarantee 4: relabeling commutes with balancing. Running on the
    /// RCM-relabeled graph with permuted loads and mapping the final
    /// loads back through the inverse is bit-identical to the original
    /// run — for the stateless SEND family *and* the port-order
    /// sensitive rotor-router (relabeling preserves port numbering).
    #[test]
    fn relabeled_runs_map_back_bit_identically(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let relab = Relabeling::reverse_cuthill_mckee(&graph);
            let rgp = BalancingGraph::lazy(graph.relabeled(&relab).unwrap());
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let rinitial = LoadVector::new(relab.permute(initial.as_slice()));
            for scheme in [
                SchemeSpec::SendFloor,
                SchemeSpec::SendRound,
                SchemeSpec::RotorRouter,
            ] {
                let reference = auto_run_by_name(&gp, &scheme, &initial, steps).unwrap();
                let relabeled = auto_run_by_name(&rgp, &scheme, &rinitial, steps).unwrap();
                let restored =
                    LoadVector::new(relab.unpermute(relabeled.loads().as_slice()));
                prop_assert_eq!(
                    &restored, reference.loads(),
                    "relabeled {} diverged on {}", scheme.label(), name
                );
            }
        }
    }

    /// Guarantee 4, state half: relabeling round-trips the
    /// rotor-router's *state*, not just the loads. After identical
    /// horizons, mapping the relabeled run's rotor positions back
    /// through the inverse permutation must reproduce the original
    /// run's rotors exactly (port numbering is preserved per node, and
    /// `Sequential` order is node-id independent, so rotor indices are
    /// directly comparable).
    #[test]
    fn relabeled_runs_round_trip_rotor_state(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let relab = Relabeling::reverse_cuthill_mckee(&graph);
            let rgp = BalancingGraph::lazy(graph.relabeled(&relab).unwrap());
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let rinitial = LoadVector::new(relab.permute(initial.as_slice()));

            let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
            let mut reference = Engine::new(gp.clone(), initial);
            reference.run(&mut rotor, Run::new(steps)).unwrap();

            let mut rrotor = RotorRouter::new(&rgp, PortOrder::Sequential).unwrap();
            let mut relabeled = Engine::new(rgp.clone(), rinitial);
            relabeled.run(&mut rrotor, Run::new(steps)).unwrap();

            prop_assert_eq!(
                relab.unpermute(rrotor.rotors()),
                rotor.rotors().to_vec(),
                "rotor state broke under relabeling on {}", name
            );
            prop_assert_eq!(
                LoadVector::new(relab.unpermute(relabeled.loads().as_slice())),
                reference.loads().clone()
            );
        }
    }
}

/// The headline regression, end to end through the public facade: an
/// engine seeded with a negative load must return the documented error
/// — not trip a scheme's debug assertion — on every execution path.
#[test]
fn negative_seed_errors_cleanly_on_every_path() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        Engine::new(gp, LoadVector::new(vec![10, 0, -3, 0, 0, 0, 0, 0]))
    };
    let expect = |r: Result<(), EngineError>| {
        assert!(
            matches!(
                r,
                Err(EngineError::NegativeLoad {
                    node: 2,
                    load: -3,
                    step: 1
                })
            ),
            "wrong outcome: {r:?}"
        );
    };
    expect(build().run(&mut SendFloor::new(), Run::new(4)));
    expect(build().run(
        &mut SendFloor::new(),
        Run {
            path: Path::Planned,
            ..Run::new(4)
        },
    ));
    expect(build().run(&mut SendFloor::new(), Run::new(4)));
    for threads in [1, 2, 3, 4] {
        expect(build().run_parallel(&SendFloor::new(), 4, threads));
    }
    expect(build().step(&mut SendFloor::new()).map(|_| ()));
}

/// A deliberately overdrawing scheme that claims to be well-behaved,
/// implemented identically on the planned and kernel paths: every
/// non-empty node sends exactly 3 tokens over port 0, whatever it
/// holds.
struct Drain3;

impl Balancer for Drain3 {
    fn name(&self) -> &'static str {
        "drain-3"
    }
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            if loads.get(u) != 0 {
                plan.set(u, 0, 3);
            }
        }
    }
    fn as_kernel(&mut self) -> Option<&mut dyn KernelRounds> {
        Some(self)
    }
}

impl KernelBalancer for Drain3 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, _load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = 3;
    }
}

/// Guarantee 5 (overdraw half): the kernel rounds must report the exact
/// `Overdraw` the `step()` loop reports — same node, load, planned
/// amount and 1-based step — and leave the loads of the last completed
/// round, after which both engines agree.
#[test]
fn run_kernel_overdraw_parity_with_step_loop() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(4).unwrap());
        // Node 0 drains 3/step: 4 → 1, then plans 3 from 1 and trips on
        // step 2 (validated before any routing, so round 2 is a no-op).
        Engine::new(gp, LoadVector::new(vec![4, 0, 0, 0]))
    };

    let mut reference = build();
    let step_err = loop {
        match reference.step(&mut Drain3) {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert_eq!(
        step_err,
        EngineError::Overdraw {
            node: 0,
            load: 1,
            planned: 3,
            step: 2
        }
    );

    let mut kernel = build();
    let kernel_err = kernel.run(&mut Drain3, Run::new(10)).unwrap_err();
    assert_eq!(kernel_err, step_err, "kernel error diverged from step()");
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(kernel.step_count(), reference.step_count());
}

/// An honestly overdrawing scheme (it declares `may_overdraw`),
/// identical on the planned and kernel paths: every non-empty node
/// sends 5 over port 0, driving itself negative when it holds less.
struct Overdraw5;

impl Balancer for Overdraw5 {
    fn name(&self) -> &'static str {
        "overdraw-5"
    }
    fn may_overdraw(&self) -> bool {
        true
    }
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            if loads.get(u) != 0 {
                plan.set(u, 0, 5);
            }
        }
    }
    fn as_kernel(&mut self) -> Option<&mut dyn KernelRounds> {
        Some(self)
    }
}

impl KernelBalancer for Overdraw5 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, _load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = 5;
    }
}

/// Guarantee 5 (negative half): a negative load appearing mid-run (not
/// just at the seed) must surface with the same node and step on the
/// kernel path as on the step loop — including the negative-node-step
/// accounting the overdraw rounds accumulate along the way.
#[test]
fn run_kernel_negative_load_parity_with_step_loop() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(6).unwrap());
        Engine::new(gp, LoadVector::new(vec![3, 0, 0, 0, 0, 0]))
    };

    // One overdrawing round drives node 0 to −2; the next round under a
    // non-overdrawing scheme must reject the negative state pre-plan.
    let mut reference = build();
    reference.step(&mut Overdraw5).unwrap();
    let ref_err = reference.step(&mut SendFloor::new()).unwrap_err();
    assert_eq!(
        ref_err,
        EngineError::NegativeLoad {
            node: 0,
            load: -2,
            step: 2
        }
    );

    let mut kernel = build();
    kernel.run(&mut Overdraw5, Run::new(1)).unwrap();
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(
        kernel.negative_node_steps(),
        reference.negative_node_steps(),
        "overdraw accounting diverged"
    );
    let kern_err = kernel.run(&mut SendFloor::new(), Run::new(5)).unwrap_err();
    assert_eq!(kern_err, ref_err, "kernel error diverged from step()");
}

/// Satellite regression: the kernel path on an overdrawing scheme used
/// to pay a full `O(n)` negative-load rescan per round. The streaming
/// apply now maintains the count at every write — the rescan counter
/// must stay pinned at zero while the accounting it replaced stays
/// exact against the planned step loop.
#[test]
fn overdrawing_kernel_rounds_pay_zero_negative_rescans() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(12).unwrap());
        Engine::new(
            gp,
            LoadVector::new(vec![9, 2, 0, 7, 1, 0, 4, 0, 0, 3, 0, 6]),
        )
    };
    let steps = 25;
    let mut reference = build();
    for _ in 0..steps {
        reference.step(&mut Overdraw5).unwrap();
    }
    assert!(
        reference.negative_node_steps() > 0,
        "the scenario must actually accumulate negative node-steps"
    );

    let mut kernel = build();
    kernel.run(&mut Overdraw5, Run::new(steps)).unwrap();
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(
        kernel.negative_node_steps(),
        reference.negative_node_steps(),
        "incremental negative accounting diverged from the step loop"
    );
    assert_eq!(
        kernel.negative_rescans(),
        0,
        "kernel rounds must never rescan for negative loads"
    );
}

/// A seed too large for the i32 headroom bound must keep the automatic
/// width on i64 — no compressed rounds, no fallback event, and loads
/// bit-identical to the scalar kernel.
#[test]
fn near_i32_max_seed_stays_on_i64_under_auto_width() {
    let gp = BalancingGraph::lazy(generators::cycle(32).unwrap());
    let mut loads = vec![3i64; 32];
    loads[5] = i64::from(i32::MAX) - 64; // far over I32_HEADROOM_LIMIT
    let initial = LoadVector::new(loads);
    let steps = 12;

    let scalar = auto_run_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    let auto = auto_run_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig::default(),
    );
    assert_eq!(auto.loads(), scalar.loads());
    let stats = auto.vector_stats();
    assert_eq!(stats.runs, 1, "the run itself must dispatch");
    assert_eq!(stats.rounds_i32, 0, "no compressed rounds over the bound");
    assert_eq!(
        stats.i32_fallbacks, 0,
        "auto width declines, it never trips"
    );
}

/// The i32 overflow guard, mid-run: a seed that fits the (forced,
/// tiny) headroom limit at entry but crosses it as SEND(round) grows a
/// node's load must trip the guard loudly, finish on i64, and stay
/// bit-identical to the scalar kernel.
#[test]
fn forced_i32_guard_trips_mid_run_and_falls_back_bit_identically() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    // Node 1 (load 9, between two 10s) climbs to 11 after one
    // SEND(round) step: 9 − 4 + 3 + 3. Entry max 10 fits limit 10.
    let initial = LoadVector::new(vec![10, 9, 10, 0, 0, 0, 0, 0]);
    let steps = 9;

    let scalar = auto_run_configured(
        &gp,
        &SchemeSpec::SendRound,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    for strategy in [VectorStrategy::Banded, VectorStrategy::BlockedCsr] {
        let engine = auto_run_configured(
            &gp,
            &SchemeSpec::SendRound,
            &initial,
            steps,
            VectorConfig {
                enabled: true,
                strategy,
                width: VectorWidth::I32 { limit: 10 },
            },
        );
        assert_eq!(
            engine.loads(),
            scalar.loads(),
            "i32 fallback diverged ({strategy:?})"
        );
        let stats = engine.vector_stats();
        assert_eq!(stats.rounds_i32, 1, "exactly the first round compresses");
        assert_eq!(stats.i32_fallbacks, 1, "the guard must trip exactly once");
        // Split by node range, the guard reads the maximum over every
        // worker's range: the trip lands on the same round.
        for threads in 2..=4 {
            let config = *engine.vector_config();
            let par = run_parallel_configured(
                &gp,
                &SchemeSpec::SendRound,
                &initial,
                steps,
                config,
                threads,
            );
            assert_eq!(
                par.loads(),
                scalar.loads(),
                "{strategy:?} at {threads} threads"
            );
            assert_eq!(
                par.vector_stats(),
                stats,
                "{strategy:?} at {threads} threads"
            );
        }
    }
}

/// SEND([x/d⁺]) on a graph with `d° < d` has no closed form, so
/// `run_parallel` must stream the scalar kernel exactly as `Engine::run`
/// does — the same `Overdraw`, the same loads and clock, no vector run.
#[test]
fn run_parallel_send_round_below_class_reports_the_scalar_overdraw() {
    let gp = BalancingGraph::bare(generators::cycle(10).unwrap());
    let initial = LoadVector::uniform(10, 11);
    let mut kernel = Engine::new(gp.clone(), initial.clone());
    let kernel_err = kernel.run(&mut SendRound::new(), Run::new(3)).unwrap_err();
    assert!(matches!(kernel_err, EngineError::Overdraw { step: 1, .. }));
    for threads in 1..=4 {
        let mut par = Engine::new(gp.clone(), initial.clone());
        let err = par.run_parallel(&SendRound::new(), 3, threads).unwrap_err();
        assert_eq!(err, kernel_err, "{threads} threads");
        assert_eq!(par.loads(), kernel.loads());
        assert_eq!(par.step_count(), kernel.step_count());
        assert_eq!(par.vector_stats().runs, 0, "no closed form, no vector run");
    }
}

/// The i32 overflow guard, at entry: a forced-i32 run whose seed never
/// fits the limit falls back immediately — counted, zero compressed
/// rounds — and completes on i64 bit-identically.
#[test]
fn forced_i32_with_unfitting_seed_falls_back_loudly_at_entry() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let initial = LoadVector::point_mass(16, 5000);
    let steps = 10;

    let scalar = auto_run_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    let engine = auto_run_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: true,
            strategy: VectorStrategy::Banded,
            width: VectorWidth::I32 { limit: 100 },
        },
    );
    assert_eq!(engine.loads(), scalar.loads());
    let stats = engine.vector_stats();
    assert_eq!(stats.rounds_i32, 0, "no round may run compressed");
    assert_eq!(
        stats.i32_fallbacks, 1,
        "the entry guard must count its trip"
    );
}

/// Step-count parity across chunked vector runs: two `Engine::run`
/// calls must land on the same state and step count as one combined
/// call and as the step loop — the vector path advances the engine's
/// clock exactly like the scalar rounds.
#[test]
fn chunked_vector_runs_accumulate_steps_like_scalar() {
    let gp = BalancingGraph::lazy(generators::cycle(24).unwrap());
    let initial = LoadVector::point_mass(24, 4801);

    let mut reference = Engine::new(gp.clone(), initial.clone());
    let mut bal = SendFloor::new();
    for _ in 0..11 {
        reference.step(&mut bal).unwrap();
    }

    let mut chunked = Engine::new(gp.clone(), initial.clone());
    chunked.run(&mut SendFloor::new(), Run::new(4)).unwrap();
    chunked.run(&mut SendFloor::new(), Run::new(7)).unwrap();
    assert_eq!(chunked.step_count(), 11);
    assert_eq!(chunked.loads(), reference.loads());
    assert_eq!(chunked.vector_stats().runs, 2);

    let mut single = Engine::new(gp, initial);
    single.run(&mut SendFloor::new(), Run::new(11)).unwrap();
    assert_eq!(single.loads(), reference.loads());
    assert_eq!(single.step_count(), 11);
}

/// The closed-form stream divides exactly at every load: a node at
/// `i64::MAX − 1` under rewiring and failures, for both SEND schemes on
/// an odd `d⁺` (multiply-high reciprocal, and a round bias that carries
/// the dividend past 2⁶³) and on a power-of-two `d⁺`, matches the
/// per-round planned loop round for round.
#[test]
fn run_kernel_dyn_matches_step_dyn_at_a_near_max_load() {
    fn check<K: KernelBalancer + Clone>(gp: &BalancingGraph, scheme: K) {
        let spec = ScheduleSpec::Churn {
            period: 2,
            swaps: 1,
            fail_pct: 25,
            max_down: 3,
            seed: 5,
        };
        let mut loads = vec![0; gp.num_nodes()];
        loads[1] = i64::MAX - 1;
        let initial = LoadVector::new(loads);
        let (mut ref_sched, mut kern_sched) = (spec.build().unwrap(), spec.build().unwrap());
        let mut reference = Engine::new(gp.clone(), initial.clone());
        let mut kernel = Engine::new(gp.clone(), initial);
        let (mut ref_bal, mut kern_bal) = (scheme.clone(), scheme);
        for round in 1..=24 {
            reference
                .run(
                    &mut ref_bal,
                    Run {
                        schedule: Some(ref_sched.as_mut()),
                        path: Path::Planned,
                        ..Run::new(1)
                    },
                )
                .unwrap();
            kernel
                .run(
                    &mut kern_bal,
                    Run {
                        schedule: Some(kern_sched.as_mut()),
                        ..Run::new(1)
                    },
                )
                .unwrap();
            let name = ref_bal.name();
            assert_eq!(kernel.loads(), reference.loads(), "{name} round {round}");
            assert_eq!(kernel.graph(), reference.graph(), "{name} round {round}");
        }
        assert!(reference.topology_events_applied() > 0);
        assert_eq!(reference.loads().total(), i64::MAX - 1);
    }
    let graphs = [
        // d = 2, d° = 3: d⁺ = 5.
        BalancingGraph::with_self_loops(generators::cycle(16).unwrap(), 3).unwrap(),
        // d = d° = 4: d⁺ = 8.
        BalancingGraph::lazy(generators::torus(2, 4).unwrap()),
    ];
    for gp in &graphs {
        check(gp, SendFloor::new());
        check(gp, SendRound::new());
    }
}

/// Which vector inner loop a run took, read off its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerLoop {
    Banded,
    Blocked,
}

/// Automatic dispatch on the cells where the vector layer pays: closed
/// SEND runs at n = 4096 from a bimodal 64-per-node seed, 64 rounds.
/// With the default `VectorConfig`, a `Path::Auto` run with no
/// generators and one with no-op generators spelled out
/// (`Some(&mut StaticTopology)`, `Some(&mut NoWorkload)`, as serve's
/// journal replay passes its recorded generators) must both dispatch, take the inner loop recorded for the cell, run every
/// round at i32, and match the step loop bit for bit. The
/// random-regular cell runs again under an RCM relabeling, which keeps
/// the blocked gather; its loads map back to the original run.
#[test]
fn auto_dispatch_takes_the_recorded_inner_loop_on_eligible_send_cells() {
    let n = 4096;
    let steps = 64;
    let cells = [
        ("cycle", generators::cycle(n).unwrap(), InnerLoop::Banded),
        (
            "torus",
            generators::torus(2, 64).unwrap(),
            InnerLoop::Banded,
        ),
        (
            "random-regular",
            generators::random_regular(n, 4, 42).unwrap(),
            InnerLoop::Blocked,
        ),
    ];
    let initial = dlb::harness::init::bimodal(n, 64);

    fn auto_runs(
        gp: &BalancingGraph,
        scheme: &SchemeSpec,
        initial: &LoadVector,
        steps: usize,
    ) -> [Engine; 2] {
        let kernel = auto_run_by_name(gp, scheme, initial, steps).unwrap();
        let mut dyn_static = Engine::new(gp.clone(), initial.clone());
        let (mut topology, mut workload) = (StaticTopology, NoWorkload);
        let run = Run {
            schedule: Some(&mut topology),
            workload: Some(&mut workload),
            ..Run::new(steps)
        };
        let mut bal = scheme.build(gp).unwrap();
        dyn_static.run(bal.as_mut(), run).unwrap();
        [kernel, dyn_static]
    }

    let check = |engine: &Engine, expected: InnerLoop, tag: &str| {
        let stats = engine.vector_stats();
        assert!(stats.runs > 0, "{tag}: eligible but not dispatched");
        let (taken, other) = match expected {
            InnerLoop::Banded => (stats.rounds_banded, stats.rounds_blocked),
            InnerLoop::Blocked => (stats.rounds_blocked, stats.rounds_banded),
        };
        assert_eq!(taken, steps as u64, "{tag}: expected {expected:?}");
        assert_eq!(other, 0, "{tag}: expected {expected:?}");
        assert_eq!(stats.rounds_i32, steps as u64, "{tag}: every round at i32");
        assert_eq!(engine.step_count(), steps, "{tag}");
    };

    for (name, graph, inner) in cells {
        let relabeling = (inner == InnerLoop::Blocked).then(|| {
            let relab = Relabeling::reverse_cuthill_mckee(&graph);
            let rgp = BalancingGraph::lazy(graph.relabeled(&relab).unwrap());
            (relab, rgp)
        });
        let gp = BalancingGraph::lazy(graph);
        for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
            let mut bal = scheme.build(&gp).unwrap();
            let mut reference = Engine::new(gp.clone(), initial.clone());
            for _ in 0..steps {
                reference.step(bal.as_mut()).unwrap();
            }
            for (path, engine) in ["auto", "auto with no-op generators"]
                .iter()
                .zip(auto_runs(&gp, &scheme, &initial, steps))
            {
                let tag = format!("{path}: {} on {name}", scheme.label());
                check(&engine, inner, &tag);
                assert_eq!(engine.loads(), reference.loads(), "{tag}");
            }
            if let Some((relab, rgp)) = &relabeling {
                let rinitial = LoadVector::new(relab.permute(initial.as_slice()));
                let engine = auto_run_by_name(rgp, &scheme, &rinitial, steps).unwrap();
                let tag = format!("auto: {} on relabeled {name}", scheme.label());
                check(&engine, inner, &tag);
                let restored = LoadVector::new(relab.unpermute(engine.loads().as_slice()));
                assert_eq!(&restored, reference.loads(), "{tag}");
            }
        }
    }
}
