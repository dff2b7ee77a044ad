//! Differential fuzzing of the engine's execution paths.
//!
//! One semantics, four implementations: a loop of one-round reference
//! `Engine::run` calls, one `Path::Reference` run, one `Path::Auto` run
//! (the kernel rounds), and — on
//! static, closed runs — the range-split `run_parallel` at 1–4
//! threads. This suite
//! drives randomized scheme × graph × load × workload × **topology
//! schedule** combinations through every applicable path and asserts
//! that the complete observable outcome is identical:
//!
//! * the final load vector, bit for bit,
//! * the final graph — adjacency, port numbering and sleep state —
//!   after all applied churn (swaps, port permutations, sleep/wake),
//! * the rotor state of the rotor-router and ROTOR-ROUTER\* (its
//!   inner rotor),
//! * the completed step count,
//! * the negative-node-step accounting,
//! * the net injected total and the applied-event count, and
//! * on divergence points — rounds rejected with `Overdraw`,
//!   `NegativeLoad` or `Topology` — the *same error*, same node, same
//!   load, same 1-based step. The workload mix deliberately includes
//!   an unclamped drain (drives loads negative mid-run) and the scheme
//!   mix a constant-rate sender (overdraws once injection erodes its
//!   load), so error rounds *caused by injection while the topology
//!   churns* are part of the fuzzed space — and the failed round must
//!   roll back its topology events on every path, not just its
//!   injection.
//!
//! `Path::Auto` and `Path::Reference` share the kernel's flow-buffer
//! round for every scheme without a closed form, so an independent
//! oracle checks both: a naive scatter round written on the public
//! `KernelBalancer` API alone (hook, rule per node, scatter over the
//! neighbour lists, a fresh next-load vector per round), compared on
//! static, closed runs of every scheme in the mix.
//!
//! Deterministic anchors pin what the spec-driven fuzz cannot reach:
//! the bounded adversary inside a `Compose` (with its one scan per
//! injecting round on every path) and an injection that overflows
//! `i64` — a load, the net injection, or the positive load total the
//! flow phase would otherwise wrap on (`InjectionOverflow`, rolled back
//! like `NegativeLoad`).

use dlb::bounds::FixedFlowBalancer;
use dlb::core::schemes::{
    ContinuousMimic, GoodBalancer, QuasirandomDiffusion, RandomizedEdgeRounding,
    RandomizedExtraTokens, RotorRouter, RotorRouterStar, RoundFairDiffusion, RoundingRule,
    SendFloor, SendRound,
};
use dlb::core::{
    Balancer, Engine, EngineError, KernelBalancer, KernelRounds, LoadVector, Path, Run,
    TopologySchedule, VectorConfig, VectorStats, VectorStrategy, VectorWidth, Workload,
};
use dlb::graph::{generators, BalancingGraph, PortOrder, RegularGraph};
use dlb::scenario::workloads::{BoundedAdversary, Compose, Hotspot, SteadyArrivals};
use dlb::scenario::WorkloadSpec;
use dlb::topology::ScheduleSpec;
use proptest::prelude::*;

/// The structured generator families the paths are fuzzed on.
fn graph_for(idx: usize) -> (&'static str, RegularGraph) {
    match idx {
        0 => ("cycle", generators::cycle(24).unwrap()),
        1 => ("torus", generators::torus(2, 5).unwrap()),
        2 => ("hypercube", generators::hypercube(5).unwrap()),
        3 => (
            "clique-circulant",
            generators::clique_circulant(24, 4).unwrap(),
        ),
        _ => (
            "random-regular",
            generators::random_regular(30, 3, 7).unwrap(),
        ),
    }
}

/// The workload mix: `None` is the closed system; the unclamped drain
/// is the error-provoking configuration.
fn workload_for(idx: usize) -> Option<WorkloadSpec> {
    match idx {
        0 => None,
        1 => Some(WorkloadSpec::Steady { rate: 9, seed: 5 }),
        2 => Some(WorkloadSpec::Bursty {
            on: 3,
            off: 4,
            rate: 12,
            seed: 6,
        }),
        3 => Some(WorkloadSpec::Hotspot { rate: 7 }),
        4 => Some(WorkloadSpec::Drain { rate: 3 }),
        5 => Some(WorkloadSpec::DrainUnclamped { rate: 3 }),
        6 => Some(WorkloadSpec::Adversary { budget: 6 }),
        _ => Some(WorkloadSpec::ArriveAndDrain { rate: 8, seed: 7 }),
    }
}

/// The churn mix: `None` is the fixed-graph system; every dynamic
/// schedule composes with every workload above.
fn schedule_for(idx: usize) -> Option<ScheduleSpec> {
    match idx {
        0 => None,
        1 => Some(ScheduleSpec::Periodic {
            period: 3,
            swaps: 2,
            seed: 8,
        }),
        2 => Some(ScheduleSpec::Failure {
            fail_pct: 40,
            recover_pct: 25,
            max_down: 5,
            seed: 9,
        }),
        3 => Some(ScheduleSpec::Burst {
            fail_at: 3,
            wake_at: 9,
            count: 3,
            seed: 10,
        }),
        4 => Some(ScheduleSpec::CutTargeting { period: 4 }),
        _ => Some(ScheduleSpec::Churn {
            period: 4,
            swaps: 1,
            fail_pct: 25,
            max_down: 4,
            seed: 11,
        }),
    }
}

/// A deliberately fragile scheme: every non-empty node sends exactly 3
/// tokens over port 0 while claiming it never overdraws — so once an
/// injection round erodes a node below 3, the engine must reject the
/// round. It turns the fuzzer's drain workloads into a source of
/// mid-run `Overdraw` divergence points.
#[derive(Clone, Copy)]
struct Const3;

impl Balancer for Const3 {
    fn name(&self) -> &'static str {
        "const-3"
    }
    fn is_stateless(&self) -> bool {
        true
    }
    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

impl KernelBalancer for Const3 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = if load != 0 { 3 } else { 0 };
    }
}

/// Which schemes exist on which paths. The first five are the ones
/// whose whole state a snapshot carries (the snapshot axis runs those);
/// the rest are the baselines and Theorem 4.1's frozen flow.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SchemeId {
    SendFloor,
    SendRound,
    Rotor,
    RotorStar,
    Const3,
    Good,
    Mimic,
    Quasirandom,
    ExtraTokens,
    EdgeRounding,
    LaggedRoundFair,
    FixedFlow,
}

impl SchemeId {
    /// Every scheme, in index order.
    const ALL: [SchemeId; 12] = [
        SchemeId::SendFloor,
        SchemeId::SendRound,
        SchemeId::Rotor,
        SchemeId::RotorStar,
        SchemeId::Const3,
        SchemeId::Good,
        SchemeId::Mimic,
        SchemeId::Quasirandom,
        SchemeId::ExtraTokens,
        SchemeId::EdgeRounding,
        SchemeId::LaggedRoundFair,
        SchemeId::FixedFlow,
    ];

    fn from_index(idx: usize) -> Self {
        Self::ALL[idx]
    }

    /// Whether the scheme has a closed form, so `run_parallel` takes it.
    fn is_send(self) -> bool {
        matches!(self, SchemeId::SendFloor | SchemeId::SendRound)
    }

    /// The self-loop count to fuzz with, given a candidate: the schemes
    /// defined only with self-loops (ROTOR-ROUTER\* at `d° = d`, the
    /// good s-balancer at `d° ≥ s = 1`) override it.
    fn self_loops(self, d: usize, candidate: usize) -> usize {
        match self {
            SchemeId::RotorStar => d,
            SchemeId::Good if candidate == 0 => d,
            _ => candidate,
        }
    }
}

/// A concrete scheme, runnable on every serial path, whose rotor state
/// stays observable after the run.
enum Instance {
    Floor(SendFloor),
    Round(SendRound),
    Rotor(RotorRouter),
    Star(RotorRouterStar),
    Const3(Const3),
    Other(Box<dyn KernelBalancer>),
}

impl Instance {
    /// Builds `scheme` for `gp`, restoring the rotor positions when
    /// `rotors` carries them.
    fn build(scheme: SchemeId, gp: &BalancingGraph, rotors: Option<Vec<usize>>) -> Self {
        let order = PortOrder::Sequential;
        match (scheme, rotors) {
            (SchemeId::SendFloor, _) => Instance::Floor(SendFloor::new()),
            (SchemeId::SendRound, _) => Instance::Round(SendRound::new()),
            (SchemeId::Rotor, None) => Instance::Rotor(RotorRouter::new(gp, order).unwrap()),
            (SchemeId::Rotor, Some(r)) => {
                Instance::Rotor(RotorRouter::with_initial_rotors(gp, order, r).unwrap())
            }
            (SchemeId::RotorStar, None) => Instance::Star(RotorRouterStar::new(gp, order).unwrap()),
            (SchemeId::RotorStar, Some(r)) => {
                Instance::Star(RotorRouterStar::with_initial_rotors(gp, order, r).unwrap())
            }
            (SchemeId::Const3, _) => Instance::Const3(Const3),
            (SchemeId::Good, _) => Instance::Other(Box::new(GoodBalancer::new(gp, 1).unwrap())),
            (SchemeId::Mimic, _) => Instance::Other(Box::new(ContinuousMimic::new(gp))),
            (SchemeId::Quasirandom, _) => Instance::Other(Box::new(QuasirandomDiffusion::new(gp))),
            (SchemeId::ExtraTokens, _) => Instance::Other(Box::new(RandomizedExtraTokens::new(3))),
            (SchemeId::EdgeRounding, _) => {
                Instance::Other(Box::new(RandomizedEdgeRounding::new(4)))
            }
            (SchemeId::LaggedRoundFair, _) => {
                let rule = RoundingRule::LaggedRotor { period: 2 };
                Instance::Other(Box::new(RoundFairDiffusion::new(gp, rule)))
            }
            (SchemeId::FixedFlow, _) => {
                // One token over port 0 from every third node, empty or
                // not: fuzzed loads and drains make it overdraw, at
                // empty nodes too.
                let d_plus = gp.degree_plus();
                let mut flows = vec![0; gp.num_nodes() * d_plus];
                for slot in flows.iter_mut().step_by(3 * d_plus) {
                    *slot = 1;
                }
                Instance::Other(Box::new(FixedFlowBalancer::new(gp, flows)))
            }
        }
    }

    /// The scheme as a kernel; it coerces to `&mut dyn Balancer` for
    /// the engine.
    fn kernel(&mut self) -> &mut dyn KernelBalancer {
        match self {
            Instance::Floor(b) => b,
            Instance::Round(b) => b,
            Instance::Rotor(b) => b,
            Instance::Star(b) => b,
            Instance::Const3(b) => b,
            Instance::Other(b) => b.as_mut(),
        }
    }

    /// Rotor positions of the rotor schemes (`None` for the others).
    fn rotors(&self) -> Option<Vec<usize>> {
        match self {
            Instance::Rotor(r) => Some(r.rotors().to_vec()),
            Instance::Star(r) => Some(r.rotors().to_vec()),
            _ => None,
        }
    }
}

/// Everything observable about a finished (or error-terminated) run.
#[derive(Debug, PartialEq)]
struct Outcome {
    loads: Vec<i64>,
    steps: usize,
    negative_node_steps: u64,
    injected_total: i64,
    topology_events: u64,
    graph: BalancingGraph,
    /// Rotor positions of the rotor schemes (`None` for the others).
    rotors: Option<Vec<usize>>,
    error: Option<EngineError>,
}

impl Outcome {
    fn capture(engine: &Engine, rotors: Option<Vec<usize>>, error: Option<EngineError>) -> Self {
        Outcome {
            loads: engine.loads().as_slice().to_vec(),
            steps: engine.step_count(),
            negative_node_steps: engine.negative_node_steps(),
            injected_total: engine.injected_total(),
            topology_events: engine.topology_events_applied(),
            graph: engine.graph().clone(),
            rotors,
            error,
        }
    }

    fn assert_matches(&self, reference: &Self, label: &str) {
        assert_eq!(self.loads, reference.loads, "{label}: loads");
        assert_eq!(self.steps, reference.steps, "{label}: steps");
        assert_eq!(
            self.negative_node_steps, reference.negative_node_steps,
            "{label}: negative accounting"
        );
        assert_eq!(
            self.injected_total, reference.injected_total,
            "{label}: injected"
        );
        assert_eq!(
            self.topology_events, reference.topology_events,
            "{label}: events"
        );
        assert_eq!(self.graph, reference.graph, "{label}: graph");
        assert_eq!(self.error, reference.error, "{label}: error");
        assert_eq!(self.rotors, reference.rotors, "{label}: rotor state");
    }
}

fn build_workload(spec: &Option<WorkloadSpec>, n: usize) -> Option<Box<dyn Workload>> {
    spec.as_ref().map(|s| s.build(n))
}

fn build_schedule(spec: &Option<ScheduleSpec>) -> Option<Box<dyn TopologySchedule>> {
    spec.as_ref().and_then(ScheduleSpec::build)
}

fn drive_step_loop(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
) -> Outcome {
    let mut inst = Instance::build(scheme, gp, None);
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let error = (0..steps).find_map(|_| {
        engine
            .run(
                inst.kernel(),
                Run {
                    schedule: schedule.as_deref_mut(),
                    workload: workload.as_deref_mut(),
                    path: Path::Reference,
                    ..Run::new(1)
                },
            )
            .err()
    });
    Outcome::capture(&engine, inst.rotors(), error)
}

fn drive_reference(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
) -> Outcome {
    let mut inst = Instance::build(scheme, gp, None);
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let error = engine
        .run(
            inst.kernel(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: workload.as_deref_mut(),
                path: Path::Reference,
                ..Run::new(steps)
            },
        )
        .err();
    Outcome::capture(&engine, inst.rotors(), error)
}

fn drive_auto(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
) -> Outcome {
    let mut inst = Instance::build(scheme, gp, None);
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let error = engine
        .run(
            inst.kernel(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: workload.as_deref_mut(),
                ..Run::new(steps)
            },
        )
        .err();
    Outcome::capture(&engine, inst.rotors(), error)
}

/// `Engine::run` (`threads == None`) or `run_parallel` at the given
/// thread count, under a vector configuration, for the uniform SEND
/// schemes on static, closed runs — where the vector layer dispatches
/// (elsewhere it never does and this reduces to [`drive_auto`]).
/// Returns the outcome and the vector counters, which `run_parallel`
/// must reproduce too. Negative seeds in the fuzzed load patterns
/// exercise the dispatch's `NegativeLoad` entry check against the
/// reference error, node and step.
fn drive_vector(
    gp: &BalancingGraph,
    scheme: SchemeId,
    initial: &LoadVector,
    steps: usize,
    config: VectorConfig,
    threads: Option<usize>,
) -> Option<(Outcome, VectorStats)> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    engine.set_vector_config(config);
    let error = match (scheme, threads) {
        (SchemeId::SendFloor, None) => engine.run(&mut SendFloor::new(), Run::new(steps)).err(),
        (SchemeId::SendRound, None) => engine.run(&mut SendRound::new(), Run::new(steps)).err(),
        (SchemeId::SendFloor, Some(t)) => engine.run_parallel(&SendFloor::new(), steps, t).err(),
        (SchemeId::SendRound, Some(t)) => engine.run_parallel(&SendRound::new(), steps, t).err(),
        _ => return None,
    };
    Some((
        Outcome::capture(&engine, None, error),
        *engine.vector_stats(),
    ))
}

/// The inner-loop matrix the vector layer is differentially pinned on:
/// the default configuration, then both gather strategies forced at
/// both load widths.
fn forced_vector_configs() -> Vec<(&'static str, VectorConfig)> {
    let mut out = vec![("auto", VectorConfig::default())];
    for (sname, strategy) in [
        ("banded", VectorStrategy::Banded),
        ("blocked", VectorStrategy::BlockedCsr),
    ] {
        for (wname, width) in [
            ("i64", VectorWidth::I64),
            ("i32", VectorWidth::I32 { limit: 1 << 24 }),
        ] {
            out.push((
                match (sname, wname) {
                    ("banded", "i64") => "banded/i64",
                    ("banded", "i32") => "banded/i32",
                    ("blocked", "i64") => "blocked/i64",
                    _ => "blocked/i32",
                },
                VectorConfig {
                    enabled: true,
                    strategy,
                    width,
                },
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: for any (graph, self-loop count,
    /// scheme, loads, schedule, workload, horizon), every execution
    /// path produces the same outcome — loads, graph, rotor state,
    /// counters and, on divergence points, the exact error.
    ///
    /// `d° ∈ {0, 1, d, d + 1}` covers SEND(⌊x/d⁺⌋) retaining its
    /// surplus at home, odd `d⁺` (the multiply-high division) and
    /// SEND([x/d⁺]) below its class (`d° < d`), where it has no closed
    /// form and overdraws. ROTOR-ROUTER\* exists only at `d° = d`, so
    /// it always gets that.
    #[test]
    fn all_paths_agree_on_randomized_combos(
        graph_idx in 0usize..5,
        loops_idx in 0usize..4,
        scheme_idx in 0usize..SchemeId::ALL.len(),
        schedule_idx in 0usize..6,
        workload_idx in 0usize..8,
        // The range dips negative so negative-seed rounds — where the
        // pre-round check's ordering against `Overdraw` and `Topology`
        // is decided — are part of the fuzzed space, not a blind spot.
        pattern in proptest::collection::vec(-20i64..120, 4..12),
        steps in 1usize..30,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let d = graph.degree();
        let scheme = SchemeId::from_index(scheme_idx);
        let d_self = scheme.self_loops(d, [0, 1, d, d + 1][loops_idx]);
        let gp = BalancingGraph::with_self_loops(graph, d_self).unwrap();
        let sspec = schedule_for(schedule_idx);
        let wspec = workload_for(workload_idx);
        let mut loads = vec![0i64; n];
        for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
            *slot = value;
        }
        let initial = LoadVector::new(loads);
        let sname = sspec.as_ref().map_or_else(|| "static".into(), ScheduleSpec::label);
        let wname = wspec.as_ref().map_or_else(|| "none".into(), WorkloadSpec::label);
        let tag = format!("{gname}+{d_self}/{sname}/{wname}");

        let reference = drive_step_loop(&gp, scheme, &sspec, &wspec, &initial, steps);
        let whole = drive_reference(&gp, scheme, &sspec, &wspec, &initial, steps);
        whole.assert_matches(&reference, &format!("{scheme:?}: reference on {tag}"));
        let kernel = drive_auto(&gp, scheme, &sspec, &wspec, &initial, steps);
        kernel.assert_matches(&reference, &format!("{scheme:?}: auto on {tag}"));
        if sspec.is_none() && wspec.is_none() {
            // Static, closed runs are where the vector layer dispatches:
            // pin every inner loop, serial and split across 1–4 workers,
            // against the same reference — including the NegativeLoad
            // divergence points the negative seeds in the pattern
            // produce — and the split runs' vector counters against the
            // serial run's.
            for (vlabel, config) in forced_vector_configs() {
                let Some((serial, stats)) =
                    drive_vector(&gp, scheme, &initial, steps, config, None)
                else {
                    continue;
                };
                serial.assert_matches(&reference, &format!("auto[{vlabel}] on {tag}"));
                for threads in 1..=4 {
                    let (par, par_stats) =
                        drive_vector(&gp, scheme, &initial, steps, config, Some(threads))
                            .expect("SEND schemes run in parallel");
                    let label = format!("run_parallel({threads})[{vlabel}] on {tag}");
                    par.assert_matches(&reference, &label);
                    prop_assert_eq!(par_stats, stats, "{}: vector counters", label);
                }
            }
        }
    }
}

/// `steps` naive scatter rounds of `scheme` over `loads`, on the public
/// `KernelBalancer` API alone: the pre-round negative check (for a
/// non-overdrawing scheme), the per-round hook, then each node's rule
/// into one row, rejected with `Overdraw` at the first node that sends
/// more than it holds, and scattered over its neighbour list into a
/// fresh next-load vector that replaces `loads` once the round is
/// complete. Returns the completed rounds and the error that stopped
/// the run.
fn naive_rounds(
    scheme: &mut dyn KernelBalancer,
    gp: &BalancingGraph,
    loads: &mut Vec<i64>,
    steps: usize,
) -> (usize, Option<EngineError>) {
    let check = !scheme.may_overdraw();
    let mut row = vec![0u64; gp.degree_plus()];
    for step in 1..=steps {
        if let Some(node) = loads.iter().position(|&x| check && x < 0) {
            let load = loads[node];
            return (
                step - 1,
                Some(EngineError::NegativeLoad { node, load, step }),
            );
        }
        scheme.begin_round(gp, loads);
        let mut next = loads.clone();
        for (u, &load) in loads.iter().enumerate() {
            scheme.kernel_node(gp, u, load, &mut row);
            let planned: u64 = row.iter().sum();
            if check && planned > load as u64 {
                let err = EngineError::Overdraw {
                    node: u,
                    load,
                    planned,
                    step,
                };
                return (step - 1, Some(err));
            }
            for (&v, &f) in gp.graph().neighbors(u).iter().zip(&row) {
                next[u] -= f as i64;
                next[v as usize] += f as i64;
            }
        }
        *loads = next;
    }
    (steps, None)
}

/// Runs every scheme of the mix on `gp` from `initial` for `steps`
/// static, closed rounds through the naive scatter round,
/// `Path::Auto` and `Path::Reference`, and asserts that all three end
/// with the same loads, step count, rotor state and error. Returns the
/// naive round's errors, scheme by scheme.
fn assert_naive_oracle_agrees(
    gp: &BalancingGraph,
    initial: &LoadVector,
    steps: usize,
    tag: &str,
) -> Vec<Option<EngineError>> {
    let mut errors = Vec::new();
    for scheme in SchemeId::ALL {
        let d_self = gp.degree_plus() - gp.degree();
        if scheme.self_loops(gp.degree(), d_self) != d_self {
            continue;
        }
        let mut inst = Instance::build(scheme, gp, None);
        let mut loads = initial.as_slice().to_vec();
        let (done, error) = naive_rounds(inst.kernel(), gp, &mut loads, steps);
        let naive = (loads, done, inst.rotors(), error.clone());
        for path in [Path::Auto, Path::Reference] {
            let mut inst = Instance::build(scheme, gp, None);
            let mut engine = Engine::new(gp.clone(), initial.clone());
            let run = Run {
                path,
                ..Run::new(steps)
            };
            let error = engine.run(inst.kernel(), run).err();
            let loads = engine.loads().as_slice().to_vec();
            let got = (loads, engine.step_count(), inst.rotors(), error);
            assert_eq!(got, naive, "{scheme:?} on {path:?} at {tag}");
        }
        errors.push(error);
    }
    errors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The independent oracle: on static, closed runs, the naive
    /// scatter round and both engine paths agree for every scheme in
    /// the mix — loads, rotors and, on a negative seed or an overdraw,
    /// the exact error.
    #[test]
    fn naive_scatter_round_agrees_with_both_paths(
        graph_idx in 0usize..5,
        loops_idx in 0usize..4,
        pattern in proptest::collection::vec(-20i64..120, 4..12),
        steps in 1usize..30,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let (n, d) = (graph.num_nodes(), graph.degree());
        let d_self = [0, 1, d, d + 1][loops_idx];
        let gp = BalancingGraph::with_self_loops(graph, d_self).unwrap();
        let loads: Vec<i64> = pattern.iter().copied().cycle().take(n).collect();
        let tag = format!("{gname}+{d_self}, {steps} steps from {pattern:?}");
        assert_naive_oracle_agrees(&gp, &LoadVector::new(loads), steps, &tag);
    }
}

/// The oracle's error paths are reached, not just coded: a negative
/// seed stops every non-overdrawing scheme at step 1, and a node
/// holding fewer than three tokens makes the constant-rate sender
/// overdraw — identically on the naive round and both paths.
#[test]
fn naive_scatter_round_reports_the_same_errors() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    let seeded = LoadVector::new(vec![9, 4, -2, 7, 0, 5, 5, 5]);
    let errors = assert_naive_oracle_agrees(&gp, &seeded, 5, "negative seed");
    assert!(errors.contains(&Some(EngineError::NegativeLoad {
        node: 2,
        load: -2,
        step: 1
    })));
    let thin = LoadVector::new(vec![9, 2, 6, 7, 0, 5, 5, 5]);
    let errors = assert_naive_oracle_agrees(&gp, &thin, 5, "thin node");
    assert!(errors.contains(&Some(EngineError::Overdraw {
        node: 1,
        load: 2,
        planned: 3,
        step: 1
    })));
}

/// A deterministic anchor for the fuzzed property: the unclamped drain
/// must actually produce mid-run `NegativeLoad` divergence points (not
/// silently never fire) **while the topology churns**, and all paths
/// must agree on them — the failed round's topology events rolled back
/// included.
#[test]
fn unclamped_drain_under_churn_produces_identical_negative_divergence() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 12,
    });
    let wspec = Some(WorkloadSpec::DrainUnclamped { rate: 5 });
    let initial = LoadVector::uniform(16, 12);
    let steps = 40;
    let reference = drive_step_loop(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps);
    let err = reference
        .error
        .as_ref()
        .expect("a 5/round unclamped drain must out-pace refill");
    assert!(
        matches!(err, EngineError::NegativeLoad { .. }),
        "unexpected error {err:?}"
    );
    assert!(reference.steps < steps, "error must occur mid-run");
    assert!(
        reference.topology_events > 0,
        "churn must have landed before the divergence point"
    );
    for (label, outcome) in [
        (
            "reference",
            drive_reference(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps),
        ),
        (
            "auto",
            drive_auto(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// Likewise for `Overdraw`: injection erodes a node below `Const3`'s
/// fixed send rate while edges rewire, and every path must reject the
/// same round, rolling back that round's swap.
#[test]
fn injection_eroded_overdraw_under_churn_is_identical_on_every_path() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    // Clamped drain cannot go negative, but it starves the sinks until
    // Const3's fixed send of 3 exceeds what a sink holds: a pure
    // injection-triggered overdraw — under continuous rewiring.
    let sspec = Some(ScheduleSpec::Periodic {
        period: 1,
        swaps: 1,
        seed: 13,
    });
    let wspec = Some(WorkloadSpec::Drain { rate: 2 });
    let initial = LoadVector::uniform(8, 9);
    let steps = 30;
    let reference = drive_step_loop(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps);
    let err = reference.error.as_ref().expect("drain must starve a node");
    assert!(
        matches!(err, EngineError::Overdraw { planned: 3, .. }),
        "unexpected error {err:?}"
    );
    for (label, outcome) in [
        (
            "reference",
            drive_reference(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps),
        ),
        (
            "auto",
            drive_auto(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// The rotor-router's rotor state must agree between the reference and
/// kernel paths under full churn — sleeps must freeze exactly the
/// asleep rotors (drained nodes never send), swaps must not perturb
/// any rotor, and a woken node's rotor must resume from where it
/// stopped.
#[test]
fn rotor_state_is_identical_under_full_churn() {
    let gp = BalancingGraph::lazy(generators::torus(2, 5).unwrap());
    let sspec = Some(ScheduleSpec::Churn {
        period: 3,
        swaps: 1,
        fail_pct: 30,
        max_down: 5,
        seed: 14,
    });
    let wspec = Some(WorkloadSpec::Hotspot { rate: 9 });
    let initial = LoadVector::point_mass(25, 500);
    for scheme in [SchemeId::Rotor, SchemeId::RotorStar] {
        let reference = drive_step_loop(&gp, scheme, &sspec, &wspec, &initial, 40);
        assert!(reference.error.is_none());
        assert!(reference.topology_events > 0, "churn must land");
        assert!(reference.rotors.is_some());
        let kernel = drive_auto(&gp, scheme, &sspec, &wspec, &initial, 40);
        kernel.assert_matches(&reference, "auto rotor state");
        let fast = drive_reference(&gp, scheme, &sspec, &wspec, &initial, 40);
        fast.assert_matches(&reference, "reference rotor state");
    }
}

/// ROTOR-ROUTER\* on every schedule of the battery — sleeping-node
/// schedules included — times every workload, the unclamped drain
/// included: the per-round reference loop, one reference run and the
/// kernel rounds agree on
/// loads, graph, inner rotors and errors. The fuzz above samples this
/// grid; here it is covered whole.
#[test]
fn rotor_star_agrees_on_every_schedule_and_workload() {
    let steps = 30;
    let mut errored = 0;
    for graph_idx in [0, 1] {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::new((0..n as i64).map(|u| 7 * u % 53).collect());
        for schedule_idx in 0..6 {
            let sspec = schedule_for(schedule_idx);
            for workload_idx in 0..8 {
                let wspec = workload_for(workload_idx);
                let tag = format!("{gname}/{schedule_idx}/{workload_idx}");
                let reference =
                    drive_step_loop(&gp, SchemeId::RotorStar, &sspec, &wspec, &initial, steps);
                errored += usize::from(reference.error.is_some());
                let fast =
                    drive_reference(&gp, SchemeId::RotorStar, &sspec, &wspec, &initial, steps);
                fast.assert_matches(&reference, &format!("reference on {tag}"));
                let kernel = drive_auto(&gp, SchemeId::RotorStar, &sspec, &wspec, &initial, steps);
                kernel.assert_matches(&reference, &format!("auto on {tag}"));
            }
        }
    }
    assert!(errored > 0, "the unclamped drain must reach an error round");
}

/// Regression (PR 5 review): in a churning round with no injection
/// phases, the pre-round negative check must still run before any
/// node's rule — otherwise a lower-id `Overdraw` (Const3 at a node below
/// 3) found mid-round could shadow a higher-id negative seed and diverge
/// from the serial error ordering.
#[test]
fn negative_seed_is_not_shadowed_by_overdraw_in_churning_rounds() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 15,
    });
    let wspec = None;
    // Node 2 overdraws under Const3 (load 2 < 3) and node 11 is a
    // negative seed: the serial pre-round check reports node 11 before
    // the round ever reaches node 2.
    let mut loads = vec![7i64; 16];
    loads[2] = 2;
    loads[11] = -4;
    let initial = LoadVector::new(loads);
    let reference = drive_step_loop(&gp, SchemeId::Const3, &sspec, &wspec, &initial, 10);
    assert_eq!(
        reference.error,
        Some(EngineError::NegativeLoad {
            node: 11,
            load: -4,
            step: 1
        })
    );
    for (label, outcome) in [
        (
            "auto",
            drive_auto(&gp, SchemeId::Const3, &sspec, &wspec, &initial, 10),
        ),
        (
            "reference",
            drive_reference(&gp, SchemeId::Const3, &sspec, &wspec, &initial, 10),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// The resume target for the snapshot axis: which path finishes the
/// run after the mid-run state export.
#[derive(Clone, Copy)]
enum ResumePath {
    StepLoop,
    Reference,
    Auto,
    Parallel(usize),
    ForcedVector(VectorConfig),
}

/// A point on the snapshot axis: the round boundary to split at and
/// the path that finishes the run after the resume.
#[derive(Clone, Copy)]
struct SplitPoint {
    split: usize,
    path: ResumePath,
}

/// The snapshot axis: run the per-round reference loop to a chosen round
/// boundary, export the complete engine state plus rotor positions and
/// generator cursors, rebuild **everything** from the export alone,
/// and finish the run on the given path. Returns `None` where the path
/// does not apply to the combination (the parallel path and forced
/// vector configs outside static, closed SEND runs).
fn drive_split_resume(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
    at: SplitPoint,
) -> Option<Outcome> {
    let SplitPoint { split, path } = at;
    if matches!(path, ResumePath::Parallel(_) | ResumePath::ForcedVector(_))
        && !(sspec.is_none() && wspec.is_none() && scheme.is_send())
    {
        return None;
    }

    // Phase 1: the per-round reference loop up to the split boundary.
    let mut inst = Instance::build(scheme, gp, None);
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    for _ in 0..split {
        if let Err(e) = engine.run(
            inst.kernel(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: workload.as_deref_mut(),
                path: Path::Reference,
                ..Run::new(1)
            },
        ) {
            // Errored before the boundary: nothing left to resume; the
            // terminal state itself must match the reference.
            return Some(Outcome::capture(&engine, inst.rotors(), Some(e)));
        }
    }

    // The export: everything a resumed instance is allowed to see.
    let state = engine.export_state();
    let rotor_state = inst.rotors();
    let schedule_cursor = schedule.as_ref().map(|s| s.cursor());
    let workload_cursor = workload.as_ref().map(|w| w.cursor());
    drop((engine, inst, schedule, workload));

    // Phase 2: rebuild from the export and finish on `path`.
    let mut engine = Engine::from_state(state);
    let mut inst = Instance::build(scheme, gp, rotor_state);
    let mut schedule = build_schedule(sspec);
    if let (Some(s), Some(c)) = (&mut schedule, &schedule_cursor) {
        assert!(s.restore_cursor(c), "schedule cursor must restore");
    }
    let mut workload = build_workload(wspec, gp.num_nodes());
    if let (Some(w), Some(c)) = (&mut workload, &workload_cursor) {
        assert!(w.restore_cursor(c), "workload cursor must restore");
    }
    let remaining = steps - split;
    let (mut s, mut w) = (schedule.as_deref_mut(), workload.as_deref_mut());
    let error = match path {
        ResumePath::StepLoop => (0..remaining).find_map(|_| {
            engine
                .run(
                    inst.kernel(),
                    Run {
                        schedule: s.as_deref_mut(),
                        workload: w.as_deref_mut(),
                        path: Path::Reference,
                        ..Run::new(1)
                    },
                )
                .err()
        }),
        ResumePath::Reference => engine
            .run(
                inst.kernel(),
                Run {
                    schedule: s,
                    workload: w,
                    path: Path::Reference,
                    ..Run::new(remaining)
                },
            )
            .err(),
        ResumePath::Auto => engine
            .run(
                inst.kernel(),
                Run {
                    schedule: s,
                    workload: w,
                    ..Run::new(remaining)
                },
            )
            .err(),
        ResumePath::Parallel(threads) => match scheme {
            SchemeId::SendFloor => engine
                .run_parallel(&SendFloor::new(), remaining, threads)
                .err(),
            SchemeId::SendRound => engine
                .run_parallel(&SendRound::new(), remaining, threads)
                .err(),
            _ => unreachable!("gated above"),
        },
        ResumePath::ForcedVector(config) => {
            engine.set_vector_config(config);
            engine.run(inst.kernel(), Run::new(remaining)).err()
        }
    };
    Some(Outcome::capture(&engine, inst.rotors(), error))
}

/// The resume matrix pinned by the snapshot axis.
fn resume_paths() -> Vec<(&'static str, ResumePath)> {
    vec![
        ("step-loop", ResumePath::StepLoop),
        ("reference", ResumePath::Reference),
        ("auto", ResumePath::Auto),
        ("run_parallel(2)", ResumePath::Parallel(2)),
        (
            "auto[banded/i64]",
            ResumePath::ForcedVector(VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I64,
            }),
        ),
        (
            "auto[blocked/i32]",
            ResumePath::ForcedVector(VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I32 { limit: 1 << 24 },
            }),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The snapshot axis: exporting the full engine + generator state
    /// at a fuzzer-chosen round boundary and resuming on any path must
    /// be indistinguishable from the uninterrupted reference — across
    /// churn, injection, and runs that error before or after the
    /// boundary.
    #[test]
    fn snapshot_resume_agrees_on_every_path(
        graph_idx in 0usize..5,
        scheme_idx in 0usize..5,
        schedule_idx in 0usize..6,
        workload_idx in 0usize..8,
        pattern in proptest::collection::vec(-20i64..120, 4..12),
        steps in 1usize..30,
        split_seed in 0usize..64,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let scheme = SchemeId::from_index(scheme_idx);
        let sspec = schedule_for(schedule_idx);
        let wspec = workload_for(workload_idx);
        let mut loads = vec![0i64; n];
        for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
            *slot = value;
        }
        let initial = LoadVector::new(loads);
        let split = split_seed % (steps + 1);
        let sname = sspec.as_ref().map_or_else(|| "static".into(), ScheduleSpec::label);
        let wname = wspec.as_ref().map_or_else(|| "none".into(), WorkloadSpec::label);
        let tag = format!("{gname}/{sname}/{wname}");

        let reference = drive_step_loop(&gp, scheme, &sspec, &wspec, &initial, steps);
        for (label, path) in resume_paths() {
            if let Some(outcome) = drive_split_resume(
                &gp,
                scheme,
                &sspec,
                &wspec,
                &initial,
                steps,
                SplitPoint { split, path },
            ) {
                outcome.assert_matches(
                    &reference,
                    &format!("resume@{split} via {label} on {tag}"),
                );
            }
        }
    }
}

/// A deterministic anchor for the snapshot axis: resuming *before* a
/// known divergence point must still hit the identical error — the
/// restored generator cursors must continue the exact delta/event
/// streams, not restart them (a restarted drain would push the error
/// round later; a restarted schedule would change which swaps landed).
#[test]
fn resume_across_a_divergence_point_reproduces_the_error() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 12,
    });
    let wspec = Some(WorkloadSpec::DrainUnclamped { rate: 5 });
    let initial = LoadVector::uniform(16, 12);
    let steps = 40;
    let reference = drive_step_loop(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps);
    let error_step = match reference.error {
        Some(EngineError::NegativeLoad { step, .. }) => step,
        ref other => panic!("expected a NegativeLoad divergence point, got {other:?}"),
    };
    assert!(error_step > 2, "need room to split before the error");
    for split in [1, error_step - 1, error_step] {
        for (label, path) in resume_paths() {
            if let Some(outcome) = drive_split_resume(
                &gp,
                SchemeId::SendFloor,
                &sspec,
                &wspec,
                &initial,
                steps,
                SplitPoint { split, path },
            ) {
                outcome.assert_matches(&reference, &format!("resume@{split} via {label}"));
            }
        }
    }
}

/// Drives `steps` rounds of `scheme` with `workload` on one of the
/// dynamic paths — 0: one reference round per call, 1: one reference
/// run, 2: one `Path::Auto` run (the kernel rounds), 3: one `Path::Auto`
/// run with a monitor attached (the reference round, recording the
/// ledger) — for inputs the spec-driven drivers cannot build.
fn drive_workload(
    path: usize,
    scheme: SchemeId,
    gp: &BalancingGraph,
    sspec: &Option<ScheduleSpec>,
    workload: &mut dyn Workload,
    initial: &LoadVector,
    steps: usize,
) -> Outcome {
    let mut schedule = build_schedule(sspec);
    let mut inst = Instance::build(scheme, gp, None);
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let mut s = schedule.as_deref_mut();
    let error = match path {
        0 => (0..steps).find_map(|_| {
            engine
                .run(
                    inst.kernel(),
                    Run {
                        schedule: s.as_deref_mut(),
                        workload: Some(&mut *workload),
                        path: Path::Reference,
                        ..Run::new(1)
                    },
                )
                .err()
        }),
        1 => engine
            .run(
                inst.kernel(),
                Run {
                    schedule: s,
                    workload: Some(workload),
                    path: Path::Reference,
                    ..Run::new(steps)
                },
            )
            .err(),
        3 => {
            engine.attach_monitor();
            engine
                .run(
                    inst.kernel(),
                    Run {
                        schedule: s,
                        workload: Some(workload),
                        ..Run::new(steps)
                    },
                )
                .err()
        }
        _ => engine
            .run(
                inst.kernel(),
                Run {
                    schedule: s,
                    workload: Some(workload),
                    ..Run::new(steps)
                },
            )
            .err(),
    };
    Outcome::capture(&engine, inst.rotors(), error)
}

/// The bounded adversary, alone and inside a `Compose`, across every
/// graph family and churn schedule of the battery: the three dynamic
/// paths must agree on the whole outcome, and each must hand the
/// adversary the loads exactly once per injecting round — so its
/// `scans()` tally equals the rounds run on every path.
#[test]
fn bounded_adversary_alone_and_composed_is_identical_on_every_path() {
    let steps = 24;
    for graph_idx in 0..5 {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let initial = LoadVector::point_mass(n, 30 * n as i64);
        for schedule_idx in 0..6 {
            let sspec = schedule_for(schedule_idx);
            let sname = sspec
                .as_ref()
                .map_or_else(|| "static".into(), ScheduleSpec::label);
            for scheme in [SchemeId::Rotor, SchemeId::RotorStar] {
                let mut reference = None;
                for path in 0..3 {
                    let mut alone = BoundedAdversary::new(6);
                    let outcome =
                        drive_workload(path, scheme, &gp, &sspec, &mut alone, &initial, steps);
                    let tag = format!("{scheme:?} adversary via path {path} on {gname}/{sname}");
                    assert_eq!(outcome.error, None, "{tag}");
                    assert_eq!(outcome.injected_total, 6 * steps as i64, "{tag}");
                    assert_eq!(alone.scans(), steps as u64, "{tag}: scans");

                    // The composed adversary's scan tally is the first
                    // frame of the composition's cursor: [1, scans, …].
                    let mut composed = Compose::new(vec![
                        Box::new(BoundedAdversary::new(6)),
                        Box::new(SteadyArrivals::new(5, 3)),
                    ]);
                    let mixed =
                        drive_workload(path, scheme, &gp, &sspec, &mut composed, &initial, steps);
                    let ctag = format!("composed {tag}");
                    assert_eq!(mixed.error, None, "{ctag}");
                    assert_eq!(mixed.injected_total, 11 * steps as i64, "{ctag}");
                    assert_eq!(&composed.cursor()[..2], &[1, steps as u64], "{ctag}: scans");

                    match &reference {
                        None => reference = Some((outcome, mixed)),
                        Some((r_alone, r_mixed)) => {
                            outcome.assert_matches(r_alone, &tag);
                            mixed.assert_matches(r_mixed, &ctag);
                        }
                    }
                }
            }
        }
    }
}

/// Regression: `WorkloadSpec::Hotspot { rate: 1 << 62 }` passes
/// `validate()`, and its second round takes the cumulative injection
/// to 2⁶³. Debug builds used to panic on the overflowing add and
/// release builds wrapped `injected_total` and the load total
/// negative. Every path must now reject round 2 with the same typed
/// error and roll it back whole.
#[test]
fn injection_overflow_is_a_typed_error_rolled_back_on_every_path() {
    let spec = WorkloadSpec::Hotspot { rate: 1 << 62 };
    spec.validate().unwrap();
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    let initial = LoadVector::uniform(8, 1);
    for scheme in [SchemeId::Rotor, SchemeId::RotorStar] {
        let mut reference: Option<Outcome> = None;
        for path in 0..3 {
            let mut workload = spec.build(8);
            let outcome = drive_workload(path, scheme, &gp, &None, workload.as_mut(), &initial, 4);
            let tag = format!("{scheme:?} via path {path}");
            assert_eq!(
                outcome.error,
                Some(EngineError::InjectionOverflow { node: 0, step: 2 }),
                "{tag}"
            );
            assert_eq!(outcome.steps, 1, "{tag}: round 2 rolled back");
            assert_eq!(outcome.injected_total, 1 << 62, "{tag}");
            assert_eq!(
                outcome.loads.iter().sum::<i64>(),
                8 + (1 << 62),
                "{tag}: conservation"
            );
            match &reference {
                None => reference = Some(outcome),
                Some(r) => outcome.assert_matches(r, &tag),
            }
        }
    }
}

/// Regression: a cycle(8) with one node at `i64::MAX − 5` and a
/// hotspot of 30 tokens per round on node 0. No load and no net
/// injection leaves `i64`, but the positive load total does, so the
/// round's flows could form a load past `i64::MAX`: debug builds
/// panicked in routing on the reference and the kernel rounds under the
/// rotor-router, and release builds returned `Ok` with a wrapped load
/// total. Every path must now reject the injecting round with a typed
/// error at the first node in node order whose running positive total
/// passes `i64::MAX`, and roll it back whole — at step 1 for the issue
/// repro, and at step 2 when a 3-token hotspot first crosses the bound
/// there, with step 1 kept.
#[test]
fn positive_total_overflow_is_a_typed_error_rolled_back_on_every_path() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    let mut loads = vec![0; 8];
    loads[1] = i64::MAX - 5;
    let initial = LoadVector::new(loads);
    for scheme in [SchemeId::Rotor, SchemeId::RotorStar, SchemeId::SendFloor] {
        for (rate, failing_step) in [(30i64, 1usize), (3, 2)] {
            let mut reference: Option<Outcome> = None;
            for path in 0..4 {
                let mut workload = Hotspot::new(0, rate as u64);
                let outcome = drive_workload(path, scheme, &gp, &None, &mut workload, &initial, 2);
                let tag = format!("{scheme:?} hotspot(+{rate}) via path {path}");
                let Some(EngineError::InjectionOverflow { node, step }) = outcome.error else {
                    panic!(
                        "{tag}: expected an injection overflow, got {:?}",
                        outcome.error
                    );
                };
                assert_eq!(step, failing_step, "{tag}");
                if failing_step == 1 {
                    assert_eq!(node, 1, "{tag}: node 1 carries the total past i64::MAX");
                    assert_eq!(outcome.loads, initial.as_slice(), "{tag}: rolled back");
                }
                assert_eq!(outcome.steps, failing_step - 1, "{tag}: steps kept");
                let kept = rate * (failing_step as i64 - 1);
                assert_eq!(outcome.injected_total, kept, "{tag}");
                assert_eq!(
                    outcome.loads.iter().sum::<i64>(),
                    i64::MAX - 5 + kept,
                    "{tag}: conservation"
                );
                assert!(
                    outcome.loads.iter().all(|&x| x >= 0),
                    "{tag}: no wrapped load"
                );
                match &reference {
                    None => reference = Some(outcome),
                    Some(r) => outcome.assert_matches(r, &tag),
                }
            }
        }
    }
}
