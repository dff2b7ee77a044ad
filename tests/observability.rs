//! PR 10 observability contracts, tested end to end through the `dlb`
//! facade:
//!
//! * **differential bit-identity** — every execution path (per-step
//!   serial, batched serial, fused fast, delta-kernel, range-split
//!   vector) run
//!   twice, once with a recording [`RingSink`] and once through its
//!   untraced entry point, under closed / injected / churned
//!   configurations: loads, step counts, topology events and every
//!   `fill_metrics` counter must match exactly;
//! * **counter semantics** — the engine's cumulative counters
//!   accumulate across chunked runs exactly like one long run, ride
//!   through `export_state` / `from_state`, and `fill_metrics` is
//!   idempotent;
//! * **probe decoding** — `VectorDispatch` instants carry
//!   `(tag << 32) | count` and reconcile against the engine's own
//!   vector counters; the ring sink's per-phase accumulators stay
//!   exact under overwrite;
//! * **overhead gate** — the RingSink build of the flagship kernel
//!   cell (cycle × SEND(floor), vector dispatch; the cell the retired
//!   `t1` throughput sweep led with) must stay within 5% of the
//!   NoopSink build. This is the repository's one tracing-overhead
//!   gate.

use dlb::core::schemes::{RotorRouter, SendFloor};
use dlb::core::{Engine, LoadVector, NoWorkload, StaticTopology};
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::obs::{EventKind, MetricRegistry, Phase, RingSink};
use dlb::scenario::WorkloadSpec;
use dlb::topology::ScheduleSpec;

fn cycle(n: usize) -> BalancingGraph {
    BalancingGraph::lazy(generators::cycle(n).unwrap())
}

fn point_mass(n: usize) -> LoadVector {
    LoadVector::point_mass(n, 16 * n as i64)
}

/// Every `engine_*` metric the engine publishes, as a sorted list the
/// tests can compare wholesale.
fn metrics_of(engine: &Engine) -> Vec<(String, u64)> {
    let mut reg = MetricRegistry::new();
    engine.fill_metrics(&mut reg);
    let mut out: Vec<(String, u64)> = reg
        .counters()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    out.push((
        "engine_injected_net".to_string(),
        reg.gauge("engine_injected_net").unwrap_or(0) as u64,
    ));
    out.sort();
    out
}

fn assert_twin(traced: &Engine, twin: &Engine, path: &str) {
    assert_eq!(traced.loads(), twin.loads(), "{path}: loads diverged");
    assert_eq!(
        metrics_of(traced),
        metrics_of(twin),
        "{path}: counters diverged"
    );
}

/// The churn + injection ingredients every dynamic cell uses; rebuilt
/// per engine so traced and untraced twins see identical streams.
fn churn() -> ScheduleSpec {
    ScheduleSpec::Periodic {
        period: 3,
        swaps: 2,
        seed: 23,
    }
}

fn steady() -> WorkloadSpec {
    WorkloadSpec::Steady { rate: 8, seed: 29 }
}

#[test]
fn per_step_serial_path_is_bit_identical_under_any_sink() {
    let n = 64;
    let steps = 40;
    let mut sink = RingSink::with_capacity(steps * 8);

    let mut traced = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    for _ in 0..steps {
        traced
            .step_dyn_traced(
                &mut SendFloor::new(),
                schedule.as_deref_mut(),
                Some(workload.as_mut()),
                &mut sink,
            )
            .unwrap();
    }

    let mut twin = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    for _ in 0..steps {
        twin.step_dyn(
            &mut SendFloor::new(),
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
        )
        .unwrap();
    }

    assert_twin(&traced, &twin, "step_dyn");
    // The per-step path runs the full round structure, so every probe
    // point must have fired: mutate (periodic schedule), inject,
    // plan, validate, route.
    for phase in [
        Phase::Mutate,
        Phase::Inject,
        Phase::Plan,
        Phase::Validate,
        Phase::Route,
    ] {
        assert!(
            sink.phase_count(phase) > 0,
            "no {} spans recorded",
            phase.name()
        );
    }
}

#[test]
fn batched_and_fast_paths_are_bit_identical_under_any_sink() {
    let n = 64;
    let steps = 48;

    // Batched instrumented loop, closed system.
    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    traced
        .run_dyn_traced(&mut SendFloor::new(), steps, None, None, &mut sink)
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    twin.run_dyn(&mut SendFloor::new(), steps, None, None)
        .unwrap();
    assert_twin(&traced, &twin, "run_dyn");
    assert!(sink.phase_count(Phase::Plan) as usize >= steps);

    // Fused fast path under churn + injection.
    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    traced
        .run_fast_dyn_traced(
            &mut SendFloor::new(),
            steps,
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
            &mut sink,
        )
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    twin.run_fast_dyn(
        &mut SendFloor::new(),
        steps,
        schedule.as_deref_mut(),
        Some(workload.as_mut()),
    )
    .unwrap();
    assert_twin(&traced, &twin, "run_fast_dyn");
    assert!(sink.phase_count(Phase::Inject) > 0);
}

#[test]
fn kernel_and_sharded_paths_are_bit_identical_under_any_sink() {
    let n = 128;
    let steps = 32;

    // Plan-free delta-kernel path (stateful scheme → scalar stream).
    let gp = cycle(n);
    let mut sink = RingSink::with_capacity(steps * 4);
    let mut traced = Engine::new(gp.clone(), point_mass(n));
    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
    traced
        .run_kernel_dyn_traced(
            &mut rotor,
            steps,
            None::<&mut StaticTopology>,
            None::<&mut NoWorkload>,
            &mut sink,
        )
        .unwrap();
    let mut twin = Engine::new(gp.clone(), point_mass(n));
    let mut rotor_twin = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
    twin.run_kernel(&mut rotor_twin, steps).unwrap();
    assert_twin(&traced, &twin, "run_kernel_dyn");
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);

    // Range-split vector rounds, 2 workers: the same VectorDispatch
    // instants `run_kernel` emits, summing to the rounds run.
    let mut sink = RingSink::with_capacity(64);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    traced
        .run_parallel_traced(&SendFloor::new(), steps, 2, &mut sink)
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    twin.run_parallel(&SendFloor::new(), steps, 2).unwrap();
    assert_twin(&traced, &twin, "run_parallel");
    let mut kernel = Engine::new(cycle(n), point_mass(n));
    kernel.run_kernel(&mut SendFloor::new(), steps).unwrap();
    assert_twin(&traced, &kernel, "run_parallel vs run_kernel");
    let mut by_tag = [0u64; 5];
    for ev in sink.events() {
        assert_eq!(
            ev.phase,
            Phase::VectorDispatch,
            "vector rounds emit only instants"
        );
        assert_eq!(ev.kind, EventKind::Instant);
        by_tag[(ev.value >> 32) as usize] += ev.value & 0xffff_ffff;
    }
    assert_eq!(
        by_tag[1] + by_tag[2],
        steps as u64,
        "banded + blocked instants sum to the rounds run"
    );
    assert_eq!(by_tag[3], steps as u64, "every round ran at i32");
}

/// An open, churning SEND(⌊x/d⁺⌋) run streams the closed form inside
/// scalar kernel rounds: one `Stream` span per round and not a single
/// vector dispatch — what keeps a traced reconciliation of such runs
/// on its span-based branch.
#[test]
fn open_churning_send_rounds_stay_scalar_kernel_rounds() {
    let n = 128;
    let steps = 48;
    let run = |sink: Option<&mut RingSink>| {
        let mut engine = Engine::new(cycle(n), point_mass(n));
        let mut schedule = churn().build().unwrap();
        let mut workload = steady().build(n);
        let (s, w) = (Some(schedule.as_mut()), Some(workload.as_mut()));
        let mut bal = SendFloor::new();
        match sink {
            Some(sink) => engine.run_kernel_dyn_traced(&mut bal, steps, s, w, sink),
            None => engine.run_kernel_dyn(&mut bal, steps, s, w),
        }
        .unwrap();
        engine
    };
    let mut sink = RingSink::with_capacity(steps * 8);
    let traced = run(Some(&mut sink));
    assert_twin(&traced, &run(None), "run_kernel_dyn under churn");
    assert!(traced.topology_events_applied() > 0);
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);
    assert!(sink.phase_count(Phase::Inject) > 0);
    assert_eq!(sink.phase_count(Phase::VectorDispatch), 0);
    assert!(sink
        .events()
        .iter()
        .all(|ev| ev.phase != Phase::VectorDispatch));
    assert_eq!(*traced.vector_stats(), Default::default());
}

#[test]
fn counters_accumulate_across_chunked_runs() {
    let n = 96;
    // One engine driven in 4 × 32-step chunks, with the schedule and
    // workload instances living across the chunk boundaries, must
    // report exactly the counters of one uninterrupted 128-step run.
    let mut chunked = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    for _ in 0..4 {
        chunked
            .run_fast_dyn(
                &mut SendFloor::new(),
                32,
                schedule.as_deref_mut(),
                Some(workload.as_mut()),
            )
            .unwrap();
    }

    let mut oneshot = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    oneshot
        .run_fast_dyn(
            &mut SendFloor::new(),
            128,
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
        )
        .unwrap();

    assert_twin(&chunked, &oneshot, "chunked vs one-shot");
    assert_eq!(chunked.step_count(), 128);
    // Mixing execution paths keeps accumulating into the same
    // counters: a kernel leg on top must move steps and vector stats
    // without resetting anything.
    let before = metrics_of(&chunked);
    chunked.run_kernel(&mut SendFloor::new(), 8).unwrap();
    let after = metrics_of(&chunked);
    assert_eq!(chunked.step_count(), 136);
    let get = |m: &[(String, u64)], k: &str| m.iter().find(|(n, _)| n == k).unwrap().1;
    assert!(get(&after, "engine_steps_total") > get(&before, "engine_steps_total"));
    assert!(
        get(&after, "engine_topology_events_applied_total")
            >= get(&before, "engine_topology_events_applied_total")
    );
}

#[test]
fn counters_ride_snapshot_resume() {
    let n = 96;
    // Schedule and workload live in the test across the snapshot
    // boundary (checkpointing them is the scenario layer's job); the
    // engine-side counters must continue, not reset.
    let mut first = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    first
        .run_fast_dyn(
            &mut SendFloor::new(),
            64,
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
        )
        .unwrap();
    let snapshot = first.export_state();
    let mut resumed = Engine::from_state(snapshot);
    assert_eq!(metrics_of(&first), metrics_of(&resumed));
    resumed
        .run_fast_dyn(
            &mut SendFloor::new(),
            64,
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
        )
        .unwrap();

    let mut uninterrupted = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    uninterrupted
        .run_fast_dyn(
            &mut SendFloor::new(),
            128,
            schedule.as_deref_mut(),
            Some(workload.as_mut()),
        )
        .unwrap();

    assert_twin(
        &resumed,
        &uninterrupted,
        "snapshot-resumed vs uninterrupted",
    );
    assert_eq!(resumed.step_count(), 128);
}

#[test]
fn fill_metrics_is_idempotent_and_negative_rescans_stay_zero() {
    let n = 256;
    let mut engine = Engine::new(cycle(n), point_mass(n));
    engine.run_kernel(&mut SendFloor::new(), 32).unwrap();
    engine.run(&mut SendFloor::new(), 16).unwrap();

    let mut reg = MetricRegistry::new();
    engine.fill_metrics(&mut reg);
    let first: Vec<(String, u64)> = reg.counters().map(|(n, v)| (n.to_string(), v)).collect();
    // Cumulative counters are *set*, not added: filling again into the
    // same registry must not double anything.
    engine.fill_metrics(&mut reg);
    let second: Vec<(String, u64)> = reg.counters().map(|(n, v)| (n.to_string(), v)).collect();
    assert_eq!(first, second);

    assert_eq!(reg.counter("engine_steps_total"), 48);
    // Both the streaming apply and the vectorized rounds maintain the
    // negative count incrementally — the full-rescan counter is
    // pinned at zero.
    assert_eq!(reg.counter("engine_negative_rescans_total"), 0);
    assert!(reg.counter("engine_vector_runs_total") > 0);
    // And the rendered exposition carries the same numbers.
    let text = reg.render_prometheus();
    assert!(text.contains("engine_steps_total 48"));
}

#[test]
fn vector_dispatch_instants_reconcile_with_engine_counters() {
    let n = 512;
    let steps = 24;
    let mut sink = RingSink::with_capacity(64);
    let mut engine = Engine::new(cycle(n), point_mass(n));
    engine
        .run_kernel_dyn_traced(
            &mut SendFloor::new(),
            steps,
            None::<&mut StaticTopology>,
            None::<&mut NoWorkload>,
            &mut sink,
        )
        .unwrap();

    let stats = *engine.vector_stats();
    assert!(stats.runs > 0, "SEND(floor) on a cycle should vectorize");

    // Each instant carries (tag << 32) | count; per tag the counts
    // must sum to exactly the engine's own counter for that series.
    let mut by_tag = [0u64; 5];
    for ev in sink.events() {
        if ev.phase == Phase::VectorDispatch {
            assert_eq!(ev.kind, EventKind::Instant);
            let tag = (ev.value >> 32) as usize;
            assert!(tag <= 4, "unknown VectorDispatch tag {tag}");
            by_tag[tag] += ev.value & 0xffff_ffff;
        }
    }
    assert_eq!(by_tag[1], stats.rounds_banded);
    assert_eq!(by_tag[2], stats.rounds_blocked);
    assert_eq!(by_tag[3], stats.rounds_i32);
    assert_eq!(by_tag[4], stats.i32_fallbacks);
    assert_eq!(by_tag[0], 0, "dispatch declined on the flagship cell");
    assert_eq!(
        stats.rounds_banded + stats.rounds_blocked,
        steps as u64,
        "every round went through a vector strategy"
    );
}

#[test]
fn ring_sink_accumulators_stay_exact_under_overwrite() {
    let n = 64;
    let steps = 64;
    // A deliberately tiny ring: retention drops events, the exact
    // per-phase accumulators must not.
    let mut sink = RingSink::with_capacity(8);
    let mut engine = Engine::new(cycle(n), point_mass(n));
    engine
        .run_dyn_traced(&mut SendFloor::new(), steps, None, None, &mut sink)
        .unwrap();

    assert!(sink.dropped() > 0, "the tiny ring should have overflowed");
    assert_eq!(sink.events().len(), 8);
    let by_phase: u64 = Phase::all().iter().map(|&p| sink.phase_count(p)).sum();
    assert_eq!(by_phase, sink.recorded());
    assert_eq!(sink.phase_count(Phase::Route) as usize, steps);
}

#[test]
fn ring_sink_overhead_within_five_percent_on_t1_quick_cell() {
    use std::time::Instant;

    // Quick edition of the flagship kernel cell (cycle × SEND(floor),
    // vector dispatch): the RingSink build must stay within 5% of the
    // NoopSink build. The vector path emits a handful of instants per
    // *run*, so the tracing cost is structurally O(1) — the retries
    // only absorb scheduler noise on loaded CI machines.
    let n = 16_384;
    let steps = 48;
    let reps = 5;
    let gp = cycle(n);
    let initial = point_mass(n);

    let time_run = |sink_enabled: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut engine = Engine::new(gp.clone(), initial.clone());
            let t = Instant::now();
            if sink_enabled {
                let mut sink = RingSink::with_capacity(256);
                engine
                    .run_kernel_dyn_traced(
                        &mut SendFloor::new(),
                        steps,
                        None::<&mut StaticTopology>,
                        None::<&mut NoWorkload>,
                        &mut sink,
                    )
                    .unwrap();
            } else {
                engine.run_kernel(&mut SendFloor::new(), steps).unwrap();
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };

    let mut last_ratio = f64::INFINITY;
    for _ in 0..3 {
        let noop = time_run(false);
        let ring = time_run(true);
        last_ratio = ring / noop;
        if last_ratio <= 1.05 {
            return;
        }
    }
    panic!("RingSink overhead {last_ratio:.3}x exceeds the 1.05x gate");
}
