//! PR 10 observability contracts, tested end to end through the `dlb`
//! facade:
//!
//! * **differential bit-identity** — every execution path (per-round
//!   reference, batched reference, scalar kernel, range-split vector) run
//!   twice, once with a recording [`RingSink`] and once untraced,
//!   under closed / injected / churned
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
//! * **event budget** — a traced vector run of the flagship kernel
//!   cell (cycle × SEND(floor)) records only its per-call
//!   `VectorDispatch` instants, nothing per node or per round; the
//!   cost of a recording sink is timed by perfbench's
//!   `obs.trace_overhead`, not here.

use dlb::core::schemes::{RotorRouter, SendFloor};
use dlb::core::{Engine, LoadVector, Path, Run};
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
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: schedule.as_deref_mut(),
                    workload: Some(workload.as_mut()),
                    sink: Some(&mut sink),
                    path: Path::Reference,
                    ..Run::new(1)
                },
            )
            .unwrap();
    }

    let mut twin = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    for _ in 0..steps {
        twin.run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                path: Path::Reference,
                ..Run::new(1)
            },
        )
        .unwrap();
    }

    assert_twin(&traced, &twin, "per-round reference");
    // The per-step path runs the full round structure, so every probe
    // point must have fired: mutate (periodic schedule), inject, and
    // one stream span per round.
    for phase in [Phase::Mutate, Phase::Inject] {
        assert!(
            sink.phase_count(phase) > 0,
            "no {} spans recorded",
            phase.name()
        );
    }
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);
}

#[test]
fn batched_and_fast_paths_are_bit_identical_under_any_sink() {
    let n = 64;
    let steps = 48;

    // Batched reference rounds, closed system.
    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    traced
        .run(
            &mut SendFloor::new(),
            Run {
                sink: Some(&mut sink),
                path: Path::Reference,
                ..Run::new(steps)
            },
        )
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    twin.run(
        &mut SendFloor::new(),
        Run {
            path: Path::Reference,
            ..Run::new(steps)
        },
    )
    .unwrap();
    assert_twin(&traced, &twin, "reference run");
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);

    // Batched reference rounds under churn + injection.
    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    traced
        .run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                sink: Some(&mut sink),
                path: Path::Reference,
                ..Run::new(steps)
            },
        )
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    twin.run(
        &mut SendFloor::new(),
        Run {
            schedule: schedule.as_deref_mut(),
            workload: Some(workload.as_mut()),
            path: Path::Reference,
            ..Run::new(steps)
        },
    )
    .unwrap();
    assert_twin(&traced, &twin, "reference run under churn");
    assert!(sink.phase_count(Phase::Inject) > 0);
}

#[test]
fn kernel_and_sharded_paths_are_bit_identical_under_any_sink() {
    let n = 128;
    let steps = 32;

    // Scalar kernel path (stateful scheme → flow-buffer stream).
    let gp = cycle(n);
    let mut sink = RingSink::with_capacity(steps * 4);
    let mut traced = Engine::new(gp.clone(), point_mass(n));
    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
    traced
        .run(
            &mut rotor,
            Run {
                sink: Some(&mut sink),
                ..Run::new(steps)
            },
        )
        .unwrap();
    let mut twin = Engine::new(gp.clone(), point_mass(n));
    let mut rotor_twin = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
    twin.run(&mut rotor_twin, Run::new(steps)).unwrap();
    assert_twin(&traced, &twin, "kernel rounds");
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);

    // Range-split vector rounds, 2 workers: the same VectorDispatch
    // instants `Engine::run` emits, summing to the rounds run.
    let mut sink = RingSink::with_capacity(64);
    let mut traced = Engine::new(cycle(n), point_mass(n));
    traced
        .run_parallel_traced(&SendFloor::new(), steps, 2, &mut sink)
        .unwrap();
    let mut twin = Engine::new(cycle(n), point_mass(n));
    twin.run_parallel(&SendFloor::new(), steps, 2).unwrap();
    assert_twin(&traced, &twin, "run_parallel");
    let mut kernel = Engine::new(cycle(n), point_mass(n));
    kernel.run(&mut SendFloor::new(), Run::new(steps)).unwrap();
    assert_twin(&traced, &kernel, "run_parallel vs run");
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
            Some(sink) => engine.run(
                &mut bal,
                Run {
                    schedule: s,
                    workload: w,
                    sink: Some(sink),
                    ..Run::new(steps)
                },
            ),
            None => engine.run(
                &mut bal,
                Run {
                    schedule: s,
                    workload: w,
                    ..Run::new(steps)
                },
            ),
        }
        .unwrap();
        engine
    };
    let mut sink = RingSink::with_capacity(steps * 8);
    let traced = run(Some(&mut sink));
    assert_twin(&traced, &run(None), "kernel rounds under churn");
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

/// Under churn × injection the two paths of `Engine::run` are one
/// semantics: `Path::Reference` and `Path::Auto` (the kernel rounds)
/// agree on loads, graph, rotors and every `fill_metrics` counter, for
/// a closed-form and a stateful kernel scheme.
#[test]
fn planned_and_auto_paths_agree_under_churn_and_injection() {
    let n = 96;
    let steps = 64;
    let gp = cycle(n);
    let run = |rotor: bool, path: Path| {
        let mut engine = Engine::new(gp.clone(), point_mass(n));
        let mut schedule = churn().build().unwrap();
        let mut workload = steady().build(n);
        let mut rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let run = Run {
            schedule: Some(schedule.as_mut()),
            workload: Some(workload.as_mut()),
            path,
            ..Run::new(steps)
        };
        if rotor {
            engine.run(&mut rr, run).unwrap();
        } else {
            engine.run(&mut SendFloor::new(), run).unwrap();
        }
        (engine, rr.rotors().to_vec())
    };
    for rotor in [false, true] {
        let (planned, planned_rotors) = run(rotor, Path::Reference);
        let (auto, auto_rotors) = run(rotor, Path::Auto);
        let tag = if rotor { "rotor-router" } else { "send-floor" };
        assert_twin(&auto, &planned, tag);
        assert_eq!(auto.graph(), planned.graph(), "{tag}: graph");
        assert_eq!(auto_rotors, planned_rotors, "{tag}: rotors");
        assert!(planned.topology_events_applied() > 0, "{tag}: churn landed");
        assert!(planned.injected_total() > 0, "{tag}: injection landed");
    }
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
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: schedule.as_deref_mut(),
                    workload: Some(workload.as_mut()),
                    path: Path::Reference,
                    ..Run::new(32)
                },
            )
            .unwrap();
    }

    let mut oneshot = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    oneshot
        .run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                path: Path::Reference,
                ..Run::new(128)
            },
        )
        .unwrap();

    assert_twin(&chunked, &oneshot, "chunked vs one-shot");
    assert_eq!(chunked.step_count(), 128);
    // Mixing execution paths keeps accumulating into the same
    // counters: a kernel leg on top must move steps and vector stats
    // without resetting anything.
    let before = metrics_of(&chunked);
    chunked.run(&mut SendFloor::new(), Run::new(8)).unwrap();
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
        .run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                path: Path::Reference,
                ..Run::new(64)
            },
        )
        .unwrap();
    let snapshot = first.export_state();
    let mut resumed = Engine::from_state(snapshot);
    assert_eq!(metrics_of(&first), metrics_of(&resumed));
    resumed
        .run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                path: Path::Reference,
                ..Run::new(64)
            },
        )
        .unwrap();

    let mut uninterrupted = Engine::new(cycle(n), point_mass(n));
    let mut schedule = churn().build();
    let mut workload = steady().build(n);
    uninterrupted
        .run(
            &mut SendFloor::new(),
            Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(workload.as_mut()),
                path: Path::Reference,
                ..Run::new(128)
            },
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
fn fill_metrics_is_idempotent_and_matches_the_exposition() {
    let n = 256;
    let mut engine = Engine::new(cycle(n), point_mass(n));
    engine.run(&mut SendFloor::new(), Run::new(32)).unwrap();
    engine.run(&mut SendFloor::new(), Run::new(16)).unwrap();

    let mut reg = MetricRegistry::new();
    engine.fill_metrics(&mut reg);
    let first: Vec<(String, u64)> = reg.counters().map(|(n, v)| (n.to_string(), v)).collect();
    // Cumulative counters are *set*, not added: filling again into the
    // same registry must not double anything.
    engine.fill_metrics(&mut reg);
    let second: Vec<(String, u64)> = reg.counters().map(|(n, v)| (n.to_string(), v)).collect();
    assert_eq!(first, second);

    assert_eq!(reg.counter("engine_steps_total"), 48);
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
        .run(
            &mut SendFloor::new(),
            Run {
                sink: Some(&mut sink),
                ..Run::new(steps)
            },
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
        .run(
            &mut SendFloor::new(),
            Run {
                sink: Some(&mut sink),
                path: Path::Reference,
                ..Run::new(steps)
            },
        )
        .unwrap();

    assert!(sink.dropped() > 0, "the tiny ring should have overflowed");
    assert_eq!(sink.events().len(), 8);
    let by_phase: u64 = Phase::all().iter().map(|&p| sink.phase_count(p)).sum();
    assert_eq!(by_phase, sink.recorded());
    assert_eq!(sink.phase_count(Phase::Stream) as usize, steps);
}

/// The flagship kernel cell (cycle × SEND(floor), vector dispatch),
/// traced: a run records only its per-call `VectorDispatch` instants —
/// one per dispatch counter that moved — and nothing per node or per
/// round, so doubling the rounds records the same events.
#[test]
fn traced_vector_run_emits_only_per_call_dispatch_instants() {
    let n = 16_384;
    let events = |steps: usize| {
        let mut sink = RingSink::with_capacity(256);
        let mut engine = Engine::new(cycle(n), point_mass(n));
        let run = Run {
            sink: Some(&mut sink),
            ..Run::new(steps)
        };
        engine.run(&mut SendFloor::new(), run).unwrap();
        assert_eq!(engine.vector_stats().runs, 1, "{steps} rounds vectorize");
        assert_eq!(sink.dropped(), 0);
        let events = sink.events();
        assert!(
            events
                .iter()
                .all(|ev| ev.kind == EventKind::Instant && ev.phase == Phase::VectorDispatch),
            "{events:?}"
        );
        events.iter().map(|ev| ev.value >> 32).collect::<Vec<_>>()
    };
    let tags = events(48);
    assert!((1..=4).contains(&tags.len()), "tags {tags:?}");
    assert_eq!(events(96), tags);
}
