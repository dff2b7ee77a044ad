//! End-to-end contracts of the serving layer: snapshot/resume
//! bit-identity at every round boundary, journal replay fidelity
//! (including erroring tenants), the journal's sliding window of
//! rounds, and schedule-independence of the batch scheduler.

use dlb_core::{EngineError, LoadVector};
use dlb_graph::{generators, BalancingGraph};
use dlb_obs::{EventKind, Phase, RingSink};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{SchemeKind, Server, Tenant, TenantError, TenantSnapshot, MAX_ROUND_ITEMS, WINDOW};
use dlb_topology::ScheduleSpec;

fn lazy_cycle(n: usize) -> BalancingGraph {
    BalancingGraph::lazy(generators::cycle(n).unwrap())
}

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SendFloor,
    SchemeKind::SendRound,
    SchemeKind::RotorRouter,
    SchemeKind::RotorRouterStar,
];

fn churny_tenant(scheme: SchemeKind) -> Tenant {
    Tenant::new(
        lazy_cycle(16),
        LoadVector::point_mass(16, 320),
        scheme,
        Some(WorkloadSpec::Bursty {
            on: 3,
            off: 2,
            rate: 16,
            seed: 9,
        }),
        ScheduleSpec::Periodic {
            period: 3,
            swaps: 2,
            seed: 11,
        },
    )
    .unwrap()
}

/// The tentpole contract: a tenant snapshotted at ANY round boundary
/// and resumed in a fresh instance finishes bit-identically to the
/// uninterrupted run — for every scheme, under churn and injection
/// simultaneously.
#[test]
fn snapshot_resume_is_bit_identical_at_every_round_boundary() {
    const ROUNDS: usize = 20;
    for scheme in SCHEMES {
        let mut reference = churny_tenant(scheme);
        assert!(reference.run_rounds(ROUNDS));
        let expected = reference.outcome();
        assert!(
            expected.topology_events_applied > 0,
            "{:?}: churn must actually fire",
            scheme
        );
        assert_ne!(
            expected.injected_total, 0,
            "{scheme:?}: injection must fire"
        );

        for split in 0..=ROUNDS {
            let mut live = churny_tenant(scheme);
            if split > 0 {
                assert!(live.run_rounds(split));
            }
            let snap = live.snapshot();
            let mut resumed = Tenant::resume_from_snapshot(&snap).unwrap();
            assert_eq!(resumed.rounds_done(), split);
            if split < ROUNDS {
                assert!(resumed.run_rounds(ROUNDS - split));
            }
            assert_eq!(
                resumed.outcome(),
                expected,
                "{scheme:?} diverged after resume at round {split}"
            );
        }
    }
}

/// Journal replay reproduces the live tenant across multiple scheduler
/// slices (the journal spans several `run_rounds` batches).
#[test]
fn journal_replay_matches_live_state_across_slices() {
    for scheme in SCHEMES {
        let mut tenant = churny_tenant(scheme);
        for _ in 0..3 {
            assert!(tenant.run_rounds(5));
        }
        assert!(
            tenant.replay_matches().unwrap(),
            "{scheme:?}: replay diverged from live state"
        );
        let contents = tenant.journal().decode().unwrap();
        assert_eq!(contents.through_round, 15);
        assert!(!contents.rounds.is_empty());
    }
}

/// How a tenant's rounds are batched must not change what its journal
/// records: 48 rounds under churn (swaps, sleeps, wakes) and steady
/// arrivals, run in batches of 1, 5 or 16, decode to the same round
/// records as the same 48 rounds run in one batch. Only the number of
/// advance records differs.
#[test]
fn journal_round_records_do_not_depend_on_batching() {
    const ROUNDS: usize = 48;
    let tenant = |scheme| {
        Tenant::new(
            lazy_cycle(12),
            LoadVector::point_mass(12, 300),
            scheme,
            Some(WorkloadSpec::Steady { rate: 5, seed: 2 }),
            ScheduleSpec::Churn {
                period: 3,
                swaps: 1,
                fail_pct: 30,
                max_down: 2,
                seed: 5,
            },
        )
        .unwrap()
    };
    for scheme in SCHEMES {
        let mut whole = tenant(scheme);
        assert!(whole.run_rounds(ROUNDS));
        let expected = whole.journal().decode().unwrap();
        assert!(
            expected.rounds.iter().any(|r| !r.events.is_empty()),
            "{scheme:?}: churn must be recorded"
        );
        assert!(
            expected.rounds.iter().any(|r| !r.deltas.is_empty()),
            "{scheme:?}: injection must be recorded"
        );
        for batch in [1, 5, 16] {
            let mut batched = tenant(scheme);
            let mut done = 0;
            while done < ROUNDS {
                let rounds = batch.min(ROUNDS - done);
                assert!(batched.run_rounds(rounds));
                done += rounds;
            }
            let contents = batched.journal().decode().unwrap();
            assert_eq!(
                contents.rounds, expected.rounds,
                "{scheme:?}: batches of {batch}"
            );
            assert_eq!(contents.through_round, ROUNDS as u64);
            assert_eq!(batched.outcome(), whole.outcome(), "{scheme:?}");
        }
    }
}

/// A journal opened at a snapshot boundary (resumed tenant) replays
/// from that snapshot, not from round zero.
#[test]
fn resumed_tenants_journal_from_their_snapshot() {
    let mut tenant = churny_tenant(SchemeKind::RotorRouter);
    assert!(tenant.run_rounds(8));
    let mut resumed = Tenant::resume_from_snapshot(&tenant.snapshot()).unwrap();
    assert!(resumed.run_rounds(6));
    let contents = resumed.journal().decode().unwrap();
    assert_eq!(contents.base.engine.step, 8);
    assert_eq!(contents.through_round, 14);
    assert!(resumed.replay_matches().unwrap());
}

/// An erroring tenant stops, stays stopped, and its journal replays
/// the error bit-identically (same variant, same step, same rolled-
/// back state).
#[test]
fn errored_tenants_stop_and_replay_reproduces_the_error() {
    let mut tenant = Tenant::new(
        lazy_cycle(8),
        LoadVector::uniform(8, 2),
        SchemeKind::SendFloor,
        Some(WorkloadSpec::DrainUnclamped { rate: 50 }),
        ScheduleSpec::Static,
    )
    .unwrap();
    assert!(!tenant.run_rounds(50), "the drain must push loads negative");
    let error = tenant.error().cloned().expect("tenant must have stopped");
    assert!(
        matches!(error, EngineError::NegativeLoad { .. }),
        "{error:?}"
    );

    // Stopped tenants are no-ops.
    let rounds = tenant.rounds_done();
    assert!(!tenant.run_rounds(10));
    assert_eq!(tenant.rounds_done(), rounds);

    // Replay reproduces the identical error and final state.
    assert!(tenant.replay_matches().unwrap());
    let replayed = Tenant::replay(tenant.journal()).unwrap();
    assert_eq!(replayed.error, Some(error));

    // A snapshot of the stopped tenant carries the error through
    // resume.
    let resumed = Tenant::resume_from_snapshot(&tenant.snapshot()).unwrap();
    assert_eq!(resumed.error(), tenant.error());
}

/// An injection that overflows `i64` (a hotspot rate that passes
/// `validate()` but doubles past 2⁶³ in round 2) stops the tenant with
/// the typed error, which the journal replays and a snapshot carries.
#[test]
fn injection_overflow_stops_the_tenant_and_survives_snapshot_and_replay() {
    let mut tenant = Tenant::new(
        lazy_cycle(8),
        LoadVector::uniform(8, 1),
        SchemeKind::SendFloor,
        Some(WorkloadSpec::Hotspot { rate: 1 << 62 }),
        ScheduleSpec::Static,
    )
    .unwrap();
    assert!(!tenant.run_rounds(4));
    assert_eq!(
        tenant.error(),
        Some(&EngineError::InjectionOverflow { node: 0, step: 2 })
    );
    assert!(tenant.replay_matches().unwrap());
    let resumed = Tenant::resume_from_snapshot(&tenant.snapshot()).unwrap();
    assert_eq!(resumed.error(), tenant.error());
}

fn mixed_fleet() -> Vec<Tenant> {
    let workloads = [
        None,
        Some(WorkloadSpec::Steady { rate: 6, seed: 3 }),
        Some(WorkloadSpec::Hotspot { rate: 4 }),
        Some(WorkloadSpec::Adversary { budget: 5 }),
    ];
    let schedules = [
        ScheduleSpec::Static,
        ScheduleSpec::Periodic {
            period: 4,
            swaps: 1,
            seed: 5,
        },
        ScheduleSpec::Burst {
            fail_at: 3,
            wake_at: 9,
            count: 2,
            seed: 7,
        },
    ];
    let mut tenants = Vec::new();
    for (i, scheme) in SCHEMES.iter().cycle().take(12).enumerate() {
        tenants.push(
            Tenant::new(
                lazy_cycle(8 + 4 * (i % 3)),
                LoadVector::point_mass(8 + 4 * (i % 3), 200 + 10 * i as i64),
                *scheme,
                workloads[i % workloads.len()].clone(),
                schedules[i % schedules.len()].clone(),
            )
            .unwrap(),
        )
    }
    tenants
}

/// The scheduler contract: per-tenant outcomes are independent of the
/// worker count and interleaving — a 4-worker server produces exactly
/// the per-tenant states of a serial sweep, and every journal still
/// replays.
#[test]
fn scheduler_outcomes_are_worker_count_independent() {
    let serial = Server::new(mixed_fleet());
    let parallel = Server::new(mixed_fleet());
    for _ in 0..2 {
        let a = serial.run_slice(1, 6);
        let b = parallel.run_slice(4, 6);
        assert_eq!(a.served + a.errored, serial.len());
        assert_eq!(b.served + b.errored, parallel.len());
        assert_eq!(a.served, b.served);
        assert_eq!(a.rounds_advanced, b.rounds_advanced);
        // Every tenant that actually ran got a latency sample.
        assert!(b.latencies_ns.len() >= b.served);
        assert!(b.latencies_ns.len() <= parallel.len());
    }
    let serial = serial.into_tenants();
    let parallel = parallel.into_tenants();
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.outcome(), b.outcome(), "tenant {i} diverged");
        assert!(a.replay_matches().unwrap(), "tenant {i} journal diverged");
        assert!(b.replay_matches().unwrap(), "tenant {i} journal diverged");
    }
}

/// Corrupt snapshots surface as errors, never as panics, and
/// semantically inconsistent cursors are rejected.
#[test]
fn resume_rejects_corrupt_snapshots() {
    let mut tenant = churny_tenant(SchemeKind::SendFloor);
    assert!(tenant.run_rounds(5));
    let bytes = tenant.snapshot();
    for cut in 0..bytes.len() {
        assert!(
            Tenant::resume_from_snapshot(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
    // A wrong-shape workload cursor decodes fine but must be rejected
    // by the generator's restore protocol.
    let mut snap = TenantSnapshot::decode(&bytes).unwrap();
    snap.workload_cursor = vec![1, 2, 3];
    assert!(Tenant::resume_from_snapshot(&snap.encode()).is_err());
    // A rotor vector of the wrong length is rejected by the scheme.
    let mut snap = TenantSnapshot::decode(&bytes).unwrap();
    snap.scheme = SchemeKind::RotorRouter;
    snap.rotors = vec![0; 3];
    assert!(Tenant::resume_from_snapshot(&snap.encode()).is_err());
}

/// A tenant is only built from a workload spec its own snapshot
/// decoder accepts, so its journal's base snapshot always replays.
#[test]
fn new_rejects_workload_specs_the_snapshot_decoder_rejects() {
    let forged = [
        WorkloadSpec::Hotspot { rate: 1 << 63 },
        WorkloadSpec::Bursty {
            on: 0,
            off: 2,
            rate: 8,
            seed: 1,
        },
        WorkloadSpec::Bursty {
            on: usize::MAX,
            off: 1,
            rate: 8,
            seed: 1,
        },
    ];
    for spec in forged {
        let err = Tenant::new(
            lazy_cycle(8),
            LoadVector::point_mass(8, 80),
            SchemeKind::SendFloor,
            Some(spec.clone()),
            ScheduleSpec::Static,
        )
        .unwrap_err();
        assert!(matches!(err, TenantError::Workload(_)), "{spec:?}: {err}");
    }
    // The largest magnitude both sides accept still round-trips.
    let tenant = Tenant::new(
        lazy_cycle(8),
        LoadVector::point_mass(8, 80),
        SchemeKind::SendFloor,
        Some(WorkloadSpec::Hotspot {
            rate: i64::MAX as u64,
        }),
        ScheduleSpec::Static,
    )
    .unwrap();
    assert!(Tenant::resume_from_snapshot(&tenant.snapshot()).is_ok());
}

/// A forged arrival rate or swap count used to stall a resumed tenant's
/// round for as long as the rate asked (arrivals and swaps are tried
/// one at a time). Such specs still decode, but neither build nor
/// resume a tenant, and the error names the generator.
#[test]
fn generators_asking_for_more_than_the_round_budget_are_rejected() {
    let too_many = MAX_ROUND_ITEMS + 1;
    let build = |workload: Option<WorkloadSpec>, schedule: ScheduleSpec| {
        Tenant::new(
            lazy_cycle(8),
            LoadVector::point_mass(8, 80),
            SchemeKind::SendFloor,
            workload,
            schedule,
        )
    };
    let arrivals = [
        WorkloadSpec::Steady {
            rate: too_many,
            seed: 1,
        },
        WorkloadSpec::Bursty {
            on: 1,
            off: 1,
            rate: too_many,
            seed: 1,
        },
        WorkloadSpec::ArriveAndDrain {
            rate: too_many,
            seed: 1,
        },
    ];
    for spec in arrivals {
        let err = build(Some(spec.clone()), ScheduleSpec::Static).unwrap_err();
        assert!(matches!(err, TenantError::Workload(_)), "{spec:?}: {err}");
    }
    // Hotspot and drain rates are one add per node, so any valid
    // magnitude stays allowed.
    assert!(build(
        Some(WorkloadSpec::Hotspot { rate: too_many }),
        ScheduleSpec::Static
    )
    .is_ok());
    let events = [
        ScheduleSpec::Periodic {
            period: 2,
            swaps: too_many as usize,
            seed: 1,
        },
        ScheduleSpec::Burst {
            fail_at: 1,
            wake_at: 2,
            count: too_many as usize,
            seed: 1,
        },
    ];
    for spec in events {
        let err = build(None, spec.clone()).unwrap_err();
        assert!(matches!(err, TenantError::Schedule(_)), "{spec:?}: {err}");
    }

    // The same spec forged into a valid snapshot decodes, but does not
    // resume.
    let tenant = build(
        Some(WorkloadSpec::Steady { rate: 4, seed: 1 }),
        ScheduleSpec::Static,
    )
    .unwrap();
    let mut snap = TenantSnapshot::decode(&tenant.snapshot()).unwrap();
    snap.workload = Some(WorkloadSpec::Steady {
        rate: i64::MAX as u64,
        seed: 1,
    });
    let forged = snap.encode();
    assert!(TenantSnapshot::decode(&forged).is_ok());
    let err = Tenant::resume_from_snapshot(&forged).unwrap_err();
    assert!(matches!(err, TenantError::Workload(_)), "{err}");
}

/// A tenant is only built from a schedule its snapshot decoder accepts,
/// and from loads whose positive total fits `i64` — the conditions a
/// resume checks.
#[test]
fn new_rejects_schedules_and_loads_the_snapshot_decoder_rejects() {
    let err = Tenant::new(
        lazy_cycle(8),
        LoadVector::point_mass(8, 80),
        SchemeKind::SendFloor,
        None,
        ScheduleSpec::CutTargeting { period: 0 },
    )
    .unwrap_err();
    assert!(matches!(err, TenantError::Schedule(_)), "{err}");
    let mut loads = vec![0; 8];
    loads[0] = i64::MAX;
    loads[4] = 1;
    let err = Tenant::new(
        lazy_cycle(8),
        LoadVector::new(loads),
        SchemeKind::SendFloor,
        None,
        ScheduleSpec::Static,
    )
    .unwrap_err();
    assert!(matches!(err, TenantError::Corrupt(_)), "{err}");
}

/// A tenant under churn (swaps, sleeps, wakes) and steady arrivals.
fn churn_and_steady(scheme: SchemeKind) -> Tenant {
    Tenant::new(
        lazy_cycle(12),
        LoadVector::point_mass(12, 300),
        scheme,
        Some(WorkloadSpec::Steady { rate: 5, seed: 2 }),
        ScheduleSpec::Churn {
            period: 3,
            swaps: 1,
            fail_pct: 30,
            max_down: 2,
            seed: 5,
        },
    )
    .unwrap()
}

/// Runs `tenant` from its current round to round `to` in batches that
/// end at multiples of `batch` (so a resumed tenant batches like one
/// run from round zero), asserting every batch completes.
fn run_to(tenant: &mut Tenant, to: usize, batch: usize) {
    while tenant.rounds_done() < to {
        let done = tenant.rounds_done();
        assert!(tenant.run_rounds(((done / batch + 1) * batch).min(to) - done));
    }
}

/// The window: after `3W + 5` rounds a journal's base is the tenant's
/// state at round `2W`, the last-but-one checkpoint, whatever the
/// batching. Round records and horizon agree across batchings, replay
/// matches, and the journal is byte for byte the one a tenant resumed
/// from that base writes over the same rounds.
#[test]
fn journals_keep_a_window_of_rounds_whatever_the_batching() {
    const ROUNDS: usize = 3 * WINDOW + 5;
    for scheme in SCHEMES {
        let mut whole = churn_and_steady(scheme);
        assert!(whole.run_rounds(ROUNDS));
        let expected = whole.journal().decode().unwrap();
        assert!(expected.rounds.iter().any(|r| !r.events.is_empty()));
        assert!(expected.rounds.iter().any(|r| !r.deltas.is_empty()));
        assert_eq!(expected.rounds[0].round as usize, 2 * WINDOW + 1);
        for batch in [1, 5, 16, WINDOW + 3] {
            let mut live = churn_and_steady(scheme);
            let mut twin = churn_and_steady(scheme);
            run_to(&mut live, ROUNDS, batch);
            run_to(&mut twin, 2 * WINDOW, batch);
            let contents = live.journal().decode().unwrap();
            let tag = format!("{scheme:?}, batches of {batch}");
            assert_eq!(live.checkpoints(), 3, "{tag}");
            let twin_base = TenantSnapshot::decode(&twin.snapshot()).unwrap();
            assert_eq!(contents.base, twin_base, "{tag}");
            assert_eq!(contents.rounds, expected.rounds, "{tag}");
            assert_eq!(contents.through_round, ROUNDS as u64, "{tag}");
            assert!(live.replay_matches().unwrap(), "{tag}");
            assert_eq!(live.outcome(), whole.outcome(), "{tag}");

            let mut resumed = Tenant::resume_from_snapshot(&contents.base.encode()).unwrap();
            run_to(&mut resumed, ROUNDS, batch);
            assert_eq!(
                resumed.journal().as_bytes(),
                live.journal().as_bytes(),
                "{tag}"
            );
        }
    }
}

/// Resumable state is pure state: two tenants that ran the same rounds
/// under churn, one of them resumed from a mid-run snapshot, snapshot
/// to the same bytes — no timing or other run-dependent word in them.
#[test]
fn twin_snapshots_are_equal_byte_for_byte() {
    for scheme in SCHEMES {
        let mut whole = churn_and_steady(scheme);
        let mut split = churn_and_steady(scheme);
        run_to(&mut whole, 2 * WINDOW + 3, 7);
        run_to(&mut split, WINDOW + 1, 5);
        let mut resumed = Tenant::resume_from_snapshot(&split.snapshot()).unwrap();
        run_to(&mut resumed, 2 * WINDOW + 3, 5);
        assert_eq!(whole.snapshot(), resumed.snapshot(), "{scheme:?}");
        assert_eq!(whole.snapshot(), whole.snapshot(), "{scheme:?}");
    }
}

/// A tenant resumed at a round that is not a multiple of `W` journals
/// from that round until its second checkpoint, so its journal spans
/// fewer than `2W` rounds throughout, and replays after every batch.
#[test]
fn off_window_resumes_span_fewer_than_two_windows() {
    for scheme in SCHEMES {
        let mut tenant = churn_and_steady(scheme);
        run_to(&mut tenant, WINDOW + 7, 16);
        let mut resumed = Tenant::resume_from_snapshot(&tenant.snapshot()).unwrap();
        while resumed.rounds_done() < 4 * WINDOW {
            assert!(resumed.run_rounds(16));
            let contents = resumed.journal().decode().unwrap();
            let span = contents.through_round - contents.base.engine.step as u64;
            assert!(span < 2 * WINDOW as u64, "{scheme:?}: span {span}");
            assert!(resumed.replay_matches().unwrap(), "{scheme:?}");
        }
        let contents = resumed.journal().decode().unwrap();
        assert_eq!(contents.base.engine.step, 3 * WINDOW, "{scheme:?}");
        assert_eq!(resumed.checkpoints(), 3, "{scheme:?}");
    }
}

/// An unclamped drain on a uniform load of `load` tokens per node,
/// which drives a node negative in a known round.
fn draining_tenant(load: i64) -> Tenant {
    Tenant::new(
        lazy_cycle(8),
        LoadVector::uniform(8, load),
        SchemeKind::SendFloor,
        Some(WorkloadSpec::DrainUnclamped { rate: 4 }),
        ScheduleSpec::Static,
    )
    .unwrap()
}

/// A tenant that errors at exactly round `2W`, a checkpoint round, or
/// at `2W + 1`, right after one: replay reproduces the error, and no
/// checkpoint follows it.
#[test]
fn no_checkpoint_follows_an_error() {
    // On this drain, 74 tokens per node go negative in round 128 and
    // 75 in round 129.
    for (load, error_round, checkpoints, base) in
        [(74, 2 * WINDOW, 1, 0), (75, 2 * WINDOW + 1, 2, WINDOW)]
    {
        for batch in [16, 3 * WINDOW] {
            let mut tenant = draining_tenant(load);
            while tenant.run_rounds(batch) {}
            let error = tenant
                .error()
                .cloned()
                .expect("the drain must stop the tenant");
            assert!(
                matches!(error, EngineError::NegativeLoad { step, .. } if step == error_round),
                "load {load}: {error:?}"
            );
            assert_eq!(tenant.rounds_done(), error_round - 1);
            assert_eq!(tenant.checkpoints(), checkpoints, "load {load}");
            let contents = tenant.journal().decode().unwrap();
            assert_eq!(contents.base.engine.step, base, "load {load}");
            assert_eq!(contents.through_round, error_round as u64);
            assert_eq!(contents.error.as_ref(), Some(&error));
            assert!(tenant.replay_matches().unwrap(), "load {load}");
            assert_eq!(Tenant::replay(tenant.journal()).unwrap().error, Some(error));

            let bytes = tenant.journal().as_bytes().to_vec();
            assert!(!tenant.run_rounds(WINDOW));
            assert_eq!(tenant.checkpoints(), checkpoints);
            assert_eq!(tenant.journal().as_bytes(), &bytes[..]);
        }
    }
}

/// Every profiled slice folds its checkpoints into the server's
/// `serve_journal_checkpoints` counter: a fleet run `2W + 16` rounds
/// takes two per tenant.
#[test]
fn profiled_slices_count_journal_checkpoints() {
    let server = Server::new(mixed_fleet());
    let mut checkpoints = 0;
    for _ in 0..(2 * WINDOW + 16) / 16 {
        let (report, _) = server.run_slice_profiled(2, 16);
        assert_eq!(report.errored, 0);
        checkpoints += report.checkpoints;
    }
    let tenants = server.len() as u64;
    assert_eq!(checkpoints, 2 * tenants);
    let text = server.render_prometheus();
    assert!(
        text.contains(&format!("serve_journal_checkpoints {}\n", 2 * tenants)),
        "{text}"
    );
    // The unprofiled slice reports them too.
    let report = server.run_slice(2, WINDOW);
    assert_eq!(report.checkpoints, tenants);
    for tenant in server.into_tenants() {
        assert!(tenant.replay_matches().unwrap());
    }
}

/// The rendered registry carries the number of profiled slices, the
/// rounds they advanced and the slice-latency quantiles.
#[test]
fn serve_prometheus_rendering_carries_slice_metrics() {
    let server = Server::new(mixed_fleet());
    let slices = 3;
    let mut rounds_advanced = 0;
    for _ in 0..slices {
        let (report, _) = server.run_slice_profiled(2, 4);
        assert_eq!(report.errored, 0);
        rounds_advanced += report.rounds_advanced;
    }
    let text = server.render_prometheus();
    assert!(
        text.contains(&format!("serve_slices_total {slices}\n")),
        "{text}"
    );
    assert!(
        text.contains(&format!("serve_rounds_advanced_total {rounds_advanced}\n")),
        "{text}"
    );
    assert!(
        text.contains("serve_slice_latency_ns{quantile=\"0.99\"}"),
        "{text}"
    );
}

/// A serial slice traced into a `RingSink` runs the fleet exactly like
/// `run_slice(1, r)` on a twin fleet: equal slice reports (latencies
/// aside), equal outcomes and equal snapshots for every tenant. The
/// sink holds one `ticket`, `lock`, `step` and `merge` span per tenant
/// and one `slice` span.
#[test]
fn traced_slice_matches_an_untraced_twin_and_spans_every_ticket() {
    let rounds = 8;
    let traced = Server::new(mixed_fleet());
    let twin = Server::new(mixed_fleet());
    let tenants = traced.len() as u64;
    let mut sink = RingSink::with_capacity(64 * traced.len());
    for _ in 0..2 {
        let mut a = traced.trace_slice(rounds, &mut sink);
        let mut b = twin.run_slice(1, rounds);
        assert_eq!(a.latencies_ns.len(), b.latencies_ns.len());
        a.latencies_ns.clear();
        b.latencies_ns.clear();
        assert_eq!(a, b);
        assert_eq!(a.served as u64, tenants);
    }
    assert_eq!(sink.dropped(), 0);
    for phase in [
        Phase::Ticket,
        Phase::Lock,
        Phase::TenantStep,
        Phase::SliceMerge,
    ] {
        assert_eq!(sink.phase_count(phase), 2 * tenants, "{phase:?}");
    }
    assert_eq!(sink.phase_count(Phase::Slice), 2);
    assert!(sink.events().iter().all(|ev| ev.kind == EventKind::Span));
    for (i, (a, b)) in traced
        .into_tenants()
        .iter()
        .zip(&twin.into_tenants())
        .enumerate()
    {
        assert_eq!(a.outcome(), b.outcome(), "tenant {i}");
        assert_eq!(a.snapshot(), b.snapshot(), "tenant {i}");
    }
}
