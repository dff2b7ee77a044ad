//! The `serve-fleet` workload: closed-loop multi-tenant serving.
//!
//! 2048 tiny tenants — cycles with n ∈ {8, 12, 16, 24}, four schemes,
//! five workloads, three churn schedules, and an erroring stratum of
//! one tenant in 128 — are hosted in one `Server` and driven by
//! back-to-back `run_slice(1, 16)` calls. Each episode builds a fresh
//! fleet (the set-up), runs `SLICES` slices, and then checks the
//! serving layer's contracts on a sample: journal replay reproduces
//! the live tenant, and a snapshot resumed in a fresh tenant finishes
//! exactly like an uninterrupted twin.

use dlb_core::{LoadVector, VectorStats};
use dlb_graph::{generators, BalancingGraph};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{SchemeKind, Server, SliceProfile, Tenant, TenantSnapshot};
use dlb_topology::ScheduleSpec;

use crate::calib::{Bound, Calibration};
use crate::stats::{linear_fit, mean, median, metric, tail};
use crate::{measure, Ctx, Report, RECONCILE_TOLERANCE};

const TENANTS: usize = 2048;
const WORKERS: usize = 1;
const SLICE_ROUNDS: usize = 16;
/// Slices per episode. Journals grow with every round, so the episode
/// length also fixes the fleet's memory.
const SLICES: usize = 64;
/// Every `DOOMED_STRIDE`-th tenant runs an unclamped drain that must
/// stop it with a negative load; no other tenant may error.
const DOOMED_STRIDE: usize = 128;
const REPLAY_STRIDE: usize = 17;
const RESUME_STRIDE: usize = 101;
/// Rounds a resumed tenant and its twin run past the episode.
const EXTRA_ROUNDS: usize = 6;
/// Tenants sampled for the call-cost fit, and its rounds per call.
const FIT_TENANTS: usize = 64;
const FIT_ROUNDS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const FIT_REPS: usize = 2;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SendFloor,
    SchemeKind::SendRound,
    SchemeKind::RotorRouter,
    SchemeKind::RotorRouterStar,
];

fn doomed(i: usize) -> bool {
    i % DOOMED_STRIDE == DOOMED_STRIDE - 1
}

/// Tenant `i` of the fleet for `seed`: deterministic in both, so an
/// uninterrupted twin can be rebuilt for the resume check.
fn build_tenant(i: usize, seed: u64) -> Result<Tenant, String> {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
    let n = [8, 12, 16, 24][i % 4];
    let graph = BalancingGraph::lazy(generators::cycle(n).map_err(|e| e.to_string())?);
    if doomed(i) {
        return Tenant::new(
            graph,
            LoadVector::uniform(n, 2),
            SchemeKind::SendFloor,
            Some(WorkloadSpec::DrainUnclamped { rate: 64 }),
            ScheduleSpec::Static,
        )
        .map_err(|e| e.to_string());
    }
    let initial = LoadVector::point_mass(n, 20 * n as i64 + (s % 7) as i64);
    let scheme = SCHEMES[(i / 4) % 4];
    let workload = match i % 5 {
        0 => None,
        1 => Some(WorkloadSpec::Steady {
            rate: 4 + s % 3,
            seed: s,
        }),
        2 => Some(WorkloadSpec::Hotspot { rate: 3 }),
        3 => Some(WorkloadSpec::Bursty {
            on: 3,
            off: 2,
            rate: 8,
            seed: s,
        }),
        _ => Some(WorkloadSpec::Adversary { budget: 4 + s % 5 }),
    };
    let schedule = match i % 3 {
        0 => ScheduleSpec::Static,
        1 => ScheduleSpec::Periodic {
            period: 3 + i % 4,
            swaps: 1 + i % 2,
            seed: s,
        },
        _ => ScheduleSpec::Burst {
            fail_at: 2 + i % 3,
            wake_at: 7 + i % 5,
            count: 1 + i % 2,
            seed: s,
        },
    };
    Tenant::new(graph, initial, scheme, workload, schedule).map_err(|e| e.to_string())
}

fn build_fleet(seed: u64) -> Result<Vec<Tenant>, String> {
    (0..TENANTS).map(|i| build_tenant(i, seed)).collect()
}

/// One measured episode.
struct Episode {
    traced: bool,
    /// Sum of the slice wall times.
    wall: f64,
    slices: Vec<f64>,
    /// Per-tenant service latency (lock + batch) of every visit, ns.
    tenant_latency_ns: Vec<u64>,
    profiles: Vec<SliceProfile>,
    tenant_rounds: u64,
    node_rounds: u64,
    max_discrepancy: i64,
    replay: Vec<f64>,
    snapshot: Vec<f64>,
    journal_bytes: u64,
    errored: usize,
    /// Vector counters and rounds summed over every tenant's engine,
    /// read back from snapshots (traced episodes only).
    vector: VectorStats,
    engine_rounds: u64,
    /// Snapshots of the tenants sampled for the call-cost fit.
    fit_snapshots: Vec<Vec<u8>>,
}

/// Runs `SLICES` slices on a fresh fleet, then the integrity sweep.
/// Returns the episode, the fleet's set-up time and the host speed a
/// calibration pass measured right after the set-up.
fn episode(ctx: &mut Ctx, traced: bool) -> Result<(Episode, (f64, f64)), String> {
    let seed = ctx.seed;
    let (fleet, setup) = ctx.spans.time("setup", |_| build_fleet(seed));
    let setup_speed = ctx.calib.pass();
    let server = Server::new(fleet?);
    let mut ep = Episode {
        traced,
        wall: 0.0,
        slices: Vec::with_capacity(SLICES),
        tenant_latency_ns: Vec::new(),
        profiles: Vec::new(),
        tenant_rounds: 0,
        node_rounds: 0,
        max_discrepancy: 0,
        replay: Vec::new(),
        snapshot: Vec::new(),
        journal_bytes: 0,
        errored: 0,
        vector: VectorStats::default(),
        engine_rounds: 0,
        fit_snapshots: Vec::new(),
    };
    let keep_latencies = ctx.traced && !traced;
    let calib = &mut ctx.calib;
    ctx.spans.time("episode", |sp| {
        for _ in 0..SLICES {
            let (report, secs) = if traced {
                let ((report, profile), secs) = sp.time("serve.run_slice_profiled", |_| {
                    server.run_slice_profiled(WORKERS, SLICE_ROUNDS)
                });
                ep.profiles.push(profile);
                (report, secs)
            } else {
                sp.time("serve.run_slice", |_| {
                    server.run_slice(WORKERS, SLICE_ROUNDS)
                })
            };
            ep.slices.push(secs);
            sp.time("calibration", |_| calib.pass());
            ep.tenant_rounds += report.rounds_advanced;
            if keep_latencies {
                ep.tenant_latency_ns.extend(report.latencies_ns);
            }
        }
    });
    ep.wall = ep.slices.iter().sum();

    for i in 0..TENANTS {
        let checks = &mut ctx.checks;
        let spans = &mut ctx.spans;
        server.with_tenant(i, |t| {
            let errored = t.error().is_some();
            ep.errored += usize::from(errored);
            checks.check(errored == doomed(i), || {
                format!(
                    "tenant {i}: errored = {errored}, designed to error = {}",
                    doomed(i)
                )
            });
            ep.journal_bytes += t.journal().as_bytes().len() as u64;
            ep.node_rounds += (t.loads().len() * t.rounds_done()) as u64;
            if !errored {
                ep.max_discrepancy = ep.max_discrepancy.max(t.loads().discrepancy());
            }
            if i % REPLAY_STRIDE == 0 {
                let (replayed, secs) = spans.time("serve.replay", |_| Tenant::replay(t.journal()));
                ep.replay.push(secs);
                checks.check(replayed.is_ok_and(|o| o == t.outcome()), || {
                    format!("tenant {i}: journal replay differs from the live tenant")
                });
            }
            if traced {
                let bytes = t.snapshot();
                match TenantSnapshot::decode(&bytes) {
                    Ok(snap) => {
                        let v = snap.engine.vector_stats;
                        ep.vector.rounds_banded += v.rounds_banded;
                        ep.vector.rounds_blocked += v.rounds_blocked;
                        ep.vector.rounds_i32 += v.rounds_i32;
                        ep.vector.i32_fallbacks += v.i32_fallbacks;
                        ep.engine_rounds += snap.engine.step as u64;
                    }
                    Err(e) => checks.check(false, || format!("tenant {i}: snapshot decode: {e}")),
                }
                if i % (TENANTS / FIT_TENANTS) == 0 && !doomed(i) {
                    ep.fit_snapshots.push(bytes);
                }
            }
            if i % RESUME_STRIDE == 0 {
                let (bytes, secs) = spans.time("serve.snapshot", |_| t.snapshot());
                ep.snapshot.push(secs);
                let same = spans.time("serve.resume_check", |_| -> Result<bool, String> {
                    let mut resumed =
                        Tenant::resume_from_snapshot(&bytes).map_err(|e| e.to_string())?;
                    resumed.run_rounds(EXTRA_ROUNDS);
                    let mut twin = build_tenant(i, seed)?;
                    twin.run_rounds(SLICES * SLICE_ROUNDS + EXTRA_ROUNDS);
                    Ok(resumed.outcome() == twin.outcome())
                });
                checks.check(same.0 == Ok(true), || {
                    format!("tenant {i}: snapshot resume differs from its uninterrupted twin")
                });
            }
        });
    }
    Ok((ep, (setup, setup_speed)))
}

/// Fits a tenant batch's time against its rounds, on copies of sampled
/// tenants resumed from their snapshots: `(fixed s per call, s per
/// round)`.
fn tenant_fit(ctx: &mut Ctx, snapshots: &[Vec<u8>]) -> Result<(f64, f64), String> {
    let mut points = Vec::new();
    for _ in 0..FIT_REPS {
        for rounds in FIT_ROUNDS {
            let mut copies = snapshots
                .iter()
                .map(|b| Tenant::resume_from_snapshot(b).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let (_, secs) = ctx.spans.time("serve.fit_batch", |_| {
                for t in &mut copies {
                    t.run_rounds(rounds);
                }
            });
            points.push((rounds as f64, secs / copies.len() as f64));
        }
    }
    Ok(linear_fit(&points))
}

/// `serve-fleet`: fresh fleets driven slice by slice, one per episode.
pub fn serve_fleet(ctx: &mut Ctx) -> Result<Report, String> {
    // Journals grow by ~40 B per tenant-round, so the slices stream
    // new memory: this calibrates closer than the core loop.
    ctx.calib = Calibration::new(Bound::Memory);
    let (episodes, setups): (Vec<Episode>, Vec<(f64, f64)>) =
        measure(ctx, episode)?.into_iter().unzip();
    let scaled_setups: Vec<f64> = setups.iter().map(|(secs, speed)| secs * speed).collect();
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let (untraced, traced): (Vec<&Episode>, Vec<&Episode>) =
        episodes.iter().partition(|e| !e.traced);
    let slices_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|e| &e.slices)
        .map(|s| s * 1e3)
        .collect();
    let (tail_ms, tail_p) = tail(&slices_ms);
    let each = |f: &dyn Fn(&Episode) -> f64| untraced.iter().map(|e| f(e)).collect::<Vec<_>>();
    let busy: f64 = each(&|e| e.wall).iter().sum();
    let node_rounds: f64 = each(&|e| e.node_rounds as f64).iter().sum();
    let speed = ctx.calib.speed();
    let replays_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|e| &e.replay)
        .map(|s| s * 1e3)
        .collect();
    let end_to_end = vec![
        metric("setup_s", median(&scaled_setups), "s"),
        metric("node_rounds_per_s", node_rounds / (busy * speed), "1/s"),
    ];
    let notes = vec![
        format!(
            "{} untraced episodes of {SLICES} x run_slice({WORKERS}, {SLICE_ROUNDS}) over {TENANTS} tenants; \
             node_rounds_per_s over all of them at host speed {speed} ({} calibration passes)",
            untraced.len(),
            ctx.calib.len()
        ),
        format!("setup_raw_s {} s", median(&raw_setups)),
        format!("node_rounds_per_s_raw {} 1/s", node_rounds / busy),
        format!(
            "tenant_rounds_per_s {} 1/s",
            each(&|e| e.tenant_rounds as f64).iter().sum::<f64>() / busy
        ),
        format!("episode_s {} s", median(&each(&|e| e.wall))),
        format!("slice_p50_ms {} ms", median(&slices_ms)),
        format!("slice_tail_ms {tail_ms} ms, p{tail_p} of {} slices", slices_ms.len()),
        format!("max_tenant_discrepancy {} count", median(&each(&|e| e.max_discrepancy as f64))),
        format!(
            "recover_ms {} ms: median Tenant::replay of {} sampled journals",
            median(&replays_ms),
            replays_ms.len()
        ),
    ];

    let mut layers = Vec::new();
    if ctx.traced {
        let mut ratios = Vec::new();
        let per_slice = |f: &dyn Fn(&SliceProfile) -> u64| {
            median(
                &traced
                    .iter()
                    .flat_map(|e| &e.profiles)
                    .map(|p| f(p) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        for e in &traced {
            for (p, wall) in e.profiles.iter().zip(&e.slices) {
                let share = (p.ticket_ns + p.lock_ns + p.step_ns + p.merge_ns) as f64
                    / (WORKERS as f64 * wall * 1e9);
                ctx.checks.check(share <= 1.0 + RECONCILE_TOLERANCE, || {
                    format!("slice phases sum to {share:.4} of workers x slice wall")
                });
                ratios.push(share);
            }
        }
        let lat_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|e| &e.tenant_latency_ns)
            .map(|&l| l as f64 / 1e6)
            .collect();
        let last = traced.last().expect("a traced run has a traced episode");
        let vector = last.vector;
        let fit = tenant_fit(ctx, &last.fit_snapshots)?;
        let tenant_rounds = last.tenant_rounds.max(1) as f64;
        layers = vec![
            metric("engine.calls", TENANTS as f64, "count"),
            metric("engine.call_p50_ms", median(&lat_ms), "ms"),
            metric("engine.call_tail_ms", tail(&lat_ms).0, "ms"),
            metric("engine.fixed_call_ms", fit.0 * 1e3, "ms"),
            metric("engine.round_us", fit.1 * 1e6, "us"),
            metric(
                "vector.rounds_blocked",
                vector.rounds_blocked as f64,
                "count",
            ),
            metric("vector.rounds_banded", vector.rounds_banded as f64, "count"),
            metric("vector.rounds_i32", vector.rounds_i32 as f64, "count"),
            metric("vector.i32_fallbacks", vector.i32_fallbacks as f64, "count"),
            metric(
                "kernel.scalar_rounds",
                (last.engine_rounds - vector.rounds_banded - vector.rounds_blocked) as f64,
                "count",
            ),
            metric("serve.ticket_ns", per_slice(&|p| p.ticket_ns), "ns"),
            metric("serve.lock_ns", per_slice(&|p| p.lock_ns), "ns"),
            metric("serve.step_ns", per_slice(&|p| p.step_ns), "ns"),
            metric("serve.merge_ns", per_slice(&|p| p.merge_ns), "ns"),
            metric("serve.journal_bytes", last.journal_bytes as f64, "B"),
            metric(
                "serve.journal_bytes_per_tenant_round",
                last.journal_bytes as f64 / tenant_rounds,
                "B",
            ),
            metric(
                "serve.snapshot_us",
                median(
                    &traced
                        .iter()
                        .flat_map(|e| &e.snapshot)
                        .map(|s| s * 1e6)
                        .collect::<Vec<_>>(),
                ),
                "us",
            ),
            metric(
                "serve.replay_us",
                median(
                    &traced
                        .iter()
                        .flat_map(|e| &e.replay)
                        .map(|s| s * 1e6)
                        .collect::<Vec<_>>(),
                ),
                "us",
            ),
            metric("serve.errored_tenants", last.errored as f64, "count"),
            metric(
                "obs.trace_overhead",
                mean(&traced.iter().map(|e| e.wall).collect::<Vec<_>>()) / mean(&each(&|e| e.wall)),
                "x",
            ),
            metric("obs.reconcile_ratio", median(&ratios), "x"),
        ];
    }
    Ok(Report {
        end_to_end,
        layers,
        notes,
    })
}
