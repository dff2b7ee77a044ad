//! The engine workloads.
//!
//! * `expander-send` and `expander-rotor` — closed system: a lazy,
//!   RCM-relabeled random 4-regular graph on 2¹⁸ nodes starts from a
//!   point mass of 64·n tokens, and `Engine::run_kernel` runs in
//!   64-round calls, with the discrepancy checked between calls, until
//!   it is at most 16. SEND(⌊x/d⁺⌋) takes the vector layer; the
//!   rotor-router is the stateful scalar kernel, which bypasses both
//!   the vector layer and its gather planning.
//! * `torus-churn` — stationary open system: the lazy 128×128 torus at
//!   32 tokens per node under SEND(⌊x/d⁺⌋), with arrivals matching the
//!   n/8 sinks' drain and periodic double-edge swaps, driven through
//!   `Engine::run_kernel_dyn` in 16-round calls for 512 rounds.
//!
//! Every episode's final loads are compared with a reference computed
//! once per run, outside the timed region, by a different engine path.

use dlb_core::schemes::{RotorRouter, SendFloor};
use dlb_core::{
    Balancer, Engine, EngineError, KernelBalancer, LoadVector, NoWorkload, StaticTopology,
    TopologySchedule, VectorStats, Workload,
};
use dlb_graph::{generators, relabel, BalancingGraph, PortOrder, Relabeling};
use dlb_obs::{EventKind, Phase, RingSink};
use dlb_scenario::WorkloadSpec;
use dlb_topology::ScheduleSpec;

use crate::calib::{Bound, Calibration};
use crate::stats::{linear_fit, mean, median, metric, tail, Metric};
use crate::trace::Spans;
use crate::{measure, Ctx, Report, RECONCILE_TOLERANCE};

const EXPANDER_NODES: usize = 1 << 18;
const EXPANDER_DEGREE: usize = 4;
const EXPANDER_TOKENS_PER_NODE: i64 = 64;
const EXPANDER_CALL_ROUNDS: usize = 64;
/// The balance target 2d⁺ = 16, the recovery threshold `Scenario`
/// uses. It is a constant: estimating µ by power iteration does not
/// converge in useful time on a graph this size.
const BALANCED: i64 = 16;
/// An episode that has not balanced by then fails its checks.
const EXPANDER_MAX_ROUNDS: usize = 4096;

/// 128×128 keeps the torus in L2. At 512×512 its random injection and
/// connectivity updates ran twice as slow whenever neighbours loaded
/// the host's memory, so its runs spread 0.33–0.46 (IQR / median).
const TORUS_SIDE: usize = 128;
const TORUS_TOKENS_PER_NODE: i64 = 32;
/// Arrivals per round: the drain capacity of the n/8 sinks, so the
/// total load stays constant.
const TORUS_RATE: u64 = 2_048;
const TORUS_PERIOD: usize = 4;
const TORUS_SWAPS: usize = 8;
const TORUS_CALL_ROUNDS: usize = 16;
const TORUS_ROUNDS: usize = 512;

/// Ring capacity of a traced episode. The per-phase totals are exact
/// whatever the capacity; the vector-dispatch instants the
/// reconciliation reads (a few per call) must all be retained.
const RING_CAPACITY: usize = 1 << 12;
/// Rounds per call in the call-cost fit, each run `FIT_REPS` times.
const FIT_ROUNDS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const FIT_REPS: usize = 2;
const PARALLEL_ROUNDS: usize = EXPANDER_CALL_ROUNDS;
const PARALLEL_THREADS: usize = 2;
const PARALLEL_REPS: usize = 3;
const SHIFT_PROFILE_REPS: usize = 3;

/// The span phases the kernel path records, in the order of
/// `Episode::phase_ns`.
const PHASES: [Phase; 4] = [Phase::Stream, Phase::Mutate, Phase::Inject, Phase::Handoff];

/// Vector-dispatch instant tags for banded and blocked rounds (the
/// instant's value is `(tag << 32) | rounds`).
const DISPATCH_ROUND_TAGS: [u64; 2] = [1, 2];

/// One measured episode.
struct Episode {
    traced: bool,
    calls: Vec<f64>,
    checks: Vec<f64>,
    rounds: usize,
    /// Final discrepancy (closed system) or the steady maximum over the
    /// second half of the run (open system).
    discrepancy: i64,
    /// Time to restore the final state from a checkpoint.
    recover: f64,
    setup: Setup,
    vector: VectorStats,
    topology_events: u64,
    injected: i64,
    /// Ring-sink totals for `PHASES` (traced episodes only).
    phase_ns: [u64; 4],
    /// Vector rounds the ring's dispatch instants account for (traced
    /// episodes only).
    dispatched_rounds: u64,
}

/// One set-up's time, and its graph build and RCM parts, with the host
/// speed that a calibration pass measured right after it.
#[derive(Clone, Copy, Default)]
struct Setup {
    secs: f64,
    speed: f64,
    build: f64,
    rcm: f64,
}

/// The calls and checks of an episode, as they ran.
#[derive(Default)]
struct Timeline {
    calls: Vec<f64>,
    checks: Vec<f64>,
    samples: Vec<i64>,
}

/// Banded plus blocked rounds reported by the retained vector-dispatch
/// instants, or `None` if the ring dropped events.
fn dispatched_rounds(ring: &RingSink) -> Option<u64> {
    (ring.dropped() == 0).then(|| {
        ring.events()
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.phase == Phase::VectorDispatch)
            .filter(|e| DISPATCH_ROUND_TAGS.contains(&(e.value >> 32)))
            .map(|e| e.value & 0xffff_ffff)
            .sum()
    })
}

impl Episode {
    fn new(
        engine: &Engine,
        traced: bool,
        timeline: Timeline,
        discrepancy: i64,
        ring: Option<&RingSink>,
    ) -> Episode {
        Episode {
            traced,
            rounds: engine.step_count(),
            calls: timeline.calls,
            checks: timeline.checks,
            discrepancy,
            recover: 0.0,
            setup: Setup::default(),
            vector: *engine.vector_stats(),
            topology_events: engine.topology_events_applied(),
            injected: engine.injected_total(),
            phase_ns: ring.map_or([0; 4], |r| PHASES.map(|p| r.phase_ns(p))),
            dispatched_rounds: ring.and_then(dispatched_rounds).unwrap_or(u64::MAX),
        }
    }

    /// Time in the engine calls and the checks between them.
    fn busy(&self) -> f64 {
        self.calls.iter().sum::<f64>() + self.checks.iter().sum::<f64>()
    }

    /// The traced run's reconciliation of this episode against the
    /// obs layer, as `(ratio, ok)`. On the scalar path the ring's
    /// per-round phase spans, timed inside the engine, must cover the
    /// call time the benchmark timed around them to within
    /// `RECONCILE_TOLERANCE` (what they miss is the per-call set-up).
    /// The vector path records no timed spans, only dispatch instants:
    /// their round counts must add up to exactly the rounds run.
    fn reconcile(&self) -> (f64, bool) {
        let vector_rounds = self.vector.rounds_banded + self.vector.rounds_blocked;
        if vector_rounds > 0 {
            let ratio = self.dispatched_rounds as f64 / self.rounds as f64;
            let ok = self.dispatched_rounds == self.rounds as u64
                && vector_rounds == self.rounds as u64
                && self.phase_ns.iter().all(|&ns| ns == 0);
            (ratio, ok)
        } else {
            let spans = self.phase_ns.iter().sum::<u64>() as f64 * 1e-9;
            let ratio = spans / self.calls.iter().sum::<f64>();
            (ratio, (1.0 - RECONCILE_TOLERANCE..=1.0).contains(&ratio))
        }
    }
}

/// Times restoring `engine` from its exported state — the checkpoint
/// recovery a user of the engine pays — and checks the copy.
fn restore(engine: &Engine, ctx: &mut Ctx) -> f64 {
    let state = engine.export_state();
    let (restored, secs) = ctx
        .spans
        .time("engine.from_state", |_| Engine::from_state(state));
    ctx.checks.check(
        restored.loads() == engine.loads() && restored.step_count() == engine.step_count(),
        || "restored engine differs from the live one".into(),
    );
    secs
}

/// Fits call time against rounds per call: the intercept is the fixed
/// cost of a call, the slope the cost of a round (both in seconds).
fn call_fit(
    spans: &mut Spans,
    mut call: impl FnMut(usize) -> Result<(), String>,
) -> Result<(f64, f64), String> {
    let mut points = Vec::new();
    for _ in 0..FIT_REPS {
        for rounds in FIT_ROUNDS {
            let (res, secs) = spans.time("engine.fit_call", |_| call(rounds));
            res?;
            points.push((rounds as f64, secs));
        }
    }
    Ok(linear_fit(&points))
}

/// Bytes one vector round moves, computed from the load width and
/// gather the dispatch counters report: pass 1 reads `x` and writes
/// `b`; pass 2 reads `x`, gathers `d` sends per node, writes `x'`, and
/// the blocked gather also reads `d` neighbour ids (u32) per node.
fn vector_bytes_per_round(n: usize, d: usize, v: &VectorStats) -> f64 {
    let rounds = (v.rounds_banded + v.rounds_blocked) as f64;
    if rounds == 0.0 {
        return 0.0;
    }
    let i32_share = v.rounds_i32 as f64 / rounds;
    let width = 4.0 * i32_share + 8.0 * (1.0 - i32_share);
    let blocked_share = v.rounds_blocked as f64 / rounds;
    n as f64 * (4.0 * width + d as f64 * width + blocked_share * 4.0 * d as f64)
}

/// The end-to-end metrics of an engine workload, from its untraced
/// episodes, and notes: the call latencies, the restore time, and the
/// episode's time, rounds and discrepancy under the names given — the
/// last three depend on the seed's graph, so they are printed but not
/// part of the result.
///
/// Both metrics are scaled to the reference host (see `calib`):
/// `setup_s` is the median set-up, each scaled by the speed measured
/// right after it; `node_rounds_per_s` is the node-rounds of all
/// episodes over their total call and check time, scaled by the run's
/// mean `speed`. On a shared 2-vCPU VM the same code ran up to
/// 2x slower for tens of seconds at a time; a mean moves with the share
/// of the run that was slow, while a median or a minimum flips whole
/// between the two speeds.
fn end_to_end(
    n: usize,
    (speed, calls): (f64, usize),
    episodes: &[Episode],
    [episode, rounds, discrepancy]: [&str; 3],
) -> (Vec<Metric>, Vec<String>) {
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let calls_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|e| &e.calls)
        .map(|c| c * 1e3)
        .collect();
    let (tail_ms, tail_p) = tail(&calls_ms);
    let of = |f: &dyn Fn(&Episode) -> f64| untraced.iter().map(|e| f(e)).collect::<Vec<_>>();
    let node_rounds: f64 = of(&|e| (n * e.rounds) as f64).iter().sum();
    let busy: f64 = of(&Episode::busy).iter().sum();
    let metrics = vec![
        metric(
            "setup_s",
            median(&of(&|e| e.setup.secs * e.setup.speed)),
            "s",
        ),
        metric("node_rounds_per_s", node_rounds / (busy * speed), "1/s"),
    ];
    let notes = vec![
        format!(
            "{} untraced episodes; node_rounds_per_s over all of them at host speed {speed} ({} calibration passes)",
            untraced.len(),
            calls
        ),
        format!("setup_raw_s {} s", median(&of(&|e| e.setup.secs))),
        format!("node_rounds_per_s_raw {} 1/s", node_rounds / busy),
        format!("recover_ms {} ms", median(&of(&|e| e.recover * 1e3))),
        format!("{episode} {} s", median(&of(&Episode::busy))),
        format!("{rounds} {} count", median(&of(&|e| e.rounds as f64))),
        format!("{discrepancy} {} count", median(&of(&|e| e.discrepancy as f64))),
        format!("call_p50_ms {} ms", median(&calls_ms)),
        format!(
            "call_tail_ms {tail_ms} ms, p{tail_p} of {} engine calls",
            calls_ms.len()
        ),
    ];
    (metrics, notes)
}

/// The layer metrics every engine workload reports, and the traced
/// run's reconciliation check (`Episode::reconcile`).
fn engine_layers(
    ctx: &mut Ctx,
    n: usize,
    d: usize,
    episodes: &[Episode],
    fit: (f64, f64),
) -> Vec<Metric> {
    let (untraced, traced): (Vec<&Episode>, Vec<&Episode>) =
        episodes.iter().partition(|e| !e.traced);
    let calls_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|e| &e.calls)
        .map(|c| c * 1e3)
        .collect();
    let checks_ms: Vec<f64> = episodes
        .iter()
        .flat_map(|e| &e.checks)
        .map(|c| c * 1e3)
        .collect();
    let mut ratios = Vec::new();
    for e in &traced {
        let (ratio, ok) = e.reconcile();
        ctx.checks.check(ok, || {
            format!(
                "obs reconciliation {ratio:.4} ({} of {} rounds dispatched, phase spans {:?} ns)",
                e.dispatched_rounds, e.rounds, e.phase_ns
            )
        });
        ratios.push(ratio);
    }
    let med = |v: Vec<f64>| median(&v);
    let mean_calls =
        |eps: &[&Episode]| mean(&eps.iter().map(|e| e.calls.iter().sum()).collect::<Vec<_>>());
    let last = traced.last().expect("a traced run has a traced episode");
    let v = last.vector;
    vec![
        metric(
            "engine.calls",
            med(untraced.iter().map(|e| e.calls.len() as f64).collect()),
            "count",
        ),
        metric("engine.call_p50_ms", median(&calls_ms), "ms"),
        metric("engine.call_tail_ms", tail(&calls_ms).0, "ms"),
        metric("engine.fixed_call_ms", fit.0 * 1e3, "ms"),
        metric("engine.round_us", fit.1 * 1e6, "us"),
        metric("engine.check_ms", median(&checks_ms), "ms"),
        metric("vector.rounds_blocked", v.rounds_blocked as f64, "count"),
        metric("vector.rounds_banded", v.rounds_banded as f64, "count"),
        metric("vector.rounds_i32", v.rounds_i32 as f64, "count"),
        metric("vector.i32_fallbacks", v.i32_fallbacks as f64, "count"),
        metric(
            "vector.bytes_per_round",
            vector_bytes_per_round(n, d, &v),
            "B_computed",
        ),
        metric(
            "kernel.scalar_rounds",
            (last.rounds as u64 - v.rounds_banded - v.rounds_blocked) as f64,
            "count",
        ),
        metric(
            "kernel.stream_ns",
            med(traced.iter().map(|e| e.phase_ns[0] as f64).collect()),
            "ns",
        ),
        metric("topology.events", last.topology_events as f64, "count"),
        metric(
            "topology.mutate_ns",
            med(traced.iter().map(|e| e.phase_ns[1] as f64).collect()),
            "ns",
        ),
        metric(
            "scenario.inject_ns",
            med(traced.iter().map(|e| e.phase_ns[2] as f64).collect()),
            "ns",
        ),
        metric(
            "scenario.handoff_ns",
            med(traced.iter().map(|e| e.phase_ns[3] as f64).collect()),
            "ns",
        ),
        metric("scenario.net_injected", last.injected as f64, "count"),
        metric(
            "obs.trace_overhead",
            mean_calls(&traced) / mean_calls(&untraced),
            "x",
        ),
        metric("obs.reconcile_ratio", median(&ratios), "x"),
    ]
}

// ---------------------------------------------------------------------
// expander-send, expander-rotor
// ---------------------------------------------------------------------

/// The expander: random 4-regular on 2¹⁸ nodes, relabeled by reverse
/// Cuthill–McKee, made lazy. Returns it with its build and RCM times.
fn expander(seed: u64, spans: &mut Spans) -> Result<(BalancingGraph, f64, f64), String> {
    let (graph, build_s) = spans.time("graph.random_regular", |_| {
        generators::random_regular(EXPANDER_NODES, EXPANDER_DEGREE, seed)
    });
    let graph = graph.map_err(|e| e.to_string())?;
    let (graph, rcm_s) = spans.time("graph.rcm", |_| {
        graph.relabeled(&Relabeling::reverse_cuthill_mckee(&graph))
    });
    let graph = graph.map_err(|e| e.to_string())?;
    Ok((BalancingGraph::lazy(graph), build_s, rcm_s))
}

fn point_mass(n: usize) -> LoadVector {
    LoadVector::point_mass(n, EXPANDER_TOKENS_PER_NODE * n as i64)
}

/// Balances `engine` from the point mass, checking the discrepancy
/// every `EXPANDER_CALL_ROUNDS` rounds.
fn balance<S: KernelBalancer>(
    mut engine: Engine,
    mut scheme: S,
    traced: bool,
    spans: &mut Spans,
    calib: &mut Calibration,
) -> Result<(Episode, Engine), String> {
    let mut ring = traced.then(|| RingSink::with_capacity(RING_CAPACITY));
    let mut tl = Timeline::default();
    let (res, _) = spans.time("episode", |sp| -> Result<i64, String> {
        loop {
            let (r, secs) = sp.time("engine.run_kernel", |_| match ring.as_mut() {
                Some(ring) => engine.run_kernel_dyn_traced(
                    &mut scheme,
                    EXPANDER_CALL_ROUNDS,
                    StaticTopology::none(),
                    NoWorkload::none(),
                    ring,
                ),
                None => engine.run_kernel(&mut scheme, EXPANDER_CALL_ROUNDS),
            });
            r.map_err(|e| e.to_string())?;
            tl.calls.push(secs);
            sp.time("calibration", |_| calib.pass());
            let (disc, secs) = sp.time("engine.check", |_| engine.loads().discrepancy());
            tl.checks.push(secs);
            if disc <= BALANCED || engine.step_count() >= EXPANDER_MAX_ROUNDS {
                return Ok(disc);
            }
        }
    });
    let disc = res?;
    let ep = Episode::new(&engine, traced, tl, disc, ring.as_ref());
    Ok((ep, engine))
}

/// The reference: the same balancing through the `Engine::step` loop.
fn balance_by_steps<S: Balancer>(engine: &mut Engine, scheme: &mut S) -> Result<(), String> {
    loop {
        for _ in 0..EXPANDER_CALL_ROUNDS {
            engine.step(scheme).map_err(|e| e.to_string())?;
        }
        if engine.loads().discrepancy() <= BALANCED || engine.step_count() >= EXPANDER_MAX_ROUNDS {
            return Ok(());
        }
    }
}

/// `run_parallel(…, 2)` against `run_kernel` on the same graph and
/// start, as `(parallel node-rounds/s, kernel time / parallel time)`.
fn parallel_probe(gp: &BalancingGraph, ctx: &mut Ctx) -> Result<(f64, f64), String> {
    let n = gp.num_nodes();
    let (mut kernel, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..PARALLEL_REPS {
        let mut a = Engine::new(gp.clone(), point_mass(n));
        let (r, secs) = ctx.spans.time("engine.run_kernel", |_| {
            a.run_kernel(&mut SendFloor::new(), PARALLEL_ROUNDS)
        });
        r.map_err(|e| e.to_string())?;
        kernel.push(secs);
        let mut b = Engine::new(gp.clone(), point_mass(n));
        let (r, secs) = ctx.spans.time("parallel.run_parallel", |_| {
            b.run_parallel(&SendFloor::new(), PARALLEL_ROUNDS, PARALLEL_THREADS)
        });
        r.map_err(|e| e.to_string())?;
        parallel.push(secs);
        ctx.checks.check(a.loads() == b.loads(), || {
            "run_parallel loads differ from run_kernel".into()
        });
    }
    let t_par = median(&parallel);
    Ok((
        (n * PARALLEL_ROUNDS) as f64 / t_par,
        median(&kernel) / t_par,
    ))
}

fn closed<S: KernelBalancer + Balancer + Clone>(
    ctx: &mut Ctx,
    make: impl Fn(&BalancingGraph) -> Result<S, String>,
    probe_parallel: bool,
) -> Result<Report, String> {
    let seed = ctx.seed;
    // Both kernels on the 2¹⁸-node graph are bound by memory traffic.
    ctx.calib = Calibration::new(Bound::Memory);
    // The set-up builds the graph, the scheme and the engine at the
    // point mass, and returns them with its `Setup`. Every episode sets
    // up its own (the same one, from the same seed), so the set-up
    // samples spread over the whole run.
    let setup = |ctx: &mut Ctx| -> Result<(Engine, S, Setup), String> {
        let (res, secs) = ctx.spans.time("setup", |sp| -> Result<_, String> {
            let (gp, build_s, rcm_s) = expander(seed, sp)?;
            let scheme = make(&gp)?;
            let n = gp.num_nodes();
            Ok((Engine::new(gp, point_mass(n)), scheme, build_s, rcm_s))
        });
        let (engine, scheme, build_s, rcm_s) = res?;
        let setup = Setup {
            secs,
            speed: ctx.calib.pass(),
            build: build_s,
            rcm: rcm_s,
        };
        Ok((engine, scheme, setup))
    };
    let (mut reference, template, _) = setup(ctx)?;
    let n = reference.graph().num_nodes();
    ctx.spans
        .time("reference.step_loop", |_| {
            balance_by_steps(&mut reference, &mut template.clone())
        })
        .0?;
    let ref_rounds = reference.step_count();

    let mut last = None;
    let episodes = measure(ctx, |ctx, traced| {
        // One episode engine alive at a time keeps the heap peak
        // independent of the episode count.
        drop(last.take());
        let (engine, scheme, setup) = setup(ctx)?;
        let (mut ep, engine) = balance(engine, scheme, traced, &mut ctx.spans, &mut ctx.calib)?;
        ep.setup = setup;
        let c = &mut ctx.checks;
        c.check(ep.rounds == ref_rounds, || {
            format!(
                "balanced after {} rounds, the step loop after {ref_rounds}",
                ep.rounds
            )
        });
        c.check(engine.loads() == reference.loads(), || {
            "final loads differ from the step-loop reference".into()
        });
        c.check(
            engine.injected_total() == 0
                && engine.loads().total() == EXPANDER_TOKENS_PER_NODE * n as i64,
            || "tokens not conserved".into(),
        );
        c.check(ep.discrepancy <= BALANCED, || {
            format!(
                "discrepancy {} > {BALANCED} after {} rounds",
                ep.discrepancy, ep.rounds
            )
        });
        ep.recover = restore(&engine, ctx);
        last = Some(engine);
        Ok(ep)
    })?;
    let mut last = last.expect("a run makes at least two episodes");
    let gp = reference.graph();

    let (end_to_end, notes) = end_to_end(
        n,
        (ctx.calib.speed(), ctx.calib.len()),
        &episodes,
        ["balance_s", "rounds_to_balance", "final_discrepancy"],
    );
    let mut layers = Vec::new();
    if ctx.traced {
        let mut scheme = template.clone();
        let fit = call_fit(&mut ctx.spans, |rounds| {
            last.run_kernel(&mut scheme, rounds)
                .map_err(|e| e.to_string())
        })?;
        layers = engine_layers(ctx, n, gp.degree(), &episodes, fit);
        let mut profile_ms = Vec::new();
        for _ in 0..SHIFT_PROFILE_REPS {
            let (profile, secs) = ctx.spans.time("graph.port_shift_profile", |_| {
                relabel::port_shift_profile(gp.graph())
            });
            std::hint::black_box(profile);
            profile_ms.push(secs * 1e3);
        }
        let of = |f: fn(&Episode) -> f64| episodes.iter().map(f).collect::<Vec<_>>();
        layers.push(metric("graph.build_s", median(&of(|e| e.setup.build)), "s"));
        layers.push(metric("graph.rcm_s", median(&of(|e| e.setup.rcm)), "s"));
        layers.push(metric("graph.shift_profile_ms", median(&profile_ms), "ms"));
        if probe_parallel {
            let (rate, speedup) = parallel_probe(gp, ctx)?;
            layers.push(metric("parallel.node_rounds_per_s", rate, "1/s"));
            layers.push(metric("parallel.speedup", speedup, "x"));
        }
    }
    Ok(Report {
        end_to_end,
        layers,
        notes,
    })
}

/// `expander-send`: SEND(⌊x/d⁺⌋), the vector layer.
pub fn expander_send(ctx: &mut Ctx) -> Result<Report, String> {
    closed(ctx, |_| Ok(SendFloor::new()), true)
}

/// `expander-rotor`: ROTOR-ROUTER, the stateful scalar kernel.
pub fn expander_rotor(ctx: &mut Ctx) -> Result<Report, String> {
    closed(
        ctx,
        |gp| RotorRouter::new(gp, PortOrder::Sequential).map_err(|e| e.to_string()),
        false,
    )
}

// ---------------------------------------------------------------------
// torus-churn
// ---------------------------------------------------------------------

/// The torus workload's program state at round 0: the engine at
/// uniform load, its churn schedule and its arrival stream.
struct Open {
    engine: Engine,
    schedule: Box<dyn TopologySchedule>,
    workload: Box<dyn Workload>,
}

/// Runs `open` for `TORUS_ROUNDS` rounds in `TORUS_CALL_ROUNDS`-round
/// calls, as `(timeline, engine)`. The timeline's samples are
/// the discrepancy after every call.
fn churn<Run>(
    open: Open,
    spans: &mut Spans,
    calib: &mut Calibration,
    mut run_call: Run,
) -> Result<(Timeline, Engine), String>
where
    Run:
        FnMut(&mut Engine, &mut dyn TopologySchedule, &mut dyn Workload) -> Result<(), EngineError>,
{
    let Open {
        mut engine,
        mut schedule,
        mut workload,
    } = open;
    let mut tl = Timeline::default();
    let (res, _) = spans.time("episode", |sp| -> Result<(), String> {
        for _ in 0..TORUS_ROUNDS / TORUS_CALL_ROUNDS {
            let (r, secs) = sp.time("engine.run_kernel_dyn", |_| {
                run_call(&mut engine, schedule.as_mut(), workload.as_mut())
            });
            r.map_err(|e| e.to_string())?;
            tl.calls.push(secs);
            sp.time("calibration", |_| calib.pass());
            let (disc, secs) = sp.time("engine.check", |_| engine.loads().discrepancy());
            tl.checks.push(secs);
            tl.samples.push(disc);
        }
        Ok(())
    });
    res?;
    Ok((tl, engine))
}

/// The maximum discrepancy over the second half of the run.
fn steady(samples: &[i64]) -> i64 {
    samples[samples.len() / 2..]
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
}

/// `torus-churn`: the full dynamic round (mutate, inject, handoff,
/// scalar kernel) every round.
pub fn torus_churn(ctx: &mut Ctx) -> Result<Report, String> {
    let seed = ctx.seed;
    // The set-up builds the graph, the engine at uniform load, the
    // churn schedule and the arrival stream, and returns them with its
    // `Setup`.
    let setup = |ctx: &mut Ctx| -> Result<(Open, Setup), String> {
        let (res, secs) = ctx.spans.time("setup", |sp| -> Result<_, String> {
            let (graph, build_s) = sp.time("graph.torus", |_| generators::torus(2, TORUS_SIDE));
            let gp = BalancingGraph::lazy(graph.map_err(|e| e.to_string())?);
            let n = gp.num_nodes();
            let schedule = ScheduleSpec::Periodic {
                period: TORUS_PERIOD,
                swaps: TORUS_SWAPS,
                seed,
            }
            .build()
            .ok_or("the churn schedule is static")?;
            let workload = WorkloadSpec::ArriveAndDrain {
                rate: TORUS_RATE,
                seed: seed ^ 0x5eed_a11c_e5ee_d5a1,
            }
            .build(n);
            let open = Open {
                engine: Engine::new(gp, LoadVector::uniform(n, TORUS_TOKENS_PER_NODE)),
                schedule,
                workload,
            };
            Ok((open, build_s))
        });
        let (open, build_s) = res?;
        let setup = Setup {
            secs,
            speed: ctx.calib.pass(),
            build: build_s,
            rcm: 0.0,
        };
        Ok((open, setup))
    };
    let (open, _) = setup(ctx)?;
    let n = open.engine.graph().num_nodes();
    let d = open.engine.graph().degree();
    let initial_total = TORUS_TOKENS_PER_NODE * n as i64;

    let (reference, ref_engine) = ctx
        .spans
        .time("reference.run_fast_dyn", |sp| {
            churn(
                open,
                sp,
                &mut Calibration::new(Bound::Core),
                |engine, s, w| {
                    engine.run_fast_dyn(&mut SendFloor::new(), TORUS_CALL_ROUNDS, Some(s), Some(w))
                },
            )
        })
        .0?;

    let episodes = measure(ctx, |ctx, traced| {
        let (open, setup) = setup(ctx)?;
        let mut ring = traced.then(|| RingSink::with_capacity(RING_CAPACITY));
        let mut scheme = SendFloor::new();
        let (tl, engine) = churn(
            open,
            &mut ctx.spans,
            &mut ctx.calib,
            |engine, s, w| match ring.as_mut() {
                Some(ring) => engine.run_kernel_dyn_traced(
                    &mut scheme,
                    TORUS_CALL_ROUNDS,
                    Some(s),
                    Some(w),
                    ring,
                ),
                None => engine.run_kernel_dyn(&mut scheme, TORUS_CALL_ROUNDS, Some(s), Some(w)),
            },
        )?;
        let c = &mut ctx.checks;
        c.check(engine.loads() == ref_engine.loads(), || {
            "final loads differ from the run_fast_dyn reference".into()
        });
        c.check(tl.samples == reference.samples, || {
            "discrepancy trajectory differs from the reference".into()
        });
        c.check(
            engine.topology_events_applied() == ref_engine.topology_events_applied()
                && engine.injected_total() == ref_engine.injected_total(),
            || "topology events or injection differ from the reference".into(),
        );
        c.check(
            engine.loads().total() == initial_total + engine.injected_total(),
            || "tokens not conserved: total != initial + injected".into(),
        );
        let disc = steady(&tl.samples);
        let mut ep = Episode::new(&engine, traced, tl, disc, ring.as_ref());
        ep.recover = restore(&engine, ctx);
        ep.setup = setup;
        Ok(ep)
    })?;

    // The traced run's call-cost fit runs on one more fresh set-up.
    let fit_open = if ctx.traced {
        Some(setup(ctx)?.0)
    } else {
        None
    };
    let (end_to_end, notes) = end_to_end(
        n,
        (ctx.calib.speed(), ctx.calib.len()),
        &episodes,
        ["run_s", "rounds", "steady_discrepancy"],
    );
    let mut layers = Vec::new();
    if let Some(Open {
        mut engine,
        mut schedule,
        mut workload,
    }) = fit_open
    {
        let fit = call_fit(&mut ctx.spans, |rounds| {
            engine
                .run_kernel_dyn(
                    &mut SendFloor::new(),
                    rounds,
                    Some(schedule.as_mut()),
                    Some(workload.as_mut()),
                )
                .map_err(|e| e.to_string())
        })?;
        layers = engine_layers(ctx, n, d, &episodes, fit);
        let builds: Vec<f64> = episodes.iter().map(|e| e.setup.build).collect();
        layers.push(metric("graph.build_s", median(&builds), "s"));
    }
    Ok(Report {
        end_to_end,
        layers,
        notes,
    })
}
