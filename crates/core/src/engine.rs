use dlb_graph::BalancingGraph;
use dlb_obs::{MetricRegistry, NoopSink, Phase, RingSink, Sink};
use dlb_topology::{StaticTopology, TopologySchedule};

use crate::fairness::FairnessMonitor;
use crate::kernel::vector::{self, UniformKernel, VectorConfig, VectorStats};
use crate::kernel::{self, KernelBalancer, KernelCall, KernelRun};
use crate::round::{self, PreRound, RoundState};
use crate::workload::{NoWorkload, Workload};
use crate::{Balancer, EngineError, LoadVector};

/// Outcome of a single engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSummary {
    /// The step just completed (1-based, matching the paper's `t`).
    pub step: usize,
    /// Discrepancy of the post-step load vector.
    pub discrepancy: i64,
    /// Number of nodes with negative load after the step.
    pub negative_nodes: usize,
}

/// Which round an [`Engine::run`] executes. Both produce bit-identical
/// loads, graphs, errors and counters; they differ only in speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Path {
    /// The fastest round the run allows: whole-array [`vector`] rounds,
    /// the closed-form gather or the degree-specialised flow-buffer
    /// round ([`kernel`]) — unless a monitor is attached, which takes
    /// the reference round.
    #[default]
    Auto,
    /// The reference round (see [`Engine`]) every time: the plainest
    /// form of the flow-buffer round, which the other rounds are
    /// checked against.
    Reference,
}

/// The parameters of one [`Engine::run`] call. [`Run::new`] gives a
/// closed, static, untraced run on [`Path::Auto`]; set the other
/// fields with struct-update syntax:
/// `Run { workload: Some(&mut w), ..Run::new(steps) }`.
///
/// `'a` bounds the borrows, and `'s` and `'w` the schedule and
/// workload objects behind them, so boxed generators (`'static`) lend
/// themselves to short runs.
#[derive(Default)]
pub struct Run<'a, 's, 'w> {
    /// Rounds to execute.
    pub steps: usize,
    /// Topology churn applied at the top of every round (see
    /// [`dlb_topology`]); `None` keeps the graph fixed.
    pub schedule: Option<&'a mut (dyn TopologySchedule + 's)>,
    /// Load injected after the churn (see [`crate::workload`]); `None`
    /// keeps the system closed.
    pub workload: Option<&'a mut (dyn Workload + 'w)>,
    /// A recording sink observing every round's phases; `None`
    /// compiles every probe away. Sinks observe only: loads, errors and
    /// counters are bit-identical either way.
    pub sink: Option<&'a mut RingSink>,
    /// Which round to execute.
    pub path: Path,
}

impl Run<'_, '_, '_> {
    /// `steps` closed rounds on a fixed graph, untraced, on
    /// [`Path::Auto`].
    #[must_use]
    pub fn new(steps: usize) -> Self {
        Run {
            steps,
            ..Run::default()
        }
    }
}

/// The engine's complete resumable state, as exported by
/// [`Engine::export_state`] and consumed by [`Engine::from_state`].
///
/// This is the checkpointing contract: a run split at any round
/// boundary through this struct produces loads, graph, errors and
/// cumulative counters bit-identical to the uninterrupted run, on
/// every execution path. Anything *not* in here is either derivable
/// from these fields (the negative-load count) or deliberately
/// started fresh after restore (the monitor and its ledger) — see
/// [`Engine::export_state`] for the full accounting.
///
/// The fields are public so snapshot encoders (the `dlb-serve` crate)
/// can serialize them without `dlb-core` committing to a wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The balancing graph `G⁺`: topology, port layout, self-loop
    /// count and the asleep list.
    pub graph: BalancingGraph,
    /// The load vector `x_t`, one entry per node.
    pub loads: Vec<i64>,
    /// Completed steps (the next round is `step + 1`).
    pub step: usize,
    /// Cumulative node-steps spent holding negative load.
    pub negative_node_steps: u64,
    /// Net workload injection over all completed rounds.
    pub injected_total: i64,
    /// Topology events applied over all completed rounds.
    pub topology_events_applied: u64,
    /// Full `O(n)` discrepancy scans performed so far, one per
    /// [`StepSummary`].
    pub discrepancy_scans: u64,
    /// Dispatch policy for the vectorized kernel rounds.
    pub vector_config: VectorConfig,
    /// Cumulative vectorized-path counters.
    pub vector_stats: VectorStats,
}

/// The synchronous simulation engine.
///
/// The engine owns the balancing graph `G⁺` and the load vector `x_t`,
/// and drives any [`Balancer`] through the paper's round structure. Its
/// reference round ([`Path::Reference`]) is the kernel's flow-buffer
/// round on the any-degree buffer, the definition every faster round is
/// checked against:
///
/// 1. the shared pre-round mutates the topology, injects load, hands
///    asleep queues to live neighbours and rejects negative loads for
///    schemes that forbid them;
/// 2. the scheme's [`begin_round`](KernelBalancer::begin_round) hook
///    runs, then its [`kernel_node`](KernelBalancer::kernel_node) for
///    every node in id order, each into one `d⁺` row — with a monitor
///    attached, that node's row of the monitor's staging buffer;
/// 3. each row is validated (a non-overdrawing scheme may not send more
///    than the node holds) and applied as signed deltas to the back
///    half of a double-buffered load vector — original-port tokens to
///    the neighbour behind the port, self-loop and unsent tokens stay
///    home (the remainder `r_t(u)` of §2); the back buffer replaces the
///    loads only if the whole round succeeds;
/// 4. once the round's last node has validated, an attached
///    [`FairnessMonitor`] observes the staged rows and adds them to its
///    cumulative ledger `F_t`.
///
/// # Entry points
///
/// [`run`](Engine::run) executes a [`Run`]: `steps` rounds under an
/// optional topology schedule, workload and tracing sink. On
/// [`Path::Auto`] without a monitor it takes the fastest round the
/// run allows: a closed-form SEND scheme on a static, closed system
/// runs whole-array [`vector`] rounds, elsewhere the closed-form
/// gather, and every other scheme the flow-buffer round specialised
/// for the degree. [`Path::Reference`] and a monitor force the
/// reference round above. [`step`](Engine::step) runs one reference
/// round and returns its [`StepSummary`], which
/// [`summary`](Engine::summary) also takes after any run;
/// [`run_parallel`](Engine::run_parallel) splits the vector rounds by
/// node range across threads. All of them produce bit-identical loads.
/// The count of negative nodes is maintained incrementally at every
/// load write, so no path ever scans for it.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph};
/// use dlb_core::{Engine, LoadVector, Run};
/// use dlb_core::schemes::SendFloor;
///
/// let gp = BalancingGraph::lazy(generators::cycle(8)?);
/// let mut engine = Engine::new(gp, LoadVector::point_mass(8, 800));
/// engine.run(&mut SendFloor::new(), Run::new(200))?;
/// assert_eq!(engine.loads().total(), 800); // conservation
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    gp: BalancingGraph,
    loads: LoadVector,
    /// The attached instrumentation: the fairness monitor, with its
    /// cumulative ledger, and the `n·d⁺` buffer the reference round
    /// stages each round's rows in for it.
    monitor: Option<(FairnessMonitor, Vec<u64>)>,
    step: usize,
    negative_node_steps: u64,
    /// Nodes currently holding negative load, maintained incrementally.
    negative_count: usize,
    /// Scratch for every path's pre-round (mutate, inject, handoff,
    /// negative-check): the round's deltas and applied topology events,
    /// which are what an erroring round undoes.
    pre: PreRound,
    /// Net workload injection over all completed rounds.
    injected_total: i64,
    /// Full `O(n)` discrepancy scans performed so far (perf
    /// accounting; see [`Engine::discrepancy_scans`]).
    discrepancy_scans: u64,
    /// Topology events applied over all completed rounds (an erroring
    /// round's events are undone and not counted).
    topology_events: u64,
    /// Dispatch policy for the vectorized kernel rounds (see
    /// [`kernel::vector`]); defaults to enabled with automatic
    /// strategy and width selection.
    vector_config: VectorConfig,
    /// Counters describing which inner loops the vectorized path
    /// actually ran (see [`Engine::vector_stats`]).
    vector_stats: VectorStats,
}

impl Engine {
    /// Creates an engine over `gp` with initial loads `x₁`.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != gp.num_nodes()`.
    pub fn new(gp: BalancingGraph, initial: LoadVector) -> Self {
        assert_eq!(
            initial.len(),
            gp.num_nodes(),
            "initial load vector must have one entry per node"
        );
        let negative_count = initial.negative_nodes();
        Engine {
            gp,
            loads: initial,
            monitor: None,
            step: 0,
            negative_node_steps: 0,
            negative_count,
            pre: PreRound::default(),
            injected_total: 0,
            discrepancy_scans: 0,
            topology_events: 0,
            vector_config: VectorConfig::default(),
            vector_stats: VectorStats::default(),
        }
    }

    /// Attaches a fresh [`FairnessMonitor`], with an empty cumulative
    /// ledger, that observes every subsequent round, and allocates the
    /// `n·d⁺` buffer the rounds stage their rows in for it. Rounds run
    /// on the reference round while it is attached, since the monitor
    /// reads each node's row.
    pub fn attach_monitor(&mut self) {
        let rows = vec![0; self.gp.num_nodes() * self.gp.degree_plus()];
        self.monitor = Some((FairnessMonitor::for_graph(&self.gp), rows));
    }

    /// The attached monitor, if any; its
    /// [`ledger`](FairnessMonitor::ledger) holds `F_t` over the rounds
    /// since it was attached.
    pub fn monitor(&self) -> Option<&FairnessMonitor> {
        self.monitor.as_ref().map(|(monitor, _)| monitor)
    }

    /// The balancing graph.
    pub fn graph(&self) -> &BalancingGraph {
        &self.gp
    }

    /// Current loads `x_t`.
    pub fn loads(&self) -> &LoadVector {
        &self.loads
    }

    /// Steps completed so far.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Total node-steps that ended with negative load.
    pub fn negative_node_steps(&self) -> u64 {
        self.negative_node_steps
    }

    /// Net signed load injected by workloads over all completed rounds,
    /// `Σ_t Σ_u w_t(u)` (an erroring round's injection is undone and
    /// not counted). Token conservation in the open system reads
    /// `loads().total() == initial_total + injected_total()`.
    pub fn injected_total(&self) -> i64 {
        self.injected_total
    }

    /// Topology events (double-edge swaps, port permutations, node
    /// sleep/wake) applied over all completed rounds. An erroring
    /// round's events are undone and not counted, so this always
    /// describes the graph the engine currently holds.
    pub fn topology_events_applied(&self) -> u64 {
        self.topology_events
    }

    /// Full `O(n)` discrepancy scans performed so far: exactly one per
    /// [`StepSummary`] produced — each [`step`](Engine::step) and each
    /// [`summary`](Engine::summary) call. [`run`](Engine::run) produces
    /// no summaries and pays none; the regression tests pin both.
    pub fn discrepancy_scans(&self) -> u64 {
        self.discrepancy_scans
    }

    /// Sets the dispatch policy for the vectorized kernel rounds:
    /// enable/disable, force a gather strategy, force a load width
    /// (the test batteries use this to pin each inner loop against the
    /// scalar oracle).
    pub fn set_vector_config(&mut self, config: VectorConfig) {
        self.vector_config = config;
    }

    /// The current vectorized-dispatch policy.
    pub fn vector_config(&self) -> &VectorConfig {
        &self.vector_config
    }

    /// Counters for the vectorized kernel rounds: runs dispatched,
    /// rounds per gather strategy, rounds at `i32` width, and loud
    /// `i32 → i64` fallbacks.
    pub fn vector_stats(&self) -> &VectorStats {
        &self.vector_stats
    }

    /// Publishes the engine's counters into a [`MetricRegistry`] under
    /// stable `engine_*` names.
    ///
    /// This is the one documented contract for the engine's counter
    /// accessors ([`vector_stats`](Engine::vector_stats),
    /// [`discrepancy_scans`](Engine::discrepancy_scans),
    /// [`topology_events_applied`](Engine::topology_events_applied),
    /// [`injected_total`](Engine::injected_total),
    /// [`negative_node_steps`](Engine::negative_node_steps)): **every
    /// counter is cumulative over the engine's lifetime**. No run
    /// resets any of them — chunked runs accumulate exactly
    /// like one long run — and all of them ride through
    /// [`export_state`](Engine::export_state) /
    /// [`from_state`](Engine::from_state), so a snapshot-resumed engine
    /// reports the same totals as the uninterrupted one. Because the
    /// values are cumulative, this method *sets* (never adds) each
    /// metric: filling twice, or before and after a restore, is
    /// idempotent. Regression tests pin both properties.
    pub fn fill_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_set("engine_steps_total", self.step as u64);
        reg.counter_set("engine_negative_node_steps_total", self.negative_node_steps);
        reg.counter_set("engine_topology_events_applied_total", self.topology_events);
        reg.counter_set("engine_discrepancy_scans_total", self.discrepancy_scans);
        reg.counter_set("engine_vector_runs_total", self.vector_stats.runs);
        reg.counter_set(
            "engine_vector_rounds_banded_total",
            self.vector_stats.rounds_banded,
        );
        reg.counter_set(
            "engine_vector_rounds_blocked_total",
            self.vector_stats.rounds_blocked,
        );
        reg.counter_set(
            "engine_vector_rounds_i32_total",
            self.vector_stats.rounds_i32,
        );
        reg.counter_set(
            "engine_vector_i32_fallbacks_total",
            self.vector_stats.i32_fallbacks,
        );
        // Net injection is signed (drains subtract), so it is a gauge.
        reg.gauge_set("engine_injected_net", self.injected_total);
    }

    /// Runs one reference round of `balancer` and reports its
    /// [`StepSummary`] (whose discrepancy costs an `O(n)` scan — use
    /// [`run`](Engine::run) when nobody reads the summaries).
    ///
    /// # Errors
    ///
    /// [`EngineError::Overdraw`] if a non-overdrawing balancer sends
    /// more than a node holds; [`EngineError::NegativeLoad`] if a
    /// non-overdrawing balancer would be asked to split a negative load
    /// (checked *before* the round — the balancer never sees the
    /// invalid state).
    pub fn step<B: Balancer + ?Sized>(
        &mut self,
        balancer: &mut B,
    ) -> Result<StepSummary, EngineError> {
        let run = Run {
            path: Path::Reference,
            ..Run::new(1)
        };
        self.run(balancer, run)?;
        Ok(self.summary())
    }

    /// The [`StepSummary`] of the current state: the step count, the
    /// discrepancy (one counted `O(n)` scan, see
    /// [`discrepancy_scans`](Engine::discrepancy_scans)) and the
    /// negative-node count. After a one-round [`run`](Engine::run)
    /// under churn or injection it is what [`step`](Engine::step)
    /// returns for a closed round.
    pub fn summary(&mut self) -> StepSummary {
        self.discrepancy_scans += 1;
        StepSummary {
            step: self.step,
            discrepancy: self.loads.discrepancy(),
            negative_nodes: self.negative_count,
        }
    }

    /// Runs `run.steps` rounds of `balancer`, each under `run`'s
    /// topology schedule, workload and sink. The round structure is
    /// *mutate topology, inject load, hand asleep queues to live
    /// neighbours, negative-check, balance*: the schedule's events for
    /// the round mutate the graph in place (double-edge swaps, port
    /// permutations, node sleep/wake), then the workload's deltas are
    /// applied and every asleep node's queue is handed to its live
    /// neighbours, all *before* the negative-load check and the
    /// scheme's flows, so the scheme balances the injected loads.
    ///
    /// [`Path::Auto`] without a monitor runs the fastest round it can.
    /// A closed-form scheme ([`KernelBalancer::uniform_kernel`], the
    /// SEND schemes) runs whole-array [`vector`] rounds when the vector
    /// layer is enabled and the system is static, closed and awake, and
    /// otherwise streams the closed-form gather
    /// `x'[u] = x[u] − d·b(x[u]) + Σ_{v∈N(u)} b(x[v])`; every other
    /// kernel computes its port flows in registers with
    /// [`kernel_node`](KernelBalancer::kernel_node), compiled for the
    /// concrete scheme type and the degree. Every other run takes the
    /// reference round, which feeds an attached monitor and its ledger.
    /// The sink sees `Mutate` (when a schedule runs),
    /// `Inject`/`Handoff`, then one `Stream` span per scalar round, or
    /// `VectorDispatch` instants for vector rounds, with
    /// `value = (tag << 32) | count` — tag 1 banded rounds, 2 blocked
    /// rounds, 3 `i32` rounds, 4 `i32 → i64` fallbacks, and tag 0 for a
    /// dispatch declined on load magnitude.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`]: an
    /// [`Overdraw`](EngineError::Overdraw) or
    /// [`NegativeLoad`](EngineError::NegativeLoad) as
    /// [`step`](Engine::step) reports it (a workload that drives a load
    /// negative under a non-overdrawing scheme surfaces as
    /// `NegativeLoad` carrying the post-injection load),
    /// [`Topology`](EngineError::Topology) when the schedule emits an
    /// event the graph rejects, or
    /// [`InjectionOverflow`](EngineError::InjectionOverflow). Every path
    /// reports the same step and node. On error the loads **and the
    /// graph** are those after the last fully completed round: the
    /// erroring round's injection and topology events are undone.
    pub fn run<B: Balancer + ?Sized>(
        &mut self,
        balancer: &mut B,
        run: Run<'_, '_, '_>,
    ) -> Result<(), EngineError> {
        balancer
            .as_kernel()
            .rounds(KernelCall { engine: self, run })
    }

    /// The rest of [`run`](Engine::run), reached through
    /// [`KernelRounds`](kernel::KernelRounds) with the concrete scheme
    /// type: an absent sink runs the [`NoopSink`] instantiation of the
    /// dispatcher, a present one the [`RingSink`] one.
    pub(crate) fn kernel_call<K: KernelBalancer>(
        &mut self,
        balancer: &mut K,
        run: Run<'_, '_, '_>,
    ) -> Result<(), EngineError> {
        let Run {
            steps,
            schedule,
            workload,
            sink,
            path,
        } = run;
        let run = KernelRun {
            reference: path == Path::Reference,
            ..KernelRun::new(steps, schedule, workload)
        };
        match sink {
            None => self.kernel_run(balancer, run, 1, &mut NoopSink),
            Some(sink) => self.kernel_run(balancer, run, 1, sink),
        }
    }

    /// [`run`](Engine::run) on [`Path::Reference`], for perfbench.
    #[deprecated(note = "perfbench only; use Engine::run")]
    pub fn run_fast_dyn<'s, 'w>(
        &mut self,
        balancer: &mut dyn Balancer,
        steps: usize,
        schedule: Option<&mut (dyn TopologySchedule + 's)>,
        workload: Option<&mut (dyn Workload + 'w)>,
    ) -> Result<(), EngineError> {
        let run = Run {
            steps,
            schedule,
            workload,
            sink: None,
            path: Path::Reference,
        };
        self.run(balancer, run)
    }

    /// A closed [`run`](Engine::run) of kernel rounds, for perfbench.
    #[deprecated(note = "perfbench only; use Engine::run")]
    pub fn run_kernel<K: KernelBalancer + ?Sized>(
        &mut self,
        balancer: &mut K,
        steps: usize,
    ) -> Result<(), EngineError> {
        let run = KernelRun::new(steps, StaticTopology::none(), NoWorkload::none());
        self.kernel_run(balancer, run, 1, &mut NoopSink)
    }

    /// [`run`](Engine::run) of kernel rounds, for perfbench.
    #[deprecated(note = "perfbench only; use Engine::run")]
    pub fn run_kernel_dyn<K, S, W>(
        &mut self,
        balancer: &mut K,
        steps: usize,
        schedule: Option<&mut S>,
        workload: Option<&mut W>,
    ) -> Result<(), EngineError>
    where
        K: KernelBalancer + ?Sized,
        S: TopologySchedule + ?Sized,
        W: Workload + ?Sized,
    {
        let run = KernelRun::new(steps, schedule, workload);
        self.kernel_run(balancer, run, 1, &mut NoopSink)
    }

    /// A traced [`run`](Engine::run) of kernel rounds, for perfbench.
    #[deprecated(note = "perfbench only; use Engine::run")]
    pub fn run_kernel_dyn_traced<K, S, W, Si>(
        &mut self,
        balancer: &mut K,
        steps: usize,
        schedule: Option<&mut S>,
        workload: Option<&mut W>,
        sink: &mut Si,
    ) -> Result<(), EngineError>
    where
        K: KernelBalancer + ?Sized,
        S: TopologySchedule + ?Sized,
        W: Workload + ?Sized,
        Si: Sink,
    {
        self.kernel_run(balancer, KernelRun::new(steps, schedule, workload), 1, sink)
    }

    /// The one round dispatcher behind every entry point. A monitored
    /// or [`Path::Reference`] run takes the reference round; any other
    /// run takes whole-array vector rounds, split across `threads`
    /// workers, when the configuration allows — a closed-form uniform
    /// scheme on a static, closed, fully awake system — and otherwise
    /// the scalar rounds [`kernel::run_rounds`] picks for `balancer`.
    /// It allocates the back half of the double buffer and applies the
    /// returned counters. The loop is monomorphised over the balancer,
    /// schedule, workload and sink types; in a `NoopSink` instantiation
    /// every probe compiles away.
    fn kernel_run<K, S, W, Si>(
        &mut self,
        balancer: &mut K,
        run: KernelRun<'_, S, W>,
        threads: usize,
        sink: &mut Si,
    ) -> Result<(), EngineError>
    where
        K: KernelBalancer + ?Sized,
        S: TopologySchedule + ?Sized,
        W: Workload + ?Sized,
        Si: Sink,
    {
        if run.steps == 0 {
            return Ok(());
        }
        // "Static" and "closed" are judged by `is_noop`, not by
        // `Option` shape — `Some(&mut StaticTopology)` and
        // `Some(&mut NoWorkload)` fold to the same closed static loop.
        // `run_uniform` itself may still decline on load magnitude,
        // falling through to the scalar stream — which stays
        // bit-identical, so dispatch is purely a performance decision.
        let static_topology = run.schedule.as_ref().is_none_or(|s| s.is_noop());
        let closed_system = run.workload.as_ref().is_none_or(|w| w.is_noop());
        let reference = run.reference || self.monitor.is_some();
        if !reference && static_topology && closed_system {
            if let Some(result) = self.vector_rounds(&*balancer, run.steps, threads, sink) {
                return result;
            }
        }
        let mut back = vec![0; self.gp.num_nodes()];
        let Engine {
            gp,
            loads,
            monitor,
            step,
            pre,
            negative_count,
            injected_total,
            topology_events,
            ..
        } = self;
        let st = RoundState {
            gp,
            loads: loads.as_mut_slice(),
            negative: negative_count,
            injected: injected_total,
            events: topology_events,
        };
        let run = KernelRun {
            base_step: *step,
            monitor: monitor.as_mut().map(|(m, rows)| (m, rows.as_mut_slice())),
            ..run
        };
        let (stats, err) = kernel::run_rounds(st, &mut back, pre, run, balancer, sink);
        self.step += stats.steps_done;
        self.negative_node_steps += stats.negative_node_steps;
        err.map_or(Ok(()), Err)
    }

    /// The dispatcher's vector rounds — one worker for
    /// [`run`](Engine::run), `threads` for
    /// [`run_parallel_traced`](Engine::run_parallel_traced): runs `steps`
    /// whole-array rounds split across `threads` workers when the
    /// configuration allows and the scheme has a closed form on this
    /// graph, on a fully awake graph (the caller has already ruled out
    /// churn and injection). `None` means the caller streams the scalar
    /// kernel instead — bit-identical, so dispatch is purely a
    /// performance decision.
    fn vector_rounds<K: KernelBalancer + ?Sized, Si: Sink>(
        &mut self,
        balancer: &K,
        steps: usize,
        threads: usize,
        sink: &mut Si,
    ) -> Option<Result<(), EngineError>> {
        if balancer.may_overdraw()
            || !self.vector_config.enabled
            || self.gp.graph().asleep_count() > 0
        {
            return None;
        }
        // The capability hook decides per graph (SEND(round) declines
        // below d° ≥ d).
        let spec = balancer.uniform_kernel(&self.gp)?;
        // Same pre-round class check, same step/node parity as the
        // scalar kernel's first round. Uniform flows never overdraw
        // (proofs in `kernel::vector`), so loads stay non-negative
        // invariantly and one entry check covers every round:
        // negative_node_steps gains exactly 0, matching the scalar path.
        if let Err(e) =
            round::check_negative(self.loads.as_slice(), self.negative_count, self.step + 1)
        {
            return Some(Err(e));
        }
        let config = self.vector_config;
        let before = self.vector_stats;
        let step_no = self.step as u64 + 1;
        if !vector::run_uniform(
            &self.gp,
            self.loads.as_mut_slice(),
            spec,
            steps,
            &config,
            &mut self.vector_stats,
            threads,
        ) {
            // Dispatch declined at run time (load magnitude): record the
            // scalar fallback.
            sink.instant(Phase::VectorDispatch, step_no, 0);
            return None;
        }
        if Si::ENABLED {
            // One structured instant per dispatch counter that moved
            // this run (tags documented on `run`).
            let after = self.vector_stats;
            let deltas = [
                (1u64, after.rounds_banded - before.rounds_banded),
                (2, after.rounds_blocked - before.rounds_blocked),
                (3, after.rounds_i32 - before.rounds_i32),
                (4, after.i32_fallbacks - before.i32_fallbacks),
            ];
            for (tag, count) in deltas {
                if count > 0 {
                    sink.instant(Phase::VectorDispatch, step_no, (tag << 32) | count);
                }
            }
        }
        self.step += steps;
        Some(Ok(()))
    }

    /// Runs `steps` rounds of a closed-form SEND scheme with each vector
    /// pass split by contiguous node range across `threads` workers
    /// (clamped to `1..=n`), spawned once for the run.
    ///
    /// The result is **bit-identical** to a closed
    /// [`run`](Engine::run) on [`Path::Auto`] — loads, step count, vector
    /// counters and errors — for any thread count: the workers run the
    /// same two passes as the serial vector round, one range each, with
    /// a barrier after each pass. The split applies exactly when
    /// `run` would dispatch the vector layer (see
    /// [`kernel::vector`]); otherwise, and for `threads == 1`, this *is*
    /// `run`'s round, through the same dispatcher — for example
    /// SEND([x/d⁺]) on a graph with `d° < d` streams the scalar kernel
    /// and reports its `Overdraw`, and an attached monitor takes the
    /// reference round and observes it.
    ///
    /// The balancer is shared by reference: schemes with a uniform
    /// closed form are stateless, so the scalar fallback runs a copy.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] encountered, exactly as
    /// [`run`](Engine::run) does.
    pub fn run_parallel<K>(
        &mut self,
        balancer: &K,
        steps: usize,
        threads: usize,
    ) -> Result<(), EngineError>
    where
        K: KernelBalancer + UniformKernel + Clone,
    {
        self.run_parallel_traced(balancer, steps, threads, &mut NoopSink)
    }

    /// [`run_parallel`](Engine::run_parallel) with a tracing [`Sink`]:
    /// the same `VectorDispatch` instants (or scalar-kernel spans) that
    /// [`run`](Engine::run) emits for the same run. Sinks observe only: loads, errors and counters
    /// are bit-identical for any sink and any thread count.
    ///
    /// # Errors
    ///
    /// As [`run_parallel`](Engine::run_parallel).
    pub fn run_parallel_traced<K, Si>(
        &mut self,
        balancer: &K,
        steps: usize,
        threads: usize,
        sink: &mut Si,
    ) -> Result<(), EngineError>
    where
        K: KernelBalancer + UniformKernel + Clone,
        Si: Sink,
    {
        let threads = threads.min(self.gp.num_nodes()).max(1);
        let run = KernelRun::new(steps, StaticTopology::none(), NoWorkload::none());
        self.kernel_run(&mut balancer.clone(), run, threads, sink)
    }

    /// Exports the engine's complete resumable state — everything a
    /// checkpoint must carry so that [`Engine::from_state`] continues
    /// the run bit-identically: graph (topology, port layout, asleep
    /// list), loads, step cursor, and every cumulative counter
    /// ([`injected_total`](Engine::injected_total),
    /// [`topology_events_applied`](Engine::topology_events_applied),
    /// [`negative_node_steps`](Engine::negative_node_steps),
    /// [`discrepancy_scans`](Engine::discrepancy_scans),
    /// [`vector_stats`](Engine::vector_stats)) plus the vector dispatch
    /// policy.
    ///
    /// Deliberately **not** exported, because each is either derivable
    /// or started fresh (exporting them stale would be the divergence
    /// bug this API exists to rule out):
    ///
    /// * the negative-load count — recomputed from the loads on
    ///   restore;
    /// * the fairness monitor, its cumulative ledger and its staging
    ///   buffer — observers of the rounds, out of scope for
    ///   checkpoint/resume (a restored engine starts them fresh via
    ///   [`attach_monitor`](Engine::attach_monitor)).
    #[must_use]
    pub fn export_state(&self) -> EngineState {
        EngineState {
            graph: self.gp.clone(),
            loads: self.loads.as_slice().to_vec(),
            step: self.step,
            negative_node_steps: self.negative_node_steps,
            injected_total: self.injected_total,
            topology_events_applied: self.topology_events,
            discrepancy_scans: self.discrepancy_scans,
            vector_config: self.vector_config,
            vector_stats: self.vector_stats,
        }
    }

    /// Rebuilds an engine from a state captured by
    /// [`export_state`](Engine::export_state); the restored engine
    /// continues the run bit-identically to the engine that exported —
    /// same loads, graph, errors, step numbering and cumulative
    /// counters on every execution path.
    ///
    /// # Panics
    ///
    /// Panics if `state.loads` does not have one entry per node of
    /// `state.graph` (a corrupt snapshot).
    #[must_use]
    pub fn from_state(state: EngineState) -> Self {
        let EngineState {
            graph,
            loads,
            step,
            negative_node_steps,
            injected_total,
            topology_events_applied,
            discrepancy_scans,
            vector_config,
            vector_stats,
        } = state;
        // `new` recomputes the negative count from the loads and
        // starts with no monitor.
        let mut engine = Engine::new(graph, LoadVector::new(loads));
        engine.step = step;
        engine.negative_node_steps = negative_node_steps;
        engine.injected_total = injected_total;
        engine.topology_events = topology_events_applied;
        engine.discrepancy_scans = discrepancy_scans;
        engine.vector_config = vector_config;
        engine.vector_stats = vector_stats;
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{RotorRouter, SendFloor};
    use dlb_graph::{generators, PortOrder, TopologyEvent};

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn conserves_tokens() {
        let gp = lazy_cycle(8);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 777));
        let mut bal = SendFloor::new();
        engine.run(&mut bal, Run::new(100)).unwrap();
        assert_eq!(engine.loads().total(), 777);
        assert_eq!(engine.step_count(), 100);
    }

    #[test]
    fn rotor_router_balances_cycle() {
        let gp = lazy_cycle(16);
        let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 1600));
        engine.run(&mut rotor, Run::new(2000)).unwrap();
        assert!(
            engine.loads().discrepancy() <= 8,
            "discrepancy {} too large",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn overdraw_rejected_for_honest_schemes() {
        struct Liar;
        impl Balancer for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn as_kernel(&mut self) -> &mut dyn kernel::KernelRounds {
                self
            }
        }
        impl KernelBalancer for Liar {
            fn kernel_node(&mut self, _: &BalancingGraph, u: usize, _: i64, flows: &mut [u64]) {
                // Sends 1000 from node 0 regardless of its load.
                flows.fill(0);
                if u == 0 {
                    flows[0] = 1000;
                }
            }
        }
        let gp = lazy_cycle(4);
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 5));
        let err = engine.step(&mut Liar).unwrap_err();
        assert!(matches!(err, EngineError::Overdraw { node: 0, .. }));
    }

    #[test]
    fn monitor_observes_steps() {
        let gp = lazy_cycle(8);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 100));
        engine.attach_monitor();
        engine.run(&mut SendFloor::new(), Run::new(10)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.steps_observed(), 10);
        assert_eq!(m.floor_violations(), 0);
    }

    #[test]
    fn ledger_tracks_steps() {
        let gp = lazy_cycle(4);
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 4));
        engine.attach_monitor();
        engine.run(&mut SendFloor::new(), Run::new(7)).unwrap();
        assert_eq!(engine.monitor().unwrap().ledger().steps(), 7);
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn rejects_wrong_initial_length() {
        let gp = lazy_cycle(4);
        let _ = Engine::new(gp, LoadVector::uniform(3, 1));
    }

    /// Regression: the scheme's rule used to run *before* the
    /// negative-load check, so a non-overdrawing scheme's `split_load`
    /// hit its debug assertion (a debug-build panic) instead of the
    /// documented error. The check now precedes the rule.
    #[test]
    fn negative_initial_load_is_an_error_not_a_panic() {
        let gp = lazy_cycle(4);
        let mut engine = Engine::new(gp, LoadVector::new(vec![5, -1, 3, 3]));
        let err = engine.step(&mut SendFloor::new()).unwrap_err();
        assert_eq!(
            err,
            EngineError::NegativeLoad {
                node: 1,
                load: -1,
                step: 1
            }
        );
        // The failed step must not have advanced or mutated anything.
        assert_eq!(engine.step_count(), 0);
        assert_eq!(engine.loads().as_slice(), &[5, -1, 3, 3]);
    }

    #[test]
    fn negative_initial_load_rejected_on_every_path() {
        let initial = LoadVector::new(vec![-2, 10, 0, 0]);
        let mut bal = SendFloor::new();

        let mut engine = Engine::new(lazy_cycle(4), initial.clone());
        assert!(matches!(
            engine.run(&mut bal, Run::new(5)),
            Err(EngineError::NegativeLoad { node: 0, .. })
        ));
        let mut engine = Engine::new(lazy_cycle(4), initial.clone());
        assert!(matches!(
            engine.run(
                &mut bal,
                Run {
                    path: Path::Reference,
                    ..Run::new(5)
                }
            ),
            Err(EngineError::NegativeLoad { node: 0, .. })
        ));
        for threads in [1, 2, 4] {
            let mut engine = Engine::new(lazy_cycle(4), initial.clone());
            assert!(matches!(
                engine.run_parallel(&SendFloor::new(), 5, threads),
                Err(EngineError::NegativeLoad { node: 0, .. })
            ));
        }
    }

    /// A monitored round that is rejected — here at the last node, after
    /// every other row validated — leaves the monitor exactly as the
    /// last completed round left it: ledger, counters and steps. On a
    /// lazy cycle (`d⁺ = 4`) and at `d⁺ = 5` (the any-degree buffer), on
    /// both paths.
    #[test]
    fn rejected_monitored_round_leaves_the_monitor_unchanged() {
        /// SEND(⌊x/d⁺⌋) everywhere but the last node, which sends 1000.
        struct LastNodeLies;
        impl Balancer for LastNodeLies {
            fn name(&self) -> &'static str {
                "last-node-lies"
            }
            fn as_kernel(&mut self) -> &mut dyn kernel::KernelRounds {
                self
            }
        }
        impl KernelBalancer for LastNodeLies {
            fn kernel_node(&mut self, gp: &BalancingGraph, u: usize, x: i64, flows: &mut [u64]) {
                SendFloor::new().kernel_node(gp, u, x, flows);
                if u + 1 == gp.num_nodes() {
                    flows[0] = 1000;
                }
            }
        }
        let five = BalancingGraph::with_self_loops(generators::cycle(8).unwrap(), 3).unwrap();
        for gp in [lazy_cycle(8), five] {
            for path in [Path::Auto, Path::Reference] {
                let tag = format!("d⁺ = {} on {path:?}", gp.degree_plus());
                let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(8, 101));
                engine.attach_monitor();
                let run = |steps| Run {
                    path,
                    ..Run::new(steps)
                };
                engine.run(&mut SendFloor::new(), run(3)).unwrap();
                let before = engine.monitor().unwrap().clone();
                let loads = engine.loads().clone();
                let err = engine.run(&mut LastNodeLies, run(2)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EngineError::Overdraw {
                            node: 7,
                            step: 4,
                            ..
                        }
                    ),
                    "{tag}: {err:?}"
                );
                assert_eq!(engine.monitor(), Some(&before), "{tag}");
                assert_eq!(engine.monitor().unwrap().steps_observed(), 3, "{tag}");
                assert_eq!(engine.monitor().unwrap().ledger().steps(), 3, "{tag}");
                assert_eq!(engine.loads(), &loads, "{tag}");
                assert_eq!(engine.step_count(), 3, "{tag}");
            }
        }
    }

    #[test]
    fn ledger_is_recorded_only_while_a_monitor_is_attached() {
        let mut slow = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
        let mut fast = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
        let mut bal = SendFloor::new();
        slow.attach_monitor();
        for _ in 0..97 {
            slow.step(&mut bal).unwrap();
        }
        fast.run(&mut bal, Run::new(97)).unwrap();
        assert_eq!(slow.loads(), fast.loads());
        assert_eq!(slow.step_count(), fast.step_count());
        assert_eq!(slow.negative_node_steps(), fast.negative_node_steps());
        // No monitor, no ledger: the kernel rounds ran.
        assert!(fast.monitor().is_none());
        assert!(fast.vector_stats().runs > 0);
        assert_eq!(slow.monitor().unwrap().ledger().steps(), 97);
        // Attaching mid-run starts an empty ledger over the rounds after.
        fast.attach_monitor();
        fast.run(&mut bal, Run::new(3)).unwrap();
        assert_eq!(fast.monitor().unwrap().ledger().steps(), 3);
        assert_eq!(fast.monitor().unwrap().steps_observed(), 3);
        // Every entry point feeds it, the range-split one included.
        let runs = fast.vector_stats().runs;
        fast.run_parallel(&bal, 4, 2).unwrap();
        assert_eq!(fast.monitor().unwrap().steps_observed(), 7);
        assert_eq!(fast.vector_stats().runs, runs);
    }

    #[test]
    fn run_parallel_is_bit_identical_for_any_thread_count() {
        let n = 37; // deliberately not divisible by the thread counts
        let reference = {
            let mut engine = Engine::new(lazy_cycle(n), LoadVector::point_mass(n, 7411));
            engine.run(&mut SendFloor::new(), Run::new(150)).unwrap();
            engine.loads().clone()
        };
        for threads in [1, 2, 3, 4, 5, 8] {
            let mut engine = Engine::new(lazy_cycle(n), LoadVector::point_mass(n, 7411));
            engine
                .run_parallel(&SendFloor::new(), 150, threads)
                .unwrap();
            assert_eq!(
                engine.loads(),
                &reference,
                "loads diverged at {threads} threads"
            );
            assert_eq!(engine.step_count(), 150);
            assert_eq!(engine.loads().total(), 7411);
        }
    }

    #[test]
    fn run_parallel_reports_overdraw_like_serial() {
        // SEND([x/d+]) on a lazy graph is fine; on a graph with too few
        // self-loops its rule over-sends, which the engine must turn
        // into the same Overdraw error on every path (the parallel path
        // must not panic or hang).
        use crate::schemes::SendRound;
        // Bare graph (d° = 0 < d): with odd loads, SEND([x/d+]) rounds
        // up on both originals and over-sends by one — and e = 1 < d
        // exercises the saturating `loop_extras` arithmetic.
        let make = || BalancingGraph::bare(generators::cycle(6).unwrap());
        let initial = LoadVector::uniform(6, 11);
        let mut serial = Engine::new(make(), initial.clone());
        let serial_err = serial.run_parallel(&SendRound::new(), 3, 1).unwrap_err();
        for threads in [2, 3] {
            let mut engine = Engine::new(make(), initial.clone());
            let err = engine
                .run_parallel(&SendRound::new(), 3, threads)
                .unwrap_err();
            assert_eq!(err, serial_err, "error diverged at {threads} threads");
            assert_eq!(engine.loads(), serial.loads());
        }
    }

    /// Drops `rate` tokens on node 0 every round.
    struct Node0Arrivals {
        rate: i64,
    }
    impl crate::Workload for Node0Arrivals {
        fn label(&self) -> String {
            format!("node0(+{})", self.rate)
        }
        fn inject(&mut self, _round: usize, _loads: &[i64], deltas: &mut [i64]) {
            deltas[0] += self.rate;
        }
    }

    /// Removes `rate` tokens from node 1 every round, unclamped — so it
    /// eventually drives the load negative.
    struct Node1Drain {
        rate: i64,
    }
    impl crate::Workload for Node1Drain {
        fn label(&self) -> String {
            format!("node1(-{})", self.rate)
        }
        fn inject(&mut self, _round: usize, _loads: &[i64], deltas: &mut [i64]) {
            deltas[1] -= self.rate;
        }
    }

    #[test]
    fn injection_conserves_total_plus_cumulative_delta() {
        let mut engine = Engine::new(lazy_cycle(8), LoadVector::uniform(8, 10));
        engine
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut Node0Arrivals { rate: 3 }),
                    ..Run::new(25)
                },
            )
            .unwrap();
        assert_eq!(engine.injected_total(), 75);
        assert_eq!(engine.loads().total(), 80 + 75);
    }

    #[test]
    fn injection_is_identical_across_all_paths() {
        let make = || Engine::new(lazy_cycle(12), LoadVector::point_mass(12, 240));
        let mut reference = make();
        for _ in 0..30 {
            reference
                .run(
                    &mut SendFloor::new(),
                    Run {
                        workload: Some(&mut Node0Arrivals { rate: 5 }),
                        path: Path::Reference,
                        ..Run::new(1)
                    },
                )
                .unwrap();
        }

        let mut fast = make();
        fast.run(
            &mut SendFloor::new(),
            Run {
                workload: Some(&mut Node0Arrivals { rate: 5 }),
                path: Path::Reference,
                ..Run::new(30)
            },
        )
        .unwrap();
        assert_eq!(fast.loads(), reference.loads());
        assert_eq!(fast.injected_total(), reference.injected_total());

        let mut kern = make();
        kern.run(
            &mut SendFloor::new(),
            Run {
                workload: Some(&mut Node0Arrivals { rate: 5 }),
                ..Run::new(30)
            },
        )
        .unwrap();
        assert_eq!(kern.loads(), reference.loads());
        assert_eq!(kern.injected_total(), reference.injected_total());
    }

    #[test]
    fn injection_triggered_negative_errors_identically_and_is_undone() {
        // Node 1 starts at 10 and loses 4/round while holding roughly
        // its share of the flow; within a few rounds the drain wins and
        // the post-injection check must fire — on the same step and
        // node on every path, with the erroring round's injection
        // undone.
        let make = || Engine::new(lazy_cycle(4), LoadVector::uniform(4, 10));
        let run_ref = |steps: usize| {
            let mut engine = make();
            let mut err = None;
            for _ in 0..steps {
                match engine.run(
                    &mut SendFloor::new(),
                    Run {
                        workload: Some(&mut Node1Drain { rate: 4 }),
                        path: Path::Reference,
                        ..Run::new(1)
                    },
                ) {
                    Ok(_) => {}
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            (engine, err.expect("drain must trip the negative check"))
        };
        let (reference, ref_err) = run_ref(50);
        assert!(matches!(ref_err, EngineError::NegativeLoad { node: 1, .. }));
        // The failed round is not counted and kept no injection.
        assert_eq!(
            reference.loads().total(),
            40 + reference.injected_total(),
            "undone injection must not leak into the totals"
        );

        let mut kern = make();
        let kern_err = kern
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut Node1Drain { rate: 4 }),
                    ..Run::new(50)
                },
            )
            .unwrap_err();
        assert_eq!(kern_err, ref_err);
        assert_eq!(kern.loads(), reference.loads());
        assert_eq!(kern.step_count(), reference.step_count());
        assert_eq!(kern.injected_total(), reference.injected_total());
    }

    /// The `discrepancy_scans` contract: exactly one discrepancy scan
    /// per `StepSummary` produced — one per `step` and one per
    /// `summary` — and none for `run`, which produces no summaries.
    #[test]
    fn one_discrepancy_scan_per_summary() {
        let gp = lazy_cycle(16);
        let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 1600));
        while engine.step(&mut rotor).unwrap().discrepancy > 10 {}
        assert!(engine.step_count() > 50, "balancing must take many rounds");
        assert_eq!(
            engine.discrepancy_scans(),
            engine.step_count() as u64,
            "a step loop scans once per round"
        );
        let summaries = engine.step_count() as u64;
        // The summary-free runs never scan, on either path.
        engine.run(&mut rotor, Run::new(5)).unwrap();
        let reference = Run {
            path: Path::Reference,
            ..Run::new(5)
        };
        engine.run(&mut rotor, reference).unwrap();
        engine.run(&mut rotor, Run::new(0)).unwrap();
        assert_eq!(engine.discrepancy_scans(), summaries);
        // A summary after a run costs exactly one scan.
        let s = engine.summary();
        assert_eq!(s.step, engine.step_count());
        assert_eq!(engine.discrepancy_scans(), summaries + 1);
    }

    /// A `summary` after a one-round run must equal `step`'s summary
    /// for the same round, including under schemes that leave negative
    /// loads in place and while handoffs move load.
    #[test]
    fn summary_after_a_run_matches_step() {
        use crate::schemes::SendRound;
        // The second graph has node 0 — the point mass — asleep, so
        // every round's handoff moves load before the summary is taken
        // (its neighbours keep sending to it, and it keeps forwarding).
        let awake = lazy_cycle(8);
        let mut asleep = lazy_cycle(8);
        asleep
            .graph_mut()
            .apply_event(&TopologyEvent::Sleep { node: 0 })
            .unwrap();
        for gp in [awake, asleep] {
            let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(8, 803));
            let mut shadow = Engine::new(gp, LoadVector::point_mass(8, 803));
            let mut expected = Vec::new();
            let mut bal = SendRound::new();
            for _ in 0..40 {
                expected.push(shadow.step(&mut bal).unwrap().discrepancy);
            }
            let mut seen = Vec::new();
            for _ in 0..40 {
                engine.run(&mut SendRound::new(), Run::new(1)).unwrap();
                seen.push(engine.summary().discrepancy);
            }
            assert_eq!(seen, expected);
            assert_eq!(engine.loads(), shadow.loads());
        }
    }

    /// `run`'s dispatch rule, case by case, read off the spans each
    /// round emits — `VectorDispatch` for the vector layer, `Stream` for
    /// a reference or scalar kernel round — and off the vector counters.
    #[test]
    fn run_takes_the_kernel_only_for_kernel_schemes_without_a_monitor() {
        use crate::schemes::QuasirandomDiffusion;
        use dlb_obs::RingSink;
        let (n, steps) = (64, 40);
        let make = || Engine::new(lazy_cycle(n), LoadVector::point_mass(n, 6400));
        let traced = |engine: &mut Engine, bal: &mut dyn Balancer, path: Path| {
            let mut sink = RingSink::with_capacity(4 * steps);
            let run = Run {
                sink: Some(&mut sink),
                path,
                ..Run::new(steps)
            };
            engine.run(bal, run).unwrap();
            [Phase::VectorDispatch, Phase::Stream].map(|p| sink.phase_count(p))
        };
        let rounds = steps as u64;

        // Closed SEND, no monitor: one vector run, no summary scans.
        let mut auto = make();
        assert_eq!(traced(&mut auto, &mut SendFloor::new(), Path::Auto)[1], 0);
        assert_eq!(auto.vector_stats().runs, 1);
        assert_eq!(auto.vector_stats().rounds_banded, rounds);
        assert_eq!(auto.discrepancy_scans(), 0);

        // Forced reference: the same loads, no vector run.
        let mut reference = make();
        let spans = traced(&mut reference, &mut SendFloor::new(), Path::Reference);
        assert_eq!(spans, [0, rounds]);
        assert_eq!(reference.vector_stats().runs, 0);
        assert_eq!(reference.loads(), auto.loads());

        // A stateful kernel streams scalar kernel rounds.
        let mut rotor = make();
        let mut rr = RotorRouter::new(&lazy_cycle(n), PortOrder::Sequential).unwrap();
        assert_eq!(traced(&mut rotor, &mut rr, Path::Auto), [0, rounds]);

        // A monitor attached: the reference round, recording exactly the
        // ledger and monitor of the step loop.
        let mut monitored = make();
        monitored.attach_monitor();
        let spans = traced(&mut monitored, &mut SendFloor::new(), Path::Auto);
        assert_eq!(spans, [0, rounds]);
        assert_eq!(monitored.vector_stats().runs, 0);
        let mut stepped = make();
        stepped.attach_monitor();
        for _ in 0..steps {
            stepped.step(&mut SendFloor::new()).unwrap();
        }
        assert_eq!(monitored.monitor(), stepped.monitor());
        assert_eq!(monitored.monitor().unwrap().ledger().steps(), steps);
        assert_eq!(monitored.loads(), stepped.loads());

        // An overdrawing baseline streams scalar kernel rounds too, and
        // matches its step loop.
        let mut quasi = make();
        let mut bal = QuasirandomDiffusion::new(&lazy_cycle(n));
        assert_eq!(traced(&mut quasi, &mut bal, Path::Auto), [0, rounds]);
        let mut quasi_ref = make();
        let mut bal = QuasirandomDiffusion::new(&lazy_cycle(n));
        for _ in 0..steps {
            quasi_ref.step(&mut bal).unwrap();
        }
        assert_eq!(quasi.loads(), quasi_ref.loads());
    }

    /// A 0-regular graph with one self-loop per node (`d⁺ = 1`, the
    /// one graph with no original port that `with_self_loops` accepts):
    /// every token stays home, identically on the reference round, the
    /// vector layer and the scalar kernel.
    #[test]
    fn zero_regular_graph_with_a_self_loop_runs_identically_on_both_paths() {
        let empty = dlb_graph::RegularGraph::from_adjacency(5, 0, Vec::new()).unwrap();
        let gp = BalancingGraph::with_self_loops(empty, 1).unwrap();
        let initial = LoadVector::new(vec![0, 3, 9, 1, 4]);
        let run = |path: Path, vector: bool| {
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.set_vector_config(VectorConfig {
                enabled: vector,
                ..VectorConfig::default()
            });
            let run = Run {
                path,
                ..Run::new(6)
            };
            engine.run(&mut SendFloor::new(), run).unwrap();
            engine
        };
        let reference = run(Path::Reference, true);
        assert_eq!(reference.loads(), &initial);
        for vector in [true, false] {
            let auto = run(Path::Auto, vector);
            assert_eq!(auto.loads(), reference.loads(), "vector layer {vector}");
            assert_eq!(auto.step_count(), 6);
            assert_eq!(auto.vector_stats().runs, u64::from(vector));
        }
    }

    #[test]
    fn step_summary_negative_nodes_matches_scan() {
        use crate::schemes::SendRound;
        let gp = lazy_cycle(8);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 803));
        let mut bal = SendRound::new();
        for _ in 0..20 {
            let s = engine.step(&mut bal).unwrap();
            assert_eq!(s.negative_nodes, engine.loads().negative_nodes());
        }
    }

    /// A tiny deterministic schedule for the dyn-path tests: one swap
    /// at round 2, a sleep at round 4, the matching wake at round 8.
    struct MiniChurn;
    impl TopologySchedule for MiniChurn {
        fn label(&self) -> String {
            "mini-churn".into()
        }
        fn events(
            &mut self,
            round: usize,
            _g: &dlb_graph::RegularGraph,
            out: &mut Vec<TopologyEvent>,
        ) {
            match round {
                2 => out.push(TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 6,
                    d: 7,
                }),
                4 => out.push(TopologyEvent::Sleep { node: 3 }),
                8 => out.push(TopologyEvent::Wake { node: 3 }),
                _ => {}
            }
        }
    }

    #[test]
    fn dyn_paths_agree_on_loads_graph_and_counters() {
        let make = || Engine::new(lazy_cycle(12), LoadVector::point_mass(12, 240));
        let reference = {
            let mut engine = make();
            for _ in 0..20 {
                engine
                    .run(
                        &mut SendFloor::new(),
                        Run {
                            schedule: Some(&mut MiniChurn),
                            workload: Some(&mut Node0Arrivals { rate: 5 }),
                            path: Path::Reference,
                            ..Run::new(1)
                        },
                    )
                    .unwrap();
            }
            engine
        };
        assert_eq!(reference.topology_events_applied(), 3);
        assert!(reference.graph().graph().has_edge(0, 6), "swap landed");
        assert!(reference.graph().graph().is_awake(3), "woken back up");

        let mut fast = make();
        fast.run(
            &mut SendFloor::new(),
            Run {
                schedule: Some(&mut MiniChurn),
                workload: Some(&mut Node0Arrivals { rate: 5 }),
                path: Path::Reference,
                ..Run::new(20)
            },
        )
        .unwrap();
        assert_eq!(fast.loads(), reference.loads());
        assert_eq!(fast.graph(), reference.graph());
        assert_eq!(fast.injected_total(), reference.injected_total());
        assert_eq!(fast.topology_events_applied(), 3);

        let mut kern = make();
        kern.run(
            &mut SendFloor::new(),
            Run {
                schedule: Some(&mut MiniChurn),
                workload: Some(&mut Node0Arrivals { rate: 5 }),
                ..Run::new(20)
            },
        )
        .unwrap();
        assert_eq!(kern.loads(), reference.loads());
        assert_eq!(kern.graph(), reference.graph());
        assert_eq!(kern.topology_events_applied(), 3);
    }

    #[test]
    fn asleep_node_hands_its_queue_to_live_neighbors_and_never_plans() {
        // Sleep node 0 (the point mass) at round 1; its pile must move
        // to nodes 1 and 11 at the round boundary and node 0 must send
        // nothing while asleep.
        struct SleepZero;
        impl TopologySchedule for SleepZero {
            fn label(&self) -> String {
                "sleep-zero".into()
            }
            fn events(
                &mut self,
                round: usize,
                _g: &dlb_graph::RegularGraph,
                out: &mut Vec<TopologyEvent>,
            ) {
                if round == 1 {
                    out.push(TopologyEvent::Sleep { node: 0 });
                }
            }
        }
        let gp = lazy_cycle(12);
        let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(12, 100));
        let run = Run {
            schedule: Some(&mut SleepZero),
            path: Path::Reference,
            ..Run::new(6)
        };
        engine.run(&mut rotor, run).unwrap();
        assert_eq!(engine.loads().total(), 100, "handoff conserves");
        assert!(!engine.graph().graph().is_awake(0));
        // Node 0 went down in round 1's topology phase, before any
        // flows: it is drained at every round boundary, so it never
        // sends and its rotor never moves — everything it receives
        // mid-round (schemes are topology-oblivious) is forwarded at
        // the next boundary.
        assert_eq!(rotor.rotors()[0], 0, "asleep node must never send");
        assert!(rotor.rotors()[1] != 0, "live neighbours balance the pile");
        assert!(
            engine.loads().get(0) < 50,
            "the pile moved off the failed node (only one round of receipts may sit in its queue)"
        );
        // Closed system, so injected_total stays zero even though the
        // handoff machinery ran.
        assert_eq!(engine.injected_total(), 0);
    }

    #[test]
    fn erroring_round_rolls_back_topology_events_on_every_path() {
        // Drain node 1 hard so the negative check trips mid-run while
        // the schedule keeps swapping: the failed round's swap must be
        // undone everywhere, leaving all paths with identical graphs.
        struct SwapEveryRound;
        impl TopologySchedule for SwapEveryRound {
            fn label(&self) -> String {
                "swap-every-round".into()
            }
            fn events(
                &mut self,
                round: usize,
                g: &dlb_graph::RegularGraph,
                out: &mut Vec<TopologyEvent>,
            ) {
                // Alternate a swap and its inverse so every round has a
                // valid event regardless of how far the run got.
                if round % 2 == 1 {
                    if g.has_edge(4, 5) && g.has_edge(8, 9) {
                        out.push(TopologyEvent::Swap {
                            a: 4,
                            b: 5,
                            c: 8,
                            d: 9,
                        });
                    }
                } else if g.has_edge(4, 8) && g.has_edge(5, 9) {
                    out.push(TopologyEvent::Swap {
                        a: 4,
                        b: 8,
                        c: 5,
                        d: 9,
                    });
                }
            }
        }
        let make = || Engine::new(lazy_cycle(12), LoadVector::uniform(12, 10));
        let run_ref = || {
            let mut engine = make();
            let mut err = None;
            for _ in 0..50 {
                match engine.run(
                    &mut SendFloor::new(),
                    Run {
                        schedule: Some(&mut SwapEveryRound),
                        workload: Some(&mut Node1Drain { rate: 4 }),
                        path: Path::Reference,
                        ..Run::new(1)
                    },
                ) {
                    Ok(_) => {}
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            (engine, err.expect("drain must trip the negative check"))
        };
        let (reference, ref_err) = run_ref();
        assert!(matches!(ref_err, EngineError::NegativeLoad { node: 1, .. }));

        let mut kern = make();
        let kern_err = kern
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: Some(&mut SwapEveryRound),
                    workload: Some(&mut Node1Drain { rate: 4 }),
                    ..Run::new(50)
                },
            )
            .unwrap_err();
        assert_eq!(kern_err, ref_err);
        assert_eq!(kern.loads(), reference.loads());
        assert_eq!(
            kern.graph(),
            reference.graph(),
            "failed round's swap undone"
        );
        assert_eq!(
            kern.topology_events_applied(),
            reference.topology_events_applied()
        );
    }

    #[test]
    fn invalid_event_is_a_topology_error_with_full_rollback_on_every_path() {
        // Round 3 emits a swap on an absent edge: the engine must
        // report `Topology` at step 3 with rounds 1–2 intact, on every
        // path, with the graph and loads untouched by round 3.
        struct BadAtRound3;
        impl TopologySchedule for BadAtRound3 {
            fn label(&self) -> String {
                "bad-at-3".into()
            }
            fn events(
                &mut self,
                round: usize,
                _g: &dlb_graph::RegularGraph,
                out: &mut Vec<TopologyEvent>,
            ) {
                if round == 3 {
                    out.push(TopologyEvent::Swap {
                        a: 0,
                        b: 2,
                        c: 5,
                        d: 7,
                    });
                }
            }
        }
        let make = || Engine::new(lazy_cycle(12), LoadVector::point_mass(12, 120));
        let mut reference = make();
        let mut ref_err = None;
        for _ in 0..5 {
            let round = Run {
                schedule: Some(&mut BadAtRound3),
                path: Path::Reference,
                ..Run::new(1)
            };
            if let Err(e) = reference.run(&mut SendFloor::new(), round) {
                ref_err = Some(e);
                break;
            }
        }
        let ref_err = ref_err.expect("round 3 must fail");
        assert!(
            matches!(&ref_err, EngineError::Topology { step: 3, reason } if reason.contains("absent")),
            "unexpected error {ref_err:?}"
        );
        assert_eq!(reference.step_count(), 2);

        let mut kern = make();
        let run = Run {
            schedule: Some(&mut BadAtRound3),
            ..Run::new(5)
        };
        let kern_err = kern.run(&mut SendFloor::new(), run).unwrap_err();
        assert_eq!(kern_err, ref_err);
        assert_eq!(kern.loads(), reference.loads());
        assert_eq!(kern.step_count(), 2);
        assert_eq!(kern.graph(), reference.graph());
    }

    /// Regression (PR 5 review): the serial round order is *mutate
    /// topology, inject, negative-check* — so with a negative seed
    /// and a churning schedule, a rejected round-1 event must win as
    /// `Topology` and a valid round-1 event must surface the seed as
    /// `NegativeLoad`, **identically on every path**.
    #[test]
    fn negative_seed_under_churn_orders_errors_like_the_serial_round() {
        struct ValidSwapRound1;
        impl TopologySchedule for ValidSwapRound1 {
            fn label(&self) -> String {
                "valid-swap-at-1".into()
            }
            fn events(
                &mut self,
                round: usize,
                g: &dlb_graph::RegularGraph,
                out: &mut Vec<TopologyEvent>,
            ) {
                if round == 1 && g.has_edge(4, 5) && g.has_edge(8, 9) {
                    out.push(TopologyEvent::Swap {
                        a: 4,
                        b: 5,
                        c: 8,
                        d: 9,
                    });
                }
            }
        }
        struct BadAtRound1;
        impl TopologySchedule for BadAtRound1 {
            fn label(&self) -> String {
                "bad-at-1".into()
            }
            fn events(
                &mut self,
                round: usize,
                _g: &dlb_graph::RegularGraph,
                out: &mut Vec<TopologyEvent>,
            ) {
                if round == 1 {
                    out.push(TopologyEvent::Swap {
                        a: 0,
                        b: 2,
                        c: 5,
                        d: 7,
                    });
                }
            }
        }
        let initial = LoadVector::new(vec![5, -1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]);
        let drive = |mk: &dyn Fn(&mut Engine) -> EngineError| {
            let mut engine = Engine::new(lazy_cycle(12), initial.clone());
            let err = mk(&mut engine);
            assert_eq!(engine.step_count(), 0);
            assert_eq!(engine.loads(), &initial, "failed round must not mutate");
            assert_eq!(
                engine.graph(),
                &lazy_cycle(12),
                "failed round must roll its events back"
            );
            err
        };
        // Invalid round-1 event: Topology outranks the negative seed.
        let reference = drive(&|e| {
            let round = Run {
                schedule: Some(&mut BadAtRound1),
                path: Path::Reference,
                ..Run::new(1)
            };
            e.run(&mut SendFloor::new(), round).unwrap_err()
        });
        assert!(matches!(reference, EngineError::Topology { step: 1, .. }));
        let kernel = drive(&|e| {
            let run = Run {
                schedule: Some(&mut BadAtRound1),
                ..Run::new(5)
            };
            e.run(&mut SendFloor::new(), run).unwrap_err()
        });
        assert_eq!(kernel, reference, "kernel rounds");
        // Valid round-1 churn (a swap every round): the negative seed
        // itself must surface, with the erroring round's swap rolled
        // back everywhere.
        let reference = drive(&|e| {
            let round = Run {
                schedule: Some(&mut ValidSwapRound1),
                path: Path::Reference,
                ..Run::new(1)
            };
            e.run(&mut SendFloor::new(), round).unwrap_err()
        });
        assert_eq!(
            reference,
            EngineError::NegativeLoad {
                node: 1,
                load: -1,
                step: 1
            }
        );
        let kernel = drive(&|e| {
            let run = Run {
                schedule: Some(&mut ValidSwapRound1),
                ..Run::new(5)
            };
            e.run(&mut SendFloor::new(), run).unwrap_err()
        });
        assert_eq!(kernel, reference, "kernel rounds");
    }

    /// Asserts every resumable counter of `a` equals `b`'s — the
    /// snapshot contract the serve layer builds on.
    fn assert_counters_match(a: &Engine, b: &Engine, what: &str) {
        assert_eq!(a.loads(), b.loads(), "{what}: loads");
        assert_eq!(a.graph(), b.graph(), "{what}: graph");
        assert_eq!(a.step_count(), b.step_count(), "{what}: step");
        assert_eq!(
            a.negative_node_steps(),
            b.negative_node_steps(),
            "{what}: negative_node_steps"
        );
        assert_eq!(
            a.injected_total(),
            b.injected_total(),
            "{what}: injected_total"
        );
        assert_eq!(
            a.topology_events_applied(),
            b.topology_events_applied(),
            "{what}: topology_events"
        );
        assert_eq!(
            a.discrepancy_scans(),
            b.discrepancy_scans(),
            "{what}: discrepancy_scans"
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical_under_churn_and_injection() {
        // Reference: 20 uninterrupted dynamic rounds (swap at 2, sleep
        // at 4, wake at 8, steady node-0 arrivals).
        let make = || Engine::new(lazy_cycle(12), LoadVector::point_mass(12, 240));
        let mut reference = make();
        reference
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: Some(&mut MiniChurn),
                    workload: Some(&mut Node0Arrivals { rate: 5 }),
                    path: Path::Reference,
                    ..Run::new(20)
                },
            )
            .unwrap();

        // Split at round 3 — before the sleep/wake pair, so the asleep
        // list crosses the snapshot boundary in both directions.
        let mut first = make();
        first
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: Some(&mut MiniChurn),
                    workload: Some(&mut Node0Arrivals { rate: 5 }),
                    path: Path::Reference,
                    ..Run::new(3)
                },
            )
            .unwrap();
        let state = first.export_state();
        assert_eq!(state, state.clone(), "state is a plain value");
        let mut resumed = Engine::from_state(state);
        // MiniChurn keys on the absolute round number, which the
        // restored step cursor preserves.
        resumed
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: Some(&mut MiniChurn),
                    workload: Some(&mut Node0Arrivals { rate: 5 }),
                    path: Path::Reference,
                    ..Run::new(17)
                },
            )
            .unwrap();
        assert_counters_match(&resumed, &reference, "reference resume");

        // Same split driven through the kernel path.
        let mut kern = make();
        kern.run(
            &mut SendFloor::new(),
            Run {
                schedule: Some(&mut MiniChurn),
                workload: Some(&mut Node0Arrivals { rate: 5 }),
                ..Run::new(3)
            },
        )
        .unwrap();
        let mut resumed = Engine::from_state(kern.export_state());
        resumed
            .run(
                &mut SendFloor::new(),
                Run {
                    schedule: Some(&mut MiniChurn),
                    workload: Some(&mut Node0Arrivals { rate: 5 }),
                    ..Run::new(17)
                },
            )
            .unwrap();
        assert_counters_match(&resumed, &reference, "kernel-path resume");
    }

    #[test]
    fn snapshot_resume_preserves_vector_round_counters() {
        // Closed-system kernel run on the vectorized path: the
        // per-round counters must accumulate across the split exactly
        // as in the uninterrupted run. (`runs` is per-dispatch and
        // legitimately counts the split itself, so it is exempt.)
        let make = || Engine::new(lazy_cycle(64), LoadVector::point_mass(64, 6400));
        let mut reference = make();
        reference.run(&mut SendFloor::new(), Run::new(100)).unwrap();
        let uninterrupted = reference.vector_stats();

        let mut first = make();
        first.run(&mut SendFloor::new(), Run::new(40)).unwrap();
        let mut resumed = Engine::from_state(first.export_state());
        resumed.run(&mut SendFloor::new(), Run::new(60)).unwrap();
        assert_counters_match(&resumed, &reference, "vector resume");
        let split = resumed.vector_stats();
        assert_eq!(split.rounds_banded, uninterrupted.rounds_banded);
        assert_eq!(split.rounds_blocked, uninterrupted.rounds_blocked);
        assert_eq!(split.rounds_i32, uninterrupted.rounds_i32);
        assert!(
            uninterrupted.runs > 0,
            "sanity: the vectorized path actually ran"
        );
    }

    #[test]
    fn restored_scan_counter_resumes_and_counts_summaries_only() {
        // The scan counter resumes at its exported value, stays put
        // over a run and grows by one per summary after.
        let mut engine = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1600));
        for _ in 0..10 {
            engine.step(&mut SendFloor::new()).unwrap();
        }
        let scans_at_export = engine.discrepancy_scans();
        assert_eq!(scans_at_export, 10);
        let mut resumed = Engine::from_state(engine.export_state());
        resumed
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut Node0Arrivals { rate: 3 }),
                    ..Run::new(10)
                },
            )
            .unwrap();
        assert_eq!(resumed.discrepancy_scans(), scans_at_export);
        // Threshold 2·d⁺ = 8: the scenario layer's recovery bar, which
        // SEND(⌊x/d⁺⌋) provably reaches on a lazy cycle.
        let reached = (0..2000)
            .find_map(|_| {
                let s = resumed.step(&mut SendFloor::new()).unwrap();
                (s.discrepancy <= 8).then_some(s.step)
            })
            .expect("converged after restore");
        assert_eq!(
            resumed.discrepancy_scans(),
            scans_at_export + (reached - 20) as u64
        );
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn from_state_rejects_mismatched_loads() {
        let engine = Engine::new(lazy_cycle(8), LoadVector::uniform(8, 3));
        let mut state = engine.export_state();
        state.loads.pop();
        let _ = Engine::from_state(state);
    }
}
