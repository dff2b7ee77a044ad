//! Plan-free delta kernels: the engine's fastest serial path.
//!
//! Every scheme in the paper is a *local* rule — node `u`'s outgoing
//! flows at step `t` are a pure function of `x_t(u)` (plus, for the
//! rotor schemes, a rotor position). The planned round nevertheless
//! materialises the full [`FlowPlan`](crate::FlowPlan) matrix every
//! round: `n·d⁺` `u64` writes that the engine immediately re-reads,
//! sums, and discards. The kernel path removes that round trip
//! entirely: [`Engine::run`](crate::Engine::run) on
//! [`Path::Auto`](crate::Path::Auto) streams once over the CSR
//! adjacency per round into a double-buffered `Vec<i64>` — no plan
//! writes, no touched-set bookkeeping, no monitor. A scheme opts in by
//! implementing [`KernelBalancer`] and answering
//! [`Balancer::as_kernel`] with `Some(self)`; the [`KernelRounds`]
//! object it hands out runs rounds compiled for the concrete scheme
//! type, so only the one call per run is dynamic.
//!
//! Each call picks one of two round bodies, once, in `run_rounds`:
//!
//! * **closed-form gather** — a non-overdrawing scheme with a uniform
//!   closed form on the graph
//!   ([`uniform_kernel`](KernelBalancer::uniform_kernel): SEND(⌊x/d⁺⌋)
//!   on any graph, SEND([x/d⁺]) when `d° ≥ d`) sends the same `b(x)`
//!   over every original port, so a round is
//!   `x'[u] = x[u] − d·b(x[u]) + Σ_{v∈N(u)} b(x[v])`, run as the vector
//!   layer's two passes on `i64`: pass 1 divides once per node into a
//!   send array (the strength-reduced division of [`vector`], matched
//!   once per call), pass 2 is the vector layer's CSR gather over the
//!   live adjacency. No flow buffer, no validation and no error path.
//! * **flow buffer** — every other kernel (the rotor-router and
//!   ROTOR-ROUTER\*, user kernels, SEND([x/d⁺]) below its class, which
//!   reports a clean
//!   [`Overdraw`](crate::EngineError::Overdraw)) computes each node's
//!   port flows in registers with
//!   [`kernel_node`](KernelBalancer::kernel_node), validates them and
//!   applies signed load deltas. This body is monomorphised per total
//!   degree — `d⁺ ∈ {2, 4, 6, 8}` run with a `[u64; DP]` flow buffer
//!   whose length the optimiser knows, so the per-port loops unroll
//!   fully; every other degree takes a reused `Vec<u64>` — and per
//!   class check.
//!
//! Loads are double-buffered per round: the kernel reads `x_t` from the
//! front buffer and writes `x_{t+1}` to the back buffer, so a round
//! that errors simply discards the back buffer and the engine keeps the
//! exact guarantee of the planned round — on error, loads are those
//! after the last fully completed round, and the reported
//! [`Overdraw`](crate::EngineError::Overdraw)/
//! [`NegativeLoad`](crate::EngineError::NegativeLoad) carries the same
//! step and node as [`Engine::step`](crate::Engine::step) would report.
//!
//! The round loop is additionally monomorphised over an optional
//! [`Workload`] **and** an optional [`TopologySchedule`]: every round
//! opens with the engine's shared pre-round — mutate topology, inject
//! load, hand asleep queues to live neighbours, negative-check — and
//! then streams the round body; an absent schedule or workload folds
//! the pre-round's branches away. An erroring round rolls back its
//! injection *and* its topology events, so on error both loads and
//! graph are those after the last fully completed round.

use dlb_graph::BalancingGraph;
use dlb_obs::{Phase, Sink};
use dlb_topology::TopologySchedule;

use crate::round::{PreRound, RoundState};
use crate::workload::Workload;
use crate::{Balancer, Engine, EngineError, Run};
use vector::SendRule;

pub mod vector;

/// A balancer whose per-node flows are a pure function of the node's
/// current load and the scheme's own per-node state — the class the
/// plan-free kernel path can execute.
///
/// A kernel may carry per-node state (the rotor-router and
/// ROTOR-ROUTER\* advance their rotors as they plan); schemes whose
/// flows are a closed form of the load alone also answer
/// [`uniform_kernel`](KernelBalancer::uniform_kernel),
/// which lets [`Engine::run`] and
/// [`Engine::run_parallel`](crate::Engine::run_parallel) run them as
/// whole-array [`vector`] rounds and otherwise stream the closed-form
/// gather instead of calling `kernel_node` (see the module docs).
/// Implementations must write **every** entry of `flows`
/// (`flows.len() == d⁺`; the buffer is reused across nodes and arrives
/// dirty) and must produce exactly the flows their
/// [`Balancer::plan`] would put in a [`FlowPlan`](crate::FlowPlan) row,
/// so the kernel path stays bit-identical to the planned round.
/// `kernel_node` is never called for `load == 0` (the planned round
/// skips zero-load nodes too, and rotors must not advance for them).
/// [`Engine::run`] reaches the kernel only through
/// [`Balancer::as_kernel`], which an implementation answers with
/// `Some(self)`.
///
/// One deliberate asymmetry on the *error* path: when a round is
/// rejected, the planned round has already called `plan` for every
/// node, while the kernel stops streaming at the offending node — so
/// for a stateful scheme that trips `Overdraw` despite claiming
/// `may_overdraw() == false`, per-node state after the failed round is
/// unspecified (loads and the reported error still match exactly). No
/// in-tree kernel scheme can reach this: both rotor schemes send
/// exactly their load, and negative loads are rejected before planning.
pub trait KernelBalancer: Balancer {
    /// Writes node `u`'s complete `d⁺`-port flow assignment for load
    /// `load` into `flows`, updating any per-node scheme state exactly
    /// as [`Balancer::plan`] would.
    fn kernel_node(&mut self, gp: &BalancingGraph, u: usize, load: i64, flows: &mut [u64]);

    /// The scheme's closed-form uniform description on `gp`, if it has
    /// one — the capability hook behind the engine's whole-array
    /// vector dispatch (see [`vector`]) and the kernel path's
    /// closed-form gather, which a non-overdrawing scheme answering
    /// `Some` takes in place of `kernel_node`: the answer must describe
    /// exactly the flows `kernel_node` would write, and must not change
    /// under topology events, which keep both degrees. The default
    /// answers `None` (stateful or non-uniform schemes keep the
    /// flow-buffer stream);
    /// schemes implementing [`vector::UniformKernel`] override this to
    /// bridge to [`UniformKernel::uniform_spec`](vector::UniformKernel::uniform_spec).
    fn uniform_kernel(&self, gp: &BalancingGraph) -> Option<vector::UniformSpec> {
        let _ = gp;
        None
    }
}

/// A [`KernelBalancer`] as a trait object, handed out by
/// [`Balancer::as_kernel`]: the one dynamic call through which
/// [`Engine::run`] reaches a scheme's kernel rounds. It is implemented
/// for every sized kernel scheme, and the rounds behind it are compiled
/// for that concrete type, so every
/// [`kernel_node`](KernelBalancer::kernel_node) call inside stays
/// statically dispatched.
pub trait KernelRounds {
    /// Runs `call` on this scheme's kernel rounds.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    fn rounds(&mut self, call: KernelCall<'_, '_, '_, '_>) -> Result<(), EngineError>;
}

impl<K: KernelBalancer> KernelRounds for K {
    fn rounds(&mut self, call: KernelCall<'_, '_, '_, '_>) -> Result<(), EngineError> {
        call.engine.kernel_call(self, call.run)
    }
}

/// An [`Engine::run`] call on its way to a scheme's kernel rounds;
/// only the engine builds one.
pub struct KernelCall<'e, 'a, 's, 'w> {
    pub(crate) engine: &'e mut Engine,
    pub(crate) run: Run<'a, 's, 'w>,
}

/// Parameters of a kernel run, bundled to keep the entry points tidy.
pub(crate) struct KernelRun<'a, S: ?Sized, W: ?Sized> {
    /// Rounds to execute.
    pub steps: usize,
    /// Steps already completed by the engine (for 1-based error steps).
    pub base_step: usize,
    /// Topology churn applied at the start of every round.
    pub schedule: Option<&'a mut S>,
    /// Load injection applied after the churn.
    pub workload: Option<&'a mut W>,
}

/// Counters a kernel run hands back to the engine, which folds them
/// into its cumulative totals — the numbers the engine's
/// `fill_metrics` exports into the dlb-obs MetricRegistry (the
/// pre-round writes net injection and topology events through
/// [`RoundState`] directly).
pub(crate) struct KernelRunStats {
    /// Full rounds completed (an erroring round is not counted and does
    /// not mutate loads).
    pub steps_done: usize,
    /// Node-steps that ended with negative load, summed over the run.
    pub negative_node_steps: u64,
}

/// Sums one planned node's original-edge outflow and, when `check` is
/// set, enforces the non-overdrawing invariant.
///
/// `step` is the 1-based step the error would belong to.
#[inline]
pub(crate) fn validate_outflow(
    flows: &[u64],
    d: usize,
    check: bool,
    node: usize,
    load: i64,
    step: usize,
) -> Result<u64, EngineError> {
    let mut orig = 0u64;
    for &f in &flows[..d] {
        orig += f;
    }
    if check {
        let mut lazy = 0u64;
        for &f in &flows[d..] {
            lazy += f;
        }
        let sent = orig + lazy;
        if sent > load as u64 {
            return Err(EngineError::Overdraw {
                node,
                load,
                planned: sent,
                step,
            });
        }
    }
    Ok(orig)
}

/// A reusable per-node flow buffer; the two implementations are how the
/// flow-buffer round is monomorphised per degree. For `[u64; DP]` the
/// length is a compile-time constant, so the port loops in the round
/// body unroll fully; `Vec<u64>` is the any-degree fallback.
trait FlowsBuf {
    fn with_len(d_plus: usize) -> Self;
    fn as_mut(&mut self) -> &mut [u64];
}

impl<const DP: usize> FlowsBuf for [u64; DP] {
    #[inline]
    fn with_len(d_plus: usize) -> Self {
        debug_assert_eq!(d_plus, DP);
        [0; DP]
    }
    #[inline]
    fn as_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl FlowsBuf for Vec<u64> {
    #[inline]
    fn with_len(d_plus: usize) -> Self {
        vec![0; d_plus]
    }
    #[inline]
    fn as_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// Runs `steps` plan-free rounds of `balancer` over `st.loads`, using
/// `back` as the second half of the double buffer and `sends` as the
/// closed-form round's send array (both of `st.loads.len()`; their
/// contents on entry are irrelevant). Every round starts with the
/// shared [`PreRound`] — mutate, inject, hand off, negative-check — and
/// then streams the flows.
///
/// This is where every kernel-path run picks its round body, once per
/// call: a non-overdrawing balancer with a uniform closed form on the
/// graph streams [`uniform_round`]; every other balancer streams
/// [`flow_round`], monomorphised per total degree and class check. On
/// return, every part of `st` — loads, negative count, graph and
/// counters — holds the state after the last fully completed round (an
/// erroring round is undone).
///
/// The loop is monomorphised over the [`Sink`] too: the `NoopSink`
/// instantiation (what the untraced entry points pass) folds every
/// probe away, while a recording sink sees per-round `Mutate`,
/// `Inject`/`Handoff` and fused `Stream` spans. Sinks observe only —
/// loads, errors and counters are bit-identical across sinks.
pub(crate) fn run_rounds<K, S, W, Si>(
    st: RoundState<'_>,
    back: &mut [i64],
    sends: &mut [i64],
    pre: &mut PreRound,
    run: KernelRun<'_, S, W>,
    balancer: &mut K,
    sink: &mut Si,
) -> (KernelRunStats, Option<EngineError>)
where
    K: KernelBalancer + ?Sized,
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
{
    let check = !balancer.may_overdraw();
    // Degrees never change within a run (topology events swap edges
    // and permute ports), so the spec holds for every round.
    if let Some(spec) = balancer.uniform_kernel(st.gp).filter(|_| check) {
        let rule = SendRule::new(spec, st.gp.degree_plus());
        return drive(st, back, pre, run, true, sink, |gp, cur, next, _, _| {
            uniform_round(gp, rule, cur, sends, next);
            Ok(())
        });
    }
    let kernel = |gp: &BalancingGraph, u, x, fl: &mut [u64]| balancer.kernel_node(gp, u, x, fl);
    match st.gp.degree_plus() {
        2 => flows_impl::<_, [u64; 2], S, W, Si>(st, back, pre, run, check, kernel, sink),
        4 => flows_impl::<_, [u64; 4], S, W, Si>(st, back, pre, run, check, kernel, sink),
        6 => flows_impl::<_, [u64; 6], S, W, Si>(st, back, pre, run, check, kernel, sink),
        8 => flows_impl::<_, [u64; 8], S, W, Si>(st, back, pre, run, check, kernel, sink),
        _ => flows_impl::<_, Vec<u64>, S, W, Si>(st, back, pre, run, check, kernel, sink),
    }
}

/// Drives [`flow_round`] with a flow buffer `B` and the class check as
/// a constant. The non-overdrawing round (`CHECK = true`) keeps its
/// writes free of negative bookkeeping (the invariant makes it dead
/// weight), while the overdrawing round (`CHECK = false`) threads the
/// incremental count through every write.
fn flows_impl<F, B, S, W, Si>(
    st: RoundState<'_>,
    back: &mut [i64],
    pre: &mut PreRound,
    run: KernelRun<'_, S, W>,
    check: bool,
    mut kernel: F,
    sink: &mut Si,
) -> (KernelRunStats, Option<EngineError>)
where
    F: FnMut(&BalancingGraph, usize, i64, &mut [u64]),
    B: FlowsBuf,
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
{
    let mut flows = B::with_len(st.gp.degree_plus());
    if check {
        drive(
            st,
            back,
            pre,
            run,
            true,
            sink,
            |gp, cur, next, neg, step| {
                flow_round::<F, B, true>(gp, cur, next, neg, step, &mut kernel, &mut flows)
            },
        )
    } else {
        drive(
            st,
            back,
            pre,
            run,
            false,
            sink,
            |gp, cur, next, neg, step| {
                flow_round::<F, B, false>(gp, cur, next, neg, step, &mut kernel, &mut flows)
            },
        )
    }
}

/// The round loop, monomorphised over the round body `stream`, the
/// schedule type and the workload type — so the
/// `StaticTopology`/`NoWorkload` instantiation folds the churn and
/// injection branches of the pre-round away and compiles to the
/// closed-system loop.
///
/// `stream(gp, x_t, x_{t+1}, negative, step)` writes the whole of
/// `x_{t+1}` and keeps `negative` (the count over `x_t` on entry) in
/// step with it; an `Err` rejects the round, which keeps nothing.
fn drive<S, W, Si, R>(
    st: RoundState<'_>,
    back: &mut [i64],
    pre: &mut PreRound,
    run: KernelRun<'_, S, W>,
    check: bool,
    sink: &mut Si,
    mut stream: R,
) -> (KernelRunStats, Option<EngineError>)
where
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
    R: FnMut(&BalancingGraph, &[i64], &mut [i64], &mut usize, usize) -> Result<(), EngineError>,
{
    let KernelRun {
        steps,
        base_step,
        mut schedule,
        mut workload,
    } = run;
    let RoundState {
        gp,
        mut connectivity,
        loads,
        negative: negative_out,
        injected,
        events,
    } = st;

    // The double buffer: `cur` holds x_t, `next` accumulates x_{t+1}.
    // The roles swap each completed round; an erroring round leaves
    // `cur` untouched and discards `next`.
    let mut cur: &mut [i64] = loads;
    let mut next: &mut [i64] = back;

    let mut negative = *negative_out;
    let mut negative_node_steps = 0u64;
    let mut steps_done = 0usize;
    let mut error = None;

    for iter in 0..steps {
        let step_no = base_step + iter + 1;

        // Mutate, inject, hand off, negative-check — applied in place
        // to the front buffer so the stream reads the injected loads.
        // A rejected pre-round has already rolled itself back.
        if let Err(e) = pre.run(
            step_no,
            RoundState {
                gp: &mut *gp,
                connectivity: connectivity.as_deref_mut(),
                loads: &mut *cur,
                negative: &mut negative,
                injected: &mut *injected,
                events: &mut *events,
            },
            schedule.as_deref_mut(),
            workload.as_deref_mut(),
            check,
            sink,
        ) {
            error = Some(e);
            break;
        }

        let stream_probe = sink.start();
        if let Err(e) = stream(gp, cur, next, &mut negative, step_no) {
            // The round keeps nothing: `next` is discarded and the
            // pre-round is reversed on the front buffer.
            pre.undo(RoundState {
                gp: &mut *gp,
                connectivity: connectivity.as_deref_mut(),
                loads: &mut *cur,
                negative: &mut negative,
                injected: &mut *injected,
                events: &mut *events,
            });
            error = Some(e);
            break;
        }
        sink.span(Phase::Stream, step_no as u64, stream_probe);
        debug_assert_eq!(negative, next.iter().filter(|&&x| x < 0).count());
        std::mem::swap(&mut cur, &mut next);
        steps_done = iter + 1;
        negative_node_steps += negative as u64;
    }

    // `loads` must end up holding the final state: after an odd number
    // of completed rounds `cur` aliases the scratch buffer.
    if steps_done % 2 == 1 {
        next.copy_from_slice(cur);
    }
    *negative_out = negative;

    (
        KernelRunStats {
            steps_done,
            negative_node_steps,
        },
        error,
    )
}

/// The closed-form round of a uniform scheme: every original port of
/// `u` carries `b(x[u])`, so
/// `x'[u] = x[u] − d·b(x[u]) + Σ_{v∈N(u)} b(x[v])`, in two passes on
/// `i64`: pass 1 ([`SendRule::send_all`]) divides once per node into
/// `sends`; pass 2 ([`vector::gather_csr`], the vector layer's blocked
/// gather) writes `x[u] − d·b[u]` plus each neighbour's `b` in port
/// order, over the live adjacency — read afresh every round, so it sees
/// the topology events applied before it.
///
/// The gather equals the flow-buffer round's scatter because the
/// adjacency is symmetric with multiplicity — sleep leaves it alone,
/// and swaps and port permutations preserve it — so `u` lists `v` as
/// often as `v` lists `u`. It needs no error path: the closed form
/// never overdraws (`d·b(x) ≤ x`, proofs in [`vector`]), so loads stay
/// non-negative once the pre-round's check passes.
fn uniform_round(
    gp: &BalancingGraph,
    rule: SendRule,
    cur: &[i64],
    sends: &mut [i64],
    next: &mut [i64],
) {
    let d = gp.degree();
    rule.send_all(cur, sends);
    let base = vector::Base::Keep { cur, d: d as i64 };
    vector::gather_csr(next, 0, sends, gp.graph().adjacency_slots(), d, base);
}

/// The flow-buffer round: each loaded node's `d⁺` port flows from
/// `kernel`, validated (with `CHECK`) and applied as signed deltas to
/// the node and its neighbours. An `Overdraw` rejects the round at the
/// lowest offending node.
#[inline]
fn flow_round<F, B, const CHECK: bool>(
    gp: &BalancingGraph,
    cur: &[i64],
    next: &mut [i64],
    negative: &mut usize,
    step_no: usize,
    kernel: &mut F,
    flows: &mut B,
) -> Result<(), EngineError>
where
    F: FnMut(&BalancingGraph, usize, i64, &mut [u64]),
    B: FlowsBuf,
{
    let graph = gp.graph();
    let d = gp.degree();
    next.copy_from_slice(cur);
    // Overdrawing schemes (`CHECK = false`) maintain the back buffer's
    // negative count *through the streaming writes* — `next` starts as
    // a copy of `cur` (count: `negative`), and every subtract/add below
    // adjusts incrementally. Non-overdrawing schemes keep every load
    // non-negative invariantly once the pre-plan check passes, so their
    // writes carry no bookkeeping at all.
    let mut neg_next = *negative;
    for (u, &x) in cur.iter().enumerate() {
        if x == 0 {
            // Zero-load nodes plan nothing and their state (rotor) must
            // not advance — exactly as the planned paths skip them.
            // Asleep nodes land here too: the handoff emptied them
            // before planning (except the documented
            // all-neighbours-asleep corner, where the node keeps its
            // queue and keeps balancing it — identically on every
            // path).
            continue;
        }
        let fl = flows.as_mut();
        kernel(gp, u, x, fl);
        // Nodes are streamed in ascending id order, which is exactly
        // the planned paths' first-touch order for per-node schemes:
        // same error node, same step.
        let orig = validate_outflow(fl, d, CHECK, u, x, step_no)?;
        // Only tokens crossing an original edge move; self-loop and
        // retained tokens never leave home.
        if orig != 0 {
            if CHECK {
                next[u] -= orig as i64;
            } else {
                let old = next[u];
                let new = old - orig as i64;
                neg_next = neg_next + usize::from(new < 0) - usize::from(old < 0);
                next[u] = new;
            }
        }
        let nbrs = graph.neighbors(u);
        for (p, &f) in fl[..d].iter().enumerate() {
            if f != 0 {
                let t = nbrs[p] as usize;
                if CHECK {
                    next[t] += f as i64;
                } else {
                    let old = next[t];
                    let new = old + f as i64;
                    neg_next = neg_next + usize::from(new < 0) - usize::from(old < 0);
                    next[t] = new;
                }
            }
        }
    }
    *negative = neg_next;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{SendFloor, SendRound};
    use crate::{Engine, LoadVector, Run, VectorConfig};
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    /// With the vector layer on (the default) and off: off, both SEND
    /// rules stream the closed-form round, including the copy back
    /// from the scratch buffer after an odd number of rounds.
    #[test]
    fn kernel_path_matches_stepping_on_odd_and_even_horizons() {
        for enabled in [true, false] {
            for steps in [0usize, 1, 2, 7, 96, 97] {
                let mut slow = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
                let mut floor = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
                let mut round = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
                let mut slow_round = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
                let config = VectorConfig {
                    enabled,
                    ..VectorConfig::default()
                };
                floor.set_vector_config(config);
                round.set_vector_config(config);
                let (mut bal, mut bal_round) = (SendFloor::new(), SendRound::new());
                for _ in 0..steps {
                    slow.step(&mut bal).unwrap();
                    slow_round.step(&mut bal_round).unwrap();
                }
                floor.run(&mut SendFloor::new(), Run::new(steps)).unwrap();
                round.run(&mut SendRound::new(), Run::new(steps)).unwrap();
                let tag = format!("{steps} steps, vector layer enabled: {enabled}");
                assert_eq!(slow.loads(), floor.loads(), "floor diverged at {tag}");
                assert_eq!(slow_round.loads(), round.loads(), "round diverged at {tag}");
                assert_eq!(floor.step_count(), steps);
                assert_eq!(round.step_count(), steps);
                if !enabled {
                    assert_eq!(floor.vector_stats().runs, 0, "{tag}");
                    assert_eq!(round.vector_stats().runs, 0, "{tag}");
                }
            }
        }
    }

    #[test]
    fn generic_fallback_matches_on_unmatched_degree() {
        // d = 2, d° = 3 ⇒ d⁺ = 5: no monomorphised kernel, Vec fallback.
        let make = || BalancingGraph::with_self_loops(generators::cycle(12).unwrap(), 3).unwrap();
        let mut slow = Engine::new(make(), LoadVector::point_mass(12, 997));
        let mut fast = Engine::new(make(), LoadVector::point_mass(12, 997));
        let mut bal = SendFloor::new();
        for _ in 0..41 {
            slow.step(&mut bal).unwrap();
        }
        fast.run(&mut SendFloor::new(), Run::new(41)).unwrap();
        assert_eq!(slow.loads(), fast.loads());
    }

    #[test]
    fn kernel_rejects_negative_seed_like_step() {
        let mut engine = Engine::new(lazy_cycle(4), LoadVector::new(vec![5, -1, 3, 3]));
        let err = engine.run(&mut SendFloor::new(), Run::new(5)).unwrap_err();
        assert_eq!(
            err,
            EngineError::NegativeLoad {
                node: 1,
                load: -1,
                step: 1
            }
        );
        assert_eq!(engine.step_count(), 0);
        assert_eq!(engine.loads().as_slice(), &[5, -1, 3, 3]);
    }

    #[test]
    fn erroring_round_discards_the_back_buffer() {
        /// Sends 1 token over port 0 per step, but overdraws once the
        /// node's load falls below the per-node threshold.
        struct TripsAtStep3;
        impl Balancer for TripsAtStep3 {
            fn name(&self) -> &'static str {
                "trips-at-step-3"
            }
            fn plan(
                &mut self,
                _gp: &BalancingGraph,
                _loads: &LoadVector,
                _plan: &mut crate::FlowPlan,
            ) {
                unreachable!("kernel-only test scheme")
            }
            fn as_kernel(&mut self) -> Option<&mut dyn KernelRounds> {
                Some(self)
            }
        }
        impl KernelBalancer for TripsAtStep3 {
            fn kernel_node(
                &mut self,
                _gp: &BalancingGraph,
                u: usize,
                load: i64,
                flows: &mut [u64],
            ) {
                flows.fill(0);
                // Node 0 always plans 3: from 10 its load runs 10, 7, 4,
                // 1 — and at load 1 the plan overdraws on step 4.
                if u == 0 {
                    let _ = load;
                    flows[0] = 3;
                }
            }
        }
        let mut engine = Engine::new(lazy_cycle(4), LoadVector::point_mass(4, 10));
        let err = engine.run(&mut TripsAtStep3, Run::new(10)).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Overdraw {
                    node: 0,
                    load: 1,
                    planned: 3,
                    step: 4
                }
            ),
            "unexpected error {err:?}"
        );
        // Three rounds completed; the fourth mutated nothing.
        assert_eq!(engine.step_count(), 3);
        assert_eq!(engine.loads().as_slice(), &[1, 9, 0, 0]);
        assert_eq!(engine.loads().total(), 10);
    }
}
