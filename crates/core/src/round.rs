//! The pre-round: everything a round does before its flows.
//!
//! The paper's round is one exchange step per node. Dynamic networks
//! and open-system injection put a fixed sequence in front of it:
//!
//! 1. **mutate** — the schedule's topology events rewire the graph in
//!    place (and the connectivity mirror, when tracked);
//! 2. **inject** — the workload's signed deltas for the round;
//! 3. **handoff** — every asleep node's queue, same-round injection
//!    included, moves to its live neighbours;
//! 4. **negative-check** — a non-overdrawing scheme must never plan
//!    from a negative load.
//!
//! [`PreRound`] owns that sequence and its rollback for every
//! execution path: the planned rounds and the streaming kernel rounds
//! each call [`PreRound::run`], keep only their own flow computation,
//! and call [`PreRound::undo`] when that computation rejects the
//! round — so on error loads, graph, connectivity mirror and negative
//! count are those after the last fully completed round on every path.

use dlb_graph::{mutate, BalancingGraph, DynamicConnectivity, TopologyEvent};
use dlb_obs::{Phase, Sink};
use dlb_topology::{self as topology, TopologySchedule};

use crate::workload::Workload;
use crate::EngineError;

/// What a pre-round reads and writes: the graph with its optional
/// connectivity mirror, the loads, and their incrementally maintained
/// negative count.
pub(crate) struct RoundState<'a> {
    pub gp: &'a mut BalancingGraph,
    pub connectivity: Option<&'a mut DynamicConnectivity>,
    pub loads: &'a mut [i64],
    pub negative: &'a mut usize,
}

/// Engine scratch for the pre-round, reused across rounds and calls:
/// the round's load deltas and applied topology events — exactly what
/// an erroring round undoes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PreRound {
    /// The round's load deltas (workload plus handoff), meaningful
    /// while `injected` is set.
    deltas: Vec<i64>,
    /// The schedule's raw event list for the round.
    raw_events: Vec<TopologyEvent>,
    /// The events the round applied, in order (the rollback list).
    events: Vec<TopologyEvent>,
    /// Whether the round applied `deltas`.
    injected: bool,
}

impl PreRound {
    /// Runs the pre-round of round `step` (1-based) on `st`: mutate,
    /// inject, hand off, and — when `check` is set — reject a negative
    /// load. `hint` is the `(argmax node, max load)` the workload may
    /// read (see [`Workload::inject_with_hint`]). Emits `Mutate` (when
    /// a schedule runs) and `Inject`/`Handoff` spans.
    ///
    /// Returns the round's net injection (handoffs sum to zero). On
    /// error nothing has changed: a rejected topology event is rolled
    /// back by the graph layer, and a negative load rolls back the
    /// whole pre-round; the error still carries the post-injection
    /// load that triggered it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn run<S, W, Si>(
        &mut self,
        step: usize,
        st: RoundState<'_>,
        schedule: Option<&mut S>,
        workload: Option<&mut W>,
        hint: Option<(usize, i64)>,
        check: bool,
        sink: &mut Si,
    ) -> Result<i64, EngineError>
    where
        S: TopologySchedule + ?Sized,
        W: Workload + ?Sized,
        Si: Sink,
    {
        let RoundState {
            gp,
            mut connectivity,
            loads,
            negative,
        } = st;
        self.events.clear();
        self.injected = false;
        if let Some(s) = schedule {
            let probe = sink.start();
            topology::drive_events_checked(
                s,
                step,
                gp.graph_mut(),
                &mut self.raw_events,
                &mut self.events,
                connectivity.as_deref_mut(),
            )
            .map_err(|e| EngineError::Topology {
                step,
                reason: e.to_string(),
            })?;
            sink.span(Phase::Mutate, step as u64, probe);
        }
        // Injection is needed whenever a workload is present or any
        // node is asleep (its queue must reach live neighbours even in
        // otherwise closed rounds); other rounds pay nothing here.
        let net = if workload.is_some() || gp.graph().asleep_count() > 0 {
            self.inject(step, gp, loads, negative, workload, hint, sink)
        } else {
            0
        };
        if check && *negative > 0 {
            let err = negative_load(loads, step);
            self.undo(RoundState {
                gp,
                connectivity,
                loads,
                negative,
            });
            return Err(err);
        }
        Ok(net)
    }

    /// Computes and applies the round's deltas in place: the
    /// workload's, then the failure handoff, which reads the
    /// post-injection loads.
    #[allow(clippy::too_many_arguments)]
    fn inject<W: Workload + ?Sized, Si: Sink>(
        &mut self,
        step: usize,
        gp: &BalancingGraph,
        loads: &mut [i64],
        negative: &mut usize,
        workload: Option<&mut W>,
        hint: Option<(usize, i64)>,
        sink: &mut Si,
    ) -> i64 {
        let probe = sink.start();
        self.deltas.resize(loads.len(), 0);
        self.deltas.fill(0);
        if let Some(w) = workload {
            w.inject_with_hint(step, loads, hint, &mut self.deltas);
        }
        self.injected = true;
        if gp.graph().asleep_count() > 0 {
            sink.span(Phase::Inject, step as u64, probe);
            let probe = sink.start();
            mutate::handoff_deltas(gp.graph(), loads, &mut self.deltas);
            sink.span(Phase::Handoff, step as u64, probe);
            let probe = sink.start();
            let net = apply_deltas(loads, &self.deltas, false, negative);
            sink.span(Phase::Inject, step as u64, probe);
            net
        } else {
            let net = apply_deltas(loads, &self.deltas, false, negative);
            sink.span(Phase::Inject, step as u64, probe);
            net
        }
    }

    /// Reverses the last successful [`run`](PreRound::run) — its load
    /// deltas, each negative-count update included, and its topology
    /// events, connectivity mirror included — leaving `st` exactly as
    /// that run found it. Call at most once per run.
    pub(crate) fn undo(&mut self, st: RoundState<'_>) {
        if self.injected {
            apply_deltas(st.loads, &self.deltas, true, st.negative);
        }
        topology::undo_events_checked(st.gp.graph_mut(), &self.events, st.connectivity);
    }

    /// The deltas the last run applied (kept after an
    /// [`undo`](PreRound::undo)), or `None` if it injected nothing —
    /// what the planned path replays into its load indices.
    pub(crate) fn deltas(&self) -> Option<&[i64]> {
        self.injected.then_some(self.deltas.as_slice())
    }

    /// Topology events the last run applied.
    pub(crate) fn events_applied(&self) -> u64 {
        self.events.len() as u64
    }
}

/// The pre-plan class check on its own, for rounds with no dynamics
/// (the vector dispatch): `O(1)` thanks to the incremental count.
pub(crate) fn check_negative(
    loads: &[i64],
    negative: usize,
    step: usize,
) -> Result<(), EngineError> {
    if negative > 0 {
        return Err(negative_load(loads, step));
    }
    Ok(())
}

/// The error for a round that would plan from a negative load: the
/// lowest-id negative node, which callers guarantee exists — the
/// offending node is only searched for on the error path.
fn negative_load(loads: &[i64], step: usize) -> EngineError {
    let node = loads
        .iter()
        .position(|&x| x < 0)
        .expect("a positive negative count implies a negative node");
    EngineError::NegativeLoad {
        node,
        load: loads[node],
        step,
    }
}

/// Applies a round's deltas to `loads` (or, with `negate`, undoes
/// them — the exact inverse, each negative-count update included, so
/// an erroring round restores both the loads and the incremental
/// counter to the last completed round). Returns the net signed delta
/// (pre-`negate`).
///
/// Two loops behind one probe: sparse delta vectors (hotspot, drain —
/// a handful of nonzero entries) keep the skip-zero branch, while
/// mostly-nonzero vectors (steady arrivals touch every node) take a
/// branchless dense loop that unconditionally writes every entry — a
/// zero delta rewrites the old value and contributes nothing to either
/// the sum or the negative count, so the two loops are exactly
/// equivalent and the probe is free to be a heuristic.
#[inline]
fn apply_deltas(loads: &mut [i64], deltas: &[i64], negate: bool, negative: &mut usize) -> i64 {
    const PROBE: usize = 64;
    let probe_len = deltas.len().min(PROBE);
    let nonzero = deltas[..probe_len].iter().filter(|&&dv| dv != 0).count();
    if probe_len > 0 && 2 * nonzero >= probe_len {
        return apply_deltas_dense(loads, deltas, negate, negative);
    }
    let mut sum = 0i64;
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        if dv != 0 {
            let old = *x;
            let new = if negate { old - dv } else { old + dv };
            *negative = *negative + usize::from(new < 0) - usize::from(old < 0);
            *x = new;
            sum += dv;
        }
    }
    sum
}

/// The branchless dense variant: every entry is written, negative
/// bookkeeping is a pair of flag adds, and there is no per-element
/// branch for the predictor to miss on a dense delta vector.
fn apply_deltas_dense(
    loads: &mut [i64],
    deltas: &[i64],
    negate: bool,
    negative: &mut usize,
) -> i64 {
    let sign = if negate { -1i64 } else { 1i64 };
    let mut sum = 0i64;
    let mut neg = *negative;
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        let old = *x;
        let new = old + sign * dv;
        neg = neg + usize::from(new < 0) - usize::from(old < 0);
        *x = new;
        sum += dv;
    }
    *negative = neg;
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference `apply_deltas` semantics, branch-per-element, with
    /// no density dispatch — what both production loops must equal.
    fn apply_deltas_reference(
        loads: &mut [i64],
        deltas: &[i64],
        negate: bool,
        negative: &mut usize,
    ) -> i64 {
        let mut sum = 0i64;
        for (x, &dv) in loads.iter_mut().zip(deltas) {
            if dv != 0 {
                let old = *x;
                let new = if negate { old - dv } else { old + dv };
                *negative = *negative + usize::from(new < 0) - usize::from(old < 0);
                *x = new;
                sum += dv;
            }
        }
        sum
    }

    #[test]
    fn apply_deltas_dense_and_sparse_loops_agree_with_the_reference() {
        // Deterministic pseudo-random mixtures at several densities,
        // so both sides of the probe's cutover are exercised — 0%
        // (all-zero), sparse, the 50% boundary, dense, 100% — with
        // sign changes crossing zero in both directions, and both
        // `negate` polarities (the erroring-round undo path).
        let n = 257; // off the probe window and not lane-aligned
        for density_pct in [0usize, 3, 40, 50, 60, 97, 100] {
            for negate in [false, true] {
                let mut state = 0x9e37_79b9_u64;
                let mut rnd = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as i64
                };
                let loads0: Vec<i64> = (0..n).map(|_| rnd() % 11 - 5).collect();
                let deltas: Vec<i64> = (0..n)
                    .map(|_| {
                        if (rnd().unsigned_abs() as usize % 100) < density_pct {
                            rnd() % 9 - 4
                        } else {
                            0
                        }
                    })
                    .collect();
                let mut expected = loads0.clone();
                let mut expected_neg = expected.iter().filter(|&&x| x < 0).count();
                let expected_sum =
                    apply_deltas_reference(&mut expected, &deltas, negate, &mut expected_neg);

                let mut got = loads0.clone();
                let mut got_neg = got.iter().filter(|&&x| x < 0).count();
                let got_sum = apply_deltas(&mut got, &deltas, negate, &mut got_neg);

                assert_eq!(got, expected, "loads at density {density_pct}%");
                assert_eq!(got_neg, expected_neg, "negative count at {density_pct}%");
                assert_eq!(got_sum, expected_sum, "net delta at {density_pct}%");
                assert_eq!(got_neg, got.iter().filter(|&&x| x < 0).count());
            }
        }
    }
}
