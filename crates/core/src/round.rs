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
//! round — so on error loads, graph, connectivity mirror, negative
//! count and cumulative counters are those after the last fully
//! completed round on every path.

use dlb_graph::{mutate, BalancingGraph, DynamicConnectivity, TopologyEvent};
use dlb_obs::{Phase, Sink};
use dlb_topology::{self as topology, TopologySchedule};

use crate::workload::Workload;
use crate::EngineError;

/// What a pre-round reads and writes: the graph with its optional
/// connectivity mirror, the loads with their incrementally maintained
/// negative count, and the engine's cumulative net injection and
/// applied topology events.
pub(crate) struct RoundState<'a> {
    pub gp: &'a mut BalancingGraph,
    pub connectivity: Option<&'a mut DynamicConnectivity>,
    pub loads: &'a mut [i64],
    pub negative: &'a mut usize,
    pub injected: &'a mut i64,
    pub events: &'a mut u64,
}

/// Engine scratch for the pre-round, reused across rounds and calls:
/// the round's load deltas and applied topology events — exactly what
/// an erroring round undoes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PreRound {
    /// The round's load deltas (workload plus handoff), applied while
    /// `injected_before` is set.
    deltas: Vec<i64>,
    /// The schedule's raw event list for the round.
    raw_events: Vec<TopologyEvent>,
    /// The events the round applied, in order (the rollback list).
    events: Vec<TopologyEvent>,
    /// The cumulative net injection before the round's deltas, while
    /// they are applied.
    injected_before: Option<i64>,
}

impl PreRound {
    /// Runs the pre-round of round `step` (1-based) on `st`: mutate,
    /// inject, hand off, and — when `check` is set — reject a negative
    /// load. Adds the round's net injection (handoffs sum to zero) and
    /// applied events to `st`'s counters. Emits `Mutate` (when a
    /// schedule runs) and `Inject`/`Handoff` spans.
    ///
    /// On error nothing has changed: a rejected topology event is
    /// rolled back by the graph layer, and an injection that overflows
    /// or leaves a negative load rolls back the whole pre-round; a
    /// `NegativeLoad` still carries the post-injection load that
    /// triggered it.
    #[inline]
    pub(crate) fn run<S, W, Si>(
        &mut self,
        step: usize,
        mut st: RoundState<'_>,
        schedule: Option<&mut S>,
        workload: Option<&mut W>,
        check: bool,
        sink: &mut Si,
    ) -> Result<(), EngineError>
    where
        S: TopologySchedule + ?Sized,
        W: Workload + ?Sized,
        Si: Sink,
    {
        self.events.clear();
        self.injected_before = None;
        if let Some(s) = schedule {
            let probe = sink.start();
            topology::drive_events_checked(
                s,
                step,
                st.gp.graph_mut(),
                &mut self.raw_events,
                &mut self.events,
                st.connectivity.as_deref_mut(),
            )
            .map_err(|e| EngineError::Topology {
                step,
                reason: e.to_string(),
            })?;
            *st.events += self.events.len() as u64;
            sink.span(Phase::Mutate, step as u64, probe);
        }
        // Injection is needed whenever a workload is present or any
        // node is asleep (its queue must reach live neighbours even in
        // otherwise closed rounds); other rounds pay nothing here.
        if workload.is_some() || st.gp.graph().asleep_count() > 0 {
            if let Err(node) = self.inject(step, &mut st, workload, sink) {
                self.undo(st);
                return Err(EngineError::InjectionOverflow { node, step });
            }
        }
        if check && *st.negative > 0 {
            let err = negative_load(st.loads, step);
            self.undo(st);
            return Err(err);
        }
        Ok(())
    }

    /// Computes and applies the round's deltas in place: the
    /// workload's, then the failure handoff, which reads the
    /// post-injection loads. On overflow nothing is applied and the
    /// offending node is returned.
    fn inject<W: Workload + ?Sized, Si: Sink>(
        &mut self,
        step: usize,
        st: &mut RoundState<'_>,
        workload: Option<&mut W>,
        sink: &mut Si,
    ) -> Result<(), usize> {
        let mut probe = sink.start();
        self.deltas.resize(st.loads.len(), 0);
        self.deltas.fill(0);
        if let Some(w) = workload {
            w.inject(step, st.loads, &mut self.deltas);
        }
        if st.gp.graph().asleep_count() > 0 {
            sink.span(Phase::Inject, step as u64, probe);
            let handoff = sink.start();
            mutate::handoff_deltas(st.gp.graph(), st.loads, &mut self.deltas);
            sink.span(Phase::Handoff, step as u64, handoff);
            probe = sink.start();
        }
        let before = *st.injected;
        let (total, overflow) = apply_deltas(st.loads, &self.deltas, false, st.negative, before);
        let applied = if overflow {
            apply_deltas(st.loads, &self.deltas, true, st.negative, 0);
            Err(first_overflow(st.loads, &self.deltas, before))
        } else {
            *st.injected = total;
            self.injected_before = Some(before);
            Ok(())
        };
        sink.span(Phase::Inject, step as u64, probe);
        applied
    }

    /// Reverses the last successful [`run`](PreRound::run) — its load
    /// deltas, each negative-count update included, its topology
    /// events, connectivity mirror included, and its counter updates —
    /// leaving `st` exactly as that run found it. Call at most once per
    /// run.
    pub(crate) fn undo(&mut self, st: RoundState<'_>) {
        if let Some(before) = self.injected_before.take() {
            apply_deltas(st.loads, &self.deltas, true, st.negative, 0);
            *st.injected = before;
        }
        *st.events -= self.events.len() as u64;
        topology::undo_events_checked(st.gp.graph_mut(), &self.events, st.connectivity);
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

/// Adds a round's deltas to `loads` (or, with `negate`, subtracts
/// them) in wrapping arithmetic, keeping the negative count in step.
/// Returns `total` plus the net delta, and whether any load or that
/// running total, taken in node order, left the `i64` range. Wrapping
/// makes the negated call the exact inverse of the forward one — each
/// negative-count update included, overflowed or not — so an erroring
/// round restores both the loads and the counter to the last completed
/// round.
///
/// Two loops behind one probe: sparse delta vectors (hotspot, drain —
/// a handful of nonzero entries) keep the skip-zero branch, while
/// mostly-nonzero vectors (steady arrivals touch every node) take a
/// branchless dense loop that unconditionally writes every entry — a
/// zero delta rewrites the old value and contributes nothing to the
/// total, the negative count or the overflow flag, so the two loops
/// are exactly equivalent and the probe is free to be a heuristic.
#[inline]
fn apply_deltas(
    loads: &mut [i64],
    deltas: &[i64],
    negate: bool,
    negative: &mut usize,
    total: i64,
) -> (i64, bool) {
    const PROBE: usize = 64;
    let probe_len = deltas.len().min(PROBE);
    let nonzero = deltas[..probe_len].iter().filter(|&&dv| dv != 0).count();
    if probe_len > 0 && 2 * nonzero >= probe_len {
        return apply_deltas_dense(loads, deltas, negate, negative, total);
    }
    let (mut total, mut overflow) = (total, false);
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        if dv != 0 {
            let dv = if negate { dv.wrapping_neg() } else { dv };
            let old = *x;
            let (new, o) = old.overflowing_add(dv);
            let (t, ot) = total.overflowing_add(dv);
            *negative = *negative + usize::from(new < 0) - usize::from(old < 0);
            *x = new;
            total = t;
            overflow |= o | ot;
        }
    }
    (total, overflow)
}

/// The branchless dense variant: every entry is written, negative
/// bookkeeping is a pair of flag adds, overflow is a flag or, and
/// there is no per-element branch for the predictor to miss on a dense
/// delta vector.
fn apply_deltas_dense(
    loads: &mut [i64],
    deltas: &[i64],
    negate: bool,
    negative: &mut usize,
    total: i64,
) -> (i64, bool) {
    let sign = if negate { -1i64 } else { 1i64 };
    let (mut total, mut overflow) = (total, false);
    let mut neg = *negative;
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        let dv = dv.wrapping_mul(sign);
        let old = *x;
        let (new, o) = old.overflowing_add(dv);
        let (t, ot) = total.overflowing_add(dv);
        neg = neg + usize::from(new < 0) - usize::from(old < 0);
        *x = new;
        total = t;
        overflow |= o | ot;
    }
    *negative = neg;
    (total, overflow)
}

/// The node an overflowing [`apply_deltas`] reports: the first, in
/// node order, whose load or the running `total` would leave `i64`.
fn first_overflow(loads: &[i64], deltas: &[i64], mut total: i64) -> usize {
    loads
        .iter()
        .zip(deltas)
        .position(|(&x, &dv)| {
            let next = total.checked_add(dv);
            total = next.unwrap_or(total);
            x.checked_add(dv).is_none() || next.is_none()
        })
        .expect("an overflowing apply has an overflowing node")
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
                let mut expected_sum =
                    apply_deltas_reference(&mut expected, &deltas, negate, &mut expected_neg);
                if negate {
                    // The returned total moves with the applied sign.
                    expected_sum = -expected_sum;
                }

                let mut got = loads0.clone();
                let mut got_neg = got.iter().filter(|&&x| x < 0).count();
                let (got_sum, overflow) = apply_deltas(&mut got, &deltas, negate, &mut got_neg, 0);

                assert_eq!(got, expected, "loads at density {density_pct}%");
                assert_eq!(got_neg, expected_neg, "negative count at {density_pct}%");
                assert_eq!(got_sum, expected_sum, "net delta at {density_pct}%");
                assert_eq!(got_neg, got.iter().filter(|&&x| x < 0).count());
                assert!(!overflow, "small deltas never overflow");
            }
        }
    }

    #[test]
    fn overflowing_apply_is_flagged_reported_and_negated_exactly() {
        // A load past i64::MAX at node 1, then a running total past it
        // at node 1 although no single load overflows — on both loops.
        let cases = [
            (vec![1i64, i64::MAX - 1, 0], vec![0i64, 5, -3], 0i64),
            (vec![0i64, 0, 0], vec![3i64, i64::MAX, -9], 0),
            (vec![0i64, 0, 0], vec![0i64, 1, 0], i64::MAX),
        ];
        for pad in [0usize, 200] {
            for (loads0, deltas0, total) in &cases {
                let mut loads = loads0.clone();
                let mut deltas = deltas0.clone();
                loads.resize(3 + pad, 0);
                deltas.resize(3 + pad, 0);
                let start = loads.clone();
                let mut neg = 0;
                let (_, overflow) = apply_deltas(&mut loads, &deltas, false, &mut neg, *total);
                assert!(overflow, "pad {pad}: {deltas0:?} from total {total}");
                assert_eq!(first_overflow(&start, &deltas, *total), 1);
                apply_deltas(&mut loads, &deltas, true, &mut neg, 0);
                assert_eq!(loads, start, "the negated apply is the exact inverse");
                assert_eq!(neg, 0);
            }
        }
    }
}
