//! The pre-round: everything a round does before its flows.
//!
//! The paper's round is one exchange step per node. Dynamic networks
//! and open-system injection put a fixed sequence in front of it:
//!
//! 1. **mutate** — the schedule's topology events rewire the graph in
//!    place (and the connectivity mirror, when tracked);
//! 2. **inject** — the workload adds its signed deltas for the round
//!    into one engine-owned buffer, zeroed once per round;
//! 3. **handoff** — every asleep node's queue, same-round injection
//!    included, moves to its live neighbours (added into the same
//!    buffer), and the buffer is applied to the loads in one
//!    branch-free pass that also bounds every load, the cumulative net
//!    injection and the positive load total to `i64`;
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
    /// (a load, the cumulative net injection or the positive load
    /// total past `i64`) or leaves a negative load rolls back the whole
    /// pre-round; a
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

    /// Computes the round's deltas into the zeroed buffer — the
    /// workload's, then the failure handoff, which reads the
    /// post-injection loads — and applies them in place. On overflow
    /// nothing is applied and the offending node is returned.
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
        let (total, overflow) = apply_deltas::<false>(st.loads, &self.deltas, st.negative, before);
        let applied = if overflow {
            apply_deltas::<true>(st.loads, &self.deltas, st.negative, 0);
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
    /// deltas, with the negative count recounted, its topology
    /// events, connectivity mirror included, and its counter updates —
    /// leaving `st` exactly as that run found it. Call at most once per
    /// run.
    pub(crate) fn undo(&mut self, st: RoundState<'_>) {
        if let Some(before) = self.injected_before.take() {
            apply_deltas::<true>(st.loads, &self.deltas, st.negative, 0);
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

/// Adds a round's deltas to `loads` (or, with `NEGATE`, subtracts
/// them) in wrapping arithmetic and recounts the negative loads.
/// Returns `total` plus the net delta, and whether, taken in node
/// order, any load, that running total or the running positive load
/// total `Σ max(x', 0)` of the new loads left the `i64` range — the
/// last bound keeps every later flow phase from wrapping, since flows
/// move tokens without creating them. Wrapping makes the negated call
/// the exact inverse of the forward one, overflowed or not, so an
/// erroring round restores the loads, and with them the negative
/// count, to the last completed round.
///
/// One branch-free loop writes every entry, whatever the density: a
/// zero delta rewrites the old value and moves only the positive total
/// and the negative count, so there is no per-element branch for the
/// predictor to miss.
#[inline]
fn apply_deltas<const NEGATE: bool>(
    loads: &mut [i64],
    deltas: &[i64],
    negative: &mut usize,
    total: i64,
) -> (i64, bool) {
    debug_assert_eq!(loads.len(), deltas.len(), "one delta per node");
    let (mut total, mut positive, mut neg) = (total, 0i64, 0usize);
    let (mut load_over, mut total_over, mut positive_over) = (false, false, false);
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        let dv = if NEGATE { dv.wrapping_neg() } else { dv };
        let (new, o) = x.overflowing_add(dv);
        let (t, ot) = total.overflowing_add(dv);
        let (p, op) = positive.overflowing_add(new.max(0));
        *x = new;
        (total, positive) = (t, p);
        neg += usize::from(new < 0);
        load_over |= o;
        total_over |= ot;
        positive_over |= op;
    }
    *negative = neg;
    (total, load_over | total_over | positive_over)
}

/// The node an overflowing [`apply_deltas`] reports: the first, in
/// node order, whose load, the running `total` or the running positive
/// load total would leave `i64`.
fn first_overflow(loads: &[i64], deltas: &[i64], mut total: i64) -> usize {
    let mut positive = 0i64;
    loads
        .iter()
        .zip(deltas)
        .position(|(&x, &dv)| {
            let step = x.checked_add(dv).and_then(|new| {
                let t = total.checked_add(dv)?;
                Some((t, positive.checked_add(new.max(0))?))
            });
            if let Some((t, p)) = step {
                (total, positive) = (t, p);
            }
            step.is_none()
        })
        .expect("an overflowing apply has an overflowing node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::generators;
    use dlb_obs::NoopSink;
    use dlb_topology::StaticTopology;

    /// The reference `apply_deltas` semantics, branch-per-element in
    /// checked arithmetic: the new loads, negative count and net delta,
    /// or the first node in node order whose load, running `total` or
    /// running positive load total would leave `i64` — what the single
    /// production loop must equal.
    fn reference(
        loads: &[i64],
        deltas: &[i64],
        negate: bool,
        total: i64,
    ) -> Result<(Vec<i64>, usize, i64), usize> {
        let (mut out, mut total, mut positive) = (Vec::new(), total, 0i64);
        for (u, (&x, &dv)) in loads.iter().zip(deltas).enumerate() {
            let mut new = x;
            if dv != 0 {
                let dv = if negate {
                    dv.checked_neg().ok_or(u)?
                } else {
                    dv
                };
                new = x.checked_add(dv).ok_or(u)?;
                total = total.checked_add(dv).ok_or(u)?;
            }
            positive = positive.checked_add(new.max(0)).ok_or(u)?;
            out.push(new);
        }
        let negative = out.iter().filter(|&&x| x < 0).count();
        Ok((out, negative, total))
    }

    /// [`apply_deltas`] with the polarity as a value.
    fn apply(
        loads: &mut [i64],
        deltas: &[i64],
        negate: bool,
        neg: &mut usize,
        total: i64,
    ) -> (i64, bool) {
        if negate {
            apply_deltas::<true>(loads, deltas, neg, total)
        } else {
            apply_deltas::<false>(loads, deltas, neg, total)
        }
    }

    fn negatives(loads: &[i64]) -> usize {
        loads.iter().filter(|&&x| x < 0).count()
    }

    #[test]
    fn apply_deltas_matches_the_reference_at_every_density() {
        // Deterministic pseudo-random mixtures at every density from
        // 0% to 100%, with sign changes crossing zero in both
        // directions and both `negate` polarities (the erroring-round
        // undo path); each apply is undone exactly by its negation.
        let n = 257; // not lane-aligned
        for density_pct in 0..=100usize {
            for negate in [false, true] {
                let mut state = 0x9e37_79b9_u64 ^ density_pct as u64;
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
                let tag = format!("density {density_pct}%, negate {negate}");
                let (expected, expected_neg, expected_sum) =
                    reference(&loads0, &deltas, negate, 7).expect("small deltas never overflow");

                let mut got = loads0.clone();
                let mut got_neg = negatives(&got);
                let (got_sum, overflow) = apply(&mut got, &deltas, negate, &mut got_neg, 7);
                assert_eq!(got, expected, "{tag}: loads");
                assert_eq!(got_neg, expected_neg, "{tag}: negative count");
                assert_eq!(got_sum, expected_sum, "{tag}: net delta");
                assert!(!overflow, "{tag}");

                apply(&mut got, &deltas, !negate, &mut got_neg, 0);
                assert_eq!(got, loads0, "{tag}: the negated apply is the exact inverse");
                assert_eq!(got_neg, negatives(&loads0), "{tag}: negative count undone");
            }
        }
    }

    #[test]
    fn overflowing_apply_is_flagged_reported_and_negated_exactly() {
        // (loads, deltas, running total, first overflowing node). The
        // three kinds: a load past `i64::MAX`; the running net total
        // past it although no load overflows; the positive load total
        // past it although no load and no net total does — from a
        // touched or an untouched node, and even from a round with no
        // delta at all.
        let half = i64::MAX / 2; // 2⁶² − 1
        let cases = [
            (vec![1i64, i64::MAX - 1, 0], vec![0i64, 5, -3], 0i64, 1usize),
            (vec![0, 0, 0], vec![3, i64::MAX, -9], 0, 1),
            (vec![0, 0, 0], vec![0, 1, 0], i64::MAX, 1),
            (vec![0, i64::MAX - 5, 0], vec![30, 0, 0], 0, 1),
            (vec![half, 0, half + 1], vec![0, 1, 0], 0, 2),
            (vec![-4, i64::MAX - 2, 3], vec![0, 1, 0], 0, 2),
            (vec![5, i64::MAX - 3, 0], vec![0, 0, 0], 0, 1),
        ];
        for pad in [0usize, 200] {
            for (loads0, deltas0, total, node) in &cases {
                let tag = format!("pad {pad}: {loads0:?} + {deltas0:?} from total {total}");
                let mut loads = loads0.clone();
                let mut deltas = deltas0.clone();
                loads.resize(3 + pad, 0);
                deltas.resize(3 + pad, 0);
                assert_eq!(
                    reference(&loads, &deltas, false, *total),
                    Err(*node),
                    "{tag}"
                );
                let start = loads.clone();
                let mut neg = negatives(&start);
                let (_, overflow) = apply_deltas::<false>(&mut loads, &deltas, &mut neg, *total);
                assert!(overflow, "{tag}");
                assert_eq!(first_overflow(&start, &deltas, *total), *node, "{tag}");
                apply_deltas::<true>(&mut loads, &deltas, &mut neg, 0);
                assert_eq!(
                    loads, start,
                    "{tag}: the negated apply is the exact inverse"
                );
                assert_eq!(neg, negatives(&start), "{tag}");
            }
        }
        // Negative loads do not count, and a positive total of exactly
        // `i64::MAX` is in range.
        let (loads0, deltas) = (vec![-5i64, i64::MAX - 2, 3], vec![0i64, 0, -1]);
        let mut loads = loads0.clone();
        let mut neg = 1;
        let (total, overflow) = apply_deltas::<false>(&mut loads, &deltas, &mut neg, 0);
        assert!(!overflow);
        assert_eq!((total, neg), (-1, 1));
        assert_eq!(reference(&loads0, &deltas, false, 0), Ok((loads, 1, -1)));
    }

    /// Adds fixed deltas every round.
    struct Fixed(Vec<i64>);

    impl Workload for Fixed {
        fn label(&self) -> String {
            "fixed".into()
        }
        fn inject(&mut self, _round: usize, _loads: &[i64], deltas: &mut [i64]) {
            for (d, &w) in deltas.iter_mut().zip(&self.0) {
                *d += w;
            }
        }
    }

    #[test]
    fn every_rejected_pre_round_leaves_the_state_exactly_as_found() {
        // Each kind of rejection on a lazy cycle(4), from a state with
        // a negative node and a nonzero cumulative injection: the
        // three overflow kinds, a negative post-injection load, and a
        // completed pre-round whose flows the caller rejects (`undo`).
        let mut gp = BalancingGraph::lazy(generators::cycle(4).unwrap());
        let loads0 = vec![-2i64, i64::MAX - 9, 4, 0];
        let injected0 = -3i64;
        let cases: [(Vec<i64>, i64, bool, Option<EngineError>); 5] = [
            (
                vec![0, 10, 0, 0],
                injected0,
                false,
                Some(EngineError::InjectionOverflow { node: 1, step: 1 }),
            ),
            (
                vec![0, 0, 0, 1],
                i64::MAX,
                false,
                Some(EngineError::InjectionOverflow { node: 3, step: 1 }),
            ),
            (
                vec![0, 0, 6, 0],
                injected0,
                false,
                Some(EngineError::InjectionOverflow { node: 2, step: 1 }),
            ),
            (
                vec![2, 0, -5, 0],
                injected0,
                true,
                Some(EngineError::NegativeLoad {
                    node: 2,
                    load: -1,
                    step: 1,
                }),
            ),
            (vec![2, 0, -1, 0], injected0, true, None),
        ];
        for (deltas, injected_start, check, expected) in cases {
            let tag = format!("{deltas:?} from injected {injected_start}");
            let mut loads = loads0.clone();
            let (mut negative, mut injected, mut events) = (1usize, injected_start, 0u64);
            let mut pre = PreRound::default();
            let st = RoundState {
                gp: &mut gp,
                connectivity: None,
                loads: &mut loads,
                negative: &mut negative,
                injected: &mut injected,
                events: &mut events,
            };
            let got = pre.run(
                1,
                st,
                None::<&mut StaticTopology>,
                Some(&mut Fixed(deltas.clone())),
                check,
                &mut NoopSink,
            );
            match expected {
                Some(err) => assert_eq!(got, Err(err), "{tag}"),
                None => {
                    assert_eq!(got, Ok(()), "{tag}");
                    assert_eq!(loads, vec![0, i64::MAX - 9, 3, 0], "{tag}: applied");
                    assert_eq!((negative, injected), (0, injected_start + 1), "{tag}");
                    pre.undo(RoundState {
                        gp: &mut gp,
                        connectivity: None,
                        loads: &mut loads,
                        negative: &mut negative,
                        injected: &mut injected,
                        events: &mut events,
                    });
                }
            }
            assert_eq!(loads, loads0, "{tag}: loads");
            assert_eq!(
                (negative, injected, events),
                (1, injected_start, 0),
                "{tag}"
            );
        }
    }
}
