//! The pre-round: everything a round does before its flows.
//!
//! The paper's round is one exchange step per node. Dynamic networks
//! and open-system injection put a fixed sequence in front of it:
//!
//! 1. **mutate** — the schedule's topology events rewire the graph in
//!    place;
//! 2. **inject** — the workload adds its signed deltas for the round
//!    into one engine-owned buffer, zeroed once per round;
//! 3. **handoff** — every asleep node's queue, same-round injection
//!    included, moves to its live neighbours (added into the same
//!    buffer), and the buffer is applied to the loads in one wrapping
//!    pass whose magnitude bound proves in bulk that no load, no prefix
//!    of the cumulative net injection and no prefix of the positive
//!    load total leaves `i64`; only a round that fails the bound runs
//!    the exact checked scan, and an overflowing one is undone;
//! 4. **negative-check** — a non-overdrawing scheme must never split a
//!    negative load.
//!
//! [`PreRound`] owns that sequence and its rollback for every
//! execution path: the kernel's round loop, which runs every round
//! body but the whole-array vector rounds, calls [`PreRound::run`]
//! before the body and [`PreRound::undo`] when the body rejects the
//! round — so on error loads, graph, negative count and cumulative
//! counters are those after the last fully completed round on every
//! path.

use dlb_graph::{mutate, BalancingGraph, TopologyEvent};
use dlb_obs::{Phase, Sink};
use dlb_topology::{self as topology, TopologySchedule};

use crate::workload::Workload;
use crate::EngineError;

/// What a pre-round reads and writes: the graph, the loads with their
/// incrementally maintained negative count, and the engine's
/// cumulative net injection and applied topology events.
pub(crate) struct RoundState<'a> {
    pub gp: &'a mut BalancingGraph,
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
            topology::drive_events(
                s,
                step,
                st.gp.graph_mut(),
                &mut self.raw_events,
                &mut self.events,
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
            let handed = mutate::handoff_deltas(st.gp.graph(), st.loads, &mut self.deltas);
            sink.span(Phase::Handoff, step as u64, handoff);
            handed?;
            probe = sink.start();
        }
        let before = *st.injected;
        let applied = apply_deltas(st.loads, &self.deltas, st.negative, before);
        if let Ok(total) = applied {
            *st.injected = total;
            self.injected_before = Some(before);
        }
        sink.span(Phase::Inject, step as u64, probe);
        applied.map(drop)
    }

    /// Reverses the last successful [`run`](PreRound::run) — its load
    /// deltas, with the negative count recounted, its topology events
    /// and its counter updates — leaving `st` exactly as that run found
    /// it. Call at most once per run.
    pub(crate) fn undo(&mut self, st: RoundState<'_>) {
        if let Some(before) = self.injected_before.take() {
            // The exact wrapping inverse of the applied pass, so it
            // needs no check.
            *st.negative = wrapping_pass::<true>(st.loads, &self.deltas, 0).0;
            *st.injected = before;
        }
        *st.events -= self.events.len() as u64;
        topology::undo_events(st.gp.graph_mut(), &self.events);
    }
}

/// The pre-round class check on its own, for rounds with no dynamics
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

/// The error for a round that would split a negative load: the
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

/// The magnitude bound of an `n`-node round: the largest power of two
/// `C` with `n·2C ≤ 2⁶¹`. A round whose new loads and deltas all lie in
/// `[−C, C)` keeps every prefix of its net and positive totals within
/// `n·C ≤ 2⁶⁰` of its start.
fn magnitude_bound(n: usize) -> i64 {
    // A slice of `i64` holds at most 2⁶⁰ entries, so the shift is ≤ 60.
    let log_n = n.max(1).next_power_of_two().trailing_zeros();
    1 << (60 - log_n)
}

/// Adds a round's deltas to `loads` in wrapping arithmetic, recounts
/// the negative loads and returns `total` plus the net delta. If, taken
/// in node order, some load, that running total or the running
/// positive load total `Σ max(x', 0)` of the new loads would leave
/// `i64`, the loads are restored exactly, the count is left alone and
/// the first such node is returned. The positive total keeps every
/// later flow phase from wrapping, since flows move tokens without
/// creating them.
///
/// One wrapping pass writes every entry, whatever the density, and
/// keeps reductions that vectorise: the negative count from the sign
/// bit, the wrapping sum of the deltas, and an OR of every new load
/// and delta offset by the [`magnitude_bound`] `C`. If that OR stays
/// below `2C` and `|total| < 2⁶¹`, every new load and delta lies in
/// `[−C, C)` — so no add wrapped (the old load `new − dv` lies within
/// `2C` of zero), and no prefix of either running total reaches `2⁶²`
/// in magnitude — and the round is proven in bulk. Only otherwise does
/// [`first_overflow`] run the exact checked scan over the applied
/// loads.
#[inline]
fn apply_deltas(
    loads: &mut [i64],
    deltas: &[i64],
    negative: &mut usize,
    total: i64,
) -> Result<i64, usize> {
    let (neg, sum, proven) = bounded_pass(loads, deltas, total);
    if !proven {
        if let Some(node) = first_overflow(loads, deltas, total) {
            wrapping_pass::<true>(loads, deltas, 0);
            return Err(node);
        }
    }
    *negative = neg;
    Ok(total.wrapping_add(sum))
}

/// The forward [`wrapping_pass`] with its bound decided: the new
/// negative count, the net delta, and whether the OR and `total` prove
/// that the round cannot overflow.
#[inline]
fn bounded_pass(loads: &mut [i64], deltas: &[i64], total: i64) -> (usize, i64, bool) {
    let c = magnitude_bound(loads.len());
    let (neg, sum, offsets) = wrapping_pass::<false>(loads, deltas, c);
    (
        neg,
        sum,
        offsets < 2 * c as u64 && total.unsigned_abs() < 1 << 61,
    )
}

/// Adds `deltas` to `loads` (or, with `NEGATE`, subtracts them) in
/// wrapping arithmetic. Returns the new negative count, the wrapping
/// sum of what was added, and the OR of every new load and added delta
/// offset by `c` (as `u64`) — all below `2c` exactly when each lies in
/// `[−c, c)` for a power of two `c`.
#[inline]
fn wrapping_pass<const NEGATE: bool>(
    loads: &mut [i64],
    deltas: &[i64],
    c: i64,
) -> (usize, i64, u64) {
    debug_assert_eq!(loads.len(), deltas.len(), "one delta per node");
    let (mut neg, mut sum, mut offsets) = (0usize, 0i64, 0u64);
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        let dv = if NEGATE { dv.wrapping_neg() } else { dv };
        let new = x.wrapping_add(dv);
        *x = new;
        neg += (new as u64 >> 63) as usize;
        sum = sum.wrapping_add(dv);
        offsets |= (new.wrapping_add(c) | dv.wrapping_add(c)) as u64;
    }
    (neg, sum, offsets)
}

/// The exact overflow scan over loads that already had `deltas` added
/// in wrapping arithmetic: the first node, in node order, whose load
/// (the old one read back as `new − dv`), the running `total` or the
/// running positive load total would leave `i64`, if any.
fn first_overflow(loads: &[i64], deltas: &[i64], mut total: i64) -> Option<usize> {
    let mut positive = 0i64;
    loads.iter().zip(deltas).position(|(&new, &dv)| {
        let step = new.wrapping_sub(dv).checked_add(dv).and_then(|new| {
            let t = total.checked_add(dv)?;
            Some((t, positive.checked_add(new.max(0))?))
        });
        if let Some((t, p)) = step {
            (total, positive) = (t, p);
        }
        step.is_none()
    })
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
    /// running positive load total would leave `i64` — what the bound
    /// and the exact scan must both equal.
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

    fn negatives(loads: &[i64]) -> usize {
        loads.iter().filter(|&&x| x < 0).count()
    }

    /// Runs the forward apply of `deltas` to `loads` from `total` both
    /// ways and checks each against [`reference`]: the exact scan,
    /// forced after the wrapping pass whatever the bound says, and
    /// [`apply_deltas`] as a round runs it (the bound, then the exact
    /// scan only where the bound fails). A rejected apply must leave
    /// the loads and negative count as found, an accepted one must be
    /// undone exactly, and the bound must never prove a round that
    /// overflows. Returns whether the bound proved the round.
    fn both_paths(loads: &[i64], deltas: &[i64], total: i64, tag: &str) -> bool {
        let expected = reference(loads, deltas, false, total);

        let mut forced = loads.to_vec();
        let (neg, sum, proven) = bounded_pass(&mut forced, deltas, total);
        let exact = match first_overflow(&forced, deltas, total) {
            Some(node) => Err(node),
            None => Ok((forced, neg, total.wrapping_add(sum))),
        };
        assert_eq!(exact, expected, "{tag}: the exact scan");
        assert!(
            !proven || expected.is_ok(),
            "{tag}: the bound proved an overflowing round"
        );

        let mut got = loads.to_vec();
        let mut got_neg = negatives(loads);
        let applied = apply_deltas(&mut got, deltas, &mut got_neg, total);
        match expected {
            Ok((out, n, t)) => {
                assert_eq!(applied, Ok(t), "{tag}: net delta");
                assert_eq!(got, out, "{tag}: loads");
                assert_eq!(got_neg, n, "{tag}: negative count");
                got_neg = wrapping_pass::<true>(&mut got, deltas, 0).0;
            }
            Err(node) => assert_eq!(applied, Err(node), "{tag}: reported node"),
        }
        assert_eq!(got, loads, "{tag}: the undo is the exact inverse");
        assert_eq!(got_neg, negatives(loads), "{tag}: negative count undone");
        proven
    }

    /// The lengths that exercise every lane tail, plus a long odd one.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=9).chain([257])
    }

    #[test]
    fn apply_deltas_matches_the_reference_at_every_density() {
        // Deterministic pseudo-random mixtures at every density from
        // 0% to 100%, with sign changes crossing zero in both
        // directions, on every lane tail: forward through both overflow
        // paths, and negated (the erroring-round undo pass) against
        // the reference's negation.
        for n in lengths() {
            for density_pct in 0..=100usize {
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
                let tag = format!("n {n}, density {density_pct}%");
                assert!(both_paths(&loads0, &deltas, 7, &tag), "{tag}: small");

                let (expected, expected_neg, expected_sum) =
                    reference(&loads0, &deltas, true, 7).expect("small deltas never overflow");
                let mut got = loads0.clone();
                let (got_neg, got_sum, _) = wrapping_pass::<true>(&mut got, &deltas, 0);
                assert_eq!(got, expected, "{tag}, negated: loads");
                assert_eq!(got_neg, expected_neg, "{tag}, negated: negative count");
                assert_eq!(7 + got_sum, expected_sum, "{tag}, negated: net delta");
            }
        }
    }

    #[test]
    fn the_bound_proves_exactly_the_rounds_inside_it() {
        // The bound's edges on every lane tail: new loads and deltas
        // at C − 1 and at −C are inside `[−C, C)`, so the bound proves
        // the round; at C or −C − 1 it fails and the exact scan decides
        // (no overflow here). The bound reads the new loads, so old
        // loads at C brought to 0 are proven. Uniform buffers, a single
        // nonzero delta (a hotspot round), and starting totals on both
        // sides of ±2⁶¹ — and past them, where the exact scan finds the
        // overflow.
        for n in lengths() {
            let c = magnitude_bound(n);
            assert!(n as u128 * 2 * c as u128 <= 1 << 61, "n {n}: C {c}");
            let hot = n / 2;
            let hotspot = |v: i64| {
                let mut d = vec![0i64; n];
                d[hot] = v;
                d
            };
            let limit = 1i64 << 61;
            let cases = [
                (vec![c - 1; n], vec![0; n], 0, true),
                (vec![c; n], vec![0; n], 0, false),
                (vec![-c; n], vec![0; n], 0, true),
                (vec![-c - 1; n], vec![0; n], 0, false),
                (vec![c - 2; n], hotspot(1), 0, true),
                (vec![c - 1; n], hotspot(1), 0, false),
                (vec![1 - c; n], hotspot(-1), 0, true),
                (vec![-c; n], hotspot(-1), 0, false),
                (vec![0; n], vec![c - 1; n], 0, true),
                (vec![0; n], vec![-c; n], 0, true),
                (vec![0; n], hotspot(c - 1), 0, true),
                (vec![0; n], hotspot(c), 0, false),
                (vec![0; n], hotspot(-c), 0, true),
                (vec![0; n], hotspot(-c - 1), 0, false),
                (vec![c; n], vec![-c; n], 0, true),
                (vec![2; n], hotspot(3), limit - 1, true),
                (vec![2; n], hotspot(3), limit, false),
                (vec![2; n], hotspot(-3), 1 - limit, true),
                (vec![2; n], hotspot(-3), -limit, false),
                (vec![0; n], hotspot(1), i64::MAX - 1, false),
                (vec![0; n], hotspot(-1), i64::MIN, false),
                (vec![0; n], hotspot(1), i64::MAX, false),
                (vec![0; n], hotspot(-1), i64::MIN + 1, false),
            ];
            for (loads, deltas, total, proven) in cases {
                let tag = format!("n {n}: {:?}.. + {:?}.. from {total}", loads[0], deltas[hot]);
                assert_eq!(both_paths(&loads, &deltas, total, &tag), proven, "{tag}");
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
        // delta at all; and `i64::MIN` deltas, whose negation wraps to
        // themselves in the rollback.
        let half = i64::MAX / 2; // 2⁶² − 1
        let cases = [
            (vec![1i64, i64::MAX - 1, 0], vec![0i64, 5, -3], 0i64, 1usize),
            (vec![0, 0, 0], vec![3, i64::MAX, -9], 0, 1),
            (vec![0, 0, 0], vec![0, 1, 0], i64::MAX, 1),
            (vec![0, i64::MAX - 5, 0], vec![30, 0, 0], 0, 1),
            (vec![half, 0, half + 1], vec![0, 1, 0], 0, 2),
            (vec![-4, i64::MAX - 2, 3], vec![0, 1, 0], 0, 2),
            (vec![5, i64::MAX - 3, 0], vec![0, 0, 0], 0, 1),
            (vec![0, -1, 0], vec![0, i64::MIN, 0], 0, 1),
            (vec![0, 0, 0], vec![0, i64::MIN, 0], -1, 1),
            (vec![0, 0, 0], vec![i64::MIN, 0, i64::MIN], 0, 2),
        ];
        for pad in (0..=6).chain([200, 254]) {
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
                assert!(!both_paths(&loads, &deltas, *total, &tag), "{tag}");
            }
        }
        // Negative loads do not count, a positive total of exactly
        // `i64::MAX` is in range, and an `i64::MIN` delta that leaves
        // no load or total out of range is applied and undone exactly.
        let accepted = [
            (vec![-5i64, i64::MAX - 2, 3], vec![0i64, 0, -1], 0i64),
            (vec![7, 0, 3], vec![0, i64::MIN, 0], 0),
            (vec![7, 0, 3], vec![0, i64::MIN, 0], i64::MAX),
            (vec![i64::MAX, 0, -1], vec![i64::MIN, 0, i64::MAX], 0),
        ];
        for (loads, deltas, total) in accepted {
            let tag = format!("{loads:?} + {deltas:?} from total {total}");
            assert!(reference(&loads, &deltas, false, total).is_ok(), "{tag}");
            assert!(!both_paths(&loads, &deltas, total, &tag), "{tag}");
        }
        let (mut loads, mut neg) = (vec![-5i64, i64::MAX - 2, 3], 1);
        assert_eq!(apply_deltas(&mut loads, &[0, 0, -1], &mut neg, 0), Ok(-1));
        assert_eq!((loads, neg), (vec![-5, i64::MAX - 2, 2], 1));
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
