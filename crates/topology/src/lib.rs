//! Dynamic-topology schedules: the churn axis of the open system.
//!
//! The paper's bounds hold on a **fixed** d-regular graph; the
//! dynamic-network literature (Gilbert–Meir–Paz, *On the Complexity of
//! Load Balancing in Dynamic Networks*; Berenbrink et al., *Dynamic
//! Averaging Load Balancing on Arbitrary Graphs*) shows that topology
//! change — not just load change — is where deterministic schemes are
//! really stressed. This crate expresses that regime on top of the
//! in-place mutation layer of [`dlb_graph::mutate`]:
//!
//! * [`TopologySchedule`] — the engine-facing trait: a deterministic
//!   per-round source of [`TopologyEvent`]s (double-edge swaps, port
//!   permutations, node sleep/wake), mirroring how `dlb_core::Workload`
//!   sources per-round load deltas;
//! * [`StaticTopology`] — the empty schedule behind the engine's
//!   closed-topology entry points (the `NoWorkload` analogue);
//! * [`drive_events`] / [`undo_events`] — the shared application
//!   plumbing every engine execution path uses, so serial and kernel
//!   rounds cannot drift apart in how churn lands or rolls back;
//! * [`SwapShortfall`] — delivered-versus-requested accounting for
//!   swap bursts, surfaced per schedule via
//!   [`TopologySchedule::swap_shortfall`];
//! * [`schedules`] — concrete deterministic generators: periodic
//!   random rewiring ([`schedules::PeriodicRewiring`]),
//!   failure/recovery churn at rate p ([`schedules::FailureRecovery`]),
//!   a one-shot failure burst ([`schedules::FailureBurst`]),
//!   adversarial cut-targeting swaps ([`schedules::AdversarialCut`]),
//!   and a concatenating combinator ([`schedules::Compose`]); plus the
//!   [`ScheduleSpec`] naming layer experiments and tests build from.
//!
//! Every generator is deterministic (explicit seeds, the vendored
//! deterministic RNG) and replayable via [`TopologySchedule::reset`],
//! which is what lets the churn harness drive every engine execution
//! path with bit-identical event streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlb_graph::{GraphError, RegularGraph, TopologyEvent};

pub mod schedules;

pub use schedules::ScheduleSpec;

/// Delivered-versus-requested accounting for swap-emitting schedules.
///
/// PR 6's bugfix target: the old shared retry budget let bursts
/// silently under-deliver swaps on dense (simplicity-starved) or
/// churn-hostile (connectivity-starved) graphs. Schedules that emit
/// random swaps now track both reject classes separately and surface
/// the running totals via [`TopologySchedule::swap_shortfall`]; the
/// churn sweep's tests assert `deficit() == 0` for the default
/// schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapShortfall {
    /// Swaps the schedule was asked to deliver.
    pub requested: u64,
    /// Swaps actually emitted.
    pub emitted: u64,
    /// Candidates rejected for violating simplicity (self-loop or
    /// duplicate edge).
    pub simplicity_rejects: u64,
    /// Candidates rejected because they would disconnect the graph.
    pub connectivity_rejects: u64,
}

impl SwapShortfall {
    /// Requested swaps that were never delivered.
    #[must_use]
    pub fn deficit(&self) -> u64 {
        self.requested - self.emitted
    }

    /// Accumulates another counter into this one (used by
    /// [`schedules::Compose`] to aggregate its children).
    pub fn absorb(&mut self, other: &SwapShortfall) {
        self.requested += other.requested;
        self.emitted += other.emitted;
        self.simplicity_rejects += other.simplicity_rejects;
        self.connectivity_rejects += other.connectivity_rejects;
    }
}

/// A dynamic-topology schedule: a deterministic per-round source of
/// [`TopologyEvent`]s.
///
/// `Send` is a supertrait because a `dlb-serve` tenant, schedule
/// included, is advanced by whichever scheduler worker claims it.
///
/// Implementations must be deterministic functions of their own state
/// and the `(round, graph)` arguments — the engine relies on that to
/// keep its execution paths bit-identical — and must emit events that
/// are valid *in emission order* against the graph they were shown
/// (each event sees the graph with the previous events of the same
/// round applied). An invalid event is surfaced by the engine as
/// `EngineError::Topology` and the whole round — injection included —
/// is rolled back.
pub trait TopologySchedule: Send {
    /// A short label for reports and JSON rows.
    fn label(&self) -> String;

    /// Appends round `round`'s events to `out` (the buffer arrives
    /// cleared), given the pre-round graph. `round` is 1-based and
    /// matches the engine's step numbering.
    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>);

    /// Restores the post-construction state (RNG position, burst
    /// bookkeeping, shortfall and timing counters), so one instance
    /// can replay the identical event stream — the churn harness uses
    /// this to drive every execution path with the same churn.
    fn reset(&mut self) {}

    /// Running delivered-versus-requested swap accounting, for
    /// schedules that emit random swaps; `None` for schedules with no
    /// burst semantics.
    fn swap_shortfall(&self) -> Option<SwapShortfall> {
        None
    }

    /// Cumulative nanoseconds this schedule has spent generating and
    /// validating candidate events (the churn-validation overhead the
    /// harness reports as `validation_ns`); `0` for event-free
    /// schedules.
    fn validation_nanos(&self) -> u64 {
        0
    }

    /// Whether this schedule provably never emits an event — true only
    /// for [`StaticTopology`] and equivalents. The engine folds a
    /// `Some(noop)` argument to the genuinely static topology, so fast
    /// paths that require "no churn" (the vectorized kernel rounds in
    /// particular) stay eligible when a caller spells the fixed graph
    /// as `Some(&mut StaticTopology)` instead of `None`.
    fn is_noop(&self) -> bool {
        false
    }

    /// Appends the generator's resumable cursor to `out`: every word of
    /// mutable state a checkpoint must carry so that an **identically
    /// configured** fresh instance, after
    /// [`restore_cursor`](TopologySchedule::restore_cursor), continues
    /// this instance's event stream exactly (RNG position, burst
    /// bookkeeping, shortfall and timing counters). Self-re-anchoring
    /// caches (probe graphs, connectivity structures) are rebuilt on
    /// demand and are *not* part of the cursor; neither is
    /// configuration (periods, seeds), which travels as the schedule's
    /// spec. A caller that checkpoints repeatedly can reuse one buffer.
    fn cursor_into(&self, _out: &mut Vec<u64>) {}

    /// The cursor [`cursor_into`](TopologySchedule::cursor_into)
    /// appends, in a fresh vector.
    fn cursor(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.cursor_into(&mut out);
        out
    }

    /// Restores a cursor captured by
    /// [`cursor`](TopologySchedule::cursor) onto an identically
    /// configured instance. Returns `false` — leaving the receiver
    /// unchanged where possible — when the cursor's shape does not
    /// match this schedule.
    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        cursor.is_empty()
    }
}

/// The empty schedule: never emits an event. Its
/// [`is_noop`](TopologySchedule::is_noop) answers `true`, so a run
/// under it keeps a fixed graph and stays eligible for the engine's
/// vector rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticTopology;

impl StaticTopology {
    /// A typed absent schedule, for the engine's generic kernel
    /// forwards, whose schedule argument is an `Option` of a concrete
    /// type.
    #[must_use]
    pub fn none() -> Option<&'static mut StaticTopology> {
        None
    }
}

impl TopologySchedule for StaticTopology {
    fn label(&self) -> String {
        "static".into()
    }

    fn events(&mut self, _round: usize, _graph: &RegularGraph, _out: &mut Vec<TopologyEvent>) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// Drives one round of `schedule` against `graph`: collects the
/// round's events into `scratch`, applies them in order, and records
/// each successfully applied event in `applied` (the rollback list —
/// callers clear it per round). On a rejected event the already-applied
/// prefix is undone, `applied` is cleared, and the graph is exactly as
/// it was on entry.
///
/// This is the single application path of every engine round, so the
/// execution paths cannot drift apart in how churn lands or rolls
/// back.
///
/// # Errors
///
/// Propagates the first event's validation error; the graph is
/// restored bit for bit before returning.
pub fn drive_events<S: TopologySchedule + ?Sized>(
    schedule: &mut S,
    round: usize,
    graph: &mut RegularGraph,
    scratch: &mut Vec<TopologyEvent>,
    applied: &mut Vec<TopologyEvent>,
) -> Result<(), GraphError> {
    scratch.clear();
    schedule.events(round, graph, scratch);
    for event in scratch.iter() {
        if let Err(e) = graph.apply_event(event) {
            undo_events(graph, applied);
            applied.clear();
            return Err(e);
        }
        applied.push(event.clone());
    }
    Ok(())
}

/// Rolls back a list of applied events: inverses in reverse order,
/// restoring the graph bit for bit (see
/// [`TopologyEvent::inverted`]).
pub fn undo_events(graph: &mut RegularGraph, applied: &[TopologyEvent]) {
    for event in applied.iter().rev() {
        graph
            .apply_event(&event.inverted())
            .expect("the inverse of an applied event is always valid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::generators;

    struct TwoSwaps;
    impl TopologySchedule for TwoSwaps {
        fn label(&self) -> String {
            "two-swaps".into()
        }
        fn events(&mut self, round: usize, _graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
            if round == 1 {
                out.push(TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 4,
                    d: 5,
                });
                out.push(TopologyEvent::Sleep { node: 2 });
            }
        }
    }

    #[test]
    fn drive_applies_in_order_and_records() {
        let mut g = generators::cycle(8).unwrap();
        let (mut scratch, mut applied) = (Vec::new(), Vec::new());
        drive_events(&mut TwoSwaps, 1, &mut g, &mut scratch, &mut applied).unwrap();
        assert_eq!(applied.len(), 2);
        assert!(g.has_edge(0, 4));
        assert!(!g.is_awake(2));
        // Round 2 emits nothing.
        applied.clear();
        drive_events(&mut TwoSwaps, 2, &mut g, &mut scratch, &mut applied).unwrap();
        assert!(applied.is_empty());
    }

    #[test]
    fn rejected_event_rolls_back_the_whole_round() {
        struct BadSecond;
        impl TopologySchedule for BadSecond {
            fn label(&self) -> String {
                "bad-second".into()
            }
            fn events(&mut self, _r: usize, _g: &RegularGraph, out: &mut Vec<TopologyEvent>) {
                out.push(TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 4,
                    d: 5,
                });
                // Invalid: edge {0,1} was just removed by the first swap.
                out.push(TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 3,
                    d: 4,
                });
            }
        }
        let mut g = generators::cycle(8).unwrap();
        let original = g.clone();
        let (mut scratch, mut applied) = (Vec::new(), Vec::new());
        let err = drive_events(&mut BadSecond, 1, &mut g, &mut scratch, &mut applied);
        assert!(err.is_err());
        assert!(applied.is_empty());
        assert_eq!(g, original, "failed round must restore the graph exactly");
    }

    #[test]
    fn undo_events_restores_across_event_kinds() {
        let mut g = generators::torus(2, 4).unwrap();
        let original = g.clone();
        let events = vec![
            TopologyEvent::Swap {
                a: 0,
                b: 1,
                c: 5,
                d: 6,
            },
            TopologyEvent::PermutePorts {
                node: 2,
                perm: vec![1, 0, 3, 2],
            },
            TopologyEvent::Sleep { node: 9 },
            TopologyEvent::Wake { node: 9 },
            TopologyEvent::Sleep { node: 3 },
        ];
        let mut applied = Vec::new();
        for ev in &events {
            g.apply_event(ev).unwrap();
            applied.push(ev.clone());
        }
        assert_ne!(g, original);
        undo_events(&mut g, &applied);
        assert_eq!(g, original);
    }

    #[test]
    fn static_topology_is_empty() {
        let mut g = generators::cycle(8).unwrap();
        let mut out = Vec::new();
        StaticTopology.events(1, &g, &mut out);
        assert!(out.is_empty());
        assert!(StaticTopology::none().is_none());
        let (mut scratch, mut applied) = (Vec::new(), Vec::new());
        drive_events(&mut StaticTopology, 1, &mut g, &mut scratch, &mut applied).unwrap();
        assert!(applied.is_empty());
    }
}
