//! The probe surface: phases, events, and the monomorphized sink.

use std::time::Instant;

/// A named phase of the system, shared by every execution path.
///
/// Rounds decompose into `Mutate → Inject → Handoff → Stream`, where
/// `Stream` is the round's flows, on the reference and the scalar
/// kernel rounds alike; the server reports the slice pipeline (`Ticket → Lock →
/// TenantStep → SliceMerge`). `VectorDispatch` is an instant event carrying the
/// dispatch decision for a vectorized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Topology events applied at the top of a round.
    Mutate,
    /// Workload deltas injected into the load vector.
    Inject,
    /// Asleep-queue handoff deltas folded in after injection.
    Handoff,
    /// The round's flows: each node's rule, validated and applied.
    Stream,
    /// Vector-kernel dispatch decision (value encodes the strategy).
    VectorDispatch,
    /// Server: claiming a tenant ticket from the shared counter.
    Ticket,
    /// Server: acquiring the tenant mutex.
    Lock,
    /// Server: advancing the locked tenant's engine rounds.
    TenantStep,
    /// Server: merging worker reports into the slice report.
    SliceMerge,
    /// Server: one whole scheduler slice.
    Slice,
}

/// Number of distinct [`Phase`] values (size for per-phase arrays).
pub const PHASE_COUNT: usize = 10;

/// All phases, in declaration order (index = `Phase::index`).
const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::Mutate,
    Phase::Inject,
    Phase::Handoff,
    Phase::Stream,
    Phase::VectorDispatch,
    Phase::Ticket,
    Phase::Lock,
    Phase::TenantStep,
    Phase::SliceMerge,
    Phase::Slice,
];

impl Phase {
    /// Stable dense index, usable for per-phase accumulator arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All phases in index order.
    pub fn all() -> [Phase; PHASE_COUNT] {
        ALL_PHASES
    }

    /// The snake_case name used by every exporter and JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mutate => "mutate",
            Phase::Inject => "inject",
            Phase::Handoff => "handoff",
            Phase::Stream => "stream",
            Phase::VectorDispatch => "vector_dispatch",
            Phase::Ticket => "ticket",
            Phase::Lock => "lock",
            Phase::TenantStep => "step",
            Phase::SliceMerge => "merge",
            Phase::Slice => "slice",
        }
    }
}

/// Whether an [`Event`] is a timed span or a point-in-time marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `at_ns..at_ns + dur_ns`.
    Span,
    /// An instant marker; `dur_ns` is zero, `value` carries payload.
    Instant,
}

/// One fixed-size trace record. `Copy` and allocation-free so the
/// ring buffer can hold them inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Span or instant.
    pub kind: EventKind,
    /// Which phase this record belongs to.
    pub phase: Phase,
    /// Engine step (round) or slice index the record is tagged with.
    pub step: u64,
    /// Start time in nanoseconds relative to the sink's anchor.
    pub at_ns: u64,
    /// Span duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Structured payload (e.g. the vector dispatch decision).
    pub value: u64,
}

/// The monomorphized probe sink.
///
/// Callers never branch on a runtime flag: every probe helper is
/// guarded by `if Self::ENABLED`, a constant the optimizer folds, so
/// a `NoopSink` instantiation contains no probe code at all. This is
/// the same zero-cost discipline as the `dlb_core::sync` facade.
///
/// Implementations must be **observation-only**: a sink must never
/// change what the instrumented code computes (bit-identity across
/// sinks is pinned by the differential test axis).
pub trait Sink {
    /// Whether probes are live. `false` compiles them all away.
    const ENABLED: bool;

    /// Current time in nanoseconds relative to the sink's anchor.
    fn now_ns(&mut self) -> u64;

    /// Stores one event. Called only when `ENABLED` is true.
    fn record(&mut self, ev: Event);

    /// Timestamp for the start of a span (0 when disabled).
    #[inline(always)]
    fn start(&mut self) -> u64 {
        if Self::ENABLED {
            self.now_ns()
        } else {
            0
        }
    }

    /// Closes a span opened with [`Sink::start`].
    #[inline(always)]
    fn span(&mut self, phase: Phase, step: u64, started_ns: u64) {
        if Self::ENABLED {
            let now = self.now_ns();
            self.record(Event {
                kind: EventKind::Span,
                phase,
                step,
                at_ns: started_ns,
                dur_ns: now.saturating_sub(started_ns),
                value: 0,
            });
        }
    }

    /// Records a point event carrying a structured `value`.
    #[inline(always)]
    fn instant(&mut self, phase: Phase, step: u64, value: u64) {
        if Self::ENABLED {
            let now = self.now_ns();
            self.record(Event {
                kind: EventKind::Instant,
                phase,
                step,
                at_ns: now,
                dur_ns: 0,
                value,
            });
        }
    }
}

/// The disabled sink: every probe compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now_ns(&mut self) -> u64 {
        0
    }

    #[inline(always)]
    fn record(&mut self, _ev: Event) {}
}

/// A recording sink: fixed-capacity ring buffer of [`Event`]s plus
/// per-phase duration/count accumulators.
///
/// The buffer is allocated once at construction; when full, the
/// oldest events are overwritten (the accumulators keep exact totals
/// regardless). Timestamps are measured from a monotonic anchor taken
/// at construction (or the last [`RingSink::clear`]).
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    head: usize,
    recorded: u64,
    anchor: Instant,
    phase_ns: [u64; PHASE_COUNT],
    phase_counts: [u64; PHASE_COUNT],
}

impl RingSink {
    /// Creates a sink holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> RingSink {
        RingSink {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            recorded: 0,
            anchor: Instant::now(),
            phase_ns: [0; PHASE_COUNT],
            phase_counts: [0; PHASE_COUNT],
        }
    }

    /// Total events recorded (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        if self.buf.len() < self.buf.capacity() {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// Exact total nanoseconds spent in `phase` (spans only), counted
    /// over the whole recording, not just retained events.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Exact number of events recorded for `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.index()]
    }

    /// Empties the buffer and accumulators and re-anchors the clock.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.recorded = 0;
        self.anchor = Instant::now();
        self.phase_ns = [0; PHASE_COUNT];
        self.phase_counts = [0; PHASE_COUNT];
    }
}

impl Sink for RingSink {
    const ENABLED: bool = true;

    #[inline]
    fn now_ns(&mut self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record(&mut self, ev: Event) {
        self.phase_ns[ev.phase.index()] += ev.dur_ns;
        self.phase_counts[ev.phase.index()] += 1;
        self.recorded += 1;
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        let all = Phase::all();
        assert_eq!(all.len(), PHASE_COUNT);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_exact_totals() {
        let mut sink = RingSink::with_capacity(4);
        for i in 0..10u64 {
            sink.record(Event {
                kind: EventKind::Span,
                phase: Phase::Stream,
                step: i,
                at_ns: i * 100,
                dur_ns: 5,
                value: 0,
            });
        }
        assert_eq!(sink.recorded(), 10);
        assert_eq!(sink.dropped(), 6);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        // Oldest-first: steps 6..10 survive.
        let steps: Vec<u64> = events.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        assert_eq!(sink.phase_ns(Phase::Stream), 50);
        assert_eq!(sink.phase_count(Phase::Stream), 10);
    }

    #[test]
    fn noop_sink_records_nothing_and_yields_zero_timestamps() {
        let mut sink = NoopSink;
        assert_eq!(sink.start(), 0);
        // These must be no-ops (nothing to assert beyond not crashing:
        // the real guarantee is ENABLED = false folding the guards).
        sink.span(Phase::Stream, 0, 0);
        sink.instant(Phase::VectorDispatch, 0, 7);
        const { assert!(!NoopSink::ENABLED) }
    }

    #[test]
    fn span_helper_records_duration_under_the_right_phase() {
        let mut sink = RingSink::with_capacity(8);
        let t0 = sink.start();
        sink.span(Phase::Mutate, 3, t0);
        assert_eq!(sink.phase_count(Phase::Mutate), 1);
        let ev = sink.events()[0];
        assert_eq!(ev.kind, EventKind::Span);
        assert_eq!(ev.phase, Phase::Mutate);
        assert_eq!(ev.step, 3);
        sink.instant(Phase::VectorDispatch, 3, 42);
        let ev = sink.events()[1];
        assert_eq!(ev.kind, EventKind::Instant);
        assert_eq!(ev.value, 42);
        assert_eq!(ev.dur_ns, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut sink = RingSink::with_capacity(2);
        sink.instant(Phase::Slice, 0, 1);
        sink.clear();
        assert_eq!(sink.recorded(), 0);
        assert_eq!(sink.events().len(), 0);
        assert_eq!(sink.phase_count(Phase::Slice), 0);
    }
}
