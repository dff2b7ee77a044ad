//! One hosted engine instance: graph × scheme × workload × churn
//! schedule, journaled and snapshot-resumable.
//!
//! A [`Tenant`] owns its [`Engine`], its scheme state, its generator
//! boxes, and a windowed [`Journal`]. Every batch of rounds is run
//! through **recording wrappers** that capture the raw generator
//! output (topology events pre-validation, net injection deltas) so
//! the journal replays the exact same round inputs later — including
//! a round that errors, whose rejected events are recorded too. The
//! wrappers append into two flat logs per engine call, one for events
//! and one for deltas, which are encoded into the journal when the
//! call ends — no `Vec` per round.
//!
//! A tenant checkpoints at every round that is a multiple of
//! [`WINDOW`]: its journal's base becomes the last-but-one checkpoint
//! and the records before it are dropped, so the journal holds
//! `WINDOW`..`2·WINDOW` rounds (fewer in the first `WINDOW` rounds and
//! after a resume) whatever the tenant's age. [`Tenant::run_rounds`]
//! splits a batch at those multiples, counted in absolute rounds, so
//! the journal does not depend on how the rounds are batched. The
//! snapshot of each checkpoint is encoded straight from the live
//! engine into a buffer the journal reuses.
//!
//! Replay drives a fresh engine rebuilt from the journal's base
//! snapshot through the recorded rounds — `WINDOW`..`2·WINDOW` of them
//! for a warm tenant — and compares the
//! **path-independent outcome** ([`TenantOutcome`]): loads, graph,
//! rotor state, step/injection/event counters and terminal error. The
//! per-path diagnostics (`discrepancy_scans`, `VectorStats.runs`) are
//! deliberately outside the comparison — they count *how* a result was
//! computed, and a replay in one uninterrupted run legitimately
//! dispatches differently than a live tenant served across many
//! scheduler slices. Replay has a budget: a journal that asks for more
//! than `2·WINDOW` rounds past its base is refused with
//! [`TenantError::ReplayBudget`] before any round runs.

use std::error::Error;
use std::fmt;

use dlb_core::schemes::{RotorRouter, RotorRouterStar, SendFloor, SendRound};
use dlb_core::{Engine, EngineError, LoadVector, Run, TopologyEvent, TopologySchedule, Workload};
use dlb_graph::{BalancingGraph, GraphError, PortOrder, RegularGraph};
use dlb_scenario::WorkloadSpec;
use dlb_topology::{ScheduleSpec, SwapShortfall};

use crate::journal::{Journal, RoundRecord, WINDOW};
use crate::snapshot::{check_load_total, EngineRef, SchemeKind, SnapshotRef, TenantSnapshot};
use crate::wire::{WireError, Writer};

/// Errors raised by tenant construction, snapshot resume and replay.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantError {
    /// A snapshot or journal failed to decode.
    Wire(WireError),
    /// A decoded graph or rotor vector failed structural validation.
    Graph(GraphError),
    /// Decoded state that is syntactically valid but semantically
    /// inconsistent (cursor shape mismatch, load/node count mismatch,
    /// out-of-range journal indices).
    Corrupt(String),
    /// A workload spec the generators cannot run (see
    /// [`WorkloadSpec::validate`]) or whose rounds would place more
    /// than [`MAX_ROUND_ITEMS`] tokens — rejected at construction, so
    /// every tenant's snapshot resumes again.
    Workload(String),
    /// A schedule spec the generators cannot be built from (see
    /// [`ScheduleSpec::validate`]) or whose rounds would try more than
    /// [`MAX_ROUND_ITEMS`] events.
    Schedule(String),
    /// A journal that asks replay to run more than `2·`[`WINDOW`]
    /// rounds past its base: no live journal spans more, so the
    /// request is forged or stale, and replay refuses it before it
    /// runs any round.
    ReplayBudget {
        /// The base snapshot's round.
        base_round: u64,
        /// The round the journal asks replay to reach.
        through_round: u64,
    },
}

/// The most token placements, or topology events tried, that one round
/// of a tenant's generators may ask for. The arrival workloads place
/// their tokens one at a time and the swap and burst schedules try
/// their events one at a time, so a forged rate would otherwise stall
/// a round for as long as it likes.
pub const MAX_ROUND_ITEMS: u64 = 1 << 16;

/// Checks a tenant's generator specs before they are built.
fn check_specs(
    workload: Option<&WorkloadSpec>,
    schedule: &ScheduleSpec,
) -> Result<(), TenantError> {
    if let Some(spec) = workload {
        spec.validate().map_err(TenantError::Workload)?;
        if let WorkloadSpec::Steady { rate, .. }
        | WorkloadSpec::Bursty { rate, .. }
        | WorkloadSpec::ArriveAndDrain { rate, .. } = *spec
        {
            if rate > MAX_ROUND_ITEMS {
                return Err(TenantError::Workload(format!(
                    "{rate} arrivals per round exceed {MAX_ROUND_ITEMS}"
                )));
            }
        }
    }
    schedule.validate().map_err(TenantError::Schedule)?;
    if let ScheduleSpec::Periodic { swaps: items, .. }
    | ScheduleSpec::Churn { swaps: items, .. }
    | ScheduleSpec::Burst { count: items, .. } = *schedule
    {
        if items as u64 > MAX_ROUND_ITEMS {
            return Err(TenantError::Schedule(format!(
                "{items} events per round exceed {MAX_ROUND_ITEMS}"
            )));
        }
    }
    Ok(())
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Wire(e) => write!(f, "{e}"),
            TenantError::Graph(e) => write!(f, "{e}"),
            TenantError::Corrupt(reason) => write!(f, "corrupt tenant state: {reason}"),
            TenantError::Workload(reason) => write!(f, "invalid workload spec: {reason}"),
            TenantError::Schedule(reason) => write!(f, "invalid schedule spec: {reason}"),
            TenantError::ReplayBudget {
                base_round,
                through_round,
            } => write!(
                f,
                "journal asks replay to run from round {base_round} through {through_round}, \
                 more than {} rounds",
                2 * WINDOW
            ),
        }
    }
}

impl Error for TenantError {}

impl From<WireError> for TenantError {
    fn from(e: WireError) -> TenantError {
        TenantError::Wire(e)
    }
}

impl From<GraphError> for TenantError {
    fn from(e: GraphError) -> TenantError {
        TenantError::Graph(e)
    }
}

/// The path-independent result of a tenant's run so far: everything
/// the five bit-identical execution paths agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Final loads.
    pub loads: Vec<i64>,
    /// Rounds completed.
    pub step: usize,
    /// Negative node-step count.
    pub negative_node_steps: u64,
    /// Net injected tokens.
    pub injected_total: i64,
    /// Topology events applied (surviving rollback).
    pub topology_events_applied: u64,
    /// Final balancing graph (adjacency, ports, sleep set).
    pub graph: BalancingGraph,
    /// Rotor positions (empty for stateless schemes).
    pub rotors: Vec<u64>,
    /// Terminal error, if the run stopped.
    pub error: Option<EngineError>,
}

/// The concrete scheme a tenant runs. All four are kernel schemes:
/// [`SchemeInstance::run`] drives each through [`Engine::run`], whose
/// kernel rounds are compiled per scheme.
#[derive(Debug, Clone)]
enum SchemeInstance {
    Floor(SendFloor),
    Round(SendRound),
    Rotor(RotorRouter),
    Star(RotorRouterStar),
}

impl SchemeInstance {
    fn build(
        kind: SchemeKind,
        gp: &BalancingGraph,
        rotors: Option<&[u64]>,
    ) -> Result<SchemeInstance, TenantError> {
        let positions = |words: &[u64]| -> Result<Vec<usize>, TenantError> {
            words
                .iter()
                .map(|&w| {
                    usize::try_from(w)
                        .map_err(|_| TenantError::Corrupt(format!("rotor word {w} overflows")))
                })
                .collect()
        };
        Ok(match kind {
            SchemeKind::SendFloor => SchemeInstance::Floor(SendFloor::new()),
            SchemeKind::SendRound => SchemeInstance::Round(SendRound::new()),
            SchemeKind::RotorRouter => SchemeInstance::Rotor(match rotors {
                None => RotorRouter::new(gp, PortOrder::Sequential)?,
                Some(words) => {
                    RotorRouter::with_initial_rotors(gp, PortOrder::Sequential, positions(words)?)?
                }
            }),
            SchemeKind::RotorRouterStar => SchemeInstance::Star(match rotors {
                None => RotorRouterStar::new(gp, PortOrder::Sequential)?,
                Some(words) => RotorRouterStar::with_initial_rotors(
                    gp,
                    PortOrder::Sequential,
                    positions(words)?,
                )?,
            }),
        })
    }

    fn kind(&self) -> SchemeKind {
        match self {
            SchemeInstance::Floor(_) => SchemeKind::SendFloor,
            SchemeInstance::Round(_) => SchemeKind::SendRound,
            SchemeInstance::Rotor(_) => SchemeKind::RotorRouter,
            SchemeInstance::Star(_) => SchemeKind::RotorRouterStar,
        }
    }

    /// Runs `rounds` kernel rounds of this scheme on `engine` under
    /// `schedule` and `workload` — the one engine call behind both the
    /// live batch and the journal replay.
    fn run(
        &mut self,
        engine: &mut Engine,
        rounds: usize,
        schedule: Option<&mut dyn TopologySchedule>,
        workload: Option<&mut dyn Workload>,
    ) -> Result<(), EngineError> {
        let run = Run {
            schedule,
            workload,
            ..Run::new(rounds)
        };
        match self {
            SchemeInstance::Floor(b) => engine.run(b, run),
            SchemeInstance::Round(b) => engine.run(b, run),
            SchemeInstance::Rotor(b) => engine.run(b, run),
            SchemeInstance::Star(b) => engine.run(b, run),
        }
    }

    /// Rotor positions (empty for the SEND schemes).
    fn rotors(&self) -> &[usize] {
        match self {
            SchemeInstance::Floor(_) | SchemeInstance::Round(_) => &[],
            SchemeInstance::Rotor(r) => r.rotors(),
            SchemeInstance::Star(r) => r.rotors(),
        }
    }

    fn rotor_words(&self) -> Vec<u64> {
        self.rotors().iter().map(|&p| p as u64).collect()
    }
}

/// One hosted engine instance. See the [module docs](self).
pub struct Tenant {
    engine: Engine,
    scheme: SchemeInstance,
    workload_spec: Option<WorkloadSpec>,
    workload: Option<Box<dyn Workload>>,
    schedule_spec: ScheduleSpec,
    schedule: Option<Box<dyn TopologySchedule>>,
    journal: Journal,
    error: Option<EngineError>,
    /// Checkpoints taken since the tenant was built or resumed.
    checkpoints: u64,
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("scheme", &self.scheme.kind())
            .field("rounds_done", &self.engine.step_count())
            .field("workload", &self.workload_spec)
            .field("schedule", &self.schedule_spec)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Creates a tenant at round zero and opens its journal.
    ///
    /// The schedule/workload generators are built from their specs
    /// ([`ScheduleSpec::Static`] / `None` mean the genuinely closed
    /// regime and keep the vectorized kernel path eligible).
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] if `initial` does not have one entry
    /// per node or its positive loads sum past `i64::MAX`, if a spec
    /// fails [`WorkloadSpec::validate`] or [`ScheduleSpec::validate`]
    /// or asks for more than [`MAX_ROUND_ITEMS`] per round (the
    /// snapshot decoder or resume would reject it), or if the scheme
    /// rejects the graph (ROTOR-ROUTER* requires `d° = d`).
    pub fn new(
        graph: BalancingGraph,
        initial: LoadVector,
        scheme: SchemeKind,
        workload: Option<WorkloadSpec>,
        schedule: ScheduleSpec,
    ) -> Result<Tenant, TenantError> {
        let n = graph.num_nodes();
        if initial.as_slice().len() != n {
            return Err(TenantError::Corrupt(format!(
                "initial loads have {} entries, graph has {n} nodes",
                initial.as_slice().len()
            )));
        }
        check_specs(workload.as_ref(), &schedule)?;
        check_load_total(initial.as_slice()).map_err(TenantError::Corrupt)?;
        let scheme = SchemeInstance::build(scheme, &graph, None)?;
        let engine = Engine::new(graph, initial);
        let mut tenant = Tenant {
            engine,
            scheme,
            workload: workload.as_ref().map(|spec| spec.build(n)),
            workload_spec: workload,
            schedule: schedule.build(),
            schedule_spec: schedule,
            journal: Journal::new(&[]),
            error: None,
            checkpoints: 0,
        };
        tenant.journal = Journal::new(&tenant.snapshot());
        Ok(tenant)
    }

    /// Rebuilds a tenant from an encoded snapshot, resuming
    /// bit-identically: engine counters, rotor positions and generator
    /// cursors all restored. A fresh journal is opened with this
    /// snapshot as its base.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] on undecodable bytes, an invalid graph
    /// or rotor vector, or generator cursors the specs reject.
    pub fn resume_from_snapshot(bytes: &[u8]) -> Result<Tenant, TenantError> {
        let snap = TenantSnapshot::decode(bytes)?;
        Tenant::from_snapshot_contents(snap, Journal::new(bytes))
    }

    fn from_snapshot_contents(
        snap: TenantSnapshot,
        journal: Journal,
    ) -> Result<Tenant, TenantError> {
        let n = snap.engine.graph.num_nodes();
        if snap.engine.loads.len() != n {
            return Err(TenantError::Corrupt(format!(
                "snapshot has {} loads for {n} nodes",
                snap.engine.loads.len()
            )));
        }
        check_specs(snap.workload.as_ref(), &snap.schedule)?;
        let rotors = (!snap.rotors.is_empty()).then_some(snap.rotors.as_slice());
        let scheme = SchemeInstance::build(snap.scheme, &snap.engine.graph, rotors)?;
        let mut workload = snap.workload.as_ref().map(|spec| spec.build(n));
        if let Some(w) = workload.as_mut() {
            if !w.restore_cursor(&snap.workload_cursor) {
                return Err(TenantError::Corrupt("workload cursor rejected".into()));
            }
        } else if !snap.workload_cursor.is_empty() {
            return Err(TenantError::Corrupt("cursor for an absent workload".into()));
        }
        let mut schedule = snap.schedule.build();
        if let Some(s) = schedule.as_mut() {
            if !s.restore_cursor(&snap.schedule_cursor) {
                return Err(TenantError::Corrupt("schedule cursor rejected".into()));
            }
        } else if !snap.schedule_cursor.is_empty() {
            return Err(TenantError::Corrupt("cursor for a static schedule".into()));
        }
        Ok(Tenant {
            engine: Engine::from_state(snap.engine),
            scheme,
            workload_spec: snap.workload,
            workload,
            schedule_spec: snap.schedule,
            schedule,
            journal,
            error: snap.error,
            checkpoints: 0,
        })
    }

    /// Serializes the tenant's full resumable state.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_snapshot(&mut w);
        w.into_bytes()
    }

    /// Appends the encoded snapshot of the live state to `w`, reading
    /// the engine in place. The workload and schedule cursors share
    /// one vector.
    fn write_snapshot(&self, w: &mut Writer) {
        let mut cursors = Vec::new();
        if let Some(wl) = &self.workload {
            wl.cursor_into(&mut cursors);
        }
        let split = cursors.len();
        if let Some(sched) = &self.schedule {
            sched.cursor_into(&mut cursors);
        }
        let (workload_cursor, schedule_cursor) = cursors.split_at(split);
        SnapshotRef {
            engine: EngineRef::from(&self.engine),
            scheme: self.scheme.kind(),
            rotors: self.scheme.rotors().iter().map(|&p| p as u64),
            error: self.error.as_ref(),
            workload: self.workload_spec.as_ref(),
            workload_cursor,
            schedule: &self.schedule_spec,
            schedule_cursor,
        }
        .encode_into(w);
    }

    /// Runs `rounds` more rounds, journaling every generator output and
    /// checkpointing at every multiple of [`WINDOW`].
    ///
    /// Returns `true` if the batch completed cleanly; `false` if the
    /// tenant was already stopped or stopped during the batch (the
    /// error is recorded in the journal and via [`Tenant::error`], and
    /// all subsequent batches are no-ops). No checkpoint follows an
    /// error.
    pub fn run_rounds(&mut self, rounds: usize) -> bool {
        if self.error.is_some() || rounds == 0 {
            return false;
        }
        let mut left = rounds;
        while left > 0 {
            // Split at multiples of WINDOW in absolute rounds, so the
            // checkpoints, and with them the journal, do not depend on
            // the batching.
            let chunk = left.min(WINDOW - self.engine.step_count() % WINDOW);
            if !self.run_chunk(chunk) {
                return false;
            }
            left -= chunk;
            if self.engine.step_count().is_multiple_of(WINDOW) {
                self.checkpoint();
            }
        }
        true
    }

    /// Runs and journals `rounds` rounds that cross no checkpoint.
    /// Returns `false` if the tenant stopped.
    fn run_chunk(&mut self, rounds: usize) -> bool {
        let mut event_log = RoundLog::new();
        let mut delta_log = RoundLog::new();
        // An absent schedule or workload stays absent: the rounds skip
        // its pre-round step, and it has nothing to record.
        let mut schedule = self.schedule.as_deref_mut().map(|inner| RecordingSchedule {
            inner,
            log: &mut event_log,
        });
        let mut workload = self.workload.as_deref_mut().map(|inner| RecordingWorkload {
            inner,
            log: &mut delta_log,
        });
        let result = self.scheme.run(
            &mut self.engine,
            rounds,
            schedule.as_mut().map(|s| s as &mut dyn TopologySchedule),
            workload.as_mut().map(|w| w as &mut dyn Workload),
        );
        self.append_logs(&event_log, &delta_log);
        match result {
            Ok(()) => {
                self.journal.record_advance(self.engine.step_count() as u64);
                true
            }
            Err(e) => {
                // The erroring round rolled back, so step_count() is
                // the last completed round; replay must still attempt
                // the next round to reproduce the error.
                let through = error_step(&e) as u64;
                self.journal.record_advance(through);
                self.journal.record_error(&e);
                self.error = Some(e);
                false
            }
        }
    }

    /// Takes a checkpoint at the current round: the journal's base moves
    /// to the previous checkpoint, and the current state becomes the
    /// next one. The snapshot is encoded into the buffer the journal
    /// hands back, so a warm tenant reuses it.
    fn checkpoint(&mut self) {
        let mut snapshot = self.journal.begin_checkpoint();
        self.write_snapshot(&mut snapshot);
        self.journal.end_checkpoint(snapshot);
        self.checkpoints += 1;
    }

    /// Merges the batch's event and delta logs (both ascending in
    /// round) into journal round records.
    fn append_logs(&mut self, events: &RoundLog<TopologyEvent>, deltas: &RoundLog<(u32, i64)>) {
        let mut events = events.rounds().peekable();
        let mut deltas = deltas.rounds().peekable();
        while let Some(round) = [events.peek().map(|e| e.0), deltas.peek().map(|d| d.0)]
            .into_iter()
            .flatten()
            .min()
        {
            let ev = events
                .next_if(|&(r, _)| r == round)
                .map_or(&[][..], |(_, e)| e);
            let dv = deltas
                .next_if(|&(r, _)| r == round)
                .map_or(&[][..], |(_, d)| d);
            self.journal.record_round(round, ev, dv);
        }
    }

    /// The terminal error, if the tenant has stopped.
    pub fn error(&self) -> Option<&EngineError> {
        self.error.as_ref()
    }

    /// Rounds completed so far (absolute, including pre-snapshot
    /// history for resumed tenants).
    pub fn rounds_done(&self) -> usize {
        self.engine.step_count()
    }

    /// The scheme this tenant runs.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme.kind()
    }

    /// Current loads.
    pub fn loads(&self) -> &LoadVector {
        self.engine.loads()
    }

    /// The tenant's journal (header + base snapshot + records).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Checkpoints taken since the tenant was built or resumed: one at
    /// every multiple of [`WINDOW`] it reached without an error.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The path-independent outcome of the run so far.
    pub fn outcome(&self) -> TenantOutcome {
        let state = self.engine.export_state();
        TenantOutcome {
            loads: state.loads,
            step: state.step,
            negative_node_steps: state.negative_node_steps,
            injected_total: state.injected_total,
            topology_events_applied: state.topology_events_applied,
            graph: state.graph,
            rotors: self.scheme.rotor_words(),
            error: self.error.clone(),
        }
    }

    /// Replays a journal from its base snapshot: rebuilds the engine
    /// and scheme, feeds the recorded events/deltas back, and drives
    /// to the recorded horizon — at most `2·`[`WINDOW`] rounds.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] on an undecodable journal, recorded
    /// node indices outside the graph, or
    /// [`TenantError::ReplayBudget`] when the horizon lies more than
    /// `2·WINDOW` rounds past the base.
    pub fn replay(journal: &Journal) -> Result<TenantOutcome, TenantError> {
        let contents = journal.decode()?;
        let base_step = contents.base.engine.step as u64;
        if contents.through_round.saturating_sub(base_step) > 2 * WINDOW as u64 {
            return Err(TenantError::ReplayBudget {
                base_round: base_step,
                through_round: contents.through_round,
            });
        }
        let n = contents.base.engine.graph.num_nodes();
        for rec in &contents.rounds {
            if rec.deltas.iter().any(|&(u, _)| u as usize >= n) {
                return Err(TenantError::Corrupt(format!(
                    "journal round {} injects outside the graph",
                    rec.round
                )));
            }
        }
        let rotors = (!contents.base.rotors.is_empty()).then_some(contents.base.rotors.as_slice());
        let mut scheme =
            SchemeInstance::build(contents.base.scheme, &contents.base.engine.graph, rotors)?;
        let mut engine = Engine::from_state(contents.base.engine.clone());
        let mut error = contents.base.error.clone();
        if error.is_none() && contents.through_round > base_step {
            let steps = (contents.through_round - base_step) as usize;
            let mut replay_schedule = ReplaySchedule {
                records: &contents.rounds,
                idx: 0,
            };
            let mut replay_workload = ReplayWorkload {
                records: &contents.rounds,
                idx: 0,
            };
            let result = scheme.run(
                &mut engine,
                steps,
                Some(&mut replay_schedule),
                Some(&mut replay_workload),
            );
            if let Err(e) = result {
                error = Some(e);
            }
        }
        let state = engine.export_state();
        Ok(TenantOutcome {
            loads: state.loads,
            step: state.step,
            negative_node_steps: state.negative_node_steps,
            injected_total: state.injected_total,
            topology_events_applied: state.topology_events_applied,
            graph: state.graph,
            rotors: scheme.rotor_words(),
            error,
        })
    }

    /// Replays this tenant's own journal and compares against the live
    /// state — the serve layer's end-to-end integrity check.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] if the journal fails to decode (replay
    /// *divergence* is the `Ok(false)` case, not an error).
    pub fn replay_matches(&self) -> Result<bool, TenantError> {
        Ok(Tenant::replay(&self.journal)? == self.outcome())
    }
}

fn error_step(e: &EngineError) -> usize {
    match e {
        EngineError::Overdraw { step, .. }
        | EngineError::NegativeLoad { step, .. }
        | EngineError::Topology { step, .. }
        | EngineError::InjectionOverflow { step, .. } => *step,
    }
}

/// One batch's generator output per round, appended flat: `items`
/// holds every round's items back to back, and `index` closes each
/// round that added any with `(round, end)` — its items are
/// `items[previous end..end]`. A batch fills two of these (events and
/// deltas) instead of allocating a `Vec` per round.
struct RoundLog<T> {
    items: Vec<T>,
    index: Vec<(u64, usize)>,
}

impl<T> RoundLog<T> {
    /// An empty log; it allocates on its first item.
    fn new() -> Self {
        RoundLog {
            items: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Closes `round`: indexes the items appended since the last close,
    /// if there are any.
    fn close(&mut self, round: usize) {
        let start = self.index.last().map_or(0, |&(_, end)| end);
        if self.items.len() > start {
            self.index.push((round as u64, self.items.len()));
        }
    }

    /// The closed rounds, ascending, each with its items.
    fn rounds(&self) -> impl Iterator<Item = (u64, &[T])> {
        let mut start = 0;
        self.index.iter().map(move |&(round, end)| {
            let items = &self.items[start..end];
            start = end;
            (round, items)
        })
    }
}

/// Wraps a live schedule, logging every emitted event (pre-validation)
/// keyed by round.
struct RecordingSchedule<'a> {
    inner: &'a mut dyn TopologySchedule,
    log: &'a mut RoundLog<TopologyEvent>,
}

impl TopologySchedule for RecordingSchedule<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        let before = out.len();
        self.inner.events(round, graph, out);
        self.log.items.extend_from_slice(&out[before..]);
        self.log.close(round);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn swap_shortfall(&self) -> Option<SwapShortfall> {
        self.inner.swap_shortfall()
    }

    fn validation_nanos(&self) -> u64 {
        self.inner.validation_nanos()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }

    fn cursor_into(&self, out: &mut Vec<u64>) {
        self.inner.cursor_into(out);
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

/// Wraps a live workload, logging the net per-round deltas (the engine
/// hands this outermost workload a zeroed buffer, so the non-zero
/// entries after the inner call are exactly this round's net
/// injection).
struct RecordingWorkload<'a> {
    inner: &'a mut dyn Workload,
    log: &'a mut RoundLog<(u32, i64)>,
}

impl Workload for RecordingWorkload<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        self.inner.inject(round, loads, deltas);
        let sparse = deltas
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0)
            .map(|(u, &d)| (u as u32, d));
        self.log.items.extend(sparse);
        self.log.close(round);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }

    fn cursor_into(&self, out: &mut Vec<u64>) {
        self.inner.cursor_into(out);
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

/// Feeds recorded topology events back, round by round.
struct ReplaySchedule<'a> {
    records: &'a [RoundRecord],
    idx: usize,
}

impl TopologySchedule for ReplaySchedule<'_> {
    fn label(&self) -> String {
        "replay".into()
    }

    fn events(&mut self, round: usize, _graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        while self
            .records
            .get(self.idx)
            .is_some_and(|r| r.round < round as u64)
        {
            self.idx += 1;
        }
        if let Some(rec) = self.records.get(self.idx) {
            if rec.round == round as u64 {
                out.extend(rec.events.iter().cloned());
            }
        }
    }

    fn is_noop(&self) -> bool {
        // No recorded events anywhere: the replay is churn-free and the
        // vectorized kernel rounds stay eligible, like the live run.
        self.records.iter().all(|r| r.events.is_empty())
    }
}

/// Feeds recorded injection deltas back, round by round.
struct ReplayWorkload<'a> {
    records: &'a [RoundRecord],
    idx: usize,
}

impl Workload for ReplayWorkload<'_> {
    fn label(&self) -> String {
        "replay".into()
    }

    fn inject(&mut self, round: usize, _loads: &[i64], deltas: &mut [i64]) {
        while self
            .records
            .get(self.idx)
            .is_some_and(|r| r.round < round as u64)
        {
            self.idx += 1;
        }
        if let Some(rec) = self.records.get(self.idx) {
            if rec.round == round as u64 {
                for &(u, d) in &rec.deltas {
                    deltas[u as usize] += d;
                }
            }
        }
    }

    fn is_noop(&self) -> bool {
        self.records.iter().all(|r| r.deltas.is_empty())
    }
}
