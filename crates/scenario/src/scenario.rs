//! The scenario runner: workload × scheme × graph, measured.
//!
//! A [`Scenario`] drives a balancer through two phases and reports the
//! quantities the dynamic-network literature states its results in:
//!
//! 1. **injection phase** (`rounds` rounds): the workload injects every
//!    round while the scheme balances. Over the trailing
//!    [`tail_window`](Scenario::tail_window) rounds — after the system
//!    has had time to reach its operating point — the runner records
//!    the **steady-state discrepancy** (max and mean), the open-system
//!    analogue of the paper's fixed-load discrepancy bounds. The
//!    **peak load** and **peak discrepancy** over the whole phase
//!    capture the worst transient.
//! 2. **recovery phase** (closed system, up to
//!    [`recovery_max_rounds`](Scenario::recovery_max_rounds)): the
//!    workload stops and the runner counts the rounds until the
//!    discrepancy first drops to
//!    [`recovery_threshold`](Scenario::recovery_threshold) — the
//!    **time to recover** after a burst. `None` means the threshold was
//!    not reached within the budget (reported honestly, not an error).
//!
//! The runner takes one planned round at a time with the engine's
//! counted `summary` for the injection phase (it reads per-round
//! statistics anyway), and a `step` loop for recovery.

use dlb_core::{
    Balancer, Engine, EngineError, EngineState, LoadVector, Path, Run, TopologySchedule, Workload,
};
use dlb_graph::BalancingGraph;

/// Reusable recording state for [`Scenario`] runs: the per-round
/// discrepancy trace is written into a buffer that persists across
/// runs, so a sweep over hundreds of scenario cells allocates it once
/// instead of growing a fresh vector every run (and, within a run,
/// `reserve` up front instead of reallocating round by round).
#[derive(Debug, Default)]
pub struct ScenarioRecorder {
    trace: Vec<i64>,
}

impl ScenarioRecorder {
    /// An empty recorder; buffers grow on first use and are reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        ScenarioRecorder::default()
    }

    /// The last run's per-round discrepancy trace (injection phase
    /// only, one entry per round).
    pub fn trace(&self) -> &[i64] {
        &self.trace
    }
}

/// Parameters of one scenario run (see the module docs for the phase
/// structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Injection-phase length in rounds.
    pub rounds: usize,
    /// Trailing window of the injection phase over which the
    /// steady-state discrepancy is taken.
    pub tail_window: usize,
    /// Closed-system round budget for the recovery phase.
    pub recovery_max_rounds: usize,
    /// Discrepancy at or below which the system counts as recovered.
    pub recovery_threshold: i64,
}

impl Scenario {
    /// A scenario with `rounds` injection rounds, a tail window of a
    /// quarter of them, a recovery budget of `4 × rounds`, and a
    /// recovery threshold of `2 d⁺` — callers tune the fields directly
    /// for anything else.
    pub fn new(rounds: usize, gp: &BalancingGraph) -> Self {
        Scenario {
            rounds,
            tail_window: (rounds / 4).max(1),
            recovery_max_rounds: rounds * 4,
            recovery_threshold: 2 * gp.degree_plus() as i64,
        }
    }

    /// Runs the scenario: `balancer` against `workload` on `gp` from
    /// `initial`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] — an unclamped drain under
    /// a non-overdrawing scheme, for instance, is an error by design.
    pub fn run(
        &self,
        gp: &BalancingGraph,
        initial: &LoadVector,
        balancer: &mut dyn Balancer,
        workload: &mut dyn Workload,
    ) -> Result<ScenarioReport, EngineError> {
        let mut recorder = ScenarioRecorder::new();
        self.run_dyn(gp, initial, balancer, None, workload, &mut recorder)
    }

    /// [`run`](Scenario::run) under topology churn: `schedule`'s
    /// events mutate the graph every injection round (the engine's
    /// full dynamic round structure), so the steady-state numbers
    /// describe balancing *while the graph changes*. The recovery
    /// phase is run closed — churn and injection both stop — so the
    /// recovery time isolates how long the scheme needs to digest what
    /// the churn left behind (asleep nodes keep handing their queues
    /// to live neighbours during recovery). `recorder` buffers are
    /// reused across calls; the per-round discrepancy trace of this
    /// run is left in it.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`], including
    /// `EngineError::Topology` for schedules that emit invalid events.
    pub fn run_dyn<'s>(
        &self,
        gp: &BalancingGraph,
        initial: &LoadVector,
        balancer: &mut dyn Balancer,
        schedule: Option<&mut (dyn TopologySchedule + 's)>,
        workload: &mut dyn Workload,
        recorder: &mut ScenarioRecorder,
    ) -> Result<ScenarioReport, EngineError> {
        self.resume_dyn(
            ScenarioCheckpoint::start(gp, initial),
            balancer,
            schedule,
            workload,
            recorder,
        )
    }

    /// Runs the injection phase from `checkpoint` up to (and
    /// including) round `through_round` — clamped to
    /// [`rounds`](Scenario::rounds) — and returns the advanced
    /// checkpoint without entering the recovery phase. This is the
    /// snapshot hook: capture the returned checkpoint (plus the
    /// balancer's and generators' own cursors, which travel
    /// separately) and hand it to [`resume_dyn`](Scenario::resume_dyn)
    /// later, in another process, or not at all.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`].
    pub fn advance_dyn<'s>(
        &self,
        checkpoint: ScenarioCheckpoint,
        balancer: &mut dyn Balancer,
        schedule: Option<&mut (dyn TopologySchedule + 's)>,
        workload: &mut dyn Workload,
        through_round: usize,
    ) -> Result<ScenarioCheckpoint, EngineError> {
        let ScenarioCheckpoint {
            engine: state,
            mut stats,
        } = checkpoint;
        let mut engine = Engine::from_state(state);
        self.inject_until(
            &mut engine,
            InjectionSink {
                stats: &mut stats,
                trace: None,
            },
            balancer,
            schedule,
            workload,
            through_round.min(self.rounds),
        )?;
        Ok(ScenarioCheckpoint {
            engine: engine.export_state(),
            stats,
        })
    }

    /// Finishes a scenario from `checkpoint`: the remaining injection
    /// rounds, then the recovery phase. The resulting report is
    /// field-identical to an uninterrupted [`run_dyn`](Scenario::run_dyn)
    /// — in particular `recovery_rounds` is still measured from the
    /// injection-stop round, because the restored engine's step cursor
    /// keeps the absolute round numbering. `recorder` holds the
    /// post-resume part of the discrepancy trace only (the pre-split
    /// part was recorded by whoever ran the earlier rounds).
    ///
    /// The scheme's own state (rotor positions) and the generators'
    /// cursors are deliberately *not* part of the checkpoint; callers
    /// restore those through
    /// [`RotorRouter::with_initial_rotors`](dlb_core::schemes::RotorRouter::with_initial_rotors)-style
    /// constructors and [`Workload::restore_cursor`] /
    /// [`TopologySchedule::restore_cursor`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`].
    pub fn resume_dyn<'s>(
        &self,
        checkpoint: ScenarioCheckpoint,
        balancer: &mut dyn Balancer,
        schedule: Option<&mut (dyn TopologySchedule + 's)>,
        workload: &mut dyn Workload,
        recorder: &mut ScenarioRecorder,
    ) -> Result<ScenarioReport, EngineError> {
        let ScenarioCheckpoint {
            engine: state,
            mut stats,
        } = checkpoint;
        let mut engine = Engine::from_state(state);
        recorder.trace.clear();
        recorder
            .trace
            .reserve(self.rounds.saturating_sub(engine.step_count()));
        self.inject_until(
            &mut engine,
            InjectionSink {
                stats: &mut stats,
                trace: Some(&mut recorder.trace),
            },
            balancer,
            schedule,
            workload,
            self.rounds,
        )?;

        let loads_after_injection = engine.loads().clone();
        let injected_total = engine.injected_total();
        let topology_events = engine.topology_events_applied();

        // Recovery: the workload stops; count closed-system rounds to
        // the threshold. A system already at the threshold when
        // injection ends has genuinely recovered in zero rounds —
        // checked before stepping, since a step's summary describes
        // the state *after* its round. Otherwise step until the
        // summary's discrepancy reaches it (one scan per round, the
        // order of the round's own flow pass).
        let recovery_rounds = if loads_after_injection.discrepancy() <= self.recovery_threshold {
            Some(0)
        } else {
            let mut reached = None;
            for _ in 0..self.recovery_max_rounds {
                let s = engine.step(balancer)?;
                if s.discrepancy <= self.recovery_threshold {
                    reached = Some(s.step - self.rounds);
                    break;
                }
            }
            reached
        };

        Ok(ScenarioReport {
            rounds: self.rounds,
            steady_discrepancy_max: stats.tail_max,
            steady_discrepancy_mean: stats.tail_sum as f64 / stats.tail_rounds.max(1) as f64,
            peak_load: stats.peak_load,
            peak_discrepancy: stats.peak_discrepancy,
            recovery_rounds,
            injected_total,
            topology_events,
            final_total: engine.loads().total(),
            final_discrepancy: engine.loads().discrepancy(),
            loads_after_injection,
        })
    }

    /// The shared injection loop: steps `engine` until `upto` rounds
    /// have completed, folding per-round statistics into `stats` (and
    /// the discrepancy trace into `trace`, when recording). The round
    /// counter *is* the engine's step cursor, so a restored engine
    /// continues with the absolute round numbering — tail-window
    /// membership and schedule/workload phase structure are unaffected
    /// by where the run was split.
    fn inject_until<'s>(
        &self,
        engine: &mut Engine,
        sink: InjectionSink<'_>,
        balancer: &mut dyn Balancer,
        mut schedule: Option<&mut (dyn TopologySchedule + 's)>,
        workload: &mut dyn Workload,
        upto: usize,
    ) -> Result<(), EngineError> {
        let InjectionSink { stats, mut trace } = sink;
        let tail_start = self.rounds.saturating_sub(self.tail_window);
        while engine.step_count() < upto {
            let round = engine.step_count();
            let one_round = Run {
                schedule: schedule.as_deref_mut(),
                workload: Some(&mut *workload),
                path: Path::Planned,
                ..Run::new(1)
            };
            engine.run(balancer, one_round)?;
            let summary = engine.summary();
            if let Some(t) = trace.as_deref_mut() {
                t.push(summary.discrepancy);
            }
            stats.peak_load = stats.peak_load.max(engine.loads().max());
            stats.peak_discrepancy = stats.peak_discrepancy.max(summary.discrepancy);
            if round >= tail_start {
                stats.tail_max = stats.tail_max.max(summary.discrepancy);
                stats.tail_sum += summary.discrepancy;
                stats.tail_rounds += 1;
            }
        }
        Ok(())
    }
}

/// Where [`Scenario::inject_until`] folds its per-round observations:
/// the running statistics, plus the discrepancy trace when recording.
struct InjectionSink<'a> {
    stats: &'a mut InjectionStats,
    trace: Option<&'a mut Vec<i64>>,
}

/// A mid-injection-phase [`Scenario`] snapshot: the engine's resumable
/// state plus the runner's accumulated statistics, so a run split at
/// any round boundary ([`Scenario::advance_dyn`] →
/// [`Scenario::resume_dyn`]) reports exactly what the uninterrupted
/// run would have — including when the split lands *inside* the tail
/// window, where partially accumulated tail statistics must cross the
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCheckpoint {
    /// Engine state after [`rounds_done`](ScenarioCheckpoint::rounds_done)
    /// completed injection rounds.
    pub engine: EngineState,
    /// The runner's accumulated per-round statistics.
    pub stats: InjectionStats,
}

impl ScenarioCheckpoint {
    /// The round-zero checkpoint: a fresh engine over `gp` with
    /// `initial` loads and statistics seeded from the initial vector.
    #[must_use]
    pub fn start(gp: &BalancingGraph, initial: &LoadVector) -> Self {
        let engine = Engine::new(gp.clone(), initial.clone());
        ScenarioCheckpoint {
            engine: engine.export_state(),
            stats: InjectionStats {
                peak_load: initial.max(),
                peak_discrepancy: initial.discrepancy(),
                tail_max: 0,
                tail_sum: 0,
                tail_rounds: 0,
            },
        }
    }

    /// Completed injection rounds (the engine's step cursor).
    #[must_use]
    pub fn rounds_done(&self) -> usize {
        self.engine.step
    }
}

/// The injection-phase accumulators a [`ScenarioCheckpoint`] carries.
/// Checkpoint payload, not live telemetry: the engine-side cumulative
/// counters behind these reach the dlb-obs MetricRegistry via the
/// engine's `fill_metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionStats {
    /// Highest single-node load seen at any round boundary so far.
    pub peak_load: i64,
    /// Highest discrepancy seen so far.
    pub peak_discrepancy: i64,
    /// Max discrepancy over the tail-window rounds completed so far.
    pub tail_max: i64,
    /// Discrepancy sum over the tail-window rounds completed so far.
    pub tail_sum: i64,
    /// Tail-window rounds completed so far.
    pub tail_rounds: u64,
}

/// What a [`Scenario`] run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Injection rounds executed.
    pub rounds: usize,
    /// Max discrepancy over the tail window — the steady-state bound
    /// witnessed.
    pub steady_discrepancy_max: i64,
    /// Mean discrepancy over the tail window.
    pub steady_discrepancy_mean: f64,
    /// Highest single-node load seen at any round boundary.
    pub peak_load: i64,
    /// Highest discrepancy seen during the injection phase.
    pub peak_discrepancy: i64,
    /// Rounds from the end of injection to the recovery threshold
    /// (`None`: not reached within the budget).
    pub recovery_rounds: Option<usize>,
    /// Net injected load over the whole run.
    pub injected_total: i64,
    /// Topology events applied during the injection phase (always 0
    /// for static runs).
    pub topology_events: u64,
    /// Final total load (equals initial total + `injected_total`).
    pub final_total: i64,
    /// Final discrepancy after the recovery phase.
    pub final_discrepancy: i64,
    /// The load vector at the end of the injection phase (before
    /// recovery) — the reference the scenario harness checks the other
    /// execution paths against without replaying the per-round run.
    pub loads_after_injection: LoadVector,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BurstyOnOff, Hotspot};
    use dlb_core::schemes::SendFloor;
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn scenario_conserves_and_recovers_from_a_burst() {
        let gp = lazy_cycle(16);
        let initial = LoadVector::uniform(16, 8);
        // A 20-round hotspot flood ends with the pile still on node 0
        // — injection stops with real imbalance in flight (uniform
        // arrivals would be smoothed as fast as they land).
        let mut scenario = Scenario::new(20, &gp);
        scenario.recovery_max_rounds = 20_000;
        let report = scenario
            .run(
                &gp,
                &initial,
                &mut SendFloor::new(),
                &mut Hotspot::new(0, 32),
            )
            .unwrap();
        assert_eq!(report.final_total, 128 + report.injected_total);
        assert!(report.peak_load >= 8);
        assert!(report.peak_discrepancy >= report.steady_discrepancy_max);
        let recovery = report.recovery_rounds.expect("cycle(16) recovers");
        assert!(recovery > 0, "burst must leave imbalance to recover from");
        assert!(report.final_discrepancy <= scenario.recovery_threshold);
    }

    #[test]
    fn already_balanced_at_injection_end_reports_zero_recovery() {
        let gp = lazy_cycle(16);
        let initial = LoadVector::uniform(16, 8);
        // 40 rounds end after a full 10-round off-phase: the burst has
        // been re-balanced before injection formally stops, so the true
        // time-to-recover is zero — and must be reported as 0, not 1.
        let mut scenario = Scenario::new(40, &gp);
        scenario.recovery_max_rounds = 20_000;
        let report = scenario
            .run(
                &gp,
                &initial,
                &mut SendFloor::new(),
                &mut BurstyOnOff::new(10, 10, 16, 7),
            )
            .unwrap();
        assert!(report.loads_after_injection.discrepancy() <= scenario.recovery_threshold);
        assert_eq!(report.recovery_rounds, Some(0));
    }

    #[test]
    fn run_dyn_measures_recovery_from_a_failure_burst() {
        use dlb_topology::schedules::FailureBurst;
        use dlb_topology::TopologySchedule;

        let gp = lazy_cycle(16);
        let initial = LoadVector::uniform(16, 32);
        // Four nodes fail at round 4 and recover at round 20; their
        // queues pile onto the survivors, so injection ends with churn
        // damage to digest.
        let mut scenario = Scenario::new(24, &gp);
        scenario.recovery_max_rounds = 20_000;
        let mut schedule = FailureBurst::new(4, 20, 4, 21);
        let mut recorder = ScenarioRecorder::new();
        let report = scenario
            .run_dyn(
                &gp,
                &initial,
                &mut SendFloor::new(),
                Some(&mut schedule as &mut dyn TopologySchedule),
                &mut Hotspot::new(0, 16),
                &mut recorder,
            )
            .unwrap();
        assert_eq!(report.topology_events, 8, "4 sleeps + 4 wakes");
        assert_eq!(report.final_total, 16 * 32 + report.injected_total);
        assert_eq!(recorder.trace().len(), 24, "one trace entry per round");
        assert!(report.recovery_rounds.is_some(), "cycle(16) recovers");
        // A second run reuses the recorder's buffer.
        let report2 = scenario
            .run_dyn(
                &gp,
                &initial,
                &mut SendFloor::new(),
                None,
                &mut Hotspot::new(0, 16),
                &mut recorder,
            )
            .unwrap();
        assert_eq!(report2.topology_events, 0);
        assert_eq!(recorder.trace().len(), 24);
    }

    /// The satellite anchor: a scenario snapshotted *inside* the tail
    /// window and resumed must report every field — tail max/mean,
    /// peaks, and recovery_rounds measured from the injection-stop
    /// round — identical to the uninterrupted run. Workload and churn
    /// state cross the split through their cursors.
    #[test]
    fn resume_inside_the_tail_window_yields_identical_report() {
        use dlb_topology::schedules::FailureBurst;

        let gp = lazy_cycle(16);
        let initial = LoadVector::uniform(16, 8);
        // rounds = 20 → tail_window 5, tail starts at round 15. The
        // burst wakes at round 19, *after* the split.
        let mut scenario = Scenario::new(20, &gp);
        scenario.recovery_max_rounds = 20_000;
        let make_workload = || BurstyOnOff::new(7, 3, 32, 9);
        let make_schedule = || FailureBurst::new(4, 19, 3, 21);

        let mut recorder = ScenarioRecorder::new();
        let mut schedule = make_schedule();
        let reference = scenario
            .run_dyn(
                &gp,
                &initial,
                &mut SendFloor::new(),
                Some(&mut schedule as &mut dyn TopologySchedule),
                &mut make_workload(),
                &mut recorder,
            )
            .unwrap();
        assert!(
            reference.recovery_rounds.unwrap_or(0) > 0,
            "the scenario must leave real recovery work: {reference:?}"
        );

        // Split at round 17: two tail rounds accumulated, three left.
        let mut workload = make_workload();
        let mut schedule = make_schedule();
        let checkpoint = scenario
            .advance_dyn(
                ScenarioCheckpoint::start(&gp, &initial),
                &mut SendFloor::new(),
                Some(&mut schedule as &mut dyn TopologySchedule),
                &mut workload,
                17,
            )
            .unwrap();
        assert_eq!(checkpoint.rounds_done(), 17);
        assert_eq!(checkpoint.stats.tail_rounds, 2, "split lands mid-tail");

        // Fresh same-spec generators restored from the cursors, as a
        // deserializing host would build them.
        let mut resumed_workload = make_workload();
        assert!(resumed_workload.restore_cursor(&workload.cursor()));
        let mut resumed_schedule = make_schedule();
        assert!(resumed_schedule.restore_cursor(&schedule.cursor()));
        let report = scenario
            .resume_dyn(
                checkpoint,
                &mut SendFloor::new(),
                Some(&mut resumed_schedule as &mut dyn TopologySchedule),
                &mut resumed_workload,
                &mut recorder,
            )
            .unwrap();
        assert_eq!(report, reference, "resumed report must be field-identical");
        assert_eq!(
            recorder.trace().len(),
            3,
            "resumed trace covers only the post-split rounds"
        );
    }

    #[test]
    fn hotspot_peaks_above_uniform() {
        let gp = lazy_cycle(8);
        let initial = LoadVector::uniform(8, 4);
        let scenario = Scenario {
            rounds: 12,
            tail_window: 3,
            recovery_max_rounds: 5_000,
            recovery_threshold: 8,
        };
        let report = scenario
            .run(
                &gp,
                &initial,
                &mut SendFloor::new(),
                &mut Hotspot::new(0, 20),
            )
            .unwrap();
        assert_eq!(report.injected_total, 12 * 20);
        assert!(report.peak_load > 4, "the flood must show in the peak");
    }
}
