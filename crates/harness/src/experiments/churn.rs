//! S2 — dynamic-topology churn across the engine's execution paths.
//!
//! The paper's bounds hold on a fixed d-regular graph; this experiment
//! measures balancing **while the topology changes**: every schedule
//! generator of `dlb-topology` (periodic random rewiring,
//! failure/recovery churn, a one-shot failure burst, adversarial
//! cut-targeting swaps, and the rewiring+failure composite) is
//! composed with workload × scheme × graph, and each composition
//! reports
//!
//! * the **steady-state discrepancy under churn** over the injection
//!   tail (how much the moving topology costs the scheme's
//!   fixed-graph guarantee),
//! * the **recovery time after the churn stops** — for the failure
//!   burst this is the headline number: rounds to re-balance after
//!   the failed nodes' queues were dumped on their neighbours
//!   (`-` when the budget runs out first, e.g. for schedules that
//!   leave nodes permanently failed, whose boundary-drained queues
//!   pin the minimum load near zero — reported honestly),
//! * the **events applied** (how much churn actually landed), and
//! * a **bit-identity verdict**: the same rounds of churn + injection
//!   are replayed one reference round per call, in one
//!   [`Path::Reference`] run and in one [`Path::Auto`] run (the kernel
//!   rounds), each with freshly built — hence stream-identical —
//!   schedule and workload, and every path must reproduce the
//!   reference **loads, injected totals, event counts,
//!   final graph (adjacency, port numbering and sleep state), and —
//!   for the rotor-router — rotor state** exactly. Both rounds call the
//!   scheme's one per-node rule; what differs is the round body around
//!   it.
//!
//! Every row also reports `validation_ns` — the cumulative time the
//! schedule spent generating and connectivity-validating candidate
//! events (the dynamic-connectivity structure's cost, broken out of
//! the balancing time; a wall-clock counter on the schedule, which a
//! restored schedule cursor does not carry, so it is the one column
//! that differs between runs) — and the swap-delivery accounting
//! (`swap_shortfall` = requested − emitted). The tests gate on
//! `swap_shortfall == 0` for the default schedules: a burst that
//! silently under-delivers is a regression of the split retry budgets.
//!
//! The rows render as a text table (and as CSV under `--csv`).

use dlb_core::schemes::RotorRouter;
use dlb_core::{Balancer, Engine, LoadVector, Path, Run};
use dlb_graph::{BalancingGraph, PortOrder};
use dlb_scenario::{Scenario, ScenarioRecorder, ScenarioReport, WorkloadSpec};
use dlb_topology::{ScheduleSpec, SwapShortfall, TopologySchedule};

use crate::report::Table;
use crate::runner::RunError;
use crate::suite::{GraphSpec, SchemeSpec};

/// Initial tokens per node: uniform, so every signal in the record is
/// the churn's (and workload's) doing, not the seed distribution's.
const TOKENS_PER_NODE: i64 = 32;

struct ChurnRow {
    scheme: String,
    graph: String,
    n: usize,
    schedule: String,
    workload: String,
    report: ScenarioReport,
    paths: usize,
    bit_identical: bool,
    shortfall: Option<SwapShortfall>,
    validation_ns: u64,
}

/// The churn axis of the sweep. Rates scale with `n` so the event
/// pressure per node is comparable across sizes.
fn schedule_specs(n: usize, rounds: usize) -> Vec<ScheduleSpec> {
    let max_down = (n / 8).max(2);
    vec![
        ScheduleSpec::Static,
        ScheduleSpec::Periodic {
            period: 8,
            swaps: (n / 128).max(1),
            seed: 21,
        },
        ScheduleSpec::Failure {
            fail_pct: 20,
            recover_pct: 15,
            max_down,
            seed: 22,
        },
        ScheduleSpec::Burst {
            fail_at: (rounds / 4).max(1),
            wake_at: (rounds / 2).max(2),
            count: (n / 16).max(2),
            seed: 23,
        },
        ScheduleSpec::CutTargeting { period: 8 },
        ScheduleSpec::Churn {
            period: 8,
            swaps: (n / 256).max(1),
            fail_pct: 10,
            max_down,
            seed: 24,
        },
    ]
}

/// The workload axis: closed rounds, uniform arrivals, and the
/// worst-case hotspot — the drains stay out so every cell is
/// error-free by construction (error paths are fuzzed in
/// `tests/differential_paths.rs`).
fn workload_specs(n: usize) -> Vec<Option<WorkloadSpec>> {
    let rate = (n as u64 / 8).max(4);
    vec![
        None,
        Some(WorkloadSpec::Steady { rate, seed: 11 }),
        Some(WorkloadSpec::Hotspot { rate }),
    ]
}

/// Everything a path must reproduce bit for bit.
#[derive(PartialEq)]
struct PathOutcome {
    loads: LoadVector,
    injected: i64,
    events: u64,
    graph: BalancingGraph,
    rotors: Option<Vec<usize>>,
}

/// Replays `rounds` of churn + injection with freshly built scheme,
/// schedule and workload, in [`Engine::run`] calls of `per_call`
/// rounds on `path`, returning the complete observable outcome.
fn drive_path(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    sspec: &ScheduleSpec,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    rounds: usize,
    (per_call, path): (usize, Path),
) -> Result<PathOutcome, RunError> {
    let n = gp.num_nodes();
    let mut schedule = sspec.build();
    let mut workload = wspec.as_ref().map(|w| w.build(n));
    let mut engine = Engine::new(gp.clone(), initial.clone());
    // A concrete rotor-router, so its rotor state stays observable
    // after the run.
    let mut rotor = matches!(scheme, SchemeSpec::RotorRouter)
        .then(|| RotorRouter::new(gp, PortOrder::Sequential))
        .transpose()?;
    let mut boxed = match &rotor {
        Some(_) => None,
        None => Some(scheme.build(gp)?),
    };
    let bal: &mut dyn Balancer = match (&mut rotor, &mut boxed) {
        (Some(r), _) => r,
        (None, Some(b)) => b.as_mut(),
        _ => unreachable!(),
    };
    for _ in 0..rounds / per_call {
        let run = Run {
            schedule: schedule.as_deref_mut(),
            workload: workload.as_deref_mut(),
            path,
            ..Run::new(per_call)
        };
        engine.run(bal, run)?;
    }
    Ok(PathOutcome {
        loads: engine.loads().clone(),
        injected: engine.injected_total(),
        events: engine.topology_events_applied(),
        graph: engine.graph().clone(),
        rotors: rotor.map(|r| r.rotors().to_vec()),
    })
}

/// Runs the churn sweep.
///
/// # Errors
///
/// Propagates instance-construction and engine errors (the sweep's
/// schedules and workloads are the error-free configurations).
pub fn churn(quick: bool) -> Result<Table, RunError> {
    Ok(render(&churn_rows(quick)?))
}

/// One row per scheme × graph × schedule × workload composition.
fn churn_rows(quick: bool) -> Result<Vec<ChurnRow>, RunError> {
    let graphs: Vec<GraphSpec> = if quick {
        vec![
            GraphSpec::Cycle { n: 64 },
            GraphSpec::Torus2D { side: 8 },
            GraphSpec::RandomRegular {
                n: 64,
                d: 4,
                seed: 42,
            },
        ]
    } else {
        vec![
            GraphSpec::Cycle { n: 1024 },
            GraphSpec::Torus2D { side: 32 },
            GraphSpec::Hypercube { dim: 10 },
            GraphSpec::RandomRegular {
                n: 1024,
                d: 4,
                seed: 42,
            },
        ]
    };
    let schemes = [
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
    ];
    let rounds = if quick { 96 } else { 384 };

    let mut rows: Vec<ChurnRow> = Vec::new();
    let mut recorder = ScenarioRecorder::new();
    for gspec in &graphs {
        let gp = BalancingGraph::lazy(gspec.build()?);
        let n = gp.num_nodes();
        let initial = LoadVector::uniform(n, TOKENS_PER_NODE);
        let mut scenario = Scenario::new(rounds, &gp);
        scenario.recovery_max_rounds = if quick { 2_000 } else { 8_000 };

        for scheme in &schemes {
            for sspec in &schedule_specs(n, rounds) {
                for wspec in &workload_specs(n) {
                    // The metric run: scenario phases, one reference
                    // round at a time.
                    let mut bal = scheme.build(&gp)?;
                    let mut schedule = sspec.build();
                    let mut workload = wspec.as_ref().map_or_else(
                        || WorkloadSpec::Hotspot { rate: 0 }.build(n),
                        |w| w.build(n),
                    );
                    // `None` workload cells run genuinely closed: an
                    // all-zero hotspot is only a placeholder object for
                    // the scenario API and injects nothing.
                    let report = scenario.run_dyn(
                        &gp,
                        &initial,
                        bal.as_mut(),
                        schedule.as_deref_mut(),
                        workload.as_mut(),
                        &mut recorder,
                    )?;

                    // Cross-path bit-identity under this churn ×
                    // workload cell, rotor state and final graph
                    // included.
                    let per_round = (1, Path::Reference);
                    let reference =
                        drive_path(&gp, scheme, sspec, wspec, &initial, rounds, per_round)?;
                    let mut paths = 1usize;
                    let mut identical = reference.loads == report.loads_after_injection
                        && reference.injected == report.injected_total
                        && reference.events == report.topology_events;
                    for path in [Path::Reference, Path::Auto] {
                        let outcome = drive_path(
                            &gp,
                            scheme,
                            sspec,
                            wspec,
                            &initial,
                            rounds,
                            (rounds, path),
                        )?;
                        paths += 1;
                        identical &= outcome == reference;
                    }

                    rows.push(ChurnRow {
                        scheme: scheme.label(),
                        graph: gspec.label(),
                        n,
                        schedule: sspec.label(),
                        workload: wspec
                            .as_ref()
                            .map_or_else(|| "none".into(), WorkloadSpec::label),
                        report,
                        paths,
                        bit_identical: identical,
                        shortfall: schedule
                            .as_deref()
                            .and_then(TopologySchedule::swap_shortfall),
                        validation_ns: schedule
                            .as_deref()
                            .map_or(0, TopologySchedule::validation_nanos),
                    });
                }
            }
        }
    }

    Ok(rows)
}

/// The S2 table: one line per row.
fn render(rows: &[ChurnRow]) -> Table {
    let mut table = Table::new(
        "S2: dynamic-topology churn (steady discrepancy under churn, recovery, cross-path identity)",
        &[
            "scheme",
            "graph",
            "n",
            "schedule",
            "workload",
            "rounds",
            "events",
            "steady max",
            "peak disc",
            "recovery",
            "swap shortfall",
            "validation ms",
            "paths",
            "identical",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.scheme.clone(),
            r.graph.clone(),
            r.n.to_string(),
            r.schedule.clone(),
            r.workload.clone(),
            r.report.rounds.to_string(),
            r.report.topology_events.to_string(),
            r.report.steady_discrepancy_max.to_string(),
            r.report.peak_discrepancy.to_string(),
            r.report
                .recovery_rounds
                .map_or_else(|| "-".into(), |v| v.to_string()),
            r.shortfall.unwrap_or_default().deficit().to_string(),
            format!("{:.3}", r.validation_ns as f64 / 1e6),
            r.paths.to_string(),
            if r.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_rows_are_bit_identical_and_deliver_every_swap() {
        let rows = churn_rows(true).expect("quick sweep runs");

        // 3 graphs × 3 schemes × 6 schedules × 3 workloads.
        assert_eq!(rows.len(), 3 * 3 * 6 * 3);
        assert_eq!(render(&rows).num_rows(), rows.len());
        for r in &rows {
            let tag = format!(
                "{} on {} under {} + {}",
                r.scheme, r.graph, r.schedule, r.workload
            );
            assert!(r.bit_identical && r.paths == 3, "a path diverged: {tag}");
            // Every default schedule delivers its bursts in full.
            assert_eq!(
                r.shortfall.unwrap_or_default().deficit(),
                0,
                "swap shortfall: {tag}"
            );
            // The rewiring rows account their connectivity-validation
            // time.
            if r.schedule.starts_with("rewire(") {
                assert!(r.shortfall.is_some_and(|s| s.requested > 0), "{tag}");
                assert!(r.validation_ns > 0, "no validation time: {tag}");
            }
        }
        for label in ["static", "burst(", "cut-target(/8)"] {
            assert!(
                rows.iter().any(|r| r.schedule.starts_with(label)),
                "{label}"
            );
        }
    }

    #[test]
    fn churn_rows_actually_apply_events_and_conserve() {
        let rows = churn_rows(true).expect("quick sweep runs");
        let mut dynamic_rows = 0usize;
        let mut dynamic_with_events = 0usize;
        for r in &rows {
            assert_eq!(
                r.report.final_total,
                r.n as i64 * TOKENS_PER_NODE + r.report.injected_total,
                "{} on {} under {} + {}",
                r.scheme,
                r.graph,
                r.schedule,
                r.workload
            );
            if r.schedule != "static" {
                dynamic_rows += 1;
                if r.report.topology_events > 0 {
                    dynamic_with_events += 1;
                }
            }
        }
        assert!(dynamic_rows > 0);
        assert!(
            dynamic_with_events * 10 >= dynamic_rows * 9,
            "churn schedules must actually mutate the graph \
             ({dynamic_with_events}/{dynamic_rows} rows with events)"
        );
    }
}
