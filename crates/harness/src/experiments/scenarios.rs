//! S1 — dynamic-workload scenarios across the engine's execution paths.
//!
//! The paper's bounds are closed-system; this experiment measures the
//! **open** system: every workload generator of `dlb-scenario` (steady
//! arrivals, bursts, hotspot floods, sink drains, the bounded
//! adversary, and the arrivals+drain flow-equilibrium composite) is
//! composed with scheme × graph, and each composition reports
//!
//! * the **steady-state discrepancy** over the injection tail (the
//!   quantity dynamic-network results bound in place of the paper's
//!   fixed-load discrepancy),
//! * the **peak load** and **peak discrepancy** (worst transient),
//! * the **recovery time**: closed-system rounds from the end of
//!   injection until the discrepancy first reaches `2 d⁺`
//!   (`-` when the round budget runs out first — reported honestly,
//!   the cycle at full size legitimately needs more rounds than the
//!   budget), and
//! * a **bit-identity** verdict: the same `rounds` of injection are
//!   replayed one reference round at a time (the scenario's own run),
//!   in one [`Path::Reference`] run and in one [`Path::Auto`] run (the
//!   kernel rounds), each with a freshly built — hence stream-identical
//!   — workload, and every path must reproduce the reference loads and
//!   injected totals exactly. The reference round and the kernel rounds
//!   call the same per-node rule, so the verdict checks the round
//!   bodies around it: the closed-form stream and the flow buffer
//!   against the reference round's node-by-node routing.
//!
//! The rows render as a text table (and as CSV under `--csv`).

use dlb_core::{Engine, LoadVector, Path, Run};
use dlb_graph::BalancingGraph;
use dlb_scenario::{Scenario, ScenarioReport, WorkloadSpec};

use crate::report::Table;
use crate::runner::RunError;
use crate::suite::{GraphSpec, SchemeSpec};

/// Initial tokens per node: uniform, so every signal in the record is
/// the workload's doing, not the seed distribution's.
const TOKENS_PER_NODE: i64 = 32;

struct ScenarioRow {
    scheme: String,
    graph: String,
    n: usize,
    workload: String,
    report: ScenarioReport,
    paths: usize,
    bit_identical: bool,
}

/// The workload axis of the sweep. Rates scale with `n` so the
/// injection pressure per node is comparable across sizes.
fn workload_specs(n: usize) -> Vec<WorkloadSpec> {
    let rate = (n as u64 / 8).max(4);
    vec![
        WorkloadSpec::Steady { rate, seed: 11 },
        WorkloadSpec::Bursty {
            on: 8,
            off: 24,
            rate: 2 * rate,
            seed: 12,
        },
        WorkloadSpec::Hotspot { rate },
        WorkloadSpec::Drain { rate: 2 },
        WorkloadSpec::Adversary { budget: rate },
        WorkloadSpec::ArriveAndDrain { rate, seed: 13 },
    ]
}

/// Replays `rounds` of injection in one [`Engine::run`] call on
/// `path`, returning the final loads and the engine's net injected
/// total. Every call builds a fresh scheme and workload from the
/// specs, so every path sees the identical delta stream the scenario's
/// per-round run saw (the scenario itself provides the reference).
fn run_path(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    spec: &WorkloadSpec,
    initial: &LoadVector,
    rounds: usize,
    path: Path,
) -> Result<(LoadVector, i64), RunError> {
    let mut workload = spec.build(gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let run = Run {
        workload: Some(workload.as_mut()),
        path,
        ..Run::new(rounds)
    };
    engine.run(scheme.build(gp)?.as_mut(), run)?;
    Ok((engine.loads().clone(), engine.injected_total()))
}

/// Runs the scenario sweep.
///
/// # Errors
///
/// Propagates instance-construction and engine errors (the sweep's
/// workloads are the clamped, error-free configurations).
pub fn scenarios(quick: bool) -> Result<Table, RunError> {
    Ok(render(&scenario_rows(quick)?))
}

/// One row per scheme × graph × workload composition.
fn scenario_rows(quick: bool) -> Result<Vec<ScenarioRow>, RunError> {
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

    let mut rows: Vec<ScenarioRow> = Vec::new();
    for gspec in &graphs {
        let gp = BalancingGraph::lazy(gspec.build()?);
        let n = gp.num_nodes();
        let initial = LoadVector::uniform(n, TOKENS_PER_NODE);
        let mut scenario = Scenario::new(rounds, &gp);
        scenario.recovery_max_rounds = if quick { 4_000 } else { 16_000 };

        for scheme in &schemes {
            for wspec in &workload_specs(n) {
                let mut bal = scheme.build(&gp)?;
                let mut workload = wspec.build(n);
                let report = scenario.run(&gp, &initial, bal.as_mut(), workload.as_mut())?;

                // Cross-path bit-identity under this workload. The
                // scenario's own injection phase *is* the per-round
                // reference run (a fresh build of the same spec replays
                // the identical delta stream), so its end-of-injection
                // state is the reference — no second per-round replay.
                let ref_loads = report.loads_after_injection.clone();
                let ref_injected = report.injected_total;
                let mut paths = 1usize;
                let mut identical = true;
                let mut check = |outcome: (LoadVector, i64)| {
                    paths += 1;
                    identical &= outcome.0 == ref_loads && outcome.1 == ref_injected;
                };
                check(run_path(
                    &gp,
                    scheme,
                    wspec,
                    &initial,
                    rounds,
                    Path::Reference,
                )?);
                check(run_path(&gp, scheme, wspec, &initial, rounds, Path::Auto)?);

                rows.push(ScenarioRow {
                    scheme: scheme.label(),
                    graph: gspec.label(),
                    n,
                    workload: wspec.label(),
                    report,
                    paths,
                    bit_identical: identical,
                });
            }
        }
    }

    Ok(rows)
}

/// The S1 table: one line per row.
fn render(rows: &[ScenarioRow]) -> Table {
    let mut table = Table::new(
        "S1: dynamic-workload scenarios (steady-state discrepancy, recovery, cross-path identity)",
        &[
            "scheme",
            "graph",
            "n",
            "workload",
            "rounds",
            "steady max",
            "steady mean",
            "peak load",
            "recovery",
            "injected",
            "paths",
            "identical",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.scheme.clone(),
            r.graph.clone(),
            r.n.to_string(),
            r.workload.clone(),
            r.report.rounds.to_string(),
            r.report.steady_discrepancy_max.to_string(),
            format!("{:.1}", r.report.steady_discrepancy_mean),
            r.report.peak_load.to_string(),
            r.report
                .recovery_rounds
                .map_or_else(|| "-".into(), |v| v.to_string()),
            r.report.injected_total.to_string(),
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
    fn quick_rows_are_bit_identical_and_cover_every_workload() {
        let rows = scenario_rows(true).expect("quick sweep runs");

        // 3 graphs × 3 schemes × 6 workloads.
        assert_eq!(rows.len(), 3 * 3 * 6);
        assert_eq!(render(&rows).num_rows(), rows.len());
        for r in &rows {
            assert!(
                r.bit_identical && r.paths == 3,
                "a path diverged under injection: {} on {} under {}",
                r.scheme,
                r.graph,
                r.workload
            );
        }
        let has = |label: &str| rows.iter().any(|r| r.workload.starts_with(label));
        assert!(has("steady(+8)"));
        assert!(has("adversary(B=8)"));
        // The composed workload (arrivals plus a drain) sits inside the
        // bit-identity check above.
        assert!(has("arrive+drain"));
        assert!(rows.iter().any(|r| r.report.recovery_rounds.is_some()));
    }

    #[test]
    fn conservation_holds_on_every_row() {
        for r in &scenario_rows(true).expect("quick sweep runs") {
            assert_eq!(
                r.report.final_total,
                r.n as i64 * TOKENS_PER_NODE + r.report.injected_total,
                "{} on {} under {}",
                r.scheme,
                r.graph,
                r.workload
            );
        }
    }
}
