use dlb_core::{Engine, EngineError, LoadVector};
use dlb_graph::{BalancingGraph, GraphError};
use dlb_spectral::{BalancingHorizon, SpectralGap};

use crate::suite::{GraphSpec, SchemeSpec};

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Graph label.
    pub graph: String,
    /// Steps executed.
    pub steps: usize,
    /// Final discrepancy `max − min`.
    pub final_discrepancy: i64,
    /// Final `‖x − x̄‖_∞`.
    pub max_deviation: f64,
    /// Node-steps that ended negative (only overdrawing baselines).
    pub negative_node_steps: u64,
    /// The cumulative-fairness δ witnessed by the ledger.
    pub witnessed_delta: u64,
    /// Round-fairness violations counted by the monitor.
    pub round_violations: u64,
    /// The self-preference `s` witnessed by the monitor (`None` =
    /// unconstrained).
    pub witnessed_s: Option<u64>,
    /// Sampled `(step, discrepancy)` series (empty when sampling is
    /// off).
    pub series: Vec<(usize, i64)>,
    /// First step at which the target discrepancy was reached, if a
    /// target run was requested.
    pub time_to_target: Option<usize>,
}

/// Errors from experiment runs: either the instance could not be built
/// or the engine rejected a round.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// Graph or scheme construction failed.
    Graph(GraphError),
    /// The engine rejected a step.
    Engine(EngineError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Graph(e) => write!(f, "instance construction failed: {e}"),
            RunError::Engine(e) => write!(f, "engine rejected a step: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Graph(e) => Some(e),
            RunError::Engine(e) => Some(e),
        }
    }
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        RunError::Engine(e)
    }
}

/// Drives schemes through instrumented engine runs.
///
/// A `Runner` bundles the experiment-wide knobs: the horizon multiplier
/// (how many multiples of `T = ln(Kn)/µ` to run) and the sampling
/// cadence for discrepancy time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Runner {
    /// Multiples of the balancing horizon `T` to run (default 4).
    pub horizon_multiplier: f64,
    /// Sample the discrepancy every this many steps into
    /// [`RunOutcome::series`] (0 disables sampling).
    pub sample_every: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            horizon_multiplier: 4.0,
            sample_every: 0,
        }
    }
}

impl Runner {
    /// The number of steps `⌈multiplier · ln(Kn)/µ⌉` for a graph spec
    /// with `d°` self-loops and initial discrepancy `k`.
    ///
    /// # Errors
    ///
    /// Propagates `λ₂` computation errors.
    pub fn horizon_steps(
        &self,
        spec: &GraphSpec,
        d_self: usize,
        n: usize,
        k: u64,
    ) -> Result<usize, RunError> {
        let gap = SpectralGap::from_lambda2(spec.lambda2(d_self)?);
        Ok(BalancingHorizon::new(gap, n, k).steps(self.horizon_multiplier))
    }

    /// Runs `scheme` on `gp` from `initial` for exactly `steps` steps.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the scheme cannot be built for `gp` or
    /// the engine rejects a round.
    pub fn run_for(
        &self,
        gp: &BalancingGraph,
        scheme: &SchemeSpec,
        initial: &LoadVector,
        steps: usize,
    ) -> Result<RunOutcome, RunError> {
        self.run_inner(gp, scheme, initial, steps, None)
    }

    /// Runs until the discrepancy drops to `target` or `max_steps`
    /// elapse; [`RunOutcome::time_to_target`] reports which.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the scheme cannot be built for `gp` or
    /// the engine rejects a round.
    pub fn run_to_discrepancy(
        &self,
        gp: &BalancingGraph,
        scheme: &SchemeSpec,
        initial: &LoadVector,
        target: i64,
        max_steps: usize,
    ) -> Result<RunOutcome, RunError> {
        self.run_inner(gp, scheme, initial, max_steps, Some(target))
    }

    fn run_inner(
        &self,
        gp: &BalancingGraph,
        scheme: &SchemeSpec,
        initial: &LoadVector,
        steps: usize,
        target: Option<i64>,
    ) -> Result<RunOutcome, RunError> {
        let mut balancer = scheme.build(gp)?;
        let mut engine = Engine::new(gp.clone(), initial.clone());
        engine.attach_monitor();
        let mut series = Vec::new();
        let mut time_to_target = None;
        for _ in 0..steps {
            let summary = engine.step(balancer.as_mut())?;
            if self.sample_every > 0 && summary.step % self.sample_every == 0 {
                series.push((summary.step, summary.discrepancy));
            }
            if let Some(t) = target {
                if summary.discrepancy <= t {
                    time_to_target = Some(summary.step);
                    break;
                }
            }
        }
        let monitor = engine.monitor().expect("monitor attached");
        Ok(RunOutcome {
            scheme: scheme.label(),
            graph: String::new(),
            steps: engine.step_count(),
            final_discrepancy: engine.loads().discrepancy(),
            max_deviation: engine.loads().max_deviation(),
            negative_node_steps: engine.negative_node_steps(),
            witnessed_delta: monitor.ledger().original_edge_spread(),
            round_violations: monitor.round_violations(),
            witnessed_s: monitor.witnessed_s(),
            series,
            time_to_target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn run_for_reports_metrics() {
        let gp = lazy_cycle(16);
        let runner = Runner {
            sample_every: 50,
            ..Runner::default()
        };
        let out = runner
            .run_for(
                &gp,
                &SchemeSpec::RotorRouter,
                &init::point_mass(16, 1600),
                300,
            )
            .unwrap();
        assert_eq!(out.steps, 300);
        assert!(out.final_discrepancy < 1600);
        assert_eq!(out.series.len(), 6);
        assert!(out.witnessed_delta <= 1);
        assert_eq!(out.round_violations, 0);
        assert_eq!(out.negative_node_steps, 0);
    }

    #[test]
    fn run_to_discrepancy_stops_early() {
        let gp = lazy_cycle(16);
        let runner = Runner::default();
        let out = runner
            .run_to_discrepancy(
                &gp,
                &SchemeSpec::RotorRouter,
                &init::point_mass(16, 1600),
                20,
                100_000,
            )
            .unwrap();
        let hit = out.time_to_target.expect("must reach 20");
        assert_eq!(out.steps, hit);
        assert!(out.final_discrepancy <= 20);
    }

    #[test]
    fn run_to_discrepancy_times_out_cleanly() {
        let gp = lazy_cycle(16);
        let runner = Runner::default();
        let out = runner
            .run_to_discrepancy(
                &gp,
                &SchemeSpec::SendFloor,
                &init::point_mass(16, 16),
                -1, // unreachable
                50,
            )
            .unwrap();
        assert_eq!(out.time_to_target, None);
        assert_eq!(out.steps, 50);
    }

    #[test]
    fn horizon_steps_are_reasonable() {
        let runner = Runner::default();
        let spec = GraphSpec::Cycle { n: 32 };
        let t = runner.horizon_steps(&spec, 2, 32, 1000).unwrap();
        // µ(C_32, lazy) ≈ 9.6e-3; 4·ln(32000)/µ ≈ 4300.
        assert!(t > 1000 && t < 20_000, "t = {t}");
    }

    #[test]
    fn infeasible_scheme_is_a_clean_error() {
        let gp = BalancingGraph::bare(generators::cycle(8).unwrap());
        let runner = Runner::default();
        let err = runner
            .run_for(&gp, &SchemeSpec::SendRound, &init::point_mass(8, 80), 10)
            .unwrap_err();
        assert!(matches!(err, RunError::Graph(_)));
        assert!(err.to_string().contains("construction"));
    }
}
