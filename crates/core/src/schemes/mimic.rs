use dlb_graph::BalancingGraph;
use dlb_spectral::TransitionOperator;

use crate::{Balancer, FlowPlan, LoadVector};

/// The continuous-mimicking scheme of Akbari, Berenbrink and
/// Sauerwald \[4\].
///
/// The algorithm simulates the **continuous** diffusion process
/// alongside the discrete one. For every original edge it tracks the
/// cumulative continuous flow `C_t(e) = Σ_{τ≤t} y_τ(u)/d⁺` (where `y`
/// is the continuous load vector), and each step sends however many
/// tokens bring the cumulative *discrete* flow to `round(C_t(e))` —
/// keeping the two processes within ½ token per edge for all time.
/// This yields `Θ(d)` discrepancy after `T` steps on any graph (Table 1
/// row 4).
///
/// The costs, as the paper emphasises (§1.2), are that the scheme
/// (a) must compute the continuous process — extra state and, in a real
/// deployment, communication ("NC" ✗) — and (b) **may overdraw**: early
/// on, a node can owe more than it holds, creating negative load. Both
/// behaviours are reproduced faithfully; the engine counts the negative
/// node-steps.
#[derive(Debug, Clone)]
pub struct ContinuousMimic {
    /// Continuous loads `y_t` (the simulated reference process).
    continuous: Vec<f64>,
    scratch: Vec<f64>,
    /// Cumulative continuous flow per (node, original port).
    cumulative_continuous: Vec<f64>,
    /// Cumulative discrete tokens sent per (node, original port).
    cumulative_discrete: Vec<u64>,
    d: usize,
    initialized: bool,
}

impl ContinuousMimic {
    /// Creates the scheme for `gp`. The internal continuous process is
    /// initialised from the first load vector passed to
    /// [`Balancer::plan`].
    pub fn new(gp: &BalancingGraph) -> Self {
        let n = gp.num_nodes();
        let d = gp.degree();
        ContinuousMimic {
            continuous: vec![0.0; n],
            scratch: vec![0.0; n],
            cumulative_continuous: vec![0.0; n * d],
            cumulative_discrete: vec![0; n * d],
            d,
            initialized: false,
        }
    }

    /// The internally simulated continuous loads `y_t`.
    pub fn continuous_loads(&self) -> &[f64] {
        &self.continuous
    }
}

/// Round half away from zero, matching `[·]` of the paper.
fn round_nearest(x: f64) -> i64 {
    x.round() as i64
}

impl Balancer for ContinuousMimic {
    fn name(&self) -> &'static str {
        "continuous-mimic"
    }

    fn may_overdraw(&self) -> bool {
        true
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        let n = gp.num_nodes();
        let d = self.d;
        let d_plus = gp.degree_plus() as f64;
        if !self.initialized {
            for (y, &x) in self.continuous.iter_mut().zip(loads.as_slice()) {
                *y = x as f64;
            }
            self.initialized = true;
        }
        // Advance cumulative continuous flows with this step's
        // continuous sends, then decide the discrete quota per edge.
        for u in 0..n {
            let per_edge = self.continuous[u] / d_plus;
            for p in 0..d {
                let idx = u * d + p;
                self.cumulative_continuous[idx] += per_edge;
                let target = round_nearest(self.cumulative_continuous[idx]);
                let sent = self.cumulative_discrete[idx] as i64;
                // C is non-decreasing (y ≥ 0 under diffusion from
                // non-negative start), so target ≥ sent.
                let tokens = (target - sent).max(0) as u64;
                plan.set(u, p, tokens);
                self.cumulative_discrete[idx] += tokens;
            }
        }
        // Step the continuous reference: y ← P·y.
        let op = TransitionOperator::new(gp);
        op.apply(&self.continuous, &mut self.scratch);
        std::mem::swap(&mut self.continuous, &mut self.scratch);
    }

    fn reset(&mut self) {
        self.continuous.fill(0.0);
        self.cumulative_continuous.fill(0.0);
        self.cumulative_discrete.fill(0);
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Run};
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn discrete_flow_tracks_continuous_within_half() {
        let gp = lazy_cycle(8);
        let mut bal = ContinuousMimic::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 797));
        engine.run(&mut bal, Run::new(300)).unwrap();
        for idx in 0..bal.cumulative_continuous.len() {
            let gap = (bal.cumulative_continuous[idx] - bal.cumulative_discrete[idx] as f64).abs();
            assert!(gap <= 0.5 + 1e-9, "edge {idx} drifted by {gap}");
        }
    }

    #[test]
    fn reaches_theta_d_discrepancy_fast() {
        // [4]: discrepancy ≤ 2d after T on any graph. Cycle: d = 2.
        let gp = lazy_cycle(32);
        let mut bal = ContinuousMimic::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(32, 3200));
        // T for the 32-cycle with K = 3200 at µ ≈ 9.6e-3 is ≈ 1200.
        engine.run(&mut bal, Run::new(2500)).unwrap();
        assert!(
            engine.loads().discrepancy() <= 2 * 2 + 1,
            "discrepancy {} exceeds 2d",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn conserves_tokens_despite_overdraw() {
        let gp = lazy_cycle(8);
        let mut bal = ContinuousMimic::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 101));
        engine.run(&mut bal, Run::new(100)).unwrap();
        assert_eq!(engine.loads().total(), 101);
    }

    #[test]
    fn overdraw_capability_declared_and_exercised() {
        let gp = lazy_cycle(8);
        let bal = ContinuousMimic::new(&gp);
        assert!(bal.may_overdraw());
        // A tiny initial load next to a huge one forces early overdraw
        // somewhere: the continuous process demands flow the discrete
        // nodes don't have yet.
        let gp = lazy_cycle(8);
        let mut bal = ContinuousMimic::new(&gp);
        let mut loads = vec![0i64; 8];
        loads[0] = 10_000;
        let mut engine = Engine::new(gp, LoadVector::new(loads));
        engine.run(&mut bal, Run::new(50)).unwrap();
        // Not asserting negativity occurred (depends on rounding), but
        // the run must complete and conserve.
        assert_eq!(engine.loads().total(), 10_000);
    }

    #[test]
    fn continuous_reference_converges() {
        let gp = lazy_cycle(8);
        let mut bal = ContinuousMimic::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 800));
        engine.run(&mut bal, Run::new(2000)).unwrap();
        for &y in bal.continuous_loads() {
            assert!((y - 100.0).abs() < 1.0, "continuous load {y} not near mean");
        }
    }

    #[test]
    fn reset_reinitialises_from_next_plan() {
        let gp = lazy_cycle(4);
        let mut bal = ContinuousMimic::new(&gp);
        let loads = LoadVector::uniform(4, 8);
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        bal.reset();
        assert!(!bal.initialized);
        plan.clear();
        let fresh = LoadVector::uniform(4, 4);
        bal.plan(&gp, &fresh, &mut plan);
        // Continuous state was re-seeded from the fresh loads, then
        // advanced one diffusion step; uniform stays uniform.
        assert!(bal
            .continuous_loads()
            .iter()
            .all(|&y| (y - 4.0).abs() < 1e-12));
    }

    #[test]
    fn round_nearest_half_behaviour() {
        assert_eq!(round_nearest(2.5), 3);
        assert_eq!(round_nearest(2.4999), 2);
        assert_eq!(round_nearest(-0.5), -1);
        assert_eq!(round_nearest(0.0), 0);
    }
}
