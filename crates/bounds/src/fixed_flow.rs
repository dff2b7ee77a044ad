use dlb_core::{Balancer, KernelBalancer, KernelRounds};
use dlb_graph::BalancingGraph;

/// A balancer that sends the *same* flow assignment every step.
///
/// This is the demonstration device behind Theorem 4.1: a steady-state
/// flow `f` with `f(u,v) = f(v,u)` makes the load vector a fixed point
/// of the dynamics (`f₀(e) = f₁(e) = …`), and if `f` is also a
/// round-fair split of each node's load, the frozen state is a legal
/// trajectory of a round-fair balancer — one with terrible discrepancy.
///
/// The constructor does not check symmetry or feasibility; the
/// instance builders in [`thm41`](crate::thm41) do, and the engine
/// rejects overdraws at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedFlowBalancer {
    d_plus: usize,
    flows: Vec<u64>,
}

impl FixedFlowBalancer {
    /// Wraps a fixed flow assignment for `gp`: node `u` sends
    /// `flows[u·d⁺ + p]` tokens through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `flows` does not hold `n·d⁺` entries.
    pub fn new(gp: &BalancingGraph, flows: Vec<u64>) -> Self {
        let d_plus = gp.degree_plus();
        assert_eq!(
            flows.len(),
            gp.num_nodes() * d_plus,
            "fixed flows must hold n·d⁺ entries"
        );
        FixedFlowBalancer { d_plus, flows }
    }

    /// The fixed per-step flows of node `u`, indexed by port.
    pub fn flows(&self, u: usize) -> &[u64] {
        &self.flows[u * self.d_plus..(u + 1) * self.d_plus]
    }
}

impl Balancer for FixedFlowBalancer {
    fn name(&self) -> &'static str {
        "fixed-flow"
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

impl KernelBalancer for FixedFlowBalancer {
    fn kernel_node(&mut self, _gp: &BalancingGraph, u: usize, _load: i64, flows: &mut [u64]) {
        flows.copy_from_slice(self.flows(u));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Engine, EngineError, LoadVector, Path, Run};
    use dlb_graph::generators;

    /// Two tokens over each port of every node of a bare 4-cycle.
    fn two_per_port(gp: &BalancingGraph) -> Vec<u64> {
        vec![2; gp.num_nodes() * gp.degree_plus()]
    }

    #[test]
    fn replays_the_same_plan_every_step() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        let mut bal = FixedFlowBalancer::new(&gp, two_per_port(&gp));
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 4));
        engine.attach_monitor();
        engine.run(&mut bal, Run::new(10)).unwrap();
        // Symmetric constant flow: fixed point.
        assert_eq!(engine.loads(), &LoadVector::uniform(4, 4));
        assert_eq!(engine.monitor().unwrap().ledger().get(0, 0), 20);
    }

    #[test]
    fn engine_rejects_infeasible_fixed_flow() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        let mut flows = vec![0; 8];
        flows[0] = 100;
        let mut bal = FixedFlowBalancer::new(&gp, flows);
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 4));
        assert!(engine.step(&mut bal).is_err());
    }

    /// A row that sends from an empty node is an `Overdraw` on both
    /// paths: every node's rule runs, whatever its load.
    #[test]
    fn sending_from_an_empty_node_overdraws_on_both_paths() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        let mut flows = vec![0; 8];
        flows[2 * 2 + 1] = 1;
        let expected = EngineError::Overdraw {
            node: 2,
            load: 0,
            planned: 1,
            step: 1,
        };
        for path in [Path::Auto, Path::Reference] {
            let mut bal = FixedFlowBalancer::new(&gp, flows.clone());
            let initial = LoadVector::new(vec![3, 3, 0, 3]);
            let mut engine = Engine::new(gp.clone(), initial.clone());
            let run = Run {
                path,
                ..Run::new(3)
            };
            assert_eq!(engine.run(&mut bal, run), Err(expected.clone()), "{path:?}");
            assert_eq!(engine.loads(), &initial, "{path:?}");
            assert_eq!(engine.step_count(), 0, "{path:?}");
        }
    }
}
