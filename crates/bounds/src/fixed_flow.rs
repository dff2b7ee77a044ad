use dlb_core::{Balancer, FlowPlan, LoadVector};
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
    flows: FlowPlan,
}

impl FixedFlowBalancer {
    /// Wraps a fixed flow assignment.
    pub fn new(flows: FlowPlan) -> Self {
        FixedFlowBalancer { flows }
    }

    /// The fixed per-step flows.
    pub fn flows(&self) -> &FlowPlan {
        &self.flows
    }
}

impl Balancer for FixedFlowBalancer {
    fn name(&self) -> &'static str {
        "fixed-flow"
    }

    fn plan(&mut self, gp: &BalancingGraph, _loads: &LoadVector, plan: &mut FlowPlan) {
        debug_assert_eq!(plan.num_nodes(), self.flows.num_nodes());
        for u in 0..gp.num_nodes() {
            plan.node_mut(u).copy_from_slice(self.flows.node(u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Engine, Run};
    use dlb_graph::generators;

    #[test]
    fn replays_the_same_plan_every_step() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        let mut flows = FlowPlan::for_graph(&gp);
        for u in 0..4 {
            flows.set(u, 0, 2);
            flows.set(u, 1, 2);
        }
        let mut bal = FixedFlowBalancer::new(flows);
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
        let mut flows = FlowPlan::for_graph(&gp);
        flows.set(0, 0, 100);
        let mut bal = FixedFlowBalancer::new(flows);
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 4));
        assert!(engine.step(&mut bal).is_err());
    }
}
