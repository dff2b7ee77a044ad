//! Theorem 4.1: a round-fair balancer stuck at discrepancy
//! `Ω(d·diam(G))`.
//!
//! The construction (Appendix C.1): pick a BFS root `u`; label every
//! node with `b(v) = dist(v, u)`; put flow
//! `f(v₁, v₂) = min(b(v₁), b(v₂))` on every directed edge. Then
//!
//! * `f(v₁,v₂) = f(v₂,v₁)` — each node receives exactly what it sends,
//!   so the load vector `x(v) = Σ_w f(v, w)` is a **fixed point**;
//! * within a node, flows take values in `{b(v)−1, b(v)}`, so the
//!   assignment is a **round-fair** split of `x(v)` — a legal
//!   trajectory for the class of \[17\];
//! * `x(u) = 0` while the BFS-farthest node `w` has
//!   `x(w) ≥ d·(b(w)−1)`, giving discrepancy `≥ d·(diam(G)−1)`.
//!
//! Since cumulatively fair balancers reach `O(d·√n)` on the same graphs
//! (Theorem 2.3 (ii)), this separates the classes: cumulative fairness
//! cannot be dropped.

use dlb_core::{FlowPlan, LoadVector};
use dlb_graph::traversal::{bfs_distances, eccentricity};
use dlb_graph::{BalancingGraph, GraphError, NodeId, RegularGraph};

use crate::FixedFlowBalancer;

/// A ready-to-run Theorem 4.1 instance.
#[derive(Debug, Clone)]
pub struct Theorem41Instance {
    /// The balancing graph (`G⁺ = G`, no self-loops — the construction
    /// does not need them).
    pub graph: BalancingGraph,
    /// The steady-state initial loads `x(v) = Σ_w min(b(v), b(w))`.
    pub initial: LoadVector,
    /// The frozen round-fair balancer realising the steady flow.
    pub balancer: FixedFlowBalancer,
    /// The BFS root `u` (the load-0 node).
    pub root: NodeId,
    /// The eccentricity of `u` (= the b-value of the farthest node).
    pub radius: u32,
}

impl Theorem41Instance {
    /// The discrepancy this steady state exhibits forever.
    pub fn discrepancy(&self) -> i64 {
        self.initial.discrepancy()
    }

    /// The lower bound `d·(radius − 1)` the theorem guarantees.
    pub fn guaranteed_discrepancy(&self) -> i64 {
        let d = self.graph.degree() as i64;
        d * (self.radius as i64 - 1).max(0)
    }
}

/// Builds the Theorem 4.1 steady state on `graph`, rooted at `root`.
///
/// # Errors
///
/// Returns an error if `root` is out of range or the graph is
/// disconnected (the distance labelling would be undefined).
pub fn instance(graph: RegularGraph, root: NodeId) -> Result<Theorem41Instance, GraphError> {
    let n = graph.num_nodes();
    if root >= n {
        return Err(GraphError::NodeOutOfRange { node: root, n });
    }
    let radius = eccentricity(&graph, root).ok_or_else(|| GraphError::InvalidParameters {
        reason: "theorem 4.1 requires a connected graph".into(),
    })?;
    let b = bfs_distances(&graph, root);

    let gp = BalancingGraph::bare(graph);
    let mut flows = FlowPlan::for_graph(&gp);
    let mut loads = vec![0i64; n];
    for v in 0..n {
        for (p, &w) in gp.graph().neighbors(v).iter().enumerate() {
            let f = u64::from(b[v].min(b[w as usize]));
            flows.set(v, p, f);
            loads[v] += f as i64;
        }
    }
    Ok(Theorem41Instance {
        graph: gp,
        initial: LoadVector::new(loads),
        balancer: FixedFlowBalancer::new(flows),
        root,
        radius,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Engine, Run};
    use dlb_graph::generators;

    fn cycle_instance(n: usize) -> Theorem41Instance {
        instance(generators::cycle(n).unwrap(), 0).unwrap()
    }

    #[test]
    fn loads_are_a_fixed_point() {
        let mut inst = cycle_instance(12);
        let initial = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(50)).unwrap();
        assert_eq!(engine.loads(), &initial, "steady state must not move");
    }

    #[test]
    fn flows_are_round_fair() {
        let mut inst = cycle_instance(14);
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.attach_monitor();
        engine.run(&mut inst.balancer, Run::new(20)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0, "construction must be round-fair");
        assert_eq!(m.floor_violations(), 0);
        assert_eq!(m.overdraw_events(), 0);
    }

    #[test]
    fn construction_is_cumulatively_unfair() {
        // The point of the theorem: the frozen flow favours the
        // heavier edge forever, so the ledger spread grows linearly.
        let mut inst = cycle_instance(14);
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.attach_monitor();
        engine.run(&mut inst.balancer, Run::new(100)).unwrap();
        assert!(
            engine.monitor().unwrap().ledger().original_edge_spread() >= 90,
            "spread {} should grow ~t",
            engine.monitor().unwrap().ledger().original_edge_spread()
        );
    }

    #[test]
    fn discrepancy_meets_guarantee_on_cycles() {
        for n in [8usize, 16, 32, 64] {
            let inst = cycle_instance(n);
            assert_eq!(inst.radius, (n / 2) as u32);
            assert!(
                inst.discrepancy() >= inst.guaranteed_discrepancy(),
                "n = {n}: discrepancy {} < guarantee {}",
                inst.discrepancy(),
                inst.guaranteed_discrepancy()
            );
            // Root holds nothing; someone holds ~d·diam.
            assert_eq!(inst.initial.get(0), 0);
        }
    }

    #[test]
    fn works_on_higher_degree_graphs() {
        let g = generators::circulant(24, &[1, 2]).unwrap();
        let mut inst = instance(g, 3).unwrap();
        let initial = inst.initial.clone();
        assert!(inst.discrepancy() >= inst.guaranteed_discrepancy());
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.attach_monitor();
        engine.run(&mut inst.balancer, Run::new(30)).unwrap();
        assert_eq!(engine.loads(), &initial);
        assert_eq!(engine.monitor().unwrap().round_violations(), 0);
    }

    #[test]
    fn rejects_bad_root() {
        assert!(instance(generators::cycle(6).unwrap(), 6).is_err());
    }

    #[test]
    fn hypercube_instance_is_valid() {
        let mut inst = instance(generators::hypercube(4).unwrap(), 0).unwrap();
        assert_eq!(inst.radius, 4);
        let initial = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(10)).unwrap();
        assert_eq!(engine.loads(), &initial);
    }
}
