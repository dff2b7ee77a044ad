//! Theorem 4.3: the rotor-router without self-loops is stuck at
//! discrepancy `Ω(d·φ(G))` on non-bipartite graphs.
//!
//! The construction (Appendix C.3) builds a **2-periodic orbit** of the
//! rotor-router on `G⁺ = G` (no self-loops): pick an apex `u` on a
//! shortest odd cycle; label nodes with `b(v) = dist(v, u)`; place on
//! every directed edge the flow
//!
//! ```text
//! f₀(v₁,v₂) = L                      if b(v₁) ≥ φ and b(v₂) ≥ φ,
//!             L + (φ − min(b₁,b₂))   if b(v₁) even (and b(v₂) odd),
//!             L − (φ − min(b₁,b₂))   if b(v₁) odd (and b(v₂) even),
//! ```
//!
//! and set `x₀(v) = Σ_w f₀(v, w)`, `f₁(v₁,v₂) = f₀(v₂,v₁)` (states
//! alternate). Within each node the flows take exactly two adjacent
//! values, so a rotor order putting the `+1` ports first realises the
//! orbit; the apex then oscillates between loads `(L+φ)·d` and
//! `(L−φ)·d` while the average stays `L·d` — discrepancy `Ω(d·φ(G))`
//! forever. (See the crate docs for why the first rule reads **and**
//! rather than the paper's "or".)
//!
//! Adding `d° ≥ d` self-loops to the *same* graph breaks the orbit and
//! the rotor-router balances — this is experiment E7's contrast run,
//! and the reason the paper's positive results all assume self-loops.

use dlb_core::schemes::RotorRouter;
use dlb_core::LoadVector;
use dlb_graph::properties::odd_girth_radius;
use dlb_graph::traversal::bfs_distances;
use dlb_graph::{BalancingGraph, GraphError, NodeId, PortOrder, RegularGraph};

/// A ready-to-run Theorem 4.3 instance.
#[derive(Debug, Clone)]
pub struct Theorem43Instance {
    /// The bare balancing graph (`G⁺ = G`, no self-loops).
    pub graph: BalancingGraph,
    /// The 2-periodic initial loads `x₀`.
    pub initial: LoadVector,
    /// The rotor-router with the adversarial port order and rotor
    /// positions realising the orbit.
    pub balancer: RotorRouter,
    /// The apex node `u`.
    pub apex: NodeId,
    /// The odd-girth radius `φ(G)`.
    pub phi: u32,
    /// The base flow level `L`.
    pub level: i64,
}

impl Theorem43Instance {
    /// The discrepancy of the orbit's initial state.
    pub fn discrepancy(&self) -> i64 {
        self.initial.discrepancy()
    }

    /// The `Ω(d·φ)` figure of merit: `d·φ(G)`.
    pub fn guaranteed_discrepancy(&self) -> i64 {
        self.graph.degree() as i64 * self.phi as i64
    }
}

/// Builds the Theorem 4.3 orbit on `graph`, anchored at `apex`, with
/// base flow level `L = level`.
///
/// The apex must lie on a shortest odd cycle for the distance labelling
/// to have the property the construction needs (adjacent nodes share a
/// `b`-value only at level ≥ φ). [`instance_on_cycle`] picks the apex
/// for you on odd cycles; for other graphs, try candidate apexes — the
/// builder verifies the property and reports failure cleanly.
///
/// # Errors
///
/// Returns an error if the graph is bipartite, `level < φ` (flows
/// would go negative), the apex is out of range, or the labelling
/// property fails at this apex.
pub fn instance(
    graph: RegularGraph,
    apex: NodeId,
    level: i64,
) -> Result<Theorem43Instance, GraphError> {
    let n = graph.num_nodes();
    if apex >= n {
        return Err(GraphError::NodeOutOfRange { node: apex, n });
    }
    let phi = odd_girth_radius(&graph).ok_or_else(|| GraphError::InvalidParameters {
        reason: "theorem 4.3 requires a non-bipartite graph".into(),
    })?;
    if level < phi as i64 {
        return Err(GraphError::InvalidParameters {
            reason: format!("level L = {level} must be at least φ = {phi}"),
        });
    }
    let b = bfs_distances(&graph, apex);
    // Verify the structural property: adjacent equal levels only at ≥ φ.
    for (v, _, w) in graph.directed_edges() {
        if b[v] == b[w] && b[v] < phi {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "apex {apex} sees adjacent nodes {v}, {w} at equal level {} < φ = {phi}; \
                     pick an apex on a shortest odd cycle",
                    b[v]
                ),
            });
        }
    }

    let flow = |v: NodeId, w: NodeId| -> i64 {
        let (bv, bw) = (b[v], b[w]);
        if bv >= phi && bw >= phi {
            level
        } else if bv % 2 == 0 {
            level + (phi - bv.min(bw)) as i64
        } else {
            level - (phi - bv.min(bw)) as i64
        }
    };

    let d = graph.degree();
    let mut loads = vec![0i64; n];
    let mut orders: Vec<Vec<u16>> = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // v indexes loads, orders and the flow closure
    for v in 0..n {
        let flows: Vec<i64> = graph
            .neighbors(v)
            .iter()
            .map(|&w| flow(v, w as usize))
            .collect();
        let max = *flows.iter().max().expect("d >= 1");
        let min = *flows.iter().min().expect("d >= 1");
        if max - min > 1 {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "node {v} would need flows spreading {min}..{max}; \
                     the rotor-router cannot realise a spread above 1"
                ),
            });
        }
        loads[v] = flows.iter().sum();
        // Adversarial port order: ports carrying the larger flow first
        // (the proof's P1 ∪ P2 partition), so a rotor at position 0
        // hands the surplus to exactly the P1 ports.
        let mut order: Vec<u16> = (0..d as u16).collect();
        order.sort_by_key(|&p| (flows[p as usize] != max, p));
        orders.push(order);
    }

    let gp = BalancingGraph::bare(graph);
    let balancer = RotorRouter::with_initial_rotors(&gp, PortOrder::PerNode(orders), vec![0; n])?;
    Ok(Theorem43Instance {
        graph: gp,
        initial: LoadVector::new(loads),
        balancer,
        apex,
        phi,
        level,
    })
}

/// Builds the orbit on the odd cycle `C_n` with the canonical apex 0
/// and the smallest valid level `L = φ = (n−1)/2`.
///
/// # Errors
///
/// Returns an error if `n` is even or `n < 3`.
pub fn instance_on_cycle(n: usize) -> Result<Theorem43Instance, GraphError> {
    if n.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("theorem 4.3 cycle instance needs odd n, got {n}"),
        });
    }
    let graph = dlb_graph::generators::cycle(n)?;
    let phi = ((n - 1) / 2) as i64;
    instance(graph, 0, phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Engine, Run};
    use dlb_graph::generators;

    #[test]
    fn cycle_orbit_is_two_periodic() {
        for n in [5usize, 9, 15, 33] {
            let mut inst = instance_on_cycle(n).unwrap();
            let x0 = inst.initial.clone();
            let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
            engine.step(&mut inst.balancer).unwrap();
            let x1 = engine.loads().clone();
            assert_ne!(x1, x0, "n = {n}: states must alternate");
            engine.step(&mut inst.balancer).unwrap();
            assert_eq!(engine.loads(), &x0, "n = {n}: period-2 orbit");
            engine.step(&mut inst.balancer).unwrap();
            assert_eq!(engine.loads(), &x1, "n = {n}: period-2 orbit (odd)");
        }
    }

    #[test]
    fn orbit_survives_long_runs() {
        let mut inst = instance_on_cycle(17).unwrap();
        let x0 = inst.initial.clone();
        let disc = inst.discrepancy();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(1000)).unwrap();
        assert_eq!(engine.loads(), &x0);
        assert_eq!(engine.loads().discrepancy(), disc);
    }

    #[test]
    fn cycle_discrepancy_is_four_phi_minus_one() {
        for n in [9usize, 17, 33] {
            let inst = instance_on_cycle(n).unwrap();
            let phi = ((n - 1) / 2) as i64;
            // Apex at 2(L+φ) = 4φ, minimum at 2L − (2φ − 1) = 1.
            assert_eq!(inst.discrepancy(), 4 * phi - 1, "n = {n}");
            assert!(inst.discrepancy() >= inst.guaranteed_discrepancy());
        }
    }

    #[test]
    fn apex_oscillates_between_extremes() {
        let mut inst = instance_on_cycle(9).unwrap();
        let phi = 4i64;
        let level = inst.level;
        assert_eq!(inst.initial.get(0), 2 * (level + phi));
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.step(&mut inst.balancer).unwrap();
        assert_eq!(engine.loads().get(0), 2 * (level - phi));
    }

    #[test]
    fn flows_stay_nonnegative_and_conserve() {
        let mut inst = instance_on_cycle(21).unwrap();
        let total = inst.initial.total();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(100)).unwrap();
        assert_eq!(engine.loads().total(), total);
        assert_eq!(engine.negative_node_steps(), 0);
    }

    #[test]
    fn works_on_petersen_graph() {
        // Petersen: odd girth 5, φ = 2, every vertex lies on a 5-cycle.
        let mut inst = instance(generators::petersen(), 0, 5).unwrap();
        assert_eq!(inst.phi, 2);
        let x0 = inst.initial.clone();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.step(&mut inst.balancer).unwrap();
        let x1 = engine.loads().clone();
        engine.step(&mut inst.balancer).unwrap();
        assert_eq!(engine.loads(), &x0, "petersen orbit must be 2-periodic");
        assert_ne!(x1, x0);
        assert!(inst.discrepancy() >= inst.guaranteed_discrepancy());
    }

    #[test]
    fn rejects_bipartite_graphs() {
        assert!(instance(generators::cycle(8).unwrap(), 0, 10).is_err());
        assert!(instance_on_cycle(8).is_err());
    }

    #[test]
    fn rejects_too_small_level() {
        let g = generators::cycle(9).unwrap();
        assert!(instance(g, 0, 3).is_err()); // φ = 4 > 3
    }

    #[test]
    fn adding_self_loops_breaks_the_orbit() {
        // The contrast run of experiment E7: same graph, same loads,
        // but d° = d self-loops — the rotor-router now balances.
        let inst = instance_on_cycle(17).unwrap();
        let lazy = BalancingGraph::lazy(inst.graph.graph().clone());
        let mut rotor = RotorRouter::new(&lazy, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(lazy, inst.initial.clone());
        engine.run(&mut rotor, Run::new(5000)).unwrap();
        assert!(
            engine.loads().discrepancy() < inst.discrepancy() / 2,
            "with self-loops the orbit must dissolve: got {} vs stuck {}",
            engine.loads().discrepancy(),
            inst.discrepancy()
        );
    }

    #[test]
    fn orbit_flows_are_round_fair() {
        let mut inst = instance_on_cycle(15).unwrap();
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.attach_monitor();
        engine.run(&mut inst.balancer, Run::new(30)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0);
        assert_eq!(m.floor_violations(), 0);
    }
}
