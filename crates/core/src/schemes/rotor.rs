use dlb_graph::{BalancingGraph, GraphError, PortOrder};

use crate::balancer::split_load;
use crate::{Balancer, FlowPlan, KernelBalancer, KernelRounds, LoadVector};

/// The ROTOR-ROUTER (Propp machine) as a load balancer (§1.2).
///
/// Each node owns a **rotor**: a pointer into a fixed cyclic order of
/// its `d⁺` ports. Tokens leave one by one: the first token through the
/// port under the rotor, the next through the following port, and so on,
/// the rotor advancing with each token. Equivalently — and this is how
/// the plan is computed in `O(d⁺)` instead of `O(x)` — every port
/// receives `⌊x/d⁺⌋` tokens and the `x mod d⁺` surplus tokens go to the
/// next `x mod d⁺` ports in cyclic order from the rotor.
///
/// Properties (Observation 2.2): deterministic, **cumulatively 1-fair**
/// (any two ports' lifetime totals differ by at most 1 — in fact this
/// holds on all ports, not just original ones), never overdraws, and
/// needs no communication. It is *not* stateless: the rotor is state.
///
/// The port order is a constructor argument because the rotor-router's
/// worst case depends on it (Theorem 4.3 builds an adversarial order);
/// [`PortOrder::Sequential`] is the natural default.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph, PortOrder};
/// use dlb_core::{Engine, LoadVector, Run};
/// use dlb_core::schemes::RotorRouter;
///
/// let gp = BalancingGraph::lazy(generators::hypercube(4)?);
/// let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
/// let mut engine = Engine::new(gp, LoadVector::point_mass(16, 1600));
/// engine.run(&mut rotor, Run::new(400))?;
/// assert!(engine.loads().discrepancy() <= 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotorRouter {
    /// All per-node cyclic port sequences, flattened into one
    /// contiguous allocation: node `u`'s sequence is
    /// `sequences[u * stride .. (u + 1) * stride]`. Every node has the
    /// same sequence length (`d⁺`), so a constant stride replaces a
    /// per-node offset table.
    sequences: Vec<u16>,
    /// Sequence length per node (`d⁺`).
    stride: usize,
    /// Per-node rotor position (index into the node's sequence).
    rotors: Vec<usize>,
    /// Rotor positions to restore on [`Balancer::reset`].
    initial_rotors: Vec<usize>,
}

impl RotorRouter {
    /// Builds a rotor-router for `gp` with all rotors at position 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `order` is invalid for `gp` (see
    /// [`PortOrder::sequence_for`]).
    pub fn new(gp: &BalancingGraph, order: PortOrder) -> Result<Self, GraphError> {
        let n = gp.num_nodes();
        let stride = gp.degree_plus();
        let mut sequences = Vec::with_capacity(n * stride);
        for u in 0..n {
            sequences.extend_from_slice(&order.sequence_for(gp, u)?);
        }
        Ok(RotorRouter {
            sequences,
            stride,
            rotors: vec![0; n],
            initial_rotors: vec![0; n],
        })
    }

    /// Builds a rotor-router with explicit initial rotor positions
    /// (needed by the Theorem 4.3 construction).
    ///
    /// # Errors
    ///
    /// Returns an error if `order` is invalid or `rotors` has the wrong
    /// length or an out-of-range position.
    pub fn with_initial_rotors(
        gp: &BalancingGraph,
        order: PortOrder,
        rotors: Vec<usize>,
    ) -> Result<Self, GraphError> {
        let mut rr = RotorRouter::new(gp, order)?;
        if rotors.len() != gp.num_nodes() {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "rotor vector has {} entries, expected n = {}",
                    rotors.len(),
                    gp.num_nodes()
                ),
            });
        }
        for (u, &r) in rotors.iter().enumerate() {
            if r >= gp.degree_plus() {
                return Err(GraphError::InvalidParameters {
                    reason: format!("rotor position {r} out of range at node {u}"),
                });
            }
        }
        rr.initial_rotors.clone_from(&rotors);
        rr.rotors = rotors;
        Ok(rr)
    }

    /// Current rotor positions (index into each node's port sequence).
    pub fn rotors(&self) -> &[usize] {
        &self.rotors
    }

    /// The cyclic port sequence of node `u`.
    pub fn sequence(&self, u: usize) -> &[u16] {
        &self.sequences[u * self.stride..(u + 1) * self.stride]
    }

    /// The shared per-node rule of [`Balancer::plan`] and
    /// [`KernelBalancer::kernel_node`]: base flow everywhere, the `e`
    /// surplus tokens to the next `e` ports in cyclic order from the
    /// rotor, which advances by `e`. Callers skip `x == 0` (the rotor
    /// must not move for empty nodes).
    ///
    /// `d⁺` is `flows.len()`: on the kernel path that is the length of
    /// a fixed-size buffer, so the split divides by a constant.
    #[inline]
    fn node_flows(&mut self, u: usize, x: i64, flows: &mut [u64]) {
        let d_plus = flows.len();
        debug_assert_eq!(d_plus, self.stride);
        let (base, e) = split_load(x, d_plus);
        flows.fill(base);
        let seq = &self.sequences[u * d_plus..(u + 1) * d_plus];
        self.rotors[u] = spread_surplus(flows, seq, self.rotors[u], e);
    }
}

/// Adds one token to each of the `extras` ports of `seq` that follow
/// position `rotor` cyclically, starting at `rotor` itself, and returns
/// the advanced position. The position wraps with a compare, not a
/// division per token. Shared by the rotor-router and ROTOR-ROUTER\*'s
/// inner rotor; `extras < seq.len()`.
#[inline]
pub(crate) fn spread_surplus(
    flows: &mut [u64],
    seq: &[u16],
    mut rotor: usize,
    extras: usize,
) -> usize {
    for _ in 0..extras {
        flows[seq[rotor] as usize] += 1;
        rotor += 1;
        if rotor == seq.len() {
            rotor = 0;
        }
    }
    rotor
}

impl Balancer for RotorRouter {
    fn name(&self) -> &'static str {
        "rotor-router"
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            let x = loads.get(u);
            if x == 0 {
                // No tokens: no flow, and the rotor does not advance.
                // Leaving the node untouched keeps the plan sparse.
                continue;
            }
            self.node_flows(u, x, plan.node_mut(u));
        }
    }

    fn reset(&mut self) {
        self.rotors.clone_from(&self.initial_rotors);
    }

    fn as_kernel(&mut self) -> Option<&mut dyn KernelRounds> {
        Some(self)
    }
}

/// Stateful but local: the rotor advance is per-node, so the same rule
/// drives the plan-free kernel path bit-identically.
impl KernelBalancer for RotorRouter {
    #[inline]
    fn kernel_node(&mut self, _gp: &BalancingGraph, u: usize, load: i64, flows: &mut [u64]) {
        self.node_flows(u, load, flows);
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
    fn distributes_round_robin_and_advances_rotor() {
        let gp = lazy_cycle(4); // d⁺ = 4
        let mut rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let loads = LoadVector::uniform(4, 6); // base 1, e 2
        let mut plan = FlowPlan::for_graph(&gp);
        rr.plan(&gp, &loads, &mut plan);
        // Extras to ports 0, 1; rotor advances to 2.
        assert_eq!(plan.node(0), &[2, 2, 1, 1]);
        assert_eq!(rr.rotors()[0], 2);
        plan.clear();
        rr.plan(&gp, &loads, &mut plan);
        // Extras to ports 2, 3; rotor wraps to 0.
        assert_eq!(plan.node(0), &[1, 1, 2, 2]);
        assert_eq!(rr.rotors()[0], 0);
    }

    #[test]
    fn wraps_across_sequence_boundary() {
        let gp = lazy_cycle(4);
        let mut rr =
            RotorRouter::with_initial_rotors(&gp, PortOrder::Sequential, vec![3; 4]).unwrap();
        let loads = LoadVector::uniform(4, 2); // base 0, e 2
        let mut plan = FlowPlan::for_graph(&gp);
        rr.plan(&gp, &loads, &mut plan);
        // From rotor 3: ports 3, then wrap to 0.
        assert_eq!(plan.node(0), &[1, 0, 0, 1]);
        assert_eq!(rr.rotors()[0], 1);
    }

    #[test]
    fn respects_custom_port_order() {
        let gp = lazy_cycle(4);
        let order = PortOrder::Uniform(vec![3, 1, 2, 0]);
        let mut rr = RotorRouter::new(&gp, order).unwrap();
        let loads = LoadVector::uniform(4, 2); // e = 2 extras
        let mut plan = FlowPlan::for_graph(&gp);
        rr.plan(&gp, &loads, &mut plan);
        // Extras follow the custom order: ports 3, then 1.
        assert_eq!(plan.node(0), &[0, 1, 0, 1]);
    }

    #[test]
    fn is_cumulatively_one_fair() {
        let gp = lazy_cycle(8);
        let mut rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1013));
        engine.attach_monitor();
        engine.run(&mut rr, Run::new(500)).unwrap();
        assert!(
            engine.monitor().unwrap().ledger().original_edge_spread() <= 1,
            "spread {} exceeds δ = 1",
            engine.monitor().unwrap().ledger().original_edge_spread()
        );
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0, "rotor-router is round-fair");
        assert_eq!(m.floor_violations(), 0);
    }

    #[test]
    fn reset_restores_initial_rotors() {
        let gp = lazy_cycle(4);
        let mut rr =
            RotorRouter::with_initial_rotors(&gp, PortOrder::Sequential, vec![1, 2, 3, 0]).unwrap();
        let loads = LoadVector::uniform(4, 3);
        let mut plan = FlowPlan::for_graph(&gp);
        rr.plan(&gp, &loads, &mut plan);
        assert_ne!(rr.rotors(), &[1, 2, 3, 0]);
        rr.reset();
        assert_eq!(rr.rotors(), &[1, 2, 3, 0]);
    }

    #[test]
    fn rejects_invalid_initial_rotors() {
        let gp = lazy_cycle(4);
        assert!(RotorRouter::with_initial_rotors(&gp, PortOrder::Sequential, vec![0; 3]).is_err());
        assert!(RotorRouter::with_initial_rotors(&gp, PortOrder::Sequential, vec![9; 4]).is_err());
    }

    #[test]
    fn balances_hypercube_to_small_discrepancy() {
        let gp = BalancingGraph::lazy(generators::hypercube(5).unwrap());
        let mut rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(32, 32_000));
        engine.run(&mut rr, Run::new(2000)).unwrap();
        // d = 5, d⁺ = 10: Theorem 2.3 (i) gives O(d·√(log n/µ));
        // empirically this lands well under 3·d.
        assert!(
            engine.loads().discrepancy() <= 15,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn properties_flags() {
        let gp = lazy_cycle(4);
        let rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        assert!(rr.is_deterministic());
        assert!(!rr.is_stateless());
        assert!(!rr.may_overdraw());
        assert_eq!(rr.name(), "rotor-router");
    }

    #[test]
    fn works_without_self_loops() {
        // Theorem 4.3 setting: G⁺ = G. Everything must still conserve.
        let gp = BalancingGraph::bare(generators::cycle(5).unwrap());
        let mut rr = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(5, 100));
        engine.run(&mut rr, Run::new(50)).unwrap();
        assert_eq!(engine.loads().total(), 100);
    }
}
