use dlb_graph::{BalancingGraph, GraphError, PortOrder};

use crate::balancer::split_load;
use crate::schemes::rotor::spread_surplus;
use crate::{Balancer, KernelBalancer, KernelRounds};

/// ROTOR-ROUTER\*: the self-preferring rotor-router variant (§1.1).
///
/// Requires the paper's main regime `d° = d` (so `d⁺ = 2d`). One
/// self-loop is designated **special** and always receives
/// `⌈x_t(u)/2d⌉` tokens; the remaining tokens are distributed by an
/// ordinary rotor over the other `2d − 1` ports (`d` original edges and
/// `d − 1` plain self-loops).
///
/// This makes the scheme a **good 1-balancer** (Observation 3.2): it is
/// round-fair (every port still gets `⌊x/d⁺⌋` or `⌈x/d⁺⌉` — the special
/// loop absorbs exactly one surplus token whenever there is any), it is
/// cumulatively 1-fair on original edges (the inner rotor guarantees
/// it), and at least `min{1, e(u)}` self-loops — the special one —
/// receive the ceiling.
///
/// By Theorem 3.3 it therefore reaches `O(d)` discrepancy within
/// `O(T + d·log²n/µ)` steps, which the `thm33` experiments measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotorRouterStar {
    /// All per-node cyclic sequences over the `2d − 1` non-special
    /// ports, flattened into one contiguous allocation: node `u`'s
    /// sequence is `sequences[u * stride .. (u + 1) * stride]` with the
    /// constant stride `2d − 1`.
    sequences: Vec<u16>,
    /// Sequence length per node (`d⁺ − 1`).
    stride: usize,
    rotors: Vec<usize>,
    initial_rotors: Vec<usize>,
    special_port: usize,
}

impl RotorRouterStar {
    /// Builds the scheme for `gp`.
    ///
    /// The inner rotor order is derived from `order` by dropping the
    /// special port (the last self-loop).
    ///
    /// # Errors
    ///
    /// Returns an error if `gp` does not satisfy `d° = d`, or if
    /// `order` is invalid for `gp`.
    pub fn new(gp: &BalancingGraph, order: PortOrder) -> Result<Self, GraphError> {
        let d = gp.degree();
        if gp.num_self_loops() != d {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "ROTOR-ROUTER* requires d° = d, got d° = {}, d = {d}",
                    gp.num_self_loops()
                ),
            });
        }
        let special_port = gp.degree_plus() - 1;
        let n = gp.num_nodes();
        let stride = gp.degree_plus() - 1;
        let mut sequences = Vec::with_capacity(n * stride);
        for u in 0..n {
            let full = order.sequence_for(gp, u)?;
            sequences.extend(full.into_iter().filter(|&p| p as usize != special_port));
        }
        Ok(RotorRouterStar {
            sequences,
            stride,
            rotors: vec![0; n],
            initial_rotors: vec![0; n],
            special_port,
        })
    }

    /// Builds the scheme with explicit initial positions for the inner
    /// rotor (the snapshot-restore constructor, mirroring
    /// [`RotorRouter::with_initial_rotors`](crate::schemes::RotorRouter::with_initial_rotors)).
    ///
    /// # Errors
    ///
    /// Returns an error if `gp` does not satisfy `d° = d`, or if
    /// `rotors` has the wrong length or an out-of-range position (the
    /// inner rotor runs over `d⁺ − 1` ports).
    pub fn with_initial_rotors(
        gp: &BalancingGraph,
        order: PortOrder,
        rotors: Vec<usize>,
    ) -> Result<Self, GraphError> {
        let mut rrs = RotorRouterStar::new(gp, order)?;
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
            if r >= rrs.stride {
                return Err(GraphError::InvalidParameters {
                    reason: format!("inner rotor position {r} out of range at node {u}"),
                });
            }
        }
        rrs.initial_rotors.clone_from(&rotors);
        rrs.rotors = rotors;
        Ok(rrs)
    }

    /// The port index of the special self-loop.
    pub fn special_port(&self) -> usize {
        self.special_port
    }

    /// Current rotor positions of the inner rotor.
    pub fn rotors(&self) -> &[usize] {
        &self.rotors
    }
}

impl Balancer for RotorRouterStar {
    fn name(&self) -> &'static str {
        "rotor-router-star"
    }

    fn reset(&mut self) {
        self.rotors.clone_from(&self.initial_rotors);
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

/// Base flow everywhere, one surplus token to the special self-loop
/// whenever there is any (it takes the ceiling `⌈x/d⁺⌉`), and the other
/// `e − 1` surplus tokens to the next ports of the inner rotor, which
/// advances by `e − 1` — so an empty node's rotor stays put.
impl KernelBalancer for RotorRouterStar {
    /// `d⁺` is `flows.len()`: on the kernel path that is the length of
    /// a fixed-size buffer, so the split divides by a constant.
    #[inline]
    fn kernel_node(&mut self, _gp: &BalancingGraph, u: usize, load: i64, flows: &mut [u64]) {
        let inner_len = self.stride;
        debug_assert_eq!(flows.len(), inner_len + 1);
        let (base, e) = split_load(load, flows.len());
        flows.fill(base);
        if e == 0 {
            return;
        }
        flows[self.special_port] += 1;
        let seq = &self.sequences[u * inner_len..(u + 1) * inner_len];
        self.rotors[u] = spread_surplus(flows, seq, self.rotors[u], e - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::round_rows;
    use crate::{Engine, LoadVector, Run};
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn special_loop_gets_ceiling() {
        let gp = lazy_cycle(4); // d = 2, d⁺ = 4, special = port 3
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        // Load 7: base 1, e 3 ⇒ ceil 2.
        let flows = &round_rows(&mut rrs, &gp, &[7; 4])[0];
        assert_eq!(flows[3], 2, "special self-loop takes ⌈7/4⌉");
        assert_eq!(flows.iter().sum::<u64>(), 7, "everything sent");
        // Inner rotor spreads e−1 = 2 extras over ports 0, 1.
        assert_eq!(flows, &[2, 2, 1, 2]);
    }

    #[test]
    fn exact_multiples_send_base_everywhere() {
        let gp = lazy_cycle(4);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        // Load 8: e = 0.
        assert_eq!(round_rows(&mut rrs, &gp, &[8; 4])[0], [2, 2, 2, 2]);
    }

    #[test]
    fn is_good_one_balancer_by_monitor() {
        let gp = lazy_cycle(8);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1013));
        engine.attach_monitor();
        engine.run(&mut rrs, Run::new(500)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0, "round-fair");
        assert_eq!(m.floor_violations(), 0);
        // Good 1-balancer: witnessed s must be at least 1 (or entirely
        // unconstrained).
        match m.witnessed_s() {
            None => {}
            Some(s) => assert!(s >= 1, "witnessed s = {s}"),
        }
        // Cumulative 1-fairness on original edges.
        assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
    }

    #[test]
    fn rejects_wrong_laziness() {
        let gp = BalancingGraph::with_self_loops(generators::cycle(4).unwrap(), 1).unwrap();
        assert!(RotorRouterStar::new(&gp, PortOrder::Sequential).is_err());
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        assert!(RotorRouterStar::new(&gp, PortOrder::Sequential).is_err());
    }

    #[test]
    fn conserves_tokens_over_long_runs() {
        let gp = lazy_cycle(16);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 12345));
        engine.run(&mut rrs, Run::new(1000)).unwrap();
        assert_eq!(engine.loads().total(), 12345);
    }

    #[test]
    fn reaches_theorem_33_discrepancy_on_cycle() {
        // Theorem 3.3: (2δ+1)d⁺ + 4d° = 3·4 + 4·2 = 20 for the cycle,
        // given enough time. Empirically it lands much lower.
        let gp = lazy_cycle(32);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(32, 6400));
        engine.run(&mut rrs, Run::new(20_000)).unwrap();
        assert!(
            engine.loads().discrepancy() <= 20,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn reset_restores_rotors() {
        let gp = lazy_cycle(4);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        round_rows(&mut rrs, &gp, &[7; 4]);
        assert_ne!(rrs.rotors(), &[0, 0, 0, 0]);
        rrs.reset();
        assert_eq!(rrs.rotors(), &[0, 0, 0, 0]);
    }

    /// `kernel_node` writes the row and advances the inner rotor of a
    /// token-by-token reference that wraps the rotor with a modulo, for
    /// every load in `0..=4·d⁺` and every inner rotor position, so the
    /// rule cannot drift from the definition.
    #[test]
    fn kernel_node_writes_the_plan_row_and_rotor_advance() {
        let graphs = [
            lazy_cycle(5),                                           // d⁺ = 4
            BalancingGraph::lazy(generators::hypercube(3).unwrap()), // d⁺ = 6
            BalancingGraph::lazy(generators::torus(2, 3).unwrap()),  // d⁺ = 8
        ];
        for gp in &graphs {
            let n = gp.num_nodes();
            let d_plus = gp.degree_plus();
            let inner_len = d_plus - 1;
            for rotor in 0..inner_len {
                for x in 0..=4 * d_plus as i64 {
                    let tag = format!("d⁺ = {d_plus}, rotor {rotor}, x = {x}");
                    let mut kernel = RotorRouterStar::with_initial_rotors(
                        gp,
                        PortOrder::Sequential,
                        vec![rotor; n],
                    )
                    .unwrap();
                    // The buffer arrives dirty: every entry must be written.
                    let mut flows = vec![u64::MAX; d_plus];
                    kernel.kernel_node(gp, 0, x, &mut flows);

                    let (base, e) = (x as u64 / d_plus as u64, x as usize % d_plus);
                    let mut expect = vec![base; d_plus];
                    let extras = e.saturating_sub(1);
                    if e > 0 {
                        expect[kernel.special_port()] += 1;
                    }
                    let seq = &kernel.sequences[..inner_len];
                    for i in 0..extras {
                        expect[seq[(rotor + i) % inner_len] as usize] += 1;
                    }
                    assert_eq!(flows, expect, "{tag}: reference flows");
                    assert_eq!(
                        kernel.rotors()[0],
                        (rotor + extras) % inner_len,
                        "{tag}: reference rotor"
                    );
                }
            }
        }
    }

    /// The snapshot-restore constructor: rebuilding from captured
    /// rotor positions continues the flow stream bit-identically.
    #[test]
    fn with_initial_rotors_resumes_the_plan_stream() {
        let gp = lazy_cycle(8);
        let mut original = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(8, 1013));
        engine.run(&mut original, Run::new(50)).unwrap();

        let mut restored = RotorRouterStar::with_initial_rotors(
            &gp,
            PortOrder::Sequential,
            original.rotors().to_vec(),
        )
        .unwrap();
        let mut resumed = Engine::from_state(engine.export_state());
        engine.run(&mut original, Run::new(50)).unwrap();
        resumed.run(&mut restored, Run::new(50)).unwrap();
        assert_eq!(resumed.loads(), engine.loads());
        assert_eq!(restored.rotors(), original.rotors());

        // Shape errors are reported, not asserted.
        assert!(
            RotorRouterStar::with_initial_rotors(&gp, PortOrder::Sequential, vec![0; 7]).is_err()
        );
        assert!(
            RotorRouterStar::with_initial_rotors(&gp, PortOrder::Sequential, vec![3; 8]).is_err()
        );
    }
}
