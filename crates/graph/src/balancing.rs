use crate::{GraphError, NodeId, RegularGraph};

/// Classification of a port of the balancing graph `G⁺`.
///
/// The paper splits each node's `d⁺ = d + d°` edges into `d` *original
/// edges* (`E_u`) and `d°` *self-loops* (`E°_u`); cumulative fairness is
/// demanded on original edges, while self-preference (Definition 3.1)
/// concerns self-loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Port into an original edge; payload is the original port number
    /// `0 ≤ p < d`.
    Original(usize),
    /// Port into a self-loop; payload is the self-loop index
    /// `0 ≤ i < d°`.
    SelfLoop(usize),
}

/// The balancing graph `G⁺ = (V, E ∪ E°)`: the original d-regular graph
/// with `d°` self-loops attached to every node (§1.3).
///
/// Each node has `d⁺ = d + d°` **ports**: ports `0..d` address the
/// original edges (numbered as in the underlying [`RegularGraph`]) and
/// ports `d..d⁺` address the self-loops. All balancers and the
/// simulation engine speak in ports, which keeps token routing free of
/// global edge identifiers — matching the paper's anonymous-network
/// model.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph, PortKind};
///
/// let g = generators::cycle(8)?;
/// let gp = BalancingGraph::lazy(g); // d° = d, the paper's main regime
/// assert_eq!(gp.degree_plus(), 4);
/// assert_eq!(gp.port_kind(1), PortKind::Original(1));
/// assert_eq!(gp.port_kind(3), PortKind::SelfLoop(1));
/// assert_eq!(gp.port_target(5, 0), 6); // original edge
/// assert_eq!(gp.port_target(5, 3), 5); // self-loop stays home
/// # Ok::<(), dlb_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancingGraph {
    graph: RegularGraph,
    num_self_loops: usize,
}

impl BalancingGraph {
    /// Attaches `d°` self-loops to every node of `graph`.
    ///
    /// `d° = 0` is allowed (needed by the Theorem 4.3 lower bound, which
    /// runs the rotor-router on `G⁺ = G`), and so is any `d° > d` (the
    /// SEND([x/d⁺]) good-balancer regime wants `d⁺ > 2d`).
    ///
    /// # Errors
    ///
    /// Returns an error if `d⁺ = d + d°` is zero (no port to split a
    /// load over; every scheme divides by `d⁺`) or would overflow the
    /// port index space (`u16`).
    pub fn with_self_loops(graph: RegularGraph, num_self_loops: usize) -> Result<Self, GraphError> {
        let d_plus = graph.degree().saturating_add(num_self_loops);
        if d_plus == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "d+ = d + d° = 0 leaves no port to balance over".into(),
            });
        }
        if d_plus > u16::MAX as usize {
            return Err(GraphError::InvalidParameters {
                reason: format!("d+ = {d_plus} exceeds the port index space"),
            });
        }
        Ok(BalancingGraph {
            graph,
            num_self_loops,
        })
    }

    /// The paper's main regime: `d° = d`, i.e. half of all edges are
    /// self-loops (`d⁺ = 2d`), as required by claims (i)–(ii) of
    /// Theorem 2.3.
    ///
    /// # Panics
    ///
    /// Panics if `d = 0`, which leaves `d⁺ = 0` (see
    /// [`with_self_loops`](BalancingGraph::with_self_loops)). Every
    /// generator rejects `d = 0`; only
    /// [`RegularGraph::from_adjacency`] with degree 0 builds such a
    /// graph.
    pub fn lazy(graph: RegularGraph) -> Self {
        let d = graph.degree();
        BalancingGraph::with_self_loops(graph, d).expect("d+ = 2d is nonzero and fits in u16")
    }

    /// The bare graph with no self-loops (`G⁺ = G`), the setting of the
    /// Theorem 4.3 lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `d = 0`, as [`lazy`](BalancingGraph::lazy) does.
    pub fn bare(graph: RegularGraph) -> Self {
        BalancingGraph::with_self_loops(graph, 0).expect("d+ = d is nonzero and fits in u16")
    }

    /// The underlying original graph `G`.
    #[inline]
    pub fn graph(&self) -> &RegularGraph {
        &self.graph
    }

    /// Mutable access to the underlying graph, for the in-place
    /// topology mutations of [`crate::mutate`]. Every mutation method
    /// re-establishes the structural invariants itself, so `G⁺` stays
    /// valid; the self-loop count is untouched by churn.
    #[inline]
    pub fn graph_mut(&mut self) -> &mut RegularGraph {
        &mut self.graph
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Original degree `d`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.graph.degree()
    }

    /// Number of self-loops per node, `d°`.
    #[inline]
    pub fn num_self_loops(&self) -> usize {
        self.num_self_loops
    }

    /// Total degree `d⁺ = d + d°` of every node in `G⁺`.
    #[inline]
    pub fn degree_plus(&self) -> usize {
        self.graph.degree() + self.num_self_loops
    }

    /// Classifies port `p` of any node.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.degree_plus()`.
    #[inline]
    pub fn port_kind(&self, p: usize) -> PortKind {
        let d = self.graph.degree();
        assert!(p < self.degree_plus(), "port {p} out of range");
        if p < d {
            PortKind::Original(p)
        } else {
            PortKind::SelfLoop(p - d)
        }
    }

    /// The node reached by sending a token from `u` through port `p`
    /// (self-loop ports return `u` itself).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `p` is out of range.
    #[inline]
    pub fn port_target(&self, u: NodeId, p: usize) -> NodeId {
        let d = self.graph.degree();
        if p < d {
            self.graph.neighbor(u, p)
        } else {
            assert!(p < self.degree_plus(), "port {p} out of range");
            u
        }
    }

    /// Whether port `p` is a self-loop port.
    #[inline]
    pub fn is_self_loop(&self, p: usize) -> bool {
        p >= self.graph.degree()
    }
}

/// A per-node cyclic ordering of the `d⁺` ports, consumed by rotor-router
/// balancers.
///
/// The rotor-router model assumes "the edges of the nodes are cyclically
/// ordered" (§1.2); the *choice* of that order is an adversary/designer
/// knob. Theorem 4.3's lower bound explicitly constructs a bad order, so
/// the order is a first-class value here rather than a hidden default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortOrder {
    /// Ports in index order: all original edges first (`0..d`), then the
    /// self-loops (`d..d⁺`).
    Sequential,
    /// Original edges and self-loops interleaved as evenly as possible,
    /// starting with an original edge. With `d° = d` this alternates
    /// strictly: original, loop, original, loop, …
    Interleaved,
    /// An explicit permutation of `0..d⁺` used for every node.
    Uniform(Vec<u16>),
    /// An explicit permutation of `0..d⁺` per node (outer index = node).
    PerNode(Vec<Vec<u16>>),
    /// An independent pseudo-random permutation per node, derived
    /// deterministically from the seed and the node index (a
    /// Fisher–Yates shuffle driven by splitmix64). Used by the
    /// port-order sensitivity ablation: rotor-router guarantees are
    /// order-independent, and this order exercises that claim.
    Shuffled {
        /// Seed; the same seed always yields the same orders.
        seed: u64,
    },
}

impl PortOrder {
    /// Materialises the cyclic port sequence for node `u`.
    ///
    /// # Errors
    ///
    /// Returns an error if an explicit order is not a permutation of
    /// `0..d⁺` or (for [`PortOrder::PerNode`]) is missing node `u`.
    pub fn sequence_for(&self, gp: &BalancingGraph, u: NodeId) -> Result<Vec<u16>, GraphError> {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        let seq = match self {
            PortOrder::Sequential => (0..d_plus as u16).collect(),
            PortOrder::Interleaved => {
                // Bresenham-style merge of the two port classes so they
                // appear at proportional positions; ties favour original
                // edges, so the sequence starts with port 0.
                let mut seq = Vec::with_capacity(d_plus);
                let d_self = gp.num_self_loops();
                let (mut orig, mut lp) = (0usize, 0usize);
                while orig < d || lp < d_self {
                    let take_original = orig < d && (lp >= d_self || orig * d_self <= lp * d);
                    if take_original {
                        seq.push(orig as u16);
                        orig += 1;
                    } else {
                        seq.push((d + lp) as u16);
                        lp += 1;
                    }
                }
                seq
            }
            PortOrder::Uniform(seq) => seq.clone(),
            PortOrder::PerNode(orders) => {
                orders.get(u).cloned().ok_or(GraphError::NodeOutOfRange {
                    node: u,
                    n: orders.len(),
                })?
            }
            PortOrder::Shuffled { seed } => {
                let mut seq: Vec<u16> = (0..d_plus as u16).collect();
                // Fisher–Yates driven by a splitmix64 stream keyed on
                // (seed, node), so orders are independent across nodes
                // but fully reproducible.
                let mut state = seed ^ (u as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut next = || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                for i in (1..seq.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    seq.swap(i, j);
                }
                seq
            }
        };
        validate_permutation(&seq, d_plus)?;
        Ok(seq)
    }
}

fn validate_permutation(seq: &[u16], d_plus: usize) -> Result<(), GraphError> {
    if seq.len() != d_plus {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "port order has {} entries, expected d+ = {d_plus}",
                seq.len()
            ),
        });
    }
    let mut seen = vec![false; d_plus];
    for &p in seq {
        let p = p as usize;
        if p >= d_plus || seen[p] {
            return Err(GraphError::InvalidParameters {
                reason: format!("port order is not a permutation of 0..{d_plus}"),
            });
        }
        seen[p] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    /// A self-loop count near `usize::MAX` (a forged snapshot header)
    /// used to overflow computing `d⁺`; it is the same typed error as
    /// any count past the port space.
    #[test]
    fn huge_self_loop_counts_are_an_error_not_an_overflow() {
        let g = generators::cycle(6).unwrap();
        assert!(BalancingGraph::with_self_loops(g.clone(), usize::MAX).is_err());
        assert!(BalancingGraph::with_self_loops(g, u16::MAX as usize).is_err());
    }

    /// `d⁺ = 0` leaves every scheme dividing by zero in its first
    /// round; it is a typed error, and one self-loop is enough.
    #[test]
    fn zero_total_degree_is_an_error() {
        let empty = || RegularGraph::from_adjacency(5, 0, Vec::new()).unwrap();
        assert!(matches!(
            BalancingGraph::with_self_loops(empty(), 0),
            Err(GraphError::InvalidParameters { .. })
        ));
        let gp = BalancingGraph::with_self_loops(empty(), 1).unwrap();
        assert_eq!(gp.degree_plus(), 1);
    }

    #[test]
    fn lazy_doubles_degree() {
        let gp = lazy_cycle(6);
        assert_eq!(gp.degree(), 2);
        assert_eq!(gp.num_self_loops(), 2);
        assert_eq!(gp.degree_plus(), 4);
    }

    #[test]
    fn bare_has_no_self_loops() {
        let gp = BalancingGraph::bare(generators::cycle(6).unwrap());
        assert_eq!(gp.degree_plus(), 2);
        assert_eq!(gp.num_self_loops(), 0);
    }

    #[test]
    fn port_kinds_split_at_d() {
        let gp = lazy_cycle(6);
        assert_eq!(gp.port_kind(0), PortKind::Original(0));
        assert_eq!(gp.port_kind(1), PortKind::Original(1));
        assert_eq!(gp.port_kind(2), PortKind::SelfLoop(0));
        assert_eq!(gp.port_kind(3), PortKind::SelfLoop(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_kind_rejects_overflow() {
        let gp = lazy_cycle(6);
        let _ = gp.port_kind(4);
    }

    #[test]
    fn port_targets_route_correctly() {
        let gp = lazy_cycle(6);
        assert_eq!(gp.port_target(2, 0), 3);
        assert_eq!(gp.port_target(2, 1), 1);
        assert_eq!(gp.port_target(2, 2), 2);
        assert_eq!(gp.port_target(2, 3), 2);
        assert!(gp.is_self_loop(2));
        assert!(!gp.is_self_loop(1));
    }

    #[test]
    fn sequential_order_is_identity() {
        let gp = lazy_cycle(6);
        let seq = PortOrder::Sequential.sequence_for(&gp, 0).unwrap();
        assert_eq!(seq, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_order_alternates_for_lazy_graphs() {
        let gp = lazy_cycle(6);
        let seq = PortOrder::Interleaved.sequence_for(&gp, 0).unwrap();
        // d = d° = 2: strict alternation original/self-loop.
        let kinds: Vec<bool> = seq.iter().map(|&p| gp.is_self_loop(p as usize)).collect();
        assert_eq!(kinds, vec![false, true, false, true]);
    }

    #[test]
    fn interleaved_order_is_permutation_for_uneven_mix() {
        let g = generators::cycle(8).unwrap();
        for d_self in [0usize, 1, 3, 5] {
            let gp = BalancingGraph::with_self_loops(g.clone(), d_self).unwrap();
            let seq = PortOrder::Interleaved.sequence_for(&gp, 0).unwrap();
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            let expect: Vec<u16> = (0..gp.degree_plus() as u16).collect();
            assert_eq!(sorted, expect, "d_self = {d_self}");
        }
    }

    #[test]
    fn uniform_order_validated() {
        let gp = lazy_cycle(6);
        assert!(PortOrder::Uniform(vec![3, 2, 1, 0])
            .sequence_for(&gp, 0)
            .is_ok());
        assert!(PortOrder::Uniform(vec![0, 1, 2])
            .sequence_for(&gp, 0)
            .is_err());
        assert!(PortOrder::Uniform(vec![0, 1, 2, 2])
            .sequence_for(&gp, 0)
            .is_err());
        assert!(PortOrder::Uniform(vec![0, 1, 2, 9])
            .sequence_for(&gp, 0)
            .is_err());
    }

    #[test]
    fn per_node_order_selects_by_node() {
        let gp = lazy_cycle(3);
        let order = PortOrder::PerNode(vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 0, 3, 2]]);
        assert_eq!(order.sequence_for(&gp, 1).unwrap(), vec![3, 2, 1, 0]);
        assert!(order.sequence_for(&gp, 5).is_err());
    }

    #[test]
    fn with_self_loops_allows_large_laziness() {
        let g = generators::cycle(6).unwrap();
        let gp = BalancingGraph::with_self_loops(g, 6).unwrap();
        assert_eq!(gp.degree_plus(), 8);
    }

    #[test]
    fn shuffled_order_is_a_reproducible_permutation() {
        let gp = lazy_cycle(8);
        let order = PortOrder::Shuffled { seed: 42 };
        for u in 0..8 {
            let seq = order.sequence_for(&gp, u).unwrap();
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "node {u} not a permutation");
            assert_eq!(
                seq,
                order.sequence_for(&gp, u).unwrap(),
                "node {u} not reproducible"
            );
        }
    }

    #[test]
    fn shuffled_orders_differ_across_nodes_and_seeds() {
        let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
        let a = PortOrder::Shuffled { seed: 1 };
        let b = PortOrder::Shuffled { seed: 2 };
        let all_a: Vec<Vec<u16>> = (0..16).map(|u| a.sequence_for(&gp, u).unwrap()).collect();
        let all_b: Vec<Vec<u16>> = (0..16).map(|u| b.sequence_for(&gp, u).unwrap()).collect();
        assert_ne!(all_a, all_b, "different seeds must differ somewhere");
        // With 16 nodes and 4! = 24 orders, at least two nodes must
        // have received different permutations under the same seed.
        assert!(
            all_a.windows(2).any(|w| w[0] != w[1]),
            "per-node orders should not all coincide"
        );
    }
}
