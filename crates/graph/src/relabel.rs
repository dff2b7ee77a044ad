//! Locality-aware node relabeling: BFS and reverse-Cuthill–McKee
//! orderings, and isomorphic graph copies under a permutation.
//!
//! The schemes of the paper are label-free — a node's flows depend only
//! on its own load and ports — so any relabeling of the node ids yields
//! an isomorphic process: run the scheme on the relabeled graph with
//! permuted initial loads, map the final loads back, and the result is
//! **bit-identical** to the run on the original graph
//! (port numbering is preserved per node, see
//! [`RegularGraph::relabeled`]). The one caveat is scheme
//! configuration keyed on node ids: a rotor-router built from a
//! node-id-dependent port order (`PortOrder::Shuffled`/`PerNode`)
//! derives node `u`'s sequence from its *current* id, so it must be
//! configured in the relabeled id space to reproduce the original run;
//! id-independent orders (`Sequential`, `Interleaved`, `Uniform`)
//! commute unconditionally. What relabeling *does* change is
//! memory locality: the engine's hot loop walks nodes in id order and
//! scatters tokens to `neighbor(u, p)`, so a labeling that keeps
//! neighbours numerically close turns random-access scatters into
//! near-sequential ones. BFS/RCM orderings minimise (heuristically) the
//! [`bandwidth`] of the adjacency — the standard cure for
//! irregular-graph traversal, and the reason a random-regular graph
//! balances measurably faster after [`Relabeling::reverse_cuthill_mckee`].
//!
//! # Example
//!
//! ```
//! use dlb_graph::{generators, relabel::Relabeling};
//!
//! let g = generators::random_regular(64, 4, 7)?;
//! let r = Relabeling::reverse_cuthill_mckee(&g);
//! let h = g.relabeled(&r)?;
//! // Same graph up to renaming; results map back via the inverse.
//! assert_eq!(h.num_nodes(), g.num_nodes());
//! assert!(dlb_graph::relabel::bandwidth(&h) <= dlb_graph::relabel::bandwidth(&g));
//! # Ok::<(), dlb_graph::GraphError>(())
//! ```

use std::collections::{HashMap, VecDeque};

use crate::{GraphError, NodeId, RegularGraph};

/// A bijective renaming of the node ids `0..n`, stored in both
/// directions so loads and results can be mapped either way in `O(n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// `forward[old] = new`.
    forward: Vec<u32>,
    /// `inverse[new] = old`.
    inverse: Vec<u32>,
}

impl Relabeling {
    /// The identity relabeling on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<u32> = (0..n as u32).collect();
        Relabeling {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Wraps an explicit `old → new` map, validating that it is a
    /// permutation of `0..len`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `forward` is not a
    /// permutation.
    pub fn from_forward(forward: Vec<u32>) -> Result<Self, GraphError> {
        let n = forward.len();
        let mut inverse = vec![u32::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            let new = new as usize;
            if new >= n || inverse[new] != u32::MAX {
                return Err(GraphError::InvalidParameters {
                    reason: format!("relabeling is not a permutation of 0..{n}"),
                });
            }
            inverse[new] = old as u32;
        }
        Ok(Relabeling { forward, inverse })
    }

    /// The breadth-first ordering from `start`: node ids are assigned
    /// in BFS visitation order (neighbours explored in port order), so
    /// every node lands numerically close to its BFS parent. Unreached
    /// components are traversed from their smallest old id in turn.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn bfs(graph: &RegularGraph, start: NodeId) -> Self {
        let order = bfs_order(graph, start);
        order_to_relabeling(order)
    }

    /// The reverse Cuthill–McKee ordering: a BFS from a
    /// pseudo-peripheral node (found by a double sweep), with the final
    /// visitation order reversed — the classic bandwidth-reduction
    /// heuristic. On a d-regular graph all degrees tie, so the
    /// degree-sorting of general RCM degenerates to port-order
    /// exploration, which keeps the construction deterministic.
    pub fn reverse_cuthill_mckee(graph: &RegularGraph) -> Self {
        // Double sweep: BFS from node 0, restart from a farthest node.
        let start = *bfs_order(graph, 0).last().expect("graphs are non-empty");
        let mut order = bfs_order(graph, start as NodeId);
        order.reverse();
        order_to_relabeling(order)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the relabeling covers zero nodes (never true for
    /// relabelings built from a graph; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The new id of old node `old`.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        self.forward[old] as NodeId
    }

    /// The old id of new node `new`.
    #[inline]
    pub fn to_original(&self, new: NodeId) -> NodeId {
        self.inverse[new] as NodeId
    }

    /// The full `old → new` map.
    pub fn forward(&self) -> &[u32] {
        &self.forward
    }

    /// The full `new → old` map.
    pub fn inverse(&self) -> &[u32] {
        &self.inverse
    }

    /// Reindexes a per-node vector from old ids to new ids (e.g. an
    /// initial load vector before running on the relabeled graph).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the relabeling's length.
    pub fn permute<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "per-node vector length mismatch");
        self.inverse
            .iter()
            .map(|&old| values[old as usize])
            .collect()
    }

    /// Reindexes a per-node vector from new ids back to old ids (e.g.
    /// final loads, so results are reported in original ids).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the relabeling's length.
    pub fn unpermute<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "per-node vector length mismatch");
        self.forward
            .iter()
            .map(|&new| values[new as usize])
            .collect()
    }
}

/// BFS visitation order over all components (restarting from the
/// smallest unvisited id), neighbours explored in port order.
fn bfs_order(graph: &RegularGraph, start: NodeId) -> Vec<u32> {
    assert!(start < graph.num_nodes(), "start out of range");
    let n = graph.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    let mut next_root = 0usize;
    seen[start] = true;
    queue.push_back(start);
    while order.len() < n {
        while let Some(u) = queue.pop_front() {
            order.push(u as u32);
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        while next_root < n && seen[next_root] {
            next_root += 1;
        }
        if next_root < n {
            seen[next_root] = true;
            queue.push_back(next_root);
        }
    }
    order
}

/// Converts a visitation order (`order[new] = old`) into a relabeling.
fn order_to_relabeling(order: Vec<u32>) -> Relabeling {
    let mut forward = vec![0u32; order.len()];
    for (new, &old) in order.iter().enumerate() {
        forward[old as usize] = new as u32;
    }
    Relabeling {
        forward,
        inverse: order,
    }
}

/// The adjacency bandwidth `max_{(u,v) ∈ E} |u − v|`: the locality
/// metric BFS/RCM orderings heuristically minimise.
pub fn bandwidth(graph: &RegularGraph) -> usize {
    let mut worst = 0usize;
    for u in 0..graph.num_nodes() {
        for &v in graph.neighbors(u) {
            worst = worst.max(u.abs_diff(v as usize));
        }
    }
    worst
}

/// The per-port shift structure of a labeling: for each port `p`, the
/// dominant signed offset `o_p` (the most frequent value of
/// `neighbor(u, p) − u` over all nodes) together with the exact list of
/// nodes whose port-`p` neighbour deviates from it.
///
/// This is a sharper locality summary than [`bandwidth`]: the natural
/// labeling of a cycle has bandwidth `n − 1` (the wrap edge) yet is
/// perfectly banded — port 0 is offset `+1` for every node but the last,
/// port 1 is offset `−1` for every node but the first. A consumer that
/// applies each port as one shifted whole-array operation plus a
/// per-exception patch therefore keys off the *exception count*, not
/// the worst-case edge span.
///
/// The engine's vector gather planner makes the same banded-or-blocked
/// decision without this profile: a majority vote per port and a miss
/// count that stops at its budget, with no hashing. The profile stays
/// the exact reference that planner is tested against, and a
/// diagnostic of a labeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortShiftProfile {
    /// `offsets[p]` is port `p`'s dominant offset: ties broken toward
    /// the smallest offset, so the profile is deterministic.
    pub offsets: Vec<i64>,
    /// `exceptions[p]` lists `(u, v)` with `v = neighbor(u, p)` for
    /// every node where `v − u ≠ offsets[p]`, in ascending node order.
    pub exceptions: Vec<Vec<(u32, u32)>>,
}

impl PortShiftProfile {
    /// Total exceptions across all ports — the cost of the patch pass.
    #[must_use]
    pub fn num_exceptions(&self) -> usize {
        self.exceptions.iter().map(Vec::len).sum()
    }
}

/// Computes the [`PortShiftProfile`] of a graph's current labeling in
/// `O(n·d)` time and `O(d + exceptions)` space beyond the counting
/// maps.
#[must_use]
pub fn port_shift_profile(graph: &RegularGraph) -> PortShiftProfile {
    let n = graph.num_nodes();
    let d = graph.degree();
    let mut offsets = Vec::with_capacity(d);
    let mut exceptions = Vec::with_capacity(d);
    for p in 0..d {
        let mut counts: HashMap<i64, u32> = HashMap::new();
        for u in 0..n {
            let o = graph.neighbor(u, p) as i64 - u as i64;
            *counts.entry(o).or_insert(0) += 1;
        }
        // Most frequent offset; ties toward the smallest offset keep
        // the profile independent of hash iteration order.
        let best = counts
            .iter()
            .map(|(&o, &c)| (c, std::cmp::Reverse(o)))
            .max()
            .map(|(_, std::cmp::Reverse(o))| o)
            .unwrap_or(0);
        let exc: Vec<(u32, u32)> = (0..n)
            .filter_map(|u| {
                let v = graph.neighbor(u, p);
                (v as i64 - u as i64 != best).then_some((u as u32, v as u32))
            })
            .collect();
        offsets.push(best);
        exceptions.push(exc);
    }
    PortShiftProfile {
        offsets,
        exceptions,
    }
}

impl RegularGraph {
    /// The isomorphic copy of this graph under `relabeling`: node `u`
    /// becomes `relabeling.to_new(u)`, and **port numbering is
    /// preserved** — port `p` of the new node leads to the renamed
    /// image of the node behind port `p` of the old node. Preserving
    /// ports makes every port-addressed scheme whose configuration does
    /// not key on node ids (SEND, rotor-router with a
    /// `Sequential`/`Interleaved`/`Uniform`
    /// [`PortOrder`](crate::PortOrder)) commute with the relabeling, so
    /// a run on the relabeled graph with
    /// [permuted](Relabeling::permute) loads,
    /// [mapped back](Relabeling::unpermute), is bit-identical to the
    /// original run. Node-id-keyed orders (`Shuffled`, `PerNode`)
    /// derive a node's sequence from its current id and must be
    /// configured in the relabeled id space.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if the relabeling's
    /// length differs from the node count.
    pub fn relabeled(&self, relabeling: &Relabeling) -> Result<RegularGraph, GraphError> {
        let n = self.num_nodes();
        let d = self.degree();
        if relabeling.len() != n {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "relabeling covers {} nodes, graph has {n}",
                    relabeling.len()
                ),
            });
        }
        let mut adjacency = vec![0u32; n * d];
        for new in 0..n {
            let old = relabeling.to_original(new);
            for (p, &v) in self.neighbors(old).iter().enumerate() {
                adjacency[new * d + p] = relabeling.forward[v as usize];
            }
        }
        // An isomorphism preserves every structural invariant, but the
        // cheap revalidation keeps `RegularGraph`'s construction-time
        // guarantee unconditional.
        let mut relabeled = RegularGraph::from_adjacency(n, d, adjacency)?;
        // Sleep state travels with the nodes: the image of an asleep
        // node is asleep.
        let mut asleep: Vec<u32> = self
            .asleep_nodes()
            .iter()
            .map(|&old| relabeling.forward[old as usize])
            .collect();
        asleep.sort_unstable();
        *relabeled.asleep_mut() = asleep;
        Ok(relabeled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identity_roundtrips() {
        let r = Relabeling::identity(5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.to_new(3), 3);
        assert_eq!(r.to_original(3), 3);
        assert_eq!(r.permute(&[10, 11, 12, 13, 14]), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn from_forward_validates() {
        assert!(Relabeling::from_forward(vec![2, 0, 1]).is_ok());
        assert!(Relabeling::from_forward(vec![0, 0, 1]).is_err());
        assert!(Relabeling::from_forward(vec![0, 1, 3]).is_err());
    }

    #[test]
    fn permute_and_unpermute_are_inverse() {
        let r = Relabeling::from_forward(vec![2, 0, 3, 1]).unwrap();
        let values = [10i64, 20, 30, 40];
        let permuted = r.permute(&values);
        // new id 0 holds old node 1's value, etc.
        assert_eq!(permuted, vec![20, 40, 10, 30]);
        assert_eq!(r.unpermute(&permuted), values.to_vec());
        for old in 0..4 {
            assert_eq!(r.to_original(r.to_new(old)), old);
        }
    }

    #[test]
    fn bfs_order_is_a_permutation_and_starts_at_start() {
        let g = generators::random_regular(30, 3, 5).unwrap();
        let r = Relabeling::bfs(&g, 7);
        assert_eq!(r.to_new(7), 0, "start gets new id 0");
        let mut seen = r.forward().to_vec();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..30).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_random_regular() {
        let g = generators::random_regular(256, 4, 42).unwrap();
        let r = Relabeling::reverse_cuthill_mckee(&g);
        let h = g.relabeled(&r).unwrap();
        assert!(
            bandwidth(&h) < bandwidth(&g),
            "RCM bandwidth {} not below original {}",
            bandwidth(&h),
            bandwidth(&g)
        );
    }

    #[test]
    fn relabeled_preserves_structure_and_ports() {
        let g = generators::torus(2, 4).unwrap();
        let r = Relabeling::reverse_cuthill_mckee(&g);
        let h = g.relabeled(&r).unwrap();
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.degree(), g.degree());
        for u in 0..g.num_nodes() {
            for p in 0..g.degree() {
                assert_eq!(
                    h.neighbor(r.to_new(u), p),
                    r.to_new(g.neighbor(u, p)),
                    "port {p} of node {u} broke under relabeling"
                );
            }
        }
    }

    #[test]
    fn relabeled_rejects_wrong_length() {
        let g = generators::cycle(8).unwrap();
        let r = Relabeling::identity(7);
        assert!(g.relabeled(&r).is_err());
    }

    #[test]
    fn port_shift_profile_sees_through_the_cycle_wrap_edge() {
        let g = generators::cycle(16).unwrap();
        let p = port_shift_profile(&g);
        assert_eq!(p.offsets, vec![1, -1]);
        // Exactly the two wrap edges deviate.
        assert_eq!(p.exceptions[0], vec![(15, 0)]);
        assert_eq!(p.exceptions[1], vec![(0, 15)]);
        assert_eq!(p.num_exceptions(), 2);
    }

    #[test]
    fn port_shift_profile_on_torus_uses_row_offsets() {
        let g = generators::torus(2, 8).unwrap();
        let p = port_shift_profile(&g);
        // Four ports: ±1 (row) and ±8 (column), each with O(side)
        // wrap exceptions.
        let mut offs = p.offsets.clone();
        offs.sort_unstable();
        assert_eq!(offs, vec![-8, -1, 1, 8]);
        assert_eq!(p.num_exceptions(), 4 * 8);
    }

    #[test]
    fn port_shift_profile_is_exact_on_scattered_graphs() {
        // On a random-regular graph the profile is still *correct* —
        // the dominant offset plus exceptions reconstructs every edge.
        let g = generators::random_regular(64, 4, 9).unwrap();
        let p = port_shift_profile(&g);
        for port in 0..4 {
            let exc: std::collections::HashMap<u32, u32> =
                p.exceptions[port].iter().copied().collect();
            for u in 0..64u32 {
                let expect = g.neighbor(u as usize, port) as u32;
                let got = exc
                    .get(&u)
                    .copied()
                    .unwrap_or((u as i64 + p.offsets[port]) as u32);
                assert_eq!(got, expect, "port {port} node {u}");
            }
        }
    }

    #[test]
    fn cycle_is_already_optimally_labeled() {
        // BFS from 0 on a cycle yields bandwidth ~2 (two frontier arms);
        // the generator's natural order has bandwidth n−1 (the wrap
        // edge). RCM must not make it worse than n−1.
        let g = generators::cycle(16).unwrap();
        assert_eq!(bandwidth(&g), 15);
        let r = Relabeling::reverse_cuthill_mckee(&g);
        let h = g.relabeled(&r).unwrap();
        assert!(bandwidth(&h) <= 2, "bandwidth {}", bandwidth(&h));
    }
}
