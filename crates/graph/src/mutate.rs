//! In-place topology mutation: regularity-preserving graph churn.
//!
//! The paper analyses its schemes on a *fixed* d-regular graph; the
//! dynamic-network literature (Gilbert–Meir–Paz; Berenbrink et al.,
//! *Dynamic Averaging Load Balancing on Arbitrary Graphs*) stresses
//! them on graphs that change under their feet. This module is the
//! graph half of that regime: a small vocabulary of [`TopologyEvent`]s
//! that each mutate the CSR **in place** in `O(changed edges)` — no
//! rebuild, no revalidation pass — while *provably* preserving the
//! invariants every balancer relies on:
//!
//! * **double-edge swaps** ([`RegularGraph::apply_swap`]) replace the
//!   edges `{a,b}, {c,d}` by `{a,c}, {b,d}`. Exactly four adjacency
//!   slots change, one per endpoint, so the graph stays d-regular and
//!   symmetric by construction; simplicity is checked up front and the
//!   **port numbering of every untouched port is preserved** — the
//!   rewired port keeps its index and merely leads elsewhere, which is
//!   precisely the churn that stresses port-addressed schemes;
//! * **port permutations** ([`RegularGraph::apply_port_permutation`])
//!   renumber one node's original ports without touching any edge;
//! * **node sleep/wake** ([`RegularGraph::apply_sleep`] /
//!   [`RegularGraph::apply_wake`]) mark a node failed/recovered. Edges
//!   stay in place (the physical network keeps the node reachable);
//!   the *load* consequence — an asleep node deterministically hands
//!   its queue to live neighbours at every round boundary — is computed
//!   by [`handoff_deltas`] and applied by the engine as part of its
//!   round structure.
//!
//! Every event has an exact inverse ([`TopologyEvent::inverted`]), and
//! applying the inverse restores the graph **bit for bit** (the same
//! adjacency slots are written back) — this is what lets an erroring
//! engine round roll its topology mutation back alongside its load
//! injection.
//!
//! Swaps do *not* necessarily preserve connectivity (swapping two edges
//! of a cycle splits it in two); schedule generators that promise
//! connectivity validate candidate swaps on a scratch copy before
//! emitting them (see the `dlb-topology` crate).

use crate::{GraphError, NodeId, RegularGraph};

/// One atomic topology mutation. See the [module docs](self) for the
/// semantics and preserved invariants of each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyEvent {
    /// Double-edge swap: `{a,b}, {c,d}` → `{a,c}, {b,d}`.
    Swap {
        /// First endpoint of the first removed edge (gains edge to `c`).
        a: NodeId,
        /// Second endpoint of the first removed edge (gains edge to `d`).
        b: NodeId,
        /// First endpoint of the second removed edge (gains edge to `a`).
        c: NodeId,
        /// Second endpoint of the second removed edge (gains edge to `b`).
        d: NodeId,
    },
    /// Renumber one node's original ports: new port `i` addresses the
    /// neighbour previously behind port `perm[i]`.
    PermutePorts {
        /// The node whose ports are renumbered.
        node: NodeId,
        /// A permutation of `0..d`.
        perm: Vec<u16>,
    },
    /// Mark a node failed. Its load is handed to live neighbours at
    /// every subsequent round boundary ([`handoff_deltas`]).
    Sleep {
        /// The node going down.
        node: NodeId,
    },
    /// Mark a failed node recovered.
    Wake {
        /// The node coming back.
        node: NodeId,
    },
}

impl TopologyEvent {
    /// The exact inverse event: applying it after a successful
    /// application restores the graph bit for bit (the swap inverse
    /// rewrites the very same four adjacency slots; the permutation
    /// inverse is the inverse permutation; sleep and wake undo each
    /// other — the *load* handoff of a sleep round is rolled back by
    /// the engine's delta machinery, not by this inverse).
    #[must_use]
    pub fn inverted(&self) -> TopologyEvent {
        match *self {
            // Forward removed {a,b},{c,d} and added {a,c},{b,d}; the
            // inverse must remove {a,c},{b,d} and add {a,b},{c,d} —
            // which is the swap on the pairs (a,c) and (b,d).
            TopologyEvent::Swap { a, b, c, d } => TopologyEvent::Swap { a, b: c, c: b, d },
            TopologyEvent::PermutePorts { node, ref perm } => {
                let mut inverse = vec![0u16; perm.len()];
                for (i, &p) in perm.iter().enumerate() {
                    inverse[p as usize] = i as u16;
                }
                TopologyEvent::PermutePorts {
                    node,
                    perm: inverse,
                }
            }
            TopologyEvent::Sleep { node } => TopologyEvent::Wake { node },
            TopologyEvent::Wake { node } => TopologyEvent::Sleep { node },
        }
    }

    /// A short human-readable tag for error messages and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologyEvent::Swap { .. } => "swap",
            TopologyEvent::PermutePorts { .. } => "permute-ports",
            TopologyEvent::Sleep { .. } => "sleep",
            TopologyEvent::Wake { .. } => "wake",
        }
    }
}

impl RegularGraph {
    fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u >= self.num_nodes() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                n: self.num_nodes(),
            });
        }
        Ok(())
    }

    /// Applies the double-edge swap `{a,b}, {c,d}` → `{a,c}, {b,d}` in
    /// place: exactly four adjacency slots are rewritten (the slot of
    /// `b` in `a`'s list now holds `c`, and so on), so d-regularity,
    /// symmetry and the port numbers of all untouched ports are
    /// preserved unconditionally, and the cost is `O(d)` (four port
    /// scans).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidMutation`] — leaving the graph
    /// untouched — if the four nodes are not pairwise distinct, either
    /// removed edge is absent, or either added edge already exists
    /// (which would create a parallel edge).
    pub fn apply_swap(
        &mut self,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        d: NodeId,
    ) -> Result<(), GraphError> {
        for &u in &[a, b, c, d] {
            self.check_node(u)?;
        }
        if a == b || a == c || a == d || b == c || b == d || c == d {
            return Err(GraphError::InvalidMutation {
                reason: format!("swap endpoints {a}, {b}, {c}, {d} must be pairwise distinct"),
            });
        }
        let find = |g: &RegularGraph, u: NodeId, v: NodeId| {
            g.neighbors(u)
                .iter()
                .position(|&w| w as usize == v)
                .ok_or_else(|| GraphError::InvalidMutation {
                    reason: format!("swap requires edge ({u}, {v}), which is absent"),
                })
        };
        let p_ab = find(self, a, b)?;
        let p_ba = find(self, b, a)?;
        let p_cd = find(self, c, d)?;
        let p_dc = find(self, d, c)?;
        if self.has_edge(a, c) || self.has_edge(b, d) {
            return Err(GraphError::InvalidMutation {
                reason: format!("swap would duplicate an existing edge ({a}, {c}) or ({b}, {d})"),
            });
        }
        let deg = self.degree();
        let adjacency = self.adjacency_mut();
        adjacency[a * deg + p_ab] = c as u32;
        adjacency[c * deg + p_cd] = a as u32;
        adjacency[b * deg + p_ba] = d as u32;
        adjacency[d * deg + p_dc] = b as u32;
        Ok(())
    }

    /// Renumbers `node`'s original ports in place: new port `i`
    /// addresses the neighbour previously behind port `perm[i]`. No
    /// edge changes, so every structural invariant is preserved; only
    /// port-addressed state (rotor sequences keyed on port indices)
    /// feels the churn. `O(d)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidMutation`] if `perm` is not a
    /// permutation of `0..d`, leaving the graph untouched.
    pub fn apply_port_permutation(&mut self, node: NodeId, perm: &[u16]) -> Result<(), GraphError> {
        self.check_node(node)?;
        let d = self.degree();
        if perm.len() != d {
            return Err(GraphError::InvalidMutation {
                reason: format!(
                    "port permutation has {} entries, expected d = {d}",
                    perm.len()
                ),
            });
        }
        let mut seen = vec![false; d];
        for &p in perm {
            let p = p as usize;
            if p >= d || seen[p] {
                return Err(GraphError::InvalidMutation {
                    reason: format!("port permutation is not a permutation of 0..{d}"),
                });
            }
            seen[p] = true;
        }
        let old: Vec<u32> = self.neighbors(node).to_vec();
        let adjacency = self.adjacency_mut();
        for (i, &p) in perm.iter().enumerate() {
            adjacency[node * d + i] = old[p as usize];
        }
        Ok(())
    }

    /// Marks `node` asleep (failed). `O(asleep)` list insertion; no
    /// edge changes. The load consequence — the node's queue draining
    /// to live neighbours each round — is the engine's job, via
    /// [`handoff_deltas`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidMutation`] if the node is already
    /// asleep (a schedule bug the engine surfaces rather than masks).
    pub fn apply_sleep(&mut self, node: NodeId) -> Result<(), GraphError> {
        self.check_node(node)?;
        let asleep = self.asleep_mut();
        match asleep.binary_search(&(node as u32)) {
            Ok(_) => Err(GraphError::InvalidMutation {
                reason: format!("node {node} is already asleep"),
            }),
            Err(at) => {
                asleep.insert(at, node as u32);
                Ok(())
            }
        }
    }

    /// Marks an asleep node awake again. `O(asleep)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidMutation`] if the node is not
    /// asleep.
    pub fn apply_wake(&mut self, node: NodeId) -> Result<(), GraphError> {
        self.check_node(node)?;
        let asleep = self.asleep_mut();
        match asleep.binary_search(&(node as u32)) {
            Ok(at) => {
                asleep.remove(at);
                Ok(())
            }
            Err(_) => Err(GraphError::InvalidMutation {
                reason: format!("node {node} is not asleep"),
            }),
        }
    }

    /// Dispatches one [`TopologyEvent`] to the matching `apply_*`
    /// method. On error the graph is untouched.
    ///
    /// # Errors
    ///
    /// Propagates the event's validation error.
    pub fn apply_event(&mut self, event: &TopologyEvent) -> Result<(), GraphError> {
        match event {
            TopologyEvent::Swap { a, b, c, d } => self.apply_swap(*a, *b, *c, *d),
            TopologyEvent::PermutePorts { node, perm } => self.apply_port_permutation(*node, perm),
            TopologyEvent::Sleep { node } => self.apply_sleep(*node),
            TopologyEvent::Wake { node } => self.apply_wake(*node),
        }
    }
}

/// Accumulates the deterministic failure handoff into `deltas`: every
/// asleep node's positive effective load (`loads[u] + deltas[u]`, so
/// same-round injection is included) is split evenly over its awake
/// neighbours — each gets the floor share, the first `remainder` in
/// port order one extra — and deducted from the node. Asleep nodes are
/// processed in ascending id order; because handoffs only ever target
/// awake nodes, the result is independent of that order anyway.
///
/// `O(asleep · d)` — the cost model tracks the failed set, not `n`.
///
/// Nodes with nothing to give (effective load ≤ 0) and nodes whose
/// neighbours are all asleep are skipped: debt stays where it is, and a
/// fully isolated failure keeps its queue until a neighbour recovers —
/// and, because schemes are topology-oblivious and "asleep nodes never
/// send" is enforced purely by this draining, an isolated failure
/// *keeps balancing* that retained queue (its rotor included) until
/// then; all execution paths agree on that corner bit for bit.
/// The handoff sums to zero, so token conservation is untouched.
///
/// # Errors
///
/// Returns the first awake node whose delta would leave `i64` with its
/// share added; `deltas` is then partly updated and must be discarded.
/// An asleep node whose effective load itself leaves `i64` hands
/// nothing off, so the engine's overflow check on applying the deltas
/// rejects it.
pub fn handoff_deltas(
    graph: &RegularGraph,
    loads: &[i64],
    deltas: &mut [i64],
) -> Result<(), usize> {
    debug_assert_eq!(loads.len(), graph.num_nodes());
    debug_assert_eq!(deltas.len(), graph.num_nodes());
    // The asleep list is read while only `deltas` is written, and
    // handoffs never target asleep nodes, so no entry is read after
    // being influenced by another handoff.
    for i in 0..graph.asleep_count() {
        let u = graph.asleep_nodes()[i] as usize;
        let Some(x) = loads[u].checked_add(deltas[u]) else {
            continue;
        };
        if x <= 0 {
            continue;
        }
        let awake = graph
            .neighbors(u)
            .iter()
            .filter(|&&v| graph.is_awake(v as usize))
            .count() as i64;
        if awake == 0 {
            continue;
        }
        let share = x / awake;
        let remainder = (x % awake) as usize;
        let mut taken = 0usize;
        for &v in graph.neighbors(u) {
            let v = v as usize;
            if graph.is_awake(v) {
                // `share + 1 <= x` whenever a remainder exists.
                let part = share + i64::from(taken < remainder);
                deltas[v] = deltas[v].checked_add(part).ok_or(v)?;
                taken += 1;
            }
        }
        // `deltas[u] - x` is `-loads[u]`, and `loads[u] > i64::MIN`
        // since `x > 0`.
        deltas[u] -= x;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn swap_rewires_exactly_four_slots_and_preserves_ports() {
        // C8: rewire {0,1} and {4,5} to {0,4}, {1,5}.
        let mut g = generators::cycle(8).unwrap();
        let before = g.clone();
        g.apply_swap(0, 1, 4, 5).unwrap();
        assert!(g.has_edge(0, 4) && g.has_edge(1, 5));
        assert!(!g.has_edge(0, 1) && !g.has_edge(4, 5));
        // Untouched ports unchanged; the rewired ports keep their index.
        assert_eq!(g.neighbors(0), &[4, 7], "port 0 of node 0 rewired in place");
        assert_eq!(g.neighbors(1), &[2, 5]);
        for u in [2usize, 3, 6, 7] {
            assert_eq!(g.neighbors(u), before.neighbors(u), "node {u} untouched");
        }
        // Still a valid regular graph.
        let flat: Vec<u32> = (0..8).flat_map(|u| g.neighbors(u).to_vec()).collect();
        assert!(RegularGraph::from_adjacency(8, 2, flat).is_ok());
    }

    #[test]
    fn swap_inverse_restores_bit_for_bit() {
        let mut g = generators::torus(2, 4).unwrap();
        let original = g.clone();
        let ev = TopologyEvent::Swap {
            a: 0,
            b: 1,
            c: 5,
            d: 6,
        };
        g.apply_event(&ev).unwrap();
        assert_ne!(g, original);
        g.apply_event(&ev.inverted()).unwrap();
        assert_eq!(g, original, "inverse swap must restore the exact slots");
    }

    #[test]
    fn swap_rejects_bad_inputs_and_leaves_graph_untouched() {
        let mut g = generators::cycle(8).unwrap();
        let original = g.clone();
        // Shared endpoint.
        assert!(g.apply_swap(0, 1, 1, 2).is_err());
        // Absent edge.
        assert!(g.apply_swap(0, 2, 4, 5).is_err());
        // Would duplicate an existing edge: {1,2} exists, swap of
        // {0,1},{2,3} adds {0,2} and {1,3}; pick one that collides.
        assert!(g.apply_swap(1, 0, 2, 3).is_err(), "{{1,2}} already exists");
        // Out of range.
        assert!(g.apply_swap(0, 1, 4, 99).is_err());
        assert_eq!(g, original, "rejected swaps must not mutate");
    }

    #[test]
    fn port_permutation_renumbers_without_changing_edges() {
        let mut g = generators::torus(2, 4).unwrap();
        let before: Vec<u32> = g.neighbors(0).to_vec();
        g.apply_port_permutation(0, &[3, 2, 1, 0]).unwrap();
        let after: Vec<u32> = g.neighbors(0).to_vec();
        assert_eq!(after, before.iter().rev().copied().collect::<Vec<_>>());
        // Edge set unchanged, symmetry intact.
        for &v in &before {
            assert!(g.has_edge(0, v as usize) && g.has_edge(v as usize, 0));
        }
        // Inverse restores.
        let ev = TopologyEvent::PermutePorts {
            node: 0,
            perm: vec![3, 2, 1, 0],
        };
        g.apply_event(&ev.inverted()).unwrap();
        assert_eq!(g.neighbors(0), before.as_slice());
    }

    #[test]
    fn port_permutation_rejects_non_permutations() {
        let mut g = generators::cycle(6).unwrap();
        assert!(g.apply_port_permutation(0, &[0, 0]).is_err());
        assert!(g.apply_port_permutation(0, &[0]).is_err());
        assert!(g.apply_port_permutation(0, &[0, 9]).is_err());
    }

    #[test]
    fn sleep_wake_bookkeeping() {
        let mut g = generators::cycle(6).unwrap();
        assert_eq!(g.asleep_count(), 0);
        assert!(g.is_awake(3));
        g.apply_sleep(3).unwrap();
        g.apply_sleep(1).unwrap();
        assert_eq!(g.asleep_nodes(), &[1, 3], "list stays sorted");
        assert!(!g.is_awake(3) && !g.is_awake(1) && g.is_awake(0));
        assert!(g.apply_sleep(3).is_err(), "double sleep is a schedule bug");
        g.apply_wake(3).unwrap();
        assert!(g.is_awake(3));
        assert!(g.apply_wake(3).is_err(), "double wake is a schedule bug");
        // Event inverses.
        let ev = TopologyEvent::Sleep { node: 1 };
        assert_eq!(ev.inverted(), TopologyEvent::Wake { node: 1 });
    }

    #[test]
    fn handoff_splits_load_evenly_over_awake_neighbors_in_port_order() {
        // Torus node 5 has neighbours [6, 4, 9, 1]; put 4 asleep too so
        // only three targets remain, and give 5 eleven tokens.
        let mut g = generators::torus(2, 4).unwrap();
        assert_eq!(g.neighbors(5), &[6, 4, 9, 1]);
        g.apply_sleep(4).unwrap();
        g.apply_sleep(5).unwrap();
        let mut loads = vec![0i64; 16];
        loads[5] = 11;
        let mut deltas = vec![0i64; 16];
        handoff_deltas(&g, &loads, &mut deltas).unwrap();
        // 11 over 3 awake neighbours: 4, 4, 3 in port order (6, 9, 1).
        assert_eq!(deltas[5], -11);
        assert_eq!(deltas[6], 4);
        assert_eq!(deltas[9], 4);
        assert_eq!(deltas[1], 3);
        assert_eq!(deltas[4], 0, "asleep neighbour receives nothing");
        assert_eq!(deltas.iter().sum::<i64>(), 0, "handoff conserves tokens");
    }

    #[test]
    fn handoff_includes_same_round_injection_and_skips_debt() {
        let mut g = generators::cycle(6).unwrap();
        g.apply_sleep(2).unwrap();
        g.apply_sleep(4).unwrap();
        let loads = vec![0i64, 0, 3, 0, -5, 0];
        // Same-round injection of 5 onto node 2 joins the handoff.
        let mut deltas = vec![0i64; 6];
        deltas[2] = 5;
        handoff_deltas(&g, &loads, &mut deltas).unwrap();
        assert_eq!(deltas[2], -3, "3 held + 5 injected, all forwarded");
        assert_eq!(deltas[1], 4);
        assert_eq!(deltas[3], 4);
        assert_eq!(deltas[4], 0, "negative load is debt, not handed off");
    }

    /// A share that pushes an awake neighbour's delta past `i64::MAX`
    /// (a hotspot injecting `i64::MAX` next to a failed node with
    /// tokens) used to panic with an add overflow in debug builds and
    /// wrap in release. It must name the neighbour.
    #[test]
    fn handoff_share_overflowing_a_delta_names_the_node() {
        let mut g = generators::cycle(6).unwrap();
        g.apply_sleep(1).unwrap();
        let loads = vec![0i64, 4, 0, 0, 0, 0];
        let mut deltas = vec![0i64; 6];
        deltas[0] = i64::MAX;
        assert_eq!(handoff_deltas(&g, &loads, &mut deltas), Err(0));

        // An asleep node whose own load overflows with its injection
        // hands nothing off; the engine rejects it when applying.
        let loads = vec![0i64, i64::MAX, 0, 0, 0, 0];
        let mut deltas = vec![0i64; 6];
        deltas[1] = 1;
        assert_eq!(handoff_deltas(&g, &loads, &mut deltas), Ok(()));
        assert_eq!(deltas, vec![0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn handoff_with_all_neighbors_asleep_keeps_the_queue() {
        let mut g = generators::cycle(6).unwrap();
        for u in [1usize, 2, 3] {
            g.apply_sleep(u).unwrap();
        }
        let loads = vec![0i64, 0, 7, 0, 0, 0];
        let mut deltas = vec![0i64; 6];
        handoff_deltas(&g, &loads, &mut deltas).unwrap();
        assert_eq!(deltas[2], 0, "no live neighbour: queue stays put");
    }
}
