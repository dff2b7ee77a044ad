//! Connectivity checks for the churn layer's double-edge swaps.
//!
//! The rewiring generators in `dlb-topology` must guarantee that every
//! emitted double-edge swap preserves connectivity. A full
//! [`crate::traversal::is_connected`] BFS on a scratch graph costs
//! `O(n·d)` **per candidate**, which collapses churn throughput. This
//! module answers the same question two ways.
//!
//! [`DynamicConnectivity`] is an incrementally maintained spanning
//! structure in the spirit of Holm–de Lichtenberg–Thorup ("HDT-lite"):
//!
//! * a **spanning forest** with per-edge tree/non-tree classification,
//!   stored flat: every node owns exactly `d` edge slots (a d-regular
//!   graph never holds more, and the swap primitive deletes before it
//!   inserts), so the whole structure is two cache-friendly arrays;
//! * **edge levels** `0..=⌈log₂ n⌉`: on a tree-edge deletion the
//!   replacement search walks the smaller side of the split at the
//!   edge's level via a lockstep (alternating) bidirectional BFS,
//!   promotes the smaller side's tree and same-side non-tree edges one
//!   level up, and descends a level when no crossing edge is found —
//!   the standard amortisation argument that makes repeated deletions
//!   in the same region cheap;
//! * **union-by-size component labels**: `is_connected` is a counter
//!   compare, and merging on tree-edge insertion relabels only the
//!   smaller component.
//!
//! The structure answers [`DynamicConnectivity::would_disconnect`] for
//! a candidate swap in amortised near-`O(d)` by applying the swap,
//! comparing the component count, and undoing it. Undo restores a
//! *correct* state (a valid spanning forest and exact component
//! count), not a bit-identical one: level promotions are monotone and
//! persist across undos, which is exactly what keeps the global
//! amortisation valid under the generators' apply/rollback probing.
//!
//! **Rings.** A 2-regular graph is a disjoint union of simple cycles,
//! the regime where the forest degenerates (every edge is essentially a
//! tree edge and replacements sit half a ring away). There a swap needs
//! no structure at all: [`ring_swap_delta`] decides it by walking the
//! ring through its first cut edge, and [`ring_count`] counts the rings
//! once, so a caller tracks the component count by adding the delta of
//! every swap it applies.

use crate::regular::{NodeId, RegularGraph};

/// One directed copy of an edge in the flat per-node slot table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The neighbour this slot leads to.
    to: u32,
    /// HDT level of the (undirected) edge; kept equal on both copies.
    level: u8,
    /// Whether the edge is in the spanning forest.
    tree: bool,
}

const NO_COMP: u32 = u32::MAX;

/// Incremental dynamic connectivity over a [`RegularGraph`]'s edge set.
///
/// Built from a graph snapshot with [`DynamicConnectivity::new`] (or
/// re-anchored in place with [`DynamicConnectivity::rebuild`], which
/// reuses every allocation), then kept coherent by mirroring each
/// applied swap with [`DynamicConnectivity::apply_swap`] and each
/// rolled-back swap with [`DynamicConnectivity::undo_swap`].
///
/// All swap mutators share the preconditions of
/// [`RegularGraph::apply_swap`]: `a, b, c, d` pairwise distinct, edges
/// `{a,b}` and `{c,d}` present, edges `{a,c}` and `{b,d}` absent.
/// The topology generators validate candidates against the graph
/// first, so violations are programming errors and panic in debug
/// builds.
#[derive(Debug, Clone)]
pub struct DynamicConnectivity {
    n: usize,
    /// Slots per node — the graph degree.
    cap: usize,
    /// Highest level an edge may be promoted to (`⌈log₂ n⌉`).
    max_level: u8,
    /// `n × cap` slot table; per-node prefix of length `len[u]` is live.
    slots: Vec<Slot>,
    len: Vec<u32>,
    /// Component label per node, indexing `comp_size`.
    comp: Vec<u32>,
    comp_size: Vec<u32>,
    free_labels: Vec<u32>,
    components: usize,
    /// Epoch-stamped visit marks for the lockstep searches.
    mark: Vec<u32>,
    epoch: u32,
    /// Reusable BFS queues / side lists.
    qa: Vec<u32>,
    qb: Vec<u32>,
    /// BFS parent scratch for `rebuild`'s tree classification.
    parent: Vec<u32>,
}

impl DynamicConnectivity {
    /// Builds the structure from a graph snapshot in `O(n·d)`.
    #[must_use]
    pub fn new(graph: &RegularGraph) -> Self {
        let mut dc = DynamicConnectivity {
            n: 0,
            cap: 0,
            max_level: 0,
            slots: Vec::new(),
            len: Vec::new(),
            comp: Vec::new(),
            comp_size: Vec::new(),
            free_labels: Vec::new(),
            components: 0,
            mark: Vec::new(),
            epoch: 0,
            qa: Vec::new(),
            qb: Vec::new(),
            parent: Vec::new(),
        };
        dc.rebuild(graph);
        dc
    }

    /// Re-anchors the structure to a (possibly different) graph
    /// snapshot, reusing every allocation — the per-emitting-round
    /// path in the rewiring generators. A BFS spanning forest plus
    /// level-0 non-tree classification, `O(n·d)`.
    pub fn rebuild(&mut self, graph: &RegularGraph) {
        let n = graph.num_nodes();
        let d = graph.degree();
        self.n = n;
        self.cap = d;
        // ⌈log₂ n⌉, the classic HDT level bound (promotion halves the
        // side it runs on, so a level-l tree spans ≥ 2^l nodes).
        self.max_level = if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as u8
        };
        self.slots.clear();
        self.slots.resize(
            n * d,
            Slot {
                to: 0,
                level: 0,
                tree: false,
            },
        );
        self.len.clear();
        self.len.resize(n, 0);
        self.comp.clear();
        self.comp.resize(n, NO_COMP);
        self.comp_size.clear();
        self.free_labels.clear();
        self.components = 0;
        self.mark.clear();
        self.mark.resize(n, 0);
        self.epoch = 0;
        self.parent.clear();
        self.parent.resize(n, NO_COMP);

        // One BFS per component: discovery edges are tree edges.
        let mut queue = std::mem::take(&mut self.qa);
        for root in 0..n {
            if self.comp[root] != NO_COMP {
                continue;
            }
            let label = self.comp_size.len() as u32;
            self.comp_size.push(0);
            self.components += 1;
            queue.clear();
            queue.push(root as u32);
            self.comp[root] = label;
            let mut head = 0usize;
            let mut size = 0u32;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                size += 1;
                for &v in graph.neighbors(u) {
                    let vu = v as usize;
                    if self.comp[vu] == NO_COMP {
                        self.comp[vu] = label;
                        self.parent[vu] = u as u32;
                        self.push_slot(u, v, 0, true);
                        self.push_slot(vu, u as u32, 0, true);
                        queue.push(v);
                    }
                }
            }
            self.comp_size[label as usize] = size;
        }
        self.qa = queue;

        // Second pass: every edge not claimed by a BFS discovery is a
        // non-tree edge at level 0. `parent` makes the test O(1).
        for u in 0..n {
            for &v in graph.neighbors(u) {
                let vu = v as usize;
                if vu > u && self.parent[vu] != u as u32 && self.parent[u] != v {
                    self.push_slot(u, v, 0, false);
                    self.push_slot(vu, u as u32, 0, false);
                }
            }
        }
    }

    /// Whether the tracked edge set forms a single connected component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.components == 1
    }

    /// The number of connected components.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Whether `u` and `v` are currently in the same component.
    #[must_use]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.comp[u] == self.comp[v]
    }

    /// Mirrors a double-edge swap `{a,b},{c,d} → {a,c},{b,d}`.
    ///
    /// See the type docs for preconditions.
    pub fn apply_swap(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId) {
        self.delete_edge(a, b);
        self.delete_edge(c, d);
        self.insert_edge(a, c);
        self.insert_edge(b, d);
    }

    /// Rolls back a previously applied swap: removes `{a,c},{b,d}` and
    /// restores `{a,b},{c,d}` (the slot-level inverse used by
    /// [`TopologyEvent::inverted`](crate::TopologyEvent::inverted)).
    ///
    /// Undo restores semantic state — the exact component partition
    /// and a valid spanning forest — not bit-identical internals:
    /// level promotions performed while the swap was live persist,
    /// keeping the global amortisation monotone.
    pub fn undo_swap(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId) {
        self.apply_swap(a, c, b, d);
    }

    /// Whether the swap `{a,b},{c,d} → {a,c},{b,d}` would increase the
    /// number of components, by applying it and rolling it back.
    ///
    /// Amortised near-`O(d)`; the candidate must satisfy the swap
    /// preconditions (in particular simplicity) against the tracked
    /// edge set.
    pub fn would_disconnect(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId) -> bool {
        let before = self.components;
        self.apply_swap(a, b, c, d);
        let disconnects = self.components > before;
        self.undo_swap(a, b, c, d);
        disconnects
    }

    /// Whether the graph would be disconnected (more than one
    /// component) *after* the swap `{a,b},{c,d} → {a,c},{b,d}` —
    /// exactly the accept/reject test of the connectivity-checked
    /// generators (post-swap `!is_connected`), which differs from
    /// [`DynamicConnectivity::would_disconnect`] only on graphs that
    /// are already disconnected: a merge there can still leave several
    /// components, and a split of a side ring never *increases* the
    /// answer past "disconnected".
    ///
    /// Apply-and-roll-back, amortised near-`O(d)`.
    pub fn would_leave_disconnected(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId) -> bool {
        self.apply_swap(a, b, c, d);
        let disconnected = self.components != 1;
        self.undo_swap(a, b, c, d);
        disconnected
    }

    #[inline]
    fn push_slot(&mut self, u: usize, to: u32, level: u8, tree: bool) {
        let l = self.len[u] as usize;
        debug_assert!(l < self.cap, "slot overflow at node {u}");
        self.slots[u * self.cap + l] = Slot { to, level, tree };
        self.len[u] += 1;
    }

    /// Removes the directed slot `u → v` (swap-remove) and returns it.
    #[inline]
    fn remove_slot(&mut self, u: usize, v: u32) -> Slot {
        let base = u * self.cap;
        let l = self.len[u] as usize;
        for i in 0..l {
            if self.slots[base + i].to == v {
                let slot = self.slots[base + i];
                self.slots[base + i] = self.slots[base + l - 1];
                self.len[u] -= 1;
                return slot;
            }
        }
        panic!("edge {u}->{v} not tracked");
    }

    /// Updates the level of the directed slot `u → v` (which must
    /// exist).
    #[inline]
    fn set_slot_level(&mut self, u: usize, v: u32, level: u8) {
        let base = u * self.cap;
        for i in 0..self.len[u] as usize {
            if self.slots[base + i].to == v {
                self.slots[base + i].level = level;
                return;
            }
        }
        panic!("edge {u}->{v} not tracked");
    }

    /// Promotes the directed slot `u → v` to a tree edge at `level`.
    #[inline]
    fn make_tree(&mut self, u: usize, v: u32, level: u8) {
        let base = u * self.cap;
        for i in 0..self.len[u] as usize {
            if self.slots[base + i].to == v {
                self.slots[base + i].level = level;
                self.slots[base + i].tree = true;
                return;
            }
        }
        panic!("edge {u}->{v} not tracked");
    }

    fn alloc_label(&mut self) -> u32 {
        if let Some(label) = self.free_labels.pop() {
            label
        } else {
            self.comp_size.push(0);
            (self.comp_size.len() - 1) as u32
        }
    }

    fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        let (cu, cv) = (self.comp[u], self.comp[v]);
        if cu == cv {
            // Same component: a non-tree edge at level 0.
            self.push_slot(u, v as u32, 0, false);
            self.push_slot(v, u as u32, 0, false);
            return;
        }
        // Tree edge joining two components: relabel the smaller one
        // (union by size), then link.
        let (keep, absorbed, absorbed_root) =
            if self.comp_size[cu as usize] >= self.comp_size[cv as usize] {
                (cu, cv, v)
            } else {
                (cv, cu, u)
            };
        let mut queue = std::mem::take(&mut self.qa);
        queue.clear();
        queue.push(absorbed_root as u32);
        self.comp[absorbed_root] = keep;
        let mut head = 0usize;
        while head < queue.len() {
            let x = queue[head] as usize;
            head += 1;
            let base = x * self.cap;
            for i in 0..self.len[x] as usize {
                let slot = self.slots[base + i];
                if slot.tree && self.comp[slot.to as usize] != keep {
                    self.comp[slot.to as usize] = keep;
                    queue.push(slot.to);
                }
            }
        }
        self.qa = queue;
        self.comp_size[keep as usize] += self.comp_size[absorbed as usize];
        self.free_labels.push(absorbed);
        self.components -= 1;
        self.push_slot(u, v as u32, 0, true);
        self.push_slot(v, u as u32, 0, true);
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) {
        let slot = self.remove_slot(u, v as u32);
        let back = self.remove_slot(v, u as u32);
        debug_assert_eq!(slot.tree, back.tree, "asymmetric tree flag");
        if slot.tree {
            self.replace_or_split(u, v, slot.level);
        }
    }

    /// The HDT replacement search after deleting the tree edge
    /// `{u, v}` of level `lvl`: descends level by level, each time
    /// walking the smaller side of the split in lockstep, promoting
    /// its level-`i` edges, and rewiring the first crossing non-tree
    /// edge found into the forest. If no level yields a replacement
    /// the component splits in two.
    // Index loops: `side` borrows a queue moved out of `self`, and the
    // scan bodies mutate `self` (and re-seat the queues on early
    // return), so iterator forms would fight the borrow checker.
    #[allow(clippy::needless_range_loop)]
    fn replace_or_split(&mut self, u: NodeId, v: NodeId, lvl: u8) {
        let mut qa = std::mem::take(&mut self.qa);
        let mut qb = std::mem::take(&mut self.qb);
        for i in (0..=lvl).rev() {
            // Fresh pair of visit tags (wrap-safe).
            if self.epoch >= u32::MAX - 2 {
                self.mark.fill(0);
                self.epoch = 0;
            }
            let tag_a = self.epoch + 1;
            let tag_b = self.epoch + 2;
            self.epoch += 2;

            // Lockstep BFS over tree edges of level ≥ i from both
            // endpoints; the first side to exhaust is (approximately)
            // the smaller one and is fully enumerated in its queue.
            qa.clear();
            qb.clear();
            qa.push(u as u32);
            self.mark[u] = tag_a;
            qb.push(v as u32);
            self.mark[v] = tag_b;
            let (mut ia, mut ib) = (0usize, 0usize);
            let a_side = loop {
                if ia == qa.len() {
                    break true;
                }
                let x = qa[ia] as usize;
                ia += 1;
                let base = x * self.cap;
                for s in 0..self.len[x] as usize {
                    let slot = self.slots[base + s];
                    if slot.tree && slot.level >= i && self.mark[slot.to as usize] != tag_a {
                        self.mark[slot.to as usize] = tag_a;
                        qa.push(slot.to);
                    }
                }
                if ib == qb.len() {
                    break false;
                }
                let y = qb[ib] as usize;
                ib += 1;
                let base = y * self.cap;
                for s in 0..self.len[y] as usize {
                    let slot = self.slots[base + s];
                    if slot.tree && slot.level >= i && self.mark[slot.to as usize] != tag_b {
                        self.mark[slot.to as usize] = tag_b;
                        qb.push(slot.to);
                    }
                }
            };
            let (side, tag) = if a_side { (&qa, tag_a) } else { (&qb, tag_b) };

            // Promote the smaller side's level-i tree edges to i+1
            // (both endpoints are inside the side, so each edge is
            // seen at level i exactly once).
            if i < self.max_level {
                for si in 0..side.len() {
                    let x = side[si] as usize;
                    let base = x * self.cap;
                    for s in 0..self.len[x] as usize {
                        let slot = self.slots[base + s];
                        if slot.tree && slot.level == i {
                            self.slots[base + s].level = i + 1;
                            self.set_slot_level(slot.to as usize, x as u32, i + 1);
                        }
                    }
                }
            }

            // Scan the side's level-i non-tree edges: a crossing edge
            // is the replacement (re-linked at level i); a same-side
            // edge is promoted, paying for the walk.
            for si in 0..side.len() {
                let x = side[si] as usize;
                let base = x * self.cap;
                let mut s = 0usize;
                while s < self.len[x] as usize {
                    let slot = self.slots[base + s];
                    if !slot.tree && slot.level == i {
                        let y = slot.to as usize;
                        if self.mark[y] != tag {
                            // Crossing edge: splice it into the forest
                            // at level i and we are reconnected.
                            self.make_tree(x, slot.to, i);
                            self.make_tree(y, x as u32, i);
                            self.qa = qa;
                            self.qb = qb;
                            return;
                        }
                        if i < self.max_level {
                            self.slots[base + s].level = i + 1;
                            self.set_slot_level(y, x as u32, i + 1);
                        }
                    }
                    s += 1;
                }
            }
        }

        // No replacement at any level: the deletion splits the
        // component. The level-0 walk fully enumerated the smaller
        // side — give it a fresh label. The exhausted queue is the
        // shorter one (the lockstep expands both sides node for node,
        // so the surviving side's queue is never shorter than a fully
        // enumerated one; on a tie both are complete).
        let side = if qa.len() <= qb.len() { &qa } else { &qb };
        let old = self.comp[side[0] as usize];
        let fresh = self.alloc_label();
        for &x in side.iter() {
            self.comp[x as usize] = fresh;
        }
        self.comp_size[fresh as usize] = side.len() as u32;
        self.comp_size[old as usize] -= side.len() as u32;
        self.components += 1;
        self.qa = qa;
        self.qb = qb;
    }
}

/// The node after `cur` on its ring when arriving from `prev`: `cur`'s
/// two slots hold `prev` and the successor, so their XOR with `prev`
/// leaves the successor without a branch.
#[inline]
fn ring_next(slots: &[u32], prev: usize, cur: usize) -> usize {
    (slots[2 * cur] ^ slots[2 * cur + 1]) as usize ^ prev
}

/// The number of rings (connected components) of a 2-regular graph,
/// in one `O(n)` walk.
///
/// # Panics
///
/// Panics if `graph` is not 2-regular.
#[must_use]
pub fn ring_count(graph: &RegularGraph) -> usize {
    assert_eq!(graph.degree(), 2, "ring_count needs a 2-regular graph");
    let slots = graph.adjacency_slots();
    let mut seen = vec![false; graph.num_nodes()];
    let mut rings = 0;
    for root in 0..seen.len() {
        if seen[root] {
            continue;
        }
        rings += 1;
        seen[root] = true;
        let (mut prev, mut cur) = (root, slots[2 * root] as usize);
        while cur != root {
            seen[cur] = true;
            (prev, cur) = (cur, ring_next(slots, prev, cur));
        }
    }
    rings
}

/// The change in the number of components that the double-edge swap
/// `{a,b},{c,d} → {a,c},{b,d}` makes on a 2-regular graph: `0` when the
/// ring through `{a,b}` stays whole, `+1` when it splits in two, `-1`
/// when `{c,d}` lies on another ring and the two merge.
///
/// Two walks over the ring through `{a,b}` run in lockstep, one from
/// `b` away from `a` and one from `a` away from `b`. The forward walk
/// meeting `c` first, or the backward walk meeting `d` first, leaves
/// the ring whole; the forward walk meeting `d` first, or the backward
/// walk meeting `c` first, splits it; the walks meeting each other
/// means `c` and `d` lie on another ring. Together they cover that
/// ring at most once, and their loads are independent, so on a ring
/// too large for the cache they take about half the time of one walk. The graph is only read. The swap must satisfy the
/// preconditions of [`RegularGraph::apply_swap`].
///
/// # Panics
///
/// Panics if `graph` is not 2-regular.
#[must_use]
pub fn ring_swap_delta(graph: &RegularGraph, a: NodeId, b: NodeId, c: NodeId, d: NodeId) -> isize {
    assert_eq!(graph.degree(), 2, "ring_swap_delta needs a 2-regular graph");
    debug_assert!(
        graph.has_edge(a, b) && graph.has_edge(c, d),
        "cut edges must exist"
    );
    let slots = graph.adjacency_slots();
    let (mut pf, mut f, mut pg, mut g) = (a, b, b, a);
    loop {
        (pf, f) = (f, ring_next(slots, pf, f));
        if f == c {
            return 0;
        }
        if f == d {
            return 1;
        }
        if f == g {
            return -1;
        }
        (pg, g) = (g, ring_next(slots, pg, g));
        if g == d {
            return 0;
        }
        if g == c {
            return 1;
        }
        if g == f {
            return -1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, traversal};

    /// Every simple swap candidate `{a,b},{c,d} → {a,c},{b,d}` of `g`,
    /// in node and port order.
    fn simple_swaps(g: &RegularGraph) -> Vec<(usize, usize, usize, usize)> {
        let edges: Vec<(usize, usize)> = g.directed_edges().map(|(u, _, v)| (u, v)).collect();
        let mut swaps = Vec::new();
        for &(a, b) in &edges {
            for &(c, d) in &edges {
                let simple =
                    a != c && a != d && b != c && b != d && !g.has_edge(a, c) && !g.has_edge(b, d);
                if simple {
                    swaps.push((a, b, c, d));
                }
            }
        }
        swaps
    }

    /// The number of connected components, by repeated BFS.
    fn bfs_components(g: &RegularGraph) -> usize {
        let mut reached = vec![false; g.num_nodes()];
        let mut components = 0;
        for root in 0..g.num_nodes() {
            if !reached[root] {
                components += 1;
                let dist = traversal::bfs_distances(g, root);
                for (u, &du) in dist.iter().enumerate() {
                    reached[u] |= du != traversal::UNREACHABLE;
                }
            }
        }
        components
    }

    /// Exhaustive swap candidates on a small graph, checked against
    /// the BFS oracle through apply / query / undo.
    fn check_all_swaps(g: &RegularGraph) {
        let mut dc = DynamicConnectivity::new(g);
        assert_eq!(dc.is_connected(), traversal::is_connected(g));
        let mut probe = g.clone();
        for (a, b, c, dd) in simple_swaps(g) {
            probe.apply_swap(a, b, c, dd).unwrap();
            let oracle = !traversal::is_connected(&probe);
            assert_eq!(
                dc.would_disconnect(a, b, c, dd),
                oracle,
                "swap ({a},{b})x({c},{dd})"
            );
            // On a connected graph the generators' accept test
            // coincides with the split test.
            assert_eq!(
                dc.would_leave_disconnected(a, b, c, dd),
                oracle,
                "leave-disconnected ({a},{b})x({c},{dd})"
            );
            // Apply and roll back for real.
            dc.apply_swap(a, b, c, dd);
            assert_eq!(dc.is_connected(), !oracle, "applied ({a},{b})x({c},{dd})");
            dc.undo_swap(a, b, c, dd);
            probe.apply_swap(a, c, b, dd).unwrap();
            assert_eq!(dc.is_connected(), traversal::is_connected(&probe));
        }
    }

    /// Every simple swap of a 2-regular graph: the ring count plus the
    /// walk's delta is the swapped graph's component count, and the
    /// generators' accept test `rings + delta == 1` is the BFS oracle.
    /// Returns how many swaps had each delta `-1, 0, +1`.
    fn check_ring_walk(g: &RegularGraph) -> [usize; 3] {
        let rings = ring_count(g);
        assert_eq!(rings, bfs_components(g));
        let mut seen = [0; 3];
        let mut probe = g.clone();
        for (a, b, c, d) in simple_swaps(g) {
            let delta = ring_swap_delta(&probe, a, b, c, d);
            probe.apply_swap(a, b, c, d).unwrap();
            let after = rings as isize + delta;
            assert_eq!(after, ring_count(&probe) as isize, "({a},{b})x({c},{d})");
            assert_eq!(after, bfs_components(&probe) as isize);
            assert_eq!(after == 1, traversal::is_connected(&probe));
            probe.apply_swap(a, c, b, d).unwrap();
            seen[(delta + 1) as usize] += 1;
        }
        seen
    }

    #[test]
    fn matches_bfs_oracle_on_cycle() {
        for n in 4..=14 {
            let [merges, keeps, splits] = check_ring_walk(&generators::cycle(n).unwrap());
            assert_eq!(merges, 0, "one ring has nothing to merge with");
            // A split leaves two rings of at least three nodes each.
            assert!(keeps > 0 && (splits > 0) == (n >= 6), "cycle({n})");
        }
    }

    #[test]
    fn ring_walk_counts_merges_on_two_rings() {
        // Rings 0..7 and 7..12: the swaps that cut one edge on each
        // merge them, and the rest keep or split the ring they cut.
        let ring = |u: usize, base: usize, len: usize| {
            let i = u - base;
            [base + (i + len - 1) % len, base + (i + 1) % len].map(|v| v as u32)
        };
        let adjacency = (0..12)
            .flat_map(|u| if u < 7 { ring(u, 0, 7) } else { ring(u, 7, 5) })
            .collect();
        let g = RegularGraph::from_adjacency(12, 2, adjacency).unwrap();
        let seen = check_ring_walk(&g);
        assert!(seen.iter().all(|&k| k > 0), "every delta occurs: {seen:?}");
    }

    #[test]
    fn forest_rep_matches_bfs_oracle_on_cycle() {
        // The spanning forest keeps its degenerate-cycle coverage.
        check_all_swaps(&generators::cycle(12).unwrap());
    }

    #[test]
    fn matches_bfs_oracle_on_torus() {
        check_all_swaps(&generators::torus(2, 4).unwrap());
    }

    #[test]
    fn matches_bfs_oracle_on_clique_circulant() {
        check_all_swaps(&generators::clique_circulant(14, 4).unwrap());
    }

    #[test]
    fn tracks_splits_and_rejoins_across_applied_swaps() {
        // Swapping two "parallel" cycle edges splits it into two
        // cycles; the inverse swap rejoins them.
        let g = generators::cycle(16).unwrap();
        let mut dc = DynamicConnectivity::new(&g);
        assert!(dc.is_connected());
        assert_eq!(dc.num_components(), 1);
        // Edges {0,1} and {9,8}: adding 0-9 / 1-8 closes each arc on
        // itself and splits the cycle in two.
        dc.apply_swap(0, 1, 9, 8);
        assert!(!dc.is_connected());
        assert_eq!(dc.num_components(), 2);
        assert!(dc.same_component(0, 9));
        assert!(!dc.same_component(0, 1));
        dc.undo_swap(0, 1, 9, 8);
        assert!(dc.is_connected());
        assert!(dc.same_component(0, 1));
    }

    #[test]
    fn rebuild_reanchors_to_a_new_snapshot() {
        let g1 = generators::cycle(10).unwrap();
        let mut g2 = generators::cycle(10).unwrap();
        // Disconnect g2 into two 5-cycles.
        g2.apply_swap(0, 1, 6, 5).unwrap();
        let mut dc = DynamicConnectivity::new(&g1);
        assert!(dc.is_connected());
        dc.rebuild(&g2);
        assert!(!dc.is_connected());
        assert_eq!(dc.num_components(), 2);
        dc.rebuild(&g1);
        assert!(dc.is_connected());
    }

    #[test]
    fn long_apply_undo_sequence_stays_coherent() {
        // A deterministic churn tape on a hypercube: apply a swap,
        // sometimes undo it, always compare against the BFS oracle.
        let mut g = generators::hypercube(5).unwrap();
        let mut dc = DynamicConnectivity::new(&g);
        let n = g.num_nodes();
        let d = g.degree();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut applied = 0;
        let mut attempts = 0;
        while applied < 200 && attempts < 40_000 {
            attempts += 1;
            let a = step() % n;
            let b = g.neighbor(a, step() % d);
            let c = step() % n;
            let dd = g.neighbor(c, step() % d);
            let simple =
                a != c && a != dd && b != c && b != dd && !g.has_edge(a, c) && !g.has_edge(b, dd);
            if !simple {
                continue;
            }
            dc.apply_swap(a, b, c, dd);
            g.apply_swap(a, b, c, dd).unwrap();
            assert_eq!(dc.is_connected(), traversal::is_connected(&g));
            if step() % 3 == 0 {
                dc.undo_swap(a, b, c, dd);
                g.apply_swap(a, c, b, dd).unwrap();
                assert_eq!(dc.is_connected(), traversal::is_connected(&g));
            }
            applied += 1;
        }
        assert!(applied >= 200, "tape too short: {applied}");
    }
}
