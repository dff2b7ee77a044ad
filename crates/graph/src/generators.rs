//! Generators for the d-regular graph families used throughout the
//! paper's analysis and this reproduction's experiments.
//!
//! Every generator returns a fully validated [`RegularGraph`]; port
//! numbering (the order of each node's neighbour list) is deterministic
//! and documented per generator, because rotor-router behaviour depends
//! on it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{GraphBuilder, GraphError, RegularGraph};

/// The cycle `C_n` (2-regular). Ports: `0` = successor `(u+1) mod n`,
/// `1` = predecessor `(u−1) mod n`.
///
/// Cycles are the paper's canonical *bad expander* (µ = Θ(1/n²)): claim
/// (ii) of Theorem 2.3 and the rotor-router lower bound of Theorem 4.3
/// are both exercised on cycles.
///
/// # Errors
///
/// Returns an error if `n < 3` (smaller cycles are not simple).
pub fn cycle(n: usize) -> Result<RegularGraph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters {
            reason: format!("cycle requires n >= 3, got {n}"),
        });
    }
    let mut adjacency = Vec::with_capacity(n * 2);
    for u in 0..n {
        adjacency.push(((u + 1) % n) as u32);
        adjacency.push(((u + n - 1) % n) as u32);
    }
    RegularGraph::from_adjacency(n, 2, adjacency)
}

/// The complete graph `K_n` ((n−1)-regular). Ports at `u`: neighbours in
/// increasing order of `(u + 1 + p) mod n`.
///
/// # Errors
///
/// Returns an error if `n < 2`.
pub fn complete(n: usize) -> Result<RegularGraph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("complete graph requires n >= 2, got {n}"),
        });
    }
    let mut adjacency = Vec::with_capacity(n * (n - 1));
    for u in 0..n {
        for p in 0..n - 1 {
            adjacency.push(((u + 1 + p) % n) as u32);
        }
    }
    RegularGraph::from_adjacency(n, n - 1, adjacency)
}

/// The `dim`-dimensional hypercube `Q_dim` (`n = 2^dim`, `d = dim`).
/// Ports: port `p` flips bit `p`.
///
/// Hypercubes appear throughout the related-work bounds (`O(log^{3/2} n)`
/// for bounded-error schemes, `O(log n)` for randomized diffusion).
///
/// # Errors
///
/// Returns an error if `dim == 0` or `2^dim` overflows `u32` indexing.
pub fn hypercube(dim: usize) -> Result<RegularGraph, GraphError> {
    if dim == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "hypercube requires dim >= 1".into(),
        });
    }
    if dim >= 31 {
        return Err(GraphError::InvalidParameters {
            reason: format!("hypercube dimension {dim} too large"),
        });
    }
    let n = 1usize << dim;
    let mut adjacency = Vec::with_capacity(n * dim);
    for u in 0..n {
        for p in 0..dim {
            adjacency.push((u ^ (1 << p)) as u32);
        }
    }
    RegularGraph::from_adjacency(n, dim, adjacency)
}

/// The `r`-dimensional torus with side length `side` (`n = side^r`,
/// `d = 2r`). Ports: `2k` = +1 step in dimension `k`, `2k+1` = −1 step.
///
/// Constant-dimension tori are the paper's example of polynomially slow
/// mixing with structure (`O(1)` discrepancy for bounded-error schemes on
/// `r = O(1)` tori, §1.2).
///
/// # Errors
///
/// Returns an error if `r == 0`, `side < 3` (side 2 would create parallel
/// edges), or `side^r` overflows.
pub fn torus(r: usize, side: usize) -> Result<RegularGraph, GraphError> {
    if r == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "torus requires r >= 1".into(),
        });
    }
    if side < 3 {
        return Err(GraphError::InvalidParameters {
            reason: format!("torus requires side >= 3 to stay simple, got {side}"),
        });
    }
    let n = side
        .checked_pow(r as u32)
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| GraphError::InvalidParameters {
            reason: format!("torus {side}^{r} overflows"),
        })?;
    let d = 2 * r;
    let mut adjacency = Vec::with_capacity(n * d);
    // Mixed-radix coordinates; stride[k] = side^k. `coord` is node u's
    // coordinate vector, advanced as an odometer (dimension 0 fastest),
    // so no node pays a division.
    let mut stride = vec![1usize; r];
    for k in 1..r {
        stride[k] = stride[k - 1] * side;
    }
    let mut coord = vec![0usize; r];
    for u in 0..n {
        for (&c, &st) in coord.iter().zip(&stride) {
            let up = if c + 1 == side { u - c * st } else { u + st };
            let down = if c == 0 { u + (side - 1) * st } else { u - st };
            adjacency.push(up as u32);
            adjacency.push(down as u32);
        }
        for c in &mut coord {
            *c += 1;
            if *c < side {
                break;
            }
            *c = 0;
        }
    }
    RegularGraph::from_adjacency(n, d, adjacency)
}

/// A circulant graph: node `i` is adjacent to `(i ± o) mod n` for every
/// offset `o` in `offsets` (`d = 2·offsets.len()`). Ports alternate
/// `+o₀, −o₀, +o₁, −o₁, …`.
///
/// Circulants give tunable-diameter regular graphs for the Ω(d·diam)
/// experiments around Theorem 4.1.
///
/// # Errors
///
/// Returns an error if offsets are empty, repeated, zero, or ≥ n/2
/// rounded up (which would create self-loops or parallel edges).
pub fn circulant(n: usize, offsets: &[usize]) -> Result<RegularGraph, GraphError> {
    if offsets.is_empty() {
        return Err(GraphError::InvalidParameters {
            reason: "circulant requires at least one offset".into(),
        });
    }
    let mut sorted = offsets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != offsets.len() {
        return Err(GraphError::InvalidParameters {
            reason: "circulant offsets must be distinct".into(),
        });
    }
    for &o in offsets {
        if o == 0 || 2 * o >= n {
            return Err(GraphError::InvalidParameters {
                reason: format!("circulant offset {o} must satisfy 0 < o < n/2 (n = {n})"),
            });
        }
    }
    let d = 2 * offsets.len();
    let mut adjacency = Vec::with_capacity(n * d);
    for u in 0..n {
        for &o in offsets {
            adjacency.push(((u + o) % n) as u32);
            adjacency.push(((u + n - o) % n) as u32);
        }
    }
    RegularGraph::from_adjacency(n, d, adjacency)
}

/// The Theorem 4.2 construction: nodes `0..n`, with `i ~ j` iff
/// `(i − j) mod n ∈ {1, …, ⌊d/2⌋}` (in either direction); if `d` is odd,
/// the perfect matching `i ~ i + n/2` is added (requiring even `n`).
///
/// The first `⌊d/2⌋` nodes form a clique-like neighbourhood used to trap
/// stateless algorithms at discrepancy Ω(d).
///
/// # Errors
///
/// Returns an error if `d < 2`, `d ≥ n`, `n` is odd while `d` is odd, or
/// `n ≤ 2·⌊d/2⌋ + 1` (offsets would collide).
pub fn clique_circulant(n: usize, d: usize) -> Result<RegularGraph, GraphError> {
    if d < 2 || d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("clique_circulant requires 2 <= d < n, got d = {d}, n = {n}"),
        });
    }
    let half = d / 2;
    if n <= 2 * half + 1 {
        return Err(GraphError::InvalidParameters {
            reason: format!("clique_circulant requires n > d + 1 strictly, got n = {n}, d = {d}"),
        });
    }
    if d % 2 == 1 && n % 2 == 1 {
        return Err(GraphError::InvalidParameters {
            reason: format!("odd degree d = {d} requires even n for the antipodal matching"),
        });
    }
    let mut adjacency = Vec::with_capacity(n * d);
    for u in 0..n {
        for o in 1..=half {
            adjacency.push(((u + o) % n) as u32);
            adjacency.push(((u + n - o) % n) as u32);
        }
        if d % 2 == 1 {
            adjacency.push(((u + n / 2) % n) as u32);
        }
    }
    RegularGraph::from_adjacency(n, d, adjacency)
}

/// The Petersen graph (n = 10, d = 3): a small non-bipartite 3-regular
/// graph with odd girth 5, used by Theorem 4.3 tests beyond the cycle.
pub fn petersen() -> RegularGraph {
    let mut b = GraphBuilder::new(10, 3);
    // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i—i+5.
    for i in 0..5 {
        b.add_edge(i, (i + 1) % 5).expect("outer cycle edge");
    }
    for i in 0..5 {
        b.add_edge(5 + i, 5 + (i + 2) % 5).expect("pentagram edge");
    }
    for i in 0..5 {
        b.add_edge(i, i + 5).expect("spoke edge");
    }
    b.build().expect("petersen graph is valid")
}

/// The complete bipartite graph `K_{d,d}` (n = 2d, d-regular, bipartite).
/// Ports at `u`: partners in increasing index order.
///
/// # Errors
///
/// Returns an error if `d == 0`.
pub fn complete_bipartite(d: usize) -> Result<RegularGraph, GraphError> {
    if d == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "complete bipartite requires d >= 1".into(),
        });
    }
    let n = 2 * d;
    let mut adjacency = Vec::with_capacity(n * d);
    for u in 0..n {
        if u < d {
            for p in 0..d {
                adjacency.push((d + p) as u32);
            }
        } else {
            for p in 0..d {
                adjacency.push(p as u32);
            }
        }
    }
    RegularGraph::from_adjacency(n, d, adjacency)
}

/// A random simple d-regular graph via the configuration (pairing)
/// model with double-edge-swap repair, seeded deterministically.
///
/// For fixed `d ≥ 3` these graphs are expanders with high probability,
/// so they stand in for the "constant-degree expander" rows of the
/// paper's Table 1 (where the `O(d·log n / µ)` bound of \[17\] is tight
/// and this paper improves it to `O(d·√(log n / µ))`).
///
/// A uniform pairing of half-edges is drawn first; self-loops and
/// parallel edges are then removed by random double edge swaps (the
/// standard repair, which perturbs the distribution negligibly for the
/// `d ≪ n` regime used here — plain rejection would need `e^{Θ(d²)}`
/// attempts and is hopeless beyond `d ≈ 6`).
///
/// Ports follow pair order: node `u`'s port `p` leads to the other end
/// of the `p`-th pair that contains `u`.
///
/// # Cost
///
/// The repair tracks multiplicities in a flat *slot table* of `n·d`
/// `u32`: node `u`'s `d` slots hold the other ends of its pairs, so the
/// multiplicity of `{a, b}` (`a ≠ b`) is the number of `b`s among `a`'s
/// slots, and a committed swap rewrites four slots. There is no hashing
/// and no per-node allocation: the pairing and the slot table (4·n·d
/// bytes each) are the whole working set, and the slot table is freed
/// before the adjacency is written, so the heap peaks near 8·n·d + 8·n
/// bytes. Each node also keeps a count of its repeated slots, so a
/// multiplicity query scans `d` slots only at a node that has a
/// parallel pair, and a full bad-pair scan costs O(n·d) plus `d` per
/// pair at such a node. On a shared
/// 2-vCPU x86-64 VM, `n = 2¹⁸, d = 4` builds in 60–80 ms (the hash-map
/// version took 0.4–0.5 s) and `n = 2²⁰` in about 0.5 s (3.3–3.5 s).
/// Every multiplicity answer equals the hash map's, so the RNG draws,
/// and hence the graph, are the same for every `(n, d, seed)`; a test
/// keeps the hash-map version as the reference.
///
/// # Errors
///
/// Returns an error if `n·d` is odd, `d >= n`, `n > u32::MAX` (node
/// ids are `u32`) or `n·d` overflows `usize` — all before allocating —
/// or if repair keeps failing (practically unreachable when `d ≤ n/4`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<RegularGraph, GraphError> {
    if d == 0 || d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("random_regular requires 0 < d < n, got d = {d}, n = {n}"),
        });
    }
    let stubs = n
        .checked_mul(d)
        .filter(|_| n <= u32::MAX as usize)
        .ok_or_else(|| GraphError::InvalidParameters {
            reason: format!(
                "random_regular n = {n}, d = {d}: n exceeds u32 node ids or n*d overflows"
            ),
        })?;
    if !stubs.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("random_regular requires even n*d, got n = {n}, d = {d}"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    const MAX_ATTEMPTS: usize = 50;
    for _ in 0..MAX_ATTEMPTS {
        if let Some(g) = pairing_with_repair(n, d, &mut rng) {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed {
        generator: "random_regular",
        attempts: MAX_ATTEMPTS,
    })
}

/// Each node's partners in pair order: node `u`'s `k`-th slot holds
/// the other end of the `k`-th pair (`pairs[2i]`, `pairs[2i + 1]`)
/// that contains `u`, which is the order
/// [`GraphBuilder::add_edge`] pushes neighbours in. A self-loop fills
/// two of its node's slots.
fn partners_in_pair_order(n: usize, d: usize, pairs: &[u32]) -> Vec<u32> {
    let mut slots = vec![0u32; n * d];
    // `d < n ≤ u32::MAX`, so a `u32` counter holds any fill level.
    let mut fill = vec![0u32; n];
    for pair in pairs.chunks_exact(2) {
        for (a, b) in [(pair[0], pair[1]), (pair[1], pair[0])] {
            let a = a as usize;
            slots[a * d + fill[a] as usize] = b;
            fill[a] += 1;
        }
    }
    slots
}

/// The multiplicity table of a pairing: node `u`'s `d` slots hold the
/// other ends of its pairs, in any order, and `surplus[u]` counts the
/// slots that repeat an earlier slot of `u` — zero for every node
/// without a parallel pair, which a bad-pair query then skips.
struct SlotTable {
    d: usize,
    slots: Vec<u32>,
    surplus: Vec<u32>,
}

impl SlotTable {
    /// The table of `slots`, its surplus counted in one O(n·d) pass.
    fn new(n: usize, d: usize, slots: Vec<u32>) -> Self {
        // `seen[v] == a` once `v` has appeared in node `a`'s slots.
        let mut seen = vec![u32::MAX; n];
        let surplus = (0..n as u32)
            .zip(slots.chunks_exact(d))
            .map(|(a, node)| {
                let mut repeats = 0;
                for &v in node {
                    repeats += u32::from(seen[v as usize] == a);
                    seen[v as usize] = a;
                }
                repeats
            })
            .collect();
        Self { d, slots, surplus }
    }

    fn node(&self, a: u32) -> &[u32] {
        let a = a as usize;
        &self.slots[a * self.d..(a + 1) * self.d]
    }

    /// Whether some pair joins `a ≠ b`.
    fn joined(&self, a: u32, b: u32) -> bool {
        self.node(a).contains(&b)
    }

    /// Whether the pair `{a, b}` is a self-loop or one of several
    /// parallel pairs.
    fn is_bad(&self, a: u32, b: u32) -> bool {
        a == b
            || (self.surplus[a as usize] > 0
                && self.node(a).iter().filter(|&&s| s == b).count() > 1)
    }

    /// Points one of `a`'s slots that holds `old` at `new`, and drops
    /// the surplus count if that `old` was a repeat.
    fn rewire(&mut self, a: u32, old: u32, new: u32) {
        let a = a as usize;
        let node = &mut self.slots[a * self.d..(a + 1) * self.d];
        let k = node.iter().position(|&s| s == old).expect("tracked");
        self.surplus[a] -= u32::from(node[k + 1..].contains(&old));
        node[k] = new;
    }
}

/// One configuration-model draw followed by double-edge-swap repair of
/// self-loops and parallel edges.
fn pairing_with_repair(n: usize, d: usize, rng: &mut StdRng) -> Option<RegularGraph> {
    // The shuffled stubs; pair `i` is `(pairs[2i], pairs[2i + 1])`.
    let mut pairs: Vec<u32> = Vec::with_capacity(n * d);
    for u in 0..n as u32 {
        pairs.extend(std::iter::repeat_n(u, d));
    }
    pairs.shuffle(rng);
    let pair = |pairs: &[u32], i: usize| (pairs[2 * i], pairs[2 * i + 1]);
    let bad = |pairs: &[u32], table: &SlotTable, i: usize| {
        let (u, v) = pair(pairs, i);
        table.is_bad(u, v)
    };

    let mut table = SlotTable::new(n, d, partners_in_pair_order(n, d, &pairs));
    let m = pairs.len() / 2;
    let max_rounds = 200;
    let mut clean = false;
    for _ in 0..max_rounds {
        let bad_pairs: Vec<usize> = (0..m).filter(|&i| bad(&pairs, &table, i)).collect();
        if bad_pairs.is_empty() {
            clean = true;
            break;
        }
        for &i in &bad_pairs {
            if !bad(&pairs, &table, i) {
                continue; // fixed as a side effect of an earlier swap
            }
            let (u, v) = pair(&pairs, i);
            // Try random partners until a legal double swap appears.
            for _ in 0..64 {
                let j = rng.gen_range(0..m);
                if j == i {
                    continue;
                }
                let (mut x, mut y) = pair(&pairs, j);
                if rng.gen_bool(0.5) {
                    std::mem::swap(&mut x, &mut y);
                }
                // Proposed replacement: (u, x) and (v, y), both new
                // edges and not the same edge.
                if u == x || v == y {
                    continue;
                }
                if (u.min(x), u.max(x)) == (v.min(y), v.max(y))
                    || table.joined(u, x)
                    || table.joined(v, y)
                {
                    continue;
                }
                // Commit the swap. The checks above make {u, v} and
                // {x, y} disjoint and both new pairs unjoined, so each
                // rewire finds its slot and adds no repeat.
                table.rewire(u, v, x);
                table.rewire(v, u, y);
                table.rewire(x, y, u);
                table.rewire(y, x, v);
                pairs[2 * i + 1] = x;
                pairs[2 * j] = v;
                pairs[2 * j + 1] = y;
                break;
            }
        }
    }
    // A round that found nothing bad changed nothing, so only a repair
    // that ran out of rounds needs the final scan.
    if !clean && (0..m).any(|i| bad(&pairs, &table, i)) {
        return None;
    }

    drop(table);
    let adjacency = partners_in_pair_order(n, d, &pairs);
    drop(pairs);
    RegularGraph::from_adjacency(n, d, adjacency).ok()
}

/// An odd cycle with chords: `C_n` plus the offset-`k` circulant edges,
/// giving a 4-regular non-bipartite graph whose odd girth is controlled
/// by `n` and `k`. Used to exercise Theorem 4.3 beyond plain cycles.
///
/// `n` must be odd: an even `n` with odd `k` yields a *bipartite*
/// circulant (every offset-1 and offset-`k` edge flips node parity),
/// the opposite of what this generator documents, and even `k` merely
/// hides the problem behind a different girth. Odd `n` makes the
/// offset-1 cycle itself an odd cycle, so non-bipartiteness holds for
/// every valid `k`.
///
/// # Errors
///
/// Returns an error if `n` is even, or under the same conditions as
/// [`circulant`].
pub fn chorded_cycle(n: usize, k: usize) -> Result<RegularGraph, GraphError> {
    if n.is_multiple_of(2) {
        let detail = if k % 2 == 1 {
            "the graph would even be bipartite"
        } else {
            "the offset-1 cycle would be even"
        };
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "chorded_cycle requires odd n (got n = {n}, k = {k}): the generator's \
                 odd-cycle non-bipartite contract for the Theorem 4.3 experiments \
                 needs odd n — here {detail}"
            ),
        });
    }
    circulant(n, &[1, k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_structure() {
        let g = cycle(5).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(), 2);
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert_eq!(g.neighbors(4), &[0, 3]);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn complete_structure() {
        let g = complete(5).unwrap();
        assert_eq!(g.degree(), 4);
        assert_eq!(g.num_edges(), 10);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(3).unwrap();
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.degree(), 3);
        assert_eq!(g.neighbors(0b101), &[0b100, 0b111, 0b001]);
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn torus_structure() {
        let g = torus(2, 4).unwrap();
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.degree(), 4);
        // Node (0,0) = 0: +x is 1 (stride 1), -x is 3, +y is 4, -y is 12.
        assert_eq!(g.neighbors(0), &[1, 3, 4, 12]);
        assert!(torus(2, 2).is_err());
        assert!(torus(0, 4).is_err());
    }

    /// The odometer walk lists exactly the ports of the closed-form
    /// coordinate formula `(u / side^k) % side`, in the same order.
    #[test]
    fn torus_adjacency_matches_the_coordinate_formula() {
        for r in 1..=3usize {
            for side in 3..=9usize {
                let g = torus(r, side).unwrap();
                let n = side.pow(r as u32);
                let mut want = Vec::with_capacity(n * 2 * r);
                for u in 0..n {
                    for k in 0..r {
                        let st = side.pow(k as u32);
                        let c = (u / st) % side;
                        want.push((u - c * st + ((c + 1) % side) * st) as u32);
                        want.push((u - c * st + ((c + side - 1) % side) * st) as u32);
                    }
                }
                assert_eq!(g.adjacency_slots(), &want[..], "r={r} side={side}");
            }
        }
    }

    #[test]
    fn torus_one_dim_is_cycle() {
        let t = torus(1, 7).unwrap();
        let c = cycle(7).unwrap();
        assert_eq!(t.num_edges(), c.num_edges());
        for u in 0..7 {
            let mut a = t.neighbors(u).to_vec();
            let mut b = c.neighbors(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn circulant_structure() {
        let g = circulant(10, &[1, 2]).unwrap();
        assert_eq!(g.degree(), 4);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 8));
        assert!(!g.has_edge(0, 3));
        assert!(circulant(10, &[0]).is_err());
        assert!(circulant(10, &[5]).is_err());
        assert!(circulant(10, &[1, 1]).is_err());
        assert!(circulant(10, &[]).is_err());
    }

    #[test]
    fn clique_circulant_even_degree() {
        let g = clique_circulant(12, 4).unwrap();
        assert_eq!(g.degree(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 10));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn clique_circulant_odd_degree_has_matching() {
        let g = clique_circulant(12, 5).unwrap();
        assert_eq!(g.degree(), 5);
        assert!(g.has_edge(0, 6));
        assert!(clique_circulant(11, 5).is_err());
    }

    #[test]
    fn clique_circulant_rejects_bad_parameters() {
        assert!(clique_circulant(5, 1).is_err());
        assert!(clique_circulant(5, 5).is_err());
        assert!(clique_circulant(5, 4).is_err());
    }

    #[test]
    fn petersen_is_valid_and_three_regular() {
        let g = petersen();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(), 3);
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.degree(), 3);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(0, 1));
        assert!(complete_bipartite(0).is_err());
    }

    #[test]
    fn random_regular_is_valid_and_deterministic() {
        let g1 = random_regular(64, 4, 7).unwrap();
        let g2 = random_regular(64, 4, 7).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(g1.degree(), 4);
        let g3 = random_regular(64, 4, 8).unwrap();
        assert_ne!(g1, g3, "different seeds should give different graphs");
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        assert!(random_regular(5, 3, 0).is_err(), "odd n*d");
        assert!(random_regular(4, 4, 0).is_err(), "d >= n");
        assert!(random_regular(4, 0, 0).is_err(), "d = 0");
    }

    #[test]
    fn random_regular_handles_high_degree() {
        // Plain rejection sampling dies around d = 6; the swap repair
        // must handle the d = 8..16 range the experiments use.
        for d in [8usize, 12, 16] {
            let g = random_regular(64, d, 9).unwrap();
            assert_eq!(g.degree(), d);
            assert_eq!(g.num_edges(), 64 * d / 2);
            assert!(
                crate::traversal::is_connected(&g),
                "d = {d} sample disconnected"
            );
        }
    }

    #[test]
    fn random_regular_experiment_seeds_are_connected() {
        // The experiment suite fixes seed 42; connectivity is required
        // for the spectral-gap computation to be meaningful.
        for n in [64usize, 256, 1024] {
            let g = random_regular(n, 4, 42).unwrap();
            assert!(crate::traversal::is_connected(&g), "n = {n}");
        }
    }

    /// The generator as it stood before the slot table: a hash map of
    /// pair multiplicities and a [`GraphBuilder`]. Kept as the
    /// reference the slot table must reproduce draw for draw.
    fn reference_random_regular(n: usize, d: usize, seed: u64) -> Result<RegularGraph, GraphError> {
        use std::collections::HashMap;

        fn edge_key(u: u32, v: u32) -> (u32, u32) {
            (u.min(v), u.max(v))
        }

        fn attempt(n: usize, d: usize, rng: &mut StdRng) -> Option<RegularGraph> {
            let mut stubs: Vec<u32> = (0..n as u32)
                .flat_map(|u| std::iter::repeat_n(u, d))
                .collect();
            stubs.shuffle(rng);
            let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            let mut count: HashMap<(u32, u32), u32> = HashMap::new();
            for &(u, v) in &pairs {
                *count.entry(edge_key(u, v)).or_insert(0) += 1;
            }
            let is_bad = |pair: (u32, u32), count: &HashMap<(u32, u32), u32>| {
                pair.0 == pair.1 || count[&edge_key(pair.0, pair.1)] > 1
            };
            let m = pairs.len();
            for _ in 0..200 {
                let bad: Vec<usize> = (0..m).filter(|&i| is_bad(pairs[i], &count)).collect();
                if bad.is_empty() {
                    break;
                }
                for &i in &bad {
                    if !is_bad(pairs[i], &count) {
                        continue;
                    }
                    for _ in 0..64 {
                        let j = rng.gen_range(0..m);
                        if j == i {
                            continue;
                        }
                        let (u, v) = pairs[i];
                        let (mut x, mut y) = pairs[j];
                        if rng.gen_bool(0.5) {
                            std::mem::swap(&mut x, &mut y);
                        }
                        if u == x || v == y {
                            continue;
                        }
                        let (k1, k2) = (edge_key(u, x), edge_key(v, y));
                        if k1 == k2
                            || count.get(&k1).copied().unwrap_or(0) > 0
                            || count.get(&k2).copied().unwrap_or(0) > 0
                        {
                            continue;
                        }
                        *count.get_mut(&edge_key(u, v)).unwrap() -= 1;
                        *count.get_mut(&edge_key(pairs[j].0, pairs[j].1)).unwrap() -= 1;
                        *count.entry(k1).or_insert(0) += 1;
                        *count.entry(k2).or_insert(0) += 1;
                        pairs[i] = (u, x);
                        pairs[j] = (v, y);
                        break;
                    }
                }
            }
            if (0..m).any(|i| is_bad(pairs[i], &count)) {
                return None;
            }
            let mut builder = GraphBuilder::new(n, d);
            for &(u, v) in &pairs {
                builder.add_edge(u as usize, v as usize).ok()?;
            }
            builder.build().ok()
        }

        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            if let Some(g) = attempt(n, d, &mut rng) {
                return Ok(g);
            }
        }
        Err(GraphError::GenerationFailed {
            generator: "random_regular",
            attempts: 50,
        })
    }

    /// FNV-1a over the little-endian bytes of an adjacency table.
    fn fnv1a(slots: &[u32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in slots.iter().flat_map(|s| s.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn random_regular_matches_the_hash_map_reference() {
        // Degrees close to n keep the repair busy: most first pairings
        // there are full of loops and parallel pairs.
        let shapes = [
            (12, 11),
            (20, 9),
            (10, 3),
            (257, 6),
            (1000, 7),
            (64, 16),
            (6, 5),
        ];
        for (n, d) in shapes {
            for seed in 0..40 {
                assert_eq!(
                    random_regular(n, d, seed),
                    reference_random_regular(n, d, seed),
                    "n = {n}, d = {d}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn random_regular_fingerprint_is_pinned() {
        // The adjacency the generator produced before the slot table
        // existed; catches a change made to both implementations alike.
        let g = random_regular(1 << 14, 4, 42).unwrap();
        assert_eq!(fnv1a(g.adjacency_slots()), 0x0774_4b01_f986_4661);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn random_regular_rejects_ids_beyond_u32_before_allocating() {
        // The guard must answer before the 64 GiB n·d stub table is
        // requested; node ids past u32::MAX would otherwise truncate.
        let n = u32::MAX as usize + 2;
        for d in [2, 4] {
            assert!(matches!(
                random_regular(n, d, 0),
                Err(GraphError::InvalidParameters { .. })
            ));
        }
        assert!(matches!(
            random_regular(usize::MAX, usize::MAX - 1, 0),
            Err(GraphError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn chorded_cycle_structure() {
        let g = chorded_cycle(11, 3).unwrap();
        assert_eq!(g.degree(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        assert!(chorded_cycle(11, 1).is_err(), "duplicate offset");
    }

    #[test]
    fn chorded_cycle_rejects_even_n() {
        // Even n with odd k is bipartite — the exact opposite of the
        // documented contract — and must be refused with a clear reason.
        for (n, k) in [(12usize, 3usize), (12, 4), (100, 7)] {
            let err = chorded_cycle(n, k).unwrap_err();
            assert!(
                err.to_string().contains("odd n"),
                "({n}, {k}) error should name the odd-n requirement, got: {err}"
            );
        }
    }

    #[test]
    fn chorded_cycle_odd_n_is_non_bipartite_for_all_valid_k() {
        for (n, k) in [(9usize, 3usize), (11, 3), (11, 4), (15, 6), (21, 8)] {
            let g = chorded_cycle(n, k).unwrap();
            assert!(
                !crate::properties::is_bipartite(&g),
                "chorded_cycle({n}, {k}) must be non-bipartite"
            );
        }
    }
}
