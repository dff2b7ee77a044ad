//! Vectorized whole-array rounds for uniform closed-form schemes.
//!
//! For the SEND family a node's `d⁺` port flows are more structure
//! than the mathematics needs — every original port of node `u`
//! carries the *same* flow `b(x_u)`, a pure function of the node's
//! load:
//!
//! * **SEND(⌊x/d⁺⌋)**: `b(x) = ⌊x/d⁺⌋` (self-loops keep the surplus at
//!   home, so only `b` ever crosses an edge);
//! * **SEND([x/d⁺])**: `b(x) = ⌊(x + ⌊d⁺/2⌋)/d⁺⌋` — the half-up
//!   nearest integer, identical to the scalar rule `base + (2e ≥ d⁺)`
//!   for both parities of `d⁺`.
//!
//! A whole round is then two array passes:
//!
//! ```text
//! pass 1:  b[u]    = (x[u] + bias) / d⁺        (bias = 0 or ⌊d⁺/2⌋)
//! pass 2:  x'[u]   = x[u] − d·b[u] + Σ_{p<d} b[nbr(u, p)]
//! ```
//!
//! with the division strength-reduced to a shift (power-of-two `d⁺`)
//! or a Granlund–Montgomery multiply-high (everything else). Two layers
//! run them:
//!
//! * the **vector rounds** of this module, on static, closed, awake
//!   systems: both passes written once, generic over the load word, as
//!   explicit 8/16-lane chunked loops the autovectorizer lifts (no
//!   `std::simd`, so the vendored toolchain builds unchanged), with the
//!   gather planned once per call;
//! * the scalar kernel's **closed-form round** ([`super`]) wherever
//!   the vector rounds do not run — open or churning systems, asleep
//!   nodes, loads near `i64::MAX`, the vector layer off: pass 1 is
//!   `SendRule::send_all` (exact for every `i64` load) and pass 2 is
//!   the same CSR gather (`gather_csr`), re-reading the live adjacency
//!   every round.
//!
//! **Why the overdraw check vanishes on this path** (assert-backed in
//! the round loops):
//!
//! * Floor: `d·b(x) ≤ d⁺·⌊x/d⁺⌋ ≤ x` — a node never sends more than it
//!   has, for any `d°` (the surplus stays home either way).
//! * Round: dispatched only when `d° ≥ d` (the scheme's own class
//!   requirement). Then `d⁺ ≥ 2d`, and rounding up implies
//!   `e = x mod d⁺ ≥ ⌈d⁺/2⌉ ≥ d`, so
//!   `d·b(x) = d·⌊x/d⁺⌋ + d ≤ d⁺·⌊x/d⁺⌋ + e = x`.
//!
//! Consequently loads stay non-negative invariantly once the engine's
//! entry check passes, `NegativeLoad` keeps exact step/node parity with
//! the scalar kernel (both reject a negative seed at round 1, lowest id
//! first), and per-round negative accounting is identically zero.
//!
//! Pass 2 comes in two gather strategies behind one dispatch:
//!
//! * **banded** — when the labeling is shift-structured (each port's
//!   neighbour is `u + o_p` for all but a few wrap nodes), the gather
//!   becomes one shifted whole-slice add per port plus an exception
//!   patch list: zero index gathers in the hot loop. The planner finds
//!   `o_p` by a majority vote over the adjacency and, under `Auto`,
//!   falls back to blocked as soon as the misses pass `n/8` — two
//!   sequential sweeps, no hashing, and no patch list on the blocked
//!   outcome.
//! * **blocked CSR** — otherwise a sequential sweep over the CSR
//!   adjacency, degree-monomorphised for `d ∈ {2, 4}`; the window of
//!   `b` it gathers from stays cache-resident when the labeling is
//!   bandwidth-reduced (`dlb_graph::relabel`'s reverse Cuthill–McKee).
//!
//! **Range split.** Pass 1 writes `b` and `next` only at the node it
//! visits, and pass 2 writes `next` only at the node it visits, so both
//! passes split by contiguous node range. The serial path runs
//! `rounds` over the one full range; `Engine::run_parallel` runs the
//! same function on `threads` workers, one range each, with a barrier
//! after each pass (`crate::parallel`). Every worker reads all of `b` in
//! pass 2, and nothing else crosses ranges.
//!
//! Finally, an **`i32` compressed mode** runs the same passes over
//! `Vec<i32>` front/back buffers at twice the lane density. A run whose
//! entry maximum plus the proven per-round growth could pass the
//! headroom limit compares every round's maximum (over all ranges)
//! against it; the moment the guard trips the run converts to the i64
//! buffers and continues — a loud, counted fallback
//! ([`VectorStats::i32_fallbacks`]), never silent wraparound.

use std::ops::Range;

use dlb_graph::BalancingGraph;

/// The closed-form uniform flow a scheme sends over **every** original
/// port, as a function of the node's load — the capability the vector
/// path executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformSpec {
    /// `b(x) = ⌊x/d⁺⌋` — SEND(⌊x/d⁺⌋) on any graph.
    Floor,
    /// `b(x) = ⌊(x + ⌊d⁺/2⌋)/d⁺⌋` — SEND([x/d⁺]), valid only with
    /// `d° ≥ d` (the scheme's own class requirement; see the module
    /// docs for why that makes overdraw impossible).
    Round,
}

impl UniformSpec {
    /// The pre-division additive bias that turns floor division into
    /// this spec's rounding rule.
    #[inline]
    #[must_use]
    pub fn bias(self, d_plus: usize) -> u64 {
        match self {
            UniformSpec::Floor => 0,
            UniformSpec::Round => (d_plus / 2) as u64,
        }
    }
}

/// Capability trait: a scheme that can declare its per-port flows as a
/// closed-form uniform function of load on the given graph.
///
/// Implementations return `None` on graphs where the closed form does
/// not hold (e.g. SEND([x/d⁺]) with `d° < d`, which must keep the
/// scalar path so its error behaviour stays bit-identical). Stateful
/// schemes (rotor-router) simply never implement this trait — the
/// default [`KernelBalancer::uniform_kernel`](super::KernelBalancer::uniform_kernel)
/// hook already answers `None` for them.
pub trait UniformKernel {
    /// The uniform closed form on `gp`, if the scheme has one there.
    fn uniform_spec(&self, gp: &BalancingGraph) -> Option<UniformSpec>;
}

/// Which gather strategy the vector path uses for pass 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorStrategy {
    /// Probe the labeling and pick: banded when at most `n/8`
    /// neighbours miss their port's shift offset, blocked CSR
    /// otherwise.
    #[default]
    Auto,
    /// Force shifted-slice adds + exception patches (correct on any
    /// graph; fast only when exceptions are rare).
    Banded,
    /// Force the sequential CSR gather.
    BlockedCsr,
}

/// Which load width the vector path runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorWidth {
    /// `i32` when the entry maximum fits the default headroom limit
    /// ([`I32_HEADROOM_LIMIT`]), `i64` otherwise.
    #[default]
    Auto,
    /// Force the full-width `i64` buffers.
    I64,
    /// Force the compressed mode with an explicit headroom limit
    /// (clamped to [`I32_HEADROOM_LIMIT`]; primarily a test knob for
    /// exercising the mid-run fallback with small loads).
    I32 {
        /// Maximum load at which an `i32` round may start.
        limit: i32,
    },
}

/// Configuration of the vector dispatch — a tuning/test knob; the
/// defaults (`enabled`, everything `Auto`) are what production runs
/// want, and every setting is bit-identical to every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorConfig {
    /// Master switch; `false` keeps every run on the scalar kernel,
    /// where a uniform scheme streams its closed form (the independent
    /// references the differential batteries pin every path against
    /// are [`Engine::step`](crate::Engine::step) and
    /// [`Path::Planned`](crate::Path::Planned) runs).
    pub enabled: bool,
    /// Gather strategy selection.
    pub strategy: VectorStrategy,
    /// Load width selection.
    pub width: VectorWidth,
}

impl Default for VectorConfig {
    fn default() -> Self {
        VectorConfig {
            enabled: true,
            strategy: VectorStrategy::Auto,
            width: VectorWidth::Auto,
        }
    }
}

/// Counters the vector path maintains across an engine's lifetime —
/// what the tests that vector-eligible runs actually dispatched (and
/// took the expected gather and width) read. Exported as
/// `engine_vector_*` counters by the engine's `fill_metrics` into the
/// dlb-obs MetricRegistry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorStats {
    /// Vector-path runs dispatched (each kernel-path run that took the
    /// whole-array path counts once).
    pub runs: u64,
    /// Rounds executed with the banded (shifted-slice) gather.
    pub rounds_banded: u64,
    /// Rounds executed with the sequential CSR gather.
    pub rounds_blocked: u64,
    /// Rounds executed over the compressed `i32` buffers (a subset of
    /// the two counters above).
    pub rounds_i32: u64,
    /// Mid-run (or at-entry, for a forced-`i32` run whose seed never
    /// fit) conversions from `i32` back to `i64` because the headroom
    /// guard tripped.
    pub i32_fallbacks: u64,
}

/// Default `i32` headroom limit: loads at or below this may enter an
/// `i32` round. Intermediates are bounded by `2·limit + 2·d` even
/// through the banded patch pass (each node receives at most `d`
/// legitimate and `d` transiently-wrong `b` additions, each at most
/// `(limit + bias)/d⁺ + 1`), so `i32::MAX / 8` leaves a ~4× margin
/// below `i32::MAX` on top of that worst case.
pub const I32_HEADROOM_LIMIT: i32 = i32::MAX / 8;

/// i64 safety ceiling: the vector path declines (returns to the scalar
/// kernel) when the entry maximum plus the worst-case per-round growth
/// (`2·d⁺` per round, see `max_growth_bound`) could exceed this. The
/// scalar kernel handles such astronomically loaded runs bit-exactly;
/// declining keeps the vector path's intermediate sums provably
/// overflow-free without per-element checks.
const I64_SAFE_LIMIT: i64 = i64::MAX / 8;

/// Banded dispatch threshold: Auto picks banded when total port-shift
/// exceptions are at most `n / BANDED_EXCEPTION_DIV`.
const BANDED_EXCEPTION_DIV: usize = 8;

/// Strength-reduced unsigned division by the runtime constant `d⁺`.
///
/// For non-powers-of-two this is the Granlund–Montgomery round-up
/// scheme: with `ℓ = ⌈log₂ d⌉`, `p = N − 1 + ℓ` and
/// `m = ⌈2^p / d⌉`, `⌊x·m / 2^p⌋ = ⌊x/d⌋` holds for all
/// `0 ≤ x < 2^(N−1)`: writing `Δ = m·d − 2^p ∈ [0, d)` and
/// `x = qd + r`, the error term is `r/d + x·Δ/(d·2^p) < 1` because
/// `x·Δ < 2^(N−1)·d ≤ 2^(N−1+ℓ) = 2^p`. The i64 variant (`N = 64`)
/// covers every non-negative `i64` load; the i32 variant (`N = 32`)
/// covers every value the compressed mode admits. `m` fits the word:
/// for non-powers-of-two, `d > 2^(ℓ−1)` gives `m < 2^N`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DivMagic {
    /// `d⁺ = 1`: the identity (a 1-regular balancing graph).
    One,
    /// `d⁺` a power of two: a plain shift, which autovectorizes best.
    Pow2 {
        /// `log₂ d⁺`.
        shift: u32,
    },
    /// Multiply-high by the precomputed reciprocal.
    Mul {
        /// `⌈2^shift / d⁺⌉`.
        mul: u64,
        /// `N − 1 + ⌈log₂ d⁺⌉`.
        shift: u32,
    },
}

impl DivMagic {
    /// Builds the reciprocal for dividends `x < 2^63` (i64 loads).
    fn new64(d: u64) -> DivMagic {
        debug_assert!(d >= 1);
        if d == 1 {
            DivMagic::One
        } else if d.is_power_of_two() {
            DivMagic::Pow2 {
                shift: d.trailing_zeros(),
            }
        } else {
            let l = 64 - (d - 1).leading_zeros();
            let p = 63 + l;
            let mul = (1u128 << p).div_ceil(u128::from(d)) as u64;
            DivMagic::Mul { mul, shift: p }
        }
    }

    /// Builds the reciprocal for dividends `x < 2^31` (i32 loads); the
    /// multiply stays within `u64`, which the autovectorizer lowers to
    /// packed 32×32→64 multiplies.
    fn new32(d: u64) -> DivMagic {
        debug_assert!(d >= 1);
        if d == 1 {
            DivMagic::One
        } else if d.is_power_of_two() {
            DivMagic::Pow2 {
                shift: d.trailing_zeros(),
            }
        } else {
            let l = 64 - (d - 1).leading_zeros();
            let p = 31 + l;
            let mul = (1u64 << p).div_ceil(d);
            debug_assert!(mul < (1u64 << 32));
            DivMagic::Mul { mul, shift: p }
        }
    }

    /// `⌊x / d⁺⌋` for `x < 2^63` (use with [`DivMagic::new64`]).
    #[inline]
    fn div64(self, x: u64) -> u64 {
        match self {
            DivMagic::One => x,
            DivMagic::Pow2 { shift } => x >> shift,
            DivMagic::Mul { mul, shift } => ((u128::from(x) * u128::from(mul)) >> shift) as u64,
        }
    }

    /// `⌊x / d⁺⌋` for `x < 2^31` (use with [`DivMagic::new32`]).
    #[inline]
    fn div32(self, x: u32) -> u32 {
        match self {
            DivMagic::One => x,
            DivMagic::Pow2 { shift } => x >> shift,
            DivMagic::Mul { mul, shift } => ((u64::from(x) * mul) >> shift) as u32,
        }
    }
}

/// `b(x)` of one spec for a single `i64` load, exact for **every**
/// `x ≥ 0` — the rule the scalar kernel's closed-form round
/// ([`super`]) evaluates once per node, in pass 1
/// ([`send_all`](SendRule::send_all)). [`Word::send`] divides `x + bias`,
/// which leaves [`DivMagic::div64`]'s proven range for
/// `x > i64::MAX − bias` (the vector layer declines such loads); this
/// divides `x` alone and rounds up when `r + bias ≥ d⁺` for the
/// remainder `r`, which is the same quotient: `⌊(qd⁺ + r + bias)/d⁺⌋ =
/// q + [r + bias ≥ d⁺]` because `r + bias < 2d⁺`. For the round spec
/// that is the scalar rule `base + (2e ≥ d⁺)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendRule {
    magic: DivMagic,
    d_plus: u64,
    bias: u64,
}

impl SendRule {
    /// The rule of `spec` on a graph with total degree `d_plus ≥ 1`.
    pub(crate) fn new(spec: UniformSpec, d_plus: usize) -> SendRule {
        SendRule {
            magic: DivMagic::new64(d_plus as u64),
            d_plus: d_plus as u64,
            bias: spec.bias(d_plus),
        }
    }

    /// The flow over each original port of a node with load `x ≥ 0`:
    /// the per-node reference that [`send_all`](SendRule::send_all)
    /// must equal element by element.
    #[cfg(test)]
    pub(crate) fn send(self, x: i64) -> i64 {
        let div = |x| self.magic.div64(x);
        if self.bias == 0 {
            self.apply::<false>(x, div)
        } else {
            self.apply::<true>(x, div)
        }
    }

    /// `b(x)` from the floor quotient `div(x) = ⌊x/d⁺⌋`: the floor spec
    /// (`ROUND = false`, `bias = 0`) returns it, the round spec adds one
    /// when the remainder `r` has `r + bias ≥ d⁺`.
    #[inline(always)]
    fn apply<const ROUND: bool>(self, x: i64, div: impl Fn(u64) -> u64) -> i64 {
        let x = x as u64;
        let q = div(x);
        if !ROUND {
            return q as i64;
        }
        let r = x - q * self.d_plus;
        (q + u64::from(r + self.bias >= self.d_plus)) as i64
    }

    /// Pass 1 of the scalar kernel's closed-form round, over whole
    /// arrays: `sends[u] = b(cur[u])`. The reciprocal and the spec are
    /// matched once per call, outside the loop, so every arm runs a
    /// straight-line body — a shift for SEND(⌊x/d⁺⌋) at a power-of-two
    /// `d⁺`, which the autovectorizer lifts — and each node pays one
    /// division. Each arm rebuilds its [`DivMagic`] variant as a
    /// literal, so [`DivMagic::div64`] stays the one divider and the
    /// result is exactly `send`'s for every `x ≥ 0`.
    pub(crate) fn send_all(self, cur: &[i64], sends: &mut [i64]) {
        match self.magic {
            DivMagic::One => self.send_each(cur, sends, |x| DivMagic::One.div64(x)),
            DivMagic::Pow2 { shift } => {
                self.send_each(cur, sends, move |x| DivMagic::Pow2 { shift }.div64(x));
            }
            DivMagic::Mul { mul, shift } => {
                self.send_each(cur, sends, move |x| DivMagic::Mul { mul, shift }.div64(x));
            }
        }
    }

    /// One reciprocal's arm of [`send_all`](SendRule::send_all): `div`
    /// is `⌊x/d⁺⌋`, and the spec is decided here, outside the loop.
    /// Forced inline, like [`csr_rows`], so that each arm compiles to its
    /// own straight-line loop (EXPERIMENTS.md S15 measures the round
    /// without these hints).
    #[inline(always)]
    fn send_each(self, cur: &[i64], sends: &mut [i64], div: impl Fn(u64) -> u64 + Copy) {
        debug_assert!(
            cur.iter().all(|&x| x >= 0),
            "closed-form rounds require x ≥ 0"
        );
        if self.bias == 0 {
            for (b, &x) in sends.iter_mut().zip(cur) {
                *b = self.apply::<false>(x, div);
            }
        } else {
            for (b, &x) in sends.iter_mut().zip(cur) {
                *b = self.apply::<true>(x, div);
            }
        }
    }
}

/// A load word the two passes run over: `i64`, or `i32` in the
/// compressed mode. Monomorphising the passes over the word keeps one
/// copy of each pass; `LANES` fixes the explicit chunk width the
/// autovectorizer lifts (8 × i64 or 16 × i32 per chunk).
pub(crate) trait Word:
    Copy
    + Default
    + Ord
    + Send
    + Sync
    + Into<i64>
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
{
    /// Lanes per explicitly chunked loop iteration.
    const LANES: usize;
    /// Narrows a load the caller has proven fits the word.
    fn narrow(x: i64) -> Self;
    /// The reciprocal of `d⁺` for this word's dividend range.
    fn magic(d_plus: u64) -> DivMagic;
    /// `(self + bias) / d⁺` for a non-negative load.
    fn send(self, bias: u64, magic: DivMagic) -> Self;
}

impl Word for i64 {
    const LANES: usize = 8;
    #[inline]
    fn narrow(x: i64) -> i64 {
        x
    }
    fn magic(d_plus: u64) -> DivMagic {
        DivMagic::new64(d_plus)
    }
    #[inline]
    fn send(self, bias: u64, magic: DivMagic) -> i64 {
        magic.div64(self as u64 + bias) as i64
    }
}

impl Word for i32 {
    const LANES: usize = 16;
    #[inline]
    fn narrow(x: i64) -> i32 {
        debug_assert!(i32::try_from(x).is_ok());
        x as i32
    }
    fn magic(d_plus: u64) -> DivMagic {
        DivMagic::new32(d_plus)
    }
    #[inline]
    fn send(self, bias: u64, magic: DivMagic) -> i32 {
        magic.div32(self as u32 + bias as u32) as i32
    }
}

/// The gather plan pass 2 executes.
pub(crate) enum Gather {
    /// Per original port: the majority-vote shift offset, plus the
    /// patches for the nodes whose neighbour is not at that offset.
    Banded {
        offsets: Vec<i64>,
        /// `(destination, source, subtract)`, sorted by destination so
        /// a node range owns one contiguous run of patches.
        patches: Vec<(u32, u32, bool)>,
    },
    /// A sequential CSR sweep: node `u` adds `b` over its `d` ports. Its
    /// window of `b` stays cache-resident when the labeling is
    /// bandwidth-reduced (`dlb_graph::relabel`'s reverse Cuthill–McKee).
    Blocked,
}

/// Picks the gather strategy and builds its plan. Each original port's
/// offset is the Boyer–Moore majority vote over `neighbor(u, p) − u`;
/// a second pass counts the nodes whose neighbour misses it. Auto
/// gives up on the banded plan the moment the misses of all ports
/// together pass `n / BANDED_EXCEPTION_DIV` (too many wrap edges — a
/// 2-row torus, a scattered random graph) and takes the blocked path
/// without building a patch list.
///
/// Auto decides exactly as [`dlb_graph::relabel::port_shift_profile`]'s
/// exception count would: within the budget every port's most frequent
/// offset covers at least `7n/8 > n/2` nodes, so the vote returns it,
/// and over the budget the vote's offset misses at least as often as
/// the most frequent one. Both strategies are exact on every graph —
/// a forced banded plan patches whatever offset the vote picked — so
/// the cutover is purely a performance decision.
fn plan_gather(gp: &BalancingGraph, choice: VectorStrategy) -> Gather {
    if choice == VectorStrategy::BlockedCsr {
        return Gather::Blocked;
    }
    let graph = gp.graph();
    let (n, d) = (graph.num_nodes(), graph.degree());
    if d == 0 {
        return Gather::Banded {
            offsets: Vec::new(),
            patches: Vec::new(),
        };
    }
    let adj = graph.adjacency_slots();
    let offset = |u: usize, v: u32| i64::from(v) - u as i64;

    // Pass 1: one majority-vote candidate per port.
    let mut offsets = vec![0i64; d];
    let mut votes = vec![0u32; d];
    for (u, nbrs) in adj.chunks_exact(d).enumerate() {
        for ((&v, cand), k) in nbrs.iter().zip(&mut offsets).zip(&mut votes) {
            let o = offset(u, v);
            if *k == 0 {
                *cand = o;
                *k = 1;
            } else if *cand == o {
                *k += 1;
            } else {
                *k -= 1;
            }
        }
    }

    // Pass 2: the misses of all ports, against the Auto budget.
    let budget = match choice {
        VectorStrategy::Auto => n / BANDED_EXCEPTION_DIV,
        _ => usize::MAX,
    };
    let mut misses = 0usize;
    for (u, nbrs) in adj.chunks_exact(d).enumerate() {
        misses += nbrs
            .iter()
            .zip(&offsets)
            .filter(|&(&v, &o)| offset(u, v) != o)
            .count();
        if misses > budget {
            return Gather::Blocked;
        }
    }

    // The bulk shifted add sends `b[u]` to `u + o` for every in-range
    // `u + o`; a miss `(u, v)` takes that back and adds `b[u]` to its
    // real neighbour `v` instead.
    let mut patches = Vec::with_capacity(2 * misses);
    for (u, nbrs) in adj.chunks_exact(d).enumerate() {
        for (&v, &o) in nbrs.iter().zip(&offsets) {
            if offset(u, v) != o {
                let shifted = u as i64 + o;
                if (0..n as i64).contains(&shifted) {
                    patches.push((shifted as u32, u as u32, true));
                }
                patches.push((v, u as u32, false));
            }
        }
    }
    patches.sort_unstable();
    Gather::Banded { offsets, patches }
}

/// Worst-case additive growth of the maximum load per round: pass 2
/// gives `x' ≤ x·(1 − d/d⁺) + d·b_max + receives' bias slack`, which
/// for both specs is bounded by `max + 2·d ≤ max + 2·d⁺` (Floor is in
/// fact non-increasing; Round can climb by `O(d)` when a node between
/// two heavier neighbours rounds down while they round up).
fn max_growth_bound(d_plus: usize, steps: usize) -> i64 {
    (2 * d_plus as i64).saturating_mul(steps as i64)
}

/// Everything one round needs, fixed for the whole run and shared by
/// every worker.
pub(crate) struct Kernel<'a, W> {
    /// The original degree `d`.
    degree: usize,
    /// The pre-division bias of the spec.
    bias: u64,
    magic: DivMagic,
    gather: &'a Gather,
    adj: &'a [u32],
    /// The `i32` headroom limit, when this run could reach it: each
    /// round's maximum is then compared against it. `None` when the
    /// entry maximum plus the growth bound stays below the limit, so no
    /// round can trip and no worker exchanges its maximum.
    guard: Option<W>,
}

/// How one worker's rounds see the send array `b` between the passes:
/// the whole array on the serial path, a range of it per worker on the
/// range-split path (`crate::parallel`).
pub(crate) trait Exchange<W> {
    /// This worker's range of `b`, for pass 1 to write.
    fn own(&mut self) -> &mut [W];
    /// Ends pass 1 and returns all of `b` for pass 2 to read.
    fn all(&mut self) -> &[W];
    /// Ends pass 2. With `guarded` set, combines the workers' range
    /// maxima into the round maximum; otherwise returns `local`.
    fn round_max(&mut self, local: W, guarded: bool) -> W;
}

/// The serial exchange: one worker owning all of `b`.
struct Whole<W>(Vec<W>);

impl<W> Exchange<W> for Whole<W> {
    fn own(&mut self) -> &mut [W] {
        &mut self.0
    }
    fn all(&mut self) -> &[W] {
        &self.0
    }
    fn round_max(&mut self, local: W, _guarded: bool) -> W {
        local
    }
}

/// Runs up to `steps` rounds over the node range `lo..lo + front.len()`
/// — the round loop of the serial path (the whole range) and of every
/// range-split worker. `front` holds the range's loads on entry; after
/// the call the range's final loads are in `front` when the returned
/// round count is even and in `back` when it is odd. Stops early, after
/// the round that pushed the maximum over the guard, with rounds still
/// to run.
pub(crate) fn rounds<W: Word, X: Exchange<W>>(
    front: &mut [W],
    back: &mut [W],
    lo: usize,
    ex: &mut X,
    k: &Kernel<'_, W>,
    steps: usize,
) -> usize {
    let mut done = 0;
    while done < steps {
        let (cur, next) = if done % 2 == 0 {
            (&*front, &mut *back)
        } else {
            (&*back, &mut *front)
        };
        pass1(cur, ex.own(), next, k);
        let local = pass2(next, lo, ex.all(), k);
        let round_max = ex.round_max(local, k.guard.is_some());
        done += 1;
        if k.guard.is_some_and(|limit| round_max > limit) && done < steps {
            break;
        }
    }
    done
}

/// Pass 1 over one node range: `b[u] = (x[u] + bias) / d⁺` and, fused
/// in while both arrays are hot, `next[u] = x[u] − d·b[u]`.
fn pass1<W: Word>(cur: &[W], b: &mut [W], next: &mut [W], k: &Kernel<'_, W>) {
    debug_assert!(
        cur.iter().all(|&x| x >= W::default()),
        "vector path requires x ≥ 0"
    );
    let (d, bias, magic) = (W::narrow(k.degree as i64), k.bias, k.magic);
    let mut cx = cur.chunks_exact(W::LANES);
    let mut cb = b.chunks_exact_mut(W::LANES);
    let mut cn = next.chunks_exact_mut(W::LANES);
    for ((xs, bs), ns) in (&mut cx).zip(&mut cb).zip(&mut cn) {
        for i in 0..W::LANES {
            let q = xs[i].send(bias, magic);
            bs[i] = q;
            ns[i] = xs[i] - d * q;
        }
    }
    for ((&x, bq), nx) in cx
        .remainder()
        .iter()
        .zip(cb.into_remainder())
        .zip(cn.into_remainder())
    {
        let q = x.send(bias, magic);
        *bq = q;
        *nx = x - d * q;
    }
    // Overdraw-freedom, by construction (module docs): d·b(x) ≤ x for
    // both specs on their admitted graphs, so next ≥ 0 before receives.
    debug_assert!(next.iter().all(|&x| x >= W::default()));
}

/// Pass 2 over the node range `lo..lo + next.len()`: adds every
/// neighbour's `b` (all of `b`, `b.len() == n`) into the range. Returns
/// the range's maximum load — computed only when the run is guarded on
/// the banded gather, where it costs an extra sweep, and the default
/// word otherwise.
fn pass2<W: Word>(next: &mut [W], lo: usize, b: &[W], k: &Kernel<'_, W>) -> W {
    let hi = lo + next.len();
    match k.gather {
        Gather::Banded { offsets, patches } => {
            for &o in offsets {
                let (dst, src) = shift_window(lo, hi, b.len(), o);
                let dst = &mut next[dst];
                let src = &b[src];
                let mut cd = dst.chunks_exact_mut(W::LANES);
                let mut cs = src.chunks_exact(W::LANES);
                for (ds, ss) in (&mut cd).zip(&mut cs) {
                    for i in 0..W::LANES {
                        ds[i] += ss[i];
                    }
                }
                for (dv, &sv) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
                    *dv += sv;
                }
            }
            let first = patches.partition_point(|p| (p.0 as usize) < lo);
            let last = patches.partition_point(|p| (p.0 as usize) < hi);
            for &(dst, src, subtract) in &patches[first..last] {
                let slot = &mut next[dst as usize - lo];
                if subtract {
                    *slot -= b[src as usize];
                } else {
                    *slot += b[src as usize];
                }
            }
            if k.guard.is_none() {
                return W::default();
            }
            let mut mx = W::default();
            for &x in next.iter() {
                mx = mx.max(x);
            }
            mx
        }
        Gather::Blocked => gather_csr(next, lo, b, k.adj, k.degree, Base::Next),
    }
}

/// Where pass 2 starts each node's sum before adding its neighbours'
/// `b`.
pub(crate) enum Base<'a, W> {
    /// `next[u]` itself: the vector rounds' pass 1 has already written
    /// `x[u] − d·b[u]` there.
    Next,
    /// `x[u] − d·b[u]` from the loads `cur` (aligned with `next`) and
    /// the range's own `b`: the scalar kernel's closed-form round, whose
    /// pass 1 writes only `b`.
    Keep {
        /// `x_t` over the range.
        cur: &'a [W],
        /// The original degree `d`.
        d: W,
    },
}

/// The sequential CSR gather over the node range `lo..lo + next.len()`
/// of a `d`-regular adjacency: `next[u] = base(u) + Σ_{p<d} b[nbr(u, p)]`,
/// adding in port order. Degree-monomorphised for `d ∈ {2, 4}` (the
/// row length is then a constant and the port loop unrolls), one loop
/// for every other degree; folds the range's maximum as it writes. The
/// vector rounds' blocked pass 2 and the scalar kernel's closed-form
/// round both gather through here.
#[inline]
pub(crate) fn gather_csr<W: Word>(
    next: &mut [W],
    lo: usize,
    b: &[W],
    adj: &[u32],
    d: usize,
    base: Base<'_, W>,
) -> W {
    match d {
        // No ports: the rows are empty, and each node keeps its base.
        0 => csr_rows(next, lo, b, std::iter::repeat(&[][..]), base),
        2 => csr_rows(next, lo, b, adj[lo * 2..].chunks_exact(2), base),
        4 => csr_rows(next, lo, b, adj[lo * 4..].chunks_exact(4), base),
        d => csr_rows(next, lo, b, adj[lo * d..].chunks_exact(d), base),
    }
}

/// The body of [`gather_csr`] over one row iterator; `lo` places the
/// range's own `b` for [`Base::Keep`].
#[inline(always)]
fn csr_rows<'r, W: Word>(
    next: &mut [W],
    lo: usize,
    b: &[W],
    rows: impl Iterator<Item = &'r [u32]>,
    base: Base<'_, W>,
) -> W {
    let add = |acc: W, nbrs: &[u32]| nbrs.iter().fold(acc, |acc, &v| acc + b[v as usize]);
    let mut mx = W::default();
    match base {
        Base::Next => {
            for (nx, nbrs) in next.iter_mut().zip(rows) {
                let acc = add(*nx, nbrs);
                *nx = acc;
                mx = mx.max(acc);
            }
        }
        Base::Keep { cur, d } => {
            debug_assert_eq!(cur.len(), next.len());
            let own = &b[lo..];
            for (((nx, &x), &q), nbrs) in next.iter_mut().zip(cur).zip(own).zip(rows) {
                let acc = add(x - d * q, nbrs);
                *nx = acc;
                mx = mx.max(acc);
            }
        }
    }
    mx
}

/// The aligned windows of the shifted add `next[w] += b[w − o]` over
/// the destination range `lo..hi` of an `n`-node array: the
/// destinations (relative to `lo`) and their sources. Both are empty
/// when no destination in the range has a source node.
fn shift_window(lo: usize, hi: usize, n: usize, o: i64) -> (Range<usize>, Range<usize>) {
    let w0 = (lo as i64).max(o);
    let w1 = (hi as i64).min(n as i64 + o);
    if w0 >= w1 {
        return (0..0, 0..0);
    }
    let lo = lo as i64;
    (
        (w0 - lo) as usize..(w1 - lo) as usize,
        (w0 - o) as usize..(w1 - o) as usize,
    )
}

/// Runs `steps` whole-array rounds of `spec` over `loads`, with each
/// pass split by node range across `threads` workers (`threads <= 1`:
/// the serial loop, same passes over one full range). Returns `false`
/// (loads untouched) when the run declines — only when the entry
/// maximum is so close to `i64::MAX` that the overflow-freedom argument
/// above would not hold; the caller then uses the scalar kernel, which
/// is bit-identical. The caller has already verified: no schedule, no
/// workload, no asleep nodes, no negative loads.
///
/// Loads, [`VectorStats`] and the i32 fallback decision are identical
/// for every thread count: the passes are exact integer arithmetic and
/// the guard compares the maximum over all ranges.
pub(crate) fn run_uniform(
    gp: &BalancingGraph,
    loads: &mut [i64],
    spec: UniformSpec,
    steps: usize,
    config: &VectorConfig,
    stats: &mut VectorStats,
    threads: usize,
) -> bool {
    let d = gp.degree();
    let d_plus = gp.degree_plus();
    debug_assert!(matches!(spec, UniformSpec::Floor) || gp.num_self_loops() >= d);
    let max0 = loads.iter().copied().max().unwrap_or(0);
    debug_assert!(loads.iter().all(|&x| x >= 0));
    if max0.saturating_add(max_growth_bound(d_plus, steps)) > I64_SAFE_LIMIT {
        return false;
    }
    let gather = plan_gather(gp, config.strategy);
    let adj = gp.graph().adjacency_slots();
    let bias = spec.bias(d_plus);
    let threads = threads.clamp(1, loads.len().max(1));
    stats.runs += 1;

    // Width decision. Forced-i32 runs whose seed never fits the limit
    // still honour the forced width's *intent* loudly: the guard trips
    // at entry, the fallback is counted, and the run completes on i64.
    let (want_i32, limit) = match config.width {
        VectorWidth::Auto => (max0 <= i64::from(I32_HEADROOM_LIMIT), I32_HEADROOM_LIMIT),
        VectorWidth::I64 => (false, I32_HEADROOM_LIMIT),
        VectorWidth::I32 { limit } => (true, limit.clamp(0, I32_HEADROOM_LIMIT)),
    };
    let count = |stats: &mut VectorStats, done: usize| match gather {
        Gather::Banded { .. } => stats.rounds_banded += done as u64,
        Gather::Blocked => stats.rounds_blocked += done as u64,
    };

    let mut remaining = steps;
    if want_i32 {
        if max0 > i64::from(limit) {
            stats.i32_fallbacks += 1;
        } else {
            let guard =
                (max0 + max_growth_bound(d_plus, steps) > i64::from(limit)).then_some(limit);
            let k = Kernel {
                degree: d,
                bias,
                magic: i32::magic(d_plus as u64),
                gather: &gather,
                adj,
                guard,
            };
            let done = run_words(loads, &k, steps, threads);
            count(stats, done);
            stats.rounds_i32 += done as u64;
            if done < steps {
                // Headroom gone: the remaining rounds run on i64,
                // loudly. (The round that tripped is exact — the guard
                // limit is far below the arithmetic overflow bound.)
                stats.i32_fallbacks += 1;
            }
            remaining -= done;
        }
    }
    if remaining > 0 {
        let k: Kernel<'_, i64> = Kernel {
            degree: d,
            bias,
            magic: i64::magic(d_plus as u64),
            gather: &gather,
            adj,
            guard: None,
        };
        let done = run_words(loads, &k, remaining, threads);
        count(stats, done);
    }
    true
}

/// Converts `loads` into double buffers of `W`, runs the rounds — on
/// the calling thread, or split by node range across `threads` workers
/// — and writes the final state back. Returns the rounds completed.
fn run_words<W: Word>(loads: &mut [i64], k: &Kernel<'_, W>, steps: usize, threads: usize) -> usize {
    let n = loads.len();
    let mut front: Vec<W> = loads.iter().map(|&x| W::narrow(x)).collect();
    let mut back = vec![W::default(); n];
    let total = if cfg!(debug_assertions) {
        loads.iter().sum::<i64>()
    } else {
        0
    };
    let done = if threads <= 1 {
        rounds(
            &mut front,
            &mut back,
            0,
            &mut Whole(vec![W::default(); n]),
            k,
            steps,
        )
    } else {
        crate::parallel::rounds_split(&mut front, &mut back, k, steps, threads)
    };
    let last = if done % 2 == 0 { &front } else { &back };
    for (out, &x) in loads.iter_mut().zip(last) {
        *out = x.into();
    }
    debug_assert_eq!(
        loads.iter().sum::<i64>(),
        total,
        "vector rounds must conserve tokens"
    );
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::generators;

    #[test]
    fn magic_division_is_exact_for_every_small_divisor() {
        // Every divisor the balancing graphs can produce, against a
        // sweep of dividends including the extremes of each range.
        for d in 1u64..=512 {
            let m64 = DivMagic::new64(d);
            let m32 = DivMagic::new32(d);
            let mut xs: Vec<u64> = (0..2048).collect();
            xs.extend((0..64).map(|i| (1u64 << 62) - i));
            xs.extend((0..64).map(|i| i64::MAX as u64 - i));
            xs.extend((0..64).map(|i| d.saturating_mul(1_000_003).wrapping_add(i)));
            for &x in &xs {
                assert_eq!(m64.div64(x), x / d, "64-bit x={x} d={d}");
                let x32 = (x % (1 << 31)) as u32;
                assert_eq!(m32.div32(x32), x32 / d as u32, "32-bit x={x32} d={d}");
            }
            // The full i32-range extremes for the 32-bit reciprocal.
            for x in [0u32, 1, i32::MAX as u32, i32::MAX as u32 - 1] {
                assert_eq!(m32.div32(x), x / d as u32, "32-bit extreme x={x} d={d}");
            }
        }
    }

    #[test]
    fn send_rule_matches_split_load_at_every_magnitude() {
        // The per-node rule the SEND kernels plan with: originals get
        // `base` (floor) or `base + (2e ≥ d⁺)` (round). The dividends
        // reach past 2⁶³ − bias, where dividing `x + bias` would leave
        // the reciprocal's proven range.
        let mut xs: Vec<i64> = (0..2048).collect();
        for k in 0..64 {
            xs.extend([(1 << 62) - k, (1 << 62) + k, i64::MAX - k]);
        }
        for d_plus in 1usize..=64 {
            let floor = SendRule::new(UniformSpec::Floor, d_plus);
            let round = SendRule::new(UniformSpec::Round, d_plus);
            for &x in &xs {
                let (base, e) = crate::balancer::split_load(x, d_plus);
                let up = u64::from(2 * e >= d_plus);
                assert_eq!(floor.send(x) as u64, base, "floor x={x} d⁺={d_plus}");
                assert_eq!(round.send(x) as u64, base + up, "round x={x} d⁺={d_plus}");
            }
        }
    }

    /// The whole-array pass 1 of the scalar closed-form round equals
    /// the per-node rule element by element, for both specs, every
    /// reciprocal kind (d⁺ = 1, powers of two, multiply-high) and loads
    /// at both ends of the range.
    #[test]
    fn send_all_matches_the_per_node_rule() {
        for d_plus in 1usize..=9 {
            let d = d_plus as i64;
            let loads = [0, 1, d - 1, d, (1 << 62) + 3, i64::MAX - 1, i64::MAX];
            // Longer than one autovectorized chunk, with a remainder.
            let cur: Vec<i64> = loads.iter().cycle().take(7 * 5).copied().collect();
            for spec in [UniformSpec::Floor, UniformSpec::Round] {
                let rule = SendRule::new(spec, d_plus);
                let mut sends = vec![-1; cur.len()];
                rule.send_all(&cur, &mut sends);
                for (&x, &b) in cur.iter().zip(&sends) {
                    assert_eq!(b, rule.send(x), "{spec:?} x={x} d⁺={d_plus}");
                }
            }
        }
    }

    /// Both bases of the CSR gather give `x[u] − d·b[u] + Σ b[nbr]` in
    /// every degree arm (0, the generic loop, and the monomorphised 2
    /// and 4), over the whole array and over a range that starts past
    /// node 0.
    #[test]
    fn gather_bases_agree_with_the_naive_sum_at_every_degree() {
        let n = 23usize;
        let x: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 + 40).collect();
        let b: Vec<i64> = x.iter().map(|&v| v / 9).collect();
        for d in 0usize..=5 {
            // Any in-range indices will do: the gather does not rely on
            // symmetry.
            let adj: Vec<u32> = (0..n * d).map(|i| ((i * 7 + 3) % n) as u32).collect();
            let want: Vec<i64> = (0..n)
                .map(|u| {
                    let nbrs = &adj[u * d..(u + 1) * d];
                    x[u] - d as i64 * b[u] + nbrs.iter().map(|&v| b[v as usize]).sum::<i64>()
                })
                .collect();
            for lo in [0usize, 5] {
                let mut keep = vec![-1i64; n - lo];
                let base = Base::Keep {
                    cur: &x[lo..],
                    d: d as i64,
                };
                let mx = gather_csr(&mut keep, lo, &b, &adj, d, base);
                assert_eq!(keep, want[lo..], "keep d={d} lo={lo}");
                assert_eq!(mx, *want[lo..].iter().max().unwrap(), "d={d} lo={lo}");
                let mut next: Vec<i64> = (lo..n).map(|u| x[u] - d as i64 * b[u]).collect();
                gather_csr(&mut next, lo, &b, &adj, d, Base::Next);
                assert_eq!(next, want[lo..], "next d={d} lo={lo}");
            }
        }
    }

    #[test]
    fn round_bias_reproduces_half_up_for_both_parities() {
        for d_plus in [2usize, 3, 4, 5, 6, 7, 8, 9] {
            let bias = UniformSpec::Round.bias(d_plus);
            for x in 0u64..200 {
                let base = x / d_plus as u64;
                let e = (x % d_plus as u64) as usize;
                let scalar = base + u64::from(2 * e >= d_plus);
                assert_eq!((x + bias) / d_plus as u64, scalar, "x={x} d⁺={d_plus}");
            }
        }
    }

    #[test]
    fn shifted_pair_handles_both_directions_and_saturation() {
        // Whole range of a 5-node array: o = 2 adds b[0..3] into 2..5,
        // o = −1 adds b[1..5] into 0..4, and an offset past the array
        // adds nothing.
        assert_eq!(shift_window(0, 5, 5, 2), (2..5, 0..3));
        assert_eq!(shift_window(0, 5, 5, -1), (0..4, 1..5));
        assert_eq!(shift_window(0, 5, 5, 99), (0..0, 0..0));
        assert_eq!(shift_window(0, 5, 5, -99), (0..0, 0..0));
        // A worker's range: destinations are relative to its start, and
        // sources may lie in another worker's range.
        assert_eq!(shift_window(3, 5, 5, 2), (0..2, 1..3));
        assert_eq!(shift_window(0, 2, 5, -3), (0..2, 3..5));
        assert_eq!(shift_window(0, 2, 5, 2), (0..0, 0..0));
    }

    #[test]
    fn auto_strategy_is_banded_on_cycles_and_blocked_on_scattered_graphs() {
        let cyc = BalancingGraph::lazy(generators::cycle(64).unwrap());
        assert!(matches!(
            plan_gather(&cyc, VectorStrategy::Auto),
            Gather::Banded { .. }
        ));
        // A square torus has 4·s wrap exceptions over n = s² nodes:
        // inside the n/8 budget once s ≥ 32.
        let torus = BalancingGraph::lazy(generators::torus(2, 64).unwrap());
        assert!(matches!(
            plan_gather(&torus, VectorStrategy::Auto),
            Gather::Banded { .. }
        ));
        // Below that (s = 16: 64 exceptions > budget 32) the wrap
        // edges dominate and Auto prefers the blocked gather.
        let small = BalancingGraph::lazy(generators::torus(2, 16).unwrap());
        assert!(matches!(
            plan_gather(&small, VectorStrategy::Auto),
            Gather::Blocked
        ));
        let rnd = BalancingGraph::lazy(generators::random_regular(256, 4, 7).unwrap());
        assert!(matches!(
            plan_gather(&rnd, VectorStrategy::Auto),
            Gather::Blocked
        ));
    }

    /// The budgeted vote decides exactly as the exception count of
    /// `port_shift_profile` does, and a banded plan is the one that
    /// profile describes: its offsets, and its exceptions as patches.
    #[test]
    fn auto_plan_matches_the_port_shift_profile_rule() {
        use dlb_graph::relabel::{self, Relabeling};
        let rr = generators::random_regular(256, 4, 7).unwrap();
        let rcm = rr
            .relabeled(&Relabeling::reverse_cuthill_mckee(&rr))
            .unwrap();
        let graphs = [
            generators::cycle(64).unwrap(),
            generators::torus(2, 16).unwrap(),
            generators::torus(2, 32).unwrap(),
            generators::torus(2, 64).unwrap(),
            generators::hypercube(8).unwrap(),
            rr,
            rcm,
            generators::chorded_cycle(101, 10).unwrap(),
            generators::chorded_cycle(1001, 10).unwrap(),
        ]
        .map(BalancingGraph::lazy);
        // No original ports at all, one self-loop: an empty banded plan.
        let empty = dlb_graph::RegularGraph::from_adjacency(5, 0, Vec::new()).unwrap();
        let empty = BalancingGraph::with_self_loops(empty, 1).unwrap();
        let (mut banded, mut blocked) = (0, 0);
        for gp in graphs.into_iter().chain([empty]) {
            let g = gp.graph();
            let n = g.num_nodes();
            let profile = relabel::port_shift_profile(g);
            let want_banded = profile.num_exceptions() <= n / BANDED_EXCEPTION_DIV;
            match plan_gather(&gp, VectorStrategy::Auto) {
                Gather::Banded { offsets, patches } => {
                    assert!(want_banded, "n={n}: banded over budget");
                    assert_eq!(offsets, profile.offsets, "n={n}");
                    let mut expected = Vec::new();
                    for (&o, list) in profile.offsets.iter().zip(&profile.exceptions) {
                        for &(u, v) in list {
                            let shifted = i64::from(u) + o;
                            if (0..n as i64).contains(&shifted) {
                                expected.push((shifted as u32, u, true));
                            }
                            expected.push((v, u, false));
                        }
                    }
                    expected.sort_unstable();
                    assert_eq!(patches, expected, "n={n}");
                    banded += 1;
                }
                Gather::Blocked => {
                    assert!(!want_banded, "n={n}: blocked within budget");
                    blocked += 1;
                }
            }
        }
        assert!(
            banded > 0 && blocked > 0,
            "{banded} banded, {blocked} blocked"
        );
    }

    #[test]
    fn forced_strategies_agree_with_each_other_everywhere() {
        // Banded with a huge exception list is slow but must stay
        // exact: force both strategies on a scattered graph and on a
        // cycle, at both widths and split across 1–3 workers (97 does
        // not divide), and require identical trajectories.
        let graphs = [
            BalancingGraph::lazy(generators::random_regular(96, 4, 3).unwrap()),
            BalancingGraph::lazy(generators::cycle(97).unwrap()),
        ];
        // No port of the scattered graph has a majority offset, so the
        // vote's pick is arbitrary and the patches carry the gather.
        let scattered = dlb_graph::relabel::port_shift_profile(graphs[0].graph());
        assert!(scattered.exceptions.iter().all(|e| 2 * e.len() >= 96));
        for gp in &graphs {
            let n = gp.num_nodes();
            let seed: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 211).collect();
            let mut reference: Option<Vec<i64>> = None;
            for strategy in [VectorStrategy::Banded, VectorStrategy::BlockedCsr] {
                for width in [VectorWidth::I64, VectorWidth::I32 { limit: 1 << 20 }] {
                    for threads in 1..=3 {
                        let config = VectorConfig {
                            enabled: true,
                            strategy,
                            width,
                        };
                        let mut loads = seed.clone();
                        let mut stats = VectorStats::default();
                        let spec = UniformSpec::Floor;
                        assert!(run_uniform(
                            gp, &mut loads, spec, 9, &config, &mut stats, threads
                        ));
                        match &reference {
                            None => reference = Some(loads),
                            Some(r) => assert_eq!(
                                r, &loads,
                                "{strategy:?}/{width:?}/{threads} diverged on n={n}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn declines_only_on_astronomical_loads() {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        let config = VectorConfig::default();
        let mut stats = VectorStats::default();
        let mut fine = vec![1i64 << 40; 8];
        assert!(run_uniform(
            &gp,
            &mut fine,
            UniformSpec::Floor,
            4,
            &config,
            &mut stats,
            1
        ));
        let mut huge = vec![i64::MAX / 2; 8];
        let before = huge.clone();
        assert!(!run_uniform(
            &gp,
            &mut huge,
            UniformSpec::Floor,
            4,
            &config,
            &mut stats,
            1
        ));
        assert_eq!(huge, before, "a declined run must not touch loads");
    }
}
