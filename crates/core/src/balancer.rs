use dlb_graph::BalancingGraph;

use crate::kernel::KernelRounds;
use crate::{FlowPlan, LoadVector};

/// A discrete diffusion load-balancing scheme.
///
/// A balancer's only job is to decide, for each node independently, how
/// the node's current load splits over its `d⁺` ports — the function
/// `f_t` of the paper. The [`Engine`](crate::Engine) routes the tokens
/// and checks class invariants; an attached
/// [`FairnessMonitor`](crate::fairness::FairnessMonitor) keeps the
/// cumulative ledger `F_t`.
///
/// Determinism and statelessness are *properties*, not requirements:
/// the rotor-router keeps per-node rotor state, the randomized baselines
/// draw from a seeded generator, and the stateless schemes
/// ([`SendFloor`](crate::schemes::SendFloor),
/// [`SendRound`](crate::schemes::SendRound)) depend only on the current
/// load, exactly as §1.1 defines "stateless".
pub trait Balancer {
    /// A short stable identifier used in reports and bench names.
    fn name(&self) -> &'static str;

    /// Fills `plan` with this step's flows given loads `x_t`.
    ///
    /// The plan arrives zeroed. Implementations must write a complete
    /// assignment: for every node `u`, the flows over `u`'s ports plus
    /// the implicitly retained remainder `x_t(u) − f_t^out(u)` make up
    /// the node's whole load.
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan);

    /// Whether this scheme may plan to send more tokens than a node
    /// holds, creating negative load (true only for the \[4\]/\[18\]-style
    /// baselines; the paper's own classes never overdraw).
    fn may_overdraw(&self) -> bool {
        false
    }

    /// Whether the scheme is stateless in the paper's sense (§1.1): the
    /// flows of a node at step `t` depend only on `x_t(u)`.
    fn is_stateless(&self) -> bool {
        false
    }

    /// Whether the scheme is deterministic ("D" column of Table 1).
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Resets internal state (rotors, error accumulators, RNG position)
    /// to the post-construction state.
    fn reset(&mut self) {}

    /// This scheme's plan-free kernel, if it has one. A
    /// [`KernelBalancer`](crate::KernelBalancer) answers `Some(self)`,
    /// which lets [`Engine::run`](crate::Engine::run) take the kernel
    /// rounds on [`Path::Auto`](crate::Path::Auto); the default `None`
    /// runs the planned round.
    fn as_kernel(&mut self) -> Option<&mut dyn KernelRounds> {
        None
    }
}

/// Splits a non-negative load into the quotient/remainder pair
/// `(⌊x/d⁺⌋, x mod d⁺)` used by every scheme in the paper.
///
/// # Panics
///
/// Panics (debug) if `x < 0`: schemes calling this are the
/// non-overdrawing kind and never see negative loads.
#[inline]
pub(crate) fn split_load(x: i64, d_plus: usize) -> (u64, usize) {
    debug_assert!(x >= 0, "non-overdrawing scheme saw negative load {x}");
    let x = x.max(0) as u64;
    let d_plus = d_plus as u64;
    ((x / d_plus), (x % d_plus) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_load_basic() {
        assert_eq!(split_load(10, 4), (2, 2));
        assert_eq!(split_load(0, 4), (0, 0));
        assert_eq!(split_load(3, 4), (0, 3));
        assert_eq!(split_load(8, 4), (2, 0));
    }

    #[test]
    fn split_load_reconstructs() {
        for x in 0..200i64 {
            for d_plus in 1..12usize {
                let (q, r) = split_load(x, d_plus);
                assert_eq!(q as i64 * d_plus as i64 + r as i64, x);
                assert!(r < d_plus);
            }
        }
    }
}
