use dlb_graph::BalancingGraph;

use crate::balancer::split_load;
use crate::kernel::vector::{UniformKernel, UniformSpec};
use crate::{Balancer, KernelBalancer, KernelRounds};

/// SEND(⌊x/d⁺⌋): every original edge receives exactly `⌊x/d⁺⌋` tokens;
/// the rest goes to the self-loops (§1.1).
///
/// The simplest member of the cumulatively fair class: stateless,
/// deterministic, and **cumulatively 0-fair** (Observation 2.2) — all
/// original edges of a node carry identical totals at all times, since
/// they receive identical flow in every single step.
///
/// With `d° ≥ 1` the surplus `x mod d⁺` is spread round-robin-free over
/// self-loops (each still gets at least `⌊x/d⁺⌋`, as Definition 2.1
/// requires); with `d° = 0` the surplus is retained as the remainder
/// `r_t(u)` — the formulation Proposition A.2 shows equivalent.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph};
/// use dlb_core::{Engine, LoadVector, Run};
/// use dlb_core::schemes::SendFloor;
///
/// let gp = BalancingGraph::lazy(generators::cycle(8)?);
/// let mut engine = Engine::new(gp, LoadVector::point_mass(8, 400));
/// engine.attach_monitor();
/// engine.run(&mut SendFloor::new(), Run::new(300))?;
/// // Cumulative 0-fairness, machine-checked:
/// assert_eq!(engine.monitor().unwrap().ledger().original_edge_spread(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFloor {
    _private: (),
}

impl SendFloor {
    /// Creates the scheme (no parameters, no state).
    pub fn new() -> Self {
        SendFloor { _private: () }
    }
}

impl Balancer for SendFloor {
    fn name(&self) -> &'static str {
        "send-floor"
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

/// Stateless: the per-node rule of the reference round. The kernel
/// rounds never call it: [`uniform_kernel`](KernelBalancer::uniform_kernel)
/// answers on every graph, so they stream the closed form instead.
impl KernelBalancer for SendFloor {
    fn kernel_node(&mut self, gp: &BalancingGraph, _u: usize, load: i64, flows: &mut [u64]) {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        let d_self = gp.num_self_loops();
        let (base, e) = split_load(load, d_plus);
        for f in flows.iter_mut() {
            *f = base;
        }
        // Spread the e surplus tokens over self-loops: each gets
        // e/d° plus the first e mod d° one extra. (checked_div is
        // None exactly when there are no self-loops.)
        if let Some(per_loop) = e.checked_div(d_self) {
            let extra = e % d_self;
            for (i, f) in flows[d..].iter_mut().enumerate() {
                *f += per_loop as u64 + u64::from(i < extra);
            }
        }
        // d° = 0: surplus is retained implicitly by the engine.
    }

    fn uniform_kernel(&self, gp: &BalancingGraph) -> Option<UniformSpec> {
        UniformKernel::uniform_spec(self, gp)
    }
}

/// Every original port carries `⌊x/d⁺⌋` — the floor closed form — on
/// any graph: surplus lands on self-loops (d° ≥ 1) or is retained
/// (d° = 0), and either way only the base crosses original edges.
impl UniformKernel for SendFloor {
    fn uniform_spec(&self, _gp: &BalancingGraph) -> Option<UniformSpec> {
        Some(UniformSpec::Floor)
    }
}

/// SEND([x/d⁺]): every original edge receives `[x/d⁺]` — `x/d⁺` rounded
/// to the nearest integer (half rounds up) — and self-loops absorb the
/// rest round-fairly (§1.1).
///
/// Cumulatively 0-fair (Observation 2.2) like [`SendFloor`], but also a
/// **good s-balancer** when `d⁺ > 2d` (Observation 3.2): it is
/// round-fair and, with this implementation's surplus placement,
/// s-self-preferring with `s ≥ ⌈(d⁺ − 2d)/2⌉` (the
/// [`FairnessMonitor`](crate::fairness::FairnessMonitor) reports the
/// exact witnessed value for any given run).
///
/// Requires `d° ≥ d`; with fewer self-loops, `d·[x/d⁺]` can exceed `x`
/// and the scheme overdraws, which every engine path rejects as a clean
/// [`Overdraw`](crate::EngineError::Overdraw).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendRound {
    _private: (),
}

impl SendRound {
    /// Creates the scheme (no parameters, no state).
    pub fn new() -> Self {
        SendRound { _private: () }
    }
}

impl Balancer for SendRound {
    fn name(&self) -> &'static str {
        "send-round"
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

/// Stateless, with saturating arithmetic: on a `d° < d` graph every
/// path reports the engine's clean `Overdraw`, never a panic.
impl KernelBalancer for SendRound {
    fn kernel_node(&mut self, gp: &BalancingGraph, _u: usize, load: i64, flows: &mut [u64]) {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        let (base, e) = split_load(load, d_plus);
        // Round half up: [x/d⁺] = base + 1 iff 2e >= d⁺.
        let round_up = 2 * e >= d_plus;
        let original_flow = base + u64::from(round_up);
        for f in flows[..d].iter_mut() {
            *f = original_flow;
        }
        // Surplus for self-loops: e extras minus the d consumed by
        // originals when rounding up. Each self-loop gets base or
        // base+1 (round-fair), extras first.
        //
        // round_up ⇒ 2e ≥ d⁺ = d + d°, so with d° ≥ d, e ≥ d and the
        // subtraction cannot underflow. Saturate anyway: on a d° < d
        // graph the rule then over-sends on the originals and the
        // engine reports a clean `Overdraw` instead of a u64
        // wrap-around conjuring ~2⁶⁴ surplus tokens.
        // With d° ≥ d, loop_extras ≤ d° always holds; on smaller d° the
        // placement loop below is bounded by the port count anyway.
        let loop_extras = if round_up { e.saturating_sub(d) } else { e };
        for (i, f) in flows[d..].iter_mut().enumerate() {
            *f = base + u64::from(i < loop_extras);
        }
    }

    fn uniform_kernel(&self, gp: &BalancingGraph) -> Option<UniformSpec> {
        UniformKernel::uniform_spec(self, gp)
    }
}

/// Every original port carries `[x/d⁺] = ⌊(x + ⌊d⁺/2⌋)/d⁺⌋` — but only
/// on graphs with `d° ≥ d`, where the scheme is in class (never
/// overdraws: round-up implies `e ≥ ⌈d⁺/2⌉ ≥ d`, so
/// `d·(base+1) ≤ d⁺·base + e = x`). Below that the scalar path keeps
/// sole ownership of the clean `Overdraw` report.
impl UniformKernel for SendRound {
    fn uniform_spec(&self, gp: &BalancingGraph) -> Option<UniformSpec> {
        (gp.num_self_loops() >= gp.degree()).then_some(UniformSpec::Round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineError, LoadVector, Run};
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    /// One node's row under `scheme` for load `load`.
    fn row(scheme: &mut impl KernelBalancer, gp: &BalancingGraph, load: i64) -> Vec<u64> {
        let mut flows = vec![u64::MAX; gp.degree_plus()];
        scheme.kernel_node(gp, 0, load, &mut flows);
        flows
    }

    #[test]
    fn send_floor_plans_floor_on_originals() {
        let gp = lazy_cycle(4); // d = 2, d⁺ = 4
        let flows = row(&mut SendFloor::new(), &gp, 11); // base 2, e 3
        assert_eq!(flows[..2], [2, 2], "originals get the floor");
        // Self-loops absorb 3 extras: 2+2=4 on loops split as 4, 3.
        assert_eq!(flows[2..], [4, 3]);
        assert_eq!(flows.iter().sum::<u64>(), 11, "everything is sent");
    }

    #[test]
    fn send_floor_retains_surplus_without_self_loops() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap()); // d⁺ = 2
        let flows = row(&mut SendFloor::new(), &gp, 5); // base 2, e 1
        assert_eq!(flows, [2, 2], "one token retained");
    }

    #[test]
    fn send_floor_is_cumulatively_zero_fair() {
        let gp = lazy_cycle(8);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 997));
        engine.attach_monitor();
        engine.run(&mut SendFloor::new(), Run::new(200)).unwrap();
        assert_eq!(engine.monitor().unwrap().ledger().original_edge_spread(), 0);
    }

    #[test]
    fn send_round_rounds_half_up() {
        let gp = lazy_cycle(4); // d = 2, d⁺ = 4
                                // x = 10: base 2, e 2, 2e = 4 >= 4 ⇒ originals get 3.
        let flows = row(&mut SendRound::new(), &gp, 10);
        assert_eq!(flows[..2], [3, 3]);
        // loop_extras = 2 − 2 = 0: self-loops get base 2 each.
        assert_eq!(flows[2..], [2, 2]);
        assert_eq!(flows.iter().sum::<u64>(), 10);
    }

    #[test]
    fn send_round_rounds_down_below_half() {
        let gp = lazy_cycle(4);
        // x = 9: base 2, e 1, 2e = 2 < 4 ⇒ originals get 2.
        let flows = row(&mut SendRound::new(), &gp, 9);
        assert_eq!(flows[..2], [2, 2]);
        // One extra goes to the first self-loop: round fair.
        assert_eq!(flows[2..], [3, 2]);
        assert_eq!(flows.iter().sum::<u64>(), 9);
    }

    #[test]
    fn send_round_is_round_fair_and_never_overdraws() {
        let gp = lazy_cycle(8);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1003));
        engine.attach_monitor();
        engine.run(&mut SendRound::new(), Run::new(300)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0);
        assert_eq!(m.floor_violations(), 0);
        assert_eq!(m.overdraw_events(), 0);
        assert_eq!(engine.loads().total(), 1003);
    }

    #[test]
    fn send_round_is_self_preferring_with_extra_laziness() {
        // d = 2, d° = 4 > d ⇒ d⁺ = 6 > 2d: good s-balancer regime.
        let gp = BalancingGraph::with_self_loops(generators::cycle(8).unwrap(), 4).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1009));
        engine.attach_monitor();
        engine.run(&mut SendRound::new(), Run::new(300)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0);
        let s = m.witnessed_s();
        assert!(
            s.is_none() || s.unwrap() >= 1,
            "witnessed s = {s:?}, expected >= 1 for d+ > 2d"
        );
    }

    /// Below its class (here d° = 0 < d) SEND([x/d⁺]) rounds an odd load
    /// up on both originals, which the reference round rejects.
    #[test]
    fn send_round_rejects_insufficient_self_loops() {
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        let mut engine = Engine::new(gp, LoadVector::uniform(4, 5));
        let err = engine.step(&mut SendRound::new()).unwrap_err();
        assert_eq!(
            err,
            EngineError::Overdraw {
                node: 0,
                load: 5,
                planned: 6,
                step: 1
            }
        );
        assert_eq!(engine.loads(), &LoadVector::uniform(4, 5));
    }

    /// The per-node rule, written into a dirty buffer, is exactly the
    /// row the reference round applies (read back off the monitor's
    /// ledger after one round from uniform loads).
    #[test]
    fn plan_node_matches_plan_for_both_schemes() {
        fn applied_row(scheme: &mut impl KernelBalancer, load: i64) -> Vec<u64> {
            let mut engine = Engine::new(lazy_cycle(4), LoadVector::uniform(4, load));
            engine.attach_monitor();
            engine.step(scheme).unwrap();
            engine.monitor().unwrap().ledger().node(2).to_vec()
        }
        let gp = lazy_cycle(4);
        for load in [0i64, 1, 3, 7, 10, 11, 999] {
            let floor = applied_row(&mut SendFloor::new(), load);
            assert_eq!(
                row(&mut SendFloor::new(), &gp, load),
                floor,
                "floor, {load}"
            );
            let round = applied_row(&mut SendRound::new(), load);
            assert_eq!(
                row(&mut SendRound::new(), &gp, load),
                round,
                "round, {load}"
            );
        }
    }

    #[test]
    fn send_round_plan_node_saturates_instead_of_underflowing() {
        // d° = 0 < d: e = 1 < d = 2 with round-up — exactly the
        // combination where `e - d` would wrap. The row must stay
        // finite (merely over-sending by one, which the engine rejects
        // as a clean overdraw), not conjure ~2^64 tokens.
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap()); // d⁺ = 2
        let flows = row(&mut SendRound::new(), &gp, 11); // base 5, e 1
        assert_eq!(flows, vec![6, 6], "round-up on both originals");
        let sent: u64 = flows.iter().sum();
        assert!(sent < 1 << 32, "no underflow-inflated flow");
    }

    #[test]
    fn zero_load_nodes_are_left_untouched() {
        let gp = lazy_cycle(4);
        let mut engine = Engine::new(gp, LoadVector::new(vec![0, 9, 0, 4]));
        engine.attach_monitor();
        engine.step(&mut SendFloor::new()).unwrap();
        let ledger = engine.monitor().unwrap().ledger();
        let sent: Vec<u64> = (0..4).map(|u| ledger.node_total(u)).collect();
        assert_eq!(sent, [0, 9, 0, 4]);
    }

    #[test]
    fn both_schemes_report_stateless_deterministic() {
        assert!(SendFloor::new().is_stateless());
        assert!(SendFloor::new().is_deterministic());
        assert!(!SendFloor::new().may_overdraw());
        assert!(SendRound::new().is_stateless());
        assert!(SendRound::new().is_deterministic());
        assert!(!SendRound::new().may_overdraw());
    }

    #[test]
    fn send_floor_balances_to_within_theorem_bound_on_cycle() {
        // Theorem 2.3 (ii): O(d√n) discrepancy; on a 16-cycle with
        // d = 2 the final discrepancy should be far below the initial.
        let gp = lazy_cycle(16);
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 3200));
        engine.run(&mut SendFloor::new(), Run::new(5000)).unwrap();
        assert!(engine.loads().discrepancy() <= 2 * 4 + 4);
    }
}
