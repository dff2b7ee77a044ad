use dlb_graph::BalancingGraph;

use crate::{Balancer, FlowPlan, LoadVector};

/// The bounded-error (quasirandom) diffusion of Friedrich, Gairing and
/// Sauerwald \[9\].
///
/// Each directed original edge carries an **error accumulator**: the
/// rounding error between the continuous flow `x_t(u)/d⁺` the edge
/// should have carried and the integer tokens it did carry, kept in
/// exact integer arithmetic (numerators over the fixed denominator
/// `d⁺`). Every step the edge sends
/// `⌊(x_t(u) + err)/d⁺⌋` tokens and the error is updated, so the
/// *cumulative* rounding error per edge stays below 1 forever — the
/// bounded-error property of \[9\].
///
/// As the paper notes (§1.2), this scheme "has the problem that the
/// original demand of a node might exceed its available load, leading
/// to so-called negative load": when a node's load is small and many
/// accumulators fire at once, it overdraws. The engine records those
/// events; this is deliberate, faithful baseline behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuasirandomDiffusion {
    /// Error numerators in `[0, d⁺)`, one per (node, original port).
    error_num: Vec<u64>,
    d: usize,
}

impl QuasirandomDiffusion {
    /// Creates the scheme for `gp` with all accumulators at zero.
    pub fn new(gp: &BalancingGraph) -> Self {
        QuasirandomDiffusion {
            error_num: vec![0; gp.num_nodes() * gp.degree()],
            d: gp.degree(),
        }
    }

    /// The current error numerator of node `u`'s original port `p`
    /// (the edge's accumulated rounding error is `this / d⁺`).
    pub fn error_numerator(&self, u: usize, p: usize) -> u64 {
        self.error_num[u * self.d + p]
    }
}

impl Balancer for QuasirandomDiffusion {
    fn name(&self) -> &'static str {
        "quasirandom"
    }

    fn may_overdraw(&self) -> bool {
        true
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        let d = gp.degree();
        let d_plus = gp.degree_plus() as u64;
        for u in 0..gp.num_nodes() {
            // The scheme is defined on non-negative continuous flow;
            // when a node is overdrawn it ships nothing and waits for
            // incoming tokens (errors freeze).
            let x = loads.get(u);
            if x <= 0 {
                continue;
            }
            let x = x as u64;
            for p in 0..d {
                let err = &mut self.error_num[u * d + p];
                let accumulated = x + *err;
                let send = accumulated / d_plus;
                *err = accumulated % d_plus;
                plan.set(u, p, send);
            }
            // Self-loops / remainder: everything not sent stays home
            // (retained by the engine); no explicit self-loop flow is
            // needed for the bounded-error property.
        }
    }

    fn reset(&mut self) {
        self.error_num.fill(0);
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
    fn accumulators_stay_below_one() {
        let gp = lazy_cycle(8);
        let mut bal = QuasirandomDiffusion::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1111));
        engine.run(&mut bal, Run::new(300)).unwrap();
        let d_plus = 4;
        for u in 0..8 {
            for p in 0..2 {
                assert!(bal.error_numerator(u, p) < d_plus, "error must stay < 1");
            }
        }
    }

    #[test]
    fn cumulative_flow_tracks_continuous_within_one() {
        // The defining property of [9]: |F_t(e) − C_t(e)| < 1 where
        // C_t is the cumulative continuous flow computed from the
        // *discrete* loads — by construction F_t = (Σx + err_0 −
        // err_t)/d⁺, so the check reduces to the accumulator bound, but
        // we verify it end-to-end through the ledger.
        let gp = lazy_cycle(6);
        let d_plus = 4u64;
        let mut bal = QuasirandomDiffusion::new(&gp);
        let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(6, 600));
        engine.attach_monitor();
        let mut continuous_numerator = [0u64; 6 * 2]; // Σ_τ x_τ(u) per edge
        for _ in 0..200 {
            for u in 0..6 {
                let x = engine.loads().get(u).max(0) as u64;
                for p in 0..2 {
                    continuous_numerator[u * 2 + p] += x;
                }
            }
            engine.step(&mut bal).unwrap();
        }
        for u in 0..6 {
            for p in 0..2 {
                let ledger = engine.monitor().unwrap().ledger();
                let discrete = ledger.get(u, p) as i128 * d_plus as i128;
                let continuous = continuous_numerator[u * 2 + p] as i128;
                assert!(
                    (discrete - continuous).abs() < d_plus as i128,
                    "edge ({u},{p}) drifted"
                );
            }
        }
    }

    #[test]
    fn conserves_tokens() {
        let gp = lazy_cycle(8);
        let mut bal = QuasirandomDiffusion::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 808));
        engine.run(&mut bal, Run::new(500)).unwrap();
        assert_eq!(engine.loads().total(), 808);
    }

    #[test]
    fn balances_reasonably() {
        let gp = lazy_cycle(16);
        let mut bal = QuasirandomDiffusion::new(&gp);
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 3200));
        engine.run(&mut bal, Run::new(5000)).unwrap();
        assert!(
            engine.loads().discrepancy() <= 10,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn declares_overdraw_capability() {
        let gp = lazy_cycle(4);
        let bal = QuasirandomDiffusion::new(&gp);
        assert!(bal.may_overdraw());
        assert!(bal.is_deterministic());
        assert!(!bal.is_stateless());
    }

    #[test]
    fn reset_clears_errors() {
        let gp = lazy_cycle(4);
        let mut bal = QuasirandomDiffusion::new(&gp);
        let loads = LoadVector::uniform(4, 7);
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        assert!((0..4).any(|u| (0..2).any(|p| bal.error_numerator(u, p) != 0)));
        bal.reset();
        assert!((0..4).all(|u| (0..2).all(|p| bal.error_numerator(u, p) == 0)));
    }

    #[test]
    fn overdrawn_nodes_send_nothing() {
        let gp = lazy_cycle(4);
        let mut bal = QuasirandomDiffusion::new(&gp);
        let loads = LoadVector::new(vec![-3, 10, 10, 10]);
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        assert_eq!(plan.node_total(0), 0);
        assert!(plan.node_total(1) > 0);
    }
}
