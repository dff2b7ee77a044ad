use dlb_graph::BalancingGraph;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::balancer::split_load;
use crate::{Balancer, KernelBalancer, KernelRounds};

/// The randomized-extra-token diffusion of Berenbrink, Cooper,
/// Friedetzky, Friedrich and Sauerwald \[5\].
///
/// Every port receives the floor `⌊x/d⁺⌋`; each of the `x mod d⁺`
/// surplus tokens is then sent through an **independently uniform
/// random original edge**. Never overdraws (it only distributes tokens
/// the node holds), needs no communication, but is randomized — its
/// Table 1 row reads D ✗, SL ✓, NL ✓, NC ✓.
///
/// Runs are reproducible: the generator is seeded at construction and
/// restored by [`Balancer::reset`].
#[derive(Debug, Clone)]
pub struct RandomizedExtraTokens {
    seed: u64,
    rng: StdRng,
}

impl RandomizedExtraTokens {
    /// Creates the scheme with a fixed RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomizedExtraTokens {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Balancer for RandomizedExtraTokens {
    fn name(&self) -> &'static str {
        "randomized-extra-tokens"
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn is_stateless(&self) -> bool {
        // Stateless in the paper's sense: the distribution of a node's
        // sends depends only on its current load.
        true
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

impl KernelBalancer for RandomizedExtraTokens {
    fn kernel_node(&mut self, gp: &BalancingGraph, _u: usize, load: i64, flows: &mut [u64]) {
        let pick = Uniform::from(0..gp.degree());
        let (base, e) = split_load(load, gp.degree_plus());
        flows.fill(base);
        for _ in 0..e {
            flows[pick.sample(&mut self.rng)] += 1;
        }
    }
}

/// The randomized edge-rounding diffusion of Sauerwald and Sun \[18\].
///
/// Each original edge should carry the continuous flow
/// `x/d⁺ = base + e/d⁺`; the scheme sends `base` plus an independent
/// Bernoulli(`e/d⁺`) extra token per edge. In expectation this is
/// exactly the continuous flow, and \[18\] shows it reaches
/// `O(√(d·log n))` discrepancy after `O(T)` steps — but the sum of the
/// random sends can exceed the node's load, so it **may overdraw**
/// (Table 1: D ✗, SL ✓, NL ✗, NC ✓).
#[derive(Debug, Clone)]
pub struct RandomizedEdgeRounding {
    seed: u64,
    rng: StdRng,
}

impl RandomizedEdgeRounding {
    /// Creates the scheme with a fixed RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomizedEdgeRounding {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Balancer for RandomizedEdgeRounding {
    fn name(&self) -> &'static str {
        "randomized-edge-rounding"
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn may_overdraw(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn as_kernel(&mut self) -> &mut dyn KernelRounds {
        self
    }
}

impl KernelBalancer for RandomizedEdgeRounding {
    fn kernel_node(&mut self, gp: &BalancingGraph, _u: usize, load: i64, flows: &mut [u64]) {
        if load <= 0 {
            flows.fill(0); // overdrawn nodes wait for incoming tokens
            return;
        }
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        let (base, e) = split_load(load, d_plus);
        let p_extra = e as f64 / d_plus as f64;
        for f in flows[..d].iter_mut() {
            *f = base + u64::from(self.rng.gen_bool(p_extra));
        }
        // Self-loops take the floor; the (possibly negative) remainder
        // is retained/overdrawn by the engine.
        flows[d..].fill(base);
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
    fn extra_tokens_never_overdraw() {
        let gp = lazy_cycle(8);
        let mut bal = RandomizedExtraTokens::new(5);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 505));
        engine.run(&mut bal, Run::new(300)).unwrap();
        assert_eq!(engine.negative_node_steps(), 0);
        assert_eq!(engine.loads().total(), 505);
    }

    #[test]
    fn extra_tokens_balance_cycle() {
        let gp = lazy_cycle(16);
        let mut bal = RandomizedExtraTokens::new(5);
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 3200));
        engine.run(&mut bal, Run::new(5000)).unwrap();
        assert!(
            engine.loads().discrepancy() <= 12,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn edge_rounding_conserves_and_balances() {
        let gp = lazy_cycle(16);
        let mut bal = RandomizedEdgeRounding::new(9);
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 3200));
        engine.run(&mut bal, Run::new(5000)).unwrap();
        assert_eq!(engine.loads().total(), 3200);
        assert!(
            engine.loads().discrepancy() <= 12,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn edge_rounding_can_overdraw() {
        let bal = RandomizedEdgeRounding::new(0);
        assert!(bal.may_overdraw());
        // Overdraw is possible but not guaranteed per run; just confirm
        // a run from an adversarial start completes and conserves.
        let gp = lazy_cycle(8);
        let mut bal = RandomizedEdgeRounding::new(0);
        let mut engine = Engine::new(gp, LoadVector::new(vec![3, 0, 0, 0, 3, 0, 0, 0]));
        engine.run(&mut bal, Run::new(200)).unwrap();
        assert_eq!(engine.loads().total(), 6);
    }

    #[test]
    fn both_are_reproducible_and_seed_sensitive() {
        let run = |seed: u64| {
            let gp = lazy_cycle(8);
            let mut bal = RandomizedExtraTokens::new(seed);
            let mut engine = Engine::new(gp, LoadVector::point_mass(8, 333));
            engine.run(&mut bal, Run::new(100)).unwrap();
            engine.loads().clone()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn reset_replays_randomness() {
        fn replays(bal: &mut impl KernelBalancer) {
            let gp = lazy_cycle(4);
            let first = round_rows(bal, &gp, &[7; 4]);
            bal.reset();
            let second = round_rows(bal, &gp, &[7; 4]);
            assert_eq!(first, second, "{} reset must replay", bal.name());
        }
        replays(&mut RandomizedExtraTokens::new(11));
        replays(&mut RandomizedEdgeRounding::new(11));
    }

    #[test]
    fn property_flags() {
        let a = RandomizedExtraTokens::new(0);
        assert!(!a.is_deterministic() && a.is_stateless() && !a.may_overdraw());
        let b = RandomizedEdgeRounding::new(0);
        assert!(!b.is_deterministic() && b.is_stateless() && b.may_overdraw());
    }

    #[test]
    fn extra_tokens_floor_on_all_ports() {
        let gp = lazy_cycle(4);
        let mut bal = RandomizedExtraTokens::new(3);
        let rows = round_rows(&mut bal, &gp, &[9; 4]); // base 2, e 1
        for (u, flows) in rows.iter().enumerate() {
            for (p, &f) in flows.iter().enumerate() {
                assert!(f >= 2, "port ({u},{p}) got below floor");
            }
            assert_eq!(flows.iter().sum::<u64>(), 9);
        }
    }
}
