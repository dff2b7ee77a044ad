use dlb_graph::BalancingGraph;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::balancer::split_load;
use crate::{Balancer, FlowPlan, LoadVector};

/// How a [`RoundFairDiffusion`] places the `e = x mod d⁺` surplus
/// tokens each step.
///
/// Every rule keeps the scheme **round-fair** in the sense of \[17\]
/// (every port gets `⌊x/d⁺⌋` or `⌈x/d⁺⌉`), but they differ wildly in
/// *cumulative* fairness — which is exactly the paper's point: the \[17\]
/// class admits members with discrepancy `Ω(d·diam)` (Theorem 4.1),
/// and only the cumulatively fair members enjoy Theorem 2.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundingRule {
    /// Surplus always goes to the lowest-numbered ports. Stateless and
    /// deterministic, but cumulatively *unfair*: port 0's lifetime total
    /// runs away from port d−1's. The in-class adversary for
    /// experiments around Theorem 4.1.
    FirstPorts,
    /// Surplus round-robins over all ports (a rotor in disguise):
    /// cumulatively 1-fair, the best-behaved member of the class.
    RoundRobin,
    /// Surplus goes to `e` distinct ports sampled uniformly at random
    /// (seeded). Cumulative spread grows like √t.
    Random {
        /// RNG seed (runs are reproducible for a fixed seed).
        seed: u64,
    },
    /// A round-robin rotor that only advances every `period` steps, so
    /// the same ports win the surplus `period` times in a row. This
    /// engineers a tunable cumulative unfairness that grows with
    /// `period` — the knob for the δ-sensitivity ablation (A2), which
    /// reads the *witnessed* δ off the engine's ledger rather than
    /// assuming one. `period = 1` is exactly
    /// [`RoundingRule::RoundRobin`].
    LaggedRotor {
        /// Steps between rotor advances; the witnessed cumulative δ
        /// scales with this.
        period: usize,
    },
}

/// The \[17\]-class discrete diffusion: round-fair rounding of the
/// continuous flow `x/d⁺`, with the surplus placement given by a
/// [`RoundingRule`].
///
/// Rabani, Sinclair and Wanka \[17\] prove every member of this class
/// reaches `O(d·log n/µ)` discrepancy after `T` steps; this paper shows
/// the *cumulatively fair* members do strictly better, and Theorem 4.1
/// shows the bound cannot be improved for the class at large. Running
/// this scheme with different rules reproduces that separation.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph};
/// use dlb_core::{Engine, LoadVector, Run};
/// use dlb_core::schemes::{RoundFairDiffusion, RoundingRule};
///
/// let gp = BalancingGraph::lazy(generators::cycle(8)?);
/// let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::FirstPorts);
/// let mut engine = Engine::new(gp, LoadVector::point_mass(8, 800));
/// engine.attach_monitor();
/// engine.run(&mut bal, Run::new(200))?;
/// assert_eq!(engine.monitor().unwrap().round_violations(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoundFairDiffusion {
    rule: RoundingRule,
    rotors: Vec<usize>,
    rng: StdRng,
    step: usize,
}

impl RoundFairDiffusion {
    /// Creates the scheme for `gp` with the given surplus rule.
    pub fn new(gp: &BalancingGraph, rule: RoundingRule) -> Self {
        let seed = match rule {
            RoundingRule::Random { seed } => seed,
            _ => 0,
        };
        RoundFairDiffusion {
            rule,
            rotors: vec![0; gp.num_nodes()],
            rng: StdRng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// The surplus placement rule.
    pub fn rule(&self) -> &RoundingRule {
        &self.rule
    }
}

impl Balancer for RoundFairDiffusion {
    fn name(&self) -> &'static str {
        match self.rule {
            RoundingRule::FirstPorts => "round-fair/first-ports",
            RoundingRule::RoundRobin => "round-fair/round-robin",
            RoundingRule::Random { .. } => "round-fair/random",
            RoundingRule::LaggedRotor { .. } => "round-fair/lagged-rotor",
        }
    }

    fn is_stateless(&self) -> bool {
        matches!(self.rule, RoundingRule::FirstPorts)
    }

    fn is_deterministic(&self) -> bool {
        !matches!(self.rule, RoundingRule::Random { .. })
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        let d_plus = gp.degree_plus();
        self.step += 1;
        for u in 0..gp.num_nodes() {
            let (base, e) = split_load(loads.get(u), d_plus);
            let flows = plan.node_mut(u);
            for f in flows.iter_mut() {
                *f = base;
            }
            if e == 0 {
                continue;
            }
            match &self.rule {
                RoundingRule::FirstPorts => {
                    for f in flows[..e].iter_mut() {
                        *f += 1;
                    }
                }
                RoundingRule::RoundRobin => {
                    let rotor = self.rotors[u];
                    for i in 0..e {
                        flows[(rotor + i) % d_plus] += 1;
                    }
                    self.rotors[u] = (rotor + e) % d_plus;
                }
                RoundingRule::Random { .. } => {
                    for idx in sample(&mut self.rng, d_plus, e) {
                        flows[idx] += 1;
                    }
                }
                RoundingRule::LaggedRotor { period } => {
                    let period = (*period).max(1);
                    let rotor = self.rotors[u];
                    for i in 0..e {
                        flows[(rotor + i) % d_plus] += 1;
                    }
                    if self.step.is_multiple_of(period) {
                        self.rotors[u] = (rotor + e) % d_plus;
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        self.rotors.fill(0);
        self.step = 0;
        if let RoundingRule::Random { seed } = self.rule {
            self.rng = StdRng::seed_from_u64(seed);
        }
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
    fn first_ports_rule_stacks_surplus_at_front() {
        let gp = lazy_cycle(4);
        let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::FirstPorts);
        let loads = LoadVector::uniform(4, 6); // base 1, e 2
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        assert_eq!(plan.node(0), &[2, 2, 1, 1]);
    }

    #[test]
    fn first_ports_is_cumulatively_unfair() {
        let gp = lazy_cycle(8);
        let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::FirstPorts);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1001));
        engine.attach_monitor();
        engine.run(&mut bal, Run::new(400)).unwrap();
        // Port 0 keeps winning the surplus: the spread grows with t.
        assert!(
            engine.monitor().unwrap().ledger().original_edge_spread() > 10,
            "spread {} should grow",
            engine.monitor().unwrap().ledger().original_edge_spread()
        );
    }

    #[test]
    fn round_robin_is_cumulatively_one_fair() {
        let gp = lazy_cycle(8);
        let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::RoundRobin);
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1001));
        engine.attach_monitor();
        engine.run(&mut bal, Run::new(400)).unwrap();
        assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
    }

    #[test]
    fn all_rules_are_round_fair_and_conserve() {
        let rules = [
            RoundingRule::FirstPorts,
            RoundingRule::RoundRobin,
            RoundingRule::Random { seed: 42 },
            RoundingRule::LaggedRotor { period: 4 },
        ];
        for rule in rules {
            let gp = lazy_cycle(8);
            let mut bal = RoundFairDiffusion::new(&gp, rule.clone());
            let mut engine = Engine::new(gp, LoadVector::point_mass(8, 313));
            engine.attach_monitor();
            engine.run(&mut bal, Run::new(150)).unwrap();
            let m = engine.monitor().unwrap();
            assert_eq!(m.round_violations(), 0, "rule {rule:?} not round-fair");
            assert_eq!(m.floor_violations(), 0, "rule {rule:?} starves a port");
            assert_eq!(engine.loads().total(), 313, "rule {rule:?} lost tokens");
        }
    }

    #[test]
    fn random_rule_is_reproducible() {
        let run = |seed: u64| {
            let gp = lazy_cycle(8);
            let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::Random { seed });
            let mut engine = Engine::new(gp, LoadVector::point_mass(8, 555));
            engine.run(&mut bal, Run::new(100)).unwrap();
            engine.loads().clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn lagged_rotor_spread_is_bounded_and_scales_with_period() {
        let spread_for = |period: usize| {
            let gp = lazy_cycle(8);
            let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::LaggedRotor { period });
            let mut engine = Engine::new(gp, LoadVector::point_mass(8, 999));
            engine.attach_monitor();
            engine.run(&mut bal, Run::new(1000)).unwrap();
            engine.monitor().unwrap().ledger().original_edge_spread()
        };
        let s1 = spread_for(1);
        let s8 = spread_for(8);
        assert!(s1 <= 1, "period 1 is plain round-robin, got spread {s1}");
        assert!(
            s8 >= s1 + 3,
            "longer lag must witness meaningfully more unfairness (s1 = {s1}, s8 = {s8})"
        );
    }

    #[test]
    fn reset_restores_rng_and_rotors() {
        let gp = lazy_cycle(4);
        let mut bal = RoundFairDiffusion::new(&gp, RoundingRule::Random { seed: 3 });
        let loads = LoadVector::uniform(4, 7);
        let mut plan1 = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan1);
        bal.reset();
        let mut plan2 = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan2);
        assert_eq!(plan1, plan2, "reset must replay the same randomness");
    }

    #[test]
    fn property_flags_match_rule() {
        let gp = lazy_cycle(4);
        let first = RoundFairDiffusion::new(&gp, RoundingRule::FirstPorts);
        assert!(first.is_stateless() && first.is_deterministic());
        let rr = RoundFairDiffusion::new(&gp, RoundingRule::RoundRobin);
        assert!(!rr.is_stateless() && rr.is_deterministic());
        let rnd = RoundFairDiffusion::new(&gp, RoundingRule::Random { seed: 1 });
        assert!(!rnd.is_deterministic());
    }
}
