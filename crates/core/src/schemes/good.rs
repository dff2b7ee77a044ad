use dlb_graph::{BalancingGraph, GraphError};

use crate::balancer::split_load;
use crate::{Balancer, FlowPlan, LoadVector};

/// A generic **good s-balancer** with the self-preference parameter `s`
/// chosen at construction (Definition 3.1).
///
/// Each step, for a node with load `x = base·d⁺ + e`:
///
/// 1. every port receives `base = ⌊x/d⁺⌋` tokens (condition of
///    Definition 2.1 (i));
/// 2. of the `e` surplus tokens, `c_self = max(min(e, s), e − d)` go to
///    self-loops (one each, so each self-loop gets `base` or `base+1` —
///    round-fair, and at least `min{s, e}` self-loops get the ceiling:
///    **s-self-preferring**);
/// 3. the remaining `e − c_self ≤ d` surplus tokens go to original
///    edges round-robin via a per-node rotor, making the scheme
///    **cumulatively 1-fair** on original edges.
///
/// Because `s` is explicit, this scheme is the knob for the Theorem 3.3
/// experiments: time-to-`O(d)` discrepancy should scale like
/// `(d/s)·log²n/µ`, flattening once `s = Ω(d)`.
///
/// # Example
///
/// ```
/// use dlb_graph::{generators, BalancingGraph};
/// use dlb_core::{Engine, LoadVector, Run};
/// use dlb_core::schemes::GoodBalancer;
///
/// let gp = BalancingGraph::lazy(generators::cycle(8)?);
/// let mut bal = GoodBalancer::new(&gp, 2)?; // s = 2 ≤ d° = 2
/// let mut engine = Engine::new(gp, LoadVector::point_mass(8, 800));
/// engine.run(&mut bal, Run::new(2_000))?;
/// assert!(engine.loads().discrepancy() <= 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodBalancer {
    s: usize,
    rotors: Vec<usize>,
}

impl GoodBalancer {
    /// Creates a good s-balancer for `gp`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 ≤ s ≤ d°` (Definition 3.1's range).
    pub fn new(gp: &BalancingGraph, s: usize) -> Result<Self, GraphError> {
        let d_self = gp.num_self_loops();
        if s == 0 || s > d_self {
            return Err(GraphError::InvalidParameters {
                reason: format!("good s-balancer requires 1 <= s <= d° = {d_self}, got s = {s}"),
            });
        }
        Ok(GoodBalancer {
            s,
            rotors: vec![0; gp.num_nodes()],
        })
    }

    /// The self-preference parameter `s`.
    pub fn s(&self) -> usize {
        self.s
    }
}

impl Balancer for GoodBalancer {
    fn name(&self) -> &'static str {
        "good-s-balancer"
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        for u in 0..gp.num_nodes() {
            let (base, e) = split_load(loads.get(u), d_plus);
            let flows = plan.node_mut(u);
            for f in flows.iter_mut() {
                *f = base;
            }
            if e == 0 {
                continue;
            }
            // Self-loops first: enough to be s-self-preferring, and at
            // least e − d so the originals are not oversubscribed.
            let c_self = e.min(self.s).max(e.saturating_sub(d));
            debug_assert!(c_self <= gp.num_self_loops());
            for f in flows[d..d + c_self].iter_mut() {
                *f += 1;
            }
            // Remaining extras round-robin over original edges.
            let c_orig = e - c_self;
            debug_assert!(c_orig <= d);
            let rotor = self.rotors[u];
            for i in 0..c_orig {
                flows[(rotor + i) % d] += 1;
            }
            self.rotors[u] = (rotor + c_orig) % d.max(1);
        }
    }

    fn reset(&mut self) {
        self.rotors.fill(0);
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

    /// d = 2, d° = 6, d⁺ = 8 — room for s up to 6.
    fn very_lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::with_self_loops(generators::cycle(n).unwrap(), 6).unwrap()
    }

    #[test]
    fn surplus_prefers_self_loops() {
        let gp = very_lazy_cycle(4);
        let mut bal = GoodBalancer::new(&gp, 3).unwrap();
        let loads = LoadVector::uniform(4, 8 + 4); // base 1, e 4
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        // c_self = max(min(4, 3), 4 − 2) = 3 self-loops get the ceiling;
        // 1 extra goes to original port 0 (rotor at 0).
        assert_eq!(plan.node(0), &[2, 1, 2, 2, 2, 1, 1, 1]);
        assert_eq!(plan.node_total(0), 12);
    }

    #[test]
    fn never_oversubscribes_originals() {
        let gp = lazy_cycle(4); // d = 2, d° = 2, d⁺ = 4
        let mut bal = GoodBalancer::new(&gp, 1).unwrap();
        let loads = LoadVector::uniform(4, 7); // base 1, e 3
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        // c_self = max(min(3,1), 3−2) = 1... no: max(1, 1) = 1;
        // c_orig = 2 ≤ d ✓.
        assert_eq!(plan.node(0), &[2, 2, 2, 1]);
    }

    #[test]
    fn monitor_confirms_class_membership() {
        let gp = very_lazy_cycle(8);
        let mut bal = GoodBalancer::new(&gp, 4).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1021));
        engine.attach_monitor();
        engine.run(&mut bal, Run::new(400)).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0);
        assert_eq!(m.floor_violations(), 0);
        match m.witnessed_s() {
            None => {}
            Some(s) => assert!(s >= 4, "scheme must witness s >= 4, got {s}"),
        }
        assert!(m.ledger().original_edge_spread() <= 1);
    }

    #[test]
    fn rotor_keeps_originals_cumulatively_fair() {
        let gp = lazy_cycle(8);
        let mut bal = GoodBalancer::new(&gp, 2).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 997));
        engine.attach_monitor();
        engine.run(&mut bal, Run::new(600)).unwrap();
        assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
        assert_eq!(engine.loads().total(), 997);
    }

    #[test]
    fn rejects_out_of_range_s() {
        let gp = lazy_cycle(4); // d° = 2
        assert!(GoodBalancer::new(&gp, 0).is_err());
        assert!(GoodBalancer::new(&gp, 3).is_err());
        assert!(GoodBalancer::new(&gp, 2).is_ok());
    }

    #[test]
    fn larger_s_balances_no_slower() {
        // Sanity check of the Theorem 3.3 trend on a small instance:
        // time to reach discrepancy ≤ 3d for s = d° vs s = 1.
        let time_to = |s: usize| {
            let gp = very_lazy_cycle(16);
            let d = gp.degree() as i64;
            let mut bal = GoodBalancer::new(&gp, s).unwrap();
            let mut engine = Engine::new(gp, LoadVector::point_mass(16, 4096));
            (0..100_000)
                .find_map(|_| {
                    let st = engine.step(&mut bal).unwrap();
                    (st.discrepancy <= 3 * d).then_some(st.step)
                })
                .expect("must converge")
        };
        let slow = time_to(1);
        let fast = time_to(6);
        assert!(
            fast <= slow,
            "s = 6 took {fast} steps, s = 1 took {slow} steps"
        );
    }

    #[test]
    fn reset_clears_rotors() {
        let gp = lazy_cycle(4);
        let mut bal = GoodBalancer::new(&gp, 1).unwrap();
        let loads = LoadVector::uniform(4, 7);
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        bal.reset();
        assert_eq!(bal.rotors, vec![0; 4]);
    }

    #[test]
    fn zero_surplus_is_uniform() {
        let gp = lazy_cycle(4);
        let mut bal = GoodBalancer::new(&gp, 2).unwrap();
        let loads = LoadVector::uniform(4, 8); // e = 0
        let mut plan = FlowPlan::for_graph(&gp);
        bal.plan(&gp, &loads, &mut plan);
        assert_eq!(plan.node(0), &[2, 2, 2, 2]);
    }
}
