//! Machine-checkable versions of the paper's fairness definitions.
//!
//! The paper's results are *conditional* on structural properties of the
//! balancing scheme: cumulative δ-fairness (Definition 2.1),
//! round-fairness and s-self-preference (Definition 3.1). Rather than
//! trusting that an implementation belongs to its claimed class, the
//! [`FairnessMonitor`] observes every step and reports:
//!
//! * per-step **floor violations** — an edge received fewer than
//!   `⌊x_t(u)/d⁺⌋` tokens (condition (i) of Definition 2.1);
//! * per-step **round-fairness violations** — an edge received neither
//!   `⌊x_t(u)/d⁺⌋` nor `⌈x_t(u)/d⁺⌉` (Definition 3.1);
//! * the **witnessed s** — the largest `s` for which the run so far is
//!   s-self-preferring (`None` until a constraining step is seen);
//! * **negative planning events** — a node planned to send more than it
//!   held (only the overdraw-capable baselines may do this).
//!
//! The cumulative part of Definition 2.1 — the δ such that any two
//! original edges' lifetime totals differ by at most δ — is read off the
//! monitor's own [`CumulativeLedger`] via
//! [`CumulativeLedger::original_edge_spread`].

use dlb_graph::BalancingGraph;

use crate::balancer::split_load;
use crate::{CumulativeLedger, FlowPlan, LoadVector};

/// Runtime checker for the paper's per-step fairness conditions, and
/// keeper of the cumulative ledger `F_t` over the steps it observed.
///
/// Attach one to an [`Engine`](crate::Engine) via
/// [`Engine::attach_monitor`](crate::Engine::attach_monitor); it
/// observes each step *before* flows are applied (the definitions are in
/// terms of the pre-step loads `x_t`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessMonitor {
    ledger: CumulativeLedger,
    steps_observed: usize,
    floor_violations: u64,
    round_violations: u64,
    witnessed_s: Option<u64>,
    self_preference_samples: u64,
    overdraw_events: u64,
}

impl FairnessMonitor {
    /// A fresh monitor with no observations and an empty ledger shaped
    /// for `gp`.
    pub fn for_graph(gp: &BalancingGraph) -> Self {
        FairnessMonitor {
            ledger: CumulativeLedger::for_graph(gp),
            steps_observed: 0,
            floor_violations: 0,
            round_violations: 0,
            witnessed_s: None,
            self_preference_samples: 0,
            overdraw_events: 0,
        }
    }

    /// The cumulative ledger `F_t` over the observed steps.
    pub fn ledger(&self) -> &CumulativeLedger {
        &self.ledger
    }

    /// Number of steps observed.
    pub fn steps_observed(&self) -> usize {
        self.steps_observed
    }

    /// Count of (step, node, port) triples where an edge received fewer
    /// than `⌊x_t(u)/d⁺⌋` tokens — violations of Definition 2.1 (i).
    pub fn floor_violations(&self) -> u64 {
        self.floor_violations
    }

    /// Count of (step, node, port) triples where an edge received
    /// neither `⌊x_t(u)/d⁺⌋` nor `⌈x_t(u)/d⁺⌉` tokens — violations of
    /// round-fairness (Definition 3.1).
    pub fn round_violations(&self) -> u64 {
        self.round_violations
    }

    /// The largest `s` consistent with every observed step being
    /// s-self-preferring, or `None` if no step constrained `s` yet
    /// (meaning: any `s ≤ d°` is so far consistent).
    ///
    /// A step constrains `s` at node `u` when the `e(u)` surplus tokens
    /// exceed the number `c` of self-loops that received
    /// `⌈x_t(u)/d⁺⌉`; then s-self-preference requires `s ≤ c`.
    pub fn witnessed_s(&self) -> Option<u64> {
        self.witnessed_s
    }

    /// Number of node-steps where self-preference was actually exercised
    /// (`e(u) > 0`), i.e. how much evidence backs [`witnessed_s`].
    ///
    /// [`witnessed_s`]: FairnessMonitor::witnessed_s
    pub fn self_preference_samples(&self) -> u64 {
        self.self_preference_samples
    }

    /// Number of node-steps where the plan sent more than the node held.
    pub fn overdraw_events(&self) -> u64 {
        self.overdraw_events
    }

    /// Whether the run so far is consistent with cumulative fairness'
    /// per-step condition and round-fairness.
    pub fn is_round_fair(&self) -> bool {
        self.round_violations == 0
    }

    /// Observes one step: `loads` are the pre-step loads `x_t`, `plan`
    /// the flows `f_t` about to be applied, which the ledger records.
    ///
    /// # Panics
    ///
    /// Panics if the plan's shape differs from the ledger's.
    pub fn observe(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &FlowPlan) {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        for u in 0..gp.num_nodes() {
            let x = loads.get(u);
            let flows = plan.node(u);
            let sent: u64 = flows.iter().sum();
            if x < 0 || sent > x as u64 {
                self.overdraw_events += 1;
                // Fairness conditions are defined for non-negative loads
                // only; skip the remaining checks for this node.
                continue;
            }
            let (base, e) = split_load(x, d_plus);
            let ceil = if e > 0 { base + 1 } else { base };
            let mut ceil_self_loops = 0u64;
            for (p, &f) in flows.iter().enumerate() {
                if f < base {
                    self.floor_violations += 1;
                }
                if f != base && f != ceil {
                    self.round_violations += 1;
                }
                if p >= d && f >= ceil && e > 0 {
                    ceil_self_loops += 1;
                }
            }
            if e > 0 {
                self.self_preference_samples += 1;
                if ceil_self_loops < e as u64 {
                    // This step caps the feasible s at `ceil_self_loops`.
                    self.witnessed_s = Some(
                        self.witnessed_s
                            .map_or(ceil_self_loops, |w| w.min(ceil_self_loops)),
                    );
                }
            }
        }
        self.ledger.record(plan);
        self.steps_observed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    /// Builds a plan sending `per_port[p]` from node 0 and a fair floor
    /// split everywhere else.
    fn plan_with_node0(gp: &BalancingGraph, loads: &LoadVector, node0: &[u64]) -> FlowPlan {
        let mut plan = FlowPlan::for_graph(gp);
        let d_plus = gp.degree_plus();
        for u in 0..gp.num_nodes() {
            if u == 0 {
                for (p, &f) in node0.iter().enumerate() {
                    plan.set(0, p, f);
                }
            } else {
                let (base, e) = split_load(loads.get(u), d_plus);
                for p in 0..d_plus {
                    plan.set(u, p, base + u64::from(p < e));
                }
            }
        }
        plan
    }

    #[test]
    fn fair_floor_split_passes_all_checks() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 9); // base 2, e 1 with d+ = 4
        let mut m = FairnessMonitor::for_graph(&gp);
        let mut plan = FlowPlan::for_graph(&gp);
        for u in 0..4 {
            // 3, 2, 2, 2: round fair, extra on an original port.
            plan.node_mut(u).copy_from_slice(&[3, 2, 2, 2]);
        }
        m.observe(&gp, &loads, &plan);
        assert_eq!(m.floor_violations(), 0);
        assert_eq!(m.round_violations(), 0);
        assert!(m.is_round_fair());
        // Extra went to an original edge, zero ceil self-loops but e = 1:
        // the feasible s is capped at 0.
        assert_eq!(m.witnessed_s(), Some(0));
        assert_eq!(m.self_preference_samples(), 4);
    }

    #[test]
    fn detects_floor_violation() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 8); // base 2 exactly
        let mut m = FairnessMonitor::for_graph(&gp);
        // Node 0 starves port 1 (sends 1 < base = 2).
        let plan = plan_with_node0(&gp, &loads, &[3, 1, 2, 2]);
        m.observe(&gp, &loads, &plan);
        assert_eq!(m.floor_violations(), 1);
        // 3 and 1 are both outside {2} (e = 0 so ceil = base = 2).
        assert_eq!(m.round_violations(), 2);
    }

    #[test]
    fn detects_self_preference() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 10); // base 2, e 2
        let mut m = FairnessMonitor::for_graph(&gp);
        let mut plan = FlowPlan::for_graph(&gp);
        for u in 0..4 {
            // Both extras on self-loop ports 2 and 3.
            plan.node_mut(u).copy_from_slice(&[2, 2, 3, 3]);
        }
        m.observe(&gp, &loads, &plan);
        assert_eq!(m.round_violations(), 0);
        // Both surplus tokens went to self-loops: c = e = 2 everywhere,
        // so s is never constrained.
        assert_eq!(m.witnessed_s(), None);
    }

    #[test]
    fn witnessed_s_takes_minimum_over_steps() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 10); // base 2, e 2
        let mut m = FairnessMonitor::for_graph(&gp);
        let mut generous = FlowPlan::for_graph(&gp);
        let mut stingy = FlowPlan::for_graph(&gp);
        for u in 0..4 {
            generous.node_mut(u).copy_from_slice(&[2, 2, 3, 3]); // c = 2 = e
            stingy.node_mut(u).copy_from_slice(&[3, 2, 3, 2]); // c = 1 < e
        }
        m.observe(&gp, &loads, &generous);
        assert_eq!(m.witnessed_s(), None);
        m.observe(&gp, &loads, &stingy);
        assert_eq!(m.witnessed_s(), Some(1));
        assert_eq!(m.steps_observed(), 2);
    }

    #[test]
    fn overdraw_skips_fairness_checks() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 2);
        let mut m = FairnessMonitor::for_graph(&gp);
        // Node 0 sends 5 > 2 held.
        let plan = plan_with_node0(&gp, &loads, &[5, 0, 0, 0]);
        m.observe(&gp, &loads, &plan);
        assert_eq!(m.overdraw_events(), 1);
        // Node 0's wild flows must not pollute the fairness counters...
        // but other nodes' fair splits are still checked.
        assert_eq!(m.floor_violations(), 0);
    }

    #[test]
    fn zero_load_constrains_nothing() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 0);
        let mut m = FairnessMonitor::for_graph(&gp);
        let plan = FlowPlan::for_graph(&gp);
        m.observe(&gp, &loads, &plan);
        assert_eq!(m.floor_violations(), 0);
        assert_eq!(m.round_violations(), 0);
        assert_eq!(m.witnessed_s(), None);
        assert_eq!(m.self_preference_samples(), 0);
    }
}
