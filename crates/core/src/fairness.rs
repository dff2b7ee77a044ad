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
//! * **overdraw events** — a node planned to send more than it
//!   held (only the overdraw-capable baselines may do this).
//!
//! The cumulative part of Definition 2.1 — the δ such that any two
//! original edges' lifetime totals differ by at most δ — is read off the
//! monitor's own [`CumulativeLedger`] via
//! [`CumulativeLedger::original_edge_spread`].
//!
//! The engine feeds the monitor from the kernel's flow-buffer round,
//! which every monitored run takes: each node's row is written into a
//! staging buffer that [`Engine::attach_monitor`](crate::Engine::attach_monitor)
//! allocates once, and the monitor observes it after the round's last
//! node has validated, so a rejected round leaves the monitor untouched.

use dlb_graph::BalancingGraph;

use crate::balancer::split_load;

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

    /// Number of node-steps where a node sent more than it held.
    pub fn overdraw_events(&self) -> u64 {
        self.overdraw_events
    }

    /// Whether the run so far is consistent with cumulative fairness'
    /// per-step condition and round-fairness.
    pub fn is_round_fair(&self) -> bool {
        self.round_violations == 0
    }

    /// Observes one step: `loads` are the pre-step loads `x_t`, `flows`
    /// the flows `f_t` about to be applied — node `u`'s `d⁺` ports at
    /// `flows[u·d⁺ .. (u+1)·d⁺]` — which the ledger records.
    ///
    /// # Panics
    ///
    /// Panics if `loads` or `flows` is shaped for another graph.
    pub fn observe(&mut self, gp: &BalancingGraph, loads: &[i64], flows: &[u64]) {
        let d = gp.degree();
        let d_plus = gp.degree_plus();
        assert_eq!(loads.len(), gp.num_nodes(), "loads shape mismatch");
        for (&x, flows) in loads.iter().zip(flows.chunks_exact(d_plus)) {
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
        self.ledger.record(flows);
        self.steps_observed += 1;
    }
}

/// The cumulative flow ledger `F_t(e) = Σ_{τ≤t} f_τ(e)` per (node, port).
///
/// Definition 2.1 (cumulative δ-fairness) is a statement about this
/// ledger: for all `t` and every pair of *original* edges `e₁, e₂` of a
/// node, `|F_t(e₁) − F_t(e₂)| ≤ δ`. The [`FairnessMonitor`] records
/// every observed step into its own ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CumulativeLedger {
    d: usize,
    d_plus: usize,
    totals: Vec<u64>,
    steps: usize,
}

impl CumulativeLedger {
    /// An empty ledger shaped for `gp`.
    pub fn for_graph(gp: &BalancingGraph) -> Self {
        CumulativeLedger {
            d: gp.degree(),
            d_plus: gp.degree_plus(),
            totals: vec![0; gp.num_nodes() * gp.degree_plus()],
            steps: 0,
        }
    }

    /// Number of steps accumulated.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Accumulates one step's flows, node `u`'s `d⁺` ports at
    /// `flows[u·d⁺ .. (u+1)·d⁺]`.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is shaped for another graph.
    pub fn record(&mut self, flows: &[u64]) {
        assert_eq!(flows.len(), self.totals.len(), "flow shape mismatch");
        for (total, flow) in self.totals.iter_mut().zip(flows) {
            *total += flow;
        }
        self.steps += 1;
    }

    /// Cumulative flow `F_t` for node `u`, indexed by port.
    #[inline]
    pub fn node(&self, u: usize) -> &[u64] {
        &self.totals[u * self.d_plus..(u + 1) * self.d_plus]
    }

    /// Cumulative flow over one port.
    #[inline]
    pub fn get(&self, u: usize, p: usize) -> u64 {
        self.totals[u * self.d_plus + p]
    }

    /// `F_t^out(u)`: cumulative tokens sent by `u` over all ports.
    pub fn node_total(&self, u: usize) -> u64 {
        self.node(u).iter().sum()
    }

    /// The largest spread `max_{e₁,e₂ ∈ E_u} |F_t(e₁) − F_t(e₂)|` over
    /// *original* ports, maximised over all nodes — the δ witnessed by
    /// the run so far.
    ///
    /// Returns 0 when `d < 2` (no pair of original edges to compare).
    pub fn original_edge_spread(&self) -> u64 {
        if self.d < 2 {
            return 0;
        }
        self.totals
            .chunks_exact(self.d_plus)
            .map(|node| {
                let originals = &node[..self.d];
                let max = originals.iter().max().expect("d >= 2");
                let min = originals.iter().min().expect("d >= 2");
                max - min
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoadVector;
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    /// Every node of `gp` sends `row`.
    fn every_node(gp: &BalancingGraph, row: &[u64]) -> Vec<u64> {
        row.repeat(gp.num_nodes())
    }

    /// Node 0 sends `node0`; every other node a fair floor split.
    fn flows_with_node0(gp: &BalancingGraph, loads: &LoadVector, node0: &[u64]) -> Vec<u64> {
        let d_plus = gp.degree_plus();
        let mut flows = node0.to_vec();
        for u in 1..gp.num_nodes() {
            let (base, e) = split_load(loads.get(u), d_plus);
            flows.extend((0..d_plus).map(|p| base + u64::from(p < e)));
        }
        flows
    }

    #[test]
    fn fair_floor_split_passes_all_checks() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 9); // base 2, e 1 with d+ = 4
        let mut m = FairnessMonitor::for_graph(&gp);
        // 3, 2, 2, 2: round fair, extra on an original port.
        m.observe(&gp, loads.as_slice(), &every_node(&gp, &[3, 2, 2, 2]));
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
        let flows = flows_with_node0(&gp, &loads, &[3, 1, 2, 2]);
        m.observe(&gp, loads.as_slice(), &flows);
        assert_eq!(m.floor_violations(), 1);
        // 3 and 1 are both outside {2} (e = 0 so ceil = base = 2).
        assert_eq!(m.round_violations(), 2);
    }

    #[test]
    fn detects_self_preference() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 10); // base 2, e 2
        let mut m = FairnessMonitor::for_graph(&gp);
        // Both extras on self-loop ports 2 and 3.
        m.observe(&gp, loads.as_slice(), &every_node(&gp, &[2, 2, 3, 3]));
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
        let generous = every_node(&gp, &[2, 2, 3, 3]); // c = 2 = e
        let stingy = every_node(&gp, &[3, 2, 3, 2]); // c = 1 < e
        m.observe(&gp, loads.as_slice(), &generous);
        assert_eq!(m.witnessed_s(), None);
        m.observe(&gp, loads.as_slice(), &stingy);
        assert_eq!(m.witnessed_s(), Some(1));
        assert_eq!(m.steps_observed(), 2);
    }

    #[test]
    fn overdraw_skips_fairness_checks() {
        let gp = lazy_cycle(4);
        let loads = LoadVector::uniform(4, 2);
        let mut m = FairnessMonitor::for_graph(&gp);
        // Node 0 sends 5 > 2 held.
        let flows = flows_with_node0(&gp, &loads, &[5, 0, 0, 0]);
        m.observe(&gp, loads.as_slice(), &flows);
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
        m.observe(&gp, loads.as_slice(), &every_node(&gp, &[0; 4]));
        assert_eq!(m.floor_violations(), 0);
        assert_eq!(m.round_violations(), 0);
        assert_eq!(m.witnessed_s(), None);
        assert_eq!(m.self_preference_samples(), 0);
    }

    #[test]
    fn ledger_accumulates_and_counts_steps() {
        let gp = lazy_cycle(3);
        let mut ledger = CumulativeLedger::for_graph(&gp);
        let mut flows = vec![0; 12];
        flows[..2].copy_from_slice(&[2, 1]);
        ledger.record(&flows);
        ledger.record(&flows);
        assert_eq!(ledger.steps(), 2);
        assert_eq!(ledger.get(0, 0), 4);
        assert_eq!(ledger.get(0, 1), 2);
        assert_eq!(ledger.node_total(0), 6);
        assert_eq!(ledger.node_total(1), 0);
    }

    #[test]
    fn spread_measures_original_ports_only() {
        let gp = lazy_cycle(3);
        let mut ledger = CumulativeLedger::for_graph(&gp);
        // Original ports 0, 1 get unequal flow; self-loop port 2 gets a
        // huge flow which must NOT count toward the spread.
        let mut flows = vec![0; 12];
        flows[..3].copy_from_slice(&[5, 3, 1000]);
        ledger.record(&flows);
        assert_eq!(ledger.original_edge_spread(), 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn ledger_rejects_a_foreign_shape() {
        let mut ledger = CumulativeLedger::for_graph(&lazy_cycle(3));
        ledger.record(&[0; 4]);
    }
}
