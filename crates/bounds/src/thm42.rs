//! Theorem 4.2: deterministic stateless schemes can be stuck at
//! discrepancy `Ω(d)`.
//!
//! The construction (Appendix C.2): take the circulant graph where `i`
//! and `j` are adjacent iff `(i − j) mod n ∈ {±1, …, ±⌊d/2⌋}` (plus an
//! antipodal matching for odd `d`), so the nodes `C = {0, …, ⌊d/2⌋−1}`
//! sit inside a clique-like neighbourhood. Load every node of `C` with
//! `ℓ = |C| − 1` tokens and everything else with 0.
//!
//! A deterministic stateless scheme sends, from any node at load `ℓ`, a
//! fixed multiset of per-port amounts `p₁, …, p_d` with at most `ℓ`
//! positive entries; the adversary (who controls the port-to-neighbour
//! assignment) routes the positive amounts onto clique-internal edges,
//! so the load pattern reproduces itself forever: discrepancy `ℓ =
//! ⌊d/2⌋ − 1 = Ω(d)` for all time.
//!
//! For the concrete stateless schemes in this library — SEND(⌊x/d⁺⌋)
//! and SEND([x/d⁺]) — the trap is even simpler: at load
//! `ℓ < d⁺/2` they send *nothing* over original edges, so the initial
//! state is already a fixed point and no adversarial routing is needed.
//! The tests (and experiment E6) verify this, and verify the contrast
//! the theorem implies: the *stateful* rotor-router escapes the same
//! instance, as does the *randomized* stateless scheme of \[5\].

use dlb_core::LoadVector;
use dlb_graph::{generators, BalancingGraph, GraphError, RegularGraph};

/// A ready-to-run Theorem 4.2 instance.
#[derive(Debug, Clone)]
pub struct Theorem42Instance {
    /// The clique-circulant original graph.
    pub graph: RegularGraph,
    /// Initial loads: `ℓ = ⌊d/2⌋ − 1` on the clique `C`, 0 elsewhere.
    pub initial: LoadVector,
    /// The per-clique-node load `ℓ` (also the stuck discrepancy).
    pub trap_load: i64,
    /// The clique nodes `C = {0, …, ⌊d/2⌋−1}`.
    pub clique_size: usize,
}

impl Theorem42Instance {
    /// The paper's lazy balancing graph for this instance (`d° = d`).
    pub fn lazy_graph(&self) -> BalancingGraph {
        BalancingGraph::lazy(self.graph.clone())
    }

    /// The discrepancy the trap maintains: `ℓ = ⌊d/2⌋ − 1`.
    pub fn stuck_discrepancy(&self) -> i64 {
        self.trap_load
    }
}

/// Builds the Theorem 4.2 trap on `n` nodes with degree `d`.
///
/// # Errors
///
/// Returns an error for parameters the clique-circulant generator
/// rejects, or if `d < 4` (the trap load `⌊d/2⌋ − 1` would be 0 and
/// the instance trivial).
pub fn instance(n: usize, d: usize) -> Result<Theorem42Instance, GraphError> {
    if d < 4 {
        return Err(GraphError::InvalidParameters {
            reason: format!("theorem 4.2 needs d >= 4 for a non-trivial trap, got {d}"),
        });
    }
    let graph = generators::clique_circulant(n, d)?;
    let clique_size = d / 2;
    let trap_load = (clique_size - 1) as i64;
    let mut loads = vec![0i64; n];
    for load in loads.iter_mut().take(clique_size) {
        *load = trap_load;
    }
    Ok(Theorem42Instance {
        graph,
        initial: LoadVector::new(loads),
        trap_load,
        clique_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::schemes::{RandomizedExtraTokens, RotorRouter, SendFloor, SendRound};
    use dlb_core::{Balancer, Engine, Run};
    use dlb_graph::PortOrder;

    fn run_scheme(inst: &Theorem42Instance, bal: &mut dyn Balancer, steps: usize) -> i64 {
        let gp = inst.lazy_graph();
        let mut engine = Engine::new(gp, inst.initial.clone());
        engine.run(bal, Run::new(steps)).unwrap();
        engine.loads().discrepancy()
    }

    #[test]
    fn instance_shape() {
        let inst = instance(40, 8).unwrap();
        assert_eq!(inst.clique_size, 4);
        assert_eq!(inst.trap_load, 3);
        assert_eq!(inst.initial.total(), 12);
        assert_eq!(inst.initial.discrepancy(), 3);
    }

    #[test]
    fn stateless_send_schemes_are_stuck_forever() {
        let inst = instance(40, 8).unwrap();
        assert_eq!(
            run_scheme(&inst, &mut SendFloor::new(), 500),
            inst.stuck_discrepancy(),
            "SEND(floor) must not move sub-threshold loads"
        );
        assert_eq!(
            run_scheme(&inst, &mut SendRound::new(), 500),
            inst.stuck_discrepancy(),
            "SEND(round) must not move sub-threshold loads"
        );
    }

    #[test]
    fn stuck_state_is_a_fixed_point_not_just_same_discrepancy() {
        let inst = instance(40, 8).unwrap();
        let gp = inst.lazy_graph();
        let mut engine = Engine::new(gp, inst.initial.clone());
        engine.run(&mut SendFloor::new(), Run::new(100)).unwrap();
        assert_eq!(engine.loads(), &inst.initial);
    }

    #[test]
    fn stateful_rotor_router_escapes_the_trap() {
        let inst = instance(40, 8).unwrap();
        let gp = inst.lazy_graph();
        let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, inst.initial.clone());
        engine.run(&mut rotor, Run::new(500)).unwrap();
        assert!(
            engine.loads().discrepancy() < inst.stuck_discrepancy(),
            "rotor-router should spread the trapped tokens, got {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn randomized_stateless_escapes_the_trap() {
        // Theorem 4.2 is about *deterministic* stateless schemes; the
        // randomized stateless scheme of [5] escapes. "Escapes" means
        // the trap is not a fixed point of the randomized dynamics —
        // the discrepancy drops below ℓ along the trajectory — not that
        // it is below ℓ at one arbitrary final step (the 12 wandering
        // tokens re-collide on a node every so often).
        let inst = instance(40, 8).unwrap();
        let gp = inst.lazy_graph();
        let mut bal = RandomizedExtraTokens::new(17);
        let mut engine = Engine::new(gp, inst.initial.clone());
        let mut min_discrepancy = engine.loads().discrepancy();
        for _ in 0..500 {
            let summary = engine.step(&mut bal).unwrap();
            min_discrepancy = min_discrepancy.min(summary.discrepancy);
        }
        assert!(
            min_discrepancy < inst.stuck_discrepancy(),
            "randomized scheme never left the trap: min discrepancy {min_discrepancy}"
        );
    }

    #[test]
    fn trap_scales_with_degree() {
        for d in [4usize, 8, 16] {
            let inst = instance(6 * d, d).unwrap();
            assert_eq!(inst.stuck_discrepancy(), (d / 2 - 1) as i64);
            assert_eq!(
                run_scheme(&inst, &mut SendFloor::new(), 100),
                inst.stuck_discrepancy(),
                "d = {d}"
            );
        }
    }

    #[test]
    fn rejects_tiny_degree() {
        assert!(instance(20, 2).is_err());
        assert!(instance(20, 3).is_err());
    }
}
