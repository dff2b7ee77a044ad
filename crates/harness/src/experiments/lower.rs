//! E5/E6/E7 — the Section 4 lower bounds, measured.
//!
//! Each driver instantiates the corresponding construction from
//! `dlb-bounds`, verifies its invariance (fixed point / 2-periodic
//! orbit) by simulation, and reports the stuck discrepancy against the
//! theorem's guarantee.

use crate::report::Table;
use crate::runner::{RunError, Runner};
use crate::suite::SchemeSpec;
use dlb_bounds::{thm41, thm42, thm43};
use dlb_core::{Engine, Run};
use dlb_graph::generators;

/// E5 — Theorem 4.1: round-fair steady states with `Ω(d·diam)`
/// discrepancy.
///
/// # Errors
///
/// Propagates construction and engine errors; fails if a steady state
/// moves.
pub fn thm41_lower(quick: bool) -> Result<Table, RunError> {
    let mut table = Table::new(
        "E5: Thm 4.1 — round-fair steady states stuck at Ω(d·diam)",
        &[
            "graph",
            "d",
            "diam",
            "discrepancy",
            "guarantee d·(diam−1)",
            "fixed point",
        ],
    );
    let sizes: &[usize] = if quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128, 256]
    };
    for &n in sizes {
        for (label, graph) in [
            (format!("cycle(n={n})"), generators::cycle(n)?),
            (
                format!("circulant(n={n},d=4)"),
                generators::circulant(n, &[1, 2])?,
            ),
        ] {
            let mut inst = thm41::instance(graph, 0)?;
            let steps = if quick { 50 } else { 200 };
            let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
            engine.run(&mut inst.balancer, Run::new(steps))?;
            let fixed = engine.loads() == &inst.initial;
            assert!(fixed, "theorem 4.1 state moved on {label}");
            table.push_row(vec![
                label,
                inst.graph.degree().to_string(),
                inst.radius.to_string(),
                inst.discrepancy().to_string(),
                inst.guaranteed_discrepancy().to_string(),
                "yes".to_string(),
            ]);
        }
    }
    Ok(table)
}

/// E6 — Theorem 4.2: deterministic stateless schemes stuck at `Ω(d)`;
/// stateful and randomized schemes escape the identical instance.
///
/// # Errors
///
/// Propagates construction and engine errors; fails if a deterministic
/// stateless scheme moves.
pub fn thm42_stateless(quick: bool) -> Result<Table, RunError> {
    let mut table = Table::new(
        "E6: Thm 4.2 — the stateless trap (discrepancy after 500 steps)",
        &[
            "d",
            "trap ℓ=⌊d/2⌋−1",
            "SEND(floor)",
            "SEND(round)",
            "ROTOR-ROUTER",
            "rand. extra [5]",
        ],
    );
    let degrees: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    let runner = Runner::default();
    for &d in degrees {
        let inst = thm42::instance(6 * d, d)?;
        let gp = inst.lazy_graph();
        let steps = 500;
        let mut row = vec![d.to_string(), inst.stuck_discrepancy().to_string()];
        for scheme in [
            SchemeSpec::SendFloor,
            SchemeSpec::SendRound,
            SchemeSpec::RotorRouter,
            SchemeSpec::RandomizedExtra { seed: 11 },
        ] {
            let out = runner.run_for(&gp, &scheme, &inst.initial, steps)?;
            row.push(out.final_discrepancy.to_string());
            let is_deterministic_stateless =
                matches!(scheme, SchemeSpec::SendFloor | SchemeSpec::SendRound);
            if is_deterministic_stateless {
                assert_eq!(
                    out.final_discrepancy,
                    inst.stuck_discrepancy(),
                    "{} must stay trapped at d = {d}",
                    scheme.label()
                );
            } else {
                assert!(
                    out.final_discrepancy < inst.stuck_discrepancy(),
                    "{} must escape the trap at d = {d}",
                    scheme.label()
                );
            }
        }
        table.push_row(row);
    }
    Ok(table)
}

/// E7 — Theorem 4.3: two-periodic rotor-router orbits at `Ω(d·φ(G))`
/// without self-loops, dissolving once `d° = d` self-loops are added.
///
/// # Errors
///
/// Propagates construction and engine errors; fails if an orbit is not
/// 2-periodic.
pub fn thm43_rotor_cycle(quick: bool) -> Result<Table, RunError> {
    let mut table = Table::new(
        "E7: Thm 4.3 — rotor-router orbits on odd cycles (no self-loops)",
        &[
            "n",
            "φ(G)",
            "orbit discrepancy",
            "guarantee d·φ",
            "2-periodic",
            "disc with d°=d (same steps)",
        ],
    );
    let sizes: &[usize] = if quick {
        &[9, 17, 33]
    } else {
        &[9, 17, 33, 65, 129, 257]
    };
    for &n in sizes {
        let mut inst = thm43::instance_on_cycle(n)?;
        let x0 = inst.initial.clone();
        let steps = 2 * n; // even number of steps, enough to see drift
        let mut engine = Engine::new(inst.graph.clone(), inst.initial.clone());
        engine.run(&mut inst.balancer, Run::new(steps))?;
        let periodic = engine.loads() == &x0;
        assert!(periodic, "orbit broke at n = {n}");

        // Contrast: identical initial loads, but d° = d self-loops.
        let lazy = dlb_graph::BalancingGraph::lazy(inst.graph.graph().clone());
        let mut rotor =
            dlb_core::schemes::RotorRouter::new(&lazy, dlb_graph::PortOrder::Sequential)?;
        let mut contrast = Engine::new(lazy, x0.clone());
        // Give the lazy walk the same wall-clock budget scaled by the
        // cycle's mixing time so large cycles get a fair chance.
        let contrast_steps = if quick {
            20 * n * n / 4
        } else {
            40 * n * n / 4
        };
        contrast.run(&mut rotor, Run::new(contrast_steps))?;

        table.push_row(vec![
            n.to_string(),
            inst.phi.to_string(),
            inst.discrepancy().to_string(),
            inst.guaranteed_discrepancy().to_string(),
            "yes".to_string(),
            contrast.loads().discrepancy().to_string(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm41_quick() {
        let t = thm41_lower(true).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert!(t.render().contains("yes"));
    }

    #[test]
    fn thm42_quick() {
        let t = thm42_stateless(true).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn thm43_quick() {
        let t = thm43_rotor_cycle(true).unwrap();
        assert_eq!(t.num_rows(), 3);
        let rendered = t.render();
        assert!(rendered.contains("yes"));
    }
}
