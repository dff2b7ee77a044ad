//! Quickstart: balance a pile of tokens on a ring with the
//! rotor-router, and watch the paper's quantities as it happens.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dlb::core::schemes::RotorRouter;
use dlb::core::{Engine, LoadVector, Run};
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::spectral::{closed_form, BalancingHorizon, SpectralGap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node cycle; the paper's standard setup adds d° = d self-loops
    // per node ("lazy" balancing graph, d⁺ = 2d).
    let n = 64;
    let graph = generators::cycle(n)?;
    let gp = BalancingGraph::lazy(graph);

    // All 6400 tokens start on node 0: initial discrepancy K = 6400.
    let total = 6_400i64;
    let initial = LoadVector::point_mass(n, total);

    // The paper measures schemes after T = O(log(Kn)/µ) steps, the time
    // the *continuous* process needs. For the lazy cycle, λ₂ is known in
    // closed form.
    let gap = SpectralGap::from_lambda2(closed_form::lambda2_cycle(n, 2));
    let horizon = BalancingHorizon::new(gap, n, total as u64);
    let t = horizon.steps(1.0);
    println!("cycle n={n}, d⁺=4:  µ = {:.3e},  T = {t} steps", gap.mu);

    // Run the rotor-router, with the fairness monitor attached so the
    // class membership (cumulatively 1-fair, Observation 2.2) is
    // *verified*, not assumed.
    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
    let mut engine = Engine::new(gp, initial);
    engine.attach_monitor();

    for multiple in 1..=4 {
        engine.run(&mut rotor, Run::new(t))?;
        println!(
            "after {multiple}T: discrepancy = {:>5}   (max dev from mean {:.1})",
            engine.loads().discrepancy(),
            engine.loads().max_deviation(),
        );
    }

    let monitor = engine.monitor().expect("attached above");
    println!(
        "\nverified over {} steps: round-fair ({} violations), \
         cumulatively {}-fair on original edges",
        engine.step_count(),
        monitor.round_violations(),
        monitor.ledger().original_edge_spread(),
    );
    println!(
        "Theorem 2.3(ii) bound d·√n = {:.0}; measured {} — bound holds",
        2.0 * (n as f64).sqrt(),
        engine.loads().discrepancy()
    );
    Ok(())
}
