//! Smoke coverage for `examples/`.
//!
//! Two layers keep the examples honest without nesting a second cargo
//! invocation inside the test run:
//!
//! 1. `cargo test` itself compiles every file under `examples/` (they
//!    are targets of the `dlb` package), so an example that stops
//!    building fails tier-1 before any test executes — and CI
//!    additionally runs `cargo build --examples` explicitly.
//! 2. The test below replays the full `examples/quickstart.rs`
//!    pipeline — same graph, same horizon arithmetic, same scheme —
//!    and asserts it runs to completion with the properties the
//!    example prints (balanced loads, zero fairness violations, the
//!    Theorem 2.3(ii) bound). If the quickstart's code path breaks at
//!    runtime, this breaks with it.

use dlb::core::schemes::RotorRouter;
use dlb::core::{Engine, LoadVector, Run};
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::spectral::{closed_form, BalancingHorizon, SpectralGap};

#[test]
fn quickstart_pipeline_runs_to_completion() {
    let n = 64;
    let total = 6_400i64;
    let graph = generators::cycle(n).expect("cycle(64) builds");
    let gp = BalancingGraph::lazy(graph);

    let gap = SpectralGap::from_lambda2(closed_form::lambda2_cycle(n, 2));
    let horizon = BalancingHorizon::new(gap, n, total as u64);
    let full_t = horizon.steps(1.0);
    assert!(full_t > 0, "balancing horizon must be positive");

    // `DLB_SMOKE_STEPS` caps the horizon so debug CI stays fast; the
    // asymptotic discrepancy assertion only applies to uncapped runs.
    let cap: Option<usize> = std::env::var("DLB_SMOKE_STEPS")
        .ok()
        .and_then(|v| v.parse().ok());
    let t = cap.map_or(full_t, |c| full_t.min(c.max(1)));
    let capped = t < full_t;

    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).expect("rotor builds");
    let mut engine = Engine::new(gp, LoadVector::point_mass(n, total));
    engine.attach_monitor();

    for _multiple in 1..=4 {
        engine.run(&mut rotor, Run::new(t)).expect("engine runs");
    }

    assert_eq!(engine.step_count(), 4 * t);
    assert_eq!(engine.loads().total(), total, "tokens conserved");

    let monitor = engine.monitor().expect("attached above");
    assert_eq!(monitor.round_violations(), 0, "rotor-router is round-fair");
    assert!(
        monitor.ledger().original_edge_spread() <= 1,
        "rotor-router is cumulatively 1-fair (Observation 2.2)"
    );

    if !capped {
        let bound = 2.0 * (n as f64).sqrt();
        assert!(
            (engine.loads().discrepancy() as f64) <= bound,
            "Theorem 2.3(ii): discrepancy {} exceeds d·sqrt(n) = {bound}",
            engine.loads().discrepancy()
        );
    }
}

/// The example files exist where the docs say they do; a rename that
/// silently drops an example from the build gets caught here.
#[test]
fn all_five_examples_are_present() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for name in [
        "quickstart.rs",
        "choose_your_balancer.rs",
        "dimension_exchange.rs",
        "expander_vs_cycle.rs",
        "rotor_router_walk.rs",
    ] {
        assert!(dir.join(name).is_file(), "missing examples/{name}");
    }
}
