//! Churn resilience: balancing while the network fails under you.
//!
//! A quarter of the nodes crash mid-run while a hotspot keeps flooding
//! one survivor; their queues are handed to live neighbours, balancing
//! continues on the churned graph, and after the failed nodes recover
//! the scheme digests the damage. This is the regime of the
//! dynamic-network literature (Gilbert–Meir–Paz) that the paper's
//! fixed-graph bounds do not cover — measured here end to end.
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use dlb::core::schemes::SendFloor;
use dlb::core::{Engine, LoadVector, Run, TopologySchedule};
use dlb::graph::{generators, BalancingGraph};
use dlb::scenario::workloads::Hotspot;
use dlb::scenario::{Scenario, ScenarioRecorder};
use dlb::topology::schedules::{FailureBurst, PeriodicRewiring};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let gp = BalancingGraph::lazy(generators::torus(2, 8)?);
    let initial = LoadVector::uniform(n, 32);

    // Sixteen nodes fail together at round 20 and recover at round 60;
    // a hotspot floods node 0 with 16 tokens/round throughout.
    let mut burst = FailureBurst::new(20, 60, 16, 7);
    let mut hotspot = Hotspot::new(0, 16);
    let mut scenario = Scenario::new(80, &gp);
    scenario.recovery_max_rounds = 50_000;

    let mut recorder = ScenarioRecorder::new();
    let report = scenario.run_dyn(
        &gp,
        &initial,
        &mut SendFloor::new(),
        Some(&mut burst as &mut dyn TopologySchedule),
        &mut hotspot,
        &mut recorder,
    )?;

    println!("torus(8x8), SEND(floor), hotspot +16/round, 16-node failure burst @20..60");
    println!("  topology events applied : {}", report.topology_events);
    println!("  peak discrepancy        : {}", report.peak_discrepancy);
    println!(
        "  steady discrepancy (tail): max {} / mean {:.1}",
        report.steady_discrepancy_max, report.steady_discrepancy_mean
    );
    match report.recovery_rounds {
        Some(r) => println!("  recovery after churn    : {r} rounds to ≤ 2d⁺"),
        None => println!("  recovery after churn    : budget exhausted"),
    }
    println!(
        "  conservation            : {} = {}·{} + {} injected",
        report.final_total, n, 32, report.injected_total
    );

    // The trace shows the burst landing (discrepancy spike at round 20)
    // and the recovery after round 60.
    let spike = recorder.trace()[19..60].iter().max().copied().unwrap_or(0);
    let before = recorder.trace()[..19].iter().max().copied().unwrap_or(0);
    println!("  trace: pre-burst max {before}, during-burst max {spike}");
    assert_eq!(
        report.final_total,
        n as i64 * 32 + report.injected_total,
        "token conservation must survive churn"
    );

    // The same engine paths also run churn directly; here the kernel
    // path under continuous random rewiring, bit-identical by design.
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let mut rewire = PeriodicRewiring::new(4, 2, 11);
    engine.run(
        &mut SendFloor::new(),
        Run {
            schedule: Some(&mut rewire),
            ..Run::new(200)
        },
    )?;
    println!(
        "  200 kernel rounds under rewiring: {} events, final discrepancy {}",
        engine.topology_events_applied(),
        engine.loads().discrepancy()
    );
    Ok(())
}
