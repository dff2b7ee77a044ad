//! End-to-end API tests through the `dlb` facade: the workflows a
//! downstream user would actually write, exercising every crate
//! boundary (graph → spectral → core → harness → bounds).

use dlb::core::schemes::{RotorRouter, SendFloor};
use dlb::core::{Balancer, Engine, LoadVector, Run};
use dlb::graph::{generators, properties, traversal, BalancingGraph, PortOrder};
use dlb::harness::report::Table;
use dlb::harness::{init, GraphSpec, Runner, SchemeSpec};
use dlb::spectral::{closed_form, power, BalancingHorizon, SpectralGap, TransitionOperator};

#[test]
fn full_pipeline_graph_to_report() {
    // 1. Build a workload.
    let spec = GraphSpec::Hypercube { dim: 5 };
    let graph = spec.build().unwrap();
    let summary = properties::summarize(&graph);
    assert_eq!(summary.n, 32);
    assert!(summary.bipartite);

    // 2. Compute the horizon from the spectrum.
    let gap = SpectralGap::from_lambda2(spec.lambda2(5).unwrap());
    let horizon = BalancingHorizon::new(gap, 32, 3200).steps(4.0);

    // 3. Run a scheme with full instrumentation.
    let runner = Runner {
        sample_every: horizon / 10,
        ..Runner::default()
    };
    let gp = BalancingGraph::lazy(graph);
    let out = runner
        .run_for(
            &gp,
            &SchemeSpec::RotorRouter,
            &init::point_mass(32, 3200),
            horizon,
        )
        .unwrap();
    assert!(out.final_discrepancy <= 10);
    assert!(!out.series.is_empty());
    assert!(out.witnessed_delta <= 1);

    // 4. Report.
    let mut table = Table::new("pipeline", &["graph", "disc"]);
    table.push_row(vec![spec.label(), out.final_discrepancy.to_string()]);
    let rendered = table.render();
    assert!(rendered.contains("hypercube"));
    let csv = table.to_csv();
    assert!(csv.starts_with("graph,disc"));
}

#[test]
fn user_written_balancer_plugs_into_everything() {
    // A downstream user's custom scheme: send everything through port
    // 0 (terrible, but legal as long as it doesn't overdraw).
    struct Firehose;
    impl Balancer for Firehose {
        fn name(&self) -> &'static str {
            "firehose"
        }
        fn as_kernel(&mut self) -> &mut dyn dlb::core::KernelRounds {
            self
        }
    }
    impl dlb::core::KernelBalancer for Firehose {
        fn kernel_node(&mut self, _: &BalancingGraph, _: usize, load: i64, flows: &mut [u64]) {
            flows.fill(0);
            flows[0] = load.max(0) as u64;
        }
    }

    let gp = BalancingGraph::lazy(generators::cycle(6).unwrap());
    let mut engine = Engine::new(gp, LoadVector::uniform(6, 10));
    engine.attach_monitor();
    engine.run(&mut Firehose, Run::new(20)).unwrap();
    assert_eq!(engine.loads().total(), 60);
    // The monitor catches the class violations a reviewer would ask
    // about: port 0 hogs everything, so floor violations abound.
    assert!(engine.monitor().unwrap().floor_violations() > 0);
    assert!(engine.monitor().unwrap().ledger().original_edge_spread() > 10);
}

#[test]
fn spectral_quantities_agree_across_crates() {
    let graph = generators::torus(2, 6).unwrap();
    let gp = BalancingGraph::lazy(graph); // d° = d = 4
    let op = TransitionOperator::new(&gp);
    assert_eq!(op.dim(), 36);
    let exact = closed_form::lambda2_torus(2, 6, 4);
    let estimated = power::lambda2(&gp, power::PowerOptions::default()).lambda2;
    assert!((exact - estimated).abs() < 1e-7);
    let spec_lambda = GraphSpec::Torus2D { side: 6 }.lambda2(4).unwrap();
    assert!((exact - spec_lambda).abs() < 1e-12);
}

#[test]
fn engine_reset_and_reuse_workflow() {
    // Users comparing schemes on the same instance reuse the graph and
    // reset schemes; results must be reproducible.
    let gp = BalancingGraph::lazy(generators::random_regular(32, 4, 9).unwrap());
    let initial = LoadVector::point_mass(32, 1600);
    let mut rotor = RotorRouter::new(&gp, PortOrder::Interleaved).unwrap();

    let mut first = Engine::new(gp.clone(), initial.clone());
    first.run(&mut rotor, Run::new(100)).unwrap();
    let loads_first = first.loads().clone();

    rotor.reset();
    let mut second = Engine::new(gp, initial);
    second.run(&mut rotor, Run::new(100)).unwrap();
    assert_eq!(second.loads(), &loads_first);
}

#[test]
fn diameter_and_odd_girth_feed_lower_bounds() {
    let graph = generators::chorded_cycle(15, 4).unwrap();
    let diam = traversal::diameter(&graph).unwrap();
    assert!(diam >= 2);
    let og = properties::odd_girth(&graph);
    assert!(og.is_some(), "chorded odd cycle is non-bipartite");
    // The theorem 4.1 instance uses these quantities end-to-end.
    let inst = dlb::bounds::thm41::instance(graph, 0).unwrap();
    assert!(inst.discrepancy() >= inst.guaranteed_discrepancy());
}

#[test]
fn send_floor_and_engine_compose_with_iterator_style_metrics() {
    let gp = BalancingGraph::lazy(generators::cycle(10).unwrap());
    let mut engine = Engine::new(gp, init::random_tokens(10, 500, 4));
    let mut bal = SendFloor::new();
    let mut series = Vec::new();
    for _ in 0..50 {
        let s = engine.step(&mut bal).unwrap();
        series.push(s.discrepancy);
    }
    assert_eq!(series.len(), 50);
    // Discrepancy trend from a random start must be non-worsening in
    // aggregate.
    assert!(series.last().unwrap() <= series.first().unwrap());
}
