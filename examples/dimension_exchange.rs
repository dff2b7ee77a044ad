//! The other model: dimension exchange. The paper's diffusive lower
//! bound (Theorem 4.2) says no diffusive scheme beats Ω(d); here the
//! matching models go below it on the same graph, in the same number
//! of communication rounds.
//!
//! ```text
//! cargo run --release --example dimension_exchange
//! ```

use dlb::core::schemes::RotorRouter;
use dlb::core::LoadVector;
use dlb::core::{Engine, Run};
use dlb::graph::{generators, BalancingGraph, PortOrder};
use dlb::matching::{BalancingCircuit, MatchingEngine, PairRule, RandomMatchings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, d, seed) = (128, 16, 42);
    let graph = generators::random_regular(n, d, seed)?;
    let total = 50 * n as i64;
    let rounds = 600;
    println!("random {d}-regular graph, n = {n}, {total} tokens on node 0, {rounds} rounds\n");

    // Diffusive: the rotor-router (best deterministic no-communication
    // scheme in the paper's Table 1).
    let gp = BalancingGraph::lazy(graph.clone());
    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
    let mut diffusive = Engine::new(gp, LoadVector::point_mass(n, total));
    diffusive.run(&mut rotor, Run::new(rounds))?;
    println!(
        "diffusive   rotor-router      : discrepancy {:>3}   (d = {d}; Thm 4.2 floor is Ω(d))",
        diffusive.loads().discrepancy()
    );

    // Dimension exchange, random matching model.
    let mut sched = RandomMatchings::new(&graph, 7);
    let mut dimex = MatchingEngine::new(LoadVector::point_mass(n, total));
    dimex.run(&mut sched, PairRule::CoinFlip { seed: 3 }, rounds)?;
    println!(
        "dim-exchange random matchings : discrepancy {:>3}",
        dimex.loads().discrepancy()
    );

    // Dimension exchange, periodic balancing circuit.
    let mut circuit = BalancingCircuit::new(&graph)?;
    println!(
        "dim-exchange balancing circuit: period {} matchings",
        circuit.period()
    );
    let mut periodic = MatchingEngine::new(LoadVector::point_mass(n, total));
    periodic.run(&mut circuit, PairRule::ExtraToLarger, rounds)?;
    println!(
        "dim-exchange balancing circuit: discrepancy {:>3}",
        periodic.loads().discrepancy()
    );

    println!(
        "\nThe paper's §1.2 contrast, measured: in the diffusive model the\n\
         discrepancy floor scales with d (Theorem 4.2), while one-neighbour-\n\
         at-a-time averaging balances to an additive constant [18]."
    );
    Ok(())
}
