//! `Engine::run_parallel(…, 2)` against `Engine::run_kernel` on three
//! large graphs, as interleaved pairs of runs.
//!
//! Each pair builds two engines at the same point mass (64 tokens per
//! node), runs 64 rounds of SEND(⌊x/d⁺⌋) through the serial vector
//! rounds and through the same rounds split by node range across two
//! workers, checks that loads and vector counters agree, and reports
//! the per-pair speedup and the ratio of the median times.
//!
//! ```text
//! cargo run --release --example parallel_speedup          # 5 pairs per graph
//! cargo run --release --example parallel_speedup -- 9     # 9 pairs per graph
//! ```

use std::time::Instant;

use dlb::core::schemes::SendFloor;
use dlb::core::{Engine, LoadVector};
use dlb::graph::relabel::Relabeling;
use dlb::graph::{generators, BalancingGraph};

const ROUNDS: usize = 64;
const THREADS: usize = 2;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pairs: usize = match std::env::args().nth(1) {
        Some(s) => s.parse()?,
        None => 5,
    };
    let expander = generators::random_regular(1 << 18, 4, 12)?;
    let expander = expander.relabeled(&Relabeling::reverse_cuthill_mckee(&expander))?;
    let cells = [
        (
            "cycle(2^20)",
            BalancingGraph::lazy(generators::cycle(1 << 20)?),
        ),
        (
            "torus(1024^2)",
            BalancingGraph::lazy(generators::torus(2, 1024)?),
        ),
        (
            "random-4-regular(2^18), RCM",
            BalancingGraph::lazy(expander),
        ),
    ];
    for (name, gp) in &cells {
        let n = gp.num_nodes();
        let start = LoadVector::point_mass(n, 64 * n as i64);
        let (mut serial, mut split, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..pairs {
            let mut a = Engine::new(gp.clone(), start.clone());
            let t = Instant::now();
            a.run_kernel(&mut SendFloor::new(), ROUNDS)?;
            let ts = t.elapsed().as_secs_f64();
            let mut b = Engine::new(gp.clone(), start.clone());
            let t = Instant::now();
            b.run_parallel(&SendFloor::new(), ROUNDS, THREADS)?;
            let tp = t.elapsed().as_secs_f64();
            assert_eq!(a.loads(), b.loads(), "{name}: loads diverged");
            assert_eq!(
                a.vector_stats(),
                b.vector_stats(),
                "{name}: counters diverged"
            );
            serial.push(ts);
            split.push(tp);
            ratios.push(ts / tp);
        }
        let (ts, tp) = (median(&mut serial), median(&mut split));
        let rate = |t: f64| (n * ROUNDS) as f64 / t / 1e6;
        let per_pair: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
        println!(
            "{name}: run_kernel {:.0} Mnode-rounds/s, parallel({THREADS}) {:.0}; \
             median ratio {:.2}, per pair [{}]",
            rate(ts),
            rate(tp),
            ts / tp,
            per_pair.join(", ")
        );
    }
    Ok(())
}
