//! Model-checking suite for the range-split vector rounds.
//!
//! This crate drives **the real engine code** — not a protocol mock —
//! through every thread interleaving of small configurations, via the
//! [`dlb_core::sync`] facade and the vendored `loom` shim. It compiles
//! in two modes:
//!
//! * plain `cargo test -p dlb-model`: the facade re-exports `std`, the
//!   model tests compile away, and only the passthrough smoke tests
//!   run — this is what tier-1 sees;
//! * `RUSTFLAGS="--cfg dlb_model" cargo test -p dlb-model --release`:
//!   the facade routes to the shim and the `protocol` test file
//!   explores every scenario below under an exhaustive DFS at
//!   preemption bound 3, asserting that every schedule of
//!   `Engine::run_parallel` produces the exact outcome of the serial
//!   `Engine::run` oracle (loads, step count, vector counters,
//!   error) with no deadlock.
//!
//! The protocol under test has two barriers per round and nothing
//! else to order, so the battery stays small: `n ≤ 9` lazy cycles, 2
//! and 3 workers (with `n` not divisible by the worker count), banded
//! and blocked gathers, 1 and 2 rounds, plus the one run that exchanges
//! range maxima (an `i32` headroom guard that trips) and a negative
//! seed, which the engine rejects before any worker starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlb_core::schemes::{SendFloor, SendRound};
use dlb_core::{
    Engine, EngineError, LoadVector, Run, VectorConfig, VectorStats, VectorStrategy, VectorWidth,
};
use dlb_graph::{generators, BalancingGraph};

/// Serialises scenario explorations: the mutant switch in
/// `dlb_core::sync::model_hooks` is process-global, so a test must
/// hold this guard across its *set flag → explore → reset* window.
pub fn suite_guard() -> std::sync::MutexGuard<'static, ()> {
    static SUITE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A poisoned guard only means a previous test failed; the () state
    // cannot be inconsistent.
    SUITE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The balancing scheme a scenario runs.
#[derive(Debug, Clone, Copy)]
pub enum Scheme {
    /// SEND(⌊x/d⁺⌋).
    SendFloor,
    /// SEND([x/d⁺]): its maximum can grow, so it can trip the `i32`
    /// headroom guard.
    SendRound,
}

/// One model-checked configuration of the range-split rounds.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name used in reports.
    pub name: &'static str,
    /// Cycle size (the graph is always the lazy `n`-cycle).
    pub n: usize,
    /// Initial loads (`len == n`).
    pub loads: Vec<i64>,
    /// The scheme under test.
    pub scheme: Scheme,
    /// The vector configuration: which gather, which width.
    pub config: VectorConfig,
    /// Rounds to run.
    pub steps: usize,
    /// Workers for the parallel run.
    pub threads: usize,
}

impl Scenario {
    fn engine(&self) -> Engine {
        let gp =
            BalancingGraph::lazy(generators::cycle(self.n).expect("cycle(n) is valid for n >= 3"));
        let mut engine = Engine::new(gp, LoadVector::new(self.loads.clone()));
        engine.set_vector_config(self.config);
        engine
    }
}

/// Everything a run leaves behind, for exact comparison.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    /// Final loads.
    pub loads: Vec<i64>,
    /// Completed rounds.
    pub steps: usize,
    /// The vector counters (gather, width and fallbacks per round).
    pub stats: VectorStats,
    /// The run's error, if any.
    pub err: Option<EngineError>,
}

fn outcome(engine: &Engine, err: Option<EngineError>) -> Outcome {
    Outcome {
        loads: engine.loads().as_slice().to_vec(),
        steps: engine.step_count(),
        stats: *engine.vector_stats(),
        err,
    }
}

/// Runs the scenario through the serial [`Engine::run`] — the oracle
/// every schedule of the parallel run must reproduce bit for bit.
pub fn serial_outcome(s: &Scenario) -> Outcome {
    let mut engine = s.engine();
    let err = match s.scheme {
        Scheme::SendFloor => engine.run(&mut SendFloor::new(), Run::new(s.steps)),
        Scheme::SendRound => engine.run(&mut SendRound::new(), Run::new(s.steps)),
    }
    .err();
    outcome(&engine, err)
}

/// Runs the scenario through `run_parallel` at `s.threads` workers.
/// Inside `loom::model` every synchronisation point becomes an
/// explored choice; outside it the facade passes through to `std` and
/// this is an ordinary run.
pub fn parallel_outcome(s: &Scenario) -> Outcome {
    let mut engine = s.engine();
    let err = match s.scheme {
        Scheme::SendFloor => engine.run_parallel(&SendFloor::new(), s.steps, s.threads),
        Scheme::SendRound => engine.run_parallel(&SendRound::new(), s.steps, s.threads),
    }
    .err();
    outcome(&engine, err)
}

fn forced(strategy: VectorStrategy) -> VectorConfig {
    VectorConfig {
        enabled: true,
        strategy,
        width: VectorWidth::Auto,
    }
}

/// The standard battery. Kept as data so the protocol tests, the docs
/// and the experiment report enumerate the same list.
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    let uneven = vec![9, 1, 4, 4, 4, 4, 4, 2];
    vec![
        Scenario {
            name: "banded_two_workers_one_round",
            n: 8,
            loads: uneven.clone(),
            scheme: Scheme::SendFloor,
            config: forced(VectorStrategy::Banded),
            steps: 1,
            threads: 2,
        },
        Scenario {
            name: "banded_three_workers_two_rounds",
            n: 8,
            loads: uneven.clone(),
            scheme: Scheme::SendFloor,
            config: forced(VectorStrategy::Banded),
            steps: 2,
            threads: 3,
        },
        Scenario {
            name: "blocked_two_workers_two_rounds_odd_n",
            n: 9,
            loads: vec![9, 1, 4, 4, 4, 4, 4, 2, 13],
            scheme: Scheme::SendFloor,
            config: forced(VectorStrategy::BlockedCsr),
            steps: 2,
            threads: 2,
        },
        Scenario {
            name: "blocked_three_workers_one_round",
            n: 8,
            loads: uneven,
            scheme: Scheme::SendFloor,
            config: forced(VectorStrategy::BlockedCsr),
            steps: 1,
            threads: 3,
        },
        Scenario {
            // Node 1 (9, between two 10s) climbs to 11 in round 1 under
            // SEND(round): past the forced limit, so the workers
            // exchange their range maxima and all switch to i64.
            name: "i32_guard_trips_across_workers",
            n: 8,
            loads: vec![10, 9, 10, 0, 0, 0, 0, 0],
            scheme: Scheme::SendRound,
            config: VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I32 { limit: 10 },
            },
            steps: 2,
            threads: 2,
        },
        Scenario {
            name: "negative_seed_rejected_before_any_worker",
            n: 8,
            loads: vec![5, -1, 3, 3, 3, 3, 3, 3],
            scheme: Scheme::SendFloor,
            config: VectorConfig::default(),
            steps: 1,
            threads: 2,
        },
    ]
}

/// The scenario the skip-the-pass-1-barrier mutant is caught on: a
/// worker that reads the other range's `b` before it is written adds
/// zeros where the oracle adds real sends.
#[must_use]
pub fn mutant_witness_scenario() -> Scenario {
    scenarios()
        .into_iter()
        .find(|s| s.name == "banded_two_workers_one_round")
        .expect("battery contains the witness scenario")
}

/// The serve-scheduler battery (PR 9): a tiny mixed fleet for
/// exploring the batch scheduler's protocol in `dlb-serve` — one
/// ticket counter partitioning tenant indices between workers, one
/// mutex per tenant. Three tenants cover the interesting strata: a
/// closed static run, an injecting run, and a churning run; under
/// loom every interleaving of ticket claims and lock acquisitions is
/// explored.
#[must_use]
pub fn serve_fleet() -> Vec<dlb_serve::Tenant> {
    let schemes = [
        dlb_serve::SchemeKind::SendFloor,
        dlb_serve::SchemeKind::RotorRouter,
        dlb_serve::SchemeKind::SendRound,
    ];
    schemes
        .iter()
        .enumerate()
        .map(|(i, &scheme)| {
            let gp = BalancingGraph::lazy(generators::cycle(4).expect("cycle(4) is valid"));
            let workload =
                (i == 1).then_some(dlb_scenario::WorkloadSpec::Steady { rate: 2, seed: 3 });
            let schedule = if i == 2 {
                dlb_topology::ScheduleSpec::Periodic {
                    period: 1,
                    swaps: 1,
                    seed: 4,
                }
            } else {
                dlb_topology::ScheduleSpec::Static
            };
            dlb_serve::Tenant::new(
                gp,
                LoadVector::point_mass(4, 24 + i as i64),
                scheme,
                workload,
                schedule,
            )
            .expect("fleet specs are well-formed")
        })
        .collect()
}

/// Runs the serve fleet through `slices` scheduler slices of `rounds`
/// rounds at the given worker count and returns the per-tenant
/// outcomes. `threads <= 1` is the inline serial sweep — the oracle
/// every worker interleaving must reproduce exactly.
#[must_use]
pub fn serve_outcomes(
    threads: usize,
    slices: usize,
    rounds: usize,
) -> Vec<dlb_serve::TenantOutcome> {
    let server = dlb_serve::Server::new(serve_fleet());
    for _ in 0..slices {
        server.run_slice(threads, rounds);
    }
    server
        .into_tenants()
        .iter()
        .map(dlb_serve::Tenant::outcome)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Passthrough sanity (runs under tier-1, no model cfg): the
    /// parallel path matches the serial oracle on every scenario in
    /// ordinary execution. Under `--cfg dlb_model` the protocol tests
    /// strengthen this to *every explored schedule*.
    #[test]
    fn battery_matches_serial_outside_the_model() {
        for s in scenarios() {
            let expected = serial_outcome(&s);
            let got = parallel_outcome(&s);
            assert_eq!(got, expected, "{}", s.name);
        }
    }

    #[test]
    fn battery_covers_both_shard_counts_and_every_phase() {
        let battery = scenarios();
        assert!(battery.iter().any(|s| s.threads == 2));
        assert!(battery.iter().any(|s| s.threads == 3));
        assert!(battery.iter().any(|s| s.n % s.threads != 0));
        assert!(battery.iter().any(|s| s.steps == 1));
        assert!(battery.iter().any(|s| s.steps == 2));
        for strategy in [VectorStrategy::Banded, VectorStrategy::BlockedCsr] {
            assert!(battery.iter().any(|s| s.config.strategy == strategy));
        }
        // Every non-error scenario really runs split vector rounds, and
        // the guard scenario really trips.
        for s in &battery {
            let out = serial_outcome(s);
            if out.err.is_none() {
                assert_eq!(out.stats.runs, 1, "{} must dispatch", s.name);
            }
        }
        let trip = battery
            .iter()
            .find(|s| s.name == "i32_guard_trips_across_workers")
            .expect("guard scenario present");
        assert_eq!(serial_outcome(trip).stats.i32_fallbacks, 1);
    }

    /// Passthrough sanity for the serve scheduler: any worker count
    /// reproduces the serial sweep's per-tenant outcomes, and every
    /// journal still replays. Under `--cfg dlb_model` the protocol
    /// tests strengthen this to every explored interleaving.
    #[test]
    fn serve_scheduler_matches_serial_outside_the_model() {
        let expected = serve_outcomes(1, 2, 2);
        for threads in [2usize, 3] {
            assert_eq!(serve_outcomes(threads, 2, 2), expected, "threads={threads}");
        }
        // The fleet must actually exercise injection and churn.
        assert!(expected.iter().any(|o| o.injected_total != 0));
        assert!(expected.iter().any(|o| o.topology_events_applied > 0));
    }

    #[test]
    fn expected_errors_match_the_anchors() {
        let neg = scenarios()
            .into_iter()
            .find(|s| s.name == "negative_seed_rejected_before_any_worker")
            .expect("scenario present");
        assert_eq!(
            serial_outcome(&neg).err,
            Some(EngineError::NegativeLoad {
                node: 1,
                load: -1,
                step: 1
            })
        );
    }
}
