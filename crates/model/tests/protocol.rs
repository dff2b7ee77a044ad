//! Exhaustive schedule exploration of the range-split vector rounds,
//! plus the mutant witness that shows the checker has teeth.
//!
//! Only compiled under `RUSTFLAGS="--cfg dlb_model"` — without that
//! cfg the `dlb_core::sync` facade is plain `std` and there is nothing
//! to explore (the ungated smoke tests in `dlb-model`'s lib cover the
//! passthrough behaviour).
#![cfg(dlb_model)]

use dlb_model::{
    mutant_witness_scenario, parallel_outcome, scenarios, serial_outcome, suite_guard, Scenario,
};
use loom::{Builder, FailureKind};

/// The suite-wide exploration configuration: exhaustive DFS at
/// preemption bound 3, then 32 seeded-random schedules with the bound
/// lifted for tail coverage.
fn builder() -> Builder {
    Builder {
        preemption_bound: 3,
        samples: 32,
        ..Builder::default()
    }
}

/// Explores every schedule of `s`'s parallel run and asserts each one
/// reproduces the serial `run_kernel` oracle exactly: same loads, same
/// step count, same vector counters, same error. A divergence or
/// deadlock panics with the failing schedule and its rendered trace.
fn explore(s: &Scenario) {
    let expected = serial_outcome(s);
    let report = builder().model(|| {
        let got = parallel_outcome(s);
        assert_eq!(got, expected, "schedule diverged from the serial oracle");
    });
    assert!(
        report.complete,
        "{}: DFS was cut short at {} schedules — raise max_schedules",
        s.name, report.schedules
    );
    println!(
        "[model] {:<48} {:>6} schedules exhausted at preemption bound {}, +{} sampled",
        s.name, report.schedules, report.preemption_bound, report.sampled
    );
}

fn explore_by_name(name: &str) {
    let _suite = suite_guard();
    let s = scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("battery has no scenario named {name}"));
    explore(&s);
}

#[test]
fn banded_two_workers_one_round_matches_serial_on_every_schedule() {
    explore_by_name("banded_two_workers_one_round");
}

#[test]
fn banded_three_workers_two_rounds_matches_serial_on_every_schedule() {
    explore_by_name("banded_three_workers_two_rounds");
}

#[test]
fn blocked_two_workers_two_rounds_odd_n_matches_serial_on_every_schedule() {
    explore_by_name("blocked_two_workers_two_rounds_odd_n");
}

#[test]
fn blocked_three_workers_one_round_matches_serial_on_every_schedule() {
    explore_by_name("blocked_three_workers_one_round");
}

#[test]
fn i32_guard_trips_across_workers_on_every_schedule() {
    explore_by_name("i32_guard_trips_across_workers");
}

#[test]
fn negative_seed_rejected_before_any_worker_on_every_schedule() {
    explore_by_name("negative_seed_rejected_before_any_worker");
}

/// Every scenario in the battery has its own test above.
#[test]
fn every_battery_scenario_has_a_test() {
    assert_eq!(scenarios().len(), 6);
}

/// Resets the mutant switch even if the test panics mid-way, so a
/// failure here cannot poison later explorations.
struct MutantFlag;

impl MutantFlag {
    fn set() -> Self {
        dlb_core::sync::model_hooks::SKIP_PASS1_BARRIER
            .store(true, std::sync::atomic::Ordering::SeqCst);
        MutantFlag
    }
}

impl Drop for MutantFlag {
    fn drop(&mut self) {
        dlb_core::sync::model_hooks::SKIP_PASS1_BARRIER
            .store(false, std::sync::atomic::Ordering::SeqCst);
    }
}

/// The barrier after pass 1 is what makes every range of `b` written
/// before any worker gathers from it. With the model-only switch set,
/// every worker skips it; on a schedule where a worker reaches pass 2
/// before its peer has run pass 1, it gathers zeros from the peer's
/// range and the loads diverge. The checker must find that schedule,
/// print it, and replay it; with the switch off the identical scenario
/// must pass clean.
#[test]
fn mutant_skipping_the_pass1_barrier_is_caught_with_a_schedule() {
    let _suite = suite_guard();
    let s = mutant_witness_scenario();
    let expected = serial_outcome(&s);

    let flag = MutantFlag::set();
    let failure = Builder {
        preemption_bound: 3,
        samples: 0,
        ..Builder::default()
    }
    .check(|| {
        assert_eq!(parallel_outcome(&s), expected, "stale b gathered");
    })
    .expect_err("the mutant must diverge on some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "expected a divergence, got {failure}"
    );
    println!(
        "[model] mutant caught after {} schedule(s):",
        failure.schedules_explored
    );
    println!("{failure}");

    // The reported schedule is a real witness: replaying exactly it
    // reproduces the divergence.
    let replayed = Builder::replay(failure.schedule.clone())
        .check(|| {
            assert_eq!(parallel_outcome(&s), expected, "stale b gathered");
        })
        .expect_err("replaying the witness schedule must diverge again");
    assert!(matches!(replayed.kind, FailureKind::Panic { .. }));
    drop(flag);

    // With the barrier back in place the identical scenario is clean
    // on every schedule.
    let report = Builder {
        preemption_bound: 3,
        samples: 0,
        ..Builder::default()
    }
    .model(|| {
        assert_eq!(parallel_outcome(&s), expected);
    });
    assert!(report.complete);
}

/// The serve-layer batch scheduler (PR 9): per-tenant outcomes must
/// equal the serial sweep under **every** explored interleaving of
/// the ticket counter and the per-tenant mutexes — two workers racing
/// over a three-tenant fleet that spans closed, injecting and
/// churning rounds. A diverging tenant, a lost ticket (tenant served
/// twice or skipped) or a deadlocked worker all fail here.
#[test]
fn serve_scheduler_matches_serial_on_every_schedule() {
    let _suite = suite_guard();
    let expected = dlb_model::serve_outcomes(1, 1, 2);
    let report = builder().model(|| {
        let got = dlb_model::serve_outcomes(2, 1, 2);
        assert_eq!(
            got, expected,
            "a scheduler interleaving changed a tenant outcome"
        );
    });
    assert!(
        report.complete,
        "serve scheduler: DFS was cut short at {} schedules",
        report.schedules
    );
    println!(
        "[model] {:<48} {:>6} schedules exhausted at preemption bound {}, +{} sampled",
        "serve_scheduler_two_workers", report.schedules, report.preemption_bound, report.sampled
    );
}
