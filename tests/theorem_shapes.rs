//! Cross-crate integration tests verifying the *shape* of each
//! positive theorem at small scale: bounds hold, orderings hold, and
//! the quantities scale the right way. (Full-size measurements live in
//! EXPERIMENTS.md, produced by `dlb-experiments`.)

use dlb::core::{Engine, LoadVector, Run};
use dlb::graph::{generators, BalancingGraph};
use dlb::harness::{init, GraphSpec, Runner, SchemeSpec};
use dlb::spectral::{closed_form, BalancingHorizon, ContinuousDiffusion, SpectralGap};

const MEAN: i64 = 50;

fn horizon_for(spec: &GraphSpec, d_self: usize, n: usize) -> usize {
    Runner::default()
        .horizon_steps(spec, d_self, n, (MEAN * n as i64) as u64)
        .expect("horizon computes")
}

/// Theorem 2.3 (i): cumulatively fair balancers land under
/// `(δ+1)·d·√(ln n/µ)` after `O(T)` on an expander.
#[test]
fn thm23_claim_i_bound_holds_on_expander() {
    let spec = GraphSpec::RandomRegular {
        n: 128,
        d: 4,
        seed: 7,
    };
    let graph = spec.build().unwrap();
    let (n, d) = (graph.num_nodes(), graph.degree());
    let gp = BalancingGraph::lazy(graph);
    let steps = horizon_for(&spec, d, n);
    let mu = 1.0 - spec.lambda2(d).unwrap();
    let bound = |delta: f64| (delta + 1.0) * d as f64 * ((n as f64).ln() / mu).sqrt();
    let runner = Runner::default();
    let initial = init::point_mass(n, MEAN * n as i64);
    for (scheme, delta) in [
        (SchemeSpec::SendFloor, 0.0),
        (SchemeSpec::SendRound, 0.0),
        (SchemeSpec::RotorRouter, 1.0),
    ] {
        let out = runner.run_for(&gp, &scheme, &initial, steps).unwrap();
        assert!(
            (out.final_discrepancy as f64) <= bound(delta),
            "{}: {} > bound {:.1}",
            scheme.label(),
            out.final_discrepancy,
            bound(delta)
        );
    }
}

/// Theorem 2.3 (ii): the `d·√n` bound holds on cycles, at several
/// sizes.
#[test]
fn thm23_claim_ii_bound_holds_on_cycles() {
    let runner = Runner::default();
    for n in [16usize, 32, 64] {
        let spec = GraphSpec::Cycle { n };
        let gp = BalancingGraph::lazy(spec.build().unwrap());
        let steps = horizon_for(&spec, 2, n);
        let initial = init::point_mass(n, MEAN * n as i64);
        for scheme in [SchemeSpec::SendFloor, SchemeSpec::RotorRouter] {
            let out = runner.run_for(&gp, &scheme, &initial, steps).unwrap();
            let bound = 2.0 * (n as f64).sqrt();
            assert!(
                (out.final_discrepancy as f64) <= bound,
                "{} on C_{n}: {} > {:.1}",
                scheme.label(),
                out.final_discrepancy,
                bound
            );
        }
    }
}

/// Theorem 3.3: good s-balancers reach `(2δ+1)d⁺ + 4d°` within the
/// theorem's time budget, for every s.
#[test]
fn thm33_bound_holds_within_budget() {
    let spec = GraphSpec::RandomRegular {
        n: 64,
        d: 4,
        seed: 11,
    };
    let graph = spec.build().unwrap();
    let n = graph.num_nodes();
    let d = graph.degree();
    let d_self = 2 * d;
    let gp = BalancingGraph::with_self_loops(graph, d_self).unwrap();
    let gap = SpectralGap::from_lambda2(spec.lambda2(d_self).unwrap());
    let horizon = BalancingHorizon::new(gap, n, (MEAN * n as i64) as u64);
    let bound = 3 * gp.degree_plus() as i64 + 4 * d_self as i64;
    let runner = Runner::default();
    let initial = init::point_mass(n, MEAN * n as i64);
    for s in [1usize, 2, 4, 8] {
        let budget = horizon.steps(4.0) + 4 * horizon.good_balancer_extra(d, s);
        let out = runner
            .run_for(&gp, &SchemeSpec::Good { s }, &initial, budget)
            .unwrap();
        assert!(
            out.final_discrepancy <= bound,
            "s = {s}: {} > bound {bound}",
            out.final_discrepancy
        );
    }
}

/// The continuous process balances within its horizon — the premise
/// every discrete comparison rests on.
#[test]
fn continuous_process_balances_within_t() {
    for n in [16usize, 64] {
        let gp = BalancingGraph::lazy(generators::cycle(n).unwrap());
        let k = MEAN * n as i64;
        let gap = SpectralGap::from_lambda2(closed_form::lambda2_cycle(n, 2));
        let t = BalancingHorizon::new(gap, n, k as u64).steps(2.0);
        let mut initial = vec![0.0; n];
        initial[0] = k as f64;
        let mut proc = ContinuousDiffusion::new(gp, initial);
        proc.run(t);
        assert!(
            proc.max_deviation() < 1.0,
            "n = {n}: deviation {} after {t}",
            proc.max_deviation()
        );
    }
}

/// The [4] baseline reaches ≤ 2d discrepancy after O(T) — the Table 1
/// row the paper's schemes are measured against.
#[test]
fn mimic_reaches_two_d_after_horizon() {
    let spec = GraphSpec::Cycle { n: 32 };
    let n = 32;
    let gp = BalancingGraph::lazy(spec.build().unwrap());
    let steps = 2 * horizon_for(&spec, 2, n);
    let runner = Runner::default();
    let out = runner
        .run_for(
            &gp,
            &SchemeSpec::ContinuousMimic,
            &init::point_mass(n, MEAN * n as i64),
            steps,
        )
        .unwrap();
    assert!(
        out.final_discrepancy <= 2 * 2 + 1,
        "mimic: {} > 2d",
        out.final_discrepancy
    );
}

/// Discrete-vs-continuous sandwich: after the same number of steps the
/// rotor-router's load profile stays within O(d·√(ln n/µ)) of the
/// continuous profile in sup norm (the quantity the proof of
/// Theorem 2.3 actually controls).
#[test]
fn rotor_router_tracks_continuous_process() {
    let n = 64;
    let spec = GraphSpec::RandomRegular { n, d: 4, seed: 3 };
    let graph = spec.build().unwrap();
    let gp = BalancingGraph::lazy(graph);
    let k = MEAN * n as i64;
    let steps = horizon_for(&spec, 4, n);

    let mut rotor = SchemeSpec::RotorRouter.build(&gp).unwrap();
    let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(n, k));
    engine.run(rotor.as_mut(), Run::new(steps)).unwrap();

    let mut cont_init = vec![0.0; n];
    cont_init[0] = k as f64;
    let mut cont = ContinuousDiffusion::new(gp, cont_init);
    cont.run(steps);

    let mu = 1.0 - spec.lambda2(4).unwrap();
    let allowance = 4.0 * ((n as f64).ln() / mu).sqrt() + 1.0;
    for u in 0..n {
        let gap = (engine.loads().get(u) as f64 - cont.loads()[u]).abs();
        assert!(
            gap <= allowance,
            "node {u}: |discrete − continuous| = {gap:.1} > {allowance:.1}"
        );
    }
}

/// Scaling sanity: the balancing horizon grows quadratically on cycles
/// and logarithmically on expanders — the µ-dependence that separates
/// claims (i) and (ii) of Theorem 2.3.
#[test]
fn horizon_scaling_shapes() {
    let t_cycle_64 = horizon_for(&GraphSpec::Cycle { n: 64 }, 2, 64);
    let t_cycle_128 = horizon_for(&GraphSpec::Cycle { n: 128 }, 2, 128);
    let ratio = t_cycle_128 as f64 / t_cycle_64 as f64;
    assert!(
        ratio > 3.0 && ratio < 6.0,
        "cycle horizon should scale ~n²: ratio {ratio:.2}"
    );

    let t_exp_128 = horizon_for(
        &GraphSpec::RandomRegular {
            n: 128,
            d: 4,
            seed: 1,
        },
        4,
        128,
    );
    let t_exp_256 = horizon_for(
        &GraphSpec::RandomRegular {
            n: 256,
            d: 4,
            seed: 1,
        },
        4,
        256,
    );
    let ratio = t_exp_256 as f64 / t_exp_128 as f64;
    assert!(
        ratio < 2.0,
        "expander horizon should grow sub-linearly: ratio {ratio:.2}"
    );
}
