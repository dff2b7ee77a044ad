//! T1 — step throughput of the engine's execution paths.
//!
//! Sweeps scheme × graph × n over the instrumented stepping loop
//! (`Engine::step`, per-step statistics), the fused serial fast path
//! (`Engine::run_fast`), the plan-free delta-kernel path
//! (`Engine::run_kernel`) and its range-split parallel form
//! (`Engine::run_parallel`), cross-checking that every path produces
//! bit-identical final loads. Graphs with poor generator labelings
//! (random regular) are additionally measured after a reverse
//! Cuthill–McKee relabeling: the run happens in the relabeled id space
//! and the final loads are mapped back through the inverse permutation
//! before the bit-identity check, so `relabeled` rows prove the
//! locality win *and* exactness at once.
//!
//! The kernel path is measured three ways: `run_kernel` (automatic
//! vector dispatch — the production configuration), `run_kernel(scalar)`
//! (vector layer disabled: the scalar oracle), and `run_kernel(i64)`
//! (vector dispatch forced to full-width loads, isolating the i32
//! compression win). Each kernel row reports which inner loop actually
//! ran (`banded`/`blocked`/`scalar`) and at which load width
//! (`i32`/`i64`/`i32+i64` after a mid-run fallback), read back from the
//! engine's vector counters — so an eligible row that silently fell
//! back to the scalar stream is visible, and CI fails on it via the
//! top-level `vector_rows_ok` flag. Besides the text/CSV table, the
//! sweep is written as machine-readable JSON to `BENCH_PR8.json`
//! (schema `dlb-throughput/v6`; override the path with the
//! `DLB_BENCH_JSON` environment variable) so CI and perf dashboards can
//! diff runs without parsing the table.

use std::time::Instant;

use dlb_core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb_core::{
    Engine, LoadVector, NoWorkload, StaticTopology, VectorConfig, VectorStats, VectorWidth,
};
use dlb_graph::relabel::Relabeling;
use dlb_graph::{BalancingGraph, PortOrder};

use crate::init;
use crate::report::Table;
use crate::runner::RunError;
use crate::suite::{GraphSpec, SchemeSpec};

/// Tokens per node in the benchmark's bimodal initial distribution —
/// enough that every node splits a non-trivial load each round.
const TOKENS_PER_NODE: i64 = 64;

struct Measurement {
    scheme: String,
    graph: String,
    n: usize,
    path: String,
    threads: usize,
    relabeled: bool,
    steps: usize,
    tokens: i64,
    elapsed_sec: f64,
    bit_identical: bool,
    /// Which inner loop executed: `banded`/`blocked` for dispatched
    /// vector rounds, `scalar` for the streaming kernel, `planned`
    /// for the plan-materialising paths.
    inner_loop: String,
    /// Load-buffer width of the executed rounds: `i32`, `i64`, or
    /// `i32+i64` when the headroom guard fell back mid-run.
    load_width: String,
}

impl Measurement {
    fn node_steps_per_sec(&self) -> f64 {
        (self.n * self.steps) as f64 / self.elapsed_sec
    }

    fn token_steps_per_sec(&self) -> f64 {
        (self.tokens as f64 * self.steps as f64) / self.elapsed_sec
    }
}

fn run_instrumented(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
) -> Result<(f64, LoadVector), RunError> {
    let mut bal = scheme.build(gp)?;
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let started = Instant::now();
    for _ in 0..steps {
        engine.step(bal.as_mut())?;
    }
    Ok((started.elapsed().as_secs_f64(), engine.loads().clone()))
}

fn run_fast(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
) -> Result<(f64, LoadVector), RunError> {
    let mut bal = scheme.build(gp)?;
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let started = Instant::now();
    engine.run_fast(bal.as_mut(), steps)?;
    Ok((started.elapsed().as_secs_f64(), engine.loads().clone()))
}

/// The plan-free kernel path, under an optional vector configuration
/// (`None` keeps the engine's automatic dispatch — the production
/// default). `run_kernel` is generic over the concrete scheme (that is
/// where the speed comes from), so the dispatch happens here rather
/// than through a trait object. Returns `None` for schemes without a
/// kernel; the returned [`VectorStats`] say which inner loop ran.
fn run_kernel(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
    config: Option<VectorConfig>,
) -> Result<Option<(f64, LoadVector, VectorStats)>, RunError> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    if let Some(c) = config {
        engine.set_vector_config(c);
    }
    // Scheme construction stays outside the timed window, like the
    // other paths' `scheme.build(gp)` (the rotor allocates O(n·d⁺)).
    let elapsed = match scheme {
        SchemeSpec::SendFloor => {
            let mut bal = SendFloor::new();
            let started = Instant::now();
            engine.run_kernel(&mut bal, steps)?;
            started.elapsed()
        }
        SchemeSpec::SendRound => {
            let mut bal = SendRound::new();
            let started = Instant::now();
            engine.run_kernel(&mut bal, steps)?;
            started.elapsed()
        }
        SchemeSpec::RotorRouter => {
            let mut rotor = RotorRouter::new(gp, PortOrder::Sequential)?;
            let started = Instant::now();
            engine.run_kernel(&mut rotor, steps)?;
            started.elapsed()
        }
        _ => return Ok(None),
    };
    Ok(Some((
        elapsed.as_secs_f64(),
        engine.loads().clone(),
        *engine.vector_stats(),
    )))
}

/// The dynamic kernel entry with no-op generators spelled out —
/// `Some(&mut StaticTopology)`, `Some(&mut NoWorkload)` — exactly how
/// a host that always threads generator slots (the serve layer) calls
/// it. Regression surface for the vector-dispatch gate: this
/// configuration used to fall back to the scalar kernel because the
/// gate required the arguments to be `None` rather than no-ops, and
/// `vector_rows_ok` now fails loudly if that ever regresses.
fn run_kernel_dyn_static(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
) -> Result<Option<(f64, LoadVector, VectorStats)>, RunError> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let elapsed = match scheme {
        SchemeSpec::SendFloor => {
            let mut bal = SendFloor::new();
            let started = Instant::now();
            engine.run_kernel_dyn(
                &mut bal,
                steps,
                Some(&mut StaticTopology),
                Some(&mut NoWorkload),
            )?;
            started.elapsed()
        }
        SchemeSpec::SendRound => {
            let mut bal = SendRound::new();
            let started = Instant::now();
            engine.run_kernel_dyn(
                &mut bal,
                steps,
                Some(&mut StaticTopology),
                Some(&mut NoWorkload),
            )?;
            started.elapsed()
        }
        _ => return Ok(None),
    };
    Ok(Some((
        elapsed.as_secs_f64(),
        engine.loads().clone(),
        *engine.vector_stats(),
    )))
}

/// Reads (`inner_loop`, `load_width`) off a kernel run's counters.
fn classify_kernel(stats: &VectorStats, steps: usize) -> (String, String) {
    if stats.runs == 0 {
        return ("scalar".into(), "i64".into());
    }
    let inner = if stats.rounds_banded > 0 {
        "banded"
    } else if stats.rounds_blocked > 0 {
        "blocked"
    } else {
        "scalar"
    };
    let width = if stats.rounds_i32 as usize == steps {
        "i32"
    } else if stats.rounds_i32 > 0 {
        "i32+i64"
    } else {
        "i64"
    };
    (inner.into(), width.into())
}

/// `run_parallel` for the SEND family (the schemes with a closed
/// form); `None` for every other scheme.
fn run_parallel(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
    threads: usize,
) -> Result<Option<(f64, LoadVector, VectorStats)>, RunError> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let started = Instant::now();
    match scheme {
        SchemeSpec::SendFloor => engine.run_parallel(&SendFloor::new(), steps, threads)?,
        SchemeSpec::SendRound => engine.run_parallel(&SendRound::new(), steps, threads)?,
        _ => return Ok(None),
    }
    Ok(Some((
        started.elapsed().as_secs_f64(),
        engine.loads().clone(),
        *engine.vector_stats(),
    )))
}

/// Runs the throughput sweep and writes `BENCH_PR8.json` (path
/// overridable with the `DLB_BENCH_JSON` environment variable).
///
/// # Errors
///
/// Propagates instance-construction and engine errors.
pub fn throughput(quick: bool) -> Result<Table, RunError> {
    let json_path = std::env::var("DLB_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR8.json".into());
    throughput_to(quick, std::path::Path::new(&json_path))
}

/// [`throughput`] with an explicit JSON output path (the environment is
/// only consulted at the public entry point, keeping tests free of
/// process-global state).
fn throughput_to(quick: bool, json_path: &std::path::Path) -> Result<Table, RunError> {
    let graphs: Vec<GraphSpec> = if quick {
        vec![
            GraphSpec::Cycle { n: 4096 },
            GraphSpec::Torus2D { side: 64 },
            GraphSpec::RandomRegular {
                n: 4096,
                d: 4,
                seed: 42,
            },
        ]
    } else {
        vec![
            GraphSpec::Cycle { n: 65_536 },
            GraphSpec::Cycle { n: 1_048_576 },
            GraphSpec::Torus2D { side: 256 },
            GraphSpec::Torus2D { side: 1024 },
            GraphSpec::RandomRegular {
                n: 65_536,
                d: 4,
                seed: 42,
            },
            GraphSpec::RandomRegular {
                n: 262_144,
                d: 4,
                seed: 42,
            },
        ]
    };
    let schemes = [
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
    ];
    let thread_counts: &[usize] = if quick { &[2] } else { &[2, 4] };

    let mut results: Vec<Measurement> = Vec::new();
    // Fails the sweep (via JSON + test) if any kernel row that was
    // eligible for vector dispatch — a SEND scheme under the automatic
    // configuration — silently ran scalar instead.
    let mut vector_rows_ok = true;
    for spec in &graphs {
        let graph = spec.build()?;
        let n = graph.num_nodes();
        // Random-regular generators hand out adversarially scattered
        // ids; measure those graphs again under an RCM relabeling.
        let relabeling = matches!(spec, GraphSpec::RandomRegular { .. })
            .then(|| Relabeling::reverse_cuthill_mckee(&graph));
        let relabeled_gp = relabeling
            .as_ref()
            .map(|r| graph.relabeled(r).map(BalancingGraph::lazy))
            .transpose()?;
        let gp = BalancingGraph::lazy(graph);
        let initial = init::bimodal(n, TOKENS_PER_NODE);
        let tokens = initial.total();
        // Fewer steps on bigger graphs keeps every measurement in the
        // same wall-clock ballpark.
        let budget = if quick { 2_000_000 } else { 16_000_000 };
        let steps = (budget / n).clamp(2, 64);

        for scheme in &schemes {
            let is_uniform = matches!(scheme, SchemeSpec::SendFloor | SchemeSpec::SendRound);
            let (instr_sec, instr_loads) = run_instrumented(&gp, scheme, &initial, steps)?;
            let mut push = |path: String,
                            threads: usize,
                            relabeled: bool,
                            sec: f64,
                            ok: bool,
                            inner_loop: String,
                            load_width: String| {
                results.push(Measurement {
                    scheme: scheme.label(),
                    graph: spec.label(),
                    n,
                    path,
                    threads,
                    relabeled,
                    steps,
                    tokens,
                    elapsed_sec: sec,
                    bit_identical: ok,
                    inner_loop,
                    load_width,
                });
            };
            let planned = |sec: f64, ok: bool| (sec, ok, "planned".to_string(), "i64".to_string());
            let (sec, ok, il, lw) = planned(instr_sec, true);
            push("step-loop".into(), 1, false, sec, ok, il, lw);

            let (fast_sec, fast_loads) = run_fast(&gp, scheme, &initial, steps)?;
            let (sec, ok, il, lw) = planned(fast_sec, fast_loads == instr_loads);
            push("run_fast".into(), 1, false, sec, ok, il, lw);

            // The production configuration: automatic vector dispatch.
            if let Some((kern_sec, kern_loads, stats)) =
                run_kernel(&gp, scheme, &initial, steps, None)?
            {
                let (inner, width) = classify_kernel(&stats, steps);
                vector_rows_ok &= !is_uniform || stats.runs > 0;
                push(
                    "run_kernel".into(),
                    1,
                    false,
                    kern_sec,
                    kern_loads == instr_loads,
                    inner,
                    width,
                );
            }
            if is_uniform {
                // The scalar oracle, explicitly — the baseline every
                // speedup figure and bit-identity claim is anchored on.
                let scalar_cfg = VectorConfig {
                    enabled: false,
                    ..VectorConfig::default()
                };
                if let Some((sc_sec, sc_loads, sc_stats)) =
                    run_kernel(&gp, scheme, &initial, steps, Some(scalar_cfg))?
                {
                    let (inner, width) = classify_kernel(&sc_stats, steps);
                    push(
                        "run_kernel(scalar)".into(),
                        1,
                        false,
                        sc_sec,
                        sc_loads == instr_loads,
                        inner,
                        width,
                    );
                }
                // Vector dispatch at forced full width, isolating the
                // i32 compression win from the gather restructuring.
                let i64_cfg = VectorConfig {
                    width: VectorWidth::I64,
                    ..VectorConfig::default()
                };
                if let Some((w_sec, w_loads, w_stats)) =
                    run_kernel(&gp, scheme, &initial, steps, Some(i64_cfg))?
                {
                    let (inner, width) = classify_kernel(&w_stats, steps);
                    vector_rows_ok &= w_stats.runs > 0;
                    push(
                        "run_kernel(i64)".into(),
                        1,
                        false,
                        w_sec,
                        w_loads == instr_loads,
                        inner,
                        width,
                    );
                }
                // The dyn entry with no-op generators: must dispatch
                // into the vector layer exactly like `run_kernel`.
                if let Some((dyn_sec, dyn_loads, dyn_stats)) =
                    run_kernel_dyn_static(&gp, scheme, &initial, steps)?
                {
                    let (inner, width) = classify_kernel(&dyn_stats, steps);
                    vector_rows_ok &= dyn_stats.runs > 0;
                    push(
                        "run_kernel(dyn-static)".into(),
                        1,
                        false,
                        dyn_sec,
                        dyn_loads == instr_loads,
                        inner,
                        width,
                    );
                }
            }

            if let (Some(r), Some(rgp)) = (&relabeling, &relabeled_gp) {
                // The relabeled run happens entirely in the new id
                // space; mapping the final loads back through the
                // inverse must reproduce the original run exactly.
                let rinitial = LoadVector::new(r.permute(initial.as_slice()));
                let restored = |loads: &LoadVector| {
                    LoadVector::new(r.unpermute(loads.as_slice())) == instr_loads
                };
                let (rl_instr_sec, rl_instr_loads) =
                    run_instrumented(rgp, scheme, &rinitial, steps)?;
                let (sec, ok, il, lw) = planned(rl_instr_sec, restored(&rl_instr_loads));
                push("step-loop".into(), 1, true, sec, ok, il, lw);
                if let Some((rl_kern_sec, rl_kern_loads, rl_stats)) =
                    run_kernel(rgp, scheme, &rinitial, steps, None)?
                {
                    let (inner, width) = classify_kernel(&rl_stats, steps);
                    vector_rows_ok &= !is_uniform || rl_stats.runs > 0;
                    push(
                        "run_kernel".into(),
                        1,
                        true,
                        rl_kern_sec,
                        restored(&rl_kern_loads),
                        inner,
                        width,
                    );
                }
                if is_uniform {
                    let scalar_cfg = VectorConfig {
                        enabled: false,
                        ..VectorConfig::default()
                    };
                    if let Some((rs_sec, rs_loads, rs_stats)) =
                        run_kernel(rgp, scheme, &rinitial, steps, Some(scalar_cfg))?
                    {
                        let (inner, width) = classify_kernel(&rs_stats, steps);
                        push(
                            "run_kernel(scalar)".into(),
                            1,
                            true,
                            rs_sec,
                            restored(&rs_loads),
                            inner,
                            width,
                        );
                    }
                }
            }

            for &threads in thread_counts {
                if let Some((par_sec, par_loads, par_stats)) =
                    run_parallel(&gp, scheme, &initial, steps, threads)?
                {
                    let (inner, width) = classify_kernel(&par_stats, steps);
                    push(
                        format!("parallel({threads})"),
                        threads,
                        false,
                        par_sec,
                        par_loads == instr_loads,
                        inner,
                        width,
                    );
                }
            }
        }
    }

    write_json(json_path, &results, quick, vector_rows_ok);

    let mut table = Table::new(
        "T1: engine step throughput (per path; speedup vs the instrumented step loop)",
        &[
            "scheme",
            "graph",
            "n",
            "path",
            "inner",
            "width",
            "relabeled",
            "steps",
            "Mnode-steps/s",
            "Mtoken-steps/s",
            "speedup",
            "identical",
        ],
    );
    // Speedups are relative to the *unrelabeled* instrumented
    // measurement of the same (scheme, graph) — the first of each group
    // by construction — so relabeled rows show the locality win
    // directly.
    let mut instr_sec = 0.0f64;
    for m in &results {
        if m.path == "step-loop" && !m.relabeled {
            instr_sec = m.elapsed_sec;
        }
        table.push_row(vec![
            m.scheme.clone(),
            m.graph.clone(),
            m.n.to_string(),
            m.path.clone(),
            m.inner_loop.clone(),
            m.load_width.clone(),
            if m.relabeled { "rcm" } else { "no" }.into(),
            m.steps.to_string(),
            format!("{:.2}", m.node_steps_per_sec() / 1e6),
            format!("{:.2}", m.token_steps_per_sec() / 1e6),
            format!("{:.2}x", instr_sec / m.elapsed_sec),
            if m.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    Ok(table)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes the machine-readable sweep. Failures to write are reported on
/// stderr but do not fail the experiment (the table already carries the
/// numbers).
fn write_json(path: &std::path::Path, results: &[Measurement], quick: bool, vector_rows_ok: bool) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dlb-throughput/v6\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"tokens_per_node\": {TOKENS_PER_NODE},\n"));
    out.push_str(&format!("  \"vector_rows_ok\": {vector_rows_ok},\n"));
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"graph\": \"{}\", \"n\": {}, \"path\": \"{}\", \
             \"threads\": {}, \"relabeled\": {}, \"steps\": {}, \"tokens\": {}, \
             \"elapsed_sec\": {:.6}, \
             \"node_steps_per_sec\": {:.1}, \"token_steps_per_sec\": {:.1}, \
             \"inner_loop\": \"{}\", \"load_width\": \"{}\", \
             \"bit_identical\": {}}}{}\n",
            json_escape(&m.scheme),
            json_escape(&m.graph),
            m.n,
            json_escape(&m.path),
            m.threads,
            m.relabeled,
            m.steps,
            m.tokens,
            m.elapsed_sec,
            m.node_steps_per_sec(),
            m.token_steps_per_sec(),
            json_escape(&m.inner_loop),
            json_escape(&m.load_width),
            m.bit_identical,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: failed writing {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_consistent_rows_and_json() {
        let dir = std::env::temp_dir().join("dlb-throughput-test");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR8.json");
        let table = throughput_to(true, &json_path).expect("quick sweep runs");

        // Cycle/torus: SEND schemes get step-loop + run_fast +
        // run_kernel{auto,scalar,i64,dyn-static} + parallel(2) (7 rows
        // each), the rotor-router gets step-loop + run_fast +
        // run_kernel (3 rows): 17 per graph. Random-regular adds
        // relabeled rows: step-loop + kernel-auto + kernel-scalar per
        // SEND scheme, step-loop + kernel-auto for the rotor (8 rows)
        // — 25 total.
        assert_eq!(table.num_rows(), 2 * 17 + (17 + 8));
        // Every path must have reproduced the instrumented loads —
        // including the relabeled runs mapped back to original ids.
        assert!(
            !table.render().contains("NO"),
            "a path diverged from the instrumented engine:\n{}",
            table.render()
        );

        let json = std::fs::read_to_string(&json_path).expect("json written");
        assert!(json.contains("\"schema\": \"dlb-throughput/v6\""));
        assert!(json.contains("\"path\": \"run_kernel\""));
        assert!(json.contains("\"path\": \"run_kernel(scalar)\""));
        assert!(json.contains("\"path\": \"run_kernel(dyn-static)\""));
        assert!(json.contains("\"relabeled\": true"));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(!json.contains("\"bit_identical\": false"));
        // Eligible SEND kernels must actually have dispatched into the
        // vector layer, and the quick graphs exercise both gathers.
        assert!(json.contains("\"vector_rows_ok\": true"));
        assert!(json.contains("\"inner_loop\": \"banded\""));
        assert!(json.contains("\"inner_loop\": \"blocked\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
