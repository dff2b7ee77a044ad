//! The repository benchmark. One process runs one workload's episodes
//! for `--seconds`, checks every output it produces against an
//! independent reference, and prints its metrics by name with their
//! units; the last line of standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, from untraced runs only;
//! `--trace 1` reports the per-layer metrics and writes the spans it
//! recorded to `.bench_trace/<workload>-seed<seed>.jsonl`.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! with `<name>` one of `expander-send`, `torus-churn`, `serve-fleet`
//! (the workloads of `BENCHMARK.json`) or `expander-rotor` (kept for
//! manual runs; see README.md). Exit code 0 on success, 1 when a
//! correctness check failed (the result line is still printed), 2 on bad
//! arguments or a workload that could not be built (no result line).

mod calib;
mod engines;
mod heap;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use calib::{Bound, Calibration};
use stats::{metric, Metric};
use trace::Spans;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// End-to-end metrics and their units, as listed in `BENCHMARK.json`.
/// Every workload reports every one of them. `setup_s` is the median
/// set-up and `node_rounds_per_s` the mean over the run's episodes, both
/// scaled to the reference host's speed (see `calib` and README.md).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`.
/// A layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("graph.build_s", "s"),
    ("graph.rcm_s", "s"),
    ("graph.shift_profile_ms", "ms"),
    ("engine.calls", "count"),
    ("engine.call_p50_ms", "ms"),
    ("engine.call_tail_ms", "ms"),
    ("engine.fixed_call_ms", "ms"),
    ("engine.round_us", "us"),
    ("engine.check_ms", "ms"),
    ("vector.rounds_blocked", "count"),
    ("vector.rounds_banded", "count"),
    ("vector.rounds_i32", "count"),
    ("vector.i32_fallbacks", "count"),
    ("vector.bytes_per_round", "B_computed"),
    ("kernel.scalar_rounds", "count"),
    ("kernel.stream_ns", "ns"),
    ("parallel.node_rounds_per_s", "1/s"),
    ("parallel.speedup", "x"),
    ("topology.events", "count"),
    ("topology.mutate_ns", "ns"),
    ("scenario.inject_ns", "ns"),
    ("scenario.handoff_ns", "ns"),
    ("scenario.net_injected", "count"),
    ("serve.ticket_ns", "ns"),
    ("serve.lock_ns", "ns"),
    ("serve.step_ns", "ns"),
    ("serve.merge_ns", "ns"),
    ("serve.journal_bytes", "B"),
    ("serve.journal_bytes_per_tenant_round", "B"),
    ("serve.snapshot_us", "us"),
    ("serve.replay_us", "us"),
    ("serve.errored_tenants", "count"),
    ("obs.trace_overhead", "x"),
    ("obs.reconcile_ratio", "x"),
    ("obs.spans", "count"),
];

/// Tolerance of the traced run's reconciliation check: the obs layer's
/// per-round phase spans must cover the engine call time the benchmark
/// measured around them to within this share, and the scheduler's
/// phase split may exceed `workers × slice wall` by at most this share.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Correctness checks made during a run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What a workload run shares with the workload code.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: measure the layers instead of the end-to-end path.
    pub traced: bool,
    pub spans: Spans,
    pub checks: Checks,
    /// Calibration passes, one after every timed engine call or slice;
    /// `Bound::Core` unless the workload replaces it.
    pub calib: Calibration,
}

/// At least one untraced and one traced episode per run.
const MIN_EPISODES: usize = 2;

/// Runs a workload's episodes until `--seconds` have passed (at least
/// `MIN_EPISODES` of them), after one untimed warm-up episode that is
/// dropped with its calibration passes. The end-to-end metrics are a
/// mean and a median over the episodes, so an episode more or less
/// (faster code fits more) changes how steady they are, not what they
/// estimate. A traced run interleaves untraced and traced episodes
/// (U T T U U T …), so neither always runs first.
pub fn measure<E>(
    ctx: &mut Ctx,
    mut episode: impl FnMut(&mut Ctx, bool) -> Result<E, String>,
) -> Result<Vec<E>, String> {
    episode(ctx, false)?;
    ctx.calib.clear();
    let started = Instant::now();
    let mut episodes = Vec::new();
    while episodes.len() < MIN_EPISODES || started.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.traced && matches!(episodes.len() % 4, 1 | 2);
        episodes.push(episode(ctx, traced)?);
    }
    Ok(episodes)
}

/// A workload's measurements: the end-to-end metrics (without
/// `peak_heap_mb`, which `main` adds), the layer metrics, and
/// human-readable notes printed beside them.
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Output of `program args`, trimmed, or `None` if it could not run.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers came from: revision, machine, toolchain, inputs.
fn provenance(args: &Args) -> String {
    let rev = command_output("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"]))
        .map_or("unknown".to_string(), |s| (!s.is_empty()).to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"git_rev\":\"{}\",\"git_dirty\":\"{dirty}\",\"nproc\":{nproc},\"rustc\":\"{rustc}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"mode\":\"{}\"}}",
        rev.unwrap_or_else(|| "unknown (not a git checkout)".into()),
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Puts `got` in the order of `spec`, filling absent entries with
/// `fill` (or failing when `fill` is `None`).
fn ordered(
    spec: &[(&'static str, &'static str)],
    got: &[Metric],
    fill: Option<f64>,
) -> Result<Vec<Metric>, String> {
    spec.iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => Ok(m.clone()),
            Some(m) => Err(format!("{name}: unit {} != {unit}", m.unit)),
            None => fill
                .map(|value| metric(name, value, unit))
                .ok_or_else(|| format!("workload did not report {name}")),
        })
        .collect()
}

fn run(args: &Args) -> Result<(Vec<Metric>, Checks, Spans), String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        spans: Spans::new(args.traced),
        checks: Checks::default(),
        calib: Calibration::new(Bound::Core),
    };
    let report = match args.workload.as_str() {
        "expander-send" => engines::expander_send(&mut ctx)?,
        "expander-rotor" => engines::expander_rotor(&mut ctx)?,
        "torus-churn" => engines::torus_churn(&mut ctx)?,
        "serve-fleet" => serve::serve_fleet(&mut ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("# peak_rss_mb {} MB", peak_rss_mb()?);
    let metrics = if args.traced {
        let mut layers = report.layers;
        layers.push(metric("obs.spans", ctx.spans.len() as f64, "count"));
        ordered(&PER_LAYER, &layers, Some(0.0))?
    } else {
        let mut e2e = report.end_to_end;
        e2e.push(metric(
            "peak_heap_mb",
            heap::peak_bytes() as f64 / (1024.0 * 1024.0),
            "MB",
        ));
        ordered(&END_TO_END, &e2e, None)?
    };
    Ok((metrics, ctx.checks, ctx.spans))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <expander-send|expander-rotor|torus-churn|serve-fleet> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    println!("# provenance {provenance}");
    let (metrics, checks, spans) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.traced {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path, &provenance) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "# error_rate {} ({} of {} checks failed)",
        checks.failures.len() as f64 / checks.attempted.max(1) as f64,
        checks.failures.len(),
        checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    );
    if checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
