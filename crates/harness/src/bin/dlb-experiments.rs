//! CLI driving every experiment of the reproduction.
//!
//! ```text
//! dlb-experiments all            # run everything at full size
//! dlb-experiments all --quick    # reduced sizes (seconds, not minutes)
//! dlb-experiments e1 e7 --quick  # selected experiments
//! dlb-experiments --csv out/     # also write CSV per experiment
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dlb_harness::experiments;
use dlb_harness::report::Table;
use dlb_harness::RunError;

struct Args {
    experiments: Vec<String>,
    quick: bool,
    csv_dir: Option<PathBuf>,
}

const ALL_IDS: &[&str] = &[
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "a1",
    "a2",
    "a3",
    "scenarios",
    "churn",
];

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut csv_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--csv" => {
                let dir = argv
                    .next()
                    .ok_or_else(|| "--csv requires a directory argument".to_string())?;
                csv_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "usage: dlb-experiments [all | e1..e9 a1 a2 a3 scenarios churn]... [--quick] [--csv DIR]\n\
                     \n\
                     e1  Table 1: discrepancy after 4T per scheme per graph\n\
                     e2  Thm 2.3(i): scaling on expanders\n\
                     e3  Thm 2.3(ii): scaling on cycles\n\
                     e4  Thm 3.3: time to O(d) vs s\n\
                     e5  Thm 4.1: round-fair steady states (Ω(d·diam))\n\
                     e6  Thm 4.2: the stateless trap (Ω(d))\n\
                     e7  Thm 4.3: rotor-router orbits (Ω(d·φ))\n\
                     e8  diffusive vs dimension-exchange contrast\n\
                     e9  deviation to the continuous process (Thm 2.3 mechanism)\n\
                     a1  ablation: self-loop count\n\
                     a2  ablation: cumulative-δ sensitivity\n\
                     a3  ablation: rotor-router port-order sensitivity\n\
                     scenarios  dynamic workloads: steady-state discrepancy, recovery,\n\
                                cross-path bit-identity under injection\n\
                     churn      dynamic topology: discrepancy under churn, recovery after\n\
                                failure bursts, swap-shortfall accounting, cross-path\n\
                                bit-identity under churn x workload\n\
                     \n\
                     Engine throughput is measured by the repository benchmark\n\
                     (perfbench/README.md), not by this binary."
                );
                std::process::exit(0);
            }
            "all" => experiments.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => experiments.push(id.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }
    experiments.dedup();
    Ok(Args {
        experiments,
        quick,
        csv_dir,
    })
}

fn run_one(id: &str, quick: bool) -> Result<Table, RunError> {
    match id {
        "e1" => experiments::table1(quick),
        "e2" => experiments::thm23_expander(quick),
        "e3" => experiments::thm23_cycle(quick),
        "e4" => experiments::thm33_time_to_d(quick),
        "e5" => experiments::thm41_lower(quick),
        "e6" => experiments::thm42_stateless(quick),
        "e7" => experiments::thm43_rotor_cycle(quick),
        "e8" => experiments::dimension_exchange(quick),
        "e9" => experiments::deviation_trace(quick),
        "a1" => experiments::ablation_self_loops(quick),
        "a2" => experiments::ablation_delta(quick),
        "a3" => experiments::ablation_port_order(quick),
        "scenarios" => experiments::scenarios(quick),
        "churn" => experiments::churn(quick),
        other => unreachable!("unvalidated experiment id {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.quick { "quick" } else { "full" };
    println!(
        "dlb-experiments ({mode} mode): {}",
        args.experiments.join(", ")
    );
    for id in &args.experiments {
        let started = std::time::Instant::now();
        match run_one(id, args.quick) {
            Ok(table) => {
                println!();
                print!("{}", table.render());
                println!("[{id} finished in {:.1?}]", started.elapsed());
                if let Some(dir) = &args.csv_dir {
                    let path = dir.join(format!("{id}.csv"));
                    if let Err(e) = table.write_csv(&path) {
                        eprintln!("warning: failed writing {}: {e}", path.display());
                    } else {
                        println!("[csv: {}]", path.display());
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
