//! # dlb — deterministic load-balancing schemes on regular graphs
//!
//! A faithful, executable reproduction of Berenbrink, Klasing,
//! Kosowski, Mallmann-Trenn, Uznański, *Improved Analysis of
//! Deterministic Load-Balancing Schemes* (PODC 2015): the paper's
//! algorithm classes (cumulatively fair balancers, good s-balancers),
//! the rotor-router and SEND-family schemes, every baseline its Table 1
//! compares against, the Section 4 lower-bound constructions, and an
//! experiment harness regenerating the paper's evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — d-regular graphs, generators, the balancing graph
//!   `G⁺` with self-loops and ports, and the in-place topology
//!   mutation layer (double-edge swaps, port permutations, node
//!   sleep/wake);
//! * [`topology`] — dynamic-topology schedules: deterministic churn
//!   generators (periodic rewiring, failure/recovery, failure bursts,
//!   adversarial cut-targeting) driving the engine's `*_dyn` paths;
//! * [`spectral`] — transition operators, spectral gaps, balancing
//!   horizons, continuous diffusion;
//! * [`core`] — the balancer framework, schemes, fairness
//!   instrumentation and potential functions;
//! * [`bounds`] — the Theorem 4.1/4.2/4.3 lower-bound instances;
//! * [`matching`] — the dimension-exchange models (random matching,
//!   balancing circuit) the paper contrasts with diffusion in §1.2;
//! * [`obs`] — zero-cost observability: monomorphized tracing sinks,
//!   the metric registry, log-bucketed histograms, and trace/metrics
//!   exporters (JSONL, chrome://tracing, Prometheus text);
//! * [`scenario`] — dynamic workloads (arrivals, bursts, hotspots,
//!   drains, a bounded adversary) and the open-system scenario runner;
//! * [`harness`] — experiment drivers (Table 1, scaling laws,
//!   ablations, throughput, scenarios) with text/CSV reporting.
//!
//! # Quickstart
//!
//! ```
//! use dlb::graph::{generators, BalancingGraph, PortOrder};
//! use dlb::core::{Engine, LoadVector, Run};
//! use dlb::core::schemes::RotorRouter;
//!
//! // 64 nodes in a ring, 6400 tokens piled on node 0.
//! let gp = BalancingGraph::lazy(generators::cycle(64)?);
//! let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
//! let mut engine = Engine::new(gp, LoadVector::point_mass(64, 6400));
//! engine.attach_monitor();
//! engine.run(&mut rotor, Run::new(20_000))?;
//!
//! // Balanced to a handful of tokens, cumulatively 1-fair throughout.
//! assert!(engine.loads().discrepancy() <= 8);
//! assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs and `EXPERIMENTS.md` for
//! the paper-versus-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dlb_bounds as bounds;
pub use dlb_core as core;
pub use dlb_graph as graph;
pub use dlb_harness as harness;
pub use dlb_matching as matching;
pub use dlb_obs as obs;
pub use dlb_scenario as scenario;
pub use dlb_serve as serve;
pub use dlb_spectral as spectral;
pub use dlb_topology as topology;
