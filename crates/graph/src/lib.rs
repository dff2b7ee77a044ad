//! d-regular graph substrate for deterministic diffusion load balancing.
//!
//! This crate provides every graph-shaped ingredient of the model in
//! Berenbrink, Klasing, Kosowski, Mallmann-Trenn, Uznański,
//! *Improved Analysis of Deterministic Load-Balancing Schemes* (PODC 2015):
//!
//! * [`RegularGraph`] — a compact CSR representation of a symmetric
//!   d-regular graph `G = (V, E)` with validation of regularity and
//!   symmetry, the *original graph* of the paper (§1.3);
//! * [`BalancingGraph`] — the graph `G⁺` obtained by attaching `d°`
//!   self-loops to every node, with a per-node **port** model (ports
//!   `0..d` are original edges, ports `d..d⁺` are self-loops) used by all
//!   balancers;
//! * [`generators`] — the graph families the paper's evaluation sweeps
//!   (cycles, tori, hypercubes, random regular graphs, circulants, the
//!   clique-circulant of Theorem 4.2, …);
//! * [`traversal`] and [`properties`] — BFS distances, diameter, odd
//!   girth and bipartiteness, needed by the lower-bound constructions of
//!   Section 4;
//! * [`connectivity`] — incrementally maintained dynamic connectivity
//!   (an HDT-style spanning forest with leveled replacement search) and
//!   a ring walk for 2-regular graphs, so churn generators validate
//!   candidate swaps without a full BFS per candidate;
//! * [`relabel`] — locality-aware node relabelings (BFS and reverse
//!   Cuthill–McKee) with exact inverse mapping, so cache-conscious runs
//!   report results in original ids.
//!
//! # Example
//!
//! ```
//! use dlb_graph::{generators, BalancingGraph};
//!
//! // A 32-node cycle (2-regular), augmented with d° = 2 self-loops per
//! // node as the paper's Theorem 2.3 requires (d⁺ = 2d).
//! let g = generators::cycle(32)?;
//! let gp = BalancingGraph::with_self_loops(g, 2)?;
//! assert_eq!(gp.degree_plus(), 4);
//! assert_eq!(gp.num_self_loops(), 2);
//! # Ok::<(), dlb_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancing;
mod builder;
pub mod connectivity;
mod error;
pub mod generators;
pub mod mutate;
pub mod properties;
mod regular;
pub mod relabel;
pub mod traversal;

pub use balancing::{BalancingGraph, PortKind, PortOrder};
pub use builder::GraphBuilder;
pub use connectivity::DynamicConnectivity;
pub use error::GraphError;
pub use mutate::TopologyEvent;
pub use regular::{NodeId, RegularGraph};
pub use relabel::Relabeling;
