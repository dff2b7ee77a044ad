//! Deterministic load-balancing schemes on regular graphs.
//!
//! This crate is the primary contribution of the reproduction of
//! Berenbrink, Klasing, Kosowski, Mallmann-Trenn, Uznański, *Improved
//! Analysis of Deterministic Load-Balancing Schemes* (PODC 2015). It
//! implements the paper's algorithm classes, the simulation engine that
//! runs them, and — crucially — *machine-checkable* versions of the
//! paper's definitions, so that every claimed class membership
//! (Observations 2.2 and 3.2) is verified at runtime rather than assumed.
//!
//! # The model
//!
//! `m` indivisible tokens are distributed over the `n` nodes of a
//! d-regular graph; each node also has `d°` self-loops (the *balancing
//! graph* `G⁺`, see [`dlb_graph::BalancingGraph`]). In every synchronous
//! step each node partitions its load over its `d⁺ = d + d°` ports; the
//! engine routes the tokens and the discrepancy
//! `max_u x(u) − min_u x(u)` is tracked over time.
//!
//! # Algorithm classes
//!
//! * **Cumulatively δ-fair balancers** (Definition 2.1): over *every*
//!   prefix of time, any two original edges of a node have carried
//!   totals within δ of each other, and every edge receives at least
//!   `⌊x/d⁺⌋` tokens per step. Implementations:
//!   [`SendFloor`](schemes::SendFloor) (δ = 0),
//!   [`SendRound`](schemes::SendRound) (δ = 0) and
//!   [`RotorRouter`](schemes::RotorRouter) (δ = 1).
//! * **Good s-balancers** (Definition 3.1): round-fair, cumulatively
//!   1-fair and *s-self-preferring*. Implementations:
//!   [`GoodBalancer`](schemes::GoodBalancer) (any s by construction),
//!   [`SendRound`](schemes::SendRound) for `d⁺ > 2d`, and
//!   [`RotorRouterStar`](schemes::RotorRouterStar) (s = 1).
//! * **Baselines**: the \[17\]-class round-fair diffusion with pluggable
//!   rounding ([`RoundFairDiffusion`](schemes::RoundFairDiffusion)), the
//!   bounded-error quasirandom scheme of \[9\]
//!   ([`QuasirandomDiffusion`](schemes::QuasirandomDiffusion)), the
//!   continuous-mimicking scheme of \[4\]
//!   ([`ContinuousMimic`](schemes::ContinuousMimic)), and the randomized
//!   schemes of \[5\] and \[18\]
//!   ([`RandomizedExtraTokens`](schemes::RandomizedExtraTokens),
//!   [`RandomizedEdgeRounding`](schemes::RandomizedEdgeRounding)).
//!
//! # Quickstart
//!
//! ```
//! use dlb_graph::{generators, BalancingGraph, PortOrder};
//! use dlb_core::{Engine, LoadVector, Run};
//! use dlb_core::schemes::RotorRouter;
//!
//! let gp = BalancingGraph::lazy(generators::cycle(16)?);
//! let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
//! let mut engine = Engine::new(gp, LoadVector::point_mass(16, 1_600));
//! engine.run(&mut rotor, Run::new(500))?;
//! assert!(engine.loads().discrepancy() <= 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// One audited exception: the shared send array of the range-split
// vector rounds (`parallel::SharedB`), argued in tools/tidy/allowlist.txt.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
mod engine;
mod error;
pub mod fairness;
pub mod kernel;
mod load;
mod parallel;
pub mod potential;
mod round;
pub mod schemes;
pub mod sync;
pub mod workload;

pub use balancer::Balancer;
pub use engine::{Engine, EngineState, Path, Run, StepSummary};
pub use error::EngineError;
pub use fairness::CumulativeLedger;
pub use kernel::vector::{
    UniformKernel, UniformSpec, VectorConfig, VectorStats, VectorStrategy, VectorWidth,
    I32_HEADROOM_LIMIT,
};
pub use kernel::{KernelBalancer, KernelRounds};
pub use load::LoadVector;
pub use workload::{NoWorkload, Workload};
// The dynamic-topology vocabulary of `Run`, re-exported so engine
// callers need not name the topology crates.
pub use dlb_graph::TopologyEvent;
pub use dlb_topology::{StaticTopology, TopologySchedule};
