//! The experiment drivers, one per table/figure of the reproduction
//! (see the crate docs for the experiment ↔ paper-artefact map).
//!
//! Every driver takes a `quick` flag: `false` runs the full sizes
//! recorded in EXPERIMENTS.md; `true` runs a reduced suite suitable for
//! CI. All drivers are deterministic.

mod ablations;
mod churn;
mod deviation_trace;
mod dimension_exchange;
mod lower;
mod scenarios;
mod table1;
mod thm23;
mod thm33;

pub use ablations::{ablation_delta, ablation_port_order, ablation_self_loops};
pub use churn::churn;
pub use deviation_trace::deviation_trace;
pub use dimension_exchange::dimension_exchange;
pub use lower::{thm41_lower, thm42_stateless, thm43_rotor_cycle};
pub use scenarios::scenarios;
pub use table1::table1;
pub use thm23::{thm23_cycle, thm23_expander};
pub use thm33::thm33_time_to_d;
