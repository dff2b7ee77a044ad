//! Experiment harness regenerating the evaluation of Berenbrink et al.
//! (PODC 2015).
//!
//! The paper is a theory paper: its "evaluation" is Table 1 (a
//! comparison of discrepancy/time bounds across algorithm classes) and
//! Theorems 2.3, 3.3 and 4.1–4.3. This crate turns each of those
//! artefacts into a measurable experiment:
//!
//! | Id | Paper artefact | Driver |
//! |----|----------------|--------|
//! | E1 | Table 1 — discrepancy after `O(T)` per scheme per graph | [`experiments::table1`] |
//! | E2 | Thm 2.3 (i) — `O(d√(log n/µ))` on expanders | [`experiments::thm23_expander`] |
//! | E3 | Thm 2.3 (ii) — `O(d√n)` on cycles | [`experiments::thm23_cycle`] |
//! | E4 | Thm 3.3 — time to `O(d)` vs `s` | [`experiments::thm33_time_to_d`] |
//! | E5 | Thm 4.1 — `Ω(d·diam)` steady states | [`experiments::thm41_lower`] |
//! | E6 | Thm 4.2 — the stateless `Ω(d)` trap | [`experiments::thm42_stateless`] |
//! | E7 | Thm 4.3 — rotor-router `Ω(d·φ)` orbits | [`experiments::thm43_rotor_cycle`] |
//! | E8 | §1.2 — diffusive `Θ(d)` vs dimension-exchange `O(1)` | [`experiments::dimension_exchange`] |
//! | E9 | proof mechanism — `‖x_t − P^t·x₁‖∞` traces | [`experiments::deviation_trace`] |
//! | A1 | ablation — self-loop count sweep | [`experiments::ablation_self_loops`] |
//! | A2 | ablation — cumulative-δ sensitivity | [`experiments::ablation_delta`] |
//! | A3 | ablation — rotor-router port-order sensitivity | [`experiments::ablation_port_order`] |
//! | S1 | open system — discrepancy and recovery under dynamic workloads | [`experiments::scenarios`] |
//! | S2 | churn — discrepancy and recovery under topology schedules | [`experiments::churn`] |
//!
//! S1 and S2 also replay every composition through the engine's
//! execution paths and report whether they agree bit for bit.
//! Experiments are deterministic (seeds are explicit), print aligned
//! text tables via [`report`], and optionally emit CSV; none of them
//! times the engine (the repository benchmark under `perfbench/`
//! does). The `dlb-experiments` binary drives them all:
//!
//! ```text
//! dlb-experiments all          # everything, full sizes
//! dlb-experiments e3 --quick   # one experiment, reduced sizes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deviation;
pub mod experiments;
pub mod init;
pub mod report;
mod runner;
mod suite;

pub use deviation::{DeviationProbe, DeviationSample, DeviationTrace};
pub use runner::{RunError, RunOutcome, Runner};
pub use suite::{GraphSpec, SchemeSpec};
