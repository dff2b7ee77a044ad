//! Dynamic-workload scenarios: the open-system regime the paper's
//! closed-system bounds do not cover.
//!
//! Theorems 2.3/4.1–4.3 bound the discrepancy of a **fixed** token
//! population; a production balancer instead serves live traffic —
//! load arrives and departs while balancing runs, the regime studied
//! for dynamic networks by Gilbert, Meir & Paz (arXiv:2105.13194),
//! where the object of interest becomes the *steady-state* discrepancy
//! under bounded adversarial injection. This crate expresses that
//! regime on top of the engine's injection hooks
//! ([`dlb_core::workload`]):
//!
//! * [`workloads`] — concrete deterministic [`Workload`] generators:
//!   steady Poisson-like arrivals ([`workloads::SteadyArrivals`]),
//!   bursty on/off phases ([`workloads::BurstyOnOff`]), a single-node
//!   flood ([`workloads::Hotspot`]), sink-node drains
//!   ([`workloads::Drain`]), a bounded adversary that floods the
//!   currently most-loaded node ([`workloads::BoundedAdversary`]), and
//!   a summing combinator ([`workloads::Compose`]); plus the
//!   [`WorkloadSpec`] naming layer experiments and tests build from.
//! * [`scenario`] — the [`Scenario`] runner composing
//!   workload × scheme × graph, recording steady-state discrepancy
//!   over the injection tail, peak load, and the time to recover the
//!   closed-system discrepancy after injection stops.
//!
//! Every generator is deterministic (explicit seeds, the vendored
//! deterministic RNG) and replayable via [`Workload::reset`], which is
//! what lets the scenario harness drive *every* engine execution path
//! (the planned round and the kernel rounds) with bit-identical
//! injection streams and assert bit-identical loads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub mod workloads;

pub use dlb_core::{NoWorkload, Workload};
pub use dlb_topology::{ScheduleSpec, TopologySchedule};
pub use scenario::{
    InjectionStats, Scenario, ScenarioCheckpoint, ScenarioRecorder, ScenarioReport,
};
pub use workloads::WorkloadSpec;
