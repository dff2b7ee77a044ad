//! Multi-tenant engine serving: one process hosting many concurrent
//! balancing-engine tenants, each with its own graph, scheme, workload
//! and churn schedule.
//!
//! The paper's engine (and the whole differential battery around it)
//! runs one simulation per process; a service runs thousands. This
//! crate adds the serving layer on top of `dlb-core` without touching
//! the engine's semantics:
//!
//! * [`wire`] — the little-endian binary encoding both formats share;
//! * [`snapshot`] — the versioned tenant snapshot
//!   ([`TenantSnapshot`], magic `DLBSNAP1`): full engine state
//!   ([`dlb_core::EngineState`]), scheme rotor state, generator specs
//!   and cursors. [`Tenant::resume_from_snapshot`] is proven
//!   bit-identical to an uninterrupted run by the serve tests and the
//!   differential battery;
//! * [`journal`] — the event-sourced journal ([`Journal`], magic
//!   `DLBJRNL1`): base snapshot plus raw per-round generator output
//!   (topology events pre-validation, net injection deltas, errors)
//!   over a sliding window of [`WINDOW`]..`2·WINDOW` rounds, replayable
//!   via [`Tenant::replay`];
//! * [`tenant`] — the hosted instance tying engine, scheme, generators
//!   and journal together;
//! * [`server`] — the batch scheduler multiplexing ready tenants over
//!   a worker pool through [`dlb_core::sync`] (so the scheduler is
//!   model-checkable under `--cfg dlb_model`, see `dlb-model`).
//!
//! The `serve` experiment in `dlb-harness` benchmarks this layer
//! (tenants/sec, aggregate rounds/sec, p99 per-tenant slice latency)
//! and writes `BENCH_PR9.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod server;
pub mod snapshot;
pub mod tenant;
pub mod wire;

pub use journal::{Journal, JournalContents, RoundRecord, WINDOW};
pub use server::{Server, SliceProfile, SliceReport};
pub use snapshot::{SchemeKind, TenantSnapshot};
pub use tenant::{Tenant, TenantError, TenantOutcome, MAX_ROUND_ITEMS};
pub use wire::WireError;
