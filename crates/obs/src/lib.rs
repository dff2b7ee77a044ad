//! # dlb-obs — zero-cost tracing and metrics for the balancing stack
//!
//! Every execution path in the workspace — the engine's reference
//! round, the streaming kernel, the vectorized uniform rounds (serial or range-split) and the multi-tenant server —
//! shares one phase vocabulary ([`Phase`]) and one probe mechanism
//! ([`Sink`]). The design follows the `dlb_core::sync` facade
//! precedent from the concurrency gate: the probe surface is a trait
//! with an associated `ENABLED` const, monomorphized into every
//! caller, so that
//!
//! * [`NoopSink`] (`ENABLED = false`) compiles **every** probe to
//!   nothing — the traced entry points with a noop sink produce the
//!   same machine code as the untraced ones; and
//! * [`RingSink`] (`ENABLED = true`) records fixed-size [`Event`]s
//!   into a preallocated ring buffer — no allocation on the hot path,
//!   and **no influence on the computation**: sinks observe loads and
//!   decisions, they never feed back, so traced runs stay bit-identical
//!   to untraced ones (the differential tests pin this).
//!
//! On top of the event stream sits a [`MetricRegistry`] — named
//! monotonic counters, gauges and log-bucketed [`Histogram`]s (HDR
//! style: ≤ 12.5% relative error) that absorb the ad-hoc stats structs
//! scattered across the crates (`VectorStats`, engine scan counters,
//! serve totals), with a Prometheus-style text exposition
//! ([`MetricRegistry::render_prometheus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod sink;

pub use registry::{Histogram, MetricRegistry};
pub use sink::{Event, EventKind, NoopSink, Phase, RingSink, Sink, PHASE_COUNT};
