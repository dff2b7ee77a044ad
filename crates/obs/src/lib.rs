//! # dlb-obs — zero-cost tracing and metrics for the balancing stack
//!
//! Every execution path in the workspace — the planned serial
//! round, the plan-free streaming kernel, the vectorized uniform
//! rounds (serial or range-split) and the multi-tenant server —
//! shares one phase vocabulary ([`Phase`]) and one probe mechanism
//! ([`Sink`]). The design follows the `dlb_core::sync` facade
//! precedent from the concurrency gate: the probe surface is a trait
//! with an associated `ENABLED` const, monomorphized into every
//! caller, so that
//!
//! * [`NoopSink`] (`ENABLED = false`) compiles **every** probe to
//!   nothing — the traced entry points with a noop sink produce the
//!   same machine code as the untraced ones, which is what the ≤ 5%
//!   overhead gate in the harness measures; and
//! * [`RingSink`] (`ENABLED = true`) records fixed-size [`Event`]s
//!   into a preallocated ring buffer — no allocation on the hot path,
//!   and **no influence on the computation**: sinks observe loads and
//!   decisions, they never feed back, so traced runs stay bit-identical
//!   to untraced ones (the differential tests pin this).
//!
//! On top of the event stream sits a [`MetricRegistry`] — named
//! monotonic counters, gauges and log-bucketed [`Histogram`]s (HDR
//! style: ≤ 12.5% relative error) that absorb the ad-hoc stats structs
//! scattered across the crates (`VectorStats`, kernel rescan counts,
//! engine scan counters, serve totals). Exporters turn either side
//! into standard formats: JSONL event dumps and chrome://tracing JSON
//! for the event stream ([`events_jsonl`], [`chrome_trace`]),
//! Prometheus-style text exposition for the registry
//! ([`MetricRegistry::render_prometheus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod sink;

pub use export::{chrome_trace, events_jsonl};
pub use registry::{Histogram, MetricRegistry};
pub use sink::{Event, EventKind, NoopSink, Phase, RingSink, Sink, PHASE_COUNT};
