//! The batch scheduler: one process, many tenants, a worker pool.
//!
//! Tenants are independent — each owns its engine, scheme and
//! generators — so the scheduler's only concurrency problem is work
//! distribution. A slice runs every ready tenant `rounds` rounds:
//! workers pull tenant indices from a shared atomic ticket counter and
//! lock the tenant's mutex for the duration of its batch. There is no
//! inter-tenant ordering, and the final state of every tenant is
//! **schedule-independent**: any worker interleaving produces the same
//! per-tenant outcome as a serial sweep, which is exactly what the
//! `dlb-model` scheduler scenarios explore exhaustively under loom.
//!
//! All synchronisation goes through [`dlb_core::sync`] (the PR 7
//! gate), so the same code is model-checkable under
//! `--cfg dlb_model`.
//!
//! # Observability
//!
//! The scheduler has one drain loop, monomorphised over a [`Sink`]; the
//! plain [`Server::run_slice`] runs it with a [`NoopSink`], which folds
//! every probe away. On top of it:
//!
//! * [`Server::trace_slice`] runs a serial slice against any
//!   [`Sink`], emitting one `slice` span plus per-ticket
//!   `ticket`/`lock`/`step`/`merge` spans (with a [`NoopSink`] it is
//!   exactly `run_slice(1, ..)`);
//! * [`Server::run_slice_profiled`] runs a full (possibly threaded)
//!   slice with one [`RingSink`] per worker and sums the workers'
//!   per-phase wall-clock ns into a [`SliceProfile`];
//! * every profiled slice also feeds the server's
//!   [`MetricRegistry`] (named counters, among them
//!   `serve_journal_checkpoints`, plus the `serve_slice_latency_ns`
//!   histogram), rendered on demand by
//!   [`Server::render_prometheus`].

use std::time::Instant;

use dlb_core::sync::atomic::{AtomicUsize, Ordering};
use dlb_core::sync::{thread, Mutex};
use dlb_obs::{MetricRegistry, NoopSink, Phase, RingSink, Sink};

use crate::tenant::Tenant;

/// A multi-tenant server: the tenant table plus slice scheduling.
pub struct Server {
    tenants: Vec<Mutex<Tenant>>,
    /// Cumulative serving metrics, fed by the profiled entry points.
    metrics: Mutex<MetricRegistry>,
}

/// What one scheduler slice did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceReport {
    /// Tenants that ran a full batch cleanly this slice.
    pub served: usize,
    /// Tenants skipped or stopped because of a terminal error.
    pub errored: usize,
    /// Engine rounds advanced across all tenants this slice.
    pub rounds_advanced: u64,
    /// Journal checkpoints taken across all tenants this slice (see
    /// [`Tenant::checkpoints`](crate::Tenant::checkpoints)).
    pub checkpoints: u64,
    /// Per-tenant service latency (lock + batch) in nanoseconds, one
    /// entry per tenant visited, in no particular order.
    pub latencies_ns: Vec<u64>,
}

/// Wall-clock decomposition of one scheduler slice, summed over every
/// ticket a worker claimed: how long the slice spent acquiring
/// tickets, waiting on tenant locks, stepping tenant engines, and
/// merging bookkeeping. Produced by [`Server::run_slice_profiled`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceProfile {
    /// Ns spent claiming tickets from the shared counter.
    pub ticket_ns: u64,
    /// Ns spent acquiring tenant mutexes.
    pub lock_ns: u64,
    /// Ns spent inside `Tenant::run_rounds` batches.
    pub step_ns: u64,
    /// Ns spent folding results back into the slice report.
    pub merge_ns: u64,
    /// Tickets that resolved to a tenant (visited, served or errored).
    pub tickets: u64,
}

impl Server {
    /// Builds a server over the given tenant table.
    pub fn new(tenants: Vec<Tenant>) -> Server {
        Server {
            tenants: tenants.into_iter().map(Mutex::new).collect(),
            metrics: Mutex::new(MetricRegistry::new()),
        }
    }

    /// Number of hosted tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the server hosts no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Runs `f` with tenant `i` locked.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_tenant<R>(&self, i: usize, f: impl FnOnce(&mut Tenant) -> R) -> R {
        let mut guard = self.tenants[i].lock().expect("tenant mutex not poisoned");
        f(&mut guard)
    }

    /// Tears the server down, returning the tenants.
    pub fn into_tenants(self) -> Vec<Tenant> {
        self.tenants
            .into_iter()
            .map(|m| m.into_inner().expect("tenant mutex not poisoned"))
            .collect()
    }

    /// Runs one slice: every ready tenant advances `rounds` rounds,
    /// distributed over `threads` workers.
    ///
    /// `threads <= 1` runs inline on the calling thread (no spawns),
    /// which is the serial oracle the model scenarios compare against.
    pub fn run_slice(&self, threads: usize, rounds: usize) -> SliceReport {
        if threads <= 1 {
            return self.drain_traced(&AtomicUsize::new(0), rounds, &mut NoopSink);
        }
        self.run_pooled(threads, rounds, || NoopSink).0
    }

    /// Runs one slice on `threads` workers — spawned, or the calling
    /// thread alone when `threads <= 1` — each draining tickets into
    /// its own sink from `new_sink`; returns the merged report and the
    /// workers' sinks.
    fn run_pooled<Si: Sink + Send>(
        &self,
        threads: usize,
        rounds: usize,
        new_sink: impl Fn() -> Si + Sync,
    ) -> (SliceReport, Vec<Si>) {
        // The ticket counter is the entire scheduling protocol: each
        // worker claims the next unvisited tenant until the table is
        // exhausted.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut sink = new_sink();
            (self.drain_traced(&next, rounds, &mut sink), sink)
        };
        let workers: Vec<(SliceReport, Si)> = if threads <= 1 {
            vec![drain()]
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(drain)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scheduler worker must not panic"))
                    .collect()
            })
        };
        let mut merged = SliceReport::default();
        let mut sinks = Vec::with_capacity(threads);
        for (report, sink) in workers {
            merged.served += report.served;
            merged.errored += report.errored;
            merged.rounds_advanced += report.rounds_advanced;
            merged.checkpoints += report.checkpoints;
            merged.latencies_ns.extend(report.latencies_ns);
            sinks.push(sink);
        }
        (merged, sinks)
    }

    /// Runs one **serial** slice against a tracing sink, emitting one
    /// `slice` span plus per-ticket `ticket`/`lock`/`step`/`merge`
    /// spans (the span's `step` field carries the tenant index; the
    /// `step` span's `value` carries the rounds advanced).
    ///
    /// With a [`NoopSink`] every probe compiles away and this is
    /// exactly `run_slice(1, rounds)`; a [`dlb_obs::RingSink`] records
    /// the per-ticket timeline without changing any tenant outcome.
    pub fn trace_slice<Si: Sink>(&self, rounds: usize, sink: &mut Si) -> SliceReport {
        let probe = sink.start();
        let report = self.drain_traced(&AtomicUsize::new(0), rounds, sink);
        sink.span(Phase::Slice, 0, probe);
        report
    }

    /// One worker's share of a slice: claim tickets until exhausted.
    /// The drain loop is monomorphized over the sink: the untraced
    /// slices run it with a [`NoopSink`], so traced and untraced
    /// slices can never drift apart.
    fn drain_traced<Si: Sink>(
        &self,
        next: &AtomicUsize,
        rounds: usize,
        sink: &mut Si,
    ) -> SliceReport {
        let mut report = SliceReport::default();
        loop {
            let ticket_probe = sink.start();
            // Relaxed: the ticket only partitions indices between
            // workers; all tenant data is guarded by its own mutex.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.tenants.get(i) else {
                break;
            };
            sink.span(Phase::Ticket, i as u64, ticket_probe);
            let started = Instant::now();
            let lock_probe = sink.start();
            let mut tenant = slot.lock().expect("tenant mutex not poisoned");
            sink.span(Phase::Lock, i as u64, lock_probe);
            if tenant.error().is_some() {
                report.errored += 1;
                continue;
            }
            let step_probe = sink.start();
            let before = (tenant.rounds_done(), tenant.checkpoints());
            let clean = tenant.run_rounds(rounds);
            let advanced = (tenant.rounds_done() - before.0) as u64;
            if Si::ENABLED {
                let now = sink.now_ns();
                sink.record(dlb_obs::Event {
                    kind: dlb_obs::EventKind::Span,
                    phase: Phase::TenantStep,
                    step: i as u64,
                    at_ns: step_probe,
                    dur_ns: now.saturating_sub(step_probe),
                    value: advanced,
                });
            }
            let merge_probe = sink.start();
            report.rounds_advanced += advanced;
            report.checkpoints += tenant.checkpoints() - before.1;
            if clean {
                report.served += 1;
            } else {
                report.errored += 1;
            }
            drop(tenant);
            report
                .latencies_ns
                .push(started.elapsed().as_nanos() as u64);
            sink.span(Phase::SliceMerge, i as u64, merge_probe);
        }
        report
    }

    /// Runs one slice like [`Server::run_slice`] while decomposing its
    /// wall-clock into ticket-acquire / lock / tenant-step / merge
    /// phases, and folds the result into the server's metric registry
    /// (`serve_*` counters plus the `serve_slice_latency_ns` and
    /// per-phase histograms).
    ///
    /// The slice runs on the same workers as `run_slice`, each with a
    /// one-event [`RingSink`] whose per-phase totals are exact whatever
    /// its capacity. Sinks only observe, so every tenant outcome is
    /// bit-identical to the unprofiled path.
    pub fn run_slice_profiled(&self, threads: usize, rounds: usize) -> (SliceReport, SliceProfile) {
        let (report, sinks) = self.run_pooled(threads, rounds, || RingSink::with_capacity(1));
        let total = |f: &dyn Fn(&RingSink) -> u64| sinks.iter().map(f).sum();
        let profile = SliceProfile {
            ticket_ns: total(&|s| s.phase_ns(Phase::Ticket)),
            lock_ns: total(&|s| s.phase_ns(Phase::Lock)),
            step_ns: total(&|s| s.phase_ns(Phase::TenantStep)),
            merge_ns: total(&|s| s.phase_ns(Phase::SliceMerge)),
            tickets: total(&|s| s.phase_count(Phase::Ticket)),
        };
        let mut reg = self.metrics.lock().expect("metric registry not poisoned");
        reg.counter_add("serve_slices_total", 1);
        reg.counter_add("serve_tickets_total", profile.tickets);
        reg.counter_add("serve_served_total", report.served as u64);
        reg.counter_add("serve_errored_total", report.errored as u64);
        reg.counter_add("serve_rounds_advanced_total", report.rounds_advanced);
        reg.counter_add("serve_journal_checkpoints", report.checkpoints);
        for &l in &report.latencies_ns {
            reg.observe("serve_slice_latency_ns", l);
        }
        reg.observe("serve_phase_ticket_ns", profile.ticket_ns);
        reg.observe("serve_phase_lock_ns", profile.lock_ns);
        reg.observe("serve_phase_step_ns", profile.step_ns);
        reg.observe("serve_phase_merge_ns", profile.merge_ns);
        drop(reg);
        (report, profile)
    }

    /// Runs `f` against the server's cumulative metric registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricRegistry) -> R) -> R {
        let reg = self.metrics.lock().expect("metric registry not poisoned");
        f(&reg)
    }

    /// Renders the server's cumulative metrics in Prometheus text
    /// exposition format.
    pub fn render_prometheus(&self) -> String {
        self.with_metrics(|reg| reg.render_prometheus())
    }
}
