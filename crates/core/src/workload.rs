//! Dynamic workloads: per-round signed load injection.
//!
//! The paper's discrepancy bounds (Theorems 2.3/4.1–4.3) are proved for
//! a **closed** system — a fixed token population redistributed by the
//! scheme. A production balancer faces the *open* regime instead: load
//! arrives and departs while balancing runs (cf. load balancing in
//! dynamic networks, Gilbert–Meir–Paz, arXiv:2105.13194). This module
//! is the engine-side hook for that regime: a [`Workload`] produces a
//! signed per-node load delta every round, and
//! [`Engine::run`](crate::Engine::run) takes it as
//! [`Run::workload`](crate::Run::workload) and applies it under one
//! round structure shared by the reference and the kernel rounds:
//!
//! 1. **inject** — `x'_t = x_t + w_t`, where `w_t` is the workload's
//!    delta vector for round `t` computed from the pre-round loads; a
//!    delta that would take a load, the cumulative net injection or the
//!    positive load total `Σ max(x', 0)` outside `i64` fails the round
//!    with
//!    [`InjectionOverflow`](crate::EngineError::InjectionOverflow);
//! 2. **check** — non-overdrawing schemes reject any negative
//!    post-injection load ([`NegativeLoad`](crate::EngineError::NegativeLoad));
//! 3. **balance** — the scheme balances `x'_t` exactly as in the closed
//!    system.
//!
//! A round that errors (at the check or at validation) **keeps no part
//! of its injection**: the engine undoes the already-applied deltas, so
//! on error the loads are those after the last fully completed round on
//! every path — the same guarantee the closed-system paths give — while
//! the reported error still carries the post-injection load that
//! triggered it. All paths call [`Workload::inject`] — the trait's one
//! injection entry point — exactly once per attempted round with
//! identical `(round, loads)` inputs, so stateful (e.g. seeded-RNG)
//! workloads stay bit-identical across paths. The engine keeps no load
//! index on a workload's behalf: one that targets a whole-vector
//! statistic (the bounded adversary's argmax) scans `loads` itself,
//! which costs the same order as the round's own `O(n)` flow pass.
//!
//! Concrete generators (steady arrivals, bursts, hotspots, drains, a
//! bounded adversary) live in the `dlb-scenario` crate; this module
//! only defines the engine-facing trait so `dlb-core` does not depend
//! on the scenario layer.

/// A dynamic workload: a source of per-round signed load deltas.
///
/// `Send` is a supertrait because a `dlb-serve` tenant, workload
/// included, is advanced by whichever scheduler worker claims it.
///
/// Implementations must be deterministic functions of their own state
/// and the `(round, loads)` arguments — the engine relies on that to
/// keep its execution paths bit-identical — and should not panic.
pub trait Workload: Send {
    /// A short label for reports and JSON rows.
    fn label(&self) -> String;

    /// Adds round `round`'s signed injection into `deltas`
    /// (`deltas.len() == loads.len()`), given the pre-round loads.
    /// `round` is 1-based and matches the engine's step numbering: the
    /// injection applied before step `t` is `inject(t, x_t, …)`.
    ///
    /// Add, never assign: the engine zeroes the buffer once per round,
    /// but a composing workload hands each child the buffer its earlier
    /// children already added into, so one buffer collects the whole
    /// round.
    ///
    /// Negative deltas remove tokens. A workload that can over-remove
    /// (drive a load negative) is allowed — under a non-overdrawing
    /// scheme the engine reports the same
    /// [`NegativeLoad`](crate::EngineError::NegativeLoad) it would for a
    /// negative seed; clamp against `loads` to stay error-free.
    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]);

    /// Restores the post-construction state (RNG position, phase
    /// counters), so one instance can replay the identical delta
    /// stream — the scenario harness uses this to drive every execution
    /// path with the same workload.
    fn reset(&mut self) {}

    /// Whether this workload provably never injects anything — true
    /// only for [`NoWorkload`] and equivalents. The engine folds a
    /// `Some(noop)` argument to the genuinely closed system, so fast
    /// paths that require "no workload" (the vectorized kernel rounds
    /// in particular) stay eligible when a caller spells the closed
    /// system as `Some(&mut NoWorkload)` instead of `None`.
    fn is_noop(&self) -> bool {
        false
    }

    /// Appends the generator's resumable cursor to `out`: every word of
    /// mutable state a checkpoint must carry so that an **identically
    /// configured** fresh instance, after
    /// [`restore_cursor`](Workload::restore_cursor), continues this
    /// instance's delta stream exactly (RNG position, phase counters,
    /// scan tallies). Stateless workloads append nothing. Configuration
    /// (rates, seeds, sink sets) is *not* part of the cursor — it
    /// travels as the workload's spec. A caller that checkpoints
    /// repeatedly can reuse one buffer.
    fn cursor_into(&self, _out: &mut Vec<u64>) {}

    /// The cursor [`cursor_into`](Workload::cursor_into) appends, in a
    /// fresh vector.
    fn cursor(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.cursor_into(&mut out);
        out
    }

    /// Restores a cursor captured by [`cursor`](Workload::cursor) onto
    /// an identically configured instance. Returns `false` — leaving
    /// the receiver unchanged where possible — when the cursor's shape
    /// does not match this workload.
    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        cursor.is_empty()
    }
}

/// The empty workload: never injects anything. Its
/// [`is_noop`](Workload::is_noop) answers `true`, so a run under it
/// stays closed and eligible for the vector rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoWorkload;

impl NoWorkload {
    /// A typed absent workload, for the generic kernel forwards
    /// perfbench still calls
    /// (`run_kernel_dyn(&mut bal, steps, schedule, NoWorkload::none())`),
    /// whose workload argument is an `Option` of a concrete type.
    #[must_use]
    pub fn none() -> Option<&'static mut NoWorkload> {
        None
    }
}

impl Workload for NoWorkload {
    fn label(&self) -> String {
        "none".into()
    }

    fn inject(&mut self, _round: usize, _loads: &[i64], _deltas: &mut [i64]) {}

    fn is_noop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_workload_injects_nothing() {
        let mut w = NoWorkload;
        let loads = [5i64, 0, 3];
        let mut deltas = [0i64; 3];
        w.inject(1, &loads, &mut deltas);
        assert_eq!(deltas, [0, 0, 0]);
        assert_eq!(w.label(), "none");
        assert!(NoWorkload::none().is_none());
    }
}
