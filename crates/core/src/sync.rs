//! The engine's single doorway to synchronisation primitives.
//!
//! Everything concurrent in `dlb-core` — the range-split runner's
//! barriers, `b` hand-off locks, range maxima and scoped workers — imports
//! from this module instead of `std::sync` / `std::thread` directly
//! (`tools/dlb-tidy` enforces this). Under a normal build the module
//! is nothing but `pub use std::…` re-exports, so it costs exactly
//! zero: same types, same codegen, no wrapper in sight.
//!
//! Compiled with `RUSTFLAGS="--cfg dlb_model"` the same names resolve
//! to the vendored `loom` shim instead, whose primitives report every
//! operation to a cooperative scheduler. The `dlb-model` crate then
//! drives the *real* engine code through every interleaving of a small
//! configuration — no test double of the protocol, the protocol
//! itself. The cfg is a `RUSTFLAGS` switch rather than a cargo feature
//! on purpose: feature unification would otherwise swap the primitives
//! under every crate in the workspace the moment one test enabled it.
//!
//! The shim degrades to plain std behaviour when its primitives are
//! created outside a model execution, so a `--cfg dlb_model` build of
//! the whole engine still runs normally; only code called from inside
//! `loom::model(|| …)` is scheduled.

#[cfg(not(dlb_model))]
pub use std::sync::{Barrier, Mutex, MutexGuard};

#[cfg(dlb_model)]
pub use loom::sync::{Barrier, Mutex, MutexGuard};

/// Atomics: `std::sync::atomic` or the model-checked shim.
pub mod atomic {
    #[cfg(not(dlb_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[cfg(dlb_model)]
    pub use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}

/// Scoped threads: `std::thread::scope` or the model-checked shim.
pub mod thread {
    #[cfg(not(dlb_model))]
    pub use std::thread::{scope, Scope, ScopedJoinHandle};

    #[cfg(dlb_model)]
    pub use loom::thread::{scope, Scope, ScopedJoinHandle};
}

/// Compile-time switches that reintroduce historical engine bugs for
/// the model checker to rediscover. Only present under `--cfg
/// dlb_model`; release builds cannot even name them.
#[cfg(dlb_model)]
pub mod model_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, every range-split worker skips the barrier after
    /// pass 1 (`crate::parallel`) and copies the other workers' ranges
    /// of `b` without waiting for them to be written. On a schedule
    /// where a worker gets there first it reads the previous round's
    /// `b` (zeros in round 1), so pass 2 adds stale sends and the loads
    /// diverge from the serial oracle.
    ///
    /// A plain std atomic on purpose: it is test *configuration*, not
    /// modelled state, and must not add schedule choice points.
    pub static SKIP_PASS1_BARRIER: AtomicBool = AtomicBool::new(false);

    /// Reads the mutant switch (Relaxed: configuration set before the
    /// exploration starts, constant throughout).
    #[must_use]
    pub fn skip_pass1_barrier() -> bool {
        SKIP_PASS1_BARRIER.load(Ordering::Relaxed)
    }
}
