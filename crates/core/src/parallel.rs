//! Range-split vector rounds: the engine's multi-core path.
//!
//! A vector round ([`crate::kernel::vector`]) is two passes,
//! `b = ⌊(x + bias)/d⁺⌋` per node and then
//! `x' = x − d·b + Σ_p b[nbr(u, p)]` per node. Each pass writes only at
//! the node it visits, so both split by contiguous node range: worker
//! `i` owns `loads[lo_i..hi_i]` of both load buffers for the whole run
//! and writes `b` only in that range. The one thing that crosses ranges
//! is pass 2 reading all of `b`.
//!
//! Workers are spawned once per run. Each round is
//!
//! ```text
//! pass 1 (own range of b and next) → barrier
//!   → pass 2 (own range of next, reading all of b) → barrier
//! ```
//!
//! All workers share one `b` array through [`SharedB`], the only
//! `unsafe` code in the crate: a worker writes its own range of it in
//! pass 1 and reads all of it in pass 2, and the two barriers keep
//! those phases apart, so no write ever overlaps another worker's
//! read. A safe alternative — a private copy of `b` per worker, each
//! range handed over through a `Mutex`-guarded slot after pass 1 —
//! lost most of the gain on the banded cells, since every worker
//! copies the whole array every round (EXPERIMENTS.md S8); the
//! argument is recorded in `tools/tidy/allowlist.txt`. The range
//! maxima are exchanged only on the rare runs whose `i32` headroom
//! guard could trip.
//!
//! Nothing here can fail: the engine applies every precondition (no
//! churn, no workload, no asleep node, no negative load, a closed-form
//! scheme) before any worker starts, and the workers run only integer
//! arithmetic on non-negative loads. The loads, the round count and
//! the fallback decision are therefore identical to the serial loop for
//! any thread count and any schedule.
//!
//! Every primitive comes from [`crate::sync`], so the `dlb-model`
//! crate explores this exact code under the vendored model checker.

use std::marker::PhantomData;

use crate::kernel::vector::{rounds, Exchange, Kernel, Word};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Barrier};

/// Splits `0..n` into `t` contiguous, maximally even ranges: the first
/// `n % t` ranges have one node more.
fn shard_bounds(n: usize, t: usize) -> Vec<usize> {
    let (base, rem) = (n / t, n % t);
    let mut bounds = Vec::with_capacity(t + 1);
    bounds.push(0);
    for i in 0..t {
        bounds.push(bounds[i] + base + usize::from(i < rem));
    }
    bounds
}

/// Splits `buf` into the disjoint ranges `bounds` describes.
fn split<'a, W>(mut buf: &'a mut [W], bounds: &[usize]) -> Vec<&'a mut [W]> {
    let mut parts = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let (head, tail) = buf.split_at_mut(w[1] - w[0]);
        parts.push(head);
        buf = tail;
    }
    parts
}

/// Runs up to `steps` rounds of `k` over `front`/`back` (the
/// [`rounds`] contract) with each pass split across `threads` workers
/// (`2 <= threads <= n`). The calling thread is worker 0. Returns the
/// rounds completed, which every worker agrees on.
pub(crate) fn rounds_split<W: Word>(
    front: &mut [W],
    back: &mut [W],
    k: &Kernel<'_, W>,
    steps: usize,
    threads: usize,
) -> usize {
    let n = front.len();
    let bounds = shard_bounds(n, threads);
    let bounds = bounds.as_slice();
    let mut b = vec![W::default(); n];
    let b = SharedB::new(&mut b);
    let maxima: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(threads);
    let worker = |me: usize| Split {
        me,
        range: (bounds[me], bounds[me + 1]),
        b: &b,
        maxima: &maxima,
        barrier: &barrier,
    };
    let mut ranges = split(front, bounds).into_iter().zip(split(back, bounds));
    let (front0, back0) = ranges.next().expect("threads >= 2");
    thread::scope(|s| {
        let handles: Vec<_> = ranges
            .enumerate()
            .map(|(i, (f, bk))| {
                let me = i + 1;
                let mut ex = worker(me);
                s.spawn(move || rounds(f, bk, bounds[me], &mut ex, k, steps))
            })
            .collect();
        let done = rounds(front0, back0, 0, &mut worker(0), k, steps);
        for h in handles {
            let theirs = h.join().expect("range workers run only arithmetic");
            debug_assert_eq!(theirs, done, "workers agree on the rounds run");
        }
        done
    })
}

/// The send array `b`, shared by every worker of one run: each worker
/// writes only its own node range (pass 1), and every worker reads the
/// whole array (pass 2). Safe Rust cannot express "disjoint writers,
/// then shared readers, then disjoint writers again" over one buffer
/// without copying it, so this holds the exclusive borrow as a raw
/// pointer, and [`Split`] — whose barriers keep the phases apart — is
/// the only code that turns it back into slices.
struct SharedB<'a, W> {
    ptr: *mut W,
    len: usize,
    _borrow: PhantomData<&'a mut [W]>,
}

impl<'a, W> SharedB<'a, W> {
    fn new(b: &'a mut [W]) -> Self {
        SharedB {
            ptr: b.as_mut_ptr(),
            len: b.len(),
            _borrow: PhantomData,
        }
    }
}

// SAFETY: `SharedB` stands for a `&mut [W]` that the workers access
// only through `Split`, under the barrier discipline argued there;
// handing `W` values to other threads needs `W: Send`, and reading
// them from several threads at once needs `W: Sync`.
#[allow(unsafe_code)]
unsafe impl<W: Send + Sync> Sync for SharedB<'_, W> {}

/// One worker of a range-split run: its node range and the shared
/// round state.
struct Split<'a, W> {
    me: usize,
    range: (usize, usize),
    b: &'a SharedB<'a, W>,
    maxima: &'a [AtomicUsize],
    barrier: &'a Barrier,
}

#[allow(unsafe_code)]
impl<W: Word> Exchange<W> for Split<'_, W> {
    fn own(&mut self) -> &mut [W] {
        let (lo, hi) = self.range;
        debug_assert!(lo <= hi && hi <= self.b.len);
        // SAFETY: in bounds of the borrowed array. Exclusive: ranges
        // are disjoint and only this worker asks for its own; every
        // worker's `all` slice of the previous round died before that
        // worker reached the barrier after pass 2 (`round_max`), which
        // this worker has passed too; and this slice borrows `self`, so
        // it dies before this worker's own next `all` call.
        unsafe { std::slice::from_raw_parts_mut(self.b.ptr.add(lo), hi - lo) }
    }

    fn all(&mut self) -> &[W] {
        // Barrier after pass 1: every range of b is written. The model
        // build can drop it (a mutant the checker must catch).
        #[cfg(dlb_model)]
        let wait = !crate::sync::model_hooks::skip_pass1_barrier();
        #[cfg(not(dlb_model))]
        let wait = true;
        if wait {
            self.barrier.wait();
        }
        // SAFETY: the whole borrowed array, shared read-only: every
        // worker's `own` slice borrowed its `Split` and died before that
        // worker reached the barrier above, and none is created again
        // before the barrier in `round_max`, which no worker passes
        // until this slice (borrowing `self`) is dead.
        unsafe { std::slice::from_raw_parts(self.b.ptr, self.b.len) }
    }

    fn round_max(&mut self, local: W, guarded: bool) -> W {
        if guarded {
            let local: i64 = local.into();
            // Relaxed: the barrier below orders this store before every
            // worker's load of it, and the next round's store comes
            // after the next pass-1 barrier, which every reader passes
            // only after its loads.
            self.maxima[self.me].store(local as usize, Ordering::Relaxed);
        }
        // Barrier after pass 2: no worker writes the next round's b
        // while another still reads this round's.
        self.barrier.wait();
        if !guarded {
            return local;
        }
        // Relaxed: ordered after every worker's store by the barrier
        // above (see the store's comment).
        let max = self.maxima.iter().map(|m| m.load(Ordering::Relaxed)).max();
        W::narrow(max.unwrap_or(0) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_everything_evenly() {
        let b = shard_bounds(10, 3);
        assert_eq!(b, vec![0, 4, 7, 10]);
        let b = shard_bounds(8, 4);
        assert_eq!(b, vec![0, 2, 4, 6, 8]);
    }
}
