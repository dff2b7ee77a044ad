//! Host-speed calibration.
//!
//! On a shared host the same code can run up to 2x slower for tens of
//! seconds to minutes at a time, when neighbours contend for the cores.
//! A fixed loop timed right after every engine call or serve slice
//! measures how fast the host is running at that moment. The end-to-end
//! metrics are scaled by the host speed to what they would read on the
//! reference host, so they follow the code, not the neighbours; the raw
//! values are printed as notes beside them. On a 2-vCPU KVM guest, ten
//! seeds of `torus-churn` spread 0.28 raw and 0.038 scaled (IQR / median
//! of `node_rounds_per_s`).
//!
//! Contention slows core-bound and memory-bound code by different
//! amounts, so there are two loops, and each workload uses the one that
//! matches its own bottleneck. The loops are this file's own code,
//! built with the benchmark, so a change to the repository's crates
//! cannot move them.

use std::time::Instant;

use crate::stats::mean;

/// Which loop a workload calibrates with.
#[derive(Clone, Copy)]
pub enum Bound {
    /// A dependent add chain over 32 KiB, which stays in L1 and so does
    /// not evict the workload's own working set between calls.
    Core,
    /// A stencil sweep over 8 MiB, larger than L2, like a gather over
    /// the 2¹⁸-node expander.
    Memory,
}

/// Loop steps in one `Core` pass.
const CORE_STEPS: usize = 1 << 19;
const CORE_WORDS: usize = 1 << 12;
/// Words (u32) of the `Memory` buffer; one pass sweeps it once.
const MEMORY_WORDS: usize = 1 << 21;
const MEMORY_STRIDE: usize = 4099;

/// Time of one pass on the reference host: a round figure near the
/// pass times measured on a 2-vCPU KVM guest (Intel Xeon model 207,
/// rustc 1.95 release build). It only sets the unit: a host whose
/// passes take twice as long runs at speed 0.5.
const REFERENCE_CORE_S: f64 = 0.5e-3;
const REFERENCE_MEMORY_S: f64 = 2.5e-3;

/// The calibration passes of a run.
pub struct Calibration {
    bound: Bound,
    buffer: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new(bound: Bound) -> Calibration {
        let buffer = match bound {
            Bound::Core => Vec::new(),
            Bound::Memory => (0..MEMORY_WORDS as u32).collect(),
        };
        Calibration {
            bound,
            buffer,
            samples: Vec::new(),
        }
    }

    /// Times one pass of the calibration loop and returns the host speed
    /// it measured.
    pub fn pass(&mut self) -> f64 {
        let started;
        match self.bound {
            Bound::Core => {
                let mut v = [0u64; CORE_WORDS];
                for (k, x) in v.iter_mut().enumerate() {
                    *x = k as u64;
                }
                started = Instant::now();
                let mut acc = 0u64;
                for i in 0..CORE_STEPS {
                    let j = (i * 7 + (i >> 12)) % CORE_WORDS;
                    acc = acc.wrapping_add(v[j]);
                    v[i % CORE_WORDS] ^= acc & 1;
                }
                std::hint::black_box(acc);
            }
            Bound::Memory => {
                started = Instant::now();
                let v = &mut self.buffer;
                for i in 0..MEMORY_WORDS {
                    let j = (i + MEMORY_STRIDE) % MEMORY_WORDS;
                    v[i] = v[i].wrapping_add(v[j] >> 1);
                }
                std::hint::black_box(&v[0]);
            }
        }
        let secs = started.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.reference() / secs
    }

    /// Drops the passes timed so far.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Passes timed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The host's mean speed over the passes, relative to the reference
    /// host: the reference pass time over the mean pass time.
    pub fn speed(&self) -> f64 {
        self.reference() / mean(&self.samples)
    }

    fn reference(&self) -> f64 {
        match self.bound {
            Bound::Core => REFERENCE_CORE_S,
            Bound::Memory => REFERENCE_MEMORY_S,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_mean_pass() {
        let mut c = Calibration::new(Bound::Core);
        c.samples = vec![REFERENCE_CORE_S, 3.0 * REFERENCE_CORE_S];
        assert_eq!(c.speed(), 0.5);
    }

    #[test]
    fn passes_are_timed_and_cleared() {
        for bound in [Bound::Core, Bound::Memory] {
            let mut c = Calibration::new(bound);
            assert!(c.pass() > 0.0);
            c.pass();
            assert_eq!(c.len(), 2);
            assert!(c.speed() > 0.0);
            c.clear();
            assert_eq!(c.len(), 0);
        }
    }
}
