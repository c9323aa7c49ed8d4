//! Host-speed calibration.
//!
//! On a shared host, neighbours slow every workload by up to 1.8× for
//! minutes at a time. A fixed floating-point kernel slows with them: on
//! the 2-core host this benchmark was tuned on, the circuit tier's
//! time ÷ the kernel's time stayed within 4 % across a 1.6× slowdown,
//! and the cache-bound switch-level path within 20 %, where raw times
//! moved 70–80 %. The kernel runs after every set-up and timed block, and
//! a run's timing metrics are scaled by [`Calibration::factor`].

use std::time::Instant;

use crate::stats::SplitMix;

/// The kernel time the scaling is relative to: about its fastest time
/// on the 2-core host the benchmark was tuned on, nanoseconds.
pub const REFERENCE_NS: f64 = 1.0e6;

/// Matrix order and factorizations per kernel run.
const N: usize = 24;
const FACTORIZATIONS: usize = 220;

/// The calibration kernel: dense LU factorizations of fixed
/// pseudo-random diagonally dominant matrices (the arithmetic shape of
/// the simulator's solves). Returns a checksum so no work is elided.
fn kernel() -> f64 {
    let mut rng = SplitMix::new(0xCA11B);
    let mut a = vec![0.0f64; N * N];
    let mut checksum = 0.0;
    for _ in 0..FACTORIZATIONS {
        for (i, x) in a.iter_mut().enumerate() {
            *x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
                + if i % (N + 1) == 0 { N as f64 } else { 0.0 };
        }
        let a = std::hint::black_box(&mut a);
        for k in 0..N {
            let pivot = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        checksum += a[N * N - 1];
    }
    checksum
}

/// Kernel timings taken through one run; the run's timing metrics are
/// scaled by [`Calibration::factor`].
pub struct Calibration {
    threads: usize,
    total_ns: f64,
    samples: u64,
}

impl Calibration {
    /// A calibration that runs the kernel on `threads` threads at once,
    /// as many as the workload keeps busy.
    pub fn new(threads: usize) -> Self {
        Calibration {
            threads: threads.max(1),
            total_ns: 0.0,
            samples: 0,
        }
    }

    /// Times the kernel once per thread (the faster of two runs, so a
    /// single preemption does not count). Called after every timed block,
    /// so the samples spread evenly over the run.
    pub fn sample(&mut self) {
        let timed = || {
            (0..2)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(kernel());
                    t0.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        self.total_ns += if self.threads == 1 {
            timed()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(timed)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread ran"))
                    .sum::<f64>()
            })
        };
        self.samples += self.threads as u64;
    }

    /// The square root of `REFERENCE_NS ÷` the run's mean kernel time;
    /// a time measured in the run is multiplied by it.
    ///
    /// Interference that comes and goes within a run averages out in both
    /// the workload's time and the mean. But the kernel is pure
    /// floating-point work and some neighbours slow it more than the
    /// workloads (or less): over two ten-seed sets the full ratio cut
    /// within-set spread but let medians drift up to 22 % between sets,
    /// where the raw figures spread up to 29 % within a set. The square
    /// root, halfway between, kept both below 17 %.
    pub fn factor(&self) -> f64 {
        assert!(self.samples > 0, "calibration has no samples");
        (REFERENCE_NS * self.samples as f64 / self.total_ns).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_positive() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        for threads in [1, 2] {
            let mut c = Calibration::new(threads);
            c.sample();
            c.sample();
            assert!(c.factor().is_finite() && c.factor() > 0.0);
        }
    }
}
