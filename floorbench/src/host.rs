//! Host-speed reference: a fixed numeric kernel of the benchmark's
//! own, timed around every output and every set-up, so that end-to-end
//! times can be reported at a fixed reference speed.
//!
//! On a shared 2-vCPU VM the speed of the CPUs changes from one second
//! to the next and drifts by 20–30% over tens of minutes, while CPU
//! time stays equal to wall time: other tenants of the physical
//! machine load its cores and caches. No batch size averages that
//! away. The benchmark therefore times the kernel right before and
//! right after every output, on the thread that waits for the output,
//! and multiplies the output's seconds by [`REF_SAMPLE_S`] over the
//! mean of the two samples: seconds at the speed at which one timing
//! of the kernel takes [`REF_SAMPLE_S`].
//!
//! The kernel is a cyclic Jacobi eigensolver on a 12×12 matrix that
//! stays in L1 and a 64×64 one whose column sweeps do not: scalar
//! `f64` arithmetic with square roots and divisions, like the dense
//! PSD projection and the ADMM iterations. Its speed follows the
//! program's only in part. On the reference host, sixty timings of the
//! same two flat n10 instances over three minutes spread by 24% of
//! their median (interquartile), and by 14% once scaled; over ten
//! seeds, scaling took the spread of `flat_n10`'s `wall_s` from 13% to
//! 10% but that of `hier_n300` from 6% to 13%, whose 6-s solves follow
//! the host's state less than the kernel does. The kernel is code of
//! the benchmark, not of the program, so no change to the program
//! changes its time, and a faster program shows as a smaller scaled
//! time.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Kernel calls per timing on the 12×12 matrix (8 sweeps each).
const SMALL_CALLS: usize = 60;
/// Kernel calls per timing on the 64×64 matrix (2 sweeps each).
const LARGE_CALLS: usize = 2;
/// Timings per sample; the sample is their median.
const TIMINGS: usize = 5;

/// Seconds one timing of the kernel takes on the reference host (a
/// 2-vCPU Xeon VM) in its fast state. Only the scale of reported
/// times depends on it, not their spread.
pub const REF_SAMPLE_S: f64 = 0.003;

/// A fixed `n`×`n` input: a smooth kernel plus a small deterministic
/// perturbation, so that every rotation does real work.
fn matrix(n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let (lo, hi) = (i.min(j), i.max(j));
            a[i * n + j] = 1.0 / (1.0 + (hi - lo) as f64) + ((lo * 7 + hi * 3) % 11) as f64 * 0.01;
        }
    }
    a
}

/// `sweeps` cyclic Jacobi sweeps over the `n`×`n` matrix `a`; returns
/// the sum of squared diagonal entries, so that nothing of the work is
/// dead.
fn jacobi(mut a: Vec<f64>, n: usize, sweeps: usize) -> f64 {
    for _ in 0..sweeps {
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a[k * n + p], a[k * n + q]);
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[p * n + k], a[q * n + k]);
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    (0..n).map(|i| a[i * n + i] * a[i * n + i]).sum()
}

/// The kernel and the samples of the host's speed taken through a
/// run.
#[derive(Debug, Clone)]
pub struct Probe {
    small: Vec<f64>,
    large: Vec<f64>,
    /// Seconds per sample, in the order taken.
    pub samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self {
            small: matrix(12),
            large: matrix(64),
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Takes one sample (the median seconds of [`TIMINGS`] timings of
    /// the kernel), records it and returns it.
    pub fn sample(&mut self) -> f64 {
        let timings: Vec<f64> = (0..TIMINGS)
            .map(|_| {
                let t0 = Instant::now();
                let mut acc = 0.0;
                for _ in 0..SMALL_CALLS {
                    acc += jacobi(black_box(self.small.clone()), 12, 8);
                }
                for _ in 0..LARGE_CALLS {
                    acc += jacobi(black_box(self.large.clone()), 64, 2);
                }
                black_box(acc);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let s = median(&timings);
        self.samples.push(s);
        s
    }
}

/// The factor that turns seconds measured alongside a sample of
/// `sample_s` seconds into seconds at the reference speed.
pub fn scale(sample_s: f64) -> f64 {
    REF_SAMPLE_S / sample_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_preserves_the_spectrum() {
        // Rotations keep the Frobenius norm, and after enough sweeps
        // the matrix is diagonal: the sum of squared eigenvalues
        // equals that of all entries.
        for n in [12, 64] {
            let a = matrix(n);
            let frobenius: f64 = a.iter().map(|v| v * v).sum();
            assert!((jacobi(a, n, 12) - frobenius).abs() < 1e-9 * frobenius);
        }
    }
}
