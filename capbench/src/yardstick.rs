//! The host's speed at the moment, read from a fixed computation of the
//! benchmark's own.
//!
//! The host runs the same work up to 50% slower in some phases than in
//! others, in CPU time as well as in wall time, and the phases last from
//! seconds to minutes. Each timed call of the untraced runs is bracketed
//! by two readings of the yardstick, a small single-threaded f32 GEMM
//! that no change to the repository's crates can speed up, and its CPU
//! time is scaled by [`REFERENCE_MS`] over the mean of the two readings:
//! the CPU time the call would take on the host at its reference speed.

use crate::stats::median;
use std::hint::black_box;

/// Side of the yardstick's square matrices: three 36 KiB operands, so it
/// runs from L1 and L2 like the convolutions' packed tiles.
const N: usize = 96;

/// Repetitions per reading; the reading is the fastest, which leaves
/// out a preemption in the middle of one.
const REPS: usize = 5;

/// Wall milliseconds of one yardstick GEMM on the host the benchmark was
/// written on (2 vCPU Intel Xeon VM) in its fast phases.
pub const REFERENCE_MS: f64 = 0.085;

/// The yardstick's buffers and the readings taken so far.
#[derive(Debug)]
pub struct Yardstick {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    readings: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        let fill = |k: usize| (0..N * N).map(|i| ((i * k) % 17) as f32 * 0.01).collect();
        Yardstick {
            a: fill(3),
            b: fill(5),
            c: vec![0.0; N * N],
            readings: Vec::new(),
        }
    }
}

impl Yardstick {
    fn gemm(&mut self) {
        self.c.fill(0.0);
        for (i, crow) in self.c.chunks_exact_mut(N).enumerate() {
            for (k, brow) in self.b.chunks_exact(N).enumerate() {
                let aik = self.a[i * N + k];
                for (c, b) in crow.iter_mut().zip(brow) {
                    *c += aik * b;
                }
            }
        }
        black_box(&self.c);
    }

    /// Times the GEMM [`REPS`] times; returns the fastest, in wall ms.
    pub fn read(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = cap_obs::clock::now();
            self.gemm();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        self.readings.push(best);
        best
    }

    /// Median of every reading taken so far, in wall ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings)
    }
}

/// The factor that scales a CPU time measured between readings `before`
/// and `after` to the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_MS / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_scale_is_relative_to_the_reference() {
        let mut y = Yardstick::default();
        assert!(y.read() > 0.0);
        assert!(y.read() > 0.0);
        assert!(y.median_ms() > 0.0);
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(scale(REFERENCE_MS, 3.0 * REFERENCE_MS), 0.5);
    }
}
