//! Shape-aware kernel selection for the blocked GEMM.
//!
//! For every problem shape the selector picks a *path* (direct or
//! packed), a microkernel, and cache-blocking parameters, from three
//! sources in priority order:
//!
//! 1. **Small-shape heuristic** — problems whose operands fit in cache
//!    skip packing entirely (the packing passes were a measured
//!    regression at 192³, see `BENCH_kernels.json`).
//! 2. **Autotune cache** — large shapes consult the persistent
//!    per-(shape-class, arch, ISA) cache from [`crate::autotune`].
//! 3. **Static heuristic** — everything else: 8×8 tiles for wide
//!    problems, 16×4 for tall-skinny ones, reference blocking for the
//!    scalar path.
//!
//! The decision depends only on the shape, the operand layout and the
//! pinned [`SimdMode`] — never on the thread count or the clock — so a
//! run's kernel choices are reproducible. Changing blocking or
//! switching between AVX2 tiles never changes output bits (see
//! `crate::simd` module docs); only the ISA pin does.

use crate::autotune;
use crate::simd::SimdMode;

/// `k`-dimension cache block. Fixed forever (never selected or tuned)
/// because it determines the floating-point summation grouping: packed
/// kernels round the accumulator into the output at each `KC` boundary.
pub(crate) const KC: usize = 256;

/// Largest dimension for which the direct (unpacked) path is selected:
/// at `256³` the working set (~768 KiB) still lives in L2/L3 and the
/// packing passes cost more than they save.
const DIRECT_MAX_DIM: usize = 256;

/// Problems below `2·m·n·k = 2²⁸` flops are not worth measuring:
/// heuristic selection is within noise of tuned at these sizes, and
/// keeping the bar high means ordinary test workloads never trigger
/// tuning (or cache writes).
const TUNE_MIN_FLOPS: usize = 1 << 28;

/// Whether an `m × n × k` problem is small enough for the direct path
/// (every dimension ≤ [`DIRECT_MAX_DIM`]). The direct convolution
/// kernels in `crate::conv` use the same rule for a conv's per-sample
/// GEMM, so they take over exactly the shapes this path ran.
pub(crate) fn direct_dims(m: usize, n: usize, k: usize) -> bool {
    m <= DIRECT_MAX_DIM && n <= DIRECT_MAX_DIM && k <= DIRECT_MAX_DIM
}

/// A register-tile microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Micro {
    /// Portable 4×8 scalar tile (separate multiply and add); the
    /// cross-architecture reference kernel.
    Scalar4x8,
    /// AVX2+FMA 8×8 tile (eight YMM accumulators).
    Avx2_8x8,
    /// AVX2+FMA 16×4 tile for tall-skinny problems.
    Avx2_16x4,
}

impl Micro {
    /// Tile rows.
    pub(crate) fn mr(self) -> usize {
        match self {
            Micro::Scalar4x8 => 4,
            Micro::Avx2_8x8 => 8,
            Micro::Avx2_16x4 => 16,
        }
    }

    /// Tile columns.
    pub(crate) fn nr(self) -> usize {
        match self {
            Micro::Scalar4x8 => 8,
            Micro::Avx2_8x8 => 8,
            Micro::Avx2_16x4 => 4,
        }
    }

    /// Stable name used in telemetry, the autotune cache, and
    /// `BENCH_kernels.json`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Micro::Scalar4x8 => "scalar_4x8",
            Micro::Avx2_8x8 => "avx2_8x8",
            Micro::Avx2_16x4 => "avx2_16x4",
        }
    }

    /// Parses a stable name back (autotune cache loading).
    pub(crate) fn parse(name: &str) -> Option<Micro> {
        match name {
            "scalar_4x8" => Some(Micro::Scalar4x8),
            "avx2_8x8" => Some(Micro::Avx2_8x8),
            "avx2_16x4" => Some(Micro::Avx2_16x4),
            _ => None,
        }
    }

    /// Whether this kernel is runnable under the given mode (an AVX2
    /// cache entry must not leak onto a scalar-pinned run).
    pub(crate) fn runs_under(self, mode: SimdMode) -> bool {
        match self {
            Micro::Scalar4x8 => true,
            Micro::Avx2_8x8 | Micro::Avx2_16x4 => mode == SimdMode::Avx2,
        }
    }
}

/// One packed-path configuration: microkernel plus cache blocking.
/// (`KC` is global and fixed; see its doc.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Config {
    pub(crate) micro: Micro,
    /// `m`-dimension cache block; also the row granularity of parallel
    /// tasks.
    pub(crate) mc: usize,
    /// `n`-dimension cache block (one packed B panel).
    pub(crate) nc: usize,
}

impl Config {
    pub(crate) fn describe(&self) -> String {
        format!(
            "{} mc={} nc={} kc={KC}",
            self.micro.name(),
            self.mc,
            self.nc
        )
    }
}

/// How the GEMM entry point should run one problem.
pub(crate) enum Decision {
    /// Unpacked small-shape path (serial, operands stay in cache).
    Direct,
    /// Packed blocked path with a fixed configuration.
    Packed(Config),
    /// Packed path, but measure the candidates first and record the
    /// winner in the autotune cache. All candidates produce identical
    /// bits, so the measurement is invisible in the output.
    Tune {
        candidates: Vec<Config>,
        key: String,
    },
}

/// A full selector verdict.
pub(crate) struct Plan {
    pub(crate) decision: Decision,
    /// Where the packed config came from: `direct`, `cached`,
    /// `heuristic`, or `tuning`.
    pub(crate) source: &'static str,
}

/// Power-of-two shape bucket: shapes within the same octave share
/// blocking behaviour, so they share one autotune entry.
fn bucket(d: usize) -> usize {
    d.max(16).next_power_of_two()
}

/// The autotune key for a problem under a mode:
/// `m<bucket>-n<bucket>-k<bucket>|<arch>|<mode>`.
pub(crate) fn cache_key(m: usize, n: usize, k: usize, mode: SimdMode) -> String {
    format!(
        "m{}-n{}-k{}|{}|{}",
        bucket(m),
        bucket(n),
        bucket(k),
        std::env::consts::ARCH,
        mode.name()
    )
}

fn heuristic(m: usize, n: usize, mode: SimdMode) -> Config {
    match mode {
        SimdMode::Scalar => Config {
            micro: Micro::Scalar4x8,
            mc: 64,
            nc: 512,
        },
        SimdMode::Avx2 => {
            // Tall-skinny outputs can't fill 8-wide rows; everything
            // else feeds the 8×8 tile. A larger MC than the scalar
            // path pays off because the A block streams from L2.
            let micro = if n < 48 && m >= 2 * n {
                Micro::Avx2_16x4
            } else {
                Micro::Avx2_8x8
            };
            Config {
                micro,
                mc: 128,
                nc: 512,
            }
        }
    }
}

/// Candidate set measured when a large shape misses the autotune
/// cache. All are AVX2+FMA kernels, so every candidate produces the
/// same bits and measurement order cannot leak into results.
fn tune_candidates() -> Vec<Config> {
    vec![
        Config {
            micro: Micro::Avx2_8x8,
            mc: 128,
            nc: 512,
        },
        Config {
            micro: Micro::Avx2_8x8,
            mc: 64,
            nc: 512,
        },
        Config {
            micro: Micro::Avx2_8x8,
            mc: 128,
            nc: 256,
        },
        Config {
            micro: Micro::Avx2_16x4,
            mc: 128,
            nc: 512,
        },
    ]
}

/// Selects the execution plan for `out[m×n] += A[m×k] · B[k×n]`.
/// `b_contiguous` is whether B's rows are unit-stride (the direct SIMD
/// path streams B rows without packing).
pub(crate) fn plan(m: usize, n: usize, k: usize, b_contiguous: bool, mode: SimdMode) -> Plan {
    // Small shapes: skip packing. The AVX2 direct kernel needs
    // unit-stride B rows; the scalar direct loop handles any layout.
    if direct_dims(m, n, k) {
        let direct_ok = match mode {
            SimdMode::Scalar => true,
            SimdMode::Avx2 => b_contiguous,
        };
        if direct_ok {
            return Plan {
                decision: Decision::Direct,
                source: "direct",
            };
        }
    }

    let key = cache_key(m, n, k, mode);
    if let Some(choice) = autotune::lookup(&key) {
        if choice.config.micro.runs_under(mode) {
            return Plan {
                decision: Decision::Packed(choice.config),
                source: "cached",
            };
        }
    }

    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if mode == SimdMode::Avx2 && flops >= TUNE_MIN_FLOPS && autotune::persistence_enabled() {
        return Plan {
            decision: Decision::Tune {
                candidates: tune_candidates(),
                key,
            },
            source: "tuning",
        };
    }

    Plan {
        decision: Decision::Packed(heuristic(m, n, mode)),
        source: "heuristic",
    }
}

/// Publishes the selector decision to the metrics registry (counters
/// only; the per-kernel execution counters live in `gemm`).
pub(crate) fn observe(plan: &Plan) {
    if !cap_obs::enabled() {
        return;
    }
    let which = match plan.decision {
        Decision::Direct => "tensor.gemm.select.direct_total",
        Decision::Packed(_) => match plan.source {
            "cached" => "tensor.gemm.select.cached_total",
            _ => "tensor.gemm.select.heuristic_total",
        },
        Decision::Tune { .. } => "tensor.gemm.select.tune_total",
    };
    cap_obs::counter_add(which, 1);
}

/// Human-readable selector verdict for a (row-major) matmul of the
/// given shape — what `matmul` would run right now, without running
/// it. Exposed for benches and telemetry (`BENCH_kernels.json`'s
/// `selector` fields).
pub fn gemm_plan_summary(m: usize, n: usize, k: usize) -> String {
    let mode = crate::simd::simd_mode();
    let p = plan(m, n, k, true, mode);
    match &p.decision {
        Decision::Direct => format!("direct({})", mode.name()),
        Decision::Packed(cfg) => format!("packed({}, {})", cfg.describe(), p.source),
        Decision::Tune { candidates, .. } => format!(
            "packed(tuning {} candidates, will cache as {})",
            candidates.len(),
            cache_key(m, n, k, mode)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_names_roundtrip() {
        for m in [Micro::Scalar4x8, Micro::Avx2_8x8, Micro::Avx2_16x4] {
            assert_eq!(Micro::parse(m.name()), Some(m));
            assert!(m.mr() * m.nr() <= crate::simd::ACC_LEN);
        }
        assert_eq!(Micro::parse("avx512_32x2"), None);
    }

    #[test]
    fn small_shapes_go_direct_large_go_packed() {
        for mode in [SimdMode::Scalar, SimdMode::Avx2] {
            let p = plan(192, 192, 192, true, mode);
            assert!(matches!(p.decision, Decision::Direct), "{}", mode.name());
            let p = plan(1024, 1024, 1024, true, mode);
            assert!(
                !matches!(p.decision, Decision::Direct),
                "1024 must pack under {}",
                mode.name()
            );
        }
    }

    #[test]
    fn strided_b_under_avx2_stays_packed() {
        let p = plan(64, 64, 64, false, SimdMode::Avx2);
        assert!(matches!(p.decision, Decision::Packed(_)));
        // Scalar direct handles any layout.
        let p = plan(64, 64, 64, false, SimdMode::Scalar);
        assert!(matches!(p.decision, Decision::Direct));
    }

    #[test]
    fn skinny_heuristic_picks_16x4() {
        let cfg = heuristic(4096, 16, SimdMode::Avx2);
        assert_eq!(cfg.micro, Micro::Avx2_16x4);
        let cfg = heuristic(512, 512, SimdMode::Avx2);
        assert_eq!(cfg.micro, Micro::Avx2_8x8);
    }

    #[test]
    fn cache_key_buckets_by_octave() {
        let a = cache_key(1000, 1000, 1000, SimdMode::Avx2);
        let b = cache_key(1024, 600, 513, SimdMode::Avx2);
        assert_eq!(a, b, "same octave, same key");
        assert_ne!(a, cache_key(2048, 1000, 1000, SimdMode::Avx2));
        assert_ne!(a, cache_key(1000, 1000, 1000, SimdMode::Scalar));
    }

    #[test]
    fn scalar_mode_never_tunes() {
        let p = plan(2048, 2048, 2048, true, SimdMode::Scalar);
        assert!(matches!(p.decision, Decision::Packed(_)));
        match p.decision {
            Decision::Packed(cfg) => assert_eq!(cfg.micro, Micro::Scalar4x8),
            _ => unreachable!(),
        }
    }
}
