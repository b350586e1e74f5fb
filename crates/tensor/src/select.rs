//! Shape-aware kernel selection for the blocked GEMM.
//!
//! For every problem shape the selector picks a *path*:
//!
//! 1. **Direct** — problems whose operands fit in cache skip packing
//!    entirely (the packing passes were a measured regression at 192³,
//!    see `BENCH_kernels.json`).
//! 2. **Packed** — everything else runs the one packed configuration
//!    of its mode: `scalar_4x8 mc=64 nc=512`, or `avx2_8x8 mc=128
//!    nc=512` under AVX2.
//!
//! The plan is a pure function of the shape, the operand layout and the
//! pinned [`SimdMode`] — never of the thread count, the clock or a file
//! — so a run's kernel choices are reproducible. Changing blocking never
//! changes output bits (see `crate::simd` module docs); only the ISA pin
//! does.

use crate::simd::SimdMode;

/// `k`-dimension cache block. Fixed forever (never selected)
/// because it determines the floating-point summation grouping: packed
/// kernels round the accumulator into the output at each `KC` boundary.
pub(crate) const KC: usize = 256;

/// Largest dimension for which the direct (unpacked) path is selected:
/// at `256³` the working set (~768 KiB) still lives in L2/L3 and the
/// packing passes cost more than they save.
const DIRECT_MAX_DIM: usize = 256;

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
}

impl Micro {
    /// Tile rows.
    pub(crate) fn mr(self) -> usize {
        match self {
            Micro::Scalar4x8 => 4,
            Micro::Avx2_8x8 => 8,
        }
    }

    /// Tile columns: both tiles are 8 wide.
    pub(crate) fn nr(self) -> usize {
        8
    }

    /// Stable name used in telemetry and `BENCH_kernels.json`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Micro::Scalar4x8 => "scalar_4x8",
            Micro::Avx2_8x8 => "avx2_8x8",
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

/// The packed configuration of the scalar mode: the original reference
/// blocking.
pub(crate) const SCALAR_PACKED: Config = Config {
    micro: Micro::Scalar4x8,
    mc: 64,
    nc: 512,
};

/// The packed configuration of the AVX2 mode. A larger `mc` than the
/// scalar path pays off because the A block streams from L2.
pub(crate) const AVX2_PACKED: Config = Config {
    micro: Micro::Avx2_8x8,
    mc: 128,
    nc: 512,
};

/// How the GEMM entry point should run one problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plan {
    /// Unpacked small-shape path (serial, operands stay in cache).
    Direct,
    /// Packed blocked path with its mode's configuration.
    Packed(Config),
}

/// Selects the execution plan for `out[m×n] += A[m×k] · B[k×n]`.
/// `b_contiguous` is whether B's rows are unit-stride (the direct SIMD
/// path streams B rows without packing).
pub(crate) fn plan(m: usize, n: usize, k: usize, b_contiguous: bool, mode: SimdMode) -> Plan {
    // The AVX2 direct kernel needs unit-stride B rows; the scalar
    // direct loop handles any layout.
    let direct_ok = match mode {
        SimdMode::Scalar => true,
        SimdMode::Avx2 => b_contiguous,
    };
    if direct_ok && direct_dims(m, n, k) {
        return Plan::Direct;
    }
    Plan::Packed(match mode {
        SimdMode::Scalar => SCALAR_PACKED,
        SimdMode::Avx2 => AVX2_PACKED,
    })
}

/// Publishes the selector decision to the metrics registry (counters
/// only; the per-kernel execution counters live in `gemm`). A packed
/// plan is counted as `heuristic_total`, the name capbench's ledger
/// sums.
pub(crate) fn observe(plan: &Plan) {
    if !cap_obs::enabled() {
        return;
    }
    let which = match plan {
        Plan::Direct => "tensor.gemm.select.direct_total",
        Plan::Packed(_) => "tensor.gemm.select.heuristic_total",
    };
    cap_obs::counter_add(which, 1);
}

/// Human-readable selector verdict for a (row-major) matmul of the
/// given shape — what `matmul` would run right now, without running
/// it: `direct(<width>)` or `packed(<config>, heuristic)`, where the
/// width is `scalar`, `avx2`, or `avx512` where the AVX2 mode's direct
/// kernels run as their 512-bit twins. Exposed for benches and
/// telemetry (`BENCH_kernels.json`'s `selector` fields, capbench's
/// `# gemm` lines).
pub fn gemm_plan_summary(m: usize, n: usize, k: usize) -> String {
    let mode = crate::simd::simd_mode();
    match plan(m, n, k, true, mode) {
        Plan::Direct => {
            let width = match mode {
                SimdMode::Scalar => "scalar",
                SimdMode::Avx2 => crate::simd::direct_width().name(),
            };
            format!("direct({width})")
        }
        Plan::Packed(cfg) => format!("packed({}, heuristic)", cfg.describe()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_shapes_go_direct_large_go_packed() {
        for mode in [SimdMode::Scalar, SimdMode::Avx2] {
            let p = plan(192, 192, 192, true, mode);
            assert_eq!(p, Plan::Direct, "{}", mode.name());
            let p = plan(1024, 1024, 1024, true, mode);
            assert!(
                matches!(p, Plan::Packed(_)),
                "1024 must pack under {}",
                mode.name()
            );
        }
    }

    #[test]
    fn strided_b_under_avx2_stays_packed() {
        let p = plan(64, 64, 64, false, SimdMode::Avx2);
        assert_eq!(p, Plan::Packed(AVX2_PACKED));
        // Scalar direct handles any layout.
        let p = plan(64, 64, 64, false, SimdMode::Scalar);
        assert_eq!(p, Plan::Direct);
    }

    #[test]
    fn micro_names_roundtrip() {
        // A tile's telemetry name spells its shape, and the tile fits the
        // kernels' stack accumulator.
        for m in [Micro::Scalar4x8, Micro::Avx2_8x8] {
            let (mr, nr) = m
                .name()
                .rsplit_once('_')
                .and_then(|(_, dims)| dims.split_once('x'))
                .expect("a tile name ends in <mr>x<nr>");
            assert_eq!(
                (mr.parse(), nr.parse()),
                (Ok(m.mr()), Ok(m.nr())),
                "{}",
                m.name()
            );
            assert!(m.mr() * m.nr() <= crate::simd::ACC_LEN);
        }
    }

    #[test]
    fn scalar_mode_never_tunes() {
        // Large, tall-skinny and strided shapes all get the scalar mode's
        // one packed configuration.
        for (m, n, k, b_contiguous) in [
            (1024, 1024, 1024, true),
            (512, 16, 512, true),
            (4096, 16, 4096, true),
            (2048, 2048, 2048, false),
        ] {
            let p = plan(m, n, k, b_contiguous, SimdMode::Scalar);
            assert_eq!(p, Plan::Packed(SCALAR_PACKED), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn skinny_heuristic_picks_16x4() {
        // Named for the 16x4 AVX2 tile that 16-wide products once got.
        // That tile is gone: they now get the same 8x8 tile and blocking
        // as a square product.
        for (m, k) in [(512, 512), (4096, 4096)] {
            let p = plan(m, 16, k, true, SimdMode::Avx2);
            assert_eq!(p, Plan::Packed(AVX2_PACKED), "{m}x16x{k}");
        }
    }

    #[test]
    fn a_plan_depends_only_on_its_inputs() {
        // No size tunes: large and strided shapes get the AVX2 mode's one
        // packed configuration (skinny shapes are covered above).
        for (m, n, k, b_contiguous) in [(1024, 1024, 1024, true), (2048, 2048, 2048, false)] {
            let p = plan(m, n, k, b_contiguous, SimdMode::Avx2);
            assert_eq!(p, Plan::Packed(AVX2_PACKED), "{m}x{n}x{k}");
        }

        let _guard = crate::simd::mode_test_lock();
        let prior = crate::simd::simd_mode();
        if crate::simd::set_simd_mode(SimdMode::Avx2).is_ok() {
            assert_eq!(
                gemm_plan_summary(1024, 1024, 1024),
                "packed(avx2_8x8 mc=128 nc=512 kc=256, heuristic)"
            );
            // The direct kernels' width is the CPU's, not the shape's.
            #[cfg(target_arch = "x86_64")]
            let width = if std::arch::is_x86_feature_detected!("avx512f") {
                "avx512"
            } else {
                "avx2"
            };
            #[cfg(target_arch = "x86_64")]
            assert_eq!(gemm_plan_summary(192, 192, 192), format!("direct({width})"));
        }
        crate::simd::set_simd_mode(SimdMode::Scalar).expect("scalar always runs");
        assert_eq!(
            gemm_plan_summary(1024, 1024, 1024),
            "packed(scalar_4x8 mc=64 nc=512 kc=256, heuristic)"
        );
        assert_eq!(gemm_plan_summary(192, 192, 192), "direct(scalar)");
        crate::simd::set_simd_mode(prior).expect("the prior mode was available");
    }
}
