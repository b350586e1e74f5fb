//! SIMD microkernels and the process-wide instruction-set pin.
//!
//! This is the **only** module in `cap-tensor` that may contain `unsafe`
//! code (the crate root carries `#![deny(unsafe_code)]`; this module
//! opts out with `#![allow(unsafe_code)]` and every block carries a
//! `// SAFETY:` justification checked by caplint rule R006). Everything
//! here is a leaf: the 8×8 register-tile kernel over packed panels,
//! one direct (unpacked) row kernel for small shapes, and the direct
//! convolutions' shifted-window kernels (one row kernel for the forward,
//! one tap-summing kernel for the input gradient). The three direct
//! kernels ([`direct_rows`], [`window_rows`], [`tap_rows`]) come at two
//! [`Width`]s: 256-bit AVX2 and 512-bit AVX-512F twins, which use the
//! 32 ZMM registers for larger tiles and mask the upper half of a row's
//! last vector when the row is an odd multiple of 8 columns. All loads
//! and stores are unaligned (`loadu`/`storeu`, masked at row ends), so
//! callers only have to guarantee slice bounds, which the safe wrappers
//! assert. Other architectures run the scalar reference path.
//!
//! [`run_pass`] is the one dispatcher for the plain loops around those
//! kernels (BatchNorm, ReLU, residual adds, pooling, the optimiser
//! update, the direct convolutions' row copies and the Eq. 5 count): it
//! runs an [`ElementPass`] in a frame compiled for the pinned mode, at
//! the direct kernels' width.
//!
//! # Mode pin
//!
//! The instruction set is resolved **once per process** from the
//! `CAP_SIMD` environment variable (`scalar`, `avx2`, or `auto`, the
//! default) intersected with runtime CPU feature detection, so a run's
//! kernel choice is deterministic and recorded. [`set_simd_mode`]
//! exists for benches and tests that A/B both paths in one process.
//! Under the `Avx2` pin the direct kernels run at [`direct_width`],
//! also resolved once per process: the 512-bit twins wherever the CPU
//! has AVX-512F.
//!
//! # Determinism
//!
//! Every kernel accumulates each output element in ascending `p`
//! (depth) order. All AVX2 kernels use one fused multiply-add per
//! element per step, so *every* AVX2 kernel produces bit-identical
//! results for the same operands — changing cache blocking never
//! changes bits. The 512-bit twins take the same steps per element
//! (the same FMAs in the same order, and the same tap additions), so
//! the vector width is bit-neutral too, like the blocking. The scalar
//! kernels use separate multiply and add,
//! which rounds differently from FMA; that is why the ISA pin, not the
//! selector, is the unit of numerical reproducibility (see DESIGN.md
//! §13).

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m512, __mmask16};

/// Maximum microkernel rows across all kernels (8×8 tile).
pub(crate) const MR_MAX: usize = 8;
/// Maximum microkernel columns across all kernels (8×8 tile).
pub(crate) const NR_MAX: usize = 8;
/// Accumulator scratch large enough for any tile (`MR_MAX × NR_MAX`).
pub(crate) const ACC_LEN: usize = MR_MAX * NR_MAX;

/// The resolved instruction-set choice for every GEMM in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Portable scalar kernels: the cross-architecture reference path.
    Scalar,
    /// AVX2 + FMA kernels (x86-64 only, runtime-detected).
    Avx2,
}

impl SimdMode {
    /// Stable lowercase name (`scalar` / `avx2`) used in telemetry and
    /// `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
        }
    }
}

/// 0 = unresolved, 1 = scalar, 2 = avx2.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU can run the AVX2+FMA kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The vector width of the direct kernels ([`direct_rows`],
/// [`window_rows`], [`tap_rows`]) under the `Avx2` pin. Both widths give
/// the same bits, so the width is not part of [`SimdMode`] and never
/// enters a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// 256-bit YMM kernels (AVX2 + FMA).
    Avx2,
    /// Their 512-bit ZMM twins (AVX-512F).
    Avx512,
}

impl Width {
    /// Stable lowercase name (`avx2` / `avx512`), as `gemm_plan_summary`
    /// prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Width::Avx2 => "avx2",
            Width::Avx512 => "avx512",
        }
    }
}

/// The width the direct kernels run at under the `Avx2` pin, decided
/// once per process: the 512-bit twins wherever the CPU has AVX-512F on
/// top of AVX2+FMA.
pub(crate) fn direct_width() -> Width {
    #[cfg(target_arch = "x86_64")]
    {
        static WIDTH: std::sync::OnceLock<Width> = std::sync::OnceLock::new();
        *WIDTH.get_or_init(|| {
            if avx2_available() && std::arch::is_x86_feature_detected!("avx512f") {
                Width::Avx512
            } else {
                Width::Avx2
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Width::Avx2
    }
}

fn resolve_from_env() -> SimdMode {
    let requested = std::env::var("CAP_SIMD").unwrap_or_default();
    match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => SimdMode::Scalar,
        "avx2" => {
            if avx2_available() {
                SimdMode::Avx2
            } else {
                // Explicit request on an incapable host: fall back
                // loudly (counter + event) rather than abort — the
                // scalar path is always correct.
                if cap_obs::enabled() {
                    cap_obs::counter_add("tensor.gemm.simd_fallback_total", 1);
                    cap_obs::emit(
                        cap_obs::Event::new("simd_fallback")
                            .str("requested", "avx2")
                            .str("used", "scalar"),
                    );
                }
                SimdMode::Scalar
            }
        }
        // "auto", unset, and anything unrecognised: best available.
        _ => {
            if avx2_available() {
                SimdMode::Avx2
            } else {
                SimdMode::Scalar
            }
        }
    }
}

/// The pinned instruction-set mode, resolving `CAP_SIMD` on first use.
pub fn simd_mode() -> SimdMode {
    match MODE.load(Ordering::Relaxed) {
        1 => SimdMode::Scalar,
        2 => SimdMode::Avx2,
        _ => {
            let mode = resolve_from_env();
            MODE.store(
                match mode {
                    SimdMode::Scalar => 1,
                    SimdMode::Avx2 => 2,
                },
                Ordering::Relaxed,
            );
            mode
        }
    }
}

/// Overrides the pinned mode at runtime (benches and tests that A/B
/// both paths in one process; production runs should pin via
/// `CAP_SIMD` instead so the choice is recorded at startup).
///
/// # Errors
///
/// Returns a description if the requested ISA is unavailable on this
/// CPU; the pinned mode is left unchanged.
pub fn set_simd_mode(mode: SimdMode) -> Result<(), String> {
    if mode == SimdMode::Avx2 && !avx2_available() {
        return Err("CAP_SIMD: avx2 requested but not available on this CPU".to_string());
    }
    MODE.store(
        match mode {
            SimdMode::Scalar => 1,
            SimdMode::Avx2 => 2,
        },
        Ordering::Relaxed,
    );
    Ok(())
}

/// Serialises this crate's unit tests that set the process-global mode
/// with the ones that compare bits across calls under it.
#[cfg(test)]
pub(crate) fn mode_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Element passes at the pin's width.
// ---------------------------------------------------------------------------

/// A loop over slices that [`run_pass`] compiles for the pinned mode:
/// BatchNorm, ReLU, residual adds, pooling, the optimiser update, the
/// direct convolutions' row copies and the Eq. 5 count.
///
/// Every output element of a pass must be a fixed sequence of IEEE
/// operations on its inputs, with any sum kept in its written order.
/// Element-wise arithmetic rounds the same at any vector width, rustc
/// never fuses a multiply and an add on its own, and LLVM does not
/// reorder a float reduction, so the pass gives the same bits in every
/// frame. One thing is not pinned: when both operands of an addition or
/// a multiplication are NaN, which one's payload the result carries.
/// IEEE 754 leaves it open, and LLVM may order the operands of such an
/// instruction one way in the plain build and the other way in a wide
/// frame (NaN + −NaN reads `0x7fc00000` in one and `0xffc00000` in the
/// other). No output the determinism contract covers can hold a NaN.
pub trait ElementPass {
    /// The loop. Mark every implementation `#[inline(always)]` (caplint
    /// R012): a body LLVM does not inline into the frame compiles for
    /// the baseline ISA, and the frame only calls it.
    fn run(self);
}

/// Runs `pass` in a frame compiled for the pinned mode: AVX-512F with
/// AVX2+FMA where the direct conv kernels run their 512-bit twins (a CPU
/// with AVX-512F), AVX2+FMA elsewhere under the `Avx2` pin, and the
/// plain build under `Scalar`. Each frame gives the same bits.
pub fn run_pass(pass: impl ElementPass) {
    #[cfg(target_arch = "x86_64")]
    if simd_mode() == SimdMode::Avx2 {
        match direct_width() {
            // SAFETY: `direct_width` reports `Avx512` only after
            // detecting AVX-512F on top of AVX2+FMA.
            Width::Avx512 => unsafe { avx512_frame(pass) },
            // SAFETY: the pin reports `Avx2` only after detecting
            // AVX2+FMA.
            Width::Avx2 => unsafe { avx2_frame(pass) },
        }
        return;
    }
    pass.run();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: callers must guarantee AVX2+FMA support.
unsafe fn avx2_frame(pass: impl ElementPass) {
    pass.run();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
// SAFETY: callers must guarantee AVX-512F and AVX2+FMA support.
unsafe fn avx512_frame(pass: impl ElementPass) {
    pass.run();
}

/// The values this crate's element passes are checked on, as bit
/// patterns: NaNs of both signs and two payloads, ±0, ±∞, the smallest
/// subnormals and the neighbours of ±1.
#[cfg(test)]
pub(crate) const SPECIALS: [u32; 16] = [
    0x7fc0_0000,
    0xffc0_0000,
    0x7fc0_1234,
    0xffc0_1234,
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x8000_0001,
    0x3f7f_ffff,
    0x3f80_0000,
    0x3f80_0001,
    0xbf7f_ffff,
    0xbf80_0000,
    0xbf80_0001,
];

/// `len` of [`SPECIALS`], starting at entry `shift`, with a stride
/// coprime to the table length so neighbours differ.
#[cfg(test)]
pub(crate) fn specials(len: usize, shift: usize) -> Vec<f32> {
    (0..len)
        .map(|i| f32::from_bits(SPECIALS[(i * 7 + shift) % SPECIALS.len()]))
        .collect()
}

/// Runs `f` under the `Scalar` pin (the plain build) and under `Avx2`
/// (the wide frame) and asserts both return the same bits, except that
/// two NaNs may differ: which operand's NaN survives when two NaNs meet
/// in one addition is not pinned (see [`ElementPass`]). Without AVX2
/// there is no wide frame, and the check passes vacuously.
#[cfg(test)]
pub(crate) fn assert_frames_agree(what: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = mode_test_lock();
    let prior = simd_mode();
    set_simd_mode(SimdMode::Scalar).expect("scalar always runs");
    let plain = f();
    if set_simd_mode(SimdMode::Avx2).is_ok() {
        let wide = f();
        assert_eq!(plain.len(), wide.len(), "{what}");
        let differ =
            |(p, w): (&f32, &f32)| p.to_bits() != w.to_bits() && !(p.is_nan() && w.is_nan());
        if let Some(i) = plain.iter().zip(&wide).position(differ) {
            panic!(
                "{what}: element {i}: plain {:#010x}, wide {:#010x}",
                plain[i].to_bits(),
                wide[i].to_bits()
            );
        }
    }
    set_simd_mode(prior).expect("the prior mode was available");
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (x86-64).
// ---------------------------------------------------------------------------

/// 8×8 register tile over packed panels: `acc[r*8 + c] += Σ_p
/// pa[p*8 + r] · pb[p*8 + c]`, ascending `p`, one FMA per element per
/// step. Panels are packed `p`-major with zero padding, exactly like
/// the scalar kernel's.
#[cfg(target_arch = "x86_64")]
pub(crate) fn micro_8x8_avx2(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; ACC_LEN]) {
    assert!(pa.len() >= kc * 8, "packed A strip too short");
    assert!(pb.len() >= kc * 8, "packed B strip too short");
    // SAFETY: AVX2+FMA availability is guaranteed by the mode pin
    // (`simd_mode()` only returns `Avx2` after feature detection), and
    // the slice bounds the kernel reads/writes are asserted above.
    unsafe { micro_8x8_avx2_impl(kc, pa.as_ptr(), pb.as_ptr(), acc.as_mut_ptr()) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: callers must guarantee AVX2+FMA support, `pa`/`pb` valid for
// `kc*8` reads, and `acc` valid for 64 writes.
unsafe fn micro_8x8_avx2_impl(kc: usize, pa: *const f32, pb: *const f32, acc: *mut f32) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    // SAFETY: intrinsics below only touch pa[0..kc*8], pb[0..kc*8] and
    // acc[0..64], all within the caller-guaranteed bounds; loadu/storeu
    // have no alignment requirement.
    unsafe {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        let mut c4 = _mm256_setzero_ps();
        let mut c5 = _mm256_setzero_ps();
        let mut c6 = _mm256_setzero_ps();
        let mut c7 = _mm256_setzero_ps();
        for p in 0..kc {
            let b = _mm256_loadu_ps(pb.add(p * 8));
            let a = pa.add(p * 8);
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a), b, c0);
            c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(1)), b, c1);
            c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(2)), b, c2);
            c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(3)), b, c3);
            c4 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(4)), b, c4);
            c5 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(5)), b, c5);
            c6 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(6)), b, c6);
            c7 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(7)), b, c7);
        }
        _mm256_storeu_ps(acc, c0);
        _mm256_storeu_ps(acc.add(8), c1);
        _mm256_storeu_ps(acc.add(16), c2);
        _mm256_storeu_ps(acc.add(24), c3);
        _mm256_storeu_ps(acc.add(32), c4);
        _mm256_storeu_ps(acc.add(40), c5);
        _mm256_storeu_ps(acc.add(48), c6);
        _mm256_storeu_ps(acc.add(56), c7);
    }
}

/// Direct (unpacked) row kernel for small shapes: computes
/// `out[i][j] += Σ_p a[i][p] · b[p][j]` for `rows` output rows, with
/// `b` row-major contiguous (`col_stride == 1`, leading dimension
/// `b_rs`). `a` may be strided (transposed views). Each element
/// accumulates ascending `p` with one FMA per step, at either width:
/// the AVX2 kernel runs the tail columns (`n % 8`) as scalar FMA, its
/// 512-bit twin as one masked vector (`n % 16`), so the op sequence per
/// element is the same everywhere.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn direct_rows(
    width: Width,
    n: usize,
    k: usize,
    a: &[f32],
    a_off: usize,
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n.max(1);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    // Bounds for every access the unsafe kernels perform.
    assert!(a.len() > a_off + (rows - 1) * a_rs + (k - 1) * a_cs);
    assert!(b.len() >= (k - 1) * b_rs + n);
    assert!(out.len() >= rows * n);
    let (a, b, out) = (a[a_off..].as_ptr(), b.as_ptr(), out.as_mut_ptr());
    match width {
        // SAFETY: AVX2+FMA availability is guaranteed by the mode pin;
        // the index bounds are asserted just above.
        Width::Avx2 => unsafe { direct_rows_avx2_impl(rows, n, k, a, a_rs, a_cs, b, b_rs, out) },
        Width::Avx512 => {
            assert_eq!(
                direct_width(),
                Width::Avx512,
                "the 512-bit twins need AVX-512F"
            );
            // SAFETY: AVX-512F availability is asserted just above, the
            // index bounds before it.
            unsafe { direct_rows_avx512_impl(rows, n, k, a, a_rs, a_cs, b, b_rs, out) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers must guarantee AVX2+FMA support and validity of
// `a` for strided reads over `rows × k`, `b` for `(k-1)*b_rs + n`
// reads, and `out` for `rows * n` read-writes.
unsafe fn direct_rows_avx2_impl(
    rows: usize,
    n: usize,
    k: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    b_rs: usize,
    out: *mut f32,
) {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps};
    // Column blocks of 32 (four YMM accumulators) stay resident in
    // registers across the whole depth loop.
    const JB: usize = 32;
    // SAFETY: every pointer offset below stays inside the caller-
    // guaranteed ranges: a[i*a_rs + p*a_cs], b[p*b_rs + j..+8|1],
    // out[i*n + j..+8|1] with i < rows, p < k, j < n.
    unsafe {
        for i in 0..rows {
            let arow = a.add(i * a_rs);
            let orow = out.add(i * n);
            let mut j = 0;
            while j + JB <= n {
                let mut c0 = _mm256_loadu_ps(orow.add(j));
                let mut c1 = _mm256_loadu_ps(orow.add(j + 8));
                let mut c2 = _mm256_loadu_ps(orow.add(j + 16));
                let mut c3 = _mm256_loadu_ps(orow.add(j + 24));
                for p in 0..k {
                    let av = _mm256_set1_ps(*arow.add(p * a_cs));
                    let brow = b.add(p * b_rs + j);
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow.add(8)), c1);
                    c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow.add(16)), c2);
                    c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow.add(24)), c3);
                }
                _mm256_storeu_ps(orow.add(j), c0);
                _mm256_storeu_ps(orow.add(j + 8), c1);
                _mm256_storeu_ps(orow.add(j + 16), c2);
                _mm256_storeu_ps(orow.add(j + 24), c3);
                j += JB;
            }
            while j + 8 <= n {
                let mut c0 = _mm256_loadu_ps(orow.add(j));
                for p in 0..k {
                    let av = _mm256_set1_ps(*arow.add(p * a_cs));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b.add(p * b_rs + j)), c0);
                }
                _mm256_storeu_ps(orow.add(j), c0);
                j += 8;
            }
            while j < n {
                let mut acc = *orow.add(j);
                for p in 0..k {
                    acc = (*arow.add(p * a_cs)).mul_add(*b.add(p * b_rs + j), acc);
                }
                *orow.add(j) = acc;
                j += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers must guarantee AVX-512F support and the bounds of
// `direct_rows_avx2_impl`.
unsafe fn direct_rows_avx512_impl(
    rows: usize,
    n: usize,
    k: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    b_rs: usize,
    out: *mut f32,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_set1_ps, _mm512_storeu_ps,
    };
    // Column blocks of 64 (four ZMM accumulators) stay resident in
    // registers across the whole depth loop.
    const JB: usize = 64;
    // SAFETY: every pointer offset below stays inside the caller-
    // guaranteed ranges: a[i*a_rs + p*a_cs], b[p*b_rs + j..+16] and
    // out[i*n + j..+16] with i < rows, p < k, j < n; the last vector's
    // lanes at or past `n` are masked off, so they are never read or
    // written.
    unsafe {
        for i in 0..rows {
            let arow = a.add(i * a_rs);
            let orow = out.add(i * n);
            let mut j = 0;
            while j + JB <= n {
                let mut c0 = _mm512_loadu_ps(orow.add(j));
                let mut c1 = _mm512_loadu_ps(orow.add(j + 16));
                let mut c2 = _mm512_loadu_ps(orow.add(j + 32));
                let mut c3 = _mm512_loadu_ps(orow.add(j + 48));
                for p in 0..k {
                    let av = _mm512_set1_ps(*arow.add(p * a_cs));
                    let brow = b.add(p * b_rs + j);
                    c0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow), c0);
                    c1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow.add(16)), c1);
                    c2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow.add(32)), c2);
                    c3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow.add(48)), c3);
                }
                _mm512_storeu_ps(orow.add(j), c0);
                _mm512_storeu_ps(orow.add(j + 16), c1);
                _mm512_storeu_ps(orow.add(j + 32), c2);
                _mm512_storeu_ps(orow.add(j + 48), c3);
                j += JB;
            }
            while j < n {
                // Lanes j..min(j + 16, n): the whole vector but at the
                // row's end.
                let lanes = (n - j).min(16);
                let m: __mmask16 = (1u32 << lanes).wrapping_sub(1) as __mmask16;
                let mut c0 = _mm512_maskz_loadu_ps(m, orow.add(j));
                for p in 0..k {
                    let av = _mm512_set1_ps(*arow.add(p * a_cs));
                    c0 = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m, b.add(p * b_rs + j)), c0);
                }
                _mm512_mask_storeu_ps(orow.add(j), m, c0);
                j += 16;
            }
        }
    }
}

/// Shifted-window row kernel of the direct forward convolution: for
/// every row `r` of `out` (rows of `qr` columns, `qr` a multiple of 8)
/// and every column `q`, the sum `Σ_i a[r·a_rs + i·a_cs] · src[offs[i] + q]`,
/// ascending `i`, starting at `+0` in its own register, one FMA per
/// step, exactly like [`direct_rows`] over a B whose row `i` is
/// the window at `offs[i]`. The sum is stored into `out`, overwriting
/// every element. Columns run in whole 8-lane vectors, or at 512 bits
/// in 16-lane vectors with the upper half of a row's last one masked
/// off when `qr` is an odd multiple of 8.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn window_rows(
    width: Width,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    offs: &[usize],
    src: &[f32],
    out: &mut [f32],
    qr: usize,
) {
    assert!(
        qr.is_multiple_of(8),
        "window rows must be whole 8-lane vectors"
    );
    let k = offs.len();
    let rows = out.len() / qr.max(1);
    if rows == 0 || qr == 0 || k == 0 {
        return;
    }
    // Bounds for every access the unsafe kernels perform.
    assert_eq!(out.len(), rows * qr);
    assert!(a.len() > (rows - 1) * a_rs + (k - 1) * a_cs);
    assert!(offs.iter().all(|&o| o + qr <= src.len()));
    let (a, src, out) = (a.as_ptr(), src.as_ptr(), out.as_mut_ptr());
    match width {
        // SAFETY: AVX2+FMA availability is guaranteed by the mode pin;
        // the index bounds are asserted just above.
        Width::Avx2 => unsafe { window_rows_avx2_impl(rows, qr, a, a_rs, a_cs, offs, src, out) },
        Width::Avx512 => {
            assert_eq!(
                direct_width(),
                Width::Avx512,
                "the 512-bit twins need AVX-512F"
            );
            // SAFETY: AVX-512F availability is asserted just above, the
            // index bounds before it.
            unsafe { rows_avx512_impl::<false>(rows, qr, a, a_rs, a_cs, offs, &[0], src, out) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers must guarantee AVX2+FMA support, `a` valid for reads
// at `r*a_rs + i*a_cs` (r < rows, i < offs.len()), `src` for reads at
// `offs[i] .. offs[i] + qr`, and `out` for `rows * qr` writes.
unsafe fn window_rows_avx2_impl(
    rows: usize,
    qr: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    offs: &[usize],
    src: *const f32,
    out: *mut f32,
) {
    // Tiles of up to 4 rows × 3 vectors: twelve independent FMA chains
    // even when a row is only 24 columns (a 4×4 map), plus three window
    // loads and one broadcast, fill the sixteen YMM registers.
    let mut r0 = 0;
    while r0 < rows {
        let rt = (rows - r0).min(4);
        let mut q0 = 0;
        while q0 < qr {
            let vt = ((qr - q0) / 8).min(3);
            // SAFETY: rows r0..r0+rt and columns q0..q0+8*vt lie inside
            // the caller-guaranteed ranges.
            unsafe {
                let t = Tile {
                    a: a.add(r0 * a_rs),
                    a_rs,
                    a_cs,
                    offs,
                    taps: &[0],
                    src: src.add(q0),
                    out: out.add(r0 * qr + q0),
                    qr,
                };
                match (rt, vt) {
                    (4, 3) => window_tile::<4, 3>(t),
                    (4, 2) => window_tile::<4, 2>(t),
                    (4, _) => window_tile::<4, 1>(t),
                    (3, 3) => window_tile::<3, 3>(t),
                    (3, 2) => window_tile::<3, 2>(t),
                    (3, _) => window_tile::<3, 1>(t),
                    (2, 3) => window_tile::<2, 3>(t),
                    (2, 2) => window_tile::<2, 2>(t),
                    (2, _) => window_tile::<2, 1>(t),
                    (_, 3) => window_tile::<1, 3>(t),
                    (_, 2) => window_tile::<1, 2>(t),
                    _ => window_tile::<1, 1>(t),
                }
            }
            q0 += vt * 8;
        }
        r0 += rt;
    }
}

/// Tap-summing row kernel of the direct input gradient: for every row
/// `r` of `out` (rows of `qr` columns, `qr` a multiple of 8) and every
/// column `q`, the sum over taps `t` (ascending, starting at `+0`) of
/// the tap's own sum `Σ_i a[r·a_rs + i·a_cs + t] · src[offs[i] + taps[t] + q]`
/// (ascending `i`, starting at `+0`, one FMA per step). Each tap's sum
/// is the one [`window_rows`] would compute over the windows at
/// `offs[i] + taps[t]`; the running sum adds them in tap order in a
/// register and is stored once, overwriting every element of `out`.
/// Columns run as in [`window_rows`] at the same width.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_rows(
    width: Width,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    offs: &[usize],
    taps: &[usize],
    src: &[f32],
    out: &mut [f32],
    qr: usize,
) {
    assert!(
        qr.is_multiple_of(8),
        "window rows must be whole 8-lane vectors"
    );
    let (k, nt) = (offs.len(), taps.len());
    let rows = out.len() / qr.max(1);
    if rows == 0 || qr == 0 {
        return;
    }
    assert_eq!(out.len(), rows * qr);
    if k == 0 || nt == 0 {
        // Every sum is empty.
        out.fill(0.0);
        return;
    }
    // Bounds for every access the unsafe kernel performs.
    assert!(a.len() > (rows - 1) * a_rs + (k - 1) * a_cs + (nt - 1));
    let max_off = offs.iter().max().copied().unwrap_or(0);
    let max_tap = taps.iter().max().copied().unwrap_or(0);
    assert!(max_off + max_tap + qr <= src.len());
    let (a, src, out) = (a.as_ptr(), src.as_ptr(), out.as_mut_ptr());
    match width {
        // SAFETY: AVX2+FMA availability is guaranteed by the mode pin;
        // the index bounds are asserted just above.
        Width::Avx2 => unsafe { tap_rows_avx2_impl(rows, qr, a, a_rs, a_cs, offs, taps, src, out) },
        Width::Avx512 => {
            assert_eq!(
                direct_width(),
                Width::Avx512,
                "the 512-bit twins need AVX-512F"
            );
            // SAFETY: AVX-512F availability is asserted just above, the
            // index bounds before it.
            unsafe { rows_avx512_impl::<true>(rows, qr, a, a_rs, a_cs, offs, taps, src, out) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers must guarantee AVX2+FMA support, `a` valid for reads
// at `r*a_rs + i*a_cs + t` (r < rows, i < offs.len(), t < taps.len()),
// `src` for reads at `offs[i] + taps[t] .. + qr`, and `out` for
// `rows * qr` writes.
unsafe fn tap_rows_avx2_impl(
    rows: usize,
    qr: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    offs: &[usize],
    taps: &[usize],
    src: *const f32,
    out: *mut f32,
) {
    // Tiles of up to 2 rows × 3 vectors: six running sums and six tap
    // sums, plus three window loads and one broadcast, fill the sixteen
    // YMM registers.
    let mut r0 = 0;
    while r0 < rows {
        let rt = (rows - r0).min(2);
        let mut q0 = 0;
        while q0 < qr {
            let vt = ((qr - q0) / 8).min(3);
            // SAFETY: rows r0..r0+rt and columns q0..q0+8*vt lie inside
            // the caller-guaranteed ranges.
            unsafe {
                let t = Tile {
                    a: a.add(r0 * a_rs),
                    a_rs,
                    a_cs,
                    offs,
                    taps,
                    src: src.add(q0),
                    out: out.add(r0 * qr + q0),
                    qr,
                };
                match (rt, vt) {
                    (2, 3) => tap_tile::<2, 3>(t),
                    (2, 2) => tap_tile::<2, 2>(t),
                    (2, _) => tap_tile::<2, 1>(t),
                    (_, 3) => tap_tile::<1, 3>(t),
                    (_, 2) => tap_tile::<1, 2>(t),
                    _ => tap_tile::<1, 1>(t),
                }
            }
            q0 += vt * 8;
        }
        r0 += rt;
    }
}

/// Operands of one tile of [`window_tile`] or [`tap_tile`] (or of
/// their 512-bit twins): `a`, `src` and `out` point at the tile's first
/// row and first column; the rest is as in [`tap_rows`] (the forward's
/// tile has the single tap `0`).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Tile<'a> {
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    offs: &'a [usize],
    taps: &'a [usize],
    src: *const f32,
    out: *mut f32,
    qr: usize,
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
// SAFETY: callers must guarantee AVX2+FMA support and, for the tile's
// rows 0..R, columns 0..8*V and tap `t.taps[0]`, the bounds of
// `window_rows_avx2_impl`.
unsafe fn window_tile<const R: usize, const V: usize>(t: Tile<'_>) {
    use std::arch::x86_64::{_mm256_setzero_ps, _mm256_storeu_ps};
    // SAFETY: the tap sum reads inside the caller-guaranteed ranges;
    // every store is at out[r*qr + 8v .. +8] with r < R, v < V.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        tap_sum(&t, 0, &mut acc);
        for (r, row) in acc.iter().enumerate() {
            for (v, &sum) in row.iter().enumerate() {
                _mm256_storeu_ps(t.out.add(r * t.qr + 8 * v), sum);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
// SAFETY: callers must guarantee AVX2+FMA support and the bounds of
// `tap_rows_avx2_impl` for rows 0..R and columns 0..8*V of the tile.
unsafe fn tap_tile<const R: usize, const V: usize>(t: Tile<'_>) {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_setzero_ps, _mm256_storeu_ps};
    // SAFETY: each tap sum reads inside the caller-guaranteed ranges;
    // every store is at out[r*qr + 8v .. +8] with r < R, v < V.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for ti in 0..t.taps.len() {
            let mut sum = [[_mm256_setzero_ps(); V]; R];
            tap_sum(&t, ti, &mut sum);
            for (acc_row, sum_row) in acc.iter_mut().zip(&sum) {
                for (a, &s) in acc_row.iter_mut().zip(sum_row) {
                    *a = _mm256_add_ps(*a, s);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &total) in row.iter().enumerate() {
                _mm256_storeu_ps(t.out.add(r * t.qr + 8 * v), total);
            }
        }
    }
}

/// Adds tap `ti`'s products into `sum`, term by term in ascending `i`,
/// one FMA per step: row `r`, vector `v` gains
/// `a[r·a_rs + i·a_cs + ti] · src[offs[i] + taps[ti] + 8v ..]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
// SAFETY: callers must guarantee AVX2+FMA support and reads of
// a[r*a_rs + i*a_cs + ti] and src[offs[i] + taps[ti] + 8v .. +8] for
// r < R, v < V and every i.
unsafe fn tap_sum<const R: usize, const V: usize>(
    t: &Tile<'_>,
    ti: usize,
    sum: &mut [[std::arch::x86_64::__m256; V]; R],
) {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps};
    // SAFETY: every offset below stays inside the caller-guaranteed
    // ranges listed above.
    unsafe {
        let a = t.a.add(ti);
        let src = t.src.add(t.taps[ti]);
        for (i, &off) in t.offs.iter().enumerate() {
            let window = src.add(off);
            let mut b = [_mm256_setzero_ps(); V];
            for (v, bv) in b.iter_mut().enumerate() {
                *bv = _mm256_loadu_ps(window.add(8 * v));
            }
            for (r, row) in sum.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(r * t.a_rs + i * t.a_cs));
                for (c, &bv) in row.iter_mut().zip(&b) {
                    *c = _mm256_fmadd_ps(av, bv, *c);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F twins of the direct convolution kernels (x86-64).
// ---------------------------------------------------------------------------

/// A row of `qr` columns (a multiple of 8) in 16-lane vectors: their
/// count, and the lane mask of the last one, whose upper half is off
/// when `qr` is an odd multiple of 8.
#[cfg(target_arch = "x86_64")]
fn zmm_row(qr: usize) -> (usize, __mmask16) {
    let last = if qr.is_multiple_of(16) {
        0xFFFF
    } else {
        0x00FF
    };
    (qr.div_ceil(16), last)
}

/// Runs the `R × V` instance of `$tile` named by `($rt, $vt)`, which
/// must be one of the listed shapes.
#[cfg(target_arch = "x86_64")]
macro_rules! run_tile {
    ($tile:ident($t:expr, $last:expr), ($rt:expr, $vt:expr) in $(($r:literal, $v:literal))+) => {
        match ($rt, $vt) {
            $(($r, $v) => $tile::<$r, $v>($t, $last),)+
            (rt, vt) => unreachable!("no {rt}×{vt} tile"),
        }
    };
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers must guarantee AVX-512F support and the bounds of
// `tap_rows_avx2_impl` (of `window_rows_avx2_impl` for the forward,
// whose `taps` is `[0]`).
unsafe fn rows_avx512_impl<const DX: bool>(
    rows: usize,
    qr: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    offs: &[usize],
    taps: &[usize],
    src: *const f32,
    out: *mut f32,
) {
    // The forward's tiles of up to 4 rows × 6 vectors hold 24 FMA
    // chains; with six window loads and one broadcast they fill 31 of
    // the 32 ZMM registers. The input gradient's tiles of up to 4 × 3
    // hold twelve running sums and twelve tap sums; with three window
    // loads and one broadcast they fill 28, at 0.58 loads per FMA
    // against the AVX2 2 × 3 tile's 0.83. A row of at most two vectors
    // (a 4×4 map's 24 columns) takes taller tiles instead, 8 × 2 and
    // 6 × 2, so the chains stay many.
    let (nv, last) = zmm_row(qr);
    let (rmax, vmax) = match (DX, nv <= 2) {
        (false, true) => (8, 2),
        (false, false) => (4, 6),
        (true, true) => (6, 2),
        (true, false) => (4, 3),
    };
    let mut r0 = 0;
    while r0 < rows {
        let rt = (rows - r0).min(rmax);
        let mut v0 = 0;
        while v0 < nv {
            let vt = (nv - v0).min(vmax);
            let mask = if v0 + vt == nv { last } else { 0xFFFF };
            // SAFETY: rows r0..r0+rt and vectors v0..v0+vt, whose lanes
            // outside `mask` are never touched, lie inside the caller-
            // guaranteed ranges.
            unsafe {
                let t = Tile {
                    a: a.add(r0 * a_rs),
                    a_rs,
                    a_cs,
                    offs,
                    taps,
                    src: src.add(16 * v0),
                    out: out.add(r0 * qr + 16 * v0),
                    qr,
                };
                if DX {
                    run_tile! { tap_tile_zmm(t, mask), (rt, vt) in
                        (6, 2) (6, 1) (5, 2) (5, 1) (4, 3) (4, 2) (4, 1) (3, 3)
                        (3, 2) (3, 1) (2, 3) (2, 2) (2, 1) (1, 3) (1, 2) (1, 1)
                    }
                } else {
                    run_tile! { window_tile_zmm(t, mask), (rt, vt) in
                        (8, 2) (8, 1) (7, 2) (7, 1) (6, 2) (6, 1) (5, 2) (5, 1)
                        (4, 6) (4, 5) (4, 4) (4, 3) (4, 2) (4, 1) (3, 6) (3, 5)
                        (3, 4) (3, 3) (3, 2) (3, 1) (2, 6) (2, 5) (2, 4) (2, 3)
                        (2, 2) (2, 1) (1, 6) (1, 5) (1, 4) (1, 3) (1, 2) (1, 1)
                    }
                }
            }
            v0 += vt;
        }
        r0 += rt;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
// SAFETY: callers must guarantee AVX-512F support and, for the tile's
// rows 0..R, its V vectors (lanes of the last one outside `last` never
// touched) and tap `t.taps[0]`, the bounds of `window_rows_avx2_impl`.
unsafe fn window_tile_zmm<const R: usize, const V: usize>(t: Tile<'_>, last: __mmask16) {
    use std::arch::x86_64::_mm512_setzero_ps;
    // SAFETY: the tap sum and the stores stay inside the caller-
    // guaranteed ranges.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        tap_sum_zmm(&t, 0, last, &mut acc);
        store_zmm(&t, last, &acc);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
// SAFETY: callers must guarantee AVX-512F support and the bounds of
// `tap_rows_avx2_impl` for rows 0..R and the V vectors of the tile
// (lanes of the last one outside `last` never touched).
unsafe fn tap_tile_zmm<const R: usize, const V: usize>(t: Tile<'_>, last: __mmask16) {
    use std::arch::x86_64::{_mm512_add_ps, _mm512_setzero_ps};
    // SAFETY: each tap sum and the stores stay inside the caller-
    // guaranteed ranges.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for ti in 0..t.taps.len() {
            let mut sum = [[_mm512_setzero_ps(); V]; R];
            tap_sum_zmm(&t, ti, last, &mut sum);
            for (acc_row, sum_row) in acc.iter_mut().zip(&sum) {
                for (a, &s) in acc_row.iter_mut().zip(sum_row) {
                    *a = _mm512_add_ps(*a, s);
                }
            }
        }
        store_zmm(&t, last, &acc);
    }
}

/// Stores row `r`, vector `v` of `acc` at `out[r·qr + 16v ..]`, the last
/// vector of each row under the lane mask `last`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
// SAFETY: callers must guarantee AVX-512F support and writes of
// out[r*qr + 16v .. +16] for r < R and v < V, lanes of v = V-1 outside
// `last` excepted.
unsafe fn store_zmm<const R: usize, const V: usize>(
    t: &Tile<'_>,
    last: __mmask16,
    acc: &[[__m512; V]; R],
) {
    use std::arch::x86_64::{_mm512_mask_storeu_ps, _mm512_storeu_ps};
    // SAFETY: every store is at out[r*qr + 16v ..] with r < R, v < V,
    // the last vector's masked-off lanes left untouched.
    unsafe {
        for (r, row) in acc.iter().enumerate() {
            let out = t.out.add(r * t.qr);
            for (v, &x) in row.iter().enumerate() {
                if v + 1 == V {
                    _mm512_mask_storeu_ps(out.add(16 * v), last, x);
                } else {
                    _mm512_storeu_ps(out.add(16 * v), x);
                }
            }
        }
    }
}

/// [`tap_sum`] at 512 bits: adds tap `ti`'s products into `sum`, term by
/// term in ascending `i`, one FMA per step, with the last vector's
/// window loaded under the lane mask `last` (its other lanes read as
/// `+0` and are never stored).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
// SAFETY: callers must guarantee AVX-512F support and reads of
// a[r*a_rs + i*a_cs + ti] and src[offs[i] + taps[ti] + 16v .. +16] for
// r < R, v < V and every i, lanes of v = V-1 outside `last` excepted.
unsafe fn tap_sum_zmm<const R: usize, const V: usize>(
    t: &Tile<'_>,
    ti: usize,
    last: __mmask16,
    sum: &mut [[__m512; V]; R],
) {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    // SAFETY: every offset below stays inside the caller-guaranteed
    // ranges listed above; masked-off lanes are not read.
    unsafe {
        let a = t.a.add(ti);
        let src = t.src.add(t.taps[ti]);
        for (i, &off) in t.offs.iter().enumerate() {
            let window = src.add(off);
            let mut b = [_mm512_setzero_ps(); V];
            for (v, bv) in b.iter_mut().enumerate() {
                *bv = if v + 1 == V {
                    _mm512_maskz_loadu_ps(last, window.add(16 * v))
                } else {
                    _mm512_loadu_ps(window.add(16 * v))
                };
            }
            for (r, row) in sum.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * t.a_rs + i * t.a_cs));
                for (c, &bv) in row.iter_mut().zip(&b) {
                    *c = _mm512_fmadd_ps(av, bv, *c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(SimdMode::Scalar.name(), "scalar");
        assert_eq!(SimdMode::Avx2.name(), "avx2");
    }

    #[test]
    fn set_mode_rejects_unavailable_isa() {
        let _guard = mode_test_lock();
        let prior = simd_mode();
        if !avx2_available() {
            assert!(set_simd_mode(SimdMode::Avx2).is_err());
        } else {
            assert!(set_simd_mode(SimdMode::Avx2).is_ok());
            assert_eq!(simd_mode(), SimdMode::Avx2);
        }
        assert!(set_simd_mode(SimdMode::Scalar).is_ok());
        assert_eq!(simd_mode(), SimdMode::Scalar);
        set_simd_mode(prior).expect("the prior mode was available");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tiles_match_scalar_reference_values() {
        if !avx2_available() {
            return;
        }
        let kc = 37;
        // Integer-valued operands: products and partial sums are exact
        // in f32, so FMA and mul+add round identically and the tile
        // must match the scalar computation bit for bit.
        let pa: Vec<f32> = (0..kc * 8).map(|i| ((i % 7) as f32) - 3.0).collect();
        let pb: Vec<f32> = (0..kc * 8).map(|i| ((i % 5) as f32) - 2.0).collect();
        let mut acc = [0.0f32; ACC_LEN];
        micro_8x8_avx2(kc, &pa, &pb, &mut acc);
        for r in 0..8 {
            for c in 0..8 {
                let want: f32 = (0..kc).map(|p| pa[p * 8 + r] * pb[p * 8 + c]).sum::<f32>();
                assert_eq!(acc[r * 8 + c].to_bits(), want.to_bits(), "8x8 r{r} c{c}");
            }
        }
    }

    /// Whether the 512-bit twins run on this CPU. Where they do not, the
    /// note goes straight to stderr: libtest captures a passing test's
    /// `eprintln!`, but not a direct write.
    #[cfg(target_arch = "x86_64")]
    fn twins_run_here(test: &str) -> bool {
        if direct_width() == Width::Avx512 {
            return true;
        }
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "note: {test}: this CPU lacks avx512f, so the 512-bit twins were not exercised"
        );
        false
    }

    /// Values in [-1, 1) with full 24-bit mantissas from a fixed LCG, so
    /// every FMA rounds and any change of operation order shows in the
    /// bits.
    #[cfg(target_arch = "x86_64")]
    fn values(len: usize, seed: usize) -> Vec<f32> {
        let mut x = (seed as u32).wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// Elements past the end of `out`, which no kernel may write.
    #[cfg(target_arch = "x86_64")]
    const TAIL: usize = 24;

    /// Runs `kernel` at both widths on an `out` of `len` elements that is
    /// the prefix of a larger NaN-filled buffer, after copying `init`
    /// into it (the GEMM accumulates into `out`; the conv kernels
    /// overwrite it and get the NaNs). Checks that both widths store
    /// every element (operands are finite, so no result is NaN), agree
    /// bit for bit, and leave the tail NaN. Returns the AVX2 output.
    #[cfg(target_arch = "x86_64")]
    fn assert_twins_agree(
        len: usize,
        init: Option<&[f32]>,
        what: &dyn Fn() -> String,
        kernel: impl Fn(Width, &mut [f32]),
    ) -> Vec<f32> {
        let [mut ymm, zmm] = [Width::Avx2, Width::Avx512].map(|width| {
            let mut buf = vec![f32::NAN; len + TAIL];
            if let Some(init) = init {
                buf[..len].copy_from_slice(init);
            }
            kernel(width, &mut buf[..len]);
            buf
        });
        for (buf, width) in [(&ymm, "AVX2"), (&zmm, "AVX-512")] {
            if let Some(j) = buf[..len].iter().position(|v| v.is_nan()) {
                panic!("{}: {width} left element {j} unstored", what());
            }
            assert!(
                buf[len..].iter().all(|v| v.is_nan()),
                "{}: {width} wrote past the end of `out`",
                what()
            );
        }
        if let Some(j) = (0..len).find(|&j| ymm[j].to_bits() != zmm[j].to_bits()) {
            panic!("{}: element {j}: {} vs {}", what(), ymm[j], zmm[j]);
        }
        ymm.truncate(len);
        ymm
    }

    /// Every forward geometry the twin must reproduce: 1, 9 and 25 terms
    /// (the im2col rows of a 1×1, 3×3 and 5×5 filter over one channel),
    /// rows 1–17 (every tall-tile remainder) and row widths 8–296 (whole
    /// and half-masked last vectors).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn window_rows_twin_matches_avx2_bit_for_bit() {
        if !twins_run_here("window_rows_twin_matches_avx2_bit_for_bit") {
            return;
        }
        for terms in [1, 9, 25] {
            // Overlapping windows at any offset, as a padded sample has.
            let offs: Vec<usize> = (0..terms).map(|i| (i * 7) % 19).collect();
            for qr in (8..=296).step_by(8) {
                let src = values(18 + qr, qr);
                for rows in 1..=17 {
                    let a = values(rows * terms, rows * 31 + terms);
                    assert_twins_agree(
                        rows * qr,
                        None,
                        &|| format!("window_rows {rows}×{qr}, {terms} terms"),
                        |width, out| window_rows(width, &a, terms, 1, &offs, &src, out, qr),
                    );
                }
            }
        }
    }

    /// The input gradient's twin over 1, 9 and 25 taps (1×1, 3×3 and 5×5
    /// filters), three output channels per tap, rows 1–17 and row widths
    /// 8–296, with the weights laid out as the dX reads them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tap_rows_twin_matches_avx2_bit_for_bit() {
        if !twins_run_here("tap_rows_twin_matches_avx2_bit_for_bit") {
            return;
        }
        let chans = 3;
        let offs: Vec<usize> = (0..chans).map(|o| o * 11).collect();
        for n_taps in [1, 9, 25] {
            let taps: Vec<usize> = (0..n_taps).map(|t| (t * 5) % 13).collect();
            for qr in (8..=296).step_by(8) {
                let src = values(22 + 12 + qr, qr + 1);
                for rows in 1..=17 {
                    // Row c, term o, tap t: a[(o·rows + c)·taps + t].
                    let a = values(chans * rows * n_taps, rows * 37 + n_taps);
                    assert_twins_agree(
                        rows * qr,
                        None,
                        &|| format!("tap_rows {rows}×{qr}, {n_taps} taps"),
                        |width, out| {
                            tap_rows(
                                width,
                                &a,
                                n_taps,
                                rows * n_taps,
                                &offs,
                                &taps,
                                &src,
                                out,
                                qr,
                            )
                        },
                    );
                }
            }
        }
    }

    /// The direct GEMM's twin, accumulating into a prefilled `out`, at
    /// depths 1, 9 and 25, rows 1–17, widths 1–17 (every masked tail)
    /// and 24–296, with A row-major and transposed. Both widths must
    /// also equal the per-element chain of scalar FMAs, so every element
    /// is proven stored although `out` starts finite.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn direct_rows_twin_matches_avx2_bit_for_bit() {
        if !twins_run_here("direct_rows_twin_matches_avx2_bit_for_bit") {
            return;
        }
        for k in [1, 9, 25] {
            for n in (1..=17).chain((24..=296).step_by(8)) {
                let b_rs = n + 3;
                let b = values((k - 1) * b_rs + n, n * 7 + k);
                for rows in 1..=17 {
                    let init = values(rows * n, rows * 41 + n);
                    let a = values(rows * k, rows * 43 + k);
                    for (a_rs, a_cs) in [(k, 1), (1, rows)] {
                        let got = assert_twins_agree(
                            rows * n,
                            Some(&init),
                            &|| format!("direct_rows {rows}×{n}, k = {k}, A strides {a_rs}/{a_cs}"),
                            |width, out| direct_rows(width, n, k, &a, 0, a_rs, a_cs, &b, b_rs, out),
                        );
                        for (e, v) in got.iter().enumerate() {
                            let (i, j) = (e / n, e % n);
                            let want = (0..k).fold(init[e], |acc, p| {
                                a[i * a_rs + p * a_cs].mul_add(b[p * b_rs + j], acc)
                            });
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "direct_rows {rows}×{n} k{k} [{i}][{j}]"
                            );
                        }
                    }
                }
            }
        }
    }
}
