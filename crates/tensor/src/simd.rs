//! SIMD microkernels and the process-wide instruction-set pin.
//!
//! This is the **only** module in `cap-tensor` that may contain `unsafe`
//! code (the crate root carries `#![deny(unsafe_code)]`; this module
//! opts out with `#![allow(unsafe_code)]` and every block carries a
//! `// SAFETY:` justification checked by caplint rule R006). Everything
//! here is a leaf: the 8×8 register-tile kernel over packed panels,
//! one direct (unpacked) row kernel for small shapes, and the direct
//! convolutions' shifted-window kernels (one row kernel for the forward,
//! one tap-summing kernel for the input gradient). All loads and stores are
//! unaligned (`loadu`/`storeu`), so callers only have to guarantee
//! slice bounds, which the safe wrappers assert. Other architectures
//! run the scalar reference path.
//!
//! # Mode pin
//!
//! The instruction set is resolved **once per process** from the
//! `CAP_SIMD` environment variable (`scalar`, `avx2`, or `auto`, the
//! default) intersected with runtime CPU feature detection, so a run's
//! kernel choice is deterministic and recorded. [`set_simd_mode`]
//! exists for benches and tests that A/B both paths in one process.
//!
//! # Determinism
//!
//! Every kernel accumulates each output element in ascending `p`
//! (depth) order. All AVX2 kernels use one fused multiply-add per
//! element per step, so *every* AVX2 kernel produces bit-identical
//! results for the same operands — changing cache blocking never
//! changes bits. The scalar kernels use separate multiply and add,
//! which rounds differently from FMA; that is why the ISA pin, not the
//! selector, is the unit of numerical reproducibility (see DESIGN.md
//! §13).

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

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

/// Direct (unpacked) AVX2 row kernel for small shapes: computes
/// `out[i][j] += Σ_p a[i][p] · b[p][j]` for `rows` output rows, with
/// `b` row-major contiguous (`col_stride == 1`, leading dimension
/// `b_rs`). `a` may be strided (transposed views). Each element
/// accumulates ascending `p` with one FMA per step; the tail columns
/// (`n % 8`) use scalar FMA so the op sequence per element is uniform.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn direct_rows_avx2(
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
    // Bounds for every access the unsafe kernel performs.
    assert!(a.len() > a_off + (rows - 1) * a_rs + (k - 1) * a_cs);
    assert!(b.len() >= (k - 1) * b_rs + n);
    assert!(out.len() >= rows * n);
    // SAFETY: AVX2+FMA availability is guaranteed by the mode pin; the
    // index bounds are asserted just above.
    unsafe {
        direct_rows_avx2_impl(
            rows,
            n,
            k,
            a.as_ptr().add(a_off),
            a_rs,
            a_cs,
            b.as_ptr(),
            b_rs,
            out.as_mut_ptr(),
        )
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

/// Shifted-window row kernel of the direct forward convolution: for
/// every row `r` of `out` (rows of `qr` columns, `qr` a multiple of 8)
/// and every column `q`, the sum `Σ_i a[r·a_rs + i·a_cs] · src[offs[i] + q]`,
/// ascending `i`, starting at `+0` in its own register, one FMA per
/// step, exactly like [`direct_rows_avx2`] over a B whose row `i` is
/// the window at `offs[i]`. The sum is stored into `out`, overwriting
/// every element. Columns run in whole 8-lane vectors.
#[cfg(target_arch = "x86_64")]
pub(crate) fn window_rows_avx2(
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
    // Bounds for every access the unsafe kernel performs.
    assert_eq!(out.len(), rows * qr);
    assert!(a.len() > (rows - 1) * a_rs + (k - 1) * a_cs);
    assert!(offs.iter().all(|&o| o + qr <= src.len()));
    // SAFETY: AVX2+FMA availability is guaranteed by the mode pin; the
    // index bounds are asserted just above.
    unsafe {
        window_rows_avx2_impl(
            rows,
            qr,
            a.as_ptr(),
            a_rs,
            a_cs,
            offs,
            src.as_ptr(),
            out.as_mut_ptr(),
        )
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
/// is the one [`window_rows_avx2`] would compute over the windows at
/// `offs[i] + taps[t]`; the running sum adds them in tap order in a
/// register and is stored once, overwriting every element of `out`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_rows_avx2(
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
    // SAFETY: AVX2+FMA availability is guaranteed by the mode pin; the
    // index bounds are asserted just above.
    unsafe {
        tap_rows_avx2_impl(
            rows,
            qr,
            a.as_ptr(),
            a_rs,
            a_cs,
            offs,
            taps,
            src.as_ptr(),
            out.as_mut_ptr(),
        )
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

/// Operands of one [`window_tile`] or [`tap_tile`]: `a`, `src` and
/// `out` point at the tile's first row and first column; the rest is as
/// in [`tap_rows_avx2`] (the forward's tile has the single tap `0`).
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
}
