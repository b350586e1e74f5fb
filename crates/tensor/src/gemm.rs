//! Cache-blocked GEMM shared by the three matmul variants.
//!
//! The entry point asks [`crate::select`] for a plan and runs one of
//! two paths:
//!
//! - **direct** — small shapes (all dims ≤ 256) run an unpacked serial
//!   kernel; operands already fit in cache, so packing was pure
//!   overhead (a measured regression at 192³).
//! - **packed serial / parallel** — the classic BLIS/GotoBLAS
//!   structure: `n` tiled by `nc`, `k` by the fixed [`KC`], `m` by
//!   `mc`; operand panels packed into `mr`×`kc` / `kc`×`nr` strips and
//!   multiplied by a register-tile microkernel (the AVX2+FMA 8×8 tile
//!   in [`crate::simd`], the portable scalar 4×8 otherwise), with one
//!   fixed blocking per `CAP_SIMD` mode. The parallel path
//!   double-buffers B panels: the next panel is packed by a pool task
//!   while the current one is being computed.
//!
//! # Parallelism and determinism
//!
//! Every output element is owned by exactly one task, and its
//! accumulation order — ascending `pc` blocks of the fixed size
//! [`KC`], each summed in ascending `p` order — depends only on the
//! shape, never on the thread count or on blocking choices. For a
//! fixed `CAP_SIMD` mode, results are bitwise identical for any
//! `CAP_THREADS` and any `mc`/`nc`. Only switching between scalar
//! (separate multiply and add) and AVX2 (fused) changes rounding.

use std::cell::RefCell;

use crate::select::{self, Config, Micro, Plan};
use crate::simd::{self, SimdMode, ACC_LEN};

pub(crate) use crate::select::KC;

/// Below this many flops (`2·m·n·k`) the dispatch overhead of the pool
/// outweighs the work and the packed kernel stays on the calling
/// thread.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 17;

/// A borrowed matrix of logical shape `rows × cols` with arbitrary
/// strides, letting one kernel serve `A`, `Aᵀ`, `B` and `Bᵀ` without
/// copying.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// A row-major `rows × cols` matrix.
    pub(crate) fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The transpose of a row-major `cols × rows` matrix, viewed as
    /// `rows × cols` without copying.
    pub(crate) fn transposed(data: &'a [f32], rows: usize) -> Self {
        MatRef {
            data,
            row_stride: 1,
            col_stride: rows,
        }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.row_stride + c * self.col_stride]
    }
}

thread_local! {
    /// Per-thread packing buffers (packed A strips, packed B panel) so
    /// concurrent row-block tasks never share scratch memory. Borrows
    /// are confined to code that never re-enters the pool, because a
    /// draining caller may execute unrelated tasks inline.
    static PACK_BUFFERS: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `len` floats of `buf` starting on a 64-byte boundary (one cache
/// line). The allocator only promises 16 bytes, so without this the
/// packed panels' offset within a line, and with it the packed
/// kernels' speed, would depend on which allocations the thread made
/// before.
fn cache_aligned(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    const LINE: usize = 64 / std::mem::size_of::<f32>();
    buf.resize(len + LINE - 1, 0.0);
    let off = buf.as_ptr().align_offset(64).min(LINE - 1);
    &mut buf[off..off + len]
}

/// Computes `out = A · B` where `A` is logically `m × k`, `B` is `k × n`
/// and `out` is a zeroed row-major `m × n` buffer.
pub(crate) fn gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return; // out is already zero
    }
    let mode = simd::simd_mode();
    let plan = select::plan(m, n, k, b.col_stride == 1, mode);
    select::observe(&plan);
    match plan {
        Plan::Direct => direct(n, k, a, b, out, mode),
        Plan::Packed(cfg) => packed(m, n, k, a, b, out, cfg),
    }
}

fn count_kernel(name: &'static str) {
    if cap_obs::enabled() {
        cap_obs::counter_add(name, 1);
    }
}

/// Unpacked small-shape path: serial, operands read in place.
fn direct(n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], mode: SimdMode) {
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Avx2 && b.col_stride == 1 {
        let width = simd::direct_width();
        count_kernel(match width {
            simd::Width::Avx2 => "tensor.gemm.kernel.direct_avx2_total",
            simd::Width::Avx512 => "tensor.gemm.kernel.direct_avx512_total",
        });
        simd::direct_rows(
            width,
            n,
            k,
            a.data,
            0,
            a.row_stride,
            a.col_stride,
            b.data,
            b.row_stride,
            out,
        );
        return;
    }
    let _ = mode;
    count_kernel("tensor.gemm.kernel.direct_scalar_total");
    direct_scalar(n, k, a, b, out);
}

/// Scalar direct kernel, any operand layout: `i`-`p`-`j` loop order
/// (row of B streamed per `p`), separate multiply and add, matching
/// the scalar packed path's per-element ascending-`p` order for
/// `k ≤ KC`.
fn direct_scalar(n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let m = out.len() / n;
    if b.col_stride == 1 && a.col_stride == 1 {
        // Fully contiguous operands: hoist both row slices so the
        // inner loop carries no stride arithmetic (this path must not
        // lose to the naive reference loop, which is identical).
        for i in 0..m {
            let orow = &mut out[i * n..][..n];
            let arow = &a.data[i * a.row_stride..][..k];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b.data[p * b.row_stride..][..n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else if b.col_stride == 1 {
        for i in 0..m {
            let orow = &mut out[i * n..][..n];
            for p in 0..k {
                let av = a.at(i, p);
                let brow = &b.data[p * b.row_stride..][..n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else {
        for i in 0..m {
            for p in 0..k {
                let av = a.at(i, p);
                for j in 0..n {
                    out[i * n + j] += av * b.at(p, j);
                }
            }
        }
    }
}

/// Packed blocked path with the given configuration.
fn packed(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    cfg: Config,
) {
    count_kernel(match cfg.micro {
        Micro::Scalar4x8 => "tensor.gemm.kernel.scalar_4x8_total",
        Micro::Avx2_8x8 => "tensor.gemm.kernel.avx2_8x8_total",
    });
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if flops < PARALLEL_FLOP_THRESHOLD || cap_par::effective_parallelism() == 1 {
        packed_serial(m, n, k, a, b, out, cfg);
    } else {
        packed_parallel(m, n, k, a, b, out, cfg);
    }
}

/// Serial blocked kernel (also the per-call body when the pool would
/// not split). Packing scratch lives in the thread-local buffers; the
/// borrow never spans a pool dispatch.
fn packed_serial(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    cfg: Config,
) {
    let (mr, nr) = (cfg.micro.mr(), cfg.micro.nr());
    PACK_BUFFERS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (pa, pb) = &mut *bufs;
        let pa = cache_aligned(pa, cfg.mc.div_ceil(mr) * mr * KC);
        let pb = cache_aligned(pb, cfg.nc.div_ceil(nr) * nr * KC);
        for jc in (0..n).step_by(cfg.nc) {
            let ncc = cfg.nc.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kcc = KC.min(k - pc);
                pack_b(b, pc, kcc, jc, ncc, nr, pb);
                for ic in (0..m).step_by(cfg.mc) {
                    let mcc = cfg.mc.min(m - ic);
                    pack_a(a, ic, mcc, pc, kcc, mr, pa);
                    macro_kernel(cfg.micro, mcc, ncc, kcc, pa, pb, &mut out[ic * n..], n, jc);
                }
            }
        }
    });
}

/// Parallel blocked kernel with double-buffered B packing: per
/// `(jc, pc)` panel, one pool task packs the *next* panel while the
/// row-block tasks compute against the current one. B is packed once
/// per panel (the serial-per-task design packed it once per row
/// block).
fn packed_parallel(
    _m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    cfg: Config,
) {
    let nr = cfg.micro.nr();
    let panel_len = cfg.nc.div_ceil(nr) * nr * KC;
    let mut panels: Vec<(usize, usize, usize, usize)> = Vec::new();
    for jc in (0..n).step_by(cfg.nc) {
        let ncc = cfg.nc.min(n - jc);
        for pc in (0..k).step_by(KC) {
            panels.push((jc, ncc, pc, KC.min(k - pc)));
        }
    }
    let mut cur = vec![0.0f32; panel_len];
    let mut next = vec![0.0f32; panel_len];
    if let Some(&(jc, ncc, pc, kcc)) = panels.first() {
        pack_b(b, pc, kcc, jc, ncc, nr, &mut cur);
    }
    for idx in 0..panels.len() {
        let (jc, ncc, pc, kcc) = panels[idx];
        {
            let cur_ref: &[f32] = &cur;
            let mut tasks: Vec<cap_par::ScopedTask<'_>> = Vec::new();
            // Pack-ahead first, so it overlaps the compute tasks.
            if let Some(&(njc, nncc, npc, nkcc)) = panels.get(idx + 1) {
                let next_slice: &mut [f32] = &mut next;
                tasks.push(Box::new(move || {
                    pack_b(b, npc, nkcc, njc, nncc, nr, next_slice);
                }));
            }
            for (block_idx, chunk) in out.chunks_mut(cfg.mc * n).enumerate() {
                tasks.push(Box::new(move || {
                    let rows = chunk.len() / n;
                    compute_row_block(
                        a,
                        block_idx * cfg.mc,
                        rows,
                        n,
                        jc,
                        ncc,
                        pc,
                        kcc,
                        cur_ref,
                        cfg,
                        chunk,
                    );
                }));
            }
            cap_par::run_tasks(tasks);
        }
        std::mem::swap(&mut cur, &mut next);
    }
}

/// One parallel task: pack this task's A strips and run the macro
/// kernel against the shared packed B panel. The thread-local borrow
/// stays inside this body, which performs no pool dispatch.
#[allow(clippy::too_many_arguments)]
fn compute_row_block(
    a: MatRef<'_>,
    row0: usize,
    rows: usize,
    n: usize,
    jc: usize,
    ncc: usize,
    pc: usize,
    kcc: usize,
    pb: &[f32],
    cfg: Config,
    out: &mut [f32],
) {
    let mr = cfg.micro.mr();
    PACK_BUFFERS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (pa, _) = &mut *bufs;
        let pa = cache_aligned(pa, cfg.mc.div_ceil(mr) * mr * KC);
        pack_a(a, row0, rows, pc, kcc, mr, pa);
        macro_kernel(cfg.micro, rows, ncc, kcc, pa, pb, out, n, jc);
    });
}

/// Packs `A[row0 .. row0+mc, pc .. pc+kc]` into `mr`-row strips laid
/// out `p`-major (`strip · kc · mr + p · mr + r`), zero-padding the
/// ragged final strip so the microkernel never branches on row
/// validity.
fn pack_a(a: MatRef<'_>, row0: usize, mc: usize, pc: usize, kc: usize, mr: usize, pa: &mut [f32]) {
    for (strip, ir) in (0..mc).step_by(mr).enumerate() {
        let live = mr.min(mc - ir);
        let dst = &mut pa[strip * kc * mr..(strip + 1) * kc * mr];
        for p in 0..kc {
            let d = &mut dst[p * mr..p * mr + mr];
            for (r, slot) in d.iter_mut().enumerate() {
                *slot = if r < live {
                    a.at(row0 + ir + r, pc + p)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `B[pc .. pc+kc, jc .. jc+nc]` into `nr`-column strips laid
/// out `p`-major (`strip · kc · nr + p · nr + c`), zero-padding the
/// ragged final strip.
fn pack_b(b: MatRef<'_>, pc: usize, kc: usize, jc: usize, nc: usize, nr: usize, pb: &mut [f32]) {
    for (strip, jr) in (0..nc).step_by(nr).enumerate() {
        let live = nr.min(nc - jr);
        let dst = &mut pb[strip * kc * nr..(strip + 1) * kc * nr];
        for p in 0..kc {
            let d = &mut dst[p * nr..p * nr + nr];
            for (c, slot) in d.iter_mut().enumerate() {
                *slot = if c < live {
                    b.at(pc + p, jc + jr + c)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Runs the selected microkernel over every `mr`×`nr` tile of an
/// `mc × nc` block, accumulating into `out` (row-major with leading
/// dimension `n`, columns offset by `jc`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    micro: Micro,
    mc: usize,
    nc: usize,
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    n: usize,
    jc: usize,
) {
    let (mr, nr) = (micro.mr(), micro.nr());
    for (bstrip, jr) in (0..nc).step_by(nr).enumerate() {
        let live_n = nr.min(nc - jr);
        let pbs = &pb[bstrip * kc * nr..(bstrip + 1) * kc * nr];
        for (astrip, ir) in (0..mc).step_by(mr).enumerate() {
            let live_m = mr.min(mc - ir);
            let pas = &pa[astrip * kc * mr..(astrip + 1) * kc * mr];
            let mut acc = [0.0f32; ACC_LEN];
            run_micro(micro, kc, pas, pbs, &mut acc);
            for r in 0..live_m {
                let orow = &mut out[(ir + r) * n + jc + jr..][..live_n];
                for (c, o) in orow.iter_mut().enumerate() {
                    *o += acc[r * nr + c];
                }
            }
        }
    }
}

/// Dispatches one register tile. The accumulator is a flat
/// `mr`-major/`nr`-stride array shared by all kernels.
fn run_micro(micro: Micro, kc: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; ACC_LEN]) {
    match micro {
        Micro::Scalar4x8 => micro_scalar_4x8(kc, pa, pb, acc),
        #[cfg(target_arch = "x86_64")]
        Micro::Avx2_8x8 => simd::micro_8x8_avx2(kc, pa, pb, acc),
        // The selector never picks a SIMD kernel off-architecture.
        #[cfg(not(target_arch = "x86_64"))]
        _ => micro_scalar_4x8(kc, pa, pb, acc),
    }
}

/// Portable 4×8 register tile: a rank-`kc` update accumulated in
/// ascending `p` order with separate multiply and add — the
/// cross-architecture reference kernel.
#[inline]
fn micro_scalar_4x8(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; ACC_LEN]) {
    for p in 0..kc {
        let av = &pa[p * 4..p * 4 + 4];
        let bv = &pb[p * 8..p * 8 + 8];
        for r in 0..4 {
            let a = av[r];
            for c in 0..8 {
                acc[r * 8 + c] += a * bv[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                }
            }
        }
        out.into_iter().map(|v| v as f32).collect()
    }

    fn fill(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * seed).sin()).collect()
    }

    fn run_packed(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], cfg: Config) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        packed(
            m,
            n,
            k,
            MatRef::row_major(a, k),
            MatRef::row_major(b, n),
            &mut out,
            cfg,
        );
        out
    }

    #[test]
    fn blocked_matches_reference_on_edge_shapes() {
        // Shapes straddling every blocking boundary: sub-tile, ragged
        // tiles, and k > KC so multiple pc blocks accumulate.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 4),
            (5, 11, KC + 17),
            (69, 8, 33),
            (65, 130, 300),
            (300, 280, 70),
        ] {
            let a = fill(m * k, 0.137);
            let b = fill(k * n, 0.291);
            let mut out = vec![0.0f32; m * n];
            gemm(
                m,
                n,
                k,
                MatRef::row_major(&a, k),
                MatRef::row_major(&b, n),
                &mut out,
            );
            let want = reference(m, n, k, &a, &b);
            for (i, (&got, &expect)) in out.iter().zip(want.iter()).enumerate() {
                let tol = 1e-4 * (1.0 + expect.abs());
                assert!(
                    (got - expect).abs() < tol,
                    "({m},{n},{k}) element {i}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn every_packed_config_matches_reference() {
        let (m, n, k) = (70, 90, 130);
        let a = fill(m * k, 0.173);
        let b = fill(k * n, 0.119);
        let want = reference(m, n, k, &a, &b);
        let mut configs = vec![select::SCALAR_PACKED];
        if crate::simd::avx2_available() {
            configs.push(select::AVX2_PACKED);
            configs.push(Config {
                micro: Micro::Avx2_8x8,
                mc: 48,
                nc: 64,
            });
        }
        for cfg in configs {
            let out = run_packed(m, n, k, &a, &b, cfg);
            for (i, (&got, &expect)) in out.iter().zip(want.iter()).enumerate() {
                let tol = 1e-4 * (1.0 + expect.abs());
                assert!(
                    (got - expect).abs() < tol,
                    "{} element {i}: {got} vs {expect}",
                    cfg.describe()
                );
            }
        }
    }

    #[test]
    fn avx2_tiles_and_blockings_are_bit_identical() {
        // The determinism contract: blocking parameters never change
        // output bits — only the ISA pin does.
        if !crate::simd::avx2_available() {
            return;
        }
        let (m, n, k) = (97, 123, KC + 40);
        let a = fill(m * k, 0.211);
        let b = fill(k * n, 0.307);
        let base = run_packed(m, n, k, &a, &b, select::AVX2_PACKED);
        for (mc, nc) in [(32, 64), (48, 96), (40, 200), (136, 24)] {
            let cfg = Config {
                micro: Micro::Avx2_8x8,
                mc,
                nc,
            };
            let got = run_packed(m, n, k, &a, &b, cfg);
            assert!(
                got.iter()
                    .zip(base.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "bits differ for {}",
                cfg.describe()
            );
        }
    }

    #[test]
    fn direct_path_matches_packed_on_strided_operands() {
        // a transposed A view through both paths.
        let (m, n, k) = (33, 40, 21);
        let a_t = fill(k * m, 0.31); // stores k×m
        let b = fill(k * n, 0.27);
        let want = {
            let mut a = vec![0.0f32; m * k];
            for i in 0..m {
                for p in 0..k {
                    a[i * k + p] = a_t[p * m + i];
                }
            }
            reference(m, n, k, &a, &b)
        };
        let mut out = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            MatRef::transposed(&a_t, m),
            MatRef::row_major(&b, n),
            &mut out,
        );
        for (i, (&got, &expect)) in out.iter().zip(want.iter()).enumerate() {
            let tol = 1e-4 * (1.0 + expect.abs());
            assert!((got - expect).abs() < tol, "element {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn transposed_views_index_correctly() {
        let m = 5;
        let k = 9;
        // data stores the k×m transpose; the view must read A[i][p].
        let data = fill(k * m, 0.41);
        let view = MatRef::transposed(&data, m);
        for i in 0..m {
            for p in 0..k {
                assert_eq!(view.at(i, p), data[p * m + i]);
            }
        }
    }

    #[test]
    fn pack_buffers_start_on_a_cache_line_whatever_the_allocation() {
        // Buffers of every capacity, grown and shrunk, each placed after
        // a differently sized allocation.
        let mut held = Vec::new();
        for (pad, len) in [(1, 5), (3, 300), (7, 4096), (2, 17), (5, 1)] {
            held.push(vec![0u8; pad * 4]);
            let mut buf = vec![1.0f32; pad];
            for len in [len, len * 3, len / 2] {
                let slice = cache_aligned(&mut buf, len);
                assert_eq!(slice.len(), len);
                assert_eq!(slice.as_ptr() as usize % 64, 0, "len {len}");
            }
        }
    }
}
