use crate::gemm::{gemm, MatRef};
use crate::{Tensor, TensorError};

/// Multiplies two matrices: `a` of shape `[m, k]` times `b` of shape
/// `[k, n]`, producing `[m, n]`.
///
/// Backed by the cache-blocked, register-blocked GEMM in `crate::gemm`;
/// large products are distributed across the `cap-par` pool in
/// deterministic row blocks, so the result is bitwise identical for any
/// `CAP_THREADS` setting.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if either operand is not 2-D and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use cap_tensor::{matmul, Tensor};
/// # fn main() -> Result<(), cap_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(vec![2, 1], vec![3.0, 4.0])?;
/// assert_eq!(matmul(&a, &b)?.data(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.matmul");
    let (m, k) = check2d(a, "matmul lhs")?;
    let (kb, n) = check2d(b, "matmul rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        MatRef::row_major(a.data(), k),
        MatRef::row_major(b.data(), n),
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// Computes `aᵀ · b` without materialising the transpose:
/// `a` is `[k, m]`, `b` is `[k, n]`, result is `[m, n]`.
///
/// Backed by the same blocked GEMM as [`matmul`]; the transpose is a
/// stride description, not a copy.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] for non-matrices and
/// [`TensorError::ShapeMismatch`] if the shared dimension `k` disagrees.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.matmul_ta");
    let (k, m) = check2d(a, "matmul_transpose_a lhs")?;
    let (kb, n) = check2d(b, "matmul_transpose_a rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_transpose_a",
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        MatRef::transposed(a.data(), m),
        MatRef::row_major(b.data(), n),
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// Computes `a · bᵀ` without materialising the transpose:
/// `a` is `[m, k]`, `b` is `[n, k]`, result is `[m, n]`.
///
/// Backed by the same blocked GEMM as [`matmul`]; the transpose is a
/// stride description, not a copy.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] for non-matrices and
/// [`TensorError::ShapeMismatch`] if the shared dimension `k` disagrees.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.matmul_tb");
    let (m, k) = check2d(a, "matmul_transpose_b lhs")?;
    let (n, kb) = check2d(b, "matmul_transpose_b rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_transpose_b",
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        MatRef::row_major(a.data(), k),
        MatRef::transposed(b.data(), k),
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// Multiplies `a · b` with a zero-skip on elements of `a`, for operands
/// known to be mostly zero — e.g. the doubly-blocked Toeplitz matrices of
/// [`crate::toeplitz`], whose density is `k²/(in_h·in_w)`.
///
/// The dense kernels deliberately dropped this branch (it costs a test
/// per element on dense data and defeats the register-blocked
/// microkernel); this entry point keeps the old i-k-j skip loop for
/// callers whose sparsity makes it a win. Serial by construction.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if either operand is not 2-D and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_sparse_aware(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.matmul_sparse");
    let (m, k) = check2d(a, "matmul_sparse_aware lhs")?;
    let (kb, n) = check2d(b, "matmul_sparse_aware rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_sparse_aware",
        });
    }
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Transposes a matrix `[m, n]` into `[n, m]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `a` is not 2-D.
pub fn transpose2d(a: &Tensor) -> Result<Tensor, TensorError> {
    let (m, n) = check2d(a, "transpose2d")?;
    let ad = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_vec(vec![n, m], out)
}

fn check2d(t: &Tensor, what: &'static str) -> Result<(usize, usize), TensorError> {
    if t.ndim() != 2 {
        return Err(TensorError::InvalidShape {
            shape: t.shape().to_vec(),
            expected: what,
        });
    }
    Ok((t.dim(0), t.dim(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                out.set2(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_fn(&[4, 7], |i| (i as f32 * 0.37).sin());
        let b = Tensor::from_fn(&[7, 5], |i| (i as f32 * 0.11).cos());
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_matches_naive_above_parallel_threshold() {
        // 2·90·70·300 flops clear the parallel dispatch threshold, and the
        // shape is ragged against every blocking constant.
        let a = Tensor::from_fn(&[90, 300], |i| (i as f32 * 0.013).sin());
        let b = Tensor::from_fn(&[300, 70], |i| (i as f32 * 0.007).cos());
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_aware_matches_dense() {
        let a = Tensor::from_fn(&[9, 14], |i| {
            if i % 3 == 0 {
                (i as f32 * 0.2).sin()
            } else {
                0.0
            }
        });
        let b = Tensor::from_fn(&[14, 6], |i| (i as f32 * 0.11).cos());
        let dense = matmul(&a, &b).unwrap();
        let sparse = matmul_sparse_aware(&a, &b).unwrap();
        for (x, y) in dense.data().iter().zip(sparse.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(matmul_sparse_aware(&a, &Tensor::zeros(&[3, 3])).is_err());
    }

    #[test]
    fn transposed_variants_match() {
        let a = Tensor::from_fn(&[6, 4], |i| (i as f32 * 0.13).sin());
        let b = Tensor::from_fn(&[6, 3], |i| (i as f32 * 0.29).cos());
        let at = transpose2d(&a).unwrap();
        let direct = matmul(&at, &b).unwrap();
        let fused = matmul_transpose_a(&a, &b).unwrap();
        for (x, y) in direct.data().iter().zip(fused.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_fn(&[5, 6], |i| (i as f32 * 0.07).sin());
        let bt = transpose2d(&b).unwrap();
        let direct2 = matmul(&c, &transpose2d(&bt).unwrap()).unwrap();
        let fused2 = matmul_transpose_b(&c, &bt).unwrap();
        for (x, y) in direct2.data().iter().zip(fused2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_match_on_large_ragged_shapes() {
        let a = Tensor::from_fn(&[300, 67], |i| (i as f32 * 0.017).sin());
        let b = Tensor::from_fn(&[300, 41], |i| (i as f32 * 0.023).cos());
        let fused = matmul_transpose_a(&a, &b).unwrap();
        let direct = matmul(&transpose2d(&a).unwrap(), &b).unwrap();
        for (x, y) in fused.data().iter().zip(direct.data()) {
            assert!((x - y).abs() < 1e-3);
        }

        let c = Tensor::from_fn(&[67, 300], |i| (i as f32 * 0.019).sin());
        let d = Tensor::from_fn(&[41, 300], |i| (i as f32 * 0.029).cos());
        let fused2 = matmul_transpose_b(&c, &d).unwrap();
        let direct2 = matmul(&c, &transpose2d(&d).unwrap()).unwrap();
        for (x, y) in fused2.data().iter().zip(direct2.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let _guard = crate::simd::mode_test_lock();
        let a = Tensor::from_fn(&[129, 310], |i| (i as f32 * 0.0131).sin());
        let b = Tensor::from_fn(&[310, 73], |i| (i as f32 * 0.0077).cos());
        cap_par::set_threads(1);
        let serial = matmul(&a, &b).unwrap();
        let serial_ta = matmul_transpose_a(&transpose2d(&a).unwrap(), &b).unwrap();
        cap_par::set_threads(4);
        let parallel = matmul(&a, &b).unwrap();
        let parallel_ta = matmul_transpose_a(&transpose2d(&a).unwrap(), &b).unwrap();
        cap_par::set_threads(1);
        for (x, y) in serial.data().iter().zip(parallel.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in serial_ta.data().iter().zip(parallel_ta.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        let back = transpose2d(&transpose2d(&a).unwrap()).unwrap();
        assert_eq!(a, back);
    }
}
