use crate::TensorError;

/// A dense, row-major `f32` tensor.
///
/// Shapes follow the NCHW convention used throughout the workspace:
/// activations are `[batch, channels, height, width]`, convolution weights
/// are `[out_channels, in_channels, kernel_h, kernel_w]`, and matrices are
/// `[rows, cols]`.
///
/// # Example
///
/// ```
/// use cap_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3, 4, 4]);
/// assert_eq!(t.numel(), 96);
/// assert_eq!(t.shape(), &[2, 3, 4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape,
                data_len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Creates a tensor by evaluating `f` at each linear index.
    pub fn from_fn(shape: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: (0..numel).map(f).collect(),
        }
    }

    /// The dimensions of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.ndim()`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Immutable view of the backing data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the new shape has a
    /// different element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Linear offset of an NCHW index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the tensor is not 4-dimensional or the
    /// index is out of range.
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && h < self.shape[2] && w < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Reads an element of a 4-D tensor.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.offset4(n, c, h, w)]
    }

    /// Writes an element of a 4-D tensor.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.offset4(n, c, h, w);
        self.data[i] = v;
    }

    /// Reads an element of a 2-D tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Writes an element of a 2-D tensor.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        self.data[r * cols + c] = v;
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// In-place element-wise sum: [`Tensor::add`] written over `self`
    /// instead of into a new buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add_in_place(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "add",
            });
        }
        crate::run_pass(AddInPlace {
            acc: &mut self.data,
            other: &other.data,
        });
        Ok(())
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of absolute values (L1 norm) of all elements, with an `f64`
    /// accumulator.
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x.abs())).sum()
    }

    /// Euclidean (Frobenius) norm of all elements.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt()
    }

    fn zip_map(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op,
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// `acc += other`, element by element: the residual blocks' adds.
struct AddInPlace<'a> {
    acc: &'a mut [f32],
    other: &'a [f32],
}

impl crate::ElementPass for AddInPlace<'_> {
    #[inline(always)]
    fn run(self) {
        for (a, &b) in self.acc.iter_mut().zip(self.other) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 7.0).data().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn offset4_is_row_major() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 5.0);
        assert_eq!(t.at4(0, 1, 0, 0), 20.0);
        assert_eq!(t.at4(1, 0, 0, 0), 60.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::ones(&[2, 2]);
        assert_eq!(a.add(&b).unwrap().data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.mul(&a).unwrap().data(), &[1.0, 4.0, 9.0, 16.0]);
        assert!(a.add(&Tensor::ones(&[3])).is_err());
    }

    /// The residual add gives the same bits in both frames, over every
    /// pairing of two special values and every vector tail.
    #[test]
    fn add_in_place_matches_across_frames() {
        use crate::simd::{assert_frames_agree, specials, SPECIALS};
        for len in (1..=17).chain([67]) {
            for shift in 0..SPECIALS.len() {
                assert_frames_agree(&format!("add_in_place len {len} shift {shift}"), || {
                    let mut a = Tensor::from_vec(vec![len], specials(len, 0)).unwrap();
                    let b = Tensor::from_vec(vec![len], specials(len, shift)).unwrap();
                    a.add_in_place(&b).unwrap();
                    a.data().to_vec()
                });
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[4]);
        let b = Tensor::ones(&[4]);
        a.axpy(2.0, &b).unwrap();
        a.axpy(-0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5; 4]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![2], vec![3.0, -4.0]).unwrap();
        assert_eq!(t.l1_norm(), 7.0);
        assert!((t.l2_norm() - 5.0).abs() < 1e-12);
    }
}
