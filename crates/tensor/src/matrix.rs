//! Dense, row-major `f32` matrix — the storage type underneath every
//! autodiff node in this crate.
//!
//! All tensors in the FedDA reproduction are rank-2 (vectors are `1 × n`
//! matrices); this keeps shape logic simple and the kernels flat and
//! vectorisable. Kernels never allocate inside inner loops, and the
//! mutating variants (`add_assign`, `scale_assign`, …) exist so optimisers
//! and gradient accumulation can reuse buffers. The three matrix products
//! are thin entry points onto the register-tiled kernels in [`crate::gemm`].

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// ```
/// use fedda_tensor::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
/// assert_eq!(a.matmul(&b).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Create a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Create a `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            data,
            rows: 1,
            cols,
        }
    }

    /// Create a `n × 1` column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Self {
            data,
            rows,
            cols: 1,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices. Yields exactly `rows()` items, even
    /// when `cols() == 0` (each item is then the empty slice) — a plain
    /// `chunks_exact(cols)` would yield zero rows for an `m × 0` matrix.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        let cols = self.cols;
        (0..self.rows).map(move |r| &self.data[r * cols..(r + 1) * cols])
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self @ other` — plain matrix multiply on the register-tiled kernel
    /// ([`crate::gemm`]), bit-identical at every shape and thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::gemm::gemm_nn(self, other)
    }

    /// `self^T @ other` without materialising the transpose.
    ///
    /// # Panics
    /// Panics when the row counts differ.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        crate::gemm::gemm_tn(self, other)
    }

    /// `self @ other^T`.
    ///
    /// # Panics
    /// Panics when the column counts differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        crate::gemm::gemm_nt(self, other)
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self *= scalar`.
    pub fn scale_assign(&mut self, scalar: f32) {
        self.data.iter_mut().for_each(|x| *x *= scalar);
    }

    /// Elementwise sum (allocates).
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise product (allocates).
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "mul shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scalar product (allocates).
    pub fn scale(&self, scalar: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(scalar);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Gather rows by index: `out[i] = self[idx[i]]`.
    ///
    /// # Panics
    /// Panics (via bounds checks) when an index is out of range.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &j) in idx.iter().enumerate() {
            let j = j as usize;
            assert!(
                j < self.rows,
                "gather_rows: index {} out of {} rows",
                j,
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(j));
        }
        out
    }

    /// Scatter-add rows: `out[idx[i]] += self[i]`, with `out` having
    /// `out_rows` rows.
    pub fn scatter_add_rows(&self, idx: &[u32], out_rows: usize) -> Matrix {
        assert_eq!(
            idx.len(),
            self.rows,
            "scatter_add_rows: index count mismatch"
        );
        let mut out = Matrix::zeros(out_rows, self.cols);
        for (i, &j) in idx.iter().enumerate() {
            let j = j as usize;
            assert!(
                j < out_rows,
                "scatter_add_rows: index {} out of {} rows",
                j,
                out_rows
            );
            let src = self.row(i);
            for (o, &s) in out.row_mut(j).iter_mut().zip(src) {
                *o += s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_iter_yields_every_row_of_zero_width_matrices() {
        // Regression: the old chunks(cols) implementation yielded zero rows
        // for any m×0 matrix, silently skipping rows in row-wise loops.
        let m = Matrix::zeros(3, 0);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        // 0×n and 0×0 still yield nothing.
        assert_eq!(Matrix::zeros(0, 4).rows_iter().count(), 0);
        assert_eq!(Matrix::zeros(0, 0).rows_iter().count(), 0);
        // Sane shape unchanged: rows come out in order with correct width.
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.norm_sq() - 30.0).abs() < 1e-6);
        assert!(!a.has_non_finite());
        let nan = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(nan.has_non_finite());
    }

    #[test]
    fn gather_and_scatter_are_adjoint_shapes() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn empty_matrix_mean_is_zero() {
        let m = Matrix::zeros(0, 4);
        assert_eq!(m.mean(), 0.0);
        assert!(m.is_empty());
    }
}
