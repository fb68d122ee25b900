//! Dense, row-major `f32` matrix — the storage type underneath every
//! autodiff node in this crate.
//!
//! All tensors in the FedDA reproduction are rank-2 (vectors are `1 × n`
//! matrices); this keeps shape logic simple and the kernels flat and
//! vectorisable. Kernels never allocate inside inner loops; the optimiser
//! and gradient accumulation work on [`crate::ParamSet`]'s flat buffers,
//! not on `Matrix`. The three matrix products are thin entry points onto
//! the register-tiled kernels in [`crate::gemm`].

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// ```
/// use fedda_tensor::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
/// let c = a.matmul(&b);
/// assert_eq!((c.get(0, 0), c.get(1, 0)), (3.0, 7.0));
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

/// A borrowed `rows × cols` row-major matrix: how a [`crate::Graph`]
/// hands out a node's value or gradient, which live in its arenas.
#[derive(Clone, Copy, PartialEq)]
pub struct MatrixRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl fmt::Debug for MatrixRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixRef({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl<'a> MatrixRef<'a> {
    /// View `data` as a `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "MatrixRef: length mismatch");
        Self { data, rows, cols }
    }

    /// `(rows, cols)` pair.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
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

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — plain matrix multiply on the register-tiled kernel
    /// ([`crate::gemm`]), bit-identical at every shape.
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

    /// Scalar product (allocates).
    pub fn scale(&self, scalar: f32) -> Matrix {
        let data = self.data.iter().map(|&x| x * scalar);
        Matrix::from_vec(self.rows, self.cols, data.collect())
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
    use crate::oracle;

    /// `m` transposed by the naive loop.
    fn transposed(m: &Matrix) -> Matrix {
        let (r, c) = m.shape();
        Matrix::from_vec(c, r, oracle::transpose(m.as_slice(), (r, c)))
    }

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.as_slice().len(), 6);
        assert_eq!(Matrix::zeros(0, 4).shape(), (0, 4));
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        // The blocked kernel `gemm_nt` transposes its right operand with.
        let transpose = |m: &Matrix| {
            let mut out = Matrix::zeros(m.cols, m.rows);
            crate::gemm::transpose_into(&m.data, m.shape(), &mut out.data);
            out
        };
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = transpose(&m);
        assert_eq!(t, transposed(&m));
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(transpose(&t), m);
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
        assert_eq!(a.matmul_tn(&b), transposed(&a).matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&transposed(&b)));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_and_scatter_are_adjoint_shapes() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }
}
