//! Row-major dense matrix over `f64`.

use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Error raised when matrix shapes are incompatible for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the shape conflict.
    pub what: String,
}

impl ShapeError {
    /// Creates a shape error with the given description.
    #[must_use]
    pub fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.what)
    }
}

impl Error for ShapeError {}

/// A dense row-major matrix of `f64` values.
///
/// This is the uncompressed weight representation the paper's baselines
/// use; `blockgnn-core` converts it to and from block-circulant form.
///
/// ```
/// use blockgnn_linalg::Matrix;
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` for every entry.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ShapeError> {
        let cols = rows.first().map_or(0, Vec::len);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(ShapeError::new(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
        }
        Ok(Self { rows: rows.len(), cols, data: rows.concat() })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "flat buffer of {} values cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reshapes in place to `rows × cols`, reusing the existing
    /// allocation where possible. Entry values after the call are
    /// unspecified (a mix of retained old data and zeros) — this is the
    /// buffer-recycling primitive for write-into kernels that overwrite
    /// every entry (e.g. `NormalizedAdjacency::apply_into` in
    /// `blockgnn-gnn`), not a semantic resize.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the listed rows, in order (repeats allowed), into a new
    /// matrix — one `memcpy` per row into an exactly-sized buffer. The
    /// row gather of sampled sub-universes, merged micro-batches and
    /// staged row shards.
    ///
    /// # Panics
    ///
    /// Panics if a listed row is out of bounds.
    #[must_use]
    pub fn gather_rows<I>(&self, rows: I) -> Matrix
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        let count = rows.len();
        let mut data = Vec::with_capacity(count * self.cols);
        for i in rows {
            data.extend_from_slice(self.row(i));
        }
        assert_eq!(data.len(), count * self.cols, "row iterator misreported its length");
        Self { rows: count, cols: self.cols, data }
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec input length must equal cols");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
        y
    }

    /// Transposed matrix–vector product `y = Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    #[must_use]
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t input length must equal rows");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            let row = self.row(i);
            for (yj, &a) in y.iter_mut().zip(row) {
                *yj += a * xi;
            }
        }
        y
    }

    /// Matrix product `C = A·B` with a cache-friendly i-k-j loop.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose `Aᵀ`.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Scales every entry by `k`, in place.
    pub fn scale_in_place(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Returns a copy scaled by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(k);
        m
    }

    /// Frobenius norm `√(Σ a_ij²)`.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference between two equally-shaped
    /// matrices; used by tests and by the compression-error reports.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn linf_distance(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "linf_distance requires equal shapes");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Appends `other` to the right: `[self | other]`.
    ///
    /// The GS-Pool combiner operates on the concatenation `(a_v | h_v)`
    /// (Table I); this helper builds such concatenated feature matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError::new(format!(
                "hconcat row mismatch: {} vs {}",
                self.rows, other.rows
            )));
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition requires equal shapes");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction requires equal shapes");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition requires equal shapes");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction requires equal shapes");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, k: f64) -> Matrix {
        self.scaled(k)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn from_rows_validates_lengths() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(err.to_string().contains("row 1"));
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok[(1, 0)], 3.0);
    }

    #[test]
    fn from_flat_validates_size() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let id = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(id.matvec(&x), x);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j * 2) as f64);
        let x = vec![1.0, -1.0, 2.0];
        assert_eq!(a.matvec_t(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hconcat_concatenates_columns() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
        assert!(a.hconcat(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn gather_rows_copies_rows_in_order_with_repeats() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let g = m.gather_rows([3usize, 0, 3]);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(0), m.row(3));
        assert_eq!(g.row(1), m.row(0));
        assert_eq!(g.row(2), m.row(3));
        assert_eq!(m.gather_rows(std::iter::empty()).shape(), (0, 3));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::filled(2, 2, 2.0);
        let b = Matrix::filled(2, 2, 0.5);
        assert_eq!((&a + &b)[(0, 0)], 2.5);
        assert_eq!((&a - &b)[(1, 1)], 1.5);
        assert_eq!((&a * 3.0)[(0, 1)], 6.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c[(0, 0)], 2.5);
        c -= &b;
        assert_eq!(c[(0, 0)], 2.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert_eq!(a.frobenius_norm(), 5.0);
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.linf_distance(&b), 4.0);
    }

    #[test]
    fn display_truncates_large_matrices() {
        let m = Matrix::zeros(10, 12);
        let s = format!("{m}");
        assert!(s.contains('…'));
        assert!(s.contains("10x12"));
    }

    proptest! {
        #[test]
        fn prop_matmul_associative_with_vector(
            vals_a in proptest::collection::vec(-5.0f64..5.0, 12),
            vals_b in proptest::collection::vec(-5.0f64..5.0, 20),
            x in proptest::collection::vec(-5.0f64..5.0, 5),
        ) {
            // (A·B)·x == A·(B·x)
            let a = Matrix::from_flat(3, 4, vals_a).unwrap();
            let b = Matrix::from_flat(4, 5, vals_b).unwrap();
            let lhs = a.matmul(&b).unwrap().matvec(&x);
            let rhs = a.matvec(&b.matvec(&x));
            for (p, q) in lhs.iter().zip(&rhs) {
                prop_assert!((p - q).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_transpose_respects_matvec(
            vals in proptest::collection::vec(-5.0f64..5.0, 12),
            x in proptest::collection::vec(-5.0f64..5.0, 3),
            y in proptest::collection::vec(-5.0f64..5.0, 4),
        ) {
            // <A·y, x> == <y, Aᵀ·x>
            let a = Matrix::from_flat(3, 4, vals).unwrap();
            let ay = a.matvec(&y);
            let atx = a.matvec_t(&x);
            let lhs: f64 = ay.iter().zip(&x).map(|(p, q)| p * q).sum();
            let rhs: f64 = y.iter().zip(&atx).map(|(p, q)| p * q).sum();
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }
    }
}
