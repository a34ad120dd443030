//! Dense row-major matrix for low-dimensional dense workloads.
//!
//! The paper's "LD" datasets (SUSY, Higgs, Criteo, Epsilon — Table 2) are
//! fully dense with few features; storing them sparsely would waste 4 bytes
//! of index per value. Trainers treat a dense matrix as a row-store whose
//! every feature is present.

use crate::error::DataError;
use crate::sparse::CsrMatrix;
use crate::FeatureId;
use serde::{Deserialize, Serialize};

/// Dense row-major feature matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    values: Vec<f32>,
}

impl DenseMatrix {
    /// Builds a dense matrix from a flat row-major buffer.
    pub fn from_flat(n_rows: usize, n_cols: usize, values: Vec<f32>) -> Result<Self, DataError> {
        if values.len() != n_rows * n_cols {
            return Err(DataError::Shape(format!(
                "flat buffer len {} != {n_rows} x {n_cols}",
                values.len()
            )));
        }
        Ok(DenseMatrix { n_rows, n_cols, values })
    }

    /// Builds a dense matrix from per-row vectors, all of equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, DataError> {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(rows.len() * n_cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(DataError::Shape(format!(
                    "row {i} has {} values, expected {n_cols}",
                    row.len()
                )));
            }
            values.extend_from_slice(row);
        }
        Ok(DenseMatrix { n_rows: rows.len(), n_cols, values })
    }

    /// Number of instances (rows).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features (columns).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Row `i` as a value slice of length `n_cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.values[row * self.n_cols + col]
    }

    /// Converts to a CSR matrix, keeping explicit zeros out of the storage.
    pub fn to_csr(&self) -> CsrMatrix {
        self.rows_to_csr(0, self.n_rows)
    }

    /// Converts rows `lo..hi` to a CSR matrix, keeping explicit zeros out
    /// of the storage.
    pub(crate) fn rows_to_csr(&self, lo: usize, hi: usize) -> CsrMatrix {
        assert!(lo <= hi && hi <= self.n_rows, "row slice out of range");
        let mut row_ptr = Vec::with_capacity(hi - lo + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in lo..hi {
            for (j, &v) in self.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j as FeatureId);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(hi - lo, self.n_cols, row_ptr, col_idx, vals)
            .expect("dense-to-CSR conversion preserves invariants")
    }

    /// Bytes of heap storage used by the matrix.
    pub fn heap_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_checks_uniform_width() {
        assert!(DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn from_flat_checks_len() {
        assert!(DenseMatrix::from_flat(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_flat(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn to_csr_drops_zeros_and_preserves_values() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 5.0], vec![7.0, 0.0]]).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), Some(7.0));
        assert_eq!(csr.get(0, 0), None);
    }
}
