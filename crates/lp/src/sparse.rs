//! Compressed sparse row (CSR) matrices.
//!
//! The constraint systems of the central-moment analysis are extremely sparse:
//! each derivation rule touches a handful of template coefficients, so a row
//! of the LP typically has 2–10 nonzeros out of hundreds or thousands of
//! columns.  [`SparseMatrix`] is the shared representation: [`LpProblem`]
//! stores its constraint rows in one, and the revised simplex of
//! [`SimplexBackend`] reads its columns from it.
//!
//! [`LpProblem`]: crate::LpProblem
//! [`SimplexBackend`]: crate::SimplexBackend

/// A growable sparse matrix in CSR (compressed sparse row) form.
///
/// Rows are appended with [`push_row`](SparseMatrix::push_row); within a row,
/// entries are kept sorted by column with duplicate columns accumulated and
/// exact zeros dropped.  The column count grows automatically to cover the
/// largest column index seen (and can be raised explicitly with
/// [`grow_cols`](SparseMatrix::grow_cols)).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    ncols: usize,
}

impl Default for SparseMatrix {
    fn default() -> Self {
        SparseMatrix::new()
    }
}

impl SparseMatrix {
    /// An empty matrix with no rows and no columns.
    pub fn new() -> Self {
        SparseMatrix {
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            ncols: 0,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns (the widest row seen, or the explicit width).
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Ensures the matrix is at least `ncols` wide.
    pub fn grow_cols(&mut self, ncols: usize) {
        self.ncols = self.ncols.max(ncols);
    }

    /// Appends a row given as `(column, value)` entries in any order.
    /// Duplicate columns accumulate; entries that sum to exactly zero are
    /// dropped.  Returns the new row's index.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) -> usize {
        let start = self.vals.len();
        for (col, val) in entries {
            self.ncols = self.ncols.max(col + 1);
            self.cols.push(col);
            self.vals.push(val);
        }
        // Sort the freshly appended segment by column and merge duplicates.
        let mut entries: Vec<(usize, f64)> = self.cols[start..]
            .iter()
            .copied()
            .zip(self.vals[start..].iter().copied())
            .collect();
        entries.sort_by_key(|&(c, _)| c);
        self.cols.truncate(start);
        self.vals.truncate(start);
        for (col, val) in entries {
            if self.cols.len() > start && *self.cols.last().unwrap() == col {
                *self.vals.last_mut().unwrap() += val;
            } else {
                self.cols.push(col);
                self.vals.push(val);
            }
        }
        // Drop exact zeros produced by cancellation.
        let mut write = start;
        for read in start..self.cols.len() {
            if self.vals[read] != 0.0 {
                self.cols[write] = self.cols[read];
                self.vals[write] = self.vals[read];
                write += 1;
            }
        }
        self.cols.truncate(write);
        self.vals.truncate(write);
        self.row_ptr.push(self.vals.len());
        self.num_rows() - 1
    }

    /// The entries of row `i` as parallel `(columns, values)` slices.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Iterates over the `(column, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row_entries(i);
        cols.iter().copied().zip(vals.iter().copied())
    }

    /// The dot product of row `i` with a dense vector (missing tail entries
    /// of `x` count as zero).
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        self.row(i)
            .map(|(c, v)| v * x.get(c).copied().unwrap_or(0.0))
            .sum()
    }

    /// The transpose (a CSC view of the same data, itself in CSR form: row
    /// `j` of the result lists the entries of column `j`).
    pub fn transpose(&self) -> SparseMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.cols {
            counts[c] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.ncols + 1);
        row_ptr.push(0);
        for c in 0..self.ncols {
            row_ptr.push(row_ptr[c] + counts[c]);
        }
        let mut cols = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for i in 0..self.num_rows() {
            for (c, v) in self.row(i) {
                let slot = next[c];
                cols[slot] = i;
                vals[slot] = v;
                next[c] += 1;
            }
        }
        SparseMatrix {
            row_ptr,
            cols,
            vals,
            ncols: self.num_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_sorts_merges_and_drops_zeros() {
        let mut m = SparseMatrix::new();
        let r = m.push_row([(3, 1.0), (0, 2.0), (3, 2.0), (1, 1.5), (1, -1.5)]);
        assert_eq!(r, 0);
        assert_eq!(m.num_rows(), 1);
        assert_eq!(m.num_cols(), 4);
        let entries: Vec<_> = m.row(0).collect();
        assert_eq!(entries, vec![(0, 2.0), (3, 3.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_representable() {
        let mut m = SparseMatrix::new();
        m.push_row([]);
        m.push_row([(2, 1.0)]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(1).count(), 1);
    }

    #[test]
    fn row_dot_ignores_missing_tail() {
        let mut m = SparseMatrix::new();
        m.push_row([(0, 2.0), (5, 3.0)]);
        assert_eq!(m.row_dot(0, &[4.0]), 8.0);
        assert_eq!(m.row_dot(0, &[4.0, 0.0, 0.0, 0.0, 0.0, 1.0]), 11.0);
    }

    #[test]
    fn transpose_round_trips() {
        let mut m = SparseMatrix::new();
        m.push_row([(0, 1.0), (2, 2.0)]);
        m.push_row([(1, 3.0)]);
        m.push_row([(0, -1.0), (1, 4.0), (2, 5.0)]);
        let t = m.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 3);
        let col0: Vec<_> = t.row(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, -1.0)]);
        let back = t.transpose();
        for i in 0..m.num_rows() {
            assert_eq!(
                m.row(i).collect::<Vec<_>>(),
                back.row(i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn grow_cols_widens_without_entries() {
        let mut m = SparseMatrix::new();
        m.push_row([(1, 1.0)]);
        assert_eq!(m.num_cols(), 2);
        m.grow_cols(10);
        assert_eq!(m.num_cols(), 10);
        m.grow_cols(4);
        assert_eq!(m.num_cols(), 10);
    }
}
