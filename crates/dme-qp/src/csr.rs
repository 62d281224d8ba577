//! Compressed sparse row matrices.

use std::fmt;
use std::sync::OnceLock;

/// Minimum stored-entry count before a matrix–vector product fans out to
/// the thread pool; below this fork-join overhead dominates.
const SPMV_PAR_CUTOFF_NNZ: usize = 16 * 1024;

/// Rows per parallel task in the SpMV kernels. The per-row accumulation
/// order never changes, so this only affects load balancing.
const SPMV_ROW_GRAIN: usize = 256;

/// Stored entries per row of [`RowBlocks`]. The dose-map programs' rows
/// hold one to three entries, four with an active-layer map.
pub(crate) const ROW_WIDTH: usize = 4;

/// Padding columns of [`RowBlocks`], `ncols..ncols + PAD_COLUMNS`. A
/// scatter adds into its padding column, so consecutive padding entries
/// cycle through several: with a single one, every padded row's scatter
/// would wait on the previous row's store to that one slot.
pub(crate) const PAD_COLUMNS: usize = 16;

/// One row of [`RowBlocks`]: its column indices next to its values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowBlock {
    pub(crate) cols: [u32; ROW_WIDTH],
    pub(crate) vals: [f64; ROW_WIDTH],
}

/// A matrix's rows in fixed-width blocks, for products that walk every
/// row once with no per-row length: a row of at most [`ROW_WIDTH`]
/// entries keeps them in CSR order, padded with `(c, 0.0)` entries whose
/// columns `c` lie past the last, in `ncols..ncols + PAD_COLUMNS`. A
/// product reads the padding from an `x` with [`PAD_COLUMNS`] trailing
/// zeros and scatters it into as many trailing scratch slots. Rows with
/// more entries are listed in `long_rows` (ascending; their blocks are
/// all padding) and read through the CSR arrays.
pub(crate) struct RowBlocks {
    pub(crate) blocks: Vec<RowBlock>,
    pub(crate) long_rows: Vec<usize>,
}

/// A sparse matrix in compressed-sparse-row (CSR) format.
///
/// Supports exactly the operations the interior-point solver and the
/// dose-map formulation builder need: construction from triplets or rows,
/// row iteration, and matrix–vector products with the matrix and its
/// transpose.
///
/// Transpose products use a lazily built, cached explicit transpose so
/// `Aᵀx` is a row-parallel gather instead of a serial scatter; the gather
/// accumulates each output in the same (row-ascending) order the scatter
/// did, so results are bitwise identical.
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
    /// Cached explicit transpose (structural fields only; its own cache
    /// is never populated). Built on first transpose product.
    transpose: OnceLock<Box<CsrMatrix>>,
    /// Cached fixed-width row layout, built on first use.
    blocks: OnceLock<Box<RowBlocks>>,
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        // The caches are cheap to rebuild; don't deep-copy them.
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.clone(),
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality only; the caches are derived state.
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
            self.nrows,
            self.ncols,
            self.nnz()
        )
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        }
    }

    /// Creates a square diagonal matrix from its diagonal entries.
    /// Zero entries are stored explicitly (keeps row structure trivial).
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: diag.to_vec(),
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets. Duplicate
    /// positions are summed; triplets need not be sorted.
    ///
    /// # Panics
    ///
    /// Panics if any triplet indexes outside `nrows × ncols`.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < nrows && c < ncols,
                "triplet ({r},{c}) outside {nrows}x{ncols}"
            );
        }
        // Count entries per row.
        let mut counts = vec![0usize; nrows];
        for &(r, _, _) in triplets {
            counts[r] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for r in 0..nrows {
            row_ptr[r + 1] = row_ptr[r] + counts[r];
        }
        let nnz = row_ptr[nrows];
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![0.0; nnz];
        let mut next = row_ptr.clone();
        for &(r, c, v) in triplets {
            let k = next[r];
            col_idx[k] = c;
            vals[k] = v;
            next[r] += 1;
        }
        let mut m = Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        };
        m.sort_and_dedup_rows();
        m
    }

    /// Builds a matrix row by row; each row is a slice of `(col, value)`
    /// pairs. Duplicate columns within a row are summed.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for row in rows {
            for &(c, v) in row {
                assert!(c < ncols, "column {c} out of range (ncols={ncols})");
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let mut m = Self {
            nrows: rows.len(),
            ncols,
            row_ptr,
            col_idx,
            vals,
            transpose: OnceLock::new(),
            blocks: OnceLock::new(),
        };
        m.sort_and_dedup_rows();
        m
    }

    fn sort_and_dedup_rows(&mut self) {
        let mut new_col = Vec::with_capacity(self.col_idx.len());
        let mut new_val = Vec::with_capacity(self.vals.len());
        let mut new_ptr = Vec::with_capacity(self.nrows + 1);
        new_ptr.push(0usize);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                scratch.push((self.col_idx[k], self.vals[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                new_col.push(c);
                new_val.push(v);
            }
            new_ptr.push(new_col.len());
        }
        self.col_idx = new_col;
        self.vals = new_val;
        self.row_ptr = new_ptr;
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Raw CSR arrays `(row_ptr, col_idx, vals)` for the in-crate direct
    /// factorization (pattern enumeration and scatter-plan replay need
    /// positional access that the `row` iterator cannot express).
    pub(crate) fn raw_parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.vals)
    }

    /// FNV-1a hash of the sparsity *structure*: dimensions, row pointers
    /// and column indices (values excluded). Two matrices with equal
    /// fingerprints share assembly plans and symbolic factorizations —
    /// the key that lets the IPM reuse its direct-backend cache across
    /// bisection probes, where only bounds and values change.
    pub(crate) fn pattern_fingerprint(&self, mut hash: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(PRIME);
        };
        mix(self.nrows as u64);
        mix(self.ncols as u64);
        for &p in &self.row_ptr {
            mix(p as u64);
        }
        for &c in &self.col_idx {
            mix(c as u64);
        }
        hash
    }

    /// Iterates over the stored entries of one row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= nrows`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.nrows);
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Dense `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer (reused across CG
    /// iterations to avoid per-iteration allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        if !dme_par::would_parallelize(self.nnz(), SPMV_PAR_CUTOFF_NNZ) {
            for (r, yr) in y.iter_mut().enumerate() {
                *yr = self.row_dot(r, x);
            }
            return;
        }
        // Row-parallel: each output element is one row's dot product, so
        // the accumulation order (and thus the result) is unchanged.
        dme_par::par_chunks_mut(y, SPMV_ROW_GRAIN, |row0, chunk| {
            for (k, yr) in chunk.iter_mut().enumerate() {
                *yr = self.row_dot(row0 + k, x);
            }
        });
    }

    #[inline]
    fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            acc += self.vals[k] * x[self.col_idx[k]];
        }
        acc
    }

    /// Dense `y = Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn mul_transpose_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.ncols];
        self.mul_transpose_vec_into(x, &mut y);
        y
    }

    /// `y = Aᵀ·x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows` or `y.len() != ncols`.
    pub fn mul_transpose_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "x length mismatch");
        assert_eq!(y.len(), self.ncols, "y length mismatch");
        // Gather through the cached explicit transpose instead of
        // scattering through `self`: output elements become independent
        // (parallelizable) and each `y[c]` accumulates its terms in the
        // same row-ascending order the scatter used, so the result is
        // bitwise identical. The zero-skip mirrors the scatter's
        // `x[r] == 0.0` fast path exactly.
        let t = self.transpose_ref();
        let gather = |c: usize, x: &[f64]| -> f64 {
            let mut acc = 0.0;
            for k in t.row_ptr[c]..t.row_ptr[c + 1] {
                let xr = x[t.col_idx[k]];
                if xr == 0.0 {
                    continue;
                }
                acc += t.vals[k] * xr;
            }
            acc
        };
        if !dme_par::would_parallelize(self.nnz(), SPMV_PAR_CUTOFF_NNZ) {
            for (c, yc) in y.iter_mut().enumerate() {
                *yc = gather(c, x);
            }
            return;
        }
        dme_par::par_chunks_mut(y, SPMV_ROW_GRAIN, |col0, chunk| {
            for (k, yc) in chunk.iter_mut().enumerate() {
                *yc = gather(col0 + k, x);
            }
        });
    }

    /// The cached explicit transpose, built on first use. Entries of each
    /// transpose row are ordered by ascending original row index.
    fn transpose_ref(&self) -> &CsrMatrix {
        self.transpose.get_or_init(|| {
            let mut counts = vec![0usize; self.ncols];
            for &c in &self.col_idx {
                counts[c] += 1;
            }
            let mut row_ptr = vec![0usize; self.ncols + 1];
            for c in 0..self.ncols {
                row_ptr[c + 1] = row_ptr[c] + counts[c];
            }
            let mut col_idx = vec![0usize; self.nnz()];
            let mut vals = vec![0.0; self.nnz()];
            let mut next = row_ptr.clone();
            for r in 0..self.nrows {
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let c = self.col_idx[k];
                    let slot = next[c];
                    col_idx[slot] = r;
                    vals[slot] = self.vals[k];
                    next[c] += 1;
                }
            }
            Box::new(CsrMatrix {
                nrows: self.ncols,
                ncols: self.nrows,
                row_ptr,
                col_idx,
                vals,
                transpose: OnceLock::new(),
                blocks: OnceLock::new(),
            })
        })
    }

    /// The cached [`RowBlocks`] layout of this matrix, built on first use.
    ///
    /// # Panics
    ///
    /// Panics if `ncols` does not fit a `u32` column index.
    pub(crate) fn row_blocks(&self) -> &RowBlocks {
        self.blocks.get_or_init(|| {
            let ncols = u32::try_from(self.ncols + PAD_COLUMNS)
                .map(|end| end - PAD_COLUMNS as u32)
                .expect("column count fits a u32 index");
            let mut pads = (0..PAD_COLUMNS as u32).cycle();
            let mut blocks: Vec<RowBlock> = (0..self.nrows)
                .map(|_| RowBlock {
                    cols: [(); ROW_WIDTH].map(|()| ncols + pads.next().expect("endless")),
                    vals: [0.0; ROW_WIDTH],
                })
                .collect();
            let mut long_rows = Vec::new();
            for (r, block) in blocks.iter_mut().enumerate() {
                let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
                if hi - lo > ROW_WIDTH {
                    long_rows.push(r);
                    continue;
                }
                for (k, e) in (lo..hi).enumerate() {
                    block.cols[k] = self.col_idx[e] as u32;
                    block.vals[k] = self.vals[e];
                }
            }
            Box::new(RowBlocks { blocks, long_rows })
        })
    }

    /// The main diagonal (length `min(nrows, ncols)`), zeros where absent.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (r, dr) in d.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_idx[k] == r {
                    *dr = self.vals[k];
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mul(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        m.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn to_dense(m: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; m.ncols()]; m.nrows()];
        for (r, row) in dense.iter_mut().enumerate() {
            for (c, v) in m.row(r) {
                row[c] += v;
            }
        }
        dense
    }

    #[test]
    fn triplets_sum_duplicates_and_sort() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0), (1, 1, -1.0)]);
        assert_eq!(m.nnz(), 3);
        let rows: Vec<Vec<(usize, f64)>> = (0..2).map(|r| m.row(r).collect()).collect();
        assert_eq!(rows[0], vec![(0, 2.0), (2, 4.0)]);
        assert_eq!(rows[1], vec![(1, -1.0)]);
    }

    #[test]
    fn mul_matches_dense() {
        let m =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, -3.0), (2, 1, 0.5)]);
        let dense = to_dense(&m);
        let x = [1.5, -2.0];
        assert_eq!(m.mul_vec(&x), dense_mul(&dense, &x));
        // transpose
        let xt = [1.0, 2.0, 3.0];
        let yt = m.mul_transpose_vec(&xt);
        let mut expect = vec![0.0; 2];
        for r in 0..3 {
            for c in 0..2 {
                expect[c] += dense[r][c] * xt[r];
            }
        }
        assert_eq!(yt, expect);
    }

    #[test]
    fn identity_and_diagonal() {
        let i3 = CsrMatrix::identity(3);
        assert_eq!(i3.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let d = CsrMatrix::diagonal(&[2.0, 0.0, -1.0]);
        assert_eq!(d.mul_vec(&[1.0, 5.0, 2.0]), vec![2.0, 0.0, -2.0]);
        assert_eq!(d.diag(), vec![2.0, 0.0, -1.0]);
    }

    #[test]
    fn from_rows_builds_expected_shape() {
        let m = CsrMatrix::from_rows(
            4,
            &[vec![(3, 1.0), (0, 2.0)], vec![], vec![(1, 1.0), (1, 1.0)]],
        );
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        let r2: Vec<_> = m.row(2).collect();
        assert_eq!(r2, vec![(1, 2.0)]);
    }

    #[test]
    fn zeros_multiply_to_zero() {
        let m = CsrMatrix::zeros(2, 3);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn triplets_out_of_range_panics() {
        CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]);
    }
}
