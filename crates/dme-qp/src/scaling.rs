//! Ruiz equilibration of a [`QuadProgram`].
//!
//! Mixed row and column units — ns-scale timing rows against %-scale
//! dose rows — otherwise stall the interior point's dual residual. Each
//! pass scales every variable and row by the inverse square root of its
//! largest entry, and the objective by the inverse of the larger of its
//! mean curvature and its largest gradient entry.

use crate::{CsrMatrix, QuadProgram};

/// Ruiz equilibration passes.
const SCALING_PASSES: usize = 10;

/// Ruiz equilibration scaling factors: variables `d`, constraints `e`, and
/// a scalar cost normalization `cost`.
pub(crate) struct Scaling {
    pub(crate) d: Vec<f64>,
    pub(crate) e: Vec<f64>,
    pub(crate) cost: f64,
}

impl Scaling {
    pub(crate) fn compute(qp: &QuadProgram) -> Self {
        let n = qp.num_vars();
        let m = qp.num_constraints();
        let mut d = vec![1.0; n];
        let mut e = vec![1.0; m];
        let mut cost = 1.0;
        // Work on running scaled copies implicitly via the cumulative d/e.
        for _ in 0..SCALING_PASSES {
            // Column inf-norms of scaled [P; A] per variable, row inf-norms of
            // scaled A per constraint.
            let mut col_norm = vec![0.0f64; n];
            for r in 0..n {
                for (c, v) in qp.p.row(r) {
                    let s = (cost * d[r] * d[c] * v).abs();
                    col_norm[c] = col_norm[c].max(s);
                }
            }
            let mut row_norm = vec![0.0f64; m];
            for r in 0..m {
                for (c, v) in qp.a.row(r) {
                    let s = (e[r] * d[c] * v).abs();
                    col_norm[c] = col_norm[c].max(s);
                    row_norm[r] = row_norm[r].max(s);
                }
            }
            for j in 0..n {
                if col_norm[j] > 1e-12 {
                    d[j] /= col_norm[j].sqrt();
                    d[j] = d[j].clamp(1e-6, 1e6);
                }
            }
            for i in 0..m {
                if row_norm[i] > 1e-12 {
                    e[i] /= row_norm[i].sqrt();
                    e[i] = e[i].clamp(1e-6, 1e6);
                }
            }
            // Cost scaling: normalize mean column norm of scaled P and |q|.
            let mut p_col = vec![0.0f64; n];
            for r in 0..n {
                for (c, v) in qp.p.row(r) {
                    p_col[c] = p_col[c].max((cost * d[r] * d[c] * v).abs());
                }
            }
            let mean_p = p_col.iter().sum::<f64>() / n as f64;
            let q_norm = (0..n)
                .map(|j| (cost * d[j] * qp.q[j]).abs())
                .fold(0.0f64, f64::max);
            let denom = mean_p.max(q_norm);
            if denom > 1e-12 {
                cost = (cost / denom).clamp(1e-9, 1e9);
            }
        }
        Self { d, e, cost }
    }

    pub(crate) fn scale_p(&self, p: &CsrMatrix) -> CsrMatrix {
        let mut trips = Vec::with_capacity(p.nnz());
        for r in 0..p.nrows() {
            for (c, v) in p.row(r) {
                trips.push((r, c, self.cost * self.d[r] * self.d[c] * v));
            }
        }
        CsrMatrix::from_triplets(p.nrows(), p.ncols(), &trips)
    }

    pub(crate) fn scale_a(&self, a: &CsrMatrix) -> CsrMatrix {
        let mut trips = Vec::with_capacity(a.nnz());
        for r in 0..a.nrows() {
            for (c, v) in a.row(r) {
                trips.push((r, c, self.e[r] * self.d[c] * v));
            }
        }
        CsrMatrix::from_triplets(a.nrows(), a.ncols(), &trips)
    }
}
