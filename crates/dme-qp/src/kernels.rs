//! The Newton-step kernels on their own, for the `perf/` microbenches:
//! the matrix-free product `(P + AᵀDA)·x` that every Jacobi-CG iteration
//! and the direct path's refinement apply, and one numeric
//! refactorization of the cached LDLᵀ. Not part of the solver's API.

use crate::csr::PAD_COLUMNS;
use crate::ldl::{Analysis, DirectSolver};
use crate::strategies::apply_k;
use crate::CsrMatrix;

/// `(P + AᵀDA)·x` for one program and one barrier diagonal `D`.
pub struct NewtonOperator<'a> {
    p: &'a CsrMatrix,
    a: &'a CsrMatrix,
    d: Vec<f64>,
    /// `x` plus the operator's padding zeros.
    x: Vec<f64>,
    tn: Vec<f64>,
    out: Vec<f64>,
}

impl<'a> NewtonOperator<'a> {
    /// The operator of `(p, a)` with barrier diagonal `d` (one entry per
    /// row of `a`), applied to `x = 0` until [`NewtonOperator::set_x`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn new(p: &'a CsrMatrix, a: &'a CsrMatrix, d: &[f64]) -> Self {
        let n = p.ncols();
        assert_eq!(a.ncols(), n, "A has {} columns, expected {n}", a.ncols());
        assert_eq!(d.len(), a.nrows(), "one barrier weight per row of A");
        Self {
            p,
            a,
            d: d.to_vec(),
            x: vec![0.0; n + PAD_COLUMNS],
            tn: vec![0.0; n + PAD_COLUMNS],
            out: vec![0.0; n],
        }
    }

    /// Sets the vector the next products apply to.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have one entry per variable.
    pub fn set_x(&mut self, x: &[f64]) {
        self.x[..self.out.len()].copy_from_slice(x);
    }

    /// Computes `(P + AᵀDA)·x` and returns it.
    pub fn apply(&mut self) -> &[f64] {
        apply_k(
            self.p,
            self.a,
            &self.d,
            None,
            &self.x,
            &mut self.out,
            &mut self.tn,
        );
        &self.out
    }
}

/// The direct backend's cached LDLᵀ of `K = P + AᵀDA` for one structure.
pub struct Refactorization {
    ds: DirectSolver,
}

impl Refactorization {
    /// Runs the symbolic phase for `(p, a)` — pattern, ordering and the
    /// factor's allocation — or `None` when a structural guard (a dense
    /// row, a pattern too large to enumerate) rules the factor out.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix) -> Option<Self> {
        let an = Analysis::new(p, a).ok()?;
        Some(Self {
            ds: DirectSolver::build(an, p, a, 0),
        })
    }

    /// One numeric refactorization for the barrier diagonal `d`: the
    /// scatter-plan assembly of `K` and the up-looking factorization.
    pub fn factor(&mut self, p: &CsrMatrix, a: &CsrMatrix, d: &[f64]) {
        self.ds.factor(p, a, d, &[]);
    }

    /// Nonzeros in the strict lower triangle of `L`.
    pub fn nnz_l(&self) -> usize {
        self.ds.nnz_l
    }
}
