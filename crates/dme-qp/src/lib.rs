//! Sparse convex quadratic programming for dose-map optimization.
//!
//! This crate is the drop-in substitute for the commercial solver (ILOG
//! CPLEX) used by the paper *"Dose map and placement co-optimization for
//! timing yield enhancement and leakage power reduction"* (DAC 2008 /
//! TCAD 2010). It provides:
//!
//! - [`CsrMatrix`]: a compressed-sparse-row matrix with the products
//!   the solver and the dose-map formulation need (`A·x`, `Aᵀ·x`),
//! - [`QuadProgram`] + [`IpmSolver`]: the Mehrotra predictor-corrector
//!   interior-point solver for problems of the form
//!   `min ½·xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u` that every dose-map program runs
//!   on, with each Newton system solved by a cached sparse LDLᵀ or by
//!   matrix-free conjugate gradients ([`NewtonBackend`]). It also carries
//!   one convex quadratic row ([`QuadRow`], [`IpmSolver::solve_qcp`]) —
//!   the paper's quadratically constrained program (minimize the clock
//!   period subject to a leakage bound) in one solve,
//! - [`mps`]: a QPS reader and writer, so the solver can be validated on
//!   external problems,
//! - [`lsq`]: small dense least-squares fits used for library
//!   characterization (the `Ap`, `Bp`, `αp`, `βp`, `γp` coefficients).
//!
//! # Example
//!
//! Minimize `(x₀−1)² + (x₁−2)²` subject to `x₀ + x₁ ≤ 2` and `x ≥ 0`:
//!
//! ```
//! use dme_qp::{CsrMatrix, IpmSettings, IpmSolver, QuadProgram, SolveStatus};
//!
//! # fn main() -> Result<(), dme_qp::SolveError> {
//! let p = CsrMatrix::diagonal(&[2.0, 2.0]);
//! let q = vec![-2.0, -4.0];
//! let a = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]);
//! let l = vec![f64::NEG_INFINITY, 0.0, 0.0];
//! let u = vec![2.0, f64::INFINITY, f64::INFINITY];
//! let qp = QuadProgram::new(p, q, a, l, u)?;
//! let sol = IpmSolver::new(IpmSettings::default()).solve(&qp)?;
//! assert_eq!(sol.status, SolveStatus::Solved);
//! assert!((sol.x[0] - 0.5).abs() < 1e-6);
//! assert!((sol.x[1] - 1.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod csr;
mod error;
mod ipm;
#[doc(hidden)]
pub mod kernels;
mod ldl;
pub mod lsq;
pub mod mps;
mod observer;
mod ordering;
mod scaling;
mod strategies;
#[cfg(test)]
mod test_support;

pub use csr::CsrMatrix;
pub use error::SolveError;
pub use ipm::{IpmSettings, IpmSolver, NewtonBackend, Solution, SolveStatus};
pub use observer::{
    BackendDecision, CgSolve, DecisionReason, FactorizationEvent, IpmIteration, NopObserver,
    SolverObserver, StallExit,
};

/// A convex quadratic program `min ½·xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`.
///
/// `P` must be symmetric positive semidefinite and stored in full (not
/// triangular) form; diagonal matrices — the common case in this workspace —
/// trivially satisfy this.
#[derive(Debug, Clone)]
pub struct QuadProgram {
    /// Quadratic cost matrix (symmetric PSD), `n × n`.
    pub p: CsrMatrix,
    /// Linear cost vector, length `n`.
    pub q: Vec<f64>,
    /// Constraint matrix, `m × n`.
    pub a: CsrMatrix,
    /// Constraint lower bounds, length `m` (`-inf` allowed).
    pub l: Vec<f64>,
    /// Constraint upper bounds, length `m` (`+inf` allowed).
    pub u: Vec<f64>,
}

impl QuadProgram {
    /// Creates a quadratic program, validating dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] if `P` is not square `n × n`, `q`
    /// is not length `n`, `A` is not `m × n`, or the bounds are not length
    /// `m`; returns [`SolveError::InvalidBounds`] if any `l[i] > u[i]` or a
    /// bound is NaN.
    pub fn new(
        p: CsrMatrix,
        q: Vec<f64>,
        a: CsrMatrix,
        l: Vec<f64>,
        u: Vec<f64>,
    ) -> Result<Self, SolveError> {
        let n = q.len();
        if p.nrows() != n || p.ncols() != n {
            return Err(SolveError::Dimension(format!(
                "P is {}x{}, expected {n}x{n}",
                p.nrows(),
                p.ncols()
            )));
        }
        if a.ncols() != n {
            return Err(SolveError::Dimension(format!(
                "A has {} columns, expected {n}",
                a.ncols()
            )));
        }
        let m = a.nrows();
        if l.len() != m || u.len() != m {
            return Err(SolveError::Dimension(format!(
                "bounds have length {}/{}, expected {m}",
                l.len(),
                u.len()
            )));
        }
        for i in 0..m {
            if l[i].is_nan() || u[i].is_nan() || l[i] > u[i] {
                return Err(SolveError::InvalidBounds {
                    row: i,
                    lower: l[i],
                    upper: u[i],
                });
            }
        }
        Ok(Self { p, q, a, l, u })
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.a.nrows()
    }

    /// Objective value `½·xᵀPx + qᵀx` at a point.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let px = self.p.mul_vec(x);
        let mut v = 0.0;
        for i in 0..x.len() {
            v += 0.5 * x[i] * px[i] + self.q[i] * x[i];
        }
        v
    }

    /// Maximum constraint violation `max(0, l − Ax, Ax − u)` in the ∞-norm.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let ax = self.a.mul_vec(x);
        let mut worst: f64 = 0.0;
        for ((&axi, &li), &ui) in ax.iter().zip(&self.l).zip(&self.u) {
            worst = worst.max(li - axi).max(axi - ui);
        }
        worst
    }
}

/// One convex quadratic constraint row `½·xᵀdiag(p)x + qᵀx ≤ ξ` — the
/// shape of the paper's leakage budget `ΔLeakage(d) ≤ ξ` (Sections
/// III-A.2 / III-B.2). [`IpmSolver::solve_qcp`] carries it alongside a
/// [`QuadProgram`]'s rows; `xi = +∞` means no row.
#[derive(Debug, Clone)]
pub struct QuadRow {
    /// Diagonal of the row's Hessian, length `n`, every entry ≥ 0.
    pub p_diag: Vec<f64>,
    /// Linear coefficients, length `n`.
    pub q: Vec<f64>,
    /// Upper bound ξ (`+∞` disables the row).
    pub xi: f64,
}

impl QuadRow {
    /// The row value `½·xᵀdiag(p)x + qᵀx` at a point.
    pub fn value(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.p_diag)
            .zip(&self.q)
            .map(|((&xj, &pj), &qj)| (0.5 * pj * xj + qj) * xj)
            .sum()
    }

    /// The row gradient `diag(p)·x + q` at a point.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.p_diag)
            .zip(&self.q)
            .map(|((&xj, &pj), &qj)| pj * xj + qj)
            .collect()
    }
}

// The KKT optimality certificate is shared with the integration tests,
// which reach this crate as `dme_qp`; the alias lets the unit tests
// compile the same file.
#[cfg(test)]
extern crate self as dme_qp;
#[cfg(test)]
#[path = "../tests/common/certificate.rs"]
mod certificate;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_mismatched_dims() {
        let p = CsrMatrix::diagonal(&[1.0, 1.0]);
        let a = CsrMatrix::identity(2);
        let err = QuadProgram::new(p, vec![0.0; 3], a, vec![0.0; 2], vec![1.0; 2]);
        assert!(matches!(err, Err(SolveError::Dimension(_))));
    }

    #[test]
    fn new_rejects_crossed_bounds() {
        let p = CsrMatrix::diagonal(&[1.0]);
        let a = CsrMatrix::identity(1);
        let err = QuadProgram::new(p, vec![0.0], a, vec![2.0], vec![1.0]);
        assert!(matches!(err, Err(SolveError::InvalidBounds { row: 0, .. })));
    }

    #[test]
    fn objective_and_violation() {
        let p = CsrMatrix::diagonal(&[2.0, 4.0]);
        let a = CsrMatrix::identity(2);
        let qp = QuadProgram::new(p, vec![1.0, -1.0], a, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        // f(x) = x0^2 + 2 x1^2 + x0 - x1 at (1, 2) = 1 + 8 + 1 - 2 = 8
        let x = [1.0, 2.0];
        assert!((qp.objective(&x) - 8.0).abs() < 1e-12);
        assert!((qp.max_violation(&x) - 1.0).abs() < 1e-12);
        assert_eq!(qp.num_vars(), 2);
        assert_eq!(qp.num_constraints(), 2);
    }
}
