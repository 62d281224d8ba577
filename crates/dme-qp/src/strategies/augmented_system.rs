//! The condensed Newton system of each interior-point iteration and its
//! two linear solvers.
//!
//! After the slacks and one-sided multipliers are eliminated, each
//! Newton step reduces to `(P + AᵀDA)·Δx = −r_d − Aᵀ(g + D·r_p)` where
//! `D` is the barrier diagonal and `g` carries the complementarity
//! targets. With a quadratic row ([`RowTerms`]) `P` gains `λ·diag(p_c)`
//! and `A` gains the row gradient as an extra last row, so `d`, `g` and
//! `r_p` carry one entry more than `A` has rows. One numeric preparation
//! ([`CondensedSystem::prepare`]) serves both solves of an iteration —
//! exactly what the Mehrotra predictor/corrector pair exploits.

use crate::ldl::DirectSolver;
use crate::observer::{CgSolve, FactorizationEvent, SolverObserver};
use crate::{CsrMatrix, SolveError};
use dme_par::vecops;
use std::time::Instant;

/// CG iterations per Newton solve before the solve stops short of its
/// tolerance ([`CgSolve::capped`]).
const CG_MAX_ITER: usize = 400;

/// The convex quadratic row's part of one iteration's Newton matrix.
///
/// A row `c(x) = ½xᵀdiag(p_c)x + q_cᵀx ≤ ξ` with multiplier λ enters the
/// condensed system like one more constraint row whose coefficients are
/// its gradient `g = p_c⊙x + q_c` (re-evaluated every iteration), plus
/// the curvature `λ·diag(p_c)` of the Lagrangian. Its barrier weight is
/// the last entry of the `d` passed alongside.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowTerms<'a> {
    /// `λ·p_c`, added to the diagonal of `P`.
    pub(crate) hessian: &'a [f64],
    /// The row gradient `g` at the current iterate.
    pub(crate) gradient: &'a [f64],
}

/// The condensed SPD formulation `(P + AᵀDA)` with the two bundled
/// linear solvers: cached sparse LDLᵀ (numeric refactorization per
/// [`CondensedSystem::prepare`] call) or Jacobi-preconditioned
/// matrix-free CG. A quadratic row's rank-one term `d_c·ggᵀ` is never
/// assembled: CG applies it with one dot and one axpy per product, and
/// the direct path corrects the factor's solves by Sherman–Morrison.
pub(crate) struct CondensedSystem<'a> {
    p: &'a CsrMatrix,
    a: &'a CsrMatrix,
    p_diag: Vec<f64>,
    direct: Option<&'a mut DirectSolver>,
    cg: Option<CgScratch>,
    rel_tol: f64,
    abs_tol: f64,
    /// The prepared quadratic row, if any.
    row: Option<PreparedRow>,
}

/// A quadratic row as [`CondensedSystem::prepare`] last saw it.
struct PreparedRow {
    /// `λ·p_c`.
    hessian: Vec<f64>,
    /// Row gradient `g`.
    gradient: Vec<f64>,
    /// Barrier weight `d_c` of the rank-one term.
    weight: f64,
    /// Direct path: `K⁻¹g` under the current factor of `K` without the
    /// rank-one term, and `1 + d_c·gᵀK⁻¹g`.
    k_inv_g: Vec<f64>,
    denom: f64,
}

/// `out = (P + diag(h) + AᵀDA + w·ggᵀ)·x` for the row terms `(h, g, w)`,
/// with `tm` (one entry per row of `A`) and `tn` (one per column) as
/// scratch.
#[allow(clippy::too_many_arguments)]
fn apply_k(
    p: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    row: Option<&PreparedRow>,
    x: &[f64],
    out: &mut [f64],
    tm: &mut [f64],
    tn: &mut [f64],
) {
    p.mul_vec_into(x, out);
    a.mul_vec_into(x, tm);
    vecops::mul_assign(&d[..tm.len()], tm);
    a.mul_transpose_vec_into(tm, tn);
    vecops::axpy(1.0, tn, out);
    if let Some(r) = row {
        for j in 0..x.len() {
            out[j] += r.hessian[j] * x[j];
        }
        vecops::axpy(r.weight * vecops::dot(&r.gradient, x), &r.gradient, out);
    }
}

impl<'a> CondensedSystem<'a> {
    /// Builds the system over the (scaled) problem matrices. Exactly one
    /// of the two linear solvers is active: `direct` when the caller's
    /// backend decision produced a factorization, CG otherwise.
    pub(crate) fn new(
        p: &'a CsrMatrix,
        a: &'a CsrMatrix,
        direct: Option<&'a mut DirectSolver>,
    ) -> Self {
        let n = p.ncols();
        let m = a.nrows();
        let cg = direct.is_none().then(|| CgScratch::new(n, m));
        Self {
            p,
            a,
            p_diag: p.diag(),
            direct,
            cg,
            rel_tol: 1e-10,
            abs_tol: 1e-13,
            row: None,
        }
    }

    /// Solves `K·x = b` with the current factor, `K` including the row's
    /// rank-one term: `x = y − K⁻¹g·d_c·gᵀy / (1 + d_c·gᵀK⁻¹g)` for
    /// `y = K₀⁻¹b`.
    fn direct_apply_inverse(
        ds: &mut DirectSolver,
        row: Option<&PreparedRow>,
        b: &[f64],
        x: &mut [f64],
    ) {
        ds.solve(b, x);
        if let Some(r) = row {
            let c = r.weight * vecops::dot(&r.gradient, x) / r.denom;
            vecops::axpy(-c, &r.k_inv_g, x);
        }
    }

    /// Sets the relative/absolute accuracy targets for subsequent
    /// [`CondensedSystem::solve`] calls (the Eisenstat–Walker forcing
    /// sequence changes these every iteration).
    pub(crate) fn set_tolerances(&mut self, rel_tol: f64, abs_tol: f64) {
        self.rel_tol = rel_tol;
        self.abs_tol = abs_tol;
    }

    /// Prepares the system for the barrier diagonal `d` and, when the
    /// program has one, the quadratic row's terms: one numeric
    /// refactorization on the direct path (streamed to `obs`) plus the
    /// row's Sherman–Morrison vector `K⁻¹g`; for matrix-free CG it only
    /// records the row.
    pub(crate) fn prepare(
        &mut self,
        d: &[f64],
        row: Option<RowTerms<'_>>,
        obs: &mut dyn SolverObserver,
    ) {
        let m = self.a.nrows();
        self.row = row.map(|r| PreparedRow {
            hessian: r.hessian.to_vec(),
            gradient: r.gradient.to_vec(),
            weight: d[m],
            k_inv_g: Vec::new(),
            denom: 1.0,
        });
        if let Some(ds) = self.direct.as_deref_mut() {
            let _span = dme_obs::span("refactor");
            let t0 = Instant::now();
            let h = self.row.as_ref().map_or(&[][..], |r| &r.hessian[..]);
            ds.factor(self.p, self.a, &d[..m], h);
            if let Some(r) = self.row.as_mut() {
                r.k_inv_g = vec![0.0; r.gradient.len()];
                ds.solve(&r.gradient, &mut r.k_inv_g);
                r.denom = 1.0 + r.weight * vecops::dot(&r.gradient, &r.k_inv_g);
            }
            obs.factorization(&FactorizationEvent {
                symbolic_reused: ds.factors > 1,
                refactor_ns: t0.elapsed().as_nanos() as u64,
                nnz_l: ds.nnz_l,
                n: ds.num_vars(),
                pivots_clamped: ds.pivots_clamped,
            });
        }
    }

    /// Solves `(P + AᵀDA)·Δx = −rd − Aᵀ(g + D·rp)` into `dx`, streaming
    /// CG telemetry to `obs` on the iterative path.
    ///
    /// # Errors
    ///
    /// [`SolveError::Numerical`] when the solve produces non-finite
    /// values or CG detects negative curvature (`P` not PSD).
    pub(crate) fn solve(
        &mut self,
        g: &[f64],
        d: &[f64],
        rd: &[f64],
        rp: &[f64],
        dx: &mut [f64],
        obs: &mut dyn SolverObserver,
    ) -> Result<CgSolve, SolveError> {
        let _span = dme_obs::span("solve");
        let n = self.p.ncols();
        let m = self.a.nrows();
        let mut t = vec![0.0f64; m];
        for i in 0..m {
            t[i] = g[i] + d[i] * rp[i];
        }
        let at_t = self.a.mul_transpose_vec(&t);
        let mut rhs = vec![0.0f64; n];
        for j in 0..n {
            rhs[j] = -rd[j] - at_t[j];
        }
        if let Some(r) = &self.row {
            vecops::axpy(-(g[m] + d[m] * rp[m]), &r.gradient, &mut rhs);
        }
        dx.fill(0.0);
        let row = self.row.as_ref();
        if let Some(ds) = self.direct.as_deref_mut() {
            return direct_newton_solve(ds, self.p, self.a, d, row, &rhs, dx, self.abs_tol);
        }
        let cg = self.cg.as_mut().expect("CG scratch exists on the CG path");
        let stats = cg.solve(
            self.p,
            self.a,
            d,
            row,
            &self.p_diag,
            &rhs,
            dx,
            self.rel_tol,
            self.abs_tol,
        )?;
        obs.cg_solve(&stats);
        Ok(stats)
    }
}

/// Direct Newton solve: LDLᵀ triangular solves plus up to two iterative-
/// refinement passes against the matrix-free operator, honoring the same
/// absolute accuracy target as the CG path (the pivot floor and the
/// normal-equations conditioning make raw triangular solves a hair less
/// accurate than the factorization's cost would suggest).
#[allow(clippy::too_many_arguments)]
fn direct_newton_solve(
    ds: &mut DirectSolver,
    p: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    row: Option<&PreparedRow>,
    rhs: &[f64],
    dx: &mut [f64],
    abs_tol: f64,
) -> Result<CgSolve, SolveError> {
    let n = rhs.len();
    let m = a.nrows();
    CondensedSystem::direct_apply_inverse(ds, row, rhs, dx);
    let mut corr = vec![0.0f64; n];
    let mut resid = vec![0.0f64; n];
    let mut tm = vec![0.0f64; m];
    let mut tn = vec![0.0f64; n];
    let b_norm = vecops::norm2(rhs).max(1e-300);
    let mut rel = 0.0;
    for _ in 0..3 {
        // resid = rhs − K·dx, matrix-free.
        apply_k(p, a, d, row, dx, &mut resid, &mut tm, &mut tn);
        for j in 0..n {
            resid[j] = rhs[j] - resid[j];
        }
        let r_norm = vecops::norm2(&resid);
        rel = r_norm / b_norm;
        if r_norm <= abs_tol.max(1e-14 * b_norm) {
            break;
        }
        CondensedSystem::direct_apply_inverse(ds, row, &resid, &mut corr);
        for j in 0..n {
            dx[j] += corr[j];
        }
    }
    if dx.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::Numerical(
            "direct Newton solve produced non-finite values".into(),
        ));
    }
    Ok(CgSolve {
        iterations: 0,
        rel_residual: rel,
        capped: false,
    })
}

/// Matrix-free CG on `(P + AᵀDA)` with Jacobi preconditioning.
struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    kp: Vec<f64>,
    sm: Vec<f64>,
    sn: Vec<f64>,
}

impl CgScratch {
    fn new(n: usize, m: usize) -> Self {
        Self {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            kp: vec![0.0; n],
            sm: vec![0.0; m],
            sn: vec![0.0; n],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        pm: &CsrMatrix,
        a: &CsrMatrix,
        d: &[f64],
        row: Option<&PreparedRow>,
        p_diag: &[f64],
        b: &[f64],
        x: &mut [f64],
        rel_tol: f64,
        abs_tol: f64,
    ) -> Result<CgSolve, SolveError> {
        let n = b.len();
        // Jacobi preconditioner: diag(P) + Σ d_i·a_ij², stored inverted so
        // the per-iteration apply is a parallel element-wise product.
        let mut inv_prec = vec![1e-12f64; n];
        for j in 0..n {
            inv_prec[j] += p_diag[j];
        }
        for (i, &di) in d.iter().enumerate().take(a.nrows()) {
            for (c, v) in a.row(i) {
                inv_prec[c] += di * v * v;
            }
        }
        if let Some(r) = row {
            for ((ip, &h), &g) in inv_prec.iter_mut().zip(&r.hessian).zip(&r.gradient) {
                *ip += h + r.weight * g * g;
            }
        }
        for v in &mut inv_prec {
            *v = 1.0 / *v;
        }
        let b_norm = vecops::norm2(b).max(1e-300);
        // x starts at 0, so r = b.
        self.r.copy_from_slice(b);
        vecops::hadamard(&inv_prec, &self.r, &mut self.z);
        let mut rz = vecops::dot(&self.r, &self.z);
        self.p.copy_from_slice(&self.z);
        let tol = (rel_tol * b_norm).min(abs_tol.max(rel_tol * b_norm * 1e-3));
        let mut iterations = 0usize;
        for _ in 0..CG_MAX_ITER {
            let r_norm = vecops::norm2(&self.r);
            if r_norm <= tol {
                break;
            }
            apply_k(
                pm,
                a,
                d,
                row,
                &self.p,
                &mut self.kp,
                &mut self.sm,
                &mut self.sn,
            );
            vecops::axpy(1e-12, &self.p, &mut self.kp);
            let pkp = vecops::dot(&self.p, &self.kp);
            if !pkp.is_finite() || pkp <= 0.0 {
                if pkp < 0.0 {
                    return Err(SolveError::Numerical(
                        "CG encountered negative curvature; P is not PSD".into(),
                    ));
                }
                break;
            }
            iterations += 1;
            let alpha = rz / pkp;
            vecops::cg_update(x, alpha, &self.p, &mut self.r, -alpha, &self.kp);
            vecops::hadamard(&inv_prec, &self.r, &mut self.z);
            let rz_new = vecops::dot(&self.r, &self.z);
            let beta = rz_new / rz.max(1e-300);
            rz = rz_new;
            vecops::xpby(&self.z, beta, &mut self.p);
        }
        let rel_residual = vecops::norm2(&self.r) / b_norm;
        let capped = iterations == CG_MAX_ITER && vecops::norm2(&self.r) > tol;
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::Numerical(
                "CG produced non-finite iterate".into(),
            ));
        }
        Ok(CgSolve {
            iterations,
            rel_residual,
            capped,
        })
    }
}
