//! Newton (augmented-system) formulations and their linear solvers.

use crate::ldl::DirectSolver;
use crate::observer::{CgSolve, FactorizationEvent, SolverObserver};
use crate::{CsrMatrix, SolveError};
use dme_par::vecops;
use std::time::Instant;

/// Forms and solves the per-iteration Newton system.
///
/// The contract is the condensed normal-equations form: after the slacks
/// and one-sided multipliers are eliminated, each step reduces to
/// `(P + AᵀDA)·Δx = −r_d − Aᵀ(g + D·r_p)` where `D` is the barrier
/// diagonal and `g` carries the (strategy-dependent) complementarity
/// targets. Implementations own the linear-solver state so one numeric
/// preparation ([`AugmentedSystem::prepare`]) can be shared by several
/// solves — exactly what the Mehrotra predictor/corrector pair exploits.
pub trait AugmentedSystem {
    /// Linear-solver name for telemetry: `"direct"` or `"cg"`.
    fn backend_name(&self) -> &'static str;

    /// Sets the relative/absolute accuracy targets for subsequent
    /// [`AugmentedSystem::solve`] calls (the Eisenstat–Walker forcing
    /// sequence changes these every iteration).
    fn set_tolerances(&mut self, rel_tol: f64, abs_tol: f64);

    /// Prepares the system for the barrier diagonal `d`: one numeric
    /// refactorization on the direct path (streamed to `obs`), a no-op
    /// for matrix-free CG.
    fn prepare(&mut self, d: &[f64], obs: &mut dyn SolverObserver);

    /// Solves `(P + AᵀDA)·Δx = −rd − Aᵀ(g + D·rp)` into `dx`, streaming
    /// CG telemetry to `obs` on the iterative path.
    ///
    /// # Errors
    ///
    /// [`SolveError::Numerical`] when the solve produces non-finite
    /// values or CG detects negative curvature (`P` not PSD).
    fn solve(
        &mut self,
        g: &[f64],
        d: &[f64],
        rd: &[f64],
        rp: &[f64],
        dx: &mut Vec<f64>,
        obs: &mut dyn SolverObserver,
    ) -> Result<CgSolve, SolveError>;
}

/// The condensed SPD formulation `(P + AᵀDA)` with the two bundled
/// linear solvers: cached sparse LDLᵀ (numeric refactorization per
/// [`CondensedSystem::prepare`] call) or Jacobi-preconditioned
/// matrix-free CG.
pub struct CondensedSystem<'a> {
    p: &'a CsrMatrix,
    a: &'a CsrMatrix,
    p_diag: Vec<f64>,
    direct: Option<&'a mut DirectSolver>,
    cg: Option<CgScratch>,
    cg_max_iter: usize,
    rel_tol: f64,
    abs_tol: f64,
}

impl<'a> CondensedSystem<'a> {
    /// Builds the system over the (scaled) problem matrices. Exactly one
    /// of the two linear solvers is active: `direct` when the caller's
    /// backend decision produced a factorization, CG otherwise.
    /// Crate-internal: construction requires the private [`DirectSolver`].
    pub(crate) fn new(
        p: &'a CsrMatrix,
        a: &'a CsrMatrix,
        direct: Option<&'a mut DirectSolver>,
        cg_max_iter: usize,
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
            cg_max_iter,
            rel_tol: 1e-10,
            abs_tol: 1e-13,
        }
    }
}

impl AugmentedSystem for CondensedSystem<'_> {
    fn backend_name(&self) -> &'static str {
        if self.direct.is_some() {
            "direct"
        } else {
            "cg"
        }
    }

    fn set_tolerances(&mut self, rel_tol: f64, abs_tol: f64) {
        self.rel_tol = rel_tol;
        self.abs_tol = abs_tol;
    }

    fn prepare(&mut self, d: &[f64], obs: &mut dyn SolverObserver) {
        if let Some(ds) = self.direct.as_deref_mut() {
            let _span = dme_obs::span("refactor");
            let t0 = Instant::now();
            ds.factor(self.p, self.a, d);
            obs.factorization(&FactorizationEvent {
                symbolic_reused: ds.factors > 1,
                refactor_ns: t0.elapsed().as_nanos() as u64,
                nnz_l: ds.nnz_l,
                n: ds.num_vars(),
                pivots_clamped: ds.pivots_clamped,
            });
        }
    }

    fn solve(
        &mut self,
        g: &[f64],
        d: &[f64],
        rd: &[f64],
        rp: &[f64],
        dx: &mut Vec<f64>,
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
        dx.fill(0.0);
        if let Some(ds) = self.direct.as_deref_mut() {
            return direct_newton_solve(ds, self.p, self.a, d, &rhs, dx, self.abs_tol);
        }
        let cg = self.cg.as_mut().expect("CG scratch exists on the CG path");
        let stats = cg.solve(
            self.p,
            self.a,
            d,
            &self.p_diag,
            &rhs,
            dx,
            self.cg_max_iter,
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
fn direct_newton_solve(
    ds: &mut DirectSolver,
    p: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    rhs: &[f64],
    dx: &mut [f64],
    abs_tol: f64,
) -> Result<CgSolve, SolveError> {
    let n = rhs.len();
    let m = d.len();
    ds.solve(rhs, dx);
    let mut corr = vec![0.0f64; n];
    let mut resid = vec![0.0f64; n];
    let mut tm = vec![0.0f64; m];
    let b_norm = vecops::norm2(rhs).max(1e-300);
    let mut rel = 0.0;
    for _ in 0..3 {
        // resid = rhs − (P + AᵀDA)·dx, matrix-free.
        p.mul_vec_into(dx, &mut resid);
        a.mul_vec_into(dx, &mut tm);
        vecops::mul_assign(d, &mut tm);
        let at = a.mul_transpose_vec(&tm);
        for j in 0..n {
            resid[j] = rhs[j] - resid[j] - at[j];
        }
        let r_norm = vecops::norm2(&resid);
        rel = r_norm / b_norm;
        if r_norm <= abs_tol.max(1e-14 * b_norm) {
            break;
        }
        ds.solve(&resid, &mut corr);
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
    })
}

/// CG on `(P + AᵀDA)` with Jacobi preconditioning (shares the matrix-free
/// structure of the ADMM x-update but with the barrier diagonal `D`).
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
        p_diag: &[f64],
        b: &[f64],
        x: &mut [f64],
        max_iter: usize,
        rel_tol: f64,
        abs_tol: f64,
    ) -> Result<CgSolve, SolveError> {
        let n = b.len();
        let trace = std::env::var_os("DME_IPM_TRACE").is_some();
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
        for v in &mut inv_prec {
            *v = 1.0 / *v;
        }
        let b_norm = vecops::norm2(b).max(1e-300);
        // x starts at 0, so r = b.
        self.r.copy_from_slice(b);
        vecops::hadamard(&inv_prec, &self.r, &mut self.z);
        let mut rz = vecops::dot(&self.r, &self.z);
        self.p.copy_from_slice(&self.z);
        let mut iterations = 0usize;
        for _ in 0..max_iter {
            let r_norm = vecops::norm2(&self.r);
            if r_norm <= (rel_tol * b_norm).min(abs_tol.max(rel_tol * b_norm * 1e-3)) {
                break;
            }
            pm.mul_vec_into(&self.p, &mut self.kp);
            a.mul_vec_into(&self.p, &mut self.sm);
            vecops::mul_assign(d, &mut self.sm);
            a.mul_transpose_vec_into(&self.sm, &mut self.sn);
            vecops::axpy(1.0, &self.sn, &mut self.kp);
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
        if trace {
            eprintln!("    cg: rel_res={rel_residual:.2e} (b_norm={b_norm:.2e})");
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::Numerical(
                "CG produced non-finite iterate".into(),
            ));
        }
        Ok(CgSolve {
            iterations,
            rel_residual,
        })
    }
}
