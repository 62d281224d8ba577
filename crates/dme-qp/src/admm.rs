//! OSQP-style ADMM solver with matrix-free conjugate-gradient x-updates.
//!
//! The algorithm follows Stellato et al., *"OSQP: an operator splitting
//! solver for quadratic programs"*: Ruiz equilibration, the two-block ADMM
//! splitting with over-relaxation, per-row penalty `ρᵢ` (boosted on equality
//! rows), and periodic `ρ` adaptation from the primal/dual residual ratio.
//! Unlike OSQP we never factorize the KKT matrix: the x-update solves
//! `(P + σI + AᵀRA)·x = rhs` by preconditioned conjugate gradients, applying
//! `P` and `A` as operators. That trades per-iteration cost for zero setup
//! cost and a tiny memory footprint, which suits the dose-map instances
//! (up to ~10⁵ variables, ~3·10⁵ constraints) well.

use crate::{CsrMatrix, QuadProgram, SolveError};
use dme_par::vecops;

/// Convergence / behaviour knobs for [`AdmmSolver`].
#[derive(Debug, Clone)]
pub struct AdmmSettings {
    /// Absolute tolerance on residuals.
    pub eps_abs: f64,
    /// Relative tolerance on residuals.
    pub eps_rel: f64,
    /// Maximum ADMM iterations.
    pub max_iter: usize,
    /// ADMM dual regularization σ.
    pub sigma: f64,
    /// Initial penalty ρ.
    pub rho: f64,
    /// Over-relaxation α ∈ (0, 2).
    pub alpha: f64,
    /// Iterations between ρ adaptations (0 disables adaptation).
    pub adaptive_rho_interval: usize,
    /// Ruiz equilibration passes (0 disables scaling).
    pub scaling_iters: usize,
    /// Maximum inner CG iterations per x-update.
    pub cg_max_iter: usize,
    /// Check residuals every this many iterations.
    pub check_interval: usize,
}

impl Default for AdmmSettings {
    fn default() -> Self {
        Self {
            eps_abs: 1e-5,
            eps_rel: 1e-5,
            max_iter: 20_000,
            sigma: 1e-6,
            rho: 0.1,
            alpha: 1.6,
            adaptive_rho_interval: 50,
            scaling_iters: 10,
            cg_max_iter: 200,
            check_interval: 10,
        }
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Residuals met the requested tolerances.
    Solved,
    /// Iteration limit hit; the returned point is the best iterate.
    MaxIterations,
    /// A primal infeasibility certificate was found.
    PrimalInfeasible,
}

/// Result of a QP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual solution (one multiplier per constraint row).
    pub y: Vec<f64>,
    /// Objective value `½ xᵀPx + qᵀx` at `x`.
    pub objective: f64,
    /// Termination status.
    pub status: SolveStatus,
    /// ADMM iterations used.
    pub iterations: usize,
    /// Final primal residual `‖Ax − z‖∞` (unscaled).
    pub primal_residual: f64,
    /// Final dual residual `‖Px + q + Aᵀy‖∞` (unscaled; the IPM adds the
    /// quadratic row's `λ·∇c(x)`).
    pub dual_residual: f64,
    /// Multiplier λ ≥ 0 of the convex quadratic row of
    /// [`crate::IpmSolver::solve_qcp`] (0 without one).
    pub row_multiplier: f64,
}

/// OSQP-style ADMM solver for [`QuadProgram`]s.
#[derive(Debug, Clone, Default)]
pub struct AdmmSolver {
    settings: AdmmSettings,
    warm_x: Option<Vec<f64>>,
    warm_y: Option<Vec<f64>>,
}

impl AdmmSolver {
    /// Creates a solver with the given settings.
    pub fn new(settings: AdmmSettings) -> Self {
        Self {
            settings,
            warm_x: None,
            warm_y: None,
        }
    }

    /// Provides a warm-start point (used by QCP bisection to reuse the
    /// previous τ's solution). Lengths are validated at solve time.
    pub fn warm_start(&mut self, x: Vec<f64>, y: Vec<f64>) -> &mut Self {
        self.warm_x = Some(x);
        self.warm_y = Some(y);
        self
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] if a warm-start vector has the
    /// wrong length, or [`SolveError::Numerical`] if the inner CG solve
    /// produces non-finite values (e.g. `P` not PSD).
    pub fn solve(&self, qp: &QuadProgram) -> Result<Solution, SolveError> {
        let st = &self.settings;
        let n = qp.num_vars();
        let m = qp.num_constraints();

        // --- Ruiz equilibration -------------------------------------------------
        let scale = Scaling::compute(qp, st.scaling_iters);
        let sp = scale.scale_p(&qp.p);
        let sa = scale.scale_a(&qp.a);
        let sq: Vec<f64> = (0..n).map(|j| scale.cost * scale.d[j] * qp.q[j]).collect();
        let sl: Vec<f64> = (0..m).map(|i| scale.e[i] * qp.l[i]).collect();
        let su: Vec<f64> = (0..m).map(|i| scale.e[i] * qp.u[i]).collect();

        // Per-row rho: equality rows get a much stiffer penalty.
        let mut rho_bar = st.rho;
        let row_is_eq: Vec<bool> = (0..m).map(|i| (su[i] - sl[i]).abs() < 1e-12).collect();
        let rho_vec = |rb: f64| -> Vec<f64> {
            row_is_eq
                .iter()
                .map(|&eq| {
                    if eq {
                        (rb * 1e3).clamp(1e-6, 1e6)
                    } else {
                        rb.clamp(1e-6, 1e6)
                    }
                })
                .collect()
        };
        let mut rho = rho_vec(rho_bar);

        // --- state ---------------------------------------------------------------
        let mut x = match &self.warm_x {
            Some(w) if w.len() == n => (0..n).map(|j| w[j] / scale.d[j]).collect::<Vec<_>>(),
            Some(w) => {
                return Err(SolveError::Dimension(format!(
                    "warm-start x has length {}, expected {n}",
                    w.len()
                )))
            }
            None => vec![0.0; n],
        };
        let mut y = match &self.warm_y {
            Some(w) if w.len() == m => (0..m)
                .map(|i| w[i] * scale.cost / scale.e[i])
                .collect::<Vec<_>>(),
            Some(w) => {
                return Err(SolveError::Dimension(format!(
                    "warm-start y has length {}, expected {m}",
                    w.len()
                )))
            }
            None => vec![0.0; m],
        };
        let mut z = sa.mul_vec(&x);
        for i in 0..m {
            z[i] = z[i].clamp(sl[i], su[i]);
        }

        // Buffers.
        let mut rhs = vec![0.0; n];
        let mut xt = x.clone();
        let mut zt = vec![0.0; m];
        let mut tmp_m = vec![0.0; m];
        let mut tmp_n = vec![0.0; n];
        let mut cg = CgWorkspace::new(n, m);
        let p_diag = sp.diag();
        let mut precond = build_precond(&p_diag, &sa, &rho, st.sigma);

        let mut status = SolveStatus::MaxIterations;
        let mut iterations = st.max_iter;
        let mut prim_res = f64::INFINITY;
        let mut dual_res = f64::INFINITY;
        let mut prev_y = y.clone();

        for k in 0..st.max_iter {
            // rhs = sigma*x - q + A'(rho.*z - y)
            for i in 0..m {
                tmp_m[i] = rho[i] * z[i] - y[i];
            }
            sa.mul_transpose_vec_into(&tmp_m, &mut rhs);
            for j in 0..n {
                rhs[j] += st.sigma * x[j] - sq[j];
            }
            // Solve (P + sigma I + A' R A) xt = rhs by PCG, warm-started at x.
            let cg_tol = (prim_res.min(dual_res) * 1e-2).clamp(1e-12, 1e-6);
            xt.copy_from_slice(&x);
            cg.solve(
                &sp,
                &sa,
                &rho,
                st.sigma,
                &precond,
                &rhs,
                &mut xt,
                st.cg_max_iter,
                cg_tol,
            )?;

            sa.mul_vec_into(&xt, &mut zt);

            // Over-relaxed updates.
            for j in 0..n {
                x[j] = st.alpha * xt[j] + (1.0 - st.alpha) * x[j];
            }
            prev_y.copy_from_slice(&y);
            for i in 0..m {
                let zr = st.alpha * zt[i] + (1.0 - st.alpha) * z[i];
                let z_new = (zr + y[i] / rho[i]).clamp(sl[i], su[i]);
                y[i] += rho[i] * (zr - z_new);
                z[i] = z_new;
            }

            if (k + 1) % st.check_interval != 0 && k + 1 != st.max_iter {
                continue;
            }

            // --- unscaled residuals ---
            sa.mul_vec_into(&x, &mut tmp_m);
            let mut rp: f64 = 0.0;
            let mut ax_norm: f64 = 0.0;
            let mut z_norm: f64 = 0.0;
            for i in 0..m {
                let ei = scale.e[i];
                rp = rp.max(((tmp_m[i] - z[i]) / ei).abs());
                ax_norm = ax_norm.max((tmp_m[i] / ei).abs());
                z_norm = z_norm.max((z[i] / ei).abs());
            }
            let px = sp.mul_vec(&x);
            sa.mul_transpose_vec_into(&y, &mut tmp_n);
            let mut rd: f64 = 0.0;
            let mut px_norm: f64 = 0.0;
            let mut aty_norm: f64 = 0.0;
            let mut q_norm: f64 = 0.0;
            let cinv = 1.0 / scale.cost;
            for j in 0..n {
                let dj = 1.0 / scale.d[j];
                rd = rd.max(((px[j] + sq[j] + tmp_n[j]) * dj * cinv).abs());
                px_norm = px_norm.max((px[j] * dj * cinv).abs());
                aty_norm = aty_norm.max((tmp_n[j] * dj * cinv).abs());
                q_norm = q_norm.max((sq[j] * dj * cinv).abs());
            }
            prim_res = rp;
            dual_res = rd;
            let eps_prim = st.eps_abs + st.eps_rel * ax_norm.max(z_norm);
            let eps_dual = st.eps_abs + st.eps_rel * px_norm.max(aty_norm).max(q_norm);

            if std::env::var_os("DME_QP_TRACE").is_some() && (k + 1) % 1000 == 0 {
                eprintln!(
                    "iter {:>6}: rp={rp:.3e} rd={rd:.3e} rho={rho_bar:.3e} eps_p={eps_prim:.1e} eps_d={eps_dual:.1e}",
                    k + 1
                );
            }
            if rp <= eps_prim && rd <= eps_dual {
                status = SolveStatus::Solved;
                iterations = k + 1;
                break;
            }

            // --- primal infeasibility certificate ---
            if primal_infeasible(&sa, &y, &prev_y, &sl, &su, st.eps_abs) {
                status = SolveStatus::PrimalInfeasible;
                iterations = k + 1;
                break;
            }

            // --- rho adaptation ---
            // Matrix-free x-updates make re-penalization free (no
            // factorization to redo), so adapt aggressively: any sustained
            // residual imbalance reshapes ρ.
            if st.adaptive_rho_interval > 0 && (k + 1) % st.adaptive_rho_interval == 0 {
                let ratio = ((rp / eps_prim.max(1e-12)) / (rd / eps_dual.max(1e-12))).sqrt();
                if !(0.67..=1.5).contains(&ratio) {
                    rho_bar = (rho_bar * ratio).clamp(1e-6, 1e6);
                    rho = rho_vec(rho_bar);
                    precond = build_precond(&p_diag, &sa, &rho, st.sigma);
                }
            }
        }

        // Unscale.
        let x_out: Vec<f64> = (0..n).map(|j| x[j] * scale.d[j]).collect();
        let y_out: Vec<f64> = (0..m).map(|i| y[i] * scale.e[i] / scale.cost).collect();
        let objective = qp.objective(&x_out);
        if !objective.is_finite() {
            return Err(SolveError::Numerical("objective is not finite".into()));
        }
        Ok(Solution {
            x: x_out,
            y: y_out,
            objective,
            status,
            iterations,
            primal_residual: prim_res,
            dual_residual: dual_res,
            row_multiplier: 0.0,
        })
    }
}

/// Detects the OSQP primal-infeasibility certificate: `δy = y − y_prev`
/// with `‖Aᵀδy‖∞` small and the support function `uᵀ(δy)₊ + lᵀ(δy)₋`
/// strictly negative.
fn primal_infeasible(
    a: &CsrMatrix,
    y: &[f64],
    prev_y: &[f64],
    l: &[f64],
    u: &[f64],
    eps: f64,
) -> bool {
    let m = y.len();
    let dy: Vec<f64> = (0..m).map(|i| y[i] - prev_y[i]).collect();
    let dy_norm = vecops::inf_norm(&dy);
    if dy_norm < 1e-10 {
        return false;
    }
    let at_dy = a.mul_transpose_vec(&dy);
    let at_norm = vecops::inf_norm(&at_dy);
    if at_norm > eps * dy_norm {
        return false;
    }
    let mut support = 0.0;
    for i in 0..m {
        if dy[i] > 0.0 {
            if u[i].is_infinite() {
                return false;
            }
            support += u[i] * dy[i];
        } else if dy[i] < 0.0 {
            if l[i].is_infinite() {
                return false;
            }
            support += l[i] * dy[i];
        }
    }
    support < -eps * dy_norm
}

/// Diagonal (Jacobi) preconditioner for `P + σI + AᵀRA`.
fn build_precond(p_diag: &[f64], a: &CsrMatrix, rho: &[f64], sigma: f64) -> Vec<f64> {
    let n = p_diag.len();
    let mut d = vec![sigma; n];
    for j in 0..n {
        d[j] += p_diag[j];
    }
    for (r, &rho_r) in rho.iter().enumerate().take(a.nrows()) {
        for (c, v) in a.row(r) {
            d[c] += rho_r * v * v;
        }
    }
    for dj in &mut d {
        if *dj <= 0.0 {
            *dj = 1.0;
        }
    }
    d
}

/// `out = (P + σI + Aᵀ·diag(ρ)·A)·v`, applied matrix-free.
#[allow(clippy::too_many_arguments)]
fn apply_kkt(
    p: &CsrMatrix,
    a: &CsrMatrix,
    rho: &[f64],
    sigma: f64,
    v: &[f64],
    out: &mut [f64],
    scratch_m: &mut [f64],
    scratch_n: &mut [f64],
) {
    p.mul_vec_into(v, out);
    a.mul_vec_into(v, scratch_m);
    vecops::mul_assign(rho, scratch_m);
    a.mul_transpose_vec_into(scratch_m, scratch_n);
    vecops::axpy(sigma, v, out);
    vecops::axpy(1.0, scratch_n, out);
}

/// Preconditioned conjugate gradients on `K = P + σI + AᵀRA` applied
/// matrix-free.
struct CgWorkspace {
    r: Vec<f64>,
    zv: Vec<f64>,
    p: Vec<f64>,
    kp: Vec<f64>,
    scratch_m: Vec<f64>,
    scratch_n: Vec<f64>,
    inv_precond: Vec<f64>,
}

impl CgWorkspace {
    fn new(n: usize, m: usize) -> Self {
        Self {
            r: vec![0.0; n],
            zv: vec![0.0; n],
            p: vec![0.0; n],
            kp: vec![0.0; n],
            scratch_m: vec![0.0; m],
            scratch_n: vec![0.0; n],
            inv_precond: vec![0.0; n],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        pm: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
        sigma: f64,
        precond: &[f64],
        b: &[f64],
        x: &mut [f64],
        max_iter: usize,
        rel_tol: f64,
    ) -> Result<(), SolveError> {
        let n = b.len();
        let b_norm = vecops::norm2(b).max(1e-30);
        // Inverted preconditioner: the apply becomes a parallel
        // element-wise product.
        if self.inv_precond.len() != n {
            self.inv_precond = vec![0.0; n];
        }
        for (inv, p) in self.inv_precond.iter_mut().zip(precond) {
            *inv = 1.0 / *p;
        }
        // r = b - K x  (reuse kp as the K·x buffer)
        apply_kkt(
            pm,
            a,
            rho,
            sigma,
            x,
            &mut self.kp,
            &mut self.scratch_m,
            &mut self.scratch_n,
        );
        for ((rj, &bj), &kj) in self.r.iter_mut().zip(b).zip(&self.kp) {
            *rj = bj - kj;
        }
        vecops::hadamard(&self.inv_precond, &self.r, &mut self.zv);
        let mut rz = vecops::dot(&self.r, &self.zv);
        self.p.copy_from_slice(&self.zv);
        for _ in 0..max_iter {
            let r_norm = vecops::norm2(&self.r);
            if r_norm <= rel_tol * b_norm {
                break;
            }
            apply_kkt(
                pm,
                a,
                rho,
                sigma,
                &self.p,
                &mut self.kp,
                &mut self.scratch_m,
                &mut self.scratch_n,
            );
            let pkp = vecops::dot(&self.p, &self.kp);
            if !pkp.is_finite() || pkp <= 0.0 {
                if pkp < 0.0 {
                    return Err(SolveError::Numerical(
                        "CG encountered negative curvature; P is not PSD".into(),
                    ));
                }
                break;
            }
            let alpha = rz / pkp;
            vecops::cg_update(x, alpha, &self.p, &mut self.r, -alpha, &self.kp);
            vecops::hadamard(&self.inv_precond, &self.r, &mut self.zv);
            let rz_new = vecops::dot(&self.r, &self.zv);
            let beta = rz_new / rz.max(1e-300);
            rz = rz_new;
            vecops::xpby(&self.zv, beta, &mut self.p);
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::Numerical(
                "CG produced non-finite iterate".into(),
            ));
        }
        Ok(())
    }
}

/// Ruiz equilibration scaling factors: variables `d`, constraints `e`, and
/// a scalar cost normalization `cost`. Shared by the ADMM and IPM solvers.
pub(crate) struct Scaling {
    pub(crate) d: Vec<f64>,
    pub(crate) e: Vec<f64>,
    pub(crate) cost: f64,
}

impl Scaling {
    pub(crate) fn compute(qp: &QuadProgram, iters: usize) -> Self {
        let n = qp.num_vars();
        let m = qp.num_constraints();
        let mut d = vec![1.0; n];
        let mut e = vec![1.0; m];
        let mut cost = 1.0;
        if iters == 0 {
            return Self { d, e, cost };
        }
        // Work on running scaled copies implicitly via the cumulative d/e.
        for _ in 0..iters {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(qp: &QuadProgram) -> Solution {
        AdmmSolver::new(AdmmSettings::default())
            .solve(qp)
            .expect("solve")
    }

    #[test]
    fn unconstrained_quadratic() {
        // min (x-3)^2 -> x = 3
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0]),
            vec![-6.0],
            CsrMatrix::zeros(0, 1),
            vec![],
            vec![],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.x[0] - 3.0).abs() < 1e-4, "x = {}", s.x[0]);
    }

    #[test]
    fn box_constrained_clamps() {
        // min (x+5)^2 s.t. 0 <= x <= 1 -> x = 0
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0]),
            vec![10.0],
            CsrMatrix::identity(1),
            vec![0.0],
            vec![1.0],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!(s.x[0].abs() < 1e-4);
    }

    #[test]
    fn equality_constraint() {
        // min x0^2 + x1^2 s.t. x0 + x1 = 2 -> (1, 1)
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0, 2.0]),
            vec![0.0, 0.0],
            CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]),
            vec![2.0],
            vec![2.0],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.x[0] - 1.0).abs() < 1e-3, "x0 = {}", s.x[0]);
        assert!((s.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn active_inequality_kkt() {
        // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 <= 2, x >= 0 -> (0.5, 1.5)
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0, 2.0]),
            vec![-2.0, -4.0],
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![2.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.x[0] - 0.5).abs() < 1e-4);
        assert!((s.x[1] - 1.5).abs() < 1e-4);
        // KKT: dual of the active row should be ~1 (gradient balance).
        assert!((s.y[0] - 1.0).abs() < 1e-3, "y0 = {}", s.y[0]);
    }

    #[test]
    fn lp_is_solved_with_zero_p() {
        // min x0 + x1 s.t. x0 + 2 x1 >= 2, x >= 0  -> (0, 1), objective 1
        let qp = QuadProgram::new(
            CsrMatrix::zeros(2, 2),
            vec![1.0, 1.0],
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (2, 1, 1.0)]),
            vec![2.0, 0.0, 0.0],
            vec![f64::INFINITY; 3],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.objective - 1.0).abs() < 1e-3, "obj = {}", s.objective);
        assert!(qp.max_violation(&s.x) < 1e-4);
    }

    #[test]
    fn primal_infeasible_is_detected() {
        // x <= -1 and x >= 1 simultaneously.
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0]),
            vec![0.0],
            CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
            vec![f64::NEG_INFINITY, 1.0],
            vec![-1.0, f64::INFINITY],
        )
        .unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::PrimalInfeasible);
    }

    #[test]
    fn warm_start_converges_faster() {
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0, 2.0]),
            vec![-2.0, -4.0],
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![2.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let cold = solve(&qp);
        let mut solver = AdmmSolver::new(AdmmSettings::default());
        solver.warm_start(cold.x.clone(), cold.y.clone());
        let warm = solver.solve(&qp).unwrap();
        assert_eq!(warm.status, SolveStatus::Solved);
        assert!(warm.iterations <= cold.iterations);
        assert!((warm.x[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn badly_scaled_problem_survives_equilibration() {
        // min 1e6*(x0 - 1e-3)^2 + 1e-6*(x1 - 1e3)^2 with loose boxes. The
        // curvatures span 12 orders of magnitude; without Ruiz equilibration
        // a tight absolute tolerance is unreachable in the iteration budget.
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2e6, 2e-6]),
            vec![-2e3, -2e-3],
            CsrMatrix::identity(2),
            vec![-1e9, -1e9],
            vec![1e9, 1e9],
        )
        .unwrap();
        let settings = AdmmSettings {
            eps_abs: 1e-9,
            eps_rel: 0.0,
            ..AdmmSettings::default()
        };
        let s = AdmmSolver::new(settings).solve(&qp).unwrap();
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.x[0] - 1e-3).abs() < 1e-6, "x0 = {}", s.x[0]);
        assert!((s.x[1] - 1e3).abs() < 1.0, "x1 = {}", s.x[1]);
    }
}
