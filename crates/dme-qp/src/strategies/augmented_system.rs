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

use crate::csr::{RowBlocks, PAD_COLUMNS, ROW_WIDTH};
use crate::ldl::DirectSolver;
use crate::observer::{CgSolve, FactorizationEvent, SolverObserver};
use crate::{CsrMatrix, SolveError};
use dme_par::vecops::{self, chunked_sums, SUM_IDENTITY};
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
pub(crate) struct PreparedRow {
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

/// Scatters `AᵀD·A·x` into `tn` in one ascending pass over `A`'s rows
/// ([`RowBlocks`]): row `r` forms `t_r = a_r·x` in CSR order and
/// `s_r = t_r·d_r`, and unless `s_r == 0.0` adds `a_rc·s_r` to `tn[c]`.
///
/// Each `tn[c]` therefore adds exactly the terms the transpose gather
/// `Aᵀ·(D·(A·x))` adds, in its ascending-row order, skipping the same
/// zeros — the same bits. A padding entry adds `0.0·0.0` to a row sum that
/// started as `0.0 + …` and so is never `−0.0`, which leaves it unchanged.
///
/// `x` ends in the padding columns' [`PAD_COLUMNS`] zeros; `tn` has the
/// same length and is `+0.0` in every entry that is read afterwards.
fn scatter_normal(a: &CsrMatrix, d: &[f64], x: &[f64], tn: &mut [f64]) {
    let RowBlocks { blocks, long_rows } = a.row_blocks();
    let m = a.nrows();
    let mut start = 0;
    for &stop in long_rows.iter().chain(std::iter::once(&m)) {
        for (b, &dr) in blocks[start..stop].iter().zip(&d[start..stop]) {
            let mut t = 0.0;
            for k in 0..ROW_WIDTH {
                t += b.vals[k] * x[b.cols[k] as usize];
            }
            let s = t * dr;
            if s != 0.0 {
                for k in 0..ROW_WIDTH {
                    tn[b.cols[k] as usize] += b.vals[k] * s;
                }
            }
        }
        if stop < m {
            // A row wider than the blocks: the same arithmetic via CSR.
            let (a_ptr, a_idx, a_val) = a.raw_parts();
            let entries = a_ptr[stop]..a_ptr[stop + 1];
            let mut t = 0.0;
            for e in entries.clone() {
                t += a_val[e] * x[a_idx[e]];
            }
            let s = t * d[stop];
            if s != 0.0 {
                for e in entries {
                    tn[a_idx[e]] += a_val[e] * s;
                }
            }
        }
        start = stop + 1;
    }
}

/// Entry `j` of `(P + diag(h) + AᵀDA + c·g)·x` from `P`'s CSR arrays and
/// the scattered `tn_j`, adding in the order the separate products did:
/// `P_j·x`, then `tn_j`, then (with a quadratic row and `c = w·gᵀx`)
/// `h_j·x_j` and `c·g_j`.
#[inline(always)]
fn k_entry(
    (p_ptr, p_idx, p_val): (&[usize], &[usize], &[f64]),
    row: Option<(&PreparedRow, f64)>,
    x: &[f64],
    tn_j: f64,
    j: usize,
) -> f64 {
    let mut acc = 0.0;
    for e in p_ptr[j]..p_ptr[j + 1] {
        acc += p_val[e] * x[p_idx[e]];
    }
    acc += tn_j;
    if let Some((r, c)) = row {
        acc += r.hessian[j] * x[j];
        acc += c * r.gradient[j];
    }
    acc
}

/// `out = (P + diag(h) + AᵀDA + w·ggᵀ)·x` for the row terms `(h, g, w)`:
/// one pass over `A`'s rows ([`scatter_normal`]) and one over the
/// variables. `x` ends in [`PAD_COLUMNS`] zeros; `tn` (as long) is `+0.0`
/// on entry and left so.
pub(crate) fn apply_k(
    p: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    row: Option<&PreparedRow>,
    x: &[f64],
    out: &mut [f64],
    tn: &mut [f64],
) {
    let n = out.len();
    scatter_normal(a, d, x, tn);
    let row = row.map(|r| (r, r.weight * vecops::dot(&r.gradient, &x[..n])));
    let parts = p.raw_parts();
    for (j, o) in out.iter_mut().enumerate() {
        *o = k_entry(parts, row, x, tn[j], j);
        tn[j] = 0.0;
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
        let cg = direct.is_none().then(|| CgScratch::new(n));
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
    CondensedSystem::direct_apply_inverse(ds, row, rhs, dx);
    let mut corr = vec![0.0f64; n];
    let mut resid = vec![0.0f64; n];
    // `dx` with the operator's padding zeros, and its scatter scratch.
    let mut xp = vec![0.0f64; n + PAD_COLUMNS];
    let mut tn = vec![0.0f64; n + PAD_COLUMNS];
    let b_norm = vecops::norm2(rhs).max(1e-300);
    let mut rel = 0.0;
    for _ in 0..3 {
        // resid = rhs − K·dx, matrix-free.
        xp[..n].copy_from_slice(dx);
        apply_k(p, a, d, row, &xp, &mut resid, &mut tn);
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
///
/// One iteration is the operator's row pass plus three passes over the
/// variables, each carrying the reductions the next step needs:
///
/// - A: the operator's last pass, `kp += 1e-12·p` and `p·kp`;
/// - B: `x += α·p`, `r −= α·kp`, `z = M⁻¹r`, `r·z` and `r·r` (the next
///   convergence test);
/// - C: `p = z + β·p` and `g·p` (the quadratic row's next product).
///
/// Every element operation is the one the separate vector kernels ran,
/// and every reduction adds its terms in `vecops::dot`'s order
/// ([`chunked_sums`]), so iterates, counts and residuals are those of the
/// composed loop to the bit. The passes run serially: at these sizes a
/// fork-join costs more than it saves.
struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    /// The search direction plus the operator's padding zeros.
    p: Vec<f64>,
    kp: Vec<f64>,
    /// Scatter scratch of the operator, `+0.0` between products.
    tn: Vec<f64>,
    inv_prec: Vec<f64>,
}

impl CgScratch {
    fn new(n: usize) -> Self {
        Self {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n + PAD_COLUMNS],
            kp: vec![0.0; n],
            tn: vec![0.0; n + PAD_COLUMNS],
            inv_prec: vec![0.0; n],
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
        let Self {
            r,
            z,
            p,
            kp,
            tn,
            inv_prec,
        } = self;
        // Jacobi preconditioner: diag(P) + Σ d_i·a_ij², stored inverted so
        // the per-iteration apply is an element-wise product.
        inv_prec.fill(1e-12);
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
        for v in inv_prec.iter_mut() {
            *v = 1.0 / *v;
        }
        // x starts at 0, so r = b: z = M⁻¹r, p = z, r·z and r·r = ‖b‖².
        r.copy_from_slice(b);
        let [mut rz, mut rr] = chunked_sums(n, |range| {
            let (mut rz, mut rr) = (SUM_IDENTITY, SUM_IDENTITY);
            for i in range {
                let zi = inv_prec[i] * r[i];
                z[i] = zi;
                p[i] = zi;
                rz += r[i] * zi;
                rr += r[i] * r[i];
            }
            [rz, rr]
        });
        let b_norm = rr.sqrt().max(1e-300);
        let gradient = row.map(|r| &r.gradient[..]);
        let mut gp = gradient.map_or(0.0, |g| vecops::dot(g, &p[..n]));
        let tol = (rel_tol * b_norm).min(abs_tol.max(rel_tol * b_norm * 1e-3));
        let mut iterations = 0usize;
        for _ in 0..CG_MAX_ITER {
            if rr.sqrt() <= tol {
                break;
            }
            scatter_normal(a, d, p, tn);
            let pkp = product_pass(pm, row.map(|r| (r, r.weight * gp)), p, tn, kp);
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
            let rz_new;
            [rz_new, rr] = step_pass(alpha, p, kp, inv_prec, x, r, z);
            let beta = rz_new / rz.max(1e-300);
            rz = rz_new;
            gp = direction_pass(beta, z, gradient, p);
        }
        let r_norm = rr.sqrt();
        let rel_residual = r_norm / b_norm;
        let capped = iterations == CG_MAX_ITER && r_norm > tol;
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

/// Pass A: the operator's last pass ([`k_entry`], with the quadratic
/// row's `(terms, w·gᵀp)`) fused with `kp += 1e-12·p`; returns `p·kp`.
/// Resets `tn[..n]` to `+0.0` for the next product.
fn product_pass(
    pm: &CsrMatrix,
    row: Option<(&PreparedRow, f64)>,
    p: &[f64],
    tn: &mut [f64],
    kp: &mut [f64],
) -> f64 {
    let parts = pm.raw_parts();
    let [pkp] = chunked_sums(kp.len(), |range| {
        let mut pkp = SUM_IDENTITY;
        for j in range {
            let kpj = k_entry(parts, row, p, tn[j], j) + 1e-12 * p[j];
            tn[j] = 0.0;
            kp[j] = kpj;
            pkp += p[j] * kpj;
        }
        [pkp]
    });
    pkp
}

/// Pass B: `x += α·p`, `r −= α·kp`, `z = M⁻¹r`; returns `[r·z, r·r]`.
fn step_pass(
    alpha: f64,
    p: &[f64],
    kp: &[f64],
    inv_prec: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
) -> [f64; 2] {
    let neg_alpha = -alpha;
    chunked_sums(r.len(), |range| {
        let (mut rz, mut rr) = (SUM_IDENTITY, SUM_IDENTITY);
        for i in range {
            x[i] += alpha * p[i];
            let ri = r[i] + neg_alpha * kp[i];
            r[i] = ri;
            let zi = inv_prec[i] * ri;
            z[i] = zi;
            rz += ri * zi;
            rr += ri * ri;
        }
        [rz, rr]
    })
}

/// Pass C: `p = z + β·p` over `z`'s length; returns `g·p` for the
/// quadratic row's gradient `g` (`0.0` without one).
fn direction_pass(beta: f64, z: &[f64], gradient: Option<&[f64]>, p: &mut [f64]) -> f64 {
    let Some(g) = gradient else {
        for (pi, &zi) in p.iter_mut().zip(z) {
            *pi = zi + beta * *pi;
        }
        return 0.0;
    };
    let [gp] = chunked_sums(z.len(), |range| {
        let mut gp = SUM_IDENTITY;
        for i in range {
            let pi = z[i] + beta * p[i];
            p[i] = pi;
            gp += g[i] * pi;
        }
        [gp]
    });
    gp
}

#[cfg(test)]
mod tests;
