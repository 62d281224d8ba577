//! Primal-dual interior-point solver (Mehrotra predictor-corrector).
//!
//! This is the workhorse solver for the dose-map QPs: timing-graph
//! constraint chains make first-order splitting methods (ADMM) converge
//! with a contraction factor near one, while a Newton-type interior-point
//! method reaches 1e-8 accuracy in a few tens of iterations — the same
//! reason the paper reaches for CPLEX. The implementation solves
//!
//! ```text
//! min ½·xᵀPx + qᵀx   s.t.   l ≤ Ax ≤ u
//! ```
//!
//! by introducing row slacks `s = Ax` with barrier terms on the finite
//! sides of `[l, u]`, reducing each Newton step to the SPD system
//! `(P + AᵀDA)·Δx = rhs` (see [`crate::strategies`]).
//!
//! Each iteration runs Mehrotra's predictor-corrector (SIAM J. Optim.
//! 2(4), 1992): an affine predictor solve measures how far the gap can
//! fall, picks the centering `σ = (µ_aff/µ)³`, and feeds second-order
//! complementarity corrections into a centered corrector solve; both
//! solves share one factorization. Per-iteration telemetry streams
//! through [`SolverObserver`].
//!
//! Rows with `l = u` (equalities) are handled by clamping the barrier
//! diagonal, which penalizes them stiffly; rows with both bounds infinite
//! are inert.
//!
//! [`IpmSolver::solve_qcp`] adds one convex quadratic row
//! `c(x) = ½xᵀdiag(p_c)x + q_cᵀx ≤ ξ` with the standard primal-dual
//! treatment of a convex constraint (LOQO: Vanderbei & Shanno, Comput.
//! Optim. Appl. 13, 1999): the row is carried as one more row whose slack
//! and multiplier λ join the barrier state, whose coefficients are its
//! gradient `g = p_c⊙x + q_c` at the iterate, and whose curvature adds
//! `λ·diag(p_c)` to the Newton matrix. Because the row is curved, a
//! Newton step overshoots it by `½·ΔxᵀP_cΔx`; the Mehrotra corrector
//! aims the row's slack at the value the affine step's curvature
//! predicts, the second-order correction of the complementarity products
//! carried over to the row.

use crate::ldl::{Analysis, DirectSolver};
use crate::observer::{
    BackendDecision, DecisionReason, IpmIteration, NopObserver, SolverObserver, StallExit,
};
use crate::scaling::Scaling;
use crate::strategies::{mehrotra_sigma, step_lengths, CondensedSystem, RowTerms, RowView};
use crate::{QuadProgram, QuadRow, SolveError};
use dme_par::vecops;
use std::cell::RefCell;

/// Which linear solver computes each Newton step `(P + AᵀDA)·Δx = rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NewtonBackend {
    /// Matrix-free Jacobi-preconditioned conjugate gradients. Memory
    /// stays linear in the nonzeros; iteration count depends on the
    /// conditioning of the barrier diagonal.
    Cg,
    /// Assembled sparse LDLᵀ with a cached symbolic factorization: the
    /// pattern, approximate-minimum-degree ordering, and elimination tree
    /// are built once per problem structure; each IPM iteration only
    /// replays a scatter plan and refactors numerically. Falls back to CG
    /// when the structure disqualifies itself (a dense constraint row or
    /// a pattern too large to enumerate).
    Direct,
    /// Direct when one numeric factorization costs at most 600 flops per
    /// nonzero of `A` (DESIGN.md has the calibration), else CG. The
    /// symbolic analysis prices the factor before any of it is allocated;
    /// the decision is made on first sight of a structure and cached, and
    /// a CG decision is revisited once after the structure's first solve
    /// with its measured CG effort.
    #[default]
    Auto,
}

/// Settings for [`IpmSolver`].
#[derive(Debug, Clone)]
pub struct IpmSettings {
    /// Maximum interior-point (Newton) iterations.
    pub max_iter: usize,
    /// Newton-system backend selection.
    pub backend: NewtonBackend,
}

impl Default for IpmSettings {
    fn default() -> Self {
        Self {
            max_iter: 60,
            backend: NewtonBackend::default(),
        }
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The residuals met the tolerances, or a stall exit accepted the
    /// iterate at reduced precision ([`SolverObserver::stall_exit`]).
    Solved,
    /// The iteration limit was hit, or the step length collapsed short of
    /// the reduced tolerances; the returned point is the last iterate.
    MaxIterations,
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual solution, one multiplier per constraint row: positive where
    /// the upper bound binds, negative where the lower bound does.
    pub y: Vec<f64>,
    /// Objective value `½ xᵀPx + qᵀx` at `x`.
    pub objective: f64,
    /// Termination status.
    pub status: SolveStatus,
    /// Interior-point iterations used.
    pub iterations: usize,
    /// Constraint violation `max(0, l − Ax, Ax − u)` in the ∞-norm
    /// (unscaled; the quadratic row's violation counts too).
    pub primal_residual: f64,
    /// Dual residual `‖Px + q + Aᵀy‖∞` (unscaled; plus the quadratic
    /// row's `λ·∇c(x)`).
    pub dual_residual: f64,
    /// Multiplier λ ≥ 0 of the convex quadratic row of
    /// [`IpmSolver::solve_qcp`] (0 without one).
    pub row_multiplier: f64,
}

/// Convergence tolerance on the scaled relative primal/dual residuals.
const EPS: f64 = 1e-6;

/// Convergence tolerance on the average complementarity gap µ.
const EPS_MU: f64 = 1e-8;

/// Floor of the Eisenstat–Walker relative CG tolerance.
const CG_TOL: f64 = 1e-10;

/// Fraction-to-the-boundary step factor.
const STEP_FRAC: f64 = 0.995;

/// `Auto` picks the direct backend only while one numeric
/// factorization's flops (`Σ colcountⱼ²` of `L`) per nonzero of `A` stay
/// at or below this limit. The ratio is a refactorization's cost in
/// units of the `A`/`Aᵀ` products one CG iteration performs, so it
/// compares the two backends' per-Newton-iteration work at the CG
/// iteration count the limit was calibrated at (see DESIGN.md). A
/// structure sent to CG is re-decided once after its first solve, with
/// the limit scaled by the CG iterations per Newton solve it measured
/// relative to that count: deep timing graphs need several times more.
const DIRECT_WORK_LIMIT: f64 = 600.0;

/// CG iterations per Newton solve at which [`DIRECT_WORK_LIMIT`] was
/// calibrated: the mean over the first solve of the shallow
/// `profiles::scaling` programs of the calibration sweep (25–29). CG work
/// per Newton iteration grows with this count, so the limit scales with
/// the count a structure's own first CG solve measures.
const CALIBRATION_CG_ITERS: f64 = 27.0;

/// Per-structure cache for the direct backend, validated by a pattern
/// fingerprint so one solver instance can be reused across solves whose
/// programs differ only in values and bounds.
#[derive(Debug, Clone, Default)]
enum DirectCache {
    /// No structure seen yet.
    #[default]
    Empty,
    /// The structure with this fingerprint was turned down for good
    /// (forced CG, a structural guard, or factor work past the limit at
    /// its measured CG effort).
    Rejected(u64),
    /// Turned down by the work rule at the calibration CG effort, and
    /// re-decided once its first CG solve has measured its own.
    Pending(BackendDecision, u64),
    /// Built and ready for numeric refactorization.
    Built(Box<DirectSolver>),
}

/// Mehrotra predictor-corrector interior-point solver.
#[derive(Debug, Clone, Default)]
pub struct IpmSolver {
    settings: IpmSettings,
    /// Direct-backend cache; interior-mutable so `solve(&self)` keeps its
    /// signature while the symbolic factorization persists across calls.
    direct: RefCell<DirectCache>,
}

/// Barrier state per constraint row (the quadratic row, when present,
/// is the last one).
struct Rows {
    /// Finite lower bound flag.
    has_l: Vec<bool>,
    /// Finite upper bound flag.
    has_u: Vec<bool>,
    /// Slack value `s` (clamped strictly inside `[l, u]`).
    s: Vec<f64>,
    /// Lower-side multiplier `z_l ≥ 0` (0 where no lower bound).
    zl: Vec<f64>,
    /// Upper-side multiplier `z_u ≥ 0`.
    zu: Vec<f64>,
}

impl IpmSolver {
    /// Creates a solver with the given settings.
    pub fn new(settings: IpmSettings) -> Self {
        Self {
            settings,
            direct: RefCell::new(DirectCache::Empty),
        }
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Numerical`] if a Newton system solve produces
    /// non-finite values (e.g. `P` not PSD).
    pub fn solve(&self, qp: &QuadProgram) -> Result<Solution, SolveError> {
        self.solve_observed(qp, &mut NopObserver)
    }

    /// Solves the program, streaming per-iteration telemetry to `obs`
    /// (see [`SolverObserver`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`IpmSolver::solve`].
    pub fn solve_observed(
        &self,
        qp: &QuadProgram,
        obs: &mut dyn SolverObserver,
    ) -> Result<Solution, SolveError> {
        self.solve_row(qp, None, obs)
    }

    /// Solves the program with one more constraint, the convex quadratic
    /// row `½xᵀdiag(p)x + qᵀx ≤ ξ` of `row`, streaming telemetry to `obs`.
    /// The row's multiplier is [`Solution::row_multiplier`]; its
    /// violation counts in [`Solution::primal_residual`]. `row.xi = +∞`
    /// solves the plain program.
    ///
    /// # Errors
    ///
    /// [`SolveError::Dimension`] when the row's vectors are not of length
    /// `n`, [`SolveError::Numerical`] when its Hessian has a negative or
    /// non-finite entry or ξ is NaN, plus the failure modes of
    /// [`IpmSolver::solve`].
    pub fn solve_qcp(
        &self,
        qp: &QuadProgram,
        row: &QuadRow,
        obs: &mut dyn SolverObserver,
    ) -> Result<Solution, SolveError> {
        let n = qp.num_vars();
        if row.p_diag.len() != n || row.q.len() != n {
            return Err(SolveError::Dimension(format!(
                "quadratic row has lengths {}/{}, expected {n}",
                row.p_diag.len(),
                row.q.len()
            )));
        }
        if row.xi.is_nan() || row.p_diag.iter().any(|&v| !(v >= 0.0 && v.is_finite())) {
            return Err(SolveError::Numerical(
                "quadratic row is not convex (negative or non-finite Hessian, or NaN bound)".into(),
            ));
        }
        self.solve_row(qp, (row.xi < f64::INFINITY).then_some(row), obs)
    }

    fn solve_row(
        &self,
        qp: &QuadProgram,
        row: Option<&QuadRow>,
        obs: &mut dyn SolverObserver,
    ) -> Result<Solution, SolveError> {
        let _span = dme_obs::span("ipm");
        // Ruiz equilibration: mixed row/column units (ns-scale timing rows
        // against %-scale dose rows) otherwise stall the dual residual.
        let scale = Scaling::compute(qp);
        let n = qp.num_vars();
        let m = qp.num_constraints();
        let scaled = QuadProgram {
            p: scale.scale_p(&qp.p),
            q: (0..n).map(|j| scale.cost * scale.d[j] * qp.q[j]).collect(),
            a: scale.scale_a(&qp.a),
            l: (0..m).map(|i| scale.e[i] * qp.l[i]).collect(),
            u: (0..m).map(|i| scale.e[i] * qp.u[i]).collect(),
        };
        // The quadratic row in the scaled variables, normalized so its
        // largest Hessian or gradient coefficient is 1.
        let scaled_row = row.map(|r| {
            let p: Vec<f64> = (0..n)
                .map(|j| scale.d[j] * scale.d[j] * r.p_diag[j])
                .collect();
            let q: Vec<f64> = (0..n).map(|j| scale.d[j] * r.q[j]).collect();
            let e = inf_norm(&p)
                .max(inf_norm(&q))
                .max(1e-300)
                .recip()
                .clamp(1e-9, 1e9);
            let row = QuadRow {
                p_diag: p.iter().map(|v| e * v).collect(),
                q: q.iter().map(|v| e * v).collect(),
                xi: e * r.xi,
            };
            (row, e)
        });
        let mut sol = self.solve_scaled(&scaled, scaled_row.as_ref().map(|(r, _)| r), obs)?;
        for j in 0..n {
            sol.x[j] *= scale.d[j];
        }
        if let Some((_, e)) = scaled_row {
            sol.row_multiplier = sol.y.pop().unwrap_or(0.0) * e / scale.cost;
        }
        for i in 0..m {
            sol.y[i] *= scale.e[i] / scale.cost;
        }
        sol.objective = qp.objective(&sol.x);
        // Residuals in unscaled space.
        let px = qp.p.mul_vec(&sol.x);
        let mut aty = qp.a.mul_transpose_vec(&sol.y);
        sol.primal_residual = qp.max_violation(&sol.x);
        if let Some(r) = row {
            vecops::axpy(sol.row_multiplier, &r.gradient(&sol.x), &mut aty);
            sol.primal_residual = sol.primal_residual.max(r.value(&sol.x) - r.xi);
        }
        sol.dual_residual = (0..n)
            .map(|j| (px[j] + qp.q[j] + aty[j]).abs())
            .fold(0.0f64, f64::max);
        Ok(sol)
    }

    /// Resolves the Newton backend for `qp`'s structure —
    /// [`NewtonBackend::Direct`] or [`NewtonBackend::Cg`] — running the
    /// symbolic analysis (and building the factor if it is accepted) the
    /// first time the structure is seen. Solves on the same structure
    /// reuse the result, so this also moves the symbolic cost out of the
    /// first solve. Under `Auto` a structure sent to CG is re-decided
    /// once, after its first solve (see [`NewtonBackend::Auto`]).
    pub fn resolve_backend(&self, qp: &QuadProgram) -> NewtonBackend {
        if self.use_direct(qp, &mut NopObserver) {
            NewtonBackend::Direct
        } else {
            NewtonBackend::Cg
        }
    }

    /// Decides (and lazily builds) the direct backend for this structure.
    /// The decision is cached by pattern fingerprint, so repeated solves
    /// on the same structure — IPM bisection probes — pay the symbolic
    /// cost exactly once, and `obs` hears about it once.
    fn use_direct(&self, qp: &QuadProgram, obs: &mut dyn SolverObserver) -> bool {
        let st = &self.settings;
        let fp =
            qp.a.pattern_fingerprint(qp.p.pattern_fingerprint(0xcbf2_9ce4_8422_2325));
        let mut cache = self.direct.borrow_mut();
        match &*cache {
            DirectCache::Built(ds) if ds.fingerprint == fp => return true,
            DirectCache::Rejected(rej) | DirectCache::Pending(_, rej) if *rej == fp => {
                return false
            }
            _ => {}
        }
        let mut decision = BackendDecision {
            n: qp.num_vars(),
            nnz_k: 0,
            nnz_l: 0,
            factor_flops: 0,
            work_ratio: 0.0,
            work_limit: DIRECT_WORK_LIMIT,
            cg_iters_per_solve: CALIBRATION_CG_ITERS,
            backend: NewtonBackend::Cg,
            reason: DecisionReason::Forced,
            ordering_ns: 0,
        };
        let built = if st.backend == NewtonBackend::Cg {
            None
        } else {
            let _span = dme_obs::span("symbolic");
            match Analysis::new(&qp.p, &qp.a) {
                Err(guard) => {
                    decision.reason = guard;
                    None
                }
                Ok(an) => {
                    decision.nnz_k = an.nnz_k();
                    decision.nnz_l = an.nnz_l;
                    decision.factor_flops = an.flops;
                    decision.work_ratio = an.flops as f64 / qp.a.nnz().max(1) as f64;
                    decision.ordering_ns = an.ordering_ns;
                    let forced = st.backend == NewtonBackend::Direct;
                    if !forced {
                        decision.reason = DecisionReason::Cost;
                    }
                    (forced || decision.work_ratio <= DIRECT_WORK_LIMIT)
                        .then(|| DirectSolver::build(an, &qp.p, &qp.a, fp))
                }
            }
        };
        if built.is_some() {
            decision.backend = NewtonBackend::Direct;
        }
        obs.backend_decision(&decision);
        *cache = match built {
            Some(ds) => DirectCache::Built(Box::new(ds)),
            None if decision.reason == DecisionReason::Cost => DirectCache::Pending(decision, fp),
            None => DirectCache::Rejected(fp),
        };
        decision.backend == NewtonBackend::Direct
    }

    /// Re-decides a structure the work rule sent to CG, once, now that
    /// its first solve measured `cg_iters_per_solve`: the limit scales
    /// from the calibration's CG effort to the structure's own, and an
    /// accepted factor is analyzed again and built for the next solve.
    fn revisit(&self, qp: &QuadProgram, cg_iters_per_solve: f64, obs: &mut dyn SolverObserver) {
        let mut cache = self.direct.borrow_mut();
        let DirectCache::Pending(mut decision, fp) = *cache else {
            return;
        };
        decision.cg_iters_per_solve = cg_iters_per_solve;
        decision.work_limit = DIRECT_WORK_LIMIT * cg_iters_per_solve / CALIBRATION_CG_ITERS;
        *cache = DirectCache::Rejected(fp);
        if decision.work_ratio <= decision.work_limit {
            let _span = dme_obs::span("symbolic");
            let an = Analysis::new(&qp.p, &qp.a).expect("guards passed on first sight");
            decision.ordering_ns = an.ordering_ns;
            decision.backend = NewtonBackend::Direct;
            *cache = DirectCache::Built(Box::new(DirectSolver::build(an, &qp.p, &qp.a, fp)));
        }
        obs.backend_decision(&decision);
    }

    fn solve_scaled(
        &self,
        qp: &QuadProgram,
        row: Option<&QuadRow>,
        obs: &mut dyn SolverObserver,
    ) -> Result<Solution, SolveError> {
        let st = &self.settings;
        let n = qp.num_vars();
        let m = qp.num_constraints();
        let p = &qp.p;
        let a = &qp.a;
        let q = &qp.q;
        // Barrier rows: the m linear rows, then the quadratic row (if
        // any) as row `m` with activity c(x), bounds (−∞, ξ] and the
        // gradient at the iterate as its coefficients.
        let mr = m + usize::from(row.is_some());
        let activity = |x: &[f64]| {
            let mut ax = a.mul_vec(x);
            if let Some(r) = row {
                ax.push(r.value(x));
            }
            ax
        };

        // Scale used to make equality rows (l = u) numerically benign:
        // give them a tiny synthetic gap.
        let gap_min = 1e-8;
        let mut l = qp.l.clone();
        let mut u = qp.u.clone();
        if let Some(r) = row {
            l.push(f64::NEG_INFINITY);
            u.push(r.xi);
        }
        for i in 0..m {
            if u[i] - l[i] < gap_min && u[i].is_finite() {
                let mid = 0.5 * (u[i] + l[i]);
                l[i] = mid - 0.5 * gap_min;
                u[i] = mid + 0.5 * gap_min;
            }
        }

        let mut rows = Rows {
            has_l: l.iter().map(|v| v.is_finite()).collect(),
            has_u: u.iter().map(|v| v.is_finite()).collect(),
            s: vec![0.0; mr],
            zl: vec![0.0; mr],
            zu: vec![0.0; mr],
        };

        let q_norm = inf_norm(q).max(1.0);
        let b_norm = l
            .iter()
            .chain(u.iter())
            .filter(|v| v.is_finite())
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(1.0);

        // Newton backend: resolved once per solve; the direct cache (and
        // its symbolic factorization) persists across solves on the same
        // structure.
        let use_direct = self.use_direct(qp, obs);
        obs.newton_backend(if use_direct { "direct" } else { "cg" });
        let mut guard = use_direct.then(|| self.direct.borrow_mut());
        let direct = match guard.as_deref_mut() {
            Some(DirectCache::Built(ds)) => Some(ds.as_mut()),
            _ => None,
        };
        let mut sys = CondensedSystem::new(p, a, direct);

        // Scratch buffers.
        let mut d = vec![0.0f64; mr];
        let mut g = vec![0.0f64; mr];
        let mut dx = vec![0.0f64; n];

        // --- initialization ---
        // The Mehrotra starting-point heuristic — one loose Newton solve
        // of min ½xᵀPx + qᵀx + ½‖Ax − t‖² pulling each bounded linear
        // row toward a well-centered target `t` (the same condensed
        // system with unit barrier weights, so the direct path reuses
        // its symbolic factorization), then slacks clamped well inside
        // the bounds and unit one-sided multipliers.
        let mut x = vec![0.0f64; n];
        if n > 0 && m > 0 {
            let _span = dme_obs::span("start");
            let mut d0 = vec![0.0f64; mr];
            let mut rp0 = vec![0.0f64; mr];
            for i in 0..m {
                let (fl, fu) = (rows.has_l[i], rows.has_u[i]);
                if fl || fu {
                    // Narrow rows — equality rows carry only the 1e-8
                    // synthetic gap — must be met much more tightly than
                    // wide inequality rows, or the initial primal residual
                    // dwarfs their slack box and the fraction-to-boundary
                    // rule pins the first steps near zero. Inverse-width
                    // weighting (capped so the system stays solvable by a
                    // loose CG pass) leaves their residual at the box's
                    // scale instead.
                    d0[i] = if fl && fu {
                        (u[i] - l[i]).clamp(1e-6, 1.0).recip()
                    } else {
                        1.0
                    };
                    // rp = A·0 − t = −t for target slack t.
                    rp0[i] = -match (fl, fu) {
                        (true, true) => 0.5 * (l[i] + u[i]),
                        (true, false) => l[i] + 1.0,
                        _ => u[i] - 1.0,
                    };
                }
            }
            // A starting point only needs a loose solve; non-finite or
            // runaway results (singular systems) fall back to x = 0.
            sys.set_tolerances(1e-4, 1e-6 * q_norm);
            sys.prepare(&d0, None, obs);
            if sys.solve(&g, &d0, q, &rp0, &mut dx, obs).is_ok()
                && inf_norm(&dx) <= 1e8 * (1.0 + b_norm)
            {
                x.copy_from_slice(&dx);
            }
        }
        let ax0 = activity(&x);
        for i in 0..mr {
            let (lo, hi) = (l[i], u[i]);
            let margin = if lo.is_finite() && hi.is_finite() {
                (0.1 * (hi - lo)).clamp(1e-6, 1.0)
            } else {
                1.0
            };
            rows.s[i] = match (rows.has_l[i], rows.has_u[i]) {
                (true, true) => ax0[i].clamp(
                    lo + margin.min(0.4 * (hi - lo)),
                    hi - margin.min(0.4 * (hi - lo)),
                ),
                (true, false) => ax0[i].max(lo + margin),
                (false, true) => ax0[i].min(hi - margin),
                (false, false) => ax0[i],
            };
            if rows.has_l[i] {
                rows.zl[i] = 1.0;
            }
            if rows.has_u[i] {
                rows.zu[i] = 1.0;
            }
        }
        let mut y: Vec<f64> = (0..mr).map(|i| rows.zu[i] - rows.zl[i]).collect();

        // Eisenstat–Walker forcing state (CG path): previous relative KKT
        // residual, driving the next solve's relative tolerance.
        let mut prev_kkt: Option<f64> = None;

        // Reduced-precision acceptance bounds for the two stall exits
        // below: primal feasibility and the complementarity gap must be
        // near full precision (those are what downstream timing checks
        // consume), while the dual residual — the quantity a degenerate
        // active set pins away from zero — is accepted at 1e-2 relative.
        const STALL_RP: f64 = 1e-4;
        const STALL_RD: f64 = 1e-2;
        const STALL_MU: f64 = 1e-4;
        // Iterations in a row whose Newton solves all stopped at the CG
        // cap: the dual residual then measures the inexact solves rather
        // than the iterate, and the merit-stall exit accepts it at 1e-1.
        let mut capped_streak = 0usize;

        let mut status = SolveStatus::MaxIterations;
        let mut iterations = st.max_iter;
        let mut final_rp = f64::INFINITY;
        let mut final_rd = f64::INFINITY;
        let mut stalled_steps = 0usize;
        let mut prev_mu = f64::INFINITY;
        // Merit-based stall detection: the best combined KKT merit seen
        // so far, as of each iteration.
        let mut best_merit = f64::INFINITY;
        let mut best_by_iter: Vec<f64> = Vec::with_capacity(st.max_iter);
        // CG effort of the Newton solves, for the `Auto` revisit.
        let mut cg_iters = 0usize;
        let mut cg_solves = 0usize;

        for iter in 0..st.max_iter {
            // Residuals. The quadratic row's gradient is its coefficient
            // row this iteration.
            let grad = row.map(|r| r.gradient(&x));
            let px = p.mul_vec(&x);
            let mut aty = a.mul_transpose_vec(&y[..m]);
            if let Some(gr) = &grad {
                vecops::axpy(y[m], gr, &mut aty);
            }
            let rd: Vec<f64> = (0..n).map(|j| px[j] + q[j] + aty[j]).collect();
            let ax = activity(&x);
            let rp: Vec<f64> = (0..mr).map(|i| ax[i] - rows.s[i]).collect();
            // y-consistency is maintained exactly (y := zu − zl below).
            let mut mu = 0.0;
            let mut nfin = 0usize;
            for i in 0..mr {
                if rows.has_l[i] {
                    mu += rows.zl[i] * (rows.s[i] - l[i]);
                    nfin += 1;
                }
                if rows.has_u[i] {
                    mu += rows.zu[i] * (u[i] - rows.s[i]);
                    nfin += 1;
                }
            }
            if nfin > 0 {
                mu /= nfin as f64;
            }
            // OSQP-style relative residuals: normalize by the magnitude of
            // the terms composing each residual, not just the static data
            // norms. On the dose-map QPs the active timing multipliers are
            // orders of magnitude above ‖q‖ (≈1 after cost scaling), so a
            // q-only denominator would turn the dual test into an absolute
            // one and overstate the residual by the same factor.
            let rp_scale = b_norm.max(inf_norm(&ax)).max(inf_norm(&rows.s));
            let rd_scale = q_norm.max(inf_norm(&px)).max(inf_norm(&aty));
            let rp_inf = inf_norm(&rp) / rp_scale;
            let rd_inf = inf_norm(&rd) / rd_scale;
            final_rp = inf_norm(&rp);
            final_rd = inf_norm(&rd);
            if rp_inf < EPS && rd_inf < EPS && mu < EPS_MU {
                status = SolveStatus::Solved;
                iterations = iter;
                break;
            }
            // Reduced-precision stall exit. On degenerate programs (the
            // dose-map QPs at τ = nominal have a maximally active timing
            // set) the central path leads to a non-strictly-complementary
            // point: the merit stops contracting while the step length
            // collapses, and Mehrotra iterations churn forever. When the
            // best merit has improved by less than 10% over the last five
            // iterations AND the iterate already meets the reduced
            // tolerances below (primal and µ near full precision, dual
            // within 1e-2 — the dual is exactly what non-strict
            // complementarity blocks), declare it solved at reduced
            // precision — the behaviour of production interior-point
            // codes. An iterate that is stalled but *not* within reduced
            // precision keeps iterating (an inexact Newton backend may
            // still escape, and an honest MaxIterations beats a wrong
            // Solved). While the CG backend is capped the dual residual is
            // the solves' own error, so it is accepted at ten times the
            // bound: a degenerate QCP's endgame, where the curvature of
            // the dose block is only λ·diag(p_c), otherwise spends the
            // iteration cap on 400-step CG solves that no longer move the
            // iterate.
            let merit = rp_inf.max(rd_inf).max(mu);
            best_merit = best_merit.min(merit);
            best_by_iter.push(best_merit);
            let stalled = iter >= 5 && best_merit > 0.9 * best_by_iter[iter - 5];
            let rd_bound = if capped_streak >= 2 {
                10.0 * STALL_RD
            } else {
                STALL_RD
            };
            if stalled && rp_inf < STALL_RP && rd_inf < rd_bound && mu < STALL_MU {
                status = SolveStatus::Solved;
                iterations = iter;
                obs.stall_exit(&StallExit {
                    iter,
                    primal_residual: rp_inf,
                    dual_residual: rd_inf,
                    mu,
                });
                break;
            }

            // Regularized slacks: the *same* effective slack values are
            // used in D, g and the Δz recovery formulas, so the Newton
            // identity `PΔx + AᵀΔy = −rd` holds exactly even when a slack
            // is pinned to the boundary (inconsistent clamping would leak
            // the clamp error straight into the dual residual).
            let mut sl_eff = vec![0.0f64; mr];
            let mut su_eff = vec![0.0f64; mr];
            for i in 0..mr {
                if rows.has_l[i] {
                    sl_eff[i] = (rows.s[i] - l[i]).max(rows.zl[i] * 1e-12).max(1e-14);
                }
                if rows.has_u[i] {
                    su_eff[i] = (u[i] - rows.s[i]).max(rows.zu[i] * 1e-12).max(1e-14);
                }
            }
            // Barrier diagonal D and first-order term g (σ = 0, affine).
            for i in 0..mr {
                let mut di = 0.0;
                let mut gi = 0.0;
                if rows.has_l[i] {
                    di += rows.zl[i] / sl_eff[i];
                    gi += rows.zl[i]; // −c_l/sl with c_l = −Zl·sl
                }
                if rows.has_u[i] {
                    di += rows.zu[i] / su_eff[i];
                    gi -= rows.zu[i]; // c_u/su with c_u = −Zu·su
                }
                d[i] = di.max(1e-12);
                // r_y = y − zu + zl = 0 by construction.
                g[i] = gi;
            }

            // CG must deliver ABSOLUTE accuracy below the dual residual we
            // are trying to reach: with a huge RHS (D·rp terms), relative
            // tolerance alone leaves an absolute error that becomes the
            // dual-residual floor.
            let cg_abs_tol = (1e-2 * inf_norm(&rd)).max(0.05 * EPS * q_norm).max(1e-13);
            // Eisenstat–Walker forcing: the relative CG tolerance tracks
            // the square of the KKT residual contraction, so early Newton
            // steps (inaccurate regardless) stop over-solving while the
            // endgame still reaches `CG_TOL`. The absolute floor above is
            // what guarantees final accuracy either way.
            let kkt = rp_inf.max(rd_inf);
            let cg_rel_tol = match prev_kkt {
                Some(prev) if prev > 0.0 && kkt.is_finite() => {
                    (0.9 * (kkt / prev).powi(2)).clamp(CG_TOL, 1e-2)
                }
                _ => 1e-2,
            };
            prev_kkt = Some(kkt);
            sys.set_tolerances(cg_rel_tol, cg_abs_tol);

            // One numeric preparation per iteration — the predictor and
            // corrector share D, hence the factorization. The quadratic
            // row adds its Lagrangian curvature λ·diag(p_c).
            let row_hessian: Vec<f64> = row.map_or_else(Vec::new, |r| {
                r.p_diag.iter().map(|&pj| rows.zu[m] * pj).collect()
            });
            let row_terms = grad.as_deref().map(|gr| RowTerms {
                hessian: &row_hessian,
                gradient: gr,
            });
            sys.prepare(&d, row_terms, obs);
            // A·Δx over every barrier row, the quadratic one included.
            let row_product = |dx: &[f64]| {
                let mut adx = a.mul_vec(dx);
                if let Some(gr) = &grad {
                    adx.push(vecops::dot(gr, dx));
                }
                adx
            };

            let rows_view = RowView {
                has_l: &rows.has_l,
                has_u: &rows.has_u,
                l: &l,
                u: &u,
                s: &rows.s,
                zl: &rows.zl,
                zu: &rows.zu,
            };

            // Affine predictor: (P + AᵀDA)Δx = −rd − Aᵀ(g + D·rp) with the
            // first-order g, probed to the boundary to measure µ_aff.
            let mut ds_aff = vec![0.0f64; mr];
            let mut dzl_aff = vec![0.0f64; mr];
            let mut dzu_aff = vec![0.0f64; mr];
            let mut kappa_aff = 0.0;
            let (mu_aff, cg_pred) = {
                let _span = dme_obs::span("predictor");
                let cg_pred = sys.solve(&g, &d, &rd, &rp, &mut dx, obs)?;
                let adx = row_product(&dx);
                if let Some(r) = row {
                    kappa_aff = (0..n).map(|j| r.p_diag[j] * dx[j] * dx[j]).sum();
                }
                for i in 0..mr {
                    ds_aff[i] = adx[i] + rp[i];
                    if rows.has_l[i] {
                        dzl_aff[i] = -rows.zl[i] - rows.zl[i] * ds_aff[i] / sl_eff[i];
                    }
                    if rows.has_u[i] {
                        dzu_aff[i] = -rows.zu[i] + rows.zu[i] * ds_aff[i] / su_eff[i];
                    }
                }
                let (ap_aff, ad_aff) = {
                    let _span = dme_obs::span("line_search");
                    step_lengths(&rows_view, &ds_aff, &dzl_aff, &dzu_aff, 1.0)
                };
                let a_aff = ap_aff.min(ad_aff);
                // µ after the affine step.
                let mut mu_aff = 0.0;
                for i in 0..mr {
                    if rows.has_l[i] {
                        mu_aff += (rows.zl[i] + a_aff * dzl_aff[i])
                            * (rows.s[i] + a_aff * ds_aff[i] - l[i]).max(0.0);
                    }
                    if rows.has_u[i] {
                        mu_aff += (rows.zu[i] + a_aff * dzu_aff[i])
                            * (u[i] - rows.s[i] - a_aff * ds_aff[i]).max(0.0);
                    }
                }
                if nfin > 0 {
                    mu_aff /= nfin as f64;
                }
                (mu_aff, cg_pred)
            };
            let sigma = mehrotra_sigma(mu, mu_aff, inf_norm(&rd), q_norm);

            // Per-row centering targets: σµ, except on narrow-box rows —
            // equality rows live in the 1e-8 synthetic gap — where the
            // global target is unreachable (the product z·s cannot exceed
            // z·(u−l) no matter where s sits in the box). Clamping to a
            // quarter of that reachable ceiling keeps their slack step at
            // the box's own scale; an unreachable target turns into a huge
            // Δs that the fraction-to-boundary rule must crush, pinning
            // α near zero for every row. Wide and one-sided rows always
            // get the plain σµ target.
            let mut tl = vec![0.0f64; mr];
            let mut tu = vec![0.0f64; mr];
            for i in 0..mr {
                tl[i] = sigma * mu;
                tu[i] = sigma * mu;
                if rows.has_l[i] && rows.has_u[i] {
                    let w = u[i] - l[i];
                    if w < 1e-6 {
                        tl[i] = tl[i].min(0.25 * rows.zl[i] * w);
                        tu[i] = tu[i].min(0.25 * rows.zu[i] * w);
                    }
                }
            }

            // Corrector: σµ centering plus the Mehrotra second-order terms.
            let _span_corr = dme_obs::span("corrector");
            for i in 0..mr {
                let mut gi = 0.0;
                if rows.has_l[i] {
                    let cl = tl[i] - rows.zl[i] * sl_eff[i] - dzl_aff[i] * ds_aff[i];
                    gi -= cl / sl_eff[i];
                }
                if rows.has_u[i] {
                    let cu = tu[i] - rows.zu[i] * su_eff[i] + dzu_aff[i] * ds_aff[i];
                    gi += cu / su_eff[i];
                }
                g[i] = gi;
            }
            // The quadratic row's curvature correction: a step Δx moves
            // the row by gᵀΔx + ½ΔxᵀP_cΔx, not gᵀΔx, so the corrector aims
            // its slack at the row value the affine step predicts. Without
            // it a full step overshoots a strongly curved row by the
            // curvature term, which later iterations must remove.
            let mut rp_corr = rp.clone();
            if row.is_some() {
                rp_corr[m] += 0.5 * kappa_aff;
            }
            let cg_corr = sys.solve(&g, &d, &rd, &rp_corr, &mut dx, obs)?;
            cg_iters += cg_pred.iterations + cg_corr.iterations;
            cg_solves += 2;
            if cg_corr.capped && cg_pred.capped {
                capped_streak += 1;
            } else {
                capped_streak = 0;
            }

            let adx = row_product(&dx);
            let mut ds = vec![0.0f64; mr];
            let mut dzl = vec![0.0f64; mr];
            let mut dzu = vec![0.0f64; mr];
            for i in 0..mr {
                ds[i] = adx[i] + rp_corr[i];
                if rows.has_l[i] {
                    let cl = tl[i] - rows.zl[i] * sl_eff[i] - dzl_aff[i] * ds_aff[i];
                    dzl[i] = (cl - rows.zl[i] * ds[i]) / sl_eff[i];
                }
                if rows.has_u[i] {
                    let cu = tu[i] - rows.zu[i] * su_eff[i] + dzu_aff[i] * ds_aff[i];
                    dzu[i] = (cu + rows.zu[i] * ds[i]) / su_eff[i];
                }
            }
            let (ap_step, ad_step) = {
                let _span = dme_obs::span("line_search");
                step_lengths(&rows_view, &ds, &dzl, &dzu, STEP_FRAC)
            };
            drop(_span_corr);
            // One common step: the QP dual residual couples x and y, so
            // unequal steps would inject error proportional to the (large)
            // direction magnitudes.
            let alpha = ap_step.min(ad_step);
            obs.ipm_iteration(&IpmIteration {
                iter,
                mu,
                mu_aff,
                primal_residual: final_rp,
                dual_residual: final_rd,
                rp_rel: rp_inf,
                rd_rel: rd_inf,
                sigma,
                alpha,
                cg_iters_predictor: cg_pred.iterations,
                cg_iters_corrector: cg_corr.iterations,
            });

            // Stall exit: once the common step length collapses the
            // iterate no longer moves. At that point the primal is
            // feasible to high accuracy and the objective is within
            // O(µ·m) of optimal — accept it if the primal tolerance is
            // met (the hard requirement downstream), and report the
            // achieved dual residual honestly in the solution.
            let mu_frozen = (mu - prev_mu).abs() <= 1e-4 * prev_mu.min(f64::MAX);
            prev_mu = mu;
            if alpha < 1e-6 && mu_frozen {
                stalled_steps += 1;
                if stalled_steps >= 3 {
                    if rp_inf < STALL_RP && rd_inf < STALL_RD && mu < STALL_MU {
                        status = SolveStatus::Solved;
                        obs.stall_exit(&StallExit {
                            iter,
                            primal_residual: rp_inf,
                            dual_residual: rd_inf,
                            mu,
                        });
                    }
                    iterations = iter + 1;
                    break;
                }
            } else {
                stalled_steps = 0;
            }
            for j in 0..n {
                x[j] += alpha * dx[j];
            }
            for i in 0..mr {
                rows.s[i] += alpha * ds[i];
                // Keep the iterate strictly interior: a slack or multiplier
                // that lands exactly on (or numerically past) its boundary
                // would freeze every future step length at zero. The nudges
                // perturb the residuals by O(1e-12), which the next Newton
                // step absorbs.
                if rows.has_l[i] {
                    rows.zl[i] = (rows.zl[i] + alpha * dzl[i]).max(1e-12);
                    rows.s[i] = rows.s[i].max(l[i] + 1e-12);
                }
                if rows.has_u[i] {
                    rows.zu[i] = (rows.zu[i] + alpha * dzu[i]).max(1e-12);
                    rows.s[i] = rows.s[i].min(u[i] - 1e-12);
                }
                y[i] = rows.zu[i] - rows.zl[i];
            }
            if x.iter().any(|v| !v.is_finite()) {
                return Err(SolveError::Numerical(
                    "IPM produced non-finite iterate".into(),
                ));
            }
        }

        if !use_direct && cg_solves > 0 {
            self.revisit(qp, cg_iters as f64 / cg_solves as f64, obs);
        }
        let objective = qp.objective(&x);
        Ok(Solution {
            x,
            y,
            objective,
            status,
            iterations,
            primal_residual: final_rp,
            dual_residual: final_rd,
            row_multiplier: 0.0,
        })
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    vecops::inf_norm(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::kkt_certificate;
    use crate::observer::{CgSolve, FactorizationEvent};
    use crate::CsrMatrix;

    fn solve(qp: &QuadProgram) -> Solution {
        IpmSolver::new(IpmSettings::default())
            .solve(qp)
            .expect("solve")
    }

    #[test]
    fn box_constrained_quadratic() {
        // min (x+5)^2 s.t. 0 <= x <= 1 -> x = 0.
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
        assert!(s.x[0].abs() < 1e-6, "x = {}", s.x[0]);
    }

    #[test]
    fn active_inequality() {
        // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 <= 2, x >= 0 -> (0.5, 1.5).
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
        assert!((s.x[0] - 0.5).abs() < 1e-6);
        assert!((s.x[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn lp_with_zero_p() {
        // min x0 + x1 s.t. x0 + 2 x1 >= 2, x >= 0 -> objective 1.
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
        assert!((s.objective - 1.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn equality_row_is_respected() {
        // min x0^2 + x1^2 s.t. x0 + x1 = 2 -> (1, 1).
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0, 2.0]),
            vec![0.0, 0.0],
            CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]),
            vec![2.0],
            vec![2.0],
        )
        .unwrap();
        let s = solve(&qp);
        assert!((s.x[0] - 1.0).abs() < 1e-5, "x0 = {}", s.x[0]);
        assert!((s.x[1] - 1.0).abs() < 1e-5);
    }

    fn chain_qp() -> (QuadProgram, usize, f64, f64) {
        // The structure ADMM struggles with: a long chain of arrival
        // constraints coupled to a handful of dose variables.
        let n = 200usize;
        let k = 10usize;
        let t0 = 0.003;
        let c = -0.002;
        let tau = 0.95 * n as f64 * t0;
        let nvars = k + n + 1;
        let t_idx = k + n;
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for g in 0..k {
            rows.push(vec![(g, 1.0)]);
            lo.push(-5.0);
            hi.push(5.0);
        }
        rows.push(vec![(k, -1.0), (0, c)]);
        lo.push(f64::NEG_INFINITY);
        hi.push(-t0);
        for i in 0..n - 1 {
            rows.push(vec![(k + i, 1.0), (k + i + 1, -1.0), (i % k, c)]);
            lo.push(f64::NEG_INFINITY);
            hi.push(-t0);
        }
        rows.push(vec![(k + n - 1, 1.0), (t_idx, -1.0)]);
        lo.push(f64::NEG_INFINITY);
        hi.push(0.0);
        rows.push(vec![(t_idx, 1.0)]);
        lo.push(f64::NEG_INFINITY);
        hi.push(tau);
        let mut pd = vec![0.0; nvars];
        let mut q = vec![0.0; nvars];
        for g in 0..k {
            pd[g] = 2.0;
            q[g] = 6.0;
        }
        let a = CsrMatrix::from_rows(nvars, &rows);
        let qp = QuadProgram::new(CsrMatrix::diagonal(&pd), q, a, lo, hi).unwrap();
        (qp, t_idx, tau, k as f64 * (0.075f64 * 0.075 + 6.0 * 0.075))
    }

    #[test]
    fn chain_problem_converges_fast() {
        let (qp, t_idx, tau, uniform_obj) = chain_qp();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!(s.iterations < 60, "took {} iterations", s.iterations);
        assert!(
            qp.max_violation(&s.x) < 1e-6,
            "viol = {}",
            qp.max_violation(&s.x)
        );
        // The timing bound is active at the optimum.
        assert!(
            (s.x[t_idx] - tau).abs() < 1e-5,
            "T = {} vs tau = {tau}",
            s.x[t_idx]
        );
        // Uniform dose d = 0.075 on every grid is feasible with objective
        // k·(d² + 6d) ≈ 4.56; the optimizer must do at least as well.
        assert!(s.objective <= uniform_obj + 1e-6, "obj = {}", s.objective);
        kkt_certificate(&qp, &s).unwrap();
    }

    #[test]
    fn difference_bounded_program_is_certified_optimal() {
        // A moderately sized strongly convex program: boxes on every
        // variable and on every difference of neighbors.
        let n = 12usize;
        let p_diag: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let q: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 1.0));
            if i + 1 < n {
                trips.push((n + i, i, 1.0));
                trips.push((n + i, i + 1, -1.0));
            }
        }
        let m = 2 * n - 1;
        let a = CsrMatrix::from_triplets(m, n, &trips);
        let mut l = vec![-2.0; m];
        let mut u = vec![2.0; m];
        for i in n..m {
            l[i] = -0.5;
            u[i] = 0.5;
        }
        let qp = QuadProgram::new(CsrMatrix::diagonal(&p_diag), q, a, l, u).unwrap();
        let s = solve(&qp);
        assert_eq!(s.status, SolveStatus::Solved);
        kkt_certificate(&qp, &s).unwrap();
    }

    #[derive(Default)]
    struct Collect {
        iters: Vec<IpmIteration>,
        cg: Vec<CgSolve>,
        factorizations: Vec<FactorizationEvent>,
        backends: Vec<&'static str>,
    }
    impl SolverObserver for Collect {
        fn ipm_iteration(&mut self, it: &IpmIteration) {
            self.iters.push(*it);
        }
        fn cg_solve(&mut self, cg: &CgSolve) {
            self.cg.push(*cg);
        }
        fn newton_backend(&mut self, backend: &'static str) {
            self.backends.push(backend);
        }
        fn factorization(&mut self, ev: &FactorizationEvent) {
            self.factorizations.push(*ev);
        }
    }

    fn small_qp() -> QuadProgram {
        QuadProgram::new(
            CsrMatrix::diagonal(&[2.0, 2.0]),
            vec![-2.0, -4.0],
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![2.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap()
    }

    #[test]
    fn observer_streams_per_iteration_telemetry() {
        let qp = small_qp();
        let mut obs = Collect::default();
        // Pin the CG backend: this test asserts the per-CG-solve stream.
        let s = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Cg,
            ..IpmSettings::default()
        })
        .solve_observed(&qp, &mut obs)
        .expect("solve");
        assert_eq!(s.status, SolveStatus::Solved);
        // One record per completed Newton iteration, indexed in order,
        // and two CG solves (predictor + corrector) per record, plus the
        // one loose solve behind the cold starting-point heuristic.
        assert_eq!(obs.iters.len(), s.iterations);
        assert!(!obs.iters.is_empty());
        for (k, it) in obs.iters.iter().enumerate() {
            assert_eq!(it.iter, k);
            assert!(it.mu.is_finite() && it.mu >= 0.0);
            assert!(it.mu_aff.is_finite() && it.mu_aff >= 0.0);
            assert!(it.primal_residual.is_finite());
            assert!(it.dual_residual.is_finite());
            // The relative residuals divide by scales of at least 1.
            assert!((0.0..=it.primal_residual).contains(&it.rp_rel));
            assert!((0.0..=it.dual_residual).contains(&it.rd_rel));
            assert!((0.0..=1.0).contains(&it.alpha));
        }
        assert_eq!(obs.cg.len(), 2 * obs.iters.len() + 1);
        assert!(obs.cg.iter().any(|c| c.iterations > 0));
        assert_eq!(obs.backends, vec!["cg"]);
        assert!(obs.factorizations.is_empty());
        // µ must shrink substantially from first to last iteration.
        let first = obs.iters.first().unwrap().mu;
        let last = obs.iters.last().unwrap().mu;
        assert!(last < first, "mu did not decrease: {first} -> {last}");
    }

    #[test]
    fn direct_backend_matches_cg() {
        let qp = small_qp();
        let cg = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Cg,
            ..IpmSettings::default()
        })
        .solve(&qp)
        .expect("cg solve");
        let direct = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Direct,
            ..IpmSettings::default()
        })
        .solve(&qp)
        .expect("direct solve");
        assert_eq!(cg.status, direct.status);
        assert!(
            (cg.objective - direct.objective).abs() < 1e-6,
            "objectives diverge: {} vs {}",
            cg.objective,
            direct.objective
        );
        for j in 0..qp.num_vars() {
            assert!((cg.x[j] - direct.x[j]).abs() < 1e-5, "x[{j}]");
        }
    }

    #[test]
    fn direct_backend_streams_factorization_telemetry() {
        let qp = small_qp();
        let solver = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Direct,
            ..IpmSettings::default()
        });
        let mut obs = Collect::default();
        let s = solver.solve_observed(&qp, &mut obs).expect("solve");
        assert_eq!(s.status, SolveStatus::Solved);
        assert_eq!(obs.backends, vec!["direct"]);
        // One factorization per Newton iteration plus one for the cold
        // starting-point heuristic, no CG events; only the very first
        // numeric pass builds the symbolic side.
        assert_eq!(
            obs.factorizations.len(),
            obs.iters.len().max(s.iterations) + 1
        );
        assert!(obs.cg.is_empty());
        assert!(!obs.factorizations[0].symbolic_reused);
        assert!(obs.factorizations[1..].iter().all(|f| f.symbolic_reused));
        assert!(obs.factorizations.iter().all(|f| f.nnz_l > 0 && f.n == 2));
        assert!(obs
            .iters
            .iter()
            .all(|it| it.cg_iters_predictor == 0 && it.cg_iters_corrector == 0));
        // A second solve on the same solver reuses the cached symbolic
        // factorization from the very first iteration on.
        let mut obs2 = Collect::default();
        solver.solve_observed(&qp, &mut obs2).expect("re-solve");
        assert!(!obs2.factorizations.is_empty());
        assert!(obs2.factorizations.iter().all(|f| f.symbolic_reused));
    }

    #[test]
    fn auto_backend_falls_back_on_dense_rows() {
        // One row touching 100+ variables disqualifies the direct build;
        // Auto (and even forced Direct) must degrade to CG and still solve.
        let n = 128usize;
        let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|j| (0, j, 1.0)).collect();
        for j in 0..n {
            trips.push((1 + j, j, 1.0));
        }
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&vec![2.0; n]),
            vec![1.0; n],
            CsrMatrix::from_triplets(1 + n, n, &trips),
            std::iter::once(-1e3).chain((0..n).map(|_| -1.0)).collect(),
            std::iter::once(1e3).chain((0..n).map(|_| 1.0)).collect(),
        )
        .unwrap();
        for backend in [NewtonBackend::Auto, NewtonBackend::Direct] {
            let mut obs = Collect::default();
            let s = IpmSolver::new(IpmSettings {
                backend,
                ..IpmSettings::default()
            })
            .solve_observed(&qp, &mut obs)
            .expect("solve");
            assert_eq!(s.status, SolveStatus::Solved);
            assert_eq!(obs.backends, vec!["cg"]);
        }
    }

    /// `min −x − y  s.t.  x² + y² ≤ 1` inside the box `[−2, 2]²`: the
    /// optimum −√2 sits on the disc at `(1/√2, 1/√2)` with λ = 1/√2.
    fn disc_lp() -> (QuadProgram, QuadRow) {
        let qp = QuadProgram::new(
            CsrMatrix::zeros(2, 2),
            vec![-1.0, -1.0],
            CsrMatrix::identity(2),
            vec![-2.0, -2.0],
            vec![2.0, 2.0],
        )
        .unwrap();
        let row = QuadRow {
            p_diag: vec![2.0, 2.0],
            q: vec![0.0, 0.0],
            xi: 1.0,
        };
        (qp, row)
    }

    #[test]
    fn quadratic_row_solves_the_disc_lp_on_both_backends() {
        let (qp, row) = disc_lp();
        for backend in [NewtonBackend::Cg, NewtonBackend::Direct] {
            let mut obs = Collect::default();
            let s = IpmSolver::new(IpmSettings {
                backend,
                ..IpmSettings::default()
            })
            .solve_qcp(&qp, &row, &mut obs)
            .expect("solve");
            assert_eq!(s.status, SolveStatus::Solved, "{backend:?}");
            assert_eq!(
                obs.backends,
                vec![if backend == NewtonBackend::Cg {
                    "cg"
                } else {
                    "direct"
                }]
            );
            let root_half = std::f64::consts::FRAC_1_SQRT_2;
            assert!(
                (s.objective + std::f64::consts::SQRT_2).abs() < 1e-6,
                "{backend:?}: objective {}",
                s.objective
            );
            for j in 0..2 {
                assert!(
                    (s.x[j] - root_half).abs() < 1e-5,
                    "{backend:?}: x = {:?}",
                    s.x
                );
            }
            assert!(row.value(&s.x) <= row.xi + 1e-6);
            assert!(
                (s.row_multiplier - root_half).abs() < 1e-4,
                "λ = {}",
                s.row_multiplier
            );
            assert!(s.primal_residual < 1e-6 && s.dual_residual < 1e-5);
        }
    }

    #[test]
    fn inactive_quadratic_row_leaves_the_qp_optimum() {
        // min (x − ½)² + (y − ½)² inside the box, under x² + y² ≤ 4: the
        // unconstrained optimum is interior to the disc, so λ → 0.
        let (mut qp, mut row) = disc_lp();
        qp.p = CsrMatrix::diagonal(&[2.0, 2.0]);
        row.xi = 4.0;
        for backend in [NewtonBackend::Cg, NewtonBackend::Direct] {
            let s = IpmSolver::new(IpmSettings {
                backend,
                ..IpmSettings::default()
            })
            .solve_qcp(&qp, &row, &mut NopObserver)
            .expect("solve");
            assert_eq!(s.status, SolveStatus::Solved);
            assert!(
                (s.x[0] - 0.5).abs() < 1e-6 && (s.x[1] - 0.5).abs() < 1e-6,
                "x = {:?}",
                s.x
            );
            assert!(s.row_multiplier.abs() < 1e-6, "λ = {}", s.row_multiplier);
        }
    }

    #[test]
    fn infinite_budget_means_no_row() {
        let (qp, mut row) = disc_lp();
        row.xi = f64::INFINITY;
        for backend in [NewtonBackend::Cg, NewtonBackend::Direct] {
            let solver = IpmSolver::new(IpmSettings {
                backend,
                ..IpmSettings::default()
            });
            let with_row = solver.solve_qcp(&qp, &row, &mut NopObserver).expect("row");
            let plain = solver.solve(&qp).expect("plain");
            // Without the disc the LP runs to the box corner (2, 2).
            assert_eq!(with_row.x, plain.x);
            assert_eq!(with_row.iterations, plain.iterations);
            assert_eq!(with_row.row_multiplier, 0.0);
            assert!(
                (plain.objective + 4.0).abs() < 1e-6,
                "obj = {}",
                plain.objective
            );
        }
    }

    #[test]
    fn malformed_quadratic_rows_are_rejected() {
        let (qp, row) = disc_lp();
        let solver = IpmSolver::new(IpmSettings::default());
        let short = QuadRow {
            q: vec![0.0],
            ..row.clone()
        };
        assert!(matches!(
            solver.solve_qcp(&qp, &short, &mut NopObserver),
            Err(SolveError::Dimension(_))
        ));
        let concave = QuadRow {
            p_diag: vec![2.0, -1.0],
            ..row
        };
        assert!(matches!(
            solver.solve_qcp(&qp, &concave, &mut NopObserver),
            Err(SolveError::Numerical(_))
        ));
    }

    #[test]
    fn free_rows_are_inert() {
        let qp = QuadProgram::new(
            CsrMatrix::diagonal(&[2.0]),
            vec![-2.0],
            CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 3.0)]),
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let s = solve(&qp);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
        // No rows at all: the same unconstrained minimum.
        let bare = QuadProgram::new(qp.p, qp.q, CsrMatrix::zeros(0, 1), vec![], vec![]).unwrap();
        let s = solve(&bare);
        assert_eq!(s.status, SolveStatus::Solved);
        assert!((s.x[0] - 1.0).abs() < 1e-6, "x = {}", s.x[0]);
    }
}
