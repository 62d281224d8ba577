//! Solver telemetry hooks.
//!
//! The IPM exposes its inner loop through a pure observer trait so that
//! callers can collect per-iteration convergence telemetry without this
//! crate depending on any tracing infrastructure. The solver invokes
//! the hooks unconditionally; a no-op implementation ([`NopObserver`])
//! keeps the default path free of any cost beyond a virtual call per
//! Newton iteration (two per CG solve), which is noise next to the
//! matrix-vector products each iteration performs.

use crate::NewtonBackend;

/// Telemetry for one completed interior-point (Newton) iteration,
/// reported just before the step is applied. The predictor/corrector
/// split is visible per iteration: `mu_aff` and `cg_iters_predictor`
/// carry the affine pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpmIteration {
    /// Zero-based Newton iteration index.
    pub iter: usize,
    /// Average complementarity gap µ at the top of the iteration.
    pub mu: f64,
    /// Complementarity gap predicted by the affine predictor probe.
    pub mu_aff: f64,
    /// Primal residual `‖Ax − s‖∞` (scaled problem, absolute).
    pub primal_residual: f64,
    /// Dual residual `‖Px + q + Aᵀy‖∞` (scaled problem, absolute).
    pub dual_residual: f64,
    /// `primal_residual` relative to the magnitude of the terms that
    /// compose it: the value the convergence and stall exits compare.
    pub rp_rel: f64,
    /// `dual_residual` relative to the magnitude of the terms that
    /// compose it: the value the convergence and stall exits compare.
    pub rd_rel: f64,
    /// Mehrotra centering parameter σ chosen this iteration.
    pub sigma: f64,
    /// Common primal/dual step length α actually taken.
    pub alpha: f64,
    /// CG iterations spent on the affine predictor solve.
    pub cg_iters_predictor: usize,
    /// CG iterations spent on the corrector solve.
    pub cg_iters_corrector: usize,
}

/// Telemetry for one inner conjugate-gradient solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgSolve {
    /// CG iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖r‖₂ / ‖b‖₂`.
    pub rel_residual: f64,
    /// Whether the solve stopped at the CG iteration cap (400) short of
    /// its tolerance.
    pub capped: bool,
}

/// A solve that ended through one of the IPM's stall exits and was
/// accepted at reduced precision: its iterate stopped improving while
/// the primal residual and µ met the reduced tolerances and the dual
/// residual stayed within 1e-2. The residuals are the scaled relative
/// ones the exit tested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallExit {
    /// Zero-based Newton iteration at which the solve stopped.
    pub iter: usize,
    /// Relative primal residual.
    pub primal_residual: f64,
    /// Relative dual residual.
    pub dual_residual: f64,
    /// Average complementarity gap µ.
    pub mu: f64,
}

/// Telemetry for one numeric (re)factorization in the direct Newton
/// backend — one per IPM iteration (the predictor and corrector share
/// the factor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorizationEvent {
    /// Whether the symbolic factorization (elimination tree, pattern,
    /// ordering, scatter plan) was reused from an earlier iteration or
    /// probe — `false` only for the first numeric pass after a symbolic
    /// (re)build.
    pub symbolic_reused: bool,
    /// Wall-clock nanoseconds spent on numeric assembly + refactorization.
    pub refactor_ns: u64,
    /// Nonzeros in the `L` factor (strict lower triangle).
    pub nnz_l: usize,
    /// Dimension of the Newton system.
    pub n: usize,
    /// Pivots clamped to the floor (a vanished or roundoff-negative
    /// diagonal); iterative refinement absorbs the perturbation.
    pub pivots_clamped: usize,
}

/// Why [`BackendDecision::backend`] came out as it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// [`crate::IpmSettings::backend`] forced it (`Direct` still needs the
    /// structural guards to pass).
    Forced,
    /// A constraint row is too dense to form `AᵀDA`.
    DenseRow,
    /// The pattern of `K` is too large to enumerate.
    PatternCap,
    /// The `Auto` work rule: factor flops per nonzero of `A` against
    /// [`BackendDecision::work_limit`].
    Cost,
}

/// The Newton-backend decision for one problem structure, cached for
/// every later solve on the same sparsity pattern. It is made when the
/// structure is first seen; an `Auto` decision for CG on cost is made
/// once more after the first solve, with the measured CG effort. Sizes
/// and costs are 0 where no symbolic analysis ran (a forced CG backend or
/// a structural guard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendDecision {
    /// Dimension of the Newton system.
    pub n: usize,
    /// Nonzeros in the upper triangle of `K = P + AᵀDA`.
    pub nnz_k: usize,
    /// Nonzeros in `L` under the fill-reducing ordering.
    pub nnz_l: usize,
    /// Multiply-adds of one numeric factorization, `Σ colcountⱼ²`.
    pub factor_flops: u64,
    /// `factor_flops / nnz(A)`: one refactorization's cost in units of
    /// the `A`-products a CG iteration performs.
    pub work_ratio: f64,
    /// The `Auto` limit `work_ratio` was held against.
    pub work_limit: f64,
    /// CG iterations per Newton solve the limit assumes: the calibration
    /// value when a structure is first seen, the structure's measured
    /// mean when a CG decision is revisited after its first solve.
    pub cg_iters_per_solve: f64,
    /// The chosen backend: [`NewtonBackend::Direct`] or
    /// [`NewtonBackend::Cg`].
    pub backend: NewtonBackend,
    /// Why.
    pub reason: DecisionReason,
    /// Wall-clock nanoseconds spent computing the ordering.
    pub ordering_ns: u64,
}

/// Receiver for solver telemetry; all methods default to no-ops so
/// implementors override only what they consume.
pub trait SolverObserver {
    /// Called once per completed Newton iteration.
    fn ipm_iteration(&mut self, it: &IpmIteration) {
        let _ = it;
    }

    /// Called after every inner CG solve: predictor then corrector each
    /// iteration, plus one loose solve for the cold starting-point
    /// heuristic. Not called by the direct backend.
    fn cg_solve(&mut self, cg: &CgSolve) {
        let _ = cg;
    }

    /// Called once per solve after backend selection resolves, with
    /// `"direct"` or `"cg"`.
    fn newton_backend(&mut self, backend: &'static str) {
        let _ = backend;
    }

    /// Called when the backend is decided for a structure the solver has
    /// not seen before, and when an `Auto` decision for CG is revisited
    /// after the structure's first solve (later solves reuse it).
    fn backend_decision(&mut self, decision: &BackendDecision) {
        let _ = decision;
    }

    /// Called once per IPM iteration on the direct backend, after the
    /// numeric (re)factorization.
    fn factorization(&mut self, ev: &FactorizationEvent) {
        let _ = ev;
    }

    /// Called when a solve ends through a stall exit that reports
    /// [`crate::SolveStatus::Solved`] at reduced precision.
    fn stall_exit(&mut self, exit: &StallExit) {
        let _ = exit;
    }
}

/// The do-nothing observer used by [`crate::IpmSolver::solve`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NopObserver;

impl SolverObserver for NopObserver {}
