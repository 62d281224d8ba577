//! The DMopt optimizer: solve, snap, golden signoff.

use crate::context::{GoldenSummary, OptContext};
use crate::error::DmoptError;
use crate::formulate::{Formulation, FormulationParams};
use dme_dosemap::{DoseGrid, DoseMap, DoseSensitivity};
use dme_qp::{
    IpmSettings, IpmSolver, NewtonBackend, NopObserver, QuadProgram, QuadRow, Solution,
    SolveStatus, SolverObserver,
};
use dme_sta::{analyze, GeometryAssignment};
use std::time::{Duration, Instant};

pub use crate::formulate::LayerChoice as Layers;

/// Streams IPM telemetry into the observability registry: one `ipm_iter`
/// record per Newton iteration (the convergence trajectory — µ, µ_aff,
/// primal/dual residuals, σ, α), a `qp_backend_decision` record per
/// backend decision, plus CG/factorization effort counters,
/// reduced-precision stall exits and CG iteration-cap hits, and a
/// per-solve CG iteration histogram. Only useful when tracing is
/// enabled; shared by [`optimize`] and the `dmeopt qp` subcommand.
pub struct ObsSolverObserver;

impl dme_qp::SolverObserver for ObsSolverObserver {
    fn ipm_iteration(&mut self, it: &dme_qp::IpmIteration) {
        dme_obs::record(
            "ipm_iter",
            &[
                ("iter", it.iter as f64),
                ("mu", it.mu),
                ("mu_aff", it.mu_aff),
                ("rp_inf", it.primal_residual),
                ("rd_inf", it.dual_residual),
                ("rp_rel", it.rp_rel),
                ("rd_rel", it.rd_rel),
                ("sigma", it.sigma),
                ("alpha", it.alpha),
                ("cg_pred", it.cg_iters_predictor as f64),
                ("cg_corr", it.cg_iters_corrector as f64),
            ],
        );
        dme_obs::counter_add("qp/ipm_iterations", 1);
    }

    fn cg_solve(&mut self, cg: &dme_qp::CgSolve) {
        dme_obs::counter_add("qp/cg_solves", 1);
        dme_obs::counter_add("qp/cg_iterations", cg.iterations as u64);
        dme_obs::histogram_record("qp/cg_iters_per_solve", cg.iterations as u64);
        if cg.capped {
            dme_obs::counter_add("qp/cg_cap_hits", 1);
        }
    }

    fn stall_exit(&mut self, _exit: &dme_qp::StallExit) {
        dme_obs::counter_add("qp/stall_exits", 1);
    }

    fn newton_backend(&mut self, backend: &'static str) {
        match backend {
            "direct" => dme_obs::counter_add("qp/backend_direct", 1),
            _ => dme_obs::counter_add("qp/backend_cg", 1),
        }
    }

    fn backend_decision(&mut self, d: &dme_qp::BackendDecision) {
        let reason = match d.reason {
            dme_qp::DecisionReason::Forced => 0.0,
            dme_qp::DecisionReason::DenseRow => 1.0,
            dme_qp::DecisionReason::PatternCap => 2.0,
            dme_qp::DecisionReason::Cost => 3.0,
        };
        dme_obs::record(
            "qp_backend_decision",
            &[
                ("n", d.n as f64),
                ("nnz_k", d.nnz_k as f64),
                ("nnz_l", d.nnz_l as f64),
                ("flops", d.factor_flops as f64),
                ("work_ratio", d.work_ratio),
                ("work_limit", d.work_limit),
                ("cg_iters_per_solve", d.cg_iters_per_solve),
                (
                    "direct",
                    f64::from(u8::from(d.backend == NewtonBackend::Direct)),
                ),
                ("reason", reason),
                ("ordering_ms", d.ordering_ns as f64 * 1e-6),
            ],
        );
    }

    fn factorization(&mut self, ev: &dme_qp::FactorizationEvent) {
        dme_obs::counter_add("qp/factorizations", 1);
        dme_obs::counter_add("qp/pivots_clamped", ev.pivots_clamped as u64);
        if ev.symbolic_reused {
            dme_obs::counter_add("qp/symbolic_reuse", 1);
        }
        dme_obs::counter_add("qp/refactor_ns", ev.refactor_ns);
        dme_obs::histogram_record("qp/refactor_ns_per_iter", ev.refactor_ns);
    }
}

/// Parses a `DME_QP_BACKEND` override value. Unknown strings are ignored
/// (the configured backend stands) so a typo degrades gracefully rather
/// than aborting a long flow.
fn parse_backend(s: &str) -> Option<NewtonBackend> {
    match s.to_ascii_lowercase().as_str() {
        "direct" => Some(NewtonBackend::Direct),
        "cg" => Some(NewtonBackend::Cg),
        "auto" => Some(NewtonBackend::Auto),
        _ => None,
    }
}

/// The one solver an [`optimize`] call runs every solve on, and its
/// effort tallies. Holding one instance lets the direct backend's
/// symbolic factorization, built on the first solve, serve the later
/// ones: the QCP and its probe share one sparsity pattern, and the
/// guard-band retry only moves τ.
struct Solves {
    solver: IpmSolver,
    /// IPM iterations across all solves.
    iterations: usize,
    /// Solves made.
    count: usize,
}

impl Solves {
    /// The configured solver with the `DME_QP_BACKEND` override applied.
    fn new(st: &IpmSettings) -> Self {
        let mut st = st.clone();
        if let Some(b) = std::env::var("DME_QP_BACKEND")
            .ok()
            .and_then(|v| parse_backend(&v))
        {
            st.backend = b;
        }
        Self {
            solver: IpmSolver::new(st),
            iterations: 0,
            count: 0,
        }
    }

    /// One solve, with the quadratic row when given; streams solver
    /// telemetry while tracing is on.
    fn run(&mut self, qp: &QuadProgram, row: Option<&QuadRow>) -> Result<Solution, DmoptError> {
        let _span = dme_obs::span("solve");
        dme_obs::counter_add("qp/solves", 1);
        let obs: &mut dyn SolverObserver = if dme_obs::enabled() {
            &mut ObsSolverObserver
        } else {
            &mut NopObserver
        };
        let sol = match row {
            Some(row) => self.solver.solve_qcp(qp, row, obs),
            None => self.solver.solve_observed(qp, obs),
        }?;
        self.iterations += sol.iterations;
        self.count += 1;
        Ok(sol)
    }

    /// The min-leakage QP at τ.
    fn min_leakage(
        &mut self,
        form: &mut Formulation,
        tau: f64,
        nominal_mct: f64,
    ) -> Result<Solution, DmoptError> {
        form.set_tau(tau);
        let sol = self.run(&form.qp, None)?;
        check_converged("QP", &sol, &form.qp, nominal_mct)?;
        Ok(sol)
    }
}

/// Rejects a solve that hit the iteration cap with its rows violated by
/// more than 0.1% of the nominal MCT.
fn check_converged(
    what: &str,
    sol: &Solution,
    qp: &QuadProgram,
    nominal_mct: f64,
) -> Result<(), DmoptError> {
    let violation = qp.max_violation(&sol.x);
    if sol.status == SolveStatus::MaxIterations && violation > 1e-3 * nominal_mct {
        return Err(DmoptError::Solver(dme_qp::SolveError::Numerical(format!(
            "{what} did not converge: violation {violation:.3e}"
        ))));
    }
    Ok(())
}

/// Period tolerance of the `MinTiming` min-leakage probe, as a fraction
/// of the nominal MCT: the probe runs at τ = T* + this·MCT₀.
const QCP_PROBE_TOL_FRAC: f64 = 0.002;

/// Optimization objective, matching the paper's two problem statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize total leakage subject to `T ≤ τ` (the QP of Sections
    /// III-A.1 / III-B.1). `tau_ns = None` uses the nominal MCT shrunk by
    /// the configured timing margin (so that snapping cannot push the
    /// golden MCT past nominal).
    MinLeakage {
        /// Explicit clock-period bound, ns.
        tau_ns: Option<f64>,
    },
    /// Minimize the clock period subject to `ΔLeakage ≤ ξ` (the QCP of
    /// Sections III-A.2 / III-B.2), solved in one interior-point solve
    /// with the leakage budget as a quadratic row, then re-solved once
    /// for the least leakage within 0.2% of the optimal period.
    MinTiming {
        /// Leakage-increase budget ξ, µW (0 = "no leakage increase").
        xi_uw: f64,
    },
}

/// DMopt configuration. Defaults follow the paper's experimental setup:
/// 5×5 µm² grids, ±5% correction range, smoothness δ = 2, dose
/// sensitivity −2 nm/%, 0.5% characterization steps.
#[derive(Debug, Clone)]
pub struct DmoptConfig {
    /// Layer selection (poly only, or poly + active).
    pub layers: Layers,
    /// Objective (leakage under timing, or timing under leakage).
    pub objective: Objective,
    /// Grid granularity `G`, µm.
    pub grid_g_um: f64,
    /// Dose correction lower bound, %.
    pub dose_lo_pct: f64,
    /// Dose correction upper bound, %.
    pub dose_hi_pct: f64,
    /// Smoothness bound δ, %.
    pub smoothness_pct: f64,
    /// Dose sensitivity.
    pub sensitivity: DoseSensitivity,
    /// Characterized-library dose step for snapping, %.
    pub snap_step_pct: f64,
    /// Fraction of the nominal MCT reserved as timing margin when
    /// `MinLeakage` runs with the default τ. The margin guard-bands the
    /// surrogate-to-golden miscorrelation (slew propagation and snapping,
    /// both outside the paper's linear delay model). `0.0` (the default)
    /// enables the *adaptive* guard band: solve at τ = nominal, measure
    /// the golden gap, and re-solve once with exactly that margin if
    /// signoff regressed — so coarse grids (whose optimum is ≈ zero dose)
    /// are not forced into a leakage-costing uniform speedup.
    pub timing_margin_frac: f64,
    /// Enable the timing-constraint pruning extension.
    pub prune: bool,
    /// Enforce hold timing with this extra margin (ns): every flip-flop
    /// data pin's earliest arrival must clear its hold requirement plus
    /// the margin under the optimized dose map. `None` disables the
    /// constraint (the paper's setting). Incompatible with `prune`.
    pub hold_margin_ns: Option<f64>,
    /// Interior-point solver settings.
    pub solver: IpmSettings,
}

impl Default for DmoptConfig {
    fn default() -> Self {
        Self {
            layers: Layers::PolyOnly,
            objective: Objective::MinLeakage { tau_ns: None },
            grid_g_um: 5.0,
            dose_lo_pct: -5.0,
            dose_hi_pct: 5.0,
            smoothness_pct: 2.0,
            sensitivity: DoseSensitivity::default(),
            snap_step_pct: 0.5,
            timing_margin_frac: 0.0,
            prune: false,
            hold_margin_ns: None,
            solver: IpmSettings::default(),
        }
    }
}

/// Result of a DMopt run.
#[derive(Debug, Clone)]
pub struct DmoptResult {
    /// Optimized poly-layer dose map (snapped to library steps).
    pub poly_map: DoseMap,
    /// Optimized active-layer dose map when both layers are modulated.
    pub active_map: Option<DoseMap>,
    /// The per-instance geometry deltas the maps induce.
    pub assignment: GeometryAssignment,
    /// Golden summary before optimization.
    pub golden_before: GoldenSummary,
    /// Golden summary after optimization (post-snap signoff).
    pub golden_after: GoldenSummary,
    /// Surrogate ΔLeakage at the solver optimum, µW.
    pub surrogate_delta_leakage_uw: f64,
    /// For `MinTiming`: the QCP's optimal period T*, ns. The returned map
    /// meets T ≤ T* + 0.2% of the nominal MCT when the min-leakage probe
    /// certified it, T ≤ T* otherwise.
    pub solved_t_ns: Option<f64>,
    /// Total IPM iterations across all solves.
    pub iterations: usize,
    /// Number of solves: 2 for `MinTiming` (the QCP and its min-leakage
    /// probe); 1 for `MinLeakage`, 2 when the adaptive guard band
    /// re-solves.
    pub probes: usize,
    /// Instances that kept arrival variables.
    pub num_kept: usize,
    /// QP variable count.
    pub num_vars: usize,
    /// QP constraint count.
    pub num_constraints: usize,
    /// Wall-clock optimization time (formulation + solves + signoff).
    pub runtime: Duration,
}

/// Surrogate (linearized) MCT under uniform dose deltas — the QCP's
/// period floor at `d = U`, which minimizes every gate delay and hence
/// the achievable clock period.
pub fn surrogate_mct(ctx: &OptContext<'_>, dp_pct: f64, da_pct: f64, ds: f64) -> f64 {
    let nl = &ctx.design.netlist;
    let n = nl.num_instances();
    let order = nl.topo_order().expect("acyclic netlist");
    let mut arrival = vec![0.0f64; n];
    let gate = |i: usize| {
        (ctx.nominal.gate_delay_ns[i] + ctx.ap[i] * ds * dp_pct + ctx.bp[i] * ds * da_pct).max(0.0)
    };
    for &id in &order {
        let i = id.0 as usize;
        let inst = nl.instance(id);
        if inst.is_sequential {
            arrival[i] = gate(i);
            continue;
        }
        let mut arr = 0.0f64;
        for &net in &inst.inputs {
            let wire = ctx.nominal.wire_delay_ns[net.0 as usize];
            match nl.net(net).driver {
                Some(drv) => arr = arr.max(arrival[drv.0 as usize] + wire),
                None => arr = arr.max(wire),
            }
        }
        arrival[i] = arr + gate(i);
    }
    let mut mct = 0.0f64;
    for id in nl.inst_ids() {
        let inst = nl.instance(id);
        if inst.is_sequential {
            let data = inst.inputs[0];
            if let Some(drv) = nl.net(data).driver {
                mct = mct.max(
                    arrival[drv.0 as usize]
                        + ctx.nominal.wire_delay_ns[data.0 as usize]
                        + ctx.setup_ns[id.0 as usize],
                );
            }
        }
    }
    for &po in &nl.primary_outputs {
        if let Some(drv) = nl.net(po).driver {
            mct = mct.max(arrival[drv.0 as usize]);
        }
    }
    mct
}

/// The formulation parameters [`optimize`] builds its QP from for `cfg`
/// on `ctx`: τ and the period floor per objective (the floor bounds
/// pruning), and the elastic penalty of the QCP's min-leakage probe. With
/// [`Formulation::build`] on the configured grid this reproduces the
/// program `optimize` solves.
pub fn formulation_params(ctx: &OptContext<'_>, cfg: &DmoptConfig) -> FormulationParams {
    let ds = cfg.sensitivity.0;
    let nominal_mct = ctx.nominal.mct_ns;
    let active = cfg.layers == Layers::PolyAndActive;
    let (tau_init, tau_ref) = match cfg.objective {
        Objective::MinLeakage { tau_ns } => {
            let tau = tau_ns.unwrap_or(nominal_mct * (1.0 - cfg.timing_margin_frac));
            (tau, tau)
        }
        Objective::MinTiming { .. } => {
            let lo = surrogate_mct(
                ctx,
                cfg.dose_hi_pct,
                if active { cfg.dose_hi_pct } else { 0.0 },
                ds,
            );
            (nominal_mct, lo)
        }
    };

    // Elastic penalty for the QCP's probe: violating τ by 1% of the
    // nominal MCT must cost more than the whole achievable leakage swing.
    // The probe's τ lies within 0.2% of a period the QCP proved feasible,
    // so nothing needs a steeper penalty, and a steeper one dominates the
    // cost scaling and leaves the leakage part solved loosely: at 1e3 the
    // probe missed its leakage check on 12 of 30 flowbench designs
    // (seeds 2, 3, 11) and on AES-65.
    let leak_swing_nw: f64 = (0..ctx.num_instances())
        .map(|i| (ctx.beta[i] * ds).abs() * (cfg.dose_hi_pct - cfg.dose_lo_pct))
        .sum();
    let elastic_weight = match cfg.objective {
        Objective::MinTiming { .. } => Some(1e2 * leak_swing_nw.max(1.0) / nominal_mct),
        Objective::MinLeakage { .. } => None,
    };
    FormulationParams {
        layers: cfg.layers,
        lo_pct: cfg.dose_lo_pct,
        hi_pct: cfg.dose_hi_pct,
        delta_pct: cfg.smoothness_pct,
        sensitivity: cfg.sensitivity,
        tau_ns: tau_init,
        prune: cfg.prune,
        tau_ref_ns: tau_ref,
        elastic_weight,
        hold_margin_ns: cfg.hold_margin_ns,
    }
}

/// Runs DMopt: build the formulation, solve it, snap the dose maps to
/// characterized library steps, and sign off with golden analysis.
///
/// `MinTiming` makes two solves. The QCP — minimize `T` under the
/// leakage budget as a quadratic row — gives the optimal period T*. Its
/// point sits wherever the budget lets it, up to ΔLeakage = ξ even where
/// the budget is slack at the period floor, so an elastic min-leakage QP
/// at τ = T* + 0.2%·MCT₀ then picks the least leakage at that period.
/// Its map is returned when it passes the feasibility checks (τ met,
/// budget met, rows met); the QCP's otherwise.
///
/// # Errors
///
/// Returns [`DmoptError::Config`] for invalid parameters,
/// [`DmoptError::Infeasible`] when no dose map satisfies the constraints,
/// and [`DmoptError::Solver`] on numerical failure.
pub fn optimize(ctx: &OptContext<'_>, cfg: &DmoptConfig) -> Result<DmoptResult, DmoptError> {
    let _span = dme_obs::span("dmopt");
    let t0 = Instant::now();
    if cfg.dose_lo_pct > cfg.dose_hi_pct {
        return Err(DmoptError::Config("dose_lo_pct > dose_hi_pct".into()));
    }
    if cfg.grid_g_um <= 0.0 || cfg.smoothness_pct < 0.0 || cfg.snap_step_pct <= 0.0 {
        return Err(DmoptError::Config(
            "non-positive grid/smoothness/step".into(),
        ));
    }
    if cfg.hold_margin_ns.is_some() && cfg.prune {
        return Err(DmoptError::Config(
            "hold constraints are incompatible with pruning".into(),
        ));
    }
    let ds = cfg.sensitivity.0;
    let placement = ctx.placement;
    let grid = DoseGrid::with_granularity(placement.die_w_um, placement.die_h_um, cfg.grid_g_um);
    let nominal_mct = ctx.nominal.mct_ns;

    let active = cfg.layers == Layers::PolyAndActive;
    let adaptive_margin = matches!(cfg.objective, Objective::MinLeakage { tau_ns: None })
        && cfg.timing_margin_frac == 0.0;
    let params = formulation_params(ctx, cfg);
    let (tau_init, tau_ref) = (params.tau_ns, params.tau_ref_ns);
    let mut form = {
        let _s = dme_obs::span("formulate");
        Formulation::build(ctx, &grid, &params)
    };
    let num_vars = form.qp.num_vars();
    let num_constraints = form.qp.num_constraints();
    let num_kept = form.num_kept;

    let mut solves = Solves::new(&cfg.solver);
    let (solution, solved_t): (Solution, Option<f64>) = match cfg.objective {
        Objective::MinLeakage { .. } => {
            (solves.min_leakage(&mut form, tau_init, nominal_mct)?, None)
        }
        Objective::MinTiming { xi_uw } => {
            let xi_nw = xi_uw * 1000.0;
            let leak_scale_nw = (ctx.nominal.total_leakage_uw * 1000.0).abs().max(1.0);
            let tol_nw = 1e-3 * leak_scale_nw;
            let tol_t = QCP_PROBE_TOL_FRAC * nominal_mct;
            let (qcp, budget) = form.min_period_program(xi_nw);
            let sol = solves.run(&qcp, Some(&budget))?;
            // No interior point certifies infeasibility, so a QCP point
            // over the budget — converged or not — is read as the budget
            // being out of reach.
            if budget.value(&sol.x) > xi_nw + tol_nw {
                return Err(DmoptError::Infeasible(format!(
                    "no dose map meets the leakage budget ξ = {xi_uw} µW"
                )));
            }
            check_converged("QCP", &sol, &qcp, nominal_mct)?;
            let t_star = sol.x[form.layout.t_idx];
            // Elastic probe: the least leakage within tol_t of T*.
            form.set_tau(t_star + tol_t);
            let probe = solves.run(&form.qp, None)?;
            let certified = form.elastic_violation(&probe.x) <= 1e-4 * nominal_mct
                && form.leakage_objective(&probe.x) <= xi_nw + tol_nw
                && form.qp.max_violation(&probe.x) <= 1e-3 * nominal_mct;
            if dme_obs::enabled() {
                dme_obs::record(
                    "qcp_solve",
                    &[
                        ("t_ns", t_star),
                        ("tau_ref_ns", tau_ref),
                        ("lambda", sol.row_multiplier),
                        ("qcp_iterations", sol.iterations as f64),
                        ("probe_iterations", probe.iterations as f64),
                        ("certified", f64::from(u8::from(certified))),
                    ],
                );
            }
            (if certified { probe } else { sol }, Some(t_star))
        }
    };

    // --- extract, snap, apply (golden signoff) ---
    let extract = |form: &Formulation, x: &[f64]| {
        let _s = dme_obs::span("snap_signoff");
        let mut poly_map = DoseMap::from_values(grid, form.poly_doses(x));
        poly_map.snap_to_step(cfg.snap_step_pct);
        let active_map = if active {
            let mut m = DoseMap::from_values(grid, form.active_doses(x));
            m.snap_to_step(cfg.snap_step_pct);
            Some(m)
        } else {
            None
        };
        debug_assert!(poly_map
            .check(
                cfg.dose_lo_pct,
                cfg.dose_hi_pct,
                cfg.smoothness_pct + cfg.snap_step_pct
            )
            .is_ok());
        let n = ctx.num_instances();
        let mut assignment = GeometryAssignment::nominal(n);
        for i in 0..n {
            let g = form.grid_of_inst[i];
            assignment.dl_nm[i] = ds * poly_map.dose_pct[g];
            if let Some(am) = &active_map {
                assignment.dw_nm[i] = ds * am.dose_pct[g];
            }
        }
        let after = analyze(ctx.lib, &ctx.design.netlist, placement, &assignment);
        (poly_map, active_map, assignment, after)
    };
    let (mut poly_map, mut active_map, mut assignment, mut after) = extract(&form, &solution.x);

    // Adaptive guard band: if signoff regressed past nominal (slew
    // propagation and snapping sit outside the linear surrogate), re-solve
    // once with τ tightened by the measured golden gap. Coarse grids whose
    // optimum is near-zero dose show no gap and skip the second pass.
    if adaptive_margin {
        let gap = (after.mct_ns - nominal_mct) / nominal_mct;
        if gap > 1e-3 {
            let tau2 = nominal_mct * (1.0 - gap - 0.002);
            let retry = solves.min_leakage(&mut form, tau2, nominal_mct)?;
            (poly_map, active_map, assignment, after) = extract(&form, &retry.x);
        }
    }
    let surrogate_delta_leakage_uw = ctx.surrogate_leakage_delta_nw(&assignment) / 1000.0;
    dme_obs::counter_add("dmopt/qp_probes", solves.count as u64);
    dme_obs::counter_add("dmopt/solver_iterations", solves.iterations as u64);
    if dme_obs::enabled() {
        let before = ctx.nominal_summary();
        dme_obs::set_qor("dmopt/mct_ns", after.mct_ns);
        dme_obs::set_qor("dmopt/leakage_uw", after.total_leakage_uw);
        dme_obs::set_qor(
            "dmopt/delta_leakage_uw",
            after.total_leakage_uw - before.leakage_uw,
        );
        dme_obs::set_qor("dmopt/achieved_t_ns", solved_t.unwrap_or(after.mct_ns));
    }

    Ok(DmoptResult {
        poly_map,
        active_map,
        assignment,
        golden_before: ctx.nominal_summary(),
        golden_after: GoldenSummary::from_report(&after),
        surrogate_delta_leakage_uw,
        solved_t_ns: solved_t,
        iterations: solves.iterations,
        probes: solves.count,
        num_kept,
        num_vars,
        num_constraints,
        runtime: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_liberty::Library;
    use dme_netlist::{gen, profiles, Design};
    use dme_placement::Placement;
    use dme_sta::analyze;

    fn setup() -> (Library, Design, Placement) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        (lib, d, p)
    }

    #[test]
    fn qp_reduces_leakage_without_hurting_timing() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        // Pin τ to the nominal MCT: pure leakage recovery (the default
        // margin would instead demand a speedup, which costs leakage on a
        // design this small where everything is near-critical).
        let cfg = DmoptConfig {
            grid_g_um: 5.0,
            objective: Objective::MinLeakage {
                tau_ns: Some(ctx.nominal.mct_ns),
            },
            ..DmoptConfig::default()
        };
        let r = optimize(&ctx, &cfg).expect("optimize");
        assert!(
            r.golden_after.leakage_uw < r.golden_before.leakage_uw,
            "leakage {} -> {}",
            r.golden_before.leakage_uw,
            r.golden_after.leakage_uw
        );
        assert!(
            r.golden_after.mct_ns <= r.golden_before.mct_ns * 1.01,
            "MCT {} -> {}",
            r.golden_before.mct_ns,
            r.golden_after.mct_ns
        );
        // Constraints hold on the snapped map.
        r.poly_map
            .check(-5.0, 5.0, 2.0 + 0.5)
            .expect("map constraints");
    }

    #[test]
    fn qcp_improves_timing_without_leakage_increase() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let cfg = DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        };
        let r = optimize(&ctx, &cfg).expect("optimize");
        assert!(r.solved_t_ns.is_some());
        assert_eq!(r.probes, 2, "the QCP and its min-leakage probe");
        assert!(
            r.golden_after.mct_ns < r.golden_before.mct_ns,
            "MCT {} -> {}",
            r.golden_before.mct_ns,
            r.golden_after.mct_ns
        );
        // Leakage stays near nominal (ξ = 0 plus snap noise).
        assert!(
            r.golden_after.leakage_uw <= r.golden_before.leakage_uw * 1.05,
            "leakage {} -> {}",
            r.golden_before.leakage_uw,
            r.golden_after.leakage_uw
        );
    }

    #[test]
    fn finer_grids_do_no_worse() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let coarse = optimize(
            &ctx,
            &DmoptConfig {
                grid_g_um: 12.0,
                ..DmoptConfig::default()
            },
        )
        .unwrap();
        let fine = optimize(
            &ctx,
            &DmoptConfig {
                grid_g_um: 4.0,
                ..DmoptConfig::default()
            },
        )
        .unwrap();
        // The paper's central granularity observation, allowing solver and
        // snapping noise.
        assert!(
            fine.golden_after.leakage_uw <= coarse.golden_after.leakage_uw * 1.02,
            "fine {} vs coarse {}",
            fine.golden_after.leakage_uw,
            coarse.golden_after.leakage_uw
        );
    }

    #[test]
    fn pruned_and_full_formulations_agree() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        // Pruning needs headroom between τ_ref and the nominal paths: its
        // conservative producer bounds absorb exactly that slack. Give the
        // ablation a 2% relaxed clock so both formulations have room.
        let obj = Objective::MinLeakage {
            tau_ns: Some(ctx.nominal.mct_ns * 1.02),
        };
        let full = optimize(
            &ctx,
            &DmoptConfig {
                grid_g_um: 6.0,
                objective: obj,
                ..DmoptConfig::default()
            },
        )
        .unwrap();
        let pruned = optimize(
            &ctx,
            &DmoptConfig {
                grid_g_um: 6.0,
                objective: obj,
                prune: true,
                ..DmoptConfig::default()
            },
        )
        .unwrap();
        assert!(pruned.num_kept < full.num_kept);
        // Pruning is conservative (edges through pruned producers use a
        // worst-case arrival bound), so it may leave some leakage on the
        // table — but must remain sound and capture most of the benefit.
        assert!(
            pruned.golden_after.leakage_uw >= full.golden_after.leakage_uw - 1e-9,
            "pruned cannot beat the full formulation"
        );
        let full_gain = full.golden_before.leakage_uw - full.golden_after.leakage_uw;
        let pruned_gain = full.golden_before.leakage_uw - pruned.golden_after.leakage_uw;
        assert!(full_gain > 0.0, "full QP must recover some leakage");
        assert!(
            pruned_gain > 0.3 * full_gain,
            "pruned gain {pruned_gain} vs full gain {full_gain}"
        );
        assert!(pruned.golden_after.mct_ns <= full.golden_before.mct_ns * 1.04);
    }

    #[test]
    fn surrogate_mct_matches_golden_at_zero_dose() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let m = surrogate_mct(&ctx, 0.0, 0.0, -2.0);
        assert!((m - ctx.nominal.mct_ns).abs() < 1e-9);
        // Max dose strictly reduces the surrogate MCT.
        assert!(surrogate_mct(&ctx, 5.0, 0.0, -2.0) < m);
    }

    #[test]
    fn hold_constraint_limits_speedup() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let nominal_hold = ctx.nominal.worst_hold_slack_ns;
        assert!(nominal_hold.is_finite() && nominal_hold > 0.0);
        // Unconstrained QCP is free to tighten the hold corner.
        let free = optimize(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming {
                    xi_uw: f64::INFINITY,
                },
                grid_g_um: 5.0,
                ..DmoptConfig::default()
            },
        )
        .expect("free QCP");
        let free_hold = analyze(&lib, &d.netlist, &p, &free.assignment).worst_hold_slack_ns;
        // Demand the nominal hold headroom be (almost) preserved.
        let margin = nominal_hold * 0.95;
        let held = optimize(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming {
                    xi_uw: f64::INFINITY,
                },
                grid_g_um: 5.0,
                hold_margin_ns: Some(margin),
                ..DmoptConfig::default()
            },
        )
        .expect("held QCP");
        let held_hold = analyze(&lib, &d.netlist, &p, &held.assignment).worst_hold_slack_ns;
        // The constrained run keeps meaningfully more early-path headroom
        // than the free run whenever the free run ate into it (snap noise
        // allowed).
        assert!(
            held_hold >= free_hold - 1e-9,
            "hold-constrained run lost more headroom: {held_hold} vs {free_hold}"
        );
        assert!(
            held_hold >= margin - 0.15 * nominal_hold,
            "hold margin missed: {held_hold} vs requested {margin}"
        );
        // Setup timing must still improve.
        assert!(held.golden_after.mct_ns < held.golden_before.mct_ns);
    }

    /// Runs `MinTiming { ξ }` and checks it against the bisection over
    /// the same programs: two solves, T* at or below the bisected τ, the
    /// budget met up to snapping, the map within its box and smoothness,
    /// and an exact repeat on one thread.
    fn check_qcp_against_bisection(ctx: &OptContext<'_>, xi_uw: f64) -> DmoptResult {
        let cfg = DmoptConfig {
            objective: Objective::MinTiming { xi_uw },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        };
        let r = optimize(ctx, &cfg).expect("optimize");
        assert_eq!(r.probes, 2, "the QCP and its min-leakage probe");
        let t_star = r.solved_t_ns.expect("MinTiming reports T*");

        let nominal = ctx.nominal.mct_ns;
        let params = formulation_params(ctx, &cfg);
        let grid = DoseGrid::with_granularity(
            ctx.placement.die_w_um,
            ctx.placement.die_h_um,
            cfg.grid_g_um,
        );
        let mut form = Formulation::build(ctx, &grid, &params);
        let leak_nw = (ctx.nominal.total_leakage_uw * 1000.0).abs().max(1.0);
        let bisect = crate::qcp::bisect_period(
            &mut form,
            xi_uw * 1000.0,
            1e-3 * leak_nw,
            params.tau_ref_ns,
            nominal,
            QCP_PROBE_TOL_FRAC * nominal,
        )
        .expect("bisection oracle");
        // The oracle certifies a probe whose period overshoots τ by up to
        // its elastic cutoff, 1e-4·MCT₀, and whose leakage overshoots ξ
        // by up to its tolerance, so its τ may sit that far below T*.
        assert!(
            t_star <= bisect.t + 1e-4 * nominal,
            "QCP T* {t_star} above the bisected τ {}",
            bisect.t
        );
        assert!(
            t_star >= params.tau_ref_ns - 1e-9,
            "T* {t_star} below the period floor"
        );

        // The budget holds on the snapped map up to the snapping of each
        // dose to its 0.5% library step (1% of the nominal leakage).
        let tol_uw = 1e-2 * ctx.nominal.total_leakage_uw;
        assert!(
            r.surrogate_delta_leakage_uw <= xi_uw + tol_uw,
            "ΔL {} µW over ξ {xi_uw} + {tol_uw}",
            r.surrogate_delta_leakage_uw
        );
        r.poly_map
            .check(
                cfg.dose_lo_pct,
                cfg.dose_hi_pct,
                cfg.smoothness_pct + cfg.snap_step_pct,
            )
            .expect("box and smoothness");

        dme_par::set_force_serial(true);
        let serial = optimize(ctx, &cfg);
        dme_par::set_force_serial(false);
        let serial = serial.expect("serial optimize");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial.poly_map.dose_pct), bits(&r.poly_map.dose_pct));
        assert_eq!(serial.solved_t_ns.map(f64::to_bits), Some(t_star.to_bits()));
        assert_eq!(
            serial.golden_after.mct_ns.to_bits(),
            r.golden_after.mct_ns.to_bits()
        );
        assert_eq!(serial.iterations, r.iterations);
        r
    }

    #[test]
    fn qcp_matches_bisection_where_the_budget_binds() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let r = check_qcp_against_bisection(&ctx, 0.0);
        let t_star = r.solved_t_ns.unwrap();
        // At ξ = 0 the period floor is out of reach: T* sits above it.
        let floor = formulation_params(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming { xi_uw: 0.0 },
                ..DmoptConfig::default()
            },
        )
        .tau_ref_ns;
        assert!(t_star > floor + 1e-6, "T* {t_star} at the floor {floor}");
        assert!(r.golden_after.mct_ns < r.golden_before.mct_ns);
    }

    #[test]
    fn qcp_matches_bisection_where_the_budget_is_slack() {
        // A 1000-cell design whose period floor is reachable within
        // ξ = 0: T* is the floor, and the QCP point sits anywhere up to
        // ΔL = ξ until the min-leakage probe picks the least leakage.
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::scaling(1000, 10), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let r = check_qcp_against_bisection(&ctx, 0.0);
        let floor = formulation_params(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming { xi_uw: 0.0 },
                ..DmoptConfig::default()
            },
        )
        .tau_ref_ns;
        let t_star = r.solved_t_ns.unwrap();
        assert!(
            t_star - floor <= 1e-6 * floor,
            "T* {t_star} above the floor {floor}"
        );
        assert!(r.golden_after.mct_ns < r.golden_before.mct_ns);
    }

    #[test]
    fn unreachable_leakage_budget_is_infeasible() {
        // No dose map cuts a 4 µW design's leakage by 1 mW.
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let cfg = DmoptConfig {
            objective: Objective::MinTiming { xi_uw: -1000.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        };
        assert!(matches!(
            optimize(&ctx, &cfg),
            Err(DmoptError::Infeasible(_))
        ));
    }

    #[test]
    fn direct_and_cg_backends_agree_on_golden_signoff() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let run = |backend| {
            let cfg = DmoptConfig {
                grid_g_um: 5.0,
                objective: Objective::MinLeakage {
                    tau_ns: Some(ctx.nominal.mct_ns),
                },
                solver: IpmSettings {
                    backend,
                    ..IpmSettings::default()
                },
                ..DmoptConfig::default()
            };
            optimize(&ctx, &cfg).expect("optimize")
        };
        let cg = run(NewtonBackend::Cg);
        let direct = run(NewtonBackend::Direct);
        assert!(
            (cg.golden_after.leakage_uw - direct.golden_after.leakage_uw).abs()
                <= 1e-3 * cg.golden_after.leakage_uw.abs().max(1.0),
            "leakage: cg {} vs direct {}",
            cg.golden_after.leakage_uw,
            direct.golden_after.leakage_uw
        );
        assert!(
            (cg.golden_after.mct_ns - direct.golden_after.mct_ns).abs()
                <= 1e-3 * cg.golden_after.mct_ns,
            "mct: cg {} vs direct {}",
            cg.golden_after.mct_ns,
            direct.golden_after.mct_ns
        );
    }

    #[test]
    fn backend_override_parses_known_values_only() {
        assert!(matches!(
            parse_backend("direct"),
            Some(NewtonBackend::Direct)
        ));
        assert!(matches!(parse_backend("CG"), Some(NewtonBackend::Cg)));
        assert!(matches!(parse_backend("Auto"), Some(NewtonBackend::Auto)));
        assert!(parse_backend("fancy").is_none());
        assert!(parse_backend("").is_none());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (lib, d, p) = setup();
        let ctx = OptContext::new(&lib, &d, &p);
        let cfg = DmoptConfig {
            grid_g_um: -1.0,
            ..DmoptConfig::default()
        };
        assert!(matches!(optimize(&ctx, &cfg), Err(DmoptError::Config(_))));
        let cfg = DmoptConfig {
            dose_lo_pct: 5.0,
            dose_hi_pct: -5.0,
            ..DmoptConfig::default()
        };
        assert!(matches!(optimize(&ctx, &cfg), Err(DmoptError::Config(_))));
        let cfg = DmoptConfig {
            prune: true,
            hold_margin_ns: Some(0.01),
            ..DmoptConfig::default()
        };
        assert!(matches!(optimize(&ctx, &cfg), Err(DmoptError::Config(_))));
    }
}
