//! Building the QP instance from a placed design (Eqs. 2–12).
//!
//! Decision variables, in order:
//!
//! 1. `d^P` — one poly-layer dose delta per grid cell (percent);
//! 2. `d^A` — one active-layer dose delta per grid cell (only when both
//!    layers are modulated);
//! 3. `a`  — one arrival-time variable per (kept) instance output (ns);
//! 4. `T`  — the clock period (ns), always the last variable.
//!
//! Constraint rows:
//!
//! - dose box bounds, Eq. (3)/(8);
//! - dose smoothness between horizontal / vertical / diagonal grid
//!   neighbors, Eq. (4)/(9);
//! - arrival propagation per timing edge with dose-scaled gate delays,
//!   Eq. (5)/(10): `a_r + wire + t_q⁰ + Ap·Ds·d^P + Bp·Ds·d^A ≤ a_q`;
//! - endpoint capture: `a_r + wire + setup ≤ T`;
//! - the period bound `T ≤ τ`, Eq. (6)/(11) — its row index is exposed so
//!   the QCP's min-leakage probe can retighten τ without rebuilding
//!   anything.
//!
//! The objective is the quadratic leakage surrogate of Eq. (2), expressed
//! per grid cell by accumulating the per-instance `αp`, `βp`, `γp`.
//! [`Formulation::min_period_program`] turns the same rows into the QCP of
//! Eqs. (6)/(11): minimize `T` with the leakage surrogate as a convex
//! quadratic row `ΔLeakage(d) ≤ ξ`.
//!
//! # Constraint pruning (optional extension)
//!
//! With `prune` enabled, arrival variables and their rows are restricted
//! to instances whose nominal slack is smaller than the worst possible
//! cumulative delay increase along any path through them (`pot_q`,
//! computed by a forward/backward pass over per-instance worst-case
//! deltas). A pruned path satisfies `delay ≤ (MCT₀ − slack) + pot ≤
//! τ_ref` under *any* admissible dose, so dropping it is sound for every
//! probe `τ ≥ τ_ref`. Edges from pruned producers into kept consumers use
//! the constant upper bound `arrival₀ + inc_arr`. This is our own speed
//! extension (benchmarked as an ablation); the paper formulates the full
//! constraint set.

use crate::context::OptContext;
use dme_dosemap::{DoseGrid, DoseSensitivity};
use dme_qp::{CsrMatrix, QuadProgram, QuadRow};

/// Which layers the dose map modulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerChoice {
    /// Poly layer only (gate length).
    PolyOnly,
    /// Poly and active layers (gate length and width).
    PolyAndActive,
}

/// Parameters the formulation needs (a subset of the optimizer config).
#[derive(Debug, Clone, Copy)]
pub struct FormulationParams {
    /// Layer selection.
    pub layers: LayerChoice,
    /// Dose lower bound per grid, %.
    pub lo_pct: f64,
    /// Dose upper bound per grid, %.
    pub hi_pct: f64,
    /// Smoothness bound δ between neighboring grids, %.
    pub delta_pct: f64,
    /// Dose sensitivity (nm per %).
    pub sensitivity: DoseSensitivity,
    /// Initial clock-period bound τ, ns.
    pub tau_ns: f64,
    /// Enable timing-constraint pruning.
    pub prune: bool,
    /// Smallest τ any subsequent probe will use (soundness floor for
    /// pruning; ignored when `prune` is false).
    pub tau_ref_ns: f64,
    /// When set, the period bound becomes *elastic*: `T − v ≤ τ` with
    /// `v ≥ 0` penalized at this weight (objective units per ns). The
    /// QCP's min-leakage probe uses this so that a probe τ below the
    /// achievable period stays feasible and is recognized by `v > 0`
    /// instead of by an infeasibility certificate.
    pub elastic_weight: Option<f64>,
    /// When set, adds hold constraints: every flip-flop data pin's
    /// *earliest* arrival must stay above its hold requirement plus this
    /// margin (ns). Min-arrival variables `b` mirror the setup arrivals
    /// with the opposite inequality direction: `b_q ≤ b_r + wire +
    /// t_q^best(d)` and `b_endpoint ≥ hold + margin` — feasible iff every
    /// early path clears the requirement. The paper's introduction
    /// motivates exactly this (hold-critical devices want *lower* dose);
    /// its formulations leave it implicit. Incompatible with pruning.
    pub hold_margin_ns: Option<f64>,
}

/// Mapping from model entities to variable indices.
#[derive(Debug, Clone)]
pub struct VarLayout {
    /// Number of grid cells (per layer).
    pub num_grids: usize,
    /// Whether active-layer variables exist.
    pub active: bool,
    /// Arrival-variable index per instance (`None` when pruned).
    pub arr_index: Vec<Option<usize>>,
    /// Index of the clock-period variable `T`.
    pub t_idx: usize,
    /// Total variable count.
    pub num_vars: usize,
}

impl VarLayout {
    /// Variable index of grid `g`'s poly dose.
    pub fn poly_var(&self, g: usize) -> usize {
        g
    }

    /// Variable index of grid `g`'s active dose.
    ///
    /// # Panics
    ///
    /// Panics if the formulation has no active layer.
    pub fn active_var(&self, g: usize) -> usize {
        assert!(self.active, "formulation has no active-layer variables");
        self.num_grids + g
    }
}

/// A built QP instance plus the bookkeeping to interpret and re-bound it.
#[derive(Debug, Clone)]
pub struct Formulation {
    /// The convex program (`min ½xᵀPx + qᵀx` s.t. `l ≤ Ax ≤ u`).
    pub qp: QuadProgram,
    /// Variable layout.
    pub layout: VarLayout,
    /// Row index of the `T ≤ τ` constraint (mutate `qp.u[tau_row]`, or
    /// call [`Formulation::set_tau`], to move τ).
    pub tau_row: usize,
    /// Grid cell of each instance.
    pub grid_of_inst: Vec<usize>,
    /// Number of instances with arrival variables (= instances − pruned).
    pub num_kept: usize,
    /// Elastic variable index and its penalty weight, when enabled.
    pub elastic: Option<(usize, f64)>,
}

impl Formulation {
    /// Builds the QP for a context, grid and parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (contexts are
    /// built from validated designs, so this indicates internal
    /// corruption).
    pub fn build(ctx: &OptContext<'_>, grid: &DoseGrid, params: &FormulationParams) -> Self {
        let nl = &ctx.design.netlist;
        let n = nl.num_instances();
        let k = grid.num_cells();
        let ds = params.sensitivity.0;
        let active = params.layers == LayerChoice::PolyAndActive;

        // --- instance → grid assignment from placement ---
        let grid_of_inst: Vec<usize> = (0..n)
            .map(|i| {
                let (x, y) = ctx
                    .placement
                    .center(ctx.lib, nl, dme_netlist::InstId(i as u32));
                grid.cell_of(x, y)
            })
            .collect();

        // --- pruning analysis ---
        let order = nl.topo_order().expect("acyclic netlist");
        let delta_max: Vec<f64> = (0..n)
            .map(|i| {
                let dl = (ctx.ap[i] * ds * params.lo_pct).max(ctx.ap[i] * ds * params.hi_pct);
                let dw = if active {
                    (ctx.bp[i] * ds * params.lo_pct).max(ctx.bp[i] * ds * params.hi_pct)
                } else {
                    0.0
                };
                dl.max(0.0) + dw.max(0.0)
            })
            .collect();
        let mut inc_arr = vec![0.0f64; n];
        for &id in &order {
            let i = id.0 as usize;
            let inst = nl.instance(id);
            if inst.is_sequential {
                inc_arr[i] = delta_max[i];
                continue;
            }
            let mut up = 0.0f64;
            for &net in &inst.inputs {
                if let Some(drv) = nl.net(net).driver {
                    up = up.max(inc_arr[drv.0 as usize]);
                }
            }
            inc_arr[i] = up + delta_max[i];
        }
        let mut inc_down = vec![0.0f64; n];
        for &id in order.iter().rev() {
            let i = id.0 as usize;
            let mut down = 0.0f64;
            for &(sink, _) in &nl.net(nl.instance(id).output).sinks {
                let s = sink.0 as usize;
                if nl.instance(sink).is_sequential {
                    continue; // endpoint: setup is dose-independent
                }
                down = down.max(delta_max[s] + inc_down[s]);
            }
            inc_down[i] = down;
        }
        let kept: Vec<bool> = (0..n)
            .map(|i| {
                if !params.prune {
                    return true;
                }
                // Worst path delay through i under any admissible dose.
                let worst =
                    (ctx.nominal.mct_ns - ctx.nominal.slack_ns[i]) + inc_arr[i] + inc_down[i];
                worst > params.tau_ref_ns - 1e-9
            })
            .collect();
        let abar = |i: usize| ctx.nominal.arrival_ns[i] + inc_arr[i];

        // --- variable layout ---
        let dose_vars = if active { 2 * k } else { k };
        let mut arr_index = vec![None; n];
        let mut next = dose_vars;
        for i in 0..n {
            if kept[i] {
                arr_index[i] = Some(next);
                next += 1;
            }
        }
        // Min-arrival (hold) variables, one per instance, when requested.
        let hold_vars: Option<Vec<usize>> = params.hold_margin_ns.map(|_| {
            assert!(
                !params.prune,
                "hold constraints are incompatible with pruning"
            );
            (0..n)
                .map(|_| {
                    let v = next;
                    next += 1;
                    v
                })
                .collect()
        });
        let t_idx = next;
        next += 1;
        let num_kept = t_idx - dose_vars - hold_vars.as_ref().map_or(0, Vec::len);
        let elastic_idx = params.elastic_weight.map(|_| {
            let v = next;
            next += 1;
            v
        });
        let num_vars = next;

        // --- objective ---
        let mut p_diag = vec![0.0f64; num_vars];
        let mut qv = vec![0.0f64; num_vars];
        for (i, &g) in grid_of_inst.iter().enumerate().take(n) {
            p_diag[g] += 2.0 * ctx.alpha[i] * ds * ds;
            qv[g] += ctx.beta[i] * ds;
            if active {
                qv[k + g] += ctx.gamma[i] * ds;
            }
        }
        if let (Some(v), Some(w)) = (elastic_idx, params.elastic_weight) {
            qv[v] = w;
        }
        let p = CsrMatrix::diagonal(&p_diag);

        // --- constraint rows ---
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let push = |row: Vec<(usize, f64)>,
                    l: f64,
                    u: f64,
                    rows: &mut Vec<Vec<(usize, f64)>>,
                    lov: &mut Vec<f64>,
                    hiv: &mut Vec<f64>| {
            rows.push(row);
            lov.push(l);
            hiv.push(u);
        };

        // Dose boxes (Eqs. 3, 8).
        for g in 0..k {
            push(
                vec![(g, 1.0)],
                params.lo_pct,
                params.hi_pct,
                &mut rows,
                &mut lo,
                &mut hi,
            );
        }
        if active {
            for g in 0..k {
                push(
                    vec![(k + g, 1.0)],
                    params.lo_pct,
                    params.hi_pct,
                    &mut rows,
                    &mut lo,
                    &mut hi,
                );
            }
        }
        // Smoothness (Eqs. 4, 9).
        for (a, b) in grid.neighbor_pairs() {
            push(
                vec![(a, 1.0), (b, -1.0)],
                -params.delta_pct,
                params.delta_pct,
                &mut rows,
                &mut lo,
                &mut hi,
            );
        }
        if active {
            for (a, b) in grid.neighbor_pairs() {
                push(
                    vec![(k + a, 1.0), (k + b, -1.0)],
                    -params.delta_pct,
                    params.delta_pct,
                    &mut rows,
                    &mut lo,
                    &mut hi,
                );
            }
        }

        // Timing propagation (Eqs. 5, 10).
        for id in nl.inst_ids() {
            let i = id.0 as usize;
            let Some(aq) = arr_index[i] else { continue };
            let inst = nl.instance(id);
            let g = grid_of_inst[i];
            let mut dose_terms = vec![(g, ctx.ap[i] * ds)];
            if active {
                dose_terms.push((k + g, ctx.bp[i] * ds));
            }
            let t_q0 = ctx.nominal.gate_delay_ns[i];
            if inst.is_sequential {
                // Launch: t_q(d) ≤ a_q.
                let mut row = dose_terms.clone();
                row.push((aq, -1.0));
                push(row, f64::NEG_INFINITY, -t_q0, &mut rows, &mut lo, &mut hi);
                continue;
            }
            for &net in &inst.inputs {
                let wire = ctx.nominal.wire_delay_ns[net.0 as usize];
                let rhs = -(wire + t_q0);
                match nl.net(net).driver {
                    Some(drv) => {
                        let r = drv.0 as usize;
                        let mut row = dose_terms.clone();
                        row.push((aq, -1.0));
                        match arr_index[r] {
                            Some(ar) => {
                                row.push((ar, 1.0));
                                push(row, f64::NEG_INFINITY, rhs, &mut rows, &mut lo, &mut hi);
                            }
                            None => {
                                push(
                                    row,
                                    f64::NEG_INFINITY,
                                    rhs - abar(r),
                                    &mut rows,
                                    &mut lo,
                                    &mut hi,
                                );
                            }
                        }
                    }
                    None => {
                        // Primary input: wire + t_q(d) ≤ a_q.
                        let mut row = dose_terms.clone();
                        row.push((aq, -1.0));
                        push(row, f64::NEG_INFINITY, rhs, &mut rows, &mut lo, &mut hi);
                    }
                }
            }
        }

        // Endpoint capture rows; pruned endpoints fold into a floor on T.
        let mut t_floor = f64::NEG_INFINITY;
        let endpoint = |r: usize,
                        extra: f64,
                        rows: &mut Vec<Vec<(usize, f64)>>,
                        lov: &mut Vec<f64>,
                        hiv: &mut Vec<f64>,
                        t_floor: &mut f64| match arr_index[r] {
            Some(ar) => {
                rows.push(vec![(ar, 1.0), (t_idx, -1.0)]);
                lov.push(f64::NEG_INFINITY);
                hiv.push(-extra);
            }
            None => {
                *t_floor = t_floor.max(abar(r) + extra);
            }
        };
        for id in nl.inst_ids() {
            let inst = nl.instance(id);
            if inst.is_sequential {
                let data = inst.inputs[0];
                if let Some(drv) = nl.net(data).driver {
                    let wire = ctx.nominal.wire_delay_ns[data.0 as usize];
                    endpoint(
                        drv.0 as usize,
                        wire + ctx.setup_ns[id.0 as usize],
                        &mut rows,
                        &mut lo,
                        &mut hi,
                        &mut t_floor,
                    );
                }
            }
        }
        for &po in &nl.primary_outputs {
            if let Some(drv) = nl.net(po).driver {
                endpoint(
                    drv.0 as usize,
                    0.0,
                    &mut rows,
                    &mut lo,
                    &mut hi,
                    &mut t_floor,
                );
            }
        }

        // Hold rows: b_q ≤ b_r + wire + t_best(d) per edge (mins are the
        // lower envelope), and b ≥ hold + margin at every FF data pin.
        if let (Some(bvars), Some(margin)) = (&hold_vars, params.hold_margin_ns) {
            let tech = ctx.lib.tech();
            for id in nl.inst_ids() {
                let i = id.0 as usize;
                let inst = nl.instance(id);
                let g = grid_of_inst[i];
                let mut dose_terms = vec![(g, -ctx.ap[i] * ds)];
                if active {
                    dose_terms.push((k + g, -ctx.bp[i] * ds));
                }
                let t_best = ctx.nominal.gate_delay_best_ns[i];
                if inst.is_sequential {
                    // b_q ≤ t_best(d): row b_q − Ap·Ds·d ≤ t_best0.
                    let mut row = dose_terms.clone();
                    row.push((bvars[i], 1.0));
                    push(row, f64::NEG_INFINITY, t_best, &mut rows, &mut lo, &mut hi);
                    // Hold check at this FF's data pin.
                    let data = inst.inputs[0];
                    if let Some(drv) = nl.net(data).driver {
                        let wire = ctx.nominal.wire_delay_ns[data.0 as usize];
                        let hold = ctx.lib.cell(inst.cell_idx).hold_ns(tech);
                        push(
                            vec![(bvars[drv.0 as usize], 1.0)],
                            hold + margin - wire,
                            f64::INFINITY,
                            &mut rows,
                            &mut lo,
                            &mut hi,
                        );
                    }
                    continue;
                }
                for &net in &inst.inputs {
                    let wire = ctx.nominal.wire_delay_ns[net.0 as usize];
                    let mut row = dose_terms.clone();
                    row.push((bvars[i], 1.0));
                    match nl.net(net).driver {
                        Some(drv) => {
                            row.push((bvars[drv.0 as usize], -1.0));
                            push(
                                row,
                                f64::NEG_INFINITY,
                                wire + t_best,
                                &mut rows,
                                &mut lo,
                                &mut hi,
                            );
                        }
                        None => {
                            push(
                                row,
                                f64::NEG_INFINITY,
                                wire + t_best,
                                &mut rows,
                                &mut lo,
                                &mut hi,
                            );
                        }
                    }
                }
            }
        }

        // The τ row. Elastic mode splits the floor off so the bound row
        // stays one-sided: T − v ≤ τ, v ≥ 0, T ≥ t_floor.
        let tau_row = rows.len();
        match elastic_idx {
            Some(v) => {
                rows.push(vec![(t_idx, 1.0), (v, -1.0)]);
                lo.push(f64::NEG_INFINITY);
                hi.push(params.tau_ns);
                rows.push(vec![(v, 1.0)]);
                lo.push(0.0);
                hi.push(f64::INFINITY);
                if t_floor.is_finite() {
                    rows.push(vec![(t_idx, 1.0)]);
                    lo.push(t_floor);
                    hi.push(f64::INFINITY);
                }
            }
            None => {
                rows.push(vec![(t_idx, 1.0)]);
                lo.push(t_floor);
                hi.push(params.tau_ns);
            }
        }

        let a = CsrMatrix::from_rows(num_vars, &rows);
        let qp =
            QuadProgram::new(p, qv, a, lo, hi).expect("formulation is dimensionally consistent");
        Formulation {
            qp,
            layout: VarLayout {
                num_grids: k,
                active,
                arr_index,
                t_idx,
                num_vars,
            },
            tau_row,
            grid_of_inst,
            num_kept,
            elastic: elastic_idx.zip(params.elastic_weight),
        }
    }

    /// Retightens the clock-period bound to a new τ.
    pub fn set_tau(&mut self, tau_ns: f64) {
        self.qp.u[self.tau_row] = tau_ns;
    }

    /// The paper's QCP (Eqs. 6/11) over this formulation's rows:
    /// minimize `T` subject to every row and the leakage budget
    /// `½dᵀP_L d + q_Lᵀd ≤ ξ` (nW) as one convex quadratic row, where
    /// `(P_L, q_L)` is the leakage objective. An elastic variable costs as
    /// much as `T`, so it stays 0 wherever `T` meets τ. The objective's
    /// `P` is kept as an all-zero diagonal so the program has the same
    /// sparsity pattern as the QP, and one solver's symbolic
    /// factorization serves both.
    pub fn min_period_program(&self, xi_nw: f64) -> (QuadProgram, QuadRow) {
        let n = self.layout.num_vars;
        let mut leak_q = self.qp.q.clone();
        let mut q = vec![0.0; n];
        q[self.layout.t_idx] = 1.0;
        if let Some((v, _)) = self.elastic {
            leak_q[v] = 0.0;
            q[v] = 1.0;
        }
        let row = QuadRow {
            p_diag: self.qp.p.diag(),
            q: leak_q,
            xi: xi_nw,
        };
        let qp = QuadProgram {
            p: CsrMatrix::diagonal(&vec![0.0; n]),
            q,
            a: self.qp.a.clone(),
            l: self.qp.l.clone(),
            u: self.qp.u.clone(),
        };
        (qp, row)
    }

    /// The leakage part of the objective at a solution (the elastic
    /// penalty, if any, subtracted out), in the objective's native nW.
    pub fn leakage_objective(&self, x: &[f64]) -> f64 {
        let mut obj = self.qp.objective(x);
        if let Some((v, w)) = self.elastic {
            obj -= w * x[v];
        }
        obj
    }

    /// The elastic violation `v` at a solution (0 when not elastic), ns.
    pub fn elastic_violation(&self, x: &[f64]) -> f64 {
        self.elastic.map_or(0.0, |(v, _)| x[v])
    }

    /// Extracts the per-grid poly doses from a solution vector.
    pub fn poly_doses(&self, x: &[f64]) -> Vec<f64> {
        x[..self.layout.num_grids].to_vec()
    }

    /// Extracts the per-grid active doses (empty when poly-only).
    pub fn active_doses(&self, x: &[f64]) -> Vec<f64> {
        if self.layout.active {
            x[self.layout.num_grids..2 * self.layout.num_grids].to_vec()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_liberty::Library;
    use dme_netlist::{gen, profiles};

    fn build_tiny(prune: bool, layers: LayerChoice) -> (Formulation, usize) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let grid = DoseGrid::with_granularity(p.die_w_um, p.die_h_um, 5.0);
        let params = FormulationParams {
            layers,
            lo_pct: -5.0,
            hi_pct: 5.0,
            delta_pct: 2.0,
            sensitivity: DoseSensitivity::default(),
            tau_ns: ctx.nominal.mct_ns,
            prune,
            tau_ref_ns: ctx.nominal.mct_ns,
            elastic_weight: None,
            hold_margin_ns: None,
        };
        let n = ctx.num_instances();
        (Formulation::build(&ctx, &grid, &params), n)
    }

    #[test]
    fn unpruned_formulation_keeps_every_instance() {
        let (f, n) = build_tiny(false, LayerChoice::PolyOnly);
        assert_eq!(f.num_kept, n);
        assert_eq!(f.layout.num_vars, f.layout.num_grids + n + 1);
        assert_eq!(f.layout.t_idx, f.layout.num_vars - 1);
    }

    #[test]
    fn active_layer_doubles_dose_variables() {
        let (poly, _) = build_tiny(false, LayerChoice::PolyOnly);
        let (both, _) = build_tiny(false, LayerChoice::PolyAndActive);
        assert_eq!(
            both.layout.num_vars - poly.layout.num_vars,
            poly.layout.num_grids
        );
        assert!(both.layout.active && !poly.layout.active);
    }

    #[test]
    fn pruning_removes_slack_rich_instances() {
        let (full, n) = build_tiny(false, LayerChoice::PolyOnly);
        let (pruned, _) = build_tiny(true, LayerChoice::PolyOnly);
        assert!(pruned.num_kept < n, "nothing pruned");
        assert!(pruned.qp.num_constraints() < full.qp.num_constraints());
    }

    #[test]
    fn zero_dose_is_feasible_at_nominal_tau() {
        // x = 0 (zero doses, arrivals = nominal, T = MCT) must satisfy
        // everything: the formulation linearizes around nominal.
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let grid = DoseGrid::with_granularity(p.die_w_um, p.die_h_um, 5.0);
        let params = FormulationParams {
            layers: LayerChoice::PolyOnly,
            lo_pct: -5.0,
            hi_pct: 5.0,
            delta_pct: 2.0,
            sensitivity: DoseSensitivity::default(),
            tau_ns: ctx.nominal.mct_ns,
            prune: false,
            tau_ref_ns: ctx.nominal.mct_ns,
            elastic_weight: None,
            hold_margin_ns: None,
        };
        let f = Formulation::build(&ctx, &grid, &params);
        let mut x = vec![0.0; f.layout.num_vars];
        for (i, slot) in f.layout.arr_index.iter().enumerate() {
            if let Some(v) = slot {
                x[*v] = ctx.nominal.arrival_ns[i];
            }
        }
        x[f.layout.t_idx] = ctx.nominal.mct_ns;
        let viol = f.qp.max_violation(&x);
        assert!(viol < 1e-9, "violation = {viol}");
        // And its objective (ΔLeakage at zero dose) is exactly zero.
        assert!(f.qp.objective(&x).abs() < 1e-12);
    }

    #[test]
    fn set_tau_changes_only_the_bound() {
        let (mut f, _) = build_tiny(false, LayerChoice::PolyOnly);
        let before = f.qp.u[f.tau_row];
        f.set_tau(before * 0.9);
        assert!((f.qp.u[f.tau_row] - before * 0.9).abs() < 1e-15);
    }
}
