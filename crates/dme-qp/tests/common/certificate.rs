//! A KKT optimality certificate for a solved [`QuadProgram`], computed
//! from the program and the solution alone.
//!
//! For `min ½·xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u` with multipliers `y` (positive
//! on an active upper side, negative on an active lower side), a point is
//! optimal when it is feasible, stationary, sign-consistent and
//! complementary. The tolerances sit an order of magnitude above what the
//! interior-point solver reaches on the bundled fixtures and the random
//! programs of the property tests, and well inside the 1e-4 objective
//! agreement a second solver could vouch for.

use dme_qp::{QuadProgram, Solution};

/// Relative stationarity bound on `‖Px + q + Aᵀy‖∞`.
const STATIONARITY_TOL: f64 = 1e-5;
/// Relative bound on the complementarity gap.
const GAP_TOL: f64 = 1e-5;
/// Absolute bound on the constraint violation.
const VIOLATION_TOL: f64 = 1e-6;

/// Checks that `sol` is an optimal point of `qp`:
///
/// - stationarity: `‖Px+q+Aᵀy‖∞ ≤ 1e-5·max(‖q‖∞, ‖Px‖∞, ‖Aᵀy‖∞, 1)`;
/// - complementarity: `Σ y⁺ᵢ(uᵢ−aᵢx) + y⁻ᵢ(aᵢx−lᵢ) ≤ 1e-5·(1+|obj|)`;
/// - dual signs: `yᵢ > 0` only where `uᵢ` is finite, `yᵢ < 0` only where
///   `lᵢ` is finite;
/// - feasibility: `max_violation ≤ 1e-6`.
///
/// # Errors
///
/// A message naming the first condition that fails and its value.
pub fn kkt_certificate(qp: &QuadProgram, sol: &Solution) -> Result<(), String> {
    let x = &sol.x;
    let y = &sol.y;
    if x.len() != qp.num_vars() || y.len() != qp.num_constraints() {
        return Err(format!(
            "solution has {} primal / {} dual entries, program has {} / {}",
            x.len(),
            y.len(),
            qp.num_vars(),
            qp.num_constraints()
        ));
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err("non-finite solution entry".into());
    }
    let inf_norm = |v: &[f64]| v.iter().fold(0.0f64, |m, a| m.max(a.abs()));

    let violation = qp.max_violation(x);
    if violation > VIOLATION_TOL {
        return Err(format!("bound violation {violation:.3e}"));
    }

    let px = qp.p.mul_vec(x);
    let aty = qp.a.mul_transpose_vec(y);
    let residual: Vec<f64> = (0..x.len()).map(|j| px[j] + qp.q[j] + aty[j]).collect();
    let scale = inf_norm(&qp.q)
        .max(inf_norm(&px))
        .max(inf_norm(&aty))
        .max(1.0);
    let stationarity = inf_norm(&residual);
    if stationarity > STATIONARITY_TOL * scale {
        return Err(format!(
            "stationarity ‖Px+q+Aᵀy‖∞ = {stationarity:.3e} against scale {scale:.3e}"
        ));
    }

    let ax = qp.a.mul_vec(x);
    let mut gap = 0.0;
    for (i, &yi) in y.iter().enumerate() {
        if yi > 0.0 {
            if !qp.u[i].is_finite() {
                return Err(format!("row {i}: y = {yi:.3e} > 0 with no upper bound"));
            }
            gap += yi * (qp.u[i] - ax[i]);
        } else if yi < 0.0 {
            if !qp.l[i].is_finite() {
                return Err(format!("row {i}: y = {yi:.3e} < 0 with no lower bound"));
            }
            gap += -yi * (ax[i] - qp.l[i]);
        }
    }
    let objective = qp.objective(x);
    if gap > GAP_TOL * (1.0 + objective.abs()) {
        return Err(format!(
            "complementarity gap {gap:.3e} at objective {objective:.6e}"
        ));
    }
    Ok(())
}
