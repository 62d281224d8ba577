//! The bisection oracle for the paper's QCP, kept for tests only.
//!
//! The second formulation — *minimize clock period `T` subject to
//! `ΔLeakage(d) ≤ ξ`* — is a convex program with a linear objective and one
//! convex quadratic constraint. For a convex program the predicate "there
//! exists a feasible point with `T ≤ τ` and `ΔLeakage ≤ ξ`" is monotone in
//! `τ`, so the minimum `T` can also be found by bisection, each probe being
//! the paper's *first* formulation (minimize `ΔLeakage` subject to
//! `T ≤ τ`) followed by an `≤ ξ` check. [`crate::optimize`] solves the QCP
//! directly; the tests here check that solve against bisection over the
//! same programs.

use crate::formulate::Formulation;
use dme_qp::{IpmSettings, IpmSolver, SolveError};

/// Outcome of one feasibility probe at a candidate objective value `t`.
#[derive(Debug, Clone)]
pub enum Probe<S> {
    /// A point satisfying every constraint at this `t` exists; carries the
    /// witness.
    Feasible(S),
    /// No feasible point exists at this `t`.
    Infeasible,
}

/// Result of a bisection solve.
#[derive(Debug, Clone)]
pub struct BisectResult<S> {
    /// The smallest probed value proven feasible.
    pub t: f64,
    /// Witness returned by the feasibility oracle at `t`.
    pub witness: S,
    /// Number of oracle calls performed.
    pub probes: usize,
}

/// Minimizes a scalar `t ∈ [lo, hi]` subject to a monotone feasibility
/// oracle: `probe(t)` must be infeasible for all `t` below the optimum and
/// feasible above it. `hi` must be feasible (checked). Stops when the
/// bracket is narrower than `tol` and returns the feasible end.
///
/// # Errors
///
/// Returns [`SolveError::InvalidBracket`] if `lo > hi` or either bound is
/// not finite, [`SolveError::Numerical`] if `probe(hi)` reports infeasible
/// (the oracle contract requires the upper end to be feasible), and
/// propagates any error from the oracle itself.
pub fn bisect_min<S, F>(
    lo: f64,
    hi: f64,
    tol: f64,
    mut probe: F,
) -> Result<BisectResult<S>, SolveError>
where
    F: FnMut(f64) -> Result<Probe<S>, SolveError>,
{
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(SolveError::InvalidBracket { lo, hi });
    }
    let mut probes = 0usize;
    let mut best_t = hi;
    let mut best_witness = match probe(hi)? {
        Probe::Feasible(w) => {
            probes += 1;
            w
        }
        Probe::Infeasible => {
            return Err(SolveError::Numerical(format!(
                "bisection upper bound {hi} is infeasible; the bracket does not contain a solution"
            )))
        }
    };
    let mut lo = lo;
    let mut hi = hi;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        probes += 1;
        match probe(mid)? {
            Probe::Feasible(w) => {
                best_t = mid;
                best_witness = w;
                hi = mid;
            }
            Probe::Infeasible => {
                lo = mid;
            }
        }
    }
    Ok(BisectResult {
        t: best_t,
        witness: best_witness,
        probes,
    })
}

/// The bisection `optimize` ran before it solved the QCP in one solve:
/// cold elastic min-leakage probes over `form` for τ in
/// `[tau_ref, nominal_mct]`, each feasible when the elastic violation
/// collapses, the leakage meets `xi_nw + tol_nw` and the rows hold.
/// Returns the smallest certified τ, ns.
pub(crate) fn bisect_period(
    form: &mut Formulation,
    xi_nw: f64,
    tol_nw: f64,
    tau_ref: f64,
    nominal_mct: f64,
    tol_t: f64,
) -> Result<BisectResult<Vec<f64>>, SolveError> {
    let solver = IpmSolver::new(IpmSettings::default());
    bisect_min(tau_ref, nominal_mct, tol_t, |tau| {
        form.set_tau(tau);
        let sol = solver.solve(&form.qp)?;
        let feasible = form.elastic_violation(&sol.x) <= 1e-4 * nominal_mct
            && form.leakage_objective(&sol.x) <= xi_nw + tol_nw
            && form.qp.max_violation(&sol.x) <= 1e-3 * nominal_mct;
        Ok(if feasible {
            Probe::Feasible(sol.x)
        } else {
            Probe::Infeasible
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_qp::{CsrMatrix, NopObserver, QuadProgram, QuadRow, SolveStatus};
    use proptest::prelude::*;

    #[test]
    fn finds_threshold_of_monotone_predicate() {
        // Feasible iff t >= pi.
        let r = bisect_min(0.0, 10.0, 1e-6, |t| {
            Ok(if t >= std::f64::consts::PI {
                Probe::Feasible(t)
            } else {
                Probe::Infeasible
            })
        })
        .unwrap();
        assert!((r.t - std::f64::consts::PI).abs() < 1e-5);
        assert!(r.probes > 10);
    }

    #[test]
    fn witness_comes_from_last_feasible_probe() {
        let r = bisect_min(0.0, 8.0, 0.5, |t| {
            Ok(if t >= 3.0 {
                Probe::Feasible(format!("w@{t:.3}"))
            } else {
                Probe::Infeasible
            })
        })
        .unwrap();
        assert!(r.t >= 3.0 && r.t < 3.5);
        assert_eq!(r.witness, format!("w@{:.3}", r.t));
    }

    #[test]
    fn infeasible_upper_bound_is_an_error() {
        let r = bisect_min(0.0, 1.0, 1e-3, |_| Ok(Probe::<()>::Infeasible));
        assert!(matches!(r, Err(SolveError::Numerical(_))));
    }

    #[test]
    fn inverted_bracket_is_an_error() {
        let r = bisect_min(2.0, 1.0, 1e-3, |t| Ok(Probe::Feasible(t)));
        assert!(matches!(r, Err(SolveError::InvalidBracket { .. })));
    }

    #[test]
    fn degenerate_bracket_returns_hi() {
        let r = bisect_min(5.0, 5.0, 1e-3, |t| Ok(Probe::Feasible(t)));
        let r = r.unwrap();
        assert_eq!(r.t, 5.0);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn oracle_errors_propagate() {
        let r = bisect_min(0.0, 1.0, 1e-3, |_| {
            Err::<Probe<()>, _>(SolveError::Numerical("oracle failed".into()))
        });
        assert!(matches!(r, Err(SolveError::Numerical(_))));
    }

    /// A small dose-map-shaped QCP: doses `x ∈ [−1, 1]ⁿ` coupled by
    /// smoothness rows, delay rows `c_i − a_i·x_{j(i)} ≤ T`, `T ≤ τ_hi`,
    /// and the leakage row `½Σp_j x_j² + Σq_j x_j ≤ ξ`. `x = 0` meets
    /// every delay row at `T = τ_hi = max c_i` with zero leakage, and
    /// `x = 1` reaches the period floor `max(c_i − a_i)`.
    struct Instance {
        /// `min T` over the rows; the last variable is `T`.
        qcp: QuadProgram,
        budget: QuadRow,
        /// The min-leakage QP over the same rows.
        qp: QuadProgram,
        floor: f64,
        tau_hi: f64,
    }

    fn instance(
        p: Vec<f64>,
        q: Vec<f64>,
        delays: Vec<(usize, f64, f64)>,
        budget_frac: f64,
    ) -> Instance {
        let n = p.len();
        let t = n;
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for j in 0..n {
            rows.push(vec![(j, 1.0)]);
            lo.push(-1.0);
            hi.push(1.0);
        }
        for j in 0..n.saturating_sub(1) {
            rows.push(vec![(j, 1.0), (j + 1, -1.0)]);
            lo.push(-0.8);
            hi.push(0.8);
        }
        let mut tau_hi = 0.0f64;
        let mut floor = 0.0f64;
        for &(j, c, a) in &delays {
            let j = j % n;
            // c − a·x_j ≤ T  ⇔  −a·x_j − T ≤ −c.
            rows.push(vec![(j, -a), (t, -1.0)]);
            lo.push(f64::NEG_INFINITY);
            hi.push(-c);
            tau_hi = tau_hi.max(c);
            floor = floor.max(c - a);
        }
        rows.push(vec![(t, 1.0)]);
        lo.push(f64::NEG_INFINITY);
        hi.push(tau_hi);
        let a = CsrMatrix::from_rows(n + 1, &rows);
        let leak_full: f64 = (0..n).map(|j| 0.5 * p[j] + q[j]).sum();
        let mut p1 = p.clone();
        p1.push(0.0);
        let mut q1 = q.clone();
        q1.push(0.0);
        let mut e_t = vec![0.0; n + 1];
        e_t[t] = 1.0;
        let qcp = QuadProgram::new(
            CsrMatrix::diagonal(&vec![0.0; n + 1]),
            e_t,
            a.clone(),
            lo.clone(),
            hi.clone(),
        )
        .unwrap();
        let qp = QuadProgram::new(CsrMatrix::diagonal(&p1), q1.clone(), a, lo, hi).unwrap();
        Instance {
            qcp,
            budget: QuadRow {
                p_diag: p1,
                q: q1,
                xi: budget_frac * leak_full,
            },
            qp,
            floor,
            tau_hi,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one-shot QCP solve finds the period bisection over the
        /// min-leakage QPs of the same program finds, within the
        /// bisection's tolerance, and never above it.
        #[test]
        fn qcp_period_matches_bisection_over_the_qps(
            (p, q, delays) in (2usize..6).prop_flat_map(|n| (
                proptest::collection::vec(0.2f64..2.0, n),
                proptest::collection::vec(0.2f64..2.0, n),
                proptest::collection::vec((0usize..6, 1.0f64..2.0, 0.05f64..0.5), 2..8),
            )),
            budget_frac in 0.05f64..0.9,
        ) {
            let inst = instance(p, q, delays, budget_frac);
            let t_idx = inst.qcp.num_vars() - 1;
            let sol = IpmSolver::new(IpmSettings::default())
                .solve_qcp(&inst.qcp, &inst.budget, &mut NopObserver)
                .expect("qcp");
            prop_assert_eq!(sol.status, SolveStatus::Solved);
            prop_assert!(inst.budget.value(&sol.x) <= inst.budget.xi + 1e-6,
                "row {} > ξ {}", inst.budget.value(&sol.x), inst.budget.xi);
            prop_assert!(inst.qcp.max_violation(&sol.x) <= 1e-6);
            prop_assert!(sol.row_multiplier >= 0.0);
            let t_qcp = sol.x[t_idx];

            let tol = 1e-4;
            let solver = IpmSolver::new(IpmSettings::default());
            let mut qp = inst.qp.clone();
            let tau_row = qp.num_constraints() - 1;
            let bisect = bisect_min(inst.floor, inst.tau_hi, tol, |tau| {
                qp.u[tau_row] = tau;
                let s = solver.solve(&qp)?;
                Ok(if qp.objective(&s.x) <= inst.budget.xi + 1e-7 {
                    Probe::Feasible(())
                } else {
                    Probe::Infeasible
                })
            })
            .expect("bisection");
            prop_assert!(t_qcp <= bisect.t + 1e-6, "QCP T {t_qcp} above bisected τ {}", bisect.t);
            prop_assert!(t_qcp >= bisect.t - tol - 1e-6, "QCP T {t_qcp} below bisected τ {} − tol", bisect.t);
        }
    }
}
