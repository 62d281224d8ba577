//! The fraction-to-the-boundary step rule.

/// Borrowed view of the per-row barrier state the step rule consumes:
/// bound structure, current slacks, and one-sided multipliers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowView<'a> {
    /// Finite-lower-bound flags per row.
    pub(crate) has_l: &'a [bool],
    /// Finite-upper-bound flags per row.
    pub(crate) has_u: &'a [bool],
    /// Lower bounds (after equality-gap widening).
    pub(crate) l: &'a [f64],
    /// Upper bounds (after equality-gap widening).
    pub(crate) u: &'a [f64],
    /// Row slacks `s`, strictly inside `[l, u]`.
    pub(crate) s: &'a [f64],
    /// Lower-side multipliers `z_l > 0` (0 where no lower bound).
    pub(crate) zl: &'a [f64],
    /// Upper-side multipliers `z_u > 0`.
    pub(crate) zu: &'a [f64],
}

/// Step lengths `(α_p, α_d) ∈ (0, 1]²` along `(ds, dzl, dzu)`: the
/// largest steps keeping slacks (primal) and multipliers (dual) strictly
/// positive, shrunk by the fraction-to-the-boundary factor `frac` (1.0
/// for the affine predictor probe, 0.995 for the step taken). Separate
/// step lengths are the standard Mehrotra practice: one blocked
/// multiplier must not freeze the primal (and vice versa).
pub(crate) fn step_lengths(
    rows: &RowView<'_>,
    ds: &[f64],
    dzl: &[f64],
    dzu: &[f64],
    frac: f64,
) -> (f64, f64) {
    let mut ap = 1.0f64;
    let mut ad = 1.0f64;
    for i in 0..ds.len() {
        if rows.has_l[i] {
            let sl = rows.s[i] - rows.l[i];
            if ds[i] < 0.0 {
                ap = ap.min(-sl / ds[i]);
            }
            if dzl[i] < 0.0 {
                ad = ad.min(-rows.zl[i] / dzl[i]);
            }
        }
        if rows.has_u[i] {
            let su = rows.u[i] - rows.s[i];
            if ds[i] > 0.0 {
                ap = ap.min(su / ds[i]);
            }
            if dzu[i] < 0.0 {
                ad = ad.min(-rows.zu[i] / dzu[i]);
            }
        }
    }
    ((frac * ap).min(1.0), (frac * ad).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_slack_limits_the_primal_step_only() {
        let rows = RowView {
            has_l: &[true],
            has_u: &[false],
            l: &[0.0],
            u: &[f64::INFINITY],
            s: &[1.0],
            zl: &[2.0],
            zu: &[0.0],
        };
        // Slack heads for the boundary at step 0.5; the multiplier grows.
        let (ap, ad) = step_lengths(&rows, &[-2.0], &[1.0], &[0.0], 1.0);
        assert!((ap - 0.5).abs() < 1e-15);
        assert!((ad - 1.0).abs() < 1e-15);
        // The fraction-to-boundary factor shrinks both.
        let (ap, ad) = step_lengths(&rows, &[-2.0], &[-4.0], &[0.0], 0.995);
        assert!((ap - 0.995 * 0.5).abs() < 1e-15);
        assert!((ad - 0.995 * 0.5).abs() < 1e-15);
    }
}
