//! The centering (µ-update) rule.

/// Mehrotra's adaptive centering `σ = (µ_aff/µ)³` for the corrector
/// solve, whose complementarity targets are `σ·µ`: when the affine step
/// already shrinks the gap a lot, barely center; when it is blocked,
/// recenter fully. `mu` is the gap at the top of the iteration, `mu_aff`
/// the gap after the full affine step.
///
/// A centrality floor holds σ at 0.5 or more while the absolute dual
/// residual `rd_inf = ‖Px + q + Aᵀy‖∞` dwarfs the gap and is not yet
/// small against `q_norm = max(‖q‖∞, 1)`: letting µ collapse first
/// ill-conditions every later Newton system.
pub(crate) fn mehrotra_sigma(mu: f64, mu_aff: f64, rd_inf: f64, q_norm: f64) -> f64 {
    let sigma = if mu > 1e-300 {
        (mu_aff / mu).clamp(0.0, 1.0).powi(3)
    } else {
        0.0
    };
    if rd_inf > 1e2 * mu.max(1e-300) && rd_inf / q_norm > 1e-4 {
        sigma.max(0.5)
    } else {
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mehrotra_sigma_is_cubed_ratio() {
        assert!((mehrotra_sigma(1.0, 0.5, 0.0, 1.0) - 0.125).abs() < 1e-15);
        assert_eq!(mehrotra_sigma(1.0, 0.0, 0.0, 1.0), 0.0);
        assert_eq!(mehrotra_sigma(0.0, 0.0, 0.0, 1.0), 0.0);
        // A blocked affine step (µ_aff ≈ µ) recenters fully.
        assert!((mehrotra_sigma(1.0, 1.0, 0.0, 1.0) - 1.0).abs() < 1e-15);
        // A dual residual that dwarfs µ floors σ at 0.5 ...
        assert!((mehrotra_sigma(1e-9, 1e-10, 1.0, 1.0) - 0.5).abs() < 1e-15);
        assert!((mehrotra_sigma(1e-9, 1e-9, 1.0, 1.0) - 1.0).abs() < 1e-15);
        // ... unless it is already small against ‖q‖.
        let sigma = mehrotra_sigma(1e-9, 1e-10, 1e-5, 1.0);
        assert!((sigma - 1e-3).abs() < 1e-15, "σ = {sigma}");
    }
}
