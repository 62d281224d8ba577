//! Pluggable interior-point strategy seams.
//!
//! The IPM iteration loop in [`crate::IpmSolver`] is written against
//! three small traits rather than one hard-coded algorithm, following
//! the shape of copters' `lp/mpc` solver (solver generic over the
//! augmented-system formulation, the centering rule, and the line
//! search):
//!
//! - [`AugmentedSystem`] — forms and solves the per-iteration Newton
//!   system. The bundled [`CondensedSystem`] eliminates slacks and
//!   multipliers down to the SPD system `(P + AᵀDA)·Δx = rhs`, backed
//!   by either matrix-free CG or the cached sparse LDLᵀ factorization,
//!   with an optional convex quadratic row's terms ([`RowTerms`]) on
//!   top.
//! - [`MuUpdate`] — chooses the centering parameter σ each iteration
//!   and decides whether an affine predictor pass runs at all.
//!   [`MehrotraCentering`] is the adaptive `σ = (µ_aff/µ)³` rule;
//!   [`FixedCentering`] is the classical short/long-step path-following
//!   rule (one Newton solve per iteration, constant σ).
//! - [`LineSearch`] — maps a search direction to primal and dual step
//!   lengths. [`FractionToBoundary`] is the standard rule keeping
//!   slacks and multipliers strictly positive.
//!
//! Strategy selection is a [`crate::IpmSettings`] field with an
//! environment override (`DME_QP_IPM=mehrotra|basic`), mirroring the
//! `DME_QP_BACKEND` toggle: the default [`IpmStrategy::Auto`] resolves
//! the variable once per solve and an unknown value degrades to the
//! Mehrotra default rather than aborting.

mod augmented_system;
mod line_search;
mod mu_update;

pub use augmented_system::{AugmentedSystem, CondensedSystem, RowTerms};
pub use line_search::{FractionToBoundary, LineSearch, RowView};
pub use mu_update::{CenteringContext, FixedCentering, MehrotraCentering, MuUpdate};

/// Which interior-point iteration strategy drives the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IpmStrategy {
    /// Resolve from the `DME_QP_IPM` environment variable at solve time
    /// (`mehrotra` or `basic`, case-insensitive); unset or unknown
    /// values fall back to Mehrotra.
    #[default]
    Auto,
    /// Mehrotra predictor-corrector: an affine predictor solve picks the
    /// adaptive centering `σ = (µ_aff/µ)³` and contributes second-order
    /// complementarity corrections; both solves share one factorization.
    Mehrotra,
    /// Basic path-following: a single centered Newton solve per
    /// iteration with fixed σ ([`crate::IpmSettings::sigma_basic`]).
    /// Kept selectable as the baseline the predictor-corrector is
    /// measured against (`ipm_iterations` in BENCH_perf.json).
    Basic,
}

impl IpmStrategy {
    /// Parses a strategy override value. Unknown strings map to `None`
    /// so a typo in `DME_QP_IPM` degrades to the configured default
    /// rather than aborting a long flow.
    pub fn parse(s: &str) -> Option<IpmStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(IpmStrategy::Auto),
            "mehrotra" => Some(IpmStrategy::Mehrotra),
            "basic" => Some(IpmStrategy::Basic),
            _ => None,
        }
    }

    /// Resolves `Auto` against the `DME_QP_IPM` environment variable.
    /// The result is concrete: never `Auto`.
    pub fn resolve(self) -> IpmStrategy {
        match self {
            IpmStrategy::Auto => std::env::var("DME_QP_IPM")
                .ok()
                .and_then(|v| IpmStrategy::parse(&v))
                .filter(|s| *s != IpmStrategy::Auto)
                .unwrap_or(IpmStrategy::Mehrotra),
            other => other,
        }
    }

    /// Stable lower-case name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            IpmStrategy::Auto => "auto",
            IpmStrategy::Mehrotra => "mehrotra",
            IpmStrategy::Basic => "basic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_known_values_only() {
        assert_eq!(IpmStrategy::parse("mehrotra"), Some(IpmStrategy::Mehrotra));
        assert_eq!(IpmStrategy::parse("Basic"), Some(IpmStrategy::Basic));
        assert_eq!(IpmStrategy::parse("AUTO"), Some(IpmStrategy::Auto));
        assert_eq!(IpmStrategy::parse("fancy"), None);
        assert_eq!(IpmStrategy::parse(""), None);
    }

    #[test]
    fn explicit_strategies_resolve_to_themselves() {
        // Explicit settings win regardless of the environment; only Auto
        // consults DME_QP_IPM (not set here, so it lands on the default
        // unless the strategy matrix leg forces one).
        assert_eq!(IpmStrategy::Mehrotra.resolve(), IpmStrategy::Mehrotra);
        assert_eq!(IpmStrategy::Basic.resolve(), IpmStrategy::Basic);
        assert_ne!(IpmStrategy::Auto.resolve(), IpmStrategy::Auto);
    }
}
