//! The three building blocks of the interior-point iteration in
//! [`crate::IpmSolver`]:
//!
//! - [`CondensedSystem`] forms and solves the per-iteration Newton
//!   system, eliminating slacks and multipliers down to the SPD system
//!   `(P + AᵀDA)·Δx = rhs`, backed by either matrix-free CG or the cached
//!   sparse LDLᵀ factorization, with an optional convex quadratic row's
//!   terms ([`RowTerms`]) on top.
//! - [`mehrotra_sigma`] is the centering rule: Mehrotra's adaptive
//!   `σ = (µ_aff/µ)³` under a centrality floor.
//! - [`step_lengths`] is the step rule: fraction to the boundary, with
//!   separate primal and dual lengths.

mod augmented_system;
mod line_search;
mod mu_update;

pub(crate) use augmented_system::{apply_k, CondensedSystem, RowTerms};
pub(crate) use line_search::{step_lengths, RowView};
pub(crate) use mu_update::mehrotra_sigma;
