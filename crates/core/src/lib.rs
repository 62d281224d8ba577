//! Dose map and placement co-optimization for timing yield enhancement
//! and leakage power reduction.
//!
//! This crate implements the primary contribution of Jeong, Kahng, Park
//! and Yao's DAC 2008 / TCAD 2010 paper on design-aware exposure-dose
//! maps:
//!
//! - **DMopt** ([`optimize`]): placement-aware dose-map optimization.
//!   The exposure field is partitioned into a dose grid; gate delay is
//!   linear and gate leakage quadratic in the per-grid dose deltas. Two
//!   convex formulations are supported — minimize leakage under a timing
//!   constraint (a QP, Section III-A/B.1 of the paper) and minimize the
//!   clock period under a leakage constraint (a QCP, Section III-A/B.2,
//!   solved here in one interior-point solve with the leakage budget as
//!   a convex quadratic row, then one min-leakage solve within 0.2% of
//!   the optimal period) — on the poly layer alone (gate length) or
//!   poly + active layers (length + width).
//! - **dosePl** ([`dosepl()`]): the dose-map-aware placement heuristic of
//!   the paper's Appendix — cell swapping toward higher-dose regions with
//!   bounding-box / distance / HPWL / leakage filters, ECO legalization
//!   and golden-timing rollback (Algorithm 1).
//! - The full **flow** ([`flow`]): nominal analysis → DMopt → golden
//!   signoff → dosePl (Figs. 7–8).
//!
//! Everything is driven by golden analyses from the substrate crates:
//! synthetic libraries (`dme-liberty`), generated designs
//! (`dme-netlist`), placement (`dme-placement`), STA (`dme-sta`), the
//! dose-map model (`dme-dosemap`) and the convex solver (`dme-qp`).
//!
//! # Example
//!
//! ```
//! use dmeopt::{OptContext, DmoptConfig, optimize};
//! use dme_netlist::{gen, profiles};
//! use dme_liberty::Library;
//! use dme_device::Technology;
//!
//! # fn main() -> Result<(), dmeopt::DmoptError> {
//! let lib = Library::standard(Technology::n65());
//! let design = gen::generate(&profiles::tiny(), &lib);
//! let placement = dme_placement::place(&design, &lib);
//! let ctx = OptContext::new(&lib, &design, &placement);
//! let cfg = DmoptConfig { grid_g_um: 10.0, ..DmoptConfig::default() };
//! let result = optimize(&ctx, &cfg)?;
//! // Leakage goes down, timing does not degrade (beyond tolerance).
//! assert!(result.golden_after.leakage_uw <= result.golden_before.leakage_uw + 1e-9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod context;
pub mod dosepl;
mod error;
pub mod flow;
mod formulate;
mod gridindex;
mod optimize;
#[cfg(test)]
mod qcp;

// dosePl's from-scratch oracle is shared with the integration tests,
// which reach this crate as `dmeopt`; the alias lets the unit tests
// compile the same file.
#[cfg(test)]
extern crate self as dmeopt;
#[cfg(test)]
#[path = "../tests/common/dosepl_oracle.rs"]
mod dosepl_oracle;

pub use context::{GoldenSummary, OptContext};
pub use dosepl::{dosepl, DeltaEngineStats, DoseplConfig, DoseplResult, EnumTallies};
pub use error::DmoptError;
pub use formulate::{Formulation, FormulationParams, VarLayout};
pub use optimize::{
    formulation_params, optimize, DmoptConfig, DmoptResult, Layers, Objective, ObsSolverObserver,
};
