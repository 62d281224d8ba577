//! Static timing analysis and leakage-power rollup.
//!
//! This crate replaces the golden signoff tools of the paper (Synopsys
//! PrimeTime for timing, Cadence SoC Encounter for leakage). It provides:
//!
//! - [`analyze`]: block-based STA over a placed netlist — NLDM table
//!   interpolation through the characterized library variants, slew
//!   propagation, Elmore-style wire delays from placement HPWL, arrival /
//!   required / slack times, minimum cycle time (MCT) and total leakage;
//! - [`GeometryAssignment`]: the per-instance gate-length / gate-width
//!   deltas induced by a dose map (or a uniform dose sweep);
//! - [`paths`]: top-K critical-path enumeration (best-first deviation
//!   search), used by the dosePl heuristic, the Table VII criticality
//!   histogram and the Fig. 10 slack profiles;
//! - [`report`]: slack-profile and criticality-percentage helpers.
//!
//! # Example
//!
//! ```
//! use dme_netlist::{gen, profiles};
//! use dme_liberty::Library;
//! use dme_device::Technology;
//! use dme_sta::{analyze, GeometryAssignment};
//!
//! let lib = Library::standard(Technology::n65());
//! let design = gen::generate(&profiles::tiny(), &lib);
//! let placement = dme_placement::place(&design, &lib);
//! let doses = GeometryAssignment::nominal(design.netlist.num_instances());
//! let report = analyze(&lib, &design.netlist, &placement, &doses);
//! assert!(report.mct_ns > 0.0);
//! assert!(report.total_leakage_uw > 0.0);
//! ```

#![deny(missing_docs)]

mod delta;
mod engine;
pub mod incremental;
pub mod paths;
pub mod report;
pub mod sdf;
mod wire;

pub use delta::AssignmentDelta;
pub use engine::{
    analyze, analyze_with_mode, total_leakage_uw, GeometryAssignment, StaMode, TimingReport,
};
pub use incremental::{IncrementalSta, RetimeStats, TopKStats};
pub use paths::{
    top_k_paths, worst_path_per_endpoint, worst_paths_per_endpoint_k, worst_paths_top_k, TimingPath,
};
pub use wire::WireModel;
