//! Gate-level netlists and synthetic design generation.
//!
//! This crate replaces the industrial (Artisan TSMC) AES and JPEG
//! testcases of the paper with deterministic synthetic equivalents. A
//! [`Netlist`] is a DAG of standard-cell [`Instance`]s connected by
//! [`Net`]s, with sequential cells acting as timing startpoints (their Q
//! output) and endpoints (their D input), exactly the "unrolled" view the
//! paper analyzes. The [`generate`](gen::generate) function builds layered
//! random logic whose size matches Table I of the paper and whose
//! path-depth distribution is shaped to reproduce the slack-criticality
//! histograms of Table VII (AES designs have a "hill" of near-critical
//! paths; JPEG designs a thin critical tail).
//!
//! # Example
//!
//! ```
//! use dme_netlist::{gen, profiles};
//! use dme_liberty::Library;
//! use dme_device::Technology;
//!
//! let lib = Library::standard(Technology::n65());
//! let design = gen::generate(&profiles::tiny(), &lib);
//! assert!(design.netlist.validate(&lib).is_ok());
//! ```

#![deny(missing_docs)]

pub mod gen;
mod graph;
pub mod profiles;
pub mod stats;
pub mod verilog;

pub use gen::Design;
pub use graph::{FlatNetlist, InstId, Instance, Net, NetId, Netlist, TopoLevels, ValidateError};
pub use profiles::DesignProfile;
