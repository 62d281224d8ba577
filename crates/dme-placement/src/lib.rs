//! Standard-cell placement: global placement, legalization, HPWL.
//!
//! This crate replaces the placement/ECO portion of the commercial
//! physical-design tool (Cadence SoC Encounter) used by the paper. It
//! provides:
//!
//! - [`place`]: a deterministic force-directed global placer (neighbor
//!   averaging interleaved with sort-based spreading) followed by Tetris
//!   legalization onto rows and sites — enough to give generated netlists
//!   the *spatial locality* that dose-map optimization exploits (critical
//!   paths occupy compact regions, so a grid dose can speed them up);
//! - [`Placement`]: per-instance coordinates plus die/row geometry,
//!   net HPWL, neighborhood bounding boxes (the dosePl swap filter), and
//!   cell swapping with incremental re-legalization (the paper's ECO
//!   step);
//! - [`PlacementDelta`]: a coordinate journal for O(Δ) undo of tracked
//!   swap/repack perturbations, [`RowIndex`]: persistent row membership
//!   so an ECO repack gathers only the dirty rows instead of scanning
//!   every instance, and [`NetBoxCache`]: cached per-net bounding boxes
//!   with O(1) what-if HPWL queries — the swap-scratch layer behind the
//!   dosePl candidate loop;
//! - density statistics used to sanity-check utilization against Table I.
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
//! let placement = dme_placement::place(&design, &lib);
//! placement.check_legal(&design.netlist, &lib).expect("legal placement");
//! ```

#![deny(missing_docs)]

mod db;
mod delta;
mod hpwl;
pub mod io;
mod legalize;
mod netbox;
mod order;
mod place;
mod rowindex;

pub use db::{LegalityError, PadIndex, Placement};
pub use delta::PlacementDelta;
pub use hpwl::BoundingBox;
pub use netbox::{NetBoxCache, NetBoxStats, NetPins};
pub use place::{place, place_with_iterations};
pub use rowindex::RowIndex;
