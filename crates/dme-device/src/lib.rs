//! Analytic MOSFET device models for dose-driven CD modulation studies.
//!
//! This crate replaces the SPICE decks and foundry device models used by
//! the paper *"Dose map and placement co-optimization for timing yield
//! enhancement and leakage power reduction"* (DAC 2008 / TCAD 2010). It
//! provides closed-form, physically motivated models of the two facts the
//! paper's entire formulation rests on (its Figs. 3–6):
//!
//! - **delay** is approximately *linear* in gate length and gate width
//!   around the nominal feature size (alpha-power-law saturation current
//!   plus a drive-independent intrinsic component), and
//! - **subthreshold leakage** is *exponential* in gate length (through
//!   short-channel threshold-voltage roll-off) and *linear* in gate width.
//!
//! The [`Technology`] presets (`n65`, `n90`) are calibrated so that a
//! uniform ±5% exposure-dose change (±10 nm of gate length at the paper's
//! −2 nm/% dose sensitivity) reproduces the endpoint ratios of the paper's
//! Tables II and III: at 65 nm, −10 nm of `L` gives ≈0.87× delay and
//! ≈2.55× leakage; +10 nm gives ≈1.11× delay and ≈0.62× leakage.
//!
//! # Example
//!
//! ```
//! use dme_device::Technology;
//!
//! let t = Technology::n65();
//! let nominal = t.leakage_nw(t.lnom_nm, 200.0);
//! let shortened = t.leakage_nw(t.lnom_nm - 10.0, 200.0);
//! assert!(shortened / nominal > 2.0, "short channel must be much leakier");
//! ```

#![deny(missing_docs)]

pub mod stage;
pub mod sweep;
mod tech;

pub use stage::{StageDelay, StageDrive, StageParams};
pub use tech::Technology;

/// Thermal voltage `kT/q` at 25 °C, in volts (the paper's simulation
/// condition is VDD = +1.0 V, temperature = +25 °C, process = TT).
pub const THERMAL_VOLTAGE: f64 = 0.025693;
