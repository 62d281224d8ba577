//! Equivalent-inverter stage delay model.
//!
//! Every standard cell is characterized as an *equivalent inverter*: a
//! pull-up / pull-down pair with effective widths (series stacks divide
//! drive, parallel legs multiply it) switching a lumped output load. This
//! is the same RC abstraction Liberty NLDM characterization flows use to
//! seed their SPICE sweeps, and it produces delay that is close to linear
//! in both gate length and gate width over the ±10 nm range the dose map
//! can reach — the paper's Figs. 3 and 4.

use crate::Technology;

/// Slew-to-delay coupling: how much of the input transition time shows up
/// as added propagation delay.
pub const SLEW_TO_DELAY: f64 = 0.1;
/// Output transition time as a multiple of the switching RC constant.
pub const SLEW_GAIN: f64 = 1.9;

/// Electrical description of one logic stage (an equivalent inverter).
#[derive(Debug, Clone, PartialEq)]
pub struct StageParams {
    /// Effective NMOS pull-down width in nm (per-leg width / stack depth).
    pub wn_nm: f64,
    /// Effective PMOS pull-up width in nm.
    pub wp_nm: f64,
    /// Gate length in nm (shared by both devices).
    pub l_nm: f64,
    /// Fixed delay component in ns that does not scale with drive
    /// strength; set once at nominal gate length so delay-vs-L is
    /// linearized the way the paper's Fig. 3 measures it.
    pub intrinsic_ns: f64,
}

/// Delay and output-slew numbers for one stage evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDelay {
    /// High-to-low propagation delay (NMOS pull-down), ns.
    pub tphl_ns: f64,
    /// Low-to-high propagation delay (PMOS pull-up), ns.
    pub tplh_ns: f64,
    /// Falling output transition time, ns.
    pub slew_fall_ns: f64,
    /// Rising output transition time, ns.
    pub slew_rise_ns: f64,
}

impl StageDelay {
    /// Average of the two propagation delays, ns.
    pub fn average_ns(&self) -> f64 {
        0.5 * (self.tphl_ns + self.tplh_ns)
    }

    /// Worst (maximum) of the two propagation delays, ns.
    pub fn worst_ns(&self) -> f64 {
        self.tphl_ns.max(self.tplh_ns)
    }
}

/// A stage's drive at its geometry ([`StageParams::drive`]): everything
/// [`StageParams::evaluate`] needs besides the load and input slew, so a
/// table sweep computes it once and evaluates every grid point with a
/// few multiplies — bit for bit what `evaluate` returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDrive {
    rn_kohm: f64,
    rp_kohm: f64,
    self_cap_ff: f64,
    intrinsic_ns: f64,
}

impl StageDrive {
    /// Propagation delays and output slews for the given external load
    /// and input transition time.
    pub fn evaluate(&self, load_ff: f64, input_slew_ns: f64) -> StageDelay {
        let c = load_ff + self.self_cap_ff;
        let (rn, rp) = (self.rn_kohm, self.rp_kohm);
        let slew_term = SLEW_TO_DELAY * input_slew_ns;
        let tphl = self.intrinsic_ns + rn * c * 1e-3 + slew_term;
        let tplh = self.intrinsic_ns + rp * c * 1e-3 + slew_term;
        StageDelay {
            tphl_ns: tphl,
            tplh_ns: tplh,
            slew_fall_ns: SLEW_GAIN * rn * c * 1e-3,
            slew_rise_ns: SLEW_GAIN * rp * c * 1e-3,
        }
    }
}

impl StageParams {
    /// Creates a stage with no intrinsic offset.
    pub fn new(wn_nm: f64, wp_nm: f64, l_nm: f64) -> Self {
        Self {
            wn_nm,
            wp_nm,
            l_nm,
            intrinsic_ns: 0.0,
        }
    }

    /// Computes the intrinsic (drive-independent) delay offset that makes
    /// this stage's FO4 delay contain `tech.intrinsic_fraction` of
    /// non-scaling delay at the *nominal* gate length and a typical input
    /// slew (the slew-coupling term is also drive-independent, so it
    /// counts toward that fraction). The offset is held fixed as `L` and
    /// `W` are modulated afterwards — that is what linearizes delay-vs-L
    /// to the slopes of the paper's Tables II/III.
    pub fn with_calibrated_intrinsic(mut self, tech: &Technology) -> Self {
        let phi = tech.intrinsic_fraction;
        let (fo4_load, typ_slew) = self.typical_environment_at(tech, tech.lnom_nm);
        let drive = self.drive_delay_ns_at(tech, tech.lnom_nm, fo4_load);
        let slew_term = SLEW_TO_DELAY * typ_slew;
        // Solve intrinsic + slew_term = phi * (intrinsic + drive + slew_term).
        self.intrinsic_ns = ((phi * (drive + slew_term) - slew_term) / (1.0 - phi)).max(0.0);
        self
    }

    /// A representative operating point for this stage: FO4 external load
    /// and the output slew an identical upstream stage would deliver.
    /// This is the point [`Self::with_calibrated_intrinsic`] calibrates at.
    pub fn typical_environment(&self, tech: &Technology) -> (f64, f64) {
        self.typical_environment_at(tech, self.l_nm)
    }

    fn typical_environment_at(&self, tech: &Technology, l_nm: f64) -> (f64, f64) {
        let load = 4.0 * self.input_cap_ff_at(tech, l_nm) + tech.cal_extra_load_ff;
        let drive = self.drive_delay_ns_at(tech, l_nm, load);
        (load, SLEW_GAIN * drive)
    }

    /// Input pin capacitance of the stage in fF at its current `L`.
    pub fn input_cap_ff(&self, tech: &Technology) -> f64 {
        self.input_cap_ff_at(tech, self.l_nm)
    }

    fn input_cap_ff_at(&self, tech: &Technology, l_nm: f64) -> f64 {
        tech.gate_cap_ff(self.wn_nm, l_nm) + tech.gate_cap_ff(self.wp_nm, l_nm)
    }

    /// Self-loading (diffusion) capacitance at the output in fF.
    pub fn self_cap_ff(&self, tech: &Technology) -> f64 {
        tech.diff_cap_ff(self.wn_nm) + tech.diff_cap_ff(self.wp_nm)
    }

    /// Average of pull-up and pull-down drive delays at an explicit gate
    /// length (used for intrinsic-offset calibration), ns.
    fn drive_delay_ns_at(&self, tech: &Technology, l_nm: f64, load_ff: f64) -> f64 {
        let c = load_ff + self.self_cap_ff(tech);
        let rn = tech.reff_n_kohm(self.wn_nm, l_nm);
        let rp = tech.reff_p_kohm(self.wp_nm, l_nm);
        0.5 * (rn + rp) * c * 1e-3 // kΩ·fF = ps → ns
    }

    /// Evaluates the stage: propagation delays and output slews for the
    /// given external load and input transition time.
    pub fn evaluate(&self, tech: &Technology, load_ff: f64, input_slew_ns: f64) -> StageDelay {
        self.drive(tech).evaluate(load_ff, input_slew_ns)
    }

    /// The part of [`StageParams::evaluate`] that depends on the stage's
    /// geometry alone: its drive resistances (the device model's
    /// threshold and drive-current evaluations) and self-loading.
    pub fn drive(&self, tech: &Technology) -> StageDrive {
        StageDrive {
            rn_kohm: tech.reff_n_kohm(self.wn_nm, self.l_nm),
            rp_kohm: tech.reff_p_kohm(self.wp_nm, self.l_nm),
            self_cap_ff: self.self_cap_ff(tech),
            intrinsic_ns: self.intrinsic_ns,
        }
    }

    /// Total subthreshold leakage of the stage in nW, averaged over the
    /// two output states (output high leaks through the pull-down, output
    /// low through the pull-up; PMOS off-current is mobility-scaled).
    pub fn leakage_nw(&self, tech: &Technology) -> f64 {
        let n_leak = tech.leakage_nw(self.l_nm, self.wn_nm);
        let p_leak = tech.pmos_mobility_ratio * tech.leakage_nw(self.l_nm, self.wp_nm);
        0.5 * (n_leak + p_leak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv_x1(tech: &Technology) -> StageParams {
        StageParams::new(tech.wmin_nm, 1.3 * tech.wmin_nm, tech.lnom_nm)
            .with_calibrated_intrinsic(tech)
    }

    #[test]
    fn tplh_slower_than_tphl_for_balanced_widths() {
        let t = Technology::n65();
        let s = inv_x1(&t).evaluate(&t, 2.0, 0.02);
        // PMOS at 1.3× width is still weaker than NMOS (0.45 mobility).
        assert!(s.tplh_ns > s.tphl_ns);
        assert!(s.slew_rise_ns > s.slew_fall_ns);
    }

    #[test]
    fn delay_increases_with_load_and_slew() {
        let t = Technology::n65();
        let cell = inv_x1(&t);
        let base = cell.evaluate(&t, 2.0, 0.02);
        assert!(cell.evaluate(&t, 4.0, 0.02).average_ns() > base.average_ns());
        assert!(cell.evaluate(&t, 2.0, 0.08).average_ns() > base.average_ns());
        // Slew does not affect output transition in this model.
        assert_eq!(cell.evaluate(&t, 2.0, 0.08).slew_rise_ns, base.slew_rise_ns);
    }

    #[test]
    fn delay_vs_length_matches_table2_ratios() {
        let t = Technology::n65();
        let nominal = inv_x1(&t);
        let (fo4, slew) = nominal.typical_environment(&t);
        let d_nom = nominal.evaluate(&t, fo4, slew).average_ns();
        let mut short = nominal.clone();
        short.l_nm = 55.0;
        let mut long = nominal.clone();
        long.l_nm = 75.0;
        let r_short = short.evaluate(&t, fo4, slew).average_ns() / d_nom;
        let r_long = long.evaluate(&t, fo4, slew).average_ns() / d_nom;
        // Paper Table II endpoints: 1.427/1.638 = 0.871 and 1.824/1.638 = 1.114.
        assert!((r_short - 0.871).abs() < 0.03, "short ratio = {r_short}");
        assert!((r_long - 1.114).abs() < 0.03, "long ratio = {r_long}");
    }

    #[test]
    fn delay_vs_length_matches_table3_ratios_90nm() {
        let t = Technology::n90();
        let nominal =
            StageParams::new(t.wmin_nm, 1.3 * t.wmin_nm, t.lnom_nm).with_calibrated_intrinsic(&t);
        let (fo4, slew) = nominal.typical_environment(&t);
        let d_nom = nominal.evaluate(&t, fo4, slew).average_ns();
        let mut short = nominal.clone();
        short.l_nm = 80.0;
        let mut long = nominal.clone();
        long.l_nm = 100.0;
        let r_short = short.evaluate(&t, fo4, slew).average_ns() / d_nom;
        let r_long = long.evaluate(&t, fo4, slew).average_ns() / d_nom;
        // Paper Table III endpoints: 1.758/1.990 = 0.883 and 2.188/1.990 = 1.100.
        assert!((r_short - 0.883).abs() < 0.03, "short ratio = {r_short}");
        assert!((r_long - 1.100).abs() < 0.03, "long ratio = {r_long}");
    }

    #[test]
    fn delay_nearly_linear_in_length() {
        // Max deviation of delay(L) from its chord over ±10 nm stays small,
        // matching the paper's observation (Fig. 3).
        let t = Technology::n65();
        let cell = inv_x1(&t);
        let fo4 = 4.0 * cell.input_cap_ff(&t);
        let at = |l: f64| {
            let mut c = cell.clone();
            c.l_nm = l;
            c.evaluate(&t, fo4, 0.02).average_ns()
        };
        let (d0, d1) = (at(55.0), at(75.0));
        for i in 0..=20 {
            let l = 55.0 + i as f64;
            let chord = d0 + (d1 - d0) * (l - 55.0) / 20.0;
            let dev = (at(l) - chord).abs() / at(65.0);
            assert!(dev < 0.01, "nonlinearity {dev} at L = {l}");
        }
    }

    #[test]
    fn delay_decreases_linearly_with_width() {
        // Fig. 4: widening both devices (fixed external load) speeds the
        // stage up, approximately linearly over ±10 nm.
        let t = Technology::n65();
        let cell = inv_x1(&t);
        let fo4 = 4.0 * cell.input_cap_ff(&t);
        let at = |dw: f64| {
            let mut c = cell.clone();
            c.wn_nm += dw;
            c.wp_nm += dw;
            c.evaluate(&t, fo4, 0.02).average_ns()
        };
        assert!(at(10.0) < at(0.0));
        assert!(at(-10.0) > at(0.0));
        let sym = (at(10.0) + at(-10.0) - 2.0 * at(0.0)).abs() / at(0.0);
        assert!(sym < 0.01, "width nonlinearity {sym}");
    }

    #[test]
    fn stage_leakage_tracks_device_leakage() {
        let t = Technology::n65();
        let cell = inv_x1(&t);
        let mut short = cell.clone();
        short.l_nm = 55.0;
        assert!(short.leakage_nw(&t) / cell.leakage_nw(&t) > 2.0);
        let mut wide = cell.clone();
        wide.wn_nm *= 2.0;
        wide.wp_nm *= 2.0;
        assert!((wide.leakage_nw(&t) / cell.leakage_nw(&t) - 2.0).abs() < 1e-12);
    }
}
