//! Standard-cell masters built from equivalent-inverter stages.

use crate::library::TableAxes;
use crate::table::Table2d;
use dme_device::{StageDrive, StageParams, Technology};

/// Logic function of a cell master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellFunction {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (two internal stages).
    Buf,
    /// k-input NAND.
    Nand(u8),
    /// k-input NOR.
    Nor(u8),
    /// k-input AND (NAND + inverter).
    And(u8),
    /// k-input OR (NOR + inverter).
    Or(u8),
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// AND-OR-invert 2-2.
    Aoi22,
    /// OR-AND-invert 2-2.
    Oai22,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// D flip-flop.
    Dff,
    /// D flip-flop with asynchronous reset.
    Dffr,
    /// D flip-flop with asynchronous set.
    Dffs,
    /// D flip-flop with both set and reset.
    Dffrs,
    /// Transparent latch.
    Latch,
    /// Scan D flip-flop.
    Sdff,
}

impl CellFunction {
    /// Number of logic (data) inputs.
    pub fn num_inputs(self) -> usize {
        match self {
            CellFunction::Inv | CellFunction::Buf => 1,
            CellFunction::Nand(k)
            | CellFunction::Nor(k)
            | CellFunction::And(k)
            | CellFunction::Or(k) => k as usize,
            CellFunction::Aoi21 | CellFunction::Oai21 | CellFunction::Mux2 => 3,
            CellFunction::Aoi22 | CellFunction::Oai22 => 4,
            CellFunction::Xor2 | CellFunction::Xnor2 => 2,
            CellFunction::Dff
            | CellFunction::Dffr
            | CellFunction::Dffs
            | CellFunction::Dffrs
            | CellFunction::Latch => 1,
            CellFunction::Sdff => 2,
        }
    }

    /// Whether the function is inverting (affects nothing electrically in
    /// this model but is part of the logical description).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            CellFunction::Inv
                | CellFunction::Nand(_)
                | CellFunction::Nor(_)
                | CellFunction::Aoi21
                | CellFunction::Oai21
                | CellFunction::Aoi22
                | CellFunction::Oai22
                | CellFunction::Xnor2
        )
    }

    /// Whether this is a sequential (state-holding) function.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CellFunction::Dff
                | CellFunction::Dffr
                | CellFunction::Dffs
                | CellFunction::Dffrs
                | CellFunction::Latch
                | CellFunction::Sdff
        )
    }

    /// Transistor topology: `(n_stack, p_stack, n_legs, p_legs, stages)`.
    /// Stacks are series depths (divide drive), legs are parallel device
    /// groups (add leakage and diffusion cap), stages is the number of
    /// internal inverting stages in the equivalent chain.
    fn topology(self) -> (u8, u8, u8, u8, u8) {
        match self {
            CellFunction::Inv => (1, 1, 1, 1, 1),
            CellFunction::Buf => (1, 1, 1, 1, 2),
            CellFunction::Nand(k) => (k, 1, 1, k, 1),
            CellFunction::Nor(k) => (1, k, k, 1, 1),
            CellFunction::And(k) => (k, 1, 1, k, 2),
            CellFunction::Or(k) => (1, k, k, 1, 2),
            CellFunction::Aoi21 => (2, 2, 2, 2, 1),
            CellFunction::Oai21 => (2, 2, 2, 2, 1),
            CellFunction::Aoi22 => (2, 2, 2, 2, 1),
            CellFunction::Oai22 => (2, 2, 2, 2, 1),
            CellFunction::Xor2 => (2, 2, 2, 2, 2),
            CellFunction::Xnor2 => (2, 2, 2, 2, 2),
            CellFunction::Mux2 => (2, 2, 2, 2, 2),
            // Sequential cells: master-slave chains; the clk→Q path is the
            // slave plus the output driver.
            CellFunction::Dff | CellFunction::Latch => (2, 2, 2, 2, 2),
            CellFunction::Dffr | CellFunction::Dffs | CellFunction::Sdff => (2, 2, 2, 2, 2),
            CellFunction::Dffrs => (3, 3, 2, 2, 2),
        }
    }

    /// Canonical master name prefix, e.g. `NAND3`.
    fn name_prefix(self) -> String {
        match self {
            CellFunction::Inv => "INV".into(),
            CellFunction::Buf => "BUF".into(),
            CellFunction::Nand(k) => format!("NAND{k}"),
            CellFunction::Nor(k) => format!("NOR{k}"),
            CellFunction::And(k) => format!("AND{k}"),
            CellFunction::Or(k) => format!("OR{k}"),
            CellFunction::Aoi21 => "AOI21".into(),
            CellFunction::Oai21 => "OAI21".into(),
            CellFunction::Aoi22 => "AOI22".into(),
            CellFunction::Oai22 => "OAI22".into(),
            CellFunction::Xor2 => "XOR2".into(),
            CellFunction::Xnor2 => "XNOR2".into(),
            CellFunction::Mux2 => "MUX2".into(),
            CellFunction::Dff => "DFF".into(),
            CellFunction::Dffr => "DFFR".into(),
            CellFunction::Dffs => "DFFS".into(),
            CellFunction::Dffrs => "DFFRS".into(),
            CellFunction::Latch => "LATCH".into(),
            CellFunction::Sdff => "SDFF".into(),
        }
    }
}

/// Runs a stage chain ([`CellMaster::evaluate`]'s loop): delays add up,
/// and each stage sees the previous one's mean output slew.
fn run_chain(
    chain: impl Iterator<Item = (StageDrive, Option<f64>)>,
    load_ff: f64,
    input_slew_ns: f64,
) -> (f64, f64, f64, f64) {
    let mut rise = 0.0;
    let mut fall = 0.0;
    let mut slew = input_slew_ns;
    let mut out = (0.0, 0.0);
    for (drive, inner_load) in chain {
        let d = drive.evaluate(inner_load.unwrap_or(load_ff), slew);
        rise += d.tplh_ns;
        fall += d.tphl_ns;
        slew = 0.5 * (d.slew_rise_ns + d.slew_fall_ns);
        out = (d.slew_rise_ns, d.slew_fall_ns);
    }
    (rise, fall, out.0, out.1)
}

/// Series-stack leakage suppression: each extra series device cuts the
/// off-current by roughly 3× (the classic stack effect).
fn stack_suppression(stack: u8) -> f64 {
    0.35f64.powi(stack as i32 - 1)
}

/// One standard-cell master: a logic function at a drive strength, with
/// its equivalent-inverter stage chain and physical footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMaster {
    name: String,
    function: CellFunction,
    drive: f64,
    /// Per-leg input device widths at drive strength (nm), nominal `L`.
    wn_in_nm: f64,
    wp_in_nm: f64,
    /// Equivalent stage chain at nominal geometry (first stage receives
    /// the input, last stage drives the output).
    stages: Vec<StageParams>,
    n_stack: u8,
    p_stack: u8,
    n_legs: u8,
    p_legs: u8,
    area_um2: f64,
    width_um: f64,
}

impl CellMaster {
    /// Builds a master for `function` at integer drive strength `x`
    /// (X1, X2, …) in the given technology.
    pub fn new(tech: &Technology, function: CellFunction, x: u32) -> Self {
        let (n_stack, p_stack, n_legs, p_legs, n_stages) = function.topology();
        let drive = x as f64;
        // Stacked pull networks are upsized by stack^0.7: partial drive
        // compensation, so stacked gates are a little slower per unit load
        // (as real libraries are).
        let wn_in = tech.wmin_nm * drive * (n_stack as f64).powf(0.7);
        let wp_in = 1.3 * tech.wmin_nm * drive * (p_stack as f64).powf(0.7);
        let wn_eff = wn_in / n_stack as f64;
        let wp_eff = wp_in / p_stack as f64;
        let mut stages = Vec::with_capacity(n_stages as usize);
        for s in 0..n_stages {
            // Multi-stage cells: earlier stages at reduced drive.
            let scale = if s + 1 == n_stages {
                1.0
            } else {
                (1.0f64).max(drive / 2.0) / drive
            };
            stages.push(
                StageParams::new(wn_eff * scale, wp_eff * scale, tech.lnom_nm)
                    .with_calibrated_intrinsic(tech),
            );
        }
        let inputs = function.num_inputs();
        // Footprint: sites scale with inputs and drive; row height and site
        // width scale with the node.
        let site_um = 3.08 * tech.lnom_nm / 1000.0;
        let row_um = 28.0 * tech.lnom_nm / 1000.0;
        let seq_extra = if function.is_sequential() { 6.0 } else { 0.0 };
        let sites = ((1.5 + 0.9 * inputs as f64) * (0.8 + 0.45 * drive) + seq_extra).ceil();
        let width_um = sites * site_um;
        Self {
            name: format!("{}X{x}", function.name_prefix()),
            function,
            drive,
            wn_in_nm: wn_in,
            wp_in_nm: wp_in,
            stages,
            n_stack,
            p_stack,
            n_legs,
            p_legs,
            area_um2: width_um * row_um,
            width_um,
        }
    }

    /// Master name, e.g. `"NAND2X1"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logic function.
    pub fn function(&self) -> CellFunction {
        self.function
    }

    /// Drive strength (1.0 for X1, 2.0 for X2, …).
    pub fn drive(&self) -> f64 {
        self.drive
    }

    /// Whether the master is sequential.
    pub fn is_sequential(&self) -> bool {
        self.function.is_sequential()
    }

    /// Number of data inputs.
    pub fn num_inputs(&self) -> usize {
        self.function.num_inputs()
    }

    /// Placement footprint area in µm².
    pub fn area_um2(&self) -> f64 {
        self.area_um2
    }

    /// Placement width in µm (row height is a library constant).
    pub fn width_um(&self) -> f64 {
        self.width_um
    }

    /// Input pin capacitance in fF (per input pin).
    ///
    /// Pin capacitance is modeled at the *drawn* gate length: a poly-dose
    /// CD shift of ±10 nm changes mainly the channel underneath the
    /// contacted gate stack, while the pin load seen by the driving net is
    /// dominated by drawn-geometry gate/overlap capacitance. This matches
    /// the paper's formulation, in which net loads are extracted once and
    /// held fixed through dose optimization. Width modulation (`dw_nm`)
    /// does change the pin cap — it physically widens the device.
    pub fn input_cap_ff(&self, tech: &Technology, _dl_nm: f64, dw_nm: f64) -> f64 {
        let l = tech.lnom_nm;
        tech.gate_cap_ff(self.wn_in_nm + dw_nm, l) + tech.gate_cap_ff(self.wp_in_nm + dw_nm, l)
    }

    /// Average leakage power in nW at geometry deltas `(dl_nm, dw_nm)`,
    /// including parallel legs and series-stack suppression — the "golden"
    /// (exponential-in-L) model used for signoff.
    pub fn leakage_nw(&self, tech: &Technology, dl_nm: f64, dw_nm: f64) -> f64 {
        let l = tech.lnom_nm + dl_nm;
        let n_leak = self.n_legs as f64
            * stack_suppression(self.n_stack)
            * tech.leakage_nw(l, self.wn_in_nm + dw_nm);
        let p_leak = self.p_legs as f64
            * stack_suppression(self.p_stack)
            * tech.pmos_mobility_ratio
            * tech.leakage_nw(l, self.wp_in_nm + dw_nm);
        let per_stage = 0.5 * (n_leak + p_leak);
        // Internal stages of multi-stage cells leak too, at their drive.
        let stage_scale: f64 = self
            .stages
            .iter()
            .map(|s| s.wn_nm / self.stages.last().expect("cells have ≥ 1 stage").wn_nm)
            .sum();
        per_stage * stage_scale
    }

    /// Evaluates the full stage chain: returns `(delay_rise, delay_fall,
    /// slew_rise, slew_fall)` in ns at geometry deltas and a given output
    /// load / input slew.
    pub fn evaluate(
        &self,
        tech: &Technology,
        dl_nm: f64,
        dw_nm: f64,
        load_ff: f64,
        input_slew_ns: f64,
    ) -> (f64, f64, f64, f64) {
        run_chain(self.chain(tech, dl_nm, dw_nm), load_ff, input_slew_ns)
    }

    /// The stage chain at geometry deltas: each stage's drive at the
    /// shifted length and widths, with the load an inner stage drives
    /// (the next stage's gate cap; `None` for the last stage, which
    /// drives the output load).
    fn chain<'s>(
        &'s self,
        tech: &'s Technology,
        dl_nm: f64,
        dw_nm: f64,
    ) -> impl Iterator<Item = (StageDrive, Option<f64>)> + 's {
        self.stages.iter().enumerate().map(move |(i, st)| {
            let mut s = st.clone();
            s.l_nm = tech.lnom_nm + dl_nm;
            s.wn_nm += dw_nm;
            s.wp_nm += dw_nm;
            let inner_load = self.stages.get(i + 1).map(|nx| {
                tech.gate_cap_ff(nx.wn_nm + dw_nm, s.l_nm)
                    + tech.gate_cap_ff(nx.wp_nm + dw_nm, s.l_nm)
            });
            (s.drive(tech), inner_load)
        })
    }

    /// Flip-flop setup time in ns (sequential cells only; zero otherwise).
    pub fn setup_ns(&self, tech: &Technology) -> f64 {
        if !self.is_sequential() {
            return 0.0;
        }
        // Roughly two FO1 stage delays of the node.
        let probe = StageParams::new(tech.wmin_nm, 1.3 * tech.wmin_nm, tech.lnom_nm);
        let cin = probe.input_cap_ff(tech);
        2.0 * probe.evaluate(tech, cin, 0.01).average_ns()
    }

    /// Flip-flop hold requirement in ns (sequential cells only; zero
    /// otherwise). Short relative to setup, as in typical libraries.
    pub fn hold_ns(&self, tech: &Technology) -> f64 {
        if !self.is_sequential() {
            return 0.0;
        }
        0.4 * self.setup_ns(tech)
    }

    /// Characterizes the master at geometry deltas `(dl_nm, dw_nm)`,
    /// producing the four NLDM tables. The stage drives are computed once
    /// per variant, the chain is evaluated once per grid point, and that
    /// one evaluation fills all four tables — bit for bit what
    /// [`CellMaster::evaluate`] returns at each point.
    pub fn characterize(
        &self,
        tech: &Technology,
        dl_nm: f64,
        dw_nm: f64,
        axes: &TableAxes,
    ) -> CellTables {
        let chain: Vec<_> = self.chain(tech, dl_nm, dw_nm).collect();
        let points = axes.slew_ns.len() * axes.load_ff.len();
        let mut out: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(points));
        for &s in &axes.slew_ns {
            for &c in &axes.load_ff {
                let (dr, df, sr, sf) = run_chain(chain.iter().copied(), c, s);
                out[0].push(dr);
                out[1].push(df);
                out[2].push(sr);
                out[3].push(sf);
            }
        }
        let [delay_rise, delay_fall, slew_rise, slew_fall] =
            out.map(|values| Table2d::from_values(&axes.slew_ns, &axes.load_ff, values));
        CellTables {
            delay_rise,
            delay_fall,
            slew_rise,
            slew_fall,
        }
    }
}

/// The characterized NLDM tables of one cell variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTables {
    /// Low-to-high propagation delay table (ns).
    pub delay_rise: Table2d,
    /// High-to-low propagation delay table (ns).
    pub delay_fall: Table2d,
    /// Rising output transition table (ns).
    pub slew_rise: Table2d,
    /// Falling output transition table (ns).
    pub slew_fall: Table2d,
}

impl CellTables {
    /// Worst-case (max of rise/fall) propagation delay at an operating
    /// point, ns.
    pub fn delay_worst(&self, slew_ns: f64, load_ff: f64) -> f64 {
        self.delay_rise
            .lookup(slew_ns, load_ff)
            .max(self.delay_fall.lookup(slew_ns, load_ff))
    }

    /// Worst-case (max of rise/fall) output transition at an operating
    /// point, ns.
    pub fn out_slew_worst(&self, slew_ns: f64, load_ff: f64) -> f64 {
        self.slew_rise
            .lookup(slew_ns, load_ff)
            .max(self.slew_fall.lookup(slew_ns, load_ff))
    }

    /// Best-case (min of rise/fall) propagation delay at an operating
    /// point, ns — the early/hold analysis corner.
    pub fn delay_best(&self, slew_ns: f64, load_ff: f64) -> f64 {
        self.delay_rise
            .lookup(slew_ns, load_ff)
            .min(self.delay_fall.lookup(slew_ns, load_ff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::TableAxes;

    fn axes() -> TableAxes {
        TableAxes::default()
    }

    #[test]
    fn names_encode_function_and_drive() {
        let t = Technology::n65();
        assert_eq!(
            CellMaster::new(&t, CellFunction::Nand(3), 2).name(),
            "NAND3X2"
        );
        assert_eq!(CellMaster::new(&t, CellFunction::Inv, 8).name(), "INVX8");
    }

    #[test]
    fn higher_drive_is_faster_at_fixed_load() {
        let t = Technology::n65();
        let x1 = CellMaster::new(&t, CellFunction::Inv, 1);
        let x4 = CellMaster::new(&t, CellFunction::Inv, 4);
        let d1 = x1.evaluate(&t, 0.0, 0.0, 8.0, 0.03);
        let d4 = x4.evaluate(&t, 0.0, 0.0, 8.0, 0.03);
        assert!(d4.0 < d1.0 && d4.1 < d1.1);
        // ...but has larger input cap and leakage.
        assert!(x4.input_cap_ff(&t, 0.0, 0.0) > x1.input_cap_ff(&t, 0.0, 0.0));
        assert!(x4.leakage_nw(&t, 0.0, 0.0) > x1.leakage_nw(&t, 0.0, 0.0));
    }

    #[test]
    fn stacked_gates_are_slower_than_inverter() {
        let t = Technology::n65();
        let inv = CellMaster::new(&t, CellFunction::Inv, 1);
        let nand4 = CellMaster::new(&t, CellFunction::Nand(4), 1);
        assert!(
            nand4.evaluate(&t, 0.0, 0.0, 4.0, 0.03).1 > inv.evaluate(&t, 0.0, 0.0, 4.0, 0.03).1
        );
    }

    #[test]
    fn stack_effect_suppresses_leakage() {
        // NAND2's series pull-down leaks less than two parallel inverters
        // of equal device width would.
        assert!(stack_suppression(2) < 0.5);
        assert!(stack_suppression(1) == 1.0);
    }

    #[test]
    fn shorter_gate_length_is_faster_and_leakier() {
        let t = Technology::n65();
        let c = CellMaster::new(&t, CellFunction::Nand(2), 1);
        let nom = c.evaluate(&t, 0.0, 0.0, 4.0, 0.03);
        let short = c.evaluate(&t, -10.0, 0.0, 4.0, 0.03);
        assert!(short.0 < nom.0 && short.1 < nom.1);
        assert!(c.leakage_nw(&t, -10.0, 0.0) > 2.0 * c.leakage_nw(&t, 0.0, 0.0));
    }

    #[test]
    fn wider_devices_are_faster_and_leakier() {
        let t = Technology::n65();
        let c = CellMaster::new(&t, CellFunction::Inv, 1);
        let nom = c.evaluate(&t, 0.0, 0.0, 4.0, 0.03);
        let wide = c.evaluate(&t, 0.0, 10.0, 4.0, 0.03);
        assert!(wide.0 < nom.0);
        assert!(c.leakage_nw(&t, 0.0, 10.0) > c.leakage_nw(&t, 0.0, 0.0));
    }

    #[test]
    fn characterized_tables_match_direct_evaluation() {
        let t = Technology::n65();
        let c = CellMaster::new(&t, CellFunction::Aoi21, 2);
        let tables = c.characterize(&t, -4.0, 2.0, &axes());
        // At grid points the table must be exact.
        let s = axes().slew_ns[2];
        let l = axes().load_ff[3];
        let direct = c.evaluate(&t, -4.0, 2.0, l, s);
        assert!((tables.delay_rise.lookup(s, l) - direct.0).abs() < 1e-12);
        assert!((tables.delay_fall.lookup(s, l) - direct.1).abs() < 1e-12);
        assert!((tables.slew_fall.lookup(s, l) - direct.3).abs() < 1e-12);
        // Bit for bit, at every grid point, for every master of both
        // libraries at several geometries: one evaluation per point
        // fills all four tables.
        for tech in [Technology::n65(), Technology::n90()] {
            let lib = crate::Library::standard(tech);
            let (t, axes) = (lib.tech(), lib.axes());
            for cell in lib.cells() {
                for (dl, dw) in [(0.0, 0.0), (-10.0, 0.0), (4.5, -3.0), (-2.3, 10.0)] {
                    let tables = cell.characterize(t, dl, dw, axes);
                    for (i, &s) in axes.slew_ns.iter().enumerate() {
                        for (j, &c) in axes.load_ff.iter().enumerate() {
                            let (dr, df, sr, sf) = cell.evaluate(t, dl, dw, c, s);
                            for (table, v) in [
                                (&tables.delay_rise, dr),
                                (&tables.delay_fall, df),
                                (&tables.slew_rise, sr),
                                (&tables.slew_fall, sf),
                            ] {
                                assert_eq!(
                                    table.at(i, j).to_bits(),
                                    v.to_bits(),
                                    "{} at ΔL {dl} ΔW {dw}, point ({i}, {j})",
                                    cell.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_cells_have_setup_time() {
        let t = Technology::n65();
        let dff = CellMaster::new(&t, CellFunction::Dff, 1);
        let inv = CellMaster::new(&t, CellFunction::Inv, 1);
        assert!(dff.setup_ns(&t) > 0.0);
        assert_eq!(inv.setup_ns(&t), 0.0);
        assert!(dff.is_sequential() && !inv.is_sequential());
    }

    #[test]
    fn multi_stage_cells_are_slower_than_single_stage() {
        let t = Technology::n65();
        let inv = CellMaster::new(&t, CellFunction::Inv, 2);
        let buf = CellMaster::new(&t, CellFunction::Buf, 2);
        assert!(buf.evaluate(&t, 0.0, 0.0, 4.0, 0.03).0 > inv.evaluate(&t, 0.0, 0.0, 4.0, 0.03).0);
    }

    #[test]
    fn area_scales_with_inputs_and_drive() {
        let t = Technology::n65();
        let inv1 = CellMaster::new(&t, CellFunction::Inv, 1);
        let inv4 = CellMaster::new(&t, CellFunction::Inv, 4);
        let nand4 = CellMaster::new(&t, CellFunction::Nand(4), 1);
        assert!(inv4.area_um2() > inv1.area_um2());
        assert!(nand4.area_um2() > inv1.area_um2());
        // Plausible magnitudes for a 65 nm library.
        assert!(
            inv1.area_um2() > 0.5 && inv1.area_um2() < 5.0,
            "area = {}",
            inv1.area_um2()
        );
    }
}
