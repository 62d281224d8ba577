//! Block-based static timing analysis.
//!
//! The forward (arrival) passes are *levelized*: gates are grouped by
//! topological depth ([`dme_netlist::TopoLevels`]) and each level's gates
//! — which have no timing dependencies on each other — are evaluated in
//! parallel. Per-gate results land in disjoint slots and no cross-gate
//! reductions exist, so the parallel and serial analyses are bitwise
//! identical ([`StaMode`] only changes wall-clock time).

use crate::wire::WireModel;
use dme_liberty::{CellTables, Library, VariantCache};
use dme_netlist::{FlatNetlist, NetId, Netlist, TopoLevels};
use dme_placement::{PadIndex, Placement};

/// Execution strategy for [`analyze_with_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaMode {
    /// Single-threaded level-order evaluation.
    Serial,
    /// Fan each sufficiently large level out to the thread pool — when
    /// the pool can actually deliver parallelism. On a width-1 pool (or
    /// with the serial switch on) every fork-join call degrades to an
    /// inline loop, so this mode dispatches to the serial pass rather
    /// than paying the level-partitioning overhead for nothing.
    #[default]
    Parallel,
}

impl StaMode {
    /// Whether this mode fans work out to the pool on this host.
    pub(crate) fn parallel(self) -> bool {
        match self {
            StaMode::Serial => false,
            StaMode::Parallel => dme_par::effective_parallelism() > 1,
        }
    }
}

/// Minimum gates in a level before its evaluation fans out; below this
/// the fork-join overhead exceeds the NLDM interpolation work.
const LEVEL_PAR_CUTOFF: usize = 64;

/// Minimum net count before the load/wire-delay pass fans out.
const NET_PAR_CUTOFF: usize = 2048;

/// Per-instance gate-length / gate-width deltas (nm) induced by a dose
/// map. This is the hand-off artifact between dose optimization and
/// golden analysis: `ΔL = Ds · d^P`, `ΔW = Ds · d^A`.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryAssignment {
    /// Gate-length delta per instance, nm.
    pub dl_nm: Vec<f64>,
    /// Gate-width delta per instance, nm.
    pub dw_nm: Vec<f64>,
}

impl GeometryAssignment {
    /// All-nominal geometry (the pre-optimization state).
    pub fn nominal(n: usize) -> Self {
        Self {
            dl_nm: vec![0.0; n],
            dw_nm: vec![0.0; n],
        }
    }

    /// Uniform deltas for every instance (the Table II/III dose sweeps).
    pub fn uniform(n: usize, dl_nm: f64, dw_nm: f64) -> Self {
        Self {
            dl_nm: vec![dl_nm; n],
            dw_nm: vec![dw_nm; n],
        }
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.dl_nm.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.dl_nm.is_empty()
    }
}

/// Output of [`analyze`]: everything downstream consumers need.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Arrival time at each instance output, ns (startpoint-relative).
    pub arrival_ns: Vec<f64>,
    /// Required time at each instance output for the analyzed clock, ns.
    pub required_ns: Vec<f64>,
    /// Slack at each instance output, ns.
    pub slack_ns: Vec<f64>,
    /// Gate propagation delay used for each instance, ns.
    pub gate_delay_ns: Vec<f64>,
    /// Worst input slew seen by each instance, ns.
    pub input_slew_ns: Vec<f64>,
    /// Output slew of each instance, ns.
    pub output_slew_ns: Vec<f64>,
    /// Capacitive load at each instance output, fF.
    pub load_ff: Vec<f64>,
    /// Wire delay of each net (driver output to any sink), ns.
    pub wire_delay_ns: Vec<f64>,
    /// Earliest (best-case) arrival time at each instance output, ns —
    /// the hold-analysis corner.
    pub arrival_min_ns: Vec<f64>,
    /// Best-case (min of rise/fall) gate delay used in the early pass, ns.
    pub gate_delay_best_ns: Vec<f64>,
    /// Worst hold slack over all flip-flop data pins, ns (positive =
    /// no race; `+inf` if the design has no flip-flops).
    pub worst_hold_slack_ns: f64,
    /// Minimum cycle time: worst endpoint path delay (FF setup included),
    /// ns.
    pub mct_ns: f64,
    /// Total leakage power, µW (golden exponential model).
    pub total_leakage_uw: f64,
}

/// Default slew assumed at primary-input pads, ns.
pub(crate) const PI_SLEW_NS: f64 = 0.03;

/// Per-net `(total load fF, wire delay ns)` at the given placement and
/// geometry, with the sinks read from `flat` (`nl`'s view). Shared by the
/// full and incremental analyses so both compute bitwise-identical
/// values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn net_props(
    lib: &Library,
    nl: &Netlist,
    flat: &FlatNetlist,
    placement: &Placement,
    doses: &GeometryAssignment,
    pads: &PadIndex,
    wire: &WireModel,
    net_idx: usize,
) -> (f64, f64) {
    let tech = lib.tech();
    let mut pin_cap = 0.0;
    for &sink in flat.sinks(net_idx) {
        let s = sink as usize;
        pin_cap +=
            lib.cell(nl.instances[s].cell_idx)
                .input_cap_ff(tech, doses.dl_nm[s], doses.dw_nm[s]);
    }
    let hpwl = placement.net_hpwl_indexed(lib, nl, flat, pads, NetId(net_idx as u32));
    (
        pin_cap + wire.wire_cap_ff(hpwl),
        wire.wire_delay_ns(hpwl, pin_cap),
    )
}

/// Resolves every instance's cell variant once, in instance order, for
/// one timing pass: entry `i` is the [`VariantCache`] id of instance
/// `i`'s master at its quantized `(ΔL, ΔW)`. The level loops then read
/// the tables by id, with no lock and no hashing per gate.
///
/// # Panics
///
/// Panics if an instance's ΔL or ΔW is not finite.
pub(crate) fn resolve_variants(
    cache: &mut VariantCache<'_>,
    nl: &Netlist,
    doses: &GeometryAssignment,
) -> Vec<u32> {
    nl.instances
        .iter()
        .enumerate()
        .map(|(i, inst)| cache.resolve(inst.cell_idx, doses.dl_nm[i], doses.dw_nm[i]))
        .collect()
}

/// Late-pass evaluation of gate `i` with its resolved variant `tables`:
/// `(load, gate delay, arrival, input slew, output slew)`. Reads only
/// strictly-lower-level fanin state, so gates of one topological level
/// may be evaluated concurrently. Shared by the full and incremental
/// analyses.
pub(crate) fn late_gate(
    flat: &FlatNetlist,
    tables: &CellTables,
    net_load_ff: &[f64],
    net_wire_delay: &[f64],
    arrival: &[f64],
    out_slew: &[f64],
    i: usize,
) -> (f64, f64, f64, f64, f64) {
    let out_load = net_load_ff[flat.output(i) as usize];
    if flat.is_sequential(i) {
        // Launch point: arrival at Q is the clk→Q delay.
        let d = tables.delay_worst(PI_SLEW_NS, out_load);
        let slew_out = tables.out_slew_worst(PI_SLEW_NS, out_load);
        return (out_load, d, d, PI_SLEW_NS, slew_out);
    }
    // Worst input arrival and slew over fanin pins.
    let mut arr = 0.0f64;
    let mut slew = PI_SLEW_NS;
    for &(drv, net) in flat.fanin(i) {
        let ni = net as usize;
        if drv != FlatNetlist::NO_DRIVER {
            let d = drv as usize;
            arr = arr.max(arrival[d] + net_wire_delay[ni]);
            // Wire degrades the transition; two wire time-constants.
            slew = slew.max(out_slew[d] + 2.0 * net_wire_delay[ni]);
        } else {
            // Primary input: arrival 0 at pad plus wire to this pin.
            arr = arr.max(net_wire_delay[ni]);
        }
    }
    let d = tables.delay_worst(slew, out_load);
    (
        out_load,
        d,
        arr + d,
        slew,
        tables.out_slew_worst(slew, out_load),
    )
}

/// Late-pass (setup) timing state of a whole design.
pub(crate) struct LatePass {
    /// Capacitive load per net (wire plus sink pins), fF.
    pub net_load_ff: Vec<f64>,
    /// Wire delay per net, ns.
    pub net_wire_delay: Vec<f64>,
    /// Output load per instance, fF.
    pub load: Vec<f64>,
    /// Worst gate delay per instance, ns.
    pub gate_delay: Vec<f64>,
    /// Late arrival per instance output, ns.
    pub arrival: Vec<f64>,
    /// Worst input slew per instance, ns.
    pub in_slew: Vec<f64>,
    /// Output slew per instance, ns.
    pub out_slew: Vec<f64>,
}

/// The full late pass, the one function [`analyze_with_mode`] and
/// [`crate::IncrementalSta::new`] both time a design with: every net's
/// load and wire delay, then every gate one topological level at a time
/// with `variant` (from [`resolve_variants`]) naming its tables. With
/// `par`, large net ranges and levels fan out to the pool; each gate
/// reads only strictly lower levels and its results land in its own
/// slots, so the state is bitwise identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn late_pass(
    lib: &Library,
    nl: &Netlist,
    flat: &FlatNetlist,
    placement: &Placement,
    doses: &GeometryAssignment,
    pads: &PadIndex,
    wire: &WireModel,
    cache: &VariantCache<'_>,
    variant: &[u32],
    levels: &TopoLevels,
    par: bool,
) -> LatePass {
    // --- output load per net: wire cap + sink pin caps at sink geometry ---
    let num_nets = nl.num_nets();
    let props_of = |net_idx: usize| net_props(lib, nl, flat, placement, doses, pads, wire, net_idx);
    let mut net_load_ff = Vec::with_capacity(num_nets);
    let mut net_wire_delay = Vec::with_capacity(num_nets);
    if par && num_nets >= NET_PAR_CUTOFF {
        let mut props = vec![(0.0f64, 0.0f64); num_nets];
        dme_par::par_fill(&mut props, 64, props_of);
        for (load, delay) in props {
            net_load_ff.push(load);
            net_wire_delay.push(delay);
        }
    } else {
        for net_idx in 0..num_nets {
            let (load, delay) = props_of(net_idx);
            net_load_ff.push(load);
            net_wire_delay.push(delay);
        }
    }

    // --- forward propagation, one topological level at a time ---
    let n = nl.num_instances();
    let mut load = vec![0.0f64; n];
    let mut gate_delay = vec![0.0f64; n];
    let mut arrival = vec![0.0f64; n];
    let mut in_slew = vec![PI_SLEW_NS; n];
    let mut out_slew = vec![PI_SLEW_NS; n];
    let eval = |i: usize, arrival: &[f64], out_slew: &[f64]| {
        late_gate(
            flat,
            cache.get(variant[i]),
            &net_load_ff,
            &net_wire_delay,
            arrival,
            out_slew,
            i,
        )
    };
    let mut results: Vec<(f64, f64, f64, f64, f64)> = Vec::new();
    for level in &levels.levels {
        if par && level.len() >= LEVEL_PAR_CUTOFF {
            results.clear();
            results.resize(level.len(), (0.0, 0.0, 0.0, 0.0, 0.0));
            dme_par::par_fill(&mut results, 16, |k| {
                eval(level[k].0 as usize, &arrival, &out_slew)
            });
            for (k, &(ld, d, arr, si, so)) in results.iter().enumerate() {
                let i = level[k].0 as usize;
                load[i] = ld;
                gate_delay[i] = d;
                arrival[i] = arr;
                in_slew[i] = si;
                out_slew[i] = so;
            }
        } else {
            for &id in level {
                let i = id.0 as usize;
                let (ld, d, arr, si, so) = eval(i, &arrival, &out_slew);
                load[i] = ld;
                gate_delay[i] = d;
                arrival[i] = arr;
                in_slew[i] = si;
                out_slew[i] = so;
            }
        }
    }
    LatePass {
        net_load_ff,
        net_wire_delay,
        load,
        gate_delay,
        arrival,
        in_slew,
        out_slew,
    }
}

/// `(setup, hold)` time of every library master, indexed like
/// [`Library::cells`] (zeros for combinational masters): resolved once
/// per pass, so the endpoint loops read a table instead of evaluating
/// the probe stage per flip-flop.
pub(crate) fn setup_hold_by_master(lib: &Library) -> Vec<(f64, f64)> {
    let tech = lib.tech();
    lib.cells()
        .iter()
        .map(|c| (c.setup_ns(tech), c.hold_ns(tech)))
        .collect()
}

/// The timing endpoints that have a driver, in the order every endpoint
/// walk uses: flip-flop data pins in instance order, then primary outputs
/// in list order. Each comes as `(driver, Some((data net, flip-flop)))`
/// or, for a primary output, `(driver, None)`.
pub(crate) fn endpoints<'v>(
    nl: &'v Netlist,
    flat: &'v FlatNetlist,
) -> impl Iterator<Item = (u32, Option<(u32, u32)>)> + 'v {
    let ffs = (0..flat.num_instances())
        .filter(|&i| flat.is_sequential(i))
        .map(|i| {
            let (drv, data) = flat.fanin(i)[0];
            (drv, Some((data, i as u32)))
        });
    let pos = nl
        .primary_outputs
        .iter()
        .map(|po| (flat.driver(po.0 as usize), None));
    ffs.chain(pos)
        .filter(|&(drv, _)| drv != FlatNetlist::NO_DRIVER)
}

/// Minimum cycle time implied by `arrival`: the worst endpoint path delay
/// with FF setup (from [`setup_hold_by_master`]'s `times`) included.
/// Shared by the full and incremental analyses.
pub(crate) fn mct_from_arrivals(
    nl: &Netlist,
    flat: &FlatNetlist,
    times: &[(f64, f64)],
    arrival: &[f64],
    net_wire_delay: &[f64],
) -> f64 {
    let mut mct = 0.0f64;
    for (drv, ff) in endpoints(nl, flat) {
        let a = arrival[drv as usize];
        mct = mct.max(match ff {
            Some((data, i)) => {
                a + net_wire_delay[data as usize] + times[nl.instances[i as usize].cell_idx].0
            }
            None => a,
        });
    }
    mct
}

/// Total golden leakage power, µW, of a netlist under a geometry
/// assignment: the exponential leakage model summed over instances in
/// index order. [`analyze`] reports exactly this value (same bits) as
/// [`TimingReport::total_leakage_uw`]; leakage needs no timing, so
/// callers that already hold the MCT can skip the full analysis.
///
/// # Panics
///
/// Panics if the assignment is shorter than the instance count.
pub fn total_leakage_uw(lib: &Library, nl: &Netlist, doses: &GeometryAssignment) -> f64 {
    let tech = lib.tech();
    nl.instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            lib.cell(inst.cell_idx)
                .leakage_nw(tech, doses.dl_nm[i], doses.dw_nm[i])
        })
        .sum::<f64>()
        / 1000.0
}

/// Runs golden STA + leakage analysis on a placed netlist under a
/// geometry assignment.
///
/// The clock for required-time/slack computation is the design's own MCT,
/// so the worst slack is exactly zero — the convention the paper's slack
/// profiles (Fig. 10) use.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle, the assignment
/// length does not match the instance count, or an instance's ΔL or ΔW
/// is not finite.
pub fn analyze(
    lib: &Library,
    nl: &Netlist,
    placement: &Placement,
    doses: &GeometryAssignment,
) -> TimingReport {
    analyze_with_mode(lib, nl, placement, doses, StaMode::Parallel)
}

/// [`analyze`] with an explicit serial/parallel execution strategy. The
/// returned report is bitwise identical across modes.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle, the assignment
/// length does not match the instance count, or an instance's ΔL or ΔW
/// is not finite.
pub fn analyze_with_mode(
    lib: &Library,
    nl: &Netlist,
    placement: &Placement,
    doses: &GeometryAssignment,
    mode: StaMode,
) -> TimingReport {
    assert_eq!(
        doses.len(),
        nl.num_instances(),
        "assignment/netlist size mismatch"
    );
    let _span = dme_obs::span("sta_analyze");
    let tech = lib.tech();
    let n = nl.num_instances();
    let par = mode.parallel();
    dme_obs::counter_add("sta/analyze_calls", 1);
    dme_obs::counter_add("sta/gates_evaluated", n as u64);
    dme_obs::counter_add(
        if par {
            "sta/analyze_parallel"
        } else {
            "sta/analyze_serial"
        },
        1,
    );
    let levels = nl.topo_levels().expect("combinational cycle");
    let flat = nl.flat();
    dme_obs::counter_add("sta/levels_evaluated", levels.levels.len() as u64);
    let mut cache = VariantCache::new(lib);
    let variant = resolve_variants(&mut cache, nl, doses);
    let LatePass {
        net_load_ff,
        net_wire_delay,
        load,
        gate_delay,
        arrival,
        in_slew,
        out_slew,
    } = late_pass(
        lib,
        nl,
        flat,
        placement,
        doses,
        &PadIndex::build(nl),
        &WireModel::for_tech(tech),
        &cache,
        &variant,
        levels,
        par,
    );

    // --- early (hold) propagation: best-case arrivals ---
    // Launch at clk→Q best delay; every gate contributes its min-of-rise/
    // fall delay; the earliest fanin pin wins. The hold check at an FF D
    // pin races this early arrival against the FF's hold requirement.
    let mut arrival_min = vec![0.0f64; n];
    let mut gate_delay_best = vec![0.0f64; n];
    {
        let early_gate = |i: usize, arrival_min: &[f64]| -> (f64, f64) {
            let out_load = net_load_ff[flat.output(i) as usize];
            let tables = cache.get(variant[i]);
            if flat.is_sequential(i) {
                let d = tables.delay_best(PI_SLEW_NS, out_load);
                return (d, d);
            }
            let mut arr = f64::INFINITY;
            for &(drv, net) in flat.fanin(i) {
                let ni = net as usize;
                if drv != FlatNetlist::NO_DRIVER {
                    arr = arr.min(arrival_min[drv as usize] + net_wire_delay[ni]);
                } else {
                    arr = arr.min(net_wire_delay[ni]);
                }
            }
            if !arr.is_finite() {
                arr = 0.0;
            }
            let best = tables.delay_best(in_slew[i], out_load);
            (best, arr + best)
        };
        let mut results: Vec<(f64, f64)> = Vec::new();
        for level in &levels.levels {
            if par && level.len() >= LEVEL_PAR_CUTOFF {
                results.clear();
                results.resize(level.len(), (0.0, 0.0));
                dme_par::par_fill(&mut results, 16, |k| {
                    early_gate(level[k].0 as usize, &arrival_min)
                });
                for (k, &(best, arr)) in results.iter().enumerate() {
                    let i = level[k].0 as usize;
                    gate_delay_best[i] = best;
                    arrival_min[i] = arr;
                }
            } else {
                for &id in level {
                    let i = id.0 as usize;
                    let (best, arr) = early_gate(i, &arrival_min);
                    gate_delay_best[i] = best;
                    arrival_min[i] = arr;
                }
            }
        }
    }
    let times = setup_hold_by_master(lib);
    let mut worst_hold = f64::INFINITY;
    for (drv, ff) in endpoints(nl, flat) {
        if let Some((data, i)) = ff {
            let hold = times[nl.instances[i as usize].cell_idx].1;
            let early = arrival_min[drv as usize] + net_wire_delay[data as usize];
            worst_hold = worst_hold.min(early - hold);
        }
    }

    // --- endpoints and MCT ---
    // FF D pins capture with setup; primary outputs capture directly.
    let mct = mct_from_arrivals(nl, flat, &times, &arrival, &net_wire_delay);

    // --- backward required-time pass at clock = MCT ---
    let mut required = vec![f64::INFINITY; n];
    for (drv, ff) in endpoints(nl, flat) {
        let r = match ff {
            Some((data, i)) => {
                mct - times[nl.instances[i as usize].cell_idx].0 - net_wire_delay[data as usize]
            }
            None => mct,
        };
        let d = drv as usize;
        required[d] = required[d].min(r);
    }
    for &id in levels.levels.iter().rev().flat_map(|l| l.iter().rev()) {
        let i = id.0 as usize;
        if flat.is_sequential(i) {
            continue;
        }
        // Propagate requirement to combinational fanins.
        for &(drv, net) in flat.fanin(i) {
            if drv == FlatNetlist::NO_DRIVER || flat.is_sequential(drv as usize) {
                continue;
            }
            let r = required[i] - gate_delay[i] - net_wire_delay[net as usize];
            let d = drv as usize;
            required[d] = required[d].min(r);
        }
    }
    // Instances with no timed fanout keep required = +inf; clamp to MCT so
    // their slack is finite and large.
    let mut slack = vec![0.0f64; n];
    for i in 0..n {
        if !required[i].is_finite() {
            required[i] = mct;
        }
        slack[i] = required[i] - arrival[i];
    }

    let total_leakage_uw = total_leakage_uw(lib, nl, doses);

    TimingReport {
        arrival_ns: arrival,
        required_ns: required,
        slack_ns: slack,
        gate_delay_ns: gate_delay,
        input_slew_ns: in_slew,
        output_slew_ns: out_slew,
        load_ff: load,
        wire_delay_ns: net_wire_delay,
        arrival_min_ns: arrival_min,
        gate_delay_best_ns: gate_delay_best,
        worst_hold_slack_ns: worst_hold,
        mct_ns: mct,
        total_leakage_uw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles};

    fn setup() -> (Library, dme_netlist::Design, Placement) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        (lib, d, p)
    }

    #[test]
    fn nominal_analysis_is_consistent() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        assert!(r.mct_ns > 0.0);
        assert!(r.total_leakage_uw > 0.0);
        // Worst slack is exactly zero at clock = MCT.
        let worst = r.slack_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(worst.abs() < 1e-9, "worst slack = {worst}");
        // No negative arrivals, no NaNs.
        for i in 0..d.netlist.num_instances() {
            assert!(r.arrival_ns[i] >= 0.0);
            assert!(r.slack_ns[i].is_finite());
        }
    }

    #[test]
    fn parallel_mode_dispatches_serially_on_one_thread() {
        // A width-1 pool (or forced-serial context) makes the parallel
        // level pass pure overhead: `run_tasks` inlines every task anyway.
        // `StaMode::Parallel` must therefore select the serial pass — and
        // still produce the identical (bitwise) report.
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        dme_par::set_force_serial(true);
        assert!(
            !StaMode::Parallel.parallel(),
            "Parallel mode must degrade to serial dispatch at 1 effective thread"
        );
        let rp = analyze_with_mode(&lib, &d.netlist, &p, &doses, StaMode::Parallel);
        let rs = analyze_with_mode(&lib, &d.netlist, &p, &doses, StaMode::Serial);
        dme_par::set_force_serial(false);
        assert_eq!(rs.mct_ns.to_bits(), rp.mct_ns.to_bits());
        for i in 0..d.netlist.num_instances() {
            assert_eq!(rs.arrival_ns[i].to_bits(), rp.arrival_ns[i].to_bits());
            assert_eq!(rs.slack_ns[i].to_bits(), rp.slack_ns[i].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite geometry delta")]
    fn nan_geometry_is_rejected_not_timed_as_nominal() {
        // (NaN * 10).round() as i64 is 0: without the check the gate
        // would be timed silently with its nominal variant.
        let (lib, d, p) = setup();
        let mut doses = GeometryAssignment::nominal(d.netlist.num_instances());
        doses.dl_nm[2] = f64::NAN;
        analyze(&lib, &d.netlist, &p, &doses);
    }

    #[test]
    fn total_leakage_matches_the_report_bitwise() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        for doses in [
            GeometryAssignment::nominal(n),
            GeometryAssignment::uniform(n, -6.0, 4.0),
        ] {
            let r = analyze(&lib, &d.netlist, &p, &doses);
            assert_eq!(
                total_leakage_uw(&lib, &d.netlist, &doses).to_bits(),
                r.total_leakage_uw.to_bits()
            );
        }
    }

    #[test]
    fn arrivals_respect_edges() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        for id in d.netlist.inst_ids() {
            let inst = d.netlist.instance(id);
            if inst.is_sequential {
                continue;
            }
            for &net in &inst.inputs {
                if let Some(drv) = d.netlist.net(net).driver {
                    let lhs = r.arrival_ns[drv.0 as usize]
                        + r.wire_delay_ns[net.0 as usize]
                        + r.gate_delay_ns[id.0 as usize];
                    assert!(
                        lhs <= r.arrival_ns[id.0 as usize] + 1e-9,
                        "edge {drv}->{id} violates arrival"
                    );
                }
            }
        }
    }

    #[test]
    fn shorter_gates_speed_up_and_leak_more() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let nom = analyze(&lib, &d.netlist, &p, &GeometryAssignment::nominal(n));
        let fast = analyze(
            &lib,
            &d.netlist,
            &p,
            &GeometryAssignment::uniform(n, -10.0, 0.0),
        );
        assert!(fast.mct_ns < nom.mct_ns);
        assert!(fast.total_leakage_uw > 2.0 * nom.total_leakage_uw);
        let slow = analyze(
            &lib,
            &d.netlist,
            &p,
            &GeometryAssignment::uniform(n, 10.0, 0.0),
        );
        assert!(slow.mct_ns > nom.mct_ns);
        assert!(slow.total_leakage_uw < nom.total_leakage_uw);
    }

    #[test]
    fn wider_gates_speed_up_slightly() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let nom = analyze(&lib, &d.netlist, &p, &GeometryAssignment::nominal(n));
        let wide = analyze(
            &lib,
            &d.netlist,
            &p,
            &GeometryAssignment::uniform(n, 0.0, 10.0),
        );
        assert!(wide.mct_ns < nom.mct_ns);
        // Width effect is small relative to length effect (max ΔW = 10 nm
        // vs ≥ 200 nm widths — the paper's observation).
        let l_gain = nom.mct_ns
            - analyze(
                &lib,
                &d.netlist,
                &p,
                &GeometryAssignment::uniform(n, -10.0, 0.0),
            )
            .mct_ns;
        let w_gain = nom.mct_ns - wide.mct_ns;
        assert!(
            w_gain < 0.5 * l_gain,
            "w_gain = {w_gain}, l_gain = {l_gain}"
        );
    }

    #[test]
    fn hold_analysis_is_consistent() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        // Early arrivals never exceed late arrivals.
        for i in 0..d.netlist.num_instances() {
            assert!(
                r.arrival_min_ns[i] <= r.arrival_ns[i] + 1e-12,
                "early > late at instance {i}"
            );
            assert!(r.arrival_min_ns[i] >= 0.0);
        }
        assert!(r.worst_hold_slack_ns.is_finite());
        // Raising dose everywhere (faster gates) tightens hold slack.
        let fast = analyze(
            &lib,
            &d.netlist,
            &p,
            &GeometryAssignment::uniform(d.netlist.num_instances(), -10.0, 0.0),
        );
        assert!(fast.worst_hold_slack_ns <= r.worst_hold_slack_ns + 1e-12);
        // Lowering dose everywhere (slower gates) relaxes it.
        let slow = analyze(
            &lib,
            &d.netlist,
            &p,
            &GeometryAssignment::uniform(d.netlist.num_instances(), 10.0, 0.0),
        );
        assert!(slow.worst_hold_slack_ns >= r.worst_hold_slack_ns - 1e-12);
    }

    #[test]
    fn uniform_sweep_is_monotone() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let mut last_mct = f64::NEG_INFINITY;
        let mut last_leak = f64::INFINITY;
        for step in -5..=5 {
            let dl = -2.0 * step as f64; // dose +5% → ΔL = −10 nm
            let r = analyze(
                &lib,
                &d.netlist,
                &p,
                &GeometryAssignment::uniform(n, dl, 0.0),
            );
            if step > -5 {
                assert!(
                    r.mct_ns <= last_mct + 1e-9,
                    "MCT not decreasing at dose {step}"
                );
                assert!(
                    r.total_leakage_uw >= last_leak - 1e-9,
                    "leakage not increasing at dose {step}"
                );
            }
            last_mct = r.mct_ns;
            last_leak = r.total_leakage_uw;
        }
    }
}
