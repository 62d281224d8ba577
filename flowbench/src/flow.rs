//! The workloads, the timed flow, and the checks every flow's outputs
//! must pass.

use dme_device::Technology;
use dme_dosemap::{DoseGrid, DoseMap, DoseSensitivity};
use dme_liberty::Library;
use dme_netlist::{gen, profiles, Design, DesignProfile};
use dmeopt::{
    dosepl, optimize, DmoptConfig, DmoptError, DmoptResult, DoseplConfig, DoseplResult,
    GoldenSummary, Objective, OptContext,
};
use std::time::Instant;

/// Dose-grid granularity G, µm: the paper's 5×5 µm² grids.
const GRID_UM: f64 = 5.0;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["qcp", "dosepl_100k"];

/// What a workload runs after placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DMopt's QCP (`MinTiming`, ξ = 0), then dosePl on its dose map.
    Qcp,
    /// dosePl alone on a seeded smooth input dose map; `dme-qp` is
    /// bypassed.
    DoseplOnly,
}

/// One workload: the designs of its suite and the flow run on each.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub profiles: Vec<DesignProfile>,
}

impl Spec {
    /// The named workload for `seed`, or `None` for an unknown name.
    ///
    /// The designs are the fully random `profiles::scaling` family. The
    /// stamped-slice AES-65 profile the paper uses varies too much from
    /// seed to seed: at `.scaled(0.15)` its DMopt time spans 5.5–9.7 s and
    /// two seeds in eight leave the direct backend. On the scaling family
    /// one flow's time still varies by about ±20% from design to design,
    /// so a run averages a suite of designs.
    pub fn named(name: &str, seed: u64) -> Option<Spec> {
        // The suite, as groups of (cells, designs).
        let (kind, groups): (Kind, &[(usize, u64)]) = match name {
            // Both Newton backends. At 1 000 cells `Auto` accepts the
            // direct LDLᵀ on every design, and numeric refactorization
            // leads; past the ~4 000-cell point it rejects the factor after
            // the symbolic phase, and CG Newton solves finish the job.
            "qcp" => (Kind::Qcp, &[(1_000, 8), (5_000, 2)]),
            "dosepl_100k" => (Kind::DoseplOnly, &[(100_000, 2)]),
            _ => return None,
        };
        let suite: u64 = groups.iter().map(|g| g.1).sum();
        let mut profiles = Vec::new();
        for &(cells, count) in groups {
            for _ in 0..count {
                let design_seed = seed.wrapping_mul(suite).wrapping_add(profiles.len() as u64);
                profiles.push(profiles::scaling(cells, design_seed));
            }
        }
        Some(Spec { kind, profiles })
    }
}

/// The DMopt configuration of the QCP workloads.
pub fn qcp_config() -> DmoptConfig {
    DmoptConfig {
        objective: Objective::MinTiming { xi_uw: 0.0 },
        grid_g_um: GRID_UM,
        ..DmoptConfig::default()
    }
}

/// One design of the suite, with the input dose map of a
/// [`Kind::DoseplOnly`] workload.
pub struct Case {
    pub design: Design,
    pub map: Option<DoseMap>,
}

/// Everything a run's flows start from.
pub struct Inputs {
    pub lib: Library,
    pub cases: Vec<Case>,
}

/// Wall time of each set-up step, summed over the suite, s.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub library_s: f64,
    pub generate_s: f64,
    pub map_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.library_s + self.generate_s + self.map_s
    }
}

/// Builds the library, the designs and (for dosePl-only workloads) the
/// input dose maps, timing each step.
pub fn setup(spec: &Spec) -> (Inputs, SetupTimes) {
    let t = Instant::now();
    let lib = Library::standard(Technology::n65());
    let mut times = SetupTimes {
        library_s: t.elapsed().as_secs_f64(),
        generate_s: 0.0,
        map_s: 0.0,
    };
    let cases = spec
        .profiles
        .iter()
        .map(|profile| {
            let t = Instant::now();
            let design = gen::generate(profile, &lib);
            times.generate_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let map = (spec.kind == Kind::DoseplOnly).then(|| smooth_map(profile));
            times.map_s += t.elapsed().as_secs_f64();
            Case { design, map }
        })
        .collect();
    (Inputs { lib, cases }, times)
}

/// SplitMix64 step: the seeded stream behind the input dose map.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded smooth dose map over the profile's square die:
/// `4·sin(2πc/Pc + φc)·cos(2πr/Pr + φr)` with periods of 32–64 grid
/// cells. Every dose lies in ±4%, and any neighbor step (diagonals
/// included) is at most `4·2π·(1/32 + 1/32) ≈ 1.57%`, so the map passes
/// `DoseMap::check(-5, 5, 2)` for every seed.
pub fn smooth_map(profile: &DesignProfile) -> DoseMap {
    // The placer's die is `side` wide and at most `side` tall.
    let side = (profile.die_area_mm2 * 1e6).sqrt();
    let grid = DoseGrid::with_granularity(side, side, GRID_UM);
    let mut state = profile.seed;
    let tau = std::f64::consts::TAU;
    let period_c = 32.0 + 32.0 * unit(&mut state);
    let period_r = 32.0 + 32.0 * unit(&mut state);
    let phase_c = tau * unit(&mut state);
    let phase_r = tau * unit(&mut state);
    let values = (0..grid.num_cells())
        .map(|idx| {
            let (c, r) = grid.coords(idx);
            4.0 * (tau * c as f64 / period_c + phase_c).sin()
                * (tau * r as f64 / period_r + phase_r).cos()
        })
        .collect();
    DoseMap::from_values(grid, values)
}

/// Wall time of each public call inside one flow, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub place_s: f64,
    pub context_s: f64,
    pub optimize_s: f64,
    pub dosepl_s: f64,
}

/// The outputs of one flow, with its timings.
pub struct Flow {
    /// Placement through final golden signoff, s.
    pub flow_s: f64,
    pub stages: StageTimes,
    /// Golden summary at nominal dose.
    pub nominal: GoldenSummary,
    /// The DMopt result of a [`Kind::Qcp`] workload.
    pub dmopt: Option<DmoptResult>,
    pub dosepl: DoseplResult,
}

impl Flow {
    /// Golden summary of the design as it enters the flow: at nominal
    /// dose for QCP workloads, under the input dose map for dosePl-only
    /// ones (whose map, not the flow, sets the distance from nominal).
    pub fn start(&self) -> GoldenSummary {
        match self.dmopt {
            Some(_) => self.nominal,
            None => self.dosepl.golden_before,
        }
    }

    pub fn mct_ratio(&self) -> f64 {
        self.dosepl.golden_after.mct_ns / self.start().mct_ns
    }

    pub fn leakage_ratio(&self) -> f64 {
        self.dosepl.golden_after.leakage_uw / self.start().leakage_uw
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs one flow: placement, context (library fit and nominal STA),
/// DMopt for QCP workloads, then dosePl, which ends in golden signoff.
/// `optimize` and `dosepl` open their own spans; the harness adds spans
/// only around the calls that have none.
pub fn run_flow(kind: Kind, lib: &Library, case: &Case) -> Result<Flow, DmoptError> {
    let _flow = dme_obs::span("flow");
    let start = Instant::now();
    let mut stages = StageTimes::default();
    let (placement, place_s) = timed(|| {
        let _s = dme_obs::span("place");
        dme_placement::place(&case.design, lib)
    });
    stages.place_s = place_s;
    let (ctx, context_s) = timed(|| {
        let _s = dme_obs::span("context");
        OptContext::new(lib, &case.design, &placement)
    });
    stages.context_s = context_s;
    let cfg = DoseplConfig::default();
    let (dmopt, dosepl_result) = match kind {
        Kind::Qcp => {
            let dcfg = qcp_config();
            let (dm, optimize_s) = timed(|| optimize(&ctx, &dcfg));
            stages.optimize_s = optimize_s;
            let dm = dm?;
            let (dp, dosepl_s) = timed(|| {
                dosepl(
                    &ctx,
                    &dm.poly_map,
                    dm.active_map.as_ref(),
                    dcfg.sensitivity.0,
                    &cfg,
                )
            });
            stages.dosepl_s = dosepl_s;
            (Some(dm), dp)
        }
        Kind::DoseplOnly => {
            let map = case.map.as_ref().expect("dosePl-only cases carry a map");
            let (dp, dosepl_s) =
                timed(|| dosepl(&ctx, map, None, DoseSensitivity::default().0, &cfg));
            stages.dosepl_s = dosepl_s;
            (None, dp)
        }
    };
    Ok(Flow {
        flow_s: start.elapsed().as_secs_f64(),
        stages,
        nominal: ctx.nominal_summary(),
        dmopt,
        dosepl: dosepl_result,
    })
}

/// Checks one flow's outputs with the tolerances the repository's own
/// tests use. Returns the failures found and the wall time of the
/// independent golden re-analysis (`dme-sta.verify_s`).
pub fn check(lib: &Library, case: &Case, flow: &Flow) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let final_ = flow.dosepl.golden_after;
    let nominal = flow.nominal;
    match &flow.dmopt {
        Some(dm) => {
            let cfg = qcp_config();
            if final_.mct_ns >= nominal.mct_ns {
                failures.push(format!(
                    "final MCT {} ns is not below nominal {} ns",
                    final_.mct_ns, nominal.mct_ns
                ));
            }
            if final_.mct_ns > dm.golden_after.mct_ns + 1e-12 {
                failures.push(format!(
                    "dosePl MCT {} ns is worse than DMopt's {} ns",
                    final_.mct_ns, dm.golden_after.mct_ns
                ));
            }
            // The `flow` test bound: snapping may raise leakage a little.
            if final_.leakage_uw > nominal.leakage_uw * 1.05 {
                failures.push(format!(
                    "final leakage {} µW exceeds 1.05 × nominal {} µW",
                    final_.leakage_uw, nominal.leakage_uw
                ));
            }
            // Snapping can add one library step to any neighbor difference.
            if let Err(e) = dm.poly_map.check(
                cfg.dose_lo_pct,
                cfg.dose_hi_pct,
                cfg.smoothness_pct + cfg.snap_step_pct,
            ) {
                failures.push(format!("DMopt dose map: {e}"));
            }
        }
        None => {
            // A dosePl round is kept only if it lowers the golden MCT.
            if final_.mct_ns > flow.dosepl.golden_before.mct_ns + 1e-12 {
                failures.push(format!(
                    "dosePl MCT {} ns is worse than its entry MCT {} ns",
                    final_.mct_ns, flow.dosepl.golden_before.mct_ns
                ));
            }
            if let Some(map) = &case.map {
                if let Err(e) = map.check(-5.0, 5.0, 2.0) {
                    failures.push(format!("input dose map: {e}"));
                }
            }
        }
    }
    let nl = &case.design.netlist;
    if let Err(e) = flow.dosepl.placement.check_legal(nl, lib) {
        failures.push(format!("placement after dosePl is illegal: {e}"));
    }
    let (report, verify_s) =
        timed(|| dme_sta::analyze(lib, nl, &flow.dosepl.placement, &flow.dosepl.assignment));
    if report.mct_ns.to_bits() != final_.mct_ns.to_bits()
        || report.total_leakage_uw.to_bits() != final_.leakage_uw.to_bits()
    {
        failures.push(format!(
            "independent signoff ({} ns, {} µW) differs from the reported ({} ns, {} µW)",
            report.mct_ns, report.total_leakage_uw, final_.mct_ns, final_.leakage_uw
        ));
    }
    (failures, verify_s)
}

/// The numbers that must repeat exactly across flows of one design and
/// across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub ipm_iterations: usize,
    /// Known only on a traced flow (it is a telemetry counter).
    pub cg_iterations: Option<u64>,
    pub swaps_accepted: usize,
    pub mct_ratio_bits: u64,
    pub leakage_ratio_bits: u64,
}

impl Fingerprint {
    pub fn of(flow: &Flow, cg_iterations: Option<u64>) -> Self {
        Fingerprint {
            ipm_iterations: flow.dmopt.as_ref().map_or(0, |d| d.iterations),
            cg_iterations,
            swaps_accepted: flow.dosepl.swaps_accepted,
            mct_ratio_bits: flow.mct_ratio().to_bits(),
            leakage_ratio_bits: flow.leakage_ratio().to_bits(),
        }
    }

    /// Equality on every field both flows know.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        let cg_agrees = match (self.cg_iterations, other.cg_iterations) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        cg_agrees
            && self.ipm_iterations == other.ipm_iterations
            && self.swaps_accepted == other.swaps_accepted
            && self.mct_ratio_bits == other.mct_ratio_bits
            && self.leakage_ratio_bits == other.leakage_ratio_bits
    }
}

/// Flow accounting for one run: a flow fails when it returns an error,
/// fails a check, or does not repeat its design's first flow exactly.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first fingerprint seen per design of the suite.
    reference: Vec<Option<Fingerprint>>,
}

impl Tally {
    /// Records one flow on suite design `design`: its check failures and
    /// fingerprint (`None` when the flow returned an error, which
    /// `failures` then carries). Prints every problem to stderr and
    /// returns whether the flow passed.
    pub fn record(
        &mut self,
        label: &str,
        design: usize,
        failures: &[String],
        fp: Option<Fingerprint>,
    ) -> bool {
        self.attempted += 1;
        let mut problems = failures.to_vec();
        if let Some(fp) = fp {
            if self.reference.len() <= design {
                self.reference.resize(design + 1, None);
            }
            match &mut self.reference[design] {
                slot @ None => *slot = Some(fp),
                Some(first) if !first.matches(&fp) => problems.push(format!(
                    "does not repeat the first flow exactly: {fp:?} vs {first:?}"
                )),
                Some(first) => {
                    first.cg_iterations = first.cg_iterations.or(fp.cg_iterations);
                }
            }
        }
        for p in &problems {
            eprintln!("flowbench: {label} flow on design {design} failed: {p}");
        }
        self.failed += usize::from(!problems.is_empty());
        problems.is_empty()
    }

    pub fn failed_flow_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_flow(kind: Kind) -> (Library, Case, Flow) {
        let spec = Spec {
            kind,
            profiles: vec![profiles::tiny()],
        };
        let (mut inputs, _) = setup(&spec);
        let case = inputs.cases.pop().expect("one case");
        let flow = run_flow(kind, &inputs.lib, &case).expect("tiny flow");
        (inputs.lib, case, flow)
    }

    #[test]
    fn every_workload_passes_its_checks_on_tiny() {
        for kind in [Kind::Qcp, Kind::DoseplOnly] {
            let (lib, case, flow) = tiny_flow(kind);
            let (failures, verify_s) = check(&lib, &case, &flow);
            assert!(failures.is_empty(), "{kind:?}: {failures:?}");
            assert!(verify_s > 0.0);
            assert_eq!(flow.dmopt.is_some(), kind == Kind::Qcp);
            let again = run_flow(kind, &lib, &case).expect("repeat");
            assert!(Fingerprint::of(&flow, None).matches(&Fingerprint::of(&again, None)));
        }
    }

    #[test]
    fn named_workloads_derive_distinct_designs_from_the_seed() {
        for name in WORKLOADS {
            let a = Spec::named(name, 1).expect(name);
            let b = Spec::named(name, 2).expect(name);
            let seeds = |s: &Spec| s.profiles.iter().map(|p| p.seed).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&Spec::named(name, 1).expect(name)));
            assert!(seeds(&a).iter().all(|x| !seeds(&b).contains(x)), "{name}");
        }
        assert!(Spec::named("nope", 1).is_none());
    }

    #[test]
    fn input_map_is_feasible_for_many_seeds() {
        for seed in 0..50 {
            let map = smooth_map(&profiles::scaling(100_000, seed));
            map.check(-5.0, 5.0, 2.0).expect("smooth map");
            assert_eq!(
                map.dose_pct,
                smooth_map(&profiles::scaling(100_000, seed)).dose_pct
            );
        }
    }

    /// Records a clean flow, then `corrupt`'s copy of a second one, and
    /// returns the tally and the corrupted flow's check failures.
    fn tally_with_corruption(kind: Kind, corrupt: impl FnOnce(&mut Flow)) -> (Tally, Vec<String>) {
        let (lib, case, clean) = tiny_flow(kind);
        let mut tally = Tally::default();
        let (failures, _) = check(&lib, &case, &clean);
        assert!(tally.record("clean", 0, &failures, Some(Fingerprint::of(&clean, None))));
        let mut bad = run_flow(kind, &lib, &case).expect("tiny flow");
        corrupt(&mut bad);
        let (failures, _) = check(&lib, &case, &bad);
        assert!(!tally.record("corrupted", 0, &failures, Some(Fingerprint::of(&bad, None))));
        (tally, failures)
    }

    #[test]
    fn dose_map_outside_the_box_is_counted_as_failed() {
        let (tally, failures) = tally_with_corruption(Kind::Qcp, |flow| {
            flow.dmopt.as_mut().expect("qcp").poly_map.dose_pct[0] = 7.5;
        });
        assert!(
            failures.iter().any(|f| f.contains("dose map")),
            "{failures:?}"
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_flow_frac(), 0.5);
    }

    #[test]
    fn swapped_final_mct_is_counted_as_failed() {
        for kind in [Kind::Qcp, Kind::DoseplOnly] {
            let (tally, failures) = tally_with_corruption(kind, |flow| {
                let golden = &mut flow.dosepl.golden_after;
                std::mem::swap(&mut golden.mct_ns, &mut flow.nominal.mct_ns);
            });
            assert!(
                failures.iter().any(|f| f.contains("independent signoff")),
                "{kind:?}: {failures:?}"
            );
            assert_eq!((tally.attempted, tally.failed), (2, 1), "{kind:?}");
        }
    }

    #[test]
    fn a_flow_that_does_not_repeat_is_counted_as_failed() {
        let (_, _, flow) = tiny_flow(Kind::Qcp);
        let traced = Fingerprint::of(&flow, Some(7));
        let other_design = Fingerprint {
            ipm_iterations: traced.ipm_iterations + 1,
            ..traced
        };
        let mut tally = Tally::default();
        assert!(tally.record("untraced", 0, &[], Some(Fingerprint::of(&flow, None))));
        assert!(tally.record("traced", 0, &[], Some(traced)));
        assert!(tally.record("other design", 1, &[], Some(other_design)));
        let drifted = Fingerprint {
            cg_iterations: Some(8),
            ..traced
        };
        assert!(!tally.record("drifted", 0, &[], Some(drifted)));
        assert!(!tally.record("errored", 0, &["solver failed".into()], None));
        assert_eq!((tally.attempted, tally.failed), (5, 2));
    }
}
