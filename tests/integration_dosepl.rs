//! Cross-crate integration: the full Fig. 7 flow with dosePl cell
//! swapping, dosePl against its from-scratch oracle, plus the
//! manufacturing-side artifacts (path enumeration for Fig. 10, actuator
//! realizability).

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::dosepl_oracle::{assert_matches_oracle, dosepl_oracle};
use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::{gen, profiles};
use dme_sta::{analyze, report, top_k_paths, GeometryAssignment};
use dmeopt::flow::{run, FlowConfig};
use dmeopt::{DmoptConfig, DoseplConfig, Objective, OptContext};

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
fn full_flow_stays_legal_and_improves() {
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::small(), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let cfg = FlowConfig {
        dmopt: DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        },
        dosepl: Some(DoseplConfig {
            top_k: 500,
            rounds: 5,
            swaps_per_round: 3,
            ..DoseplConfig::default()
        }),
    };
    let r = run(&ctx, &cfg).expect("flow");
    let dp = r.dosepl.as_ref().expect("dosePl ran");
    // dosePl never makes golden timing worse than its input.
    assert!(dp.golden_after.mct_ns <= dp.golden_before.mct_ns + 1e-12);
    // The final placement is legal.
    dp.placement
        .check_legal(&design.netlist, &lib)
        .expect("legal placement");
    // The whole flow improves on nominal timing at bounded leakage.
    let fin = r.final_summary();
    assert!(fin.mct_ns < r.nominal.mct_ns);
    assert!(fin.leakage_uw <= r.nominal.leakage_uw * 1.05);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
fn dosepl_matches_oracle_on_fixed_seed() {
    // Fixed-seed regression on the small profile with a real DMopt dose
    // map: the decisions, placements, assignments, golden summaries and
    // counters of `dosepl` equal the from-scratch oracle's.
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::small(), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let dm = dmeopt::optimize(
        &ctx,
        &DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        },
    )
    .expect("dmopt");
    let cfg = DoseplConfig {
        top_k: 500,
        rounds: 5,
        swaps_per_round: 3,
        ..DoseplConfig::default()
    };
    let r = dmeopt::dosepl(&ctx, &dm.poly_map, None, -2.0, &cfg);
    let o = dosepl_oracle(&ctx, &dm.poly_map, None, -2.0, &cfg);
    assert_matches_oracle(&r, &o);
    assert!(
        r.swaps_accepted > 0,
        "regression fixture must accept swaps: {} attempted",
        r.swaps_attempted
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
fn slack_profile_improves_after_optimization() {
    // The Fig. 10 storyline: the worst-slack region thins out after DMopt.
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::small(), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let setup: Vec<f64> = design
        .netlist
        .instances
        .iter()
        .map(|i| lib.cell(i.cell_idx).setup_ns(lib.tech()))
        .collect();

    let n = design.netlist.num_instances();
    let before = analyze(
        &lib,
        &design.netlist,
        &placement,
        &GeometryAssignment::nominal(n),
    );
    let paths_before = top_k_paths(&design.netlist, &before, &setup, 500);

    let cfg = DmoptConfig {
        objective: Objective::MinTiming { xi_uw: 0.0 },
        ..DmoptConfig::default()
    };
    let r = dmeopt::optimize(&ctx, &cfg).expect("optimize");
    let after = analyze(&lib, &design.netlist, &placement, &r.assignment);
    let paths_after = top_k_paths(&design.netlist, &after, &setup, 500);

    // Same number of paths, but measured against the ORIGINAL MCT the
    // optimized design has strictly positive worst slack.
    let worst_after = paths_after
        .iter()
        .map(|p| p.delay_ns)
        .fold(0.0f64, f64::max);
    let worst_before = paths_before
        .iter()
        .map(|p| p.delay_ns)
        .fold(0.0f64, f64::max);
    assert!(
        worst_after < worst_before,
        "{worst_after} !< {worst_before}"
    );

    // Criticality percentages (Table VII machinery) drop at 95% threshold.
    let pct_before = report::criticality_percentages(&paths_before, before.mct_ns, &[0.95])[0];
    let pct_after = report::criticality_percentages(&paths_after, before.mct_ns, &[0.95])[0];
    assert!(
        pct_after <= pct_before,
        "95% criticality went from {pct_before}% to {pct_after}%"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
fn bias_headroom_bound_holds() {
    // Fig. 10's "Bias" curve: forcing +5% dose on all top-path gates
    // bounds what any equipment-feasible dose map can reach.
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::small(), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let setup: Vec<f64> = design
        .netlist
        .instances
        .iter()
        .map(|i| lib.cell(i.cell_idx).setup_ns(lib.tech()))
        .collect();
    let n = design.netlist.num_instances();
    let nominal = analyze(
        &lib,
        &design.netlist,
        &placement,
        &GeometryAssignment::nominal(n),
    );
    let paths = top_k_paths(&design.netlist, &nominal, &setup, 1000);

    // Bias: ΔL = −10 nm for every cell on a top path.
    let mut bias = GeometryAssignment::nominal(n);
    for p in &paths {
        for &c in &p.instances {
            bias.dl_nm[c.0 as usize] = -10.0;
        }
    }
    let bias_report = analyze(&lib, &design.netlist, &placement, &bias);

    let cfg = DmoptConfig {
        objective: Objective::MinTiming {
            xi_uw: f64::INFINITY,
        },
        ..DmoptConfig::default()
    };
    let r = dmeopt::optimize(&ctx, &cfg).expect("optimize");
    // The dose map must not beat the bias bound (it obeys smoothness and
    // affects non-path cells too).
    assert!(
        r.golden_after.mct_ns >= bias_report.mct_ns - 1e-9,
        "optimized {} beats the bias bound {}",
        r.golden_after.mct_ns,
        bias_report.mct_ns
    );
    // But it must close part of the gap from nominal.
    assert!(r.golden_after.mct_ns < nominal.mct_ns);
}
