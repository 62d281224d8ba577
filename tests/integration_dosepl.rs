//! Cross-crate integration: the full Fig. 7 flow with dosePl cell
//! swapping, plus the manufacturing-side artifacts (path enumeration for
//! Fig. 10, actuator realizability).

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
fn dosepl_engines_agree_bitwise_on_fixed_seed() {
    // Fixed-seed regression for the O(Δ) swap engine: on the small
    // profile with a real DMopt dose map, the delta and reference
    // engines must make identical decisions and produce bitwise-equal
    // results — placements, assignments, golden summaries, and every
    // counter except the delta-only work-avoided telemetry.
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
    let base = DoseplConfig {
        top_k: 500,
        rounds: 5,
        swaps_per_round: 3,
        ..DoseplConfig::default()
    };
    let fast = dmeopt::dosepl(
        &ctx,
        &dm.poly_map,
        None,
        -2.0,
        &DoseplConfig {
            engine: dmeopt::SwapEngine::Delta,
            ..base.clone()
        },
    );
    let refr = dmeopt::dosepl(
        &ctx,
        &dm.poly_map,
        None,
        -2.0,
        &DoseplConfig {
            engine: dmeopt::SwapEngine::Reference,
            ..base
        },
    );
    assert!(
        fast.swaps_attempted > 0,
        "regression fixture must exercise the candidate loop"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fast.placement.x_um), bits(&refr.placement.x_um));
    assert_eq!(bits(&fast.placement.y_um), bits(&refr.placement.y_um));
    assert_eq!(bits(&fast.assignment.dl_nm), bits(&refr.assignment.dl_nm));
    assert_eq!(bits(&fast.assignment.dw_nm), bits(&refr.assignment.dw_nm));
    assert_eq!(
        fast.golden_after.mct_ns.to_bits(),
        refr.golden_after.mct_ns.to_bits()
    );
    assert_eq!(
        fast.golden_after.leakage_uw.to_bits(),
        refr.golden_after.leakage_uw.to_bits()
    );
    assert_eq!(fast.swaps_attempted, refr.swaps_attempted);
    assert_eq!(fast.swaps_accepted, refr.swaps_accepted);
    assert_eq!(fast.rounds_run, refr.rounds_run);
    assert_eq!(fast.swap_evals, refr.swap_evals);
    // The delta engine replays rejected candidates from its undo journal
    // (zero gate evaluations); the reference engine re-times the cone
    // back. Identical results above, strictly less work here.
    assert!(
        fast.incremental_gate_evals <= refr.incremental_gate_evals,
        "delta {} vs reference {}",
        fast.incremental_gate_evals,
        refr.incremental_gate_evals
    );
    assert_eq!(fast.filter_tallies, refr.filter_tallies);
    assert!(fast.delta_stats.delta_engine && !refr.delta_stats.delta_engine);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
fn dosepl_enum_modes_agree_bitwise_on_fixed_seed() {
    // Fixed-seed regression for the O(K) incremental path enumerator:
    // on the small profile with a real DMopt dose map, the heap-driven
    // top-K selection must drive the engine to the same decisions as
    // the round-start full analyze + full-sort walk — bitwise-equal
    // placements, assignments, golden summaries and loop counters.
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
    let base = DoseplConfig {
        top_k: 500,
        rounds: 5,
        swaps_per_round: 3,
        engine: dmeopt::SwapEngine::Delta,
        ..DoseplConfig::default()
    };
    let inc = dmeopt::dosepl(
        &ctx,
        &dm.poly_map,
        None,
        -2.0,
        &DoseplConfig {
            path_enum: dmeopt::PathEnum::Incremental,
            ..base.clone()
        },
    );
    let full = dmeopt::dosepl(
        &ctx,
        &dm.poly_map,
        None,
        -2.0,
        &DoseplConfig {
            path_enum: dmeopt::PathEnum::Full,
            ..base
        },
    );
    assert!(
        inc.swaps_attempted > 0,
        "regression fixture must exercise the candidate loop"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&inc.placement.x_um), bits(&full.placement.x_um));
    assert_eq!(bits(&inc.placement.y_um), bits(&full.placement.y_um));
    assert_eq!(bits(&inc.assignment.dl_nm), bits(&full.assignment.dl_nm));
    assert_eq!(bits(&inc.assignment.dw_nm), bits(&full.assignment.dw_nm));
    assert_eq!(
        inc.golden_after.mct_ns.to_bits(),
        full.golden_after.mct_ns.to_bits()
    );
    assert_eq!(
        inc.golden_after.leakage_uw.to_bits(),
        full.golden_after.leakage_uw.to_bits()
    );
    assert_eq!(inc.swaps_attempted, full.swaps_attempted);
    assert_eq!(inc.swaps_accepted, full.swaps_accepted);
    assert_eq!(inc.rounds_run, full.rounds_run);
    assert_eq!(inc.swap_evals, full.swap_evals);
    assert_eq!(inc.filter_tallies, full.filter_tallies);
    // Mode accounting: the incremental run never paid a round-start full
    // analyze and dispositioned every heap pop; the full-walk run never
    // touched the heap.
    assert_eq!(inc.enum_tallies.full_walks, 0);
    assert_eq!(
        inc.enum_tallies.full_analyze_skipped as usize,
        inc.rounds_run
    );
    assert_eq!(
        inc.enum_tallies.endpoints_popped,
        inc.enum_tallies.endpoints_selected + inc.enum_tallies.stale_discards
    );
    assert_eq!(full.enum_tallies.full_analyze_skipped, 0);
    assert_eq!(full.enum_tallies.full_walks as usize, full.rounds_run);
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
