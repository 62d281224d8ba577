//! The full-STA budget of one `dosepl` call, read from the
//! `sta/analyze_calls` counter of a traced run.
//!
//! Every timing decision reads the incremental timer, so a release build
//! runs one full analysis per call: the final signoff. Debug builds add the
//! golden cross-checks — one at entry, one per round start and one per
//! round that ends with swaps to decide on.
//!
//! Lives in its own test binary: `dme_obs` counters are process-global,
//! and another test's analyses would land in the measured window.

use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::{gen, profiles};
use dmeopt::{dosepl, optimize, DmoptConfig, DoseplConfig, Objective, OptContext};

#[test]
fn dosepl_runs_one_full_sta_per_call() {
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::scaling(300, 10), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let dm = optimize(
        &ctx,
        &DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        },
    )
    .expect("dmopt");
    let cfg = DoseplConfig::default();

    dme_obs::set_enabled(true);
    dme_obs::reset();
    let r = dosepl(&ctx, &dm.poly_map, None, -2.0, &cfg);
    let analyses = dme_obs::counter_value("sta/analyze_calls");
    let rounds_with_swaps = dme_obs::record_series("dosepl_round")
        .expect("dosepl_round rows")
        .rows
        .iter()
        .filter(|row| row.iter().any(|&(k, v)| k == "swaps" && v > 0.0))
        .count();
    let round_signoffs = dme_obs::span_stats("dosepl/round/round_signoff").map_or(0, |s| s.count);
    dme_obs::set_enabled(false);

    assert!(
        r.swaps_accepted > 0 && rounds_with_swaps > 0,
        "the fixture must accept swaps: {} accepted over {} rounds",
        r.swaps_accepted,
        r.rounds_run
    );
    if cfg!(debug_assertions) {
        // Entry, every round start, every round end with swaps.
        let cross_checks = 1 + r.rounds_run + rounds_with_swaps;
        assert_eq!(analyses, 1 + cross_checks as u64);
        assert_eq!(round_signoffs, rounds_with_swaps as u64);
    } else {
        assert_eq!(analyses, 1, "one full STA per dosepl call");
        assert_eq!(round_signoffs, 0);
    }
}
