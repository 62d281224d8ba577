//! Property-based tests for DMopt end to end on small random designs.

use dme_device::Technology;
use dme_dosemap::{DoseGrid, DoseMap};
use dme_liberty::Library;
use dme_netlist::{gen, profiles::TechNode, DesignProfile};
use dmeopt::{dosepl, optimize, DmoptConfig, DoseplConfig, Objective, OptContext};
use proptest::prelude::*;

mod common;

use common::dosepl_oracle::{assert_matches_oracle, dosepl_oracle};

fn random_profile() -> impl Strategy<Value = DesignProfile> {
    (100usize..250, any::<u64>(), 5usize..10).prop_map(|(cells, seed, levels)| DesignProfile {
        name: "PROP".into(),
        node: TechNode::N65,
        target_cells: cells,
        num_primary_inputs: 8,
        seq_fraction: 0.12,
        levels,
        chain_bias: 0.85,
        level_taper: 0.0,
        slices: 1,
        ff_tap_deep_frac: 0.8,
        die_area_mm2: cells as f64 * 5.0e-6,
        utilization: 0.7,
        seed,
    })
}

/// Deterministic pseudorandom per-cell doses in [−4%, +4%] on a grid of
/// granularity `g` µm over the die — dosePl only reads the map, so
/// equipment smoothness is irrelevant and no QP solve is needed.
fn synthetic_map(p: &dme_placement::Placement, g: f64, seed: u64) -> DoseMap {
    let grid = DoseGrid::with_granularity(p.die_w_um, p.die_h_um, g);
    let vals: Vec<f64> = (0..grid.num_cells())
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        })
        .collect();
    DoseMap::from_values(grid, vals)
}

proptest! {
    // End-to-end optimizations are expensive; a handful of random designs
    // per run is enough to catch structural regressions.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The QP never degrades golden timing beyond the guard band and the
    /// produced map always satisfies the equipment constraints.
    #[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
    fn qp_is_sound_on_random_designs(profile in random_profile(), g in 4.0f64..12.0) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let cfg = DmoptConfig { grid_g_um: g, ..DmoptConfig::default() };
        let r = optimize(&ctx, &cfg).expect("optimize");
        prop_assert!(r.golden_after.mct_ns <= r.golden_before.mct_ns * 1.005,
            "timing regressed: {} -> {}", r.golden_before.mct_ns, r.golden_after.mct_ns);
        // The paper's headline property: the design-aware map is no
        // leakier than the best *uniform* dose map achieving the same (or
        // better) golden timing. (With the default 2% timing margin the
        // QP is asked to speed the design up slightly, so comparing to
        // the nominal leakage alone is not an invariant.)
        let n = ctx.num_instances();
        let mut best_uniform: Option<f64> = None;
        for step in 0..=10 {
            let dose = 0.5 * step as f64;
            let u = dme_sta::analyze(
                &lib,
                &d.netlist,
                &p,
                &dme_sta::GeometryAssignment::uniform(n, -2.0 * dose, 0.0),
            );
            if u.mct_ns <= r.golden_after.mct_ns + 1e-12 {
                best_uniform = Some(u.total_leakage_uw);
                break; // doses are monotone: the first feasible is the leanest
            }
        }
        if let Some(uniform_leak) = best_uniform {
            prop_assert!(
                r.golden_after.leakage_uw <= uniform_leak * 1.02,
                "design-aware map ({} µW) lost to uniform dose ({} µW)",
                r.golden_after.leakage_uw,
                uniform_leak
            );
        }
        r.poly_map.check(-5.0, 5.0, 2.0 + 0.5).expect("map constraints");
        // The assignment is consistent with the map.
        for i in 0..ctx.num_instances() {
            let g = r.poly_map.grid.cell_of(
                p.center(&lib, &d.netlist, dme_netlist::InstId(i as u32)).0,
                p.center(&lib, &d.netlist, dme_netlist::InstId(i as u32)).1,
            );
            prop_assert!((r.assignment.dl_nm[i] - (-2.0) * r.poly_map.dose_pct[g]).abs() < 1e-9);
        }
    }

    /// The QCP with ξ = 0 never increases surrogate leakage and never
    /// worsens golden timing.
    #[test]
#[cfg_attr(debug_assertions, ignore = "expensive optimizer run: use --release")]
    fn qcp_is_sound_on_random_designs(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let cfg = DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 6.0,
            ..DmoptConfig::default()
        };
        let r = optimize(&ctx, &cfg).expect("optimize");
        prop_assert!(r.golden_after.mct_ns <= r.golden_before.mct_ns + 1e-9);
        prop_assert!(r.surrogate_delta_leakage_uw <= 0.05 * r.golden_before.leakage_uw,
            "surrogate leakage exceeded budget: {}", r.surrogate_delta_leakage_uw);
        prop_assert!(r.solved_t_ns.is_some());
    }
}

proptest! {
    // No QP solve here: dosePl and its oracle take well under a second
    // per design even in debug builds, so this block samples more.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The O(Δ) dosePl engine makes exactly the decisions of the
    /// from-scratch reference (the oracle) on random designs and
    /// synthetic dose maps, with and without an active-layer map (the
    /// O(Δ) ΔW update path): the same candidates are filtered the same
    /// way, the same swaps are accepted, and the final placement,
    /// assignment and golden bits agree.
    #[test]
    fn dosepl_delta_engine_matches_reference(
        profile in random_profile(),
        g in 4.0f64..12.0,
        map_seed in any::<u64>(),
        with_active in any::<bool>(),
        rounds in 1usize..4,
        swaps_per_round in 1usize..4,
    ) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let poly = synthetic_map(&p, g, map_seed);
        let active = with_active.then(|| synthetic_map(&p, g, !map_seed));
        let cfg = DoseplConfig {
            top_k: 50,
            rounds,
            swaps_per_round,
            ..DoseplConfig::default()
        };
        let r = dosepl(&ctx, &poly, active.as_ref(), -2.0, &cfg);
        let o = dosepl_oracle(&ctx, &poly, active.as_ref(), -2.0, &cfg);
        assert_matches_oracle(&r, &o);
    }

    /// The lazy heap top-K enumeration over the incremental timer drives
    /// `dosepl` to the same decisions as the oracle's full `analyze` plus
    /// per-endpoint walk for any K, including the small K that truncate
    /// the endpoint list; every heap pop is a selection or a stale
    /// discard, and a round selects at most K endpoints.
    #[test]
    fn dosepl_enum_modes_agree_bitwise(
        profile in random_profile(),
        g in 4.0f64..12.0,
        map_seed in any::<u64>(),
        top_k in 1usize..40,
        rounds in 1usize..4,
        swaps_per_round in 1usize..4,
    ) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let poly = synthetic_map(&p, g, map_seed);
        let cfg = DoseplConfig {
            top_k,
            rounds,
            swaps_per_round,
            ..DoseplConfig::default()
        };
        let r = dosepl(&ctx, &poly, None, -2.0, &cfg);
        let o = dosepl_oracle(&ctx, &poly, None, -2.0, &cfg);
        assert_matches_oracle(&r, &o);
        let e = r.enum_tallies;
        prop_assert_eq!(e.endpoints_popped, e.endpoints_selected + e.stale_discards);
        prop_assert!(e.endpoints_selected <= (top_k * r.rounds_run) as u64);
    }
}
