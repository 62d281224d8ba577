//! Scaling smoke run: generates a seeded synthetic design at a requested
//! size (`profiles::scaling`), runs a bounded dosePl pass, and prints a
//! machine-parseable `SMOKELINE` plus per-phase span timings. Used by the
//! CI scaling-smoke leg and for profiling the swap loop at 12k/100k/1M
//! cells.
//!
//! Environment knobs (all optional):
//!   DME_SMOKE_CELLS   design size in cells          (default 12000)
//!   DME_SMOKE_SEED    generator seed                (default 7)
//!   DME_SMOKE_TOPK    paths per round               (default 300)
//!   DME_SMOKE_ROUNDS  dosePl rounds                 (default 2)
//!   DME_SMOKE_SWAPS   accepted swaps per round      (default 8)

use dme_dosemap::{DoseGrid, DoseMap};
use dme_liberty::Library;
use dme_netlist::{gen, profiles};
use dmeopt::{dosepl, DoseplConfig, OptContext};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic pseudorandom dose map in [−4%, +4%] — same construction
/// as the `perf/dosepl_run_*` benches, so smoke runs exercise the same
/// dose-update path without a QP solve.
fn synthetic_map(die_w_um: f64, die_h_um: f64, granularity_um: f64, seed: u64) -> DoseMap {
    let grid = DoseGrid::with_granularity(die_w_um, die_h_um, granularity_um);
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

fn main() {
    let cells = env_usize("DME_SMOKE_CELLS", 12_000);
    let seed = env_usize("DME_SMOKE_SEED", 7) as u64;
    let cfg = DoseplConfig {
        top_k: env_usize("DME_SMOKE_TOPK", 300),
        rounds: env_usize("DME_SMOKE_ROUNDS", 2),
        swaps_per_round: env_usize("DME_SMOKE_SWAPS", 8),
        ..DoseplConfig::default()
    };

    let lib = Library::standard(dme_device::Technology::n65());
    let profile = profiles::scaling(cells, seed);
    let t = Instant::now();
    let design = gen::generate(&profile, &lib);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let placement = dme_placement::place(&design, &lib);
    let place_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let ctx = OptContext::new(&lib, &design, &placement);
    let ctx_ms = t.elapsed().as_secs_f64() * 1e3;
    let map = synthetic_map(placement.die_w_um, placement.die_h_um, 2.0, 42);

    dme_obs::set_enabled(true);
    let t = Instant::now();
    let r = dosepl(&ctx, &map, None, -2.0, &cfg);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    println!(
        "SMOKELINE cells={} nets={} wall_ms={wall_ms:.1} gen_ms={gen_ms:.1} \
         place_ms={place_ms:.1} ctx_ms={ctx_ms:.1} swaps_attempted={} swap_evals={} \
         swaps_accepted={} rounds={} gate_evals={} mct_before_ns={:.4} mct_after_ns={:.4}",
        design.netlist.num_instances(),
        design.netlist.num_nets(),
        r.swaps_attempted,
        r.swap_evals,
        r.swaps_accepted,
        r.rounds_run,
        r.incremental_gate_evals,
        r.golden_before.mct_ns,
        r.golden_after.mct_ns,
    );
    if std::env::var("DME_SMOKE_SUMMARY").is_ok() {
        println!("{}", dme_obs::summary_table());
    }
}
