//! dosePl's Algorithm 1 written from scratch on public APIs only: the
//! oracle `dmeopt::dosepl` is held to bit for bit.
//!
//! Where `dosepl` keeps state incrementally, the oracle recomputes it.
//! Each round opens with a full `analyze` and the per-endpoint worst-path
//! walk. Each critical cell scans the whole dose grid for candidate
//! grids. The γ₃ filter re-folds every incident net's box over its pins
//! (`NetPins::scratch_bbox`). Each timed candidate rebuilds the whole
//! geometry assignment and runs a full `analyze`. The candidate undo and
//! the round rollback restore full coordinate snapshots. Only the grid
//! membership is taken once per round, at its start, and stays stale for
//! the rest of the round, as Algorithm 1 (and `dosepl`) define it.

use dme_dosemap::DoseMap;
use dme_netlist::InstId;
use dme_placement::{NetPins, Placement};
use dme_sta::{analyze, worst_paths_per_endpoint_k, GeometryAssignment};
use dmeopt::dosepl::{assignment_for_placement, SwapFilterTallies};
use dmeopt::{DoseplConfig, DoseplResult, GoldenSummary, OptContext};

/// The part of a dosePl run the oracle contract covers.
pub struct OracleResult {
    pub placement: Placement,
    pub assignment: GeometryAssignment,
    pub golden_before: GoldenSummary,
    pub golden_after: GoldenSummary,
    pub swaps_attempted: usize,
    pub swap_evals: usize,
    pub swaps_accepted: usize,
    pub rounds_run: usize,
    pub filter_tallies: SwapFilterTallies,
}

/// Fractional HPWL change of `cell`'s incident nets if its center moved
/// to `to`, every net box re-folded from scratch.
fn hpwl_increase(
    ctx: &OptContext<'_>,
    placement: &Placement,
    pins: &NetPins,
    cell: InstId,
    to: (f64, f64),
) -> f64 {
    let nl = &ctx.design.netlist;
    let hpwl = |moved| {
        pins.nets_of(cell)
            .iter()
            .map(|&net| {
                pins.scratch_bbox(ctx.lib, nl, placement, net, moved)
                    .map_or(0.0, |b| b.half_perimeter())
            })
            .fold(0.0, |acc, h| acc + h)
    };
    let before = hpwl(None);
    if before <= 1e-12 {
        return 0.0;
    }
    (hpwl(Some((cell, to))) - before) / before
}

/// Runs Algorithm 1 from scratch with `dosepl`'s arguments.
pub fn dosepl_oracle(
    ctx: &OptContext<'_>,
    poly: &DoseMap,
    active: Option<&DoseMap>,
    ds: f64,
    cfg: &DoseplConfig,
) -> OracleResult {
    let lib = ctx.lib;
    let tech = lib.tech();
    let nl = &ctx.design.netlist;
    let n = nl.num_instances();
    let grid = &poly.grid;
    let mut placement = ctx.placement.clone();
    let mut assignment = assignment_for_placement(ctx, &placement, poly, active, ds);
    let golden_before = GoldenSummary::from_report(&analyze(lib, nl, &placement, &assignment));
    let pins = NetPins::build(nl, &placement);
    let max_dist = cfg.max_distance_pitches * placement.gate_pitch_um(nl);
    let mut mct = golden_before.mct_ns;
    let mut fixed = vec![false; n];
    let mut tallies = SwapFilterTallies::default();
    let (mut swaps_attempted, mut swap_evals) = (0, 0);
    let (mut swaps_accepted, mut rounds_run) = (0, 0);

    for _ in 0..cfg.rounds {
        rounds_run += 1;
        let round_start = (placement.x_um.clone(), placement.y_um.clone());
        let round_start_mct = mct;
        let report = analyze(lib, nl, &placement, &assignment);
        let paths = worst_paths_per_endpoint_k(nl, &report, &ctx.setup_ns, cfg.top_k);
        // Criticality and Eq. (13) weights: exp(−slack) summed over every
        // occurrence of the cell on the round's paths, in path order.
        let mut critical = vec![false; n];
        let mut weight = vec![0.0f64; n];
        for p in &paths {
            let w = (-p.slack_ns).exp();
            for &c in &p.instances {
                critical[c.0 as usize] = true;
                weight[c.0 as usize] += w;
            }
        }
        // Round-start grid membership, ascending by instance id.
        let mut grid_of = vec![0usize; n];
        let mut members: Vec<Vec<InstId>> = vec![Vec::new(); grid.num_cells()];
        for id in nl.inst_ids() {
            let (x, y) = placement.center(lib, nl, id);
            grid_of[id.0 as usize] = grid.cell_of(x, y);
            members[grid_of[id.0 as usize]].push(id);
        }
        let mut swapped_on_path = vec![0usize; paths.len()];
        let mut round_swaps: Vec<(InstId, InstId)> = Vec::new();

        'paths: for (pi, path) in paths.iter().enumerate() {
            if swapped_on_path[pi] >= cfg.max_swapped_per_path {
                continue;
            }
            let mut cells = path.instances.clone();
            cells.sort_by(|a, b| weight[b.0 as usize].total_cmp(&weight[a.0 as usize]));
            'cells: for &cell_l in &cells {
                let li = cell_l.0 as usize;
                if fixed[li] {
                    continue;
                }
                let bl = placement.neighborhood_bbox(lib, nl, cell_l);
                let dose_l = poly.dose_pct[grid_of[li]];
                let eb = bl.expanded(0.5 * grid.pitch_x_um().max(grid.pitch_y_um()));
                let mut cand_grids: Vec<usize> = (0..grid.num_cells())
                    .filter(|&g| {
                        let (x, y) = grid.cell_center_um(g);
                        eb.contains(x, y)
                    })
                    .collect();
                cand_grids.sort_by(|&a, &b| poly.dose_pct[b].total_cmp(&poly.dose_pct[a]));
                for g in cand_grids {
                    if poly.dose_pct[g] <= dose_l {
                        break;
                    }
                    let mut nc: Vec<(InstId, f64)> = members[g]
                        .iter()
                        .filter(|m| !critical[m.0 as usize] && !fixed[m.0 as usize])
                        .map(|&m| (m, placement.distance(lib, nl, cell_l, m)))
                        .collect();
                    nc.sort_by(|a, b| a.1.total_cmp(&b.1));
                    for (cell_m, dist) in nc {
                        if dist > max_dist {
                            tallies.distance_cutoffs += 1;
                            break;
                        }
                        swaps_attempted += 1;
                        let cl = placement.center(lib, nl, cell_l);
                        let cm = placement.center(lib, nl, cell_m);
                        let bm = placement.neighborhood_bbox(lib, nl, cell_m);
                        if !bm.contains(cl.0, cl.1) || !bl.contains(cm.0, cm.1) {
                            tallies.rejected_bbox += 1;
                            continue;
                        }
                        if hpwl_increase(ctx, &placement, &pins, cell_l, cm)
                            > cfg.hpwl_increase_frac
                            || hpwl_increase(ctx, &placement, &pins, cell_m, cl)
                                > cfg.hpwl_increase_frac
                        {
                            tallies.rejected_hpwl += 1;
                            continue;
                        }
                        let (dl_l, dl_m) = (ds * dose_l, ds * poly.dose_pct[g]);
                        let master_l = lib.cell(nl.instance(cell_l).cell_idx);
                        let master_m = lib.cell(nl.instance(cell_m).cell_idx);
                        let leak_before = master_l.leakage_nw(tech, dl_l, 0.0)
                            + master_m.leakage_nw(tech, dl_m, 0.0);
                        let leak_after = master_l.leakage_nw(tech, dl_m, 0.0)
                            + master_m.leakage_nw(tech, dl_l, 0.0);
                        if leak_after - leak_before > cfg.leak_increase_frac * leak_before {
                            tallies.rejected_leakage += 1;
                            continue;
                        }
                        // Swap, re-legalize both rows, and time the result
                        // with a full analysis of a rebuilt assignment.
                        swap_evals += 1;
                        let undo = (placement.x_um.clone(), placement.y_um.clone());
                        placement.swap_cells(cell_l, cell_m);
                        let row = |c: InstId| placement.y_um[c.0 as usize] / placement.row_h_um;
                        let rows = [row(cell_l).round() as usize, row(cell_m).round() as usize];
                        placement.repack_rows(lib, nl, &rows);
                        let cand = assignment_for_placement(ctx, &placement, poly, active, ds);
                        let cand_mct = analyze(lib, nl, &placement, &cand).mct_ns;
                        if cand_mct >= mct - 1e-12 {
                            (placement.x_um, placement.y_um) = undo;
                            tallies.rejected_timing += 1;
                            continue;
                        }
                        tallies.accepted_provisional += 1;
                        assignment = cand;
                        mct = cand_mct;
                        round_swaps.push((cell_l, cell_m));
                        for (qi, q) in paths.iter().enumerate() {
                            if q.instances.contains(&cell_l) {
                                swapped_on_path[qi] += 1;
                            }
                        }
                        if round_swaps.len() >= cfg.swaps_per_round {
                            break 'paths;
                        }
                        continue 'cells;
                    }
                }
            }
        }

        if round_swaps.is_empty() {
            break;
        }
        if mct < round_start_mct - 1e-12 {
            swaps_accepted += round_swaps.len();
        } else {
            // Golden rollback: restore the round-start placement and
            // freeze every cell the round swapped.
            tallies.rolled_back += round_swaps.len();
            (placement.x_um, placement.y_um) = round_start;
            assignment = assignment_for_placement(ctx, &placement, poly, active, ds);
            mct = round_start_mct;
            for &(a, b) in &round_swaps {
                fixed[a.0 as usize] = true;
                fixed[b.0 as usize] = true;
            }
        }
    }

    let golden_after = GoldenSummary::from_report(&analyze(lib, nl, &placement, &assignment));
    OracleResult {
        placement,
        assignment,
        golden_before,
        golden_after,
        swaps_attempted,
        swap_evals,
        swaps_accepted,
        rounds_run,
        filter_tallies: tallies,
    }
}

/// Asserts that a `dosepl` run equals the oracle's: placement and
/// assignment by `to_bits`, golden summaries by `to_bits`, counts and
/// filter tallies by `==`.
pub fn assert_matches_oracle(r: &DoseplResult, o: &OracleResult) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.placement.x_um), bits(&o.placement.x_um), "x_um");
    assert_eq!(bits(&r.placement.y_um), bits(&o.placement.y_um), "y_um");
    assert_eq!(
        bits(&r.assignment.dl_nm),
        bits(&o.assignment.dl_nm),
        "dl_nm"
    );
    assert_eq!(
        bits(&r.assignment.dw_nm),
        bits(&o.assignment.dw_nm),
        "dw_nm"
    );
    for (name, a, b) in [
        ("before MCT", r.golden_before.mct_ns, o.golden_before.mct_ns),
        (
            "before leakage",
            r.golden_before.leakage_uw,
            o.golden_before.leakage_uw,
        ),
        ("after MCT", r.golden_after.mct_ns, o.golden_after.mct_ns),
        (
            "after leakage",
            r.golden_after.leakage_uw,
            o.golden_after.leakage_uw,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "golden {name}: {a} vs {b}");
    }
    assert_eq!(r.swaps_attempted, o.swaps_attempted, "swaps_attempted");
    assert_eq!(r.swap_evals, o.swap_evals, "swap_evals");
    assert_eq!(r.swaps_accepted, o.swaps_accepted, "swaps_accepted");
    assert_eq!(r.rounds_run, o.rounds_run, "rounds_run");
    assert_eq!(r.filter_tallies, o.filter_tallies, "filter_tallies");
}
