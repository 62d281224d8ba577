//! dosePl: dose-map-aware placement by cell swapping (Algorithm 1).
//!
//! Given a timing/leakage-optimized dose map, critical cells are swapped
//! into higher-dose grid regions (where gates print shorter and switch
//! faster) and non-critical cells take their place. Candidate swaps are
//! filtered exactly as in the paper's Appendix: both cells must lie in
//! each other's *neighborhood bounding boxes* (Fig. 9), be within a
//! distance threshold proportional to the average gate pitch, not
//! increase the estimated HPWL of their incident nets beyond a fraction
//! γ₃, and not increase their combined leakage beyond a fraction γ₄.
//! After each round the perturbed rows are re-legalized (the ECO step)
//! and the round's timing decides accept-or-rollback; rolled-back cells
//! are frozen for subsequent rounds.
//!
//! # Golden timing
//!
//! Every timing decision — per candidate and per round — reads the
//! incremental timer ([`IncrementalSta`]), which agrees with the golden
//! full [`analyze`] bit for bit. A release build therefore runs one full
//! analysis per call: the final signoff that produces
//! [`DoseplResult::golden_after`], whose MCT bits must equal the
//! incremental timer's. Debug builds keep a golden cross-check at entry,
//! at every round start and at every round end.
//!
//! # Cost
//!
//! A timed candidate costs O(Δ), where Δ is the handful of cells a swap
//! and its ECO row repack move: a [`PlacementDelta`] coordinate journal
//! undoes a rejected swap by replay, an [`AssignmentDelta`] re-derives
//! ΔL/ΔW only for the journal-touched instances, a [`NetBoxCache`]
//! answers the γ₃ HPWL filter from cached per-net extremes, candidate
//! grids come from a banded rectangular range query
//! (`DoseGrid::cells_in_rect`), and the timer re-times the touched
//! cells' fanout cone and rolls a rejection back from its undo journal.
//!
//! A round starts in O(K): the top-K critical paths come straight from
//! the timer's lazy endpoint heap (heap pops + K backtraces — no
//! full-design `analyze`, no full endpoint sort), the criticality
//! scratch is epoch-stamped and CSR-compiled instead of reallocated, and
//! the cell → dose-grid index persists across rounds, synced from the
//! placement journal like `RowIndex`.
//!
//! Tests hold [`dosepl()`] bit for bit to a from-scratch oracle
//! (`crates/core/tests/common/dosepl_oracle.rs`): a full `analyze` and
//! endpoint walk per round, a full grid scan per critical cell, net boxes
//! re-folded over their pins, and a rebuilt assignment plus a full
//! `analyze` per timed candidate.

use crate::context::{GoldenSummary, OptContext};
use crate::gridindex::GridIndex;
use dme_dosemap::DoseMap;
use dme_liberty::Library;
use dme_netlist::{InstId, Netlist};
use dme_placement::{NetBoxCache, Placement, PlacementDelta, RowIndex};
use dme_sta::{
    analyze, total_leakage_uw, worst_paths_top_k, AssignmentDelta, GeometryAssignment,
    IncrementalSta, TimingPath,
};

/// Tuning knobs of the swapping heuristic (γ-parameters of the paper).
#[derive(Debug, Clone)]
pub struct DoseplConfig {
    /// Number of critical paths examined per round (the paper uses
    /// K = 10 000).
    pub top_k: usize,
    /// Number of swap rounds (the paper uses 10).
    pub rounds: usize,
    /// γ₁: maximum cells swapped per critical path.
    pub max_swapped_per_path: usize,
    /// γ₂: maximum swap distance, in multiples of the average gate pitch.
    pub max_distance_pitches: f64,
    /// γ₃: maximum allowed fractional HPWL increase of the incident nets
    /// of a swapped cell.
    pub hpwl_increase_frac: f64,
    /// γ₄: maximum allowed fractional increase of the combined leakage of
    /// a swapped pair.
    pub leak_increase_frac: f64,
    /// γ₅: maximum swaps per round.
    pub swaps_per_round: usize,
}

impl Default for DoseplConfig {
    fn default() -> Self {
        Self {
            top_k: 10_000,
            rounds: 10,
            max_swapped_per_path: 1,
            max_distance_pitches: 10.0,
            hpwl_increase_frac: 0.2,
            leak_increase_frac: 0.1,
            swaps_per_round: 1,
        }
    }
}

/// Candidate-swap disposition tallies, by the filter that decided them,
/// accumulated across all rounds. The filters run in the order the
/// fields are listed; a candidate is charged to the first filter that
/// rejects it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapFilterTallies {
    /// Candidate lists cut short by the γ₂ distance threshold (one per
    /// cut; the remaining, farther candidates are never examined).
    pub distance_cutoffs: usize,
    /// Rejected because the cells are not in each other's neighborhood
    /// bounding boxes (Fig. 9).
    pub rejected_bbox: usize,
    /// Rejected by the γ₃ HPWL-increase filter.
    pub rejected_hpwl: usize,
    /// Rejected by the γ₄ leakage-increase filter.
    pub rejected_leakage: usize,
    /// Applied but reverted because incremental timing showed no MCT
    /// gain.
    pub rejected_timing: usize,
    /// Passed every filter and improved MCT (provisionally kept; the
    /// round-end decision may still roll them back).
    pub accepted_provisional: usize,
    /// Provisionally accepted swaps undone by a round-level rollback.
    pub rolled_back: usize,
}

/// Work-avoided telemetry of the O(Δ) candidate loop: what it skipped
/// relative to from-scratch rebuilds, scans and snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaEngineStats {
    /// Per-instance ΔL/ΔW derivations skipped by incremental assignment
    /// maintenance (instances − journal-touched, summed over timed
    /// evaluations; a from-scratch rebuild derives all of them).
    pub assignment_evals_avoided: u64,
    /// Grid cells never tested against the neighborhood bbox thanks to
    /// the banded range query (grid cells − band, summed over queries).
    pub grid_cell_evals_avoided: u64,
    /// γ₃ net-box queries answered in O(1) from cached extremes.
    pub hpwl_fast_nets: u64,
    /// γ₃ net-box queries that re-walked a net's pins (shrinking-pin
    /// escapes).
    pub hpwl_rescans: u64,
    /// Coordinate writes recorded in the placement journal across timed
    /// evaluations (the undo cost actually paid).
    pub undo_coord_writes: u64,
    /// Coordinate restorations skipped by journal replay relative to
    /// full-vector snapshots (instances − journal writes, summed over
    /// timed evaluations).
    pub undo_evals_avoided: u64,
}

/// Round-start enumeration telemetry, accumulated across all rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumTallies {
    /// MCT-heap entries popped by the lazy top-K selection.
    pub endpoints_popped: u64,
    /// Endpoints actually selected (≤ K per round). Every pop is either
    /// a selection or a stale discard, so `endpoints_popped ==
    /// endpoints_selected + stale_discards`.
    pub endpoints_selected: u64,
    /// Popped heap entries discarded as stale (superseded contributions
    /// or undo-replay duplicates) — the lazy structure's GC.
    pub stale_discards: u64,
}

/// Run-persistent, epoch-stamped scratch for the per-round criticality
/// state. All O(n) arrays are allocated once per dosePl run; a round
/// opens with `begin_round`, which bumps the epoch (invalidating the
/// stamps in O(1)) and resets only the O(K) per-path buffers — round
/// startup does zero O(n) allocation or clearing.
///
/// `paths_of_cell` is a flat CSR over per-round dense slots: the round's
/// distinct critical cells get consecutive slot ids, and one shared
/// index buffer plus offsets replaces the per-cell `Vec<u32>`s the loop
/// used to rebuild every round.
struct RoundScratch {
    epoch: u64,
    /// Cell is critical this round ⇔ `mark[i] == epoch`.
    mark: Vec<u64>,
    /// Eq. (13) weight; valid iff `mark[i] == epoch`.
    weight: Vec<f64>,
    /// Dense per-round slot of a critical cell; valid iff marked.
    slot_of: Vec<u32>,
    /// Number of slots handed out this round (distinct critical cells).
    num_slots: usize,
    /// (slot, path) membership pairs, CSR-compiled by `seal_paths`.
    pairs: Vec<(u32, u32)>,
    csr_start: Vec<u32>,
    csr_items: Vec<u32>,
    /// Per-path dedup scratch (a path counts once per cell).
    path_cells: Vec<InstId>,
    /// Swap count per path index, γ₁-gated.
    swapped_on_path: Vec<usize>,
}

impl RoundScratch {
    fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            mark: vec![0; n],
            weight: vec![0.0; n],
            slot_of: vec![0; n],
            num_slots: 0,
            pairs: Vec::new(),
            csr_start: Vec::new(),
            csr_items: Vec::new(),
            path_cells: Vec::new(),
            swapped_on_path: Vec::new(),
        }
    }

    /// Opens a round: stamps invalidated in O(1), per-path buffers reset
    /// in O(previous round's path volume).
    fn begin_round(&mut self, paths: &[TimingPath]) {
        self.epoch += 1;
        self.num_slots = 0;
        self.pairs.clear();
        self.swapped_on_path.clear();
        self.swapped_on_path.resize(paths.len(), 0);
        for (pi, p) in paths.iter().enumerate() {
            let w = (-p.slack_ns).exp();
            for &c in &p.instances {
                let ci = c.0 as usize;
                if self.mark[ci] != self.epoch {
                    self.mark[ci] = self.epoch;
                    self.weight[ci] = w;
                    self.slot_of[ci] = self.num_slots as u32;
                    self.num_slots += 1;
                } else {
                    self.weight[ci] += w;
                }
            }
            // Deduped membership: a path counts once per cell no matter
            // how often the cell appears on it.
            self.path_cells.clear();
            self.path_cells.extend_from_slice(&p.instances);
            self.path_cells.sort_unstable();
            self.path_cells.dedup();
            for k in 0..self.path_cells.len() {
                let c = self.path_cells[k];
                self.pairs.push((self.slot_of[c.0 as usize], pi as u32));
            }
        }
        // Compile the pairs into CSR form (counting sort by slot; pair
        // order within a slot is path order, matching the per-cell push
        // order of the old Vec-of-Vecs layout).
        self.csr_start.clear();
        self.csr_start.resize(self.num_slots + 1, 0);
        for &(s, _) in &self.pairs {
            self.csr_start[s as usize + 1] += 1;
        }
        for i in 0..self.num_slots {
            self.csr_start[i + 1] += self.csr_start[i];
        }
        self.csr_items.clear();
        self.csr_items.resize(self.pairs.len(), 0);
        let mut cursor: Vec<u32> = self.csr_start.clone();
        for &(s, pi) in &self.pairs {
            let c = &mut cursor[s as usize];
            self.csr_items[*c as usize] = pi;
            *c += 1;
        }
    }

    /// Whether the cell lies on one of this round's top-K paths.
    #[inline]
    fn is_critical(&self, i: usize) -> bool {
        self.mark[i] == self.epoch
    }

    /// Path indices containing the (critical) cell.
    #[inline]
    fn paths_of(&self, i: usize) -> &[u32] {
        debug_assert!(self.is_critical(i));
        let s = self.slot_of[i] as usize;
        &self.csr_items[self.csr_start[s] as usize..self.csr_start[s + 1] as usize]
    }
}

/// Outcome of the dosePl pass.
#[derive(Debug, Clone)]
pub struct DoseplResult {
    /// The (possibly) improved placement.
    pub placement: Placement,
    /// Geometry assignment re-derived at the final cell positions.
    pub assignment: GeometryAssignment,
    /// Golden summary entering dosePl (post-DMopt).
    pub golden_before: GoldenSummary,
    /// Golden summary after the accepted swaps.
    pub golden_after: GoldenSummary,
    /// Swaps attempted across all rounds.
    pub swaps_attempted: usize,
    /// Swaps kept by the round-end accept-or-rollback decision.
    pub swaps_accepted: usize,
    /// Rounds executed.
    pub rounds_run: usize,
    /// Candidate swaps that reached the incremental timing gate (passed
    /// every heuristic filter and were actually timed).
    pub swap_evals: usize,
    /// Gate evaluations spent by the incremental timer across all swap
    /// evaluations, including state restoration after rejected swaps.
    /// This is the hardware-independent cost of per-swap timing.
    pub incremental_gate_evals: u64,
    /// Gate evaluations the same per-swap timing decisions would have
    /// cost with full re-analysis (one evaluation per instance per
    /// incremental call — late pass only, so the comparison is
    /// conservative).
    pub full_equivalent_gate_evals: u64,
    /// `full_equivalent_gate_evals / incremental_gate_evals` — the work
    /// advantage of cone re-timing over full re-analysis (∞-safe: 0.0
    /// when nothing was timed). Machine-independent, but dependent on
    /// netlist topology and swap acceptance order, so it is reported as
    /// telemetry rather than asserted against a fixed threshold.
    pub incremental_work_ratio: f64,
    /// Per-filter candidate disposition tallies.
    pub filter_tallies: SwapFilterTallies,
    /// Work-avoided telemetry of the O(Δ) candidate loop.
    pub delta_stats: DeltaEngineStats,
    /// Round-start enumeration telemetry.
    pub enum_tallies: EnumTallies,
}

/// Re-derives the per-instance geometry assignment from dose maps for an
/// arbitrary placement (cells change grids when they move).
pub fn assignment_for_placement(
    ctx: &OptContext<'_>,
    placement: &Placement,
    poly: &DoseMap,
    active: Option<&DoseMap>,
    ds: f64,
) -> GeometryAssignment {
    let nl = &ctx.design.netlist;
    let n = nl.num_instances();
    let mut a = GeometryAssignment::nominal(n);
    for i in 0..n {
        let (x, y) = placement.center(ctx.lib, nl, InstId(i as u32));
        a.dl_nm[i] = ds * poly.dose_at_um(x, y);
        if let Some(am) = active {
            a.dw_nm[i] = ds * am.dose_at_um(x, y);
        }
    }
    a
}

/// `(after − before) / before`, 0.0 for a degenerate baseline.
fn hpwl_frac(before: f64, after: f64) -> f64 {
    if before <= 1e-12 {
        return 0.0;
    }
    (after - before) / before
}

/// Estimated fractional HPWL change of a cell's incident nets if its
/// center moved to `new_center` (the γ₃ filter), answered from the
/// net-box cache: cached extremes give the before boxes in O(1), and the
/// what-if boxes in O(1) unless the cell holds an extreme alone (then
/// one pin rescan). Bitwise equal to re-folding every incident net's box
/// over its pins.
fn hpwl_delta_frac_cached(
    cache: &mut NetBoxCache,
    lib: &Library,
    nl: &Netlist,
    placement: &Placement,
    cell: InstId,
    new_center: (f64, f64),
) -> f64 {
    let mut before = 0.0;
    let mut after = 0.0;
    for k in 0..cache.pins().nets_of(cell).len() {
        let net = cache.pins().nets_of(cell)[k];
        let mult = cache.pins().mult_of(cell)[k];
        before += cache.bbox(net).map_or(0.0, |b| b.half_perimeter());
        after += cache
            .bbox_with_moved(lib, nl, placement, net, cell, mult, new_center)
            .map_or(0.0, |b| b.half_perimeter());
    }
    hpwl_frac(before, after)
}

/// Runs the dosePl cell-swapping optimization on top of a DMopt result.
///
/// # Panics
///
/// Panics if the dose maps' grids do not cover the placement die, or if
/// the final golden signoff's MCT differs in any bit from the incremental
/// timer's — the timer that made every accept-or-rollback decision has
/// then diverged from full analysis.
pub fn dosepl(
    ctx: &OptContext<'_>,
    poly: &DoseMap,
    active: Option<&DoseMap>,
    ds: f64,
    cfg: &DoseplConfig,
) -> DoseplResult {
    let _span = dme_obs::span("dosepl");
    let nl = &ctx.design.netlist;
    let lib = ctx.lib;
    let tech = lib.tech();
    let n = nl.num_instances();
    let mut placement = ctx.placement.clone();
    let mut assignment = assignment_for_placement(ctx, &placement, poly, active, ds);
    let pitch = placement.gate_pitch_um(nl);
    let max_dist = cfg.max_distance_pitches * pitch;

    // Incremental timer for every timing decision. Candidate swaps are
    // timed by re-evaluating only the perturbation's fanout cone, and a
    // rejected candidate's timing state rolls back by replaying old slot
    // values from the timer's undo journal (zero gate evaluations). The
    // one full golden `analyze` in release builds is the final signoff,
    // which must agree with it bitwise.
    let mut inc = {
        let _s = dme_obs::span("entry_timer");
        IncrementalSta::new(lib, nl, &placement, &assignment)
    };
    inc.set_journal(true);
    let base_stats = inc.stats();
    let mut mct_cur = inc.mct_ns();
    let golden_before = GoldenSummary {
        mct_ns: mct_cur,
        leakage_uw: total_leakage_uw(lib, nl, &assignment),
    };
    // Golden cross-check (debug builds only): the entry summary equals a
    // full analysis bitwise.
    #[cfg(debug_assertions)]
    {
        let report = {
            let _s = dme_obs::span("entry_sta");
            analyze(lib, nl, &placement, &assignment)
        };
        debug_assert_eq!(
            report.mct_ns.to_bits(),
            golden_before.mct_ns.to_bits(),
            "incremental and golden entry MCT diverged"
        );
        debug_assert_eq!(
            report.total_leakage_uw.to_bits(),
            golden_before.leakage_uw.to_bits(),
            "entry leakage diverged from the golden analysis"
        );
    }

    // O(Δ) candidate state: the net-box cache behind the γ₃ filter, the
    // row index behind the ECO repack, and the placement and assignment
    // undo journals.
    let (mut cache, mut rowindex) = {
        let _s = dme_obs::span("entry_boxes");
        (
            NetBoxCache::build(lib, nl, &placement),
            RowIndex::build(&placement, nl),
        )
    };
    let mut pdelta = PlacementDelta::new();
    let mut adelta = AssignmentDelta::new();
    let mut stats = DeltaEngineStats::default();

    let mut fixed = vec![false; n];
    let mut swaps_attempted = 0usize;
    let mut swaps_accepted = 0usize;
    let mut rounds_run = 0usize;
    let mut swap_evals = 0usize;
    let mut tallies = SwapFilterTallies::default();
    let mut enum_tallies = EnumTallies::default();

    // Run-persistent round state: the cell → dose-grid index (synced
    // from the placement journal at round boundaries) and the
    // epoch-stamped criticality scratch. Both are allocated once here;
    // round startup reuses them.
    let grid = &poly.grid;
    let (mut gridx, mut rscratch) = {
        let _s = dme_obs::span("entry_grid");
        (
            GridIndex::build(lib, nl, &placement, grid),
            RoundScratch::new(n),
        )
    };

    for round in 0..cfg.rounds {
        let _round_span = dme_obs::span("round");
        let round_attempt_base = swaps_attempted;
        rounds_run += 1;
        // Re-file only the cells the previous round's journal moved (an
        // accepted round leaves its writes in the journal until here; a
        // rolled-back round synced at rollback and left it empty), then
        // open fresh journal scopes. ECO repacking can evict third-party
        // cells to neighboring rows, so an exact rollback replays the
        // round's journals rather than undoing only the swapped pairs.
        let moved = pdelta.touched_since(0);
        gridx.sync(lib, nl, &placement, grid, &moved);
        pdelta.clear();
        adelta.clear();
        #[cfg(debug_assertions)]
        debug_assert!(
            gridx.is_consistent(lib, nl, &placement, grid),
            "grid index diverged from a from-scratch rebuild"
        );
        let round_start_mct = mct_cur;
        let sta_round = inc.mark();
        // One worst path per endpoint (the signoff timer's view), most
        // critical first, capped at the configured K.
        let paths: Vec<TimingPath> = {
            let _s = dme_obs::span("enumerate_paths");
            let (paths, tk) = worst_paths_top_k(&mut inc, cfg.top_k);
            enum_tallies.endpoints_popped += tk.endpoints_popped;
            enum_tallies.stale_discards += tk.stale_discards;
            enum_tallies.endpoints_selected += paths.len() as u64;
            // Golden cross-check (debug builds only): the heap-driven
            // enumeration must equal the full analyze + full walk
            // bitwise — paths, order, and delay/slack bits.
            #[cfg(debug_assertions)]
            {
                let report = analyze(lib, nl, &placement, &assignment);
                debug_assert_eq!(
                    report.mct_ns.to_bits(),
                    mct_cur.to_bits(),
                    "incremental and golden round-start MCT diverged"
                );
                let oracle =
                    dme_sta::worst_paths_per_endpoint_k(nl, &report, &ctx.setup_ns, cfg.top_k);
                debug_assert_eq!(paths.len(), oracle.len(), "path count diverged");
                for (p, o) in paths.iter().zip(&oracle) {
                    debug_assert_eq!(p.instances, o.instances, "path instances diverged");
                    debug_assert_eq!(p.delay_ns.to_bits(), o.delay_ns.to_bits());
                    debug_assert_eq!(p.slack_ns.to_bits(), o.slack_ns.to_bits());
                }
            }
            paths
        };

        // Criticality flags and Eq. (13) weights, plus the cell → path
        // inverted index: accepted swaps bump the swap count of every
        // path containing the swapped critical cell without re-scanning
        // the whole path list. Epoch-stamped and CSR-compiled — no O(n)
        // clearing.
        rscratch.begin_round(&paths);

        let mut round_swaps: Vec<(InstId, InstId)> = Vec::new();

        'paths: for (pi, path) in paths.iter().enumerate() {
            if rscratch.swapped_on_path[pi] >= cfg.max_swapped_per_path {
                continue;
            }
            // Cells ordered by non-increasing weight.
            let mut cells = path.instances.clone();
            cells.sort_by(|a, b| {
                rscratch.weight[b.0 as usize].total_cmp(&rscratch.weight[a.0 as usize])
            });
            'cells: for &cell_l in &cells {
                let li = cell_l.0 as usize;
                if fixed[li] {
                    continue;
                }
                let enum_span = dme_obs::span("enumerate");
                let bl = placement.neighborhood_bbox(lib, nl, cell_l);
                let my_dose = poly.dose_pct[gridx.grid_of(li)];
                // Grids whose centers lie in bl (padded by half a grid
                // pitch), from the banded range query, sorted by dose
                // descending.
                let half_x = 0.5 * grid.pitch_x_um();
                let half_y = 0.5 * grid.pitch_y_um();
                let eb = bl.expanded(half_x.max(half_y));
                let band = grid.rect_band_cells(eb.x_min, eb.x_max, eb.y_min, eb.y_max);
                stats.grid_cell_evals_avoided +=
                    (grid.num_cells() - band.min(grid.num_cells())) as u64;
                let mut cand_grids = grid.cells_in_rect(eb.x_min, eb.x_max, eb.y_min, eb.y_max);
                cand_grids.sort_by(|&a, &b| poly.dose_pct[b].total_cmp(&poly.dose_pct[a]));
                drop(enum_span);
                let _filter_span = dme_obs::span("filter");
                for g in cand_grids {
                    if poly.dose_pct[g] <= my_dose {
                        break;
                    }
                    // Non-critical candidates by distance, each distance
                    // computed once and carried as the sort key. The
                    // index files every cell; criticality is filtered
                    // here at query time (members are ascending by id).
                    let mut nc: Vec<(InstId, f64)> = gridx
                        .members(g)
                        .iter()
                        .copied()
                        .filter(|&m| {
                            !rscratch.is_critical(m.0 as usize)
                                && !fixed[m.0 as usize]
                                && m != cell_l
                        })
                        .map(|m| (m, placement.distance(lib, nl, cell_l, m)))
                        .collect();
                    nc.sort_by(|a, b| a.1.total_cmp(&b.1));
                    for (cell_m, dist) in nc {
                        let mi = cell_m.0 as usize;
                        if dist > max_dist {
                            tallies.distance_cutoffs += 1;
                            break;
                        }
                        swaps_attempted += 1;
                        let bm = placement.neighborhood_bbox(lib, nl, cell_m);
                        let cl = placement.center(lib, nl, cell_l);
                        let cm = placement.center(lib, nl, cell_m);
                        if !bm.contains(cl.0, cl.1) || !bl.contains(cm.0, cm.1) {
                            tallies.rejected_bbox += 1;
                            continue;
                        }
                        if hpwl_delta_frac_cached(&mut cache, lib, nl, &placement, cell_l, cm)
                            > cfg.hpwl_increase_frac
                            || hpwl_delta_frac_cached(&mut cache, lib, nl, &placement, cell_m, cl)
                                > cfg.hpwl_increase_frac
                        {
                            tallies.rejected_hpwl += 1;
                            continue;
                        }
                        // Leakage filter: combined leakage at swapped doses.
                        let dose_l = poly.dose_pct[gridx.grid_of(li)];
                        let dose_m = poly.dose_pct[g];
                        let dl_l = ds * dose_l;
                        let dl_m = ds * dose_m;
                        let master_l = lib.cell(nl.instance(cell_l).cell_idx);
                        let master_m = lib.cell(nl.instance(cell_m).cell_idx);
                        let before = master_l.leakage_nw(tech, dl_l, 0.0)
                            + master_m.leakage_nw(tech, dl_m, 0.0);
                        let after = master_l.leakage_nw(tech, dl_m, 0.0)
                            + master_m.leakage_nw(tech, dl_l, 0.0);
                        if after - before > cfg.leak_increase_frac * before {
                            tallies.rejected_leakage += 1;
                            continue;
                        }
                        // All heuristic filters pass: apply the swap,
                        // re-legalize its rows (the journal records every
                        // coordinate the repack overwrites, evictions
                        // included) and let the incremental timer
                        // arbitrate.
                        swap_evals += 1;
                        let pmark = pdelta.mark();
                        let amark = adelta.mark();
                        placement.swap_cells_tracked(cell_l, cell_m, &mut pdelta);
                        rowindex.sync(&placement, &[cell_l, cell_m]);
                        let rows = [
                            (placement.y_um[li] / placement.row_h_um).round() as usize,
                            (placement.y_um[mi] / placement.row_h_um).round() as usize,
                        ];
                        {
                            let _s = dme_obs::span("repack");
                            placement.repack_rows_indexed(
                                lib,
                                nl,
                                &rows,
                                &mut pdelta,
                                &mut rowindex,
                            );
                        }
                        // Only journal-touched instances can have changed
                        // dose; everyone else's ΔL/ΔW is already correct.
                        let touched = pdelta.touched_since(pmark);
                        {
                            let _s = dme_obs::span("dose_update");
                            for &t in &touched {
                                let ti = t.0 as usize;
                                let (x, y) = placement.center(lib, nl, t);
                                let dl = ds * poly.dose_at_um(x, y);
                                let dw = match active {
                                    Some(am) => ds * am.dose_at_um(x, y),
                                    None => assignment.dw_nm[ti],
                                };
                                adelta.set(&mut assignment, ti, dl, dw);
                            }
                        }
                        stats.assignment_evals_avoided += (n - touched.len().min(n)) as u64;
                        let writes = pdelta.writes_since(pmark) as u64;
                        stats.undo_coord_writes += writes;
                        stats.undo_evals_avoided += (n as u64).saturating_sub(writes);
                        let smark = inc.mark();
                        let cand_mct = {
                            let _s = dme_obs::span("retime_eval");
                            inc.retime_touched(&placement, &assignment, &touched)
                        };
                        if cand_mct >= mct_cur - 1e-12 {
                            // No MCT gain: replay the journals to restore
                            // the exact prior bits — the timing state by
                            // old-value replay, with zero gate evaluations.
                            tallies.rejected_timing += 1;
                            pdelta.undo_to(&mut placement, pmark);
                            rowindex.sync(&placement, &touched);
                            adelta.undo_to(&mut assignment, amark);
                            let _s = dme_obs::span("retime_undo");
                            inc.undo_to(smark);
                            continue;
                        }
                        cache.refresh_for_moved(lib, nl, &placement, &touched);
                        let _commit_span = dme_obs::span("commit");
                        tallies.accepted_provisional += 1;
                        mct_cur = cand_mct;
                        round_swaps.push((cell_l, cell_m));
                        // Update swap counts on every path containing
                        // cell_l via the inverted index.
                        for k in 0..rscratch.paths_of(li).len() {
                            let qi = rscratch.paths_of(li)[k] as usize;
                            rscratch.swapped_on_path[qi] += 1;
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
            dme_obs::record(
                "dosepl_round",
                &[
                    ("round", round as f64),
                    ("candidates", (swaps_attempted - round_attempt_base) as f64),
                    ("swaps", 0.0),
                    ("accepted", 0.0),
                    ("mct_ns", mct_cur),
                ],
            );
            break; // nothing left to try
        }

        // Round decision on the incremental MCT: per-swap gating already
        // updated `assignment` to the current placement, and the timer
        // agrees bitwise with a golden re-analysis of it (checked here in
        // debug builds, and at the final signoff in every build).
        #[cfg(debug_assertions)]
        {
            let signoff = {
                let _s = dme_obs::span("round_signoff");
                analyze(lib, nl, &placement, &assignment)
            };
            debug_assert_eq!(
                signoff.mct_ns.to_bits(),
                mct_cur.to_bits(),
                "incremental and golden round-end MCT diverged"
            );
        }
        let round_mct = mct_cur;
        let round_accepted = round_mct < round_start_mct - 1e-12;
        if round_accepted {
            swaps_accepted += round_swaps.len();
            inc.commit(sta_round);
        } else {
            // Replay the whole round's journals; only the nets of the
            // cells that actually moved need re-caching. The timing state
            // rolls back the same way — old-value replay to the
            // round-start mark. The grid index is re-filed here too (the
            // journal is empty after the replay, so the round-start sync
            // sees nothing). The swapped cells stay frozen from now on.
            tallies.rolled_back += round_swaps.len();
            let touched = pdelta.touched_since(0);
            pdelta.undo_all(&mut placement);
            rowindex.sync(&placement, &touched);
            gridx.sync(lib, nl, &placement, grid, &touched);
            adelta.undo_all(&mut assignment);
            cache.refresh_for_moved(lib, nl, &placement, &touched);
            inc.undo_to(sta_round);
            mct_cur = round_start_mct;
            for &(a, b) in &round_swaps {
                fixed[a.0 as usize] = true;
                fixed[b.0 as usize] = true;
            }
        }
        dme_obs::record(
            "dosepl_round",
            &[
                ("round", round as f64),
                ("candidates", (swaps_attempted - round_attempt_base) as f64),
                ("swaps", round_swaps.len() as f64),
                ("accepted", f64::from(u8::from(round_accepted))),
                ("mct_ns", round_mct),
            ],
        );
    }

    // The incremental assignment must agree bitwise with a from-scratch
    // rebuild at the final placement — the invariant the O(Δ) dose
    // update rests on.
    #[cfg(debug_assertions)]
    {
        let rebuilt = assignment_for_placement(ctx, &placement, poly, active, ds);
        let same = rebuilt
            .dl_nm
            .iter()
            .zip(&assignment.dl_nm)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && rebuilt
                .dw_nm
                .iter()
                .zip(&assignment.dw_nm)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        debug_assert!(
            same,
            "incrementally maintained assignment diverged from rebuild"
        );
    }

    // Report a fresh golden signoff of the placement actually returned,
    // and hold the incremental timer that decided every round to it in
    // every build: the analysis runs anyway, so the check is free.
    let final_report = {
        let _s = dme_obs::span("signoff");
        analyze(lib, nl, &placement, &assignment)
    };
    assert_eq!(
        final_report.mct_ns.to_bits(),
        mct_cur.to_bits(),
        "golden signoff MCT {} ns diverged from the incremental timer's {} ns",
        final_report.mct_ns,
        mct_cur
    );
    let golden_after = GoldenSummary::from_report(&final_report);
    let timer = inc.stats();
    let eval_calls = timer.retime_calls - base_stats.retime_calls;
    let incremental_gate_evals = timer.gates_retimed - base_stats.gates_retimed;
    let full_equivalent_gate_evals = eval_calls * n as u64;
    let incremental_work_ratio = if incremental_gate_evals > 0 {
        full_equivalent_gate_evals as f64 / incremental_gate_evals as f64
    } else {
        0.0
    };
    // The ratio depends on netlist topology and which swaps the run
    // accepted, so it is telemetry, not an invariant: surface a shallow
    // advantage as a warning instead of failing.
    if swap_evals > 0 && incremental_work_ratio < 3.0 {
        dme_obs::warn!(
            "dosepl incremental re-timing advantage is shallow: \
             {incremental_gate_evals} cone gate evals vs {full_equivalent_gate_evals} \
             full-equivalent (ratio {incremental_work_ratio:.2}, expected ≥ 3)"
        );
    }
    let box_stats = cache.stats();
    stats.hpwl_fast_nets = box_stats.fast_nets;
    stats.hpwl_rescans = box_stats.rescans;
    let result = DoseplResult {
        placement,
        assignment,
        golden_before,
        golden_after,
        swaps_attempted,
        swaps_accepted,
        rounds_run,
        swap_evals,
        incremental_gate_evals,
        full_equivalent_gate_evals,
        incremental_work_ratio,
        filter_tallies: tallies,
        delta_stats: stats,
        enum_tallies,
    };
    publish_telemetry(&result);
    result
}

/// Mirrors a run's counts as `dosepl/*` counters and its QoR summary.
fn publish_telemetry(r: &DoseplResult) {
    let t = &r.filter_tallies;
    let d = &r.delta_stats;
    let e = &r.enum_tallies;
    for (name, value) in [
        ("dosepl/swaps_attempted", r.swaps_attempted as u64),
        ("dosepl/swaps_accepted", r.swaps_accepted as u64),
        ("dosepl/swap_evals", r.swap_evals as u64),
        ("dosepl/rounds", r.rounds_run as u64),
        ("dosepl/distance_cutoffs", t.distance_cutoffs as u64),
        ("dosepl/rejected_bbox", t.rejected_bbox as u64),
        ("dosepl/rejected_hpwl", t.rejected_hpwl as u64),
        ("dosepl/rejected_leakage", t.rejected_leakage as u64),
        ("dosepl/rejected_timing", t.rejected_timing as u64),
        ("dosepl/accepted_provisional", t.accepted_provisional as u64),
        ("dosepl/rolled_back", t.rolled_back as u64),
        ("dosepl/enumerate_endpoints_popped", e.endpoints_popped),
        ("dosepl/enumerate_endpoints_selected", e.endpoints_selected),
        ("dosepl/enumerate_stale_discards", e.stale_discards),
        (
            "dosepl/assignment_evals_avoided",
            d.assignment_evals_avoided,
        ),
        ("dosepl/grid_cell_evals_avoided", d.grid_cell_evals_avoided),
        ("dosepl/hpwl_fast_nets", d.hpwl_fast_nets),
        ("dosepl/hpwl_rescans", d.hpwl_rescans),
        ("dosepl/undo_coord_writes", d.undo_coord_writes),
        ("dosepl/undo_evals_avoided", d.undo_evals_avoided),
    ] {
        dme_obs::counter_add(name, value);
    }
    if dme_obs::enabled() {
        dme_obs::set_qor("dosepl/mct_ns", r.golden_after.mct_ns);
        dme_obs::set_qor("dosepl/leakage_uw", r.golden_after.leakage_uw);
        dme_obs::set_qor("dosepl/swaps_accepted", r.swaps_accepted as f64);
        dme_obs::set_qor("dosepl/swaps_attempted", r.swaps_attempted as f64);
        dme_obs::set_qor("dosepl/incremental_work_ratio", r.incremental_work_ratio);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dosepl_oracle::{assert_matches_oracle, dosepl_oracle};
    use crate::optimize::{optimize, DmoptConfig, Layers, Objective};
    use dme_device::Technology;
    use dme_liberty::Library;
    use dme_netlist::{gen, profiles};
    use dme_placement::NetPins;

    /// The γ₃ estimate evaluated from scratch: every incident net's box
    /// is re-folded over its pins, with `cell`'s pins (identified by
    /// ownership, not coordinate) relocated — the oracle the cached
    /// filter must match bitwise.
    fn hpwl_delta_frac_scratch(
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        pins: &NetPins,
        cell: InstId,
        new_center: (f64, f64),
    ) -> f64 {
        let mut before = 0.0;
        let mut after = 0.0;
        for &net in pins.nets_of(cell) {
            before += pins
                .scratch_bbox(lib, nl, placement, net, None)
                .map_or(0.0, |b| b.half_perimeter());
            after += pins
                .scratch_bbox(lib, nl, placement, net, Some((cell, new_center)))
                .map_or(0.0, |b| b.half_perimeter());
        }
        hpwl_frac(before, after)
    }

    #[test]
    fn dosepl_never_degrades_golden_timing() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let dm = optimize(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming { xi_uw: 0.0 },
                grid_g_um: 5.0,
                ..DmoptConfig::default()
            },
        )
        .expect("dmopt");
        let cfg = DoseplConfig {
            top_k: 100,
            rounds: 4,
            swaps_per_round: 2,
            ..DoseplConfig::default()
        };
        let r = dosepl(&ctx, &dm.poly_map, None, -2.0, &cfg);
        assert!(r.golden_after.mct_ns <= r.golden_before.mct_ns + 1e-12);
        assert!(r.rounds_run >= 1);
        // Placement stays legal throughout.
        r.placement.check_legal(&d.netlist, &lib).expect("legal");
        // Per-swap timing never exceeds full re-analysis (the
        // incremental timer walks at most the whole netlist per call),
        // and the work advantage is reported as telemetry. The exact
        // ratio depends on topology and accepted-swap order, so it is
        // not asserted against a fixed threshold here (a shallow ratio
        // surfaces as a warn-level event instead).
        if r.swap_evals > 0 {
            assert!(
                r.incremental_gate_evals <= r.full_equivalent_gate_evals,
                "incremental {} vs full-equivalent {} gate evals",
                r.incremental_gate_evals,
                r.full_equivalent_gate_evals
            );
            assert!(r.incremental_work_ratio >= 1.0);
            let expect = r.full_equivalent_gate_evals as f64 / r.incremental_gate_evals as f64;
            assert!((r.incremental_work_ratio - expect).abs() < 1e-12);
            let t = r.filter_tallies;
            assert_eq!(
                t.rejected_bbox
                    + t.rejected_hpwl
                    + t.rejected_leakage
                    + t.rejected_timing
                    + t.accepted_provisional,
                r.swaps_attempted,
                "every attempted candidate is dispositioned by exactly one filter"
            );
            assert_eq!(t.rejected_timing + t.accepted_provisional, r.swap_evals);
        }
    }

    /// Runs DMopt's QCP (ξ = 0) on the tiny profile, then `dosepl` and
    /// the from-scratch oracle on the resulting maps once per config, and
    /// asserts that each pair agrees bit for bit. Returns the `dosepl`
    /// results in config order.
    fn tiny_runs_match_oracle(layers: Layers, cfgs: &[DoseplConfig]) -> Vec<DoseplResult> {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let dm = optimize(
            &ctx,
            &DmoptConfig {
                objective: Objective::MinTiming { xi_uw: 0.0 },
                grid_g_um: 5.0,
                layers,
                ..DmoptConfig::default()
            },
        )
        .expect("dmopt");
        assert_eq!(dm.active_map.is_some(), layers == Layers::PolyAndActive);
        let active = dm.active_map.as_ref();
        cfgs.iter()
            .map(|cfg| {
                let r = dosepl(&ctx, &dm.poly_map, active, -2.0, cfg);
                let o = dosepl_oracle(&ctx, &dm.poly_map, active, -2.0, cfg);
                assert_matches_oracle(&r, &o);
                r
            })
            .collect()
    }

    /// The O(Δ) candidate loop makes exactly the decisions of the
    /// from-scratch reference (the oracle rebuilds the assignment and runs
    /// a full `analyze` per candidate) on tiny with DMopt maps: poly-only,
    /// and poly + active, where each timed candidate also re-derives ΔW
    /// from the active-layer map.
    #[test]
    fn delta_engine_matches_reference_bitwise() {
        let cfg = DoseplConfig {
            top_k: 100,
            rounds: 4,
            swaps_per_round: 2,
            ..DoseplConfig::default()
        };
        for layers in [Layers::PolyOnly, Layers::PolyAndActive] {
            let r = &tiny_runs_match_oracle(layers, std::slice::from_ref(&cfg))[0];
            if r.swap_evals > 0 {
                // The O(Δ) loop must actually avoid work, not just match.
                assert!(r.delta_stats.assignment_evals_avoided > 0);
                assert!(r.delta_stats.undo_evals_avoided > 0);
            }
        }
    }

    /// The lazy heap top-K enumeration over the incremental timer drives
    /// `dosepl` to the same decisions as the oracle's full `analyze` plus
    /// per-endpoint walk, both when K truncates the endpoint list and
    /// when it does not. Every heap pop is a selection or a stale
    /// discard, and a round selects at most K endpoints.
    #[test]
    fn enum_modes_match_bitwise() {
        let cfgs = [1, 5, 100].map(|top_k| DoseplConfig {
            top_k,
            rounds: 4,
            swaps_per_round: 2,
            ..DoseplConfig::default()
        });
        let runs = tiny_runs_match_oracle(Layers::PolyOnly, &cfgs);
        for (cfg, r) in cfgs.iter().zip(&runs) {
            let e = r.enum_tallies;
            assert_eq!(e.endpoints_popped, e.endpoints_selected + e.stale_discards);
            assert!(e.endpoints_selected <= (cfg.top_k * r.rounds_run) as u64);
        }
        // K = 1 keeps exactly the worst endpoint every round.
        assert_eq!(
            runs[0].enum_tallies.endpoints_selected,
            runs[0].rounds_run as u64
        );
    }

    #[test]
    fn assignment_tracks_cell_positions() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let ctx = OptContext::new(&lib, &d, &p);
        let grid = dme_dosemap::DoseGrid::with_granularity(p.die_w_um, p.die_h_um, 5.0);
        // Left half gets +4%, right half −4%.
        let vals: Vec<f64> = (0..grid.num_cells())
            .map(|g| {
                if grid.cell_center_um(g).0 < p.die_w_um / 2.0 {
                    4.0
                } else {
                    -4.0
                }
            })
            .collect();
        let map = DoseMap::from_values(grid, vals);
        let a = assignment_for_placement(&ctx, &p, &map, None, -2.0);
        for i in 0..ctx.num_instances() {
            let (x, y) = p.center(&lib, &d.netlist, dme_netlist::InstId(i as u32));
            let expect = -2.0 * map.dose_pct[map.grid.cell_of(x, y)];
            assert_eq!(a.dl_nm[i], expect, "instance {i} at ({x}, {y})");
            assert!(a.dl_nm[i].abs() == 8.0);
            assert_eq!(a.dw_nm[i], 0.0);
        }
    }

    #[test]
    fn hpwl_filter_blocks_distant_moves() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let pins = NetPins::build(&d.netlist, &p);
        let cell = dme_netlist::InstId(5);
        let near = p.center(&lib, &d.netlist, cell);
        let delta_stay = hpwl_delta_frac_scratch(&lib, &d.netlist, &p, &pins, cell, near);
        assert!(delta_stay.abs() < 1e-12);
        let far = (p.die_w_um, p.die_h_um);
        let delta_far = hpwl_delta_frac_scratch(&lib, &d.netlist, &p, &pins, cell, far);
        assert!(
            delta_far > 0.1,
            "moving across the die must blow up HPWL: {delta_far}"
        );
        // The cached evaluation answers the same queries bitwise.
        let mut cache = NetBoxCache::build(&lib, &d.netlist, &p);
        for &target in &[near, far, (0.0, 0.0)] {
            let scratch = hpwl_delta_frac_scratch(&lib, &d.netlist, &p, &pins, cell, target);
            let cached = hpwl_delta_frac_cached(&mut cache, &lib, &d.netlist, &p, cell, target);
            assert_eq!(scratch.to_bits(), cached.to_bits(), "target {target:?}");
        }
    }
}
