//! Persistent cell → dose-grid index for the dosePl candidate loop.
//!
//! dosePl used to rebuild its per-grid candidate lists from scratch at
//! every round start — an O(n) pass over all instances. [`GridIndex`]
//! instead keeps the membership across rounds and re-files only the
//! cells the placement journal reports as moved, mirroring the
//! `RowIndex` design in `dme-placement`: per-grid member lists sorted
//! ascending by instance id (the enumeration order the from-scratch
//! build produces), plus the reverse `grid_of` map.
//!
//! Sync happens at round boundaries only. Mid-round the index is
//! intentionally stale: a dosePl round picks its candidates by the grid
//! membership at round start (as the from-scratch test oracle does, from
//! positions it captures then), and candidate selection must stay
//! bitwise identical to that.

use dme_dosemap::DoseGrid;
use dme_liberty::Library;
use dme_netlist::{InstId, Netlist};
use dme_placement::Placement;

/// Per-grid member lists (all cells, ascending id) plus the reverse
/// cell → grid map (see module docs).
pub(crate) struct GridIndex {
    members: Vec<Vec<InstId>>,
    grid_of: Vec<u32>,
}

impl GridIndex {
    /// Builds the index with one O(n) pass, once per dosePl run.
    pub fn build(lib: &Library, nl: &Netlist, placement: &Placement, grid: &DoseGrid) -> Self {
        let mut members = vec![Vec::new(); grid.num_cells()];
        let mut grid_of = vec![0; nl.num_instances()];
        for (i, slot) in grid_of.iter_mut().enumerate() {
            let id = InstId(i as u32);
            let (x, y) = placement.center(lib, nl, id);
            let g = grid.cell_of(x, y);
            *slot = g as u32;
            members[g].push(id); // ascending id by construction
        }
        Self { members, grid_of }
    }

    /// Dose-grid cell the instance was filed under at the last sync.
    #[inline]
    pub fn grid_of(&self, i: usize) -> usize {
        self.grid_of[i] as usize
    }

    /// Members of a grid cell, ascending by instance id.
    #[inline]
    pub fn members(&self, g: usize) -> &[InstId] {
        &self.members[g]
    }

    /// Re-files the given cells at their current positions — O(|touched|
    /// · log members) instead of the O(n) rebuild. `touched` must cover
    /// every cell that moved since the last sync (duplicates and
    /// unmoved cells are fine); under-reporting desynchronizes the
    /// index exactly like `RowIndex`.
    pub fn sync(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        grid: &DoseGrid,
        touched: &[InstId],
    ) {
        for &id in touched {
            let i = id.0 as usize;
            let (x, y) = placement.center(lib, nl, id);
            let g = grid.cell_of(x, y) as u32;
            let old = self.grid_of[i];
            if old == g {
                continue;
            }
            let old_list = &mut self.members[old as usize];
            let pos = old_list
                .binary_search(&id)
                .expect("instance indexed in its grid");
            old_list.remove(pos);
            let new_list = &mut self.members[g as usize];
            let pos = new_list
                .binary_search(&id)
                .expect_err("instance filed in two grids");
            new_list.insert(pos, id);
            self.grid_of[i] = g;
        }
    }

    /// Debug oracle: whether the index equals a from-scratch build at
    /// the current positions.
    #[cfg(any(debug_assertions, test))]
    pub fn is_consistent(
        &self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        grid: &DoseGrid,
    ) -> bool {
        let fresh = Self::build(lib, nl, placement, grid);
        fresh.grid_of == self.grid_of && fresh.members == self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles};

    fn setup() -> (Library, dme_netlist::Design, Placement, DoseGrid) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        let grid = DoseGrid::with_granularity(p.die_w_um, p.die_h_um, 5.0);
        (lib, d, p, grid)
    }

    #[test]
    fn build_files_every_cell_once_in_ascending_order() {
        let (lib, d, p, grid) = setup();
        let idx = GridIndex::build(&lib, &d.netlist, &p, &grid);
        let mut seen = 0usize;
        for g in 0..grid.num_cells() {
            let m = idx.members(g);
            seen += m.len();
            for w in m.windows(2) {
                assert!(w[0] < w[1], "members must be ascending");
            }
            for &id in m {
                assert_eq!(idx.grid_of(id.0 as usize), g);
            }
        }
        assert_eq!(seen, d.netlist.num_instances());
    }

    #[test]
    fn sync_tracks_journaled_moves_like_a_rebuild() {
        let (lib, d, mut p, grid) = setup();
        let n = d.netlist.num_instances();
        let mut idx = GridIndex::build(&lib, &d.netlist, &p, &grid);
        let mut pd = dme_placement::PlacementDelta::new();
        // Swap + repack sequences, syncing from the journal each round
        // the way dosePl does.
        for step in 0..5u32 {
            let mark = pd.mark();
            let (a, b) = (
                InstId((step * 5 + 1) % n as u32),
                InstId((step * 11 + 3) % n as u32),
            );
            if a != b {
                p.swap_cells_tracked(a, b, &mut pd);
                let rows = [
                    (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
                    (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
                ];
                p.repack_rows_tracked(&lib, &d.netlist, &rows, &mut pd);
            }
            let touched = pd.touched_since(mark);
            idx.sync(&lib, &d.netlist, &p, &grid, &touched);
            assert!(
                idx.is_consistent(&lib, &d.netlist, &p, &grid),
                "step {step}"
            );
        }
        // Round-style rollback: capture the touched set before the
        // journal replays (and empties) itself, then re-file those
        // cells at their restored positions.
        let moved = pd.touched_since(0);
        pd.undo_all(&mut p);
        idx.sync(&lib, &d.netlist, &p, &grid, &moved);
        assert!(idx.is_consistent(&lib, &d.netlist, &p, &grid));
    }

    #[test]
    fn sync_with_unmoved_cells_is_a_noop() {
        let (lib, d, p, grid) = setup();
        let idx_before = GridIndex::build(&lib, &d.netlist, &p, &grid);
        let mut idx = GridIndex::build(&lib, &d.netlist, &p, &grid);
        let all: Vec<InstId> = (0..d.netlist.num_instances() as u32).map(InstId).collect();
        idx.sync(&lib, &d.netlist, &p, &grid, &all);
        assert_eq!(idx.members, idx_before.members);
        assert_eq!(idx.grid_of, idx_before.grid_of);
    }
}
