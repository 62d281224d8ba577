//! Placement database: die geometry and per-instance coordinates.

use crate::delta::PlacementDelta;
use crate::hpwl::{BoundingBox, BoxFold};
use crate::rowindex::RowIndex;
use dme_liberty::Library;
use dme_netlist::{FlatNetlist, InstId, NetId, Netlist};
use std::error::Error;
use std::fmt;

/// A legalization / legality-check failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LegalityError {
    /// Two cells overlap in the same row.
    Overlap {
        /// First instance.
        a: InstId,
        /// Second instance.
        b: InstId,
    },
    /// A cell lies outside the die.
    OutOfDie(InstId),
    /// A cell's y coordinate is not on a row boundary.
    OffRow(InstId),
    /// The die cannot hold the total cell area.
    Overfull {
        /// Total cell area, µm².
        cell_area_um2: f64,
        /// Die area, µm².
        die_area_um2: f64,
    },
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::Overlap { a, b } => write!(f, "cells {a} and {b} overlap"),
            LegalityError::OutOfDie(i) => write!(f, "cell {i} is outside the die"),
            LegalityError::OffRow(i) => write!(f, "cell {i} is not row-aligned"),
            LegalityError::Overfull {
                cell_area_um2,
                die_area_um2,
            } => {
                write!(
                    f,
                    "cell area {cell_area_um2} µm² exceeds die area {die_area_um2} µm²"
                )
            }
        }
    }
}

impl Error for LegalityError {}

/// Per net, the position of its pad in `Netlist::primary_inputs` (and so
/// in [`Placement::pi_pos`]), built once in O(nets + PIs) so that per-net
/// work never scans the PI list. A net listed more than once keeps its
/// first occurrence, as [`Placement::pi_pad`]'s scan does. Four bytes per
/// net.
#[derive(Debug, Clone)]
pub struct PadIndex {
    slot: Vec<u32>,
}

impl PadIndex {
    const NONE: u32 = u32::MAX;

    /// Indexes the primary inputs of a netlist.
    pub fn build(nl: &Netlist) -> Self {
        let mut slot = vec![Self::NONE; nl.num_nets()];
        for (j, &pi) in nl.primary_inputs.iter().enumerate() {
            let s = &mut slot[pi.0 as usize];
            if *s == Self::NONE {
                *s = u32::try_from(j).expect("PI indexes fit in u32");
            }
        }
        Self { slot }
    }

    /// Index of the net's pad in `Netlist::primary_inputs`, if it is a
    /// primary input.
    pub fn pad_of(&self, net: NetId) -> Option<usize> {
        let s = self.slot[net.0 as usize];
        (s != Self::NONE).then_some(s as usize)
    }
}

/// Die geometry plus per-instance lower-left coordinates (µm).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Die width in µm.
    pub die_w_um: f64,
    /// Die height in µm.
    pub die_h_um: f64,
    /// Row height in µm.
    pub row_h_um: f64,
    /// Site (placement grid) width in µm.
    pub site_um: f64,
    /// Per-instance x coordinate (lower-left), µm.
    pub x_um: Vec<f64>,
    /// Per-instance y coordinate (lower-left, row-aligned), µm.
    pub y_um: Vec<f64>,
    /// Pad position per primary-input net (left edge), µm.
    pub pi_pos: Vec<(f64, f64)>,
}

impl Placement {
    /// Center coordinates of an instance, µm.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn center(&self, lib: &Library, nl: &Netlist, id: InstId) -> (f64, f64) {
        let w = lib.cell(nl.instance(id).cell_idx).width_um();
        (
            self.x_um[id.0 as usize] + 0.5 * w,
            self.y_um[id.0 as usize] + 0.5 * self.row_h_um,
        )
    }

    /// Number of rows on the die.
    pub fn num_rows(&self) -> usize {
        (self.die_h_um / self.row_h_um).floor() as usize
    }

    /// Position of the pad of a primary-input net, if it is one.
    pub fn pi_pad(&self, nl: &Netlist, net: NetId) -> Option<(f64, f64)> {
        nl.primary_inputs
            .iter()
            .position(|&n| n == net)
            .map(|i| self.pi_pos[i])
    }

    /// All pin positions of a net: the driver output pin, every sink
    /// input pin, and the PI pad when applicable (pins are cell centers).
    pub fn net_pins(&self, lib: &Library, nl: &Netlist, net: NetId) -> Vec<(f64, f64)> {
        let mut pins = Vec::new();
        let n = nl.net(net);
        if let Some(drv) = n.driver {
            pins.push(self.center(lib, nl, drv));
        }
        if let Some(pad) = self.pi_pad(nl, net) {
            pins.push(pad);
        }
        for &(sink, _) in &n.sinks {
            pins.push(self.center(lib, nl, sink));
        }
        pins
    }

    /// Half-perimeter wirelength of one net, µm.
    pub fn net_hpwl(&self, lib: &Library, nl: &Netlist, net: NetId) -> f64 {
        BoundingBox::of_points(&self.net_pins(lib, nl, net)).map_or(0.0, |b| b.half_perimeter())
    }

    /// [`Placement::net_hpwl`] with the pins read from `flat` (`nl`'s
    /// connectivity view), the pad looked up in a prebuilt [`PadIndex`]
    /// and the box folded in place, in the pin order of
    /// [`Placement::net_pins`] (driver, pad, sinks): O(pins), no
    /// allocation, and bit-identical to `net_hpwl`.
    pub fn net_hpwl_indexed(
        &self,
        lib: &Library,
        nl: &Netlist,
        flat: &FlatNetlist,
        pads: &PadIndex,
        net: NetId,
    ) -> f64 {
        let k = net.0 as usize;
        let mut bb = BoxFold::default();
        let drv = flat.driver(k);
        if drv != FlatNetlist::NO_DRIVER {
            bb.push(self.center(lib, nl, InstId(drv)));
        }
        if let Some(j) = pads.pad_of(net) {
            bb.push(self.pi_pos[j]);
        }
        for &sink in flat.sinks(k) {
            bb.push(self.center(lib, nl, InstId(sink)));
        }
        bb.0.map_or(0.0, |b| b.half_perimeter())
    }

    /// Total HPWL over all nets, µm.
    pub fn total_hpwl(&self, lib: &Library, nl: &Netlist) -> f64 {
        (0..nl.num_nets() as u32)
            .map(|i| self.net_hpwl(lib, nl, NetId(i)))
            .sum()
    }

    /// The dosePl *neighborhood bounding box* of a cell: the bounding box
    /// of the cell itself, all its fanin cells and all its fanout cells
    /// (Fig. 9 of the paper), folded in that order from the netlist's
    /// connectivity view.
    pub fn neighborhood_bbox(&self, lib: &Library, nl: &Netlist, id: InstId) -> BoundingBox {
        let flat = nl.flat();
        let i = id.0 as usize;
        let mut bb = BoxFold::default();
        bb.push(self.center(lib, nl, id));
        for &(drv, _) in flat.fanin(i) {
            if drv != FlatNetlist::NO_DRIVER {
                bb.push(self.center(lib, nl, InstId(drv)));
            }
        }
        for &sink in flat.sinks(flat.output(i) as usize) {
            bb.push(self.center(lib, nl, InstId(sink)));
        }
        bb.0.expect("nonempty point set")
    }

    /// Manhattan distance between two cell centers, µm.
    pub fn distance(&self, lib: &Library, nl: &Netlist, a: InstId, b: InstId) -> f64 {
        let (ax, ay) = self.center(lib, nl, a);
        let (bx, by) = self.center(lib, nl, b);
        (ax - bx).abs() + (ay - by).abs()
    }

    /// Average gate pitch: chip dimension divided by sqrt(gate count) —
    /// the distance unit the paper's dosePl swap-distance threshold uses.
    pub fn gate_pitch_um(&self, nl: &Netlist) -> f64 {
        self.die_w_um.max(self.die_h_um) / (nl.num_instances() as f64).sqrt().max(1.0)
    }

    /// Swaps the positions of two cells (the dosePl move). The swap keeps
    /// row alignment automatically; lateral overlaps introduced by a
    /// width mismatch are resolved by [`Placement::check_legal`]'s caller
    /// re-packing the two rows via [`Placement::repack_rows`].
    pub fn swap_cells(&mut self, a: InstId, b: InstId) {
        self.x_um.swap(a.0 as usize, b.0 as usize);
        self.y_um.swap(a.0 as usize, b.0 as usize);
    }

    /// [`Placement::swap_cells`] with the overwritten coordinates
    /// journaled into `delta` for O(Δ) undo.
    pub fn swap_cells_tracked(&mut self, a: InstId, b: InstId, delta: &mut PlacementDelta) {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if self.x_um[ai].to_bits() != self.x_um[bi].to_bits()
            || self.y_um[ai].to_bits() != self.y_um[bi].to_bits()
        {
            delta.record(a, self.x_um[ai], self.y_um[ai]);
            delta.record(b, self.x_um[bi], self.y_um[bi]);
        }
        self.swap_cells(a, b);
    }

    /// Re-packs every cell in the given rows left-to-right, eliminating
    /// overlaps while preserving order — the ECO legalization used after
    /// dosePl swaps. `rows` are row indices (y / row height). If a swap
    /// made a row overfull (a wider cell arrived), its rightmost cells are
    /// evicted to the nearest row with room before packing.
    ///
    /// # Panics
    ///
    /// Panics if the whole die cannot hold the cells (cannot happen for
    /// placements produced by [`crate::place`]).
    pub fn repack_rows(&mut self, lib: &Library, nl: &Netlist, rows: &[usize]) {
        self.repack_rows_inner(lib, nl, rows, None, None);
    }

    /// [`Placement::repack_rows`] with every coordinate overwrite (swap
    /// evictions included) journaled into `delta` for O(Δ) undo. The
    /// packing itself is identical to the untracked variant.
    ///
    /// # Panics
    ///
    /// Panics if the whole die cannot hold the cells.
    pub fn repack_rows_tracked(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        rows: &[usize],
        delta: &mut PlacementDelta,
    ) {
        self.repack_rows_inner(lib, nl, rows, Some(delta), None);
    }

    /// [`Placement::repack_rows_tracked`] driven by a persistent
    /// [`RowIndex`]: row membership comes from the index instead of the
    /// per-call scan over every instance, making the repack O(Δ). The
    /// index must be in sync with the placement on entry (including the
    /// swap that dirtied `rows` — sync it with the swapped pair first);
    /// on return it is re-synced from the coordinates this call wrote.
    /// The packing is bitwise identical to the scan-based variants.
    ///
    /// # Panics
    ///
    /// Panics if the whole die cannot hold the cells.
    pub fn repack_rows_indexed(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        rows: &[usize],
        delta: &mut PlacementDelta,
        index: &mut RowIndex,
    ) {
        debug_assert!(index.is_consistent(self, nl), "stale row index on entry");
        let mark = delta.mark();
        self.repack_rows_inner(lib, nl, rows, Some(delta), Some(index));
        let touched = delta.touched_since(mark);
        index.sync(self, &touched);
    }

    fn repack_rows_inner(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        rows: &[usize],
        mut delta: Option<&mut PlacementDelta>,
        index: Option<&RowIndex>,
    ) {
        let width = |m: InstId| lib.cell(nl.instance(m).cell_idx).width_um();
        // Row membership and occupied width, gathered only for the rows
        // being repacked (per-row `used` sums accumulate in ascending
        // instance order so the overfull test sees bitwise-stable
        // totals). The full-die picture is completed lazily iff an
        // eviction needs occupancy of other rows — rare, since rows keep
        // distributed slack.
        let nrows = self.num_rows();
        let mut members: Vec<Vec<InstId>> = vec![Vec::new(); nrows];
        let mut used = vec![0.0f64; nrows];
        let mut collected = vec![false; nrows];
        let mut all_collected = false;
        for &r in rows {
            if r < nrows {
                collected[r] = true;
            }
        }
        match index {
            // Index path: membership of just the dirty rows, in the same
            // ascending-id order the scan produces (identical `used`
            // accumulation order, bitwise-stable totals).
            Some(ix) => {
                for &r in rows {
                    if r < nrows && members[r].is_empty() && used[r] == 0.0 {
                        for &i in ix.members(r) {
                            members[r].push(i);
                            used[r] += width(i);
                        }
                    }
                }
            }
            None => {
                for i in nl.inst_ids() {
                    let r = ((self.y_um[i.0 as usize] / self.row_h_um).round() as i64)
                        .clamp(0, nrows as i64 - 1) as usize;
                    if collected[r] {
                        members[r].push(i);
                        used[r] += width(i);
                    }
                }
            }
        }
        let mut dirty: Vec<usize> = rows.to_vec();
        let mut done: Vec<bool> = vec![false; nrows];
        while let Some(r) = dirty.pop() {
            if r >= nrows || done[r] {
                continue;
            }
            done[r] = true;
            if used[r] > self.die_w_um + 1e-9 && !all_collected {
                // Eviction target selection needs every row's occupancy.
                // No cell has changed row yet at this point (prior rows
                // only saw x-only packing), so the entry-time index is
                // still an exact picture of the uncollected rows.
                match index {
                    Some(ix) => {
                        for (rr, row_members) in members.iter_mut().enumerate() {
                            if !collected[rr] {
                                for &i in ix.members(rr) {
                                    row_members.push(i);
                                    used[rr] += width(i);
                                }
                            }
                        }
                    }
                    None => {
                        for i in nl.inst_ids() {
                            let rr = ((self.y_um[i.0 as usize] / self.row_h_um).round() as i64)
                                .clamp(0, nrows as i64 - 1)
                                as usize;
                            if !collected[rr] {
                                members[rr].push(i);
                                used[rr] += width(i);
                            }
                        }
                    }
                }
                collected.iter_mut().for_each(|c| *c = true);
                all_collected = true;
            }
            // Evict rightmost cells while the row is overfull.
            while used[r] > self.die_w_um + 1e-9 {
                let (pos, _) = members[r]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        self.x_um[a.1 .0 as usize].total_cmp(&self.x_um[b.1 .0 as usize])
                    })
                    .expect("overfull row has members");
                let evict = members[r].remove(pos);
                let w = width(evict);
                used[r] -= w;
                let target = (0..nrows)
                    .filter(|&r2| r2 != r && used[r2] + w <= self.die_w_um + 1e-9)
                    .min_by_key(|&r2| r2.abs_diff(r))
                    .expect("die cannot hold the cells");
                let ex = self.x_um[evict.0 as usize];
                self.write_coords(evict, ex, target as f64 * self.row_h_um, &mut delta);
                members[target].push(evict);
                used[target] += w;
                done[target] = false;
                dirty.push(target);
            }
            // Pack the row preserving x order and (where possible) the
            // cells' current positions.
            let mut row_cells = members[r].clone();
            row_cells.sort_by(|&a, &b| {
                self.x_um[a.0 as usize]
                    .total_cmp(&self.x_um[b.0 as usize])
                    .then(a.cmp(&b))
            });
            self.pack_row(lib, nl, &row_cells, r, &mut delta);
        }
    }

    /// Packs one row's cells (already sorted by ascending x, ties by id):
    /// a forward pass resolves overlaps left-to-right while keeping every
    /// non-overlapping cell at its current position (gaps are preserved,
    /// not compacted), then a backward pass clamps overhang at the right
    /// die edge. Final coordinates are computed in scratch and written
    /// once per cell, so cells whose position is unchanged never touch
    /// the journal — the undo cost and the downstream re-timing cone are
    /// proportional to the cells that genuinely moved.
    pub(crate) fn pack_row(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        row_cells: &[InstId],
        r: usize,
        delta: &mut Option<&mut PlacementDelta>,
    ) {
        let width = |m: InstId| lib.cell(nl.instance(m).cell_idx).width_um();
        let y = r as f64 * self.row_h_um;
        // Forward pack preserving x order, then clamp back from the
        // right edge (the row fits, so this cannot underflow 0).
        let mut xs: Vec<f64> = Vec::with_capacity(row_cells.len());
        let mut cursor = 0.0f64;
        for &m in row_cells {
            let w = width(m);
            let desired = self.x_um[m.0 as usize].max(cursor);
            let x = snap(desired, self.site_um)
                .min(self.die_w_um - w)
                .max(cursor);
            xs.push(x);
            cursor = x + w;
        }
        let mut limit = self.die_w_um;
        for (k, &m) in row_cells.iter().enumerate().rev() {
            let w = width(m);
            let x = xs[k].min(snap(limit - w, self.site_um)).max(0.0);
            xs[k] = x;
            limit = x;
        }
        for (k, &m) in row_cells.iter().enumerate() {
            self.write_coords(m, xs[k], y, delta);
        }
    }

    /// Writes an instance's coordinates, journaling the prior values when
    /// they actually change (bitwise). Writing identical bits is skipped,
    /// so tracked and untracked packing leave identical state.
    fn write_coords(
        &mut self,
        id: InstId,
        x: f64,
        y: f64,
        delta: &mut Option<&mut PlacementDelta>,
    ) {
        let i = id.0 as usize;
        if self.x_um[i].to_bits() == x.to_bits() && self.y_um[i].to_bits() == y.to_bits() {
            return;
        }
        if let Some(d) = delta.as_deref_mut() {
            d.record(id, self.x_um[i], self.y_um[i]);
        }
        self.x_um[i] = x;
        self.y_um[i] = y;
    }

    /// Checks legality: row alignment, die bounds, no overlaps.
    ///
    /// # Errors
    ///
    /// Returns the first [`LegalityError`] found.
    pub fn check_legal(&self, nl: &Netlist, lib: &Library) -> Result<(), LegalityError> {
        let rows = self.num_rows();
        let mut per_row: Vec<Vec<(f64, f64, InstId)>> = vec![Vec::new(); rows];
        for id in nl.inst_ids() {
            let i = id.0 as usize;
            let w = lib.cell(nl.instance(id).cell_idx).width_um();
            let (x, y) = (self.x_um[i], self.y_um[i]);
            let r = y / self.row_h_um;
            if (r - r.round()).abs() > 1e-6 {
                return Err(LegalityError::OffRow(id));
            }
            let r = r.round() as i64;
            if r < 0 || r as usize >= rows || x < -1e-6 || x + w > self.die_w_um + 1e-6 {
                return Err(LegalityError::OutOfDie(id));
            }
            per_row[r as usize].push((x, x + w, id));
        }
        for row in &mut per_row {
            row.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite coordinates"));
            for pair in row.windows(2) {
                if pair[0].1 > pair[1].0 + 1e-6 {
                    return Err(LegalityError::Overlap {
                        a: pair[0].2,
                        b: pair[1].2,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Snaps a coordinate down to the site grid. A small epsilon keeps
/// values that are already on the grid (up to floating-point noise) from
/// flooring down a whole site.
pub(crate) fn snap(x: f64, site: f64) -> f64 {
    (x / site + 1e-6).floor() * site
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles, DesignProfile};

    /// Every net's in-place box equals the `net_pins` + `of_points` one
    /// bit for bit.
    fn assert_indexed_hpwl_matches(lib: &Library, nl: &Netlist, p: &Placement) {
        let pads = PadIndex::build(nl);
        for i in 0..nl.num_nets() as u32 {
            let net = NetId(i);
            assert_eq!(pads.pad_of(net).map(|j| p.pi_pos[j]), p.pi_pad(nl, net));
            assert_eq!(
                p.net_hpwl_indexed(lib, nl, nl.flat(), &pads, net).to_bits(),
                p.net_hpwl(lib, nl, net).to_bits(),
                "net {i}"
            );
        }
    }

    fn placed(profile: &DesignProfile) -> (Library, dme_netlist::Design, Placement) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(profile, &lib);
        let p = crate::place(&d, &lib);
        (lib, d, p)
    }

    #[test]
    fn indexed_hpwl_matches_net_hpwl_bitwise() {
        for profile in [
            profiles::tiny(),
            profiles::small(),
            profiles::scaling(5000, 8),
        ] {
            let (lib, d, p) = placed(&profile);
            assert_indexed_hpwl_matches(&lib, &d.netlist, &p);
        }
    }

    #[test]
    fn indexed_hpwl_follows_the_pi_list_order() {
        // Reversed, the pad index of a PI net no longer follows its net id.
        let (lib, mut d, p) = placed(&profiles::tiny());
        d.netlist.primary_inputs.reverse();
        assert!(d.netlist.primary_inputs.len() > 1);
        assert_indexed_hpwl_matches(&lib, &d.netlist, &p);
    }

    #[test]
    fn indexed_hpwl_keeps_the_first_of_a_repeated_pi() {
        // A PI net listed twice takes its first pad; the second sits in
        // the far corner, so the wrong one would change the box.
        let (lib, mut d, mut p) = placed(&profiles::tiny());
        let again = d.netlist.primary_inputs[1];
        d.netlist.primary_inputs.push(again);
        p.pi_pos.push((p.die_w_um, p.die_h_um));
        let pads = PadIndex::build(&d.netlist);
        assert_eq!(pads.pad_of(again), Some(1));
        assert_indexed_hpwl_matches(&lib, &d.netlist, &p);
    }
}
