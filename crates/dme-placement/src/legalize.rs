//! Displacement-preserving Tetris legalization.

use crate::db::Placement;
use crate::order::ascending;
use dme_liberty::Library;
use dme_netlist::{InstId, Netlist};

/// Legalizes a global placement in place. Cells are processed in x order
/// and assigned to the row closest to their global position that still
/// has capacity ("Tetris" row choice), but within a row each cell keeps
/// its global x where possible: rows are packed with the same
/// forward-resolve / right-edge-clamp pass the incremental repack uses,
/// so gaps between cells survive legalization instead of being
/// compacted away. The distributed slack matters downstream — a
/// width-mismatched swap is absorbed by the few cells next to the gap
/// rather than rippling the whole row tail, which keeps the re-timing
/// cone of an ECO small. Guarantees row alignment, die containment and
/// zero overlap provided total cell width fits the rows.
///
/// # Panics
///
/// Panics if a coordinate is NaN or the rows cannot hold the cells.
pub fn legalize(p: &mut Placement, nl: &Netlist, lib: &Library) {
    let _span = dme_obs::span("legalize");
    let order = ascending(&p.x_um);
    legalize_in_order(p, nl, lib, &order);
}

/// [`legalize`] with the cells' ascending x order (ties by id) given.
pub(crate) fn legalize_in_order(p: &mut Placement, nl: &Netlist, lib: &Library, order: &[u32]) {
    let rows = p.num_rows().max(1);
    let mut used = vec![0.0f64; rows]; // total cell width assigned per row
    let mut members: Vec<Vec<InstId>> = vec![Vec::new(); rows];

    for &i in order {
        let i = i as usize;
        let w = lib.cell(nl.instances[i].cell_idx).width_um();
        let want_row = ((p.y_um[i] / p.row_h_um).round() as i64).clamp(0, rows as i64 - 1) as usize;
        // Probe outward in y from the wanted row; take the nearest row
        // with remaining capacity (below-row wins ties for determinism).
        let mut chosen: Option<usize> = None;
        'probe: for dr in 0..rows {
            for row in [want_row as i64 - dr as i64, want_row as i64 + dr as i64] {
                if row < 0 || row >= rows as i64 || (dr == 0 && row != want_row as i64) {
                    continue;
                }
                let row = row as usize;
                if used[row] + w > p.die_w_um + 1e-9 {
                    continue;
                }
                chosen = Some(row);
                break 'probe;
            }
        }
        let row = chosen.expect("legalization failed: total cell width exceeds row capacity");
        used[row] += w;
        members[row].push(InstId(i as u32));
        p.y_um[i] = row as f64 * p.row_h_um;
    }

    // Members were pushed in ascending global-x order (ties by id), which
    // is exactly the order pack_row expects.
    for (r, row_cells) in members.iter().enumerate() {
        p.pack_row(lib, nl, row_cells, r, &mut None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn legalize_fixes_random_positions() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let die = (profiles::tiny().die_area_mm2 * 1e6).sqrt();
        let row_h = 28.0 * 65.0 / 1000.0;
        let mut rng = StdRng::seed_from_u64(3);
        let n = d.netlist.num_instances();
        let mut p = Placement {
            die_w_um: die,
            die_h_um: (die / row_h).floor() * row_h,
            row_h_um: row_h,
            site_um: 3.08 * 65.0 / 1000.0,
            x_um: (0..n).map(|_| rng.gen::<f64>() * die).collect(),
            y_um: (0..n).map(|_| rng.gen::<f64>() * die).collect(),
            pi_pos: d
                .netlist
                .primary_inputs
                .iter()
                .map(|_| (0.0, 0.0))
                .collect(),
        };
        legalize(&mut p, &d.netlist, &lib);
        p.check_legal(&d.netlist, &lib)
            .expect("legal after legalization");
    }

    #[test]
    fn legalization_preserves_rough_location() {
        // A cell in the middle of an empty die should stay close to where
        // global placement put it.
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p0 = crate::place::place_with_iterations(&d, &lib, 12);
        // Average displacement between pre-snap grid position and final
        // position should be far below the die dimension.
        let die = p0.die_w_um;
        let mut total = 0.0;
        for i in 0..d.netlist.num_instances() {
            // Rows are dense; just sanity-check everything is in-die.
            assert!(p0.x_um[i] >= 0.0 && p0.x_um[i] <= die);
            total += p0.y_um[i];
        }
        assert!(total > 0.0, "cells collapsed to the bottom row");
    }
}
