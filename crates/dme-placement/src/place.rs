//! Global placement: force-directed averaging with sort-based spreading.

use crate::db::Placement;
use crate::legalize::legalize;
use crate::order::ascending;
use dme_liberty::Library;
use dme_netlist::{Design, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Places a design with the default iteration count.
///
/// The flow is: seeded random start → `iters` rounds of (net-centroid
/// averaging, sort-based spreading) → Tetris legalization. Deterministic
/// for a given design.
pub fn place(design: &Design, lib: &Library) -> Placement {
    place_with_iterations(design, lib, 40)
}

/// Places a design with an explicit number of global iterations.
///
/// # Panics
///
/// Panics if the total cell area exceeds the die area (the profile's die
/// is too small for its cell count).
pub fn place_with_iterations(design: &Design, lib: &Library, iters: usize) -> Placement {
    let nl = &design.netlist;
    let mut p = global_start(design, lib);
    let mut pins = PinLists::build(nl, &p.pi_pos);
    // Hierarchical spreading: the bin grid refines geometrically, so early
    // iterations settle the global (coarse) structure and later ones only
    // reshuffle locally — the classic grid-warping recipe. The final pass
    // uses the finest grid, which makes legalization displacement small.
    let max_bins = (nl.num_instances() as f64).sqrt().ceil() as usize;
    for it in 0..iters {
        pins.average(&mut p.x_um, &mut p.y_um);
        let bins = pass_bins(it, max_bins);
        spread(&mut p.x_um, &mut p.y_um, p.die_w_um, p.die_h_um, bins);
    }
    drop(pins);
    legalize(&mut p, nl, lib);
    p
}

/// The die and the seeded start of global placement: x by combinational
/// level, y random, PI pads evenly spaced on the left edge.
fn global_start(design: &Design, lib: &Library) -> Placement {
    let nl = &design.netlist;
    let n = nl.num_instances();
    let tech = lib.tech();
    let die_um = (design.profile.die_area_mm2 * 1e6).sqrt();
    let row_h = 28.0 * tech.lnom_nm / 1000.0;
    let site = 3.08 * tech.lnom_nm / 1000.0;
    let die_h = (die_um / row_h).floor() * row_h;
    let die_w = die_um;

    let cell_area: f64 = nl
        .instances
        .iter()
        .map(|i| lib.cell(i.cell_idx).area_um2())
        .sum();
    assert!(
        cell_area <= die_w * die_h,
        "cell area {cell_area:.0} µm² exceeds die {:.0} µm²",
        die_w * die_h
    );

    let mut rng = StdRng::seed_from_u64(design.profile.seed ^ 0x9E37_79B9_7F4A_7C15);
    // Seed x with the combinational level (signal flow left→right, a
    // standard datapath-placement prior) and y randomly; the averaging
    // iterations then only need to discover the within-level structure.
    let level = comb_levels(nl);
    let max_level = level.iter().copied().max().unwrap_or(1).max(1) as f64;
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let base = level[i] as f64 / max_level;
            (0.02 + 0.96 * base) * die_w + (rng.gen::<f64>() - 0.5) * die_w / max_level
        })
        .collect();
    let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * die_h).collect();

    let n_pi = nl.primary_inputs.len().max(1);
    let pi_pos: Vec<(f64, f64)> = (0..nl.primary_inputs.len())
        .map(|i| (0.0, die_h * (i as f64 + 0.5) / n_pi as f64))
        .collect();

    Placement {
        die_w_um: die_w,
        die_h_um: die_h,
        row_h_um: row_h,
        site_um: site,
        x_um: x,
        y_um: y,
        pi_pos,
    }
}

/// Bin-grid side of global pass `it`: 2 × 1.3^it, capped at √n.
fn pass_bins(it: usize, max_bins: usize) -> usize {
    ((2.0 * 1.3f64.powi(it as i32)).ceil() as usize)
        .min(max_bins)
        .max(2)
}

/// The pins net-centroid averaging reads, built once per placement: pin
/// counts and the net filter never change from pass to pass.
struct PinLists {
    /// Pins of pulling net `k`: `net_pins[net_start[k]..net_start[k + 1]]`,
    /// in the order a scan over instances by ascending id (inputs, then
    /// output) meets them, PI pads last as `n + pad index`.
    net_start: Vec<usize>,
    net_pins: Vec<u32>,
    /// Pin count of pulling net `k` less one: the cell itself is excluded.
    others: Vec<f64>,
    /// Pulling nets of instance `i`, inputs then output:
    /// `inst_nets[inst_start[i]..inst_start[i + 1]]`.
    inst_start: Vec<usize>,
    inst_nets: Vec<u32>,
    pads: Vec<(f64, f64)>,
    /// Per pulling net, this pass's centroid times its pin count.
    scaled: Vec<(f64, f64)>,
}

impl PinLists {
    fn build(nl: &Netlist, pads: &[(f64, f64)]) -> PinLists {
        let flat = nl.flat();
        let n = flat.num_instances();
        let mut count = vec![0u32; nl.num_nets()];
        for i in 0..n {
            for net in flat.pin_nets(i) {
                count[net as usize] += 1;
            }
        }
        for &pi in &nl.primary_inputs {
            count[pi.0 as usize] += 1;
        }
        // Compact index of every pulling net. Huge (clock-like) nets would
        // pull everything together, and a net needs another pin to pull
        // toward.
        let mut slot: Vec<Option<usize>> = vec![None; nl.num_nets()];
        let mut net_start = vec![0];
        for k in 0..nl.num_nets() {
            if flat.sinks(k).len() <= 64 && count[k] >= 2 {
                slot[k] = Some(net_start.len() - 1);
                net_start.push(net_start[net_start.len() - 1] + count[k] as usize);
            }
        }
        let pin = |p: usize| u32::try_from(p).expect("pin ids fit in u32");
        let mut fill = net_start.clone();
        let mut net_pins = vec![0u32; net_start[net_start.len() - 1]];
        let mut inst_start = Vec::with_capacity(n + 1);
        let mut inst_nets = Vec::new();
        inst_start.push(0);
        for i in 0..n {
            for net in flat.pin_nets(i) {
                if let Some(k) = slot[net as usize] {
                    net_pins[fill[k]] = pin(i);
                    fill[k] += 1;
                    inst_nets.push(pin(k));
                }
            }
            inst_start.push(inst_nets.len());
        }
        for (j, &pi) in nl.primary_inputs.iter().enumerate() {
            if let Some(k) = slot[pi.0 as usize] {
                net_pins[fill[k]] = pin(n + j);
                fill[k] += 1;
            }
        }
        let others: Vec<f64> = net_start
            .windows(2)
            .map(|w| (w[1] - w[0] - 1) as f64)
            .collect();
        PinLists {
            scaled: vec![(0.0, 0.0); others.len()],
            net_start,
            net_pins,
            others,
            inst_start,
            inst_nets,
            pads: pads.to_vec(),
        }
    }

    /// One force-directed step: every cell moves toward the mean, over
    /// its pulling nets, of the centroid of each net's *other* pins (with
    /// a damping factor). Every sum runs in a fixed pin order.
    fn average(&mut self, x: &mut [f64], y: &mut [f64]) {
        let n = x.len();
        for (k, scaled) in self.scaled.iter_mut().enumerate() {
            let pins = &self.net_pins[self.net_start[k]..self.net_start[k + 1]];
            let (mut sx, mut sy) = (0.0, 0.0);
            for &p in pins {
                let p = p as usize;
                let (px, py) = if p < n {
                    (x[p], y[p])
                } else {
                    self.pads[p - n]
                };
                sx += px;
                sy += py;
            }
            // The centroid, rounded, scaled back by the pin count.
            let c = pins.len() as f64;
            *scaled = (sx / c * c, sy / c * c);
        }
        const DAMP: f64 = 0.85;
        for i in 0..n {
            let nets = &self.inst_nets[self.inst_start[i]..self.inst_start[i + 1]];
            if nets.is_empty() {
                continue;
            }
            let (mut tx, mut ty) = (0.0, 0.0);
            for &k in nets {
                let k = k as usize;
                let (sx, sy) = self.scaled[k];
                tx += (sx - x[i]) / self.others[k];
                ty += (sy - y[i]) / self.others[k];
            }
            let m = nets.len() as f64;
            x[i] = (1.0 - DAMP) * x[i] + DAMP * tx / m;
            y[i] = (1.0 - DAMP) * y[i] + DAMP * ty / m;
        }
    }
}

/// Combinational depth of every instance (sequential cells sit at their
/// average fanout level so register banks interleave with their logic),
/// walked over the netlist's cached levels and connectivity view: every
/// gate's combinational fanins sit on lower levels.
fn comb_levels(nl: &Netlist) -> Vec<usize> {
    let levels = nl.topo_levels().expect("acyclic netlist");
    let flat = nl.flat();
    let n = flat.num_instances();
    let mut level = vec![0usize; n];
    for &id in levels.levels.iter().flatten() {
        let i = id.0 as usize;
        if flat.is_sequential(i) {
            continue;
        }
        level[i] = flat
            .comb_fanin(i)
            .map(|f| level[f as usize] + 1)
            .max()
            .unwrap_or(1);
    }
    // Sequential cells: place at the mean level of their consumers.
    for i in 0..n {
        if !flat.is_sequential(i) {
            continue;
        }
        let sinks = flat.sinks(flat.output(i) as usize);
        if sinks.is_empty() {
            continue;
        }
        let sum: usize = sinks.iter().map(|&s| level[s as usize]).sum();
        level[i] = sum / sinks.len();
    }
    level
}

/// Hierarchical sort-based spreading into a `bins × bins` grid: cells are
/// split into equal-count columns by x order, each column into equal-count
/// cells by y order, and every bin's members are rescaled into the bin
/// rectangle *preserving their relative positions*. Coarse grids enforce
/// global density without disturbing local structure; the finest grid
/// (bins ≈ √n) produces a near-uniform layout ready for legalization.
///
/// Orders are ascending, ties by id. Each column's y order is the one
/// global y order split stably by column.
///
/// # Panics
///
/// Panics if a coordinate is NaN.
fn spread(x: &mut [f64], y: &mut [f64], die_w: f64, die_h: f64, bins: usize) {
    let n = x.len();
    if n == 0 {
        return;
    }
    let bins = bins.clamp(1, n);
    let per_col = n.div_ceil(bins);
    let mut column = vec![0usize; n];
    for (rank, &i) in ascending(x).iter().enumerate() {
        column[i as usize] = rank / per_col;
    }
    let mut next: Vec<usize> = (0..n.div_ceil(per_col)).map(|c| c * per_col).collect();
    let mut order = vec![0usize; n];
    for &i in &ascending(y) {
        let c = column[i as usize];
        order[next[c]] = i as usize;
        next[c] += 1;
    }
    let bin_w = die_w / bins as f64;
    let bin_h = die_h / bins as f64;
    for (ci, col) in order.chunks(per_col).enumerate() {
        let x0 = ci as f64 * bin_w;
        let per_bin = col.len().div_ceil(bins);
        for (ri, bin) in col.chunks(per_bin).enumerate() {
            let y0 = ri as f64 * bin_h;
            // Rescale members into the bin, preserving relative layout;
            // rank order is the fallback for degenerate extents.
            let (mut minx, mut maxx) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut miny, mut maxy) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in bin {
                minx = minx.min(x[i]);
                maxx = maxx.max(x[i]);
                miny = miny.min(y[i]);
                maxy = maxy.max(y[i]);
            }
            let m = bin.len() as f64;
            for (k, &i) in bin.iter().enumerate() {
                let rx = if maxx - minx > 1e-9 {
                    (x[i] - minx) / (maxx - minx)
                } else {
                    (k as f64 + 0.5) / m
                };
                let ry = if maxy - miny > 1e-9 {
                    (y[i] - miny) / (maxy - miny)
                } else {
                    (k as f64 + 0.5) / m
                };
                x[i] = x0 + (0.05 + 0.9 * rx) * bin_w;
                y[i] = y0 + (0.05 + 0.9 * ry) * bin_h;
            }
        }
    }
}

/// Convenience: total HPWL of a freshly random placement of the same
/// design, for measuring how much the placer helps (used in tests).
#[cfg(test)]
fn random_hpwl(design: &Design, lib: &Library, seed: u64) -> f64 {
    let nl = &design.netlist;
    let die_um = (design.profile.die_area_mm2 * 1e6).sqrt();
    let tech = lib.tech();
    let row_h = 28.0 * tech.lnom_nm / 1000.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = nl.num_instances();
    let n_pi = nl.primary_inputs.len().max(1);
    let p = Placement {
        die_w_um: die_um,
        die_h_um: die_um,
        row_h_um: row_h,
        site_um: 3.08 * tech.lnom_nm / 1000.0,
        x_um: (0..n).map(|_| rng.gen::<f64>() * die_um).collect(),
        y_um: (0..n).map(|_| rng.gen::<f64>() * die_um).collect(),
        pi_pos: (0..nl.primary_inputs.len())
            .map(|i| (0.0, die_um * (i as f64 + 0.5) / n_pi as f64))
            .collect(),
    };
    p.total_hpwl(lib, nl)
}

/// The placer passes as they were before the pin lists and the linear
/// order, kept as the oracle the production passes must match bit for
/// bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::legalize::legalize_in_order;
    use crate::order::sorted_by_comparison;

    /// One force-directed step: every movable cell moves toward the centroid
    /// of the centroids of its incident nets (with a damping factor).
    pub(super) fn average_toward_nets(
        nl: &Netlist,
        pi_pos: &[(f64, f64)],
        x: &mut [f64],
        y: &mut [f64],
    ) {
        // Net centroids from current positions (pads included).
        let mut cx = vec![0.0f64; nl.num_nets()];
        let mut cy = vec![0.0f64; nl.num_nets()];
        let mut cnt = vec![0u32; nl.num_nets()];
        for id in nl.inst_ids() {
            let inst = nl.instance(id);
            let i = id.0 as usize;
            for &net in inst.inputs.iter().chain(std::iter::once(&inst.output)) {
                cx[net.0 as usize] += x[i];
                cy[net.0 as usize] += y[i];
                cnt[net.0 as usize] += 1;
            }
        }
        for (k, &pi) in nl.primary_inputs.iter().enumerate() {
            cx[pi.0 as usize] += pi_pos[k].0;
            cy[pi.0 as usize] += pi_pos[k].1;
            cnt[pi.0 as usize] += 1;
        }
        for i in 0..nl.num_nets() {
            if cnt[i] > 0 {
                cx[i] /= cnt[i] as f64;
                cy[i] /= cnt[i] as f64;
            }
        }
        const DAMP: f64 = 0.85;
        for id in nl.inst_ids() {
            let inst = nl.instance(id);
            let i = id.0 as usize;
            let mut tx = 0.0;
            let mut ty = 0.0;
            let mut m = 0.0f64;
            for &net in inst.inputs.iter().chain(std::iter::once(&inst.output)) {
                let k = net.0 as usize;
                let pins = cnt[k];
                // Skip huge nets (clock-like) — they pull everything together.
                if nl.net(net).sinks.len() > 64 || pins < 2 {
                    continue;
                }
                // Centroid of the *other* pins on the net (self-excluded).
                let ox = (cx[k] * pins as f64 - x[i]) / (pins - 1) as f64;
                let oy = (cy[k] * pins as f64 - y[i]) / (pins - 1) as f64;
                tx += ox;
                ty += oy;
                m += 1.0;
            }
            if m > 0.0 {
                x[i] = (1.0 - DAMP) * x[i] + DAMP * tx / m;
                y[i] = (1.0 - DAMP) * y[i] + DAMP * ty / m;
            }
        }
    }

    /// The placer's level seed over a fresh topological order and
    /// per-gate fanin lists.
    pub(super) fn comb_levels(nl: &Netlist) -> Vec<usize> {
        let order = nl.topo_order().expect("acyclic netlist");
        let mut level = vec![0usize; nl.num_instances()];
        for &id in &order {
            let i = id.0 as usize;
            if nl.instance(id).is_sequential {
                continue;
            }
            level[i] = nl
                .comb_fanin(id)
                .iter()
                .map(|f| level[f.0 as usize] + 1)
                .max()
                .unwrap_or(1);
        }
        for id in nl.inst_ids() {
            let i = id.0 as usize;
            if !nl.instance(id).is_sequential {
                continue;
            }
            let sinks = &nl.net(nl.instance(id).output).sinks;
            if sinks.is_empty() {
                continue;
            }
            let sum: usize = sinks.iter().map(|&(s, _)| level[s.0 as usize]).sum();
            level[i] = sum / sinks.len();
        }
        level
    }

    /// Sort-based spreading by comparison sorts: all cells by x, then
    /// every column by y.
    pub(super) fn spread(x: &mut [f64], y: &mut [f64], die_w: f64, die_h: f64, bins: usize) {
        let n = x.len();
        if n == 0 {
            return;
        }
        let bins = bins.clamp(1, n);
        let per_col = n.div_ceil(bins);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite x").then(a.cmp(&b)));
        let bin_w = die_w / bins as f64;
        let bin_h = die_h / bins as f64;
        for (ci, chunk) in order.chunks(per_col).enumerate() {
            let x0 = ci as f64 * bin_w;
            let mut col: Vec<usize> = chunk.to_vec();
            col.sort_by(|&a, &b| y[a].partial_cmp(&y[b]).expect("finite y").then(a.cmp(&b)));
            let per_bin = col.len().div_ceil(bins);
            for (ri, bin) in col.chunks(per_bin).enumerate() {
                let y0 = ri as f64 * bin_h;
                let minx = bin.iter().map(|&i| x[i]).fold(f64::INFINITY, f64::min);
                let maxx = bin.iter().map(|&i| x[i]).fold(f64::NEG_INFINITY, f64::max);
                let miny = bin.iter().map(|&i| y[i]).fold(f64::INFINITY, f64::min);
                let maxy = bin.iter().map(|&i| y[i]).fold(f64::NEG_INFINITY, f64::max);
                let m = bin.len() as f64;
                for (k, &i) in bin.iter().enumerate() {
                    let rx = if maxx - minx > 1e-9 {
                        (x[i] - minx) / (maxx - minx)
                    } else {
                        (k as f64 + 0.5) / m
                    };
                    let ry = if maxy - miny > 1e-9 {
                        (y[i] - miny) / (maxy - miny)
                    } else {
                        (k as f64 + 0.5) / m
                    };
                    x[i] = x0 + (0.05 + 0.9 * rx) * bin_w;
                    y[i] = y0 + (0.05 + 0.9 * ry) * bin_h;
                }
            }
        }
    }

    /// [`place_with_iterations`] on the oracle passes, legalized in the x
    /// order of a comparison sort.
    pub(super) fn place_with_iterations(design: &Design, lib: &Library, iters: usize) -> Placement {
        let nl = &design.netlist;
        let mut p = global_start(design, lib);
        let max_bins = (nl.num_instances() as f64).sqrt().ceil() as usize;
        for it in 0..iters {
            average_toward_nets(nl, &p.pi_pos, &mut p.x_um, &mut p.y_um);
            let bins = pass_bins(it, max_bins);
            spread(&mut p.x_um, &mut p.y_um, p.die_w_um, p.die_h_um, bins);
        }
        let order = sorted_by_comparison(&p.x_um);
        legalize_in_order(&mut p, nl, lib, &order);
        p
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles, DesignProfile};
    use proptest::prelude::*;

    /// Asserts two placements are equal to the bit (so −0.0 ≠ +0.0).
    fn assert_same_bits(a: &Placement, b: &Placement) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let pads = |v: &[(f64, f64)]| {
            v.iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a.x_um), bits(&b.x_um), "x_um");
        assert_eq!(bits(&a.y_um), bits(&b.y_um), "y_um");
        assert_eq!(pads(&a.pi_pos), pads(&b.pi_pos), "pi_pos");
        assert_eq!(a, b);
    }

    fn matches_oracle(profile: &DesignProfile) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(profile, &lib);
        assert_eq!(comb_levels(&d.netlist), oracle::comb_levels(&d.netlist));
        assert_same_bits(
            &place(&d, &lib),
            &oracle::place_with_iterations(&d, &lib, 40),
        );
    }

    #[test]
    fn placement_matches_oracle_bit_for_bit() {
        matches_oracle(&profiles::tiny());
        matches_oracle(&profiles::small());
        matches_oracle(&profiles::scaling(5000, 8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The production passes match the oracle's on any supported design.
        #[test]
        fn random_placements_match_oracle(profile in common::random_profile()) {
            matches_oracle(&profile);
        }
    }

    /// Every pass matches the oracle's from a start of repeated values,
    /// signed zeros, all-equal x (the degenerate-extent fallback) and
    /// coordinates past the die edge.
    #[test]
    fn passes_match_oracle_on_degenerate_coordinates() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let nl = &d.netlist;
        let mut p = global_start(&d, &lib);
        for (i, (x, y)) in p.x_um.iter_mut().zip(&mut p.y_um).enumerate() {
            *x = [0.0, -0.0][i % 2];
            *y = [-0.0, 7.0, 1e4, -3.0, 0.0][i % 5];
        }
        let (mut xs, mut ys) = (p.x_um.clone(), p.y_um.clone());
        let mut pins = PinLists::build(nl, &p.pi_pos);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bins in [2, 1, 3, 11, 200] {
            spread(&mut p.x_um, &mut p.y_um, p.die_w_um, p.die_h_um, bins);
            oracle::spread(&mut xs, &mut ys, p.die_w_um, p.die_h_um, bins);
            assert_eq!(bits(&p.x_um), bits(&xs), "spread x, bins {bins}");
            assert_eq!(bits(&p.y_um), bits(&ys), "spread y, bins {bins}");
            pins.average(&mut p.x_um, &mut p.y_um);
            oracle::average_toward_nets(nl, &p.pi_pos, &mut xs, &mut ys);
            assert_eq!(bits(&p.x_um), bits(&xs), "average x, bins {bins}");
            assert_eq!(bits(&p.y_um), bits(&ys), "average y, bins {bins}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN coordinate")]
    fn spreading_a_nan_coordinate_panics() {
        let mut x = vec![1.0, f64::NAN, 3.0];
        let mut y = vec![1.0, 2.0, 3.0];
        spread(&mut x, &mut y, 10.0, 10.0, 2);
    }

    #[test]
    fn placement_is_legal() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = place(&d, &lib);
        p.check_legal(&d.netlist, &lib).expect("legal");
    }

    #[test]
    fn placement_beats_random_on_hpwl() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::small(), &lib);
        let p = place(&d, &lib);
        let placed = p.total_hpwl(&lib, &d.netlist);
        let random = random_hpwl(&d, &lib, 1);
        assert!(
            placed < 0.5 * random,
            "placer should at least halve random HPWL: {placed:.0} vs {random:.0}"
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let a = place(&d, &lib);
        let b = place(&d, &lib);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_and_repack_stay_legal() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let mut p = place(&d, &lib);
        let a = dme_netlist::InstId(3);
        let b = dme_netlist::InstId(40);
        let row_a = (p.y_um[a.0 as usize] / p.row_h_um).round() as usize;
        let row_b = (p.y_um[b.0 as usize] / p.row_h_um).round() as usize;
        p.swap_cells(a, b);
        p.repack_rows(&lib, &d.netlist, &[row_a, row_b]);
        p.check_legal(&d.netlist, &lib)
            .expect("legal after swap + repack");
    }

    #[test]
    fn neighborhood_bbox_contains_cell() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = place(&d, &lib);
        for id in d.netlist.inst_ids() {
            let bb = p.neighborhood_bbox(&lib, &d.netlist, id);
            let (cx, cy) = p.center(&lib, &d.netlist, id);
            assert!(bb.contains(cx, cy));
        }
    }

    #[test]
    fn gate_pitch_is_sane() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = place(&d, &lib);
        let pitch = p.gate_pitch_um(&d.netlist);
        assert!(pitch > 0.5 && pitch < 50.0, "pitch = {pitch}");
    }
}
