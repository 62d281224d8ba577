//! Cached per-net bounding boxes with O(Δ) what-if queries.
//!
//! The dosePl HPWL filter asks, thousands of times per round, "how would
//! the bounding boxes of this cell's incident nets change if the cell
//! moved here?". Answering from scratch re-walks every pin of every
//! incident net per query. This module keeps the answer incremental:
//!
//! - [`NetPins`] is the static pin structure — per-net pin *owners*
//!   (instances, plus the fixed PI pad when present) and per-instance
//!   deduped incident-net lists with pin multiplicities. Pins are
//!   identified by the instance that owns them, never by coordinate
//!   equality, so a pin that merely coincides with a moved cell's center
//!   is not dragged along (the identity rule).
//! - [`NetBoxCache`] caches each net's bounding box together with the
//!   *multiplicity of pins on each extreme*. Removing a cell's pins only
//!   requires a rescan when the cell held an extreme alone (a
//!   "shrinking-pin escape"); every other query is O(1) per net.
//!
//! All cached values are bitwise identical to
//! [`BoundingBox::of_points`] over the net's current pins: rescans use
//! the same fold, and `f64::min`/`f64::max` folds over finite,
//! non-negative-zero coordinates are order-independent.

use crate::hpwl::BoundingBox;
use crate::{PadIndex, Placement};
use dme_liberty::Library;
use dme_netlist::{InstId, NetId, Netlist};

/// Static pin-ownership structure of a netlist (see module docs).
#[derive(Debug, Clone)]
pub struct NetPins {
    /// Per net: PI pad position, when the net is a primary input.
    pad: Vec<Option<(f64, f64)>>,
    /// Per net: owning instance of every cell pin (driver, then sinks).
    owners: Vec<Vec<InstId>>,
    /// Per instance: incident nets, sorted and deduped.
    inst_nets: Vec<Vec<NetId>>,
    /// Per instance: pin multiplicity on the matching `inst_nets` entry.
    inst_mult: Vec<Vec<u32>>,
}

impl NetPins {
    /// Builds the structure. Pad positions are read from `placement` but
    /// never move, so the result stays valid across cell moves.
    pub fn build(nl: &Netlist, placement: &Placement) -> Self {
        let num_nets = nl.num_nets();
        let n = nl.num_instances();
        let pads = PadIndex::build(nl);
        let mut pad = vec![None; num_nets];
        let mut owners: Vec<Vec<InstId>> = vec![Vec::new(); num_nets];
        for net_idx in 0..num_nets {
            let id = NetId(net_idx as u32);
            let net = nl.net(id);
            if let Some(drv) = net.driver {
                owners[net_idx].push(drv);
            }
            pad[net_idx] = pads.pad_of(id).map(|j| placement.pi_pos[j]);
            for &(sink, _) in &net.sinks {
                owners[net_idx].push(sink);
            }
        }
        let mut inst_nets: Vec<Vec<NetId>> = vec![Vec::new(); n];
        let mut inst_mult: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            let id = InstId(i as u32);
            let inst = nl.instance(id);
            let mut nets: Vec<NetId> = inst.inputs.clone();
            nets.push(inst.output);
            nets.sort_unstable();
            nets.dedup();
            let mult = nets
                .iter()
                .map(|&net| owners[net.0 as usize].iter().filter(|&&o| o == id).count() as u32)
                .collect();
            inst_nets[i] = nets;
            inst_mult[i] = mult;
        }
        Self {
            pad,
            owners,
            inst_nets,
            inst_mult,
        }
    }

    /// The deduped incident nets of an instance (inputs + output).
    pub fn nets_of(&self, inst: InstId) -> &[NetId] {
        &self.inst_nets[inst.0 as usize]
    }

    /// Pin multiplicities parallel to [`NetPins::nets_of`].
    pub fn mult_of(&self, inst: InstId) -> &[u32] {
        &self.inst_mult[inst.0 as usize]
    }

    /// Number of pins on a net (cell pins + PI pad).
    pub fn pin_count(&self, net: NetId) -> usize {
        self.owners[net.0 as usize].len() + usize::from(self.pad[net.0 as usize].is_some())
    }

    /// The net's bounding box recomputed from scratch at the current
    /// placement, with `moved`'s pins (if any) relocated to `new_center`.
    /// Pass `moved = None` for the unperturbed box.
    pub fn scratch_bbox(
        &self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        net: NetId,
        moved: Option<(InstId, (f64, f64))>,
    ) -> Option<BoundingBox> {
        let ni = net.0 as usize;
        let mut bb: Option<BoundingBox> = None;
        let mut push = |p: (f64, f64)| match &mut bb {
            None => {
                bb = Some(BoundingBox {
                    x_min: p.0,
                    x_max: p.0,
                    y_min: p.1,
                    y_max: p.1,
                })
            }
            Some(b) => {
                b.x_min = b.x_min.min(p.0);
                b.x_max = b.x_max.max(p.0);
                b.y_min = b.y_min.min(p.1);
                b.y_max = b.y_max.max(p.1);
            }
        };
        if let Some(p) = self.pad[ni] {
            push(p);
        }
        for &o in &self.owners[ni] {
            match moved {
                Some((m, c)) if m == o => push(c),
                _ => push(placement.center(lib, nl, o)),
            }
        }
        bb
    }

    /// Like [`NetPins::scratch_bbox`], but with `excluded`'s pins dropped
    /// entirely (the shrink-escape rescan).
    fn scratch_bbox_excluding(
        &self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        net: NetId,
        excluded: InstId,
    ) -> Option<BoundingBox> {
        let ni = net.0 as usize;
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(self.owners[ni].len() + 1);
        if let Some(p) = self.pad[ni] {
            pts.push(p);
        }
        for &o in &self.owners[ni] {
            if o != excluded {
                pts.push(placement.center(lib, nl, o));
            }
        }
        BoundingBox::of_points(&pts)
    }
}

/// One cached net box: the extremes plus how many pins sit on each.
#[derive(Debug, Clone, Copy)]
struct CachedBox {
    bb: BoundingBox,
    n_xmin: u32,
    n_xmax: u32,
    n_ymin: u32,
    n_ymax: u32,
}

/// Work counters of a [`NetBoxCache`], for the `dosepl/*_evals_avoided`
/// telemetry: `fast_nets` queries were answered from cached extremes,
/// `rescans` needed a pin walk (shrinking-pin escapes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetBoxStats {
    /// What-if queries answered in O(1) from the cached extremes.
    pub fast_nets: u64,
    /// What-if queries that re-walked the net's pins.
    pub rescans: u64,
}

/// Cached per-net bounding boxes over a live placement (see module docs).
#[derive(Debug, Clone)]
pub struct NetBoxCache {
    pins: NetPins,
    boxes: Vec<Option<CachedBox>>,
    stats: NetBoxStats,
    // Scratch net list reused by `refresh_for_moved`.
    scratch_nets: Vec<NetId>,
}

impl NetBoxCache {
    /// Builds the cache consistent with `placement`.
    pub fn build(lib: &Library, nl: &Netlist, placement: &Placement) -> Self {
        let pins = NetPins::build(nl, placement);
        let boxes = (0..nl.num_nets())
            .map(|ni| Self::compute(&pins, lib, nl, placement, NetId(ni as u32)))
            .collect();
        Self {
            pins,
            boxes,
            stats: NetBoxStats::default(),
            scratch_nets: Vec::new(),
        }
    }

    fn compute(
        pins: &NetPins,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        net: NetId,
    ) -> Option<CachedBox> {
        let bb = pins.scratch_bbox(lib, nl, placement, net, None)?;
        let ni = net.0 as usize;
        let mut c = CachedBox {
            bb,
            n_xmin: 0,
            n_xmax: 0,
            n_ymin: 0,
            n_ymax: 0,
        };
        let mut count = |p: (f64, f64)| {
            c.n_xmin += u32::from(p.0 == bb.x_min);
            c.n_xmax += u32::from(p.0 == bb.x_max);
            c.n_ymin += u32::from(p.1 == bb.y_min);
            c.n_ymax += u32::from(p.1 == bb.y_max);
        };
        if let Some(p) = pins.pad[ni] {
            count(p);
        }
        for &o in &pins.owners[ni] {
            count(placement.center(lib, nl, o));
        }
        Some(c)
    }

    /// The static pin structure (shared with from-scratch evaluation).
    pub fn pins(&self) -> &NetPins {
        &self.pins
    }

    /// The cached bounding box of a net (`None` for a pinless net).
    pub fn bbox(&self, net: NetId) -> Option<BoundingBox> {
        self.boxes[net.0 as usize].map(|c| c.bb)
    }

    /// Accumulated query counters.
    pub fn stats(&self) -> NetBoxStats {
        self.stats
    }

    /// The net's bounding box if `inst`'s `mult` pins moved from their
    /// current position to `new_center` — answered from cached extremes,
    /// with a pin rescan only when the cell holds an extreme alone.
    ///
    /// `placement` must be the placement the cache is in sync with.
    #[allow(clippy::too_many_arguments)]
    pub fn bbox_with_moved(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        net: NetId,
        inst: InstId,
        mult: u32,
        new_center: (f64, f64),
    ) -> Option<BoundingBox> {
        let cached = self.boxes[net.0 as usize]?;
        if mult == 0 {
            return Some(cached.bb);
        }
        let old = placement.center(lib, nl, inst);
        let bb = cached.bb;
        let escapes = (old.0 == bb.x_min && cached.n_xmin <= mult)
            || (old.0 == bb.x_max && cached.n_xmax <= mult)
            || (old.1 == bb.y_min && cached.n_ymin <= mult)
            || (old.1 == bb.y_max && cached.n_ymax <= mult);
        let base = if escapes {
            self.stats.rescans += 1;
            self.pins
                .scratch_bbox_excluding(lib, nl, placement, net, inst)
        } else {
            self.stats.fast_nets += 1;
            Some(bb)
        };
        Some(match base {
            None => BoundingBox {
                x_min: new_center.0,
                x_max: new_center.0,
                y_min: new_center.1,
                y_max: new_center.1,
            },
            Some(b) => BoundingBox {
                x_min: b.x_min.min(new_center.0),
                x_max: b.x_max.max(new_center.0),
                y_min: b.y_min.min(new_center.1),
                y_max: b.y_max.max(new_center.1),
            },
        })
    }

    /// Re-derives the cached boxes of every net incident to the given
    /// instances from the (already updated) placement — the commit step
    /// after accepted moves or a rollback. O(Σ pins of touched nets).
    pub fn refresh_for_moved(
        &mut self,
        lib: &Library,
        nl: &Netlist,
        placement: &Placement,
        moved: &[InstId],
    ) {
        let mut nets = std::mem::take(&mut self.scratch_nets);
        nets.clear();
        for &m in moved {
            nets.extend_from_slice(self.pins.nets_of(m));
        }
        nets.sort_unstable();
        nets.dedup();
        for &net in &nets {
            self.boxes[net.0 as usize] = Self::compute(&self.pins, lib, nl, placement, net);
        }
        self.scratch_nets = nets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles};

    #[test]
    fn cache_matches_scratch_and_tracks_moves() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let nl = &d.netlist;
        let mut p = crate::place(&d, &lib);
        let mut cache = NetBoxCache::build(&lib, nl, &p);
        for ni in 0..nl.num_nets() {
            let net = NetId(ni as u32);
            let scratch = cache.pins().scratch_bbox(&lib, nl, &p, net, None);
            match (cache.bbox(net), scratch) {
                (Some(c), Some(s)) => assert_eq!(c, s, "net {ni}"),
                (None, None) => {}
                (c, s) => panic!("net {ni}: cached {c:?} vs scratch {s:?}"),
            }
        }
        // Move a pair, refresh, and re-verify the touched nets.
        let (a, b) = (InstId(2), InstId(11));
        p.swap_cells(a, b);
        cache.refresh_for_moved(&lib, nl, &p, &[a, b]);
        for &m in &[a, b] {
            for &net in cache.pins().nets_of(m).to_vec().iter() {
                let scratch = cache.pins().scratch_bbox(&lib, nl, &p, net, None);
                assert_eq!(cache.bbox(net), scratch);
            }
        }
    }

    #[test]
    fn pads_match_the_pi_scan() {
        let lib = Library::standard(Technology::n65());
        let mut d = gen::generate(&profiles::tiny(), &lib);
        let mut p = crate::place(&d, &lib);
        // Reversed (pad index ≠ net order) and with one PI listed twice,
        // whose second pad must lose to the first.
        d.netlist.primary_inputs.reverse();
        let again = d.netlist.primary_inputs[1];
        d.netlist.primary_inputs.push(again);
        p.pi_pos.push((p.die_w_um, p.die_h_um));
        let pins = NetPins::build(&d.netlist, &p);
        for ni in 0..d.netlist.num_nets() {
            assert_eq!(
                pins.pad[ni],
                p.pi_pad(&d.netlist, NetId(ni as u32)),
                "net {ni}"
            );
        }
    }

    #[test]
    fn what_if_query_matches_scratch() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let nl = &d.netlist;
        let p = crate::place(&d, &lib);
        let mut cache = NetBoxCache::build(&lib, nl, &p);
        let inst = InstId(5);
        let targets = [(0.0, 0.0), (p.die_w_um, p.die_h_um), (3.7, 1.4)];
        for &t in &targets {
            let nets: Vec<NetId> = cache.pins().nets_of(inst).to_vec();
            let mults: Vec<u32> = cache.pins().mult_of(inst).to_vec();
            for (&net, &mult) in nets.iter().zip(&mults) {
                let fast = cache.bbox_with_moved(&lib, nl, &p, net, inst, mult, t);
                let scratch = cache
                    .pins()
                    .scratch_bbox(&lib, nl, &p, net, Some((inst, t)));
                assert_eq!(fast, scratch, "net {net} target {t:?}");
            }
        }
        let s = cache.stats();
        assert!(s.fast_nets + s.rescans > 0);
    }
}
