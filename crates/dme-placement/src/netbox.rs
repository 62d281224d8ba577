//! Cached per-net bounding boxes with O(Δ) what-if queries.
//!
//! The dosePl HPWL filter asks, thousands of times per round, "how would
//! the bounding boxes of this cell's incident nets change if the cell
//! moved here?". Answering from scratch re-walks every pin of every
//! incident net per query. This module keeps the answer incremental:
//!
//! - [`NetPins`] is the static pin structure — per-net pin *owners*
//!   (the driver then the sinks, read from the netlist's connectivity
//!   view [`Netlist::flat`], plus the fixed PI pad when present) and
//!   per-instance deduped incident-net lists with pin multiplicities, in
//!   flat arrays. Pins are identified by the instance that owns them,
//!   never by coordinate equality, so a pin that merely coincides with a
//!   moved cell's center is not dragged along (the identity rule).
//! - [`NetBoxCache`] caches each net's bounding box together with the
//!   *multiplicity of pins on each extreme*. Removing a cell's pins only
//!   requires a rescan when the cell held an extreme alone (a
//!   "shrinking-pin escape"); every other query is O(1) per net.
//!
//! All cached values are bitwise identical to
//! [`BoundingBox::of_points`] over the net's current pins: rescans use
//! the same fold, and `f64::min`/`f64::max` folds over finite,
//! non-negative-zero coordinates are order-independent.

use crate::hpwl::{BoundingBox, BoxFold};
use crate::{PadIndex, Placement};
use dme_liberty::Library;
use dme_netlist::{FlatNetlist, InstId, NetId, Netlist};

/// The instances owning net `k`'s cell pins: its driver, then its sinks
/// (one per sink pin).
fn owners(flat: &FlatNetlist, k: usize) -> impl Iterator<Item = InstId> + '_ {
    let drv = flat.driver(k);
    (drv != FlatNetlist::NO_DRIVER)
        .then_some(drv)
        .into_iter()
        .chain(flat.sinks(k).iter().copied())
        .map(InstId)
}

/// Static pin-ownership structure of a netlist (see module docs): the
/// pads per net and, per instance, its incident nets with multiplicities
/// in compressed sparse rows. A net's owners come from the connectivity
/// view, so nothing here is a per-net or per-instance `Vec`.
#[derive(Debug, Clone)]
pub struct NetPins {
    /// Per net: PI pad position, when the net is a primary input.
    pad: Vec<Option<(f64, f64)>>,
    /// Incident nets of instance `i`, sorted and deduped:
    /// `inst_nets[inst_start[i]..inst_start[i + 1]]`.
    inst_start: Vec<u32>,
    inst_nets: Vec<NetId>,
    /// Pin multiplicity on the matching `inst_nets` entry.
    inst_mult: Vec<u32>,
}

impl NetPins {
    /// Builds the structure in flat passes. Pad positions are read from
    /// `placement` but never move, so the result stays valid across cell
    /// moves.
    ///
    /// An instance's multiplicity on a net is the number of its own pins
    /// (inputs and output) on that net — on any netlist that passes
    /// `Netlist::validate`, exactly how often the instance appears among
    /// the net's owners.
    ///
    /// # Panics
    ///
    /// Panics if the incident-net count does not fit in `u32`.
    pub fn build(nl: &Netlist, placement: &Placement) -> Self {
        let flat = nl.flat();
        let pads = PadIndex::build(nl);
        let pad = (0..nl.num_nets() as u32)
            .map(|k| pads.pad_of(NetId(k)).map(|j| placement.pi_pos[j]))
            .collect();
        let n = flat.num_instances();
        let mut inst_start = Vec::with_capacity(n + 1);
        let mut inst_nets = Vec::new();
        let mut inst_mult = Vec::new();
        inst_start.push(0);
        let mut pins: Vec<u32> = Vec::new();
        for i in 0..n {
            pins.clear();
            pins.extend(flat.pin_nets(i));
            pins.sort_unstable();
            for run in pins.chunk_by(|a, b| a == b) {
                inst_nets.push(NetId(run[0]));
                inst_mult.push(run.len() as u32);
            }
            inst_start.push(u32::try_from(inst_nets.len()).expect("pin counts fit in u32"));
        }
        Self {
            pad,
            inst_start,
            inst_nets,
            inst_mult,
        }
    }

    fn row(&self, inst: InstId) -> std::ops::Range<usize> {
        let i = inst.0 as usize;
        self.inst_start[i] as usize..self.inst_start[i + 1] as usize
    }

    /// The deduped incident nets of an instance (inputs + output).
    pub fn nets_of(&self, inst: InstId) -> &[NetId] {
        &self.inst_nets[self.row(inst)]
    }

    /// Pin multiplicities parallel to [`NetPins::nets_of`].
    pub fn mult_of(&self, inst: InstId) -> &[u32] {
        &self.inst_mult[self.row(inst)]
    }

    /// Number of pins on a net of `nl` (cell pins + PI pad).
    pub fn pin_count(&self, nl: &Netlist, net: NetId) -> usize {
        let k = net.0 as usize;
        owners(nl.flat(), k).count() + usize::from(self.pad[k].is_some())
    }

    /// The box over net `k`'s pad and its owners' pins, each owner at
    /// `at(owner)` or skipped when that is `None`, folded in that order.
    fn fold(
        &self,
        flat: &FlatNetlist,
        k: usize,
        mut at: impl FnMut(InstId) -> Option<(f64, f64)>,
    ) -> Option<BoundingBox> {
        let mut bb = BoxFold::default();
        if let Some(p) = self.pad[k] {
            bb.push(p);
        }
        for o in owners(flat, k) {
            if let Some(p) = at(o) {
                bb.push(p);
            }
        }
        bb.0
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
        self.fold(nl.flat(), net.0 as usize, |o| {
            Some(match moved {
                Some((m, c)) if m == o => c,
                _ => placement.center(lib, nl, o),
            })
        })
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
        self.fold(nl.flat(), net.0 as usize, |o| {
            (o != excluded).then(|| placement.center(lib, nl, o))
        })
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
        let flat = nl.flat();
        let boxes = (0..nl.num_nets())
            .map(|k| Self::compute(&pins, lib, nl, flat, placement, k))
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
        flat: &FlatNetlist,
        placement: &Placement,
        k: usize,
    ) -> Option<CachedBox> {
        let bb = pins.fold(flat, k, |o| Some(placement.center(lib, nl, o)))?;
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
        if let Some(p) = pins.pad[k] {
            count(p);
        }
        for o in owners(flat, k) {
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
        let flat = nl.flat();
        for &net in &nets {
            let k = net.0 as usize;
            self.boxes[k] = Self::compute(&self.pins, lib, nl, flat, placement, k);
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

    /// The owner-count rule `NetPins` used before its flat layout, kept as
    /// the oracle: an instance's incident nets are its pins' nets sorted
    /// and deduped, and its multiplicity on each is how often it appears
    /// among the net's driver and sinks.
    fn owner_count_oracle(nl: &Netlist) -> Vec<(Vec<NetId>, Vec<u32>)> {
        nl.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let id = InstId(i as u32);
                let mut nets: Vec<NetId> = inst.inputs.clone();
                nets.push(inst.output);
                nets.sort_unstable();
                nets.dedup();
                let mult = nets
                    .iter()
                    .map(|&net| {
                        let n = nl.net(net);
                        let sinks = n.sinks.iter().filter(|&&(s, _)| s == id).count();
                        (usize::from(n.driver == Some(id)) + sinks) as u32
                    })
                    .collect();
                (nets, mult)
            })
            .collect()
    }

    #[test]
    fn nets_and_multiplicities_match_the_owner_count_rule() {
        let lib = Library::standard(Technology::n65());
        for profile in [
            profiles::tiny(),
            profiles::small(),
            profiles::scaling(5000, 8),
        ] {
            let d = gen::generate(&profile, &lib);
            let nl = &d.netlist;
            let p = crate::place(&d, &lib);
            let pins = NetPins::build(nl, &p);
            let mut repeated = 0;
            for (i, (nets, mult)) in owner_count_oracle(nl).into_iter().enumerate() {
                let id = InstId(i as u32);
                assert_eq!(
                    pins.nets_of(id),
                    &nets[..],
                    "{}: nets of {id}",
                    profile.name
                );
                assert_eq!(
                    pins.mult_of(id),
                    &mult[..],
                    "{}: mult of {id}",
                    profile.name
                );
                repeated += mult.iter().filter(|&&m| m > 1).count();
            }
            // A net read on two pins of one gate shows up as a multiplicity.
            assert!(repeated > 0, "{}: no repeated pin", profile.name);
            for k in 0..nl.num_nets() {
                let net = NetId(k as u32);
                let n = nl.net(net);
                let want = usize::from(n.driver.is_some())
                    + n.sinks.len()
                    + usize::from(p.pi_pad(nl, net).is_some());
                assert_eq!(pins.pin_count(nl, net), want, "pins of {net}");
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
