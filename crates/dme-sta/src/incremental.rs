//! Incremental late-corner re-timing for move/re-dose perturbations.
//!
//! [`IncrementalSta`] owns a mirror of the inputs it was last timed at
//! (cell positions and geometry deltas) plus the full late-pass state
//! (net loads, wire delays, arrivals, slews). Two entry points keep that
//! state current:
//!
//! - [`IncrementalSta::retime`] (pull): diffs the new
//!   placement/assignment against the mirror over **all** cells, then
//!   re-times the affected cone. O(n) per call regardless of how small
//!   the perturbation is; kept as the costed oracle path.
//! - [`IncrementalSta::retime_touched`] (push): the caller names the
//!   cells it perturbed (straight from its placement/assignment
//!   journals), so the diff is O(|touched|) and the whole call is
//!   O(cone). Scratch marks are epoch-stamped and reused across calls —
//!   no per-call O(n) allocation — and the MCT is answered from a
//!   lazily-maintained max structure over per-endpoint contributions
//!   instead of an O(n) endpoint scan.
//!
//! The initial state comes from the same level-parallel late pass
//! [`crate::analyze`] runs ([`engine::late_pass`]), and every later
//! per-net and per-gate evaluation goes through the same functions as
//! that pass ([`engine::net_props`] and [`engine::late_gate`]), so after
//! any sequence of `retime` / `retime_touched` calls the arrival/slew
//! state — and therefore the reported MCT — is **bitwise identical** to a
//! from-scratch analysis of the current inputs. For the push path this
//! relies on the caller's contract: `touched` must cover every cell whose
//! position or dose changed since the last call.
//!
//! For trial-and-reject loops the engine also keeps an undo journal:
//! [`IncrementalSta::mark`] before a speculative retime,
//! [`IncrementalSta::undo_to`] to restore the pre-trial state bitwise by
//! replaying old slot values — O(cone) and **zero** gate evaluations,
//! where re-timing back to the old inputs would evaluate the cone a
//! second time.

use crate::engine::{self, GeometryAssignment, StaMode};
use crate::wire::WireModel;
use dme_liberty::{Library, VariantCache};
use dme_netlist::{FlatNetlist, InstId, Netlist, TopoLevels};
use dme_placement::{PadIndex, Placement};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Work counters of an [`IncrementalSta`], for comparing incremental
/// against full-analysis cost in hardware-independent units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetimeStats {
    /// `retime`/`retime_touched` invocations (including the implicit
    /// full pass in `new`).
    pub retime_calls: u64,
    /// Gate evaluations performed (NLDM lookups — the dominant cost).
    /// A full analysis evaluates every instance once per pass.
    pub gates_retimed: u64,
    /// Net load/wire-delay recomputations performed.
    pub nets_updated: u64,
}

impl RetimeStats {
    /// Gate evaluations a sequence of full re-analyses would have spent
    /// on the same `retime_calls` (one evaluation per instance per call).
    pub fn full_equivalent_gates(&self, num_instances: usize) -> u64 {
        self.retime_calls * num_instances as u64
    }
}

/// Work counters of one [`IncrementalSta::worst_endpoints_top_k`]
/// selection, for comparing lazy top-K extraction against the full
/// endpoint sort it replaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Heap entries popped (selected live entries plus discards).
    pub endpoints_popped: u64,
    /// Popped entries dropped for good: contributions superseded by a
    /// later retime, or duplicate live entries left behind by undo
    /// replay. Discarding is the lazy structure's garbage collection.
    pub stale_discards: u64,
}

/// Journal position returned by [`IncrementalSta::mark`]; pass it back
/// to [`IncrementalSta::undo_to`] / [`IncrementalSta::commit`].
#[derive(Debug, Clone, Copy)]
pub struct StaMark(usize);

/// Which state slot a journal entry restores.
#[derive(Debug, Clone, Copy)]
enum Slot {
    NetLoad,
    NetDelay,
    Arrival,
    InSlew,
    OutSlew,
    GateDelay,
    Load,
    MirX,
    MirY,
    MirDl,
    MirDw,
    EpContrib,
}

#[derive(Debug, Clone, Copy)]
struct JEntry {
    slot: Slot,
    idx: u32,
    old: f64,
}

/// Total-order f64 wrapper so endpoint contributions can live in a
/// `BinaryHeap` (contributions are never NaN).
#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Compressed sparse rows: `of(k)` lists the items filed under key `k`.
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn build(num_keys: usize, pairs: &[(u32, u32)]) -> Self {
        let mut start = vec![0u32; num_keys + 1];
        for &(k, _) in pairs {
            start[k as usize + 1] += 1;
        }
        for i in 0..num_keys {
            start[i + 1] += start[i];
        }
        let mut items = vec![0u32; pairs.len()];
        let mut cursor = start.clone();
        for &(k, v) in pairs {
            let c = &mut cursor[k as usize];
            items[*c as usize] = v;
            *c += 1;
        }
        Csr { start, items }
    }

    #[inline]
    fn of(&self, k: usize) -> &[u32] {
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// Incrementally maintained late-corner timing state (see the module
/// docs for the contract).
pub struct IncrementalSta<'a> {
    lib: &'a Library,
    nl: &'a Netlist,
    // The netlist's connectivity view, fetched once at construction.
    flat: &'a FlatNetlist,
    wire: WireModel,
    pads: PadIndex,
    // Variants characterized so far; the retime path resolves the
    // re-timed gates' ids through `&mut self`.
    cache: VariantCache<'a>,
    // Level decomposition, resolved once at construction (no
    // `topo_levels()` in the hot path).
    levels: &'a TopoLevels,
    // Mirror of the inputs the state below was computed at.
    x_um: Vec<f64>,
    y_um: Vec<f64>,
    dl_nm: Vec<f64>,
    dw_nm: Vec<f64>,
    // Late-pass state, always consistent with the mirror.
    net_load_ff: Vec<f64>,
    net_wire_delay: Vec<f64>,
    arrival: Vec<f64>,
    in_slew: Vec<f64>,
    out_slew: Vec<f64>,
    gate_delay: Vec<f64>,
    load: Vec<f64>,
    // Epoch-stamped scratch, reused across calls (a slot is "set" for
    // the current call iff its stamp equals `epoch`).
    epoch: u64,
    net_mark: Vec<u64>,
    cone_mark: Vec<u64>,
    ep_mark: Vec<u64>,
    dirty_nets: Vec<u32>,
    dirty_gates: Vec<InstId>,
    dirty_eps: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    // Incremental MCT: one contribution per timing endpoint (FF data
    // pins, then primary outputs), reverse indexes from the inputs a
    // contribution depends on, and a lazy max-heap over contributions
    // (stale entries are discarded at query time). Ties break toward
    // the lower endpoint index so top-K pops reproduce the stable
    // delay-descending endpoint sort of `worst_path_per_endpoint`.
    ep_drv: Vec<u32>,
    ep_net: Vec<u32>, // u32::MAX for primary-output endpoints
    ep_setup: Vec<f64>,
    ep_contrib: Vec<f64>,
    eps_of_inst: Csr,
    eps_of_net: Csr,
    mct_heap: BinaryHeap<(OrdF64, Reverse<u32>)>,
    // Epoch-stamped dedup marks for `worst_endpoints_top_k` (an endpoint
    // can carry several live heap entries after undo replay).
    topk_mark: Vec<u64>,
    topk_epoch: u64,
    // Undo journal (armed by trial-and-reject callers).
    journal: Vec<JEntry>,
    journal_armed: bool,
    stats: RetimeStats,
}

impl<'a> IncrementalSta<'a> {
    /// Builds the engine with a full late pass at the given inputs — the
    /// same level-parallel pass [`crate::analyze`] runs, so the state is
    /// bitwise identical to its arrivals and slews.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle, the assignment
    /// length does not match the instance count, or an instance's ΔL or
    /// ΔW is not finite.
    pub fn new(
        lib: &'a Library,
        nl: &'a Netlist,
        placement: &Placement,
        doses: &GeometryAssignment,
    ) -> Self {
        assert_eq!(
            doses.len(),
            nl.num_instances(),
            "assignment/netlist size mismatch"
        );
        let n = nl.num_instances();
        let levels = nl.topo_levels().expect("combinational cycle");
        let flat = nl.flat();

        // Endpoint table: FF data pins (in instance order), then primary
        // outputs (in list order). Endpoints whose net has no driver
        // never contribute to the MCT and are simply not tabulated.
        let tech = lib.tech();
        let times = engine::setup_hold_by_master(lib);
        let mut ep_drv = Vec::new();
        let mut ep_net = Vec::new();
        let mut ep_setup = Vec::new();
        let mut by_inst: Vec<(u32, u32)> = Vec::new();
        let mut by_net: Vec<(u32, u32)> = Vec::new();
        for (drv, ff) in engine::endpoints(nl, flat) {
            let e = ep_drv.len() as u32;
            ep_drv.push(drv);
            by_inst.push((drv, e));
            match ff {
                Some((data, i)) => {
                    ep_net.push(data);
                    ep_setup.push(times[nl.instances[i as usize].cell_idx].0);
                    by_net.push((data, e));
                }
                None => {
                    ep_net.push(u32::MAX);
                    ep_setup.push(0.0);
                }
            }
        }
        let num_eps = ep_drv.len();
        let eps_of_inst = Csr::build(n, &by_inst);
        let eps_of_net = Csr::build(nl.num_nets(), &by_net);

        let pads = PadIndex::build(nl);
        let wire = WireModel::for_tech(tech);
        let mut cache = VariantCache::new(lib);
        let par = StaMode::Parallel.parallel();
        let late = {
            let variant = engine::resolve_variants(&mut cache, nl, doses);
            engine::late_pass(
                lib, nl, flat, placement, doses, &pads, &wire, &cache, &variant, levels, par,
            )
        };
        let mut s = Self {
            lib,
            nl,
            flat,
            wire,
            pads,
            cache,
            levels,
            x_um: placement.x_um.clone(),
            y_um: placement.y_um.clone(),
            dl_nm: doses.dl_nm.clone(),
            dw_nm: doses.dw_nm.clone(),
            net_load_ff: late.net_load_ff,
            net_wire_delay: late.net_wire_delay,
            arrival: late.arrival,
            in_slew: late.in_slew,
            out_slew: late.out_slew,
            gate_delay: late.gate_delay,
            load: late.load,
            epoch: 1,
            net_mark: vec![0; nl.num_nets()],
            cone_mark: vec![0; n],
            ep_mark: vec![0; num_eps],
            dirty_nets: Vec::new(),
            dirty_gates: Vec::new(),
            dirty_eps: Vec::new(),
            heap: BinaryHeap::new(),
            ep_drv,
            ep_net,
            ep_setup,
            ep_contrib: vec![0.0; num_eps],
            eps_of_inst,
            eps_of_net,
            mct_heap: BinaryHeap::new(),
            topk_mark: vec![0; num_eps],
            topk_epoch: 0,
            journal: Vec::new(),
            journal_armed: false,
            // The full pass counts as one call that timed every net and
            // every gate.
            stats: RetimeStats {
                retime_calls: 1,
                gates_retimed: n as u64,
                nets_updated: nl.num_nets() as u64,
            },
        };
        // The endpoint contributions and the lazy max-heap over them.
        for e in 0..num_eps {
            let v = s.ep_value(e);
            s.ep_contrib[e] = v;
            s.mct_heap.push((OrdF64(v), Reverse(e as u32)));
        }
        s
    }

    /// The endpoint's contribution to the MCT, computed with exactly the
    /// expression `engine::mct_from_arrivals` uses.
    #[inline]
    fn ep_value(&self, e: usize) -> f64 {
        let a = self.arrival[self.ep_drv[e] as usize];
        let net = self.ep_net[e];
        if net == u32::MAX {
            a
        } else {
            a + self.net_wire_delay[net as usize] + self.ep_setup[e]
        }
    }

    #[inline]
    fn jpush(&mut self, slot: Slot, idx: u32, old: f64) {
        if self.journal_armed {
            self.journal.push(JEntry { slot, idx, old });
        }
    }

    #[inline]
    fn mark_net(&mut self, net: u32) {
        let k = net as usize;
        if self.net_mark[k] != self.epoch {
            self.net_mark[k] = self.epoch;
            self.dirty_nets.push(net);
        }
    }

    #[inline]
    fn mark_gate(&mut self, id: InstId) {
        let k = id.0 as usize;
        if self.cone_mark[k] != self.epoch {
            self.cone_mark[k] = self.epoch;
            self.dirty_gates.push(id);
        }
    }

    #[inline]
    fn mark_ep(&mut self, e: u32) {
        let k = e as usize;
        if self.ep_mark[k] != self.epoch {
            self.ep_mark[k] = self.epoch;
            self.dirty_eps.push(e);
        }
    }

    /// Evaluates one gate against the current state and writes its slots.
    /// Returns `true` when the externally visible outputs (arrival or
    /// output slew) changed.
    fn retime_gate(&mut self, id: InstId, doses: &GeometryAssignment) -> bool {
        let i = id.0 as usize;
        let variant = self.cache.resolve(
            self.nl.instance(id).cell_idx,
            doses.dl_nm[i],
            doses.dw_nm[i],
        );
        let (ld, d, arr, si, so) = engine::late_gate(
            self.flat,
            self.cache.get(variant),
            &self.net_load_ff,
            &self.net_wire_delay,
            &self.arrival,
            &self.out_slew,
            i,
        );
        self.stats.gates_retimed += 1;
        let arr_changed = self.arrival[i].to_bits() != arr.to_bits();
        let changed = arr_changed || self.out_slew[i].to_bits() != so.to_bits();
        if self.journal_armed {
            self.journal.push(JEntry {
                slot: Slot::Load,
                idx: id.0,
                old: self.load[i],
            });
            self.journal.push(JEntry {
                slot: Slot::GateDelay,
                idx: id.0,
                old: self.gate_delay[i],
            });
            self.journal.push(JEntry {
                slot: Slot::Arrival,
                idx: id.0,
                old: self.arrival[i],
            });
            self.journal.push(JEntry {
                slot: Slot::InSlew,
                idx: id.0,
                old: self.in_slew[i],
            });
            self.journal.push(JEntry {
                slot: Slot::OutSlew,
                idx: id.0,
                old: self.out_slew[i],
            });
        }
        self.load[i] = ld;
        self.gate_delay[i] = d;
        self.arrival[i] = arr;
        self.in_slew[i] = si;
        self.out_slew[i] = so;
        if arr_changed {
            for t in 0..self.eps_of_inst.of(i).len() {
                let e = self.eps_of_inst.of(i)[t];
                self.mark_ep(e);
            }
        }
        changed
    }

    /// Opens a new retime epoch: dirty lists reset, stamps invalidated.
    fn begin(&mut self) {
        self.stats.retime_calls += 1;
        self.epoch += 1;
        self.dirty_nets.clear();
        self.dirty_gates.clear();
        self.dirty_eps.clear();
    }

    /// Diffs one cell against the mirror; on any change, updates the
    /// mirror and marks the incident nets and the cell itself dirty.
    fn seed_cell(&mut self, i: usize, placement: &Placement, doses: &GeometryAssignment) {
        let moved = self.x_um[i].to_bits() != placement.x_um[i].to_bits()
            || self.y_um[i].to_bits() != placement.y_um[i].to_bits();
        let redosed = self.dl_nm[i].to_bits() != doses.dl_nm[i].to_bits()
            || self.dw_nm[i].to_bits() != doses.dw_nm[i].to_bits();
        if !(moved || redosed) {
            return;
        }
        let idx = i as u32;
        self.jpush(Slot::MirX, idx, self.x_um[i]);
        self.jpush(Slot::MirY, idx, self.y_um[i]);
        self.jpush(Slot::MirDl, idx, self.dl_nm[i]);
        self.jpush(Slot::MirDw, idx, self.dw_nm[i]);
        self.x_um[i] = placement.x_um[i];
        self.y_um[i] = placement.y_um[i];
        self.dl_nm[i] = doses.dl_nm[i];
        self.dw_nm[i] = doses.dw_nm[i];
        // A move shifts the HPWL of every incident net; a re-dose
        // changes the pin caps this cell presents on its input nets
        // and the delay tables of the cell itself.
        for net in self.flat.pin_nets(i) {
            self.mark_net(net);
        }
        self.mark_gate(InstId(idx));
    }

    /// Refreshes the dirty nets (ascending index, matching the pull
    /// path's evaluation order); their drivers re-time on a load change
    /// and their sinks on a wire-delay change.
    fn refresh_nets(&mut self, placement: &Placement, doses: &GeometryAssignment) {
        let _s = dme_obs::span("retime_nets");
        self.dirty_nets.sort_unstable();
        let nets = std::mem::take(&mut self.dirty_nets);
        for &net_u in &nets {
            let net_idx = net_u as usize;
            let (load, delay) = engine::net_props(
                self.lib, self.nl, self.flat, placement, doses, &self.pads, &self.wire, net_idx,
            );
            self.stats.nets_updated += 1;
            let load_changed = self.net_load_ff[net_idx].to_bits() != load.to_bits();
            let delay_changed = self.net_wire_delay[net_idx].to_bits() != delay.to_bits();
            if load_changed {
                self.jpush(Slot::NetLoad, net_u, self.net_load_ff[net_idx]);
            }
            if delay_changed {
                self.jpush(Slot::NetDelay, net_u, self.net_wire_delay[net_idx]);
            }
            self.net_load_ff[net_idx] = load;
            self.net_wire_delay[net_idx] = delay;
            if !(load_changed || delay_changed) {
                continue;
            }
            let flat = self.flat;
            if load_changed {
                let drv = flat.driver(net_idx);
                if drv != FlatNetlist::NO_DRIVER {
                    self.mark_gate(InstId(drv));
                }
            }
            if delay_changed {
                for &sink in flat.sinks(net_idx) {
                    // A flop's data arrival is read directly off the
                    // driver at MCT query time; its own launch (clk→Q)
                    // does not depend on input timing.
                    if !flat.is_sequential(sink as usize) {
                        self.mark_gate(InstId(sink));
                    }
                }
                // FF data pins on this net see a new wire delay.
                for t in 0..self.eps_of_net.of(net_idx).len() {
                    let e = self.eps_of_net.of(net_idx)[t];
                    self.mark_ep(e);
                }
            }
        }
        self.dirty_nets = nets;
    }

    /// Propagates the dirty seeds in depth order. Fanout always sits at
    /// strictly greater depth, so by the time a gate is popped every
    /// dirty fanin has settled and each gate is evaluated at most once.
    fn propagate(&mut self, doses: &GeometryAssignment) {
        let _s = dme_obs::span("retime_cone");
        let gates_before = self.stats.gates_retimed;
        self.heap.clear();
        let seeds = std::mem::take(&mut self.dirty_gates);
        let levels = self.levels;
        for &id in &seeds {
            self.heap.push(Reverse((levels.depth[id.0 as usize], id.0)));
        }
        self.dirty_gates = seeds;
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let id = InstId(raw);
            if !self.retime_gate(id, doses) {
                continue; // outputs bitwise unchanged: the cone ends here
            }
            let flat = self.flat;
            for &sink in flat.sinks(flat.output(raw as usize) as usize) {
                let s = sink as usize;
                if !flat.is_sequential(s) && self.cone_mark[s] != self.epoch {
                    self.cone_mark[s] = self.epoch;
                    let d = levels.depth[s];
                    self.heap.push(Reverse((d, sink)));
                }
            }
        }
        dme_obs::counter_add("sta/retime_calls", 1);
        dme_obs::histogram_record(
            "sta/retime_cone_gates",
            self.stats.gates_retimed - gates_before,
        );
    }

    /// Recomputes the contributions of endpoints whose inputs changed
    /// this epoch and feeds the lazy max-heap.
    fn refresh_endpoints(&mut self) {
        let eps = std::mem::take(&mut self.dirty_eps);
        for &e in &eps {
            let k = e as usize;
            let v = self.ep_value(k);
            if v.to_bits() != self.ep_contrib[k].to_bits() {
                self.jpush(Slot::EpContrib, e, self.ep_contrib[k]);
                self.ep_contrib[k] = v;
                self.mct_heap.push((OrdF64(v), Reverse(e)));
            }
        }
        self.dirty_eps = eps;
    }

    /// Current MCT from the lazy max-heap: pops stale entries until the
    /// top matches its endpoint's live contribution. Bitwise equal to
    /// the full endpoint scan (`max` over non-NaN values is
    /// order-insensitive), amortized O(1).
    fn mct_lazy(&mut self) -> f64 {
        while let Some(&(OrdF64(v), Reverse(e))) = self.mct_heap.peek() {
            if v.to_bits() == self.ep_contrib[e as usize].to_bits() {
                return 0.0f64.max(v);
            }
            self.mct_heap.pop();
        }
        0.0
    }

    /// Pops the `k` worst live endpoints from the lazy max-heap, most
    /// critical first, and returns their `(endpoint delay, driver)`
    /// pairs. Stale entries (superseded contributions) and duplicate
    /// live entries (undo-replay residue) are discarded for good;
    /// selected entries are pushed back, so the heap invariant — every
    /// live contribution keeps at least one entry — survives and
    /// [`IncrementalSta::retime_touched`]'s MCT query is unaffected.
    ///
    /// Ordering contract: pops come out by delay descending, ties by
    /// endpoint construction order (FF data pins in instance order,
    /// then primary outputs) — exactly the order of the stable sort in
    /// [`crate::worst_path_per_endpoint`], bitwise. Fewer than `k`
    /// pairs come back iff the design has fewer live endpoints.
    pub fn worst_endpoints_top_k(&mut self, k: usize) -> (Vec<(f64, InstId)>, TopKStats) {
        let cap = k.min(self.ep_drv.len());
        let mut stats = TopKStats::default();
        let mut selected: Vec<(OrdF64, Reverse<u32>)> = Vec::with_capacity(cap);
        let mut out: Vec<(f64, InstId)> = Vec::with_capacity(cap);
        self.topk_epoch += 1;
        while out.len() < k {
            let Some((OrdF64(v), Reverse(e))) = self.mct_heap.pop() else {
                break;
            };
            stats.endpoints_popped += 1;
            let ei = e as usize;
            if v.to_bits() != self.ep_contrib[ei].to_bits() || self.topk_mark[ei] == self.topk_epoch
            {
                stats.stale_discards += 1;
                continue;
            }
            self.topk_mark[ei] = self.topk_epoch;
            selected.push((OrdF64(v), Reverse(e)));
            out.push((v, InstId(self.ep_drv[ei])));
        }
        for entry in selected {
            self.mct_heap.push(entry);
        }
        (out, stats)
    }

    /// Re-times against a perturbed placement/assignment and returns the
    /// new MCT (ns). The perturbation is discovered by diffing **every**
    /// cell against the mirror — O(n) per call; prefer
    /// [`IncrementalSta::retime_touched`] when the caller knows what it
    /// changed. Cells outside the perturbation's fanout cone are not
    /// touched; the resulting state is bitwise identical to a full
    /// re-analysis.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match the instance count,
    /// or if a re-timed instance's ΔL or ΔW is not finite.
    pub fn retime(&mut self, placement: &Placement, doses: &GeometryAssignment) -> f64 {
        let n = self.nl.num_instances();
        assert_eq!(doses.len(), n, "assignment/netlist size mismatch");
        self.begin();
        dme_obs::counter_add("sta/retime_pull_calls", 1);
        {
            let _s = dme_obs::span("retime_diff");
            for i in 0..n {
                self.seed_cell(i, placement, doses);
            }
        }
        self.refresh_nets(placement, doses);
        self.propagate(doses);
        self.refresh_endpoints();
        let _s = dme_obs::span("retime_mct");
        self.mct_ns()
    }

    /// Push-based re-time: like [`IncrementalSta::retime`], but the diff
    /// runs only over `touched`, making the call O(cone) rather than
    /// O(n).
    ///
    /// Contract: `touched` must include every cell whose position or
    /// dose differs from the last re-timed state (duplicates and
    /// unchanged cells are fine — they are skipped by the bitwise diff).
    /// Under-reporting silently desynchronizes the engine.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match the instance count,
    /// or if a re-timed instance's ΔL or ΔW is not finite.
    pub fn retime_touched(
        &mut self,
        placement: &Placement,
        doses: &GeometryAssignment,
        touched: &[InstId],
    ) -> f64 {
        assert_eq!(
            doses.len(),
            self.nl.num_instances(),
            "assignment/netlist size mismatch"
        );
        self.begin();
        dme_obs::counter_add("sta/retime_push_calls", 1);
        {
            let _s = dme_obs::span("retime_diff");
            for &id in touched {
                self.seed_cell(id.0 as usize, placement, doses);
            }
        }
        self.refresh_nets(placement, doses);
        self.propagate(doses);
        self.refresh_endpoints();
        let _s = dme_obs::span("retime_mct");
        self.mct_lazy()
    }

    /// Arms (or disarms) the undo journal. Disarming clears it.
    pub fn set_journal(&mut self, armed: bool) {
        self.journal_armed = armed;
        if !armed {
            self.journal.clear();
        }
    }

    /// Current journal position, for a later [`IncrementalSta::undo_to`]
    /// or [`IncrementalSta::commit`].
    pub fn mark(&self) -> StaMark {
        StaMark(self.journal.len())
    }

    /// Accepts everything journaled since `mark` (drops the undo
    /// entries; the state itself is untouched).
    pub fn commit(&mut self, mark: StaMark) {
        self.journal.truncate(mark.0);
    }

    /// Restores the engine to its exact state at `mark` by replaying old
    /// slot values in reverse — O(entries since mark), zero gate
    /// evaluations. The mirror is restored too, so the caller must roll
    /// its placement/assignment back to the same point.
    pub fn undo_to(&mut self, mark: StaMark) {
        let _s = dme_obs::span("retime_undo_replay");
        let entries = (self.journal.len() - mark.0) as u64;
        while self.journal.len() > mark.0 {
            let e = self.journal.pop().expect("journal entry");
            let i = e.idx as usize;
            match e.slot {
                Slot::NetLoad => self.net_load_ff[i] = e.old,
                Slot::NetDelay => self.net_wire_delay[i] = e.old,
                Slot::Arrival => self.arrival[i] = e.old,
                Slot::InSlew => self.in_slew[i] = e.old,
                Slot::OutSlew => self.out_slew[i] = e.old,
                Slot::GateDelay => self.gate_delay[i] = e.old,
                Slot::Load => self.load[i] = e.old,
                Slot::MirX => self.x_um[i] = e.old,
                Slot::MirY => self.y_um[i] = e.old,
                Slot::MirDl => self.dl_nm[i] = e.old,
                Slot::MirDw => self.dw_nm[i] = e.old,
                Slot::EpContrib => {
                    self.ep_contrib[i] = e.old;
                    // The heap entry carrying the old value may have been
                    // popped as stale; re-push so the invariant "every
                    // live contribution has a heap entry" holds.
                    self.mct_heap.push((OrdF64(e.old), Reverse(e.idx)));
                }
            }
        }
        dme_obs::counter_add("sta/retime_undo_replays", 1);
        dme_obs::counter_add("sta/retime_undo_entries", entries);
    }

    /// MCT implied by the current state (worst endpoint delay, ns), via
    /// the full O(n) endpoint scan — the oracle the lazy structure is
    /// checked against.
    pub fn mct_ns(&self) -> f64 {
        engine::mct_from_arrivals(
            self.nl,
            self.flat,
            &engine::setup_hold_by_master(self.lib),
            &self.arrival,
            &self.net_wire_delay,
        )
    }

    /// Arrival time at each instance output, ns.
    pub fn arrival_ns(&self) -> &[f64] {
        &self.arrival
    }

    /// Output slew of each instance, ns.
    pub fn output_slew_ns(&self) -> &[f64] {
        &self.out_slew
    }

    /// Wire delay of each net, ns.
    pub fn wire_delay_ns(&self) -> &[f64] {
        &self.net_wire_delay
    }

    /// The netlist this engine was built over.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> RetimeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use dme_device::Technology;
    use dme_netlist::{gen, profiles};

    fn setup() -> (Library, dme_netlist::Design, Placement) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        (lib, d, p)
    }

    fn assert_matches_full(
        inc: &IncrementalSta<'_>,
        lib: &Library,
        nl: &Netlist,
        p: &Placement,
        doses: &GeometryAssignment,
    ) {
        let full = analyze(lib, nl, p, doses);
        for i in 0..nl.num_instances() {
            assert_eq!(
                inc.arrival_ns()[i].to_bits(),
                full.arrival_ns[i].to_bits(),
                "arrival mismatch at instance {i}"
            );
            assert_eq!(
                inc.output_slew_ns()[i].to_bits(),
                full.output_slew_ns[i].to_bits(),
                "slew mismatch at instance {i}"
            );
        }
        assert_eq!(
            inc.mct_ns().to_bits(),
            full.mct_ns.to_bits(),
            "MCT mismatch"
        );
    }

    #[test]
    fn fresh_engine_matches_full_analysis() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        assert_matches_full(&inc, &lib, &d.netlist, &p, &doses);
    }

    #[test]
    fn new_equals_a_serial_late_pass_in_every_slot() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::scaling(5000, 8), &lib);
        let nl = &d.netlist;
        let p = dme_placement::place(&d, &lib);
        let n = nl.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        for i in 0..n {
            doses.dl_nm[i] = ((i * 7) % 41) as f64 * 0.25 - 5.0;
            doses.dw_nm[i] = ((i * 3) % 9) as f64 - 4.0;
        }
        let inc = IncrementalSta::new(&lib, nl, &p, &doses);
        let mut cache = VariantCache::new(&lib);
        let variant = engine::resolve_variants(&mut cache, nl, &doses);
        let serial = engine::late_pass(
            &lib,
            nl,
            nl.flat(),
            &p,
            &doses,
            &PadIndex::build(nl),
            &WireModel::for_tech(lib.tech()),
            &cache,
            &variant,
            inc.levels,
            false,
        );
        for (got, want, what) in [
            (&inc.net_load_ff, &serial.net_load_ff, "net load"),
            (&inc.net_wire_delay, &serial.net_wire_delay, "wire delay"),
            (&inc.load, &serial.load, "load"),
            (&inc.gate_delay, &serial.gate_delay, "gate delay"),
            (&inc.arrival, &serial.arrival, "arrival"),
            (&inc.in_slew, &serial.in_slew, "input slew"),
            (&inc.out_slew, &serial.out_slew, "output slew"),
        ] {
            assert_eq!(got.len(), want.len(), "{what}");
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what} at {i}");
            }
        }
        assert_eq!(inc.cache.len(), cache.len(), "variants resolved");
    }

    #[test]
    #[should_panic(expected = "non-finite geometry delta")]
    fn nan_length_delta_is_rejected_at_build() {
        let (lib, d, p) = setup();
        let mut doses = GeometryAssignment::nominal(d.netlist.num_instances());
        doses.dl_nm[3] = f64::NAN;
        IncrementalSta::new(&lib, &d.netlist, &p, &doses);
    }

    #[test]
    #[should_panic(expected = "non-finite geometry delta")]
    fn nan_width_delta_is_rejected_on_retime() {
        let (lib, d, p) = setup();
        let mut doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        doses.dw_nm[5] = f64::NAN;
        inc.retime_touched(&p, &doses, &[InstId(5)]);
    }

    #[test]
    fn retime_after_move_matches_full_analysis() {
        let (lib, d, mut p) = setup();
        let n = d.netlist.num_instances();
        let doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        // Swap two cells and repack, as dosePl does.
        let (a, b) = (InstId(3), InstId(n as u32 / 2));
        p.swap_cells(a, b);
        let rows = [
            (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
            (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
        ];
        p.repack_rows(&lib, &d.netlist, &rows);
        inc.retime(&p, &doses);
        assert_matches_full(&inc, &lib, &d.netlist, &p, &doses);
        // The cone must be a strict subset of the design.
        let s = inc.stats();
        assert!(s.gates_retimed < s.full_equivalent_gates(n), "{s:?}");
    }

    #[test]
    fn retime_after_redose_matches_full_analysis() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        doses.dl_nm[7] = -4.0;
        doses.dl_nm[n - 1] = 3.0;
        inc.retime(&p, &doses);
        assert_matches_full(&inc, &lib, &d.netlist, &p, &doses);
    }

    #[test]
    fn noop_retime_touches_nothing() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let before = inc.stats();
        let mct0 = inc.mct_ns();
        let mct1 = inc.retime(&p, &doses);
        assert_eq!(mct0.to_bits(), mct1.to_bits());
        let after = inc.stats();
        assert_eq!(after.gates_retimed, before.gates_retimed);
        assert_eq!(after.nets_updated, before.nets_updated);
        assert_eq!(after.retime_calls, before.retime_calls + 1);
    }

    #[test]
    fn perturb_and_revert_restores_state_bitwise() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let mct0 = inc.mct_ns();
        let arrival0 = inc.arrival_ns().to_vec();
        let mut p2 = p.clone();
        p2.swap_cells(InstId(1), InstId(9));
        inc.retime(&p2, &doses);
        inc.retime(&p, &doses);
        assert_eq!(inc.mct_ns().to_bits(), mct0.to_bits());
        for (i, a0) in arrival0.iter().enumerate() {
            assert_eq!(inc.arrival_ns()[i].to_bits(), a0.to_bits());
        }
    }

    #[test]
    fn push_retime_matches_pull_and_full() {
        let (lib, d, mut p) = setup();
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut push = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let mut pull = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        // A move (swap + repack) followed by a re-dose, pushed from the
        // placement journal exactly as dosePl's candidate loop does.
        let mut pd = dme_placement::PlacementDelta::default();
        let (a, b) = (InstId(5), InstId(n as u32 / 3));
        p.swap_cells_tracked(a, b, &mut pd);
        let rows = [
            (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
            (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
        ];
        p.repack_rows_tracked(&lib, &d.netlist, &rows, &mut pd);
        doses.dl_nm[a.0 as usize] = -2.0;
        let mut touched = pd.touched_since(0);
        touched.push(a);
        let m_push = push.retime_touched(&p, &doses, &touched);
        let m_pull = pull.retime(&p, &doses);
        assert_eq!(m_push.to_bits(), m_pull.to_bits(), "push/pull MCT");
        assert_matches_full(&push, &lib, &d.netlist, &p, &doses);
        for i in 0..n {
            assert_eq!(
                push.arrival_ns()[i].to_bits(),
                pull.arrival_ns()[i].to_bits()
            );
            assert_eq!(
                push.output_slew_ns()[i].to_bits(),
                pull.output_slew_ns()[i].to_bits()
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "12k-cell schedule: use --release")]
    fn push_matches_pull_and_full_at_bench_scale() {
        // The same push-vs-pull-vs-full contract on the 12k-cell
        // wide/shallow design the perf benches use, over a longer
        // deterministic perturbation schedule — cones here are
        // hundreds of gates, so stale-epoch and lazy-MCT bookkeeping
        // bugs that tiny designs mask have room to surface.
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::scaling(12_000, 7), &lib);
        let mut p = dme_placement::place(&d, &lib);
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut push = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let mut pull = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % m as u64) as usize
        };
        let mut pd = dme_placement::PlacementDelta::default();
        for step in 0..24 {
            let mark = pd.mark();
            let (a, b) = (InstId(next(n) as u32), InstId(next(n) as u32));
            let mut touched = Vec::new();
            if a != b {
                p.swap_cells_tracked(a, b, &mut pd);
                let rows = [
                    (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
                    (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
                ];
                p.repack_rows_tracked(&lib, &d.netlist, &rows, &mut pd);
                touched = pd.touched_since(mark);
            }
            let redosed = next(n);
            doses.dl_nm[redosed] = [-4.0, -2.0, 0.0, 3.0][step % 4];
            touched.push(InstId(redosed as u32));
            let m_push = push.retime_touched(&p, &doses, &touched);
            let m_pull = pull.retime(&p, &doses);
            assert_eq!(m_push.to_bits(), m_pull.to_bits(), "MCT at step {step}");
            for i in 0..n {
                assert_eq!(
                    push.arrival_ns()[i].to_bits(),
                    pull.arrival_ns()[i].to_bits(),
                    "arrival at step {step}, instance {i}"
                );
            }
            // Full-analysis cross-check every few steps (it is the
            // expensive oracle at this scale).
            if step % 6 == 5 {
                assert_matches_full(&push, &lib, &d.netlist, &p, &doses);
            }
        }
    }

    #[test]
    fn lazy_mct_matches_scan_after_many_retimes() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        for step in 0..20 {
            let i = (step * 7) % n;
            doses.dl_nm[i] = -4.0 + (step % 9) as f64;
            let lazy = inc.retime_touched(&p, &doses, &[InstId(i as u32)]);
            assert_eq!(lazy.to_bits(), inc.mct_ns().to_bits(), "step {step}");
        }
    }

    #[test]
    fn undo_restores_state_bitwise_with_zero_gate_evals() {
        let (lib, d, p) = setup();
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        inc.set_journal(true);
        let mct0 = inc.mct_ns();
        let arr0 = inc.arrival_ns().to_vec();
        let slew0 = inc.output_slew_ns().to_vec();

        let mark = inc.mark();
        let mut p2 = p.clone();
        p2.swap_cells(InstId(2), InstId(11));
        doses.dw_nm[4] = 3.0;
        inc.retime_touched(&p2, &doses, &[InstId(2), InstId(11), InstId(4)]);
        let evals_before_undo = inc.stats().gates_retimed;
        doses.dw_nm[4] = 0.0;
        inc.undo_to(mark);
        assert_eq!(
            inc.stats().gates_retimed,
            evals_before_undo,
            "undo must not evaluate"
        );
        assert_eq!(inc.mct_ns().to_bits(), mct0.to_bits());
        for i in 0..n {
            assert_eq!(inc.arrival_ns()[i].to_bits(), arr0[i].to_bits());
            assert_eq!(inc.output_slew_ns()[i].to_bits(), slew0[i].to_bits());
        }
        // The lazy MCT must also have been restored (heap invariant).
        let lazy = inc.retime_touched(&p, &doses, &[]);
        assert_eq!(lazy.to_bits(), mct0.to_bits());
        // After undo, the engine keeps working: perturb again and check.
        doses.dl_nm[8] = 2.0;
        inc.retime_touched(&p, &doses, &[InstId(8)]);
        assert_matches_full(&inc, &lib, &d.netlist, &p, &doses);
    }
}
