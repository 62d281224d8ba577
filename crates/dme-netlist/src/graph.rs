//! Netlist data structures: instances, nets and the timing DAG.

use dme_liberty::Library;
use std::error::Error;
use std::fmt;

/// Identifier of a cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub u32);

/// Identifier of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One placed-and-routed standard-cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Index of the cell master in the [`Library`].
    pub cell_idx: usize,
    /// Input nets, one per data pin.
    pub inputs: Vec<NetId>,
    /// The single output net.
    pub output: NetId,
    /// Whether this instance is sequential (cached from the master).
    pub is_sequential: bool,
}

/// One net: a driver and its fanout pins.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// The driving instance, or `None` for a primary input.
    pub driver: Option<InstId>,
    /// Fanout: `(instance, input-pin index)` pairs.
    pub sinks: Vec<(InstId, usize)>,
    /// Whether the net also feeds a primary output pad.
    pub is_primary_output: bool,
}

/// A gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All instances; `InstId` indexes into this.
    pub instances: Vec<Instance>,
    /// All nets; `NetId` indexes into this.
    pub nets: Vec<Net>,
    /// Primary input nets.
    pub primary_inputs: Vec<NetId>,
    /// Primary output nets.
    pub primary_outputs: Vec<NetId>,
    /// Cached compressed-sparse-row connectivity (see [`Netlist::flat`])
    /// and topological level decomposition (see [`Netlist::topo_levels`]).
    /// Cell-master or placement changes keep both valid; connectivity
    /// edits after the first call must go through
    /// [`Netlist::invalidate_connectivity`].
    flat: std::sync::OnceLock<FlatNetlist>,
    levels: std::sync::OnceLock<Option<TopoLevels>>,
}

/// Read-only compressed-sparse-row view of a netlist's connectivity, the
/// one source every hot timing and placement walk reads (see
/// [`Netlist::flat`]). Indices are raw `u32` instance and net numbers;
/// the fanin pairs keep [`Instance::inputs`]' pin order and the sinks keep
/// [`Net::sinks`]' order, so a fold over the view visits exactly what a
/// fold over the structs visits, in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatNetlist {
    /// Fanin pins of instance `i`: `fanin[fanin_start[i]..fanin_start[i + 1]]`.
    fanin_start: Vec<u32>,
    /// `(driver or NO_DRIVER, net)` per input pin.
    fanin: Vec<(u32, u32)>,
    /// Output net per instance.
    output: Vec<u32>,
    /// Sequential flag per instance.
    sequential: Vec<bool>,
    /// Driver (or `NO_DRIVER`) per net.
    driver: Vec<u32>,
    /// Sinks of net `k`: `sinks[sink_start[k]..sink_start[k + 1]]`.
    sink_start: Vec<u32>,
    /// Sink instance per net pin.
    sinks: Vec<u32>,
}

impl FlatNetlist {
    /// Driver slot of a net with no driving instance (a primary input).
    pub const NO_DRIVER: u32 = u32::MAX;

    /// Flattens `nl`'s instances and nets in one pass over each.
    ///
    /// # Panics
    ///
    /// Panics if an input pin references a net outside the netlist, or
    /// if the pin count does not fit in `u32`.
    pub fn build(nl: &Netlist) -> Self {
        let offset = |len: usize| u32::try_from(len).expect("pin counts fit in u32");
        let driver: Vec<u32> = nl
            .nets
            .iter()
            .map(|net| net.driver.map_or(Self::NO_DRIVER, |d| d.0))
            .collect();
        let n = nl.instances.len();
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        fanin_start.push(0);
        for inst in &nl.instances {
            fanin.extend(
                inst.inputs
                    .iter()
                    .map(|net| (driver[net.0 as usize], net.0)),
            );
            fanin_start.push(offset(fanin.len()));
        }
        let mut sink_start = Vec::with_capacity(nl.nets.len() + 1);
        let mut sinks = Vec::new();
        sink_start.push(0);
        for net in &nl.nets {
            sinks.extend(net.sinks.iter().map(|&(s, _)| s.0));
            sink_start.push(offset(sinks.len()));
        }
        Self {
            fanin_start,
            fanin,
            output: nl.instances.iter().map(|i| i.output.0).collect(),
            sequential: nl.instances.iter().map(|i| i.is_sequential).collect(),
            driver,
            sink_start,
            sinks,
        }
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.output.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.driver.len()
    }

    /// `(driver or NO_DRIVER, net)` of each input pin of instance `i`, in
    /// pin order.
    #[inline]
    pub fn fanin(&self, i: usize) -> &[(u32, u32)] {
        &self.fanin[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize]
    }

    /// Output net of instance `i`.
    #[inline]
    pub fn output(&self, i: usize) -> u32 {
        self.output[i]
    }

    /// Whether instance `i` is sequential.
    #[inline]
    pub fn is_sequential(&self, i: usize) -> bool {
        self.sequential[i]
    }

    /// Driver of net `k`, or [`FlatNetlist::NO_DRIVER`].
    #[inline]
    pub fn driver(&self, k: usize) -> u32 {
        self.driver[k]
    }

    /// Sink instances of net `k`, one per sink pin, in [`Net::sinks`]
    /// order.
    #[inline]
    pub fn sinks(&self, k: usize) -> &[u32] {
        &self.sinks[self.sink_start[k] as usize..self.sink_start[k + 1] as usize]
    }

    /// Nets of instance `i`'s pins: its inputs in pin order, then its
    /// output.
    #[inline]
    pub fn pin_nets(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.fanin(i)
            .iter()
            .map(|&(_, net)| net)
            .chain(std::iter::once(self.output[i]))
    }

    /// Combinational fanin instances of `i` (see [`Netlist::comb_fanin`]),
    /// one per pin, in pin order.
    #[inline]
    pub fn comb_fanin(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.fanin(i)
            .iter()
            .map(|&(d, _)| d)
            .filter(move |&d| d != Self::NO_DRIVER && !self.sequential[d as usize])
    }
}

/// Level decomposition of the combinational timing graph: level 0 holds
/// the startpoints (sequential cells and zero-fanin combinational gates),
/// and every gate sits one level above its deepest combinational fanin.
/// Gates within a level have no timing dependencies on each other, so a
/// forward STA pass may evaluate each level's gates in parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoLevels {
    /// `level[k]` lists the instances at depth `k`, ascending by id.
    pub levels: Vec<Vec<InstId>>,
    /// Depth of each instance (indexed by `InstId`).
    pub depth: Vec<u32>,
}

impl TopoLevels {
    /// Total number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

/// Netlist consistency violations found by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// An instance references a cell index outside the library.
    BadCellIndex(InstId),
    /// Pin count differs from the master's input count.
    PinCountMismatch(InstId),
    /// A net's recorded driver/sink does not match the instance pins.
    InconsistentNet(NetId),
    /// A net has no driver and is not a primary input.
    UndrivenNet(NetId),
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadCellIndex(i) => write!(f, "instance {i} has a bad cell index"),
            ValidateError::PinCountMismatch(i) => write!(f, "instance {i} pin count mismatch"),
            ValidateError::InconsistentNet(n) => write!(f, "net {n} is inconsistent"),
            ValidateError::UndrivenNet(n) => write!(f, "net {n} has no driver"),
            ValidateError::CombinationalCycle => write!(f, "combinational cycle detected"),
        }
    }
}

impl Error for ValidateError {}

impl Netlist {
    /// Number of cell instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Instance by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Iterator over all instance ids.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.instances.len() as u32).map(InstId)
    }

    /// Combinational fanin instances of `id`: drivers of its input nets
    /// that are combinational. Sequential drivers and primary inputs are
    /// timing startpoints and excluded.
    pub fn comb_fanin(&self, id: InstId) -> Vec<InstId> {
        let mut fanin = Vec::new();
        for &net in &self.instance(id).inputs {
            if let Some(drv) = self.net(net).driver {
                if !self.instance(drv).is_sequential {
                    fanin.push(drv);
                }
            }
        }
        fanin
    }

    /// Topological order of the *combinational timing graph*: every
    /// combinational instance appears after all its combinational fanins.
    /// Sequential instances appear first (they are startpoints: their
    /// clk→Q arc does not depend on their D input within a cycle).
    ///
    /// Returns `None` if the combinational part contains a cycle.
    pub fn topo_order(&self) -> Option<Vec<InstId>> {
        let n = self.instances.len();
        let mut indegree = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        // Sequential cells are seeded strictly before zero-fanin
        // combinational gates: a gate fed only by flip-flops has zero
        // combinational indegree yet reads the flops' launch arrivals, so
        // a consumer walking this order must see the flops first.
        let mut queue: Vec<InstId> = Vec::new();
        let mut comb_seeds: Vec<InstId> = Vec::new();
        for id in self.inst_ids() {
            if self.instance(id).is_sequential {
                queue.push(id);
                continue;
            }
            let deg = self.comb_fanin(id).len() as u32;
            indegree[id.0 as usize] = deg;
            if deg == 0 {
                comb_seeds.push(id);
            }
        }
        // Process in id order (within each seed class) for determinism.
        queue.sort_unstable();
        comb_seeds.sort_unstable();
        queue.extend(comb_seeds);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            if self.instance(id).is_sequential {
                // Arcs out of sequential cells are startpoints: they were
                // never counted in any sink's combinational indegree.
                continue;
            }
            // Successors: combinational sinks of the output net.
            for &(sink, _) in &self.net(self.instance(id).output).sinks {
                if self.instance(sink).is_sequential {
                    continue;
                }
                let d = &mut indegree[sink.0 as usize];
                debug_assert!(*d > 0, "indegree underflow at {sink}");
                *d -= 1;
                if *d == 0 {
                    queue.push(sink);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// The compressed-sparse-row view of the connectivity, built once and
    /// cached. Every hot walk reads it instead of chasing
    /// [`Instance::inputs`] and [`Net`] through their structs; fetch it
    /// once per pass, not per gate. [`Netlist::validate`] does not read
    /// it: it checks the structs themselves.
    ///
    /// The cache stays valid across cell-master swaps and placement moves
    /// (neither changes connectivity); after editing `instances`/`nets`
    /// connectivity, call [`Netlist::invalidate_connectivity`] first.
    pub fn flat(&self) -> &FlatNetlist {
        self.flat.get_or_init(|| FlatNetlist::build(self))
    }

    /// Topological level sets of the combinational timing graph, computed
    /// once from [`Netlist::flat`] and cached. Returns `None` if the
    /// combinational part contains a cycle.
    ///
    /// The cache stays valid across cell-master swaps and placement moves
    /// (neither changes connectivity); after editing `instances`/`nets`
    /// connectivity, call [`Netlist::invalidate_connectivity`] first.
    pub fn topo_levels(&self) -> Option<&TopoLevels> {
        self.levels.get_or_init(|| self.compute_levels()).as_ref()
    }

    /// Drops the cached connectivity view and level decomposition
    /// (required after connectivity edits so [`Netlist::flat`] and
    /// [`Netlist::topo_levels`] rebuild).
    pub fn invalidate_connectivity(&mut self) {
        self.flat = std::sync::OnceLock::new();
        self.levels = std::sync::OnceLock::new();
    }

    fn compute_levels(&self) -> Option<TopoLevels> {
        let flat = self.flat();
        let n = flat.num_instances();
        let mut indegree = vec![0u32; n];
        let mut depth = vec![0u32; n];
        // Sequential cells are seeded strictly before zero-fanin
        // combinational gates: a gate fed only by flip-flops has zero
        // *combinational* indegree but still reads the flops' launch
        // arrivals, so it must land on a strictly higher level. Both
        // classes are pushed in ascending id order.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut comb_seeds: Vec<u32> = Vec::new();
        for (i, indeg) in indegree.iter_mut().enumerate() {
            if flat.is_sequential(i) {
                queue.push(i as u32);
                continue;
            }
            *indeg = flat.comb_fanin(i).count() as u32;
            if *indeg == 0 {
                comb_seeds.push(i as u32);
            }
        }
        queue.extend(comb_seeds);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head] as usize;
            head += 1;
            let seq = flat.is_sequential(i);
            let d = depth[i];
            for &sink in flat.sinks(flat.output(i) as usize) {
                let s = sink as usize;
                if flat.is_sequential(s) {
                    // The sink's D input is an endpoint; no intra-cycle arc.
                    continue;
                }
                depth[s] = depth[s].max(d + 1);
                if !seq {
                    debug_assert!(indegree[s] > 0, "indegree underflow at i{sink}");
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        queue.push(sink);
                    }
                }
            }
        }
        if queue.len() != n {
            return None;
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0) as usize;
        let mut levels: Vec<Vec<InstId>> = vec![Vec::new(); max_depth + 1];
        // Iterating in id order keeps each level sorted by id.
        for id in self.inst_ids() {
            levels[depth[id.0 as usize] as usize].push(id);
        }
        Some(TopoLevels { levels, depth })
    }

    /// The paper's node indexing: reverse topological order with the
    /// fictitious sink as node 0 and the fictitious source as node `n+1`.
    /// Returns `index[i] = paper node number of instance i`.
    pub fn paper_indexing(&self) -> Option<Vec<usize>> {
        let order = self.topo_order()?;
        let n = order.len();
        let mut index = vec![0usize; n];
        // Reverse topological: last instance in topo order gets 1, the
        // first gets n (sink = 0, source = n + 1).
        for (pos, id) in order.iter().enumerate() {
            index[id.0 as usize] = n - pos;
        }
        Some(index)
    }

    /// Validates structural consistency against a library.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self, lib: &Library) -> Result<(), ValidateError> {
        // Input pins per net: a net lists each of them exactly once.
        let mut pins_on = vec![0usize; self.nets.len()];
        for id in self.inst_ids() {
            let inst = self.instance(id);
            if inst.cell_idx >= lib.cells().len() {
                return Err(ValidateError::BadCellIndex(id));
            }
            let master = lib.cell(inst.cell_idx);
            if master.num_inputs() != inst.inputs.len() {
                return Err(ValidateError::PinCountMismatch(id));
            }
            if master.is_sequential() != inst.is_sequential {
                return Err(ValidateError::BadCellIndex(id));
            }
            // Output net must list this instance as driver.
            if self.net(inst.output).driver != Some(id) {
                return Err(ValidateError::InconsistentNet(inst.output));
            }
            // Every input net must list this pin as a sink.
            for (pin, &net) in inst.inputs.iter().enumerate() {
                if !self.net(net).sinks.contains(&(id, pin)) {
                    return Err(ValidateError::InconsistentNet(net));
                }
                pins_on[net.0 as usize] += 1;
            }
        }
        for (i, net) in self.nets.iter().enumerate() {
            let nid = NetId(i as u32);
            match net.driver {
                None if !self.primary_inputs.contains(&nid) => {
                    return Err(ValidateError::UndrivenNet(nid));
                }
                Some(d) if self.instances.get(d.0 as usize).map(|i| i.output) != Some(nid) => {
                    return Err(ValidateError::InconsistentNet(nid));
                }
                _ => {}
            }
            if net.sinks.len() != pins_on[i] {
                return Err(ValidateError::InconsistentNet(nid));
            }
            for &(sink, pin) in &net.sinks {
                if self.instance(sink).inputs.get(pin) != Some(&nid) {
                    return Err(ValidateError::InconsistentNet(nid));
                }
            }
        }
        if self.topo_order().is_none() {
            return Err(ValidateError::CombinationalCycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;

    /// Builds inv chain: PI -> INV0 -> INV1 -> PO with a DFF tapping INV0.
    fn small(lib: &Library) -> Netlist {
        let inv = lib.index_of("INVX1").unwrap();
        let dff = lib.index_of("DFFX1").unwrap();
        let mut nl = Netlist::default();
        for i in 0..4 {
            nl.nets.push(Net {
                name: format!("n{i}"),
                ..Net::default()
            });
        }
        nl.primary_inputs.push(NetId(0));
        nl.instances.push(Instance {
            name: "u0".into(),
            cell_idx: inv,
            inputs: vec![NetId(0)],
            output: NetId(1),
            is_sequential: false,
        });
        nl.instances.push(Instance {
            name: "u1".into(),
            cell_idx: inv,
            inputs: vec![NetId(1)],
            output: NetId(2),
            is_sequential: false,
        });
        nl.instances.push(Instance {
            name: "ff0".into(),
            cell_idx: dff,
            inputs: vec![NetId(1)],
            output: NetId(3),
            is_sequential: true,
        });
        nl.nets[0].sinks.push((InstId(0), 0));
        nl.nets[1].driver = Some(InstId(0));
        nl.nets[1].sinks.push((InstId(1), 0));
        nl.nets[1].sinks.push((InstId(2), 0));
        nl.nets[2].driver = Some(InstId(1));
        nl.nets[2].is_primary_output = true;
        nl.nets[3].driver = Some(InstId(2));
        nl.primary_outputs.push(NetId(2));
        nl
    }

    #[test]
    fn valid_netlist_passes_validation() {
        let lib = Library::standard(Technology::n65());
        let nl = small(&lib);
        assert_eq!(nl.validate(&lib), Ok(()));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let lib = Library::standard(Technology::n65());
        let nl = small(&lib);
        let order = nl.topo_order().unwrap();
        let pos = |id: u32| {
            order
                .iter()
                .position(|&x| x == InstId(id))
                .expect("present")
        };
        assert!(pos(0) < pos(1), "u0 before u1");
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn paper_indexing_reverses_topo_order() {
        let lib = Library::standard(Technology::n65());
        let nl = small(&lib);
        let idx = nl.paper_indexing().unwrap();
        // u1 is downstream of u0, so u1's paper index is smaller (closer
        // to the sink, which is node 0).
        assert!(idx[1] < idx[0]);
        // All indices in 1..=n.
        for &v in &idx {
            assert!(v >= 1 && v <= nl.num_instances());
        }
    }

    #[test]
    fn topo_levels_match_dependencies() {
        let lib = Library::standard(Technology::n65());
        let nl = small(&lib);
        let lv = nl.topo_levels().expect("acyclic").clone();
        // u0 (level from PI) strictly below u1; the DFF sits at level 0.
        assert!(lv.depth[0] < lv.depth[1]);
        assert_eq!(lv.depth[2], 0);
        // Every combinational gate sits strictly above its combinational
        // fanins (a flop's D pin is an endpoint, not an intra-cycle arc).
        for id in nl.inst_ids() {
            if nl.instance(id).is_sequential {
                continue;
            }
            for f in nl.comb_fanin(id) {
                assert!(lv.depth[f.0 as usize] < lv.depth[id.0 as usize]);
            }
        }
        // The levels partition the instances: each one sits exactly once,
        // in the level its depth names.
        let mut seen = vec![false; nl.num_instances()];
        for (k, level) in lv.levels.iter().enumerate() {
            for &id in level {
                assert!(!seen[id.0 as usize], "{id:?} filed twice");
                seen[id.0 as usize] = true;
                assert_eq!(lv.depth[id.0 as usize] as usize, k);
            }
        }
        assert!(seen.iter().all(|&s| s), "every instance has a level");
        // Cached: a second call returns the same decomposition.
        assert_eq!(nl.topo_levels().unwrap(), &lv);
    }

    #[test]
    fn gate_fed_only_by_flop_sits_above_it() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        // Rewire u1 to read from the DFF output: u1 has no combinational
        // fanin but still depends on the flop's launch arrival.
        nl.instances[1].inputs[0] = NetId(3);
        nl.nets[1].sinks.retain(|&(i, _)| i != InstId(1));
        nl.nets[3].sinks.push((InstId(1), 0));
        let lv = nl.topo_levels().expect("acyclic");
        assert!(lv.depth[1] > lv.depth[2], "u1 must be above the DFF");
        // And the flat topological order sees the flop first.
        let order = nl.topo_order().unwrap();
        let pos = |id: u32| order.iter().position(|&x| x == InstId(id)).unwrap();
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn invalidate_levels_recomputes() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        let before = nl.topo_levels().expect("acyclic").clone();
        // Cut the u0 -> u1 arc; u1 now hangs off the PI directly.
        nl.instances[1].inputs[0] = NetId(0);
        nl.nets[1].sinks.retain(|&(i, _)| i != InstId(1));
        nl.nets[0].sinks.push((InstId(1), 0));
        nl.invalidate_connectivity();
        let after = nl.topo_levels().expect("acyclic");
        assert!(after.depth[1] < before.depth[1]);
    }

    #[test]
    fn cycle_is_detected() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        // Feed u1's output back into u0 (replace the PI connection).
        nl.instances[0].inputs[0] = NetId(2);
        nl.nets[0].sinks.clear();
        nl.nets[2].sinks.push((InstId(0), 0));
        assert_eq!(nl.validate(&lib), Err(ValidateError::CombinationalCycle));
    }

    #[test]
    fn dangling_driverless_net_is_reported() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        nl.primary_inputs.clear(); // net 0 now has no driver and no PI status
        assert_eq!(nl.validate(&lib), Err(ValidateError::UndrivenNet(NetId(0))));
    }

    #[test]
    fn repeated_sinks_and_stale_drivers_are_inconsistent() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        nl.nets[1].sinks.push((InstId(1), 0));
        assert_eq!(
            nl.validate(&lib),
            Err(ValidateError::InconsistentNet(NetId(1)))
        );
        // u0 drives net 1; a second net naming it as driver is stale.
        let mut nl = small(&lib);
        nl.nets[0].driver = Some(InstId(0));
        assert_eq!(
            nl.validate(&lib),
            Err(ValidateError::InconsistentNet(NetId(0)))
        );
    }

    #[test]
    fn comb_fanin_excludes_sequential_drivers() {
        let lib = Library::standard(Technology::n65());
        let mut nl = small(&lib);
        // Make u1 read from the DFF output instead of INV0.
        nl.instances[1].inputs[0] = NetId(3);
        nl.nets[1].sinks.retain(|&(i, _)| i != InstId(1));
        nl.nets[3].sinks.push((InstId(1), 0));
        assert!(nl.validate(&lib).is_ok());
        assert!(nl.comb_fanin(InstId(1)).is_empty());
    }
}
