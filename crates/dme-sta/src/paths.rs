//! Top-K critical path enumeration.
//!
//! Best-first search over the timing DAG using an exact
//! remaining-delay bound ψ (the classic k-longest-paths deviation
//! method): a state `(prefix delay + ψ(v), v)` is popped from a max-heap
//! and extended along every timing edge; "finishing" at an endpoint is a
//! special extension. Because ψ is exact, paths are emitted in strictly
//! non-increasing total-delay order, so the first K finishes are exactly
//! the K most critical paths.

use crate::engine::{self, TimingReport};
use crate::incremental::{IncrementalSta, TopKStats};
use dme_netlist::{FlatNetlist, InstId, Netlist};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// One enumerated timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Instances along the path, startpoint first.
    pub instances: Vec<InstId>,
    /// Total path delay including the endpoint setup time, ns.
    pub delay_ns: f64,
    /// Slack against the report's MCT, ns (zero for the most critical
    /// path).
    pub slack_ns: f64,
}

/// Persistent list node for sharing path prefixes between heap states.
struct PathNode {
    inst: InstId,
    prev: Option<Rc<PathNode>>,
}

fn materialize(node: &Rc<PathNode>) -> Vec<InstId> {
    let mut v = Vec::new();
    let mut cur = Some(node.clone());
    while let Some(n) = cur {
        v.push(n.inst);
        cur = n.prev.clone();
    }
    v.reverse();
    v
}

struct State {
    est: f64,
    prefix: f64,
    /// `None` marks a finish state (the path is complete).
    at: Option<InstId>,
    path: Rc<PathNode>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.est == other.est
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        self.est.total_cmp(&other.est)
    }
}

/// Timing-edge context shared by ψ computation and enumeration.
struct PathGraph<'a> {
    flat: &'a FlatNetlist,
    report: &'a TimingReport,
    /// Endpoint weight of each instance (wire + setup to the worst
    /// endpoint it drives), or `None` if it drives no endpoint.
    end_weight: Vec<Option<f64>>,
    /// ψ: exact max delay-to-endpoint from each instance output.
    psi: Vec<f64>,
    /// Combinational successors with edge weights `wire + gate_delay(q)`.
    succ: Vec<Vec<(InstId, f64)>>,
}

impl<'a> PathGraph<'a> {
    fn build(nl: &'a Netlist, report: &'a TimingReport, setup_ns: &[f64]) -> Self {
        let flat = nl.flat();
        let n = flat.num_instances();
        let mut end_weight: Vec<Option<f64>> = vec![None; n];
        let mut succ: Vec<Vec<(InstId, f64)>> = vec![Vec::new(); n];

        for i in 0..n {
            let out_net = flat.output(i) as usize;
            let wire = report.wire_delay_ns[out_net];
            if nl.nets[out_net].is_primary_output {
                let w = end_weight[i].get_or_insert(0.0);
                *w = w.max(0.0);
            }
            let mut seen_comb: Option<InstId> = None;
            for &sink_raw in flat.sinks(out_net) {
                let (sink, s) = (InstId(sink_raw), sink_raw as usize);
                if flat.is_sequential(s) {
                    // Only the flop's data pin (pin 0) is an endpoint.
                    if flat.fanin(s)[0].1 as usize == out_net {
                        let w = wire + setup_ns[s];
                        let e = end_weight[i].get_or_insert(w);
                        *e = e.max(w);
                    }
                } else {
                    // A gate can take the same net on several pins; the
                    // timing edge is the same, so dedup consecutive sinks
                    // (sinks of one net are grouped by construction).
                    if seen_comb == Some(sink) || succ[i].iter().any(|&(q, _)| q == sink) {
                        continue;
                    }
                    seen_comb = Some(sink);
                    succ[i].push((sink, wire + report.gate_delay_ns[s]));
                }
            }
        }

        // ψ in reverse level order: every successor sits on a higher
        // level than its driver.
        let levels = nl.topo_levels().expect("acyclic");
        let mut psi = vec![f64::NEG_INFINITY; n];
        for &id in levels.levels.iter().rev().flatten() {
            let i = id.0 as usize;
            let mut best = end_weight[i].unwrap_or(f64::NEG_INFINITY);
            for &(q, w) in &succ[i] {
                best = best.max(w + psi[q.0 as usize]);
            }
            psi[i] = best;
        }
        Self {
            flat,
            report,
            end_weight,
            psi,
            succ,
        }
    }

    /// Startpoints with their base delays: sequential outputs (clk→Q) and
    /// PI-fed combinational gates (pad wire + gate delay).
    fn starts(&self) -> Vec<(InstId, f64)> {
        let mut starts = Vec::new();
        for i in 0..self.flat.num_instances() {
            let id = InstId(i as u32);
            if self.flat.is_sequential(i) {
                starts.push((id, self.report.gate_delay_ns[i]));
                continue;
            }
            // Combinational gate with at least one PI input: its PI-driven
            // arrival can begin a path.
            let mut pi_arr: Option<f64> = None;
            for &(drv, net) in self.flat.fanin(i) {
                if drv == FlatNetlist::NO_DRIVER {
                    let w = self.report.wire_delay_ns[net as usize];
                    let a = w + self.report.gate_delay_ns[i];
                    pi_arr = Some(pi_arr.map_or(a, |x: f64| x.max(a)));
                }
            }
            if let Some(a) = pi_arr {
                starts.push((id, a));
            }
        }
        starts
    }
}

/// Reports the single worst path to every timing endpoint (FF data pins
/// and primary outputs), sorted most-critical first — the default view a
/// signoff timer (PrimeTime) gives and the path population the paper's
/// Table VII / dosePl operate on. Unlike [`top_k_paths`], which
/// enumerates *all* paths in delay order (and therefore drowns in the
/// combinatorial near-critical path cloud of reconvergent logic), this is
/// `O(endpoints × depth)`.
///
/// # Panics
///
/// Panics if `setup_ns` does not match the instance count.
pub fn worst_path_per_endpoint(
    nl: &Netlist,
    report: &TimingReport,
    setup_ns: &[f64],
) -> Vec<TimingPath> {
    worst_paths_per_endpoint_k(nl, report, setup_ns, usize::MAX)
}

/// Backtraces the max-arrival chain from a driver instance — the single
/// worst path into the endpoint that driver feeds. Shared by the
/// report-based oracle ([`worst_path_per_endpoint`]) and the
/// incremental-state enumerator ([`worst_paths_top_k`]); both hand it
/// bitwise-identical `arrival`/`wire_delay` arrays, so the traced
/// chains are identical too.
fn trace_max_arrival_chain(
    flat: &FlatNetlist,
    arrival: &[f64],
    wire_delay: &[f64],
    mut cur: u32,
) -> Vec<InstId> {
    let mut chain = vec![InstId(cur)];
    loop {
        let i = cur as usize;
        if flat.is_sequential(i) {
            break;
        }
        let mut best: Option<(f64, u32)> = None;
        let mut pi_arr = f64::NEG_INFINITY;
        for &(drv, net) in flat.fanin(i) {
            let wire = wire_delay[net as usize];
            if drv != FlatNetlist::NO_DRIVER {
                let a = arrival[drv as usize] + wire;
                if best.is_none_or(|(b, _)| a > b) {
                    best = Some((a, drv));
                }
            } else {
                pi_arr = pi_arr.max(wire);
            }
        }
        match best {
            Some((a, drv)) if a >= pi_arr => {
                chain.push(InstId(drv));
                cur = drv;
            }
            _ => break, // path launches from a primary input
        }
    }
    chain.reverse();
    chain
}

/// [`worst_path_per_endpoint`] capped at the `k` worst endpoints by
/// partial selection: endpoint delays are computed without backtracing,
/// `select_nth_unstable_by` isolates the K worst, only the head is
/// sorted, and only those K endpoints are traced — O(E + K·(log K +
/// depth)) instead of the full O(E log E) sort plus O(E) backtraces.
///
/// The comparator orders by delay descending with ties broken by
/// endpoint enumeration order (FF data pins in instance order, then
/// primary outputs), which is exactly the order the stable sort in the
/// uncapped walk produces — so the result is bitwise identical to
/// `worst_path_per_endpoint(..)` truncated to `k`.
///
/// # Panics
///
/// Panics if `setup_ns` does not match the instance count.
pub fn worst_paths_per_endpoint_k(
    nl: &Netlist,
    report: &TimingReport,
    setup_ns: &[f64],
    k: usize,
) -> Vec<TimingPath> {
    assert_eq!(setup_ns.len(), nl.num_instances());
    if k == 0 {
        return Vec::new();
    }
    // (delay, enumeration index, endpoint driver) — backtraces deferred
    // until after selection.
    let flat = nl.flat();
    let mut eps: Vec<(f64, u32, u32)> = Vec::new();
    for (drv, ff) in engine::endpoints(nl, flat) {
        let a = report.arrival_ns[drv as usize];
        let delay = match ff {
            Some((data, i)) => a + report.wire_delay_ns[data as usize] + setup_ns[i as usize],
            None => a,
        };
        eps.push((delay, eps.len() as u32, drv));
    }
    let by_criticality =
        |a: &(f64, u32, u32), b: &(f64, u32, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if k < eps.len() {
        eps.select_nth_unstable_by(k - 1, by_criticality);
        eps.truncate(k);
    }
    eps.sort_unstable_by(by_criticality);
    eps.into_iter()
        .map(|(delay, _, drv)| TimingPath {
            instances: trace_max_arrival_chain(
                flat,
                &report.arrival_ns,
                &report.wire_delay_ns,
                drv,
            ),
            delay_ns: delay,
            slack_ns: report.mct_ns - delay,
        })
        .collect()
}

/// The `k` worst endpoint paths straight from an [`IncrementalSta`]'s
/// lazily maintained per-endpoint contribution state — no full-design
/// `analyze`, no full endpoint sort. Costs O(k·depth) backtraces plus
/// the heap pops ([`TopKStats`] reports how many), so round startup in
/// a swap loop is proportional to the paths actually consumed.
///
/// Bitwise contract: after any retime/undo sequence, the returned
/// paths equal `worst_path_per_endpoint(..)` truncated to `k` — same
/// instance chains, same `delay_ns`/`slack_ns` bits, same order —
/// because the endpoint table mirrors the oracle's enumeration order,
/// `ep_value` uses the oracle's delay expression, and the heap breaks
/// ties toward lower endpoint indices exactly like the stable sort.
pub fn worst_paths_top_k(inc: &mut IncrementalSta<'_>, k: usize) -> (Vec<TimingPath>, TopKStats) {
    let (eps, stats) = inc.worst_endpoints_top_k(k);
    // The first live pop is the global max contribution, so it yields
    // the MCT with the same clamp `engine::mct_from_arrivals` applies.
    let mct = eps.first().map_or(0.0, |&(v, _)| 0.0f64.max(v));
    let flat = inc.netlist().flat();
    let arrival = inc.arrival_ns();
    let wires = inc.wire_delay_ns();
    let paths = eps
        .iter()
        .map(|&(delay, drv)| TimingPath {
            instances: trace_max_arrival_chain(flat, arrival, wires, drv.0),
            delay_ns: delay,
            slack_ns: mct - delay,
        })
        .collect();
    (paths, stats)
}

/// Enumerates the top-`k` critical paths of an analyzed design.
///
/// `setup_ns` must give the setup time of every instance (zero for
/// combinational cells) — obtain it from the library masters.
///
/// # Panics
///
/// Panics if `setup_ns` does not match the instance count.
pub fn top_k_paths(
    nl: &Netlist,
    report: &TimingReport,
    setup_ns: &[f64],
    k: usize,
) -> Vec<TimingPath> {
    assert_eq!(setup_ns.len(), nl.num_instances());
    let g = PathGraph::build(nl, report, setup_ns);
    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    for (id, base) in g.starts() {
        let i = id.0 as usize;
        if g.psi[i] == f64::NEG_INFINITY {
            continue;
        }
        heap.push(State {
            est: base + g.psi[i],
            prefix: base,
            at: Some(id),
            path: Rc::new(PathNode {
                inst: id,
                prev: None,
            }),
        });
    }
    let mut out = Vec::with_capacity(k);
    while let Some(s) = heap.pop() {
        match s.at {
            None => {
                out.push(TimingPath {
                    instances: materialize(&s.path),
                    delay_ns: s.prefix,
                    slack_ns: report.mct_ns - s.prefix,
                });
                if out.len() >= k {
                    break;
                }
            }
            Some(v) => {
                let i = v.0 as usize;
                if let Some(ew) = g.end_weight[i] {
                    heap.push(State {
                        est: s.prefix + ew,
                        prefix: s.prefix + ew,
                        at: None,
                        path: s.path.clone(),
                    });
                }
                for &(q, w) in &g.succ[i] {
                    let qi = q.0 as usize;
                    if g.psi[qi] == f64::NEG_INFINITY {
                        continue;
                    }
                    heap.push(State {
                        est: s.prefix + w + g.psi[qi],
                        prefix: s.prefix + w,
                        at: Some(q),
                        path: Rc::new(PathNode {
                            inst: q,
                            prev: Some(s.path.clone()),
                        }),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{analyze, GeometryAssignment};
    use dme_device::Technology;
    use dme_liberty::Library;
    use dme_netlist::{gen, profiles};

    fn setup() -> (Library, dme_netlist::Design, dme_placement::Placement) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = dme_placement::place(&d, &lib);
        (lib, d, p)
    }

    fn setups(lib: &Library, nl: &Netlist) -> Vec<f64> {
        nl.instances
            .iter()
            .map(|i| lib.cell(i.cell_idx).setup_ns(lib.tech()))
            .collect()
    }

    #[test]
    fn paths_come_out_in_descending_delay_order() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = top_k_paths(&d.netlist, &r, &setups(&lib, &d.netlist), 50);
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].delay_ns >= w[1].delay_ns - 1e-12);
        }
    }

    #[test]
    fn worst_path_delay_equals_mct() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = top_k_paths(&d.netlist, &r, &setups(&lib, &d.netlist), 1);
        assert_eq!(paths.len(), 1);
        assert!(
            (paths[0].delay_ns - r.mct_ns).abs() < 1e-9,
            "top path {} vs MCT {}",
            paths[0].delay_ns,
            r.mct_ns
        );
        assert!(paths[0].slack_ns.abs() < 1e-9);
    }

    #[test]
    fn paths_are_connected_chains() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = top_k_paths(&d.netlist, &r, &setups(&lib, &d.netlist), 20);
        for path in &paths {
            for pair in path.instances.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let out = d.netlist.instance(a).output;
                assert!(
                    d.netlist.net(out).sinks.iter().any(|&(s, _)| s == b),
                    "path edge {a}->{b} is not a netlist edge"
                );
            }
        }
    }

    #[test]
    fn paths_are_distinct() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = top_k_paths(&d.netlist, &r, &setups(&lib, &d.netlist), 100);
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert!(
                    paths[i].instances != paths[j].instances,
                    "duplicate path at {i}/{j}"
                );
            }
        }
    }

    #[test]
    fn endpoint_paths_cover_every_endpoint() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = worst_path_per_endpoint(&d.netlist, &r, &setups(&lib, &d.netlist));
        let n_ff = d
            .netlist
            .instances
            .iter()
            .filter(|i| i.is_sequential)
            .count();
        let n_po = d.netlist.primary_outputs.len();
        assert_eq!(paths.len(), n_ff + n_po);
        // Sorted most-critical first and the top path matches the MCT.
        for w in paths.windows(2) {
            assert!(w[0].delay_ns >= w[1].delay_ns);
        }
        assert!((paths[0].delay_ns - r.mct_ns).abs() < 1e-9);
        // Each path is a connected chain ending at the endpoint driver.
        for path in &paths {
            for pair in path.instances.windows(2) {
                let out = d.netlist.instance(pair[0]).output;
                assert!(d.netlist.net(out).sinks.iter().any(|&(s, _)| s == pair[1]));
            }
        }
    }

    #[test]
    fn endpoint_paths_agree_with_full_enumeration_on_the_worst() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let setup_t = setups(&lib, &d.netlist);
        let full = top_k_paths(&d.netlist, &r, &setup_t, 1);
        let per_ep = worst_path_per_endpoint(&d.netlist, &r, &setup_t);
        assert!((full[0].delay_ns - per_ep[0].delay_ns).abs() < 1e-9);
    }

    #[test]
    fn k_limits_output() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let paths = top_k_paths(&d.netlist, &r, &setups(&lib, &d.netlist), 7);
        assert!(paths.len() <= 7);
    }

    fn assert_paths_bitwise_equal(a: &[TimingPath], b: &[TimingPath], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.instances, y.instances, "{what}: instances of path {i}");
            assert_eq!(
                x.delay_ns.to_bits(),
                y.delay_ns.to_bits(),
                "{what}: delay of path {i}"
            );
            assert_eq!(
                x.slack_ns.to_bits(),
                y.slack_ns.to_bits(),
                "{what}: slack of path {i}"
            );
        }
    }

    #[test]
    fn partial_selection_matches_truncated_full_walk() {
        let (lib, d, p) = setup();
        let doses = GeometryAssignment::nominal(d.netlist.num_instances());
        let r = analyze(&lib, &d.netlist, &p, &doses);
        let setup_t = setups(&lib, &d.netlist);
        let full = worst_path_per_endpoint(&d.netlist, &r, &setup_t);
        for k in [
            0,
            1,
            2,
            5,
            full.len().saturating_sub(1),
            full.len(),
            full.len() + 10,
        ] {
            let capped = worst_paths_per_endpoint_k(&d.netlist, &r, &setup_t, k);
            let mut want = full.clone();
            want.truncate(k);
            assert_paths_bitwise_equal(&capped, &want, &format!("k = {k}"));
        }
    }

    #[test]
    fn incremental_top_k_matches_oracle_fresh_and_after_perturbations() {
        let (lib, d, mut p) = setup();
        let n = d.netlist.num_instances();
        let mut doses = GeometryAssignment::nominal(n);
        let mut inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
        let setup_t = setups(&lib, &d.netlist);
        let check = |inc: &mut IncrementalSta<'_>,
                     p: &dme_placement::Placement,
                     doses: &GeometryAssignment,
                     what: &str| {
            let r = analyze(&lib, &d.netlist, p, doses);
            let oracle = worst_path_per_endpoint(&d.netlist, &r, &setup_t);
            for k in [1, 3, oracle.len(), oracle.len() + 5] {
                let (paths, stats) = worst_paths_top_k(inc, k);
                let mut want = oracle.clone();
                want.truncate(k);
                assert_paths_bitwise_equal(&paths, &want, &format!("{what}, k = {k}"));
                assert_eq!(
                    stats.endpoints_popped,
                    paths.len() as u64 + stats.stale_discards,
                    "{what}: every pop is a selection or a discard"
                );
            }
        };
        check(&mut inc, &p, &doses, "fresh");
        // Perturb: moves and re-doses through the push path, with a
        // rejected trial in between so undo-replay residue (duplicate
        // live heap entries) is exercised too.
        inc.set_journal(true);
        let mut pd = dme_placement::PlacementDelta::default();
        for step in 0..6u32 {
            let mark = inc.mark();
            let jm = pd.mark();
            let (a, b) = (
                InstId((step * 3 + 1) % n as u32),
                InstId((step * 7 + 4) % n as u32),
            );
            let mut touched = Vec::new();
            if a != b {
                p.swap_cells_tracked(a, b, &mut pd);
                touched = pd.touched_since(jm);
            }
            let redosed = (step as usize * 5) % n;
            let old_dose = doses.dl_nm[redosed];
            doses.dl_nm[redosed] = -4.0 + (step % 5) as f64;
            touched.push(InstId(redosed as u32));
            inc.retime_touched(&p, &doses, &touched);
            if step % 2 == 0 {
                // Reject the trial: replay both journals back.
                pd.undo_to(&mut p, jm);
                doses.dl_nm[redosed] = old_dose;
                inc.undo_to(mark);
            }
            check(&mut inc, &p, &doses, &format!("step {step}"));
        }
    }
}
