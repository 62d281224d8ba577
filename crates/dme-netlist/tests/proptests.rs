//! Property-based tests for generated netlists, the compressed-sparse-row
//! connectivity view and the Verilog reader.

use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::verilog::{parse_netlist, write_netlist};
use dme_netlist::{
    gen, profiles, profiles::TechNode, DesignProfile, FlatNetlist, InstId, Instance, Net, NetId,
    Netlist,
};
use proptest::prelude::*;

/// The oracle for [`Netlist::flat`]: every fanin pair, output net,
/// sequential flag, driver and sink of the view equals the live
/// `instances`/`nets`, in pin and sink order.
fn assert_view_matches(nl: &Netlist) {
    let flat = nl.flat();
    assert_eq!(flat.num_instances(), nl.num_instances());
    assert_eq!(flat.num_nets(), nl.num_nets());
    let driver_of = |net: NetId| {
        nl.net(net)
            .driver
            .map_or(FlatNetlist::NO_DRIVER, |d: InstId| d.0)
    };
    for (i, inst) in nl.instances.iter().enumerate() {
        let want: Vec<(u32, u32)> = inst.inputs.iter().map(|&n| (driver_of(n), n.0)).collect();
        assert_eq!(flat.fanin(i), &want[..], "fanin of instance {i}");
        assert_eq!(flat.output(i), inst.output.0, "output of instance {i}");
        assert_eq!(flat.is_sequential(i), inst.is_sequential, "flag of {i}");
    }
    for (k, net) in nl.nets.iter().enumerate() {
        assert_eq!(
            flat.driver(k),
            driver_of(NetId(k as u32)),
            "driver of net {k}"
        );
        let want: Vec<u32> = net.sinks.iter().map(|&(s, _)| s.0).collect();
        assert_eq!(flat.sinks(k), &want[..], "sinks of net {k}");
    }
}

fn random_profile() -> impl Strategy<Value = DesignProfile> {
    (
        60usize..400,
        2usize..32,
        0.05f64..0.25,
        3usize..16,
        0.3f64..0.95,
        0.0f64..3.0,
        1usize..6,
        0.3f64..0.95,
        any::<u64>(),
    )
        .prop_map(
            |(cells, pis, seq, levels, bias, taper, slices, tap, seed)| DesignProfile {
                name: "PROP".into(),
                node: TechNode::N65,
                target_cells: cells,
                num_primary_inputs: pis,
                seq_fraction: seq,
                levels,
                chain_bias: bias,
                level_taper: taper,
                slices,
                ff_tap_deep_frac: tap,
                die_area_mm2: cells as f64 * 4.0e-6, // generous density
                utilization: 0.7,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any profile in the supported envelope produces a structurally
    /// valid, acyclic netlist with the exact requested size.
    #[test]
    fn generated_netlists_are_valid(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        prop_assert_eq!(d.netlist.num_instances(), profile.target_cells);
        prop_assert_eq!(
            d.netlist.num_nets(),
            profile.target_cells + profile.num_primary_inputs
        );
        d.netlist.validate(&lib).expect("valid netlist");
        let order = d.netlist.topo_order().expect("acyclic");
        prop_assert_eq!(order.len(), d.netlist.num_instances());
        // Topological property: every combinational fanin precedes its user.
        let mut pos = vec![0usize; order.len()];
        for (p, id) in order.iter().enumerate() {
            pos[id.0 as usize] = p;
        }
        for id in d.netlist.inst_ids() {
            if d.netlist.instance(id).is_sequential {
                continue; // FF D-pins are endpoints, not topo dependencies
            }
            for f in d.netlist.comb_fanin(id) {
                prop_assert!(pos[f.0 as usize] < pos[id.0 as usize]);
            }
        }
    }

    /// Generation is a pure function of the profile.
    #[test]
    fn generation_deterministic(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let a = gen::generate(&profile, &lib);
        let b = gen::generate(&profile, &lib);
        prop_assert_eq!(a.netlist.instances, b.netlist.instances);
        prop_assert_eq!(a.netlist.nets.len(), b.netlist.nets.len());
    }

    /// The paper indexing is a permutation of 1..=n with the reverse
    /// topological property (consumers get smaller numbers).
    #[test]
    fn paper_indexing_is_reverse_topological(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let idx = d.netlist.paper_indexing().expect("acyclic");
        let mut seen = vec![false; idx.len() + 1];
        for &v in &idx {
            prop_assert!(v >= 1 && v <= idx.len());
            prop_assert!(!seen[v], "duplicate paper index {v}");
            seen[v] = true;
        }
        for id in d.netlist.inst_ids() {
            if d.netlist.instance(id).is_sequential {
                continue;
            }
            for f in d.netlist.comb_fanin(id) {
                prop_assert!(
                    idx[id.0 as usize] < idx[f.0 as usize],
                    "consumer must be numbered closer to the sink"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached view equals the live netlist on any generated design.
    #[test]
    fn flat_view_matches_the_netlist(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        assert_view_matches(&d.netlist);
    }
}

/// A hand-built netlist that holds the view's corner cases:
/// - `u0` reads the primary input `pi` on both of its pins;
/// - `ff0`'s data net `q0` (driven by `u0`) is also a primary output;
/// - `u1`'s output `dead` has no sinks;
/// - `ff0`'s own output `q1` feeds `u1`.
fn corner_cases(lib: &Library) -> Netlist {
    let nand = lib.index_of("NAND2X1").expect("NAND2X1");
    let inv = lib.index_of("INVX1").expect("INVX1");
    let dff = lib.index_of("DFFX1").expect("DFFX1");
    let mut nl = Netlist::default();
    for name in ["pi", "q0", "q1", "dead"] {
        nl.nets.push(Net {
            name: name.into(),
            ..Net::default()
        });
    }
    let (pi, q0, q1, dead) = (NetId(0), NetId(1), NetId(2), NetId(3));
    nl.primary_inputs.push(pi);
    let add = |nl: &mut Netlist, name: &str, cell_idx, inputs: Vec<NetId>, output: NetId| {
        let id = InstId(nl.instances.len() as u32);
        for (pin, &net) in inputs.iter().enumerate() {
            nl.nets[net.0 as usize].sinks.push((id, pin));
        }
        nl.nets[output.0 as usize].driver = Some(id);
        nl.instances.push(Instance {
            name: name.into(),
            cell_idx,
            inputs,
            output,
            is_sequential: lib.cell(cell_idx).is_sequential(),
        });
    };
    add(&mut nl, "u0", nand, vec![pi, pi], q0);
    add(&mut nl, "ff0", dff, vec![q0], q1);
    add(&mut nl, "u1", inv, vec![q1], dead);
    nl.nets[q0.0 as usize].is_primary_output = true;
    nl.primary_outputs.push(q0);
    nl.nets[dead.0 as usize].is_primary_output = true;
    nl.primary_outputs.push(dead);
    nl
}

#[test]
fn flat_view_holds_the_corner_cases() {
    let lib = Library::standard(Technology::n65());
    let nl = corner_cases(&lib);
    nl.validate(&lib).expect("valid");
    assert_view_matches(&nl);
    let flat = nl.flat();
    let none = FlatNetlist::NO_DRIVER;
    // One net on two pins: two pairs, pin order kept, and two sinks.
    assert_eq!(flat.fanin(0), &[(none, 0), (none, 0)]);
    assert_eq!(flat.sinks(0), &[0, 0]);
    assert_eq!(flat.driver(0), none, "a primary input has no driver");
    // The flop's data net is also a primary output: one sink, the flop.
    assert_eq!(flat.fanin(1), &[(0, 1)]);
    assert_eq!(flat.sinks(1), &[1]);
    assert!(flat.is_sequential(1) && !flat.is_sequential(2));
    // A net with no sinks.
    assert_eq!(flat.driver(3), 2);
    assert!(flat.sinks(3).is_empty());
    // The flop is a startpoint: `u1` has no combinational fanin.
    assert_eq!(flat.comb_fanin(2).count(), 0);
    assert_eq!(flat.comb_fanin(1).collect::<Vec<_>>(), vec![0]);
}

#[test]
fn invalidation_rebuilds_the_view_after_an_edit() {
    let lib = Library::standard(Technology::n65());
    let mut nl = corner_cases(&lib);
    let before = nl.flat().clone();
    assert_eq!(nl.topo_levels().expect("acyclic").depth[2], 1);
    // Rewire u1 from the flop's output to the primary input.
    nl.instances[2].inputs[0] = NetId(0);
    nl.nets[2].sinks.clear();
    nl.nets[0].sinks.push((InstId(2), 0));
    nl.validate(&lib).expect("still valid");
    nl.invalidate_connectivity();
    assert_view_matches(&nl);
    assert_ne!(nl.flat(), &before);
    assert_eq!(nl.flat(), &FlatNetlist::build(&nl));
    assert_eq!(nl.flat().fanin(2), &[(FlatNetlist::NO_DRIVER, 0)]);
    assert_eq!(nl.topo_levels().expect("acyclic").depth[2], 0);
}

/// The name at the head of a token that ends in punctuation.
fn word(t: &str) -> &str {
    t.trim_end_matches(|c: char| !c.is_ascii_alphanumeric())
}

/// What a Verilog mutation may put in place of a token.
const BAD_TOKENS: [&str; 11] = [
    "(", ")", ";", ",", "", "n0", "clk", "u0)", "(w,", "DFFX1", "input",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Verilog reader never panics on a mutated file: lines dropped,
    /// duplicated, truncated or swapped, tokens replaced by punctuation,
    /// keywords or net names, a punctuation mark moved to the end of a
    /// word (`u0) (w, a;`), and one net name rewired to another (which
    /// makes loops and multiple drivers). No net it accepts is both a
    /// declared input and driven, and whatever `validate` passes has a
    /// connectivity view equal to its structs.
    #[test]
    fn verilog_reader_survives_mutations(
        seed in any::<u64>(),
        edits in proptest::collection::vec((0u32..7, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let text = write_netlist(&d.netlist, &lib, "m");
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let n = d.netlist.num_nets();
        for (kind, at, arg) in edits {
            if lines.is_empty() {
                break;
            }
            let i = at as usize % lines.len();
            match kind {
                0 => {
                    lines.remove(i);
                }
                1 => {
                    let line = lines[i].clone();
                    lines.insert(i, line);
                }
                2 => {
                    let keep = arg as usize % (lines[i].chars().count() + 1);
                    lines[i] = lines[i].chars().take(keep).collect();
                }
                3 => {
                    let j = arg as usize % lines.len();
                    lines.swap(i, j);
                }
                4 => {
                    let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
                    if !toks.is_empty() {
                        let j = arg as usize % toks.len();
                        toks[j] = BAD_TOKENS[(arg as usize / toks.len()) % BAD_TOKENS.len()];
                    }
                    lines[i] = toks.join(" ");
                }
                5 => {
                    // Move one punctuation mark to the end of a word.
                    let mut chars: Vec<char> = lines[i].chars().collect();
                    let marks: Vec<usize> =
                        (0..chars.len()).filter(|&j| "(),;".contains(chars[j])).collect();
                    if !marks.is_empty() {
                        let c = chars.remove(marks[arg as usize % marks.len()]);
                        let ends: Vec<usize> = (1..=chars.len())
                            .filter(|&j| {
                                !chars[j - 1].is_whitespace()
                                    && chars.get(j).is_none_or(|c| c.is_whitespace())
                            })
                            .collect();
                        let at = ends
                            .get((arg as usize / marks.len()) % ends.len().max(1))
                            .copied()
                            .unwrap_or(0);
                        chars.insert(at, c);
                    }
                    lines[i] = chars.into_iter().collect();
                }
                _ => {
                    // Rename one net of the line to any net of the design.
                    let mut toks: Vec<String> = lines[i]
                        .split_inclusive(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                        .map(String::from)
                        .collect();
                    let nets: Vec<usize> = (0..toks.len())
                        .filter(|&j| {
                            let w = word(&toks[j]);
                            w.len() > 1 && w.starts_with('n') && w[1..].bytes().all(|b| b.is_ascii_digit())
                        })
                        .collect();
                    if !nets.is_empty() {
                        let j = nets[arg as usize % nets.len()];
                        let len = word(&toks[j]).len();
                        let to = format!("n{}", (arg as usize / nets.len()) % n);
                        toks[j].replace_range(..len, &to);
                    }
                    lines[i] = toks.concat();
                }
            }
        }
        if let Ok(back) = parse_netlist(&lines.join("\n"), &lib) {
            for &pi in &back.primary_inputs {
                prop_assert!(back.net(pi).driver.is_none(), "driven input {}", pi);
            }
            if back.validate(&lib).is_ok() {
                assert_view_matches(&back);
                prop_assert!(back.topo_levels().is_some());
            }
        }
    }
}
