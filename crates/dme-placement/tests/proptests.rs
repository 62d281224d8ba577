//! Property-based tests for placement and legalization.

mod common;

use common::random_profile;
use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::{gen, profiles, InstId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Placement of any supported design is legal: on rows, in the die,
    /// no overlaps.
    #[test]
    fn placements_are_legal(profile in random_profile()) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        p.check_legal(&d.netlist, &lib).expect("legal placement");
    }

    /// Any sequence of random swaps followed by row repacking preserves
    /// legality (the dosePl ECO invariant).
    #[test]
    fn random_swaps_stay_legal(
        seed in any::<u64>(),
        swaps in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..12),
    ) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let mut p = dme_placement::place(&d, &lib);
        let n = d.netlist.num_instances() as u32;
        for (a, b) in swaps {
            let (a, b) = (InstId(a % n), InstId(b % n));
            if a == b {
                continue;
            }
            let rows = [
                (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
                (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
            ];
            p.swap_cells(a, b);
            p.repack_rows(&lib, &d.netlist, &rows);
        }
        p.check_legal(&d.netlist, &lib).expect("legal after swaps");
    }

    /// Tracked swap/repack perturbations are bitwise-identical to the
    /// untracked ones, and the journal undoes any suffix of them back to
    /// the exact prior coordinate bits.
    #[test]
    fn tracked_perturbations_match_and_undo_bitwise(
        seed in any::<u64>(),
        swaps in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..12),
        undo_point in any::<usize>(),
    ) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let p0 = dme_placement::place(&d, &lib);
        let n = d.netlist.num_instances() as u32;

        let mut plain = p0.clone();
        let mut tracked = p0.clone();
        let mut journal = dme_placement::PlacementDelta::new();
        let mut marks = Vec::new();
        for &(a, b) in &swaps {
            let (a, b) = (InstId(a % n), InstId(b % n));
            if a == b {
                continue;
            }
            marks.push(journal.mark());
            let rows = [
                (plain.y_um[a.0 as usize] / plain.row_h_um).round() as usize,
                (plain.y_um[b.0 as usize] / plain.row_h_um).round() as usize,
            ];
            plain.swap_cells(a, b);
            plain.repack_rows(&lib, &d.netlist, &rows);
            tracked.swap_cells_tracked(a, b, &mut journal);
            tracked.repack_rows_tracked(&lib, &d.netlist, &rows, &mut journal);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&plain.x_um), bits(&tracked.x_um));
        prop_assert_eq!(bits(&plain.y_um), bits(&tracked.y_um));

        // Undoing to an intermediate mark restores only its suffix...
        if !marks.is_empty() {
            let mark = marks[undo_point % marks.len()];
            let writes = journal.writes_since(mark);
            journal.undo_to(&mut tracked, mark);
            prop_assert_eq!(journal.writes_since(mark), 0);
            prop_assert!(writes == 0 || bits(&tracked.x_um) != bits(&plain.x_um)
                || bits(&tracked.y_um) != bits(&plain.y_um)
                || marks.iter().all(|&m| m == mark));
        }
        // ...and undoing everything restores the starting placement.
        journal.undo_all(&mut tracked);
        prop_assert_eq!(bits(&tracked.x_um), bits(&p0.x_um));
        prop_assert_eq!(bits(&tracked.y_um), bits(&p0.y_um));
    }

    /// After any tracked perturbation sequence, refreshing the net-box
    /// cache for the journal-touched instances makes every cached box
    /// bitwise-equal to a from-scratch fold, and what-if queries agree
    /// with scratch evaluation.
    #[test]
    fn netbox_cache_matches_scratch_after_random_moves(
        seed in any::<u64>(),
        swaps in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..10),
        probe in any::<u32>(),
        target in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let nl = &d.netlist;
        let mut p = dme_placement::place(&d, &lib);
        let n = nl.num_instances() as u32;
        let mut cache = dme_placement::NetBoxCache::build(&lib, nl, &p);
        let mut journal = dme_placement::PlacementDelta::new();
        for (a, b) in swaps {
            let (a, b) = (InstId(a % n), InstId(b % n));
            if a == b {
                continue;
            }
            let mark = journal.mark();
            let rows = [
                (p.y_um[a.0 as usize] / p.row_h_um).round() as usize,
                (p.y_um[b.0 as usize] / p.row_h_um).round() as usize,
            ];
            p.swap_cells_tracked(a, b, &mut journal);
            p.repack_rows_tracked(&lib, nl, &rows, &mut journal);
            let touched = journal.touched_since(mark);
            cache.refresh_for_moved(&lib, nl, &p, &touched);
        }
        for ni in 0..nl.num_nets() {
            let net = dme_netlist::NetId(ni as u32);
            let scratch = cache.pins().scratch_bbox(&lib, nl, &p, net, None);
            prop_assert_eq!(cache.bbox(net), scratch, "net {}", ni);
        }
        // What-if queries answered from the cache equal scratch folds.
        let inst = InstId(probe % n);
        let new_center = (target.0 * p.die_w_um, target.1 * p.die_h_um);
        let nets = cache.pins().nets_of(inst).to_vec();
        let mults = cache.pins().mult_of(inst).to_vec();
        for (&net, &mult) in nets.iter().zip(&mults) {
            let fast = cache.bbox_with_moved(&lib, nl, &p, net, inst, mult, new_center);
            let scratch = cache.pins().scratch_bbox(&lib, nl, &p, net, Some((inst, new_center)));
            prop_assert_eq!(fast, scratch, "net {} of inst {}", net.0, inst.0);
        }
    }

    /// HPWL is invariant under swapping two instances of the same master
    /// and translation-monotone basics hold.
    #[test]
    fn hpwl_sanity(seed in any::<u64>()) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let total = p.total_hpwl(&lib, &d.netlist);
        prop_assert!(total.is_finite() && total > 0.0);
        // Per-net HPWL is nonnegative and bounded by the die perimeter.
        for i in 0..d.netlist.num_nets() as u32 {
            let h = p.net_hpwl(&lib, &d.netlist, dme_netlist::NetId(i));
            prop_assert!(h >= 0.0);
            prop_assert!(h <= p.die_w_um + p.die_h_um + 1e-9);
        }
    }
}

/// What a DEF mutation may put in place of a token.
const BAD_TOKENS: [&str; 7] = ["NaN", "inf", "-1", "0", "", "%&garbage", "1e-300"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The DEF reader never panics on a mutated file: lines dropped,
    /// duplicated or truncated, and tokens (any, or a number) replaced.
    /// Whatever it accepts has finite coordinates, finite, positive
    /// die, row and site values and at most `MAX_ROWS` rows, and a
    /// legality check of it runs to completion.
    #[test]
    fn def_reader_survives_mutations(
        seed in any::<u64>(),
        edits in proptest::collection::vec((0u32..5, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let lib = Library::standard(Technology::n65());
        let mut profile = profiles::tiny();
        profile.seed = seed;
        let d = gen::generate(&profile, &lib);
        let p = dme_placement::place(&d, &lib);
        let text = dme_placement::io::write_placement(&p, &d.netlist);
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
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
                _ => {
                    let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
                    let mut targets: Vec<usize> = (0..toks.len()).collect();
                    if kind == 4 {
                        targets.retain(|&j| toks[j].parse::<f64>().is_ok());
                    }
                    if !targets.is_empty() {
                        let j = targets[arg as usize % targets.len()];
                        toks[j] = BAD_TOKENS[(arg as usize / targets.len()) % BAD_TOKENS.len()];
                    }
                    lines[i] = toks.join(" ");
                }
            }
        }
        if let Ok(back) = dme_placement::io::parse_placement(&lines.join("\n"), &d.netlist) {
            prop_assert!(back.x_um.iter().chain(&back.y_um).all(|v| v.is_finite()));
            for v in [back.die_w_um, back.die_h_um, back.row_h_um, back.site_um] {
                prop_assert!(v.is_finite() && v > 0.0, "dimension {}", v);
            }
            prop_assert!(back.num_rows() <= dme_placement::io::MAX_ROWS);
            let _ = back.check_legal(&d.netlist, &lib);
        }
    }
}
