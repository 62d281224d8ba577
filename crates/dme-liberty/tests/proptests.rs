//! Property-based tests for NLDM tables and cell characterization.

use dme_device::Technology;
use dme_liberty::{Library, Table2d};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bilinear interpolation inside the grid stays within the min/max of
    /// the four surrounding corners.
    #[test]
    fn interpolation_within_corner_hull(
        values in proptest::collection::vec(0.0f64..10.0, 9),
        fs in 0.0f64..1.0,
        fl in 0.0f64..1.0,
    ) {
        let slews = [0.01, 0.05, 0.2];
        let loads = [1.0, 4.0, 16.0];
        let mut it = values.iter();
        let t = Table2d::tabulate(&slews, &loads, |_, _| *it.next().expect("9 values"));
        // Query inside a random cell of the grid.
        let (i, j) = ((fs * 1.999) as usize, (fl * 1.999) as usize);
        let s = slews[i] + (slews[i + 1] - slews[i]) * (fs * 2.0 - i as f64).clamp(0.0, 1.0);
        let c = loads[j] + (loads[j + 1] - loads[j]) * (fl * 2.0 - j as f64).clamp(0.0, 1.0);
        let v = t.lookup(s, c);
        let corners = [t.at(i, j), t.at(i, j + 1), t.at(i + 1, j), t.at(i + 1, j + 1)];
        let lo = corners.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
    }

    /// Every cell master's delay is monotone in load and its leakage is
    /// monotone decreasing in gate length, across the dose range.
    #[test]
    fn masters_are_electrically_sane(
        cell_pick in 0usize..45,
        dl in -10.0f64..10.0,
        dw in -10.0f64..10.0,
        slew in 0.005f64..0.3,
    ) {
        let lib = Library::standard(Technology::n65());
        let cell = lib.cell(cell_pick % lib.cells().len());
        let tech = lib.tech();
        let d_small = cell.evaluate(tech, dl, dw, 2.0, slew);
        let d_big = cell.evaluate(tech, dl, dw, 8.0, slew);
        prop_assert!(d_big.0 > d_small.0 && d_big.1 > d_small.1, "load monotonicity");
        // Leakage decreasing in L, increasing in W.
        let leak = cell.leakage_nw(tech, dl, dw);
        prop_assert!(cell.leakage_nw(tech, dl + 1.0, dw) < leak);
        prop_assert!(cell.leakage_nw(tech, dl, dw + 5.0) > leak);
        prop_assert!(leak > 0.0 && leak.is_finite());
    }

    /// Characterized tables reproduce direct evaluation at grid points
    /// for arbitrary geometry deltas.
    #[test]
    fn characterization_matches_model(
        cell_pick in 0usize..45,
        dl in -10.0f64..10.0,
        si in 0usize..7,
        li in 0usize..7,
    ) {
        let lib = Library::standard(Technology::n65());
        let idx = cell_pick % lib.cells().len();
        let cell = lib.cell(idx);
        let tables = cell.characterize(lib.tech(), dl, 0.0, lib.axes());
        let s = lib.axes().slew_ns[si];
        let c = lib.axes().load_ff[li];
        let direct = cell.evaluate(lib.tech(), dl, 0.0, c, s);
        prop_assert!((tables.delay_rise.lookup(s, c) - direct.0).abs() < 1e-12);
        prop_assert!((tables.delay_fall.lookup(s, c) - direct.1).abs() < 1e-12);
    }
}

/// What a Liberty mutation may put in place of a number.
const BAD_NUMBERS: [&str; 6] = ["nan", "inf", "-inf", "NaN", "infinity", "%&garbage"];

/// Replaces one number of a Liberty line (lines without one stay).
fn replace_number(line: &str, arg: usize) -> String {
    let is_num = |c: char| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e');
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in line
        .char_indices()
        .chain(std::iter::once((line.len(), ' ')))
    {
        match (start, is_num(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if line[s..i].parse::<f64>().is_ok() {
                    spans.push(s..i);
                }
                start = None;
            }
            _ => {}
        }
    }
    if spans.is_empty() {
        return line.to_string();
    }
    let span = spans[arg % spans.len()].clone();
    let bad = BAD_NUMBERS[(arg / spans.len()) % BAD_NUMBERS.len()];
    format!("{}{bad}{}", &line[..span.start], &line[span.end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Liberty reader never panics on a mutated library: lines
    /// dropped, duplicated or truncated (quotes included), and numbers
    /// replaced by non-finite or garbage values. Whatever it accepts has
    /// finite axes, scalars and table entries, each table the template's
    /// shape.
    #[test]
    fn liberty_reader_survives_mutations(
        edits in proptest::collection::vec((0u32..4, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let lib = Library::standard(Technology::n65());
        let text = dme_liberty::io::write_library(&lib, -2.0, 1.0);
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
                _ => lines[i] = replace_number(&lines[i], arg as usize),
            }
        }
        if let Ok(parsed) = dme_liberty::io::parse_library(&lines.join("\n")) {
            let (slew, load) = (&parsed.axes.slew_ns, &parsed.axes.load_ff);
            prop_assert!(slew.iter().chain(load).all(|v| v.is_finite()), "axes");
            for cell in parsed.cells.values() {
                prop_assert!(
                    [cell.area_um2, cell.leakage_nw, cell.input_cap_ff].iter().all(|v| v.is_finite()),
                    "{} scalars", cell.name
                );
                let t = &cell.tables;
                for table in [&t.delay_rise, &t.delay_fall, &t.slew_rise, &t.slew_fall] {
                    for si in 0..slew.len() {
                        for li in 0..load.len() {
                            prop_assert!(table.at(si, li).is_finite(), "{} ({}, {})", cell.name, si, li);
                        }
                    }
                }
            }
        }
    }
}
