//! Property-based tests for dose grids, maps and actuator fits.

use dme_dosemap::legendre::{actuator_fit, legendre, ScanRecipe};
use dme_dosemap::{DoseGrid, DoseMap, DoseSensitivity};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every point of the field maps to a grid cell whose rectangle
    /// contains it.
    #[test]
    fn cell_of_contains_point(
        w in 10.0f64..500.0,
        h in 10.0f64..500.0,
        g in 2.0f64..60.0,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let grid = DoseGrid::with_granularity(w, h, g);
        let (x, y) = (fx * w * 0.999, fy * h * 0.999);
        let idx = grid.cell_of(x, y);
        let (cx, cy) = grid.cell_center_um(idx);
        prop_assert!((cx - x).abs() <= 0.5 * grid.pitch_x_um() + 1e-9);
        prop_assert!((cy - y).abs() <= 0.5 * grid.pitch_y_um() + 1e-9);
        // Pitches never exceed the granularity.
        prop_assert!(grid.pitch_x_um() <= g + 1e-12);
        prop_assert!(grid.pitch_y_um() <= g + 1e-12);
    }

    /// Snapping to a step keeps every dose within half a step of the
    /// original and inside any box that is itself step-aligned.
    #[test]
    fn snap_is_bounded(
        doses in proptest::collection::vec(-5.0f64..5.0, 4..40),
        steps in 1usize..10,
    ) {
        let step = 0.1 * steps as f64;
        let n = doses.len();
        let side = (n as f64).sqrt().ceil() as usize;
        let grid = DoseGrid::with_granularity(side as f64 * 5.0, side as f64 * 5.0, 5.0);
        let mut padded = doses.clone();
        padded.resize(grid.num_cells(), 0.0);
        let mut map = DoseMap::from_values(grid, padded.clone());
        map.snap_to_step(step);
        for (orig, snapped) in padded.iter().zip(&map.dose_pct) {
            prop_assert!((orig - snapped).abs() <= 0.5 * step + 1e-12);
            let k = snapped / step;
            prop_assert!((k - k.round()).abs() < 1e-9, "not on step: {snapped}");
        }
    }

    /// The smoothness checker agrees with the max neighbor step.
    #[test]
    fn check_matches_max_step(
        doses in proptest::collection::vec(-5.0f64..5.0, 9..36),
    ) {
        let n = doses.len();
        let side = (n as f64).sqrt().floor() as usize;
        let grid = DoseGrid::with_granularity(side as f64 * 5.0, side as f64 * 5.0, 5.0);
        let mut padded = doses.clone();
        padded.resize(grid.num_cells(), 0.0);
        let map = DoseMap::from_values(grid, padded);
        let max_step = map.max_neighbor_step();
        prop_assert!(map.check(-5.0, 5.0, max_step + 1e-9).is_ok());
        // The checker carries a 1e-6 numerical tolerance, so only a bound
        // clearly below the max step must be rejected.
        if max_step > 1e-4 {
            prop_assert!(map.check(-5.0, 5.0, max_step - 1e-5).is_err());
        }
    }

    /// Legendre recurrence: |Pn(y)| ≤ 1 on [−1, 1] and Pn(±1) = (±1)^n.
    #[test]
    fn legendre_bounds(n in 0usize..9, y in -1.0f64..1.0) {
        prop_assert!(legendre(n, y).abs() <= 1.0 + 1e-12);
        prop_assert!((legendre(n, 1.0) - 1.0).abs() < 1e-12);
        let expect = if n % 2 == 0 { 1.0 } else { -1.0 };
        prop_assert!((legendre(n, -1.0) - expect).abs() < 1e-12);
    }

    /// A scan recipe fitted to its own samples reproduces them.
    #[test]
    fn scan_fit_roundtrip(coeffs in proptest::collection::vec(-2.0f64..2.0, 1..6)) {
        let truth = ScanRecipe { coeffs: coeffs.clone() };
        let samples: Vec<(f64, f64)> = (0..32)
            .map(|i| {
                let y = -1.0 + 2.0 * i as f64 / 31.0;
                (y, truth.dose_at(y))
            })
            .collect();
        let fit = ScanRecipe::fit(&samples, coeffs.len() - 1).expect("fit");
        for &(y, d) in &samples {
            prop_assert!((fit.dose_at(y) - d).abs() < 1e-8);
        }
    }

    /// Separable (slit + scan) maps are realized with ~zero residual; the
    /// fit never *increases* the residual beyond the map's own variation.
    #[test]
    fn actuator_fit_residual_bounded(
        a0 in -2.0f64..2.0,
        a2 in -1.0f64..1.0,
        l2 in -1.0f64..1.0,
        rows in 4usize..12,
        cols in 4usize..12,
    ) {
        let grid = DoseGrid::with_granularity(cols as f64 * 5.0, rows as f64 * 5.0, 5.0);
        let mut vals = vec![0.0; grid.num_cells()];
        for (idx, v) in vals.iter_mut().enumerate() {
            let (c, r) = grid.coords(idx);
            let x = if grid.cols() > 1 { 2.0 * c as f64 / (grid.cols() - 1) as f64 - 1.0 } else { 0.0 };
            let y = if grid.rows() > 1 { 2.0 * r as f64 / (grid.rows() - 1) as f64 - 1.0 } else { 0.0 };
            *v = a0 + a2 * x * x + l2 * legendre(2, y);
        }
        let map = DoseMap::from_values(grid, vals);
        let fit = actuator_fit(&map, 2, 2).expect("fit");
        prop_assert!(fit.rms_residual_pct < 1e-6, "rms = {}", fit.rms_residual_pct);
    }

    /// The banded rectangular range query returns exactly the cells a
    /// full-grid scan of the center-containment predicate returns, in
    /// the same (ascending-index) order.
    #[test]
    fn cells_in_rect_matches_scan(
        w in 10.0f64..300.0,
        h in 10.0f64..300.0,
        g in 2.0f64..40.0,
        fx0 in -0.2f64..1.2,
        fx1 in -0.2f64..1.2,
        fy0 in -0.2f64..1.2,
        fy1 in -0.2f64..1.2,
    ) {
        let grid = DoseGrid::with_granularity(w, h, g);
        let (x_min, x_max) = (fx0.min(fx1) * w, fx0.max(fx1) * w);
        let (y_min, y_max) = (fy0.min(fy1) * h, fy0.max(fy1) * h);
        let scan: Vec<usize> = (0..grid.num_cells())
            .filter(|&idx| {
                let (cx, cy) = grid.cell_center_um(idx);
                cx >= x_min && cx <= x_max && cy >= y_min && cy <= y_max
            })
            .collect();
        let fast = grid.cells_in_rect(x_min, x_max, y_min, y_max);
        prop_assert_eq!(&fast, &scan);
        // The conservative band never misses a matching cell.
        prop_assert!(grid.rect_band_cells(x_min, x_max, y_min, y_max) >= scan.len());
    }

    /// Dose sensitivity round-trips.
    #[test]
    fn sensitivity_roundtrip(d in -5.0f64..5.0) {
        let s = DoseSensitivity::default();
        let back = s.dose_pct_for(s.cd_delta_nm(d));
        prop_assert!((back - d).abs() < 1e-12);
    }
}

/// What a dose-map CSV mutation may put in place of a token.
const BAD_TOKENS: [&str; 10] = [
    "NaN",
    "inf",
    "-inf",
    "-4",
    "0",
    "",
    "1e-300",
    "1e300",
    "18446744073709551615",
    "%&garbage",
];

/// Replaces one field of a dose-map CSV line: a header token (its value,
/// for `numeric_only`) or one comma-separated dose.
fn replace_field(line: &str, numeric_only: bool, arg: usize) -> String {
    let bad = |k: usize| BAD_TOKENS[k % BAD_TOKENS.len()];
    if line.starts_with('#') {
        let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        let targets: Vec<usize> = (0..toks.len())
            .filter(|&j| !numeric_only || toks[j].contains('='))
            .collect();
        if let Some(&j) = targets.get(arg % targets.len().max(1)) {
            let rep = bad(arg / targets.len());
            toks[j] = match toks[j].split_once('=') {
                Some((key, _)) if numeric_only => format!("{key}={rep}"),
                _ => rep.to_string(),
            };
        }
        toks.join(" ")
    } else {
        let mut fields: Vec<&str> = line.split(',').collect();
        let j = arg % fields.len();
        fields[j] = bad(arg / fields.len());
        fields.join(",")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dose-map reader never panics on a mutated file: lines dropped,
    /// duplicated or truncated, and fields (any, or a header value)
    /// replaced. Whatever it accepts is a non-empty grid of finite doses
    /// over a finite, positive field.
    #[test]
    fn dose_map_reader_survives_mutations(
        cols in 1usize..6,
        rows in 1usize..6,
        g in 1.0f64..20.0,
        seed in any::<u64>(),
        edits in proptest::collection::vec((0u32..5, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let grid = DoseGrid::with_granularity(cols as f64 * g, rows as f64 * g, g);
        let vals = (0..grid.num_cells())
            .map(|i| ((seed ^ (i as u64).wrapping_mul(0x9E37_79B9)) % 1000) as f64 / 100.0 - 5.0)
            .collect();
        let text = dme_dosemap::io::write_dose_map(&DoseMap::from_values(grid, vals));
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
                _ => lines[i] = replace_field(&lines[i], kind == 4, arg as usize),
            }
        }
        if let Ok(map) = dme_dosemap::io::parse_dose_map(&lines.join("\n")) {
            let g = &map.grid;
            prop_assert!(g.cols() >= 1 && g.rows() >= 1, "empty grid");
            prop_assert_eq!(map.dose_pct.len(), g.num_cells());
            prop_assert!(map.dose_pct.iter().all(|d| d.is_finite()));
            for v in [g.width_um(), g.height_um(), g.pitch_x_um(), g.pitch_y_um()] {
                prop_assert!(v.is_finite() && v > 0.0, "dimension {}", v);
            }
        }
    }
}
