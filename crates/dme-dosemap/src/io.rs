//! Dose-map text export/import.
//!
//! Dose maps travel as a small self-describing CSV: a header line with
//! the grid geometry followed by one row of comma-separated doses per
//! grid row (row 0 = bottom). This is the hand-off format between the
//! optimizer and a dose-recipe generation step (and is trivially
//! plottable as a heatmap).

use crate::grid::{DoseGrid, DoseMap};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`parse_dose_map`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseDoseMapError {
    /// The geometry header is missing or malformed.
    BadHeader(String),
    /// A dose value failed to parse or is not finite.
    Number {
        /// 1-based data-row number.
        row: usize,
        /// The offending token.
        token: String,
    },
    /// The value grid does not match the header geometry.
    Shape {
        /// Rows found.
        rows: usize,
        /// Columns found in the first mismatching row.
        cols: usize,
    },
}

impl fmt::Display for ParseDoseMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDoseMapError::BadHeader(h) => write!(f, "bad dose-map header {h:?}"),
            ParseDoseMapError::Number { row, token } => {
                write!(f, "invalid dose {token:?} in data row {row}")
            }
            ParseDoseMapError::Shape { rows, cols } => {
                write!(f, "dose grid shape mismatch at row {rows} ({cols} columns)")
            }
        }
    }
}

impl Error for ParseDoseMapError {}

/// Serializes a dose map (doses in %, one grid row per line).
pub fn write_dose_map(map: &DoseMap) -> String {
    let g = &map.grid;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dosemap cols={} rows={} width_um={:.4} height_um={:.4}",
        g.cols(),
        g.rows(),
        g.width_um(),
        g.height_um()
    );
    for r in 0..g.rows() {
        let mut row = String::new();
        for c in 0..g.cols() {
            if c > 0 {
                row.push(',');
            }
            let _ = write!(row, "{:.4}", map.dose_pct[g.index(c, r)]);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Parses the output of [`write_dose_map`].
///
/// Never panics: every `Ok` map has at least one grid cell, a finite,
/// positive field size, and a finite dose in every cell.
///
/// # Errors
///
/// Returns a [`ParseDoseMapError`] on header, numeric or shape problems:
/// - [`ParseDoseMapError::BadHeader`] when a key is missing or malformed,
///   `cols` or `rows` is zero, `width_um` or `height_um` is not finite
///   and positive, or the four values describe no consistent grid;
/// - [`ParseDoseMapError::Number`] for a dose that does not parse or is
///   not finite (`NaN`, `inf`);
/// - [`ParseDoseMapError::Shape`] when the rows do not match the header.
pub fn parse_dose_map(text: &str) -> Result<DoseMap, ParseDoseMapError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| ParseDoseMapError::BadHeader("<empty>".into()))?;
    let bad_header = || ParseDoseMapError::BadHeader(header.to_string());
    let mut cols = None;
    let mut rows = None;
    let mut width = None;
    let mut height = None;
    for tok in header.split_whitespace() {
        let mut kv = tok.splitn(2, '=');
        match (kv.next(), kv.next()) {
            (Some("cols"), Some(v)) => cols = v.parse::<usize>().ok(),
            (Some("rows"), Some(v)) => rows = v.parse::<usize>().ok(),
            (Some("width_um"), Some(v)) => width = v.parse::<f64>().ok(),
            (Some("height_um"), Some(v)) => height = v.parse::<f64>().ok(),
            _ => {}
        }
    }
    let (Some(cols), Some(rows), Some(width), Some(height)) = (cols, rows, width, height) else {
        return Err(bad_header());
    };
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if cols == 0 || rows == 0 || !positive(width) || !positive(height) {
        return Err(bad_header());
    }
    // with_granularity ceils width/g; passing exactly width/cols can land
    // on 49.000000000000007 and ceil to cols+1, so widen by one ulp-scale
    // epsilon. A remaining mismatch means the header is inconsistent.
    let g = (width / cols as f64).max(1e-9) * (1.0 + 1e-12);
    let grid = DoseGrid::with_granularity(width, height, g);
    if grid.cols() != cols || grid.rows() != rows || cols.checked_mul(rows).is_none() {
        return Err(bad_header());
    }
    // Filled row by row (row-major, as `DoseGrid::index` lays cells out),
    // so memory follows the text actually read, not the header's claim.
    let mut dose = Vec::new();
    for (ri, line) in lines.enumerate() {
        if ri >= rows {
            return Err(ParseDoseMapError::Shape {
                rows: ri + 1,
                cols: 0,
            });
        }
        let vals: Vec<&str> = line.split(',').map(str::trim).collect();
        if vals.len() != cols {
            return Err(ParseDoseMapError::Shape {
                rows: ri + 1,
                cols: vals.len(),
            });
        }
        for v in vals {
            match v.parse::<f64>() {
                Ok(d) if d.is_finite() => dose.push(d),
                _ => {
                    return Err(ParseDoseMapError::Number {
                        row: ri + 1,
                        token: v.to_string(),
                    })
                }
            }
        }
    }
    let nrows = dose.len() / cols;
    if nrows != rows {
        return Err(ParseDoseMapError::Shape { rows: nrows, cols });
    }
    Ok(DoseMap::from_values(grid, dose))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DoseMap {
        let grid = DoseGrid::with_granularity(40.0, 30.0, 10.0);
        let vals: Vec<f64> = (0..grid.num_cells())
            .map(|i| i as f64 * 0.25 - 1.5)
            .collect();
        DoseMap::from_values(grid, vals)
    }

    #[test]
    fn roundtrip_preserves_values() {
        let map = sample();
        let text = write_dose_map(&map);
        let back = parse_dose_map(&text).expect("parse");
        assert_eq!(back.grid.cols(), map.grid.cols());
        assert_eq!(back.grid.rows(), map.grid.rows());
        for (a, b) in map.dose_pct.iter().zip(&back.dose_pct) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn header_is_self_describing() {
        let text = write_dose_map(&sample());
        assert!(text.starts_with("# dosemap cols=4 rows=3 width_um=40.0000 height_um=30.0000"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let text = write_dose_map(&sample());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        assert!(matches!(
            parse_dose_map(&lines.join("\n")),
            Err(ParseDoseMapError::Shape { .. })
        ));
        // A ragged row.
        let ragged = text.replace(",-1.2500", "");
        assert!(matches!(
            parse_dose_map(&ragged),
            Err(ParseDoseMapError::Shape { .. })
        ));
    }

    #[test]
    fn roundtrip_with_awkward_dimensions() {
        // 240.832 µm at 5 µm granularity: width/cols is not exactly
        // representable, which must not flip the reconstructed grid size.
        let grid = DoseGrid::with_granularity(240.832, 240.832, 5.0);
        let vals = vec![0.5; grid.num_cells()];
        let map = DoseMap::from_values(grid, vals);
        let back = parse_dose_map(&write_dose_map(&map)).expect("parse");
        assert_eq!(back.grid.cols(), map.grid.cols());
        assert_eq!(back.grid.rows(), map.grid.rows());
    }

    #[test]
    fn bad_numbers_and_header_are_detected() {
        let text = write_dose_map(&sample()).replace("-1.5000", "NaNope");
        assert!(matches!(
            parse_dose_map(&text),
            Err(ParseDoseMapError::Number { .. })
        ));
        assert!(matches!(
            parse_dose_map("# dosemap cols=banana\n1,2\n"),
            Err(ParseDoseMapError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dose_map(""),
            Err(ParseDoseMapError::BadHeader(_))
        ));
    }

    /// The sample map's text with its header replaced.
    fn with_header(header: &str) -> String {
        let text = write_dose_map(&sample());
        let body: Vec<&str> = text.lines().skip(1).collect();
        format!("{header}\n{}\n", body.join("\n"))
    }

    #[test]
    fn non_positive_or_non_finite_field_is_a_header_error() {
        for header in [
            "# dosemap cols=4 rows=3 width_um=-4 height_um=30.0000",
            "# dosemap cols=4 rows=3 width_um=NaN height_um=30.0000",
            "# dosemap cols=4 rows=3 width_um=40.0000 height_um=inf",
            "# dosemap cols=4 rows=3 width_um=40.0000 height_um=0",
        ] {
            assert!(
                matches!(
                    parse_dose_map(&with_header(header)),
                    Err(ParseDoseMapError::BadHeader(_))
                ),
                "{header}"
            );
        }
    }

    #[test]
    fn empty_grid_is_a_header_error() {
        assert!(matches!(
            parse_dose_map("# dosemap cols=0 rows=0 width_um=40.0000 height_um=30.0000\n"),
            Err(ParseDoseMapError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dose_map(&with_header(
                "# dosemap cols=4 rows=0 width_um=40.0000 height_um=30.0000"
            )),
            Err(ParseDoseMapError::BadHeader(_))
        ));
    }

    #[test]
    fn non_finite_doses_are_number_errors() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = write_dose_map(&sample()).replace("-1.5000", bad);
            assert_eq!(
                parse_dose_map(&text),
                Err(ParseDoseMapError::Number {
                    row: 1,
                    token: bad.to_string()
                })
            );
        }
    }
}
