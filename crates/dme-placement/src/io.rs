//! DEF-style placement emission and parsing.
//!
//! Placements can be exchanged as a minimal DEF-like text: a `DIEAREA`
//! record plus one `COMPONENT` line per instance with its lower-left
//! coordinates (in µm, not DBU — the subset the rest of this workspace
//! consumes). The pair round-trips every placement this crate produces.

use crate::db::Placement;
use dme_netlist::Netlist;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`parse_placement`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseDefError {
    /// The `DIEAREA` record is missing or malformed.
    MissingDieArea,
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// A component references an instance not in the netlist.
    UnknownInstance {
        /// The instance name.
        name: String,
    },
    /// The file does not place every instance of the netlist.
    MissingInstances {
        /// How many instances were not placed.
        count: usize,
    },
}

impl fmt::Display for ParseDefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDefError::MissingDieArea => write!(f, "missing or malformed DIEAREA record"),
            ParseDefError::Syntax { line, message } => {
                write!(f, "def syntax error at line {line}: {message}")
            }
            ParseDefError::UnknownInstance { name } => {
                write!(f, "component {name:?} is not in the netlist")
            }
            ParseDefError::MissingInstances { count } => {
                write!(f, "{count} netlist instances have no placement")
            }
        }
    }
}

impl Error for ParseDefError {}

/// Emits a placement as DEF-like text.
pub fn write_placement(p: &Placement, nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN dme ;");
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1 ;");
    let _ = writeln!(
        out,
        "DIEAREA ( 0 0 ) ( {:.4} {:.4} ) ;",
        p.die_w_um, p.die_h_um
    );
    let _ = writeln!(out, "ROWHEIGHT {:.4} ;", p.row_h_um);
    let _ = writeln!(out, "SITEWIDTH {:.4} ;", p.site_um);
    let _ = writeln!(out, "COMPONENTS {} ;", nl.num_instances());
    for id in nl.inst_ids() {
        let i = id.0 as usize;
        let _ = writeln!(
            out,
            "- {} PLACED ( {:.7} {:.7} ) N ;",
            nl.instance(id).name,
            p.x_um[i],
            p.y_um[i]
        );
    }
    let _ = writeln!(out, "END COMPONENTS");
    out
}

fn parse_f64(line: usize, tok: &str) -> Result<f64, ParseDefError> {
    let v = tok.parse::<f64>().map_err(|_| ParseDefError::Syntax {
        line,
        message: format!("expected a number, found {tok:?}"),
    })?;
    if !v.is_finite() {
        return Err(ParseDefError::Syntax {
            line,
            message: format!("expected a finite number, found {tok:?}"),
        });
    }
    Ok(v)
}

/// Most rows a parsed die may hold. A die height over row height above
/// this is a [`ParseDefError::Syntax`] error: it keeps
/// [`Placement::num_rows`], and every per-row table the legality check
/// and the ECO repacker allocate, bounded. 2^20 rows is about three
/// orders of magnitude above the row count of a 1M-cell die.
pub const MAX_ROWS: usize = 1 << 20;

/// A die, row or site dimension: finite and positive.
fn parse_length(line: usize, tok: &str) -> Result<f64, ParseDefError> {
    let v = parse_f64(line, tok)?;
    if v <= 0.0 {
        return Err(ParseDefError::Syntax {
            line,
            message: format!("expected a positive length, found {tok:?}"),
        });
    }
    Ok(v)
}

/// Parses DEF-like text back into a [`Placement`] against a netlist
/// (instance names must match).
///
/// # Errors
///
/// Returns a [`ParseDefError`] for malformed records, unknown instances
/// or incomplete placements. A non-finite coordinate, or a die, row or
/// site dimension that is not finite and positive, is a
/// [`ParseDefError::Syntax`] error at its line, as is a die more than
/// [`MAX_ROWS`] rows high (reported at the later of its `DIEAREA` and
/// `ROWHEIGHT` lines).
pub fn parse_placement(text: &str, nl: &Netlist) -> Result<Placement, ParseDefError> {
    let name_to_id: HashMap<&str, usize> = nl
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (inst.name.as_str(), i))
        .collect();
    let n = nl.num_instances();
    let mut x = vec![f64::NAN; n];
    let mut y = vec![f64::NAN; n];
    let mut die: Option<(f64, f64)> = None;
    let mut die_line = 0;
    let mut row_h = 1.0;
    let mut row_line = 0;
    let mut site = 0.2;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let l = raw.trim();
        let toks: Vec<&str> = l.split_whitespace().collect();
        if l.starts_with("DIEAREA") {
            // DIEAREA ( 0 0 ) ( w h ) ;
            if toks.len() < 9 {
                return Err(ParseDefError::MissingDieArea);
            }
            die = Some((parse_length(line, toks[6])?, parse_length(line, toks[7])?));
            die_line = line;
        } else if l.starts_with("ROWHEIGHT") {
            row_h = parse_length(line, toks.get(1).copied().unwrap_or(""))?;
            row_line = line;
        } else if l.starts_with("SITEWIDTH") {
            site = parse_length(line, toks.get(1).copied().unwrap_or(""))?;
        } else if l.starts_with("- ") {
            // - name PLACED ( x y ) N ;
            if toks.len() < 7 || toks[2] != "PLACED" {
                return Err(ParseDefError::Syntax {
                    line,
                    message: format!("malformed component record {l:?}"),
                });
            }
            let name = toks[1];
            let &idx = name_to_id
                .get(name)
                .ok_or_else(|| ParseDefError::UnknownInstance {
                    name: name.to_string(),
                })?;
            x[idx] = parse_f64(line, toks[4])?;
            y[idx] = parse_f64(line, toks[5])?;
        }
    }
    let (die_w, die_h) = die.ok_or(ParseDefError::MissingDieArea)?;
    if die_h / row_h > MAX_ROWS as f64 {
        return Err(ParseDefError::Syntax {
            line: die_line.max(row_line),
            message: format!(
                "die height {die_h} µm over row height {row_h} µm exceeds {MAX_ROWS} rows"
            ),
        });
    }
    let missing = x.iter().filter(|v| v.is_nan()).count();
    if missing > 0 {
        return Err(ParseDefError::MissingInstances { count: missing });
    }
    Ok(Placement {
        die_w_um: die_w,
        die_h_um: die_h,
        row_h_um: row_h,
        site_um: site,
        x_um: x,
        y_um: y,
        pi_pos: nl
            .primary_inputs
            .iter()
            .enumerate()
            .map(|(i, _)| {
                (
                    0.0,
                    die_h * (i as f64 + 0.5) / nl.primary_inputs.len().max(1) as f64,
                )
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;
    use dme_liberty::Library;
    use dme_netlist::{gen, profiles};

    #[test]
    fn roundtrip_is_exact_modulo_formatting() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = crate::place(&d, &lib);
        let text = write_placement(&p, &d.netlist);
        let back = parse_placement(&text, &d.netlist).expect("parse");
        for i in 0..d.netlist.num_instances() {
            assert!((back.x_um[i] - p.x_um[i]).abs() < 1e-3);
            assert!((back.y_um[i] - p.y_um[i]).abs() < 1e-3);
        }
        assert!((back.die_w_um - p.die_w_um).abs() < 1e-3);
        // The parsed placement is still legal (coordinates are written
        // with sub-nanometer precision, well below legality tolerances).
        back.check_legal(&d.netlist, &lib).expect("legal");
    }

    #[test]
    fn missing_instances_are_detected() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = crate::place(&d, &lib);
        let text = write_placement(&p, &d.netlist);
        // Drop one component line (ff0 always exists).
        let truncated: Vec<&str> = text.lines().filter(|l| !l.starts_with("- ff0 ")).collect();
        let err = parse_placement(&truncated.join("\n"), &d.netlist);
        assert!(matches!(
            err,
            Err(ParseDefError::MissingInstances { count: 1 })
        ));
    }

    #[test]
    fn unknown_instance_is_detected() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let text = "DIEAREA ( 0 0 ) ( 10 10 ) ;\n- ghost PLACED ( 1 1 ) N ;\n";
        assert!(matches!(
            parse_placement(text, &d.netlist),
            Err(ParseDefError::UnknownInstance { .. })
        ));
    }

    /// The tiny design's DEF text with `line_start`'s line replaced.
    fn with_line(line_start: &str, replacement: &str) -> (String, usize, dme_netlist::Netlist) {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = crate::place(&d, &lib);
        let text = write_placement(&p, &d.netlist);
        let lineno = 1 + text
            .lines()
            .position(|l| l.starts_with(line_start))
            .expect("line present");
        let edited: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.starts_with(line_start) {
                    replacement
                } else {
                    l
                }
            })
            .collect();
        (edited.join("\n"), lineno, d.netlist)
    }

    fn assert_syntax_error_at(line_start: &str, replacement: &str) {
        let (text, lineno, nl) = with_line(line_start, replacement);
        match parse_placement(&text, &nl) {
            Err(ParseDefError::Syntax { line, .. }) => assert_eq!(line, lineno, "{replacement}"),
            other => panic!("{replacement}: expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn nan_component_y_is_rejected() {
        assert_syntax_error_at("- ff0 ", "- ff0 PLACED ( 1.0 NaN ) N ;");
    }

    #[test]
    fn infinite_component_x_is_rejected() {
        assert_syntax_error_at("- ff0 ", "- ff0 PLACED ( inf 1.0 ) N ;");
    }

    #[test]
    fn zero_row_height_is_rejected() {
        assert_syntax_error_at("ROWHEIGHT", "ROWHEIGHT 0 ;");
    }

    #[test]
    fn negative_or_infinite_row_height_is_rejected() {
        assert_syntax_error_at("ROWHEIGHT", "ROWHEIGHT -1.8 ;");
        assert_syntax_error_at("ROWHEIGHT", "ROWHEIGHT inf ;");
    }

    #[test]
    fn tiny_row_height_is_rejected() {
        // 1e-300 µm is positive and finite, but the die would hold
        // ~1e300 rows: `num_rows` saturates and the legality check's
        // per-row table cannot be allocated.
        assert_syntax_error_at("ROWHEIGHT", "ROWHEIGHT 1e-300 ;");
        assert_syntax_error_at("ROWHEIGHT", "ROWHEIGHT 1.0e-6 ;");
        // A tall die goes over the cap too; the row count is known at
        // the ROWHEIGHT record, which follows DIEAREA.
        let tall = format!("DIEAREA ( 0 0 ) ( 50 {} ) ;", 4.0 * MAX_ROWS as f64);
        let (text, die_line, nl) = with_line("DIEAREA", &tall);
        match parse_placement(&text, &nl) {
            Err(ParseDefError::Syntax { line, .. }) => assert_eq!(line, die_line + 1),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn row_count_at_the_cap_is_accepted() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        let p = crate::place(&d, &lib);
        let text = write_placement(&p, &d.netlist).replace(
            &format!("ROWHEIGHT {:.4} ;", p.row_h_um),
            &format!("ROWHEIGHT {} ;", p.die_h_um / MAX_ROWS as f64),
        );
        let back = parse_placement(&text, &d.netlist).expect("at the cap");
        assert!(back.num_rows() <= MAX_ROWS);
    }

    #[test]
    fn non_positive_or_non_finite_site_width_is_rejected() {
        assert_syntax_error_at("SITEWIDTH", "SITEWIDTH 0 ;");
        assert_syntax_error_at("SITEWIDTH", "SITEWIDTH NaN ;");
    }

    #[test]
    fn non_positive_or_non_finite_die_area_is_rejected() {
        assert_syntax_error_at("DIEAREA", "DIEAREA ( 0 0 ) ( 0 50 ) ;");
        assert_syntax_error_at("DIEAREA", "DIEAREA ( 0 0 ) ( 50 -50 ) ;");
        assert_syntax_error_at("DIEAREA", "DIEAREA ( 0 0 ) ( inf 50 ) ;");
        assert_syntax_error_at("DIEAREA", "DIEAREA ( 0 0 ) ( 50 NaN ) ;");
    }

    #[test]
    fn missing_diearea_is_detected() {
        let lib = Library::standard(Technology::n65());
        let d = gen::generate(&profiles::tiny(), &lib);
        assert!(matches!(
            parse_placement("COMPONENTS 0 ;\n", &d.netlist),
            Err(ParseDefError::MissingDieArea)
        ));
        let _ = lib;
    }
}
