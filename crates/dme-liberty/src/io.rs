//! Liberty (`.lib`) text emission and parsing.
//!
//! The synthetic libraries can be dumped in a Liberty-compatible subset —
//! `library`/`cell`/`pin`/`timing` groups with `lu_table_template`-style
//! NLDM tables and per-cell leakage — and read back. The writer/parser
//! pair covers the subset this workspace produces (it is not a general
//! Liberty front end), which is enough to exchange characterized dose
//! variants with external tools and to round-trip-test the
//! characterization flow.

use crate::cell::CellTables;
use crate::{Library, Table2d, TableAxes};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`parse_library`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseLibError {
    /// The text ended inside a group.
    UnexpectedEof,
    /// A structural token was malformed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A numeric field failed to parse.
    Number {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
}

impl fmt::Display for ParseLibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLibError::UnexpectedEof => write!(f, "unexpected end of liberty text"),
            ParseLibError::Syntax { line, message } => {
                write!(f, "liberty syntax error at line {line}: {message}")
            }
            ParseLibError::Number { line, token } => {
                write!(f, "invalid number {token:?} at line {line}")
            }
        }
    }
}

impl Error for ParseLibError {}

/// A cell read back from Liberty text: its tables plus scalar attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// Cell (master) name.
    pub name: String,
    /// Footprint area, µm².
    pub area_um2: f64,
    /// Leakage power, nW.
    pub leakage_nw: f64,
    /// Input pin capacitance, fF.
    pub input_cap_ff: f64,
    /// The four NLDM tables.
    pub tables: CellTables,
}

/// A library read back from Liberty text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLibrary {
    /// Library name attribute.
    pub name: String,
    /// Shared table axes.
    pub axes: TableAxes,
    /// Cells by name (sorted).
    pub cells: BTreeMap<String, ParsedCell>,
}

fn write_floats(out: &mut String, vals: &[f64]) {
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v:.6}");
    }
}

fn write_table(out: &mut String, keyword: &str, t: &Table2d, indent: &str) {
    let _ = writeln!(out, "{indent}{keyword} (nldm_7x7) {{");
    for r in 0..t.slew_axis().len() {
        let row: Vec<f64> = (0..t.load_axis().len()).map(|c| t.at(r, c)).collect();
        let mut s = String::new();
        write_floats(&mut s, &row);
        let sep = if r + 1 == t.slew_axis().len() {
            ""
        } else {
            ", \\"
        };
        let _ = writeln!(out, "{indent}  values (\"{s}\"){sep}");
    }
    let _ = writeln!(out, "{indent}}}");
}

/// Emits a library (at given geometry deltas) as Liberty text.
///
/// Every cell is written with one output pin carrying the four NLDM
/// tables (`cell_rise`, `cell_fall`, `rise_transition`,
/// `fall_transition`), its leakage power and its input pin capacitance.
pub fn write_library(lib: &Library, dl_nm: f64, dw_nm: f64) -> String {
    let tech = lib.tech();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "library (dme_{}_dl{}_dw{}) {{",
        tech.name, dl_nm, dw_nm
    );
    let _ = writeln!(out, "  delay_model : table_lookup;");
    let _ = writeln!(out, "  time_unit : \"1ns\";");
    let _ = writeln!(out, "  capacitive_load_unit (1, ff);");
    let _ = writeln!(out, "  leakage_power_unit : \"1nW\";");
    let axes = lib.axes();
    let _ = writeln!(out, "  lu_table_template (nldm_7x7) {{");
    let _ = writeln!(out, "    variable_1 : input_net_transition;");
    let _ = writeln!(out, "    variable_2 : total_output_net_capacitance;");
    let mut s = String::new();
    write_floats(&mut s, &axes.slew_ns);
    let _ = writeln!(out, "    index_1 (\"{s}\");");
    let mut s = String::new();
    write_floats(&mut s, &axes.load_ff);
    let _ = writeln!(out, "    index_2 (\"{s}\");");
    let _ = writeln!(out, "  }}");

    for cell in lib.cells() {
        let tables = cell.characterize(tech, dl_nm, dw_nm, axes);
        let _ = writeln!(out, "  cell ({}) {{", cell.name());
        let _ = writeln!(out, "    area : {:.4};", cell.area_um2());
        let _ = writeln!(
            out,
            "    cell_leakage_power : {:.6};",
            cell.leakage_nw(tech, dl_nm, dw_nm)
        );
        let _ = writeln!(out, "    pin (A) {{");
        let _ = writeln!(out, "      direction : input;");
        let _ = writeln!(
            out,
            "      capacitance : {:.6};",
            cell.input_cap_ff(tech, dl_nm, dw_nm)
        );
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "    pin (Y) {{");
        let _ = writeln!(out, "      direction : output;");
        let _ = writeln!(out, "      timing () {{");
        write_table(&mut out, "cell_rise", &tables.delay_rise, "        ");
        write_table(&mut out, "cell_fall", &tables.delay_fall, "        ");
        write_table(&mut out, "rise_transition", &tables.slew_rise, "        ");
        write_table(&mut out, "fall_transition", &tables.slew_fall, "        ");
        let _ = writeln!(out, "      }}");
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Tokenized line cursor for the parser.
struct Cursor<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Self { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<(usize, &'a str), ParseLibError> {
        let r = self.peek().ok_or(ParseLibError::UnexpectedEof)?;
        self.pos += 1;
        Ok(r)
    }
}

/// Parses one finite number; `nan`, `inf` and garbage are
/// [`ParseLibError::Number`] at `line`.
fn finite(line: usize, t: &str) -> Result<f64, ParseLibError> {
    t.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| ParseLibError::Number {
            line,
            token: t.to_string(),
        })
}

fn parse_floats(line: usize, s: &str) -> Result<Vec<f64>, ParseLibError> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| finite(line, t))
        .collect()
}

/// Extracts the quoted payload of a `name ("...")`-style line.
fn quoted(line: usize, s: &str) -> Result<&str, ParseLibError> {
    let a = s.find('"').ok_or_else(|| ParseLibError::Syntax {
        line,
        message: format!("expected quoted payload in {s:?}"),
    })?;
    let b = s
        .rfind('"')
        .filter(|&b| b > a)
        .ok_or_else(|| ParseLibError::Syntax {
            line,
            message: "unterminated quote".into(),
        })?;
    Ok(&s[a + 1..b])
}

fn scalar_after_colon(line: usize, s: &str) -> Result<f64, ParseLibError> {
    let v = s
        .split(':')
        .nth(1)
        .ok_or_else(|| ParseLibError::Syntax {
            line,
            message: format!("expected ':' in {s:?}"),
        })?
        .trim()
        .trim_end_matches(';')
        .trim();
    finite(line, v)
}

fn parse_table(cur: &mut Cursor<'_>, axes: &TableAxes) -> Result<Table2d, ParseLibError> {
    // Header line already consumed by the caller; read `values` rows until
    // the closing brace.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let shape_error = |line: usize, what: String| ParseLibError::Syntax {
        line,
        message: format!(
            "{what}; the template is {}x{}",
            axes.slew_ns.len(),
            axes.load_ff.len()
        ),
    };
    loop {
        let (line, l) = cur.next()?;
        if l.starts_with('}') {
            if rows.len() != axes.slew_ns.len() {
                return Err(shape_error(line, format!("table has {} rows", rows.len())));
            }
            break;
        }
        if l.contains('"') {
            let row = parse_floats(line, quoted(line, l)?)?;
            if row.len() != axes.load_ff.len() || rows.len() == axes.slew_ns.len() {
                return Err(shape_error(
                    line,
                    format!("table row {} has {} values", rows.len() + 1, row.len()),
                ));
            }
            rows.push(row);
        }
    }
    let mut it = rows.into_iter().flatten();
    Ok(Table2d::tabulate(&axes.slew_ns, &axes.load_ff, |_, _| {
        it.next().expect("shape checked")
    }))
}

/// Parses Liberty text produced by [`write_library`] (or an equivalent
/// subset).
///
/// # Errors
///
/// Returns a [`ParseLibError`] describing the first structural or numeric
/// problem encountered.
pub fn parse_library(text: &str) -> Result<ParsedLibrary, ParseLibError> {
    let mut cur = Cursor::new(text);
    let (line, header) = cur.next()?;
    if !header.starts_with("library") {
        return Err(ParseLibError::Syntax {
            line,
            message: "expected `library (...) {`".into(),
        });
    }
    let name = header
        .split(['(', ')'])
        .nth(1)
        .unwrap_or("unnamed")
        .trim()
        .to_string();

    let mut axes: Option<TableAxes> = None;
    let mut cells = BTreeMap::new();

    while let Some((line, l)) = cur.peek() {
        if l.starts_with("lu_table_template") {
            cur.next()?;
            let mut slew = Vec::new();
            let mut load = Vec::new();
            loop {
                let (line, l) = cur.next()?;
                if l.starts_with('}') {
                    break;
                }
                if l.starts_with("index_1") {
                    slew = parse_floats(line, quoted(line, l)?)?;
                } else if l.starts_with("index_2") {
                    load = parse_floats(line, quoted(line, l)?)?;
                }
            }
            if slew.len() < 2 || load.len() < 2 {
                return Err(ParseLibError::Syntax {
                    line,
                    message: "template must define index_1 and index_2".into(),
                });
            }
            axes = Some(TableAxes {
                slew_ns: slew,
                load_ff: load,
            });
        } else if l.starts_with("cell ") || l.starts_with("cell(") {
            let axes = axes.clone().ok_or_else(|| ParseLibError::Syntax {
                line,
                message: "cell before lu_table_template".into(),
            })?;
            cur.next()?;
            let cell_name = l
                .split(['(', ')'])
                .nth(1)
                .ok_or_else(|| ParseLibError::Syntax {
                    line,
                    message: "cell without a name".into(),
                })?
                .trim()
                .to_string();
            let mut area = 0.0;
            let mut leak = 0.0;
            let mut cap = 0.0;
            let mut tables: [Option<Table2d>; 4] = [None, None, None, None];
            let mut depth = 1usize;
            while depth > 0 {
                let (line, l) = cur.next()?;
                if l.starts_with("area") {
                    area = scalar_after_colon(line, l)?;
                } else if l.starts_with("cell_leakage_power") {
                    leak = scalar_after_colon(line, l)?;
                } else if l.starts_with("capacitance") {
                    cap = scalar_after_colon(line, l)?;
                } else if l.starts_with("cell_rise") {
                    tables[0] = Some(parse_table(&mut cur, &axes)?);
                } else if l.starts_with("cell_fall") {
                    tables[1] = Some(parse_table(&mut cur, &axes)?);
                } else if l.starts_with("rise_transition") {
                    tables[2] = Some(parse_table(&mut cur, &axes)?);
                } else if l.starts_with("fall_transition") {
                    tables[3] = Some(parse_table(&mut cur, &axes)?);
                } else if l.ends_with('{') {
                    depth += 1;
                } else if l.starts_with('}') {
                    depth -= 1;
                }
            }
            let [Some(dr), Some(df), Some(sr), Some(sf)] = tables else {
                return Err(ParseLibError::Syntax {
                    line,
                    message: format!("cell {cell_name} is missing NLDM tables"),
                });
            };
            cells.insert(
                cell_name.clone(),
                ParsedCell {
                    name: cell_name,
                    area_um2: area,
                    leakage_nw: leak,
                    input_cap_ff: cap,
                    tables: CellTables {
                        delay_rise: dr,
                        delay_fall: df,
                        slew_rise: sr,
                        slew_fall: sf,
                    },
                },
            );
        } else {
            cur.next()?;
        }
    }
    let axes = axes.ok_or(ParseLibError::UnexpectedEof)?;
    Ok(ParsedLibrary { name, axes, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_device::Technology;

    #[test]
    fn roundtrip_preserves_tables_and_scalars() {
        let lib = Library::standard(Technology::n65());
        let text = write_library(&lib, -4.0, 2.0);
        let parsed = parse_library(&text).expect("parse");
        assert_eq!(parsed.cells.len(), lib.cells().len());
        assert_eq!(parsed.axes.slew_ns, lib.axes().slew_ns);
        for cell in lib.cells() {
            let p = &parsed.cells[cell.name()];
            let tables = cell.characterize(lib.tech(), -4.0, 2.0, lib.axes());
            for (si, &s) in lib.axes().slew_ns.iter().enumerate() {
                for (li, &c) in lib.axes().load_ff.iter().enumerate() {
                    assert!(
                        (p.tables.delay_rise.at(si, li) - tables.delay_rise.at(si, li)).abs()
                            < 1e-5,
                        "{} rise at ({s},{c})",
                        cell.name()
                    );
                }
            }
            assert!((p.leakage_nw - cell.leakage_nw(lib.tech(), -4.0, 2.0)).abs() < 1e-4);
            assert!((p.area_um2 - cell.area_um2()).abs() < 1e-3);
        }
    }

    #[test]
    fn written_text_looks_like_liberty() {
        let lib = Library::standard(Technology::n65());
        let text = write_library(&lib, 0.0, 0.0);
        assert!(text.contains("library (dme_65nm_dl0_dw0) {"));
        assert!(text.contains("lu_table_template (nldm_7x7)"));
        assert!(text.contains("cell (INVX1) {"));
        assert!(text.contains("cell_rise (nldm_7x7)"));
        // 45 cells, one timing group each.
        assert_eq!(text.matches("cell_leakage_power").count(), 45);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_library(""),
            Err(ParseLibError::UnexpectedEof)
        ));
        assert!(matches!(
            parse_library("hello world"),
            Err(ParseLibError::Syntax { .. })
        ));
        // A cell before the template is structural nonsense.
        let bad = "library (x) {\n cell (A) {\n }\n}\n";
        assert!(matches!(
            parse_library(bad),
            Err(ParseLibError::Syntax { .. })
        ));
    }

    /// `text` with the first line holding `from` rewritten by `edit`.
    fn edit_line(text: &str, from: &str, edit: impl Fn(&str) -> String) -> (String, usize) {
        let at = text
            .lines()
            .position(|l| l.contains(from))
            .expect("line present");
        let out: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| if i == at { edit(l) } else { l.to_string() })
            .collect();
        (out.join("\n"), at + 1)
    }

    #[test]
    fn malformed_tables_are_errors_at_their_line() {
        let lib = Library::standard(Technology::n65());
        let text = write_library(&lib, 0.0, 0.0);
        // A `values` row that lost its closing quote.
        let (cut, line) = edit_line(&text, "values (\"", |l| {
            let end = l.rfind('"').expect("quoted");
            l[..end].to_string()
        });
        match parse_library(&cut) {
            Err(ParseLibError::Syntax { line: at, message }) => {
                assert_eq!(at, line);
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        // A row with one value too few.
        let (short, line) = edit_line(&text, "values (\"", |l| {
            let quote = l.rfind('"').expect("quoted");
            let comma = l[..quote].rfind(',').expect("several values");
            format!("{}\"), \\", &l[..comma])
        });
        assert!(
            matches!(parse_library(&short), Err(ParseLibError::Syntax { line: at, .. }) if at == line),
            "{:?}",
            parse_library(&short)
        );
        // A table with one row missing: the error is at its closing brace.
        let at = text
            .lines()
            .position(|l| l.contains("values (\""))
            .expect("a table");
        let dropped: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != at + 1)
            .map(|(_, l)| l)
            .collect();
        let brace = text
            .lines()
            .skip(at)
            .position(|l| l.trim().starts_with('}'))
            .expect("close")
            + at;
        assert!(
            matches!(parse_library(&dropped.join("\n")), Err(ParseLibError::Syntax { line: l, .. }) if l == brace),
            "{:?}",
            parse_library(&dropped.join("\n"))
        );
    }

    #[test]
    fn non_finite_values_are_rejected() {
        let lib = Library::standard(Technology::n65());
        let text = write_library(&lib, 0.0, 0.0);
        for (key, bad) in [
            ("values (\"", "nan"),
            ("values (\"", "inf"),
            ("cell_leakage_power", "NaN"),
            ("area", "-inf"),
            ("index_1", "infinity"),
        ] {
            let (edited, line) = edit_line(&text, key, |l| {
                let value = l.find(['"', ':']).expect("a value");
                let start = value
                    + l[value..]
                        .find(|c: char| c.is_ascii_digit())
                        .expect("a number");
                let end = l[start..]
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '-'))
                    .map_or(l.len(), |e| start + e);
                format!("{}{bad}{}", &l[..start], &l[end..])
            });
            match parse_library(&edited) {
                Err(ParseLibError::Number { line: at, token }) => {
                    assert_eq!((at, token.as_str()), (line, bad), "{key}");
                }
                other => panic!("{key} = {bad}: expected a number error, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_reports_bad_numbers() {
        let lib = Library::standard(Technology::n65());
        let text = write_library(&lib, 0.0, 0.0).replace("0.002000", "zero.oops");
        assert!(matches!(
            parse_library(&text),
            Err(ParseLibError::Number { .. })
        ));
    }
}
