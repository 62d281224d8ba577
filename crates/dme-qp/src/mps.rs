//! MPS/QPS reader and writer for [`QuadProgram`].
//!
//! Parses the (free-format) MPS linear-programming exchange format plus
//! the QPS quadratic extension used by the Maros–Mészáros QP test set:
//! a `QUADOBJ` section listing the lower triangle of the Hessian `Q` of
//! the objective `c₀ + cᵀx + ½·xᵀQx`. This is what lets the IPM be
//! validated and benchmarked as a standalone QP engine against external
//! problems (`tests/qps/`, `dmeopt qp solve`), not only on dose-map
//! programs.
//!
//! The mapping onto [`QuadProgram`]'s `l ≤ Ax ≤ u` form is total:
//! row types `E`/`L`/`G` (with optional `RANGES`) become two-sided row
//! bounds, and variable bounds from the `BOUNDS` section (default
//! `0 ≤ x`) are appended as identity constraint rows, since the solver
//! form carries no separate variable-bound vector. The objective
//! constant `c₀` (the negated RHS entry of the objective row, per MPS
//! convention) is preserved on the side so reported objectives can match
//! published optima.

use crate::{CsrMatrix, QuadProgram};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// A parsed QPS problem: the solver-form program plus the naming and
/// objective-offset metadata the file carried.
#[derive(Debug, Clone)]
pub struct QpsProblem {
    /// Problem name from the `NAME` card (empty if absent).
    pub name: String,
    /// The program in solver form (variable bounds appended as identity
    /// rows after the file's constraint rows).
    pub qp: QuadProgram,
    /// Column (variable) names, in file order.
    pub var_names: Vec<String>,
    /// Constraint-row names, in file order. Appended variable-bound rows
    /// are *not* named here; they occupy rows
    /// `row_names.len()..qp.num_constraints()` in column order of the
    /// bounded variables.
    pub row_names: Vec<String>,
    /// Objective constant `c₀`: reported objectives are
    /// `qp.objective(x) + c0`.
    pub c0: f64,
}

impl QpsProblem {
    /// Objective including the file's constant term,
    /// `c₀ + cᵀx + ½·xᵀQx`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        self.qp.objective(x) + self.c0
    }
}

/// Errors from [`parse_qps`] / [`load_qps`].
#[derive(Debug)]
pub enum MpsError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line could not be parsed; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending card.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The sections parsed but do not assemble into a valid program
    /// (e.g. crossed bounds, no columns).
    Invalid(String),
}

impl fmt::Display for MpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpsError::Io(e) => write!(f, "MPS read failed: {e}"),
            MpsError::Parse { line, msg } => write!(f, "MPS parse error at line {line}: {msg}"),
            MpsError::Invalid(msg) => write!(f, "invalid MPS problem: {msg}"),
        }
    }
}

impl std::error::Error for MpsError {}

impl From<std::io::Error> for MpsError {
    fn from(e: std::io::Error) -> Self {
        MpsError::Io(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Eq,
    Le,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Rows,
    Columns,
    Rhs,
    Ranges,
    Bounds,
    QuadObj,
    Done,
}

/// Reads and parses a QPS/MPS file from disk.
///
/// # Errors
///
/// [`MpsError::Io`] on read failure, otherwise as [`parse_qps`].
pub fn load_qps(path: &std::path::Path) -> Result<QpsProblem, MpsError> {
    let text = std::fs::read_to_string(path)?;
    parse_qps(&text)
}

/// Parses QPS/MPS text (free format: cards split on whitespace).
///
/// Supported sections: `NAME`, `ROWS` (`N`/`E`/`L`/`G`), `COLUMNS`,
/// `RHS`, `RANGES`, `BOUNDS` (`LO`/`UP`/`FX`/`FR`/`MI`/`PL`),
/// `QUADOBJ`/`QMATRIX`, `ENDATA`. Integer markers and integer bound
/// types are rejected — this is a continuous QP solver. Every number
/// must be finite, and so must every coefficient its duplicates sum to;
/// the only infinities accepted are `LO -inf` and `UP +inf`, which leave
/// their side of the variable open.
///
/// # Errors
///
/// [`MpsError::Parse`] with a line number for malformed cards, unknown
/// names, or unsupported features; [`MpsError::Invalid`] when the parsed
/// sections do not form a valid program.
pub fn parse_qps(text: &str) -> Result<QpsProblem, MpsError> {
    let mut name = String::new();
    let mut section = Section::None;
    // Constraint rows (non-objective), in declaration order.
    let mut row_names: Vec<String> = Vec::new();
    let mut row_kind: Vec<RowKind> = Vec::new();
    let mut row_index: HashMap<String, usize> = HashMap::new();
    let mut obj_row: Option<String> = None;
    let mut var_names: Vec<String> = Vec::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    // Accumulated coefficients (BTreeMap: dedup + deterministic order).
    let mut a_entries: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut q_obj: BTreeMap<usize, f64> = BTreeMap::new();
    let mut quad: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut rhs: HashMap<usize, f64> = HashMap::new();
    let mut ranges: HashMap<usize, f64> = HashMap::new();
    let mut c0 = 0.0f64;
    // Variable bounds, MPS default [0, +inf); `explicit_lo` tracks
    // whether a lower bound was stated (the classic negative-UP rule).
    let mut var_lo: Vec<f64> = Vec::new();
    let mut var_hi: Vec<f64> = Vec::new();
    let mut explicit_lo: Vec<bool> = Vec::new();

    let err = |line: usize, msg: String| MpsError::Parse { line, msg };
    let num = |line: usize, tok: &str| -> Result<f64, MpsError> {
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(err(line, format!("expected a finite number, got '{tok}'"))),
            Err(_) => Err(err(line, format!("expected a number, got '{tok}'"))),
        }
    };
    // A variable bound: finite, or the infinity `open` that leaves its
    // side unbounded.
    let bound = |line: usize, tok: &str, open: f64| -> Result<f64, MpsError> {
        match tok.parse::<f64>() {
            Ok(v) if v == open => Ok(v),
            _ => num(line, tok),
        }
    };
    // Adds a duplicate card's value to an accumulated coefficient.
    let accumulate = |line: usize, acc: &mut f64, v: f64| -> Result<(), MpsError> {
        *acc += v;
        if acc.is_finite() {
            Ok(())
        } else {
            Err(err(line, "coefficient overflows".into()))
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Comment cards start with '*'; blank lines are skipped.
        if raw.trim().is_empty() || raw.starts_with('*') {
            continue;
        }
        let indented = raw.starts_with(' ') || raw.starts_with('\t');
        let toks: Vec<&str> = raw.split_whitespace().collect();
        if !indented {
            // Section header.
            match toks[0] {
                "NAME" => {
                    name = toks.get(1).map(|s| s.to_string()).unwrap_or_default();
                    continue;
                }
                "ROWS" => section = Section::Rows,
                "COLUMNS" => section = Section::Columns,
                "RHS" => section = Section::Rhs,
                "RANGES" => section = Section::Ranges,
                "BOUNDS" => section = Section::Bounds,
                "QUADOBJ" | "QMATRIX" => section = Section::QuadObj,
                "ENDATA" => {
                    section = Section::Done;
                    break;
                }
                other => return Err(err(lineno, format!("unknown section '{other}'"))),
            }
            continue;
        }
        match section {
            Section::None | Section::Done => {
                return Err(err(lineno, "data card before any section header".into()));
            }
            Section::Rows => {
                let [kind, rname] = toks[..] else {
                    return Err(err(lineno, "ROWS card needs: <type> <name>".into()));
                };
                match kind.to_ascii_uppercase().as_str() {
                    "N" => {
                        if obj_row.is_some() {
                            return Err(err(lineno, "multiple objective (N) rows".into()));
                        }
                        obj_row = Some(rname.to_string());
                    }
                    k @ ("E" | "L" | "G") => {
                        if row_index.contains_key(rname) {
                            return Err(err(lineno, format!("duplicate row '{rname}'")));
                        }
                        row_index.insert(rname.to_string(), row_names.len());
                        row_names.push(rname.to_string());
                        row_kind.push(match k {
                            "E" => RowKind::Eq,
                            "L" => RowKind::Le,
                            _ => RowKind::Ge,
                        });
                    }
                    other => return Err(err(lineno, format!("unknown row type '{other}'"))),
                }
            }
            Section::Columns => {
                if toks.len() >= 3 && toks[1] == "'MARKER'" {
                    return Err(err(lineno, "integer markers are not supported".into()));
                }
                if toks.len() != 3 && toks.len() != 5 {
                    return Err(err(
                        lineno,
                        "COLUMNS card needs: <col> (<row> <val>){1,2}".into(),
                    ));
                }
                let col = *var_index.entry(toks[0].to_string()).or_insert_with(|| {
                    var_names.push(toks[0].to_string());
                    var_lo.push(0.0);
                    var_hi.push(f64::INFINITY);
                    explicit_lo.push(false);
                    var_names.len() - 1
                });
                for pair in toks[1..].chunks(2) {
                    let val = num(lineno, pair[1])?;
                    if Some(pair[0]) == obj_row.as_deref() {
                        accumulate(lineno, q_obj.entry(col).or_insert(0.0), val)?;
                    } else {
                        let Some(&r) = row_index.get(pair[0]) else {
                            return Err(err(lineno, format!("unknown row '{}'", pair[0])));
                        };
                        accumulate(lineno, a_entries.entry((r, col)).or_insert(0.0), val)?;
                    }
                }
            }
            Section::Rhs => {
                // First token is the RHS-set name (ignored).
                if toks.len() != 3 && toks.len() != 5 {
                    return Err(err(
                        lineno,
                        "RHS card needs: <set> (<row> <val>){1,2}".into(),
                    ));
                }
                for pair in toks[1..].chunks(2) {
                    let val = num(lineno, pair[1])?;
                    if Some(pair[0]) == obj_row.as_deref() {
                        // MPS convention: the objective constant is the
                        // *negated* RHS entry of the objective row.
                        c0 = -val;
                    } else {
                        let Some(&r) = row_index.get(pair[0]) else {
                            return Err(err(lineno, format!("unknown row '{}'", pair[0])));
                        };
                        rhs.insert(r, val);
                    }
                }
            }
            Section::Ranges => {
                if toks.len() != 3 && toks.len() != 5 {
                    return Err(err(
                        lineno,
                        "RANGES card needs: <set> (<row> <val>){1,2}".into(),
                    ));
                }
                for pair in toks[1..].chunks(2) {
                    let Some(&r) = row_index.get(pair[0]) else {
                        return Err(err(lineno, format!("unknown row '{}'", pair[0])));
                    };
                    ranges.insert(r, num(lineno, pair[1])?);
                }
            }
            Section::Bounds => {
                let kind = toks[0].to_ascii_uppercase();
                let needs_val = match kind.as_str() {
                    "LO" | "UP" | "FX" => true,
                    "FR" | "MI" | "PL" => false,
                    other => {
                        return Err(err(
                            lineno,
                            format!("unsupported bound type '{other}' (continuous only)"),
                        ));
                    }
                };
                if toks.len() != if needs_val { 4 } else { 3 } {
                    return Err(err(
                        lineno,
                        format!("BOUNDS card needs: {kind} <set> <col> {}", {
                            if needs_val {
                                "<val>"
                            } else {
                                ""
                            }
                        }),
                    ));
                }
                let Some(&j) = var_index.get(toks[2]) else {
                    return Err(err(lineno, format!("unknown column '{}'", toks[2])));
                };
                match kind.as_str() {
                    "LO" => {
                        var_lo[j] = bound(lineno, toks[3], f64::NEG_INFINITY)?;
                        explicit_lo[j] = true;
                    }
                    "UP" => {
                        let v = bound(lineno, toks[3], f64::INFINITY)?;
                        var_hi[j] = v;
                        // Classic MPS rule: a negative upper bound with no
                        // stated lower bound frees the lower side.
                        if v < 0.0 && !explicit_lo[j] {
                            var_lo[j] = f64::NEG_INFINITY;
                        }
                    }
                    "FX" => {
                        let v = num(lineno, toks[3])?;
                        var_lo[j] = v;
                        var_hi[j] = v;
                        explicit_lo[j] = true;
                    }
                    "FR" => {
                        var_lo[j] = f64::NEG_INFINITY;
                        var_hi[j] = f64::INFINITY;
                        explicit_lo[j] = true;
                    }
                    "MI" => {
                        var_lo[j] = f64::NEG_INFINITY;
                        explicit_lo[j] = true;
                    }
                    "PL" => {
                        var_hi[j] = f64::INFINITY;
                    }
                    _ => unreachable!("kind validated above"),
                }
            }
            Section::QuadObj => {
                let [c1, c2, vtok] = toks[..] else {
                    return Err(err(lineno, "QUADOBJ card needs: <col> <col> <val>".into()));
                };
                let (Some(&j1), Some(&j2)) = (var_index.get(c1), var_index.get(c2)) else {
                    return Err(err(lineno, format!("unknown column '{c1}' or '{c2}'")));
                };
                let v = num(lineno, vtok)?;
                // Lower-triangle entry of Q: mirror off-diagonals so the
                // stored P is fully symmetric (the solver form keeps P
                // explicit, ½·xᵀPx).
                let entry = quad.entry((j1.max(j2), j1.min(j2))).or_insert(0.0);
                accumulate(lineno, entry, v)?;
            }
        }
    }
    if section != Section::Done {
        return Err(MpsError::Invalid("missing ENDATA".into()));
    }
    if var_names.is_empty() {
        return Err(MpsError::Invalid("no columns".into()));
    }

    let n = var_names.len();
    let mc = row_names.len();
    // Row bounds from type + RHS + RANGES.
    let mut l = Vec::with_capacity(mc);
    let mut u = Vec::with_capacity(mc);
    for (i, &kind) in row_kind.iter().enumerate() {
        let b = rhs.get(&i).copied().unwrap_or(0.0);
        let (mut lo, mut hi) = match kind {
            RowKind::Eq => (b, b),
            RowKind::Le => (f64::NEG_INFINITY, b),
            RowKind::Ge => (b, f64::INFINITY),
        };
        if let Some(&r) = ranges.get(&i) {
            match kind {
                RowKind::Le => lo = hi - r.abs(),
                RowKind::Ge => hi = lo + r.abs(),
                RowKind::Eq => {
                    if r >= 0.0 {
                        hi = b + r;
                    } else {
                        lo = b + r;
                    }
                }
            }
        }
        l.push(lo);
        u.push(hi);
    }
    // Append variable bounds as identity rows (solver form has none).
    let mut trips: Vec<(usize, usize, f64)> =
        a_entries.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    let mut m = mc;
    for j in 0..n {
        if var_lo[j].is_finite() || var_hi[j].is_finite() {
            trips.push((m, j, 1.0));
            l.push(var_lo[j]);
            u.push(var_hi[j]);
            m += 1;
        }
    }
    let a = CsrMatrix::from_triplets(m, n, &trips);
    let mut p_trips: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * quad.len());
    for (&(r, c), &v) in &quad {
        p_trips.push((r, c, v));
        if r != c {
            p_trips.push((c, r, v));
        }
    }
    let p = CsrMatrix::from_triplets(n, n, &p_trips);
    let q: Vec<f64> = (0..n)
        .map(|j| q_obj.get(&j).copied().unwrap_or(0.0))
        .collect();
    let qp = QuadProgram::new(p, q, a, l, u).map_err(|e| MpsError::Invalid(e.to_string()))?;
    Ok(QpsProblem {
        name,
        qp,
        var_names,
        row_names,
        c0,
    })
}

/// Serializes a [`QpsProblem`] back to QPS text. Round-trips through
/// [`parse_qps`] bit-exactly: bounds appended by the reader are emitted
/// as `BOUNDS` cards again (not as rows), and every number uses the
/// shortest exact decimal form.
pub fn write_qps(pb: &QpsProblem) -> String {
    let qp = &pb.qp;
    let n = qp.num_vars();
    let mc = pb.row_names.len();
    let mut out = String::new();
    out.push_str(&format!("NAME {}\n", pb.name));
    out.push_str("ROWS\n N  OBJ\n");
    for i in 0..mc {
        let kind = if qp.l[i] == qp.u[i] {
            'E'
        } else if qp.l[i].is_finite() {
            'G'
        } else {
            'L'
        };
        out.push_str(&format!(" {kind}  {}\n", pb.row_names[i]));
    }
    // Column-major coefficient lists (objective row first).
    out.push_str("COLUMNS\n");
    let mut col_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..mc {
        for (j, v) in qp.a.row(i) {
            col_rows[j].push((i, v));
        }
    }
    for (j, col) in col_rows.iter().enumerate() {
        if qp.q[j] != 0.0 {
            out.push_str(&format!(
                "    {}  OBJ  {}\n",
                pb.var_names[j],
                fmt_num(qp.q[j])
            ));
        }
        for &(i, v) in col {
            out.push_str(&format!(
                "    {}  {}  {}\n",
                pb.var_names[j],
                pb.row_names[i],
                fmt_num(v)
            ));
        }
    }
    out.push_str("RHS\n");
    if pb.c0 != 0.0 {
        out.push_str(&format!("    RHS  OBJ  {}\n", fmt_num(-pb.c0)));
    }
    for i in 0..mc {
        let b = if qp.l[i].is_finite() {
            qp.l[i]
        } else {
            qp.u[i]
        };
        if b.is_finite() && b != 0.0 {
            out.push_str(&format!("    RHS  {}  {}\n", pb.row_names[i], fmt_num(b)));
        }
    }
    // Two-sided inequality rows need a RANGES card.
    let mut ranges = String::new();
    for i in 0..mc {
        if qp.l[i].is_finite() && qp.u[i].is_finite() && qp.l[i] != qp.u[i] {
            ranges.push_str(&format!(
                "    RNG  {}  {}\n",
                pb.row_names[i],
                fmt_num(qp.u[i] - qp.l[i])
            ));
        }
    }
    if !ranges.is_empty() {
        out.push_str("RANGES\n");
        out.push_str(&ranges);
    }
    // Variable bounds: rows mc.. are the reader-appended identity rows;
    // variables without one are free.
    let mut bounded: Vec<Option<(f64, f64)>> = vec![None; n];
    for i in mc..qp.num_constraints() {
        let mut it = qp.a.row(i);
        if let Some((j, _)) = it.next() {
            bounded[j] = Some((qp.l[i], qp.u[i]));
        }
    }
    out.push_str("BOUNDS\n");
    for (j, b) in bounded.iter().enumerate() {
        match *b {
            None => out.push_str(&format!(" FR BND  {}\n", pb.var_names[j])),
            Some((lo, hi)) => {
                if lo == hi {
                    out.push_str(&format!(" FX BND  {}  {}\n", pb.var_names[j], fmt_num(lo)));
                    continue;
                }
                match (lo.is_finite(), lo == 0.0) {
                    (true, false) => {
                        out.push_str(&format!(" LO BND  {}  {}\n", pb.var_names[j], fmt_num(lo)))
                    }
                    (false, _) => out.push_str(&format!(" MI BND  {}\n", pb.var_names[j])),
                    _ => {}
                }
                if hi.is_finite() {
                    out.push_str(&format!(" UP BND  {}  {}\n", pb.var_names[j], fmt_num(hi)));
                }
            }
        }
    }
    // Lower triangle of Q.
    let mut quad = String::new();
    for r in 0..n {
        for (c, v) in qp.p.row(r) {
            if c <= r {
                quad.push_str(&format!(
                    "    {}  {}  {}\n",
                    pb.var_names[r],
                    pb.var_names[c],
                    fmt_num(v)
                ));
            }
        }
    }
    if !quad.is_empty() {
        out.push_str("QUADOBJ\n");
        out.push_str(&quad);
    }
    out.push_str("ENDATA\n");
    out
}

/// Shortest decimal form that parses back to the same f64.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    debug_assert_eq!(s.parse::<f64>().ok(), Some(v));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const HS35_LIKE: &str = "\
* A tiny QPS problem (HS35 shape).
NAME TINY
ROWS
 N  obj
 L  c1
COLUMNS
    x1  obj  -8.0  c1  1.0
    x2  obj  -6.0  c1  1.0
    x3  obj  -4.0  c1  2.0
RHS
    RHS  c1  3.0  obj  -9.0
QUADOBJ
    x1  x1  4.0
    x1  x2  2.0
    x1  x3  2.0
    x2  x2  4.0
    x3  x3  2.0
ENDATA
";

    #[test]
    fn parses_rows_columns_bounds_and_quadobj() {
        let pb = parse_qps(HS35_LIKE).expect("parse");
        assert_eq!(pb.name, "TINY");
        assert_eq!(pb.var_names, vec!["x1", "x2", "x3"]);
        assert_eq!(pb.row_names, vec!["c1"]);
        assert_eq!(pb.c0, 9.0);
        // 1 constraint row + 3 default-bound rows (0 ≤ x).
        assert_eq!(pb.qp.num_constraints(), 4);
        assert_eq!(pb.qp.u[0], 3.0);
        assert!(pb.qp.l[0].is_infinite());
        for i in 1..4 {
            assert_eq!(pb.qp.l[i], 0.0);
            assert!(pb.qp.u[i].is_infinite());
        }
        // Q mirrored into full symmetric P.
        let x = [1.0, 1.0, 1.0];
        // ½xᵀPx = ½(4+4+2) + 2 + 2 = 9; qᵀx = −18; +c0 = 9 ⇒ 0.
        assert!((pb.objective(&x) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn round_trips_bit_exactly() {
        let pb = parse_qps(HS35_LIKE).expect("parse");
        let text = write_qps(&pb);
        let pb2 = parse_qps(&text).expect("reparse");
        assert_eq!(pb.c0, pb2.c0);
        assert_eq!(pb.qp.q, pb2.qp.q);
        assert_eq!(pb.qp.l, pb2.qp.l);
        assert_eq!(pb.qp.u, pb2.qp.u);
        let x = [0.3, -1.7, 2.2];
        assert_eq!(pb.qp.objective(&x), pb2.qp.objective(&x));
        assert_eq!(pb.qp.a.mul_vec(&x), pb2.qp.a.mul_vec(&x));
    }

    #[test]
    fn negative_up_frees_the_default_lower_bound() {
        let text = "\
NAME NEGUP
ROWS
 N  obj
 G  c1
COLUMNS
    x1  c1  1.0
    x2  c1  1.0
RHS
    RHS  c1  -5.0
BOUNDS
 UP BND  x1  -1.0
 LO BND  x2  -2.0
ENDATA
";
        let pb = parse_qps(text).expect("parse");
        // x1: UP −1 with no LO stated ⇒ (−inf, −1]. x2: [−2, +inf).
        assert!(pb.qp.l[1].is_infinite() && pb.qp.l[1] < 0.0);
        assert_eq!(pb.qp.u[1], -1.0);
        assert_eq!(pb.qp.l[2], -2.0);
        assert!(pb.qp.u[2].is_infinite());
    }

    #[test]
    fn ranges_widen_rows() {
        let text = "\
NAME RNG
ROWS
 N  obj
 L  c1
 G  c2
 E  c3
COLUMNS
    x1  c1  1.0  c2  1.0
    x1  c3  1.0
BOUNDS
 FR BND  x1
RHS
    RHS  c1  4.0  c2  1.0
    RHS  c3  2.0
RANGES
    RNG  c1  2.0  c2  3.0
    RNG  c3  -1.5
ENDATA
";
        let pb = parse_qps(text).expect("parse");
        assert_eq!((pb.qp.l[0], pb.qp.u[0]), (2.0, 4.0));
        assert_eq!((pb.qp.l[1], pb.qp.u[1]), (1.0, 4.0));
        assert_eq!((pb.qp.l[2], pb.qp.u[2]), (0.5, 2.0));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let cases: &[(&str, &str)] = &[
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  bogus  1.0\nENDATA\n",
                "unknown row",
            ),
            ("ROWS\n Z  r1\nENDATA\n", "unknown row type"),
            ("ROWS\n N  o1\n N  o2\nENDATA\n", "multiple objective"),
            ("ROWS\n N  obj\n L  c1\n L  c1\nENDATA\n", "duplicate row"),
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  obj  twelve\nENDATA\n",
                "expected a number",
            ),
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  obj\nENDATA\n",
                "COLUMNS card",
            ),
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  obj  1.0\nBOUNDS\n UI BND  x1  3\nENDATA\n",
                "unsupported bound type",
            ),
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  obj  1.0\n",
                "missing ENDATA",
            ),
            ("GARBAGE\n", "unknown section"),
            (" L  c1\nROWS\nENDATA\n", "before any section"),
            ("ROWS\nENDATA\n", "no columns"),
            (
                "ROWS\n N  obj\nCOLUMNS\n    x1  obj  1.0\nBOUNDS\n FX BND  x1  1.0\n \
                 LO BND  x1  5.0\n UP BND  x1  1.0\nENDATA\n",
                "invalid MPS problem",
            ),
        ];
        for (text, want) in cases {
            let e = parse_qps(text).expect_err(want);
            let msg = e.to_string();
            assert!(msg.contains(want), "'{msg}' does not mention '{want}'");
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected_at_their_line() {
        let with = |section: &str| {
            format!("ROWS\n N  obj\n E  c1\nCOLUMNS\n    x1  obj  1.0  c1  1.0\n{section}ENDATA\n")
        };
        for (section, line) in [
            ("RHS\n    RHS  c1  inf\n", 7),
            ("RHS\n    RHS  obj  NaN\n", 7),
            ("RANGES\n    RNG  c1  -inf\n", 7),
            ("BOUNDS\n LO BND  x1  nan\n", 7),
            ("BOUNDS\n LO BND  x1  inf\n", 7),
            ("BOUNDS\n UP BND  x1  -inf\n", 7),
            ("BOUNDS\n FX BND  x1  inf\n", 7),
            ("QUADOBJ\n    x1  x1  nan\n", 7),
            ("QUADOBJ\n    x1  x1  1e308\n    x1  x1  1e308\n", 8),
        ] {
            match parse_qps(&with(section)) {
                Err(MpsError::Parse { line: at, .. }) => assert_eq!(at, line, "{section}"),
                other => panic!("{section}: expected a parse error, got {other:?}"),
            }
        }
        let text = "ROWS\n N  obj\nCOLUMNS\n    x1  obj  1e308\n    x1  obj  1e308\nENDATA\n";
        assert!(matches!(
            parse_qps(text),
            Err(MpsError::Parse { line: 5, .. })
        ));
        // The open sides stay open.
        let pb = parse_qps(&with("BOUNDS\n LO BND  x1  -inf\n UP BND  x1  inf\n")).unwrap();
        assert_eq!(pb.qp.num_constraints(), 1, "a free variable adds no row");
        let pb = parse_qps(&with("BOUNDS\n LO BND  x1  -1e308\n UP BND  x1  inf\n")).unwrap();
        assert_eq!((pb.qp.l[1], pb.qp.u[1]), (-1e308, f64::INFINITY));
    }

    #[test]
    fn parse_errors_carry_the_offending_line() {
        let text = "ROWS\n N  obj\nCOLUMNS\n    x1  obj  NaN?\nENDATA\n";
        match parse_qps(text) {
            Err(MpsError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
