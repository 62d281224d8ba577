//! Property-based tests for the convex solvers.

mod common;

use common::certificate::kkt_certificate;
use dme_qp::{CsrMatrix, IpmSettings, IpmSolver, NewtonBackend, QuadProgram};
use proptest::prelude::*;

/// Deterministic banded matrix big enough to cross the SpMV parallel
/// cutoff (16k nnz), with pseudorandom values derived from `seed`.
fn banded_csr(rows: usize, cols: usize, band: usize, seed: u64) -> CsrMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*; value in (-1, 1)
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let mut entries = Vec::new();
    for r in 0..rows {
        for k in 0..band {
            let c = (r + k * 7) % cols;
            entries.push((r, c, next()));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &entries)
}

/// Builds a random convex QP that is feasible *by construction*: bounds
/// are placed around `A·x0` for a sampled point `x0`.
fn feasible_qp(
    n: usize,
    m: usize,
    p_diag: Vec<f64>,
    q: Vec<f64>,
    entries: Vec<(usize, usize, f64)>,
    x0: Vec<f64>,
    spreads: Vec<f64>,
) -> (QuadProgram, Vec<f64>) {
    let a = CsrMatrix::from_triplets(m, n, &entries);
    let ax0 = a.mul_vec(&x0);
    let l: Vec<f64> = (0..m).map(|i| ax0[i] - spreads[i]).collect();
    let u: Vec<f64> = (0..m).map(|i| ax0[i] + spreads[i]).collect();
    let qp = QuadProgram::new(CsrMatrix::diagonal(&p_diag), q, a, l, u).expect("valid QP");
    (qp, x0)
}

fn qp_strategy() -> impl Strategy<Value = (QuadProgram, Vec<f64>)> {
    sized_qp_strategy(2, 6, 2, 8)
}

fn sized_qp_strategy(
    n_lo: usize,
    n_hi: usize,
    m_lo: usize,
    m_hi: usize,
) -> impl Strategy<Value = (QuadProgram, Vec<f64>)> {
    (n_lo..n_hi, m_lo..m_hi).prop_flat_map(|(n, m)| {
        let p_diag = proptest::collection::vec(0.0f64..4.0, n);
        let q = proptest::collection::vec(-3.0f64..3.0, n);
        let entries = proptest::collection::vec(
            ((0..m), (0..n), -2.0f64..2.0).prop_map(|(r, c, v)| (r, c, v)),
            m..2 * m,
        );
        let x0 = proptest::collection::vec(-2.0f64..2.0, n);
        let spreads = proptest::collection::vec(0.1f64..3.0, m);
        (p_diag, q, entries, x0, spreads)
            .prop_map(move |(p, q, e, x0, s)| feasible_qp(n, m, p, q, e, x0, s))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The IPM returns a feasible point whose objective does not exceed
    /// the constructed feasible point's (minimization actually minimizes).
    #[test]
    fn ipm_feasible_and_no_worse_than_witness((qp, x0) in qp_strategy()) {
        let sol = IpmSolver::new(IpmSettings::default()).solve(&qp).expect("solve");
        prop_assert!(qp.max_violation(&sol.x) < 1e-5,
            "violation {}", qp.max_violation(&sol.x));
        prop_assert!(sol.objective <= qp.objective(&x0) + 1e-5,
            "objective {} vs witness {}", sol.objective, qp.objective(&x0));
    }

    /// Tightening any constraint's bounds around the solution cannot
    /// improve the objective (monotonicity of constrained minimization).
    #[test]
    fn tightening_never_improves((qp, _x0) in qp_strategy()) {
        let sol = IpmSolver::new(IpmSettings::default()).solve(&qp).expect("solve");
        let mut tighter = qp.clone();
        for i in 0..tighter.l.len() {
            let w = tighter.u[i] - tighter.l[i];
            tighter.l[i] += 0.25 * w;
            tighter.u[i] -= 0.25 * w;
        }
        // The tightened problem may be infeasible for the original center;
        // it is still feasible by construction (x0 remains inside after a
        // 25% symmetric shrink only if spreads allowed — so only compare
        // when the solver reports a feasible point).
        if let Ok(t) = IpmSolver::new(IpmSettings::default()).solve(&tighter) {
            if tighter.max_violation(&t.x) < 1e-5 {
                prop_assert!(t.objective >= sol.objective - 1e-5,
                    "tightened {} < original {}", t.objective, sol.objective);
            }
        }
    }

    /// Parallel SpMV (forward and transpose) is bitwise identical to the
    /// serial path, above and below the size cutoff.
    #[test]
    fn spmv_parallel_matches_serial_bitwise(
        seed in any::<u64>(),
        rows in 300usize..500,
        cols in 300usize..500,
        band in 40usize..70,
    ) {
        // Ask for a multi-thread pool even on single-core CI machines so
        // the parallel code path genuinely executes (first pool touch in
        // this process wins; losing the race only means both runs are
        // serial, which keeps the property trivially true).
        std::env::set_var("DME_NUM_THREADS", "4");
        let m = banded_csr(rows, cols, band, seed);
        let x: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.37).sin()).collect();
        let xt: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.71).cos()).collect();
        let mut y_serial = vec![0.0; rows];
        let mut y_par = vec![0.0; rows];
        let mut yt_serial = vec![0.0; cols];
        let mut yt_par = vec![0.0; cols];
        dme_par::set_force_serial(true);
        m.mul_vec_into(&x, &mut y_serial);
        m.mul_transpose_vec_into(&xt, &mut yt_serial);
        dme_par::set_force_serial(false);
        m.mul_vec_into(&x, &mut y_par);
        m.mul_transpose_vec_into(&xt, &mut yt_par);
        for i in 0..rows {
            prop_assert_eq!(y_serial[i].to_bits(), y_par[i].to_bits(), "row {}", i);
        }
        for j in 0..cols {
            prop_assert_eq!(yt_serial[j].to_bits(), yt_par[j].to_bits(), "col {}", j);
        }
    }

    /// The IPM produces the same solution bitwise with the parallel
    /// kernels on and off.
    #[test]
    fn ipm_parallel_matches_serial((qp, _x0) in qp_strategy()) {
        std::env::set_var("DME_NUM_THREADS", "4");
        dme_par::set_force_serial(true);
        let serial = IpmSolver::new(IpmSettings::default()).solve(&qp).expect("serial solve");
        dme_par::set_force_serial(false);
        let par = IpmSolver::new(IpmSettings::default()).solve(&qp).expect("parallel solve");
        prop_assert_eq!(serial.objective.to_bits(), par.objective.to_bits());
        for i in 0..serial.x.len() {
            prop_assert_eq!(serial.x[i].to_bits(), par.x[i].to_bits(), "x[{}]", i);
        }
    }

    /// The sparse direct (LDLᵀ) and matrix-free CG Newton backends agree:
    /// same solve status, objectives within tolerance, and both feasible.
    #[test]
    fn direct_and_cg_backends_agree((qp, _x0) in qp_strategy()) {
        let cg = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Cg,
            ..IpmSettings::default()
        })
        .solve(&qp);
        let direct = IpmSolver::new(IpmSettings {
            backend: NewtonBackend::Direct,
            ..IpmSettings::default()
        })
        .solve(&qp);
        match (cg, direct) {
            (Ok(c), Ok(d)) => {
                prop_assert_eq!(c.status, d.status);
                prop_assert!((c.objective - d.objective).abs() < 1e-4,
                    "cg {} vs direct {}", c.objective, d.objective);
                prop_assert!(qp.max_violation(&d.x) < 1e-5,
                    "direct violation {}", qp.max_violation(&d.x));
            }
            (c, d) => prop_assert!(false, "backend disagreement: cg {:?} direct {:?}",
                c.map(|s| s.status), d.map(|s| s.status)),
        }
    }

    /// The IPM's solution carries a KKT optimality certificate: feasible,
    /// stationary, sign-consistent and complementary. Small scale.
    #[test]
    fn ipm_is_certified_optimal_small((qp, _x0) in sized_qp_strategy(2, 6, 2, 8)) {
        assert_certified(&qp);
    }

    /// Least-squares: the fitted line's residual never exceeds that of
    /// nearby perturbed coefficient pairs (local optimality).
    #[test]
    fn linear_fit_is_locally_optimal(
        xs in proptest::collection::vec(-10.0f64..10.0, 3..20),
        noise in proptest::collection::vec(-1.0f64..1.0, 20),
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
    ) {
        // Need non-degenerate x spread.
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 0.5);
        let ys: Vec<f64> = xs.iter().zip(&noise).map(|(&x, &n)| a + b * x + n).collect();
        let (c0, c1, ssr) = dme_qp::lsq::fit_linear(&xs, &ys).expect("fit");
        let ssr_at = |c0: f64, c1: f64| -> f64 {
            xs.iter().zip(&ys).map(|(&x, &y)| {
                let r = y - c0 - c1 * x;
                r * r
            }).sum()
        };
        for (d0, d1) in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)] {
            prop_assert!(ssr <= ssr_at(c0 + d0, c1 + d1) + 1e-9);
        }
    }
}

/// Solves `qp` on the default settings and checks the solution against
/// the KKT optimality certificate.
fn assert_certified(qp: &QuadProgram) {
    let sol = IpmSolver::new(IpmSettings::default())
        .solve(qp)
        .expect("solve");
    let cert = kkt_certificate(qp, &sol);
    prop_assert!(
        cert.is_ok(),
        "{:?} after {} iterations: {:?}",
        sol.status,
        sol.iterations,
        cert
    );
}

// Medium and large scales run fewer cases: the point is coverage of the
// size-dependent code paths (backend auto-selection flips to the direct
// solver, SpMV crosses its parallel cutoff), not distribution density.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The optimality certificate at medium scale (direct backend
    /// territory).
    #[test]
    fn ipm_is_certified_optimal_medium((qp, _x0) in sized_qp_strategy(15, 30, 20, 40)) {
        assert_certified(&qp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The optimality certificate at the largest proptest scale.
    #[test]
    fn ipm_is_certified_optimal_large((qp, _x0) in sized_qp_strategy(60, 90, 80, 140)) {
        assert_certified(&qp);
    }
}

/// What a QPS mutation may put in place of a numeric token.
const BAD_NUMBERS: [&str; 6] = ["nan", "inf", "-inf", "1e308", "-1e308", "%&garbage"];

/// The bundled QPS fixtures' text, sorted by file name.
fn qps_fixture_texts() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qps");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/qps exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qps"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("fixture reads"))
        .collect()
}

/// Replaces one numeric token of a QPS card (lines without one stay).
fn replace_number(line: &str, arg: usize) -> String {
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    let numeric: Vec<usize> = (0..toks.len())
        .filter(|&j| toks[j].parse::<f64>().is_ok())
        .collect();
    if numeric.is_empty() {
        return line.to_string();
    }
    toks[numeric[arg % numeric.len()]] = BAD_NUMBERS[(arg / numeric.len()) % BAD_NUMBERS.len()];
    let indent = &line[..line.len() - line.trim_start().len()];
    format!("{indent}{}", toks.join("  "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The QPS reader never panics on a mutated fixture: lines dropped,
    /// duplicated or truncated, and numeric tokens replaced by non-finite,
    /// huge or garbage values. Whatever it accepts has a finite `A`, `P`,
    /// `q` and `c₀`, and bounds that are not NaN, with no `l = +∞` and
    /// no `u = −∞`.
    #[test]
    fn qps_reader_survives_mutations(
        pick in any::<usize>(),
        edits in proptest::collection::vec((0u32..4, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let fixtures = qps_fixture_texts();
        let mut lines: Vec<String> =
            fixtures[pick % fixtures.len()].lines().map(String::from).collect();
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
        if let Ok(pb) = dme_qp::mps::parse_qps(&lines.join("\n")) {
            let qp = &pb.qp;
            for m in [&qp.a, &qp.p] {
                for r in 0..m.nrows() {
                    prop_assert!(m.row(r).all(|(_, v)| v.is_finite()), "row {}", r);
                }
            }
            prop_assert!(qp.q.iter().all(|v| v.is_finite()));
            prop_assert!(pb.c0.is_finite());
            for (i, (&l, &u)) in qp.l.iter().zip(&qp.u).enumerate() {
                prop_assert!(!l.is_nan() && !u.is_nan(), "row {}: [{}, {}]", i, l, u);
                prop_assert!(l != f64::INFINITY && u != f64::NEG_INFINITY,
                    "row {}: [{}, {}]", i, l, u);
            }
        }
    }
}
