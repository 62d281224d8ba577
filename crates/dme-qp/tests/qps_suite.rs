//! External QP validation suite.
//!
//! Solves every QPS fixture under `tests/qps/` (workspace root), checks
//! each solution against the KKT optimality certificate and against the
//! fixture's published or pinned optimum, and pins golden iteration
//! counts on every fixture so a regression in the Mehrotra machinery
//! shows up as a count change, not a silent slowdown.

mod common;

use common::certificate::kkt_certificate;
use dme_qp::mps::{load_qps, QpsProblem};
use dme_qp::{IpmSettings, IpmSolver, NewtonBackend, Solution, SolveStatus};
use std::path::PathBuf;

fn qps_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/qps")
}

fn fixtures() -> Vec<(String, QpsProblem)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(qps_dir()).expect("tests/qps exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "qps") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let pb = load_qps(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
            out.push((stem, pb));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        out.len() >= 12,
        "expected the full suite, got {}",
        out.len()
    );
    out
}

/// Optimal objective values, including the QPS constant term: published
/// or analytically derived, except `dme-chain` and `dme-grid`, which are
/// pinned (see the fixture headers).
fn known_optimum(name: &str) -> f64 {
    match name {
        "box-lp" => 1.0,
        "degen" => -2.0,
        "dme-chain" => 7.7672535211,
        "dme-grid" => 14.7496177370,
        "eq-ls" => 1.75,
        "hs21" => -99.96,
        "hs35" => 1.0 / 9.0,
        "hs51" => 0.0,
        "hs52" => 1859.0 / 349.0,
        "hs53" => 176.0 / 43.0,
        "hs76" => -4.681818181818181,
        "tame" => 0.0,
        _ => panic!("{name}: fixture without a known optimum"),
    }
}

/// Golden iteration counts on the direct backend, where every solve is
/// deterministic. They total 56, the `qps_mehrotra_total` in
/// BENCH_perf.json. A change here is not necessarily a bug — but it must
/// be looked at and the constants re-baked consciously.
const GOLDEN_DIRECT_ITERATIONS: [(&str, usize); 12] = [
    ("box-lp", 5),
    ("degen", 4),
    ("dme-chain", 6),
    ("dme-grid", 5),
    ("eq-ls", 3),
    ("hs21", 8),
    ("hs35", 6),
    ("hs51", 0),
    ("hs52", 3),
    ("hs53", 6),
    ("hs76", 6),
    ("tame", 4),
];

fn solve_with(pb: &QpsProblem, backend: NewtonBackend) -> Solution {
    let st = IpmSettings {
        backend,
        ..IpmSettings::default()
    };
    IpmSolver::new(st).solve(&pb.qp).expect("IPM solve")
}

#[test]
fn every_fixture_is_certified_at_its_known_optimum() {
    for (name, pb) in fixtures() {
        for backend in [NewtonBackend::Auto, NewtonBackend::Cg] {
            let sol = solve_with(&pb, backend);
            assert_eq!(
                sol.status,
                SolveStatus::Solved,
                "{name}/{backend:?}: {:?} after {} iterations",
                sol.status,
                sol.iterations
            );
            kkt_certificate(&pb.qp, &sol).unwrap_or_else(|e| panic!("{name}/{backend:?}: {e}"));
            let (got, opt) = (pb.objective(&sol.x), known_optimum(&name));
            assert!(
                (got - opt).abs() <= 1e-4 * (1.0 + opt.abs()),
                "{name}/{backend:?}: objective {got} vs known {opt}"
            );
        }
    }
}

#[test]
fn golden_iteration_counts_on_reference_fixtures() {
    let names: Vec<String> = fixtures().into_iter().map(|(name, _)| name).collect();
    let golden: Vec<&str> = GOLDEN_DIRECT_ITERATIONS.iter().map(|g| g.0).collect();
    assert_eq!(names, golden, "every fixture needs a golden count");
    for (name, golden) in GOLDEN_DIRECT_ITERATIONS {
        let pb = load_qps(&qps_dir().join(format!("{name}.qps"))).expect("fixture");
        let sol = solve_with(&pb, NewtonBackend::Direct);
        assert_eq!(sol.status, SolveStatus::Solved, "{name}");
        assert_eq!(
            sol.iterations, golden,
            "{name}: iteration count drifted from golden"
        );
    }
}

#[test]
fn fixtures_round_trip_through_the_writer() {
    for (name, pb) in fixtures() {
        let text = dme_qp::mps::write_qps(&pb);
        let back = dme_qp::mps::parse_qps(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(pb.c0, back.c0, "{name}");
        assert_eq!(pb.qp.q, back.qp.q, "{name}");
        assert_eq!(pb.qp.l, back.qp.l, "{name}");
        assert_eq!(pb.qp.u, back.qp.u, "{name}");
        let x: Vec<f64> = (0..pb.qp.num_vars())
            .map(|i| 0.1 * i as f64 - 0.3)
            .collect();
        assert_eq!(pb.qp.objective(&x), back.qp.objective(&x), "{name}");
        assert_eq!(pb.qp.a.mul_vec(&x), back.qp.a.mul_vec(&x), "{name}");
    }
}
