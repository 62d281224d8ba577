//! The direct Newton backend's ordering and `Auto` decision on real
//! programs, read from the solver's `backend_decision` report after one
//! Newton iteration (not inferred from timing):
//!
//! - the approximate-minimum-degree ordering's fill stays within 5% of
//!   exact minimum degree's (an oracle that lives only here) on the
//!   flow's DMopt programs and the bundled `tests/qps` fixtures;
//! - the work rule gives the 1000-cell designs the direct LDLᵀ and the
//!   2000- and 5000-cell designs, whose factors cost more per Newton
//!   iteration than CG does, CG — and keeps them there once their first
//!   solve has measured their CG effort;
//! - a deep design that CG needs several times more iterations on
//!   (`profiles::small`) starts on CG and moves to the factor after its
//!   first solve.

use dme_device::Technology;
use dme_dosemap::DoseGrid;
use dme_liberty::Library;
use dme_netlist::{gen, profiles};
use dme_qp::{
    BackendDecision, DecisionReason, IpmSettings, IpmSolver, NewtonBackend, QuadProgram,
    SolverObserver,
};
use dmeopt::{formulation_params, DmoptConfig, Formulation, Objective, OptContext};
use std::collections::BTreeSet;

/// The QCP program (ξ = 0, G = 5 µm) `optimize` solves on
/// `profiles::scaling(cells, seed)`.
fn dmopt_program(lib: &Library, cells: usize, seed: u64) -> QuadProgram {
    let design = gen::generate(&profiles::scaling(cells, seed), lib);
    let placement = dme_placement::place(&design, lib);
    let ctx = OptContext::new(lib, &design, &placement);
    let cfg = DmoptConfig {
        objective: Objective::MinTiming { xi_uw: 0.0 },
        ..DmoptConfig::default()
    };
    let grid = DoseGrid::with_granularity(placement.die_w_um, placement.die_h_um, cfg.grid_g_um);
    Formulation::build(&ctx, &grid, &formulation_params(&ctx, &cfg)).qp
}

#[derive(Default)]
struct Decisions(Vec<BackendDecision>);

impl SolverObserver for Decisions {
    fn backend_decision(&mut self, decision: &BackendDecision) {
        self.0.push(*decision);
    }
}

/// The default `Auto` decisions over `solves` solves of `qp` by one
/// solver, with at most `max_iter` Newton iterations each.
fn decisions(qp: &QuadProgram, max_iter: usize, solves: usize) -> Vec<BackendDecision> {
    let solver = IpmSolver::new(IpmSettings {
        max_iter,
        ..IpmSettings::default()
    });
    let mut obs = Decisions::default();
    for _ in 0..solves {
        solver.solve_observed(qp, &mut obs).expect("solve");
    }
    obs.0
}

/// The default `Auto` decision on first sight of `qp`'s structure.
fn decide(qp: &QuadProgram) -> BackendDecision {
    decisions(qp, 1, 1)[0]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "expensive design generation: use --release"
)]
fn work_rule_picks_direct_at_1000_cells_and_cg_at_2000_and_5000() {
    let lib = Library::standard(Technology::n65());
    // Seeds 10..=17 and 18, 19 are the 1000- and 5000-cell designs of the
    // flow benchmark's `qcp` suite at its seed 1.
    let cases = (10..=17)
        .map(|s| (1000, s, NewtonBackend::Direct))
        .chain((0..4).map(|s| (2000, s, NewtonBackend::Cg)))
        .chain([18, 19].map(|s| (5000, s, NewtonBackend::Cg)));
    for (cells, seed, want) in cases {
        let qp = dmopt_program(&lib, cells, seed);
        let d = decide(&qp);
        let label = format!("{cells} cells, seed {seed}: {d:?}");
        assert_eq!(d.reason, DecisionReason::Cost, "{label}");
        assert_eq!(d.backend, want, "{label}");
        assert_eq!(d.n, qp.num_vars(), "{label}");
        assert!(d.nnz_k > 0 && d.nnz_l > 0 && d.factor_flops > 0, "{label}");
        let ratio = d.factor_flops as f64 / qp.a.nnz() as f64;
        assert_eq!(d.work_ratio, ratio, "{label}");
        assert_eq!(
            d.work_ratio <= d.work_limit,
            want == NewtonBackend::Direct,
            "{label}"
        );
        if want == NewtonBackend::Cg {
            // Revisited after a full first solve with the measured CG
            // effort: these shallow designs stay on CG.
            let all = decisions(&qp, IpmSettings::default().max_iter, 2);
            assert_eq!(all.len(), 2, "{label}: {all:?}");
            assert_eq!(all[1].backend, NewtonBackend::Cg, "{label}: {all:?}");
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "expensive design generation: use --release"
)]
fn a_deep_design_moves_to_the_factor_after_its_first_cg_solve() {
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::small(), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let cfg = DmoptConfig {
        objective: Objective::MinTiming { xi_uw: 0.0 },
        ..DmoptConfig::default()
    };
    let grid = DoseGrid::with_granularity(placement.die_w_um, placement.die_h_um, cfg.grid_g_um);
    let qp = Formulation::build(&ctx, &grid, &formulation_params(&ctx, &cfg)).qp;
    let all = decisions(&qp, IpmSettings::default().max_iter, 2);
    assert_eq!(all.len(), 2, "{all:?}");
    let (first, revisit) = (all[0], all[1]);
    assert_eq!(first.backend, NewtonBackend::Cg, "{first:?}");
    assert!(first.work_ratio > first.work_limit, "{first:?}");
    // Its timing graph is deep: CG needs several times the calibration
    // designs' iterations, which lifts the limit past the factor's cost.
    assert!(
        revisit.cg_iters_per_solve > 2.0 * first.cg_iters_per_solve,
        "{revisit:?}"
    );
    assert_eq!(revisit.backend, NewtonBackend::Direct, "{revisit:?}");
    assert_eq!(revisit.work_ratio, first.work_ratio);
    assert!(revisit.work_ratio <= revisit.work_limit, "{revisit:?}");
}

#[test]
fn forced_backends_report_forced() {
    let lib = Library::standard(Technology::n65());
    let qp = dmopt_program(&lib, 120, 3);
    for backend in [NewtonBackend::Direct, NewtonBackend::Cg] {
        let mut obs = Decisions::default();
        IpmSolver::new(IpmSettings {
            max_iter: 1,
            backend,
        })
        .solve_observed(&qp, &mut obs)
        .expect("one Newton iteration");
        // Forced decisions are final: no revisit after the solve.
        assert_eq!(obs.0.len(), 1);
        let d = obs.0[0];
        assert_eq!((d.backend, d.reason), (backend, DecisionReason::Forced));
        // Forced CG skips the symbolic analysis altogether.
        assert_eq!(d.nnz_l > 0, backend == NewtonBackend::Direct, "{d:?}");
    }
}

/// Exact elimination-graph minimum degree with lowest-index tie-breaking
/// on the pattern of `K = P + AᵀA`: every elimination materializes its
/// clique. Returns nnz(L) of that order — the sum of each vertex's degree
/// when it is eliminated.
fn exact_minimum_degree_fill(qp: &QuadProgram) -> usize {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = qp.num_vars();
    let mut adj = vec![BTreeSet::new(); n];
    let mut link = |i: usize, j: usize| {
        if i != j {
            adj[i].insert(j);
            adj[j].insert(i);
        }
    };
    for r in 0..n {
        for (c, _) in qp.p.row(r) {
            link(r, c);
        }
    }
    for r in 0..qp.num_constraints() {
        let cols: Vec<usize> = qp.a.row(r).map(|(c, _)| c).collect();
        for (k, &i) in cols.iter().enumerate() {
            for &j in &cols[k + 1..] {
                link(i, j);
            }
        }
    }
    let mut eliminated = vec![false; n];
    // Lazy heap: stale entries (degree changed since push) are skipped.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();
    let mut fill = 0;
    while let Some(Reverse((d, v))) = heap.pop() {
        if eliminated[v] || adj[v].len() != d {
            continue;
        }
        eliminated[v] = true;
        fill += d;
        let nbrs = std::mem::take(&mut adj[v]);
        for &u in &nbrs {
            adj[u].remove(&v);
            adj[u].extend(nbrs.iter().copied().filter(|&x| x != u));
            heap.push(Reverse((adj[u].len(), u)));
        }
    }
    fill
}

fn assert_amd_close_to_oracle(name: &str, qp: &QuadProgram) {
    let amd = decide(qp).nnz_l;
    let md = exact_minimum_degree_fill(qp);
    assert!(
        amd as f64 <= 1.05 * md as f64,
        "{name}: AMD nnz(L) {amd} vs exact minimum degree {md}"
    );
}

#[test]
fn amd_fill_matches_the_oracle_on_dmopt_programs() {
    let lib = Library::standard(Technology::n65());
    for seed in 1..=3 {
        let qp = dmopt_program(&lib, 1000, seed);
        assert_amd_close_to_oracle(&format!("scaling(1000, {seed})"), &qp);
    }
}

#[test]
fn amd_fill_matches_the_oracle_on_the_qps_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/qps");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("tests/qps exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "qps") {
            let pb = dme_qp::mps::load_qps(&path).expect("fixture parses");
            assert_amd_close_to_oracle(&pb.name, &pb.qp);
            seen += 1;
        }
    }
    assert!(seen >= 12, "only {seen} fixtures found");
}
