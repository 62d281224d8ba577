//! Per-layer numbers of a traced flow, read from the spans and counters
//! the program already emits. `dme-qp`'s sub-phases have no public entry
//! point, so their spans are the only way to time them.

use dme_obs::ProfileNode;

/// Span totals (s) and counters of one traced flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub symbolic_s: f64,
    pub symbolic_alloc_mib: f64,
    pub refactor_s: f64,
    pub newton_solve_s: f64,
    pub round_signoff_s: f64,
    pub enumerate_s: f64,
    pub factorizations: u64,
    pub cg_iterations: u64,
    pub cg_solves: u64,
    pub cg_iters_p95: u64,
    pub backend_direct: u64,
    pub backend_cg: u64,
    pub analyze_calls: u64,
    pub gates_evaluated: u64,
}

/// Sums the time (s) and allocated bytes of every span whose path ends
/// in one of `tails` (each a `/`-separated suffix of components).
fn sum_spans(nodes: &[ProfileNode], tails: &[&str]) -> (f64, u64) {
    let mut ns = 0u64;
    let mut bytes = 0u64;
    for node in nodes {
        let hit = tails
            .iter()
            .any(|t| node.path == *t || node.path.ends_with(&format!("/{t}")));
        if hit {
            ns += node.stats.total_ns;
            bytes += node.stats.alloc_bytes;
        }
    }
    (ns as f64 * 1e-9, bytes)
}

/// Reads the registry filled since the last `dme_obs::reset`.
pub fn read() -> Layers {
    let nodes = dme_obs::profile_snapshot();
    let (symbolic_s, symbolic_bytes) = sum_spans(&nodes, &["symbolic"]);
    let c = dme_obs::counter_value;
    Layers {
        symbolic_s,
        symbolic_alloc_mib: symbolic_bytes as f64 / (1u64 << 20) as f64,
        // Both the iterations' and the starting-point heuristic's.
        refactor_s: sum_spans(&nodes, &["refactor"]).0,
        newton_solve_s: sum_spans(
            &nodes,
            &["predictor/solve", "corrector/solve", "start/solve"],
        )
        .0,
        round_signoff_s: sum_spans(&nodes, &["round_signoff"]).0,
        // Round-start critical-path enumeration.
        enumerate_s: sum_spans(&nodes, &["enumerate_paths"]).0,
        factorizations: c("qp/factorizations"),
        cg_iterations: c("qp/cg_iterations"),
        cg_solves: c("qp/cg_solves"),
        cg_iters_p95: dme_obs::histogram_snapshot("qp/cg_iters_per_solve").map_or(0, |h| h.p95()),
        backend_direct: c("qp/backend_direct"),
        backend_cg: c("qp/backend_cg"),
        analyze_calls: c("sta/analyze_calls"),
        gates_evaluated: c("sta/gates_evaluated"),
    }
}
