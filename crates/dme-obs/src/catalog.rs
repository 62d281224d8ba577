//! The metric catalog: every counter, histogram, record kind and stage
//! span the DME flow emits, with a one-line description each.
//!
//! Snapshot, trace and manifest consumers should not have to grep the
//! source for metric names; `dmeopt obs ls` prints this table. The
//! catalog is a static registry of *intent* — a name appearing here
//! does not mean the current run touched it (feature flags, the build
//! profile and the command gate several), and instrumentation added
//! under a new name should land here in the same change: tests in
//! `dmeopt` fail when a traced flow (library or CLI) emits a name that
//! has no row here.

/// Which primitive a catalog entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` tally ([`crate::counter_add`]).
    Counter,
    /// Power-of-two bucket distribution ([`crate::histogram_record`]).
    Histogram,
    /// Bounded structured row series ([`crate::record`]).
    Record,
    /// Hierarchical wall-clock span path ([`crate::span`]).
    Span,
}

impl MetricKind {
    /// Lower-case label used in listings.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Record => "record",
            MetricKind::Span => "span",
        }
    }
}

/// One catalog row.
#[derive(Debug, Clone, Copy)]
pub struct MetricInfo {
    /// Primitive kind.
    pub kind: MetricKind,
    /// Registered name (span rows give the full `/`-separated path).
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
}

const fn c(name: &'static str, desc: &'static str) -> MetricInfo {
    MetricInfo {
        kind: MetricKind::Counter,
        name,
        desc,
    }
}

const fn h(name: &'static str, desc: &'static str) -> MetricInfo {
    MetricInfo {
        kind: MetricKind::Histogram,
        name,
        desc,
    }
}

const fn r(name: &'static str, desc: &'static str) -> MetricInfo {
    MetricInfo {
        kind: MetricKind::Record,
        name,
        desc,
    }
}

const fn s(name: &'static str, desc: &'static str) -> MetricInfo {
    MetricInfo {
        kind: MetricKind::Span,
        name,
        desc,
    }
}

/// Every metric the flow can emit, grouped by kind and sorted by name
/// within each group.
pub const METRICS: &[MetricInfo] = &[
    // Counters.
    c(
        "dmopt/qp_probes",
        "solves per DMopt run: the QCP and its min-leakage probe, or the QP and its guard-band retry",
    ),
    c(
        "dmopt/solver_iterations",
        "IPM Newton iterations summed over all solves",
    ),
    c(
        "dosepl/accepted_provisional",
        "swaps accepted provisionally before round signoff",
    ),
    c(
        "dosepl/assignment_evals_avoided",
        "assignment cell re-derives skipped by the O(Δ) dose update",
    ),
    c(
        "dosepl/distance_cutoffs",
        "candidate pairs discarded by the distance cutoff",
    ),
    c(
        "dosepl/enumerate_endpoints_popped",
        "heap pops during incremental top-K endpoint selection",
    ),
    c(
        "dosepl/enumerate_endpoints_selected",
        "endpoints kept by incremental top-K selection",
    ),
    c(
        "dosepl/enumerate_stale_discards",
        "stale or duplicate heap entries discarded during top-K",
    ),
    c(
        "dosepl/grid_cell_evals_avoided",
        "dose-grid cells skipped by banded range queries",
    ),
    c(
        "dosepl/hpwl_fast_nets",
        "nets whose HPWL delta used the cached bbox fast path",
    ),
    c(
        "dosepl/hpwl_rescans",
        "nets needing a full pin rescan (moved sole extreme)",
    ),
    c(
        "dosepl/rejected_bbox",
        "candidates rejected by the dose-bbox filter",
    ),
    c(
        "dosepl/rejected_hpwl",
        "candidates rejected by the HPWL filter",
    ),
    c(
        "dosepl/rejected_leakage",
        "candidates rejected by the leakage filter",
    ),
    c(
        "dosepl/rejected_timing",
        "candidates rejected by incremental timing",
    ),
    c(
        "dosepl/rolled_back",
        "provisionally accepted swaps undone at round signoff",
    ),
    c("dosepl/rounds", "swap rounds executed"),
    c("dosepl/swap_evals", "candidate swaps fully evaluated"),
    c("dosepl/swaps_accepted", "swaps kept after signoff"),
    c("dosepl/swaps_attempted", "candidate swaps considered"),
    c(
        "dosepl/undo_coord_writes",
        "coordinate writes replayed by journal undo",
    ),
    c(
        "dosepl/undo_evals_avoided",
        "gate re-evaluations avoided by STA undo replay",
    ),
    c(
        "qp/backend_cg",
        "Newton systems solved by conjugate gradient",
    ),
    c(
        "qp/backend_direct",
        "Newton systems solved by the sparse direct backend",
    ),
    c(
        "qp/cg_cap_hits",
        "CG Newton solves stopped at the iteration cap short of their tolerance",
    ),
    c("qp/cg_iterations", "total CG iterations"),
    c("qp/cg_solves", "CG solve calls"),
    c("qp/factorizations", "numeric LDL^T refactorizations"),
    c("qp/ipm_iterations", "interior-point Newton iterations"),
    c(
        "qp/pivots_clamped",
        "LDL^T pivots clamped to the floor (refinement absorbs them)",
    ),
    c("qp/refactor_ns", "wall time spent refactorizing, ns"),
    c("qp/solves", "QP solve entries"),
    c(
        "qp/stall_exits",
        "solves ended by a stall exit and accepted at reduced precision",
    ),
    c(
        "qp/symbolic_reuse",
        "factorizations reusing the cached symbolic analysis",
    ),
    c("sta/analyze_calls", "full timing analyses"),
    c(
        "sta/analyze_parallel",
        "full timing analyses run level-parallel",
    ),
    c(
        "sta/analyze_serial",
        "full timing analyses run serially (one effective thread)",
    ),
    c("sta/gates_evaluated", "gate delay evaluations"),
    c("sta/levels_evaluated", "topological levels visited"),
    c("sta/retime_calls", "incremental re-timing calls"),
    c(
        "sta/retime_pull_calls",
        "pull-mode (mirror scan) re-timings",
    ),
    c("sta/retime_push_calls", "push-mode (dirty cone) re-timings"),
    c(
        "sta/retime_undo_entries",
        "STA undo journal entries recorded",
    ),
    c("sta/retime_undo_replays", "STA undo journal replays"),
    // Histograms.
    h("qp/cg_iters_per_solve", "CG iterations per Newton solve"),
    h(
        "qp/refactor_ns_per_iter",
        "refactorization wall time per IPM iteration, ns",
    ),
    h(
        "sta/retime_cone_gates",
        "gates re-evaluated per incremental re-timing",
    ),
    // Record series.
    r(
        "dosepl_round",
        "per-round row: round, candidates, swaps, accepted, mct_ns",
    ),
    r(
        "ipm_iter",
        "per-Newton-iteration row: iter, mu, mu_aff, rp_inf, rd_inf, rp_rel, rd_rel \
         (the relative residuals the exit tests compare), sigma, alpha, ...",
    ),
    r(
        "qcp_solve",
        "per-MinTiming row: t_ns (QCP optimum T*), tau_ref_ns (period floor), lambda \
         (leakage-row multiplier, ns/nW), qcp_iterations, probe_iterations, certified",
    ),
    r(
        "qp_backend_decision",
        "Newton backend choice per new structure (and per Auto CG revisit): n, nnz_k, nnz_l, \
         flops, work_ratio, work_limit, cg_iters_per_solve, direct, \
         reason (0 forced, 1 dense_row, 2 pattern_cap, 3 cost), ordering_ms",
    ),
    r(
        "qp_solve",
        "per-QPS-solve row (dmeopt qp): n, m, iterations, objective, pri_res, dua_res, solved",
    ),
    // Stage spans (top-level and recurring phases; deeper solver spans
    // nest under these).
    s("flow", "end-to-end co-optimization flow"),
    s(
        "flow/dmopt",
        "dose-map optimization (QCP bisection over tau)",
    ),
    s("flow/dmopt/formulate", "QP formulation assembly"),
    s("flow/dmopt/snap_signoff", "post-snap golden signoff STA"),
    s(
        "flow/dmopt/snap_signoff/sta_analyze",
        "full STA of the snapped dose map",
    ),
    s("flow/dmopt/solve", "one QCP probe solve"),
    s("flow/dmopt/solve/ipm", "interior-point method iterations"),
    s(
        "flow/dmopt/solve/ipm/corrector",
        "corrector pass (centering + second-order correction)",
    ),
    s(
        "flow/dmopt/solve/ipm/corrector/line_search",
        "fraction-to-boundary line search (combined step)",
    ),
    s(
        "flow/dmopt/solve/ipm/corrector/solve",
        "Newton system solve (corrector right-hand side)",
    ),
    s(
        "flow/dmopt/solve/ipm/predictor",
        "affine predictor probe",
    ),
    s(
        "flow/dmopt/solve/ipm/predictor/line_search",
        "fraction-to-boundary line search (affine step)",
    ),
    s(
        "flow/dmopt/solve/ipm/predictor/solve",
        "Newton system solve (affine right-hand side)",
    ),
    s(
        "flow/dmopt/solve/ipm/refactor",
        "numeric LDL^T refactorization",
    ),
    s(
        "flow/dmopt/solve/ipm/start",
        "Mehrotra starting-point heuristic (cold solves; nests its own refactor/solve)",
    ),
    s(
        "flow/dmopt/solve/ipm/start/refactor",
        "numeric LDL^T refactorization for the starting point",
    ),
    s(
        "flow/dmopt/solve/ipm/start/solve",
        "Newton system solve for the starting point",
    ),
    s(
        "flow/dmopt/solve/ipm/symbolic",
        "symbolic analysis (ordering + pattern)",
    ),
    s("flow/dosepl", "dose-aware detailed placement (swap rounds)"),
    s(
        "flow/dosepl/entry_boxes",
        "dosePl entry: swap scratch (net-box cache and row index)",
    ),
    s(
        "flow/dosepl/entry_grid",
        "dosePl entry: cell-to-dose-grid index and round scratch",
    ),
    s(
        "flow/dosepl/entry_sta",
        "entry full STA cross-check of the incremental timer (debug builds only)",
    ),
    s(
        "flow/dosepl/entry_sta/sta_analyze",
        "full STA at dosePl entry",
    ),
    s(
        "flow/dosepl/entry_timer",
        "dosePl entry: incremental timer build (one full level-parallel late pass)",
    ),
    s("flow/dosepl/round", "one swap round"),
    s("flow/dosepl/round/enumerate", "candidate pair enumeration"),
    s(
        "flow/dosepl/round/enumerate_paths",
        "critical-path enumeration at round start (incremental top-K)",
    ),
    s(
        "flow/dosepl/round/enumerate_paths/sta_analyze",
        "round-start full STA cross-check of the top-K paths (debug builds only)",
    ),
    s(
        "flow/dosepl/round/filter",
        "bbox/HPWL/leakage candidate filters",
    ),
    s(
        "flow/dosepl/round/filter/commit",
        "provisionally keeping a swap that improved MCT",
    ),
    s(
        "flow/dosepl/round/filter/dose_update",
        "dose re-derivation of the cells a swap moved",
    ),
    s(
        "flow/dosepl/round/filter/repack",
        "row repacking after a swap",
    ),
    s(
        "flow/dosepl/round/filter/retime_eval",
        "incremental timing of a candidate",
    ),
    s(
        "flow/dosepl/round/filter/retime_eval/retime_cone",
        "fanout-cone gate re-evaluation",
    ),
    s(
        "flow/dosepl/round/filter/retime_eval/retime_diff",
        "diff of moved/re-dosed cells against the timer's mirror",
    ),
    s(
        "flow/dosepl/round/filter/retime_eval/retime_mct",
        "MCT update from changed endpoint contributions",
    ),
    s(
        "flow/dosepl/round/filter/retime_eval/retime_nets",
        "load and wire-delay refresh of affected nets",
    ),
    s(
        "flow/dosepl/round/filter/retime_undo",
        "undo of a rejected candidate's timing",
    ),
    s(
        "flow/dosepl/round/filter/retime_undo/retime_undo_replay",
        "STA undo-journal replay (zero gate evaluations)",
    ),
    s(
        "flow/dosepl/round/round_signoff",
        "round-end full STA cross-check of the incremental timer (debug builds only)",
    ),
    s(
        "flow/dosepl/round/round_signoff/sta_analyze",
        "full STA at round end",
    ),
    s(
        "flow/dosepl/signoff",
        "final dosePl golden signoff (the one full STA of a release-build call)",
    ),
    s(
        "flow/dosepl/signoff/sta_analyze",
        "full STA of the returned placement",
    ),
    s(
        "golden_sta",
        "CLI nominal golden STA (optimization context build)",
    ),
    s("golden_sta/sta_analyze", "full STA at nominal geometry"),
    s("place", "initial placement (CLI)"),
    s("place/legalize", "displacement-preserving legalization"),
];

/// Renders the catalog as an aligned text table, one metric per line,
/// grouped by kind.
pub fn catalog_table() -> String {
    let name_w = METRICS.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    let mut last_kind: Option<MetricKind> = None;
    for m in METRICS {
        if last_kind != Some(m.kind) {
            if last_kind.is_some() {
                out.push('\n');
            }
            out.push_str(&format!("{}s:\n", m.kind.name()));
            last_kind = Some(m.kind);
        }
        out.push_str(&format!("  {:<name_w$}  {}\n", m.name, m.desc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_grouped_and_sorted() {
        let mut seen = std::collections::BTreeSet::new();
        let mut last: Option<(u8, &str)> = None;
        for m in METRICS {
            assert!(seen.insert((m.kind.name(), m.name)), "duplicate {}", m.name);
            assert!(!m.desc.is_empty(), "{} lacks a description", m.name);
            let key = (
                match m.kind {
                    MetricKind::Counter => 0u8,
                    MetricKind::Histogram => 1,
                    MetricKind::Record => 2,
                    MetricKind::Span => 3,
                },
                m.name,
            );
            if let Some(prev) = last {
                assert!(prev < key, "{:?} out of order after {:?}", key, prev);
            }
            last = Some(key);
        }
    }

    #[test]
    fn table_lists_every_metric() {
        let table = catalog_table();
        for m in METRICS {
            assert!(table.contains(m.name), "missing {}", m.name);
        }
        for kind in ["counters:", "histograms:", "records:", "spans:"] {
            assert!(table.contains(kind), "missing group {kind}");
        }
    }
}
