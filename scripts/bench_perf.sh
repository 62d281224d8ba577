#!/usr/bin/env bash
# Runs the serial-vs-parallel kernel benchmarks (`perf/` group in
# crates/bench/benches/kernels.rs) and distills them into BENCH_perf.json
# so successive PRs have a perf trajectory. Each run is also appended as
# one line to results/bench_history.jsonl (stamped with a timestamp),
# which `dmeopt qor report --bench-history` plots as the speedup
# trajectory on the dashboard.
#
# Usage: scripts/bench_perf.sh [output.json] [base-checkout]
#   base-checkout: a checkout of the base commit. Its flow benchmark
#                  (flowbench/) then runs the `qcp` workload in three
#                  pairs alternating with this tree's, giving the
#                  end-to-end delta of the `symbolic_phase` section.
#   DME_NUM_THREADS=N   pool width for the parallel variants (default: nproc)
#   CRITERION_SAMPLE_SIZE=N  timed samples per bench (default: 20)
#   DME_BENCH_HISTORY=path   history file (default: results/bench_history.jsonl;
#                            empty string disables the append)
#   DME_BENCH_SWEEP=0   skip the 12k/100k/1M scaling sweep (default: run it)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_perf.json}"
base="${2:-}"
history="${DME_BENCH_HISTORY-results/bench_history.jsonl}"
threads="${DME_NUM_THREADS:-$(nproc)}"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git_sha_full="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty="false"
if ! git diff --quiet HEAD 2>/dev/null; then git_dirty="true"; fi
if [ "$git_dirty" = "true" ]; then
    cat >&2 <<EOF
!!============================================================!!
!! bench_perf: WORKING TREE IS DIRTY.                         !!
!! The numbers below do NOT measure commit $git_sha — they
!! measure uncommitted local state. The manifest is stamped
!! git_dirty=true and the QoR sentinel will not trust it as a
!! trajectory point. Commit (or stash) before a record run.
!!============================================================!!
EOF
fi
log="$(mktemp)"
sweep_log="$(mktemp)"
e2e_log="$(mktemp)"
trap 'rm -f "$log" "$sweep_log" "$e2e_log"' EXIT

echo "== bench_perf: threads=$threads (nproc=$(nproc)) ==" >&2
DME_NUM_THREADS="$threads" cargo bench --offline -p dme-bench --bench kernels -- perf/ \
    2>&1 | tee "$log" >&2

# Scaling sweep: the same bounded dosePl round at 12k,
# 100k and 1M cells of the wide/shallow scaling profile. The SMOKELINE
# rows land in the manifest's `scaling_sweep` section; flat per-eval
# gate counts across sizes are the O(cone) arbiter's acceptance proof.
if [ "${DME_BENCH_SWEEP:-1}" != "0" ]; then
    echo "== bench_perf: scaling sweep 12k -> 100k -> 1M ==" >&2
    cargo build --release --offline -p dmeopt --example scale_smoke >&2
    for cells in 12000 100000 1000000; do
        DME_SMOKE_CELLS="$cells" DME_SMOKE_SEED=7 DME_SMOKE_TOPK=50 \
            DME_SMOKE_ROUNDS=1 DME_SMOKE_SWAPS=4 \
            ./target/release/examples/scale_smoke 2>&1 | tee -a "$sweep_log" >&2
    done
fi

# End-to-end delta beside the symbolic-phase microbenches: the flow
# benchmark's `qcp` workload (untraced, seed 1, 45 s) on the base
# checkout and on this tree, alternating which side runs first.
if [ -n "$base" ]; then
    echo "== bench_perf: flowbench qcp end-to-end vs $base ==" >&2
    for dir in . "$base"; do
        cargo build --release --offline --quiet --manifest-path "$dir/flowbench/Cargo.toml" >&2
    done
    for pair in 1 2 3; do
        sides="head base"
        if [ "$pair" -eq 2 ]; then sides="base head"; fi
        for side in $sides; do
            dir=.
            if [ "$side" = base ]; then dir="$base"; fi
            line="$(cd "$dir" && ./flowbench/target/release/flowbench \
                --workload qcp --seed 1 --seconds 45 --trace 0 | tail -n 1)"
            echo "E2E $side $line" | tee -a "$e2e_log" >&2
        done
    done
fi

NPROC="$(nproc)" THREADS="$threads" OUT="$out" HISTORY="$history" \
    GIT_SHA="$git_sha" GIT_SHA_FULL="$git_sha_full" GIT_DIRTY="$git_dirty" \
    python3 - "$log" "$sweep_log" "$e2e_log" <<'PY'
import json, os, statistics, sys, time

benches, work, info = {}, {}, {}
for line in open(sys.argv[1]):
    tok = line.split()
    if not tok:
        continue
    if tok[0] == "BENCHLINE":
        kv = dict(t.split("=", 1) for t in tok[2:])
        benches[tok[1]] = {
            "mean_ns": float(kv["mean_ns"]),
            "median_ns": float(kv["median_ns"]),
            "samples": int(kv["samples"]),
        }
    elif tok[0] == "WORKLINE":
        work[tok[1]] = {k: int(v) for k, v in (t.split("=", 1) for t in tok[2:])}
    elif tok[0] == "INFOLINE":
        info.update(dict(t.split("=", 1) for t in tok[1:]))

def speedup(stem):
    s = benches.get(f"perf/{stem}_serial")
    p = benches.get(f"perf/{stem}_parallel")
    if s and p and p["mean_ns"] > 0:
        return round(s["mean_ns"] / p["mean_ns"], 3)
    return None

def median_ratio(slow, fast):
    """How many times faster `fast` is than `slow`, by median."""
    s = benches.get(f"perf/{slow}")
    f = benches.get(f"perf/{fast}")
    if s and f and f["median_ns"] > 0:
        return round(s["median_ns"] / f["median_ns"], 3)
    return None

nproc = int(os.environ["NPROC"])
threads = int(info.get("dme_par_threads", os.environ["THREADS"]))
result = {
    "schema_version": 3,
    "meta": {
        "git_sha": os.environ["GIT_SHA"],
        # Full SHA of the commit actually benched (unknown when the
        # tree is dirty: the checkout no longer equals any commit).
        "git_sha_full": os.environ["GIT_SHA_FULL"],
        "git_dirty": os.environ["GIT_DIRTY"] == "true",
        "dme_num_threads": int(os.environ["THREADS"]),
        "features": {
            "dme_par_parallel": info.get("dme_par_parallel", "unknown") == "true",
        },
    },
    "threads": threads,
    "nproc": nproc,
    "benches": benches,
    "speedups_parallel_over_serial": {
        stem: speedup(stem)
        for stem in ("spmv_mul", "spmv_tmul", "cg_ipm_solve", "sta_pass")
    },
    # With a width-1 pool every parallel variant runs the inline-serial
    # path, so these ratios measure dispatch noise, not parallelism. The
    # QoR sentinel treats them as informational when this flag is set.
    "parallel_speedups_informational": threads <= 1 or nproc <= 1,
    "speedups_direct_over_cg": {
        # Fresh direct solve (symbolic + numeric) vs the serial CG baseline.
        "ipm_solve": median_ratio("cg_ipm_solve_serial", "ipm_direct_solve"),
        # Steady-state: cached symbolic factorization, numeric refactors only.
        "ipm_refactor_solve": median_ratio(
            "cg_ipm_solve_serial", "ipm_direct_refactor_solve"
        ),
    },
}

se = work.get("swap_eval")
inc = benches.get("perf/swap_eval_incremental")
full = benches.get("perf/swap_eval_full_sta")
if se:
    result["swap_eval"] = dict(se)
    if se["gates_per_retime"] > 0:
        result["swap_eval"]["work_reduction_x"] = round(
            se["gates_per_full_sta"] / se["gates_per_retime"], 2
        )
    if inc and full and inc["mean_ns"] > 0:
        result["swap_eval"]["wall_speedup_x"] = round(
            full["mean_ns"] / inc["mean_ns"], 2
        )

# Mehrotra IPM iteration counts (deterministic on the direct backend —
# a hardware-independent perf measure).
ii = work.get("ipm_iterations")
if ii:
    result["ipm_iterations"] = dict(ii)

dp = work.get("dosepl_run")
if dp:
    result["dosepl_run"] = dict(dp)
    if dp["incremental_gate_evals"] > 0:
        result["dosepl_run"]["work_reduction_x"] = round(
            dp["full_equivalent_gate_evals"] / dp["incremental_gate_evals"], 2
        )

# O(Δ) candidate loop: per-candidate state-evaluation work (assignment
# refresh + undo restore) against what from-scratch rebuilds would pay,
# counter-derived from a real run — hardware-independent. A from-scratch
# pass pays one O(n) assignment rebuild plus one O(n) coordinate restore
# per timed candidate; the O(Δ) loop only the journal-touched cells
# (journal writes / band refreshes).
fastb = benches.get("perf/dosepl_run_fast")
cand = work.get("dosepl_candidates")
if cand:
    entry = dict(cand)
    if fastb and fastb["median_ns"] > 0 and cand.get("swaps_attempted", 0) > 0:
        entry["candidates_per_s_fast"] = round(
            cand["swaps_attempted"] / (fastb["median_ns"] * 1e-9), 1
        )
    delta = work.get("dosepl_delta")
    if delta:
        entry["work_avoided"] = dict(delta)
        n = cand.get("num_instances", 0)
        evals = cand.get("swap_evals", 0)
        ref_work = 2 * n * evals
        delta_work = (
            n * evals
            - delta.get("assignment_evals_avoided", 0)
            + delta.get("undo_coord_writes", 0)
        )
        if n > 0 and evals > 0 and delta_work > 0:
            entry["state_evals_reference"] = ref_work
            entry["state_evals_delta"] = delta_work
            entry["work_reduction_x"] = round(ref_work / delta_work, 2)
    result["dosepl_candidate_throughput"] = entry
# Self-profiler overhead: the same bounded dosePl run with spans and
# allocation attribution armed vs disarmed. The acceptance budget is
# < 5% wall overhead at 12k cells (over_budget flags a breach, it does
# not gate the bench itself — the QoR sentinel reads it). Single-run
# wall-clock differences on this box swing ±8% from one-sided
# scheduling noise — far above the budget — so the headline ratio is
# the deterministic decomposition: spans recorded per armed run times
# the microbenched per-span-pair cost, over the disarmed floor. The
# measured wall ratios (best-of-N and median-of-N over alternating
# back-to-back arms) ride along as cross-checks.
po = work.get("profiling_overhead")
prof = benches.get("perf/dosepl_run_fast_profiled")
# Gate on the streamed pair (profiler + live event stream armed, the
# `dmeopt watch` configuration) when it was benched — it strictly
# dominates the armed-only cost — else fall back to the armed pair.
sp_streamed = benches.get("perf/span_pair_streamed")
sp = sp_streamed or benches.get("perf/span_pair_armed")
if po and po.get("off_med_ns", 0) > 0:
    entry = {
        "median_ns_off": po["off_med_ns"],
        "median_ns_on": po["on_med_ns"],
        "min_ns_off": po.get("off_min_ns", 0),
        "min_ns_on": po.get("on_min_ns", 0),
        "budget_ratio": 1.05,
    }
    if po.get("off_min_ns", 0) > 0:
        entry["wall_ratio_min"] = round(po["on_min_ns"] / po["off_min_ns"], 4)
    entry["wall_ratio_median"] = round(po["on_med_ns"] / po["off_med_ns"], 4)
    if sp and po.get("spans_per_run", 0) > 0 and po.get("off_min_ns", 0) > 0:
        ratio = 1.0 + po["spans_per_run"] * sp["median_ns"] / po["off_min_ns"]
        entry["method"] = "span_cost_streamed" if sp_streamed else "span_cost"
        entry["span_pair_ns"] = sp["median_ns"]
        entry["spans_per_run"] = po["spans_per_run"]
    elif po.get("ratio_ppm", 0) > 0:
        ratio = po["ratio_ppm"] / 1e6
        entry["method"] = "wall_min"
    else:
        ratio = po["on_med_ns"] / po["off_med_ns"]
        entry["method"] = "wall_median"
    entry["overhead_ratio"] = round(ratio, 4)
    entry["over_budget"] = ratio > 1.05
    result["profiling_overhead"] = entry
elif fastb and prof and fastb["median_ns"] > 0:
    ratio = prof["median_ns"] / fastb["median_ns"]
    result["profiling_overhead"] = {
        "median_ns_off": fastb["median_ns"],
        "median_ns_on": prof["median_ns"],
        "overhead_ratio": round(ratio, 4),
        "budget_ratio": 1.05,
        "over_budget": ratio > 1.05,
        "method": "criterion_pair",
    }

# Push-based retime arbiter flatness across design sizes: O(cone) means
# the single-perturbation retime cost barely moves from 12k to 100k.
rc12 = benches.get("perf/retime_cone_12k")
rc100 = benches.get("perf/retime_cone_100k")
if rc12 and rc100 and rc12["median_ns"] > 0:
    result["retime_cone_scaling"] = {
        "median_ns_12k": rc12["median_ns"],
        "median_ns_100k": rc100["median_ns"],
        "ratio_100k_over_12k": round(rc100["median_ns"] / rc12["median_ns"], 3),
    }

# Incremental round-start path enumeration flatness: top-K heap pops +
# K backtraces are O(K log E), so the cost stays within ~2x from 12k to
# 100k endpoints (pure log-factor growth, no O(n) analyze or sort).
en12 = benches.get("perf/enumerate_12k")
en100 = benches.get("perf/enumerate_100k")
if en12 and en100 and en12["median_ns"] > 0:
    result["enumeration_scaling"] = {
        "median_ns_12k": en12["median_ns"],
        "median_ns_100k": en100["median_ns"],
        "ratio_100k_over_12k": round(en100["median_ns"] / en12["median_ns"], 3),
    }

# Scaling sweep rows (scale_smoke SMOKELINE at 12k/100k/1M cells).
sweep = []
if len(sys.argv) > 2 and os.path.exists(sys.argv[2]):
    for line in open(sys.argv[2]):
        tok = line.split()
        if not tok or tok[0] != "SMOKELINE":
            continue
        row = {}
        for t in tok[1:]:
            k, v = t.split("=", 1)
            try:
                row[k] = int(v)
            except ValueError:
                try:
                    row[k] = float(v)
                except ValueError:
                    row[k] = v
        if row.get("swap_evals"):
            row["gate_evals_per_swap_eval"] = round(
                row.get("gate_evals", 0) / row["swap_evals"], 1
            )
        sweep.append(row)
if sweep:
    result["scaling_sweep"] = {
        "knobs": {"top_k": 50, "rounds": 1, "swaps_per_round": 4, "seed": 7},
        "rows": sweep,
    }

# Symbolic phase of the direct Newton backend (pattern, AMD ordering,
# elimination tree + column counts, the `Auto` decision, and the factor's
# allocation where it is accepted) on the flow benchmark's 1000- and
# 5000-cell QCP programs, next to the end-to-end `qcp` flow_s it feeds.
symbolic = {}
for tag in ("1k", "5k"):
    b = benches.get(f"perf/symbolic_{tag}")
    w = work.get(f"symbolic_{tag}")
    if b or w:
        symbolic[tag] = dict(w or {}, median_ns=b["median_ns"] if b else None)
if symbolic:
    entry = {"programs": symbolic}
    runs = {"head": [], "base": []}
    if len(sys.argv) > 3 and os.path.exists(sys.argv[3]):
        for line in open(sys.argv[3]):
            tag, side, payload = line.split(" ", 2)
            if tag == "E2E":
                metrics = json.loads(payload)["metrics"]
                runs[side].append({k: v["value"] for k, v in metrics.items()})
    if runs["head"] and runs["base"]:
        med = lambda side, k: statistics.median(r[k] for r in runs[side])
        e2e = {"workload": "qcp", "seed": 1, "seconds": 45, "pairs": len(runs["head"])}
        for k in ("flow_s", "peak_heap_mb"):
            e2e[k] = round(med("head", k), 4)
            e2e[f"{k}_base"] = round(med("base", k), 4)
            e2e[f"{k}_delta_pct"] = round(100.0 * (e2e[k] / e2e[f"{k}_base"] - 1.0), 1)
        entry["end_to_end"] = e2e
    result["symbolic_phase"] = entry

structure_pairs = {
    "grid_query": ("grid_query_scan", "grid_query_rect"),
    "hpwl_delta": ("hpwl_delta_scratch", "hpwl_delta_cached"),
    "swap_undo": ("swap_undo_clone", "swap_undo_journal"),
    "assignment": ("assignment_full", "assignment_incremental"),
}
structures = {
    name: median_ratio(slow, fast) for name, (slow, fast) in structure_pairs.items()
}
if any(v is not None for v in structures.values()):
    result["dosepl_structure_speedups"] = structures

with open(os.environ["OUT"], "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {os.environ['OUT']}", file=sys.stderr)

history = os.environ.get("HISTORY", "")
if history:
    record = dict(result, ts_s=round(time.time(), 3))
    os.makedirs(os.path.dirname(history) or ".", exist_ok=True)
    with open(history, "a") as f:
        json.dump(record, f, sort_keys=True)
        f.write("\n")
    print(f"appended run to {history}", file=sys.stderr)
PY
