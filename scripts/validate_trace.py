#!/usr/bin/env python3
"""Validates a dme-obs JSONL trace (and optionally a run manifest).

Usage: scripts/validate_trace.py trace.jsonl [manifest.json]
       scripts/validate_trace.py --snapshot snapshot.json

Checks every line of the trace against event schema v1 (see
crates/dme-obs/src/sink.rs): the common envelope plus the per-type
payload, monotonically non-decreasing timestamps, and — when a manifest
is given — manifest schema v1, v2 or v3 (crates/dme-obs/src/manifest.rs).
Schema v2 additionally carries a top-level `qor` object of finite
numeric metrics and per-histogram p50/p95/p99 percentile fields.
Schema v3 adds a `profile` object: the span tree with per-path self
times and allocation attribution, checked here for its structural
invariants (self <= total per node, children totals fitting inside the
parent, non-negative allocation tallies).
With `--snapshot`, validates a live telemetry snapshot instead
(schema v1, crates/dme-obs/src/snapshot.rs): envelope, per-thread
span-stack views, stage rows, counter deltas/rates, stream tallies and
the stalled-stage watchdog entries. Used by the CI live-telemetry job.

Exits non-zero on the first violation; used by the CI trace-schema job.
"""

import json
import math
import sys

TRACE_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSIONS = (1, 2, 3)
SNAPSHOT_SCHEMA_VERSION = 1
SNAPSHOT_STATUSES = {"running", "final", "panicked"}
LOG_LEVELS = {"error", "warn", "info", "debug", "report"}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event(lineno, ev):
    where = f"line {lineno}"
    if not isinstance(ev, dict):
        fail(f"{where}: event is not an object")
    for key in ("type", "v", "ts_us"):
        if key not in ev:
            fail(f"{where}: missing envelope field {key!r}")
    if ev["v"] != TRACE_SCHEMA_VERSION:
        fail(f"{where}: schema version {ev['v']} != {TRACE_SCHEMA_VERSION}")
    if not isinstance(ev["ts_us"], (int, float)) or ev["ts_us"] < 0:
        fail(f"{where}: bad ts_us {ev['ts_us']!r}")
    kind = ev["type"]
    if kind == "span":
        if not isinstance(ev.get("path"), str) or not ev["path"]:
            fail(f"{where}: span missing path")
        if not isinstance(ev.get("dur_ns"), (int, float)) or ev["dur_ns"] < 0:
            fail(f"{where}: span bad dur_ns {ev.get('dur_ns')!r}")
    elif kind == "record":
        if not isinstance(ev.get("kind"), str) or not ev["kind"]:
            fail(f"{where}: record missing kind")
        fields = ev.get("fields")
        if not isinstance(fields, dict):
            fail(f"{where}: record missing fields object")
        for k, v in fields.items():
            # Non-finite values serialize as null by design.
            if v is not None and not isinstance(v, (int, float)):
                fail(f"{where}: record field {k!r} is not numeric: {v!r}")
    elif kind == "log":
        if ev.get("level") not in LOG_LEVELS:
            fail(f"{where}: log bad level {ev.get('level')!r}")
        if not isinstance(ev.get("msg"), str):
            fail(f"{where}: log missing msg")
    else:
        fail(f"{where}: unknown event type {kind!r}")


def check_trace(path):
    count = 0
    last_ts = -1
    by_type = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno}: not valid JSON: {e}")
            check_event(lineno, ev)
            if ev["ts_us"] < last_ts:
                fail(f"line {lineno}: ts_us went backwards")
            last_ts = ev["ts_us"]
            by_type[ev["type"]] = by_type.get(ev["type"], 0) + 1
            count += 1
    if count == 0:
        fail(f"{path}: no events")
    print(f"validate_trace: {path}: {count} events OK {by_type}")


def check_manifest(path):
    with open(path, encoding="utf-8") as f:
        m = json.load(f)
    version = m.get("schema_version")
    if version not in MANIFEST_SCHEMA_VERSIONS:
        fail(f"{path}: manifest schema_version {version!r}")
    keys = ["meta", "spans", "counters", "histograms", "records"]
    if version >= 2:
        keys.append("qor")
    for key in keys:
        if not isinstance(m.get(key), dict):
            fail(f"{path}: manifest missing object {key!r}")
    for span, st in m["spans"].items():
        for k in ("count", "total_ns", "max_ns"):
            if not isinstance(st.get(k), (int, float)) or st[k] < 0:
                fail(f"{path}: span {span!r} bad {k!r}")
    for name, v in m["counters"].items():
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"{path}: counter {name!r} bad value {v!r}")
    for kind, series in m["records"].items():
        if not isinstance(series.get("rows"), list):
            fail(f"{path}: record series {kind!r} missing rows")
    check_solver_consistency(path, m)
    check_dosepl_consistency(path, m)
    check_sta_consistency(path, m)
    if version >= 3:
        check_profile(path, m)
    if version >= 2:
        for name, v in m["qor"].items():
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(f"{path}: qor metric {name!r} not finite: {v!r}")
        for name, h in m["histograms"].items():
            for k in ("p50", "p95", "p99"):
                if not isinstance(h.get(k), (int, float)) or h[k] < 0:
                    fail(f"{path}: histogram {name!r} bad {k!r}")
            if not h["p50"] <= h["p95"] <= h["p99"] <= h.get("max", float("inf")):
                fail(f"{path}: histogram {name!r} percentile ordering")
    qor_note = f", {len(m['qor'])} qor metrics" if version >= 2 else ""
    print(
        f"validate_trace: {path}: manifest OK "
        f"({len(m['spans'])} spans, {len(m['counters'])} counters, "
        f"{sum(len(s['rows']) for s in m['records'].values())} record rows"
        f"{qor_note})"
    )


def check_profile(path, m):
    """Structural invariants of the schema-v3 profile section.

    The profile tree parents each span path under its nearest recorded
    ancestor (longest proper '/'-prefix present in the node map), the
    same rule the Rust builder uses. Per node: self <= total, every
    tally non-negative; per parent: the direct children's totals fit
    inside the parent's total (children are sequential within one open
    parent span, so their durations are disjoint).
    """
    profile = m.get("profile")
    if not isinstance(profile, dict):
        fail(f"{path}: schema v3 manifest missing profile object")
    if not isinstance(profile.get("alloc_tracking"), bool):
        fail(f"{path}: profile.alloc_tracking is not a bool")
    nodes = profile.get("nodes")
    if not isinstance(nodes, dict):
        fail(f"{path}: profile.nodes is not an object")

    fields = (
        "calls", "total_ns", "self_ns", "max_ns", "p50_ns", "p95_ns",
        "alloc_bytes", "alloc_count", "self_alloc_bytes", "self_alloc_count",
    )
    for node_path, n in nodes.items():
        for k in fields:
            if not isinstance(n.get(k), (int, float)) or n[k] < 0:
                fail(f"{path}: profile node {node_path!r} bad {k!r}: {n.get(k)!r}")
        if n["self_ns"] > n["total_ns"]:
            fail(f"{path}: profile node {node_path!r} self_ns > total_ns")
        if n["self_alloc_bytes"] > n["alloc_bytes"]:
            fail(f"{path}: profile node {node_path!r} self_alloc_bytes > alloc_bytes")
        if n["self_alloc_count"] > n["alloc_count"]:
            fail(f"{path}: profile node {node_path!r} self_alloc_count > alloc_count")

    def parent_of(node_path):
        prefix = node_path
        while "/" in prefix:
            prefix = prefix.rsplit("/", 1)[0]
            if prefix in nodes:
                return prefix
        return None

    children_total = {}
    for node_path in nodes:
        parent = parent_of(node_path)
        if parent is not None:
            children_total[parent] = (
                children_total.get(parent, 0.0) + nodes[node_path]["total_ns"]
            )
    for parent, total in children_total.items():
        # 1e-6 relative slack: totals are integer ns, but the sum of
        # many children may round against a parent measured once.
        if total > nodes[parent]["total_ns"] * (1 + 1e-6) + 1:
            fail(
                f"{path}: profile children of {parent!r} total {total} ns > "
                f"parent total {nodes[parent]['total_ns']} ns"
            )


def check_solver_consistency(path, m):
    """Cross-field invariants for the QP solver/backend telemetry.

    All conditional: older manifests (or CG-only runs) simply lack the
    counters and skip the corresponding checks.
    """
    counters = m.get("counters", {})

    def c(name):
        return counters.get(name)

    # Every observed IPM solve resolves to exactly one backend.
    backends = [c(k) for k in ("qp/backend_direct", "qp/backend_cg")]
    if any(v is not None for v in backends):
        total = sum(v or 0 for v in backends)
        solves = c("qp/solves")
        if solves is not None and total > solves:
            fail(
                f"{path}: backend counters ({total}) exceed qp/solves ({solves})"
            )

    # Factorization telemetry: refactor time accompanies any factor count,
    # and symbolic reuse cannot outnumber the factorizations it amortizes.
    factors = c("qp/factorizations")
    if factors:
        if c("qp/refactor_ns") is None:
            fail(f"{path}: qp/factorizations without qp/refactor_ns")
        reuse = c("qp/symbolic_reuse") or 0
        if reuse > factors:
            fail(
                f"{path}: qp/symbolic_reuse ({reuse}) > "
                f"qp/factorizations ({factors})"
            )

    # Reduced-precision exits and CG cap hits are counted per solve and
    # per CG Newton solve.
    stalls = c("qp/stall_exits")
    if stalls is not None and c("qp/solves") is not None and stalls > c("qp/solves"):
        fail(f"{path}: qp/stall_exits ({stalls}) > qp/solves ({c('qp/solves')})")
    caps = c("qp/cg_cap_hits")
    if caps is not None and caps > (c("qp/cg_solves") or 0):
        fail(f"{path}: qp/cg_cap_hits ({caps}) > qp/cg_solves ({c('qp/cg_solves')})")

    # Per-iteration rows carry the full predictor/corrector tuple: the
    # affine probe's mu_aff rides along with mu, the absolute residuals
    # with the relative ones the exit tests compare, sigma is a centering
    # fraction and alpha a step length, both in [0, 1].
    iter_rows = m.get("records", {}).get("ipm_iter", {}).get("rows", [])
    for i, row in enumerate(iter_rows):
        for field in (
            "iter", "mu", "mu_aff", "rp_inf", "rd_inf", "rp_rel", "rd_rel",
            "sigma", "alpha", "cg_pred", "cg_corr",
        ):
            if not isinstance(row.get(field), (int, float)):
                fail(f"{path}: ipm_iter row {i} missing {field!r}")
        for frac in ("sigma", "alpha"):
            if not 0.0 <= row[frac] <= 1.0:
                fail(f"{path}: ipm_iter row {i} {frac!r} outside [0,1]: {row[frac]!r}")

    # Standalone `dmeopt qp` solves record one summary row per solve.
    qp_rows = m.get("records", {}).get("qp_solve", {}).get("rows", [])
    for i, row in enumerate(qp_rows):
        for field in (
            "n", "m", "iterations", "objective", "pri_res", "dua_res", "solved",
        ):
            if not isinstance(row.get(field), (int, float)):
                fail(f"{path}: qp_solve row {i} missing {field!r}")
        if row["solved"] not in (0, 1, 0.0, 1.0):
            fail(f"{path}: qp_solve row {i} non-boolean 'solved': {row['solved']!r}")

    # One row per MinTiming call: T* at or above the period floor, a
    # non-negative leakage-row multiplier, and the two solves that make
    # up the call's dmopt/qp_probes.
    rows = m.get("records", {}).get("qcp_solve", {}).get("rows", [])
    for i, row in enumerate(rows):
        for field in (
            "t_ns", "tau_ref_ns", "lambda", "qcp_iterations",
            "probe_iterations", "certified",
        ):
            if not isinstance(row.get(field), (int, float)):
                fail(f"{path}: qcp_solve row {i} missing {field!r}")
        if row["certified"] not in (0, 1, 0.0, 1.0):
            fail(f"{path}: qcp_solve row {i} non-boolean 'certified': {row['certified']!r}")
        if row["t_ns"] < row["tau_ref_ns"] * (1 - 1e-9):
            fail(f"{path}: qcp_solve row {i} T* {row['t_ns']} below the floor {row['tau_ref_ns']}")
        if row["lambda"] < 0:
            fail(f"{path}: qcp_solve row {i} negative multiplier {row['lambda']}")
    probes = c("dmopt/qp_probes")
    if rows and probes is not None and probes < 2 * len(rows):
        fail(
            f"{path}: dmopt/qp_probes ({probes}) < two solves per "
            f"qcp_solve row ({len(rows)})"
        )


def check_dosepl_consistency(path, m):
    """Cross-field invariants for the dosePl swap-loop telemetry.

    All conditional: traces without a dosePl run lack the counters and
    skip the checks. The identities are additive, so they hold even when
    several dosePl runs contributed to one manifest.
    """
    counters = m.get("counters", {})

    def c(name):
        return counters.get(name)

    attempted = c("dosepl/swaps_attempted")
    if attempted is None:
        return
    # Every attempted candidate is dispositioned by exactly one filter.
    filters = [
        "dosepl/rejected_bbox",
        "dosepl/rejected_hpwl",
        "dosepl/rejected_leakage",
        "dosepl/rejected_timing",
        "dosepl/accepted_provisional",
    ]
    dispositioned = sum(c(k) or 0 for k in filters)
    if dispositioned != attempted:
        fail(
            f"{path}: dosepl filter tallies ({dispositioned}) != "
            f"dosepl/swaps_attempted ({attempted})"
        )
    # Only candidates surviving the heuristic filters reach the timer.
    evals = c("dosepl/swap_evals")
    timed = (c("dosepl/rejected_timing") or 0) + (c("dosepl/accepted_provisional") or 0)
    if evals is not None and timed != evals:
        fail(
            f"{path}: timed candidates ({timed}) != dosepl/swap_evals ({evals})"
        )
    # Every provisional swap is either accepted at round signoff or
    # rolled back, never both.
    provisional = c("dosepl/accepted_provisional") or 0
    accepted = c("dosepl/swaps_accepted")
    rolled = c("dosepl/rolled_back") or 0
    if accepted is not None and accepted + rolled != provisional:
        fail(
            f"{path}: dosepl/swaps_accepted ({accepted}) + rolled_back "
            f"({rolled}) != accepted_provisional ({provisional})"
        )
    # Incremental top-K enumeration: every heap pop is either selected
    # or discarded as stale/duplicate, never both.
    popped = c("dosepl/enumerate_endpoints_popped")
    if popped is not None:
        selected = c("dosepl/enumerate_endpoints_selected") or 0
        stale = c("dosepl/enumerate_stale_discards") or 0
        if selected + stale != popped:
            fail(
                f"{path}: dosepl/enumerate_endpoints_selected ({selected}) + "
                f"enumerate_stale_discards ({stale}) != "
                f"enumerate_endpoints_popped ({popped})"
            )
    # The O(Δ) engine's work-avoided counters are written as one family.
    delta_family = [
        "dosepl/assignment_evals_avoided",
        "dosepl/grid_cell_evals_avoided",
        "dosepl/undo_coord_writes",
        "dosepl/undo_evals_avoided",
    ]
    present = [k for k in delta_family if c(k) is not None]
    if present and len(present) != len(delta_family):
        missing = sorted(set(delta_family) - set(present))
        fail(f"{path}: partial dosepl delta-engine counter family: missing {missing}")


def check_sta_consistency(path, m):
    """Cross-field invariants for the incremental-STA retime arbiter.

    All conditional: traces without an IncrementalSta run lack the
    counters and skip the checks.
    """
    counters = m.get("counters", {})

    def c(name):
        return counters.get(name)

    # Every retime enters through exactly one API: the pull diff
    # (`retime`) or the push dirty-set (`retime_touched`).
    calls = c("sta/retime_calls")
    pull = c("sta/retime_pull_calls")
    push = c("sta/retime_push_calls")
    if calls is not None:
        if (pull or 0) + (push or 0) != calls:
            fail(
                f"{path}: sta/retime_pull_calls ({pull}) + "
                f"sta/retime_push_calls ({push}) != sta/retime_calls ({calls})"
            )
    elif pull is not None or push is not None:
        fail(f"{path}: sta retime path counters without sta/retime_calls")
    # Journal undo telemetry is written as a pair: every undo_to call
    # bumps replays and adds its (possibly zero) entry count.
    replays = c("sta/retime_undo_replays")
    entries = c("sta/retime_undo_entries")
    if (replays is None) != (entries is None):
        fail(
            f"{path}: partial sta undo counter pair "
            f"(replays={replays!r}, entries={entries!r})"
        )


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_snapshot(path):
    """Schema v1 of the live telemetry snapshot (dme-obs snapshot.rs)."""
    with open(path, encoding="utf-8") as f:
        snap = json.load(f)
    if snap.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
        fail(f"{path}: snapshot schema_version {snap.get('schema_version')!r}")
    if not _num(snap.get("seq")) or snap["seq"] < 1:
        fail(f"{path}: bad seq {snap.get('seq')!r}")
    if not _num(snap.get("ts_us")) or snap["ts_us"] < 0:
        fail(f"{path}: bad ts_us {snap.get('ts_us')!r}")
    if snap.get("status") not in SNAPSHOT_STATUSES:
        fail(f"{path}: bad status {snap.get('status')!r}")

    threads = snap.get("threads")
    if not isinstance(threads, list):
        fail(f"{path}: threads is not a list")
    for i, t in enumerate(threads):
        if not isinstance(t.get("label"), str) or not t["label"]:
            fail(f"{path}: thread {i} missing label")
        for k in ("alloc_bytes", "alloc_count"):
            if not _num(t.get(k)) or t[k] < 0:
                fail(f"{path}: thread {i} bad {k!r}")
        if not isinstance(t.get("stack"), list):
            fail(f"{path}: thread {i} stack is not a list")
        for j, frame in enumerate(t["stack"]):
            if not isinstance(frame.get("path"), str) or not frame["path"]:
                fail(f"{path}: thread {i} frame {j} missing path")
            if not _num(frame.get("open_us")) or frame["open_us"] < 0:
                fail(f"{path}: thread {i} frame {j} bad open_us")

    stages = snap.get("stages")
    if not isinstance(stages, list):
        fail(f"{path}: stages is not a list")
    for i, s in enumerate(stages):
        if not isinstance(s.get("path"), str) or not s["path"]:
            fail(f"{path}: stage {i} missing path")
        for k in ("calls", "total_ns", "self_ns", "p95_ns", "alloc_bytes"):
            if not _num(s.get(k)) or s[k] < 0:
                fail(f"{path}: stage {s['path']!r} bad {k!r}: {s.get(k)!r}")
        if s["self_ns"] > s["total_ns"]:
            fail(f"{path}: stage {s['path']!r} self_ns > total_ns")

    for key in ("counters", "counter_rates", "recent_ns"):
        obj = snap.get(key)
        if not isinstance(obj, dict):
            fail(f"{path}: {key} is not an object")
    for name, v in snap["counters"].items():
        if not _num(v) or v < 0:
            fail(f"{path}: counter {name!r} bad value {v!r}")
    for name, v in snap["counter_rates"].items():
        if not _num(v) or v < 0 or not math.isfinite(v):
            fail(f"{path}: counter rate {name!r} bad value {v!r}")
    for name, window in snap["recent_ns"].items():
        if not isinstance(window, list) or not all(_num(x) and x >= 0 for x in window):
            fail(f"{path}: recent_ns {name!r} bad window")

    for key in ("alloc", "stream"):
        obj = snap.get(key)
        if not isinstance(obj, dict):
            fail(f"{path}: {key} is not an object")
    for k in ("bytes", "count"):
        if not _num(snap["alloc"].get(k)) or snap["alloc"][k] < 0:
            fail(f"{path}: alloc bad {k!r}")
    for k in ("events", "dropped"):
        if not _num(snap["stream"].get(k)) or snap["stream"][k] < 0:
            fail(f"{path}: stream bad {k!r}")

    stalled = snap.get("stalled")
    if not isinstance(stalled, list):
        fail(f"{path}: stalled is not a list")
    for i, s in enumerate(stalled):
        for k in ("thread", "path"):
            if not isinstance(s.get(k), str) or not s[k]:
                fail(f"{path}: stalled {i} missing {k!r}")
        for k in ("open_ms", "baseline_p95_ms", "mult"):
            if not _num(s.get(k)) or s[k] < 0:
                fail(f"{path}: stalled {i} bad {k!r}")

    # Optional solver/placer progress sections mirror observer records.
    dosepl = snap.get("dosepl")
    if dosepl is not None:
        for k in ("round", "swaps", "accepted"):
            if not _num(dosepl.get(k)) or dosepl[k] < 0:
                fail(f"{path}: dosepl bad {k!r}")
    ipm = snap.get("ipm")
    if ipm is not None and not _num(ipm.get("iter")):
        fail(f"{path}: ipm missing iter")

    print(
        f"validate_trace: {path}: snapshot OK "
        f"(seq {snap['seq']}, status {snap['status']}, "
        f"{len(threads)} thread(s), {len(stages)} stage row(s), "
        f"{len(snap['counters'])} counters, {len(stalled)} stalled)"
    )


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--snapshot":
        check_snapshot(sys.argv[2])
        return
    if len(sys.argv) < 2 or len(sys.argv) > 3 or sys.argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    check_trace(sys.argv[1])
    if len(sys.argv) == 3:
        check_manifest(sys.argv[2])


if __name__ == "__main__":
    main()
