//! End-to-end observability: runs the `dmeopt` binary with `--report`
//! and `--trace-json` and validates the manifest and event stream with
//! `dme-obs`'s own JSON parser — the acceptance check that a single CLI
//! invocation yields stage spans, per-iteration solver telemetry, and
//! dosePl accept/reject tallies.

use dme_obs::catalog::{MetricKind, METRICS};
use dme_obs::json::{parse, Value};
use std::process::Command;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dme_obs_it_{}_{name}", std::process::id()))
}

#[test]
fn flow_report_contains_stage_spans_solver_telemetry_and_tallies() {
    let report = tmp("run.json");
    let trace = tmp("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dmeopt"))
        .args([
            "flow",
            "--profile",
            "tiny",
            "--report",
            report.to_str().expect("utf8 path"),
            "--trace-json",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("dmeopt runs");
    assert!(
        out.status.success(),
        "dmeopt flow failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Stage results still reach stdout; the summary table goes to stderr.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nominal"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("== run summary =="), "stderr: {stderr}");

    let text = std::fs::read_to_string(&report).expect("manifest written");
    let m = parse(&text).expect("manifest parses");
    assert_eq!(m.get("schema_version").and_then(Value::as_f64), Some(3.0));

    let meta = m.get("meta").expect("meta");
    assert_eq!(meta.get("bin").and_then(Value::as_str), Some("dmeopt"));
    assert_eq!(meta.get("command").and_then(Value::as_str), Some("flow"));
    assert_eq!(meta.get("status").and_then(Value::as_str), Some("ok"));
    assert!(meta.get("threads").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    // Schema v2: the QoR section carries the paper's headline metrics.
    let qor = m.get("qor").and_then(Value::as_object).expect("qor");
    for name in [
        "flow/nominal_mct_ns",
        "flow/final_mct_ns",
        "flow/delta_leakage_uw",
        "flow/wns_ns",
        "dmopt/achieved_t_ns",
        "dosepl/swaps_accepted",
        "dosepl/swaps_attempted",
    ] {
        let v = qor.get(name).and_then(Value::as_f64);
        assert!(v.is_some(), "qor metric {name:?} missing");
        assert!(v.expect("checked").is_finite(), "qor metric {name:?} NaN");
    }
    // The flow improves timing on the tiny profile, so WNS is positive.
    assert!(
        qor.get("flow/wns_ns")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0)
            > 0.0
    );

    // Stage spans for place / DMopt / dosePl / signoff.
    let spans = m.get("spans").and_then(Value::as_object).expect("spans");
    for path in [
        "place",
        "golden_sta",
        "flow",
        "flow/dmopt",
        "flow/dmopt/solve",
        "flow/dosepl",
        "flow/dosepl/signoff",
    ] {
        let stats = spans.get(path).unwrap_or_else(|| panic!("span {path:?}"));
        assert!(
            stats.get("count").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
            "span {path:?} never closed"
        );
        let total = stats
            .get("total_ns")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        let max = stats.get("max_ns").and_then(Value::as_f64).unwrap_or(-1.0);
        assert!(total >= max && max >= 0.0, "span {path:?} timing");
    }

    // IPM per-iteration residual records.
    let rows = m
        .get("records")
        .and_then(|r| r.get("ipm_iter"))
        .and_then(|r| r.get("rows"))
        .and_then(Value::as_array)
        .expect("ipm_iter rows");
    assert!(!rows.is_empty(), "no IPM iterations recorded");
    for field in ["iter", "mu", "rp_inf", "rd_inf", "cg_pred", "cg_corr"] {
        assert!(rows[0].get(field).is_some(), "ipm_iter missing {field:?}");
    }

    // Schema v2 histograms carry percentile fields.
    if let Some(hists) = m.get("histograms").and_then(Value::as_object) {
        for (name, h) in hists {
            for field in ["p50", "p95", "p99"] {
                let v = h.get(field).and_then(Value::as_f64);
                assert!(v.is_some(), "histogram {name:?} missing {field}");
            }
            let p50 = h.get("p50").and_then(Value::as_f64).expect("p50");
            let p99 = h.get("p99").and_then(Value::as_f64).expect("p99");
            let max = h.get("max").and_then(Value::as_f64).expect("max");
            assert!(p50 <= p99 && p99 <= max, "histogram {name:?} ordering");
        }
    }

    // Schema v3: the profile section carries the span tree with self
    // times and allocation attribution. The dmeopt binary installs the
    // tracking allocator, so alloc_tracking must report true and the
    // flow itself must charge allocations somewhere.
    let profile = m.get("profile").expect("profile section");
    assert_eq!(
        profile
            .get("alloc_tracking")
            .map(|v| matches!(v, Value::Bool(true))),
        Some(true),
        "dmeopt installs the tracking allocator"
    );
    let nodes = profile
        .get("nodes")
        .and_then(Value::as_object)
        .expect("profile nodes");
    let flow = nodes.get("flow").expect("flow profile node");
    let total = flow.get("total_ns").and_then(Value::as_f64).expect("total");
    let own = flow.get("self_ns").and_then(Value::as_f64).expect("self");
    assert!(own <= total && own >= 0.0, "self/total invariant");
    assert!(
        flow.get("alloc_bytes")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "flow should allocate with tracking on"
    );
    // The hot-path phase spans landed in the tree.
    for path in ["flow/dmopt/solve/ipm", "flow/dosepl/round/filter"] {
        assert!(nodes.contains_key(path), "profile node {path:?} missing");
    }

    // dosePl accept/reject tallies.
    let counters = m
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters");
    for name in [
        "dosepl/swaps_attempted",
        "dosepl/rejected_timing",
        "dosepl/accepted_provisional",
        "qp/ipm_iterations",
        "sta/analyze_calls",
    ] {
        assert!(counters.contains_key(name), "counter {name:?} missing");
    }

    // The catalog (`dmeopt obs ls`) lists every metric the run emitted.
    for (section, kind) in [
        ("spans", MetricKind::Span),
        ("counters", MetricKind::Counter),
        ("histograms", MetricKind::Histogram),
        ("records", MetricKind::Record),
    ] {
        let emitted = m.get(section).and_then(Value::as_object).expect(section);
        for name in emitted.keys() {
            assert!(
                METRICS.iter().any(|c| c.kind == kind && c.name == name),
                "{} {name:?} is not a dme_obs::catalog row",
                kind.name()
            );
        }
    }

    // Every JSONL event line parses and carries the v1 envelope.
    let events = std::fs::read_to_string(&trace).expect("trace written");
    let mut n = 0;
    for line in events.lines().filter(|l| !l.trim().is_empty()) {
        let ev = parse(line).expect("event parses");
        assert_eq!(ev.get("v").and_then(Value::as_f64), Some(1.0));
        assert!(ev.get("ts_us").and_then(Value::as_f64).is_some());
        let ty = ev.get("type").and_then(Value::as_str).expect("type");
        assert!(matches!(ty, "span" | "record" | "log"), "type {ty:?}");
        n += 1;
    }
    assert!(n > 0, "trace stream is empty");

    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&trace);
}
