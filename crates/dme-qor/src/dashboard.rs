//! Self-contained HTML run dashboard.
//!
//! Hand-rolled HTML + inline CSS + inline SVG — no external scripts,
//! stylesheets, fonts or fetches, so the artifact renders identically
//! from a CI artifact store, a mail attachment, or `file://`. Sections:
//!
//! 1. run header (git SHA, binary, threads, features, status);
//! 2. per-stage wall-time breakdown of the latest run (horizontal bars);
//! 3. IPM convergence — a log₁₀(µ) sparkline per Newton iteration when a
//!    manifest with `ipm_iter` observer records is supplied, else the
//!    iteration-count trend across history;
//! 4. dosePl swap-filter accept/reject bars;
//! 5. QoR metric trends across the history (sparkline per metric);
//! 6. profile flamegraph (manifest v3 `profile` section, inline icicle);
//! 7. optional diff verdicts and bench-perf speedup trajectory (with a
//!    relative link to the `scripts/bench_trend.py` trend page);
//! 8. optional "Live snapshot" panel — the last schema-v1 telemetry
//!    snapshot (status, stalled stages, open span stacks, solver
//!    progress) the publisher wrote for the run.

use crate::diff::{DiffReport, Verdict};
use crate::record::QorRecord;
use dme_obs::json::Value;
use std::fmt::Write as _;

/// Everything the dashboard can render. Only `history` is required;
/// absent sections degrade to a short note rather than an error.
#[derive(Default)]
pub struct DashboardInput<'a> {
    /// QoR history records, oldest first; the last one is "the run".
    pub history: &'a [QorRecord],
    /// Full manifest of the latest run, for per-iteration solver
    /// records (`records.ipm_iter`).
    pub manifest: Option<&'a Value>,
    /// Parsed lines of `results/bench_history.jsonl`, oldest first.
    pub bench_history: &'a [Value],
    /// A run-vs-baseline comparison to embed.
    pub diff: Option<&'a DiffReport>,
    /// Last live telemetry snapshot of the run (schema v1, the file
    /// the snapshot publisher maintains), for the "Live snapshot"
    /// panel.
    pub snapshot: Option<&'a Value>,
    /// Page title.
    pub title: &'a str,
}

fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc(&mut out, s);
    out
}

/// An inline SVG sparkline of `values` (min–max normalized). Returns a
/// placeholder note for fewer than two points.
fn sparkline(values: &[f64], w: u32, h: u32) -> String {
    if values.len() < 2 {
        return "<span class=\"muted\">not enough points</span>".to_string();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = if (hi - lo).abs() < 1e-300 {
        1.0
    } else {
        hi - lo
    };
    let mut pts = String::new();
    let n = values.len();
    for (i, &v) in values.iter().enumerate() {
        let x = f64::from(w) * i as f64 / (n - 1) as f64;
        let y = f64::from(h) * (1.0 - (v - lo) / span);
        let _ = write!(pts, "{}{x:.1},{y:.1}", if i > 0 { " " } else { "" });
    }
    format!(
        "<svg class=\"spark\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\
         <polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\" points=\"{pts}\"/></svg>"
    )
}

/// A horizontal bar of relative width `frac ∈ [0, 1]`, labelled with
/// `text`.
fn bar(frac: f64, text: &str, class: &str) -> String {
    let pct = (frac.clamp(0.0, 1.0) * 100.0).max(0.5);
    format!(
        "<div class=\"barrow\"><div class=\"bar {class}\" style=\"width:{pct:.1}%\"></div>\
         <span class=\"barlabel\">{}</span></div>",
        escaped(text)
    )
}

fn section(out: &mut String, title: &str, body: &str) {
    let _ = write!(out, "<section><h2>{}</h2>{body}</section>", escaped(title));
}

fn stage_breakdown(latest: &QorRecord) -> String {
    if latest.stages_ms.is_empty() {
        return "<p class=\"muted\">no stage spans recorded</p>".to_string();
    }
    let mut rows: Vec<(&String, &f64)> = latest.stages_ms.iter().collect();
    rows.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
    let max = *rows[0].1;
    let mut body = String::new();
    for (path, &ms) in rows {
        body.push_str(&bar(
            if max > 0.0 { ms / max } else { 0.0 },
            &format!("{path} — {ms:.2} ms"),
            "stage",
        ));
    }
    body
}

fn ipm_convergence(input: &DashboardInput) -> String {
    // Preferred source: per-iteration observer records in the manifest.
    if let Some(rows) = input
        .manifest
        .and_then(|m| m.get("records"))
        .and_then(|r| r.get("ipm_iter"))
        .and_then(|r| r.get("rows"))
        .and_then(Value::as_array)
    {
        let mus: Vec<f64> = rows
            .iter()
            .filter_map(|row| row.get("mu").and_then(Value::as_f64))
            .filter(|&mu| mu > 0.0)
            .map(f64::log10)
            .collect();
        if mus.len() >= 2 {
            return format!(
                "<p>log<sub>10</sub>(µ) over {} IPM Newton iterations (all solves):</p>{}",
                mus.len(),
                sparkline(&mus, 480, 60)
            );
        }
    }
    // Fallback: iteration-count trend across the history.
    let iters: Vec<f64> = input
        .history
        .iter()
        .filter_map(|r| r.counters.get("qp/ipm_iterations").copied())
        .collect();
    if iters.len() >= 2 {
        format!(
            "<p>qp/ipm_iterations across the last {} runs:</p>{}",
            iters.len(),
            sparkline(&iters, 480, 60)
        )
    } else {
        "<p class=\"muted\">no IPM telemetry available</p>".to_string()
    }
}

fn qcp_solve_panel(input: &DashboardInput) -> String {
    let Some(rows) = input
        .manifest
        .and_then(|m| m.get("records"))
        .and_then(|r| r.get("qcp_solve"))
        .and_then(|r| r.get("rows"))
        .and_then(Value::as_array)
    else {
        return "<p class=\"muted\">no QCP telemetry (MinTiming runs with tracing record \
                one row per solve)</p>"
            .to_string();
    };
    let mut body = String::from(
        "<table><tr><th>T* (ns)</th><th>floor (ns)</th><th>λ (ns/nW)</th>\
         <th>QCP iterations</th><th>probe iterations</th><th>probe certified</th></tr>",
    );
    for row in rows {
        let v = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        body.push_str(&format!(
            "<tr><td>{:.5}</td><td>{:.5}</td><td>{:.3e}</td><td>{:.0}</td><td>{:.0}</td>\
             <td>{}</td></tr>",
            v("t_ns"),
            v("tau_ref_ns"),
            v("lambda"),
            v("qcp_iterations"),
            v("probe_iterations"),
            if v("certified") > 0.5 { "yes" } else { "no" }
        ));
    }
    body.push_str("</table>");
    body
}

fn swap_tallies(latest: &QorRecord) -> String {
    let tallies: Vec<(&String, &f64)> = latest
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("dosepl/"))
        .collect();
    if tallies.is_empty() {
        return "<p class=\"muted\">no dosePl tallies recorded</p>".to_string();
    }
    let max = tallies.iter().map(|(_, &v)| v).fold(0.0f64, f64::max);
    let mut body = String::new();
    for (name, &v) in tallies {
        let class = if name.contains("accepted") {
            "accept"
        } else if name.contains("rejected") || name.contains("rolled_back") {
            "reject"
        } else {
            "stage"
        };
        body.push_str(&bar(
            if max > 0.0 { v / max } else { 0.0 },
            &format!("{name} — {v:.0}"),
            class,
        ));
    }
    body
}

fn qor_trends(history: &[QorRecord]) -> String {
    let Some(latest) = history.last() else {
        return "<p class=\"muted\">empty history</p>".to_string();
    };
    if latest.qor.is_empty() {
        return "<p class=\"muted\">latest run carries no QoR metrics</p>".to_string();
    }
    let mut body = String::from(
        "<table><tr><th>metric</th><th>latest</th><th>trend (oldest → newest)</th></tr>",
    );
    for (name, &value) in &latest.qor {
        let series: Vec<f64> = history
            .iter()
            .filter_map(|r| r.qor.get(name).copied())
            .collect();
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{value:.6}</td><td>{}</td></tr>",
            escaped(name),
            sparkline(&series, 160, 24)
        );
    }
    body.push_str("</table>");
    body
}

fn diff_section(diff: &DiffReport) -> String {
    let regressed = diff.count(Verdict::Regressed);
    let cls = if regressed > 0 { "bad" } else { "good" };
    let word = if regressed > 0 { "REGRESSED" } else { "OK" };
    let mut body = format!(
        "<p class=\"{cls}\">{word}: {regressed} regressed, {} improved, {} stable \
         (run {} vs {} baseline record(s))</p>",
        diff.count(Verdict::Improved),
        diff.count(Verdict::Stable),
        escaped(&diff.run_label),
        diff.baseline_n
    );
    let moved: Vec<_> = diff
        .verdicts
        .iter()
        .filter(|m| m.verdict != Verdict::Stable)
        .collect();
    if !moved.is_empty() {
        body.push_str(
            "<table><tr><th>metric</th><th>run</th><th>baseline median</th>\
             <th>worse-by</th><th>threshold</th><th>verdict</th></tr>",
        );
        for m in moved {
            let fmt = |x: Option<f64>| x.map_or_else(|| "—".to_string(), |v| format!("{v:.6}"));
            let _ = write!(
                body,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.6}</td><td>{:.6}</td>\
                 <td class=\"{}\">{}</td></tr>",
                escaped(&m.name),
                fmt(m.value),
                fmt(m.median),
                m.worse_by,
                m.threshold,
                if m.verdict == Verdict::Regressed {
                    "bad"
                } else {
                    "good"
                },
                m.verdict.name()
            );
        }
        body.push_str("</table>");
    }
    body
}

fn flamegraph_panel(input: &DashboardInput) -> String {
    let profile = input
        .manifest
        .and_then(|m| crate::profile::profile_from_manifest_value(m, "latest run"));
    match profile {
        Some(p) if !p.nodes.is_empty() => {
            let mut body = String::from(
                "<p>Span-path icicle: width ∝ total wall time; the gap right of a \
                 parent's children is its self time. Hover a frame for calls, \
                 self time and allocation attribution.</p>",
            );
            // Inline variant: the dashboard forbids external references,
            // including the SVG namespace URL a standalone file needs.
            body.push_str(&crate::flamegraph::flamegraph_svg(&p, "profile", false));
            body
        }
        _ => "<p class=\"muted\">no profile section in the manifest (schema v3 runs \
              with tracing enabled record one)</p>"
            .to_string(),
    }
}

fn snapshot_panel(snap: &Value) -> String {
    let schema = snap
        .get("schema_version")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if schema as u32 != crate::watch::SUPPORTED_SNAPSHOT_SCHEMA {
        return format!(
            "<p class=\"muted\">snapshot schema v{schema:.0} not supported \
             (expected v{})</p>",
            crate::watch::SUPPORTED_SNAPSHOT_SCHEMA
        );
    }
    let status = snap.get("status").and_then(Value::as_str).unwrap_or("?");
    let seq = snap.get("seq").and_then(Value::as_f64).unwrap_or(0.0);
    let ts_s = snap.get("ts_us").and_then(Value::as_f64).unwrap_or(0.0) / 1e6;
    let cls = match status {
        "panicked" => "bad",
        "final" => "good",
        _ => "stage",
    };
    let mut body = format!(
        "<p>status <b class=\"{cls}\">{}</b> — snapshot #{seq:.0} at t+{ts_s:.1}s</p>",
        escaped(status)
    );
    if let Some(stalled) = snap.get("stalled").and_then(Value::as_array) {
        for s in stalled {
            let path = s.get("path").and_then(Value::as_str).unwrap_or("?");
            let open = s.get("open_ms").and_then(Value::as_f64).unwrap_or(0.0);
            let mult = s.get("mult").and_then(Value::as_f64).unwrap_or(0.0);
            let _ = write!(
                body,
                "<p class=\"bad\">STALLED {} — open {open:.0} ms \
                 ({mult:.1}× its baseline p95)</p>",
                escaped(path)
            );
        }
    }
    if let Some(threads) = snap.get("threads").and_then(Value::as_array) {
        for t in threads {
            let label = t.get("label").and_then(Value::as_str).unwrap_or("?");
            let open: Vec<String> = t
                .get("stack")
                .and_then(Value::as_array)
                .map(|frames| {
                    frames
                        .iter()
                        .filter_map(|f| f.get("path").and_then(Value::as_str))
                        .map(escaped)
                        .collect()
                })
                .unwrap_or_default();
            if !open.is_empty() {
                let _ = write!(
                    body,
                    "<p><b>[{}]</b> open: {}</p>",
                    escaped(label),
                    open.join(" › ")
                );
            }
        }
    }
    let num = |section: &str, key: &str| {
        snap.get(section)
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
    };
    if let (Some(round), Some(accepted), Some(swaps)) = (
        num("dosepl", "round"),
        num("dosepl", "accepted"),
        num("dosepl", "swaps"),
    ) {
        let _ = write!(
            body,
            "<p class=\"muted\">dosePl round {round:.0} — {accepted:.0}/{swaps:.0} \
             swaps accepted</p>"
        );
    }
    if let (Some(iter), Some(mu)) = (num("ipm", "iter"), num("ipm", "mu")) {
        let _ = write!(
            body,
            "<p class=\"muted\">IPM iter {iter:.0} — µ {mu:.2e}</p>"
        );
    }
    if let (Some(events), Some(dropped)) = (num("stream", "events"), num("stream", "dropped")) {
        let _ = write!(
            body,
            "<p class=\"muted\">stream: {events:.0} events, {dropped:.0} dropped</p>"
        );
    }
    body
}

fn bench_trajectory(bench: &[Value]) -> String {
    if bench.is_empty() {
        return "<p class=\"muted\">no bench history (run scripts/bench_perf.sh, \
                then scripts/bench_trend.py for the full trend page)</p>"
            .to_string();
    }
    let stems = ["spmv_mul", "spmv_tmul", "cg_ipm_solve", "sta_pass"];
    let mut body = String::from(
        "<table><tr><th>kernel</th><th>latest speedup (parallel/serial)</th>\
         <th>trend</th></tr>",
    );
    for stem in stems {
        let series: Vec<f64> = bench
            .iter()
            .filter_map(|line| {
                line.get("speedups_parallel_over_serial")
                    .and_then(|s| s.get(stem))
                    .and_then(Value::as_f64)
            })
            .collect();
        let latest = series
            .last()
            .map_or_else(|| "—".to_string(), |v| format!("{v:.2}×"));
        let _ = write!(
            body,
            "<tr><td>{stem}</td><td>{latest}</td><td>{}</td></tr>",
            sparkline(&series, 160, 24)
        );
    }
    body.push_str("</table>");
    // Relative link only: the trend page sits next to the dashboard in
    // results/, so the document stays fetch-free.
    body.push_str(
        "<p class=\"muted\">full per-metric history: \
         <a href=\"bench_trend.html\">bench_trend.html</a> \
         (regenerate with scripts/bench_trend.py)</p>",
    );
    body
}

const STYLE: &str = "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;\
color:#111}h1{font-size:1.4em}h2{font-size:1.1em;border-bottom:1px solid #ddd;\
padding-bottom:.2em;margin-top:1.6em}table{border-collapse:collapse}td,th{padding:.25em .7em;\
border:1px solid #e5e7eb;text-align:left}th{background:#f8fafc}.muted{color:#6b7280}\
.good{color:#15803d}.bad{color:#b91c1c;font-weight:600}.barrow{position:relative;height:1.4em;\
margin:2px 0;background:#f1f5f9}.bar{position:absolute;top:0;left:0;bottom:0}\
.bar.stage{background:#93c5fd}.bar.accept{background:#86efac}.bar.reject{background:#fca5a5}\
.barlabel{position:relative;padding-left:.4em;font-size:.85em;white-space:nowrap}\
.spark{vertical-align:middle;background:#f8fafc}";

/// Renders the full dashboard as one self-contained HTML document.
pub fn render(input: &DashboardInput) -> String {
    let mut out = String::with_capacity(8192);
    let _ = write!(
        out,
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>{}</title><style>{STYLE}</style></head><body><h1>{}</h1>",
        escaped(input.title),
        escaped(input.title)
    );

    if let Some(latest) = input.history.last() {
        let _ = write!(
            out,
            "<p>latest run: <b>{}</b> — threads {:.0}, parallel {}, status {} \
             ({} run(s) in history)</p>",
            escaped(&latest.label()),
            latest.threads,
            latest.parallel,
            escaped(if latest.status.is_empty() {
                "unknown"
            } else {
                &latest.status
            }),
            input.history.len()
        );
        section(
            &mut out,
            "Per-stage time breakdown",
            &stage_breakdown(latest),
        );
        section(&mut out, "IPM convergence", &ipm_convergence(input));
        section(&mut out, "QCP solve", &qcp_solve_panel(input));
        section(
            &mut out,
            "dosePl swap-filter tallies",
            &swap_tallies(latest),
        );
        section(&mut out, "QoR trends", &qor_trends(input.history));
        section(&mut out, "Profile flamegraph", &flamegraph_panel(input));
    } else {
        out.push_str("<p class=\"muted\">empty history — nothing to render</p>");
    }
    if let Some(diff) = input.diff {
        section(&mut out, "Run vs baseline", &diff_section(diff));
    }
    if let Some(snap) = input.snapshot {
        section(&mut out, "Live snapshot", &snapshot_panel(snap));
    }
    section(
        &mut out,
        "Kernel speedup trajectory",
        &bench_trajectory(input.bench_history),
    );
    out.push_str("</body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_obs::json;

    fn rec_with_everything() -> QorRecord {
        let mut r = QorRecord {
            git_sha: "abc1234".into(),
            bin: "dmeopt".into(),
            command: "flow".into(),
            profile: "tiny".into(),
            threads: 4.0,
            parallel: true,
            status: "ok".into(),
            ..QorRecord::default()
        };
        r.stages_ms.insert("flow".into(), 20.0);
        r.stages_ms.insert("flow/dmopt".into(), 15.0);
        r.counters.insert("qp/ipm_iterations".into(), 18.0);
        r.counters.insert("dosepl/swaps_accepted".into(), 7.0);
        r.counters.insert("dosepl/rejected_hpwl".into(), 3.0);
        r.qor.insert("flow/final_mct_ns".into(), 1.875);
        r
    }

    #[test]
    fn dashboard_is_self_contained_and_has_every_section() {
        let history = vec![rec_with_everything(), rec_with_everything()];
        let manifest = json::parse(concat!(
            "{\"records\":{\"ipm_iter\":{\"rows\":[{\"mu\":1.0},{\"mu\":0.1},{\"mu\":0.001}]},",
            "\"qcp_solve\":{\"rows\":[{\"t_ns\":1.95494,\"tau_ref_ns\":1.91,",
            "\"lambda\":2.5e-6,\"qcp_iterations\":25,\"probe_iterations\":21,",
            "\"certified\":1}]}},",
            "\"profile\":{\"alloc_tracking\":true,\"nodes\":{",
            "\"flow\":{\"calls\":1,\"total_ns\":20000000,\"self_ns\":5000000,",
            "\"max_ns\":20000000,\"p50_ns\":20000000,\"p95_ns\":20000000,",
            "\"alloc_bytes\":2048,\"alloc_count\":4,\"self_alloc_bytes\":1024,",
            "\"self_alloc_count\":2},",
            "\"flow/dmopt\":{\"calls\":1,\"total_ns\":15000000,\"self_ns\":15000000,",
            "\"max_ns\":15000000,\"p50_ns\":15000000,\"p95_ns\":15000000,",
            "\"alloc_bytes\":1024,\"alloc_count\":2,\"self_alloc_bytes\":1024,",
            "\"self_alloc_count\":2}}}}",
        ))
        .unwrap();
        let bench = vec![
            json::parse("{\"speedups_parallel_over_serial\":{\"spmv_mul\":2.5}}").unwrap(),
            json::parse("{\"speedups_parallel_over_serial\":{\"spmv_mul\":2.7}}").unwrap(),
        ];
        let snapshot = json::parse(concat!(
            "{\"schema_version\":1,\"seq\":9,\"ts_us\":2500000,\"status\":\"running\",",
            "\"threads\":[{\"label\":\"main\",\"alloc_bytes\":0,\"alloc_count\":0,",
            "\"stack\":[{\"path\":\"flow\",\"open_us\":2400000},",
            "{\"path\":\"flow/dosepl\",\"open_us\":2100000}]}],",
            "\"dosepl\":{\"round\":3,\"swaps\":10,\"accepted\":4},",
            "\"ipm\":{\"iter\":12,\"mu\":0.0000031},",
            "\"stream\":{\"events\":4096,\"dropped\":7},",
            "\"stalled\":[{\"thread\":\"main\",\"path\":\"flow/dosepl\",",
            "\"open_ms\":2100,\"baseline_p95_ms\":120,\"mult\":17.5}]}",
        ))
        .unwrap();
        let html = render(&DashboardInput {
            history: &history,
            manifest: Some(&manifest),
            bench_history: &bench,
            diff: None,
            snapshot: Some(&snapshot),
            title: "QoR dashboard",
        });
        for needle in [
            "Per-stage time breakdown",
            "IPM convergence",
            "QCP solve",
            "<td>1.95494</td><td>1.91000</td><td>2.500e-6</td><td>25</td><td>21</td>",
            "<td>yes</td>",
            "dosePl swap-filter tallies",
            "QoR trends",
            "Profile flamegraph",
            "<title>flow/dmopt",
            "Kernel speedup trajectory",
            "flow/dmopt — 15.00 ms",
            "<svg",
            "bench_trend.html",
            "Live snapshot",
            "snapshot #9 at t+2.5s",
            "STALLED flow/dosepl",
            "flow › flow/dosepl",
            "4/10 swaps accepted",
            "4096 events, 7 dropped",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        // Self-contained: no external fetches of any kind.
        for forbidden in ["http://", "https://", "<script src", "<link"] {
            assert!(!html.contains(forbidden), "external ref {forbidden:?}");
        }
    }

    #[test]
    fn empty_history_renders_a_note() {
        let html = render(&DashboardInput {
            title: "empty",
            ..DashboardInput::default()
        });
        assert!(html.contains("empty history"));
    }

    #[test]
    fn sparkline_handles_flat_and_short_series() {
        assert!(sparkline(&[1.0], 100, 20).contains("not enough points"));
        let flat = sparkline(&[5.0, 5.0, 5.0], 100, 20);
        assert!(flat.contains("polyline"));
    }
}
