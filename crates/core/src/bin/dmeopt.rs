//! `dmeopt` — command-line front end for dose-map / placement
//! co-optimization.
//!
//! ```text
//! dmeopt generate --profile aes65 [--scale 0.2] [--verilog out.v]
//!                 [--def out.def] [--lib out.lib]
//! dmeopt analyze  --profile aes65 [--scale 0.2] [--dosemap map.csv]
//! dmeopt optimize --profile aes65 [--scale 0.2]
//!                 [--objective leakage|timing] [--xi-uw 0] [--grid 5]
//!                 [--layers poly|both] [--prune] [--dosemap-out map.csv]
//! dmeopt flow     --profile aes65 [--scale 0.2] [--grid 5] [--top-k 1000]
//! dmeopt watch    snapshot.json [--interval-ms 500] [--once]
//! dmeopt obs      ls
//! dmeopt qp       solve file.qps [--backend auto|direct|cg] | suite [dir]
//! dmeopt qor      ingest run.json... | diff run baseline | report
//! dmeopt prof     report run.json [--flame out.svg] | diff run base...
//! ```
//!
//! `generate` can also be driven from files instead of a built-in
//! profile: `--verilog-in design.v --def-in design.def --tech 65`
//! (for `analyze`/`optimize`/`flow`).
//!
//! Every subcommand also accepts the observability options `--trace`
//! (collect in-process telemetry), `--trace-json events.jsonl` (stream
//! JSONL trace events), `--report run.json` (write a run manifest with
//! stage spans, solver telemetry and swap tallies; implies `--trace`)
//! and `--verbose` (raise the stderr log threshold to `info`). The
//! `DME_TRACE` / `DME_TRACE_JSON` / `DME_LOG` environment variables are
//! equivalent; `DME_GIT_SHA` stamps the manifest's `git_sha`.
//!
//! Run commands additionally accept `--snapshot <path>` /
//! `--snapshot-ms <n>` (`DME_SNAPSHOT_MS` / `DME_SNAPSHOT_PATH` are
//! equivalent) to start the live snapshot publisher; point
//! `dmeopt watch <path>` at the file from another terminal for a live
//! stage/rate view, and `dmeopt obs ls` lists every metric name the
//! flow can emit.
//!
//! `qp` exercises the `dme-qp` interior-point solver as a standalone QP
//! engine over MPS/QPS files: `solve` prints an OSQP-style summary
//! (status, iterations, objective, residuals) for one problem, `suite`
//! runs every fixture in a directory and prints the per-problem
//! iteration table (non-convergence fails the command — this is the CI
//! `qp-suite` gate). With `--report` the
//! manifest's `records` section carries one `qp_solve` row per solve
//! plus the `ipm_iter` per-iteration trajectory, machine-readable.
//!
//! `qor` is the QoR regression sentinel (see `crates/dme-qor`): `ingest`
//! normalizes run manifests into `results/qor_history.jsonl`, `diff`
//! gates a run against a baseline with noise-aware median/MAD
//! thresholds (exit 3 = confirmed regression), and `report` renders a
//! self-contained HTML dashboard.
//!
//! `prof` consumes the manifest v3 `profile` section: `report` prints
//! the span-tree breakdown (per-path calls, total/self wall time,
//! allocation attribution) and can render a standalone flamegraph SVG;
//! `diff` compares a run's per-path self times against one or more
//! baseline manifests with the same median/MAD floors the QoR gate
//! uses, exiting 3 on a confirmed self-time regression. The binary
//! installs [`dme_obs::TrackingAllocator`] as its global allocator, so
//! traced runs (`--trace` / `--report`) also attribute heap traffic to
//! the innermost open span at ~one branch per allocation when idle.

use dme_device::Technology;
use dme_dosemap::io::{parse_dose_map, write_dose_map};
use dme_liberty::Library;
use dme_netlist::{gen, profiles, verilog, Design, DesignProfile};
use dme_placement::{io as place_io, Placement};
use dme_sta::{analyze, GeometryAssignment};
use dmeopt::dosepl::assignment_for_placement;
use dmeopt::flow::{run as run_flow, FlowConfig};
use dmeopt::{optimize, DmoptConfig, DoseplConfig, Layers, Objective, OptContext};
use std::collections::HashMap;
use std::process::ExitCode;

/// Route every allocation through the observability layer so profiled
/// runs can attribute heap churn to the innermost open span. Disabled
/// (one relaxed atomic load per call) unless tracing is armed.
#[global_allocator]
static GLOBAL: dme_obs::TrackingAllocator<std::alloc::System> =
    dme_obs::TrackingAllocator(std::alloc::System);

/// Parsed command line: a subcommand, `--key value` options (`--flag`
/// with no value stores an empty string), and positional arguments
/// (used by `qor` for its verb and file paths).
#[derive(Debug, Default)]
struct Args {
    command: String,
    opts: HashMap<String, String>,
    positionals: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().cloned().ok_or("missing subcommand")?;
    let mut opts = HashMap::new();
    let mut positionals = Vec::new();
    let mut key: Option<String> = None;
    for a in it {
        if let Some(k) = a.strip_prefix("--") {
            if let Some(prev) = key.take() {
                opts.insert(prev, String::new()); // previous was a flag
            }
            key = Some(k.to_string());
        } else if let Some(k) = key.take() {
            opts.insert(k, a.clone());
        } else {
            positionals.push(a.clone());
        }
    }
    if let Some(k) = key {
        opts.insert(k, String::new());
    }
    Ok(Args {
        command,
        opts,
        positionals,
    })
}

/// Options every subcommand accepts: the observability switches and the
/// live snapshot publisher.
const OBS_KEYS: &[&str] = &[
    "trace",
    "trace-json",
    "report",
    "verbose",
    "snapshot",
    "snapshot-ms",
];

/// The design inputs of the run commands ([`load_bench`]).
const BENCH_KEYS: &[&str] = &["profile", "scale", "verilog-in", "def-in", "tech"];

/// The options one subcommand (and, for `qor` and `prof`, its verb)
/// reads besides [`OBS_KEYS`]; `None` for an unknown subcommand or verb,
/// which the command itself reports.
fn command_keys(args: &Args) -> Option<Vec<&'static str>> {
    let verb = args.positionals.first().map(String::as_str);
    let own: &[&str] = match (args.command.as_str(), verb) {
        ("generate", _) => &["verilog", "def", "lib"],
        ("analyze", _) => &["dosemap", "sdf"],
        ("optimize", _) => &[
            "grid",
            "objective",
            "xi-uw",
            "layers",
            "prune",
            "hold-margin-ns",
            "dosemap-out",
        ],
        ("flow", _) => &["grid", "layers", "prune", "hold-margin-ns", "top-k"],
        ("watch", _) => &["interval-ms", "once"],
        ("obs", _) => &[],
        ("qp", _) => &["backend"],
        ("qor", Some("ingest")) => &["history", "git-sha", "ts"],
        ("qor", Some("diff")) => &[
            "window",
            "k-mad",
            "min-rel",
            "time-min-rel",
            "md",
            "informational",
        ],
        ("qor", Some("report")) => &["history", "manifest", "bench-history", "out", "md"],
        ("prof", Some("report")) => &["flame"],
        ("prof", Some("diff")) => &[
            "window",
            "k-mad",
            "time-min-rel",
            "min-abs-us",
            "md",
            "informational",
        ],
        _ => return None,
    };
    let bench: &[&str] = match args.command.as_str() {
        "generate" | "analyze" | "optimize" | "flow" => BENCH_KEYS,
        _ => &[],
    };
    Some([OBS_KEYS, bench, own].concat())
}

/// Rejects any `--key` the subcommand does not read, so a misspelled or
/// retired option fails instead of running on the defaults.
fn check_keys(args: &Args) -> Result<(), String> {
    let Some(known) = command_keys(args) else {
        return Ok(());
    };
    // The first unknown key in sorted order, so the message is stable.
    let Some(key) = args
        .opts
        .keys()
        .filter(|k| !known.contains(&k.as_str()))
        .min()
    else {
        return Ok(());
    };
    let command = match (args.command.as_str(), args.positionals.first()) {
        (c @ ("qor" | "prof"), Some(verb)) => format!("{c}` {verb}"),
        (c, _) => format!("{c}`"),
    };
    Err(format!("unknown option --{key} for `{command}"))
}

/// Applies the observability options (see the module docs) and stamps
/// run metadata into the manifest. Call once, right after arg parsing.
/// Returns the live snapshot publisher when one was requested (via
/// `--snapshot`/`--snapshot-ms` or `DME_SNAPSHOT_MS`); the handle
/// publishes the `final` snapshot when dropped at the end of `main`.
fn init_obs(args: &Args) -> Option<dme_obs::publisher::Publisher> {
    if let Some(path) = args.opts.get("trace-json") {
        if path.is_empty() {
            eprintln!("error: --trace-json requires a path");
        } else if let Err(e) = dme_obs::set_trace_path(path) {
            eprintln!("error: opening trace {path}: {e}");
        }
    }
    if args.opts.contains_key("verbose") {
        dme_obs::set_max_level(dme_obs::Level::Info);
    }
    if args.opts.contains_key("trace") || args.opts.contains_key("report") {
        dme_obs::set_enabled(true);
    }
    // The publisher only makes sense for commands that actually run the
    // flow — `watch` in particular must never overwrite the snapshot it
    // is reading.
    let run_command = matches!(
        args.command.as_str(),
        "generate" | "analyze" | "optimize" | "flow"
    );
    let publisher = if !run_command {
        None
    } else if args.opts.contains_key("snapshot") || args.opts.contains_key("snapshot-ms") {
        let path = match args.opts.get("snapshot").map(String::as_str) {
            Some("") | None => "snapshot.json".to_string(),
            Some(p) => p.to_string(),
        };
        let interval_ms = args
            .opts
            .get("snapshot-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|ms| *ms > 0)
            .unwrap_or(200);
        Some(dme_obs::publisher::start(&path, interval_ms))
    } else {
        dme_obs::publisher::start_from_env()
    };
    if dme_obs::enabled() {
        dme_obs::set_meta_str("bin", "dmeopt");
        dme_obs::set_meta_str("command", &args.command);
        if let Some(p) = args.opts.get("profile") {
            dme_obs::set_meta_str("profile", p);
        }
        if let Some(s) = args.opts.get("scale") {
            dme_obs::set_meta_str("scale", s);
        }
        if let Ok(sha) = std::env::var("DME_GIT_SHA") {
            if !sha.trim().is_empty() {
                dme_obs::set_meta_str("git_sha", sha.trim());
            }
        }
        dme_obs::set_meta_num("threads", dme_par::num_threads() as f64);
        dme_obs::set_meta_bool("feature_parallel", dme_par::parallel_enabled());
        if let Some(path) = args.opts.get("report") {
            if !path.is_empty() {
                dme_obs::set_report_path(path);
            }
        }
        // A crashing run must still flush its trace and leave a
        // manifest stub (status: "panicked") at the --report path.
        dme_obs::install_panic_hook();
    }
    publisher
}

/// Writes the `--report` manifest (if requested), prints the summary
/// table to stderr, and closes the JSONL sink. Call once before exit.
fn finish_obs(args: &Args) {
    if !dme_obs::enabled() {
        return;
    }
    if let Some(path) = args.opts.get("report") {
        if path.is_empty() {
            eprintln!("error: --report requires a path");
        } else {
            dme_obs::set_meta_str("status", "ok");
            match dme_obs::write_report(path) {
                Ok(()) => dme_obs::info!("wrote run manifest {path}"),
                Err(e) => dme_obs::error!("writing run manifest {path}: {e}"),
            }
        }
    }
    eprint!("{}", dme_obs::summary_table());
    dme_obs::close_trace();
}

fn profile_by_name(name: &str) -> Option<DesignProfile> {
    match name {
        "aes65" => Some(profiles::aes65()),
        "jpeg65" => Some(profiles::jpeg65()),
        "aes90" => Some(profiles::aes90()),
        "jpeg90" => Some(profiles::jpeg90()),
        "small" => Some(profiles::small()),
        "tiny" => Some(profiles::tiny()),
        _ => None,
    }
}

struct Bench {
    lib: Library,
    design: Design,
    placement: Placement,
}

fn load_bench(args: &Args) -> Result<Bench, String> {
    if let Some(vpath) = args.opts.get("verilog-in") {
        let tech = match args.opts.get("tech").map(String::as_str) {
            Some("65") | None => Technology::n65(),
            Some("90") => Technology::n90(),
            Some(other) => return Err(format!("unknown tech {other:?} (use 65 or 90)")),
        };
        let lib = Library::standard(tech);
        let text = std::fs::read_to_string(vpath).map_err(|e| format!("{vpath}: {e}"))?;
        let netlist = verilog::parse_netlist(&text, &lib).map_err(|e| e.to_string())?;
        netlist
            .validate(&lib)
            .map_err(|e| format!("{vpath}: {e}"))?;
        let dpath = args
            .opts
            .get("def-in")
            .ok_or("--verilog-in requires --def-in for the placement")?;
        let dtext = std::fs::read_to_string(dpath).map_err(|e| format!("{dpath}: {e}"))?;
        let placement = place_io::parse_placement(&dtext, &netlist).map_err(|e| e.to_string())?;
        let die_area_mm2 = placement.die_w_um * placement.die_h_um * 1e-6;
        let mut profile = profiles::tiny();
        profile.name = "FILE".into();
        profile.die_area_mm2 = die_area_mm2;
        let design = Design { netlist, profile };
        return Ok(Bench {
            lib,
            design,
            placement,
        });
    }
    let pname = args
        .opts
        .get("profile")
        .ok_or("--profile (or --verilog-in) is required")?;
    let mut profile = profile_by_name(pname).ok_or_else(|| format!("unknown profile {pname:?}"))?;
    if let Some(s) = args.opts.get("scale") {
        let f: f64 = s.parse().map_err(|_| format!("bad --scale {s:?}"))?;
        profile = profile.scaled(f);
    }
    let tech = match profile.node {
        profiles::TechNode::N65 => Technology::n65(),
        profiles::TechNode::N90 => Technology::n90(),
    };
    let lib = Library::standard(tech);
    let design = gen::generate(&profile, &lib);
    let placement = {
        let _span = dme_obs::span("place");
        dme_placement::place(&design, &lib)
    };
    Ok(Bench {
        lib,
        design,
        placement,
    })
}

fn dmopt_config(args: &Args) -> Result<DmoptConfig, String> {
    let mut cfg = DmoptConfig::default();
    if let Some(g) = args.opts.get("grid") {
        cfg.grid_g_um = g.parse().map_err(|_| format!("bad --grid {g:?}"))?;
    }
    match args.opts.get("objective").map(String::as_str) {
        Some("timing") => {
            let xi = args
                .opts
                .get("xi-uw")
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --xi-uw {v:?}")))
                .transpose()?
                .unwrap_or(0.0);
            cfg.objective = Objective::MinTiming { xi_uw: xi };
        }
        Some("leakage") | None => {}
        Some(other) => return Err(format!("unknown objective {other:?}")),
    }
    match args.opts.get("layers").map(String::as_str) {
        Some("both") => cfg.layers = Layers::PolyAndActive,
        Some("poly") | None => {}
        Some(other) => return Err(format!("unknown layers {other:?}")),
    }
    if args.opts.contains_key("prune") {
        cfg.prune = true;
    }
    if let Some(h) = args.opts.get("hold-margin-ns") {
        cfg.hold_margin_ns = Some(
            h.parse()
                .map_err(|_| format!("bad --hold-margin-ns {h:?}"))?,
        );
    }
    Ok(cfg)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let b = load_bench(args)?;
    dme_obs::report!(
        "generated {}: {} cells, {} nets, die {:.1}×{:.1} µm",
        b.design.profile.name,
        b.design.netlist.num_instances(),
        b.design.netlist.num_nets(),
        b.placement.die_w_um,
        b.placement.die_h_um
    );
    if let Some(path) = args.opts.get("verilog") {
        let text = verilog::write_netlist(&b.design.netlist, &b.lib, "dme");
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        dme_obs::report!("wrote {path}");
    }
    if let Some(path) = args.opts.get("def") {
        let text = place_io::write_placement(&b.placement, &b.design.netlist);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        dme_obs::report!("wrote {path}");
    }
    if let Some(path) = args.opts.get("lib") {
        let text = dme_liberty::io::write_library(&b.lib, 0.0, 0.0);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        dme_obs::report!("wrote {path}");
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let b = load_bench(args)?;
    let n = b.design.netlist.num_instances();
    let doses = match args.opts.get("dosemap") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let map = parse_dose_map(&text).map_err(|e| e.to_string())?;
            let ctx = OptContext::new(&b.lib, &b.design, &b.placement);
            assignment_for_placement(&ctx, &b.placement, &map, None, -2.0)
        }
        None => GeometryAssignment::nominal(n),
    };
    let r = {
        let _span = dme_obs::span("golden_sta");
        analyze(&b.lib, &b.design.netlist, &b.placement, &doses)
    };
    dme_obs::report!("MCT      : {:.4} ns", r.mct_ns);
    dme_obs::report!("leakage  : {:.1} µW", r.total_leakage_uw);
    let setup: Vec<f64> = b
        .design
        .netlist
        .instances
        .iter()
        .map(|i| b.lib.cell(i.cell_idx).setup_ns(b.lib.tech()))
        .collect();
    let paths = dme_sta::worst_path_per_endpoint(&b.design.netlist, &r, &setup);
    let pct = dme_sta::report::criticality_percentages(&paths, r.mct_ns, &[0.95, 0.90, 0.80]);
    dme_obs::report!("endpoints: {}", paths.len());
    dme_obs::report!(
        "criticality (95/90/80% of MCT): {:.2}% / {:.2}% / {:.2}%",
        pct[0],
        pct[1],
        pct[2]
    );
    dme_obs::report!("hold     : worst slack {:.4} ns", r.worst_hold_slack_ns);
    if let Some(path) = args.opts.get("sdf") {
        let text = dme_sta::sdf::write_sdf(&b.design.netlist, &r, "dme");
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        dme_obs::report!("wrote {path}");
    }
    Ok(())
}

fn cmd_optimize(args: &Args) -> Result<(), String> {
    let b = load_bench(args)?;
    let ctx = {
        let _span = dme_obs::span("golden_sta");
        OptContext::new(&b.lib, &b.design, &b.placement)
    };
    let cfg = dmopt_config(args)?;
    let r = optimize(&ctx, &cfg).map_err(|e| e.to_string())?;
    let (mct_imp, leak_imp) = r.golden_after.improvement_over(&r.golden_before);
    dme_obs::report!(
        "MCT      : {:.4} -> {:.4} ns ({mct_imp:+.2}%)",
        r.golden_before.mct_ns,
        r.golden_after.mct_ns
    );
    dme_obs::report!(
        "leakage  : {:.1} -> {:.1} µW ({leak_imp:+.2}%)",
        r.golden_before.leakage_uw,
        r.golden_after.leakage_uw
    );
    dme_obs::report!(
        "solver   : {} vars, {} rows, {} iterations, {} probe(s), {:.2?}",
        r.num_vars,
        r.num_constraints,
        r.iterations,
        r.probes,
        r.runtime
    );
    if let Some(path) = args.opts.get("dosemap-out") {
        std::fs::write(path, write_dose_map(&r.poly_map)).map_err(|e| format!("{path}: {e}"))?;
        dme_obs::report!("wrote {path}");
    }
    Ok(())
}

fn cmd_flow(args: &Args) -> Result<(), String> {
    let b = load_bench(args)?;
    let ctx = {
        let _span = dme_obs::span("golden_sta");
        OptContext::new(&b.lib, &b.design, &b.placement)
    };
    let mut cfg = FlowConfig {
        dmopt: dmopt_config(args)?,
        dosepl: Some(DoseplConfig::default()),
    };
    cfg.dmopt.objective = Objective::MinTiming { xi_uw: 0.0 };
    if let Some(k) = args.opts.get("top-k") {
        if let Some(d) = cfg.dosepl.as_mut() {
            d.top_k = k.parse().map_err(|_| format!("bad --top-k {k:?}"))?;
        }
    }
    let r = run_flow(&ctx, &cfg).map_err(|e| e.to_string())?;
    dme_obs::report!(
        "nominal   : MCT {:.4} ns, leakage {:.1} µW",
        r.nominal.mct_ns,
        r.nominal.leakage_uw
    );
    dme_obs::report!(
        "after QCP : MCT {:.4} ns, leakage {:.1} µW",
        r.dmopt.golden_after.mct_ns,
        r.dmopt.golden_after.leakage_uw
    );
    if let Some(dp) = &r.dosepl {
        dme_obs::report!(
            "after dosePl: MCT {:.4} ns, leakage {:.1} µW ({} swaps accepted)",
            dp.golden_after.mct_ns,
            dp.golden_after.leakage_uw,
            dp.swaps_accepted
        );
    }
    Ok(())
}

/// Default committed QoR history, relative to the repo root.
const DEFAULT_HISTORY: &str = "results/qor_history.jsonl";

/// Exit code for a confirmed QoR regression (distinct from generic
/// errors so CI can tell "the gate fired" from "the tool broke").
const EXIT_REGRESSION: u8 = 3;

/// Loads the run under test: a `.jsonl` history (its last record) or a
/// run-manifest JSON document (normalized on the fly).
fn qor_load_run(path: &str) -> Result<dme_qor::QorRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".jsonl") {
        dme_qor::parse_history(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .pop()
            .ok_or_else(|| format!("{path}: history is empty"))
    } else {
        dme_qor::normalize_manifest(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Loads the baseline: every record of a `.jsonl` history (the diff
/// config windows it), or a single-record baseline from one manifest.
fn qor_load_baseline(path: &str) -> Result<Vec<dme_qor::QorRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".jsonl") {
        dme_qor::parse_history(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        Ok(vec![
            dme_qor::normalize_manifest(&text).map_err(|e| format!("{path}: {e}"))?
        ])
    }
}

fn qor_diff_config(args: &Args) -> Result<dme_qor::DiffConfig, String> {
    let mut cfg = dme_qor::DiffConfig::default();
    let parse_f64 = |key: &str, target: &mut f64| -> Result<(), String> {
        if let Some(v) = args.opts.get(key) {
            *target = v.parse().map_err(|_| format!("bad --{key} {v:?}"))?;
        }
        Ok(())
    };
    parse_f64("k-mad", &mut cfg.k_mad)?;
    parse_f64("min-rel", &mut cfg.min_rel)?;
    parse_f64("time-min-rel", &mut cfg.time_min_rel)?;
    if let Some(w) = args.opts.get("window") {
        cfg.window = w.parse().map_err(|_| format!("bad --window {w:?}"))?;
    }
    Ok(cfg)
}

fn qor_ingest(args: &Args) -> Result<(), String> {
    let manifests = &args.positionals[1..];
    if manifests.is_empty() {
        return Err("qor ingest requires at least one manifest path".into());
    }
    let history = args
        .opts
        .get("history")
        .cloned()
        .unwrap_or_else(|| DEFAULT_HISTORY.to_string());
    for path in manifests {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut rec = dme_qor::normalize_manifest(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(sha) = args.opts.get("git-sha") {
            rec.git_sha = sha.clone();
        }
        rec.ts_s = match args.opts.get("ts") {
            Some(t) => t.parse().map_err(|_| format!("bad --ts {t:?}"))?,
            None => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
        };
        dme_qor::append_history(std::path::Path::new(&history), &rec)
            .map_err(|e| format!("{history}: {e}"))?;
        dme_obs::report!("qor: appended {} to {history}", rec.label());
    }
    Ok(())
}

fn qor_diff(args: &Args) -> Result<ExitCode, String> {
    let [_, run_path, baseline_path] = args.positionals.as_slice() else {
        return Err("qor diff requires exactly two paths: <run> <baseline>".into());
    };
    let run = qor_load_run(run_path)?;
    let baseline = qor_load_baseline(baseline_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: baseline is empty"));
    }
    let cfg = qor_diff_config(args)?;
    let mut report = dme_qor::diff_records(&run, &baseline, &cfg);
    report.baseline_label = baseline_path.clone();
    let md = dme_qor::markdown::diff_markdown(&report);
    print!("{md}");
    if let Some(path) = args.opts.get("md") {
        std::fs::write(path, &md).map_err(|e| format!("{path}: {e}"))?;
    }
    if report.has_regression() && !args.opts.contains_key("informational") {
        return Ok(ExitCode::from(EXIT_REGRESSION));
    }
    Ok(ExitCode::SUCCESS)
}

fn qor_report(args: &Args) -> Result<(), String> {
    let history_path = args
        .opts
        .get("history")
        .cloned()
        .unwrap_or_else(|| DEFAULT_HISTORY.to_string());
    let text =
        std::fs::read_to_string(&history_path).map_err(|e| format!("{history_path}: {e}"))?;
    let history = dme_qor::parse_history(&text).map_err(|e| format!("{history_path}: {e}"))?;

    let manifest_doc = match args.opts.get("manifest") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(dme_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let bench: Vec<dme_obs::json::Value> = match args.opts.get("bench-history") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| dme_obs::json::parse(l).map_err(|e| format!("{path}: {e}")))
                .collect::<Result<_, _>>()?
        }
        None => Vec::new(),
    };
    // `--snapshot <path>` embeds the run's last live telemetry snapshot
    // (the file the publisher leaves behind) as a dashboard panel.
    let snapshot_doc = match args.opts.get("snapshot") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(dme_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    // With two or more records, embed a latest-vs-rest comparison.
    let diff = if history.len() >= 2 {
        let (run, base) = history.split_last().expect("len >= 2");
        let mut d = dme_qor::diff_records(run, base, &qor_diff_config(args)?);
        d.baseline_label = history_path.clone();
        Some(d)
    } else {
        None
    };
    let html = dme_qor::dashboard::render(&dme_qor::dashboard::DashboardInput {
        history: &history,
        manifest: manifest_doc.as_ref(),
        bench_history: &bench,
        diff: diff.as_ref(),
        snapshot: snapshot_doc.as_ref(),
        title: "DME QoR dashboard",
    });
    let out = args
        .opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "qor_dashboard.html".to_string());
    std::fs::write(&out, html).map_err(|e| format!("{out}: {e}"))?;
    dme_obs::report!("qor: wrote dashboard {out}");
    if let Some(path) = args.opts.get("md") {
        match &diff {
            Some(d) => {
                let md = dme_qor::markdown::diff_markdown(d);
                std::fs::write(path, md).map_err(|e| format!("{path}: {e}"))?;
                dme_obs::report!("qor: wrote markdown summary {path}");
            }
            None => dme_obs::warn!("--md needs at least two history records; skipped"),
        }
    }
    Ok(())
}

/// `dmeopt qor <ingest|diff|report>` — the QoR regression sentinel.
fn cmd_qor(args: &Args) -> Result<ExitCode, String> {
    match args.positionals.first().map(String::as_str) {
        Some("ingest") => qor_ingest(args).map(|()| ExitCode::SUCCESS),
        Some("diff") => qor_diff(args),
        Some("report") => qor_report(args).map(|()| ExitCode::SUCCESS),
        Some(other) => Err(format!("unknown qor verb {other:?}")),
        None => Err("qor requires a verb: ingest, diff or report".into()),
    }
}

/// Parses the profile section of a manifest file, labelled by its path.
fn prof_load(path: &str) -> Result<dme_qor::Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    dme_qor::parse_manifest_profile(&text, path).map_err(|e| format!("{path}: {e}"))
}

fn prof_diff_config(args: &Args) -> Result<dme_qor::ProfileDiffConfig, String> {
    let mut cfg = dme_qor::ProfileDiffConfig::default();
    let parse_f64 = |key: &str, target: &mut f64| -> Result<(), String> {
        if let Some(v) = args.opts.get(key) {
            *target = v.parse().map_err(|_| format!("bad --{key} {v:?}"))?;
        }
        Ok(())
    };
    parse_f64("k-mad", &mut cfg.k_mad)?;
    parse_f64("time-min-rel", &mut cfg.time_min_rel)?;
    if let Some(v) = args.opts.get("min-abs-us") {
        let us: f64 = v.parse().map_err(|_| format!("bad --min-abs-us {v:?}"))?;
        cfg.min_abs_ns = us * 1e3;
    }
    if let Some(w) = args.opts.get("window") {
        cfg.window = w.parse().map_err(|_| format!("bad --window {w:?}"))?;
    }
    Ok(cfg)
}

/// `prof report <manifest.json>` — span-tree breakdown + flamegraph.
fn prof_report(args: &Args) -> Result<(), String> {
    let [_, manifest_path] = args.positionals.as_slice() else {
        return Err("prof report requires exactly one manifest path".into());
    };
    let profile = prof_load(manifest_path)?;
    print!("{}", dme_qor::profile_tree_text(&profile));
    if let Some(out) = args.opts.get("flame") {
        if out.is_empty() {
            return Err("--flame requires a path".into());
        }
        let title = format!("dmeopt profile — {manifest_path}");
        let svg = dme_qor::flamegraph_svg(&profile, &title, true);
        std::fs::write(out, svg).map_err(|e| format!("{out}: {e}"))?;
        dme_obs::report!("prof: wrote flamegraph {out}");
    }
    Ok(())
}

/// `prof diff <run> <baseline>...` — gate per-path self times against
/// baseline manifests. Exit 3 = confirmed self-time regression.
fn prof_diff(args: &Args) -> Result<ExitCode, String> {
    let paths = &args.positionals[1..];
    let [run_path, baseline_paths @ ..] = paths else {
        return Err("prof diff requires <run> <baseline>... manifest paths".into());
    };
    if baseline_paths.is_empty() {
        return Err("prof diff requires at least one baseline manifest".into());
    }
    let run = prof_load(run_path)?;
    let baselines: Vec<dme_qor::Profile> = baseline_paths
        .iter()
        .map(|p| prof_load(p))
        .collect::<Result<_, _>>()?;
    let cfg = prof_diff_config(args)?;
    let mut report = dme_qor::diff_profiles(&run, &baselines, &cfg);
    if let [single] = baseline_paths {
        report.baseline_label = single.clone();
    }
    let md = dme_qor::markdown::diff_markdown(&report);
    print!("{md}");
    if let Some(path) = args.opts.get("md") {
        std::fs::write(path, &md).map_err(|e| format!("{path}: {e}"))?;
    }
    if report.has_regression() && !args.opts.contains_key("informational") {
        return Ok(ExitCode::from(EXIT_REGRESSION));
    }
    Ok(ExitCode::SUCCESS)
}

/// `dmeopt prof <report|diff>` — the self-profiling front end.
fn cmd_prof(args: &Args) -> Result<ExitCode, String> {
    match args.positionals.first().map(String::as_str) {
        Some("report") => prof_report(args).map(|()| ExitCode::SUCCESS),
        Some("diff") => prof_diff(args),
        Some(other) => Err(format!("unknown prof verb {other:?}")),
        None => Err("prof requires a verb: report or diff".into()),
    }
}

/// Reads the `status` field out of snapshot JSON (`None` when the text
/// does not parse — e.g. caught mid-rename on a non-atomic filesystem).
fn snapshot_status(text: &str) -> Option<String> {
    dme_obs::json::parse(text)
        .ok()?
        .get("status")
        .and_then(dme_obs::json::Value::as_str)
        .map(str::to_string)
}

/// `dmeopt watch <snapshot.json>` — refresh-loop terminal view of a
/// live run. Exits when the snapshot reports `final` or `panicked`
/// status (or after one frame with `--once`).
fn cmd_watch(args: &Args) -> Result<(), String> {
    let path = args
        .positionals
        .first()
        .ok_or("watch requires a snapshot path")?;
    let interval_ms: u64 = match args.opts.get("interval-ms") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|ms| *ms > 0)
            .ok_or_else(|| format!("bad --interval-ms {v:?}"))?,
        None => 500,
    };
    let once = args.opts.contains_key("once");
    let mut waiting_reported = false;
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => match dme_qor::render_snapshot(&text) {
                Ok(frame) => {
                    if !once {
                        // Clear screen and home the cursor between frames.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{frame}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    let status = snapshot_status(&text).unwrap_or_default();
                    if once {
                        return Ok(());
                    }
                    if status == "final" || status == "panicked" {
                        println!("\nrun {status}; exiting watch");
                        return Ok(());
                    }
                }
                Err(e) => {
                    if once {
                        return Err(e);
                    }
                    // Transient parse issues just skip a frame.
                    eprintln!("watch: {e}");
                }
            },
            Err(e) => {
                if once {
                    return Err(format!("{path}: {e}"));
                }
                if !waiting_reported {
                    println!("waiting for {path} ...");
                    waiting_reported = true;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Builds the IPM settings for `dmeopt qp` from `--backend`. Unlike the
/// `DME_QP_BACKEND` override (which degrades on typos so a long flow
/// survives), an explicit CLI value must parse or the command aborts.
fn qp_settings(args: &Args) -> Result<dme_qp::IpmSettings, String> {
    let mut st = dme_qp::IpmSettings::default();
    if let Some(v) = args.opts.get("backend") {
        st.backend = match v.to_ascii_lowercase().as_str() {
            "auto" => dme_qp::NewtonBackend::Auto,
            "direct" => dme_qp::NewtonBackend::Direct,
            "cg" => dme_qp::NewtonBackend::Cg,
            _ => return Err(format!("bad --backend {v:?} (auto, direct or cg)")),
        };
    }
    Ok(st)
}

/// Solves one loaded QPS problem, streaming telemetry when tracing is
/// armed and recording a `qp_solve` row for the `--report` manifest.
fn qp_run_one(
    name: &str,
    pb: &dme_qp::mps::QpsProblem,
    st: &dme_qp::IpmSettings,
) -> Result<(dme_qp::Solution, f64), String> {
    let solver = dme_qp::IpmSolver::new(st.clone());
    dme_obs::counter_add("qp/solves", 1);
    let sol = if dme_obs::enabled() {
        solver.solve_observed(&pb.qp, &mut dmeopt::ObsSolverObserver)
    } else {
        solver.solve(&pb.qp)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let objective = pb.objective(&sol.x);
    dme_obs::record(
        "qp_solve",
        &[
            ("n", pb.qp.num_vars() as f64),
            ("m", pb.qp.a.nrows() as f64),
            ("iterations", sol.iterations as f64),
            ("objective", objective),
            ("pri_res", sol.primal_residual),
            ("dua_res", sol.dual_residual),
            (
                "solved",
                f64::from(sol.status == dme_qp::SolveStatus::Solved),
            ),
        ],
    );
    Ok((sol, objective))
}

/// `qp solve <file.qps>` — solve one MPS/QPS problem and print an
/// OSQP-style summary (status, iterations, objective, residuals).
fn qp_solve(args: &Args) -> Result<(), String> {
    let [_, path] = args.positionals.as_slice() else {
        return Err("qp solve requires exactly one .qps path".into());
    };
    let st = qp_settings(args)?;
    let pb =
        dme_qp::mps::load_qps(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let t0 = std::time::Instant::now();
    let (sol, objective) = qp_run_one(&pb.name, &pb, &st)?;
    let elapsed = t0.elapsed();
    println!(
        "problem:    {} ({} variables, {} constraint rows)",
        pb.name,
        pb.qp.num_vars(),
        pb.qp.a.nrows()
    );
    println!(
        "backend:    {}",
        match st.backend {
            dme_qp::NewtonBackend::Auto => "auto",
            dme_qp::NewtonBackend::Direct => "direct",
            dme_qp::NewtonBackend::Cg => "cg",
        }
    );
    println!("status:     {:?}", sol.status);
    println!("iterations: {}", sol.iterations);
    println!("objective:  {objective:.10e}");
    println!(
        "residuals:  pri {:.3e}, dua {:.3e}, max violation {:.3e}",
        sol.primal_residual,
        sol.dual_residual,
        pb.qp.max_violation(&sol.x)
    );
    println!("run time:   {:.3} ms", elapsed.as_secs_f64() * 1e3);
    if sol.status != dme_qp::SolveStatus::Solved {
        return Err(format!(
            "{}: solver stopped with {:?} after {} iterations",
            pb.name, sol.status, sol.iterations
        ));
    }
    Ok(())
}

/// `qp suite [dir]` — solve every `.qps` fixture under `dir` (default
/// `tests/qps`) and print a per-problem iteration table; any
/// non-converged solve fails the command. This is the CI `qp-suite`
/// entry point and the source of the EXPERIMENTS.md iteration tables.
fn qp_suite(args: &Args) -> Result<(), String> {
    let dir = args
        .positionals
        .get(1)
        .map(String::as_str)
        .unwrap_or("tests/qps");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qps"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no .qps fixtures found"));
    }
    let st = qp_settings(args)?;
    let mut failures = Vec::new();
    let mut total = 0usize;
    println!(
        "{:<12} {:>4} {:>4} {:>10}  objective",
        "problem", "n", "m", "iterations"
    );
    for path in &paths {
        let label = path.file_stem().unwrap_or_default().to_string_lossy();
        let pb = dme_qp::mps::load_qps(path).map_err(|e| format!("{label}: {e}"))?;
        let (sol, objective) = qp_run_one(&label, &pb, &st)?;
        if sol.status != dme_qp::SolveStatus::Solved {
            failures.push(format!(
                "{label}: {:?} after {} iterations",
                sol.status, sol.iterations
            ));
        }
        total += sol.iterations;
        println!(
            "{label:<12} {:>4} {:>4} {:>10}  {objective:.6e}",
            pb.qp.num_vars(),
            pb.qp.a.nrows(),
            sol.iterations
        );
    }
    println!("{:<12} {:>4} {:>4} {total:>10}", "total", "", "");
    if !failures.is_empty() {
        return Err(format!(
            "{} solve(s) failed to converge:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    Ok(())
}

/// `dmeopt qp <solve|suite>` — the standalone QP front end over MPS/QPS
/// files (see `crates/dme-qp`). Machine-readable output comes from the
/// shared observability options: `--report run.json` writes a manifest
/// whose `records` section carries one `qp_solve` row per solve plus the
/// per-iteration `ipm_iter` convergence trajectory.
fn cmd_qp(args: &Args) -> Result<(), String> {
    match args.positionals.first().map(String::as_str) {
        Some("solve") => qp_solve(args),
        Some("suite") => qp_suite(args),
        Some(other) => Err(format!("unknown qp verb {other:?}")),
        None => Err("qp requires a verb: solve or suite".into()),
    }
}

/// `dmeopt obs ls` — print the metric catalog (every counter, span,
/// histogram and record kind the flow can emit).
fn cmd_obs(args: &Args) -> Result<(), String> {
    match args.positionals.first().map(String::as_str) {
        Some("ls") => {
            print!("{}", dme_obs::catalog::catalog_table());
            Ok(())
        }
        Some(other) => Err(format!("unknown obs verb {other:?}")),
        None => Err("obs requires a verb: ls".into()),
    }
}

const USAGE: &str = "usage: dmeopt <generate|analyze|optimize|flow|watch|obs|qp|qor|prof> [options]
  common: --profile aes65|jpeg65|aes90|jpeg90|small|tiny [--scale f]
          or --verilog-in f.v --def-in f.def [--tech 65|90]
  generate: [--verilog out.v] [--def out.def] [--lib out.lib]
  analyze : [--dosemap map.csv] [--sdf out.sdf]
  optimize: [--objective leakage|timing] [--xi-uw x] [--grid g]
            [--layers poly|both] [--prune] [--hold-margin-ns h]
            [--dosemap-out map.csv]
  flow    : [--grid g] [--top-k k]
  watch   : <snapshot.json> [--interval-ms n] [--once]
            (live view of a run publishing snapshots; exits on final)
  obs     : ls (print the counter/span/histogram/record catalog)
  qp      : solve <file.qps> [--backend auto|direct|cg]
                 (OSQP-style summary; exit 1 on non-convergence)
            suite [dir=tests/qps] [--backend auto|direct|cg]
                 (per-problem iteration table; exit 1 on non-convergence)
  qor     : ingest <manifest.json>... [--history h.jsonl] [--git-sha sha] [--ts secs]
            diff <run> <baseline> [--window n] [--k-mad k] [--min-rel f]
                 [--time-min-rel f] [--md out.md] [--informational]
                 (exit 3 = confirmed regression)
            report [--history h.jsonl] [--manifest run.json]
                 [--bench-history b.jsonl] [--snapshot snap.json]
                 [--out dash.html] [--md out.md]
  prof    : report <run.json> [--flame out.svg]
            diff <run.json> <baseline.json>... [--window n] [--k-mad k]
                 [--time-min-rel f] [--min-abs-us us] [--md out.md]
                 [--informational] (exit 3 = confirmed self-time regression)
  observability (all subcommands): [--trace] [--trace-json events.jsonl]
          [--report run.json] [--verbose]
          [--snapshot snap.json] [--snapshot-ms n] (live snapshot publisher;
          DME_SNAPSHOT_MS / DME_SNAPSHOT_PATH are equivalent)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv).and_then(|a| check_keys(&a).map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _publisher = init_obs(&args);
    // Test hook: crash after observability is armed so the integration
    // suite can verify the panic hook flushes the trace and leaves a
    // `status: "panicked"` manifest stub. `DME_TEST_PANIC=span` panics
    // with a span still open after a nested span completed, exercising
    // the hook's batched-span-stats flush (the completed span's delta
    // would otherwise only reach the registry when the stack drained).
    if let Some(v) = std::env::var_os("DME_TEST_PANIC") {
        if v == "span" {
            let _outer = dme_obs::span("flow");
            {
                let _inner = dme_obs::span("stage");
            }
            panic!("DME_TEST_PANIC=span set (panicking mid-span-stack)");
        }
        panic!("DME_TEST_PANIC set");
    }
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args).map(|()| ExitCode::SUCCESS),
        "analyze" => cmd_analyze(&args).map(|()| ExitCode::SUCCESS),
        "optimize" => cmd_optimize(&args).map(|()| ExitCode::SUCCESS),
        "flow" => cmd_flow(&args).map(|()| ExitCode::SUCCESS),
        "watch" => cmd_watch(&args).map(|()| ExitCode::SUCCESS),
        "obs" => cmd_obs(&args).map(|()| ExitCode::SUCCESS),
        "qp" => cmd_qp(&args).map(|()| ExitCode::SUCCESS),
        "qor" => cmd_qor(&args),
        "prof" => cmd_prof(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    finish_obs(&args);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("parse")
    }

    #[test]
    fn arg_parsing_handles_flags_and_values() {
        let a = args(&["optimize", "--profile", "tiny", "--prune", "--grid", "8"]);
        assert_eq!(a.command, "optimize");
        assert_eq!(a.opts["profile"], "tiny");
        assert_eq!(a.opts["grid"], "8");
        assert!(a.opts.contains_key("prune"));
    }

    #[test]
    fn trailing_flag_is_kept() {
        let a = args(&["flow", "--profile", "tiny", "--prune"]);
        assert!(a.opts.contains_key("prune"));
    }

    #[test]
    fn bad_args_are_rejected_and_positionals_collected() {
        assert!(parse_args(&[]).is_err());
        let a = args(&["qor", "diff", "run.json", "base.jsonl", "--window", "5"]);
        assert_eq!(a.command, "qor");
        assert_eq!(a.positionals, ["diff", "run.json", "base.jsonl"]);
        assert_eq!(a.opts["window"], "5");
    }

    #[test]
    fn qor_rejects_bad_verbs_and_arities() {
        assert!(cmd_qor(&args(&["qor"])).is_err());
        assert!(cmd_qor(&args(&["qor", "frobnicate"])).is_err());
        assert!(cmd_qor(&args(&["qor", "diff", "only-one.json"])).is_err());
        assert!(cmd_qor(&args(&["qor", "ingest"])).is_err());
    }

    #[test]
    fn qor_diff_config_maps_options() {
        let a = args(&[
            "qor",
            "diff",
            "r",
            "b",
            "--window",
            "9",
            "--k-mad",
            "2.5",
            "--min-rel",
            "0.01",
            "--time-min-rel",
            "0.4",
        ]);
        let cfg = qor_diff_config(&a).expect("config");
        assert_eq!(cfg.window, 9);
        assert_eq!(cfg.k_mad, 2.5);
        assert_eq!(cfg.min_rel, 0.01);
        assert_eq!(cfg.time_min_rel, 0.4);
        assert!(qor_diff_config(&args(&["qor", "diff", "r", "b", "--window", "x"])).is_err());
    }

    #[test]
    fn prof_rejects_bad_verbs_and_arities() {
        assert!(cmd_prof(&args(&["prof"])).is_err());
        assert!(cmd_prof(&args(&["prof", "flame"])).is_err());
        assert!(cmd_prof(&args(&["prof", "report"])).is_err());
        assert!(cmd_prof(&args(&["prof", "report", "a.json", "b.json"])).is_err());
        assert!(cmd_prof(&args(&["prof", "diff", "only-run.json"])).is_err());
    }

    #[test]
    fn prof_diff_config_maps_options() {
        let a = args(&[
            "prof",
            "diff",
            "r",
            "b",
            "--window",
            "7",
            "--k-mad",
            "4.0",
            "--time-min-rel",
            "0.5",
            "--min-abs-us",
            "100",
        ]);
        let cfg = prof_diff_config(&a).expect("config");
        assert_eq!(cfg.window, 7);
        assert_eq!(cfg.k_mad, 4.0);
        assert_eq!(cfg.time_min_rel, 0.5);
        assert_eq!(cfg.min_abs_ns, 100_000.0);
        assert!(prof_diff_config(&args(&["prof", "diff", "r", "b", "--window", "x"])).is_err());
    }

    #[test]
    fn qp_rejects_bad_verbs_backends_and_arities() {
        assert!(cmd_qp(&args(&["qp"])).is_err());
        assert!(cmd_qp(&args(&["qp", "frobnicate"])).is_err());
        assert!(cmd_qp(&args(&["qp", "solve"])).is_err());
        assert!(cmd_qp(&args(&["qp", "solve", "a.qps", "b.qps"])).is_err());
        assert!(qp_settings(&args(&["qp", "solve", "a.qps", "--backend", "gpu"])).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let err = |v: &[&str]| check_keys(&args(v)).expect_err("an unknown option");
        let e = err(&["qp", "solve", "tests/qps/hs35.qps", "--strategy", "basic"]);
        assert!(e.contains("--strategy") && e.contains("`qp`"), "{e}");
        let e = err(&["qp", "suite", "tests/qps", "--backnd", "cg"]);
        assert!(e.contains("--backnd"), "{e}");
        let e = err(&["flow", "--profile", "tiny", "--grdi", "5"]);
        assert!(e.contains("--grdi"), "{e}");
        // `flow` always runs the QCP, so it takes no objective.
        assert!(
            err(&["flow", "--profile", "tiny", "--objective", "leakage"]).contains("--objective")
        );
        // Options belong to their verb.
        let e = err(&["qor", "ingest", "run.json", "--window", "3"]);
        assert!(e.contains("--window") && e.contains("`qor` ingest"), "{e}");
        assert!(err(&["prof", "report", "run.json", "--md", "x.md"]).contains("--md"));
        assert!(err(&["obs", "ls", "--profile", "tiny"]).contains("--profile"));
    }

    #[test]
    fn every_documented_option_is_accepted() {
        let ok = |v: &[&str]| {
            check_keys(&args(v)).unwrap_or_else(|e| panic!("{v:?}: {e}"));
        };
        ok(&[
            "qp",
            "suite",
            "tests/qps",
            "--backend",
            "cg",
            "--report",
            "r.json",
        ]);
        ok(&[
            "qp",
            "solve",
            "a.qps",
            "--trace-json",
            "t.jsonl",
            "--verbose",
            "--trace",
        ]);
        ok(&[
            "generate",
            "--profile",
            "tiny",
            "--scale",
            "0.5",
            "--verilog",
            "o.v",
            "--def",
            "o.def",
            "--lib",
            "o.lib",
        ]);
        ok(&[
            "analyze",
            "--verilog-in",
            "d.v",
            "--def-in",
            "d.def",
            "--tech",
            "90",
            "--dosemap",
            "m.csv",
            "--sdf",
            "o.sdf",
        ]);
        ok(&[
            "optimize",
            "--profile",
            "tiny",
            "--objective",
            "timing",
            "--xi-uw",
            "0",
            "--grid",
            "5",
            "--layers",
            "both",
            "--prune",
            "--hold-margin-ns",
            "0.01",
            "--dosemap-out",
            "m.csv",
        ]);
        ok(&[
            "flow",
            "--profile",
            "tiny",
            "--grid",
            "5",
            "--top-k",
            "200",
            "--layers",
            "poly",
            "--prune",
            "--hold-margin-ns",
            "0",
            "--snapshot",
            "s.json",
            "--snapshot-ms",
            "100",
        ]);
        ok(&["watch", "s.json", "--interval-ms", "50", "--once"]);
        ok(&[
            "qor",
            "ingest",
            "r.json",
            "--history",
            "h.jsonl",
            "--git-sha",
            "abc",
            "--ts",
            "1",
        ]);
        ok(&[
            "qor",
            "diff",
            "r",
            "b",
            "--window",
            "9",
            "--k-mad",
            "2",
            "--min-rel",
            "0.1",
            "--time-min-rel",
            "0.4",
            "--md",
            "o.md",
            "--informational",
        ]);
        ok(&[
            "qor",
            "report",
            "--history",
            "h",
            "--manifest",
            "m",
            "--bench-history",
            "b",
            "--snapshot",
            "s",
            "--out",
            "o.html",
            "--md",
            "o.md",
        ]);
        ok(&["prof", "report", "r.json", "--flame", "f.svg"]);
        ok(&[
            "prof",
            "diff",
            "r",
            "b",
            "--window",
            "7",
            "--k-mad",
            "4",
            "--time-min-rel",
            "0.5",
            "--min-abs-us",
            "100",
            "--md",
            "o.md",
            "--informational",
        ]);
        // An unknown subcommand or verb is the command's own error.
        ok(&["frobnicate", "--anything"]);
        ok(&["qor", "frobnicate", "--anything"]);
    }

    #[test]
    fn qp_settings_map_options() {
        let a = args(&["qp", "solve", "x.qps", "--backend", "direct"]);
        let st = qp_settings(&a).expect("settings");
        assert!(matches!(st.backend, dme_qp::NewtonBackend::Direct));
        // Default: the Auto backend.
        let st = qp_settings(&args(&["qp", "suite"])).expect("settings");
        assert!(matches!(st.backend, dme_qp::NewtonBackend::Auto));
    }

    #[test]
    fn qp_solve_and_suite_run_the_bundled_fixtures() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qps");
        let a = args(&[
            "qp",
            "solve",
            &format!("{root}/hs35.qps"),
            "--backend",
            "direct",
        ]);
        qp_solve(&a).expect("hs35 solves");
        let a = args(&["qp", "suite", root]);
        qp_suite(&a).expect("every fixture converges");
    }

    #[test]
    fn profiles_resolve() {
        for p in ["aes65", "jpeg65", "aes90", "jpeg90", "small", "tiny"] {
            assert!(profile_by_name(p).is_some(), "{p}");
        }
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn config_builder_maps_options() {
        let a = args(&[
            "optimize",
            "--profile",
            "tiny",
            "--objective",
            "timing",
            "--xi-uw",
            "3.5",
            "--layers",
            "both",
            "--grid",
            "7.5",
            "--prune",
        ]);
        let cfg = dmopt_config(&a).expect("config");
        assert_eq!(cfg.grid_g_um, 7.5);
        assert!(cfg.prune);
        assert_eq!(cfg.layers, Layers::PolyAndActive);
        assert!(matches!(cfg.objective, Objective::MinTiming { xi_uw } if xi_uw == 3.5));
    }

    #[test]
    fn end_to_end_tiny_optimize() {
        let a = args(&["optimize", "--profile", "tiny"]);
        cmd_optimize(&a).expect("optimize runs");
    }

    #[test]
    fn a_verilog_loop_is_reported_not_timed() {
        let path = std::env::temp_dir().join(format!("dmeopt_loop_{}.v", std::process::id()));
        let text = "module m (a);\n input a;\n wire x, y;\n NAND2X1 u0 (x, a, y);\n \
                    INVX1 u1 (y, x);\nendmodule\n";
        std::fs::write(&path, text).expect("write");
        let vpath = path.to_str().expect("utf-8 path");
        let err = load_bench(&args(&[
            "analyze",
            "--verilog-in",
            vpath,
            "--def-in",
            "x.def",
        ]))
        .err()
        .expect("a loop is an error");
        std::fs::remove_file(&path).expect("remove");
        assert!(err.contains("combinational cycle"), "{err}");
    }
}
