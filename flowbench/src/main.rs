//! End-to-end benchmark of the DMopt + dosePl flow.
//!
//! ```text
//! flowbench --workload <qcp|dosepl_100k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload closed-loop, one flow at a time:
//!
//! 1. set-up (library, design, input dose map), repeated for a steady
//!    median;
//! 2. flows, cycling through the workload's suite of designs, until
//!    `--seconds` have passed and each design has had one; with
//!    `--trace 1` untraced and traced rounds alternate, so the trace
//!    overhead is measured too;
//! 3. with `--trace 1`, one more flow on a single thread, which must
//!    repeat the others exactly (`dme-par` promises thread-count
//!    independence). Untraced runs skip it to keep their length down.
//!
//! Every flow's outputs are checked (see `flow::check`), and every flow
//! must repeat the counts and QoR bits of its design's first flow. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`, which also
//! prints the stage ledger.

mod flow;
mod heap;
mod trace;

use flow::{Fingerprint, Inputs, Kind, Spec, StageTimes, Tally};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: heap::PeakHeap<dme_obs::TrackingAllocator<std::alloc::System>> =
    heap::PeakHeap(dme_obs::TrackingAllocator(std::alloc::System));

/// Set-up runs at least this many times ...
const MIN_SETUPS: usize = 3;
/// ... and until this much time has passed, s.
const SETUP_BUDGET_S: f64 = 2.0;
/// Worker-pool width cap, so that runs on wider hosts stay comparable.
const MAX_THREADS: usize = 2;

const USAGE: &str =
    "usage: flowbench --workload <qcp|dosepl_100k> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measures the program's defaults whatever the caller's environment:
/// drops every `DME_*` knob (solver backend, swap engine, tracing, ...)
/// and pins the worker-pool width. Returns that width.
fn fix_environment() -> usize {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DME_") || k == "RAYON_NUM_THREADS")
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    std::env::set_var("DME_NUM_THREADS", threads.to_string());
    threads
}

/// What one flow contributes to the metrics.
#[derive(Clone)]
struct Sample {
    /// Index of the flow's design in the suite.
    design: usize,
    flow_s: f64,
    /// The most heap the flow held at once beyond its inputs, MiB.
    peak_heap_mib: f64,
    stages: StageTimes,
    verify_s: f64,
    mct_ratio: f64,
    leakage_ratio: f64,
    qp_vars: usize,
    qp_rows: usize,
    kept_instances: usize,
    qp_probes: usize,
    ipm_iterations: usize,
    swaps_attempted: usize,
    swap_evals: usize,
    swaps_accepted: usize,
    rolled_back: usize,
    retime_gate_evals: u64,
    layers: Option<trace::Layers>,
}

/// Runs, checks and records one flow on suite design `design`; `None`
/// when the flow returned an error.
fn run_one(
    kind: Kind,
    inputs: &Inputs,
    design: usize,
    traced: bool,
    label: &str,
    tally: &mut Tally,
) -> Option<Sample> {
    let case = &inputs.cases[design];
    if traced {
        dme_obs::reset();
        dme_obs::set_enabled(true);
    }
    let base = heap::reset_peak();
    let result = flow::run_flow(kind, &inputs.lib, case);
    let peak_heap_mib = heap::peak().saturating_sub(base) as f64 / (1u64 << 20) as f64;
    let layers = traced.then(trace::read);
    dme_obs::set_enabled(false);
    let f = match result {
        Ok(f) => f,
        Err(e) => {
            let failure = format!("flow returned an error: {e}");
            tally.record(label, design, &[failure], None);
            return None;
        }
    };
    let (failures, verify_s) = flow::check(&inputs.lib, case, &f);
    let t = &f.stages;
    let dm = f.dmopt.as_ref();
    println!(
        "{label} flow on design {design}: flow_s {:.4} = place {:.4} + context {:.4} + optimize {:.4} \
         + dosepl {:.4}; probes {} ipm_iterations {} swaps_accepted {}",
        f.flow_s,
        t.place_s,
        t.context_s,
        t.optimize_s,
        t.dosepl_s,
        dm.map_or(0, |d| d.probes),
        dm.map_or(0, |d| d.iterations),
        f.dosepl.swaps_accepted
    );
    let cg_iterations = layers.map(|l| l.cg_iterations);
    tally.record(
        label,
        design,
        &failures,
        Some(Fingerprint::of(&f, cg_iterations)),
    );
    Some(Sample {
        design,
        flow_s: f.flow_s,
        peak_heap_mib,
        stages: f.stages,
        verify_s,
        mct_ratio: f.mct_ratio(),
        leakage_ratio: f.leakage_ratio(),
        qp_vars: dm.map_or(0, |d| d.num_vars),
        qp_rows: dm.map_or(0, |d| d.num_constraints),
        kept_instances: dm.map_or(0, |d| d.num_kept),
        qp_probes: dm.map_or(0, |d| d.probes),
        ipm_iterations: dm.map_or(0, |d| d.iterations),
        swaps_attempted: f.dosepl.swaps_attempted,
        swap_evals: f.dosepl.swap_evals,
        swaps_accepted: f.dosepl.swaps_accepted,
        rolled_back: f.dosepl.filter_tallies.rolled_back,
        retime_gate_evals: f.dosepl.incremental_gate_evals,
        layers,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(xs.iter().map(f).collect())
}

/// The mean over the suite's designs of each design's median of `f`, so
/// that every design weighs the same however many flows it got.
fn suite_mean(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let designs = samples.iter().map(|s| s.design + 1).max().unwrap_or(0);
    let per_design: Vec<f64> = (0..designs)
        .map(|d| median(samples.iter().filter(|s| s.design == d).map(&f).collect()))
        .filter(|v| !v.is_nan())
        .collect();
    if per_design.is_empty() {
        return f64::NAN;
    }
    per_design.iter().sum::<f64>() / per_design.len() as f64
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run: suite means of the traced
/// flows' medians (counts repeat exactly per design).
fn layer_metrics(
    traced: &[Sample],
    untraced: &[Sample],
    setup: &[flow::SetupTimes],
) -> Vec<Metric> {
    let m = |f: &dyn Fn(&Sample) -> f64| suite_mean(traced, f);
    let l = |f: &dyn Fn(&trace::Layers) -> f64| {
        suite_mean(traced, |s| s.layers.as_ref().map_or(f64::NAN, f))
    };
    let attempted = m(&|s| s.swaps_attempted as f64);
    vec![
        (
            "dme-liberty.library_s",
            median_of(setup, |t| t.library_s),
            "s",
        ),
        (
            "dme-netlist.generate_s",
            median_of(setup, |t| t.generate_s),
            "s",
        ),
        ("dme-placement.place_s", m(&|s| s.stages.place_s), "s"),
        ("core.context_s", m(&|s| s.stages.context_s), "s"),
        ("core.optimize_s", m(&|s| s.stages.optimize_s), "s"),
        ("core.dosepl_s", m(&|s| s.stages.dosepl_s), "s"),
        ("core.qp_vars", m(&|s| s.qp_vars as f64), "count"),
        ("core.qp_rows", m(&|s| s.qp_rows as f64), "count"),
        (
            "core.kept_instances",
            m(&|s| s.kept_instances as f64),
            "count",
        ),
        ("core.qp_probes", m(&|s| s.qp_probes as f64), "count"),
        (
            "dme-qp.ipm_iterations",
            m(&|s| s.ipm_iterations as f64),
            "count",
        ),
        ("dme-qp.symbolic_s", l(&|l| l.symbolic_s), "s"),
        (
            "dme-qp.symbolic_alloc_mb",
            l(&|l| l.symbolic_alloc_mib),
            "MiB",
        ),
        ("dme-qp.refactor_s", l(&|l| l.refactor_s), "s"),
        (
            "dme-qp.factorizations",
            l(&|l| l.factorizations as f64),
            "count",
        ),
        ("dme-qp.newton_solve_s", l(&|l| l.newton_solve_s), "s"),
        (
            "dme-qp.cg_iterations",
            l(&|l| l.cg_iterations as f64),
            "count",
        ),
        ("dme-qp.cg_solves", l(&|l| l.cg_solves as f64), "count"),
        (
            "dme-qp.cg_iters_p95",
            l(&|l| l.cg_iters_p95 as f64),
            "count",
        ),
        (
            "dme-qp.backend_direct",
            l(&|l| l.backend_direct as f64),
            "count",
        ),
        ("dme-qp.backend_cg", l(&|l| l.backend_cg as f64), "count"),
        (
            "core.dosepl.round_signoff_s",
            l(&|l| l.round_signoff_s),
            "s",
        ),
        ("core.dosepl.enumerate_s", l(&|l| l.enumerate_s), "s"),
        ("core.dosepl.swaps_attempted", attempted, "count"),
        (
            "core.dosepl.swap_evals",
            m(&|s| s.swap_evals as f64),
            "count",
        ),
        (
            "core.dosepl.swaps_accepted",
            m(&|s| s.swaps_accepted as f64),
            "count",
        ),
        (
            "core.dosepl.accept_ratio",
            m(&|s| s.swaps_accepted as f64) / attempted.max(1.0),
            "ratio",
        ),
        (
            "core.dosepl.rolled_back",
            m(&|s| s.rolled_back as f64),
            "count",
        ),
        (
            "dme-sta.analyze_calls",
            l(&|l| l.analyze_calls as f64),
            "count",
        ),
        (
            "dme-sta.gates_evaluated",
            l(&|l| l.gates_evaluated as f64),
            "count",
        ),
        (
            "dme-sta.retime_gate_evals",
            m(&|s| s.retime_gate_evals as f64),
            "count",
        ),
        ("dme-sta.verify_s", m(&|s| s.verify_s), "s"),
        (
            "trace_overhead",
            m(&|s| s.flow_s) / suite_mean(untraced, |s| s.flow_s),
            "ratio",
        ),
        (
            "ledger_coverage",
            m(&|s| {
                let t = &s.stages;
                (t.place_s + t.context_s + t.optimize_s + t.dosepl_s) / s.flow_s
            }),
            "ratio",
        ),
    ]
}

/// Prints each layer's share of the traced `flow_s`. The four top rows
/// are the public calls and cover the flow; the indented rows split the
/// two that have sub-phases, with the remainder shown as `(other)`.
fn print_ledger(workload: &str, metrics: &[Metric], flow_s: f64, untraced_flow_s: f64) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let row = |indent: &str, name: &str, secs: f64| {
        println!(
            "  {indent}{name:<34}{secs:>10.4} s {:>7.2}%",
            100.0 * secs / flow_s
        );
    };
    println!(
        "ledger {workload}: traced flow_s {flow_s:.4} s, untraced {untraced_flow_s:.4} s, trace_overhead {:.4}",
        get("trace_overhead")
    );
    let parts: [(&str, &[&str]); 4] = [
        ("dme-placement.place_s", &[]),
        ("core.context_s", &[]),
        (
            "core.optimize_s",
            &[
                "dme-qp.symbolic_s",
                "dme-qp.refactor_s",
                "dme-qp.newton_solve_s",
            ],
        ),
        (
            "core.dosepl_s",
            &["core.dosepl.round_signoff_s", "core.dosepl.enumerate_s"],
        ),
    ];
    let mut total = 0.0;
    for (name, children) in parts {
        let secs = get(name);
        total += secs;
        row("", name, secs);
        if !children.is_empty() && secs > 0.0 {
            let mut rest = secs;
            for child in children {
                rest -= get(child);
                row("  ", child, get(child));
            }
            row("  ", "(other)", rest);
        }
    }
    row("", "rows total", total);
}

/// Formats the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.seed) else {
        eprintln!(
            "flowbench: unknown workload {:?} (one of {:?})\n{USAGE}",
            args.workload,
            flow::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let threads = fix_environment();
    dme_obs::set_enabled(false);

    let setup_start = Instant::now();
    let mut setups = Vec::new();
    let inputs = loop {
        let (inputs, times) = flow::setup(&spec);
        setups.push(times);
        if setups.len() >= MIN_SETUPS && setup_start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break inputs;
        }
    };

    // Flows cycle through the suite design by design; traced runs
    // alternate untraced and traced rounds. The run ends at the first flow
    // past `--seconds` once every design has had each kind of flow.
    let designs = inputs.cases.len();
    let needed = designs * if args.trace { 2 } else { 1 };
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for flows in 0.. {
        let (round, design) = (flows / designs, flows % designs);
        let trace_round = args.trace && round % 2 == 1;
        let (label, samples) = if trace_round {
            ("traced", &mut traced)
        } else {
            ("untraced", &mut untraced)
        };
        samples.extend(run_one(
            spec.kind,
            &inputs,
            design,
            trace_round,
            label,
            &mut tally,
        ));
        if flows + 1 >= needed && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if args.trace {
        dme_par::set_force_serial(true);
        // The last design of a suite is its largest (a CG one for `qcp`).
        run_one(
            spec.kind,
            &inputs,
            designs - 1,
            true,
            "single-thread",
            &mut tally,
        );
        dme_par::set_force_serial(false);
    }

    let flow_s = suite_mean(&untraced, |s| s.flow_s);
    println!(
        "flowbench {} seed={} designs={designs} threads={threads} untraced_flows={} \
         traced_flows={} failed={}/{} failed_flow_frac={}",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        tally.failed,
        tally.attempted,
        tally.failed_flow_frac()
    );
    let metrics: Vec<Metric> = if args.trace {
        let m = layer_metrics(&traced, &untraced, &setups);
        print_ledger(
            &args.workload,
            &m,
            suite_mean(&traced, |s| s.flow_s),
            flow_s,
        );
        // A suite that mixes design sizes also gets one ledger per size:
        // the sizes exercise different solver backends.
        let cells = |s: &Sample| spec.profiles[s.design].target_cells;
        let mut sizes: Vec<usize> = traced.iter().map(cells).collect();
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.len() > 1 {
            for size in sizes {
                let pick = |v: &[Sample]| -> Vec<Sample> {
                    v.iter().filter(|s| cells(s) == size).cloned().collect()
                };
                let (t, u) = (pick(&traced), pick(&untraced));
                print_ledger(
                    &format!("{} ({size}-cell designs)", args.workload),
                    &layer_metrics(&t, &u, &setups),
                    suite_mean(&t, |s| s.flow_s),
                    suite_mean(&u, |s| s.flow_s),
                );
            }
        }
        m
    } else {
        vec![
            ("flow_s", flow_s, "s"),
            (
                "setup_s",
                median_of(&setups, flow::SetupTimes::total_s),
                "s",
            ),
            (
                "peak_heap_mb",
                suite_mean(&untraced, |s| s.peak_heap_mib),
                "MiB",
            ),
            ("mct_ratio", suite_mean(&untraced, |s| s.mct_ratio), "ratio"),
            (
                "leakage_ratio",
                suite_mean(&untraced, |s| s.leakage_ratio),
                "ratio",
            ),
        ]
    };
    // A metric no flow produced is reported as 0 and the run as incorrect.
    let complete = metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!(
        "{}",
        result_json(complete && tally.failed == 0, &tally, &metrics)
    );
    ExitCode::SUCCESS
}
