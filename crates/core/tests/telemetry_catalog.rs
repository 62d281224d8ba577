//! `dme_obs::catalog::METRICS` is the one list of what the flow emits:
//! every span path, counter, histogram and record kind of a traced
//! QCP + dosePl flow must be one of its rows. Debug builds also emit the
//! golden cross-check spans, so running this test in both builds covers
//! both sets.
//!
//! Lives in its own test binary: the `dme_obs` registry is
//! process-global, and another test's telemetry would land in it.

use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::{gen, profiles};
use dme_obs::catalog::{MetricKind, METRICS};
use dme_obs::json::{parse, Value};
use dmeopt::flow::{run, FlowConfig};
use dmeopt::{DmoptConfig, DoseplConfig, Objective, OptContext};

#[test]
fn every_metric_a_traced_flow_emits_is_a_catalog_row() {
    let lib = Library::standard(Technology::n65());
    let design = gen::generate(&profiles::scaling(300, 10), &lib);
    let placement = dme_placement::place(&design, &lib);
    let ctx = OptContext::new(&lib, &design, &placement);
    let cfg = FlowConfig {
        dmopt: DmoptConfig {
            objective: Objective::MinTiming { xi_uw: 0.0 },
            grid_g_um: 5.0,
            ..DmoptConfig::default()
        },
        dosepl: Some(DoseplConfig::default()),
    };

    dme_obs::set_enabled(true);
    dme_obs::reset();
    let r = run(&ctx, &cfg).expect("flow");
    let manifest = parse(&dme_obs::manifest_json()).expect("manifest parses");
    dme_obs::set_enabled(false);
    let dp = r.dosepl.expect("dosePl ran");
    assert!(
        dp.swaps_accepted > 0 && dp.filter_tallies.rejected_timing > 0,
        "the fixture must both accept and reject swaps on timing"
    );

    let mut missing = Vec::new();
    for (section, kind) in [
        ("spans", MetricKind::Span),
        ("counters", MetricKind::Counter),
        ("histograms", MetricKind::Histogram),
        ("records", MetricKind::Record),
    ] {
        let emitted = manifest
            .get(section)
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("manifest lacks {section}"));
        assert!(!emitted.is_empty(), "no {section} emitted");
        for name in emitted.keys() {
            if !METRICS.iter().any(|m| m.kind == kind && m.name == name) {
                missing.push(format!("{} {name}", kind.name()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "emitted but not in dme_obs::catalog::METRICS:\n{}",
        missing.join("\n")
    );
}
