//! The one full late pass: `IncrementalSta::new` builds its state with the
//! level-parallel pass `analyze` runs, so a build on the pool equals the
//! same build under the serial switch, and both equal `analyze`'s
//! arrivals and MCT bit for bit — here on a 5000-cell design under a
//! dose-map-like assignment with thousands of distinct variants. Every
//! field of an `analyze` report on the pool equals the serial switch's
//! too.
//!
//! Lives in its own test binary: `dme_par::set_force_serial` is
//! process-global, and another test's parallel-dispatch assertions would
//! race with it. For the same reason the tests here serialize on one
//! mutex.

use dme_device::Technology;
use dme_liberty::Library;
use dme_netlist::{gen, profiles, Design};
use dme_placement::Placement;
use dme_sta::{analyze, GeometryAssignment, IncrementalSta};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A placed 5000-cell design with ΔL and ΔW varying smoothly over the
/// die, quantized to 0.25 nm as a snapped dose map would be.
fn mapped_design() -> (Library, Design, Placement, GeometryAssignment) {
    // A multi-thread pool even on a one-core host, so the parallel level
    // loops really run. Every test asks for it before the pool starts.
    std::env::set_var("DME_NUM_THREADS", "2");
    let lib = Library::standard(Technology::n65());
    let d = gen::generate(&profiles::scaling(5000, 3), &lib);
    let p = dme_placement::place(&d, &lib);
    let n = d.netlist.num_instances();
    let mut doses = GeometryAssignment::nominal(n);
    for i in 0..n {
        let (u, v) = (p.x_um[i] / p.die_w_um, p.y_um[i] / p.die_h_um);
        let dl = 8.0 * (3.0 * u).sin() * (2.0 * v).cos();
        let dw = 4.0 * (u - v);
        doses.dl_nm[i] = (dl * 4.0).round() / 4.0;
        doses.dw_nm[i] = (dw * 4.0).round() / 4.0;
    }
    (lib, d, p, doses)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}");
    }
}

#[test]
fn new_on_the_pool_equals_the_serial_build() {
    let _guard = serial();
    let (lib, d, p, doses) = mapped_design();
    if dme_par::parallel_enabled() {
        assert!(
            dme_par::effective_parallelism() > 1,
            "the pool must fan out"
        );
    }
    let mut pool = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
    dme_par::set_force_serial(true);
    let mut serial = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
    dme_par::set_force_serial(false);
    assert_bits_eq(pool.arrival_ns(), serial.arrival_ns(), "arrival");
    assert_bits_eq(
        pool.output_slew_ns(),
        serial.output_slew_ns(),
        "output slew",
    );
    assert_bits_eq(pool.wire_delay_ns(), serial.wire_delay_ns(), "wire delay");
    assert_eq!(pool.mct_ns().to_bits(), serial.mct_ns().to_bits(), "MCT");
    assert_eq!(pool.stats(), serial.stats());
    let n = d.netlist.num_instances() as u64;
    assert_eq!(pool.stats().retime_calls, 1);
    assert_eq!(pool.stats().gates_retimed, n);
    assert_eq!(pool.stats().nets_updated, d.netlist.num_nets() as u64);
    // The endpoint heaps agree too: same worst endpoints, same order.
    assert_eq!(
        pool.worst_endpoints_top_k(64).0,
        serial.worst_endpoints_top_k(64).0
    );
}

#[test]
fn analyze_on_the_pool_equals_the_serial_switch() {
    let _guard = serial();
    let (lib, d, p, doses) = mapped_design();
    let pool = analyze(&lib, &d.netlist, &p, &doses);
    dme_par::set_force_serial(true);
    let serial = analyze(&lib, &d.netlist, &p, &doses);
    dme_par::set_force_serial(false);
    for (a, b, what) in [
        (&pool.arrival_ns, &serial.arrival_ns, "arrival"),
        (&pool.required_ns, &serial.required_ns, "required"),
        (&pool.slack_ns, &serial.slack_ns, "slack"),
        (&pool.gate_delay_ns, &serial.gate_delay_ns, "gate delay"),
        (&pool.input_slew_ns, &serial.input_slew_ns, "input slew"),
        (&pool.output_slew_ns, &serial.output_slew_ns, "output slew"),
        (&pool.load_ff, &serial.load_ff, "load"),
        (&pool.wire_delay_ns, &serial.wire_delay_ns, "wire delay"),
        (
            &pool.arrival_min_ns,
            &serial.arrival_min_ns,
            "early arrival",
        ),
        (
            &pool.gate_delay_best_ns,
            &serial.gate_delay_best_ns,
            "best gate delay",
        ),
    ] {
        assert_bits_eq(a, b, what);
    }
    for (a, b, what) in [
        (pool.mct_ns, serial.mct_ns, "MCT"),
        (
            pool.worst_hold_slack_ns,
            serial.worst_hold_slack_ns,
            "hold slack",
        ),
        (pool.total_leakage_uw, serial.total_leakage_uw, "leakage"),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
    }
}

#[test]
fn new_matches_analyze_bitwise() {
    let _guard = serial();
    let (lib, d, p, doses) = mapped_design();
    let inc = IncrementalSta::new(&lib, &d.netlist, &p, &doses);
    let full = analyze(&lib, &d.netlist, &p, &doses);
    assert_bits_eq(inc.arrival_ns(), &full.arrival_ns, "arrival");
    assert_bits_eq(inc.output_slew_ns(), &full.output_slew_ns, "output slew");
    assert_bits_eq(inc.wire_delay_ns(), &full.wire_delay_ns, "wire delay");
    assert_eq!(inc.mct_ns().to_bits(), full.mct_ns.to_bits(), "MCT");
}
