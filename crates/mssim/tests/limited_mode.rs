//! Limited-mode equivalence and mutation suite.
//!
//! `Session::with_device_limiting(true)` relinearizes MOSFETs at
//! slightly stale operating points (device latency) and clamps trial
//! voltages (`fetlim`/`limvds`), so its waveforms agree with the exact
//! reference only to solver tolerance — the bench harness gates the
//! shipped fixtures at 1e-4. This suite pins that contract on a
//! hand-rolled transistor fixture, property-tests it across the MOS
//! parameter space, and — the mutation half — proves the gate has teeth:
//! a broken latency check (bands wide enough that devices never
//! re-evaluate inside their operating region) must push the deviation
//! *past* the tolerance, and a disabled latency check (zero bands) must
//! land far under it. The transient default bands hold the contract on
//! short runs only; a long settle (thousands of steps towards a rail)
//! holds it at `LimitOpts::equilibrium()`, the bands the adder testbench
//! measures with.

use mssim::elements::MosParams;
use mssim::prelude::*;
use mssim::session::LimitOpts;
use proptest::prelude::*;

/// The shipped limited-mode equivalence budget (mirrors
/// `EQUIVALENCE_TOL_LIMITED` in the bench harness).
const LIMITED_TOL: f64 = 1e-4;

/// Two-stage CMOS inverter chain driving an RC load, PWM input: every
/// device crosses regions each period, so latency anchors are exercised
/// in cutoff, triode and saturation.
fn inverter_chain(wn: f64, wp: f64, duty: f64, cload: f64) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    ckt.vsource("VIN", inp, Circuit::GND, Waveform::pwm(2.5, 500e6, duty));
    ckt.mosfet("MP1", mid, inp, vdd, MosParams::pmos(865e-9, wp));
    ckt.mosfet("MN1", mid, inp, Circuit::GND, MosParams::nmos(320e-9, wn));
    ckt.capacitor("CM", mid, Circuit::GND, 0.4e-12);
    ckt.mosfet("MP2", out, mid, vdd, MosParams::pmos(865e-9, wp));
    ckt.mosfet("MN2", out, mid, Circuit::GND, MosParams::nmos(320e-9, wn));
    ckt.capacitor("CL", out, Circuit::GND, cload);
    (ckt, vec![inp, mid, out])
}

/// Largest probe deviation between a limited run under `opts` and the
/// exact reference assembler.
fn limited_divergence(
    ckt: &Circuit,
    probes: &[NodeId],
    dt: f64,
    steps: usize,
    opts: LimitOpts,
) -> f64 {
    let tran = |reference: bool| {
        Transient::new(dt, steps as f64 * dt)
            .use_initial_conditions()
            .with_reference_solver(reference)
    };
    let limited = Session::new(ckt)
        .with_limit_opts(opts)
        .transient(&tran(false))
        .expect("limited transient converges");
    let reference = Session::new(ckt)
        .transient(&tran(true))
        .expect("reference transient converges");
    let mut worst = 0.0f64;
    for &node in probes {
        for (a, b) in limited
            .voltage(node)
            .values()
            .iter()
            .zip(reference.voltage(node).values())
        {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

#[test]
fn limited_mode_matches_reference_within_tolerance() {
    let (ckt, probes) = inverter_chain(1.2e-6, 1.2e-6, 0.7, 1e-12);
    let d = limited_divergence(&ckt, &probes, 10e-12, 600, LimitOpts::default());
    assert!(
        d <= LIMITED_TOL,
        "shipped latency bands deviate by {d:e} (> {LIMITED_TOL:e})"
    );
}

/// Mutation: a latency check broken *open* — bands so wide that a device
/// re-evaluates only when its operating region flips — must be caught by
/// the very equivalence gate the shipped bands are certified against. If
/// this test ever starts passing the 1e-4 gate, the gate has lost its
/// power to detect frozen-device bugs and must be tightened.
#[test]
fn broken_latency_check_is_caught_by_the_equivalence_gate() {
    let (ckt, probes) = inverter_chain(1.2e-6, 1.2e-6, 0.7, 1e-12);
    let broken = LimitOpts {
        latency_reltol: 1e3,
        latency_abstol: 1e3,
    };
    let d = limited_divergence(&ckt, &probes, 10e-12, 600, broken);
    assert!(
        d > LIMITED_TOL,
        "a wide-open latency check deviated by only {d:e} — the equivalence \
         gate can no longer detect a broken latency test"
    );
}

/// Mutation complement: latency disabled (zero bands) means every
/// iteration evaluates every device at its true trial voltages, so the
/// limited path collapses to the exact square-law model and the
/// deviation must sit far below the gate — within an order of magnitude
/// of solver tolerance, not the latency budget.
#[test]
fn zero_latency_bands_track_the_reference_closely() {
    let (ckt, probes) = inverter_chain(1.2e-6, 1.2e-6, 0.7, 1e-12);
    let off = LimitOpts {
        latency_reltol: 0.0,
        latency_abstol: 0.0,
    };
    let d = limited_divergence(&ckt, &probes, 10e-12, 600, off);
    assert!(
        d <= LIMITED_TOL / 10.0,
        "zero-band latency should be near-exact, deviated by {d:e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Limiting + latency never move the converged solution beyond the
    /// equivalence budget, across device widths, duty cycles and loads.
    #[test]
    fn limiting_never_changes_converged_solution_beyond_tolerance(
        wn in 0.4e-6..2.4e-6f64,
        wp in 0.4e-6..2.4e-6f64,
        duty in 0.1..0.9f64,
        cload in 0.2e-12..2e-12f64,
    ) {
        let (ckt, probes) = inverter_chain(wn, wp, duty, cload);
        let d = limited_divergence(&ckt, &probes, 10e-12, 240, LimitOpts::default());
        prop_assert!(
            d <= LIMITED_TOL,
            "wn={wn:e} wp={wp:e} duty={duty} cload={cload:e}: deviation {d:e}"
        );
    }
}

/// Two-stage buffer charging an RC load through a series resistor — one
/// PWM adder cell into its output filter. With the input held high the
/// output settles towards the rail over thousands of steps, the long
/// settle the adder testbench measures.
fn rc_loaded_cell(vdd_v: f64, duty: f64) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let mid = ckt.node("mid");
    let cell = ckt.node("cell");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(vdd_v));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::pwm_with_edges(vdd_v, 500e6, duty, 0.05),
    );
    ckt.mosfet("MP1", mid, inp, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet(
        "MN1",
        mid,
        inp,
        Circuit::GND,
        MosParams::nmos(320e-9, 1.2e-6),
    );
    ckt.capacitor("CM", mid, Circuit::GND, 2e-15);
    ckt.mosfet("MP2", cell, mid, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet(
        "MN2",
        cell,
        mid,
        Circuit::GND,
        MosParams::nmos(320e-9, 1.2e-6),
    );
    ckt.capacitor("CC", cell, Circuit::GND, 2e-15);
    ckt.resistor("ROUT", cell, out, 100e3);
    ckt.capacitor("COUT", out, Circuit::GND, 1e-12);
    (ckt, vec![mid, cell, out])
}

/// Long settle at a reduced rail: 5000 steps (one output time constant)
/// at 1.0 V with the input stuck high. The equilibrium bands hold the
/// 1e-4 contract here; the transient defaults do not — their frozen
/// linearisation error accumulates over the settle instead of damping
/// (measured ~6.3 mV), which is why long-settled averages run at
/// `LimitOpts::equilibrium()`.
#[test]
fn long_settle_holds_the_equilibrium_bands_to_tolerance() {
    let (ckt, probes) = rc_loaded_cell(1.0, 1.0);
    let d = limited_divergence(&ckt, &probes, 20e-12, 5000, LimitOpts::equilibrium());
    assert!(
        d <= LIMITED_TOL,
        "equilibrium bands deviate by {d:e} (> {LIMITED_TOL:e}) over a long settle"
    );
    let drift = limited_divergence(&ckt, &probes, 20e-12, 5000, LimitOpts::default());
    assert!(
        drift > LIMITED_TOL,
        "transient default bands deviated by only {drift:e} over the long settle — \
         this fixture no longer separates the two band sets"
    );
}
