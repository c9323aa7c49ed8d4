//! Golden results: the [`Session`] analyses are pinned to `f64` bit
//! patterns recorded before the AC/noise solves moved onto the shared LU
//! kernel, the deprecated `Transient::run` must produce **bitwise
//! identical** results to the `Session` API it delegates to, and the
//! telemetry counters a session derives from its event stream must agree
//! exactly with the solver's own statistics.

use mssim::elements::MosParams;
use mssim::prelude::*;
use mssim::telemetry::Event;

const VDD: f64 = 2.5;
const FREQ: f64 = 500e6;
const ROUT: f64 = 100e3;
const R_OFF: f64 = 1e12;

/// CMOS inverter driving its output capacitor from a PWM gate drive —
/// the paper's Fig. 2 transcoding cell (hand-rolled: a dev-dependency on
/// `pwmcell` would create a cycle).
fn mos_inverter() -> (Circuit, NodeId, ElementId) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    let vin = ckt.vsource("VIN", g, Circuit::GND, Waveform::pwm(VDD, FREQ, 0.7));
    ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    ckt.capacitor("COUT", out, Circuit::GND, 1e-12);
    (ckt, out, vin)
}

/// Switch-level 3×3 weighted adder, the topology of `pwmcell::SwitchAdder`
/// at the paper's technology numbers.
fn switch_adder_3x3() -> (Circuit, NodeId) {
    let duties = [0.70, 0.80, 0.90];
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    for (i, &d) in duties.iter().enumerate() {
        let input = ckt.node(&format!("in{i}"));
        ckt.vsource(
            &format!("VIN{i}"),
            input,
            Circuit::GND,
            Waveform::pwm(VDD, FREQ, d),
        );
        for b in 0..3u32 {
            let r_on = ROUT / (1u32 << b) as f64;
            ckt.switch(
                &format!("SU{i}b{b}"),
                vdd,
                out,
                input,
                Circuit::GND,
                VDD / 2.0,
                r_on,
                R_OFF,
            );
            ckt.switch(
                &format!("SD{i}b{b}"),
                out,
                Circuit::GND,
                Circuit::GND,
                input,
                -VDD / 2.0,
                r_on,
                R_OFF,
            );
        }
    }
    ckt.capacitor("COUT", out, Circuit::GND, 10e-12);
    (ckt, out)
}

/// Bit patterns of `values[i]` for each `(i, bits)` in `expect`.
fn assert_bits(what: &str, values: &[f64], len: usize, expect: &[(usize, u64)]) {
    assert_eq!(values.len(), len, "{what}: length");
    for &(i, bits) in expect {
        assert_eq!(
            values[i].to_bits(),
            bits,
            "{what}[{i}] = {:e} (pinned {:e})",
            values[i],
            f64::from_bits(bits)
        );
    }
}

#[test]
fn session_dc_operating_point_is_bitwise_pinned() {
    let (ckt, _, _) = mos_inverter();
    let op = Session::new(&ckt)
        .dc_operating_point()
        .expect("session op converges");
    let all: Vec<(usize, u64)> = [
        0x4004000000000000,
        0,
        0x4003fffffa52c12f,
        0xbd95fd7fdc000000,
        0,
    ]
    .into_iter()
    .enumerate()
    .collect();
    assert_bits("op", op.raw(), 5, &all);
}

#[test]
fn session_dc_sweep_is_bitwise_pinned() {
    let (ckt, out, vin) = mos_inverter();
    let points = mssim::sweep::linspace(0.0, VDD, 21);
    let sweep = Session::new(&ckt)
        .dc_sweep(vin, &points)
        .expect("session sweep converges");
    assert_eq!(sweep.values(), &points[..]);
    let vout: Vec<f64> = sweep.transfer(out).iter().map(|&(_, v)| v).collect();
    assert_bits(
        "transfer",
        &vout,
        21,
        &[
            (0, 0x4003fffffa52c12f),
            (10, 0x3ffe1ea6ef7d3841),
            (11, 0x3fd59a1ac6c5b356),
            (16, 0x3f4e02a514599178),
            (20, 0x3e588d515edee58b),
        ],
    );
}

#[test]
fn session_ac_is_bitwise_pinned() {
    let (ckt, out, vin) = mos_inverter();
    let freqs = mssim::sweep::logspace(1e3, 1e9, 31);
    let ac = Session::new(&ckt)
        .ac(vin, &freqs)
        .expect("session ac converges");
    assert_bits(
        "magnitude",
        &ac.magnitude(out),
        31,
        &[
            (0, 0x3e562733940d9645),
            (20, 0x3e538fd050f51cdd),
            (30, 0x3dfaabbdaf740bf9),
        ],
    );
    assert_bits(
        "phase_deg",
        &ac.phase_deg(out),
        31,
        &[
            (0, 0x40667fe70da2b183),
            (20, 0x4063004d95fc40f0),
            (30, 0x4056c4fbfa877999),
        ],
    );
}

#[test]
fn session_noise_is_bitwise_pinned() {
    let (ckt, out, _) = mos_inverter();
    let freqs = mssim::sweep::logspace(1e3, 1e9, 11);
    let noise = Session::new(&ckt)
        .noise(out, &freqs)
        .expect("session noise converges");
    assert_bits(
        "density",
        noise.density(),
        11,
        &[
            (0, 0x3e44c1f218dac8cc),
            (7, 0x3e3fc058a468ca3a),
            (10, 0x3de8fda118c2a286),
        ],
    );
}

#[test]
#[allow(deprecated)]
fn wrapper_transient_is_bitwise_identical_to_session() {
    let (ckt, out) = switch_adder_3x3();
    let tran = Transient::new(10e-12, 200.0 * 10e-12)
        .use_initial_conditions()
        .record_every(4);
    let legacy = tran.run(&ckt).expect("legacy transient converges");
    let session = Session::new(&ckt)
        .transient(&tran)
        .expect("session transient converges");
    assert_eq!(legacy.time(), session.time());
    assert_eq!(legacy.voltage(out).values(), session.voltage(out).values());
}

/// The acceptance-gated cross-check: Newton-iteration and cache-hit
/// counters derived from the event stream agree with the solver's own
/// `SolverStats`, surfaced on the end-of-analysis [`Event::SolverReport`].
#[test]
fn telemetry_counters_match_solver_stats_on_adder_transient() {
    let (ckt, _) = switch_adder_3x3();
    let tran = Transient::new(10e-12, 500.0 * 10e-12).record_every(16);
    let mut rec = MemoryRecorder::new();
    Session::new(&ckt)
        .observe(&mut rec)
        .transient(&tran)
        .expect("transient converges");
    let (mut iterations, mut bypasses, mut factorizations, mut back_substitutions) = (0, 0, 0, 0);
    let mut reports = 0usize;
    for e in rec.events() {
        if let Event::SolverReport { counters, .. } = e {
            iterations += counters.iterations;
            bypasses += counters.bypasses;
            factorizations += counters.factorizations;
            back_substitutions += counters.back_substitutions;
            reports += 1;
        }
    }
    // One report per analysis: the transient plus its nested DC op.
    assert_eq!(reports, 2);
    assert!(iterations > 0, "solver must have iterated");
    assert_eq!(rec.counter_value("newton.iterations"), iterations);
    assert_eq!(rec.counter_value("plan.bypasses"), bypasses);
    assert_eq!(rec.counter_value("plan.factorizations"), factorizations);
    assert_eq!(
        rec.counter_value("plan.back_substitutions"),
        back_substitutions
    );
    // And the step accounting is exact for a fixed-step run.
    assert_eq!(rec.counter_value("tran.steps_accepted"), 500);
}
