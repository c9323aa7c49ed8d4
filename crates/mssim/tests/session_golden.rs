//! Golden results: the [`Session`] analyses are pinned to `f64` bit
//! patterns recorded before the AC/noise solves moved onto the shared LU
//! kernel and before the transient loop was split into stepper, rescue
//! path and recorder, the deprecated `Transient::run` must produce
//! **bitwise identical** results to the `Session` API it delegates to,
//! and the telemetry counters a session derives from its event stream
//! must agree exactly with the solver's own statistics.

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

/// PWM source into a series RLC with a resistive load: exercises both
/// companion kinds and, without UIC, the DC-derived initial state.
fn pwm_rlc() -> (Circuit, NodeId, ElementId) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    ckt.vsource("V1", vin, Circuit::GND, Waveform::pwm(VDD, FREQ, 0.7));
    ckt.resistor("R1", vin, mid, 50.0);
    let l1 = ckt.inductor("L1", mid, out, 10e-9);
    ckt.capacitor("C1", out, Circuit::GND, 1e-12);
    ckt.resistor("RL", out, Circuit::GND, 1e3);
    (ckt, out, l1)
}

#[test]
fn session_fixed_step_transient_is_bitwise_pinned() {
    let (ckt, out, l1) = pwm_rlc();
    // 202 steps: not a multiple of the decimation, so the final point is
    // recorded off the grid of every fourth step.
    let tran = Transient::new(10e-12, 202.0 * 10e-12)
        .with_method(IntegrationMethod::Trapezoidal)
        .record_every(4);
    let result = Session::new(&ckt)
        .transient(&tran)
        .expect("fixed-step transient converges");
    assert_bits(
        "time",
        result.time(),
        52,
        &[
            (0, 0),
            (1, 0x3dc5fd7fe1796495),
            (13, 0x3e01ddf7e732a1b9),
            (39, 0x3e1accf3dacbf296),
            (50, 0x3e212e0be826d694),
            (51, 0x3e215a06e7e9c95e),
        ],
    );
    assert_bits(
        "v(out)",
        result.voltage(out).values(),
        52,
        &[
            (1, 0x3fc10b9cd44a8950),
            (13, 0x4003064427fd9754),
            (26, 0x4003e21ea98dbfae),
            (39, 0x3fe4508de022f2b2),
            (50, 0x3fd27bb03de55f07),
            (51, 0x3fd5d7b3d39d1832),
        ],
    );
    assert_bits(
        "i(L1)",
        result.branch_current(l1).unwrap().values(),
        52,
        &[
            (1, 0x3f7dbe63eeddbdc6),
            (13, 0xbf6757c9ec193e3f),
            (26, 0x3f5cca7fa8bbaf95),
            (39, 0xbf8f8fa45065b359),
            (51, 0x3f707b30d277c01a),
        ],
    );
}

#[test]
fn session_adaptive_transient_is_bitwise_pinned() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("V1", vin, Circuit::GND, Waveform::pwm(2.0, 1e6, 0.3));
    ckt.resistor("R1", vin, out, 10e3);
    ckt.capacitor("C1", out, Circuit::GND, 1e-9);
    let tran = Transient::new(0.5e-6, 20e-6)
        .use_initial_conditions()
        .adaptive(AdaptiveConfig::default());
    let mut rec = MemoryRecorder::new();
    let result = Session::new(&ckt)
        .observe(&mut rec)
        .transient(&tran)
        .expect("adaptive transient converges");
    assert_bits(
        "time",
        result.time(),
        1783,
        &[
            (1, 0x3e35798ee2308c3a),
            (445, 0x3ed4fa107a4ba093),
            (891, 0x3ee4f8d7431d6110),
            (1337, 0x3eef75166cfedbe9),
            (1781, 0x3ef4c1b3bbd845b8),
            (1782, 0x3ef4f8b588e368f0),
        ],
    );
    assert_bits(
        "v(out)",
        result.voltage(out).values(),
        1783,
        &[
            (1, 0x3f40603538acf832),
            (445, 0x3fcd334abe4567e1),
            (891, 0x3fd772589bde689a),
            (1337, 0x3fdcd001f3392b89),
            (1781, 0x3fe05d8cc0afc656),
            (1782, 0x3fe00891c6e86cfe),
        ],
    );
    assert_eq!(rec.counter_value("tran.steps_accepted"), 1782);
    assert_eq!(rec.counter_value("tran.steps_rejected"), 712);
    assert_eq!(rec.counter_value("tran.edge_snaps"), 119);
}

/// CMOS inverter of `tests/rescue_ladder.rs`: a starved Newton budget
/// fails it at the switching edges.
fn rescue_inverter() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    ckt.vsource("VIN", inp, Circuit::GND, Waveform::pwm(VDD, 100e6, 0.5));
    ckt.mosfet("MP", out, inp, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet(
        "MN",
        out,
        inp,
        Circuit::GND,
        MosParams::nmos(320e-9, 1.2e-6),
    );
    ckt.capacitor("CL", out, Circuit::GND, 1e-13);
    (ckt, out)
}

/// Pinned outcome of one rescued run.
struct RescuePin {
    samples: usize,
    /// Every [`Event::RescueAttempt`] as (stage, `dt` bits, `param` bits,
    /// converged), in emission order.
    attempts: &'static [(&'static str, u64, u64, bool)],
    /// `(attempts, recovered_by)` of every incident.
    incidents: &'static [(usize, Option<&'static str>)],
    /// Final sample `(time bits, v(out) bits)`.
    last: (u64, u64),
    /// Time bits of the `Partial` error; `None` for a complete run.
    partial_at: Option<u64>,
    rejected: u64,
}

/// Current-driven diode: a starved budget fails its turn-on edges, which
/// only the gmin rungs recover.
fn rescue_diode() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.isource("I1", Circuit::GND, a, Waveform::pwm(1e-3, 100e6, 0.5));
    ckt.diode("D1", a, Circuit::GND, 1e-14, 1.0);
    ckt.capacitor("C1", a, Circuit::GND, 1e-12);
    (ckt, a)
}

fn assert_rescue_pinned(
    what: &str,
    (ckt, out): (Circuit, NodeId),
    tran: &Transient,
    policy: &RescuePolicy,
    pin: &RescuePin,
) {
    let mut rec = MemoryRecorder::new();
    let outcome = Session::new(&ckt)
        .observe(&mut rec)
        .transient_rescued(tran, policy)
        .expect("rescue never surfaces NonConvergence");
    let attempts: Vec<(&str, u64, u64, bool)> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::RescueAttempt {
                stage,
                dt,
                param,
                converged,
                ..
            } => Some((*stage, dt.to_bits(), param.to_bits(), *converged)),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, pin.attempts, "{what}: rescue attempts");
    let incidents: Vec<(usize, Option<&str>)> = outcome
        .rescues()
        .incidents
        .iter()
        .map(|i| (i.attempts, i.recovered_by))
        .collect();
    assert_eq!(incidents, pin.incidents, "{what}: incidents");
    let result = outcome.result();
    assert_eq!(result.samples(), pin.samples, "{what}: samples");
    let last = (
        result.time()[pin.samples - 1].to_bits(),
        result.voltage(out).values()[pin.samples - 1].to_bits(),
    );
    assert_eq!(last, pin.last, "{what}: final sample");
    let partial_at = match &outcome {
        TransientOutcome::Complete { .. } => None,
        TransientOutcome::Partial { error, .. } => match error {
            Error::NonConvergence { time, stage, .. } => {
                assert_eq!(*stage, "rescue", "{what}");
                Some(time.to_bits())
            }
            other => panic!("{what}: partial error must be NonConvergence, got {other}"),
        },
    };
    assert_eq!(partial_at, pin.partial_at, "{what}: partial error time");
    assert_eq!(
        rec.counter_value("tran.steps_rejected"),
        pin.rejected,
        "{what}: rejected steps"
    );
}

#[test]
fn session_rescued_transient_is_bitwise_pinned() {
    // rescue_ladder's tight budget: every edge recovered by dt_cut.
    assert_rescue_pinned(
        "fixed, recovered",
        rescue_inverter(),
        &Transient::new(1e-10, 20e-9).with_max_iterations(4),
        &RescuePolicy::default(),
        &RescuePin {
            samples: 201,
            attempts: &[
                ("dt_cut", 0x3dcb7cdfd9d7bdbb, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7bdbb, 0, true),
                ("dt_cut", 0x3dcb7cdfd9d7bdc0, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7bdc0, 0, true),
                ("dt_cut", 0x3dcb7cdfd9d7be00, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7be00, 0, true),
                ("dt_cut", 0x3dcb7cdfd9d7bd00, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7bd00, 0, true),
            ],
            incidents: &[(2, Some("dt_cut")); 4],
            last: (0x3e55798ee2308c3a, 0x4003dd6a65690dd7),
            partial_at: None,
            rejected: 0,
        },
    );
    // rescue_ladder's starved budget: the first step exhausts the ladder.
    assert_rescue_pinned(
        "fixed, partial",
        rescue_inverter(),
        &Transient::new(1e-10, 100e-9)
            .use_initial_conditions()
            .with_max_iterations(1),
        &RescuePolicy::default(),
        &RescuePin {
            samples: 1,
            attempts: &[
                ("dt_cut", 0x3dcb7cdfd9d7bdbb, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7bdbb, 0, false),
                ("dt_cut", 0x3dab7cdfd9d7bdbb, 0, false),
                ("dt_cut", 0x3d9b7cdfd9d7bdbb, 0, false),
                ("gmin", 0x3ddb7cdfd9d7bdbb, 0x3f50624dd2f1a9fc, false),
            ],
            incidents: &[(5, None)],
            last: (0, 0),
            partial_at: Some(0x3ddb7cdfd9d7bdbb),
            rejected: 0,
        },
    );
    // No step cuts: the be rung runs first, and the run stops at step 51,
    // which decimation would have skipped, so the last accepted point
    // (step 50) is put on record.
    assert_rescue_pinned(
        "fixed, decimated partial",
        rescue_inverter(),
        &Transient::new(1e-10, 20e-9)
            .use_initial_conditions()
            .with_max_iterations(6)
            .record_every(4),
        &RescuePolicy {
            max_step_cuts: 0,
            ..RescuePolicy::default()
        },
        &RescuePin {
            samples: 14,
            attempts: &[
                ("be", 0x3ddb7cdfd9d7bdc0, 0, false),
                ("gmin", 0x3ddb7cdfd9d7bdc0, 0x3f50624dd2f1a9fc, false),
            ],
            incidents: &[(2, None)],
            last: (0x3e35798ee2308c3a, 0x3e5872c12a51ca3a),
            partial_at: Some(0x3e35e7826197eb31),
            rejected: 0,
        },
    );
    // No step cuts on a diode: both turn-on edges are recovered by the
    // gmin rungs, each warm-starting the next from rewound histories.
    assert_rescue_pinned(
        "fixed, gmin recovered",
        rescue_diode(),
        &Transient::new(1e-10, 20e-9)
            .use_initial_conditions()
            .with_max_iterations(4),
        &RescuePolicy {
            max_step_cuts: 0,
            ..RescuePolicy::default()
        },
        &RescuePin {
            samples: 201,
            attempts: &[
                ("be", 0x3ddb7cdfd9d7bdc0, 0, false),
                ("gmin", 0x3ddb7cdfd9d7bdc0, 0x3f50624dd2f1a9fc, true),
                ("gmin", 0x3ddb7cdfd9d7bdc0, 0x3eb0c6f7a0b5ed8d, true),
                ("gmin", 0x3ddb7cdfd9d7bdc0, 0x3e112e0be826d695, true),
                ("gmin", 0x3ddb7cdfd9d7bdc0, 0, true),
                ("be", 0x3ddb7cdfd9d7bd80, 0, false),
                ("gmin", 0x3ddb7cdfd9d7bd80, 0x3f50624dd2f1a9fc, true),
                ("gmin", 0x3ddb7cdfd9d7bd80, 0x3eb0c6f7a0b5ed8d, true),
                ("gmin", 0x3ddb7cdfd9d7bd80, 0x3e112e0be826d695, true),
                ("gmin", 0x3ddb7cdfd9d7bd80, 0, true),
            ],
            incidents: &[(5, Some("gmin")); 2],
            last: (0x3e55798ee2308c3a, 0x3fe09977025957ff),
            partial_at: None,
            rejected: 0,
        },
    );
    // Adaptive stepping with rejections between the rescued steps.
    assert_rescue_pinned(
        "adaptive, recovered",
        rescue_inverter(),
        &Transient::new(1e-9, 30e-9)
            .with_max_iterations(4)
            .adaptive(AdaptiveConfig::default()),
        &RescuePolicy::default(),
        &RescuePin {
            samples: 611,
            attempts: &[
                ("dt_cut", 0x3dc6e2bcc802c6c0, 0, false),
                ("dt_cut", 0x3db6e2bcc802c6c0, 0, true),
                ("dt_cut", 0x3dcb7cdfd9d7bd80, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7bd80, 0, true),
                ("dt_cut", 0x3dc02ddc34d40e00, 0, true),
                ("dt_cut", 0x3db69e074a075e00, 0, true),
                ("dt_cut", 0x3dcb7cdfd9d7be00, 0, false),
                ("dt_cut", 0x3dbb7cdfd9d7be00, 0, true),
            ],
            incidents: &[
                (2, Some("dt_cut")),
                (2, Some("dt_cut")),
                (1, Some("dt_cut")),
                (1, Some("dt_cut")),
                (2, Some("dt_cut")),
            ],
            last: (0x3e601b2b29a4692b, 0x4003dd767cbb85c2),
            partial_at: None,
            rejected: 74,
        },
    );
    // Adaptive stepping: two recoveries, then the be rung and gmin fail.
    assert_rescue_pinned(
        "adaptive, partial",
        rescue_inverter(),
        &Transient::new(1e-9, 30e-9)
            .with_max_iterations(3)
            .adaptive(AdaptiveConfig::default()),
        &RescuePolicy {
            max_step_cuts: 1,
            ..RescuePolicy::default()
        },
        &RescuePin {
            samples: 116,
            attempts: &[
                ("dt_cut", 0x3da8bd2fdda89129, 0, true),
                ("dt_cut", 0x3db28de3e63e6cde, 0, true),
                ("dt_cut", 0x3dc890018867e100, 0, false),
                ("be", 0x3dd890018867e100, 0, false),
                ("be", 0x3dc890018867e100, 0, false),
                ("gmin", 0x3dd890018867e100, 0x3f50624dd2f1a9fc, false),
            ],
            incidents: &[(1, Some("dt_cut")), (1, Some("dt_cut")), (4, None)],
            last: (0x3e35798ee2308c3a, 0x3f9b746787139ed4),
            partial_at: Some(0x3e35dbcee8522bbe),
            rejected: 9,
        },
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
