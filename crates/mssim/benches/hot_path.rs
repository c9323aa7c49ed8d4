//! Solver hot-path microbenchmarks: compiled stamp plan vs the naive
//! per-iteration reference assembler, on the circuit shapes the paper's
//! experiments run all day (PWM-driven CMOS inverter, switch-level
//! weighted adder, RC ladder).
//!
//! The circuits are hand-rolled here rather than borrowed from `pwmcell`
//! because a dev-dependency on `pwmcell` would create a cycle; they match
//! the topologies of `pwmcell::PwmNode` / `pwmcell::SwitchAdder` at the
//! paper's technology numbers (2.5 V, 500 MHz PWM, 100 kΩ / binary-scaled
//! output network).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mssim::elements::MosParams;
use mssim::prelude::*;

const VDD: f64 = 2.5;
const FREQ: f64 = 500e6;
const ROUT: f64 = 100e3;
const R_OFF: f64 = 1e12;

/// CMOS inverter driving its output capacitor from a PWM gate drive —
/// the paper's Fig. 2 transcoding cell.
fn mos_inverter() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    ckt.vsource("VIN", g, Circuit::GND, Waveform::pwm(VDD, FREQ, 0.7));
    ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    ckt.capacitor("COUT", out, Circuit::GND, 1e-12);
    ckt
}

/// Switch-level k×n weighted adder: per set weight bit, a complementary
/// pull-up/pull-down switch pair with binary-scaled on-resistance onto a
/// shared output capacitor (the topology of `pwmcell::SwitchAdder`).
fn switch_adder(inputs: usize, bits: u32, duties: &[f64]) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    for i in 0..inputs {
        let input = ckt.node(&format!("in{i}"));
        ckt.vsource(
            &format!("VIN{i}"),
            input,
            Circuit::GND,
            Waveform::pwm(VDD, FREQ, duties[i % duties.len()]),
        );
        for b in 0..bits {
            let scale = (1u32 << b) as f64;
            let r_on = ROUT / scale;
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
    ckt
}

/// Purely linear RC ladder driven by a PWM source: isolates the
/// factorization-reuse and solution-cache wins with no Newton iteration.
fn rc_ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.vsource("VIN", prev, Circuit::GND, Waveform::pwm(VDD, FREQ, 0.5));
    for s in 1..=stages {
        let node = ckt.node(&format!("n{s}"));
        ckt.resistor(&format!("R{s}"), prev, node, 1e3);
        ckt.capacitor(&format!("C{s}"), node, Circuit::GND, 1e-12);
        prev = node;
    }
    ckt
}

/// Times a fixed-step transient on both solver paths.
fn bench_transient(c: &mut Criterion, group_name: &str, ckt: &Circuit, dt: f64, steps: usize) {
    let tran = Transient::new(dt, steps as f64 * dt)
        .use_initial_conditions()
        .record_every(64);
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(steps as u64));
    group.sample_size(10);
    group.bench_function("plan", |b| {
        b.iter(|| Session::new(black_box(ckt)).transient(&tran).unwrap())
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            Session::new(black_box(ckt))
                .with_reference_solver(true)
                .transient(&tran)
                .unwrap()
        })
    });
    group.finish();
}

fn inverter_transient(c: &mut Criterion) {
    let ckt = mos_inverter();
    bench_transient(c, "tran_inverter", &ckt, 10e-12, 2000);
}

fn adder3x3_transient(c: &mut Criterion) {
    let ckt = switch_adder(3, 3, &[0.7, 0.8, 0.9]);
    bench_transient(c, "tran_adder3x3", &ckt, 10e-12, 2000);
}

fn rc_ladder_transient(c: &mut Criterion) {
    let ckt = rc_ladder(32);
    bench_transient(c, "tran_rc_ladder32", &ckt, 10e-12, 2000);
}

fn inverter_vtc_dcsweep(c: &mut Criterion) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
    ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    ckt.resistor("RL", out, Circuit::GND, 10e6);
    let points = mssim::sweep::linspace(0.0, VDD, 101);

    let mut group = c.benchmark_group("dcsweep_inverter_vtc");
    group.throughput(Throughput::Elements(points.len() as u64));
    group.sample_size(10);
    group.bench_function("plan", |b| {
        b.iter(|| Session::new(&ckt).dc_sweep(vg, black_box(&points)).unwrap())
    });
    group.bench_function("reference", |b| {
        b.iter(|| mssim::analysis::dc_sweep_reference(ckt.clone(), vg, black_box(&points)).unwrap())
    });
    group.finish();
}

criterion_group!(
    hot_path,
    inverter_transient,
    adder3x3_transient,
    rc_ladder_transient,
    inverter_vtc_dcsweep,
);
criterion_main!(hot_path);
