//! Solver hot-path benchmark: compiled stamp plan vs the naive reference
//! assembler, wall-clock timed with `std::time::Instant`.
//!
//! Unlike the Criterion suite in `crates/mssim/benches/hot_path.rs` (which
//! hand-rolls its circuits to avoid a dev-dependency cycle), this harness
//! runs the *shipped* `pwmcell` circuits — the Fig. 2 inverter, the
//! switch-level and transistor-level 3×3 weighted adders, and a generated
//! 8×8 adder array — and before timing anything asserts that the optimized
//! path reproduces the reference waveforms within 1e-12 at every probe.
//! The `repro bench` experiment renders these rows and writes
//! `results/BENCH_mssim.json` so CI captures the perf trajectory.

use std::time::Instant;

use mssim::analysis::dc_sweep_reference;
use mssim::json::{self, ParseError, Precision, Value};
use mssim::prelude::*;
use mssim::telemetry::MemoryRecorder;
use pwmcell::{AdderSpec, Inverter, SwitchAdder, Technology, WeightedAdder};

/// Schema tag of the bench trajectory record.
pub const BENCH_SCHEMA: &str = "mssim-bench-v1";

/// Largest waveform deviation the *exact* equivalence gate tolerates.
/// The solver is designed for *bitwise* agreement; 1e-12 is the issue's
/// contract.
pub const EQUIVALENCE_TOL: f64 = 1e-12;

/// Largest waveform deviation the *limited* arm tolerates. Voltage
/// limiting and device latency relinearize MOSFETs at slightly stale
/// operating points, so the converged waveforms agree with the reference
/// only to solver tolerance, not bitwise.
pub const EQUIVALENCE_TOL_LIMITED: f64 = 1e-4;

/// One benchmark fixture's measurement.
#[derive(Debug, Clone)]
pub struct HotPathRow {
    /// Fixture name (stable identifier, used as the JSON key).
    pub name: &'static str,
    /// Work items per run: transient steps or DC sweep points.
    pub items: usize,
    /// What one item is ("step" or "point").
    pub unit: &'static str,
    /// Best (minimum) wall-clock of the naive reference path, nanoseconds.
    pub reference_best_ns: f64,
    /// Best (minimum) wall-clock of the compiled-plan path, nanoseconds.
    pub plan_best_ns: f64,
    /// `reference_best_ns / plan_best_ns`.
    pub speedup: f64,
    /// Plan-path cost per item, nanoseconds.
    pub plan_ns_per_item: f64,
    /// Plan-path throughput, items per second.
    pub plan_items_per_s: f64,
    /// Largest |plan − reference| over all probes, volts — exact device
    /// evaluation on the plan arm; gated bitwise (`== 0`) in practice.
    pub max_abs_diff: f64,
    /// Largest |limited plan − reference| over all probes, volts. The
    /// timed plan arm runs with voltage limiting + device latency on, so
    /// this is the deviation the reported speedup actually ships with.
    pub limited_max_abs_diff: f64,
    /// MOSFET model evaluations performed by the limited plan arm.
    pub device_evals: u64,
    /// `fetlim`/`limvds` clamps applied by the limited plan arm.
    pub limit_clamps: u64,
    /// Device-latency reuse hits (evaluations skipped) on the limited arm.
    pub latency_hits: u64,
}

/// Runs the full fixture set. `repeats` is the number of timed runs per
/// path per fixture (the minimum is reported); `fast` shortens the
/// heavier transistor-level transients without touching the headline
/// switch-level 3×3 adder, whose ≥3× speedup is an acceptance gate.
pub fn hot_path(tech: &Technology, repeats: usize, fast: bool) -> Vec<HotPathRow> {
    let dt = 10e-12;
    let long = 2000;
    let short = if fast { 500 } else { 2000 };
    vec![
        tran_inverter(tech, dt, long, repeats),
        tran_adder3x3_switch(tech, dt, long, repeats),
        tran_adder3x3_mos(tech, dt, short, repeats),
        tran_adder8x8_switch(tech, dt, short, repeats),
        dcsweep_inverter_vtc(tech, repeats),
    ]
}

/// Abstract-interpreter statistics recorded alongside the timing rows:
/// how long the interval analyzer takes on the campaign's 3×3 adder
/// fixture, how far static fault collapsing shrinks its single-fault
/// universe, and how much of that universe the Krawczyk triage tier
/// resolves without a single transient.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeStats {
    /// Wall-clock of one widened [`mssim::analyze_circuit`] pass over the
    /// 3×3 switch-level adder, nanoseconds.
    pub analyze_wall_ns: f64,
    /// Faults in the enumerated single-fault universe.
    pub universe: usize,
    /// Class representatives that still need their own transient.
    pub simulated: usize,
    /// Wall-clock of one full triage pass (collapse + enclosure solve +
    /// verdict classification) over the same universe, nanoseconds.
    pub triage_wall_ns: f64,
    /// Faults statically resolved (`GuaranteedMasked` + `GuaranteedFail`)
    /// by the triage tier.
    pub triage_resolved: usize,
}

impl AnalyzeStats {
    /// `simulated / universe` — the fraction of the universe a collapsed
    /// campaign actually simulates (1.0 means collapsing saved nothing).
    pub fn collapse_ratio(&self) -> f64 {
        self.simulated as f64 / self.universe.max(1) as f64
    }

    /// `triage_resolved / universe` — the fraction of the universe the
    /// static triage tier settles without simulating (0.0 means triage
    /// saved nothing). The `repro faults` gate requires ≥ 0.20 on the
    /// switch-level universe.
    pub fn triage_ratio(&self) -> f64 {
        self.triage_resolved as f64 / self.universe.max(1) as f64
    }
}

/// Measures [`AnalyzeStats`] on the campaign's paper-row fixture: the
/// 3×3 switch-level adder with weights `[7, 5, 3]` under ±5% component
/// tolerance and a 0.9–1.0 supply window.
pub fn analyze_stats(tech: &Technology) -> AnalyzeStats {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = SwitchAdder::build(
        &mut ckt,
        tech,
        "add",
        vdd,
        &[7, 5, 3],
        AdderSpec::paper_3x3(),
    );
    for (i, d) in [0.30, 0.50, 0.70].into_iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    let ranges = Ranges::default()
        .with_tolerance(0.05)
        .with_supply_scale(0.9, 1.0);
    let t0 = Instant::now();
    let report = analyze_circuit(&ckt, &ranges);
    let analyze_wall_ns = t0.elapsed().as_nanos() as f64;
    assert!(
        !report.has_denials(),
        "the shipped 3x3 adder must analyze deny-clean:\n{report}"
    );
    let universe = pwmcell::faults::switch_adder_universe(
        &ckt,
        &adder,
        &mssim::faults::UniverseConfig::default(),
    );
    let collapse = collapse_faults(&ckt, &universe);
    let triage_config = pwm_perceptron::faults::CampaignConfig {
        triage: true,
        ..Default::default()
    };
    let t1 = Instant::now();
    let triage = pwm_perceptron::faults::switch_adder_triage(
        tech,
        AdderSpec::paper_3x3(),
        &[7, 5, 3],
        &[0.30, 0.50, 0.70],
        &triage_config,
    )
    .expect("the shipped 3x3 adder must triage");
    let triage_wall_ns = t1.elapsed().as_nanos() as f64;
    AnalyzeStats {
        analyze_wall_ns,
        universe: universe.len(),
        simulated: collapse.n_simulated,
        triage_wall_ns,
        triage_resolved: triage.stats.masked + triage.stats.failed,
    }
}

/// Builds the `mssim-bench-v1` document.
/// `telemetry_overhead` is the [`telemetry_overhead`] ratio measured for
/// the run (1.0 means the instrumented entry point is free when no
/// observer is attached); `analyze` carries the abstract-interpreter
/// wall-time and fault-collapse ratio for the same trajectory record.
pub fn to_json(
    rows: &[HotPathRow],
    repeats: usize,
    fast: bool,
    telemetry_overhead: f64,
    analyze: &AnalyzeStats,
) -> Value {
    let fixed = |x: f64, digits| Value::float(x, Precision::Fixed(digits));
    let exp = |x: f64| Value::float(x, Precision::Exp);
    let entries = rows.iter().map(|r| {
        Value::object()
            .with("name", r.name)
            .with("items", r.items)
            .with("unit", r.unit)
            .with("reference_best_ns", fixed(r.reference_best_ns, 0))
            .with("plan_best_ns", fixed(r.plan_best_ns, 0))
            .with("speedup", fixed(r.speedup, 3))
            .with("plan_ns_per_item", fixed(r.plan_ns_per_item, 1))
            .with("plan_items_per_s", fixed(r.plan_items_per_s, 0))
            .with("max_abs_diff", exp(r.max_abs_diff))
            .with("limited_max_abs_diff", exp(r.limited_max_abs_diff))
            .with("device_evals", r.device_evals)
            .with("limit_clamps", r.limit_clamps)
            .with("latency_hits", r.latency_hits)
    });
    Value::object()
        .with("schema", BENCH_SCHEMA)
        .with("mode", if fast { "fast" } else { "full" })
        .with("repeats", repeats)
        .with("equivalence_tol", exp(EQUIVALENCE_TOL))
        .with("equivalence_tol_limited", exp(EQUIVALENCE_TOL_LIMITED))
        .with("telemetry_overhead", fixed(telemetry_overhead, 4))
        .with("analyze_wall_ns", fixed(analyze.analyze_wall_ns, 0))
        .with("collapse_universe", analyze.universe)
        .with("collapse_simulated", analyze.simulated)
        .with("collapse_ratio", fixed(analyze.collapse_ratio(), 4))
        .with("triage_wall_ns", fixed(analyze.triage_wall_ns, 0))
        .with("triage_resolved", analyze.triage_resolved)
        .with("triage_ratio", fixed(analyze.triage_ratio(), 4))
        .with("entries", entries.collect::<Value>())
}

/// Sets every member of `members` in the bench document `existing` (in
/// place when present, appended otherwise) and keeps all other members,
/// so `repro bench`, `repro serve` and `repro chaos` each refresh their
/// own part of `results/BENCH_mssim.json`. A missing document starts as
/// an empty `mssim-bench-v1` record.
///
/// # Errors
///
/// Returns the parse error when `existing` is not valid JSON.
pub fn merge(existing: Option<&str>, members: Value) -> Result<Value, ParseError> {
    let mut doc = match existing {
        Some(text) => json::parse(text)?,
        None => Value::object().with("schema", BENCH_SCHEMA),
    };
    let (Value::Object(_), Value::Object(members)) = (&doc, members) else {
        let message = "a bench record must be a JSON object";
        return Err(ParseError { offset: 0, message });
    };
    for (key, value) in members {
        doc.set(&key, value);
    }
    Ok(doc)
}

// ------------------------------------------------------------- fixtures

/// Fig. 2 transcoding inverter at the paper's operating point.
fn tran_inverter(tech: &Technology, dt: f64, steps: usize, repeats: usize) -> HotPathRow {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::pwm(tech.vdd.value(), tech.frequency.value(), 0.7),
    );
    let inv = Inverter::build(
        &mut ckt,
        tech,
        "inv",
        inp,
        vdd,
        Some(tech.rout),
        tech.cout_inverter,
    );
    let probes = vec![inv.output, inp, vdd];
    bench_transient("tran_inverter", &ckt, &probes, dt, steps, repeats)
}

/// Switch-level 3×3 weighted adder — the acceptance-gated headline: the
/// Jacobian is piecewise constant between PWM edges, so the solution and
/// factorization caches carry nearly every step.
fn tran_adder3x3_switch(tech: &Technology, dt: f64, steps: usize, repeats: usize) -> HotPathRow {
    let (ckt, probes) = switch_adder_circuit(
        tech,
        AdderSpec::paper_3x3(),
        &[7, 7, 7],
        &[0.70, 0.80, 0.90],
    );
    bench_transient("tran_adder3x3", &ckt, &probes, dt, steps, repeats)
}

/// Transistor-level 3×3 weighted adder (Fig. 3): MOSFET AND cells keep
/// Newton iterating, so this measures the plan under nonlinear load.
fn tran_adder3x3_mos(tech: &Technology, dt: f64, steps: usize, repeats: usize) -> HotPathRow {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = WeightedAdder::build(
        &mut ckt,
        tech,
        "add",
        vdd,
        &[7, 7, 7],
        AdderSpec::paper_3x3(),
    );
    for (i, &d) in [0.70, 0.80, 0.90].iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    let mut probes = vec![adder.output, vdd];
    probes.extend_from_slice(&adder.inputs);
    bench_transient("tran_adder3x3_mos", &ckt, &probes, dt, steps, repeats)
}

/// Generated 8×8 switch-level adder array — the scaling direction the
/// ROADMAP cares about (larger perceptron arrays than the paper's 3×3).
fn tran_adder8x8_switch(tech: &Technology, dt: f64, steps: usize, repeats: usize) -> HotPathRow {
    let duties = [0.05, 0.20, 0.35, 0.50, 0.60, 0.75, 0.85, 0.95];
    let (ckt, probes) = switch_adder_circuit(
        tech,
        AdderSpec::new(8, 8),
        &[255, 170, 129, 100, 77, 64, 31, 9],
        &duties,
    );
    bench_transient("tran_adder8x8", &ckt, &probes, dt, steps, repeats)
}

/// Inverter voltage-transfer-characteristic DC sweep, 101 points.
fn dcsweep_inverter_vtc(tech: &Technology, repeats: usize) -> HotPathRow {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
    ckt.mosfet("MP", out, g, vdd, tech.pmos);
    ckt.mosfet("MN", out, g, Circuit::GND, tech.nmos);
    ckt.resistor("RL", out, Circuit::GND, 10e6);
    let points = mssim::sweep::linspace(0.0, tech.vdd.value(), 101);

    let plan = Session::new(&ckt)
        .dc_sweep(vg, &points)
        .expect("plan dc sweep converges");
    let reference = dc_sweep_reference(ckt.clone(), vg, &points).expect("reference dc sweep");
    let sweep_diff = |p: &DcSweepResult| {
        p.transfer(out)
            .iter()
            .zip(reference.transfer(out))
            .map(|(&(_, a), (_, b))| (a - b).abs())
            .fold(0.0f64, f64::max)
    };
    let max_abs_diff = sweep_diff(&plan);
    assert!(
        max_abs_diff <= EQUIVALENCE_TOL,
        "dcsweep_inverter_vtc: plan deviates from reference by {max_abs_diff:e}"
    );

    let mut rec = MemoryRecorder::new();
    let limited = Session::new(&ckt)
        .with_device_limiting(true)
        .observe(&mut rec)
        .dc_sweep(vg, &points)
        .expect("limited dc sweep converges");
    let limited_max_abs_diff = sweep_diff(&limited);
    assert!(
        limited_max_abs_diff <= EQUIVALENCE_TOL_LIMITED,
        "dcsweep_inverter_vtc: limited plan deviates from reference by {limited_max_abs_diff:e}"
    );

    let (plan_best_ns, reference_best_ns) = best_ns_interleaved(
        repeats,
        || {
            Session::new(&ckt)
                .with_device_limiting(true)
                .dc_sweep(vg, &points)
                .expect("limited dc sweep converges")
        },
        || dc_sweep_reference(ckt.clone(), vg, &points).expect("reference dc sweep"),
    );
    let mut r = row(
        "dcsweep_inverter_vtc",
        points.len(),
        "point",
        reference_best_ns,
        plan_best_ns,
        max_abs_diff,
    );
    r.limited_max_abs_diff = limited_max_abs_diff;
    r.device_evals = rec.counter_value("newton.device_evals");
    r.limit_clamps = rec.counter_value("newton.limit_clamps");
    r.latency_hits = rec.counter_value("newton.latency_hits");
    r
}

/// Measures what routing the headline 3×3 switch-level adder transient
/// through [`Session`] *without an observer* costs relative to the
/// pre-`Session` entry point (`Transient::run`, now a deprecated wrapper).
///
/// The two arms run interleaved — legacy then `Session`, `repeats` times —
/// so clock drift and cache warmth hit both equally, and the **median
/// per-pair ratio** is returned: 1.0 means disabled telemetry is free.
/// The `repro bench` gate fails the build above 1.02 (2 % overhead).
pub fn telemetry_overhead(tech: &Technology, repeats: usize) -> f64 {
    let (ckt, _) = switch_adder_circuit(
        tech,
        AdderSpec::paper_3x3(),
        &[7, 7, 7],
        &[0.70, 0.80, 0.90],
    );
    let dt = 10e-12;
    let steps = 2000usize;
    let tran = Transient::new(dt, steps as f64 * dt)
        .use_initial_conditions()
        .record_every(16);
    // One warm-up run so neither arm pays first-touch allocation costs.
    std::hint::black_box(
        Session::new(&ckt)
            .transient(&tran)
            .expect("transient converges"),
    );
    let mut ratios: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            #[allow(deprecated)]
            let legacy = tran.run(&ckt).expect("legacy transient converges");
            let legacy_ns = t0.elapsed().as_nanos() as f64;
            std::hint::black_box(legacy);
            let t1 = Instant::now();
            let session = Session::new(&ckt)
                .transient(&tran)
                .expect("session transient converges");
            let session_ns = t1.elapsed().as_nanos() as f64;
            std::hint::black_box(session);
            session_ns / legacy_ns.max(1.0)
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    ratios[ratios.len() / 2]
}

// -------------------------------------------------------------- helpers

/// Builds a PWM-driven [`SwitchAdder`] at technology `tech` and returns
/// it with its probe set (output, supply, every input). Shared with the
/// `repro trace` experiment so the trace replays exactly the benchmarked
/// fixtures.
pub fn switch_adder_circuit(
    tech: &Technology,
    spec: AdderSpec,
    weights: &[u32],
    duties: &[f64],
) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = SwitchAdder::build(&mut ckt, tech, "add", vdd, weights, spec);
    for (i, &d) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), d),
        );
    }
    let mut probes = vec![adder.output, vdd];
    probes.extend_from_slice(&adder.inputs);
    (ckt, probes)
}

/// Asserts plan/reference waveform agreement at every probe, then times
/// both paths and reports the best-of-repeats times.
fn bench_transient(
    name: &'static str,
    ckt: &Circuit,
    probes: &[NodeId],
    dt: f64,
    steps: usize,
    repeats: usize,
) -> HotPathRow {
    let tran = |reference: bool| {
        Transient::new(dt, steps as f64 * dt)
            .use_initial_conditions()
            .record_every(16)
            .with_reference_solver(reference)
    };
    let plan = Session::new(ckt)
        .transient(&tran(false))
        .expect("plan transient converges");
    let reference = Session::new(ckt)
        .transient(&tran(true))
        .expect("reference transient converges");
    let max_abs_diff = waveform_diff(&plan, &reference, probes);
    assert!(
        max_abs_diff <= EQUIVALENCE_TOL,
        "{name}: plan deviates from reference by {max_abs_diff:e}"
    );

    // Limited arm: voltage limiting + device latency on. This is the
    // configuration the timed plan arm ships with, so its (looser)
    // deviation and its device counters are recorded per entry.
    let mut rec = MemoryRecorder::new();
    let limited = Session::new(ckt)
        .with_device_limiting(true)
        .observe(&mut rec)
        .transient(&tran(false))
        .expect("limited transient converges");
    let limited_max_abs_diff = waveform_diff(&limited, &reference, probes);
    assert!(
        limited_max_abs_diff <= EQUIVALENCE_TOL_LIMITED,
        "{name}: limited plan deviates from reference by {limited_max_abs_diff:e}"
    );

    let (plan_best_ns, reference_best_ns) = best_ns_interleaved(
        repeats,
        || {
            Session::new(ckt)
                .with_device_limiting(true)
                .transient(&tran(false))
                .expect("limited transient converges")
        },
        || {
            Session::new(ckt)
                .transient(&tran(true))
                .expect("reference transient converges")
        },
    );
    let mut r = row(
        name,
        steps,
        "step",
        reference_best_ns,
        plan_best_ns,
        max_abs_diff,
    );
    r.limited_max_abs_diff = limited_max_abs_diff;
    r.device_evals = rec.counter_value("newton.device_evals");
    r.limit_clamps = rec.counter_value("newton.limit_clamps");
    r.latency_hits = rec.counter_value("newton.latency_hits");
    r
}

/// Largest per-probe waveform deviation between two transient results.
fn waveform_diff(a: &TransientResult, b: &TransientResult, probes: &[NodeId]) -> f64 {
    let mut max = 0.0f64;
    for &node in probes {
        let wa = a.voltage(node);
        let wb = b.voltage(node);
        for (x, y) in wa.values().iter().zip(wb.values()) {
            max = max.max((x - y).abs());
        }
    }
    max
}

fn row(
    name: &'static str,
    items: usize,
    unit: &'static str,
    reference_best_ns: f64,
    plan_best_ns: f64,
    max_abs_diff: f64,
) -> HotPathRow {
    HotPathRow {
        name,
        items,
        unit,
        reference_best_ns,
        plan_best_ns,
        speedup: reference_best_ns / plan_best_ns,
        plan_ns_per_item: plan_best_ns / items as f64,
        plan_items_per_s: items as f64 / (plan_best_ns * 1e-9),
        max_abs_diff,
        limited_max_abs_diff: 0.0,
        device_evals: 0,
        limit_clamps: 0,
        latency_hits: 0,
    }
}

/// Median wall-clock over `repeats` runs of `f`, in nanoseconds.
/// One timed run of `f`, in nanoseconds.
fn time_ns<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(r);
    ns
}

/// Best-of-`repeats` wall clock for both arms, `(plan, reference)`.
///
/// Two noise defenses for a loaded single-core host:
///
/// * **Minimum, not median** — scheduler noise is strictly additive, so
///   the fastest observed run is the least-biased estimator of the true
///   cost and keeps the reported speedup ratio stable across invocations.
/// * **Interleaved arms** — the samples of each arm are spread across
///   the whole measurement window instead of packed back-to-back, so a
///   sustained background burst cannot inflate every sample of one arm
///   while leaving the other untouched (which would skew the ratio).
fn best_ns_interleaved<P, Q>(
    repeats: usize,
    mut plan: impl FnMut() -> P,
    mut reference: impl FnMut() -> Q,
) -> (f64, f64) {
    let mut plan_best = f64::INFINITY;
    let mut reference_best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        plan_best = plan_best.min(time_ns(&mut plan));
        reference_best = reference_best.min(time_ns(&mut reference));
    }
    (plan_best, reference_best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cut-down run of the real fixtures: equivalence assertions fire
    /// inside, so this test doubles as a smoke check of the harness.
    /// Merging its record into the committed one refreshes the bench
    /// fields and entries but keeps the `serve` and `chaos` sections.
    #[test]
    fn rows_are_consistent_and_merge_into_the_committed_record() {
        let tech = Technology::umc65_like();
        let r = tran_inverter(&tech, 10e-12, 64, 1);
        assert!(r.max_abs_diff <= EQUIVALENCE_TOL);
        assert!(r.plan_best_ns > 0.0 && r.reference_best_ns > 0.0);
        assert!((r.speedup - r.reference_best_ns / r.plan_best_ns).abs() < 1e-9);
        let stats = AnalyzeStats {
            analyze_wall_ns: 1.0e6,
            universe: 49,
            simulated: 47,
            triage_wall_ns: 2.0e6,
            triage_resolved: 18,
        };
        let record = to_json(&[r], 1, true, 1.0, &stats);
        let json = record.to_pretty();
        assert!(json.contains("\"schema\": \"mssim-bench-v1\""));
        assert!(json.contains("\"name\": \"tran_inverter\""));
        assert!(json.contains("\"telemetry_overhead\": 1.0000"));
        assert!(json.contains("\"collapse_ratio\": 0.9592"));
        assert!(json.contains("\"analyze_wall_ns\": 1000000"));
        assert!(json.contains("\"triage_wall_ns\": 2000000"));
        assert!(json.contains("\"triage_ratio\": 0.3673"));

        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_mssim.json"
        );
        let committed = std::fs::read_to_string(path).unwrap();
        let before = json::parse(&committed).unwrap();
        let merged = merge(Some(&committed), record.clone()).unwrap();
        for key in ["serve", "chaos"] {
            assert!(merged.get(key).is_some(), "{key} kept");
            assert_eq!(merged.get(key), before.get(key), "{key} unchanged");
        }
        assert_eq!(merged.get("entries"), record.get("entries"));
        assert!(merge(Some("{\"schema\": "), Value::object()).is_err());
        assert!(merge(Some("[]"), Value::object()).is_err());
        assert_eq!(merge(None, record.clone()), Ok(record));
    }

    /// The committed records are exactly what the writer prints.
    #[test]
    fn committed_records_round_trip_byte_for_byte() {
        for name in ["BENCH_mssim.json", "ANALYZE_mssim.json"] {
            let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).unwrap();
            assert_eq!(json::parse(&text).unwrap().to_pretty(), text, "{name}");
        }
    }

    /// The recorded analyzer statistics come from the real fixture: the
    /// widened pass is deny-clean (asserted inside), collapsing the
    /// 49-fault universe must save transients, and the triage tier must
    /// clear the ≥ 20 % acceptance floor on the switch-level universe.
    #[test]
    fn analyze_stats_measures_the_campaign_fixture() {
        let stats = analyze_stats(&Technology::umc65_like());
        assert!(stats.analyze_wall_ns > 0.0);
        assert!(stats.simulated < stats.universe);
        assert!(stats.collapse_ratio() < 1.0);
        assert!(stats.triage_wall_ns > 0.0);
        assert!(
            stats.triage_ratio() >= 0.20,
            "triage must statically resolve >= 20% of the switch universe, got {:.4}",
            stats.triage_ratio()
        );
    }
}
