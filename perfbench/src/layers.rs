//! Per-layer measurement: a counter-only observer, the per-layer metric
//! table, and the timed fixtures around `pwmcell::testbench` and
//! `mssim::Session` that a traced run attaches to.
//!
//! Every span here is taken from outside, around a call into a layer's
//! public API. Solver counters come from a fixture `Session` rebuilt to
//! match the circuit the testbench simulates, because the inference
//! engine forwards only `resil.*` telemetry and the testbench none.

use std::collections::BTreeMap;
use std::time::Instant;

use mssim::lint::{lint_with, LintContext};
use mssim::prelude::{Circuit, NodeId, RescuePolicy, Session, Transient, TransientOutcome};
use mssim::telemetry::Observer;
use mssim::Waveform;
use pwm_perceptron::prelude::*;
use pwmcell::{AdderSpec, AdderTestbench, SimQuality, Technology, WeightedAdder};

use crate::stats::median;

/// Every per-layer metric a traced run prints, with its unit, in output
/// order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("infer.hit_ratio", "ratio"),
    ("infer.hit_us", "us"),
    ("infer.miss_us", "us"),
    ("infer.self_miss_us", "us"),
    ("infer.insertions", "count"),
    ("infer.evictions", "count"),
    ("infer.evals.circuit", "count"),
    ("infer.evals.switch_level", "count"),
    ("resil.retries", "count"),
    ("resil.demotions", "count"),
    ("resil.degraded", "count"),
    ("resil.breaker_trips", "count"),
    ("eval.circuit_ms", "ms"),
    ("eval.switch_us", "us"),
    ("pwmcell.build_us", "us"),
    ("pwmcell.measure_ms", "ms"),
    ("pwmcell.measure_self_ms", "ms"),
    ("mssim.lint_us", "us"),
    ("mssim.transient_ms", "ms"),
    ("mssim.ns_per_step", "ns"),
    ("tran.steps_accepted", "count"),
    ("tran.steps_rejected", "count"),
    ("tran.edge_snaps", "count"),
    ("newton.solves", "count"),
    ("newton.iterations", "count"),
    ("newton.iters_per_step", "ratio"),
    ("newton.device_evals", "count"),
    ("newton.latency_hits", "count"),
    ("newton.limit_clamps", "count"),
    ("plan.factorizations", "count"),
    ("plan.back_substitutions", "count"),
    ("plan.bypasses", "count"),
    ("plan.rebases", "count"),
    ("plan.factor_ratio", "ratio"),
    ("faults.triage_ms", "ms"),
    ("faults.universe", "count"),
    ("faults.classes", "count"),
    ("faults.transients", "count"),
    ("faults.triage_ratio", "ratio"),
    ("faults.rescue_attempts", "count"),
    ("sweep.points", "count"),
    ("sweep.steals", "count"),
    ("sweep.point_ms", "ms"),
    ("sweep.max_point_ms", "ms"),
    ("sweep.busy_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Per-layer values collected by a traced run, keyed by metric name.
#[derive(Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    /// Where each layer group's numbers came from, for the human report.
    pub sources: Vec<String>,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics in [`PER_LAYER`] order; a name no layer group filled
    /// is a bug in the benchmark and panics.
    pub fn ordered(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                (name, v, unit)
            })
            .collect()
    }
}

/// Counter-only observer: sums counters and keeps the sweep driver's
/// per-point wall times, ignoring every other histogram and event.
#[derive(Default)]
pub struct Counters {
    counts: BTreeMap<&'static str, u64>,
    pub sweep_wall_ns: Vec<f64>,
}

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

impl Observer for Counters {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }

    fn histogram(&mut self, name: &'static str, value: f64) {
        if name == "sweep.wall_ns" {
            self.sweep_wall_ns.push(value);
        }
    }
}

/// Solver counters a fixture session reports as per-layer metrics.
const SOLVER_COUNTS: [&str; 12] = [
    "tran.steps_accepted",
    "tran.steps_rejected",
    "tran.edge_snaps",
    "newton.solves",
    "newton.iterations",
    "newton.device_evals",
    "newton.latency_hits",
    "newton.limit_clamps",
    "plan.factorizations",
    "plan.back_substitutions",
    "plan.bypasses",
    "plan.rebases",
];

/// A transient fixture: a circuit, its output node and the transient
/// to run on it.
pub struct Fixture {
    pub circuit: Circuit,
    pub output: NodeId,
    pub tran: Transient,
    /// Run with MOSFET voltage limiting and device latency.
    pub limited: bool,
    /// Run under this rescue ladder, as the fault campaign does.
    pub rescue: Option<RescuePolicy>,
}

/// Timed lint + transient runs over a set of fixtures, `reps` rounds
/// of each with the fastest round kept (a shared host's interference
/// only ever adds time); the counter-only observer rides the first
/// round, so counts are those of one run per fixture. Fills the
/// `mssim.*`, `tran.*`, `newton.*` and `plan.*` metrics and returns each
/// fixture's transient time in ms.
pub fn simulate_fixtures(fixtures: &[Fixture], reps: usize, out: &mut LayerMetrics) -> Vec<f64> {
    let mut counters = Counters::default();
    let mut lint_us = vec![f64::INFINITY; fixtures.len()];
    let mut tran_ms = vec![f64::INFINITY; fixtures.len()];
    for rep in 0..reps.max(1) {
        for (i, f) in fixtures.iter().enumerate() {
            let fresh = f.circuit.clone();
            let t0 = Instant::now();
            let report = lint_with(&fresh, fresh.lint_config(), LintContext::TransientUic);
            lint_us[i] = lint_us[i].min(t0.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(report);

            let mut session = Session::new(&f.circuit).with_device_limiting(f.limited);
            if rep == 0 {
                session = session.observe(&mut counters);
            }
            let t0 = Instant::now();
            let complete = match &f.rescue {
                Some(policy) => matches!(
                    session.transient_rescued(&f.tran, policy),
                    Ok(TransientOutcome::Complete { .. })
                ),
                None => session.transient(&f.tran).is_ok(),
            };
            tran_ms[i] = tran_ms[i].min(t0.elapsed().as_nanos() as f64 / 1e6);
            assert!(complete, "fixture transient must run to completion");
        }
    }
    for name in SOLVER_COUNTS {
        out.set(name, counters.get(name) as f64);
    }
    let steps = counters.get("tran.steps_accepted") as f64;
    let iters = counters.get("newton.iterations") as f64;
    out.set("mssim.lint_us", median(&lint_us));
    out.set("mssim.transient_ms", median(&tran_ms));
    out.set(
        "mssim.ns_per_step",
        tran_ms.iter().sum::<f64>() * 1e6 / steps.max(1.0),
    );
    out.set("newton.iters_per_step", iters / steps.max(1.0));
    out.set(
        "plan.factor_ratio",
        counters.get("plan.factorizations") as f64 / iters.max(1.0),
    );
    tran_ms
}

/// The circuit `AdderTestbench::measure_at` simulates for `query` at
/// the technology's nominal frequency and supply: same element order,
/// stimulus, step and stop time. The plan mirrors `SimQuality`'s
/// (settle in output time constants, bounded below and above in whole
/// periods) so the fixture runs the testbench's step count.
pub fn testbench_fixture(tech: &Technology, quality: &SimQuality, query: &Query) -> Fixture {
    let weights = query.weights();
    let spec = AdderSpec::new(weights.len(), weights.bits());
    let vdd = tech.vdd.value();
    let freq = tech.frequency;
    let mut ckt = Circuit::new();
    let vdd_node = ckt.node("vdd");
    ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd));
    let adder = WeightedAdder::build(&mut ckt, tech, "dut", vdd_node, weights.as_slice(), spec);
    for (i, d) in query.duties().iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm_with_edges(vdd, freq.value(), d.value(), tech.edge_fraction(freq)),
        );
    }
    let ron = 0.5 * (tech.nmos.r_on(vdd).min(10e6) + tech.pmos.r_on(vdd).min(10e6));
    let units = spec.inputs as f64 * spec.max_weight() as f64;
    let tau = (tech.rout.value() + ron) / units * tech.cout_adder.value();
    let period = freq.period().value();
    let settle = ((quality.settle_time_constants * tau / period).ceil() as usize)
        .max(quality.min_settle_periods);
    let total = (settle + quality.measure_periods).min(quality.max_total_periods);
    let dt = period / quality.steps_per_period as f64;
    Fixture {
        circuit: ckt,
        output: adder.output,
        tran: Transient::new(dt, total as f64 * period).use_initial_conditions(),
        limited: false,
        rescue: None,
    }
}

/// Rounds of each circuit-side timing; the fastest is kept.
const REPS: usize = 2;

/// Times the circuit tier's layers on `queries`: direct
/// `CircuitEvaluator` calls, the testbench's `batch_runner` build and
/// `measure`, and the matching `mssim` fixture, each the fastest of
/// [`REPS`] rounds. Fills `eval.circuit_ms` and `pwmcell.*`; fills the
/// solver metrics too unless `with_solver` is false (a workload whose
/// solver fixture is another circuit). Returns the direct-call times in
/// ms, one per query.
pub fn circuit_layers(
    tech: &Technology,
    quality: &SimQuality,
    queries: &[Query],
    with_solver: bool,
    out: &mut LayerMetrics,
) -> Vec<f64> {
    let direct = CircuitEvaluator::new(tech.clone(), *quality);
    let n = queries.len();
    let mut eval_ms = vec![f64::INFINITY; n];
    let mut build_us = vec![f64::INFINITY; n];
    let mut measure_ms = vec![f64::INFINITY; n];
    for _ in 0..REPS {
        for (i, q) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let e = direct.evaluate(q).expect("circuit-tier query evaluates");
            eval_ms[i] = eval_ms[i].min(t0.elapsed().as_nanos() as f64 / 1e6);
            std::hint::black_box(e);

            let weights = q.weights();
            let t0 = Instant::now();
            let runner = AdderTestbench::new(tech, AdderSpec::new(weights.len(), weights.bits()))
                .batch_runner(weights.as_slice(), tech.frequency, tech.vdd, quality);
            build_us[i] = build_us[i].min(t0.elapsed().as_nanos() as f64 / 1e3);
            let raw: Vec<f64> = q.duties().iter().map(|d| d.value()).collect();
            let t0 = Instant::now();
            let m = runner
                .measure(&raw)
                .expect("testbench measurement converges");
            measure_ms[i] = measure_ms[i].min(t0.elapsed().as_nanos() as f64 / 1e6);
            std::hint::black_box(m);
        }
    }
    let fixtures: Vec<Fixture> = queries
        .iter()
        .map(|q| testbench_fixture(tech, quality, q))
        .collect();
    let mut scratch = LayerMetrics::default();
    let tran_ms = simulate_fixtures(
        &fixtures,
        REPS,
        if with_solver { &mut *out } else { &mut scratch },
    );
    let self_ms: Vec<f64> = measure_ms
        .iter()
        .zip(&tran_ms)
        .map(|(m, t)| m - t)
        .collect();
    out.set("eval.circuit_ms", median(&eval_ms));
    out.set("pwmcell.build_us", median(&build_us));
    out.set("pwmcell.measure_ms", median(&measure_ms));
    out.set("pwmcell.measure_self_ms", median(&self_ms));
    eval_ms
}
