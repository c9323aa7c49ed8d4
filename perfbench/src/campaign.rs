//! The `fault_campaign` workload: passes over the 49-fault switch-level
//! and 184-fault transistor-level single-fault universes with collapse
//! and triage on, checked verdict by verdict against the committed
//! `results/FAULTS_*.json` artifacts. An op is one fault verdict.

use std::collections::BTreeMap;
use std::time::Instant;

use mssim::faults::UniverseConfig;
use mssim::prelude::{Circuit, Transient};
use mssim::Waveform;
use pwm_perceptron::faults::{
    switch_adder_campaign, switch_adder_campaign_observed, switch_adder_triage,
    weighted_adder_campaign, weighted_adder_campaign_observed, weighted_adder_triage,
    CampaignConfig, CampaignReport,
};
use pwmcell::{AdderSpec, Technology, WeightedAdder};

use crate::calib::Calibration;
use crate::json::{self, Value};
use crate::layers::{self, Counters, Fixture, LayerMetrics};
use crate::serve::{SETUPS_AFTER, SETUPS_BEFORE};
use crate::stats::{median, Latencies};
use crate::{serve, Outcome, Tally};

/// The committed switch-level and transistor-level campaign records.
const ARTIFACTS: [&str; 2] = ["results/FAULTS_mssim.json", "results/FAULTS_mos_mssim.json"];

/// The campaign's adder inputs (those `repro faults` records).
const WEIGHTS: [u32; 3] = [7, 5, 3];
const DUTIES: [f64; 3] = [0.30, 0.50, 0.70];

/// `latency_tail_us` percentile. A run finishes ~5,000 verdicts, but
/// they arrive in batches of 49 and 184 per pass, so p99 is the single
/// slowest pass; p90 (~500 verdicts beyond) spans the slowest few.
const TAIL_Q: f64 = 0.9;

/// What the committed artifacts say a pass must produce.
struct Expected {
    config: CampaignConfig,
    /// Fault label → class tag, per universe (switch, MOS).
    classes: [BTreeMap<String, String>; 2],
    analytic_vout: f64,
}

fn load_artifact(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("mssim-faults-v2") => Ok(doc),
        other => Err(format!("{path}: unsupported schema {other:?}")),
    }
}

fn num(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("artifact lacks numeric {key}"))
}

/// Reads both artifacts and rebuilds the `CampaignConfig` they record.
fn load_expected() -> Result<Expected, String> {
    let docs = [load_artifact(ARTIFACTS[0])?, load_artifact(ARTIFACTS[1])?];
    let config_of = |doc: &Value| -> Result<CampaignConfig, String> {
        Ok(CampaignConfig {
            frequency: num(doc, "frequency_hz")?,
            periods: num(doc, "periods")? as usize,
            steps_per_period: num(doc, "steps_per_period")? as usize,
            avg_periods: num(doc, "avg_periods")? as usize,
            masked_epsilon: num(doc, "masked_epsilon_v")?,
            fail_epsilon: num(doc, "fail_epsilon_v")?,
            universe: UniverseConfig {
                seed: num(doc, "seed")? as u64,
                ..UniverseConfig::default()
            },
            collapse: true,
            triage: !matches!(doc.get("triage"), None | Some(Value::Null)),
            ..CampaignConfig::default()
        })
    };
    let config = config_of(&docs[0])?;
    if config_of(&docs[1])? != config {
        return Err("the two artifacts record different campaign configs".into());
    }
    let mut classes = [BTreeMap::new(), BTreeMap::new()];
    for (doc, map) in docs.iter().zip(&mut classes) {
        let outcomes = doc
            .get("outcomes")
            .and_then(Value::as_array)
            .ok_or("artifact lacks outcomes")?;
        for o in outcomes {
            let label = o.get("label").and_then(Value::as_str);
            let class = o.get("class").and_then(Value::as_str);
            match (label, class) {
                (Some(l), Some(c)) => map.insert(l.to_string(), c.to_string()),
                _ => return Err("outcome lacks label or class".into()),
            };
        }
    }
    Ok(Expected {
        config,
        classes,
        analytic_vout: num(&docs[0], "analytic_vout")?,
    })
}

/// One pass: both campaigns, back to back.
struct Pass {
    reports: [CampaignReport; 2],
    /// Seconds from pass start until each universe's verdicts arrived.
    done_s: [f64; 2],
}

fn pass(expected: &Expected, observer: Option<&mut Counters>) -> Pass {
    let tech = Technology::umc65_like();
    let spec = AdderSpec::paper_3x3();
    let cfg = &expected.config;
    let t0 = Instant::now();
    let (switch, mos, t_switch) = match observer {
        Some(obs) => {
            let s = switch_adder_campaign_observed(&tech, spec, &WEIGHTS, &DUTIES, cfg, obs);
            let t = t0.elapsed().as_secs_f64();
            (
                s,
                weighted_adder_campaign_observed(&tech, spec, &WEIGHTS, &DUTIES, cfg, obs),
                t,
            )
        }
        None => {
            let s = switch_adder_campaign(&tech, spec, &WEIGHTS, &DUTIES, cfg);
            let t = t0.elapsed().as_secs_f64();
            (
                s,
                weighted_adder_campaign(&tech, spec, &WEIGHTS, &DUTIES, cfg),
                t,
            )
        }
    };
    let total = t0.elapsed().as_secs_f64();
    Pass {
        reports: [
            switch.expect("the golden switch-level adder simulates"),
            mos.expect("the golden MOS adder simulates"),
        ],
        done_s: [t_switch, total],
    }
}

/// Checks every verdict of a pass against the artifacts.
fn check(expected: &Expected, p: &Pass, tally: &mut Tally) {
    for (report, want) in p.reports.iter().zip(&expected.classes) {
        if (report.analytic_vout - expected.analytic_vout).abs() > 1e-6 {
            tally.fail(format!(
                "campaign reference {} V differs from the recorded {} V",
                report.analytic_vout, expected.analytic_vout
            ));
        }
        if report.outcomes.len() != want.len() {
            tally.fail(format!(
                "universe has {} faults, artifact records {}",
                report.outcomes.len(),
                want.len()
            ));
        }
        tally.eq2_err((report.golden_vout - report.analytic_vout).abs());
        for o in &report.outcomes {
            tally.attempted += 1;
            match want.get(&o.label) {
                Some(class) if class == o.class.tag() => {}
                Some(class) => tally.fail(format!(
                    "{}: verdict {} but the artifact records {class}",
                    o.label,
                    o.class.tag()
                )),
                None => tally.fail(format!("{}: not in the artifact", o.label)),
            }
        }
    }
}

/// The transistor-level campaign's fault-free circuit for `duties` and
/// `weights`, simulated as the campaign simulates it (limited device
/// evaluation, rescue ladder, fixed step).
fn golden_fixture(cfg: &CampaignConfig, duties: &[f64; 3], weights: &[u32; 3]) -> Fixture {
    let tech = Technology::umc65_like();
    let vdd = tech.vdd.value();
    let mut ckt = Circuit::new();
    let vdd_node = ckt.node("vdd");
    ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd));
    let adder = WeightedAdder::build(
        &mut ckt,
        &tech,
        "add",
        vdd_node,
        weights,
        AdderSpec::paper_3x3(),
    );
    for (i, &d) in duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(vdd, cfg.frequency, d),
        );
    }
    let period = 1.0 / cfg.frequency;
    Fixture {
        circuit: ckt,
        output: adder.output,
        tran: Transient::new(
            period / cfg.steps_per_period as f64,
            cfg.periods as f64 * period,
        )
        .use_initial_conditions(),
        limited: true,
        rescue: Some(cfg.rescue.clone()),
    }
}

/// Largest |Vout − paper's Cadence column| over the Table II rows,
/// simulated by the campaign's transistor-level fixture, in mV.
fn table2_err_mv(cfg: &CampaignConfig, tally: &mut Tally) -> f64 {
    let period = 1.0 / cfg.frequency;
    let t_stop = cfg.periods as f64 * period;
    let t_from = t_stop - cfg.avg_periods as f64 * period;
    let mut worst = 0.0f64;
    for (i, (duties, weights)) in bench::TABLE2_CONFIGS.iter().enumerate() {
        let f = golden_fixture(cfg, duties, weights);
        let result = mssim::Session::new(&f.circuit)
            .with_device_limiting(true)
            .transient(&f.tran);
        match result {
            Ok(r) => {
                let v = r.voltage(f.output).average_between(t_from, t_stop);
                worst = worst.max((v - bench::TABLE2_PAPER_SIM[i]).abs());
            }
            Err(e) => tally.fail(format!("Table II row {i}: {e}")),
        }
    }
    worst * 1e3
}

/// The untraced run: end-to-end metrics.
pub fn run(seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    // The sweep keeps every core busy, so the kernel runs on all of them.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut calib = Calibration::new(workers);
    let mut setup_s = Vec::new();
    // Set-up reads the artifacts and runs one warm-up pass (thread spawn,
    // first-touch allocation).
    let mut timed_set_up = |calib: &mut Calibration| -> Result<Expected, String> {
        let t0 = Instant::now();
        let e = load_expected()?;
        std::hint::black_box(pass(&e, None));
        setup_s.push(t0.elapsed().as_secs_f64());
        calib.sample();
        Ok(e)
    };
    for _ in 1..SETUPS_BEFORE {
        timed_set_up(&mut calib)?;
    }
    let expected = timed_set_up(&mut calib)?;
    let mut lat = Latencies::new();
    let (mut verdicts, mut timed, mut passes) = (0u64, 0.0, Vec::new());
    while timed < seconds {
        let p = pass(&expected, None);
        calib.sample();
        timed += p.done_s[1];
        for (report, done) in p.reports.iter().zip(p.done_s) {
            for _ in &report.outcomes {
                lat.record((done * 1e9) as u64);
            }
            verdicts += report.outcomes.len() as u64;
        }
        passes.push(p.done_s[1]);
        check(&expected, &p, &mut tally);
    }
    for _ in 0..SETUPS_AFTER {
        timed_set_up(&mut calib)?;
    }
    let f = calib.factor();
    let notes = vec![format!(
        "{} passes, {verdicts} verdicts in {timed:.3} s timed; median pass {:.4} s raw; \
         host-speed factor {f:.4}; tail = p{} ({} samples beyond it)",
        passes.len(),
        median(&passes),
        TAIL_Q * 100.0,
        (lat.len() as f64 * (1.0 - TAIL_Q)).floor()
    )];
    let table2 = table2_err_mv(&expected.config, &mut tally);
    let mut out = Outcome::new(tally, notes);
    out.end_to_end(
        verdicts as f64 / (timed * f),
        lat.quantile_ns(0.5) * f / 1e3,
        lat.quantile_ns(TAIL_Q) * f / 1e3,
        median(&setup_s) * f,
        table2,
    );
    Ok(out)
}

/// One observed pass and one triage-only pass: fills `faults.*` and
/// `sweep.*`. Returns the observed pass for checking.
fn campaign_layers(expected: &Expected, tally: &mut Tally, out: &mut LayerMetrics) {
    let mut counters = Counters::default();
    let p = pass(expected, Some(&mut counters));
    check(expected, &p, tally);
    let wall = p.done_s[1];

    let tech = Technology::umc65_like();
    let spec = AdderSpec::paper_3x3();
    let t0 = Instant::now();
    let switch = switch_adder_triage(&tech, spec, &WEIGHTS, &DUTIES, &expected.config);
    let mos = weighted_adder_triage(&tech, spec, &WEIGHTS, &DUTIES, &expected.config);
    out.set("faults.triage_ms", t0.elapsed().as_nanos() as f64 / 1e6);
    if switch.is_err() || mos.is_err() {
        tally.fail("triage-only pass failed".into());
    }

    let (mut universe, mut classes, mut certified, mut rescues) = (0, 0, 0, 0);
    for r in &p.reports {
        universe += r.outcomes.len();
        classes += r.collapse.map_or(r.outcomes.len(), |c| c.classes);
        certified += r.triage.map_or(0, |t| t.masked + t.failed);
        rescues += r.rescue_attempts();
    }
    let points = counters.get("sweep.points");
    out.set("faults.universe", universe as f64);
    out.set("faults.classes", classes as f64);
    // Every campaign simulates its golden netlist besides the sweep.
    out.set("faults.transients", (points + 2) as f64);
    out.set("faults.triage_ratio", certified as f64 / universe as f64);
    out.set("faults.rescue_attempts", rescues as f64);
    let walls = &counters.sweep_wall_ns;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.set("sweep.points", points as f64);
    out.set("sweep.steals", counters.get("sweep.steals") as f64);
    out.set("sweep.point_ms", median(walls) / 1e6);
    out.set(
        "sweep.max_point_ms",
        walls.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    out.set(
        "sweep.busy_ratio",
        walls.iter().sum::<f64>() / 1e9 / (workers * wall),
    );
    out.sources.push(format!(
        "faults/sweep: one observed campaign pass ({wall:.3} s, {workers} sweep workers) and one triage-only pass"
    ));
}

/// The campaign layers as a probe for a workload that runs no campaign.
pub fn probe_layers(tally: &mut Tally, out: &mut LayerMetrics) {
    match load_expected() {
        Ok(expected) => campaign_layers(&expected, tally, out),
        Err(e) => {
            tally.fail(e);
            for (name, _) in layers::PER_LAYER {
                if name.starts_with("faults.") || name.starts_with("sweep.") {
                    out.set(name, f64::NAN);
                }
            }
        }
    }
}

/// The traced run: per-layer metrics plus `bench.trace_overhead`.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let expected = load_expected()?;
    let mut tally = Tally::default();
    let mut out = LayerMetrics::default();
    serve::probe_engine_layers(seed, &mut tally, &mut out);
    campaign_layers(&expected, &mut tally, &mut out);
    let golden = golden_fixture(&expected.config, &DUTIES, &WEIGHTS);
    layers::simulate_fixtures(std::slice::from_ref(&golden), 3, &mut out);
    out.sources
        .push("mssim: the transistor-level campaign's golden circuit, limited mode".into());

    let arm_s = crate::overhead_arm_seconds(seconds, start);
    let (mut plain, mut traced) = ((0usize, 0.0), (0usize, 0.0));
    while plain.1 + traced.1 < arm_s {
        for (observe, acc) in [(false, &mut plain), (true, &mut traced)] {
            let mut counters = Counters::default();
            let p = pass(&expected, observe.then_some(&mut counters));
            check(&expected, &p, &mut tally);
            acc.0 += p.reports.iter().map(|r| r.outcomes.len()).sum::<usize>();
            acc.1 += p.done_s[1];
        }
    }
    out.set(
        "bench.trace_overhead",
        (traced.0 as f64 / traced.1) / (plain.0 as f64 / plain.1),
    );
    let notes = std::mem::take(&mut out.sources);
    Ok(Outcome::traced(tally, notes, out))
}
