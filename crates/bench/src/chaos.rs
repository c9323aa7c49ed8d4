//! `repro chaos` — deterministic fault-injection harness for the
//! resilient inference engine.
//!
//! Serves seeded query streams through an [`InferenceEngine`] whose
//! switch-level tier is wrapped in a [`ChaosEvaluator`] injecting
//! non-convergence, NaN outputs and latency spikes on a schedule that is
//! a pure function of `(seed, call index)`. Time is a shared
//! [`ManualClock`], so deadline expiries, breaker cooldowns and retry
//! backoffs replay identically on every run — the whole
//! [`ChaosReport`] is bitwise-reproducible for a given
//! [`ChaosHarnessConfig`].
//!
//! Two streams run per invocation:
//!
//! * **baseline** — the acceptance stream: 1 % forced non-convergence
//!   plus rare NaNs and deadline-busting latency spikes. Gates:
//!   availability ≥ 99.9 %, zero panics, zero degraded answers outside
//!   their certified bound, zero classification divergences on
//!   full-fidelity answers.
//! * **storm** — a 60 % fault rate that must trip the per-tier circuit
//!   breaker; serving sheds to the analytic tier (flagged `degraded`)
//!   instead of erroring, so the same availability gates hold.
//!
//! Every degraded answer is checked against a chaos-free reference
//! engine of identical configuration; cache-shard poisoning is injected
//! at intervals and must be recovered (counted, never fatal). The
//! results land in the `chaos` section of `BENCH_mssim.json`, gated by
//! `bench_compare` in CI.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mssim::json::{Precision::Fixed, Value};
use pwm_perceptron::prelude::*;

use crate::serve::{serve_tech, uniform_stream, ServeConfig};

/// Chaos-harness knobs. Everything that feeds the injection schedule or
/// the clock lives here, so two runs with equal configs produce equal
/// [`ChaosReport`]s.
#[derive(Debug, Clone, Copy)]
pub struct ChaosHarnessConfig {
    /// Queries per stream.
    pub queries: usize,
    /// Stream + injection-schedule seed.
    pub seed: u64,
    /// Memo-cache duty resolution (levels).
    pub resolution: u32,
    /// Latency-spike magnitude, nanoseconds (must exceed the deadline to
    /// force timeout demotions).
    pub spike_ns: u64,
    /// Per-query deadline budget, nanoseconds.
    pub deadline_ns: u64,
    /// Manual-clock advance between queries, nanoseconds.
    pub step_ns: u64,
    /// Poison one cache shard every this many queries (0 = never).
    pub poison_every: usize,
}

impl Default for ChaosHarnessConfig {
    fn default() -> Self {
        ChaosHarnessConfig {
            queries: 2_000,
            seed: 0xC4405,
            resolution: 16,
            spike_ns: 100_000_000, // 100 ms — blows the 50 ms deadline
            deadline_ns: 50_000_000,
            step_ns: 1_000_000, // 1 ms of simulated time per query
            poison_every: 251,
        }
    }
}

/// One injected-fault mix (a stream of the harness).
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Stream name (`baseline` or `storm`).
    pub stream: &'static str,
    /// Forced non-convergence probability per evaluator call.
    pub fail_rate: f64,
    /// NaN-output probability per evaluator call.
    pub nan_rate: f64,
    /// Latency-spike probability per evaluator call.
    pub spike_rate: f64,
}

/// The acceptance mix: ISSUE-mandated 1 % circuit-tier fault rate plus
/// rare NaNs and spikes.
pub fn baseline_mix() -> FaultMix {
    FaultMix {
        stream: "baseline",
        fail_rate: 0.01,
        nan_rate: 0.002,
        spike_rate: 0.002,
    }
}

/// The breaker-tripping mix: a majority of calls fail, so the rolling
/// failure-rate window must open the breaker and serving must shed.
pub fn storm_mix() -> FaultMix {
    FaultMix {
        stream: "storm",
        fail_rate: 0.60,
        nan_rate: 0.05,
        spike_rate: 0.01,
    }
}

/// Metrics for one chaos stream. Contains no wall-clock figures — every
/// field is a deterministic function of the harness config.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosStreamReport {
    /// Stream name.
    pub stream: &'static str,
    /// Injected fault mix.
    pub mix: FaultMixRates,
    /// Queries served single-shot.
    pub queries: usize,
    /// Fraction of queries answered `Ok` (degraded included).
    pub availability: f64,
    /// Degraded answers (served below the demanded tier).
    pub degraded: usize,
    /// `degraded / queries`.
    pub degraded_rate: f64,
    /// Largest `|served − reference|` across degraded answers, volts.
    pub max_degraded_error_v: f64,
    /// Degraded answers whose error exceeded their certified bound.
    pub bound_violations: usize,
    /// Classification disagreements vs the chaos-free reference engine
    /// on full-fidelity (non-degraded) answers.
    pub divergences: usize,
    /// Panics that escaped the serving path.
    pub panics: usize,
    /// Retries performed by the resilience ladder.
    pub retries: u64,
    /// Ladder demotions.
    pub demotions: u64,
    /// Deadline expiries.
    pub deadline_exceeded: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Poisoned cache shards recovered by the engine.
    pub lock_poisoned: u64,
    /// Cache-shard poisonings injected by the harness.
    pub poison_injected: usize,
    /// Forced non-convergence faults the chaos evaluator injected.
    pub injected_fail: u64,
    /// NaN faults injected.
    pub injected_nan: u64,
    /// Latency spikes injected.
    pub injected_spike: u64,
    /// Fraction of queries answered `Ok` by a fresh batched pass over
    /// the same stream.
    pub batch_availability: f64,
    /// Degraded answers in the batched pass.
    pub batch_degraded: usize,
}

/// The fault-mix rates echoed into the report (kept separate from
/// [`FaultMix`] so the report derives `PartialEq` cleanly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMixRates {
    /// Forced non-convergence probability.
    pub fail: f64,
    /// NaN-output probability.
    pub nan: f64,
    /// Latency-spike probability.
    pub spike: f64,
}

/// Full `repro chaos` result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The 1 % acceptance stream.
    pub baseline: ChaosStreamReport,
    /// The breaker-tripping storm stream.
    pub storm: ChaosStreamReport,
}

impl ChaosReport {
    /// Acceptance-gate violations; an empty list means the run passes.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for s in [&self.baseline, &self.storm] {
            if s.availability < 0.999 {
                v.push(format!(
                    "{}: availability {:.4} < 0.999",
                    s.stream, s.availability
                ));
            }
            if s.batch_availability < 0.999 {
                v.push(format!(
                    "{}: batched availability {:.4} < 0.999",
                    s.stream, s.batch_availability
                ));
            }
            if s.panics > 0 {
                v.push(format!(
                    "{}: {} panic(s) escaped serving",
                    s.stream, s.panics
                ));
            }
            if s.bound_violations > 0 {
                v.push(format!(
                    "{}: {} degraded answer(s) outside the certified bound (max error {:.4} V)",
                    s.stream, s.bound_violations, s.max_degraded_error_v
                ));
            }
            if s.divergences > 0 {
                v.push(format!(
                    "{}: {} classification divergence(s) on full-fidelity answers",
                    s.stream, s.divergences
                ));
            }
            if s.poison_injected > 0 && s.lock_poisoned == 0 {
                v.push(format!(
                    "{}: {} shard poisonings injected but none recovered",
                    s.stream, s.poison_injected
                ));
            }
        }
        if self.storm.breaker_trips == 0 {
            v.push("storm: breaker never tripped — the storm is not a storm".to_string());
        }
        v
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shares one [`ChaosEvaluator`] between the engine (which consumes its
/// evaluators) and the harness (which reads the injection counters after
/// the run).
#[derive(Debug)]
struct SharedChaos(Arc<ChaosEvaluator<SwitchLevelEvaluator>>);

impl pwm_perceptron::Evaluator for SharedChaos {
    fn vout(
        &self,
        duties: &[DutyCycle],
        weights: &WeightVector,
    ) -> Result<mssim::units::Volts, CoreError> {
        self.0.vout(duties, weights)
    }

    fn vdd(&self) -> mssim::units::Volts {
        self.0.vdd()
    }

    fn tier(&self) -> Tier {
        Tier::SwitchLevel
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        self.0.evaluate(query)
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        self.0.evaluate_batch(queries)
    }
}

struct StreamRig {
    engine: InferenceEngine,
    chaos: Arc<ChaosEvaluator<SwitchLevelEvaluator>>,
    clock: Arc<ManualClock>,
}

fn rig(config: &ChaosHarnessConfig, mix: &FaultMix, salt: u64) -> StreamRig {
    let tech = serve_tech();
    let clock = Arc::new(ManualClock::new());
    let chaos = Arc::new(ChaosEvaluator::with_clock(
        SwitchLevelEvaluator::new(tech.clone()),
        ChaosConfig {
            seed: config.seed ^ salt,
            fail_rate: mix.fail_rate,
            nan_rate: mix.nan_rate,
            spike_rate: mix.spike_rate,
            spike_ns: config.spike_ns,
        },
        clock.clone(),
    ));
    let policy = ResiliencePolicy::new()
        .with_attempts(2)
        .with_backoff_ns(1_000_000)
        .with_deadline_ns(config.deadline_ns);
    let engine = InferenceEngine::new(tech.vdd)
        .with_switch_tier(SharedChaos(chaos.clone()))
        .with_policy(TierPolicy::switch_level())
        .with_cache(config.resolution, 1 << 16)
        .with_resilience_clock(policy, clock.clone());
    StreamRig {
        engine,
        chaos,
        clock,
    }
}

/// The chaos-free reference: identical tiers, policy and cache, no
/// injection and no resilience (a fault here is a harness bug).
fn reference_engine(config: &ChaosHarnessConfig) -> InferenceEngine {
    let tech = serve_tech();
    InferenceEngine::new(tech.vdd)
        .with_switch_tier(SwitchLevelEvaluator::new(tech))
        .with_policy(TierPolicy::switch_level())
        .with_cache(config.resolution, 1 << 16)
}

fn stream_queries(config: &ChaosHarnessConfig) -> Vec<Query> {
    uniform_stream(&ServeConfig {
        queries: config.queries,
        seed: config.seed,
        resolution: config.resolution,
        ..ServeConfig::default()
    })
}

/// Runs one fault mix over the stream: a single-query pass with
/// per-query reference checks and periodic shard poisoning, then a
/// fresh-rig batched pass for the batched-path availability gate.
fn run_stream(
    config: &ChaosHarnessConfig,
    mix: &FaultMix,
    stream: &[Query],
    reference: &InferenceEngine,
) -> ChaosStreamReport {
    let salt = splitmix64(u64::from_le_bytes(*b"chaosmix") ^ mix.stream.len() as u64)
        ^ (mix.fail_rate * 1e6) as u64;
    let r = rig(config, mix, salt);
    let threshold = 0.5 * r.engine.vdd().value();

    let mut ok = 0usize;
    let mut degraded = 0usize;
    let mut max_err = 0.0f64;
    let mut bound_violations = 0usize;
    let mut divergences = 0usize;
    let mut panics = 0usize;
    let mut poison_injected = 0usize;

    for (i, q) in stream.iter().enumerate() {
        if config.poison_every > 0 && i > 0 && i % config.poison_every == 0 {
            let shard =
                (splitmix64(config.seed ^ salt ^ i as u64) as usize) % MemoCache::shard_count();
            if let Some(cache) = r.engine.cache() {
                if cache.poison_shard(shard) {
                    poison_injected += 1;
                }
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| r.engine.evaluate(q)));
        match outcome {
            Err(_) => panics += 1,
            Ok(Err(_)) => {}
            Ok(Ok(eval)) => {
                ok += 1;
                let reference_vout = reference
                    .evaluate(q)
                    .expect("reference engine is fault-free")
                    .vout
                    .value();
                if eval.degraded {
                    degraded += 1;
                    let err = (eval.vout.value() - reference_vout).abs();
                    max_err = max_err.max(err);
                    if err > eval.error_bound {
                        bound_violations += 1;
                    }
                } else {
                    let fires = eval.vout.value() >= threshold;
                    let reference_fires = reference_vout >= threshold;
                    if fires != reference_fires {
                        divergences += 1;
                    }
                }
            }
        }
        r.clock.advance(config.step_ns);
    }
    // Touch every shard so outstanding poisonings are recovered and
    // counted before the report snapshot.
    if let Some(cache) = r.engine.cache() {
        let _ = cache.len();
    }
    let report = r.engine.report();
    let stats = report.resil;
    let [injected_fail, injected_nan, injected_spike] = r.chaos.injected();

    // Fresh rig for the batched pass: same schedule seed, fresh call
    // counter, fresh breakers.
    let batch_rig = rig(config, mix, salt);
    let mut batch_ok = 0usize;
    let mut batch_degraded = 0usize;
    match catch_unwind(AssertUnwindSafe(|| batch_rig.engine.evaluate_batch(stream))) {
        Err(_) => panics += 1,
        Ok(results) => {
            for eval in results.into_iter().flatten() {
                batch_ok += 1;
                if eval.degraded {
                    batch_degraded += 1;
                }
            }
        }
    }

    let n = stream.len().max(1);
    ChaosStreamReport {
        stream: mix.stream,
        mix: FaultMixRates {
            fail: mix.fail_rate,
            nan: mix.nan_rate,
            spike: mix.spike_rate,
        },
        queries: stream.len(),
        availability: ok as f64 / n as f64,
        degraded,
        degraded_rate: degraded as f64 / n as f64,
        max_degraded_error_v: max_err,
        bound_violations,
        divergences,
        panics,
        retries: stats.retries,
        demotions: stats.demotions,
        deadline_exceeded: stats.deadline_exceeded,
        breaker_trips: stats.breaker_trips,
        lock_poisoned: report.cache.lock_poisoned,
        poison_injected,
        injected_fail,
        injected_nan,
        injected_spike,
        batch_availability: batch_ok as f64 / n as f64,
        batch_degraded,
    }
}

/// Runs the full chaos harness: baseline and storm streams over the
/// same seeded queries.
pub fn run(config: &ChaosHarnessConfig) -> ChaosReport {
    let stream = stream_queries(config);
    let reference = reference_engine(config);
    ChaosReport {
        baseline: run_stream(config, &baseline_mix(), &stream, &reference),
        storm: run_stream(config, &storm_mix(), &stream, &reference),
    }
}

/// Builds the `chaos` section of the `mssim-bench-v1` document.
pub fn to_json(report: &ChaosReport, config: &ChaosHarnessConfig) -> Value {
    let fixed = |x: f64, digits| Value::float(x, Fixed(digits));
    let stream = |s: &ChaosStreamReport| {
        Value::object()
            .with("stream", s.stream)
            .with("fail_rate", fixed(s.mix.fail, 4))
            .with("nan_rate", fixed(s.mix.nan, 4))
            .with("spike_rate", fixed(s.mix.spike, 4))
            .with("queries", s.queries)
            .with("availability", fixed(s.availability, 6))
            .with("degraded", s.degraded)
            .with("degraded_rate", fixed(s.degraded_rate, 6))
            .with("max_degraded_error_v", fixed(s.max_degraded_error_v, 6))
            .with("bound_violations", s.bound_violations)
            .with("divergences", s.divergences)
            .with("panics", s.panics)
            .with("retries", s.retries)
            .with("demotions", s.demotions)
            .with("deadline_exceeded", s.deadline_exceeded)
            .with("breaker_trips", s.breaker_trips)
            .with("lock_poisoned", s.lock_poisoned)
            .with("poison_injected", s.poison_injected)
            .with("injected_fail", s.injected_fail)
            .with("injected_nan", s.injected_nan)
            .with("injected_spike", s.injected_spike)
            .with("batch_availability", fixed(s.batch_availability, 6))
            .with("batch_degraded", s.batch_degraded)
    };
    let streams: Value = [&report.baseline, &report.storm]
        .into_iter()
        .map(stream)
        .collect();
    Value::object()
        .with("queries", config.queries)
        .with("seed", config.seed)
        .with("resolution", config.resolution)
        .with("spike_ns", config.spike_ns)
        .with("deadline_ns", config.deadline_ns)
        .with("step_ns", config.step_ns)
        .with("poison_every", config.poison_every)
        .with("streams", streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosHarnessConfig {
        ChaosHarnessConfig {
            queries: 200,
            poison_every: 61,
            ..ChaosHarnessConfig::default()
        }
    }

    #[test]
    fn chaos_report_is_seed_deterministic() {
        let c = tiny();
        let a = run(&c);
        let b = run(&c);
        assert_eq!(a, b, "same config must replay bitwise-identically");
        assert_eq!(to_json(&a, &c), to_json(&b, &c));
    }

    #[test]
    fn baseline_stream_passes_the_acceptance_gates() {
        let c = tiny();
        let report = run(&c);
        let violations = report.violations();
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        assert!(report.baseline.availability >= 0.999);
        assert!(report.baseline.injected_fail > 0, "faults were injected");
        assert!(
            report.storm.breaker_trips >= 1,
            "the storm must trip the breaker"
        );
        assert!(report.storm.degraded > 0, "storm serving degrades");
    }

    #[test]
    fn distinct_seeds_change_the_injection_trace() {
        let a = run(&tiny());
        let b = run(&ChaosHarnessConfig {
            seed: 0xDEAD,
            ..tiny()
        });
        assert_ne!(
            (a.baseline.injected_fail, a.baseline.retries),
            (b.baseline.injected_fail, b.baseline.retries),
        );
    }
}
