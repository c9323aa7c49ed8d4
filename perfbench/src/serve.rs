//! The engine workloads — `serve_hotset`, `serve_churn` and
//! `circuit_cold` — each one closed-loop client thread sending single
//! queries to an `InferenceEngine` and waiting for every answer.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pwm_perceptron::prelude::*;
use pwmcell::{analytic, SimQuality, Technology};

use crate::calib::Calibration;
use crate::layers::{self, Counters, LayerMetrics};
use crate::stats::{median, Latencies, SplitMix};
use crate::{campaign, Outcome, Tally};

/// The engine's memo-cache capacity (entries).
const CACHE_CAPACITY: usize = 1 << 16;

/// Weight vectors the serving streams draw from (three of the paper's
/// Table II rows).
const SERVE_POOL: [[u32; 3]; 3] = [[7, 7, 7], [1, 2, 4], [7, 3, 4]];

/// Distinct pairs in `serve_hotset`'s hot set.
const HOT_SET: usize = 32;
/// One query in every `HOT_GROUP` is a uniform grid query (5 %); the
/// position inside each group is seeded. Stratifying keeps the miss
/// count of a run from drifting with the seed.
const HOT_GROUP: usize = 20;

/// Set-ups timed before and after the timed phase; `setup_s` is the
/// median of all of them. Spreading them over the run keeps one burst
/// of host interference at start-up from setting the figure.
pub const SETUPS_BEFORE: usize = 2;
pub const SETUPS_AFTER: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hotset,
    Churn,
    Cold,
}

/// Duty grid × weight pool: every query a workload sends is one key of
/// this grid, so cache quantization is the identity.
struct Grid {
    levels: u32,
    pool: Vec<[u32; 3]>,
}

impl Grid {
    fn keys(&self) -> usize {
        self.pool.len() * (self.levels as usize).pow(3)
    }

    fn split(&self, key: usize) -> ([f64; 3], [u32; 3]) {
        let l = self.levels as usize;
        let top = (self.levels - 1) as f64;
        let (w, rest) = (key / l.pow(3), key % l.pow(3));
        let idx = [rest / (l * l), (rest / l) % l, rest % l];
        (idx.map(|i| i as f64 / top), self.pool[w])
    }

    fn query(&self, key: usize) -> Query {
        let (duties, weights) = self.split(key);
        Query::from_raw(&duties, &weights, 3).expect("grid queries are valid")
    }

    /// Paper Eq. 2 for `key` at supply `vdd`.
    fn eq2(&self, key: usize, vdd: f64) -> f64 {
        let (duties, weights) = self.split(key);
        analytic::adder_vout(vdd, &duties, &weights, 3)
    }

    /// The key of exact grid duties and a pool weight vector.
    fn key_of(&self, duties: &[f64; 3], weights: &[u32; 3]) -> usize {
        let l = self.levels as usize;
        let top = (self.levels - 1) as f64;
        let w = self
            .pool
            .iter()
            .position(|p| p == weights)
            .expect("weights are in the pool");
        let idx = duties.map(|d| {
            let i = (d * top).round();
            assert!((i / top - d).abs() < 1e-12, "duty {d} is off the grid");
            i as usize
        });
        ((w * l + idx[0]) * l + idx[1]) * l + idx[2]
    }
}

/// Fixed parameters of one engine workload.
struct Spec {
    kind: Kind,
    tech: Technology,
    grid: Grid,
    policy: TierPolicy,
    circuit_tier: bool,
    /// Serve through the default `ResiliencePolicy` (ladder, breakers).
    resilient: bool,
    /// Ops per timed block; answers are checked between blocks.
    block: usize,
    /// The tail percentile reported as `latency_tail_us`: the highest
    /// that keeps at least ten samples beyond it at the benchmark's run
    /// length on a 2-core host.
    tail_q: f64,
    /// Ops in a traced run's fixed-length counting pass.
    count_ops: usize,
    /// Misses timed against the direct evaluator in a traced run.
    miss_sample: usize,
}

impl Spec {
    fn new(kind: Kind) -> Spec {
        match kind {
            Kind::Hotset => Spec {
                kind,
                tech: bench::serve::serve_tech(),
                grid: Grid {
                    levels: 16,
                    pool: SERVE_POOL.to_vec(),
                },
                policy: TierPolicy::circuit(),
                circuit_tier: true,
                resilient: true,
                block: 256,
                tail_q: 0.999,
                count_ops: 2000,
                miss_sample: 5,
            },
            Kind::Churn => Spec {
                kind,
                tech: bench::serve::serve_tech(),
                grid: Grid {
                    levels: 40,
                    pool: SERVE_POOL.to_vec(),
                },
                policy: TierPolicy::switch_level(),
                circuit_tier: false,
                resilient: false,
                block: 32_768,
                tail_q: 0.9999,
                count_ops: 200_000,
                miss_sample: 2000,
            },
            Kind::Cold => Spec {
                kind,
                tech: Technology::umc65_like(),
                // 21 levels hold every Table II duty (multiples of 5 %).
                grid: Grid {
                    levels: 21,
                    pool: bench::TABLE2_CONFIGS.iter().map(|(_, w)| *w).collect(),
                },
                policy: TierPolicy::circuit(),
                circuit_tier: true,
                resilient: false,
                block: 1,
                tail_q: 0.75,
                count_ops: 8,
                miss_sample: 3,
            },
        }
    }

    fn engine(&self) -> InferenceEngine {
        let mut engine = InferenceEngine::new(self.tech.vdd)
            .with_switch_tier(SwitchLevelEvaluator::new(self.tech.clone()));
        if self.circuit_tier {
            engine = engine
                .with_circuit_tier(CircuitEvaluator::new(self.tech.clone(), SimQuality::fast()));
        }
        engine = engine
            .with_policy(self.policy)
            .with_cache(self.grid.levels, CACHE_CAPACITY);
        if self.resilient {
            engine = engine.with_resilience(ResiliencePolicy::default());
        }
        engine
    }

    /// The evaluator a miss of this workload runs, called directly.
    fn direct(&self) -> Box<dyn Evaluator> {
        if self.circuit_tier {
            Box::new(CircuitEvaluator::new(self.tech.clone(), SimQuality::fast()))
        } else {
            Box::new(SwitchLevelEvaluator::new(self.tech.clone()))
        }
    }

    /// How many Table II rows lead this workload's stream.
    fn table2_keys_in_stream(&self) -> u64 {
        if self.kind == Kind::Cold {
            bench::TABLE2_CONFIGS.len() as u64
        } else {
            0
        }
    }

    /// Keys of the six Table II rows, where the grid holds them.
    fn table2_keys(&self) -> Vec<usize> {
        bench::TABLE2_CONFIGS
            .iter()
            .map(|(d, w)| self.grid.key_of(d, w))
            .collect()
    }
}

/// The seeded query stream of a workload.
enum Stream {
    Hotset {
        rng: SplitMix,
        hot: Vec<usize>,
        pos: usize,
        uniform_at: usize,
    },
    Churn {
        rng: SplitMix,
    },
    Cold {
        rng: SplitMix,
        head: Vec<usize>,
        seen: HashSet<usize>,
        /// Queries drawn after the head; the weight vector cycles
        /// through the pool so every run sends the same mix.
        drawn: usize,
        pool: usize,
    },
}

impl Stream {
    fn new(spec: &Spec, seed: u64) -> Stream {
        let mut rng = SplitMix::new(seed);
        let keys = spec.grid.keys();
        match spec.kind {
            Kind::Hotset => {
                let mut hot = Vec::with_capacity(HOT_SET);
                while hot.len() < HOT_SET {
                    let k = rng.below(keys);
                    if !hot.contains(&k) {
                        hot.push(k);
                    }
                }
                Stream::Hotset {
                    rng,
                    hot,
                    pos: 0,
                    uniform_at: 0,
                }
            }
            Kind::Churn => Stream::Churn { rng },
            Kind::Cold => {
                // The Table II rows lead, so every run answers them.
                let head = spec.table2_keys();
                let seen = head.iter().copied().collect();
                Stream::Cold {
                    rng,
                    head: head.into_iter().rev().collect(),
                    seen,
                    drawn: 0,
                    pool: spec.grid.pool.len(),
                }
            }
        }
    }

    fn next_key(&mut self, keys: usize) -> usize {
        match self {
            Stream::Hotset {
                rng,
                hot,
                pos,
                uniform_at,
            } => {
                if *pos % HOT_GROUP == 0 {
                    *uniform_at = *pos + rng.below(HOT_GROUP);
                }
                let key = if *pos == *uniform_at {
                    rng.below(keys)
                } else {
                    hot[rng.below(hot.len())]
                };
                *pos += 1;
                key
            }
            Stream::Churn { rng } => rng.below(keys),
            Stream::Cold {
                rng,
                head,
                seen,
                drawn,
                pool,
            } => head.pop().unwrap_or_else(|| {
                assert!(seen.len() < keys, "cold stream exhausted its grid");
                let per_weight = keys / *pool;
                let base = (*drawn % *pool) * per_weight;
                *drawn += 1;
                loop {
                    let k = base + rng.below(per_weight);
                    if seen.insert(k) {
                        break k;
                    }
                }
            }),
        }
    }

    /// The hot set (empty for other streams).
    fn hot(&self) -> &[usize] {
        match self {
            Stream::Hotset { hot, .. } => hot,
            _ => &[],
        }
    }
}

/// A built, warmed engine with its stream, ready to serve.
struct Served {
    engine: InferenceEngine,
    stream: Stream,
}

/// Builds the engine and brings it to its serving state: the hot set
/// cached (`serve_hotset`), the cache filled to capacity with distinct
/// keys (`serve_churn`), or the solver warmed by one off-grid query
/// (`circuit_cold`).
fn set_up(spec: &Spec, seed: u64) -> Served {
    let engine = spec.engine();
    let stream = Stream::new(spec, seed);
    match spec.kind {
        Kind::Hotset => {
            for &k in stream.hot() {
                engine.evaluate(&spec.grid.query(k)).expect("hot set warms");
            }
        }
        Kind::Churn => {
            let mut rng = SplitMix::new(seed ^ 0xF111);
            let mut keys: Vec<u32> = (0..spec.grid.keys() as u32).collect();
            for i in 0..CACHE_CAPACITY {
                let j = i + rng.below(keys.len() - i);
                keys.swap(i, j);
                engine
                    .evaluate(&spec.grid.query(keys[i] as usize))
                    .expect("prefill query evaluates");
            }
        }
        Kind::Cold => {
            let warm = Query::from_raw(&[0.33, 0.66, 0.5], &[7, 7, 7], 3).expect("valid query");
            spec.direct()
                .evaluate(&warm)
                .expect("warm-up query evaluates");
        }
    }
    Served { engine, stream }
}

/// One op's answer as the client saw it.
struct Answer {
    key: usize,
    result: Result<Eval, String>,
}

fn call(
    engine: &InferenceEngine,
    q: &Query,
    observer: Option<&mut Counters>,
) -> Result<Eval, String> {
    let r = catch_unwind(AssertUnwindSafe(|| match observer {
        Some(obs) => engine.evaluate_observed(q, obs),
        None => engine.evaluate(q),
    }));
    match r {
        Ok(Ok(eval)) => Ok(eval),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("engine panicked".into()),
    }
}

/// Answer checks shared by the traced and untraced runs.
struct Checker<'a> {
    spec: &'a Spec,
    vdd: f64,
    bound: f64,
    /// Keys whose error entered `eq2_err_mv`.
    counted: Vec<bool>,
    /// `serve_churn`: the first answer seen per key, and how many
    /// answers that key got.
    first: Vec<f64>,
    answers: Vec<u32>,
    /// `circuit_cold`: the answers for the Table II keys.
    table2: Vec<(usize, f64)>,
    table2_keys: Vec<usize>,
    /// `serve_hotset`: a seeded sample of answers re-checked against a
    /// direct evaluator call.
    sample: Vec<(usize, f64)>,
    sample_rng: SplitMix,
}

/// Answers re-checked against the direct circuit evaluator per run.
const DIRECT_SAMPLE: usize = 8;

impl<'a> Checker<'a> {
    fn new(spec: &'a Spec, engine: &InferenceEngine, seed: u64) -> Self {
        let churn = spec.kind == Kind::Churn;
        Checker {
            spec,
            vdd: spec.tech.vdd.value(),
            bound: engine.policy().tier_bound(Tier::Analytic),
            counted: vec![false; spec.grid.keys()],
            first: if churn {
                vec![f64::NAN; spec.grid.keys()]
            } else {
                Vec::new()
            },
            answers: if churn {
                vec![0; spec.grid.keys()]
            } else {
                Vec::new()
            },
            table2: Vec::new(),
            table2_keys: if spec.kind == Kind::Cold {
                spec.table2_keys()
            } else {
                Vec::new()
            },
            sample: Vec::new(),
            sample_rng: SplitMix::new(seed ^ 0xC4EC),
        }
    }

    fn check(&mut self, a: &Answer, tally: &mut Tally) {
        tally.attempted += 1;
        let eval = match &a.result {
            Ok(e) => e,
            Err(msg) => return tally.fail(format!("key {}: {msg}", a.key)),
        };
        if eval.degraded {
            tally.degraded += 1;
        }
        let v = eval.vout.value();
        if !v.is_finite() {
            return tally.fail(format!("key {}: non-finite answer", a.key));
        }
        let err = (v - self.spec.grid.eq2(a.key, self.vdd)).abs();
        // Each distinct query counts once, so the hot set does not
        // outweigh the misses. A run of `circuit_cold` answers ~50
        // random queries, too few for their error to repeat between
        // seeds; its metric covers the Table II rows every run serves.
        if !self.counted[a.key]
            && (self.spec.kind != Kind::Cold || self.table2_keys.contains(&a.key))
        {
            self.counted[a.key] = true;
            tally.eq2_err(err);
        }
        if eval.degraded {
            return tally.fail(format!("key {}: degraded answer", a.key));
        }
        match self.spec.kind {
            Kind::Churn => {
                let first = &mut self.first[a.key];
                self.answers[a.key] += 1;
                if first.is_nan() {
                    *first = v;
                } else if first.to_bits() != v.to_bits() {
                    tally.fail(format!("key {}: answer changed between calls", a.key));
                }
            }
            Kind::Hotset | Kind::Cold => {
                if err > self.bound {
                    return tally.fail(format!(
                        "key {}: |Vout - Eq.2| = {:.1} mV exceeds the {:.0} mV analytic bound",
                        a.key,
                        err * 1e3,
                        self.bound * 1e3
                    ));
                }
                if self.table2_keys.contains(&a.key) {
                    self.table2.push((a.key, v));
                }
                if self.spec.kind == Kind::Hotset
                    && self.sample.len() < DIRECT_SAMPLE
                    && self.sample_rng.below(64) == 0
                {
                    self.sample.push((a.key, v));
                }
            }
        }
    }

    /// Post-run checks against a direct evaluator, outside any timing;
    /// returns `table2_err_mv`.
    fn finish(&self, tally: &mut Tally, notes: &mut Vec<String>) -> f64 {
        let spec = self.spec;
        match spec.kind {
            Kind::Hotset => {
                let direct = spec.direct();
                let threshold = 0.5 * self.vdd;
                let mut max_diff = 0.0f64;
                for &(key, v) in &self.sample {
                    let d = direct
                        .evaluate(&spec.grid.query(key))
                        .map(|e| e.vout.value())
                        .unwrap_or(f64::NAN);
                    max_diff = max_diff.max((d - v).abs());
                    if (d >= threshold) != (v >= threshold) {
                        tally.fail(format!(
                            "key {key}: classification differs from a direct call"
                        ));
                    }
                }
                notes.push(format!(
                    "direct circuit check: {} sampled answers, max |engine - direct| = {max_diff:e} V",
                    self.sample.len()
                ));
            }
            Kind::Churn => {
                let direct = spec.direct();
                let mut keys = 0;
                for (key, &v) in self.first.iter().enumerate() {
                    if v.is_nan() {
                        continue;
                    }
                    keys += 1;
                    let d = direct
                        .evaluate(&spec.grid.query(key))
                        .map(|e| e.vout.value());
                    if d.map_or(true, |d| d.to_bits() != v.to_bits()) {
                        for _ in 0..self.answers[key] {
                            tally.fail(format!("key {key}: answer differs from a direct call"));
                        }
                    }
                }
                notes.push(format!(
                    "direct switch-level check: every answer of {keys} distinct keys compared"
                ));
            }
            Kind::Cold => {}
        }
        self.table2_err_mv(tally)
    }

    /// Largest |Vout − paper's Cadence column| over the Table II rows:
    /// from the served answers on `circuit_cold`, from a direct call of
    /// the workload's answering tier otherwise.
    fn table2_err_mv(&self, tally: &mut Tally) -> f64 {
        let spec = self.spec;
        let mut worst = 0.0f64;
        for (i, (duties, weights)) in bench::TABLE2_CONFIGS.iter().enumerate() {
            let v = if spec.kind == Kind::Cold {
                let key = self.table2_keys[i];
                self.table2.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
            } else {
                Query::from_raw(duties, weights, 3)
                    .ok()
                    .and_then(|q| spec.direct().evaluate(&q).ok())
                    .map(|e| e.vout.value())
            };
            match v {
                Some(v) => worst = worst.max((v - bench::TABLE2_PAPER_SIM[i]).abs()),
                None => tally.fail(format!("Table II row {i} was not answered")),
            }
        }
        worst * 1e3
    }
}

/// Serves the stream in blocks until `until` (op count, or seconds of
/// timed work): each block's queries are generated first, then served
/// and timed, then checked; `calib` samples the host speed after every
/// block. Returns (ops, timed seconds).
#[allow(clippy::too_many_arguments)]
fn serve(
    spec: &Spec,
    served: &mut Served,
    checker: &mut Checker,
    tally: &mut Tally,
    lat: &mut Latencies,
    mut observer: Option<&mut Counters>,
    mut calib: Option<&mut Calibration>,
    until: Until,
    mut on_answer: impl FnMut(&Answer, u64),
) -> (u64, f64) {
    let keys = spec.grid.keys();
    let block = spec.block;
    let (mut ops, mut timed) = (0u64, 0.0);
    let mut queries: Vec<(usize, Query)> = Vec::with_capacity(block);
    let mut answers: Vec<(Answer, u64)> = Vec::with_capacity(block);
    loop {
        let n = match until {
            Until::Ops(total) if ops >= total => break,
            Until::Ops(total) => block.min((total - ops) as usize),
            // A timed run always serves the stream's Table II head.
            Until::Seconds(s) if timed >= s && ops >= spec.table2_keys_in_stream() => break,
            Until::Seconds(_) => block,
        };
        queries.clear();
        queries.extend((0..n).map(|_| {
            let k = served.stream.next_key(keys);
            (k, spec.grid.query(k))
        }));
        answers.clear();
        let t_block = Instant::now();
        for (key, q) in &queries {
            let t0 = Instant::now();
            let result = call(&served.engine, q, observer.as_deref_mut());
            let ns = t0.elapsed().as_nanos() as u64;
            answers.push((Answer { key: *key, result }, ns));
        }
        timed += t_block.elapsed().as_secs_f64();
        if let Some(c) = calib.as_deref_mut() {
            c.sample();
        }
        for (a, ns) in &answers {
            lat.record(*ns);
            checker.check(a, tally);
            on_answer(a, *ns);
        }
        ops += n as u64;
    }
    (ops, timed)
}

#[derive(Clone, Copy)]
enum Until {
    Ops(u64),
    Seconds(f64),
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let spec = Spec::new(kind);
    let mut calib = Calibration::new(1);
    let mut setup_s = Vec::new();
    let mut timed_set_up = |calib: &mut Calibration| {
        let t0 = Instant::now();
        let served = set_up(&spec, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        calib.sample();
        served
    };
    for _ in 1..SETUPS_BEFORE {
        drop(timed_set_up(&mut calib));
    }
    let mut served = timed_set_up(&mut calib);
    let mut tally = Tally::default();
    let mut checker = Checker::new(&spec, &served.engine, seed);
    let mut lat = Latencies::new();
    let before = served.engine.report();
    let (ops, timed) = serve(
        &spec,
        &mut served,
        &mut checker,
        &mut tally,
        &mut lat,
        None,
        Some(&mut calib),
        Until::Seconds(seconds),
        |_, _| {},
    );
    let after = served.engine.report();
    drop(served);
    for _ in 0..SETUPS_AFTER {
        drop(timed_set_up(&mut calib));
    }
    let f = calib.factor();
    let mut notes = vec![
        format!(
            "{ops} ops in {timed:.3} s timed; raw throughput {:.6} 1/s; host-speed factor {f:.4}",
            ops as f64 / timed
        ),
        format!(
            "hit ratio {:.4}; tail = p{} ({} samples beyond it)",
            (after.cache.hits - before.cache.hits) as f64
                / (after.queries - before.queries).max(1) as f64,
            spec.tail_q * 100.0,
            (lat.len() as f64 * (1.0 - spec.tail_q)).floor()
        ),
    ];
    let table2_err_mv = checker.finish(&mut tally, &mut notes);
    let mut out = Outcome::new(tally, notes);
    out.end_to_end(
        ops as f64 / (timed * f),
        lat.quantile_ns(0.5) * f / 1e3,
        lat.quantile_ns(spec.tail_q) * f / 1e3,
        median(&setup_s) * f,
        table2_err_mv,
    );
    out
}

/// Per-tier evaluation, cache and resilience counts between two
/// engine reports.
fn engine_layers(before: &InferReport, after: &InferReport, out: &mut LayerMetrics) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let queries = d(after.queries, before.queries);
    out.set(
        "infer.hit_ratio",
        d(after.cache.hits, before.cache.hits) / queries.max(1.0),
    );
    out.set(
        "infer.insertions",
        d(after.cache.insertions, before.cache.insertions),
    );
    out.set(
        "infer.evictions",
        d(after.cache.evictions, before.cache.evictions),
    );
    out.set(
        "infer.evals.circuit",
        d(after.evals(Tier::Circuit), before.evals(Tier::Circuit)),
    );
    out.set(
        "infer.evals.switch_level",
        d(
            after.evals(Tier::SwitchLevel),
            before.evals(Tier::SwitchLevel),
        ),
    );
    let (r0, r1) = (before.resil, after.resil);
    out.set("resil.retries", d(r1.retries, r0.retries));
    out.set("resil.demotions", d(r1.demotions, r0.demotions));
    out.set("resil.degraded", d(r1.degraded_served, r0.degraded_served));
    out.set("resil.breaker_trips", d(r1.breaker_trips, r0.breaker_trips));
}

/// The engine layers of a traced run on `spec`'s stream: a fixed-length
/// counting pass with a counter observer attached and every call timed,
/// then direct evaluator calls on the pass's first misses. Fills
/// `infer.*`, `resil.*` and `eval.*`, and the circuit-tier layers
/// (`pwmcell.*`, and the solver's when `with_solver`). Returns the
/// served engine and its checker for the overhead arm.
fn traced_layers<'s>(
    spec: &'s Spec,
    seed: u64,
    with_solver: bool,
    tally: &mut Tally,
    out: &mut LayerMetrics,
) -> (Served, Checker<'s>) {
    let mut served = set_up(spec, seed);
    let mut checker = Checker::new(spec, &served.engine, seed);
    let mut lat = Latencies::new();
    let mut counters = Counters::default();
    let mut hit_ns = Vec::new();
    let mut misses: Vec<(usize, f64)> = Vec::new();
    let before = served.engine.report();
    serve(
        spec,
        &mut served,
        &mut checker,
        tally,
        &mut lat,
        Some(&mut counters),
        None,
        Until::Ops(spec.count_ops as u64),
        |a, ns| match &a.result {
            Ok(e) if e.cached => hit_ns.push(ns as f64),
            Ok(_) if misses.len() < spec.miss_sample => misses.push((a.key, ns as f64)),
            _ => {}
        },
    );
    let after = served.engine.report();
    engine_layers(&before, &after, out);

    if hit_ns.is_empty() {
        // No query repeats on this stream: time hits by asking the
        // misses again, after the counts are taken.
        for &(key, _) in &misses {
            let q = spec.grid.query(key);
            let t0 = Instant::now();
            let r = call(&served.engine, &q, None);
            hit_ns.push(t0.elapsed().as_nanos() as f64);
            assert!(r.is_ok_and(|e| e.cached), "a repeated query is a cache hit");
        }
    }
    out.set("infer.hit_us", median(&hit_ns) / 1e3);
    let miss_ns: Vec<f64> = misses.iter().map(|m| m.1).collect();
    out.set("infer.miss_us", median(&miss_ns) / 1e3);

    let queries: Vec<Query> = misses.iter().map(|&(k, _)| spec.grid.query(k)).collect();
    let switch = SwitchLevelEvaluator::new(spec.tech.clone());
    let switch_ns: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let e = switch.evaluate(q).expect("switch-level query evaluates");
            std::hint::black_box(e);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    out.set("eval.switch_us", median(&switch_ns) / 1e3);
    let circuit_queries = &queries[..queries.len().min(3)];
    let circuit_ms = layers::circuit_layers(
        &spec.tech,
        &SimQuality::fast(),
        circuit_queries,
        with_solver,
        out,
    );
    let direct_ns: Vec<f64> = if spec.circuit_tier {
        circuit_ms.iter().map(|ms| ms * 1e6).collect()
    } else {
        switch_ns
    };
    let self_miss: Vec<f64> = miss_ns
        .iter()
        .zip(&direct_ns)
        .map(|(m, d)| (m - d) / 1e3)
        .collect();
    out.set("infer.self_miss_us", median(&self_miss));
    out.sources.push(format!(
        "infer/resil/eval: {} ops of this workload's stream ({} misses timed against the direct evaluator)",
        spec.count_ops,
        misses.len()
    ));
    (served, checker)
}

/// The churn stream's engine layers as a probe for a workload that
/// serves no queries (`fault_campaign`).
pub fn probe_engine_layers(seed: u64, tally: &mut Tally, out: &mut LayerMetrics) {
    let spec = Spec::new(Kind::Churn);
    let probe = Spec {
        count_ops: 20_000,
        ..spec
    };
    let (_, checker) = traced_layers(&probe, seed, false, tally, out);
    checker.finish(tally, &mut Vec::new());
}

/// The traced run: per-layer metrics plus `bench.trace_overhead`.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let spec = Spec::new(kind);
    let mut tally = Tally::default();
    let mut out = LayerMetrics::default();
    let (mut served, mut checker) = traced_layers(&spec, seed, true, &mut tally, &mut out);
    campaign::probe_layers(&mut tally, &mut out);

    // Overhead arm: alternate untraced and traced blocks on the
    // continuing stream for the rest of the run's measuring time.
    let arm_s = crate::overhead_arm_seconds(seconds, start);
    let mut lat = Latencies::new();
    let mut counters = Counters::default();
    let (mut plain, mut traced) = ((0u64, 0.0), (0u64, 0.0));
    let block = Until::Ops(spec.block as u64);
    while plain.1 + traced.1 < arm_s {
        for (observe, acc) in [(false, &mut plain), (true, &mut traced)] {
            let (ops, s) = serve(
                &spec,
                &mut served,
                &mut checker,
                &mut tally,
                &mut lat,
                observe.then_some(&mut counters),
                None,
                block,
                |_, _| {},
            );
            acc.0 += ops;
            acc.1 += s;
        }
    }
    out.set(
        "bench.trace_overhead",
        (traced.0 as f64 / traced.1) / (plain.0 as f64 / plain.1),
    );
    let mut notes = std::mem::take(&mut out.sources);
    checker.finish(&mut tally, &mut notes);
    Outcome::traced(tally, notes, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_keys_round_trip_the_table2_rows() {
        let spec = Spec::new(Kind::Cold);
        for (key, (duties, weights)) in spec.table2_keys().into_iter().zip(bench::TABLE2_CONFIGS) {
            let (d, w) = spec.grid.split(key);
            assert_eq!(w, weights);
            for (a, b) in d.iter().zip(duties) {
                assert!((a - b).abs() < 1e-12, "{d:?} vs {duties:?}");
            }
        }
        assert_eq!(Spec::new(Kind::Churn).grid.keys(), 192_000);
    }

    #[test]
    fn streams_are_seed_deterministic() {
        for kind in [Kind::Hotset, Kind::Churn, Kind::Cold] {
            let spec = Spec::new(kind);
            let keys = spec.grid.keys();
            let take = |seed| {
                let mut s = Stream::new(&spec, seed);
                (0..400).map(|_| s.next_key(keys)).collect::<Vec<_>>()
            };
            assert_eq!(take(5), take(5));
            assert_ne!(take(5), take(6));
        }
    }

    #[test]
    fn hotset_stream_sends_one_uniform_query_per_group() {
        let spec = Spec::new(Kind::Hotset);
        let mut s = Stream::new(&spec, 3);
        let hot: Vec<usize> = s.hot().to_vec();
        let keys: Vec<usize> = (0..HOT_GROUP * 50)
            .map(|_| s.next_key(spec.grid.keys()))
            .collect();
        let cold = keys.iter().filter(|k| !hot.contains(k)).count();
        // A uniform draw lands in the hot set with probability 32/12288.
        assert!(
            (45..=50).contains(&cold),
            "{cold} uniform queries in 50 groups"
        );
    }

    #[test]
    fn cold_stream_leads_with_table2_and_never_repeats() {
        let spec = Spec::new(Kind::Cold);
        let mut s = Stream::new(&spec, 9);
        let keys: Vec<usize> = (0..300).map(|_| s.next_key(spec.grid.keys())).collect();
        assert_eq!(keys[..6], spec.table2_keys()[..]);
        let distinct: HashSet<&usize> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }
}
