//! The repository benchmark: four workloads driving `core` (`infer`,
//! `resilience`, `eval`, `faults`), `pwmcell` and `mssim` through their
//! public APIs, from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hotset --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root (the fault campaign reads the committed
//! `results/FAULTS_*.json`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Any failed correctness check makes `correct` false and
//! the exit code 1. See `perfbench/README.md` for the workloads and what
//! each metric should move.

mod calib;
mod campaign;
mod json;
mod layers;
mod serve;
mod stats;

use layers::LayerMetrics;
use serve::Kind;

/// The default `--seed`.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eq2_err_mv", "mV"),
    ("table2_err_mv", "mV"),
    ("ok_ratio", "ratio"),
    ("full_fidelity_ratio", "ratio"),
];

const WORKLOADS: [&str; 4] = [
    "serve_hotset",
    "serve_churn",
    "circuit_cold",
    "fault_campaign",
];

/// Correctness bookkeeping of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
    /// Σ and count of |Vout − Eq. 2| (volts) over the answers that
    /// enter `eq2_err_mv`.
    eq2_err_sum: f64,
    eq2_err_n: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Adds one answer's |Vout − Eq. 2| to `eq2_err_mv`.
    pub fn eq2_err(&mut self, err_v: f64) {
        self.eq2_err_sum += err_v;
        self.eq2_err_n += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }
}

/// A finished run: its checks, human-readable notes and metrics.
pub struct Outcome {
    tally: Tally,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new(tally: Tally, notes: Vec<String>) -> Self {
        Outcome {
            tally,
            notes,
            metrics: Vec::new(),
        }
    }

    /// Fills the end-to-end metrics; the checks supply the rest.
    pub fn end_to_end(
        &mut self,
        throughput: f64,
        p50_us: f64,
        tail_us: f64,
        setup_s: f64,
        table2_err_mv: f64,
    ) {
        let attempted = self.tally.attempted.max(1) as f64;
        let values = [
            throughput,
            p50_us,
            tail_us,
            setup_s,
            stats::peak_rss_mb(),
            self.tally.eq2_err_sum / self.tally.eq2_err_n as f64 * 1e3,
            table2_err_mv,
            1.0 - self.tally.failed.min(self.tally.attempted) as f64 / attempted,
            1.0 - self.tally.degraded as f64 / attempted,
        ];
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }

    pub fn traced(tally: Tally, notes: Vec<String>, layers: LayerMetrics) -> Self {
        Outcome {
            tally,
            notes,
            metrics: layers.ordered(),
        }
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn print(&self, workload: &str, seed: u64) {
        println!("perfbench {workload} seed {seed}");
        for note in &self.notes {
            println!("  {note}");
        }
        for f in &self.tally.failures {
            println!("  FAILED: {f}");
        }
        for (name, v, unit) in &self.metrics {
            println!("  {name:<26} {v:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*v),
                    json::quote(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed.min(self.tally.attempted),
            metrics.join(", ")
        );
    }
}

/// Seconds a traced run spends on its traced-vs-untraced overhead arm:
/// what is left of the run's measuring time after the layer passes
/// that started at `start`, but at least a quarter of it.
pub fn overhead_arm_seconds(seconds: f64, start: std::time::Instant) -> f64 {
    (seconds - start.elapsed().as_secs_f64()).max(seconds / 4.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let kind = match args.workload.as_str() {
        "serve_hotset" => Some(Kind::Hotset),
        "serve_churn" => Some(Kind::Churn),
        "circuit_cold" => Some(Kind::Cold),
        _ => None,
    };
    let outcome = match (kind, args.trace) {
        (Some(kind), false) => Ok(serve::run(kind, args.seed, args.seconds)),
        (Some(kind), true) => Ok(serve::run_traced(kind, args.seed, args.seconds)),
        (None, false) => campaign::run(args.seconds),
        (None, true) => campaign::run_traced(args.seed, args.seconds),
    };
    match outcome {
        Ok(o) => {
            o.print(&args.workload, args.seed);
            if !o.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
