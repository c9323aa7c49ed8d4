//! Compares two `BENCH_mssim.json` records and fails on regression.
//!
//! ```text
//! cargo run -p bench --release --bin bench_compare -- baseline.json new.json
//! ```
//!
//! The gate protects the plan-cache speedups two ways:
//!
//! 1. **Relative**: for every fixture whose baseline speedup is above 1×
//!    (i.e. where the compiled stamp plan beats the reference assembler),
//!    the new speedup must stay within 25% of the baseline.
//! 2. **Absolute floors** on the *new* record: every fixture must be at
//!    least 1.0× (the plan path never loses to the reference), and the
//!    batched-MOS headline `tran_adder3x3_mos` must be at least 5.0×.
//!
//! When **both** records carry a `serve` section (written by `repro
//! serve`), the inference-engine gates also run: hot-set cache hit rate
//! ≥ 90%, batched speedup over the naive per-query circuit path ≥ 10×,
//! zero classification divergences, and the hot-set p99 latency within
//! 2× of the baseline. When either record lacks the section, these
//! skip with an info line.
//!
//! When the **new** record carries a `chaos` section (written by `repro
//! chaos`), the resilience gates run on each stream: availability (single
//! and batched) ≥ 99.9%, zero escaped panics, zero degraded answers
//! outside their certified bound, zero classification divergences on
//! full-fidelity answers. These are absolute floors — the baseline record
//! is not consulted — and are skipped with an info line when the section
//! is absent.
//!
//! Records are read with `mssim::json`, so the gate does not depend on
//! the layout of the file. A record that does not parse, whose `schema`
//! member is not `mssim-bench-v1`, or whose `serve`/`chaos` section is
//! present but lacks a gated field, exits 2.

use std::process::ExitCode;

use bench::hotpath::BENCH_SCHEMA;
use mssim::json::{self, Value};

/// Max tolerated fractional drop of a gated fixture's speedup.
const TOLERANCE: f64 = 0.25;

/// Every fixture in the new record must meet this speedup.
const GLOBAL_FLOOR: f64 = 1.0;

/// Fixture-specific absolute floors on the new record: `(name, floor)`.
/// `tran_adder3x3_mos` carries the batched-MOS tentpole's ≥5× contract.
const ENTRY_FLOORS: &[(&str, f64)] = &[("tran_adder3x3_mos", 5.0)];

/// Minimum hot-set cache hit rate in the new serve section.
const SERVE_HIT_RATE_FLOOR: f64 = 0.90;

/// Minimum batched speedup over the naive per-query circuit path.
const SERVE_SPEEDUP_FLOOR: f64 = 10.0;

/// Max tolerated hot-set p99 latency growth over the baseline record.
const SERVE_P99_GROWTH: f64 = 2.0;

/// Minimum availability of every chaos stream (single and batched pass).
const CHAOS_AVAILABILITY_FLOOR: f64 = 0.999;

/// One gate's outcome: `(label, measured value, bound, passed)`.
type Check = (String, f64, f64, bool);

/// Passes when `value >= bound`.
fn floor(label: String, value: f64, bound: f64) -> Check {
    (label, value, bound, value >= bound)
}

/// Passes when `value <= bound`.
fn ceiling(label: String, value: f64, bound: f64) -> Check {
    (label, value, bound, value <= bound)
}

/// Passes when the count `value` is exactly zero.
fn zero(label: String, value: f64) -> Check {
    (label, value, 0.0, value == 0.0)
}

/// Member `key` of `value` as a number.
fn num(value: &Value, key: &str) -> Result<f64, String> {
    let found = value.get(key).and_then(Value::as_f64);
    found.ok_or_else(|| format!("lacks a numeric `{key}`"))
}

/// The members of a named `streams` array.
fn streams(section: &Value) -> &[Value] {
    section
        .get("streams")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

/// `(name, speedup)` of every entry; no entries is an error.
fn entries<'a>(doc: &'a Value) -> Result<Vec<(&'a str, f64)>, String> {
    let rows = doc
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or_default();
    if rows.is_empty() {
        return Err("record has no entries".into());
    }
    let entry = |row: &'a Value| {
        let name = row.get("name").and_then(Value::as_str);
        let name = name.ok_or_else(|| "entry lacks a `name`".to_string())?;
        let speedup = num(row, "speedup").map_err(|e| format!("entry `{name}` {e}"))?;
        Ok((name, speedup))
    };
    rows.iter().map(entry).collect()
}

/// The serve gates' inputs `[speedup_vs_naive, divergences, hotset
/// p99_ns, hotset hit_rate]`; `None` when the section is absent.
fn serve(doc: &Value) -> Result<Option<[f64; 4]>, String> {
    let Some(section) = doc.get("serve") else {
        return Ok(None);
    };
    let is_hot = |s: &&Value| s.get("stream").and_then(Value::as_str) == Some("hotset");
    let hot = streams(section)
        .iter()
        .find(is_hot)
        .ok_or("serve section lacks a `hotset` stream")?;
    let read = |v, key| num(v, key).map_err(|e| format!("serve section {e}"));
    let gated = [
        read(section, "speedup_vs_naive")?,
        read(section, "divergences")?,
        read(hot, "p99_ns")?,
        read(hot, "hit_rate")?,
    ];
    Ok(Some(gated))
}

/// The serve gates, when both records carry a serve section.
fn serve_checks(baseline: &Value, fresh: &Value) -> Result<Option<Vec<Check>>, String> {
    let (Some([_, _, base_p99, _]), Some([speedup, divergences, p99, hit_rate])) =
        (serve(baseline)?, serve(fresh)?)
    else {
        return Ok(None);
    };
    Ok(Some(vec![
        floor("hotset hit_rate".into(), hit_rate, SERVE_HIT_RATE_FLOOR),
        floor("speedup_vs_naive".into(), speedup, SERVE_SPEEDUP_FLOOR),
        zero("divergences".into(), divergences),
        ceiling("hotset p99_ns".into(), p99, base_p99 * SERVE_P99_GROWTH),
    ]))
}

/// The chaos gates on every stream of the new record; `None` when it has
/// no chaos section. Absolute floors only: the baseline is not consulted.
fn chaos_checks(doc: &Value) -> Result<Option<Vec<Check>>, String> {
    let Some(section) = doc.get("chaos") else {
        return Ok(None);
    };
    if streams(section).is_empty() {
        return Err("chaos section has no streams".into());
    }
    let mut checks = Vec::new();
    for s in streams(section) {
        let name = s
            .get("stream")
            .and_then(Value::as_str)
            .ok_or("chaos stream lacks a `stream` name")?;
        let read = |key| num(s, key).map_err(|e| format!("chaos stream `{name}` {e}"));
        for key in ["availability", "batch_availability"] {
            checks.push(floor(
                format!("{name} {key}"),
                read(key)?,
                CHAOS_AVAILABILITY_FLOOR,
            ));
        }
        for key in ["panics", "bound_violations", "divergences"] {
            checks.push(zero(format!("{name} {key}"), read(key)?));
        }
    }
    Ok(Some(checks))
}

/// Prints `checks` under `title` and returns how many failed; `None`
/// prints the skip line instead.
fn report(title: &str, checks: Option<Vec<Check>>) -> usize {
    let Some(checks) = checks else {
        println!("bench_compare: {title} skipped (section absent)");
        return 0;
    };
    println!("bench_compare: {title}");
    let failed = |(label, value, bound, ok): &Check| {
        let verdict = if *ok { "ok  " } else { "FAIL" };
        println!("  {verdict} {label:<28} {value:.4} (bound {bound:.4})");
        !ok
    };
    checks.iter().filter(|c| failed(c)).count()
}

/// Reads and validates one record.
fn parse_record(text: &str, path: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("{path} is not an {BENCH_SCHEMA} record"));
    }
    Ok(doc)
}

/// Runs every gate and returns the number that failed, or an error for a
/// malformed record.
fn compare(baseline: &Value, fresh: &Value) -> Result<usize, String> {
    let (base_entries, new_entries) = (entries(baseline)?, entries(fresh)?);
    let (serve, chaos) = (serve_checks(baseline, fresh)?, chaos_checks(fresh)?);
    let mut failures = 0usize;
    println!(
        "bench_compare: plan-cache speedup gate (tolerance -{:.0}%)",
        TOLERANCE * 100.0
    );
    for &(name, base) in &base_entries {
        let Some(&(_, new)) = new_entries.iter().find(|(n, _)| *n == name) else {
            eprintln!("  FAIL {name}: fixture missing from new record");
            failures += 1;
            continue;
        };
        let min = base * (1.0 - TOLERANCE);
        let (verdict, note) = match (base > 1.0, new < min) {
            (true, true) => ("FAIL", format!(" (floor {min:.3}x)")),
            (true, false) => ("ok  ", format!(" (floor {min:.3}x)")),
            (false, _) => ("info", " (not gated: baseline at/below parity)".into()),
        };
        failures += usize::from(verdict == "FAIL");
        println!("  {verdict} {name:<20} baseline {base:.3}x -> new {new:.3}x{note}");
    }
    let floors = new_entries.iter().map(|&(name, speedup)| {
        let bound = ENTRY_FLOORS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(GLOBAL_FLOOR, |&(_, f)| f);
        floor(format!("{name} speedup"), speedup, bound)
    });
    failures += report(
        "absolute speedup floors on the new record",
        Some(floors.collect()),
    );
    failures += report("inference-engine serve gates", serve);
    failures += report("resilience chaos gates", chaos);
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <new.json>");
        return ExitCode::from(2);
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_record(&text, path))
    };
    let verdict = load(baseline_path).and_then(|baseline| compare(&baseline, &load(new_path)?));
    match verdict {
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
        Ok(0) => {
            println!("bench_compare: all gated fixtures within tolerance and above floors");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("bench_compare: {failures} fixture(s) regressed or fell below a floor");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_mssim.json"
        );
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn verdicts_do_not_depend_on_layout() {
        let text = committed();
        let pretty = parse_record(&text, "pretty").unwrap();
        let minified = parse_record(&pretty.to_compact(), "minified").unwrap();
        assert_eq!(compare(&pretty, &pretty), Ok(0));
        assert_eq!(compare(&minified, &minified), Ok(0));
        assert_eq!(compare(&pretty, &minified), Ok(0));
    }

    #[test]
    fn regressions_fail_and_absent_sections_skip() {
        let base = parse_record(&committed(), "base").unwrap();
        let mut fresh = base.clone();
        let Value::Object(members) = &mut fresh else {
            unreachable!()
        };
        members.retain(|(key, _)| key != "serve" && key != "chaos");
        assert_eq!(compare(&base, &fresh), Ok(0), "absent sections skip");
        let slow = Value::object()
            .with("name", "tran_adder3x3_mos")
            .with("speedup", 1u32);
        fresh.set("entries", vec![slow]);
        assert!(
            compare(&base, &fresh).unwrap() > 0,
            "a slowed fixture fails"
        );
    }

    #[test]
    fn malformed_records_are_errors() {
        let base = parse_record(&committed(), "base").unwrap();
        assert!(parse_record("{\"note\": \"mssim-bench-v1\"}", "t").is_err());
        assert!(parse_record("{\"schema\": \"mssim-bench-v1\",}", "t").is_err());
        for (section, field) in [("serve", "speedup_vs_naive"), ("chaos", "streams")] {
            let mut broken = base.clone();
            let Some(Value::Object(members)) = broken.get(section).cloned() else {
                unreachable!()
            };
            let kept: Vec<_> = members.into_iter().filter(|(k, _)| k != field).collect();
            broken.set(section, Value::Object(kept));
            let err = compare(&base, &broken).unwrap_err();
            assert!(err.contains(section), "{err}");
        }
    }
}
