//! Cross-checks two `mssim-faults-v2` records for triage soundness.
//!
//! ```text
//! cargo run -p bench --bin faults_compare -- triaged.json simulated.json
//! ```
//!
//! The first record comes from a triaged campaign (`repro faults`), the
//! second from a full simulated sweep of the same universe (`repro
//! faults --no-triage`). A statically certified verdict claims to be
//! *guaranteed*, so CI holds it to exactly that standard: every fault
//! label must land in the same outcome class in both records, and any
//! divergence on a `guaranteed_*` row is a soundness contradiction that
//! fails the build. Records are read with `mssim::json`, so the gate
//! does not depend on the layout of the file.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::campaign::FAULTS_SCHEMA;
use mssim::json::{self, Value};

/// One outcome row: the class it landed in and its static verdict tag
/// (`None` when the row was simulated).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    class: String,
    static_verdict: Option<String>,
}

/// Reads a record's outcome rows into a label-keyed map. Returns an
/// error description when the record does not parse, has another schema,
/// misses a field or repeats a label.
fn parse_outcomes(text: &str, path: &str) -> Result<BTreeMap<String, Row>, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(FAULTS_SCHEMA) {
        return Err(format!("{path}: not an {FAULTS_SCHEMA} record"));
    }
    let outcomes = doc
        .get("outcomes")
        .and_then(Value::as_array)
        .unwrap_or_default();
    if outcomes.is_empty() {
        return Err(format!("{path}: no outcome rows found"));
    }
    let mut rows = BTreeMap::new();
    for outcome in outcomes {
        let field = |key: &str| {
            outcome
                .get(key)
                .ok_or_else(|| format!("{path}: outcome lacks `{key}`"))
        };
        let label = field("label")?
            .as_str()
            .ok_or_else(|| format!("{path}: non-string label"))?;
        let class = field("class")?
            .as_str()
            .ok_or_else(|| format!("{path}: '{label}' has a non-string class"))?;
        let row = Row {
            class: class.to_string(),
            static_verdict: field("static_verdict")?.as_str().map(str::to_string),
        };
        if rows.insert(label.to_string(), row).is_some() {
            return Err(format!("{path}: duplicate fault label '{label}'"));
        }
    }
    Ok(rows)
}

fn run(triaged_path: &str, simulated_path: &str) -> Result<usize, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let triaged = parse_outcomes(&read(triaged_path)?, triaged_path)?;
    let simulated = parse_outcomes(&read(simulated_path)?, simulated_path)?;

    if triaged.len() != simulated.len() {
        return Err(format!(
            "universe mismatch: {} outcomes in {triaged_path}, {} in {simulated_path}",
            triaged.len(),
            simulated.len()
        ));
    }
    let mut contradictions = 0usize;
    let mut certified = 0usize;
    for (label, t) in &triaged {
        let Some(s) = simulated.get(label) else {
            return Err(format!("{simulated_path}: missing fault '{label}'"));
        };
        if t.static_verdict.is_some() {
            certified += 1;
        }
        if t.class != s.class {
            contradictions += 1;
            eprintln!(
                "CONTRADICTION {label}: triaged={} ({}), simulated={}",
                t.class,
                t.static_verdict.as_deref().unwrap_or("simulated"),
                s.class
            );
        }
    }
    println!(
        "faults_compare: {} outcomes, {certified} statically certified, {contradictions} contradiction(s)",
        triaged.len()
    );
    Ok(contradictions)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [triaged, simulated] = args.as_slice() else {
        eprintln!("usage: faults_compare <triaged.json> <simulated.json>");
        return ExitCode::from(2);
    };
    match run(triaged, simulated) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("faults_compare: static verdicts contradict the simulated sweep — failing");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("faults_compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_other_schemas_and_malformed_rows() {
        let record =
            |rows: &str| format!(r#"{{"schema": "{FAULTS_SCHEMA}", "outcomes": [{rows}]}}"#);
        let row = r#"{"label": "a", "class": "masked", "static_verdict": null}"#;
        assert_eq!(
            parse_outcomes(&record(row), "t").unwrap()["a"].class,
            "masked"
        );
        let errors = [
            (
                "{\"schema\": \"mssim-faults-v1\"}".to_string(),
                "not an mssim-faults-v2",
            ),
            (record(""), "no outcome rows"),
            (
                record(r#"{"label": "a", "static_verdict": null}"#),
                "lacks `class`",
            ),
            (
                record(&format!("{row}, {row}")),
                "duplicate fault label 'a'",
            ),
            (record(row).replace('}', ""), "invalid JSON"),
        ];
        for (text, message) in errors {
            let err = parse_outcomes(&text, "t").unwrap_err();
            assert!(err.contains(message), "{err}");
        }
    }

    /// The committed records give the same rows, and no contradictions
    /// against themselves, whether pretty-printed or minified; every
    /// statically certified row carries its verdict tag.
    #[test]
    fn verdicts_do_not_depend_on_layout() {
        let dir = std::env::temp_dir().join(format!("faults_compare_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["FAULTS_mssim.json", "FAULTS_mos_mssim.json"] {
            let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = json::parse(&text).unwrap();
            let rows = parse_outcomes(&text, &path).unwrap();
            let certified = ["masked", "failed"].map(|k| doc.get("triage").and_then(|t| t.get(k)));
            let certified: f64 = certified
                .iter()
                .map(|v| v.and_then(Value::as_f64).unwrap())
                .sum();
            let tagged = rows.values().filter(|r| r.static_verdict.is_some()).count();
            assert_eq!(tagged as f64, certified, "{name}");
            let minified = dir.join(name);
            std::fs::write(&minified, doc.to_compact()).unwrap();
            let minified = minified.to_str().unwrap();
            assert_eq!(parse_outcomes(&doc.to_compact(), name), Ok(rows));
            assert_eq!(run(&path, minified), Ok(0));
            assert_eq!(run(minified, &path), Ok(0));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
