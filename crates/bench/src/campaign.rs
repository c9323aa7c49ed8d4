//! `repro faults` — export and gating of the fault-injection campaign.
//!
//! The campaign itself lives in [`pwm_perceptron::faults`]; this module
//! renders its report as the schema-versioned `mssim-faults-v2` JSON
//! record (`results/FAULTS_mssim.json`) and implements the CI gate: every
//! enumerated fault must land in exactly one of the four outcome classes
//! with a coherent record behind it, or the `repro` run fails.
//!
//! v2 adds per-row `static_verdict`/`enclosure` fields and a top-level
//! `triage` object (all `null` on non-triaged runs, so the collapsed /
//! uncollapsed `cmp` gate in CI keeps working bitwise): a row resolved by
//! the static triage tier carries its guaranteed verdict and Vout
//! enclosure instead of a measured output.

use mssim::json::{Precision, Value};
use pwm_perceptron::faults::{CampaignConfig, CampaignReport, FaultClass};

/// Schema tag of the exported record.
pub const FAULTS_SCHEMA: &str = "mssim-faults-v2";

/// The four class tags, in report order.
pub const CLASS_TAGS: [&str; 4] = ["masked", "degraded", "functional_fail", "solver_fail"];

/// Returns the report's outcomes sorted by fault label (labels are
/// unique per universe, so the order is total). Both the exported JSON
/// and the `repro faults` verdict table use this order: it is a pure
/// function of the fault universe, hence byte-stable across thread
/// counts, sweep scheduling and universe enumeration changes.
pub fn sorted_outcomes(report: &CampaignReport) -> Vec<&pwm_perceptron::faults::FaultOutcome> {
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by(|a, b| a.label.cmp(&b.label));
    outcomes
}

/// Builds the `mssim-faults-v2` document for a campaign report.
///
/// Outcomes are emitted sorted by fault label ([`sorted_outcomes`]) and
/// every number is printed with fixed precision, so two runs of the same
/// deterministic campaign produce bitwise-identical documents — and a
/// collapsed campaign produces the same document as an uncollapsed one
/// (collapse statistics are deliberately not serialized, so `repro
/// faults` and `repro faults --no-collapse` artifacts can be `cmp`ed).
pub fn to_json(report: &CampaignReport, config: &CampaignConfig, fast: bool) -> Value {
    let fixed6 = |x: f64| Value::float(x, Precision::Fixed(6));
    let counts = CLASS_TAGS.iter().fold(Value::object(), |counts, tag| {
        counts.with(tag, report.count(tag))
    });
    let triage = report.triage.as_ref().map(|t| {
        Value::object()
            .with("universe", t.universe)
            .with("masked", t.masked)
            .with("failed", t.failed)
            .with("simulated", t.simulated)
            .with("ratio", fixed6(t.triage_ratio()))
    });
    let outcomes = sorted_outcomes(report).into_iter().map(|o| {
        let bound = |x: f64| Value::float(x, Precision::ExpFixed(9));
        let enclosure = o.enclosure.map(|(lo, hi)| vec![bound(lo), bound(hi)]);
        let partial = o.class == FaultClass::SolverFail { partial: true };
        Value::object()
            .with("label", o.label.as_str())
            .with("kind", o.kind)
            .with("class", o.class.tag())
            .with("static_verdict", o.static_verdict.map(|v| v.tag()))
            .with("enclosure", enclosure)
            .with("vout", o.vout.map(fixed6))
            .with("error_v", o.error_v.map(fixed6))
            .with("partial", partial)
            .with("rescue_attempts", o.rescue_attempts)
            .with("rescue_recoveries", o.rescue_recoveries)
            .with("detail", o.error.as_deref())
    });
    Value::object()
        .with("schema", FAULTS_SCHEMA)
        .with("mode", if fast { "fast" } else { "full" })
        .with(
            "frequency_hz",
            Value::float(config.frequency, Precision::Fixed(0)),
        )
        .with("periods", config.periods)
        .with("steps_per_period", config.steps_per_period)
        .with("avg_periods", config.avg_periods)
        .with("masked_epsilon_v", fixed6(config.masked_epsilon))
        .with("fail_epsilon_v", fixed6(config.fail_epsilon))
        .with("seed", config.universe.seed)
        .with("analytic_vout", fixed6(report.analytic_vout))
        .with("golden_vout", fixed6(report.golden_vout))
        .with("counts", counts)
        .with("rescue_attempts", report.rescue_attempts())
        .with("triage", triage)
        .with("outcomes", outcomes.collect::<Value>())
}

/// The CI gate: returns the labels of every outcome that is not cleanly
/// classified. A clean row satisfies:
///
/// * any measured `vout` is finite,
/// * `Masked`/`Degraded`/`FunctionalFail` rows carry a measured output —
///   or a static verdict backed by a guaranteed enclosure (the triage
///   tier's rows never ran a transient),
/// * `SolverFail` rows carry an explanation — either the ladder's
///   `Partial` verdict or a recorded solver error,
/// * class counts tile the universe exactly.
pub fn unclassified(report: &CampaignReport) -> Vec<String> {
    let mut bad: Vec<String> = report
        .outcomes
        .iter()
        .filter(|o| {
            let finite = o.vout.is_none_or(f64::is_finite);
            let statically_resolved = o.static_verdict.is_some() && o.enclosure.is_some();
            let coherent = match o.class {
                FaultClass::Masked
                | FaultClass::Degraded { .. }
                | FaultClass::FunctionalFail { .. } => o.vout.is_some() || statically_resolved,
                FaultClass::SolverFail { partial } => partial || o.error.is_some(),
            };
            !(finite && coherent)
        })
        .map(|o| o.label.clone())
        .collect();
    let tiled: usize = CLASS_TAGS.iter().map(|t| report.count(t)).sum();
    if tiled != report.outcomes.len() {
        bad.push(format!(
            "class counts tile {tiled} of {} outcomes",
            report.outcomes.len()
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwm_perceptron::faults::{switch_adder_campaign, FaultOutcome};
    use pwmcell::{AdderSpec, Technology};

    fn tiny_campaign() -> (CampaignReport, CampaignConfig) {
        let config = CampaignConfig {
            periods: 8,
            steps_per_period: 40,
            avg_periods: 2,
            ..CampaignConfig::default()
        };
        let report = switch_adder_campaign(
            &Technology::umc65_like(),
            AdderSpec::new(1, 2),
            &[3],
            &[0.4],
            &config,
        )
        .unwrap();
        (report, config)
    }

    #[test]
    fn json_is_bitwise_deterministic() {
        let (a, config) = tiny_campaign();
        let (b, _) = tiny_campaign();
        let ja = to_json(&a, &config, true).to_pretty();
        let jb = to_json(&b, &config, true).to_pretty();
        assert_eq!(ja, jb, "same seed must give bitwise-identical JSON");
        assert!(ja.contains(FAULTS_SCHEMA));
        assert!(ja.contains("\"outcomes\": ["));
    }

    #[test]
    fn json_outcomes_are_label_sorted_and_collapse_invariant() {
        let (report, config) = tiny_campaign();
        let labels: Vec<&str> = sorted_outcomes(&report)
            .iter()
            .map(|o| o.label.as_str())
            .collect();
        let mut resorted = labels.clone();
        resorted.sort_unstable();
        assert_eq!(labels, resorted, "JSON rows are sorted by fault label");
        // A collapsed campaign must serialize to the identical document:
        // collapse metadata stays out of the record on purpose.
        let collapsed_config = CampaignConfig {
            collapse: true,
            ..config.clone()
        };
        let collapsed = switch_adder_campaign(
            &Technology::umc65_like(),
            AdderSpec::new(1, 2),
            &[3],
            &[0.4],
            &collapsed_config,
        )
        .unwrap();
        assert_eq!(
            to_json(&report, &config, true).to_pretty(),
            to_json(&collapsed, &collapsed_config, true).to_pretty(),
            "collapsed and full campaigns must export bitwise-identical JSON"
        );
    }

    #[test]
    fn tiny_campaign_passes_the_gate() {
        let (report, _) = tiny_campaign();
        assert!(
            unclassified(&report).is_empty(),
            "every outcome must classify cleanly"
        );
    }

    #[test]
    fn gate_flags_incoherent_rows() {
        let (mut report, _) = tiny_campaign();
        report.outcomes.push(FaultOutcome {
            label: "bogus".into(),
            kind: "resistor_open",
            vout: None,
            error_v: None,
            class: FaultClass::SolverFail { partial: false },
            rescue_attempts: 0,
            rescue_recoveries: 0,
            error: None, // hard solver failure with no recorded reason
            static_verdict: None,
            enclosure: None,
        });
        let bad = unclassified(&report);
        assert_eq!(bad, vec!["bogus".to_string()]);
    }

    /// Element names reach the record verbatim, so quotes, backslashes
    /// and control characters must survive a write/parse round trip.
    #[test]
    fn labels_and_details_with_special_characters_round_trip() {
        let (mut report, config) = tiny_campaign();
        let nasty = "a\"b\\c\nd\te\u{1}f";
        report.outcomes.push(FaultOutcome {
            label: format!("resistor_open:{nasty}"),
            kind: "resistor_open",
            vout: Some(f64::NAN),
            error_v: Some(f64::INFINITY),
            class: FaultClass::SolverFail { partial: false },
            rescue_attempts: 0,
            rescue_recoveries: 0,
            error: Some(nasty.to_string()),
            static_verdict: None,
            enclosure: Some((f64::NEG_INFINITY, 1.0)),
        });
        let text = to_json(&report, &config, true).to_pretty();
        let doc = mssim::json::parse(&text).expect("the record is valid JSON");
        let row = doc
            .get("outcomes")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|row| row.get("detail").and_then(Value::as_str) == Some(nasty));
        let row = row.expect("the row's detail parses back unchanged");
        assert_eq!(
            row.get("label").and_then(Value::as_str),
            Some(&*format!("resistor_open:{nasty}"))
        );
        assert_eq!(row.get("vout"), Some(&Value::Null));
        assert_eq!(row.get("error_v"), Some(&Value::Null));
        assert_eq!(
            row.get("enclosure").map(Value::to_compact).as_deref(),
            Some("[null,1.000000000e0]")
        );
    }

    /// Statically-resolved rows carry no measured output but must still
    /// pass the gate, and the v2 document records their verdict and
    /// enclosure.
    #[test]
    fn triaged_campaign_passes_the_gate_and_exports_verdicts() {
        let config = CampaignConfig {
            periods: 8,
            steps_per_period: 40,
            avg_periods: 2,
            triage: true,
            ..CampaignConfig::default()
        };
        let report = switch_adder_campaign(
            &Technology::umc65_like(),
            AdderSpec::new(1, 2),
            &[3],
            &[0.4],
            &config,
        )
        .unwrap();
        assert!(
            unclassified(&report).is_empty(),
            "statically-resolved rows must classify cleanly"
        );
        let stats = report.triage.expect("triaged run records stats");
        assert!(stats.masked + stats.failed > 0, "triage resolves something");
        let json = to_json(&report, &config, true).to_pretty();
        assert!(json.contains("\"schema\": \"mssim-faults-v2\""));
        assert!(json.contains("\"triage\": { \"universe\":"));
        assert!(json.contains("\"static_verdict\": \"guaranteed_"));
        assert!(json.contains("\"enclosure\": ["));
    }
}
