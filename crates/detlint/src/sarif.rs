//! SARIF 2.1.0 output (`--sarif PATH`).
//!
//! SARIF (Static Analysis Results Interchange Format) is the exchange
//! format CI forges ingest for code-scanning annotations. The emitter
//! covers the slice of the spec a single-tool, single-run lint needs:
//! one `run` with driver metadata, per-rule descriptors, and one
//! `result` per diagnostic with a physical location. Like `--json`,
//! the output is built on the canonical [`Json`] type, so key order is
//! deterministic and the artifact is byte-stable for a given scan.

use crate::engine::Diagnostic;
use crate::rules::{Severity, RULES};
use bfgts_bench::json::Json;

/// Maps detlint severities onto SARIF `level` values.
fn level(s: Severity) -> &'static str {
    match s {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// Builds the complete SARIF 2.1.0 document for one lint run.
pub fn sarif_report(diags: &[Diagnostic]) -> Json {
    let rules: Vec<Json> = RULES
        .iter()
        .map(|(code, desc)| {
            Json::obj([
                ("id", Json::Str((*code).into())),
                (
                    "shortDescription",
                    Json::obj([("text", Json::Str((*desc).into()))]),
                ),
            ])
        })
        .collect();

    let results: Vec<Json> = diags
        .iter()
        .map(|d| {
            let mut region = vec![("startLine", Json::UInt(u64::from(d.line.max(1))))];
            if d.col > 0 {
                region.push(("startColumn", Json::UInt(u64::from(d.col))));
            }
            let mut text = d.message.clone();
            if !d.hint.is_empty() {
                text.push_str(" — hint: ");
                text.push_str(&d.hint);
            }
            Json::obj([
                ("ruleId", Json::Str(d.code.clone())),
                ("level", Json::Str(level(d.severity).into())),
                ("message", Json::obj([("text", Json::Str(text))])),
                (
                    "locations",
                    Json::Arr(vec![Json::obj([(
                        "physicalLocation",
                        Json::obj([
                            (
                                "artifactLocation",
                                Json::obj([("uri", Json::Str(d.file.clone()))]),
                            ),
                            ("region", Json::obj(region)),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();

    let driver = Json::obj([
        ("name", Json::Str("detlint".into())),
        (
            "informationUri",
            Json::Str("https://github.com/bfgts-repro".into()),
        ),
        ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
        ("rules", Json::Arr(rules)),
    ]);

    Json::obj([
        (
            "$schema",
            Json::Str(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                    .into(),
            ),
        ),
        ("version", Json::Str("2.1.0".into())),
        (
            "runs",
            Json::Arr(vec![Json::obj([
                ("tool", Json::obj([("driver", driver)])),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &str, sev: Severity, col: u32) -> Diagnostic {
        Diagnostic {
            code: code.into(),
            severity: sev,
            file: "crates/sim/src/engine.rs".into(),
            line: 42,
            col,
            message: "something".into(),
            hint: "fix it".into(),
        }
    }

    #[test]
    fn sarif_shape_round_trips() {
        let doc = sarif_report(&[
            diag("P001", Severity::Error, 7),
            diag("W002", Severity::Warning, 0),
        ]);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = parsed.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        let results = runs[0].get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(Json::as_str),
            Some("P001")
        );
        assert_eq!(
            results[0].get("level").and_then(Json::as_str),
            Some("error")
        );
        // col 0 (whole-line diagnostics) must not emit startColumn 0 —
        // SARIF columns are 1-based.
        let region = results[1].get("locations").and_then(Json::as_arr).unwrap()[0]
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .unwrap();
        assert!(region.get("startColumn").is_none());
        assert_eq!(region.get("startLine").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn every_rule_family_is_described() {
        let doc = sarif_report(&[]);
        let text = doc.to_string();
        for code in ["D001", "P001", "A001"] {
            assert!(text.contains(code), "missing {code}");
        }
    }
}
