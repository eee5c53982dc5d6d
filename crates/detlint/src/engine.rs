//! Waiver handling, diagnostic assembly and output formats.
//!
//! Waiver syntax (the reason is mandatory):
//!
//! ```text
//! let t = Instant::now(); // detlint: allow(D002) -- bench timing only
//! // detlint: allow(D001,D004) -- same-process hash comparison
//! use std::collections::hash_map::DefaultHasher;
//! ```
//!
//! A trailing waiver covers its own line; a standalone waiver covers
//! the next line that contains code. Waivers that match nothing (W002)
//! or don't parse (W001) are themselves diagnostics, so waivers cannot
//! rot silently — and under `--workspace`, W002 is a hard error.

use crate::itemtree::ItemTree;
use crate::lexer::{lex, Comment, Lexed};
use crate::rules::{is_waivable, run_rules, ScanCtx, Severity};
use bfgts_bench::json::Json;

/// A finished diagnostic, ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`D001`.., `P001`.., `A001`, `W001`/`W002`
    /// for waiver problems, `E001` for files the lexer cannot read).
    pub code: String,
    /// Hot-path/contract error or advisory warning. Both fail the
    /// lint; see [`Severity`].
    pub severity: Severity,
    /// Path as displayed (workspace-relative for `--workspace` runs).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (0 when the diagnostic covers a whole line).
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it (may be empty).
    pub hint: String,
}

impl Diagnostic {
    /// Renders the `file:line:col [CODE:severity] message` form used by
    /// both the CLI and the fixture goldens, plus an indented hint line
    /// if any.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}:{} [{}:{}] {}",
            self.file,
            self.line,
            self.col,
            self.code,
            self.severity.as_str(),
            self.message
        );
        if !self.hint.is_empty() {
            s.push_str("\n    hint: ");
            s.push_str(&self.hint);
        }
        s
    }
}

/// Scan result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Non-waived diagnostics, sorted by position.
    pub diags: Vec<Diagnostic>,
    /// Number of diagnostics suppressed by valid waivers.
    pub waived: u32,
}

/// A parsed waiver annotation.
#[derive(Debug)]
struct Waiver {
    codes: Vec<String>,
    /// The code line this waiver covers (0 = nothing; always unused).
    target_line: u32,
    /// Where the waiver itself lives (for W002 reporting).
    comment_line: u32,
    used: bool,
}

enum WaiverParse {
    NotAWaiver,
    Parsed(Vec<String>),
    Malformed(String),
}

const WAIVER_MARKER: &str = "detlint:";

fn parse_waiver(comment: &str) -> WaiverParse {
    let Some(pos) = comment.find(WAIVER_MARKER) else {
        return WaiverParse::NotAWaiver;
    };
    let rest = comment[pos + WAIVER_MARKER.len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return WaiverParse::Malformed("expected `allow(CODE, ...)` after `detlint:`".into());
    };
    let Some(rest) = rest.trim_start().strip_prefix('(') else {
        return WaiverParse::Malformed("expected `(` after `allow`".into());
    };
    let Some(close) = rest.find(')') else {
        return WaiverParse::Malformed("unclosed `allow(` list".into());
    };
    let mut codes = Vec::new();
    for code in rest[..close].split(',') {
        let code = code.trim();
        if !is_waivable(code) {
            return WaiverParse::Malformed(format!("`{code}` is not a waivable rule code"));
        }
        codes.push(code.to_string());
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix("--") else {
        return WaiverParse::Malformed("missing `-- <reason>`; the reason is mandatory".into());
    };
    if reason.trim().is_empty() {
        return WaiverParse::Malformed("empty waiver reason; the reason is mandatory".into());
    }
    WaiverParse::Parsed(codes)
}

/// The code line a standalone comment on `comment_line` covers: the
/// first line after it that holds a code token.
fn next_code_line(lexed: &Lexed, comment_line: u32) -> u32 {
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l > comment_line)
        .unwrap_or(0)
}

/// Scans one file's source text.
///
/// `file` is used verbatim in diagnostics. Fixture tests and
/// `--self-test` call this directly.
pub fn scan_source(file: &str, src: &str, ctx: &ScanCtx) -> FileReport {
    let lexed = match lex(src) {
        Ok(l) => l,
        Err((line, msg)) => {
            return FileReport {
                diags: vec![Diagnostic {
                    code: "E001".into(),
                    severity: Severity::Error,
                    file: file.into(),
                    line,
                    col: 0,
                    message: format!("cannot lex file: {msg}"),
                    hint: String::new(),
                }],
                waived: 0,
            }
        }
    };

    let mut report = FileReport::default();
    let mut waivers: Vec<Waiver> = Vec::new();
    for c in &lexed.comments {
        if c.doc {
            continue; // docs never carry waivers (example syntax stays inert)
        }
        match parse_waiver(&c.text) {
            WaiverParse::NotAWaiver => {}
            WaiverParse::Parsed(codes) => waivers.push(Waiver {
                codes,
                target_line: waiver_target(&lexed, c),
                comment_line: c.line,
                used: false,
            }),
            WaiverParse::Malformed(why) => report.diags.push(Diagnostic {
                code: "W001".into(),
                severity: Severity::Warning,
                file: file.into(),
                line: c.line,
                col: 0,
                message: format!("malformed detlint waiver: {why}"),
                hint: "write `// detlint: allow(D00X) -- <reason>`".into(),
            }),
        }
    }

    let tree = ItemTree::build(&lexed.tokens);
    for raw in run_rules(&lexed.tokens, &tree, ctx) {
        let waiver = waivers
            .iter_mut()
            .find(|w| w.target_line == raw.line && w.codes.iter().any(|c| c == raw.code));
        if let Some(w) = waiver {
            w.used = true;
            report.waived += 1;
        } else {
            report.diags.push(Diagnostic {
                code: raw.code.into(),
                severity: raw.severity,
                file: file.into(),
                line: raw.line,
                col: raw.col,
                message: raw.message,
                hint: raw.hint.into(),
            });
        }
    }

    for w in &waivers {
        if !w.used {
            // Stale waivers are debt: advisory in single-file runs,
            // a hard error across the workspace.
            let severity = if ctx.workspace {
                Severity::Error
            } else {
                Severity::Warning
            };
            report.diags.push(Diagnostic {
                code: "W002".into(),
                severity,
                file: file.into(),
                line: w.comment_line,
                col: 0,
                message: format!("unused waiver for {}", w.codes.join(",")),
                hint: "remove the waiver, or move it onto the line it is meant to cover".into(),
            });
        }
    }

    report
        .diags
        .sort_by(|a, b| (a.line, a.col, &a.code).cmp(&(b.line, b.col, &b.code)));
    report
}

fn waiver_target(lexed: &Lexed, c: &Comment) -> u32 {
    if c.trailing {
        c.line
    } else {
        next_code_line(lexed, c.line)
    }
}

/// Builds the machine-readable report for `--json`.
pub fn json_report(diags: &[Diagnostic], files_scanned: usize, waived: u32) -> Json {
    let items: Vec<Json> = diags
        .iter()
        .map(|d| {
            Json::obj([
                ("code", Json::Str(d.code.clone())),
                ("severity", Json::Str(d.severity.as_str().into())),
                ("file", Json::Str(d.file.clone())),
                ("line", Json::UInt(u64::from(d.line))),
                ("col", Json::UInt(u64::from(d.col))),
                ("message", Json::Str(d.message.clone())),
                ("hint", Json::Str(d.hint.clone())),
            ])
        })
        .collect();
    let rules: Vec<Json> = crate::rules::RULES
        .iter()
        .map(|(code, desc)| {
            Json::obj([
                ("code", Json::Str((*code).into())),
                ("description", Json::Str((*desc).into())),
            ])
        })
        .collect();
    Json::obj([
        ("tool", Json::Str("detlint".into())),
        ("schema_version", Json::UInt(2)),
        ("files_scanned", Json::UInt(files_scanned as u64)),
        ("waived", Json::UInt(u64::from(waived))),
        ("diagnostics", Json::Arr(items)),
        ("rules", Json::Arr(rules)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::CrateClass;

    fn ctx() -> ScanCtx<'static> {
        ScanCtx {
            class: CrateClass::Critical,
            crate_name: "testcrate",
            workspace: false,
            test_file: false,
        }
    }

    fn scan(src: &str) -> FileReport {
        scan_source("t.rs", src, &ctx())
    }

    fn codes(r: &FileReport) -> Vec<&str> {
        r.diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn trailing_waiver_covers_its_line() {
        let r = scan("let t = Instant::now(); // detlint: allow(D002) -- bench timing\n");
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn standalone_waiver_covers_next_code_line() {
        let r = scan(
            "// detlint: allow(D001) -- membership only, order never read\n\
             // (more prose in between is fine)\n\
             use std::collections::HashSet;\n",
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn waiver_covers_multiple_diags_on_one_line() {
        let r = scan(
            "// detlint: allow(D001,D004) -- test-only hasher comparison\n\
             use std::collections::hash_map::DefaultHasher;\n",
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.waived, 2);
    }

    #[test]
    fn waiver_for_wrong_code_does_not_suppress() {
        let r = scan("let t = Instant::now(); // detlint: allow(D001) -- wrong code\n");
        // W002 carries col 0, so it sorts ahead of the D002 at col 9.
        assert_eq!(codes(&r), vec!["W002", "D002"]);
    }

    #[test]
    fn missing_reason_is_malformed() {
        let r = scan("// detlint: allow(D001)\nuse std::collections::HashSet;\n");
        assert_eq!(codes(&r), vec!["W001", "D001"]);
    }

    #[test]
    fn unknown_code_is_malformed() {
        let r = scan("// detlint: allow(D999) -- nope\nfn f() {}\n");
        assert_eq!(codes(&r), vec!["W001"]);
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let r = scan("// detlint: allow(D002) -- stale\nfn f() {}\n");
        assert_eq!(codes(&r), vec!["W002"]);
        assert_eq!(r.diags[0].severity, Severity::Warning);
    }

    #[test]
    fn unused_waiver_is_an_error_in_workspace_mode() {
        let mut c = ctx();
        c.workspace = true;
        let r = scan_source("t.rs", "// detlint: allow(D002) -- stale\nfn f() {}\n", &c);
        assert_eq!(codes(&r), vec!["W002"]);
        assert_eq!(r.diags[0].severity, Severity::Error);
    }

    #[test]
    fn new_rule_codes_are_waivable() {
        let r = scan("fn f() {} // detlint: allow(P001,A001) -- exercising the parser\n");
        // Parsed fine; unused (no matching diag), so exactly one W002.
        assert_eq!(codes(&r), vec!["W002"]);
    }

    #[test]
    fn diags_sorted_by_position() {
        let r = scan("use std::collections::{HashMap, HashSet};\nlet t = Instant::now();\n");
        assert_eq!(codes(&r), vec!["D001", "D001", "D002"]);
        let rendered = r.diags[0].render();
        assert!(rendered.starts_with("t.rs:1:"), "{rendered}");
        assert!(rendered.contains("[D001:error]"));
        assert!(rendered.contains("hint:"));
    }

    #[test]
    fn lex_failure_becomes_e001() {
        let r = scan("let s = \"unterminated");
        assert_eq!(codes(&r), vec!["E001"]);
    }

    #[test]
    fn json_report_shape() {
        let r = scan("use std::collections::HashMap;\n");
        let j = json_report(&r.diags, 1, r.waived);
        let text = j.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("files_scanned").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
        let diags = parsed.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("severity").and_then(Json::as_str),
            Some("error")
        );
    }
}
