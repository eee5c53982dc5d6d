//! The `detlint` command-line interface.
//!
//! ```text
//! cargo run -p detlint -- --workspace            # lint the whole tree
//! cargo run -p detlint -- crates/htm/src/state.rs
//! cargo run -p detlint -- --workspace --json report.json --sarif report.sarif
//! cargo run -p detlint -- --self-test            # run the rule fixtures
//! cargo run -p detlint -- --list-rules
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found (or self-test failure),
//! `2` usage or I/O error.

use detlint::engine::{json_report, scan_source, Diagnostic};
use detlint::rules::{ScanCtx, RULES};
use detlint::sarif::sarif_report;
use detlint::workspace::{classify, collect_files, find_root, is_test_path};
use detlint::{selftest, workspace};
use std::path::PathBuf;

const USAGE: &str = "\
detlint — static analysis for the BFGTS workspace
(determinism, panic-safety, cycle-arithmetic rules)

USAGE:
    detlint [--workspace | PATH...] [--json PATH] [--sarif PATH] [--quiet]
    detlint --self-test
    detlint --list-rules

OPTIONS:
    --workspace    lint every .rs file of the enclosing cargo workspace
                   and promote unused waivers (W002) to errors
    --json PATH    also write a machine-readable report (use `-` for stdout)
    --sarif PATH   also write a SARIF 2.1.0 report for CI code scanning
    --quiet        print only the summary line
    --self-test    check the rule fixtures against their golden output
    --list-rules   print the rule table
    -h, --help     this text

Waivers: `// detlint: allow(D00X) -- <reason>` (trailing = that line,
standalone = the next code line; the reason is mandatory).";

struct Args {
    workspace: bool,
    self_test: bool,
    list_rules: bool,
    quiet: bool,
    json: Option<String>,
    sarif: Option<String>,
    paths: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        self_test: false,
        list_rules: false,
        quiet: false,
        json: None,
        sarif: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--self-test" => args.self_test = true,
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path (or `-`)")?);
            }
            "--sarif" => {
                args.sarif = Some(it.next().ok_or("--sarif needs a path")?);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') => return Err(format!("unknown flag `{s}`")),
            s => args.paths.push(s.to_string()),
        }
    }
    if args.workspace && !args.paths.is_empty() {
        return Err("pass either --workspace or explicit paths, not both".into());
    }
    if !args.workspace && !args.self_test && !args.list_rules && args.paths.is_empty() {
        return Err("nothing to do: pass --workspace, paths, --self-test or --list-rules".into());
    }
    Ok(args)
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };

    if args.list_rules {
        for (code, desc) in RULES {
            println!("{code}  {desc}");
        }
        return 0;
    }

    if args.self_test {
        return run_self_test();
    }

    // Resolve the file list: workspace walk, or explicit files/dirs.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = match find_root(&cwd) {
        Some(r) => r,
        None => {
            eprintln!(
                "error: no enclosing cargo workspace found from {}",
                cwd.display()
            );
            return 2;
        }
    };
    let files: Vec<PathBuf> = if args.workspace {
        match collect_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot walk workspace: {e}");
                return 2;
            }
        }
    } else {
        let mut out = Vec::new();
        for p in &args.paths {
            let path = PathBuf::from(p);
            if path.is_dir() {
                match workspace::collect_files(&path) {
                    Ok(sub) => out.extend(sub.into_iter().map(|f| path.join(f))),
                    Err(e) => {
                        eprintln!("error: cannot walk {p}: {e}");
                        return 2;
                    }
                }
            } else {
                out.push(path);
            }
        }
        out
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut waived = 0u32;
    let mut scanned = 0usize;

    for file in &files {
        // Diagnostics use workspace-relative paths so output is stable
        // regardless of where the tool was invoked from.
        let abs = if file.is_absolute() {
            file.clone()
        } else if args.workspace {
            root.join(file)
        } else {
            cwd.join(file)
        };
        let display = abs
            .strip_prefix(&root)
            .unwrap_or(&abs)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match std::fs::read_to_string(&abs) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {display}: {e}");
                return 2;
            }
        };
        let (crate_name, class) = classify(&display);
        let ctx = ScanCtx {
            class,
            crate_name: &crate_name,
            workspace: args.workspace,
            test_file: is_test_path(&display),
        };
        let report = scan_source(&display, &src, &ctx);
        scanned += 1;
        waived += report.waived;
        diags.extend(report.diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.code).cmp(&(&b.file, b.line, b.col, &b.code)));

    if !args.quiet {
        for d in &diags {
            println!("{}", d.render());
        }
    }
    println!(
        "detlint: {scanned} file(s) scanned, {} diagnostic(s), {waived} waived",
        diags.len()
    );

    if let Some(target) = &args.json {
        let report = json_report(&diags, scanned, waived).to_string();
        if target == "-" {
            println!("{report}");
        } else if let Err(e) = std::fs::write(target, report + "\n") {
            eprintln!("error: cannot write {target}: {e}");
            return 2;
        }
    }

    if let Some(target) = &args.sarif {
        let report = sarif_report(&diags).to_string();
        if let Err(e) = std::fs::write(target, report + "\n") {
            eprintln!("error: cannot write {target}: {e}");
            return 2;
        }
    }

    i32::from(!diags.is_empty())
}

fn run_self_test() -> i32 {
    match selftest::run(&selftest::default_fixture_dir()) {
        Ok(result) => {
            for failure in &result.failures {
                eprintln!("FAIL {failure}");
            }
            println!(
                "detlint self-test: {} fixture(s), {} failure(s)",
                result.fixtures,
                result.failures.len()
            );
            i32::from(!result.passed())
        }
        Err(e) => {
            eprintln!("error: cannot run self-test: {e}");
            2
        }
    }
}
