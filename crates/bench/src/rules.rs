//! Checks that each rule of the static-analysis policy (DESIGN.md §7) is
//! declared where the compiler or clippy enforces it: the `clippy.toml`
//! lists, the crate-level lint attributes and the release profile
//! overrides. The lints themselves run in the clippy CI gate; these
//! tests catch a rule whose declaration is dropped or narrowed, which
//! would silently switch the lint off rather than make it fail.

use std::path::PathBuf;

/// The crates whose lib targets carry the panic-safety lints (P001/P002).
const PANIC_CRATES: [&str; 6] = ["sim", "htm", "core", "bloomsig", "baselines", "workloads"];

/// The lints of the panic-safety block in each [`PANIC_CRATES`] `lib.rs`.
const PANIC_LINTS: [&str; 5] = [
    "clippy::unwrap_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `path = "..."` entries of the `key = [ ... ]` list in `clippy.toml`.
fn clippy_list(key: &str) -> Vec<String> {
    let doc = read("clippy.toml");
    let start = doc
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let body = &doc[start..];
    let body = &body[..body.find("\n]").expect("unterminated list")];
    body.lines()
        .filter_map(|line| {
            let rest = &line[line.find("path = \"")? + "path = \"".len()..];
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// Every crate directory under `crates/`, sorted.
fn crate_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("read crates/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn lib_rs(krate: &str) -> String {
    read(&format!("crates/{krate}/src/lib.rs"))
}

/// The lint paths of the first crate-level `#![warn(...)]` naming
/// `clippy::unwrap_used`, or nothing.
fn panic_block(src: &str) -> Vec<String> {
    let Some(at) = src.find("#![warn(\n    clippy::unwrap_used") else {
        return Vec::new();
    };
    let body = &src[at + "#![warn(".len()..];
    body[..body.find(")]").expect("unterminated #![warn(")]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Every `.rs` file under `crates/*/src`, as (relative path, contents).
fn crate_sources() -> Vec<(String, String)> {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in crate_names() {
        walk(&root.join("crates").join(&krate).join("src"), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap_or(&p).display().to_string();
            let src = std::fs::read_to_string(&p).expect("read source");
            (rel, src)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d001_fires_on_hash_collections_in_critical_crates() {
        let types = clippy_list("disallowed-types");
        for banned in ["std::collections::HashMap", "std::collections::HashSet"] {
            assert!(
                types.iter().any(|t| t == banned),
                "{banned} not in disallowed-types"
            );
        }
        // Only the tooling crate waives the ban for a whole crate.
        let waived: Vec<String> = crate_names()
            .into_iter()
            .filter(|k| lib_rs(k).contains("#![expect(\n    clippy::disallowed_types"))
            .collect();
        assert_eq!(waived, ["bench"]);
    }

    #[test]
    fn d001_fires_on_hash_module_paths() {
        // clippy matches the resolved definition, so a full `std::` path
        // also covers `hash_map::HashMap`, re-exports and aliases.
        let types = clippy_list("disallowed-types");
        assert!(!types.is_empty());
        for t in &types {
            assert!(t.starts_with("std::"), "{t} is not a full std path");
        }
        assert!(types.iter().any(|t| t == "std::hash::RandomState"));
    }

    #[test]
    fn d002_fires_everywhere() {
        let methods = clippy_list("disallowed-methods");
        for banned in ["std::time::Instant::now", "std::time::SystemTime::now"] {
            assert!(
                methods.iter().any(|m| m == banned),
                "{banned} not in disallowed-methods"
            );
        }
        // One workspace-wide config, and no crate waives the clock wholesale.
        for krate in crate_names() {
            for name in ["clippy.toml", ".clippy.toml"] {
                let p = workspace_root().join("crates").join(&krate).join(name);
                assert!(
                    !p.exists(),
                    "{} shadows the workspace clippy.toml",
                    p.display()
                );
            }
            assert!(
                !lib_rs(&krate).contains("#![expect(\n    clippy::disallowed_methods"),
                "crate {krate} waives disallowed_methods for the whole crate"
            );
        }
    }

    #[test]
    fn d002_ignores_bare_instant() {
        // Naming the type is fine; only reading the clock is banned.
        let types = clippy_list("disallowed-types");
        assert!(!types.iter().any(|t| t == "std::time::Instant"));
        assert!(!types.iter().any(|t| t == "std::time::Duration"));
    }

    #[test]
    fn d004_flags_hashers_and_thread_identity() {
        let types = clippy_list("disallowed-types");
        for banned in ["std::hash::RandomState", "std::hash::DefaultHasher"] {
            assert!(
                types.iter().any(|t| t == banned),
                "{banned} not in disallowed-types"
            );
        }
        let methods = clippy_list("disallowed-methods");
        assert!(methods.iter().any(|m| m == "std::thread::current"));
    }

    #[test]
    fn d005_flags_static_mut_and_env_reads() {
        let methods = clippy_list("disallowed-methods");
        for banned in [
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
        ] {
            assert!(
                methods.iter().any(|m| m == banned),
                "{banned} not in disallowed-methods"
            );
        }
        // A `static mut` cannot be read or written without `unsafe`.
        for krate in crate_names() {
            assert!(
                lib_rs(&krate).contains("#![forbid(unsafe_code)]"),
                "crate {krate} does not forbid unsafe_code"
            );
        }
    }

    #[test]
    fn d005_allows_env_args() {
        // argv is explicit input to a run, not ambient state.
        let methods = clippy_list("disallowed-methods");
        assert!(!methods.iter().any(|m| m.starts_with("std::env::args")));
    }

    #[test]
    fn p001_fires_only_in_panic_crates() {
        for krate in crate_names() {
            let block = panic_block(&lib_rs(&krate));
            if PANIC_CRATES.contains(&krate.as_str()) {
                assert!(
                    block.iter().any(|l| l == "clippy::unwrap_used"),
                    "crate {krate} lacks the panic-safety block"
                );
            } else {
                assert!(
                    block.is_empty(),
                    "tooling crate {krate} carries the panic-safety block"
                );
            }
        }
    }

    #[test]
    fn p001_expect_is_sanctioned() {
        // `.expect("invariant: ...")` documents why it cannot fail.
        for krate in PANIC_CRATES {
            let block = panic_block(&lib_rs(krate));
            assert!(!block.iter().any(|l| l == "clippy::expect_used"), "{krate}");
        }
    }

    #[test]
    fn p002_fires_on_panic_macros() {
        for krate in PANIC_CRATES {
            assert_eq!(panic_block(&lib_rs(krate)), PANIC_LINTS, "crate {krate}");
        }
    }

    #[test]
    fn p003_fires_only_on_hot_paths() {
        // `indexing_slicing` is declared fn by fn, never for a whole
        // crate, module or impl.
        let mut sites = 0;
        for (path, src) in crate_sources() {
            // Split so this file does not match itself.
            assert!(
                !src.contains(concat!("#![warn(", "clippy::indexing_slicing")),
                "{path} declares indexing_slicing for a whole module"
            );
            let lines: Vec<&str> = src.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim() != "#[warn(clippy::indexing_slicing)]" {
                    continue;
                }
                sites += 1;
                let item = lines[i + 1..]
                    .iter()
                    .map(|l| l.trim())
                    .find(|l| !l.starts_with("#[") && !l.starts_with("///"))
                    .unwrap_or("");
                assert!(
                    item.contains("fn "),
                    "{path}:{}: indexing_slicing governs `{item}`, not a fn",
                    i + 1
                );
            }
        }
        assert!(sites > 0, "no hot fn declares indexing_slicing");
    }

    #[test]
    fn p_rules_skip_tests() {
        let doc = read("clippy.toml");
        for key in [
            "allow-unwrap-in-tests",
            "allow-panic-in-tests",
            "allow-indexing-slicing-in-tests",
        ] {
            assert!(
                doc.contains(&format!("{key} = true")),
                "clippy.toml lacks {key} = true"
            );
        }
    }

    #[test]
    fn a001_fires_on_bare_cycle_addition() {
        // Release builds of the cycle-accounting crates panic on a bare
        // `+`/`-`/`*` overflow instead of wrapping.
        let manifest = read("Cargo.toml");
        for krate in ["bfgts-sim", "bfgts-htm"] {
            let header = format!("[profile.release.package.{krate}]\n");
            let at = manifest
                .find(&header)
                .unwrap_or_else(|| panic!("Cargo.toml has no {header}"));
            let section = &manifest[at + header.len()..];
            let section = &section[..section.find("\n[").unwrap_or(section.len())];
            assert!(
                section.contains("overflow-checks = true"),
                "{krate}: {section}"
            );
        }
    }
}
