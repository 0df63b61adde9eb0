//! `xt-analyze` — the workspace static-analysis pass that enforces the
//! three house invariants at CI time:
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `hash-iter` | `HashMap`/`HashSet` iteration (`iter`/`iter_mut`/`keys`/`values`/`into_iter`/`drain`, and `for` loops) inside a deterministic-surface function — iteration order would leak scheduler/seed nondeterminism into pinned bytes |
//! | `time-source` | `Instant::now()`, `SystemTime`, or `thread::current().id()` inside a deterministic-surface function — timing and thread identity must stay observation-only |
//! | `lock-order` | a cycle in the static lock-order graph built from every `Mutex`/`RwLock` acquisition across the workspace — a potential ABBA deadlock |
//! | `lock-poison` | `.lock()`/`.read()`/`.write()` (or a condvar `.wait(..)`) whose `Result` is consumed by bare `.unwrap()`/`.expect(..)` in non-test code instead of the `PoisonError::into_inner` recovery idiom |
//! | `obs-in-det` | any identifier imported from `xt-obs`, or any obs-typed field access, inside a deterministic-surface function — metrics never feed outcome bytes |
//! | `bad-pragma` | a malformed `xt-analyze:` pragma (never suppressible) |
//!
//! # The deterministic surface
//!
//! A function is on the surface when its name or an enclosing module
//! (inline, or the file itself) matches the seed vocabulary in
//! [`surface::SURFACE_SEEDS`] (`digest`, `fold`, `encode`, `to_text`,
//! `publish`, `snapshot`, `outcome`, `canonical`, `parse_prefix`,
//! `simulator`, `evidence`) — unless the name is observation-exempt
//! ([`surface::OBSERVATION_EXEMPT`]: `metrics`, `counters`, `health`,
//! `stats`, `observability`) — plus everything transitively callable
//! from a seeded function. To extend the surface when a new byte-pinned
//! encoder appears, either name it with one of the seed substrings
//! (preferred — the convention is self-enforcing) or add a new seed to
//! `SURFACE_SEEDS` with a test in `surface.rs`.
//!
//! # Pragmas
//!
//! A finding is suppressed only by an inline pragma on the same or the
//! preceding line:
//!
//! ```text
//! // xt-analyze: allow(hash-iter) -- entries are sorted before encoding
//! ```
//!
//! The justification after `--` is mandatory; a pragma without one (or
//! naming an unknown rule) is itself a `bad-pragma` finding, and
//! `bad-pragma` cannot be allowed away. Every pragma is listed in the
//! report's justification inventory with whether it actually suppressed
//! anything, so stale pragmas are visible.
//!
//! # Running
//!
//! ```text
//! cargo run -p xt-analyze --release -- --deny [--root PATH] [--report PATH]
//! ```
//!
//! `--deny` exits non-zero on any unsuppressed finding; CI runs it on
//! every push and uploads the report artifact. The same analysis is
//! available as a library via [`analyze_sources`] (used by the fixture
//! tests) and [`analyze_workspace`].
//!
//! Like `crates/proptest`, the crate is a dependency-free offline
//! stand-in: a hand-rolled lexer and token-level scanners, no `syn`, no
//! rustc plugin, no network.

pub mod lexer;
pub mod locks;
pub mod model;
pub mod report;
pub mod rules;
pub mod surface;

use std::fs;
use std::io;
use std::path::Path;

use model::SourceFile;
pub use report::{Analysis, Finding, PragmaUse, Rule};

/// Analyzes in-memory `(path, source)` pairs — the library entry point
/// the fixture tests use. Paths should look workspace-relative
/// (`crates/<name>/src/...`) so crate attribution works.
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, s)| model::parse_file(p, s))
        .collect();
    analyze_files(files)
}

/// Walks `root/crates/*/src/**/*.rs` (sorted, so the scan order — and
/// therefore the report — is deterministic) and analyzes the workspace.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut sources = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&p)?));
    }
    Ok(analyze_sources(&sources))
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Tracks which pragmas suppressed something, for the inventory.
struct Suppressor {
    /// (path, line, rules, justification, used)
    pragmas: Vec<(String, u32, Vec<Rule>, String, bool)>,
}

impl Suppressor {
    fn new(files: &[SourceFile]) -> Suppressor {
        let mut pragmas = Vec::new();
        for file in files {
            for p in &file.pragmas {
                pragmas.push((
                    file.path.clone(),
                    p.line,
                    p.rules.clone(),
                    p.justification.clone(),
                    false,
                ));
            }
        }
        Suppressor { pragmas }
    }

    /// `true` (and marks the pragma used) when a pragma on the finding's
    /// line or the line above allows its rule.
    fn suppresses(&mut self, path: &str, line: u32, rule: Rule) -> bool {
        if !rule.suppressible() {
            return false;
        }
        let mut hit = false;
        for (p_path, p_line, rules, _, used) in &mut self.pragmas {
            if p_path == path && (*p_line == line || *p_line + 1 == line) && rules.contains(&rule) {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    fn into_inventory(self) -> Vec<PragmaUse> {
        self.pragmas
            .into_iter()
            .map(|(path, line, rules, justification, used)| PragmaUse {
                path,
                line,
                rules,
                justification,
                used,
            })
            .collect()
    }
}

/// The full pipeline over parsed files: surface → rules → lock pass →
/// pragma application → cycle detection → sorted report.
fn analyze_files(files: Vec<SourceFile>) -> Analysis {
    let surf = surface::compute(&files);
    let hash_fields = rules::collect_hash_fields(&files);

    let mut raw: Vec<Finding> = Vec::new();
    rules::determinism_rules(&files, &surf, &hash_fields, &mut raw);
    rules::observation_rule(&files, &surf, &mut raw);
    let lock = locks::analyze(&files);
    raw.extend(lock.poison);
    for file in &files {
        for e in &file.pragma_errors {
            raw.push(Finding {
                path: file.path.clone(),
                line: e.line,
                offset: e.offset,
                rule: Rule::BadPragma,
                message: format!("malformed xt-analyze pragma: {}", e.reason),
            });
        }
    }

    let mut supp = Suppressor::new(&files);
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };

    // Lock-order edges are pragma-filtered *before* cycle detection, so
    // one justified edge removes the whole reported inversion instead of
    // requiring a pragma at every edge of the cycle.
    let kept_edges: Vec<locks::Edge> = lock
        .edges
        .into_iter()
        .filter(|e| !supp.suppresses(&e.path, e.line, Rule::LockOrder))
        .collect();
    raw.extend(locks::cycle_findings(&kept_edges));

    for f in raw {
        if supp.suppresses(&f.path, f.line, f.rule) {
            analysis.suppressed.push(f);
        } else {
            analysis.findings.push(f);
        }
    }
    analysis.pragmas = supp.into_inventory();
    analysis.finalize();
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, body: &str) -> (String, String) {
        (path.to_string(), body.to_string())
    }

    #[test]
    fn pragma_suppresses_and_is_counted() {
        let a = analyze_sources(&[src(
            "crates/d/src/lib.rs",
            r#"
            fn encode(&self) {
                let m: HashMap<u64, u64> = HashMap::new();
                // xt-analyze: allow(hash-iter) -- sorted into a Vec before use
                for x in m.iter() {}
            }
            "#,
        )]);
        assert!(a.is_clean(), "{:?}", a.findings);
        assert_eq!(a.suppressed.len(), 1);
        assert_eq!(a.pragmas.len(), 1);
        assert!(a.pragmas[0].used);
        assert_eq!(a.pragmas[0].justification, "sorted into a Vec before use");
    }

    #[test]
    fn missing_justification_is_bad_pragma() {
        let a = analyze_sources(&[src(
            "crates/d/src/lib.rs",
            "// xt-analyze: allow(hash-iter)\nfn f() {}",
        )]);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, Rule::BadPragma);
    }

    #[test]
    fn bad_pragma_cannot_be_allowed_away() {
        let a = analyze_sources(&[src(
            "crates/d/src/lib.rs",
            "// xt-analyze: allow(bad-pragma) -- nice try\nfn f() {}",
        )]);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, Rule::BadPragma);
        assert!(a.findings[0].message.contains("cannot be suppressed"));
    }

    #[test]
    fn unused_pragma_is_inventoried_as_unused() {
        let a = analyze_sources(&[src(
            "crates/d/src/lib.rs",
            "// xt-analyze: allow(hash-iter) -- no longer needed\nfn f() {}",
        )]);
        assert!(a.is_clean());
        assert_eq!(a.pragmas.len(), 1);
        assert!(!a.pragmas[0].used);
        assert!(a.render().contains("[UNUSED]"));
    }

    #[test]
    fn lock_order_pragma_removes_the_cycle() {
        let body = r#"
            fn ab(&self) {
                let g = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);
                let h = self.beta.lock().unwrap_or_else(PoisonError::into_inner);
            }
            fn ba(&self) {
                let g = self.beta.lock().unwrap_or_else(PoisonError::into_inner);
                // xt-analyze: allow(lock-order) -- beta->alpha only at shutdown, single-threaded
                let h = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);
            }
        "#;
        let a = analyze_sources(&[src("crates/d/src/lib.rs", body)]);
        assert!(a.is_clean(), "{:?}", a.findings);
        assert!(a.pragmas[0].used);
    }

    #[test]
    fn findings_sorted_by_path_line_rule() {
        let a = analyze_sources(&[
            src(
                "crates/b/src/lib.rs",
                "fn encode(&self) { let t = Instant::now(); let m: HashMap<u8,u8> = HashMap::new(); m.iter(); }",
            ),
            src(
                "crates/a/src/lib.rs",
                "fn digest(&self) { let s = SystemTime::now(); }",
            ),
        ]);
        let keys: Vec<(&str, Rule)> = a
            .findings
            .iter()
            .map(|f| (f.path.as_str(), f.rule))
            .collect();
        assert_eq!(
            keys,
            [
                ("crates/a/src/lib.rs", Rule::TimeSource),
                ("crates/b/src/lib.rs", Rule::HashIter),
                ("crates/b/src/lib.rs", Rule::TimeSource),
            ]
        );
    }
}
