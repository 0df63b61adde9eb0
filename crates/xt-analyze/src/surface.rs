//! Deterministic-surface computation: which functions must stay free of
//! nondeterminism.
//!
//! A function is **seeded** onto the surface when its name (or the name
//! of an enclosing module, inline or the file itself) contains one of
//! [`SURFACE_SEEDS`] — the digest/outcome/snapshot/encode vocabulary the
//! workspace uses for byte-pinned output. Names matching [`OBSERVATION_EXEMPT`] are
//! excluded: `metrics_snapshot` and friends are observation surfaces by
//! design and may read clocks. The full surface is the seed set plus
//! every workspace function transitively callable from it, resolved by
//! bare name over the token streams (a deliberate over-approximation —
//! see the stoplist below for how ubiquitous names are kept from gluing
//! the whole graph together).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::model::SourceFile;

/// Substrings that seed a function (or module) onto the deterministic
/// surface. Extend this list when a new byte-pinned surface appears —
/// see the crate docs.
pub const SURFACE_SEEDS: &[&str] = &[
    "digest",
    "fold",
    "encode",
    "to_text",
    "publish",
    "snapshot",
    "outcome",
    "canonical",
    // The event-loop server's incremental frame parser: the bytes a
    // partially-buffered connection cuts into frames must be classified
    // identically on every replica of the same stream, so the prefix
    // parser sits on the deterministic surface with the whole-buffer
    // decoders it mirrors.
    "parse_prefix",
    // The fleet simulator: its outcome (per-fault correcting epoch and
    // reports-to-correct, runs, final epoch) is a function of its config,
    // pinned by the scorecard's `fleet` row.
    "simulator",
    // The §5 evidence fold and its Simpson node table: every grid bit
    // reaches `FleetSnapshot::digest`, WAL replay and published epochs.
    "evidence",
];

/// Name substrings that mark an *observation* surface: these may match a
/// seed (`metrics_snapshot`) but are exempt — timing and metrics are
/// their whole point, and by the house rule their output never feeds a
/// digest.
pub const OBSERVATION_EXEMPT: &[&str] =
    &["metrics", "counters", "health", "stats", "observability"];

/// Method/function names never treated as workspace-call edges: they are
/// ubiquitous (std prelude, iterator adapters, channel/thread APIs) or
/// shared by unrelated items, and resolving them by bare name would glue
/// every function to every other.
pub(crate) const CALL_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "drop",
    "fmt",
    "from",
    "into",
    "eq",
    "ne",
    "hash",
    "cmp",
    "partial_cmp",
    "next",
    "get",
    "get_mut",
    "insert",
    "push",
    "pop",
    "remove",
    "contains",
    "contains_key",
    "extend",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "map_err",
    "and_then",
    "ok_or",
    "ok_or_else",
    "filter",
    "collect",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "drain",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "send",
    "recv",
    "try_recv",
    "join",
    "spawn",
    "flush",
    "write",
    "write_all",
    "read",
    "read_exact",
    "lock",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "to_string",
    "to_vec",
    "to_owned",
    "clamp",
    "min",
    "max",
    "abs",
    "take",
    "replace",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "binary_search",
    "position",
    "find",
    "any",
    "all",
    "count",
    "sum",
    "product",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "starts_with",
    "ends_with",
    "split",
    "trim",
    "parse",
    "format",
    "print",
    "println",
    "eprintln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "matches",
    "vec",
    "with_capacity",
    "reserve",
    "truncate",
    "clear",
    "resize",
    "copy_from_slice",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "wrapping_add",
    "wrapping_mul",
    "rotate_left",
    "rotate_right",
    "saturating_sub",
    "saturating_add",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "open",
    "close",
    "path",
    "exists",
    "create",
    // Names unrelated workspace items share, so a bare-name edge lands in
    // the wrong one: a workload's call frame (`Ctx::scoped`) would pull in
    // the pool's and the front-end's thread scopes, and the fleet
    // service's in-process `ingest_report` the durable fleet's WAL flush
    // and the network client's reply decoder.
    "scoped",
    "ingest_report",
];

/// A function key: (file index in the scan, function index in the file).
pub type FnKey = (usize, usize);

/// The computed surface: which functions are deterministic-surface, and
/// why (for diagnostics).
pub struct Surface {
    members: BTreeSet<FnKey>,
}

impl Surface {
    pub fn contains(&self, key: FnKey) -> bool {
        self.members.contains(&key)
    }
}

/// `true` if `name` contains a surface seed and is not observation-exempt.
pub fn is_seed_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if OBSERVATION_EXEMPT.iter().any(|e| lower.contains(e)) {
        return false;
    }
    SURFACE_SEEDS.iter().any(|s| lower.contains(s))
}

/// `true` if `name` is observation-exempt (blocks both seeding and
/// propagation *into* the function).
fn is_exempt_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    OBSERVATION_EXEMPT.iter().any(|e| lower.contains(e))
}

/// Computes the deterministic surface over all files: seed by name, then
/// close over workspace calls (BFS).
pub fn compute(files: &[SourceFile]) -> Surface {
    // Name → all workspace functions with that name. Bare-name
    // resolution over-approximates, which is the safe direction for a
    // lint; the stoplist keeps it from degenerating.
    let mut by_name: BTreeMap<&str, Vec<FnKey>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if !f.is_test {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
    }

    let mut members: BTreeSet<FnKey> = BTreeSet::new();
    let mut queue: Vec<FnKey> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if f.is_test || is_exempt_name(&f.name) {
                continue;
            }
            let module_seeded = std::iter::once(file_module(&file.path))
                .chain(f.module.split("::"))
                .any(|m| is_seed_name(m) && !is_exempt_name(m));
            if (is_seed_name(&f.name) || module_seeded) && members.insert((fi, gi)) {
                queue.push((fi, gi));
            }
        }
    }

    while let Some((fi, gi)) = queue.pop() {
        let file = &files[fi];
        let f = &file.functions[gi];
        for callee in callees(file, f.body.clone()) {
            if CALL_STOPLIST.contains(&callee) || is_exempt_name(callee) {
                continue;
            }
            if let Some(targets) = by_name.get(callee) {
                for &t in targets {
                    if t != (fi, gi) && members.insert(t) {
                        queue.push(t);
                    }
                }
            }
        }
    }

    Surface { members }
}

/// The module a source file is: `crates/x/src/wal.rs` is `wal`,
/// `src/net/mod.rs` is `net`, and a crate root (`lib.rs`, `main.rs`) is
/// none.
fn file_module(path: &str) -> &str {
    let mut parts = path.rsplit('/');
    match parts.next().unwrap_or("").trim_end_matches(".rs") {
        "lib" | "main" => "",
        "mod" => parts.next().unwrap_or(""),
        stem => stem,
    }
}

/// Called names inside a token range: an identifier immediately followed
/// by `(`, excluding macro invocations (`name!`) and definitions
/// (`fn name(`).
fn callees(file: &SourceFile, range: std::ops::Range<usize>) -> BTreeSet<&str> {
    let toks = &file.toks;
    let mut out = BTreeSet::new();
    let mut i = range.start;
    while i < range.end {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > range.start && toks[i - 1].is_ident("fn"))
        {
            out.insert(t.text.as_str());
        }
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            // Macro: skip the name so `println!(...)` is not a call edge.
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    fn surface_names(files: &[SourceFile]) -> Vec<String> {
        let s = compute(files);
        let mut names = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                if s.contains((fi, gi)) {
                    names.push(f.name.clone());
                }
            }
        }
        names
    }

    #[test]
    fn seeds_by_name_and_module() {
        let files = vec![parse_file(
            "crates/demo/src/lib.rs",
            r#"
            pub fn deterministic_digest() -> u128 { mix(0) }
            fn mix(h: u128) -> u128 { h }
            fn unrelated() {}
            mod snapshot {
                pub fn restore() {}
            }
            "#,
        )];
        let names = surface_names(&files);
        assert!(names.contains(&"deterministic_digest".to_string()));
        assert!(names.contains(&"mix".to_string()), "callee closure");
        assert!(names.contains(&"restore".to_string()), "module seeding");
        assert!(!names.contains(&"unrelated".to_string()));
    }

    #[test]
    fn file_modules_seed_like_inline_ones() {
        let file = |path| parse_file(path, "pub fn step() {}");
        let seeded = |path| !surface_names(&[file(path)]).is_empty();
        assert!(seeded("crates/demo/src/simulator.rs"));
        assert!(seeded("crates/demo/src/simulator/mod.rs"));
        assert!(seeded("crates/demo/src/evidence.rs"));
        assert!(!seeded("crates/demo/src/lib.rs"));
        assert!(!seeded("crates/demo/src/service.rs"));
    }

    #[test]
    fn observation_names_are_exempt() {
        let files = vec![parse_file(
            "crates/demo/src/lib.rs",
            "pub fn metrics_snapshot() -> u64 { 0 }\npub fn health_digest() {}",
        )];
        assert!(surface_names(&files).is_empty());
    }

    #[test]
    fn stoplist_blocks_ubiquitous_names() {
        let files = vec![parse_file(
            "crates/demo/src/lib.rs",
            "pub fn encode(v: &[u8]) { v.iter(); }\npub fn iter() {}",
        )];
        let names = surface_names(&files);
        assert!(names.contains(&"encode".to_string()));
        assert!(!names.contains(&"iter".to_string()));
    }

    #[test]
    fn tests_never_join_the_surface() {
        let files = vec![parse_file(
            "crates/demo/src/lib.rs",
            "#[cfg(test)]\nmod tests { fn digest_helper() {} }",
        )];
        assert!(surface_names(&files).is_empty());
    }
}
