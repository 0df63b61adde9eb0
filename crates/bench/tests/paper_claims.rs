//! The paper's claims, pinned: one test per scorecard row.
//!
//! Every row is deterministic, so each test pins `ours` exactly — the way
//! `tests/repair_golden.rs` pins rendered outcomes — and asserts the
//! row's status. A change that moves a number must edit the string here;
//! a `Holds` row that stops holding, or a `Diverges` row that starts to,
//! fails. `paper_report` prints the same rows.

use bench::{Row, Status};

/// Asserts `row.ours == ours` and returns the row's status.
fn pinned(row: Row, ours: &str) -> Status {
    assert_eq!(row.ours, ours, "{}: {}", row.section, row.claim);
    row.status
}

fn diverges(status: Status) -> bool {
    matches!(status, Status::Diverges(why) if !why.is_empty())
}

#[test]
fn squid() {
    let status = pinned(
        bench::squid(),
        "fixed=true, sites 1, pad 6, images 3, patched failures 0/5; \
         baseline completed=true, corrupted=true",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn mozilla() {
    let status = pinned(
        bench::mozilla(),
        "immediate: isolated=true, 15 runs / 6 failures, pad 8, \
         flagged site:0dcdfcfb (ratio 633.7, 5 obs); \
         noisy navigation: isolated=true, 20 runs / 9 failures, pad 8, \
         flagged site:0dcdfcfb (ratio 8711.2, 9 obs)",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn injected_overflows() {
    let status = pinned(
        bench::injected_overflows(),
        "4 B: 8/10 repaired, median 3 images, 3..8; \
         20 B: 10/10 repaired, median 5 images, 3..11; \
         36 B: 7/10 repaired, median 5 images, 3..8",
    );
    assert!(diverges(status), "{status:?}");
}

#[test]
fn injected_dangling_iterative() {
    let status = pinned(
        bench::injected_dangling_iterative(),
        "isolated 1/10, canary-read aborts 8/10, cascades 1/10",
    );
    assert!(diverges(status), "{status:?}");
}

#[test]
fn injected_dangling_cumulative() {
    let status = pinned(
        bench::injected_dangling_cumulative(),
        "isolated 6/10 in 25..142 runs; runs/failures per trigger: \
         t124 ✓142/62, t102 ✓25/10, t209 ✗150/119, t315 ✗150/104, t189 ✓67/53, \
         t254 ✗150/79, t364 ✓26/12, t196 ✓26/12, t161 ✓32/20, t306 ✗150/110",
    );
    assert!(diverges(status), "{status:?}");
}

#[test]
fn patch_overhead() {
    let status = pinned(
        bench::patch_overhead(),
        "36 B pad: entries 1, peak pad 32 B, drag 0 B·ticks, peak deferred 0 B, \
         footprint 45056 B (0.071 %); \
         deferral: entries 1, peak pad 0 B, drag 1648 B·ticks, peak deferred 16 B, \
         footprint 45056 B (0.036 %)",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn collaborative() {
    let status = pinned(
        bench::collaborative(),
        "8 users (BufferOverflow { delta: 20, fill: 225 } @ t124 → entries 1, 50 B, \
         BufferOverflow { delta: 36, fill: 226 } @ t102 → entries 1, 50 B, \
         DanglingFree { lag: 12 } @ t209 → entries 2, 79 B, \
         BufferOverflow { delta: 36, fill: 229 } @ t174 → entries 1, 50 B, \
         BufferOverflow { delta: 36, fill: 232 } @ t196 → entries 1, 50 B, \
         BufferOverflow { delta: 20, fill: 234 } @ t306 → entries 1, 50 B, \
         BufferOverflow { delta: 36, fill: 235 } @ t222 → entries 1, 50 B, \
         BufferOverflow { delta: 20, fill: 237 } @ t403 → entries 1, 50 B); \
         merged: entries 9, 191 B (pads 8, deferrals 1); \
         failing runs per user under the merged table: 0/3, 0/3, 0/3, 0/3, 0/3, 0/3, 0/3, 0/3",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn fleet() {
    let status = pinned(
        bench::fleet(),
        "BufferOverflow { delta: 20, fill: 238 } @ t239: epoch 1 after 53 reports, \
         DanglingFree { lag: 12 } @ t364: epoch 2 after 68 reports; \
         68 runs across 600 clients",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn theorem_2() {
    let row = bench::theorem_2();
    assert_eq!(row.paper, "≤ 0.750 / 0.562 / 0.422 / 0.316");
    assert_eq!(pinned(row, "0.677 / 0.420 / 0.273 / 0.213"), Status::Holds);
}

#[test]
fn theorem_3() {
    let row = bench::theorem_3();
    assert_eq!(row.paper, "≤ 119.000 / 1.000 / 0.008");
    assert_eq!(pinned(row, "27.590 / 0.071 / 0.000"), Status::Holds);
}

#[test]
fn theorem_1() {
    let row = bench::theorem_1();
    assert_eq!(row.paper, "≤ 0.000018 / 0.000000");
    assert_eq!(pinned(row, "0.0000 / 0.0000"), Status::Holds);
}

#[test]
fn ablation_m() {
    let status = pinned(
        bench::ablation_m(),
        "detection 0.17 / 0.42 / 0.25 / 0.08 at M = 1.5 / 2 / 4 / 8; \
         clean-run footprint 28 / 44 / 80 / 144 KiB",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn ablation_p() {
    let status = pinned(
        bench::ablation_p(),
        "at p = 0.125 / 0.25 / 0.5 / 0.75 / 1: isolated 0/3, 1/3, 2/3, 3/3, 3/3; \
         mean runs -, 121, 135, 121, 69; mean failure rate 0.30 / 0.30 / 0.35 / 0.37 / 0.40",
    );
    assert_eq!(status, Status::Holds);
}

#[test]
fn ablation_deferral() {
    let status = pinned(
        bench::ablation_deferral(),
        "rounds, 2(T−τ)+1 vs fixed +8 (cap 40): \
         t102 1 vs 6, t352 3 vs 13, t346 1 vs 5, t139 2 vs 10, t175 2 vs 11",
    );
    assert_eq!(status, Status::Holds);
}
