//! The fleet's evidence fold, pinned.
//!
//! A seeded synthetic report stream — no program runs — of 3072 reports
//! from 24 clients, about 40 observations each over 100 sites, with one
//! buggy overflow site and one buggy dangling site, folds through
//! `FleetService::ingest_report` at the default configuration (a
//! 512-interval grid, an epoch every 256 reports). The state digest
//! after each third of the stream and the final epoch text must be the
//! pinned ones: the digest covers every grid bit of every site, so any
//! change to a factor's bits shows here.
//!
//! The digests were re-captured when the grid became the integrand of
//! the likelihood ratio instead of separate `L0` and `L1` products. The
//! oracle for that capture: at each third of the stream, every site's
//! new ratio was within 10⁻¹² relative of the previous fold's `l1/l0`
//! (within 5.4 × 10⁻¹⁵ in fact) wherever that fold's `l0` was positive,
//! and the flagged sets were identical. The final epoch text did not
//! move. A mismatch now is a finding to stop on, not a constant to
//! re-capture.

use xt_arena::Rng;
use xt_fleet::{FleetConfig, FleetService, RunReport};

const REPORTS: u32 = 3072;
const CLIENTS: u32 = 24;
const SITES: f64 = 100.0;
const BUGGY_OVERFLOW: u32 = 7;
const BUGGY_DANGLING: u32 = 42;

/// `state_digest()` after 1024, 2048 and 3072 reports.
const DIGESTS: [u128; 3] = [
    0x277f153c7badd8940a1c1a6da3900bde,
    0x35cadf13f48b7a5a4ae1cef646a79eea,
    0x9f98c2114f2860db3983efb3822f7fc3,
];

/// The epoch published last: both buggy sites patched.
const FINAL_EPOCH: &str = "# epoch 2\n# exterminator runtime patches v1\n\
                           pad 00000007 32\n\
                           defer 0000002a 0000004d 95\n";

/// A site drawn with density falling across `0..100`, so low sites take
/// thousands of observations and high sites a few hundred: at the end
/// the grids span every regime from +∞ to zero.
fn site(rng: &mut Rng) -> u32 {
    let u = rng.unit_f64();
    (u * u * SITES) as u32
}

/// An overflow observation's `X` as cumulative mode's `summarize_overflow`
/// forms it, `1 − Π (1 − k/denom)` over a few allocations: a full-mantissa
/// value, so the fold's factors round.
fn placement_odds(rng: &mut Rng) -> f64 {
    let per_alloc = (1 + rng.below(4)) as f64 / [48.0, 96.0, 384.0, 1536.0][rng.below_usize(4)];
    let mut p_none = 1.0;
    for _ in 0..=rng.below(8) {
        p_none *= 1.0 - per_alloc;
    }
    1.0 - p_none
}

/// Report `i` of the stream: its client, that client's sequence number,
/// and observations whose `Y` is drawn from `X` (a clean site) or forced
/// true (the buggy ones). Overflow `X`s are placement odds; dangling
/// `X`s are the canary probabilities `1 − 2⁻ᶠ` and `k/32`.
fn report(rng: &mut Rng, i: u32) -> RunReport {
    let mut overflow_obs = Vec::new();
    for _ in 0..rng.below(9) {
        let site = site(rng) % 40;
        let x = placement_odds(rng);
        let y = site == BUGGY_OVERFLOW || rng.unit_f64() < x;
        overflow_obs.push((site, x, y));
    }
    let mut dangling_obs = Vec::new();
    for _ in 0..(28 + rng.below(16)) {
        let site = site(rng);
        let x = if rng.below(2) == 0 {
            1.0 - 2f64.powi(-(1 + rng.below(5) as i32))
        } else {
            (8 + rng.below(17)) as f64 / 32.0
        };
        let y = (site == BUGGY_DANGLING && rng.below(4) != 0) || rng.unit_f64() < x;
        dangling_obs.push((site, x, y));
    }
    let failed = rng.below(3) == 0;
    RunReport {
        client: u64::from(i % CLIENTS),
        seq: i / CLIENTS,
        failed,
        clock: 10_000 + rng.below(5000),
        n_sites: 100,
        overflow_obs,
        dangling_obs,
        pad_hints: if failed {
            vec![(BUGGY_OVERFLOW, 8 * (1 + rng.below(4) as u32))]
        } else {
            Vec::new()
        },
        defer_hints: if failed {
            vec![(BUGGY_DANGLING, 77, 32 + rng.below(64))]
        } else {
            Vec::new()
        },
    }
}

#[test]
fn fleet_fold_matches_the_parent() {
    let service = FleetService::new(FleetConfig::default());
    let mut rng = Rng::new(0x5EED_F1EE7);
    let mut digests = Vec::new();
    for i in 0..REPORTS {
        let receipt = service.ingest_report(&report(&mut rng, i));
        assert!(!receipt.duplicate, "report {i} is fresh");
        if (i + 1) % 1024 == 0 {
            digests.push(service.state_digest());
        }
    }
    let epoch = service.latest().to_text();

    // The regimes the digest covers: every grid's node 0 is exactly 1,
    // some node is normal and below one, some is subnormal, some is
    // exactly 0 and some has overflowed to +∞.
    let snap = service.export_snapshot();
    let grids = || {
        snap.overflow
            .iter()
            .chain(&snap.dangling)
            .map(|rec| &rec.grid)
    };
    assert!(grids().all(|grid| grid[0] == 1.0));
    let nodes: Vec<f64> = grids().flat_map(|grid| grid[1..].iter().copied()).collect();
    assert!(nodes.iter().any(|g| g.is_normal() && *g < 1.0));
    assert!(nodes.iter().any(|g| g.is_subnormal()));
    assert!(nodes.contains(&0.0));
    assert!(nodes.contains(&f64::INFINITY));

    assert_eq!(digests, DIGESTS);
    assert_eq!(epoch, FINAL_EPOCH);
}
