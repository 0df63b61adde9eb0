//! The fleet's evidence fold, pinned to constants captured when
//! `SiteEvidence::observe` still divided `j / n` at every Simpson node.
//!
//! A seeded synthetic report stream — no program runs — of 3072 reports
//! from 24 clients, about 40 observations each over 100 sites, with one
//! buggy overflow site and one buggy dangling site, folds through
//! `FleetService::ingest_report` at the default configuration (16 shards,
//! a 512-interval grid, an epoch every 256 reports). The state digest
//! after each third of the stream and the final epoch text must be the
//! captured ones: the digest covers every grid bit of every site, so any
//! change to a factor's bits shows here. The stream is long enough that
//! grids hold normal, subnormal and zero nodes at the end, and the test
//! asserts so, because those are the regimes a faster fold must not
//! change.

use xt_arena::Rng;
use xt_fleet::{FleetConfig, FleetService, RunReport};

const REPORTS: u32 = 3072;
const CLIENTS: u32 = 24;
const SITES: f64 = 100.0;
const BUGGY_OVERFLOW: u32 = 7;
const BUGGY_DANGLING: u32 = 42;

/// `state_digest()` after 1024, 2048 and 3072 reports.
const DIGESTS: [u128; 3] = [
    0xdf7cae576b7a69a9f73421b97e4c7146,
    0xebd878e6ae13e5c43feaef59eb8264f3,
    0xbf05848455294a891aaac7a6b82955e5,
];

/// The epoch published last: both buggy sites patched.
const FINAL_EPOCH: &str = "# epoch 2\n# exterminator runtime patches v1\n\
                           pad 00000007 32\n\
                           defer 0000002a 0000004d 95\n";

/// A site drawn with density falling across `0..100`, so low sites take
/// thousands of observations and high sites a few hundred: at the end
/// the grids span every regime from normal to zero.
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

    // The regimes the digest covers: some grid node is still normal and
    // below one, some is subnormal, and some interior node is exactly 0.
    let snap = service.export_snapshot();
    let nodes: Vec<f64> = snap
        .overflow
        .iter()
        .chain(&snap.dangling)
        .flat_map(|rec| rec.grid[1..rec.grid.len() - 1].iter().copied())
        .collect();
    assert!(nodes.iter().any(|g| g.is_normal() && *g < 1.0));
    assert!(nodes.iter().any(|g| g.is_subnormal()));
    assert!(nodes.contains(&0.0));

    assert_eq!(digests, DIGESTS);
    assert_eq!(epoch, FINAL_EPOCH);
}
