//! Golden pins for pool mode's capture-on-demand (PR 23).
//!
//! A pool replica dumps a heap image only when it is replaying a failed
//! job to the detection clock; every other run hands back its verdict and
//! recycles the arena. That must change *nothing* a caller can see: same
//! votes, same replica summaries, same breakpoints, same images isolated
//! over, same patches. The constants below were printed by this very test
//! in a clone of the parent commit (deab2e3, where every replica of every
//! job still captured) and pinned, as `tests/repair_golden.rs` did for
//! the error path. A mismatch means a walked-away run and a captured one
//! disagreed about a verdict, or a replay saw a different heap — a
//! finding to stop on, not a constant to re-capture.
//!
//! It is also the proof, by execution rather than by reading, that
//! `ReplicatedOutcome::deterministic_digest` covers nothing the dropped
//! images fed.

use exterminator::pool::{PoolConfig, PoolOutcome, ReplicaPool};
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

/// `mode_equivalence`'s program input.
fn fault_input() -> WorkloadInput {
    WorkloadInput::with_seed(6).intensity(3)
}

/// `mode_equivalence`'s espresso cells: overflow δ ∈ {4, 20, 36} and the
/// dangling free with lag 12, at their discovered triggers.
fn cells() -> [(&'static str, Option<FaultSpec>); 5] {
    let at = |kind, trigger| {
        Some(FaultSpec {
            kind,
            trigger: AllocTime::from_raw(trigger),
        })
    };
    let overflow = |delta, fill| FaultKind::BufferOverflow { delta, fill };
    [
        ("benign", None),
        ("overflow+4@131", at(overflow(4, 0xEE), 131)),
        ("overflow+20@65", at(overflow(20, 0xEE), 65)),
        ("overflow+36@65", at(overflow(36, 0x77), 65)),
        (
            "dangling~12@154",
            at(FaultKind::DanglingFree { lag: 12 }, 154),
        ),
    ]
}

/// A patch table on one line: the patch-file text minus its header.
fn table(patches: &PatchTable) -> String {
    let text = patches.to_text();
    let entries: Vec<&str> = text.lines().skip(1).collect();
    format!("[{}]", entries.join("; "))
}

/// One pool session on one line: per job its `deterministic_digest` and
/// whether isolation ran (`R`) or not (`-`), then the last job's merged
/// patches and the pool's live table.
fn session(replicas: usize, auto_patch: bool, batch: bool, fault: Option<FaultSpec>) -> String {
    // The same faulty input four times over (so self-patching shows in
    // the later jobs), or four different benign ones.
    let inputs: Vec<WorkloadInput> = (0..4)
        .map(|i| match fault {
            Some(_) => fault_input(),
            None => WorkloadInput::with_seed(40 + i).intensity(2),
        })
        .collect();
    let workload = EspressoLike::new();
    std::thread::scope(|scope| {
        let config = PoolConfig {
            replicas,
            auto_patch,
            ..PoolConfig::default()
        };
        let mut pool = ReplicaPool::scoped(scope, &workload, config, PatchTable::new());
        let outcomes: Vec<PoolOutcome> = if batch {
            pool.run_batch(&inputs, fault)
        } else {
            inputs.iter().map(|i| pool.run_one(i, fault)).collect()
        };
        let jobs: Vec<String> = outcomes
            .iter()
            .map(|o| {
                let report = if o.outcome.report.is_some() { 'R' } else { '-' };
                format!("{:032x}{report}", o.deterministic_digest())
            })
            .collect();
        let last = &outcomes.last().expect("four jobs ran").outcome.patches;
        let line = format!(
            "{} last={} live={}",
            jobs.join(" "),
            table(last),
            table(pool.patches())
        );
        pool.shutdown();
        line
    })
}

/// 1 and 3 replicas × `auto_patch` on and off × `run_one` and `run_batch`
/// × the five cells: 40 sessions of four jobs each.
#[test]
fn pool_outcomes_match_the_parents() {
    let mut got = Vec::new();
    for replicas in [1, 3] {
        for auto_patch in [true, false] {
            for batch in [false, true] {
                for (name, fault) in cells() {
                    got.push(format!(
                        "r{replicas} auto={auto_patch} {} {name}: {}",
                        if batch { "batch" } else { "one" },
                        session(replicas, auto_patch, batch, fault)
                    ));
                }
            }
        }
    }
    let golden = [
        "r1 auto=true one benign: d2ed74f923e12bcda4d6d9c67b1184fb- 7ca0b4963314ef430822e3fd1b72bf06- 43c53a11cf882b5bcea50a833a950f54- 3f381ba0d2cc5f0d83bb8cbfcc889419- last=[] live=[]",
        "r1 auto=true one overflow+4@131: 8bda80edf89d6ef2c1273af5309a5fb1R 1bc7370f0589fc1c07947c0479b7dde4R c681bec7d028c9ba49befec67fc5a772R 418a5f7ef1922e60bb3e1e661b7a251b- last=[] live=[]",
        "r1 auto=true one overflow+20@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 48fe0248fb641c71c531457614c4b50dR last=[] live=[]",
        "r1 auto=true one overflow+36@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 5e94a5dd4ffd5a59465a1e15e5947a99R last=[] live=[]",
        "r1 auto=true one dangling~12@154: 2f45b55c4d69f108c27e2f5bfab94ce4R 029faeca7daa5ba90d3fb3e35ae2c0d2R e020f1e29bfa82605e39560535b3f62cR ff78a039cd841b9a9789055059518193R last=[] live=[]",
        "r1 auto=true batch benign: d2ed74f923e12bcda4d6d9c67b1184fb- 7ca0b4963314ef430822e3fd1b72bf06- 43c53a11cf882b5bcea50a833a950f54- 3f381ba0d2cc5f0d83bb8cbfcc889419- last=[] live=[]",
        "r1 auto=true batch overflow+4@131: 8bda80edf89d6ef2c1273af5309a5fb1R fde24b2532b62e673d6e3682318261c8- 1bc7370f0589fc1c07947c0479b7dde4R 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=true batch overflow+20@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=true batch overflow+36@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=true batch dangling~12@154: 2f45b55c4d69f108c27e2f5bfab94ce4R 539bb38d8307855ae4960d4348da64daR 029faeca7daa5ba90d3fb3e35ae2c0d2R d8d17b4a4423f6a21830b859f63bdd37R last=[] live=[]",
        "r1 auto=false one benign: d2ed74f923e12bcda4d6d9c67b1184fb- 7ca0b4963314ef430822e3fd1b72bf06- 43c53a11cf882b5bcea50a833a950f54- 3f381ba0d2cc5f0d83bb8cbfcc889419- last=[] live=[]",
        "r1 auto=false one overflow+4@131: 8bda80edf89d6ef2c1273af5309a5fb1R 1bc7370f0589fc1c07947c0479b7dde4R c681bec7d028c9ba49befec67fc5a772R 418a5f7ef1922e60bb3e1e661b7a251b- last=[] live=[]",
        "r1 auto=false one overflow+20@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 48fe0248fb641c71c531457614c4b50dR last=[] live=[]",
        "r1 auto=false one overflow+36@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 5e94a5dd4ffd5a59465a1e15e5947a99R last=[] live=[]",
        "r1 auto=false one dangling~12@154: 2f45b55c4d69f108c27e2f5bfab94ce4R 029faeca7daa5ba90d3fb3e35ae2c0d2R e020f1e29bfa82605e39560535b3f62cR ff78a039cd841b9a9789055059518193R last=[] live=[]",
        "r1 auto=false batch benign: d2ed74f923e12bcda4d6d9c67b1184fb- 7ca0b4963314ef430822e3fd1b72bf06- 43c53a11cf882b5bcea50a833a950f54- 3f381ba0d2cc5f0d83bb8cbfcc889419- last=[] live=[]",
        "r1 auto=false batch overflow+4@131: 8bda80edf89d6ef2c1273af5309a5fb1R fde24b2532b62e673d6e3682318261c8- 1bc7370f0589fc1c07947c0479b7dde4R 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=false batch overflow+20@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=false batch overflow+36@65: 63b7f32b104bcacb7cbf2912503f140d- fde24b2532b62e673d6e3682318261c8- 5259d74fe634a16ffa042ce5606f094aR 555860e93e296d6a2e6a5639ca0f5433- last=[] live=[]",
        "r1 auto=false batch dangling~12@154: 2f45b55c4d69f108c27e2f5bfab94ce4R 539bb38d8307855ae4960d4348da64daR 029faeca7daa5ba90d3fb3e35ae2c0d2R d8d17b4a4423f6a21830b859f63bdd37R last=[] live=[]",
        "r3 auto=true one benign: a6e96124edce8a7161c59d07ee35622e- 5a53882badbd21a243c395feb69d2426- eaac0017c1796566c8081614aecd5531- 4e6e81e482d93da5cdbd74ad2b4d91b4- last=[] live=[]",
        "r3 auto=true one overflow+4@131: bffa99f19db88430c081d90b5ca99994R 59ddd7b9434ca412187da8a52d7a1234R baf177ee7a39944502e832a5e1b72566- 1aa19b0986f49d2beaa5f731ccd997d9- last=[pad 5b26f1a3 4] live=[pad 5b26f1a3 4]",
        "r3 auto=true one overflow+20@65: 8616a0c1ffd8c3976f172f88228d0bb2R cbe1c2021d428fbf257f0c7e812960b3R 5972e3e49cff593d075a7dc4c8ced39aR bd99b9eccccb28ed6cfbd6ed6d4cfddf- last=[pad 512a9203 20] live=[pad 512a9203 20]",
        "r3 auto=true one overflow+36@65: 8616a0c1ffd8c3976f172f88228d0bb2R cbe1c2021d428fbf257f0c7e812960b3R 30921538442cb44f097753ea8d80bd03R bcf6e2624f75c36f2407c29b51836928- last=[pad 512a9203 36] live=[pad 512a9203 36]",
        "r3 auto=true one dangling~12@154: 553d7baaf19dab44fdc529fc1565c64aR fc3750ae2e6e42261a35e1c7e01dddb7- cae77d9a066647d2a4886f683f1f98f0- db0d3cfc566dc1ef137ce714b2bc782e- last=[defer 5b266983 fa17feed 25] live=[defer 5b266983 fa17feed 25]",
        "r3 auto=true batch benign: a6e96124edce8a7161c59d07ee35622e- 5a53882badbd21a243c395feb69d2426- eaac0017c1796566c8081614aecd5531- 4e6e81e482d93da5cdbd74ad2b4d91b4- last=[] live=[]",
        "r3 auto=true batch overflow+4@131: bffa99f19db88430c081d90b5ca99994R 3eed932ebf67fcd956e805a2bd06e2f0- 59ddd7b9434ca412187da8a52d7a1234R b7d734463b4d1c9e0ab77332ce681456R last=[] live=[pad 5b26f1a3 4]",
        "r3 auto=true batch overflow+20@65: 8616a0c1ffd8c3976f172f88228d0bb2R a4a24d7acd5d54390c617e9a5bc595dbR cbe1c2021d428fbf257f0c7e812960b3R d19cde9e360b7dd78a255e43c15e3d9e- last=[] live=[]",
        "r3 auto=true batch overflow+36@65: 8616a0c1ffd8c3976f172f88228d0bb2R a4a24d7acd5d54390c617e9a5bc595dbR cbe1c2021d428fbf257f0c7e812960b3R d19cde9e360b7dd78a255e43c15e3d9e- last=[] live=[]",
        "r3 auto=true batch dangling~12@154: 553d7baaf19dab44fdc529fc1565c64aR 43ce6dc4d37d3aaed89c1595060d1d64R 390748e563dcfc1c93750f87fae5179eR f5788aca0a6553cc8335de9c828bf30cR last=[defer 5b266983 fa17feed 25] live=[defer 5b266983 fa17feed 100]",
        "r3 auto=false one benign: a6e96124edce8a7161c59d07ee35622e- 5a53882badbd21a243c395feb69d2426- eaac0017c1796566c8081614aecd5531- 4e6e81e482d93da5cdbd74ad2b4d91b4- last=[] live=[]",
        "r3 auto=false one overflow+4@131: bffa99f19db88430c081d90b5ca99994R 59ddd7b9434ca412187da8a52d7a1234R e6941a77853974972b581996ade148faR b58cd00c2447e416b56126114755a951R last=[] live=[]",
        "r3 auto=false one overflow+20@65: 8616a0c1ffd8c3976f172f88228d0bb2R cbe1c2021d428fbf257f0c7e812960b3R 5972e3e49cff593d075a7dc4c8ced39aR 678e8e1edbb08a0235a44ec1878df406R last=[] live=[]",
        "r3 auto=false one overflow+36@65: 8616a0c1ffd8c3976f172f88228d0bb2R cbe1c2021d428fbf257f0c7e812960b3R 30921538442cb44f097753ea8d80bd03R 678e8e1edbb08a0235a44ec1878df406R last=[] live=[]",
        "r3 auto=false one dangling~12@154: 553d7baaf19dab44fdc529fc1565c64aR 390748e563dcfc1c93750f87fae5179eR a5742eaaa8e2ecd34006f8e35d0e249eR 3203ced02bacbfc7c18b3be265894ea5R last=[defer 5b266983 fa17feed 25] live=[]",
        "r3 auto=false batch benign: a6e96124edce8a7161c59d07ee35622e- 5a53882badbd21a243c395feb69d2426- eaac0017c1796566c8081614aecd5531- 4e6e81e482d93da5cdbd74ad2b4d91b4- last=[] live=[]",
        "r3 auto=false batch overflow+4@131: bffa99f19db88430c081d90b5ca99994R 3eed932ebf67fcd956e805a2bd06e2f0- 59ddd7b9434ca412187da8a52d7a1234R b7d734463b4d1c9e0ab77332ce681456R last=[] live=[]",
        "r3 auto=false batch overflow+20@65: 8616a0c1ffd8c3976f172f88228d0bb2R a4a24d7acd5d54390c617e9a5bc595dbR cbe1c2021d428fbf257f0c7e812960b3R d19cde9e360b7dd78a255e43c15e3d9e- last=[] live=[]",
        "r3 auto=false batch overflow+36@65: 8616a0c1ffd8c3976f172f88228d0bb2R a4a24d7acd5d54390c617e9a5bc595dbR cbe1c2021d428fbf257f0c7e812960b3R d19cde9e360b7dd78a255e43c15e3d9e- last=[] live=[]",
        "r3 auto=false batch dangling~12@154: 553d7baaf19dab44fdc529fc1565c64aR 43ce6dc4d37d3aaed89c1595060d1d64R 390748e563dcfc1c93750f87fae5179eR f5788aca0a6553cc8335de9c828bf30cR last=[defer 5b266983 fa17feed 25] live=[]",
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(golden)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(i, (got, want))| format!("#{i}:\n     got {got}\n  golden {want}"))
        .collect();
    assert!(
        got.len() == golden.len() && mismatches.is_empty(),
        "pool outcomes moved ({} rendered, {} pinned):\n{}\nall rendered:\n{}",
        got.len(),
        golden.len(),
        mismatches.join("\n"),
        got.iter()
            .map(|g| format!("        {g:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
