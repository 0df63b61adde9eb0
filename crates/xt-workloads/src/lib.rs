//! The benchmark applications of the paper's evaluation (§7), rebuilt as
//! Rust programs over the [`Heap`] trait.
//!
//! The paper evaluates Exterminator on the SPECint2000 suite, an
//! allocation-intensive suite (espresso, cfrac, ...), the Squid web cache,
//! and Mozilla. None of those C programs can run over the simulated
//! address space, so this crate provides *behavioural stand-ins* (see
//! `ROADMAP.md`, "Current architecture"): each workload
//!
//! * allocates and frees with a realistic profile (sizes, lifetimes,
//!   allocation intensity) through any [`Heap`];
//! * stores real data in its objects and *uses* them — reads are verified
//!   against tags/invariants, so memory corruption actually manifests as
//!   wrong output, self-detected aborts, or simulated segfaults;
//! * emits a deterministic output stream that is a pure function of its
//!   input — independent of heap layout — so the replicated mode's voter
//!   can compare replicas byte-for-byte;
//! * propagates heap errors (including the iterative mode's malloc
//!   breakpoint) by aborting, like a crashing process.
//!
//! Two workloads carry *seeded real bugs* mirroring the paper's case
//! studies: [`SquidLike`] (a deterministic 6-byte heap overflow on a
//! malformed request, §7.2) and [`MozillaLike`] (a buffer overflow in
//! international-domain-name processing with nondeterministic allocation
//! noise, paper bug 307259).

mod cfrac;
mod ctx;
mod espresso;
mod mozilla;
mod profile;
mod squid;

pub use cfrac::CfracLike;
pub use ctx::{fnv1a, Abort, Ctx};
pub use espresso::EspressoLike;
pub use mozilla::{attack_browsing_session, benign_browsing_session, MozillaLike};
pub use profile::{AllocProfile, ProfileWorkload};
pub use squid::{
    attack_request, benign_request_window, benign_requests, multi_client_sessions,
    overflow_requests, server_session, SquidLike,
};

use xt_alloc::{Heap, HeapError, MemFault};

/// Input to a workload run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadInput {
    /// Seed for the workload's own randomness. Deterministic workloads
    /// derive everything from it; [`MozillaLike`] treats it as the
    /// per-run nondeterminism (mouse movement, timers).
    pub seed: u64,
    /// Request stream / page list / raw input bytes, workload-specific.
    pub payload: Vec<u8>,
    /// Scale factor: more rounds, more requests, more pages.
    pub intensity: u32,
}

impl WorkloadInput {
    /// A convenience constructor for seed-only inputs.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        WorkloadInput {
            seed,
            payload: Vec::new(),
            intensity: 1,
        }
    }

    /// Sets the payload.
    #[must_use]
    pub fn payload(mut self, payload: impl Into<Vec<u8>>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Sets the intensity.
    #[must_use]
    pub fn intensity(mut self, intensity: u32) -> Self {
        self.intensity = intensity;
        self
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran to completion.
    Completed,
    /// Aborted: the reproduction's equivalent of a process crash.
    Crashed(CrashKind),
}

impl RunOutcome {
    /// `true` if the run completed normally.
    #[must_use]
    pub fn completed(&self) -> bool {
        *self == RunOutcome::Completed
    }
}

/// Why a run crashed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// An access faulted (simulated SIGSEGV).
    SegFault(MemFault),
    /// The allocator refused an allocation (OOM or oversized request).
    HeapExhausted(HeapError),
    /// The iterative mode's malloc breakpoint fired — not an error, the
    /// runtime stops replays this way (§3.4).
    Breakpoint,
    /// The application detected an internal inconsistency and aborted
    /// (e.g. espresso reading a canary where a cube tag should be).
    SelfAbort(&'static str),
}

/// The result of one workload run: outcome plus captured output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Output bytes produced up to the end (complete runs) or up to the
    /// crash point. The replicated mode's voter compares these.
    pub output: Vec<u8>,
}

impl RunResult {
    /// `true` if the run completed normally.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.outcome.completed()
    }
}

/// A benchmark application runnable over any allocator.
pub trait Workload {
    /// Short name, as it appears in Fig. 7's x-axis.
    fn name(&self) -> &'static str;

    /// Runs the workload to completion (or crash) over `heap`.
    fn run(&self, heap: &mut dyn Heap, input: &WorkloadInput) -> RunResult;
}

impl<T: Workload + ?Sized> Workload for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&self, heap: &mut dyn Heap, input: &WorkloadInput) -> RunResult {
        (**self).run(heap, input)
    }
}

/// The allocation-intensive suite of §7.1 (espresso, cfrac, and
/// profile-driven stand-ins for lindsay, p2c, and roboop).
#[must_use]
pub fn alloc_intensive_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(CfracLike::new()),
        Box::new(EspressoLike::new()),
        Box::new(ProfileWorkload::lindsay_like()),
        Box::new(ProfileWorkload::p2c_like()),
        Box::new(ProfileWorkload::roboop_like()),
    ]
}

/// The SPECint2000 stand-in suite of §7.1.
#[must_use]
pub fn spec_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ProfileWorkload::gzip_like()),
        Box::new(ProfileWorkload::vpr_like()),
        Box::new(ProfileWorkload::gcc_like()),
        Box::new(ProfileWorkload::mcf_like()),
        Box::new(ProfileWorkload::crafty_like()),
        Box::new(ProfileWorkload::parser_like()),
        Box::new(ProfileWorkload::perlbmk_like()),
        Box::new(ProfileWorkload::gap_like()),
        Box::new(ProfileWorkload::vortex_like()),
        Box::new(ProfileWorkload::bzip2_like()),
        Box::new(ProfileWorkload::twolf_like()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_builder_chains() {
        let input = WorkloadInput::with_seed(7)
            .payload(b"x".to_vec())
            .intensity(3);
        assert_eq!(input.seed, 7);
        assert_eq!(input.payload, b"x");
        assert_eq!(input.intensity, 3);
    }

    #[test]
    fn outcome_predicates() {
        assert!(RunOutcome::Completed.completed());
        assert!(!RunOutcome::Crashed(CrashKind::Breakpoint).completed());
    }

    #[test]
    fn suites_are_populated() {
        assert_eq!(alloc_intensive_suite().len(), 5);
        assert_eq!(spec_suite().len(), 11);
        let names: Vec<&str> = spec_suite().iter().map(|w| w.name()).collect();
        assert!(names.contains(&"crafty-like"));
    }
}
