//! The network front door: wire-protocol job submission for the
//! replicated runtime.
//!
//! The paper's deployment story (§5, §6.4) is distributed: many machines
//! run patched replicas and exchange a-few-kilobytes reports with an
//! aggregator. PR 4's
//! [`PoolFrontend`](exterminator::frontend::PoolFrontend) built the
//! server side of that picture *in-process*; this crate puts a real
//! socket in front of it. Three message families share one framed TCP
//! connection (module [`proto`]):
//!
//! 1. **Job submission** — a
//!    [`WorkloadInput`](xt_workloads::WorkloadInput) (plus optional
//!    fault, for attack traffic in demos and tests) goes in; the
//!    front-end's global sequence number comes back. That number, not
//!    the connection or the read interleaving, seeds the replicas — so
//!    remote outcomes are byte-identical to the same inputs submitted
//!    in-process serially, pinned by digest in `tests/net.rs`.
//! 2. **Streaming results** — the server pushes the quorum verdict the
//!    moment the streaming voter declares (stragglers still running),
//!    then the finalized outcome. [`NetClient`] exposes both through the
//!    [`JobTicket`](exterminator::frontend::JobTicket)-shaped
//!    [`NetTicket`] (`wait_verdict` / `wait`).
//! 3. **The fleet path** — `XTR1` run reports ingest into the server's
//!    co-located [`FleetService`](xt_fleet::FleetService); a newly
//!    published epoch fans straight into the server's own pools
//!    ([`bridge::sync_frontend`](xt_fleet::bridge::sync_frontend)),
//!    so remote evidence heals the server, **and is pushed to every
//!    client** as an `EpochPush` frame: down every live connection the
//!    moment it publishes, on accept to a client that connects (or
//!    reconnects) after the publish, and once more to a slow reader
//!    whose push had to be dropped, when its queue drains. Push is the
//!    only epoch path — there is no pull request to fall back on, so
//!    no client can be silently behind for want of polling.
//!    [`NetClient`] absorbs pushes into a one-slot newest-wins cache
//!    ([`NetClient::pushed_epoch`] / [`NetClient::wait_pushed_epoch`]);
//!    a reporter reads how far the fleet has published off its own
//!    `ReportAck` and waits for that push.
//!
//! # The event loop
//!
//! The server is a readiness-driven event loop, not thread-per-
//! connection — one server must hold thousands of mostly-idle clients
//! with bounded threads and memory. A single poller thread owns every
//! connection through [`xt_poll::Poller`] (epoll via a thin FFI shim on
//! Linux, portable `poll(2)` fallback elsewhere — the same
//! offline-stand-in pattern as `proptest`). Sockets are
//! non-blocking; reads accumulate into a per-connection buffer and
//! [`Frame::parse_prefix`](xt_fleet::frame::Frame::parse_prefix) cuts
//! complete frames out of it, so a frame arriving one byte at a time
//! costs buffered patience, not a blocked thread. The poller admits each
//! job submission itself, without blocking, and acknowledges it in the
//! same pass; the pool driver that runs the job encodes its verdict and
//! outcome frames and posts them to the poller. Only work that can block
//! — report ingest, and the send of a job whose pool queue is full —
//! goes to a fixed worker pool. Replies and pushes are *posted* to
//! bounded per-connection write queues that the poller drains when the
//! socket reports writable. Per connection the cost is one fd plus
//! those buffers (the 1k soak in `tests/soak.rs` pins zero threads and
//! under 128 KiB per connection, and reads ~4.6 KB); per server it is a
//! thread set fixed at bind time (poller, workers, pool drivers and their
//! replicas).
//!
//! Everything on the wire rides the shared length-prefixed frame layer
//! ([`xt_fleet::frame`]) and validates **with byte offsets**: these
//! bytes cross a trust boundary, and a rejected frame that names "bad
//! boolean byte 0x3 at offset 4" pinpoints corruption, truncation, or
//! version skew where a bare "bad message" cannot — the same argument
//! `xt_fleet::wire` makes for report payloads, now applied to every
//! message family. Length prefixes are capped before allocation, so a
//! hostile frame cannot buy gigabytes with four bytes.
//!
//! Backpressure follows the PR 4 queue discipline end to end: accepts
//! stop past the connection budget, a submission that finds its pool
//! queue full waits on a worker (never on the poller), reads stop past a
//! per-connection cap of outstanding requests, write queues are bounded
//! per connection
//! (a slow reader drops pushes for itself — counted in
//! `net/pushes_dropped`, and made good with the newest epoch when it
//! drains — rather than growing the server), and nothing grows without
//! bound: a burst degrades to waiting, never to OOM.
//!
//! # Observability
//!
//! A fourth message family serves operators. `HealthPull` → [`Msg::
//! Health`] answers a liveness probe with the server's newest epoch,
//! uptime, durability mode, and recovery count; `MetricsPull` →
//! [`Msg::Metrics`] ships the merged [`xt_obs::RegistrySnapshot`] of
//! every layer: `net/...` (frame counters, live-connection gauge, the
//! `net/wire_rtt` server-side request→reply histogram), `fleet/...`
//! (service counters plus ingest/fold/publish/WAL-append latency
//! histograms), and `frontend/...` (per-job queue-wait, verdict, and
//! execution histograms). Histogram buckets are powers of two in
//! nanoseconds ([`xt_obs::HISTOGRAM_BUCKETS`] of them); names are
//! pre-namespaced per layer so the server merges registries without
//! collisions. [`NetClient::pull_health`] and
//! [`NetClient::pull_metrics`] are the client ends.
//!
//! **Admission control**: arming
//! [`FleetConfig::rate_limit`](xt_fleet::FleetConfig) gives every
//! remote client a deterministic token bucket at report ingest
//! (attempt-driven refill — no wall clock). A refused report crosses
//! back as an `Error` frame ("client N rate-limited at ingest
//! admission") without dropping the connection; refusals count in
//! `fleet/rate_limited`, visible in the pulled snapshot. Submission
//! and pull traffic is never limited, and neither is in-process
//! ingestion. All of it is operational only — timing and admission
//! never touch an outcome byte or a deterministic digest.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetError, NetTicket, RetryPolicy};
pub use proto::{Msg, SubmitJob, WireHealth, WireOutcome, WireReceipt, WireReplica, WireVerdict};
pub use server::{NetConfig, NetDurability, NetFrontend, NetStats};
