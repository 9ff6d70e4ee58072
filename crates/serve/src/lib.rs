//! `preexec-serve` — a batch p-thread analysis service.
//!
//! The analysis pipeline (functional trace → slice forest → p-thread
//! selection → timing simulation) is deterministic and embarrassingly
//! parallel across (workload, machine, config) points, and its most
//! expensive stage — trace+slice — is machine-independent. This crate
//! packages that shape as a service:
//!
//! - [`scheduler`] — a bounded-queue, fixed-pool parallel job scheduler
//!   with per-job terminal states and graceful drain;
//! - [`cache`] — a content-addressed artifact cache that persists trace
//!   statistics and slice forests in the checksummed v2 slice-file
//!   format, keyed by an FNV-1a-64 digest of everything the trace stage
//!   depends on;
//! - [`service`] — job execution: the staged pipeline with cache reuse
//!   and per-stage latency accounting;
//! - [`proto`] + [`json`] — a newline-delimited JSON wire protocol over
//!   a hand-rolled, dependency-free JSON module;
//! - [`server`] — the `preexecd` TCP front end tying it all together;
//! - [`histogram`] — JSON serialization for the power-of-two-bucket
//!   latency histograms of [`preexec_obs`], backing the `stats` and
//!   `metrics` reports;
//! - [`journal`] — the durable job journal (append-only, checksummed
//!   WAL) behind crash recovery: acked work survives a daemon kill and
//!   re-runs byte-identically (DESIGN.md §14);
//! - [`admission`] + [`retry`] — overload protection: a high-water
//!   admission gate that sheds with `retry_after_ms` hints, and the
//!   client-side jittered-backoff helper honoring them;
//! - [`chaos`] — opt-in fault injection (`PREEXEC_CHAOS`) for the
//!   daemon-level chaos suite: worker panics, slow stages, cache write
//!   faults.
//!
//! Observability: every layer records into the process-wide
//! [`preexec_obs`] registry (stage latencies, cache hit/miss/eviction
//! counters, scheduler gauges, an event journal). The daemon exposes the
//! full registry through the `metrics` verb as JSON plus a
//! Prometheus-style text rendering.
//!
//! Two binaries ship with the crate: `preexecd` (the daemon) and
//! `toolflow` (the batch CLI, which runs its workloads through the same
//! scheduler via `--jobs N`).
//!
//! The serving tier (DESIGN.md §15) is the [`reactor`]: a
//! dependency-free epoll event loop (raw syscalls, no libc) that
//! multiplexes every connection on one thread, with pipelined request
//! handling — clients may write N request lines before reading
//! responses, and responses echo each request's `id`.
//!
//! Everything here is `std`-only: no async runtime, no serde, no
//! registry dependencies. Jobs run on a fixed OS-thread pool; the
//! connection front end is the nonblocking [`reactor`] on Linux (a
//! thread-per-connection fallback remains for other platforms and
//! `--threaded`). Determinism of the *results* (bit-identical to a
//! direct pipeline run) is the contract that matters.

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod proto;
pub mod reactor;
pub mod retry;
pub mod scheduler;
pub mod server;
pub mod service;

pub use admission::{AdmissionGate, Overloaded};
pub use cache::{ArtifactCache, CacheStats, TraceKey};
pub use histogram::{histogram_json, Histogram};
pub use journal::{
    canonical_result, check_invariants, compact_wal, CompactionStats, JobJournal, JournalReplay,
};
pub use json::Json;
pub use proto::{parse_request, ProtoError, Request, PROTOCOL_VERSION};
pub use reactor::{LineHandler, ReactorConfig};
pub use retry::{retry_with_backoff, Backoff};
pub use scheduler::{
    CancelOutcome, JobCompletion, JobId, JobState, Scheduler, SchedulerStats, SubmitError,
};
pub use server::{Server, ServerConfig};
pub use service::{run_job, CancelToken, JobOutput, JobSpec, StageHists};
