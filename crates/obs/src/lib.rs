//! `preexec-obs`: the dependency-free observability layer.
//!
//! Everything in the pipeline and service records into one process-wide
//! [`Registry`] of named metrics:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomics for event counts and
//!   levels (cache hits, queue depth, live handler threads).
//! - [`Histogram`] / [`SharedHistogram`] — 40 power-of-two microsecond
//!   buckets for latency distributions; quantile bounds are clamped to
//!   the observed max so they never exceed the data.
//! - [`Span`] — a drop guard that records a stage's wall clock into a
//!   named histogram (`stage.trace`, `stage.score`, ...).
//! - [`Journal`] — a bounded ring buffer of noteworthy [`Event`]s (job
//!   failures, cache corruption, watchdog trips, squashes).
//!
//! The design contract is **no perturbation**: metrics are written, never
//! read, by the code they instrument, so the pipeline's output is
//! byte-identical with recording on or off ([`Registry::set_recording`]).
//! A test in `preexec-experiments` pins this at 1 and 8 threads.
//!
//! Snapshots ([`Registry::snapshot`]) are sorted by name. They back the
//! `preexecd` `metrics` verb (JSON, plus Prometheus-style text from
//! [`render_prometheus`]) and the `toolflow --profile` table.

mod histogram;
mod journal;
mod prom;
mod registry;

pub use histogram::Histogram;
pub use journal::{Event, Journal};
pub use prom::render_prometheus;
pub use registry::{Counter, Gauge, Registry, SharedHistogram, Snapshot, Span};

use std::sync::OnceLock;

/// The process-wide registry every instrumentation site records into.
///
/// Binaries and services read it back out (`preexecd metrics`,
/// `toolflow --profile`); unit tests that assert exact counts should
/// build a private [`Registry`] instead so concurrently running tests
/// cannot pollute each other's numbers.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("obs.selftest");
        let before = c.get();
        global().counter("obs.selftest").inc();
        assert_eq!(c.get(), before + 1);
    }
}
