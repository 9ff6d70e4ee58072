//! Admission control: how the daemon sheds a submission its queue
//! cannot take.
//!
//! The scheduler's queue cap is the daemon's one overload wall: its
//! capacity check runs under the scheduler lock and accepts or refuses a
//! whole batch ([`Scheduler::submit_batch`]). This module turns a refusal
//! into the typed `overloaded` error carrying a `retry_after_ms` hint,
//! and counts both outcomes (`admission.admitted`, `admission.shed`) so
//! the wall's behaviour is observable (DESIGN.md §14.3).
//!
//! `retry_after_ms` is an estimate, not a promise: the batch's excess
//! over the queue's free slots, drained in waves over the worker pool,
//! times an EWMA of observed job wall time (a fixed prior before the
//! first completion), clamped to a sane band. A client that honors it
//! (see [`retry`](crate::retry)) converges on the daemon's actual drain
//! rate.
//!
//! [`Scheduler::submit_batch`]: crate::scheduler::Scheduler::submit_batch

use preexec_obs::{Counter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prior for the mean job wall time before any job has finished.
const DEFAULT_JOB_MS: u64 = 250;
/// `retry_after_ms` clamp band: short enough to matter, long enough to
/// not be a busy-wait invitation.
const MIN_RETRY_MS: u64 = 25;
const MAX_RETRY_MS: u64 = 30_000;

/// The typed overload rejection: the job queue cannot take the batch
/// now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Client hint: when to retry.
    pub retry_after_ms: u64,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "daemon overloaded: job queue full; retry in {} ms",
            self.retry_after_ms
        )
    }
}

impl std::error::Error for Overloaded {}

/// The admission gate. Thread-safe; one per daemon.
#[derive(Debug)]
pub struct AdmissionGate {
    workers: usize,
    /// EWMA of job wall time in microseconds (0 = no sample yet).
    mean_job_us: AtomicU64,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
}

impl AdmissionGate {
    /// A gate for a pool of `workers`, counting `admission.admitted` /
    /// `admission.shed` into `registry`.
    pub fn new(workers: usize, registry: &Registry) -> AdmissionGate {
        AdmissionGate {
            workers: workers.max(1),
            mean_job_us: AtomicU64::new(0),
            admitted: registry.counter("admission.admitted"),
            shed: registry.counter("admission.shed"),
        }
    }

    /// Submissions shed so far (mirrors the `admission.shed` counter).
    pub fn shed_total(&self) -> u64 {
        self.shed.get()
    }

    /// Folds one finished job's wall time into the EWMA (α = ¼ — a few
    /// jobs move the estimate, one outlier does not own it).
    pub fn record_job_us(&self, us: u64) {
        let prev = self.mean_job_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            us
        } else {
            prev - prev / 4 + us / 4
        };
        self.mean_job_us.store(next.max(1), Ordering::Relaxed);
    }

    /// The current mean-job-time estimate in milliseconds (the prior
    /// before any sample).
    pub fn mean_job_ms(&self) -> u64 {
        match self.mean_job_us.load(Ordering::Relaxed) {
            0 => DEFAULT_JOB_MS,
            us => (us / 1000).max(1),
        }
    }

    /// Counts an admitted batch of `n` jobs.
    pub fn record_admitted(&self, n: usize) {
        self.admitted.add(n as u64);
    }

    /// Sheds a batch that overflows the queue's free slots by `excess`
    /// jobs: counts one `admission.shed` and returns the rejection. The
    /// hint is the excess drained in waves over the workers at the
    /// current mean job wall, floored at a single wall — a client must
    /// never be told to come back before even one job could have freed a
    /// slot, and the cold-start prior counts as a wall. The product
    /// saturates instead of wrapping, so an absurd excess yields the
    /// clamp ceiling rather than a tiny wrapped hint (or a debug-mode
    /// overflow panic).
    pub fn shed(&self, excess: usize) -> Overloaded {
        self.shed.inc();
        let waves = excess.max(1).div_ceil(self.workers) as u64;
        let wall = self.mean_job_ms();
        Overloaded {
            retry_after_ms: waves
                .saturating_mul(wall)
                .max(wall)
                .clamp(MIN_RETRY_MS, MAX_RETRY_MS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_and_admissions_are_counted() {
        let registry = Registry::new();
        let g = AdmissionGate::new(2, &registry);
        g.record_admitted(3);
        g.record_admitted(1);
        let e = g.shed(1);
        assert!(e.retry_after_ms >= MIN_RETRY_MS && e.retry_after_ms <= MAX_RETRY_MS);
        assert!(e.to_string().contains("overloaded"), "{e}");
        assert!(e.to_string().contains("retry in"), "{e}");
        let _ = g.shed(40);
        assert_eq!(registry.counter("admission.admitted").get(), 4);
        assert_eq!(registry.counter("admission.shed").get(), 2);
        assert_eq!(g.shed_total(), 2);
    }

    #[test]
    fn retry_hint_scales_with_excess_and_observed_job_time() {
        let g = AdmissionGate::new(2, &Registry::new());
        // Prior: no samples yet.
        assert_eq!(g.mean_job_ms(), DEFAULT_JOB_MS);
        let small = g.shed(2).retry_after_ms;
        let large = g.shed(42).retry_after_ms;
        assert!(
            large > small,
            "deeper excess → longer hint ({small} vs {large})"
        );
        // Feed fast jobs: the hint shrinks toward the clamp floor.
        for _ in 0..32 {
            g.record_job_us(2_000); // 2 ms jobs
        }
        assert!(g.mean_job_ms() <= 3);
        let fast = g.shed(6).retry_after_ms;
        assert!(fast <= small, "fast jobs must shrink the hint");
        // Slow jobs: the hint grows but stays clamped.
        for _ in 0..64 {
            g.record_job_us(120_000_000); // 2-minute jobs
        }
        assert_eq!(g.shed(402).retry_after_ms, MAX_RETRY_MS);
    }

    #[test]
    fn cold_start_hint_covers_at_least_one_job_wall() {
        // Before any completion the prior *is* the wall: a wide pool
        // makes a single drain wave, and the hint must still be one
        // prior-sized wall (250 ms), not the 25 ms clamp floor — a
        // client retrying after 25 ms is guaranteed to find the same
        // backlog.
        let g = AdmissionGate::new(64, &Registry::new());
        assert_eq!(g.shed(1).retry_after_ms, DEFAULT_JOB_MS);
        assert_eq!(g.shed(3).retry_after_ms, DEFAULT_JOB_MS);
        // Once a wall is observed the floor tracks it.
        g.record_job_us(5_000_000); // one 5 s job
        assert_eq!(g.shed(1).retry_after_ms, 5_000);
        // An absurd excess saturates to the clamp ceiling instead of
        // wrapping the waves × wall product into a tiny hint.
        let g = AdmissionGate::new(1, &Registry::new());
        assert_eq!(g.shed(usize::MAX).retry_after_ms, MAX_RETRY_MS);
    }
}
