//! Admission control: bounded load shedding in front of the scheduler.
//!
//! The scheduler's queue cap is the *hard* wall — hit it and the submit
//! fails with `queue_full`. This module adds the *soft* wall in front of
//! it: beyond a high-water mark of outstanding work, new submissions are
//! shed fast with a typed `overloaded` error carrying a `retry_after_ms`
//! hint, before any job state is allocated. Shedding early keeps the
//! daemon's latency under a flood bounded by what is already queued
//! instead of by what clients keep throwing at it — degradation, not
//! thrash (DESIGN.md §14.3).
//!
//! The gate is driven by the same occupancy the `sched.queue_depth` and
//! `sched.running` gauges in [`preexec_obs`] export; the caller hands in
//! the live values so a private registry (or none at all) works too.
//! `retry_after_ms` is an estimate, not a promise: outstanding work over
//! worker count, times an EWMA of observed job wall time (a fixed prior
//! before the first completion), clamped to a sane band. A client that
//! honors it (see [`retry`](crate::retry)) converges on the daemon's
//! actual drain rate.

use preexec_obs::{Counter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prior for the mean job wall time before any job has finished.
const DEFAULT_JOB_MS: u64 = 250;
/// `retry_after_ms` clamp band: short enough to matter, long enough to
/// not be a busy-wait invitation.
const MIN_RETRY_MS: u64 = 25;
const MAX_RETRY_MS: u64 = 30_000;

/// The typed overload rejection: the daemon is past its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Client hint: when to retry.
    pub retry_after_ms: u64,
    /// Outstanding work (queued + running) at rejection time.
    pub outstanding: u64,
    /// The high-water mark that was exceeded.
    pub high_water: u64,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "daemon overloaded: {} jobs outstanding (high-water {}); retry in {} ms",
            self.outstanding, self.high_water, self.retry_after_ms
        )
    }
}

impl std::error::Error for Overloaded {}

/// The admission gate. Thread-safe; one per daemon.
#[derive(Debug)]
pub struct AdmissionGate {
    high_water: usize,
    workers: usize,
    /// EWMA of job wall time in microseconds (0 = no sample yet).
    mean_job_us: AtomicU64,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
}

impl AdmissionGate {
    /// A gate shedding beyond `high_water` outstanding jobs over a pool
    /// of `workers`, counting `admission.admitted` / `admission.shed`
    /// into `registry`. `high_water == 0` derives the default: ¾ of
    /// `queue_cap` plus the workers (the queue cap still backstops it).
    pub fn new(
        high_water: usize,
        queue_cap: usize,
        workers: usize,
        registry: &Registry,
    ) -> AdmissionGate {
        let high_water = if high_water == 0 {
            (queue_cap * 3 / 4).max(1) + workers
        } else {
            high_water
        };
        AdmissionGate {
            high_water,
            workers: workers.max(1),
            mean_job_us: AtomicU64::new(0),
            admitted: registry.counter("admission.admitted"),
            shed: registry.counter("admission.shed"),
        }
    }

    /// The effective high-water mark.
    pub fn high_water(&self) -> usize {
        self.high_water
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

    /// One retry hint: `waves` drain waves at the current mean job wall,
    /// floored at a single wall — a client must never be told to come
    /// back before even one job could have freed a slot, and the
    /// cold-start prior counts as a wall. The product saturates instead
    /// of wrapping, so an absurd backlog yields the clamp ceiling rather
    /// than a tiny wrapped hint (or a debug-mode overflow panic).
    fn retry_hint_ms(&self, waves: u64) -> u64 {
        let wall = self.mean_job_ms();
        waves
            .saturating_mul(wall)
            .max(wall)
            .clamp(MIN_RETRY_MS, MAX_RETRY_MS)
    }

    /// Admits or sheds a submission given the live occupancy (the same
    /// values the `sched.queue_depth` / `sched.running` gauges mirror).
    ///
    /// # Errors
    ///
    /// [`Overloaded`] with the retry hint when `queued + running` is at
    /// or beyond the high-water mark.
    pub fn admit(&self, queued: usize, running: usize) -> Result<(), Overloaded> {
        let outstanding = queued.saturating_add(running);
        if outstanding < self.high_water {
            self.admitted.inc();
            return Ok(());
        }
        self.shed.inc();
        // Expected time until the backlog drains below the mark, spread
        // over the pool.
        let over = outstanding
            .saturating_add(1)
            .saturating_sub(self.high_water)
            .max(1);
        let waves = over.div_ceil(self.workers) as u64;
        let retry_after_ms = self.retry_hint_ms(waves);
        Err(Overloaded {
            retry_after_ms,
            outstanding: outstanding as u64,
            high_water: self.high_water as u64,
        })
    }

    /// Admits or sheds an `n`-job batch as a unit: admitted only when the
    /// *whole* batch fits under the high-water mark, so a batch cannot
    /// jump the soft wall by splitting its head under the line. One
    /// decision covers the batch — one `admission.admitted` bump per
    /// admitted job, or a single `admission.shed` and a single
    /// `overloaded` error for the lot, whose retry hint accounts for the
    /// full batch joining the backlog.
    ///
    /// # Errors
    ///
    /// [`Overloaded`] when `queued + running + n` would exceed the mark.
    pub fn admit_batch(&self, queued: usize, running: usize, n: usize) -> Result<(), Overloaded> {
        let n = n.max(1);
        let outstanding = queued.saturating_add(running);
        // `outstanding + n - 1 < high_water` ⟺ the last job of the batch
        // still lands under the mark (mirrors the single-job predicate
        // for n == 1).
        if outstanding.saturating_add(n - 1) < self.high_water {
            self.admitted.add(n as u64);
            return Ok(());
        }
        self.shed.inc();
        let over = outstanding
            .saturating_add(n)
            .saturating_sub(self.high_water)
            .max(1);
        let waves = over.div_ceil(self.workers) as u64;
        let retry_after_ms = self.retry_hint_ms(waves);
        Err(Overloaded {
            retry_after_ms,
            outstanding: outstanding as u64,
            high_water: self.high_water as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(high_water: usize, workers: usize) -> (AdmissionGate, Registry) {
        let registry = Registry::new();
        let g = AdmissionGate::new(high_water, 0, workers, &registry);
        (g, registry)
    }

    #[test]
    fn admits_below_and_sheds_at_the_high_water_mark() {
        let (g, registry) = gate(4, 2);
        assert!(g.admit(0, 0).is_ok());
        assert!(g.admit(1, 2).is_ok());
        let e = g.admit(2, 2).expect_err("at the mark");
        assert_eq!(e.outstanding, 4);
        assert_eq!(e.high_water, 4);
        assert!(e.retry_after_ms >= MIN_RETRY_MS && e.retry_after_ms <= MAX_RETRY_MS);
        assert!(e.to_string().contains("retry in"));
        assert!(g.admit(40, 2).is_err(), "far past the mark still sheds");
        assert_eq!(registry.counter("admission.admitted").get(), 2);
        assert_eq!(registry.counter("admission.shed").get(), 2);
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_observed_job_time() {
        let (g, _r) = gate(2, 2);
        // Prior: no samples yet.
        assert_eq!(g.mean_job_ms(), DEFAULT_JOB_MS);
        let small = g.admit(2, 0).expect_err("shed").retry_after_ms;
        let large = g.admit(40, 2).expect_err("shed").retry_after_ms;
        assert!(
            large > small,
            "deeper backlog → longer hint ({small} vs {large})"
        );
        // Feed fast jobs: the hint shrinks toward the clamp floor.
        for _ in 0..32 {
            g.record_job_us(2_000); // 2 ms jobs
        }
        assert!(g.mean_job_ms() <= 3);
        let fast = g.admit(4, 2).expect_err("shed").retry_after_ms;
        assert!(fast <= small, "fast jobs must shrink the hint");
        // Slow jobs: the hint grows but stays clamped.
        for _ in 0..64 {
            g.record_job_us(120_000_000); // 2-minute jobs
        }
        let slow = g.admit(400, 2).expect_err("shed").retry_after_ms;
        assert_eq!(slow, MAX_RETRY_MS);
    }

    #[test]
    fn cold_start_hint_covers_at_least_one_job_wall() {
        // Before any completion the prior *is* the wall: a wide pool
        // makes a single drain wave, and the hint must still be one
        // prior-sized wall (250 ms), not the 25 ms clamp floor — a
        // client retrying after 25 ms is guaranteed to find the same
        // backlog.
        let (g, _r) = gate(2, 64);
        let e = g.admit(2, 0).expect_err("shed");
        assert_eq!(e.retry_after_ms, DEFAULT_JOB_MS);
        let e = g.admit_batch(2, 0, 3).expect_err("shed");
        assert_eq!(
            e.retry_after_ms, DEFAULT_JOB_MS,
            "batch hint shares the floor"
        );
        // Once a wall is observed the floor tracks it.
        g.record_job_us(5_000_000); // one 5 s job
        let e = g.admit(2, 0).expect_err("shed");
        assert_eq!(e.retry_after_ms, 5_000);
        // An absurd backlog saturates to the clamp ceiling instead of
        // wrapping the waves × wall product into a tiny hint.
        let e = g.admit(usize::MAX - 1, 1).expect_err("shed");
        assert_eq!(e.retry_after_ms, MAX_RETRY_MS);
    }

    #[test]
    fn batches_are_admitted_or_shed_as_a_unit() {
        let (g, registry) = gate(6, 2);
        // 2 outstanding + batch of 4: last job lands at occupancy 5 < 6.
        assert!(g.admit_batch(1, 1, 4).is_ok());
        assert_eq!(registry.counter("admission.admitted").get(), 4);
        // 3 outstanding + batch of 4: job #4 would cross the mark — the
        // whole batch sheds with one counted rejection.
        let e = g.admit_batch(2, 1, 4).expect_err("batch crosses the mark");
        assert_eq!(
            e.outstanding, 3,
            "reports live occupancy, not occupancy + n"
        );
        assert_eq!(registry.counter("admission.shed").get(), 1);
        // The hint accounts for the whole batch draining: a larger batch
        // at the same occupancy yields a hint at least as long.
        for _ in 0..32 {
            g.record_job_us(2_000_000); // 2 s jobs give the hint room
        }
        let small = g.admit_batch(6, 0, 2).expect_err("shed").retry_after_ms;
        let large = g.admit_batch(6, 0, 40).expect_err("shed").retry_after_ms;
        assert!(
            large >= small,
            "batch size must widen the hint ({small} vs {large})"
        );
        // n = 1 behaves exactly like single admit; n = 0 is clamped to 1.
        assert!(g.admit_batch(4, 0, 1).is_ok());
        assert!(g.admit_batch(4, 0, 0).is_ok());
        assert!(g.admit_batch(5, 1, 1).is_err());
    }

    #[test]
    fn zero_high_water_derives_from_queue_cap_and_workers() {
        let registry = Registry::new();
        let g = AdmissionGate::new(0, 256, 8, &registry);
        assert_eq!(g.high_water(), 256 * 3 / 4 + 8);
        let g = AdmissionGate::new(0, 1, 1, &registry);
        assert_eq!(g.high_water(), 2, "tiny queue still admits something");
        let g = AdmissionGate::new(7, 256, 8, &registry);
        assert_eq!(g.high_water(), 7, "explicit mark wins");
    }
}
