//! Dependency-free deterministic intra-job parallelism.
//!
//! Selection fans out over independent items — one advantage
//! calculation per slice-tree node, one screen pass and one overlap
//! fixed-point per tree — and every unit of work is a pure function of
//! its inputs. This module provides the one primitive they all need:
//! [`map`], an ordered parallel map over a slice, built on
//! [`std::thread::scope`] so it needs no external dependencies and no
//! long-lived pool.
//!
//! # Determinism contract
//!
//! The output of [`map`] is **byte-identical for every thread count**:
//!
//! - items are partitioned into fixed-size contiguous chunks whose
//!   boundaries depend only on the item count and the thread count of
//!   *this call* — never on timing;
//! - workers claim chunks dynamically (for load balance under skewed
//!   per-item cost) but each chunk's results are kept together and the
//!   final merge is ordered by chunk index, i.e. by input index;
//! - each item's result is computed by exactly one invocation of a pure
//!   `f`, so the floating-point operation sequence per item is the same
//!   as a serial loop's.
//!
//! Callers supply the remaining half of the contract: `f` must depend
//! only on its item (no shared mutable state), and any cross-item
//! reduction must happen serially over the ordered output.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How many threads a parallelizable stage may use.
///
/// `Parallelism` is a plain knob, not a pool: each [`map`] call spawns
/// scoped threads and joins them before returning, so a stage holds its
/// threads only while it runs. This is what lets the batch service bound
/// *total* threads as `workers × job_threads` without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// One thread: every stage runs exactly the historical serial code
    /// path (no scoped threads are spawned at all).
    pub fn serial() -> Parallelism {
        Parallelism { threads: 1 }
    }

    /// Up to `threads` threads; zero is clamped to one.
    pub fn new(threads: usize) -> Parallelism {
        Parallelism { threads: threads.max(1) }
    }

    /// One thread per available core.
    pub fn auto() -> Parallelism {
        Parallelism::new(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }

    /// The configured thread count (≥ 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Whether this knob disables intra-stage threading.
    pub fn is_serial(self) -> bool {
        self.threads == 1
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::serial()
    }
}

/// Utilization accounting for one or more [`map_stats`] calls.
///
/// `busy_us` sums the wall-clock time every worker spent inside the
/// call; `wall_us` is the call's elapsed time. Their ratio estimates the
/// achieved speedup (≈ 1 when serial or when one item dominates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Elapsed wall-clock time of the mapped stage, in microseconds.
    pub wall_us: u64,
    /// Summed per-worker busy time, in microseconds.
    pub busy_us: u64,
    /// Threads actually used (after clamping to the item count).
    pub threads: usize,
    /// Items processed.
    pub items: usize,
}

impl ParStats {
    /// Achieved speedup estimate: busy time over wall time, 1.0 when no
    /// time was measured.
    pub fn speedup(&self) -> f64 {
        if self.wall_us == 0 {
            1.0
        } else {
            self.busy_us as f64 / self.wall_us as f64
        }
    }

    /// Accumulates another stage's counters (stages run back to back, so
    /// wall times add).
    pub fn absorb(&mut self, other: &ParStats) {
        self.wall_us += other.wall_us;
        self.busy_us += other.busy_us;
        self.threads = self.threads.max(other.threads);
        self.items += other.items;
    }
}

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Below this many items a parallel map runs inline on the caller's
/// thread even when more threads are configured: for small fan-outs the
/// spawn/join round-trip costs more than the work itself (measured as
/// sub-1.0 "speedups" on the pipeline bench's small select and
/// trace_slice stages). Results are unaffected — the inline path is the
/// same ordered per-item loop the chunked merge reproduces.
pub const SERIAL_FALLBACK_ITEMS: usize = 128;

/// Mirrors one call's counters into the global metrics registry
/// (`par.calls`, `par.items`, `par.busy_us`, `par.wall_us`). Write-only:
/// nothing here feeds back into the mapped computation, preserving the
/// determinism contract.
fn record_stats(stats: &ParStats) {
    let reg = preexec_obs::global();
    reg.counter("par.calls").inc();
    reg.counter("par.items").add(stats.items as u64);
    reg.counter("par.busy_us").add(stats.busy_us);
    reg.counter("par.wall_us").add(stats.wall_us);
}

/// Ordered parallel map: applies `f` to every item and returns the
/// results **in input order**, regardless of thread count (see the
/// module-level determinism contract).
pub fn map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_stats(par, items, f).0
}

/// [`map`] plus utilization counters for the call.
pub fn map_stats<T, R, F>(par: Parallelism, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();
    let threads = par.threads().min(items.len()).max(1);
    if threads == 1 || items.len() < SERIAL_FALLBACK_ITEMS {
        if threads > 1 {
            // Parallelism was requested and declined: surface how often.
            preexec_obs::global().counter("par.serial_fallbacks").inc();
        }
        let out: Vec<R> = items.iter().map(&f).collect();
        let wall = elapsed_us(started);
        let stats = ParStats { wall_us: wall, busy_us: wall, threads: 1, items: items.len() };
        record_stats(&stats);
        return (out, stats);
    }

    // Fixed chunk geometry (4 chunks per thread bounds claim overhead
    // while leaving room to balance skewed items); chunk boundaries are
    // a pure function of (len, threads).
    let chunk_len = items.len().div_ceil(threads * 4).max(1);
    let num_chunks = items.len().div_ceil(chunk_len);
    let next_chunk = AtomicUsize::new(0);
    let busy_us = AtomicU64::new(0);
    let f = &f;

    let mut chunks: Vec<(usize, Vec<R>)> = Vec::with_capacity(num_chunks);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next_chunk = &next_chunk;
                let busy_us = &busy_us;
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let lo = c * chunk_len;
                        let hi = (lo + chunk_len).min(items.len());
                        local.push((c, items[lo..hi].iter().map(f).collect()));
                    }
                    busy_us.fetch_add(elapsed_us(t0), Ordering::Relaxed);
                    local
                })
            })
            .collect();
        for h in handles {
            // A panic in `f` propagates to the caller, like a serial loop.
            chunks.extend(h.join().unwrap_or_else(|e| resume_unwind(e)));
        }
    });

    // Ordered merge: chunk indices are unique, so this sort is total and
    // the concatenation reproduces input order exactly.
    chunks.sort_unstable_by_key(|&(c, _)| c);
    let out: Vec<R> = chunks.into_iter().flat_map(|(_, v)| v).collect();
    debug_assert_eq!(out.len(), items.len());
    let stats = ParStats {
        wall_us: elapsed_us(started),
        busy_us: busy_us.load(Ordering::Relaxed),
        threads,
        items: items.len(),
    };
    record_stats(&stats);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 64, 1000] {
            let got = map(Parallelism::new(threads), &items, |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let none: Vec<u32> = Vec::new();
        assert!(map(Parallelism::new(8), &none, |x| *x).is_empty());
        assert_eq!(map(Parallelism::new(8), &[7], |x| x + 1), vec![8]);
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // The per-item operation sequence is fixed, so f64 outputs must
        // match bit for bit — the property selection relies on.
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e6 + x / 3.0).sqrt();
        let serial: Vec<u64> = map(Parallelism::serial(), &items, f)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 5, 16] {
            let par: Vec<u64> = map(Parallelism::new(threads), &items, f)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn stats_account_for_the_work() {
        let items: Vec<u32> = (0..64).collect();
        let (out, stats) = map_stats(Parallelism::new(4), &items, |x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(stats.items, 64);
        assert!(stats.threads >= 1 && stats.threads <= 4);
        assert!(stats.speedup() > 0.0);
        let mut total = ParStats::default();
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!(total.items, 128);
    }

    #[test]
    fn knob_clamps_and_reports() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert!(Parallelism::new(1).is_serial());
        assert!(!Parallelism::new(2).is_serial());
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn small_inputs_fall_back_to_inline_execution() {
        let fallbacks = preexec_obs::global().counter("par.serial_fallbacks");
        let before = fallbacks.get();
        let small: Vec<u32> = (0..SERIAL_FALLBACK_ITEMS as u32 - 1).collect();
        let expect: Vec<u32> = small.iter().map(|x| x * 3).collect();
        let (out, stats) = map_stats(Parallelism::new(8), &small, |x| x * 3);
        assert_eq!(out, expect, "inline path must match");
        assert_eq!(stats.threads, 1, "small input must not spawn threads");
        assert!(fallbacks.get() > before, "declined parallelism must be counted");
    }

    #[test]
    fn threshold_sized_inputs_still_parallelize() {
        let items: Vec<u32> = (0..SERIAL_FALLBACK_ITEMS as u32).collect();
        let (_, stats) = map_stats(Parallelism::new(4), &items, |x| x + 1);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn serial_knob_does_not_count_as_fallback() {
        let fallbacks = preexec_obs::global().counter("par.serial_fallbacks");
        let before = fallbacks.get();
        let items: Vec<u32> = (0..8).collect();
        let _ = map_stats(Parallelism::serial(), &items, |x| x + 1);
        assert_eq!(fallbacks.get(), before, "serial was requested, not declined");
    }

    #[test]
    fn panics_propagate_like_a_serial_loop() {
        let items: Vec<u32> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            map(Parallelism::new(4), &items, |x| {
                assert!(*x != 17, "boom");
                *x
            })
        });
        assert!(r.is_err());
    }
}
