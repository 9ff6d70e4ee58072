//! Client-side retry with jittered exponential backoff.
//!
//! The other half of the admission-control contract (DESIGN.md §14.3):
//! the daemon sheds with a `retry_after_ms` hint, and a well-behaved
//! client waits at least that long, backing off exponentially with
//! jitter so a herd of shed clients does not re-arrive in lockstep.
//! `toolflow --daemon` uses this when the daemon sheds its batch.
//!
//! Everything is deterministic given the seed (a keyed xorshift, no
//! global RNG), which keeps tests exact and reruns reproducible.

/// Jittered exponential backoff schedule. Not a timer: callers ask for
/// the next delay and do their own sleeping, so the policy is testable
/// without waiting.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base_ms` and capping each delay at
    /// `cap_ms`, jittered by the deterministic stream seeded with
    /// `seed`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            // Zero is xorshift's absorbing state; displace it.
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// How many delays have been handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: plenty for jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The next delay: `base · 2^attempt`, capped, with ±25% jitter —
    /// never below the server's `hint_ms` when one was given (the
    /// `retry_after_ms` contract: the hint is a floor, not a suggestion).
    pub fn next_delay_ms(&mut self, hint_ms: Option<u64>) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt.min(32)).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        // Jitter in [-25%, +25%] of the exponential term.
        let quarter = (exp / 4).max(1);
        let jitter = self.next_rand() % (2 * quarter + 1);
        let delayed = exp - quarter + jitter;
        delayed
            .max(hint_ms.unwrap_or(0))
            .min(self.cap_ms.max(hint_ms.unwrap_or(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_within_the_jitter_band_and_cap() {
        let mut b = Backoff::new(100, 10_000, 42);
        let mut prev_nominal = 0u64;
        for attempt in 0..8u32 {
            let nominal = (100u64 << attempt).min(10_000);
            let d = b.next_delay_ms(None);
            let quarter = (nominal / 4).max(1);
            assert!(
                d >= nominal - quarter && d <= nominal + quarter,
                "attempt {attempt}: {d} outside [{}, {}]",
                nominal - quarter,
                nominal + quarter
            );
            assert!(nominal >= prev_nominal);
            prev_nominal = nominal;
        }
        // Deep attempts stay at the cap (±jitter), no overflow.
        let mut b = Backoff::new(100, 10_000, 7);
        for _ in 0..40 {
            let d = b.next_delay_ms(None);
            assert!(d <= 12_500);
        }
        assert_eq!(b.attempts(), 40);
    }

    #[test]
    fn the_server_hint_is_a_floor() {
        let mut b = Backoff::new(10, 50_000, 3);
        assert!(b.next_delay_ms(Some(4_000)) >= 4_000);
        // Even past the cap, the hint wins: the server knows its backlog.
        let mut b = Backoff::new(10, 100, 3);
        assert!(b.next_delay_ms(Some(4_000)) >= 4_000);
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_jitter() {
        let schedule = |seed: u64| {
            let mut b = Backoff::new(100, 10_000, seed);
            (0..6).map(|_| b.next_delay_ms(None)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(1), schedule(1), "deterministic given the seed");
        assert_ne!(schedule(1), schedule(2), "seeds decorrelate the herd");
    }
}
