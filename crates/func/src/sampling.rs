//! Cyclic off / warm-up / on sampling, as in the paper's §4.1.
//!
//! "All simulation tools exploit sampling, cycling through off
//! (fast-forwarding), warm-up (caches and branch predictor only) and on
//! (full detail) phases at regular intervals."

/// The sampling phase a given dynamic instruction falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fast-forward: execute architecturally, touch no models.
    Off,
    /// Warm models (caches, predictors) but record nothing.
    Warm,
    /// Full detail: record trace events / simulate timing.
    On,
}

/// A cyclic sampling schedule: `off` instructions fast-forwarded, then
/// `warm` instructions of warm-up, then `on` instructions of full detail,
/// repeating.
///
/// The paper samples 100 M of every 1 B instructions with 10 M-instruction
/// warm-up; our scaled default (see `TraceConfig`) keeps the same 10:1:89
/// spirit at laptop scale. A schedule with `off == 0 && warm == 0` is
/// always-on.
///
/// # Example
///
/// ```
/// use preexec_func::{Phase, Sampling};
///
/// let s = Sampling::new(5, 2, 3);
/// assert_eq!(s.phase(0), Phase::Off);
/// assert_eq!(s.phase(5), Phase::Warm);
/// assert_eq!(s.phase(7), Phase::On);
/// assert_eq!(s.phase(10), Phase::Off); // cycle repeats
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    off: u64,
    warm: u64,
    on: u64,
}

impl Sampling {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `on` is zero (a schedule that never measures is a bug).
    pub fn new(off: u64, warm: u64, on: u64) -> Sampling {
        assert!(on > 0, "sampling schedule must have a nonzero `on` phase");
        Sampling { off, warm, on }
    }

    /// An always-on schedule (no fast-forwarding, no warm-up).
    pub fn always_on() -> Sampling {
        Sampling {
            off: 0,
            warm: 0,
            on: u64::MAX,
        }
    }

    /// Total instructions per cycle of the schedule.
    pub fn period(&self) -> u64 {
        self.off.saturating_add(self.warm).saturating_add(self.on)
    }

    /// The phase of the `n`-th dynamic instruction (0-based).
    pub fn phase(&self, n: u64) -> Phase {
        if self.off == 0 && self.warm == 0 {
            return Phase::On;
        }
        let pos = n % self.period();
        if pos < self.off {
            Phase::Off
        } else if pos < self.off + self.warm {
            Phase::Warm
        } else {
            Phase::On
        }
    }

    /// Fraction of instructions measured (`on / period`).
    pub fn duty_cycle(&self) -> f64 {
        if self.off == 0 && self.warm == 0 {
            1.0
        } else {
            self.on as f64 / self.period() as f64
        }
    }
}

impl Default for Sampling {
    /// Defaults to always-on.
    fn default() -> Sampling {
        Sampling::always_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_never_cycles() {
        let s = Sampling::always_on();
        for n in [0u64, 1, 1_000_000, u64::MAX - 1] {
            assert_eq!(s.phase(n), Phase::On);
        }
        assert_eq!(s.duty_cycle(), 1.0);
    }

    #[test]
    fn phases_in_order() {
        let s = Sampling::new(10, 5, 85);
        assert_eq!(s.period(), 100);
        assert_eq!(s.phase(0), Phase::Off);
        assert_eq!(s.phase(9), Phase::Off);
        assert_eq!(s.phase(10), Phase::Warm);
        assert_eq!(s.phase(14), Phase::Warm);
        assert_eq!(s.phase(15), Phase::On);
        assert_eq!(s.phase(99), Phase::On);
        assert_eq!(s.phase(100), Phase::Off);
    }

    #[test]
    fn duty_cycle() {
        let s = Sampling::new(890, 10, 100);
        assert!((s.duty_cycle() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_off_nonzero_warm() {
        let s = Sampling::new(0, 2, 2);
        assert_eq!(s.phase(0), Phase::Warm);
        assert_eq!(s.phase(2), Phase::On);
        assert_eq!(s.phase(4), Phase::Warm);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_on_rejected() {
        let _ = Sampling::new(1, 1, 0);
    }
}
