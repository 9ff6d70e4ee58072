//! Daemon-level fault injection for the chaos test suite.
//!
//! The chaos harness (DESIGN.md §14.4) drives `preexecd` into the
//! failure windows that matter — a worker dying mid-job, a store that
//! cannot hit the disk, a job slow enough that a `SIGKILL` lands inside
//! it — and then checks the durability invariants. Because the daemon
//! under test is a separate *process*, injection is configured through
//! one environment variable, read once at startup:
//!
//! ```text
//! PREEXEC_CHAOS=panic_job=3,slow_job_ms=150,cache_store_fail=1
//! ```
//!
//! | key | effect |
//! |-----|--------|
//! | `panic_job=N` | the `N`th job *started* (1-based, process-wide) panics on its worker after the journal `start` record — the crash window between start and done |
//! | `slow_job_ms=M` | every job sleeps `M` ms at each stage boundary, widening the window a `SIGKILL` can land in |
//! | `cache_store_fail=1` | every artifact-cache store fails with an I/O error (results must still be served and journaled) |
//!
//! Unknown keys are ignored (forward compatibility); a malformed value
//! disables its key. With the variable unset every probe is a branch on
//! a preparsed `false` — nothing to configure, nothing to pay.
//!
//! Injection sites live in production code (`cache::store`, the server's
//! job wrapper) but are inert without the variable, the standard
//! failpoint pattern.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The parsed injection plan; all-off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// 1-based index (in start order) of a job whose worker panics
    /// mid-job, after the journal `start` record.
    pub panic_job: Option<u64>,
    /// Per-stage-boundary sleep, widening crash windows.
    pub slow_job_ms: Option<u64>,
    /// Fail every artifact-cache store with an I/O error.
    pub cache_store_fail: bool,
}

impl ChaosPlan {
    /// Parses the `PREEXEC_CHAOS` comma-separated `key=value` format.
    /// Unknown keys and malformed values are ignored.
    pub fn parse(spec: &str) -> ChaosPlan {
        let mut plan = ChaosPlan::default();
        for part in spec.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                continue;
            };
            match key.trim() {
                "panic_job" => plan.panic_job = value.trim().parse().ok(),
                "slow_job_ms" => plan.slow_job_ms = value.trim().parse().ok(),
                "cache_store_fail" => plan.cache_store_fail = value.trim() == "1",
                _ => {}
            }
        }
        plan
    }
}

static PLAN: OnceLock<ChaosPlan> = OnceLock::new();
static JOBS_STARTED: AtomicU64 = AtomicU64::new(0);

/// The process-wide plan: parsed from `PREEXEC_CHAOS` on first use,
/// all-off when the variable is unset.
pub fn plan() -> &'static ChaosPlan {
    PLAN.get_or_init(|| match std::env::var("PREEXEC_CHAOS") {
        Ok(spec) => ChaosPlan::parse(&spec),
        Err(_) => ChaosPlan::default(),
    })
}

/// Marks one job as started and returns its 1-based start index —
/// [`should_panic_now`]'s input.
pub fn job_started() -> u64 {
    JOBS_STARTED.fetch_add(1, Ordering::Relaxed) + 1
}

/// Whether the `panic_job` injector targets the job with this start
/// index.
pub fn should_panic_now(start_index: u64) -> bool {
    plan().panic_job == Some(start_index)
}

/// The `slow_job_ms` injector: sleeps at a stage boundary when armed.
pub fn stage_delay() {
    if let Some(ms) = plan().slow_job_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_env_format_leniently() {
        let plan = ChaosPlan::parse("panic_job=3, slow_job_ms=150 ,cache_store_fail=1");
        assert_eq!(plan.panic_job, Some(3));
        assert_eq!(plan.slow_job_ms, Some(150));
        assert!(plan.cache_store_fail);

        // Unknown keys, malformed values, junk: ignored, never fatal.
        let plan = ChaosPlan::parse("panic_job=abc,future_knob=7,,=,noise");
        assert_eq!(plan, ChaosPlan::default());
        assert_eq!(ChaosPlan::parse(""), ChaosPlan::default());
    }

    #[test]
    fn start_indices_are_unique_and_increasing() {
        let a = job_started();
        let b = job_started();
        assert!(b > a);
    }
}
