//! Job execution: one batch-analysis job through the staged pipeline,
//! with artifact-cache reuse and per-stage latency accounting.
//!
//! A job is (workload, input, [`PipelineConfig`]). Execution goes
//! through the [`Pipeline`] builder, whose output separates the four
//! stages — so the expensive trace+slice stage can be served from the
//! [`ArtifactCache`] and each stage's wall-clock latency lands in its
//! own [`Histogram`]:
//!
//! 1. **trace+slice** (cacheable): keyed by everything it depends on;
//! 2. **base sim**: machine-dependent, always runs;
//! 3. **selection**: model-parameter-dependent, always runs (cheap);
//! 4. **assisted sim**: depends on the selection, always runs.
//!
//! A cache hit therefore re-runs only selection and the two timing sims,
//! which is the whole point of serving many `MachineParams` variations
//! against one trace.

use crate::cache::{ArtifactCache, TraceKey};
use crate::histogram::{histogram_json, Histogram};
use crate::scheduler::JobCompletion;
use preexec_core::par::{ParStats, Parallelism};
use preexec_experiments::{
    Pipeline, PipelineConfig, PipelineError, PipelineResult, PolicySpec, StageUs,
};
use preexec_workloads::{by_name, InputSet, Workload};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A fully-resolved job: what to run (workload, input) and the unified
/// [`PolicySpec`] describing how to run it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Suite name of the workload (resolved — guaranteed to exist).
    pub workload_name: String,
    /// The resolved workload builder.
    pub workload: Workload,
    /// Input set to build the workload with.
    pub input: InputSet,
    /// The complete run policy: configuration, slicing mode, screening,
    /// and the wall-clock deadline — the single source of truth the
    /// pipeline, the journal, and the wire protocol all share. The
    /// slicing mode is not part of the artifact-cache key: every mode
    /// produces bit-identical forests, so a hit under one mode serves
    /// the others.
    pub policy: PolicySpec,
}

impl JobSpec {
    /// Resolves `workload_name` against the suite registry, with a
    /// default policy carrying `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the sorted list of valid names when the workload is
    /// unknown.
    pub fn new(
        workload_name: &str,
        input: InputSet,
        cfg: PipelineConfig,
    ) -> Result<JobSpec, String> {
        match by_name(workload_name) {
            Some(workload) => Ok(JobSpec {
                workload_name: workload_name.to_string(),
                workload,
                input,
                policy: PolicySpec {
                    cfg,
                    ..PolicySpec::default()
                },
            }),
            None => {
                let names: Vec<&str> = preexec_workloads::suite().iter().map(|w| w.name).collect();
                Err(format!(
                    "unknown workload `{workload_name}`; available: {}",
                    names.join(", ")
                ))
            }
        }
    }

    /// The artifact-cache key of this job's trace stage.
    pub fn trace_key(&self) -> TraceKey {
        let cfg = &self.policy.cfg;
        TraceKey {
            workload: self.workload_name.clone(),
            input: self.input,
            scope: cfg.scope,
            max_slice_len: cfg.max_slice_len,
            budget: cfg.budget,
            warmup: cfg.warmup,
        }
    }
}

/// A per-job cancellation handle: a client `cancel` (or the daemon)
/// trips the flag, and an optional wall-clock deadline expires on its
/// own. [`run_job`] consults the token at every stage boundary through
/// the pipeline's [`StageGate`] hook — a running stage always finishes
/// (its own watchdog budgets bound it, DESIGN.md §9.3) and the *next*
/// boundary observes the cancellation.
///
/// Deadlines are relative to token creation, so a job replayed after a
/// crash gets a fresh allowance — a deliberate choice: the deadline
/// bounds *work*, and billing the pre-crash wall time against the re-run
/// would spuriously kill every job that was unlucky enough to be
/// in-flight at crash time.
///
/// [`StageGate`]: preexec_experiments::StageGate
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with an optional deadline of `deadline_ms` milliseconds
    /// from now (`None` = no deadline).
    pub fn new(deadline_ms: Option<u64>) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: deadline_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
        }
    }

    /// Trips the token: the job stops at its next stage boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The stage-boundary check: `Err` when cancelled or past deadline,
    /// naming the stage that was about to start.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cancelled`] or [`PipelineError::DeadlineExceeded`].
    pub fn check(&self, stage: &'static str) -> Result<(), PipelineError> {
        if self.is_cancelled() {
            return Err(PipelineError::Cancelled { stage });
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now > deadline {
                let over_ms = now.duration_since(deadline).as_millis() as u64;
                return Err(PipelineError::DeadlineExceeded { stage, over_ms });
            }
        }
        Ok(())
    }
}

/// Service-wide intra-job parallelism counters: cumulative busy/wall
/// time of the selection stage (the one stage that fans out), from which
/// the `stats` command derives the achieved speedup
/// (`busy / wall` ≈ effective threads).
#[derive(Debug, Default)]
pub struct ParCounters {
    select_wall_us: AtomicU64,
    select_busy_us: AtomicU64,
}

impl ParCounters {
    /// Accumulates one job's selection-stage counters.
    pub fn record_select(&self, s: &ParStats) {
        self.select_wall_us.fetch_add(s.wall_us, Ordering::Relaxed);
        self.select_busy_us.fetch_add(s.busy_us, Ordering::Relaxed);
    }

    /// Serializes the stage as a `{wall_us, busy_us, speedup}` object
    /// keyed by its name.
    pub fn to_json(&self) -> crate::json::Json {
        fn stage(wall: &AtomicU64, busy: &AtomicU64) -> crate::json::Json {
            let wall = wall.load(Ordering::Relaxed);
            let busy = busy.load(Ordering::Relaxed);
            let speedup = if wall == 0 {
                1.0
            } else {
                busy as f64 / wall as f64
            };
            crate::json::Json::obj(vec![
                ("wall_us", crate::json::Json::num_u64(wall)),
                ("busy_us", crate::json::Json::num_u64(busy)),
                ("speedup", crate::json::Json::Num(speedup)),
            ])
        }
        crate::json::Json::obj(vec![(
            "select",
            stage(&self.select_wall_us, &self.select_busy_us),
        )])
    }
}

/// The service-wide per-stage latency histograms. Workers record through
/// a mutex per stage; recording is a handful of integer ops, so
/// contention is negligible next to stage runtimes.
#[derive(Debug, Default)]
pub struct StageHists {
    trace: Mutex<Histogram>,
    base_sim: Mutex<Histogram>,
    select: Mutex<Histogram>,
    assisted_sim: Mutex<Histogram>,
    /// Intra-job parallel-stage utilization (fed by [`run_job`]).
    pub par: ParCounters,
}

/// Recovers from mutex poisoning: a histogram is always internally
/// consistent (plain counters), so the data stays usable.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl StageHists {
    /// Fresh, empty histograms.
    pub fn new() -> StageHists {
        StageHists::default()
    }

    /// Records one job's stage timings (a cache hit contributes no trace
    /// sample — it would drag the trace histogram toward zero and hide
    /// the real cost of tracing).
    pub fn record(&self, us: &StageUs, cache_hit: bool) {
        if !cache_hit {
            locked(&self.trace).record_us(us.trace);
        }
        locked(&self.base_sim).record_us(us.base_sim);
        locked(&self.select).record_us(us.select);
        locked(&self.assisted_sim).record_us(us.assisted_sim);
    }

    /// Serializes all four histograms keyed by stage name.
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj(vec![
            ("trace", histogram_json(&locked(&self.trace))),
            ("base_sim", histogram_json(&locked(&self.base_sim))),
            ("select", histogram_json(&locked(&self.select))),
            ("assisted_sim", histogram_json(&locked(&self.assisted_sim))),
        ])
    }
}

/// Everything a finished job reports.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The workload that ran.
    pub workload: String,
    /// The input set it was built with.
    pub input: InputSet,
    /// The full pipeline result.
    pub result: PipelineResult,
    /// Whether the trace stage was served from the artifact cache.
    pub cache_hit: bool,
    /// Per-stage wall-clock times (trace is 0 on a cache hit).
    pub stage_us: StageUs,
}

/// Runs one job to completion: trace (or cache hit), base sim, select,
/// assisted sim. Never panics on pipeline faults — they become
/// [`JobCompletion::Failed`]; watchdog-truncated timing runs become
/// [`JobCompletion::TimedOut`] with the (valid) result attached.
///
/// `par` is the *intra-job* thread knob: the selection fan-outs may use
/// up to that many scoped threads while this
/// job runs (the daemon sizes it against the scheduler pool so
/// `workers × job_threads` stays bounded by the machine). The job's
/// result is byte-identical for every setting.
///
/// Note: a trace cut by its instruction budget is the *normal* sampling
/// mode, not a time-out — the pipeline's trace stats never set
/// `RunStats::timed_out` — and only the timing sims' `max_cycles`
/// watchdog marks a job `TimedOut`.
///
/// `token`, when given, is consulted at every stage boundary: a tripped
/// or deadline-expired token aborts the run as
/// [`JobCompletion::Cancelled`] before the next stage starts.
pub fn run_job(
    spec: &JobSpec,
    cache: &ArtifactCache,
    hists: &StageHists,
    par: Parallelism,
    token: Option<&CancelToken>,
) -> JobCompletion<JobOutput> {
    // A job cancelled (or expired) while it sat in the queue never
    // starts: report the boundary as "queued".
    if let Some(t) = token {
        if let Err(e) = t.check("queued") {
            return JobCompletion::Cancelled(e);
        }
    }
    if let Err(e) = spec.policy.try_validate() {
        return JobCompletion::Failed(e);
    }
    let program = spec.workload.build(spec.input);
    let key = spec.trace_key();

    let mut pipe = Pipeline::new(&program).policy(spec.policy).parallelism(par);
    // One gate serves both masters: the chaos harness's slow-stage
    // injector (inert without a plan) and the cancellation token.
    let gate_fn = move |stage: &'static str| {
        crate::chaos::stage_delay();
        match token {
            Some(t) => t.check(stage),
            None => Ok(()),
        }
    };
    if token.is_some() || crate::chaos::plan().slow_job_ms.is_some() {
        pipe = pipe.gate(&gate_fn);
    }
    let cache_hit = match cache.load(&key) {
        Some((forest, stats)) => {
            pipe = pipe.artifacts(forest, stats);
            true
        }
        None => false,
    };
    let out = match pipe.run() {
        Ok(out) => out,
        Err(e @ (PipelineError::Cancelled { .. } | PipelineError::DeadlineExceeded { .. })) => {
            return JobCompletion::Cancelled(e)
        }
        Err(e) => return JobCompletion::Failed(e),
    };
    if !cache_hit {
        // A failed store only costs a future recompute.
        let _ = cache.store(&key, &out.forest, &out.result.stats);
    }
    hists.par.record_select(&out.par.select);
    hists.record(&out.stage_us, cache_hit);
    let result = out.result;
    let journal = preexec_obs::global().journal();
    if result.assisted.squashes > 0 {
        journal.note(
            "squash",
            &format!(
                "{} p-thread squashes during assisted sim of {}",
                result.assisted.squashes, spec.workload_name
            ),
        );
    }
    let timed_out = result.base.timed_out || result.assisted.timed_out;
    if timed_out {
        journal.note(
            "watchdog",
            &format!("timing watchdog truncated a sim of {}", spec.workload_name),
        );
    }
    let output = JobOutput {
        workload: spec.workload_name.clone(),
        input: spec.input,
        result,
        cache_hit,
        stage_us: out.stage_us,
    };
    if timed_out {
        JobCompletion::TimedOut(output)
    } else {
        JobCompletion::Done(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_experiments::try_run_pipeline;
    use preexec_obs::Registry;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "preexec-serve-service-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A cache with a private registry: these tests assert exact counter
    /// values, which the shared global registry cannot guarantee under
    /// the parallel test runner.
    fn isolated_cache(dir: &PathBuf, max_entries: usize) -> (ArtifactCache, Registry) {
        let registry = Registry::new();
        let cache = ArtifactCache::with_registry(dir, max_entries, &registry);
        (cache, registry)
    }

    #[test]
    fn job_spec_rejects_unknown_workloads() {
        let cfg = PipelineConfig::paper_default(10_000);
        let e = JobSpec::new("no-such", InputSet::Train, cfg).unwrap_err();
        assert!(e.contains("no-such") && e.contains("vpr.r"), "{e}");
        assert!(JobSpec::new("mcf", InputSet::Test, cfg).is_ok());
    }

    #[test]
    fn second_run_hits_the_cache_and_matches_the_first_and_a_direct_run() {
        let dir = tmp_dir("hit");
        let (cache, _registry) = isolated_cache(&dir, 8);
        let hists = StageHists::new();
        let cfg = PipelineConfig::paper_default(60_000);
        let spec = JobSpec::new("vpr.r", InputSet::Train, cfg).expect("spec");

        let first = match run_job(&spec, &cache, &hists, Parallelism::new(2), None) {
            JobCompletion::Done(out) => out,
            other => panic!("first run: {:?}", other.state()),
        };
        assert!(!first.cache_hit);
        let second = match run_job(&spec, &cache, &hists, Parallelism::serial(), None) {
            JobCompletion::Done(out) => out,
            other => panic!("second run: {:?}", other.state()),
        };
        assert!(second.cache_hit, "identical resubmit must hit the cache");
        assert_eq!(second.stage_us.trace, 0, "hit performs no trace work");

        let direct = try_run_pipeline(&spec.workload.build(spec.input), &cfg).expect("direct run");
        for r in [&first.result, &second.result] {
            assert_eq!(r.base.cycles, direct.base.cycles);
            assert_eq!(r.base.insts, direct.base.insts);
            assert_eq!(r.assisted.cycles, direct.assisted.cycles);
            assert_eq!(r.selection.pthreads.len(), direct.selection.pthreads.len());
            assert_eq!(r.stats.insts, direct.stats.insts);
            assert_eq!(r.stats.l2_misses, direct.stats.l2_misses);
        }
        assert_eq!(cache.stats().hits, 1);
        // Trace histogram has exactly one sample: the hit recorded none.
        let hists_json = hists.to_json();
        let trace_count = hists_json
            .get("trace")
            .and_then(|h| h.get("count"))
            .and_then(crate::json::Json::as_u64);
        assert_eq!(trace_count, Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_recomputes_instead_of_failing() {
        let dir = tmp_dir("corrupt");
        let (cache, _registry) = isolated_cache(&dir, 8);
        let hists = StageHists::new();
        let cfg = PipelineConfig::paper_default(40_000);
        let spec = JobSpec::new("gap", InputSet::Train, cfg).expect("spec");
        let first = match run_job(&spec, &cache, &hists, Parallelism::serial(), None) {
            JobCompletion::Done(out) => out,
            other => panic!("first run: {:?}", other.state()),
        };
        // Mangle the cached forest.
        let slices = std::fs::read_dir(&dir)
            .expect("dir")
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "slices"))
            .expect("cached slices file");
        std::fs::write(
            &slices,
            "preexec-slices version=2 checksum=0000000000000000\ngarbage\n",
        )
        .expect("corrupt");
        let again = match run_job(&spec, &cache, &hists, Parallelism::new(2), None) {
            JobCompletion::Done(out) => out,
            other => panic!("rerun after corruption: {:?}", other.state()),
        };
        assert!(!again.cache_hit, "corrupt entry must recompute");
        assert_eq!(again.result.base.cycles, first.result.base.cycles);
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_config_fails_with_the_typed_error() {
        let dir = tmp_dir("invalid");
        let cache = ArtifactCache::new(&dir, 8);
        let hists = StageHists::new();
        let cfg = PipelineConfig {
            budget: 0,
            ..PipelineConfig::paper_default(1)
        };
        let spec = JobSpec::new("mcf", InputSet::Train, cfg).expect("spec");
        match run_job(&spec, &cache, &hists, Parallelism::serial(), None) {
            JobCompletion::Failed(e) => {
                assert_eq!(e, preexec_experiments::PipelineError::ZeroBudget);
            }
            other => panic!("unexpected {:?}", other.state()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
