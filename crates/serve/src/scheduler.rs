//! A bounded-queue, fixed-pool parallel job scheduler.
//!
//! The service's unit of work is one pipeline run; this module schedules
//! many of them over `N` OS threads with a bounded submission queue
//! (backpressure, not unbounded memory growth), per-job terminal states,
//! and a graceful drain on shutdown. It is generic over the job's output
//! type so both `preexecd` (structured [`PipelineResult`]s) and
//! `toolflow --jobs N` (buffered report text) run on the same scheduler.
//!
//! Job deadlines are *not* wall-clock timers bolted on here: each job
//! carries its own instruction/cycle budgets, and the watchdogs below it
//! (`TraceConfig.max_steps`, `SimConfig.max_cycles`,
//! `SimConfig.pthread_step_budget` — DESIGN.md §9.3) guarantee
//! termination. A job whose timing run tripped `max_cycles` completes in
//! the [`JobState::TimedOut`] state, result attached; a job that returns
//! a typed error completes as [`JobState::Failed`]. A panicking job is
//! caught (the worker survives) and reported as `Failed` with the panic
//! message.
//!
//! [`PipelineResult`]: preexec_experiments::PipelineResult

use preexec_experiments::PipelineError;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Identifies one submitted job (1-based, monotonically increasing).
pub type JobId = u64;

/// A unit of work: runs to completion and classifies its own outcome.
/// The worker passes the job its own [`JobId`] so the job can report
/// itself (journal records, metrics) without a side channel.
pub type JobFn<T> = Box<dyn FnOnce(JobId) -> JobCompletion<T> + Send + 'static>;

/// The observable lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished normally.
    Done,
    /// Finished with a typed pipeline error (or a caught panic).
    Failed,
    /// Finished, but a watchdog budget cut the run short.
    TimedOut,
    /// Cancelled before completion (client `cancel`, or an expired
    /// deadline observed at a stage boundary).
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timed_out",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a job finished.
#[derive(Debug, Clone)]
pub enum JobCompletion<T> {
    /// The job produced its output.
    Done(T),
    /// The job produced output, but a watchdog truncated the run — the
    /// output is the valid prefix (timeouts are not errors, §9.3).
    TimedOut(T),
    /// The job hit a typed pipeline fault.
    Failed(PipelineError),
    /// The job panicked; the worker caught it and carries the message.
    Panicked(String),
    /// The job was cancelled — by a client `cancel` verb or an expired
    /// deadline. Carries the [`PipelineError::Cancelled`] /
    /// [`PipelineError::DeadlineExceeded`] that stopped it.
    Cancelled(PipelineError),
}

impl<T> JobCompletion<T> {
    /// The terminal [`JobState`] this completion maps to.
    pub fn state(&self) -> JobState {
        match self {
            JobCompletion::Done(_) => JobState::Done,
            JobCompletion::TimedOut(_) => JobState::TimedOut,
            JobCompletion::Failed(_) | JobCompletion::Panicked(_) => JobState::Failed,
            JobCompletion::Cancelled(_) => JobState::Cancelled,
        }
    }

    /// The output, when one exists (`Done` or `TimedOut`).
    pub fn output(&self) -> Option<&T> {
        match self {
            JobCompletion::Done(out) | JobCompletion::TimedOut(out) => Some(out),
            _ => None,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue's free slots cannot take the whole batch.
    QueueFull {
        /// The configured capacity.
        cap: usize,
        /// Jobs already waiting when the batch was refused.
        queued: usize,
    },
    /// The scheduler is draining and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { cap, queued } => {
                write!(f, "job queue full ({queued} of {cap} slots taken)")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`Scheduler::cancel_queued`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued; it is now terminal [`JobState::Cancelled`].
    Dequeued,
    /// The job is on a worker — signal its cancel token instead.
    Running,
    /// The job already finished in the carried state.
    Finished(JobState),
    /// No such job.
    Unknown,
}

/// A point-in-time snapshot of scheduler occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs accepted so far (all states).
    pub submitted: u64,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs finished in [`JobState::Done`].
    pub done: u64,
    /// Jobs finished in [`JobState::Failed`].
    pub failed: u64,
    /// Jobs finished in [`JobState::TimedOut`].
    pub timed_out: u64,
    /// Jobs finished in [`JobState::Cancelled`].
    pub cancelled: u64,
    /// Worker-pool size.
    pub workers: usize,
}

impl SchedulerStats {
    /// Busy workers over pool size, in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.running as f64 / self.workers as f64
        }
    }
}

enum Record<T> {
    Queued,
    Running,
    Finished(JobCompletion<T>),
}

struct SchedState<T> {
    queue: VecDeque<(JobId, JobFn<T>)>,
    records: HashMap<JobId, Record<T>>,
    next_id: JobId,
    submitted: u64,
    accepting: bool,
    busy: usize,
    done: u64,
    failed: u64,
    timed_out: u64,
    cancelled: u64,
}

struct SchedInner<T> {
    state: Mutex<SchedState<T>>,
    /// Wakes idle workers (new work, or drain ordered).
    work_cv: Condvar,
    /// Wakes waiters (a job finished, or the pool went idle).
    done_cv: Condvar,
    queue_cap: usize,
    workers: usize,
}

/// Recovers the guard from a poisoned mutex: scheduler state is a set of
/// counters and enums that stay consistent even if a holder panicked
/// (workers never panic while holding the lock — jobs run unlocked).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scheduler: a bounded queue feeding a fixed worker pool.
pub struct Scheduler<T> {
    inner: Arc<SchedInner<T>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: Send + 'static> Scheduler<T> {
    /// Spawns `workers` worker threads behind a queue of at most
    /// `queue_cap` waiting jobs. Both are clamped to at least 1.
    pub fn new(workers: usize, queue_cap: usize) -> Scheduler<T> {
        let workers = workers.max(1);
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                records: HashMap::new(),
                next_id: 1,
                submitted: 0,
                accepting: true,
                busy: 0,
                done: 0,
                failed: 0,
                timed_out: 0,
                cancelled: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("preexec-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| panic!("spawning worker {i}: {e}"))
            })
            .collect();
        Scheduler {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues a batch of jobs atomically: either every job is accepted
    /// (contiguous ids, in order) or none is. All-or-nothing admission
    /// means a client never has to reason about a partially accepted
    /// batch — on overload the whole batch retries later. A single job
    /// is a batch of one.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the batch does not fit in the
    /// remaining queue capacity, [`SubmitError::ShuttingDown`] after a
    /// drain started. An empty batch is accepted trivially.
    pub fn submit_batch(&self, jobs: Vec<JobFn<T>>) -> Result<Vec<JobId>, SubmitError> {
        self.enqueue(jobs, None)
    }

    /// Re-enqueues a journaled job under its **original id** during
    /// crash recovery. Bypasses the queue cap (the work was already
    /// acked in a previous life; shedding it now would break the
    /// durability contract) and bumps the id allocator past `id` so
    /// fresh submissions never collide with replayed ones.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] after a drain started. Replaying an
    /// id that already exists is a caller bug and panics.
    pub fn submit_replayed(&self, id: JobId, job: JobFn<T>) -> Result<JobId, SubmitError> {
        self.enqueue(vec![job], Some(id)).map(|_| id)
    }

    /// The one enqueue step under the scheduler lock. Fresh jobs
    /// (`replayed_from == None`) must fit the queue's free slots and take
    /// the next ids; replayed jobs bypass the cap and keep the ids from
    /// `replayed_from` on.
    fn enqueue(
        &self,
        jobs: Vec<JobFn<T>>,
        replayed_from: Option<JobId>,
    ) -> Result<Vec<JobId>, SubmitError> {
        let n = jobs.len();
        let mut st = lock(&self.inner.state);
        if !st.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        let first = match replayed_from {
            Some(id) => id,
            None if st.queue.len() + n > self.inner.queue_cap => {
                return Err(SubmitError::QueueFull {
                    cap: self.inner.queue_cap,
                    queued: st.queue.len(),
                });
            }
            None => st.next_id,
        };
        let ids: Vec<JobId> = (first..first + n as u64).collect();
        st.next_id = st.next_id.max(first + n as u64);
        st.submitted += n as u64;
        for (&id, job) in ids.iter().zip(jobs) {
            assert!(
                st.records.insert(id, Record::Queued).is_none(),
                "job {id} enqueued twice"
            );
            st.queue.push_back((id, job));
        }
        let depth = st.queue.len();
        drop(st);
        let reg = preexec_obs::global();
        reg.counter("sched.submitted").add(n as u64);
        if replayed_from.is_some() {
            reg.counter("sched.replayed").add(n as u64);
        }
        reg.gauge("sched.queue_depth").set(depth as i64);
        // Every worker may have work now, not just one.
        self.inner.work_cv.notify_all();
        Ok(ids)
    }

    /// Advances the id allocator so fresh submissions start above
    /// `max_seen`. Called after journal replay: even when every
    /// journaled job already finished (so nothing is re-enqueued and
    /// [`Scheduler::submit_replayed`] never runs), their ids live on in
    /// the restored-results map and must never be reissued.
    pub fn reserve_ids_through(&self, max_seen: JobId) {
        let mut st = lock(&self.inner.state);
        st.next_id = st.next_id.max(max_seen + 1);
    }

    /// Cancels a job that is still **queued**: removes it from the queue
    /// and records it as [`JobState::Cancelled`] with the given error.
    /// A running job cannot be yanked off its worker — the caller trips
    /// the job's cancel token instead and the run stops at its next
    /// stage boundary — so `Running` is reported back for that case.
    pub fn cancel_queued(&self, id: JobId, reason: PipelineError) -> CancelOutcome {
        let mut st = lock(&self.inner.state);
        match st.records.get(&id) {
            None => return CancelOutcome::Unknown,
            Some(Record::Running) => return CancelOutcome::Running,
            Some(Record::Finished(c)) => return CancelOutcome::Finished(c.state()),
            Some(Record::Queued) => {}
        }
        st.queue.retain(|(qid, _)| *qid != id);
        st.records
            .insert(id, Record::Finished(JobCompletion::Cancelled(reason)));
        st.cancelled += 1;
        let depth = st.queue.len();
        let reg = preexec_obs::global();
        reg.counter("sched.cancelled").inc();
        reg.gauge("sched.queue_depth").set(depth as i64);
        self.inner.done_cv.notify_all();
        CancelOutcome::Dequeued
    }

    /// The ids still queued and still running, in that order — what a
    /// graceful shutdown reports and journals before draining.
    pub fn pending_ids(&self) -> (Vec<JobId>, Vec<JobId>) {
        let st = lock(&self.inner.state);
        let mut queued: Vec<JobId> = st.queue.iter().map(|(id, _)| *id).collect();
        queued.sort_unstable();
        let mut running: Vec<JobId> = st
            .records
            .iter()
            .filter(|(_, r)| matches!(r, Record::Running))
            .map(|(id, _)| *id)
            .collect();
        running.sort_unstable();
        (queued, running)
    }

    /// The job's current state; `None` for unknown ids.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        let st = lock(&self.inner.state);
        st.records.get(&id).map(|r| match r {
            Record::Queued => JobState::Queued,
            Record::Running => JobState::Running,
            Record::Finished(c) => c.state(),
        })
    }

    /// Blocks until the job reaches a terminal state and returns it;
    /// `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobState> {
        let mut st = lock(&self.inner.state);
        loop {
            match st.records.get(&id) {
                None => return None,
                Some(Record::Finished(c)) => return Some(c.state()),
                Some(_) => {
                    st = self
                        .inner
                        .done_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// A snapshot of how the job finished; `None` while it is still
    /// queued/running and for unknown ids (disambiguate with
    /// [`state`](Self::state)).
    pub fn completion(&self, id: JobId) -> Option<JobCompletion<T>>
    where
        T: Clone,
    {
        let st = lock(&self.inner.state);
        match st.records.get(&id) {
            Some(Record::Finished(c)) => Some(c.clone()),
            _ => None,
        }
    }

    /// Occupancy counters.
    pub fn stats(&self) -> SchedulerStats {
        let st = lock(&self.inner.state);
        SchedulerStats {
            submitted: st.submitted,
            queued: st.queue.len(),
            running: st.busy,
            done: st.done,
            failed: st.failed,
            timed_out: st.timed_out,
            cancelled: st.cancelled,
            workers: self.inner.workers,
        }
    }

    /// Graceful drain: stops accepting new jobs, then blocks until every
    /// queued and running job has finished. Idempotent.
    pub fn drain(&self) {
        let mut st = lock(&self.inner.state);
        st.accepting = false;
        self.inner.work_cv.notify_all();
        while !st.queue.is_empty() || st.busy > 0 {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`drain`](Self::drain) plus worker-thread join: after this returns
    /// no scheduler thread is alive. Idempotent.
    pub fn shutdown(&self) {
        self.drain();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for h in handles {
            // A worker that panicked outside a job (impossible by
            // construction) has nothing left for us to salvage.
            let _ = h.join();
        }
    }
}

fn worker_loop<T: Send + 'static>(inner: &SchedInner<T>) {
    let mut st = lock(&inner.state);
    loop {
        if let Some((id, job)) = st.queue.pop_front() {
            st.records.insert(id, Record::Running);
            st.busy += 1;
            let reg = preexec_obs::global();
            reg.gauge("sched.queue_depth").set(st.queue.len() as i64);
            reg.gauge("sched.running").set(st.busy as i64);
            drop(st);
            // The job runs without the lock; a panic is converted into a
            // terminal record so the pool and the job's waiters survive.
            let completion = match catch_unwind(AssertUnwindSafe(|| job(id))) {
                Ok(c) => c,
                Err(payload) => JobCompletion::Panicked(panic_message(payload.as_ref())),
            };
            // Registry mirror + journal note before taking the lock back
            // (both are internally synchronized).
            match &completion {
                JobCompletion::Done(_) => reg.counter("sched.done").inc(),
                JobCompletion::TimedOut(_) => reg.counter("sched.timed_out").inc(),
                JobCompletion::Failed(e) => {
                    reg.counter("sched.failed").inc();
                    reg.journal().note("job_failed", &format!("job {id}: {e}"));
                }
                JobCompletion::Panicked(msg) => {
                    reg.counter("sched.failed").inc();
                    reg.counter("sched.panicked").inc();
                    reg.journal()
                        .note("job_panicked", &format!("job {id}: {msg}"));
                }
                JobCompletion::Cancelled(e) => {
                    reg.counter("sched.cancelled").inc();
                    reg.journal()
                        .note("job_cancelled", &format!("job {id}: {e}"));
                }
            }
            st = lock(&inner.state);
            match completion.state() {
                JobState::Done => st.done += 1,
                JobState::Failed => st.failed += 1,
                JobState::TimedOut => st.timed_out += 1,
                JobState::Cancelled => st.cancelled += 1,
                JobState::Queued | JobState::Running => unreachable!("non-terminal completion"),
            }
            st.records.insert(id, Record::Finished(completion));
            st.busy -= 1;
            reg.gauge("sched.running").set(st.busy as i64);
            inner.done_cv.notify_all();
        } else if !st.accepting {
            return;
        } else {
            st = inner
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Submits `job` as a batch of one.
    fn submit_one<T: Send + 'static>(
        sched: &Scheduler<T>,
        job: JobFn<T>,
    ) -> Result<JobId, SubmitError> {
        sched.submit_batch(vec![job]).map(|ids| ids[0])
    }

    #[test]
    fn jobs_run_and_complete_in_any_submission_order() {
        let sched: Scheduler<u64> = Scheduler::new(4, 64);
        let ids: Vec<JobId> = (0..16u64)
            .map(|i| {
                submit_one(&sched, Box::new(move |_| JobCompletion::Done(i * i))).expect("submit")
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(sched.wait(*id), Some(JobState::Done));
            match sched.completion(*id) {
                Some(JobCompletion::Done(x)) => assert_eq!(x, (i * i) as u64),
                other => panic!("job {id}: unexpected completion {other:?}"),
            }
        }
        let stats = sched.stats();
        assert_eq!(stats.done, 16);
        assert_eq!(stats.submitted, 16);
        sched.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let sched: Scheduler<()> = Scheduler::new(1, 2);
        let gate = Arc::new(AtomicUsize::new(0));
        // One job occupies the worker; two fill the queue.
        let g = Arc::clone(&gate);
        let blocker = submit_one(
            &sched,
            Box::new(move |_| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobCompletion::Done(())
            }),
        )
        .expect("blocker");
        // Wait until the blocker actually occupies the worker, then fill
        // the queue to its cap of 2.
        while sched.state(blocker) != Some(JobState::Running) {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..2 {
            submit_one(&sched, Box::new(|_| JobCompletion::Done(()))).expect("fills queue");
        }
        assert_eq!(
            submit_one(&sched, Box::new(|_| JobCompletion::Done(()))),
            Err(SubmitError::QueueFull { cap: 2, queued: 2 })
        );
        gate.store(1, Ordering::SeqCst);
        sched.shutdown();
        assert_eq!(sched.stats().done, 3);
    }

    #[test]
    fn drain_finishes_queued_work_and_rejects_new() {
        let sched: Scheduler<u32> = Scheduler::new(2, 32);
        let ids: Vec<JobId> = (0..8)
            .map(|i| submit_one(&sched, Box::new(move |_| JobCompletion::Done(i))).expect("submit"))
            .collect();
        sched.drain();
        for id in ids {
            assert_eq!(sched.state(id), Some(JobState::Done));
        }
        assert_eq!(
            submit_one(&sched, Box::new(|_| JobCompletion::Done(0))),
            Err(SubmitError::ShuttingDown)
        );
        sched.shutdown();
    }

    #[test]
    fn panicking_job_fails_without_killing_the_pool() {
        let sched: Scheduler<()> = Scheduler::new(1, 8);
        let bad = submit_one(&sched, Box::new(|_| panic!("job exploded"))).expect("submit");
        let good = submit_one(&sched, Box::new(|_| JobCompletion::Done(()))).expect("submit");
        assert_eq!(sched.wait(bad), Some(JobState::Failed));
        match sched.completion(bad) {
            Some(JobCompletion::Panicked(msg)) => assert!(msg.contains("exploded")),
            other => panic!("unexpected {other:?}"),
        }
        // The same (sole) worker still runs the next job.
        assert_eq!(sched.wait(good), Some(JobState::Done));
        sched.shutdown();
    }

    #[test]
    fn states_and_errors_have_wire_names() {
        assert_eq!(JobState::TimedOut.name(), "timed_out");
        assert_eq!(JobState::Queued.to_string(), "queued");
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(SubmitError::QueueFull { cap: 3, queued: 2 }
            .to_string()
            .contains("2 of 3"));
        let c: JobCompletion<u8> = JobCompletion::TimedOut(7);
        assert_eq!(c.state(), JobState::TimedOut);
        assert_eq!(c.output(), Some(&7));
        let f: JobCompletion<u8> = JobCompletion::Failed(PipelineError::ZeroBudget);
        assert_eq!(f.state(), JobState::Failed);
        assert_eq!(f.output(), None);
        assert_eq!(sched_unknown_id(), (None, None));
    }

    fn sched_unknown_id() -> (Option<JobState>, Option<JobState>) {
        let sched: Scheduler<()> = Scheduler::new(1, 1);
        let r = (sched.state(999), sched.wait(999));
        sched.shutdown();
        r
    }

    #[test]
    fn cancel_queued_removes_the_job_and_reports_running_otherwise() {
        let sched: Scheduler<()> = Scheduler::new(1, 8);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let blocker = submit_one(
            &sched,
            Box::new(move |_| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobCompletion::Done(())
            }),
        )
        .expect("blocker");
        while sched.state(blocker) != Some(JobState::Running) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = submit_one(&sched, Box::new(|_| JobCompletion::Done(()))).expect("queued");
        assert_eq!(
            sched.cancel_queued(queued, PipelineError::Cancelled { stage: "queued" }),
            CancelOutcome::Dequeued
        );
        assert_eq!(sched.state(queued), Some(JobState::Cancelled));
        assert!(matches!(
            sched.completion(queued),
            Some(JobCompletion::Cancelled(PipelineError::Cancelled {
                stage: "queued"
            }))
        ));
        // A running job cannot be dequeued; an unknown id is unknown.
        assert_eq!(
            sched.cancel_queued(blocker, PipelineError::Cancelled { stage: "queued" }),
            CancelOutcome::Running
        );
        assert_eq!(
            sched.cancel_queued(999, PipelineError::Cancelled { stage: "queued" }),
            CancelOutcome::Unknown
        );
        gate.store(1, Ordering::SeqCst);
        sched.shutdown();
        // A finished job reports its terminal state.
        assert_eq!(
            sched.cancel_queued(blocker, PipelineError::Cancelled { stage: "queued" }),
            CancelOutcome::Finished(JobState::Done)
        );
        let stats = sched.stats();
        assert_eq!((stats.done, stats.cancelled), (1, 1));
    }

    #[test]
    fn batch_submit_is_all_or_nothing_with_contiguous_ids() {
        let sched: Scheduler<u64> = Scheduler::new(1, 4);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let blocker = submit_one(
            &sched,
            Box::new(move |_| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobCompletion::Done(0)
            }),
        )
        .expect("blocker");
        while sched.state(blocker) != Some(JobState::Running) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Worker busy, queue empty (cap 4): a batch of 3 fits whole.
        let jobs: Vec<JobFn<u64>> = (0..3u64)
            .map(|i| Box::new(move |_| JobCompletion::Done(i * 10)) as JobFn<u64>)
            .collect();
        let ids = sched.submit_batch(jobs).expect("batch fits");
        assert_eq!(ids, vec![2, 3, 4], "contiguous ids in submission order");
        // Queue now holds 3 of 4: a batch of 2 must be rejected whole,
        // accepting neither job.
        let too_big: Vec<JobFn<u64>> = (0..2u64)
            .map(|_| Box::new(move |_| JobCompletion::Done(0u64)) as JobFn<u64>)
            .collect();
        assert_eq!(
            sched.submit_batch(too_big),
            Err(SubmitError::QueueFull { cap: 4, queued: 3 })
        );
        assert_eq!(sched.stats().queued, 3, "rejected batch admitted nothing");
        // A single job still fits the last slot, and an empty batch is a
        // no-op even at capacity.
        submit_one(&sched, Box::new(|_| JobCompletion::Done(0))).expect("single fits");
        assert_eq!(sched.submit_batch(Vec::new()), Ok(Vec::new()));
        gate.store(1, Ordering::SeqCst);
        sched.shutdown();
        assert_eq!(sched.stats().done, 5);
        // After a drain, batches are rejected as shutting down.
        let late: Vec<JobFn<u64>> =
            vec![Box::new(move |_| JobCompletion::Done(0u64)) as JobFn<u64>];
        assert_eq!(sched.submit_batch(late), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn replayed_jobs_keep_their_ids_and_fresh_ids_never_collide() {
        let sched: Scheduler<u64> = Scheduler::new(2, 4);
        // Recovery replays journaled ids 7 and 3, beyond the queue cap's
        // normal reach.
        sched
            .submit_replayed(7, Box::new(|_| JobCompletion::Done(700)))
            .expect("replay 7");
        sched
            .submit_replayed(3, Box::new(|_| JobCompletion::Done(300)))
            .expect("replay 3");
        // Fresh submissions allocate above the replayed maximum.
        let fresh = submit_one(&sched, Box::new(|_| JobCompletion::Done(800))).expect("fresh");
        assert_eq!(fresh, 8);
        for (id, want) in [(7, 700), (3, 300), (8, 800)] {
            sched.wait(id);
            match sched.completion(id) {
                Some(JobCompletion::Done(x)) => assert_eq!(x, want, "job {id}"),
                other => panic!("job {id}: unexpected {other:?}"),
            }
        }
        assert_eq!(sched.stats().submitted, 3);
        sched.shutdown();
    }

    #[test]
    fn reserved_ids_are_never_reissued() {
        // Recovery with only *finished* journaled jobs: nothing is
        // replayed into the queue, but the finished ids are still taken.
        let sched: Scheduler<u64> = Scheduler::new(1, 4);
        sched.reserve_ids_through(5);
        sched.reserve_ids_through(2); // never moves backwards
        let fresh = submit_one(&sched, Box::new(|_| JobCompletion::Done(0))).expect("fresh");
        assert_eq!(fresh, 6);
        sched.wait(fresh);
        sched.shutdown();
    }

    #[test]
    fn pending_ids_reports_queued_and_running_sorted() {
        let sched: Scheduler<()> = Scheduler::new(1, 8);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let blocker = submit_one(
            &sched,
            Box::new(move |_| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobCompletion::Done(())
            }),
        )
        .expect("blocker");
        while sched.state(blocker) != Some(JobState::Running) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let q1 = submit_one(&sched, Box::new(|_| JobCompletion::Done(()))).expect("q1");
        let q2 = submit_one(&sched, Box::new(|_| JobCompletion::Done(()))).expect("q2");
        let (queued, running) = sched.pending_ids();
        assert_eq!(queued, vec![q1, q2]);
        assert_eq!(running, vec![blocker]);
        gate.store(1, Ordering::SeqCst);
        sched.shutdown();
        let (queued, running) = sched.pending_ids();
        assert!(queued.is_empty() && running.is_empty());
    }

    /// Satellite: loom-style (hand-rolled, zero-dep) interleaving check.
    /// Races job execution (including panics and timeouts) against a
    /// concurrent observer and a drain, across many schedules, and
    /// asserts per-job state monotonicity: a job once observed `Running`
    /// is never reported `Queued` again — in particular not by the
    /// stats/state a shutdown-time snapshot sees.
    #[test]
    fn interleaved_panic_timeout_drain_never_regresses_running_to_queued() {
        // Vary the schedule: worker count, observer spin budget, and a
        // seed-salted job mix per round stand in for loom's exhaustive
        // interleaving search.
        for seed in 0u64..24 {
            let workers = 1 + (seed % 3) as usize;
            let sched: Arc<Scheduler<u8>> = Arc::new(Scheduler::new(workers, 64));
            let ids: Vec<JobId> = (0..12u64)
                .map(|i| {
                    let mix = (seed.wrapping_mul(31).wrapping_add(i)) % 4;
                    submit_one(
                        &sched,
                        Box::new(move |_| match mix {
                            0 => JobCompletion::Done(0),
                            1 => panic!("chaos {i}"),
                            2 => JobCompletion::TimedOut(1),
                            _ => {
                                std::thread::yield_now();
                                JobCompletion::Failed(PipelineError::ZeroBudget)
                            }
                        }),
                    )
                    .expect("submit")
                })
                .collect();
            // Observer thread: watches every job's state; records any
            // Running -> Queued regression.
            let obs_sched = Arc::clone(&sched);
            let obs_ids = ids.clone();
            let observer = std::thread::spawn(move || {
                let mut saw_running = vec![false; obs_ids.len()];
                for _round in 0..200 {
                    for (k, id) in obs_ids.iter().enumerate() {
                        match obs_sched.state(*id) {
                            Some(JobState::Running) => saw_running[k] = true,
                            Some(JobState::Queued) if saw_running[k] => {
                                return Err(format!("job {id}: Running regressed to Queued"));
                            }
                            _ => {}
                        }
                    }
                    std::thread::yield_now();
                }
                Ok(())
            });
            // Drain concurrently with the observer, then snapshot.
            sched.drain();
            let stats = sched.stats();
            assert_eq!(stats.queued, 0, "seed {seed}: drain left queued jobs");
            assert_eq!(stats.running, 0, "seed {seed}: drain left running jobs");
            assert_eq!(
                stats.done + stats.failed + stats.timed_out + stats.cancelled,
                ids.len() as u64,
                "seed {seed}: drain lost jobs"
            );
            for id in &ids {
                let s = sched.state(*id).expect("known id");
                assert!(
                    s.is_terminal(),
                    "seed {seed}: job {id} non-terminal after drain"
                );
            }
            observer
                .join()
                .expect("observer panicked")
                .expect("state regression");
            sched.shutdown();
        }
    }
}
