//! The TCP front end: connection handling and dispatch.
//!
//! Connections speak the newline-delimited JSON protocol of
//! [`proto`](crate::proto). On Linux the default front end is the
//! [`reactor`](crate::reactor): one thread multiplexes every connection
//! through epoll, requests pipeline (N request lines in flight per
//! connection, responses in order, each echoing its request `id`), and
//! dispatch runs on the reactor thread — it only enqueues scheduler work,
//! so the single thread is never the bottleneck. The original
//! thread-per-connection loop remains as the non-Linux front end and
//! behind `--threaded`. Both frame request lines with the same
//! [`LineBuffer`] under the same [`ReactorConfig`] (line limit and
//! slow-loris timeout) and share `dispatch`, so the protocol is
//! identical. In the threaded loop, reads carry a short timeout so
//! handler threads notice a daemon shutdown and a stalled partial line
//! promptly instead of blocking forever, which keeps the final join
//! bounded.
//!
//! Shutdown ("graceful drain"): the `shutdown` command journals and
//! reports the still-pending job counts, flips a flag, answers the
//! client, and pokes the accept loop with a loopback connection. The
//! accept loop exits, the scheduler drains (queued and running jobs
//! finish — and their results hit the durable journal, so even a crash
//! racing the drain loses nothing), handler threads wind down, and
//! [`Server::run`] returns.
//!
//! Durability (DESIGN.md §14): with journaling on (the default), every
//! acked submission and every terminal transition is appended to the
//! WAL in the cache directory before the client hears about it. At bind
//! time the journal is replayed: finished jobs' results are restored
//! into an in-memory map (served by `status`/`result` as before the
//! crash), and acked-but-unfinished jobs are re-enqueued under their
//! original ids — the pipeline is deterministic, so the re-runs complete
//! byte-identically.

use crate::admission::AdmissionGate;
use crate::cache::ArtifactCache;
use crate::histogram::histogram_json;
use crate::journal::{compact_wal, JobJournal, JournalReplay, TerminalRecord};
use crate::json::Json;
use crate::proto::{
    error_response, ok_response, parse_request_json, request_id, result_json, spec_json,
    with_request_id, ProtoError, Request, PROTOCOL_VERSION,
};
use crate::reactor::{LineBuffer, LineTooLong, ReactorConfig};
use crate::scheduler::{CancelOutcome, JobCompletion, JobId, JobState, Scheduler, SubmitError};
use crate::service::{run_job, CancelToken, JobOutput, JobSpec, StageHists};
use preexec_core::par::Parallelism;
use preexec_experiments::PipelineError;
use preexec_obs::{render_prometheus, Counter, Gauge, SharedHistogram};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the daemon is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound address
    /// is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool size (0 means one worker per available core).
    pub workers: usize,
    /// Intra-job threads per worker for the parallelizable pipeline
    /// stages (0 means `cores / workers`, at least 1). Total analysis
    /// threads are bounded by `workers × job_threads`: each stage holds
    /// its scoped threads only while it runs, so the default keeps the
    /// daemon at about one thread per core whatever the worker count.
    pub job_threads: usize,
    /// Bounded job-queue capacity.
    pub queue_cap: usize,
    /// Artifact-cache directory (created lazily on first store).
    pub cache_dir: PathBuf,
    /// Maximum artifact-cache entries before eviction.
    pub cache_max_entries: usize,
    /// Whether the durable job journal (WAL + crash recovery) is on.
    pub journal: bool,
    /// Admission-control high-water mark in outstanding jobs
    /// (queued + running); 0 derives ¾·`queue_cap` + workers.
    pub high_water: usize,
    /// Use the legacy thread-per-connection front end instead of the
    /// epoll reactor (always the case off Linux).
    pub threaded: bool,
    /// Slow-loris timeout, in either front end: a connection whose
    /// *partial* request line makes no progress this long is closed.
    /// Idle connections with no pending partial line are never reaped.
    pub idle_timeout_ms: u64,
    /// Compact the WAL (checkpoint-and-truncate) at startup, before
    /// replay — recovers disk from a journal grown across unclean
    /// shutdowns. Clean shutdowns compact automatically.
    pub wal_compact: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            job_threads: 0,
            queue_cap: 256,
            cache_dir: PathBuf::from("preexec-cache"),
            cache_max_entries: 256,
            journal: true,
            high_water: 0,
            threaded: false,
            idle_timeout_ms: 10_000,
            wal_compact: false,
        }
    }
}

/// Shared service state, one instance per daemon.
struct Shared {
    sched: Scheduler<JobOutput>,
    /// The local artifact cache every job consults.
    cache: ArtifactCache,
    hists: StageHists,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    queue_cap: usize,
    /// Resolved intra-job thread count handed to every [`run_job`].
    job_threads: usize,
    /// The durable WAL; `None` with `--no-journal`.
    journal: Option<JobJournal>,
    /// The soft wall in front of the queue cap.
    admission: AdmissionGate,
    /// Live cancel tokens by job id (inserted at submit, removed when
    /// the job reports terminal; a worker *panic* skips the removal, a
    /// bounded leak of one flag per panicked job).
    tokens: Mutex<HashMap<JobId, Arc<CancelToken>>>,
    /// Finished jobs restored from the journal at startup, served by
    /// `status`/`result` exactly as live completions are.
    restored: Mutex<HashMap<JobId, TerminalRecord>>,
    /// Connections accepted over the daemon's life (registry counter
    /// `server.connections`).
    connections_total: Arc<Counter>,
    /// Live connections: handler threads in the threaded front end,
    /// open reactor connections otherwise — the gauge the boundedness
    /// test watches (registry gauge `server.handlers_live`).
    handlers_live: Arc<Gauge>,
    /// Complete request lines drained per readiness event — >1 means
    /// clients are pipelining (registry histogram
    /// `server.pipelined_depth`; always present, samples only from the
    /// reactor front end).
    pipelined_depth: Arc<SharedHistogram>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// The job closure both live submits and journal replays enqueue.
    /// The worker hands it the job id; it journals `start`, runs the
    /// pipeline under the cancel token, journals the terminal record
    /// *before* the scheduler exposes it, and feeds the admission
    /// gate's job-time estimate.
    fn job_fn(
        self: &Arc<Shared>,
        spec: JobSpec,
        token: Arc<CancelToken>,
    ) -> crate::scheduler::JobFn<JobOutput> {
        let shared = Arc::clone(self);
        Box::new(move |id| {
            let start_index = crate::chaos::job_started();
            if let Some(j) = &shared.journal {
                j.start(id);
            }
            // Deliberately panics *outside* any terminal-record write:
            // models a worker dying after `start` hit the WAL and before
            // any terminal record — the replay-and-rerun window.
            assert!(
                !crate::chaos::should_panic_now(start_index),
                "chaos: injected worker panic (job start #{start_index})"
            );
            let t0 = Instant::now();
            let par = Parallelism::new(shared.job_threads);
            let completion = run_job(&spec, &shared.cache, &shared.hists, par, Some(&token));
            shared
                .admission
                .record_job_us(t0.elapsed().as_micros() as u64);
            if let Some(j) = &shared.journal {
                match &completion {
                    JobCompletion::Done(out) => j.done(id, "done", &result_json(out)),
                    JobCompletion::TimedOut(out) => {
                        j.done(id, "timed_out", &result_json(out));
                    }
                    JobCompletion::Failed(e) => j.failed(id, &e.to_string(), e.code()),
                    JobCompletion::Panicked(msg) => j.failed(id, msg, "job_panicked"),
                    JobCompletion::Cancelled(e) => {
                        j.cancelled(id, &e.to_string(), e.code());
                    }
                }
            }
            lock(&shared.tokens).remove(&id);
            completion
        })
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Acked-but-unfinished jobs re-enqueued from the journal at bind.
    replayed_pending: u64,
    /// Finished results restored from the journal at bind.
    restored_results: u64,
    /// Forced thread-per-connection front end.
    threaded: bool,
    /// Slow-loris timeout.
    idle_timeout_ms: u64,
}

impl Server {
    /// The journal file's name inside the cache directory.
    pub const JOURNAL_FILE: &'static str = "preexecd.wal";

    /// Binds the listener, spawns the worker pool, and — with journaling
    /// on — replays the WAL: finished jobs' results are restored and
    /// served from memory, acked-but-unfinished jobs are re-enqueued
    /// under their original ids.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bad address, port in use, ...) and,
    /// when journaling is on, an unwritable journal file — refusing to
    /// run while silently unable to honor the durability contract.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = if config.workers == 0 {
            cores
        } else {
            config.workers
        };
        let job_threads = if config.job_threads == 0 {
            (cores / workers).max(1)
        } else {
            config.job_threads
        };
        let journal_path = config.cache_dir.join(Server::JOURNAL_FILE);
        if config.journal && config.wal_compact {
            // Operator-requested startup compaction (a journal grown
            // across unclean shutdowns). Failure is not fatal: the
            // uncompacted journal still replays.
            match compact_wal(&journal_path) {
                Ok(stats) => preexec_obs::global().journal().note(
                    "wal_compacted",
                    &format!(
                        "startup compaction: {} -> {} bytes, {} record(s) kept",
                        stats.bytes_before, stats.bytes_after, stats.records_after
                    ),
                ),
                Err(e) => preexec_obs::global().journal().note(
                    "wal_compact_failed",
                    &format!("startup compaction of {}: {e}", journal_path.display()),
                ),
            }
        }
        let (journal, replay) = if config.journal {
            let replay = JournalReplay::read(&journal_path);
            if replay.corrupt_records > 0 {
                preexec_obs::global()
                    .counter("journal.corrupt_records")
                    .add(replay.corrupt_records);
                preexec_obs::global().journal().note(
                    "journal_corrupt",
                    &format!(
                        "{} corrupt record(s) skipped replaying {}",
                        replay.corrupt_records,
                        journal_path.display()
                    ),
                );
            }
            (
                Some(JobJournal::open(&journal_path, replay.next_seq)?),
                Some(replay),
            )
        } else {
            (None, None)
        };
        let registry = preexec_obs::global();
        let shared = Arc::new(Shared {
            sched: Scheduler::new(workers, config.queue_cap),
            cache: ArtifactCache::new(&config.cache_dir, config.cache_max_entries),
            hists: StageHists::new(),
            shutting_down: AtomicBool::new(false),
            local_addr,
            queue_cap: config.queue_cap,
            job_threads,
            journal,
            admission: AdmissionGate::new(config.high_water, config.queue_cap, workers, registry),
            tokens: Mutex::new(HashMap::new()),
            restored: Mutex::new(HashMap::new()),
            connections_total: registry.counter("server.connections"),
            handlers_live: registry.gauge("server.handlers_live"),
            // Interned at bind so the metrics surface always carries the
            // series, samples or not.
            pipelined_depth: registry.histogram("server.pipelined_depth"),
        });
        let (replayed_pending, restored_results) = match replay {
            Some(replay) => replay_journal(&shared, &replay),
            None => (0, 0),
        };
        Ok(Server {
            listener,
            shared,
            replayed_pending,
            restored_results,
            threaded: config.threaded,
            idle_timeout_ms: config.idle_timeout_ms,
        })
    }

    /// How many acked-but-unfinished jobs bind re-enqueued and how many
    /// finished results it restored from the journal.
    pub fn recovery_summary(&self) -> (u64, u64) {
        (self.replayed_pending, self.restored_results)
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves until a `shutdown` command arrives, then drains the
    /// scheduler, compacts the WAL, and returns. Blocks the calling
    /// thread for the daemon's whole life. On Linux this runs the epoll
    /// reactor unless `threaded` was set; elsewhere it always runs the
    /// thread-per-connection loop.
    ///
    /// # Errors
    ///
    /// Propagates listener/epoll errors (per-connection I/O errors only
    /// end that connection).
    pub fn run(self) -> std::io::Result<()> {
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(self.idle_timeout_ms.max(1)),
            ..ReactorConfig::default()
        };
        #[cfg(target_os = "linux")]
        {
            if !self.threaded {
                return self.run_reactor(&cfg);
            }
        }
        self.run_threaded(&cfg)
    }

    /// The epoll front end: one thread, every connection, pipelined.
    #[cfg(target_os = "linux")]
    fn run_reactor(self, cfg: &ReactorConfig) -> std::io::Result<()> {
        let mut handler = ReactorHandler {
            shared: Arc::clone(&self.shared),
            live: 0,
        };
        crate::reactor::run(self.listener, &mut handler, cfg)?;
        // Graceful drain: finish queued + running jobs, then checkpoint
        // the WAL down to its minimal replay-equivalent form.
        self.shared.sched.shutdown();
        compact_journal_on_exit(&self.shared);
        Ok(())
    }

    /// The legacy thread-per-connection front end (non-Linux, and
    /// `--threaded` everywhere).
    fn run_threaded(self, cfg: &ReactorConfig) -> std::io::Result<()> {
        let mut handlers = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                // The poke connection (or a late client): stop accepting.
                break;
            }
            // Reap finished handlers before spawning the next one, so the
            // vector tracks live connections rather than growing (and
            // holding dead threads' stacks) for the daemon's whole life.
            handlers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            self.shared.connections_total.inc();
            let shared = Arc::clone(&self.shared);
            let cfg = cfg.clone();
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &shared, &cfg)
            }));
            self.shared.handlers_live.set(handlers.len() as i64);
        }
        // Graceful drain: finish queued + running jobs, then collect the
        // handler threads (their read timeout notices the flag).
        self.shared.sched.shutdown();
        for h in handlers {
            let _ = h.join();
        }
        compact_journal_on_exit(&self.shared);
        Ok(())
    }
}

/// Checkpoint-and-truncate the WAL after a clean drain: every job is
/// terminal (or journaled pending via the shutdown record), so the
/// journal boils down to submit + terminal pairs. Runs strictly after
/// the scheduler drain — no appends race the rewrite. Failure degrades
/// to an uncompacted (still replayable) journal.
fn compact_journal_on_exit(shared: &Shared) {
    let Some(j) = &shared.journal else { return };
    match compact_wal(j.path()) {
        Ok(stats) => preexec_obs::global().journal().note(
            "wal_compacted",
            &format!(
                "shutdown compaction: {} -> {} bytes, {} record(s) kept",
                stats.bytes_before, stats.bytes_after, stats.records_after
            ),
        ),
        Err(e) => preexec_obs::global().journal().note(
            "wal_compact_failed",
            &format!("{}: {e}", j.path().display()),
        ),
    }
}

/// The reactor-side half of the server: protocol dispatch plus the
/// connection-lifecycle accounting the threaded front end does inline.
#[cfg(target_os = "linux")]
struct ReactorHandler {
    shared: Arc<Shared>,
    /// Open connections (single-threaded: only the reactor touches it).
    live: i64,
}

#[cfg(target_os = "linux")]
impl crate::reactor::LineHandler for ReactorHandler {
    fn handle_line(&mut self, line: &str) -> String {
        dispatch(line, &self.shared).encode()
    }

    fn overlong_line_response(&mut self, limit: usize) -> String {
        line_too_long_response(limit)
    }

    fn record_pipelined_depth(&mut self, depth: u64) {
        // The histogram's unit is "request lines per readiness event",
        // not microseconds — the bucketing works the same.
        self.shared.pipelined_depth.record_us(depth);
    }

    fn on_accept(&mut self) {
        self.shared.connections_total.inc();
        self.live += 1;
        self.shared.handlers_live.set(self.live);
    }

    fn on_close(&mut self) {
        self.live = (self.live - 1).max(0);
        self.shared.handlers_live.set(self.live);
    }

    fn shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }
}

/// Applies a journal replay to a freshly-bound daemon: finished jobs'
/// terminal records go into the restored map (served by `status` /
/// `result` like live completions), acked-but-unfinished jobs are
/// re-enqueued under their original ids. Returns
/// `(replayed_pending, restored_results)`.
fn replay_journal(shared: &Arc<Shared>, replay: &JournalReplay) -> (u64, u64) {
    // Even if nothing is pending (so `submit_replayed` never bumps the
    // allocator), fresh submissions must not reuse ids that the restored
    // map still answers for.
    shared.sched.reserve_ids_through(replay.max_job_id);
    let mut restored = 0u64;
    for (id, job) in &replay.jobs {
        if let Some(term) = &job.terminal {
            lock(&shared.restored).insert(*id, term.clone());
            restored += 1;
        }
    }
    let mut replayed = 0u64;
    for (id, spec_json) in replay.pending() {
        match crate::proto::parse_submit(spec_json) {
            Ok(spec) => {
                let token = Arc::new(CancelToken::new(spec.policy.deadline_ms));
                lock(&shared.tokens).insert(id, Arc::clone(&token));
                if shared
                    .sched
                    .submit_replayed(id, shared.job_fn(spec, token))
                    .is_ok()
                {
                    replayed += 1;
                } else {
                    lock(&shared.tokens).remove(&id);
                }
            }
            Err(e) => {
                // The journaled spec no longer parses (version skew, or a
                // damaged record that still checksummed): surface a failed
                // job rather than silently dropping an acked id.
                let msg = format!("journal replay: {e}");
                if let Some(j) = &shared.journal {
                    j.failed(id, &msg, "replay_unparseable");
                }
                lock(&shared.restored).insert(
                    id,
                    TerminalRecord {
                        state: "failed".to_string(),
                        result: None,
                        error: Some(msg),
                        code: Some("replay_unparseable".to_string()),
                    },
                );
                restored += 1;
            }
        }
    }
    if replayed > 0 || restored > 0 {
        preexec_obs::global()
            .counter("journal.replayed_pending")
            .add(replayed);
        preexec_obs::global().journal().note(
            "journal_replay",
            &format!("re-enqueued {replayed} pending job(s), restored {restored} result(s)"),
        );
    }
    (replayed, restored)
}

/// The one response a connection gets, in either front end, when its
/// request line passes the limit; the connection closes after it.
fn line_too_long_response(limit: usize) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("protocol_version", Json::num_u64(PROTOCOL_VERSION)),
        ("error", Json::str(LineTooLong { limit }.to_string())),
        ("code", Json::str("line_too_long")),
    ])
    .encode()
}

/// Serves one connection until EOF, error, daemon shutdown, an over-long
/// request line, or a partial line that stalls past the idle timeout:
/// the reactor's framing and guards on a blocking socket.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>, cfg: &ReactorConfig) {
    // A short read timeout keeps this thread responsive to shutdown and
    // to the slow-loris clock; a longer one would only delay the final
    // join.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut lines = LineBuffer::new(cfg.max_line);
    let mut buf = [0u8; 16 * 1024];
    // Last time `read()` returned bytes — the slow-loris clock.
    let mut last_progress = Instant::now();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => {
                last_progress = Instant::now();
                let overlong = lines.push(&buf[..n]).is_err();
                while let Some(line) = lines.next_line() {
                    let trimmed = line.trim();
                    if !trimmed.is_empty()
                        && writeln!(writer, "{}", dispatch(trimmed, shared).encode()).is_err()
                    {
                        return;
                    }
                }
                if overlong {
                    let _ = writeln!(writer, "{}", line_too_long_response(cfg.max_line));
                    let _ = writer.flush();
                    return;
                }
                if writer.flush().is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let stalled = lines.has_partial() && last_progress.elapsed() > cfg.idle_timeout;
                if stalled || shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Builds the `status`/`result` payload for a journal-restored job
/// (one that finished in a previous daemon life).
fn restored_response(id: JobId, term: &TerminalRecord) -> Json {
    let mut fields = vec![
        ("job", Json::num_u64(id)),
        ("state", Json::str(term.state.clone())),
        ("restored", Json::Bool(true)),
    ];
    if let Some(r) = &term.result {
        fields.push(("result", r.clone()));
    }
    if let Some(e) = &term.error {
        fields.push(("error", Json::str(e.clone())));
    }
    if let Some(c) = &term.code {
        fields.push(("code", Json::str(c.clone())));
    }
    ok_response(fields)
}

/// Executes one request line and builds the response. The line is
/// decoded exactly once; a present, non-null request `id` is echoed
/// verbatim onto the response — the pipelining contract that lets a
/// client write N requests before reading any response and still match
/// responses to requests (order is also preserved per connection).
fn dispatch(line: &str, shared: &Arc<Shared>) -> Json {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => return error_response(&ProtoError::BadJson(e.to_string())),
    };
    let id = request_id(&json);
    let resp = match parse_request_json(&json) {
        Err(e) => error_response(&e),
        Ok(req) => dispatch_request(req, shared),
    };
    with_request_id(resp, id)
}

/// Executes one parsed request.
fn dispatch_request(req: Request, shared: &Arc<Shared>) -> Json {
    match req {
        Request::Submit(spec) => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return error_response(&ProtoError::from(SubmitError::ShuttingDown));
            }
            // Soft wall before the hard queue cap: shed with a typed
            // error and a retry hint while the daemon can still answer
            // quickly (DESIGN.md §14.3).
            let stats = shared.sched.stats();
            if let Err(over) = shared.admission.admit(stats.queued, stats.running) {
                return error_response(&ProtoError::Overloaded(over));
            }
            let journaled_spec = spec_json(&spec);
            let token = Arc::new(CancelToken::new(spec.policy.deadline_ms));
            match shared
                .sched
                .submit(shared.job_fn(*spec, Arc::clone(&token)))
            {
                Ok(id) => {
                    lock(&shared.tokens).insert(id, token);
                    // A fast worker may already have finished (its own
                    // removal ran before this insert): don't leak the
                    // token entry.
                    if shared.sched.state(id).is_some_and(JobState::is_terminal) {
                        lock(&shared.tokens).remove(&id);
                    }
                    // Journal the acked submission *before* the client
                    // hears the ack: once `ok` is on the wire the job
                    // must survive a crash. (A fast worker's `start` may
                    // already sit before this record; replay is
                    // order-insensitive.)
                    if let Some(j) = &shared.journal {
                        j.submit(id, &journaled_spec);
                    }
                    ok_response(vec![("job", Json::num_u64(id))])
                }
                Err(e) => error_response(&ProtoError::from(e)),
            }
        }
        Request::Cancel(id) => {
            match shared
                .sched
                .cancel_queued(id, PipelineError::Cancelled { stage: "queued" })
            {
                CancelOutcome::Dequeued => {
                    if let Some(j) = &shared.journal {
                        j.cancelled(id, "cancelled while queued", "pipeline.cancelled");
                    }
                    lock(&shared.tokens).remove(&id);
                    ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str("cancelled")),
                        ("cancelling", Json::Bool(false)),
                    ])
                }
                CancelOutcome::Running => {
                    // Can't yank it off the worker: trip the token and
                    // let the run stop at its next stage boundary.
                    if let Some(t) = lock(&shared.tokens).get(&id) {
                        t.cancel();
                    }
                    ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str("running")),
                        ("cancelling", Json::Bool(true)),
                    ])
                }
                CancelOutcome::Finished(state) => ok_response(vec![
                    ("job", Json::num_u64(id)),
                    ("state", Json::str(state.name())),
                    ("cancelling", Json::Bool(false)),
                ]),
                CancelOutcome::Unknown => match lock(&shared.restored).get(&id) {
                    Some(term) => ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str(term.state.clone())),
                        ("cancelling", Json::Bool(false)),
                        ("restored", Json::Bool(true)),
                    ]),
                    None => error_response(&ProtoError::UnknownJob(id)),
                },
            }
        }
        Request::Status(id) => match shared.sched.state(id) {
            None => match lock(&shared.restored).get(&id) {
                Some(term) => restored_response(id, term),
                None => error_response(&ProtoError::UnknownJob(id)),
            },
            Some(state) => {
                let mut fields = vec![
                    ("job", Json::num_u64(id)),
                    ("state", Json::str(state.name())),
                ];
                match shared.sched.completion(id) {
                    Some(JobCompletion::Failed(e) | JobCompletion::Cancelled(e)) => {
                        fields.push(("error", Json::str(e.to_string())));
                        fields.push(("code", Json::str(e.code())));
                    }
                    Some(JobCompletion::Panicked(msg)) => {
                        fields.push(("error", Json::str(msg)));
                        fields.push(("code", Json::str("job_panicked")));
                    }
                    _ => {}
                }
                ok_response(fields)
            }
        },
        Request::Result(id) => match shared.sched.completion(id) {
            None => match shared.sched.state(id) {
                None => match lock(&shared.restored).get(&id) {
                    Some(term) => restored_response(id, term),
                    None => error_response(&ProtoError::UnknownJob(id)),
                },
                Some(state) => error_response(&ProtoError::NotFinished {
                    job: id,
                    state: state.name(),
                }),
            },
            Some(completion) => {
                let state = completion.state();
                match completion {
                    JobCompletion::Done(out) | JobCompletion::TimedOut(out) => ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str(state.name())),
                        ("result", result_json(&out)),
                    ]),
                    // A failed/cancelled job is a served request
                    // (`ok: true`) whose payload is an error; `code`
                    // preserves the PipelineError taxonomy that a bare
                    // string used to flatten away.
                    JobCompletion::Failed(e) | JobCompletion::Cancelled(e) => ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str(state.name())),
                        ("error", Json::str(e.to_string())),
                        ("code", Json::str(e.code())),
                    ]),
                    JobCompletion::Panicked(msg) => ok_response(vec![
                        ("job", Json::num_u64(id)),
                        ("state", Json::str(state.name())),
                        ("error", Json::str(msg)),
                        ("code", Json::str("job_panicked")),
                    ]),
                }
            }
        },
        Request::Stats => stats_response(shared),
        Request::Metrics => metrics_response(),
        Request::Shutdown => {
            // Journal what is still pending *before* acking, then count
            // it in the response: nothing queued is silently lost — the
            // drain finishes every job below, and should the process die
            // mid-drain the shutdown record plus per-job records let the
            // next life re-enqueue the remainder.
            let (queued, running) = shared.sched.pending_ids();
            if let Some(j) = &shared.journal {
                j.shutdown(&queued, &running);
            }
            shared.shutting_down.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `run` can proceed to the drain.
            let _ = TcpStream::connect(shared.local_addr);
            ok_response(vec![
                ("shutting_down", Json::Bool(true)),
                ("queued_jobs", Json::num_u64(queued.len() as u64)),
                ("running_jobs", Json::num_u64(running.len() as u64)),
            ])
        }
        Request::SubmitBatch(specs) => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return error_response(&ProtoError::from(SubmitError::ShuttingDown));
            }
            // One admission decision for the whole batch: either every
            // job fits under the high-water mark or the lot sheds with a
            // single typed `overloaded` + `retry_after_ms` (DESIGN.md
            // §15.2) — a batch cannot jump the soft wall by splitting
            // its head under the line.
            let stats = shared.sched.stats();
            if let Err(over) =
                shared
                    .admission
                    .admit_batch(stats.queued, stats.running, specs.len())
            {
                return error_response(&ProtoError::Overloaded(over));
            }
            let journaled: Vec<Json> = specs.iter().map(spec_json).collect();
            let mut tokens = Vec::with_capacity(specs.len());
            let mut jobs = Vec::with_capacity(specs.len());
            for spec in specs {
                let token = Arc::new(CancelToken::new(spec.policy.deadline_ms));
                tokens.push(Arc::clone(&token));
                jobs.push(shared.job_fn(spec, token));
            }
            match shared.sched.submit_batch(jobs) {
                Ok(ids) => {
                    for ((&id, token), spec) in ids.iter().zip(tokens).zip(&journaled) {
                        lock(&shared.tokens).insert(id, token);
                        if shared.sched.state(id).is_some_and(JobState::is_terminal) {
                            lock(&shared.tokens).remove(&id);
                        }
                        // Journal before the ack reaches the wire — same
                        // durability contract as single submit.
                        if let Some(j) = &shared.journal {
                            j.submit(id, spec);
                        }
                    }
                    ok_response(vec![(
                        "jobs",
                        Json::Arr(ids.iter().map(|&id| Json::num_u64(id)).collect()),
                    )])
                }
                Err(e) => error_response(&ProtoError::from(e)),
            }
        }
    }
}

/// Cumulative screening counters across every selection this daemon has
/// run (the global `screen.pruned` / `screen.survivors` counters the
/// selection stage maintains): how much exact-scoring work the static
/// ADVagg pre-pass is skipping in production.
fn screen_stats_json() -> Json {
    let obs = preexec_obs::global();
    let pruned = obs.counter("screen.pruned").get();
    let survivors = obs.counter("screen.survivors").get();
    Json::obj(vec![
        ("pruned", Json::num_u64(pruned)),
        ("survivors", Json::num_u64(survivors)),
        ("candidates", Json::num_u64(pruned + survivors)),
    ])
}

fn stats_response(shared: &Shared) -> Json {
    let sched = shared.sched.stats();
    let cache = shared.cache.stats();
    ok_response(vec![
        ("queue_depth", Json::num_u64(sched.queued as u64)),
        ("queue_cap", Json::num_u64(shared.queue_cap as u64)),
        ("workers", Json::num_u64(sched.workers as u64)),
        ("busy_workers", Json::num_u64(sched.running as u64)),
        ("utilization", Json::Num(sched.utilization())),
        (
            "jobs",
            Json::obj(vec![
                ("submitted", Json::num_u64(sched.submitted)),
                ("queued", Json::num_u64(sched.queued as u64)),
                ("running", Json::num_u64(sched.running as u64)),
                ("done", Json::num_u64(sched.done)),
                ("failed", Json::num_u64(sched.failed)),
                ("timed_out", Json::num_u64(sched.timed_out)),
                ("cancelled", Json::num_u64(sched.cancelled)),
            ]),
        ),
        (
            "admission",
            Json::obj(vec![
                (
                    "high_water",
                    Json::num_u64(shared.admission.high_water() as u64),
                ),
                ("mean_job_ms", Json::num_u64(shared.admission.mean_job_ms())),
                ("shed", Json::num_u64(shared.admission.shed_total())),
            ]),
        ),
        (
            "journal",
            Json::obj(vec![
                ("enabled", Json::Bool(shared.journal.is_some())),
                (
                    "restored",
                    Json::num_u64(lock(&shared.restored).len() as u64),
                ),
            ]),
        ),
        ("screen", screen_stats_json()),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::num_u64(cache.hits)),
                ("misses", Json::num_u64(cache.misses)),
                ("evictions", Json::num_u64(cache.evictions)),
                ("corrupt", Json::num_u64(cache.corrupt)),
                ("hit_rate", Json::Num(cache.hit_rate())),
            ]),
        ),
        ("stage_latency_us", shared.hists.to_json()),
        ("job_threads", Json::num_u64(shared.job_threads as u64)),
        ("parallel", shared.hists.par.to_json()),
        (
            "connections",
            Json::obj(vec![
                ("total", Json::num_u64(shared.connections_total.get())),
                (
                    "live_handlers",
                    Json::num_u64(shared.handlers_live.get().max(0) as u64),
                ),
            ]),
        ),
    ])
}

/// The `metrics` payload: the full global registry as JSON plus a
/// Prometheus-style text rendering of the same snapshot.
fn metrics_response() -> Json {
    let snap = preexec_obs::global().snapshot();
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(name, v)| (name.clone(), Json::num_u64(*v)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .iter()
            .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|(name, h)| (name.clone(), histogram_json(h)))
            .collect(),
    );
    let events = Json::Arr(
        snap.events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("seq", Json::num_u64(e.seq)),
                    ("unix_ms", Json::num_u64(e.unix_ms)),
                    ("kind", Json::str(e.kind.clone())),
                    ("message", Json::str(e.message.clone())),
                ])
            })
            .collect(),
    );
    let prometheus = render_prometheus(&snap);
    ok_response(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
        ("events", events),
        ("prometheus", Json::str(prometheus)),
    ])
}
