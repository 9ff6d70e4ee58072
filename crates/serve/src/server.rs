//! The TCP front end: connection handling and dispatch.
//!
//! Connections speak the newline-delimited JSON protocol of
//! [`proto`](crate::proto). Each accepted connection gets its own
//! handler thread over a blocking socket: jobs run for seconds and
//! connections are few (DESIGN.md §10, §15). Requests pipeline — a
//! client may write N request lines before reading any response;
//! responses come back in request order, each echoing its request `id`.
//! Request lines are framed by [`LineBuffer`] under [`MAX_LINE`]. Reads
//! carry a short timeout so a handler notices a daemon shutdown and a
//! stalled partial line (the slow-loris timeout) promptly.
//!
//! Shutdown ("graceful drain"): the `shutdown` command journals and
//! reports the still-pending job counts, flips a flag, answers the
//! client, and pokes the accept loop with a loopback connection. The
//! accept loop exits, the scheduler drains (queued and running jobs
//! finish — and their results hit the durable journal, so even a crash
//! racing the drain loses nothing), handler threads wind down — those
//! still writing to a client that stopped reading have their sockets
//! shut 5 s after the shutdown began — and [`Server::run`] returns.
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
use crate::conn::{LineBuffer, LineTooLong, MAX_LINE};
use crate::histogram::histogram_json;
use crate::journal::{compact_wal, CompactionStats, JobJournal, JournalReplay, TerminalRecord};
use crate::json::Json;
use crate::proto::{
    error_response, ok_response, parse_request_json, request_id, result_json, spec_json,
    with_request_id, ProtoError, Request, PROTOCOL_VERSION,
};
use crate::scheduler::{CancelOutcome, JobCompletion, JobId, JobState, Scheduler, SubmitError};
use crate::service::{run_job, CancelToken, JobOutput, JobSpec, StageHists};
use preexec_experiments::PipelineError;
use preexec_obs::{render_prometheus, Counter, Gauge, SharedHistogram};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long, from the start of a shutdown, handler threads get to
/// finish writing their responses before their sockets are shut.
const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// How long the accept loop waits after a failed `accept()` (such as
/// `EMFILE` while every descriptor is in use) before accepting again,
/// and how often a shutdown checks whether the handlers have finished.
const BACKOFF: Duration = Duration::from_millis(50);

/// How the daemon is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound address
    /// is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool size (0 means one worker per available core). Each
    /// job runs on its worker's thread, plus one helper thread for part
    /// of its simulations, cache hit or not.
    pub workers: usize,
    /// Bounded job-queue capacity (at least 1): the one overload wall.
    /// A batch the queue's free slots cannot take is shed as
    /// `overloaded`; a batch larger than the capacity is `queue_full`.
    pub queue_cap: usize,
    /// Artifact-cache directory (created lazily on first store).
    pub cache_dir: PathBuf,
    /// Maximum artifact-cache entries before eviction.
    pub cache_max_entries: usize,
    /// Whether the durable job journal (WAL + crash recovery) is on. The
    /// journal is compacted at every bind, before replay, and after
    /// every clean shutdown.
    pub journal: bool,
    /// Slow-loris timeout: a connection whose *partial* request line
    /// makes no progress this long is closed.
    /// Idle connections with no pending partial line are never reaped.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_cap: 256,
            cache_dir: PathBuf::from("preexec-cache"),
            cache_max_entries: 256,
            journal: true,
            idle_timeout_ms: 10_000,
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
    /// The durable WAL; `None` with `--no-journal`.
    journal: Option<JobJournal>,
    /// Counts admissions and turns a full queue into `overloaded` with a
    /// retry hint.
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
    /// Live handler threads after the accept loop's last reap — the
    /// gauge the boundedness test watches (registry gauge
    /// `server.handlers_live`).
    handlers_live: Arc<Gauge>,
    /// Complete request lines per read — >1 means clients are
    /// pipelining (registry histogram `server.pipelined_depth`).
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
            let completion = run_job(&spec, &shared.cache, &shared.hists, Some(&token));
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
    /// Slow-loris timeout.
    idle_timeout: Duration,
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
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let journal_path = config.cache_dir.join(Server::JOURNAL_FILE);
        let (journal, replay) = if config.journal {
            // A journal grown across unclean shutdowns shrinks to its
            // submit + terminal pairs before replay, which replays the
            // compacted file to the same state. Compaction drops the
            // corrupt lines, so they are counted from its stats.
            let dropped =
                compact_journal(&journal_path, "startup").map_or(0, |s| s.corrupt_dropped);
            let replay = JournalReplay::read(&journal_path);
            let corrupt = dropped + replay.corrupt_records;
            if corrupt > 0 {
                preexec_obs::global()
                    .counter("journal.corrupt_records")
                    .add(corrupt);
                preexec_obs::global().journal().note(
                    "journal_corrupt",
                    &format!(
                        "{corrupt} corrupt record(s) skipped replaying {}",
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
        let queue_cap = config.queue_cap.max(1);
        let shared = Arc::new(Shared {
            sched: Scheduler::new(workers, queue_cap),
            cache: ArtifactCache::new(&config.cache_dir, config.cache_max_entries),
            hists: StageHists::new(),
            shutting_down: AtomicBool::new(false),
            local_addr,
            queue_cap,
            journal,
            admission: AdmissionGate::new(workers, registry),
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
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
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
    /// scheduler, winds down the handler threads, compacts the WAL, and
    /// returns. Blocks the calling thread for the daemon's whole life.
    /// A failed `accept()` never ends it: the loop backs off briefly and
    /// accepts again, so a daemon out of file descriptors serves on once
    /// connections close.
    pub fn run(self) {
        let mut handlers: Vec<(JoinHandle<()>, Arc<TcpStream>)> = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                // The poke connection (or a late client): stop accepting.
                break;
            }
            // Reap finished handlers, so the vector tracks live
            // connections rather than growing (and holding dead threads'
            // stacks and sockets) for the daemon's whole life.
            handlers.retain(|(h, _)| !h.is_finished());
            match accepted {
                Ok((stream, _)) => {
                    self.shared.connections_total.inc();
                    // Responses to a pipelined burst can take more than
                    // one write; Nagle would hold the second until the
                    // client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let stream = Arc::new(stream);
                    let shared = Arc::clone(&self.shared);
                    let conn = Arc::clone(&stream);
                    let idle_timeout = self.idle_timeout;
                    let handler = std::thread::spawn(move || {
                        handle_connection(&conn, &shared, idle_timeout);
                        // The accept loop holds the socket open until its
                        // next reap: end the connection now.
                        let _ = conn.shutdown(Shutdown::Both);
                    });
                    handlers.push((handler, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // EMFILE, ECONNABORTED and the like: back off, so a
                // persistent error cannot spin a core, then accept again.
                Err(_) => std::thread::sleep(BACKOFF),
            }
            self.shared.handlers_live.set(handlers.len() as i64);
        }
        let deadline = Instant::now() + SHUTDOWN_FLUSH_DEADLINE;
        // Graceful drain: finish queued + running jobs, then collect the
        // handler threads (their read timeout notices the flag).
        self.shared.sched.shutdown();
        join_handlers(handlers, deadline);
        // Every job is terminal (or journaled pending via the shutdown
        // record), and no append races the rewrite after the drain.
        if let Some(j) = &self.shared.journal {
            compact_journal(j.path(), "shutdown");
        }
    }
}

/// Joins every handler thread. Handlers get until `deadline` to finish
/// on their own; then the sockets still open are shut, which fails a
/// write blocked on a client that stopped reading — such a handler
/// would otherwise never return.
fn join_handlers(handlers: Vec<(JoinHandle<()>, Arc<TcpStream>)>, deadline: Instant) {
    while Instant::now() < deadline && handlers.iter().any(|(h, _)| !h.is_finished()) {
        std::thread::sleep(BACKOFF);
    }
    for (handler, stream) in handlers {
        if !handler.is_finished() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = handler.join();
    }
}

/// Checkpoint-and-truncate the WAL at `path` (see [`compact_wal`]) and
/// note the result, naming the occasion (`startup` or `shutdown`), in
/// the obs journal. Failure is not fatal: it leaves the uncompacted
/// journal, which still replays, and returns `None`.
fn compact_journal(path: &Path, occasion: &str) -> Option<CompactionStats> {
    let events = preexec_obs::global().journal();
    match compact_wal(path) {
        Ok(stats) => {
            events.note(
                "wal_compacted",
                &format!(
                    "{occasion} compaction: {} -> {} bytes, {} record(s) kept",
                    stats.bytes_before, stats.bytes_after, stats.records_after
                ),
            );
            Some(stats)
        }
        Err(e) => {
            events.note(
                "wal_compact_failed",
                &format!("{occasion} compaction of {}: {e}", path.display()),
            );
            None
        }
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

/// The one response a connection gets when its request line passes
/// [`MAX_LINE`]; the connection closes after it.
fn line_too_long_response() -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("protocol_version", Json::num_u64(PROTOCOL_VERSION)),
        (
            "error",
            Json::str(LineTooLong { limit: MAX_LINE }.to_string()),
        ),
        ("code", Json::str("line_too_long")),
    ])
    .encode()
}

/// Serves one connection until EOF, error, daemon shutdown, an over-long
/// request line, or a partial line that stalls past `idle_timeout`.
fn handle_connection(mut stream: &TcpStream, shared: &Arc<Shared>, idle_timeout: Duration) {
    // A short read timeout keeps this thread responsive to shutdown and
    // to the slow-loris clock; a longer one would only delay the final
    // join.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = BufWriter::new(stream);
    let mut lines = LineBuffer::new(MAX_LINE);
    let mut buf = [0u8; 16 * 1024];
    // Last time `read()` returned bytes — the slow-loris clock.
    let mut last_progress = Instant::now();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => {
                last_progress = Instant::now();
                let overlong = lines.push(&buf[..n]).is_err();
                let mut depth: u64 = 0;
                while let Some(line) = lines.next_line() {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    depth += 1;
                    if writeln!(writer, "{}", dispatch(trimmed, shared).encode()).is_err() {
                        return;
                    }
                }
                if depth > 0 {
                    // The histogram's unit is "request lines per read",
                    // not microseconds — the bucketing works the same.
                    shared.pipelined_depth.record_us(depth);
                }
                // The complete lines ahead of the over-long one were
                // answered first, so responses stay in request order.
                if overlong {
                    let _ = writeln!(writer, "{}", line_too_long_response());
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
                let stalled = lines.has_partial() && last_progress.elapsed() > idle_timeout;
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
        Request::Submit { jobs, batch } => match submit(shared, jobs) {
            Ok(ids) => {
                let mut ids: Vec<Json> = ids.into_iter().map(Json::num_u64).collect();
                if batch {
                    ok_response(vec![("jobs", Json::Arr(ids))])
                } else {
                    ok_response(vec![("job", ids.swap_remove(0))])
                }
            }
            Err(e) => error_response(&e),
        },
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
    }
}

/// The one way into the scheduler, for `submit` (a batch of one) and
/// `submit_batch` alike. Refuses while draining and rejects a batch
/// larger than the queue outright; otherwise the scheduler's capacity
/// check admits or refuses the whole batch under its lock, and a refusal
/// is shed as `overloaded` with a retry hint (DESIGN.md §14.3). Admitted
/// jobs get their cancel tokens, and every acked spec is journaled
/// before the caller writes the ack.
fn submit(shared: &Arc<Shared>, specs: Vec<JobSpec>) -> Result<Vec<JobId>, ProtoError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ProtoError::ShuttingDown);
    }
    let n = specs.len();
    if n > shared.queue_cap {
        return Err(ProtoError::BatchTooLarge {
            jobs: n,
            cap: shared.queue_cap,
        });
    }
    let journaled: Vec<Json> = specs.iter().map(spec_json).collect();
    let (tokens, jobs): (Vec<_>, Vec<_>) = specs
        .into_iter()
        .map(|spec| {
            let token = Arc::new(CancelToken::new(spec.policy.deadline_ms));
            (Arc::clone(&token), shared.job_fn(spec, token))
        })
        .unzip();
    let ids = shared.sched.submit_batch(jobs).map_err(|e| match e {
        SubmitError::QueueFull { cap, queued } => {
            ProtoError::Overloaded(shared.admission.shed((queued + n).saturating_sub(cap)))
        }
        SubmitError::ShuttingDown => ProtoError::ShuttingDown,
    })?;
    shared.admission.record_admitted(n);
    for ((&id, token), spec) in ids.iter().zip(tokens).zip(&journaled) {
        lock(&shared.tokens).insert(id, token);
        // A fast worker may already have finished (its own removal ran
        // before this insert): don't leak the token entry.
        if shared.sched.state(id).is_some_and(JobState::is_terminal) {
            lock(&shared.tokens).remove(&id);
        }
        // Journal the acked submission *before* the client hears the
        // ack: once `ok` is on the wire the job must survive a crash.
        // (A fast worker's `start` may already sit before this record;
        // replay is order-insensitive.)
        if let Some(j) = &shared.journal {
            j.submit(id, spec);
        }
    }
    Ok(ids)
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
