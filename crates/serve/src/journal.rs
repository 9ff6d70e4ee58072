//! The durable job journal: a checksummed, append-only write-ahead log
//! that makes `preexecd` crash-safe.
//!
//! Every job-state transition the daemon acknowledges is appended here
//! *before* the client hears about it, so a `kill -9` at any point loses
//! nothing that was acked: on restart the daemon replays the journal,
//! restores finished jobs' results, and re-enqueues every
//! acked-but-unfinished job under its original id. The pipeline is
//! deterministic, so the re-run completes byte-identically (modulo
//! wall-clock fields — see [`canonical_result`]).
//!
//! ## Record format
//!
//! One record per line:
//!
//! ```text
//! <fnv1a64-hex16> <json>\n
//! ```
//!
//! The checksum is FNV-1a-64 (the same integrity hash the slice-file
//! format and the artifact cache use) over the JSON bytes. The JSON is
//! one object with a monotonically increasing `seq`, an `ev` event name,
//! and per-event fields:
//!
//! | `ev` | fields | meaning |
//! |------|--------|---------|
//! | `submit` | `job`, `spec` | the job was acked to a client |
//! | `start` | `job` | a worker began executing it |
//! | `done` | `job`, `state` (`done`/`timed_out`), `result` | finished with output |
//! | `failed` | `job`, `error`, `code` | finished with a typed error or panic |
//! | `cancelled` | `job`, `error`, `code` | cancelled or deadline-expired |
//! | `shutdown` | `queued`, `running` (id arrays) | graceful drain began |
//!
//! ## Failure semantics
//!
//! Reading is lenient (DESIGN.md §9): a record whose checksum or JSON
//! fails to parse — the torn tail a crash mid-append leaves, or media
//! corruption — is counted and skipped, never fatal. Replay is
//! order-insensitive per job (a fast worker can append `done` before the
//! dispatcher's `submit` lands). Appends are fsynced so an acked record
//! survives power loss, and append *failures* (disk full) are counted
//! and journaled in the in-memory observability journal but never take
//! the daemon down — durability degrades, service continues.

use crate::json::Json;
use preexec_obs::Counter;
use preexec_slice::fnv1a64;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Formats one journal line (no trailing newline).
fn encode_record(json: &Json) -> String {
    let body = json.encode();
    format!("{:016x} {body}", fnv1a64(body.as_bytes()))
}

/// Parses one journal line; `None` when the checksum or JSON is bad.
fn decode_record(line: &str) -> Option<Json> {
    let (ck, body) = line.split_once(' ')?;
    if ck.len() != 16 {
        return None;
    }
    let want = u64::from_str_radix(ck, 16).ok()?;
    if fnv1a64(body.as_bytes()) != want {
        return None;
    }
    Json::parse(body).ok()
}

/// The append half: an open journal file the daemon writes transitions
/// to. Thread-safe — appends serialize on an internal mutex, and each
/// append is flushed and fsynced before it returns.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: Mutex<File>,
    seq: AtomicU64,
    appends: Arc<Counter>,
    append_errors: Arc<Counter>,
}

impl JobJournal {
    /// Opens (creating if needed) the journal at `path` for appending.
    /// `next_seq` is the first sequence number to stamp — pass
    /// [`JournalReplay::next_seq`] so numbering continues across
    /// restarts.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, ...).
    pub fn open(path: impl Into<PathBuf>, next_seq: u64) -> std::io::Result<JobJournal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let registry = preexec_obs::global();
        Ok(JobJournal {
            path,
            file: Mutex::new(file),
            seq: AtomicU64::new(next_seq.max(1)),
            appends: registry.counter("journal.appends"),
            append_errors: registry.counter("journal.append_errors"),
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, stamping `seq`, then flushes and fsyncs.
    /// Best-effort: an I/O failure is counted (`journal.append_errors`)
    /// and noted in the observability journal, but never propagated —
    /// a full disk must degrade durability, not availability.
    fn append(&self, ev: &str, mut fields: Vec<(&str, Json)>) {
        // Take the file lock before assigning `seq`, so sequence numbers
        // are strictly increasing in file order (an invariant the chaos
        // checker verifies).
        let mut file = lock(&self.file);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut pairs = vec![("seq", Json::num_u64(seq)), ("ev", Json::str(ev))];
        pairs.append(&mut fields);
        let mut line = encode_record(&Json::obj(pairs));
        line.push('\n');
        let result = file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data());
        match result {
            Ok(()) => self.appends.inc(),
            Err(e) => {
                self.append_errors.inc();
                preexec_obs::global().journal().note(
                    "journal_append_failed",
                    &format!("{}: {e}", self.path.display()),
                );
            }
        }
    }

    /// Records that job `id` (with the given submit-shaped spec) was
    /// acknowledged to a client.
    pub fn submit(&self, id: u64, spec: &Json) {
        self.append(
            "submit",
            vec![("job", Json::num_u64(id)), ("spec", spec.clone())],
        );
    }

    /// Records that a worker began executing job `id`.
    pub fn start(&self, id: u64) {
        self.append("start", vec![("job", Json::num_u64(id))]);
    }

    /// Records that job `id` finished with output, in `state`
    /// (`"done"` or `"timed_out"`), carrying the full result payload so
    /// a restarted daemon can still serve it.
    pub fn done(&self, id: u64, state: &str, result: &Json) {
        self.append(
            "done",
            vec![
                ("job", Json::num_u64(id)),
                ("state", Json::str(state)),
                ("result", result.clone()),
            ],
        );
    }

    /// Records that job `id` finished with a typed error or panic.
    pub fn failed(&self, id: u64, error: &str, code: &str) {
        self.append(
            "failed",
            vec![
                ("job", Json::num_u64(id)),
                ("error", Json::str(error)),
                ("code", Json::str(code)),
            ],
        );
    }

    /// Records that job `id` was cancelled (client `cancel` or deadline).
    pub fn cancelled(&self, id: u64, error: &str, code: &str) {
        self.append(
            "cancelled",
            vec![
                ("job", Json::num_u64(id)),
                ("error", Json::str(error)),
                ("code", Json::str(code)),
            ],
        );
    }

    /// Records the start of a graceful drain with the ids still queued
    /// and running — paired with the WAL's replay rules this is what
    /// makes a `shutdown` racing a crash lose nothing.
    pub fn shutdown(&self, queued: &[u64], running: &[u64]) {
        let ids = |v: &[u64]| Json::Arr(v.iter().map(|&i| Json::num_u64(i)).collect());
        self.append(
            "shutdown",
            vec![("queued", ids(queued)), ("running", ids(running))],
        );
    }
}

/// How a replayed job finished, when it did.
#[derive(Debug, Clone)]
pub struct TerminalRecord {
    /// The wire state name: `done`, `timed_out`, `failed`, `cancelled`.
    pub state: String,
    /// The full result payload (`done`/`timed_out` only).
    pub result: Option<Json>,
    /// The error message (`failed`/`cancelled` only).
    pub error: Option<String>,
    /// The stable error code (`failed`/`cancelled` only).
    pub code: Option<String>,
}

/// Everything the journal knows about one job after replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayedJob {
    /// The submit-shaped spec (absent if the submit record was lost to
    /// corruption but a later record referenced the id).
    pub spec: Option<Json>,
    /// How (and whether) the job finished. Re-runs overwrite: the last
    /// terminal record wins.
    pub terminal: Option<TerminalRecord>,
    /// How many times a worker started it (>1 means a crash mid-run).
    pub starts: u64,
}

impl ReplayedJob {
    /// An acked job that never reached a terminal state — the replay
    /// must re-enqueue it.
    pub fn is_pending(&self) -> bool {
        self.terminal.is_none() && self.spec.is_some()
    }
}

/// The read half: a lenient, order-insensitive fold of the journal into
/// per-job state.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Per-job state, keyed by id (sorted, so replay order is stable).
    pub jobs: BTreeMap<u64, ReplayedJob>,
    /// Valid records read.
    pub records: u64,
    /// Lines that failed the checksum or JSON parse and were skipped.
    pub corrupt_records: u64,
    /// One past the highest `seq` seen (the next journal's first stamp).
    pub next_seq: u64,
    /// The highest job id seen (the scheduler resumes numbering above
    /// it).
    pub max_job_id: u64,
}

impl JournalReplay {
    /// Reads and folds the journal at `path`; a missing file is an empty
    /// (fresh-start) replay, and unreadable or corrupt records are
    /// counted, not fatal.
    pub fn read(path: &Path) -> JournalReplay {
        match std::fs::read_to_string(path) {
            Ok(text) => JournalReplay::from_text(&text),
            Err(_) => JournalReplay {
                next_seq: 1,
                ..JournalReplay::default()
            },
        }
    }

    /// Folds journal text (see [`read`](Self::read)).
    pub fn from_text(text: &str) -> JournalReplay {
        let mut replay = JournalReplay {
            next_seq: 1,
            ..JournalReplay::default()
        };
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let Some(rec) = decode_record(line) else {
                replay.corrupt_records += 1;
                continue;
            };
            replay.records += 1;
            if let Some(seq) = rec.get("seq").and_then(Json::as_u64) {
                replay.next_seq = replay.next_seq.max(seq + 1);
            }
            let Some(ev) = rec.get("ev").and_then(Json::as_str) else {
                replay.corrupt_records += 1;
                continue;
            };
            if ev == "shutdown" {
                continue;
            }
            let Some(id) = rec.get("job").and_then(Json::as_u64) else {
                replay.corrupt_records += 1;
                continue;
            };
            replay.max_job_id = replay.max_job_id.max(id);
            let job = replay.jobs.entry(id).or_default();
            match ev {
                "submit" => job.spec = rec.get("spec").cloned(),
                "start" => job.starts += 1,
                "done" => {
                    job.terminal = Some(TerminalRecord {
                        state: rec
                            .get("state")
                            .and_then(Json::as_str)
                            .unwrap_or("done")
                            .to_string(),
                        result: rec.get("result").cloned(),
                        error: None,
                        code: None,
                    });
                }
                "failed" | "cancelled" => {
                    job.terminal = Some(TerminalRecord {
                        state: if ev == "failed" {
                            "failed"
                        } else {
                            "cancelled"
                        }
                        .to_string(),
                        result: None,
                        error: rec.get("error").and_then(Json::as_str).map(String::from),
                        code: rec.get("code").and_then(Json::as_str).map(String::from),
                    });
                }
                _ => replay.corrupt_records += 1,
            }
        }
        replay
    }

    /// The acked-but-unfinished jobs, in id order, with their specs —
    /// what a restarted daemon re-enqueues.
    pub fn pending(&self) -> Vec<(u64, &Json)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.is_pending())
            .filter_map(|(&id, j)| j.spec.as_ref().map(|s| (id, s)))
            .collect()
    }
}

/// What [`compact_wal`] did, for the daemon's shutdown log line and the
/// compaction tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Jobs whose state survived into the compacted journal.
    pub jobs_kept: usize,
    /// Of those, jobs still pending (acked, never finished).
    pub pending_kept: usize,
    /// Valid records in the journal before compaction.
    pub records_before: u64,
    /// Corrupt lines dropped by the lenient fold.
    pub corrupt_dropped: u64,
    /// Records written to the compacted journal.
    pub records_after: u64,
    /// File size before, in bytes.
    pub bytes_before: u64,
    /// File size after, in bytes.
    pub bytes_after: u64,
}

/// Checkpoint-and-truncate compaction: rewrites the journal at `path` to
/// the minimal record set that replays to the same per-job state, fixing
/// the WAL's unbounded growth across long daemon lifetimes.
///
/// The compacted journal keeps, per job in id order:
///
/// - the `submit` record (when its spec survived) — **always**, even for
///   finished jobs. Terminal-state redundancy is deliberate: replay only
///   needs one record per finished job, but a single torn line must
///   degrade a job to "re-run deterministically" (submit survives) or
///   "finished, result served from the terminal record" (terminal
///   survives) — never to "never heard of this id". The id allocator's
///   high-water mark (`max_job_id`) survives single-line loss the same
///   way;
/// - the latest terminal record (`done`/`failed`/`cancelled`), re-runs
///   folded away.
///
/// Everything else — `start` records, `shutdown` markers, superseded
/// re-run terminals, corrupt lines — is dropped. Sequence numbers are
/// renumbered from 1 (per-file monotonicity is the invariant; absolute
/// values are not), and the rewrite is atomic (tmp + rename), so a crash
/// mid-compaction leaves the old journal intact.
///
/// # Errors
///
/// Propagates filesystem errors. A missing journal is a no-op success.
pub fn compact_wal(path: &Path) -> std::io::Result<CompactionStats> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CompactionStats::default()),
        Err(e) => return Err(e),
    };
    let replay = JournalReplay::from_text(&text);
    let mut out = String::new();
    let mut seq = 0u64;
    let mut append = |ev: &str, fields: Vec<(&str, Json)>| {
        seq += 1;
        let mut pairs = vec![("seq", Json::num_u64(seq)), ("ev", Json::str(ev))];
        pairs.extend(fields);
        out.push_str(&encode_record(&Json::obj(pairs)));
        out.push('\n');
    };
    let mut pending_kept = 0usize;
    for (&id, job) in &replay.jobs {
        if let Some(spec) = &job.spec {
            append(
                "submit",
                vec![("job", Json::num_u64(id)), ("spec", spec.clone())],
            );
        }
        match &job.terminal {
            None => pending_kept += 1,
            Some(t) => match t.state.as_str() {
                s @ ("failed" | "cancelled") => append(
                    s,
                    vec![
                        ("job", Json::num_u64(id)),
                        ("error", Json::str(t.error.clone().unwrap_or_default())),
                        ("code", Json::str(t.code.clone().unwrap_or_default())),
                    ],
                ),
                state => {
                    let mut fields = vec![("job", Json::num_u64(id)), ("state", Json::str(state))];
                    if let Some(result) = &t.result {
                        fields.push(("result", result.clone()));
                    }
                    append("done", fields);
                }
            },
        }
    }
    crate::cache::write_atomically(path, &out)?;
    Ok(CompactionStats {
        jobs_kept: replay.jobs.len(),
        pending_kept,
        records_before: replay.records,
        corrupt_dropped: replay.corrupt_records,
        records_after: seq,
        bytes_before: text.len() as u64,
        bytes_after: out.len() as u64,
    })
}

/// The canonical (deterministic) rendering of a result payload: the
/// payload minus the wall-clock fields that legitimately differ between
/// two runs of the same job (`stage_us`) and the cache-dependent
/// `cache_hit` flag. Two executions of one job must agree on this string
/// byte for byte — the crash-recovery contract.
pub fn canonical_result(result: &Json) -> String {
    match result {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "stage_us" && k != "cache_hit")
                .cloned()
                .collect(),
        )
        .encode(),
        other => other.encode(),
    }
}

/// The chaos harness's journal invariant checker. Returns a list of
/// human-readable violations (empty = healthy):
///
/// 1. `seq` strictly increases in file order (valid records only —
///    corruption may eat lines, never reorder them);
/// 2. no job id carries two `submit` records (an acked id is never
///    reused);
/// 3. no job finishes `done` twice with *different* canonical result
///    bytes (a crash may legitimately re-run a job — the re-run must be
///    byte-identical);
/// 4. no record mixes into an unknown event name.
pub fn check_invariants(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut submits: BTreeMap<u64, u64> = BTreeMap::new();
    let mut done_bytes: BTreeMap<u64, String> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some(rec) = decode_record(line) else {
            continue; // corruption is counted elsewhere, not a violation
        };
        if let Some(seq) = rec.get("seq").and_then(Json::as_u64) {
            if let Some(prev) = last_seq {
                if seq <= prev {
                    violations.push(format!("line {}: seq {seq} after {prev}", lineno + 1));
                }
            }
            last_seq = Some(seq);
        } else {
            violations.push(format!("line {}: record without seq", lineno + 1));
        }
        let ev = rec.get("ev").and_then(Json::as_str).unwrap_or("");
        if !matches!(
            ev,
            "submit" | "start" | "done" | "failed" | "cancelled" | "shutdown"
        ) {
            violations.push(format!("line {}: unknown event `{ev}`", lineno + 1));
            continue;
        }
        let id = rec.get("job").and_then(Json::as_u64);
        match (ev, id) {
            ("submit", Some(id)) => {
                let n = submits.entry(id).or_insert(0);
                *n += 1;
                if *n > 1 {
                    violations.push(format!("line {}: job {id} submitted twice", lineno + 1));
                }
            }
            ("done", Some(id)) => {
                if let Some(result) = rec.get("result") {
                    let bytes = canonical_result(result);
                    match done_bytes.get(&id) {
                        Some(prev) if *prev != bytes => violations.push(format!(
                            "line {}: job {id} re-ran with different result bytes",
                            lineno + 1
                        )),
                        _ => {
                            done_bytes.insert(id, bytes);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("preexec-journal-{}-{name}.wal", std::process::id()))
    }

    fn spec() -> Json {
        Json::obj(vec![
            ("workload", Json::str("mcf")),
            ("budget", Json::num_u64(40_000)),
        ])
    }

    #[test]
    fn append_then_replay_round_trips_job_lifecycles() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let journal = JobJournal::open(&path, 1).expect("open");
        let payload = Json::obj(vec![("speedup", Json::Num(1.25))]);
        journal.submit(1, &spec());
        journal.submit(2, &spec());
        journal.submit(3, &spec());
        journal.start(1);
        journal.done(1, "done", &payload);
        journal.start(2);
        journal.failed(2, "boom", "pipeline.exec");
        journal.start(3);
        // Job 3 never finishes: the crash window.
        drop(journal);

        let replay = JournalReplay::read(&path);
        assert_eq!(replay.records, 8);
        assert_eq!(replay.corrupt_records, 0);
        assert_eq!(replay.max_job_id, 3);
        assert_eq!(replay.next_seq, 9);
        let done = &replay.jobs[&1];
        let t = done.terminal.as_ref().expect("terminal");
        assert_eq!(t.state, "done");
        assert_eq!(t.result.as_ref().map(Json::encode), Some(payload.encode()));
        assert!(!done.is_pending());
        let failed = &replay.jobs[&2];
        let t = failed.terminal.as_ref().expect("terminal");
        assert_eq!(
            (t.state.as_str(), t.code.as_deref()),
            ("failed", Some("pipeline.exec"))
        );
        let pending = replay.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 3);
        assert!(check_invariants(&std::fs::read_to_string(&path).expect("read")).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_continues_sequence_numbers() {
        let path = tmp_path("reopen");
        let _ = std::fs::remove_file(&path);
        let j1 = JobJournal::open(&path, 1).expect("open");
        j1.submit(1, &spec());
        drop(j1);
        let replay = JournalReplay::read(&path);
        let j2 = JobJournal::open(&path, replay.next_seq).expect("reopen");
        j2.start(1);
        drop(j2);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(
            check_invariants(&text).is_empty(),
            "seq must keep increasing"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_and_torn_records_are_skipped_not_fatal() {
        let journal_lines = {
            let path = tmp_path("corrupt");
            let _ = std::fs::remove_file(&path);
            let j = JobJournal::open(&path, 1).expect("open");
            j.submit(1, &spec());
            j.submit(2, &spec());
            j.done(1, "done", &Json::obj(vec![("speedup", Json::Num(1.0))]));
            let text = std::fs::read_to_string(&path).expect("read");
            let _ = std::fs::remove_file(&path);
            text
        };
        // Flip a byte inside the second record's body: checksum fails.
        let mut lines: Vec<String> = journal_lines.lines().map(String::from).collect();
        lines[1] = lines[1].replace("mcf", "mcg");
        let tampered = lines.join("\n");
        let replay = JournalReplay::from_text(&tampered);
        assert_eq!(replay.corrupt_records, 1);
        assert_eq!(replay.records, 2);
        assert!(replay.jobs[&1].terminal.is_some());
        // Torn tail: a crash mid-append leaves half a line.
        let torn = format!("{journal_lines}0123abc");
        let replay = JournalReplay::from_text(&torn);
        assert_eq!(replay.corrupt_records, 1);
        assert_eq!(replay.records, 3);
        // Truncation mid-record drops only that record.
        let cut = &journal_lines[..journal_lines.len() - 10];
        let replay = JournalReplay::from_text(cut);
        assert_eq!(replay.corrupt_records, 1);
        assert!(replay.jobs[&1].terminal.is_none());
        assert_eq!(
            replay.pending().len(),
            2,
            "1 lost its done record, 2 never had one"
        );
    }

    #[test]
    fn out_of_order_done_before_submit_still_folds() {
        // A fast worker's `done` can hit the file before the dispatcher's
        // `submit`. Replay is order-insensitive.
        let path = tmp_path("ooo");
        let _ = std::fs::remove_file(&path);
        let j = JobJournal::open(&path, 1).expect("open");
        j.done(5, "done", &Json::obj(vec![("speedup", Json::Num(2.0))]));
        j.submit(5, &spec());
        drop(j);
        let replay = JournalReplay::read(&path);
        let job = &replay.jobs[&5];
        assert!(job.spec.is_some() && job.terminal.is_some());
        assert!(!job.is_pending());
        assert!(replay.pending().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn canonical_result_strips_wall_clock_fields() {
        let a = Json::obj(vec![
            ("speedup", Json::Num(1.5)),
            ("cache_hit", Json::Bool(false)),
            ("stage_us", Json::obj(vec![("trace", Json::num_u64(120))])),
        ]);
        let b = Json::obj(vec![
            ("speedup", Json::Num(1.5)),
            ("cache_hit", Json::Bool(true)),
            ("stage_us", Json::obj(vec![("trace", Json::num_u64(0))])),
        ]);
        assert_eq!(canonical_result(&a), canonical_result(&b));
        let c = Json::obj(vec![("speedup", Json::Num(2.5))]);
        assert_ne!(canonical_result(&a), canonical_result(&c));
    }

    #[test]
    fn compaction_preserves_replay_state_and_shrinks_the_file() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let j = JobJournal::open(&path, 1).expect("open");
        let payload = Json::obj(vec![("speedup", Json::Num(1.5))]);
        // A noisy lifetime: re-runs, failures, a cancel, a pending job,
        // and shutdown markers — everything compaction should boil down.
        for id in 1..=6u64 {
            j.submit(id, &spec());
        }
        for id in 1..=5u64 {
            j.start(id);
        }
        j.done(1, "done", &payload);
        j.start(1); // crash re-run...
        j.done(1, "done", &payload); // ...byte-identical second terminal
        j.done(2, "timed_out", &payload);
        j.failed(3, "boom", "job_panicked");
        j.cancelled(4, "client cancel", "cancelled");
        j.done(5, "done", &payload);
        j.shutdown(&[6], &[]);
        // Job 6 stays pending: acked, never started.
        drop(j);

        let before_text = std::fs::read_to_string(&path).expect("read");
        let before = JournalReplay::from_text(&before_text);
        let stats = compact_wal(&path).expect("compact");
        let after_text = std::fs::read_to_string(&path).expect("read");
        let after = JournalReplay::from_text(&after_text);

        // Replay equivalence: same jobs, same terminal states, same
        // canonical result bytes, same pending set, same id high-water.
        assert_eq!(after.jobs.len(), before.jobs.len());
        assert_eq!(after.max_job_id, before.max_job_id);
        assert_eq!(
            after
                .pending()
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>(),
            before
                .pending()
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>(),
        );
        for (id, b) in &before.jobs {
            let a = &after.jobs[id];
            match (&b.terminal, &a.terminal) {
                (None, None) => {}
                (Some(bt), Some(at)) => {
                    assert_eq!(bt.state, at.state, "job {id}");
                    assert_eq!(
                        bt.result.as_ref().map(canonical_result),
                        at.result.as_ref().map(canonical_result),
                        "job {id}"
                    );
                    assert_eq!((&bt.error, &bt.code), (&at.error, &at.code), "job {id}");
                }
                other => panic!("job {id}: terminal mismatch {other:?}"),
            }
            assert_eq!(a.spec.is_some(), b.spec.is_some(), "job {id}");
        }
        // The compacted file is smaller, invariant-clean, and keeps the
        // submit+terminal redundancy: exactly 2 records per finished job,
        // 1 per pending job.
        assert!(stats.bytes_after < stats.bytes_before, "{stats:?}");
        assert_eq!(stats.records_after, 5 * 2 + 1);
        assert_eq!((stats.jobs_kept, stats.pending_kept), (6, 1));
        assert!(check_invariants(&after_text).is_empty());
        assert_eq!(after.corrupt_records, 0);
        // Seqs renumber from 1 and a reopened journal continues cleanly.
        assert_eq!(after.next_seq, stats.records_after + 1);
        let j2 = JobJournal::open(&path, after.next_seq).expect("reopen");
        j2.submit(7, &spec());
        drop(j2);
        assert!(check_invariants(&std::fs::read_to_string(&path).expect("read")).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_is_idempotent_and_bounds_growth_across_generations() {
        let path = tmp_path("compact-gen");
        let _ = std::fs::remove_file(&path);
        let payload = Json::obj(vec![("speedup", Json::Num(2.0))]);
        // Many daemon generations, each running a batch to completion and
        // compacting on shutdown; only the *pending-free* history should
        // accumulate — i.e. the file stays proportional to job count, not
        // to (jobs × lifecycle records × generations).
        let mut next_id = 1u64;
        let mut sizes = Vec::new();
        for _generation in 0..3 {
            let replay = JournalReplay::read(&path);
            let j = JobJournal::open(&path, replay.next_seq).expect("open");
            for _ in 0..4 {
                let id = next_id;
                next_id += 1;
                j.submit(id, &spec());
                j.start(id);
                j.done(id, "done", &payload);
            }
            j.shutdown(&[], &[]);
            drop(j);
            compact_wal(&path).expect("compact");
            sizes.push(std::fs::metadata(&path).expect("meta").len());
        }
        // 4, 8, 12 finished jobs → linear growth in the compacted file.
        assert!(sizes[1] > sizes[0] && sizes[2] > sizes[1]);
        let per_job = sizes[0] as f64 / 4.0;
        assert!(
            (sizes[2] as f64) < per_job * 12.0 * 1.25,
            "compacted size must stay ~linear in jobs: {sizes:?}"
        );
        // Idempotent: compacting a compacted journal is byte-stable.
        let once = std::fs::read_to_string(&path).expect("read");
        let stats = compact_wal(&path).expect("recompact");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), once);
        assert_eq!(stats.records_before, stats.records_after);
        // A missing journal is a clean no-op.
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            compact_wal(&path).expect("missing ok"),
            CompactionStats::default()
        );
    }

    #[test]
    fn a_single_torn_line_in_a_compacted_journal_never_loses_an_id() {
        // The redundancy rationale pinned as a test: whichever single
        // line of a finished job's (submit, terminal) pair is lost, the
        // id still replays (as pending-for-rerun or as finished).
        let path = tmp_path("compact-torn");
        let _ = std::fs::remove_file(&path);
        let j = JobJournal::open(&path, 1).expect("open");
        j.submit(9, &spec());
        j.start(9);
        j.done(9, "done", &Json::obj(vec![("speedup", Json::Num(1.1))]));
        drop(j);
        compact_wal(&path).expect("compact");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "submit + terminal");
        for lost in 0..lines.len() {
            let surviving: Vec<&str> = (0..lines.len())
                .filter(|&i| i != lost)
                .map(|i| lines[i])
                .collect();
            let replay = JournalReplay::from_text(&surviving.join("\n"));
            assert_eq!(
                replay.max_job_id, 9,
                "losing line {lost} must not lose the id"
            );
            let job = &replay.jobs[&9];
            assert!(
                job.terminal.is_some() || job.is_pending(),
                "losing line {lost} must leave the job servable or re-runnable"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invariant_checker_flags_reordered_and_diverging_records() {
        let rec = |seq: u64, ev: &str, extra: Vec<(&str, Json)>| {
            let mut pairs = vec![("seq", Json::num_u64(seq)), ("ev", Json::str(ev))];
            pairs.extend(extra);
            encode_record(&Json::obj(pairs))
        };
        // Healthy: re-run with identical canonical bytes.
        let payload = Json::obj(vec![("speedup", Json::Num(1.5))]);
        let healthy = [
            rec(
                1,
                "submit",
                vec![("job", Json::num_u64(1)), ("spec", spec())],
            ),
            rec(
                2,
                "done",
                vec![("job", Json::num_u64(1)), ("result", payload.clone())],
            ),
            rec(3, "start", vec![("job", Json::num_u64(1))]),
            rec(
                4,
                "done",
                vec![("job", Json::num_u64(1)), ("result", payload)],
            ),
        ]
        .join("\n");
        assert!(check_invariants(&healthy).is_empty());
        // Diverging re-run.
        let diverged = [
            rec(
                1,
                "done",
                vec![
                    ("job", Json::num_u64(1)),
                    ("result", Json::obj(vec![("speedup", Json::Num(1.5))])),
                ],
            ),
            rec(
                2,
                "done",
                vec![
                    ("job", Json::num_u64(1)),
                    ("result", Json::obj(vec![("speedup", Json::Num(9.0))])),
                ],
            ),
        ]
        .join("\n");
        assert_eq!(check_invariants(&diverged).len(), 1);
        // Non-monotone seq.
        let reordered = [
            rec(5, "start", vec![("job", Json::num_u64(1))]),
            rec(4, "start", vec![("job", Json::num_u64(1))]),
        ]
        .join("\n");
        assert_eq!(check_invariants(&reordered).len(), 1);
        // Duplicate submit.
        let dup = [
            rec(
                1,
                "submit",
                vec![("job", Json::num_u64(1)), ("spec", spec())],
            ),
            rec(
                2,
                "submit",
                vec![("job", Json::num_u64(1)), ("spec", spec())],
            ),
        ]
        .join("\n");
        assert_eq!(check_invariants(&dup).len(), 1);
    }
}
