//! Integration tests for the daemon's connection front end: request
//! pipelining with `id` echo, a 1 000-submit pipelined flood whose
//! results are byte-identical to a serial run, partial-line reassembly
//! across writes, the slow-loris timeout and the request-line limit.
//! Three more pin guards of the thread-per-connection loop: pipelined
//! bursts do not wait on delayed ACKs, shutdown is bounded when a client
//! stops reading, and a failed `accept()` does not end the daemon.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_serve::Json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: String,
    cache_dir: std::path::PathBuf,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        Daemon::spawn_via(Command::new(env!("CARGO_BIN_EXE_preexecd")), extra_args)
    }

    /// Spawns the daemon through `cmd` — `preexecd` itself, or a command
    /// that execs it — adding the common arguments and `extra_args`.
    fn spawn_via(mut cmd: Command, extra_args: &[&str]) -> Daemon {
        static SPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let cache_dir =
            std::env::temp_dir().join(format!("preexec-front-end-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut args = vec![
            "--port",
            "0",
            "--workers",
            "2",
            "--cache-dir",
            cache_dir.to_str().expect("utf-8 temp dir"),
        ];
        args.extend_from_slice(extra_args);
        let mut child = cmd
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawning preexecd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("reading the announce line");
        let addr = first_line
            .trim()
            .strip_prefix("preexecd listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {first_line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            cache_dir,
        }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connecting to preexecd")
    }

    fn shutdown_and_wait(mut self) {
        let mut conn = self.connect();
        conn.write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .expect("shutdown ack");
        self.wait_for_exit(Duration::from_secs(60));
    }

    /// Waits up to `limit` for the daemon to exit, which it must do with
    /// status 0.
    fn wait_for_exit(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "preexecd exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("preexecd did not exit within {limit:?} of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

#[test]
fn pipelined_requests_answer_in_order_with_ids_echoed() {
    let daemon = Daemon::spawn(&[]);
    let stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Write a burst of requests without reading a single response: the
    // daemon must answer every one and preserve order.
    const BURST: usize = 50;
    let mut batch = String::new();
    for i in 0..BURST {
        batch.push_str(&format!("{{\"cmd\":\"stats\",\"id\":\"req-{i}\"}}\n"));
    }
    writer.write_all(batch.as_bytes()).expect("write burst");

    for i in 0..BURST {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let resp = Json::parse(line.trim()).expect("response parses");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        assert_eq!(
            resp.get("id").and_then(Json::as_str),
            Some(format!("req-{i}").as_str()),
            "responses out of order: {line}"
        );
    }

    // The burst shows up in the pipelined-depth histogram (>= 1 sample;
    // kernel batching decides how many lines share a read).
    writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .expect("metrics");
    let mut line = String::new();
    reader.read_line(&mut line).expect("metrics line");
    let metrics = Json::parse(line.trim()).expect("metrics parses");
    let depth_count = metrics
        .get("histograms")
        .and_then(|h| h.get("server.pipelined_depth"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .expect("server.pipelined_depth histogram");
    assert!(depth_count >= 1, "no pipelined-depth samples: {line}");

    // A line that is not UTF-8 decodes lossily and is answered as bad
    // JSON on a connection that stays open.
    writer.write_all(b"\xff\xfe\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("response");
    let resp = Json::parse(line.trim()).expect("parses");
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("bad_json"),
        "{line}"
    );
    writer.write_all(b"{\"cmd\":\"stats\"}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("response");
    let resp = Json::parse(line.trim()).expect("parses");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");

    drop(writer);
    drop(reader);
    daemon.shutdown_and_wait();
}

/// One client connection: requests go out whole, responses come back a
/// line at a time.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(daemon: &Daemon) -> Conn {
        let writer = daemon.connect();
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Conn { writer, reader }
    }

    fn send(&mut self, request: &str) {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "daemon closed the connection");
        Json::parse(line.trim()).expect("response parses")
    }

    fn ok(&mut self, request: &str) -> Json {
        self.send(request);
        let resp = self.recv();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request `{request}` failed: {}",
            resp.encode()
        );
        resp
    }

    /// Blocks until the daemon reports `done_target` finished jobs and
    /// no failed or cancelled ones.
    fn wait_jobs_done(&mut self, done_target: u64) {
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            let stats = self.ok(r#"{"cmd":"stats"}"#);
            let jobs = stats.get("jobs").cloned().expect("jobs section");
            let grab = |k: &str| jobs.get(k).and_then(Json::as_u64).unwrap_or(0);
            assert_eq!(grab("failed"), 0, "failed jobs: {}", stats.encode());
            assert_eq!(grab("cancelled"), 0, "cancelled jobs: {}", stats.encode());
            if grab("done") >= done_target {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "stuck at {} of {done_target} done: {}",
                grab("done"),
                stats.encode()
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}

/// A submit line for (workload, budget) with a pipelining `id`.
fn submit_line(workload: &str, budget: u64, id: usize) -> String {
    format!(r#"{{"cmd":"submit","workload":"{workload}","budget":{budget},"id":{id}}}"#)
}

/// The byte-comparable core of a served result: everything except the
/// fields that legitimately vary between a cold and a warm run.
fn canonical(result: &Json) -> String {
    match result {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "cache_hit" && k != "stage_us")
                .cloned()
                .collect(),
        )
        .encode(),
        other => other.encode(),
    }
}

#[test]
fn a_pipelined_flood_is_byte_identical_to_serial() {
    const FLOOD: usize = 1000;
    const CONNS: usize = 3;
    // Tiny budgets keep a 1000-job flood fast on a small machine; the
    // determinism contract is budget-independent.
    let specs: Vec<(&str, u64)> = (800..803)
        .flat_map(|budget| [("vpr.r", budget), ("mcf", budget)])
        .collect();
    let daemon = Daemon::spawn(&["--queue-cap", "2048", "--no-journal"]);

    // Serial reference: each unique spec once, run to completion before
    // the next is submitted.
    let mut serial = Conn::open(&daemon);
    let mut reference: Vec<String> = Vec::new();
    for (i, &(workload, budget)) in specs.iter().enumerate() {
        let resp = serial.ok(&submit_line(workload, budget, i));
        let job = resp.get("job").and_then(Json::as_u64).expect("job id");
        serial.wait_jobs_done((i + 1) as u64);
        let resp = serial.ok(&format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));
        reference.push(canonical(resp.get("result").expect("result")));
    }

    // The flood: every submit written before any response is read —
    // 1000 pipelined requests in flight across the connections.
    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&daemon)).collect();
    for i in 0..FLOOD {
        let (workload, budget) = specs[i % specs.len()];
        conns[i % CONNS].send(&submit_line(workload, budget, i));
    }
    let mut jobs: Vec<u64> = Vec::with_capacity(FLOOD);
    for i in 0..FLOOD {
        let resp = conns[i % CONNS].recv();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "submit {i} failed: {}",
            resp.encode()
        );
        assert_eq!(
            resp.get("id").and_then(Json::as_u64),
            Some(i as u64),
            "submit acks out of order: {}",
            resp.encode()
        );
        jobs.push(resp.get("job").and_then(Json::as_u64).expect("job"));
    }
    serial.wait_jobs_done((FLOOD + specs.len()) as u64);

    // Every flood result is byte-identical to the serial reference for
    // its spec (modulo cache_hit/stage_us). Result fetches are
    // themselves pipelined, in bounded chunks.
    let indexed: Vec<(usize, u64)> = jobs.into_iter().enumerate().collect();
    for chunk in indexed.chunks(100) {
        for &(i, job) in chunk {
            conns[i % CONNS].send(&format!(r#"{{"cmd":"result","job":{job},"id":{job}}}"#));
        }
        for &(i, job) in chunk {
            let resp = conns[i % CONNS].recv();
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(job));
            assert_eq!(
                resp.get("state").and_then(Json::as_str),
                Some("done"),
                "{}",
                resp.encode()
            );
            let got = canonical(resp.get("result").expect("result"));
            assert_eq!(
                got,
                reference[i % specs.len()],
                "flood submit {i} diverged from serial"
            );
        }
    }

    drop(serial);
    drop(conns);
    daemon.shutdown_and_wait();
}

#[test]
fn a_request_split_across_many_writes_reassembles() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let request = b"{\"cmd\":\"stats\",\"id\":7}\n";
    // Dribble the line a few bytes per write; the daemon has to hold
    // the partial line across reads.
    for chunk in request.chunks(5) {
        stream.write_all(chunk).expect("chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("response");
    let resp = Json::parse(line.trim()).expect("parses");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7), "{line}");
    daemon.shutdown_and_wait();
}

#[test]
fn slow_loris_is_cut_off_but_a_quiet_idle_connection_survives() {
    let daemon = Daemon::spawn(&["--idle-timeout-ms", "250"]);

    // The slow loris: half a request line, then silence. The idle
    // timeout closes it.
    let mut loris = daemon.connect();
    loris.write_all(b"{\"cmd\":\"sta").expect("partial write");
    loris.flush().expect("flush");

    // The honest idler: a connection with *no* partial line pending is
    // not a loris and must stay open arbitrarily long.
    let idler = daemon.connect();

    let mut buf = Vec::new();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let n = loris.read_to_end(&mut buf).expect("loris read");
    assert_eq!(
        n,
        0,
        "loris expected EOF, got {:?}",
        String::from_utf8_lossy(&buf)
    );

    // Well past the timeout, the idler still gets answers.
    let mut reader = BufReader::new(idler.try_clone().expect("clone"));
    let mut idler_w = idler;
    idler_w
        .write_all(b"{\"cmd\":\"stats\"}\n")
        .expect("idler write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("idler response");
    let resp = Json::parse(line.trim()).expect("parses");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");

    drop(idler_w);
    drop(reader);
    daemon.shutdown_and_wait();
}

#[test]
fn an_over_long_line_gets_one_line_too_long_response_then_eof() {
    // The production line limit (32 MiB); one byte more, no newline.
    let request = vec![b'x'; preexec_serve::conn::MAX_LINE + 1];
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    // The daemon reads every byte before it answers, so neither side
    // waits on the other; the timeouts only turn a hang into a failure.
    let timeout = Some(Duration::from_secs(60));
    stream.set_write_timeout(timeout).expect("write timeout");
    stream.set_read_timeout(timeout).expect("read timeout");
    stream.write_all(&request).expect("writing the line");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("reading to EOF");
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 1, "{response:?}");
    let resp = Json::parse(lines[0]).expect("parses");
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("line_too_long"),
        "{response}"
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    daemon.shutdown_and_wait();
}

#[test]
fn windows_of_pipelined_requests_do_not_wait_on_delayed_acks() {
    // Each window's 100 responses (84 bytes each) overflow the daemon's
    // 8 KiB write buffer, so they leave in two writes. With Nagle's
    // algorithm on, the second write waits for the client's delayed ACK,
    // about 40 ms: over 4 s across the 100 windows.
    const WINDOWS: usize = 100;
    const WINDOW: usize = 100;
    let daemon = Daemon::spawn(&["--no-journal"]);
    let mut conn = Conn::open(&daemon);
    let window = "{\"cmd\":\"status\",\"job\":999999}\n".repeat(WINDOW);
    let start = Instant::now();
    for _ in 0..WINDOWS {
        conn.writer.write_all(window.as_bytes()).expect("window");
        for _ in 0..WINDOW {
            let resp = conn.recv();
            assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("unknown_job"),
                "{}",
                resp.encode()
            );
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "{WINDOWS} windows of {WINDOW} requests took {elapsed:?}"
    );
    drop(conn);
    daemon.shutdown_and_wait();
}

#[test]
fn shutdown_is_bounded_when_a_client_stops_reading() {
    let mut daemon = Daemon::spawn(&["--no-journal"]);
    // The stalled client pipelines `metrics` requests for 3 s and never
    // reads a response: its handler ends up blocked writing to it.
    let mut stalled = daemon.connect();
    stalled
        .set_write_timeout(Some(Duration::from_millis(100)))
        .expect("write timeout");
    let burst = "{\"cmd\":\"metrics\"}\n".repeat(64);
    let bytes = burst.as_bytes();
    let mut at = 0;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(3) {
        match stalled.write(&bytes[at..]) {
            Ok(n) => at = (at + n) % bytes.len(),
            // The daemon stopped reading: its buffers are full.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("stalled client write: {e}"),
        }
    }

    // Another client's shutdown is acked, and the daemon exits although
    // the stalled client still holds its connection open.
    let mut conn = Conn::open(&daemon);
    conn.ok(r#"{"cmd":"shutdown"}"#);
    daemon.wait_for_exit(Duration::from_secs(30));
    drop(stalled);
}

#[test]
fn a_daemon_out_of_file_descriptors_keeps_serving() {
    // 48 descriptors hold fewer than 48 connections, so accepting 80
    // fails with EMFILE until some of them close.
    let mut sh = Command::new("sh");
    sh.args([
        "-c",
        r#"ulimit -n 48 && exec "$0" "$@""#,
        env!("CARGO_BIN_EXE_preexecd"),
    ]);
    let daemon = Daemon::spawn_via(sh, &[]);
    const CONNS: u64 = 80;
    let conns: Vec<TcpStream> = (0..CONNS).map(|_| daemon.connect()).collect();
    // The kernel completes all 80 handshakes; give the daemon time to
    // accept until it runs out of descriptors while all are open.
    std::thread::sleep(Duration::from_millis(500));
    drop(conns);

    let mut conn = Conn::open(&daemon);
    let stats = conn.ok(r#"{"cmd":"stats"}"#);
    let total = stats
        .get("connections")
        .and_then(|c| c.get("total"))
        .and_then(Json::as_u64)
        .expect("connections.total");
    // Every connection was accepted in the end, this one after them.
    assert!(total > CONNS, "{}", stats.encode());
    drop(conn);
    daemon.shutdown_and_wait();
}
