//! Integration tests for the epoll serving tier: request pipelining
//! with `id` echo, partial-line reassembly across writes, the
//! slow-loris idle sweep, and the `--threaded` fallback front end.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_serve::Json;
use std::io::{BufRead, BufReader, Read, Write};
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
        static SPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let cache_dir =
            std::env::temp_dir().join(format!("preexec-reactor-test-{}-{n}", std::process::id()));
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
        let mut child = Command::new(env!("CARGO_BIN_EXE_preexecd"))
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
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "preexecd exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("preexecd did not exit within 60s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
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
    // reactor must queue every answer and preserve order.
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
    // kernel batching decides how many lines share a readiness event).
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

    drop(writer);
    drop(reader);
    daemon.shutdown_and_wait();
}

#[test]
fn a_request_split_across_many_writes_reassembles() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let request = b"{\"cmd\":\"stats\",\"id\":7}\n";
    // Dribble the line a few bytes per write; the reactor has to hold
    // the partial line across readiness events.
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

    // The slow loris: half a request line, then silence. The idle sweep
    // closes it once the timeout passes.
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
fn threaded_fallback_serves_the_same_protocol() {
    let daemon = Daemon::spawn(&["--threaded"]);
    let stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"{\"cmd\":\"stats\",\"id\":\"t\"}\n")
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    let resp = Json::parse(line.trim()).expect("parses");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("t"), "{line}");
    drop(writer);
    drop(reader);
    daemon.shutdown_and_wait();
}
