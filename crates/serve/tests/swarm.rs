//! Swarm tests for the sharded serving tier: a 3-shard preexecd cluster
//! under a flood of pipelined submits must produce results byte-identical
//! to a serial run, route artifact traffic through the consistent-hash
//! ring (visible in the `shard` stats section), and degrade — not fail —
//! when a shard dies mid-flood.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_experiments::PipelineConfig;
use preexec_serve::{HashRing, JobSpec, Json, DEFAULT_VNODES};
use preexec_workloads::InputSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
/// Tiny budgets keep a 1000-job flood fast on a small machine; the
/// determinism contract is budget-independent.
const BASE_BUDGET: u64 = 800;

struct Cluster {
    children: Vec<Child>,
    addrs: Vec<String>,
    dirs: Vec<std::path::PathBuf>,
}

impl Cluster {
    /// Boots `SHARDS` daemons that all know the full ring membership.
    /// Ports are pre-claimed with throwaway listeners so every daemon
    /// can be told its peers' addresses up front.
    fn spawn(tag: &str) -> Cluster {
        let listeners: Vec<TcpListener> = (0..SHARDS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("claim port"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect();
        drop(listeners);
        let peers = addrs.join(",");
        let mut children = Vec::new();
        let mut dirs = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("preexec-swarm-{tag}-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut child = Command::new(env!("CARGO_BIN_EXE_preexecd"))
                .args([
                    "--addr",
                    addr,
                    "--workers",
                    "2",
                    "--queue-cap",
                    "2048",
                    "--no-journal",
                    "--cache-dir",
                    dir.to_str().expect("utf-8 temp dir"),
                    "--shard-id",
                    &i.to_string(),
                    "--shard-peers",
                    &peers,
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawning shard");
            let stdout = child.stdout.take().expect("piped stdout");
            let mut announce = String::new();
            BufReader::new(stdout)
                .read_line(&mut announce)
                .expect("announce");
            assert!(
                announce.starts_with("preexecd listening on "),
                "shard {i}: {announce:?}"
            );
            children.push(child);
            dirs.push(dir);
        }
        Cluster {
            children,
            addrs,
            dirs,
        }
    }

    fn connect(&self, shard: usize) -> Conn {
        let stream = TcpStream::connect(&self.addrs[shard]).expect("connect shard");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn shutdown_survivors(mut self, dead: &[usize]) {
        for i in 0..SHARDS {
            if dead.contains(&i) {
                continue;
            }
            let mut conn = self.connect(i);
            let resp = conn.roundtrip(r#"{"cmd":"shutdown"}"#);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                match self.children[i].try_wait().expect("try_wait") {
                    Some(status) => {
                        assert!(status.success(), "shard {i} exited with {status}");
                        break;
                    }
                    None if Instant::now() > deadline => {
                        panic!("shard {i} did not exit after shutdown")
                    }
                    None => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, request: &str) {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "shard closed the connection");
        Json::parse(line.trim()).expect("response parses")
    }

    fn roundtrip(&mut self, request: &str) -> Json {
        self.send(request);
        self.recv()
    }

    fn ok(&mut self, request: &str) -> Json {
        let resp = self.roundtrip(request);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request `{request}` failed: {}",
            resp.encode()
        );
        resp
    }

    /// Blocks until the daemon reports `done_target` finished jobs and
    /// zero failures.
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

/// Picks `n` (workload, budget) specs whose trace keys land on at least
/// `min_owners` distinct shards of the 3-shard ring — deterministically,
/// by walking budgets, so the test never depends on hash luck.
fn spec_set(n: usize, min_owners: usize) -> Vec<(&'static str, u64)> {
    let ring = HashRing::new(SHARDS, DEFAULT_VNODES);
    let mut specs: Vec<(&'static str, u64)> = Vec::new();
    let mut owners = std::collections::BTreeSet::new();
    for budget in BASE_BUDGET.. {
        for workload in ["vpr.r", "mcf"] {
            if specs.len() >= n && owners.len() >= min_owners {
                return specs;
            }
            let spec = JobSpec::new(
                workload,
                InputSet::Train,
                PipelineConfig::paper_default(budget),
            )
            .expect("spec");
            let owner = ring.owner(spec.trace_key().digest());
            if specs.len() < n {
                specs.push((workload, budget));
                owners.insert(owner);
            } else if !owners.contains(&owner) {
                // Swap in a spec that widens owner coverage.
                specs.pop();
                specs.push((workload, budget));
                owners.insert(owner);
            }
        }
    }
    unreachable!("budget walk always terminates first")
}

/// Specs owned by exactly `owner` on the 3-shard ring.
fn specs_owned_by(owner: usize, n: usize) -> Vec<(&'static str, u64)> {
    let ring = HashRing::new(SHARDS, DEFAULT_VNODES);
    let mut specs = Vec::new();
    for budget in BASE_BUDGET.. {
        for workload in ["vpr.r", "mcf"] {
            let spec = JobSpec::new(
                workload,
                InputSet::Train,
                PipelineConfig::paper_default(budget),
            )
            .expect("spec");
            if ring.owner(spec.trace_key().digest()) == owner {
                specs.push((workload, budget));
                if specs.len() == n {
                    return specs;
                }
            }
        }
    }
    unreachable!()
}

#[test]
fn a_pipelined_flood_across_three_shards_is_byte_identical_to_serial() {
    const FLOOD: usize = 1000;
    let specs = spec_set(6, 2);
    let cluster = Cluster::spawn("flood");

    // Serial reference: each unique spec once, through shard 0. This
    // also seeds the ring — artifacts land on their owning shards.
    let mut serial = cluster.connect(0);
    let mut reference: Vec<String> = Vec::new();
    for (i, &(workload, budget)) in specs.iter().enumerate() {
        let resp = serial.ok(&submit_line(workload, budget, i));
        let job = resp.get("job").and_then(Json::as_u64).expect("job id");
        serial.wait_jobs_done((i + 1) as u64);
        let resp = serial.ok(&format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));
        reference.push(canonical(resp.get("result").expect("result")));
    }

    // The flood: one connection per shard, every submit written before
    // any response is read — 1000 pipelined requests in flight at once.
    let mut conns: Vec<Conn> = (0..SHARDS).map(|i| cluster.connect(i)).collect();
    for i in 0..FLOOD {
        let (workload, budget) = specs[i % specs.len()];
        conns[i % SHARDS].send(&submit_line(workload, budget, i));
    }
    let mut job_of: Vec<(usize, u64)> = Vec::with_capacity(FLOOD);
    for i in 0..FLOOD {
        let resp = conns[i % SHARDS].recv();
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
        job_of.push((
            i % SHARDS,
            resp.get("job").and_then(Json::as_u64).expect("job"),
        ));
    }

    // Drain: shard 0 additionally ran the serial seed jobs.
    for (shard, conn) in conns.iter_mut().enumerate() {
        let flood_jobs = (0..FLOOD).filter(|i| i % SHARDS == shard).count() as u64;
        let seed_jobs = if shard == 0 { specs.len() as u64 } else { 0 };
        conn.wait_jobs_done(flood_jobs + seed_jobs);
    }

    // Every flood result is byte-identical to the serial reference for
    // its spec (modulo cache_hit/stage_us, which legitimately differ).
    // Result fetches are themselves pipelined, in bounded chunks.
    let indexed: Vec<(usize, usize, u64)> = job_of
        .iter()
        .enumerate()
        .map(|(global, &(shard, job))| (global, shard, job))
        .collect();
    for chunk in indexed.chunks(100) {
        for &(_, shard, job) in chunk {
            conns[shard].send(&format!(r#"{{"cmd":"result","job":{job},"id":{job}}}"#));
        }
        for &(global, shard, job) in chunk {
            let resp = conns[shard].recv();
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(job));
            assert_eq!(
                resp.get("state").and_then(Json::as_str),
                Some("done"),
                "{}",
                resp.encode()
            );
            let want = &reference[global % specs.len()];
            let got = canonical(resp.get("result").expect("result"));
            assert_eq!(&got, want, "flood submit {global} diverged from serial");
        }
    }

    // Peer traffic is visible: the ring spans >= 2 owners, so at least
    // one artifact was fetched from or written to a peer.
    let mut peer_traffic = 0;
    for conn in &mut conns {
        let stats = conn.ok(r#"{"cmd":"stats"}"#);
        let shard = stats.get("shard").cloned().expect("shard stats section");
        let grab = |k: &str| shard.get(k).and_then(Json::as_u64).unwrap_or(0);
        peer_traffic += grab("peer_hits") + grab("peer_puts");
        assert_eq!(
            shard.get("shards").and_then(Json::as_u64),
            Some(SHARDS as u64),
            "{}",
            stats.encode()
        );
    }
    assert!(peer_traffic >= 1, "no peer cache traffic across the ring");

    drop(serial);
    drop(conns);
    cluster.shutdown_survivors(&[]);
}

#[test]
fn killing_a_shard_mid_flood_degrades_to_local_compute_without_errors() {
    const PER_SURVIVOR: usize = 30;
    // Keys owned by shard 2 — the shard we will kill.
    let doomed_specs = specs_owned_by(2, 2);
    let mut cluster = Cluster::spawn("kill");

    // Warm the ring through shard 0: computing these pushes their
    // artifacts to owner shard 2 (peer_puts), and gives us the serial
    // reference bytes.
    let mut conn0 = cluster.connect(0);
    let mut reference = Vec::new();
    for (i, &(workload, budget)) in doomed_specs.iter().enumerate() {
        let resp = conn0.ok(&submit_line(workload, budget, i));
        let job = resp.get("job").and_then(Json::as_u64).expect("job");
        conn0.wait_jobs_done((i + 1) as u64);
        let resp = conn0.ok(&format!(r#"{{"cmd":"result","job":{job}}}"#));
        reference.push(canonical(resp.get("result").expect("result")));
    }
    let stats = conn0.ok(r#"{"cmd":"stats"}"#);
    assert!(
        stats
            .get("shard")
            .and_then(|s| s.get("peer_puts"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "warmup never wrote to the doomed owner: {}",
        stats.encode()
    );

    // Kill the owner of every doomed key, then flood the survivors with
    // exactly those keys: every lookup now has a dead peer in its path.
    cluster.children[2].kill().expect("kill shard 2");
    let mut conns = vec![cluster.connect(0), cluster.connect(1)];
    for (c, conn) in conns.iter_mut().enumerate() {
        for i in 0..PER_SURVIVOR {
            let (workload, budget) = doomed_specs[i % doomed_specs.len()];
            conn.send(&submit_line(workload, budget, c * PER_SURVIVOR + i));
        }
    }
    // No client-visible failure is allowed: every ack is ok:true (the
    // queue caps are sized so the flood cannot even trip `overloaded`).
    let mut jobs: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
    for (c, conn) in conns.iter_mut().enumerate() {
        for _ in 0..PER_SURVIVOR {
            let resp = conn.recv();
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "shard death leaked to a client: {}",
                resp.encode()
            );
            jobs[c].push(resp.get("job").and_then(Json::as_u64).expect("job"));
        }
    }

    let seed = doomed_specs.len() as u64;
    conns[0].wait_jobs_done(seed + PER_SURVIVOR as u64);
    conns[1].wait_jobs_done(PER_SURVIVOR as u64);

    // Degraded results are still byte-identical to the pre-kill serial
    // reference — recomputed or served from the survivor's local cache.
    let mut peer_errors = 0;
    for (c, conn) in conns.iter_mut().enumerate() {
        for (i, &job) in jobs[c].iter().enumerate() {
            let resp = conn.ok(&format!(r#"{{"cmd":"result","job":{job}}}"#));
            assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));
            let got = canonical(resp.get("result").expect("result"));
            assert_eq!(
                got,
                reference[i % doomed_specs.len()],
                "survivor {c} diverged after shard death"
            );
        }
        let stats = conn.ok(r#"{"cmd":"stats"}"#);
        peer_errors += stats
            .get("shard")
            .and_then(|s| s.get("peer_errors"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }
    assert!(
        peer_errors >= 1,
        "survivors never even noticed the dead shard — ownership routing is off"
    );

    drop(conn0);
    drop(conns);
    cluster.shutdown_survivors(&[2]);
}
