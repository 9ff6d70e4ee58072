//! `preexecd` — the batch p-thread analysis daemon.
//!
//! Binds a TCP listener, prints `preexecd listening on ADDR` (so
//! scripts and tests binding port 0 can discover the port), and serves
//! the newline-delimited JSON protocol until a `shutdown` command
//! drains the job queue.

use preexec_serve::{Server, ServerConfig};
use std::io::Write;

const USAGE: &str = "\
usage: preexecd [options]

options:
  --addr HOST:PORT   listen address (default 127.0.0.1:7099; port 0 = ephemeral)
  --port N           shorthand for --addr 127.0.0.1:N
  --workers N        worker threads (default: one per core)
  --job-threads N    intra-job threads per worker for selection (score/solve)
                     (default: cores/workers; results are identical for any N)
  --queue-cap N      bounded job-queue capacity (default 256)
  --cache-dir PATH   artifact-cache directory (default preexec-cache)
  --cache-max N      max cache entries before eviction (default 256)
  --high-water N     admission high-water mark in outstanding jobs
                     (default 0: derive 3/4*queue-cap + workers)
  --no-journal       disable the durable job journal (WAL + crash recovery)
  --wal-compact      compact the journal at startup (checkpoint + truncate)
  --threaded         thread-per-connection front end instead of the epoll
                     reactor (the reactor is the default on Linux)
  --idle-timeout-ms N  close a connection stalled mid-request-line after
                     N ms (slow-loris guard; default 10000)
  --shard-id N       this daemon's index in the shard ring (default 0)
  --shard-peers LIST comma-separated HOST:PORT of *all* shards in ring
                     order, including this one; enables consistent-hash
                     cache sharding when more than one is given
  --help             print this help

protocol: one JSON object per line, e.g.
  {\"cmd\":\"submit\",\"workload\":\"vpr.r\",\"budget\":120000,\"policy\":{\"deadline_ms\":60000}}
  {\"cmd\":\"submit_batch\",\"jobs\":[{\"workload\":\"mcf\",\"budget\":120000}]}
  {\"cmd\":\"status\",\"job\":1}   {\"cmd\":\"result\",\"job\":1}
  {\"cmd\":\"cancel\",\"job\":1}   {\"cmd\":\"stats\"}
  {\"cmd\":\"metrics\"}           {\"cmd\":\"shutdown\"}
requests may carry an \"id\"; it is echoed on the response, so clients
may pipeline many requests per connection before reading any response.
";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig { addr: "127.0.0.1:7099".to_string(), ..ServerConfig::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--port" => {
                let p = value("--port")?;
                p.parse::<u16>().map_err(|_| format!("bad port `{p}`"))?;
                cfg.addr = format!("127.0.0.1:{p}");
            }
            "--workers" => {
                let v = value("--workers")?;
                cfg.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--job-threads" => {
                let v = value("--job-threads")?;
                cfg.job_threads =
                    v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--queue-cap" => {
                let v = value("--queue-cap")?;
                cfg.queue_cap = v.parse().map_err(|_| format!("bad queue cap `{v}`"))?;
            }
            "--cache-dir" => cfg.cache_dir = value("--cache-dir")?.into(),
            "--cache-max" => {
                let v = value("--cache-max")?;
                cfg.cache_max_entries =
                    v.parse().map_err(|_| format!("bad cache size `{v}`"))?;
            }
            "--high-water" => {
                let v = value("--high-water")?;
                cfg.high_water =
                    v.parse().map_err(|_| format!("bad high-water mark `{v}`"))?;
            }
            "--no-journal" => cfg.journal = false,
            "--wal-compact" => cfg.wal_compact = true,
            "--threaded" => cfg.threaded = true,
            "--idle-timeout-ms" => {
                let v = value("--idle-timeout-ms")?;
                cfg.idle_timeout_ms =
                    v.parse().map_err(|_| format!("bad idle timeout `{v}`"))?;
            }
            "--shard-id" => {
                let v = value("--shard-id")?;
                cfg.shard_id = v.parse().map_err(|_| format!("bad shard id `{v}`"))?;
            }
            "--shard-peers" => {
                let v = value("--shard-peers")?;
                cfg.shard_peers =
                    v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !cfg.shard_peers.is_empty() && cfg.shard_id >= cfg.shard_peers.len() {
        return Err(format!(
            "--shard-id {} is out of range for {} shard peer(s)",
            cfg.shard_id,
            cfg.shard_peers.len()
        ));
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("preexecd: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("preexecd: binding {}: {e}", cfg.addr);
            std::process::exit(3);
        }
    };
    // Flush so a parent process polling our stdout sees the address
    // before the first connection.
    println!("preexecd listening on {}", server.local_addr());
    let (replayed, restored) = server.recovery_summary();
    if replayed > 0 || restored > 0 {
        println!(
            "preexecd recovered from journal: {replayed} pending job(s) re-enqueued, \
             {restored} finished result(s) restored"
        );
    }
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("preexecd: serving: {e}");
        std::process::exit(4);
    }
}
