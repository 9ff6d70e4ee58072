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
  --workers N        worker threads (default: one per core); each job runs
                     on its worker's thread, plus one helper thread for
                     part of its simulations, cache hit or not
  --queue-cap N      bounded job-queue capacity (default 256): a submit the
                     queue cannot take now is shed as `overloaded` with a
                     retry_after_ms hint; a batch of more than N jobs is
                     `queue_full`
  --cache-dir PATH   artifact-cache directory (default preexec-cache)
  --cache-max N      max cache entries before eviction (default 256)
  --no-journal       disable the durable job journal (WAL + crash recovery);
                     with it on, the journal is compacted at every start
                     and every clean shutdown
  --idle-timeout-ms N  close a connection stalled mid-request-line after
                     N ms (slow-loris guard; default 10000)
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
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7099".to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
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
            "--queue-cap" => {
                let v = value("--queue-cap")?;
                cfg.queue_cap = v.parse().map_err(|_| format!("bad queue cap `{v}`"))?;
            }
            "--cache-dir" => cfg.cache_dir = value("--cache-dir")?.into(),
            "--cache-max" => {
                let v = value("--cache-max")?;
                cfg.cache_max_entries = v.parse().map_err(|_| format!("bad cache size `{v}`"))?;
            }
            "--no-journal" => cfg.journal = false,
            "--idle-timeout-ms" => {
                let v = value("--idle-timeout-ms")?;
                cfg.idle_timeout_ms = v.parse().map_err(|_| format!("bad idle timeout `{v}`"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
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
    // before the first connection. A parent may close the pipe once it
    // has the address, so a failed write is ignored: `println!` would
    // panic on it.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "preexecd listening on {}", server.local_addr());
    let (replayed, restored) = server.recovery_summary();
    if replayed > 0 || restored > 0 {
        let _ = writeln!(
            out,
            "preexecd recovered from journal: {replayed} pending job(s) re-enqueued, \
             {restored} finished result(s) restored"
        );
    }
    let _ = out.flush();
    drop(out);
    server.run();
}
