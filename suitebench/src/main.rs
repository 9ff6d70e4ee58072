//! `benchmark` — run one workload of the suite benchmark, or compare two
//! result sets.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--input train|alt] [--out FILE]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! The last line on stdout is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of the
//! layer pass. `--out` appends the same record, tagged with workload,
//! input and seed, to a result-set file for `--compare`. Exit codes: 0
//! success, 1 a failed call or check (or, for `--compare`, a metric out
//! of bounds), 2 usage.

use preexec_serve::Json;
use preexec_suitebench::compare;
use preexec_suitebench::metrics::{metrics_json, result_line, Metric, Spec};
use preexec_suitebench::run::{self, Config, Report};
use preexec_suitebench::stats;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--input train|alt] [--out FILE]\n       benchmark --compare A B";

struct Args {
    cfg: Config,
    out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut alt = false;
    let (mut seed, mut seconds, mut trace, mut out) = (0u64, None, false, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("bad --seconds".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--input" => {
                alt = match value()?.as_str() {
                    "train" => false,
                    "alt" => true,
                    _ => return Err("--input takes train or alt".into()),
                }
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = run::workload(&name, alt).ok_or_else(|| {
        let names: Vec<&str> = run::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let mut cfg = Config::new(w);
    cfg.seed = seed;
    cfg.layers = trace;
    if let Some(s) = seconds {
        cfg.seconds = s;
    }
    Ok(Args { cfg, out })
}

fn print_report(r: &Report) {
    let w = r.workload;
    println!(
        "workload {} (input {}, budget {}): {} rounds, kernels in a seeded order each round",
        w.name,
        w.input.name(),
        r.budget,
        r.rounds
    );
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>5}",
        "kernel", "best_ms", "median_ms", "q1_ms", "q3_ms", "runs"
    );
    for k in &r.kernels {
        let (q1, q3) = stats::quartiles(&k.times_ms);
        println!(
            "{:<8} {:>9.3} {:>9.3} {q1:>9.3} {q3:>9.3} {:>5}",
            k.name,
            stats::best(&k.times_ms),
            stats::median(&k.times_ms),
            k.times_ms.len()
        );
    }
    for k in &r.kernels {
        println!("ref {}", run::reference_line(w.input, r.budget, k));
    }
    for x in &r.end_to_end {
        println!("{:<18} {:>14.4} {}", x.name, x.value, x.unit);
    }
    if !r.layer_rows.is_empty() {
        println!(
            "{:<8} {:>8} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} | {:>8} {:>7}",
            "kernel",
            "run_ms",
            "trace",
            "ckpt",
            "push",
            "extract",
            "insert",
            "reexec",
            "select",
            "base",
            "assisted",
            "sum",
            "unattr%"
        );
        for l in &r.layer_rows {
            let sum = l.layer_sum_ms();
            println!(
                "{:<8} {:>8.2} | {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2} | {:>8.2} {:>7.1}",
                l.kernel,
                l.run_ms,
                l.trace_ms,
                l.checkpoint_trace_ms,
                l.push_ms,
                l.extract_ms,
                l.insert_ms,
                l.reexec_ms,
                l.select_ms,
                l.base_sim_ms,
                l.assisted_sim_ms,
                sum,
                100.0 * (l.run_ms - sum) / l.run_ms
            );
        }
        for x in &r.per_layer {
            println!("{:<28} {:>16.4} {}", x.name, x.value, x.unit);
        }
        let pct = r
            .per_layer
            .iter()
            .find(|x| x.name == "experiments.unattributed_pct")
            .map_or(f64::NAN, |x| x.value);
        let verdict = if pct.abs() <= 5.0 {
            "closes within 5%"
        } else {
            "FLAG: misses the run by more than 5%"
        };
        println!("breakdown: {pct:+.2}% of the untraced run unattributed; {verdict}");
    }
    for f in &r.failures {
        println!("FAILED {f}");
    }
}

fn append_record(path: &str, seed: u64, r: &Report, metrics: &[Metric]) -> Result<(), String> {
    let record = Json::obj(vec![
        ("workload", Json::str(r.workload.name)),
        ("input", Json::str(r.workload.input.name())),
        ("seed", Json::num_u64(seed)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::num_u64(r.attempted)),
        ("failed", Json::num_u64(r.failures.len() as u64)),
        ("metrics", metrics_json(metrics)),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{}", record.encode()).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_set(&t))
    };
    match (Spec::built_in(), load(a), load(b)) {
        (Ok(spec), Ok(a), Ok(b)) => {
            let (table, ok) = compare::compare(&spec, &a, &b);
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, a, b] = &argv[..] {
        if flag == "--compare" {
            return run_compare(a, b);
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    print_report(&report);
    let metrics = if args.cfg.layers {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, args.cfg.seed, &report, metrics) {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "{}",
        result_line(
            report.correct(),
            report.attempted,
            report.failures.len() as u64,
            metrics
        )
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
