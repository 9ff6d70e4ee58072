//! `--compare A B`: two result sets, metric by metric, against the bounds
//! in `BENCHMARK.json`.
//!
//! A result set is a file of JSON lines as `--out` appends them, one per
//! run: `{"workload":..,"input":..,"seed":..,"correct":..,"attempted":..,
//! "failed":..,"metrics":{..}}`. Runs are grouped by workload and input;
//! for each end-to-end metric B's median is compared with A's. Metrics in
//! [`EXACT`] must be exactly equal in every run of both sets.

use crate::metrics::{MetricSpec, Spec, EXACT};
use crate::stats;
use preexec_serve::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values of one set, per `(workload, input)`, per metric name.
pub type ResultSet = BTreeMap<(String, String), BTreeMap<String, Vec<f64>>>;

/// Parses a result-set file.
///
/// # Errors
///
/// Names the first line that is not a result record.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let key = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(k))
        };
        let group = set.entry((key("workload")?, key("input")?)).or_default();
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(bad("metrics"));
        };
        for (name, v) in metrics {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(name))?;
            group.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// How one metric of one workload compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better). Zero for exact metrics that match.
    pub worse: f64,
    /// Within the bound (exact metrics: all values equal).
    pub ok: bool,
    /// The larger of the two sets' spreads exceeds the bound, so the
    /// comparison cannot resolve a change of that size.
    pub unresolved: bool,
}

/// Compares one metric's values in set A (baseline) and set B.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    if EXACT.contains(&spec.name.as_str()) {
        let first = a.first().or(b.first()).copied().unwrap_or(f64::NAN);
        let ok = !a.is_empty()
            && !b.is_empty()
            && a.iter().chain(b).all(|x| x.to_bits() == first.to_bits());
        let worse = if ok { 0.0 } else { f64::NAN };
        return Verdict {
            worse,
            ok,
            unresolved: false,
        };
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if spec.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let bound = spec.bound.unwrap_or(0.0);
    Verdict {
        worse,
        ok: worse <= bound,
        unresolved: stats::spread(a).max(stats::spread(b)) > bound,
    }
}

/// Renders the comparison, one row per workload, and whether every
/// metric stayed within its bound.
pub fn compare(spec: &Spec, a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let names: Vec<&str> = spec.end_to_end.iter().map(|x| x.name.as_str()).collect();
    let _ = writeln!(
        out,
        "{:<22} {}",
        "workload/input",
        names.iter().map(|n| format!("{n:>17}")).collect::<String>()
    );
    let keys: Vec<&(String, String)> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    for key in keys {
        let label = format!("{}/{}", key.0, key.1);
        let (Some(ga), Some(gb)) = (a.get(key), b.get(key)) else {
            let _ = writeln!(out, "{label:<22} present in only one set");
            all_ok = false;
            continue;
        };
        let mut row = format!("{label:<22} ");
        for ms in &spec.end_to_end {
            let (va, vb) = (ga.get(&ms.name), gb.get(&ms.name));
            let cell = match (va, vb) {
                (None, None) => "-".to_string(),
                (Some(va), Some(vb)) => {
                    let v = verdict(ms, va, vb);
                    all_ok &= v.ok;
                    let mark = if !v.ok {
                        " FAIL"
                    } else if v.unresolved {
                        " ?"
                    } else {
                        ""
                    };
                    if EXACT.contains(&ms.name.as_str()) {
                        format!("{}{mark}", if v.ok { "=" } else { "differs" })
                    } else {
                        format!("{:+.2}%{mark}", 100.0 * v.worse)
                    }
                }
                _ => {
                    all_ok = false;
                    "missing FAIL".to_string()
                }
            };
            let _ = write!(row, "{cell:>17}");
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(
        out,
        "cells: how much worse B's median is than A's (exact metrics: `=` when equal); \
         `?` = spread wider than the bound (unresolved); FAIL = out of bounds"
    );
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn lower_is_better_bound() {
        let s = spec("run_ms", false, 0.08);
        assert!(verdict(&s, &[100.0, 101.0, 99.0], &[107.0, 107.5, 106.0]).ok);
        let v = verdict(&s, &[100.0, 101.0, 99.0], &[109.0, 110.0, 108.0]);
        assert!(!v.ok);
        assert!((v.worse - 0.09).abs() < 1e-12);
        // Faster is never out of bounds.
        assert!(verdict(&s, &[100.0], &[50.0]).ok);
    }

    #[test]
    fn higher_is_better_bound() {
        let s = spec("throughput", true, 0.05);
        assert!(verdict(&s, &[100.0], &[96.0]).ok);
        assert!(!verdict(&s, &[100.0], &[94.0]).ok);
        assert!(verdict(&s, &[100.0], &[140.0]).ok);
    }

    #[test]
    fn exact_metrics_need_bitwise_equality() {
        let s = spec("speedup", true, 0.001);
        assert!(verdict(&s, &[1.25, 1.25], &[1.25]).ok);
        // Even a better value is a model change, not a pass.
        assert!(!verdict(&s, &[1.25], &[1.2500001]).ok);
        assert!(!verdict(&s, &[1.25], &[]).ok);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let s = spec("run_ms", false, 0.08);
        let v = verdict(&s, &[80.0, 100.0, 120.0, 90.0, 110.0], &[100.0; 5]);
        assert!(v.ok && v.unresolved);
    }

    #[test]
    fn sets_compare_row_by_row() {
        let line = |w: &str, run: f64, sp: f64| {
            format!(
                r#"{{"workload":"{w}","input":"train","seed":1,"correct":true,"attempted":1,"failed":0,"metrics":{{"run_ms":{{"value":{run},"unit":"ms"}},"speedup":{{"value":{sp},"unit":"x"}}}}}}"#
            )
        };
        let spec = Spec {
            workloads: vec!["full-train".into(), "full-test".into()],
            end_to_end: vec![spec("run_ms", false, 0.08), spec("speedup", true, 0.001)],
            per_layer: vec![],
        };
        let a =
            parse_set(&[line("full-train", 100.0, 1.5), line("full-test", 50.0, 1.1)].join("\n"))
                .unwrap();
        let same =
            parse_set(&[line("full-train", 104.0, 1.5), line("full-test", 49.0, 1.1)].join("\n"))
                .unwrap();
        let (table, ok) = compare(&spec, &a, &same);
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 4);
        let slower =
            parse_set(&[line("full-train", 120.0, 1.5), line("full-test", 50.0, 1.1)].join("\n"))
                .unwrap();
        let (table, ok) = compare(&spec, &a, &slower);
        assert!(!ok);
        assert!(table
            .lines()
            .any(|l| l.starts_with("full-train/train") && l.contains("FAIL")));
        let missing = parse_set(&line("full-train", 100.0, 1.5)).unwrap();
        assert!(!compare(&spec, &a, &missing).1);
    }
}
