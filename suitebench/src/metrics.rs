//! Named metrics, the result line, and the metric table of
//! `BENCHMARK.json`.

use preexec_serve::Json;

/// The benchmark definition this binary was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics that are pure functions of the inputs: the timing
/// simulator and the selector are deterministic, so any change at all is
/// a change of the model, and `--compare` requires exact equality.
pub const EXACT: [&str; 4] = [
    "speedup",
    "coverage_pct",
    "pred_ipc_err_pct",
    "pred_cov_err_pp",
];

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
}

/// Shorthand constructor.
pub fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The `metrics` object of a result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|x| {
                let v = Json::obj(vec![
                    ("value", Json::Num(x.value)),
                    ("unit", Json::str(x.unit)),
                ]);
                (x.name.to_string(), v)
            })
            .collect(),
    )
}

/// The result line: the last line a run prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .encode()
}

/// One metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric table of a benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, without bounds.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let field = |x: &Json, key: &str| {
            x.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
        };
        let metric = |x: &Json, bounded: bool| -> Result<MetricSpec, String> {
            let name = field(x, "name")?;
            let higher_is_better = match field(x, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("BENCHMARK.json: {name}: better = `{other}`")),
            };
            let bound = if bounded {
                let b = x.get("bound").and_then(Json::as_f64);
                Some(b.ok_or_else(|| format!("BENCHMARK.json: {name}: no numeric bound"))?)
            } else {
                None
            };
            Ok(MetricSpec {
                unit: field(x, "unit")?,
                name,
                higher_is_better,
                bound,
            })
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|x| metric(x, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|x| metric(x, false))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The definition this binary was built with.
    ///
    /// # Errors
    ///
    /// As [`Spec::parse`].
    pub fn built_in() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 20, 0, &[m("run_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":20,"failed":0,"metrics":{"run_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn built_in_spec_parses_and_marks_exact_metrics() {
        let spec = Spec::built_in().unwrap();
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec
            .end_to_end
            .iter()
            .any(|x| x.name == "setup_s" && x.unit == "s"));
        for name in EXACT {
            assert!(
                spec.end_to_end.iter().any(|x| x.name == name),
                "{name} not in BENCHMARK.json"
            );
        }
        assert!(spec.per_layer.iter().all(|x| x.bound.is_none()));
    }
}
