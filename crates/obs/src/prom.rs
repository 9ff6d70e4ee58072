//! Prometheus-style text exposition of a registry [`Snapshot`].
//!
//! The format follows the Prometheus text conventions closely enough for
//! `promtool`-style scrapers and plain `grep`: every series is prefixed
//! `preexec_`, counters get a `_total` suffix, and histograms expand into
//! cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
//! Histograms only emit their non-empty buckets (40 power-of-two buckets
//! would otherwise produce mostly-zero noise); the `le` bounds come from
//! [`Histogram::cumulative_buckets`](crate::Histogram::cumulative_buckets)
//! so they are clamped to the observed max and stay monotone.

use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Maps a metric name to a Prometheus-legal series name: prefix
/// `preexec_` and replace every character outside `[a-zA-Z0-9_]`
/// (the dots in `stage.trace`, mostly) with `_`.
fn series_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("preexec_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let series = series_name(name);
        let _ = writeln!(out, "# TYPE {series}_total counter");
        let _ = writeln!(out, "{series}_total {value}");
    }
    for (name, value) in &snap.gauges {
        let series = series_name(name);
        let _ = writeln!(out, "# TYPE {series} gauge");
        let _ = writeln!(out, "{series} {value}");
    }
    for (name, hist) in &snap.histograms {
        let series = format!("{}_us", series_name(name));
        let _ = writeln!(out, "# TYPE {series} histogram");
        for (le, cumulative) in hist.cumulative_buckets() {
            let _ = writeln!(out, "{series}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{series}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{series}_sum {}", hist.sum_us());
        let _ = writeln!(out, "{series}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let r = Registry::new();
        r.counter("cache.hits").add(7);
        r.gauge("sched.queue_depth").set(3);
        let h = r.histogram("stage.trace");
        h.record_us(5);
        h.record_us(900);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE preexec_cache_hits_total counter"));
        assert!(text.contains("preexec_cache_hits_total 7"));
        assert!(text.contains("preexec_sched_queue_depth 3"));
        assert!(text.contains("# TYPE preexec_stage_trace_us histogram"));
        assert!(text.contains("preexec_stage_trace_us_count 2"));
        assert!(text.contains("preexec_stage_trace_us_sum 905"));
        assert!(text.contains("preexec_stage_trace_us_bucket{le=\"+Inf\"} 2"));
        // Bucket bounds are clamped to the observed max (900), so no le
        // label exceeds the data.
        assert!(text.contains("le=\"900\"} 2"));
        assert!(!text.contains("le=\"1024\""));
    }

    #[test]
    fn le_bounds_are_monotone_nondecreasing() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for us in [1, 3, 900, 70_000, u64::MAX] {
            h.record_us(us);
        }
        let snap = r.snapshot();
        let (_, hist) = &snap.histograms[0];
        let bounds: Vec<u64> = hist
            .cumulative_buckets()
            .iter()
            .map(|&(le, _)| le)
            .collect();
        let mut sorted = bounds.clone();
        sorted.sort_unstable();
        assert_eq!(bounds, sorted, "le bounds must be monotone: {bounds:?}");
        assert_eq!(bounds.last().copied(), Some(u64::MAX));
    }

    #[test]
    fn names_are_sanitized_for_prometheus() {
        assert_eq!(
            series_name("stage.slice-build"),
            "preexec_stage_slice_build"
        );
        assert_eq!(series_name("ok_name9"), "preexec_ok_name9");
    }
}
