//! Latency-histogram serialization for the service's `stats` report.
//!
//! The histogram type itself lives in [`preexec_obs`] (it serves every
//! layer, not just the service) and is re-exported here; this module
//! keeps the wire-format concern — rendering one histogram as the JSON
//! shape the `stats`/`metrics` verbs report.

pub use preexec_obs::Histogram;

use crate::json::Json;

/// Serializes a histogram: count, mean, p50/p99 bounds, max, and the
/// non-empty buckets as `[lower-bound-µs, count]` pairs. Bucket 0's lower
/// bound is `0` (it absorbs sub-µs samples) and every quantile bound is
/// clamped to `max_us` — see [`Histogram::quantile_us`].
pub fn histogram_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(lower, n)| Json::Arr(vec![Json::num_u64(lower), Json::num_u64(n)]))
        .collect();
    Json::obj(vec![
        ("count", Json::num_u64(h.count())),
        ("mean_us", Json::Num(h.mean_us())),
        ("p50_us", Json::num_u64(h.quantile_us(0.5))),
        ("p99_us", Json::num_u64(h.quantile_us(0.99))),
        ("max_us", Json::num_u64(h.max_us())),
        ("buckets_us", Json::Arr(buckets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_count_quantiles_and_buckets() {
        let mut h = Histogram::new();
        for us in [0, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record_us(us);
        }
        let json = histogram_json(&h);
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("max_us").and_then(Json::as_u64), Some(1_000_000));
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1; 4 is bucket 2.
        let buckets = json
            .get("buckets_us")
            .and_then(Json::as_arr)
            .expect("buckets");
        assert_eq!(buckets.len(), 5);
        // Bucket 0's lower bound is 0, not 1: it absorbs 0-µs samples.
        let first = buckets[0].as_arr().expect("pair");
        assert_eq!(first[0].as_u64(), Some(0));
        assert_eq!(first[1].as_u64(), Some(2));
    }

    #[test]
    fn serialized_quantiles_respect_the_max() {
        let mut h = Histogram::new();
        h.record_us(u64::MAX);
        let json = histogram_json(&h);
        // Pre-fix this reported 2^40; the bound must cover the sample.
        // (`as_f64`: values past 2^53 exceed `as_u64`'s precision guard.)
        assert_eq!(
            json.get("p99_us").and_then(Json::as_f64),
            Some(u64::MAX as f64)
        );
        assert_eq!(
            json.get("max_us").and_then(Json::as_f64),
            Some(u64::MAX as f64)
        );
    }
}
