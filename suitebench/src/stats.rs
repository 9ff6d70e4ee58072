//! Small numeric helpers: order statistics, means, digests, and the
//! seeded kernel order.

/// The smallest sample (best-of for times); `NaN` when empty.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// The median (mean of the middle two for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here match the
/// ones a Python reader computes from the same values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a-64, the digest the slice-file format already uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The order kernels run in during round `round`: a Fisher–Yates shuffle
/// of `0..n` driven by xorshift64* seeded from `(seed, round)`. Rotating
/// the order keeps a kernel's time from depending on which kernel ran
/// before it.
pub fn round_order(n: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut x = (seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    let mut next = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.0; 5]) - 7.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn fnv_matches_the_slice_file_checksum() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = round_order(10, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, round_order(10, 7, 0));
        assert_ne!(a, round_order(10, 7, 1));
        assert_ne!(a, round_order(10, 8, 0));
    }
}
