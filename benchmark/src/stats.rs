//! Order statistics over latency samples and measured segments.

/// Exact nearest-rank percentile of ascending `sorted` samples: the
/// smallest sample with at least `p` percent of the samples at or
/// below it. Empty input reads 0.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — a tail percentile resting on fewer is one
/// outlier, not a measurement.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, samples beyond it per 10 000), in integers: the
    // boundary cases must not hang on floating-point rounding.
    [(99.99, 1), (99.9, 10), (99.0, 100), (90.0, 1_000)]
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Five-number summary of a per-segment series (quartiles by nearest
/// rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of nothing");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = |p: f64| v[((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
        Summary {
            min: v[0],
            p10: rank(0.10),
            q1: rank(0.25),
            median: median(&v),
            q3: rank(0.75),
            p90: rank(0.90),
            max: v[v.len() - 1],
        }
    }

    /// (p90 - q3) / p90: how far below the 90th percentile the upper
    /// quartile begins. Near 0 when a quarter of the segments ran
    /// undisturbed and agree; large when interference covered nearly the
    /// whole pass and the 90th percentile itself is not to be trusted.
    pub fn spread(&self) -> f64 {
        if self.p90 == 0.0 {
            0.0
        } else {
            (self.p90 - self.q3) / self.p90
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.5), 100);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[180.0, 176.0, 171.0, 90.0, 178.0, 177.0, 175.0, 179.0]);
        assert_eq!((s.min, s.median, s.max), (90.0, 176.5, 180.0));
        assert_eq!((s.p10, s.q1, s.q3, s.p90), (90.0, 171.0, 178.0, 180.0));
        assert!((s.spread() - 2.0 / 180.0).abs() < 1e-12);
        let one = Summary::of(&[5.0]);
        assert_eq!((one.min, one.p10, one.median, one.p90, one.max), (5.0, 5.0, 5.0, 5.0, 5.0));
        assert_eq!(one.spread(), 0.0);
    }
}
