//! Log-bucketed latency histograms.
//!
//! Every hot-path operation records its latency into a [`LatencyHist`]:
//! 64 power-of-two buckets, a fixed-size value type with no interior
//! allocation, so recording costs a handful of arithmetic instructions
//! and never touches the heap (the observability layer must not perturb
//! what it observes — see DESIGN.md "Observability" for the budget).
//!
//! Latencies are measured in *effective nanoseconds*: wall time plus the
//! virtual-clock penalty ([`sgx_sim::vclock`]) accumulated during the
//! operation, so EPC faults and enclave crossings show up in the tails
//! exactly as they do in the throughput model.

use sgx_sim::vclock;
use std::time::Instant;

/// Number of power-of-two buckets. Bucket 0 holds zero, bucket `i`
/// (1 ≤ i < 63) holds `[2^(i-1), 2^i)`, bucket 63 holds everything from
/// `2^62` up. 64 buckets cover the full `u64` nanosecond range.
pub const NUM_BUCKETS: usize = 64;

/// An allocation-free log-bucketed histogram of `u64` samples.
///
/// Recording, merging, and quantile queries all operate on the fixed
/// bucket array; nothing is allocated after construction. Counters only
/// grow, so bucket-wise subtraction ([`LatencyHist::diff`]) yields the
/// histogram of an interval between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The bucket index a sample lands in.
    #[inline]
    pub fn bucket_index(sample: u64) -> usize {
        if sample == 0 {
            0
        } else {
            (64 - sample.leading_zeros() as usize).min(NUM_BUCKETS - 1)
        }
    }

    /// Inclusive `[lo, hi]` bounds of bucket `i`.
    ///
    /// # Panics
    /// Panics when `i >= NUM_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < NUM_BUCKETS, "bucket index out of range");
        match i {
            0 => (0, 0),
            63 => (1 << 62, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_index(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.max = self.max.max(sample);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples (nanoseconds).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The raw bucket array (serialization, reporting).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// The quantile estimate for `p` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches rank `ceil(p·count)`,
    /// clamped to the recorded maximum (so `quantile(1.0) == max`).
    /// Monotone non-decreasing in `p`. Returns 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Reconstructs a histogram from its serialized parts, deriving the
    /// sample count from the buckets. Fails (`None`) when the bucket
    /// counts overflow, or when `max`/`sum` are inconsistent with the
    /// buckets (a non-empty histogram needs `max` inside the top
    /// non-empty bucket's bounds and `sum >= `nothing checkable beyond
    /// overflow — wire decoders use this to fail closed on junk).
    pub fn from_raw(buckets: [u64; NUM_BUCKETS], sum: u64, max: u64) -> Option<Self> {
        let mut count = 0u64;
        let mut top: Option<usize> = None;
        for (i, &n) in buckets.iter().enumerate() {
            count = count.checked_add(n)?;
            if n > 0 {
                top = Some(i);
            }
        }
        match top {
            None => {
                if sum != 0 || max != 0 {
                    return None;
                }
            }
            Some(i) => {
                let (lo, hi) = Self::bucket_bounds(i);
                if max < lo || max > hi {
                    return None;
                }
            }
        }
        Some(Self { buckets, count, sum, max })
    }

    /// The histogram of the interval since `earlier`, assuming `self`
    /// was recorded strictly after it on the same (merged) lineage.
    /// Bucket-wise saturating subtraction; `max` keeps the later value
    /// (a maximum cannot be un-recorded, so it is since-reset, not
    /// per-interval).
    pub fn diff(&self, earlier: &LatencyHist) -> LatencyHist {
        let mut buckets = [0u64; NUM_BUCKETS];
        let mut count = 0u64;
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
            count += *slot;
        }
        LatencyHist { buckets, count, sum: self.sum.saturating_sub(earlier.sum), max: self.max }
    }
}

sgx_sim::stat_table! {
    /// Per-operation-class latency histograms, one set per shard.
    ///
    /// `get`/`set`/`delete` time the single-key entry points; `batch` times
    /// whole `multi_get`/`multi_set` calls (one sample per batch, not per
    /// carried key). `append`/`increment`/`exists` are compound reads over
    /// the same verified lookup path and are deliberately not sampled.
    /// `wal_group` is not a latency at all: it records the *size* (operation
    /// count) of each write-ahead-log group commit, so the distribution shows
    /// how well the durability policy amortizes sealing and fsync.
    pub struct OpHists: LatencyHist {
        /// `get` latency.
        get: Counter, "latency";
        /// `set` latency.
        set: Counter, "latency";
        /// `delete` latency.
        delete: Counter, "latency";
        /// Whole-batch `multi_get`/`multi_set` latency.
        batch: Counter, "latency";
        /// Operations per WAL group commit (a size distribution, one sample
        /// per committed log record).
        wal_group: Counter, "latency";
    }
}

impl OpHists {
    /// Merges another set into this one.
    pub fn merge(&mut self, other: &OpHists) {
        for f in Self::FIELDS {
            (f.get_mut)(self).merge((f.get)(other));
        }
    }

    /// `(name, histogram)` pairs in table order, for reports and
    /// serialization.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &LatencyHist)> {
        Self::FIELDS.iter().map(move |f| (f.name, (f.get)(self)))
    }

    /// The per-interval difference against an earlier snapshot.
    pub fn diff(&self, earlier: &OpHists) -> OpHists {
        let mut d = *self;
        for f in Self::FIELDS {
            *(f.get_mut)(&mut d) = (f.get)(self).diff((f.get)(earlier));
        }
        d
    }
}

/// Times one operation in effective nanoseconds: wall clock plus the
/// virtual penalty the operation charged to this thread's
/// [`sgx_sim::vclock`] (EPC faults, crossings, MEE overhead).
#[derive(Debug)]
pub struct OpTimer {
    wall: Instant,
    vstart: u64,
}

impl OpTimer {
    /// Starts timing.
    #[inline]
    pub fn start() -> Self {
        Self { wall: Instant::now(), vstart: vclock::now() }
    }

    /// Effective nanoseconds since [`OpTimer::start`]. Saturates if the
    /// virtual clock was reset mid-operation (harness boundaries only).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        let wall = self.wall.elapsed().as_nanos() as u64;
        wall.saturating_add(vclock::now().saturating_sub(self.vstart))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry() {
        assert_eq!(LatencyHist::bucket_index(0), 0);
        assert_eq!(LatencyHist::bucket_index(1), 1);
        assert_eq!(LatencyHist::bucket_index(2), 2);
        assert_eq!(LatencyHist::bucket_index(3), 2);
        assert_eq!(LatencyHist::bucket_index(4), 3);
        assert_eq!(LatencyHist::bucket_index(u64::MAX), 63);
        for sample in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 62, u64::MAX] {
            let i = LatencyHist::bucket_index(sample);
            let (lo, hi) = LatencyHist::bucket_bounds(i);
            assert!(lo <= sample && sample <= hi, "{sample} outside bucket {i} [{lo}, {hi}]");
        }
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LatencyHist::new();
        assert_eq!(h.p50(), 0);
        for ns in [100u64, 200, 300, 400, 10_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 10_000);
        assert_eq!(h.sum_ns(), 11_000);
        // p50 falls in the bucket holding 200..=255.
        let p50 = h.p50();
        assert!((200..512).contains(&p50), "p50 = {p50}");
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max_ns());
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn merge_adds() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(10);
        b.record(1000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), u64::MAX);
        assert_eq!(a.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn diff_recovers_interval() {
        let mut before = LatencyHist::new();
        before.record(5);
        let mut after = before;
        after.record(700);
        after.record(800);
        let d = after.diff(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum_ns(), 1500);
        let p50 = d.p50();
        assert!((512..=1023).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn from_raw_validates() {
        let mut h = LatencyHist::new();
        h.record(42);
        h.record(9000);
        let rebuilt = LatencyHist::from_raw(*h.buckets(), h.sum_ns(), h.max_ns()).unwrap();
        assert_eq!(rebuilt, h);
        // max outside the top non-empty bucket fails closed.
        assert!(LatencyHist::from_raw(*h.buckets(), h.sum_ns(), 1).is_none());
        // A non-zero max with empty buckets fails closed.
        assert!(LatencyHist::from_raw([0; NUM_BUCKETS], 0, 7).is_none());
        // Bucket counts that overflow the total fail closed.
        let mut bad = [0u64; NUM_BUCKETS];
        bad[1] = u64::MAX;
        bad[2] = 1;
        assert!(LatencyHist::from_raw(bad, 0, 3).is_none());
    }

    #[test]
    fn timer_monotone() {
        let t = OpTimer::start();
        let first = t.elapsed_ns();
        let second = t.elapsed_ns();
        assert!(second >= first);
    }
}
