//! The bookkeeping of a measured pass: segments, latency samples and
//! the figures drawn from them.

use crate::stats::{self, Summary};
use std::time::{Duration, Instant};

/// On-CPU nanoseconds of the calling thread (from the scheduler's own
/// accounting), for `loadgen.busy_share`.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// A pass is cut into back-to-back segments of this length, and its
/// figures are order statistics over them: `Pass::throughput_kops` is
/// the 90th percentile of segment throughput, `Pass::p50_us` the 10th
/// percentile of segment median latency.
///
/// Why not the mean or the median: on this shared two-vCPU VM the
/// interference is one-sided and comes in bursts of 10 ms and more that
/// at times cover over half of a run. Across twelve 2 s runs of
/// `wire-read-small` the median 10 ms segment ranged from 216 to 305
/// kop/s and the mean from 228 to 302, while the 90th percentile stayed
/// within 294 to 312: the speed of the undisturbed segments is the one
/// property of the run that repeats, and it is the one a code change
/// moves. A short segment matters as much as the percentile — with
/// 100 ms segments most segments contain a burst.
pub const SEGMENT: Duration = Duration::from_millis(10);

/// Latency samples a pass reserves up front (it grows beyond).
const PASS_SAMPLES: usize = 1 << 22;

/// Splits a pass into segments by wall time and collects per-request
/// latencies; sorting waits until the pass is over so no request in
/// flight pays for it.
pub struct Segments {
    want: usize,
    seg_start: Instant,
    latencies: Vec<u32>,
    /// Per closed segment: end index into `latencies`, wall time.
    closed: Vec<(usize, Duration)>,
}

impl Segments {
    pub fn new(total: Duration, now: Instant) -> Segments {
        let want = (total.as_secs_f64() / SEGMENT.as_secs_f64()).round().max(1.0) as usize;
        Segments {
            want,
            seg_start: now,
            latencies: Vec::with_capacity(PASS_SAMPLES),
            closed: Vec::with_capacity(want + 1),
        }
    }

    /// Records one completed request observed at `now`; true once every
    /// segment is full.
    #[inline]
    pub fn record(&mut self, now: Instant, latency: Duration) -> bool {
        self.latencies.push(latency.as_nanos().min(u32::MAX as u128) as u32);
        if now.duration_since(self.seg_start) >= SEGMENT {
            self.close(now);
        }
        self.closed.len() >= self.want
    }

    fn close(&mut self, now: Instant) {
        self.closed.push((self.latencies.len(), now.duration_since(self.seg_start)));
        self.seg_start = now;
    }

    /// Ends the pass; a partly filled segment (op-count-bounded passes)
    /// is kept.
    pub fn finish(mut self, now: Instant, penalty_ns: u64, cpu_ns: u64) -> Pass {
        if self.closed.last().map_or(0, |c| c.0) < self.latencies.len() {
            self.close(now);
        }
        let mut start = 0;
        let segments = self
            .closed
            .iter()
            .map(|&(end, wall)| {
                let samples = &mut self.latencies[start..end];
                start = end;
                samples.sort_unstable();
                let tail = stats::highest_supported_percentile(samples.len()).min(99.0);
                SegmentStats {
                    ops: samples.len() as u64,
                    wall_s: wall.as_secs_f64(),
                    p50_ns: stats::percentile(samples, 50.0),
                    p99_ns: stats::percentile(samples, tail),
                    max_ns: samples.last().copied().unwrap_or(0),
                }
            })
            .collect();
        Pass { segments, penalty_ns, cpu_ns }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    pub ops: u64,
    pub wall_s: f64,
    pub p50_ns: u32,
    pub p99_ns: u32,
    pub max_ns: u32,
}

/// A finished pass over the system.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub segments: Vec<SegmentStats>,
    pub penalty_ns: u64,
    /// Generator-thread CPU time.
    pub cpu_ns: u64,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.ops).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    fn series(&self, f: impl Fn(&SegmentStats) -> f64) -> Summary {
        Summary::of(&self.segments.iter().map(f).collect::<Vec<_>>())
    }

    /// Completed ops per wall second, over the segments.
    pub fn throughput_series(&self) -> Summary {
        self.series(|s| s.ops as f64 / s.wall_s / 1e3)
    }

    /// Median request latency, over the segments.
    pub fn p50_series(&self) -> Summary {
        self.series(|s| s.p50_ns as f64 / 1e3)
    }

    /// The pass's throughput: that of its undisturbed segments (see
    /// [`SEGMENT`]).
    pub fn throughput_kops(&self) -> f64 {
        self.throughput_series().p90
    }

    /// The pass's median latency in its undisturbed segments.
    pub fn p50_us(&self) -> f64 {
        self.p50_series().p10
    }

    pub fn p99_us(&self) -> f64 {
        self.series(|s| s.p99_ns as f64 / 1e3).median
    }

    pub fn max_us(&self) -> f64 {
        self.segments.iter().map(|s| s.max_ns).max().unwrap_or(0) as f64 / 1e3
    }

    pub fn penalty_ns_per_op(&self) -> f64 {
        self.penalty_ns as f64 / self.ops().max(1) as f64
    }

    pub fn wall_ns_per_op(&self) -> f64 {
        self.wall_s() * 1e9 / self.ops().max(1) as f64
    }

    pub fn busy_share(&self) -> f64 {
        self.cpu_ns as f64 / (self.wall_s() * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_by_time_and_keep_a_partial_tail() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut segs = Segments::new(ms(30), t0);
        // 4 ops in [0,10], the last one on the boundary; then a second
        // segment of 2 and a partial third.
        for at in [1, 2, 3] {
            assert!(!segs.record(t0 + ms(at), Duration::from_nanos(100 * at)));
        }
        assert!(!segs.record(t0 + ms(10), Duration::from_nanos(1_000)));
        assert!(!segs.record(t0 + ms(15), Duration::from_nanos(50)));
        assert!(!segs.record(t0 + ms(21), Duration::from_nanos(70)));
        assert!(!segs.record(t0 + ms(25), Duration::from_nanos(90)));
        let pass = segs.finish(t0 + ms(26), 7_000, 13_000_000);
        assert_eq!(pass.segments.len(), 3);
        assert_eq!(pass.segments[0].ops, 4);
        assert_eq!(pass.segments[0].p50_ns, 200);
        assert_eq!(pass.segments[0].max_ns, 1_000);
        assert_eq!(pass.segments[1].ops, 2);
        assert_eq!(pass.segments[2].ops, 1);
        assert_eq!(pass.ops(), 7);
        assert!((pass.wall_s() - 0.026).abs() < 1e-9);
        assert_eq!(pass.penalty_ns_per_op(), 1_000.0);
        assert!((pass.busy_share() - 0.5).abs() < 1e-9);
        assert_eq!(pass.throughput_series().median, 1.0 / 0.005 / 1e3);
        assert_eq!(pass.throughput_kops(), 4.0 / 0.010 / 1e3);
        assert_eq!(pass.p50_us(), 0.05);
        // A full pass reports completion on the closing record.
        let mut full = Segments::new(ms(10), t0);
        assert!(full.record(t0 + ms(10), Duration::from_nanos(1)));
    }
}
