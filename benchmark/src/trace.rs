//! In-memory spans recorded by the benchmark's own code around calls
//! into each layer, written out as JSON lines when a traced pass ends.
//!
//! A disabled tracer records nothing and reads no clock, so one pass
//! function serves the untraced and the traced run; the difference in
//! their wall time is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span plus one; 0 means "no span" (a root's parent, or
/// anything a disabled tracer hands out).
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub req: u32,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer { enabled: true, origin: Instant::now(), spans: Vec::with_capacity(spans) }
    }

    /// Nanoseconds since the trace began; 0 (and no clock read) when
    /// disabled.
    #[inline]
    pub fn stamp(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// A clock reading the caller took anyway, on the trace's time
    /// base; 0 when disabled.
    #[inline]
    pub fn at(&self, t: Instant) -> u64 {
        if self.enabled {
            t.saturating_duration_since(self.origin).as_nanos() as u64
        } else {
            0
        }
    }

    /// Starts a span whose end is set later by [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, req: u32, parent: SpanId, start_ns: u64) -> SpanId {
        self.record(name, req, parent, start_ns, start_ns)
    }

    #[inline]
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Records a finished span.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        req: u32,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span { name, req, parent, start_ns, end_ns });
        self.spans.len() as SpanId
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children, each
    /// clipped to the parent's interval (children of one parent are
    /// sequential here, so their sum is their cover).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                let start = s.start_ns.max(p.start_ns);
                let end = s.end_ns.min(p.end_ns);
                child_cover[s.parent as usize - 1] += end.saturating_sub(start);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(cover);
        }
        out
    }

    /// Ascending durations of every span called `name`.
    pub fn sorted_durations(&self, name: &str) -> Vec<u32> {
        let mut d: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns).min(u32::MAX as u64) as u32)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes the spans of requests below `max_req` as JSON lines:
    /// `{"id", "name", "req", "parent", "start_ns", "end_ns"}`, `parent`
    /// 0 for a root. The totals above always cover the whole trace; the
    /// file is a bounded sample so a run leaves megabytes, not gigabytes.
    pub fn write_jsonl(&self, path: &std::path::Path, max_req: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.req < max_req) {
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.name,
                s.req,
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::with_capacity(8);
        // request [0, 100] > execute [10, 70] > shard [20, 50]; seal [70, 95]
        let root = t.open("request", 0, 0, 0);
        let exec = t.open("execute", 0, root, 10);
        t.record("shard", 0, exec, 20, 50);
        t.close(exec, 70);
        t.record("seal", 0, root, 70, 95);
        t.close(root, 100);
        // A second request with a child that overruns its parent.
        let root2 = t.open("request", 1, 0, 200);
        t.record("seal", 1, root2, 190, 260);
        t.close(root2, 250);

        let totals = t.totals();
        assert_eq!(totals["request"], NameTotals { count: 2, total_ns: 150, self_ns: 15 });
        assert_eq!(totals["execute"], NameTotals { count: 1, total_ns: 60, self_ns: 30 });
        assert_eq!(totals["shard"], NameTotals { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(totals["seal"], NameTotals { count: 2, total_ns: 95, self_ns: 95 });
        assert_eq!(t.sorted_durations("seal"), vec![25, 70]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.stamp(), 0);
        let id = t.open("request", 0, 0, 0);
        assert_eq!(id, 0);
        t.close(id, 10);
        assert!(t.totals().is_empty());
    }

    #[test]
    fn jsonl_is_bounded_by_request_id() {
        let mut t = Tracer::with_capacity(4);
        t.record("a", 0, 0, 1, 2);
        t.record("a", 5, 0, 3, 4);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path, 5).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = crate::json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("name").unwrap().as_str(), Some("a"));
        assert_eq!(line.get("end_ns").unwrap().as_f64(), Some(2.0));
    }
}
