//! The in-process pass: direct `ShieldStore::get/set` calls from the
//! generator thread, closed loop, one request at a time.

use crate::pass::{thread_cpu_ns, Pass, Segments};
use crate::rig::{key_of, Rig, Step};
use crate::trace::Tracer;
use sgx_sim::vclock;
use std::time::{Duration, Instant};

/// How a pass ends and what it does besides get/set.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    pub seconds: f64,
    /// Stop early after this many requests (traced passes hold every
    /// span in memory).
    pub max_ops: u64,
    /// Commit the log by hand after this many writes, under a
    /// `wal.commit` span — for a store whose policy never commits on
    /// its own.
    pub flush_every: Option<u64>,
}

impl PassPlan {
    pub fn timed(seconds: f64) -> PassPlan {
        PassPlan { seconds, max_ops: u64::MAX, flush_every: None }
    }
}

/// Runs the op stream against the store. Each request is a root
/// `request` span with `loadgen.generate`, `shard.get`/`shard.set`
/// (and `wal.commit`), `loadgen.verify` children when `tracer` is on;
/// latency is the duration of the store call.
pub fn run(rig: &mut Rig, tracer: &mut Tracer, plan: PassPlan) -> Pass {
    let store = std::sync::Arc::clone(&rig.store);
    let model = &mut rig.model;
    let mut unflushed = 0u64;
    let mut req = 0u32;

    vclock::reset();
    let cpu_before = thread_cpu_ns();
    let started = Instant::now();
    let mut segments = Segments::new(Duration::from_secs_f64(plan.seconds), started);
    let ended = loop {
        let g0 = tracer.stamp();
        let root = tracer.open("request", req, 0, g0);
        let step = model.next_step();
        let (t0, t1) = match step {
            Step::Get { id, round } => {
                let key = key_of(id);
                let t0 = Instant::now();
                let reply = store.get(&key);
                let t1 = Instant::now();
                tracer.record("loadgen.generate", req, root, g0, tracer.at(t0));
                tracer.record("shard.get", req, root, tracer.at(t0), tracer.at(t1));
                model.check_get(id, round, reply.as_deref().ok());
                (t0, t1)
            }
            Step::Set { id, round } => {
                let key = key_of(id);
                let value = model.value(id, round);
                let t0 = Instant::now();
                let ok = store.set(&key, &value).is_ok();
                let t1 = Instant::now();
                tracer.record("loadgen.generate", req, root, g0, tracer.at(t0));
                tracer.record("shard.set", req, root, tracer.at(t0), tracer.at(t1));
                model.ack_set(ok);
                unflushed += 1;
                (t0, t1)
            }
        };
        let verified = tracer.stamp();
        tracer.record("loadgen.verify", req, root, tracer.at(t1), verified);
        let mut end = t1;
        if plan.flush_every.is_some_and(|n| unflushed >= n) {
            unflushed = 0;
            model.attempted += 1;
            model.failed += u64::from(store.flush_wal().is_err());
            end = Instant::now();
            tracer.record("wal.commit", req, root, verified, tracer.at(end));
        }
        tracer.close(root, tracer.stamp());
        req += 1;
        if segments.record(end, t1 - t0) || u64::from(req) >= plan.max_ops {
            break Instant::now();
        }
    };
    segments.finish(ended, vclock::take(), thread_cpu_ns() - cpu_before)
}
