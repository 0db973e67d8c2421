//! The two kinds of run over one workload: the untraced run that yields
//! the end-to-end metrics, and the traced run that yields every
//! per-layer metric.

use crate::inproc::{self, PassPlan};
use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::pass::Pass;
use crate::rig::{out_dir, Rig, WalMode};
use crate::spec::{Transport, Workload, END_TO_END, PER_LAYER, WAL_GROUP};
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::wire;
use shieldstore::StatsSnapshot;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Requests of the traced pass at full scale; every span is held in
/// memory until the pass ends.
const TRACE_OPS: u64 = 200_000;
/// Requests whose spans go to the trace file.
const TRACE_FILE_REQUESTS: u32 = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Key counts and op counts divided by this (`--quick`: 50).
    pub scale: u64,
    /// CPUs available before pinning, and the one CPU every thread is
    /// pinned to (see `pin`); both for the record only.
    pub nproc: usize,
    pub pinned_cpu: Option<usize>,
}

impl Options {
    fn warmup_seconds(&self) -> f64 {
        (self.seconds / 10.0).min(1.0)
    }
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In the order of the metric table the run serves.
    pub metrics: Metrics,
    /// Op counts and the spread over segments, for the results file.
    pub detail: Json,
    /// Validity guards the run breached; its numbers then measure the
    /// generator or a misconfigured store, not the system.
    pub invalid: Vec<String>,
}

fn run_pass(rig: &mut Rig, seconds: f64) -> Pass {
    if rig.w.is_wire() {
        wire::run(rig, seconds)
    } else {
        inproc::run(rig, &mut Tracer::disabled(), PassPlan::timed(seconds))
    }
}

fn summary_json(s: Summary) -> Json {
    Json::obj([
        ("min", Json::Num(s.min)),
        ("p10", Json::Num(s.p10)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("p90", Json::Num(s.p90)),
        ("max", Json::Num(s.max)),
    ])
}

fn pass_detail(pass: &Pass) -> Json {
    Json::obj([
        ("ops", Json::Num(pass.ops() as f64)),
        ("wall_s", Json::Num(pass.wall_s())),
        ("segments", Json::Num(pass.segments.len() as f64)),
        ("mean_throughput_kops", Json::Num(pass.ops() as f64 / pass.wall_s() / 1e3)),
        ("throughput_kops", summary_json(pass.throughput_series())),
        ("latency_p50_us", summary_json(pass.p50_series())),
    ])
}

/// Counter deltas and gauges over one measured pass.
struct Observed {
    delta: StatsSnapshot,
    handoffs: u64,
    shed: u64,
}

fn observe(rig: &mut Rig, seconds: f64) -> (Pass, Observed) {
    let net = |rig: &Rig| {
        rig.net
            .as_ref()
            .map_or((0, 0), |n| (n.server.cross_loop_handoffs(), n.server.shed_requests()))
    };
    let before = rig.store.snapshot();
    let (handoffs, shed) = net(rig);
    let pass = run_pass(rig, seconds);
    let after = net(rig);
    let delta = rig.store.snapshot().diff(&before);
    (pass, Observed { delta, handoffs: after.0 - handoffs, shed: after.1 - shed })
}

fn hit_share(delta: &StatsSnapshot) -> f64 {
    let searched = delta.ops.hits + delta.ops.misses;
    if searched == 0 {
        1.0
    } else {
        delta.ops.hits as f64 / searched as f64
    }
}

fn validity(w: &Workload, pass: &Pass, seen: &Observed, seconds: f64) -> Vec<String> {
    let mut invalid = Vec::new();
    if w.is_wire() && pass.busy_share() >= 0.9 {
        invalid.push(format!(
            "loadgen.busy_share {:.2} >= 0.9: the generator, not the store, was measured",
            pass.busy_share()
        ));
    }
    if seen.shed > 0 {
        invalid.push(format!("{} requests shed: the closed loop must never overload", seen.shed));
    }
    let hits = hit_share(&seen.delta);
    if hits < 0.99 {
        invalid.push(format!("store.hit_share {hits:.4} < 0.99: preload incomplete"));
    }
    if pass.wall_s() < 0.95 * seconds {
        invalid.push(format!("measured phase ran {:.2} s of {seconds} s", pass.wall_s()));
    }
    invalid
}

fn in_table_order(table: impl Iterator<Item = &'static str>, mut found: Metrics) -> Metrics {
    table
        .map(|name| {
            let at = found
                .iter()
                .position(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            found.swap_remove(at)
        })
        .collect()
}

/// The untraced run: set up `SETUP_REPEATS` times, warm up, measure for
/// `seconds`, check every reply (and, on the durable workload, every
/// key after recovery from the log alone).
pub fn end_to_end(w: &Workload, opts: &Options) -> Outcome {
    let w = w.scaled(opts.scale);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let started = Instant::now();
        rig = Some(Rig::build(&w, opts.seed, WalMode::Measured));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let space_amp = rig.space_amp();

    run_pass(&mut rig, opts.warmup_seconds());
    let (pass, seen) = observe(&mut rig, opts.seconds);
    let invalid = validity(&w, &pass, &seen, opts.seconds);

    let model = if w.durable { rig.recover_and_check().1 } else { rig.model };

    let throughput = pass.throughput_kops();
    let penalty = pass.penalty_ns_per_op();
    let metrics = vec![
        ("throughput_kops", throughput),
        ("latency_p50_us", pass.p50_us()),
        ("sgx_penalty_ns_per_op", penalty),
        ("space_amp", space_amp),
        ("effective_ns_per_op", 1e6 / throughput + penalty),
        ("setup_s", median(&setups)),
    ];
    Outcome {
        attempted: model.attempted,
        failed: model.failed,
        metrics: in_table_order(END_TO_END.iter().map(|m| m.name), metrics),
        detail: Json::obj([
            ("measured", pass_detail(&pass)),
            ("setup_s", summary_json(Summary::of(&setups))),
        ]),
        invalid,
    }
}

fn per(count: u64, ops: u64, unit: f64) -> f64 {
    count as f64 * unit / ops.max(1) as f64
}

/// The traced run: one set-up, an untraced pass for the counters and
/// the throughput the budget is closed against, then the traced pass
/// (spans in memory, written to `out/trace-<workload>.jsonl`), the
/// per-function spans, and the workload's special passes.
pub fn traced(w: &Workload, opts: &Options) -> Outcome {
    let w = w.scaled(opts.scale);
    let seconds = opts.seconds;
    let mut rig = Rig::build(&w, opts.seed, WalMode::Measured);
    let loaded = rig.store.snapshot();
    let mut m: Metrics = vec![
        ("alloc.heap_bytes_per_user_byte", loaded.heap_live_bytes as f64 / w.user_bytes() as f64),
        ("alloc.chunks", loaded.heap_chunks as f64),
        ("store.entries", loaded.entries as f64),
    ];

    // Untraced pass: counters per op, and the wall time per request.
    run_pass(&mut rig, opts.warmup_seconds());
    let measured_seconds = seconds * 0.45;
    let (pass, seen) = observe(&mut rig, measured_seconds);
    let invalid = validity(&w, &pass, &seen, measured_seconds);
    let ops = pass.ops();
    let (o, sim) = (&seen.delta.ops, &seen.delta.sim);
    m.extend([
        ("engine.handoffs_per_op", per(seen.handoffs, ops, 1.0)),
        ("admission.shed_per_kop", per(seen.shed, ops, 1e3)),
        ("shard.key_decryptions_per_op", per(o.key_decryptions, ops, 1.0)),
        ("shard.hint_skips_per_op", per(o.hint_skips, ops, 1.0)),
        ("shard.full_scans_per_kop", per(o.full_scans, ops, 1e3)),
        ("integrity.verifications_per_op", per(o.integrity_verifications, ops, 1.0)),
        ("integrity.macs_gathered_per_op", per(o.macs_gathered, ops, 1.0)),
        ("crypto.bytes_per_op", per(seen.delta.crypto_bytes, ops, 1.0)),
        ("crypto.calls_per_op", per(seen.delta.crypto_ops, ops, 1.0)),
        ("alloc.inplace_updates_per_kop", per(o.inplace_updates, ops, 1e3)),
        ("alloc.realloc_updates_per_kop", per(o.realloc_updates, ops, 1e3)),
        ("store.hit_share", hit_share(&seen.delta)),
        ("wal.bytes_per_write", per(seen.delta.wal_bytes, o.sets, 1.0)),
        ("wal.fsyncs_per_write", per(seen.delta.wal_fsyncs, o.sets, 1.0)),
        ("wal.group_p50", seen.delta.hists.wal_group.p50() as f64),
        ("sgx-sim.hotcalls_per_op", per(sim.hotcalls, ops, 1.0)),
        ("sgx-sim.ocalls_per_kop", per(sim.ocalls, ops, 1e3)),
        ("sgx-sim.epc_faults_per_kop", per(sim.epc_faults, ops, 1e3)),
        ("sgx-sim.epc_evictions_per_kop", per(sim.epc_evictions, ops, 1e3)),
        ("loadgen.latency_p99_us", pass.p99_us()),
        ("loadgen.latency_max_us", pass.max_us()),
        ("loadgen.busy_share", pass.busy_share()),
        ("loadgen.segment_spread", pass.throughput_series().spread()),
    ]);

    // The durable workload's traced pass runs on a second store that
    // logs to the real disk and whose policy never commits by itself, so
    // that each group commit is an explicit `flush_wal` with a span of
    // its own.
    let mut commit_rig = w.durable.then(|| Rig::build(&w, opts.seed, WalMode::CommitSpans));
    let trace_ops = (TRACE_OPS / opts.scale).max(1_000);
    let mut pair = wire::session_pair(&rig.enclave, opts.seed);
    let mut tracer = Tracer::with_capacity(trace_ops as usize * 7);
    let (untraced_ns, traced_ns) = if w.is_wire() {
        let untraced = wire::replay(&mut rig, &mut pair, &mut Tracer::disabled(), trace_ops);
        let traced = wire::replay(&mut rig, &mut pair, &mut tracer, trace_ops);
        (untraced.as_nanos() as f64, traced.as_nanos() as f64)
    } else {
        let target = commit_rig.as_mut().unwrap_or(&mut rig);
        let plan = PassPlan {
            seconds: seconds * 0.2,
            max_ops: trace_ops,
            flush_every: w.durable.then_some(WAL_GROUP as u64),
        };
        let untraced = inproc::run(target, &mut Tracer::disabled(), plan);
        let traced = inproc::run(target, &mut tracer, plan);
        (untraced.wall_ns_per_op(), traced.wall_ns_per_op())
    };
    m.push(("loadgen.trace_overhead_share", traced_ns / untraced_ns - 1.0));
    let trace_path = out_dir().join(format!("trace-{}.jsonl", w.name));
    tracer.write_jsonl(&trace_path, TRACE_FILE_REQUESTS).expect("write trace file");

    let totals = tracer.totals();
    let requests = totals.get("request").map_or(1, |t| t.count.max(1));
    // Span self times are means over the traced pass, so the budget is
    // closed against the untraced pass's mean wall time per request, not
    // against its undisturbed segments.
    let untraced_ns_per_request = pass.wall_ns_per_op();
    if w.is_wire() {
        let server_side = [
            "frame.feed",
            "session.open",
            "protocol.decode_request",
            "server.execute",
            "protocol.encode_response",
            "session.seal",
            "request",
        ];
        let path_ns: u64 =
            server_side.iter().filter_map(|n| totals.get(n)).map(|t| t.self_ns).sum();
        let path = path_ns as f64 / requests as f64;
        m.push(("net.server_path_ns_per_op", path));
        m.push(("engine.transport_residual_ns_per_op", untraced_ns_per_request - path));
    } else {
        m.push(("net.server_path_ns_per_op", 0.0));
        m.push(("engine.transport_residual_ns_per_op", 0.0));
    }
    let commits = tracer.sorted_durations("wal.commit");
    let traced_wall: u64 = totals.get("request").map_or(0, |t| t.total_ns);
    m.push(("wal.commit_p50_us", percentile(&commits, 50.0) as f64 / 1e3));
    m.push((
        "wal.commit_share",
        totals.get("wal.commit").map_or(0.0, |t| t.total_ns as f64 / traced_wall.max(1) as f64),
    ));
    drop(tracer);

    // Spans around single functions, at this workload's sizes.
    m.extend(layers::net_spans(w.val_len, &mut pair));
    m.extend(layers::crypto_spans(w.val_len));
    m.extend(layers::execute_spans(&mut rig, (40_000 / opts.scale).max(2_000) as usize));
    m.extend(layers::multi_get_span(&mut rig, 200));
    if w.is_wire() {
        m.extend(layers::kvclient(
            &mut rig,
            opts.seed,
            (4_000 / opts.scale).max(200) as usize,
            200,
        ));
    } else {
        m.push(("client.kvclient_rtt_p50_us", 0.0));
        m.push(("client.kvclient_pipeline32_kops", 0.0));
    }

    // Ops the side rigs ran count towards the run's totals.
    let (mut attempted, mut failed) =
        commit_rig.map_or((0, 0), |side| (side.model.attempted, side.model.failed));

    // The same stream against one event loop: what the second loop buys.
    let speedup = match w.transport {
        Transport::Wire { event_loops } if event_loops > 1 => {
            let one_loop = Workload { transport: Transport::Wire { event_loops: 1 }, ..w };
            let mut single = Rig::build(&one_loop, opts.seed, WalMode::Measured);
            run_pass(&mut single, opts.warmup_seconds());
            let base = run_pass(&mut single, seconds * 0.2).throughput_kops();
            attempted += single.model.attempted;
            failed += single.model.failed;
            pass.throughput_kops() / base
        }
        Transport::Wire { .. } => 1.0,
        Transport::InProc => 0.0,
    };
    m.push(("engine.two_loop_speedup", speedup));

    let model = if w.durable {
        let logged = w.keys + rig.model.writes;
        let (took, model) = rig.recover_and_check();
        m.push(("wal.recover_ms_per_kwrite", took.as_secs_f64() * 1e3 / (logged as f64 / 1e3)));
        model
    } else {
        m.push(("wal.recover_ms_per_kwrite", 0.0));
        rig.model
    };

    let spans = Json::obj(totals.iter().map(|(name, t)| {
        (
            *name,
            Json::obj([
                ("count", Json::Num(t.count as f64)),
                ("self_ns_per_request", Json::Num(t.self_ns as f64 / requests as f64)),
            ]),
        )
    }));
    Outcome {
        attempted: attempted + model.attempted,
        failed: failed + model.failed,
        metrics: in_table_order(PER_LAYER.iter().map(|m| m.name), m),
        detail: Json::obj([
            ("measured", pass_detail(&pass)),
            ("traced_requests", Json::Num(requests as f64)),
            ("untraced_ns_per_request", Json::Num(untraced_ns_per_request)),
            ("span_self_times", spans),
            ("trace_file", Json::str(format!("benchmark/out/trace-{}.jsonl", w.name))),
        ]),
        invalid,
    }
}
