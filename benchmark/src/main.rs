//! The one benchmark for the ShieldStore reproduction.
//!
//! ```text
//! shieldstore-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result object
//!     (end-to-end metrics untraced, per-layer metrics traced)
//! shieldstore-benchmark --seed <n> [--seconds <s>] [--quick] [--out <file>]
//!     every workload, both runs, results envelope to <file>
//!     (default benchmark/out/results.json)
//! shieldstore-benchmark compare <a.json> <b.json>
//!     two envelopes against the end-to-end bounds; non-zero on a breach
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how they interact.

mod inproc;
mod json;
mod layers;
mod memfs;
mod pass;
mod pin;
mod report;
mod rig;
mod runs;
mod spec;
mod stats;
mod trace;
mod wire;

use json::Json;
use runs::{Options, Outcome};
use spec::{Workload, WORKLOADS};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SCALE: u64 = 50;

struct Args {
    workload: Option<Workload>,
    traced: bool,
    opts: Options,
    out: std::path::PathBuf,
}

/// Pins before any thread exists, so the server's loops inherit it.
fn pinned(mut args: Args) -> Args {
    args.opts.nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    args.opts.pinned_cpu = pin::pin_to_one_cpu();
    args
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        traced: false,
        opts: Options { seed: 42, seconds: DEFAULT_SECONDS, scale: 1, nproc: 0, pinned_cpu: None },
        out: rig::out_dir().join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                parsed.opts.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => parsed.opts.scale = QUICK_SCALE,
            "--out" => parsed.out = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", report::metrics_json(&outcome.metrics)),
    ])
    .to_line()
}

fn run(w: &Workload, traced: bool, opts: &Options) -> Outcome {
    let outcome = if traced { runs::traced(w, opts) } else { runs::end_to_end(w, opts) };
    report::print_metrics(
        w,
        if traced { "traced, per-layer" } else { "untraced, end-to-end" },
        &outcome,
    );
    outcome
}

fn sound(outcome: &Outcome) -> bool {
    outcome.failed == 0 && outcome.invalid.is_empty()
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    println!("provenance: {}", Json::Obj(report::provenance(&args.opts)).to_line());
    let outcome = run(w, args.traced, &args.opts);
    if !outcome.invalid.is_empty() {
        // An invalid run has no result to report.
        eprintln!("run invalid: {}", outcome.invalid.join("; "));
        return ExitCode::from(2);
    }
    println!("{}", result_line(&outcome));
    if sound(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut doc = report::provenance(&args.opts);
    println!("provenance: {}", Json::Obj(doc.clone()).to_line());
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let end_to_end = run(w, false, &args.opts);
        let traced = run(w, true, &args.opts);
        ok &= sound(&end_to_end) && sound(&traced);
        workloads.push(report::workload_json(w, &end_to_end, &traced));
    }
    doc.push(("workloads".into(), Json::Arr(workloads)));
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create results directory");
    }
    std::fs::write(&args.out, Json::Obj(doc).to_pretty()).expect("write results file");
    println!("wrote {}", args.out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a workload failed an op or a validity guard");
        ExitCode::FAILURE
    }
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    match load(a).and_then(|a| Ok((a, load(b)?))).and_then(|(a, b)| report::compare(&a, &b)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("{n} end-to-end metric(s) worse than their bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare(&args[1..]);
    }
    match parse_args(&args) {
        Ok(args) => match args.workload {
            Some(w) => run_one(&w, &pinned(args)),
            None => run_all(&pinned(args)),
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` smoke: every workload at 1/50 scale through both runs,
    /// the correctness gate and the result writer.
    #[test]
    fn quick_smoke_every_workload() {
        let opts =
            Options { seed: 7, seconds: 0.6, scale: QUICK_SCALE, nproc: 0, pinned_cpu: None };
        for w in &WORKLOADS {
            for traced in [false, true] {
                let outcome = run(w, traced, &opts);
                assert!(outcome.attempted > 100, "{}: {} ops", w.name, outcome.attempted);
                assert_eq!(outcome.failed, 0, "{} traced={traced}", w.name);
                let line = Json::parse(&result_line(&outcome)).expect("result line parses");
                let keys: Vec<&str> =
                    line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                let metrics = line.get("metrics").unwrap().as_object().unwrap();
                let want = if traced { spec::PER_LAYER.len() } else { spec::END_TO_END.len() };
                assert_eq!(metrics.len(), want);
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{}: {name} = {v:?}", w.name);
                    assert!(m.get("unit").and_then(Json::as_str).is_some_and(|u| !u.is_empty()));
                }
            }
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let argv: Vec<String> = "--workload wire-mixed-2loop --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.unwrap().name, "wire-mixed-2loop");
        assert!(args.traced);
        assert_eq!((args.opts.seed, args.opts.seconds, args.opts.scale), (9, 3.0, 1));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
