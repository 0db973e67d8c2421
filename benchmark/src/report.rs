//! The results envelope (provenance + every workload's metrics), its
//! printed form, and `compare` between two envelopes.

use crate::json::Json;
use crate::pass::SEGMENT;
use crate::runs::{Options, Outcome};
use crate::spec::{better, Workload, END_TO_END, PER_LAYER};
use std::path::Path;

/// The checked-out commit, read from `.git` by hand (the benchmark
/// starts no processes); "unknown" in an exported tree.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let mut dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")));
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Some(head) = read(&git.join("HEAD")) {
            let Some(reference) = head.strip_prefix("ref: ") else { return head };
            return read(&git.join(reference))
                .or_else(|| {
                    let packed = read(&git.join("packed-refs"))?;
                    let line = packed.lines().find(|l| l.ends_with(reference))?;
                    Some(line.split(' ').next()?.to_string())
                })
                .unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent();
    }
    "unknown".into()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where, on what and with which inputs the numbers were taken.
pub fn provenance(opts: &Options) -> Vec<(String, Json)> {
    let pairs = [
        ("benchmark", Json::str("shieldstore")),
        ("commit", Json::Str(commit())),
        ("cpu", Json::Str(cpu_model())),
        ("nproc", Json::Num(opts.nproc as f64)),
        ("pinned_cpu", opts.pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64))),
        ("crypto_backend", Json::str(shield_crypto::stats::backend_name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("run_seconds", Json::Num(opts.seconds)),
        ("segment_ms", Json::Num(SEGMENT.as_millis() as f64)),
        ("scale_divisor", Json::Num(opts.scale as f64)),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `{"name": {"value": v, "unit": u}, ...}` — the shape the driver reads.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value)| {
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit_of(name)))]))
    }))
}

/// Prints every metric of a run by name, with its unit.
pub fn print_metrics(w: &Workload, kind: &str, outcome: &Outcome) {
    println!("== {} ({kind}) ==", w.name);
    for (name, value) in &outcome.metrics {
        println!("{name:<40} {value:>16.4} {}", unit_of(name));
    }
    println!("{:<40} {:>16}", "attempted_ops", outcome.attempted);
    println!("{:<40} {:>16}", "failed_ops", outcome.failed);
    println!("detail: {}", outcome.detail.to_line());
    for reason in &outcome.invalid {
        println!("INVALID: {reason}");
    }
}

/// One workload's entry in the results file.
pub fn workload_json(w: &Workload, end_to_end: &Outcome, traced: &Outcome) -> Json {
    Json::obj([
        ("name", Json::str(w.name)),
        ("attempted_ops", Json::Num((end_to_end.attempted + traced.attempted) as f64)),
        ("failed_ops", Json::Num((end_to_end.failed + traced.failed) as f64)),
        ("end_to_end", metrics_json(&end_to_end.metrics)),
        ("end_to_end_detail", end_to_end.detail.clone()),
        ("per_layer", metrics_json(&traced.metrics)),
        ("per_layer_detail", traced.detail.clone()),
    ])
}

fn value_at(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Verdict on one workload x end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Breach,
    /// The segments of one run disagree by more than the bound, so a
    /// change of that size cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(worse_by: f64, bound: f64, spread: f64, timed: bool) -> Verdict {
    if timed && spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

/// Prints, per workload x end-to-end metric, both values, the relative
/// change and the verdict against the metric's bound. Returns the
/// number of breaches.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(doc.get("workloads").and_then(Json::as_array).ok_or("no \"workloads\" array")?.to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut breaches = 0;
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for entry_a in &wa {
        let name = entry_a.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let entry_b = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} missing from the second file"))?;
        let spread = [entry_a, entry_b]
            .iter()
            .filter_map(|w| value_at(w, "per_layer", "loadgen.segment_spread"))
            .fold(0.0, f64::max);
        for m in END_TO_END {
            let missing = || format!("{name}: {} missing", m.name);
            let va = value_at(entry_a, "end_to_end", m.name).ok_or_else(missing)?;
            let vb = value_at(entry_b, "end_to_end", m.name).ok_or_else(missing)?;
            // Only the metrics taken as a median over segments inherit
            // the segments' disagreement.
            let timed =
                matches!(m.name, "throughput_kops" | "latency_p50_us" | "effective_ns_per_op");
            let v = verdict(worsening(va, vb, m.higher_is_better), m.bound, spread, timed);
            breaches += usize::from(v == Verdict::Breach);
            println!(
                "{name:<22} {:<24} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%  {} ({} is better)",
                m.name,
                (vb - va) / va * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                },
                better(m.higher_is_better),
            );
        }
    }
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Throughput fell 12%: breach of a 10% bound; rose 12%: fine.
        assert_eq!(verdict(worsening(100.0, 88.0, true), 0.10, 0.01, true), Verdict::Breach);
        assert_eq!(verdict(worsening(100.0, 112.0, true), 0.10, 0.01, true), Verdict::Within);
        // Latency rose 5%: within 10%.
        assert_eq!(verdict(worsening(10.0, 10.5, false), 0.10, 0.01, true), Verdict::Within);
        // Noisy segments make a timed metric unresolved, a count never.
        assert_eq!(verdict(worsening(100.0, 88.0, true), 0.10, 0.2, true), Verdict::Unresolved);
        assert_eq!(verdict(worsening(400.0, 420.0, false), 0.02, 0.2, false), Verdict::Breach);
    }

    #[test]
    fn compare_counts_breaches() {
        let file = |kops: f64| {
            let e2e: Vec<(&'static str, f64)> = END_TO_END
                .iter()
                .map(|m| (m.name, if m.name == "throughput_kops" { kops } else { 1.0 }))
                .collect();
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("wire-read-small")),
                    ("end_to_end", metrics_json(&e2e)),
                    ("per_layer", metrics_json(&[("loadgen.segment_spread", 0.02)])),
                ])]),
            )])
        };
        assert_eq!(compare(&file(100.0), &file(95.0)), Ok(0));
        assert_eq!(compare(&file(100.0), &file(80.0)), Ok(1));
        assert!(compare(&file(100.0), &Json::obj([("workloads", Json::Arr(vec![]))])).is_err());
    }
}
