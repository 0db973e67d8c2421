//! `shieldstore_adversary`: run the deterministic adversary harness over
//! a range of seeds and report any trichotomy violation with the seed
//! that reproduces it.
//!
//! ```text
//! shieldstore_adversary [--seed S | --seeds N] [--start S0] [--steps K] [--no-wire]
//!                       [--overload-seeds K] [--report PATH]
//! ```
//!
//! Each phase counts into a tally; the summary prints every phase's
//! tally summed over the seeds, then the totals: every counter more than
//! one phase names, summed over the phases.
//! `--report PATH` additionally writes them as JSON — `totals`, `phases`
//! (one object per phase) and the failing seeds — which CI uploads as a
//! build artifact.
//!
//! Exit status is non-zero iff any seed found a violation; the offending
//! seed is printed as `FAIL seed=<s>` so it can be replayed alone with
//! `--seed <s>`.

use adversary::{run_overload_seed, run_seed, totals, Tallies, Tally};

struct Args {
    start: u64,
    count: u64,
    steps: u64,
    wire: bool,
    overload: u64,
    report: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { start: 0, count: 50, steps: 400, wire: true, overload: 4, report: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--seed" => {
                args.start = value("--seed");
                args.count = 1;
            }
            "--seeds" => args.count = value("--seeds"),
            "--start" => args.start = value("--start"),
            "--steps" => args.steps = value("--steps"),
            "--no-wire" => args.wire = false,
            "--overload-seeds" => args.overload = value("--overload-seeds"),
            "--report" => {
                args.report = Some(it.next().unwrap_or_else(|| panic!("--report needs a path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: shieldstore_adversary [--seed S | --seeds N] [--start S0] \
                     [--steps K] [--no-wire] [--overload-seeds K] [--report PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut phases = Tallies::new();
    let mut failed_seeds: Vec<u64> = Vec::new();

    for seed in args.start..args.start + args.count {
        match run_seed(seed, args.steps, args.wire) {
            Ok(tallies) => absorb(&mut phases, tallies),
            Err(violation) => {
                failed_seeds.push(seed);
                println!("FAIL seed={seed}");
                println!("  {violation}");
                println!("  replay with: cargo run -p adversary -- --seed {seed}");
            }
        }
    }
    for seed in args.start..args.start + args.overload {
        match run_overload_seed(seed) {
            Ok(tallies) => absorb(&mut phases, tallies),
            Err(violation) => {
                failed_seeds.push(seed);
                println!("FAIL overload seed={seed}");
                println!("  {violation}");
            }
        }
    }

    for (name, tally) in &phases {
        println!("{name} phase: {tally}");
    }
    let totals = totals(&phases);
    println!(
        "adversary: {} seeds ({} overload), {totals}, {}",
        args.count,
        args.overload,
        if failed_seeds.is_empty() { "zero trichotomy violations" } else { "FAILURES FOUND" },
    );

    if let Some(path) = &args.report {
        match std::fs::write(path, report_json(&args, &totals, &phases, &failed_seeds)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if !failed_seeds.is_empty() {
        std::process::exit(1);
    }
}

/// Adds one seed's tallies to the running ones, phase by phase.
fn absorb(phases: &mut Tallies, seed: Tallies) {
    for (name, tally) in seed {
        match phases.iter_mut().find(|(seen, _)| *seen == name) {
            Some((_, total)) => total.merge(&tally),
            None => phases.push((name, tally)),
        }
    }
}

/// The JSON summary (no serde in the tree): run parameters, the totals,
/// each phase's tally, and any failing seeds.
fn report_json(args: &Args, totals: &Tally, phases: &Tallies, failed_seeds: &[u64]) -> String {
    let phases: Vec<String> =
        phases.iter().map(|(name, tally)| format!("    \"{name}\": {}", tally.json())).collect();
    let seeds: Vec<String> = failed_seeds.iter().map(u64::to_string).collect();
    let fields = [
        ("harness", "\"shieldstore_adversary\"".to_string()),
        ("start_seed", args.start.to_string()),
        ("seeds", args.count.to_string()),
        ("steps_per_seed", args.steps.to_string()),
        ("wire_phase", args.wire.to_string()),
        ("overload_seeds", args.overload.to_string()),
        ("totals", totals.json()),
        ("phases", format!("{{\n{}\n  }}", phases.join(",\n"))),
        ("failed_seeds", format!("[{}]", seeds.join(", "))),
    ];
    let lines: Vec<String> =
        fields.iter().map(|(key, value)| format!("  \"{key}\": {value}")).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}
