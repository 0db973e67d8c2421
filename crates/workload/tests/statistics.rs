//! Statistical validation of the workload generators.
//!
//! Skew and mix bugs in a workload generator silently invalidate every
//! benchmark built on it, so the distributions are checked against
//! their nominal shapes with a chi-squared goodness-of-fit test rather
//! than loose "is it skewed at all" heuristics:
//!
//! * `Zipfian(0.99)` rank frequencies vs the exact zipfian pmf.
//! * Table 2's read ratios vs their nominal shares.
//! * Uniform key draws vs their flat pmf.
//!
//! The significance level is 0.001 — with this few tests, a false
//! alarm roughly once per thousand CI runs — and every generator is
//! seeded, so a failure is always reproducible, never flaky.
//!
//! Determinism is pinned separately: the first ops of a fixed-seed
//! stream are asserted against literal golden values, which locks the
//! stream across runs, platforms, and refactors (an intentional
//! generator change must update the goldens, making stream breaks
//! visible in review).

use shield_workload::rng::SplitMix64;
use shield_workload::zipf::Zipfian;
use shield_workload::{Generator, Op, Spec};

/// Pearson's chi-squared statistic over observed counts vs expected
/// probabilities (which must sum to ~1).
fn chi_squared(observed: &[u64], expected_probs: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected_probs.len());
    let n: u64 = observed.iter().sum();
    let mut stat = 0.0;
    for (&obs, &p) in observed.iter().zip(expected_probs) {
        let exp = n as f64 * p;
        assert!(exp >= 5.0, "chi-squared needs >=5 expected per cell, got {exp}");
        let d = obs as f64 - exp;
        stat += d * d / exp;
    }
    stat
}

/// Critical value of the chi-squared distribution at significance
/// 0.001 via the Wilson–Hilferty cube approximation (accurate to a few
/// percent for df >= 3, conservative enough for a goodness-of-fit
/// gate).
fn chi_squared_crit_001(df: usize) -> f64 {
    let df = df as f64;
    let z = 3.0902; // z-score of the 99.9th percentile
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

#[test]
fn zipfian_099_matches_analytic_pmf() {
    // The sampler is Gray et al.'s rejection-free method: ranks 0 and 1
    // get their exact zipfian probabilities and the rest come from a
    // closed-form inverse-CDF approximation. Its per-rank pmf is
    // therefore analytic — derived below from the same constants — and
    // the chi-squared runs against *that*, which detects any
    // implementation or RNG regression. Fidelity to the true zipfian is
    // checked separately with tolerance bounds (the approximation is
    // within a few percent on the head, where the mass is).
    let n = 50u64;
    let theta = 0.99;
    let mut z = Zipfian::new(n, theta);
    let mut rng = SplitMix64::new(0x5eed_2a17);
    let draws = 200_000;
    let mut counts = vec![0u64; n as usize];
    for _ in 0..draws {
        counts[z.next(&mut rng) as usize] += 1;
    }

    // Reconstruct the sampler's constants.
    let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let zeta2 = 1.0 + 0.5f64.powf(theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
    // u below u0 -> rank 0; below u2 -> rank 1; above, rank is
    // floor(n * (eta*u - eta + 1)^(1/(1-theta))), whose inverse gives
    // the u-threshold at which the formula first yields rank r.
    let u0 = 1.0 / zetan;
    let u2 = zeta2 / zetan;
    let thresh = |r: u64| -> f64 {
        let t = ((r as f64 / n as f64).powf(1.0 - theta) - 1.0 + eta) / eta;
        t.clamp(u2, 1.0)
    };
    let mut probs = vec![0.0f64; n as usize];
    probs[0] = u0;
    probs[1] = u2 - u0;
    for r in 0..n {
        probs[r as usize] += thresh(r + 1) - thresh(r);
    }
    let total: f64 = probs.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "analytic pmf must sum to 1, got {total}");

    // Low-probability tail ranks are pooled so every chi-squared cell
    // keeps an expected count >= 5.
    let mut obs_cells: Vec<u64> = Vec::new();
    let mut prob_cells: Vec<f64> = Vec::new();
    let (mut pool_o, mut pool_p) = (0u64, 0.0f64);
    for (o, p) in counts.iter().zip(&probs) {
        if draws as f64 * p >= 5.0 {
            obs_cells.push(*o);
            prob_cells.push(*p);
        } else {
            pool_o += o;
            pool_p += p;
        }
    }
    if pool_p > 0.0 {
        obs_cells.push(pool_o);
        prob_cells.push(pool_p);
    }
    let stat = chi_squared(&obs_cells, &prob_cells);
    let crit = chi_squared_crit_001(prob_cells.len() - 1);
    assert!(stat < crit, "zipfian(0.99) chi2 {stat:.1} >= critical {crit:.1} at alpha=0.001");
}

#[test]
fn zipfian_099_head_mass_near_exact() {
    // Fidelity of the sampler to the true zipfian, within tolerance:
    // the hottest rank and the top-10 mass must sit within 10% of the
    // exact pmf, and empirical rank frequencies must be (weakly)
    // decreasing over the head.
    let n = 1000u64;
    let theta = 0.99;
    let mut z = Zipfian::new(n, theta);
    let mut rng = SplitMix64::new(0x2a17_5eed);
    let draws = 200_000u64;
    let mut counts = vec![0u64; n as usize];
    for _ in 0..draws {
        counts[z.next(&mut rng) as usize] += 1;
    }
    let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let exact = |rank: u64| 1.0 / ((rank + 1) as f64).powf(theta) / zetan;

    let p0 = counts[0] as f64 / draws as f64;
    assert!((p0 / exact(0) - 1.0).abs() < 0.10, "rank-0 mass {p0} vs exact {}", exact(0));
    let top10_obs: u64 = counts[..10].iter().sum();
    let top10_exact: f64 = (0..10).map(exact).sum();
    let ratio = top10_obs as f64 / draws as f64 / top10_exact;
    assert!((ratio - 1.0).abs() < 0.10, "top-10 mass off by {:.1}%", (ratio - 1.0) * 100.0);
    for r in 0..9 {
        assert!(
            counts[r] + draws / 200 >= counts[r + 1],
            "head must be (weakly) decreasing: rank {r} {} < rank {} {}",
            counts[r],
            r + 1,
            counts[r + 1]
        );
    }
}

#[test]
fn table2_read_ratios_match_nominal() {
    let draws = 50_000;
    for name in ["RD50_U", "RD95_Z", "RMW50_Z"] {
        let spec = Spec::by_name(name).unwrap();
        let mut g = Generator::new(spec, 10_000, 0x7ab1e2);
        let mut reads = 0u64;
        for _ in 0..draws {
            if !g.next_op().is_write() {
                reads += 1;
            }
        }
        let p = spec.read_pct as f64 / 100.0;
        let stat = chi_squared(&[reads, draws - reads], &[p, 1.0 - p]);
        let crit = chi_squared_crit_001(1);
        assert!(stat < crit, "{name} read ratio chi2 {stat:.1} >= {crit:.1}");
    }
}

#[test]
fn uniform_draws_are_flat() {
    let cells = 64u64;
    let mut g = Generator::new(Spec::by_name("RD100_U").unwrap(), cells, 0xf1a7);
    let mut counts = vec![0u64; cells as usize];
    for _ in 0..100_000 {
        counts[g.next_key() as usize] += 1;
    }
    let probs = vec![1.0 / cells as f64; cells as usize];
    let stat = chi_squared(&counts, &probs);
    let crit = chi_squared_crit_001(cells as usize - 1);
    assert!(stat < crit, "uniform chi2 {stat:.1} >= critical {crit:.1}");
}

/// Golden first ops of a fixed-seed stream. These literals pin the op
/// stream across platforms and refactors; update them only for an
/// intentional generator change.
#[test]
fn golden_streams_pinned() {
    let mut t2 = Generator::new(Spec::by_name("RD50_Z").unwrap(), 1000, 7);
    let got: Vec<Op> = (0..6).map(|_| t2.next_op()).collect();
    assert_eq!(
        got,
        vec![Op::Get(652), Op::Get(500), Op::Get(834), Op::Set(308), Op::Get(996), Op::Get(405),],
        "RD50_Z seed-7 golden stream changed — intentional generator change?"
    );
}
