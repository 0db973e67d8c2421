//! YCSB-style workload generation for the ShieldStore reproduction.
//!
//! The paper evaluates with the two workload patterns of MICA (Lim et al.) /
//! YCSB: keys drawn uniformly or from a zipfian distribution with
//! skewness 0.99, in read/write mixes of 50:50, 95:5 and 100:0, plus a
//! read-latest and a read-modify-write configuration (Table 2), over three
//! data-size points (Table 3: 16 B keys with 16/128/512 B values).
//!
//! * [`rng::SplitMix64`] — the deterministic PRNG every generator uses.
//! * [`zipf::Zipfian`] — the YCSB zipfian generator (incl. scrambling).
//! * [`Spec`] / [`TABLE2`] — the paper's workload configurations.
//! * [`DataSize`] / [`TABLE3`] — the paper's data-size configurations.
//! * [`Generator`] — turns a spec into a deterministic [`Op`] stream, the
//!   workspace's one op generator (YCSB-A and YCSB-B are `RD50_Z` and
//!   `RD95_Z`).
//!
//! # Examples
//!
//! ```
//! use shield_workload::{Generator, Spec, DataSize};
//!
//! let spec = Spec::by_name("RD95_Z").unwrap();
//! let mut generator = Generator::new(spec, 10_000, 42);
//! let op = generator.next_op();
//! let key = DataSize::SMALL.key(op.key_id());
//! assert_eq!(key.len(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod zipf;

use rng::SplitMix64;
use zipf::Zipfian;

/// Key distribution (Table 2's third column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with the given skewness theta (YCSB default 0.99).
    Zipfian(f64),
    /// Skewed toward the most recently inserted keys.
    Latest,
}

/// The mutation flavour of a workload's write portion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Plain `set` of a fresh value.
    Set,
    /// Server-side `append` (Fig. 12).
    Append,
    /// Read-modify-write: `get` then `set` of a derived value.
    ReadModifyWrite,
}

/// A workload configuration (one row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name as printed in the paper (e.g. `RD95_Z`).
    pub name: &'static str,
    /// Percentage of `get` operations (0-100).
    pub read_pct: u8,
    /// What the non-read operations do.
    pub write_op: WriteOp,
    /// Key distribution.
    pub dist: Distribution,
}

impl Spec {
    /// Looks a spec up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Spec> {
        TABLE2
            .iter()
            .chain(APPEND_SPECS.iter())
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .copied()
    }
}

/// The eight workload configurations of Table 2.
pub const TABLE2: [Spec; 8] = [
    Spec { name: "RD50_U", read_pct: 50, write_op: WriteOp::Set, dist: Distribution::Uniform },
    Spec { name: "RD95_U", read_pct: 95, write_op: WriteOp::Set, dist: Distribution::Uniform },
    Spec { name: "RD100_U", read_pct: 100, write_op: WriteOp::Set, dist: Distribution::Uniform },
    Spec {
        name: "RD50_Z",
        read_pct: 50,
        write_op: WriteOp::Set,
        dist: Distribution::Zipfian(0.99),
    },
    Spec {
        name: "RD95_Z",
        read_pct: 95,
        write_op: WriteOp::Set,
        dist: Distribution::Zipfian(0.99),
    },
    Spec {
        name: "RD100_Z",
        read_pct: 100,
        write_op: WriteOp::Set,
        dist: Distribution::Zipfian(0.99),
    },
    Spec { name: "RD95_L", read_pct: 95, write_op: WriteOp::Set, dist: Distribution::Latest },
    Spec {
        name: "RMW50_Z",
        read_pct: 50,
        write_op: WriteOp::ReadModifyWrite,
        dist: Distribution::Zipfian(0.99),
    },
];

/// The append-workload mixes of Fig. 12.
pub const APPEND_SPECS: [Spec; 4] = [
    Spec {
        name: "AP95_Z99",
        read_pct: 95,
        write_op: WriteOp::Append,
        dist: Distribution::Zipfian(0.99),
    },
    Spec {
        name: "AP95_Z50",
        read_pct: 95,
        write_op: WriteOp::Append,
        dist: Distribution::Zipfian(0.5),
    },
    Spec { name: "AP95_U", read_pct: 95, write_op: WriteOp::Append, dist: Distribution::Uniform },
    Spec { name: "AP50_U", read_pct: 50, write_op: WriteOp::Append, dist: Distribution::Uniform },
];

/// A data-size configuration (one row of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSize {
    /// Name as printed in the paper.
    pub name: &'static str,
    /// Key size in bytes.
    pub key_len: usize,
    /// Value size in bytes.
    pub val_len: usize,
}

/// Table 3's three rows.
pub const TABLE3: [DataSize; 3] = [DataSize::SMALL, DataSize::MEDIUM, DataSize::LARGE];

impl DataSize {
    /// Small: 16 B keys, 16 B values.
    pub const SMALL: DataSize = DataSize { name: "Small", key_len: 16, val_len: 16 };
    /// Medium: 16 B keys, 128 B values.
    pub const MEDIUM: DataSize = DataSize { name: "Medium", key_len: 16, val_len: 128 };
    /// Large: 16 B keys, 512 B values.
    pub const LARGE: DataSize = DataSize { name: "Large", key_len: 16, val_len: 512 };

    /// Renders key `id` as exactly `key_len` bytes (decimal, zero-padded,
    /// `k`-prefixed).
    pub fn key(&self, id: u64) -> Vec<u8> {
        make_key(id, self.key_len)
    }

    /// Produces a deterministic value of `val_len` bytes for `(id, round)`.
    pub fn value(&self, id: u64, round: u64) -> Vec<u8> {
        make_value(id, round, self.val_len)
    }
}

/// Renders key `id` as exactly `len` bytes.
pub fn make_key(id: u64, len: usize) -> Vec<u8> {
    let digits = len.saturating_sub(1).max(1);
    let mut s = format!("k{id:0digits$}");
    s.truncate(len);
    while s.len() < len {
        s.push('0');
    }
    s.into_bytes()
}

/// Produces a deterministic pseudo-random value of `len` bytes.
pub fn make_value(id: u64, round: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(id ^ round.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15);
    let mut v = vec![0u8; len];
    for chunk in v.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&word[..n]);
    }
    v
}

/// One generated operation, carrying the target key id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the key.
    Get(u64),
    /// Overwrite the key.
    Set(u64),
    /// Append to the key.
    Append(u64),
    /// Read, derive, write back.
    ReadModifyWrite(u64),
}

impl Op {
    /// The key id this operation targets.
    pub fn key_id(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Set(k) | Op::Append(k) | Op::ReadModifyWrite(k) => k,
        }
    }

    /// True when the operation mutates the store.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get(_))
    }
}

/// A deterministic operation stream for one workload spec.
pub struct Generator {
    spec: Spec,
    num_keys: u64,
    rng: SplitMix64,
    zipf: Option<Zipfian>,
    /// For `Latest`: zipfian over recency ranks.
    latest_zipf: Option<Zipfian>,
    round: u64,
}

impl Generator {
    /// Creates a generator over `num_keys` keys with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0`.
    pub fn new(spec: Spec, num_keys: u64, seed: u64) -> Self {
        assert!(num_keys > 0, "workloads need at least one key");
        let zipf = match spec.dist {
            Distribution::Zipfian(theta) => Some(Zipfian::new(num_keys, theta)),
            _ => None,
        };
        let latest_zipf = match spec.dist {
            Distribution::Latest => Some(Zipfian::new(num_keys, 0.99)),
            _ => None,
        };
        Self { spec, num_keys, rng: SplitMix64::new(seed), zipf, latest_zipf, round: 0 }
    }

    /// The spec this generator follows.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The key-space size.
    pub fn num_keys(&self) -> u64 {
        self.num_keys
    }

    /// Draws the next key id according to the distribution.
    pub fn next_key(&mut self) -> u64 {
        match self.spec.dist {
            Distribution::Uniform => self.rng.next_below(self.num_keys),
            Distribution::Zipfian(_) => {
                let z = self.zipf.as_mut().expect("zipf generator present");
                z.next_scrambled(&mut self.rng) % self.num_keys
            }
            Distribution::Latest => {
                // Rank 0 = the most recently written key id (ids ascend
                // with insertion order, so "latest" = highest id).
                let z = self.latest_zipf.as_mut().expect("latest generator present");
                let rank = z.next(&mut self.rng);
                self.num_keys - 1 - rank
            }
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.next_key();
        let roll = self.rng.next_below(100) as u8;
        if roll < self.spec.read_pct {
            Op::Get(key)
        } else {
            self.round += 1;
            match self.spec.write_op {
                WriteOp::Set => Op::Set(key),
                WriteOp::Append => Op::Append(key),
                WriteOp::ReadModifyWrite => Op::ReadModifyWrite(key),
            }
        }
    }

    /// The current write round (used to vary generated values).
    pub fn round(&self) -> u64 {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_paper_rows() {
        assert_eq!(TABLE2.len(), 8);
        let names: Vec<_> = TABLE2.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["RD50_U", "RD95_U", "RD100_U", "RD50_Z", "RD95_Z", "RD100_Z", "RD95_L", "RMW50_Z"]
        );
        assert_eq!(Spec::by_name("rd95_z").unwrap().read_pct, 95);
        assert!(Spec::by_name("nope").is_none());
    }

    #[test]
    fn table3_matches_paper() {
        assert_eq!(DataSize::SMALL.val_len, 16);
        assert_eq!(DataSize::MEDIUM.val_len, 128);
        assert_eq!(DataSize::LARGE.val_len, 512);
        for d in TABLE3 {
            assert_eq!(d.key_len, 16);
        }
    }

    #[test]
    fn keys_have_exact_length_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..1000u64 {
            let k = make_key(id, 16);
            assert_eq!(k.len(), 16);
            assert!(seen.insert(k));
        }
        assert_eq!(make_key(7, 4).len(), 4);
    }

    #[test]
    fn values_deterministic_and_round_dependent() {
        assert_eq!(make_value(5, 0, 128), make_value(5, 0, 128));
        assert_ne!(make_value(5, 0, 128), make_value(5, 1, 128));
        assert_ne!(make_value(5, 0, 128), make_value(6, 0, 128));
        assert_eq!(make_value(1, 1, 13).len(), 13);
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = Spec::by_name("RD50_Z").unwrap();
        let mut a = Generator::new(spec, 1000, 7);
        let mut b = Generator::new(spec, 1000, 7);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = Generator::new(spec, 1000, 8);
        let ops_a: Vec<_> = (0..100).map(|_| a.next_op()).collect();
        let ops_c: Vec<_> = (0..100).map(|_| c.next_op()).collect();
        assert_ne!(ops_a, ops_c);
    }

    #[test]
    fn read_ratio_approximates_spec() {
        for (name, expect) in [("RD50_U", 0.50), ("RD95_Z", 0.95), ("RD100_Z", 1.0)] {
            let mut g = Generator::new(Spec::by_name(name).unwrap(), 10_000, 3);
            let n = 20_000;
            let reads = (0..n).filter(|_| !g.next_op().is_write()).count();
            let ratio = reads as f64 / n as f64;
            assert!(
                (ratio - expect).abs() < 0.02,
                "{name}: observed read ratio {ratio}, expected {expect}"
            );
        }
    }

    #[test]
    fn uniform_covers_key_space() {
        let mut g = Generator::new(Spec::by_name("RD100_U").unwrap(), 16, 5);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[g.next_key() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipfian_is_skewed() {
        let n = 10_000u64;
        let mut g = Generator::new(Spec::by_name("RD100_Z").unwrap(), n, 5);
        let mut counts = std::collections::HashMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(g.next_key()).or_insert(0u64) += 1;
        }
        // Top-1% of keys should receive far more than 1% of draws.
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = freqs.iter().take((n / 100) as usize).sum();
        assert!(
            top as f64 / draws as f64 > 0.3,
            "zipfian 0.99 should concentrate >30% of draws on the top 1% of keys, got {}",
            top as f64 / draws as f64
        );
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let n = 10_000u64;
        let mut g = Generator::new(Spec::by_name("RD95_L").unwrap(), n, 5);
        let mut high = 0u64;
        let draws = 10_000;
        for _ in 0..draws {
            if g.next_key() >= n - n / 10 {
                high += 1;
            }
        }
        assert!(
            high as f64 / draws as f64 > 0.5,
            "latest should focus on the newest 10% of keys, got {}",
            high as f64 / draws as f64
        );
    }

    #[test]
    fn rmw_spec_emits_rmw_ops() {
        let mut g = Generator::new(Spec::by_name("RMW50_Z").unwrap(), 100, 1);
        let ops: Vec<_> = (0..200).map(|_| g.next_op()).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::ReadModifyWrite(_))));
        assert!(ops.iter().all(|o| !matches!(o, Op::Set(_) | Op::Append(_))));
    }

    #[test]
    fn append_specs_emit_appends() {
        let mut g = Generator::new(Spec::by_name("AP50_U").unwrap(), 100, 1);
        let ops: Vec<_> = (0..200).map(|_| g.next_op()).collect();
        let appends = ops.iter().filter(|o| matches!(o, Op::Append(_))).count();
        assert!(appends > 60 && appends < 140, "~50% appends expected, got {appends}");
    }
}
