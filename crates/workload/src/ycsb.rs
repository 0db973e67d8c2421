//! The six core YCSB workloads (A–F), hot-spot skew, and multi-tenant
//! interference mixes.
//!
//! The paper's Table 2 covers the MICA-style read/write mixes; this
//! module adds the canonical YCSB suite (Cooper et al., SoCC '10) used
//! by the tenant test battery:
//!
//! | Workload | Mix                         | Distribution |
//! |----------|-----------------------------|--------------|
//! | A        | 50% read / 50% update       | zipfian      |
//! | B        | 95% read / 5% update        | zipfian      |
//! | C        | 100% read                   | zipfian      |
//! | D        | 95% read / 5% insert        | latest       |
//! | E        | 95% scan / 5% insert        | zipfian      |
//! | F        | 50% read / 50% RMW          | zipfian      |
//!
//! All generators are deterministic functions of their seed: the same
//! seed yields the identical op stream on every run and platform (no
//! `HashMap` iteration, no floats whose rounding differs by target —
//! the float math here is IEEE-754 double ops that Rust evaluates
//! identically everywhere).
//!
//! [`HotSpot`] models hot-key skew directly: a fraction of the key
//! space (the hot set) receives a fixed fraction of the accesses,
//! uniformly within each set. [`MultiTenantMix`] describes an
//! interference scenario — several tenants, each with its own workload,
//! weight, and key space — feeding the fairness tests, the wall-clock
//! victim-p99 gate among them.

use crate::rng::SplitMix64;
use crate::zipf::Zipfian;

/// One of the six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50% read, 50% update, zipfian.
    A,
    /// 95% read, 5% update, zipfian.
    B,
    /// 100% read, zipfian.
    C,
    /// 95% read, 5% insert, latest.
    D,
    /// 95% scan, 5% insert, zipfian.
    E,
    /// 50% read, 50% read-modify-write, zipfian.
    F,
}

/// Nominal operation mix of a YCSB workload, in percent. The five
/// fields sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YcsbMix {
    /// Point reads.
    pub read_pct: u8,
    /// Full-value overwrites.
    pub update_pct: u8,
    /// Inserts of fresh keys (grow the key space).
    pub insert_pct: u8,
    /// Short range scans.
    pub scan_pct: u8,
    /// Read-modify-write cycles.
    pub rmw_pct: u8,
}

impl YcsbWorkload {
    /// All six workloads in order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// Parses `"A"`/`"a"`/`"ycsb-a"` style names.
    pub fn by_name(name: &str) -> Option<YcsbWorkload> {
        let tail = name.rsplit(['-', '_']).next().unwrap_or(name);
        match tail.to_ascii_uppercase().as_str() {
            "A" => Some(YcsbWorkload::A),
            "B" => Some(YcsbWorkload::B),
            "C" => Some(YcsbWorkload::C),
            "D" => Some(YcsbWorkload::D),
            "E" => Some(YcsbWorkload::E),
            "F" => Some(YcsbWorkload::F),
            _ => None,
        }
    }

    /// The workload's single-letter name.
    pub fn name(&self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }

    /// The workload's nominal operation mix.
    pub fn mix(&self) -> YcsbMix {
        match self {
            YcsbWorkload::A => {
                YcsbMix { read_pct: 50, update_pct: 50, insert_pct: 0, scan_pct: 0, rmw_pct: 0 }
            }
            YcsbWorkload::B => {
                YcsbMix { read_pct: 95, update_pct: 5, insert_pct: 0, scan_pct: 0, rmw_pct: 0 }
            }
            YcsbWorkload::C => {
                YcsbMix { read_pct: 100, update_pct: 0, insert_pct: 0, scan_pct: 0, rmw_pct: 0 }
            }
            YcsbWorkload::D => {
                YcsbMix { read_pct: 95, update_pct: 0, insert_pct: 5, scan_pct: 0, rmw_pct: 0 }
            }
            YcsbWorkload::E => {
                YcsbMix { read_pct: 0, update_pct: 0, insert_pct: 5, scan_pct: 95, rmw_pct: 0 }
            }
            YcsbWorkload::F => {
                YcsbMix { read_pct: 50, update_pct: 0, insert_pct: 0, scan_pct: 0, rmw_pct: 50 }
            }
        }
    }

    /// Whether reads draw from the latest-skewed distribution (D) or
    /// the scrambled zipfian (everything else).
    pub fn is_latest(&self) -> bool {
        matches!(self, YcsbWorkload::D)
    }
}

/// One generated YCSB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point read of the key.
    Read(u64),
    /// Overwrite of the key.
    Update(u64),
    /// Insert of a fresh key (the id is new; the key space grew).
    Insert(u64),
    /// Range scan: start key id and record count.
    Scan(u64, u32),
    /// Read-modify-write of the key.
    ReadModifyWrite(u64),
}

impl YcsbOp {
    /// The key id this operation targets (scan: its start).
    pub fn key_id(&self) -> u64 {
        match *self {
            YcsbOp::Read(k)
            | YcsbOp::Update(k)
            | YcsbOp::Insert(k)
            | YcsbOp::Scan(k, _)
            | YcsbOp::ReadModifyWrite(k) => k,
        }
    }

    /// True when the operation mutates the store.
    pub fn is_write(&self) -> bool {
        matches!(self, YcsbOp::Update(_) | YcsbOp::Insert(_) | YcsbOp::ReadModifyWrite(_))
    }
}

/// YCSB's maximum scan length (records per scan, drawn uniformly).
pub const MAX_SCAN_LEN: u32 = 100;

/// A deterministic generator for one YCSB workload.
///
/// Inserts grow the key space: ids `[0, initial)` are assumed loaded,
/// and each insert takes the next id. The zipfian sampler is built over
/// the initial key space (rebuilding zeta per insert is what YCSB
/// avoids too); reads in workload D chase the insertion frontier.
#[derive(Debug, Clone)]
pub struct YcsbGenerator {
    workload: YcsbWorkload,
    rng: SplitMix64,
    zipf: Zipfian,
    /// Next id an insert will claim == number of existing keys.
    frontier: u64,
}

impl YcsbGenerator {
    /// A generator over `num_keys` preloaded keys.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0`.
    pub fn new(workload: YcsbWorkload, num_keys: u64, seed: u64) -> Self {
        assert!(num_keys > 0, "workloads need at least one key");
        Self {
            workload,
            rng: SplitMix64::new(seed),
            zipf: Zipfian::new(num_keys, 0.99),
            frontier: num_keys,
        }
    }

    /// The workload this generator follows.
    pub fn workload(&self) -> YcsbWorkload {
        self.workload
    }

    /// Number of keys that currently exist (preloaded + inserted).
    pub fn num_keys(&self) -> u64 {
        self.frontier
    }

    /// Draws an existing key id according to the workload's read
    /// distribution.
    fn next_existing_key(&mut self) -> u64 {
        if self.workload.is_latest() {
            // Rank 0 = the most recently inserted key.
            let rank = self.zipf.next(&mut self.rng).min(self.frontier - 1);
            self.frontier - 1 - rank
        } else {
            self.zipf.next_scrambled(&mut self.rng) % self.frontier
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let mix = self.workload.mix();
        let roll = self.rng.next_below(100) as u8;
        let mut edge = mix.read_pct;
        if roll < edge {
            return YcsbOp::Read(self.next_existing_key());
        }
        edge += mix.update_pct;
        if roll < edge {
            return YcsbOp::Update(self.next_existing_key());
        }
        edge += mix.insert_pct;
        if roll < edge {
            let id = self.frontier;
            self.frontier += 1;
            return YcsbOp::Insert(id);
        }
        edge += mix.scan_pct;
        if roll < edge {
            let start = self.next_existing_key();
            let len = 1 + self.rng.next_below(MAX_SCAN_LEN as u64) as u32;
            return YcsbOp::Scan(start, len);
        }
        YcsbOp::ReadModifyWrite(self.next_existing_key())
    }
}

/// Hot-key skew: `hot_key_fraction` of the key space absorbs
/// `hot_op_fraction` of the accesses (YCSB's hotspot distribution),
/// uniform within each set. Sharper than zipfian at the same nominal
/// skew — the canonical "one viral key per shard" stress shape.
#[derive(Debug, Clone)]
pub struct HotSpot {
    num_keys: u64,
    hot_keys: u64,
    /// Accesses landing in the hot set, in percent.
    hot_op_pct: u8,
    rng: SplitMix64,
}

impl HotSpot {
    /// A hotspot sampler where `hot_key_pct`% of keys receive
    /// `hot_op_pct`% of draws.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0` or either percentage exceeds 100.
    pub fn new(num_keys: u64, hot_key_pct: u8, hot_op_pct: u8, seed: u64) -> Self {
        assert!(num_keys > 0, "hotspot needs at least one key");
        assert!(hot_key_pct <= 100 && hot_op_pct <= 100);
        let hot_keys = (num_keys * hot_key_pct as u64 / 100).max(1);
        Self { num_keys, hot_keys, hot_op_pct, rng: SplitMix64::new(seed) }
    }

    /// Number of keys in the hot set.
    pub fn hot_keys(&self) -> u64 {
        self.hot_keys
    }

    /// Draws a key id.
    pub fn next_key(&mut self) -> u64 {
        if (self.rng.next_below(100) as u8) < self.hot_op_pct {
            self.rng.next_below(self.hot_keys)
        } else if self.hot_keys < self.num_keys {
            self.hot_keys + self.rng.next_below(self.num_keys - self.hot_keys)
        } else {
            self.rng.next_below(self.num_keys)
        }
    }
}

/// One tenant's share of a multi-tenant interference scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    /// Tenant id (the wire handshake's namespace).
    pub tenant: u32,
    /// Admission weight the server should be configured with.
    pub weight: u32,
    /// The tenant's workload.
    pub workload: YcsbWorkload,
    /// The tenant's private key-space size.
    pub num_keys: u64,
    /// Concurrent connections this tenant drives.
    pub connections: usize,
}

/// A multi-tenant interference scenario: several tenants hammering one
/// server, each from its own namespace. Feeds the wall-clock fairness
/// test (`crates/net/tests/fairness.rs`).
#[derive(Debug, Clone)]
pub struct MultiTenantMix {
    /// Participating tenants.
    pub loads: Vec<TenantLoad>,
}

impl MultiTenantMix {
    /// The canonical aggressor/victim pair: tenant 1 is a well-behaved
    /// read-mostly victim (YCSB-B), tenant 2 an update-flooding
    /// aggressor (YCSB-A) driving `aggressor_factor`× the victim's
    /// connection count. Equal weights — fairness must come from the
    /// admission gate, not from starving the aggressor by configuration.
    pub fn aggressor_victim(num_keys: u64, aggressor_factor: usize) -> Self {
        Self {
            loads: vec![
                TenantLoad {
                    tenant: 1,
                    weight: 1,
                    workload: YcsbWorkload::B,
                    num_keys,
                    connections: 2,
                },
                TenantLoad {
                    tenant: 2,
                    weight: 1,
                    workload: YcsbWorkload::A,
                    num_keys,
                    connections: 2 * aggressor_factor.max(1),
                },
            ],
        }
    }

    /// A deterministic generator per (tenant, connection), seeded from
    /// `seed`, the tenant id, and the connection index — so every run
    /// of the scenario replays the identical per-connection op streams.
    pub fn generators(&self, seed: u64) -> Vec<(TenantLoad, YcsbGenerator)> {
        let mut out = Vec::new();
        for load in &self.loads {
            for conn in 0..load.connections {
                let s = seed ^ ((load.tenant as u64) << 32) ^ ((conn as u64) << 16);
                out.push((*load, YcsbGenerator::new(load.workload, load.num_keys, s)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100() {
        for w in YcsbWorkload::ALL {
            let m = w.mix();
            let total = m.read_pct as u32
                + m.update_pct as u32
                + m.insert_pct as u32
                + m.scan_pct as u32
                + m.rmw_pct as u32;
            assert_eq!(total, 100, "workload {} mix must sum to 100", w.name());
        }
    }

    #[test]
    fn names_roundtrip() {
        for w in YcsbWorkload::ALL {
            assert_eq!(YcsbWorkload::by_name(w.name()), Some(w));
        }
        assert_eq!(YcsbWorkload::by_name("ycsb-a"), Some(YcsbWorkload::A));
        assert_eq!(YcsbWorkload::by_name("YCSB_F"), Some(YcsbWorkload::F));
        assert_eq!(YcsbWorkload::by_name("G"), None);
    }

    #[test]
    fn inserts_grow_the_key_space() {
        let mut g = YcsbGenerator::new(YcsbWorkload::D, 100, 1);
        let before = g.num_keys();
        let mut inserted = Vec::new();
        for _ in 0..2000 {
            if let YcsbOp::Insert(id) = g.next_op() {
                inserted.push(id);
            }
        }
        assert!(!inserted.is_empty(), "D inserts 5% of ops");
        // Ids are dense and ascending from the initial frontier.
        for (i, id) in inserted.iter().enumerate() {
            assert_eq!(*id, before + i as u64);
        }
        assert_eq!(g.num_keys(), before + inserted.len() as u64);
    }

    #[test]
    fn scans_have_bounded_length() {
        let mut g = YcsbGenerator::new(YcsbWorkload::E, 1000, 2);
        let mut scans = 0;
        for _ in 0..2000 {
            if let YcsbOp::Scan(start, len) = g.next_op() {
                scans += 1;
                assert!((1..=MAX_SCAN_LEN).contains(&len));
                assert!(start < g.num_keys());
            }
        }
        assert!(scans > 1500, "E is 95% scans, got {scans}/2000");
    }

    #[test]
    fn hotspot_concentrates() {
        let mut h = HotSpot::new(10_000, 10, 90, 3);
        let mut hot = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            if h.next_key() < h.hot_keys() {
                hot += 1;
            }
        }
        let frac = hot as f64 / draws as f64;
        assert!((frac - 0.9).abs() < 0.02, "90% of draws should hit the hot 10%, got {frac}");
    }

    #[test]
    fn aggressor_victim_shape() {
        let mix = MultiTenantMix::aggressor_victim(1000, 4);
        assert_eq!(mix.loads.len(), 2);
        assert_eq!(mix.loads[0].tenant, 1);
        assert_eq!(mix.loads[1].tenant, 2);
        assert!(mix.loads[1].connections > mix.loads[0].connections);
        let gens = mix.generators(9);
        assert_eq!(gens.len(), mix.loads[0].connections + mix.loads[1].connections);
        // Distinct (tenant, connection) pairs get distinct streams.
        let mut a = gens[0].1.clone();
        let mut b = gens[1].1.clone();
        let sa: Vec<_> = (0..50).map(|_| a.next_op()).collect();
        let sb: Vec<_> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(sa, sb);
    }
}
