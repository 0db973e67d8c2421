//! Operation statistics and whole-store snapshots.
//!
//! The paper's Fig. 9 reports the *number of decryptions* needed to find a
//! matching entry with and without the key hint; these counters make that
//! experiment (and several others) directly measurable.
//!
//! Every telemetry struct here is declared with
//! [`sgx_sim::stat_table!`]: one row per stat (name, [`Kind`], report
//! section) yields both the public field and a row of the struct's
//! `FIELDS` table. `merge`, `diff`, the wire words, the layout
//! fingerprint and both reports walk those tables, so adding a stat is
//! one row plus its producer. [`StatsSnapshot`] bundles the operation
//! counters with latency histograms, store-wide gauges, per-tenant rows
//! and the [`sgx_sim`] transition/EPC-fault counters into the single
//! unit the `Stats` wire opcode ships.

use crate::hist::{LatencyHist, OpHists, NUM_BUCKETS};
use sgx_sim::stats::StatsSnapshot as SimSnapshot;
pub use sgx_sim::stats::{Field, Kind};
use shield_crypto::siphash::SipHash24;
use std::fmt::Write as _;

sgx_sim::stat_table! {
    /// Per-shard operation counters. Plain fields — each shard is owned
    /// by one thread at a time, so no atomics are needed; the store
    /// aggregates across shards on demand.
    pub struct OpStats: u64 {
        /// `get` operations served.
        gets: Counter, "ops";
        /// `set` operations served.
        sets: Counter, "ops";
        /// `delete` operations served.
        deletes: Counter, "ops";
        /// `append` operations served.
        appends: Counter, "ops";
        /// `increment` operations served.
        increments: Counter, "ops";
        /// Operations that found their key.
        hits: Counter, "ops";
        /// Operations that did not find their key.
        misses: Counter, "ops";
        /// Key decryptions performed during searches (Fig. 9's metric).
        key_decryptions: Counter, "ops";
        /// Chain entries skipped thanks to a key-hint mismatch.
        hint_skips: Counter, "ops";
        /// Full decrypting scans performed by the two-step fallback.
        full_scans: Counter, "ops";
        /// Bucket-set MAC hash verifications performed.
        integrity_verifications: Counter, "ops";
        /// Entry MACs gathered for bucket-set verification.
        macs_gathered: Counter, "ops";
        /// New entries inserted.
        inserts: Counter, "ops";
        /// Entries updated in place (new data fit the old allocation).
        inplace_updates: Counter, "ops";
        /// Entries reallocated on update (new data outgrew the allocation).
        realloc_updates: Counter, "ops";
        /// In-enclave cache hits.
        cache_hits: Counter, "ops";
        /// In-enclave cache misses (cache enabled but key not present).
        cache_misses: Counter, "ops";
        /// Operations served from the temporary table during a snapshot.
        temp_table_ops: Counter, "ops";
        /// Batched calls (`multi_get`/`multi_set`) served.
        batches: Counter, "ops";
        /// Operations carried inside batched calls (`batch_ops / batches` is
        /// the average batch size).
        batch_ops: Counter, "ops";
        /// Bucket-set verifications skipped because an earlier op in the same
        /// batch already verified the set.
        batch_verifications_saved: Counter, "ops";
        /// Bucket-set hash recomputations skipped because a later write in
        /// the same batch touched the same set (the hash is stored once per
        /// batch per set, after the last write).
        batch_hash_updates_saved: Counter, "ops";
        /// Hits whose tag was not at their chain position among the
        /// bucket's tags and fell back to a membership scan (only ever
        /// non-zero after a structural attack on a bucket chain).
        side_mac_fallbacks: Counter, "ops";
        /// Operations rejected because their hash partition was quarantined
        /// after an integrity violation ([`crate::Config::quarantine`]).
        quarantine_rejections: Counter, "ops";
        /// Reads that found an entry past its deadline and hid it (lazy
        /// expiry; the entry stays resident until swept).
        expired_lazy: Counter, "ops";
        /// Expired entries physically reaped by the sweep.
        expired_swept: Counter, "ops";
        /// Writes rejected because they would exceed the tenant's quota
        /// ([`crate::TenantQuota`]).
        quota_rejections: Counter, "ops";
    }
}

impl OpStats {
    /// Merges another counter set into this one (field-table driven).
    pub fn merge(&mut self, other: &OpStats) {
        for f in Self::FIELDS {
            *(f.get_mut)(self) += (f.get)(other);
        }
    }

    /// The counter deltas since `earlier` (saturating per field), for
    /// interval reporting between two snapshots of the same store.
    pub fn diff(&self, earlier: &OpStats) -> OpStats {
        Field::diff(Self::FIELDS, self, earlier)
    }

    /// Total operations.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.sets + self.deletes + self.appends + self.increments
    }

    /// Average key decryptions per search-carrying operation.
    pub fn decryptions_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.key_decryptions as f64 / ops as f64
        }
    }
}

sgx_sim::stat_table! {
    /// Per-tenant counters shipped inside a [`StatsSnapshot`]: quota
    /// occupancy, op mix, and expiry/shedding activity for one tenant.
    /// Fixed-width so the snapshot stays `Copy`; stores serving more than
    /// [`MAX_TENANT_STATS`] tenants report the busiest ones (by total ops)
    /// and `tenant_count` carries the true total. Rows are a gauge panel
    /// (occupancy plus since-start counters keyed by tenant id): an
    /// interval keeps the later reading rather than subtracting across
    /// possibly-reordered rows.
    pub struct TenantStat: u64 {
        /// The tenant this row describes.
        tenant: Gauge, "tenants";
        /// Admission weight ([`crate::TenantQuota::weight`]).
        weight: Gauge, "tenants";
        /// Bytes of table residency charged against the quota.
        used_bytes: Gauge, "tenants";
        /// Keys charged against the quota.
        used_keys: Gauge, "tenants";
        /// `get`-class operations served for this tenant.
        gets: Gauge, "tenants";
        /// `set`-class operations served for this tenant.
        sets: Gauge, "tenants";
        /// Operations that found their key.
        hits: Gauge, "tenants";
        /// Operations that did not find their key.
        misses: Gauge, "tenants";
        /// Writes rejected over quota.
        quota_rejections: Gauge, "tenants";
        /// Reads that hid an entry past its deadline (lazy expiry).
        expired_lazy: Gauge, "tenants";
        /// Expired entries physically reaped by the sweep.
        expired_swept: Gauge, "tenants";
        /// Requests shed with `Busy` for this tenant by the serving layer's
        /// fair admission (store-side always 0; overlaid by the server).
        shed: Gauge, "tenants";
    }
}

/// Per-tenant rows a [`StatsSnapshot`] can carry (fixed for `Copy`).
pub const MAX_TENANT_STATS: usize = 8;

sgx_sim::stat_table! {
    /// A self-contained snapshot of everything the store can measure:
    /// operation counters, per-op-class latency histograms, allocator and
    /// cache gauges, and the SGX-model transition/paging counters. This is
    /// what the `Stats` wire opcode serializes and what the bench harness
    /// diffs around a run.
    pub struct StatsSnapshot: u64 {
        /// Live entries across all shards (main + frozen + temp tables).
        entries: Gauge, "store";
        /// Number of shards aggregated into this snapshot.
        shards: Gauge, "store";
        /// Tenants known to the store (may exceed the rows in `tenants`).
        tenant_count: Gauge, "store";
        /// Bytes live in the custom untrusted heaps.
        heap_live_bytes: Gauge, "memory";
        /// Of `heap_live_bytes`, what MAC-bucket nodes hold (the rest is
        /// entries).
        mac_node_bytes: Gauge, "memory";
        /// Chunks backing the untrusted heaps.
        heap_chunks: Gauge, "memory";
        /// Bytes used by the in-enclave plaintext caches.
        cache_used_bytes: Gauge, "memory";
        /// Entries resident in the in-enclave plaintext caches.
        cache_entries: Gauge, "memory";
        /// Total bytes appended to the write-ahead log (0 when no WAL is
        /// attached).
        wal_bytes: Counter, "wal";
        /// Log records (= group commits) written to the write-ahead log.
        wal_records: Counter, "wal";
        /// fsyncs issued by the write-ahead log.
        wal_fsyncs: Counter, "wal";
        /// Durable storage has failed and the WAL writer is poisoned (0 or
        /// 1). Commits fail closed with [`crate::Error::StorageFailed`];
        /// reads and replication keep serving.
        storage_failed: Gauge, "storage";
        /// Full scrub passes (pin + every pinned segment + snapshot)
        /// completed by the background scrubber.
        scrub_passes: Counter, "storage";
        /// Durable-state bytes re-verified by the scrubber.
        scrub_bytes: Counter, "storage";
        /// Corruption findings — rotted pin, damaged WAL segment, or bad
        /// snapshot — discovered by the scrubber.
        scrub_corrupt: Counter, "storage";
        /// Successful repairs: pin rewrites and verified segment swap-ins.
        scrub_repaired: Counter, "storage";
        /// Bucket sets currently quarantined after integrity violations
        /// (counts sets in partially quarantined shards only).
        quarantined_sets: Gauge, "availability";
        /// Shards currently quarantined wholesale after repeated violations.
        quarantined_shards: Gauge, "availability";
        /// Requests shed with `Busy` by the serving layer (admission
        /// control / deadline misses). The store itself always reports 0;
        /// the network server overlays its own count before shipping the
        /// snapshot.
        shed_requests: Counter, "availability";
        /// Connections refused at the listener because the connection cap
        /// was reached. Store-side always 0; overlaid by the server.
        refused_connections: Counter, "availability";
        /// Requests handed across event loops because the decoding loop did
        /// not own the key's hash partition. Store-side always 0; overlaid
        /// by the server.
        cross_loop_handoffs: Counter, "availability";
        /// Eventfd wakes the engine spent delivering those handoffs and
        /// their responses (a burst shares one, so handoffs per wake is the
        /// batch size). Store-side always 0; overlaid by the server.
        cross_loop_wakes: Counter, "availability";
        /// Event loops the network engine is running. Store-side always 0;
        /// overlaid by the server.
        event_loops: Gauge, "availability";
        /// Requests admitted but not yet answered (the engine's in-flight
        /// count). Store-side always 0; overlaid by the server.
        pending_frames: Gauge, "availability";
        /// Replication role: 0 = standalone, 1 = primary with at least one
        /// subscriber, 2 = replica (overlaid by the replica's serving
        /// layer; the store itself reports 0 or 1).
        repl_role: Gauge, "repl";
        /// Replication subscribers currently registered.
        repl_subscribers: Gauge, "repl";
        /// Replication batches shipped to subscribers.
        repl_segments_shipped: Counter, "repl";
        /// Sealed log bytes shipped to subscribers.
        repl_bytes_shipped: Counter, "repl";
        /// Generation of the least-advanced subscriber's acked watermark
        /// (0 when standalone).
        repl_acked_generation: Gauge, "repl";
        /// Sequence of the least-advanced subscriber's acked watermark (on
        /// a replica, its own applied watermark).
        repl_acked_seq: Gauge, "repl";
        /// Records the least-advanced subscriber trails the durable
        /// watermark by, when both sit in the same generation.
        repl_lag_records: Gauge, "repl";
        /// Bytes run through the AES-CTR/CMAC data path (process-wide —
        /// all stores in the process share the counter).
        crypto_bytes: Counter, "crypto";
        /// Crypto operations (keystream applications, tag computations,
        /// fused opens) performed (process-wide).
        crypto_ops: Counter, "crypto";
        /// Active crypto backend: 0 = table-based software AES, 1 = AES-NI.
        crypto_backend: Gauge, "crypto";
    } + {
        /// Aggregated operation counters (sum over shards).
        pub ops: OpStats,
        /// Aggregated latency histograms (merged over shards).
        pub hists: OpHists,
        /// Per-tenant rows (the first `tenant_count.min(MAX_TENANT_STATS)`
        /// entries are meaningful; busiest tenants first when truncated).
        pub tenants: [TenantStat; MAX_TENANT_STATS],
        /// SGX-model counters: enclave transitions, EPC faults/evictions, …
        pub sim: SimSnapshot,
    }
}

/// One scalar stat as reports see it.
struct Row {
    section: &'static str,
    name: &'static str,
    kind: Kind,
    value: u64,
}

fn table_rows<'a, T>(fields: &'static [Field<T>], of: &'a T) -> impl Iterator<Item = Row> + 'a {
    fields.iter().map(move |f| Row {
        section: f.section,
        name: f.name,
        kind: f.kind,
        value: *(f.get)(of),
    })
}

/// Appends what fixes a table's layout: its row names, kinds and order.
fn describe<T, V>(layout: &mut Vec<u8>, fields: &[Field<T, V>]) {
    for f in fields {
        layout.extend_from_slice(f.name.as_bytes());
        layout.extend([0, f.kind as u8]);
    }
    layout.push(0xff);
}

/// Formats nanoseconds with a unit that keeps three significant digits.
fn fmt_ns(ns: u64) -> String {
    match ns {
        1_000_000_000.. => format!("{:.2}s", ns as f64 / 1e9),
        1_000_000.. => format!("{:.2}ms", ns as f64 / 1e6),
        1_000.. => format!("{:.2}us", ns as f64 / 1e3),
        _ => format!("{ns}ns"),
    }
}

/// `{"k":v,...}` from keys and already-rendered JSON values.
fn json_obj<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

impl StatsSnapshot {
    /// Cache hit ratio in `[0, 1]`, or `None` when the cache saw no
    /// lookups (disabled or untouched).
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let total = self.ops.cache_hits + self.ops.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.ops.cache_hits as f64 / total as f64)
        }
    }

    /// Every scalar stat outside the tenant rows, in table order.
    fn scalars(&self) -> impl Iterator<Item = Row> + '_ {
        table_rows(OpStats::FIELDS, &self.ops)
            .chain(table_rows(Self::FIELDS, self))
            .chain(table_rows(SimSnapshot::FIELDS, &self.sim))
    }

    /// The meaningful prefix of `tenants`.
    pub fn tenant_rows(&self) -> &[TenantStat] {
        &self.tenants[..(self.tenant_count as usize).min(MAX_TENANT_STATS)]
    }

    /// Every monotone counter in the snapshot as `(name, value)` pairs —
    /// the [`Kind::Counter`] rows of every table plus the histogram
    /// sample counts. Gauges are excluded: they legitimately go down.
    /// Used by the concurrency tests to assert that successive snapshots
    /// never regress.
    pub fn monotone_counters(&self) -> Vec<(&'static str, u64)> {
        self.scalars()
            .filter(|row| row.kind == Kind::Counter)
            .map(|row| (row.name, row.value))
            .chain(self.hists.iter().map(|(name, h)| (name, h.count())))
            .collect()
    }

    /// The per-interval difference against an earlier snapshot of the
    /// same store: counters and histograms subtract; gauges and the
    /// tenant rows keep the later value.
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ops: self.ops.diff(&earlier.ops),
            hists: self.hists.diff(&earlier.hists),
            sim: Field::diff(SimSnapshot::FIELDS, &self.sim, &earlier.sim),
            ..Field::diff(Self::FIELDS, self, earlier)
        }
    }

    /// A hash of everything that fixes the meaning of [`Self::to_words`]:
    /// every table's row names, kinds and order, the bucket count and the
    /// tenant row slots. Two builds agree on it exactly when they agree on
    /// the layout, so nobody maintains a version number by hand.
    pub fn layout_fingerprint() -> u64 {
        let mut layout = Vec::new();
        describe(&mut layout, OpStats::FIELDS);
        describe(&mut layout, Self::FIELDS);
        describe(&mut layout, TenantStat::FIELDS);
        layout.extend((MAX_TENANT_STATS as u64).to_le_bytes());
        describe(&mut layout, SimSnapshot::FIELDS);
        describe(&mut layout, OpHists::FIELDS);
        layout.extend((NUM_BUCKETS as u64).to_le_bytes());
        SipHash24::from_parts(0, 0).hash(&layout)
    }

    /// Visits every `u64` stat in wire order: the op counters, the
    /// snapshot's own rows, every tenant row slot (meaningful or not),
    /// the SGX-model counters.
    pub fn for_each_scalar(&mut self, mut visit: impl FnMut(&'static str, Kind, &mut u64)) {
        fn table<T>(
            fields: &[Field<T>],
            of: &mut T,
            visit: &mut impl FnMut(&'static str, Kind, &mut u64),
        ) {
            for f in fields {
                visit(f.name, f.kind, (f.get_mut)(of));
            }
        }
        table(OpStats::FIELDS, &mut self.ops, &mut visit);
        table(Self::FIELDS, self, &mut visit);
        for tenant in self.tenants.iter_mut() {
            table(TenantStat::FIELDS, tenant, &mut visit);
        }
        table(SimSnapshot::FIELDS, &mut self.sim, &mut visit);
    }

    /// The snapshot as a flat `u64` sequence: the layout fingerprint,
    /// every scalar in [`Self::for_each_scalar`] order (unused tenant
    /// slots are all-zero, so the length is constant), then each
    /// histogram as `NUM_BUCKETS` buckets + sum + max. Every exported
    /// value is a count, an id or a duration — never key or value bytes.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = vec![Self::layout_fingerprint()];
        // The one table walk hands out `&mut`; visit a copy.
        let mut copy = *self;
        copy.for_each_scalar(|_, _, v| out.push(*v));
        for (_, h) in self.hists.iter() {
            out.extend(h.buckets());
            out.extend([h.sum_ns(), h.max_ns()]);
        }
        out
    }

    /// Rebuilds a snapshot from [`Self::to_words`] output, failing closed
    /// (with the reason) on a foreign layout fingerprint, too few or too
    /// many words, or an internally inconsistent histogram.
    pub fn from_words(words: impl IntoIterator<Item = u64>) -> Result<Self, &'static str> {
        let mut words = words.into_iter();
        let mut next = || words.next().ok_or("truncated");
        if next()? != Self::layout_fingerprint() {
            return Err("layout fingerprint mismatch (peer built from different stat tables)");
        }
        let mut snap = Self::default();
        let mut filled = Ok(());
        snap.for_each_scalar(|_, _, v| match next() {
            Ok(word) => *v = word,
            Err(short) => filled = Err(short),
        });
        filled?;
        for f in OpHists::FIELDS {
            let mut buckets = [0u64; NUM_BUCKETS];
            for bucket in buckets.iter_mut() {
                *bucket = next()?;
            }
            *(f.get_mut)(&mut snap.hists) =
                LatencyHist::from_raw(buckets, next()?, next()?).ok_or("inconsistent histogram")?;
        }
        match next() {
            Err(_) => Ok(snap),
            Ok(_) => Err("trailing words"),
        }
    }

    /// The text dashboard: one block per section (tables keep a section's
    /// rows together), one line per stat. Counters still at zero are left
    /// out; gauges always print.
    pub fn render_text(&self) -> String {
        let mut out = String::from("== ShieldStore stats ==\n");
        let mut section = "";
        for row in self.scalars().filter(|row| row.value != 0 || row.kind == Kind::Gauge) {
            if row.section != section {
                section = row.section;
                let _ = writeln!(out, "\n-- {section} --");
            }
            let _ = writeln!(out, "{:<28} {}", row.name, row.value);
        }
        let _ = writeln!(out, "\n-- latency (effective ns: wall + modeled SGX penalties) --");
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in self.hists.iter() {
            let [p50, p95, p99, max] = [h.p50(), h.p95(), h.p99(), h.max_ns()].map(fmt_ns);
            let _ = writeln!(
                out,
                "{name:<10} {:>10} {p50:>10} {p95:>10} {p99:>10} {max:>10}",
                h.count()
            );
        }
        let _ = writeln!(out, "\n-- tenants (busiest first) --");
        for tenant in self.tenant_rows() {
            let cells: Vec<String> = table_rows(TenantStat::FIELDS, tenant)
                .map(|row| format!("{}={}", row.name, row.value))
                .collect();
            let _ = writeln!(out, "{}", cells.join(" "));
        }
        out
    }

    /// One JSON object: every scalar under its own name, `latency` with
    /// one summary object per histogram, and `tenants` with one object
    /// per meaningful tenant row.
    pub fn render_json(&self) -> String {
        let number = |row: Row| (row.name, row.value.to_string());
        let latency = json_obj(self.hists.iter().map(|(name, h)| {
            let summary = [
                ("count", h.count()),
                ("sum_ns", h.sum_ns()),
                ("p50_ns", h.p50()),
                ("p95_ns", h.p95()),
                ("p99_ns", h.p99()),
                ("max_ns", h.max_ns()),
            ];
            (name, json_obj(summary.into_iter().map(|(k, v)| (k, v.to_string()))))
        }));
        let tenants: Vec<String> = self
            .tenant_rows()
            .iter()
            .map(|tenant| json_obj(table_rows(TenantStat::FIELDS, tenant).map(number)))
            .collect();
        json_obj(
            self.scalars()
                .map(number)
                .chain([("latency", latency), ("tenants", format!("[{}]", tenants.join(",")))]),
        )
    }

    /// Cross-checks the snapshot's internal invariants, returning the
    /// first violated one as an error string.
    ///
    /// The inequalities are deliberate: an integrity violation aborts an
    /// operation *after* its op counter bumps but *before* its hit/miss
    /// resolution, so under attack `hits + misses` may lag the searching
    /// ops — equality is only guaranteed on clean runs (and is asserted
    /// exactly by the end-to-end tests, which run clean).
    pub fn check_consistent(&self) -> Result<(), String> {
        let o = &self.ops;
        let searching = o.gets + o.deletes;
        if o.hits + o.misses > searching {
            return Err(format!(
                "hits ({}) + misses ({}) exceed searching ops (gets {} + deletes {})",
                o.hits, o.misses, o.gets, o.deletes
            ));
        }
        if o.batch_ops < o.batches {
            return Err(format!(
                "batch_ops ({}) below batches ({}): empty batches are not counted",
                o.batch_ops, o.batches
            ));
        }
        // Every single-key timed op records exactly one sample under the
        // shard lock, while batched keys bump `gets`/`sets` without
        // per-key samples — so the histograms plus the batch-carried key
        // count must land exactly on the op counters.
        let timed = self.hists.get.count() + self.hists.set.count();
        if timed + o.batch_ops != o.gets + o.sets {
            return Err(format!(
                "get+set histogram counts ({timed}) + batch_ops ({}) != gets ({}) + sets ({})",
                o.batch_ops, o.gets, o.sets
            ));
        }
        if self.hists.delete.count() != o.deletes {
            return Err(format!(
                "delete histogram count ({}) != deletes ({})",
                self.hists.delete.count(),
                o.deletes
            ));
        }
        // A batch counts itself and takes its one sample in the same
        // `Shard::execute` call, so the histogram never falls behind.
        if self.hists.batch.count() < o.batches {
            return Err(format!(
                "batch histogram count ({}) below batches ({})",
                self.hists.batch.count(),
                o.batches
            ));
        }
        for (name, h) in self.hists.iter() {
            if h.count() > 0 && h.max_ns() < h.p99() {
                return Err(format!("{name} histogram max below its p99"));
            }
        }
        // One group-size sample is recorded per committed log record, and
        // every commit fsyncs at most once, so the WAL gauges and the
        // group histogram are tied exactly.
        if self.hists.wal_group.count() != self.wal_records {
            return Err(format!(
                "wal_group histogram count ({}) != wal_records ({})",
                self.hists.wal_group.count(),
                self.wal_records
            ));
        }
        if self.wal_fsyncs > self.wal_records {
            return Err(format!(
                "wal_fsyncs ({}) exceed wal_records ({})",
                self.wal_fsyncs, self.wal_records
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = OpStats { gets: 1, key_decryptions: 5, ..Default::default() };
        let b = OpStats { gets: 2, sets: 3, key_decryptions: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.gets, 3);
        assert_eq!(a.sets, 3);
        assert_eq!(a.key_decryptions, 12);
        assert_eq!(a.total_ops(), 6);
    }

    #[test]
    fn decryptions_per_op() {
        let s = OpStats { gets: 4, key_decryptions: 10, ..Default::default() };
        assert!((s.decryptions_per_op() - 2.5).abs() < 1e-12);
        assert_eq!(OpStats::default().decryptions_per_op(), 0.0);
    }

    /// Sets every field (via the table, so this cannot go stale) to a
    /// distinct value and checks merge sums all of them — the guarantee
    /// the hand-maintained merge list could silently lose.
    #[test]
    fn merge_covers_every_field() {
        let mut a = OpStats::default();
        let mut b = OpStats::default();
        for (i, f) in OpStats::FIELDS.iter().enumerate() {
            *(f.get_mut)(&mut a) = (i as u64 + 1) * 1_000;
            *(f.get_mut)(&mut b) = i as u64 + 1;
        }
        let mut merged = a;
        merged.merge(&b);
        for (i, f) in OpStats::FIELDS.iter().enumerate() {
            let want = (i as u64 + 1) * 1_000 + (i as u64 + 1);
            assert_eq!(*(f.get)(&merged), want, "field {} not summed by merge", f.name);
        }
    }

    #[test]
    fn field_tables_match_struct_widths() {
        // One u64 per macro row — if this fails the macro broke.
        assert_eq!(OpStats::FIELDS.len() * 8, std::mem::size_of::<OpStats>());
        assert_eq!(TenantStat::FIELDS.len() * 8, std::mem::size_of::<TenantStat>());
        assert_eq!(
            OpHists::FIELDS.len() * std::mem::size_of::<LatencyHist>(),
            std::mem::size_of::<OpHists>()
        );
        let nested = std::mem::size_of::<OpStats>()
            + std::mem::size_of::<OpHists>()
            + std::mem::size_of::<[TenantStat; MAX_TENANT_STATS]>()
            + std::mem::size_of::<SimSnapshot>();
        assert_eq!(StatsSnapshot::FIELDS.len() * 8 + nested, std::mem::size_of::<StatsSnapshot>());
        // Reports and `monotone_counters` key stats by bare name, and the
        // dashboard prints one header per run of a section.
        let snap = StatsSnapshot::default();
        let mut sections: Vec<_> = snap.scalars().map(|row| row.section).collect();
        sections.dedup();
        let runs = sections.len();
        sections.sort_unstable();
        sections.dedup();
        assert_eq!(sections.len(), runs, "a section's rows are not contiguous");
        let mut names: Vec<_> = snap.scalars().map(|row| row.name).collect();
        names.extend(snap.hists.iter().map(|(name, _)| name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate stat names");
    }

    #[test]
    fn diff_subtracts() {
        let mut earlier = OpStats::default();
        let mut later = OpStats::default();
        earlier.gets = 10;
        later.gets = 25;
        later.sets = 3;
        let d = later.diff(&earlier);
        assert_eq!(d.gets, 15);
        assert_eq!(d.sets, 3);
    }

    #[test]
    fn snapshot_consistency_catches_bad_counts() {
        let mut snap = StatsSnapshot::default();
        assert!(snap.check_consistent().is_ok());
        snap.ops.hits = 5; // hits without any searching ops
        assert!(snap.check_consistent().is_err());
        snap = StatsSnapshot::default();
        snap.ops.gets = 2;
        assert!(snap.check_consistent().is_err(), "gets without histogram samples");
        snap.hists.get.record(100);
        snap.hists.get.record(100);
        snap.ops.hits = 2;
        assert!(snap.check_consistent().is_ok());
        // Batched keys count against the op counters without per-key
        // histogram samples.
        snap.ops.batches = 1;
        snap.ops.batch_ops = 4;
        snap.ops.sets = 4;
        assert!(snap.check_consistent().is_err(), "batch without a batch sample");
        snap.hists.batch.record(5_000);
        assert!(snap.check_consistent().is_ok());
    }

    #[test]
    fn snapshot_diff_and_monotone_counters() {
        let mut before = StatsSnapshot::default();
        before.ops.gets = 10;
        before.hists.get.record(50);
        let mut after = before;
        after.ops.gets = 14;
        after.hists.get.record(60);
        after.entries = 7;
        let d = after.diff(&before);
        assert_eq!(d.ops.gets, 4);
        assert_eq!(d.hists.get.count(), 1);
        assert_eq!(d.entries, 7);
        let names: Vec<_> = after.monotone_counters().iter().map(|(n, _)| *n).collect();
        for counter in ["gets", "get", "epc_faults", "wal_records", "scrub_bytes"] {
            assert!(names.contains(&counter), "{counter}");
        }
        assert!(!names.contains(&"entries"), "gauges are not monotone");
    }

    #[test]
    fn cache_hit_ratio() {
        let mut snap = StatsSnapshot::default();
        assert!(snap.cache_hit_ratio().is_none());
        snap.ops.cache_hits = 3;
        snap.ops.cache_misses = 1;
        assert!((snap.cache_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    }
}
