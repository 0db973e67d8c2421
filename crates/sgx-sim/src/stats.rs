//! Simulation counters, and the stat-table mechanism every telemetry
//! struct in the workspace is declared with.
//!
//! [`stat_table!`](crate::stat_table) turns one list of rows — name,
//! [`Kind`], display section — into a plain struct with one public
//! field per row plus a static [`Field`] table over it. Aggregation,
//! diffing, the wire codec and the reports walk the table, so a stat is
//! declared exactly once. The mechanism lives here because this is the
//! lowest crate that owns counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a stat behaves between two snapshots of the same source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone: only grows, so an interval is `later - earlier`.
    Counter,
    /// A level that can fall: an interval keeps the later reading.
    Gauge,
}

/// One row of a stat table over struct `T` whose stats have type `V`.
pub struct Field<T, V = u64> {
    /// The field's identifier, e.g. `"key_decryptions"`.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The report section the stat is shown under.
    pub section: &'static str,
    /// Reads the field.
    pub get: fn(&T) -> &V,
    /// Mutable access to the field.
    pub get_mut: fn(&mut T) -> &mut V,
}

impl<T: Copy> Field<T> {
    /// The interval between two readings of a `u64` table: counters
    /// subtract (saturating), gauges — and any field of `T` outside the
    /// table — keep `later`'s value.
    pub fn diff(fields: &[Self], later: &T, earlier: &T) -> T {
        let mut d = *later;
        for f in fields.iter().filter(|f| f.kind == Kind::Counter) {
            *(f.get_mut)(&mut d) = (f.get)(later).saturating_sub(*(f.get)(earlier));
        }
        d
    }
}

/// Declares a telemetry struct and its [`Field`] table from one row list,
/// `/// doc` + `name: Kind, "section";` per stat (see [`StatsSnapshot`]'s
/// declaration below). Every row becomes `pub name: V`. Fields that are
/// not stats of type `V` (nested tables, arrays) go in a trailing
/// `+ { pub name: Type, }` block: part of the struct, not of `FIELDS`.
#[macro_export]
macro_rules! stat_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident : $vty:ty {
            $( $(#[doc = $doc:expr])+ $field:ident : $kind:ident, $section:literal; )+
        }
        $( + { $( $(#[$emeta:meta])* pub $extra:ident : $ety:ty, )+ } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[doc = $doc])+ pub $field: $vty, )+
            $( $( $(#[$emeta])* pub $extra: $ety, )+ )?
        }

        impl $name {
            /// Every stat, in declaration order: the single source of
            /// truth for aggregation, diffing, serialization and reports.
            pub const FIELDS: &'static [$crate::stats::Field<$name, $vty>] = &[
                $( $crate::stats::Field {
                    name: stringify!($field),
                    kind: $crate::stats::Kind::$kind,
                    section: $section,
                    get: |s| &s.$field,
                    get_mut: |s| &mut s.$field,
                }, )+
            ];
        }
    };
}

/// Declares the sim counters once: the plain [`StatsSnapshot`] table and
/// its atomic twin [`SimStats`] that the model bumps.
macro_rules! sim_stats {
    ($( $(#[doc = $doc:expr])+ $field:ident : $kind:ident; )+) => {
        stat_table! {
            /// A point-in-time copy of [`SimStats`].
            pub struct StatsSnapshot: u64 {
                $( $(#[doc = $doc])+ $field: $kind, "sgx"; )+
            }
        }

        /// Shared event counters for one simulated enclave.
        ///
        /// All counters use relaxed atomics: they are statistics, not
        /// synchronization.
        #[derive(Debug, Default)]
        pub struct SimStats {
            $( $(#[doc = $doc])+ pub $field: AtomicU64, )+
        }

        impl SimStats {
            /// Resets every counter to zero.
            pub fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )+
            }

            /// Returns a plain-value snapshot of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $( $field: self.$field.load(Ordering::Relaxed), )+ }
            }
        }
    };
}

sim_stats! {
    /// ECALLs (untrusted -> enclave crossings).
    ecalls: Counter;
    /// OCALLs (enclave -> untrusted crossings).
    ocalls: Counter;
    /// HotCalls-style shared-memory calls (no crossing).
    hotcalls: Counter;
    /// EPC demand-paging faults (page not resident).
    epc_faults: Counter;
    /// Pages evicted from the EPC resident set.
    epc_evictions: Counter;
    /// Evictions whose victim was dirty (required EWB writeback).
    epc_writebacks: Counter;
    /// Resident EPC accesses (hits).
    epc_hits: Counter;
    /// Bytes of untrusted memory obtained through chunk OCALLs.
    untrusted_bytes_allocated: Gauge;
    /// Simulated attacker mutations of untrusted state (fault-injection
    /// harnesses record each attack step they apply via
    /// [`SimStats::record_attack_step`]).
    attack_steps: Counter;
}

impl SimStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one simulated attacker mutation of untrusted state.
    /// Called by fault-injection tooling, never by the store itself.
    #[inline]
    pub fn record_attack_step(&self) {
        Self::bump(&self.attack_steps);
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Fault rate as a fraction of all metered EPC accesses.
    pub fn fault_rate(&self) -> f64 {
        let total = self.epc_faults + self.epc_hits;
        if total == 0 {
            0.0
        } else {
            self.epc_faults as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = SimStats::new();
        SimStats::bump(&s.epc_faults);
        SimStats::bump(&s.epc_faults);
        SimStats::bump(&s.epc_hits);
        let snap = s.snapshot();
        assert_eq!(snap.epc_faults, 2);
        assert_eq!(snap.epc_hits, 1);
        assert!((snap.fault_rate() - 2.0 / 3.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn fault_rate_zero_when_untouched() {
        assert_eq!(StatsSnapshot::default().fault_rate(), 0.0);
    }

    /// The table is the struct: one `u64` per row in both the snapshot
    /// and its atomic twin, names unique.
    #[test]
    fn table_spans_struct_and_atomic_twin() {
        let fields = StatsSnapshot::FIELDS;
        assert_eq!(fields.len() * 8, std::mem::size_of::<StatsSnapshot>());
        assert_eq!(fields.len() * 8, std::mem::size_of::<SimStats>());
        for (i, f) in fields.iter().enumerate() {
            assert!(fields[..i].iter().all(|g| g.name != f.name), "duplicate {}", f.name);
        }
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_gauges() {
        let fields = StatsSnapshot::FIELDS;
        let (mut later, mut earlier) = (StatsSnapshot::default(), StatsSnapshot::default());
        for (i, f) in fields.iter().enumerate() {
            *(f.get_mut)(&mut later) = 10 + i as u64;
            *(f.get_mut)(&mut earlier) = 1;
        }
        let d = Field::diff(fields, &later, &earlier);
        for (i, f) in fields.iter().enumerate() {
            let want = if f.kind == Kind::Counter { 9 + i as u64 } else { 10 + i as u64 };
            assert_eq!(*(f.get)(&d), want, "{}", f.name);
        }
        assert_eq!(Field::diff(fields, &earlier, &later).ecalls, 0, "saturates");
    }
}
