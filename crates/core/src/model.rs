//! The reference model every store harness checks against (feature
//! `testing`).
//!
//! One map from `(tenant, key)` to what the key may hold — a value and
//! its deadline, or nothing — with none of the store's untrusted state.
//! It states the paper's guarantee (§3.3, §4) as something a harness can
//! check: a read returns the latest acknowledged write or fails closed,
//! never anything else.
//!
//! * [`Model::apply`] runs an op on the model and says what a correct
//!   store answers (`None`: the store refuses the op and changes
//!   nothing). Deadlines are read against the [`crate::ttl`] clock, so a
//!   frozen clock makes expiry exact.
//! * [`Model::observe`] judges what a store under attack answered — the
//!   *trichotomy*. A reply must be one the model allows; a refusal is the
//!   store failing closed, which it may do at any time. A refusal that
//!   [`may have executed`](Refusal::may_have_executed) is not rolled
//!   back, so each key it wrote may hold its old state or its new one: the
//!   model keeps a *set* of acceptable states per key — one, until such a
//!   refusal widens it — and a read that succeeds collapses the set to
//!   what it observed. Any other refusal changed nothing.
//! * [`Model::check_store`] reads every key back and counts the entries:
//!   the store holds exactly the model.
//! * [`Model::after`] is the model as it stood after its first `n`
//!   acknowledged writes, which is what a durability window is checked
//!   against.

use crate::error::Refusal;
use crate::op::{Op, Reply};
use crate::store::ShieldStore;
use crate::tenant::TenantId;
use crate::ttl;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::RangeInclusive;

/// What a key may hold: a value and its deadline (`0` = none), or
/// nothing.
type State = Option<(Vec<u8>, u64)>;

/// A key in its tenant's namespace.
type Slot = (TenantId, Vec<u8>);

/// What the store under test can do; the model refuses the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Tenants are separate namespaces (else one flat table).
    pub namespaces: bool,
    /// Nonzero deadlines are honoured (else a leased write is refused).
    pub expiry: bool,
    /// Ordered scans are served (else they are refused).
    pub scans: bool,
}

impl Caps {
    /// [`ShieldStore`] with its ordered index: everything.
    pub const SHIELD: Caps = Caps { namespaces: true, expiry: true, scans: true };
    /// A store with three primitives and one table (`KvBackend`'s default
    /// `execute`).
    pub const FLAT: Caps = Caps { namespaces: false, expiry: false, scans: false };
}

/// The reference model.
#[derive(Debug, Clone)]
pub struct Model {
    caps: Caps,
    /// Acceptable states per slot; a slot the map lacks holds `{None}`.
    slots: BTreeMap<Slot, BTreeSet<State>>,
    /// Every acknowledged write in order, as the state it left in each
    /// key it wrote. A delete that missed changed nothing and is not one.
    writes: Vec<Vec<(Slot, State)>>,
}

impl Default for Model {
    fn default() -> Self {
        Model::new(Caps::SHIELD)
    }
}

/// The value a read of `state` sees at `now`: absent and expired look
/// alike (a deadline is inclusive).
fn live(state: &State, now: u64) -> Option<Vec<u8>> {
    let (value, deadline) = state.as_ref()?;
    (*deadline == 0 || now < *deadline).then(|| value.clone())
}

/// A single-key op on one state: what a correct store answers and the
/// state it leaves, or `None` when it refuses the op.
fn on_key(op: Op<'_>, state: &State, now: u64) -> Option<(Reply, State)> {
    let value = live(state, now);
    Some(match op {
        Op::Get(_) => (Reply::Value(value), state.clone()),
        Op::Exists(_) => (Reply::Exists(value.is_some()), state.clone()),
        Op::Set { value, expires_at, .. } => (Reply::Stored, Some((value.to_vec(), expires_at))),
        // An expired entry answers "not there" and is left for the
        // sweep: it is invisible either way.
        Op::Delete(_) if value.is_some() => (Reply::Deleted(true), None),
        Op::Delete(_) => (Reply::Deleted(false), state.clone()),
        Op::Append { suffix, .. } => {
            let mut value = value.unwrap_or_default();
            value.extend_from_slice(suffix);
            (Reply::Appended(value.clone()), Some((value, 0)))
        }
        Op::Increment { delta, .. } => {
            let current = match value {
                Some(v) => std::str::from_utf8(&v).ok()?.trim().parse::<i64>().ok()?,
                None => 0,
            };
            let next = current.checked_add(delta)?;
            (Reply::Counter(next), Some((next.to_string().into_bytes(), 0)))
        }
        _ => unreachable!("{op:?} is not a single-key op"),
    })
}

/// A batch as the single-key ops it is made of, in order; any other op
/// as itself.
fn parts(op: Op<'_>) -> Vec<Op<'_>> {
    match op {
        Op::MultiGet(keys) => keys.iter().map(|&key| Op::Get(key)).collect(),
        Op::MultiSet { items, expires_at } => {
            items.iter().map(|&(key, value)| Op::Set { key, value, expires_at }).collect()
        }
        op => vec![op],
    }
}

/// Whether a part's answer changed the store: what a write-ahead log
/// records and [`Model::after`] counts.
fn acknowledges(part: Op<'_>, reply: &Reply) -> bool {
    part.is_write() && *reply != Reply::Deleted(false)
}

fn fmt_bytes(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => format!("{text:?}"),
        Err(_) => format!("0x{}", bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()),
    }
}

fn fmt_states(states: &BTreeSet<State>) -> String {
    let each = states.iter().map(|state| match state {
        Some((value, 0)) => fmt_bytes(value),
        Some((value, deadline)) => format!("{} until {deadline}", fmt_bytes(value)),
        None => "<absent>".into(),
    });
    format!("[{}]", each.collect::<Vec<_>>().join(", "))
}

impl Model {
    /// An empty model of a store that can do `caps`.
    pub fn new(caps: Caps) -> Self {
        Model { caps, slots: BTreeMap::new(), writes: Vec::new() }
    }

    fn slot(&self, tenant: TenantId, key: &[u8]) -> Slot {
        (if self.caps.namespaces { tenant } else { 0 }, key.to_vec())
    }

    fn states(&self, slot: &Slot) -> BTreeSet<State> {
        self.slots.get(slot).cloned().unwrap_or_else(|| BTreeSet::from([None]))
    }

    /// The one state `slot` holds. A correct store's answer is read from
    /// settled keys: [`Model::apply`] describes a store no attack touched,
    /// so an unsettled key there is a harness bug.
    fn settled(&self, slot: &Slot) -> State {
        let states = self.states(slot);
        assert!(
            states.len() == 1,
            "key {} is unsettled: {}",
            fmt_bytes(&slot.1),
            fmt_states(&states)
        );
        states.into_iter().next().expect("one state")
    }

    fn allows(&self, op: Op<'_>) -> bool {
        let scan = matches!(op, Op::ScanRange { .. } | Op::ScanPrefix { .. });
        (op.expires_at() == 0 || self.caps.expiry) && (!scan || self.caps.scans)
    }

    /// The entries a scan of `tenant`'s namespace returns at `now`, in
    /// key order.
    fn scan(
        &self,
        tenant: TenantId,
        now: u64,
        limit: usize,
        wanted: impl Fn(&[u8]) -> bool,
    ) -> Reply {
        let owner = self.slot(tenant, b"").0;
        let entries = self
            .slots
            .keys()
            .filter(|(t, key)| *t == owner && wanted(key))
            .filter_map(|slot| Some((slot.1.clone(), live(&self.settled(slot), now)?)))
            .take(limit)
            .collect();
        Reply::Entries(entries)
    }

    /// What a correct store answers for `op` at `now`, or `None` when it
    /// refuses it.
    fn answer(&self, tenant: TenantId, op: Op<'_>, now: u64) -> Option<Reply> {
        if !self.allows(op) {
            return None;
        }
        let state = |key: &[u8]| self.settled(&self.slot(tenant, key));
        Some(match op {
            Op::ScanRange { start, end, limit } => {
                self.scan(tenant, now, limit, |key| start <= key && key < end)
            }
            Op::ScanPrefix { prefix, limit } => {
                self.scan(tenant, now, limit, |key| key.starts_with(prefix))
            }
            Op::MultiGet(keys) => {
                Reply::Values(keys.iter().map(|key| live(&state(key), now)).collect())
            }
            Op::MultiSet { .. } => Reply::Stored,
            op => on_key(op, &state(op.routing_key()?), now)?.0,
        })
    }

    /// Applies `op` in `tenant`'s namespace and says what a correct store
    /// answers; `None` when it refuses the op (and changes nothing).
    pub fn apply(&mut self, tenant: TenantId, op: Op<'_>) -> Option<Reply> {
        let now = ttl::now_ns();
        let reply = self.answer(tenant, op, now)?;
        self.judge(tenant, op, Ok(&reply), now).expect("the model explains its own answer");
        Some(reply)
    }

    /// Judges what a store answered for `op` in `tenant`'s namespace:
    /// `Ok(reply)` must be an answer the model allows, and narrows each
    /// key to the states that explain it (a scan is judged over settled
    /// keys only); `Err(refusal)` means the op failed closed, which is
    /// always allowed. A refusal that may have executed widens each key
    /// the op would have written by the state it would have left; any
    /// other leaves every key as it was.
    pub fn observe(
        &mut self,
        tenant: TenantId,
        op: Op<'_>,
        outcome: Result<&Reply, Refusal>,
    ) -> Result<(), String> {
        self.judge(tenant, op, outcome, ttl::now_ns())
    }

    /// [`Model::observe`] at `now`.
    fn judge(
        &mut self,
        tenant: TenantId,
        op: Op<'_>,
        outcome: Result<&Reply, Refusal>,
        now: u64,
    ) -> Result<(), String> {
        let reply = match outcome {
            Ok(reply) => reply,
            Err(refusal) if !refusal.may_have_executed(&op) || !self.allows(op) => return Ok(()),
            Err(_) => {
                for part in parts(op).into_iter().filter(Op::is_write) {
                    let slot = self.slot(tenant, part.routing_key().expect("a single-key op"));
                    let mut states = self.states(&slot);
                    let left: Vec<State> =
                        states.iter().filter_map(|s| Some(on_key(part, s, now)?.1)).collect();
                    states.extend(left);
                    self.slots.insert(slot, states);
                }
                return Ok(());
            }
        };
        if matches!(op, Op::ScanRange { .. } | Op::ScanPrefix { .. }) || !self.allows(op) {
            let want = self.answer(tenant, op, now);
            return match want.as_ref() == Some(reply) {
                true => Ok(()),
                false => Err(format!("{op:?} answered {reply:?}, a correct store {want:?}")),
            };
        }
        let parts = parts(op);
        let replies: Vec<Reply> = match (op, reply) {
            (Op::MultiGet(_), Reply::Values(values)) if values.len() == parts.len() => {
                values.iter().cloned().map(Reply::Value).collect()
            }
            (Op::MultiSet { .. }, Reply::Stored) => vec![Reply::Stored; parts.len()],
            (Op::MultiGet(_) | Op::MultiSet { .. }, _) => {
                return Err(format!("{op:?} answered {reply:?}"));
            }
            _ => vec![reply.clone()],
        };
        let mut written = Vec::new();
        for (part, reply) in parts.into_iter().zip(replies) {
            let slot = self.slot(tenant, part.routing_key().expect("a single-key op"));
            let states = self.states(&slot);
            let explained: BTreeSet<State> = states
                .iter()
                .filter_map(|s| on_key(part, s, now).filter(|(r, _)| *r == reply))
                .map(|(_, left)| left)
                .collect();
            let Some(left) = explained.first() else {
                return Err(format!(
                    "tenant {tenant}, key {}: {reply:?} is no answer to {part:?} from any \
                     acceptable state {}",
                    fmt_bytes(&slot.1),
                    fmt_states(&states),
                ));
            };
            if acknowledges(part, &reply) {
                written.push((slot.clone(), left.clone()));
            }
            self.slots.insert(slot, explained);
        }
        if !written.is_empty() {
            self.writes.push(written);
        }
        Ok(())
    }

    /// How many entries the store may hold: one number unless a failed
    /// write left a key's presence open. Expired entries count until a
    /// sweep reaps them, as they do in the store.
    pub fn entries(&self) -> RangeInclusive<usize> {
        let states = || self.slots.values();
        let surely = states().filter(|s| s.iter().all(Option::is_some)).count();
        surely..=states().filter(|s| s.iter().any(Option::is_some)).count()
    }

    /// How many writes the model has acknowledged.
    pub fn writes(&self) -> usize {
        self.writes.len()
    }

    /// Checks that `store` holds exactly the model: see
    /// [`Model::check_reads`].
    pub fn check_store(&self, store: &ShieldStore) -> Result<(), String> {
        self.check_reads(store.len(), |tenant, op| store.execute(tenant, op))
    }

    /// Checks a store through any entry point: every tenant the model
    /// knows reads every key it knows through `exec` (so a key leaking
    /// between namespaces reads wrong) and sees an acceptable value, and
    /// the store's `len` entries are as many as the model holds.
    pub fn check_reads<E: Debug>(
        &self,
        len: usize,
        mut exec: impl FnMut(TenantId, Op<'_>) -> Result<Reply, E>,
    ) -> Result<(), String> {
        let now = ttl::now_ns();
        let tenants: BTreeSet<TenantId> = self.slots.keys().map(|slot| slot.0).collect();
        let keys: BTreeSet<&[u8]> = self.slots.keys().map(|slot| slot.1.as_slice()).collect();
        for tenant in tenants {
            for &key in &keys {
                let states = self.states(&(tenant, key.to_vec()));
                match exec(tenant, Op::Get(key)) {
                    Ok(Reply::Value(v)) if states.iter().any(|s| live(s, now) == v) => {}
                    other => {
                        return Err(format!(
                            "tenant {tenant}, key {} read {other:?}; the model holds {}",
                            fmt_bytes(key),
                            fmt_states(&states),
                        ));
                    }
                }
            }
        }
        match self.entries().contains(&len) {
            true => Ok(()),
            false => Err(format!("the store holds {len} entries, the model {:?}", self.entries())),
        }
    }

    /// The model as it stood after its first `n` acknowledged writes
    /// (all of them when it has fewer). Every key the model knows stays
    /// known, absent where those writes had not reached it, so a check
    /// also finds a later write that should not have survived.
    pub fn after(&self, n: usize) -> Model {
        let absent = BTreeSet::from([None]);
        let mut model = Model {
            caps: self.caps,
            slots: self.slots.keys().map(|slot| (slot.clone(), absent.clone())).collect(),
            writes: self.writes.iter().take(n).cloned().collect(),
        };
        for (slot, state) in model.writes.iter().flatten() {
            model.slots.insert(slot.clone(), BTreeSet::from([state.clone()]));
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m` observes a get of `key` answering `value`.
    fn sees(m: &mut Model, key: &[u8], value: Option<&[u8]>) -> Result<(), String> {
        m.observe(0, Op::Get(key), Ok(&Reply::Value(value.map(<[u8]>::to_vec))))
    }

    #[test]
    fn singleton_lifecycle() {
        let mut m = Model::default();
        sees(&mut m, b"k", None).unwrap();
        assert_eq!(m.apply(0, Op::set(b"k", b"v1")), Some(Reply::Stored));
        sees(&mut m, b"k", Some(b"v1")).unwrap();
        assert!(sees(&mut m, b"k", Some(b"v2")).is_err());
        assert!(sees(&mut m, b"k", None).is_err());
        assert_eq!(m.apply(0, Op::Delete(b"k")), Some(Reply::Deleted(true)));
        sees(&mut m, b"k", None).unwrap();
        assert_eq!(m.entries(), 0..=0);
    }

    #[test]
    fn failed_write_widens_then_collapses() {
        let mut m = Model::default();
        m.apply(0, Op::set(b"k", b"old"));
        m.observe(0, Op::set(b"k", b"new"), Err(Refusal::Failed)).unwrap();
        // Both old and new are now acceptable...
        sees(&mut m.clone(), b"k", Some(b"old")).unwrap();
        sees(&mut m, b"k", Some(b"new")).unwrap();
        // ...but the observation collapsed the set: "old" is gone.
        assert!(sees(&mut m, b"k", Some(b"old")).is_err());
        assert_eq!(m.writes(), 1, "a failed write is not acknowledged");
    }

    /// A refusal that ran nothing leaves every key as it was; one that
    /// may have run widens each key it wrote.
    #[test]
    fn a_refusal_widens_only_when_the_op_may_have_executed() {
        let refused = |refusal| {
            let mut m = Model::default();
            m.apply(0, Op::set(b"k", b"v1"));
            m.observe(0, Op::set(b"k", b"v2"), Err(refusal)).unwrap();
            m
        };
        for refusal in
            [Refusal::Busy, Refusal::Quarantined, Refusal::QuotaExceeded, Refusal::ReadOnly]
        {
            let mut m = refused(refusal);
            assert!(sees(&mut m.clone(), b"k", Some(b"v2")).is_err(), "{refusal:?} landed");
            sees(&mut m, b"k", Some(b"v1")).unwrap();
        }
        for refusal in [Refusal::StorageFailed, Refusal::Failed] {
            let m = refused(refusal);
            sees(&mut m.clone(), b"k", Some(b"v1")).unwrap();
            sees(&mut m.clone(), b"k", Some(b"v2")).unwrap();
        }
        // A batch over quota keeps the items placed before the refusal.
        let mut m = Model::default();
        let items: [(&[u8], &[u8]); 2] = [(b"a", b"1"), (b"b", b"2")];
        m.observe(0, Op::MultiSet { items: &items, expires_at: 0 }, Err(Refusal::QuotaExceeded))
            .unwrap();
        assert_eq!(m.entries(), 0..=2);
    }

    #[test]
    fn failed_delete_widens() {
        let mut m = Model::default();
        m.apply(0, Op::set(b"k", b"v"));
        m.observe(0, Op::Delete(b"k"), Err(Refusal::Failed)).unwrap();
        assert_eq!(m.entries(), 0..=1, "the key may or may not be there");
        sees(&mut m.clone(), b"k", None).unwrap();
        sees(&mut m, b"k", Some(b"v")).unwrap();
        // A delete that hits needs a present state, one that misses an
        // absent one.
        let mut gone = Model::default();
        assert!(gone.observe(0, Op::Delete(b"k"), Ok(&Reply::Deleted(true))).is_err());
        m.observe(0, Op::Delete(b"k"), Ok(&Reply::Deleted(true))).unwrap();
        assert!(m.observe(0, Op::Delete(b"k"), Ok(&Reply::Deleted(true))).is_err());
    }

    #[test]
    fn flat_caps_refuse_what_they_cannot_express() {
        let mut m = Model::new(Caps::FLAT);
        let leased = Op::Set { key: b"k", value: b"v", expires_at: 7 };
        assert_eq!(m.apply(3, leased), None);
        assert_eq!(m.apply(3, Op::ScanPrefix { prefix: b"", limit: 9 }), None);
        assert!(m.observe(3, leased, Ok(&Reply::Stored)).is_err(), "a lease was accepted");
        m.observe(3, leased, Err(Refusal::Failed)).unwrap();
        assert_eq!(m.entries(), 0..=0, "a refused write widens nothing");
        // One table: every tenant sees every tenant's keys.
        m.apply(7, Op::set(b"k", b"seven"));
        assert_eq!(m.apply(9, Op::Get(b"k")), Some(Reply::Value(Some(b"seven".to_vec()))));
        assert_eq!(m.apply(9, Op::Increment { key: b"k", delta: 1 }), None, "not numeric");
    }

    #[test]
    fn a_lease_crosses_its_deadline() {
        let _clock = ttl::TEST_CLOCK.lock().unwrap_or_else(|e| e.into_inner());
        let now = ttl::now_ns();
        ttl::freeze(now);
        let mut m = Model::default();
        m.apply(0, Op::Set { key: b"k", value: b"v", expires_at: now + 10 });
        m.apply(0, Op::Set { key: b"n", value: b"5", expires_at: now + 10 });
        assert_eq!(m.apply(0, Op::Increment { key: b"n", delta: 1 }), Some(Reply::Counter(6)));
        ttl::advance(9);
        sees(&mut m, b"k", Some(b"v")).unwrap();
        // The deadline is inclusive: from it on, the lease reads as absent.
        ttl::advance(1);
        sees(&mut m, b"k", None).unwrap();
        assert!(sees(&mut m, b"k", Some(b"v")).is_err(), "an expired value was served");
        assert_eq!(m.apply(0, Op::Exists(b"k")), Some(Reply::Exists(false)));
        assert_eq!(m.apply(0, Op::Delete(b"k")), Some(Reply::Deleted(false)));
        assert_eq!(m.entries(), 2..=2, "the expired entry waits for the sweep");
        assert_eq!(
            m.apply(0, Op::Append { key: b"k", suffix: b"+" }),
            Some(Reply::Appended(b"+".to_vec()))
        );
        sees(&mut m, b"n", Some(b"6")).unwrap();
        ttl::thaw();
    }

    #[test]
    fn after_replays_a_prefix_of_the_acknowledged_writes() {
        let mut m = Model::default();
        m.apply(0, Op::set(b"a", b"1"));
        m.apply(0, Op::set(b"b", b"1"));
        m.apply(0, Op::Delete(b"a"));
        m.apply(0, Op::Delete(b"zz")); // a miss: not a write
        m.apply(0, Op::set(b"b", b"2"));
        let items: [(&[u8], &[u8]); 2] = [(b"c", b"x"), (b"c", b"y")];
        m.apply(0, Op::MultiSet { items: &items, expires_at: 0 });
        assert_eq!(m.writes(), 5);
        let read = |m: &Model, key: &[u8]| m.clone().apply(0, Op::Get(key)).unwrap().value();
        let table: [(usize, [Option<&[u8]>; 3]); 6] = [
            (0, [None, None, None]),
            (1, [Some(b"1"), None, None]),
            (2, [Some(b"1"), Some(b"1"), None]),
            (3, [None, Some(b"1"), None]),
            (4, [None, Some(b"2"), None]),
            (9, [None, Some(b"2"), Some(b"y")]),
        ];
        for (n, want) in table {
            let at = m.after(n);
            for (key, want) in [b"a", b"b", b"c"].iter().zip(want) {
                assert_eq!(read(&at, *key), want.map(<[u8]>::to_vec), "after({n}), key {key:?}");
            }
            assert_eq!(at.writes(), n.min(5));
        }
        // The store holds exactly the prefix, keys written later included.
        let store: BTreeMap<&[u8], &[u8]> = BTreeMap::from([(b"b".as_slice(), b"1".as_slice())]);
        let exec = |_, op: Op<'_>| match op {
            Op::Get(key) => Ok::<_, ()>(Reply::Value(store.get(key).map(|v| v.to_vec()))),
            _ => Err(()),
        };
        m.after(3).check_reads(1, exec).unwrap();
        assert!(m.after(2).check_reads(1, exec).is_err(), "a lost write");
        assert!(m.after(4).check_reads(1, exec).is_err(), "a stale value");
        assert!(m.after(3).check_reads(2, exec).is_err(), "a phantom entry");
    }
}
