//! The grouped body: a stretch of single-key reads and writes run as one,
//! grouped by bucket set, so each set it touches is verified once before
//! its first op and its hash re-stored once after its last write (paper
//! §4.3's set hash is the per-op cost this amortises). The ops run in
//! `(set, bucket, input position)` order — one key's ops keep their input
//! order, so a read after a write of the same key sees the write — against
//! the enclave's verified copy of the set (`Scratch::set`), which each
//! write patches where it writes a tag.
//!
//! One body serves a burst ([`Shard::execute_burst`]: every op through the
//! four stations, each with its own tenant, context and answer), a single
//! op (a burst of one) and a batch op (`MultiGet` / `MultiSet`: the items
//! of one op that has passed the stations once, and whose first failure
//! fails it).

use super::body::{note_write, probe_cache, warm};
use super::verify::PendingSet;
use super::{check_item, Access, OpCtx, Shard};
use crate::error::Result;
use crate::op::{Op, Reply};
use crate::table::TableCtx;
use crate::wal::Wal;

/// How a grouped run answers.
#[derive(Clone, Copy)]
pub(super) enum Mode<'w> {
    /// The ops of a burst: each passes the four stations and answers on
    /// its own; `wal` takes each write as it lands.
    Burst(Option<&'w Wal>),
    /// The items of one batch op: the first failure ends the run.
    Batch,
}

/// Whether `op` runs inside a grouped run. Any other op of a burst runs
/// alone, at its turn, between two runs.
pub(super) fn groups(op: &Op<'_>) -> bool {
    matches!(op, Op::Get(_) | Op::Exists(_) | Op::Set { .. })
}

/// The bucket set a grouped run holds open: verified, and whether a write
/// has changed it since (its hash is then owed).
#[derive(Default)]
struct OpenSet {
    set: Option<usize>,
    dirty: bool,
    /// Where in the run's order the set was opened.
    from: usize,
}

impl Access {
    /// Places a run's keys in `main` as `(set, bucket, input position)`,
    /// sorted into `order`: grouped by bucket set so each set hash is
    /// derived once, while one key's ops (same bucket) keep their input
    /// order. Placing a key also hints its set and chain, so the whole
    /// run's first misses are in flight before the first key is verified.
    fn place<'k>(
        &self,
        main: &TableCtx,
        keys: impl Iterator<Item = &'k [u8]>,
        order: &mut Vec<(usize, usize, usize)>,
    ) {
        order.clear();
        order.extend(keys.enumerate().map(|(i, key)| {
            let bucket = self.bucket_of(main, key);
            self.hint_access(main, bucket);
            (main.sets.set_of(bucket), bucket, i)
        }));
        order.sort_unstable();
    }

    /// What an op on `bucket` of `set` opens with: nothing to verify while
    /// the run holds the set open (the bucket's chain is hinted), else the
    /// first half of verifying the set, which opens it.
    fn enter(
        &mut self,
        main: &TableCtx,
        set: usize,
        bucket: usize,
        open: &mut OpenSet,
    ) -> Result<Option<PendingSet>> {
        if open.set == Some(set) {
            self.stats.batch_verifications_saved += 1;
            self.hint_chain(main, bucket);
            return Ok(None);
        }
        debug_assert!(open.set.is_none() && !open.dirty, "a set left open with its hash owed");
        let pending = self.begin_verify(main, bucket)?;
        open.set = Some(set);
        Ok(Some(pending))
    }
}

/// The key of an op that [`groups`].
fn key_of<'a>(op: &Op<'a>) -> &'a [u8] {
    op.routing_key().unwrap_or_default()
}

impl Shard {
    /// Runs `items` (each an op that [`groups`] under its own context) as
    /// one grouped run, each answer into its slot of `out`. While a
    /// snapshot is in progress, reads span the temp and frozen tables,
    /// whose bucket sets do not line up, and writes land in the small temp
    /// table: the ops then run one by one, in input order.
    ///
    /// An op that fails closes its set — re-storing the hash of what the
    /// run wrote to it so far — so the set's next op verifies it afresh:
    /// a failed verification fails closed that set's ops only.
    pub(super) fn grouped(
        &mut self,
        mode: Mode<'_>,
        items: &[(OpCtx<'_>, Op<'_>)],
        out: &mut [Option<Result<Reply>>],
    ) {
        if items.is_empty() {
            return;
        }
        let Some(main) = self.tables.live() else {
            for ((ctx, op), slot) in items.iter().zip(out.iter_mut()) {
                let result = self.answer(mode, ctx, *op, |s| s.run(ctx, *op));
                let stop = result.is_err() && matches!(mode, Mode::Batch);
                *slot = Some(result);
                if stop {
                    return;
                }
            }
            return;
        };
        let mut order = std::mem::take(&mut self.order);
        self.access.place(main, items.iter().map(|(_, op)| key_of(op)), &mut order);
        let mut open = OpenSet::default();
        for at in 0..order.len() {
            let (set, bucket, i) = order[at];
            if open.set.is_some_and(|open| open != set) {
                self.close(&mut open, &order[..at], items, out);
            }
            if open.set.is_none() {
                open.from = at;
            }
            let (ctx, op) = &items[i];
            let result =
                self.answer(mode, ctx, *op, |s| s.step(ctx, *op, (set, bucket), &mut open));
            let failed = result.is_err();
            out[i] = Some(result);
            if failed {
                self.close(&mut open, &order[..=at], items, out);
                if let Mode::Batch = mode {
                    break;
                }
            }
        }
        self.close(&mut open, &order, items, out);
        self.order = order;
    }

    /// Runs `body` for `op` as `mode` answers: through the four stations
    /// for an op of a burst, bare for an item of a batch op.
    fn answer(
        &mut self,
        mode: Mode<'_>,
        ctx: &OpCtx<'_>,
        op: Op<'_>,
        body: impl FnOnce(&mut Self) -> Result<Reply>,
    ) -> Result<Reply> {
        match mode {
            Mode::Burst(wal) => self.station(ctx, op, wal, body),
            Mode::Batch => body(self),
        }
    }

    /// One read or write of a grouped run, on `bucket` of `set`, checked
    /// against the set's verified copy — opening the set first unless the
    /// run holds it open.
    fn step(
        &mut self,
        ctx: &OpCtx<'_>,
        op: Op<'_>,
        (set, bucket): (usize, usize),
        open: &mut OpenSet,
    ) -> Result<Reply> {
        let Some(main) = self.tables.live_mut() else { return self.run(ctx, op) };
        let access = &mut self.access;
        match op {
            Op::Get(key) | Op::Exists(key) => {
                let found = match probe_cache(&mut self.cache, &mut access.stats, ctx.tenant, key) {
                    // A cache hit is already resident.
                    Some(value) => Some(value),
                    None => {
                        let pending = access.enter(main, set, bucket, open)?;
                        let found = access.get_in_bucket(ctx, main, bucket, key, pending)?;
                        found.map(|(value, expires_at)| {
                            warm(&mut self.cache, ctx, key, &value, expires_at);
                            value
                        })
                    }
                };
                access.tally_hits(ctx.state, found.is_some() as u64, found.is_none() as u64);
                Ok(match op {
                    Op::Exists(_) => Reply::Exists(found.is_some()),
                    _ => Reply::Value(found),
                })
            }
            Op::Set { key, value, .. } => {
                check_item(key, value)?;
                let pending = access.enter(main, set, bucket, open)?;
                if pending.is_none() && open.dirty {
                    access.stats.batch_hash_updates_saved += 1;
                }
                access.set_in_bucket(ctx, main, bucket, key, value, pending)?;
                open.dirty = true;
                note_write(&mut self.cache, &mut self.index, ctx, key, value);
                Ok(Reply::Stored)
            }
            _ => self.run(ctx, op),
        }
    }

    /// Closes the open set, re-storing its hash from the enclave's copy
    /// when a write changed it. Should that fail (the copy is not the
    /// set's), the stored hash stays as it was, so the set fails closed at
    /// its next verification — and the writes of it among `placed` that
    /// answered `Ok` answer the failure instead.
    fn close(
        &mut self,
        open: &mut OpenSet,
        placed: &[(usize, usize, usize)],
        items: &[(OpCtx<'_>, Op<'_>)],
        out: &mut [Option<Result<Reply>>],
    ) {
        let (Some(set), true) = (open.set.take(), std::mem::take(&mut open.dirty)) else {
            return;
        };
        let Some(main) = self.tables.live_mut() else { return };
        if let Err(e) = self.access.update_set_hash(main, set) {
            for &(_, _, i) in &placed[open.from..] {
                if items[i].1.is_write() && matches!(out[i], Some(Ok(_))) {
                    out[i] = Some(Err(e.clone()));
                }
            }
        }
    }
}
