//! Replication by sealed-log shipping.
//!
//! The write-ahead log ([`crate::wal`]) is already a cryptographically
//! verifiable replication stream: CMAC-chained records rooted in a
//! generation genesis tag, segmented by snapshot rotation, and pinned
//! to a monotonic counter. This module ships that stream to replicas
//! and makes failover rollback-safe. The primary side is a thin reader
//! over its own log files; the replica side re-verifies every byte and
//! replays records through the same apply path recovery uses.
//!
//! # Stream format
//!
//! A subscription starts with a [`ReplHello`] carrying the log keys
//! (sent over the attested session layer only — see
//! `shield_net::repl`), the generation to start from (always genesis:
//! the primary refuses subscribers once rotation has pruned history —
//! snapshot transfer is future work, see DESIGN.md), and the primary's
//! durable watermark. The replica then polls [`ReplBatch`]es: raw
//! on-disk record frames, exactly as sealed, which the replica splits
//! with the log's one frame reader and opens against its own chain
//! position ([`crate::wal`]'s `Frames` and `ChainCursor`). A batch
//! never carries records past the primary's **durable** watermark — a
//! buffered-but-unfsynced op (the `EveryN`/`None` window) is
//! invisible to replicas, so a replica ack can never claim more than
//! the primary could survive losing.
//!
//! When the subscriber drains a finished generation the batch instead
//! carries a generation handover (`advance_to`) authenticated by
//! [`WalCodec::rotation_tag`]: the tag binds the *replica's own*
//! verified end position to the successor generation, so a tampered
//! stream cannot rebase a replica early and silently drop a tail.
//!
//! # Watermark protocol
//!
//! A [`Watermark`] is a `(generation, seq)` pair ordered
//! lexicographically. Replicas report their applied watermark back
//! ([`ShieldStore::repl_ack`]); the primary keeps the minimum across
//! subscribers as the log's *retention floor* so rotation never prunes
//! a generation someone is still streaming. [`ShieldStore::flush_wal`]
//! returns the durable watermark, so a client can write, flush, and
//! then wait for a specific replica to reach that exact commit point.
//!
//! # Promotion and fencing
//!
//! [`Replica::promote`] turns a replica into a primary in four steps,
//! each fail-closed:
//!
//! 1. **Pre-flight**: read the primary's sealed pin and verify it is
//!    current against a fresh read of its monotonic counter, carries
//!    the same log keys, and lists the replica's generation. A stale
//!    replica (its generation already pruned) or an already-fenced
//!    directory is rejected here.
//! 2. **Fence**: bump the primary's pin counter twice. The pin can
//!    claim at most `c + 1`, so after the bump no pin the old primary
//!    ever wrote verifies again: recovery from its directory reports
//!    [`Error::Rollback`], and a still-live primary fails closed on
//!    its next commit (the WAL re-reads the counter *file* before
//!    every pin write — the in-memory cache cannot mask the fence).
//! 3. **Catch-up**: verify every pinned segment end-to-end from the
//!    primary's (now frozen) directory, apply the records the stream
//!    had not yet delivered, and copy the verified bytes into the
//!    replica's own log directory.
//! 4. **Adopt**: seal a new pin over the copied segments bound to the
//!    replica's *own* monotonic counter and attach the log to the
//!    store. The first post-promotion commit chains off the shipped
//!    MAC, keeping the log verifiable end-to-end across the handover.
//!
//! Two replicas racing to promote are serialized by the counter
//! itself: [`PersistentCounter::increment`] refuses to clobber a value
//! another instance moved, so the loser's fence — and therefore its
//! promotion — fails closed.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::bytes::{Parsed, Reader, Writer};
use sgx_sim::storage::{OpenMode, StorageFile, StorageFs};
use shield_crypto::constant_time::ct_eq;

use crate::error::{Error, Result};
use crate::stats::StatsSnapshot;
use crate::store::ShieldStore;
use crate::wal::{self, ChainCursor, Frames, Segment, Wal, WalCodec, WalOp};

/// A replication stream position: `(generation, seq)`, ordered
/// lexicographically (derive order matters). `generation` is the
/// snapshot generation whose log the position lies in; `seq` the last
/// applied record within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Watermark {
    /// Snapshot generation (WAL segment) of the position.
    pub generation: u64,
    /// Last applied/committed record sequence number within it.
    pub seq: u64,
}

impl Watermark {
    /// Builds a watermark from a `(generation, seq)` pair.
    pub fn new(generation: u64, seq: u64) -> Self {
        Watermark { generation, seq }
    }
}

impl From<(u64, u64)> for Watermark {
    fn from((generation, seq): (u64, u64)) -> Self {
        Watermark { generation, seq }
    }
}

impl std::fmt::Display for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.generation, self.seq)
    }
}

/// Subscription handshake payload: everything a replica needs to start
/// verifying the sealed stream. Carries the raw log keys — it must
/// only ever travel over the attested, encrypted session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplHello {
    /// Subscriber id assigned by the primary; quoted in acks.
    pub subscriber: u64,
    /// The log's AES-CTR encryption key.
    pub enc_key: [u8; 16],
    /// The log's CMAC chain key.
    pub mac_key: [u8; 16],
    /// Generation the replica starts streaming from (its chain roots
    /// at this generation's genesis tag).
    pub start_generation: u64,
    /// The primary's durable watermark at subscription time.
    pub durable: Watermark,
}

const HELLO_VERSION: u8 = 1;

/// `[version u8 | subscriber u64 | enc_key (16) | mac_key (16) |
/// start_generation u64 | durable generation u64 | durable seq u64]`
impl ReplHello {
    /// Serializes the hello (versioned, fixed length).
    pub fn encode(&self) -> Vec<u8> {
        let w = &mut Writer::with_capacity(57);
        w.u8(HELLO_VERSION).u64(self.subscriber).bytes(&self.enc_key).bytes(&self.mac_key);
        w.u64(self.start_generation).u64(self.durable.generation).u64(self.durable.seq).done()
    }

    /// Decodes a hello; fails closed on any length or version
    /// mismatch.
    pub fn decode(bytes: &[u8]) -> Option<ReplHello> {
        let hello = Reader::whole(bytes, "replication hello", |r| -> Parsed<_> {
            r.tag(&[HELLO_VERSION])?;
            let (subscriber, enc_key, mac_key) = (r.u64()?, r.array()?, r.array()?);
            let start_generation = r.u64()?;
            let durable = Watermark::new(r.u64()?, r.u64()?);
            Ok(ReplHello { subscriber, enc_key, mac_key, start_generation, durable })
        });
        hello.ok()
    }
}

/// One chunk of the sealed stream: raw on-disk record frames from a
/// single generation, plus the primary's durable watermark and an
/// optional authenticated generation handover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplBatch {
    /// Generation the frames belong to.
    pub generation: u64,
    /// Sequence number of the first record in `frames`.
    pub start_seq: u64,
    /// Number of complete record frames in `frames`.
    pub count: u32,
    /// Raw length-prefixed sealed records, exactly as on the
    /// primary's disk.
    pub frames: Vec<u8>,
    /// When set, `generation` is finished at the subscriber's position
    /// and the stream continues in this generation.
    pub advance_to: Option<u64>,
    /// [`WalCodec::rotation_tag`] authenticating the handover; all
    /// zeros when `advance_to` is `None`.
    pub advance_tag: [u8; 16],
    /// The primary's durable watermark when the batch was cut. A
    /// replica refuses to apply (and therefore to ack) anything past
    /// it.
    pub durable: Watermark,
}

const BATCH_VERSION: u8 = 1;

/// `[version u8 | generation u64 | start_seq u64 | count u32 | durable
/// generation u64 | durable seq u64 | handover flag u8 | advance_to u64 |
/// advance_tag (16) | frames_len u32 | frames]`. Without a handover the
/// flag and `advance_to` are zero.
impl ReplBatch {
    /// The batch for a subscriber positioned after `(generation,
    /// after_seq)`, before any frame or handover is put in it.
    pub(crate) fn empty(generation: u64, after_seq: u64, durable: Watermark) -> Self {
        ReplBatch {
            generation,
            start_seq: after_seq + 1,
            count: 0,
            frames: Vec::new(),
            advance_to: None,
            advance_tag: [0; 16],
            durable,
        }
    }

    /// Adds one record frame, unless the batch already holds one and
    /// `frame` would take it past `max_bytes`; answers whether it did.
    /// The one size rule for a batch, whoever cuts it: the primary's log
    /// and a journaling replica answer a segment request alike.
    pub(crate) fn push_frame(&mut self, frame: &[u8], max_bytes: usize) -> bool {
        if !self.frames.is_empty() && self.frames.len() + frame.len() > max_bytes {
            return false;
        }
        self.frames.extend_from_slice(frame);
        self.count += 1;
        true
    }

    /// Serializes the batch (versioned header + raw frames).
    pub fn encode(&self) -> Vec<u8> {
        let w = &mut Writer::with_capacity(66 + self.frames.len());
        w.u8(BATCH_VERSION).u64(self.generation).u64(self.start_seq).u32(self.count);
        w.u64(self.durable.generation).u64(self.durable.seq);
        w.u8(self.advance_to.is_some() as u8).u64(self.advance_to.unwrap_or(0));
        w.bytes(&self.advance_tag).slice(&self.frames).done()
    }

    /// Decodes a batch; fails closed on any structural mismatch
    /// (version, handover flag, or frame-length accounting).
    pub fn decode(bytes: &[u8]) -> Option<ReplBatch> {
        let batch = Reader::whole(bytes, "replication batch", |r| -> Parsed<_> {
            r.tag(&[BATCH_VERSION])?;
            let (generation, start_seq, count) = (r.u64()?, r.u64()?, r.u32()?);
            let durable = Watermark::new(r.u64()?, r.u64()?);
            let advance_to = match (r.u8()?, r.u64()?) {
                (0, 0) => None,
                (1, next) => Some(next),
                _ => return Err(r.fail("bad handover in")),
            };
            let (advance_tag, frames) = (r.array()?, r.slice()?.to_vec());
            Ok(ReplBatch { generation, start_seq, count, frames, advance_to, advance_tag, durable })
        });
        batch.ok()
    }
}

/// Primary-side replication bookkeeping: subscriber watermarks (the
/// minimum is the log's retention floor) and shipping counters for
/// the stats gauges. Lives inside every [`ShieldStore`]; inert until
/// the first subscription.
#[derive(Default)]
pub(crate) struct PrimaryState {
    subscribers: Mutex<HashMap<u64, Watermark>>,
    next_id: AtomicU64,
    batches_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
}

impl PrimaryState {
    /// Oldest generation any subscriber still needs, or `u64::MAX`
    /// with no subscribers.
    fn retention_floor(subs: &HashMap<u64, Watermark>) -> u64 {
        subs.values().map(|w| w.generation).min().unwrap_or(u64::MAX)
    }

    /// Fills the replication gauges of a stats snapshot from the
    /// primary's perspective (`repl_role` 1 when anyone subscribes).
    pub(crate) fn fill_gauges(&self, snap: &mut StatsSnapshot, durable: Option<(u64, u64)>) {
        snap.repl_segments_shipped = self.batches_shipped.load(SeqCst);
        snap.repl_bytes_shipped = self.bytes_shipped.load(SeqCst);
        let subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        snap.repl_role = 1;
        snap.repl_subscribers = subs.len() as u64;
        let min = subs.values().min().copied().unwrap_or_default();
        snap.repl_acked_generation = min.generation;
        snap.repl_acked_seq = min.seq;
        if let Some((gen, seq)) = durable {
            if gen == min.generation {
                snap.repl_lag_records = seq.saturating_sub(min.seq);
            }
        }
    }
}

impl ShieldStore {
    fn repl_wal(&self) -> Result<&Wal> {
        self.wal_ref().ok_or_else(|| {
            Error::Persistence("replication requires an attached write-ahead log".into())
        })
    }

    /// Registers a replication subscriber and returns the handshake
    /// payload (log keys included — callers must only send it over an
    /// attested, encrypted session). Fails when no WAL is attached or
    /// when rotation has already pruned the log's genesis: a replica
    /// bootstraps by replaying the *whole* stream, and this store does
    /// not ship snapshots (documented limitation — the subscriber's
    /// retention floor prevents pruning from then on).
    pub fn repl_subscribe(&self) -> Result<ReplHello> {
        let wal = self.repl_wal()?;
        let ((enc_key, mac_key), oldest, durable) = wal.repl_hello_parts();
        if oldest != 0 {
            return Err(Error::Persistence(
                "cannot bootstrap a replica: rotation already pruned the log's genesis \
                 (snapshot transfer is not implemented)"
                    .into(),
            ));
        }
        let state = self.repl_state();
        let subscriber = state.next_id.fetch_add(1, SeqCst) + 1;
        let mut subs = state.subscribers.lock();
        subs.insert(subscriber, Watermark::new(oldest, 0));
        let floor = PrimaryState::retention_floor(&subs);
        drop(subs);
        wal.set_retain_floor(floor);
        Ok(ReplHello {
            subscriber,
            enc_key,
            mac_key,
            start_generation: oldest,
            durable: durable.into(),
        })
    }

    /// Cuts a batch of the sealed stream for a subscriber positioned
    /// after `(generation, after_seq)` — see [`Wal::ship_from`] via
    /// the module docs for the exact rules. Stateless with respect to
    /// the subscriber: position comes from the caller, progress from
    /// [`ShieldStore::repl_ack`].
    pub fn repl_batch(
        &self,
        generation: u64,
        after_seq: u64,
        max_bytes: usize,
    ) -> Result<ReplBatch> {
        let batch = self.repl_wal()?.ship_from(generation, after_seq, max_bytes)?;
        if batch.count > 0 || batch.advance_to.is_some() {
            let state = self.repl_state();
            state.batches_shipped.fetch_add(1, SeqCst);
            state.bytes_shipped.fetch_add(batch.frames.len() as u64, SeqCst);
        }
        Ok(batch)
    }

    /// Records a subscriber's applied watermark and refreshes the
    /// log's retention floor. An ack past the durable watermark is the
    /// group-commit durability violation replicas are built never to
    /// commit ([`Replica::apply_batch`] refuses the records first) —
    /// it fails closed here too.
    pub fn repl_ack(&self, subscriber: u64, ack: Watermark) -> Result<()> {
        let wal = self.repl_wal()?;
        let durable: Watermark = wal.durable_watermark().into();
        if ack > durable {
            return Err(Error::Rollback);
        }
        let state = self.repl_state();
        let mut subs = state.subscribers.lock();
        let slot = subs
            .get_mut(&subscriber)
            .ok_or_else(|| Error::Persistence("unknown replication subscriber".into()))?;
        if ack > *slot {
            *slot = ack;
        }
        let floor = PrimaryState::retention_floor(&subs);
        drop(subs);
        wal.set_retain_floor(floor);
        Ok(())
    }

    /// Drops a subscriber, releasing its hold on the retention floor.
    /// Forgotten subscribers pin log history forever (rotation then
    /// fails once [`crate::wal`]'s segment cap fills) — operators must
    /// unsubscribe replicas they retire.
    pub fn repl_unsubscribe(&self, subscriber: u64) -> Result<()> {
        let wal = self.repl_wal()?;
        let state = self.repl_state();
        let mut subs = state.subscribers.lock();
        subs.remove(&subscriber);
        let floor = PrimaryState::retention_floor(&subs);
        drop(subs);
        wal.set_retain_floor(floor);
        Ok(())
    }
}

/// The replica's verified-frame journal: every record that survives
/// chain verification in [`Replica::apply_batch`] is appended, raw and
/// length-prefixed exactly as on the primary's disk, to
/// `wal-<generation>.log` under the journal directory. The journal is a
/// **repair cache**, not a durability root — it carries no pin, is never
/// fsynced, and any write failure silently disables it — but because
/// every byte in it already verified against the CMAC chain, a primary
/// whose scrubber finds a rotted segment can re-fetch the damaged
/// generation from here ([`Replica::serve_frames`]) and re-verify the
/// chain before swap-in.
struct Journal {
    fs: Arc<dyn StorageFs>,
    dir: PathBuf,
    file: Box<dyn StorageFile>,
}

/// Replica-side stream state: verifies batches against its own chain
/// position and replays records into a live (read-only by convention)
/// store through the same apply path recovery uses. The store must be
/// fresh — empty, with no WAL of its own — so its contents are exactly
/// the verified stream.
pub struct Replica {
    store: Arc<ShieldStore>,
    codec: WalCodec,
    enc_key: [u8; 16],
    mac_key: [u8; 16],
    generation: u64,
    /// Last applied record of `generation` and the MAC it ended on.
    at: ChainCursor,
    primary_durable: Watermark,
    journal: Option<Journal>,
}

impl Replica {
    /// Binds a fresh store to a subscription. Fails when the store
    /// already holds data or a WAL — a replica's state must come from
    /// the stream alone.
    pub fn new(store: Arc<ShieldStore>, hello: &ReplHello) -> Result<Replica> {
        if store.wal_ref().is_some() {
            return Err(Error::Persistence(
                "a replica store must not have its own write-ahead log".into(),
            ));
        }
        if !store.is_empty() {
            return Err(Error::Persistence("a replica store must start empty".into()));
        }
        let codec = WalCodec::new(&hello.enc_key, &hello.mac_key);
        let at = ChainCursor::genesis(&codec, hello.start_generation);
        Ok(Replica {
            store,
            codec,
            enc_key: hello.enc_key,
            mac_key: hello.mac_key,
            generation: hello.start_generation,
            at,
            primary_durable: hello.durable,
            journal: None,
        })
    }

    /// [`Replica::new`], additionally journaling every verified frame
    /// under `journal_dir` so this replica can later serve segment
    /// repairs back to a primary whose disk rotted (see [`Journal`]).
    /// The directory must not be the replica's future promotion WAL
    /// directory — promotion writes its own files there.
    pub fn with_journal(
        store: Arc<ShieldStore>,
        hello: &ReplHello,
        journal_dir: &Path,
    ) -> Result<Replica> {
        let mut replica = Self::new(store, hello)?;
        let fs = Arc::clone(replica.store.storage_ref());
        fs.create_dir_all(journal_dir)?;
        let file =
            fs.open(&wal::log_path(journal_dir, hello.start_generation), OpenMode::Create)?;
        replica.journal = Some(Journal { fs, dir: journal_dir.to_path_buf(), file });
        Ok(replica)
    }

    /// The replica's applied (and therefore ackable) watermark.
    pub fn watermark(&self) -> Watermark {
        Watermark::new(self.generation, self.at.seq)
    }

    /// The primary's durable watermark as of the last applied batch —
    /// `watermark() == primary_durable()` means fully caught up.
    pub fn primary_durable(&self) -> Watermark {
        self.primary_durable
    }

    /// The store this replica replays into.
    pub fn store(&self) -> &Arc<ShieldStore> {
        &self.store
    }

    /// Verifies and applies one batch, returning the new watermark.
    /// Every failure is fail-closed *without desyncing the chain*: the
    /// replica's position stays at the last record that verified, so a
    /// clean re-poll from that position recovers. Records are refused
    /// (before MAC verification is even attempted) if they would take
    /// the replica past the batch's claimed durable watermark — the
    /// group-commit durability guarantee that an ack never exceeds what
    /// the primary could survive losing.
    pub fn apply_batch(&mut self, batch: &ReplBatch) -> Result<Watermark> {
        if batch.generation != self.generation {
            return Err(Error::Rollback);
        }
        if batch.count > 0 && batch.start_seq != self.at.seq + 1 {
            return Err(Error::LogIntegrity { seq: self.at.seq + 1 });
        }
        let mut applied = 0;
        for frame in Frames::new(&batch.frames, 0) {
            let fail = Error::LogIntegrity { seq: self.at.seq + 1 };
            // A torn frame, or bytes past the `count` frames the batch
            // announced.
            let Ok(frame) = frame else { return Err(fail) };
            if applied == batch.count {
                return Err(fail);
            }
            if Watermark::new(self.generation, self.at.seq + 1) > batch.durable {
                return Err(Error::Rollback);
            }
            // The position moves only once the record's ops are in the
            // store.
            let mut next = self.at;
            for op in next.open(&self.codec, frame.body)? {
                self.store.apply_replicated(op)?;
            }
            self.at = next;
            applied += 1;
            // Journal the frame only now that it verified: the journal
            // must never hold a byte the chain does not vouch for. A
            // failed journal write disables journaling (the cache goes
            // away; replication itself is unaffected).
            if let Some(j) = &mut self.journal {
                if j.file.write_all(frame.whole).is_err() {
                    self.journal = None;
                }
            }
        }
        if applied != batch.count {
            return Err(Error::LogIntegrity { seq: self.at.seq + 1 });
        }
        if let Some(next_gen) = batch.advance_to {
            let expect =
                self.codec.rotation_tag(self.generation, self.at.seq, &self.at.chain, next_gen);
            if next_gen <= self.generation || !ct_eq(&expect, &batch.advance_tag) {
                return Err(Error::LogIntegrity { seq: self.at.seq });
            }
            self.generation = next_gen;
            self.at = ChainCursor::genesis(&self.codec, next_gen);
            // Roll the journal with the stream.
            if let Some(j) = &mut self.journal {
                match j.fs.open(&wal::log_path(&j.dir, next_gen), OpenMode::Create) {
                    Ok(f) => j.file = f,
                    Err(_) => self.journal = None,
                }
            }
        }
        self.primary_durable = self.primary_durable.max(batch.durable);
        let wm = self.watermark();
        debug_assert!(
            wm <= self.primary_durable,
            "replica applied past the primary's durable watermark"
        );
        Ok(wm)
    }

    /// Serves verified frames of generation `gen` back out of the
    /// journal, in [`ReplBatch`] form so the existing segment-transfer
    /// plumbing carries them unchanged: frames after `after_seq`, up to
    /// ~`max_bytes` (always at least one frame when any remain). This is
    /// the donor side of scrub-and-repair — a primary that found `gen`
    /// rotted on its own disk fetches the frames from here and
    /// re-verifies the full CMAC chain before swapping them in
    /// ([`ShieldStore::repair_wal_segment`]). Fails when journaling is
    /// off (or was disabled by a write failure) or the generation was
    /// never journaled.
    pub fn serve_frames(&self, gen: u64, after_seq: u64, max_bytes: usize) -> Result<ReplBatch> {
        let j = self
            .journal
            .as_ref()
            .ok_or_else(|| Error::Persistence("replica journal is not enabled".into()))?;
        let data = j.fs.read(&wal::log_path(&j.dir, gen)).map_err(|_| {
            Error::Persistence(format!("generation {gen} is not in the replica journal"))
        })?;
        let mut batch = ReplBatch::empty(gen, after_seq, self.primary_durable);
        let mut seq = 0u64;
        for frame in Frames::new(&data, 0) {
            // A frame torn by the disabling write failure: serve only
            // the intact prefix.
            let Ok(frame) = frame else { break };
            seq += 1;
            if seq > after_seq && !batch.push_frame(frame.whole, max_bytes) {
                break;
            }
        }
        Ok(batch)
    }

    /// Promotes this replica to primary: fences the old primary
    /// through its monotonic counter, catches up from its (now
    /// frozen) sealed log on shared storage, copies the verified
    /// segments into `own_wal_dir`, and adopts them as the store's own
    /// WAL. Returns the promoted watermark — every write the old
    /// primary durably acked at or below it is readable here. See the
    /// module docs for the full fencing argument; every deviation
    /// (stale replica, stale pin, foreign keys, racing promotion)
    /// fails closed with [`Error::Rollback`].
    pub fn promote(self, primary_wal_dir: &Path, own_wal_dir: &Path) -> Result<Watermark> {
        let enclave = Arc::clone(self.store.enclave());
        let fs = Arc::clone(self.store.storage_ref());
        // Pre-flight on the live pin: refuse — before fencing anything —
        // when this replica's stream position is not one the pin can
        // extend, or the pin is already stale/fenced.
        let (pre, _) = wal::read_pin(&enclave, &fs, primary_wal_dir, true)?;
        if pre.enc_key != self.enc_key
            || pre.mac_key != self.mac_key
            || !pre.segments.iter().any(|s| s.snap == self.generation)
        {
            return Err(Error::Rollback);
        }
        // Fence, then re-read: the old primary can no longer advance its
        // pin, so catch-up below runs against a frozen log. The two
        // bumps put the counter exactly one or two past the last pin
        // legitimately written before the fence — anything older is a
        // stale pin swapped in underneath us.
        wal::fence(&fs, primary_wal_dir)?;
        let (mut pin, pcv) = wal::read_pin(&enclave, &fs, primary_wal_dir, false)?;
        if pin.pin_ctr + 2 != pcv && pin.pin_ctr + 1 != pcv {
            return Err(Error::Rollback);
        }
        if pin.enc_key != self.enc_key || pin.mac_key != self.mac_key {
            return Err(Error::Rollback);
        }
        let my_idx =
            pin.segments.iter().position(|s| s.snap == self.generation).ok_or(Error::Rollback)?;
        fs.create_dir_all(own_wal_dir)?;
        let store = Arc::clone(&self.store);
        let mut adopted: Vec<Segment> = Vec::with_capacity(pin.segments.len());
        for (i, seg) in pin.segments.iter().enumerate() {
            // Verify every segment end-to-end (what we copy must be
            // recoverable later); apply only records the stream had
            // not already delivered.
            let applied_up_to = match i.cmp(&my_idx) {
                std::cmp::Ordering::Less => u64::MAX,
                std::cmp::Ordering::Equal => self.at.seq,
                std::cmp::Ordering::Greater => 0,
            };
            let mut apply = |seq: u64, ops: Vec<WalOp>| -> Result<()> {
                if seq <= applied_up_to {
                    return Ok(());
                }
                for op in ops {
                    store.apply_replicated(op)?;
                }
                Ok(())
            };
            let (end, verified) =
                wal::verify_segment(fs.as_ref(), primary_wal_dir, &self.codec, seg, &mut apply)?;
            let path = wal::log_path(own_wal_dir, seg.snap);
            let mut f = fs.open(&path, OpenMode::Create)?;
            f.write_all(&verified)?;
            f.sync_all()?;
            adopted.push(Segment { snap: seg.snap, last_seq: end.seq, last_mac: end.chain });
        }
        let wm =
            adopted.last().map(|s| Watermark::new(s.snap, s.last_seq)).ok_or(Error::Rollback)?;
        let policy = self.store.config().durability;
        pin.segments = adopted;
        let adopted_wal = Wal::adopt(enclave, fs, own_wal_dir, policy, pin)?;
        self.store.install_wal(adopted_wal)?;
        self.store.recount_usage();
        Ok(wm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, DurabilityPolicy};
    use sgx_sim::counter::PersistentCounter;
    use sgx_sim::enclave::{Enclave, EnclaveBuilder};
    use sgx_sim::storage::FaultFs;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-repl-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn enclave(seed: u64) -> Arc<Enclave> {
        EnclaveBuilder::new("repl-test").seed(seed).epc_bytes(8 << 20).build()
    }

    fn config(policy: DurabilityPolicy) -> Config {
        Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2).with_durability(policy)
    }

    fn primary(seed: u64, dir: &Path, policy: DurabilityPolicy) -> Arc<ShieldStore> {
        let store = Arc::new(ShieldStore::new(enclave(seed), config(policy)).unwrap());
        store.attach_wal(dir).unwrap();
        store
    }

    /// A replica runs the same config as its primary — its durability
    /// policy governs the WAL it adopts at promotion.
    fn replica_store(seed: u64) -> Arc<ShieldStore> {
        Arc::new(ShieldStore::new(enclave(seed), config(DurabilityPolicy::Strict)).unwrap())
    }

    /// Pumps the stream until the replica reaches the primary's
    /// durable watermark. Returns the number of batches applied.
    fn catch_up(store: &ShieldStore, replica: &mut Replica, sub: u64) -> usize {
        let mut batches = 0;
        loop {
            let durable: Watermark = store.flush_wal().unwrap().unwrap();
            if replica.watermark() == durable {
                return batches;
            }
            let wm = replica.watermark();
            let batch = store.repl_batch(wm.generation, wm.seq, 1 << 16).unwrap();
            let acked = replica.apply_batch(&batch).unwrap();
            store.repl_ack(sub, acked).unwrap();
            batches += 1;
        }
    }

    #[test]
    fn hello_and_batch_roundtrip() {
        let hello = ReplHello {
            subscriber: 7,
            enc_key: [1; 16],
            mac_key: [2; 16],
            start_generation: 3,
            durable: Watermark::new(3, 9),
        };
        assert_eq!(ReplHello::decode(&hello.encode()), Some(hello.clone()));
        let mut bytes = hello.encode();
        bytes[0] = 9;
        assert_eq!(ReplHello::decode(&bytes), None);
        assert_eq!(ReplHello::decode(&hello.encode()[..10]), None);

        let batch = ReplBatch {
            generation: 1,
            start_seq: 4,
            count: 2,
            frames: vec![5; 96],
            advance_to: Some(6),
            advance_tag: [7; 16],
            durable: Watermark::new(1, 9),
        };
        assert_eq!(ReplBatch::decode(&batch.encode()), Some(batch.clone()));
        let mut bytes = batch.encode();
        bytes.push(0); // trailing garbage
        assert_eq!(ReplBatch::decode(&bytes), None);
        bytes = batch.encode();
        bytes[37] = 2; // invalid flag byte
        assert_eq!(ReplBatch::decode(&bytes), None);
    }

    /// A primary and a journaling replica of it cut a segment request
    /// at the same frame, even when `max_bytes` falls inside one.
    #[test]
    fn primary_and_journal_cut_batches_alike() {
        let dir = tmpdir("cut");
        let store = primary(42, &dir, DurabilityPolicy::Strict);
        let hello = store.repl_subscribe().unwrap();
        let journal = dir.join("journal");
        let mut replica = Replica::with_journal(replica_store(43), &hello, &journal).unwrap();
        for i in 0..6u32 {
            store.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        catch_up(&store, &mut replica, hello.subscriber);
        let frame = store.repl_batch(0, 0, 1).unwrap().frames.len();
        for max_bytes in [1, frame + frame / 2, 3 * frame - 1, 3 * frame, usize::MAX] {
            for after_seq in [0, 2] {
                let shipped = store.repl_batch(0, after_seq, max_bytes).unwrap();
                let served = replica.serve_frames(0, after_seq, max_bytes).unwrap();
                assert_eq!(shipped.frames, served.frames, "max_bytes {max_bytes}");
                assert_eq!(shipped.count, served.count, "max_bytes {max_bytes}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_orders_lexicographically() {
        assert!(Watermark::new(0, 9) < Watermark::new(1, 0));
        assert!(Watermark::new(1, 0) < Watermark::new(1, 1));
        assert_eq!(Watermark::new(2, 3).to_string(), "2:3");
    }

    #[test]
    fn stream_replicates_and_acks_track() {
        let dir = tmpdir("stream");
        let store = primary(31, &dir, DurabilityPolicy::Strict);
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        store.delete(b"k0").unwrap();

        let hello = store.repl_subscribe().unwrap();
        let rstore = replica_store(32);
        let mut replica = Replica::new(Arc::clone(&rstore), &hello).unwrap();
        catch_up(&store, &mut replica, hello.subscriber);

        assert_eq!(rstore.len(), 19);
        assert_eq!(rstore.get(b"k5").unwrap(), b"v5");
        assert!(rstore.get(b"k0").is_err());

        // Lag gauges: fully acked, zero lag, role = primary.
        let snap = store.snapshot();
        assert_eq!(snap.repl_role, 1);
        assert_eq!(snap.repl_subscribers, 1);
        assert_eq!(snap.repl_lag_records, 0);
        assert!(snap.repl_segments_shipped > 0);
        assert!(snap.repl_bytes_shipped > 0);
        snap.check_consistent().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_never_sees_buffered_ops_and_over_ack_rejected() {
        let dir = tmpdir("durable-caveat");
        // EveryN(100): writes buffer in enclave memory, nothing durable.
        let store = primary(33, &dir, DurabilityPolicy::EveryN(100));
        let hello = store.repl_subscribe().unwrap();
        store.set(b"buffered", b"x").unwrap();

        // The batch for a caught-up subscriber is empty: the buffered
        // op is not durable, so it must not ship.
        let batch = store.repl_batch(0, 0, 1 << 16).unwrap();
        assert_eq!(batch.count, 0);
        assert_eq!(batch.durable, Watermark::new(0, 0));

        // An ack past the durable watermark fails closed.
        assert_eq!(store.repl_ack(hello.subscriber, Watermark::new(0, 1)), Err(Error::Rollback));

        // A tampered batch claiming records beyond its own durable
        // watermark is refused by the replica before apply.
        let durable: Watermark = store.flush_wal().unwrap().unwrap();
        assert_eq!(durable, Watermark::new(0, 1));
        let mut batch = store.repl_batch(0, 0, 1 << 16).unwrap();
        assert_eq!(batch.count, 1);
        batch.durable = Watermark::new(0, 0); // pretend nothing is durable
        let rstore = replica_store(34);
        let mut replica = Replica::new(Arc::clone(&rstore), &hello).unwrap();
        assert_eq!(replica.apply_batch(&batch), Err(Error::Rollback));
        assert_eq!(replica.watermark(), Watermark::new(0, 0), "chain must not desync");
        // The honest batch still applies from the same position.
        batch.durable = durable;
        assert_eq!(replica.apply_batch(&batch).unwrap(), Watermark::new(0, 1));
        assert_eq!(rstore.get(b"buffered").unwrap(), b"x");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_survives_rotation_gaplessly() {
        let dir = tmpdir("rotate");
        let store = primary(35, &dir, DurabilityPolicy::Strict);
        let hello = store.repl_subscribe().unwrap();
        let rstore = replica_store(36);
        let mut replica = Replica::new(Arc::clone(&rstore), &hello).unwrap();

        store.set(b"before", b"1").unwrap();
        let wal = store.wal_ref().unwrap();
        wal.rotate_begin(5).unwrap();
        store.set(b"mid", b"2").unwrap();
        // rotate_commit with a subscriber still in generation 0: the
        // retention floor must keep the old segment (and its file).
        wal.rotate_commit(5).unwrap();
        assert!(
            wal::log_path(&dir, 0).exists(),
            "retention floor must keep the subscribed generation alive"
        );
        store.set(b"after", b"3").unwrap();

        catch_up(&store, &mut replica, hello.subscriber);
        assert_eq!(replica.watermark().generation, 5);
        assert_eq!(rstore.get(b"before").unwrap(), b"1");
        assert_eq!(rstore.get(b"mid").unwrap(), b"2");
        assert_eq!(rstore.get(b"after").unwrap(), b"3");

        // Once the subscriber acked into generation 5, the floor moves
        // and rotate_commit may prune generation 0.
        wal.rotate_commit(5).unwrap();
        assert!(!wal::log_path(&dir, 0).exists(), "acked-past generations may be pruned");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_advance_fails_closed() {
        let dir = tmpdir("forged-advance");
        let store = primary(37, &dir, DurabilityPolicy::Strict);
        let hello = store.repl_subscribe().unwrap();
        let rstore = replica_store(38);
        let mut replica = Replica::new(Arc::clone(&rstore), &hello).unwrap();
        store.set(b"a", b"1").unwrap();
        store.set(b"b", b"2").unwrap();

        // Forge an early handover: correct-looking advance to a new
        // generation while records remain in generation 0. Without the
        // MAC key the tag cannot be forged.
        let batch = ReplBatch {
            generation: 0,
            start_seq: 1,
            count: 0,
            frames: Vec::new(),
            advance_to: Some(5),
            advance_tag: [0xAB; 16],
            durable: Watermark::new(0, 2),
        };
        assert!(matches!(replica.apply_batch(&batch), Err(Error::LogIntegrity { .. })));
        assert_eq!(replica.watermark(), Watermark::new(0, 0), "chain must not desync");

        // The honest stream still applies.
        catch_up(&store, &mut replica, hello.subscriber);
        assert_eq!(rstore.get(b"b").unwrap(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_fences_stale_primary_and_keeps_acked_writes() {
        let pdir = tmpdir("promote-primary");
        let rdir = tmpdir("promote-replica");
        let enc = enclave(39);
        let store =
            Arc::new(ShieldStore::new(Arc::clone(&enc), config(DurabilityPolicy::Strict)).unwrap());
        store.attach_wal(&pdir).unwrap();
        for i in 0..10u32 {
            store.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let hello = store.repl_subscribe().unwrap();
        // Same name + seed: the replica runs the same enclave binary on
        // the same platform, so MRENCLAVE sealing lets it read the pin.
        let ffs = Arc::new(FaultFs::new());
        let rstore = ShieldStore::new_with_storage(
            enclave(39),
            config(DurabilityPolicy::Strict),
            ffs.clone(),
        );
        let rstore = Arc::new(rstore.unwrap());
        let mut replica = Replica::new(Arc::clone(&rstore), &hello).unwrap();
        // Stream only half the records; the rest must come from
        // promotion catch-up off the shared log directory.
        let batch = store.repl_batch(0, 0, 1).unwrap();
        assert!(u64::from(batch.count) < 10);
        replica.apply_batch(&batch).unwrap();

        let wm = replica.promote(&pdir, &rdir).unwrap();
        assert_eq!(wm, Watermark::new(0, 10));
        for i in 0..10u32 {
            assert_eq!(rstore.get(format!("k{i}").as_bytes()).unwrap(), b"v");
        }

        // The promoted store accepts writes through its adopted WAL.
        rstore.set(b"post-promotion", b"w").unwrap();

        // The fenced stale primary fails closed on its next commit...
        assert_eq!(store.set(b"stale-write", b"x"), Err(Error::Rollback));
        // ...and recovery from its directory reports a rollback.
        let ctr = PersistentCounter::open(pdir.join("snapctr")).unwrap();
        let recovered =
            ShieldStore::recover(enclave(39), config(DurabilityPolicy::Strict), None, &ctr, &pdir);
        assert!(matches!(recovered, Err(Error::Rollback)));

        // The promoted node's own directory recovers cleanly,
        // including the post-promotion write chained onto the shipped
        // MAC chain.
        ffs.crash();
        drop(rstore);
        let ctr = PersistentCounter::open(rdir.join("snapctr")).unwrap();
        let recovered =
            ShieldStore::recover(enclave(39), config(DurabilityPolicy::Strict), None, &ctr, &rdir)
                .unwrap();
        assert_eq!(recovered.len(), 11);
        assert_eq!(recovered.get(b"post-promotion").unwrap(), b"w");
        fs::remove_dir_all(&pdir).unwrap();
        fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn second_promotion_fails_closed() {
        let pdir = tmpdir("double-primary");
        let r1dir = tmpdir("double-r1");
        let r2dir = tmpdir("double-r2");
        let store = primary(41, &pdir, DurabilityPolicy::Strict);
        store.set(b"a", b"1").unwrap();
        let h1 = store.repl_subscribe().unwrap();
        let h2 = store.repl_subscribe().unwrap();
        let s1 = replica_store(41);
        let s2 = replica_store(41);
        let mut r1 = Replica::new(Arc::clone(&s1), &h1).unwrap();
        let mut r2 = Replica::new(Arc::clone(&s2), &h2).unwrap();
        catch_up(&store, &mut r1, h1.subscriber);
        catch_up(&store, &mut r2, h2.subscriber);

        r1.promote(&pdir, &r1dir).unwrap();
        // The second replica's promotion must fail closed: the pin's
        // counter was already fenced past its claim.
        assert_eq!(r2.promote(&pdir, &r2dir), Err(Error::Rollback));
        // The failed promotion must not have produced a usable store:
        // its store keeps serving reads but never got a WAL.
        assert!(s2.wal_ref().is_none());
        for d in [&pdir, &r1dir, &r2dir] {
            let _ = fs::remove_dir_all(d);
        }
    }
}
