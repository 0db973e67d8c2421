//! One damaged image, every reader, recorded verdicts.
//!
//! The sealed log is read by six callers — crash recovery, the scrubber,
//! log shipping, a replica applying what was shipped, segment repair and
//! a journaling replica serving frames back — and each has its own
//! answer to a bad frame: recovery truncates a torn tail past the pin
//! and fails closed inside it, shipping refuses, scrub reports, a
//! replica refuses without moving, the journal serves the intact prefix.
//! This test builds one two-generation log under `Strict`, damages the
//! current generation's file in every way a disk or a host can (cut
//! headers, implausible lengths, flipped bits in every field, frames
//! dropped, duplicated, swapped, garbage) at four positions (the first
//! record, one mid-pin, the pinned last, and a record written but never
//! pinned), hands the same bytes to all six, and compares what each
//! says with `wal_readers.expected` — recorded once, from the code as it
//! was when each reader still parsed frames by hand. A refactor of the
//! readers passes with no cell edited; a cell that moves is a verdict
//! that changed.

use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use sgx_sim::storage::{FaultFs, FaultKind, FaultOp, FaultSpec, StorageFs};
use shieldstore::{
    Config, DurabilityPolicy, Error, ReplBatch, ReplHello, Replica, ShieldStore, Watermark,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Smallest and largest record body the format allows, restated here on
/// purpose: the damage must not move if the readers' bounds do.
const MIN_LEN: u32 = 8 + 16 + 16;
const MAX_LEN: u32 = 1 << 30;

/// Records in the old generation, and pinned records in the current one
/// (which also holds one more whose fsync failed: on disk, never pinned).
const OLD_RECORDS: u64 = 3;
const PINNED: u64 = 4;

fn enclave(seed: u64) -> Arc<Enclave> {
    EnclaveBuilder::new("wal-readers").seed(seed).epc_bytes(8 << 20).build()
}

fn config() -> Config {
    Config::shield_opt()
        .buckets(64)
        .mac_hashes(16)
        .with_shards(2)
        .with_durability(DurabilityPolicy::Strict)
}

/// `[start, end)` of every whole frame in a clean image.
fn spans(image: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < image.len() {
        let len = u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
        out.push((off, off + 4 + len));
        off += 4 + len;
    }
    assert_eq!(off, image.len(), "the clean image is whole frames");
    out
}

const DAMAGES: [&str; 15] = [
    "cut1", "cut2", "cut3", "len0", "lenmin-1", "lenmax+1", "leneof", "flipseq", "flipiv",
    "flipct", "flipmac", "drop", "dup", "swap", "garbage",
];
const POSITIONS: [(&str, usize); 4] = [("first", 0), ("mid", 1), ("last", 3), ("past", 4)];

/// The clean image with `damage` applied to frame `at`.
fn damaged(clean: &[u8], damage: &str, at: usize) -> Vec<u8> {
    let spans = spans(clean);
    let (s, e) = spans[at];
    let mut image = clean.to_vec();
    let set_len =
        |image: &mut Vec<u8>, len: u32| image[s..s + 4].copy_from_slice(&len.to_le_bytes());
    match damage {
        "none" => {}
        "cut1" => image.truncate(s + 1),
        "cut2" => image.truncate(s + 2),
        "cut3" => image.truncate(s + 3),
        "len0" => set_len(&mut image, 0),
        "lenmin-1" => set_len(&mut image, MIN_LEN - 1),
        "lenmax+1" => set_len(&mut image, MAX_LEN + 1),
        "leneof" => set_len(&mut image, (clean.len() - s - 4 + 1) as u32),
        "flipseq" => image[s + 4] ^= 0x01,
        "flipiv" => image[s + 12 + 5] ^= 0x10,
        "flipct" => image[s + 28] ^= 0x80,
        "flipmac" => image[e - 1] ^= 0x04,
        "drop" => drop(image.drain(s..e)),
        "dup" => {
            let frame = clean[s..e].to_vec();
            image.splice(e..e, frame);
        }
        "swap" => {
            // With its successor, or for the last frame its predecessor.
            let (a, b) = if at + 1 < spans.len() { (at, at + 1) } else { (at - 1, at) };
            let mut swapped = clean[..spans[a].0].to_vec();
            swapped.extend_from_slice(&clean[spans[b].0..spans[b].1]);
            swapped.extend_from_slice(&clean[spans[a].0..spans[a].1]);
            swapped.extend_from_slice(&clean[spans[b].1..]);
            image = swapped;
        }
        "garbage" => drop(image.splice(e..e, [0x55u8; 11])),
        other => panic!("unknown damage {other}"),
    }
    image
}

struct Rig {
    dir: PathBuf,
    primary: Arc<ShieldStore>,
    /// A journaling replica caught up to the pinned tail.
    donor: Replica,
    /// `wal-1.log` as written: `PINNED` pinned records and one more.
    clean: Vec<u8>,
    cells: u64,
}

fn pump(primary: &ShieldStore, replica: &mut Replica, stop_at_generation: Option<u64>) {
    loop {
        let wm = replica.watermark();
        if stop_at_generation == Some(wm.generation) {
            return;
        }
        let batch = primary.repl_batch(wm.generation, wm.seq, 1 << 20).unwrap();
        if batch.count == 0 && batch.advance_to.is_none() {
            return;
        }
        replica.apply_batch(&batch).unwrap();
    }
}

fn fresh_replica(hello: &ReplHello, seed: u64) -> Replica {
    Replica::new(Arc::new(ShieldStore::new(enclave(seed), config()).unwrap()), hello).unwrap()
}

impl Rig {
    fn new() -> Rig {
        let dir = std::env::temp_dir().join(format!("ss-wal-readers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ffs = Arc::new(FaultFs::new());
        let fs: Arc<dyn StorageFs> = Arc::clone(&ffs) as Arc<dyn StorageFs>;
        let primary = Arc::new(ShieldStore::new_with_storage(enclave(1), config(), fs).unwrap());
        primary.attach_wal(dir.join("wal")).unwrap();
        let hello = primary.repl_subscribe().unwrap();
        let mut donor = Replica::with_journal(
            Arc::new(ShieldStore::new(enclave(2), config()).unwrap()),
            &hello,
            &dir.join("journal"),
        )
        .unwrap();

        for i in 0..OLD_RECORDS {
            primary.set(format!("old-{i}").as_bytes(), b"generation zero").unwrap();
        }
        // A snapshot whose writer fails rotates the log and never
        // retires the old generation: the pin lists both.
        let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
        let job = primary.snapshot_background(dir.join("missing").join("s.db"), &counter).unwrap();
        assert!(job.finish().is_err());
        for i in 0..PINNED {
            primary.set(format!("new-{i}").as_bytes(), b"generation one").unwrap();
        }
        // One more record reaches the file, but its fsync fails: the
        // writer poisons before the record is counted or pinned.
        ffs.inject(FaultSpec::first(FaultOp::SyncData, "wal-1", FaultKind::SyncFail));
        assert_eq!(primary.set(b"unpinned", b"never acknowledged"), Err(Error::StorageFailed));
        assert_eq!(primary.flush_wal(), Err(Error::StorageFailed));

        pump(&primary, &mut donor, None);
        assert_eq!(donor.watermark(), Watermark::new(1, PINNED));
        let clean = std::fs::read(dir.join("wal").join("wal-1.log")).unwrap();
        assert_eq!(spans(&clean).len() as u64, PINNED + 1);
        Rig { dir, primary, donor, clean, cells: 0 }
    }

    /// Hands `image` to every reader and returns one table row.
    fn row(&mut self, damage: &str, position: &str, image: &[u8]) -> String {
        self.cells += 1;
        let wal = self.dir.join("wal");
        std::fs::write(wal.join("wal-1.log"), image).unwrap();
        let mut row = format!("{damage:<9}{position:<6}");

        // Crash recovery, on a copy: it truncates and re-pins.
        let copy = self.dir.join(format!("recover-{}", self.cells));
        std::fs::create_dir_all(&copy).unwrap();
        for name in ["wal-0.log", "wal-1.log", "wal.pin", "wal.pin.ctr"] {
            std::fs::copy(wal.join(name), copy.join(name)).unwrap();
        }
        let counter = PersistentCounter::open(copy.join("snapctr")).unwrap();
        match ShieldStore::recover(enclave(1), config(), None, &counter, &copy) {
            Ok(store) => {
                let kept = std::fs::read(copy.join("wal-1.log")).unwrap().len();
                write!(row, "| recover=Ok keys={} log={kept} ", store.len()).unwrap();
            }
            Err(e) => write!(row, "| recover={e:?} ").unwrap(),
        }

        // One full scrub pass.
        let (mut bytes, mut corrupt) = (0, Vec::new());
        loop {
            let tick = self.primary.scrub_tick(1 << 20).unwrap();
            bytes += tick.verified_bytes;
            corrupt.extend(tick.corrupt_generation);
            assert!(!tick.pin_corrupt && !tick.snapshot_corrupt);
            if tick.pass_completed {
                break;
            }
        }
        write!(row, "| scrub=corrupt{corrupt:?} bytes={bytes} ").unwrap();

        // Shipping from the start, and a replica applying what shipped.
        let hello = self.primary.repl_subscribe().unwrap();
        let mut replica = fresh_replica(&hello, 3);
        let stream = loop {
            let wm = replica.watermark();
            match self.primary.repl_batch(wm.generation, wm.seq, 1 << 20) {
                Err(e) => break format!("ship={e:?}"),
                Ok(batch) if batch.count == 0 && batch.advance_to.is_none() => {
                    break "ship=Ok apply=Ok".to_string();
                }
                Ok(batch) => {
                    if let Err(e) = replica.apply_batch(&batch) {
                        break format!("ship=Ok apply={e:?}");
                    }
                }
            }
        };
        write!(row, "| {stream} at={} ", replica.watermark()).unwrap();

        // The same replica position, handed the image itself as the
        // batch an honest primary would have cut.
        let mut replica = fresh_replica(&hello, 4);
        pump(&self.primary, &mut replica, Some(1));
        let batch = ReplBatch {
            generation: 1,
            start_seq: 1,
            count: PINNED as u32,
            frames: image.to_vec(),
            advance_to: None,
            advance_tag: [0; 16],
            durable: Watermark::new(1, PINNED),
        };
        match replica.apply_batch(&batch) {
            Ok(wm) => write!(row, "| raw=Ok at={wm} ").unwrap(),
            Err(e) => write!(row, "| raw={e:?} at={} ", replica.watermark()).unwrap(),
        }
        self.primary.repl_unsubscribe(hello.subscriber).unwrap();

        // The journal, holding the image, serving it back.
        std::fs::write(self.dir.join("journal").join("wal-1.log"), image).unwrap();
        let all = self.donor.serve_frames(1, 0, usize::MAX).unwrap();
        let one = self.donor.serve_frames(1, 2, 1).unwrap();
        write!(
            row,
            "| serve={}/{}B after2={}/{}B ",
            all.count,
            all.frames.len(),
            one.count,
            one.frames.len()
        )
        .unwrap();

        // Segment repair, offered the image as the donor's frames.
        match self.primary.repair_wal_segment(1, image) {
            Ok(()) => row += "| repair=Ok",
            Err(e) => write!(row, "| repair={e:?}").unwrap(),
        }
        // Refused, it wrote nothing; accepted, it wrote the image.
        assert_eq!(std::fs::read(wal.join("wal-1.log")).unwrap(), image);
        row
    }
}

fn assert_table(actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let moved: Vec<String> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  was: {e}\n  now: {a}"))
        .collect();
    panic!(
        "reader verdicts moved in {} row(s) (or rows were added):\n{}\n\nfull table now:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn every_reader_gives_its_recorded_verdict_on_every_damaged_image() {
    let mut rig = Rig::new();
    let clean = rig.clean.clone();
    let mut table = rig.row("none", "-", &clean) + "\n";
    for damage in DAMAGES {
        for (position, at) in POSITIONS {
            table += &rig.row(damage, position, &damaged(&clean, damage, at));
            table.push('\n');
        }
    }
    assert_table(&table, include_str!("wal_readers.expected"));

    std::fs::remove_dir_all(&rig.dir).ok();
}

/// The shape of the damage is part of the record: if these move, the
/// table describes different images.
#[test]
fn damages_are_what_their_names_say() {
    let frame = |fill: u8, len: u32| {
        let mut f = len.to_le_bytes().to_vec();
        f.resize(4 + len as usize, fill);
        f
    };
    let clean: Vec<u8> = (1..=5u8).flat_map(|i| frame(i, MIN_LEN + u32::from(i))).collect();
    let s = spans(&clean);
    assert_eq!(damaged(&clean, "cut2", 1).len(), s[1].0 + 2);
    assert_eq!(damaged(&clean, "drop", 1).len(), clean.len() - (s[1].1 - s[1].0));
    assert_eq!(spans(&damaged(&clean, "dup", 3)).len(), 6);
    let swapped = damaged(&clean, "swap", 4);
    assert_eq!(swapped[s[3].0 + 4], 5, "the last frame swaps with its predecessor");
    assert_eq!(damaged(&clean, "garbage", 4).len(), clean.len() + 11);
    let eof = damaged(&clean, "leneof", 2);
    let len = u32::from_le_bytes(eof[s[2].0..s[2].0 + 4].try_into().unwrap()) as usize;
    assert_eq!(s[2].0 + 4 + len, clean.len() + 1);
}
