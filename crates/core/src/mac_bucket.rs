//! MAC buckets (paper §5.2), kept as a size-classed bucket directory.
//!
//! Verifying a bucket-set hash needs the MACs of *every* entry in the
//! bucket, even when the requested key is found early in the chain. Without
//! help, gathering them pointer-chases the whole entry chain. A *MAC
//! bucket* is a side array in untrusted memory holding the bucket's MACs,
//! in chain order, so the gather is a couple of contiguous reads.
//!
//! The logical structure is a vector of slots mirroring the entry chain:
//! position 0 corresponds to the chain head. A slot is the entry's MAC —
//! its only copy: the entry itself ends with its ciphertext, so every check
//! of an entry compares what its content computes to with its slot
//! ([`crate::table::TableCtx::tags`] is the one reader) — and, beside it,
//! the entry's handle. The handle is there for one purpose: the
//! node is read at the top of every op, so with it the header of every
//! entry of the chain can be hinted at once instead of each `next` waiting
//! for the header before it. **A listed handle is a hint, never a read**:
//! the one function that takes handles out of a node ([`listed_entries`]) feeds
//! [`UntrustedHeap::prefetch`] and nothing else, so a forged, stale or wild
//! handle wastes a hint and changes no result. The chain stays the only
//! thing a search, a miss-path check, the sweep or a snapshot follows.
//!
//! A node is `[next u64 | count u32 | cap u32 | cap × MAC | cap × handle]`
//! and is allocated in the smallest heap class that holds its slots
//! ([`class_cap`]): 2, 3, 4, 6, 7, 8, 10, 12, 15, 18, 20 or 26 slots in
//! 64 to 640 bytes, then [`CAPACITY`] (the paper's 30) as the largest, in
//! 768. An insert that
//! finds a node full moves it up one class; a bucket that outgrows the
//! largest chains a second node. All nodes except the last are kept full,
//! so insertion at the front cascades the last slot of each node into the
//! next. A removal that leaves the last node fewer slots than the class
//! below holds moves it down one class, and frees it when emptied.
//!
//! Every field of a node is attacker-writable. All of them are read through
//! one bounded, checked walk ([`Walk`]) that ends in [`Broken`] instead of
//! a panic or a spin, and a mutation runs that walk over the whole
//! directory before it writes its first byte. In particular **no field
//! sizes a node on its own word**: a node is exactly as large as its
//! `count` needs — `count`s are what the set hash authenticates, through
//! the MACs gathered by them — and a `cap` that says otherwise is refused,
//! so what `free` returns to the allocator is never a size the host chose.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use crate::table::Broken;
use sgx_sim::classes::size_class;
use shield_crypto::hint::LINE;
use shield_crypto::Tag128;
use std::ops::Range;

// Node layout. Named apart from the entry layout's `entry::OFF_*`: CI greps
// that nothing outside `TableCtx::chain` reads an entry's `OFF_NEXT`.
const NODE_NEXT: usize = 0;
const NODE_COUNT: usize = 8;
const NODE_CAP: usize = 12;
const NODE_MACS: usize = 16;
const MAC_LEN: usize = 16;
const HANDLE_LEN: usize = 8;
const SLOT_LEN: usize = MAC_LEN + HANDLE_LEN;

/// Slots in the largest node: the paper's 30 MACs per MAC bucket before
/// it chains another.
pub const CAPACITY: usize = 30;

/// Size in bytes of a node with `cap` slots.
pub fn node_len(cap: usize) -> usize {
    NODE_MACS + cap * SLOT_LEN
}

/// Where a node of `cap` slots keeps its handles.
fn handles_at(cap: usize) -> usize {
    NODE_MACS + cap * MAC_LEN
}

/// The slots of the node allocated to hold `slots` of them: as many as the
/// heap's size class for that node has room for, `mac_cap` at most. The
/// capacities a node may have are exactly this function's values, so they
/// follow the allocator's classes and nothing configures them.
#[inline]
pub fn class_cap(slots: usize, mac_cap: usize) -> usize {
    let class = size_class(node_len(slots.min(mac_cap)));
    ((class - NODE_MACS) / SLOT_LEN).min(mac_cap)
}

/// What bounds a walk over a bucket's nodes.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Slots in the largest node: [`CAPACITY`] in a store.
    pub mac_cap: usize,
    /// No honest bucket holds more MACs than the whole table counts
    /// entries: a walk that gathers more has met a cycle or an inflated
    /// count.
    pub max_macs: usize,
}

/// One node as read, every field checked against the others.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: Handle,
    next: Handle,
    count: usize,
    cap: usize,
}

/// Reads the node at `at`, returning it with its `node_len(cap)` bytes:
/// `None` unless its header is readable, its `count` is one an honest node
/// in its place holds — `mac_cap` with a node behind it, 1 to `mac_cap` at
/// the end of the chain — its `cap` is the class that count needs, and the
/// whole node is readable.
fn try_node(heap: &UntrustedHeap, at: Handle, mac_cap: usize) -> Option<(Node, &[u8])> {
    let tail = heap.try_tail(at, 0)?;
    let header = tail.get(..NODE_MACS)?;
    let word =
        |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes")) as usize;
    let next = u64::from_le_bytes(header[NODE_NEXT..NODE_NEXT + 8].try_into().expect("8 bytes"));
    let (count, cap) = (word(NODE_COUNT), word(NODE_CAP));
    let least = if next == NULL_HANDLE { 1 } else { mac_cap };
    // `count` is bounded before anything multiplies it, and `cap` is not
    // believed: it is compared with what `count` makes it.
    if !(least..=mac_cap).contains(&count) || cap != class_cap(count, mac_cap) {
        return None;
    }
    Some((Node { at, next, count, cap }, tail.get(..node_len(cap))?))
}

/// The one way a node's `next` is followed: every node through
/// [`try_node`], at most `max_macs + 1` of them holding at most `max_macs`
/// MACs, then [`Broken`]. It borrows the heap per step, so a mutation can
/// write between steps.
struct Walk {
    at: Handle,
    lim: Limits,
    nodes: usize,
    macs: usize,
}

impl Walk {
    fn new(head: Handle, lim: Limits) -> Self {
        Self { at: head, lim, nodes: 0, macs: 0 }
    }

    /// The next node and its bytes, `None` at the end of the chain.
    fn step<'a>(&mut self, heap: &'a UntrustedHeap) -> Result<Option<(Node, &'a [u8])>, Broken> {
        if self.at == NULL_HANDLE {
            return Ok(None);
        }
        let (node, body) = try_node(heap, self.at, self.lim.mac_cap).ok_or(Broken)?;
        self.nodes += 1;
        self.macs = self.macs.saturating_add(node.count);
        if self.nodes > self.lim.max_macs.saturating_add(1) || self.macs > self.lim.max_macs {
            return Err(Broken);
        }
        self.at = node.next;
        Ok(Some((node, body)))
    }
}

/// Appends every MAC in the chain starting at `head` to `out`, in order,
/// and returns how many. [`Broken`] — which callers surface as an
/// integrity violation — when a node pointer does not address readable
/// memory, a `count` or `cap` field is not one an honest node holds, or the
/// walk exceeds `max_macs` MACs (cycle / inflated counts), instead of
/// panicking or looping forever.
#[inline]
pub fn try_gather(
    heap: &UntrustedHeap,
    head: Handle,
    out: &mut Vec<u8>,
    lim: Limits,
) -> Result<usize, Broken> {
    let mut walk = Walk::new(head, lim);
    while let Some((node, body)) = walk.step(heap)? {
        out.extend_from_slice(&body[NODE_MACS..NODE_MACS + node.count * MAC_LEN]);
    }
    Ok(walk.macs)
}

/// The handles `node` lists, one per filled slot. They are untrusted and
/// must reach nothing but [`UntrustedHeap::prefetch`]; CI greps that this
/// function stays private and that every call hands its items straight to
/// a hint.
fn listed_entries<'a>(node: &Node, body: &'a [u8]) -> impl Iterator<Item = Handle> + 'a {
    body[handles_at(node.cap)..][..node.count * HANDLE_LEN]
        .chunks_exact(HANDLE_LEN)
        .map(|handle| u64::from_le_bytes(handle.try_into().expect("8 bytes")))
}

/// Hints the header line of every entry the directory at `head` lists, so
/// the chain walk that follows finds its headers arriving together rather
/// than each after the one before. Reads the nodes (checked, bounded) and
/// stops quietly at anything the gather will report.
#[inline]
pub fn hint_entries(heap: &UntrustedHeap, head: Handle, lim: Limits) {
    let mut walk = Walk::new(head, lim);
    while let Ok(Some((node, body))) = walk.step(heap) {
        listed_entries(&node, body).for_each(|entry| heap.prefetch(entry, 0, 1));
    }
}

/// Hints what will be read of the node at `node` if it holds `filled`
/// MACs: its header and filled MAC slots for a gather and, `with_handles`,
/// the rest of the node for [`hint_entries`] — the handles sit behind
/// `cap` MAC slots, and `cap` is whatever class `filled` slots need.
#[inline]
pub fn hint_node(heap: &UntrustedHeap, node: Handle, filled: usize, with_handles: bool) {
    let len = if with_handles {
        node_len(class_cap(filled, CAPACITY))
    } else {
        NODE_MACS + filled.min(CAPACITY) * MAC_LEN
    };
    heap.prefetch(node, 0, len.div_ceil(LINE));
}

/// What a slot holds: an entry's MAC and its handle — the handle as the
/// bytes it is stored as, since moving a slot never looks at it.
struct Slot {
    mac: Tag128,
    handle: [u8; HANDLE_LEN],
}

impl Slot {
    fn new(mac: &Tag128, entry: Handle) -> Self {
        Self { mac: *mac, handle: entry.to_le_bytes() }
    }
}

/// A checked node's bytes, borrowed for a mutation: `body` is exactly
/// `node_len(cap)` long and every slot index below is under `cap`, both
/// established by [`try_node`].
struct Slots<'a> {
    body: &'a mut [u8],
    cap: usize,
}

impl Slots<'_> {
    fn macs(&mut self, slots: Range<usize>) -> &mut [u8] {
        &mut self.body[NODE_MACS + slots.start * MAC_LEN..NODE_MACS + slots.end * MAC_LEN]
    }

    fn handles(&mut self, slots: Range<usize>) -> &mut [u8] {
        let base = handles_at(self.cap);
        &mut self.body[base + slots.start * HANDLE_LEN..base + slots.end * HANDLE_LEN]
    }

    /// Frees slot `at` of a node holding `count` by moving `at..count` one
    /// slot right.
    fn open(&mut self, at: usize, count: usize) {
        self.macs(at..count + 1).copy_within(..(count - at) * MAC_LEN, MAC_LEN);
        self.handles(at..count + 1).copy_within(..(count - at) * HANDLE_LEN, HANDLE_LEN);
    }

    /// Drops slot `at` of a node holding `count` by moving `at + 1..count`
    /// one slot left.
    fn close(&mut self, at: usize, count: usize) {
        self.macs(at..count).copy_within(MAC_LEN.., 0);
        self.handles(at..count).copy_within(HANDLE_LEN.., 0);
    }

    fn put(&mut self, at: usize, slot: &Slot) {
        self.macs(at..at + 1).copy_from_slice(&slot.mac);
        self.handles(at..at + 1).copy_from_slice(&slot.handle);
    }

    fn get(&mut self, at: usize) -> Slot {
        Slot {
            mac: (&*self.macs(at..at + 1)).try_into().expect("16 bytes"),
            handle: (&*self.handles(at..at + 1)).try_into().expect("8 bytes"),
        }
    }

    fn set_count(&mut self, count: usize) {
        self.body[NODE_COUNT..NODE_COUNT + 4].copy_from_slice(&(count as u32).to_le_bytes());
    }
}

/// One bucket's directory, borrowed for a mutation
/// ([`crate::table::TableCtx::directory`]). Every mutation fails with
/// [`Broken`] — nothing written — when the nodes are not ones an honest
/// table holds or are fewer than the index asks for; callers report that
/// as an integrity violation of the bucket.
pub struct Directory<'a> {
    /// The heap the nodes live in.
    pub heap: &'a mut UntrustedHeap,
    /// The bucket's `mac_heads` slot.
    pub head: &'a mut Handle,
    /// The table's tally of (class-rounded) bytes held by nodes.
    pub node_bytes: &'a mut usize,
    /// The bounds every walk keeps.
    pub lim: Limits,
}

impl Directory<'_> {
    /// Walks the whole directory, so a mutation knows before its first
    /// write that it will not meet a node it cannot read.
    fn check(&self) -> Result<(), Broken> {
        let mut walk = Walk::new(*self.head, self.lim);
        while walk.step(self.heap)?.is_some() {}
        Ok(())
    }

    fn slots(&mut self, node: &Node) -> Result<Slots<'_>, Broken> {
        let body = self.heap.try_bytes_at_mut(node.at, 0, node_len(node.cap)).ok_or(Broken)?;
        Ok(Slots { body, cap: node.cap })
    }

    /// Allocates an empty node of `cap` slots.
    fn alloc(&mut self, cap: usize) -> Node {
        *self.node_bytes += size_class(node_len(cap));
        let at = self.heap.alloc(node_len(cap));
        self.heap.bytes_at_mut(at, NODE_CAP, 4).copy_from_slice(&(cap as u32).to_le_bytes());
        Node { at, next: NULL_HANDLE, count: 0, cap }
    }

    /// Frees `node` to the class of its `cap` — which [`try_node`] has
    /// made out of its `count`, not taken from memory.
    fn free(&mut self, node: &Node) {
        let len = node_len(node.cap);
        *self.node_bytes = self.node_bytes.saturating_sub(size_class(len));
        self.heap.free(node.at, len);
    }

    /// Points what pointed at a node — the node `prev`, or the bucket's
    /// head slot when there is none — at `to`.
    fn relink(&mut self, prev: Handle, to: Handle) -> Result<(), Broken> {
        if prev == NULL_HANDLE {
            *self.head = to;
        } else {
            let next = self.heap.try_bytes_at_mut(prev, NODE_NEXT, 8).ok_or(Broken)?;
            next.copy_from_slice(&to.to_le_bytes());
        }
        Ok(())
    }

    /// Links a node of the smallest class, holding just `slot`, behind
    /// `prev`.
    fn append_node(&mut self, prev: Handle, slot: &Slot) -> Result<(), Broken> {
        let fresh = self.alloc(class_cap(1, self.lim.mac_cap));
        let mut slots = self.slots(&fresh)?;
        slots.put(0, slot);
        slots.set_count(1);
        self.relink(prev, fresh.at)
    }

    /// Moves the first `count` slots of `node` into a fresh node of `cap`
    /// slots: allocate, copy, relink what pointed at it (`prev`), free the
    /// old node to its class.
    fn moved(
        &mut self,
        node: Node,
        prev: Handle,
        cap: usize,
        count: usize,
    ) -> Result<Node, Broken> {
        let old = self.heap.try_bytes_at(node.at, 0, node_len(node.cap)).ok_or(Broken)?.to_vec();
        let fresh = Node { count, next: node.next, ..self.alloc(cap) };
        let mut slots = self.slots(&fresh)?;
        slots.body[NODE_NEXT..NODE_COUNT].copy_from_slice(&old[NODE_NEXT..NODE_COUNT]);
        slots.set_count(count);
        slots.macs(0..count).copy_from_slice(&old[NODE_MACS..][..count * MAC_LEN]);
        slots.handles(0..count).copy_from_slice(&old[handles_at(node.cap)..][..count * HANDLE_LEN]);
        self.relink(prev, fresh.at)?;
        self.free(&node);
        Ok(fresh)
    }

    /// `node` with room for one more slot, if it can have it: a full node
    /// below the largest class moves up one.
    fn with_room(&mut self, node: Node, prev: Handle) -> Result<Node, Broken> {
        if node.count < node.cap || node.cap >= self.lim.mac_cap {
            return Ok(node);
        }
        self.moved(node, prev, class_cap(node.cap + 1, self.lim.mac_cap), node.count)
    }

    /// Inserts a slot at logical position 0 (the new chain head),
    /// cascading overflow down the node chain.
    pub fn insert_front(&mut self, mac: &Tag128, entry: Handle) -> Result<(), Broken> {
        self.check()?;
        let mut carry = Slot::new(mac, entry);
        let mut prev = NULL_HANDLE;
        let mut walk = Walk::new(*self.head, self.lim);
        while let Some((node, _)) = walk.step(self.heap)? {
            let node = self.with_room(node, prev)?;
            let mut slots = self.slots(&node)?;
            if node.count < node.cap {
                slots.open(0, node.count);
                slots.put(0, &carry);
                slots.set_count(node.count + 1);
                return Ok(());
            }
            // A full node of the largest class: its last slot moves on.
            let evicted = slots.get(node.cap - 1);
            slots.open(0, node.cap - 1);
            slots.put(0, &carry);
            carry = evicted;
            prev = node.at;
        }
        self.append_node(prev, &carry)
    }

    /// Appends a slot at the logical end of the chain (snapshot restore,
    /// which replays entries in original chain order).
    pub fn insert_back(&mut self, mac: &Tag128, entry: Handle) -> Result<(), Broken> {
        self.check()?;
        let slot = Slot::new(mac, entry);
        let (mut tail, mut prev) = (None, NULL_HANDLE);
        let mut walk = Walk::new(*self.head, self.lim);
        while let Some((node, _)) = walk.step(self.heap)? {
            prev = tail.replace(node).map_or(NULL_HANDLE, |before: Node| before.at);
        }
        let Some(node) = tail else { return self.append_node(NULL_HANDLE, &slot) };
        let node = self.with_room(node, prev)?;
        if node.count == node.cap {
            return self.append_node(node.at, &slot);
        }
        let mut slots = self.slots(&node)?;
        slots.put(node.count, &slot);
        slots.set_count(node.count + 1);
        Ok(())
    }

    /// Overwrites the slot at logical position `idx`.
    pub fn set_at(&mut self, mut idx: usize, mac: &Tag128, entry: Handle) -> Result<(), Broken> {
        let mut walk = Walk::new(*self.head, self.lim);
        while let Some((node, _)) = walk.step(self.heap)? {
            if idx < node.count {
                self.slots(&node)?.put(idx, &Slot::new(mac, entry));
                return Ok(());
            }
            idx -= node.count;
        }
        Err(Broken)
    }

    /// Removes the slot at logical position `idx`, pulling trailing slots
    /// forward across nodes to keep all non-tail nodes full. The tail node
    /// is left in the class its remaining slots need: moved down one when
    /// they fit it, freed and unlinked when there are none.
    pub fn remove_at(&mut self, mut idx: usize) -> Result<(), Broken> {
        self.check()?;
        let mut walk = Walk::new(*self.head, self.lim);
        let mut prev = NULL_HANDLE;
        let mut cur = loop {
            let (node, _) = walk.step(self.heap)?.ok_or(Broken)?;
            if idx < node.count {
                break node;
            }
            idx -= node.count;
            prev = node.at;
        };
        self.slots(&cur)?.close(idx, cur.count);
        // The first slot of each later node moves back into the slot that
        // just came free at the end of the node before it.
        while let Some((next, _)) = walk.step(self.heap)? {
            let mut from = self.slots(&next)?;
            let pulled = from.get(0);
            from.close(0, next.count);
            self.slots(&cur)?.put(cur.count - 1, &pulled);
            prev = cur.at;
            cur = next;
        }
        let left = cur.count - 1;
        if left == 0 {
            self.relink(prev, cur.next)?;
            self.free(&cur);
        } else if class_cap(left, self.lim.mac_cap) < cur.cap {
            self.moved(cur, prev, class_cap(left, self.lim.mac_cap), left)?;
        } else {
            self.slots(&cur)?.set_count(left);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocMode;
    use crate::testing::listed_handles;
    use sgx_sim::enclave::EnclaveBuilder;

    /// One bucket's directory and what it is borrowed from.
    struct Bucket {
        heap: UntrustedHeap,
        head: Handle,
        node_bytes: usize,
        mac_cap: usize,
    }

    impl Bucket {
        fn new(mac_cap: usize) -> Self {
            let heap = UntrustedHeap::new(
                EnclaveBuilder::new("macbucket-test").build(),
                AllocMode::Pooled { granularity: 1 << 20 },
            );
            Self { heap, head: NULL_HANDLE, node_bytes: 0, mac_cap }
        }

        fn lim(&self) -> Limits {
            Limits { mac_cap: self.mac_cap, max_macs: usize::MAX }
        }

        fn dir(&mut self) -> Directory<'_> {
            let lim = self.lim();
            Directory {
                heap: &mut self.heap,
                head: &mut self.head,
                node_bytes: &mut self.node_bytes,
                lim,
            }
        }

        /// Fills the directory by `n` front inserts of `mac(i)` / entry `i`.
        fn filled(mac_cap: usize, n: u8) -> Self {
            let mut b = Self::new(mac_cap);
            for i in 1..=n {
                b.dir().insert_front(&mac(i), i as Handle).unwrap();
            }
            b
        }

        /// First bytes of the gathered MACs, and the listed handles.
        fn collect(&self) -> (Vec<u8>, Vec<Handle>) {
            let mut out = Vec::new();
            try_gather(&self.heap, self.head, &mut out, self.lim()).expect("an honest chain");
            (out.chunks(16).map(|c| c[0]).collect(), listed_handles(&self.heap, self.head))
        }

        /// `(count, cap)` of every node, head first.
        fn shape(&self) -> Vec<(usize, usize)> {
            let mut walk = Walk::new(self.head, self.lim());
            std::iter::from_fn(|| walk.step(&self.heap).unwrap())
                .map(|(node, _)| (node.count, node.cap))
                .collect()
        }
    }

    fn mac(i: u8) -> Tag128 {
        [i; 16]
    }

    /// What a directory of `macs` first bytes lists when entry `i` was
    /// inserted with `mac(i)`.
    fn mirrors(macs: &[u8]) -> (Vec<u8>, Vec<Handle>) {
        (macs.to_vec(), macs.iter().map(|&i| i as Handle).collect())
    }

    #[test]
    fn class_capacities_follow_the_allocator() {
        let classes = |mac_cap: usize| {
            let mut caps: Vec<usize> = (1..=mac_cap).map(|n| class_cap(n, mac_cap)).collect();
            caps.dedup();
            caps
        };
        assert_eq!(classes(30), [2, 3, 4, 6, 7, 8, 10, 12, 15, 18, 20, 26, 30]);
        assert_eq!(classes(4), [2, 3, 4]);
        assert_eq!(classes(3), [2, 3]);
        assert_eq!(classes(1), [1]);
    }

    #[test]
    fn insert_front_orders_like_a_stack() {
        let b = Bucket::filled(30, 5);
        assert_eq!(b.collect(), mirrors(&[5, 4, 3, 2, 1]));
    }

    #[test]
    fn a_node_moves_up_one_class_when_full_and_then_chains() {
        let mut b = Bucket::new(30);
        let mut shapes = Vec::new();
        for i in 1..=31 {
            b.dir().insert_front(&mac(i), i as Handle).unwrap();
            shapes.push(b.shape());
            let held: usize = b.shape().iter().map(|&(_, cap)| size_class(node_len(cap))).sum();
            assert_eq!((b.heap.live_bytes(), b.node_bytes), (held, held), "after {i}");
        }
        // One node, always in the class its count needs, so left only when
        // full ...
        for (i, shape) in shapes[..30].iter().enumerate() {
            assert_eq!(shape, &[(i + 1, class_cap(i + 1, 30))]);
        }
        // ... and moved up through every class to the largest ...
        let mut caps: Vec<usize> = shapes[..30].iter().map(|shape| shape[0].1).collect();
        caps.dedup();
        assert_eq!(caps, [2, 3, 4, 6, 7, 8, 10, 12, 15, 18, 20, 26, 30]);
        // ... and then a second node of the smallest.
        assert_eq!(shapes[30], [(30, 30), (1, 2)]);
        assert_eq!(b.collect(), mirrors(&(1..=31).rev().collect::<Vec<u8>>()));
    }

    #[test]
    fn overflow_cascades_to_chained_nodes() {
        // Capacity 3: inserting 8 MACs spans 3 nodes.
        let b = Bucket::filled(3, 8);
        assert_eq!(b.collect(), mirrors(&[8, 7, 6, 5, 4, 3, 2, 1]));
        assert_eq!(b.shape(), [(3, 3), (3, 3), (2, 2)]);
    }

    #[test]
    fn set_and_get_by_logical_index() {
        let mut b = Bucket::filled(3, 7);
        // Order is 7..1; position 4 holds mac(3).
        assert_eq!(b.collect().0[4], 3);
        b.dir().set_at(4, &mac(0xaa), 0xbb).unwrap();
        assert_eq!(b.collect(), (vec![7, 6, 5, 4, 0xaa, 2, 1], vec![7, 6, 5, 4, 0xbb, 2, 1]));
        assert_eq!(b.dir().set_at(7, &mac(0), 0), Err(Broken));
    }

    #[test]
    fn remove_middle_keeps_nodes_full() {
        let mut b = Bucket::filled(3, 7);
        // [7,6,5 | 4,3,2 | 1]; remove index 1 (mac 6).
        b.dir().remove_at(1).unwrap();
        assert_eq!(b.collect(), mirrors(&[7, 5, 4, 3, 2, 1]));
        // The first two nodes were refilled and the emptied tail freed.
        assert_eq!(b.shape(), [(3, 3), (3, 3)]);
        assert_eq!(b.dir().remove_at(6), Err(Broken));
    }

    #[test]
    fn remove_moves_the_tail_down_a_class_and_frees_it_when_emptied() {
        let mut b = Bucket::filled(3, 4);
        // [4,3,2 | 1]; removing any element should leave one node of 3.
        b.dir().remove_at(3).unwrap();
        assert_eq!((b.collect(), b.shape()), (mirrors(&[4, 3, 2]), vec![(3, 3)]));
        b.dir().remove_at(0).unwrap();
        assert_eq!((b.collect(), b.shape()), (mirrors(&[3, 2]), vec![(2, 2)]));
        b.dir().remove_at(0).unwrap();
        assert_eq!(b.shape(), [(1, 2)]);
        // Removing down to empty frees the head node too.
        b.dir().remove_at(0).unwrap();
        assert_eq!((b.head, b.heap.live_bytes(), b.node_bytes), (NULL_HANDLE, 0, 0));
        assert_eq!(b.collect(), mirrors(&[]));
    }

    /// A node is always in the class its count needs, whichever way it got
    /// there — which is what lets `try_node` refuse any other `cap`.
    #[test]
    fn a_node_is_as_large_as_its_count_needs_on_the_way_down_too() {
        let mut b = Bucket::filled(30, 31);
        for left in (0..31usize).rev() {
            b.dir().remove_at(left / 2).unwrap();
            let want: Vec<_> = match left {
                0 => vec![],
                1..=30 => vec![(left, class_cap(left, 30))],
                _ => vec![(30, 30), (left - 30, class_cap(left - 30, 30))],
            };
            assert_eq!(b.shape(), want);
            let held: usize = want.iter().map(|&(_, c)| size_class(node_len(c))).sum();
            assert_eq!((b.heap.live_bytes(), b.node_bytes), (held, held), "with {left} left");
            assert_eq!(b.collect().1.len(), left);
        }
    }

    #[test]
    fn insert_back_appends_in_order() {
        let mut b = Bucket::new(3);
        for i in 1..=8 {
            b.dir().insert_back(&mac(i), i as Handle).unwrap();
        }
        assert_eq!(b.collect(), mirrors(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(b.shape(), [(3, 3), (3, 3), (2, 2)]);
    }

    #[test]
    fn insert_back_equals_reversed_insert_front() {
        let mut back = Bucket::new(4);
        for i in 1..=10 {
            back.dir().insert_back(&mac(11 - i), (11 - i) as Handle).unwrap();
        }
        let front = Bucket::filled(4, 10);
        assert_eq!(back.collect(), front.collect());
        assert_eq!(back.shape(), front.shape());
    }

    /// Every field of a node an attacker can write, and every mutation on
    /// it: the walk reports `Broken` and not one byte has changed.
    #[test]
    fn mutations_of_a_forged_directory_fail_before_writing() {
        type Forgery = (&'static str, fn(&mut Bucket));
        let forgeries: [Forgery; 10] = [
            ("cap 0", |b| b.heap.bytes_at_mut(b.head, NODE_CAP, 4).fill(0)),
            ("cap below count", |b| b.heap.bytes_at_mut(b.head, NODE_CAP, 4)[0] = 2),
            ("cap above the largest", |b| b.heap.bytes_at_mut(b.head, NODE_CAP, 4)[0] = 31),
            ("count above cap", |b| b.heap.bytes_at_mut(b.head, NODE_COUNT, 4)[0] = 5),
            ("a count that is not full before another node", |b| {
                b.heap.bytes_at_mut(b.head, NODE_COUNT, 4)[0] = 3
            }),
            ("no count", |b| {
                let second = b.heap.read_u64_at(b.head, NODE_NEXT);
                b.heap.bytes_at_mut(second, NODE_COUNT, 4)[0] = 0;
            }),
            // Readable, a class, and room for the count: but not the class
            // the count needs, so not a size to free the node by.
            ("a cap two classes above the count's", |b| {
                let second = b.heap.read_u64_at(b.head, NODE_NEXT);
                b.heap.bytes_at_mut(second, NODE_CAP, 4)[0] = 4;
            }),
            ("a wild second node", |b| b.heap.write_u64_at(b.head, NODE_NEXT, u64::MAX)),
            ("a cycle", |b| b.heap.write_u64_at(b.head, NODE_NEXT, b.head)),
            ("a cap one class above the count's", |b| {
                let second = b.heap.read_u64_at(b.head, NODE_NEXT);
                b.heap.bytes_at_mut(second, NODE_CAP, 4)[0] = 3;
            }),
        ];
        for (what, forgery) in forgeries {
            // [6,5,4,3 | 2,1]
            let mut b = Bucket::filled(4, 6);
            let (head, second) = (b.head, b.heap.read_u64_at(b.head, NODE_NEXT));
            forgery(&mut b);
            let nodes = |b: &Bucket| [b.heap.bytes(head, 128), b.heap.bytes(second, 64)].concat();
            let before = nodes(&b);
            let lim = Limits { mac_cap: 4, max_macs: 7 };
            assert_eq!(try_gather(&b.heap, head, &mut Vec::new(), lim), Err(Broken), "{what}");
            hint_entries(&b.heap, head, lim);
            let mut dir = Directory { lim, ..b.dir() };
            assert_eq!(dir.insert_front(&mac(9), 9), Err(Broken), "{what}");
            assert_eq!(dir.insert_back(&mac(9), 9), Err(Broken), "{what}");
            assert_eq!(dir.remove_at(0), Err(Broken), "{what}");
            assert_eq!(dir.set_at(5, &mac(9), 9), Err(Broken), "{what}");
            assert_eq!(nodes(&b), before, "{what}: something was written");
            assert_eq!((b.head, b.node_bytes), (head, 128 + 64), "{what}");
        }
    }

    #[test]
    fn mirror_of_reference_vector_under_random_ops() {
        let mut b = Bucket::new(4);
        let mut reference: Vec<u8> = Vec::new();
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for step in 0u8..200 {
            let op = rng() % 3;
            if op == 0 || reference.is_empty() {
                b.dir().insert_front(&mac(step), step as Handle).unwrap();
                reference.insert(0, step);
            } else if op == 1 {
                let idx = rng() % reference.len();
                b.dir().set_at(idx, &mac(step ^ 0x80), (step ^ 0x80) as Handle).unwrap();
                reference[idx] = step ^ 0x80;
            } else {
                let idx = rng() % reference.len();
                b.dir().remove_at(idx).unwrap();
                reference.remove(idx);
            }
            assert_eq!(b.collect(), mirrors(&reference), "divergence at step {step}");
        }
    }
}
