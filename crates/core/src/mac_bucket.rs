//! MAC buckets (paper §5.2).
//!
//! Verifying a bucket-set hash needs the MACs of *every* entry in the
//! bucket, even when the requested key is found early in the chain. Without
//! help, gathering them pointer-chases the whole entry chain. A *MAC
//! bucket* is a side array in untrusted memory holding only the MAC fields,
//! in chain order, so the gather is a couple of contiguous reads. Each node
//! holds up to `capacity` MACs (30 in the paper) and chains to another node
//! when a bucket outgrows it.
//!
//! The logical structure is a vector of MACs mirroring the entry chain:
//! position 0 corresponds to the chain head. All nodes except the last are
//! kept full, so insertion at the front cascades the last MAC of each node
//! into the next.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use shield_crypto::Tag128;

// Node layout. Named apart from the entry layout's `entry::OFF_*`: CI greps
// that nothing outside `TableCtx::chain` reads an entry's `OFF_NEXT`.
const NODE_NEXT: usize = 0;
const NODE_COUNT: usize = 8;
const NODE_MACS: usize = 12;

/// Size in bytes of a MAC-bucket node with the given capacity.
pub fn node_len(capacity: usize) -> usize {
    NODE_MACS + capacity * 16
}

fn read_count(heap: &UntrustedHeap, node: Handle) -> usize {
    u32::from_le_bytes(heap.bytes_at(node, NODE_COUNT, 4).try_into().expect("4 bytes")) as usize
}

fn write_count(heap: &mut UntrustedHeap, node: Handle, count: usize) {
    heap.bytes_at_mut(node, NODE_COUNT, 4).copy_from_slice(&(count as u32).to_le_bytes());
}

fn read_next(heap: &UntrustedHeap, node: Handle) -> Handle {
    heap.read_u64_at(node, NODE_NEXT)
}

fn write_next(heap: &mut UntrustedHeap, node: Handle, next: Handle) {
    heap.write_u64_at(node, NODE_NEXT, next);
}

fn read_mac(heap: &UntrustedHeap, node: Handle, slot: usize) -> Tag128 {
    heap.bytes_at(node, NODE_MACS + slot * 16, 16).try_into().expect("16 bytes")
}

fn write_mac(heap: &mut UntrustedHeap, node: Handle, slot: usize, mac: &Tag128) {
    heap.bytes_at_mut(node, NODE_MACS + slot * 16, 16).copy_from_slice(mac);
}

/// Allocates a node holding just `mac`.
fn new_node(heap: &mut UntrustedHeap, mac: &Tag128, capacity: usize) -> Handle {
    let node = heap.alloc(node_len(capacity));
    write_count(heap, node, 1);
    write_mac(heap, node, 0, mac);
    node
}

/// The count field of `node`, `None` when it cannot be read.
fn try_read_count(heap: &UntrustedHeap, node: Handle) -> Option<usize> {
    let bytes = heap.try_bytes_at(node, NODE_COUNT, 4)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
}

/// Appends every MAC in the chain starting at `head` to `out`, in order,
/// and returns how many. The node chain lives in untrusted memory, so its
/// `next` pointers and `count` fields are attacker-writable: returns
/// `None` — which callers surface as an integrity violation — when a node
/// pointer does not address readable memory, a count field points past
/// its chunk, or the walk exceeds `max_macs` MACs (cycle / inflated
/// counts), instead of panicking or looping forever.
pub fn try_gather(
    heap: &UntrustedHeap,
    head: Handle,
    out: &mut Vec<u8>,
    max_macs: usize,
) -> Option<usize> {
    let mut node = head;
    let mut total = 0usize;
    let mut nodes = 0usize;
    while node != NULL_HANDLE {
        nodes += 1;
        if nodes > max_macs.saturating_add(1) {
            return None;
        }
        let count = try_read_count(heap, node)?;
        if total.saturating_add(count) > max_macs {
            return None;
        }
        out.extend_from_slice(heap.try_bytes_at(node, NODE_MACS, count * 16)?);
        total += count;
        node = heap.try_read_u64_at(node, NODE_NEXT)?;
    }
    Some(total)
}

/// Inserts `mac` at logical position 0 (new chain head), cascading
/// overflow down the node chain. Updates `head` if a first node had to be
/// allocated.
pub fn insert_front(heap: &mut UntrustedHeap, head: &mut Handle, mac: &Tag128, capacity: usize) {
    if *head == NULL_HANDLE {
        *head = new_node(heap, mac, capacity);
        return;
    }
    let mut carry = *mac;
    let mut node = *head;
    loop {
        let count = read_count(heap, node);
        // Shift the node's MACs right by one slot (dropping the last when
        // full) and place the carry at slot 0.
        let keep = count.min(capacity - 1);
        let overflow =
            if count == capacity { Some(read_mac(heap, node, capacity - 1)) } else { None };
        // memmove within the node.
        heap.bytes_at_mut(node, NODE_MACS, (keep + 1) * 16).copy_within(0..keep * 16, 16);
        write_mac(heap, node, 0, &carry);
        match overflow {
            Some(evicted) => {
                carry = evicted;
                let next = read_next(heap, node);
                if next == NULL_HANDLE {
                    let fresh = new_node(heap, &carry, capacity);
                    write_next(heap, node, fresh);
                    return;
                }
                node = next;
            }
            None => {
                write_count(heap, node, count + 1);
                return;
            }
        }
    }
}

/// Appends `mac` at the logical end of the chain (snapshot restore, which
/// replays entries in original chain order).
pub fn insert_back(heap: &mut UntrustedHeap, head: &mut Handle, mac: &Tag128, capacity: usize) {
    if *head == NULL_HANDLE {
        *head = new_node(heap, mac, capacity);
        return;
    }
    let mut node = *head;
    loop {
        let next = read_next(heap, node);
        if next == NULL_HANDLE {
            break;
        }
        node = next;
    }
    let count = read_count(heap, node);
    if count < capacity {
        write_mac(heap, node, count, mac);
        write_count(heap, node, count + 1);
    } else {
        let fresh = new_node(heap, mac, capacity);
        write_next(heap, node, fresh);
    }
}

/// Overwrites the MAC at logical position `idx`.
///
/// # Panics
///
/// Panics if `idx` is out of range — a store invariant violation.
pub fn set_at(heap: &mut UntrustedHeap, head: Handle, mut idx: usize, mac: &Tag128) {
    let mut node = head;
    loop {
        assert_ne!(node, NULL_HANDLE, "MAC chain shorter than index");
        let count = read_count(heap, node);
        if idx < count {
            write_mac(heap, node, idx, mac);
            return;
        }
        idx -= count;
        node = read_next(heap, node);
    }
}

/// Reads the MAC at logical position `idx`, bounded like [`try_gather`]:
/// `None` when the chain is shorter than `idx`, structurally corrupt, or
/// longer than `max_macs`.
pub fn try_get_at(
    heap: &UntrustedHeap,
    head: Handle,
    mut idx: usize,
    max_macs: usize,
) -> Option<Tag128> {
    let mut node = head;
    let mut nodes = 0usize;
    while node != NULL_HANDLE {
        nodes += 1;
        if nodes > max_macs.saturating_add(1) {
            return None;
        }
        let count = try_read_count(heap, node)?;
        if idx < count {
            return heap
                .try_bytes_at(node, NODE_MACS + idx * 16, 16)
                .map(|b| b.try_into().expect("16 bytes"));
        }
        idx -= count;
        node = heap.try_read_u64_at(node, NODE_NEXT)?;
    }
    None
}

/// Removes the MAC at logical position `idx`, pulling trailing MACs
/// forward across nodes to keep all non-tail nodes full. Frees and unlinks
/// nodes that become empty; updates `head` when the first node is freed.
pub fn remove_at(heap: &mut UntrustedHeap, head: &mut Handle, mut idx: usize, capacity: usize) {
    // Locate the node containing idx, remembering the path for unlinking.
    let mut node = *head;
    let mut prev: Handle = NULL_HANDLE;
    loop {
        assert_ne!(node, NULL_HANDLE, "MAC chain shorter than index");
        let count = read_count(heap, node);
        if idx < count {
            break;
        }
        idx -= count;
        prev = node;
        node = read_next(heap, node);
    }

    // Shift left within the node to close the hole.
    let count = read_count(heap, node);
    heap.bytes_at_mut(node, NODE_MACS, count * 16).copy_within((idx + 1) * 16.., idx * 16);

    // Pull the head MAC of each subsequent node into the freed tail slot.
    let mut cur = node;
    let mut cur_count = count;
    loop {
        let next = read_next(heap, cur);
        if next == NULL_HANDLE {
            write_count(heap, cur, cur_count - 1);
            if cur_count - 1 == 0 {
                // Free the emptied tail node.
                if cur == *head {
                    *head = NULL_HANDLE;
                } else if cur == node {
                    write_next(heap, prev, NULL_HANDLE);
                } else {
                    // `cur` trails `node`; find its predecessor by walking.
                    let mut p = node;
                    while read_next(heap, p) != cur {
                        p = read_next(heap, p);
                    }
                    write_next(heap, p, NULL_HANDLE);
                }
                heap.free(cur, node_len(capacity));
            }
            return;
        }
        let next_count = read_count(heap, next);
        debug_assert!(next_count > 0, "non-tail nodes are never empty");
        let pulled = read_mac(heap, next, 0);
        write_mac(heap, cur, cur_count - 1, &pulled);
        // Shift the next node left by one.
        heap.bytes_at_mut(next, NODE_MACS, next_count * 16).copy_within(16.., 0);
        cur = next;
        cur_count = next_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocMode;
    use sgx_sim::enclave::EnclaveBuilder;

    fn heap() -> UntrustedHeap {
        UntrustedHeap::new(
            EnclaveBuilder::new("macbucket-test").build(),
            AllocMode::Pooled { granularity: 1 << 20 },
        )
    }

    fn mac(i: u8) -> Tag128 {
        [i; 16]
    }

    fn collect(heap: &UntrustedHeap, head: Handle) -> Vec<u8> {
        let mut out = Vec::new();
        try_gather(heap, head, &mut out, usize::MAX).expect("an honest chain");
        out.chunks(16).map(|c| c[0]).collect()
    }

    #[test]
    fn insert_front_orders_like_a_stack() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        for i in 1..=5 {
            insert_front(&mut h, &mut head, &mac(i), 30);
        }
        assert_eq!(collect(&h, head), vec![5, 4, 3, 2, 1]);
        assert_eq!(collect(&h, head).len(), 5);
    }

    #[test]
    fn overflow_cascades_to_chained_nodes() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        // Capacity 3: inserting 8 MACs spans 3 nodes.
        for i in 1..=8 {
            insert_front(&mut h, &mut head, &mac(i), 3);
        }
        assert_eq!(collect(&h, head), vec![8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(collect(&h, head).len(), 8);
    }

    #[test]
    fn set_and_get_by_logical_index() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        for i in 1..=7 {
            insert_front(&mut h, &mut head, &mac(i), 3);
        }
        // Order is 7..1; position 4 holds mac(3).
        assert_eq!(try_get_at(&h, head, 4, 7), Some(mac(3)));
        set_at(&mut h, head, 4, &mac(0xaa));
        assert_eq!(collect(&h, head), vec![7, 6, 5, 4, 0xaa, 2, 1]);
    }

    #[test]
    fn remove_middle_keeps_nodes_full() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        for i in 1..=7 {
            insert_front(&mut h, &mut head, &mac(i), 3);
        }
        // [7,6,5 | 4,3,2 | 1]; remove index 1 (mac 6).
        remove_at(&mut h, &mut head, 1, 3);
        assert_eq!(collect(&h, head), vec![7, 5, 4, 3, 2, 1]);
        // First node must have been refilled to capacity 3.
        assert_eq!(read_count(&h, head), 3);
    }

    #[test]
    fn remove_frees_emptied_tail() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        for i in 1..=4 {
            insert_front(&mut h, &mut head, &mac(i), 3);
        }
        // [4,3,2 | 1]; removing any element should leave one node of 3.
        remove_at(&mut h, &mut head, 3, 3);
        assert_eq!(collect(&h, head), vec![4, 3, 2]);
        let live_before = h.live_bytes();
        // Removing down to empty frees the head node too.
        remove_at(&mut h, &mut head, 0, 3);
        remove_at(&mut h, &mut head, 0, 3);
        remove_at(&mut h, &mut head, 0, 3);
        assert_eq!(head, NULL_HANDLE);
        assert!(h.live_bytes() < live_before);
    }

    #[test]
    fn remove_only_element() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        insert_front(&mut h, &mut head, &mac(9), 30);
        remove_at(&mut h, &mut head, 0, 30);
        assert_eq!(head, NULL_HANDLE);
        assert_eq!(collect(&h, head).len(), 0);
    }

    #[test]
    fn insert_back_appends_in_order() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        for i in 1..=8 {
            insert_back(&mut h, &mut head, &mac(i), 3);
        }
        assert_eq!(collect(&h, head), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(collect(&h, head).len(), 8);
    }

    #[test]
    fn insert_back_equals_reversed_insert_front() {
        let mut back = heap();
        let mut front = heap();
        let mut back_head = NULL_HANDLE;
        let mut front_head = NULL_HANDLE;
        for i in 1..=10 {
            insert_back(&mut back, &mut back_head, &mac(i), 4);
            insert_front(&mut front, &mut front_head, &mac(11 - i), 4);
        }
        assert_eq!(collect(&back, back_head), collect(&front, front_head));
    }

    #[test]
    fn mirror_of_reference_vector_under_random_ops() {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        let mut reference: Vec<Tag128> = Vec::new();
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for step in 0u8..200 {
            let op = rng() % 3;
            if op == 0 || reference.is_empty() {
                let m = mac(step);
                insert_front(&mut h, &mut head, &m, 4);
                reference.insert(0, m);
            } else if op == 1 {
                let idx = rng() % reference.len();
                let m = mac(step ^ 0x80);
                set_at(&mut h, head, idx, &m);
                reference[idx] = m;
            } else {
                let idx = rng() % reference.len();
                remove_at(&mut h, &mut head, idx, 4);
                reference.remove(idx);
            }
            let mut out = Vec::new();
            assert_eq!(try_gather(&h, head, &mut out, reference.len()), Some(reference.len()));
            let got: Vec<Tag128> = out.chunks(16).map(|c| c.try_into().unwrap()).collect();
            assert_eq!(got, reference, "divergence at step {step}");
        }
    }
}
