//! The one size-class allocator (paper §5.1): in-enclave size classes over
//! pooled chunks.
//!
//! Every heap in the reproduction carves its blocks here: ShieldStore's
//! untrusted heap (`shieldstore::alloc::UntrustedHeap`), the enclave heap
//! ([`crate::memory::EnclaveMemory`]) that holds the naive Baseline and
//! the Fig. 17 cache, and Eleos's bounded pool. [`Classes`] hands out
//! `(chunk, offset)` places and knows nothing about bytes, locks or
//! costs; each heap keeps its chunks, its handle format and its metering.
//!
//! Size classes are powers of two up to one cache line, then four per
//! doubling, a quarter of the lower power of two apart but never less
//! than half a line: 96, 128 | 160, 192, 224, 256 | 320, 384, 448, 512 |
//! 640, … So a block pads its length by less than a quarter of it (or
//! less than 32 B): the paper's 512 B value, with its key and header a
//! 589 B entry, takes 640 B rather than a KiB.
//!
//! The bump cursor starts each block at a multiple of the largest power
//! of two that divides its class, one line at most, so on a chunk that
//! starts on a line a block of a line-multiple class (128, 192, 256, 320,
//! …) starts on a line too. A class as long as a chunk or longer gets a
//! chunk of its own. Freed blocks wait on one list per class, and a
//! request takes from its class's list before it carves anything.

use crate::CACHELINE as LINE;

/// Minimum allocation granule (one size class below this is pointless).
const MIN_CLASS: usize = 16;

/// The bytes a block of `len` occupies: the one class rule.
#[inline]
pub fn size_class(len: usize) -> usize {
    if len <= LINE {
        return len.max(MIN_CLASS).next_power_of_two();
    }
    len.next_multiple_of(class_step(len))
}

/// What the classes holding `len` (above a line) are multiples of: a
/// quarter of the power of two below it, half a line at least.
#[inline]
fn class_step(len: usize) -> usize {
    (len.next_power_of_two() / 8).max(LINE / 2)
}

/// Where a block of `class` may start: the largest power of two that
/// divides it, one line at most.
#[inline]
pub fn class_align(class: usize) -> usize {
    (1 << class.trailing_zeros()).min(LINE)
}

/// The class's number, counting from 0 for 16 B: its free list.
#[inline]
fn class_index(class: usize) -> usize {
    if class <= LINE {
        return (class / MIN_CLASS).trailing_zeros() as usize;
    }
    // 96 and 128 are 3 and 4, then four per doubling: 160 is 5.
    let step = class_step(class);
    class / step + 4 * (step / (LINE / 2)).trailing_zeros() as usize
}

/// Whether a block allocated for `old_len` may hold `len` bytes in place:
/// only when both lengths have the same class. A smaller class would not
/// do — the block is later freed by the length it then holds, and the
/// rest of it would be lost to both the live count and the free lists.
#[inline]
pub fn same_class(old_len: usize, len: usize) -> bool {
    size_class(len) == size_class(old_len)
}

/// Where a block lives: its chunk's number and its byte offset there.
pub type Place = (usize, usize);

/// The allocator core: free lists per class, a bump cursor over one
/// chunk at a time, and the count of live bytes. Chunks are numbered from 0
/// in the order they are opened; the heap that owns the core opens them.
#[derive(Debug)]
pub struct Classes {
    chunk_len: usize,
    chunks: usize,
    /// Free lists indexed by [`class_index`].
    free_lists: Vec<Vec<Place>>,
    /// The chunk the cursor carves from, and where its next block may go;
    /// it starts full, so the first block opens a chunk.
    bump: Place,
    live_bytes: usize,
}

impl Classes {
    /// A core whose chunks hold `chunk_len` bytes each (a jumbo chunk its
    /// one block's class).
    pub fn new(chunk_len: usize) -> Self {
        Self { chunk_len, chunks: 0, free_lists: Vec::new(), bump: (0, chunk_len), live_bytes: 0 }
    }

    /// A block for `len` bytes, and whether it was freed before (a fresh
    /// block was never handed out). When no block of the class is free and
    /// the cursor's chunk has no room (or the class needs a chunk of its
    /// own), `open(chunk, len)` is asked to open chunk number `chunk` of
    /// `len` bytes; `None` when it will not.
    #[inline]
    pub fn alloc(
        &mut self,
        len: usize,
        open: impl FnOnce(usize, usize) -> bool,
    ) -> Option<(Place, bool)> {
        let class = size_class(len);
        let block = match self.free_list(class).pop() {
            Some(place) => (place, true),
            None => (self.carve(class, open)?, false),
        };
        self.live_bytes += class;
        Some(block)
    }

    fn carve(&mut self, class: usize, open: impl FnOnce(usize, usize) -> bool) -> Option<Place> {
        if class >= self.chunk_len {
            return self.open(class, open).map(|chunk| (chunk, 0));
        }
        let (chunk, at) = self.bump;
        let at = at.next_multiple_of(class_align(class));
        let place = if at + class <= self.chunk_len {
            (chunk, at)
        } else {
            (self.open(self.chunk_len, open)?, 0)
        };
        self.bump = (place.0, place.1 + class);
        Some(place)
    }

    fn open(&mut self, len: usize, open: impl FnOnce(usize, usize) -> bool) -> Option<usize> {
        let chunk = self.chunks;
        open(chunk, len).then(|| {
            self.chunks += 1;
            chunk
        })
    }

    /// Returns a block of `len` bytes (the length passed to `alloc`) to its
    /// class's free list.
    #[inline]
    pub fn free(&mut self, place: Place, len: usize) {
        self.forget(len);
        self.free_list(size_class(len)).push(place);
    }

    /// Counts a block of `len` bytes freed without recycling it: one whose
    /// place its heap cannot vouch for.
    #[inline]
    pub fn forget(&mut self, len: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(size_class(len));
    }

    #[inline]
    fn free_list(&mut self, class: usize) -> &mut Vec<Place> {
        let index = class_index(class);
        if self.free_lists.len() <= index {
            self.free_lists.resize_with(index + 1, Vec::new);
        }
        &mut self.free_lists[index]
    }

    /// Bytes handed out and not yet freed (rounded to size classes).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A heap built on [`Classes`], as the property below sees it.
    pub(crate) trait Heap {
        fn alloc(&mut self, len: usize) -> Place;
        fn free(&mut self, place: Place, len: usize);
        /// Whether `class` bytes at `place` lie whole in their chunk.
        fn holds(&self, place: Place, class: usize) -> bool;
        fn live_bytes(&self) -> usize;
    }

    /// The core with the chunk lengths it was given.
    struct Core(Classes, Vec<usize>);

    impl Heap for Core {
        fn alloc(&mut self, len: usize) -> Place {
            let chunks = &mut self.1;
            self.0
                .alloc(len, |_, len| {
                    chunks.push(len);
                    true
                })
                .expect("chunks are always had")
                .0
        }
        fn free(&mut self, place: Place, len: usize) {
            self.0.free(place, len);
        }
        fn holds(&self, (chunk, offset): Place, class: usize) -> bool {
            offset + class <= self.1[chunk]
        }
        fn live_bytes(&self) -> usize {
            self.0.live_bytes()
        }
    }

    /// Lengths of a byte to a MiB — most within a 64 KiB chunk, some
    /// jumbo — each with whether to free a live block instead.
    pub(crate) fn ops() -> impl Strategy<Value = Vec<(usize, bool)>> {
        pvec((prop_oneof![1usize..4097, 1usize..4097, 1usize..(1 << 20) + 1], any::<bool>()), 1..64)
    }

    /// Runs `ops` on `heap`: every live block is whole in its chunk,
    /// starts at its class alignment and overlaps no other, and
    /// `live_bytes` is their classes' sum.
    pub(crate) fn live_blocks_hold(
        heap: &mut impl Heap,
        ops: Vec<(usize, bool)>,
    ) -> Result<(), TestCaseError> {
        let mut live: Vec<(Place, usize)> = Vec::new();
        for (len, free) in ops {
            if free && !live.is_empty() {
                let (place, len) = live.swap_remove(len % live.len());
                heap.free(place, len);
            } else {
                live.push((heap.alloc(len), len));
            }
        }
        let mut spans = Vec::new();
        for &(place @ (chunk, offset), len) in &live {
            let class = size_class(len);
            prop_assert!(heap.holds(place, class), "{} B at {:?}", len, place);
            prop_assert_eq!(offset % class_align(class), 0, "{} B at {:?}", len, place);
            spans.push((chunk, offset, offset + class));
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            prop_assert!(pair[0].0 != pair[1].0 || pair[0].2 <= pair[1].1, "{:?}", pair);
        }
        let held: usize = live.iter().map(|&(_, len)| size_class(len)).sum();
        prop_assert_eq!(heap.live_bytes(), held);
        Ok(())
    }

    proptest! {
        #[test]
        fn live_blocks_are_whole_aligned_and_disjoint(ops in ops()) {
            live_blocks_hold(&mut Core(Classes::new(1 << 16), Vec::new()), ops)?;
        }
    }

    #[test]
    fn the_ladder_steps_by_quarters_above_a_line() {
        let classes: Vec<usize> = (1..=1280)
            .map(size_class)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(
            classes,
            [
                16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
                1280
            ]
        );
        // The paper's 512 B value: a 45 B header, a 16 B key, the value;
        // and its 128 B value, where a second copy of the tag would cost a
        // class. The naive Baseline's 16 B header, key and 512 B value.
        assert_eq!(size_class(45 + 16 + 512), 640);
        assert_eq!((size_class(45 + 16 + 128), size_class(61 + 16 + 128)), (192, 224));
        assert_eq!(size_class(16 + 16 + 512), 640);
        let indices: Vec<usize> = classes.iter().map(|&c| class_index(c)).collect();
        assert_eq!(indices, (0..classes.len()).collect::<Vec<_>>(), "free lists are dense");
        let aligns: Vec<usize> = classes.iter().map(|&c| class_align(c)).collect();
        assert_eq!(
            aligns,
            [16, 32, 64, 32, 64, 32, 64, 32, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64]
        );
    }

    /// The class arithmetic over every length from a byte to a MiB.
    #[test]
    fn classes_pad_by_less_than_a_quarter_and_are_fixed_points() {
        for len in 1..=1 << 20 {
            let class = size_class(len);
            assert!(class >= len, "{len}");
            assert!(class - len < (len / 4).max(32), "{len} B takes {class}");
            assert_eq!(size_class(class), class, "{len}");
            let align = class_align(class);
            assert!(align <= LINE && class.is_multiple_of(align), "{len}");
        }
    }

    #[test]
    fn in_place_only_within_one_class() {
        assert!(same_class(100, 128)); // both class 128
        assert!(same_class(100, 97));
        assert!(!same_class(100, 96)); // a shrink to 96
        assert!(!same_class(100, 20));
        assert!(!same_class(100, 129)); // 128 -> 160
    }

    #[test]
    fn a_freed_jumbo_block_is_taken_before_a_chunk_is_opened() {
        let mut core = Core(Classes::new(1 << 16), Vec::new());
        let big = core.alloc(1 << 20);
        core.free(big, 1 << 20);
        assert_eq!(core.alloc(1 << 20), big);
        assert_eq!(core.1, [1 << 20], "one chunk, opened once");
    }

    #[test]
    fn a_chunk_that_will_not_open_refuses_and_counts_nothing() {
        // One chunk of 4 KiB and no other: a bounded pool.
        let mut pool = Classes::new(4096);
        let open = |chunk: usize, len: usize| chunk == 0 && len <= 4096;
        let places: Vec<Place> =
            std::iter::from_fn(|| pool.alloc(1000, open).map(|(place, _)| place)).collect();
        assert_eq!(places, [(0, 0), (0, 1024), (0, 2048), (0, 3072)]);
        assert_eq!(pool.alloc(5000, open), None, "a jumbo block needs a chunk of its own");
        assert_eq!(pool.live_bytes(), 4096);
        pool.free(places[1], 1000);
        assert_eq!(pool.alloc(900, open), Some(((0, 1024), true)));
    }
}
