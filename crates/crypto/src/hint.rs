//! Cache hints for memory the caller is about to read.
//!
//! A verified lookup chases pointers through untrusted memory — MAC
//! nodes, chain headers, ciphertext — and each load's address is known
//! well before the load is issued. [`prefetch_read`] lets safe code say
//! so: it takes a slice, so the address is in bounds by construction, and
//! it reads nothing, so it has no result to be wrong about. On x86-64 it
//! issues `PREFETCHT0` per cache line; elsewhere it compiles to nothing.

/// Bytes per cache line on every target this crate is built for.
pub const LINE: usize = 64;

/// Hints that `bytes` will be read soon: asks the CPU to start loading
/// every cache line the slice overlaps. Purely advisory — no memory is
/// read architecturally, nothing is returned, and an empty slice is a
/// no-op.
#[inline]
pub fn prefetch_read(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // The slice's first byte, then the first byte of each further
        // line it reaches into.
        let mut offset = 0;
        let mut next_line = LINE - bytes.as_ptr() as usize % LINE;
        while let Some(byte) = bytes.get(offset) {
            // SAFETY: `byte` is a live reference into `bytes`, so the
            // pointer is valid; PREFETCHT0 is a hint that cannot fault
            // or write, and SSE is part of the x86-64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>((byte as *const u8).cast()) };
            offset = next_line;
            next_line += LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_slice_is_accepted_and_left_untouched() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let before = data.clone();
        prefetch_read(&[]);
        for start in [0, 1, 63, 64, 65, 999] {
            for len in [0, 1, 63, 64, 65, 200] {
                let end = (start + len).min(data.len());
                prefetch_read(&data[start..end]);
            }
        }
        assert_eq!(data, before);
    }
}
