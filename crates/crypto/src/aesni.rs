//! AES-128 via the x86-64 AES-NI instruction set.
//!
//! One `AESENC`/`AESENCLAST` round per instruction, key schedule via
//! `AESKEYGENASSIST`; like the table-based fallback in [`crate::aes`],
//! only the forward cipher exists. Unlike that fallback in
//! [`crate::aes`], this path is constant-time: no data-dependent memory
//! accesses.
//!
//! # Safety model
//!
//! Every function compiled with `#[target_feature(enable = "aes")]` is
//! only reachable through [`AesNi::new`], which returns `None` unless
//! `is_x86_feature_detected!("aes")` holds. Construction is the proof of
//! CPU support; the safe public methods discharge the feature obligation
//! with that invariant. The remaining `unsafe` blocks are raw-pointer
//! loads/stores (`_mm_loadu_si128` / `_mm_storeu_si128`), each justified
//! by slice bounds established immediately beforehand.

use crate::backend::{CtrLane, MacLane, MacPart};
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128,
    _mm_set_epi64x, _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// An expanded AES-128 key schedule held as `__m128i` round keys.
#[derive(Clone, Copy)]
pub struct AesNi {
    enc: [__m128i; 11],
}

/// One round of the AES-128 key expansion: `AESKEYGENASSIST` on the
/// previous round key (const round constant), broadcast of the relevant
/// word, and the three-step xor-fold of the previous key.
macro_rules! expand_round {
    ($prev:expr, $rcon:literal) => {{
        let gen = _mm_shuffle_epi32::<0b1111_1111>(_mm_aeskeygenassist_si128::<$rcon>($prev));
        let mut k = _mm_xor_si128($prev, _mm_slli_si128::<4>($prev));
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        _mm_xor_si128(k, gen)
    }};
}

impl AesNi {
    /// Expands `key`, returning `None` when the CPU lacks AES-NI.
    ///
    /// A `Some` return is the capability token: every subsequent method
    /// call on the value is safe because the feature check already passed
    /// on this machine.
    pub fn new(key: &[u8; 16]) -> Option<Self> {
        if !crate::backend::aesni_available() {
            return None;
        }
        // SAFETY: `aesni_available()` just confirmed the `aes` target
        // feature (which is what `expand` is compiled for) is supported
        // by the running CPU.
        Some(unsafe { Self::expand(key) })
    }

    /// Key expansion body.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (checked in [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    unsafe fn expand(key: &[u8; 16]) -> Self {
        // SAFETY: `key` is a valid 16-byte array; unaligned load reads
        // exactly those 16 bytes.
        let k0 = unsafe { _mm_loadu_si128(key.as_ptr().cast()) };
        let mut enc = [k0; 11];
        enc[1] = expand_round!(enc[0], 0x01);
        enc[2] = expand_round!(enc[1], 0x02);
        enc[3] = expand_round!(enc[2], 0x04);
        enc[4] = expand_round!(enc[3], 0x08);
        enc[5] = expand_round!(enc[4], 0x10);
        enc[6] = expand_round!(enc[5], 0x20);
        enc[7] = expand_round!(enc[6], 0x40);
        enc[8] = expand_round!(enc[7], 0x80);
        enc[9] = expand_round!(enc[8], 0x1b);
        enc[10] = expand_round!(enc[9], 0x36);
        Self { enc }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `self` exists, so `AesNi::new` proved CPU support for
        // the `aes` feature `encrypt_one` is compiled with.
        unsafe { self.encrypt_one(block) }
    }

    /// Single-block encryption body.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (guaranteed by `self` existing — see [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_one(&self, block: &mut [u8; 16]) {
        // SAFETY: `block` is a valid 16-byte array; unaligned load/store
        // touch exactly those 16 bytes.
        unsafe {
            let mut x = _mm_loadu_si128(block.as_ptr().cast());
            x = self.encrypt_reg(x);
            _mm_storeu_si128(block.as_mut_ptr().cast(), x);
        }
    }

    /// Runs the full 10-round cipher on a register value.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (guaranteed by `self` existing — see [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    #[inline]
    unsafe fn encrypt_reg(&self, mut x: __m128i) -> __m128i {
        x = _mm_xor_si128(x, self.enc[0]);
        for rk in &self.enc[1..10] {
            x = _mm_aesenc_si128(x, *rk);
        }
        _mm_aesenclast_si128(x, self.enc[10])
    }

    /// Fills `lanes` with the keystream blocks `E(counter)`,
    /// `E(counter + 1)`, … . Round-major order: `AESENC` has multi-cycle
    /// latency but single-cycle throughput, so issuing the same round
    /// across all lanes before advancing hides the latency entirely.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (guaranteed by `self` existing — see [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    #[inline]
    unsafe fn keystream(&self, counter: u128, lanes: &mut [__m128i]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = _mm_xor_si128(counter_block(counter.wrapping_add(i as u128)), self.enc[0]);
        }
        for rk in &self.enc[1..10] {
            for lane in lanes.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *rk);
            }
        }
        for lane in lanes.iter_mut() {
            *lane = _mm_aesenclast_si128(*lane, self.enc[10]);
        }
    }

    /// CTR keystream application: the counter stays a `u128`, eight
    /// keystream blocks at a time are made and XORed in without touching
    /// memory, and what is left over (under eight blocks, the last one
    /// possibly partial) takes one interleaved pass of its own.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (guaranteed by `self` existing — see [`AesNi::new`]).
    #[target_feature(enable = "aes")]
    unsafe fn ctr_xor_impl(&self, mut counter: u128, data: &mut [u8]) {
        let mut ks = [self.enc[0]; 8];
        let mut wide = data.chunks_exact_mut(128);
        for chunk in &mut wide {
            // SAFETY: same `aes` feature obligation as this function,
            // which the caller has already discharged.
            unsafe { self.keystream(counter, &mut ks) };
            counter = counter.wrapping_add(8);
            for (block, k) in chunk.chunks_exact_mut(16).zip(&ks) {
                xor_block(block, *k);
            }
        }
        let tail = wide.into_remainder();
        let lanes = &mut ks[..tail.len().div_ceil(16)];
        // SAFETY: as above.
        unsafe { self.keystream(counter, lanes) };
        let mut blocks = tail.chunks_exact_mut(16);
        for (block, k) in (&mut blocks).zip(lanes.iter()) {
            xor_block(block, *k);
        }
        let partial = blocks.into_remainder();
        if let (false, Some(k)) = (partial.is_empty(), lanes.last()) {
            let mut last = [0u8; 16];
            last[..partial.len()].copy_from_slice(partial);
            xor_block(&mut last, *k);
            partial.copy_from_slice(&last[..partial.len()]);
        }
    }

    /// CBC-MAC absorption: `state = E(state ^ m)` per block, keeping the
    /// chaining state in a register across the whole slice.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports the `aes` target feature
    /// (guaranteed by `self` existing — see [`AesNi::new`]), and that
    /// `blocks.len()` is a multiple of 16.
    #[target_feature(enable = "aes")]
    unsafe fn cmac_absorb_impl(&self, state: &mut [u8; 16], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        // SAFETY: `state` is a valid 16-byte array; unaligned load reads
        // exactly those 16 bytes.
        let mut x = unsafe { _mm_loadu_si128(state.as_ptr().cast()) };
        for block in blocks.chunks_exact(16) {
            // SAFETY: `chunks_exact(16)` guarantees `block` is 16 bytes.
            let m = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
            // SAFETY: same `aes` feature obligation as this function,
            // which the caller has already discharged.
            x = unsafe { self.encrypt_reg(_mm_xor_si128(x, m)) };
        }
        // SAFETY: `state` is a valid 16-byte array; unaligned store
        // writes exactly those 16 bytes.
        unsafe { _mm_storeu_si128(state.as_mut_ptr().cast(), x) };
    }
}

/// The counter block of `counter`: its sixteen bytes, big-endian.
#[target_feature(enable = "sse2")]
#[inline]
fn counter_block(counter: u128) -> __m128i {
    // The register's low half is the block's first eight bytes, which
    // are the counter's high half, most significant byte first.
    let (high, low) = ((counter >> 64) as u64, counter as u64);
    _mm_set_epi64x(low.swap_bytes() as i64, high.swap_bytes() as i64)
}

/// XORs `k` into the 16-byte `block`.
#[inline]
fn xor_block(block: &mut [u8], k: __m128i) {
    assert_eq!(block.len(), 16);
    // SAFETY: `block` is 16 bytes, just asserted; the unaligned load and
    // store touch exactly those.
    unsafe {
        let p = block.as_mut_ptr().cast();
        _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), k));
    }
}

/// Where a MAC lane's next blocks are, as [`Chain::next`] reports it.
enum Ready<'a> {
    /// `blocks` whole blocks at the front of the slice.
    Slice(&'a [u8], usize),
    /// `blocks` blocks of the CTR lane's data, from block `from` on.
    Written {
        from: usize,
        blocks: usize,
    },
    /// The lane follows the CTR lane and has caught up with it.
    Stalled,
    Done,
}

/// A MAC lane in flight: its chaining state in a register and a cursor
/// over its parts.
struct Chain<'a> {
    aes: &'a AesNi,
    x: __m128i,
    parts: [MacPart<'a>; 3],
    part: usize,
    /// Blocks of the current part already absorbed.
    taken: usize,
}

impl<'a> Chain<'a> {
    fn next(&mut self, written: usize, total: usize) -> Ready<'a> {
        while let Some(part) = self.parts.get(self.part) {
            match *part {
                MacPart::Blocks(blocks) if self.taken < blocks.len() / 16 => {
                    return Ready::Slice(&blocks[16 * self.taken..], blocks.len() / 16 - self.taken)
                }
                MacPart::CtrOutput if self.taken < written => {
                    return Ready::Written { from: self.taken, blocks: total - self.taken }
                }
                MacPart::CtrOutput if self.taken < total => return Ready::Stalled,
                _ => {
                    self.part += 1;
                    self.taken = 0;
                }
            }
        }
        Ready::Done
    }
}

/// `n` iterations of the lanes the const flags switch on, one block of
/// each per iteration, round-major: the chains' next `AESENC` each wait
/// on their own last, so the unit takes the three in turn and is busy
/// where one chain alone leaves it idle two cycles in three.
///
/// # Safety
///
/// The CPU must support the `aes` target feature. For each lane switched
/// on its pointer must be valid for `16 * n` bytes — reads for `a` and
/// `b`, reads and writes for `c` — except that `a` or `b` may point into
/// `c`'s range at least one block behind `c`: block `i` of such a lane
/// is read in iteration `i`, after `c` wrote it in an earlier one, and
/// all three pointers then derive from one `*mut`. A lane switched off
/// is never dereferenced.
#[target_feature(enable = "aes")]
unsafe fn step<const A: bool, const B: bool, const C: bool>(
    n: usize,
    (ka, xa, pa): (&AesNi, &mut __m128i, *const u8),
    (kb, xb, pb): (&AesNi, &mut __m128i, *const u8),
    (kc, counter, pc): (&AesNi, &mut u128, *mut u8),
) {
    let (mut a, mut b, mut k) = (*xa, *xb, kc.enc[0]);
    for i in 0..n {
        if A {
            // SAFETY: block `i < n` of lane `a` is readable (contract).
            let m = unsafe { _mm_loadu_si128(pa.add(16 * i).cast()) };
            a = _mm_xor_si128(_mm_xor_si128(a, m), ka.enc[0]);
        }
        if B {
            // SAFETY: block `i < n` of lane `b` is readable (contract).
            let m = unsafe { _mm_loadu_si128(pb.add(16 * i).cast()) };
            b = _mm_xor_si128(_mm_xor_si128(b, m), kb.enc[0]);
        }
        if C {
            k = _mm_xor_si128(counter_block(*counter), kc.enc[0]);
            *counter = counter.wrapping_add(1);
        }
        for r in 1..10 {
            if A {
                a = _mm_aesenc_si128(a, ka.enc[r]);
            }
            if B {
                b = _mm_aesenc_si128(b, kb.enc[r]);
            }
            if C {
                k = _mm_aesenc_si128(k, kc.enc[r]);
            }
        }
        if A {
            a = _mm_aesenclast_si128(a, ka.enc[10]);
        }
        if B {
            b = _mm_aesenclast_si128(b, kb.enc[10]);
        }
        if C {
            // SAFETY: block `i < n` of lane `c` is readable and writable
            // (contract).
            unsafe {
                let p = pc.add(16 * i).cast();
                let ks = _mm_aesenclast_si128(k, kc.enc[10]);
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
            }
        }
    }
    (*xa, *xb) = (a, b);
}

impl crate::backend::Aes128Backend for AesNi {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        AesNi::encrypt_block(self, block);
    }

    fn ctr_xor(&self, counter: u128, data: &mut [u8]) {
        // SAFETY: `self` exists, so `AesNi::new` proved CPU support for
        // the `aes` feature `ctr_xor_impl` is compiled with.
        unsafe { self.ctr_xor_impl(counter, data) }
    }

    fn cmac_absorb(&self, state: &mut [u8; 16], blocks: &[u8]) {
        assert_eq!(blocks.len() % 16, 0, "cmac_absorb requires whole blocks");
        // SAFETY: `self` exists, so `AesNi::new` proved CPU support for
        // the `aes` feature; the length contract was just asserted.
        unsafe { self.cmac_absorb_impl(state, blocks) }
    }

    /// The lanes are cut into runs over which the same ones are active
    /// and each stays within one part; `step` does a run. A lane that
    /// follows the CTR lane's output sits out the iteration that writes
    /// the first block and stays one block behind from then on.
    fn lockstep(
        a: Option<MacLane<'_, Self>>,
        b: Option<MacLane<'_, Self>>,
        c: Option<CtrLane<'_, Self>>,
    ) {
        // Any lane's key schedule is the proof of CPU support, and stands
        // in as the key of a lane that is absent and so never runs.
        let Some(witness) =
            a.as_ref().map(|l| l.aes).or(b.as_ref().map(|l| l.aes)).or(c.as_ref().map(|l| l.aes))
        else {
            return;
        };
        fn load<'a>(lane: &Option<MacLane<'a, AesNi>>, witness: &'a AesNi) -> Chain<'a> {
            let Some(lane) = lane else {
                let parts = [MacPart::Blocks(&[]); 3];
                return Chain { aes: witness, x: witness.enc[0], parts, part: 0, taken: 0 };
            };
            for part in lane.parts {
                if let MacPart::Blocks(blocks) = part {
                    assert_eq!(blocks.len() % 16, 0, "a MAC lane takes whole blocks");
                }
            }
            // SAFETY: `state` is a valid 16-byte array; the unaligned load
            // reads exactly those 16 bytes.
            let x = unsafe { _mm_loadu_si128(lane.state.as_ptr().cast()) };
            Chain { aes: lane.aes, x, parts: lane.parts, part: 0, taken: 0 }
        }
        let (mut chain_a, mut chain_b) = (load(&a, witness), load(&b, witness));
        let (key_c, mut counter, data) = match c {
            Some(c) => (c.aes, c.counter, c.data),
            None => (witness, 0, Default::default()),
        };
        assert_eq!(data.len() % 16, 0, "the CTR lane takes whole blocks");
        // From here on `data` is reached through `base` alone, so a lane
        // reading what the stream wrote and the stream itself share one
        // provenance.
        let (base, total) = (data.as_mut_ptr(), data.len() / 16);
        let mut written = 0;
        loop {
            let (ready_a, ready_b) = (chain_a.next(written, total), chain_b.next(written, total));
            let mut n = usize::MAX;
            let mut stalled = false;
            let mut source = |ready: &Ready<'_>| match *ready {
                Ready::Slice(blocks, count) => {
                    n = n.min(count);
                    Some(blocks.as_ptr())
                }
                Ready::Written { from, blocks } => {
                    n = n.min(blocks);
                    // SAFETY: `from < written <= total`, so the offset is
                    // inside `data`.
                    Some(unsafe { base.add(16 * from) }.cast_const())
                }
                Ready::Stalled => {
                    stalled = true;
                    None
                }
                Ready::Done => None,
            };
            let (src_a, src_b) = (source(&ready_a), source(&ready_b));
            if written < total {
                n = n.min(total - written);
            }
            if stalled {
                // Only the CTR lane can end a stall, and a stalled lane
                // has blocks left, so the stream has too: `n >= 1`.
                n = 1;
            }
            if n == usize::MAX {
                break;
            }
            let lane_a = (chain_a.aes, &mut chain_a.x, src_a.unwrap_or(core::ptr::null()));
            let lane_b = (chain_b.aes, &mut chain_b.x, src_b.unwrap_or(core::ptr::null()));
            // SAFETY: `written <= total`, so the offset is inside `data`
            // (or one past its end, when the lane is switched off).
            let lane_c = (key_c, &mut counter, unsafe { base.add(16 * written) });
            // SAFETY: `witness` exists, so `AesNi::new` proved the `aes`
            // feature. `n` is at most what every active lane has left:
            // a `Slice` lane `n` whole blocks of its slice, the CTR lane
            // `total - written` blocks from `written`, and a `Written`
            // lane reads blocks `from..from + n` with `from < written`,
            // each written by an earlier iteration or call of `step`
            // (while the stream runs, `n <= total - written`, so these
            // stay below `total`). Lanes switched off carry null or
            // one-past-the-end pointers that `step` never touches.
            unsafe {
                match (src_a.is_some(), src_b.is_some(), written < total) {
                    (true, true, true) => step::<true, true, true>(n, lane_a, lane_b, lane_c),
                    (true, true, false) => step::<true, true, false>(n, lane_a, lane_b, lane_c),
                    (true, false, true) => step::<true, false, true>(n, lane_a, lane_b, lane_c),
                    (false, true, true) => step::<false, true, true>(n, lane_a, lane_b, lane_c),
                    (true, false, false) => step::<true, false, false>(n, lane_a, lane_b, lane_c),
                    (false, true, false) => step::<false, true, false>(n, lane_a, lane_b, lane_c),
                    (false, false, true) => step::<false, false, true>(n, lane_a, lane_b, lane_c),
                    (false, false, false) => unreachable!("a run has an active lane"),
                }
            }
            if src_a.is_some() {
                chain_a.taken += n;
            }
            if src_b.is_some() {
                chain_b.taken += n;
            }
            if written < total {
                written += n;
            }
        }
        for (lane, chain) in [(a, chain_a), (b, chain_b)] {
            if let Some(lane) = lane {
                // SAFETY: `state` is a valid 16-byte array; the unaligned
                // store writes exactly those 16 bytes.
                unsafe { _mm_storeu_si128(lane.state.as_mut_ptr().cast(), chain.x) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    fn ni() -> Option<AesNi> {
        AesNi::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ])
    }

    /// FIPS 197 Appendix B on the hardware path.
    #[test]
    fn fips197_appendix_b() {
        let Some(aes) = ni() else { return };
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    /// Hardware and table paths must agree block-for-block on random
    /// keys and plaintexts.
    #[test]
    fn matches_table_backend() {
        if !crate::backend::aesni_available() {
            return;
        }
        let mut seed = 0x0123_4567_89ab_cdefu64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u8
        };
        for _ in 0..256 {
            let key: [u8; 16] = core::array::from_fn(|_| next());
            let plain: [u8; 16] = core::array::from_fn(|_| next());
            let hw = AesNi::new(&key).unwrap();
            let sw = Aes128::new(&key);
            let mut a = plain;
            let mut b = plain;
            hw.encrypt_block(&mut a);
            sw.encrypt_block(&mut b);
            assert_eq!(a, b, "encrypt mismatch");
        }
    }
}
