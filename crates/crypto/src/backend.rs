//! Runtime-dispatched AES-128 backend layer.
//!
//! All hot-path primitives ([`crate::ctr::AesCtr`], [`crate::cmac::Cmac`])
//! are built on the [`Aes128Backend`] trait instead of a concrete cipher.
//! Two implementations exist:
//!
//! * the portable table-based [`Aes128`] (always available), and
//! * [`AesNi`] using the x86-64 AES instruction set, selected at runtime
//!   when the CPU advertises it.
//!
//! Dispatch happens **once per process**: [`selected_kind`] probes the CPU
//! (via `is_x86_feature_detected!("aes")`) and consults the
//! `SHIELDSTORE_CRYPTO_BACKEND` environment variable, then caches the
//! answer. The env override accepts:
//!
//! | value | effect |
//! |---|---|
//! | `soft` | force the table-based fallback |
//! | `aesni` | require AES-NI; **panics** if the CPU lacks it |
//! | `auto` (or unset) | use AES-NI when detected, else the fallback |
//!
//! Both backends are bit-exact implementations of FIPS 197: they must
//! produce byte-identical ciphertexts and tags for all inputs. The
//! `backend_equiv` integration test enforces this exhaustively.

use crate::aes::Aes128;
#[cfg(target_arch = "x86_64")]
use crate::aesni::AesNi;
use std::sync::OnceLock;

/// One stretch of a CBC-MAC lane's input (see [`MacLane`]).
#[derive(Clone, Copy)]
pub enum MacPart<'a> {
    /// Whole 16-byte blocks, absorbed in order.
    Blocks(&'a [u8]),
    /// Every block the [`CtrLane`] of the same call writes, in order:
    /// the MAC of a stream being encrypted follows its own ciphertext.
    CtrOutput,
}

/// A CBC-MAC chain for [`Aes128Backend::lockstep`]: for every block `m`
/// of every part in turn, `state = E(state ^ m)`.
pub struct MacLane<'a, K> {
    /// The chain's key schedule.
    pub aes: &'a K,
    /// The chaining state, read on entry and left holding the result.
    pub state: &'a mut [u8; 16],
    /// The input, part by part; an unused part is `Blocks(&[])`.
    pub parts: [MacPart<'a>; 3],
}

/// A CTR stream for [`Aes128Backend::lockstep`]: block `i` of `data` is
/// XORed with `E(counter + i)`.
pub struct CtrLane<'a, K> {
    /// The stream's key schedule.
    pub aes: &'a K,
    /// The first block's counter (128-bit big-endian, wrapping).
    pub counter: u128,
    /// Whole 16-byte blocks, transformed in place.
    pub data: &'a mut [u8],
}

/// The operations every AES-128 backend must provide.
///
/// The widened entry points (`ctr_xor`, `cmac_absorb`, `lockstep`) exist
/// so hardware backends can keep independent blocks in flight and
/// chaining state in registers; the portable backend implements them as
/// straightforward loops over [`Aes128Backend::encrypt_block`], which
/// pins down the required semantics.
pub trait Aes128Backend {
    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]);

    /// XORs the keystream `E(counter) ‖ E(counter + 1) ‖ …` into `data`;
    /// the counter is a 128-bit big-endian integer that wraps, and a
    /// final partial block takes the leading bytes of its keystream
    /// block. Hardware backends keep the counter and eight keystream
    /// blocks at a time in registers.
    fn ctr_xor(&self, counter: u128, data: &mut [u8]) {
        let mut counter = counter;
        for chunk in data.chunks_mut(16) {
            let mut ks = counter.to_be_bytes();
            self.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Absorbs full 16-byte blocks into a CBC-MAC chaining state:
    /// for each block `m`, `state = E(state ^ m)`. `blocks.len()` must be
    /// a multiple of 16. Hardware backends keep `state` in a register
    /// across the whole slice.
    fn cmac_absorb(&self, state: &mut [u8; 16], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        for block in blocks.chunks_exact(16) {
            for (s, m) in state.iter_mut().zip(block.iter()) {
                *s ^= m;
            }
            self.encrypt_block(state);
        }
    }

    /// Runs up to two CBC-MAC chains and one CTR stream, each under its
    /// own key schedule. A CBC-MAC chain is bound by the latency of the
    /// cipher, not its throughput, so a hardware backend advances the
    /// three a block of each at a time and finishes in about the time of
    /// the longest. The result is that of [`sequential_lockstep`], which
    /// is also the portable implementation.
    fn lockstep(
        a: Option<MacLane<'_, Self>>,
        b: Option<MacLane<'_, Self>>,
        c: Option<CtrLane<'_, Self>>,
    ) where
        Self: Sized,
    {
        sequential_lockstep(a, b, c)
    }
}

/// What [`Aes128Backend::lockstep`] computes, as three plain loops: the
/// CTR stream first, so that a lane absorbing [`MacPart::CtrOutput`] sees
/// what the stream wrote, then each chain over its parts in order.
pub fn sequential_lockstep<K: Aes128Backend>(
    a: Option<MacLane<'_, K>>,
    b: Option<MacLane<'_, K>>,
    mut c: Option<CtrLane<'_, K>>,
) {
    if let Some(c) = c.as_mut() {
        assert_eq!(c.data.len() % 16, 0, "the CTR lane takes whole blocks");
        c.aes.ctr_xor(c.counter, c.data);
    }
    let written: &[u8] = c.as_ref().map_or(&[], |c| &*c.data);
    for lane in [a, b].into_iter().flatten() {
        for part in lane.parts {
            let blocks = match part {
                MacPart::Blocks(blocks) => blocks,
                MacPart::CtrOutput => written,
            };
            assert_eq!(blocks.len() % 16, 0, "a MAC lane takes whole blocks");
            lane.aes.cmac_absorb(lane.state, blocks);
        }
    }
}

impl Aes128Backend for Aes128 {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        Aes128::encrypt_block(self, block);
    }
}

/// Which backend implementation is in use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// Portable table-based software AES.
    Soft,
    /// Hardware AES via the x86-64 AES-NI instruction set.
    AesNi,
}

impl BackendKind {
    /// Stable human-readable name (`soft` / `aesni`), reported in stats.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Soft => "soft",
            BackendKind::AesNi => "aesni",
        }
    }

    /// Stable numeric code for the stats wire format (0 = soft, 1 = aesni).
    pub fn code(self) -> u64 {
        match self {
            BackendKind::Soft => 0,
            BackendKind::AesNi => 1,
        }
    }
}

/// Returns true when the CPU supports the AES-NI backend.
pub fn aesni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static SELECTED: OnceLock<BackendKind> = OnceLock::new();

/// The process-wide backend choice: CPU detection plus the
/// `SHIELDSTORE_CRYPTO_BACKEND` override, computed once and cached.
///
/// # Panics
///
/// Panics when the variable requests `aesni` on a CPU without it, or names
/// an unknown backend — a forced override silently downgrading would make
/// "I tested the hardware path" a lie.
pub fn selected_kind() -> BackendKind {
    *SELECTED.get_or_init(|| match std::env::var("SHIELDSTORE_CRYPTO_BACKEND").ok().as_deref() {
        Some("soft") => BackendKind::Soft,
        Some("aesni") => {
            assert!(
                aesni_available(),
                "SHIELDSTORE_CRYPTO_BACKEND=aesni but this CPU has no AES-NI"
            );
            BackendKind::AesNi
        }
        None | Some("auto") | Some("") => {
            if aesni_available() {
                BackendKind::AesNi
            } else {
                BackendKind::Soft
            }
        }
        Some(other) => {
            panic!("unknown SHIELDSTORE_CRYPTO_BACKEND {other:?} (expected soft|aesni|auto)")
        }
    })
}

/// An AES-128 backend chosen at construction time.
///
/// Enum dispatch (rather than `dyn`) keeps every call statically
/// resolvable inside each match arm, so the per-block cost is one
/// predictable branch rather than an indirect call.
#[derive(Clone)]
pub enum AesBackend {
    /// Portable table-based implementation.
    Soft(Aes128),
    /// AES-NI implementation (only constructed when the CPU supports it).
    #[cfg(target_arch = "x86_64")]
    Ni(AesNi),
}

impl AesBackend {
    /// Expands `key` on the process-wide selected backend.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_kind(selected_kind(), key)
    }

    /// Expands `key` on an explicitly chosen backend.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BackendKind::AesNi`] on a CPU without AES-NI.
    pub fn with_kind(kind: BackendKind, key: &[u8; 16]) -> Self {
        match kind {
            BackendKind::Soft => AesBackend::Soft(Aes128::new(key)),
            BackendKind::AesNi => {
                #[cfg(target_arch = "x86_64")]
                {
                    AesBackend::Ni(AesNi::new(key).expect("AES-NI backend on CPU without AES-NI"))
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    panic!("AES-NI backend is only available on x86-64")
                }
            }
        }
    }

    /// Which implementation this instance uses.
    pub fn kind(&self) -> BackendKind {
        match self {
            AesBackend::Soft(_) => BackendKind::Soft,
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(_) => BackendKind::AesNi,
        }
    }

    /// The AES-NI key schedule, when this instance is on that backend.
    #[cfg(target_arch = "x86_64")]
    fn ni(&self) -> Option<&AesNi> {
        match self {
            AesBackend::Soft(_) => None,
            AesBackend::Ni(a) => Some(a),
        }
    }

    /// Encrypts `input` into a fresh block, leaving the input untouched.
    pub fn encrypt_to(&self, input: &[u8; 16]) -> [u8; 16] {
        let mut out = *input;
        self.encrypt_block(&mut out);
        out
    }
}

impl Aes128Backend for AesBackend {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self {
            AesBackend::Soft(a) => a.encrypt_block(block),
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(a) => Aes128Backend::encrypt_block(a, block),
        }
    }

    fn ctr_xor(&self, counter: u128, data: &mut [u8]) {
        match self {
            AesBackend::Soft(a) => Aes128Backend::ctr_xor(a, counter, data),
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(a) => Aes128Backend::ctr_xor(a, counter, data),
        }
    }

    fn cmac_absorb(&self, state: &mut [u8; 16], blocks: &[u8]) {
        match self {
            AesBackend::Soft(a) => Aes128Backend::cmac_absorb(a, state, blocks),
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(a) => Aes128Backend::cmac_absorb(a, state, blocks),
        }
    }

    /// The hardware kernel when every lane present is on AES-NI (the
    /// process-wide selection makes that all or none), else the
    /// sequential definition over whatever mix was constructed.
    fn lockstep(
        a: Option<MacLane<'_, Self>>,
        b: Option<MacLane<'_, Self>>,
        c: Option<CtrLane<'_, Self>>,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            let keys =
                [a.as_ref().map(|l| l.aes), b.as_ref().map(|l| l.aes), c.as_ref().map(|l| l.aes)];
            if keys.into_iter().flatten().all(|aes| aes.ni().is_some()) {
                fn mac<'a>(lane: MacLane<'a, AesBackend>) -> MacLane<'a, AesNi> {
                    let aes = lane.aes.ni().expect("checked above");
                    MacLane { aes, state: lane.state, parts: lane.parts }
                }
                fn ctr<'a>(lane: CtrLane<'a, AesBackend>) -> CtrLane<'a, AesNi> {
                    let aes = lane.aes.ni().expect("checked above");
                    CtrLane { aes, counter: lane.counter, data: lane.data }
                }
                return AesNi::lockstep(a.map(mac), b.map(mac), c.map(ctr));
            }
        }
        sequential_lockstep(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_kind_is_stable() {
        assert_eq!(selected_kind(), selected_kind());
    }

    #[test]
    fn with_kind_soft_matches_fips197() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let be = AesBackend::with_kind(BackendKind::Soft, &key);
        let block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        assert_eq!(
            be.encrypt_to(&block),
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }
}
