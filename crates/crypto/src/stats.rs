//! Process-wide crypto throughput counters.
//!
//! Every bulk primitive (CTR keystream application, CMAC finalization,
//! fused open) notes the bytes it processed here, and the store surfaces
//! the totals through `StatsSnapshot` so deployments can see both the
//! active backend and how much data the crypto layer is moving.
//!
//! A request makes a dozen of these calls, so the write side is kept off
//! the shared bus: each thread leases a cache-line-sized slot that only
//! it writes (a plain load and store — no locked read-modify-write, no
//! line bouncing between event loops), and the readers sum the slots.
//! A slot is never reset: a thread that exits returns its slot, counts
//! and all, for the next thread to carry on from, so the totals stay
//! exact and monotone and the table is as long as the most threads that
//! ever ran crypto at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One thread's counters, alone on their cache line.
#[repr(align(64))]
struct Slot {
    bytes: AtomicU64,
    ops: AtomicU64,
}

/// Every slot ever leased, and those whose thread has exited.
struct Registry {
    all: Vec<&'static Slot>,
    free: Vec<&'static Slot>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry { all: Vec::new(), free: Vec::new() });

fn registry() -> MutexGuard<'static, Registry> {
    // Only ever pushed to and popped from: valid at every step, so a
    // panicking holder leaves nothing to repair.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's hold on its slot. The registry lock orders the previous
/// holder's last store before the next holder's first load, so a slot
/// has one writer at any time.
struct Lease(&'static Slot);

impl Lease {
    fn acquire() -> Lease {
        let mut registry = registry();
        Lease(registry.free.pop().unwrap_or_else(|| {
            let slot: &'static Slot =
                Box::leak(Box::new(Slot { bytes: AtomicU64::new(0), ops: AtomicU64::new(0) }));
            registry.all.push(slot);
            slot
        }))
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        registry().free.push(self.0);
    }
}

thread_local! {
    static LEASE: Lease = Lease::acquire();
}

/// Records one bulk crypto operation over `bytes` bytes.
#[inline]
pub(crate) fn note(bytes: usize) {
    // A call from another thread-local's destructor, after this one is
    // gone, goes uncounted rather than panicking.
    let _ = LEASE.try_with(|lease| {
        let Slot { bytes: total, ops } = lease.0;
        total.store(total.load(Ordering::Relaxed) + bytes as u64, Ordering::Relaxed);
        ops.store(ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    });
}

fn sum(counter: impl Fn(&Slot) -> &AtomicU64) -> u64 {
    registry().all.iter().map(|slot| counter(slot).load(Ordering::Relaxed)).sum()
}

/// Total bytes processed by bulk crypto primitives since process start.
pub fn crypto_bytes() -> u64 {
    sum(|slot| &slot.bytes)
}

/// Total bulk crypto operations (keystream applications, MAC
/// computations, fused opens) since process start.
pub fn crypto_ops() -> u64 {
    sum(|slot| &slot.ops)
}

/// Name of the process-wide selected backend (`soft` / `aesni`).
pub fn backend_name() -> &'static str {
    crate::backend::selected_kind().name()
}

/// Numeric code of the process-wide selected backend (0 soft, 1 aesni).
pub fn backend_code() -> u64 {
    crate::backend::selected_kind().code()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_advance_with_work() {
        let b0 = crypto_bytes();
        let o0 = crypto_ops();
        let ctr = crate::ctr::AesCtr::new(&[1u8; 16]);
        let mut data = [0u8; 100];
        ctr.apply_keystream(&[0u8; 16], &mut data);
        assert!(crypto_bytes() >= b0 + 100);
        assert!(crypto_ops() > o0);
    }

    #[test]
    fn backend_name_matches_code() {
        match backend_code() {
            0 => assert_eq!(backend_name(), "soft"),
            1 => assert_eq!(backend_name(), "aesni"),
            other => panic!("unexpected backend code {other}"),
        }
    }
}
