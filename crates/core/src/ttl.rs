//! The TTL clock: absolute expiry deadlines in nanoseconds.
//!
//! Entry TTLs are stored as **absolute Unix-epoch deadlines** (ns), so
//! they survive process restarts and WAL replay without rebasing: the
//! wall clock after recovery is the same wall clock the deadline was cut
//! against. `expires_at == 0` means "no TTL".
//!
//! Tests need the clock to move on command, never on its own. Two
//! process-wide hooks provide that, mirroring the `sgx_sim::vclock`
//! idiom (always compiled, used by harnesses):
//!
//! * [`freeze`] pins [`now_ns`] to an explicit value — from then on the
//!   clock only moves via [`advance`]. Deterministic expiry tests freeze
//!   first, so wall-time jitter cannot flip a deadline.
//! * [`advance`] moves the clock forward: the frozen value when frozen,
//!   a standing offset over the wall clock otherwise.
//!
//! [`thaw`] returns to wall time (plus any accumulated offset).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Pinned clock value; 0 = not frozen (0 is never a valid frozen time).
static FROZEN: AtomicU64 = AtomicU64::new(0);
/// Offset added to the wall clock while unfrozen.
static OFFSET: AtomicU64 = AtomicU64::new(0);

fn wall_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

/// The current TTL-clock reading in nanoseconds since the Unix epoch.
pub fn now_ns() -> u64 {
    let frozen = FROZEN.load(Ordering::SeqCst);
    if frozen != 0 {
        frozen
    } else {
        wall_ns().saturating_add(OFFSET.load(Ordering::SeqCst))
    }
}

/// A deadline `ttl_ns` from now (saturating). `ttl_ns == 0` yields an
/// already-due deadline, *not* "no TTL" — pass `expires_at = 0` through
/// the store API for untimed entries.
pub fn deadline_after(ttl_ns: u64) -> u64 {
    now_ns().saturating_add(ttl_ns).max(1)
}

/// Test hook: pins the clock at `at_ns` (must be nonzero).
pub fn freeze(at_ns: u64) {
    assert!(at_ns != 0, "0 means unfrozen");
    FROZEN.store(at_ns, Ordering::SeqCst);
}

/// Test hook: moves the clock forward by `delta_ns` — the frozen value
/// when frozen, a standing wall-clock offset otherwise.
pub fn advance(delta_ns: u64) {
    if FROZEN.load(Ordering::SeqCst) != 0 {
        FROZEN.fetch_add(delta_ns, Ordering::SeqCst);
    } else {
        OFFSET.fetch_add(delta_ns, Ordering::SeqCst);
    }
}

/// Test hook: unfreezes and clears any offset (back to pure wall time).
pub fn thaw() {
    FROZEN.store(0, Ordering::SeqCst);
    OFFSET.store(0, Ordering::SeqCst);
}

/// Held by the unit tests that move this process-wide clock, so they
/// take turns.
#[cfg(test)]
pub(crate) static TEST_CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // The clock is process-global; this single test exercises all modes
    // so parallel-test interleavings cannot fight over it.
    #[test]
    fn freeze_advance_thaw() {
        let _clock = TEST_CLOCK.lock().unwrap_or_else(|e| e.into_inner());
        thaw();
        let before = now_ns();
        assert!(before > 0, "wall clock is past the epoch");

        freeze(1_000);
        assert_eq!(now_ns(), 1_000);
        advance(500);
        assert_eq!(now_ns(), 1_500);
        assert_eq!(deadline_after(100), 1_600);

        thaw();
        let w = now_ns();
        assert!(w >= before);
        advance(1 << 40);
        assert!(now_ns() >= w + (1 << 40));
        thaw();
    }
}
