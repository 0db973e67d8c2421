//! The crypto counters are per-thread slots summed on read; this checks
//! the totals are still exact. One test in a binary of its own, so
//! nothing else in the process runs crypto while it counts.

use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::fused;
use shield_crypto::stats::{crypto_bytes, crypto_ops};

/// A fixed op sequence: one keystream application, one MAC, one fused
/// open (which also finalizes a MAC context).
fn work(rounds: usize) {
    let enc = AesCtr::new(&[1u8; 16]);
    let mac = Cmac::new(&[2u8; 16]);
    let iv = [3u8; 16];
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut data = [7u8; 100];
        enc.apply_keystream(&iv, &mut data);
        let tag = mac.compute(&data);
        assert!(fused::open_verify(&enc, &mac, &iv, &[], &data, &[], &tag, &mut out));
    }
}

/// What one round of [`work`] adds: 100 B keystream + 100 B MAC +
/// 100 B fused open + its 100 B MAC finalize, four calls.
const BYTES_PER_ROUND: u64 = 400;
const OPS_PER_ROUND: u64 = 4;

#[test]
fn totals_are_exact_from_one_thread_and_summed_over_two() {
    let (b0, o0) = (crypto_bytes(), crypto_ops());
    work(10);
    assert_eq!(crypto_bytes() - b0, 10 * BYTES_PER_ROUND);
    assert_eq!(crypto_ops() - o0, 10 * OPS_PER_ROUND);

    // Two threads at once, each on its own slot.
    let (b1, o1) = (crypto_bytes(), crypto_ops());
    std::thread::scope(|scope| {
        scope.spawn(|| work(1000));
        scope.spawn(|| work(500));
    });
    assert_eq!(crypto_bytes() - b1, 1500 * BYTES_PER_ROUND);
    assert_eq!(crypto_ops() - o1, 1500 * OPS_PER_ROUND);

    // Both have exited: their counts stay, and a later thread (on a
    // returned slot) adds to them.
    std::thread::spawn(|| work(3)).join().expect("worker");
    assert_eq!(crypto_bytes() - b1, 1503 * BYTES_PER_ROUND);
    assert_eq!(crypto_ops() - o1, 1503 * OPS_PER_ROUND);
}
