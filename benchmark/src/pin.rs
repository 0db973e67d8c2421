//! Pins the benchmark, and every thread it later spawns, to one CPU.
//!
//! On this two-vCPU VM a blocked thread is woken across CPUs through a
//! halted vCPU, which costs 5 us in a quiet hour and 65 us in a busy
//! one; a closed loop over a socket pays two such wake-ups per window,
//! so unpinned wire throughput flips between ~290 and ~135 kop/s with
//! the host's mood. On one CPU a wake-up is a context switch, the
//! number is the CPU cost of client plus server per request, and the
//! per-layer budget adds up without overlap. Longer segments were tried
//! first and do not help: the flips last minutes.

use std::mem::size_of_val;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

/// Restricts the calling thread to the highest-numbered CPU it is
/// allowed on (CPU 0 tends to carry the interrupts) and returns it.
/// Threads spawned afterwards inherit the mask. `None` — and nothing
/// changed — where the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and is
    // only read.
    (unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) } == 0).then_some(cpu)
}
