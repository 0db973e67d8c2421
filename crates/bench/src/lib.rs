//! The paper reproduction for ShieldStore: shared runners for the
//! evaluation binaries.
//!
//! Every table and figure in the paper's evaluation (§6) has a binary in
//! `src/bin/` that regenerates it: same workloads, same parameter sweeps,
//! same rows/series — at a scaled-down default size so the whole suite
//! runs in minutes (pass `--paper` for paper-scale parameters; see
//! [`scale::Scale`]). The binaries print; `results/*.txt` are their
//! output. Performance claims go through `BENCHMARK.json` instead.
//!
//! Time accounting: real work (crypto, hashing, data movement) is
//! executed and measured in wall time; SGX penalties (EPC faults,
//! boundary crossings) accumulate on per-thread virtual clocks inside
//! `sgx-sim`. Reported throughput is `ops / (wall + max per-thread
//! penalty)` — see DESIGN.md section 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod report;
pub mod scale;
pub mod setups;

pub use args::Args;
pub use harness::RunResult;
pub use scale::Scale;
