//! Networked front-end for the ShieldStore reproduction (paper §6.4).
//!
//! A ShieldStore server faces remote clients through TCP. Because an
//! enclave cannot issue system calls, network I/O is done by *untrusted*
//! threads; each request must then reach the enclave. Two mechanisms are
//! modeled, matching the paper:
//!
//! * **ECALL** — a hardware enclave crossing per request (~8,000 cycles);
//! * **HotCalls** — a shared-memory request ring polled by in-enclave
//!   worker threads (~620 cycles, no crossing).
//!
//! Security follows §3.2's server-side-encryption flow: the client
//! remote-attests the enclave (a quote binding the server's ephemeral
//! X25519 public key), both sides derive session keys, and every request
//! and response is AES-CTR encrypted and CMAC authenticated.
//!
//! The server is an **async core-per-shard engine**: N nonblocking
//! event loops (epoll readiness, no runtime dependency) each own an
//! accept share and a set of connections, reassemble frames
//! incrementally, and execute each single-key request on the loop that
//! owns its key's hash partition (paper §5.3 worker/partition
//! alignment). See [`server`] and `DESIGN.md` § "Network engine".
//!
//! * [`protocol`] — wire format (framing, opcodes) and the one codec
//!   between it and an `Op`, both directions.
//! * [`frame`] — incremental (push) frame decoder for the event loops.
//! * [`machine`] — per-connection lifecycle state machine.
//! * [`poller`] — minimal epoll/eventfd readiness abstraction (the one
//!   `unsafe` module: raw FFI, no external crates).
//! * [`session`] — attested handshake and per-session channel crypto.
//! * [`server`] — the store server with ECALL/HotCalls request paths.
//! * [`admission`] — weighted fair per-tenant admission control.
//! * [`client`] — a client handle and a concurrent load driver.
//! * [`repl`] — attested replicas: sealed-log streaming, read
//!   scale-out, verifiable failover (see `DESIGN.md` § "Replication").

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
mod engine;
pub mod frame;
pub mod machine;
pub mod poller;
pub mod protocol;
pub mod proxy;
pub mod repl;
pub mod server;
pub mod session;

pub use admission::FairAdmission;
pub use client::{Connector, KvClient, LoadConfig, LoadReport, RetryClient, RetryPolicy};
pub use frame::FrameDecoder;
pub use machine::{CloseReason, ConnMachine, ConnPhase};
pub use protocol::{OpCode, Request, Response, Status};
pub use proxy::{FaultPlan, FaultProxy, FrameFault};
pub use repl::{ReplicaBackend, ReplicaConfig, ReplicaHandle, ReplicaNode};
pub use server::{CrossingMode, NetGauges, Server, ServerConfig};

/// Errors surfaced by the networked components.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// Malformed frame or message.
    Protocol(String),
    /// Attestation or session-crypto failure.
    Security(String),
    /// The server refused the request, and says how: shed under
    /// overload (`Busy`: retry after backoff, see
    /// [`client::RetryClient`]), a quarantined partition, an exceeded
    /// tenant quota, a read-only replica (send writes to the primary), or
    /// a poisoned log writer (`StorageFailed`: fail over rather than
    /// retry). [`shieldstore::Refusal::may_have_executed`] says whether the
    /// request may have run anyway: of these, only the `StorageFailed`
    /// answer to the write whose own commit poisoned the writer, and a
    /// batch refused part-way. A bare server `Error` stays a
    /// [`NetError::Protocol`] naming the request.
    Refused(shieldstore::Refusal),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Security(m) => write!(f, "security error: {m}"),
            NetError::Refused(refusal) => write!(f, "server refused the request: {refusal:?}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A payload the byte cursor refused is a protocol error.
impl From<sgx_sim::bytes::Malformed> for NetError {
    #[cold]
    fn from(m: sgx_sim::bytes::Malformed) -> Self {
        NetError::Protocol(m.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NetError>;
