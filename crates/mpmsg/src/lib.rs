//! Message-passing substrate for non-cache-coherent multicores.
//!
//! The H2TAP architecture "decouples shared memory from cache coherence":
//! data lives in globally shared memory, but threads may not rely on the
//! hardware to keep their caches coherent. This crate provides the three
//! pieces Caldera's task-parallel (OLTP) archipelago needs to run under that
//! contract:
//!
//! * [`fabric`] — per-core mailboxes over bounded channels, the transport for
//!   lock-request / lock-grant / release messages,
//! * [`cache`] — a software-managed cache model with explicit write-back and
//!   invalidation, plus staleness detection so tests can prove the protocol
//!   inserts them where the paper says it must,
//! * [`ownership`] — the partition-ownership discipline (each core has
//!   exclusive access to its partition) with an optional strict mode that
//!   turns violations into errors.
//!
//! On cache-coherent hosts (like the one the paper's own evaluation uses) the
//! fabric simply rides on coherent shared memory; the point is that the
//! *engine* never assumes coherence, so the transport could be swapped for a
//! hardware message-passing network or an RDMA fabric without touching the
//! database logic.

#![forbid(unsafe_code)]

pub mod cache;
pub mod fabric;
pub mod ownership;

pub use cache::{CoherenceDomain, LineId, SoftwareCache};
pub use fabric::{build_fabric, Envelope, FabricStats, Mailbox, Postbox};
pub use ownership::OwnershipRegistry;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a CPU core participating in an archipelago.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(4).to_string(), "core4");
    }
}
