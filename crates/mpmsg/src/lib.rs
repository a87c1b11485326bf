//! Message-passing substrate for non-cache-coherent multicores.
//!
//! The H2TAP architecture "decouples shared memory from cache coherence":
//! data lives in globally shared memory, but threads may not rely on the
//! hardware to keep their caches coherent. This crate provides the
//! transport Caldera's task-parallel (OLTP) archipelago runs on under that
//! contract: [`fabric`], per-core mailboxes over bounded channels that carry
//! lock-request / lock-grant / release messages.
//!
//! On cache-coherent hosts (like the one the paper's own evaluation uses) the
//! fabric simply rides on coherent shared memory; the point is that the
//! *engine* never assumes coherence, so the transport could be swapped for a
//! hardware message-passing network or an RDMA fabric without touching the
//! database logic.

#![forbid(unsafe_code)]

pub mod fabric;

pub use fabric::{build_fabric, Envelope, Mailbox, Postbox};

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
