//! The OLTP message protocol.
//!
//! Caldera's transaction runtime never synchronises through shared memory:
//! when a transaction hosted on one worker (the *client*) needs a record
//! owned by another worker (the *server*), the client sends a lock-request
//! message, the server acquires the lock on its thread-private lock table and
//! replies with a grant carrying the record's location ("rather than shipping
//! the whole record ... sending only the record pointer"), and at commit or
//! abort the client sends an explicit release for every remote record it
//! acquired.
//!
//! A worker's mailbox is its only inbox, so what the runtime asks of a
//! worker travels the same way: a submitted transaction, a generator window
//! (one message carrying its deadline; the worker ends it on its own clock)
//! and shutdown are messages too, delivered in send order with the lock
//! traffic.

use crate::runtime::Job;
use crossbeam_channel::Sender;
use h2tap_common::{RecordId, TableId};
use std::time::Instant;

/// Identifies a transaction for lock bookkeeping: the worker hosting it plus
/// a worker-local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnToken {
    /// Index of the hosting (client) worker.
    pub client: u32,
    /// Client-local transaction sequence number.
    pub seq: u64,
}

impl TxnToken {
    /// Creates a token.
    pub fn new(client: u32, seq: u64) -> Self {
        Self { client, seq }
    }
}

/// Lock modes of the per-worker two-phase-locking tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Messages delivered to an OLTP worker: lock traffic from the other
/// workers, and work and control from the runtime.
#[derive(Debug, Clone)]
pub enum OltpMsg {
    /// Client asks the owner of a partition to lock the record with primary
    /// key `key` in `table` on behalf of `txn`. The server performs the index
    /// lookup, so the client never touches a remote index.
    LockRequest {
        /// Requesting transaction.
        txn: TxnToken,
        /// Table the record belongs to.
        table: TableId,
        /// Primary key of the record.
        key: i64,
        /// Requested mode.
        mode: LockMode,
    },
    /// Server grants the lock and returns the record's location so the client
    /// can access shared memory directly.
    LockGrant {
        /// Transaction the grant is for.
        txn: TxnToken,
        /// Location of the locked record.
        rid: RecordId,
        /// Key that was requested (echoed back for client bookkeeping).
        key: i64,
    },
    /// Server refuses the lock (conflict or unknown key); the transaction
    /// aborts and may retry. Caldera's prototype uses no-wait conflict
    /// resolution for remote locks, which keeps the protocol deadlock-free.
    LockDenied {
        /// Transaction the denial is for.
        txn: TxnToken,
        /// Key that was requested.
        key: i64,
        /// Whether the key simply does not exist (as opposed to a conflict).
        unknown_key: bool,
    },
    /// Client releases all remote locks it holds on the server's partition
    /// (sent once per server at commit or abort time).
    Release {
        /// Transaction releasing its locks.
        txn: TxnToken,
        /// Records to unlock.
        rids: Vec<RecordId>,
    },
    /// A transaction a client submitted to this worker.
    Submit(Job),
    /// Opens a window in which the worker runs its generator's transactions
    /// back to back until `until`. It then sends the instant it stopped on
    /// `done`, once, and generates no more.
    Window {
        /// Deadline: no transaction of the window starts at or after it.
        until: Instant,
        /// Where the worker reports the instant it stopped.
        done: Sender<Instant>,
    },
    /// Orderly shutdown request from the runtime: the worker exits once it
    /// has run every submission delivered before this message.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::PartitionId;

    #[test]
    fn tokens_are_ordered_by_client_then_seq() {
        let a = TxnToken::new(0, 5);
        let b = TxnToken::new(0, 6);
        let c = TxnToken::new(1, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn messages_are_cloneable_for_fanout() {
        let msg =
            OltpMsg::Release { txn: TxnToken::new(2, 9), rids: vec![RecordId::new(PartitionId(1), TableId(0), 3)] };
        let copy = msg.clone();
        match copy {
            OltpMsg::Release { txn, rids } => {
                assert_eq!(txn.seq, 9);
                assert_eq!(rids.len(), 1);
            }
            _ => panic!("unexpected variant"),
        }
    }
}
