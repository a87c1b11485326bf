//! The transaction context: what a stored procedure sees while it runs.
//!
//! A transaction executes entirely on its host (client) worker thread. Reads
//! and writes are keyed by primary key; the context resolves the owning
//! partition, acquires the 2PL lock (directly for local records, via a
//! lock-request message for remote records), and defers all writes to commit
//! time so an abort never needs undo. At commit the client applies its writes
//! through shared memory (it holds every lock), conceptually writes its dirty
//! cache lines back, releases local locks directly and remote locks with one
//! release message per server — exactly the protocol of Section 4.

use crate::messages::{LockMode, OltpMsg, TxnToken};
use crate::runtime::count;
use crate::worker::{core_of, WorkerState};
use h2tap_common::{H2Error, PartitionId, RecordId, Result, TableId, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Per-key lock bookkeeping within one transaction.
#[derive(Debug, Clone, Copy)]
struct HeldLock {
    rid: RecordId,
    mode: LockMode,
}

/// The interface transactions program against.
pub struct TxnCtx<'a> {
    state: &'a mut WorkerState,
    token: TxnToken,
    held: HashMap<(TableId, i64), HeldLock>,
    /// Remote locks grouped by owning worker, for release messages.
    remote: HashMap<u32, Vec<RecordId>>,
    /// Deferred updates: applied at commit while all locks are held.
    write_set: Vec<(RecordId, Vec<Value>)>,
    /// Deferred inserts into the home partition.
    insert_set: Vec<(TableId, i64, Vec<Value>)>,
    finished: bool,
}

impl<'a> TxnCtx<'a> {
    /// Creates a context for one transaction attempt.
    pub fn new(state: &'a mut WorkerState, token: TxnToken) -> Self {
        Self {
            state,
            token,
            held: HashMap::new(),
            remote: HashMap::new(),
            write_set: Vec::new(),
            insert_set: Vec::new(),
            finished: false,
        }
    }

    /// The partition hosting this transaction.
    pub fn home(&self) -> PartitionId {
        self.state.home()
    }

    /// The transaction's token (exposed for diagnostics).
    pub fn token(&self) -> TxnToken {
        self.token
    }

    /// Reads the record with primary key `key` in `table` under a shared
    /// lock.
    pub fn read(&mut self, table: TableId, key: i64) -> Result<Vec<Value>> {
        let rid = self.ensure_lock(table, key, LockMode::Shared)?;
        self.read_locked(rid)
    }

    /// Reads the record under an exclusive lock (read-modify-write pattern).
    pub fn read_for_update(&mut self, table: TableId, key: i64) -> Result<Vec<Value>> {
        let rid = self.ensure_lock(table, key, LockMode::Exclusive)?;
        self.read_locked(rid)
    }

    /// Overwrites the record with primary key `key`. The write is buffered
    /// and applied at commit.
    pub fn update(&mut self, table: TableId, key: i64, values: Vec<Value>) -> Result<()> {
        let rid = self.ensure_lock(table, key, LockMode::Exclusive)?;
        // Later reads of the same key must see this write.
        self.write_set.retain(|(r, _)| *r != rid);
        self.write_set.push((rid, values));
        Ok(())
    }

    /// Inserts a new record with primary key `key` into the home partition.
    /// The insert is buffered and applied at commit.
    pub fn insert_local(&mut self, table: TableId, key: i64, values: Vec<Value>) -> Result<()> {
        let home = self.home();
        if self.state.partitioner.partition_of(table, key) != home {
            return Err(H2Error::TxnAborted(format!("insert of key {key} does not belong to home partition {home}")));
        }
        if self.state.index.lookup(table, key).is_some() {
            return Err(H2Error::TxnAborted(format!("duplicate primary key {key}")));
        }
        self.insert_set.push((table, key, values));
        Ok(())
    }

    /// Number of remote lock requests this transaction has issued so far.
    pub fn remote_lock_count(&self) -> usize {
        self.remote.values().map(Vec::len).sum()
    }

    fn read_locked(&mut self, rid: RecordId) -> Result<Vec<Value>> {
        // Read-your-writes: serve from the deferred write set if present.
        if let Some((_, values)) = self.write_set.iter().rev().find(|(r, _)| *r == rid) {
            return Ok(values.clone());
        }
        self.state.db.read(rid)
    }

    /// Resolves the lock for `(table, key)` in the requested mode, acquiring
    /// it locally or remotely as needed.
    fn ensure_lock(&mut self, table: TableId, key: i64, mode: LockMode) -> Result<RecordId> {
        if let Some(held) = self.held.get(&(table, key)) {
            match (held.mode, mode) {
                (_, LockMode::Shared) | (LockMode::Exclusive, _) => return Ok(held.rid),
                (LockMode::Shared, LockMode::Exclusive) => {
                    // Upgrade. Local upgrades go through the local lock
                    // table; remote upgrades re-issue the request.
                }
            }
        }
        let target = self.state.partitioner.partition_of(table, key);
        let rid = if target == self.home() {
            self.acquire_local(table, key, mode)?
        } else {
            self.acquire_remote(target, table, key, mode)?
        };
        self.held.insert((table, key), HeldLock { rid, mode });
        Ok(rid)
    }

    fn acquire_local(&mut self, table: TableId, key: i64, mode: LockMode) -> Result<RecordId> {
        let row = self
            .state
            .index
            .lookup(table, key)
            .ok_or_else(|| H2Error::UnknownRecord(format!("key {key} in {table} (local)")))?;
        let rid = RecordId::new(self.home(), table, row);
        if self.state.lock_table.acquire(rid, mode, self.token) {
            Ok(rid)
        } else {
            Err(H2Error::TxnAborted(format!("local lock conflict on {rid}")))
        }
    }

    fn acquire_remote(&mut self, target: PartitionId, table: TableId, key: i64, mode: LockMode) -> Result<RecordId> {
        count(&self.state.counters.remote_requests);
        self.state.postbox.send(core_of(target), OltpMsg::LockRequest { txn: self.token, table, key, mode })?;
        let deadline = Instant::now() + self.state.remote_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(H2Error::LockTimeout(format!("no reply for key {key} from {target}")));
            }
            // One wait per message, for as long as the reply may still come.
            let Some(env) = self.state.mailbox.recv_timeout(remaining)? else {
                continue;
            };
            // While waiting for our grant we keep playing the server role so
            // two clients waiting on each other's partitions make progress;
            // a submission that arrives meanwhile joins the backlog.
            if let Some(reply) = self.state.handle_message(env, Some(self.token)) {
                match reply {
                    OltpMsg::LockGrant { rid, .. } => {
                        self.remote.entry(target.0).or_default().push(rid);
                        return Ok(rid);
                    }
                    OltpMsg::LockDenied { unknown_key, .. } => {
                        count(&self.state.counters.remote_denied);
                        return if unknown_key {
                            Err(H2Error::UnknownRecord(format!("key {key} in {table} ({target})")))
                        } else {
                            Err(H2Error::TxnAborted(format!("remote lock conflict on key {key} ({target})")))
                        };
                    }
                    _ => unreachable!("handle_message only returns grant/denied"),
                }
            }
        }
    }

    /// Applies the write and insert sets as one [`Database::commit`],
    /// indexes the inserted keys, releases all locks and notifies remote
    /// owners. Called by the worker after the stored procedure returned
    /// `Ok`. A write set the database rejects (a record that does not fit
    /// its schema) is an error with nothing applied; the locks are released
    /// either way.
    ///
    /// [`Database::commit`]: h2tap_storage::Database::commit
    pub fn commit(mut self) -> Result<()> {
        // Apply deferred writes while every lock is still held. The client
        // accesses remote records directly through shared memory — only lock
        // metadata ever crossed the fabric.
        let home = self.state.home();
        let updates: Vec<_> = self.write_set.iter().map(|(rid, values)| (*rid, values.as_slice())).collect();
        let inserts: Vec<_> =
            self.insert_set.iter().map(|(table, _, values)| (home, *table, values.as_slice())).collect();
        let committed = self.state.db.commit(&updates, &inserts);
        if let Ok(rids) = &committed {
            for ((table, key, _), rid) in self.insert_set.iter().zip(rids) {
                self.state.index.insert(*table, *key, rid.row);
            }
            // Client writes back its dirty lines before releasing anything.
            count(&self.state.counters.writebacks);
        }
        self.finish();
        committed.map(drop)
    }

    /// Discards buffered writes and releases all locks.
    pub fn abort(mut self) {
        self.write_set.clear();
        self.insert_set.clear();
        self.finish();
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.state.lock_table.release_all(self.token);
        for (server, rids) in self.remote.drain() {
            let _ = self.state.postbox.send(core_of(PartitionId(server)), OltpMsg::Release { txn: self.token, rids });
        }
        self.held.clear();
    }
}

impl Drop for TxnCtx<'_> {
    fn drop(&mut self) {
        // Safety net: a context dropped without commit/abort (e.g. the stored
        // procedure panicked) still releases its locks.
        self.finish();
    }
}
