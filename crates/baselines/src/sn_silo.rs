//! Shared-nothing Silo (SN-Silo): one Silo instance per core plus a
//! two-phase-commit layer.
//!
//! The paper's Figure 9 compares Caldera against "SN-Silo", which
//! "represents how one could use current OLTP engines on emerging non-CC
//! multi-cores; the SN-Silo setup uses one instance of Silo per core and a
//! distributed transaction layer to coordinate multi-site transactions using
//! the two-phase commit (2PC) protocol". Single-site transactions run
//! directly against the local instance; multi-site transactions pay remote
//! read round trips plus a prepare round and a commit round, which is exactly
//! the overhead the figure attributes to SN designs.
//!
//! Participants never force a log (the workload is read-only and the paper's
//! setup runs without durability), so the measured cost is pure messaging and
//! blocking — the distributed-transaction overhead of [42] in the paper.

use crate::silo::{SiloDb, SiloTxn};
use crossbeam_channel::{bounded, Receiver, Sender};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::stats::throughput;
use h2tap_common::{H2Error, Result, TableId, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages from a coordinator to a participant instance.
enum ParticipantMsg {
    /// Execute a read on behalf of a distributed transaction.
    Read { table: TableId, key: i64, reply: Sender<Result<Vec<Value>>> },
    /// 2PC phase 1.
    Prepare { reply: Sender<bool> },
    /// 2PC phase 2.
    Commit,
    /// Shut the participant down.
    Shutdown,
}

/// A shared-nothing deployment of Silo: one instance (and one server thread)
/// per partition.
pub struct SnSilo {
    instances: Vec<Arc<SiloDb>>,
    senders: Vec<Sender<ParticipantMsg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    partitions: usize,
}

impl SnSilo {
    /// Creates `partitions` independent Silo instances, each holding
    /// `tables` and served by its own participant thread.
    pub fn new(partitions: usize, tables: &[TableId]) -> Self {
        assert!(partitions > 0);
        let instances: Vec<Arc<SiloDb>> = (0..partitions).map(|_| SiloDb::new(tables)).collect();
        let mut senders = Vec::with_capacity(partitions);
        let mut handles = Vec::with_capacity(partitions);
        for instance in &instances {
            let (tx, rx): (Sender<ParticipantMsg>, Receiver<ParticipantMsg>) = bounded(1024);
            senders.push(tx);
            let db = Arc::clone(instance);
            handles.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ParticipantMsg::Read { table, key, reply } => {
                            let mut txn = SiloTxn::begin(Arc::clone(&db));
                            let result = txn.read(table, key);
                            // Read-only participant work: commit immediately.
                            let _ = txn.commit();
                            let _ = reply.send(result);
                        }
                        ParticipantMsg::Prepare { reply } => {
                            // Read-only vote: always yes (no log force).
                            let _ = reply.send(true);
                        }
                        ParticipantMsg::Commit => {}
                        ParticipantMsg::Shutdown => break,
                    }
                }
            }));
        }
        Self { instances, senders, handles, partitions }
    }

    /// Number of partitions/instances.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The local instance of `partition`.
    pub fn instance(&self, partition: usize) -> &Arc<SiloDb> {
        &self.instances[partition]
    }

    /// Bulk-loads a record into the instance owning `partition`.
    pub fn load(&self, partition: usize, table: TableId, key: i64, values: Vec<Value>) -> Result<()> {
        self.instances[partition].load(table, key, values)
    }

    /// Executes a read-only transaction that reads `local_keys` from the
    /// coordinator's instance and `remote_reads` (partition, key) pairs from
    /// other instances, running 2PC when any remote partition participates.
    pub fn read_transaction(
        &self,
        coordinator: usize,
        table: TableId,
        local_keys: &[i64],
        remote_reads: &[(usize, i64)],
    ) -> Result<u64> {
        let mut checksum = 0u64;
        // Local reads run directly against the local instance.
        let mut local_txn = SiloTxn::begin(Arc::clone(&self.instances[coordinator]));
        for key in local_keys {
            let rec = local_txn.read(table, *key)?;
            checksum = checksum.wrapping_add(rec[0].as_i64().unwrap_or(0) as u64);
        }
        local_txn.commit()?;

        if remote_reads.is_empty() {
            return Ok(checksum);
        }

        // Remote reads: one round trip each.
        let mut participants: Vec<usize> = Vec::new();
        for (partition, key) in remote_reads {
            let (tx, rx) = bounded(1);
            self.senders[*partition]
                .send(ParticipantMsg::Read { table, key: *key, reply: tx })
                .map_err(|_| H2Error::ChannelClosed("participant gone".into()))?;
            let rec = rx.recv().map_err(|_| H2Error::ChannelClosed("participant reply lost".into()))??;
            checksum = checksum.wrapping_add(rec[0].as_i64().unwrap_or(0) as u64);
            if !participants.contains(partition) {
                participants.push(*partition);
            }
        }

        // 2PC: prepare round...
        let mut votes = Vec::new();
        for p in &participants {
            let (tx, rx) = bounded(1);
            self.senders[*p]
                .send(ParticipantMsg::Prepare { reply: tx })
                .map_err(|_| H2Error::ChannelClosed("participant gone".into()))?;
            votes.push(rx);
        }
        for vote in votes {
            let yes = vote.recv().map_err(|_| H2Error::ChannelClosed("vote lost".into()))?;
            if !yes {
                return Err(H2Error::TxnAborted("participant voted no".into()));
            }
        }
        // ...then commit round.
        for p in &participants {
            self.senders[*p]
                .send(ParticipantMsg::Commit)
                .map_err(|_| H2Error::ChannelClosed("participant gone".into()))?;
        }
        Ok(checksum)
    }

    /// Shuts down all participant threads.
    pub fn shutdown(mut self) {
        for tx in &self.senders {
            let _ = tx.send(ParticipantMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Generates the read-only multisite workload of Figure 9 for SN-Silo.
pub trait SnSiloGenerator: Send + Sync {
    /// Runs one transaction hosted on `coordinator`.
    fn run_one(&self, sn: &SnSilo, coordinator: usize, seq: u64, rng: &mut SplitMixRng) -> Result<()>;
}

/// Result of an SN-Silo benchmark window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnSiloWindow {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Committed transactions per second.
    pub throughput_tps: f64,
}

/// Runs `generator` with one coordinator thread per partition until
/// `window` has passed. Each coordinator stops at the deadline by itself.
pub fn run_sn_silo_benchmark(
    sn: &SnSilo,
    generator: Arc<dyn SnSiloGenerator>,
    window: Duration,
    seed: u64,
) -> SnSiloWindow {
    let start = Instant::now();
    let deadline = start + window;
    let (committed, aborted) = std::thread::scope(|scope| {
        let coordinators: Vec<_> = (0..sn.partitions())
            .map(|w| {
                let generator = &generator;
                let mut rng = SplitMixRng::new(seed ^ (w as u64).wrapping_mul(0x517C_C1B7));
                scope.spawn(move || {
                    let (mut committed, mut aborted) = (0u64, 0u64);
                    let mut seq = 0u64;
                    while Instant::now() < deadline {
                        match generator.run_one(sn, w, seq, &mut rng) {
                            Ok(()) => committed += 1,
                            Err(_) => aborted += 1,
                        }
                        seq += 1;
                    }
                    (committed, aborted)
                })
            })
            .collect();
        coordinators.into_iter().fold((0, 0), |(c, a), coordinator| {
            let (wc, wa) = coordinator.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (c + wc, a + wa)
        })
    });
    let elapsed = start.elapsed();
    SnSiloWindow { committed, aborted, elapsed, throughput_tps: throughput(committed, elapsed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(0);

    fn loaded(partitions: usize, rows_per_partition: i64) -> SnSilo {
        let sn = SnSilo::new(partitions, &[T]);
        for p in 0..partitions {
            for k in 0..rows_per_partition {
                let key = p as i64 * 1_000_000 + k;
                sn.load(p, T, key, vec![Value::Int64(key), Value::Int64(0)]).unwrap();
            }
        }
        sn
    }

    #[test]
    fn single_site_transactions_avoid_messaging() {
        let sn = loaded(2, 10);
        let sum = sn.read_transaction(0, T, &[0, 1, 2], &[]).unwrap();
        assert_eq!(sum, (0..3u64).sum::<u64>());
        sn.shutdown();
    }

    #[test]
    fn multi_site_transactions_read_remote_instances() {
        let sn = loaded(3, 10);
        let sum = sn.read_transaction(0, T, &[0, 1], &[(1, 1_000_000), (2, 2_000_005)]).unwrap();
        assert_eq!(sum, 1 + 1_000_000 + 2_000_005);
        sn.shutdown();
    }

    #[test]
    fn unknown_remote_keys_abort() {
        let sn = loaded(2, 4);
        assert!(sn.read_transaction(0, T, &[], &[(1, 77)]).is_err());
        sn.shutdown();
    }

    #[test]
    fn benchmark_driver_counts_commits() {
        struct Gen;
        impl SnSiloGenerator for Gen {
            fn run_one(&self, sn: &SnSilo, coordinator: usize, _seq: u64, rng: &mut SplitMixRng) -> Result<()> {
                let local: Vec<i64> =
                    (0..4).map(|_| coordinator as i64 * 1_000_000 + rng.next_below(10) as i64).collect();
                let remote_p = (coordinator + 1) % sn.partitions();
                let remote = vec![(remote_p, remote_p as i64 * 1_000_000 + rng.next_below(10) as i64)];
                sn.read_transaction(coordinator, TableId(0), &local, &remote).map(|_| ())
            }
        }
        let sn = loaded(2, 10);
        let window = run_sn_silo_benchmark(&sn, Arc::new(Gen), Duration::from_millis(100), 7);
        assert!(window.committed > 0);
        assert_eq!(window.aborted, 0);
        sn.shutdown();
    }
}
