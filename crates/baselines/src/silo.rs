//! A Silo-style main-memory OLTP engine (the paper's OLTP baseline).
//!
//! Silo (Tu et al., SOSP 2013) is a shared-everything engine built on
//! optimistic concurrency control: transactions read record versions
//! optimistically, buffer their writes, and at commit lock their write set,
//! validate that nothing they read has changed, and install new versions
//! stamped with a transaction id. Unlike Caldera it relies on cache-coherent
//! shared memory for its version words and record locks, which is exactly the
//! dependency the paper argues will not survive on emerging hardware.
//!
//! This implementation keeps the parts that matter for Figures 8 and 9 —
//! epoch-based TIDs, read-set validation, write-set locking in a canonical
//! order, abort/retry — and omits durable logging (the paper's experiments
//! run with logging disabled as well).

use h2tap_common::rng::SplitMixRng;
use h2tap_common::stats::throughput;
use h2tap_common::{H2Error, Result, TableId, Value};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock bit stored in the high bit of a record's TID word.
const LOCK_BIT: u64 = 1 << 63;

/// One record: a TID word (version + lock bit) and the current value.
#[derive(Debug)]
pub struct SiloRecord {
    tid: AtomicU64,
    data: RwLock<Vec<Value>>,
}

impl SiloRecord {
    fn new(tid: u64, data: Vec<Value>) -> Self {
        Self { tid: AtomicU64::new(tid), data: RwLock::new(data) }
    }

    /// Reads a consistent (version, value) pair by re-checking the TID word.
    fn stable_read(&self) -> (u64, Vec<Value>) {
        loop {
            let before = self.tid.load(Ordering::Acquire);
            if before & LOCK_BIT != 0 {
                std::hint::spin_loop();
                continue;
            }
            let value = self.data.read().clone();
            let after = self.tid.load(Ordering::Acquire);
            if before == after {
                return (before, value);
            }
        }
    }

    fn try_lock(&self) -> Option<u64> {
        let current = self.tid.load(Ordering::Acquire);
        if current & LOCK_BIT != 0 {
            return None;
        }
        self.tid
            .compare_exchange(current, current | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then_some(current)
    }

    fn unlock(&self, new_tid: Option<u64>) {
        match new_tid {
            Some(tid) => self.tid.store(tid & !LOCK_BIT, Ordering::Release),
            None => {
                let current = self.tid.load(Ordering::Acquire);
                self.tid.store(current & !LOCK_BIT, Ordering::Release);
            }
        }
    }
}

/// One table: a key index plus the record arena.
#[derive(Debug, Default)]
struct SiloTable {
    index: RwLock<HashMap<i64, Arc<SiloRecord>>>,
}

/// The shared-everything Silo database. Its tables are fixed at
/// construction, as in the paper's deployment where the schema is loaded
/// before the measured window: the table map is read-only from then on, so
/// reaching a table takes no lock and only a table's index is ever locked.
#[derive(Debug)]
pub struct SiloDb {
    tables: HashMap<TableId, SiloTable>,
    global_epoch: AtomicU64,
}

impl SiloDb {
    /// Creates an empty database holding `tables`.
    pub fn new(tables: &[TableId]) -> Arc<Self> {
        let tables = tables.iter().map(|&t| (t, SiloTable::default())).collect();
        Arc::new(Self { tables, global_epoch: AtomicU64::new(1) })
    }

    fn table(&self, table: TableId) -> Result<&SiloTable> {
        self.tables.get(&table).ok_or_else(|| H2Error::UnknownTable(table.to_string()))
    }

    /// Loads a record outside of any transaction (bulk loading).
    pub fn load(&self, table: TableId, key: i64, values: Vec<Value>) -> Result<()> {
        self.table(table)?.index.write().insert(key, Arc::new(SiloRecord::new(0, values)));
        Ok(())
    }

    /// Number of records in `table`.
    pub fn table_len(&self, table: TableId) -> usize {
        self.tables.get(&table).map_or(0, |t| t.index.read().len())
    }

    fn record(&self, table: TableId, key: i64) -> Result<Arc<SiloRecord>> {
        let record = self.table(table)?.index.read().get(&key).cloned();
        record.ok_or_else(|| H2Error::UnknownRecord(format!("key {key} in {table}")))
    }
}

/// A transaction running under Silo's OCC protocol.
pub struct SiloTxn {
    db: Arc<SiloDb>,
    read_set: Vec<(Arc<SiloRecord>, u64)>,
    write_set: Vec<(Arc<SiloRecord>, Vec<Value>)>,
    inserts: Vec<(TableId, i64, Vec<Value>)>,
}

impl SiloTxn {
    /// Begins a transaction.
    pub fn begin(db: Arc<SiloDb>) -> Self {
        Self { db, read_set: Vec::new(), write_set: Vec::new(), inserts: Vec::new() }
    }

    /// Reads the record with primary key `key`.
    pub fn read(&mut self, table: TableId, key: i64) -> Result<Vec<Value>> {
        let rec = self.db.record(table, key)?;
        // Read-your-writes.
        if let Some((_, values)) = self.write_set.iter().rev().find(|(r, _)| Arc::ptr_eq(r, &rec)) {
            return Ok(values.clone());
        }
        let (tid, values) = rec.stable_read();
        self.read_set.push((rec, tid));
        Ok(values)
    }

    /// Buffers an overwrite of the record with primary key `key`.
    pub fn write(&mut self, table: TableId, key: i64, values: Vec<Value>) -> Result<()> {
        let rec = self.db.record(table, key)?;
        self.write_set.retain(|(r, _)| !Arc::ptr_eq(r, &rec));
        self.write_set.push((rec, values));
        Ok(())
    }

    /// Buffers an insert.
    pub fn insert(&mut self, table: TableId, key: i64, values: Vec<Value>) {
        self.inserts.push((table, key, values));
    }

    /// Runs Silo's commit protocol: lock write set in canonical order,
    /// validate the read set, reserve the insert keys, install writes with a
    /// fresh TID. It is all or nothing: a transaction that fails any phase
    /// returns `Err` with none of its writes or inserts visible.
    pub fn commit(mut self) -> Result<()> {
        // Phase 1: lock the write set in address order to avoid deadlock.
        self.write_set.sort_by_key(|(rec, _)| Arc::as_ptr(rec) as usize);
        let mut locked: Vec<(Arc<SiloRecord>, u64)> = Vec::with_capacity(self.write_set.len());
        let fail = |locked: &[(Arc<SiloRecord>, u64)], err: H2Error| {
            for (r, _) in locked {
                r.unlock(None);
            }
            Err(err)
        };
        for (rec, _) in &self.write_set {
            match rec.try_lock() {
                Some(tid) => locked.push((Arc::clone(rec), tid)),
                None => return fail(&locked, H2Error::TxnAborted("write-set lock conflict".into())),
            }
        }
        // Phase 2: validate the read set.
        for (rec, seen_tid) in &self.read_set {
            let current = rec.tid.load(Ordering::Acquire);
            let locked_by_us = locked.iter().any(|(r, _)| Arc::ptr_eq(r, rec));
            let locked_by_other = current & LOCK_BIT != 0 && !locked_by_us;
            if (current & !LOCK_BIT) != *seen_tid || locked_by_other {
                return fail(&locked, H2Error::TxnAborted("read-set validation failed".into()));
            }
        }
        // Phase 3: reserve the insert set (simplified from Silo's node-set
        // validation). Each record is made locked before any index is taken:
        // a reader that finds it waits for phase 4. Under the index of every
        // table the set inserts into, taken in table order, each key goes in
        // only if it is new; on a duplicate the keys put in so far come out
        // again before any index is released, so no one sees them. Nothing
        // after this phase fails.
        let inserted: Vec<(TableId, i64, Arc<SiloRecord>)> = self
            .inserts
            .drain(..)
            .map(|(table, key, values)| (table, key, Arc::new(SiloRecord::new(LOCK_BIT, values))))
            .collect();
        let mut tables: Vec<TableId> = inserted.iter().map(|(table, _, _)| *table).collect();
        tables.sort_unstable();
        tables.dedup();
        let mut indexes = Vec::with_capacity(tables.len());
        for &table in &tables {
            match self.db.table(table) {
                Ok(t) => indexes.push(t.index.write()),
                Err(err) => return fail(&locked, err),
            }
        }
        let index_of = |table: TableId| tables.binary_search(&table).expect("every insert's table is in `tables`");
        for (i, (table, key, rec)) in inserted.iter().enumerate() {
            if let Entry::Vacant(slot) = indexes[index_of(*table)].entry(*key) {
                slot.insert(Arc::clone(rec));
                continue;
            }
            for (table, key, _) in &inserted[..i] {
                indexes[index_of(*table)].remove(key);
            }
            return fail(&locked, H2Error::TxnAborted(format!("duplicate key {key} in {table}")));
        }
        drop(indexes);
        // Phase 4: install writes and unlock the inserts with a new TID in
        // the current epoch.
        let epoch = self.db.global_epoch.load(Ordering::Acquire);
        let max_seen = locked.iter().map(|(_, tid)| *tid).max().unwrap_or(0);
        let new_tid = ((epoch << 32) | ((max_seen & 0xFFFF_FFFF) + 1)) & !LOCK_BIT;
        for (rec, values) in self.write_set.drain(..) {
            *rec.data.write() = values;
            rec.unlock(Some(new_tid));
        }
        for (_, _, rec) in inserted {
            rec.unlock(Some(new_tid));
        }
        Ok(())
    }

    /// Discards the transaction.
    pub fn abort(self) {}
}

/// Generator of Silo transactions for benchmark mode.
pub trait SiloGenerator: Send + Sync {
    /// Runs one transaction on `db`; returns `Ok(true)` if it committed,
    /// `Ok(false)` if it aborted and should be counted as such.
    fn run_one(&self, db: &Arc<SiloDb>, worker: usize, seq: u64, rng: &mut SplitMixRng) -> Result<()>;
}

/// Result of a Silo benchmark window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiloWindow {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (after retries).
    pub aborted: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Committed transactions per second.
    pub throughput_tps: f64,
}

/// Multi-threaded Silo benchmark driver.
pub struct SiloRuntime {
    db: Arc<SiloDb>,
    workers: usize,
    max_retries: u32,
    seed: u64,
}

impl SiloRuntime {
    /// Creates a driver with `workers` threads.
    pub fn new(db: Arc<SiloDb>, workers: usize) -> Self {
        Self { db, workers, max_retries: 64, seed: 0xC0FFEE }
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<SiloDb> {
        &self.db
    }

    /// Runs `generator` on all workers until `window` has passed and reports
    /// throughput. Each worker stops at the deadline by itself.
    pub fn run_for(&self, generator: Arc<dyn SiloGenerator>, window: Duration) -> SiloWindow {
        let start = Instant::now();
        let deadline = start + window;
        let (committed, aborted) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers)
                .map(|w| {
                    let (db, generator) = (&self.db, &generator);
                    let mut rng = SplitMixRng::new(self.seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
                    scope.spawn(move || {
                        let (mut committed, mut aborted) = (0u64, 0u64);
                        let mut seq = 0u64;
                        while Instant::now() < deadline {
                            let mut attempts = 0;
                            loop {
                                match generator.run_one(db, w, seq, &mut rng) {
                                    Ok(()) => committed += 1,
                                    Err(H2Error::TxnAborted(_)) if attempts < self.max_retries => {
                                        attempts += 1;
                                        continue;
                                    }
                                    Err(_) => aborted += 1,
                                }
                                break;
                            }
                            seq += 1;
                        }
                        (committed, aborted)
                    })
                })
                .collect();
            workers.into_iter().fold((0, 0), |(c, a), worker| {
                let (wc, wa) = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (c + wc, a + wa)
            })
        });
        let elapsed = start.elapsed();
        SiloWindow { committed, aborted, elapsed, throughput_tps: throughput(committed, elapsed) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(0);

    fn db_with_rows(n: i64) -> Arc<SiloDb> {
        let db = SiloDb::new(&[T]);
        for k in 0..n {
            db.load(T, k, vec![Value::Int64(k), Value::Int64(100)]).unwrap();
        }
        db
    }

    #[test]
    fn read_your_writes_and_commit() {
        let db = db_with_rows(4);
        let mut txn = SiloTxn::begin(Arc::clone(&db));
        let mut rec = txn.read(T, 1).unwrap();
        rec[1] = Value::Int64(500);
        txn.write(T, 1, rec).unwrap();
        assert_eq!(txn.read(T, 1).unwrap()[1], Value::Int64(500));
        txn.commit().unwrap();
        let mut check = SiloTxn::begin(db);
        assert_eq!(check.read(T, 1).unwrap()[1], Value::Int64(500));
    }

    #[test]
    fn stale_read_set_fails_validation() {
        let db = db_with_rows(4);
        let mut t1 = SiloTxn::begin(Arc::clone(&db));
        let _ = t1.read(T, 2).unwrap();
        // A concurrent transaction updates the same record and commits first.
        let mut t2 = SiloTxn::begin(Arc::clone(&db));
        let mut rec = t2.read(T, 2).unwrap();
        rec[1] = Value::Int64(7);
        t2.write(T, 2, rec).unwrap();
        t2.commit().unwrap();
        // t1 now writes something based on its stale read; validation fails.
        t1.write(T, 3, vec![Value::Int64(3), Value::Int64(0)]).unwrap();
        assert!(t1.commit().is_err());
    }

    #[test]
    fn blind_writes_to_distinct_records_do_not_conflict() {
        let db = db_with_rows(4);
        let mut t1 = SiloTxn::begin(Arc::clone(&db));
        let mut t2 = SiloTxn::begin(Arc::clone(&db));
        t1.write(T, 0, vec![Value::Int64(0), Value::Int64(1)]).unwrap();
        t2.write(T, 1, vec![Value::Int64(1), Value::Int64(2)]).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
    }

    /// A transaction whose insert collides writes nothing: its update of key
    /// 1 is not installed when the duplicate insert of key 0 aborts it.
    #[test]
    fn a_duplicate_insert_aborts_the_whole_transaction() {
        let db = db_with_rows(2);
        let mut txn = SiloTxn::begin(Arc::clone(&db));
        txn.write(T, 1, vec![Value::Int64(1), Value::Int64(999)]).unwrap();
        txn.insert(T, 0, vec![Value::Int64(0), Value::Int64(0)]);
        assert!(matches!(txn.commit(), Err(H2Error::TxnAborted(_))));
        let mut check = SiloTxn::begin(Arc::clone(&db));
        assert_eq!(check.read(T, 1).unwrap()[1], Value::Int64(100));
        // The aborted transaction left key 1 unlocked: a later write commits.
        let mut again = SiloTxn::begin(Arc::clone(&db));
        again.write(T, 1, vec![Value::Int64(1), Value::Int64(7)]).unwrap();
        again.commit().unwrap();
        // Two inserts of one new key in one transaction collide as well.
        let mut twice = SiloTxn::begin(Arc::clone(&db));
        twice.insert(T, 5, vec![]);
        twice.insert(T, 5, vec![]);
        assert!(twice.commit().is_err());
        assert_eq!(db.table_len(T), 2);
    }

    #[test]
    fn inserts_are_visible_after_commit() {
        let db = db_with_rows(1);
        let mut txn = SiloTxn::begin(Arc::clone(&db));
        txn.insert(T, 50, vec![Value::Int64(50), Value::Int64(1)]);
        txn.commit().unwrap();
        assert_eq!(db.table_len(T), 2);
        let mut check = SiloTxn::begin(db);
        assert_eq!(check.read(T, 50).unwrap()[0], Value::Int64(50));
    }

    #[test]
    fn unknown_keys_error() {
        let db = db_with_rows(1);
        // Tables are fixed at construction: one not given there is unknown
        // to every access path.
        let unknown = TableId(9);
        assert!(matches!(db.load(unknown, 0, vec![]), Err(H2Error::UnknownTable(_))));
        assert_eq!(db.table_len(unknown), 0);
        let mut txn = SiloTxn::begin(Arc::clone(&db));
        assert!(matches!(txn.read(T, 42), Err(H2Error::UnknownRecord(_))));
        assert!(matches!(txn.read(unknown, 0), Err(H2Error::UnknownTable(_))));
        assert!(matches!(txn.write(unknown, 0, vec![]), Err(H2Error::UnknownTable(_))));
        let mut insert = SiloTxn::begin(db);
        insert.insert(unknown, 0, vec![]);
        assert!(matches!(insert.commit(), Err(H2Error::UnknownTable(_))));
    }

    #[test]
    fn concurrent_increments_preserve_the_sum() {
        struct Incr;
        impl SiloGenerator for Incr {
            fn run_one(&self, db: &Arc<SiloDb>, _w: usize, _s: u64, rng: &mut SplitMixRng) -> Result<()> {
                let key = rng.next_below(8) as i64;
                let mut txn = SiloTxn::begin(Arc::clone(db));
                let mut rec = txn.read(T, key)?;
                rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
                txn.write(T, key, rec)?;
                txn.commit()
            }
        }
        let db = db_with_rows(8);
        let rt = SiloRuntime::new(Arc::clone(&db), 4);
        let window = rt.run_for(Arc::new(Incr), Duration::from_millis(100));
        assert!(window.committed > 0);
        // Sum of balances must equal the initial sum plus committed increments.
        let mut txn = SiloTxn::begin(db);
        let mut sum = 0i64;
        for k in 0..8 {
            sum += txn.read(T, k).unwrap()[1].as_i64().unwrap();
        }
        assert_eq!(sum, 800 + window.committed as i64);
    }
}
