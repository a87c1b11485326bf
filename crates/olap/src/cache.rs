//! The plan-data cache: one shared store of derived analytical state —
//! materialised columns (with their zonemap statistics) and join hash
//! tables — versioned by the snapshot epoch of the frozen table image they
//! were derived from.
//!
//! Every execution site funnels through the same host data path
//! ([`crate::operators`]), and before this cache existed every dispatch
//! re-materialised the accessed columns, re-derived the per-chunk zonemap
//! min/max and re-built the join hash table — even when the next query hit
//! the *same snapshot* of the *same table*. Analytical engines amortise that
//! work over consistent snapshots (columnar scan caching is table stakes in
//! the HTAP literature), and because our sites compute bit-identical answers
//! from the shared data path, they can also share the derived state itself:
//! a hash table built for the GPU site's dispatch is byte-for-byte the one
//! the CPU site would build for the same snapshot.
//!
//! # Keying: lineage and version
//!
//! An entry is identified by its **lineage** — database instance + table +
//! the derivation parameters (accessed column set, or join spec + group
//! column) — and **versioned** by the snapshot epoch of the
//! [`h2tap_storage::SnapshotTableId`] it was derived from. The epoch is
//! bumped on every snapshot and copy-on-write keeps a frozen epoch's pages
//! immutable, so a probe at an entry's own epoch is provably over identical
//! data: a hit.
//!
//! A probe at a **newer** epoch than the lineage's cached version is a miss
//! that *builds from that version as its base* and then replaces it: a
//! snapshot refresh costs the chunks that were written, not the table.
//! [`MaterializedColumns::build`] shares a base's block (cells and zonemap
//! bounds) of every chunk whose pages are all stamped at or before the
//! base's epoch and whose rows did not move; a hash table is carried forward
//! whole — the same `Arc`, filed under the new epoch — when no page of its
//! build table is stamped after the entry's epoch and no partition's row
//! count changed, and rebuilt otherwise. Nothing is dropped when a snapshot
//! is taken; a base stays until a successor of its lineage has been built,
//! so a column set asked for only every other snapshot still finds its base
//! two generations back. A probe at an **older** epoch than every cached
//! version (two snapshots live at once) derives from scratch and is cached
//! alongside. [`PlanDataCache::invalidate`] is a manual reset only.
//!
//! Column sets of one table **lend each other the columns they share**: the
//! bases of a column build are the cached versions, no newer than the probe,
//! of *every* column set of the table, and each column takes the newest base
//! that holds it (one of the probe's own snapshot is the same image and
//! lends everything). A scan over `{a, b, c}` and a join probing `{b, c, d}`
//! therefore hold four columns between them, not six — which is what keeps
//! resident memory level now that a refresh no longer drops the other
//! query's columns.
//!
//! **Soundness.** The reuse rule is `page stamp <= base epoch`, from the
//! stamp contract of [`h2tap_storage::Page::epoch`]: a commit learns the live
//! epoch only under the shared side of the database's live-state lock, and a
//! snapshot bumps the epoch and takes every page segment under the exclusive
//! side, so every page of snapshot `e` is stamped `<= e`, a page written
//! after it carries a stamp `> e`, and stamps never decrease. A segment's
//! newest stamp bounds its pages', so the check passes over a segment not
//! written since the base without reading its pages. The cache does
//! not hold the base snapshot's `Arc<Page>`s to compare pointers: that would
//! pin every superseded shadow copy for up to a whole refresh cycle. Because
//! the rule only needs the base's epoch and its per-partition row counts, a
//! stale snapshot can never be served and no page outlives its snapshot on
//! the cache's account.
//!
//! # Byte budget and LRU eviction
//!
//! An unbounded cache OOMs under many-table workloads, so the cache takes an
//! optional **byte budget** ([`PlanDataCache::with_budget`], wired to
//! `CalderaConfig::olap_plan_cache_budget_bytes`). On every miss the derived
//! entry is *admitted* only if it fits: least-recently-used entries are
//! evicted (across both maps, by a shared access tick) until it does, an
//! entry larger than the whole budget is simply not cached (derive, return,
//! forget — never flush the cache for an entry that cannot fit), and a
//! budget of zero disables caching outright. Entries **pinned by in-flight
//! queries** — anything whose `Arc` a caller still holds — are never
//! evicted; if only pinned entries remain, admission fails and the new
//! entry goes uncached. Occupancy therefore never exceeds the budget (an
//! entry counts its full cell bytes even where it shares blocks with
//! another version, so the figure is an upper bound). Budget evictions count
//! separately from `invalidations` — superseded versions dropped on
//! replacement, and manual resets — and both, plus the reuse counters
//! (`chunks_reused`, `chunks_rebuilt`, `hashes_carried`) and the occupancy
//! gauge, surface through [`PlanCacheStats`].
//!
//! # Shared scans: attaching to an in-flight derivation
//!
//! Under concurrent serving, two queries hitting the same key used to race:
//! both would miss and both would pay the materialisation. The cache now
//! keeps an **in-flight marker** per key while a builder derives (the
//! derivation itself runs *outside* the cache lock), and a concurrent
//! request for the same key *attaches* — it waits on the builder's result
//! slot instead of duplicating the work, counted in
//! `PlanCacheStats::shared_scan_attaches`. The builder hands its `Arc`
//! directly to the waiters through the slot, so sharing works even when the
//! byte budget declines to cache the entry. A builder that fails (error or
//! panic) publishes a `None` slot and removes its marker, and one of the
//! waiters becomes the next builder — waiters can never hang on a dead
//! build.

use crate::operators::{self, JoinHashTable, MaterializedColumns, PlanData};
use h2tap_common::{Epoch, JoinSpec, OlapPlan, PlanCacheStats, Result, TableId};
use h2tap_obs::{SpanEvent, SpanKind, Tracer};
use h2tap_storage::{SnapshotTable, SnapshotTableId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, MutexGuard, OnceLock, PoisonError};

/// Lineage of one materialised column set: the table it comes from plus the
/// (sorted, deduplicated) accessed columns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ColumnSet {
    source: u64,
    table: TableId,
    cols: Vec<usize>,
}

/// Lineage of one join hash table: the build table plus every parameter of
/// the build — the join key, the carried group column and the build
/// predicates (bounds keyed by bit pattern: f64 is not `Eq`, but two
/// predicates with bit-equal bounds filter identically).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct HashSpec {
    source: u64,
    table: TableId,
    build_key: usize,
    group_col: Option<usize>,
    predicates: Vec<(usize, u64, u64)>,
}

impl HashSpec {
    fn new(id: SnapshotTableId, join: &JoinSpec, group_col: Option<usize>) -> Self {
        Self {
            source: id.source,
            table: id.table,
            build_key: join.build_key,
            group_col,
            predicates: join.build_predicates.iter().map(|p| (p.column, p.lo.to_bits(), p.hi.to_bits())).collect(),
        }
    }
}

/// One cached derivation: the shared value, its byte footprint (fixed at
/// admission) and the access tick of its most recent use.
#[derive(Debug)]
struct Entry<T> {
    value: Arc<T>,
    bytes: u64,
    last_used: u64,
}

/// The published result of one in-flight derivation: `Some` on success,
/// `None` when the builder failed (its waiters retry, and the first to
/// re-probe becomes the next builder). Set exactly once, always before the
/// in-flight marker is removed, so a woken waiter observes the outcome.
type BuildSlot<T> = OnceLock<Option<Arc<T>>>;

/// The finished versions and in-flight builds of one kind of derivation,
/// keyed by lineage and snapshot epoch.
#[derive(Debug)]
struct Family<L, T> {
    entries: BTreeMap<(L, Epoch), Entry<T>>,
    /// A marker lives here from the moment a builder claims the key until
    /// its result slot is published, and concurrent requests for the key
    /// attach to it (shared scan).
    building: BTreeMap<(L, Epoch), Arc<BuildSlot<T>>>,
}

impl<L, T> Default for Family<L, T> {
    fn default() -> Self {
        Self { entries: BTreeMap::new(), building: BTreeMap::new() }
    }
}

/// Projects the cache state onto one family and that family's hit and miss
/// counters.
type Project<L, T> = fn(&mut CacheInner) -> (&mut Family<L, T>, &mut u64, &mut u64);

impl ColumnSet {
    /// Any column set of the same table can lend a column it shares.
    fn lends_to(&self, other: &Self) -> bool {
        (self.source, self.table) == (other.source, other.table)
    }
}

fn columns_of(inner: &mut CacheInner) -> (&mut Family<ColumnSet, MaterializedColumns>, &mut u64, &mut u64) {
    (&mut inner.columns, &mut inner.stats.column_hits, &mut inner.stats.column_misses)
}

fn hashes_of(inner: &mut CacheInner) -> (&mut Family<HashSpec, JoinHashTable>, &mut u64, &mut u64) {
    (&mut inner.hashes, &mut inner.stats.hash_hits, &mut inner.stats.hash_misses)
}

/// What one derivation hands back to [`PlanDataCache::versioned`].
struct Derived<T> {
    value: Arc<T>,
    /// Footprint charged against the byte budget.
    bytes: u64,
    chunks_reused: u64,
    chunks_rebuilt: u64,
    /// The value is the predecessor's, carried forward unchanged.
    carried: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    columns: Family<ColumnSet, MaterializedColumns>,
    hashes: Family<HashSpec, JoinHashTable>,
    stats: PlanCacheStats,
    /// Byte budget (`None` = unbounded, `Some(0)` = caching disabled).
    budget: Option<u64>,
    /// Monotonic access counter ordering uses across both maps for LRU.
    tick: u64,
}

impl CacheInner {
    /// Bumps and returns the access tick.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Bytes currently held across both maps.
    fn occupancy(&self) -> u64 {
        self.columns.entries.values().map(|e| e.bytes).sum::<u64>()
            + self.hashes.entries.values().map(|e| e.bytes).sum::<u64>()
    }

    /// Decides whether an entry of `bytes` may be cached, evicting
    /// least-recently-used **unpinned** entries until it fits. An entry is
    /// pinned exactly while some caller still holds its `Arc`
    /// (`strong_count > 1` — the cache holds the other reference), which is
    /// what protects the currently-executing query's data: a prepared
    /// plan's hash table stays resident while its columns are admitted, and
    /// no eviction can free memory a query is still reading. Returns
    /// `false` — derive but don't cache — when the entry can never fit or
    /// only pinned entries remain.
    fn admit(&mut self, bytes: u64) -> bool {
        let Some(budget) = self.budget else { return true };
        if bytes > budget {
            // Evicting everything still wouldn't make room: don't flush a
            // working set for an entry that cannot be cached anyway.
            return false;
        }
        while self.occupancy() + bytes > budget {
            let col_victim = self
                .columns
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.value) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            let hash_victim = self
                .hashes
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.value) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            match (col_victim, hash_victim) {
                (Some((ck, ct)), Some((_, ht))) if ct <= ht => drop(self.columns.entries.remove(&ck)),
                (_, Some((hk, _))) => drop(self.hashes.entries.remove(&hk)),
                (Some((ck, _)), None) => drop(self.columns.entries.remove(&ck)),
                (None, None) => return false,
            }
            self.stats.evictions += 1;
        }
        true
    }
}

/// The state behind the cache handle: the entry maps under one mutex plus
/// the condvar shared-scan waiters park on until a builder publishes.
#[derive(Debug, Default)]
struct Shared {
    inner: Mutex<CacheInner>,
    /// Notified (all) whenever an in-flight derivation completes — with a
    /// value or with a failure — so attached waiters re-check their slot.
    ready: Condvar,
}

/// `Condvar::wait` with the workspace poison-recovery convention (the
/// vendored `parking_lot` guards are std guards underneath).
fn wait_ready<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Builder-side completion guard: when the builder finishes — by returning
/// a value, returning an error, or panicking — this publishes the slot
/// (`None` if the builder never set it), removes the in-flight marker and
/// wakes every attached waiter. Drop-driven so waiters can never hang on a
/// build that died.
struct FinishBuild<'a, L: Ord, T> {
    shared: &'a Shared,
    slot: &'a BuildSlot<T>,
    project: Project<L, T>,
    key: &'a (L, Epoch),
}

impl<L: Ord, T> Drop for FinishBuild<'_, L, T> {
    fn drop(&mut self) {
        self.slot.get_or_init(|| None);
        let mut inner = self.shared.inner.lock();
        (self.project)(&mut inner).0.building.remove(self.key);
        drop(inner);
        self.shared.ready.notify_all();
    }
}

/// The shared plan-data cache. Cheap to clone (`Arc` inside); the engine
/// builder hands one instance to all execution sites so queries share
/// derived state across sites as well as across time.
#[derive(Debug, Clone, Default)]
pub struct PlanDataCache {
    shared: Arc<Shared>,
    /// This handle's trace sink: probes emit `cache_lookup` spans, misses
    /// emit the `materialise` / `hash_build` span of the derivation they
    /// paid. Disabled (one relaxed load per probe) unless the handle was
    /// given to a site built into an engine ([`PlanDataCache::traced`]).
    tracer: Tracer,
}

impl PlanDataCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with a byte budget: `None` is unbounded, `Some(0)`
    /// disables caching (every request re-derives), any other value bounds
    /// occupancy by LRU eviction (see the module doc).
    pub fn with_budget(budget: Option<u64>) -> Self {
        let cache = Self::default();
        cache.shared.inner.lock().budget = budget;
        cache
    }

    /// This handle, recording its spans into `tracer` — how an execution
    /// site built into an engine holds the engine's shared cache.
    pub(crate) fn traced(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// A span event stamped with a frozen table's identity.
    fn span(kind: SpanKind, id: SnapshotTableId) -> SpanEvent {
        SpanEvent::new(kind).table(u64::from(id.table.0)).epoch(id.epoch.0)
    }

    /// The one probe routine behind both families. A probe at a cached
    /// version is a hit; a probe whose key is being derived attaches to that
    /// build; any other probe claims the key and runs `derive` **outside the
    /// lock** with its bases: the cached versions, no newer than the probe,
    /// of every lineage that `lends_to` the probed one, newest first. The
    /// derived version then replaces every older version of its own lineage
    /// and is cached if the budget admits it.
    fn versioned<L: Ord + Clone, T>(
        &self,
        project: Project<L, T>,
        id: SnapshotTableId,
        lineage: L,
        lends_to: fn(&L, &L) -> bool,
        derive: impl FnOnce(&Tracer, &L, Vec<(Epoch, Arc<T>)>) -> Result<Derived<T>>,
    ) -> Result<Arc<T>> {
        let key = (lineage, id.epoch);
        let tracer = &self.tracer;
        let mut attached = false;
        loop {
            let mut inner = self.shared.inner.lock();
            let lookup = tracer.start();
            let now = inner.touch();
            let (family, hits, misses) = project(&mut inner);
            if let Some(hit) = family.entries.get_mut(&key) {
                hit.last_used = now;
                *hits += 1;
                tracer.record_wall(Self::span(SpanKind::CacheLookup, id).hit(true), lookup);
                return Ok(Arc::clone(&hit.value));
            }
            if let Some(slot) = family.building.get(&key).map(Arc::clone) {
                // Shared scan: the same derivation is already in flight on
                // another thread — attach and wait for its result instead
                // of racing to build a duplicate.
                if !attached {
                    attached = true;
                    inner.stats.shared_scan_attaches += 1;
                }
                while slot.get().is_none() {
                    inner = wait_ready(&self.shared.ready, inner);
                }
                drop(inner);
                if let Some(value) = slot.get().and_then(Clone::clone) {
                    return Ok(value);
                }
                continue; // the builder failed; re-probe (maybe as builder)
            }
            // Become the builder: claim the key, then derive OUTSIDE the
            // lock so concurrent requests on other keys keep flowing. The
            // bases are pinned by the `Arc`s taken here, so the budget
            // cannot evict them mid-build.
            *misses += 1;
            let mut bases: Vec<(Epoch, Arc<T>)> = family
                .entries
                .iter()
                .filter(|((lender, epoch), _)| *epoch <= key.1 && lends_to(lender, &key.0))
                .map(|((_, epoch), entry)| (*epoch, Arc::clone(&entry.value)))
                .collect();
            bases.sort_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));
            let slot: Arc<BuildSlot<T>> = Arc::new(OnceLock::new());
            family.building.insert(key.clone(), Arc::clone(&slot));
            tracer.record_wall(Self::span(SpanKind::CacheLookup, id).hit(false), lookup);
            drop(inner);
            let finish = FinishBuild { shared: &self.shared, slot: &slot, project, key: &key };
            let derived = derive(tracer, &key.0, bases)?;
            // Set once: a racing builder that published first published
            // the identical build.
            slot.get_or_init(|| Some(Arc::clone(&derived.value)));
            let mut inner = self.shared.inner.lock();
            inner.stats.chunks_reused += derived.chunks_reused;
            inner.stats.chunks_rebuilt += derived.chunks_rebuilt;
            inner.stats.hashes_carried += u64::from(derived.carried);
            // Replace: this version supersedes every older one of its
            // lineage (a carried value simply moves to the new key).
            let entries = &mut project(&mut inner).0.entries;
            let before = entries.len();
            entries.retain(|(lineage, epoch), _| !(*lineage == key.0 && *epoch < key.1));
            let superseded = before - entries.len();
            inner.stats.invalidations += superseded as u64;
            if inner.admit(derived.bytes) {
                let entry = Entry { value: Arc::clone(&derived.value), bytes: derived.bytes, last_used: now };
                project(&mut inner).0.entries.insert(key.clone(), entry);
            }
            drop(inner);
            drop(finish);
            return Ok(derived.value);
        }
    }

    /// The materialised columns (with zonemap statistics) of `cols` of the
    /// frozen `table`: shared if a query — on any site — already derived
    /// them for this snapshot epoch; otherwise built, from the version cached
    /// for an older snapshot where there is one (only the chunks written
    /// since are gathered), and cached if the budget admits it.
    pub fn materialized(&self, table: &SnapshotTable, mut cols: Vec<usize>) -> Result<Arc<MaterializedColumns>> {
        cols.sort_unstable();
        cols.dedup();
        let id = table.identity;
        let lineage = ColumnSet { source: id.source, table: id.table, cols };
        self.versioned(columns_of, id, lineage, ColumnSet::lends_to, |tracer, set, bases| {
            let started = tracer.start();
            let bases: Vec<&MaterializedColumns> = bases.iter().map(|(_, mat)| &**mat).collect();
            let mat = MaterializedColumns::build(table, set.cols.clone(), &bases)?;
            let work = mat.work();
            tracer.record_wall(Self::span(SpanKind::Materialise, id).bytes(work.bytes_gathered), started);
            Ok(Derived {
                bytes: mat.cell_bytes(),
                value: Arc::new(mat),
                chunks_reused: work.chunks_reused,
                chunks_rebuilt: work.chunks_rebuilt,
                carried: false,
            })
        })
    }

    /// The join hash table of `join` (carrying `group_col` payloads) over
    /// the frozen `build` table: shared across queries and sites for this
    /// snapshot epoch; otherwise carried forward from the version cached for
    /// an older snapshot when the build table has not been written since,
    /// or built; cached if the budget admits it. Build errors (duplicate
    /// PK-join keys) are never cached.
    pub fn hash_table(
        &self,
        build: &SnapshotTable,
        join: &JoinSpec,
        group_col: Option<usize>,
    ) -> Result<Arc<JoinHashTable>> {
        let id = build.identity;
        self.versioned(hashes_of, id, HashSpec::new(id, join, group_col), HashSpec::eq, |tracer, _, bases| {
            let started = tracer.start();
            let newest = bases.into_iter().next();
            let carried = newest.filter(|(built_at, hash)| hash.still_describes(build, *built_at));
            let (value, built_bytes) = match &carried {
                Some((_, hash)) => (Arc::clone(hash), 0),
                None => {
                    let hash = Arc::new(operators::build_hash_table(build, join, group_col)?);
                    let bytes = hash.footprint_bytes();
                    (hash, bytes)
                }
            };
            tracer.record_wall(Self::span(SpanKind::HashBuild, id).bytes(built_bytes), started);
            Ok(Derived {
                bytes: value.footprint_bytes(),
                value,
                chunks_reused: 0,
                chunks_rebuilt: 0,
                carried: carried.is_some(),
            })
        })
    }

    /// The shared preamble of plan execution: validates the plan against
    /// its tables ([`operators::check_plan_tables`]), then derives — or
    /// shares through the cache — the join hash table of the filtered build
    /// side and the materialised probe columns. Every site calls this, so
    /// their data paths, and their error behaviour on malformed or empty
    /// inputs, cannot drift apart; what remains site-specific is how the
    /// chunks are scheduled and what the pipeline is charged.
    pub fn prepare_plan(
        &self,
        probe_table: &SnapshotTable,
        build_table: Option<&SnapshotTable>,
        plan: &OlapPlan,
    ) -> Result<PlanData> {
        let build_group_col = operators::check_plan_tables(probe_table, build_table, plan)?;
        let hash = match (&plan.join, build_table) {
            (Some(join), Some(build)) => Some(self.hash_table(build, join, build_group_col)?),
            _ => None,
        };
        let mat = self.materialized(probe_table, plan.probe_columns_accessed())?;
        Ok(PlanData { mat, hash })
    }

    /// Drops every entry — a manual reset; nothing in the engine calls it,
    /// a snapshot refresh included. Counts the dropped entries as
    /// invalidations.
    pub fn invalidate(&self) {
        let mut inner = self.shared.inner.lock();
        let dropped = (inner.columns.entries.len() + inner.hashes.entries.len()) as u64;
        inner.stats.invalidations += dropped;
        inner.columns.entries.clear();
        inner.hashes.entries.clear();
        // In-flight markers stay: their builders own them and will remove
        // them (the derived entry lands under its own key as usual).
    }

    /// Current hit/miss/invalidation/eviction/reuse counters, with the
    /// occupancy gauge and the configured budget sampled at call time.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.shared.inner.lock();
        let mut stats = inner.stats;
        stats.occupancy_bytes = inner.occupancy();
        stats.budget_bytes = inner.budget;
        stats
    }

    /// Live entries (materialised column sets + hash tables).
    pub fn entries(&self) -> usize {
        let inner = self.shared.inner.lock();
        inner.columns.entries.len() + inner.hashes.entries.len()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "`eventually` naps between polls of another thread's progress, for two seconds at most"
)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, Schema, Value};
    use h2tap_storage::{Database, Layout};
    use std::sync::Arc as StdArc;

    fn db_with_rows(rows: i64) -> (StdArc<Database>, h2tap_common::TableId) {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..rows {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(2 * i)]).unwrap();
        }
        (db, t)
    }

    #[test]
    fn repeated_materialisations_hit() {
        let (db, t) = db_with_rows(1_000);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let a = cache.materialized(frozen, vec![0, 1]).unwrap();
        let b = cache.materialized(frozen, vec![1, 0, 1]).unwrap();
        assert!(StdArc::ptr_eq(&a, &b), "same snapshot, same (normalised) columns: same instance");
        let stats = cache.stats();
        assert_eq!((stats.column_hits, stats.column_misses), (1, 1));
        assert_eq!(stats.hit_rate(), Some(0.5));
        // A different column set is a different derivation.
        let c = cache.materialized(frozen, vec![0]).unwrap();
        assert!(!StdArc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().column_misses, 2);
        assert!(cache.stats().occupancy_bytes > 0);
    }

    #[test]
    fn a_new_epoch_is_never_served_stale_data() {
        let (db, t) = db_with_rows(100);
        let s1 = db.snapshot();
        let cache = PlanDataCache::new();
        let old = cache.materialized(s1.table(t).unwrap(), vec![1]).unwrap();
        // Update a row, take a new snapshot: same table id, new epoch.
        let rid = h2tap_common::RecordId::new(PartitionId(0), t, 0);
        db.update(rid, &[Value::Int64(0), Value::Int64(999)]).unwrap();
        let s2 = db.snapshot();
        let fresh = cache.materialized(s2.table(t).unwrap(), vec![1]).unwrap();
        assert!(!StdArc::ptr_eq(&old, &fresh), "the stale materialisation must not be served");
        let sum = |mat: &MaterializedColumns, query: &h2tap_common::ScanAggQuery| {
            operators::merge_scan_partials(
                (0..mat.chunk_count()).map(|i| operators::scan_chunk(mat, query, mat.chunk_range(i))),
            )
            .0
        };
        let q = h2tap_common::ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        assert_eq!(sum(&old, &q), (0..100).map(|i| 2.0 * i as f64).sum::<f64>());
        assert_eq!(sum(&fresh, &q), sum(&old, &q) - 0.0 + 999.0, "fresh epoch sees the update");
        // The fresh version was built from the stale one as its base — the
        // written chunk gathered again, nothing shared — and replaced it.
        let stats = cache.stats();
        assert_eq!((stats.column_hits, stats.column_misses), (0, 2));
        assert_eq!((stats.chunks_rebuilt, stats.chunks_reused), (2, 0), "one chunk per build, the second one dirty");
        assert_eq!(stats.invalidations, 1, "the base was dropped when its successor landed");
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn hash_tables_are_shared_and_keyed_by_spec() {
        let (db, t) = db_with_rows(50);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(1, 0.0, 40.0)] };
        let a = cache.hash_table(frozen, &join, None).unwrap();
        let b = cache.hash_table(frozen, &join, None).unwrap();
        assert!(StdArc::ptr_eq(&a, &b));
        // A different predicate bound (or group column) is a different build.
        let narrower = JoinSpec { build_predicates: vec![Predicate::between(1, 0.0, 10.0)], ..join.clone() };
        let c = cache.hash_table(frozen, &narrower, None).unwrap();
        assert!(!StdArc::ptr_eq(&a, &c));
        let d = cache.hash_table(frozen, &join, Some(1)).unwrap();
        assert!(!StdArc::ptr_eq(&a, &d));
        let stats = cache.stats();
        assert_eq!((stats.hash_hits, stats.hash_misses), (1, 3));
    }

    #[test]
    fn alternating_live_snapshots_converge_to_both_cached() {
        // Two snapshots of the same table can be live at once; a caller
        // alternating between them must not thrash the cache. The first
        // access at the newer epoch builds from the older version and
        // replaces it; the older snapshot then re-derives from scratch and
        // is cached alongside (a version only supersedes *older* ones).
        let (db, t) = db_with_rows(200);
        let s1 = db.snapshot();
        let s2 = db.snapshot();
        let cache = PlanDataCache::new();
        cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap(); // miss (e1)
        cache.materialized(s2.table(t).unwrap(), vec![0]).unwrap(); // miss (e2), replaces e1
        let again_old = cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap(); // miss, re-derives e1
        let stats = cache.stats();
        assert_eq!(stats.column_misses, 3);
        assert_eq!(stats.invalidations, 1, "e2 replaced e1 exactly once");
        // From here on both generations hit.
        let old_hit = cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap();
        let new_hit = cache.materialized(s2.table(t).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&again_old, &old_hit));
        assert!(!StdArc::ptr_eq(&old_hit, &new_hit));
        let stats = cache.stats();
        assert_eq!(stats.column_hits, 2);
        assert_eq!(stats.invalidations, 1, "nothing is dropped without a newer version");
        assert_eq!(cache.entries(), 2, "both live generations stay cached");
    }

    const CHUNK: i64 = h2tap_common::PLAN_CHUNK_ROWS as i64;

    fn update_row(db: &Database, t: h2tap_common::TableId, row: i64, value: i64) {
        let rid = h2tap_common::RecordId::new(PartitionId(0), t, row as u64);
        db.update(rid, &[Value::Int64(row), Value::Int64(value)]).unwrap();
    }

    #[test]
    fn a_refresh_gathers_only_the_chunks_that_were_written() {
        let (db, t) = db_with_rows(3 * CHUNK + 100); // four chunks
        let cache = PlanDataCache::new();
        let s1 = db.snapshot();
        let old = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
        update_row(&db, t, CHUNK + 5, -1); // chunk 1 only
        let s2 = db.snapshot();
        let frozen = s2.table(t).unwrap();
        let fresh = cache.materialized(frozen, vec![0, 1]).unwrap();
        fresh.assert_same_bytes(&MaterializedColumns::new(frozen, vec![0, 1]).unwrap(), "incremental vs scratch");
        for col in 0..2 {
            for chunk in 0..4 {
                assert_eq!(fresh.shares_block(&old, col, chunk), chunk != 1, "column {col} chunk {chunk}");
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.column_hits, stats.column_misses), (0, 2), "a versioned rebuild is one miss");
        assert_eq!(stats.chunks_rebuilt, 8 + 2, "the first build gathers everything, the second one chunk per column");
        assert_eq!(stats.chunks_reused, 6);
        assert_eq!((stats.invalidations, cache.entries()), (1, 1), "the base was replaced, not kept alongside");
        assert_eq!(cache.stats().occupancy_bytes, fresh.cell_bytes());
    }

    #[test]
    fn an_insert_dirties_everything_behind_the_partition_it_lands_in() {
        // Two partitions of 1.5 chunks each: storage order is partition 0
        // then partition 1, so an insert into partition 0 moves every row of
        // partition 1 — and the chunk the insert lands in — while the chunk
        // before it stays put.
        let db = Database::new(2);
        let t = db.create_table("t", Schema::homogeneous("c", 1, AttrType::Int64), Layout::Dsm).unwrap();
        for p in 0..2 {
            for i in 0..CHUNK + CHUNK / 2 {
                db.insert(PartitionId(p), t, &[Value::Int64(i)]).unwrap();
            }
        }
        let cache = PlanDataCache::new();
        let s1 = db.snapshot();
        let old = cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap();
        db.insert(PartitionId(0), t, &[Value::Int64(-7)]).unwrap();
        let s2 = db.snapshot();
        let frozen = s2.table(t).unwrap();
        let fresh = cache.materialized(frozen, vec![0]).unwrap();
        fresh.assert_same_bytes(&MaterializedColumns::new(frozen, vec![0]).unwrap(), "after an insert");
        assert_eq!(fresh.rows(), old.rows() + 1);
        assert!(fresh.shares_block(&old, 0, 0), "the chunk before the insert did not move");
        assert!(!fresh.shares_block(&old, 0, 1) && !fresh.shares_block(&old, 0, 2), "everything behind it did");
        // An insert into the *last* partition moves nothing before it.
        db.insert(PartitionId(1), t, &[Value::Int64(-8)]).unwrap();
        let s3 = db.snapshot();
        let frozen = s3.table(t).unwrap();
        let newest = cache.materialized(frozen, vec![0]).unwrap();
        newest.assert_same_bytes(&MaterializedColumns::new(frozen, vec![0]).unwrap(), "after a trailing insert");
        assert!((0..3).all(|chunk| newest.shares_block(&fresh, 0, chunk)));
        assert!(!newest.shares_block(&fresh, 0, 3), "the last chunk grew");
    }

    #[test]
    fn column_sets_of_one_table_share_the_columns_they_have_in_common() {
        let (db, t) = db_with_rows(CHUNK + 10); // two chunks
        let cache = PlanDataCache::new();
        let s1 = db.snapshot();
        let both = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
        // Same snapshot, another set: column 1 comes from the cached set.
        let one = cache.materialized(s1.table(t).unwrap(), vec![1]).unwrap();
        assert!((0..2).all(|chunk| one.shares_block(&both, 1, chunk)));
        assert_eq!(cache.stats().chunks_reused, 2);
        assert_eq!(cache.entries(), 2, "a set never supersedes another set");
        // Only `[1]` is asked for at the next snapshot; `[0, 1]` finds it —
        // and its own older version for column 0 — a generation later.
        update_row(&db, t, 3, -3); // chunk 0
        let s2 = db.snapshot();
        cache.materialized(s2.table(t).unwrap(), vec![1]).unwrap();
        let s3 = db.snapshot();
        let frozen = s3.table(t).unwrap();
        let before = cache.stats();
        let later = cache.materialized(frozen, vec![0, 1]).unwrap();
        later.assert_same_bytes(&MaterializedColumns::new(frozen, vec![0, 1]).unwrap(), "two generations on");
        let after = cache.stats();
        assert_eq!(
            after.chunks_rebuilt - before.chunks_rebuilt,
            1,
            "column 0 of the written chunk, from its base two back"
        );
        assert_eq!(after.chunks_reused - before.chunks_reused, 3);
    }

    #[test]
    fn a_hash_table_is_carried_forward_until_its_build_table_is_written() {
        let (db, t) = db_with_rows(500);
        let other = db.create_table("other", Schema::homogeneous("o", 1, AttrType::Int64), Layout::Dsm).unwrap();
        db.insert(PartitionId(0), other, &[Value::Int64(0)]).unwrap();
        let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] };
        let cache = PlanDataCache::new();
        let s1 = db.snapshot();
        let first = cache.hash_table(s1.table(t).unwrap(), &join, None).unwrap();
        // A write to another table leaves this one's pages alone.
        let rid = h2tap_common::RecordId::new(PartitionId(0), other, 0);
        db.update(rid, &[Value::Int64(9)]).unwrap();
        let s2 = db.snapshot();
        let carried = cache.hash_table(s2.table(t).unwrap(), &join, None).unwrap();
        assert!(StdArc::ptr_eq(&first, &carried), "unchanged build table: the same table, filed under the new epoch");
        let stats = cache.stats();
        assert_eq!((stats.hash_hits, stats.hash_misses, stats.hashes_carried), (0, 2, 1));
        assert_eq!((stats.invalidations, cache.entries()), (1, 1));
        assert!(StdArc::ptr_eq(&carried, &cache.hash_table(s2.table(t).unwrap(), &join, None).unwrap()));
        // An update of the build table, then an insert: rebuilt both times.
        update_row(&db, t, 7, 1_000_007);
        let s3 = db.snapshot();
        let rebuilt = cache.hash_table(s3.table(t).unwrap(), &join, None).unwrap();
        assert!(!StdArc::ptr_eq(&carried, &rebuilt));
        assert_eq!(rebuilt.entries(), 500);
        db.insert(PartitionId(0), t, &[Value::Int64(500), Value::Int64(1_000)]).unwrap();
        let s4 = db.snapshot();
        let grown = cache.hash_table(s4.table(t).unwrap(), &join, None).unwrap();
        assert_eq!(grown.entries(), 501);
        assert_eq!(cache.stats().hashes_carried, 1);
        assert_eq!(cache.entries(), 1);
    }

    /// Generated: layouts x partition counts x write schedules x snapshot
    /// chains x column sets x budgets. Whatever the cache (or a direct
    /// `build` from an older image) returns must hold the same bytes as a
    /// from-scratch build of the same snapshot.
    #[test]
    fn incremental_builds_hold_the_bytes_of_a_build_from_scratch() {
        use h2tap_common::rng::SplitMixRng;
        use h2tap_common::Attribute;
        const ALL: [usize; 4] = [0, 1, 2, 3];
        fn record(rng: &mut SplitMixRng) -> Vec<Value> {
            let float = |rng: &mut SplitMixRng| match rng.next_below(8) {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => f64::NEG_INFINITY,
                _ => rng.next_f64() * 2_000.0 - 1_000.0,
            };
            vec![
                Value::Int64(rng.next_u64() as i64 >> 20),
                Value::Float64(float(rng)),
                Value::Int32(rng.next_u64() as i32),
                Value::Float64(float(rng)),
            ]
        }
        let schema = || {
            Schema::new(vec![
                Attribute::new("a", AttrType::Int64),
                Attribute::new("b", AttrType::Float64),
                Attribute::new("c", AttrType::Int32),
                Attribute::new("d", AttrType::Float64),
            ])
            .unwrap()
        };
        for (case, layout) in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX].into_iter().cycle().take(9).enumerate() {
            let mut rng = SplitMixRng::new(0xC0FFEE + case as u64);
            let partitions = 1 + rng.next_below(3) as u32;
            let db = Database::new(partitions as usize);
            let t = db.create_table("t", schema(), layout).unwrap();
            let mut rows = vec![0u64; partitions as usize];
            for (p, count) in rows.iter_mut().enumerate() {
                // From empty partitions to a chunk and a half.
                *count = [0, 1, 700, CHUNK as u64 - 1, CHUNK as u64 + CHUNK as u64 / 2][rng.next_below(5) as usize];
                for _ in 0..*count {
                    db.insert(PartitionId(p as u32), t, &record(&mut rng)).unwrap();
                }
            }
            let unbounded = PlanDataCache::new();
            let caches = [&unbounded, &PlanDataCache::with_budget(Some(0)), &PlanDataCache::with_budget(Some(4_096))];
            let label = |what: &str, step: usize| {
                format!("case {case} ({layout:?}, {partitions} partitions), step {step}: {what}")
            };
            let mut chain: Vec<(StdArc<h2tap_storage::Snapshot>, MaterializedColumns)> = Vec::new();
            for step in 0..6 {
                // Nothing, clustered updates, scattered updates, or inserts
                // (which shift every partition behind the one they land in).
                let partition = rng.next_below(u64::from(partitions)) as usize;
                match rng.next_below(4) {
                    0 => {}
                    kind @ (1 | 2) if rows[partition] > 0 => {
                        let window = if kind == 1 { rows[partition].min(300) } else { rows[partition] };
                        let first = rng.next_below(rows[partition] - window + 1);
                        for _ in 0..1 + rng.next_below(40) {
                            let rid = h2tap_common::RecordId::new(
                                PartitionId(partition as u32),
                                t,
                                first + rng.next_below(window),
                            );
                            db.update(rid, &record(&mut rng)).unwrap();
                        }
                    }
                    _ => {
                        for _ in 0..1 + rng.next_below(3_000) {
                            db.insert(PartitionId(partition as u32), t, &record(&mut rng)).unwrap();
                            rows[partition] += 1;
                        }
                    }
                }
                let snapshot = db.snapshot();
                let frozen = snapshot.table(t).unwrap();
                let scratch = MaterializedColumns::new(frozen, ALL.to_vec()).unwrap();
                // Through each cache, for a few column sets (the empty one too).
                for _ in 0..3 {
                    let cols: Vec<usize> = ALL.into_iter().filter(|_| rng.next_below(2) == 0).collect();
                    let want = MaterializedColumns::new(frozen, cols.clone()).unwrap();
                    for cache in caches {
                        cache
                            .materialized(frozen, cols.clone())
                            .unwrap()
                            .assert_same_bytes(&want, &label("cached", step));
                    }
                }
                // Directly, from every older image at once and from the one
                // two generations back alone.
                let older: Vec<&MaterializedColumns> = chain.iter().map(|(_, mat)| mat).collect();
                let built = MaterializedColumns::build(frozen, ALL.to_vec(), &older).unwrap();
                built.assert_same_bytes(&scratch, &label("from every older image", step));
                if let Some((_, base)) = chain.len().checked_sub(2).map(|i| &chain[i]) {
                    let built = MaterializedColumns::build(frozen, ALL.to_vec(), &[base]).unwrap();
                    built.assert_same_bytes(&scratch, &label("from two generations back", step));
                }
                chain.push((snapshot, scratch));
            }
            // An older snapshot that is still live, after newer ones were
            // cached; then the newest again.
            for index in [rng.next_below(5) as usize, 5] {
                let (snapshot, scratch) = &chain[index];
                let got = unbounded.materialized(snapshot.table(t).unwrap(), ALL.to_vec()).unwrap();
                got.assert_same_bytes(scratch, &label("revisited", index));
            }
            assert!(
                caches[1].stats().occupancy_bytes == 0 && caches[2].stats().occupancy_bytes <= 4_096,
                "case {case}: budgets hold"
            );
        }
    }

    /// `n` single-column Int64 tables of `rows` rows each in one database:
    /// every `materialized(_, vec![0])` entry is exactly `rows * 8` bytes.
    fn tables_in_one_db(n: usize, rows: i64) -> (StdArc<Database>, Vec<h2tap_common::TableId>) {
        let db = Database::new(1);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                db.create_table(format!("t{i}"), Schema::homogeneous("c", 1, AttrType::Int64), Layout::Dsm).unwrap()
            })
            .collect();
        for &t in &ids {
            for i in 0..rows {
                db.insert(PartitionId(0), t, &[Value::Int64(i)]).unwrap();
            }
        }
        (db, ids)
    }

    #[test]
    fn permuted_column_sets_share_one_entry() {
        let (db, t) = db_with_rows(64);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let a = cache.materialized(frozen, vec![0, 1]).unwrap();
        let b = cache.materialized(frozen, vec![1, 0]).unwrap();
        let c = cache.materialized(frozen, vec![1, 0, 0, 1]).unwrap();
        assert!(StdArc::ptr_eq(&a, &b) && StdArc::ptr_eq(&a, &c), "permutations and repeats normalise to one key");
        let stats = cache.stats();
        assert_eq!((stats.column_misses, stats.column_hits), (1, 2));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (db, t) = db_with_rows(100);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::with_budget(Some(0));
        let a = cache.materialized(frozen, vec![0]).unwrap();
        let b = cache.materialized(frozen, vec![0]).unwrap();
        assert!(!StdArc::ptr_eq(&a, &b), "every request re-derives");
        let stats = cache.stats();
        assert_eq!((stats.column_misses, stats.column_hits), (2, 0));
        assert_eq!(stats.evictions, 0, "nothing was cached, so nothing was evicted");
        assert_eq!(stats.budget_bytes, Some(0));
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().occupancy_bytes, 0);
    }

    #[test]
    fn an_entry_larger_than_the_budget_never_flushes_the_cache() {
        let (db, ids) = tables_in_one_db(1, 10); // 80-byte entry
        let wide = db.create_table("wide", Schema::homogeneous("w", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..1_000i64 {
            db.insert(PartitionId(0), wide, &[Value::Int64(i), Value::Int64(i)]).unwrap();
        }
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_000));
        let small = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        // 16_000 bytes can never fit in 1_000: derive, return, don't cache —
        // and don't evict the working set trying.
        let big = cache.materialized(snap.table(wide).unwrap(), vec![0, 1]).unwrap();
        assert_eq!(big.rows(), 1_000);
        assert_eq!(cache.stats().evictions, 0, "an unfittable entry must not flush the cache");
        assert_eq!(cache.stats().occupancy_bytes, 80, "only the small entry is resident");
        let again = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&small, &again), "the small entry survived");
    }

    #[test]
    fn eviction_follows_least_recent_use() {
        let (db, ids) = tables_in_one_db(3, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_600)); // room for two
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap(); // t0 now most recent
        let _ = cache.materialized(snap.table(ids[2]).unwrap(), vec![0]).unwrap(); // evicts t1 (LRU), not t0
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.column_hits, 1);
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap(); // hit: t0 survived
        assert_eq!(cache.stats().column_hits, 2);
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap(); // miss: t1 was the victim
        let s = cache.stats();
        assert_eq!(s.column_misses, 4);
        assert_eq!(s.evictions, 2);
        assert!(cache.stats().occupancy_bytes <= 1_600);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let (db, ids) = tables_in_one_db(5, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_600)); // room for two
                                                             // Pin t0 the way an in-flight query does: hold the Arc.
        let pinned = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        for &t in &ids[1..4] {
            let _ = cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
            assert!(cache.stats().occupancy_bytes <= 1_600, "occupancy must never exceed the budget");
        }
        // Despite being the least recently used entry throughout, t0 was
        // never the victim — the stream evicted around it.
        let again = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&pinned, &again), "the pinned entry still hits");
        assert_eq!(cache.stats().evictions, 2, "t1 and t2 were evicted instead");
        // Once the query lets go, the entry is ordinary LRU prey again:
        // stream two fresh tables without touching t0.
        drop(again);
        drop(pinned);
        let _ = cache.materialized(snap.table(ids[4]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap();
        assert!(cache.stats().evictions >= 4, "unpinned t0 became evictable");
        assert!(cache.stats().occupancy_bytes <= 1_600);
    }

    #[test]
    fn occupancy_never_exceeds_the_budget_under_a_many_table_stream() {
        let (db, ids) = tables_in_one_db(8, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(2_000)); // room for two
        for _ in 0..2 {
            for &t in &ids {
                let _ = cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
                let s = cache.stats();
                assert!(s.occupancy_bytes <= 2_000);
                assert_eq!(s.budget_bytes, Some(2_000));
            }
        }
        assert!(cache.stats().evictions > 0, "the stream must have exercised eviction");
        assert!(cache.entries() <= 2);
    }

    #[test]
    fn invalidate_clears_everything() {
        let (db, t) = db_with_rows(10);
        let snap = db.snapshot();
        let cache = PlanDataCache::new();
        cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
        assert_eq!(cache.entries(), 1);
        cache.invalidate();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().invalidations, 1);
        // The next request is a miss again.
        cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
        assert_eq!(cache.stats().column_misses, 2);
    }

    #[test]
    fn prepare_plan_matches_a_fresh_derivation() {
        let (db, fact) = db_with_rows(500);
        let dim = db.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..20i64 {
            db.insert(PartitionId(0), dim, &[Value::Int64(2 * i), Value::Int64(i % 3)]).unwrap();
        }
        let snap = db.snapshot();
        let probe = snap.table(fact).unwrap();
        let build = snap.table(dim).unwrap();
        let plan = OlapPlan {
            predicates: vec![],
            join: Some(JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
            group_by: Some(h2tap_common::PlanColumn::Build(1)),
            aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
        };
        let cache = PlanDataCache::new();
        let cached = cache.prepare_plan(probe, Some(build), &plan).unwrap();
        let uncached = PlanData {
            mat: Arc::new(MaterializedColumns::new(probe, plan.probe_columns_accessed()).unwrap()),
            hash: Some(Arc::new(operators::build_hash_table(build, plan.join.as_ref().unwrap(), Some(1)).unwrap())),
        };
        let run = |data: &PlanData| {
            let bound = data.bind(&plan).unwrap();
            let partials: Vec<_> = (0..data.mat.chunk_count())
                .map(|i| operators::process_chunk(&bound, data.mat.chunk_range(i)))
                .collect();
            operators::merge_partials(&plan, partials)
        };
        let (a, ta) = run(&cached);
        let (b, tb) = run(&uncached);
        assert_eq!(a, b);
        assert_eq!(ta.joined, tb.joined);
        // A join plan without a build table is rejected before any
        // derivation.
        assert!(cache.prepare_plan(probe, None, &plan).is_err());
    }

    /// Polls `cond` for up to ~2s of 1ms naps.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..2_000 {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn waiters_attach_to_an_in_flight_build_and_share_its_result() {
        let (db, t) = db_with_rows(256);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        // Claim the key by hand, playing a builder mid-derivation.
        let key = (ColumnSet { source: frozen.identity.source, table: t, cols: vec![0] }, frozen.identity.epoch);
        let slot: StdArc<BuildSlot<MaterializedColumns>> = StdArc::new(OnceLock::new());
        cache.shared.inner.lock().columns.building.insert(key.clone(), StdArc::clone(&slot));
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.materialized(frozen, vec![0]).unwrap());
            assert!(eventually(|| cache.stats().shared_scan_attaches == 1), "the request must attach, not build");
            // Publish the builder's result and retire the marker.
            let mat = StdArc::new(MaterializedColumns::new(frozen, vec![0]).unwrap());
            slot.set(Some(StdArc::clone(&mat))).unwrap();
            cache.shared.inner.lock().columns.building.remove(&key);
            cache.shared.ready.notify_all();
            let got = waiter.join().unwrap();
            assert!(StdArc::ptr_eq(&got, &mat), "the waiter got the builder's instance");
            got
        });
        let stats = cache.stats();
        assert_eq!(stats.shared_scan_attaches, 1);
        assert_eq!((stats.column_hits, stats.column_misses), (0, 0), "an attach is neither a hit nor a miss");
        assert_eq!(got.rows(), 256);
    }

    #[test]
    fn a_failed_build_hands_off_to_a_waiter() {
        let (db, t) = db_with_rows(64);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let key = (ColumnSet { source: frozen.identity.source, table: t, cols: vec![0] }, frozen.identity.epoch);
        let slot: StdArc<BuildSlot<MaterializedColumns>> = StdArc::new(OnceLock::new());
        cache.shared.inner.lock().columns.building.insert(key.clone(), StdArc::clone(&slot));
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.materialized(frozen, vec![0]).unwrap());
            assert!(eventually(|| cache.stats().shared_scan_attaches == 1));
            // The builder dies: publish a failure slot, retire the marker.
            slot.set(None).unwrap();
            cache.shared.inner.lock().columns.building.remove(&key);
            cache.shared.ready.notify_all();
            waiter.join().unwrap()
        });
        // The waiter re-probed, became the builder itself and derived.
        let stats = cache.stats();
        assert_eq!(stats.shared_scan_attaches, 1, "the retry does not re-count the attach");
        assert_eq!((stats.column_hits, stats.column_misses), (0, 1));
        assert_eq!(got.rows(), 64);
    }

    #[test]
    fn concurrent_requests_never_duplicate_a_derivation() {
        let (db, t) = db_with_rows(50_000);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.materialized(frozen, vec![0, 1]).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &results[1..] {
            assert!(StdArc::ptr_eq(&results[0], other), "every concurrent request shares one instance");
        }
        let stats = cache.stats();
        assert_eq!(stats.column_misses, 1, "exactly one thread built; nobody raced a duplicate");
        assert_eq!(
            stats.column_hits + stats.shared_scan_attaches,
            threads as u64 - 1,
            "everyone else either attached to the in-flight build or hit the finished entry"
        );
    }
}
