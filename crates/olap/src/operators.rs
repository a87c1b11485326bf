//! The shared data path of the relational operator subsystem.
//!
//! Both execution sites answer an [`OlapPlan`] with the same logical
//! pipeline — filter the probe table, probe a hash table built from the
//! filtered build table, accumulate per-group aggregates — and the plan IR
//! requires their results to be **byte-identical**. Floating-point addition
//! is not associative, so this module pins the evaluation order once for
//! everyone: rows are processed in storage order within fixed chunks of
//! [`PLAN_CHUNK_ROWS`] rows ([`process_chunk`]), and per-chunk partials are
//! merged in ascending chunk order ([`merge_partials`]). The CPU site runs
//! the chunks on a thread pool and the GPU site maps them onto simulated
//! thread blocks, but because every site uses these functions over the same
//! materialised columns, the numbers that come out are bit-equal.
//!
//! # One production kernel set, one oracle
//!
//! Within a chunk, [`process_chunk`] executes **vectorized**: rows are
//! processed in fixed [`VECTOR_BATCH_ROWS`]-row batches, predicate
//! evaluation fills a *selection vector*, join probes compact it, and
//! aggregate accumulation runs one specialised loop per [`AggExpr`] variant
//! instead of a per-row `match`. Selection is **column at a time**: each
//! predicate makes one tight pass over its own column slice into 64-row bit
//! words, the words of successive predicates are ANDed, and the selection
//! vector is the set bits — no interleaving of columns and no
//! data-dependent branch finer than one test per 64 rows. The per-cell loops
//! are the elementwise kernels of [`crate::simd`], monomorphised per column
//! type through [`with_decoder!`], and the whole body is **compiled twice
//! from one source** — for the build's baseline ISA and, behind a runtime
//! check, for AVX2 (`simd::with_widest_isa`) — so a host with wider
//! vectors streams the columns at the speed of the memory they sit in, and
//! a host without them runs the same Rust, narrower
//! ([`KERNEL_COMPILATIONS`] holds that compilation beside the other two).
//! Every f64 *accumulation* stays sequential in ascending row order. None of
//! this changes a single bit of the results: a selection vector only *skips*
//! rows a predicate rejected (exactly the rows the row-at-a-time loop
//! `continue`d past), staged per-row values are computed by the very
//! expressions the reference evaluates, and each accumulator receives the
//! same additions in the same order. The row-at-a-time
//! [`process_chunk_reference`] is the one retained oracle, property-tested
//! bit-identical against both compilations (`tests/host_path.rs`).
//!
//! A [`ScanAggQuery`] is the degenerate plan [`OlapPlan::scan`] — no join,
//! no group-by, one aggregate — and runs through exactly this path;
//! [`evaluate_plan`] is the one "evaluate chunks in order, merge in order"
//! routine every execution site calls. Every kernel takes a [`BoundPlan`],
//! which [`PlanData::bind`] resolves once per query: a join plan without its
//! hash table, or a column that was not materialised, is an error there and
//! never reaches a chunk.
//!
//! # Zonemap statistics and parallel materialisation
//!
//! [`MaterializedColumns::new`] copies each accessed column and computes
//! its per-chunk min/max *zonemap statistics* in one fused pass per chunk —
//! the zonemap reads the chunk while it is still cache-resident from the
//! copy — and runs those per-(column, chunk) tasks on the shared scoped
//! pool ([`crate::pool`]), preserving chunk order in the output.
//! [`scan_chunk_can_qualify`] then answers in O(#predicates) per chunk
//! instead of re-scanning the chunk's values per predicate per query (the
//! old behaviour is retained as the oracle
//! [`scan_chunk_can_qualify_reference`]). Because the stats live on the
//! materialised columns, the snapshot-keyed plan-data cache
//! ([`crate::cache::PlanDataCache`]) shares them across queries and across
//! execution sites for free.
//!
//! What the sites do *not* share is the cost model: the CPU charges cache-
//! line-granular random access against host memory bandwidth, the GPU
//! charges build/probe/aggregate kernels (with [`h2tap_gpu_sim::AccessPattern::Random`]
//! probes) through the gpu-sim memory model.

use crate::pool;
use crate::simd::{
    and_between_words, min_max_lanes, stage_add_column, stage_key_bits, stage_product, with_widest_isa, BatchRows,
};
use h2tap_common::{
    AggExpr, AttrType, Epoch, GroupRow, H2Error, JoinSpec, OlapPlan, PlanColumn, Predicate, Result, ScanAggQuery,
    PLAN_CHUNK_ROWS,
};
use h2tap_obs::{SpanEvent, SpanKind, Tracer};
use h2tap_scheduler::OlapTarget;
use h2tap_storage::{decode_cell_f64, SnapshotTable, SnapshotTableId};
use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Rows per vectorized execution batch. Unlike [`PLAN_CHUNK_ROWS`] this is
/// **not** part of the IR contract: batches only bound how many rows a
/// selection vector covers at a time, and since rows are visited in
/// ascending order within and across batches, any batch size produces
/// bit-identical results. 1024 keeps a batch's selection vector and the
/// touched column slices comfortably inside the L1/L2 caches.
pub const VECTOR_BATCH_ROWS: usize = 1024;

#[inline(always)]
fn dec_f64(cell: u64) -> f64 {
    f64::from_bits(cell)
}

#[inline(always)]
fn dec_i64(cell: u64) -> f64 {
    cell as i64 as f64
}

#[inline(always)]
fn dec_i32(cell: u64) -> f64 {
    f64::from(cell as u32 as i32)
}

/// Calls `$f(decoder, args...)` with the cell decoder matching `$ty`, so the
/// generic `$f` monomorphises into one tight loop per column type instead of
/// re-dispatching [`decode_cell_f64`]'s type `match` on every row. The
/// decoder arms mirror `decode_cell_f64` exactly — the numeric
/// interpretation is identical, only the dispatch point moves out of the
/// loop.
macro_rules! with_decoder {
    ($ty:expr, $f:ident ( $($args:expr),* $(,)? )) => {
        match $ty {
            AttrType::Float64 => $f(dec_f64, $($args),*),
            AttrType::Int64 | AttrType::Str => $f(dec_i64, $($args),*),
            AttrType::Int32 | AttrType::Date => $f(dec_i32, $($args),*),
        }
    };
}

/// `PLAN_CHUNK_ROWS` is a power of two, so a row's chunk and its offset in
/// the chunk are a shift and a mask.
const CHUNK_SHIFT: u32 = PLAN_CHUNK_ROWS.trailing_zeros();
const _: () = assert!(PLAN_CHUNK_ROWS.is_power_of_two());

/// One chunk of one materialised column: its raw cells in storage order and
/// the chunk's zonemap ("secondary index") bounds, computed in the same pass.
/// Immutable once built and shared behind `Arc`, so the materialisation of a
/// newer snapshot can keep the blocks of every chunk nobody wrote to.
#[derive(Debug)]
struct ColumnBlock {
    cells: Vec<u64>,
    /// Minimum value of the chunk (`+inf` when built without statistics).
    min: f64,
    /// Maximum value of the chunk (`-inf` when built without statistics).
    max: f64,
}

/// What building one [`MaterializedColumns`] cost, in column chunks (one
/// chunk of one column): how many were shared with a base and how many were
/// gathered from pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildWork {
    /// Column chunks shared with a base materialisation.
    pub chunks_reused: u64,
    /// Column chunks gathered from the table's pages.
    pub chunks_rebuilt: u64,
    /// Bytes of cells gathered.
    pub bytes_gathered: u64,
}

/// The blocks of one chunk, one slice per materialised column, with rows
/// numbered from the chunk's first row: what the chunk kernels index.
struct ChunkView<'a> {
    types: &'a [AttrType],
    cols: Vec<&'a [u64]>,
}

/// Accessed columns of a table, materialised as raw 64-bit cells in storage
/// order — one [`PLAN_CHUNK_ROWS`]-row block per column and chunk — with
/// per-chunk zonemap statistics built in the same pass. Chunked operators
/// index rows directly, which an iterator over pages cannot do.
#[derive(Debug, Clone)]
pub struct MaterializedColumns {
    cols: Vec<usize>,
    types: Vec<AttrType>,
    /// `blocks[col_pos][chunk]`.
    blocks: Vec<Vec<Arc<ColumnBlock>>>,
    rows: usize,
    /// Whether the blocks carry zonemap bounds.
    zonemapped: bool,
    /// The frozen image this was derived from, and its rows per partition:
    /// what [`MaterializedColumns::build`] needs to know of a base.
    origin: SnapshotTableId,
    partition_rows: Vec<u64>,
    work: BuildWork,
}

/// Row range of chunk `chunk` of a `rows`-row table.
fn chunk_rows(chunk: usize, rows: usize) -> Range<usize> {
    chunk * PLAN_CHUNK_ROWS..((chunk + 1) * PLAN_CHUNK_ROWS).min(rows)
}

/// Leading storage-order rows that sit at the same (partition, page, slot)
/// in two images of a table with these per-partition row counts. Partitions
/// are concatenated, so an insert shifts every row behind its partition.
fn stable_rows(base: &[u64], new: &[u64]) -> usize {
    let mut rows = 0u64;
    for (b, n) in base.iter().zip(new) {
        rows += b.min(n);
        if b != n {
            break;
        }
    }
    rows as usize
}

impl MaterializedColumns {
    /// Validates `cols` against the table and resolves their types.
    /// Selection vectors index rows as u32; tables beyond that bound are
    /// rejected here, where it is an error, rather than wrapping silently in
    /// a release-build hot loop.
    fn check_dims(table: &SnapshotTable, cols: &[usize]) -> Result<Vec<AttrType>> {
        if table.row_count() > u64::from(u32::MAX) {
            return Err(H2Error::InvalidKernel(format!(
                "table has {} rows — the vectorized data path indexes rows as u32",
                table.row_count()
            )));
        }
        cols.iter().map(|&c| table.schema.attr(c).map(|a| a.ty)).collect()
    }

    /// Materialises `cols` (attribute indexes) of `table` from scratch:
    /// [`MaterializedColumns::build`] without a base.
    pub fn new(table: &SnapshotTable, cols: Vec<usize>) -> Result<Self> {
        Self::build(table, cols, &[])
    }

    /// Materialises `cols` (attribute indexes) of `table` and builds their
    /// per-chunk zonemap statistics — the cold-path critical path of plan
    /// preparation — keeping every column chunk of `bases` that is provably
    /// unchanged.
    ///
    /// `bases` are materialisations (of any column sets) of **this or older
    /// snapshots of the same table**; anything else in the list is ignored.
    /// Each column takes the newest base that holds it, and shares that
    /// base's block of chunk `c` — cells and zonemap bounds — when
    ///
    /// 1. every page holding a row of the chunk is stamped at or before the
    ///    base's snapshot epoch — by the stamp contract of
    ///    [`h2tap_storage::Page::epoch`] such a page is cell-identical to the
    ///    page at its position in the base's snapshot — and
    /// 2. the chunk's rows sit at the same positions in both images: no
    ///    partition at or before them changed its row count (an insert
    ///    shifts every storage-order row behind its partition).
    ///
    /// Every other column chunk is gathered: column copy and zonemap min/max
    /// run **fused** (the lane-parallel min/max reads each chunk while it is
    /// still cache-resident from the copy) as per-(column, chunk) tasks on
    /// the shared scoped pool. The result is byte-identical to a from-scratch
    /// build of the same snapshot.
    pub fn build(table: &SnapshotTable, cols: Vec<usize>, bases: &[&Self]) -> Result<Self> {
        Self::derive(table, cols, bases, true)
    }

    /// Materialises without building zonemap statistics, single-threaded —
    /// used where the statistics would be pure waste (the build side of a
    /// hash join is consumed exactly once, at build time) and as the plain
    /// serial copy the materialisation oracle test pays. [`scan_chunk_can_qualify`] transparently falls back
    /// to the O(chunk) recomputation on such an instance.
    pub(crate) fn new_without_zonemaps(table: &SnapshotTable, cols: Vec<usize>) -> Result<Self> {
        Self::derive(table, cols, &[], false)
    }

    fn derive(table: &SnapshotTable, cols: Vec<usize>, bases: &[&Self], zonemapped: bool) -> Result<Self> {
        let types = Self::check_dims(table, &cols)?;
        let rows = table.row_count() as usize;
        let origin = table.identity;
        let chunks = rows.div_ceil(PLAN_CHUNK_ROWS);
        let chunk_rows = |chunk: usize| chunk_rows(chunk, rows);

        // Per column: the newest base holding it — the image, the column's
        // position there, and how many leading rows have not moved since.
        let sources: Vec<Option<(&Self, usize, usize)>> = cols
            .iter()
            .map(|col| {
                bases
                    .iter()
                    .filter(|b| {
                        (b.origin.source, b.origin.table) == (origin.source, origin.table)
                            && b.origin.epoch <= origin.epoch
                            && b.zonemapped
                    })
                    .filter_map(|b| b.cols.iter().position(|c| c == col).map(|pos| (*b, pos)))
                    .max_by_key(|(b, _)| b.origin.epoch)
                    .map(|(b, pos)| (b, pos, stable_rows(&b.partition_rows, table.partition_rows())))
            })
            .collect();
        // The table's side of the reuse rule, the same for every column:
        // each chunk's newest page stamp, floored at the oldest base epoch
        // (exact for every comparison below, and it lets the stamp query
        // pass over every segment not written since that base).
        let floor = sources.iter().flatten().map(|(base, _, _)| base.origin.epoch).min();
        let stamps: Vec<Epoch> = match floor {
            Some(floor) => (0..chunks).map(|chunk| table.newest_stamp(chunk_rows(chunk), floor)).collect(),
            None => Vec::new(),
        };
        let shared = |pos: usize, chunk: usize| -> Option<&Arc<ColumnBlock>> {
            let (base, base_pos, stable) = sources[pos]?;
            let range = chunk_rows(chunk);
            // A base of this very snapshot is the same image, whatever the
            // stamps say (a page can be stamped past its own snapshot).
            let unwritten = base.origin.epoch == origin.epoch || stamps[chunk] <= base.origin.epoch;
            (unwritten && range.end <= stable && base.chunk_range(chunk) == range)
                .then(|| &base.blocks[base_pos][chunk])
        };

        // Every slot starts as its shared block or as the placeholder, and
        // each placeholder slot is one gather task that overwrites it.
        let placeholder = Arc::new(ColumnBlock { cells: Vec::new(), min: f64::INFINITY, max: f64::NEG_INFINITY });
        let mut blocks: Vec<Vec<Arc<ColumnBlock>>> = (0..cols.len())
            .map(|pos| (0..chunks).map(|chunk| Arc::clone(shared(pos, chunk).unwrap_or(&placeholder))).collect())
            .collect();
        let tasks: Vec<(usize, usize, &mut Arc<ColumnBlock>)> = blocks
            .iter_mut()
            .enumerate()
            .flat_map(|(pos, col)| col.iter_mut().enumerate().map(move |(chunk, slot)| (pos, chunk, slot)))
            .filter(|(_, _, slot)| Arc::ptr_eq(slot, &placeholder))
            .collect();
        let chunks_rebuilt = tasks.len() as u64;
        let bytes_gathered = tasks.iter().map(|&(_, chunk, _)| chunk_rows(chunk).len() as u64 * 8).sum();
        let threads = if zonemapped { pool::host_threads(tasks.len()) } else { 1 };
        pool::run_tasks(tasks, threads, |(pos, chunk, slot)| {
            let range = chunk_rows(chunk);
            let mut cells = vec![0u64; range.len()];
            table.column_into(cols[pos], range, &mut cells);
            let (min, max) = if zonemapped {
                with_widest_isa(
                    #[inline(always)]
                    || with_decoder!(types[pos], min_max_lanes(&cells)),
                )
            } else {
                (f64::INFINITY, f64::NEG_INFINITY)
            };
            *slot = Arc::new(ColumnBlock { cells, min, max });
        });

        let work =
            BuildWork { chunks_reused: (cols.len() * chunks) as u64 - chunks_rebuilt, chunks_rebuilt, bytes_gathered };
        let partition_rows = table.partition_rows().to_vec();
        Ok(Self { cols, types, blocks, rows, zonemapped, origin, partition_rows, work })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes of raw cells this materialisation holds (the figure the
    /// plan-data cache reports for sizing). Blocks shared with another
    /// materialisation count in full.
    pub fn cell_bytes(&self) -> u64 {
        (self.cols.len() * self.rows * 8) as u64
    }

    /// What building this materialisation cost.
    pub fn work(&self) -> BuildWork {
        self.work
    }

    /// Number of [`PLAN_CHUNK_ROWS`]-sized chunks covering the rows.
    pub fn chunk_count(&self) -> usize {
        self.rows.div_ceil(PLAN_CHUNK_ROWS).max(1)
    }

    /// Row range of chunk `idx`.
    pub fn chunk_range(&self, idx: usize) -> Range<usize> {
        chunk_rows(idx, self.rows)
    }

    /// Position of attribute `col` among the materialised columns.
    fn pos(&self, col: usize) -> Result<usize> {
        self.cols
            .iter()
            .position(|&c| c == col)
            .ok_or_else(|| H2Error::InvalidKernel(format!("column {col} was not materialised")))
    }

    /// The blocks of the chunk `rows` lies in, and `rows` renumbered from
    /// that chunk's first row. A zero-row table has one (empty) chunk and no
    /// blocks; its view is empty slices.
    fn chunk_view(&self, rows: &Range<usize>) -> (ChunkView<'_>, Range<usize>) {
        let chunk = rows.start >> CHUNK_SHIFT;
        let first = chunk << CHUNK_SHIFT;
        assert!(rows.end <= first + PLAN_CHUNK_ROWS, "rows {rows:?} span more than one chunk");
        let cols = self.blocks.iter().map(|col| col.get(chunk).map_or(&[][..], |block| &block.cells[..])).collect();
        (ChunkView { types: &self.types, cols }, rows.start - first..rows.end.max(rows.start) - first)
    }

    /// Zonemap `(min, max)` of column position `col_pos` over chunk `chunk`
    /// (`(+inf, -inf)`, the empty bounds, for the one chunk of a zero-row
    /// table).
    fn zonemap(&self, col_pos: usize, chunk: usize) -> (f64, f64) {
        self.blocks[col_pos].get(chunk).map_or((f64::INFINITY, f64::NEG_INFINITY), |block| (block.min, block.max))
    }

    /// Raw cell of attribute `col` at `row`.
    fn raw(&self, col_pos: usize, row: usize) -> u64 {
        self.blocks[col_pos][row >> CHUNK_SHIFT].cells[row & (PLAN_CHUNK_ROWS - 1)]
    }

    /// Numeric interpretation of attribute `col` at `row`.
    fn value(&self, col_pos: usize, row: usize) -> f64 {
        decode_cell_f64(self.types[col_pos], self.raw(col_pos, row))
    }
}

/// A deterministic multiply-shift (splitmix-style) finaliser for the u64
/// keys of a [`LookupMap`]: f64 bit patterns of join keys, raw group-key
/// cells and payload cells. Those keys are not adversarial, so the std
/// `HashMap`'s SipHash would only slow the lookups down; this mix is
/// deterministic across processes, and a [`LookupMap`] cannot be iterated, so
/// no result depends on the map's internal order either way.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulShiftHasher(u64);

impl Hasher for MulShiftHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        // splitmix64 finaliser: two multiply-shifts with full avalanche, so
        // both the low bits (bucket index) and the high bits (control byte)
        // of the output are well mixed.
        let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are hashed in practice; fold arbitrary bytes into
        // 8-byte words for completeness.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.0 ^ u64::from_le_bytes(word));
        }
    }
}

/// The one std hash map of the result crates: [`LookupMap`] wraps it so that
/// it can be looked up and grown but never iterated.
#[expect(
    clippy::disallowed_types,
    reason = "a LookupMap never iterates its map, so its bucket order reaches no result; a BTreeMap would slow every join probe and group lookup"
)]
type U64HashMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<MulShiftHasher>>;

/// A u64-keyed hash map that can be looked up and grown but never iterated:
/// whatever the data path builds from it follows the order of its inputs,
/// never the map's bucket order.
#[derive(Debug, Clone, Default)]
struct LookupMap<V>(U64HashMap<V>);

impl<V: Copy> LookupMap<V> {
    fn with_capacity(capacity: usize) -> Self {
        Self(U64HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()))
    }

    #[inline]
    fn get(&self, key: u64) -> Option<V> {
        self.0.get(&key).copied()
    }

    /// The value of `key`, inserting `make()` first when it has none.
    #[inline]
    fn get_or_insert(&mut self, key: u64, make: impl FnOnce() -> V) -> V {
        *self.0.entry(key).or_insert_with(make)
    }
}

/// How a [`JoinHashTable`] finds the payload id of a probe key. Both arms
/// map a key's bit pattern to its *slot*: 0 when it is not a build key,
/// `id + 1` when it is.
#[derive(Debug, Clone)]
enum KeyIndex {
    /// Every build key is an integer `k` with `|k| <= 2^53` whose f64 bit
    /// pattern round-trips through `i64`, and the keys span few enough
    /// integers: `slots[k - base]` holds the slot of key `k`.
    Direct { base: i64, slots: Vec<u32> },
    /// Any other key set: key bit pattern → slot.
    Hashed(LookupMap<u32>),
}

/// Largest integer magnitude an f64 holds with every smaller integer.
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// Direct-index spans up to this many slots are always allowed (1 MiB of
/// `u32` slots); past it the span may be at most 4 slots per entry, which is
/// what the hash map of the same entries costs.
const MIN_DIRECT_SLOTS: u64 = 1 << 18;

/// The integer a build key's bit pattern encodes, when a direct index can
/// hold it: an integral f64 of magnitude at most 2^53 other than `-0.0`.
fn direct_key(bits: u64) -> Option<i64> {
    let k = f64::from_bits(bits) as i64;
    ((k as f64).to_bits() == bits && k.unsigned_abs() <= EXACT_INT_LIMIT).then_some(k)
}

fn duplicate_key(bits: u64) -> H2Error {
    H2Error::InvalidKernel(format!(
        "duplicate build key {} — hash joins require a unique build key",
        f64::from_bits(bits)
    ))
}

impl KeyIndex {
    /// Indexes `(key bits, payload id)` pairs, rejecting a repeated key. The
    /// arm is chosen from the keys themselves: a direct index when every key
    /// is a [`direct_key`] and their span is at most
    /// `max(4 × entries, MIN_DIRECT_SLOTS)`, the hash map otherwise.
    fn build(pairs: &[(u64, u32)]) -> Result<Self> {
        let cap = (4 * pairs.len() as u64).max(MIN_DIRECT_SLOTS);
        let span = pairs
            .iter()
            .try_fold((i64::MAX, i64::MIN), |(lo, hi), &(bits, _)| direct_key(bits).map(|k| (lo.min(k), hi.max(k))))
            .filter(|&(lo, hi)| lo > hi || hi.abs_diff(lo) < cap);
        match span {
            // `lo > hi` only when there are no keys: an empty index.
            Some((base, hi)) => {
                let mut slots = vec![0u32; if base > hi { 0 } else { hi.abs_diff(base) as usize + 1 }];
                for &(bits, id) in pairs {
                    let slot = &mut slots[(f64::from_bits(bits) as i64 - base) as usize];
                    if *slot != 0 {
                        return Err(duplicate_key(bits));
                    }
                    *slot = id + 1;
                }
                Ok(KeyIndex::Direct { base, slots })
            }
            None => {
                let mut index = LookupMap::with_capacity(pairs.len());
                for &(bits, id) in pairs {
                    let mut fresh = false;
                    index.get_or_insert(bits, || {
                        fresh = true;
                        id + 1
                    });
                    if !fresh {
                        return Err(duplicate_key(bits));
                    }
                }
                Ok(KeyIndex::Hashed(index))
            }
        }
    }

    /// The slot of probe key `bits`.
    fn slot(&self, bits: u64) -> u32 {
        match self {
            KeyIndex::Direct { base, slots } => direct_slot(*base, slots, bits),
            KeyIndex::Hashed(index) => index.get(bits).unwrap_or(0),
        }
    }
}

/// The slot of probe key `bits` in a direct index: the cast saturates and a
/// non-integral, negative-zero or NaN key fails the round trip, so exactly
/// the bit patterns of the indexed integers can hit.
#[inline(always)]
fn direct_slot(base: i64, slots: &[u32], bits: u64) -> u32 {
    let k = f64::from_bits(bits) as i64;
    let slot = slots.get(k.wrapping_sub(base) as usize).copied().unwrap_or(0);
    if (k as f64).to_bits() == bits {
        slot
    } else {
        0
    }
}

/// The join table of a primary-key equi-join: the filtered build rows' keys
/// (bit patterns of the numeric join key) mapped to a dense payload id, and
/// the distinct payloads — raw group-key cells when the plan groups by a
/// build attribute — by id, in first-seen storage order. Keys index a
/// direct array when they are dense integers (the common case: every
/// workload's dimension keys are `0..n`) and a [`LookupMap`] otherwise.
/// [`JoinHashTable::footprint_bytes`] is the simulated device hash table, not
/// this host structure.
#[derive(Debug, Clone)]
pub struct JoinHashTable {
    index: KeyIndex,
    /// Distinct payloads, indexed by payload id.
    payloads: Vec<u64>,
    entries: u64,
    /// Build rows considered (before build predicates).
    pub build_rows_in: u64,
    /// Rows per partition of the build table image this was built from.
    partition_rows: Vec<u64>,
}

impl JoinHashTable {
    /// Entries surviving the build predicates.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Simulated footprint of the table.
    pub fn footprint_bytes(&self) -> u64 {
        self.entries().max(1) * h2tap_common::HASH_ENTRY_BYTES
    }

    /// Payload for `key` (the bit pattern of the numeric join key value).
    pub fn get(&self, key: u64) -> Option<u64> {
        self.index.slot(key).checked_sub(1).map(|id| self.payloads[id as usize])
    }

    /// Whether this table — built with the same parameters from the snapshot
    /// of `build`'s table frozen at `built_at` — is exactly what building
    /// from `build` would yield: no partition changed its row count and no
    /// page carries a stamp after `built_at` (the stamp contract of
    /// [`h2tap_storage::Page::epoch`]).
    pub(crate) fn still_describes(&self, build: &SnapshotTable, built_at: Epoch) -> bool {
        build.partition_rows() == self.partition_rows
            && build.newest_stamp(0..build.row_count() as usize, built_at) <= built_at
    }
}

/// Builds the join table: one pass over the build table that filters by
/// `join.build_predicates` and collects each surviving row's `join.build_key`
/// bit pattern with the id of its payload — the raw cell of `group_col` when
/// the plan groups by a build attribute, else 0 — numbering distinct
/// payloads in first-seen order; then indexes the keys ([`KeyIndex`]).
/// Duplicate keys among surviving rows violate the PK-join contract and are
/// rejected.
pub fn build_hash_table(build: &SnapshotTable, join: &JoinSpec, group_col: Option<usize>) -> Result<JoinHashTable> {
    let mut cols: Vec<usize> = std::iter::once(join.build_key)
        .chain(join.build_predicates.iter().map(|p| p.column))
        .chain(group_col)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    // No zonemaps: the build side is consumed exactly once, right here —
    // per-chunk statistics would be computed and never read.
    let mat = MaterializedColumns::new_without_zonemaps(build, cols)?;
    let key_pos = mat.pos(join.build_key)?;
    let pred_pos: Vec<usize> = join.build_predicates.iter().map(|p| mat.pos(p.column)).collect::<Result<_>>()?;
    let group_pos = group_col.map(|c| mat.pos(c)).transpose()?;
    let mut pairs: Vec<(u64, u32)> = Vec::new();
    let mut payloads: Vec<u64> = Vec::new();
    let mut payload_ids: LookupMap<u32> = LookupMap::default();
    for row in 0..mat.rows() {
        if join.build_predicates.iter().zip(&pred_pos).any(|(p, &pos)| !p.matches(mat.value(pos, row))) {
            continue;
        }
        let payload = group_pos.map_or(0, |pos| mat.raw(pos, row));
        let id = payload_ids.get_or_insert(payload, || {
            payloads.push(payload);
            (payloads.len() - 1) as u32
        });
        pairs.push((mat.value(key_pos, row).to_bits(), id));
    }
    Ok(JoinHashTable {
        index: KeyIndex::build(&pairs)?,
        payloads,
        entries: pairs.len() as u64,
        build_rows_in: mat.rows() as u64,
        partition_rows: build.partition_rows().to_vec(),
    })
}

/// Per-group accumulator: one f64 per aggregate plus the contributing row
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAcc {
    /// Aggregate values in plan order.
    pub values: Vec<f64>,
    /// Rows accumulated into the group.
    pub rows: u64,
}

/// The result of evaluating one chunk of the probe table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkPartial {
    /// Per-group partial aggregates, keyed by the raw group-key cell.
    pub groups: BTreeMap<u64, GroupAcc>,
    /// Rows that satisfied the probe predicates.
    pub selected: u64,
    /// Rows that additionally found a join partner (equals `selected` for
    /// plans without a join).
    pub joined: u64,
}

/// Plan-wide row counters, summed over all chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTotals {
    /// Rows that satisfied the probe predicates.
    pub selected: u64,
    /// Rows that reached the aggregation (post join).
    pub joined: u64,
}

/// The 64-row bit words of the rows of `batch` that satisfy every predicate
/// (bit `i` of word `w` is the batch's row `w * 64 + i`; bits past the batch
/// are clear) — column at a time: each predicate makes one pass over its own
/// column slice, ANDing into the words ([`and_between_words`]).
#[inline(always)]
fn predicate_words<'w>(
    chunk: &ChunkView<'_>,
    predicates: &[Predicate],
    pred_pos: &[usize],
    batch: Range<usize>,
    buf: &'w mut [u64; VECTOR_BATCH_ROWS / 64],
) -> &'w [u64] {
    let words = &mut buf[..batch.len().div_ceil(64)];
    words.fill(u64::MAX);
    if let (Some(last), tail @ 1..) = (words.last_mut(), batch.len() % 64) {
        *last = (1 << tail) - 1;
    }
    for (pred, &pos) in predicates.iter().zip(pred_pos) {
        let cells = &chunk.cols[pos][batch.clone()];
        with_decoder!(chunk.types[pos], and_between_words(cells, pred.lo, pred.hi, words));
    }
    words
}

/// Fills `sel` with the set bits of `words`, as row indexes from `first`
/// (relative to the start of the chunk), in ascending order.
#[inline(always)]
fn select_rows(words: &[u64], first: usize, sel: &mut Vec<u32>) {
    sel.clear();
    sel.resize(words.len() * 64, 0);
    let mut k = 0usize;
    for (w, &word) in words.iter().enumerate() {
        let first = (first + w * 64) as u32;
        let mut bits = word;
        while bits != 0 {
            sel[k] = first + bits.trailing_zeros();
            k += 1;
            bits &= bits - 1;
        }
    }
    sel.truncate(k);
}

#[inline(always)]
fn stage_product_outer<D0: Fn(u64) -> f64>(
    d0: D0,
    ty1: AttrType,
    c0: &[u64],
    c1: &[u64],
    rows: &BatchRows<'_>,
    out: &mut [f64],
) {
    with_decoder!(ty1, stage_product(d0, c0, c1, rows, out));
}

/// Stages each visited row's per-row aggregate input into `out[i]` (one slot
/// per row, in `rows` order). The staged value is computed by the very
/// expression the reference evaluates — `SumProduct` is the two-column
/// product, `SumColumns` folds from `0.0` through the columns in column order
/// exactly like the per-row `sum::<f64>()` (so `0.0 + -0.0` stays `+0.0`) —
/// which is what lets the caller's sequential fold over `out` reproduce the
/// reference bit for bit.
#[inline(always)]
fn stage_rows(chunk: &ChunkView<'_>, agg: &AggExpr, pos: &[usize], rows: &BatchRows<'_>, out: &mut Vec<f64>) {
    out.clear();
    out.resize(rows.len(), 0.0);
    match agg {
        AggExpr::SumProduct(..) => {
            let (c0, c1) = (chunk.cols[pos[0]], chunk.cols[pos[1]]);
            with_decoder!(chunk.types[pos[0]], stage_product_outer(chunk.types[pos[1]], c0, c1, rows, out));
        }
        AggExpr::SumColumns(_) => {
            for &p in pos {
                with_decoder!(chunk.types[p], stage_add_column(chunk.cols[p], rows, out));
            }
        }
        AggExpr::Count => unreachable!("Count accumulates without staging"),
    }
}

/// How the rows of a batch map onto group accumulators.
#[derive(Debug, Clone, Copy)]
enum GroupMode<'a> {
    /// No `group_by`: one global accumulator (key 0).
    Global,
    /// `group_by` on a probe column: key is the raw cell at that position.
    Probe(usize),
    /// `group_by` on a build column: key is the join payload, found by the
    /// payload id the probe resolved (the join table's payloads).
    Build(&'a [u64]),
}

/// Grouped accumulation state for one chunk: an insertion-ordered arena of
/// accumulators plus an index into it — by raw key for probe-column groups,
/// by payload id for build-column groups. Per-group, per-aggregate addition
/// order is the ascending row order of the rows that landed in the group —
/// exactly the order the row-at-a-time reference uses — so arena
/// bookkeeping cannot perturb a bit.
struct GroupArena {
    /// Raw group key → slot (probe-column groups).
    slot_of: LookupMap<u32>,
    /// Payload id → slot + 1, 0 while the payload has no group (build-column
    /// groups).
    slot_of_id: Vec<u32>,
    keys: Vec<u64>,
    accs: Vec<GroupAcc>,
    aggregates: usize,
}

impl GroupArena {
    fn new(aggregates: usize, payload_ids: usize) -> Self {
        Self {
            slot_of: LookupMap::default(),
            slot_of_id: vec![0; payload_ids],
            keys: Vec::new(),
            accs: Vec::new(),
            aggregates,
        }
    }

    /// Appends the group of `key`: the next slot.
    fn push(&mut self, key: u64) {
        self.keys.push(key);
        self.accs.push(GroupAcc { values: vec![0.0; self.aggregates], rows: 0 });
    }

    /// Resolves the accumulator slot of each of a batch's raw group keys, in
    /// row order, into `slots`, counting one row per key.
    fn resolve_keys(&mut self, keys: impl Iterator<Item = u64>, slots: &mut Vec<u32>) {
        slots.clear();
        for key in keys {
            let next = self.keys.len() as u32;
            let slot = self.slot_of.get_or_insert(key, || next);
            if slot == next {
                self.push(key);
            }
            self.accs[slot as usize].rows += 1;
            slots.push(slot);
        }
    }

    /// [`GroupArena::resolve_keys`] for build-column groups: each row's key
    /// is `payloads[id]`, and its slot is found by the id.
    fn resolve_ids(&mut self, ids: &[u32], payloads: &[u64], slots: &mut Vec<u32>) {
        slots.clear();
        for &id in ids {
            let next = self.keys.len() as u32;
            let known = &mut self.slot_of_id[id as usize];
            if *known == 0 {
                *known = next + 1;
            }
            let slot = *known - 1;
            if slot == next {
                self.push(payloads[id as usize]);
            }
            self.accs[slot as usize].rows += 1;
            slots.push(slot);
        }
    }

    fn into_groups(self) -> BTreeMap<u64, GroupAcc> {
        self.keys.into_iter().zip(self.accs).collect()
    }
}

/// Compacts `sel` in place to the rows whose probe key finds a partner and
/// writes each kept row's payload id to `ids` — branch-free: every row is
/// written at the compaction cursor, which only advances on a hit, so a
/// hit rate far from 0 or 1 costs no mispredicted branch.
#[inline(always)]
fn probe_compact(sel: &mut Vec<u32>, key_bits: &[u64], ids: &mut Vec<u32>, slot: impl Fn(u64) -> u32) {
    ids.clear();
    ids.resize(sel.len(), 0);
    let mut kept = 0usize;
    for k in 0..sel.len() {
        let s = slot(key_bits[k]);
        sel[kept] = sel[k];
        ids[kept] = s.wrapping_sub(1);
        kept += usize::from(s != 0);
    }
    sel.truncate(kept);
    ids.truncate(kept);
}

/// Evaluates the bound plan over `rows` of its materialised probe columns —
/// vectorized: per [`VECTOR_BATCH_ROWS`] batch, column-at-a-time predicate
/// bit words fill a selection vector, the optional join probe stages its key
/// decodes and compacts, and per-aggregate staging kernels feed
/// sequential accumulation into the group arena — with the whole body
/// compiled for the host's vector ISA (`simd::with_widest_isa`). Rows
/// are processed in ascending storage order; this function is
/// deterministic, side-effect free and bit-identical to
/// [`process_chunk_reference`], so chunks can be evaluated on any thread in
/// any order. `rows` must lie within one chunk
/// ([`MaterializedColumns::chunk_range`] or a part of it).
pub fn process_chunk(bound: &BoundPlan<'_>, rows: Range<usize>) -> ChunkPartial {
    with_widest_isa(
        #[inline(always)]
        || process_chunk_body(bound, rows),
    )
}

/// [`process_chunk`] as compiled for the build's baseline ISA: what a host
/// without AVX2 executes. On an AVX2 host nothing in production calls it;
/// tests and `hostperf`'s in-process kernel A/B reach it through
/// [`KERNEL_COMPILATIONS`].
pub(crate) fn process_chunk_portable(bound: &BoundPlan<'_>, rows: Range<usize>) -> ChunkPartial {
    process_chunk_body(bound, rows)
}

/// The chunk kernel's three compilations, `[reference, baseline,
/// dispatched]`: [`process_chunk_reference`], [`process_chunk`]'s body as
/// compiled for the baseline ISA, and [`process_chunk`]. Only for running
/// them side by side in one process (the bit-identity tests and `hostperf`'s
/// kernel leg); production calls [`process_chunk`].
#[doc(hidden)]
pub const KERNEL_COMPILATIONS: [fn(&BoundPlan<'_>, Range<usize>) -> ChunkPartial; 3] =
    [process_chunk_reference, process_chunk_portable, process_chunk];

#[inline(always)]
fn process_chunk_body(bound: &BoundPlan<'_>, rows: Range<usize>) -> ChunkPartial {
    let BoundPlan { plan, mat: probe, ref pred_pos, join, group: mode, ref agg_pos } = *bound;

    // From here on rows are numbered from the chunk's first row: that is how
    // the chunk's blocks are indexed, and selection vectors never leave this
    // function.
    let (chunk, rows) = probe.chunk_view(&rows);

    let mut partial = ChunkPartial::default();
    // The global group's accumulators live outside the arena: no per-row
    // key lookup, and the accumulation order is unchanged (same additions,
    // same order, one accumulator).
    let mut global = GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 };
    let mut scratch: Vec<f64> = Vec::new();

    // Plans without a join that aggregate into one global group can stream a
    // batch whose every row qualifies: the staging kernels read the columns
    // instead of gathering through an identity selection vector. Dense plans
    // — no predicate either — always do. Each accumulator still receives the
    // same per-row values in the same ascending order.
    let streamable = join.is_none() && matches!(mode, GroupMode::Global);
    let dense = streamable && plan.predicates.is_empty();

    let payload_ids = if let GroupMode::Build(payloads) = mode { payloads.len() } else { 0 };
    let mut arena = GroupArena::new(plan.aggregates.len(), payload_ids);
    let mut word_buf = [0u64; VECTOR_BATCH_ROWS / 64];
    let mut sel: Vec<u32> = Vec::with_capacity(VECTOR_BATCH_ROWS);
    let mut ids: Vec<u32> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let mut key_bits: Vec<u64> = Vec::new();

    let mut lo = rows.start;
    while lo < rows.end {
        let hi = (lo + VECTOR_BATCH_ROWS).min(rows.end);
        let batch = lo..hi;
        lo = hi;
        let rows = if dense {
            partial.selected += batch.len() as u64;
            BatchRows::All(batch)
        } else {
            // 1. Predicate selection.
            let words = predicate_words(&chunk, &plan.predicates, pred_pos, batch.clone(), &mut word_buf);
            let passed: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            partial.selected += passed as u64;
            if passed == 0 {
                continue;
            }
            if streamable && passed == batch.len() {
                BatchRows::All(batch)
            } else {
                select_rows(words, batch.start, &mut sel);

                // 2. Join probe: compact the selection vector to the rows
                //    that found a partner, collecting payload ids for
                //    build-side grouping. The key decodes are staged first;
                //    the lookups run over the key bit patterns in ascending
                //    row order.
                if let Some((key_pos, table)) = join {
                    let col = chunk.cols[key_pos];
                    with_decoder!(chunk.types[key_pos], stage_key_bits(col, &sel, &mut key_bits));
                    match &table.index {
                        KeyIndex::Direct { base, slots: direct } => {
                            probe_compact(&mut sel, &key_bits, &mut ids, |bits| direct_slot(*base, direct, bits))
                        }
                        KeyIndex::Hashed(index) => {
                            probe_compact(&mut sel, &key_bits, &mut ids, |bits| index.get(bits).unwrap_or(0))
                        }
                    }
                }
                BatchRows::Selected(&sel)
            }
        };
        partial.joined += rows.len() as u64;
        if rows.len() == 0 {
            continue;
        }

        // 3. Group accumulation: resolve each surviving row's accumulator,
        //    bump row counts, then run one specialised loop per aggregate.
        match mode {
            // The staging kernels build the per-row inputs, then one
            // sequential fold adds them in ascending row order — the same
            // additions in the same order as the reference. (Counting sums
            // exact small integers: adding 1.0 per row and adding the exactly
            // representable batch total are the same f64.)
            GroupMode::Global => {
                global.rows += rows.len() as u64;
                for (acc, (agg, pos)) in global.values.iter_mut().zip(plan.aggregates.iter().zip(agg_pos)) {
                    if matches!(agg, AggExpr::Count) {
                        *acc += rows.len() as f64;
                        continue;
                    }
                    stage_rows(&chunk, agg, pos, &rows, &mut scratch);
                    for &v in &scratch {
                        *acc += v;
                    }
                }
                continue;
            }
            GroupMode::Probe(group_pos) => {
                arena.resolve_keys(sel.iter().map(|&row| chunk.cols[group_pos][row as usize]), &mut slots)
            }
            GroupMode::Build(payloads) => arena.resolve_ids(&ids, payloads, &mut slots),
        }
        accumulate_grouped(&chunk, plan, agg_pos, &rows, &slots, &mut scratch, &mut arena);
    }

    partial.groups = arena.into_groups();
    if matches!(mode, GroupMode::Global) && global.rows > 0 {
        partial.groups.insert(0, global);
    }
    partial
}

/// Per aggregate, the staging kernels build the per-row inputs, then a sequential
/// scatter adds each staged value into its row's arena slot. Rows are
/// visited in ascending order, so every `(group, aggregate)` accumulator
/// sees the same addition sequence as the row-at-a-time reference — staging
/// changes where the per-row value is computed, not what is added or in
/// what order.
#[inline(always)]
fn accumulate_grouped(
    chunk: &ChunkView<'_>,
    plan: &OlapPlan,
    agg_pos: &[Vec<usize>],
    rows: &BatchRows<'_>,
    slots: &[u32],
    scratch: &mut Vec<f64>,
    arena: &mut GroupArena,
) {
    for (agg_slot, (agg, pos)) in plan.aggregates.iter().zip(agg_pos).enumerate() {
        if matches!(agg, AggExpr::Count) {
            for &slot in slots {
                arena.accs[slot as usize].values[agg_slot] += 1.0;
            }
            continue;
        }
        stage_rows(chunk, agg, pos, rows, scratch);
        for (&slot, &v) in slots.iter().zip(scratch.iter()) {
            arena.accs[slot as usize].values[agg_slot] += v;
        }
    }
}

/// The retained row-at-a-time implementation of [`process_chunk`] — the one
/// reference oracle the vectorized path is property-tested bit-identical
/// against (scans included, as [`OlapPlan::scan`]), and the
/// "pre-vectorization" code path of the `hostperf` benchmark.
pub fn process_chunk_reference(bound: &BoundPlan<'_>, rows: Range<usize>) -> ChunkPartial {
    let BoundPlan { plan, mat: probe, ref pred_pos, join, group, ref agg_pos } = *bound;
    let group_probe_pos = match group {
        GroupMode::Probe(pos) => Some(pos),
        _ => None,
    };

    let mut partial = ChunkPartial::default();
    for row in rows {
        if plan.predicates.iter().zip(pred_pos).any(|(p, &pos)| !p.matches(probe.value(pos, row))) {
            continue;
        }
        partial.selected += 1;
        let mut group_key = group_probe_pos.map_or(0, |pos| probe.raw(pos, row));
        if let Some((key_pos, table)) = join {
            let Some(payload) = table.get(probe.value(key_pos, row).to_bits()) else { continue };
            if matches!(group, GroupMode::Build(_)) {
                group_key = payload;
            }
        }
        partial.joined += 1;
        let acc = partial
            .groups
            .entry(group_key)
            .or_insert_with(|| GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 });
        acc.rows += 1;
        for (slot, (agg, pos)) in plan.aggregates.iter().zip(agg_pos).enumerate() {
            acc.values[slot] += match agg {
                AggExpr::SumProduct(..) => probe.value(pos[0], row) * probe.value(pos[1], row),
                AggExpr::SumColumns(_) => pos.iter().map(|&p| probe.value(p, row)).sum(),
                AggExpr::Count => 1.0,
            };
        }
    }
    partial
}

/// Merges per-chunk partials **in the order given** (callers pass ascending
/// chunk order — this is what keeps f64 aggregates byte-identical across
/// sites) and emits groups in ascending raw-key order. A plan without
/// `group_by` always yields exactly one global group (key 0, zeroed when no
/// row qualified), so scan-style plans have a scalar answer even on empty
/// selections; grouped plans yield one group per key that actually occurred.
pub fn merge_partials(plan: &OlapPlan, partials: Vec<ChunkPartial>) -> (Vec<GroupRow>, PlanTotals) {
    let mut totals = PlanTotals::default();
    let mut merged: BTreeMap<u64, GroupAcc> = BTreeMap::new();
    for partial in partials {
        totals.selected += partial.selected;
        totals.joined += partial.joined;
        for (key, acc) in partial.groups {
            match merged.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(acc);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let g = slot.get_mut();
                    g.rows += acc.rows;
                    for (v, add) in g.values.iter_mut().zip(&acc.values) {
                        *v += add;
                    }
                }
            }
        }
    }
    if plan.group_by.is_none() && merged.is_empty() {
        merged.insert(0, GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 });
    }
    let groups = merged.into_iter().map(|(key, acc)| GroupRow { key, values: acc.values, rows: acc.rows }).collect();
    (groups, totals)
}

/// One chunk's answer to a [`ScanAggQuery`], as [`scan_chunk`] reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanChunkPartial {
    /// Partial aggregate over the chunk's qualifying rows.
    pub value: f64,
    /// Rows in the chunk that satisfied every predicate.
    pub qualifying: u64,
}

/// Whether any row of chunk `chunk` *could* satisfy the bound plan's probe
/// predicates, judged from the zonemap statistics [`MaterializedColumns::new`]
/// built at materialisation time — O(#predicates), no data scan. `true` is
/// always safe; `false` guarantees the chunk holds no qualifying row, so
/// skipping it cannot change the aggregate (the chunk's partial would be
/// exactly zero).
pub fn scan_chunk_can_qualify(bound: &BoundPlan<'_>, chunk: usize) -> bool {
    let mat = bound.mat;
    if !mat.zonemapped {
        // Materialised without statistics (the retained pre-PR baseline):
        // fall back to recomputing from the data.
        return scan_chunk_can_qualify_reference(bound, mat.chunk_range(chunk));
    }
    for (pred, &pos) in bound.plan.predicates.iter().zip(&bound.pred_pos) {
        let (min, max) = mat.zonemap(pos, chunk);
        if max < pred.lo || min > pred.hi {
            return false;
        }
    }
    true
}

/// The retained pre-zonemap-statistics implementation: recomputes each
/// predicate column's min/max with a full O(chunk) scan on every call. Kept
/// as the oracle for [`scan_chunk_can_qualify`] and as the
/// "pre-optimisation" code path of the `hostperf` benchmark.
pub fn scan_chunk_can_qualify_reference(bound: &BoundPlan<'_>, rows: Range<usize>) -> bool {
    let mat = bound.mat;
    for (pred, &pos) in bound.plan.predicates.iter().zip(&bound.pred_pos) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for row in rows.clone() {
            let v = mat.value(pos, row);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi < pred.lo || lo > pred.hi {
            return false;
        }
    }
    true
}

/// [`process_chunk`] over [`OlapPlan::scan`], reshaped to a scalar partial.
/// Kept only because the frozen `benchmark/` package calls it; the engine
/// itself evaluates scans as plans. Panics if `mat` lacks a column the
/// query reads.
#[expect(
    clippy::expect_used,
    reason = "the frozen benchmark's signature has no error path; it always passes the query's own columns, and ROADMAP 11(e) deletes this adapter."
)]
pub fn scan_chunk(mat: &MaterializedColumns, query: &ScanAggQuery, rows: Range<usize>) -> ScanChunkPartial {
    let plan = OlapPlan::scan(query);
    let bound = BoundPlan::new(mat, None, &plan).expect("the query's columns are materialised");
    let partial = process_chunk(&bound, rows);
    ScanChunkPartial { value: partial.groups.get(&0).map_or(0.0, |g| g.values[0]), qualifying: partial.joined }
}

/// Folds [`scan_chunk`] partials **in the order given** into the query's
/// `(value, qualifying_rows)` — [`merge_partials`] for the single global
/// group. Kept only because the frozen `benchmark/` package calls it.
pub fn merge_scan_partials(partials: impl IntoIterator<Item = ScanChunkPartial>) -> (f64, u64) {
    partials.into_iter().fold((0.0, 0), |(value, rows), p| (value + p.value, rows + p.qualifying))
}

/// Everything a site needs before it can evaluate a plan's chunks: the
/// materialised probe columns and the (optional) join hash table, as
/// [`crate::cache::PlanDataCache::prepare_plan`] derives them. Both are
/// shared (`Arc`) so the snapshot-keyed cache can hand the same instances
/// to every site and every query of a snapshot.
#[derive(Debug, Clone)]
pub struct PlanData {
    /// Accessed probe columns, materialised in storage order.
    pub mat: Arc<MaterializedColumns>,
    /// The join hash table (present exactly when the plan joins).
    pub hash: Option<Arc<JoinHashTable>>,
}

impl PlanData {
    /// Binds `plan` to this data once per query: see [`BoundPlan`]. Fails if
    /// the plan joins and there is no hash table, if there is a hash table
    /// and the plan does not join, or if the plan reads a probe column that
    /// was not materialised.
    pub fn bind<'a>(&'a self, plan: &'a OlapPlan) -> Result<BoundPlan<'a>> {
        BoundPlan::new(&self.mat, self.hash.as_deref(), plan)
    }
}

/// A plan resolved against the data it runs over: every predicate,
/// aggregate and group column as its position among the materialised probe
/// columns, and the join's probe position paired with its hash table. The
/// chunk kernels take only this, so a join plan without a hash table, or a
/// column nobody materialised, is an error at [`PlanData::bind`] and cannot
/// reach them.
#[derive(Debug)]
pub struct BoundPlan<'a> {
    plan: &'a OlapPlan,
    mat: &'a MaterializedColumns,
    pred_pos: Vec<usize>,
    join: Option<(usize, &'a JoinHashTable)>,
    group: GroupMode<'a>,
    /// Per aggregate, the positions of its input columns.
    agg_pos: Vec<Vec<usize>>,
}

impl<'a> BoundPlan<'a> {
    pub(crate) fn new(
        mat: &'a MaterializedColumns,
        hash: Option<&'a JoinHashTable>,
        plan: &'a OlapPlan,
    ) -> Result<Self> {
        let join = match (&plan.join, hash) {
            (Some(join), Some(table)) => Some((mat.pos(join.probe_column)?, table)),
            (None, None) => None,
            (Some(_), None) => return Err(H2Error::Config("join plan bound without a hash table".into())),
            (None, Some(_)) => return Err(H2Error::Config("hash table bound to a plan without a join".into())),
        };
        let group = match (plan.group_by, join) {
            (None, _) => GroupMode::Global,
            (Some(PlanColumn::Probe(col)), _) => GroupMode::Probe(mat.pos(col)?),
            (Some(PlanColumn::Build(_)), Some((_, table))) => GroupMode::Build(&table.payloads),
            (Some(PlanColumn::Build(_)), None) => {
                return Err(H2Error::Config("group-by on the build side requires a join".into()))
            }
        };
        let pred_pos = plan.predicates.iter().map(|p| mat.pos(p.column)).collect::<Result<_>>()?;
        let agg_pos = plan
            .aggregates
            .iter()
            .map(|a| a.columns().iter().map(|&c| mat.pos(c)).collect::<Result<_>>())
            .collect::<Result<_>>()?;
        Ok(Self { plan, mat, pred_pos, join, group, agg_pos })
    }
}

/// Validates a plan against the tables it is about to run over: checks the
/// plan/table pairing and rejects empty tables, returning the build-side
/// group column (if any). Every site calls it before touching a device and
/// [`crate::cache::PlanDataCache::prepare_plan`] before deriving anything,
/// so all of them reject malformed inputs identically.
pub fn check_plan_tables(
    probe_table: &SnapshotTable,
    build_table: Option<&SnapshotTable>,
    plan: &OlapPlan,
) -> Result<Option<usize>> {
    let build_group_col = check_plan(plan, build_table.is_some())?;
    if probe_table.row_count() == 0 {
        return Err(H2Error::InvalidKernel("cannot execute a plan over an empty probe table".into()));
    }
    if let Some(build) = build_table {
        if build.row_count() == 0 {
            return Err(H2Error::InvalidKernel("cannot execute a join plan over an empty build table".into()));
        }
    }
    Ok(build_group_col)
}

/// Validates `plan` against the presence of a build table and returns the
/// group column on the build side (if any). Shared by both sites so they
/// reject malformed plans identically.
pub fn check_plan(plan: &OlapPlan, has_build: bool) -> Result<Option<usize>> {
    plan.validate().map_err(H2Error::Config)?;
    match (&plan.join, has_build) {
        (Some(_), false) => return Err(H2Error::Config("join plan executed without a build table".into())),
        (None, true) => return Err(H2Error::Config("build table supplied but the plan has no join".into())),
        _ => {}
    }
    Ok(match plan.group_by {
        Some(PlanColumn::Build(c)) => Some(c),
        _ => None,
    })
}

/// What [`evaluate_plan`] computed: the plan's answer plus the counters the
/// sites' cost models charge from.
#[derive(Debug, Clone)]
pub(crate) struct PlanEvaluation {
    /// Result groups in ascending raw-key order.
    pub groups: Vec<GroupRow>,
    /// Plan-wide row counters.
    pub totals: PlanTotals,
    /// Row counters per chunk, in ascending chunk order (what a sharded
    /// site attributes to the device that owns the chunk).
    pub chunk_totals: Vec<PlanTotals>,
    /// Rows of the chunks that were actually evaluated.
    pub rows_scanned: u64,
    /// Chunks a zonemap proved empty.
    pub chunks_skipped: u64,
    /// Worker threads the chunks ran on.
    pub threads_used: usize,
}

/// The one "evaluate chunks in order, merge in order" routine behind every
/// execution site: runs [`process_chunk`] over each fixed chunk of the
/// bound probe columns on up to `threads` scoped workers and merges the
/// partials in ascending chunk order, so the groups are byte-identical for
/// any thread count. With `skip_by_zonemap`, a chunk whose zonemap proves no
/// row can satisfy the probe predicates is not evaluated; its partial would
/// be empty, so the groups do not change by a bit. The whole evaluation is one
/// wall-clock [`SpanKind::Compute`] span of `site`, carrying the cell bytes
/// of the evaluated chunks.
pub(crate) fn evaluate_plan(
    bound: &BoundPlan<'_>,
    threads: usize,
    skip_by_zonemap: bool,
    tracer: &Tracer,
    site: OlapTarget,
) -> PlanEvaluation {
    let computing = tracer.start();
    let BoundPlan { plan, mat, .. } = *bound;
    let chunks = mat.chunk_count();
    let threads_used = threads.clamp(1, pool::MAX_PLAN_THREADS).min(chunks);
    let skip = skip_by_zonemap && !plan.predicates.is_empty();
    let evaluated: Vec<Option<ChunkPartial>> = pool::run_chunked(chunks, threads_used, |i| {
        if skip && !scan_chunk_can_qualify(bound, i) {
            return None;
        }
        Some(process_chunk(bound, mat.chunk_range(i)))
    });
    let mut rows_scanned = 0u64;
    let mut chunks_skipped = 0u64;
    let mut chunk_totals = Vec::with_capacity(chunks);
    let mut partials = Vec::with_capacity(chunks);
    for (i, partial) in evaluated.into_iter().enumerate() {
        match &partial {
            Some(_) => rows_scanned += mat.chunk_range(i).len() as u64,
            None => chunks_skipped += 1,
        }
        let partial = partial.unwrap_or_default();
        chunk_totals.push(PlanTotals { selected: partial.selected, joined: partial.joined });
        partials.push(partial);
    }
    let (groups, totals) = merge_partials(plan, partials);
    let bytes = rows_scanned * mat.cols.len() as u64 * 8;
    tracer.record_wall(SpanEvent::new(SpanKind::Compute).site(site).bytes(bytes), computing);
    PlanEvaluation { groups, totals, chunk_totals, rows_scanned, chunks_skipped, threads_used }
}

#[cfg(test)]
impl MaterializedColumns {
    /// Panics unless `self` and `other` hold the same bytes: columns, types,
    /// rows, every cell and the bit patterns of every zonemap bound.
    pub(crate) fn assert_same_bytes(&self, other: &Self, label: &str) {
        assert_eq!((&self.cols, &self.types, self.rows), (&other.cols, &other.types, other.rows), "{label}");
        assert_eq!(self.zonemapped, other.zonemapped, "{label}");
        for (pos, (mine, theirs)) in self.blocks.iter().zip(&other.blocks).enumerate() {
            assert_eq!(mine.len(), theirs.len(), "{label}: column {pos} block count");
            for (chunk, (a, b)) in mine.iter().zip(theirs).enumerate() {
                assert!(a.cells == b.cells, "{label}: cells of column {pos} chunk {chunk} differ");
                assert_eq!(
                    (a.min.to_bits(), a.max.to_bits()),
                    (b.min.to_bits(), b.max.to_bits()),
                    "{label}: zonemap of column {pos} chunk {chunk}"
                );
            }
        }
    }

    /// Whether chunk `chunk` of column `col` is the very block `other` holds
    /// for that column and chunk (shared, not copied).
    pub(crate) fn shares_block(&self, other: &Self, col: usize, chunk: usize) -> bool {
        let (mine, theirs) = (self.pos(col).unwrap(), other.pos(col).unwrap());
        Arc::ptr_eq(&self.blocks[mine][chunk], &other.blocks[theirs][chunk])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{PartitionId, Predicate, Schema, Value};
    use h2tap_storage::{Database, Layout};

    /// probe: key = i, fk = i % 100, val = i as f64; build: key = 0..50,
    /// size = key % 10, brand = key % 5.
    fn tables(probe_rows: i64) -> (SnapshotTable, SnapshotTable) {
        let db = Database::new(1);
        let probe_schema = Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("fk", AttrType::Int64),
            h2tap_common::Attribute::new("val", AttrType::Float64),
        ])
        .unwrap();
        let p = db.create_table("probe", probe_schema, Layout::Dsm).unwrap();
        for i in 0..probe_rows {
            db.insert(PartitionId(0), p, &[Value::Int64(i), Value::Int64(i % 100), Value::Float64(i as f64)]).unwrap();
        }
        let build_schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let b = db.create_table("build", build_schema, Layout::Dsm).unwrap();
        for i in 0..50i64 {
            db.insert(
                PartitionId(0),
                b,
                &[Value::Int64(i), Value::Int32((i % 10) as i32), Value::Int32((i % 5) as i32)],
            )
            .unwrap();
        }
        let snap = db.snapshot();
        (snap.table(p).unwrap().clone(), snap.table(b).unwrap().clone())
    }

    fn join_plan() -> OlapPlan {
        OlapPlan {
            predicates: vec![],
            join: Some(JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
            }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
        }
    }

    #[test]
    fn hash_build_filters_and_carries_group_payload() {
        let (_, build) = tables(10);
        let plan = join_plan();
        let table = build_hash_table(&build, plan.join.as_ref().unwrap(), Some(2)).unwrap();
        // size <= 4 keeps keys with key % 10 in 0..=4: 25 of 50.
        assert_eq!(table.entries(), 25);
        assert_eq!(table.build_rows_in, 50);
        // Key 3 survives, payload is brand 3 % 5 = 3 (raw Int32 cell).
        assert_eq!(table.get(3.0f64.to_bits()), Some(3));
        assert_eq!(table.get(5.0f64.to_bits()), None);
    }

    #[test]
    fn duplicate_build_keys_are_rejected() {
        // A build table keyed on a column with repeats (i % 2) violates the
        // PK-join contract.
        let join = JoinSpec { probe_column: 0, build_key: 1, build_predicates: vec![] };
        let db = Database::new(1);
        let t = db.create_table("b", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..4i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i % 2)]).unwrap();
        }
        let snap = db.snapshot();
        let dup = snap.table(t).unwrap().clone();
        assert!(build_hash_table(&dup, &join, None).is_err());
    }

    /// The join table over a build table of Float64 `keys` whose payload is
    /// the Int64 `i % 7` of the `i`-th key.
    fn keyed_join_table(keys: &[f64]) -> Result<JoinHashTable> {
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Float64),
            h2tap_common::Attribute::new("payload", AttrType::Int64),
        ])
        .unwrap();
        let t = db.create_table("keys", schema, Layout::Dsm).unwrap();
        for (i, &key) in keys.iter().enumerate() {
            db.insert(PartitionId(0), t, &[Value::Float64(key), Value::Int64((i % 7) as i64)]).unwrap();
        }
        let join = JoinSpec { probe_column: 0, build_key: 0, build_predicates: vec![] };
        build_hash_table(db.snapshot().table(t).unwrap(), &join, Some(1))
    }

    #[test]
    fn join_key_index_matches_a_bit_keyed_reference_on_both_arms() {
        let past = (1u64 << 53) as f64;
        let bound = MIN_DIRECT_SLOTS as f64;
        let dense: Vec<f64> = (0..1_000).map(f64::from).collect();
        let cases: Vec<(&str, Vec<f64>, bool)> = vec![
            ("dense 0..n", dense.clone(), true),
            ("offset negative", (-50..50).map(f64::from).collect(), true),
            ("span at the bound", vec![0.0, bound - 1.0], true),
            ("span past the bound", vec![0.0, bound], false),
            ("sparse", (0..1_000).map(|k| f64::from(k) * 1_000.0).collect(), false),
            ("fractional", (0..1_000).map(|k| f64::from(k) + 0.5).collect(), false),
            ("zero probed with -0.0", vec![0.0, 1.0, 2.0], true),
            ("dense plus one far key", dense.iter().copied().chain([1e12]).collect(), false),
            ("past 2^53", vec![past + 2.0, past + 4.0, past + 6.0], false),
        ];
        for (label, keys, direct) in cases {
            let table = keyed_join_table(&keys).unwrap();
            assert_eq!(matches!(table.index, KeyIndex::Direct { .. }), direct, "{label}: index arm");
            assert_eq!(table.entries(), keys.len() as u64, "{label}");
            let reference: BTreeMap<u64, u64> =
                keys.iter().enumerate().map(|(i, k)| (k.to_bits(), (i % 7) as u64)).collect();
            let specials =
                [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, past, 1e300, -1e300, 9.3e18];
            let probes = keys.iter().flat_map(|&k| [k, k - 1.0, k + 1.0, k - 0.5, k + 0.5]).chain(specials);
            for probe in probes {
                let bits = probe.to_bits();
                assert_eq!(table.get(bits), reference.get(&bits).copied(), "{label}: probe {probe} ({bits:#x})");
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_on_both_index_arms() {
        for (label, keys) in [("direct", vec![0.0, 1.0, 2.0, 1.0]), ("hashed", vec![0.5, 1.5, 0.5])] {
            let err = keyed_join_table(&keys).unwrap_err();
            assert!(err.to_string().contains("duplicate build key"), "{label}: {err}");
        }
    }

    #[test]
    fn mulshift_hasher_is_deterministic_and_spreads_bits() {
        let hash = |key: u64| {
            let mut h = MulShiftHasher::default();
            h.write_u64(key);
            h.finish()
        };
        assert_eq!(hash(42), hash(42), "same key, same hash, every time");
        // f64 bit patterns of consecutive integers differ only in a few
        // high mantissa bits; the finaliser must spread them across the low
        // bits the hash map buckets on.
        let mut low_bits = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            low_bits.insert(hash((i as f64).to_bits()) & 0x3f);
        }
        assert!(low_bits.len() > 32, "low 6 bits should be well spread, got {} distinct", low_bits.len());
    }

    #[test]
    fn chunked_evaluation_matches_a_scalar_reference() {
        let (probe, build) = tables(1_000);
        let plan = join_plan();
        let hash = build_hash_table(&build, plan.join.as_ref().unwrap(), Some(2)).unwrap();
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        let bound = BoundPlan::new(&mat, Some(&hash), &plan).unwrap();
        let partials: Vec<ChunkPartial> =
            (0..mat.chunk_count()).map(|i| process_chunk(&bound, mat.chunk_range(i))).collect();
        let (groups, totals) = merge_partials(&plan, partials);
        // fk = i % 100 joins when it hits one of the 25 surviving build keys
        // (fk < 50 and fk % 10 <= 4), each fk value occurring 10 times.
        assert_eq!(totals.selected, 1_000);
        assert_eq!(totals.joined, 250);
        // Groups are brands 0..5 of surviving keys.
        assert_eq!(groups.len(), 5);
        let total_rows: u64 = groups.iter().map(|g| g.rows).sum();
        assert_eq!(total_rows, 250);
        // SumColumns([2]) over probe col2 = i as f64; reference per brand.
        let mut expect: BTreeMap<u64, f64> = BTreeMap::new();
        for i in 0..1_000u64 {
            let fk = i % 100;
            if fk % 10 <= 4 && fk < 50 {
                let brand = (fk % 5) as u32 as u64;
                *expect.entry(brand).or_default() += i as f64;
            }
        }
        for g in &groups {
            let want = expect[&g.key];
            assert!((g.values[0] - want).abs() < 1e-9, "brand {} got {} want {want}", g.key, g.values[0]);
            assert_eq!(g.values[1], g.rows as f64, "count aggregate tracks rows");
        }
    }

    #[test]
    fn vectorized_plan_chunks_are_bit_identical_to_the_reference() {
        // Several chunks, every group mode, predicates + join.
        let (probe, build) = tables(200_000);
        let base = join_plan();
        let plans = [
            base.clone(),
            OlapPlan { predicates: vec![Predicate::between(0, 100.0, 150_000.0)], ..base.clone() },
            OlapPlan { group_by: Some(PlanColumn::Probe(1)), ..base.clone() },
            OlapPlan { group_by: None, ..base.clone() },
            OlapPlan {
                predicates: vec![Predicate::between(1, 10.0, 59.0)],
                join: None,
                group_by: Some(PlanColumn::Probe(1)),
                aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count, AggExpr::SumColumns(vec![0, 2])],
            },
        ];
        for plan in plans {
            let hash = match &plan.join {
                Some(join) => {
                    let group_col = check_plan(&plan, true).unwrap();
                    Some(build_hash_table(&build, join, group_col).unwrap())
                }
                None => None,
            };
            let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
            let bound = BoundPlan::new(&mat, hash.as_ref(), &plan).unwrap();
            for i in 0..mat.chunk_count() {
                let fast = process_chunk(&bound, mat.chunk_range(i));
                let slow = process_chunk_reference(&bound, mat.chunk_range(i));
                assert_eq!(fast.selected, slow.selected);
                assert_eq!(fast.joined, slow.joined);
                assert_eq!(fast.groups.len(), slow.groups.len());
                for ((fk, fa), (sk, sa)) in fast.groups.iter().zip(&slow.groups) {
                    assert_eq!(fk, sk);
                    assert_eq!(fa.rows, sa.rows);
                    for (x, y) in fa.values.iter().zip(&sa.values) {
                        assert_eq!(x.to_bits(), y.to_bits(), "chunk {i} group {fk}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_order_is_chunk_order() {
        let (probe, _) = tables(200_000);
        let plan =
            OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::SumColumns(vec![2])] };
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        assert!(mat.chunk_count() > 1, "test needs several chunks");
        let bound = BoundPlan::new(&mat, None, &plan).unwrap();
        let partials: Vec<ChunkPartial> =
            (0..mat.chunk_count()).map(|i| process_chunk(&bound, mat.chunk_range(i))).collect();
        let (a, _) = merge_partials(&plan, partials.clone());
        let (b, _) = merge_partials(&plan, partials);
        // Bit-equal on repeat evaluation: the contract the sites rely on.
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].key, 0);
    }

    #[test]
    fn ungrouped_plans_always_emit_the_global_group() {
        let (probe, _) = tables(100);
        // A predicate nothing satisfies: the selection is empty.
        let plan = OlapPlan {
            predicates: vec![Predicate::between(0, 1e9, 2e9)],
            join: None,
            group_by: None,
            aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
        };
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        let partials = vec![process_chunk(&BoundPlan::new(&mat, None, &plan).unwrap(), mat.chunk_range(0))];
        let (groups, totals) = merge_partials(&plan, partials);
        assert_eq!(totals.joined, 0);
        assert_eq!(groups, vec![GroupRow { key: 0, values: vec![0.0, 0.0], rows: 0 }]);
        // A grouped plan with an empty selection stays empty: no phantom
        // groups.
        let grouped = OlapPlan { group_by: Some(PlanColumn::Probe(0)), ..plan.clone() };
        let mat = MaterializedColumns::new(&probe, grouped.probe_columns_accessed()).unwrap();
        let partials = vec![process_chunk(&BoundPlan::new(&mat, None, &grouped).unwrap(), mat.chunk_range(0))];
        let (groups, _) = merge_partials(&grouped, partials);
        assert!(groups.is_empty());
    }

    #[test]
    fn scan_chunks_match_a_scalar_reference_and_merge_bit_equal() {
        let (probe, _) = tables(200_000);
        let query =
            ScanAggQuery { predicates: vec![Predicate::between(1, 10.0, 59.0)], aggregate: AggExpr::SumProduct(1, 2) };
        let mat = MaterializedColumns::new(&probe, query.columns_accessed()).unwrap();
        assert!(mat.chunk_count() > 1, "test needs several chunks");
        let partials: Vec<ScanChunkPartial> =
            (0..mat.chunk_count()).map(|i| scan_chunk(&mat, &query, mat.chunk_range(i))).collect();
        let (value, qualifying) = merge_scan_partials(partials.clone());
        let (again, _) = merge_scan_partials(partials);
        assert_eq!(value, again, "same partials in the same order are bit-equal");
        // Scalar reference: fk = i % 100 in 10..=59, aggregate fk * i.
        let mut expect = 0.0f64;
        let mut rows = 0u64;
        for i in 0..200_000u64 {
            let fk = i % 100;
            if (10..=59).contains(&fk) {
                expect += fk as f64 * i as f64;
                rows += 1;
            }
        }
        assert_eq!(qualifying, rows);
        assert!((value - expect).abs() < expect.abs() * 1e-12, "{value} vs {expect}");
    }

    #[test]
    fn parallel_materialisation_matches_a_serial_copy_and_fold() {
        // Cell data must be byte-identical to the plain serial copy (it is
        // a pure copy); zonemap bounds must be numerically equal to a
        // min/max fold over the chunk (the lane-split min/max may pick a
        // different -0.0/+0.0 tie representative, which numeric equality
        // deliberately admits). Row counts cross chunk and lane boundaries.
        for rows in [1i64, 7, 1024, PLAN_CHUNK_ROWS as i64, PLAN_CHUNK_ROWS as i64 + 9, 200_000] {
            let (probe, _) = tables(rows);
            let cols = vec![0usize, 1, 2];
            let par = MaterializedColumns::new(&probe, cols.clone()).unwrap();
            let ser = MaterializedColumns::new_without_zonemaps(&probe, cols).unwrap();
            assert_eq!(par.rows, ser.rows);
            for pos in 0..par.cols.len() {
                for chunk in 0..par.chunk_count() {
                    let (p, s) = (&par.blocks[pos][chunk], &ser.blocks[pos][chunk]);
                    assert_eq!(p.cells, s.cells, "{rows} rows: copied cells must be byte-identical");
                    let values = par.chunk_range(chunk).map(|row| ser.value(pos, row));
                    let (lo, hi) =
                        values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
                    assert_eq!(par.zonemap(pos, chunk), (lo, hi), "{rows} rows, column {pos}, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn zonemap_check_is_safe_and_skipping_preserves_the_answer() {
        // col0 = i is inserted sorted, so chunk min/max bound it tightly.
        let (probe, _) = tables(200_000);
        let query = ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 999.0)], aggregate: AggExpr::Count };
        let mat = MaterializedColumns::new(&probe, query.columns_accessed()).unwrap();
        let plan = OlapPlan::scan(&query);
        let bound = BoundPlan::new(&mat, None, &plan).unwrap();
        let mut skipped = 0usize;
        let mut kept = Vec::new();
        for i in 0..mat.chunk_count() {
            let range = mat.chunk_range(i);
            let can = scan_chunk_can_qualify(&bound, i);
            // The O(#preds) stats answer must agree with the O(chunk)
            // recomputation it replaced.
            assert_eq!(can, scan_chunk_can_qualify_reference(&bound, range.clone()));
            if can {
                kept.push(scan_chunk(&mat, &query, range));
            } else {
                // Safety: a skipped chunk must truly have an all-zero partial.
                assert_eq!(scan_chunk(&mat, &query, range), ScanChunkPartial::default());
                skipped += 1;
            }
        }
        assert!(skipped > 0, "sorted data must allow skipping");
        let (value, qualifying) = merge_scan_partials(kept);
        assert_eq!(value, 1_000.0);
        assert_eq!(qualifying, 1_000);
    }

    #[test]
    fn check_plan_enforces_join_build_pairing() {
        let plan = join_plan();
        assert_eq!(check_plan(&plan, true).unwrap(), Some(2));
        assert!(check_plan(&plan, false).is_err());
        let scan = OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::Count] };
        assert_eq!(check_plan(&scan, false).unwrap(), None);
        assert!(check_plan(&scan, true).is_err());

        // Binding enforces the same pairing against the data itself, and
        // that the probe columns the plan reads were materialised.
        let (probe, build) = tables(100);
        let hash = Arc::new(build_hash_table(&build, plan.join.as_ref().unwrap(), Some(2)).unwrap());
        let mat = Arc::new(MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap());
        let joined = PlanData { mat: Arc::clone(&mat), hash: Some(hash) };
        let bare = PlanData { mat, hash: None };
        assert!(joined.bind(&plan).is_ok());
        assert!(bare.bind(&scan).is_ok());
        let no_hash = bare.bind(&plan).unwrap_err();
        assert!(matches!(no_hash, H2Error::Config(_)), "join plan without a hash table: {no_hash}");
        let stray_hash = joined.bind(&scan).unwrap_err();
        assert!(matches!(stray_hash, H2Error::Config(_)), "hash table for a plan without a join: {stray_hash}");
        // The join plan reads probe columns 1 and 2; column 0 exists but was
        // not materialised.
        let unread = OlapPlan { aggregates: vec![AggExpr::SumColumns(vec![0])], ..plan.clone() };
        let missing = joined.bind(&unread).unwrap_err();
        assert!(matches!(missing, H2Error::InvalidKernel(_)), "column the materialisation lacks: {missing}");
    }
}
