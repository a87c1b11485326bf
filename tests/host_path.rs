//! The vectorized host data path and the snapshot-keyed plan-data cache:
//! property tests pinning the explicit-SIMD batch execution bit-identical
//! to the row-at-a-time reference — scans included, as the scan-shaped
//! plans they are — across layouts, chunk- and lane-boundary row counts and
//! adversarial values (NaN-bit group keys, negative zero), plus cache
//! semantics through
//! the production engine (epoch invalidation, hit/miss accounting,
//! cross-site sharing).

use caldera::{Caldera, CalderaConfig, OlapTarget, SnapshotPolicy};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{
    AggExpr, AttrType, Attribute, JoinSpec, OlapPlan, PartitionId, PlanColumn, Predicate, ScanAggQuery, Schema, Value,
    PLAN_CHUNK_ROWS,
};
use h2tap_olap::operators as ops;
use h2tap_olap::PlanDataCache;
use h2tap_storage::{Database, Layout, SnapshotTable};
use std::sync::Arc;

/// A 4-column table (Int64 key, Int64 fk, Float64 val, Int32 bucket) with
/// `rows` rows of seeded pseudo-random data. A slice of the Float64 column
/// is salted with a quiet NaN and negative zeros: their raw bit patterns
/// must flow through predicates, aggregates and group keys without
/// perturbing cross-path bit-equality.
///
/// Deliberately a *single* NaN payload: summing one quiet NaN payload is
/// bit-deterministic, but when *two different* NaN payloads meet in one
/// `+`, IEEE 754 leaves the result payload unspecified and compilers may
/// commute the operands — so multi-payload NaN *aggregation* is outside
/// every bit-identity contract. Multi-payload NaNs as *group keys* (raw
/// bits, no arithmetic) are covered by
/// [`nan_bit_patterns_are_distinct_group_keys`].
fn random_table(layout: Layout, rows: u64, seed: u64) -> SnapshotTable {
    let db = Database::new(2);
    let schema = Schema::new(vec![
        Attribute::new("k", AttrType::Int64),
        Attribute::new("fk", AttrType::Int64),
        Attribute::new("val", AttrType::Float64),
        Attribute::new("bucket", AttrType::Int32),
    ])
    .unwrap();
    let t = db.create_table("t", schema, layout).unwrap();
    let mut rng = SplitMixRng::new(seed);
    for i in 0..rows {
        let val = match rng.next_below(16) {
            0 | 1 => f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, one payload
            2 => -0.0,
            _ => (rng.next_f64() - 0.5) * 2e6,
        };
        db.insert(
            PartitionId((i % 2) as u32),
            t,
            &[
                Value::Int64(i as i64),
                Value::Int64(rng.next_below(97) as i64),
                Value::Float64(val),
                Value::Int32(rng.next_below(13) as i32),
            ],
        )
        .unwrap();
    }
    db.snapshot().table(t).unwrap().clone()
}

/// The build side of the join plans: key = 0..97 (covers every fk of
/// [`random_table`]), size = key % 8, class = key % 5. Dense keys: the join
/// table indexes them directly.
fn dim_table() -> SnapshotTable {
    keyed_dim_table(|i| i)
}

/// [`dim_table`] with every fourth key moved far below zero (`-(i << 20)`):
/// three quarters of the fks still find their partner, but the keys are
/// negative and sparse, so the join table falls back to its hash index.
fn sparse_dim_table() -> SnapshotTable {
    keyed_dim_table(|i| if i % 4 == 0 { -(i << 20) } else { i })
}

/// A 97-row dimension table: row `i` has key `key(i)`, size `i % 8` and
/// class `i % 5`.
fn keyed_dim_table(key: impl Fn(i64) -> i64) -> SnapshotTable {
    let db = Database::new(1);
    let schema = Schema::new(vec![
        Attribute::new("key", AttrType::Int64),
        Attribute::new("size", AttrType::Int32),
        Attribute::new("class", AttrType::Int32),
    ])
    .unwrap();
    let b = db.create_table("dim", schema, Layout::Dsm).unwrap();
    for i in 0..97i64 {
        db.insert(
            PartitionId(0),
            b,
            &[Value::Int64(key(i)), Value::Int32((i % 8) as i32), Value::Int32((i % 5) as i32)],
        )
        .unwrap();
    }
    let table = db.snapshot().table(b).unwrap().clone();
    table
}

/// Row counts covering the chunk- and lane-boundary cases: empty, one row,
/// SIMD-lane edges (below/at/above the 4- and 8-lane widths), batch-edge
/// sizes, one chunk exactly, an exact multiple of chunks, and a multiple
/// plus a partial tail.
fn boundary_row_counts() -> Vec<u64> {
    vec![
        0,
        1,
        5,
        8,
        9,
        17,
        1023,
        1024,
        1025,
        1031,
        PLAN_CHUNK_ROWS as u64,
        2 * PLAN_CHUNK_ROWS as u64,
        2 * PLAN_CHUNK_ROWS as u64 + 17,
    ]
}

/// One plan's materialised probe columns and optional join hash table, as a
/// site holds them.
fn plan_data(mat: ops::MaterializedColumns, hash: Option<ops::JoinHashTable>) -> ops::PlanData {
    ops::PlanData { mat: Arc::new(mat), hash: hash.map(Arc::new) }
}

/// A scan is the degenerate plan `OlapPlan::scan`: the `scan_chunk` adapter,
/// the plan kernel's global group and the row-at-a-time reference must agree
/// bit for bit on every chunk.
fn assert_scan_bit_identical(data: &ops::PlanData, query: &ScanAggQuery, label: &str) {
    let plan = OlapPlan::scan(query);
    let bound = data.bind(&plan).unwrap();
    let mat = &data.mat;
    for i in 0..mat.chunk_count() {
        let range = mat.chunk_range(i);
        let fast = ops::scan_chunk(mat, query, range.clone());
        let planned = ops::process_chunk(&bound, range.clone());
        let slow = ops::process_chunk_reference(&bound, range.clone());
        let slow_value = slow.groups.get(&0).map_or(0.0, |g| g.values[0]);
        assert_eq!(fast.qualifying, slow.joined, "{label} chunk {i}");
        assert_eq!(fast.value.to_bits(), slow_value.to_bits(), "{label} chunk {i}: {} vs {slow_value}", fast.value);
        assert_eq!(planned.joined, slow.joined, "{label} chunk {i}: plan kernel vs reference");
        assert_eq!(planned.groups.keys().collect::<Vec<_>>(), slow.groups.keys().collect::<Vec<_>>());
        let planned_value = planned.groups.get(&0).map_or(0.0, |g| g.values[0]);
        assert_eq!(fast.value.to_bits(), planned_value.to_bits(), "{label} chunk {i}: adapter vs plan kernel");
        // The zonemap-stats answer must agree with the O(chunk) recompute,
        // and a skip must truly be a zero partial.
        let can = ops::scan_chunk_can_qualify(&bound, i);
        assert_eq!(can, ops::scan_chunk_can_qualify_reference(&bound, range), "{label} chunk {i}");
        if !can {
            assert_eq!(fast, ops::ScanChunkPartial::default(), "{label} chunk {i}: skipped chunk must be zero");
            assert_eq!(planned, ops::ChunkPartial::default(), "{label} chunk {i}: skipped chunk must be empty");
        }
    }
}

/// A chunk partial flattened to words — row counters, then key, row count
/// and the bit pattern of every aggregate per group (a bit-identical NaN
/// aggregate still fails f64 `PartialEq`).
fn partial_bits(p: &ops::ChunkPartial) -> Vec<u64> {
    let groups =
        p.groups.iter().flat_map(|(&key, g)| [key, g.rows].into_iter().chain(g.values.iter().map(|v| v.to_bits())));
    [p.selected, p.joined].into_iter().chain(groups).collect()
}

/// The kernel as dispatched to the host's ISA, the kernel as compiled for the
/// baseline ISA (what a host without AVX2 executes — on an AVX2 host nothing
/// else runs it) and the row-at-a-time reference agree bit for bit on every
/// chunk.
fn assert_plan_bit_identical(data: &ops::PlanData, plan: &OlapPlan, label: &str) {
    let (bound, mat) = (data.bind(plan).unwrap(), &data.mat);
    let [slow, portable, fast] = ops::KERNEL_COMPILATIONS
        .map(|kernel| (0..mat.chunk_count()).map(|i| kernel(&bound, mat.chunk_range(i))).collect::<Vec<_>>());
    for (i, ((f, p), s)) in fast.iter().zip(&portable).zip(&slow).enumerate() {
        assert_eq!(partial_bits(f), partial_bits(s), "{label} chunk {i}: dispatched kernel vs reference");
        assert_eq!(partial_bits(p), partial_bits(s), "{label} chunk {i}: baseline kernel vs reference");
    }
    // The merged plan answers are then trivially bit-identical too. (Bit
    // comparison, not `==`: a bit-identical NaN aggregate still fails f64
    // `PartialEq`.)
    let (fg, ft) = ops::merge_partials(plan, fast);
    let (sg, st) = ops::merge_partials(plan, slow);
    assert_eq!(fg.len(), sg.len(), "{label}: merged groups");
    for (f, s) in fg.iter().zip(&sg) {
        assert_eq!((f.key, f.rows), (s.key, s.rows), "{label}");
        for (x, y) in f.values.iter().zip(&s.values) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label} group {:#x}: {x} vs {y}", f.key);
        }
    }
    assert_eq!(ft.joined, st.joined, "{label}");
}

/// Vectorized scans are bit-identical to the row-at-a-time reference for
/// random queries over random tables in every layout, at every
/// chunk-boundary row count.
#[test]
fn property_vectorized_scans_match_the_reference_bitwise() {
    let mut rng = SplitMixRng::new(0x5CA1);
    for (case, &rows) in boundary_row_counts().iter().enumerate() {
        let layout = [Layout::Dsm, Layout::Nsm, Layout::PAPER_PAX][case % 3];
        let table = random_table(layout, rows, 0xBA5E + case as u64);
        for q in 0..6 {
            let mut predicates = Vec::new();
            for col in [0usize, 1, 2, 3] {
                if rng.next_below(2) == 0 {
                    let lo = (rng.next_f64() - 0.5) * 1e6;
                    predicates.push(Predicate::between(col, lo, lo + rng.next_f64() * 1e6));
                }
            }
            let aggregate = match rng.next_below(3) {
                0 => AggExpr::SumProduct(2, 1),
                1 => AggExpr::SumColumns(vec![0, 2, 3]),
                _ => AggExpr::Count,
            };
            let query = ScanAggQuery { predicates, aggregate };
            let mat = ops::MaterializedColumns::new(&table, query.columns_accessed()).unwrap();
            assert_scan_bit_identical(&plan_data(mat, None), &query, &format!("{layout:?}/{rows} rows/query {q}"));
        }
    }
}

/// The dense branch of the plan kernel — no predicate, no join, one global
/// group, so every row qualifies and the columns stream without a selection
/// vector — is bit-identical to the reference with one, two and three
/// aggregates over the NaN- and negative-zero-salted column, at every
/// boundary row count (the empty table included).
#[test]
fn property_dense_plans_match_the_reference_bitwise() {
    let aggregates = [AggExpr::SumProduct(2, 1), AggExpr::SumColumns(vec![0, 2, 3]), AggExpr::Count];
    for (case, &rows) in boundary_row_counts().iter().enumerate() {
        let layout = [Layout::Nsm, Layout::PAPER_PAX, Layout::Dsm][case % 3];
        let table = random_table(layout, rows, 0xDE5E + case as u64);
        for n in 1..=aggregates.len() {
            let plan =
                OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: aggregates[..n].to_vec() };
            let data = plan_data(ops::MaterializedColumns::new(&table, plan.probe_columns_accessed()).unwrap(), None);
            assert_plan_bit_identical(&data, &plan, &format!("{layout:?}/{rows} rows/{n} dense aggregates"));
            // A predicate on `k = i` that every row passes, and one that
            // passes half of them: a batch whose rows all pass streams like
            // the dense plan, and a batch with a failing row does not.
            for hi in [rows as f64, rows as f64 / 2.0] {
                let filtered = OlapPlan { predicates: vec![Predicate::between(0, 0.0, hi)], ..plan.clone() };
                let mat = ops::MaterializedColumns::new(&table, filtered.probe_columns_accessed()).unwrap();
                let label = format!("{layout:?}/{rows} rows/{n} aggregates, k <= {hi}");
                assert_plan_bit_identical(&plan_data(mat, None), &filtered, &label);
            }
            // One aggregate is exactly a predicate-free scan.
            if n == 1 {
                let query = ScanAggQuery::aggregate_only(aggregates[0].clone());
                assert_scan_bit_identical(&data, &query, &format!("{layout:?}/{rows} rows/dense scan"));
            }
        }
    }
}

/// Vectorized plan execution (filter → PK join → group-by) is bit-identical
/// to the reference, including NaN-bit group keys: grouping by the salted
/// Float64 column groups by *raw bit pattern*, so the two NaN payloads and
/// the negative zero land in distinct groups — identically on both paths.
#[test]
fn property_vectorized_plans_match_the_reference_bitwise() {
    let build = dim_table();
    let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(1, 0.0, 5.0)] };
    for (case, &rows) in boundary_row_counts().iter().enumerate() {
        if rows == 0 {
            continue; // plans reject empty probe tables on every path
        }
        let layout = [Layout::PAPER_PAX, Layout::Dsm, Layout::Nsm][case % 3];
        let probe = random_table(layout, rows, 0xF00D + case as u64);
        let plans = [
            // Grouped by the NaN-salted Float64 probe column.
            OlapPlan {
                predicates: vec![Predicate::between(0, 0.0, 1e9)],
                join: None,
                group_by: Some(PlanColumn::Probe(2)),
                aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
            },
            // Join + build-side grouping.
            OlapPlan {
                predicates: vec![],
                join: Some(join.clone()),
                group_by: Some(PlanColumn::Build(2)),
                aggregates: vec![AggExpr::SumProduct(2, 0), AggExpr::Count],
            },
            // Join, globally aggregated (NaN values flow through the sum).
            OlapPlan {
                predicates: vec![Predicate::between(3, 0.0, 6.0)],
                join: Some(join.clone()),
                group_by: None,
                aggregates: vec![AggExpr::SumColumns(vec![2])],
            },
        ];
        for (p, plan) in plans.iter().enumerate() {
            let has_build = plan.join.is_some();
            let hash = has_build.then(|| {
                let group_col = ops::check_plan(plan, true).unwrap();
                ops::build_hash_table(&build, plan.join.as_ref().unwrap(), group_col).unwrap()
            });
            let mat = ops::MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
            assert_plan_bit_identical(&plan_data(mat, hash), plan, &format!("{layout:?}/{rows} rows/plan {p}"));
        }
    }
}

/// Seeded random plans — 0 to 3 predicates over the Float64 / Int64 / Int32
/// columns, join on or off against the dense- or the sparse-keyed dimension
/// table (both join index arms), no / probe-side / build-side group-by, one
/// to three aggregates of every kind — over all three layouts, at row counts
/// straddling a 64-row selection word, a batch and a chunk: both
/// compilations of the kernel and the reference return bit-equal partials.
#[test]
fn property_random_plans_match_in_both_compilations() {
    for (dim, build) in [("dense", dim_table()), ("sparse", sparse_dim_table())] {
        random_plans_match_in_both_compilations(&build, dim);
    }
}

fn random_plans_match_in_both_compilations(build: &SnapshotTable, dim: &str) {
    let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(1, 0.0, 5.0)] };
    let chunk = PLAN_CHUNK_ROWS as u64;
    let mut rng = SplitMixRng::new(0x15A);
    for (case, rows) in [0, 1, 63, 64, 65, 1023, 1024, 1025, chunk - 1, chunk, chunk + 1].into_iter().enumerate() {
        for layout in [Layout::Dsm, Layout::Nsm, Layout::PAPER_PAX] {
            let probe = random_table(layout, rows, 0xC0DE + case as u64);
            for p in 0..6 {
                // Bounds in each column's own range, from none-pass through
                // a narrow band to all-pass.
                let predicates = (0..rng.next_below(4))
                    .map(|_| {
                        let column = rng.next_below(4) as usize;
                        let span = [rows.max(1) as f64, 97.0, 2e6, 13.0][column];
                        let origin = if column == 2 { -1e6 } else { 0.0 };
                        let lo = origin + (rng.next_f64() * 1.2 - 0.1) * span;
                        let width = [0.0, 0.01, 0.3, 2.0][rng.next_below(4) as usize] * span;
                        Predicate::between(column, lo, lo + width)
                    })
                    .collect();
                let join = (rng.next_below(2) == 0).then(|| join.clone());
                let group_by = match rng.next_below(3) {
                    0 => None,
                    1 => Some(PlanColumn::Probe([1, 2, 3][rng.next_below(3) as usize])),
                    _ => join.as_ref().map(|_| PlanColumn::Build(2)),
                };
                let aggregates = (0..=rng.next_below(3))
                    .map(|_| match rng.next_below(3) {
                        0 => AggExpr::SumProduct(2, [0, 1, 3][rng.next_below(3) as usize]),
                        1 => AggExpr::SumColumns((0..4).filter(|_| rng.next_below(2) == 0).chain([3]).collect()),
                        _ => AggExpr::Count,
                    })
                    .collect();
                let plan = OlapPlan { predicates, join, group_by, aggregates };
                let hash = plan.join.as_ref().map(|join| {
                    let group_col = ops::check_plan(&plan, true).unwrap();
                    ops::build_hash_table(build, join, group_col).unwrap()
                });
                let mat = ops::MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
                assert_plan_bit_identical(
                    &plan_data(mat, hash),
                    &plan,
                    &format!("{dim} dim/{layout:?}/{rows} rows/plan {p}: {plan:?}"),
                );
            }
        }
    }
}

/// NaN-bit group keys occupy distinct groups by payload, and both NaN
/// payloads plus -0.0 and +0.0 are distinguishable raw-bit groups.
#[test]
fn nan_bit_patterns_are_distinct_group_keys() {
    let db = Database::new(1);
    let schema =
        Schema::new(vec![Attribute::new("g", AttrType::Float64), Attribute::new("v", AttrType::Int64)]).unwrap();
    let t = db.create_table("t", schema, Layout::Dsm).unwrap();
    let keys = [f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002), 0.0, -0.0, 1.5];
    for (i, &g) in keys.iter().cycle().take(50).enumerate() {
        db.insert(PartitionId(0), t, &[Value::Float64(g), Value::Int64(i as i64)]).unwrap();
    }
    let table = db.snapshot().table(t).unwrap().clone();
    let plan = OlapPlan {
        predicates: vec![],
        join: None,
        group_by: Some(PlanColumn::Probe(0)),
        aggregates: vec![AggExpr::SumColumns(vec![1]), AggExpr::Count],
    };
    let data = plan_data(ops::MaterializedColumns::new(&table, plan.probe_columns_accessed()).unwrap(), None);
    let bound = data.bind(&plan).unwrap();
    let fast = ops::process_chunk(&bound, data.mat.chunk_range(0));
    let slow = ops::process_chunk_reference(&bound, data.mat.chunk_range(0));
    assert_eq!(fast, slow);
    assert_eq!(fast.groups.len(), 5, "two NaN payloads, +0.0, -0.0 and 1.5 are five raw-bit groups");
    assert_eq!(fast.groups.values().map(|g| g.rows).sum::<u64>(), 50);
}

/// The CPU, one GPU and a three-device heterogeneous GPU mix stay
/// byte-identical through the production dispatch path with vectorization
/// *and* the shared plan-data cache enabled — including on NaN-salted data.
/// The repeated queries are served from each engine's cache (hits recorded
/// in `HtapStats`), and the answers do not drift from the first, uncached
/// dispatch.
#[test]
fn three_sites_stay_byte_identical_with_caching_enabled() {
    // The scan touches {0, 1, 2}, the plan {1, 2}: two distinct
    // derivations, so the hit/miss accounting below is exact.
    let query =
        ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 120_000.0)], aggregate: AggExpr::SumProduct(1, 2) };
    let plan = OlapPlan {
        predicates: vec![],
        join: Some(JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
        group_by: Some(PlanColumn::Build(1)),
        aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
    };
    let mut scan_answers = Vec::new();
    let mut plan_answers = Vec::new();
    for gpus in [vec![h2tap_gpu_sim::GpuSpec::gtx_980()], h2tap_gpu_sim::table1_mix(3)] {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 4;
        config.olap_device.gpus = gpus;
        config.snapshot_policy = SnapshotPolicy::Manual;
        let mut builder = Caldera::builder(config);
        let schema = Schema::new(vec![
            Attribute::new("k", AttrType::Int64),
            Attribute::new("fk", AttrType::Int64),
            Attribute::new("val", AttrType::Float64),
        ])
        .unwrap();
        let t = builder.create_table("fact", schema, Layout::Dsm).unwrap();
        let mut rng = SplitMixRng::new(42);
        for i in 0..150_000i64 {
            let val = if rng.next_below(20) == 0 { -0.0 } else { rng.next_f64() * 1e3 };
            builder.load(t, i, &[Value::Int64(i), Value::Int64(i % 40), Value::Float64(val)]).unwrap();
        }
        let dim = builder.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..40i64 {
            builder.load(dim, i, &[Value::Int64(i), Value::Int64(i % 4)]).unwrap();
        }
        let caldera = builder.start().unwrap();
        for site in [OlapTarget::Gpu, OlapTarget::Cpu] {
            scan_answers.push(caldera.run_olap_on(t, &query, site).unwrap().value.to_bits());
        }
        for site in [OlapTarget::Gpu, OlapTarget::Cpu] {
            plan_answers.push(caldera.run_olap_plan_on(t, Some(dim), &plan, site).unwrap().groups);
        }
        let stats = caldera.shutdown();
        // 4 dispatches, 2 distinct derivations (scan columns; probe columns
        // + hash table): everything after the first dispatch of each shape
        // hit.
        assert_eq!(stats.plan_cache.column_misses, 2);
        assert_eq!(stats.plan_cache.hash_misses, 1);
        assert!(stats.plan_cache.hits() >= 3, "repeat dispatches must hit: {:?}", stats.plan_cache);
    }
    assert!(scan_answers.windows(2).all(|w| w[0] == w[1]), "{scan_answers:?}");
    assert!(plan_answers.windows(2).all(|w| w[0] == w[1]));
}

/// A cached derivation from one snapshot epoch is never served to a later
/// one: an OLTP update plus a per-query snapshot policy must be visible to
/// every following query, each of which rebuilds the written chunk from the
/// previous snapshot's version and replaces it.
#[test]
fn per_query_snapshots_never_see_stale_cached_data() {
    let mut config = CalderaConfig::with_workers(2);
    config.snapshot_policy = SnapshotPolicy::PerQuery;
    let mut builder = Caldera::builder(config);
    let t = builder.create_table("acct", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for i in 0..5_000i64 {
        builder.load(t, i, &[Value::Int64(i), Value::Int64(1)]).unwrap();
    }
    let caldera = builder.start().unwrap();
    let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
    let mut expected = 5_000.0;
    for step in 0..5 {
        let out = caldera.run_olap(t, &q).unwrap();
        assert_eq!(out.value, expected, "step {step}: a stale cached column must never be served");
        caldera
            .execute_txn_on(
                PartitionId((step % 2) as u32),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, step)?;
                    rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 10);
                    ctx.update(t, step, rec)
                }),
            )
            .unwrap();
        expected += 10.0;
    }
    let stats = caldera.shutdown();
    // Per-query snapshots: every query re-derives (no hits), and each
    // derivation replaced the previous one.
    assert_eq!(stats.plan_cache.column_hits, 0);
    assert_eq!(stats.plan_cache.column_misses, 5);
    assert!(stats.plan_cache.invalidations >= 4);
}

/// Standalone-cache semantics: shared prepared plan data is the same
/// instance across sites' requests, and epoch keys keep generations apart.
#[test]
fn plan_data_cache_shares_instances_until_the_epoch_moves() {
    let db = Database::new(1);
    let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for i in 0..2_000i64 {
        db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i)]).unwrap();
    }
    let s1 = db.snapshot();
    let cache = PlanDataCache::new();
    let a = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
    let b = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    let s2 = db.snapshot();
    let c = cache.materialized(s2.table(t).unwrap(), vec![0, 1]).unwrap();
    assert!(!Arc::ptr_eq(&a, &c), "a new epoch is a new derivation");
    let stats = cache.stats();
    assert_eq!((stats.column_hits, stats.column_misses), (1, 2));
    assert_eq!(stats.invalidations, 1, "the superseded epoch was evicted");
}
