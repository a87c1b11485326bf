//! Concurrency stress: many OLAP clients against a concurrent writer.
//!
//! Eight client threads hammer the scan and plan paths while a writer
//! thread mutates a *separate* table and forces snapshot refreshes. The
//! refreshes change the snapshot epoch under the clients (draining them at
//! the gate's write lock each time) without changing the queried tables'
//! content — so every concurrent answer must stay bit-identical to a serial
//! oracle taken up front, no matter how the races interleave.
//!
//! The plan-data cache runs with a zero byte budget: nothing is retained,
//! so every query re-derives its inputs and concurrent same-key queries can
//! only avoid duplicate work by attaching to the in-flight materialisation.
//! A positive shared-scan attach counter is therefore proof the shared-scan
//! path ran, not a cache artefact.

use caldera::{Caldera, CalderaConfig, OlapPlan, SnapshotPolicy};
use h2tap_common::{
    AggExpr, AttrType, JoinSpec, PartitionId, PlanColumn, Predicate, ScanAggQuery, Schema, TableId, Value,
};
use h2tap_storage::Layout;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: u32 = 24;

fn build_engine() -> (Caldera, TableId, TableId, TableId) {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 4;
    // The writer thread drives freshness explicitly.
    config.snapshot_policy = SnapshotPolicy::Manual;
    // Zero retention: shared-scan attaches are the only dedup mechanism.
    config.olap_plan_cache_budget_bytes = Some(0);
    config.olap_admission_in_flight = Some(2);
    let mut builder = Caldera::builder(config);
    let fact = builder.create_table("fact", Schema::homogeneous("c", 3, AttrType::Int64), Layout::Dsm).unwrap();
    for k in 0..20_000i64 {
        builder.load(fact, k, &[Value::Int64(k), Value::Int64(k % 40), Value::Int64(1)]).unwrap();
    }
    let dim = builder.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for k in 0..40i64 {
        builder.load(dim, k, &[Value::Int64(k), Value::Int64(k % 4)]).unwrap();
    }
    let churn = builder.create_table("churn", Schema::homogeneous("w", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for k in 0..1_000i64 {
        builder.load(churn, k, &[Value::Int64(k), Value::Int64(0)]).unwrap();
    }
    (builder.start().unwrap(), fact, dim, churn)
}

fn scan_query() -> ScanAggQuery {
    ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 15_000.0)], aggregate: AggExpr::SumColumns(vec![2]) }
}

fn join_plan() -> OlapPlan {
    OlapPlan {
        predicates: vec![],
        join: Some(JoinSpec {
            probe_column: 1,
            build_key: 0,
            build_predicates: vec![Predicate::between(0, 0.0, 19.0)],
        }),
        group_by: Some(PlanColumn::Build(1)),
        aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
    }
}

#[test]
fn concurrent_clients_and_a_writer_never_change_an_answer() {
    let (caldera, fact, dim, churn) = build_engine();
    let scan = scan_query();
    let plan = join_plan();

    // Serial oracle on the initial data; the writer never touches `fact` or
    // `dim`, so these bits are the law for every concurrent query below.
    caldera.refresh_snapshot().unwrap();
    let oracle_scan = caldera.run_olap(fact, &scan).unwrap().value.to_bits();
    let oracle_groups = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap().groups;

    let caldera = Arc::new(caldera);
    let stop_writer = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));

    // Writer: transactions against the churn table plus periodic snapshot
    // refreshes, racing the clients the whole time.
    let writer = {
        let caldera = Arc::clone(&caldera);
        let stop = Arc::clone(&stop_writer);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let workers = caldera.oltp().workers() as u64;
            let mut txns = 0u64;
            let mut refreshes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let key = (txns % 1_000) as i64;
                caldera
                    .execute_txn_on(
                        PartitionId((txns % workers) as u32),
                        Arc::new(move |ctx| {
                            let mut rec = ctx.read_for_update(churn, key)?;
                            rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
                            ctx.update(churn, key, rec)
                        }),
                    )
                    .unwrap();
                txns += 1;
                if txns.is_multiple_of(5) {
                    caldera.refresh_snapshot().unwrap();
                    refreshes += 1;
                }
                std::thread::yield_now();
            }
            (txns, refreshes)
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|worker| {
            let caldera = Arc::clone(&caldera);
            let barrier = Arc::clone(&barrier);
            let scan = scan.clone();
            let plan = plan.clone();
            let oracle_groups = oracle_groups.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..QUERIES_PER_CLIENT {
                    if (i as usize + worker).is_multiple_of(2) {
                        let out = caldera.run_olap(fact, &scan).unwrap();
                        assert_eq!(out.value.to_bits(), oracle_scan, "a concurrent refresh corrupted a scan");
                    } else {
                        let out = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
                        assert_eq!(out.groups, oracle_groups, "a concurrent refresh corrupted a join plan");
                    }
                }
            })
        })
        .collect();

    for c in clients {
        c.join().unwrap();
    }
    stop_writer.store(true, Ordering::SeqCst);
    let (txns, refreshes) = writer.join().unwrap();
    assert!(txns > 0, "the writer must have raced the clients");

    let Ok(caldera) = Arc::try_unwrap(caldera) else { panic!("all threads joined") };
    let stats = caldera.shutdown();
    assert_eq!(stats.oltp.committed, txns);
    assert_eq!(stats.olap_queries, (CLIENTS as u64) * u64::from(QUERIES_PER_CLIENT) + 2);
    // +1: the oracle's explicit refresh before the serial queries.
    assert_eq!(stats.snapshots_taken, refreshes + 1);
    assert_eq!(stats.live_snapshots, 0);
    // Every permit was returned, and contention really happened somewhere.
    for site in &stats.olap_sites {
        assert_eq!(site.admission.in_flight, 0);
        assert_eq!(site.admission.admitted, site.queries);
    }
    // With zero cache retention, a positive attach counter means concurrent
    // same-key queries genuinely shared one in-flight materialisation.
    assert!(
        stats.plan_cache.shared_scan_attaches > 0,
        "8 clients re-deriving the same tables must have attached to an in-flight build at least once"
    );
}
