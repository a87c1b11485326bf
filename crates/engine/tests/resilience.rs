//! Chaos stress: concurrent OLAP clients over a device fleet that
//! misbehaves on schedule.
//!
//! Eight client threads hammer the scan path while the seeded fault plan
//! injects a storm of transient kernel faults *and* permanently kills the
//! GPU mid-stream. The resilience ladder must absorb every fault — retry
//! transients in place, trip the circuit breaker on the device loss, and
//! re-route to the CPU site — so that not a single client ever sees an
//! error and every answer stays bit-identical to a fault-free serial
//! oracle.

use caldera::{Caldera, CalderaConfig, DeviceLossPoint, FaultPlan, OlapTarget, SiteHealthState, SnapshotPolicy};
use h2tap_common::{AggExpr, AttrType, Predicate, ScanAggQuery, Schema, TableId, Value};
use h2tap_olap::DataPlacement;
use h2tap_storage::Layout;
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: u32 = 16;

fn build_engine(fault_plan: Option<FaultPlan>) -> (Caldera, TableId) {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 4;
    config.olap_device.placement = DataPlacement::DeviceResident;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_admission_in_flight = Some(4);
    config.fault_plan = fault_plan;
    let mut builder = Caldera::builder(config);
    let fact = builder.create_table("fact", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for k in 0..60_000i64 {
        builder.load(fact, k, &[Value::Int64(k), Value::Int64(1)]).unwrap();
    }
    (builder.start().unwrap(), fact)
}

fn chaos_plan() -> FaultPlan {
    let mut plan = FaultPlan::transient_storm(0xC1DA);
    // Kill the GPU for good partway through the run: early enough that most
    // of the workload runs against a dead device, late enough that the
    // device answers real queries first.
    plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 24 });
    plan
}

#[test]
fn concurrent_clients_survive_a_device_loss_with_exact_answers() {
    // Fault-free serial oracle: the law for every chaotic answer below.
    let (clean, fact) = build_engine(None);
    let query = ScanAggQuery {
        predicates: vec![Predicate::between(0, 0.0, 45_000.0)],
        aggregate: AggExpr::SumColumns(vec![1]),
    };
    let oracle = clean.run_olap(fact, &query).unwrap().value.to_bits();
    clean.shutdown();

    let (caldera, fact) = build_engine(Some(chaos_plan()));
    let caldera = Arc::new(caldera);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let caldera = Arc::clone(&caldera);
            let barrier = Arc::clone(&barrier);
            let query = query.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..QUERIES_PER_CLIENT {
                    // `unwrap` IS the assertion: the ladder must leave no
                    // client-visible error, faults or not.
                    let out = caldera.run_olap(fact, &query).unwrap();
                    assert_eq!(out.value.to_bits(), oracle, "a fault path changed an answer");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let Ok(caldera) = Arc::try_unwrap(caldera) else { panic!("all clients joined") };
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries, (CLIENTS as u64) * u64::from(QUERIES_PER_CLIENT));
    assert_eq!(stats.olap_sites.iter().map(|s| s.queries).sum::<u64>(), stats.olap_queries, "no query went missing");
    let gpu = stats.olap_sites.iter().find(|s| s.target == OlapTarget::Gpu).unwrap();
    assert!(gpu.health.persistent_failures >= 1, "the scheduled loss must have fired");
    assert!(gpu.health.quarantines >= 1, "the dead device must have tripped its breaker");
    assert_ne!(gpu.health.state, SiteHealthState::Closed, "a still-dead device must not end up re-admitted");
    assert!(stats.resilience.fallbacks >= 1, "queries must have re-routed off the dead device");
    assert!(stats.olap_queries_on(OlapTarget::Cpu) >= 1, "the CPU site must have absorbed re-routed queries");
    // The storm fired and was absorbed: faults were observed, some retried
    // in place, and no permit leaked on any error path.
    assert!(stats.resilience.faults >= 1);
    for site in &stats.olap_sites {
        assert_eq!(site.admission.in_flight, 0);
    }
}
