//! Caldera: the H2TAP prototype engine.
//!
//! This crate is the public face of the workspace: it wires the
//! shared-memory database (`h2tap-storage`), the message-passing OLTP
//! archipelago (`h2tap-oltp`), the GPU OLAP archipelago (`h2tap-olap` over
//! `h2tap-gpu-sim`) and the placement scheduler (`h2tap-scheduler`)
//! together behind one API:
//!
//! ```no_run
//! use caldera::{Caldera, CalderaConfig};
//! use h2tap_common::{AttrType, Schema, Value, ScanAggQuery, AggExpr};
//! use h2tap_storage::Layout;
//!
//! let mut builder = Caldera::builder(CalderaConfig::default());
//! let table = builder
//!     .create_table("accounts", Schema::homogeneous("c", 2, AttrType::Int64), Layout::PAPER_PAX)
//!     .unwrap();
//! builder.load(table, 42, &[Value::Int64(42), Value::Int64(100)]).unwrap();
//! let caldera = builder.start().unwrap();
//!
//! // OLTP: read-modify-write through the task-parallel archipelago.
//! caldera.execute_txn_on(h2tap_common::PartitionId(0), std::sync::Arc::new(move |ctx| {
//!     let mut rec = ctx.read_for_update(table, 42)?;
//!     rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
//!     ctx.update(table, 42, rec)
//! })).unwrap();
//!
//! // OLAP: aggregate on the data-parallel archipelago (the GPU model).
//! let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
//! let out = caldera.run_olap(table, &q).unwrap();
//! println!("sum = {} in {}", out.value, out.time);
//! ```

#![forbid(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]
// Result-crate lint (engine, olap, scheduler, storage, common, workloads):
// std `HashMap`/`HashSet` iterate in a per-process random order, so the
// crates whose output must be bit-identical run by run do not use them.
#![warn(clippy::disallowed_types)]

pub mod admission;
pub mod builder;
pub mod config;
pub mod engine;
pub mod health;

pub use admission::{AdmissionGate, AdmissionPermit, AdmissionStats};
pub use builder::CalderaBuilder;
pub use config::{CalderaConfig, OlapDeviceConfig};
pub use engine::{Caldera, HtapStats, OlapSiteStats, ResilienceStats};
pub use health::{SiteHealth, SiteHealthState, SiteHealthStats};

pub use h2tap_gpu_sim::{DeviceLossPoint, FaultPlan};

pub use h2tap_common::{GroupRow, JoinSpec, OlapPlan, PlanColumn};
pub use h2tap_obs::{MetricsSnapshot, ObsConfig, SpanKind, SpanRecord};
pub use h2tap_olap::{CpuScanProfile, DataPlacement, OlapOutcome, PlanOutcome, SnapshotPolicy};
pub use h2tap_oltp::{OltpConfig, TxnProc};
pub use h2tap_scheduler::{OlapTarget, PlacementExplanation, RegretSummary, SiteCapability};
