//! `htapbench`: a repeatable four-workload HTAP benchmark for the Caldera
//! reproduction.
//!
//! The paper's claim is isolation — OLTP commits per second and OLAP
//! response time *while the other archipelago is busy*, with snapshot
//! freshness as the price. This package measures exactly that, end to end
//! and layer by layer, through the workspace's public API only, and sized so
//! that two runs of the same code agree (see `README.md`).
//!
//! * [`workload`] — the four workloads and the one-process driver;
//! * [`analyst`], [`txn`] — the load generators of the two archipelagos;
//! * [`probes`] — isolated per-layer measurements of the traced run;
//! * [`orchestrate`] — fresh-process repeats, medians, reports;
//! * [`compare`] — two reports side by side, against the bounds;
//! * [`metrics`] — every workload and metric by name;
//! * [`stats`], [`procstat`], [`spans`], [`json`], [`data`] — the harness.

pub mod analyst;
pub mod compare;
pub mod data;
pub mod json;
pub mod metrics;
pub mod orchestrate;
pub mod probes;
pub mod procstat;
pub mod spans;
pub mod stats;
pub mod txn;
pub mod workload;
