//! Workload generators for the Caldera / H2TAP evaluation.
//!
//! One module per workload of the paper's evaluation section:
//!
//! * [`tpch`] — the `lineitem` generator and TPC-H Q6 (Figures 4-7),
//! * [`ycsb`] — the update-only, working-set-parameterised OLTP workload
//!   that runs concurrently with the OLAP queries (Figures 5-7),
//! * [`tpcc`] — TPC-C NewOrder for Caldera and Silo (Figure 8),
//! * [`multisite`] — the read-only multi-site microbenchmark for Caldera,
//!   Silo and SN-Silo (Figure 9),
//! * [`layoutbench`] — the 16-integer-attribute table and
//!   `SUM(col1+...+colN)` template (Figures 10-11).
//!
//! Every generator is deterministic given a seed, so experiment output is
//! reproducible run to run.

#![forbid(unsafe_code)]
// Result-crate lint (engine, olap, scheduler, storage, common, workloads):
// std `HashMap`/`HashSet` iterate in a per-process random order, so the
// crates whose output must be bit-identical run by run do not use them.
#![warn(clippy::disallowed_types)]

pub mod layoutbench;
pub mod multisite;
pub mod tpcc;
pub mod tpch;
pub mod ycsb;
