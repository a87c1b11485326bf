//! Baseline systems the paper evaluates Caldera against.
//!
//! * [`silo`] — a Silo-style shared-everything OCC engine (Figures 8, 9),
//! * [`sn_silo`] — one Silo instance per core with a two-phase-commit layer
//!   for multi-site transactions (Figure 9).
//!
//! The Figure-4 CPU column stores are not here: they are Caldera's own CPU
//! execution site (`h2tap_olap::CpuOlapEngine`) under its two
//! `CpuScanProfile`s.
//!
//! The baselines answer the same workloads as Caldera over the same data so
//! that every comparison in the benchmark harness is apples-to-apples.

#![forbid(unsafe_code)]

pub mod silo;
pub mod sn_silo;

pub use silo::{SiloDb, SiloGenerator, SiloRuntime, SiloTxn, SiloWindow};
pub use sn_silo::{run_sn_silo_benchmark, SnSilo, SnSiloGenerator, SnSiloWindow};
