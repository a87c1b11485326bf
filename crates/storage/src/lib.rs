//! Caldera's storage engine.
//!
//! The paper's Section 4 describes a storage layer with three properties:
//!
//! 1. **Hybrid layouts** — tables can be stored in NSM (row-major), DSM
//!    (column-major) or PAX (columnar minipages inside fixed-size pages),
//!    because OLTP favours NSM while GPU-side OLAP needs the coalesced
//!    accesses of DSM/PAX ([`layout`], [`page`]).
//! 2. **A hierarchical organization** — partition → table → page, where each
//!    node carries an epoch number (Figure 3) ([`partition`], [`table`]).
//! 3. **Software shadow-copy snapshots** — taking a snapshot is a shallow
//!    copy plus an epoch bump; the first update to a captured page performs
//!    copy-on-write; releasing a snapshot lets superseded versions be
//!    reclaimed ([`snapshot`], [`database`], [`telemetry`]).
//!
//! The storage engine is deliberately oblivious to *who* calls it: the OLTP
//! runtime (`h2tap-oltp`) routes all updates through the owning partition's
//! worker thread, and the OLAP runtime (`h2tap-olap`) only ever reads
//! snapshots, which together give the single-writer discipline the paper's
//! non-cache-coherent target requires.

#![forbid(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]

pub mod codec;
pub mod database;
pub mod layout;
pub mod page;
pub mod partition;
pub mod snapshot;
pub mod table;
pub mod telemetry;

pub use codec::{decode_cell, decode_cell_f64, decode_record, encode_record, encode_value};
pub use database::{Database, GcReport, TableMeta};
pub use layout::{Layout, ScanProfile};
pub use page::Page;
pub use partition::PartitionStore;
pub use snapshot::{Snapshot, SnapshotTable, SnapshotTableId};
pub use table::TableFragment;
pub use telemetry::{CowStats, CowTelemetry};
