//! Caldera's storage engine.
//!
//! The paper's Section 4 describes a storage layer with three properties:
//!
//! 1. **Hybrid layouts** — tables can be stored in NSM (row-major), DSM
//!    (column-major) or PAX (columnar minipages inside fixed-size pages),
//!    because OLTP favours NSM while GPU-side OLAP needs the coalesced
//!    accesses of DSM/PAX ([`layout`], [`page`]).
//! 2. **A hierarchical organization** — partition → table → page (Figure 3);
//!    each page carries the epoch it was last written in ([`page`]).
//! 3. **Software shadow-copy snapshots** — taking a snapshot is a shallow
//!    copy of each page list's segments plus an epoch bump; the first update
//!    to a captured page performs copy-on-write; dropping a snapshot's last `Arc` reclaims the
//!    superseded versions only it still held ([`snapshot`], [`database`],
//!    [`telemetry`]).
//!
//! Rows change only through [`Database::commit`] — one transaction's writes,
//! checked before any is applied and applied under one live-state lock that
//! snapshots take exclusively, so a snapshot is a transactionally consistent
//! cut — or through bulk loading's [`Database::append`], which writes a run
//! of encoded records a page at a time under the same lock. The OLTP runtime (`h2tap-oltp`) calls it at commit with every lock
//! held, writing remote rows directly through shared memory — only lock
//! metadata crosses cores — and the OLAP runtime (`h2tap-olap`) only ever
//! reads snapshots. Partitions and table fragments are internal.

#![forbid(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]
// Result-crate lint (engine, olap, scheduler, storage, common, workloads):
// std `HashMap`/`HashSet` iterate in a per-process random order, so the
// crates whose output must be bit-identical run by run do not use them.
#![warn(clippy::disallowed_types)]

pub mod codec;
pub mod database;
pub mod layout;
pub mod page;
mod partition;
pub mod snapshot;
mod table;
pub mod telemetry;

pub use codec::{decode_cell, decode_cell_f64, decode_record, encode_into, encode_value};
pub use database::{Database, TableMeta};
pub use layout::{Layout, ScanProfile};
pub use page::Page;
pub use snapshot::{Snapshot, SnapshotTable, SnapshotTableId};
pub use table::SEGMENT_PAGES;
pub use telemetry::CowStats;
