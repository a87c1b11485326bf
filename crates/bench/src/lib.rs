//! The benchmark harness of the Caldera reproduction.
//!
//! [`experiments`] contains one driver function per table and figure of the
//! paper's evaluation; the `experiments` binary prints their rows (and
//! optionally JSON). The "Experiments → figures" table of the workspace
//! README lists what each experiment reproduces and how to run it.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{
    capture_trace, fig1, fig10, fig11, fig4, fig5, fig6, fig7, fig8, fig9, fig_calibration, fig_hostperf, fig_multigpu,
    fig_operators, fig_placement, ledger, run_htap, table1, CalibrationQueryRow, CalibrationSummary, Fig1Row, Fig4Row,
    GpuMixRow, HostPerfSummary, HtapParams, HtapRow, LatencyPercentiles, LayoutRow, OltpComparisonRow, OperatorsRow,
    PlacementRow, Table1Row, DEFAULT_LINEITEM_ROWS,
};
