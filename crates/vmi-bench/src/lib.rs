//! # vmi-bench — reproduction harness for every table and figure
//!
//! [`figures`] holds one builder per evaluation artifact (Figs. 2, 3, 8–12,
//! 14; Tables 1–2; the §6 placement comparison); [`ablations`] measures
//! the design choices the paper asserts or defers; [`figset`] holds the
//! data model, text rendering and `results/` persistence. The `figures`
//! binary is the command-line entry point:
//!
//! ```text
//! figures --all            # regenerate everything (paper scale)
//! figures fig2 fig9        # specific artifacts
//! figures --smoke table1   # seconds-fast reduced scale
//! ```
//!
//! [`scale_sweep`] drives the 10k-node scale engine (the `scale_sweep`
//! binary), and [`trace_report`] rebuilds span trees and critical paths
//! from a recorded event stream (the `trace_report` binary). The crash
//! campaign is a `vmi-qcow` test (`crates/vmi-qcow/tests/crash_sweep.rs`).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod figset;
pub mod figures;
pub mod scale_sweep;
pub mod trace_report;

pub use figset::{Figure, Point, Series, TableData};
pub use figures::{
    fig10, fig11, fig12, fig14, fig2, fig3, fig8, fig9, full_quota, sec6, table1, table2, Scale,
    CACHE_CLUSTER_BITS,
};
pub use scale_sweep::{
    run_scale_sweep_full, run_scale_sweep_smoke, run_scale_sweep_with, ScaleSweepReport,
    SweepConfig, SweepPoint,
};
