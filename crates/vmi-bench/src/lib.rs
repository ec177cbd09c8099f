//! # vmi-bench — reproduction harness for every table and figure
//!
//! [`figures`] holds one builder per evaluation artifact (Figs. 2, 3, 8–12,
//! 14; Tables 1–2; the §6 placement comparison); [`figset`] holds the data
//! model, text rendering and `results/` persistence. The `figures` binary
//! is the command-line entry point:
//!
//! ```text
//! figures --all            # regenerate everything (paper scale)
//! figures fig2 fig9        # specific artifacts
//! figures --smoke table1   # seconds-fast reduced scale
//! ```

#![forbid(unsafe_code)]

pub mod ablations;
pub mod crash_sweep;
pub mod figset;
pub mod figures;
pub mod obs_report;
pub mod scale_sweep;
pub mod trace_report;

pub use crash_sweep::{run_crash_sweep, run_crash_sweep_strided, CrashSweepReport, WorkloadSweep};
pub use figset::{Figure, Point, Series, TableData};
pub use figures::{
    fig10, fig11, fig12, fig14, fig2, fig3, fig8, fig9, full_quota, sec6, table1, table2, Scale,
    CACHE_CLUSTER_BITS,
};
pub use obs_report::{render_telemetry, replay, replay_lines, replay_lines_strict, ReplaySummary};
pub use scale_sweep::{
    run_scale_sweep_full, run_scale_sweep_smoke, run_scale_sweep_with, ScaleSweepReport,
    SweepConfig, SweepPoint,
};
