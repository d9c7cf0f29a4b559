//! Shared harness code for the figure-regeneration binaries and the engine
//! gates.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin/`
//! (`fig2` … `fig6`), plus verification and ablation binaries
//! (`optimality`, `ablation_epsilon`, `ablation_neighbors`, `ablation_isp`).
//! Each binary prints the series it regenerates, renders a quick ASCII
//! plot, and writes CSV files under `results/`. `tests/engine_gates.rs`
//! holds the equivalence, certificate and timing gates of the auction's
//! executions on [`random_instance`] slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod instances;

pub use experiments::{run_dynamic, run_static, ComparisonRun};
pub use instances::random_instance;

/// The workspace's one strict command-line parser, re-exported so every
/// harness binary keeps importing it from here.
pub use p2p_types::Args;

use p2p_metrics::TimeSeries;
use std::fs;
use std::path::PathBuf;

/// The output directory for CSV artifacts (`results/`, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Saves aligned series as `results/<stem>.csv` and returns the path.
///
/// # Panics
///
/// Panics on I/O errors — harness binaries want loud failures.
pub fn save_csv(stem: &str, x_name: &str, series: &[&TimeSeries]) -> PathBuf {
    let path = out_dir().join(format!("{stem}.csv"));
    let mut buf = Vec::new();
    p2p_metrics::write_csv(&mut buf, x_name, series).expect("series are aligned");
    fs::write(&path, buf).expect("write csv");
    path
}

/// Saves a free-form `(x, y)` series (unaligned with others).
///
/// # Panics
///
/// Panics on I/O errors.
pub fn save_xy(stem: &str, header: &str, points: &[(f64, f64)]) -> PathBuf {
    let path = out_dir().join(format!("{stem}.csv"));
    let mut s = String::from(header);
    s.push('\n');
    for (x, y) in points {
        s.push_str(&format!("{x},{y}\n"));
    }
    fs::write(&path, s).expect("write csv");
    path
}
