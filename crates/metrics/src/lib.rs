//! Metrics collection and reporting for experiments.
//!
//! Provides the small observability toolkit every experiment shares: time
//! series, summary statistics, per-slot system metrics matching the paper's
//! reported quantities (social welfare, % inter-ISP traffic, chunk miss
//! rate), CSV output and quick ASCII plots for the examples.
//!
//! # Examples
//!
//! ```
//! use p2p_metrics::{TimeSeries, Summary};
//!
//! let mut s = TimeSeries::new("welfare");
//! s.push(0.0, 120.0);
//! s.push(10.0, 180.0);
//! assert_eq!(s.len(), 2);
//! let stats = Summary::of(s.values());
//! assert_eq!(stats.mean, 150.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod csv;
pub mod histogram;
pub mod hll;
pub mod probe;
pub mod report;
pub mod series;
pub mod slot;
pub mod summary;

pub use ascii::ascii_plot;
pub use csv::write_csv;
pub use histogram::Histogram;
pub use hll::{mix64, Hll};
pub use probe::{AuctionProbe, CountingProbe, EngineReport, NoProbe, PricePoint, PriceRecorder};
pub use report::{PhaseTimings, RunReport, SlotReport, UniqueCounts, WindowReport};
pub use series::TimeSeries;
pub use slot::{SlotMetrics, SlotRecorder};
pub use summary::Summary;
