//! # pc-stats — statistics for the experimental evaluation
//!
//! The paper's protocol (§III-B): 3 replicates per experiment, 95%
//! confidence intervals on all measurements, Pearson correlations between
//! wakeups/usage and power, and a hypothesis test ("wakeups have a
//! significant effect on power", accepted at 99% confidence). This crate
//! implements exactly those tools:
//!
//! * [`descriptive`] — mean, variance, standard deviation, standard error.
//! * [`ci`] — Student-t confidence intervals (the correct small-sample
//!   interval for 3 replicates).
//! * [`corr`] — Pearson correlation plus the t-test for its significance.
//! * [`regression`] — ordinary least squares for trend lines.
//! * [`summary`] — a `mean ± half-width` presentation type used by every
//!   experiment runner.
//! * [`ttest`] — the paired t-test for same-seed strategy comparisons.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ci;
pub mod corr;
pub mod descriptive;
pub mod regression;
pub mod summary;
pub mod ttest;

pub use ci::{confidence_interval, t_critical, ConfidenceInterval, ConfidenceLevel, HalfWidth};
pub use corr::{correlation_significance, pearson, CorrelationTest};
pub use descriptive::{mean, sample_std_dev, sample_variance, std_error};
pub use regression::{linear_fit, LinearFit};
pub use summary::Summary;
pub use ttest::{paired_t_test, PairedTTest};
