//! Replicate summaries: the `mean ± CI` presentation every experiment
//! runner prints, mirroring how the paper tabulates its three-replicate
//! measurements.

use crate::ci::{confidence_interval, ConfidenceInterval, ConfidenceLevel, HalfWidth};
use crate::descriptive::{max, mean, min, sample_std_dev};
use serde::{Deserialize, Serialize};

/// Summary of one metric across experiment replicates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Metric name, e.g. `"power_mw"`.
    pub name: String,
    /// Raw replicate values.
    pub samples: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (`NaN` for a single replicate).
    pub std_dev: f64,
    /// Minimum replicate.
    pub min: f64,
    /// Maximum replicate.
    pub max: f64,
    /// 95% Student-t confidence interval.
    pub ci95: ConfidenceInterval,
}

impl Summary {
    /// Summarises a set of replicate measurements.
    pub fn of(name: impl Into<String>, samples: &[f64]) -> Self {
        Summary {
            name: name.into(),
            samples: samples.to_vec(),
            mean: mean(samples),
            std_dev: sample_std_dev(samples),
            min: min(samples),
            max: max(samples),
            ci95: confidence_interval(samples, ConfidenceLevel::P95),
        }
    }

    /// Relative change of this summary's mean versus a baseline mean,
    /// as a signed fraction (−0.20 = 20% lower). `NaN` if the baseline
    /// mean is zero.
    pub fn relative_to(&self, baseline: &Summary) -> f64 {
        if baseline.mean == 0.0 {
            f64::NAN
        } else {
            (self.mean - baseline.mean) / baseline.mean
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.3} ± {:.3} (n={}, min {:.3}, max {:.3})",
            self.name,
            self.mean,
            HalfWidth(self.ci95.half_width),
            self.samples.len(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_fields() {
        let s = Summary::of("power", &[10.0, 12.0, 11.0]);
        assert_eq!(s.mean, 11.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 12.0);
        assert_eq!(s.samples.len(), 3);
        assert!(s.ci95.half_width > 0.0);
    }

    #[test]
    fn relative_change() {
        let base = Summary::of("w", &[100.0, 100.0]);
        let lower = Summary::of("w", &[80.0, 80.0]);
        assert!((lower.relative_to(&base) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn relative_to_zero_baseline_is_nan() {
        let base = Summary::of("w", &[0.0, 0.0]);
        let other = Summary::of("w", &[1.0]);
        assert!(other.relative_to(&base).is_nan());
    }

    #[test]
    fn display_contains_name_and_n() {
        let s = Summary::of("wakeups", &[5.0, 7.0]);
        let text = s.to_string();
        assert!(text.contains("wakeups"));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn display_of_one_sample_prints_dash_not_nan() {
        let s = Summary::of("power", &[10.0]);
        assert!(s.ci95.half_width.is_nan());
        assert_eq!(
            s.to_string(),
            "power: 10.000 ± - (n=1, min 10.000, max 10.000)"
        );
    }
}
