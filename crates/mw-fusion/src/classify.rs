//! Classification of the probability space (§4.4).
//!
//! "Most application developers, in our experience, do not want to deal
//! with actual probability values." The paper divides `[0, 1]` into four
//! bands derived from the accuracy of the deployed sensors:
//!
//! ```text
//! (0,               min(p_i of all sensors)]   low
//! (min p_i,         median of all p_i]         medium
//! (median p_i,      highest p_i]               high
//! (highest p_i,     1]                         very high
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

/// A qualitative probability band applications can subscribe to instead of
/// raw probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProbabilityBand {
    /// `(0, min p_i]`.
    Low,
    /// `(min p_i, median p_i]`.
    Medium,
    /// `(median p_i, max p_i]`.
    High,
    /// `(max p_i, 1]`.
    VeryHigh,
}

impl fmt::Display for ProbabilityBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbabilityBand::Low => "low",
            ProbabilityBand::Medium => "medium",
            ProbabilityBand::High => "high",
            ProbabilityBand::VeryHigh => "very high",
        };
        f.write_str(s)
    }
}

/// The thresholds separating the four bands, derived from the hit
/// probabilities of the deployed sensors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandThresholds {
    min_p: f64,
    median_p: f64,
    max_p: f64,
}

impl BandThresholds {
    /// Derives thresholds from the deployed sensors' hit probabilities
    /// (`p_i`'s in the paper's notation).
    ///
    /// With no sensors, falls back to the fixed quartiles 0.25/0.5/0.75 so
    /// classification still behaves sensibly.
    #[must_use]
    pub fn from_sensor_accuracies(ps: &[f64]) -> Self {
        if ps.is_empty() {
            return BandThresholds {
                min_p: 0.25,
                median_p: 0.5,
                max_p: 0.75,
            };
        }
        // Inline-first buffer, not a `Vec`: this runs once per fuse on
        // the ingest hot path, which must stay allocation-free in
        // steady state (DESIGN.md §15) — typical deployments fuse well
        // under 8 readings per object.
        let mut sorted: crate::SmallBuf<f64, 8> = crate::SmallBuf::default();
        for p in ps {
            sorted.push(p.clamp(0.0, 1.0));
        }
        let sorted = sorted.as_mut_slice();
        sorted.sort_by(f64::total_cmp);
        let min_p = sorted[0];
        let max_p = sorted[sorted.len() - 1];
        let median_p = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        BandThresholds {
            min_p,
            median_p,
            max_p,
        }
    }

    /// Explicit thresholds (must satisfy `0 ≤ min ≤ median ≤ max ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics when the ordering constraint is violated.
    #[must_use]
    pub fn explicit(min_p: f64, median_p: f64, max_p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_p) && min_p <= median_p && median_p <= max_p && max_p <= 1.0,
            "thresholds must satisfy 0 <= min <= median <= max <= 1"
        );
        BandThresholds {
            min_p,
            median_p,
            max_p,
        }
    }

    /// Classifies a probability into its band.
    #[must_use]
    pub fn classify(&self, probability: f64) -> ProbabilityBand {
        let p = probability.clamp(0.0, 1.0);
        if p <= self.min_p {
            ProbabilityBand::Low
        } else if p <= self.median_p {
            ProbabilityBand::Medium
        } else if p <= self.max_p {
            ProbabilityBand::High
        } else {
            ProbabilityBand::VeryHigh
        }
    }

    /// The lower edge of the band (exclusive), useful for subscriptions
    /// asking "at least `band`".
    #[must_use]
    pub fn lower_bound(&self, band: ProbabilityBand) -> f64 {
        match band {
            ProbabilityBand::Low => 0.0,
            ProbabilityBand::Medium => self.min_p,
            ProbabilityBand::High => self.median_p,
            ProbabilityBand::VeryHigh => self.max_p,
        }
    }
}

impl Default for BandThresholds {
    fn default() -> Self {
        BandThresholds::from_sensor_accuracies(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_from_sensor_accuracies() {
        // Sensors with p = 0.6, 0.8, 0.95 (RFID, generic, Ubisense-ish).
        let t = BandThresholds::from_sensor_accuracies(&[0.8, 0.95, 0.6]);
        assert_eq!(t.classify(0.5), ProbabilityBand::Low);
        assert_eq!(t.classify(0.6), ProbabilityBand::Low); // inclusive edge
        assert_eq!(t.classify(0.7), ProbabilityBand::Medium);
        assert_eq!(t.classify(0.8), ProbabilityBand::Medium);
        assert_eq!(t.classify(0.9), ProbabilityBand::High);
        assert_eq!(t.classify(0.95), ProbabilityBand::High);
        assert_eq!(t.classify(0.97), ProbabilityBand::VeryHigh);
        assert_eq!(t.classify(1.0), ProbabilityBand::VeryHigh);
    }

    #[test]
    fn even_count_uses_median_average() {
        let t = BandThresholds::from_sensor_accuracies(&[0.6, 0.8]);
        // median = 0.7.
        assert_eq!(t.classify(0.65), ProbabilityBand::Medium);
        assert_eq!(t.classify(0.75), ProbabilityBand::High);
    }

    #[test]
    fn no_sensors_falls_back_to_quartiles() {
        let t = BandThresholds::default();
        assert_eq!(t.classify(0.1), ProbabilityBand::Low);
        assert_eq!(t.classify(0.3), ProbabilityBand::Medium);
        assert_eq!(t.classify(0.6), ProbabilityBand::High);
        assert_eq!(t.classify(0.9), ProbabilityBand::VeryHigh);
    }

    #[test]
    fn band_ordering() {
        assert!(ProbabilityBand::Low < ProbabilityBand::Medium);
        assert!(ProbabilityBand::Medium < ProbabilityBand::High);
        assert!(ProbabilityBand::High < ProbabilityBand::VeryHigh);
    }

    #[test]
    fn lower_bounds_are_monotone() {
        let t = BandThresholds::from_sensor_accuracies(&[0.6, 0.8, 0.95]);
        assert!(t.lower_bound(ProbabilityBand::Low) < t.lower_bound(ProbabilityBand::Medium));
        assert!(t.lower_bound(ProbabilityBand::Medium) < t.lower_bound(ProbabilityBand::High));
        assert!(t.lower_bound(ProbabilityBand::High) < t.lower_bound(ProbabilityBand::VeryHigh));
    }

    #[test]
    fn classification_is_monotone_in_probability() {
        let t = BandThresholds::from_sensor_accuracies(&[0.5, 0.7, 0.9]);
        let mut prev = t.classify(0.0);
        for i in 1..=100 {
            let cur = t.classify(i as f64 / 100.0);
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let t = BandThresholds::default();
        assert_eq!(t.classify(-0.5), ProbabilityBand::Low);
        assert_eq!(t.classify(1.5), ProbabilityBand::VeryHigh);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn explicit_rejects_bad_ordering() {
        let _ = BandThresholds::explicit(0.8, 0.5, 0.9);
    }

    #[test]
    fn display() {
        assert_eq!(ProbabilityBand::VeryHigh.to_string(), "very high");
        assert_eq!(ProbabilityBand::Low.to_string(), "low");
    }
}
