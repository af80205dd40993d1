//! Shared scenario builders for the benchmark harness.
//!
//! Every table and figure of the paper has a regeneration target (see
//! `DESIGN.md` §4 for the index):
//!
//! - `cargo run -p mw-bench --release --bin figures` — Figures 2–8 and
//!   Tables 1–2 (worked examples and schema dumps),
//! - `cargo run -p mw-bench --release --bin fig9_trigger_response` — the
//!   evaluation figure (trigger response time vs. update number for
//!   several programmed-trigger counts),
//! - `cargo run -p mw-bench --release --bin ablations` — the design-choice
//!   studies called out in `DESIGN.md`,
//! - `cargo bench -p mw-bench` — criterion microbenchmarks of the hot
//!   paths.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use mw_bus::Broker;
use mw_core::{LocationService, SubscriptionSpec};
use mw_geometry::{Point, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_sensors::{SensorReading, SensorSpec};
use mw_sim::building::{paper_floor, synthetic_floor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A service over the paper's floor with `n_triggers` programmed
/// subscriptions spread across the universe, plus the broker it notifies
/// on.
#[must_use]
pub fn service_with_triggers(n_triggers: usize, seed: u64) -> (Arc<LocationService>, Broker) {
    let plan = paper_floor();
    let broker = Broker::new();
    let universe = plan.universe;
    let service = LocationService::new(plan.db, universe, &broker);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n_triggers {
        let w = rng.gen_range(5.0..40.0);
        let h = rng.gen_range(5.0..25.0);
        let x = rng.gen_range(0.0..universe.width() - w);
        let y = rng.gen_range(0.0..universe.height() - h);
        let region = Rect::new(Point::new(x, y), Point::new(x + w, y + h));
        let _ = service.subscribe(SubscriptionSpec::region_entry(region, 0.5));
    }
    (service, broker)
}

/// A Ubisense-style reading at `position` for `object`, detected at `at`.
#[must_use]
pub fn ubisense_reading(object: &str, position: Point, at: SimTime) -> SensorReading {
    SensorReading {
        sensor_id: "Ubi-bench".into(),
        spec: SensorSpec::ubisense(1.0),
        object: object.into(),
        glob_prefix: "CS/Floor3".parse().expect("glob"),
        region: Rect::from_center(position, 1.0, 1.0),
        detected_at: at,
        time_to_live: SimDuration::from_secs(60.0),
        tdf: TemporalDegradation::None,
        moving: false,
    }
}

/// A batch of random sensor readings for one object inside `universe`.
#[must_use]
pub fn random_readings(n: usize, universe: Rect, seed: u64) -> Vec<SensorReading> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let w = rng.gen_range(2.0..30.0);
            let h = rng.gen_range(2.0..20.0);
            let x = rng.gen_range(universe.min().x..universe.max().x - w);
            let y = rng.gen_range(universe.min().y..universe.max().y - h);
            let mut r = ubisense_reading(
                "bench-object",
                Point::new(x + w / 2.0, y + h / 2.0),
                SimTime::ZERO,
            );
            r.region = Rect::new(Point::new(x, y), Point::new(x + w, y + h));
            r.sensor_id = format!("Ubi-{i}").as_str().into();
            r
        })
        .collect()
}

/// Simple latency statistics over a sample.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// The raw samples, sorted ascending.
    pub sorted: Vec<Duration>,
}

impl LatencyStats {
    /// Collects and sorts samples.
    #[must_use]
    pub fn new(mut samples: Vec<Duration>) -> Self {
        samples.sort();
        LatencyStats { sorted: samples }
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.sorted.iter().sum();
        total / self.sorted.len() as u32
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.sorted[idx]
    }
}

/// Times a closure.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Re-export of the synthetic floor for scaling studies.
#[must_use]
pub fn scaling_floor(rooms_per_side: usize) -> mw_sim::FloorPlan {
    synthetic_floor(rooms_per_side)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_are_programmed() {
        let (service, _broker) = service_with_triggers(25, 1);
        assert_eq!(service.subscription_count(), 25);
    }

    #[test]
    fn random_readings_stay_in_universe() {
        let universe = Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0));
        for r in random_readings(50, universe, 3) {
            assert!(universe.contains_rect(&r.region));
        }
    }

    #[test]
    fn latency_stats() {
        let stats = LatencyStats::new(vec![
            Duration::from_millis(1),
            Duration::from_millis(3),
            Duration::from_millis(2),
        ]);
        assert_eq!(stats.mean(), Duration::from_millis(2));
        assert_eq!(stats.quantile(0.0), Duration::from_millis(1));
        assert_eq!(stats.quantile(1.0), Duration::from_millis(3));
    }

    #[test]
    fn time_it_returns_value() {
        let (v, d) = time_it(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
