//! A string-keyed reference model of the Location Service's per-object
//! state, built from public API only.
//!
//! It shares no code with the service's shard layer: no
//! `SensorReadingTable`, no interner, no slab, no fusion cache. Readings
//! live in `BTreeMap<object, BTreeMap<sensor, reading>>`, so the live set
//! handed to fusion is sensor-ordered by construction, and every answer
//! is a fresh, uncached `FusionEngine::fuse`. The static world (symbolic
//! resolution, privacy truncation) comes from a `WorldModel` the model
//! builds itself from the same seed database.
//!
//! What it pins, per object:
//! - supersede on the same `(sensor, object)` pair, and revoke;
//! - an epoch bumped on every inserted reading and on every revoke op,
//!   even one that drops nothing;
//! - privacy depths (§4.5) and last-known-good fixes (supervised only);
//! - `query` probability, band and quality, and `locate` fixes.

use std::collections::BTreeMap;

use mw_core::{
    AnswerQuality, CoreError, DegradationPolicy, LocationFix, PartitionState, QueryAnswer,
    WorldModel,
};
use mw_fusion::{BandThresholds, FusionEngine, FusionResult, ProbabilityBand};
use mw_geometry::Rect;
use mw_model::{Confidence, SimTime};
use mw_sensors::{AdapterOutput, MobileObjectId, SensorReading};
use mw_spatial_db::SpatialDatabase;

/// A query answer reduced to what the model predicts; errors collapse
/// to one variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A region-probability answer.
    Probability {
        p: f64,
        band: ProbabilityBand,
        quality: AnswerQuality,
    },
    /// A best-estimate answer.
    Fix(LocationFix, AnswerQuality),
    /// Any error (no location, unknown region, …).
    Error,
}

impl Answer {
    /// The service's answer in the model's shape.
    pub fn of(answer: Result<QueryAnswer, CoreError>) -> Answer {
        let Ok(answer) = answer else {
            return Answer::Error;
        };
        match (answer.fix(), answer.probability(), answer.band()) {
            (Some(fix), _, _) => Answer::Fix(fix.clone(), answer.quality()),
            (None, Some(p), Some(band)) => Answer::Probability {
                p,
                band,
                quality: answer.quality(),
            },
            _ => panic!("the model answers fix and probability queries only: {answer:?}"),
        }
    }
}

/// The reference service.
pub struct Reference {
    engine: FusionEngine,
    world: WorldModel,
    universe: Rect,
    /// `Some` on a supervised model: last-known-good fixes are recorded
    /// and served under this policy.
    degradation: Option<DegradationPolicy>,
    /// Distinct hit probabilities seen, in first-seen order (§4.4 bands).
    accuracies: Vec<f64>,
    readings: BTreeMap<String, BTreeMap<String, SensorReading>>,
    epochs: BTreeMap<String, u64>,
    privacy: BTreeMap<String, usize>,
    last_good: BTreeMap<String, LocationFix>,
}

impl Reference {
    /// An unsupervised model over the static world in `statics`.
    pub fn new(statics: &SpatialDatabase, universe: Rect) -> Self {
        Reference {
            engine: FusionEngine::new(universe),
            world: WorldModel::from_database(statics),
            universe,
            degradation: None,
            accuracies: Vec::new(),
            readings: BTreeMap::new(),
            epochs: BTreeMap::new(),
            privacy: BTreeMap::new(),
            last_good: BTreeMap::new(),
        }
    }

    /// The model of a supervised service with the default
    /// [`DegradationPolicy`], for schedules no sanity gate rejects.
    pub fn supervised(mut self) -> Self {
        self.degradation = Some(DegradationPolicy::default());
        self
    }

    /// One adapter output: its revocations, then its readings.
    pub fn ingest(&mut self, output: &AdapterOutput) {
        for revocation in &output.revocations {
            let object = revocation.object.as_str();
            if let Some(rows) = self.readings.get_mut(object) {
                rows.remove(revocation.sensor_id.as_str());
                if rows.is_empty() {
                    self.readings.remove(object);
                }
            }
            *self.epochs.entry(object.to_owned()).or_default() += 1;
        }
        for reading in &output.readings {
            let p = reading.spec.hit_probability();
            if !self.accuracies.iter().any(|&x| (x - p).abs() < 1e-9) {
                self.accuracies.push(p);
            }
            let object = reading.object.as_str().to_owned();
            *self.epochs.entry(object.clone()).or_default() += 1;
            self.readings
                .entry(object)
                .or_default()
                .insert(reading.sensor_id.as_str().to_owned(), reading.clone());
        }
    }

    pub fn set_privacy(&mut self, object: &str, max_depth: usize) {
        self.privacy.insert(object.to_owned(), max_depth);
    }

    pub fn clear_privacy(&mut self, object: &str) {
        self.privacy.remove(object);
    }

    pub fn import_last_good(&mut self, fix: LocationFix) {
        self.last_good.insert(fix.object.as_str().to_owned(), fix);
    }

    pub fn epoch(&self, object: &str) -> u64 {
        self.epochs.get(object).copied().unwrap_or(0)
    }

    /// Stored rows, expired ones included (nothing prunes them).
    pub fn reading_count(&self) -> usize {
        self.readings.values().map(BTreeMap::len).sum()
    }

    /// Objects with a live reading at `now`, sorted.
    pub fn tracked_objects(&self, now: SimTime) -> Vec<MobileObjectId> {
        self.readings
            .iter()
            .filter(|(_, rows)| rows.values().any(|r| !r.is_expired(now)))
            .map(|(object, _)| object.as_str().into())
            .collect()
    }

    /// The partition snapshot: live readings by (object, sensor), then
    /// last-known-good fixes by object.
    pub fn export(&self, now: SimTime) -> PartitionState {
        PartitionState {
            readings: self
                .readings
                .values()
                .flat_map(BTreeMap::values)
                .filter(|r| !r.is_expired(now))
                .cloned()
                .collect(),
            last_good: self.last_good.values().cloned().collect(),
        }
    }

    fn thresholds(&self) -> BandThresholds {
        BandThresholds::from_sensor_accuracies(&self.accuracies)
    }

    /// A fresh, uncached fuse over the sensor-ordered live set; `None`
    /// when the object has no live reading.
    fn fuse(&self, object: &str, now: SimTime) -> Option<FusionResult> {
        let live: Vec<SensorReading> = self
            .readings
            .get(object)?
            .values()
            .filter(|r| !r.is_expired(now))
            .cloned()
            .collect();
        (!live.is_empty()).then(|| self.engine.fuse(&live, now))
    }

    /// `query(LocationQuery::of(object).in_rect(rect).at(now))`.
    pub fn query_rect(&mut self, object: &str, rect: Rect, now: SimTime) -> Answer {
        match self.fuse(object, now) {
            Some(mut result) => {
                let p = result
                    .region_probability(rect)
                    .expect("query rect inserts into the lattice");
                Answer::Probability {
                    p,
                    band: self.thresholds().classify(p),
                    quality: AnswerQuality::Full,
                }
            }
            None => self.last_known(object, now, Some(rect)),
        }
    }

    /// `query(LocationQuery::of(object).at(now))`: the best estimate,
    /// symbolically resolved and privacy-truncated.
    pub fn locate(&mut self, object: &str, now: SimTime) -> Answer {
        let Some(estimate) = self.fuse(object, now).and_then(|r| r.best_estimate()) else {
            return self.last_known(object, now, None);
        };
        let mut symbolic = self.world.symbolic_for_rect(&estimate.region);
        let mut region = estimate.region;
        if let Some(&depth) = self.privacy.get(object) {
            match symbolic.take() {
                Some(glob) => {
                    let truncated = glob.truncated(depth);
                    if let Ok(rect) = self.world.region_rect(&truncated.to_string()) {
                        region = rect;
                    }
                    symbolic = Some(truncated);
                }
                None => region = self.universe,
            }
        }
        let fix = LocationFix {
            object: object.into(),
            region,
            probability: estimate.probability,
            band: self.thresholds().classify(estimate.probability),
            symbolic,
            at: now,
        };
        if self.degradation.is_some() {
            self.last_good.insert(object.to_owned(), fix.clone());
        }
        Answer::Fix(fix, AnswerQuality::Full)
    }

    /// The last-known-good rung: the cached fix aged by the policy, as a
    /// fix (`rect = None`) or as the uniform share of the widened region
    /// that falls in `rect`.
    fn last_known(&self, object: &str, now: SimTime, rect: Option<Rect>) -> Answer {
        let (Some(policy), Some(cached)) = (&self.degradation, self.last_good.get(object)) else {
            return Answer::Error;
        };
        let age = now.saturating_since(cached.at);
        if age > policy.lkg_max_age {
            return Answer::Error;
        }
        let probability = policy
            .lkg_tdf
            .apply(Confidence::saturating(cached.probability), age)
            .value();
        let widened = cached
            .region
            .inflated(policy.lkg_inflation_ft_per_s * age.as_secs())
            .intersection(&self.universe)
            .unwrap_or(cached.region);
        let quality = AnswerQuality::LastKnownGood;
        match rect {
            None => Answer::Fix(
                LocationFix {
                    object: object.into(),
                    region: widened,
                    probability,
                    band: self.thresholds().classify(probability),
                    symbolic: cached.symbolic.clone(),
                    at: cached.at,
                },
                quality,
            ),
            Some(rect) => {
                let share = widened
                    .intersection(&rect)
                    .map_or(0.0, |i| i.area() / widened.area().max(f64::MIN_POSITIVE));
                let p = probability * share.clamp(0.0, 1.0);
                Answer::Probability {
                    p,
                    band: self.thresholds().classify(p),
                    quality,
                }
            }
        }
    }
}
