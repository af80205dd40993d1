//! A string-keyed reference model of the Location Service, built from
//! public API only.
//!
//! It shares no code with the service's per-object slab or rule engine: no
//! `SensorReadingTable`, no interner, no slab, no fusion cache, no DAG,
//! no interest grid, no candidate selection. Readings live in
//! `BTreeMap<object, BTreeMap<sensor, reading>>`, so the live set handed
//! to fusion is sensor-ordered by construction, and every answer is a
//! fresh, uncached `FusionEngine::fuse`. The static world (symbolic
//! resolution, privacy truncation) comes from a `WorldModel` the model
//! builds itself from the same seed database.
//!
//! What it pins, per object:
//! - supersede on the same `(sensor, object)` pair, and revoke;
//! - an epoch bumped on every inserted reading and on every revoke op,
//!   even one that drops nothing;
//! - privacy depths (§4.5) and last-known-good fixes (supervised only);
//! - `query` probability, band and quality, and `locate` fixes.
//!
//! And the §4.3 triggers: every ingest batch evaluates **every** live
//! rule for each affected object (first-touched order, each object
//! once), by walking the rule's `Predicate` tree directly. Atom clocks
//! (dwell starts, `Moved` anchors) are kept per `(rule, object, tree
//! position)` and trigger edges per `(rule, object)`, so a rule
//! registered late starts clean by construction.
//!
//! A supervised model owns its own `SensorSupervisor`: readings are
//! admitted one by one in arrival order, the supervisor ticks once per
//! batch, and quarantined sensors are left out of every fuse.

// Several test crates include this module and each uses part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashSet};

use mw_core::{
    AnswerQuality, CoreError, DegradationPolicy, LocationFix, Notification, PartitionState,
    Predicate, QueryAnswer, Rule, SubscriptionSpec, SubscriptionTrigger, WorldModel,
};
use mw_fusion::{BandThresholds, FusionEngine, FusionResult, ProbabilityBand};
use mw_geometry::{Point, Rect};
use mw_model::{Confidence, Glob, SimTime};
use mw_sensors::{
    AdapterOutput, HealthConfig, MobileObjectId, SensorId, SensorReading, SensorSupervisor,
};
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

/// A notification in the model's shape (subscription ids as raw
/// numbers: the model cannot mint a `SubscriptionId`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fired {
    pub subscription: u64,
    pub object: String,
    pub region: Rect,
    pub probability: f64,
    pub band: ProbabilityBand,
    pub at: SimTime,
}

impl Fired {
    /// The service's notification in the model's shape.
    pub fn of(n: &Notification) -> Fired {
        Fired {
            subscription: n.subscription.value(),
            object: n.object.as_str().to_owned(),
            region: n.region,
            probability: n.probability,
            band: n.band,
            at: n.at,
        }
    }
}

/// An atom clock of one rule for one object.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// When the dwell's child turned true.
    DwellSince(SimTime),
    /// The `Moved` atom's anchor.
    MovedAnchor(Point),
}

/// One rule's state for one object.
#[derive(Debug, Default)]
struct RuleState {
    /// Did the predicate hold on the last evaluation?
    inside: bool,
    /// On-move triggers: the position at the last firing.
    anchor: Option<Point>,
    /// Atom clocks by pre-order position in the predicate tree.
    clocks: BTreeMap<usize, Clock>,
}

struct LiveRule {
    rule: Rule,
    state: BTreeMap<String, RuleState>,
}

/// A predicate's value: truth plus the notification payload.
#[derive(Debug, Clone, Copy)]
struct Value {
    truth: bool,
    probability: f64,
    region: Rect,
}

/// The reference service.
pub struct Reference {
    engine: FusionEngine,
    world: WorldModel,
    universe: Rect,
    /// `Some` on a supervised model: last-known-good fixes are recorded
    /// and served under this policy.
    degradation: Option<DegradationPolicy>,
    /// `Some` on a supervised model: the admission gate and the source
    /// of each fuse's excluded sensors.
    supervisor: Option<SensorSupervisor>,
    /// Distinct hit probabilities seen, in first-seen order (§4.4 bands).
    accuracies: Vec<f64>,
    readings: BTreeMap<String, BTreeMap<String, SensorReading>>,
    epochs: BTreeMap<String, u64>,
    privacy: BTreeMap<String, usize>,
    last_good: BTreeMap<String, LocationFix>,
    next_rule: u64,
    rules: BTreeMap<u64, LiveRule>,
}

impl Reference {
    /// An unsupervised model over the static world in `statics`.
    pub fn new(statics: &SpatialDatabase, universe: Rect) -> Self {
        Reference {
            engine: FusionEngine::new(universe),
            world: WorldModel::from_database(statics),
            universe,
            degradation: None,
            supervisor: None,
            accuracies: Vec::new(),
            readings: BTreeMap::new(),
            epochs: BTreeMap::new(),
            privacy: BTreeMap::new(),
            last_good: BTreeMap::new(),
            next_rule: 0,
            rules: BTreeMap::new(),
        }
    }

    /// The model of a service built over `engine` (e.g. with aging
    /// inflation) instead of a plain one over the universe.
    pub fn with_engine(mut self, engine: FusionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The model of a supervised service with the default
    /// [`DegradationPolicy`] and a supervisor built from `health`.
    pub fn supervised(mut self, health: HealthConfig) -> Self {
        self.degradation = Some(DegradationPolicy::default());
        self.supervisor = Some(SensorSupervisor::new(health));
        self
    }

    // --- rules -----------------------------------------------------------

    /// `subscribe_rule`: ids count up from 0 across every registration.
    pub fn subscribe(&mut self, rule: Rule) -> u64 {
        let id = self.next_rule;
        self.next_rule += 1;
        self.rules.insert(
            id,
            LiveRule {
                rule,
                state: BTreeMap::new(),
            },
        );
        id
    }

    /// `subscribe(spec)`: the documented one-atom shim.
    pub fn subscribe_spec(&mut self, spec: SubscriptionSpec) -> u64 {
        self.subscribe(Rule::from(spec))
    }

    /// `unsubscribe`: whether `id` was live.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.rules.remove(&id).is_some()
    }

    // --- ingest ----------------------------------------------------------

    /// `ingest(output, now)`: a batch of one.
    pub fn ingest(&mut self, output: &AdapterOutput, now: SimTime) -> Vec<Fired> {
        self.ingest_batch(std::slice::from_ref(output), now)
    }

    /// `ingest_batch(outputs, now)`: each output's revocations, then its
    /// readings (through the supervisor's gate, when supervised); then
    /// one supervisor tick; then every live rule for each affected
    /// object, in first-touched order.
    pub fn ingest_batch(&mut self, outputs: &[AdapterOutput], now: SimTime) -> Vec<Fired> {
        let mut affected: Vec<String> = Vec::new();
        let mut touch = |object: &str| {
            if !affected.iter().any(|a| a == object) {
                affected.push(object.to_owned());
            }
        };
        for output in outputs {
            for revocation in &output.revocations {
                let object = revocation.object.as_str();
                if let Some(rows) = self.readings.get_mut(object) {
                    rows.remove(revocation.sensor_id.as_str());
                    if rows.is_empty() {
                        self.readings.remove(object);
                    }
                }
                *self.epochs.entry(object.to_owned()).or_default() += 1;
                touch(object);
            }
            for reading in &output.readings {
                let mut reading = reading.clone();
                if let Some(supervisor) = &mut self.supervisor {
                    if !supervisor.admit(&mut reading, now).is_admitted() {
                        continue;
                    }
                }
                let p = reading.spec.hit_probability();
                if !self.accuracies.iter().any(|&x| (x - p).abs() < 1e-9) {
                    self.accuracies.push(p);
                }
                let object = reading.object.as_str().to_owned();
                touch(&object);
                *self.epochs.entry(object.clone()).or_default() += 1;
                self.readings
                    .entry(object)
                    .or_default()
                    .insert(reading.sensor_id.as_str().to_owned(), reading);
            }
        }
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.tick(now);
        }
        let mut rules = std::mem::take(&mut self.rules);
        let fired = affected
            .iter()
            .flat_map(|object| self.evaluate_rules(&mut rules, object, now))
            .collect();
        self.rules = rules;
        fired
    }

    /// Every live rule admitting `object`, ascending by id.
    fn evaluate_rules(
        &self,
        rules: &mut BTreeMap<u64, LiveRule>,
        object: &str,
        now: SimTime,
    ) -> Vec<Fired> {
        let (fused, _, _) = self.fuse_live(object, now);
        let estimate = fused.best_estimate().map(|e| e.region);
        let mut eval = Eval {
            model: self,
            object,
            fused,
            estimate,
            thresholds: self.thresholds(),
            now,
        };
        let mut fired = Vec::new();
        for (&id, live) in rules.iter_mut() {
            if live
                .rule
                .object
                .as_ref()
                .is_some_and(|o| o.as_str() != object)
            {
                continue;
            }
            let state = live.state.entry(object.to_owned()).or_default();
            let value = eval.walk(&live.rule.predicate, &mut 0, &mut state.clocks);
            if edge(state, live.rule.trigger, value.truth, eval.position()) {
                fired.push(Fired {
                    subscription: id,
                    object: object.to_owned(),
                    region: value.region,
                    probability: value.probability,
                    band: eval.thresholds.classify(value.probability),
                    at: now,
                });
            }
        }
        fired
    }

    // --- per-object state ------------------------------------------------

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

    /// A fresh, uncached fuse over the sensor-ordered live set, leaving
    /// out quarantined sensors; also returns how many live readings
    /// there were and how many the fuse could use.
    fn fuse_live(&self, object: &str, now: SimTime) -> (FusionResult, usize, usize) {
        let live: Vec<SensorReading> = self
            .readings
            .get(object)
            .into_iter()
            .flat_map(BTreeMap::values)
            .filter(|r| !r.is_expired(now))
            .cloned()
            .collect();
        let excluded: HashSet<SensorId> = self
            .supervisor
            .as_ref()
            .map(SensorSupervisor::excluded)
            .unwrap_or_default();
        let used = live
            .iter()
            .filter(|r| !excluded.contains(&r.sensor_id))
            .count();
        let fused = self.engine.fuse_excluding(&live, now, &excluded);
        (fused, live.len(), used)
    }

    /// The query path's fuse and its quality rung: `None` when no live
    /// reading comes from a non-quarantined sensor, `Partial` when some
    /// live reading was left out.
    fn fuse(&self, object: &str, now: SimTime) -> Option<(FusionResult, AnswerQuality)> {
        let (fused, total, used) = self.fuse_live(object, now);
        let quality = if used < total {
            AnswerQuality::Partial
        } else {
            AnswerQuality::Full
        };
        (used > 0).then_some((fused, quality))
    }

    /// `estimate` symbolically resolved and privacy-truncated (§4.5).
    fn resolve(&self, object: &str, region: Rect, probability: f64, now: SimTime) -> LocationFix {
        let mut symbolic = self.world.symbolic_for_rect(&region);
        let mut region = region;
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
        LocationFix {
            object: object.into(),
            region,
            probability,
            band: self.thresholds().classify(probability),
            symbolic,
            at: now,
        }
    }

    /// The fix a `CoLocated` atom reads: no fix when every live reading
    /// comes from a quarantined sensor or there is no estimate; never
    /// recorded as last-known-good.
    fn rule_fix(&self, object: &str, now: SimTime) -> Option<LocationFix> {
        let (fused, total, used) = self.fuse_live(object, now);
        if total > 0 && used == 0 {
            return None;
        }
        let estimate = fused.best_estimate()?;
        Some(self.resolve(object, estimate.region, estimate.probability, now))
    }

    /// `query(LocationQuery::of(object).in_rect(rect).at(now))`.
    pub fn query_rect(&mut self, object: &str, rect: Rect, now: SimTime) -> Answer {
        match self.fuse(object, now) {
            Some((mut result, quality)) => {
                let p = result
                    .region_probability(rect)
                    .expect("query rect inserts into the lattice");
                Answer::Probability {
                    p,
                    band: self.thresholds().classify(p),
                    quality,
                }
            }
            None => self.last_known(object, now, Some(rect)),
        }
    }

    /// `query(LocationQuery::of(object).at(now))`: the best estimate,
    /// symbolically resolved and privacy-truncated.
    pub fn locate(&mut self, object: &str, now: SimTime) -> Answer {
        let Some((estimate, quality)) = self
            .fuse(object, now)
            .and_then(|(r, quality)| Some((r.best_estimate()?, quality)))
        else {
            return self.last_known(object, now, None);
        };
        let fix = self.resolve(object, estimate.region, estimate.probability, now);
        if self.degradation.is_some() {
            self.last_good.insert(object.to_owned(), fix.clone());
        }
        Answer::Fix(fix, quality)
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

/// One object's fuse, read by every rule evaluated for it.
struct Eval<'a> {
    model: &'a Reference,
    object: &'a str,
    fused: FusionResult,
    estimate: Option<Rect>,
    thresholds: BandThresholds,
    now: SimTime,
}

impl Eval<'_> {
    fn position(&self) -> Option<Point> {
        self.estimate.map(|r| r.center())
    }

    /// The payload region of atoms without a region of their own.
    fn own_region(&self) -> Rect {
        self.estimate.unwrap_or(self.model.universe)
    }

    /// Equation 7 by inserting `rect` into the lattice.
    fn probability(&mut self, rect: Rect) -> f64 {
        self.fused
            .region_probability(rect)
            .expect("rule rect inserts into the lattice")
    }

    /// Walks `predicate` without short-circuiting; `pos` numbers the
    /// nodes in pre-order, which keys `clocks`.
    fn walk(
        &mut self,
        predicate: &Predicate,
        pos: &mut usize,
        clocks: &mut BTreeMap<usize, Clock>,
    ) -> Value {
        let here = *pos;
        *pos += 1;
        match predicate {
            Predicate::InRegion {
                region,
                min_probability,
                min_band,
            } => {
                let p = self.probability(*region);
                let band = self.thresholds.classify(p);
                Value {
                    truth: p >= *min_probability && min_band.is_none_or(|min| band >= min),
                    probability: p,
                    region: *region,
                }
            }
            Predicate::NearPoint {
                point,
                radius,
                min_probability,
            } => {
                let rect = Rect::from_center(*point, 2.0 * radius, 2.0 * radius);
                let p = self.probability(rect);
                Value {
                    truth: p >= *min_probability,
                    probability: p,
                    region: rect,
                }
            }
            Predicate::CoLocated { with, granularity } => {
                let own = self.model.rule_fix(self.object, self.now);
                let other = self.model.rule_fix(with.as_str(), self.now);
                match (own, other) {
                    (Some(a), Some(b)) => {
                        let together = share_prefix(&a.symbolic, &b.symbolic, *granularity);
                        Value {
                            truth: together,
                            probability: if together {
                                (a.probability * b.probability).clamp(0.0, 1.0)
                            } else {
                                0.0
                            },
                            region: a.region,
                        }
                    }
                    _ => Value {
                        truth: false,
                        probability: 0.0,
                        region: self.own_region(),
                    },
                }
            }
            Predicate::Moved { threshold } => {
                let region = self.own_region();
                // No estimate: nothing moved, anchor untouched.
                let truth = self.position().is_some_and(|now_at| {
                    let anchor = match clocks.get(&here) {
                        Some(Clock::MovedAnchor(anchor)) => Some(*anchor),
                        _ => None,
                    };
                    let moved = anchor.is_some_and(|a| a.distance(now_at) >= *threshold);
                    if anchor.is_none() || moved {
                        clocks.insert(here, Clock::MovedAnchor(now_at));
                    }
                    moved
                });
                Value {
                    truth,
                    probability: if truth { 1.0 } else { 0.0 },
                    region,
                }
            }
            Predicate::DwellFor {
                predicate,
                duration,
            } => {
                let inner = self.walk(predicate, pos, clocks);
                let since = if inner.truth {
                    let since = match clocks.get(&here) {
                        Some(Clock::DwellSince(since)) => *since,
                        _ => self.now,
                    };
                    clocks.insert(here, Clock::DwellSince(since));
                    Some(since)
                } else {
                    clocks.remove(&here);
                    None
                };
                Value {
                    truth: since.is_some_and(|since| {
                        self.now.saturating_since(since).as_secs() >= duration.as_secs()
                    }),
                    ..inner
                }
            }
            Predicate::Not(child) => {
                let inner = self.walk(child, pos, clocks);
                Value {
                    truth: !inner.truth,
                    probability: (1.0 - inner.probability).clamp(0.0, 1.0),
                    region: inner.region,
                }
            }
            Predicate::And(children) | Predicate::Or(children) => {
                let values: Vec<Value> =
                    children.iter().map(|c| self.walk(c, pos, clocks)).collect();
                let all = matches!(predicate, Predicate::And(_));
                // Payload: And's least child, Or's greatest, by
                // probability and then region corners.
                let key = |v: &Value| {
                    let (lo, hi) = (v.region.min(), v.region.max());
                    [v.probability, lo.x, lo.y, hi.x, hi.y]
                };
                let cmp = |a: &Value, b: &Value| {
                    let (a, b) = (key(a), key(b));
                    (0..5)
                        .map(|i| a[i].total_cmp(&b[i]))
                        .fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
                };
                let payload = if all {
                    values.iter().min_by(|a, b| cmp(a, b))
                } else {
                    values.iter().max_by(|a, b| cmp(a, b))
                }
                .copied()
                .expect("and/or have children");
                Value {
                    truth: if all {
                        values.iter().all(|v| v.truth)
                    } else {
                        values.iter().any(|v| v.truth)
                    },
                    ..payload
                }
            }
        }
    }
}

/// §4.6.3b: both fixes resolve at least `depth` GLOB segments deep and
/// agree on the first `depth`.
fn share_prefix(a: &Option<Glob>, b: &Option<Glob>, depth: usize) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.depth() >= depth
                && b.depth() >= depth
                && a.segments()[..depth] == b.segments()[..depth]
        }
        _ => false,
    }
}

/// Folds one evaluation into a rule's edge state; whether it fires.
fn edge(
    state: &mut RuleState,
    trigger: SubscriptionTrigger,
    holds: bool,
    position: Option<Point>,
) -> bool {
    let was = state.inside;
    state.inside = holds;
    match trigger {
        SubscriptionTrigger::OnEnter => holds && !was,
        SubscriptionTrigger::OnExit => !holds && was,
        SubscriptionTrigger::OnMove { threshold } => {
            if !holds {
                state.anchor = None;
                return false;
            }
            let Some(here) = position else {
                // Entry without a position still fires once.
                return !was;
            };
            let fires = state
                .anchor
                .is_none_or(|anchor| anchor.distance(here) >= threshold);
            if fires {
                state.anchor = Some(here);
            }
            fires
        }
    }
}
