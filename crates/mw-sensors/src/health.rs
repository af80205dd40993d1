//! Sensor supervision: per-sensor health states, sanity gates and
//! quarantine with half-open probing.
//!
//! The paper models *calibrated* sensor error (§4.1.1) and decays
//! confidence with age (§3.2), but assumes every registered adapter is
//! live and sane. This module supervises the sensing layer itself:
//!
//! - a per-sensor state machine `Healthy → Degraded → Quarantined →
//!   (half-open probe) → Healthy`,
//! - **staleness watchdogs** against each technology's declared update
//!   period ([`crate::SensorType::declared_update_period`]),
//! - **sanity gates** on every reading: calibration probabilities outside
//!   `[0, 1]`, regions outside the registered building frame, implied
//!   velocity above a per-object bound, and future timestamps (clamped
//!   and counted, never silently trusted),
//! - **chronic conflict-loss feedback** from the fusion layer's conflict
//!   resolution (§4.1.2): a sensor whose readings keep losing conflicts
//!   is probably lying.
//!
//! Quarantine re-admission uses capped-exponential half-open probing with
//! seeded jitter — the same backoff discipline as the `mw-bus` reconnect
//! path, but on the simulation clock: once a sensor's quarantine window
//! elapses, its next reading is admitted as a *probe*; a clean probe
//! recovers the sensor, a dirty one re-arms quarantine with a doubled
//! (capped) window.
//!
//! All activity is published under `health.*` when a
//! [`MetricsRegistry`] is bound, including a per-sensor state gauge
//! `health.sensor.<id>.state` (0 = healthy, 1 = degraded,
//! 2 = quarantined).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use mw_geometry::{Point, Rect};
use mw_model::{SimDuration, SimTime};
use mw_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{MobileObjectId, SensorId, SensorReading};

/// Default jitter seed for quarantine backoff (deterministic unless the
/// deployment overrides it).
pub const DEFAULT_HEALTH_JITTER_SEED: u64 = 0x6d77_6865_616c_7468; // "mwhealth"

/// A sensor's supervision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Behaving normally; readings flow into fusion.
    Healthy,
    /// Accumulating violations or silence; readings still flow, but the
    /// sensor is one step from quarantine.
    Degraded,
    /// Excluded from fusion; readings are dropped until the half-open
    /// probe window opens.
    Quarantined,
}

impl HealthState {
    /// Numeric encoding used by the `health.sensor.<id>.state` gauge.
    #[must_use]
    pub fn as_gauge(self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Quarantined => 2.0,
        }
    }
}

/// Why a reading (or a silence) counted against a sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Violation {
    /// A calibration probability outside `[0, 1]` (possible via
    /// deserialized wire data, which bypasses `SensorSpec::new`).
    ConfidenceOutOfRange,
    /// The reported region lies outside the registered building frame.
    OutOfFrame,
    /// The implied velocity between consecutive sightings of one object
    /// exceeds the per-object bound.
    Teleport,
    /// The reading was stamped ahead of the service clock (clamped, then
    /// counted — see [`SensorReading::clamp_future_timestamp`]).
    FutureTimestamp,
    /// The staleness watchdog fired: no reading within the allowed
    /// multiple of the sensor's declared update period.
    Stale,
    /// Chronic conflict losses reported by the fusion layer.
    ConflictLoss,
}

impl Violation {
    fn counter_name(self) -> &'static str {
        match self {
            Violation::ConfidenceOutOfRange => "health.violations.confidence",
            Violation::OutOfFrame => "health.violations.out_of_frame",
            Violation::Teleport => "health.violations.teleport",
            Violation::FutureTimestamp => "health.violations.future_timestamp",
            Violation::Stale => "health.violations.stale",
            Violation::ConflictLoss => "health.violations.conflict_loss",
        }
    }
}

/// The supervisor's verdict on one reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GateDecision {
    /// Sane; ingest it.
    Accept,
    /// Ingest it, but its future timestamp was clamped to `now` (the
    /// violation is counted against the sensor).
    AcceptClamped(Violation),
    /// Drop it; the violation that killed it.
    Reject(Violation),
    /// Drop it; the sensor is in closed quarantine (no probe due yet).
    Quarantined,
}

impl GateDecision {
    /// `true` when the reading should be ingested.
    #[must_use]
    pub fn is_admitted(self) -> bool {
        matches!(self, GateDecision::Accept | GateDecision::AcceptClamped(_))
    }
}

/// One recorded state transition (see
/// [`SensorSupervisor::enable_transition_log`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionEvent {
    /// The sensor that moved.
    pub sensor: SensorId,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// When it moved.
    pub at: SimTime,
}

/// Supervision policy. [`HealthConfig::new`] picks conservative defaults;
/// every knob is public for deployments (and tests) to tune.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// The registered building frame; readings must fall inside it.
    pub frame: Rect,
    /// Default implied-velocity bound, ft/s (a sprinting human is
    /// ~30 ft/s; indoor technologies should never exceed this between
    /// consecutive sightings).
    pub max_speed_ft_per_s: f64,
    /// Per-object overrides of the velocity bound (vehicles, robots).
    pub speed_bounds: HashMap<MobileObjectId, f64>,
    /// The staleness watchdog fires when a periodic sensor is silent for
    /// more than `staleness_factor ×` its declared update period.
    pub staleness_factor: f64,
    /// Violation strikes while `Healthy` before demotion to `Degraded`.
    pub degrade_after: u32,
    /// Violation strikes while `Degraded` before quarantine.
    pub quarantine_after: u32,
    /// Consecutive clean readings while `Degraded` that restore
    /// `Healthy`.
    pub recover_after: u32,
    /// Consecutive fusion conflict losses that count as one strike.
    pub conflict_loss_threshold: u32,
    /// First quarantine window.
    pub initial_quarantine: SimDuration,
    /// Cap for the doubling quarantine window.
    pub max_quarantine: SimDuration,
    /// Seed for the backoff jitter RNG (deterministic by default).
    pub jitter_seed: u64,
}

impl HealthConfig {
    /// Defaults for a deployment whose building frame is `frame`.
    #[must_use]
    pub fn new(frame: Rect) -> Self {
        HealthConfig {
            frame,
            max_speed_ft_per_s: 50.0,
            speed_bounds: HashMap::new(),
            staleness_factor: 3.0,
            degrade_after: 2,
            quarantine_after: 3,
            recover_after: 3,
            conflict_loss_threshold: 8,
            initial_quarantine: SimDuration::from_secs(5.0),
            max_quarantine: SimDuration::from_secs(80.0),
            jitter_seed: DEFAULT_HEALTH_JITTER_SEED,
        }
    }

    fn speed_bound(&self, object: &MobileObjectId) -> f64 {
        self.speed_bounds
            .get(object)
            .copied()
            .unwrap_or(self.max_speed_ft_per_s)
    }
}

/// Handles on every `health.*` metric, resolved once at bind time (the
/// per-sensor state gauges are resolved lazily as sensors register).
#[derive(Debug, Clone)]
struct HealthMetrics {
    registry: MetricsRegistry,
    violations: HashMap<&'static str, mw_obs::Counter>,
    conflict_losses: mw_obs::Counter,
    quarantines: mw_obs::Counter,
    recoveries: mw_obs::Counter,
    probes: mw_obs::Counter,
    readings_accepted: mw_obs::Counter,
    readings_clamped: mw_obs::Counter,
    readings_rejected: mw_obs::Counter,
    quarantine_dropped: mw_obs::Counter,
}

impl HealthMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let violations = [
            Violation::ConfidenceOutOfRange,
            Violation::OutOfFrame,
            Violation::Teleport,
            Violation::FutureTimestamp,
            Violation::Stale,
            Violation::ConflictLoss,
        ]
        .into_iter()
        .map(|v| (v.counter_name(), registry.counter(v.counter_name())))
        .collect();
        HealthMetrics {
            registry: registry.clone(),
            violations,
            conflict_losses: registry.counter("health.conflict_losses"),
            quarantines: registry.counter("health.quarantines"),
            recoveries: registry.counter("health.recoveries"),
            probes: registry.counter("health.probes"),
            readings_accepted: registry.counter("health.readings_accepted"),
            readings_clamped: registry.counter("health.readings_clamped"),
            readings_rejected: registry.counter("health.readings_rejected"),
            quarantine_dropped: registry.counter("health.quarantine_dropped"),
        }
    }

    fn count_violation(&self, violation: Violation) {
        if let Some(c) = self.violations.get(violation.counter_name()) {
            c.inc();
        }
    }
}

/// Per-sensor supervision record.
#[derive(Debug)]
struct SensorRecord {
    state: HealthState,
    update_period: Option<SimDuration>,
    /// Next instant the staleness watchdog considers this sensor late
    /// (`None` for event-driven sensors and while quarantined).
    stale_deadline: Option<SimTime>,
    /// Violation strikes accumulated in the current state.
    strikes: u32,
    /// Consecutive clean readings (drives Degraded → Healthy recovery).
    clean_streak: u32,
    /// Consecutive fusion conflict losses.
    conflict_losses: u32,
    /// Current quarantine window (doubles on failed probes, capped).
    backoff: SimDuration,
    /// When quarantined: the instant the half-open probe window opens.
    probe_at: SimTime,
    /// Last sighting per object, for the implied-velocity gate.
    last_positions: HashMap<MobileObjectId, (SimTime, Point)>,
    gauge: Option<mw_obs::Gauge>,
}

impl SensorRecord {
    fn new(update_period: Option<SimDuration>, now: SimTime, config: &HealthConfig) -> Self {
        SensorRecord {
            state: HealthState::Healthy,
            update_period,
            stale_deadline: update_period.map(|p| now + p * config.staleness_factor),
            strikes: 0,
            clean_streak: 0,
            conflict_losses: 0,
            backoff: config.initial_quarantine,
            probe_at: SimTime::ZERO,
            last_positions: HashMap::new(),
            gauge: None,
        }
    }
}

/// A supervisor shared between layers (adapter instrumentation at the
/// edge, the Location Service at the core).
pub type SharedSupervisor = Arc<Mutex<SensorSupervisor>>;

/// The sensor supervisor: tracks every sensor's health, gates readings,
/// runs the staleness watchdog and manages quarantine.
///
/// # Example
///
/// ```
/// use mw_geometry::{Point, Rect};
/// use mw_model::SimTime;
/// use mw_sensors::health::{GateDecision, HealthConfig, SensorSupervisor};
///
/// let frame = Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0));
/// let mut supervisor = SensorSupervisor::new(HealthConfig::new(frame));
/// // Readings are admitted (and possibly clamped) via `admit`; the
/// // watchdog runs via `tick`.
/// supervisor.tick(SimTime::from_secs(1.0));
/// assert_eq!(supervisor.quarantined_count(), 0);
/// ```
#[derive(Debug)]
pub struct SensorSupervisor {
    config: HealthConfig,
    sensors: HashMap<SensorId, SensorRecord>,
    rng: StdRng,
    metrics: Option<HealthMetrics>,
    transitions: Transitions,
}

/// What every state transition updates besides the record itself.
#[derive(Debug, Default)]
struct Transitions {
    /// The quarantined sensors, so [`SensorSupervisor::excluded`] costs
    /// O(quarantined) instead of a scan of every sensor.
    quarantined: HashSet<SensorId>,
    /// The transition log, when enabled.
    log: Option<Vec<TransitionEvent>>,
}

impl SensorSupervisor {
    /// Creates a supervisor with the given policy.
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        SensorSupervisor {
            config,
            sensors: HashMap::new(),
            rng,
            metrics: None,
            transitions: Transitions::default(),
        }
    }

    /// Publishes `health.*` metrics (violation counters, quarantine and
    /// recovery counts, per-sensor state gauges) to `registry`.
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.bind_metrics(registry);
        self
    }

    /// In-place variant of [`SensorSupervisor::with_metrics`].
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        let metrics = HealthMetrics::new(registry);
        for (id, record) in &mut self.sensors {
            let gauge = metrics.registry.gauge(&format!("health.sensor.{id}.state"));
            gauge.set(record.state.as_gauge());
            record.gauge = Some(gauge);
        }
        self.metrics = Some(metrics);
    }

    /// Wraps the supervisor for sharing across layers.
    #[must_use]
    pub fn shared(self) -> SharedSupervisor {
        Arc::new(Mutex::new(self))
    }

    /// Starts recording every state transition (unbounded; intended for
    /// tests verifying the state machine).
    pub fn enable_transition_log(&mut self) {
        self.transitions.log = Some(Vec::new());
    }

    /// The recorded transitions, oldest first (empty unless
    /// [`enable_transition_log`](SensorSupervisor::enable_transition_log)
    /// was called).
    #[must_use]
    pub fn transition_log(&self) -> &[TransitionEvent] {
        self.transitions.log.as_deref().unwrap_or(&[])
    }

    /// The supervision policy.
    #[must_use]
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Registers a sensor ahead of its first reading so the staleness
    /// watchdog covers it from `now` (sensors also self-register on
    /// their first admitted reading).
    pub fn register(
        &mut self,
        sensor: impl Into<SensorId>,
        update_period: Option<SimDuration>,
        now: SimTime,
    ) {
        let sensor = sensor.into();
        if self.sensors.contains_key(&sensor) {
            return;
        }
        let mut record = SensorRecord::new(update_period, now, &self.config);
        if let Some(metrics) = &self.metrics {
            let gauge = metrics
                .registry
                .gauge(&format!("health.sensor.{sensor}.state"));
            gauge.set(record.state.as_gauge());
            record.gauge = Some(gauge);
        }
        self.sensors.insert(sensor, record);
    }

    /// Runs the sanity gates on one reading at `now`, updating the
    /// sensor's health. Future timestamps are clamped in place (hence
    /// `&mut`). Returns whether the reading should be ingested.
    pub fn admit(&mut self, reading: &mut SensorReading, now: SimTime) -> GateDecision {
        self.register(reading.sensor_id.clone(), reading.spec.update_period(), now);
        let sensor = reading.sensor_id.clone();
        let record = self.sensors.get_mut(&sensor).expect("just registered");

        // Closed quarantine: drop without counting a violation.
        if record.state == HealthState::Quarantined && now < record.probe_at {
            if let Some(m) = &self.metrics {
                m.quarantine_dropped.inc();
            }
            return GateDecision::Quarantined;
        }
        let probing = record.state == HealthState::Quarantined;
        if probing {
            if let Some(m) = &self.metrics {
                m.probes.inc();
            }
        }

        // Sanity gates. The future-timestamp gate clamps rather than
        // rejects, so run it first and remember the clamp.
        let clamped = reading.clamp_future_timestamp(now);
        let violation = Self::gate(&self.config, record, reading);

        // Any admitted-or-rejected contact counts as a sighting for the
        // staleness watchdog.
        record.stale_deadline = record
            .update_period
            .map(|p| now + p * self.config.staleness_factor);

        if probing {
            // Half-open probe: only a pristine reading recovers the
            // sensor; anything dirty re-arms quarantine with a doubled,
            // capped, jittered window.
            if violation.is_none() && !clamped {
                set_state(
                    record,
                    &sensor,
                    HealthState::Healthy,
                    now,
                    self.metrics.as_ref(),
                    &mut self.transitions,
                );
                record.backoff = self.config.initial_quarantine;
                if let Some(m) = &self.metrics {
                    m.recoveries.inc();
                    m.readings_accepted.inc();
                }
                return GateDecision::Accept;
            }
            let failed = violation.unwrap_or(Violation::FutureTimestamp);
            if let Some(m) = &self.metrics {
                m.count_violation(failed);
                m.readings_rejected.inc();
            }
            requarantine(record, now, &self.config, &mut self.rng);
            return GateDecision::Reject(failed);
        }

        if clamped {
            strike(
                record,
                &sensor,
                Violation::FutureTimestamp,
                now,
                &self.config,
                &mut self.rng,
                self.metrics.as_ref(),
                &mut self.transitions,
            );
        }
        match violation {
            Some(v) => {
                strike(
                    record,
                    &sensor,
                    v,
                    now,
                    &self.config,
                    &mut self.rng,
                    self.metrics.as_ref(),
                    &mut self.transitions,
                );
                if let Some(m) = &self.metrics {
                    m.readings_rejected.inc();
                }
                GateDecision::Reject(v)
            }
            None if clamped => {
                if let Some(m) = &self.metrics {
                    m.readings_clamped.inc();
                }
                GateDecision::AcceptClamped(Violation::FutureTimestamp)
            }
            None => {
                clean_reading(
                    record,
                    &sensor,
                    now,
                    &self.config,
                    self.metrics.as_ref(),
                    &mut self.transitions,
                );
                if let Some(m) = &self.metrics {
                    m.readings_accepted.inc();
                }
                GateDecision::Accept
            }
        }
    }

    /// The value-level gates; returns the first violation found. The
    /// velocity anchor is always advanced so an isolated jump costs one
    /// strike, not a permanent ban.
    fn gate(
        config: &HealthConfig,
        record: &mut SensorRecord,
        reading: &SensorReading,
    ) -> Option<Violation> {
        let mut violation = None;
        let in_unit = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        let z = match reading.spec.misident_model() {
            crate::MisidentModel::Fixed(z)
            | crate::MisidentModel::AreaProportional { factor: z } => z,
        };
        if !in_unit(reading.spec.carry_probability())
            || !in_unit(reading.spec.detection_probability())
            || !in_unit(z)
        {
            return Some(Violation::ConfidenceOutOfRange);
        }
        if !config.frame.contains_rect(&reading.region) {
            // Known-garbage position: don't let it become the velocity
            // anchor, or the next sane reading looks like a teleport.
            return Some(Violation::OutOfFrame);
        }
        // Implied velocity between consecutive sightings of the same
        // object by the same sensor. The anchor always advances, so an
        // isolated jump costs one strike, not a permanent ban.
        let center = reading.region.center();
        let at = reading.detected_at;
        if let Some(&(prev_at, prev)) = record.last_positions.get(&reading.object) {
            let dt = at.saturating_since(prev_at).as_secs().max(1e-3);
            let dist = ((center.x - prev.x).powi(2) + (center.y - prev.y).powi(2)).sqrt();
            if dist / dt > config.speed_bound(&reading.object) {
                violation = Some(Violation::Teleport);
            }
        }
        record
            .last_positions
            .insert(reading.object.clone(), (at, center));
        violation
    }

    /// Runs the staleness watchdog at `now`: every periodic sensor whose
    /// silence exceeds `staleness_factor ×` its declared period takes one
    /// strike per missed window, walking it down the
    /// Healthy → Degraded → Quarantined ladder.
    pub fn tick(&mut self, now: SimTime) {
        for (sensor, record) in &mut self.sensors {
            loop {
                if record.state == HealthState::Quarantined {
                    break;
                }
                let Some(deadline) = record.stale_deadline else {
                    break;
                };
                if now <= deadline {
                    break;
                }
                let window =
                    record.update_period.expect("periodic sensor") * self.config.staleness_factor;
                record.stale_deadline = Some(deadline + window);
                strike(
                    record,
                    sensor,
                    Violation::Stale,
                    now,
                    &self.config,
                    &mut self.rng,
                    self.metrics.as_ref(),
                    &mut self.transitions,
                );
            }
        }
    }

    /// Fusion feedback: `sensor`'s reading lost conflict resolution at
    /// `now`. Every [`HealthConfig::conflict_loss_threshold`] consecutive
    /// losses cost one strike.
    pub fn record_conflict_loss(&mut self, sensor: &SensorId, now: SimTime) {
        self.register(sensor.clone(), None, now);
        let record = self.sensors.get_mut(sensor).expect("just registered");
        record.conflict_losses += 1;
        if let Some(m) = &self.metrics {
            m.conflict_losses.inc();
        }
        if record.conflict_losses >= self.config.conflict_loss_threshold {
            record.conflict_losses = 0;
            strike(
                record,
                sensor,
                Violation::ConflictLoss,
                now,
                &self.config,
                &mut self.rng,
                self.metrics.as_ref(),
                &mut self.transitions,
            );
        }
    }

    /// Fusion feedback: `sensor`'s reading survived conflict resolution,
    /// resetting its consecutive-loss count.
    pub fn record_conflict_survivor(&mut self, sensor: &SensorId) {
        if let Some(record) = self.sensors.get_mut(sensor) {
            record.conflict_losses = 0;
        }
    }

    /// The sensor's current state (`None` for never-seen sensors).
    #[must_use]
    pub fn state(&self, sensor: &SensorId) -> Option<HealthState> {
        self.sensors.get(sensor).map(|r| r.state)
    }

    /// `true` when the sensor is quarantined (regardless of whether its
    /// probe window has opened).
    #[must_use]
    pub fn is_quarantined(&self, sensor: &SensorId) -> bool {
        self.state(sensor) == Some(HealthState::Quarantined)
    }

    /// `true` when the sensor is quarantined *and* its half-open probe
    /// window has not opened yet — edge layers can drop its output
    /// without consulting the gates.
    #[must_use]
    pub fn in_closed_quarantine(&self, sensor: &SensorId, now: SimTime) -> bool {
        self.sensors
            .get(sensor)
            .is_some_and(|r| r.state == HealthState::Quarantined && now < r.probe_at)
    }

    /// When the sensor's half-open probe window opens (`None` unless
    /// quarantined).
    #[must_use]
    pub fn next_probe_at(&self, sensor: &SensorId) -> Option<SimTime> {
        self.sensors
            .get(sensor)
            .filter(|r| r.state == HealthState::Quarantined)
            .map(|r| r.probe_at)
    }

    /// The set of quarantined sensors — the fusion engine's exclusion
    /// set. O(quarantined); allocates nothing when none is.
    #[must_use]
    pub fn excluded(&self) -> HashSet<SensorId> {
        // Not `clone()`: a set that has held entries keeps its capacity,
        // and cloning it would allocate on every fuse.
        self.transitions.quarantined.iter().cloned().collect()
    }

    /// Number of quarantined sensors.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.transitions.quarantined.len()
    }

    /// Every supervised sensor and its state, in arbitrary order.
    pub fn states(&self) -> impl Iterator<Item = (&SensorId, HealthState)> {
        self.sensors.iter().map(|(id, r)| (id, r.state))
    }
}

/// Changes a record's state, enforcing the machine's legal edges:
/// `Healthy → Degraded`, `Degraded → {Healthy, Quarantined}`,
/// `Quarantined → Healthy` (plus re-arming `Quarantined → Quarantined`).
fn set_state(
    record: &mut SensorRecord,
    sensor: &SensorId,
    to: HealthState,
    now: SimTime,
    metrics: Option<&HealthMetrics>,
    transitions: &mut Transitions,
) {
    use HealthState::{Degraded, Healthy, Quarantined};
    let from = record.state;
    debug_assert!(
        matches!(
            (from, to),
            (Healthy, Degraded)
                | (Degraded, Healthy | Quarantined)
                | (Quarantined, Healthy | Quarantined)
        ),
        "illegal health transition {from:?} -> {to:?}"
    );
    record.state = to;
    record.strikes = 0;
    record.clean_streak = 0;
    if let Some(gauge) = &record.gauge {
        gauge.set(to.as_gauge());
    } else if let Some(m) = metrics {
        let gauge = m.registry.gauge(&format!("health.sensor.{sensor}.state"));
        gauge.set(to.as_gauge());
        record.gauge = Some(gauge);
    }
    if to == Quarantined {
        transitions.quarantined.insert(sensor.clone());
    } else if from == Quarantined {
        transitions.quarantined.remove(sensor);
    }
    if let Some(log) = &mut transitions.log {
        log.push(TransitionEvent {
            sensor: sensor.clone(),
            from,
            to,
            at: now,
        });
    }
}

/// Enters (or re-arms) quarantine: the probe window opens after the
/// current backoff scaled by seeded jitter in `[0.5, 1)`, and the backoff
/// doubles, capped — the `mw-bus` reconnect discipline on sim time.
fn arm_quarantine(
    record: &mut SensorRecord,
    now: SimTime,
    config: &HealthConfig,
    rng: &mut StdRng,
) {
    let jitter = rng.gen_range(0.5..1.0f64);
    record.probe_at = now + record.backoff * jitter;
    let doubled = record.backoff * 2.0;
    record.backoff = if doubled > config.max_quarantine {
        config.max_quarantine
    } else {
        doubled
    };
    // Silence is expected while quarantined: suspend the watchdog. And a
    // quarantined sensor's trajectory is untrustworthy: drop its velocity
    // anchors so a sane probe is judged on its own, keeping quarantine
    // always recoverable.
    record.stale_deadline = None;
    record.last_positions.clear();
}

fn requarantine(record: &mut SensorRecord, now: SimTime, config: &HealthConfig, rng: &mut StdRng) {
    arm_quarantine(record, now, config, rng);
}

/// Registers one violation strike and advances the ladder.
#[allow(clippy::too_many_arguments)]
fn strike(
    record: &mut SensorRecord,
    sensor: &SensorId,
    violation: Violation,
    now: SimTime,
    config: &HealthConfig,
    rng: &mut StdRng,
    metrics: Option<&HealthMetrics>,
    transitions: &mut Transitions,
) {
    if let Some(m) = metrics {
        m.count_violation(violation);
    }
    record.clean_streak = 0;
    record.strikes += 1;
    match record.state {
        HealthState::Healthy if record.strikes >= config.degrade_after => {
            set_state(
                record,
                sensor,
                HealthState::Degraded,
                now,
                metrics,
                transitions,
            );
        }
        HealthState::Degraded if record.strikes >= config.quarantine_after => {
            set_state(
                record,
                sensor,
                HealthState::Quarantined,
                now,
                metrics,
                transitions,
            );
            if let Some(m) = metrics {
                m.quarantines.inc();
            }
            arm_quarantine(record, now, config, rng);
        }
        _ => {}
    }
}

/// Registers one clean reading; enough of them recover a degraded sensor.
fn clean_reading(
    record: &mut SensorRecord,
    sensor: &SensorId,
    now: SimTime,
    config: &HealthConfig,
    metrics: Option<&HealthMetrics>,
    transitions: &mut Transitions,
) {
    record.clean_streak += 1;
    if record.state == HealthState::Degraded && record.clean_streak >= config.recover_after {
        set_state(
            record,
            sensor,
            HealthState::Healthy,
            now,
            metrics,
            transitions,
        );
        if let Some(m) = metrics {
            m.recoveries.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SensorSpec;
    use mw_model::TemporalDegradation;

    fn frame() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0))
    }

    fn reading(sensor: &str, center: Point, at: f64) -> SensorReading {
        SensorReading {
            sensor_id: sensor.into(),
            spec: SensorSpec::ubisense(1.0),
            object: "alice".into(),
            glob_prefix: "CS/Floor3".parse().unwrap(),
            region: Rect::from_center(center, 2.0, 2.0),
            detected_at: SimTime::from_secs(at),
            time_to_live: SimDuration::from_secs(30.0),
            tdf: TemporalDegradation::None,
            moving: false,
        }
    }

    fn supervisor() -> SensorSupervisor {
        SensorSupervisor::new(HealthConfig::new(frame()))
    }

    #[test]
    fn sane_readings_stay_healthy() {
        let mut sup = supervisor();
        for i in 0..10 {
            let t = f64::from(i);
            let mut r = reading("ubi-1", Point::new(100.0 + t, 50.0), t);
            assert_eq!(
                sup.admit(&mut r, SimTime::from_secs(t)),
                GateDecision::Accept
            );
        }
        assert_eq!(sup.state(&"ubi-1".into()), Some(HealthState::Healthy));
        assert_eq!(sup.quarantined_count(), 0);
    }

    #[test]
    fn teleporting_sensor_walks_the_ladder_and_recovers() {
        let registry = MetricsRegistry::new();
        let mut sup = supervisor().with_metrics(&registry);
        sup.enable_transition_log();
        let id: SensorId = "ubi-2".into();
        // Alternate between two far corners: every reading after the
        // first implies an impossible velocity.
        let corners = [Point::new(10.0, 10.0), Point::new(490.0, 90.0)];
        let mut faults = 0u64;
        let mut t = 0.0;
        while sup.state(&id) != Some(HealthState::Quarantined) {
            let mut r = reading("ubi-2", corners[t as usize % 2], t);
            let d = sup.admit(&mut r, SimTime::from_secs(t));
            if matches!(d, GateDecision::Reject(Violation::Teleport)) {
                faults += 1;
            }
            t += 1.0;
            assert!(t < 100.0, "never quarantined");
        }
        // degrade_after + quarantine_after teleport strikes.
        assert_eq!(faults, 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("health.violations.teleport"), Some(5));
        assert_eq!(snap.counter("health.quarantines"), Some(1));
        assert_eq!(snap.gauge("health.sensor.ubi-2.state"), Some(2.0));

        // Closed quarantine drops without probing.
        let probe_at = sup.next_probe_at(&id).unwrap();
        let mut r = reading("ubi-2", Point::new(100.0, 50.0), t);
        assert_eq!(
            sup.admit(&mut r, SimTime::from_secs(t)),
            GateDecision::Quarantined
        );
        assert!(sup.in_closed_quarantine(&id, SimTime::from_secs(t)));

        // A sane probe after the window recovers the sensor.
        let probe_t = probe_at.as_secs() + 0.1;
        let mut r = reading("ubi-2", Point::new(100.0, 50.0), probe_t);
        assert_eq!(
            sup.admit(&mut r, SimTime::from_secs(probe_t)),
            GateDecision::Accept
        );
        assert_eq!(sup.state(&id), Some(HealthState::Healthy));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("health.recoveries"), Some(1));
        assert_eq!(snap.counter("health.probes"), Some(1));
        assert_eq!(snap.gauge("health.sensor.ubi-2.state"), Some(0.0));

        // The transition log shows only legal edges.
        let log = sup.transition_log();
        assert_eq!(
            log.iter().map(|e| (e.from, e.to)).collect::<Vec<_>>(),
            vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Quarantined),
                (HealthState::Quarantined, HealthState::Healthy),
            ]
        );
    }

    #[test]
    fn failed_probe_rearms_with_longer_backoff() {
        let mut sup = supervisor();
        let id: SensorId = "ubi-3".into();
        // Quarantine via out-of-frame readings.
        let mut t = 0.0;
        while sup.state(&id) != Some(HealthState::Quarantined) {
            let mut r = reading("ubi-3", Point::new(1000.0, 500.0), t);
            let d = sup.admit(&mut r, SimTime::from_secs(t));
            assert!(matches!(d, GateDecision::Reject(Violation::OutOfFrame)));
            t += 1.0;
        }
        let first_window = sup.next_probe_at(&id).unwrap().as_secs() - (t - 1.0);
        // A dirty probe re-arms quarantine with a longer window.
        let probe_t = sup.next_probe_at(&id).unwrap().as_secs() + 0.1;
        let mut r = reading("ubi-3", Point::new(1000.0, 500.0), probe_t);
        assert!(matches!(
            sup.admit(&mut r, SimTime::from_secs(probe_t)),
            GateDecision::Reject(Violation::OutOfFrame)
        ));
        assert_eq!(sup.state(&id), Some(HealthState::Quarantined));
        let second_window = sup.next_probe_at(&id).unwrap().as_secs() - probe_t;
        assert!(
            second_window > first_window,
            "window should grow: {first_window} -> {second_window}"
        );
    }

    #[test]
    fn backoff_caps_at_max_quarantine() {
        let mut config = HealthConfig::new(frame());
        config.initial_quarantine = SimDuration::from_secs(4.0);
        config.max_quarantine = SimDuration::from_secs(10.0);
        let mut sup = SensorSupervisor::new(config);
        let id: SensorId = "ubi-cap".into();
        let mut t = 0.0;
        // Quarantine, then fail many probes; the window never exceeds
        // the cap.
        for _ in 0..12 {
            let mut r = reading("ubi-cap", Point::new(-50.0, -50.0), t);
            let _ = sup.admit(&mut r, SimTime::from_secs(t));
            t = match sup.next_probe_at(&id) {
                Some(p) => p.as_secs() + 0.1,
                None => t + 1.0,
            };
        }
        let window = sup.next_probe_at(&id).unwrap().as_secs() - (t - 0.1);
        assert!(window <= 10.0 + 1e-9, "window {window} beyond cap");
    }

    #[test]
    fn future_timestamps_clamp_count_and_strike() {
        let registry = MetricsRegistry::new();
        let mut sup = supervisor().with_metrics(&registry);
        let now = SimTime::from_secs(10.0);
        let mut r = reading("ubi-4", Point::new(100.0, 50.0), 400.0);
        let d = sup.admit(&mut r, now);
        assert_eq!(d, GateDecision::AcceptClamped(Violation::FutureTimestamp));
        assert_eq!(r.detected_at, now, "timestamp clamped in place");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("health.violations.future_timestamp"), Some(1));
        assert_eq!(snap.counter("health.readings_clamped"), Some(1));
        // It still counted as a strike: a second future stamp degrades.
        let mut r = reading("ubi-4", Point::new(100.0, 50.0), 500.0);
        let _ = sup.admit(&mut r, SimTime::from_secs(11.0));
        assert_eq!(sup.state(&"ubi-4".into()), Some(HealthState::Degraded));
    }

    #[test]
    fn staleness_watchdog_quarantines_silent_sensors() {
        let registry = MetricsRegistry::new();
        let mut sup = supervisor().with_metrics(&registry);
        let mut r = reading("ubi-5", Point::new(100.0, 50.0), 0.0);
        assert!(sup.admit(&mut r, SimTime::ZERO).is_admitted());
        // Declared period 1 s, factor 3: windows end at t=3,6,9,…
        sup.tick(SimTime::from_secs(2.9));
        assert_eq!(sup.state(&"ubi-5".into()), Some(HealthState::Healthy));
        // Five missed windows in one sweep: 2 strikes degrade, 3 more
        // quarantine.
        sup.tick(SimTime::from_secs(16.0));
        assert_eq!(sup.state(&"ubi-5".into()), Some(HealthState::Quarantined));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("health.violations.stale"), Some(5));
        // Further ticks while quarantined add nothing.
        sup.tick(SimTime::from_secs(100.0));
        assert_eq!(
            registry.snapshot().counter("health.violations.stale"),
            Some(5)
        );
    }

    #[test]
    fn event_driven_sensors_are_never_stale() {
        let mut sup = supervisor();
        let mut r = reading("card-1", Point::new(100.0, 50.0), 0.0);
        r.spec = SensorSpec::card_reader();
        assert!(sup.admit(&mut r, SimTime::ZERO).is_admitted());
        sup.tick(SimTime::from_secs(1e6));
        assert_eq!(sup.state(&"card-1".into()), Some(HealthState::Healthy));
    }

    #[test]
    fn chronic_conflict_losses_strike() {
        let mut sup = supervisor();
        let id: SensorId = "rf-1".into();
        sup.register(id.clone(), None, SimTime::ZERO);
        let threshold = sup.config().conflict_loss_threshold;
        // One shy of the threshold, then a survival: counter resets.
        for _ in 0..threshold - 1 {
            sup.record_conflict_loss(&id, SimTime::ZERO);
        }
        sup.record_conflict_survivor(&id);
        assert_eq!(sup.state(&id), Some(HealthState::Healthy));
        // Two full runs of losses: two strikes, sensor degraded.
        for _ in 0..2 * threshold {
            sup.record_conflict_loss(&id, SimTime::from_secs(1.0));
        }
        assert_eq!(sup.state(&id), Some(HealthState::Degraded));
    }

    #[test]
    fn degraded_sensor_recovers_after_clean_streak() {
        let mut sup = supervisor();
        let id: SensorId = "ubi-6".into();
        // Two out-of-frame strikes: degraded.
        for i in 0..2 {
            let mut r = reading("ubi-6", Point::new(600.0, 50.0), f64::from(i));
            let _ = sup.admit(&mut r, SimTime::from_secs(f64::from(i)));
        }
        assert_eq!(sup.state(&id), Some(HealthState::Degraded));
        for i in 2..5 {
            let mut r = reading("ubi-6", Point::new(100.0, 50.0), f64::from(i));
            assert!(sup
                .admit(&mut r, SimTime::from_secs(f64::from(i)))
                .is_admitted());
        }
        assert_eq!(sup.state(&id), Some(HealthState::Healthy));
    }

    #[test]
    fn corrupt_calibration_is_rejected() {
        let mut sup = supervisor();
        let mut r = reading("ubi-7", Point::new(100.0, 50.0), 0.0);
        // Forge an out-of-range spec through serde (bypasses
        // SensorSpec::new validation), as wire data could.
        let json = serde_json::to_string(&r.spec).unwrap();
        let bad = json.replace("0.95", "17.5");
        r.spec = serde_json::from_str(&bad).unwrap();
        assert!(matches!(
            sup.admit(&mut r, SimTime::ZERO),
            GateDecision::Reject(Violation::ConfidenceOutOfRange)
        ));
    }

    #[test]
    fn excluded_set_tracks_quarantine() {
        let mut sup = supervisor();
        let mut t = 0.0;
        while sup.quarantined_count() == 0 {
            let mut r = reading("ubi-8", Point::new(600.0, 50.0), t);
            let _ = sup.admit(&mut r, SimTime::from_secs(t));
            t += 1.0;
        }
        let excluded = sup.excluded();
        assert!(excluded.contains(&"ubi-8".into()));
        assert!(sup.is_quarantined(&"ubi-8".into()));
        let scan = |sup: &SensorSupervisor| -> HashSet<SensorId> {
            sup.states()
                .filter(|(_, s)| *s == HealthState::Quarantined)
                .map(|(id, _)| id.clone())
                .collect()
        };
        assert_eq!(excluded, scan(&sup));

        // The watchdog quarantines a second sensor; the set follows.
        let mut r = reading("ubi-9", Point::new(100.0, 50.0), t);
        assert!(sup.admit(&mut r, SimTime::from_secs(t)).is_admitted());
        sup.tick(SimTime::from_secs(t + 16.0));
        assert_eq!(sup.quarantined_count(), 2);
        assert_eq!(sup.excluded(), scan(&sup));

        // A clean probe takes the first one out of the set again.
        let probe_t = sup.next_probe_at(&"ubi-8".into()).unwrap().as_secs() + 0.1;
        let mut r = reading("ubi-8", Point::new(100.0, 50.0), probe_t);
        assert!(sup.admit(&mut r, SimTime::from_secs(probe_t)).is_admitted());
        assert_eq!(sup.excluded(), scan(&sup));
        assert_eq!(sup.excluded().len(), 1);
    }
}
