//! Property: rule evaluation over the interned trigger DAG is
//! observationally identical to evaluating every rule on its own.
//!
//! The service compiles rules into shared DAG nodes and look-alike
//! trigger groups, and evaluates only the candidate groups its selection
//! picks per fuse. The model in `reference/` does none of that: each
//! ingest walks every live rule's `Predicate` tree for each affected
//! object, with clocks and edges kept per rule. These proptests register
//! the same random rule set on both, drive identical random ingest
//! schedules — with mid-schedule rule churn, replayed stationary
//! batches, and a sensor supervisor whose quarantine decisions remove
//! evidence mid-dwell and mid-edge — and demand exact equality of the
//! notification stream (payloads and order), per-object epochs,
//! `reading_count` and `tracked_objects` at every step.
//!
//! Deterministic single-service tests at the bottom pin the dwell-clock
//! semantics across evidence loss, quarantine and unchanged evidence.

mod reference;

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationService, Notification, Predicate, Rule, SubscriptionId, SubscriptionSpec};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{
    AdapterOutput, HealthConfig, Revocation, SensorReading, SensorSpec, SensorSupervisor,
};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::{Fired, Reference};

/// Eight people, so bound rules — the rule generator gives eight in
/// nine an object filter — spread over many per-object candidate lists.
const OBJECTS: &[&str] = &[
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
];
const SENSORS: &[&str] = &["Ubi-1", "Ubi-2", "RF-1"];

fn universe() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0))
}

fn floor_db() -> SpatialDatabase {
    let mut db = SpatialDatabase::new();
    db.insert_object(SpatialObject::new(
        "Floor3",
        "CS".parse().unwrap(),
        ObjectType::Floor,
        Geometry::Polygon(Polygon::from_rect(&universe())),
    ))
    .unwrap();
    for i in 0..10 {
        let x0 = i as f64 * 50.0;
        db.insert_object(SpatialObject::new(
            format!("R{i}"),
            "CS/Floor3".parse().unwrap(),
            ObjectType::Room,
            Geometry::Polygon(Polygon::from_rect(&Rect::new(
                Point::new(x0, 0.0),
                Point::new(x0 + 50.0, 100.0),
            ))),
        ))
        .unwrap();
    }
    db
}

fn room(i: usize) -> Rect {
    let x0 = (i % 10) as f64 * 50.0;
    Rect::new(Point::new(x0, 0.0), Point::new(x0 + 50.0, 100.0))
}

// --- rule-set strategy ---------------------------------------------------

/// An atom drawn from a small pool so independent rules collide
/// structurally (that collision is exactly what the interner fuses).
fn atom() -> impl Strategy<Value = Predicate> {
    (0..5usize, 0..10usize, 0..3usize, 0..OBJECTS.len()).prop_map(
        |(kind, room_ix, level, partner)| {
            let min_p = [0.2, 0.35, 0.5][level];
            match kind {
                0 | 1 => Predicate::in_region(room(room_ix), min_p),
                2 => Predicate::near_point(
                    Point::new((room_ix % 10) as f64 * 50.0 + 25.0, 50.0),
                    20.0 + level as f64 * 10.0,
                    min_p,
                ),
                3 => Predicate::co_located(OBJECTS[partner], 2 + level % 2),
                _ => Predicate::moved(5.0 + level as f64 * 10.0),
            }
        },
    )
}

/// A predicate tree of depth ≤ 2 over the shared atom pool, including
/// the stateful wrappers (dwell clocks, negation) whose per-node state
/// the DAG shares across groups.
fn predicate() -> impl Strategy<Value = Predicate> {
    (0..6usize, atom(), atom(), 0..3usize).prop_map(|(shape, a, b, dwell)| {
        let dwell_secs = [2.0, 3.0, 5.0][dwell];
        match shape {
            0 => a,
            1 => a.and(b),
            2 => a.or(b),
            3 => a.not(),
            4 => a.for_at_least(SimDuration::from_secs(dwell_secs)),
            _ => a.and(b.not()),
        }
    })
}

/// A full rule: predicate tree, optional object filter, mixed triggers.
fn rule() -> impl Strategy<Value = Rule> {
    (predicate(), 0..=OBJECTS.len(), 0..4usize).prop_map(|(p, obj, trig)| {
        let builder = Rule::when(p);
        let builder = if obj < OBJECTS.len() {
            builder.object(OBJECTS[obj])
        } else {
            builder
        };
        let builder = match trig {
            0 | 1 => builder.on_enter(),
            2 => builder.on_exit(),
            _ => builder.on_move(15.0),
        };
        builder.build().expect("strategy only builds valid rules")
    })
}

fn rule_set() -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(rule(), 1..24)
}

// --- ingest schedule -----------------------------------------------------

#[derive(Debug, Clone)]
enum BatchItem {
    Reading {
        sensor: usize,
        object: usize,
        x: f64,
        y: f64,
        ttl_secs: f64,
    },
    Revoke {
        sensor: usize,
        object: usize,
    },
}

fn batch_item() -> impl Strategy<Value = BatchItem> {
    (
        0..8usize,
        0..SENSORS.len(),
        0..OBJECTS.len(),
        (2.0..448.0f64, 2.0..130.0f64),
    )
        .prop_map(|(kind, sensor, object, (x, y))| match kind {
            0..=5 => BatchItem::Reading {
                sensor,
                object,
                x: x + 1.0,
                y: y + 1.0,
                ttl_secs: if kind % 2 == 0 { 1e6 } else { 5.0 },
            },
            _ => BatchItem::Revoke { sensor, object },
        })
}

fn batches() -> impl Strategy<Value = Vec<Vec<BatchItem>>> {
    proptest::collection::vec(proptest::collection::vec(batch_item(), 1..10), 1..10)
}

fn reading(sensor: usize, object: usize, center: Point, at: SimTime, ttl: f64) -> SensorReading {
    SensorReading {
        sensor_id: SENSORS[sensor].into(),
        spec: SensorSpec::ubisense(1.0),
        object: OBJECTS[object].into(),
        glob_prefix: "CS/Floor3".parse().unwrap(),
        region: Rect::from_center(center, 2.0, 2.0),
        detected_at: at,
        time_to_live: SimDuration::from_secs(ttl),
        tdf: TemporalDegradation::None,
        moving: false,
    }
}

fn item_to_output(item: &BatchItem, at: SimTime) -> AdapterOutput {
    match *item {
        BatchItem::Reading {
            sensor,
            object,
            x,
            y,
            ttl_secs,
        } => AdapterOutput::single(reading(sensor, object, Point::new(x, y), at, ttl_secs)),
        BatchItem::Revoke { sensor, object } => AdapterOutput {
            readings: vec![],
            revocations: vec![Revocation {
                sensor_id: SENSORS[sensor].into(),
                object: OBJECTS[object].into(),
            }],
        },
    }
}

// --- service and reference in lockstep -----------------------------------

/// A service and its reference model, fed identically.
struct Pair {
    service: Arc<LocationService>,
    model: Reference,
}

fn build(supervised: bool) -> Pair {
    let broker = Broker::new();
    let model = Reference::new(&floor_db(), universe());
    if !supervised {
        return Pair {
            service: LocationService::new(floor_db(), universe(), &broker),
            model,
        };
    }
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
    Pair {
        service: LocationService::new_supervised(
            floor_db(),
            universe(),
            &broker,
            &registry,
            supervisor,
        ),
        model: model.supervised(HealthConfig::new(universe())),
    }
}

impl Pair {
    fn subscribe(&mut self, rule: &Rule) -> Result<SubscriptionId, TestCaseError> {
        let id = self.service.subscribe_rule(rule.clone());
        prop_assert_eq!(
            id.value(),
            self.model.subscribe(rule.clone()),
            "subscription ids diverged"
        );
        Ok(id)
    }

    /// Registers `rules` in order, plus a handful of legacy specs so the
    /// `SubscriptionSpec` → one-atom-rule shim path is exercised
    /// alongside native rules.
    fn register(&mut self, rules: &[Rule]) -> Result<Vec<SubscriptionId>, TestCaseError> {
        let ids = rules
            .iter()
            .map(|rule| self.subscribe(rule))
            .collect::<Result<_, _>>()?;
        for i in 0..3 {
            let spec = SubscriptionSpec::region_entry(room(i * 3), 0.3);
            let id = self.service.subscribe(spec.clone()).value();
            prop_assert_eq!(
                id,
                self.model.subscribe_spec(spec),
                "ids diverged on spec shim"
            );
        }
        Ok(ids)
    }

    /// Drives `schedule` through both and demands identical observable
    /// behaviour at every step.
    fn run(&mut self, schedule: &[Vec<BatchItem>], start_step: usize) -> Result<(), TestCaseError> {
        for (step, batch) in schedule.iter().enumerate() {
            let step = start_step + step;
            let now = SimTime::from_secs(step as f64);
            let outputs: Vec<AdapterOutput> =
                batch.iter().map(|i| item_to_output(i, now)).collect();
            let expected = self.model.ingest_batch(&outputs, now);
            let fired: Vec<Fired> = self
                .service
                .ingest_batch(outputs, now)
                .iter()
                .map(Fired::of)
                .collect();
            prop_assert_eq!(fired, expected, "notifications diverged at step {}", step);
            prop_assert_eq!(self.service.reading_count(), self.model.reading_count());
            for object in OBJECTS {
                prop_assert_eq!(
                    self.service.object_epoch(&(*object).into()),
                    self.model.epoch(object),
                    "epoch diverged for {} at step {}",
                    object,
                    step
                );
            }
        }
        let end = SimTime::from_secs((start_step + schedule.len()) as f64);
        let mut tracked = self.service.tracked_objects(end);
        tracked.sort();
        prop_assert_eq!(tracked, self.model.tracked_objects(end));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The interned DAG fires the notifications — payloads, order,
    /// epochs — that per-rule evaluation of every rule fires, over
    /// random rule sets and ingest schedules.
    #[test]
    fn service_matches_reference(rules in rule_set(), schedule in batches()) {
        let mut pair = build(false);
        pair.register(&rules)?;
        pair.run(&schedule, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rules registered *mid-schedule* (late joins, which split into
    /// fresh edge-state groups and fresh stateful nodes in the DAG) and
    /// unsubscribes keep the two identical too.
    #[test]
    fn service_matches_reference_with_churn(
        rules in rule_set(),
        late in rule_set(),
        schedule in batches(),
    ) {
        let mut pair = build(false);
        let ids = pair.register(&rules)?;
        let half = schedule.len() / 2;
        pair.run(&schedule[..half], 0)?;
        // Late joiners arrive while groups hold live edge state: new
        // rules, and a look-alike of every original rule.
        for rule in late.iter().chain(&rules) {
            pair.subscribe(rule)?;
        }
        // Every third original rule leaves, freeing the groups it was
        // alone in.
        for &id in ids.iter().step_by(3) {
            prop_assert!(pair.service.unsubscribe(id).is_ok());
            prop_assert!(pair.model.unsubscribe(id.value()));
        }
        pair.run(&schedule[half..], half)?;
    }

    /// One batch replayed verbatim over several steps: evidence and
    /// probabilities repeat exactly while dwell clocks and moved anchors
    /// keep advancing.
    #[test]
    fn service_matches_reference_stationary(
        rules in rule_set(),
        batch in proptest::collection::vec(batch_item(), 1..10),
        repeats in 2..8usize,
    ) {
        let mut pair = build(false);
        pair.register(&rules)?;
        let schedule: Vec<Vec<BatchItem>> = vec![batch; repeats];
        pair.run(&schedule, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Same property with a sensor supervisor in the loop on both sides:
    /// quarantine decisions (driven by out-of-frame readings in the
    /// schedule) remove evidence mid-dwell and mid-edge.
    #[test]
    fn service_matches_reference_supervised(rules in rule_set(), schedule in batches()) {
        let mut pair = build(true);
        pair.register(&rules)?;
        pair.run(&schedule, 0)?;
    }
}

// --- deterministic dwell-clock semantics ----------------------------------

/// Feeds an in-frame reading for `alice` in room 0 at `now`.
fn alice_in_room0(service: &LocationService, now: SimTime, ttl: f64) -> Vec<Notification> {
    let r = reading(0, 0, Point::new(25.0, 50.0), now, ttl);
    service.ingest_batch(vec![AdapterOutput::single(r)], now)
}

/// A dwell rule on alice in room 0.
fn dwell_rule(secs: f64) -> Rule {
    Rule::when(Predicate::in_region(room(0), 0.5).for_at_least(SimDuration::from_secs(secs)))
        .object("alice")
        .build()
        .unwrap()
}

/// The dwell clock resets when evidence loss turns the inner predicate
/// false.
///
/// Timeline: alice dwells in room 0 from t=0; the dwell needs 6
/// continuous seconds. At t=4 the sensor goes quiet and the reading's
/// 4-second TTL expires, so by the t=10 fuse the inner atom is false
/// and the clock must reset — the rule may not fire at t=12 or t=14
/// (2 and 4 seconds of fresh dwell) and must fire once 6 fresh seconds
/// have accumulated at t=18.
#[test]
fn dwell_clock_resets_across_evidence_loss() {
    let broker = Broker::new();
    let service = LocationService::new(floor_db(), universe(), &broker);
    let id = service.subscribe_rule(dwell_rule(6.0));

    // t=0..4: dwell accumulates but stays short of 6 seconds.
    for t in 0..=4 {
        let fired = alice_in_room0(&service, SimTime::from_secs(t as f64), 4.0);
        assert!(fired.is_empty(), "dwell fired early at t={t}: {fired:?}");
    }

    // t=10: the TTL expired at t=8; the fuse sees no evidence, the
    // inner atom goes false, the clock resets. (A batch with only a
    // revocation still re-evaluates the object.)
    let out = AdapterOutput {
        readings: vec![],
        revocations: vec![Revocation {
            sensor_id: SENSORS[0].into(),
            object: OBJECTS[0].into(),
        }],
    };
    let fired = service.ingest_batch(vec![out], SimTime::from_secs(10.0));
    assert!(
        fired.is_empty(),
        "dwell fired across evidence loss: {fired:?}"
    );

    // t=12, 14: 2 and 4 seconds of fresh dwell — must not fire.
    for t in [12.0, 14.0] {
        let fired = alice_in_room0(&service, SimTime::from_secs(t), 4.0);
        assert!(
            fired.is_empty(),
            "dwell clock failed to reset: t={t} {fired:?}"
        );
    }

    // t=18: 6 fresh continuous seconds since t=12 — fires exactly once.
    let fired = alice_in_room0(&service, SimTime::from_secs(18.0), 4.0);
    assert_eq!(
        fired.len(),
        1,
        "dwell should fire once after 6 fresh seconds: {fired:?}"
    );
    assert_eq!(fired[0].subscription, id);

    // Still inside: on-enter must not re-fire.
    let fired = alice_in_room0(&service, SimTime::from_secs(20.0), 4.0);
    assert!(
        fired.is_empty(),
        "on-enter re-fired while dwelling: {fired:?}"
    );
}

/// Quarantine drops the sensor's readings before they reach the
/// service, so no fuse of alice runs between t=2 and t=20, and none
/// observes her evidence expiring at t=6: dwell clocks are observed at
/// fuse times only (`Predicate::DwellFor`). The first healthy fuse, at
/// t=20, therefore sees the dwell as held since t=0 and fires once; the
/// later healthy fuses do not fire again.
#[test]
fn dwell_is_observed_only_at_fuses_across_quarantine() {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
    let service =
        LocationService::new_supervised(floor_db(), universe(), &broker, &registry, supervisor);
    let id = service.subscribe_rule(dwell_rule(4.0));

    let mut all = Vec::new();
    let mut drive = |center: Point, t: u32, ttl: f64| {
        let now = SimTime::from_secs(f64::from(t));
        let r = reading(0, 0, center, now, ttl);
        all.extend(service.ingest_batch(vec![AdapterOutput::single(r)], now));
    };
    // t=0..2: alice dwells in room 0 (good readings, short of 4s).
    for t in 0..=2 {
        drive(Point::new(25.0, 50.0), t, 4.0);
    }
    // t=3..8: the sensor emits out-of-frame garbage; the supervisor
    // racks up violations and quarantines it.
    for t in 3..=8 {
        drive(Point::new(900.0, 900.0), t, 4.0);
    }
    // t=20..26: healthy readings after the quarantine window.
    for t in 20..=26 {
        drive(Point::new(25.0, 50.0), t, 30.0);
    }

    let at: Vec<(SubscriptionId, SimTime)> = all.iter().map(|n| (n.subscription, n.at)).collect();
    assert_eq!(at, vec![(id, SimTime::from_secs(20.0))]);
}

/// A dwell timer matures across ingests whose evidence is bit-for-bit
/// unchanged: every fuse re-reads the same posterior, and the clock
/// keeps advancing with `now`.
#[test]
fn dwell_matures_across_unchanged_evidence() {
    let broker = Broker::new();
    let service = LocationService::new(floor_db(), universe(), &broker);
    let id = service.subscribe_rule(dwell_rule(4.0));

    // t=0..3: the identical reading every second (long TTL, no
    // temporal degradation). The clock must accumulate.
    for t in 0..=3 {
        let fired = alice_in_room0(&service, SimTime::from_secs(t as f64), 30.0);
        assert!(fired.is_empty(), "dwell fired early at t={t}: {fired:?}");
    }

    // t=4: four continuous seconds — fires exactly once.
    let fired = alice_in_room0(&service, SimTime::from_secs(4.0), 30.0);
    assert_eq!(fired.len(), 1, "dwell should mature at t=4: {fired:?}");
    assert_eq!(fired[0].subscription, id);

    // t=5: still inside — no re-fire.
    let fired = alice_in_room0(&service, SimTime::from_secs(5.0), 30.0);
    assert!(
        fired.is_empty(),
        "on-enter re-fired while dwelling: {fired:?}"
    );
}
