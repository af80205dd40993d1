//! Property: rule evaluation over the interned trigger DAG is
//! observationally identical to naive per-rule evaluation.
//!
//! `ServiceTuning::rule_sharing` flips the rule engine between its two
//! modes: shared (structurally-equal subexpressions interned into one
//! DAG node, look-alike rules fused into one trigger group) and naive
//! (no interning, one group per rule — the per-subscription walk the
//! compiler replaced). Sharing is only sound if every observable output
//! — notification payloads, ordering, per-object epochs, reading counts
//! — is *byte-identical* between the two. These proptests register the
//! same random rule set on twin services differing only in that flag,
//! drive identical random ingest schedules, and demand exact equality
//! at every step, with and without a sensor supervisor (whose
//! quarantine decisions remove evidence mid-dwell and mid-edge).
//!
//! A deterministic test at the bottom pins the dwell-clock reset
//! semantics across quarantine-induced evidence loss on both modes.

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationService, Notification, Predicate, Rule, ServiceTuning, SubscriptionSpec};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{
    AdapterOutput, HealthConfig, Revocation, SensorReading, SensorSpec, SensorSupervisor,
};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
/// structurally (that collision is exactly what the interner fuses —
/// and what the naive twin must survive without).
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

// --- twins ---------------------------------------------------------------

fn build(rule_sharing: bool) -> Arc<LocationService> {
    let broker = Broker::new();
    LocationService::new_with_tuning(
        floor_db(),
        universe(),
        &broker,
        ServiceTuning {
            rule_sharing,
            ..ServiceTuning::default()
        },
    )
}

fn build_supervised(rule_sharing: bool) -> Arc<LocationService> {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
    LocationService::new_supervised_with_tuning(
        floor_db(),
        universe(),
        &broker,
        &registry,
        supervisor,
        ServiceTuning {
            rule_sharing,
            ..ServiceTuning::default()
        },
    )
}

/// Registers `rules` on both twins in the same order (ids line up), plus
/// a handful of legacy specs so the `SubscriptionSpec` → one-atom-rule
/// shim path is exercised alongside native rules.
fn register_rules(shared: &LocationService, naive: &LocationService, rules: &[Rule]) {
    for rule in rules {
        let a = shared.subscribe_rule(rule.clone());
        let b = naive.subscribe_rule(rule.clone());
        assert_eq!(a, b, "twin subscription ids diverged");
    }
    for i in 0..3 {
        let spec = SubscriptionSpec::region_entry(room(i * 3), 0.3);
        let a = shared.subscribe(spec.clone());
        let b = naive.subscribe(spec);
        assert_eq!(a, b, "twin subscription ids diverged on spec shim");
    }
}

/// Drives the same batch schedule through both twins and demands
/// byte-identical observable behaviour at every step.
fn assert_twins_agree(
    shared: &LocationService,
    naive: &LocationService,
    schedule: &[Vec<BatchItem>],
    start_step: usize,
) -> Result<(), TestCaseError> {
    for (step, batch) in schedule.iter().enumerate() {
        let step = start_step + step;
        let now = SimTime::from_secs(step as f64);
        let outputs: Vec<AdapterOutput> = batch.iter().map(|i| item_to_output(i, now)).collect();
        let a: Vec<Notification> = shared.ingest_batch(outputs.clone(), now);
        let b: Vec<Notification> = naive.ingest_batch(outputs, now);
        prop_assert_eq!(a, b, "notifications diverged at step {}", step);
        prop_assert_eq!(shared.reading_count(), naive.reading_count());
        for object in OBJECTS {
            prop_assert_eq!(
                shared.object_epoch(&(*object).into()),
                naive.object_epoch(&(*object).into()),
                "epoch diverged for {} at step {}",
                object,
                step
            );
        }
    }
    let end = SimTime::from_secs((start_step + schedule.len()) as f64);
    prop_assert_eq!(shared.tracked_objects(end), naive.tracked_objects(end));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The interned DAG fires the same notifications — payloads, order,
    /// epochs — as naive per-rule evaluation over random rule sets and
    /// ingest schedules.
    #[test]
    fn dag_matches_naive(rules in rule_set(), schedule in batches()) {
        let shared = build(true);
        let naive = build(false);
        register_rules(&shared, &naive, &rules);
        assert_twins_agree(&shared, &naive, &schedule, 0)?;
    }

    /// Rules registered *mid-schedule* (late joins, which split into
    /// fresh edge-state groups on the shared engine) and removals keep
    /// the twins identical too.
    #[test]
    fn dag_matches_naive_with_churn(
        rules in rule_set(),
        late in rule_set(),
        schedule in batches(),
    ) {
        let shared = build(true);
        let naive = build(false);
        register_rules(&shared, &naive, &rules);
        let half = schedule.len() / 2;
        assert_twins_agree(&shared, &naive, &schedule[..half], 0)?;
        // Late joiners arrive while groups hold live edge state.
        for rule in &late {
            let a = shared.subscribe_rule(rule.clone());
            let b = naive.subscribe_rule(rule.clone());
            prop_assert_eq!(a, b);
        }
        // Remove every third original rule from both twins. Ids were
        // assigned in lock-step, so re-subscribing rules[0] on both and
        // unsubscribing it recovers a valid shared id to target.
        if !rules.is_empty() {
            let a = shared.subscribe_rule(rules[0].clone());
            let b = naive.subscribe_rule(rules[0].clone());
            prop_assert_eq!(a, b);
            prop_assert!(shared.unsubscribe(a).is_ok());
            prop_assert!(naive.unsubscribe(b).is_ok());
        }
        assert_twins_agree(&shared, &naive, &schedule[half..], half)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same property with a sensor supervisor in the loop: quarantine
    /// decisions (driven by out-of-frame readings in the schedule)
    /// remove evidence mid-dwell and mid-edge, and both engines must
    /// observe the identical degraded fusion stream.
    #[test]
    fn dag_matches_naive_supervised(rules in rule_set(), schedule in batches()) {
        let shared = build_supervised(true);
        let naive = build_supervised(false);
        register_rules(&shared, &naive, &rules);
        assert_twins_agree(&shared, &naive, &schedule, 0)?;
    }
}

// --- differential vs full evaluation twins -------------------------------

fn build_diff(differential_eval: bool) -> Arc<LocationService> {
    let broker = Broker::new();
    LocationService::new_with_tuning(
        floor_db(),
        universe(),
        &broker,
        ServiceTuning {
            differential_eval,
            ..ServiceTuning::default()
        },
    )
}

fn build_diff_supervised(differential_eval: bool) -> Arc<LocationService> {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
    LocationService::new_supervised_with_tuning(
        floor_db(),
        universe(),
        &broker,
        &registry,
        supervisor,
        ServiceTuning {
            differential_eval,
            ..ServiceTuning::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential evaluation (root/frontier caches keyed by input
    /// signature) fires the same notifications — payloads, order,
    /// epochs — as the full walk over random rule sets and schedules.
    #[test]
    fn differential_matches_full(rules in rule_set(), schedule in batches()) {
        let differential = build_diff(true);
        let full = build_diff(false);
        register_rules(&differential, &full, &rules);
        assert_twins_agree(&differential, &full, &schedule, 0)?;
    }

    /// The cache-friendliest workload: one batch replayed verbatim over
    /// several steps. Evidence rectangles and probabilities repeat
    /// exactly, so the differential twin serves pure subtrees from its
    /// caches while dwell clocks and moved anchors keep advancing —
    /// and must still match the full walk byte for byte.
    #[test]
    fn differential_matches_full_stationary(
        rules in rule_set(),
        batch in proptest::collection::vec(batch_item(), 1..10),
        repeats in 2..8usize,
    ) {
        let differential = build_diff(true);
        let full = build_diff(false);
        register_rules(&differential, &full, &rules);
        let schedule: Vec<Vec<BatchItem>> = vec![batch; repeats];
        assert_twins_agree(&differential, &full, &schedule, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same property under a sensor supervisor: quarantine transitions
    /// change the fused-evidence fingerprint, so the differential twin
    /// must invalidate and re-walk exactly when the full walk changes
    /// its answer.
    #[test]
    fn differential_matches_full_supervised(rules in rule_set(), schedule in batches()) {
        let differential = build_diff_supervised(true);
        let full = build_diff_supervised(false);
        register_rules(&differential, &full, &rules);
        assert_twins_agree(&differential, &full, &schedule, 0)?;
    }
}

// --- deterministic dwell-clock semantics across evidence loss ------------

/// Feeds an in-frame reading for `alice` in room 0 at `now`.
fn alice_in_room0(service: &LocationService, now: SimTime) -> Vec<Notification> {
    let r = reading(0, 0, Point::new(25.0, 50.0), now, 4.0);
    service.ingest_batch(vec![AdapterOutput::single(r)], now)
}

/// The dwell clock resets when quarantine-induced evidence loss turns
/// the inner predicate false — on both engine modes, identically.
///
/// Timeline: alice dwells in room 0 from t=0; the dwell needs 6
/// continuous seconds. At t=4 the sensor goes quiet and the reading's
/// 4-second TTL expires, so by the t=10 fuse the inner atom is false
/// and the clock must reset — the rule may not fire at t=12 (only 2
/// seconds of fresh dwell) and must fire once 6 fresh seconds have
/// accumulated at t=16.
#[test]
fn dwell_clock_resets_across_evidence_loss_on_both_engines() {
    for rule_sharing in [true, false] {
        let service = build(rule_sharing);
        let rule = Rule::when(
            Predicate::in_region(room(0), 0.5).for_at_least(SimDuration::from_secs(6.0)),
        )
        .object("alice")
        .build()
        .unwrap();
        let id = service.subscribe_rule(rule);

        // t=0..4: dwell accumulates but stays short of 6 seconds.
        for t in 0..=4 {
            let fired = alice_in_room0(&service, SimTime::from_secs(t as f64));
            assert!(
                fired.is_empty(),
                "sharing={rule_sharing}: dwell fired early at t={t}: {fired:?}"
            );
        }

        // t=10: the TTL expired at t=8; the fuse sees no evidence, the
        // inner atom goes false, the clock resets. (An empty batch still
        // re-evaluates affected objects via the revocation path.)
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
            "sharing={rule_sharing}: dwell fired across evidence loss: {fired:?}"
        );

        // t=12: only 2 seconds of fresh dwell — must not fire.
        let fired = alice_in_room0(&service, SimTime::from_secs(12.0));
        assert!(
            fired.is_empty(),
            "sharing={rule_sharing}: dwell clock failed to reset: {fired:?}"
        );
        let fired = alice_in_room0(&service, SimTime::from_secs(14.0));
        assert!(
            fired.is_empty(),
            "sharing={rule_sharing}: dwell fired at 2s short: {fired:?}"
        );

        // t=18: 6 fresh continuous seconds since t=12 — fires exactly once.
        let fired = alice_in_room0(&service, SimTime::from_secs(18.0));
        assert_eq!(
            fired.len(),
            1,
            "sharing={rule_sharing}: dwell should fire once after 6 fresh seconds: {fired:?}"
        );
        assert_eq!(fired[0].subscription, id);

        // Still inside: on-enter must not re-fire.
        let fired = alice_in_room0(&service, SimTime::from_secs(20.0));
        assert!(
            fired.is_empty(),
            "sharing={rule_sharing}: on-enter re-fired while dwelling: {fired:?}"
        );
    }
}

/// Quarantining the only sensor mid-dwell (via repeated out-of-frame
/// violations) behaves exactly like TTL expiry: the dwell clock resets
/// and both engine modes agree step-for-step.
#[test]
fn dwell_across_quarantine_shared_and_naive_agree() {
    let shared = build_supervised(true);
    let naive = build_supervised(false);
    let rule =
        Rule::when(Predicate::in_region(room(0), 0.5).for_at_least(SimDuration::from_secs(4.0)))
            .object("alice")
            .build()
            .unwrap();
    let a = shared.subscribe_rule(rule.clone());
    let b = naive.subscribe_rule(rule);
    assert_eq!(a, b);

    let mut all_shared = Vec::new();
    let mut all_naive = Vec::new();
    let mut drive = |outputs: Vec<AdapterOutput>, now: SimTime| {
        let fa = shared.ingest_batch(outputs.clone(), now);
        let fb = naive.ingest_batch(outputs, now);
        assert_eq!(fa, fb, "twins diverged at t={now:?}");
        all_shared.extend(fa);
        all_naive.extend(fb);
    };

    // t=0..2: alice dwells in room 0 (good readings, short of 4s).
    for t in 0..=2 {
        let r = reading(
            0,
            0,
            Point::new(25.0, 50.0),
            SimTime::from_secs(t as f64),
            4.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }

    // t=3..8: the sensor starts emitting out-of-frame garbage. The
    // supervisor racks up violations and quarantines it; its readings
    // stop reaching fusion, alice's evidence ages out, the inner atom
    // goes false on both twins at the same fuse.
    for t in 3..=8 {
        let r = reading(
            0,
            0,
            Point::new(900.0, 900.0),
            SimTime::from_secs(t as f64),
            4.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }

    // t=20..26: the quarantine window has lapsed; healthy readings
    // restart the dwell from zero. Whatever edge the clock produces,
    // both engines must produce it identically (asserted in `drive`).
    for t in 20..=26 {
        let r = reading(
            0,
            0,
            Point::new(25.0, 50.0),
            SimTime::from_secs(t as f64),
            30.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }

    assert_eq!(all_shared, all_naive);
    // The healthy stretch is long enough that the dwell must complete.
    assert!(
        all_shared.iter().any(|n| n.subscription == a),
        "dwell never fired after quarantine recovery: {all_shared:?}"
    );
}

// --- dwell clocks under skipped (differential) re-evaluation -------------

/// A dwell timer must mature across ingests whose inputs are bit-for-bit
/// unchanged — exactly the ingests differential evaluation serves from
/// its caches. The `Dwell` node itself is stateful (never cached), but
/// its pure `InRegion` child is frontier-cached after the first
/// identical fuse; the `rules.eval.skipped` counter proves those skips
/// really happened while the clock still fired on time.
#[test]
fn dwell_matures_across_cache_served_ingests() {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let service = LocationService::new_with_tuning_and_obs(
        floor_db(),
        universe(),
        &broker,
        &registry,
        ServiceTuning::default(), // differential_eval: true
    );
    let rule =
        Rule::when(Predicate::in_region(room(0), 0.5).for_at_least(SimDuration::from_secs(4.0)))
            .object("alice")
            .build()
            .unwrap();
    let id = service.subscribe_rule(rule);

    // t=0..3: the identical reading every second (long TTL, no temporal
    // degradation) — every input the pure child reads is unchanged, so
    // from t=1 on the child is served from the frontier cache. The
    // clock must still accumulate.
    for t in 0..=3 {
        let r = reading(
            0,
            0,
            Point::new(25.0, 50.0),
            SimTime::from_secs(t as f64),
            30.0,
        );
        let fired =
            service.ingest_batch(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
        assert!(fired.is_empty(), "dwell fired early at t={t}: {fired:?}");
    }

    // t=4: four continuous seconds — fires exactly once.
    let r = reading(0, 0, Point::new(25.0, 50.0), SimTime::from_secs(4.0), 30.0);
    let fired = service.ingest_batch(vec![AdapterOutput::single(r)], SimTime::from_secs(4.0));
    assert_eq!(fired.len(), 1, "dwell should mature at t=4: {fired:?}");
    assert_eq!(fired[0].subscription, id);

    // t=5: still inside — no re-fire.
    let r = reading(0, 0, Point::new(25.0, 50.0), SimTime::from_secs(5.0), 30.0);
    let fired = service.ingest_batch(vec![AdapterOutput::single(r)], SimTime::from_secs(5.0));
    assert!(
        fired.is_empty(),
        "on-enter re-fired while dwelling: {fired:?}"
    );

    // The timer matured *because of* skipped re-evaluation, not despite
    // a silent fallback to full walks: the frontier cache was hit on
    // the unchanged ingests.
    let skipped = registry.counter("rules.eval.skipped").get();
    assert!(
        skipped >= 4,
        "expected the pure dwell child to be cache-served on unchanged ingests, got {skipped} skips"
    );
}

/// Quarantine-induced evidence loss mid-dwell must reset the clock
/// identically with differential evaluation on and off: the quarantine
/// changes the fused-evidence fingerprint, so the cached frontier is
/// invalidated on exactly the fuse where the full walk sees the inner
/// atom go false.
#[test]
fn quarantine_mid_dwell_resets_identically_under_differential_eval() {
    let differential = build_diff_supervised(true);
    let full = build_diff_supervised(false);
    let rule =
        Rule::when(Predicate::in_region(room(0), 0.5).for_at_least(SimDuration::from_secs(4.0)))
            .object("alice")
            .build()
            .unwrap();
    let a = differential.subscribe_rule(rule.clone());
    let b = full.subscribe_rule(rule);
    assert_eq!(a, b);

    let mut all: Vec<Notification> = Vec::new();
    let mut drive = |outputs: Vec<AdapterOutput>, now: SimTime| {
        let fa = differential.ingest_batch(outputs.clone(), now);
        let fb = full.ingest_batch(outputs, now);
        assert_eq!(fa, fb, "eval modes diverged at t={now:?}");
        all.extend(fa);
    };

    // t=0..2: dwell accumulates (short of 4 seconds).
    for t in 0..=2 {
        let r = reading(
            0,
            0,
            Point::new(25.0, 50.0),
            SimTime::from_secs(t as f64),
            4.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }
    // t=3..8: out-of-frame garbage racks up violations until the sensor
    // is quarantined; alice's evidence ages out mid-dwell and the clock
    // must reset on the same fuse in both modes.
    for t in 3..=8 {
        let r = reading(
            0,
            0,
            Point::new(900.0, 900.0),
            SimTime::from_secs(t as f64),
            4.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }
    // t=20..26: healthy readings after the quarantine window; the dwell
    // restarts from zero and completes.
    for t in 20..=26 {
        let r = reading(
            0,
            0,
            Point::new(25.0, 50.0),
            SimTime::from_secs(t as f64),
            30.0,
        );
        drive(vec![AdapterOutput::single(r)], SimTime::from_secs(t as f64));
    }

    assert!(
        all.iter().any(|n| n.subscription == a),
        "dwell never completed after quarantine recovery: {all:?}"
    );
}
