//! Property: the service's per-object state — the interned slab over
//! its reading table, the fusion cache, privacy and
//! last-known-good (`DESIGN.md` §14) — answers exactly like the
//! string-keyed public-API model in `reference/`.
//!
//! Service and model run in lockstep. For every random interleaving of
//! ingests, revocations, privacy changes and queries under a live rule
//! load-out, they must agree exactly on `query` probability, band and
//! quality (each query asked twice, so the cache-hit path is compared
//! too), `locate` fixes, per-object epochs, `reading_count` and
//! `tracked_objects`.

mod reference;

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{AnswerQuality, LocationFix, LocationQuery, LocationService, Predicate, Rule};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{
    AdapterOutput, HealthConfig, Revocation, SensorReading, SensorSpec, SensorSupervisor,
};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::{Answer, Reference};

const OBJECTS: &[&str] = &["alice", "bob", "carol", "dave"];
/// Not in sorted order: the live set's sensor order differs from the
/// order readings arrive in.
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

/// One step of an interleaved schedule.
#[derive(Debug, Clone)]
enum Op {
    Ingest {
        sensor: usize,
        object: usize,
        center: Point,
        ttl_secs: f64,
    },
    Revoke {
        sensor: usize,
        object: usize,
    },
    Query {
        object: usize,
        rect: Rect,
    },
    Locate {
        object: usize,
    },
    /// `Some(depth)` sets a privacy depth, `None` clears it.
    Privacy {
        object: usize,
        depth: Option<usize>,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (
        0..11usize,
        0..SENSORS.len(),
        0..OBJECTS.len(),
        (2.0..448.0f64, 2.0..58.0f64),
        (10.0..50.0f64, 10.0..40.0f64),
    )
        .prop_map(|(kind, sensor, object, (x, y), (w, h))| match kind {
            0..=4 => Op::Ingest {
                sensor,
                object,
                center: Point::new(x + 1.0, y + 1.0),
                ttl_secs: if kind % 2 == 0 { 1e6 } else { 5.0 },
            },
            5 => Op::Revoke { sensor, object },
            6 | 7 => Op::Query {
                object,
                rect: Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
            },
            8 => Op::Locate { object },
            _ => Op::Privacy {
                object,
                depth: (kind == 9).then_some(1 + sensor),
            },
        })
}

/// Every sensor shares one spec and one 2 × 2 ft rect size, so any two
/// disjoint readings of an object tie under conflict rule 2 and the
/// kept one depends on the live set's order.
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

fn revocation(sensor: usize, object: usize) -> AdapterOutput {
    AdapterOutput {
        readings: vec![],
        revocations: vec![Revocation {
            sensor_id: SENSORS[sensor].into(),
            object: OBJECTS[object].into(),
        }],
    }
}

/// The rule load-out the service carries: one region rule per room (the
/// interest-grid path), a per-object rule for every object (the
/// handle-scoped group path), and one co-located pair (the
/// partner-state path). Rule evaluation fuses on every ingest, so the
/// fusion cache is warm when queries arrive.
fn register_rules(service: &LocationService) {
    for i in 0..10 {
        let x0 = i as f64 * 50.0;
        let room = Rect::new(Point::new(x0, 0.0), Point::new(x0 + 50.0, 100.0));
        let _ = service.subscribe_rule(
            Rule::when(Predicate::in_region(room, 0.3))
                .build()
                .expect("room rule"),
        );
    }
    for (i, object) in OBJECTS.iter().enumerate() {
        let x0 = i as f64 * 120.0;
        let rect = Rect::new(Point::new(x0, 0.0), Point::new(x0 + 120.0, 100.0));
        let _ = service.subscribe_rule(
            Rule::when(Predicate::in_region(rect, 0.2))
                .object(*object)
                .build()
                .expect("object rule"),
        );
    }
    let _ = service.subscribe_rule(
        Rule::when(Predicate::co_located("alice", 2))
            .object("bob")
            .build()
            .expect("co-located rule"),
    );
}

fn build() -> (Arc<LocationService>, Reference) {
    let broker = Broker::new();
    let service = LocationService::new(floor_db(), universe(), &broker);
    register_rules(&service);
    (service, Reference::new(&floor_db(), universe()))
}

fn query_rect(service: &LocationService, object: &str, rect: Rect, now: SimTime) -> Answer {
    Answer::of(service.query(LocationQuery::of(object).in_rect(rect).at(now)))
}

fn locate(service: &LocationService, object: &str, now: SimTime) -> Answer {
    Answer::of(service.query(LocationQuery::of(object).at(now)))
}

/// Bookkeeping both sides must share after every step.
fn assert_state_agrees(
    service: &LocationService,
    model: &Reference,
    now: SimTime,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        service.reading_count(),
        model.reading_count(),
        "reading_count at step {}",
        step
    );
    let mut tracked = service.tracked_objects(now);
    tracked.sort();
    prop_assert_eq!(
        tracked,
        model.tracked_objects(now),
        "tracked_objects at step {}",
        step
    );
    for object in OBJECTS {
        prop_assert_eq!(
            service.object_epoch(&(*object).into()),
            model.epoch(object),
            "epoch of {} at step {}",
            object,
            step
        );
    }
    Ok(())
}

fn run_schedule(
    service: &LocationService,
    model: &mut Reference,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for (step, op) in ops.iter().enumerate() {
        let now = SimTime::from_secs(step as f64);
        match *op {
            Op::Ingest {
                sensor,
                object,
                center,
                ttl_secs,
            } => {
                let out = AdapterOutput::single(reading(sensor, object, center, now, ttl_secs));
                model.ingest(&out, now);
                service.ingest(out, now);
            }
            Op::Revoke { sensor, object } => {
                let out = revocation(sensor, object);
                model.ingest(&out, now);
                service.ingest(out, now);
            }
            Op::Query { object, rect } => {
                let expected = model.query_rect(OBJECTS[object], rect, now);
                // Twice: the second ask is the cache-hit path.
                for ask in 0..2 {
                    prop_assert_eq!(
                        &query_rect(service, OBJECTS[object], rect, now),
                        &expected,
                        "query at step {} (ask {})",
                        step,
                        ask
                    );
                }
            }
            Op::Locate { object } => {
                let expected = model.locate(OBJECTS[object], now);
                prop_assert_eq!(
                    &locate(service, OBJECTS[object], now),
                    &expected,
                    "locate at step {}",
                    step
                );
            }
            Op::Privacy { object, depth } => {
                let id = OBJECTS[object];
                match depth {
                    Some(depth) => {
                        model.set_privacy(id, depth);
                        service.set_privacy(id.into(), depth);
                    }
                    None => {
                        model.clear_privacy(id);
                        service.clear_privacy(&id.into());
                    }
                }
            }
        }
        assert_state_agrees(service, model, now, step)?;
    }
    let end = SimTime::from_secs(ops.len() as f64);
    for object in OBJECTS {
        let expected = model.locate(object, end);
        prop_assert_eq!(
            &locate(service, object, end),
            &expected,
            "final locate of {}",
            object
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The service answers exactly like the string-keyed reference
    /// under a live rule load-out.
    #[test]
    fn service_matches_reference(ops in proptest::collection::vec(op(), 1..48)) {
        let (service, mut model) = build();
        run_schedule(&service, &mut model, &ops)?;
    }
}

/// A deterministic burst that makes every object enter and leave every
/// room rule at least once — a directed complement to the random
/// schedules, cheap enough to run first and pin obvious divergence.
#[test]
fn service_matches_reference_on_a_room_walk() {
    let (service, mut model) = build();
    let mut step = 0.0f64;
    for lap in 0..2 {
        for (obj, object) in OBJECTS.iter().enumerate() {
            for room in 0..10 {
                step += 1.0;
                let now = SimTime::from_secs(step);
                let center = Point::new(room as f64 * 50.0 + 25.0, 50.0 + lap as f64);
                let out =
                    AdapterOutput::single(reading(obj % SENSORS.len(), obj, center, now, 1e6));
                model.ingest(&out, now);
                service.ingest(out, now);
                assert_eq!(
                    locate(&service, object, now),
                    model.locate(object, now),
                    "walk diverged at object {obj} room {room} lap {lap}"
                );
            }
        }
    }
    let end = SimTime::from_secs(step + 1.0);
    assert_state_agrees(&service, &model, end, 0).unwrap();
}

/// Conflict resolution breaks a probability tie by position, so the
/// service must fuse the sensor-ordered live set whatever order its
/// table rows are in. Two services reach the same live set for `alice`
/// — two equal-`p`, equal-size, disjoint readings — by different
/// histories; the second one's revoke-and-reinsert leaves its rows in
/// the opposite order. Their answers must be bit-identical, and match
/// the model.
#[test]
fn equal_probability_tie_break_ignores_row_order() {
    let at = SimTime::ZERO;
    let ubi = || reading(0, 0, Point::new(25.0, 50.0), at, 1e6);
    let rf = || reading(2, 0, Point::new(225.0, 50.0), at, 1e6);
    let histories = [
        vec![AdapterOutput::single(ubi()), AdapterOutput::single(rf())],
        vec![
            AdapterOutput::single(ubi()),
            AdapterOutput::single(rf()),
            revocation(0, 0),
            AdapterOutput::single(ubi()),
        ],
    ];
    let now = SimTime::from_secs(1.0);
    let rooms = [0.0, 200.0].map(|x0| Rect::new(Point::new(x0, 0.0), Point::new(x0 + 50.0, 100.0)));
    let mut answers = Vec::new();
    for history in histories {
        let (service, mut model) = build();
        for out in history {
            model.ingest(&out, at);
            service.ingest(out, at);
        }
        let mut seen = vec![locate(&service, "alice", now)];
        seen.extend(rooms.map(|r| query_rect(&service, "alice", r, now)));
        let mut expected = vec![model.locate("alice", now)];
        expected.extend(rooms.map(|r| model.query_rect("alice", r, now)));
        assert_eq!(seen, expected);
        answers.push(seen);
    }
    assert_eq!(answers[0], answers[1]);
}

/// The supervised service: a fix it served becomes the last-known-good
/// rung once the evidence is gone (revoked or expired), an imported fix
/// seeds that rung for an object never seen, and the partition export
/// is sorted by object then sensor.
#[test]
fn supervised_last_good_and_export_match_reference() {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
    let service =
        LocationService::new_supervised(floor_db(), universe(), &broker, &registry, supervisor);
    register_rules(&service);
    let mut model =
        Reference::new(&floor_db(), universe()).supervised(HealthConfig::new(universe()));
    let room = |i: f64| {
        Rect::new(
            Point::new(i * 50.0, 0.0),
            Point::new(i * 50.0 + 50.0, 100.0),
        )
    };
    let t = SimTime::from_secs;

    // Readings land out of object and sensor order.
    let seed = [
        (1, 3, Point::new(375.0, 50.0), 5.0),
        (0, 0, Point::new(125.0, 50.0), 1e6),
        (2, 3, Point::new(376.0, 50.0), 1e6),
        (0, 1, Point::new(225.0, 50.0), 1e6),
    ];
    for (sensor, object, center, ttl) in seed {
        let out = AdapterOutput::single(reading(sensor, object, center, t(1.0), ttl));
        model.ingest(&out, t(1.0));
        service.ingest(out, t(1.0));
    }
    let fixes = |service: &LocationService, model: &mut Reference, now: SimTime| {
        for object in OBJECTS {
            assert_eq!(locate(service, object, now), model.locate(object, now));
        }
    };
    fixes(&service, &mut model, t(2.0));
    let imported = LocationFix {
        object: "carol".into(),
        ..match model.locate("alice", t(2.0)) {
            Answer::Fix(fix, _) => fix,
            other => panic!("alice is tracked: {other:?}"),
        }
    };
    model.import_last_good(imported.clone());
    service.import_last_good(imported);

    // alice loses her only reading; dave's Ubi-2 row expires at t = 6.
    let out = revocation(0, 0);
    model.ingest(&out, t(3.0));
    service.ingest(out, t(3.0));
    let rung = |object: &str, now: SimTime| match locate(&service, object, now) {
        Answer::Fix(_, quality) => Some(quality),
        _ => None,
    };
    assert_eq!(rung("alice", t(4.0)), Some(AnswerQuality::LastKnownGood));
    assert_eq!(rung("carol", t(4.0)), Some(AnswerQuality::LastKnownGood));
    assert_eq!(rung("alice", t(700.0)), None, "older than lkg_max_age");
    for now in [t(4.0), t(8.0), t(700.0)] {
        fixes(&service, &mut model, now);
        for object in OBJECTS {
            for i in [2.0, 7.0] {
                let expected = model.query_rect(object, room(i), now);
                assert_eq!(query_rect(&service, object, room(i), now), expected);
            }
        }
        assert_eq!(service.export_partition_state(now), model.export(now));
        assert_state_agrees(&service, &model, now, 0).unwrap();
    }
}
