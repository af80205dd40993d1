//! Property: the sharded, epoch-cached service is observationally
//! identical to a single-shard, cache-free service fed the same inputs.
//!
//! The fusion cache returns `Arc`-shared results keyed on (epoch, query
//! time, excluded-sensor fingerprint), and query-region evaluation runs
//! read-only against the cached lattice. Both are only sound if every
//! observable answer — probability, region, band, and answer quality —
//! is *bit-identical* to what a fresh fuse would produce. This test
//! drives arbitrary interleavings of ingests, revocations, and queries
//! over several objects through both configurations and demands exact
//! equality (`==` on `f64`s, not approximate).

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationQuery, LocationService, ServiceTuning};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_sensors::{AdapterOutput, Revocation, SensorReading, SensorSpec};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;

const OBJECTS: &[&str] = &["alice", "bob", "carol"];
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
    /// Probability that `object` is inside `rect`, asked twice in a row
    /// so the second ask exercises the cache-hit path on the tuned
    /// service.
    Query {
        object: usize,
        rect: Rect,
    },
}

fn op() -> impl Strategy<Value = Op> {
    // One packed tuple mapped onto the variants: kinds 0–3 ingest (with
    // alternating long/short TTLs so freshness expiry gets exercised),
    // 4 revokes, 5–7 query.
    (
        0..8usize,
        0..SENSORS.len(),
        0..OBJECTS.len(),
        (2.0..448.0f64, 2.0..58.0f64),
        (10.0..50.0f64, 10.0..40.0f64),
    )
        .prop_map(|(kind, sensor, object, (x, y), (w, h))| match kind {
            0..=3 => Op::Ingest {
                sensor,
                object,
                center: Point::new(x + 1.0, y + 1.0),
                ttl_secs: if kind % 2 == 0 { 1e6 } else { 5.0 },
            },
            4 => Op::Revoke { sensor, object },
            _ => Op::Query {
                object,
                rect: Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
            },
        })
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

fn build(tuning: ServiceTuning) -> Arc<LocationService> {
    let broker = Broker::new();
    LocationService::new_with_tuning(floor_db(), universe(), &broker, tuning)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_sharded_service_answers_bit_identically(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let tuned = build(ServiceTuning::default());
        let plain = build(ServiceTuning {
            shards: 1,
            fusion_cache: false,
        });

        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as f64);
            match *op {
                Op::Ingest { sensor, object, center, ttl_secs } => {
                    let r = reading(sensor, object, center, now, ttl_secs);
                    tuned.ingest_reading(r.clone(), now);
                    plain.ingest_reading(r, now);
                }
                Op::Revoke { sensor, object } => {
                    let out = AdapterOutput {
                        readings: vec![],
                        revocations: vec![Revocation {
                            sensor_id: SENSORS[sensor].into(),
                            object: OBJECTS[object].into(),
                        }],
                    };
                    tuned.ingest(out.clone(), now);
                    plain.ingest(out, now);
                }
                Op::Query { object, rect } => {
                    // Ask twice: the first ask fills the tuned service's
                    // cache, the second must be served from it. Both must
                    // match the cache-free baseline exactly.
                    for _ in 0..2 {
                        let q = || LocationQuery::of(OBJECTS[object]).in_rect(rect).at(now);
                        let a = tuned.query(q());
                        let b = plain.query(q());
                        match (&a, &b) {
                            (Ok(a), Ok(b)) => {
                                prop_assert_eq!(a.probability(), b.probability(),
                                    "probability diverged at step {}", step);
                                prop_assert_eq!(a.band(), b.band(),
                                    "band diverged at step {}", step);
                                prop_assert_eq!(a.quality(), b.quality(),
                                    "quality diverged at step {}", step);
                            }
                            (Err(_), Err(_)) => {}
                            _ => prop_assert!(false,
                                "one service errored at step {step}: {a:?} vs {b:?}"),
                        }
                        // Full fixes (region + symbolic resolution) must
                        // agree too when the object is locatable.
                        let fa = tuned.locate(&OBJECTS[object].into(), now);
                        let fb = plain.locate(&OBJECTS[object].into(), now);
                        match (fa, fb) {
                            (Ok(fa), Ok(fb)) => prop_assert!(
                                fa == fb,
                                "locate diverged at step {}: {:?} vs {:?}", step, fa, fb
                            ),
                            (Err(_), Err(_)) => {}
                            (fa, fb) => prop_assert!(false,
                                "locate diverged at step {step}: {fa:?} vs {fb:?}"),
                        }
                    }
                }
            }
            prop_assert_eq!(tuned.reading_count(), plain.reading_count());
        }

        // The same objects are tracked at the end, in the same order.
        let end = SimTime::from_secs(ops.len() as f64);
        prop_assert_eq!(tuned.tracked_objects(end), plain.tracked_objects(end));
    }
}
