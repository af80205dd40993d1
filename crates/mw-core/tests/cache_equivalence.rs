//! Property: the epoch-cached service answers exactly like the
//! public-API reference in `reference/`, whose every answer is a fresh,
//! uncached `FusionEngine::fuse`.
//!
//! The fusion cache returns `Arc`-shared results keyed on (epoch, query
//! time, excluded-sensor fingerprint), and query-region evaluation runs
//! read-only against the cached lattice. Both are only sound if every
//! observable answer — probability, region, band, and answer quality —
//! is *bit-identical* to what a fresh fuse would produce. This test
//! drives arbitrary interleavings of ingests, revocations, and queries
//! over several objects through the service and the reference and
//! demands exact equality (`==` on `f64`s, not approximate).
//!
//! Each query is asked twice at one instant, with a `locate` after each
//! ask, so three of the four fuses are cache hits. An equivalence check
//! alone cannot see a cache that never stores (every answer is then a
//! correct fresh fuse), so the hit and miss counters are pinned too:
//! exactly one miss and three hits per query step. An object the
//! schedule has not yet ingested or revoked has no slot, and the service
//! caches nothing for it (such queries must not grow its state), so
//! there all four fuses miss.

mod reference;

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationQuery, LocationService};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, Revocation, SensorReading, SensorSpec};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;
use reference::{Answer, Reference};

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
    /// so the second ask exercises the cache-hit path.
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

fn build() -> (Arc<LocationService>, MetricsRegistry, Reference) {
    let broker = Broker::new();
    let registry = MetricsRegistry::new();
    let service = LocationService::new_with_obs(floor_db(), universe(), &broker, &registry);
    (service, registry, Reference::new(&floor_db(), universe()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_service_answers_like_the_reference(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let (service, registry, mut model) = build();
        let (mut misses, mut hits) = (0u64, 0u64);

        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as f64);
            match *op {
                Op::Ingest { sensor, object, center, ttl_secs } => {
                    let out = AdapterOutput::single(reading(sensor, object, center, now, ttl_secs));
                    model.ingest(&out, now);
                    service.ingest(out, now);
                }
                Op::Revoke { sensor, object } => {
                    let out = AdapterOutput {
                        readings: vec![],
                        revocations: vec![Revocation {
                            sensor_id: SENSORS[sensor].into(),
                            object: OBJECTS[object].into(),
                        }],
                    };
                    model.ingest(&out, now);
                    service.ingest(out, now);
                }
                Op::Query { object, rect } => {
                    if model.epoch(OBJECTS[object]) == 0 {
                        misses += 4;
                    } else {
                        misses += 1;
                        hits += 3;
                    }
                    let expected = model.query_rect(OBJECTS[object], rect, now);
                    let expected_fix = model.locate(OBJECTS[object], now);
                    // Ask twice: the first ask fills the cache, the
                    // second must be served from it. Both must match the
                    // uncached reference exactly.
                    for ask in 0..2 {
                        let answer = Answer::of(service.query(
                            LocationQuery::of(OBJECTS[object]).in_rect(rect).at(now),
                        ));
                        prop_assert_eq!(&answer, &expected,
                            "probability, band or quality diverged at step {} (ask {})",
                            step, ask);
                        // Full fixes (region + symbolic resolution) must
                        // agree too when the object is locatable.
                        let fix = service.locate(&OBJECTS[object].into(), now);
                        match (&fix, &expected_fix) {
                            (Ok(fix), Answer::Fix(want, _)) => prop_assert!(
                                fix == want,
                                "locate diverged at step {}: {:?} vs {:?}", step, fix, want
                            ),
                            (Err(_), Answer::Error) => {}
                            _ => prop_assert!(false,
                                "locate diverged at step {step}: {fix:?} vs {expected_fix:?}"),
                        }
                    }
                }
            }
            prop_assert_eq!(service.reading_count(), model.reading_count());
        }

        // The same objects are tracked at the end, in the same order.
        let end = SimTime::from_secs(ops.len() as f64);
        prop_assert_eq!(service.tracked_objects(end), model.tracked_objects(end));

        // No rules are registered, so only queries fuse: per query step
        // the first ask misses (or re-weights) and stores, the three
        // fuses after it at the same instant hit — unless the object has
        // never been touched, when nothing is stored and all four miss.
        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("fusion.cache.misses").unwrap_or(0), misses);
        prop_assert_eq!(snap.counter("fusion.cache.hits").unwrap_or(0), hits);
    }
}

/// A directed case, so `fusion.cache.hits > 0` holds in the suite
/// whatever schedules the generator draws.
#[test]
fn repeated_asks_are_served_from_the_cache() {
    let (service, registry, mut model) = build();
    let now = SimTime::from_secs(1.0);
    let out = AdapterOutput::single(reading(0, 0, Point::new(25.0, 50.0), now, 1e6));
    model.ingest(&out, now);
    service.ingest(out, now);
    let room = Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 100.0));
    let expected = model.query_rect("alice", room, now);
    for _ in 0..3 {
        let answer = Answer::of(service.query(LocationQuery::of("alice").in_rect(room).at(now)));
        assert_eq!(answer, expected);
    }
    let hits = registry
        .snapshot()
        .counter("fusion.cache.hits")
        .unwrap_or(0);
    assert!(hits > 0, "fusion.cache.hits = {hits}");
    assert_eq!(hits, 2);
}
