//! Property: `objects_in_region` answered from the occupancy
//! snapshot is *byte-identical* — membership, probabilities, order, ties
//! — to the exhaustive walk it replaced.
//!
//! The oracle is written from public API only: every object of
//! `tracked_objects(now)` is asked `query(.. in_region ..)`, the
//! survivors are stable-sorted by probability. It runs on a twin service
//! fed the same schedule, so the subject is only ever asked region
//! scans and the twin only ever point queries.
//!
//! The schedule mixes inserts, supersedes, revocations and expiry over
//! 30 objects × 4 sensors with everything the pruning bound has to be
//! careful about: all four `TemporalDegradation` kinds (a decayed hit
//! probability can fall below the false-positive probability, which
//! lifts the posterior of every region the reading does *not* cover
//! above the prior share), a `h < q` calibration, zero-area, room-exact,
//! strip-shaped and larger-than-the-grid-cap readings, and thresholds
//! straddling a prior share of exactly 0.1. The twins cover the two
//! conditions under which the service must fall back to the exhaustive
//! walk: supervised (where the health ledger must match too) and the
//! aging motion model.

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationQuery, LocationService};
use mw_fusion::FusionEngine;
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{
    AdapterOutput, HealthConfig, MobileObjectId, Revocation, SensorId, SensorReading, SensorSpec,
    SensorSupervisor, SharedSupervisor,
};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const OBJECTS: usize = 30;
const SENSORS: usize = 4;
const ROOMS: usize = 10;

/// Ten 100 × 100 rooms side by side: each is exactly a tenth of it.
fn universe() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 100.0))
}

const PRIOR_SHARE: f64 = 0.1;

/// Zero, below, just below, at, within the service's rounding slack of,
/// just above and well above the prior share of one room.
const THRESHOLDS: [f64; 7] = [
    0.0,
    0.05,
    PRIOR_SHARE - 1e-12,
    PRIOR_SHARE,
    PRIOR_SHARE + 1e-12,
    PRIOR_SHARE + 1e-6,
    0.5,
];

/// The whole universe, a region outside it, and one straddling its edge.
const WHOLE: &str = "CS/Floor3";
const OUTSIDE: &str = "CS/Floor3/Annex";
const STRADDLING: &str = "CS/Floor3/Porch";

fn floor_db() -> SpatialDatabase {
    let mut db = SpatialDatabase::new();
    let mut add = |name: &str, parent: &str, kind: ObjectType, rect: Rect| {
        db.insert_object(SpatialObject::new(
            name,
            parent.parse().unwrap(),
            kind,
            Geometry::Polygon(Polygon::from_rect(&rect)),
        ))
        .unwrap();
    };
    add("Floor3", "CS", ObjectType::Floor, universe());
    for i in 0..ROOMS {
        let x0 = i as f64 * 100.0;
        let rect = Rect::new(Point::new(x0, 0.0), Point::new(x0 + 100.0, 100.0));
        add(&format!("R{i}"), "CS/Floor3", ObjectType::Room, rect);
    }
    let annex = Rect::new(Point::new(1100.0, 0.0), Point::new(1200.0, 100.0));
    add("Annex", "CS/Floor3", ObjectType::Room, annex);
    let porch = Rect::new(Point::new(950.0, 0.0), Point::new(1050.0, 100.0));
    add("Porch", "CS/Floor3", ObjectType::Room, porch);
    db
}

#[derive(Debug, Clone)]
enum Op {
    /// Inserts, or supersedes the same `(sensor, object)` pair's row.
    Insert {
        sensor: usize,
        object: usize,
        region: Rect,
        spec: usize,
        tdf: usize,
        short_lived: bool,
        moving: bool,
    },
    Revoke {
        sensor: usize,
        object: usize,
    },
    /// Lets short-lived readings expire and decaying ones decay.
    Advance(f64),
    /// Compares every threshold on one room and the three odd regions.
    Scan {
        room: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (
        (0..12usize, 0..SENSORS, 0..OBJECTS),
        (0.0..1000.0f64, 0.0..100.0f64),
        (0..6usize, 0..4usize, 0..6usize),
        (proptest::bool::ANY, proptest::bool::ANY),
        (0.5..8.0f64, 0..ROOMS),
    )
        .prop_map(
            |(
                (kind, sensor, object),
                (x, y),
                (shape, spec, tdf),
                (short_lived, moving),
                (secs, room),
            )| {
                match kind {
                    0..=6 => Op::Insert {
                        sensor,
                        object,
                        region: region(Point::new(x, y), shape),
                        spec,
                        tdf,
                        short_lived,
                        moving,
                    },
                    7 => Op::Revoke { sensor, object },
                    8 | 9 => Op::Advance(secs),
                    _ => Op::Scan { room },
                }
            },
        )
}

fn region(at: Point, shape: usize) -> Rect {
    match shape {
        0 => Rect::from_center(at, 2.0, 2.0),
        1 => Rect::from_center(at, 60.0, 60.0),
        2 => Rect::from_point(at),
        // A strip across every room.
        3 => Rect::new(Point::new(0.0, at.y), Point::new(1000.0, at.y + 5.0)),
        // More grid cells than the snapshot enumerates.
        4 => Rect::new(Point::new(-3000.0, -3000.0), Point::new(4000.0, 4000.0)),
        // Exactly one room: shares only edges with its neighbours.
        _ => {
            let x0 = (at.x / 100.0).floor() * 100.0;
            Rect::new(Point::new(x0, 0.0), Point::new(x0 + 100.0, 100.0))
        }
    }
}

fn spec(kind: usize) -> SensorSpec {
    match kind {
        0 => SensorSpec::ubisense(1.0),
        1 => SensorSpec::ubisense(0.9),
        2 => SensorSpec::rfid_badge(0.8),
        // Rarely carried: the hit probability is below the
        // false-positive probability, so a sighting is evidence for
        // being anywhere *else*.
        _ => SensorSpec::ubisense(0.1),
    }
}

fn tdf(kind: usize) -> TemporalDegradation {
    match kind {
        0..=2 => TemporalDegradation::None,
        3 => TemporalDegradation::Linear {
            lifetime: SimDuration::from_secs(10.0),
        },
        4 => TemporalDegradation::ExponentialHalfLife {
            half_life: SimDuration::from_secs(2.0),
        },
        _ => TemporalDegradation::Step {
            step: SimDuration::from_secs(3.0),
            factor: 0.3,
        },
    }
}

fn object_id(object: usize) -> MobileObjectId {
    format!("person-{object:02}").as_str().into()
}

fn sensor_id(sensor: usize) -> SensorId {
    format!("S-{sensor}").as_str().into()
}

#[derive(Clone, Copy)]
enum Variant {
    /// Unsupervised, the paper's model: the snapshot answers every
    /// threshold above the prior share. All 30 objects share the one
    /// snapshot, so equal posteriors — whose order the candidates' id
    /// order decides — are common.
    Indexed,
    /// Fall-back 1: a scan feeds conflict outcomes to the supervisor.
    Supervised,
    /// Fall-back 2: evidence rects outgrow the stored rects.
    AgingInflation,
}

struct Service {
    service: Arc<LocationService>,
    health: Option<(SharedSupervisor, MetricsRegistry)>,
    _broker: Broker,
}

fn build(variant: Variant) -> Service {
    let broker = Broker::new();
    let mut health = None;
    let service = match variant {
        Variant::Indexed => LocationService::new(floor_db(), universe(), &broker),
        Variant::Supervised => {
            let registry = MetricsRegistry::new();
            let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
            health = Some((Arc::clone(&supervisor), registry.clone()));
            LocationService::new_supervised(floor_db(), universe(), &broker, &registry, supervisor)
        }
        Variant::AgingInflation => LocationService::new_with_engine(
            floor_db(),
            FusionEngine::new(universe()).with_aging_inflation(4.0),
            &broker,
        ),
    };
    Service {
        service,
        health,
        _broker: broker,
    }
}

/// The exhaustive walk, from public API only.
fn oracle(
    service: &LocationService,
    region: &str,
    min_probability: f64,
    now: SimTime,
) -> Vec<(MobileObjectId, f64)> {
    let mut out = Vec::new();
    for object in service.tracked_objects(now) {
        let p = service
            .query(LocationQuery::of(object.clone()).in_region(region).at(now))
            .ok()
            .and_then(|answer| answer.probability())
            .unwrap_or(0.0);
        if p >= min_probability {
            out.push((object, p));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Everything the supervisor lets an operator see: per-sensor states,
/// the transition log and every `health.*` series.
fn health_ledger(health: &Option<(SharedSupervisor, MetricsRegistry)>) -> String {
    let Some((supervisor, registry)) = health else {
        return String::new();
    };
    let guard = supervisor.lock().unwrap();
    let mut states: Vec<String> = guard
        .states()
        .map(|(sensor, state)| format!("{sensor}={state:?}"))
        .collect();
    states.sort();
    let snapshot = registry.snapshot();
    let counters: Vec<String> = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("health."))
        .map(|c| format!("{}={}", c.name, c.value))
        .collect();
    let gauges: Vec<String> = snapshot
        .gauges
        .iter()
        .filter(|g| g.name.starts_with("health."))
        .map(|g| format!("{}={}", g.name, g.value))
        .collect();
    // The watchdog ticks sensors in hash-map order, so transitions that
    // share a timestamp are logged in no particular order.
    let mut log: Vec<_> = guard.transition_log().iter().collect();
    log.sort_by(|a, b| {
        let (at_a, at_b) = (a.at.as_secs(), b.at.as_secs());
        at_a.total_cmp(&at_b).then_with(|| a.sensor.cmp(&b.sensor))
    });
    format!("{states:?} {log:?} {counters:?} {gauges:?}")
}

fn scan(
    subject: &Service,
    reference: &Service,
    room: usize,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let room = format!("CS/Floor3/R{room}");
    for region in [room.as_str(), WHOLE, OUTSIDE, STRADDLING] {
        for min_probability in THRESHOLDS {
            let got = subject
                .service
                .objects_in_region(region, min_probability, now)
                .unwrap();
            let want = oracle(&reference.service, region, min_probability, now);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{} at threshold {} and t = {}",
                region,
                min_probability,
                now.as_secs()
            );
            prop_assert_eq!(
                health_ledger(&subject.health),
                health_ledger(&reference.health),
                "health ledger after scanning {}",
                region
            );
        }
    }
    Ok(())
}

fn run(variant: Variant, ops: &[Op]) -> Result<(), TestCaseError> {
    let (subject, reference) = (build(variant), build(variant));
    for (supervisor, _) in [&subject, &reference]
        .into_iter()
        .filter_map(|s| s.health.as_ref())
    {
        supervisor.lock().unwrap().enable_transition_log();
    }
    let mut now = SimTime::ZERO;
    for op in ops {
        let output = match op {
            Op::Insert {
                sensor,
                object,
                region,
                spec: spec_kind,
                tdf: tdf_kind,
                short_lived,
                moving,
            } => AdapterOutput::single(SensorReading {
                sensor_id: sensor_id(*sensor),
                spec: spec(*spec_kind),
                object: object_id(*object),
                glob_prefix: "CS/Floor3".parse().unwrap(),
                region: *region,
                detected_at: now,
                time_to_live: SimDuration::from_secs(if *short_lived { 5.0 } else { 1e6 }),
                tdf: tdf(*tdf_kind),
                moving: *moving,
            }),
            Op::Revoke { sensor, object } => AdapterOutput {
                readings: vec![],
                revocations: vec![Revocation {
                    sensor_id: sensor_id(*sensor),
                    object: object_id(*object),
                }],
            },
            Op::Advance(secs) => {
                now += SimDuration::from_secs(*secs);
                continue;
            }
            Op::Scan { room } => {
                scan(&subject, &reference, *room, now)?;
                continue;
            }
        };
        subject.service.ingest(output.clone(), now);
        reference.service.ingest(output, now);
    }
    scan(&subject, &reference, ops.len() % ROOMS, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn snapshot_answers_equal_the_exhaustive_walk(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        run(Variant::Indexed, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn supervised_scan_takes_the_exhaustive_walk_and_feeds_the_ledger(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        run(Variant::Supervised, &ops)?;
    }

    #[test]
    fn aging_inflation_takes_the_exhaustive_walk(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        run(Variant::AgingInflation, &ops)?;
    }
}

/// An undecaying, long-lived reading of `object` by `sensor`.
fn insert(sensor: usize, object: usize, spec: usize, region: Rect) -> Op {
    Op::Insert {
        sensor,
        object,
        region,
        spec,
        tdf: 0,
        short_lived: false,
        moving: false,
    }
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new(Point::new(x0, y0), Point::new(x1, y1))
}

/// Runs `ops`, then scans every room.
fn run_scripted(mut ops: Vec<Op>) -> Result<(), TestCaseError> {
    ops.extend((0..ROOMS).map(|room| Op::Scan { room }));
    run(Variant::Indexed, &ops)
}

/// Readings that touch the scanned room only along an edge or at a
/// corner overlap it with zero area: the bound skips them, and their
/// objects' posteriors stay at or below the prior share.
#[test]
fn readings_sharing_an_edge_or_corner_with_the_room() {
    run_scripted(vec![
        // Exactly R2: shares an edge with R1 and R3.
        insert(0, 0, 0, rect(200.0, 0.0, 300.0, 100.0)),
        // Flush against R3's west wall, inside R2.
        insert(0, 1, 1, rect(250.0, 40.0, 300.0, 60.0)),
        // Meets R3 and R4 only at their shared top corner.
        insert(0, 2, 0, rect(400.0, 100.0, 410.0, 110.0)),
        insert(0, 3, 2, rect(390.0, -10.0, 400.0, 0.0)),
        // A zero-area reading on a wall.
        insert(0, 4, 0, rect(300.0, 20.0, 300.0, 30.0)),
        // And one strictly inside R3, for contrast.
        insert(0, 5, 0, rect(340.0, 40.0, 342.0, 42.0)),
    ])
    .unwrap();
}

/// An object whose second stored reading overlaps the room while its
/// first does not is still a candidate: every entry is checked, not
/// the object's first. The two readings overlap each other, so fusion
/// keeps both, and the weak RFID one cannot pull the posterior of R0
/// below its prior share. Each storage order appears once.
#[test]
fn objects_with_one_overlapping_and_one_distant_reading() {
    let straddling = rect(70.0, 20.0, 130.0, 80.0);
    let in_r1 = rect(110.0, 20.0, 170.0, 80.0);
    run_scripted(vec![
        insert(0, 0, 1, straddling),
        insert(1, 0, 2, in_r1),
        insert(0, 1, 2, in_r1),
        insert(1, 1, 1, straddling),
        // Two readings in far-apart rooms: a conflict.
        insert(0, 2, 0, rect(620.0, 20.0, 622.0, 22.0)),
        insert(1, 2, 2, rect(60.0, 20.0, 90.0, 50.0)),
    ])
    .unwrap();
}

/// An object the bound does not cover sits on the always list and is a
/// candidate for every room, however far its reading: a rarely carried
/// badge's sighting lifts every *other* room above the prior share, and
/// a decayed reading may too.
#[test]
fn always_list_object_alone_in_a_far_cell() {
    let far = rect(940.0, 40.0, 942.0, 42.0);
    run_scripted(vec![insert(0, 0, 3, far)]).unwrap();
    run_scripted(vec![
        Op::Insert {
            sensor: 0,
            object: 1,
            region: far,
            spec: 0,
            tdf: 4,
            short_lived: false,
            moving: false,
        },
        Op::Advance(7.5),
    ])
    .unwrap();
}
