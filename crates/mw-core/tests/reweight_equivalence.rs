//! Property: a fusion-cache re-weight answers exactly like a fresh,
//! uncached fuse.
//!
//! When only the clock moved since an object's cached fusion (same
//! reading-set epoch, same excluded-sensor set), the service re-weights
//! the cached lattice to the new instant instead of rebuilding it
//! (`DESIGN.md` §10). These schedules query objects at several instants
//! with no new readings in between, so that path carries the answers,
//! and compare every answer with `==` against the string-keyed
//! public-API model in `reference/`, which fuses fresh every time.
//!
//! The directed cases each cross one boundary a re-weight must notice:
//! a TTL expiry, a TDF decaying to a zero hit probability, a conflict
//! winner that flips with time, a quarantine that comes and goes, and an
//! engine with aging inflation (which must never re-weight). Every case
//! that can re-weight asserts `fusion.cache.reweights > 0`, so the
//! oracle cannot pass without exercising the path.

mod reference;

use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationQuery, LocationService};
use mw_fusion::FusionEngine;
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

const OBJECTS: &[&str] = &["alice", "bob", "carol"];
const SENSORS: &[&str] = &["Ubi-2", "RF-1", "Ubi-1", "Bio-1"];

fn universe() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0))
}

fn room(i: usize) -> Rect {
    let x0 = i as f64 * 50.0;
    Rect::new(Point::new(x0, 0.0), Point::new(x0 + 50.0, 100.0))
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
        db.insert_object(SpatialObject::new(
            format!("R{i}"),
            "CS/Floor3".parse().unwrap(),
            ObjectType::Room,
            Geometry::Polygon(Polygon::from_rect(&room(i))),
        ))
        .unwrap();
    }
    db
}

/// A reading with everything a re-weight depends on spelled out.
struct Spec {
    sensor: &'static str,
    object: &'static str,
    region: Rect,
    spec: SensorSpec,
    tdf: TemporalDegradation,
    at: f64,
    ttl: f64,
}

impl Spec {
    fn reading(&self) -> SensorReading {
        SensorReading {
            sensor_id: self.sensor.into(),
            spec: self.spec,
            object: self.object.into(),
            glob_prefix: "CS/Floor3".parse().unwrap(),
            region: self.region,
            detected_at: SimTime::from_secs(self.at),
            time_to_live: SimDuration::from_secs(self.ttl),
            tdf: self.tdf.clone(),
            moving: false,
        }
    }
}

fn cell(center: Point, side: f64) -> Rect {
    Rect::from_center(center, side, side)
}

fn linear(lifetime: f64) -> TemporalDegradation {
    TemporalDegradation::Linear {
        lifetime: SimDuration::from_secs(lifetime),
    }
}

fn half_life(secs: f64) -> TemporalDegradation {
    TemporalDegradation::ExponentialHalfLife {
        half_life: SimDuration::from_secs(secs),
    }
}

/// The service under test, its registry,
/// and the model, fed identical inputs.
struct Twin {
    service: Arc<LocationService>,
    registry: MetricsRegistry,
    model: Reference,
    _broker: Broker,
}

impl Twin {
    fn new() -> Twin {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let service = LocationService::new_with_obs(floor_db(), universe(), &broker, &registry);
        Twin {
            service,
            registry,
            model: Reference::new(&floor_db(), universe()),
            _broker: broker,
        }
    }

    fn with_engine(engine: FusionEngine) -> Twin {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let service = LocationService::new_with_engine_and_obs(
            floor_db(),
            engine.clone(),
            &broker,
            &registry,
        );
        Twin {
            service,
            registry,
            model: Reference::new(&floor_db(), universe()).with_engine(engine),
            _broker: broker,
        }
    }

    fn supervised() -> Twin {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let supervisor = SensorSupervisor::new(HealthConfig::new(universe())).shared();
        let service =
            LocationService::new_supervised(floor_db(), universe(), &broker, &registry, supervisor);
        Twin {
            service,
            registry,
            model: Reference::new(&floor_db(), universe())
                .supervised(HealthConfig::new(universe())),
            _broker: broker,
        }
    }

    fn ingest(&mut self, output: AdapterOutput, now: f64) {
        let now = SimTime::from_secs(now);
        self.model.ingest(&output, now);
        self.service.ingest(output, now);
    }

    fn ingest_all(&mut self, specs: &[Spec], now: f64) {
        for spec in specs {
            self.ingest(AdapterOutput::single(spec.reading()), now);
        }
    }

    /// Every answer the object has at `now` — the fix, then each room's
    /// probability, each asked twice (a fresh instant re-weights or
    /// fuses; the repeat is an exact hit) — equal to the model's.
    /// Returns the fix.
    fn ask(&mut self, object: &str, now: f64) -> Result<Answer, TestCaseError> {
        let now = SimTime::from_secs(now);
        let fix = self.model.locate(object, now);
        for _ in 0..2 {
            let got = Answer::of(self.service.query(LocationQuery::of(object).at(now)));
            prop_assert_eq!(&got, &fix, "fix of {} at {:?}", object, now);
        }
        for i in 0..10 {
            let expected = self.model.query_rect(object, room(i), now);
            for _ in 0..2 {
                let q = LocationQuery::of(object).in_rect(room(i)).at(now);
                let got = Answer::of(self.service.query(q));
                prop_assert_eq!(&got, &expected, "room {} of {} at {:?}", i, object, now);
            }
        }
        Ok(fix)
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.snapshot().counter(name).unwrap_or(0)
    }

    fn reweights(&self) -> u64 {
        self.counter("fusion.cache.reweights")
    }
}

/// The estimate's probability, for asserting that the clock moved it.
fn probability(answer: &Answer) -> f64 {
    match answer {
        Answer::Fix(fix, _) => fix.probability,
        other => panic!("expected a fix, got {other:?}"),
    }
}

#[test]
fn ttl_expiry_between_instants() {
    let mut twin = Twin::new();
    twin.ingest_all(
        &[
            Spec {
                sensor: "Ubi-1",
                object: "alice",
                region: cell(Point::new(120.0, 40.0), 2.0),
                spec: SensorSpec::ubisense(1.0),
                tdf: half_life(4.0),
                at: 0.0,
                ttl: 5.0,
            },
            Spec {
                sensor: "RF-1",
                object: "alice",
                region: cell(Point::new(121.0, 41.0), 20.0),
                spec: SensorSpec::rfid_badge(1.0),
                tdf: linear(60.0),
                at: 0.0,
                ttl: 1e6,
            },
        ],
        0.0,
    );
    let early = twin.ask("alice", 1.0).unwrap();
    for now in [2.0, 4.5, 5.0, 5.5, 9.0, 3.0] {
        twin.ask("alice", now).unwrap();
    }
    assert_ne!(
        probability(&early),
        probability(&twin.ask("alice", 9.0).unwrap())
    );
    assert!(twin.reweights() > 0, "no re-weight exercised");
}

#[test]
fn tdf_decaying_to_zero_hit_probability() {
    let mut twin = Twin::new();
    twin.ingest_all(
        &[
            Spec {
                sensor: "Ubi-1",
                object: "alice",
                region: cell(Point::new(220.0, 60.0), 2.0),
                spec: SensorSpec::ubisense(1.0),
                tdf: linear(10.0),
                at: 0.0,
                ttl: 1e6,
            },
            Spec {
                sensor: "Bio-1",
                object: "alice",
                region: cell(Point::new(221.0, 60.0), 6.0),
                spec: SensorSpec::biometric_short_term(),
                tdf: half_life(30.0),
                at: 0.0,
                ttl: 1e6,
            },
        ],
        0.0,
    );
    for now in [1.0, 5.0, 9.5, 10.0, 10.5, 12.0, 2.0] {
        twin.ask("alice", now).unwrap();
    }
    assert!(twin.reweights() > 0, "no re-weight exercised");
}

#[test]
fn conflict_winner_flips_with_time() {
    // Two disjoint components: the strong but fast-decaying Ubisense cell
    // wins early, the slow-decaying badge late (§4.1.2 rule 2).
    let mut twin = Twin::new();
    twin.ingest_all(
        &[
            Spec {
                sensor: "Ubi-1",
                object: "bob",
                region: cell(Point::new(30.0, 30.0), 2.0),
                spec: SensorSpec::ubisense(1.0),
                tdf: linear(20.0),
                at: 0.0,
                ttl: 1e6,
            },
            Spec {
                sensor: "RF-1",
                object: "bob",
                region: cell(Point::new(420.0, 70.0), 2.0),
                spec: SensorSpec::rfid_badge(1.0),
                tdf: linear(90.0),
                at: 0.0,
                ttl: 1e6,
            },
        ],
        0.0,
    );
    let region = |answer: &Answer| match answer {
        Answer::Fix(fix, _) => fix.region,
        other => panic!("expected a fix, got {other:?}"),
    };
    let early = twin.ask("bob", 1.0).unwrap();
    for now in [2.0, 10.0, 17.0, 18.5, 19.0] {
        twin.ask("bob", now).unwrap();
    }
    let late = twin.ask("bob", 19.5).unwrap();
    assert_ne!(region(&early), region(&late), "the winner did not flip");
    // Back in time: the early winner again.
    assert_eq!(region(&twin.ask("bob", 1.5).unwrap()), region(&early));
    assert!(twin.reweights() > 0, "no re-weight exercised");
}

#[test]
fn quarantine_toggles_between_instants() {
    let mut twin = Twin::supervised();
    // Ubisense declares a 1 s period; Bio-1 none, so only Ubi-1 can go
    // stale. The two cells overlap: no conflict feedback.
    twin.ingest_all(
        &[
            Spec {
                sensor: "Ubi-1",
                object: "alice",
                region: cell(Point::new(320.0, 50.0), 2.0),
                spec: SensorSpec::ubisense(1.0),
                tdf: half_life(40.0),
                at: 1.0,
                ttl: 1e6,
            },
            Spec {
                sensor: "Bio-1",
                object: "alice",
                region: cell(Point::new(320.5, 50.0), 6.0),
                spec: SensorSpec::biometric_short_term(),
                tdf: linear(300.0),
                at: 1.0,
                ttl: 1e6,
            },
        ],
        1.0,
    );
    for now in [2.0, 3.0, 4.0] {
        twin.ask("alice", now).unwrap();
    }
    let healthy = twin.reweights();
    assert!(healthy > 0, "no re-weight before the quarantine");

    // Another object's reading ticks the watchdog: Ubi-1 has missed
    // five 3 s windows (two to degrade, three more to quarantine) and is
    // quarantined. Alice's epoch does not move. She is asked at t = 20
    // on both sides of the transition: only the excluded-sensor key
    // tells the two answers apart.
    let full = twin.ask("alice", 20.0).unwrap();
    assert!(matches!(full, Answer::Fix(_, mw_core::AnswerQuality::Full)));
    let bystander = |sensor: &'static str, at: f64| Spec {
        sensor,
        object: "carol",
        region: cell(Point::new(70.0, 50.0), 4.0),
        spec: SensorSpec::biometric_short_term(),
        tdf: TemporalDegradation::None,
        at,
        ttl: 1e6,
    };
    twin.ingest_all(&[bystander("Bio-2", 20.0)], 20.0);
    let probe_at = {
        let supervisor = twin.service.supervisor().expect("supervised");
        let guard = supervisor.lock().unwrap();
        assert!(guard.is_quarantined(&"Ubi-1".into()));
        guard.next_probe_at(&"Ubi-1".into()).expect("quarantined")
    };
    for now in [20.0, 21.0, 22.0] {
        let partial = twin.ask("alice", now).unwrap();
        assert!(matches!(
            partial,
            Answer::Fix(_, mw_core::AnswerQuality::Partial)
        ));
    }
    assert!(twin.reweights() > healthy, "no re-weight under quarantine");

    // A pristine Ubi-1 reading about carol after the probe opens lifts
    // the quarantine; alice's readings are untouched again.
    let recovered_at = probe_at.as_secs() + 1.0;
    let partial = twin.ask("alice", recovered_at).unwrap();
    assert!(matches!(
        partial,
        Answer::Fix(_, mw_core::AnswerQuality::Partial)
    ));
    twin.ingest(
        AdapterOutput::single(
            Spec {
                spec: SensorSpec::ubisense(1.0),
                ..bystander("Ubi-1", recovered_at)
            }
            .reading(),
        ),
        recovered_at,
    );
    let quarantined = twin.reweights();
    for dt in [0.0, 1.0, 2.0] {
        let full = twin.ask("alice", recovered_at + dt).unwrap();
        assert!(matches!(full, Answer::Fix(_, mw_core::AnswerQuality::Full)));
    }
    assert!(
        twin.reweights() > quarantined,
        "no re-weight after recovery"
    );
}

#[test]
fn aging_inflation_never_reweights() {
    let engine = FusionEngine::new(universe()).with_aging_inflation(4.0);
    let mut twin = Twin::with_engine(engine);
    twin.ingest_all(
        &[Spec {
            sensor: "Ubi-1",
            object: "alice",
            region: cell(Point::new(262.0, 50.0), 2.0),
            spec: SensorSpec::ubisense(1.0),
            tdf: half_life(20.0),
            at: 0.0,
            ttl: 1e6,
        }],
        0.0,
    );
    for now in [1.0, 2.0, 5.0, 3.0] {
        twin.ask("alice", now).unwrap();
    }
    assert_eq!(twin.reweights(), 0, "inflated regions move with the clock");
    assert!(twin.counter("fusion.cache.misses") > 0);
}

/// One step of a random schedule: mostly queries at a moving clock,
/// with an occasional ingest or revocation.
#[derive(Debug, Clone)]
enum Op {
    Ingest {
        sensor: usize,
        object: usize,
        center: Point,
        side: f64,
        tdf: usize,
        ttl: f64,
    },
    Revoke {
        sensor: usize,
        object: usize,
    },
    /// Query `object` at the current clock plus `dt` (which may be
    /// negative: answers at earlier instants must match too).
    Ask {
        object: usize,
        dt: f64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (
        0..10usize,
        (0..SENSORS.len(), 0..OBJECTS.len(), 0..4usize),
        (2.0..498.0f64, 2.0..98.0f64),
        (1.0..30.0f64, 2.0..30.0f64),
        -3.0..6.0f64,
    )
        .prop_map(
            |(kind, (sensor, object, tdf), (x, y), (side, ttl), dt)| match kind {
                0 | 1 => Op::Ingest {
                    sensor,
                    object,
                    center: Point::new(x, y),
                    side,
                    tdf,
                    ttl: if tdf == 0 { 1e6 } else { ttl },
                },
                2 => Op::Revoke { sensor, object },
                _ => Op::Ask { object, dt },
            },
        )
}

fn random_reading(
    sensor: usize,
    object: usize,
    center: Point,
    side: f64,
    tdf: usize,
    ttl: f64,
    at: f64,
) -> SensorReading {
    let spec = match sensor {
        0 | 2 => SensorSpec::ubisense(1.0),
        1 => SensorSpec::rfid_badge(0.9),
        _ => SensorSpec::biometric_short_term(),
    };
    SensorReading {
        sensor_id: SENSORS[sensor].into(),
        spec,
        object: OBJECTS[object].into(),
        glob_prefix: "CS/Floor3".parse().unwrap(),
        region: cell(center, side),
        detected_at: SimTime::from_secs(at),
        time_to_live: SimDuration::from_secs(ttl),
        tdf: match tdf {
            0 => TemporalDegradation::None,
            1 => linear(ttl * 0.8),
            2 => half_life(ttl / 3.0),
            _ => linear(ttl * 2.0),
        },
        moving: sensor == 0 && tdf == 3,
    }
}

/// Random schedules against the model; re-weights are summed over
/// every case and must be positive.
#[test]
fn random_schedules_match_a_fresh_fuse() {
    let config = ProptestConfig::with_cases(48);
    let mut reweights = 0u64;
    proptest::run_proptest(&config, "random_schedules_match_a_fresh_fuse", |rng| {
        let ops = proptest::collection::vec(op(), 1..60).generate(rng);
        let mut twin = Twin::new();
        let mut clock = 0.0f64;
        for op in &ops {
            match *op {
                Op::Ingest {
                    sensor,
                    object,
                    center,
                    side,
                    tdf,
                    ttl,
                } => {
                    clock += 0.5;
                    let r = random_reading(sensor, object, center, side, tdf, ttl, clock);
                    twin.ingest(AdapterOutput::single(r), clock);
                }
                Op::Revoke { sensor, object } => {
                    clock += 0.5;
                    let out = AdapterOutput {
                        readings: vec![],
                        revocations: vec![Revocation {
                            sensor_id: SENSORS[sensor].into(),
                            object: OBJECTS[object].into(),
                        }],
                    };
                    twin.ingest(out, clock);
                }
                Op::Ask { object, dt } => {
                    twin.ask(OBJECTS[object], (clock + dt).max(0.0))?;
                    clock += dt.max(0.0);
                }
            }
        }
        reweights += twin.reweights();
        Ok(())
    });
    assert!(reweights > 0, "no re-weight in any random schedule");
}
