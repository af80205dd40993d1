//! Snapshot-consistency stress for the locked per-object state
//! (`DESIGN.md` §10): N reader threads spin on `query()` while a writer
//! ingests generation-tagged batches, and every answer must correspond
//! to **exactly one** ingested generation — no torn reads — and never
//! to one older than the last batch that had completed when the query
//! began (a batch is applied under one write lock, so readers
//! serialize with it).
//!
//! The generation tag is embedded in the value: batch `g` writes two
//! agreeing sensor readings whose shared 2×2 rectangle encodes `g` in
//! its center (`x` carries `g mod 10` as the room column, `y` carries
//! `g mod 3` as the row band — coprime moduli, so the pair decodes
//! `g mod 30`). A reader that observed a *mix* of generations — one
//! sensor's reading from `g`, the other's from `g-1` — would fuse two
//! disjoint rectangles and produce a fix that matches no single
//! generation's precomputed expectation, exactly (`==` on `f64`s).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mw_bus::Broker;
use mw_core::{LocationFix, LocationQuery, LocationService};
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_sensors::{AdapterOutput, SensorReading, SensorSpec};
use mw_spatial_db::{Geometry, ObjectType, SpatialDatabase, SpatialObject};

const OBJECT: &str = "alice";
const SENSORS: [&str; 2] = ["Stress-A", "Stress-B"];
/// Distinct decodable generations: lcm(10, 3).
const RESIDUES: u64 = 30;
const GENERATIONS: u64 = 240;
const READERS: usize = 4;

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

/// The center encoding generation `g`: room column from `g mod 10`,
/// row band from `g mod 3`. Consecutive generations land in different
/// rooms, so mixed-generation readings are geometrically disjoint.
fn center_of(g: u64) -> Point {
    let col = (g % 10) as f64;
    let row = (g % 3) as f64;
    Point::new(col * 50.0 + 25.0, row * 20.0 + 20.0)
}

fn reading_of(sensor: &str, g: u64) -> SensorReading {
    SensorReading {
        sensor_id: sensor.into(),
        spec: SensorSpec::ubisense(1.0),
        object: OBJECT.into(),
        glob_prefix: "CS/Floor3".parse().unwrap(),
        region: Rect::from_center(center_of(g), 2.0, 2.0),
        detected_at: SimTime::ZERO,
        time_to_live: SimDuration::from_secs(1e6),
        tdf: TemporalDegradation::None,
        moving: false,
    }
}

/// The batch that publishes generation `g`: both sensors agree on the
/// same rectangle, superseding their previous reports.
fn batch_of(g: u64) -> Vec<AdapterOutput> {
    SENSORS
        .iter()
        .map(|sensor| AdapterOutput::single(reading_of(sensor, g)))
        .collect()
}

fn service() -> Arc<LocationService> {
    let broker = Broker::new();
    LocationService::new(floor_db(), universe(), &broker)
}

/// The exact fix each generation must produce, computed on a quiet
/// service (supersedes leave only generation `r`'s two readings live,
/// so ingesting residues in order reproduces every reachable state).
fn expected_fixes(now: SimTime) -> Vec<LocationFix> {
    let scratch = service();
    let mut expected = Vec::new();
    for r in 0..RESIDUES {
        scratch.ingest_batch(batch_of(r), SimTime::ZERO);
        expected.push(scratch.locate(&OBJECT.into(), now).unwrap());
    }
    // Decoding relies on the 30 expectations being pairwise distinct.
    for (i, a) in expected.iter().enumerate() {
        for b in expected.iter().skip(i + 1) {
            assert!(a != b, "expected fixes must be distinct per residue");
        }
    }
    expected
}

/// Every observed fix must equal exactly one generation's expectation,
/// and (via the published-counter window) a generation the writer could
/// have exposed at that instant.
#[test]
fn locked_readers_never_observe_torn_or_overly_stale_state() {
    let now = SimTime::from_secs(1.0);
    let expected = Arc::new(expected_fixes(now));
    let service = service();
    // Completed publishes, stamped after each ingest_batch returns.
    let published = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut answers = 0u64;
                // Check-after-read so every reader completes at least
                // one pass even on single-core schedules.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let before = published.load(Ordering::Acquire);
                    let outcome = service.query(LocationQuery::of(OBJECT).at(now));
                    let after = published.load(Ordering::Acquire);
                    match outcome {
                        Err(_) => {
                            // Only legal before the first publish
                            // completed (the writer may be mid-flight).
                            assert_eq!(before, 0, "query failed after {before} publishes");
                        }
                        Ok(answer) => {
                            let fix = answer.fix().expect("Fix target answers with a fix");
                            // Exactly one published generation: the fix
                            // must be byte-identical to a precomputed
                            // expectation — a torn fuse over mixed
                            // generations matches none.
                            let residue =
                                expected.iter().position(|e| e == fix).unwrap_or_else(|| {
                                    panic!("torn read: {fix:?} matches no generation")
                                }) as u64;
                            // Staleness bound: some generation in
                            // [before, after + 1] (completed before the
                            // query began, up to the batch that may
                            // have been applied but not yet counted)
                            // carries this residue. Windows narrower
                            // than 30 generations make this a real
                            // constraint.
                            let low = before.max(1);
                            let high = after + 1;
                            assert!(
                                (low..=high).any(|g| g % RESIDUES == residue),
                                "fix generation {residue} (mod {RESIDUES}) outside \
                                 the published window [{low}, {high}]"
                            );
                            answers += 1;
                        }
                    }
                    if finished {
                        break;
                    }
                }
                answers
            })
        })
        .collect();
    for g in 1..=GENERATIONS {
        service.ingest_batch(batch_of(g), SimTime::ZERO);
        published.store(g, Ordering::Release);
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        let answers = reader.join().expect("reader panicked");
        assert!(answers > 0, "a reader never completed a query");
    }
    // Quiescent end state: the final generation, exactly.
    let final_fix = service.locate(&OBJECT.into(), now).unwrap();
    assert_eq!(
        &final_fix,
        &expected[(GENERATIONS % RESIDUES) as usize],
        "final state must be the last published generation"
    );
}
