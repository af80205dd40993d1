//! Property-based tests for the spatial database.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashSet};

use mw_fusion::FusionEngine;
use mw_geometry::{Point, Polygon, Rect};
use mw_model::{SimDuration, SimTime, TemporalDegradation};
use mw_sensors::{MobileObjectId, SensorReading, SensorSpec};
use mw_spatial_db::{
    Geometry, ObjectType, SensorReadingTable, SpatialObject, SpatialTable, TriggerManager,
    TriggerSpec,
};
use proptest::prelude::*;

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (0.0..450.0f64, 0.0..80.0f64, 1.0..50.0f64, 1.0..20.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
}

fn reading(object: &str, region: Rect, at: f64, ttl: f64) -> SensorReading {
    SensorReading {
        sensor_id: "S".into(),
        spec: SensorSpec::ubisense(0.9),
        object: object.into(),
        glob_prefix: "CS/Floor3".parse().unwrap(),
        region,
        detected_at: SimTime::from_secs(at),
        time_to_live: SimDuration::from_secs(ttl),
        tdf: TemporalDegradation::None,
        moving: false,
    }
}

proptest! {
    #[test]
    fn window_queries_match_linear_scan(
        rects in proptest::collection::vec(rect_strategy(), 1..40),
        window in rect_strategy(),
    ) {
        let mut table = SpatialTable::new();
        for (i, r) in rects.iter().enumerate() {
            table
                .insert(SpatialObject::new(
                    format!("obj{i}"),
                    "CS/Floor3".parse().unwrap(),
                    ObjectType::Room,
                    Geometry::Polygon(Polygon::from_rect(r)),
                ))
                .unwrap();
        }
        let mut from_index: Vec<String> = table
            .objects_in_window(&window)
            .map(|o| o.identifier.clone())
            .collect();
        let mut from_scan: Vec<String> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| format!("obj{i}"))
            .collect();
        from_index.sort();
        from_scan.sort();
        prop_assert_eq!(from_index, from_scan);
    }

    #[test]
    fn point_queries_respect_exact_geometry(
        rects in proptest::collection::vec(rect_strategy(), 1..20),
        px in 0.0..500.0f64,
        py in 0.0..100.0f64,
    ) {
        let p = Point::new(px, py);
        let mut table = SpatialTable::new();
        for (i, r) in rects.iter().enumerate() {
            table
                .insert(SpatialObject::new(
                    format!("obj{i}"),
                    "CS/Floor3".parse().unwrap(),
                    ObjectType::Room,
                    Geometry::Polygon(Polygon::from_rect(r)),
                ))
                .unwrap();
        }
        let hits = table.objects_at_point(p).count();
        let expected = rects.iter().filter(|r| r.contains_point(p)).count();
        prop_assert_eq!(hits, expected);
    }

    #[test]
    fn enclosing_region_is_smallest_container(
        rects in proptest::collection::vec(rect_strategy(), 1..15),
        px in 0.0..500.0f64,
        py in 0.0..100.0f64,
    ) {
        let p = Point::new(px, py);
        let mut table = SpatialTable::new();
        for (i, r) in rects.iter().enumerate() {
            table
                .insert(SpatialObject::new(
                    format!("obj{i}"),
                    "CS/Floor3".parse().unwrap(),
                    ObjectType::Room,
                    Geometry::Polygon(Polygon::from_rect(r)),
                ))
                .unwrap();
        }
        let enclosing = table.enclosing_region(p);
        let best = rects
            .iter()
            .filter(|r| r.contains_point(p))
            .map(|r| r.area())
            .fold(f64::INFINITY, f64::min);
        match enclosing {
            Some(obj) => prop_assert!((obj.mbr().area() - best).abs() < 1e-9),
            None => prop_assert!(best.is_infinite()),
        }
    }

    #[test]
    fn triggers_fire_iff_intersecting(
        trigger_rects in proptest::collection::vec(rect_strategy(), 1..30),
        reading_rect in rect_strategy(),
    ) {
        let mut manager = TriggerManager::new();
        for r in &trigger_rects {
            manager.register(TriggerSpec {
                region: *r,
                object: None,
            });
        }
        let fired = manager.on_insert(&reading("alice", reading_rect, 0.0, 10.0), SimTime::ZERO);
        let expected = trigger_rects
            .iter()
            .filter(|r| r.intersects(&reading_rect))
            .count();
        prop_assert_eq!(fired.len(), expected);
    }

    #[test]
    fn reading_table_keeps_latest_per_pair(
        times in proptest::collection::vec(0.0..100.0f64, 1..20),
    ) {
        let mut table = SensorReadingTable::new();
        for &t in &times {
            table.insert(reading("alice", Rect::from_center(Point::new(10.0, 10.0), 2.0, 2.0), t, 1000.0));
        }
        prop_assert_eq!(table.len(), 1);
        let alice: mw_sensors::MobileObjectId = "alice".into();
        let stored: Vec<&SensorReading> = table
            .readings_for(&alice, SimTime::from_secs(100.0))
            .collect();
        prop_assert_eq!(stored.len(), 1);
        prop_assert_eq!(stored[0].detected_at, SimTime::from_secs(*times.last().unwrap()));
    }

    #[test]
    fn prune_removes_exactly_expired(
        ttls in proptest::collection::vec(1.0..100.0f64, 1..20),
        now in 0.0..150.0f64,
    ) {
        let mut table = SensorReadingTable::new();
        for (i, &ttl) in ttls.iter().enumerate() {
            let mut r = reading(&format!("p{i}"), Rect::from_center(Point::new(5.0, 5.0), 1.0, 1.0), 0.0, ttl);
            r.sensor_id = format!("S{i}").as_str().into();
            table.insert(r);
        }
        let now_t = SimTime::from_secs(now);
        let expected_live = ttls.iter().filter(|&&ttl| now <= ttl).count();
        prop_assert_eq!(table.live_readings(now_t).count(), expected_live);
        let pruned = table.prune_expired(now_t);
        prop_assert_eq!(pruned, ttls.len() - expected_live);
        prop_assert_eq!(table.len(), expected_live);
    }
}

/// Sensor ids deliberately out of sorted order, so arrival order and
/// sensor-id order differ.
const ROW_SENSORS: &[&str] = &["Ubi-2", "RF-1", "Ubi-10", "Bio-3", "Ubi-1"];
const ROW_OBJECTS: &[&str] = &["alice", "bob"];

/// One step of a reading-table history.
#[derive(Debug, Clone)]
enum RowOp {
    Insert {
        sensor: usize,
        object: usize,
        room: usize,
        at: f64,
        ttl: f64,
    },
    Revoke {
        sensor: usize,
        object: usize,
    },
    Prune {
        at: f64,
    },
}

fn row_op() -> impl Strategy<Value = RowOp> {
    (
        0..6usize,
        0..ROW_SENSORS.len(),
        0..ROW_OBJECTS.len(),
        0..4usize,
        (0.0..60.0f64, 1.0..40.0f64),
    )
        .prop_map(|(kind, sensor, object, room, (at, ttl))| match kind {
            0..=3 => RowOp::Insert {
                sensor,
                object,
                room,
                at,
                ttl,
            },
            4 => RowOp::Revoke { sensor, object },
            _ => RowOp::Prune { at },
        })
}

/// A reading in one of four disjoint 2×2 cells, all with the same
/// spec: two cells are two conflicting components of equal posterior,
/// so conflict resolution breaks the tie by row position.
fn row_reading(sensor: usize, object: usize, room: usize, at: f64, ttl: f64) -> SensorReading {
    SensorReading {
        sensor_id: ROW_SENSORS[sensor].into(),
        spec: SensorSpec::ubisense(1.0),
        object: ROW_OBJECTS[object].into(),
        glob_prefix: "CS/Floor3".parse().unwrap(),
        region: Rect::from_center(Point::new(20.0 + room as f64 * 100.0, 50.0), 2.0, 2.0),
        detected_at: SimTime::from_secs(at),
        time_to_live: SimDuration::from_secs(ttl),
        tdf: TemporalDegradation::None,
        moving: false,
    }
}

proptest! {
    /// The table keeps each object's rows in sensor-id order through any
    /// insert / supersede / revoke / prune history — exactly the order
    /// the old table produced by sorting its history-ordered rows on
    /// every read — and fusing the rows in place equals fusing that
    /// sorted copy.
    #[test]
    fn rows_stay_in_sort_on_read_order(ops in proptest::collection::vec(row_op(), 1..40)) {
        let mut table = SensorReadingTable::new();
        // The model: rows in insert/revoke history order (push, or
        // supersede in place), sorted by sensor id only when read.
        let mut model: BTreeMap<&str, Vec<SensorReading>> = BTreeMap::new();
        let engine = FusionEngine::new(Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 100.0)));
        let no_exclusions = HashSet::new();
        for op in &ops {
            match *op {
                RowOp::Insert { sensor, object, room, at, ttl } => {
                    let r = row_reading(sensor, object, room, at, ttl);
                    let rows = model.entry(ROW_OBJECTS[object]).or_default();
                    match rows.iter_mut().find(|m| m.sensor_id == r.sensor_id) {
                        Some(slot) => *slot = r.clone(),
                        None => rows.push(r.clone()),
                    }
                    table.insert(r);
                }
                RowOp::Revoke { sensor, object } => {
                    let sensor_id = ROW_SENSORS[sensor].into();
                    if let Some(rows) = model.get_mut(ROW_OBJECTS[object]) {
                        rows.retain(|m| m.sensor_id != sensor_id);
                    }
                    table.revoke(&sensor_id, &ROW_OBJECTS[object].into());
                }
                RowOp::Prune { at } => {
                    let now = SimTime::from_secs(at);
                    for rows in model.values_mut() {
                        rows.retain(|m| !m.is_expired(now));
                    }
                    table.prune_expired(now);
                }
            }
            for object in ROW_OBJECTS {
                let mut sorted = model.get(object).cloned().unwrap_or_default();
                sorted.sort_by(|a, b| a.sensor_id.cmp(&b.sensor_id));
                let id: MobileObjectId = (*object).into();
                let rows: Vec<SensorReading> = table
                    .rows_for(&id)
                    .iter()
                    .map(|r| Borrow::<SensorReading>::borrow(r).clone())
                    .collect();
                prop_assert_eq!(&rows, &sorted, "rows of {} after {:?}", object, op);
                for at in [0.0, 20.0, 45.0] {
                    let now = SimTime::from_secs(at);
                    let live: Vec<SensorReading> =
                        sorted.iter().filter(|r| !r.is_expired(now)).cloned().collect();
                    let in_place = engine.fuse_excluding(table.rows_for(&id), now, &no_exclusions);
                    prop_assert_eq!(
                        format!("{in_place:?}"),
                        format!("{:?}", engine.fuse(&live, now)),
                        "fuse of {} at {}", object, at
                    );
                }
            }
        }
    }
}
