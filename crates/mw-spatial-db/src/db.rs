use std::borrow::Borrow;

use mw_geometry::{Point, Rect};
use mw_model::SimTime;
use mw_sensors::{MobileObjectId, SensorId, SensorReading};

use crate::{
    DbError, SensorMetaRow, SensorMetaTable, SensorReadingTable, SpatialObject, SpatialTable,
    TriggerEvent, TriggerId, TriggerManager, TriggerSpec,
};

/// The complete spatial database (§5): physical-space table, sensor
/// tables and trigger engine behind one façade.
///
/// This is the PostGIS/PostgreSQL stand-in. All mutating operations go
/// through `&mut self`; the Location Service in `mw-core` wraps the
/// database in a lock for concurrent use.
///
/// # Example
///
/// ```
/// use mw_geometry::{Point, Rect};
/// use mw_spatial_db::{SpatialDatabase, TriggerSpec};
///
/// let mut db = SpatialDatabase::new();
/// let trigger = db.register_trigger(TriggerSpec {
///     region: Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
///     object: None,
/// });
/// assert!(db.trigger_spec(trigger).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialDatabase {
    objects: SpatialTable,
    readings: SensorReadingTable,
    sensor_meta: SensorMetaTable,
    triggers: TriggerManager,
    metrics: Option<DbMetrics>,
}

/// Metric handles for the static side of the database, resolved once at
/// [`SpatialDatabase::bind_metrics`] time; the reading counters live on
/// the [`SensorReadingTable`] (names under `db.*`, see `DESIGN.md` §8).
#[derive(Debug, Clone)]
struct DbMetrics {
    triggers_fired: mw_obs::Counter,
    objects: mw_obs::Gauge,
}

impl SpatialDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        SpatialDatabase::default()
    }

    /// Publishes database metrics (`db.*`: reading insert/revoke/prune
    /// counters, live-reading query counts, trigger firings, object
    /// gauge) to `registry`. Unmeasured until called.
    pub fn bind_metrics(&mut self, registry: &mw_obs::MetricsRegistry) {
        self.readings.bind_metrics(registry);
        let metrics = DbMetrics {
            triggers_fired: registry.counter("db.triggers_fired"),
            objects: registry.gauge("db.objects"),
        };
        #[allow(clippy::cast_precision_loss)]
        metrics.objects.set(self.objects.len() as f64);
        self.metrics = Some(metrics);
    }

    // --- physical space -------------------------------------------------

    /// Inserts a spatial object (a Table 1 row).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::DuplicateObject`] when the combined key exists.
    pub fn insert_object(&mut self, object: SpatialObject) -> Result<(), DbError> {
        self.objects.insert(object)?;
        if let Some(metrics) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            metrics.objects.set(self.objects.len() as f64);
        }
        Ok(())
    }

    /// Removes a spatial object by combined key.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownObject`] when the key does not exist.
    pub fn remove_object(&mut self, key: &str) -> Result<SpatialObject, DbError> {
        let removed = self.objects.remove(key)?;
        if let Some(metrics) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            metrics.objects.set(self.objects.len() as f64);
        }
        Ok(removed)
    }

    /// Read access to the physical-space table.
    #[must_use]
    pub fn objects(&self) -> &SpatialTable {
        &self.objects
    }

    /// The innermost named region containing `p` (room before floor).
    #[must_use]
    pub fn enclosing_region(&self, p: Point) -> Option<&SpatialObject> {
        self.objects.enclosing_region(p)
    }

    // --- sensor readings -------------------------------------------------

    /// Inserts a sensor reading, firing any matching database triggers.
    /// Returns the fired events.
    pub fn insert_reading(&mut self, reading: SensorReading, now: SimTime) -> Vec<TriggerEvent> {
        let events = self.triggers.on_insert(&reading, now);
        self.readings.insert(reading);
        if let Some(metrics) = &self.metrics {
            metrics.triggers_fired.add(events.len() as u64);
        }
        events
    }

    /// Revokes all readings from `sensor` about `object` (logout
    /// semantics). Returns how many rows were dropped.
    pub fn revoke_readings(&mut self, sensor: &SensorId, object: &MobileObjectId) -> usize {
        self.readings.revoke(sensor, object)
    }

    /// Read access to the sensor-reading table.
    #[must_use]
    pub fn readings(&self) -> &SensorReadingTable {
        &self.readings
    }

    /// Mutable access to the sensor-reading table. Bypasses triggers —
    /// meant for bulk migration of readings between stores (e.g. into
    /// the Location Service's own table), not for normal ingest.
    pub fn readings_mut(&mut self) -> &mut SensorReadingTable {
        &mut self.readings
    }

    /// Prunes expired readings.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        self.readings.prune_expired(now)
    }

    // --- sensor metadata ---------------------------------------------------

    /// Registers or updates a sensor's metadata row.
    pub fn upsert_sensor_meta(&mut self, row: SensorMetaRow) {
        self.sensor_meta.upsert(row);
    }

    /// Read access to the sensor metadata table.
    #[must_use]
    pub fn sensor_meta(&self) -> &SensorMetaTable {
        &self.sensor_meta
    }

    // --- triggers ---------------------------------------------------------

    /// Registers a database trigger; returns its id.
    pub fn register_trigger(&mut self, spec: TriggerSpec) -> TriggerId {
        self.triggers.register(spec)
    }

    /// Unregisters a trigger.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTrigger`] when the id does not exist.
    pub fn unregister_trigger(&mut self, id: TriggerId) -> Result<(), DbError> {
        self.triggers.unregister(id)
    }

    /// The spec of a registered trigger.
    #[must_use]
    pub fn trigger_spec(&self, id: TriggerId) -> Option<&TriggerSpec> {
        self.triggers.get(id)
    }

    /// Number of registered triggers.
    #[must_use]
    pub fn trigger_count(&self) -> usize {
        self.triggers.len()
    }

    /// All live readings about one object at `now`, in sensor-id order
    /// (the fusion input). Counts one `db.live_queries`.
    #[must_use]
    pub fn live_readings_for(&self, object: &MobileObjectId, now: SimTime) -> Vec<SensorReading> {
        self.readings
            .rows_for(object)
            .iter()
            .map(Borrow::borrow)
            .filter(|r: &&SensorReading| !r.is_expired(now))
            .cloned()
            .collect()
    }

    /// The MBR of everything known about the physical space — a sensible
    /// default for the fusion universe when the floor outline is absent.
    #[must_use]
    pub fn world_mbr(&self) -> Option<Rect> {
        let mut rects = self.objects.iter().map(|o| o.mbr());
        let first = rects.next()?;
        Some(rects.fold(first, |acc, r| acc.union(&r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Geometry, ObjectType};
    use mw_geometry::Polygon;
    use mw_model::{SimDuration, TemporalDegradation};
    use mw_sensors::SensorSpec;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn reading(object: &str, region: Rect, at: f64) -> SensorReading {
        SensorReading {
            sensor_id: "Ubi-18".into(),
            spec: SensorSpec::ubisense(0.9),
            object: object.into(),
            glob_prefix: "SC/Floor3".parse().unwrap(),
            region,
            detected_at: SimTime::from_secs(at),
            time_to_live: SimDuration::from_secs(10.0),
            tdf: TemporalDegradation::None,
            moving: false,
        }
    }

    fn db_with_floor() -> SpatialDatabase {
        let mut db = SpatialDatabase::new();
        db.insert_object(SpatialObject::new(
            "Floor3",
            "CS".parse().unwrap(),
            ObjectType::Floor,
            Geometry::Polygon(Polygon::from_rect(&r(0.0, 0.0, 500.0, 100.0))),
        ))
        .unwrap();
        db.insert_object(SpatialObject::new(
            "3105",
            "CS/Floor3".parse().unwrap(),
            ObjectType::Room,
            Geometry::Polygon(Polygon::from_rect(&r(330.0, 0.0, 350.0, 30.0))),
        ))
        .unwrap();
        db
    }

    #[test]
    fn reading_insert_fires_trigger() {
        let mut db = db_with_floor();
        let id = db.register_trigger(TriggerSpec {
            region: r(330.0, 0.0, 350.0, 30.0),
            object: Some("alice".into()),
        });
        let events = db.insert_reading(
            reading("alice", r(340.0, 10.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trigger, id);
        // Readings are stored.
        assert_eq!(db.readings().len(), 1);
    }

    #[test]
    fn metrics_track_database_operations() {
        let registry = mw_obs::MetricsRegistry::new();
        let mut db = db_with_floor();
        db.bind_metrics(&registry);
        assert_eq!(registry.snapshot().gauge("db.objects"), Some(2.0));

        db.register_trigger(TriggerSpec {
            region: r(330.0, 0.0, 350.0, 30.0),
            object: Some("alice".into()),
        });
        db.insert_reading(
            reading("alice", r(340.0, 10.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        db.insert_reading(reading("bob", r(5.0, 5.0, 6.0, 6.0), 0.0), SimTime::ZERO);
        let _ = db.live_readings_for(&"alice".into(), SimTime::from_secs(1.0));
        let revoked = db.revoke_readings(&"Ubi-18".into(), &"bob".into());
        assert_eq!(revoked, 1);
        let pruned = db.prune_expired(SimTime::from_secs(20.0));
        assert_eq!(pruned, 1);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("db.readings_inserted"), Some(2));
        assert_eq!(snap.counter("db.triggers_fired"), Some(1));
        assert_eq!(snap.counter("db.live_queries"), Some(1));
        assert_eq!(snap.counter("db.readings_revoked"), Some(1));
        assert_eq!(snap.counter("db.readings_pruned"), Some(1));
    }

    #[test]
    fn world_mbr_covers_objects() {
        let db = db_with_floor();
        assert_eq!(db.world_mbr().unwrap(), r(0.0, 0.0, 500.0, 100.0));
        assert!(SpatialDatabase::new().world_mbr().is_none());
    }

    #[test]
    fn live_readings_for_object() {
        let mut db = db_with_floor();
        db.insert_reading(reading("alice", r(1.0, 1.0, 2.0, 2.0), 0.0), SimTime::ZERO);
        db.insert_reading(reading("bob", r(5.0, 5.0, 6.0, 6.0), 0.0), SimTime::ZERO);
        let live = db.live_readings_for(&"alice".into(), SimTime::from_secs(1.0));
        assert_eq!(live.len(), 1);
        // After expiry, none.
        let stale = db.live_readings_for(&"alice".into(), SimTime::from_secs(20.0));
        assert!(stale.is_empty());
    }

    #[test]
    fn revocation_and_pruning() {
        let mut db = db_with_floor();
        db.insert_reading(reading("alice", r(1.0, 1.0, 2.0, 2.0), 0.0), SimTime::ZERO);
        assert_eq!(db.revoke_readings(&"Ubi-18".into(), &"alice".into()), 1);
        db.insert_reading(reading("alice", r(1.0, 1.0, 2.0, 2.0), 0.0), SimTime::ZERO);
        assert_eq!(db.prune_expired(SimTime::from_secs(100.0)), 1);
    }

    #[test]
    fn enclosing_region_lookup() {
        let db = db_with_floor();
        assert_eq!(
            db.enclosing_region(Point::new(340.0, 10.0))
                .unwrap()
                .identifier,
            "3105"
        );
    }

    #[test]
    fn sensor_meta_roundtrip() {
        let mut db = SpatialDatabase::new();
        db.upsert_sensor_meta(SensorMetaRow {
            sensor_id: "RF-12".into(),
            confidence_percent: 72.0,
            time_to_live: SimDuration::from_secs(60.0),
        });
        assert_eq!(
            db.sensor_meta()
                .get(&"RF-12".into())
                .unwrap()
                .confidence_percent,
            72.0
        );
    }

    #[test]
    fn trigger_lifecycle() {
        let mut db = SpatialDatabase::new();
        let id = db.register_trigger(TriggerSpec {
            region: r(0.0, 0.0, 1.0, 1.0),
            object: None,
        });
        assert_eq!(db.trigger_count(), 1);
        assert!(db.trigger_spec(id).is_some());
        db.unregister_trigger(id).unwrap();
        assert_eq!(db.trigger_count(), 0);
    }

    #[test]
    fn object_lifecycle() {
        let mut db = db_with_floor();
        assert_eq!(db.objects().len(), 2);
        let removed = db.remove_object("CS/Floor3:3105").unwrap();
        assert_eq!(removed.identifier, "3105");
        assert!(db.remove_object("CS/Floor3:3105").is_err());
    }
}
