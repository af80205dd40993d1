use std::borrow::Borrow;
use std::collections::HashMap;

use mw_model::{SimDuration, SimTime};
use mw_sensors::{MobileObjectId, SensorId, SensorReading};

/// The sensor-information table of §5.2 (Table 2).
///
/// "Sensor information is stored in a separate table in the spatial
/// database. … The table contains temporal information indicating the
/// time when the sensor reading was obtained."
///
/// The table keeps the latest reading per `(sensor, mobile object)` pair —
/// a fresh report from the same sensor supersedes its previous one — and
/// prunes expired rows lazily.
///
/// Storage is keyed by object: the fusion hot path asks "all live
/// readings about *this* object" once per ingest, and revocation names
/// one `(sensor, object)` pair, so both must cost the handful of
/// readings that object actually has — not a scan of every tracked
/// object in the shard (`DESIGN.md` §14). Rows are boxed: a
/// `SensorReading` is ~230 bytes inline and containers over-allocate
/// (a `Vec`'s first push reserves capacity 4 for elements this size,
/// so an unboxed single-reading object would hold ~930 bytes), so
/// storing thin pointers keeps the table's resident cost near the
/// payload itself — the city-scale bytes-per-tracked-object budget is
/// dominated by exactly this table.
///
/// The table owns the `db.*` reading counters (`DESIGN.md` §8), so a
/// [`crate::SpatialDatabase`] and the Location Service's bare table count alike.
#[derive(Debug, Clone, Default)]
pub struct SensorReadingTable {
    #[allow(clippy::vec_box)] // thin rows: see capacity note above
    rows: HashMap<MobileObjectId, Vec<Box<SensorReading>>>,
    len: usize,
    metrics: Option<ReadingMetrics>,
}

/// Counter handles resolved once at [`SensorReadingTable::bind_metrics`].
#[derive(Debug, Clone)]
struct ReadingMetrics {
    inserted: mw_obs::Counter,
    revoked: mw_obs::Counter,
    pruned: mw_obs::Counter,
    live_queries: mw_obs::Counter,
}

impl SensorReadingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        SensorReadingTable::default()
    }

    /// Publishes `db.readings_inserted`, `db.readings_revoked`,
    /// `db.readings_pruned` and `db.live_queries` to `registry`. Rows
    /// inserted before this call are never counted.
    pub fn bind_metrics(&mut self, registry: &mw_obs::MetricsRegistry) {
        self.metrics = Some(ReadingMetrics {
            inserted: registry.counter("db.readings_inserted"),
            revoked: registry.counter("db.readings_revoked"),
            pruned: registry.counter("db.readings_pruned"),
            live_queries: registry.counter("db.live_queries"),
        });
    }

    /// Number of stored readings (including possibly expired ones not yet
    /// pruned).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no readings are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a reading, superseding the previous reading of the same
    /// `(sensor, object)` pair in place. Returns the superseded reading,
    /// if any.
    ///
    /// Each object's rows are kept in sensor-id order (a binary search
    /// finds the row or its slot), so [`SensorReadingTable::rows_for`]
    /// hands fusion one order whatever the insert/revoke history:
    /// conflict resolution breaks probability ties by position.
    /// `revoke` and `prune_expired` only remove rows, which keeps the
    /// order.
    pub fn insert(&mut self, reading: SensorReading) -> Option<SensorReading> {
        if let Some(metrics) = &self.metrics {
            metrics.inserted.inc();
        }
        let per_object = self.rows.entry(reading.object.clone()).or_default();
        match per_object.binary_search_by(|r| r.sensor_id.cmp(&reading.sensor_id)) {
            Ok(at) => Some(std::mem::replace(&mut *per_object[at], reading)),
            Err(at) => {
                per_object.insert(at, Box::new(reading));
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns every stored reading (expired rows included) —
    /// used to migrate a pre-populated table into the service's own table.
    pub fn drain(&mut self) -> Vec<SensorReading> {
        self.len = 0;
        self.rows
            .drain()
            .flat_map(|(_, per_object)| per_object)
            .map(|r| *r)
            .collect()
    }

    /// Drops all readings from `sensor` about `object` — the §6 logout
    /// revocation ("forces all location information relating to that user
    /// and obtained from the same device to expire immediately").
    ///
    /// Returns how many rows were dropped.
    pub fn revoke(&mut self, sensor: &SensorId, object: &MobileObjectId) -> usize {
        let Some(per_object) = self.rows.get_mut(object) else {
            return 0;
        };
        let before = per_object.len();
        per_object.retain(|r| r.sensor_id != *sensor);
        let dropped = before - per_object.len();
        if per_object.is_empty() {
            self.rows.remove(object);
        }
        self.len -= dropped;
        if let Some(metrics) = &self.metrics {
            metrics.revoked.add(dropped as u64);
        }
        dropped
    }

    /// All live (unexpired) readings about `object` at `now`.
    pub fn readings_for<'a>(
        &'a self,
        object: &'a MobileObjectId,
        now: SimTime,
    ) -> impl Iterator<Item = &'a SensorReading> {
        self.rows
            .get(object)
            .into_iter()
            .flatten()
            .map(|r| &**r)
            .filter(move |r| !r.is_expired(now))
    }

    /// Every stored row about `object`, expired-but-unpruned rows
    /// included, in sensor-id order — the fusion input, borrowed in
    /// place (`FusionEngine::fuse_excluding` drops expired rows itself).
    /// Counts one `db.live_queries`.
    #[must_use]
    pub fn rows_for(&self, object: &MobileObjectId) -> &[impl Borrow<SensorReading>] {
        if let Some(metrics) = &self.metrics {
            metrics.live_queries.inc();
        }
        self.rows.get(object).map_or(&[], Vec::as_slice)
    }

    /// All live readings at `now`, any object.
    pub fn live_readings(&self, now: SimTime) -> impl Iterator<Item = &SensorReading> {
        self.rows
            .values()
            .flatten()
            .map(|r| &**r)
            .filter(move |r| !r.is_expired(now))
    }

    /// Every stored row grouped by object, expired-but-unpruned rows
    /// included, in unspecified object order — the read-only view a
    /// derived index is built from.
    pub fn stored_by_object(
        &self,
    ) -> impl Iterator<Item = (&MobileObjectId, impl Iterator<Item = &SensorReading>)> {
        self.rows
            .iter()
            .map(|(object, per_object)| (object, per_object.iter().map(|r| &**r)))
    }

    /// The distinct objects with at least one live reading at `now`.
    #[must_use]
    pub fn tracked_objects(&self, now: SimTime) -> Vec<MobileObjectId> {
        let mut out: Vec<MobileObjectId> = self
            .rows
            .iter()
            .filter(|(_, per_object)| per_object.iter().any(|r| !r.is_expired(now)))
            .map(|(object, _)| object.clone())
            .collect();
        out.sort();
        out
    }

    /// Removes expired rows; returns how many were pruned.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        let before = self.len;
        for per_object in self.rows.values_mut() {
            per_object.retain(|r| !r.is_expired(now));
        }
        self.rows.retain(|_, per_object| !per_object.is_empty());
        self.len = self.rows.values().map(Vec::len).sum();
        if let Some(metrics) = &self.metrics {
            metrics.pruned.add((before - self.len) as u64);
        }
        before - self.len
    }
}

/// One row of the per-sensor metadata table of §5.2: "This table contains
/// the confidence with which a sensor can detect the location of an
/// object and the time-to-live information of the sensor data."
#[derive(Debug, Clone, PartialEq)]
pub struct SensorMetaRow {
    /// The sensor.
    pub sensor_id: SensorId,
    /// Empirical confidence, in percent (e.g. 72 for RF-12 in the paper).
    pub confidence_percent: f64,
    /// Reading time-to-live.
    pub time_to_live: SimDuration,
}

/// The per-sensor metadata table (§5.2's second table).
#[derive(Debug, Clone, Default)]
pub struct SensorMetaTable {
    rows: HashMap<SensorId, SensorMetaRow>,
}

impl SensorMetaTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        SensorMetaTable::default()
    }

    /// Inserts or updates a sensor's metadata.
    pub fn upsert(&mut self, row: SensorMetaRow) {
        self.rows.insert(row.sensor_id.clone(), row);
    }

    /// Looks up a sensor's metadata.
    #[must_use]
    pub fn get(&self, sensor: &SensorId) -> Option<&SensorMetaRow> {
        self.rows.get(sensor)
    }

    /// Number of registered sensors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when no sensors are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over all rows in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &SensorMetaRow> {
        self.rows.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_geometry::{Point, Rect};
    use mw_model::TemporalDegradation;
    use mw_sensors::SensorSpec;

    fn reading(sensor: &str, object: &str, at: f64, ttl: f64) -> SensorReading {
        SensorReading {
            sensor_id: sensor.into(),
            spec: SensorSpec::ubisense(0.9),
            object: object.into(),
            glob_prefix: "SC/Floor3".parse().unwrap(),
            region: Rect::from_center(Point::new(10.0, 10.0), 1.0, 1.0),
            detected_at: SimTime::from_secs(at),
            time_to_live: SimDuration::from_secs(ttl),
            tdf: TemporalDegradation::None,
            moving: false,
        }
    }

    #[test]
    fn insert_supersedes_same_pair() {
        let mut t = SensorReadingTable::new();
        assert!(t.insert(reading("Ubi-18", "alice", 0.0, 3.0)).is_none());
        let old = t.insert(reading("Ubi-18", "alice", 1.0, 3.0)).unwrap();
        assert_eq!(old.detected_at, SimTime::from_secs(0.0));
        assert_eq!(t.len(), 1);
        // Different sensor, same object: separate row.
        t.insert(reading("RF-12", "alice", 1.0, 60.0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn readings_for_filters_expired() {
        let mut t = SensorReadingTable::new();
        t.insert(reading("Ubi-18", "alice", 0.0, 3.0));
        t.insert(reading("RF-12", "alice", 0.0, 60.0));
        t.insert(reading("RF-12", "bob", 0.0, 60.0));
        let alice: MobileObjectId = "alice".into();
        let at5: Vec<_> = t.readings_for(&alice, SimTime::from_secs(5.0)).collect();
        assert_eq!(at5.len(), 1); // Ubisense expired
        assert_eq!(at5[0].sensor_id, "RF-12".into());
        let at1: Vec<_> = t.readings_for(&alice, SimTime::from_secs(1.0)).collect();
        assert_eq!(at1.len(), 2);
    }

    #[test]
    fn revoke_drops_pair_only() {
        let mut t = SensorReadingTable::new();
        t.insert(reading("Fp-3", "alice", 0.0, 900.0));
        t.insert(reading("RF-12", "alice", 0.0, 60.0));
        t.insert(reading("Fp-3", "bob", 0.0, 900.0));
        assert_eq!(t.revoke(&"Fp-3".into(), &"alice".into()), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.revoke(&"Fp-3".into(), &"alice".into()), 0);
    }

    #[test]
    fn tracked_objects_dedupes() {
        let mut t = SensorReadingTable::new();
        t.insert(reading("Ubi-18", "alice", 0.0, 100.0));
        t.insert(reading("RF-12", "alice", 0.0, 100.0));
        t.insert(reading("RF-12", "bob", 0.0, 100.0));
        let objs = t.tracked_objects(SimTime::from_secs(1.0));
        assert_eq!(objs.len(), 2);
    }

    #[test]
    fn stored_by_object_includes_expired_rows() {
        let mut t = SensorReadingTable::new();
        t.insert(reading("Ubi-18", "alice", 0.0, 3.0));
        t.insert(reading("RF-12", "alice", 0.0, 60.0));
        t.insert(reading("RF-12", "bob", 0.0, 60.0));
        let mut seen: Vec<(String, usize)> = t
            .stored_by_object()
            .map(|(object, rows)| (object.to_string(), rows.count()))
            .collect();
        seen.sort();
        assert_eq!(seen, vec![("alice".to_string(), 2), ("bob".to_string(), 1)]);
        assert!(t.tracked_objects(SimTime::from_secs(100.0)).is_empty());
    }

    #[test]
    fn prune_expired() {
        let mut t = SensorReadingTable::new();
        t.insert(reading("Ubi-18", "alice", 0.0, 3.0));
        t.insert(reading("RF-12", "alice", 0.0, 60.0));
        assert_eq!(t.prune_expired(SimTime::from_secs(10.0)), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.prune_expired(SimTime::from_secs(10.0)), 0);
    }

    #[test]
    fn meta_table_matches_paper_rows() {
        // The paper's sample: RF-12 (72%, 60 s), Ubisense-18 (93%, 3 s).
        let mut t = SensorMetaTable::new();
        t.upsert(SensorMetaRow {
            sensor_id: "RF-12".into(),
            confidence_percent: 72.0,
            time_to_live: SimDuration::from_secs(60.0),
        });
        t.upsert(SensorMetaRow {
            sensor_id: "Ubisense-18".into(),
            confidence_percent: 93.0,
            time_to_live: SimDuration::from_secs(3.0),
        });
        assert_eq!(t.len(), 2);
        let rf = t.get(&"RF-12".into()).unwrap();
        assert_eq!(rf.confidence_percent, 72.0);
        assert_eq!(rf.time_to_live, SimDuration::from_secs(60.0));
        assert!(t.get(&"Gps-1".into()).is_none());
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn upsert_overwrites() {
        let mut t = SensorMetaTable::new();
        t.upsert(SensorMetaRow {
            sensor_id: "RF-12".into(),
            confidence_percent: 72.0,
            time_to_live: SimDuration::from_secs(60.0),
        });
        t.upsert(SensorMetaRow {
            sensor_id: "RF-12".into(),
            confidence_percent: 80.0,
            time_to_live: SimDuration::from_secs(30.0),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&"RF-12".into()).unwrap().confidence_percent, 80.0);
    }
}
