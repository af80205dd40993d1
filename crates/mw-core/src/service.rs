// Allocation audit (DESIGN.md §14). Id types are `Arc<str>`-backed and
// ingest canonicalizes them through the service interner, so every
// `SensorId`/`MobileObjectId` `.clone()` below is a refcount bump, not
// a string allocation. The `.to_string()` conversions that remain are
// deliberate boundary conversions — error payloads (`CoreError` carries
// owned `String`s for bus serialization), GLOB rendering for the world
// model, and `LocationResponse::Error` — none on the per-reading hot
// path. Don't "fix" them into borrowed forms: they cross an ownership
// boundary (bus frame, error value) that must outlive the guard the
// borrow would come from.
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mw_bus::{Broker, Publisher};
use mw_fusion::{BandThresholds, Estimate, FusionEngine, FusionResult, SharedFusion};
use mw_geometry::Rect;
use mw_model::{Confidence, SimDuration, SimTime, TemporalDegradation};
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, MobileObjectId, SensorId, SensorReading, SharedSupervisor};
use mw_spatial_db::{SensorReadingTable, SpatialDatabase, SpatialObject};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::grid::InterestGrid;
use crate::relations::{self, CoLocation, ObjectRelation, RegionRelation};
use crate::rules::{EvalInput, EvalScratch, FastMap, ObjectEvaluation, RuleEngine};
use crate::symbolic::SymbolicLattice;
use crate::world::WorldModel;
use crate::{
    AnswerQuality, CoreError, DeliveryPolicy, LocationFix, LocationQuery, Notification,
    QueryAnswer, QueryTarget, Rule, SubscriptionId, SubscriptionSpec, SubscriptionSpecBuilder,
    LOCATION_SERVICE_NAME, NOTIFICATION_TOPIC,
};

/// A [`Notification`] as published on the bus topic: one shared
/// allocation fanned out to every subscriber instead of a deep clone
/// per subscriber. On the wire (TCP bridges) it serializes identically
/// to a plain [`Notification`], so remote subscribers may keep
/// deserializing either shape.
pub type SharedNotification = Arc<Notification>;

/// One cached fusion pass. An exact hit needs every key field to
/// match; an entry with the same epoch and `excluded_key` but another
/// `now` can still be re-weighted to the new instant
/// ([`FusionEngine::reweight`]). Anything else is a full fuse, and the
/// entry is overwritten by the next store.
#[derive(Debug)]
struct CachedFusion {
    /// The object's reading-set epoch when this was computed.
    epoch: u64,
    /// Exact query time. Keying on the exact time (not a coarse bucket)
    /// keeps cached answers bit-identical to fresh fusion — temporal
    /// degradation and freshness-window (TTL) expiry depend continuously
    /// on `now`, so any other `now` must re-weight or recompute.
    now: SimTime,
    /// Fingerprint of the supervisor's excluded-sensor set, so a
    /// quarantine transition between queries invalidates by key.
    excluded_key: u64,
    /// The live view `result` was fused from, as a mask over the
    /// object's rows (`None` past 64 rows: never re-weighted). The rows
    /// change only in [`Shard::apply_ops`], which bumps the epoch, so
    /// under an equal epoch the same bits name the same readings.
    live_mask: Option<u64>,
    result: Arc<FusionResult>,
    /// [`Fused::total`] and [`Fused::used`], as `u32` so the boxed entry
    /// (one per cached object) stays at 56 bytes with the mask.
    total: u32,
    used: u32,
}

/// How [`ShardState::fuse`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuseKind {
    /// The cached result, same instant.
    Hit,
    /// The cached result re-weighted to a new instant.
    Reweight,
    /// A full fuse of the object's rows.
    Full,
    /// A fuse for an id with no slot and no rows — never ingested (an
    /// unknown-id query, a `CoLocated` partner). Nothing is stored, so
    /// such queries intern nothing and cannot grow the slab.
    Untracked,
}

/// One fusion pass from [`ShardState::fuse`], with what a miss stores.
struct Fused {
    kind: FuseKind,
    result: Arc<FusionResult>,
    /// Live (unexpired) readings the table held for the object.
    total: usize,
    /// Of those, readings from non-excluded sensors.
    used: usize,
    /// The epoch the rows were read under.
    epoch: u64,
    live_mask: Option<u64>,
}

impl Fused {
    /// The cache entry this pass stores, keyed by the epoch it read.
    fn entry(&self, now: SimTime, excluded_key: u64) -> CachedFusion {
        CachedFusion {
            epoch: self.epoch,
            now,
            excluded_key,
            live_mask: self.live_mask,
            result: Arc::clone(&self.result),
            total: u32::try_from(self.total).expect("reading count overflow"),
            used: u32::try_from(self.used).expect("reading count overflow"),
        }
    }
}

/// The mutable, per-object service state: the §5.2 sensor-reading
/// table and everything an ingest or query touches for an object, behind
/// one lock.
///
/// Per-object bookkeeping is a struct-of-arrays slab (`DESIGN.md` §14):
/// object ids are interned to dense `u32` handles once, and each object
/// owns one slot in the vectors below — a `u64` epoch, a boxed
/// fusion-cache entry only while one is live, a boxed last-known-good
/// fix only when supervised. The only string-keyed lookup left on the
/// hot path is the interner's own read-locked hash probe.
#[derive(Debug)]
struct ShardState {
    /// The §5.2 sensor-reading table.
    readings: SensorReadingTable,
    /// Bumped once per op batch that mutates `readings`; the
    /// [`Occupancy`] snapshot is current exactly while its tag equals
    /// this.
    readings_version: u64,
    idents: Arc<crate::ident::Interner>,
    /// Identity handle → slot in the vectors below. Slots are allocated
    /// first-touch and never freed.
    index: FastMap<u32, u32>,
    /// Slot-indexed reading-set epochs: bumped on every ingest and
    /// revocation that touches the object. A bump orphans the cached
    /// fusion.
    epochs: Vec<u64>,
    /// Slot-indexed fusion-cache entries; boxed so an idle slot costs
    /// one pointer.
    caches: Vec<Option<Box<CachedFusion>>>,
    /// Slot-indexed last-known-good fixes; boxed like the caches.
    last_good: Vec<Option<Box<LocationFix>>>,
    /// Privacy depths, sparse: most objects never set one (§4.5).
    privacy: FastMap<u32, usize>,
}

impl ShardState {
    fn new(idents: Arc<crate::ident::Interner>) -> Self {
        ShardState {
            readings: SensorReadingTable::new(),
            readings_version: 0,
            idents,
            index: FastMap::default(),
            epochs: Vec::new(),
            caches: Vec::new(),
            last_good: Vec::new(),
            privacy: FastMap::default(),
        }
    }

    /// The object's slot, if it has one already.
    fn slot(&self, object: &MobileObjectId) -> Option<usize> {
        let handle = self.idents.get(object.as_str())?;
        self.index.get(&handle).map(|&s| s as usize)
    }

    /// The object's slot, allocating handle and slot on first touch.
    fn ensure_slot(&mut self, object: &MobileObjectId) -> usize {
        let handle = self.idents.intern(object.as_str());
        if let Some(&slot) = self.index.get(&handle) {
            return slot as usize;
        }
        let slot = self.epochs.len();
        self.epochs.push(0);
        self.caches.push(None);
        self.last_good.push(None);
        self.index
            .insert(handle, u32::try_from(slot).expect("slot overflow"));
        slot
    }

    /// Bumps the object's epoch (new evidence or revocation), dropping
    /// any cached fusion. Returns `true` when a cache entry was dropped.
    fn bump_epoch(&mut self, object: &MobileObjectId) -> bool {
        let slot = self.ensure_slot(object);
        self.epochs[slot] = self.epochs[slot].wrapping_add(1);
        self.caches[slot].take().is_some()
    }

    /// The object's reading-set epoch (0 if never seen).
    fn epoch_of(&self, object: &MobileObjectId) -> u64 {
        self.slot(object).map_or(0, |s| self.epochs[s])
    }

    /// The cache entry in `slot`, if it was fused from the object's
    /// current rows under the same excluded-sensor set (at any instant).
    fn cache_entry(&self, slot: usize, excluded_key: u64) -> Option<&CachedFusion> {
        self.caches[slot]
            .as_deref()
            .filter(|c| c.epoch == self.epochs[slot] && c.excluded_key == excluded_key)
    }

    /// One fusion pass over the object's rows at `now`, fused in place
    /// (the caller holds the read lock). In order: an exact cache hit; a
    /// re-weight of a same-epoch entry from another instant; a full
    /// fuse. Each miss reads the rows once (`db.live_queries`).
    fn fuse(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        excluded: &HashSet<SensorId>,
        excluded_key: u64,
        engine: &FusionEngine,
    ) -> Fused {
        // One slot lookup serves the epoch and the cache entry.
        let slot = self.slot(object);
        let epoch = slot.map_or(0, |s| self.epochs[s]);
        let entry = slot.and_then(|s| self.cache_entry(s, excluded_key));
        if let Some(c) = entry.filter(|c| c.now == now) {
            return Fused {
                kind: FuseKind::Hit,
                result: Arc::clone(&c.result),
                total: c.total as usize,
                used: c.used as usize,
                epoch,
                live_mask: c.live_mask,
            };
        }
        let rows = self.readings.rows_for(object);
        let (mut total, mut used) = (0, 0);
        for r in rows {
            let r: &SensorReading = r.borrow();
            if !r.is_expired(now) {
                total += 1;
                used += usize::from(!excluded.contains(&r.sensor_id));
            }
        }
        let reweighted = entry.and_then(|c| {
            let mask = c.live_mask?;
            engine
                .reweight(&c.result, mask, rows, now, excluded)
                .map(|result| (result, mask))
        });
        let (kind, result, live_mask) = match reweighted {
            Some((result, mask)) => (FuseKind::Reweight, result, Some(mask)),
            None => {
                let (result, mask) = engine.fuse_with_live_mask(rows, now, excluded);
                // Seeded rows have no slot yet: they are stored, and the
                // store allocates it.
                let kind = if slot.is_none() && rows.is_empty() {
                    FuseKind::Untracked
                } else {
                    FuseKind::Full
                };
                (kind, result, mask)
            }
        };
        Fused {
            kind,
            result: Arc::new(result),
            total,
            used,
            epoch,
            live_mask,
        }
    }

    /// Structural heap estimate of the per-object bookkeeping, feeding
    /// the `core.mem.bytes_per_object` gauge. O(1): capacity-based, so
    /// the per-batch gauge update never scans slots. Boxed cache /
    /// last-good payloads are not counted (they are transient between
    /// a query and the next ingest); readings and the interner are
    /// accounted separately by the caller.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.capacity() * (size_of::<u32>() * 2 + 1)
            + self.epochs.capacity() * size_of::<u64>()
            + self.caches.capacity() * size_of::<Option<Box<CachedFusion>>>()
            + self.last_good.capacity() * size_of::<Option<Box<LocationFix>>>()
            + self.privacy.capacity() * (size_of::<u32>() + size_of::<usize>() + 1)
    }
}

/// The per-object state: a single `RwLock` over the whole
/// [`ShardState`], plus its derived occupancy snapshot.
#[derive(Debug)]
struct Shard {
    state: RwLock<ShardState>,
    /// The derived region-query index, rebuilt lazily by
    /// [`Shard::region_candidates`]. Lock order: `state.read()`
    /// first, then this mutex — never the reverse.
    occupancy: Mutex<Option<Occupancy>>,
    /// `core.shard.contention` handle, bumped when the uncontended
    /// try-lock fast path fails and an access has to block.
    contention: Option<mw_obs::Counter>,
}

/// The derived occupancy snapshot (`DESIGN.md` §10, "Region
/// queries"): which objects hold a *stored* reading over which rect.
/// Never maintained — [`Occupancy::build`] is its only writer, and a
/// version mismatch throws the whole thing away.
#[derive(Debug)]
struct Occupancy {
    /// [`ShardState::readings_version`] this was built at.
    version: u64,
    /// Snapshot-local object ids → object.
    objects: Vec<MobileObjectId>,
    /// Grid payload → `(rect, object id)`: one entry per stored reading
    /// the pruning bound covers, and one `None` entry per object it
    /// does not (a decaying or `hit < false_positive` reading).
    entries: Vec<(Option<Rect>, u32)>,
    /// Cell → entries whose rect covers it; `None` entries are on the
    /// grid's always list.
    grid: InterestGrid<u32>,
}

impl Occupancy {
    fn build(readings: &SensorReadingTable, version: u64, universe_area: f64) -> Occupancy {
        let mut objects = Vec::new();
        let mut entries = Vec::new();
        let mut grid = InterestGrid::default();
        let next_entry = |entries: &Vec<_>| u32::try_from(entries.len()).expect("entry overflow");
        for (object, rows) in readings.stored_by_object() {
            let id = u32::try_from(objects.len()).expect("object overflow");
            objects.push(object.clone());
            let mut always = false;
            for r in rows {
                // The bound needs a constant `h ≥ q`: at age 0 an
                // undecaying reading shows the `h` it keeps for life.
                let bounded = r.tdf == TemporalDegradation::None
                    && r.hit_probability_at(r.detected_at)
                        >= r.false_positive_probability(universe_area);
                if bounded {
                    grid.insert(&r.region, next_entry(&entries));
                    entries.push((Some(r.region), id));
                } else {
                    always = true;
                }
            }
            if always {
                grid.insert_always(next_entry(&entries));
                entries.push((None, id));
            }
        }
        Occupancy {
            version,
            objects,
            entries,
            grid,
        }
    }
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        if let Some(guard) = self.state.try_read() {
            return guard;
        }
        if let Some(contention) = &self.contention {
            contention.inc();
        }
        self.state.read()
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        if let Some(guard) = self.state.try_write() {
            return guard;
        }
        if let Some(contention) = &self.contention {
            contention.inc();
        }
        self.state.write()
    }

    /// In id order, exactly the objects that hold a bounded stored
    /// reading overlapping `rect` with positive area, plus every object
    /// the pruning bound does not cover — the objects whose posterior
    /// for `rect` can exceed the prior share (see
    /// [`LocationService::objects_in_region`]). Rebuilds the snapshot
    /// first when the reading table has moved since its tag. Returns
    /// the candidates and the number of grid entries scanned.
    fn region_candidates(&self, rect: &Rect, universe_area: f64) -> (Vec<MobileObjectId>, usize) {
        let state = self.read();
        let mut slot = self.occupancy.lock();
        if slot
            .as_ref()
            .is_none_or(|o| o.version != state.readings_version)
        {
            // Free the stale snapshot before building its replacement,
            // so the two are never alive together.
            *slot = None;
            *slot = Some(Occupancy::build(
                &state.readings,
                state.readings_version,
                universe_area,
            ));
        }
        let occupancy = slot.as_ref().expect("built above");
        let mut hits = Vec::new();
        occupancy.grid.query_window(rect, &mut hits);
        // The bound's own test: cell membership alone is coarser.
        let mut ids: Vec<u32> = hits
            .iter()
            .filter_map(|&entry| {
                let (bounded, id) = occupancy.entries[entry as usize];
                bounded
                    .is_none_or(|r| r.intersection_area(rect) > 0.0)
                    .then_some(id)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut out: Vec<MobileObjectId> = ids
            .iter()
            .map(|&id| occupancy.objects[id as usize].clone())
            .collect();
        out.sort();
        (out, hits.len())
    }

    /// The object's privacy depth limit, if any (§4.5).
    fn privacy_of(&self, object: &MobileObjectId) -> Option<usize> {
        let state = self.read();
        let handle = state.idents.get(object.as_str())?;
        state.privacy.get(&handle).copied()
    }

    fn set_privacy(&self, object: &MobileObjectId, max_depth: usize) {
        let mut state = self.write();
        let handle = state.idents.intern(object.as_str());
        state.privacy.insert(handle, max_depth);
    }

    fn clear_privacy(&self, object: &MobileObjectId) {
        let mut state = self.write();
        if let Some(handle) = state.idents.get(object.as_str()) {
            state.privacy.remove(&handle);
        }
    }

    /// Stores a fusion result in the cache — only if no ingest raced
    /// past the epoch it was computed under (a stale entry would be a
    /// correctness bug, a skipped store merely a future miss).
    fn store_fusion(&self, object: &MobileObjectId, entry: CachedFusion) {
        let mut state = self.write();
        let slot = state.ensure_slot(object);
        if state.epochs[slot] == entry.epoch {
            state.caches[slot] = Some(Box::new(entry));
        }
    }

    fn last_good(&self, object: &MobileObjectId) -> Option<LocationFix> {
        let state = self.read();
        let slot = state.slot(object)?;
        state.last_good[slot].as_deref().cloned()
    }

    fn record_last_good(&self, object: &MobileObjectId, fix: LocationFix) {
        let mut state = self.write();
        let slot = state.ensure_slot(object);
        state.last_good[slot] = Some(Box::new(fix));
    }

    /// Applies one ingest batch's op queue, in order, under one write
    /// lock; returns how many cached fusions were invalidated. An empty
    /// queue leaves the table (and its snapshot version) untouched.
    fn apply_ops(&self, ops: Vec<ShardOp>) -> u64 {
        if ops.is_empty() {
            return 0;
        }
        let mut invalidated = 0u64;
        let mut state = self.write();
        state.readings_version += 1;
        for op in ops {
            let object = match op {
                ShardOp::Revoke(sensor, object) => {
                    state.readings.revoke(&sensor, &object);
                    object
                }
                ShardOp::Insert(reading) => {
                    let object = reading.object.clone();
                    state.readings.insert(reading);
                    object
                }
            };
            if state.bump_epoch(&object) {
                invalidated += 1;
            }
        }
        invalidated
    }

    /// Copies the live readings and last-known-good fixes out for a
    /// partition handoff snapshot.
    fn export_state(&self, now: SimTime) -> (Vec<SensorReading>, Vec<LocationFix>) {
        let state = self.read();
        (
            state.readings.live_readings(now).cloned().collect(),
            state
                .last_good
                .iter()
                .filter_map(|f| f.as_deref().cloned())
                .collect(),
        )
    }

    /// Bulk seed-reading migration at construction (no epoch bumps;
    /// uncounted, since construction binds metrics after it).
    fn seed_readings(&self, readings: Vec<SensorReading>) {
        if readings.is_empty() {
            return;
        }
        let mut state = self.write();
        state.readings_version += 1;
        for reading in readings {
            state.readings.insert(reading);
        }
    }
}

/// The derived static-world models, swapped together on mutation.
#[derive(Debug)]
struct WorldSnapshots {
    world: Arc<WorldModel>,
    symbolic: Arc<SymbolicLattice>,
}

/// Order-insensitive fingerprint of the excluded-sensor set for the
/// fusion-cache key (the empty set, "fuse everything", is key 0).
fn excluded_fingerprint(excluded: &HashSet<SensorId>) -> u64 {
    let mut combined = 0u64;
    for sensor in excluded {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        sensor.hash(&mut hasher);
        combined ^= hasher.finish();
    }
    combined
}

/// A serializable snapshot of one partition's per-object state — live
/// sensor readings plus last-known-good fixes — exchanged between
/// cluster nodes when a restarted partition fetches its state back from
/// the replica that covered for it (see
/// [`LocationService::export_partition_state`] /
/// [`LocationService::import_partition_state`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartitionState {
    /// Readings still live at export time, sorted by
    /// (object, sensor, detection time).
    pub readings: Vec<SensorReading>,
    /// Last-known-good fixes, sorted by object.
    pub last_good: Vec<LocationFix>,
}

impl PartitionState {
    /// `true` when the snapshot carries nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty() && self.last_good.is_empty()
    }
}

/// How a supervised service degrades when fusion has nothing to work
/// with: the last-known-good rung of the ladder
/// (see [`LocationService::new_supervised`]).
#[derive(Debug, Clone)]
pub struct DegradationPolicy {
    /// Temporal degradation applied to a cached fix's probability by its
    /// age when served as last-known-good.
    pub lkg_tdf: TemporalDegradation,
    /// ft/s by which a cached fix's region widens per second of age — a
    /// person keeps moving after the sensors stop reporting.
    pub lkg_inflation_ft_per_s: f64,
    /// A cached fix older than this is never served; the original error
    /// (e.g. [`CoreError::NoLocation`]) surfaces instead.
    pub lkg_max_age: SimDuration,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            lkg_tdf: TemporalDegradation::ExponentialHalfLife {
                half_life: SimDuration::from_secs(60.0),
            },
            lkg_inflation_ft_per_s: 4.0,
            lkg_max_age: SimDuration::from_secs(600.0),
        }
    }
}

/// Requests handled by the Location Service's bus endpoint (the pull
/// model of §7).
#[derive(Debug, Clone)]
pub enum LocationRequest {
    /// "Where is person X?" (object-based query).
    Locate {
        /// The object to locate.
        object: MobileObjectId,
        /// Evaluation time.
        now: SimTime,
    },
    /// "What is the probability that X is in region R?"
    RegionProbability {
        /// The object.
        object: MobileObjectId,
        /// The named region (a GLOB string known to the world model).
        region: String,
        /// Evaluation time.
        now: SimTime,
    },
    /// "Who are the people in room 3105?" (region-based query).
    ObjectsInRegion {
        /// The named region.
        region: String,
        /// Minimum probability to report.
        min_probability: f64,
        /// Evaluation time.
        now: SimTime,
    },
    /// Register a region-entry subscription remotely; notifications are
    /// delivered on [`NOTIFICATION_TOPIC`] (and across any TCP bridge
    /// exporting it).
    Subscribe {
        /// The named region to watch.
        region: String,
        /// Minimum probability to fire.
        min_probability: f64,
        /// Restrict to one object, or `None` for any.
        object: Option<MobileObjectId>,
    },
    /// Cancel a subscription by id.
    Unsubscribe {
        /// The subscription to cancel.
        id: SubscriptionId,
    },
}

/// Replies from the Location Service's bus endpoint.
#[derive(Debug, Clone)]
pub enum LocationResponse {
    /// Reply to [`LocationRequest::Locate`].
    Fix(Option<LocationFix>),
    /// Reply to [`LocationRequest::RegionProbability`].
    Probability(f64),
    /// Reply to [`LocationRequest::ObjectsInRegion`].
    Objects(Vec<(MobileObjectId, f64)>),
    /// Reply to [`LocationRequest::Subscribe`].
    Subscribed(SubscriptionId),
    /// Reply to [`LocationRequest::Unsubscribe`].
    Unsubscribed,
    /// The request failed.
    Error(String),
}

/// Handles on every `core.*` metric, resolved once at construction.
#[derive(Debug)]
struct CoreMetrics {
    registry: MetricsRegistry,
    ingest_latency: mw_obs::Histogram,
    ingest_readings: mw_obs::Counter,
    locate_latency: mw_obs::Histogram,
    query_latency: mw_obs::Histogram,
    query_count: mw_obs::Counter,
    match_latency: mw_obs::Histogram,
    notifications_published: mw_obs::Counter,
    notification_fanout: mw_obs::Counter,
    subscriptions_active: mw_obs::Gauge,
    cache_hits: mw_obs::Counter,
    cache_misses: mw_obs::Counter,
    cache_reweights: mw_obs::Counter,
    cache_invalidations: mw_obs::Counter,
    rules_dag_nodes: mw_obs::Gauge,
    rules_dag_groups: mw_obs::Gauge,
    rules_sharing_ratio: mw_obs::Gauge,
    rules_atoms: mw_obs::Counter,
    rules_eval_latency: mw_obs::Histogram,
    rules_candidates: mw_obs::Counter,
    rules_scanned: mw_obs::Counter,
    rules_selections: mw_obs::Counter,
    region_scanned: mw_obs::Counter,
    region_kept: mw_obs::Counter,
    objects_tracked: mw_obs::Gauge,
    mem_bytes_per_object: mw_obs::Gauge,
}

impl CoreMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        CoreMetrics {
            registry: registry.clone(),
            ingest_latency: registry.histogram("core.ingest.latency_us"),
            ingest_readings: registry.counter("core.ingest.readings"),
            locate_latency: registry.histogram("core.locate.latency_us"),
            query_latency: registry.histogram("core.query.latency_us"),
            query_count: registry.counter("core.query.count"),
            match_latency: registry.histogram("core.subscriptions.match_latency_us"),
            notifications_published: registry.counter("core.notifications.published"),
            notification_fanout: registry.counter("core.notifications.fanout"),
            subscriptions_active: registry.gauge("core.subscriptions.active"),
            cache_hits: registry.counter("fusion.cache.hits"),
            cache_misses: registry.counter("fusion.cache.misses"),
            cache_reweights: registry.counter("fusion.cache.reweights"),
            cache_invalidations: registry.counter("fusion.cache.invalidations"),
            rules_dag_nodes: registry.gauge("rules.dag.nodes"),
            rules_dag_groups: registry.gauge("rules.dag.groups"),
            rules_sharing_ratio: registry.gauge("rules.dag.sharing_ratio"),
            rules_atoms: registry.counter("rules.eval.atoms"),
            rules_eval_latency: registry.histogram("rules.eval.latency_us"),
            rules_candidates: registry.counter("rules.candidates.examined"),
            rules_scanned: registry.counter("rules.candidates.scanned"),
            rules_selections: registry.counter("rules.candidates.selections"),
            region_scanned: registry.counter("core.region.candidates.scanned"),
            region_kept: registry.counter("core.region.candidates.kept"),
            objects_tracked: registry.gauge("core.objects.tracked"),
            mem_bytes_per_object: registry.gauge("core.mem.bytes_per_object"),
        }
    }
}

/// The Location Service (§4): fusion, queries, notifications, spatial
/// relationships and privacy, over the spatial database and the bus.
///
/// Concurrency layout (see `DESIGN.md` §10): per-object state —
/// readings, last-known-good fixes, privacy, the fusion cache — sits
/// behind one lock, as the paper's one sensor-reading table (§5); the
/// static world (objects, sensor metadata, triggers) lives in a
/// read-mostly database whose derived models (`WorldModel`,
/// `SymbolicLattice`) are swapped as `Arc` snapshots on mutation.
#[derive(Debug)]
pub struct LocationService {
    /// The static tables: spatial objects, sensor metadata, triggers.
    /// Live readings are in `shard` (see [`ShardState`]).
    statics: RwLock<SpatialDatabase>,
    /// The derived world/symbolic snapshots. Readers clone the `Arc`s
    /// out; mutation swaps both pointers under one write lock instead of
    /// blocking readers mid-walk.
    world: RwLock<WorldSnapshots>,
    shard: Shard,
    engine: FusionEngine,
    /// The compiled subscription store (`DESIGN.md` §12): every
    /// subscription — rule or legacy spec — lives here as a trigger
    /// group over the interned predicate DAG.
    rules: RwLock<RuleEngine>,
    /// The identity table (`DESIGN.md` §14): object and sensor ids
    /// interned to dense handles at the ingest boundary; the compact
    /// slab and the rule engine's per-object edge state key by
    /// handle, and canonical `Arc<str>` allocations are shared by every
    /// reading and notification.
    idents: Arc<crate::ident::Interner>,
    /// Hit probabilities (`p_i`) of every sensor technology seen so far,
    /// with the band thresholds derived from them: §4.4 derives the
    /// low/medium/high/very-high band edges from "the accuracy of
    /// various sensors" deployed, not just the ones contributing to one
    /// reading. Re-derived only when a new accuracy registers.
    sensor_accuracies: RwLock<(Vec<f64>, BandThresholds)>,
    notifications: Publisher<SharedNotification>,
    metrics: Option<CoreMetrics>,
    /// Sensor supervision (quarantine, sanity gates, staleness
    /// watchdogs). `None` keeps the pre-supervision behaviour exactly.
    supervisor: Option<SharedSupervisor>,
    degradation: DegradationPolicy,
}

/// One queued mutation of the reading table, applied in arrival order.
enum ShardOp {
    Revoke(SensorId, MobileObjectId),
    Insert(SensorReading),
}

/// One fusion pass plus the bookkeeping the degradation ladder needs.
struct FuseAttempt {
    result: SharedFusion,
    /// Live readings the database held for the object.
    total: usize,
    /// Of those, readings from non-quarantined sensors.
    used: usize,
}

impl FuseAttempt {
    fn quality(&self) -> AnswerQuality {
        if self.used < self.total {
            AnswerQuality::Partial
        } else {
            AnswerQuality::Full
        }
    }
}

impl LocationService {
    /// Creates a service over `db`, fusing within `universe` (the whole
    /// floor area, `U` in the paper's equations), publishing notifications
    /// on `broker`'s [`NOTIFICATION_TOPIC`].
    #[must_use]
    pub fn new(db: SpatialDatabase, universe: Rect, broker: &Broker) -> Arc<Self> {
        Self::new_with_engine(db, FusionEngine::new(universe), broker)
    }

    /// Creates a service with a custom-configured fusion engine (e.g.
    /// with the aging motion model enabled via
    /// [`FusionEngine::with_aging_inflation`]).
    #[must_use]
    pub fn new_with_engine(
        db: SpatialDatabase,
        engine: FusionEngine,
        broker: &Broker,
    ) -> Arc<Self> {
        Self::build(db, engine, broker, None, None)
    }

    /// Creates an observable service: the database, fusion engine and the
    /// service itself publish their `db.*`, `fusion.*` and `core.*`
    /// metrics to `registry`, retrievable via
    /// [`metrics_registry`](LocationService::metrics_registry) or served
    /// over the bus with [`mw_bus::stats::serve_stats`].
    #[must_use]
    pub fn new_with_obs(
        db: SpatialDatabase,
        universe: Rect,
        broker: &Broker,
        registry: &MetricsRegistry,
    ) -> Arc<Self> {
        Self::new_with_engine_and_obs(db, FusionEngine::new(universe), broker, registry)
    }

    /// [`new_with_engine`](LocationService::new_with_engine) plus the
    /// observability wiring of
    /// [`new_with_obs`](LocationService::new_with_obs).
    #[must_use]
    pub fn new_with_engine_and_obs(
        db: SpatialDatabase,
        engine: FusionEngine,
        broker: &Broker,
        registry: &MetricsRegistry,
    ) -> Arc<Self> {
        Self::build(db, engine, broker, Some(registry), None)
    }

    /// Creates a *supervised* observable service: every ingested reading
    /// passes the supervisor's sanity gates, quarantined sensors are
    /// excluded from fusion, and `query` walks the degradation ladder
    /// (full fusion → partial fusion over surviving sensors →
    /// last-known-good fix with TDF-widened confidence), reporting the
    /// rung in [`QueryAnswer::quality`]. The supervisor publishes its
    /// `health.*` metrics to `registry`.
    #[must_use]
    pub fn new_supervised(
        db: SpatialDatabase,
        universe: Rect,
        broker: &Broker,
        registry: &MetricsRegistry,
        supervisor: SharedSupervisor,
    ) -> Arc<Self> {
        supervisor
            .lock()
            .expect("supervisor lock poisoned")
            .bind_metrics(registry);
        Self::build(
            db,
            FusionEngine::new(universe),
            broker,
            Some(registry),
            Some(supervisor),
        )
    }

    fn build(
        mut db: SpatialDatabase,
        mut engine: FusionEngine,
        broker: &Broker,
        registry: Option<&MetricsRegistry>,
        supervisor: Option<SharedSupervisor>,
    ) -> Arc<Self> {
        // One identity table for the whole service: object and sensor
        // ids interned at the ingest boundary, handles keying the
        // compact slab and the rule engine's edge state.
        let idents = Arc::new(crate::ident::Interner::new());
        let mut shard = Shard {
            state: RwLock::new(ShardState::new(Arc::clone(&idents))),
            occupancy: Mutex::new(None),
            contention: registry.map(|r| r.counter("core.shard.contention")),
        };
        // Any readings pre-loaded into the seed database migrate into
        // the table before metrics are bound, so seeds are not counted
        // as ingested.
        shard.seed_readings(db.readings_mut().drain());
        if let Some(registry) = registry {
            shard.state.get_mut().readings.bind_metrics(registry);
            db.bind_metrics(registry);
            engine.bind_metrics(registry);
        }
        let world = RwLock::new(WorldSnapshots {
            world: Arc::new(WorldModel::from_database(&db)),
            symbolic: Arc::new(SymbolicLattice::from_database(&db)),
        });
        Arc::new(LocationService {
            statics: RwLock::new(db),
            world,
            shard,
            engine,
            rules: RwLock::new(RuleEngine::new(Arc::clone(&idents))),
            idents,
            sensor_accuracies: RwLock::new((
                Vec::new(),
                BandThresholds::from_sensor_accuracies(&[]),
            )),
            notifications: broker.topic::<SharedNotification>(NOTIFICATION_TOPIC),
            metrics: registry.map(CoreMetrics::new),
            supervisor,
            degradation: DegradationPolicy::default(),
        })
    }

    /// The object's fusion-cache epoch: bumped on every ingest or
    /// revocation that touches the object, `0` if never seen. Exposed so
    /// equivalence tests can assert that twin services leave identical
    /// version state behind.
    #[must_use]
    pub fn object_epoch(&self, object: &MobileObjectId) -> u64 {
        self.shard.read().epoch_of(object)
    }

    /// Total live+stored readings in the sensor-reading table (the
    /// replacement for `with_db(|db| db.readings().len())`).
    #[must_use]
    pub fn reading_count(&self) -> usize {
        self.shard.read().readings.len()
    }

    /// Every object with at least one live reading at `now`, sorted.
    #[must_use]
    pub fn tracked_objects(&self, now: SimTime) -> Vec<MobileObjectId> {
        self.shard.read().readings.tracked_objects(now)
    }

    /// Overrides the last-known-good policy (supervised services only;
    /// harmless otherwise). Call right after construction, before
    /// queries flow.
    ///
    /// # Panics
    ///
    /// Panics when the service handle is already shared (construction
    /// returns the sole handle, so calling this first never panics).
    #[must_use]
    pub fn with_degradation_policy(self: Arc<Self>, policy: DegradationPolicy) -> Arc<Self> {
        let mut service = Arc::into_inner(self).expect("service handle already shared");
        service.degradation = policy;
        Arc::new(service)
    }

    /// The attached sensor supervisor, when constructed with
    /// [`new_supervised`](LocationService::new_supervised).
    #[must_use]
    pub fn supervisor(&self) -> Option<&SharedSupervisor> {
        self.supervisor.as_ref()
    }

    /// The metrics registry this service publishes to, when constructed
    /// with observability enabled.
    #[must_use]
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// The service's identity table (`DESIGN.md` §14): one handle per
    /// distinct object/sensor id admitted so far.
    #[must_use]
    pub fn interner(&self) -> &Arc<crate::ident::Interner> {
        &self.idents
    }

    /// Structural estimate of per-object heap bytes: slab bookkeeping
    /// plus the identity table, divided by the objects with state.
    /// The measured (allocator-level) figure lives in the bench
    /// harness; this gauge is the always-available approximation
    /// (readings themselves are accounted by `db.*`).
    #[must_use]
    pub fn estimated_bytes_per_object(&self) -> f64 {
        let (objects, state) = {
            let state = self.shard.read();
            (state.epochs.len(), state.heap_bytes())
        };
        if objects == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (state + self.idents.heap_bytes()) as f64 / objects as f64
        }
    }

    /// The fusion universe.
    #[must_use]
    pub fn universe(&self) -> Rect {
        self.engine.universe()
    }

    // --- world management -------------------------------------------------

    /// Adds a static object / region to the world model (§4's task 4–5:
    /// "Supports the creation of spatial regions … the addition of static
    /// objects").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Db`] when the object key already exists.
    pub fn add_object(&self, object: SpatialObject) -> Result<(), CoreError> {
        self.statics.write().insert_object(object)?;
        let db = self.statics.read();
        let rebuilt = WorldSnapshots {
            world: Arc::new(WorldModel::from_database(&db)),
            symbolic: Arc::new(SymbolicLattice::from_database(&db)),
        };
        drop(db);
        *self.world.write() = rebuilt;
        Ok(())
    }

    /// The current world-model snapshot (read-mostly: cloned `Arc`,
    /// never blocks mutators for longer than the pointer copy).
    fn world_snapshot(&self) -> Arc<WorldModel> {
        Arc::clone(&self.world.read().world)
    }

    fn symbolic_snapshot(&self) -> Arc<SymbolicLattice> {
        Arc::clone(&self.world.read().symbolic)
    }

    /// Defines an application-level symbolic region (§4's task 4 and
    /// §4.5's "East wing of the building"-style names). The last GLOB
    /// segment becomes the object identifier; `rect` is in building
    /// coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Db`] for duplicate names and
    /// [`CoreError::UnknownRegion`] for an empty GLOB.
    pub fn define_region(&self, glob: &mw_model::Glob, rect: Rect) -> Result<(), CoreError> {
        let Some(parent) = glob.parent() else {
            return Err(CoreError::UnknownRegion {
                name: glob.to_string(),
            });
        };
        let name = glob
            .last_segment()
            .ok_or_else(|| CoreError::UnknownRegion {
                name: glob.to_string(),
            })?
            .to_string();
        self.add_object(SpatialObject::new(
            name,
            parent,
            mw_spatial_db::ObjectType::NamedRegion,
            mw_spatial_db::Geometry::Polygon(mw_geometry::Polygon::from_rect(&rect)),
        ))
    }

    /// Runs `f` with read access to the symbolic region lattice (§4.5).
    pub fn with_symbolic_lattice<R>(&self, f: impl FnOnce(&SymbolicLattice) -> R) -> R {
        f(&self.symbolic_snapshot())
    }

    /// Every symbolic region containing the object's best estimate, most
    /// specific first — the §4.5 lattice walk. Respects the object's
    /// privacy granularity by dropping regions deeper than allowed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when the object has no live
    /// readings.
    pub fn symbolic_regions_of(
        &self,
        object: &MobileObjectId,
        now: SimTime,
    ) -> Result<Vec<mw_model::Glob>, CoreError> {
        let fix = self.locate(object, now)?;
        let chain = self.symbolic_snapshot().regions_for_rect(&fix.region);
        let max_depth = self.shard.privacy_of(object);
        Ok(match max_depth {
            Some(d) => chain.into_iter().filter(|g| g.depth() <= d).collect(),
            None => chain,
        })
    }

    /// Resolves a model-level [`mw_model::Location`] (symbolic name or
    /// room-local coordinates) to a building-frame rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRegion`] for unknown names/prefixes.
    pub fn resolve_location(&self, location: &mw_model::Location) -> Result<Rect, CoreError> {
        self.world_snapshot().resolve_location(location)
    }

    /// Runs `f` with read access to the world model.
    pub fn with_world<R>(&self, f: impl FnOnce(&WorldModel) -> R) -> R {
        f(&self.world_snapshot())
    }

    /// Runs `f` with read access to the static spatial database (spatial
    /// objects, sensor metadata, triggers). Live sensor readings are in
    /// the service's own table — see [`reading_count`](LocationService::reading_count)
    /// and [`tracked_objects`](LocationService::tracked_objects).
    pub fn with_db<R>(&self, f: impl FnOnce(&SpatialDatabase) -> R) -> R {
        f(&self.statics.read())
    }

    // --- partition handoff (cluster state export/import) -------------------

    /// Snapshots this service's per-object state for a cluster partition
    /// handoff: every reading still live at `now` plus every
    /// last-known-good fix, in a deterministic (sorted) order so two
    /// exports of the same state are byte-identical on the wire.
    ///
    /// The snapshot is evidence that already passed this node's
    /// supervision gates; importing it on a peer
    /// ([`import_partition_state`](LocationService::import_partition_state))
    /// does not re-admit it.
    #[must_use]
    pub fn export_partition_state(&self, now: SimTime) -> PartitionState {
        let (mut readings, mut last_good) = self.shard.export_state(now);
        readings.sort_by(|a, b| {
            (&a.object, &a.sensor_id)
                .cmp(&(&b.object, &b.sensor_id))
                .then_with(|| {
                    a.detected_at
                        .partial_cmp(&b.detected_at)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        last_good.sort_by(|a, b| a.object.cmp(&b.object));
        PartitionState {
            readings,
            last_good,
        }
    }

    /// Imports a peer's partition snapshot: readings go through the
    /// regular insert path (epoch bumps, cache invalidation,
    /// supersede rules) *without* supervisor re-admission — the source
    /// node already admitted them — and last-known-good fixes seed the
    /// degradation ladder's LKG rung. Returns how many readings were
    /// imported.
    pub fn import_partition_state(&self, state: PartitionState, _now: SimTime) -> usize {
        let imported = state.readings.len();
        self.shard
            .apply_ops(state.readings.into_iter().map(ShardOp::Insert).collect());
        for fix in state.last_good {
            self.import_last_good(fix);
        }
        imported
    }

    /// Seeds one last-known-good fix, as a replica applying a peer's
    /// state delta does. The fix only surfaces through the degradation
    /// ladder (`quality = LastKnownGood`) on a supervised service, and a
    /// locally computed fix for the same object overwrites it.
    pub fn import_last_good(&self, fix: LocationFix) {
        let object = fix.object.clone();
        self.shard.record_last_good(&object, fix);
    }

    // --- ingestion ---------------------------------------------------------

    /// Ingests an adapter's output at `now`: stores readings (firing
    /// database triggers), applies revocations, then evaluates
    /// subscriptions for the affected objects. Fired notifications are
    /// published on the bus topic and returned.
    ///
    /// On a supervised service every reading first passes the
    /// supervisor's sanity gates ([`mw_sensors::SensorSupervisor::admit`]):
    /// rejected readings (and readings from sensors in closed quarantine)
    /// never reach the database, future timestamps are clamped to `now`
    /// before storage, and the staleness watchdog ticks once per ingest.
    pub fn ingest(&self, output: AdapterOutput, now: SimTime) -> Vec<Notification> {
        let mut fired = Vec::new();
        self.ingest_internal(std::iter::once(output), now, &mut fired);
        fired
    }

    /// Ingests a batch of adapter outputs in one pass: readings are
    /// applied under one write-lock acquisition instead of one per
    /// reading, and subscriptions are evaluated once
    /// per affected object for the whole batch — one fusion per object,
    /// not one per reading. Semantically identical to calling
    /// [`ingest`](LocationService::ingest) per output at the same `now`,
    /// except that an object receiving readings from several outputs is
    /// notified once, after all of them.
    pub fn ingest_batch(&self, outputs: Vec<AdapterOutput>, now: SimTime) -> Vec<Notification> {
        let mut fired = Vec::new();
        self.ingest_internal(outputs.into_iter(), now, &mut fired);
        fired
    }

    /// [`ingest_batch`](LocationService::ingest_batch) into a
    /// caller-owned buffer: `fired` is cleared, then filled with the
    /// batch's notifications. A steady-state ingest loop that reuses one
    /// buffer across batches pays no allocation for the return value —
    /// the city-scale benchmark's hot path.
    pub fn ingest_batch_into(
        &self,
        outputs: Vec<AdapterOutput>,
        now: SimTime,
        fired: &mut Vec<Notification>,
    ) {
        fired.clear();
        self.ingest_internal(outputs.into_iter(), now, fired);
    }

    fn ingest_internal(
        &self,
        outputs: impl Iterator<Item = AdapterOutput>,
        now: SimTime,
        fired: &mut Vec<Notification>,
    ) {
        let started = std::time::Instant::now();
        let mut reading_count = 0u64;
        // Affected objects in first-touched order: the order of the
        // notification pass. The `seen` set keeps the dedup O(1) per
        // reading (it used to be a linear `Vec::contains` scan,
        // quadratic over large batches).
        let mut affected: Vec<MobileObjectId> = Vec::new();
        let mut seen: HashSet<MobileObjectId> = HashSet::new();
        // The batch's table mutations, in arrival order.
        let mut ops: Vec<ShardOp> = Vec::new();
        let mut meta_rows: Vec<mw_spatial_db::SensorMetaRow> = Vec::new();
        {
            // Batch admission: the global supervisor mutex is taken once
            // for the whole batch instead of once per reading. Readings
            // are still admitted in arrival order, so every gate
            // decision (and the supervisor state it evolves) is
            // identical to per-reading locking.
            let mut admission = self
                .supervisor
                .as_ref()
                .map(|s| s.lock().expect("supervisor lock poisoned"));
            for output in outputs {
                reading_count += output.readings.len() as u64;
                for revocation in &output.revocations {
                    ops.push(ShardOp::Revoke(
                        revocation.sensor_id.clone(),
                        revocation.object.clone(),
                    ));
                    if seen.insert(revocation.object.clone()) {
                        affected.push(revocation.object.clone());
                    }
                }
                for mut reading in output.readings {
                    if let Some(supervisor) = admission.as_mut() {
                        if !supervisor.admit(&mut reading, now).is_admitted() {
                            continue;
                        }
                    }
                    // Canonicalize the ids through the interner: every
                    // downstream clone of this reading's object/sensor
                    // id is then a refcount bump on the one shared
                    // allocation per distinct identity.
                    reading.object =
                        MobileObjectId::new(self.idents.canonical(reading.object.as_str()).1);
                    reading.sensor_id =
                        SensorId::new(self.idents.canonical(reading.sensor_id.as_str()).1);
                    if seen.insert(reading.object.clone()) {
                        affected.push(reading.object.clone());
                    }
                    self.register_accuracy(reading.spec.hit_probability());
                    // Keep the per-sensor metadata table (§5.2's second
                    // table) current from the calibration the adapter sent.
                    meta_rows.push(mw_spatial_db::SensorMetaRow {
                        sensor_id: reading.sensor_id.clone(),
                        confidence_percent: reading.spec.hit_probability() * 100.0,
                        time_to_live: reading.time_to_live,
                    });
                    ops.push(ShardOp::Insert(reading));
                }
            }
        }
        if !meta_rows.is_empty() {
            let mut statics = self.statics.write();
            for row in meta_rows {
                statics.upsert_sensor_meta(row);
            }
        }
        let invalidated = self.shard.apply_ops(ops);
        if let Some(supervisor) = &self.supervisor {
            supervisor
                .lock()
                .expect("supervisor lock poisoned")
                .tick(now);
        }
        // The notification pass: one fuse + subscription evaluation per
        // affected object.
        for object in affected {
            self.evaluate_subscriptions_into(&object, now, fired);
        }
        let mut delivered = 0usize;
        // With nobody subscribed (batch pipelines that drain the
        // returned buffer directly), skip the publish loop entirely —
        // no per-notification `Arc` allocation, no topic lock.
        if !fired.is_empty() && self.notifications.subscriber_count() > 0 {
            for n in fired.iter() {
                // One shared allocation per notification; subscribers
                // get a refcount bump each instead of a deep clone.
                delivered += self.notifications.publish(Arc::new(n.clone()));
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.ingest_readings.add(reading_count);
            metrics.cache_invalidations.add(invalidated);
            metrics.notifications_published.add(fired.len() as u64);
            metrics.notification_fanout.add(delivered as u64);
            metrics.ingest_latency.observe(started.elapsed());
            #[allow(clippy::cast_precision_loss)]
            metrics
                .objects_tracked
                .set(self.shard.read().epochs.len() as f64);
            metrics
                .mem_bytes_per_object
                .set(self.estimated_bytes_per_object());
        }
    }

    /// Convenience: ingest a single reading.
    pub fn ingest_reading(&self, reading: SensorReading, now: SimTime) -> Vec<Notification> {
        self.ingest(AdapterOutput::single(reading), now)
    }

    /// Declares a deployed sensor technology up front so the §4.4 band
    /// thresholds can be derived before its first reading arrives.
    /// Readings also register their technology automatically on ingest.
    pub fn register_sensor_type(&self, spec: &mw_sensors::SensorSpec) {
        self.register_accuracy(spec.hit_probability());
    }

    fn register_accuracy(&self, p: f64) {
        // Hot path: every admitted reading lands here, and after warm-up
        // the accuracy is always already known — check under the shared
        // read lock so concurrent ingest batches don't serialize on it.
        let known = |acc: &[f64]| acc.iter().any(|&x| (x - p).abs() < 1e-9);
        if known(&self.sensor_accuracies.read().0) {
            return;
        }
        let mut guard = self.sensor_accuracies.write();
        let (acc, bands) = &mut *guard;
        // Re-check: another thread may have registered it between locks.
        if !known(acc) {
            acc.push(p);
            *bands = BandThresholds::from_sensor_accuracies(acc);
        }
    }

    /// The deployment-wide band thresholds (§4.4), derived from every
    /// sensor technology registered or seen so far.
    #[must_use]
    pub fn band_thresholds(&self) -> BandThresholds {
        self.sensor_accuracies.read().1
    }

    // --- object-based queries ----------------------------------------------

    /// One fusion pass over the object's live readings, served from the
    /// epoch-versioned cache when the reading set, query time and
    /// excluded-sensor set all match a previous pass, re-weighted from
    /// the cached pass when only the query time moved, and fused in full
    /// otherwise — bit-identical to fusing fresh in every case (the
    /// cache admits no approximation; see `DESIGN.md` §10).
    ///
    /// On a supervised service, quarantined sensors are excluded from
    /// fusion. When `feedback` is set (the query path), conflict
    /// outcomes are fed back to the supervisor as chronic-loss /
    /// survivor signals — on cache hits too, replayed from the cached
    /// result, so the health ledger advances exactly as if fusion had
    /// run. Subscription evaluation passes `feedback = false` so health
    /// counters stay deterministic (unchanged from the pre-cache
    /// behaviour).
    fn fuse_live(&self, object: &MobileObjectId, now: SimTime, feedback: bool) -> FuseAttempt {
        let excluded: HashSet<SensorId> = self
            .supervisor
            .as_ref()
            .map(|s| s.lock().expect("supervisor lock poisoned").excluded())
            .unwrap_or_default();
        let excluded_key = excluded_fingerprint(&excluded);
        // Fused under the read lock, from the rows in place: a writer
        // waits for one lattice build, and no reading is copied.
        let fused = self
            .shard
            .read()
            .fuse(object, now, &excluded, excluded_key, &self.engine);
        if let Some(metrics) = &self.metrics {
            match fused.kind {
                FuseKind::Hit => metrics.cache_hits.inc(),
                FuseKind::Reweight => {
                    metrics.cache_misses.inc();
                    metrics.cache_reweights.inc();
                }
                FuseKind::Full | FuseKind::Untracked => metrics.cache_misses.inc(),
            }
        }
        if matches!(fused.kind, FuseKind::Reweight | FuseKind::Full) {
            self.shard
                .store_fusion(object, fused.entry(now, excluded_key));
        }
        let attempt = FuseAttempt {
            result: SharedFusion::new(fused.result),
            total: fused.total,
            used: fused.used,
        };
        self.conflict_feedback(&attempt, now, feedback);
        attempt
    }

    /// Feeds one fusion pass's conflict outcomes back to the supervisor
    /// (chronic-loss / survivor signals). Replayed identically for
    /// cached and fresh results.
    fn conflict_feedback(&self, attempt: &FuseAttempt, now: SimTime, feedback: bool) {
        if !feedback {
            return;
        }
        let Some(supervisor) = &self.supervisor else {
            return;
        };
        let mut guard = supervisor.lock().expect("supervisor lock poisoned");
        for sensor in attempt.result.result().discarded_sensors() {
            guard.record_conflict_loss(sensor, now);
        }
        for sensor in attempt.result.result().kept_sensors() {
            guard.record_conflict_survivor(sensor);
        }
    }

    /// "Where is person X?" — fuses the object's live readings and returns
    /// the best estimate with symbolic resolution and privacy applied.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when no live readings exist, and
    /// (supervised services only) [`CoreError::SensorsQuarantined`] when
    /// readings exist but every producing sensor is quarantined.
    pub fn locate(&self, object: &MobileObjectId, now: SimTime) -> Result<LocationFix, CoreError> {
        self.locate_graded(object, now).map(|(fix, _)| fix)
    }

    /// [`locate`](LocationService::locate) plus the [`AnswerQuality`]
    /// rung (always [`AnswerQuality::Full`] on an unsupervised service).
    fn locate_graded(
        &self,
        object: &MobileObjectId,
        now: SimTime,
    ) -> Result<(LocationFix, AnswerQuality), CoreError> {
        let _timer = self
            .metrics
            .as_ref()
            .map(|m| m.locate_latency.start_timer());
        let attempt = self.fuse_live(object, now, true);
        if attempt.total > 0 && attempt.used == 0 {
            return Err(CoreError::SensorsQuarantined {
                object: object.to_string(),
            });
        }
        let estimate =
            attempt
                .result
                .result()
                .best_estimate()
                .ok_or_else(|| CoreError::NoLocation {
                    object: object.to_string(),
                })?;
        let fix = self.resolve_fix(object, &estimate, now, &self.band_thresholds());
        if self.supervisor.is_some() {
            self.shard.record_last_good(object, fix.clone());
        }
        Ok((fix, attempt.quality()))
    }

    /// Serves `q` from the object's cached last-known-good fix, widened
    /// by its age: probability degraded through the policy's TDF, region
    /// inflated by `lkg_inflation_ft_per_s × age` (clamped to the
    /// universe). `None` when no cached fix exists or it is older than
    /// `lkg_max_age`.
    fn last_known_answer(&self, q: &LocationQuery) -> Option<QueryAnswer> {
        let cached = self.shard.last_good(&q.object)?;
        let age = q.now.saturating_since(cached.at);
        if age > self.degradation.lkg_max_age {
            return None;
        }
        let probability = self
            .degradation
            .lkg_tdf
            .apply(Confidence::saturating(cached.probability), age)
            .value();
        let widened = cached
            .region
            .inflated(self.degradation.lkg_inflation_ft_per_s * age.as_secs())
            .intersection(&self.universe())
            .unwrap_or(cached.region);
        let quality = AnswerQuality::LastKnownGood;
        match &q.target {
            QueryTarget::Fix => Some(QueryAnswer::from_fix(
                LocationFix {
                    object: q.object.clone(),
                    region: widened,
                    probability,
                    band: self.band_thresholds().classify(probability),
                    symbolic: cached.symbolic.clone(),
                    at: cached.at,
                },
                quality,
            )),
            QueryTarget::Distribution => Some(QueryAnswer::from_distribution(
                vec![(widened, 1.0)],
                quality,
            )),
            QueryTarget::Region(name) => {
                let rect = self.world_snapshot().region_rect(name).ok()?;
                Some(self.last_known_probability(probability, &widened, &rect, quality))
            }
            QueryTarget::Rect(rect) => {
                Some(self.last_known_probability(probability, &widened, rect, quality))
            }
        }
    }

    /// The probability that the object is in `rect`, assuming it is
    /// uniformly distributed over the widened last-known-good region.
    fn last_known_probability(
        &self,
        probability: f64,
        widened: &Rect,
        rect: &Rect,
        quality: AnswerQuality,
    ) -> QueryAnswer {
        let overlap = widened
            .intersection(rect)
            .map_or(0.0, |i| i.area() / widened.area().max(f64::MIN_POSITIVE));
        let p = probability * overlap.clamp(0.0, 1.0);
        QueryAnswer::from_probability(p, self.band_thresholds().classify(p), quality)
    }

    fn distribution_internal(
        &self,
        object: &MobileObjectId,
        now: SimTime,
    ) -> Result<(Vec<(Rect, f64)>, AnswerQuality), CoreError> {
        let attempt = self.fuse_live(object, now, true);
        if attempt.total > 0 && attempt.used == 0 {
            return Err(CoreError::SensorsQuarantined {
                object: object.to_string(),
            });
        }
        let lattice = attempt.result.lattice();
        let dist: Vec<(Rect, f64)> = lattice
            .normalized_distribution()
            .into_iter()
            .filter_map(|(id, w)| lattice.region(id).ok().map(|r| (r, w)))
            .collect();
        if dist.is_empty() {
            return Err(CoreError::NoLocation {
                object: object.to_string(),
            });
        }
        Ok((dist, attempt.quality()))
    }

    /// Answers a [`LocationQuery`] — the single pull-mode entry point
    /// behind which the older per-question methods are folded.
    ///
    /// ```text
    /// service.query(LocationQuery::of("alice").in_region("CS/Floor3/3105").at(now))?
    /// ```
    ///
    /// # Errors
    ///
    /// Follows the contract on [`CoreError`]: [`CoreError::UnknownRegion`]
    /// for unresolvable region names, [`CoreError::NoLocation`] for
    /// objects without live readings (never a silent `0.0`), and
    /// [`CoreError::Fusion`] when the fusion lattice rejects the region.
    ///
    /// On a supervised service the answer walks a degradation ladder and
    /// reports the rung taken in [`QueryAnswer::quality`]:
    ///
    /// 1. **Full** — fusion over every live reading.
    /// 2. **Partial** — fusion over the live readings of non-quarantined
    ///    sensors (some evidence was excluded).
    /// 3. **LastKnownGood** — no usable live evidence
    ///    ([`CoreError::NoLocation`]/[`CoreError::SensorsQuarantined`]),
    ///    but a cached fix no older than the policy's `lkg_max_age`
    ///    exists: it is served with TDF-degraded probability and a
    ///    region widened by its age. Without a usable cached fix the
    ///    underlying error surfaces.
    ///
    /// A query with a [`deadline`](LocationQuery::deadline) whose budget
    /// is already exhausted skips straight to rung 3 (or
    /// [`CoreError::DeadlineExceeded`] with no cached fix) instead of
    /// paying for a fusion it can no longer afford.
    pub fn query(&self, q: LocationQuery) -> Result<QueryAnswer, CoreError> {
        // Only a supervised service serves deadlines, so only it reads
        // the clock for one.
        let deadline = q
            .deadline
            .filter(|_| self.supervisor.is_some())
            .map(|budget| (std::time::Instant::now(), budget));
        let _timer = self.metrics.as_ref().map(|m| {
            m.query_count.inc();
            m.query_latency.start_timer()
        });
        if let Some((started, budget)) = deadline {
            if started.elapsed() >= budget {
                return self
                    .last_known_answer(&q)
                    .ok_or_else(|| CoreError::DeadlineExceeded {
                        object: q.object.to_string(),
                    });
            }
        }
        let primary = match q.target {
            QueryTarget::Fix => self
                .locate_graded(&q.object, q.now)
                .map(|(fix, quality)| QueryAnswer::from_fix(fix, quality)),
            QueryTarget::Distribution => self
                .distribution_internal(&q.object, q.now)
                .map(|(d, quality)| QueryAnswer::from_distribution(d, quality)),
            QueryTarget::Region(ref name) => match self.world_snapshot().region_rect(name) {
                Ok(rect) => self.rect_answer(&q.object, &rect, q.now),
                Err(e) => Err(e),
            },
            QueryTarget::Rect(rect) => self.rect_answer(&q.object, &rect, q.now),
        };
        match primary {
            Err(e @ (CoreError::NoLocation { .. } | CoreError::SensorsQuarantined { .. }))
                if self.supervisor.is_some() =>
            {
                self.last_known_answer(&q).ok_or(e)
            }
            other => other,
        }
    }

    fn rect_answer(
        &self,
        object: &MobileObjectId,
        rect: &Rect,
        now: SimTime,
    ) -> Result<QueryAnswer, CoreError> {
        let (p, quality) = self.rect_probability_graded(object, rect, now)?;
        Ok(QueryAnswer::from_probability(
            p,
            self.band_thresholds().classify(p),
            quality,
        ))
    }

    /// The `Result`-returning probability core: untracked objects are
    /// [`CoreError::NoLocation`], not `0.0`.
    fn rect_probability(
        &self,
        object: &MobileObjectId,
        rect: &Rect,
        now: SimTime,
    ) -> Result<f64, CoreError> {
        self.rect_probability_graded(object, rect, now)
            .map(|(p, _)| p)
    }

    fn rect_probability_graded(
        &self,
        object: &MobileObjectId,
        rect: &Rect,
        now: SimTime,
    ) -> Result<(f64, AnswerQuality), CoreError> {
        let attempt = self.fuse_live(object, now, true);
        if attempt.total == 0 {
            return Err(CoreError::NoLocation {
                object: object.to_string(),
            });
        }
        if attempt.used == 0 {
            return Err(CoreError::SensorsQuarantined {
                object: object.to_string(),
            });
        }
        let quality = attempt.quality();
        // Read-only Equation-7 evaluation on the (possibly cached,
        // possibly shared) lattice — bit-identical to inserting a query
        // node, which would store this very value on the node.
        Ok((attempt.result.region_probability(rect), quality))
    }

    /// The nearest static object satisfying `pred` to the object's best
    /// estimate — the Follow-Me proxy's "nearby displays or workstations
    /// that are suitable for resuming the session" query (§8.1). Returns
    /// the object's combined key and its distance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when the object has no live
    /// readings.
    pub fn nearest_static_object<F>(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        pred: F,
    ) -> Result<Option<(String, f64)>, CoreError>
    where
        F: FnMut(&SpatialObject) -> bool,
    {
        let fix = self.locate(object, now)?;
        let center = fix.region.center();
        let db = self.statics.read();
        Ok(db
            .objects()
            .nearest_matching(center, pred)
            .map(|o| (o.key(), o.mbr().distance_to_point(center))))
    }

    // --- region-based queries ----------------------------------------------

    /// "Who are the people in room 3105?" — all tracked objects inside the
    /// named region with probability at least `min_probability`.
    ///
    /// Answered from the occupancy snapshot whenever skipping
    /// the rest of the population is exact (`DESIGN.md` §10): take an
    /// object none of whose stored readings overlaps `R` with positive
    /// area, all undecaying with `h_i ≥ q_i`. Whatever subset of them
    /// survives expiry and conflict resolution, every inside factor of
    /// [`mw_fusion::bayes::posterior_general`] is `q_i` and every outside
    /// factor is `q_i + (h_i − q_i)·a_i/area_out ≥ q_i`, so its
    /// posterior is at most the prior share `area(R∩U)/area(U)` and a
    /// threshold above that rejects it unseen. The exhaustive walk
    /// remains for thresholds at or below the prior share, for a
    /// supervised service (a scan replays conflict feedback into the
    /// health ledger for every object) and under the aging motion model
    /// (evidence rects outgrow stored rects).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRegion`] for unknown names.
    pub fn objects_in_region(
        &self,
        region: &str,
        min_probability: f64,
        now: SimTime,
    ) -> Result<Vec<(MobileObjectId, f64)>, CoreError> {
        let rect = self.world_snapshot().region_rect(region)?;
        let universe = self.engine.universe();
        let prior_share = rect.intersection_area(&universe) / universe.area();
        let prune = self.supervisor.is_none()
            && self.engine.aging_inflation() <= 0.0
            && min_probability > prior_share * (1.0 + 1e-9);
        let objects = if prune {
            let (objects, scanned) = self.shard.region_candidates(&rect, universe.area());
            if let Some(metrics) = &self.metrics {
                metrics.region_scanned.add(scanned as u64);
                metrics.region_kept.add(objects.len() as u64);
            }
            objects
        } else {
            self.tracked_objects(now)
        };
        let mut out = Vec::new();
        for object in objects {
            let p = self.rect_probability(&object, &rect, now).unwrap_or(0.0);
            if p >= min_probability {
                out.push((object, p));
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        Ok(out)
    }

    // --- subscriptions (push mode) ------------------------------------------

    /// Registers a declarative rule (`DESIGN.md` §12); returns its id.
    /// This is the primary subscription API: build rules with
    /// [`Rule::when`] over [`Predicate`](crate::Predicate) atoms
    /// (in-region, near-point, co-located, dwell, movement) and boolean
    /// combinators. The rule compiles into the shared trigger DAG, so a
    /// million look-alike rules cost one predicate evaluation per fuse.
    #[must_use]
    pub fn subscribe_rule(&self, rule: Rule) -> SubscriptionId {
        let id = self.rules.write().add(&rule);
        self.update_subscription_gauge();
        id
    }

    /// Registers `rule` and returns an inbox on the notification topic
    /// configured by the rule's [`DeliveryPolicy`].
    #[must_use]
    pub fn subscribe_rule_with_inbox(
        &self,
        rule: Rule,
    ) -> (SubscriptionId, mw_bus::Subscription<SharedNotification>) {
        let inbox = self.subscribe_notifications(rule.delivery);
        (self.subscribe_rule(rule), inbox)
    }

    /// Registers a region-based notification (§4.3); returns its id.
    /// Build specs with [`SubscriptionSpec::builder`]. The spec is a
    /// documented shim: it compiles to a one-atom rule, so this is
    /// exactly `subscribe_rule(Rule::from(spec))`.
    #[must_use]
    pub fn subscribe(&self, spec: SubscriptionSpec) -> SubscriptionId {
        self.subscribe_rule(Rule::from(spec))
    }

    /// Builds and registers a subscription whose watched region comes
    /// from a model-level [`mw_model::Location`] (symbolic name or
    /// room-local coordinates), resolved through the world model (§3's
    /// hybrid flexibility). The builder's region, if any, is replaced.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRegion`] when the location cannot be
    /// resolved and [`CoreError::InvalidSubscription`] when the builder
    /// fails validation.
    pub fn subscribe_at(
        &self,
        location: &mw_model::Location,
        builder: SubscriptionSpecBuilder,
    ) -> Result<SubscriptionId, CoreError> {
        let region = self.resolve_location(location)?;
        let spec = builder.region(region).build()?;
        Ok(self.subscribe(spec))
    }

    /// Registers `spec` and returns an inbox on the notification topic
    /// configured by the spec's [`DeliveryPolicy`].
    #[must_use]
    pub fn subscribe_with_inbox(
        &self,
        spec: SubscriptionSpec,
    ) -> (SubscriptionId, mw_bus::Subscription<SharedNotification>) {
        let inbox = self.subscribe_notifications(spec.delivery);
        (self.subscribe(spec), inbox)
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSubscription`] for stale ids.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<(), CoreError> {
        let removed = self.rules.write().remove(id);
        self.update_subscription_gauge();
        if removed {
            Ok(())
        } else {
            Err(CoreError::UnknownSubscription { id: id.value() })
        }
    }

    fn update_subscription_gauge(&self) {
        if let Some(metrics) = &self.metrics {
            let rules = self.rules.read();
            #[allow(clippy::cast_precision_loss)]
            metrics.subscriptions_active.set(rules.len() as f64);
            #[allow(clippy::cast_precision_loss)]
            metrics.rules_dag_nodes.set(rules.node_count() as f64);
            #[allow(clippy::cast_precision_loss)]
            metrics.rules_dag_groups.set(rules.live_groups() as f64);
            metrics.rules_sharing_ratio.set(rules.sharing_ratio());
        }
    }

    /// Number of registered subscriptions.
    #[must_use]
    pub fn subscription_count(&self) -> usize {
        self.rules.read().len()
    }

    /// An inbox on the notification topic, queued per `policy`.
    /// Notifications arrive as [`SharedNotification`]s — one allocation
    /// shared by every subscriber rather than a deep clone each.
    #[must_use]
    pub fn subscribe_notifications(
        &self,
        policy: DeliveryPolicy,
    ) -> mw_bus::Subscription<SharedNotification> {
        match policy {
            DeliveryPolicy::Unbounded => self.notifications.subscribe(),
            DeliveryPolicy::Bounded { capacity, overflow } => {
                self.notifications.subscribe_bounded(capacity, overflow)
            }
        }
    }

    fn evaluate_subscriptions_into(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        fired: &mut Vec<Notification>,
    ) {
        if self.rules.read().len() == 0 {
            return;
        }
        let evaluation = self.evaluate_candidates(object, now);
        self.apply_evaluations_into(object, now, evaluation, fired);
    }

    /// The read-only half of rule evaluation for one object: fuse,
    /// select candidate trigger groups, evaluate each reachable DAG
    /// node once (memoized). It runs under the rule engine's *read*
    /// lock, so partner fixes can fuse and concurrent ingest callers
    /// can evaluate alongside it; it mutates nothing but the per-object
    /// fusion cache (which is keyed so concurrent stores are
    /// idempotent), and atom-clock updates are collected, not applied.
    fn evaluate_candidates(&self, object: &MobileObjectId, now: SimTime) -> ObjectEvaluation {
        let _timer = self.metrics.as_ref().map(|m| m.match_latency.start_timer());
        // One shared fusion pass per object per batch: the fresh fuse
        // lands in the cache, so queries arriving at the same
        // instant reuse the lattice instead of rebuilding it.
        // Quarantined sensors are excluded here too; conflict feedback is
        // left to the query path so health counters stay deterministic.
        let attempt = self.fuse_live(object, now, false);
        let result = &attempt.result;
        // Candidates: trigger groups whose interest rects intersect the
        // surviving evidence (interest-grid pruned, one query per
        // evidence rect — NOT their union MBR, which would sweep every
        // watched region between a fast mover's old and new readings)
        // plus currently-true ones that may need re-arming, plus
        // always-evaluate groups; groups bound to one object come from
        // that object's own list. This keeps the per-update cost nearly
        // independent of the number of programmed triggers (the paper's
        // Figure 9 claim) — and, with sharing, independent of
        // look-alike rule count too.
        // Per-thread reusable buffers for the hot path: the evidence
        // windows, the candidate list, and the generation-stamped node
        // memo. Thread-local (not per-service) because several threads
        // may call `ingest` on one service concurrently.
        thread_local! {
            static WINDOWS: RefCell<Vec<Rect>> = const { RefCell::new(Vec::new()) };
            static CANDIDATES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
            static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::new());
        }
        CANDIDATES.with(|candidates_cell| {
            let mut candidates = candidates_cell.borrow_mut();
            let rules = self.rules.read();
            WINDOWS.with(|windows_cell| {
                let mut windows = windows_cell.borrow_mut();
                windows.clear();
                windows.extend(result.result().evidence_regions());
                let scanned = rules.candidate_groups_into(object, &windows, &mut candidates);
                if let Some(metrics) = &self.metrics {
                    metrics.rules_selections.inc();
                    metrics.rules_scanned.add(scanned as u64);
                    metrics.rules_candidates.add(candidates.len() as u64);
                }
            });
            if candidates.is_empty() {
                return ObjectEvaluation::empty();
            }
            let rule_timer = self
                .metrics
                .as_ref()
                .map(|m| m.rules_eval_latency.start_timer());
            let thresholds = self.band_thresholds();
            let estimate = result.result().best_estimate().map(|e| e.region);
            let position = estimate.map(|r| r.center());
            let own_fix = || self.rule_fix(object, &attempt, now, &thresholds);
            let input = EvalInput {
                fusion: result,
                position,
                estimate,
                fallback_region: self.engine.universe(),
                thresholds: &thresholds,
                own_fix: &own_fix,
                now,
            };
            let partner = |other: &MobileObjectId| self.rule_partner_fix(other, now, &thresholds);
            let evaluation = SCRATCH.with(|scratch| {
                rules.evaluate(
                    object,
                    &candidates,
                    &input,
                    &partner,
                    &mut scratch.borrow_mut(),
                )
            });
            drop(rule_timer);
            if let Some(metrics) = &self.metrics {
                metrics.rules_atoms.add(evaluation.atoms_evaluated);
            }
            evaluation
        })
    }

    /// A side-effect-free location fix for rule atoms that need a
    /// partner object's position (co-location): the
    /// [`locate`](LocationService::locate) resolution pipeline —
    /// quarantine check, best estimate, symbolic resolution, privacy
    /// truncation — without recording a last-known-good fix, so rule
    /// evaluation never perturbs the degradation ladder's state.
    fn rule_partner_fix(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        thresholds: &BandThresholds,
    ) -> Option<LocationFix> {
        self.rule_fix(object, &self.fuse_live(object, now, false), now, thresholds)
    }

    /// [`rule_partner_fix`](LocationService::rule_partner_fix) from an
    /// existing fusion pass — how the evaluated object's own
    /// co-location fix is built from the pass its rules already read.
    fn rule_fix(
        &self,
        object: &MobileObjectId,
        attempt: &FuseAttempt,
        now: SimTime,
        thresholds: &BandThresholds,
    ) -> Option<LocationFix> {
        if attempt.total > 0 && attempt.used == 0 {
            return None;
        }
        let estimate = attempt.result.result().best_estimate()?;
        Some(self.resolve_fix(object, &estimate, now, thresholds))
    }

    /// An estimate as a [`LocationFix`]: symbolic resolution, then
    /// privacy truncation (§4.5), which coarsens the region to the
    /// revealed symbolic region's rectangle.
    fn resolve_fix(
        &self,
        object: &MobileObjectId,
        estimate: &Estimate,
        now: SimTime,
        thresholds: &BandThresholds,
    ) -> LocationFix {
        let world = self.world_snapshot();
        let mut symbolic = world.symbolic_for_rect(&estimate.region);
        let mut region = estimate.region;
        if let Some(max_depth) = self.shard.privacy_of(object) {
            if let Some(glob) = symbolic.take() {
                let truncated = glob.truncated(max_depth);
                if let Ok(rect) = world.region_rect(&truncated.to_string()) {
                    region = rect;
                }
                symbolic = Some(truncated);
            } else {
                // No symbolic resolution: reveal the whole universe.
                region = self.engine.universe();
            }
        }
        LocationFix {
            object: object.clone(),
            region,
            probability: estimate.probability,
            band: thresholds.classify(estimate.probability),
            symbolic,
            at: now,
        }
    }

    /// The stateful half: fold one object's group evaluations into the
    /// edge-trigger state, in group order, emitting a [`Notification`]
    /// per member of each fired group (ascending subscription id).
    /// Runs on the ingest caller's thread, object by object in
    /// `affected` order.
    fn apply_evaluations_into(
        &self,
        object: &MobileObjectId,
        now: SimTime,
        evaluation: ObjectEvaluation,
        out: &mut Vec<Notification>,
    ) {
        if evaluation.is_empty() {
            return;
        }
        // Reused per-thread fired-group buffer: apply_groups_into
        // clears and fills it, so steady-state batches never allocate a
        // result `Vec` per object — and because it holds one record per
        // fired *group* (not per member), a 100-member look-alike group
        // costs one push; members expand straight into `out` below
        // (DESIGN.md §15). Thread-local, not per-service: concurrent
        // `ingest` callers each need their own buffer.
        thread_local! {
            static FIRED: RefCell<Vec<crate::rules::FiredGroup>> =
                const { RefCell::new(Vec::new()) };
        }
        FIRED.with(|fired_cell| {
            let mut fired = fired_cell.borrow_mut();
            let mut engine = self.rules.write();
            engine.apply_groups_into(object, evaluation, &mut fired);
            engine.extend_notifications(&fired, object, now, out);
            fired.clear();
        });
    }

    // --- privacy -------------------------------------------------------------

    /// Limits how precisely `object`'s location is revealed: GLOBs are
    /// truncated to `max_depth` segments and coordinates coarsened to the
    /// revealed region (§4.5).
    pub fn set_privacy(&self, object: MobileObjectId, max_depth: usize) {
        self.shard.set_privacy(&object, max_depth);
    }

    /// Removes `object`'s privacy constraint.
    pub fn clear_privacy(&self, object: &MobileObjectId) {
        self.shard.clear_privacy(object);
    }

    // --- spatial relationships (§4.6) ----------------------------------------

    /// The full region–region relation (RCC-8 + passage refinement).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRegion`] for unknown names.
    pub fn region_relation(&self, a: &str, b: &str) -> Result<RegionRelation, CoreError> {
        let world = self.world_snapshot();
        let rcc = world.rcc8(a, b)?;
        let ec = world.ec_kind(a, b)?;
        Ok(RegionRelation::from_parts(rcc, ec))
    }

    /// Builds an RCC-8 inference engine pre-loaded with the exact
    /// relations of every named region — the paper's XSB Prolog layer
    /// ("The Location Service reasons further about these relations using
    /// XSB Prolog"). Callers may assert additional abstract facts (regions
    /// without geometry) before running closure.
    #[must_use]
    pub fn build_reasoner(&self) -> mw_reasoning::RccEngine {
        let world = self.world_snapshot();
        let regions: Vec<(String, Rect)> =
            world.regions().map(|(n, r)| (n.to_string(), r)).collect();
        let mut engine = mw_reasoning::RccEngine::new();
        for (i, (a, ra)) in regions.iter().enumerate() {
            engine.declare(a.clone());
            for (b, rb) in regions.iter().skip(i + 1) {
                engine.assert_fact(a, b, mw_reasoning::Rcc8::of(ra, rb));
            }
        }
        engine
    }

    /// The possible RCC-8 relations between two regions after closure —
    /// works for abstract regions connected to the geometry only through
    /// asserted facts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Reasoning`] for contradictory facts or
    /// unknown names.
    pub fn possible_relations(
        &self,
        a: &str,
        b: &str,
    ) -> Result<mw_reasoning::RelationSet, CoreError> {
        let mut engine = self.build_reasoner();
        engine.close()?;
        Ok(engine.query(a, b)?)
    }

    /// Proximity of two objects (§4.6.3a).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when either object has no live
    /// readings.
    pub fn proximity(
        &self,
        a: &MobileObjectId,
        b: &MobileObjectId,
        threshold: f64,
        now: SimTime,
    ) -> Result<ObjectRelation, CoreError> {
        let fa = self.locate(a, now)?;
        let fb = self.locate(b, now)?;
        Ok(relations::proximity(&fa, &fb, threshold))
    }

    /// Co-location of two objects at a symbolic granularity (§4.6.3b).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when either object has no live
    /// readings.
    pub fn co_location(
        &self,
        a: &MobileObjectId,
        b: &MobileObjectId,
        granularity: usize,
        now: SimTime,
    ) -> Result<CoLocation, CoreError> {
        let fa = self.locate(a, now)?;
        let fb = self.locate(b, now)?;
        Ok(relations::co_location(&fa, &fb, granularity))
    }

    /// Euclidean distance between two objects (§4.6.3c).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] when either object has no live
    /// readings.
    pub fn object_distance(
        &self,
        a: &MobileObjectId,
        b: &MobileObjectId,
        now: SimTime,
    ) -> Result<f64, CoreError> {
        let fa = self.locate(a, now)?;
        let fb = self.locate(b, now)?;
        Ok(relations::object_distance(&fa, &fb))
    }

    /// Distance from an object to a named region (§4.6.2c): Euclidean
    /// when `path = false`, walking distance through doors when
    /// `path = true` (measured from the region the object resolves to).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoLocation`] for untracked objects and
    /// [`CoreError::UnknownRegion`] for unknown regions. Path distance is
    /// `None` when no walkable route exists.
    pub fn object_region_distance(
        &self,
        object: &MobileObjectId,
        region: &str,
        path: bool,
        now: SimTime,
    ) -> Result<Option<f64>, CoreError> {
        let fix = self.locate(object, now)?;
        let world = self.world_snapshot();
        if !path {
            let rect = world.region_rect(region)?;
            return Ok(Some(relations::object_region_distance(&fix, &rect)));
        }
        let Some(here) = fix.symbolic else {
            return Ok(None);
        };
        world.path_distance(&here.to_string(), region, true)
    }

    /// Usage-region check (§4.6.2b): is `object` within the usage region
    /// of the static object named `target`? Usage regions are
    /// `UsageRegion` rows whose `usage-for` attribute names the target.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRegion`] when `target` has no usage
    /// region, or [`CoreError::NoLocation`] for an untracked object.
    pub fn can_use(
        &self,
        object: &MobileObjectId,
        target: &str,
        now: SimTime,
    ) -> Result<ObjectRelation, CoreError> {
        let usage_rect = self.with_db(|db| {
            db.objects()
                .iter()
                .find(|o| {
                    o.object_type == mw_spatial_db::ObjectType::UsageRegion
                        && o.attribute("usage-for") == Some(target)
                })
                .map(|o| o.mbr())
        });
        let usage_rect = usage_rect.ok_or_else(|| CoreError::UnknownRegion {
            name: format!("usage region for {target}"),
        })?;
        let fix = self.locate(object, now)?;
        Ok(relations::containment(&fix, &usage_rect))
    }

    // --- bus endpoint (pull mode over the wire) ---------------------------------

    /// Registers the service's RPC endpoint on `broker` under
    /// [`LOCATION_SERVICE_NAME`] and spawns a thread serving it. The
    /// thread exits when the broker (and all client handles) are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`mw_bus::BusError::DuplicateService`] when already
    /// registered.
    pub fn serve_on(
        self: &Arc<Self>,
        broker: &Broker,
    ) -> Result<std::thread::JoinHandle<()>, mw_bus::BusError> {
        let server =
            broker.register_service::<LocationRequest, LocationResponse>(LOCATION_SERVICE_NAME)?;
        let service = Arc::clone(self);
        Ok(std::thread::spawn(move || {
            while let Some((request, reply)) = server.next_request() {
                reply(service.handle(request));
            }
        }))
    }

    fn handle(&self, request: LocationRequest) -> LocationResponse {
        match request {
            LocationRequest::Locate { object, now } => match self.locate(&object, now) {
                Ok(fix) => LocationResponse::Fix(Some(fix)),
                Err(CoreError::NoLocation { .. }) => LocationResponse::Fix(None),
                Err(e) => LocationResponse::Error(e.to_string()),
            },
            LocationRequest::RegionProbability {
                object,
                region,
                now,
            } => match self.query(LocationQuery::of(object).in_region(region).at(now)) {
                Ok(answer) => LocationResponse::Probability(answer.probability().unwrap_or(0.0)),
                // Wire compatibility: an untracked object has always
                // reported probability 0, not an error.
                Err(CoreError::NoLocation { .. }) => LocationResponse::Probability(0.0),
                Err(e) => LocationResponse::Error(e.to_string()),
            },
            LocationRequest::ObjectsInRegion {
                region,
                min_probability,
                now,
            } => match self.objects_in_region(&region, min_probability, now) {
                Ok(v) => LocationResponse::Objects(v),
                Err(e) => LocationResponse::Error(e.to_string()),
            },
            LocationRequest::Subscribe {
                region,
                min_probability,
                object,
            } => match self.with_world(|w| w.region_rect(&region)) {
                Ok(rect) => {
                    let mut builder = SubscriptionSpec::builder()
                        .region(rect)
                        .min_probability(min_probability);
                    if let Some(object) = object {
                        builder = builder.object(object);
                    }
                    match builder.build() {
                        Ok(spec) => LocationResponse::Subscribed(self.subscribe(spec)),
                        Err(e) => LocationResponse::Error(e.to_string()),
                    }
                }
                Err(e) => LocationResponse::Error(e.to_string()),
            },
            LocationRequest::Unsubscribe { id } => match self.unsubscribe(id) {
                Ok(()) => LocationResponse::Unsubscribed,
                Err(e) => LocationResponse::Error(e.to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_fusion::ProbabilityBand;
    use mw_geometry::{Point, Polygon, Segment};
    use mw_model::{SimDuration, TemporalDegradation};
    use mw_sensors::SensorSpec;
    use mw_spatial_db::{Geometry, ObjectType};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn reading(object: &str, region: Rect, at: f64) -> SensorReading {
        SensorReading {
            sensor_id: "Ubi-18".into(),
            spec: SensorSpec::ubisense(1.0),
            object: object.into(),
            glob_prefix: "CS/Floor3".parse().unwrap(),
            region,
            detected_at: SimTime::from_secs(at),
            time_to_live: SimDuration::from_secs(30.0),
            tdf: TemporalDegradation::None,
            moving: false,
        }
    }

    fn sample_db() -> SpatialDatabase {
        let mut db = SpatialDatabase::new();
        let prefix: mw_model::Glob = "CS/Floor3".parse().unwrap();
        db.insert_object(SpatialObject::new(
            "Floor3",
            "CS".parse().unwrap(),
            ObjectType::Floor,
            Geometry::Polygon(Polygon::from_rect(&rect(0.0, 0.0, 500.0, 100.0))),
        ))
        .unwrap();
        db.insert_object(SpatialObject::new(
            "3105",
            prefix.clone(),
            ObjectType::Room,
            Geometry::Polygon(Polygon::from_rect(&rect(330.0, 0.0, 350.0, 30.0))),
        ))
        .unwrap();
        db.insert_object(SpatialObject::new(
            "LabCorridor",
            prefix.clone(),
            ObjectType::Corridor,
            Geometry::Polygon(Polygon::from_rect(&rect(310.0, 0.0, 330.0, 30.0))),
        ))
        .unwrap();
        db.insert_object(SpatialObject::new(
            "Door3105",
            prefix,
            ObjectType::Door,
            Geometry::Line(Segment::new(
                Point::new(330.0, 10.0),
                Point::new(330.0, 14.0),
            )),
        ))
        .unwrap();
        db
    }

    fn service() -> (Arc<LocationService>, Broker) {
        let broker = Broker::new();
        let svc = LocationService::new(sample_db(), rect(0.0, 0.0, 500.0, 100.0), &broker);
        (svc, broker)
    }

    #[test]
    fn locate_resolves_symbolically() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let fix = svc
            .locate(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(fix.symbolic.unwrap().to_string(), "CS/Floor3/3105");
        assert!(fix.probability > 0.8, "p={}", fix.probability);
    }

    /// Queries for ids the service never ingested store and intern
    /// nothing; a seeded object (rows but no slot yet) still gets its
    /// slot on the first store, so its second query is a cache hit.
    #[test]
    fn unknown_id_queries_do_not_grow_the_slab() {
        let mut db = sample_db();
        db.readings_mut()
            .insert(reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0));
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let svc =
            LocationService::new_with_obs(db, rect(0.0, 0.0, 500.0, 100.0), &broker, &registry);
        let interned = svc.interner().len();
        let slots = svc.shard.read().epochs.len();
        let now = SimTime::from_secs(1.0);
        for i in 0..1000 {
            let ghost = LocationQuery::of(format!("ghost-{i}").as_str()).at(now);
            assert!(matches!(
                svc.query(ghost),
                Err(CoreError::NoLocation { .. })
            ));
        }
        assert_eq!(svc.interner().len(), interned);
        assert_eq!(svc.shard.read().epochs.len(), slots);

        let hits = || registry.snapshot().counter("fusion.cache.hits");
        svc.query(LocationQuery::of("alice").at(now)).unwrap();
        let before = hits();
        svc.query(LocationQuery::of("alice").at(now)).unwrap();
        assert_eq!(hits(), Some(before.unwrap_or(0) + 1));
    }

    #[test]
    fn locate_unknown_object_errors() {
        let (svc, _broker) = service();
        assert!(matches!(
            svc.locate(&"ghost".into(), SimTime::ZERO),
            Err(CoreError::NoLocation { .. })
        ));
    }

    #[test]
    fn region_queries() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        svc.ingest_reading(
            reading("bob", rect(319.0, 9.0, 321.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        let p_room = svc
            .query(
                LocationQuery::of("alice")
                    .in_region("CS/Floor3/3105")
                    .at(now),
            )
            .unwrap()
            .probability()
            .unwrap();
        assert!(p_room > 0.8);
        let p_corridor = svc
            .query(
                LocationQuery::of("alice")
                    .in_region("CS/Floor3/LabCorridor")
                    .at(now),
            )
            .unwrap()
            .probability()
            .unwrap();
        assert!(p_corridor < 0.1);
        // Region-based: who is in the room?
        let in_room = svc.objects_in_region("CS/Floor3/3105", 0.5, now).unwrap();
        assert_eq!(in_room.len(), 1);
        assert_eq!(in_room[0].0, "alice".into());
        // Unknown region.
        assert!(matches!(
            svc.query(LocationQuery::of("alice").in_region("Nope").at(now)),
            Err(CoreError::UnknownRegion { .. })
        ));
        // Untracked object: an error, not a silent zero.
        assert!(matches!(
            svc.query(
                LocationQuery::of("ghost")
                    .in_region("CS/Floor3/3105")
                    .at(now)
            ),
            Err(CoreError::NoLocation { .. })
        ));
    }

    #[test]
    fn query_facade_is_internally_consistent() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        let room = "CS/Floor3/3105";
        // Named-region and explicit-rect answers agree.
        let facade = svc
            .query(LocationQuery::of("alice").in_region(room).at(now))
            .unwrap();
        let p = facade.probability().unwrap();
        assert!(p > 0.8);
        assert_eq!(
            facade.band(),
            Some(svc.band_thresholds().classify(p)),
            "answer band is the classification of its own probability"
        );
        let rect = svc.with_world(|w| w.region_rect(room)).unwrap();
        assert_eq!(
            svc.query(LocationQuery::of("alice").in_rect(rect).at(now))
                .unwrap()
                .probability(),
            Some(p)
        );
        // The distribution normalizes over the evidence regions: it sums
        // to one, every weight is positive, and (the evidence being a
        // single reading inside the room) its mass lies in the room.
        let dist = svc
            .query(LocationQuery::of("alice").distribution().at(now))
            .unwrap()
            .distribution()
            .unwrap()
            .to_vec();
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(dist.iter().all(|(_, w)| *w > 0.0));
        let in_room: f64 = dist
            .iter()
            .filter(|(r, _)| rect.contains_rect(r))
            .map(|(_, w)| w)
            .sum();
        assert!(in_room > 0.9, "evidence mass concentrates in the room");
        // The fix query matches locate().
        let fix = svc.locate(&"alice".into(), now).unwrap();
        assert_eq!(
            svc.query(LocationQuery::of("alice").at(now))
                .unwrap()
                .fix()
                .unwrap(),
            &fix
        );
        // Untracked objects are errors on every facade path, never 0.0.
        for q in [
            LocationQuery::of("ghost").in_region(room).at(now),
            LocationQuery::of("ghost").in_rect(rect).at(now),
            LocationQuery::of("ghost").distribution().at(now),
            LocationQuery::of("ghost").at(now),
        ] {
            assert!(matches!(svc.query(q), Err(CoreError::NoLocation { .. })));
        }
    }

    #[test]
    fn core_metrics_populate_through_the_pipeline() {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let mut db = sample_db();
        // A seeded reading is migrated into the table, never counted.
        db.readings_mut()
            .insert(reading("bob", rect(319.0, 9.0, 321.0, 11.0), 0.0));
        let svc =
            LocationService::new_with_obs(db, rect(0.0, 0.0, 500.0, 100.0), &broker, &registry);
        assert!(svc.metrics_registry().is_some());
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let id = svc.subscribe(SubscriptionSpec::region_entry(room, 0.5));
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        let _ = svc
            .query(
                LocationQuery::of("alice")
                    .in_region("CS/Floor3/3105")
                    .at(now),
            )
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.ingest.readings"), Some(1));
        assert_eq!(snap.counter("core.query.count"), Some(1));
        assert_eq!(snap.counter("core.notifications.published"), Some(1));
        assert!(snap.histogram("core.ingest.latency_us").unwrap().count >= 1);
        assert!(snap.histogram("core.query.latency_us").unwrap().count >= 1);
        assert!(
            snap.histogram("core.subscriptions.match_latency_us")
                .unwrap()
                .count
                >= 1
        );
        assert_eq!(snap.gauge("core.subscriptions.active"), Some(1.0));
        // The rule layer reports its DAG shape and per-fuse work.
        assert_eq!(snap.gauge("rules.dag.nodes"), Some(1.0));
        assert_eq!(snap.gauge("rules.dag.groups"), Some(1.0));
        assert_eq!(snap.gauge("rules.dag.sharing_ratio"), Some(1.0));
        assert!(snap.counter("rules.eval.atoms").unwrap_or(0) >= 1);
        assert!(snap.histogram("rules.eval.latency_us").unwrap().count >= 1);
        // The shared registry also carries the bound db.* and fusion.*
        // layers: one fresh read for the ingest's rule pass, one for the
        // query at a new instant; the statics hold the four objects.
        assert_eq!(snap.counter("db.readings_inserted"), Some(1));
        assert_eq!(snap.counter("db.live_queries"), Some(2));
        assert_eq!(snap.counter("db.triggers_fired"), Some(0));
        assert_eq!(snap.gauge("db.objects"), Some(4.0));
        assert!(snap.counter("fusion.fuse.count").unwrap_or(0) >= 1);
        // Revoking the seed counts one row; its rule pass reads bob once.
        svc.ingest(
            AdapterOutput {
                readings: vec![],
                revocations: vec![mw_sensors::Revocation {
                    sensor_id: "Ubi-18".into(),
                    object: "bob".into(),
                }],
            },
            now,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("db.readings_revoked"), Some(1));
        assert_eq!(snap.counter("db.live_queries"), Some(3));
        assert_eq!(snap.counter("db.readings_inserted"), Some(1));
        svc.unsubscribe(id).unwrap();
        assert_eq!(
            registry.snapshot().gauge("core.subscriptions.active"),
            Some(0.0)
        );
    }

    /// Candidate selection follows the fused person's own rules, not
    /// the rule base: with 25 bound groups for each of 40 people on the
    /// same rooms, a selection for `p0` scans exactly the entries it
    /// scans when only `p0`'s 25 exist. Counts, not timings.
    #[test]
    fn selection_scans_only_the_fused_objects_rules() {
        let selection_counts = |people: usize| {
            let broker = Broker::new();
            let registry = MetricsRegistry::new();
            let svc = LocationService::new_with_obs(
                sample_db(),
                rect(0.0, 0.0, 500.0, 100.0),
                &broker,
                &registry,
            );
            for p in 0..people {
                for k in 0..25u32 {
                    let x = f64::from(k % 12) * 40.0;
                    let here = crate::Predicate::in_region(rect(x, 0.0, x + 40.0, 100.0), 0.5);
                    let predicate = match k % 5 {
                        3 => here.for_at_least(SimDuration::from_secs(5.0)),
                        4 => here.not(),
                        _ => here,
                    };
                    let rule = Rule::when(predicate).object(format!("p{p}").as_str());
                    let _ = svc.subscribe_rule(rule.build().unwrap());
                }
            }
            for (t, x) in [(0.0, 100.0), (1.0, 140.0), (2.0, 141.0)] {
                let window = rect(x, 40.0, x + 2.0, 42.0);
                svc.ingest_reading(reading("p0", window, t), SimTime::from_secs(t));
            }
            let snap = registry.snapshot();
            let count = |name: &str| snap.counter(name).unwrap_or(0);
            (
                count("rules.candidates.selections"),
                count("rules.candidates.scanned"),
                count("rules.candidates.examined"),
            )
        };
        let alone = selection_counts(1);
        assert!(
            alone.0 > 0 && alone.1 >= alone.2 && alone.2 > 0,
            "{alone:?}"
        );
        assert_eq!(selection_counts(40), alone);
    }

    #[test]
    fn exit_subscription_fires_through_service() {
        let (svc, _broker) = service();
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let _id = svc.subscribe(
            SubscriptionSpec::builder()
                .region(room)
                .object("alice")
                .min_probability(0.5)
                .on_exit()
                .build()
                .unwrap(),
        );
        // Entering fires nothing for an on-exit subscription.
        let fired = svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert!(fired.is_empty());
        // Moving to the corridor is the falling edge.
        let fired = svc.ingest_reading(
            reading("alice", rect(319.0, 9.0, 321.0, 11.0), 5.0),
            SimTime::from_secs(5.0),
        );
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn subscription_fires_on_entry_and_is_edge_triggered() {
        let (svc, broker) = service();
        let sub_rx = broker
            .topic::<SharedNotification>(NOTIFICATION_TOPIC)
            .subscribe();
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let id =
            svc.subscribe(SubscriptionSpec::region_entry(room, 0.5).for_object("alice".into()));
        // Alice is in the corridor: no notification.
        let fired = svc.ingest_reading(
            reading("alice", rect(319.0, 9.0, 321.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert!(fired.is_empty());
        // Alice enters the room: notification.
        let fired = svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 5.0),
            SimTime::from_secs(5.0),
        );
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].subscription, id);
        assert!(fired[0].probability > 0.5);
        // The bus subscriber saw it too.
        let pushed = sub_rx
            .recv_timeout(std::time::Duration::from_millis(200))
            .unwrap();
        assert_eq!(pushed.subscription, id);
        // Another reading inside the room: edge-triggered, no repeat.
        let fired = svc.ingest_reading(
            reading("alice", rect(340.0, 10.0, 342.0, 12.0), 6.0),
            SimTime::from_secs(6.0),
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn bounded_notification_subscriber_lags_instead_of_growing() {
        let (svc, _broker) = service();
        let inbox = svc.subscribe_notifications(DeliveryPolicy::Bounded {
            capacity: 2,
            overflow: mw_bus::OverflowPolicy::DropOldest,
        });
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let _id =
            svc.subscribe(SubscriptionSpec::region_entry(room, 0.5).for_object("alice".into()));
        // Alice enters and leaves the room repeatedly; each entry fires
        // (edge-triggered re-arm on exit), but the inbox holds only 2.
        for i in 0..4 {
            let t = f64::from(i) * 20.0;
            svc.ingest_reading(
                reading("alice", rect(339.0, 9.0, 341.0, 11.0), t),
                SimTime::from_secs(t),
            );
            svc.ingest_reading(
                reading("alice", rect(319.0, 9.0, 321.0, 11.0), t + 10.0),
                SimTime::from_secs(t + 10.0),
            );
        }
        let backlog = inbox.drain();
        assert_eq!(backlog.len(), 2, "inbox stays at its bound");
        assert_eq!(inbox.lag_count(), 2, "older entries were shed, visibly");
    }

    #[test]
    fn subscription_object_filter() {
        let (svc, _broker) = service();
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let _id =
            svc.subscribe(SubscriptionSpec::region_entry(room, 0.5).for_object("alice".into()));
        let fired = svc.ingest_reading(
            reading("bob", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let (svc, _broker) = service();
        let room = rect(330.0, 0.0, 350.0, 30.0);
        let id = svc.subscribe(SubscriptionSpec::region_entry(room, 0.5));
        assert_eq!(svc.subscription_count(), 1);
        svc.unsubscribe(id).unwrap();
        assert_eq!(svc.subscription_count(), 0);
        assert!(svc.unsubscribe(id).is_err());
        let fired = svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn privacy_truncates_to_floor() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        svc.set_privacy("alice".into(), 2); // reveal only CS/Floor3
        let fix = svc
            .locate(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(fix.symbolic.unwrap().to_string(), "CS/Floor3");
        // The coordinate estimate is coarsened to the floor rectangle.
        assert_eq!(fix.region, rect(0.0, 0.0, 500.0, 100.0));
        svc.clear_privacy(&"alice".into());
        let fix2 = svc
            .locate(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(fix2.symbolic.unwrap().to_string(), "CS/Floor3/3105");
    }

    #[test]
    fn relations_between_objects() {
        let (svc, _broker) = service();
        let now = SimTime::from_secs(1.0);
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        svc.ingest_reading(
            reading("bob", rect(342.0, 9.0, 344.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let near = svc
            .proximity(&"alice".into(), &"bob".into(), 5.0, now)
            .unwrap();
        assert!(near.holds);
        let far = svc
            .proximity(&"alice".into(), &"bob".into(), 0.5, now)
            .unwrap();
        assert!(!far.holds);
        let colo = svc
            .co_location(&"alice".into(), &"bob".into(), 3, now)
            .unwrap();
        assert!(colo.co_located);
        assert_eq!(colo.region.unwrap().to_string(), "CS/Floor3/3105");
        let d = svc
            .object_distance(&"alice".into(), &"bob".into(), now)
            .unwrap();
        assert!((d - 3.0).abs() < 1e-9);
    }

    #[test]
    fn region_relation_api() {
        let (svc, _broker) = service();
        let rel = svc
            .region_relation("CS/Floor3/3105", "CS/Floor3/LabCorridor")
            .unwrap();
        assert!(matches!(
            rel,
            RegionRelation::ExternallyConnected(mw_reasoning::EcKind::FreePassage)
        ));
        assert!(rel.is_traversable());
    }

    #[test]
    fn usage_region_check() {
        let (svc, _broker) = service();
        svc.add_object(
            SpatialObject::new(
                "DisplayNook",
                "CS/Floor3".parse().unwrap(),
                ObjectType::UsageRegion,
                Geometry::Polygon(Polygon::from_rect(&rect(335.0, 0.0, 345.0, 10.0))),
            )
            .with_attribute("usage-for", "wall-display-1"),
        )
        .unwrap();
        svc.ingest_reading(
            reading("alice", rect(339.0, 4.0, 341.0, 6.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        let usable = svc.can_use(&"alice".into(), "wall-display-1", now).unwrap();
        assert!(usable.holds);
        assert!(usable.probability > 0.5);
        assert!(svc
            .can_use(&"alice".into(), "no-such-display", now)
            .is_err());
    }

    #[test]
    fn rpc_endpoint_roundtrip() {
        let (svc, broker) = service();
        let _handle = svc.serve_on(&broker).unwrap();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let client = broker
            .lookup::<LocationRequest, LocationResponse>(LOCATION_SERVICE_NAME)
            .unwrap();
        let now = SimTime::from_secs(1.0);
        match client
            .call(LocationRequest::Locate {
                object: "alice".into(),
                now,
            })
            .unwrap()
        {
            LocationResponse::Fix(Some(fix)) => {
                assert_eq!(fix.symbolic.unwrap().to_string(), "CS/Floor3/3105");
            }
            other => panic!("unexpected response {other:?}"),
        }
        match client
            .call(LocationRequest::ObjectsInRegion {
                region: "CS/Floor3/3105".into(),
                min_probability: 0.5,
                now,
            })
            .unwrap()
        {
            LocationResponse::Objects(objs) => assert_eq!(objs.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
        match client
            .call(LocationRequest::Locate {
                object: "ghost".into(),
                now,
            })
            .unwrap()
        {
            LocationResponse::Fix(None) => {}
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn band_thresholds_span_deployed_technologies() {
        let (svc, _broker) = service();
        // Declare a weaker technology alongside Ubisense so the band
        // edges spread out (§4.4 uses all deployed sensors).
        svc.register_sensor_type(&SensorSpec::rfid_badge(0.8));
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let fix = svc
            .locate(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        // p ≈ 0.93 exceeds the RFID-derived min threshold: at least medium.
        assert!(fix.band >= ProbabilityBand::Medium, "band={:?}", fix.band);
        let t = svc.band_thresholds();
        assert!(t.lower_bound(ProbabilityBand::Medium) < 0.9);
    }

    #[test]
    fn object_region_distance_euclidean_and_path() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        // Euclidean to the corridor: the room wall is at x = 330, alice's
        // rect starts at 339: distance 9.
        let d = svc
            .object_region_distance(&"alice".into(), "CS/Floor3/LabCorridor", false, now)
            .unwrap()
            .unwrap();
        assert!((d - 9.0).abs() < 1e-9, "d={d}");
        // Path distance goes through the door.
        let p = svc
            .object_region_distance(&"alice".into(), "CS/Floor3/LabCorridor", true, now)
            .unwrap()
            .unwrap();
        assert!(p > d);
        // Unknown region errors.
        assert!(svc
            .object_region_distance(&"alice".into(), "Nope", false, now)
            .is_err());
    }

    #[test]
    fn symbolic_lattice_walk_and_defined_regions() {
        let (svc, _broker) = service();
        // Define the paper's "East wing" and a work region inside 3105.
        svc.define_region(
            &"CS/Floor3/EastWing".parse().unwrap(),
            rect(250.0, 0.0, 500.0, 100.0),
        )
        .unwrap();
        svc.define_region(
            &"CS/Floor3/3105/WorkRegion".parse().unwrap(),
            rect(335.0, 5.0, 345.0, 15.0),
        )
        .unwrap();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let chain = svc
            .symbolic_regions_of(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        let names: Vec<String> = chain.iter().map(ToString::to_string).collect();
        assert_eq!(
            names,
            vec![
                "CS/Floor3/3105/WorkRegion",
                "CS/Floor3/3105",
                "CS/Floor3/EastWing",
                "CS/Floor3",
            ]
        );
        // Privacy caps the revealed depth.
        svc.set_privacy("alice".into(), 2);
        let capped = svc
            .symbolic_regions_of(&"alice".into(), SimTime::from_secs(1.0))
            .unwrap();
        // Region rect is coarsened by privacy to the floor, whose chain
        // only contains depth-2 regions.
        assert!(capped.iter().all(|g| g.depth() <= 2));
        // Duplicate definition errors; root-level glob errors.
        assert!(svc
            .define_region(
                &"CS/Floor3/EastWing".parse().unwrap(),
                rect(0.0, 0.0, 1.0, 1.0)
            )
            .is_err());
        assert!(svc
            .define_region(&"CS".parse().unwrap(), rect(0.0, 0.0, 1.0, 1.0))
            .is_err());
    }

    #[test]
    fn nearest_static_object_finds_suitable_display() {
        let (svc, _broker) = service();
        for (name, x) in [("display-a", 332.0), ("display-b", 348.0)] {
            svc.add_object(
                SpatialObject::new(
                    name,
                    "CS/Floor3".parse().unwrap(),
                    ObjectType::Display,
                    Geometry::Point(Point::new(x, 2.0)),
                )
                .with_attribute("suitable-for-sessions", "true"),
            )
            .unwrap();
        }
        svc.ingest_reading(
            reading("alice", rect(333.0, 9.0, 335.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let hit = svc
            .nearest_static_object(&"alice".into(), SimTime::from_secs(1.0), |o| {
                o.object_type == ObjectType::Display
                    && o.attribute("suitable-for-sessions") == Some("true")
            })
            .unwrap()
            .unwrap();
        assert_eq!(hit.0, "CS/Floor3:display-a");
        assert!(hit.1 < 10.0);
        // No match: None.
        let none = svc
            .nearest_static_object(&"alice".into(), SimTime::from_secs(1.0), |o| {
                o.object_type == ObjectType::Table
            })
            .unwrap();
        assert!(none.is_none());
        // Untracked object errors.
        assert!(svc
            .nearest_static_object(&"ghost".into(), SimTime::ZERO, |_| true)
            .is_err());
    }

    #[test]
    fn reasoner_derives_relations_for_abstract_regions() {
        let (svc, _broker) = service();
        let mut engine = svc.build_reasoner();
        // An abstract "SecureZone" with no geometry: asserted to contain
        // room 3105.
        engine.assert_fact("SecureZone", "CS/Floor3/3105", mw_reasoning::Rcc8::Ntppi);
        engine.close().unwrap();
        // Derived: the corridor (EC with the room) cannot be NTPP inside
        // the zone's interior-disjoint complement... at minimum, the zone
        // overlaps the floor (it contains a room that is inside the floor).
        let zone_floor = engine.query("SecureZone", "CS/Floor3").unwrap();
        assert!(!zone_floor.contains(mw_reasoning::Rcc8::Dc));
        // Geometric pairs stay exact.
        let direct = svc
            .possible_relations("CS/Floor3/3105", "CS/Floor3/LabCorridor")
            .unwrap();
        assert_eq!(direct.as_singleton(), Some(mw_reasoning::Rcc8::Ec));
    }

    #[test]
    fn subscribe_by_location() {
        let (svc, _broker) = service();
        // Subscribe using room-local coordinates: a 10x10 zone in 3105.
        let loc = mw_model::Location::parse("CS/Floor3/3105/(2,2),(12,2),(12,12),(2,12)").unwrap();
        let id = svc
            .subscribe_at(
                &loc,
                SubscriptionSpec::builder()
                    .min_probability(0.5)
                    .object("alice"),
            )
            .unwrap();
        // Alice appears inside that zone (building coords ~ (335, 5)).
        let fired = svc.ingest_reading(
            reading("alice", rect(334.0, 4.0, 336.0, 6.0), 0.0),
            SimTime::ZERO,
        );
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].subscription, id);
        // Unknown prefix errors.
        let bad = mw_model::Location::parse("CS/Nowhere/(1,1)").unwrap();
        assert!(svc
            .subscribe_at(&bad, SubscriptionSpec::builder().min_probability(0.5))
            .is_err());
    }

    #[test]
    fn location_distribution_sums_to_one() {
        let (svc, _broker) = service();
        // Two disjoint-ish readings from different sensors.
        let mut r1 = reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0);
        r1.sensor_id = "Ubi-1".into();
        let mut r2 = reading("alice", rect(338.0, 8.0, 344.0, 14.0), 0.0);
        r2.sensor_id = "RF-1".into();
        svc.ingest_reading(r1, SimTime::ZERO);
        svc.ingest_reading(r2, SimTime::ZERO);
        let dist = svc
            .query(
                LocationQuery::of("alice")
                    .distribution()
                    .at(SimTime::from_secs(1.0)),
            )
            .unwrap();
        let dist = dist.distribution().unwrap();
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(svc
            .query(LocationQuery::of("ghost").distribution())
            .is_err());
    }

    #[test]
    fn sensor_meta_table_populates_on_ingest() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        svc.with_db(|db| {
            let row = db.sensor_meta().get(&"Ubi-18".into()).expect("row exists");
            assert!((row.confidence_percent - 95.0).abs() < 1e-9);
            assert_eq!(row.time_to_live, SimDuration::from_secs(30.0));
        });
    }

    #[test]
    fn resolve_location_via_service() {
        let (svc, _broker) = service();
        let loc = mw_model::Location::parse("CS/Floor3/3105/(5,5)").unwrap();
        let resolved = svc.resolve_location(&loc).unwrap();
        assert_eq!(resolved.center(), Point::new(335.0, 5.0));
    }

    #[test]
    fn rpc_subscribe_and_unsubscribe() {
        let (svc, broker) = service();
        let _server = svc.serve_on(&broker).unwrap();
        let inbox = broker
            .topic::<SharedNotification>(NOTIFICATION_TOPIC)
            .subscribe();
        let client = broker
            .lookup::<LocationRequest, LocationResponse>(LOCATION_SERVICE_NAME)
            .unwrap();
        // Subscribe remotely to room 3105.
        let id = match client
            .call(LocationRequest::Subscribe {
                region: "CS/Floor3/3105".into(),
                min_probability: 0.5,
                object: None,
            })
            .unwrap()
        {
            LocationResponse::Subscribed(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(svc.subscription_count(), 1);
        // Entry fires a notification on the topic.
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let n = inbox
            .recv_timeout(std::time::Duration::from_millis(500))
            .unwrap();
        assert_eq!(n.subscription, id);
        // Unsubscribe remotely.
        match client.call(LocationRequest::Unsubscribe { id }).unwrap() {
            LocationResponse::Unsubscribed => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(svc.subscription_count(), 0);
        // Unknown region and stale id report errors.
        assert!(matches!(
            client
                .call(LocationRequest::Subscribe {
                    region: "Nope".into(),
                    min_probability: 0.5,
                    object: None,
                })
                .unwrap(),
            LocationResponse::Error(_)
        ));
        assert!(matches!(
            client.call(LocationRequest::Unsubscribe { id }).unwrap(),
            LocationResponse::Error(_)
        ));
    }

    #[test]
    fn revocation_removes_location() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert!(svc.locate(&"alice".into(), SimTime::from_secs(1.0)).is_ok());
        svc.ingest(
            AdapterOutput {
                readings: vec![],
                revocations: vec![mw_sensors::Revocation {
                    sensor_id: "Ubi-18".into(),
                    object: "alice".into(),
                }],
            },
            SimTime::from_secs(2.0),
        );
        assert!(svc
            .locate(&"alice".into(), SimTime::from_secs(2.0))
            .is_err());
    }

    // --- region queries: the occupancy snapshot's life cycle ---------------

    /// `(snapshot tag, reading-table version)`.
    fn occupancy_versions(svc: &LocationService) -> (Option<u64>, u64) {
        let version = svc.shard.read().readings_version;
        let tag = svc.shard.occupancy.lock().as_ref().map(|o| o.version);
        (tag, version)
    }

    fn who_is_in(svc: &LocationService, region: &str, now: f64) -> Vec<MobileObjectId> {
        svc.objects_in_region(region, 0.5, SimTime::from_secs(now))
            .unwrap()
            .into_iter()
            .map(|(object, _)| object)
            .collect()
    }

    #[test]
    fn occupancy_snapshot_is_rebuilt_after_every_reading_table_write() {
        let (svc, _broker) = service();
        let in_room = rect(339.0, 9.0, 341.0, 11.0);
        let in_corridor = rect(319.0, 9.0, 321.0, 11.0);
        assert_eq!(occupancy_versions(&svc), (None, 0));

        // Ingest: the query builds the snapshot at the table's version.
        svc.ingest_reading(reading("alice", in_room, 0.0), SimTime::ZERO);
        assert_eq!(occupancy_versions(&svc), (None, 1));
        assert_eq!(who_is_in(&svc, "CS/Floor3/3105", 1.0), vec!["alice".into()]);
        assert_eq!(occupancy_versions(&svc), (Some(1), 1));

        // A supersede leaves the snapshot stale until the next query.
        svc.ingest_reading(reading("alice", in_corridor, 2.0), SimTime::from_secs(2.0));
        assert_eq!(occupancy_versions(&svc), (Some(1), 2));
        assert!(who_is_in(&svc, "CS/Floor3/3105", 3.0).is_empty());
        assert_eq!(
            who_is_in(&svc, "CS/Floor3/LabCorridor", 3.0),
            vec!["alice".into()]
        );
        assert_eq!(occupancy_versions(&svc), (Some(2), 2));

        // So does a revocation.
        svc.ingest(
            AdapterOutput {
                readings: vec![],
                revocations: vec![mw_sensors::Revocation {
                    sensor_id: "Ubi-18".into(),
                    object: "alice".into(),
                }],
            },
            SimTime::from_secs(4.0),
        );
        assert_eq!(occupancy_versions(&svc), (Some(2), 3));
        assert!(who_is_in(&svc, "CS/Floor3/LabCorridor", 4.0).is_empty());
        assert_eq!(occupancy_versions(&svc), (Some(3), 3));

        // And the construction-time seed migration.
        svc.shard
            .seed_readings(vec![reading("alice", in_room, 5.0)]);
        assert_eq!(occupancy_versions(&svc), (Some(3), 4));
        assert_eq!(who_is_in(&svc, "CS/Floor3/3105", 5.0), vec!["alice".into()]);
        assert_eq!(occupancy_versions(&svc), (Some(4), 4));
    }

    #[test]
    fn seeded_database_readings_are_indexed() {
        let mut db = sample_db();
        db.readings_mut()
            .insert(reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0));
        let broker = Broker::new();
        let svc = LocationService::new(db, rect(0.0, 0.0, 500.0, 100.0), &broker);
        assert_eq!(occupancy_versions(&svc), (None, 1));
        assert_eq!(who_is_in(&svc, "CS/Floor3/3105", 1.0), vec!["alice".into()]);
    }

    /// One boxed entry per cached object (20 000 in `city_batch`): the
    /// row mask fits in the bytes the `u32` counts gave up.
    #[test]
    fn cache_entry_stays_at_56_bytes() {
        assert_eq!(std::mem::size_of::<CachedFusion>(), 56);
    }

    /// A re-weight clones the cached result and stores the clone: an
    /// `Arc` a reader already holds keeps its own instant's posteriors.
    #[test]
    fn reweight_leaves_the_shared_result_untouched() {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let svc = LocationService::new_with_obs(
            sample_db(),
            rect(0.0, 0.0, 500.0, 100.0),
            &broker,
            &registry,
        );
        let mut decaying = reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0);
        decaying.tdf = TemporalDegradation::ExponentialHalfLife {
            half_life: SimDuration::from_secs(10.0),
        };
        svc.ingest_reading(decaying, SimTime::ZERO);
        let alice: MobileObjectId = "alice".into();
        let cached = || {
            let state = svc.shard.read();
            let slot = state.slot(&alice).expect("tracked");
            Arc::clone(&state.cache_entry(slot, 0).expect("cached").result)
        };
        let early = svc.locate(&alice, SimTime::from_secs(1.0)).unwrap();
        let held = cached();
        let snapshot = format!("{held:?}");
        let late = svc.locate(&alice, SimTime::from_secs(5.0)).unwrap();
        assert_eq!(
            registry.snapshot().counter("fusion.cache.reweights"),
            Some(1)
        );
        assert!(late.probability < early.probability);
        assert!(!Arc::ptr_eq(&held, &cached()));
        assert_eq!(format!("{held:?}"), snapshot);
    }

    /// A result fused before a writer's batch and stored after it must
    /// never be served: the store keeps the epoch the rows were read
    /// under, so the entry is orphaned on arrival. The lockstep oracles
    /// cannot schedule this race, so it is driven directly.
    #[test]
    fn a_store_that_lost_the_race_is_dropped() {
        let (svc, _broker) = service();
        let alice: MobileObjectId = "alice".into();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1.0);
        // A reader fuses under the read lock …
        let stale = svc
            .shard
            .read()
            .fuse(&alice, now, &HashSet::new(), 0, &svc.engine);
        // … a writer's batch moves alice before the reader stores.
        svc.ingest_reading(
            reading("alice", rect(319.0, 9.0, 321.0, 11.0), 0.5),
            SimTime::from_secs(0.5),
        );
        svc.shard.store_fusion(&alice, stale.entry(now, 0));
        {
            let state = svc.shard.read();
            let slot = state.slot(&alice).expect("tracked");
            assert!(state.cache_entry(slot, 0).is_none());
        }
        let fix = svc.locate(&alice, now).unwrap();
        assert_eq!(fix.symbolic.unwrap().to_string(), "CS/Floor3/LabCorridor");
    }

    #[test]
    fn cache_miss_fusion_store_does_not_rebuild_the_snapshot() {
        let (svc, _broker) = service();
        svc.ingest_reading(
            reading("alice", rect(339.0, 9.0, 341.0, 11.0), 0.0),
            SimTime::ZERO,
        );
        assert_eq!(who_is_in(&svc, "CS/Floor3/3105", 1.0), vec!["alice".into()]);
        assert_eq!(occupancy_versions(&svc), (Some(1), 1));
        // A new query time misses the fusion cache, and storing the fresh
        // result takes the write lock — which must not count as a
        // reading-table write.
        let epoch = svc.object_epoch(&"alice".into());
        svc.locate(&"alice".into(), SimTime::from_secs(2.0))
            .unwrap();
        let state = svc.shard.read();
        let slot = state.slot(&"alice".into()).expect("tracked");
        assert!(state
            .cache_entry(slot, 0)
            .is_some_and(|c| c.now == SimTime::from_secs(2.0)));
        drop(state);
        assert_eq!(svc.object_epoch(&"alice".into()), epoch);
        assert_eq!(occupancy_versions(&svc), (Some(1), 1));
        assert_eq!(who_is_in(&svc, "CS/Floor3/3105", 2.0), vec!["alice".into()]);
        assert_eq!(occupancy_versions(&svc), (Some(1), 1));
    }

    /// The service's whole candidate set for a region far from every
    /// reading holds exactly the objects the bound does not cover.
    #[test]
    fn unbounded_readings_land_on_the_always_list() {
        let far_away = rect(10.0, 60.0, 20.0, 70.0);
        let candidates =
            |svc: &LocationService| svc.shard.region_candidates(&far_away, 500.0 * 100.0).0;
        let in_room = rect(339.0, 9.0, 341.0, 11.0);

        // A plain reading elsewhere is not a candidate …
        let (svc, _broker) = service();
        svc.ingest_reading(reading("alice", in_room, 0.0), SimTime::ZERO);
        svc.ingest_reading(reading("dave", in_room, 0.0), SimTime::ZERO);
        assert!(candidates(&svc).is_empty());

        // … one spanning more cells than the grid enumerates is, …
        let mut huge = reading("alice", rect(-3000.0, -3000.0, 4000.0, 4000.0), 0.0);
        huge.sensor_id = "RF-1".into();
        svc.ingest_reading(huge, SimTime::ZERO);
        assert_eq!(candidates(&svc), vec!["alice".into()]);

        // … and so is a decaying one, and one with `h < q`.
        let (svc, _broker) = service();
        svc.ingest_reading(reading("dave", in_room, 0.0), SimTime::ZERO);
        let mut decaying = reading("bob", in_room, 0.0);
        decaying.tdf = TemporalDegradation::Linear {
            lifetime: SimDuration::from_secs(30.0),
        };
        svc.ingest_reading(decaying, SimTime::ZERO);
        assert_eq!(candidates(&svc), vec!["bob".into()]);
        let mut rarely_carried = reading("carol", in_room, 0.0);
        rarely_carried.spec = SensorSpec::ubisense(0.1);
        svc.ingest_reading(rarely_carried, SimTime::ZERO);
        assert_eq!(candidates(&svc), vec!["bob".into(), "carol".into()]);
    }

    /// The re-check keeps exactly the objects the pruning bound keeps:
    /// two rooms sharing a wall and a hall touching both sit in one
    /// 50-ft cell, so cell membership alone would fuse everyone on the
    /// floor. Wall contact has zero area, so a reading that fills the
    /// neighbouring room or only touches the room's wall is skipped;
    /// the decaying reading elsewhere stays on the always list. Counts,
    /// not timings.
    #[test]
    fn region_scan_keeps_only_positive_area_overlaps() {
        let mut db = SpatialDatabase::new();
        let prefix: mw_model::Glob = "CS/Floor3".parse().unwrap();
        for (name, kind, r) in [
            ("RoomA", ObjectType::Room, rect(0.0, 0.0, 20.0, 30.0)),
            ("RoomB", ObjectType::Room, rect(20.0, 0.0, 40.0, 30.0)),
            ("Hall", ObjectType::Corridor, rect(0.0, 30.0, 48.0, 45.0)),
        ] {
            db.insert_object(SpatialObject::new(
                name,
                prefix.clone(),
                kind,
                Geometry::Polygon(Polygon::from_rect(&r)),
            ))
            .unwrap();
        }
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let svc =
            LocationService::new_with_obs(db, rect(0.0, 0.0, 500.0, 100.0), &broker, &registry);
        for (object, r) in [
            ("a1", rect(5.0, 5.0, 8.0, 8.0)),
            ("a2", rect(12.0, 20.0, 15.0, 24.0)),
            ("b1", rect(25.0, 5.0, 28.0, 8.0)),
            ("b_whole_room", rect(20.0, 0.0, 40.0, 30.0)),
            ("h_on_the_wall", rect(2.0, 30.0, 10.0, 35.0)),
        ] {
            svc.ingest_reading(reading(object, r, 0.0), SimTime::ZERO);
        }
        let mut decaying = reading("d_far", rect(400.0, 50.0, 402.0, 52.0), 0.0);
        decaying.tdf = TemporalDegradation::Linear {
            lifetime: SimDuration::from_secs(30.0),
        };
        svc.ingest_reading(decaying, SimTime::ZERO);

        let room = svc.world_snapshot().region_rect("CS/Floor3/RoomA").unwrap();
        let (candidates, _) = svc.shard.region_candidates(&room, 500.0 * 100.0);
        let expected: Vec<MobileObjectId> = vec!["a1".into(), "a2".into(), "d_far".into()];
        assert_eq!(candidates, expected);

        let mut inside = who_is_in(&svc, "CS/Floor3/RoomA", 1.0);
        inside.sort();
        assert_eq!(inside, vec!["a1".into(), "a2".into()]);
        // The five stored rects of the one cell plus the always entry
        // scanned, three objects kept.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.region.candidates.scanned"), Some(6));
        assert_eq!(snap.counter("core.region.candidates.kept"), Some(3));
    }
}
