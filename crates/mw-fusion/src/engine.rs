//! The fusion engine: the end-to-end pipeline of §4.1–§4.4 for one
//! object's readings.

use std::borrow::Borrow;
use std::collections::HashSet;

use mw_geometry::Rect;
use mw_model::SimTime;
use mw_obs::MetricsRegistry;
use mw_sensors::{SensorId, SensorReading};

use mw_geometry::Point;

use crate::bayes::{posterior_general, SensorEvidence};
use crate::conflict::{self, ConflictOutcome, ConflictRule};
use crate::lattice::RegionLattice;
use crate::smallbuf::SmallBuf;
use crate::{BandThresholds, FusionError, NodeId, ProbabilityBand};

/// Inline capacity of the per-fuse reading buffers: the typical object is
/// seen by well under eight sensors at once, so the whole fuse pipeline
/// runs without heap allocation (the bench gates this).
const READINGS_INLINE: usize = 8;

/// Metric handles updated by [`FusionEngine::fuse`], resolved once at
/// [`FusionEngine::with_metrics`] time (names under `fusion.*`, see
/// `DESIGN.md` §8).
#[derive(Debug, Clone)]
struct FusionMetrics {
    fuse_count: mw_obs::Counter,
    fuse_latency: mw_obs::Histogram,
    /// Histograms, not gauges: fusion runs concurrently across objects
    /// and shards, so a last-writer-wins gauge would report whichever
    /// object happened to fuse last. The old `fusion.lattice.size` /
    /// `fusion.evidence.kept` gauges are gone (see CHANGELOG).
    lattice_size_hist: mw_obs::Histogram,
    evidence_kept_hist: mw_obs::Histogram,
    conflict_none: mw_obs::Counter,
    conflict_moving_wins: mw_obs::Counter,
    conflict_higher_probability_wins: mw_obs::Counter,
}

impl FusionMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        FusionMetrics {
            fuse_count: registry.counter("fusion.fuse.count"),
            fuse_latency: registry.histogram("fusion.fuse.latency_us"),
            lattice_size_hist: registry.histogram("fusion.lattice.size"),
            evidence_kept_hist: registry.histogram("fusion.evidence.kept"),
            conflict_none: registry.counter("fusion.conflict.none"),
            conflict_moving_wins: registry.counter("fusion.conflict.moving_wins"),
            conflict_higher_probability_wins: registry
                .counter("fusion.conflict.higher_probability_wins"),
        }
    }

    fn record(&self, result: &FusionResult, elapsed: std::time::Duration) {
        self.fuse_count.inc();
        self.fuse_latency.observe(elapsed);
        self.lattice_size_hist.record(result.lattice.len() as u64);
        self.evidence_kept_hist
            .record(result.conflict.kept.len() as u64);
        match result.conflict.rule {
            ConflictRule::NoConflict => self.conflict_none.inc(),
            ConflictRule::MovingWins => self.conflict_moving_wins.inc(),
            ConflictRule::HigherProbabilityWins => self.conflict_higher_probability_wins.inc(),
        }
    }
}

/// A location estimate for one object: the most specific region the
/// sensors support, with its posterior probability and band.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The estimated region (an MBR in universe coordinates).
    pub region: Rect,
    /// Equation-7 posterior that the object is inside `region`.
    pub probability: f64,
    /// The §4.4 qualitative band of `probability`.
    pub band: ProbabilityBand,
}

/// The full result of fusing one object's readings.
#[derive(Debug, Clone)]
pub struct FusionResult {
    lattice: RegionLattice,
    conflict: ConflictOutcome,
    thresholds: BandThresholds,
    kept_sensors: SmallBuf<SensorId, READINGS_INLINE>,
    discarded_sensors: SmallBuf<SensorId, READINGS_INLINE>,
}

impl FusionResult {
    /// Sensors whose readings survived conflict resolution and
    /// contributed evidence to the lattice.
    #[must_use]
    pub fn kept_sensors(&self) -> &[SensorId] {
        self.kept_sensors.as_slice()
    }

    /// Sensors whose live readings were discarded by conflict resolution
    /// (§4.1.2) — the supervision layer's chronic-conflict-loss signal.
    #[must_use]
    pub fn discarded_sensors(&self) -> &[SensorId] {
        self.discarded_sensors.as_slice()
    }

    /// The spatial probability lattice (Figures 5–6).
    #[must_use]
    pub fn lattice(&self) -> &RegionLattice {
        &self.lattice
    }

    /// Mutable access to the lattice, e.g. for inserting query regions.
    pub fn lattice_mut(&mut self) -> &mut RegionLattice {
        &mut self.lattice
    }

    /// How the conflict-resolution rules were applied.
    #[must_use]
    pub fn conflict(&self) -> &ConflictOutcome {
        &self.conflict
    }

    /// The probability-band thresholds derived from the contributing
    /// sensors.
    #[must_use]
    pub fn thresholds(&self) -> &BandThresholds {
        &self.thresholds
    }

    /// The single best estimate (§4.2): among the parents of Bottom (the
    /// smallest regions), the one with the highest posterior. `None` when
    /// no live readings exist.
    #[must_use]
    pub fn best_estimate(&self) -> Option<Estimate> {
        let best = self
            .lattice
            .minimal_region_slice()
            .iter()
            .copied()
            .filter(|&id| id != self.lattice.top())
            .max_by(|&a, &b| {
                let pa = self.lattice.probability(a).unwrap_or(0.0);
                let pb = self.lattice.probability(b).unwrap_or(0.0);
                pa.total_cmp(&pb)
            })?;
        if best == self.lattice.bottom() {
            return None;
        }
        let probability = self.lattice.probability(best).ok()?;
        let region = self.lattice.region(best).ok()?;
        Some(Estimate {
            region,
            probability,
            band: self.thresholds.classify(probability),
        })
    }

    /// The §4.2 region-based query: the probability that the object is
    /// inside `region`, by inserting its MBR into the lattice and
    /// evaluating Equation 7.
    pub fn region_probability(&mut self, region: Rect) -> Result<f64, FusionError> {
        let id: NodeId = self.lattice.insert_query_region(region);
        self.lattice.probability(id)
    }

    /// Like [`FusionResult::region_probability`] but classified into a
    /// band.
    pub fn region_band(&mut self, region: Rect) -> Result<ProbabilityBand, FusionError> {
        let p = self.region_probability(region)?;
        Ok(self.thresholds.classify(p))
    }

    /// Evaluates Equation 7 for `region` against the surviving evidence
    /// *without* inserting the region into the lattice — the fast path
    /// for trigger matching (§4.3), where thousands of watched regions
    /// are checked per update.
    #[must_use]
    pub fn region_probability_fast(&self, region: &Rect) -> f64 {
        posterior_general(self.lattice.evidence(), region, &self.lattice.universe())
    }

    /// The union MBR of the surviving sensor evidence, or `None` with no
    /// live evidence.
    #[must_use]
    pub fn evidence_window(&self) -> Option<Rect> {
        let mut rects = self.lattice.evidence().iter().map(|e| e.region);
        let first = rects.next()?;
        Some(rects.fold(first, |acc, r| acc.union(&r)))
    }

    /// The individual surviving evidence rectangles, in evidence order.
    /// Trigger matching prunes watched regions against these — per
    /// rect, not the union MBR of
    /// [`evidence_window`](FusionResult::evidence_window): when a
    /// fast-moving object holds one aged reading and one fresh reading
    /// far apart, the union box sweeps every watched region *between*
    /// them, none of which the evidence actually touches.
    pub fn evidence_regions(&self) -> impl Iterator<Item = Rect> + '_ {
        self.lattice.evidence().iter().map(|e| e.region)
    }
}

/// The live view as a row mask over `rows` input rows; `None` when the
/// rows do not fit in 64 bits.
fn live_mask(live: &[u32], rows: usize) -> Option<u64> {
    (rows <= 64).then(|| live.iter().fold(0u64, |mask, &i| mask | 1 << i))
}

/// The multi-sensor fusion engine for a deployment with a fixed universe
/// (the whole floor/building area, `U` in the paper).
#[derive(Debug, Clone)]
pub struct FusionEngine {
    universe: Rect,
    /// Motion-model extension: ft/s by which aging readings' regions
    /// grow. 0 disables (the paper's model).
    aging_inflation_ft_per_s: f64,
    /// Observability handles; `None` keeps fusion unmeasured.
    metrics: Option<FusionMetrics>,
}

impl FusionEngine {
    /// Creates an engine for the given universe rectangle.
    #[must_use]
    pub fn new(universe: Rect) -> Self {
        FusionEngine {
            universe,
            aging_inflation_ft_per_s: 0.0,
            metrics: None,
        }
    }

    /// Publishes fusion metrics (`fusion.*`: fuse count/latency,
    /// lattice-size and surviving-evidence histograms, conflict-rule
    /// counters) to `registry` on every [`FusionEngine::fuse`].
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.bind_metrics(registry);
        self
    }

    /// In-place variant of [`FusionEngine::with_metrics`].
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(FusionMetrics::new(registry));
    }

    /// Enables the motion-model extension: every reading's rectangle is
    /// inflated by `speed × age` before fusion, modeling that an aging
    /// reading constrains the person to a *growing* region rather than a
    /// stale point (see `EXPERIMENTS.md`, posterior-calibration section —
    /// confidence decay alone cannot calibrate the mid-range). `0.0`
    /// (the default) disables the extension; a typical walking speed is
    /// 4 ft/s.
    ///
    /// # Panics
    ///
    /// Panics when `speed` is negative or not finite.
    #[must_use]
    pub fn with_aging_inflation(mut self, speed_ft_per_s: f64) -> Self {
        assert!(
            speed_ft_per_s.is_finite() && speed_ft_per_s >= 0.0,
            "inflation speed must be finite and non-negative"
        );
        self.aging_inflation_ft_per_s = speed_ft_per_s;
        self
    }

    /// The universe area `U`.
    #[must_use]
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// The motion-model inflation speed in ft/s (`0.0` = disabled, the
    /// paper's model). While it is positive, evidence rects outgrow the
    /// stored reading rects, so nothing may be inferred from the latter.
    #[must_use]
    pub fn aging_inflation(&self) -> f64 {
        self.aging_inflation_ft_per_s
    }

    /// Applies the aging motion model to one reading's region.
    fn aged_region(&self, reading: &SensorReading, now: SimTime) -> Rect {
        if self.aging_inflation_ft_per_s <= 0.0 {
            return reading.region;
        }
        let age = now.saturating_since(reading.detected_at).as_secs();
        let grown = reading.region.inflated(self.aging_inflation_ft_per_s * age);
        grown.intersection(&self.universe).unwrap_or(reading.region)
    }

    /// Runs the full pipeline over one object's readings at time `now`:
    /// drops expired readings, resolves conflicts, builds the lattice and
    /// computes all posteriors.
    ///
    /// # Panics
    ///
    /// Panics if the engine was constructed with a zero-area universe
    /// (prevented by [`FusionEngine::new`] callers in this workspace).
    #[must_use]
    pub fn fuse(&self, readings: &[SensorReading], now: SimTime) -> FusionResult {
        static NO_EXCLUSIONS: std::sync::OnceLock<HashSet<SensorId>> = std::sync::OnceLock::new();
        self.fuse_excluding(readings, now, NO_EXCLUSIONS.get_or_init(HashSet::new))
    }

    /// Like [`FusionEngine::fuse`], but readings from `quarantined`
    /// sensors are dropped before conflict resolution — they never
    /// contribute evidence to the lattice. This is how the supervision
    /// layer ([`mw_sensors::health`]) removes misbehaving sensors from
    /// the fused picture while their earlier (pre-quarantine) readings
    /// may still be live in the spatial database.
    ///
    /// `readings` may be owned readings or borrowed rows (the Location
    /// Service fuses its shard's rows in place); expired rows are
    /// dropped here, so callers need not filter them.
    ///
    /// # Panics
    ///
    /// Panics if the engine was constructed with a zero-area universe
    /// (prevented by [`FusionEngine::new`] callers in this workspace).
    #[must_use]
    pub fn fuse_excluding<R: Borrow<SensorReading>>(
        &self,
        readings: &[R],
        now: SimTime,
        quarantined: &HashSet<SensorId>,
    ) -> FusionResult {
        self.fuse_with_live_mask(readings, now, quarantined).0
    }

    /// [`FusionEngine::fuse_excluding`], plus the live view it fused as
    /// a row mask (bit `i` set when `readings[i]` was live) — the token
    /// [`FusionEngine::reweight`] checks. `None` over 64 rows.
    #[must_use]
    pub fn fuse_with_live_mask<R: Borrow<SensorReading>>(
        &self,
        readings: &[R],
        now: SimTime,
        quarantined: &HashSet<SensorId>,
    ) -> (FusionResult, Option<u64>) {
        let started = std::time::Instant::now();
        // 1. Keep only live readings from non-quarantined sensors,
        //    applying the aging motion model.
        let (live, aged) = self.live_view(readings, now, quarantined);

        // 2. Conflict resolution between disjoint components. Outcome
        //    indices refer to positions in the `live` view, exactly as
        //    they referred to the filtered list before.
        let conflict = conflict::resolve_subset(
            readings,
            live.as_slice(),
            aged.as_slice(),
            &self.universe,
            now,
        );

        // 3. Evidence for the survivors, with temporally degraded p_i,
        //    and band thresholds from the (pre-degradation) accuracies.
        let mut evidence: SmallBuf<SensorEvidence, READINGS_INLINE> = SmallBuf::default();
        let mut ps: SmallBuf<f64, READINGS_INLINE> = SmallBuf::default();
        for &k in conflict.kept.as_slice() {
            let r: &SensorReading = readings[live.as_slice()[k] as usize].borrow();
            evidence.push(self.evidence(r, aged.as_slice()[k], now));
            ps.push(r.spec.hit_probability());
        }
        let thresholds = BandThresholds::from_sensor_accuracies(ps.as_slice());

        // Sensor ids are `Arc<str>`s: cloning bumps a refcount, and the
        // inline buffers are pre-filled from one shared empty id.
        static EMPTY_ID: std::sync::OnceLock<SensorId> = std::sync::OnceLock::new();
        let empty_id = EMPTY_ID.get_or_init(|| SensorId::from(""));
        let sensor_of = |k: usize| {
            readings[live.as_slice()[k] as usize]
                .borrow()
                .sensor_id
                .clone()
        };
        let mut kept_sensors: SmallBuf<SensorId, READINGS_INLINE> = SmallBuf::filled(empty_id);
        for &k in conflict.kept.as_slice() {
            kept_sensors.push(sensor_of(k));
        }
        let mut discarded_sensors: SmallBuf<SensorId, READINGS_INLINE> = SmallBuf::filled(empty_id);
        for &k in conflict.discarded.as_slice() {
            discarded_sensors.push(sensor_of(k));
        }

        let lattice = RegionLattice::build_from_buf(self.universe, evidence)
            .expect("engine universe has positive area");
        let result = FusionResult {
            lattice,
            conflict,
            thresholds,
            kept_sensors,
            discarded_sensors,
        };
        if let Some(metrics) = &self.metrics {
            metrics.record(&result, started.elapsed());
        }
        (result, live_mask(live.as_slice(), readings.len()))
    }

    /// Re-weights `cached` — a result fused by
    /// [`FusionEngine::fuse_with_live_mask`] from these same `readings`
    /// (same rows, same order) and the same exclusion set at another
    /// instant, whose live view was `cached_mask` — to `now`. Returns
    /// `None` when only a full fuse can answer: aging inflation is on,
    /// the live view at `now` differs, or conflict resolution at `now`
    /// picks a different outcome.
    ///
    /// Bit-identical to `fuse_excluding(readings, now, quarantined)`.
    /// With no inflation the evidence regions are the reading regions,
    /// and an equal live view means the same readings in the same
    /// order. Conflict resolution then sees the same regions: a cached
    /// [`ConflictRule::NoConflict`] (one connected component, decided by
    /// geometry alone) holds at any instant, and any other outcome,
    /// which may depend on the decayed `p_i`, is re-run and must be
    /// equal. Equal survivors give the same evidence regions in the same
    /// order, hence the same lattice nodes and edges (both derived from
    /// the regions only), the same band thresholds (pre-degradation
    /// accuracies) and the same kept/discarded sensors. What moves with
    /// the clock is each survivor's `p_i`: it is recomputed through the
    /// same `SensorEvidence::new(region, hit_probability_at(now),
    /// false_positive_probability(area))` call, and
    /// `RegionLattice::recompute_probabilities` then makes the same
    /// `posterior_general` calls, in the same node order, that a fresh
    /// build makes. The result is a clone: `cached` itself, which may be
    /// shared, is never mutated. No `fusion.*` metric is recorded.
    #[must_use]
    pub fn reweight<R: Borrow<SensorReading>>(
        &self,
        cached: &FusionResult,
        cached_mask: u64,
        readings: &[R],
        now: SimTime,
        quarantined: &HashSet<SensorId>,
    ) -> Option<FusionResult> {
        if self.aging_inflation_ft_per_s > 0.0 {
            return None;
        }
        let (live, aged) = self.live_view(readings, now, quarantined);
        if live_mask(live.as_slice(), readings.len()) != Some(cached_mask) {
            return None;
        }
        if cached.conflict.rule != ConflictRule::NoConflict {
            let conflict = conflict::resolve_subset(
                readings,
                live.as_slice(),
                aged.as_slice(),
                &self.universe,
                now,
            );
            if conflict != cached.conflict {
                return None;
            }
        }
        let mut result = cached.clone();
        let kept = cached.conflict.kept.as_slice();
        for (e, &k) in result.lattice.evidence_mut().iter_mut().zip(kept) {
            let r: &SensorReading = readings[live.as_slice()[k] as usize].borrow();
            *e = self.evidence(r, aged.as_slice()[k], now);
        }
        result.lattice.recompute_probabilities();
        Some(result)
    }

    /// The live view of `readings` at `now`: indices of the unexpired
    /// rows from non-quarantined sensors with a positive hit
    /// probability, plus their aged regions. Indices and a parallel
    /// buffer replace an owned filtered `Vec` — no cloning, no
    /// allocation.
    fn live_view<R: Borrow<SensorReading>>(
        &self,
        readings: &[R],
        now: SimTime,
        quarantined: &HashSet<SensorId>,
    ) -> (
        SmallBuf<u32, READINGS_INLINE>,
        SmallBuf<Rect, READINGS_INLINE>,
    ) {
        let mut live: SmallBuf<u32, READINGS_INLINE> = SmallBuf::default();
        let mut aged: SmallBuf<Rect, READINGS_INLINE> =
            SmallBuf::filled(&Rect::from_point(Point::ORIGIN));
        #[allow(clippy::cast_possible_truncation)]
        for (i, r) in readings.iter().enumerate() {
            let r = r.borrow();
            if !quarantined.contains(&r.sensor_id)
                && !r.is_expired(now)
                && r.hit_probability_at(now) > 0.0
            {
                live.push(i as u32);
                aged.push(self.aged_region(r, now));
            }
        }
        (live, aged)
    }

    /// One survivor's evidence at `now`, over its (aged) region.
    fn evidence(&self, reading: &SensorReading, region: Rect, now: SimTime) -> SensorEvidence {
        SensorEvidence::new(
            region,
            reading.hit_probability_at(now),
            reading.false_positive_probability(self.universe.area()),
        )
    }

    /// Direct Equation-7 evaluation without building a lattice — the fast
    /// path used by trigger matching (§4.3).
    #[must_use]
    pub fn region_probability_direct(
        &self,
        readings: &[SensorReading],
        region: &Rect,
        now: SimTime,
    ) -> f64 {
        let evidence: Vec<SensorEvidence> = readings
            .iter()
            .filter(|r| !r.is_expired(now))
            .map(|r| self.evidence(r, self.aged_region(r, now), now))
            .collect();
        posterior_general(&evidence, region, &self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_geometry::Point;
    use mw_model::{SimDuration, TemporalDegradation};
    use mw_sensors::SensorSpec;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn reading(region: Rect, moving: bool, spec: SensorSpec, at: f64, ttl: f64) -> SensorReading {
        SensorReading {
            sensor_id: "s".into(),
            spec,
            object: "alice".into(),
            glob_prefix: "SC/3".parse().unwrap(),
            region,
            detected_at: SimTime::from_secs(at),
            time_to_live: SimDuration::from_secs(ttl),
            tdf: TemporalDegradation::None,
            moving,
        }
    }

    fn engine() -> FusionEngine {
        FusionEngine::new(r(0.0, 0.0, 500.0, 100.0))
    }

    /// The service caches one result per tracked object, so its inline
    /// capacities are paid once per person: 5 000 people at 2 000 B is
    /// 10 MB of cache.
    #[test]
    fn cached_result_stays_under_two_kilobytes() {
        let size = std::mem::size_of::<FusionResult>();
        assert!(size <= 2_000, "size_of::<FusionResult>() = {size}");
    }

    #[test]
    fn no_readings_gives_no_estimate() {
        let result = engine().fuse(&[], SimTime::ZERO);
        assert!(result.best_estimate().is_none());
    }

    #[test]
    fn single_reading_estimate() {
        // Carried badge (x = 1): the posterior approaches the detection
        // probability. (With x < 1 the paper's model caps the posterior
        // far lower — see bayes::carry_probability_dominates… .)
        let readings = vec![reading(
            r(10.0, 10.0, 11.0, 11.0),
            false,
            SensorSpec::ubisense(1.0),
            0.0,
            60.0,
        )];
        let result = engine().fuse(&readings, SimTime::ZERO);
        let est = result.best_estimate().unwrap();
        assert_eq!(est.region, r(10.0, 10.0, 11.0, 11.0));
        assert!(est.probability > 0.9, "p={}", est.probability);
    }

    #[test]
    fn reinforcing_readings_narrow_the_estimate() {
        let readings = vec![
            reading(
                r(10.0, 10.0, 30.0, 30.0),
                false,
                SensorSpec::rfid_badge(0.8),
                0.0,
                60.0,
            ),
            reading(
                r(18.0, 18.0, 22.0, 22.0),
                false,
                SensorSpec::ubisense(0.9),
                0.0,
                60.0,
            ),
        ];
        let result = engine().fuse(&readings, SimTime::ZERO);
        let est = result.best_estimate().unwrap();
        // The best estimate is the small Ubisense rectangle (inside RFID's).
        assert_eq!(est.region, r(18.0, 18.0, 22.0, 22.0));
        // And reinforcement beats a single Ubisense reading alone.
        let single = engine().fuse(&readings[1..], SimTime::ZERO);
        assert!(est.probability > single.best_estimate().unwrap().probability);
    }

    #[test]
    fn expired_readings_are_ignored() {
        let readings = vec![reading(
            r(10.0, 10.0, 11.0, 11.0),
            false,
            SensorSpec::ubisense(0.9),
            0.0,
            5.0,
        )];
        let result = engine().fuse(&readings, SimTime::from_secs(10.0));
        assert!(result.best_estimate().is_none());
    }

    #[test]
    fn conflicting_readings_resolved_before_fusion() {
        let readings = vec![
            reading(
                r(10.0, 10.0, 12.0, 12.0),
                true,
                SensorSpec::ubisense(0.9),
                0.0,
                60.0,
            ),
            reading(
                r(400.0, 80.0, 420.0, 95.0),
                false,
                SensorSpec::rfid_badge(0.8),
                0.0,
                60.0,
            ),
        ];
        let result = engine().fuse(&readings, SimTime::ZERO);
        assert!(result.conflict().had_conflict());
        let est = result.best_estimate().unwrap();
        assert_eq!(est.region, r(10.0, 10.0, 12.0, 12.0)); // moving wins
    }

    #[test]
    fn region_query_on_result() {
        let readings = vec![
            reading(
                r(10.0, 10.0, 20.0, 20.0),
                false,
                SensorSpec::ubisense(1.0),
                0.0,
                60.0,
            ),
            reading(
                r(8.0, 8.0, 18.0, 18.0),
                false,
                SensorSpec::biometric_short_term(),
                0.0,
                60.0,
            ),
        ];
        let mut result = engine().fuse(&readings, SimTime::ZERO);
        let p_near = result.region_probability(r(5.0, 5.0, 25.0, 25.0)).unwrap();
        let p_far = result
            .region_probability(r(300.0, 50.0, 320.0, 70.0))
            .unwrap();
        assert!(p_near > p_far);
        assert!(p_near > 0.9, "p_near={p_near}");
        let band = result.region_band(r(5.0, 5.0, 25.0, 25.0)).unwrap();
        assert!(band >= ProbabilityBand::Medium, "band={band:?}");
    }

    #[test]
    fn direct_region_probability_matches_lattice_query() {
        let readings = vec![
            reading(
                r(10.0, 10.0, 30.0, 30.0),
                false,
                SensorSpec::rfid_badge(0.8),
                0.0,
                60.0,
            ),
            reading(
                r(18.0, 18.0, 22.0, 22.0),
                false,
                SensorSpec::ubisense(0.9),
                0.0,
                60.0,
            ),
        ];
        let e = engine();
        let region = r(15.0, 15.0, 25.0, 25.0);
        let direct = e.region_probability_direct(&readings, &region, SimTime::ZERO);
        let mut result = e.fuse(&readings, SimTime::ZERO);
        let via_lattice = result.region_probability(region).unwrap();
        assert!((direct - via_lattice).abs() < 1e-12);
    }

    #[test]
    fn band_classification_tracks_sensor_quality() {
        // A strong sensor stack (both reliably carried): the estimate
        // lands in at least the medium band despite the tiny region.
        let readings = vec![
            reading(
                r(10.0, 10.0, 12.0, 12.0),
                false,
                SensorSpec::biometric_short_term(),
                0.0,
                60.0,
            ),
            reading(
                r(9.0, 9.0, 13.0, 13.0),
                false,
                SensorSpec::ubisense(1.0),
                0.0,
                60.0,
            ),
        ];
        let result = engine().fuse(&readings, SimTime::ZERO);
        let est = result.best_estimate().unwrap();
        assert!(est.probability > 0.9, "p={}", est.probability);
        assert!(est.band >= ProbabilityBand::Medium, "band={:?}", est.band);
        // A weak stack (badge often left behind): low band.
        let weak = vec![reading(
            r(10.0, 10.0, 12.0, 12.0),
            false,
            SensorSpec::rfid_badge(0.6),
            0.0,
            60.0,
        )];
        let weak_est = engine().fuse(&weak, SimTime::ZERO).best_estimate().unwrap();
        assert!(
            weak_est.band == ProbabilityBand::Low,
            "band={:?}",
            weak_est.band
        );
        assert!(weak_est.probability < est.probability);
    }

    #[test]
    fn aging_inflation_grows_the_estimate() {
        let mut r0 = reading(
            r(100.0, 50.0, 102.0, 52.0),
            false,
            SensorSpec::ubisense(1.0),
            0.0,
            100.0,
        );
        r0.tdf = TemporalDegradation::None;
        let plain = FusionEngine::new(r(0.0, 0.0, 500.0, 100.0));
        let moving = FusionEngine::new(r(0.0, 0.0, 500.0, 100.0)).with_aging_inflation(4.0);
        assert_eq!(plain.aging_inflation(), 0.0);
        assert_eq!(moving.aging_inflation(), 4.0);
        let now = SimTime::from_secs(10.0);
        let est_plain = plain
            .fuse(std::slice::from_ref(&r0), now)
            .best_estimate()
            .unwrap();
        let est_moving = moving
            .fuse(std::slice::from_ref(&r0), now)
            .best_estimate()
            .unwrap();
        // 10 s × 4 ft/s = 40 ft of growth each side.
        assert_eq!(est_plain.region, r0.region);
        assert!(est_moving.region.contains_rect(&r0.region));
        assert!(est_moving.region.width() > 80.0);
        // At detection time the two engines agree exactly.
        let at_zero_plain = plain.fuse(std::slice::from_ref(&r0), SimTime::ZERO);
        let at_zero_moving = moving.fuse(std::slice::from_ref(&r0), SimTime::ZERO);
        assert_eq!(
            at_zero_plain.best_estimate().unwrap().region,
            at_zero_moving.best_estimate().unwrap().region
        );
    }

    #[test]
    fn aging_inflation_clamps_to_universe() {
        let universe = r(0.0, 0.0, 500.0, 100.0);
        let mut r0 = reading(
            r(1.0, 1.0, 3.0, 3.0),
            false,
            SensorSpec::ubisense(1.0),
            0.0,
            1e6,
        );
        r0.tdf = TemporalDegradation::None;
        let engine = FusionEngine::new(universe).with_aging_inflation(10.0);
        let est = engine
            .fuse(std::slice::from_ref(&r0), SimTime::from_secs(1e5))
            .best_estimate()
            .unwrap();
        assert!(universe.contains_rect(&est.region));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_inflation_rejected() {
        let _ = FusionEngine::new(r(0.0, 0.0, 1.0, 1.0)).with_aging_inflation(-1.0);
    }

    #[test]
    fn fuse_records_metrics() {
        let registry = MetricsRegistry::new();
        let e = engine().with_metrics(&registry);
        let readings = vec![
            reading(
                r(10.0, 10.0, 12.0, 12.0),
                true,
                SensorSpec::ubisense(0.9),
                0.0,
                60.0,
            ),
            reading(
                r(400.0, 80.0, 420.0, 95.0),
                false,
                SensorSpec::rfid_badge(0.8),
                0.0,
                60.0,
            ),
        ];
        let result = e.fuse(&readings, SimTime::ZERO);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fusion.fuse.count"), Some(1));
        // The per-fuse sizes land in histograms; the old last-writer-wins
        // gauges are gone.
        assert_eq!(snap.gauge("fusion.lattice.size"), None);
        assert_eq!(snap.gauge("fusion.evidence.kept"), None);
        let lattice_hist = snap.histogram("fusion.lattice.size").unwrap();
        assert_eq!(lattice_hist.count, 1);
        assert_eq!(lattice_hist.sum, result.lattice().len() as u64);
        let kept_hist = snap.histogram("fusion.evidence.kept").unwrap();
        assert_eq!(kept_hist.count, 1);
        assert_eq!(kept_hist.sum, 1, "one survivor of the conflict");
        assert_eq!(snap.counter("fusion.conflict.moving_wins"), Some(1));
        assert_eq!(snap.counter("fusion.conflict.none"), Some(0));
        assert_eq!(snap.histogram("fusion.fuse.latency_us").unwrap().count, 1);
        // A second fuse with clean readings hits the no-conflict counter.
        let _ = e.fuse(&readings[..1], SimTime::ZERO);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fusion.fuse.count"), Some(2));
        assert_eq!(snap.counter("fusion.conflict.none"), Some(1));
        assert_eq!(snap.histogram("fusion.evidence.kept").unwrap().count, 2);
    }

    #[test]
    fn excluded_sensors_never_reach_the_lattice() {
        let mut near = reading(
            r(10.0, 10.0, 12.0, 12.0),
            false,
            SensorSpec::ubisense(1.0),
            0.0,
            60.0,
        );
        near.sensor_id = "ubi-good".into();
        let mut far = reading(
            r(400.0, 80.0, 420.0, 95.0),
            false,
            SensorSpec::ubisense(1.0),
            0.0,
            60.0,
        );
        far.sensor_id = "ubi-bad".into();
        let e = engine();
        let readings = vec![near.clone(), far];

        // Excluding the far sensor leaves only the near one: no
        // conflict, estimate identical to fusing the near reading alone.
        let excluded: HashSet<_> = [mw_sensors::SensorId::from("ubi-bad")].into();
        let result = e.fuse_excluding(&readings, SimTime::ZERO, &excluded);
        assert!(!result.conflict().had_conflict());
        assert_eq!(result.kept_sensors(), &["ubi-good".into()]);
        assert!(result.discarded_sensors().is_empty());
        let alone = e.fuse(std::slice::from_ref(&near), SimTime::ZERO);
        assert_eq!(
            result.best_estimate().unwrap(),
            alone.best_estimate().unwrap()
        );

        // Without exclusions, fuse() resolves the conflict and reports
        // the loser by sensor id.
        let result = e.fuse(&readings, SimTime::ZERO);
        assert!(result.conflict().had_conflict());
        assert_eq!(
            result.kept_sensors().len() + result.discarded_sensors().len(),
            2
        );
        // Excluding everything yields an empty (but valid) result.
        let all: HashSet<_> = [
            mw_sensors::SensorId::from("ubi-good"),
            mw_sensors::SensorId::from("ubi-bad"),
        ]
        .into();
        let empty = e.fuse_excluding(&readings, SimTime::ZERO, &all);
        assert!(empty.best_estimate().is_none());
        assert!(empty.kept_sensors().is_empty());
    }

    /// Two decaying readings (one per component when `apart`) fused at
    /// `t0`, then re-weighted to `t1`.
    fn reweight_case(apart: bool, t0: f64, t1: f64) -> (Option<FusionResult>, FusionResult) {
        let decaying = |sensor: &str, region: Rect, spec: SensorSpec, life: f64| {
            let mut r = reading(region, false, spec, 0.0, 100.0);
            r.sensor_id = sensor.into();
            r.tdf = TemporalDegradation::Linear {
                lifetime: SimDuration::from_secs(life),
            };
            r
        };
        let far = if apart {
            r(300.0, 10.0, 302.0, 12.0)
        } else {
            r(11.0, 11.0, 30.0, 30.0)
        };
        let readings = vec![
            decaying(
                "a",
                r(10.0, 10.0, 12.0, 12.0),
                SensorSpec::ubisense(1.0),
                20.0,
            ),
            decaying("b", far, SensorSpec::rfid_badge(1.0), 90.0),
        ];
        let e = engine();
        let none = HashSet::new();
        let (cached, mask) = e.fuse_with_live_mask(&readings, SimTime::from_secs(t0), &none);
        let at = SimTime::from_secs(t1);
        let reweighted = e.reweight(&cached, mask.unwrap(), &readings, at, &none);
        (reweighted, e.fuse(&readings, at))
    }

    #[test]
    fn reweight_equals_a_fresh_fuse() {
        let (reweighted, fresh) = reweight_case(false, 1.0, 7.0);
        assert_eq!(format!("{:?}", reweighted.unwrap()), format!("{fresh:?}"));
        // Two components: the conflict is re-run and still agrees.
        let (reweighted, fresh) = reweight_case(true, 1.0, 2.0);
        assert_eq!(fresh.conflict().rule, ConflictRule::HigherProbabilityWins);
        assert_eq!(format!("{:?}", reweighted.unwrap()), format!("{fresh:?}"));
    }

    #[test]
    fn reweight_bails_when_only_a_full_fuse_can_answer() {
        // "a" decays to zero by t = 20: the live view shrinks.
        assert!(reweight_case(false, 1.0, 25.0).0.is_none());
        // The stronger but faster-decaying "a" wins early, "b" late.
        let (early, late) = (
            reweight_case(true, 1.0, 1.0).1,
            reweight_case(true, 1.0, 19.0).1,
        );
        assert_ne!(early.kept_sensors(), late.kept_sensors());
        assert!(reweight_case(true, 1.0, 19.0).0.is_none());
        // Aging inflation moves the regions with the clock.
        let mut aged = reading(
            r(10.0, 10.0, 12.0, 12.0),
            false,
            SensorSpec::ubisense(0.9),
            0.0,
            100.0,
        );
        aged.tdf = TemporalDegradation::None;
        let e = engine().with_aging_inflation(4.0);
        let none = HashSet::new();
        let readings = [aged];
        let (cached, mask) = e.fuse_with_live_mask(&readings, SimTime::ZERO, &none);
        assert!(e
            .reweight(
                &cached,
                mask.unwrap(),
                &readings,
                SimTime::from_secs(1.0),
                &none
            )
            .is_none());
    }

    #[test]
    fn degraded_reading_weakens_estimate() {
        let mut early = reading(
            r(10.0, 10.0, 12.0, 12.0),
            false,
            SensorSpec::ubisense(0.9),
            0.0,
            100.0,
        );
        early.tdf = TemporalDegradation::Linear {
            lifetime: SimDuration::from_secs(100.0),
        };
        let e = engine();
        let fresh = e.fuse(std::slice::from_ref(&early), SimTime::ZERO);
        let stale = e.fuse(std::slice::from_ref(&early), SimTime::from_secs(80.0));
        let p_fresh = fresh.best_estimate().unwrap().probability;
        let p_stale = stale.best_estimate().unwrap().probability;
        assert!(p_stale < p_fresh);
    }
}
