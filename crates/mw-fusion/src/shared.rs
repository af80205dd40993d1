//! A shareable, copy-on-write view over a [`FusionResult`].
//!
//! The Location Service caches fusion results per object and hands the
//! same lattice to many concurrent readers (queries, trigger matching,
//! distribution snapshots). Cached lattices must never be mutated: a
//! query that inserts its region into a shared lattice would corrupt
//! every later reader's node set. [`SharedFusion`] makes that contract
//! structural:
//!
//! - probability evaluation ([`SharedFusion::region_probability`]) is
//!   read-only — it evaluates Equation 7 directly against the surviving
//!   evidence, which is bit-identical to inserting a query node and
//!   reading its posterior ([`RegionLattice::insert_query_region`]
//!   computes the node's probability with the very same
//!   `posterior_general` call),
//! - callers that genuinely need a query *node* in the lattice go
//!   through [`SharedFusion::insert_query_region`], which clones the
//!   underlying result on first mutation (copy-on-write) so the shared
//!   original stays untouched.

use std::sync::Arc;

use mw_geometry::Rect;

use crate::lattice::RegionLattice;
use crate::{FusionResult, NodeId, ProbabilityBand};

/// A clone-cheap handle on one fusion pass, safe to share across
/// threads and across cached queries. See the module docs for the
/// read-only / copy-on-write contract.
#[derive(Debug, Clone)]
pub struct SharedFusion {
    base: Arc<FusionResult>,
    /// The private copy, created lazily by the first mutating call.
    own: Option<Box<FusionResult>>,
}

impl SharedFusion {
    /// Wraps an already-shared fusion result.
    #[must_use]
    pub fn new(base: Arc<FusionResult>) -> Self {
        SharedFusion { base, own: None }
    }

    /// Wraps a freshly computed result (single owner so far).
    #[must_use]
    pub fn from_result(result: FusionResult) -> Self {
        SharedFusion::new(Arc::new(result))
    }

    /// The fusion result this view reads: the private copy once one
    /// exists, the shared original otherwise.
    #[must_use]
    pub fn result(&self) -> &FusionResult {
        self.own.as_deref().unwrap_or(&self.base)
    }

    /// The shared (never-mutated) original, e.g. for storing in a cache.
    #[must_use]
    pub fn shared(&self) -> Arc<FusionResult> {
        Arc::clone(&self.base)
    }

    /// `true` once a mutating call has detached a private copy.
    #[must_use]
    pub fn is_detached(&self) -> bool {
        self.own.is_some()
    }

    /// The spatial probability lattice (read-only).
    #[must_use]
    pub fn lattice(&self) -> &RegionLattice {
        self.result().lattice()
    }

    /// The §4.2 region-based query, without mutating anything: Equation 7
    /// evaluated directly against the surviving evidence. Bit-identical
    /// to `FusionResult::region_probability` (insert-then-read), which
    /// stores exactly this value on the inserted node.
    #[must_use]
    pub fn region_probability(&self, region: &Rect) -> f64 {
        self.result().region_probability_fast(region)
    }

    /// [`SharedFusion::region_probability`] classified into a band under
    /// the result's thresholds.
    #[must_use]
    pub fn region_band(&self, region: &Rect) -> ProbabilityBand {
        let p = self.region_probability(region);
        self.result().thresholds().classify(p)
    }

    /// Inserts a query region as a lattice node — on a *private copy* of
    /// the result, detached from the shared original on the first call
    /// (copy-on-write). The returned id is only meaningful against this
    /// view's [`lattice`](SharedFusion::lattice).
    pub fn insert_query_region(&mut self, region: Rect) -> NodeId {
        let own = self
            .own
            .get_or_insert_with(|| Box::new((*self.base).clone()));
        own.lattice_mut().insert_query_region(region)
    }
}

impl From<FusionResult> for SharedFusion {
    fn from(result: FusionResult) -> Self {
        SharedFusion::from_result(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusionEngine;
    use mw_geometry::Point;
    use mw_model::{SimDuration, SimTime, TemporalDegradation};
    use mw_sensors::{SensorReading, SensorSpec};

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn reading(region: Rect, spec: SensorSpec) -> SensorReading {
        SensorReading {
            sensor_id: "s".into(),
            spec,
            object: "alice".into(),
            glob_prefix: "SC/3".parse().unwrap(),
            region,
            detected_at: SimTime::ZERO,
            time_to_live: SimDuration::from_secs(60.0),
            tdf: TemporalDegradation::None,
            moving: false,
        }
    }

    fn fused() -> FusionResult {
        let engine = FusionEngine::new(r(0.0, 0.0, 500.0, 100.0));
        let readings = vec![
            reading(r(10.0, 10.0, 30.0, 30.0), SensorSpec::rfid_badge(0.8)),
            reading(r(18.0, 18.0, 22.0, 22.0), SensorSpec::ubisense(0.9)),
        ];
        engine.fuse(&readings, SimTime::ZERO)
    }

    #[test]
    fn read_only_probability_matches_insert_then_read() {
        let shared = SharedFusion::from_result(fused());
        let mut fresh = fused();
        for region in [
            r(15.0, 15.0, 25.0, 25.0),
            r(0.0, 0.0, 500.0, 100.0),
            r(300.0, 50.0, 320.0, 70.0),
            r(10.0, 10.0, 30.0, 30.0), // exactly an evidence region
        ] {
            let fast = shared.region_probability(&region);
            let inserted = fresh.region_probability(region).unwrap();
            assert!(
                (fast - inserted).abs() == 0.0,
                "bitwise mismatch for {region:?}: {fast} vs {inserted}"
            );
        }
        assert!(!shared.is_detached(), "read-only path must never clone");
    }

    #[test]
    fn insert_detaches_and_leaves_the_shared_original_untouched() {
        let base = Arc::new(fused());
        let before = base.lattice().len();
        let mut view = SharedFusion::new(Arc::clone(&base));
        let id = view.insert_query_region(r(15.0, 15.0, 25.0, 25.0));
        assert!(view.is_detached());
        assert_eq!(view.lattice().len(), before + 1);
        assert_eq!(base.lattice().len(), before, "shared original unchanged");
        let p_node = view.lattice().probability(id).unwrap();
        let p_fast = SharedFusion::new(base).region_probability(&r(15.0, 15.0, 25.0, 25.0));
        assert!((p_node - p_fast).abs() == 0.0);
    }

    #[test]
    fn second_insert_reuses_the_private_copy() {
        let mut view = SharedFusion::from_result(fused());
        let a = view.insert_query_region(r(1.0, 1.0, 2.0, 2.0));
        let len_after_first = view.lattice().len();
        let b = view.insert_query_region(r(3.0, 3.0, 4.0, 4.0));
        assert_ne!(a, b);
        assert_eq!(view.lattice().len(), len_after_first + 1);
    }
}
