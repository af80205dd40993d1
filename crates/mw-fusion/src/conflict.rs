//! Conflict detection and resolution (§4.1.2, Case 3 / Figure 4).
//!
//! "Disjoint rectangles imply that the sensors are giving conflicting
//! information. This means that one of the sensor readings is wrong and
//! should be discarded. We use a set of rules to decide which the wrong
//! reading is:
//!
//! 1. If either of the rectangles is moving with time, then take that
//!    reading and discard the other one …
//! 2. else, if P(person_B | s2_B) < P(person_A | s1_A), then discard
//!    reading B (or vice-versa)."
//!
//! We generalize from two rectangles to `n` by grouping the readings into
//! connected components (rectangles that touch transitively reinforce each
//! other) and applying the rules between components.
//!
//! Resolution is allocation-free for the typical ≤ 8-reading fuse: the
//! component labels, work stack and survivor sets all live in inline
//! [`SmallBuf`]s, spilling to the heap only for unusually crowded objects.

use std::borrow::Borrow;

use mw_geometry::{Point, Rect};
use mw_sensors::SensorReading;

use crate::bayes::{posterior_single, SensorEvidence};
use crate::smallbuf::SmallBuf;

/// Which rule selected the surviving component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictRule {
    /// No conflict: all rectangles formed a single connected component.
    NoConflict,
    /// Rule 1: a moving rectangle beat stationary ones.
    MovingWins,
    /// Rule 2: the component with the highest single-sensor posterior won.
    HigherProbabilityWins,
}

/// Inline capacity of the survivor/discard sets — the fuse hot path
/// handles at most a handful of readings per object.
const READINGS_INLINE: usize = 8;

/// The outcome of conflict resolution over one object's readings.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictOutcome {
    /// Indices (into the input slice) of the surviving readings,
    /// ascending.
    pub kept: SmallBuf<usize, READINGS_INLINE>,
    /// Indices of the discarded readings, ascending.
    pub discarded: SmallBuf<usize, READINGS_INLINE>,
    /// Which rule decided.
    pub rule: ConflictRule,
}

impl ConflictOutcome {
    /// Returns `true` when any reading was discarded.
    #[must_use]
    pub fn had_conflict(&self) -> bool {
        !self.discarded.is_empty()
    }
}

/// Resolves conflicts among one object's readings at time `now`.
///
/// `universe` is the whole floor area used in the Equation-5 posteriors of
/// rule 2. Readings must all concern the same mobile object; the function
/// does not check this.
#[must_use]
pub fn resolve(
    readings: &[SensorReading],
    universe: &Rect,
    now: mw_model::SimTime,
) -> ConflictOutcome {
    let mut live: SmallBuf<u32, READINGS_INLINE> = SmallBuf::default();
    let mut regions: SmallBuf<Rect, READINGS_INLINE> =
        SmallBuf::filled(&Rect::from_point(Point::ORIGIN));
    #[allow(clippy::cast_possible_truncation)]
    for (i, r) in readings.iter().enumerate() {
        live.push(i as u32);
        regions.push(r.region);
    }
    resolve_subset(readings, &live, &regions, universe, now)
}

/// Resolves conflicts among the `live` subset of `readings`, whose
/// (possibly aged) rectangles are given in the parallel `regions` slice.
///
/// This is the engine's allocation-free entry point: `fuse_excluding`
/// filters readings in place and passes indices instead of materializing
/// an owned filtered `Vec`. The returned indices refer to positions in
/// `live`/`regions` (i.e. the filtered view), matching the historical
/// behavior where the outcome indexed the filtered reading list.
///
/// `readings` may be owned readings or borrowed rows (the Location
/// Service passes its shard's boxed rows in place).
#[must_use]
pub fn resolve_subset<R: Borrow<SensorReading>>(
    readings: &[R],
    live: &[u32],
    regions: &[Rect],
    universe: &Rect,
    now: mw_model::SimTime,
) -> ConflictOutcome {
    debug_assert_eq!(live.len(), regions.len());
    let n = live.len();
    let mut out = ConflictOutcome {
        kept: SmallBuf::default(),
        discarded: SmallBuf::default(),
        rule: ConflictRule::NoConflict,
    };
    if n == 0 {
        return out;
    }

    // Connected components under rectangle intersection. Component ids
    // are assigned in first-encounter order over ascending indices —
    // the same numbering the historical Vec-of-groups version produced.
    let mut comp: SmallBuf<u32, READINGS_INLINE> = SmallBuf::default();
    for _ in 0..n {
        comp.push(u32::MAX);
    }
    let mut count: u32 = 0;
    let mut stack: SmallBuf<u32, READINGS_INLINE> = SmallBuf::default();
    for start in 0..n {
        if comp.as_slice()[start] != u32::MAX {
            continue;
        }
        let id = count;
        count += 1;
        comp.as_mut_slice()[start] = id;
        stack.clear();
        #[allow(clippy::cast_possible_truncation)]
        stack.push(start as u32);
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if comp.as_slice()[j] == u32::MAX && regions[i as usize].intersects(&regions[j]) {
                    comp.as_mut_slice()[j] = id;
                    #[allow(clippy::cast_possible_truncation)]
                    stack.push(j as u32);
                }
            }
        }
    }
    if count <= 1 {
        for i in 0..n {
            out.kept.push(i);
        }
        return out;
    }

    // Rule 1: prefer components containing a moving rectangle.
    let mut is_moving: SmallBuf<bool, READINGS_INLINE> = SmallBuf::default();
    for _ in 0..count {
        is_moving.push(false);
    }
    let mut moving_count = 0u32;
    let mut single_moving = 0u32;
    for (k, &ri) in live.iter().enumerate() {
        if readings[ri as usize].borrow().moving {
            let g = comp.as_slice()[k];
            if !is_moving.as_slice()[g as usize] {
                is_moving.as_mut_slice()[g as usize] = true;
                moving_count += 1;
                single_moving = g;
            }
        }
    }

    let (winner, rule) = if moving_count == 1 {
        (single_moving, ConflictRule::MovingWins)
    } else {
        // Rule 2 (also the tie-break when several components move):
        // highest best single-sensor posterior wins. Candidates are the
        // moving components when any move, otherwise every component.
        let use_all = moving_count == 0;
        let rule = if use_all || moving_count == count {
            ConflictRule::HigherProbabilityWins
        } else {
            ConflictRule::MovingWins
        };
        // `Iterator::max_by` semantics over ascending candidate ids:
        // a later candidate replaces the leader when its score compares
        // greater *or equal* under `total_cmp` (last max wins).
        let mut best_g = u32::MAX;
        let mut best_score = 0.0f64;
        for g in 0..count {
            if !use_all && !is_moving.as_slice()[g as usize] {
                continue;
            }
            let mut score = 0.0f64;
            for (k, &ri) in live.iter().enumerate() {
                if comp.as_slice()[k] != g {
                    continue;
                }
                let r: &SensorReading = readings[ri as usize].borrow();
                let e = SensorEvidence::new(
                    regions[k],
                    r.hit_probability_at(now),
                    r.false_positive_probability(universe.area()),
                );
                score = f64::max(score, posterior_single(&e, universe));
            }
            if best_g == u32::MAX || score.total_cmp(&best_score) != std::cmp::Ordering::Less {
                best_g = g;
                best_score = score;
            }
        }
        (best_g, rule)
    };

    for k in 0..n {
        if comp.as_slice()[k] == winner {
            out.kept.push(k);
        } else {
            out.discarded.push(k);
        }
    }
    out.rule = rule;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_geometry::Point;
    use mw_model::{SimDuration, SimTime, TemporalDegradation};
    use mw_sensors::SensorSpec;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn universe() -> Rect {
        r(0.0, 0.0, 500.0, 100.0)
    }

    fn reading(region: Rect, moving: bool, spec: SensorSpec) -> SensorReading {
        SensorReading {
            sensor_id: "s".into(),
            spec,
            object: "alice".into(),
            glob_prefix: "SC/3".parse().unwrap(),
            region,
            detected_at: SimTime::ZERO,
            time_to_live: SimDuration::from_secs(100.0),
            tdf: TemporalDegradation::None,
            moving,
        }
    }

    #[test]
    fn empty_input() {
        let out = resolve(&[], &universe(), SimTime::ZERO);
        assert!(out.kept.is_empty());
        assert!(!out.had_conflict());
    }

    #[test]
    fn overlapping_readings_do_not_conflict() {
        let readings = vec![
            reading(r(0.0, 0.0, 20.0, 20.0), false, SensorSpec::ubisense(0.9)),
            reading(
                r(10.0, 10.0, 30.0, 30.0),
                false,
                SensorSpec::rfid_badge(0.8),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.rule, ConflictRule::NoConflict);
        assert_eq!(out.kept, vec![0, 1]);
        assert!(!out.had_conflict());
    }

    #[test]
    fn transitive_overlap_is_one_component() {
        // A∩B and B∩C but not A∩C: still one component via B.
        let readings = vec![
            reading(r(0.0, 0.0, 10.0, 10.0), false, SensorSpec::ubisense(0.9)),
            reading(r(8.0, 0.0, 20.0, 10.0), false, SensorSpec::ubisense(0.9)),
            reading(r(18.0, 0.0, 30.0, 10.0), false, SensorSpec::ubisense(0.9)),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.rule, ConflictRule::NoConflict);
        assert_eq!(out.kept.len(), 3);
    }

    #[test]
    fn rule_one_moving_wins() {
        // The paper's example: a badge moving through the building vs the
        // badge's stale stationary reading in an office.
        let readings = vec![
            reading(
                r(0.0, 0.0, 5.0, 5.0),
                false,
                SensorSpec::biometric_short_term(),
            ),
            reading(
                r(100.0, 50.0, 105.0, 55.0),
                true,
                SensorSpec::rfid_badge(0.8),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.rule, ConflictRule::MovingWins);
        assert_eq!(out.kept, vec![1]);
        assert_eq!(out.discarded, vec![0]);
    }

    #[test]
    fn rule_two_higher_probability_wins() {
        // Both stationary: the high-confidence biometric beats the RFID.
        let readings = vec![
            reading(
                r(0.0, 0.0, 4.0, 4.0),
                false,
                SensorSpec::biometric_short_term(),
            ),
            reading(
                r(100.0, 50.0, 130.0, 80.0),
                false,
                SensorSpec::rfid_badge(0.5),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.rule, ConflictRule::HigherProbabilityWins);
        assert_eq!(out.kept, vec![0]);
        assert_eq!(out.discarded, vec![1]);
    }

    #[test]
    fn two_moving_components_fall_back_to_probability() {
        // Carried badge (x = 1): the Ubisense sighting has a tiny
        // area-proportional q, so its Equation-5 posterior beats the weak
        // RFID component despite the smaller rectangle.
        let readings = vec![
            reading(r(0.0, 0.0, 4.0, 4.0), true, SensorSpec::ubisense(1.0)),
            reading(
                r(100.0, 50.0, 130.0, 80.0),
                true,
                SensorSpec::rfid_badge(0.5),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.kept.len(), 1);
        assert_eq!(out.discarded.len(), 1);
        assert_eq!(out.kept, vec![0]);
    }

    #[test]
    fn moving_group_beats_probability() {
        // Moving RFID (weak) vs stationary biometric (strong): rule 1
        // applies before rule 2, so the mover wins despite lower
        // confidence.
        let readings = vec![
            reading(
                r(0.0, 0.0, 4.0, 4.0),
                false,
                SensorSpec::biometric_short_term(),
            ),
            reading(
                r(100.0, 50.0, 130.0, 80.0),
                true,
                SensorSpec::rfid_badge(0.5),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.rule, ConflictRule::MovingWins);
        assert_eq!(out.kept, vec![1]);
    }

    #[test]
    fn three_way_conflict_keeps_single_component() {
        let readings = vec![
            reading(r(0.0, 0.0, 10.0, 10.0), false, SensorSpec::rfid_badge(0.8)),
            reading(
                r(200.0, 0.0, 210.0, 10.0),
                false,
                SensorSpec::rfid_badge(0.8),
            ),
            reading(
                r(400.0, 0.0, 410.0, 10.0),
                false,
                SensorSpec::biometric_short_term(),
            ),
        ];
        let out = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(out.kept.len(), 1);
        assert_eq!(out.discarded.len(), 2);
        assert_eq!(out.kept, vec![2]); // biometric has the best posterior
    }

    #[test]
    fn expired_reading_loses_rule_two() {
        // Same spec, but one reading has fully degraded by `now`.
        let mut stale = reading(r(0.0, 0.0, 10.0, 10.0), false, SensorSpec::ubisense(0.9));
        stale.tdf = TemporalDegradation::Linear {
            lifetime: SimDuration::from_secs(10.0),
        };
        stale.detected_at = SimTime::ZERO;
        let fresh = reading(r(200.0, 0.0, 210.0, 10.0), false, SensorSpec::ubisense(0.9));
        let now = SimTime::from_secs(9.0);
        let out = resolve(&[stale, fresh], &universe(), now);
        assert_eq!(out.kept, vec![1]);
    }

    #[test]
    fn subset_resolution_matches_full_on_live_prefix() {
        // resolve() is resolve_subset() over the identity view.
        let readings = vec![
            reading(r(0.0, 0.0, 10.0, 10.0), false, SensorSpec::ubisense(0.9)),
            reading(
                r(200.0, 0.0, 210.0, 10.0),
                false,
                SensorSpec::rfid_badge(0.6),
            ),
        ];
        let live = [0u32, 1u32];
        let regions = [readings[0].region, readings[1].region];
        let by_subset = resolve_subset(&readings, &live, &regions, &universe(), SimTime::ZERO);
        let by_full = resolve(&readings, &universe(), SimTime::ZERO);
        assert_eq!(by_subset.kept, by_full.kept);
        assert_eq!(by_subset.discarded, by_full.discarded);
        assert_eq!(by_subset.rule, by_full.rule);
    }
}
