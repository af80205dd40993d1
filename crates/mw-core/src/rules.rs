//! The declarative rule layer (§4.3 triggers, compiled): rules are
//! predicate expressions over location atoms, compiled into a **fused
//! trigger DAG** with common-subexpression sharing so look-alike
//! subscriptions dedupe into a handful of shared nodes.
//!
//! # Why a compiler
//!
//! The paper's triggers fire per-subscription: every fuse walked every
//! candidate subscription independently, which cannot scale to the
//! city-scale target of 10⁵–10⁶ near-identical region rules ("notify me
//! when anyone enters the ICU"). Compiling rules into an interned DAG
//! makes the per-fuse cost proportional to the number of **distinct
//! predicates**, not the number of rules:
//!
//! ```text
//!  rule #0: InRegion(ICU, p≥0.5)            ┐
//!  rule #1: InRegion(ICU, p≥0.5)            ├──►  [atom: InRegion(ICU, 0.5)]
//!  ...                                      │          ▲ evaluated once per fuse
//!  rule #999999: InRegion(ICU, p≥0.5)       ┘          │
//!                                                one trigger group,
//!                                                1M member ids fire together
//! ```
//!
//! # Structure
//!
//! - [`Predicate`] — the AST: `InRegion` / `NearPoint` / `CoLocated` /
//!   `DwellFor` / `Moved` atoms combined with `And` / `Or` / `Not`.
//! - [`Rule`] — a predicate plus the action clause: object filter, edge
//!   trigger ([`SubscriptionTrigger`]) and [`DeliveryPolicy`]. Built and
//!   validated through [`RuleBuilder`] (`Rule::when(..)`), which returns
//!   [`CoreError::InvalidRule`] on malformed input.
//! - `RuleEngine` (crate-internal) — the compiler and evaluator: interns
//!   structurally-equal subexpressions into shared DAG nodes, groups
//!   rules with identical `(root, object filter, trigger)` into one
//!   trigger group, and prunes candidate groups: wildcard groups through
//!   a coarse [`InterestGrid`] (shared with the region-query snapshot)
//!   over their regions of interest, groups with an object filter
//!   through that object's own list.
//!
//! # Evaluation order and edge state
//!
//! Per fuse of an object, candidate groups are selected (wildcard
//! interest-grid hits + wildcard always-evaluate groups + the object's
//! own groups + currently-true groups), then each
//! reachable DAG node is evaluated **at most once** (memoized per fuse)
//! bottom-up, with no boolean short-circuiting — `And`/`Or` always
//! evaluate every child so stateful atoms (`Moved`, `DwellFor`) advance
//! identically whether or not a sibling already decided the result.
//! Edge state is tracked per `(node, object)` for atom clocks (dwell
//! start, movement anchor) and per `(group, object)` for the
//! enter/exit/move trigger edge. Notifications for an object are
//! emitted in ascending subscription-id order, exactly as the historical
//! per-subscription walk did.
//!
//! Stateful-atom semantics are **shared**: rules registered together
//! and referencing the structurally-equal `DwellFor` subtree observe
//! one shared dwell clock (that is what "compiled" means — and it is
//! observationally identical to per-rule clocks, since clock evolution
//! is a deterministic function of the ingest stream). Two splits keep
//! late registration identical to per-rule evaluation, checked by the
//! public-API reference in `tests/reference/`: a rule added while a
//! group already holds edge state gets a fresh group (sharing the same
//! DAG nodes) so it observes its own rising edge, and a rule added
//! after a stateful node's clock has run gets a private copy of that
//! node (pure subtrees stay shared) so its clocks start fresh.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mw_fusion::{BandThresholds, ProbabilityBand, SharedFusion};
use mw_geometry::{Point, Rect};
use mw_model::{SimDuration, SimTime};
use mw_sensors::MobileObjectId;
use serde::{Deserialize, Serialize};

use crate::grid::InterestGrid;
use crate::ident::Interner;
use crate::relations;
use crate::subscription::{DeliveryPolicy, SubscriptionId, SubscriptionSpec, SubscriptionTrigger};
use crate::{CoreError, LocationFix, Notification};

// --- hot-map hashing ------------------------------------------------------

/// Deterministic multiply-rotate hasher (fxhash-style) for the engine's
/// hot maps, whose keys are small dense integers (interned object ids,
/// group/node indices, grid cells). Every candidate evaluation
/// performs several map operations on these keys; SipHash's per-lookup
/// cost dominated that bookkeeping, and its DoS resistance buys nothing
/// for crate-internal integer keys (DESIGN.md §15).
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

pub(crate) type FastState = std::hash::BuildHasherDefault<FxHasher>;
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;
type FastSet<K> = HashSet<K, FastState>;

// --- public AST ----------------------------------------------------------

/// A predicate over an object's (probabilistic) location: the condition
/// half of a [`Rule`].
///
/// Atoms evaluate against the object's current fusion result; combine
/// them with [`and`](Predicate::and), [`or`](Predicate::or),
/// [`not`](Predicate::not) and [`for_at_least`](Predicate::for_at_least).
/// Structurally-equal sub-predicates across rules share one DAG node
/// after compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// The object is inside `region` with probability at least
    /// `min_probability` (and at least `min_band`, when set) — the §4.3
    /// trigger condition, and exactly what a [`SubscriptionSpec`]
    /// compiles to.
    InRegion {
        /// Watched region (an MBR in building coordinates).
        region: Rect,
        /// Minimum posterior probability for the atom to hold.
        min_probability: f64,
        /// Optional minimum §4.4 band (evaluated against the service's
        /// sensor-derived thresholds).
        min_band: Option<ProbabilityBand>,
    },
    /// The object is within `radius` of `point` with probability at
    /// least `min_probability`. Evaluated on the circle's bounding box
    /// (the fusion lattice is rectangular).
    NearPoint {
        /// Circle center in building coordinates.
        point: Point,
        /// Circle radius in building units.
        radius: f64,
        /// Minimum posterior probability for the atom to hold.
        min_probability: f64,
    },
    /// The object shares a symbolic region of the given GLOB
    /// `granularity` with `with` (§4.6.3b) — e.g. granularity 3 =
    /// same room for `CS/Floor3/3105`-style names.
    CoLocated {
        /// The partner object.
        with: MobileObjectId,
        /// GLOB depth both objects must resolve to and share.
        granularity: usize,
    },
    /// `predicate` has held continuously for at least `duration` — the
    /// dwell clock starts when the inner predicate turns true, resets
    /// when it turns false (including when quarantine removes all
    /// evidence), and is observed at fuse times (no timers fire between
    /// ingests).
    DwellFor {
        /// The condition that must hold throughout.
        predicate: Box<Predicate>,
        /// Minimum continuous duration.
        duration: SimDuration,
    },
    /// The object's best estimate moved at least `threshold` building
    /// units since this atom's anchor — the anchor is set at first
    /// observation and re-set each time the atom fires true.
    Moved {
        /// Minimum displacement between firings.
        threshold: f64,
    },
    /// Every child predicate holds. A notification carries the
    /// probability and region of the child with the lowest probability
    /// (on equal probabilities, the least region by min x, min y, max x,
    /// max y).
    And(Vec<Predicate>),
    /// At least one child predicate holds. A notification carries the
    /// probability and region of the child with the highest probability
    /// (on equal probabilities, the greatest region in the same order).
    Or(Vec<Predicate>),
    /// The child predicate does not hold. A notification carries
    /// `1 − p` of the child, and the child's region.
    Not(Box<Predicate>),
}

impl Predicate {
    /// An [`Predicate::InRegion`] atom with no band constraint.
    #[must_use]
    pub fn in_region(region: Rect, min_probability: f64) -> Predicate {
        Predicate::InRegion {
            region,
            min_probability,
            min_band: None,
        }
    }

    /// An [`Predicate::InRegion`] atom that also requires `min_band`.
    #[must_use]
    pub fn in_region_band(
        region: Rect,
        min_probability: f64,
        min_band: ProbabilityBand,
    ) -> Predicate {
        Predicate::InRegion {
            region,
            min_probability,
            min_band: Some(min_band),
        }
    }

    /// A [`Predicate::NearPoint`] atom.
    #[must_use]
    pub fn near_point(point: Point, radius: f64, min_probability: f64) -> Predicate {
        Predicate::NearPoint {
            point,
            radius,
            min_probability,
        }
    }

    /// A [`Predicate::CoLocated`] atom.
    #[must_use]
    pub fn co_located(with: impl Into<MobileObjectId>, granularity: usize) -> Predicate {
        Predicate::CoLocated {
            with: with.into(),
            granularity,
        }
    }

    /// A [`Predicate::Moved`] atom.
    #[must_use]
    pub fn moved(threshold: f64) -> Predicate {
        Predicate::Moved { threshold }
    }

    /// Both this predicate and `other` must hold.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        match self {
            Predicate::And(mut children) => {
                children.push(other);
                Predicate::And(children)
            }
            first => Predicate::And(vec![first, other]),
        }
    }

    /// Either this predicate or `other` must hold.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        match self {
            Predicate::Or(mut children) => {
                children.push(other);
                Predicate::Or(children)
            }
            first => Predicate::Or(vec![first, other]),
        }
    }

    /// This predicate must not hold.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// This predicate must hold continuously for at least `duration`
    /// (wraps in [`Predicate::DwellFor`]).
    #[must_use]
    pub fn for_at_least(self, duration: SimDuration) -> Predicate {
        Predicate::DwellFor {
            predicate: Box::new(self),
            duration,
        }
    }

    /// Validation walk shared by [`RuleBuilder::build`].
    fn validate(&self) -> Result<(), CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidRule { reason });
        match self {
            Predicate::InRegion {
                min_probability, ..
            } => {
                if !(0.0..=1.0).contains(min_probability) {
                    return invalid(format!(
                        "in-region min_probability {min_probability} is outside [0, 1]"
                    ));
                }
                Ok(())
            }
            Predicate::NearPoint {
                radius,
                min_probability,
                ..
            } => {
                if !(radius.is_finite() && *radius > 0.0) {
                    return invalid(format!(
                        "near-point radius {radius} must be positive and finite"
                    ));
                }
                if !(0.0..=1.0).contains(min_probability) {
                    return invalid(format!(
                        "near-point min_probability {min_probability} is outside [0, 1]"
                    ));
                }
                Ok(())
            }
            Predicate::CoLocated { granularity, .. } => {
                if *granularity == 0 {
                    return invalid("co-located granularity must be at least 1".to_string());
                }
                Ok(())
            }
            Predicate::DwellFor {
                predicate,
                duration,
            } => {
                if !(duration.as_secs().is_finite() && duration.as_secs() > 0.0) {
                    return invalid(format!(
                        "dwell duration {}s must be positive and finite",
                        duration.as_secs()
                    ));
                }
                predicate.validate()
            }
            Predicate::Moved { threshold } => {
                if !(threshold.is_finite() && *threshold > 0.0) {
                    return invalid(format!(
                        "moved threshold {threshold} must be positive and finite"
                    ));
                }
                Ok(())
            }
            Predicate::And(children) | Predicate::Or(children) => {
                if children.is_empty() {
                    return invalid("and/or needs at least one child predicate".to_string());
                }
                children.iter().try_for_each(Predicate::validate)
            }
            Predicate::Not(child) => child.validate(),
        }
    }
}

/// A declarative subscription: a [`Predicate`] plus the action clause
/// (object filter, edge trigger, delivery policy).
///
/// Build with [`Rule::when`]; register with
/// [`LocationService::subscribe_rule`](crate::LocationService::subscribe_rule).
/// A legacy [`SubscriptionSpec`] compiles to a one-atom rule via
/// [`From`] — `subscribe(spec)` is exactly
/// `subscribe_rule(Rule::from(spec))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The condition.
    pub predicate: Predicate,
    /// Restrict to one object, or `None` for any tracked object.
    pub object: Option<MobileObjectId>,
    /// Which condition edge fires a notification.
    pub trigger: SubscriptionTrigger,
    /// Inbox policy for consumers created with the rule.
    pub delivery: DeliveryPolicy,
}

impl Rule {
    /// Starts building a rule over `predicate`. Defaults: any object,
    /// on-enter trigger, unbounded delivery.
    #[must_use]
    pub fn when(predicate: Predicate) -> RuleBuilder {
        RuleBuilder {
            predicate,
            object: None,
            trigger: SubscriptionTrigger::OnEnter,
            delivery: DeliveryPolicy::Unbounded,
        }
    }
}

impl From<SubscriptionSpec> for Rule {
    /// Compiles a legacy spec into the equivalent one-atom rule — the
    /// documented shim path every `SubscriptionSpec` API routes through.
    fn from(spec: SubscriptionSpec) -> Rule {
        Rule {
            predicate: Predicate::InRegion {
                region: spec.region,
                min_probability: spec.min_probability,
                min_band: spec.min_band,
            },
            object: spec.object,
            trigger: spec.trigger,
            delivery: spec.delivery,
        }
    }
}

/// Builder for [`Rule`] — validation happens once, in
/// [`build`](RuleBuilder::build).
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    predicate: Predicate,
    object: Option<MobileObjectId>,
    trigger: SubscriptionTrigger,
    delivery: DeliveryPolicy,
}

impl RuleBuilder {
    /// Restricts the rule to a single object.
    #[must_use]
    pub fn object(mut self, object: impl Into<MobileObjectId>) -> Self {
        self.object = Some(object.into());
        self
    }

    /// Fire on the rising edge (the default).
    #[must_use]
    pub fn on_enter(mut self) -> Self {
        self.trigger = SubscriptionTrigger::OnEnter;
        self
    }

    /// Fire on the falling edge.
    #[must_use]
    pub fn on_exit(mut self) -> Self {
        self.trigger = SubscriptionTrigger::OnExit;
        self
    }

    /// Fire on entry and then per `threshold` building units of movement
    /// while the condition holds.
    #[must_use]
    pub fn on_move(mut self, threshold: f64) -> Self {
        self.trigger = SubscriptionTrigger::OnMove { threshold };
        self
    }

    /// Sets a bounded inbox for consumers created with the rule.
    #[must_use]
    pub fn bounded(mut self, capacity: usize, overflow: mw_bus::OverflowPolicy) -> Self {
        self.delivery = DeliveryPolicy::Bounded { capacity, overflow };
        self
    }

    /// Sets the delivery policy directly.
    #[must_use]
    pub fn delivery(mut self, policy: DeliveryPolicy) -> Self {
        self.delivery = policy;
        self
    }

    /// Validates and builds the rule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRule`] when an atom's parameter is out
    /// of range (probability outside `[0, 1]`, non-positive radius /
    /// threshold / dwell duration, zero co-location granularity), an
    /// `And`/`Or` has no children, an on-move trigger threshold is not
    /// positive and finite, or a bounded delivery capacity is zero.
    pub fn build(self) -> Result<Rule, CoreError> {
        self.predicate.validate()?;
        if let SubscriptionTrigger::OnMove { threshold } = self.trigger {
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err(CoreError::InvalidRule {
                    reason: format!("on-move threshold {threshold} must be positive and finite"),
                });
            }
        }
        if let DeliveryPolicy::Bounded { capacity, .. } = self.delivery {
            if capacity == 0 {
                return Err(CoreError::InvalidRule {
                    reason: "bounded delivery needs capacity >= 1".to_string(),
                });
            }
        }
        Ok(Rule {
            predicate: self.predicate,
            object: self.object,
            trigger: self.trigger,
            delivery: self.delivery,
        })
    }
}

// --- interning keys ------------------------------------------------------

/// Bit-exact `f64` wrapper so atom parameters can key the interner
/// (structural equality must be reproducible, not epsilon-fuzzy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Bits(u64);

impl Bits {
    fn of(v: f64) -> Bits {
        Bits(v.to_bits())
    }

    fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RectBits {
    x0: Bits,
    y0: Bits,
    x1: Bits,
    y1: Bits,
}

impl RectBits {
    fn of(r: &Rect) -> RectBits {
        RectBits {
            x0: Bits::of(r.min().x),
            y0: Bits::of(r.min().y),
            x1: Bits::of(r.max().x),
            y1: Bits::of(r.max().y),
        }
    }

    fn rect(self) -> Rect {
        Rect::new(
            Point::new(self.x0.get(), self.y0.get()),
            Point::new(self.x1.get(), self.y1.get()),
        )
    }
}

/// One DAG node. Children are node indices (already interned), so two
/// structurally-equal subtrees hash to the same key bottom-up.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeKind {
    InRegion {
        region: RectBits,
        min_probability: Bits,
        min_band: Option<ProbabilityBand>,
    },
    NearPoint {
        x: Bits,
        y: Bits,
        radius: Bits,
        min_probability: Bits,
    },
    CoLocated {
        with: MobileObjectId,
        granularity: usize,
    },
    Dwell {
        child: usize,
        duration: Bits,
    },
    Moved {
        threshold: Bits,
    },
    Not(usize),
    And(Vec<usize>),
    Or(Vec<usize>),
}

impl NodeKind {
    /// Nodes carrying per-object clock state (dwell clocks, movement
    /// anchors). These intern only while clean: once a node has
    /// accumulated state, a newly added rule gets a private copy so it
    /// starts its clocks fresh, exactly like a rule evaluated alone.
    fn stateful(&self) -> bool {
        matches!(self, NodeKind::Dwell { .. } | NodeKind::Moved { .. })
    }
}

/// Trigger as an interning key (`OnMove` carries an `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TriggerKey {
    Enter,
    Exit,
    Move(Bits),
}

impl TriggerKey {
    fn of(trigger: SubscriptionTrigger) -> TriggerKey {
        match trigger {
            SubscriptionTrigger::OnEnter => TriggerKey::Enter,
            SubscriptionTrigger::OnExit => TriggerKey::Exit,
            SubscriptionTrigger::OnMove { threshold } => TriggerKey::Move(Bits::of(threshold)),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    root: usize,
    /// Interned handle of the rule's object filter, when present.
    object: Option<u32>,
    trigger: TriggerKey,
}

// --- engine state --------------------------------------------------------

/// Per-`(group, object)` trigger-edge state — the compiled counterpart
/// of the old per-subscription `currently_true` / `fired_at` maps.
#[derive(Debug, Default, Clone)]
struct GroupObjState {
    /// Did the root predicate hold on the last evaluation?
    inside: bool,
    /// For on-move triggers: the position at the last firing.
    anchor: Option<Point>,
}

/// Per-`(node, object)` atom clock state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NodeState {
    /// When the dwell child turned true (`None` = not currently true).
    DwellSince(Option<SimTime>),
    /// The movement atom's anchor position.
    MovedAnchor(Point),
}

/// One trigger group: all rules sharing `(root node, object filter,
/// trigger)`. They fire together, so edge state and candidate selection
/// are per group, not per rule — the heart of the O(distinct predicates)
/// claim.
#[derive(Debug)]
struct Group {
    key: GroupKey,
    root: usize,
    /// Interned handle of the object filter, when present.
    object: Option<u32>,
    trigger: SubscriptionTrigger,
    /// Member rule ids, ascending (ids are assigned monotonically and
    /// late joiners land in fresh groups, so pushes keep the order).
    members: Vec<SubscriptionId>,
    /// Interest rects (positive region atoms) of a pure group: the grid
    /// keys of a wildcard group, the exact selection test of both kinds.
    /// Empty for always-evaluate groups.
    interest: Vec<Rect>,
    /// Evaluated for every affected object (predicates containing
    /// `Not` / `CoLocated` / `Moved` / `DwellFor`, whose truth can
    /// change without the evidence window touching an interest rect).
    always: bool,
    /// Edge state per tracked object, keyed by interned handle.
    state: FastMap<u32, GroupObjState>,
}

struct RuleRecord {
    group: usize,
    /// Size of the rule's predicate as a tree (pre-interning) — the
    /// numerator of the sharing ratio.
    expanded: u64,
}

/// The compiled subscription store: interned DAG + trigger groups +
/// edge state. Lives behind the service's `RwLock`; `evaluate` is the
/// read-only half (safe to fan out across objects), `apply` the
/// stateful half (sequential, deterministic order).
pub(crate) struct RuleEngine {
    /// The service-wide identity interner: object ids arriving at the
    /// engine's crate-internal API as strings are resolved to dense
    /// `u32` handles once per call, and all per-object edge state below
    /// is keyed by handle.
    idents: Arc<Interner>,
    next_id: u64,
    nodes: Vec<NodeKind>,
    intern: HashMap<NodeKind, usize>,
    groups: Vec<Option<Group>>,
    group_index: HashMap<GroupKey, usize>,
    /// Wildcard (no object filter) pure groups, by interest rect.
    index: InterestGrid<usize>,
    /// Wildcard always-evaluate group indices, ascending.
    always: Vec<usize>,
    /// Per object handle: the groups filtered to that object, ascending.
    /// Bound groups are selected from here rather than from `index` /
    /// `always`, so a fuse never touches another object's rules. An
    /// entry is dropped once its last group is freed.
    bound: FastMap<u32, Vec<usize>>,
    /// Per object handle: groups whose root held on the last evaluation
    /// (candidates even when the evidence window moves away — exit
    /// edges and re-arming need them).
    truthy: FastMap<u32, Vec<usize>>,
    node_state: FastMap<(usize, u32), NodeState>,
    /// Nodes that have ever committed clock state. A stateful node on
    /// this list is no longer joinable by new rules (see
    /// [`NodeKind::stateful`]).
    touched: FastSet<usize>,
    rules: HashMap<SubscriptionId, RuleRecord>,
    /// Sum of `RuleRecord::expanded` over live rules.
    expanded_total: u64,
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine")
            .field("rules", &self.rules.len())
            .field("nodes", &self.nodes.len())
            .field("groups", &self.live_groups())
            .finish_non_exhaustive()
    }
}

// --- evaluation plumbing -------------------------------------------------

/// Everything the evaluator needs from one fuse of one object.
pub(crate) struct EvalInput<'a> {
    pub fusion: &'a SharedFusion,
    /// Best-estimate center (on-move triggers, `Moved` atoms).
    pub position: Option<Point>,
    /// Best-estimate MBR, used as the notification region for atoms
    /// with no region of their own; falls back to `fallback_region`.
    pub estimate: Option<Rect>,
    /// The fusion universe — the region of last resort for payloads.
    pub fallback_region: Rect,
    pub thresholds: &'a BandThresholds,
    /// The evaluated object's own fix for `CoLocated` atoms, resolved
    /// from `fusion` — called at most once per evaluation.
    pub own_fix: &'a dyn Fn() -> Option<LocationFix>,
    pub now: SimTime,
}

/// One candidate group's read-only evaluation.
pub(crate) struct GroupEval {
    group: usize,
    satisfied: bool,
    probability: f64,
    band: ProbabilityBand,
    region: Rect,
    position: Option<Point>,
}

/// The read-only half's output for one object: group verdicts plus the
/// atom-clock updates to commit. Produced concurrently per object;
/// folded in sequentially by [`RuleEngine::apply`].
pub(crate) struct ObjectEvaluation {
    evals: Vec<GroupEval>,
    node_updates: Vec<(usize, NodeState)>,
    /// Leaf atoms evaluated in this pass (post-memoization) — the
    /// `rules.eval.atoms` metric.
    pub atoms_evaluated: u64,
}

impl ObjectEvaluation {
    pub(crate) fn empty() -> ObjectEvaluation {
        ObjectEvaluation {
            evals: Vec::new(),
            node_updates: Vec::new(),
            atoms_evaluated: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.evals.is_empty() && self.node_updates.is_empty()
    }
}

/// One rule that fired: the payload half of a
/// [`Notification`](crate::Notification).
pub(crate) struct FiredRule {
    pub id: SubscriptionId,
    pub region: Rect,
    pub probability: f64,
    pub band: ProbabilityBand,
}

/// One trigger *group* that fired. Every member of a look-alike group
/// shares the same payload, so the hot path records one of these per
/// group and expands members lazily via
/// [`RuleEngine::for_each_fired`] — a 100-member group costs one
/// 48-byte record instead of 100 `FiredRule`s of redundant payload
/// (DESIGN.md §15).
pub(crate) struct FiredGroup {
    pub group: usize,
    pub region: Rect,
    pub probability: f64,
    pub band: ProbabilityBand,
}

/// A node's evaluated value: truth plus the notification payload
/// (probability and region) it propagates upward.
#[derive(Debug, Clone, Copy)]
struct NodeVal {
    truth: bool,
    probability: f64,
    region: Rect,
}

impl NodeVal {
    /// The order `And` / `Or` pick their payload by: probability, then
    /// the region's corners. Ties on probability are common (two atoms
    /// the evidence misses both read 0), and interning puts children in
    /// node-id order, so a tie must not fall to child order.
    fn payload_cmp(&self, other: &NodeVal) -> Ordering {
        let key = |v: &NodeVal| {
            let (lo, hi) = (v.region.min(), v.region.max());
            [v.probability, lo.x, lo.y, hi.x, hi.y]
        };
        let (a, b) = (key(self), key(other));
        a.iter()
            .zip(&b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

impl Default for NodeVal {
    /// Placeholder for unstamped scratch slots — never read as a value.
    fn default() -> Self {
        NodeVal {
            truth: false,
            probability: 0.0,
            region: Rect::from_point(Point::ORIGIN),
        }
    }
}

/// Generation-stamped dense memo for one evaluation pass, replacing the
/// per-call `HashMap<usize, NodeVal>`: node ids are dense indices, so a
/// lookup is an array access and "clear" is a generation bump. Owned by
/// the caller (one per ingest thread) and reused across every
/// evaluation, so the steady-state hot path allocates nothing.
pub(crate) struct EvalScratch {
    stamp: Vec<u32>,
    val: Vec<NodeVal>,
    generation: u32,
}

impl EvalScratch {
    pub(crate) fn new() -> EvalScratch {
        EvalScratch {
            stamp: Vec::new(),
            val: Vec::new(),
            generation: 0,
        }
    }

    /// Starts a fresh pass over a DAG of `nodes` nodes. Grows the slabs
    /// when rules were added since last time (amortized; steady state is
    /// allocation-free) and invalidates all prior entries by bumping the
    /// generation.
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.val.resize(nodes, NodeVal::default());
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: old stamps could alias the new generation.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    fn get(&self, node: usize) -> Option<NodeVal> {
        (self.stamp[node] == self.generation).then(|| self.val[node])
    }

    fn put(&mut self, node: usize, value: NodeVal) -> NodeVal {
        self.stamp[node] = self.generation;
        self.val[node] = value;
        value
    }
}

/// Read-only inputs threaded through one object's node walk.
struct EvalCtx<'a, 'b> {
    obj: u32,
    input: &'a EvalInput<'b>,
    /// `input.own_fix`, once a `CoLocated` atom has asked for it.
    own_fix: OnceCell<Option<LocationFix>>,
    partner: &'a dyn Fn(&MobileObjectId) -> Option<LocationFix>,
}

/// Mutable side effects of one object's node walk.
struct EvalSideEffects<'a> {
    scratch: &'a mut EvalScratch,
    updates: Vec<(usize, NodeState)>,
    atoms: u64,
}

impl RuleEngine {
    pub(crate) fn new(idents: Arc<Interner>) -> RuleEngine {
        RuleEngine {
            idents,
            next_id: 0,
            nodes: Vec::new(),
            intern: HashMap::new(),
            groups: Vec::new(),
            group_index: HashMap::new(),
            index: InterestGrid::default(),
            always: Vec::new(),
            bound: FastMap::default(),
            truthy: FastMap::default(),
            node_state: FastMap::default(),
            touched: FastSet::default(),
            rules: HashMap::new(),
            expanded_total: 0,
        }
    }

    // --- registration ----------------------------------------------------

    pub(crate) fn add(&mut self, rule: &Rule) -> SubscriptionId {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let (root, expanded) = self.compile(&rule.predicate);
        let object = rule.object.as_ref().map(|o| self.idents.intern(o.as_str()));
        let key = GroupKey {
            root,
            object,
            trigger: TriggerKey::of(rule.trigger),
        };
        if let Some(&g) = self.group_index.get(&key) {
            if let Some(group) = self.groups[g].as_mut() {
                // Join only while the group holds no edge state: a rule
                // added while the predicate already holds for some
                // object must still see its own rising edge (exactly
                // per-rule behaviour). The DAG nodes stay shared either
                // way.
                if group.state.is_empty() {
                    group.members.push(id);
                    self.rules.insert(id, RuleRecord { group: g, expanded });
                    self.expanded_total += expanded;
                    return id;
                }
            }
        }
        let (interest, pure) = self.interest_of(root);
        let g = self.groups.len();
        // `g` grows monotonically, so pushes keep `always` and the
        // per-object lists sorted.
        if let Some(o) = object {
            self.bound.entry(o).or_default().push(g);
        } else if pure {
            for rect in &interest {
                self.index.insert(rect, g);
            }
        } else {
            self.always.push(g);
        }
        self.group_index.insert(key.clone(), g);
        self.groups.push(Some(Group {
            key,
            root,
            object,
            trigger: rule.trigger,
            members: vec![id],
            interest: if pure { interest } else { Vec::new() },
            always: !pure,
            state: FastMap::default(),
        }));
        self.rules.insert(id, RuleRecord { group: g, expanded });
        self.expanded_total += expanded;
        id
    }

    pub(crate) fn remove(&mut self, id: SubscriptionId) -> bool {
        let Some(record) = self.rules.remove(&id) else {
            return false;
        };
        self.expanded_total -= record.expanded;
        let slot = &mut self.groups[record.group];
        if let Some(group) = slot.as_mut() {
            group.members.retain(|m| *m != id);
        }
        // Last member gone: free the group (DAG nodes persist — they
        // are interned and may be referenced by other rules, current or
        // future).
        let Some(group) = slot.take_if(|group| group.members.is_empty()) else {
            return true;
        };
        if let Some(o) = group.object {
            if let Some(own) = self.bound.get_mut(&o) {
                own.retain(|g| *g != record.group);
                if own.is_empty() {
                    self.bound.remove(&o);
                }
            }
        } else if group.always {
            self.always.retain(|g| *g != record.group);
        } else {
            for rect in &group.interest {
                self.index.remove(rect, record.group);
            }
        }
        if self.group_index.get(&group.key) == Some(&record.group) {
            self.group_index.remove(&group.key);
        }
        // Per-object clean-up walks the freed group's own edge state, not
        // every object: the group is on `truthy[obj]` only while
        // `state[obj].inside` — `apply_groups_into` writes both from one
        // evaluation.
        for (&obj, state) in &group.state {
            if !state.inside {
                continue;
            }
            if let Some(truthy) = self.truthy.get_mut(&obj) {
                truthy.retain(|g| *g != record.group);
            }
        }
        true
    }

    fn push_node(&mut self, kind: NodeKind) -> usize {
        if let Some(&existing) = self.intern.get(&kind) {
            // A stateful node whose clock has already run cannot be
            // joined: a rule evaluated alone would start a fresh dwell
            // clock / movement anchor, so the DAG must too. Allocate a
            // private copy and re-point the interner at it — rules added
            // from here on share the clean copy.
            if !(kind.stateful() && self.touched.contains(&existing)) {
                return existing;
            }
        }
        let idx = self.nodes.len();
        self.intern.insert(kind.clone(), idx);
        self.nodes.push(kind);
        idx
    }

    /// Compiles a predicate bottom-up into (interned) nodes; returns the
    /// root index and the expanded tree size.
    fn compile(&mut self, p: &Predicate) -> (usize, u64) {
        match p {
            Predicate::InRegion {
                region,
                min_probability,
                min_band,
            } => (
                self.push_node(NodeKind::InRegion {
                    region: RectBits::of(region),
                    min_probability: Bits::of(*min_probability),
                    min_band: *min_band,
                }),
                1,
            ),
            Predicate::NearPoint {
                point,
                radius,
                min_probability,
            } => (
                self.push_node(NodeKind::NearPoint {
                    x: Bits::of(point.x),
                    y: Bits::of(point.y),
                    radius: Bits::of(*radius),
                    min_probability: Bits::of(*min_probability),
                }),
                1,
            ),
            Predicate::CoLocated { with, granularity } => (
                self.push_node(NodeKind::CoLocated {
                    with: with.clone(),
                    granularity: *granularity,
                }),
                1,
            ),
            Predicate::DwellFor {
                predicate,
                duration,
            } => {
                let (child, size) = self.compile(predicate);
                (
                    self.push_node(NodeKind::Dwell {
                        child,
                        duration: Bits::of(duration.as_secs()),
                    }),
                    size + 1,
                )
            }
            Predicate::Moved { threshold } => (
                self.push_node(NodeKind::Moved {
                    threshold: Bits::of(*threshold),
                }),
                1,
            ),
            Predicate::Not(child) => {
                let (c, size) = self.compile(child);
                (self.push_node(NodeKind::Not(c)), size + 1)
            }
            Predicate::And(children) | Predicate::Or(children) => {
                let mut size = 1;
                let mut ids: Vec<usize> = children
                    .iter()
                    .map(|c| {
                        let (id, s) = self.compile(c);
                        size += s;
                        id
                    })
                    .collect();
                // Canonicalize: and/or are commutative and idempotent
                // and evaluation never short-circuits, so sorting and
                // deduping child ids is semantics-preserving and makes
                // `And(a, b)` intern-equal to `And(b, a)`.
                ids.sort_unstable();
                ids.dedup();
                if ids.len() == 1 {
                    return (ids[0], size);
                }
                let kind = match p {
                    Predicate::And(_) => NodeKind::And(ids),
                    _ => NodeKind::Or(ids),
                };
                (self.push_node(kind), size)
            }
        }
    }

    /// Collects the positive region atoms under `root` for R-tree
    /// pruning. Returns `(rects, pure)`; `pure == false` means the
    /// predicate's truth can change without evidence touching any rect
    /// (negation, co-location, movement, dwell clocks), so the group
    /// must be evaluated for every affected object.
    fn interest_of(&self, root: usize) -> (Vec<Rect>, bool) {
        match &self.nodes[root] {
            NodeKind::InRegion { region, .. } => (vec![region.rect()], true),
            NodeKind::NearPoint { x, y, radius, .. } => (
                vec![Rect::from_center(
                    Point::new(x.get(), y.get()),
                    2.0 * radius.get(),
                    2.0 * radius.get(),
                )],
                true,
            ),
            NodeKind::And(children) | NodeKind::Or(children) => {
                let mut rects = Vec::new();
                let mut pure = true;
                for &c in children {
                    let (r, p) = self.interest_of(c);
                    rects.extend(r);
                    pure &= p;
                }
                (rects, pure)
            }
            NodeKind::Dwell { child, .. } => {
                // The clock advances with time alone, so the group must
                // see every fuse; keep the child's rects only for
                // documentation value.
                (self.interest_of(*child).0, false)
            }
            NodeKind::CoLocated { .. } | NodeKind::Moved { .. } | NodeKind::Not(_) => {
                (Vec::new(), false)
            }
        }
    }

    // --- introspection ---------------------------------------------------

    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Distinct DAG nodes ever interned (nodes persist across rule
    /// removal — they are shared).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Live trigger groups.
    pub(crate) fn live_groups(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// Expanded predicate-tree size over live rules divided by distinct
    /// DAG nodes — 1.0 means no sharing, N means N look-alike rules per
    /// node on average.
    pub(crate) fn sharing_ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.nodes.is_empty() {
            1.0
        } else {
            self.expanded_total as f64 / self.nodes.len() as f64
        }
    }

    // --- evaluation (read-only half) -------------------------------------

    /// Candidate trigger groups for one fuse of `object`: every live
    /// group whose object filter is absent or `object`, and which is
    /// always-evaluate, has an interest rect intersecting an evidence
    /// window, or is currently true for the object (exit edges /
    /// re-arming). Sorted ascending, deduped.
    #[cfg(test)]
    pub(crate) fn candidate_groups(&self, object: &MobileObjectId, windows: &[Rect]) -> Vec<usize> {
        let mut out = Vec::new();
        self.candidate_groups_into(object, windows, &mut out);
        out
    }

    /// [`candidate_groups`](RuleEngine::candidate_groups) into a
    /// caller-owned buffer, so the ingest loop reuses one
    /// allocation across fuses. The buffer is cleared first. Returns
    /// the entries scanned to build it (the `rules.candidates.scanned`
    /// metric): grid hits, wildcard always-evaluate groups, the
    /// object's own groups and its currently-true groups.
    ///
    /// Wildcard groups come from the interest grid (re-checked against
    /// the exact rects) and the wildcard `always` list; groups bound to
    /// `object` come from its own list under the same exact test, so
    /// the work follows this object's rules, not everyone's. Every
    /// `truthy[obj]` entry is live and admits `object` — it was written
    /// by an `apply` of this object's candidates and is cleared when
    /// its group is freed — so no filter runs after the merge.
    ///
    /// `windows` is the object's surviving evidence, one rect per
    /// reading — not their union MBR. Selecting per rect matters for
    /// fast movers: an object with an aged reading in one building and
    /// a fresh reading in another has a union box sweeping every
    /// watched room in between, and each spurious candidate costs a
    /// posterior evaluation downstream (DESIGN.md §15).
    pub(crate) fn candidate_groups_into(
        &self,
        object: &MobileObjectId,
        windows: &[Rect],
        out: &mut Vec<usize>,
    ) -> usize {
        let obj = self.idents.intern(object.as_str());
        // The grid is coarse (cell overlap, not rect overlap); this is
        // the exact test, so selection is bit-identical to an exact
        // `intersects` walk over the evidence.
        let touches = |group: &Group| {
            group
                .interest
                .iter()
                .any(|r| windows.iter().any(|w| r.intersects(w)))
        };
        out.clear();
        for w in windows {
            self.index.query_window(w, out);
        }
        let mut scanned = out.len() + self.always.len();
        out.retain(|&g| self.groups[g].as_ref().is_some_and(touches));
        out.extend_from_slice(&self.always);
        if let Some(own) = self.bound.get(&obj) {
            scanned += own.len();
            out.extend(own.iter().copied().filter(|&g| {
                self.groups[g]
                    .as_ref()
                    .is_some_and(|group| group.always || touches(group))
            }));
        }
        if let Some(truthy) = self.truthy.get(&obj) {
            scanned += truthy.len();
            out.extend_from_slice(truthy);
        }
        out.sort_unstable();
        out.dedup();
        scanned
    }

    /// Evaluates the candidate groups against one fuse. Each reachable
    /// DAG node is computed at most once per pass (memoized in the
    /// caller's reusable [`EvalScratch`]); atom-clock updates are
    /// *collected*, not applied — [`apply`](RuleEngine::apply) commits
    /// them, so this half runs under the engine's read lock.
    pub(crate) fn evaluate(
        &self,
        object: &MobileObjectId,
        candidates: &[usize],
        input: &EvalInput<'_>,
        partner: &dyn Fn(&MobileObjectId) -> Option<LocationFix>,
        scratch: &mut EvalScratch,
    ) -> ObjectEvaluation {
        scratch.begin(self.nodes.len());
        let ctx = EvalCtx {
            obj: self.idents.intern(object.as_str()),
            input,
            own_fix: OnceCell::new(),
            partner,
        };
        let mut fx = EvalSideEffects {
            scratch,
            updates: Vec::new(),
            atoms: 0,
        };
        let mut evals: Vec<GroupEval> = Vec::with_capacity(candidates.len());
        for &g in candidates {
            let Some(group) = self.groups[g].as_ref() else {
                continue;
            };
            let value = self.eval_node(group.root, &ctx, &mut fx);
            evals.push(GroupEval {
                group: g,
                satisfied: value.truth,
                probability: value.probability,
                band: input.thresholds.classify(value.probability),
                region: value.region,
                position: input.position,
            });
        }
        ObjectEvaluation {
            evals,
            node_updates: fx.updates,
            atoms_evaluated: fx.atoms,
        }
    }

    fn eval_node(
        &self,
        node: usize,
        ctx: &EvalCtx<'_, '_>,
        fx: &mut EvalSideEffects<'_>,
    ) -> NodeVal {
        if let Some(value) = fx.scratch.get(node) {
            return value;
        }
        let input = ctx.input;
        let value = match &self.nodes[node] {
            NodeKind::InRegion {
                region,
                min_probability,
                min_band,
            } => {
                fx.atoms += 1;
                let rect = region.rect();
                let p = input.fusion.region_probability(&rect);
                let band = input.thresholds.classify(p);
                NodeVal {
                    truth: p >= min_probability.get() && min_band.is_none_or(|min| band >= min),
                    probability: p,
                    region: rect,
                }
            }
            NodeKind::NearPoint {
                x,
                y,
                radius,
                min_probability,
            } => {
                fx.atoms += 1;
                let rect = Rect::from_center(
                    Point::new(x.get(), y.get()),
                    2.0 * radius.get(),
                    2.0 * radius.get(),
                );
                let p = input.fusion.region_probability(&rect);
                NodeVal {
                    truth: p >= min_probability.get(),
                    probability: p,
                    region: rect,
                }
            }
            NodeKind::CoLocated { with, granularity } => {
                fx.atoms += 1;
                let own_region = input.estimate.unwrap_or(input.fallback_region);
                let own = ctx.own_fix.get_or_init(|| (input.own_fix)());
                match (own, (ctx.partner)(with)) {
                    (Some(a), Some(b)) => {
                        let co = relations::co_location(a, &b, *granularity);
                        NodeVal {
                            truth: co.co_located,
                            probability: co.probability,
                            region: a.region,
                        }
                    }
                    _ => NodeVal {
                        truth: false,
                        probability: 0.0,
                        region: own_region,
                    },
                }
            }
            NodeKind::Moved { threshold } => {
                fx.atoms += 1;
                let region = input.estimate.unwrap_or(input.fallback_region);
                let Some(here) = input.position else {
                    // No estimate: nothing moved, anchor untouched.
                    return fx.scratch.put(
                        node,
                        NodeVal {
                            truth: false,
                            probability: 0.0,
                            region,
                        },
                    );
                };
                let anchor = match self.node_state.get(&(node, ctx.obj)) {
                    Some(NodeState::MovedAnchor(p)) => Some(*p),
                    _ => None,
                };
                let truth = match anchor {
                    None => {
                        fx.updates.push((node, NodeState::MovedAnchor(here)));
                        false
                    }
                    Some(anchor) if anchor.distance(here) >= threshold.get() => {
                        fx.updates.push((node, NodeState::MovedAnchor(here)));
                        true
                    }
                    Some(_) => false,
                };
                NodeVal {
                    truth,
                    probability: if truth { 1.0 } else { 0.0 },
                    region,
                }
            }
            NodeKind::Dwell { child, duration } => {
                let inner = self.eval_node(*child, ctx, fx);
                let since = match self.node_state.get(&(node, ctx.obj)) {
                    Some(NodeState::DwellSince(s)) => *s,
                    _ => None,
                };
                let new_since = if inner.truth {
                    Some(since.unwrap_or(input.now))
                } else {
                    None
                };
                if new_since != since {
                    fx.updates.push((node, NodeState::DwellSince(new_since)));
                }
                let truth = match new_since {
                    Some(start) => input.now.saturating_since(start).as_secs() >= duration.get(),
                    None => false,
                };
                NodeVal {
                    truth,
                    probability: inner.probability,
                    region: inner.region,
                }
            }
            NodeKind::Not(child) => {
                let inner = self.eval_node(*child, ctx, fx);
                NodeVal {
                    truth: !inner.truth,
                    probability: (1.0 - inner.probability).clamp(0.0, 1.0),
                    region: inner.region,
                }
            }
            NodeKind::And(children) | NodeKind::Or(children) => {
                let and = matches!(self.nodes[node], NodeKind::And(_));
                // Payload: And's binding constraint (least child), Or's
                // strongest alternative (greatest child).
                let wanted = if and {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let mut truth = and;
                let mut payload: Option<NodeVal> = None;
                // No short-circuiting: every child evaluates so shared
                // stateful atoms advance deterministically.
                for &c in children {
                    let v = self.eval_node(c, ctx, fx);
                    truth = if and {
                        truth && v.truth
                    } else {
                        truth || v.truth
                    };
                    if payload.is_none_or(|best| v.payload_cmp(&best) == wanted) {
                        payload = Some(v);
                    }
                }
                // Compiled and/or nodes have at least two children.
                NodeVal {
                    truth,
                    ..payload.unwrap_or_default()
                }
            }
        };
        fx.scratch.put(node, value)
    }

    // --- apply (stateful half) -------------------------------------------

    /// Folds one object's evaluation into edge state, in deterministic
    /// order, returning the rules that fired — sorted by subscription id,
    /// exactly the order the historical per-subscription walk emitted.
    #[cfg(test)]
    pub(crate) fn apply(
        &mut self,
        object: &MobileObjectId,
        evaluation: ObjectEvaluation,
    ) -> Vec<FiredRule> {
        let mut groups = Vec::new();
        self.apply_groups_into(object, evaluation, &mut groups);
        let mut fired = Vec::new();
        self.for_each_fired(&groups, |f| fired.push(f));
        fired
    }

    /// The stateful half of [`RuleEngine::apply`], writing one record
    /// per *fired group* into a caller-owned buffer — `fired` is
    /// cleared, then filled. Recording groups rather than members keeps
    /// the hot path's memory traffic proportional to groups fired, not
    /// subscriptions notified; callers expand members with
    /// [`RuleEngine::for_each_fired`]. The out-parameter is the ingest
    /// hot path's allocation amortizer: the service hands the same
    /// thread-local buffer to every apply of a batch (DESIGN.md §15).
    pub(crate) fn apply_groups_into(
        &mut self,
        object: &MobileObjectId,
        evaluation: ObjectEvaluation,
        fired: &mut Vec<FiredGroup>,
    ) {
        fired.clear();
        let obj = self.idents.intern(object.as_str());
        for (node, state) in evaluation.node_updates {
            self.touched.insert(node);
            self.node_state.insert((node, obj), state);
        }
        for eval in evaluation.evals {
            let Some(group) = self.groups[eval.group].as_mut() else {
                continue;
            };
            let state = group.state.entry(obj).or_default();
            let was = state.inside;
            if eval.satisfied && !was {
                state.inside = true;
                self.truthy.entry(obj).or_default().push(eval.group);
            } else if !eval.satisfied && was {
                state.inside = false;
                if let Some(truthy) = self.truthy.get_mut(&obj) {
                    truthy.retain(|g| *g != eval.group);
                }
            }
            let fires = match group.trigger {
                SubscriptionTrigger::OnEnter => eval.satisfied && !was,
                SubscriptionTrigger::OnExit => !eval.satisfied && was,
                SubscriptionTrigger::OnMove { threshold } => {
                    if !eval.satisfied {
                        state.anchor = None;
                        false
                    } else {
                        match eval.position {
                            // Entry without a position still fires once.
                            None => !was,
                            Some(here) => match state.anchor {
                                None => {
                                    state.anchor = Some(here);
                                    true
                                }
                                Some(anchor) if anchor.distance(here) >= threshold => {
                                    state.anchor = Some(here);
                                    true
                                }
                                Some(_) => false,
                            },
                        }
                    }
                }
            };
            if !state.inside && state.anchor.is_none() {
                group.state.remove(&obj);
            }
            if fires {
                fired.push(FiredGroup {
                    group: eval.group,
                    region: eval.region,
                    probability: eval.probability,
                    band: eval.band,
                });
            }
        }
    }

    /// Expands fired groups into [`Notification`]s appended to `out`,
    /// ascending by subscription id (see
    /// [`for_each_fired`](RuleEngine::for_each_fired) for the ordering
    /// argument). The common single-fired-group case goes through
    /// `Vec::extend` with an exact-size iterator, so a 100-member
    /// look-alike group materializes as one reserve plus a straight
    /// write loop — no per-push capacity check. This is the ingest hot
    /// path's single largest memory writer (DESIGN.md §15).
    pub(crate) fn extend_notifications(
        &self,
        fired: &[FiredGroup],
        object: &MobileObjectId,
        now: SimTime,
        out: &mut Vec<Notification>,
    ) {
        if let [g] = fired {
            let Some(group) = self.groups[g.group].as_ref() else {
                return;
            };
            out.extend(group.members.iter().map(|&id| Notification {
                subscription: id,
                object: object.clone(),
                region: g.region,
                probability: g.probability,
                band: g.band,
                at: now,
            }));
        } else {
            self.for_each_fired(fired, |f| {
                out.push(Notification {
                    subscription: f.id,
                    object: object.clone(),
                    region: f.region,
                    probability: f.probability,
                    band: f.band,
                    at: now,
                });
            });
        }
    }

    /// Expands fired groups into per-member [`FiredRule`]s, ascending
    /// by subscription id across *all* groups — exactly the order the
    /// historical per-subscription walk emitted. Each group's member
    /// list is already ascending (members are appended in registration
    /// order and ids are monotone), so the common single-group case is
    /// a straight scan and the rare multi-group case is a k-way merge
    /// over k sorted runs — no sort, no allocation for k ≤ 8.
    pub(crate) fn for_each_fired<F: FnMut(FiredRule)>(&self, fired: &[FiredGroup], mut emit: F) {
        let members = |g: &FiredGroup| -> &[SubscriptionId] {
            self.groups[g.group]
                .as_ref()
                .map_or(&[], |group| group.members.as_slice())
        };
        match fired {
            [] => {}
            [g] => {
                for &id in members(g) {
                    emit(FiredRule {
                        id,
                        region: g.region,
                        probability: g.probability,
                        band: g.band,
                    });
                }
            }
            groups => {
                // Subscription ids are unique within one apply (a rule
                // belongs to exactly one group and candidate groups are
                // deduped), so the merge never sees equal heads.
                let mut inline = [0usize; 8];
                let mut spill;
                let cursors: &mut [usize] = if groups.len() <= inline.len() {
                    &mut inline[..groups.len()]
                } else {
                    spill = vec![0usize; groups.len()];
                    &mut spill
                };
                loop {
                    let mut best: Option<(usize, SubscriptionId)> = None;
                    for (i, g) in groups.iter().enumerate() {
                        if let Some(&id) = members(g).get(cursors[i]) {
                            if best.is_none_or(|(_, b)| id < b) {
                                best = Some((i, id));
                            }
                        }
                    }
                    let Some((i, id)) = best else { break };
                    cursors[i] += 1;
                    let g = &groups[i];
                    emit(FiredRule {
                        id,
                        region: g.region,
                        probability: g.probability,
                        band: g.band,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> RuleEngine {
        RuleEngine::new(Arc::new(Interner::new()))
    }

    fn region(i: u32) -> Rect {
        let x = f64::from(i) * 20.0;
        Rect::new(Point::new(x, 0.0), Point::new(x + 10.0, 10.0))
    }

    fn in_region(i: u32) -> Predicate {
        Predicate::in_region(region(i), 0.5)
    }

    #[test]
    fn builder_validates() {
        assert!(Rule::when(Predicate::in_region(region(0), 1.5))
            .build()
            .is_err());
        assert!(
            Rule::when(Predicate::near_point(Point::new(0.0, 0.0), 0.0, 0.5))
                .build()
                .is_err()
        );
        assert!(Rule::when(Predicate::co_located("bob", 0)).build().is_err());
        assert!(Rule::when(Predicate::moved(-1.0)).build().is_err());
        assert!(
            Rule::when(in_region(0).for_at_least(SimDuration::from_secs(0.0)))
                .build()
                .is_err()
        );
        assert!(Rule::when(Predicate::And(vec![])).build().is_err());
        assert!(Rule::when(in_region(0)).on_move(0.0).build().is_err());
        assert!(matches!(
            Rule::when(in_region(0))
                .bounded(0, mw_bus::OverflowPolicy::DropOldest)
                .build(),
            Err(CoreError::InvalidRule { .. })
        ));
        let ok = Rule::when(in_region(0).and(Predicate::moved(2.0)))
            .object("alice")
            .on_exit()
            .build()
            .unwrap();
        assert_eq!(ok.object, Some("alice".into()));
        assert_eq!(ok.trigger, SubscriptionTrigger::OnExit);
    }

    #[test]
    fn spec_compiles_to_one_atom_rule() {
        let spec = SubscriptionSpec::builder()
            .region(region(3))
            .object("alice")
            .min_probability(0.4)
            .min_band(ProbabilityBand::Medium)
            .on_exit()
            .build()
            .unwrap();
        let rule = Rule::from(spec);
        assert_eq!(
            rule.predicate,
            Predicate::InRegion {
                region: region(3),
                min_probability: 0.4,
                min_band: Some(ProbabilityBand::Medium),
            }
        );
        assert_eq!(rule.object, Some("alice".into()));
        assert_eq!(rule.trigger, SubscriptionTrigger::OnExit);
    }

    #[test]
    fn look_alike_rules_share_one_node_and_one_group() {
        let mut engine = engine();
        for _ in 0..1000 {
            engine.add(&Rule::when(in_region(0)).build().unwrap());
        }
        assert_eq!(engine.len(), 1000);
        assert_eq!(engine.node_count(), 1);
        assert_eq!(engine.live_groups(), 1);
        assert!((engine.sharing_ratio() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn structurally_equal_subtrees_intern_to_one_node() {
        let mut engine = engine();
        // Same And over the same atoms, written in opposite orders.
        engine.add(&Rule::when(in_region(0).and(in_region(1))).build().unwrap());
        engine.add(&Rule::when(in_region(1).and(in_region(0))).build().unwrap());
        // 2 atoms + 1 shared And node.
        assert_eq!(engine.node_count(), 3);
        assert_eq!(engine.live_groups(), 1);
        // A rule reusing one atom in a bigger expression adds only the
        // new structure.
        engine.add(
            &Rule::when(in_region(0).and(in_region(1)).and(in_region(2)))
                .build()
                .unwrap(),
        );
        assert_eq!(engine.node_count(), 5); // + atom 2, + wider And
    }

    #[test]
    fn and_or_collapse_duplicate_children() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0).and(in_region(0))).build().unwrap());
        // And([a, a]) canonicalizes to a single atom node.
        assert_eq!(engine.node_count(), 1);
    }

    #[test]
    fn remove_frees_group_but_keeps_nodes() {
        let mut engine = engine();
        let a = engine.add(&Rule::when(in_region(0)).build().unwrap());
        let b = engine.add(&Rule::when(in_region(0)).build().unwrap());
        assert_eq!(engine.live_groups(), 1);
        assert!(engine.remove(a));
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.live_groups(), 1);
        assert!(engine.remove(b));
        assert_eq!(engine.live_groups(), 0);
        assert_eq!(engine.node_count(), 1);
        assert!(!engine.remove(b));
        // Re-adding reuses the interned node in a fresh group.
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        assert_eq!(engine.node_count(), 1);
        assert_eq!(engine.live_groups(), 1);
    }

    #[test]
    fn always_evaluate_classification() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        engine.add(&Rule::when(in_region(1).not()).build().unwrap());
        engine.add(
            &Rule::when(in_region(2).for_at_least(SimDuration::from_secs(5.0)))
                .build()
                .unwrap(),
        );
        engine.add(&Rule::when(Predicate::moved(3.0)).build().unwrap());
        engine.add(&Rule::when(Predicate::co_located("bob", 3)).build().unwrap());
        // Pure in-region prunes via the R-tree; the other four are
        // always-evaluate.
        assert_eq!(engine.always.len(), 4);
        let none = engine.candidate_groups(&"alice".into(), &[]);
        assert_eq!(none.len(), 4, "always groups survive an empty window");
        let hit = engine.candidate_groups(&"alice".into(), &[region(0)]);
        assert_eq!(hit.len(), 5);
    }

    /// Synthesizes one group's evaluation so the trigger edge machinery
    /// can be exercised without a fusion pipeline.
    fn verdict(
        engine: &RuleEngine,
        group: usize,
        satisfied: bool,
        position: Option<Point>,
    ) -> ObjectEvaluation {
        let g = engine.groups[group].as_ref().unwrap();
        ObjectEvaluation {
            evals: vec![GroupEval {
                group,
                satisfied,
                probability: if satisfied { 0.9 } else { 0.1 },
                band: ProbabilityBand::Low,
                region: g.interest.first().copied().unwrap_or_else(|| region(0)),
                position,
            }],
            node_updates: Vec::new(),
            atoms_evaluated: 0,
        }
    }

    fn fires(
        engine: &mut RuleEngine,
        object: &str,
        satisfied: bool,
        position: Option<Point>,
    ) -> bool {
        let ev = verdict(engine, 0, satisfied, position);
        !engine.apply(&object.into(), ev).is_empty()
    }

    #[test]
    fn edge_triggering() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        // False → no edge.
        assert!(!fires(&mut engine, "alice", false, None));
        // Rising edge.
        assert!(fires(&mut engine, "alice", true, None));
        // Still true → no new notification.
        assert!(!fires(&mut engine, "alice", true, None));
        // Falls, then rises again.
        assert!(!fires(&mut engine, "alice", false, None));
        assert!(fires(&mut engine, "alice", true, None));
    }

    #[test]
    fn exit_triggering() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).on_exit().build().unwrap());
        // Entering fires nothing.
        assert!(!fires(&mut engine, "alice", true, None));
        assert!(!fires(&mut engine, "alice", true, None));
        // Leaving is the edge.
        assert!(fires(&mut engine, "alice", false, None));
        // Staying out fires nothing; re-entering re-arms.
        assert!(!fires(&mut engine, "alice", false, None));
        assert!(!fires(&mut engine, "alice", true, None));
        assert!(fires(&mut engine, "alice", false, None));
    }

    #[test]
    fn move_triggering() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).on_move(3.0).build().unwrap());
        // Entry fires and anchors.
        assert!(fires(
            &mut engine,
            "alice",
            true,
            Some(Point::new(1.0, 1.0))
        ));
        // Sub-threshold jiggle: silent.
        assert!(!fires(
            &mut engine,
            "alice",
            true,
            Some(Point::new(2.0, 1.0))
        ));
        // Past the threshold from the anchor: fires and re-anchors.
        assert!(fires(
            &mut engine,
            "alice",
            true,
            Some(Point::new(4.5, 1.0))
        ));
        assert!(!fires(
            &mut engine,
            "alice",
            true,
            Some(Point::new(5.0, 1.0))
        ));
        // Leaving clears the anchor; re-entry fires afresh.
        assert!(!fires(
            &mut engine,
            "alice",
            false,
            Some(Point::new(50.0, 50.0))
        ));
        assert!(fires(
            &mut engine,
            "alice",
            true,
            Some(Point::new(5.0, 1.0))
        ));
    }

    #[test]
    fn state_is_per_object() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        assert!(fires(&mut engine, "alice", true, None));
        // Bob's first satisfaction is its own edge.
        assert!(fires(&mut engine, "bob", true, None));
    }

    #[test]
    fn group_members_fire_together_sorted_by_id() {
        let mut engine = engine();
        let a = engine.add(&Rule::when(in_region(0)).build().unwrap());
        let b = engine.add(&Rule::when(in_region(0)).build().unwrap());
        let ev = verdict(&engine, 0, true, None);
        let fired = engine.apply(&"alice".into(), ev);
        assert_eq!(fired.iter().map(|f| f.id).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn late_join_gets_fresh_edge_state() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        // Alice enters: group 0 now holds state.
        assert!(fires(&mut engine, "alice", true, None));
        // A look-alike added now must not inherit the "already inside"
        // edge — it lands in a fresh group sharing the same DAG node.
        let late = engine.add(&Rule::when(in_region(0)).build().unwrap());
        assert_eq!(engine.node_count(), 1);
        assert_eq!(engine.live_groups(), 2);
        let ev = verdict(&engine, 1, true, None);
        let fired = engine.apply(&"alice".into(), ev);
        assert_eq!(fired.iter().map(|f| f.id).collect::<Vec<_>>(), vec![late]);
    }

    #[test]
    fn stateful_node_splits_after_its_clock_has_run() {
        let mut engine = engine();
        let dwell =
            || Predicate::in_region(region(0), 0.5).for_at_least(SimDuration::from_secs(5.0));
        engine.add(&Rule::when(dwell()).build().unwrap());
        // Clean clock: a look-alike still interns to the same two nodes.
        engine.add(&Rule::when(dwell()).build().unwrap());
        assert_eq!(engine.node_count(), 2, "InRegion + Dwell, shared");

        // Run the dwell clock: commit a node update for the dwell node.
        let mut ev = verdict(&engine, 0, false, None);
        ev.node_updates
            .push((1, NodeState::DwellSince(Some(SimTime::from_secs(1.0)))));
        engine.apply(&"alice".into(), ev);

        // A rule added now must NOT inherit the running clock — a rule
        // evaluated alone would start it fresh. The dwell node splits (the
        // pure InRegion child stays shared), and the new root lands in
        // its own group.
        let late = engine.add(&Rule::when(dwell()).build().unwrap());
        assert_eq!(engine.node_count(), 3, "fresh dwell node, shared child");
        assert_eq!(engine.live_groups(), 2);
        let record = engine.rules[&late].group;
        assert_ne!(engine.groups[record].as_ref().unwrap().root, 1);

        // And the re-pointed interner shares the clean copy with rules
        // added after the split, instead of splitting again.
        engine.add(&Rule::when(dwell()).build().unwrap());
        assert_eq!(engine.node_count(), 3);
    }

    #[test]
    fn object_filter_prunes_candidates() {
        let mut engine = engine();
        engine.add(&Rule::when(in_region(0)).object("alice").build().unwrap());
        engine.add(&Rule::when(in_region(0)).object("bob").build().unwrap());
        engine.add(&Rule::when(in_region(0)).build().unwrap());
        let alice = engine.candidate_groups(&"alice".into(), &[region(0)]);
        assert_eq!(alice.len(), 2, "alice's filter plus the any-object group");
    }

    #[test]
    fn freed_bound_group_leaves_no_trace_and_rejoiner_rises_again() {
        let mut engine = engine();
        let rule = || Rule::when(in_region(0)).object("alice").build().unwrap();
        let a = engine.add(&rule());
        let b = engine.add(&rule());
        let alice = engine.idents.intern("alice");
        assert_eq!(engine.bound[&alice], vec![0]);
        // Alice enters: group 0 rises and is now true for her.
        assert_eq!(
            engine.candidate_groups(&"alice".into(), &[region(0)]),
            vec![0]
        );
        assert!(fires(&mut engine, "alice", true, None));

        assert!(engine.remove(a));
        assert_eq!(engine.bound[&alice], vec![0], "b still holds the group");
        assert!(engine.remove(b));
        assert!(engine.bound.is_empty(), "the emptied entry is dropped");
        assert!(engine.truthy[&alice].is_empty());
        assert!(engine
            .candidate_groups(&"alice".into(), &[region(0)])
            .is_empty());

        // Re-subscribing the same key lands in a fresh group that sees
        // its own rising edge, although alice never left.
        let c = engine.add(&rule());
        let g = engine.rules[&c].group;
        assert_eq!(engine.bound[&alice], vec![g]);
        assert_eq!(
            engine.candidate_groups(&"alice".into(), &[region(0)]),
            vec![g]
        );
        let fired = engine.apply(&"alice".into(), verdict(&engine, g, true, None));
        assert_eq!(fired.iter().map(|f| f.id).collect::<Vec<_>>(), vec![c]);
    }

    // --- candidate selection against a brute-force oracle ------------------

    impl RuleEngine {
        /// What [`RuleEngine::candidate_groups_into`] must return, by
        /// brute force over every group slot: each live group whose
        /// object filter admits `object` and that is always-evaluate,
        /// has an interest rect intersecting a window, or is currently
        /// true for the object. Ascending.
        fn candidate_groups_oracle(&self, object: &MobileObjectId, windows: &[Rect]) -> Vec<usize> {
            let obj = self.idents.intern(object.as_str());
            let truthy = self.truthy.get(&obj);
            (0..self.groups.len())
                .filter(|&g| {
                    self.groups[g].as_ref().is_some_and(|group| {
                        group.object.is_none_or(|o| o == obj)
                            && (group.always
                                || group
                                    .interest
                                    .iter()
                                    .any(|r| windows.iter().any(|w| r.intersects(w)))
                                || truthy.is_some_and(|t| t.contains(&g)))
                    })
                })
                .collect()
        }
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// Eight people carry bound rules; `zed` never does.
        const PEOPLE: &[&str] = &["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "zed"];

        /// Rects on a 10-unit lattice over three 50-unit grid cells each
        /// way, so rects and windows often share a cell without touching
        /// (the exact re-check decides) and look-alike rules share keys;
        /// one in ten spans more than the grid's 4 096-cell cap.
        fn rect() -> impl Strategy<Value = Rect> {
            (0..15u32, 0..15u32, 0..6u32, 0..6u32, 0..10u32).prop_map(|(x, y, w, h, big)| {
                let (x, y) = (f64::from(x) * 10.0, f64::from(y) * 10.0);
                let (w, h) = if big == 0 {
                    (5_000.0, 5_000.0)
                } else {
                    (f64::from(w) * 10.0, f64::from(h) * 10.0)
                };
                Rect::new(Point::new(x, y), Point::new(x + w, y + h))
            })
        }

        /// Evidence windows: none, a point, a tiny box, ordinary rects,
        /// or one spanning more cells than the grid enumerates.
        fn windows() -> impl Strategy<Value = Vec<Rect>> {
            (0..5usize, rect(), rect(), 0.0..150.0f64, 0.0..150.0f64).prop_map(
                |(kind, a, b, x, y)| match kind {
                    0 => Vec::new(),
                    1 => vec![Rect::from_point(Point::new(x, y))],
                    2 => vec![Rect::from_center(Point::new(x, y), 0.5, 0.5)],
                    3 => vec![a, b],
                    _ => vec![Rect::new(
                        Point::new(-10.0, -10.0),
                        Point::new(9_000.0, 9_000.0),
                    )],
                },
            )
        }

        /// Pure atoms (grid- or list-indexed) and impure ones
        /// (always-evaluate), under the wrappers that make a group
        /// impure.
        fn predicate() -> impl Strategy<Value = Predicate> {
            (0..7usize, rect(), rect(), 0..3usize).prop_map(|(shape, a, b, k)| {
                let center = b.center();
                let (a, b) = (Predicate::in_region(a, 0.5), Predicate::in_region(b, 0.4));
                match shape {
                    0 | 1 => a,
                    2 => Predicate::near_point(center, 5.0 + k as f64 * 20.0, 0.5),
                    3 => a.and(b),
                    4 => a.or(Predicate::moved(3.0)),
                    5 => a.not(),
                    _ => a.for_at_least(SimDuration::from_secs(2.0 + k as f64)),
                }
            })
        }

        /// At least half bound (to the eight people), the rest wildcard.
        fn rule() -> impl Strategy<Value = Rule> {
            (predicate(), 0..12usize, 0..3usize).prop_map(|(p, who, trigger)| {
                let builder = Rule::when(p);
                let builder = if who < 8 {
                    builder.object(PEOPLE[who])
                } else {
                    builder
                };
                match trigger {
                    0 => builder.on_enter(),
                    1 => builder.on_exit(),
                    _ => builder.on_move(4.0),
                }
                .build()
                .expect("strategy builds valid rules")
            })
        }

        #[derive(Debug, Clone)]
        enum Op {
            Add(Rule),
            /// Unsubscribe the `k`-th live rule.
            Remove(usize),
            /// Unsubscribe the `k`-th live rule and subscribe it again —
            /// frees a single-member group and re-adds its key.
            Readd(usize),
            /// Select for a person, then apply the verdicts `truths`
            /// (bit `i` for candidate `i`): drives `truthy`.
            Sight(usize, Vec<Rect>, u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            (
                0..10usize,
                rule(),
                0..1024usize,
                0..PEOPLE.len(),
                windows(),
                0..u64::MAX,
            )
                .prop_map(|(kind, rule, k, who, windows, truths)| match kind {
                    0..=3 => Op::Add(rule),
                    4 => Op::Remove(k),
                    5 => Op::Readd(k),
                    _ => Op::Sight(who, windows, truths),
                })
        }

        /// Fixed probes run after every op, besides the op's own windows.
        fn probes() -> Vec<Vec<Rect>> {
            vec![
                Vec::new(),
                vec![Rect::from_point(Point::new(50.0, 50.0))],
                vec![Rect::new(Point::new(12.0, 3.0), Point::new(14.0, 5.0))],
                vec![
                    Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)),
                    Rect::new(Point::new(100.0, 60.0), Point::new(140.0, 140.0)),
                ],
                vec![Rect::new(
                    Point::new(-10.0, -10.0),
                    Point::new(9_000.0, 9_000.0),
                )],
            ]
        }

        fn check(engine: &RuleEngine, windows: &[Vec<Rect>]) -> Result<(), TestCaseError> {
            for who in PEOPLE {
                let object: MobileObjectId = (*who).into();
                for w in windows {
                    prop_assert_eq!(
                        engine.candidate_groups(&object, w),
                        engine.candidate_groups_oracle(&object, w),
                        "object {} windows {:?}",
                        who,
                        w
                    );
                }
            }
            // The indexes hold exactly the live groups of their kind:
            // emptied per-object entries are dropped, lists ascend.
            let mut bound: FastMap<u32, Vec<usize>> = FastMap::default();
            let mut always = Vec::new();
            for (g, group) in engine.groups.iter().enumerate() {
                match group.as_ref().map(|group| (group.object, group.always)) {
                    Some((Some(o), _)) => bound.entry(o).or_default().push(g),
                    Some((None, true)) => always.push(g),
                    _ => {}
                }
            }
            prop_assert_eq!(&engine.bound, &bound);
            prop_assert_eq!(&engine.always, &always);
            Ok(())
        }

        fn apply_verdicts(engine: &mut RuleEngine, who: usize, windows: &[Rect], truths: u64) {
            let object: MobileObjectId = PEOPLE[who].into();
            let candidates = engine.candidate_groups(&object, windows);
            let evals = candidates
                .iter()
                .enumerate()
                .map(|(i, &group)| GroupEval {
                    group,
                    satisfied: truths >> (i % 64) & 1 == 1,
                    probability: 0.5,
                    band: ProbabilityBand::Low,
                    region: region(0),
                    position: None,
                })
                .collect();
            let evaluation = ObjectEvaluation {
                evals,
                ..ObjectEvaluation::empty()
            };
            engine.apply(&object, evaluation);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `candidate_groups_into` equals the brute-force definition
            /// after every registration, removal, re-registration and
            /// edge-state change, for bound, wildcard and unknown
            /// objects.
            #[test]
            fn candidate_selection_matches_brute_force_oracle(
                ops in proptest::collection::vec(op(), 1..60),
            ) {
                let mut engine = engine();
                let mut live: Vec<(SubscriptionId, Rule)> = Vec::new();
                for op in ops {
                    let mut windows = probes();
                    match op {
                        Op::Add(rule) => live.push((engine.add(&rule), rule)),
                        Op::Remove(k) if !live.is_empty() => {
                            let (id, _) = live.remove(k % live.len());
                            prop_assert!(engine.remove(id));
                        }
                        Op::Readd(k) if !live.is_empty() => {
                            let (id, rule) = live.remove(k % live.len());
                            prop_assert!(engine.remove(id));
                            live.push((engine.add(&rule), rule));
                        }
                        Op::Sight(who, w, truths) => {
                            apply_verdicts(&mut engine, who, &w, truths);
                            windows.push(w);
                        }
                        Op::Remove(_) | Op::Readd(_) => {}
                    }
                    check(&engine, &windows)?;
                }
            }
        }
    }
}
