//! The containment lattice of sensor rectangles (§4.1.2, Figures 5–6).
//!
//! "In order to efficiently combine different sensor readings, we
//! construct a lattice of rectangles, where the lattice relationship is
//! containment. The rectangles in the lattice are both sensor rectangles
//! as well as any new rectangle regions that are formed due to the
//! intersection of two rectangles."
//!
//! The lattice has a virtual **Top** (the universe) and **Bottom** (the
//! empty region). The children of a node are the maximal regions strictly
//! contained in it (a Hasse diagram). Object queries read the parents of
//! Bottom — the smallest, most specific regions (§4.2).
//!
//! # Storage
//!
//! Nodes, Hasse edges and evidence indices live in flat arenas with
//! inline small-buffer storage ([`SmallBuf`]): a node's parent/child
//! lists are `(start, len)` ranges into two shared edge arenas rather
//! than per-node `Vec`s, and the per-node evidence lists of merged
//! sensor rectangles are ranges into a shared index arena. For the
//! typical fuse (one to three readings, at most eight lattice nodes
//! counting Top and Bottom) building a lattice therefore performs
//! **zero heap allocations**; larger lattices spill to the heap
//! transparently. Edge *ordering* is
//! identical to the historical per-node-`Vec` construction (every list
//! ascends by node index), so traversal, `best_estimate` tie-breaking
//! and posteriors are bit-identical.

use mw_geometry::{Point, Rect};

use crate::bayes::{posterior_general, SensorEvidence};
use crate::smallbuf::SmallBuf;
use crate::FusionError;

/// Index of a node within a [`RegionLattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a lattice node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeKind {
    /// The universe (everything): the lattice Top.
    Top,
    /// The empty region: the lattice Bottom.
    #[default]
    Bottom,
    /// A rectangle reported directly by the sensors. Several sensors may
    /// report the identical rectangle; the reporting evidence indices
    /// are `count` entries starting at `first` in the lattice's shared
    /// index arena (see [`RegionLattice::evidence_indices`]).
    Sensor {
        /// Start of this node's evidence-index run in the shared arena.
        first: u32,
        /// Number of evidence entries that reported this rectangle.
        count: u32,
    },
    /// A region formed by intersecting sensor rectangles.
    Intersection,
    /// A region inserted by a query or a trigger subscription (§4.2–4.3).
    Query,
}

/// A `(start, len)` run inside one of the shared edge arenas.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeRange {
    start: u32,
    len: u32,
}

impl EdgeRange {
    fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    region: Rect,
    kind: NodeKind,
    parents: EdgeRange,
    children: EdgeRange,
    probability: f64,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            region: Rect::from_point(Point::ORIGIN),
            kind: NodeKind::Bottom,
            parents: EdgeRange::default(),
            children: EdgeRange::default(),
            probability: 0.0,
        }
    }
}

/// Inline capacities: a typical fuse is 1–3 readings, whose lattice
/// stays within these bounds — larger ones spill. They are sized
/// against the fusion cache, which keeps one result per tracked object
/// (see the `FusionResult` size test in `engine.rs`).
const NODES_INLINE: usize = 8;
const EDGES_INLINE: usize = 12;
const EVIDENCE_INLINE: usize = 8;

/// The containment lattice over sensor rectangles and their intersections.
#[derive(Debug, Clone)]
pub struct RegionLattice {
    universe: Rect,
    nodes: SmallBuf<Node, NODES_INLINE>,
    /// Parent-edge arena; a node's parents are `node.parents.as_range()`.
    parent_edges: SmallBuf<NodeId, EDGES_INLINE>,
    /// Child-edge arena; a node's children are `node.children.as_range()`.
    child_edges: SmallBuf<NodeId, EDGES_INLINE>,
    /// Evidence-index arena for merged sensor rectangles.
    evidence_idx: SmallBuf<u32, EVIDENCE_INLINE>,
    evidence: SmallBuf<SensorEvidence, EVIDENCE_INLINE>,
}

/// Top is always node 0, Bottom node 1.
const TOP: NodeId = NodeId(0);
const BOTTOM: NodeId = NodeId(1);

impl RegionLattice {
    /// Builds the lattice for one object's sensor evidence.
    ///
    /// Adds every distinct sensor rectangle plus every distinct pairwise
    /// intersection, wires the containment Hasse diagram, and computes
    /// each region's Equation-7 posterior.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::DegenerateUniverse`] when `universe` has zero
    /// area.
    pub fn build(universe: Rect, evidence: Vec<SensorEvidence>) -> Result<Self, FusionError> {
        let mut buf: SmallBuf<SensorEvidence, EVIDENCE_INLINE> = SmallBuf::default();
        for e in evidence {
            buf.push(e);
        }
        Self::build_from_buf(universe, buf)
    }

    /// Allocation-free variant of [`RegionLattice::build`] taking the
    /// evidence in its final inline-buffer form (the engine's hot path).
    pub(crate) fn build_from_buf(
        universe: Rect,
        evidence: SmallBuf<SensorEvidence, EVIDENCE_INLINE>,
    ) -> Result<Self, FusionError> {
        if universe.area() <= 0.0 {
            return Err(FusionError::DegenerateUniverse);
        }
        let mut lattice = RegionLattice {
            universe,
            nodes: SmallBuf::default(),
            parent_edges: SmallBuf::default(),
            child_edges: SmallBuf::default(),
            evidence_idx: SmallBuf::default(),
            evidence,
        };
        lattice.nodes.push(Node {
            region: universe,
            kind: NodeKind::Top,
            parents: EdgeRange::default(),
            children: EdgeRange::default(),
            probability: 1.0,
        });
        lattice.nodes.push(Node {
            region: Rect::from_point(universe.min()),
            kind: NodeKind::Bottom,
            parents: EdgeRange::default(),
            children: EdgeRange::default(),
            probability: 0.0,
        });

        // Distinct sensor rectangles, merged bit-exactly (RectKey), in
        // first-occurrence order — identical node numbering to the
        // historical BTreeMap construction. `ev_node[i]` is the node
        // that evidence entry `i` landed on.
        let mut ev_node: SmallBuf<u32, EVIDENCE_INLINE> = SmallBuf::default();
        for i in 0..lattice.evidence.len() {
            let key = RectKey::from(&lattice.evidence.as_slice()[i].region);
            let existing = (2..lattice.nodes.len())
                .find(|&n| RectKey::from(&lattice.nodes.as_slice()[n].region) == key);
            match existing {
                Some(n) => {
                    if let NodeKind::Sensor { count, .. } =
                        &mut lattice.nodes.as_mut_slice()[n].kind
                    {
                        *count += 1;
                    }
                    #[allow(clippy::cast_possible_truncation)]
                    ev_node.push(n as u32);
                }
                None => {
                    let region = lattice.evidence.as_slice()[i].region;
                    let n = lattice.nodes.len();
                    lattice.nodes.push(Node {
                        region,
                        kind: NodeKind::Sensor { first: 0, count: 1 },
                        parents: EdgeRange::default(),
                        children: EdgeRange::default(),
                        probability: 0.0,
                    });
                    #[allow(clippy::cast_possible_truncation)]
                    ev_node.push(n as u32);
                }
            }
        }
        // Lay the per-node evidence-index runs out contiguously (runs
        // ascend within a node because evidence is scanned in order).
        let sensor_end = lattice.nodes.len();
        let mut cursor = 0u32;
        for n in 2..sensor_end {
            if let NodeKind::Sensor { first, count } = &mut lattice.nodes.as_mut_slice()[n].kind {
                *first = cursor;
                cursor += *count;
            }
        }
        for _ in 0..ev_node.len() {
            lattice.evidence_idx.push(0);
        }
        {
            let mut placed: SmallBuf<u32, NODES_INLINE> = SmallBuf::default();
            for _ in 0..sensor_end {
                placed.push(0);
            }
            for (i, &n) in ev_node.as_slice().iter().enumerate() {
                let NodeKind::Sensor { first, .. } = lattice.nodes.as_slice()[n as usize].kind
                else {
                    unreachable!("evidence maps onto sensor nodes only");
                };
                let slot = first + placed.as_slice()[n as usize];
                #[allow(clippy::cast_possible_truncation)]
                {
                    lattice.evidence_idx.as_mut_slice()[slot as usize] = i as u32;
                }
                placed.as_mut_slice()[n as usize] += 1;
            }
        }

        // Distinct pairwise intersections, in pair order — again the
        // historical node numbering (the BTreeMap only deduplicated;
        // insertion order decided indices).
        for a in 2..sensor_end {
            for b in (a + 1)..sensor_end {
                let ra = lattice.nodes.as_slice()[a].region;
                let rb = lattice.nodes.as_slice()[b].region;
                if let Some(c) = ra.intersection(&rb) {
                    if c.area() > 0.0 {
                        let key = RectKey::from(&c);
                        let known = (2..lattice.nodes.len())
                            .any(|n| RectKey::from(&lattice.nodes.as_slice()[n].region) == key);
                        if !known {
                            lattice.nodes.push(Node {
                                region: c,
                                kind: NodeKind::Intersection,
                                parents: EdgeRange::default(),
                                children: EdgeRange::default(),
                                probability: 0.0,
                            });
                        }
                    }
                }
            }
        }

        lattice.rebuild_edges();
        lattice.recompute_probabilities();
        Ok(lattice)
    }

    /// The Top node (the universe).
    #[must_use]
    pub fn top(&self) -> NodeId {
        TOP
    }

    /// The Bottom node (the empty region).
    #[must_use]
    pub fn bottom(&self) -> NodeId {
        BOTTOM
    }

    /// The universe rectangle.
    #[must_use]
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// Number of nodes, including Top and Bottom.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: Top and Bottom are always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The evidence the lattice was built from.
    #[must_use]
    pub fn evidence(&self) -> &[SensorEvidence] {
        self.evidence.as_slice()
    }

    /// The evidence entries that reported a [`NodeKind::Sensor`] node's
    /// rectangle (indices into [`RegionLattice::evidence`], ascending).
    /// Empty for non-sensor nodes or stale ids.
    #[must_use]
    pub fn evidence_indices(&self, id: NodeId) -> &[u32] {
        match self.node(id).map(|n| n.kind) {
            Ok(NodeKind::Sensor { first, count }) => {
                &self.evidence_idx.as_slice()[first as usize..(first + count) as usize]
            }
            _ => &[],
        }
    }

    /// The node's rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id.
    pub fn region(&self, id: NodeId) -> Result<Rect, FusionError> {
        self.node(id).map(|n| n.region)
    }

    /// The node's kind.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id.
    pub fn kind(&self, id: NodeId) -> Result<NodeKind, FusionError> {
        self.node(id).map(|n| n.kind)
    }

    /// The Equation-7 posterior of the node's region.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id.
    pub fn probability(&self, id: NodeId) -> Result<f64, FusionError> {
        self.node(id).map(|n| n.probability)
    }

    /// Direct parents in the Hasse diagram (immediately containing
    /// regions).
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id.
    pub fn parents(&self, id: NodeId) -> Result<&[NodeId], FusionError> {
        self.node(id)
            .map(|n| &self.parent_edges.as_slice()[n.parents.as_range()])
    }

    /// Direct children in the Hasse diagram (maximal contained regions).
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId], FusionError> {
        self.node(id)
            .map(|n| &self.child_edges.as_slice()[n.children.as_range()])
    }

    /// Ids of every real region node (excludes Top and Bottom).
    pub fn region_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (2..self.nodes.len()).map(NodeId)
    }

    /// The parents of Bottom: the minimal (most specific) regions. §4.2
    /// reads the object's location from these. Allocation-free view;
    /// [`RegionLattice::minimal_regions`] is the owned variant.
    #[must_use]
    pub fn minimal_region_slice(&self) -> &[NodeId] {
        &self.parent_edges.as_slice()[self.nodes.as_slice()[BOTTOM.0].parents.as_range()]
    }

    /// The parents of Bottom as an owned list.
    #[must_use]
    pub fn minimal_regions(&self) -> Vec<NodeId> {
        self.minimal_region_slice().to_vec()
    }

    /// Inserts a query/trigger region into the lattice, wiring containment
    /// edges and computing its posterior. Returns its node id.
    ///
    /// §4.2: "we approximate the region with a minimum bounding rectangle
    /// and insert this into the lattice."
    pub fn insert_query_region(&mut self, region: Rect) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            region,
            kind: NodeKind::Query,
            parents: EdgeRange::default(),
            children: EdgeRange::default(),
            probability: 0.0,
        });
        self.rebuild_edges();
        let p = posterior_general(self.evidence.as_slice(), &region, &self.universe);
        self.nodes.as_mut_slice()[id.0].probability = p;
        id
    }

    /// Removes a sensor rectangle (and re-derives edges and posteriors) —
    /// used by conflict resolution when a reading is discarded: "S5 is
    /// removed from the lattice."
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::UnknownNode`] for a stale id or for Top /
    /// Bottom.
    pub fn remove_region(&mut self, id: NodeId) -> Result<(), FusionError> {
        if id.0 < 2 || id.0 >= self.nodes.len() {
            return Err(FusionError::UnknownNode { index: id.0 });
        }
        // Drop any evidence that reported exactly this rectangle, then
        // rebuild the whole lattice from the remaining evidence (stray
        // intersection nodes of the removed rectangle disappear too).
        // Query nodes are not preserved; callers re-insert them.
        let region = self.nodes.as_slice()[id.0].region;
        let mut evidence: SmallBuf<SensorEvidence, EVIDENCE_INLINE> = SmallBuf::default();
        for e in self.evidence.as_slice() {
            if e.region != region {
                evidence.push(*e);
            }
        }
        let rebuilt = RegionLattice::build_from_buf(self.universe, evidence)?;
        *self = rebuilt;
        Ok(())
    }

    /// The normalized spatial probability distribution over the minimal
    /// regions ("The probabilities of all regions are finally
    /// normalized").
    ///
    /// Returns `(node, weight)` pairs summing to 1 (empty when there are
    /// no regions or all posteriors are zero).
    #[must_use]
    pub fn normalized_distribution(&self) -> Vec<(NodeId, f64)> {
        // Only real regions: with no evidence, Bottom hangs directly off
        // Top, which is not a location estimate.
        let minimal: Vec<NodeId> = self
            .minimal_region_slice()
            .iter()
            .copied()
            .filter(|id| id.0 >= 2)
            .collect();
        let total: f64 = minimal
            .iter()
            .map(|id| self.nodes.as_slice()[id.0].probability)
            .sum();
        if total <= 0.0 {
            return Vec::new();
        }
        minimal
            .into_iter()
            .map(|id| (id, self.nodes.as_slice()[id.0].probability / total))
            .collect()
    }

    fn node(&self, id: NodeId) -> Result<&Node, FusionError> {
        self.nodes
            .as_slice()
            .get(id.0)
            .ok_or(FusionError::UnknownNode { index: id.0 })
    }

    /// Recomputes the Hasse diagram from scratch into the edge arenas.
    ///
    /// An edge `a → b` (a parent of b) exists when `b ⊂ a` strictly and no
    /// region c satisfies `b ⊂ c ⊂ a`. Top contains every region; Bottom
    /// is a child of every minimal region. Every per-node list ascends by
    /// node index — exactly the order the historical per-node-`Vec`
    /// construction produced.
    fn rebuild_edges(&mut self) {
        let n = self.nodes.len();
        self.parent_edges.clear();
        self.child_edges.clear();
        for node in self.nodes.as_mut_slice() {
            node.parents = EdgeRange::default();
            node.children = EdgeRange::default();
        }
        if n == 2 {
            // Empty lattice: Bottom directly under Top.
            self.child_edges.push(BOTTOM);
            self.parent_edges.push(TOP);
            self.nodes.as_mut_slice()[TOP.0].children = EdgeRange { start: 0, len: 1 };
            self.nodes.as_mut_slice()[BOTTOM.0].parents = EdgeRange { start: 0, len: 1 };
            return;
        }
        // Strict containment among the real regions. Identical rectangles
        // are merged at build time, so ties cannot occur between sensor
        // nodes; a query node may duplicate an existing rectangle, in
        // which case area-equality breaks the tie by index order.
        let nodes = self.nodes.as_slice();
        let contains = |a: usize, b: usize| -> bool {
            if a == b {
                return false;
            }
            if nodes[a].region == nodes[b].region {
                // Tie: treat lower index as the container to keep the
                // relation antisymmetric.
                return a < b;
            }
            nodes[a].region.contains_rect(&nodes[b].region)
        };
        let immediate = |a: usize, b: usize| -> bool {
            contains(a, b) && !(2..n).any(|c| c != a && contains(a, c) && contains(c, b))
        };

        // All Hasse pairs `(parent, child)` in child-ascending order;
        // parents of each child are contiguous and ascending, so the
        // parent arena fills directly in this loop.
        let mut pairs: SmallBuf<(u32, u32), 64> = SmallBuf::default();
        #[allow(clippy::cast_possible_truncation)]
        for b in 2..n {
            let start = pairs.len() as u32;
            for a in 2..n {
                if immediate(a, b) {
                    pairs.push((a as u32, b as u32));
                }
            }
            if pairs.len() as u32 == start {
                // Directly under Top.
                pairs.push((TOP.0 as u32, b as u32));
            }
        }
        // Per-parent child counts, accumulated into the `len` field.
        for &(a, _) in pairs.as_slice() {
            self.nodes.as_mut_slice()[a as usize].children.len += 1;
        }
        // Bottom under every childless region (ascending).
        #[allow(clippy::cast_possible_truncation)]
        for i in 2..n {
            if self.nodes.as_slice()[i].children.len == 0 {
                pairs.push((i as u32, BOTTOM.0 as u32));
                self.nodes.as_mut_slice()[i].children.len = 1;
            }
        }

        // Parent arena: the pair list is already grouped by child in
        // child order (region children first, then Bottom), each group
        // ascending by parent.
        {
            let mut run_start = 0usize;
            let mut run_child = u32::MAX;
            for (i, &(_, b)) in pairs.as_slice().iter().enumerate() {
                if b != run_child {
                    if run_child != u32::MAX {
                        #[allow(clippy::cast_possible_truncation)]
                        {
                            self.nodes.as_mut_slice()[run_child as usize].parents = EdgeRange {
                                start: run_start as u32,
                                len: (i - run_start) as u32,
                            };
                        }
                    }
                    run_child = b;
                    run_start = i;
                }
                self.parent_edges
                    .push(NodeId(pairs.as_slice()[i].0 as usize));
            }
            if run_child != u32::MAX {
                #[allow(clippy::cast_possible_truncation)]
                {
                    self.nodes.as_mut_slice()[run_child as usize].parents = EdgeRange {
                        start: run_start as u32,
                        len: (pairs.len() - run_start) as u32,
                    };
                }
            }
        }

        // Child arena: prefix-sum the counts into start offsets, then
        // place children by iterating pairs in generation order (child
        // ascending), which fills each parent's run ascending.
        let mut running = 0u32;
        for node in self.nodes.as_mut_slice() {
            node.children.start = running;
            running += node.children.len;
        }
        for _ in 0..running {
            self.child_edges.push(NodeId(0));
        }
        let mut placed: SmallBuf<u32, NODES_INLINE> = SmallBuf::default();
        for _ in 0..n {
            placed.push(0);
        }
        for &(a, b) in pairs.as_slice() {
            let slot =
                self.nodes.as_slice()[a as usize].children.start + placed.as_slice()[a as usize];
            self.child_edges.as_mut_slice()[slot as usize] = NodeId(b as usize);
            placed.as_mut_slice()[a as usize] += 1;
        }
    }

    /// The evidence, for re-weighting in place before
    /// [`RegionLattice::recompute_probabilities`]. Only the `p_i`/`q_i`
    /// may change: nodes and edges were derived from the regions.
    pub(crate) fn evidence_mut(&mut self) -> &mut [SensorEvidence] {
        self.evidence.as_mut_slice()
    }

    /// Recomputes every node's Equation-7 posterior from the current
    /// evidence: one `posterior_general` call per region node, in node
    /// order — the same calls, in the same order, as
    /// [`RegionLattice::build`] makes after wiring the edges.
    pub(crate) fn recompute_probabilities(&mut self) {
        for i in 2..self.nodes.len() {
            let region = self.nodes.as_slice()[i].region;
            self.nodes.as_mut_slice()[i].probability =
                posterior_general(self.evidence.as_slice(), &region, &self.universe);
        }
        self.nodes.as_mut_slice()[TOP.0].probability = 1.0;
        self.nodes.as_mut_slice()[BOTTOM.0].probability = 0.0;
    }
}

/// Total-ordering key for bit-exact rectangle deduplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RectKey([u64; 4]);

impl From<&Rect> for RectKey {
    fn from(r: &Rect) -> Self {
        RectKey([
            r.min().x.to_bits(),
            r.min().y.to_bits(),
            r.max().x.to_bits(),
            r.max().y.to_bits(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn ev(rect: Rect) -> SensorEvidence {
        // A confident sensor whose misidentification probability is
        // area-proportional (like the paper's Ubisense calibration), so
        // small regions keep meaningful posteriors.
        SensorEvidence::new(rect, 0.85, 0.001)
    }

    fn universe() -> Rect {
        r(0.0, 0.0, 500.0, 100.0)
    }

    #[test]
    fn empty_lattice_has_top_and_bottom() {
        let l = RegionLattice::build(universe(), vec![]).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.children(l.top()).unwrap(), &[l.bottom()]);
        assert_eq!(l.parents(l.bottom()).unwrap(), &[l.top()]);
        assert_eq!(l.probability(l.top()).unwrap(), 1.0);
        assert_eq!(l.probability(l.bottom()).unwrap(), 0.0);
    }

    #[test]
    fn degenerate_universe_rejected() {
        let e = RegionLattice::build(Rect::from_point(Point::ORIGIN), vec![]);
        assert_eq!(e.unwrap_err(), FusionError::DegenerateUniverse);
    }

    #[test]
    fn single_sensor_chain() {
        let l = RegionLattice::build(universe(), vec![ev(r(10.0, 10.0, 20.0, 20.0))]).unwrap();
        // Top -> sensor -> Bottom.
        assert_eq!(l.len(), 3);
        let minimal = l.minimal_regions();
        assert_eq!(minimal.len(), 1);
        assert_eq!(l.region(minimal[0]).unwrap(), r(10.0, 10.0, 20.0, 20.0));
        assert!(l.probability(minimal[0]).unwrap() > 0.5);
    }

    #[test]
    fn nested_rectangles_form_a_chain() {
        let inner = r(12.0, 12.0, 14.0, 14.0);
        let outer = r(10.0, 10.0, 20.0, 20.0);
        let l = RegionLattice::build(universe(), vec![ev(inner), ev(outer)]).unwrap();
        // Intersection of inner and outer is inner: deduplicated.
        assert_eq!(l.len(), 4);
        let minimal = l.minimal_regions();
        assert_eq!(minimal.len(), 1);
        assert_eq!(l.region(minimal[0]).unwrap(), inner);
        // The chain: outer's parent is Top, inner's parent is outer.
        let inner_id = minimal[0];
        let outer_id = l.parents(inner_id).unwrap()[0];
        assert_eq!(l.region(outer_id).unwrap(), outer);
        assert_eq!(l.parents(outer_id).unwrap(), &[l.top()]);
    }

    #[test]
    fn intersecting_rectangles_create_intersection_node() {
        let a = r(0.0, 0.0, 20.0, 20.0);
        let b = r(10.0, 10.0, 30.0, 30.0);
        let l = RegionLattice::build(universe(), vec![ev(a), ev(b)]).unwrap();
        // Top, Bottom, A, B, C=A∩B.
        assert_eq!(l.len(), 5);
        let minimal = l.minimal_regions();
        assert_eq!(minimal.len(), 1);
        let c = minimal[0];
        assert_eq!(l.region(c).unwrap(), r(10.0, 10.0, 20.0, 20.0));
        assert!(matches!(l.kind(c).unwrap(), NodeKind::Intersection));
        // C has both A and B as parents.
        assert_eq!(l.parents(c).unwrap().len(), 2);
    }

    #[test]
    fn paper_figure_5_and_6_lattice() {
        // Five sensors as in Figure 5: S1 and S2 overlap (D), S2 and S3
        // overlap (E), S3 overlaps S1? The paper's exact geometry is not
        // given; we reconstruct one consistent with the Figure 6 lattice:
        // intersections D = S1∩S2, E = S2∩S3, F = S1∩S3(within S1∩S2∩S3?)
        // Simplified faithful version: three mutually overlapping large
        // rectangles plus S4 contained in S1 and S5 disjoint.
        let s1 = r(0.0, 0.0, 40.0, 40.0);
        let s2 = r(20.0, 0.0, 60.0, 40.0);
        let s3 = r(10.0, 20.0, 50.0, 60.0);
        let s4 = r(5.0, 5.0, 15.0, 15.0); // inside S1
        let s5 = r(200.0, 50.0, 240.0, 90.0); // disjoint from everything
        let l =
            RegionLattice::build(universe(), vec![ev(s1), ev(s2), ev(s3), ev(s4), ev(s5)]).unwrap();
        // Distinct intersections: S1∩S2, S1∩S3, S2∩S3 (S4 = S1∩S4 dedup).
        // Nodes: top, bottom, 5 sensors, 3 intersections = 10.
        assert_eq!(l.len(), 10);
        // S5 is minimal (its only content) and disjoint: parent of Bottom.
        let minimal = l.minimal_regions();
        let minimal_rects: Vec<Rect> = minimal.iter().map(|&id| l.region(id).unwrap()).collect();
        assert!(minimal_rects.contains(&s5));
        assert!(minimal_rects.contains(&s4));
    }

    #[test]
    fn query_region_insertion() {
        let a = r(0.0, 0.0, 20.0, 20.0);
        let mut l = RegionLattice::build(universe(), vec![ev(a)]).unwrap();
        let q = l.insert_query_region(r(5.0, 5.0, 10.0, 10.0));
        assert!(matches!(l.kind(q).unwrap(), NodeKind::Query));
        let p = l.probability(q).unwrap();
        assert!(p > 0.0 && p < 1.0);
        // The query region sits under the sensor rectangle.
        let parent = l.parents(q).unwrap()[0];
        assert_eq!(l.region(parent).unwrap(), a);
    }

    #[test]
    fn remove_region_drops_evidence() {
        let a = r(0.0, 0.0, 20.0, 20.0);
        let b = r(200.0, 50.0, 220.0, 70.0);
        let l = RegionLattice::build(universe(), vec![ev(a), ev(b)]).unwrap();
        let b_id = l
            .region_nodes()
            .find(|&id| l.region(id).unwrap() == b)
            .unwrap();
        let p_a_before = {
            let a_id = l
                .region_nodes()
                .find(|&id| l.region(id).unwrap() == a)
                .unwrap();
            l.probability(a_id).unwrap()
        };
        let mut l2 = l.clone();
        l2.remove_region(b_id).unwrap();
        assert_eq!(l2.evidence().len(), 1);
        let a_id = l2
            .region_nodes()
            .find(|&id| l2.region(id).unwrap() == a)
            .unwrap();
        // Without the conflicting reading, A's posterior rises.
        assert!(l2.probability(a_id).unwrap() > p_a_before);
    }

    #[test]
    fn remove_top_bottom_rejected() {
        let mut l = RegionLattice::build(universe(), vec![]).unwrap();
        assert!(l.remove_region(l.top()).is_err());
        assert!(l.remove_region(l.bottom()).is_err());
    }

    #[test]
    fn normalized_distribution_sums_to_one() {
        let l = RegionLattice::build(
            universe(),
            vec![
                ev(r(0.0, 0.0, 20.0, 20.0)),
                ev(r(10.0, 10.0, 30.0, 30.0)),
                ev(r(100.0, 10.0, 130.0, 40.0)),
            ],
        )
        .unwrap();
        let dist = l.normalized_distribution();
        assert!(!dist.is_empty());
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_sensor_rectangles_merge() {
        let same = r(0.0, 0.0, 10.0, 10.0);
        let l = RegionLattice::build(universe(), vec![ev(same), ev(same)]).unwrap();
        assert_eq!(l.len(), 3);
        let minimal = l.minimal_regions();
        match l.kind(minimal[0]).unwrap() {
            NodeKind::Sensor { count, .. } => assert_eq!(count, 2),
            other => panic!("expected merged sensor node, got {other:?}"),
        }
        assert_eq!(l.evidence_indices(minimal[0]), &[0, 1]);
    }

    #[test]
    fn hasse_edges_skip_transitive_containment() {
        // A ⊃ B ⊃ C: A must not be a direct parent of C.
        let a = r(0.0, 0.0, 30.0, 30.0);
        let b = r(5.0, 5.0, 25.0, 25.0);
        let c = r(10.0, 10.0, 20.0, 20.0);
        let l = RegionLattice::build(universe(), vec![ev(a), ev(b), ev(c)]).unwrap();
        let c_id = l
            .region_nodes()
            .find(|&id| l.region(id).unwrap() == c)
            .unwrap();
        let parents = l.parents(c_id).unwrap();
        assert_eq!(parents.len(), 1);
        assert_eq!(l.region(parents[0]).unwrap(), b);
    }

    #[test]
    fn stale_node_id_errors() {
        let l = RegionLattice::build(universe(), vec![]).unwrap();
        let bogus = NodeId(99);
        assert!(matches!(
            l.probability(bogus),
            Err(FusionError::UnknownNode { index: 99 })
        ));
    }

    #[test]
    fn typical_lattices_stay_inline() {
        // One and three readings — the hot-path shapes — must not spill
        // any arena (the allocation-free guarantee the bench gates).
        let l1 = RegionLattice::build(universe(), vec![ev(r(10.0, 10.0, 20.0, 20.0))]).unwrap();
        assert!(!l1.nodes.spilled());
        assert!(!l1.parent_edges.spilled());
        assert!(!l1.child_edges.spilled());
        assert!(!l1.evidence.spilled());
        let l3 = RegionLattice::build(
            universe(),
            vec![
                ev(r(0.0, 0.0, 20.0, 20.0)),
                ev(r(10.0, 10.0, 30.0, 30.0)),
                ev(r(15.0, 15.0, 25.0, 25.0)),
            ],
        )
        .unwrap();
        assert!(!l3.nodes.spilled());
        assert!(!l3.parent_edges.spilled());
        assert!(!l3.child_edges.spilled());
    }
}
