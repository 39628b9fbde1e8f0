//! The R-tree proper: arena storage, insertion with quadratic split, STR
//! bulk loading, range queries, and incremental best-first ranking.

use crate::metric::PointMetric;
use crate::rect::Rect;
use earthmover_obs::{self as obs, names};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default maximum entries per node.
const DEFAULT_MAX_ENTRIES: usize = 16;

/// Counters describing the work a query performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of tree nodes read (directory + leaf).
    pub node_accesses: u64,
    /// Number of point-level distance evaluations.
    pub distance_evaluations: u64,
}

impl QueryStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.node_accesses += other.node_accesses;
        self.distance_evaluations += other.distance_evaluations;
    }
}

#[derive(Debug, Clone)]
struct LeafEntry {
    point: Vec<f64>,
    id: u64,
}

#[derive(Debug, Clone)]
struct ChildEntry {
    rect: Rect,
    child: usize,
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<ChildEntry>),
}

/// An in-memory R-tree over points of a fixed runtime dimensionality.
///
/// See the crate docs for the role this structure plays in the paper's
/// multistep pipeline. Entries are `(point, id)` pairs; ids are opaque to
/// the tree and typically index a histogram database.
#[derive(Debug)]
pub struct RTree {
    dims: usize,
    max_entries: usize,
    min_entries: usize,
    nodes: Vec<Node>,
    root: usize,
    len: usize,
}

impl RTree {
    /// Creates an empty tree for `dims`-dimensional points with the default
    /// node capacity.
    pub fn new(dims: usize) -> Self {
        Self::with_node_capacity(dims, DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty tree with an explicit maximum node fan-out
    /// (minimum fill is 40% of the maximum, per R*-tree practice).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4` or `dims == 0`.
    pub fn with_node_capacity(dims: usize, max_entries: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(max_entries >= 4, "node capacity must be at least 4");
        RTree {
            dims,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            len: 0,
        }
    }

    /// Builds a tree from a batch of points with STR (sort-tile-recursive)
    /// bulk loading: points are sorted into tiles dimension by dimension so
    /// every leaf is filled and leaves tile the space with low overlap.
    pub fn bulk_load(dims: usize, items: Vec<(Vec<f64>, u64)>) -> Self {
        Self::bulk_load_with_capacity(dims, items, DEFAULT_MAX_ENTRIES)
    }

    /// [`RTree::bulk_load`] with an explicit node capacity.
    pub fn bulk_load_with_capacity(
        dims: usize,
        items: Vec<(Vec<f64>, u64)>,
        max_entries: usize,
    ) -> Self {
        let mut tree = Self::with_node_capacity(dims, max_entries);
        if items.is_empty() {
            return tree;
        }
        for (p, _) in &items {
            assert_eq!(p.len(), dims, "point arity mismatch in bulk load");
        }
        tree.len = items.len();

        // Recursive STR tiling over leaf entries.
        let leaf_entries: Vec<LeafEntry> = items
            .into_iter()
            .map(|(point, id)| LeafEntry { point, id })
            .collect();
        let leaves = str_tile(leaf_entries, max_entries, dims, 0)
            .into_iter()
            .map(|chunk| {
                let rect = rect_of_points(&chunk);
                let idx = tree.nodes.len();
                tree.nodes.push(Node::Leaf(chunk));
                ChildEntry { rect, child: idx }
            })
            .collect::<Vec<_>>();

        // Pack directory levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            level = str_tile_children(level, max_entries, dims)
                .into_iter()
                .map(|chunk| {
                    let rect = rect_of_children(&chunk);
                    let idx = tree.nodes.len();
                    tree.nodes.push(Node::Internal(chunk));
                    ChildEntry { rect, child: idx }
                })
                .collect();
        }
        tree.root = level[0].child;
        // Node 0 (the empty bootstrap leaf) may be orphaned; that's fine —
        // the arena is not compacted.
        tree
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf(_) => return h,
                Node::Internal(children) => {
                    node = children[0].child;
                    h += 1;
                }
            }
        }
    }

    /// Inserts a point with an opaque id.
    ///
    /// # Panics
    ///
    /// Panics if the point's arity differs from the tree's dimensionality.
    pub fn insert(&mut self, point: &[f64], id: u64) {
        assert_eq!(point.len(), self.dims, "point arity mismatch");
        let split = self.insert_rec(self.root, point, id);
        self.len += 1;
        if let Some((new_rect, new_node)) = split {
            // The root itself split: grow the tree by one level.
            let old_root = self.root;
            let old_rect = self.node_rect(old_root);
            let new_root = self.nodes.len();
            self.nodes.push(Node::Internal(vec![
                ChildEntry {
                    rect: old_rect,
                    child: old_root,
                },
                ChildEntry {
                    rect: new_rect,
                    child: new_node,
                },
            ]));
            self.root = new_root;
        }
    }

    /// Inserts into the subtree rooted at `node`; returns the rect and arena
    /// index of a newly created sibling if `node` had to split.
    fn insert_rec(&mut self, node: usize, point: &[f64], id: u64) -> Option<(Rect, usize)> {
        match &self.nodes[node] {
            Node::Leaf(_) => {
                if let Node::Leaf(entries) = &mut self.nodes[node] {
                    entries.push(LeafEntry {
                        point: point.to_vec(),
                        id,
                    });
                }
                self.maybe_split(node)
            }
            Node::Internal(children) => {
                let entry_rect = Rect::point(point);
                let best = choose_subtree(children, &entry_rect);
                let child_node = children[best].child;
                let child_split = self.insert_rec(child_node, point, id);
                // Refresh the descended child's rect (it may have shrunk in
                // a split or grown to cover the new point), then absorb any
                // new sibling.
                let child_rect = self.node_rect(child_node);
                if let Node::Internal(children) = &mut self.nodes[node] {
                    children[best].rect = child_rect;
                    if let Some((rect, new_child)) = child_split {
                        children.push(ChildEntry {
                            rect,
                            child: new_child,
                        });
                    }
                }
                self.maybe_split(node)
            }
        }
    }

    /// Splits `node` if it overflows, returning the rect and arena index of
    /// the newly created sibling.
    fn maybe_split(&mut self, node: usize) -> Option<(Rect, usize)> {
        let overflow = match &self.nodes[node] {
            Node::Leaf(e) => e.len() > self.max_entries,
            Node::Internal(c) => c.len() > self.max_entries,
        };
        if !overflow {
            return None;
        }
        match std::mem::replace(&mut self.nodes[node], Node::Leaf(Vec::new())) {
            Node::Leaf(entries) => {
                let rects: Vec<Rect> = entries.iter().map(|e| Rect::point(&e.point)).collect();
                let (left_idx, right_idx) = quadratic_split(&rects, self.min_entries);
                let mut left = Vec::with_capacity(left_idx.len());
                let mut right = Vec::with_capacity(right_idx.len());
                // `quadratic_split` returns a partition, so every index is
                // distinct and in range; `extend` over the taken Option
                // keeps this total without asserting that invariant here.
                let mut taken: Vec<Option<LeafEntry>> = entries.into_iter().map(Some).collect();
                for i in left_idx {
                    left.extend(taken.get_mut(i).and_then(Option::take));
                }
                for i in right_idx {
                    right.extend(taken.get_mut(i).and_then(Option::take));
                }
                let right_rect = rect_of_points(&right);
                self.nodes[node] = Node::Leaf(left);
                let new_node = self.nodes.len();
                self.nodes.push(Node::Leaf(right));
                Some((right_rect, new_node))
            }
            Node::Internal(children) => {
                let rects: Vec<Rect> = children.iter().map(|c| c.rect.clone()).collect();
                let (left_idx, right_idx) = quadratic_split(&rects, self.min_entries);
                let mut left = Vec::with_capacity(left_idx.len());
                let mut right = Vec::with_capacity(right_idx.len());
                let mut taken: Vec<Option<ChildEntry>> = children.into_iter().map(Some).collect();
                for i in left_idx {
                    left.extend(taken.get_mut(i).and_then(Option::take));
                }
                for i in right_idx {
                    right.extend(taken.get_mut(i).and_then(Option::take));
                }
                let right_rect = rect_of_children(&right);
                self.nodes[node] = Node::Internal(left);
                let new_node = self.nodes.len();
                self.nodes.push(Node::Internal(right));
                Some((right_rect, new_node))
            }
        }
    }

    /// Bounding rectangle of an arena node.
    fn node_rect(&self, node: usize) -> Rect {
        match &self.nodes[node] {
            Node::Leaf(entries) => rect_of_points(entries),
            Node::Internal(children) => rect_of_children(children),
        }
    }

    /// All `(id, distance)` pairs whose point lies within `epsilon` of `q`
    /// under `metric`, pruning subtrees by MINDIST.
    pub fn range_within<M: PointMetric>(
        &self,
        q: &[f64],
        epsilon: f64,
        metric: &M,
        stats: &mut QueryStats,
    ) -> Vec<(u64, f64)> {
        assert_eq!(q.len(), self.dims, "query arity mismatch");
        let mut span = obs::span!(names::RTREE_RANGE, epsilon = epsilon);
        let before = (stats.node_accesses, stats.distance_evaluations);
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            stats.node_accesses += 1;
            match &self.nodes[node] {
                Node::Leaf(entries) => {
                    for e in entries {
                        stats.distance_evaluations += 1;
                        let d = metric.distance(&e.point, q);
                        if d <= epsilon {
                            out.push((e.id, d));
                        }
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        if metric.mindist(&c.rect, q) <= epsilon {
                            stack.push(c.child);
                        }
                    }
                }
            }
        }
        if span.is_recording() {
            span.record("node_accesses", (stats.node_accesses - before.0) as f64);
            span.record(
                "distance_evaluations",
                (stats.distance_evaluations - before.1) as f64,
            );
            span.record("results", out.len() as f64);
        }
        out
    }

    /// All ids whose point lies inside the query rectangle.
    pub fn range_rect(&self, query: &Rect, stats: &mut QueryStats) -> Vec<u64> {
        assert_eq!(query.dims(), self.dims, "query arity mismatch");
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            stats.node_accesses += 1;
            match &self.nodes[node] {
                Node::Leaf(entries) => {
                    for e in entries {
                        if query.contains_point(&e.point) {
                            out.push(e.id);
                        }
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        if query.intersects(&c.rect) {
                            stack.push(c.child);
                        }
                    }
                }
            }
        }
        out
    }

    /// Incremental best-first ranking: an iterator producing every stored
    /// point as `(id, distance)` in nondecreasing distance order.
    ///
    /// This is the candidate stream consumed by the optimal multistep k-NN
    /// algorithm: it does only as much tree traversal as the consumer pulls.
    pub fn rank_by_distance<'a, M: PointMetric>(
        &'a self,
        q: &'a [f64],
        metric: &'a M,
    ) -> Ranking<'a, M> {
        assert_eq!(q.len(), self.dims, "query arity mismatch");
        let mut heap = BinaryHeap::new();
        let stats = QueryStats::default();
        if self.len > 0 {
            // Seed with the root at distance zero: the heap invariant (pop
            // order = nondecreasing bound) holds from the first real pop.
            heap.push(HeapItem {
                dist: 0.0,
                kind: ItemKind::Node(self.root),
            });
        }
        Ranking {
            tree: self,
            q,
            metric,
            heap,
            stats,
        }
    }

    /// Like [`RTree::rank_by_distance`], but the cursor owns the query
    /// point and the metric, so it can be stored without borrowing them —
    /// the shape trait-object pipelines need.
    pub fn rank_by_distance_owned<M: PointMetric>(
        &self,
        q: Vec<f64>,
        metric: M,
    ) -> OwnedRanking<'_, M> {
        assert_eq!(q.len(), self.dims, "query arity mismatch");
        let mut heap = BinaryHeap::new();
        if self.len > 0 {
            heap.push(HeapItem {
                dist: 0.0,
                kind: ItemKind::Node(self.root),
            });
        }
        OwnedRanking {
            tree: self,
            q,
            metric,
            heap,
            stats: QueryStats::default(),
        }
    }
}

/// Picks the child whose rectangle needs the least enlargement to absorb
/// `rect`, breaking ties by margin enlargement, then by area.
fn choose_subtree(children: &[ChildEntry], rect: &Rect) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, c) in children.iter().enumerate() {
        let key = (
            c.rect.enlargement(rect),
            c.rect.margin_enlargement(rect),
            c.rect.area(),
        );
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Guttman's quadratic split over a slice of rectangles; returns the two
/// index groups, each of size ≥ `min_entries`.
fn quadratic_split(rects: &[Rect], min_entries: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2);
    // Seed pair: maximize wasted area d = area(union) - area(a) - area(b),
    // with margin as tie-breaker for degenerate (zero-area) point data.
    let mut seed = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let u = rects[i].union(&rects[j]);
            let d = (u.area() - rects[i].area() - rects[j].area()) + 1e-9 * u.margin();
            if d > worst {
                worst = d;
                seed = (i, j);
            }
        }
    }
    let mut left = vec![seed.0];
    let mut right = vec![seed.1];
    let mut left_rect = rects[seed.0].clone();
    let mut right_rect = rects[seed.1].clone();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed.0 && i != seed.1).collect();

    while !remaining.is_empty() {
        // Force-assign if one group must take everything left to reach the
        // minimum fill.
        if left.len() + remaining.len() == min_entries {
            for i in remaining.drain(..) {
                left_rect.grow(&rects[i]);
                left.push(i);
            }
            break;
        }
        if right.len() + remaining.len() == min_entries {
            for i in remaining.drain(..) {
                right_rect.grow(&rects[i]);
                right.push(i);
            }
            break;
        }
        // Pick the entry with the strongest preference for one group.
        let mut pick_pos = 0;
        let mut pick_pref = f64::NEG_INFINITY;
        for (pos, &i) in remaining.iter().enumerate() {
            let dl =
                left_rect.enlargement(&rects[i]) + 1e-9 * left_rect.margin_enlargement(&rects[i]);
            let dr =
                right_rect.enlargement(&rects[i]) + 1e-9 * right_rect.margin_enlargement(&rects[i]);
            let pref = (dl - dr).abs();
            if pref > pick_pref {
                pick_pref = pref;
                pick_pos = pos;
            }
        }
        let i = remaining.swap_remove(pick_pos);
        let dl = left_rect.enlargement(&rects[i]) + 1e-9 * left_rect.margin_enlargement(&rects[i]);
        let dr =
            right_rect.enlargement(&rects[i]) + 1e-9 * right_rect.margin_enlargement(&rects[i]);
        let to_left = match dl.total_cmp(&dr) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => left.len() <= right.len(),
        };
        if to_left {
            left_rect.grow(&rects[i]);
            left.push(i);
        } else {
            right_rect.grow(&rects[i]);
            right.push(i);
        }
    }
    (left, right)
}

fn rect_of_points(entries: &[LeafEntry]) -> Rect {
    let mut r = Rect::point(&entries[0].point);
    for e in &entries[1..] {
        r.grow_point(&e.point);
    }
    r
}

fn rect_of_children(children: &[ChildEntry]) -> Rect {
    let mut r = children[0].rect.clone();
    for c in &children[1..] {
        r.grow(&c.rect);
    }
    r
}

/// Recursively tiles leaf entries into chunks of at most `cap` via STR.
fn str_tile(mut items: Vec<LeafEntry>, cap: usize, dims: usize, dim: usize) -> Vec<Vec<LeafEntry>> {
    if items.len() <= cap {
        return vec![items];
    }
    if dim + 1 == dims {
        // Final dimension: sort and chop into capacity-sized runs.
        items.sort_by(|a, b| a.point[dim].total_cmp(&b.point[dim]));
        return items.chunks(cap).map(|c| c.to_vec()).collect();
    }
    items.sort_by(|a, b| a.point[dim].total_cmp(&b.point[dim]));
    // Number of leaves this subtree will produce, and slabs per dimension.
    let leaves = items.len().div_ceil(cap);
    let slabs = (leaves as f64).powf(1.0 / (dims - dim) as f64).ceil() as usize;
    let slab_size = items.len().div_ceil(slabs.max(1));
    let mut out = Vec::new();
    let mut rest = items;
    while !rest.is_empty() {
        let take = slab_size.min(rest.len());
        let tail = rest.split_off(take);
        out.extend(str_tile(rest, cap, dims, dim + 1));
        rest = tail;
    }
    out
}

/// STR tiling of directory entries by rectangle centers.
fn str_tile_children(mut items: Vec<ChildEntry>, cap: usize, dims: usize) -> Vec<Vec<ChildEntry>> {
    fn center(r: &Rect, d: usize) -> f64 {
        0.5 * (r.lo(d) + r.hi(d))
    }
    fn go(mut items: Vec<ChildEntry>, cap: usize, dims: usize, dim: usize) -> Vec<Vec<ChildEntry>> {
        if items.len() <= cap {
            return vec![items];
        }
        items.sort_by(|a, b| center(&a.rect, dim).total_cmp(&center(&b.rect, dim)));
        if dim + 1 == dims {
            return items.chunks(cap).map(|c| c.to_vec()).collect();
        }
        let leaves = items.len().div_ceil(cap);
        let slabs = (leaves as f64).powf(1.0 / (dims - dim) as f64).ceil() as usize;
        let slab_size = items.len().div_ceil(slabs.max(1));
        let mut out = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let take = slab_size.min(rest.len());
            let tail = rest.split_off(take);
            out.extend(go(rest, cap, dims, dim + 1));
            rest = tail;
        }
        out
    }
    go(std::mem::take(&mut items), cap, dims, 0)
}

enum ItemKind {
    Node(usize),
    Point(u64),
}

struct HeapItem {
    dist: f64,
    kind: ItemKind,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want smallest first.
        // total_cmp keeps this a genuine total order even for NaN input.
        other.dist.total_cmp(&self.dist)
    }
}

/// Incremental best-first distance ranking over an [`RTree`].
///
/// Produced by [`RTree::rank_by_distance`]; see there for the ordering
/// guarantee. The iterator also exposes the query work performed so far via
/// [`Ranking::stats`], and the lower bound on any future result via
/// [`Ranking::peek_distance`] — the early-termination test of the optimal
/// multistep algorithm.
pub struct Ranking<'a, M: PointMetric> {
    tree: &'a RTree,
    q: &'a [f64],
    metric: &'a M,
    heap: BinaryHeap<HeapItem>,
    stats: QueryStats,
}

impl<'a, M: PointMetric> Ranking<'a, M> {
    /// Work counters accumulated so far.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Lower bound on the distance of every item not yet emitted
    /// (`None` when the ranking is exhausted).
    pub fn peek_distance(&self) -> Option<f64> {
        self.heap.peek().map(|h| h.dist)
    }
}

impl<'a, M: PointMetric> Iterator for Ranking<'a, M> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        advance_ranking(
            self.tree,
            self.q,
            self.metric,
            &mut self.heap,
            &mut self.stats,
        )
    }
}

/// Incremental best-first ranking that owns its query point and metric.
///
/// Produced by [`RTree::rank_by_distance_owned`]; semantics are identical
/// to [`Ranking`].
pub struct OwnedRanking<'a, M: PointMetric> {
    tree: &'a RTree,
    q: Vec<f64>,
    metric: M,
    heap: BinaryHeap<HeapItem>,
    stats: QueryStats,
}

impl<'a, M: PointMetric> OwnedRanking<'a, M> {
    /// Work counters accumulated so far.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Lower bound on the distance of every item not yet emitted.
    pub fn peek_distance(&self) -> Option<f64> {
        self.heap.peek().map(|h| h.dist)
    }
}

impl<'a, M: PointMetric> Iterator for OwnedRanking<'a, M> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        advance_ranking(
            self.tree,
            &self.q,
            &self.metric,
            &mut self.heap,
            &mut self.stats,
        )
    }
}

/// Shared best-first step: pop the nearest heap entry, expanding nodes
/// until a point surfaces.
fn advance_ranking<M: PointMetric>(
    tree: &RTree,
    q: &[f64],
    metric: &M,
    heap: &mut BinaryHeap<HeapItem>,
    stats: &mut QueryStats,
) -> Option<(u64, f64)> {
    while let Some(item) = heap.pop() {
        match item.kind {
            ItemKind::Point(id) => return Some((id, item.dist)),
            ItemKind::Node(node) => {
                stats.node_accesses += 1;
                obs::event!(names::RTREE_NODE_ACCESS);
                match &tree.nodes[node] {
                    Node::Leaf(entries) => {
                        for e in entries {
                            stats.distance_evaluations += 1;
                            heap.push(HeapItem {
                                dist: metric.distance(&e.point, q),
                                kind: ItemKind::Point(e.id),
                            });
                        }
                    }
                    Node::Internal(children) => {
                        for c in children {
                            heap.push(HeapItem {
                                dist: metric.mindist(&c.rect, q),
                                kind: ItemKind::Node(c.child),
                            });
                        }
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{LpKind, WeightedLp};

    fn grid_points(side: usize) -> Vec<(Vec<f64>, u64)> {
        let mut pts = Vec::new();
        for i in 0..side {
            for j in 0..side {
                pts.push((vec![i as f64, j as f64], (i * side + j) as u64));
            }
        }
        pts
    }

    #[test]
    fn insert_and_count() {
        let mut t = RTree::new(2);
        assert!(t.is_empty());
        for (p, id) in grid_points(10) {
            t.insert(&p, id);
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() >= 2, "100 points must split a 16-entry node");
    }

    #[test]
    fn range_rect_matches_scan() {
        let pts = grid_points(12);
        let mut t = RTree::new(2);
        for (p, id) in &pts {
            t.insert(p, *id);
        }
        let q = Rect::new(vec![2.5, 3.0], vec![7.0, 9.5]);
        let mut stats = QueryStats::default();
        let mut got = t.range_rect(&q, &mut stats);
        got.sort_unstable();
        let mut expect: Vec<u64> = pts
            .iter()
            .filter(|(p, _)| q.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(stats.node_accesses > 0);
    }

    #[test]
    fn range_within_matches_scan() {
        let pts = grid_points(12);
        let mut t = RTree::new(2);
        for (p, id) in &pts {
            t.insert(p, *id);
        }
        let metric = WeightedLp::l2(vec![1.0, 1.0]);
        let q = [5.2, 5.7];
        let eps = 2.3;
        let mut stats = QueryStats::default();
        let mut got: Vec<u64> = t
            .range_within(&q, eps, &metric, &mut stats)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = pts
            .iter()
            .filter(|(p, _)| metric.distance(p, &q) <= eps)
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let pts = grid_points(9);
        let mut t = RTree::new(2);
        for (p, id) in &pts {
            t.insert(p, *id);
        }
        let metric = WeightedLp::l1(vec![1.0, 1.0]);
        let q = [4.4, 3.1];
        let ranked: Vec<(u64, f64)> = t.rank_by_distance(&q, &metric).collect();
        assert_eq!(ranked.len(), pts.len());
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "out of order: {w:?}");
        }
        // Every id appears exactly once.
        let mut ids: Vec<u64> = ranked.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pts.len());
    }

    #[test]
    fn ranking_peek_lower_bounds_next() {
        let pts = grid_points(6);
        let t = RTree::bulk_load(2, pts);
        let metric = WeightedLp::l2(vec![1.0, 1.0]);
        let q = [0.0, 0.0];
        let mut r = t.rank_by_distance(&q, &metric);
        while let Some(bound) = r.peek_distance() {
            let Some((_, d)) = r.next() else { break };
            assert!(bound <= d + 1e-12);
        }
    }

    #[test]
    fn bulk_load_matches_inserted_queries() {
        let pts = grid_points(15);
        let bulk = RTree::bulk_load(2, pts.clone());
        assert_eq!(bulk.len(), pts.len());
        let mut incr = RTree::new(2);
        for (p, id) in &pts {
            incr.insert(p, *id);
        }
        let metric = WeightedLp::linf(vec![1.0, 1.0]);
        let q = [7.3, 2.9];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let mut a: Vec<u64> = bulk
            .range_within(&q, 3.0, &metric, &mut s1)
            .into_iter()
            .map(|x| x.0)
            .collect();
        let mut b: Vec<u64> = incr
            .range_within(&q, 3.0, &metric, &mut s2)
            .into_iter()
            .map(|x| x.0)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new(3);
        let metric = WeightedLp::uniform(LpKind::L2, 3);
        let mut stats = QueryStats::default();
        assert!(t
            .range_within(&[0.0; 3], 1.0, &metric, &mut stats)
            .is_empty());
        assert!(t.rank_by_distance(&[0.0; 3], &metric).next().is_none());
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new(2);
        for id in 0..50 {
            t.insert(&[1.0, 1.0], id);
        }
        assert_eq!(t.len(), 50);
        let metric = WeightedLp::l2(vec![1.0, 1.0]);
        let got: Vec<_> = t.rank_by_distance(&[1.0, 1.0], &metric).collect();
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|(_, d)| *d == 0.0));
    }

    #[test]
    fn three_dimensional_usage() {
        // The paper's index filters are 3-D; exercise that shape.
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                for k in 0..6 {
                    pts.push((
                        vec![i as f64 / 6.0, j as f64 / 6.0, k as f64 / 6.0],
                        (i * 36 + j * 6 + k) as u64,
                    ));
                }
            }
        }
        let t = RTree::bulk_load(3, pts.clone());
        let metric = WeightedLp::l1(vec![0.5, 1.0, 2.0]);
        let q = [0.4, 0.4, 0.4];
        let ranked: Vec<_> = t.rank_by_distance(&q, &metric).collect();
        assert_eq!(ranked.len(), 216);
        let mut brute: Vec<f64> = pts.iter().map(|(p, _)| metric.distance(p, &q)).collect();
        brute.sort_by(f64::total_cmp);
        for (i, (_, d)) in ranked.iter().enumerate() {
            assert!(
                (d - brute[i]).abs() < 1e-12,
                "rank {i}: {d} vs {}",
                brute[i]
            );
        }
    }

    #[test]
    fn node_accesses_less_than_full_scan_for_selective_query() {
        let pts = grid_points(40); // 1600 points
        let t = RTree::bulk_load(2, pts);
        let metric = WeightedLp::l2(vec![1.0, 1.0]);
        let mut stats = QueryStats::default();
        let hits = t.range_within(&[3.0, 3.0], 1.5, &metric, &mut stats);
        assert!(!hits.is_empty());
        // A selective query must not evaluate distances for the whole DB.
        assert!(
            stats.distance_evaluations < 1600 / 2,
            "too many distance evaluations: {}",
            stats.distance_evaluations
        );
    }
}
