//! M-tree: a metric access method (Ciaccia, Patella & Zezula, VLDB 1997).
//!
//! §3.1 of the paper contrasts two ways of indexing for EMD retrieval:
//!
//! 1. **Direct index usage** — index the objects under the metric itself
//!    with a structure that only needs distances, like the M-tree. Every
//!    tree operation then pays full *exact* distance computations.
//! 2. **Multistep retrieval** — index cheap lower-bound approximations in
//!    a low-dimensional R-tree and refine (the paper's contribution).
//!
//! This crate implements option 1 so the workspace can measure the
//! contrast the paper argues from: with a distance as expensive as the
//! EMD, even a good metric tree must evaluate the exact distance for
//! every routing decision and every pruning test, while the multistep
//! pipeline pays only for the objects that survive its filters.
//!
//! The implementation is a faithful in-memory M-tree:
//!
//! * routing entries store a routing object, a **covering radius**, and
//!   the **distance to the parent** routing object;
//! * insertion descends into the child whose routing object is nearest
//!   (minimum radius enlargement as tie-break), splitting overflowing
//!   nodes with maximum-spread promotion and generalized-hyperplane
//!   partitioning;
//! * range queries and k-NN prune subtrees with the triangle inequality:
//!   a subtree with routing object `p` and radius `r_p` can contain a
//!   point within `ε` of the query `q` only if `d(q, p) − r_p ≤ ε`; the
//!   parent-distance precheck `|d(q, parent) − d(p, parent)| − r_p > ε`
//!   avoids many distance evaluations entirely;
//! * every call to the user metric is counted — the quantity that makes
//!   the single-step-vs-multistep comparison meaningful.
//!
//! # Example
//!
//! ```
//! use earthmover_mtree::MTree;
//!
//! let points: Vec<f64> = vec![0.0, 1.0, 5.0];
//! let metric = |a: &usize, b: &usize| (points[*a] - points[*b]).abs();
//! let mut tree = MTree::new(metric);
//! for id in 0..points.len() {
//!     tree.insert(id);
//! }
//! let (hits, _evals) = tree.range(&1, 1.5);
//! assert_eq!(hits.len(), 2); // objects 0 and 1
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use earthmover_obs::{self as obs, names};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum entries per node before a split.
const NODE_CAPACITY: usize = 16;

/// An entry of an internal node: a routing object and the ball that
/// covers its whole subtree.
#[derive(Debug, Clone)]
struct RoutingEntry<T> {
    object: T,
    /// Upper bound on d(object, o) for every o in the subtree.
    covering_radius: f64,
    /// d(object, parent routing object); NaN at the root level.
    parent_distance: f64,
    child: usize,
}

/// An entry of a leaf: a data object.
#[derive(Debug, Clone)]
struct LeafEntry<T> {
    object: T,
    /// d(object, parent routing object); NaN when the leaf is the root.
    parent_distance: f64,
}

#[derive(Debug)]
enum Node<T> {
    Leaf(Vec<LeafEntry<T>>),
    Internal(Vec<RoutingEntry<T>>),
}

/// An in-memory M-tree over objects of type `T` with a user metric.
///
/// The metric **must** satisfy the metric axioms; the pruning rules are
/// only correct under the triangle inequality. Distance evaluations are
/// counted across the tree's lifetime (see [`MTree::distance_evaluations`])
/// and returned per query.
pub struct MTree<T, D>
where
    D: Fn(&T, &T) -> f64,
{
    metric: D,
    nodes: Vec<Node<T>>,
    root: usize,
    len: usize,
    evaluations: std::cell::Cell<u64>,
}

impl<T: Clone, D: Fn(&T, &T) -> f64> MTree<T, D> {
    /// Creates an empty tree over the given metric.
    pub fn new(metric: D) -> Self {
        MTree {
            metric,
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            len: 0,
            evaluations: std::cell::Cell::new(0),
        }
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total metric evaluations performed since construction (inserts and
    /// queries combined).
    pub fn distance_evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    fn dist(&self, a: &T, b: &T) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        (self.metric)(a, b)
    }

    /// Inserts an object.
    pub fn insert(&mut self, object: T) {
        let split = self.insert_rec(self.root, &object, f64::NAN);
        self.len += 1;
        if let Some((left, right)) = split {
            // Root split: the new root's routing entries have no parent.
            let new_root = self.nodes.len() + 2;
            let left_child = self.nodes.len();
            self.nodes.push(left.1);
            let right_child = self.nodes.len();
            self.nodes.push(right.1);
            self.nodes.push(Node::Internal(vec![
                RoutingEntry {
                    object: left.0 .0,
                    covering_radius: left.0 .1,
                    parent_distance: f64::NAN,
                    child: left_child,
                },
                RoutingEntry {
                    object: right.0 .0,
                    covering_radius: right.0 .1,
                    parent_distance: f64::NAN,
                    child: right_child,
                },
            ]));
            self.root = new_root;
        }
    }

    /// Recursive insert. Returns `Some(((routing, radius), node), ...)` for
    /// the two halves when `node` split; the caller replaces its entry.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        node: usize,
        object: &T,
        parent_dist: f64,
    ) -> Option<(((T, f64), Node<T>), ((T, f64), Node<T>))> {
        match &self.nodes[node] {
            Node::Leaf(_) => {
                // `parent_dist` is d(parent routing object, new object),
                // computed during the descent (NaN at the root leaf) — it
                // powers the triangle-inequality precheck in queries.
                if let Node::Leaf(entries) = &mut self.nodes[node] {
                    entries.push(LeafEntry {
                        object: object.clone(),
                        parent_distance: parent_dist,
                    });
                }
                self.maybe_split(node)
            }
            Node::Internal(entries) => {
                // Choose the child whose routing object is closest; prefer
                // children that need no radius enlargement.
                let mut best = 0usize;
                let mut best_key = (f64::INFINITY, f64::INFINITY);
                let dists: Vec<f64> = entries
                    .iter()
                    .map(|e| self.dist(&e.object, object))
                    .collect();
                for (i, (e, &d)) in entries.iter().zip(&dists).enumerate() {
                    let enlargement = (d - e.covering_radius).max(0.0);
                    let key = (enlargement, d);
                    if key < best_key {
                        best_key = key;
                        best = i;
                    }
                }
                let child = entries[best].child;
                let new_radius = entries[best].covering_radius.max(dists[best]);
                if let Node::Internal(entries) = &mut self.nodes[node] {
                    entries[best].covering_radius = new_radius;
                }
                let child_split = self.insert_rec(child, object, dists[best]);
                if let Some((left, right)) = child_split {
                    // Replace entry `best` by the two split halves.
                    let left_child = child;
                    self.nodes[left_child] = left.1;
                    let right_child = self.nodes.len();
                    self.nodes.push(right.1);
                    if let Node::Internal(entries) = &mut self.nodes[node] {
                        let parent_obj_dists = (
                            entries[best].parent_distance,
                            // distances of the new routing objects to this
                            // node's own parent are unknown here; they are
                            // recomputed lazily as NaN-safe prechecks below.
                            f64::NAN,
                        );
                        let _ = parent_obj_dists;
                        entries[best] = RoutingEntry {
                            object: left.0 .0,
                            covering_radius: left.0 .1,
                            parent_distance: f64::NAN,
                            child: left_child,
                        };
                        entries.push(RoutingEntry {
                            object: right.0 .0,
                            covering_radius: right.0 .1,
                            parent_distance: f64::NAN,
                            child: right_child,
                        });
                    }
                }
                self.maybe_split(node)
            }
        }
    }

    /// Splits `node` if it overflows: promotes the two most distant
    /// entries and partitions by nearest promoted object (generalized
    /// hyperplane), then returns both halves with their covering radii.
    #[allow(clippy::type_complexity)]
    fn maybe_split(&mut self, node: usize) -> Option<(((T, f64), Node<T>), ((T, f64), Node<T>))> {
        match &self.nodes[node] {
            Node::Leaf(entries) if entries.len() > NODE_CAPACITY => {
                let objects: Vec<T> = entries.iter().map(|e| e.object.clone()).collect();
                let (pa, pb, assignment, dists) = self.promote_and_partition(&objects);
                let mut left = Vec::new();
                let mut right = Vec::new();
                let mut left_radius = 0.0f64;
                let mut right_radius = 0.0f64;
                for (i, obj) in objects.into_iter().enumerate() {
                    if assignment[i] {
                        left_radius = left_radius.max(dists[i].0);
                        left.push(LeafEntry {
                            object: obj,
                            parent_distance: dists[i].0,
                        });
                    } else {
                        right_radius = right_radius.max(dists[i].1);
                        right.push(LeafEntry {
                            object: obj,
                            parent_distance: dists[i].1,
                        });
                    }
                }
                Some((
                    ((pa, left_radius), Node::Leaf(left)),
                    ((pb, right_radius), Node::Leaf(right)),
                ))
            }
            _ => {
                // Internal overflow handled here; anything else is fine.
                let Node::Internal(e) = &mut self.nodes[node] else {
                    return None;
                };
                if e.len() <= NODE_CAPACITY {
                    return None;
                }
                let entries = std::mem::take(e);
                let objects: Vec<T> = entries.iter().map(|e| e.object.clone()).collect();
                let (pa, pb, assignment, dists) = self.promote_and_partition(&objects);
                let mut left = Vec::new();
                let mut right = Vec::new();
                let mut left_radius = 0.0f64;
                let mut right_radius = 0.0f64;
                for (i, entry) in entries.into_iter().enumerate() {
                    if assignment[i] {
                        left_radius = left_radius.max(dists[i].0 + entry.covering_radius);
                        left.push(RoutingEntry {
                            parent_distance: dists[i].0,
                            ..entry
                        });
                    } else {
                        right_radius = right_radius.max(dists[i].1 + entry.covering_radius);
                        right.push(RoutingEntry {
                            parent_distance: dists[i].1,
                            ..entry
                        });
                    }
                }
                // The split node keeps the left half; caller wires both.
                Some((
                    ((pa, left_radius), Node::Internal(left)),
                    ((pb, right_radius), Node::Internal(right)),
                ))
            }
        }
    }

    /// Picks two promotion objects by maximum pairwise distance (sampled
    /// exhaustively — nodes are small) and assigns every object to its
    /// nearer promoted object. Returns the promotions, the boolean
    /// assignment (true = first), and each object's distance pair.
    fn promote_and_partition(&self, objects: &[T]) -> (T, T, Vec<bool>, Vec<(f64, f64)>) {
        let n = objects.len();
        let mut best = (0usize, 1usize);
        let mut best_d = f64::NEG_INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.dist(&objects[i], &objects[j]);
                if d > best_d {
                    best_d = d;
                    best = (i, j);
                }
            }
        }
        let (a, b) = best;
        let mut assignment = vec![false; n];
        let mut dists = Vec::with_capacity(n);
        let mut left_count = 0usize;
        let mut right_count = 0usize;
        for (i, obj) in objects.iter().enumerate() {
            let da = self.dist(obj, &objects[a]);
            let db = self.dist(obj, &objects[b]);
            dists.push((da, db));
            // Nearest promoted object, balanced tie-break.
            let to_left = match da.total_cmp(&db) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => left_count <= right_count,
            };
            assignment[i] = to_left;
            if to_left {
                left_count += 1;
            } else {
                right_count += 1;
            }
        }
        (objects[a].clone(), objects[b].clone(), assignment, dists)
    }

    /// Range query: all stored objects within `epsilon` of `q`, with
    /// their distances, plus the number of metric evaluations this query
    /// performed.
    pub fn range(&self, q: &T, epsilon: f64) -> (Vec<(T, f64)>, u64) {
        let mut span = obs::span!(names::MTREE_RANGE, epsilon = epsilon);
        let before = self.evaluations.get();
        let mut out = Vec::new();
        if self.len > 0 {
            self.range_rec(self.root, q, epsilon, f64::NAN, &mut out);
        }
        let evals = self.evaluations.get() - before;
        if span.is_recording() {
            span.record("distance_evaluations", evals as f64);
            span.record("results", out.len() as f64);
        }
        (out, evals)
    }

    fn range_rec(
        &self,
        node: usize,
        q: &T,
        epsilon: f64,
        parent_dist: f64,
        out: &mut Vec<(T, f64)>,
    ) {
        match &self.nodes[node] {
            Node::Leaf(entries) => {
                for e in entries {
                    // Parent-distance precheck (saves an evaluation when the
                    // triangle inequality already excludes the object).
                    if !parent_dist.is_nan()
                        && !e.parent_distance.is_nan()
                        && (parent_dist - e.parent_distance).abs() > epsilon
                    {
                        continue;
                    }
                    let d = self.dist(&e.object, q);
                    if d <= epsilon {
                        out.push((e.object.clone(), d));
                    }
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    if !parent_dist.is_nan()
                        && !e.parent_distance.is_nan()
                        && (parent_dist - e.parent_distance).abs() > epsilon + e.covering_radius
                    {
                        continue;
                    }
                    let d = self.dist(&e.object, q);
                    if d <= epsilon + e.covering_radius {
                        self.range_rec(e.child, q, epsilon, d, out);
                    }
                }
            }
        }
    }

    /// k-nearest neighbors by best-first search, with the number of
    /// metric evaluations the query performed.
    pub fn knn(&self, q: &T, k: usize) -> (Vec<(T, f64)>, u64) {
        let mut span = obs::span!(names::MTREE_KNN, k = k);
        let before = self.evaluations.get();
        if k == 0 || self.len == 0 {
            return (Vec::new(), 0);
        }
        // Min-heap over lower-bound distances of pending nodes/objects.
        let mut heap: BinaryHeap<HeapItem<T>> = BinaryHeap::new();
        heap.push(HeapItem {
            bound: 0.0,
            kind: ItemKind::Node(self.root),
        });
        let mut result: Vec<(T, f64)> = Vec::with_capacity(k);
        while let Some(item) = heap.pop() {
            if result.len() == k {
                break;
            }
            match item.kind {
                ItemKind::Object(obj) => result.push((obj, item.bound)),
                ItemKind::Node(node) => {
                    obs::event!(names::MTREE_NODE_ACCESS);
                    match &self.nodes[node] {
                        Node::Leaf(entries) => {
                            for e in entries {
                                let d = self.dist(&e.object, q);
                                heap.push(HeapItem {
                                    bound: d,
                                    kind: ItemKind::Object(e.object.clone()),
                                });
                            }
                        }
                        Node::Internal(entries) => {
                            for e in entries {
                                let d = self.dist(&e.object, q);
                                heap.push(HeapItem {
                                    bound: (d - e.covering_radius).max(0.0),
                                    kind: ItemKind::Node(e.child),
                                });
                            }
                        }
                    }
                }
            }
        }
        let evals = self.evaluations.get() - before;
        if span.is_recording() {
            span.record("distance_evaluations", evals as f64);
            span.record("results", result.len() as f64);
        }
        (result, evals)
    }
}

enum ItemKind<T> {
    Node(usize),
    Object(T),
}

struct HeapItem<T> {
    bound: f64,
    kind: ItemKind<T>,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop smallest bound first.
        other.bound.total_cmp(&self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[allow(clippy::ptr_arg)] // MTree is instantiated with T = Vec<f64>.
    fn l2(a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    #[test]
    fn range_matches_linear_scan() {
        let pts = random_points(300, 3, 1);
        let mut tree = MTree::new(l2);
        for p in &pts {
            tree.insert(p.clone());
        }
        assert_eq!(tree.len(), 300);
        let q = vec![0.5, 0.5, 0.5];
        for eps in [0.05, 0.2, 0.5, 2.0] {
            let (hits, _) = tree.range(&q, eps);
            let expect = pts.iter().filter(|p| l2(p, &q) <= eps).count();
            assert_eq!(hits.len(), expect, "eps {eps}");
            for (p, d) in &hits {
                assert!((l2(p, &q) - d).abs() < 1e-12);
                assert!(*d <= eps);
            }
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let pts = random_points(200, 2, 2);
        let mut tree = MTree::new(l2);
        for p in &pts {
            tree.insert(p.clone());
        }
        let q = vec![0.3, 0.7];
        let mut brute: Vec<f64> = pts.iter().map(|p| l2(p, &q)).collect();
        brute.sort_by(f64::total_cmp);
        for k in [1, 5, 20] {
            let (result, _) = tree.knn(&q, k);
            assert_eq!(result.len(), k);
            for (i, (_, d)) in result.iter().enumerate() {
                assert!((d - brute[i]).abs() < 1e-9, "k={k} rank {i}");
            }
            // Nondecreasing order.
            for w in result.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-12);
            }
        }
    }

    #[test]
    fn pruning_saves_evaluations_on_selective_queries() {
        let pts = random_points(2000, 3, 3);
        let mut tree = MTree::new(l2);
        for p in &pts {
            tree.insert(p.clone());
        }
        let q = vec![0.1, 0.1, 0.1];
        let (_, evals) = tree.range(&q, 0.05);
        assert!(
            evals < 2000,
            "selective range query evaluated the whole database: {evals}"
        );
    }

    #[test]
    fn empty_and_k_zero() {
        let tree: MTree<Vec<f64>, _> = MTree::new(l2);
        assert!(tree.is_empty());
        let (hits, _) = tree.range(&vec![0.0], 1.0);
        assert!(hits.is_empty());
        let mut tree = MTree::new(l2);
        tree.insert(vec![1.0]);
        let (result, _) = tree.knn(&vec![0.0], 0);
        assert!(result.is_empty());
    }

    #[test]
    fn duplicates_are_kept() {
        let mut tree = MTree::new(l2);
        for _ in 0..40 {
            tree.insert(vec![2.0, 2.0]);
        }
        assert_eq!(tree.len(), 40);
        let (hits, _) = tree.range(&vec![2.0, 2.0], 0.0);
        assert_eq!(hits.len(), 40);
    }

    #[test]
    fn works_with_non_euclidean_metric() {
        // Discrete metric: all distinct points at distance 1.
        let discrete = |a: &i32, b: &i32| if a == b { 0.0 } else { 1.0 };
        let mut tree = MTree::new(discrete);
        for i in 0..100 {
            tree.insert(i % 10);
        }
        let (hits, _) = tree.range(&3, 0.5);
        assert_eq!(hits.len(), 10); // the ten copies of `3`
        let (knn, _) = tree.knn(&3, 15);
        assert_eq!(knn.iter().filter(|(_, d)| *d == 0.0).count(), 10);
    }

    #[test]
    fn evaluation_counter_accumulates() {
        let mut tree = MTree::new(l2);
        for p in random_points(50, 2, 4) {
            tree.insert(p);
        }
        let before = tree.distance_evaluations();
        assert!(before > 0, "inserts must count evaluations");
        let (_, query_evals) = tree.range(&vec![0.5, 0.5], 0.3);
        assert!(query_evals > 0);
        assert_eq!(tree.distance_evaluations(), before + query_evals);
    }
}
