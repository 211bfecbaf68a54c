//! Reference answers in plain Rust over the generator's edge list. Nothing here calls
//! the engine: the only shared vocabulary is the row shape each query class returns.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use kpg_plan::{Row, Value};

use crate::gen::Edge;

/// A query answer as sorted `(columns, multiplicity)` pairs.
pub type Answer = Vec<(Vec<i64>, i64)>;

/// An engine answer in the reference's terms; `None` if a column is not an integer.
pub fn from_rows(rows: &[(Row, isize)]) -> Option<Answer> {
    let mut answer = Vec::with_capacity(rows.len());
    for (row, diff) in rows {
        let mut columns = Vec::with_capacity(row.fields().len());
        for value in row.fields() {
            columns.push(match value {
                Value::UInt(v) => i64::try_from(*v).ok()?,
                Value::Int(v) => *v,
                Value::String(_) => return None,
            });
        }
        answer.push((columns, *diff as i64));
    }
    answer.sort();
    Some(answer)
}

/// Adjacency lists of a directed multigraph.
#[derive(Default)]
pub struct Graph {
    out: HashMap<u32, Vec<u32>>,
}

impl Graph {
    pub fn from_edges(edges: &[Edge]) -> Graph {
        let mut graph = Graph::default();
        for &edge in edges {
            graph.apply(edge, 1);
        }
        graph
    }

    pub fn apply(&mut self, (src, dst): Edge, diff: isize) {
        if diff > 0 {
            self.out.entry(src).or_default().push(dst);
        } else {
            let list = self.out.get_mut(&src).expect("removal of an absent edge");
            let at = list
                .iter()
                .position(|&d| d == dst)
                .expect("removal of an absent edge");
            list.swap_remove(at);
        }
    }

    fn neighbours(&self, node: u32) -> &[u32] {
        self.out.get(&node).map_or(&[], Vec::as_slice)
    }

    /// `[q, dst]` for every edge out of `q`, with the edge's multiplicity.
    pub fn lookup(&self, q: u32) -> Answer {
        let mut counts: BTreeMap<u32, i64> = BTreeMap::new();
        for &dst in self.neighbours(q) {
            *counts.entry(dst).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(dst, n)| (vec![i64::from(q), i64::from(dst)], n))
            .collect()
    }

    /// The distinct nodes exactly two hops from `q`, as `[q, dst]`.
    pub fn two_hop(&self, q: u32) -> Answer {
        let mut reached = BTreeSet::new();
        for &mid in self.neighbours(q) {
            reached.extend(self.neighbours(mid).iter().copied());
        }
        reached
            .into_iter()
            .map(|dst| (vec![i64::from(q), i64::from(dst)], 1))
            .collect()
    }

    /// `[src, dst, hops]` for the fewest hops (1 to 4) of a directed walk from `src` to
    /// `dst`; empty if there is none.
    pub fn path4(&self, src: u32, dst: u32) -> Answer {
        let mut frontier = BTreeSet::from([src]);
        for hops in 1..=4i64 {
            let mut next = BTreeSet::new();
            for &node in &frontier {
                next.extend(self.neighbours(node).iter().copied());
            }
            if next.contains(&dst) {
                return vec![(vec![i64::from(src), i64::from(dst), hops], 1)];
            }
            frontier = next;
        }
        Vec::new()
    }

    /// `[0, n]` where `n` counts the nodes reachable from `roots`, roots included.
    pub fn reach_count(&self, roots: &[u32]) -> Answer {
        let mut seen: BTreeSet<u32> = roots.iter().copied().collect();
        let mut queue: VecDeque<u32> = seen.iter().copied().collect();
        while let Some(node) = queue.pop_front() {
            for &next in self.neighbours(node) {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        vec![(vec![0, seen.len() as i64], 1)]
    }
}

/// Per-source edge counts for sources below a fixed key bound, maintained from the
/// generator's own updates.
#[derive(Default)]
pub struct KeyCounts {
    counts: BTreeMap<u32, i64>,
    total: i64,
}

impl KeyCounts {
    pub fn apply(&mut self, (src, _): Edge, diff: isize, key_bound: u32) {
        self.total += diff as i64;
        if src < key_bound {
            *self.counts.entry(src).or_default() += diff as i64;
        }
    }

    /// `[src, count]` for every tracked source with a nonzero count.
    pub fn by_key(&self) -> Answer {
        self.counts
            .iter()
            .filter(|(_, &n)| n != 0)
            .map(|(&src, &n)| (vec![i64::from(src), n], 1))
            .collect()
    }

    /// `[0, total]`, or nothing when the total is zero.
    pub fn total(&self) -> Answer {
        if self.total == 0 {
            Vec::new()
        } else {
            vec![(vec![0, self.total], 1)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(rows: &[&[i64]]) -> Answer {
        rows.iter().map(|row| (row.to_vec(), 1)).collect()
    }

    #[test]
    fn graph_queries_on_a_small_graph() {
        let graph = Graph::from_edges(&[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 1), (6, 7)]);
        assert_eq!(graph.lookup(1), answer(&[&[1, 2], &[1, 3]]));
        assert_eq!(graph.two_hop(1), answer(&[&[1, 4]]));
        assert_eq!(graph.path4(1, 5), answer(&[&[1, 5, 3]]));
        // A walk back to the source counts from one hop on.
        assert_eq!(graph.path4(1, 1), answer(&[&[1, 1, 4]]));
        assert_eq!(graph.path4(1, 6), Vec::new());
        assert_eq!(graph.reach_count(&[1]), answer(&[&[0, 5]]));
        assert_eq!(graph.reach_count(&[6]), answer(&[&[0, 2]]));
    }

    #[test]
    fn removals_take_one_copy() {
        let mut graph = Graph::from_edges(&[(1, 2), (1, 2)]);
        assert_eq!(graph.lookup(1), vec![(vec![1, 2], 2)]);
        graph.apply((1, 2), -1);
        assert_eq!(graph.lookup(1), vec![(vec![1, 2], 1)]);
    }

    #[test]
    fn key_counts_track_updates() {
        let mut counts = KeyCounts::default();
        counts.apply((1, 5), 1, 4);
        counts.apply((1, 6), 1, 4);
        counts.apply((9, 6), 1, 4);
        counts.apply((1, 5), -1, 4);
        assert_eq!(counts.by_key(), answer(&[&[1, 1]]));
        assert_eq!(counts.total(), answer(&[&[0, 2]]));
    }
}
