//! Purpose-written single-threaded baselines (Appendix C).
//!
//! The paper compares K-Pg against simple single-threaded implementations that are not
//! required to follow the same algorithms: array-indexed BFS, the same BFS with hash maps
//! (as one would need without pre-processed dense identifiers), and union-find for
//! undirected connectivity.
//!
//! [`lookup`], [`two_hop`] and [`four_path`] are the reference answers for the §6.2
//! query classes of [`plans`](crate::plans): each recomputes its answer from scratch
//! over accumulated multisets (`BTreeMap` of row to multiplicity) using only `std`, so
//! a bug in the dataflow engine cannot hide in them.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::Edge;

/// Breadth-first reachability using dense array adjacency; returns the reached nodes.
pub fn bfs_array(nodes: u32, edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency = vec![Vec::new(); nodes as usize];
    for (src, dst) in edges {
        adjacency[*src as usize].push(*dst);
    }
    let mut seen = vec![false; nodes as usize];
    let mut queue = VecDeque::new();
    let mut reached = Vec::new();
    seen[root as usize] = true;
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        reached.push(node);
        for &next in &adjacency[node as usize] {
            if !seen[next as usize] {
                seen[next as usize] = true;
                queue.push_back(next);
            }
        }
    }
    reached
}

/// Breadth-first distances using dense arrays; unreachable nodes get `u32::MAX`.
pub fn bfs_distances_array(nodes: u32, edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency = vec![Vec::new(); nodes as usize];
    for (src, dst) in edges {
        adjacency[*src as usize].push(*dst);
    }
    let mut dist = vec![u32::MAX; nodes as usize];
    let mut queue = VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        for &next in &adjacency[node as usize] {
            if dist[next as usize] == u32::MAX {
                dist[next as usize] = dist[node as usize] + 1;
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Breadth-first reachability using hash maps for vertex state, as the paper's "w/ hash
/// map" baseline does when identifiers cannot be assumed dense.
pub fn bfs_hashmap(edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    for (src, dst) in edges {
        adjacency.entry(*src).or_default().push(*dst);
    }
    let mut seen: HashMap<u32, bool> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut reached = Vec::new();
    seen.insert(root, true);
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        reached.push(node);
        if let Some(nexts) = adjacency.get(&node) {
            for &next in nexts {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(next) {
                    e.insert(true);
                    queue.push_back(next);
                }
            }
        }
    }
    reached
}

/// Undirected connected components via union-find; returns each node's representative.
pub fn union_find_components(edges: &[Edge]) -> HashMap<u32, u32> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    fn find(parent: &mut HashMap<u32, u32>, x: u32) -> u32 {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
    }
    for (a, b) in edges {
        let ra = find(&mut parent, *a);
        let rb = find(&mut parent, *b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent.insert(hi, lo);
        }
    }
    let nodes: Vec<u32> = parent.keys().copied().collect();
    nodes
        .into_iter()
        .map(|n| {
            let root = find(&mut parent, n);
            (n, root)
        })
        .collect()
}

/// Look-up (and 1-hop) reference: every `(q, dst)` pair of an argument `q` and an edge
/// `q → dst`, with the product of their multiplicities (join semantics). Pairs whose
/// total is zero are absent.
pub fn lookup(edges: &BTreeMap<Edge, isize>, args: &BTreeMap<u32, isize>) -> BTreeMap<Edge, isize> {
    let mut answer = BTreeMap::new();
    for (&q, &arg) in args {
        for (&(_, dst), &edge) in edges.range((q, 0)..=(q, u32::MAX)) {
            *answer.entry((q, dst)).or_insert(0) += arg * edge;
        }
    }
    answer.retain(|_, diff| *diff != 0);
    answer
}

/// 2-hop reference: `(q, dst)` with multiplicity 1 when the multiplicity-weighted count
/// of walks `q → mid → dst` from argument `q` is positive (`distinct` semantics).
pub fn two_hop(
    edges: &BTreeMap<Edge, isize>,
    args: &BTreeMap<u32, isize>,
) -> BTreeMap<Edge, isize> {
    let mut counts: BTreeMap<Edge, isize> = BTreeMap::new();
    for ((q, mid), first) in lookup(edges, args) {
        for (&(_, dst), &second) in edges.range((mid, 0)..=(mid, u32::MAX)) {
            *counts.entry((q, dst)).or_insert(0) += first * second;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, count)| count > 0)
        .map(|(pair, _)| (pair, 1))
        .collect()
}

/// 4-hop path reference: for every argument pair `(src, dst)` with positive
/// multiplicity, `(src, dst, k)` with multiplicity 1 for the least `k` in `1..=4` such
/// that a walk of exactly `k` edges (each with positive multiplicity) leads from `src`
/// to `dst`. Pairs with no such walk are absent.
pub fn four_path(
    edges: &BTreeMap<Edge, isize>,
    args: &BTreeMap<Edge, isize>,
) -> BTreeMap<(u32, u32, u32), isize> {
    let mut adjacency: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (&(src, dst), &diff) in edges {
        if diff > 0 {
            adjacency.entry(src).or_default().push(dst);
        }
    }
    let mut answer = BTreeMap::new();
    for (&(src, dst), &arg) in args {
        if arg <= 0 {
            continue;
        }
        let mut frontier = BTreeSet::from([src]);
        for hops in 1..=4u32 {
            frontier = frontier
                .iter()
                .filter_map(|node| adjacency.get(node))
                .flatten()
                .copied()
                .collect();
            if frontier.contains(&dst) {
                answer.insert((src, dst, hops), 1);
                break;
            }
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn array_and_hashmap_bfs_agree() {
        let edges = generate::uniform(200, 600, 3);
        let mut a = bfs_array(200, &edges, 0);
        let mut b = bfs_hashmap(&edges, 0);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn bfs_distances_on_chain_are_indices() {
        let edges = generate::chain(6);
        let dist = bfs_distances_array(6, &edges, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn union_find_groups_connected_nodes() {
        let edges = vec![(1, 2), (2, 3), (10, 11)];
        let components = union_find_components(&edges);
        assert_eq!(components[&1], components[&3]);
        assert_ne!(components[&1], components[&10]);
    }

    #[test]
    fn query_references_on_a_small_graph() {
        // 0 → 1 → 2 → 3 → 4 → 5, plus a doubled edge 0 → 2.
        let mut edges: BTreeMap<Edge, isize> =
            generate::chain(6).into_iter().map(|e| (e, 1)).collect();
        edges.insert((0, 2), 2);
        let nodes = BTreeMap::from([(0, 1), (4, 3)]);
        assert_eq!(
            lookup(&edges, &nodes),
            BTreeMap::from([((0, 1), 1), ((0, 2), 2), ((4, 5), 3)])
        );
        // 0 → 1 → 2 and 0 → 2 → 3; node 4 has no 2-hop successor.
        assert_eq!(
            two_hop(&edges, &nodes),
            BTreeMap::from([((0, 2), 1), ((0, 3), 1)])
        );
        // No cycle returns to 2, and nothing reaches 0.
        let pairs = BTreeMap::from([
            ((0, 2), 1),
            ((0, 5), 1),
            ((1, 5), 1),
            ((2, 2), 1),
            ((3, 0), 1),
        ]);
        assert_eq!(
            four_path(&edges, &pairs),
            BTreeMap::from([((0, 2, 1), 1), ((0, 5, 4), 1), ((1, 5, 4), 1)])
        );
    }
}
