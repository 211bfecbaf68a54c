//! Seeded input generation. Everything the server receives is made here from the
//! `--seed` argument: the same seed gives the same graph, churn and command streams.

use std::collections::HashMap;

use kpg_plan::{Command, Row, Value};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this one.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(bound)) >> 32) as u32
    }
}

pub type Edge = (u32, u32);

/// A set of distinct directed edges over `1..nodes` with O(1) random removal.
pub struct EdgeSet {
    nodes: u32,
    edges: Vec<Edge>,
    index: HashMap<Edge, usize>,
}

impl EdgeSet {
    pub fn empty(nodes: u32) -> EdgeSet {
        EdgeSet {
            nodes,
            edges: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// `count` distinct uniformly random edges (no self-loops).
    pub fn random(rng: &mut Rng, nodes: u32, count: usize) -> EdgeSet {
        let mut set = EdgeSet::empty(nodes);
        while set.edges.len() < count {
            let edge = set.random_edge(rng);
            set.insert(edge);
        }
        set
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Nodes are `1..nodes`: node 0 is left free for markers outside the graph.
    fn random_edge(&self, rng: &mut Rng) -> Edge {
        loop {
            let edge = (1 + rng.below(self.nodes - 1), 1 + rng.below(self.nodes - 1));
            if edge.0 != edge.1 {
                return edge;
            }
        }
    }

    fn insert(&mut self, edge: Edge) -> bool {
        if self.index.contains_key(&edge) {
            return false;
        }
        self.index.insert(edge, self.edges.len());
        self.edges.push(edge);
        true
    }

    /// One churn step: with odds `adds_in_4` in 4, adds an absent random edge;
    /// otherwise removes a random present one. Returns the edge and its multiplicity
    /// change.
    pub fn churn(&mut self, rng: &mut Rng, adds_in_4: u32) -> (Edge, isize) {
        if self.edges.is_empty() || rng.below(4) < adds_in_4 {
            loop {
                let edge = self.random_edge(rng);
                if self.insert(edge) {
                    return (edge, 1);
                }
            }
        }
        let at = rng.below(self.edges.len() as u32) as usize;
        let edge = self.edges.swap_remove(at);
        self.index.remove(&edge);
        if let Some(&moved) = self.edges.get(at) {
            self.index.insert(moved, at);
        }
        (edge, -1)
    }
}

pub fn uint_row(values: &[u32]) -> Row {
    Row::from(
        values
            .iter()
            .map(|&v| Value::UInt(u64::from(v)))
            .collect::<Vec<_>>(),
    )
}

pub fn update(name: &str, values: &[u32], diff: isize) -> Command {
    Command::Update {
        name: name.to_string(),
        row: uint_row(values),
        diff,
    }
}

pub fn edge_update(edge: Edge, diff: isize) -> Command {
    update("edges", &[edge.0, edge.1], diff)
}

/// FNV-1a over a byte stream: the same-seed check compares command streams by this
/// hash of their wire encodings.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_the_set_consistent() {
        let mut rng = Rng::new(7);
        let mut set = EdgeSet::random(&mut rng, 50, 200);
        let mut shadow: std::collections::BTreeSet<Edge> = set.edges().iter().copied().collect();
        for _ in 0..5_000 {
            let (edge, diff) = set.churn(&mut rng, 2);
            if diff > 0 {
                assert!(shadow.insert(edge));
            } else {
                assert!(shadow.remove(&edge));
            }
        }
        let now: std::collections::BTreeSet<Edge> = set.edges().iter().copied().collect();
        assert_eq!(now, shadow);
        assert_eq!(set.edges().len(), shadow.len());
    }
}
