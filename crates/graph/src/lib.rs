//! Graph workloads for the shared-arrangements evaluation (paper §6.2, Appendix C).
//!
//! * [`generate`] — seeded synthetic graph generators standing in for the paper's
//!   LiveJournal/Orkut/Twitter datasets (substitution S3 in DESIGN.md).
//! * [`algorithms`] — differential implementations of reachability, breadth-first
//!   distances, single-source shortest paths, and undirected connectivity.
//! * [`plans`] — the four interactive query classes of Figure 5 / Table 10 (point
//!   look-up, 1-hop, 2-hop, 4-hop shortest path) as runtime [`kpg_plan::Plan`] values,
//!   installable from data through a [`kpg_plan::Manager`].
//! * [`baseline`] — the paper's "purpose-written single-threaded code" comparators
//!   (array- and hash-map-based BFS, union-find connectivity), plus plain-`std`
//!   reference answers for the query classes in [`plans`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod baseline;
pub mod generate;
pub mod plans;

/// A directed edge between two node identifiers.
pub type Edge = (u32, u32);
