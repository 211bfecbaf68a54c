//! The query plans the workloads install, and the bookkeeping every phase shares.

use std::sync::atomic::{AtomicU64, Ordering};

use kpg_plan::{Command, Expr, Plan, ReduceKind};

use crate::gen::{update, Rng};

/// Standing aggregates count edges per source for sources below this bound, so their
/// answers stay small.
pub const AGG_KEYS: u32 = 16;

/// Per-source edge counts for sources below [`AGG_KEYS`]: `[src, count]`.
pub fn key_counts_plan() -> Plan {
    Plan::source("edges")
        .filter(Expr::col(0).lt(Expr::lit(u64::from(AGG_KEYS))))
        .reduce(1, ReduceKind::Count)
}

/// The number of edges, as the one row `[0, count]`.
pub fn total_plan() -> Plan {
    Plan::source("edges")
        .map(vec![Expr::lit(0u64)])
        .reduce(1, ReduceKind::Count)
}

/// The number of nodes reachable from the rows of input `roots` along `edges`, as the
/// one row `[0, count]`: an `Iterate` fixed point importing the shared edge arrangement.
pub fn reach_count_plan(roots: &str) -> Plan {
    let body = Plan::source(roots)
        .concat(
            Plan::Recur
                .join(Plan::source("edges"), vec![(0, 0)]) // [node, next]
                .map(vec![Expr::col(1)]),
        )
        .distinct();
    Plan::source(roots)
        .iterate(body)
        .map(vec![Expr::lit(0u64)])
        .reduce(1, ReduceKind::Count)
}

/// The interactive query classes of the paper's §6.2. 1-hop is the same plan as
/// look-up, so it is not a class of its own here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Lookup,
    Hop2,
    Path4,
}

pub const CLASSES: [Class; 3] = [Class::Lookup, Class::Hop2, Class::Path4];

impl Class {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Hop2 => "hop2",
            Class::Path4 => "path4",
        }
    }

    pub fn plan(self, args: &str) -> Plan {
        match self {
            Class::Lookup => kpg_graph::plans::lookup_plan("edges", args),
            Class::Hop2 => kpg_graph::plans::two_hop_plan("edges", args),
            Class::Path4 => kpg_graph::plans::four_path_plan("edges", args),
        }
    }

    /// A random argument: a graph node, or a pair of distinct ones for 4-hop path.
    pub fn argument(self, rng: &mut Rng, nodes: u32) -> Vec<u32> {
        match self {
            Class::Lookup | Class::Hop2 => vec![1 + rng.below(nodes - 1)],
            Class::Path4 => {
                let src = 1 + rng.below(nodes - 1);
                let dst = 1 + (src + rng.below(nodes - 2)) % (nodes - 1);
                vec![src, dst]
            }
        }
    }
}

/// One interactive session's commands: install the class's plan with a query-local
/// argument input, pose the argument, (advance time,) query, uninstall. The advance is
/// left to the caller, which owns the epoch counter.
pub struct Session {
    pub install: Command,
    pub pose: Command,
    pub query: Command,
    pub uninstall: Command,
}

impl Session {
    pub fn new(id: u64, class: Class, argument: &[u32]) -> Session {
        let name = format!("q{id}");
        let args = format!("a{id}");
        Session {
            install: Command::Install {
                name: name.clone(),
                plan: class.plan(&args),
                locals: vec![args.clone()],
            },
            pose: update(&args, argument, 1),
            query: Command::Query { name: name.clone() },
            uninstall: Command::Uninstall { name },
        }
    }
}

/// Commands attempted and failed across a run. A failure is an error or refusal from
/// the server, or an answer that does not match the reference.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn record(&self, ok: bool) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}
