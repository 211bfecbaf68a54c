//! Plan/reference agreement: the plan-IR formulations of the §6.2 query classes
//! (`kpg_graph::plans`) must answer exactly as the plain-`std` references in
//! `kpg_graph::baseline`, which share no code with the dataflow engine.
//!
//! A seeded workload (an initial graph, then per-epoch argument and edge churn) runs as
//! a `Manager` command stream on 1 and 2 workers, with the base arrangement keyed by
//! whole rows (`key_arity: None`, the memoized re-arrangement path) and by source
//! (`Some(1)`, the direct import path). After every epoch each query's answer —
//! `Manager::query`, summed across the workers' shards — must equal the reference
//! evaluated on the accumulated edges and arguments.

use std::collections::BTreeMap;

use kpg_dataflow::{execute, Config, Worker};
use kpg_graph::plans::{
    edge_row, four_path_plan, lookup_plan, node_row, one_hop_plan, pair_row, row_u32, two_hop_plan,
};
use kpg_graph::{baseline, generate, Edge};
use kpg_plan::{Command, Manager, Row};
use kpg_timestamp::rng::SmallRng;

const NODES: u32 = 40;
const INITIAL_EDGES: usize = 150;
const EPOCHS: u64 = 6;
const SEED: u64 = 11;

/// The installed queries, in the order answers are reported.
const QUERIES: [&str; 4] = ["lookup", "one-hop", "two-hop", "four-path"];

/// One epoch's interactive activity.
struct Step {
    node_args: Vec<u32>,
    pair_args: Vec<(u32, u32)>,
    additions: Vec<Edge>,
    removals: Vec<Edge>,
}

fn workload() -> (Vec<Edge>, Vec<Step>) {
    let initial = generate::uniform(NODES, INITIAL_EDGES, SEED);
    let mut live = initial.clone();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xfeed);
    let mut steps = Vec::new();
    for _ in 0..EPOCHS {
        let node_args = vec![rng.gen_range(0..NODES), rng.gen_range(0..NODES)];
        let pair_args = vec![(rng.gen_range(0..NODES), rng.gen_range(0..NODES))];
        let additions = vec![
            (rng.gen_range(0..NODES), rng.gen_range(0..NODES)),
            (rng.gen_range(0..NODES), rng.gen_range(0..NODES)),
        ];
        let victim = rng.gen_range(0..live.len() as u32) as usize;
        let removals = vec![live.swap_remove(victim)];
        live.extend(additions.iter().copied());
        steps.push(Step {
            node_args,
            pair_args,
            additions,
            removals,
        });
    }
    (initial, steps)
}

/// An answer as `u32` columns with multiplicities.
type Answer = BTreeMap<Vec<u32>, isize>;

/// Each query's answer after every epoch, in [`QUERIES`] order.
type Answers = Vec<[Answer; 4]>;

fn columns(row: &Row) -> Vec<u32> {
    (0..row.len()).map(|index| row_u32(row, index)).collect()
}

/// The workload as a `Manager` command stream, identical on every worker. Returns the
/// per-epoch answers summed across the workers' shards.
fn run_plans(workers: usize, key_arity: Option<usize>) -> Answers {
    let per_worker = execute(Config::new(workers), move |worker| {
        let (initial, steps) = workload();
        let mut manager = Manager::new();
        let run = |manager: &mut Manager, worker: &mut Worker, command: Command| {
            manager.execute(worker, command).unwrap();
        };
        run(
            &mut manager,
            worker,
            Command::CreateInput {
                name: "edges".into(),
                key_arity,
            },
        );
        for (name, plan) in [
            ("lookup", lookup_plan("edges", "lookup-args")),
            ("one-hop", one_hop_plan("edges", "one-hop-args")),
            ("two-hop", two_hop_plan("edges", "two-hop-args")),
            ("four-path", four_path_plan("edges", "four-path-args")),
        ] {
            run(
                &mut manager,
                worker,
                Command::Install {
                    name: name.into(),
                    plan,
                    locals: vec![format!("{name}-args")],
                },
            );
        }
        let update = |manager: &mut Manager, worker: &mut Worker, name: &str, row, diff| {
            let name = name.into();
            run(manager, worker, Command::Update { name, row, diff });
        };
        for edge in initial {
            update(&mut manager, worker, "edges", edge_row(edge), 1);
        }
        let mut answers = Vec::new();
        for (index, step) in steps.into_iter().enumerate() {
            for &arg in &step.node_args {
                for args in ["lookup-args", "one-hop-args", "two-hop-args"] {
                    update(&mut manager, worker, args, node_row(arg), 1);
                }
            }
            for &pair in &step.pair_args {
                update(&mut manager, worker, "four-path-args", pair_row(pair), 1);
            }
            for &edge in &step.additions {
                update(&mut manager, worker, "edges", edge_row(edge), 1);
            }
            for &edge in &step.removals {
                update(&mut manager, worker, "edges", edge_row(edge), -1);
            }
            let epoch = index as u64 + 1;
            run(&mut manager, worker, Command::AdvanceTime { epoch });
            manager.settle(worker);
            answers.push(QUERIES.map(|name| manager.query(name).unwrap()));
        }
        answers
    });
    let mut summed: Answers = vec![Default::default(); EPOCHS as usize];
    for answers in per_worker {
        for (epoch, shards) in answers.into_iter().enumerate() {
            for (total, shard) in summed[epoch].iter_mut().zip(shards) {
                for (row, diff) in shard {
                    *total.entry(columns(&row)).or_insert(0) += diff;
                }
            }
        }
    }
    for answer in summed.iter_mut().flatten() {
        answer.retain(|_, diff| *diff != 0);
    }
    summed
}

/// The reference answers after every epoch, recomputed from the accumulated edges and
/// arguments.
fn reference() -> Answers {
    let (initial, steps) = workload();
    let mut edges: BTreeMap<Edge, isize> = BTreeMap::new();
    for edge in initial {
        *edges.entry(edge).or_insert(0) += 1;
    }
    let mut nodes: BTreeMap<u32, isize> = BTreeMap::new();
    let mut pairs: BTreeMap<Edge, isize> = BTreeMap::new();
    let pair_answer = |answer: BTreeMap<Edge, isize>| -> Answer {
        answer
            .into_iter()
            .map(|((src, dst), diff)| (vec![src, dst], diff))
            .collect()
    };
    let mut answers = Vec::new();
    for step in steps {
        for arg in step.node_args {
            *nodes.entry(arg).or_insert(0) += 1;
        }
        for pair in step.pair_args {
            *pairs.entry(pair).or_insert(0) += 1;
        }
        for edge in step.additions {
            *edges.entry(edge).or_insert(0) += 1;
        }
        for edge in step.removals {
            *edges.entry(edge).or_insert(0) -= 1;
        }
        let lookup = pair_answer(baseline::lookup(&edges, &nodes));
        answers.push([
            lookup.clone(),
            lookup,
            pair_answer(baseline::two_hop(&edges, &nodes)),
            baseline::four_path(&edges, &pairs)
                .into_iter()
                .map(|((src, dst, hops), diff)| (vec![src, dst, hops], diff))
                .collect(),
        ]);
    }
    answers
}

fn assert_plans_match_reference(workers: usize) {
    let expected = reference();
    let last = expected.last().expect("the workload has epochs");
    assert!(
        last.iter().all(|answer| !answer.is_empty()),
        "the workload must exercise every query"
    );
    for key_arity in [None, Some(1)] {
        let answers = run_plans(workers, key_arity);
        for (epoch, (got, want)) in answers.iter().zip(&expected).enumerate() {
            for (name, (got, want)) in QUERIES.iter().zip(got.iter().zip(want)) {
                assert_eq!(
                    got,
                    want,
                    "{name} diverges from the reference after epoch {} on {workers} \
                     workers (key_arity {key_arity:?})",
                    epoch + 1
                );
            }
        }
    }
}

#[test]
fn plans_match_reference_on_one_worker() {
    assert_plans_match_reference(1);
}

#[test]
fn plans_match_reference_on_two_workers() {
    assert_plans_match_reference(2);
}
