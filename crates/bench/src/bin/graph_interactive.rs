//! Interactive graph query experiments: Figures 5a/5b/5c and Table 10 (E6–E9).
//!
//! An evolving random graph is maintained while the four query classes of
//! `kpg_graph::plans` (look-up, 1-hop, 2-hop, 4-hop path) are posed against it through a
//! [`Manager`]. Each round splits its graph changes into one slice per class. Each class
//! then poses its arguments in an epoch of its own, together with its slice, and the
//! settle of that epoch is the class's latency sample. The arguments are retracted in a
//! further, untimed epoch, so no class pays for another's retraction.
//!
//! The shared run installs every class against one `edges` input. The not-shared run
//! gives each class its own `edges-<class>` input, fed every graph update, so the
//! manager keeps one graph arrangement per class — what a system without inter-query
//! sharing must do. Latencies are reported as complementary CDFs, and the two runs are
//! compared on per-class latency and on the updates held by their graph arrangements
//! (the memory proxy for Figure 5c).
//!
//! Run with `cargo run --release -p kpg_bench --bin graph_interactive -- [--nodes 2000]
//! [--edges 12800] [--rounds 100] [--changes 20]`.

use kpg_bench::{arg_usize, LatencyRecorder};
use kpg_dataflow::{execute, Config, Worker};
use kpg_graph::plans::{
    edge_row, four_path_plan, lookup_plan, node_row, one_hop_plan, pair_row, two_hop_plan,
};
use kpg_graph::{generate, Edge};
use kpg_plan::{ArrangeKey, Command, KeySpec, Manager, Plan, Row};
use kpg_timestamp::rng::SmallRng;

/// Builds a class's plan from its graph input and argument input names.
type ClassPlan = fn(&str, &str) -> Plan;

/// The four query classes in report order: label and plan. The last one takes
/// `(src, dst)` pair arguments, the others single nodes.
const CLASSES: [(&str, ClassPlan); 4] = [
    ("lookup", lookup_plan),
    ("1-hop", one_hop_plan),
    ("2-hop", two_hop_plan),
    ("4-hop", four_path_plan),
];

struct RunResult {
    /// Per-class settle latencies, in [`CLASSES`] order.
    latencies: [LatencyRecorder; 4],
    /// Updates held by the graph arrangements, summed over the graph inputs.
    arrangement_size: usize,
}

fn exec(manager: &mut Manager, worker: &mut Worker, command: Command) {
    manager
        .execute(worker, command)
        .expect("graph_interactive command");
}

fn update(manager: &mut Manager, worker: &mut Worker, name: &str, row: Row, diff: isize) {
    let name = name.to_string();
    exec(manager, worker, Command::Update { name, row, diff });
}

/// The share of a round's `changes` that lands in `class`'s epoch.
fn slice(changes: &[Edge], class: usize) -> &[Edge] {
    let len = changes.len();
    &changes[len * class / CLASSES.len()..len * (class + 1) / CLASSES.len()]
}

/// One run. `shared` selects one graph input for every class or one per class; `batch`
/// is the number of arguments each class poses per round.
fn run(
    shared: bool,
    nodes: u32,
    edges: usize,
    rounds: usize,
    per_round: usize,
    batch: usize,
) -> RunResult {
    let mut results = execute(Config::new(1), move |worker| {
        let mut manager = Manager::new();
        let inputs: Vec<String> = if shared {
            vec!["edges".into()]
        } else {
            CLASSES
                .iter()
                .map(|(class, _)| format!("edges-{class}"))
                .collect()
        };
        for name in &inputs {
            let name = name.clone();
            let key_arity = Some(1);
            exec(
                &mut manager,
                worker,
                Command::CreateInput { name, key_arity },
            );
        }
        for (index, (class, plan)) in CLASSES.iter().enumerate() {
            let args = format!("args-{class}");
            let command = Command::Install {
                name: (*class).to_string(),
                plan: plan(&inputs[index % inputs.len()], &args),
                locals: vec![args],
            };
            exec(&mut manager, worker, command);
        }
        let update_graph = |manager: &mut Manager, worker: &mut Worker, edge: Edge, diff| {
            for name in &inputs {
                update(manager, worker, name, edge_row(edge), diff);
            }
        };

        let graph = generate::evolving(nodes, edges, rounds, per_round, 77);
        for &edge in &graph.initial {
            update_graph(&mut manager, worker, edge, 1);
        }
        let mut epoch = 1u64;
        exec(&mut manager, worker, Command::AdvanceTime { epoch });
        manager.settle(worker);

        let mut rng = SmallRng::seed_from_u64(13);
        let mut latencies: [LatencyRecorder; 4] = Default::default();
        for (adds, dels) in &graph.rounds {
            for (index, recorder) in latencies.iter_mut().enumerate() {
                let args = format!("args-{}", CLASSES[index].0);
                let posed: Vec<Row> = (0..batch)
                    .map(|_| {
                        let node = rng.gen_range(0..nodes);
                        // The 4-hop path class takes a (src, dst) pair.
                        if index == 3 {
                            pair_row((node, rng.gen_range(0..nodes)))
                        } else {
                            node_row(node)
                        }
                    })
                    .collect();
                for row in &posed {
                    update(&mut manager, worker, &args, row.clone(), 1);
                }
                for &edge in slice(adds, index) {
                    update_graph(&mut manager, worker, edge, 1);
                }
                for &edge in slice(dels, index) {
                    update_graph(&mut manager, worker, edge, -1);
                }
                epoch += 1;
                exec(&mut manager, worker, Command::AdvanceTime { epoch });
                recorder.time(|| manager.settle(worker));

                // Retire the arguments so state stays proportional to the graph.
                for row in posed {
                    update(&mut manager, worker, &args, row, -1);
                }
                epoch += 1;
                exec(&mut manager, worker, Command::AdvanceTime { epoch });
                manager.settle(worker);
            }
        }

        let arrangement_size = inputs
            .iter()
            .map(|input| {
                let key = ArrangeKey {
                    plan: Plan::source(input),
                    keys: KeySpec::Columns(vec![0]),
                };
                let name = manager.arrangement_name(&key).expect("graph arrangement");
                manager
                    .catalog()
                    .arrangement_size(&name)
                    .expect("published")
            })
            .sum();
        RunResult {
            latencies,
            arrangement_size,
        }
    });
    results.remove(0)
}

fn main() {
    let nodes = arg_usize("--nodes", 2_000) as u32;
    let edges = arg_usize("--edges", 12_800);
    let rounds = arg_usize("--rounds", 100);
    let per_round = arg_usize("--changes", 20);

    println!("# Interactive graph queries: {nodes} nodes, {edges} edges, {rounds} rounds");

    println!("\n## Figure 5a: per-class latency CCDF (shared arrangement)");
    let shared = run(true, nodes, edges, rounds, per_round, 1);
    for ((class, _), latency) in CLASSES.iter().zip(&shared.latencies) {
        latency.print_ccdf(class);
    }

    println!("\n## Figure 5b: per-class latency, shared vs not shared");
    let not_shared = run(false, nodes, edges, rounds, per_round, 1);
    for (index, (class, _)) in CLASSES.iter().enumerate() {
        shared.latencies[index].print_summary(&format!("{class} shared"));
        not_shared.latencies[index].print_summary(&format!("{class} not-shared"));
    }

    println!("\n## Figure 5c: arrangement footprint (updates held, proxy for resident set)");
    println!("shared\t{} updates", shared.arrangement_size);
    println!("not shared\t{} updates", not_shared.arrangement_size);

    println!("\n## Table 10: look-up latency vs concurrent query batch size");
    println!("batch\tlookup median (ms)");
    for batch in [1usize, 10, 100] {
        let result = run(true, nodes, edges, rounds.min(20), per_round, batch);
        println!(
            "{batch}\t{:.3}",
            result.latencies[0].median().as_secs_f64() * 1e3
        );
    }
}
