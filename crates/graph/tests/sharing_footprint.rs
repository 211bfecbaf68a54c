//! The Figure 5c apparatus measures what it claims: the four §6.2 query classes
//! installed against one `edges` input share one graph arrangement, while the same
//! classes installed against one input per class (each fed the whole graph, as
//! `graph_interactive`'s not-shared run does) hold four distinct copies of it.

use kpg_dataflow::{execute, Config};
use kpg_graph::generate;
use kpg_graph::plans::{edge_row, four_path_plan, lookup_plan, one_hop_plan, two_hop_plan};
use kpg_plan::{ArrangeKey, Command, KeySpec, Manager, Plan};

const CLASSES: [&str; 4] = ["lookup", "1-hop", "2-hop", "4-path"];

/// One graph arrangement as `graph_interactive` reports it: its catalog name, the
/// updates it holds, and the read handles the installed queries added to it.
struct Footprint {
    name: String,
    updates: usize,
    query_readers: usize,
}

/// The key `graph_interactive` resolves a graph input's arrangement by.
fn by_source(input: &str) -> ArrangeKey {
    ArrangeKey {
        plan: Plan::source(input),
        keys: KeySpec::Columns(vec![0]),
    }
}

/// Installs the four classes against one `edges` input (`shared`) or against one
/// `edges-<class>` input each, loads the same graph into every graph input in one
/// epoch, and reports each graph input's arrangement.
fn graph_arrangements(shared: bool) -> Vec<Footprint> {
    let mut results = execute(Config::new(1), move |worker| {
        let mut manager = Manager::new();
        let inputs: Vec<String> = if shared {
            vec!["edges".into()]
        } else {
            CLASSES
                .iter()
                .map(|class| format!("edges-{class}"))
                .collect()
        };
        let mut idle_readers = Vec::new();
        for name in &inputs {
            let command = Command::CreateInput {
                name: name.clone(),
                key_arity: Some(1),
            };
            manager.execute(worker, command).unwrap();
            idle_readers.push(manager.arrangement_reader_count(&by_source(name)).unwrap());
        }
        for (index, class) in CLASSES.iter().enumerate() {
            let edges = &inputs[index % inputs.len()];
            let args = format!("args-{class}");
            let plan = match index {
                0 => lookup_plan(edges, &args),
                1 => one_hop_plan(edges, &args),
                2 => two_hop_plan(edges, &args),
                _ => four_path_plan(edges, &args),
            };
            let command = Command::Install {
                name: (*class).into(),
                plan,
                locals: vec![args],
            };
            manager.execute(worker, command).unwrap();
        }
        for edge in generate::uniform(40, 150, 5) {
            for name in &inputs {
                let command = Command::Update {
                    name: name.clone(),
                    row: edge_row(edge),
                    diff: 1,
                };
                manager.execute(worker, command).unwrap();
            }
        }
        manager
            .execute(worker, Command::AdvanceTime { epoch: 1 })
            .unwrap();
        manager.settle(worker);
        inputs
            .iter()
            .zip(idle_readers)
            .map(|(input, idle)| {
                let key = by_source(input);
                let name = manager.arrangement_name(&key).expect("graph arrangement");
                Footprint {
                    updates: manager.catalog().arrangement_size(&name).unwrap(),
                    query_readers: manager.arrangement_reader_count(&key).unwrap() - idle,
                    name,
                }
            })
            .collect()
    });
    results.remove(0)
}

#[test]
fn private_inputs_hold_one_graph_copy_per_class() {
    let shared = graph_arrangements(true);
    let private = graph_arrangements(false);
    assert_eq!(shared.len(), 1);
    let graph = &shared[0];
    assert!(graph.updates > 0, "the graph must be loaded");

    let mut names: Vec<&str> = private.iter().map(|arr| arr.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        CLASSES.len(),
        "one distinct arrangement per class"
    );
    for arrangement in &private {
        assert_eq!(
            arrangement.updates, graph.updates,
            "{} must hold the whole graph",
            arrangement.name
        );
        assert!(
            arrangement.query_readers > 0,
            "{} must be read by its class",
            arrangement.name
        );
    }
    // Every import the four classes make lands on the one shared arrangement.
    let private_readers: usize = private.iter().map(|arr| arr.query_readers).sum();
    assert_eq!(graph.query_readers, private_readers);
}
