//! The `fixpoint` phase: batch graph analytics over one connection per server.
//!
//! Two servers, `--workers 2` and (the single-thread baseline) `--workers 1`, are each
//! preloaded with the same random graph and a standing `Iterate` reachability plan
//! whose answer is a one-row count. In every measured slice each server, in turn,
//! installs a fresh copy of the plan and settles it (the bulk fixed point), then applies
//! rounds of small edge batches, each followed by `AdvanceTime` and a `Query` of the
//! standing plan (one incremental round). The servers take turns going first, so
//! neither sees the machine consistently earlier. Every answer is checked exactly.

use std::path::Path;
use std::time::{Duration, Instant};

use kpg_plan::Command;
use kpg_server::Client;

use crate::gen::{edge_update, update, EdgeSet, Rng};
use crate::plans::{reach_count_plan, Tally};
use crate::reference::{from_rows, Graph};
use crate::server::{is_ok, pipeline, rows, ServerProcess};
use crate::stats::Samples;

pub const NODES: u32 = 10_000;
pub const EDGES: usize = 50_000;
/// Reachability is from nodes `1..=ROOTS`.
pub const ROOTS: u32 = 4;
/// Edge updates per incremental round.
pub const BATCH: usize = 100;

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Bulk fixed-point times at 2 workers, then at 1 worker.
    pub fixpoint_ms: [Samples; 2],
    pub update_ms: [Samples; 2],
    pub peak_rss_mb: f64,
    pub cpu_us_per_op: f64,
}

pub const WORKERS: [usize; 2] = [2, 1];

/// One server with its client and the reference state of its graph.
struct Side {
    server: ServerProcess,
    client: Client,
    set: EdgeSet,
    graph: Graph,
    rng: Rng,
    epoch: u64,
    installs: usize,
    bulk_ms: Samples,
    update_ms: Samples,
    cpu_us: u64,
    commands: u64,
}

/// Installs `name` reading the query-local root input `local`, poses the roots, and
/// seals them at `epoch`; returns whether the install was accepted.
fn install_reach(
    client: &mut Client,
    name: &str,
    local: &str,
    roots: &[u32],
    epoch: u64,
    tally: &Tally,
) -> bool {
    let installed = is_ok(&client.execute(&Command::Install {
        name: name.into(),
        plan: reach_count_plan(local),
        locals: vec![local.into()],
    }));
    let pose = roots.iter().map(|&root| update(local, &[root], 1));
    pipeline(client, pose.chain([Command::AdvanceTime { epoch }]), tally);
    installed
}

fn setup(
    bin: &Path,
    workers: usize,
    set: &EdgeSet,
    roots: &[u32],
    tally: &Tally,
) -> (ServerProcess, Client, f64) {
    let start = Instant::now();
    let server = ServerProcess::spawn(bin, workers, None);
    let mut client = server.connect();
    let commands = [Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }]
    .into_iter()
    .chain(set.edges().iter().map(|&edge| edge_update(edge, 1)))
    .chain([Command::AdvanceTime { epoch: 1 }]);
    pipeline(&mut client, commands, tally);
    tally.record(install_reach(
        &mut client,
        "reach",
        "roots",
        roots,
        2,
        tally,
    ));
    (server, client, start.elapsed().as_secs_f64())
}

/// Both servers and everything that carries over between measured slices.
pub struct Live {
    sides: [Side; 2],
    roots: Vec<u32>,
    slices: usize,
    setup_s: Vec<f64>,
}

impl Live {
    /// Sets up both servers, the 2-worker one `setups` times (keeping the last).
    pub fn start(bin: &Path, setups: usize, rng: &mut Rng, tally: &Tally) -> Live {
        let initial = rng.fork();
        let rounds = rng.fork();
        let roots: Vec<u32> = (1..=ROOTS).collect();
        let mut setup_s = Vec::new();
        let sides = WORKERS.map(|workers| {
            let set = EdgeSet::random(&mut initial.clone(), NODES, EDGES);
            let setups = if workers == WORKERS[0] { setups } else { 1 };
            let mut live = None;
            for round in 0..setups {
                let (server, client, seconds) = setup(bin, workers, &set, &roots, tally);
                if workers == WORKERS[0] {
                    setup_s.push(seconds);
                }
                if round + 1 == setups {
                    live = Some((server, client));
                } else {
                    server.stop();
                }
            }
            let (server, mut client) = live.expect("at least one setup");
            let graph = Graph::from_edges(set.edges());
            let answer = rows(client.execute(&Command::Query {
                name: "reach".into(),
            }));
            tally.record(answer.as_deref().and_then(from_rows) == Some(graph.reach_count(&roots)));
            Side {
                server,
                client,
                set,
                graph,
                rng: rounds.clone(),
                epoch: 2,
                installs: 0,
                bulk_ms: Samples::default(),
                update_ms: Samples::default(),
                cpu_us: 0,
                commands: 0,
            }
        });
        Live {
            sides,
            roots,
            slices: 0,
            setup_s,
        }
    }

    /// Gives each server half of `duration`: one bulk fixed point, then rounds.
    pub fn slice(&mut self, duration: Duration, tally: &Tally) {
        let order = if self.slices.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        self.slices += 1;
        for index in order {
            let side = &mut self.sides[index];
            let before = side.server.sample();
            let tally_before = tally.attempted();
            side.run(&self.roots, duration / 2, tally);
            side.cpu_us += side.server.sample().cpu_us - before.cpu_us;
            side.commands += tally.attempted() - tally_before;
        }
    }

    pub fn finish(self) -> Outcome {
        let mut outcome = Outcome {
            setup_s: self.setup_s,
            ..Outcome::default()
        };
        for (index, side) in self.sides.into_iter().enumerate() {
            outcome.fixpoint_ms[index] = side.bulk_ms;
            outcome.update_ms[index] = side.update_ms;
            if index == 0 {
                outcome.peak_rss_mb = side.server.sample().peak_rss_kb as f64 / 1024.0;
                outcome.cpu_us_per_op = side.cpu_us as f64 / side.commands.max(1) as f64;
            }
            side.server.stop();
        }
        outcome
    }
}

impl Side {
    fn run(&mut self, roots: &[u32], duration: Duration, tally: &Tally) {
        let stop_at = Instant::now() + duration;
        // A fresh copy reads its own root input, so nothing memoized for an earlier copy
        // can be reused: only the shared edge arrangement is imported.
        let name = format!("bulk{}", self.installs);
        let local = format!("bulk-roots{}", self.installs);
        self.installs += 1;
        self.epoch += 1;
        let start = Instant::now();
        let installed = install_reach(&mut self.client, &name, &local, roots, self.epoch, tally);
        let answer = rows(self.client.execute(&Command::Query { name: name.clone() }));
        let elapsed = start.elapsed();
        tally.record(installed);
        let expected = self.graph.reach_count(roots);
        if tally.record(answer.as_deref().and_then(from_rows) == Some(expected)) {
            self.bulk_ms.push(elapsed);
        }
        tally.record(is_ok(&self.client.execute(&Command::Uninstall { name })));

        let query = Command::Query {
            name: "reach".into(),
        };
        while Instant::now() < stop_at {
            let batch: Vec<Command> = (0..BATCH)
                .map(|_| {
                    let (edge, diff) = self.set.churn(&mut self.rng, 2);
                    self.graph.apply(edge, diff);
                    edge_update(edge, diff)
                })
                .collect();
            self.epoch += 1;
            let advance = Command::AdvanceTime { epoch: self.epoch };
            let start = Instant::now();
            pipeline(&mut self.client, batch.into_iter().chain([advance]), tally);
            let answer = rows(self.client.execute(&query));
            let elapsed = start.elapsed();
            let expected = self.graph.reach_count(roots);
            if tally.record(answer.as_deref().and_then(from_rows) == Some(expected)) {
                self.update_ms.push(elapsed);
            }
        }
    }
}
