//! The `ingest` phase: a high-rate durable update stream.
//!
//! A `--workers 1 --durable-dir` server with two standing queries, preloaded with each
//! connection's working set of edges. Two connections churn their working sets (as many
//! removals as adds), each keeping up to `PIPELINE_DEPTH` updates in flight, closed
//! loop; after every
//! `EPOCH_UPDATES` updates a connection drains its pipeline and seals an epoch with
//! `AdvanceTime`, which group-commits and fsyncs the WAL before it is acknowledged.
//! At the end of every measured slice the answers of both standing queries are final
//! and checked exactly.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kpg_plan::Command;
use kpg_server::{Client, PIPELINE_DEPTH};

use crate::gen::{edge_update, EdgeSet, Rng};
use crate::plans::{key_counts_plan, total_plan, Tally, AGG_KEYS};
use crate::reference::{from_rows, KeyCounts};
use crate::server::{fresh_dir, is_ok, pipeline, rows, ServerProcess};
use crate::stats::Samples;

pub const NODES: u32 = 10_000;
/// Each connection's working set of distinct edges, preloaded at set-up.
const EDGES_PER_WRITER: usize = 50_000;
/// Updates per connection between its epoch seals.
pub const EPOCH_UPDATES: usize = 2_000;

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub updates_per_s: f64,
    pub epoch_ack_ms: Samples,
    pub peak_rss_mb: f64,
    pub cpu_us_per_op: f64,
}

/// Spawns the server, installs the standing queries and preloads both writers' edges.
fn setup(
    bin: &Path,
    dir: &Path,
    writers: &[Writer; 2],
    tally: &Tally,
) -> (ServerProcess, Client, Client, f64) {
    let start = Instant::now();
    let server = ServerProcess::spawn(bin, 1, Some(dir));
    let mut first = server.connect();
    let second = server.connect();
    let preload = writers
        .iter()
        .flat_map(|writer| writer.set.edges())
        .map(|&edge| edge_update(edge, 1));
    let commands = [
        Command::CreateInput {
            name: "edges".into(),
            key_arity: Some(1),
        },
        Command::Install {
            name: "keys".into(),
            plan: key_counts_plan(),
            locals: vec![],
        },
        Command::Install {
            name: "total".into(),
            plan: total_plan(),
            locals: vec![],
        },
    ]
    .into_iter()
    .chain(preload)
    .chain([Command::AdvanceTime { epoch: 1 }]);
    pipeline(&mut first, commands, tally);
    (server, first, second, start.elapsed().as_secs_f64())
}

/// A set-up durable server and everything that carries over between measured slices.
pub struct Live {
    server: ServerProcess,
    dir: PathBuf,
    clients: [Client; 2],
    writers: [Writer; 2],
    epoch: Mutex<u64>,
    counts: Mutex<KeyCounts>,
    updates: u64,
    seconds: f64,
    outcome: Outcome,
    cpu_us: u64,
    commands: u64,
}

/// One connection's generator state.
struct Writer {
    set: EdgeSet,
    rng: Rng,
}

impl Live {
    /// Sets a server up `setups` times on a fresh directory, keeping the last.
    pub fn start(bin: &Path, work_dir: &Path, setups: usize, rng: &mut Rng, tally: &Tally) -> Live {
        let mut writer = || {
            let mut rng = rng.fork();
            Writer {
                set: EdgeSet::random(&mut rng, NODES, EDGES_PER_WRITER),
                rng,
            }
        };
        let writers = [writer(), writer()];
        let mut counts = KeyCounts::default();
        for &edge in writers.iter().flat_map(|writer| writer.set.edges()) {
            counts.apply(edge, 1, AGG_KEYS);
        }
        let mut outcome = Outcome::default();
        let mut live = None;
        for round in 0..setups {
            let dir = fresh_dir(work_dir, "ingest-wal");
            let (server, first, second, seconds) = setup(bin, &dir, &writers, tally);
            outcome.setup_s.push(seconds);
            if round + 1 == setups {
                live = Some((server, first, second, dir));
            } else {
                server.stop();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let (server, first, second, dir) = live.expect("at least one setup");
        Live {
            server,
            dir,
            clients: [first, second],
            writers,
            epoch: Mutex::new(1),
            counts: Mutex::new(counts),
            updates: 0,
            seconds: 0.0,
            outcome,
            cpu_us: 0,
            commands: 0,
        }
    }

    /// Both connections write for `duration`, each finishing its last epoch.
    pub fn slice(&mut self, duration: Duration, tally: &Tally) {
        let stop_at = Instant::now() + duration;
        let before = self.server.sample();
        let tally_before = tally.attempted();
        let start = Instant::now();
        let (epoch, counts) = (&self.epoch, &self.counts);
        let [first, second] = &mut self.clients;
        let [first_writer, second_writer] = &mut self.writers;
        let results = std::thread::scope(|scope| {
            [(first, first_writer), (second, second_writer)]
                .map(|(client, writer)| {
                    scope.spawn(move || write(client, writer, epoch, counts, stop_at, tally))
                })
                .map(|handle| handle.join().expect("writer thread"))
        });
        self.seconds += start.elapsed().as_secs_f64();
        for (acked, acks) in &results {
            self.updates += acked;
            self.outcome.epoch_ack_ms.extend(acks);
        }
        self.cpu_us += self.server.sample().cpu_us - before.cpu_us;
        self.commands += tally.attempted() - tally_before;

        // Every update is acknowledged and sealed (each writer ends on a seal): both
        // standing answers are final for this slice and must match exactly. Reading them
        // also settles the slice's dataflow work, outside the measured time.
        let counts = self.counts.lock().expect("key counts");
        for (name, expected) in [("keys", counts.by_key()), ("total", counts.total())] {
            let query = Command::Query { name: name.into() };
            let answer = rows(self.clients[0].execute(&query));
            tally.record(answer.as_deref().and_then(from_rows) == Some(expected));
        }
    }

    pub fn finish(mut self) -> Outcome {
        let sample = self.server.sample();
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
        self.outcome.updates_per_s = self.updates as f64 / self.seconds;
        self.outcome.peak_rss_mb = sample.peak_rss_kb as f64 / 1024.0;
        self.outcome.cpu_us_per_op = self.cpu_us as f64 / self.commands.max(1) as f64;
        self.outcome
    }
}

/// One connection's closed loop until `stop_at`. Returns the updates acknowledged and
/// the epoch acknowledgement times.
fn write(
    client: &mut Client,
    writer: &mut Writer,
    epoch: &Mutex<u64>,
    counts: &Mutex<KeyCounts>,
    stop_at: Instant,
    tally: &Tally,
) -> (u64, Samples) {
    let mut acked = 0;
    let mut acks = Samples::default();
    while Instant::now() < stop_at {
        let mut in_flight = 0;
        for _ in 0..EPOCH_UPDATES {
            if in_flight == PIPELINE_DEPTH {
                acked += u64::from(tally.record(is_ok(&client.receive())));
                in_flight -= 1;
            }
            // As many removals as adds: the working set keeps its preloaded size.
            let (edge, diff) = writer.set.churn(&mut writer.rng, 2);
            counts
                .lock()
                .expect("key counts")
                .apply(edge, diff, AGG_KEYS);
            client
                .send(&edge_update(edge, diff))
                .expect("send an update");
            in_flight += 1;
        }
        for _ in 0..in_flight {
            acked += u64::from(tally.record(is_ok(&client.receive())));
        }
        let mut epoch = epoch.lock().expect("epoch lock");
        *epoch += 1;
        let start = Instant::now();
        let sealed = is_ok(&client.execute(&Command::AdvanceTime { epoch: *epoch }));
        acks.push(start.elapsed());
        tally.record(sealed);
    }
    (acked, acks)
}
