//! Query-churn harness (paper §6.2): the interactive workload that installs and retires
//! queries against a shared arrangement in a loop — install → pose arguments → probe →
//! uninstall — at a configurable scale.
//!
//! The point of the measurement is *boundedness*: with dataflow-slot reclamation,
//! install latency, steady-state per-step time, and the slot / reader-table high-water
//! marks must be functions of the number of *concurrently live* queries (`--batch`),
//! not of the total ever installed (`--queries`). The report compares per-step cost in
//! the first and second halves of the run and prints the high-water marks alongside the
//! final live counts.
//!
//! The loop runs through the runtime-plan engine: every install is a `Command::Install`
//! carrying a [`Plan`] value, rendered by the per-worker [`Manager`] against its shared,
//! source-keyed arrangement of the edges, and the run emits a `churn_plan` BENCH record.
//!
//! With `--durable`, worker 0 additionally writes every command to a real `kpg_store`
//! WAL with the server's group-commit discipline — staged per epoch, committed and
//! fsynced when the epoch advances — and the run is compared against an identical
//! in-memory run. Three extra BENCH records come out:
//! `churn_plan_durable` (the churn numbers plus the steady-state ratio vs memory),
//! `wal_append` (logged bytes/sec and fsync-batched commit latency), and
//! `recovery_replay` (commands/sec replaying the finished log into a fresh
//! [`Manager`]).
//!
//! Run with `cargo run --release -p kpg_bench --bin churn -- [--queries 1000]
//! [--batch 4] [--workers 1] [--nodes 500] [--edges 4000] [--durable]`.
//! Emits one-line `BENCH {...}` JSON records for scripts, plus human-readable
//! summaries.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kpg_bench::{arg_flag, arg_string, arg_usize, bench_record, num, text, LatencyRecorder};
use kpg_dataflow::{execute, Config, Time, Worker};
use kpg_graph::generate;
use kpg_graph::plans::{edge_row, lookup_plan, node_row, two_hop_plan};
use kpg_plan::{ArrangeKey, Command, KeySpec, Manager, Plan};
use kpg_store::{Wal, WalBatch};
use kpg_timestamp::rng::SmallRng;
use kpg_wire::WireCodec;

/// What the WAL cost during a durable run: logged volume and the per-epoch
/// group-commit (write + fsync) latency.
struct WalReport {
    /// Framed bytes appended (payload + record header).
    bytes: u64,
    /// One sample per epoch seal: `commit(batch)` + `sync()`.
    commits: LatencyRecorder,
    /// Total wall time inside commit + sync, for the bytes/sec figure.
    commit_total: Duration,
}

/// Worker 0's command log during a durable churn run, driven with the server's
/// discipline: every command staged, the batch committed and fsynced when an
/// `AdvanceTime` seals the epoch.
struct DurableLog {
    wal: Wal,
    pending: WalBatch,
    next_seq: u64,
    report: WalReport,
}

impl DurableLog {
    fn open(dir: &PathBuf) -> DurableLog {
        let (wal, records) = Wal::open(dir, 8 << 20).expect("open the churn WAL");
        assert!(
            records.is_empty(),
            "the churn WAL directory must start empty"
        );
        DurableLog {
            wal,
            pending: WalBatch::new(),
            next_seq: 0,
            report: WalReport {
                bytes: 0,
                commits: LatencyRecorder::new(),
                commit_total: Duration::ZERO,
            },
        }
    }

    fn stage(&mut self, command: &Command) {
        let body = command.encode();
        // Framed size: 4-byte length + 4-byte CRC + 8-byte sequence + body.
        self.report.bytes += body.len() as u64 + 16;
        self.pending.put(self.next_seq, body);
        self.next_seq += 1;
        if matches!(command, Command::AdvanceTime { .. }) {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let batch = std::mem::take(&mut self.pending);
        let start = Instant::now();
        self.wal.commit(&batch).expect("commit the epoch batch");
        self.wal.sync().expect("fsync the WAL");
        let elapsed = start.elapsed();
        self.report.commits.record(elapsed);
        self.report.commit_total += elapsed;
    }

    fn finish(mut self) -> WalReport {
        if !self.pending.is_empty() {
            self.seal();
        }
        self.report
    }
}

/// Everything one worker measures during the churn loop.
struct ChurnStats {
    install: LatencyRecorder,
    settle: LatencyRecorder,
    uninstall: LatencyRecorder,
    steps_first_half: LatencyRecorder,
    steps_second_half: LatencyRecorder,
    steady: LatencyRecorder,
    slot_high_water: usize,
    shared_entries_high_water: usize,
    reader_slots_high_water: usize,
    live_final: usize,
    slots_final: usize,
    reader_count_final: usize,
    graph_size_final: usize,
    /// Worker 0's WAL cost, present only in a `--durable` run.
    wal: Option<WalReport>,
}

impl ChurnStats {
    fn new() -> Self {
        ChurnStats {
            install: LatencyRecorder::new(),
            settle: LatencyRecorder::new(),
            uninstall: LatencyRecorder::new(),
            steps_first_half: LatencyRecorder::new(),
            steps_second_half: LatencyRecorder::new(),
            steady: LatencyRecorder::new(),
            slot_high_water: 0,
            shared_entries_high_water: 0,
            reader_slots_high_water: 0,
            live_final: 0,
            slots_final: 0,
            reader_count_final: 0,
            graph_size_final: 0,
            wal: None,
        }
    }
}

/// Which query classes a churn run installs (`--classes mixed|lookup|two-hop`):
/// `mixed` alternates, the single-class settings attribute cost to one class.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Classes {
    Mixed,
    Lookup,
    TwoHop,
}

impl Classes {
    fn parse(value: &str) -> Classes {
        match value {
            "mixed" => Classes::Mixed,
            "lookup" => Classes::Lookup,
            "two-hop" => Classes::TwoHop,
            other => panic!("--classes must be mixed, lookup, or two-hop (got {other:?})"),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Classes::Mixed => "mixed",
            Classes::Lookup => "lookup",
            Classes::TwoHop => "two-hop",
        }
    }

    fn lookup_at(&self, id: usize) -> bool {
        match self {
            Classes::Mixed => id.is_multiple_of(2),
            Classes::Lookup => true,
            Classes::TwoHop => false,
        }
    }
}

/// The install → pose → probe → uninstall loop: every worker executes an identical
/// command stream against its [`Manager`].
/// With `wal_dir`, worker 0 also logs every command with the server's group-commit
/// discipline, so the run measures churn with a real fsync on every epoch seal.
fn run(
    queries: usize,
    batch: usize,
    workers: usize,
    nodes: u32,
    edges: usize,
    classes: Classes,
    wal_dir: Option<PathBuf>,
) -> ChurnStats {
    let results = execute(Config::new(workers), move |worker| {
        let mut manager = Manager::new();
        // One log per run, written by worker 0 — the analogue of the server's single
        // sequencer-owned WAL in front of every worker.
        let mut log = if worker.index() == 0 {
            wal_dir.as_ref().map(DurableLog::open)
        } else {
            None
        };
        let mut exec = |worker: &mut Worker, manager: &mut Manager, command: Command| {
            if let Some(log) = log.as_mut() {
                log.stage(&command);
            }
            manager.execute(worker, command).expect("churn command")
        };

        // The shared input: ingested once, keyed by source node so every installed
        // plan imports the base arrangement directly.
        exec(
            worker,
            &mut manager,
            Command::CreateInput {
                name: "edges".into(),
                key_arity: Some(1),
            },
        );
        for edge in generate::uniform(nodes, edges, 42) {
            exec(
                worker,
                &mut manager,
                Command::Update {
                    name: "edges".into(),
                    row: edge_row(edge),
                    diff: 1,
                },
            );
        }
        let mut epoch = 1u64;
        exec(worker, &mut manager, Command::AdvanceTime { epoch });
        manager.settle(worker);

        // The sharing introspection target: the memoized (edges, keyed-by-src) subtree.
        let shared_key = ArrangeKey {
            plan: Plan::source("edges"),
            keys: KeySpec::Columns(vec![0]),
        };

        let mut rng = SmallRng::seed_from_u64(7);
        let mut stats = ChurnStats::new();

        let mut installed_total = 0usize;
        while installed_total < queries {
            let burst = batch.min(queries - installed_total);

            // Install a burst of plans, alternating query classes; each carries its own
            // query-local argument input.
            let mut names = Vec::with_capacity(burst);
            for b in 0..burst {
                let id = installed_total + b;
                let name = format!("q-{id}");
                let args = format!("args-{id}");
                let plan = if classes.lookup_at(id) {
                    lookup_plan("edges", &args)
                } else {
                    two_hop_plan("edges", &args)
                };
                stats.install.time(|| {
                    exec(
                        worker,
                        &mut manager,
                        Command::Install {
                            name: name.clone(),
                            plan,
                            locals: vec![args.clone()],
                        },
                    )
                });
                names.push((name, args));
            }

            // Pose one argument per query and mutate the graph.
            for (_, args) in names.iter() {
                let argument = rng.gen_range(0..nodes);
                exec(
                    worker,
                    &mut manager,
                    Command::Update {
                        name: args.clone(),
                        row: node_row(argument),
                        diff: 1,
                    },
                );
            }
            let addition = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            exec(
                worker,
                &mut manager,
                Command::Update {
                    name: "edges".into(),
                    row: edge_row(addition),
                    diff: 1,
                },
            );
            epoch += 1;
            exec(worker, &mut manager, Command::AdvanceTime { epoch });

            // Step until everything managed is current, timing each step.
            let target = Time::from_epoch(epoch);
            let steps = if installed_total * 2 < queries {
                &mut stats.steps_first_half
            } else {
                &mut stats.steps_second_half
            };
            let settle_start = Instant::now();
            while manager.behind(&target) {
                let step_start = Instant::now();
                worker.step();
                steps.record(step_start.elapsed());
            }
            stats.settle.record(settle_start.elapsed());

            stats.slot_high_water = stats.slot_high_water.max(worker.dataflow_count());
            stats.shared_entries_high_water = stats
                .shared_entries_high_water
                .max(worker.shared_dataflow_entries());
            if let Some(name) = manager.arrangement_name(&shared_key) {
                stats.reader_slots_high_water = stats
                    .reader_slots_high_water
                    .max(manager.catalog().reader_slots(&name).unwrap_or(0));
            }

            // Retire the whole burst through the protocol.
            for (name, _) in names {
                stats.uninstall.time(|| {
                    exec(worker, &mut manager, Command::Uninstall { name });
                });
            }
            installed_total += burst;
        }

        for _ in 0..100 {
            let step_start = Instant::now();
            worker.step();
            stats.steady.record(step_start.elapsed());
        }

        stats.live_final = worker.live_dataflow_count();
        stats.slots_final = worker.dataflow_count();
        stats.reader_count_final = manager
            .arrangement_reader_count(&shared_key)
            .unwrap_or_default();
        stats.graph_size_final = manager
            .arrangement_name(&shared_key)
            .and_then(|name| manager.catalog().arrangement_size(&name).ok())
            .unwrap_or_default();
        // Flush whatever the last (uninstall-only) batch staged, as a clean server
        // shutdown would, and surface the WAL cost.
        stats.wal = log.take().map(DurableLog::finish);
        stats
    });
    results.into_iter().next().expect("at least one worker")
}

/// Replays a finished churn WAL into a fresh single-worker [`Manager`], timing the
/// whole recovery: decode every record, execute every command, settle. Returns the
/// command count and the elapsed wall time.
fn replay_wal(dir: &PathBuf) -> (usize, Duration) {
    let (_wal, records) = Wal::open(dir, 8 << 20).expect("reopen the churn WAL");
    let commands: Vec<Command> = records
        .iter()
        .map(|record| Command::decode(&record.body).expect("decode a logged command"))
        .collect();
    let count = commands.len();
    let mut results = execute(Config::new(1), move |worker: &mut Worker| {
        let mut manager = Manager::new();
        let start = Instant::now();
        for command in commands.clone() {
            manager.execute(worker, command).expect("replay command");
        }
        manager.settle(worker);
        start.elapsed()
    });
    (count, results.remove(0))
}

/// The `--durable` protocol: run the plan churn in memory, run it again with worker 0
/// writing a real group-committed WAL, then replay the finished log into a fresh
/// `Manager`. Emits `churn_plan_durable` (with the steady-state ratio against the
/// in-memory run — the durability acceptance number), `wal_append`, and
/// `recovery_replay`.
fn run_durable(
    queries: usize,
    batch: usize,
    workers: usize,
    nodes: u32,
    edges: usize,
    classes: Classes,
) {
    static RUN: kpg_sync::atomic::AtomicU64 = kpg_sync::atomic::AtomicU64::new(0);
    let wal_dir = std::env::temp_dir().join(format!(
        "kpg-churn-wal-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, kpg_sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let memory = run(queries, batch, workers, nodes, edges, classes, None);
    let stats = run(
        queries,
        batch,
        workers,
        nodes,
        edges,
        classes,
        Some(wal_dir.clone()),
    );
    let wal = stats.wal.as_ref().expect("the durable run kept a WAL");

    println!("\n## Durable churn vs in-memory (same flags, same seed)");
    stats.install.print_summary("install");
    stats.settle.print_summary("settle");
    stats.steps_second_half.print_summary("steps-2nd-half");
    stats.steady.print_summary("steady-idle");
    memory.steady.print_summary("steady-idle-memory");
    wal.commits.print_summary("wal-commit+fsync");

    let steady_vs_memory =
        stats.steady.median().as_nanos() as f64 / memory.steady.median().as_nanos().max(1) as f64;
    let step_vs_memory = stats.steps_second_half.median().as_nanos() as f64
        / memory.steps_second_half.median().as_nanos().max(1) as f64;
    println!(
        "steady step: durable {} ns vs memory {} ns ({steady_vs_memory:.2}x)",
        stats.steady.median().as_nanos(),
        memory.steady.median().as_nanos()
    );
    bench_record(
        "churn_plan_durable",
        &[
            ("queries", num(queries)),
            ("batch", num(batch)),
            ("workers", num(workers)),
            ("nodes", num(nodes)),
            ("edges", num(edges)),
            ("classes", text(classes.name())),
            ("install_median_ns", num(stats.install.median().as_nanos())),
            (
                "install_p99_ns",
                num(stats.install.quantile(0.99).as_nanos()),
            ),
            ("settle_median_ns", num(stats.settle.median().as_nanos())),
            (
                "step_median_ns_first_half",
                num(stats.steps_first_half.median().as_nanos()),
            ),
            (
                "step_median_ns_second_half",
                num(stats.steps_second_half.median().as_nanos()),
            ),
            (
                "steady_step_median_ns",
                num(stats.steady.median().as_nanos()),
            ),
            (
                "memory_steady_step_median_ns",
                num(memory.steady.median().as_nanos()),
            ),
            ("steady_vs_memory_x", num(format!("{steady_vs_memory:.3}"))),
            ("step_vs_memory_x", num(format!("{step_vs_memory:.3}"))),
            ("slot_high_water", num(stats.slot_high_water)),
            (
                "reader_slots_high_water",
                num(stats.reader_slots_high_water),
            ),
        ],
    );

    let commit_seconds = wal.commit_total.as_secs_f64();
    let bytes_per_sec = if commit_seconds > 0.0 {
        wal.bytes as f64 / commit_seconds
    } else {
        0.0
    };
    bench_record(
        "wal_append",
        &[
            ("bytes", num(wal.bytes)),
            ("commits", num(wal.commits.len())),
            ("bytes_per_sec", num(format!("{bytes_per_sec:.0}"))),
            ("commit_p50_ns", num(wal.commits.median().as_nanos())),
            ("commit_p99_ns", num(wal.commits.quantile(0.99).as_nanos())),
        ],
    );

    let (commands, elapsed) = replay_wal(&wal_dir);
    let commands_per_sec = commands as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("recovery replay: {commands} commands in {elapsed:?} ({commands_per_sec:.0}/s)");
    bench_record(
        "recovery_replay",
        &[
            ("commands", num(commands)),
            ("elapsed_ns", num(elapsed.as_nanos())),
            ("commands_per_sec", num(format!("{commands_per_sec:.0}"))),
        ],
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

fn main() {
    let queries = arg_usize("--queries", 1000);
    let batch = arg_usize("--batch", 4).max(1);
    let workers = arg_usize("--workers", 1);
    let nodes = arg_usize("--nodes", 500) as u32;
    let edges = arg_usize("--edges", 4000);
    let durable = arg_flag("--durable");
    let classes = Classes::parse(&arg_string("--classes", "mixed"));

    let mode = if durable { "durable plan" } else { "plan" };
    println!(
        "# Query churn ({mode} mode, {} classes): {queries} queries in bursts of {batch}, \
         {workers} workers, {nodes} nodes / {edges} edges",
        classes.name()
    );

    if durable {
        run_durable(queries, batch, workers, nodes, edges, classes);
        return;
    }
    let stats = run(queries, batch, workers, nodes, edges, classes, None);

    println!("\n## Install / settle / uninstall latency");
    stats.install.print_summary("install");
    stats.install.print_ccdf("install");
    stats.settle.print_summary("settle");
    stats.uninstall.print_summary("uninstall");

    println!("\n## Per-step scheduling cost, first vs second half of the churn");
    stats.steps_first_half.print_summary("steps-1st-half");
    stats.steps_second_half.print_summary("steps-2nd-half");
    stats.steady.print_summary("steady-idle");

    println!("\n## State high-water marks vs final (bounded ⇒ churn reclaims)");
    println!(
        "slots\thigh {}\tfinal {}\tlive {}",
        stats.slot_high_water, stats.slots_final, stats.live_final
    );
    println!(
        "readers\tslot high {}\tcount final {}",
        stats.reader_slots_high_water, stats.reader_count_final
    );

    bench_record(
        "churn_plan",
        &[
            ("queries", num(queries)),
            ("batch", num(batch)),
            ("workers", num(workers)),
            ("nodes", num(nodes)),
            ("edges", num(edges)),
            ("classes", text(classes.name())),
            ("install_median_ns", num(stats.install.median().as_nanos())),
            (
                "install_p99_ns",
                num(stats.install.quantile(0.99).as_nanos()),
            ),
            ("settle_median_ns", num(stats.settle.median().as_nanos())),
            (
                "uninstall_median_ns",
                num(stats.uninstall.median().as_nanos()),
            ),
            (
                "step_median_ns_first_half",
                num(stats.steps_first_half.median().as_nanos()),
            ),
            (
                "step_median_ns_second_half",
                num(stats.steps_second_half.median().as_nanos()),
            ),
            (
                "steady_step_median_ns",
                num(stats.steady.median().as_nanos()),
            ),
            ("slot_high_water", num(stats.slot_high_water)),
            ("slots_final", num(stats.slots_final)),
            ("live_final", num(stats.live_final)),
            (
                "shared_entries_high_water",
                num(stats.shared_entries_high_water),
            ),
            (
                "reader_slots_high_water",
                num(stats.reader_slots_high_water),
            ),
            ("reader_count_final", num(stats.reader_count_final)),
            ("graph_size_final", num(stats.graph_size_final)),
        ],
    );
}
