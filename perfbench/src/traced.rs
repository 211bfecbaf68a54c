//! The traced run: per-layer metrics from spans recorded in the benchmark's own code,
//! around its calls into each crate's public functions.
//!
//! Each of the three phases is generated as one deterministic command stream (set-up
//! commands, then the timed ones) and replayed in three passes:
//!
//! 1. **socket** — through a `kpg_server` child over loopback, with spans around each
//!    `Client` send and receive; the same stream is also replayed untraced, and the
//!    difference in total time is the tracing overhead;
//! 2. **core** — through an in-process `ServerCore` whose recording `ResponseRoute`
//!    timestamps each delivery: `submit_batch` to `deliver`, with no socket;
//! 3. **direct** — through `Manager`s on `kpg_dataflow::execute`, with `plan.*` spans
//!    around each command, `dataflow.step` spans from the benchmark's own settle loop,
//!    `wire.*` spans around the codec and, where the phase is durable, `store.*` spans
//!    around `Wal::commit`/`Wal::sync` at each epoch seal (the server's group commit).
//!
//! Every query answer of every pass is checked against the reference, and every
//! interactive install must import the shared `edges` arrangement (the sharing check).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use kpg_dataflow::{execute, Config, Time};
use kpg_plan::{ArrangeKey, Command, KeySpec, Manager, Plan, Response as PlanResponse, Row};
use kpg_server::{ClientId, DurabilityConfig, ResponseRoute, ServerCore};
use kpg_store::{Wal, WalBatch};
use kpg_wire::{Response, WireCodec};

use crate::gen::{edge_update, update, EdgeSet, Rng, FNV_OFFSET};
use crate::plans::{
    key_counts_plan, reach_count_plan, total_plan, Class, Session, Tally, AGG_KEYS, CLASSES,
};
use crate::reference::{from_rows, Answer, Graph, KeyCounts};
use crate::server::{fresh_dir, pipeline, ServerProcess};
use crate::spans::{durations, self_times, write_jsonl, Recorder, Span};
use crate::stats::median;
use crate::{metric, Metric, Workload};

/// What a timed command is, for grouping its measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Setup,
    Update,
    Advance,
    Pose,
    Install(Tag),
    Query(Tag),
    Uninstall(Tag),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    Class(Class),
    Aggregate,
    Bulk,
    Round,
}

pub struct Step {
    pub command: Command,
    pub kind: Kind,
    /// The reference answer of a query.
    pub expected: Option<Answer>,
}

/// One phase's command stream and the server it runs against.
pub struct PhaseStream {
    pub workers: usize,
    pub durable: bool,
    pub steps: Vec<Step>,
}

impl PhaseStream {
    fn push(&mut self, command: Command, kind: Kind) {
        self.steps.push(Step {
            command,
            kind,
            expected: None,
        });
    }

    fn query(&mut self, name: &str, tag: Tag, expected: Answer) {
        self.steps.push(Step {
            command: Command::Query { name: name.into() },
            kind: Kind::Query(tag),
            expected: Some(expected),
        });
    }

    fn updates(&self) -> usize {
        self.steps
            .iter()
            .filter(|step| matches!(step.command, Command::Update { .. }))
            .count()
    }

    /// FNV-1a of the concatenated wire encodings of every command.
    pub fn hash(&self) -> u64 {
        self.steps.iter().fold(FNV_OFFSET, |hash, step| {
            crate::gen::fnv1a(hash, &step.command.encode())
        })
    }
}

fn create_edges() -> Command {
    Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }
}

/// Sizes of the traced streams; the named workload's phase runs at `heavy` scale.
pub fn streams(workload: Workload, seed: u64) -> [PhaseStream; 3] {
    let scale = |phase: Workload| if phase == workload { 2 } else { 1 };
    let mut rng = Rng::new(seed);
    let mut phases = [rng.fork(), rng.fork(), rng.fork()];
    let [a, b, c] = &mut phases;
    [
        interactive_stream(a, 30 * scale(Workload::Interactive)),
        ingest_stream(b, 3 * scale(Workload::Ingest)),
        fixpoint_stream(c, 20 * scale(Workload::Fixpoint)),
    ]
}

/// Preload, then `cycles` times: a stream epoch with its aggregate read, and one
/// session per class.
fn interactive_stream(rng: &mut Rng, cycles: usize) -> PhaseStream {
    use crate::interactive::{EDGES, EPOCH_UPDATES, NODES};
    let mut set = EdgeSet::random(&mut rng.fork(), NODES, EDGES);
    let mut graph = Graph::from_edges(set.edges());
    let mut counts = KeyCounts::default();
    let mut stream = PhaseStream {
        workers: 1,
        durable: false,
        steps: Vec::new(),
    };
    stream.push(create_edges(), Kind::Setup);
    for &edge in set.edges() {
        counts.apply(edge, 1, AGG_KEYS);
        stream.push(edge_update(edge, 1), Kind::Setup);
    }
    let agg = Command::Install {
        name: "agg".into(),
        plan: key_counts_plan(),
        locals: vec![],
    };
    stream.push(agg, Kind::Setup);
    stream.push(Command::AdvanceTime { epoch: 1 }, Kind::Setup);
    let mut epoch = 1;
    for cycle in 0..cycles as u64 {
        for _ in 0..EPOCH_UPDATES {
            let (edge, diff) = set.churn(rng, 2);
            graph.apply(edge, diff);
            counts.apply(edge, diff, AGG_KEYS);
            stream.push(edge_update(edge, diff), Kind::Update);
        }
        epoch += 1;
        stream.push(Command::AdvanceTime { epoch }, Kind::Advance);
        stream.query("agg", Tag::Aggregate, counts.by_key());
        for (offset, class) in CLASSES.into_iter().enumerate() {
            let argument = class.argument(rng, NODES);
            let session = Session::new(cycle * 3 + offset as u64, class, &argument);
            let tag = Tag::Class(class);
            stream.push(session.install, Kind::Install(tag));
            stream.push(session.pose, Kind::Pose);
            epoch += 1;
            stream.push(Command::AdvanceTime { epoch }, Kind::Advance);
            let Command::Query { name } = &session.query else {
                unreachable!("a session's query is a Query")
            };
            let expected = crate::interactive::expected(&graph, class, &argument);
            stream.query(name, tag, expected);
            stream.push(session.uninstall, Kind::Uninstall(tag));
        }
    }
    stream
}

/// Two standing queries, then `epochs` epochs of updates, then their answers.
fn ingest_stream(rng: &mut Rng, epochs: usize) -> PhaseStream {
    let mut set = EdgeSet::empty(crate::ingest::NODES);
    let mut counts = KeyCounts::default();
    let mut stream = PhaseStream {
        workers: 1,
        durable: true,
        steps: Vec::new(),
    };
    stream.push(create_edges(), Kind::Setup);
    for (name, plan) in [("keys", key_counts_plan()), ("total", total_plan())] {
        let install = Command::Install {
            name: name.into(),
            plan,
            locals: vec![],
        };
        stream.push(install, Kind::Setup);
    }
    stream.push(Command::AdvanceTime { epoch: 1 }, Kind::Setup);
    for epoch in 2..epochs as u64 + 2 {
        for _ in 0..crate::ingest::EPOCH_UPDATES {
            let (edge, diff) = set.churn(rng, 3);
            counts.apply(edge, diff, AGG_KEYS);
            stream.push(edge_update(edge, diff), Kind::Update);
        }
        stream.push(Command::AdvanceTime { epoch }, Kind::Advance);
    }
    stream.query("keys", Tag::Aggregate, counts.by_key());
    stream.query("total", Tag::Aggregate, counts.total());
    stream
}

/// Preload, one bulk reachability fixed point, then `rounds` rounds of edge updates.
fn fixpoint_stream(rng: &mut Rng, rounds: usize) -> PhaseStream {
    use crate::fixpoint::{BATCH, EDGES, NODES, ROOTS};
    let mut set = EdgeSet::random(&mut rng.fork(), NODES, EDGES);
    let mut graph = Graph::from_edges(set.edges());
    let roots: Vec<u32> = (1..=ROOTS).collect();
    let mut stream = PhaseStream {
        workers: 2,
        durable: false,
        steps: Vec::new(),
    };
    stream.push(create_edges(), Kind::Setup);
    for &edge in set.edges() {
        stream.push(edge_update(edge, 1), Kind::Setup);
    }
    stream.push(Command::AdvanceTime { epoch: 1 }, Kind::Setup);
    let install = Command::Install {
        name: "reach".into(),
        plan: reach_count_plan("roots"),
        locals: vec!["roots".into()],
    };
    stream.push(install, Kind::Install(Tag::Bulk));
    for &root in &roots {
        stream.push(update("roots", &[root], 1), Kind::Pose);
    }
    stream.push(Command::AdvanceTime { epoch: 2 }, Kind::Advance);
    stream.query("reach", Tag::Bulk, graph.reach_count(&roots));
    for epoch in 3..rounds as u64 + 3 {
        for _ in 0..BATCH {
            let (edge, diff) = set.churn(rng, 2);
            graph.apply(edge, diff);
            stream.push(edge_update(edge, diff), Kind::Update);
        }
        stream.push(Command::AdvanceTime { epoch }, Kind::Advance);
        stream.query("reach", Tag::Round, graph.reach_count(&roots));
    }
    stream
}

/// Per-kind latency samples in microseconds.
#[derive(Default)]
struct ByKind(Vec<(Kind, f64)>);

impl ByKind {
    fn push(&mut self, kind: Kind, us: f64) {
        self.0.push((kind, us));
    }

    fn median(&self, matches: impl Fn(Kind) -> bool) -> f64 {
        let values: Vec<f64> = self
            .0
            .iter()
            .filter(|(kind, _)| matches(*kind))
            .map(|(_, us)| *us)
            .collect();
        median(&values).unwrap_or(f64::NAN)
    }
}

fn is_update(kind: Kind) -> bool {
    kind == Kind::Update
}

fn is_class_query(kind: Kind) -> bool {
    matches!(kind, Kind::Query(Tag::Class(_)))
}

fn check(step: &Step, rows: Option<&[(Row, isize)]>) -> bool {
    match &step.expected {
        Some(expected) => rows.and_then(from_rows).as_ref() == Some(expected),
        None => true,
    }
}

fn wire_rows(response: Response) -> Option<Vec<(Row, isize)>> {
    match response {
        Response::QueryResults { rows, diffs } => Some(
            rows.into_iter()
                .zip(diffs)
                .map(|(row, diff)| (row, diff as isize))
                .collect(),
        ),
        _ => None,
    }
}

fn wire_ok(step: &Step, response: Response) -> bool {
    match step.command {
        Command::Query { .. } => check(step, wire_rows(response).as_deref()),
        _ => response == Response::Ok,
    }
}

struct SocketPass {
    seconds: f64,
    rtt_us: ByKind,
    spans: Vec<Span>,
}

/// Pass 1: the stream through a server child, one round trip per timed command.
fn socket_pass(
    stream: &PhaseStream,
    bin: &Path,
    work_dir: &Path,
    traced: bool,
    tally: &Tally,
) -> SocketPass {
    let dir = stream
        .durable
        .then(|| fresh_dir(work_dir, "traced-socket-wal"));
    let server = ServerProcess::spawn(bin, stream.workers, dir.as_deref());
    let mut client = server.connect();
    let setup = stream
        .steps
        .iter()
        .take_while(|step| step.kind == Kind::Setup);
    let timed_from = setup.clone().count();
    pipeline(&mut client, setup.map(|step| step.command.clone()), tally);
    let mut recorder = Recorder::new(Instant::now());
    let mut rtt_us = ByKind::default();
    let start = Instant::now();
    for (index, step) in stream.steps.iter().enumerate().skip(timed_from) {
        let request = index as u64;
        let sent = Instant::now();
        let response = if traced {
            let op = recorder.open("socket.op", request);
            recorder
                .time("client.send", request, || client.send(&step.command))
                .expect("send a traced command");
            let response = recorder.time("client.receive", request, || client.receive());
            recorder.close(op);
            response
        } else {
            client.send(&step.command).expect("send a traced command");
            client.receive()
        };
        rtt_us.push(step.kind, sent.elapsed().as_secs_f64() * 1e6);
        tally.record(response.is_ok_and(|response| wire_ok(step, response)));
    }
    let seconds = start.elapsed().as_secs_f64();
    server.stop();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    SocketPass {
        seconds,
        rtt_us,
        spans: recorder.into_spans(),
    }
}

/// The recording route: timestamps each delivery.
struct Recording(mpsc::Sender<(u64, Response, Instant)>);

impl ResponseRoute for Recording {
    fn deliver(&self, _client: ClientId, reply: u64, response: Response) {
        let _ = self.0.send((reply, response, Instant::now()));
    }
}

struct CorePass {
    core_us: ByKind,
    spans: Vec<Span>,
}

/// Pass 2: the stream through an in-process `ServerCore`, no socket.
fn core_pass(stream: &PhaseStream, work_dir: &Path, tally: &Tally) -> CorePass {
    let dir = stream
        .durable
        .then(|| fresh_dir(work_dir, "traced-core-wal"));
    let core = Arc::new(match &dir {
        Some(dir) => ServerCore::durable(stream.workers, false, DurabilityConfig::new(dir))
            .expect("open a durable core"),
        None => ServerCore::new(stream.workers),
    });
    let engine = core.start();
    core.await_replayed();
    let (sender, receiver) = mpsc::channel();
    let client = core.register_client_routed(Arc::new(Recording(sender)));
    let timed_from = stream
        .steps
        .iter()
        .take_while(|step| step.kind == Kind::Setup)
        .count();
    let setup = stream.steps[..timed_from]
        .iter()
        .enumerate()
        .map(|(index, step)| (client, index as u64, step.command.clone()));
    core.submit_batch(setup);
    for _ in 0..timed_from {
        let (_, response, _) = receiver.recv().expect("a set-up response");
        tally.record(response == Response::Ok);
    }
    let mut recorder = Recorder::new(Instant::now());
    let mut core_us = ByKind::default();
    for (index, step) in stream.steps.iter().enumerate().skip(timed_from) {
        let request = index as u64;
        let command = step.command.clone();
        let op = recorder.open("server.core", request);
        let start = Instant::now();
        recorder.time("server.submit_batch", request, || {
            core.submit_batch([(client, request, command)])
        });
        let (reply, response, delivered) = receiver.recv().expect("a response");
        recorder.close(op);
        core_us.push(step.kind, (delivered - start).as_secs_f64() * 1e6);
        tally.record(reply == request && wire_ok(step, response));
    }
    core.close();
    engine.join().expect("the engine thread");
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    CorePass {
        core_us,
        spans: recorder.into_spans(),
    }
}

/// What one worker of the direct pass saw.
#[derive(Default)]
struct WorkerView {
    spans: Vec<Span>,
    /// `(step index, rows)` of every query, this worker's shard.
    answers: Vec<(usize, Vec<(Row, isize)>)>,
    /// `(step kind, steps)` of every settle.
    settles: Vec<(Kind, usize)>,
    errors: u64,
    requirements: usize,
    requirements_present: usize,
    /// Class installs that did not import the shared `edges` arrangement.
    unshared_installs: usize,
    class_installs: usize,
    slots_high_water: usize,
    reader_slots_high_water: usize,
    arranged_updates: usize,
    request_bytes: Vec<f64>,
    answer_bytes: Vec<f64>,
    wal_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|entry| entry.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The wire response the server would send for a plan result.
fn to_wire(result: &Result<PlanResponse, kpg_plan::PlanError>) -> Response {
    match result {
        Ok(PlanResponse::Rows(rows)) => Response::QueryResults {
            rows: rows.iter().map(|(row, _)| row.clone()).collect(),
            diffs: rows.iter().map(|(_, diff)| *diff as i64).collect(),
        },
        Ok(_) => Response::Ok,
        Err(error) => Response::PlanError {
            code: error.code().to_string(),
            message: error.to_string(),
        },
    }
}

/// Pass 3: `Manager`s on `kpg_dataflow::execute`, stepped by the benchmark's own
/// settle loop. Worker 0 also times the codec and, for a durable phase, the WAL.
fn direct_pass(stream: &Arc<PhaseStream>, wal_dir: Option<PathBuf>) -> Vec<WorkerView> {
    let stream = Arc::clone(stream);
    let origin = Instant::now();
    let edges_key = ArrangeKey {
        plan: Plan::source("edges"),
        keys: KeySpec::Columns(vec![0]),
    };
    execute(Config::new(stream.workers), move |worker| {
        let mut view = WorkerView::default();
        let mut recorder = Recorder::new(origin);
        let mut manager = Manager::new();
        let lead = worker.index() == 0;
        let mut wal = wal_dir.as_ref().filter(|_| lead).map(|dir| {
            let segment_bytes = DurabilityConfig::new(dir).segment_bytes;
            Wal::open(dir, segment_bytes).expect("open the WAL").0
        });
        let mut staged = WalBatch::new();
        let mut wal_seq = 0;
        for (index, step) in stream.steps.iter().enumerate() {
            let request = index as u64;
            let timed = step.kind != Kind::Setup;
            if lead && (timed || wal.is_some()) {
                let bytes = if timed {
                    recorder.time("wire.encode", request, || step.command.encode())
                } else {
                    step.command.encode()
                };
                if timed {
                    view.request_bytes.push(bytes.len() as f64);
                }
                if wal.is_some() && !matches!(step.command, Command::Query { .. }) {
                    staged.put(wal_seq, bytes);
                    wal_seq += 1;
                }
            }
            let result = match &step.command {
                Command::Query { name } => {
                    let settle = timed.then(|| recorder.open("plan.settle", request));
                    let target = Time::from_epoch(manager.epoch());
                    let mut steps = 0;
                    while manager.behind(&target) {
                        let span = recorder.open("dataflow.step", request);
                        let worked = worker.step();
                        let name = if worked {
                            "dataflow.step"
                        } else {
                            "dataflow.idle_step"
                        };
                        recorder.close_as(span, name);
                        steps += 1;
                    }
                    if let Some(settle) = settle {
                        recorder.close(settle);
                        // Settling stops at the first step that leaves nothing behind, so
                        // an idle step is never part of it: one probe step (taken by every
                        // worker, as all steps are) times a step with no work to do.
                        let span = recorder.open("dataflow.probe_step", request);
                        let worked = worker.step();
                        let name = if worked {
                            "dataflow.probe_step"
                        } else {
                            "dataflow.idle_step"
                        };
                        recorder.close_as(span, name);
                    }
                    view.settles.push((step.kind, steps));
                    let rows = recorder.time("plan.query_read", request, || manager.query(name));
                    if let Ok(rows) = &rows {
                        view.answers.push((index, rows.clone()));
                    }
                    rows.map(PlanResponse::Rows)
                }
                Command::Install { plan, locals, .. } => {
                    let locals: BTreeSet<String> = locals.iter().cloned().collect();
                    let mut requirements = Vec::new();
                    plan.arrangement_requirements(&locals, &mut requirements);
                    if let Kind::Install(Tag::Class(_)) = step.kind {
                        view.requirements += requirements.len();
                        view.requirements_present += requirements
                            .iter()
                            .filter(|key| manager.arrangement_name(key).is_some())
                            .count();
                        view.class_installs += 1;
                        let shared = requirements.contains(&edges_key)
                            && manager.arrangement_name(&edges_key).is_some();
                        view.unshared_installs += usize::from(!shared);
                    }
                    let command = step.command.clone();
                    if timed {
                        recorder.time("plan.install", request, || manager.execute(worker, command))
                    } else {
                        manager.execute(worker, command)
                    }
                }
                Command::Update { .. } if timed => {
                    let command = step.command.clone();
                    recorder.time("plan.update", request, || manager.execute(worker, command))
                }
                Command::Uninstall { .. } => {
                    let command = step.command.clone();
                    recorder.time("plan.uninstall", request, || {
                        manager.execute(worker, command)
                    })
                }
                _ => manager.execute(worker, step.command.clone()),
            };
            view.errors += u64::from(result.is_err());
            if let (Some(wal), Command::AdvanceTime { .. }) = (wal.as_mut(), &step.command) {
                // The server's group commit: one commit and one fsync per epoch seal.
                let batch = std::mem::take(&mut staged);
                let committed = recorder.time("store.commit", request, || wal.commit(&batch));
                let synced = recorder.time("store.fsync", request, || wal.sync());
                view.errors += u64::from(committed.is_err() || synced.is_err());
            }
            if lead && timed {
                let response = to_wire(&result).encode();
                if matches!(step.command, Command::Query { .. }) {
                    view.answer_bytes.push(response.len() as f64);
                }
                let decoded = recorder.time("wire.decode", request, || Response::decode(&response));
                view.errors += u64::from(decoded.is_err());
            }
            view.slots_high_water = view.slots_high_water.max(worker.dataflow_count());
            if let Ok(slots) = manager.catalog().reader_slots("plan-source-edges") {
                view.reader_slots_high_water = view.reader_slots_high_water.max(slots);
            }
        }
        let catalog = manager.catalog();
        view.arranged_updates = catalog
            .names()
            .iter()
            .filter_map(|name| catalog.arrangement_size(name).ok())
            .sum();
        if let (Some(dir), true) = (&wal_dir, lead) {
            view.wal_bytes = dir_bytes(dir);
        }
        view.spans = recorder.into_spans();
        view
    })
}

/// Sums each query's shards across workers and checks it against the reference.
fn check_direct(stream: &PhaseStream, views: &[WorkerView], tally: &Tally) {
    let mut merged: BTreeMap<usize, BTreeMap<Row, isize>> = BTreeMap::new();
    for view in views {
        for (index, rows) in &view.answers {
            let answer = merged.entry(*index).or_default();
            for (row, diff) in rows {
                *answer.entry(row.clone()).or_default() += diff;
            }
        }
        tally.record(view.errors == 0);
    }
    for (index, step) in stream.steps.iter().enumerate() {
        if let Command::Query { .. } = step.command {
            let rows: Option<Vec<(Row, isize)>> = merged.get(&index).map(|answer| {
                answer
                    .iter()
                    .filter(|(_, diff)| **diff != 0)
                    .map(|(row, diff)| (row.clone(), *diff))
                    .collect()
            });
            tally.record(check(step, rows.as_deref()));
        }
    }
}

/// Everything measured for one phase.
struct PhaseResult {
    socket: SocketPass,
    untraced_seconds: f64,
    core: CorePass,
    views: Vec<WorkerView>,
    updates: usize,
}

fn run_phase(stream: PhaseStream, bin: &Path, work_dir: &Path, tally: &Tally) -> PhaseResult {
    let untraced = socket_pass(&stream, bin, work_dir, false, tally);
    let socket = socket_pass(&stream, bin, work_dir, true, tally);
    let core = core_pass(&stream, work_dir, tally);
    let stream = Arc::new(stream);
    let wal_dir = stream
        .durable
        .then(|| fresh_dir(work_dir, "traced-direct-wal"));
    let views = direct_pass(&stream, wal_dir.clone());
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    check_direct(&stream, &views, tally);
    PhaseResult {
        socket,
        untraced_seconds: untraced.seconds,
        core,
        views,
        updates: stream.updates(),
    }
}

/// Mean duration in nanoseconds of the spans named `name`. Used for calls that take
/// well under a microsecond, where a median would be one whole-nanosecond sample and
/// could read the same on every run.
fn span_mean_ns(spans: &[Span], name: &str) -> f64 {
    let values = durations(spans, name);
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median duration, divided by `scale`, of the spans named `name` whose request is a
/// step accepted by `filter`.
fn span_median(spans: &[Span], name: &str, scale: f64, filter: impl Fn(u64) -> bool) -> f64 {
    let values: Vec<f64> = spans
        .iter()
        .filter(|span| span.name == name && filter(span.request))
        .map(|span| span.duration_ns() as f64 / scale)
        .collect();
    median(&values).unwrap_or(f64::NAN)
}

pub fn run(
    workload: Workload,
    seed: u64,
    bin: &Path,
    work_dir: &Path,
    tally: &Tally,
) -> (Vec<Metric>, bool) {
    let [interactive_stream, ingest_stream, fixpoint_stream] = streams(workload, seed);
    println!(
        "# command stream hashes (interactive, ingest, fixpoint): {:016x} {:016x} {:016x}",
        interactive_stream.hash(),
        ingest_stream.hash(),
        fixpoint_stream.hash()
    );
    let kinds =
        |stream: &PhaseStream| -> Vec<Kind> { stream.steps.iter().map(|step| step.kind).collect() };
    let interactive_kinds = kinds(&interactive_stream);
    let fixpoint_kinds = kinds(&fixpoint_stream);
    let interactive = run_phase(interactive_stream, bin, work_dir, tally);
    let ingest = run_phase(ingest_stream, bin, work_dir, tally);
    let fixpoint = run_phase(fixpoint_stream, bin, work_dir, tally);

    let traces = work_dir.join("traces");
    let _ = std::fs::create_dir_all(&traces);
    for (label, phase) in [
        ("interactive", &interactive),
        ("ingest", &ingest),
        ("fixpoint", &fixpoint),
    ] {
        let mut threads: Vec<(String, &[Span])> = vec![
            ("socket".into(), &phase.socket.spans),
            ("core".into(), &phase.core.spans),
        ];
        for (index, view) in phase.views.iter().enumerate() {
            threads.push((format!("worker{index}"), &view.spans));
        }
        let threads: Vec<(&str, &[Span])> = threads
            .iter()
            .map(|(name, spans)| (name.as_str(), *spans))
            .collect();
        let path = traces.join(format!("{workload:?}-{seed}-{label}.jsonl").to_lowercase());
        if let Err(error) = write_jsonl(&path, &threads) {
            eprintln!("perfbench: could not write {}: {error}", path.display());
        }
    }

    let kind_of = |kinds: &[Kind]| {
        let kinds = kinds.to_vec();
        move |request: u64| kinds[request as usize]
    };
    let interactive_kind = kind_of(&interactive_kinds);
    let fixpoint_kind = kind_of(&fixpoint_kinds);
    let lead = |phase: &PhaseResult| -> Vec<Span> { phase.views[0].spans.clone() };
    let (i_spans, g_spans, f_spans) = (lead(&interactive), lead(&ingest), lead(&fixpoint));
    let i_view = &interactive.views[0];
    let g_view = &ingest.views[0];

    let mut metrics = vec![
        metric(
            "wire.encode_ns",
            span_mean_ns(&g_spans, "wire.encode"),
            "ns",
        ),
        metric(
            "wire.decode_ns",
            span_mean_ns(&g_spans, "wire.decode"),
            "ns",
        ),
        metric(
            "wire.request_bytes",
            median(&g_view.request_bytes).unwrap_or(f64::NAN),
            "bytes",
        ),
        metric(
            "wire.answer_bytes",
            median(&i_view.answer_bytes).unwrap_or(f64::NAN),
            "bytes",
        ),
    ];

    let core_update = ingest.core.core_us.median(is_update);
    let core_query = interactive.core.core_us.median(is_class_query);
    metrics.extend([
        metric(
            "net.boundary_us",
            ingest.socket.rtt_us.median(is_update) - core_update,
            "us",
        ),
        metric(
            "net.boundary_query_us",
            interactive.socket.rtt_us.median(is_class_query) - core_query,
            "us",
        ),
        metric("server.core_update_us", core_update, "us"),
        metric("server.core_query_us", core_query, "us"),
        metric(
            "server.submit_batch_ns",
            span_mean_ns(&ingest.core.spans, "server.submit_batch"),
            "ns",
        ),
        metric(
            "store.commit_us",
            span_median(&g_spans, "store.commit", 1e3, |_| true),
            "us",
        ),
        metric(
            "store.fsync_us",
            span_median(&g_spans, "store.fsync", 1e3, |_| true),
            "us",
        ),
        metric(
            "store.bytes_per_update",
            g_view.wal_bytes as f64 / ingest.updates.max(1) as f64,
            "bytes",
        ),
    ]);

    for class in CLASSES {
        let tag = Tag::Class(class);
        metrics.push(metric(
            &format!("plan.install_us.{}", class.label()),
            span_median(&i_spans, "plan.install", 1e3, |r| {
                interactive_kind(r) == Kind::Install(tag)
            }),
            "us",
        ));
    }
    metrics.push(metric(
        "plan.uninstall_us",
        span_median(&i_spans, "plan.uninstall", 1e3, |_| true),
        "us",
    ));
    metrics.push(metric(
        "plan.update_ns",
        span_mean_ns(&g_spans, "plan.update"),
        "ns",
    ));
    for class in CLASSES {
        let tag = Tag::Class(class);
        metrics.push(metric(
            &format!("plan.settle_us.{}", class.label()),
            span_median(&i_spans, "plan.settle", 1e3, |r| {
                interactive_kind(r) == Kind::Query(tag)
            }),
            "us",
        ));
    }
    metrics.push(metric(
        "plan.settle_us.round",
        span_median(&f_spans, "plan.settle", 1e3, |r| {
            fixpoint_kind(r) == Kind::Query(Tag::Round)
        }),
        "us",
    ));
    let settle_self: Vec<f64> = self_times(&i_spans)
        .into_iter()
        .zip(&i_spans)
        .filter(|(_, span)| {
            span.name == "plan.settle" && is_class_query(interactive_kind(span.request))
        })
        .map(|(self_ns, _)| self_ns as f64 / 1e3)
        .collect();
    metrics.push(metric(
        "plan.settle_self_us",
        median(&settle_self).unwrap_or(f64::NAN),
        "us",
    ));
    metrics.push(metric(
        "plan.query_read_us",
        span_median(&i_spans, "plan.query_read", 1e3, |r| {
            is_class_query(interactive_kind(r))
        }),
        "us",
    ));

    let steps_per_settle = |view: &WorkerView, kind: Kind| {
        let values: Vec<f64> = view
            .settles
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, steps)| *steps as f64)
            .collect();
        median(&values).unwrap_or(f64::NAN)
    };
    let busy: Vec<f64> = fixpoint
        .views
        .iter()
        .map(|view| durations(&view.spans, "dataflow.step").iter().sum::<f64>())
        .collect();
    let skew = busy.iter().copied().fold(f64::MIN, f64::max)
        / busy.iter().copied().fold(f64::MAX, f64::min).max(1.0);
    metrics.extend([
        metric(
            "dataflow.steps_per_settle",
            steps_per_settle(&fixpoint.views[0], Kind::Query(Tag::Round)),
            "count",
        ),
        metric(
            "dataflow.steps_per_settle.path4",
            steps_per_settle(i_view, Kind::Query(Tag::Class(Class::Path4))),
            "count",
        ),
        metric(
            "dataflow.step_us",
            span_median(&f_spans, "dataflow.step", 1e3, |_| true),
            "us",
        ),
        metric(
            "dataflow.idle_step_ns",
            span_mean_ns(&i_spans, "dataflow.idle_step"),
            "ns",
        ),
        metric("dataflow.worker_busy_skew", skew, "ratio"),
        metric(
            "dataflow.slots_high_water",
            i_view.slots_high_water as f64,
            "count",
        ),
        metric(
            "core.shared_import_ratio",
            i_view.requirements_present as f64 / i_view.requirements.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.reader_slots_high_water",
            i_view.reader_slots_high_water as f64,
            "count",
        ),
    ]);

    let heavy = match workload {
        Workload::Interactive => &interactive,
        Workload::Ingest => &ingest,
        Workload::Fixpoint => &fixpoint,
    };
    let arranged: usize = heavy.views.iter().map(|view| view.arranged_updates).sum();
    metrics.extend([
        metric("trace.arranged_updates", arranged as f64, "count"),
        metric(
            "trace.updates_per_input_update",
            arranged as f64 / heavy.updates.max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            (heavy.socket.seconds / heavy.untraced_seconds - 1.0) * 100.0,
            "%",
        ),
    ]);

    let sharing_ok = interactive
        .views
        .iter()
        .all(|view| view.unshared_installs == 0 && view.class_installs > 0);
    println!(
        "# sharing check: {} of {} class installs imported the shared edges arrangement",
        i_view.class_installs - i_view.unshared_installs,
        i_view.class_installs
    );
    if !sharing_ok {
        println!("# FAILED: an install did not import the shared edges arrangement");
    }
    println!(
        "# tracing overhead: socket pass {:.4} s traced vs {:.4} s untraced ({workload:?} phase)",
        heavy.socket.seconds, heavy.untraced_seconds
    );
    (metrics, sharing_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_command_stream() {
        for workload in [Workload::Interactive, Workload::Ingest, Workload::Fixpoint] {
            let first: Vec<u64> = streams(workload, 42)
                .iter()
                .map(PhaseStream::hash)
                .collect();
            let second: Vec<u64> = streams(workload, 42)
                .iter()
                .map(PhaseStream::hash)
                .collect();
            let other: Vec<u64> = streams(workload, 43)
                .iter()
                .map(PhaseStream::hash)
                .collect();
            assert_eq!(first, second);
            assert!(first.iter().zip(&other).all(|(a, b)| a != b));
        }
    }

    #[test]
    fn streams_answer_their_own_queries() {
        let [interactive, ingest, fixpoint] = streams(Workload::Interactive, 5);
        for stream in [&interactive, &ingest, &fixpoint] {
            let queries = stream
                .steps
                .iter()
                .filter(|step| matches!(step.command, Command::Query { .. }))
                .count();
            let expected = stream
                .steps
                .iter()
                .filter(|step| step.expected.is_some())
                .count();
            assert!(queries > 0);
            assert_eq!(queries, expected);
        }
    }
}
