//! The `interactive` phase: the paper's §6.2 scenario over the socket.
//!
//! A `--workers 1` in-memory server is preloaded with a random graph in `edges`
//! (keyed by source) and one small standing aggregate: per-source edge counts for the
//! lowest sources. Then, for the measured window, two threads with one connection each:
//!
//! * the stream thread sends edge additions and removals open loop at a fixed rate. It
//!   never waits for the server: it reads acknowledgements only once many are
//!   outstanding, so the schedule holds unless the server falls far behind. Each epoch
//!   of the stream ends with a *tick*, an edge `(0, k)` from a node outside the graph,
//!   so the standing aggregate's count for node 0 says which epochs an answer covers;
//! * the session thread runs closed-loop sessions (install with a query-local argument
//!   input, pose the argument, advance, query, uninstall), cycling look-up, 2-hop and
//!   4-hop path. It is the only thread that sends `AdvanceTime`, so epochs never
//!   regress. Whenever the stream has ticked since its last look, it advances and
//!   queries the standing aggregate: the tick count in that answer dates the answer's
//!   freshness against the tick's scheduled time.
//!
//! Every `CHECK_EVERY`-th cycle is a quiescent checkpoint: the stream pauses with all
//! its updates acknowledged, and the standing aggregate and one session per class are
//! checked exactly against the reference. Between checkpoints an answer must be a
//! non-error answer whose rows carry the posed argument.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use kpg_plan::Command;
use kpg_server::Client;

use crate::gen::{edge_update, Edge, EdgeSet, Rng};
use crate::plans::{key_counts_plan, Class, Session, Tally, AGG_KEYS, CLASSES};
use crate::reference::{from_rows, Answer, Graph, KeyCounts};
use crate::server::{is_ok, pipeline, rows, ServerProcess};
use crate::stats::Samples;

/// The stream reads acknowledgements once this many are outstanding...
const ACKS_HIGH: usize = 512;
/// ...down to this many, which were sent long enough ago to have arrived.
const ACKS_LOW: usize = 256;

/// The preloaded graph: nodes `1..NODES` (node 0 carries the stream's ticks).
pub const NODES: u32 = 10_000;
pub const EDGES: usize = 100_000;
/// Stream updates per second, and per stream epoch.
const RATE: f64 = 2_000.0;
pub const EPOCH_UPDATES: usize = 50;
/// Every this many session cycles is a quiescent checkpoint.
const CHECK_EVERY: u64 = 20;

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub first_ms: [Samples; 3],
    pub freshness_ms: Samples,
    /// How late the stream thread sent each update, from its due time.
    pub lateness_ms: Samples,
    pub checkpoints: u64,
    pub peak_rss_mb: f64,
    pub cpu_us_per_op: f64,
}

/// The stream's state, shared with the session thread for checks.
struct Stream {
    set: EdgeSet,
    graph: Graph,
    counts: KeyCounts,
    /// The scheduled time of each tick, in tick order.
    tick_due: Vec<Instant>,
}

impl Stream {
    fn apply(&mut self, edge: Edge, diff: isize) {
        self.graph.apply(edge, diff);
        self.counts.apply(edge, diff, AGG_KEYS);
    }
}

#[derive(Default)]
struct Pause {
    requested: bool,
    paused: bool,
    stream_done: bool,
}

/// What the two threads of one measured slice share.
struct Shared<'a> {
    stream: &'a Mutex<Stream>,
    ticks_sent: &'a AtomicU32,
    pause: Mutex<Pause>,
    changed: Condvar,
    stop_at: Instant,
    tally: &'a Tally,
}

fn setup(bin: &Path, set: &EdgeSet, tally: &Tally) -> (ServerProcess, Client, Client, f64) {
    let start = Instant::now();
    let server = ServerProcess::spawn(bin, 1, None);
    let mut stream = server.connect();
    let sessions = server.connect();
    let mut counts = KeyCounts::default();
    let preload = set.edges().iter().map(|&edge| {
        counts.apply(edge, 1, AGG_KEYS);
        edge_update(edge, 1)
    });
    let commands = [Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }]
    .into_iter()
    .chain(preload)
    .chain([
        Command::Install {
            name: "agg".into(),
            plan: key_counts_plan(),
            locals: vec![],
        },
        Command::AdvanceTime { epoch: 1 },
    ]);
    pipeline(&mut stream, commands, tally);
    let answer = rows(stream.execute(&agg_query()));
    tally.record(answer.as_deref().and_then(from_rows) == Some(counts.by_key()));
    (server, stream, sessions, start.elapsed().as_secs_f64())
}

fn agg_query() -> Command {
    Command::Query { name: "agg".into() }
}

/// The session thread's state that outlives a slice.
#[derive(Default)]
struct ReaderState {
    epoch: u64,
    ticks_seen: u32,
    freshness: Samples,
    first_ms: [Samples; 3],
    cycle: u64,
    checkpoints: u64,
}

/// A set-up server and everything that carries over between measured slices.
pub struct Live {
    server: ServerProcess,
    stream_client: Client,
    session_client: Client,
    stream: Mutex<Stream>,
    ticks_sent: AtomicU32,
    stream_rng: Rng,
    session_rng: Rng,
    reader: ReaderState,
    outcome: Outcome,
    cpu_us: u64,
    commands: u64,
}

impl Live {
    /// Sets the server up `setups` times, keeping the last one.
    pub fn start(bin: &Path, setups: usize, rng: &mut Rng, tally: &Tally) -> Live {
        let set = EdgeSet::random(&mut rng.fork(), NODES, EDGES);
        let mut outcome = Outcome::default();
        let mut live = None;
        for round in 0..setups {
            let (server, stream, sessions, seconds) = setup(bin, &set, tally);
            outcome.setup_s.push(seconds);
            if round + 1 == setups {
                live = Some((server, stream, sessions));
            } else {
                server.stop();
            }
        }
        let (server, stream_client, session_client) = live.expect("at least one setup");
        let mut stream = Stream {
            graph: Graph::from_edges(set.edges()),
            set,
            counts: KeyCounts::default(),
            tick_due: Vec::new(),
        };
        for index in 0..stream.set.edges().len() {
            let edge = stream.set.edges()[index];
            stream.counts.apply(edge, 1, AGG_KEYS);
        }
        Live {
            server,
            stream_client,
            session_client,
            stream: Mutex::new(stream),
            ticks_sent: AtomicU32::new(0),
            stream_rng: rng.fork(),
            session_rng: rng.fork(),
            reader: ReaderState {
                epoch: 1,
                ..ReaderState::default()
            },
            outcome,
            cpu_us: 0,
            commands: 0,
        }
    }

    /// Runs both threads for `duration`; the slice ends quiescent, with the standing
    /// aggregate checked exactly.
    pub fn slice(&mut self, duration: Duration, tally: &Tally) {
        let shared = Shared {
            stream: &self.stream,
            ticks_sent: &self.ticks_sent,
            pause: Mutex::new(Pause::default()),
            changed: Condvar::new(),
            stop_at: Instant::now() + duration,
            tally,
        };
        let before = self.server.sample();
        let tally_before = tally.attempted();
        let (stream_client, session_client) = (&mut self.stream_client, &mut self.session_client);
        let (stream_rng, session_rng) = (&mut self.stream_rng, &mut self.session_rng);
        let reader = &mut self.reader;
        let lateness = std::thread::scope(|scope| {
            let stream = scope.spawn(|| run_stream(stream_client, &shared, stream_rng));
            scope.spawn(|| run_sessions(session_client, &shared, session_rng, reader));
            stream.join().expect("stream thread")
        });
        self.outcome.lateness_ms.extend(&lateness);
        self.cpu_us += self.server.sample().cpu_us - before.cpu_us;
        self.commands += tally.attempted() - tally_before;
    }

    pub fn finish(mut self) -> Outcome {
        let sample = self.server.sample();
        self.server.stop();
        self.outcome.first_ms = self.reader.first_ms;
        self.outcome.freshness_ms = self.reader.freshness;
        self.outcome.checkpoints = self.reader.checkpoints;
        self.outcome.peak_rss_mb = sample.peak_rss_kb as f64 / 1024.0;
        self.outcome.cpu_us_per_op = self.cpu_us as f64 / self.commands.max(1) as f64;
        self.outcome
    }
}

/// The open-loop update stream. Returns how late each update was sent.
fn run_stream(client: &mut Client, shared: &Shared<'_>, rng: &mut Rng) -> Samples {
    let _leaving = Leaving {
        shared,
        stream: true,
    };
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut lateness = Samples::default();
    let mut origin = Instant::now();
    let mut scheduled = 0u32;
    let mut outstanding = 0;
    let send = |client: &mut Client, command: &Command, outstanding: &mut usize| {
        client.send(command).expect("send a stream update");
        *outstanding += 1;
        if *outstanding >= ACKS_HIGH {
            while *outstanding > ACKS_LOW {
                shared.tally.record(is_ok(&client.receive()));
                *outstanding -= 1;
            }
        }
    };
    while Instant::now() < shared.stop_at {
        let mut due = origin;
        for _ in 0..EPOCH_UPDATES {
            due = origin + interval * scheduled;
            scheduled += 1;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness.push(Instant::now().saturating_duration_since(due));
            let (edge, diff) = {
                let mut stream = shared.stream.lock().expect("stream state");
                let (edge, diff) = stream.set.churn(rng, 2);
                stream.apply(edge, diff);
                (edge, diff)
            };
            send(client, &edge_update(edge, diff), &mut outstanding);
        }
        // The tick closes the epoch: it is due with the epoch's last update.
        let tick = {
            let mut stream = shared.stream.lock().expect("stream state");
            let tick = (0, stream.tick_due.len() as u32);
            stream.apply(tick, 1);
            stream.tick_due.push(due);
            tick
        };
        send(client, &edge_update(tick, 1), &mut outstanding);
        shared.ticks_sent.fetch_add(1, Ordering::SeqCst);

        let mut pause = shared.pause.lock().expect("pause state");
        if pause.requested {
            // Quiescent: every update sent so far is acknowledged before the pause.
            for _ in 0..outstanding {
                shared.tally.record(is_ok(&client.receive()));
            }
            outstanding = 0;
            pause.paused = true;
            shared.changed.notify_all();
            let paused_at = Instant::now();
            while pause.requested {
                pause = shared.changed.wait(pause).expect("pause state");
            }
            pause.paused = false;
            // The schedule resumes where it stopped: a checkpoint is not lateness.
            origin += paused_at.elapsed();
        }
    }
    for _ in 0..outstanding {
        shared.tally.record(is_ok(&client.receive()));
    }
    lateness
}

/// Tells the other thread of a slice that this one has stopped, when dropped at its
/// end or by a panic, so neither waits forever on the other.
struct Leaving<'a, 'b> {
    shared: &'a Shared<'b>,
    stream: bool,
}

impl Drop for Leaving<'_, '_> {
    fn drop(&mut self) {
        // The flags are plain booleans, valid even if a panic poisoned the lock; the
        // waiter then panics on waking instead of waiting forever.
        let mut pause = self
            .shared
            .pause
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.stream {
            pause.stream_done = true;
        } else {
            pause.requested = false;
        }
        self.shared.changed.notify_all();
    }
}

/// The session thread: closed-loop sessions plus the standing aggregate's reads, until
/// the slice ends and the stream has stopped; then one exact read of the aggregate.
fn run_sessions(client: &mut Client, shared: &Shared<'_>, rng: &mut Rng, state: &mut ReaderState) {
    let _leaving = Leaving {
        shared,
        stream: false,
    };
    let mut reader = Reader {
        client,
        shared,
        state,
    };
    while Instant::now() < shared.stop_at {
        let cycle = reader.state.cycle;
        reader.state.cycle += 1;
        let checkpoint = cycle % CHECK_EVERY == CHECK_EVERY - 1;
        if checkpoint {
            let mut pause = shared.pause.lock().expect("pause state");
            pause.requested = true;
            while !pause.paused && !pause.stream_done {
                pause = shared.changed.wait(pause).expect("pause state");
            }
            drop(pause);
            reader.state.checkpoints += 1;
            reader.read_aggregate(true);
        }
        for (offset, class) in CLASSES.into_iter().enumerate() {
            if !checkpoint && shared.ticks_sent.load(Ordering::SeqCst) > reader.state.ticks_seen {
                reader.read_aggregate(false);
            }
            let id = cycle * 3 + offset as u64;
            let argument = class.argument(rng, NODES);
            let start = Instant::now();
            let answer = reader.session(id, class, &argument);
            let elapsed = start.elapsed();
            let ok = match &answer {
                None => false,
                Some(answer) if checkpoint => {
                    let stream = shared.stream.lock().expect("stream state");
                    *answer == expected(&stream.graph, class, &argument)
                }
                Some(answer) => carries_argument(answer, class, &argument),
            };
            if shared.tally.record(ok) && !checkpoint {
                reader.state.first_ms[class.index()].push(elapsed);
            }
            let uninstall = Session::new(id, class, &argument).uninstall;
            shared
                .tally
                .record(is_ok(&reader.client.execute(&uninstall)));
        }
        if checkpoint {
            let mut pause = shared.pause.lock().expect("pause state");
            pause.requested = false;
            shared.changed.notify_all();
        }
    }
    let mut pause = shared.pause.lock().expect("pause state");
    while !pause.stream_done {
        pause = shared.changed.wait(pause).expect("pause state");
    }
    drop(pause);
    reader.read_aggregate(true);
}

/// The session thread's connection and its view of time.
struct Reader<'a, 'b> {
    client: &'a mut Client,
    shared: &'a Shared<'b>,
    state: &'a mut ReaderState,
}

impl Reader<'_, '_> {
    fn advance(&mut self) {
        self.state.epoch += 1;
        let epoch = self.state.epoch;
        let advanced = is_ok(&self.client.execute(&Command::AdvanceTime { epoch }));
        self.shared.tally.record(advanced);
    }

    /// Advances and reads the standing aggregate; each tick it covers for the first time
    /// yields a freshness sample. Checked exactly when the stream is quiescent; otherwise
    /// the answer must hold only tracked sources and its tick count never go backwards.
    fn read_aggregate(&mut self, quiescent: bool) {
        self.advance();
        let answer = rows(self.client.execute(&agg_query()))
            .as_deref()
            .and_then(from_rows);
        let received = Instant::now();
        let stream = self.shared.stream.lock().expect("stream state");
        let ok = match &answer {
            None => false,
            Some(answer) if quiescent => *answer == stream.counts.by_key(),
            Some(answer) => answer
                .iter()
                .all(|(row, diff)| row.len() == 2 && row[0] < i64::from(AGG_KEYS) && *diff == 1),
        };
        let ticks = answer
            .iter()
            .flatten()
            .find(|(row, _)| row[0] == 0)
            .map_or(0, |(row, _)| row[1] as u32);
        let seen = self.state.ticks_seen;
        let ok = ok && ticks >= seen && ticks as usize <= stream.tick_due.len();
        if self.shared.tally.record(ok) {
            for due in &stream.tick_due[seen as usize..ticks as usize] {
                self.state
                    .freshness
                    .push(received.saturating_duration_since(*due));
            }
            self.state.ticks_seen = ticks;
        }
    }

    /// Install, pose, advance, query: the span a first result waits for. `None` if any
    /// step failed.
    fn session(&mut self, id: u64, class: Class, argument: &[u32]) -> Option<Answer> {
        let session = Session::new(id, class, argument);
        let installed = self
            .shared
            .tally
            .record(is_ok(&self.client.execute(&session.install)));
        let posed = self
            .shared
            .tally
            .record(is_ok(&self.client.execute(&session.pose)));
        self.advance();
        let answer = rows(self.client.execute(&session.query));
        if !(installed && posed) {
            return None;
        }
        from_rows(&answer?)
    }
}

pub fn expected(graph: &Graph, class: Class, argument: &[u32]) -> Answer {
    match class {
        Class::Lookup => graph.lookup(argument[0]),
        Class::Hop2 => graph.two_hop(argument[0]),
        Class::Path4 => graph.path4(argument[0], argument[1]),
    }
}

/// The check between checkpoints: every row leads with the posed argument (and a 4-hop
/// answer reports 1 to 4 hops).
fn carries_argument(answer: &Answer, class: Class, argument: &[u32]) -> bool {
    answer.iter().all(|(row, diff)| {
        let leads = row
            .iter()
            .zip(argument)
            .all(|(&column, &arg)| column == i64::from(arg));
        let shape = match class {
            Class::Lookup | Class::Hop2 => row.len() == 2,
            Class::Path4 => row.len() == 3 && (1..=4).contains(&row[2]),
        };
        leads && shape && *diff > 0
    })
}
