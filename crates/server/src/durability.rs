//! Durability: the command-log WAL, checkpoints, and crash recovery.
//!
//! A durable server persists exactly one thing: the sequencer's total command order.
//! Every non-`Query` command is appended to a `kpg_store` [`Wal`] *at sequencing time*
//! (under the same lock that orders it), buffered into a per-epoch batch and fsynced
//! when an `AdvanceTime` is sequenced — so an acknowledged epoch advance implies every
//! command at or before it is durable ("fsync-on-epoch" group commit). Because every
//! worker's [`Manager`](kpg_plan::Manager) is a deterministic function of that order,
//! replaying the log reproduces the server's state exactly.
//!
//! Replaying from the beginning of time would make restart cost proportional to
//! history, so the server checkpoints. A [`StateTracker`] follows command *completions*
//! (which occur in log order) and maintains the collapsed state the log prefix denotes:
//! live inputs, installed plans, and the sealed contents of every input with history
//! folded to a single epoch. When an `AdvanceTime` completes, the tracker state is
//! exactly the effect of WAL records up to that command's sequence number — a
//! consistent cut — and a clone of it can be written out by a background thread as:
//!
//! * a sorted-run file of the sealed contents as wire-encoded `Update` commands
//!   (`ckpt-<id>.run`), and
//! * a [`Manifest`] naming the epoch, the WAL watermark, the inputs, and the installed
//!   plans, committed by atomic rename (the manifest *is* the checkpoint).
//!
//! WAL segments entirely below the committed watermark are then pruned. Recovery loads
//! the manifest (if any), synthesizes a *bootstrap* command prefix — create the inputs,
//! install the plans, feed the sealed contents back as updates, advance to the sealed
//! epoch — and replays the WAL tail past the watermark on top. A crash on either side
//! of the prune (manifest committed, segments not yet deleted) recovers identically:
//! the watermark makes the extra prefix inert.
//!
//! Recovered queries are owned by no client (their owners are gone); they persist
//! until explicitly uninstalled. `Query` commands are never logged — they read state
//! but do not define it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use kpg_plan::{Command, Row};
use kpg_store::bytes::{get_bytes, get_u64, put_bytes, put_u64};
use kpg_store::run::DEFAULT_BLOCK_BYTES;
use kpg_store::{Manifest, RunReader, RunWriter, Wal};
use kpg_wire::WireCodec;

/// Where and how a server persists its command log and checkpoints.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The directory holding WAL segments, run files, and the manifest.
    pub dir: PathBuf,
    /// WAL segments rotate once they exceed this size.
    pub segment_bytes: u64,
    /// Checkpoint when at least this many commands have been logged since the last
    /// checkpoint (evaluated at epoch boundaries, where a consistent cut exists).
    pub checkpoint_every: u64,
    /// The retry budget for runtime storage failures (group commit, checkpoints).
    /// Transient errors are retried with doubling backoff up to `retry.attempts`
    /// total tries; fatal errors (ENOSPC, corruption) escalate immediately. Past the
    /// budget the server enters degraded read-only mode.
    pub retry: kpg_store::RetryPolicy,
    /// How often the degraded-mode probe re-tries the WAL to self-heal back to
    /// read-write (it runs only while degraded).
    pub probe_interval: std::time::Duration,
}

impl DurabilityConfig {
    /// A configuration with default segment size (8 MiB), checkpoint cadence (every
    /// 4096 logged commands), retry budget (3 attempts, 1–20 ms backoff), and heal
    /// probe interval (25 ms).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            checkpoint_every: 4096,
            retry: kpg_store::RetryPolicy::default(),
            probe_interval: std::time::Duration::from_millis(25),
        }
    }
}

/// One installed query the tracker knows: its name, its private local inputs, and the
/// wire-encoded `Install` command that reproduces it.
#[derive(Clone, Debug)]
struct InstallRecord {
    name: String,
    locals: Vec<String>,
    encoded: Vec<u8>,
}

/// The collapsed state denoted by a prefix of the command log.
///
/// Applied only on *successful* command completions (failures have no effect, and
/// re-fail deterministically if replayed). Open-epoch updates are held aside and folded
/// into the sealed contents when an `AdvanceTime` completes; only then does the
/// watermark advance, so the tracker always describes a prefix that ends at an epoch
/// boundary — the only points where checkpoints are cut.
#[derive(Clone, Debug, Default)]
pub(crate) struct StateTracker {
    /// Sealed epoch: recovered state answers as of this epoch.
    epoch: u64,
    /// WAL sequence of the `AdvanceTime` that sealed `epoch`; `None` until one has.
    watermark: Option<u64>,
    /// Live global inputs and their key arity.
    inputs: BTreeMap<String, Option<usize>>,
    /// Installed queries, in completion order (which respects name dependencies).
    installs: Vec<InstallRecord>,
    /// Sealed contents per input (global and query-local), history collapsed.
    sealed: BTreeMap<String, BTreeMap<Row, isize>>,
    /// Updates of the open epoch, in completion order, not yet folded.
    open: Vec<(String, Row, isize)>,
    /// Commands logged since the last checkpoint was cut.
    since_checkpoint: u64,
}

impl StateTracker {
    /// Applies one successfully completed, WAL-logged command. Returns `true` iff the
    /// command sealed an epoch (the only moments a checkpoint may be cut).
    pub(crate) fn apply(&mut self, command: &Command, wal_seq: u64) -> bool {
        self.since_checkpoint += 1;
        match command {
            Command::CreateInput { name, key_arity } => {
                self.inputs.insert(name.clone(), *key_arity);
                false
            }
            Command::Update { name, row, diff } => {
                self.open.push((name.clone(), row.clone(), *diff));
                false
            }
            Command::AdvanceTime { epoch } => {
                for (name, row, diff) in self.open.drain(..) {
                    let contents = self.sealed.entry(name).or_default();
                    *contents.entry(row).or_insert(0) += diff;
                }
                self.sealed.retain(|_, contents| {
                    contents.retain(|_, diff| *diff != 0);
                    !contents.is_empty()
                });
                self.epoch = *epoch;
                self.watermark = Some(wal_seq);
                true
            }
            Command::Install {
                name,
                locals,
                plan: _,
            } => {
                self.installs.push(InstallRecord {
                    name: name.clone(),
                    locals: locals.clone(),
                    encoded: command.encode(),
                });
                false
            }
            Command::Uninstall { name } => {
                // The manager's namespace rule: a live query shadows a same-named
                // input. Mirror it so the tracker removes what the manager removed.
                if let Some(position) = self.installs.iter().position(|i| &i.name == name) {
                    let install = self.installs.remove(position);
                    for local in &install.locals {
                        self.sealed.remove(local);
                        self.open.retain(|(input, _, _)| input != local);
                    }
                } else {
                    self.inputs.remove(name);
                    self.sealed.remove(name);
                    self.open.retain(|(input, _, _)| input != name);
                }
                false
            }
            Command::Query { .. } => false,
        }
    }

    /// The WAL watermark of the last sealed epoch, if any epoch has sealed.
    pub(crate) fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Whether enough has been logged since the last checkpoint to cut a new one.
    pub(crate) fn checkpoint_due(&self, every: u64) -> bool {
        self.watermark.is_some() && self.since_checkpoint >= every
    }

    /// Notes that a checkpoint was cut from the current state.
    pub(crate) fn note_checkpoint(&mut self) {
        self.since_checkpoint = 0;
    }

    /// The command prefix that rebuilds this state through an ordinary manager:
    /// inputs, then installs (completion order preserves dependencies), then the
    /// sealed contents as updates (locals exist by then), then the epoch seal.
    pub(crate) fn bootstrap_commands(&self) -> Vec<Command> {
        let mut commands = Vec::new();
        for (name, key_arity) in &self.inputs {
            commands.push(Command::CreateInput {
                name: name.clone(),
                key_arity: *key_arity,
            });
        }
        for install in &self.installs {
            let command =
                Command::decode(&install.encoded).expect("tracker-held install bytes decode");
            commands.push(command);
        }
        for (name, contents) in &self.sealed {
            for (row, diff) in contents {
                commands.push(Command::Update {
                    name: name.clone(),
                    row: row.clone(),
                    diff: *diff,
                });
            }
        }
        if self.epoch > 0 {
            commands.push(Command::AdvanceTime { epoch: self.epoch });
        }
        commands
    }
}

const TAG_CHECKPOINT: &str = "ckpt";
const TAG_INPUT: &str = "input";
const TAG_INSTALL: &str = "install";
const TAG_RUN: &str = "run";

fn run_file_name(id: u64) -> String {
    format!("ckpt-{id:016x}.run")
}

/// Writes a checkpoint of `tracker` (a clone captured at an epoch seal) into `dir`:
/// the contents run file, then the manifest commit, then removal of superseded run
/// files. Returns the committed watermark so the caller can prune the WAL.
///
/// Panics are avoided throughout: any I/O failure leaves the previous checkpoint in
/// force (the manifest rename is the only commit point).
pub(crate) fn write_checkpoint(
    dir: &Path,
    tracker: &StateTracker,
    checkpoint_id: u64,
) -> io::Result<u64> {
    let watermark = tracker
        .watermark
        .expect("checkpoints are cut only at epoch seals");
    let run_name = run_file_name(checkpoint_id);
    let mut writer = RunWriter::create(dir.join(&run_name), DEFAULT_BLOCK_BYTES)?;
    // One reused buffer: a per-entry allocation doubles the checkpoint's cost.
    let mut entry = Vec::new();
    for (name, contents) in &tracker.sealed {
        let mut key_boundary = true;
        for (row, diff) in contents {
            let update = Command::Update {
                name: name.clone(),
                row: row.clone(),
                diff: *diff,
            };
            entry.clear();
            update.encode_into(&mut entry);
            writer.push(&entry, key_boundary)?;
            key_boundary = false;
        }
    }
    writer.finish()?;

    let mut records = Vec::new();
    let mut id_payload = Vec::new();
    put_u64(&mut id_payload, checkpoint_id);
    records.push((TAG_CHECKPOINT.to_string(), id_payload));
    for (name, key_arity) in &tracker.inputs {
        let record = Command::CreateInput {
            name: name.clone(),
            key_arity: *key_arity,
        };
        records.push((TAG_INPUT.to_string(), record.encode()));
    }
    for install in &tracker.installs {
        records.push((TAG_INSTALL.to_string(), install.encoded.clone()));
    }
    let mut run_payload = Vec::new();
    put_bytes(&mut run_payload, run_name.as_bytes());
    records.push((TAG_RUN.to_string(), run_payload));

    let manifest = Manifest {
        epoch: tracker.epoch,
        wal_watermark: watermark,
        records,
    };
    manifest.commit(dir)?;

    // The new manifest is committed; superseded run files are garbage. Removal
    // failures are harmless (they are re-collected by the next checkpoint).
    if let Ok(entries) = std::fs::read_dir(dir) {
        for dir_entry in entries.flatten() {
            let name = dir_entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ckpt-") && name.ends_with(".run") && name != run_name {
                let _ = std::fs::remove_file(dir_entry.path());
            }
        }
    }
    Ok(watermark)
}

/// Rebuilds a [`StateTracker`] from a committed manifest and its run file.
fn tracker_from_manifest(dir: &Path, manifest: &Manifest) -> io::Result<(StateTracker, u64)> {
    let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut tracker = StateTracker {
        epoch: manifest.epoch,
        watermark: Some(manifest.wal_watermark),
        ..StateTracker::default()
    };
    let mut checkpoint_id = 0u64;
    let mut run_name = None;
    for (tag, payload) in &manifest.records {
        match tag.as_str() {
            TAG_CHECKPOINT => {
                let mut pos = 0;
                checkpoint_id =
                    get_u64(payload, &mut pos).ok_or_else(|| corrupt("manifest ckpt id"))?;
            }
            TAG_INPUT => {
                let Ok(Command::CreateInput { name, key_arity }) = Command::decode(payload) else {
                    return Err(corrupt("manifest input is not a CreateInput"));
                };
                tracker.inputs.insert(name, key_arity);
            }
            TAG_INSTALL => {
                let Ok(Command::Install { name, locals, .. }) = Command::decode(payload) else {
                    return Err(corrupt("manifest install is not an Install"));
                };
                tracker.installs.push(InstallRecord {
                    name,
                    locals,
                    encoded: payload.clone(),
                });
            }
            TAG_RUN => {
                let mut pos = 0;
                let name = get_bytes(payload, &mut pos)
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .ok_or_else(|| corrupt("manifest run name"))?;
                run_name = Some(name);
            }
            _ => {} // Unknown tags: forward compatibility, ignore.
        }
    }
    if let Some(run_name) = run_name {
        let mut reader = RunReader::open(dir.join(run_name))?;
        for block in 0..reader.block_count() {
            for entry in reader.read_block(block)? {
                let Ok(Command::Update { name, row, diff }) = Command::decode(&entry) else {
                    return Err(corrupt("checkpoint run entry is not an Update"));
                };
                tracker.sealed.entry(name).or_default().insert(row, diff);
            }
        }
    }
    Ok((tracker, checkpoint_id))
}

/// Everything recovery hands the sequencer: the synthesized bootstrap prefix, the WAL
/// tail to replay on top, the open WAL, and the tracker seed that makes subsequent
/// completions continue the story.
pub(crate) struct Recovered {
    /// Commands that rebuild the checkpointed state (not re-logged; already durable).
    pub bootstrap: Vec<Command>,
    /// WAL records past the watermark: `(wal_seq, command)`, replayed in order.
    pub tail: Vec<(u64, Command)>,
    /// The open WAL, positioned to append.
    pub wal: Wal,
    /// The next WAL sequence number to assign.
    pub next_wal_seq: u64,
    /// The tracker, seeded with the checkpointed state.
    pub tracker: StateTracker,
    /// The next checkpoint id to assign.
    pub next_checkpoint_id: u64,
}

/// Opens (or creates) the durable directory: loads the manifest, opens the WAL with
/// torn-tail repair, and splits recovered records at the watermark.
///
/// Records at or below the watermark are already reflected in the checkpoint and are
/// skipped — this is what makes a crash *between* manifest commit and WAL pruning
/// indistinguishable from one after it.
pub(crate) fn recover(config: &DurabilityConfig) -> io::Result<Recovered> {
    std::fs::create_dir_all(&config.dir)?;
    let manifest = Manifest::load(&config.dir)?;
    let (tracker, checkpoint_id) = match &manifest {
        Some(manifest) => {
            let (tracker, id) = tracker_from_manifest(&config.dir, manifest)?;
            (tracker, id)
        }
        None => (StateTracker::default(), 0),
    };
    let bootstrap = tracker.bootstrap_commands();
    let (wal, records) = Wal::open(&config.dir, config.segment_bytes)?;
    let watermark = tracker.watermark();
    let mut tail = Vec::new();
    let mut max_seq = watermark;
    for record in records {
        max_seq = Some(max_seq.map_or(record.seq, |seen| seen.max(record.seq)));
        if watermark.is_some_and(|mark| record.seq <= mark) {
            continue;
        }
        let command = Command::decode(&record.body).map_err(|error| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL record {} undecodable: {error}", record.seq),
            )
        })?;
        tail.push((record.seq, command));
    }
    let next_wal_seq = max_seq.map_or(0, |seen| seen + 1);
    Ok(Recovered {
        bootstrap,
        tail,
        wal,
        next_wal_seq,
        tracker,
        next_checkpoint_id: checkpoint_id + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpg_plan::{Plan, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        use kpg_sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "kpg-durability-{tag}-{}-{unique}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(values: Vec<u64>) -> Row {
        Row::from(values.into_iter().map(Value::UInt).collect::<Vec<_>>())
    }

    #[test]
    fn tracker_folds_epochs_and_bootstraps() {
        let mut tracker = StateTracker::default();
        tracker.apply(
            &Command::CreateInput {
                name: "edges".into(),
                key_arity: Some(1),
            },
            0,
        );
        tracker.apply(
            &Command::Update {
                name: "edges".into(),
                row: row(vec![1, 2]),
                diff: 1,
            },
            1,
        );
        tracker.apply(
            &Command::Update {
                name: "edges".into(),
                row: row(vec![2, 3]),
                diff: 1,
            },
            2,
        );
        assert!(tracker.apply(&Command::AdvanceTime { epoch: 1 }, 3));
        // A retraction in the next epoch cancels (1,2) when folded.
        tracker.apply(
            &Command::Update {
                name: "edges".into(),
                row: row(vec![1, 2]),
                diff: -1,
            },
            4,
        );
        assert!(tracker.apply(&Command::AdvanceTime { epoch: 2 }, 5));
        assert_eq!(tracker.watermark(), Some(5));
        assert_eq!(tracker.epoch, 2);

        let bootstrap = tracker.bootstrap_commands();
        assert_eq!(bootstrap.len(), 3); // create, one surviving update, advance
        assert!(matches!(&bootstrap[0], Command::CreateInput { name, .. } if name == "edges"));
        assert!(
            matches!(&bootstrap[1], Command::Update { row: r, diff: 1, .. } if *r == row(vec![2, 3]))
        );
        assert!(matches!(&bootstrap[2], Command::AdvanceTime { epoch: 2 }));
    }

    #[test]
    fn tracker_uninstall_follows_namespace_shadowing() {
        let mut tracker = StateTracker::default();
        tracker.apply(
            &Command::CreateInput {
                name: "shared".into(),
                key_arity: None,
            },
            0,
        );
        // An uninstall with no same-named query removes the input.
        tracker.apply(
            &Command::Uninstall {
                name: "shared".into(),
            },
            1,
        );
        assert!(tracker.inputs.is_empty());
    }

    #[test]
    fn checkpoint_round_trips_through_manifest_and_run() {
        let dir = temp_dir("roundtrip");
        let mut tracker = StateTracker::default();
        tracker.apply(
            &Command::CreateInput {
                name: "edges".into(),
                key_arity: Some(1),
            },
            0,
        );
        for (source, target) in [(1u64, 2u64), (2, 3), (3, 1)] {
            tracker.apply(
                &Command::Update {
                    name: "edges".into(),
                    row: row(vec![source, target]),
                    diff: 1,
                },
                source,
            );
        }
        // Edge cases of the row codec: an unkeyed input, every value kind (a
        // negative `Int`, empty and non-ASCII strings), an empty row, and a net
        // negative diff.
        tracker.apply(
            &Command::CreateInput {
                name: "misc".into(),
                key_arity: None,
            },
            4,
        );
        let misc = [
            (Row::from(vec![Value::Int(-5), Value::UInt(u64::MAX)]), 1),
            (
                Row::from(vec![Value::String(String::new()), Value::from("näïve ✓")]),
                2,
            ),
            (Row::new(), 1),
            (row(vec![9]), -1),
        ];
        for (contents, diff) in misc {
            tracker.apply(
                &Command::Update {
                    name: "misc".into(),
                    row: contents,
                    diff,
                },
                5,
            );
        }
        assert!(tracker.apply(&Command::AdvanceTime { epoch: 1 }, 7));
        assert_eq!(tracker.sealed["misc"].len(), 4);

        let watermark = write_checkpoint(&dir, &tracker, 3).unwrap();
        assert_eq!(watermark, 7);

        let manifest = Manifest::load(&dir).unwrap().unwrap();
        let (recovered, checkpoint_id) = tracker_from_manifest(&dir, &manifest).unwrap();
        assert_eq!(checkpoint_id, 3);
        assert_eq!(recovered.epoch, 1);
        assert_eq!(recovered.watermark(), Some(7));
        assert_eq!(recovered.sealed, tracker.sealed);
        assert_eq!(recovered.inputs, tracker.inputs);
        assert_eq!(recovered.inputs["misc"], None);
        assert_eq!(recovered.bootstrap_commands(), tracker.bootstrap_commands());

        // A second checkpoint removes the superseded run file.
        assert!(dir.join(run_file_name(3)).exists());
        write_checkpoint(&dir, &tracker, 4).unwrap();
        assert!(!dir.join(run_file_name(3)).exists());
        assert!(dir.join(run_file_name(4)).exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoint data that frames correctly but decodes to the wrong command (or
    /// not at all) is corruption: recovery refuses it with `InvalidData`.
    #[test]
    fn recovery_rejects_mistyped_checkpoint_data() {
        let dir = temp_dir("mistyped");
        let update = Command::Update {
            name: "edges".into(),
            row: row(vec![1, 2]),
            diff: 1,
        }
        .encode();
        let install = Command::Install {
            name: "q".into(),
            plan: Plan::Source("edges".into()),
            locals: Vec::new(),
        }
        .encode();
        let run_record = |name: &str| {
            let mut payload = Vec::new();
            put_bytes(&mut payload, name.as_bytes());
            (TAG_RUN.to_string(), payload)
        };
        let manifest = |record: (String, Vec<u8>)| Manifest {
            epoch: 1,
            wal_watermark: 0,
            records: vec![record],
        };
        let mut cases = Vec::new();
        for (file, entry) in [
            ("advance.run", Command::AdvanceTime { epoch: 1 }.encode()),
            ("truncated.run", update[..update.len() - 1].to_vec()),
        ] {
            let mut writer = RunWriter::create(dir.join(file), DEFAULT_BLOCK_BYTES).unwrap();
            writer.push(&entry, true).unwrap();
            writer.finish().unwrap();
            cases.push(manifest(run_record(file)));
        }
        cases.push(manifest((TAG_INPUT.to_string(), install)));
        for manifest in &cases {
            let error = tracker_from_manifest(&dir, manifest).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_skips_records_at_or_below_the_watermark() {
        let dir = temp_dir("watermark");
        // Write a WAL with five commands, checkpoint covering the first three.
        let (mut wal, records) = Wal::open(&dir, 1 << 20).unwrap();
        assert!(records.is_empty());
        let mut tracker = StateTracker::default();
        let commands = [
            Command::CreateInput {
                name: "edges".into(),
                key_arity: None,
            },
            Command::Update {
                name: "edges".into(),
                row: row(vec![1, 2]),
                diff: 1,
            },
            Command::AdvanceTime { epoch: 1 },
            Command::Update {
                name: "edges".into(),
                row: row(vec![2, 3]),
                diff: 1,
            },
            Command::AdvanceTime { epoch: 2 },
        ];
        for (seq, command) in commands.iter().enumerate() {
            wal.append(seq as u64, command.encode()).unwrap();
            if seq < 3 {
                tracker.apply(command, seq as u64);
            }
        }
        wal.sync().unwrap();
        drop(wal);
        write_checkpoint(&dir, &tracker, 1).unwrap();

        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        // Tail holds only seqs 3 and 4; bootstrap rebuilds the first three.
        assert_eq!(
            recovered
                .tail
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(recovered.next_wal_seq, 5);
        assert_eq!(recovered.next_checkpoint_id, 2);
        assert_eq!(recovered.bootstrap.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint torn at any stage — the run-file write, the manifest temp-file
    /// write (torn or out of space), its fsync, or the final rename — returns an
    /// error and leaves the previous manifest in force; the identical retry then
    /// commits cleanly (the injector counters reset with each plan).
    #[cfg(feature = "faults")]
    #[test]
    fn torn_checkpoint_leaves_previous_manifest_in_force() {
        use kpg_store::io::faults::FaultPlan;
        let dir = temp_dir("torn-ckpt");
        let mut tracker = StateTracker::default();
        tracker.apply(
            &Command::CreateInput {
                name: "edges".into(),
                key_arity: None,
            },
            0,
        );
        tracker.apply(
            &Command::Update {
                name: "edges".into(),
                row: row(vec![1, 2]),
                diff: 1,
            },
            1,
        );
        assert!(tracker.apply(&Command::AdvanceTime { epoch: 1 }, 2));
        write_checkpoint(&dir, &tracker, 1).unwrap();
        let committed = Manifest::load(&dir).unwrap().unwrap();

        tracker.apply(
            &Command::Update {
                name: "edges".into(),
                row: row(vec![2, 3]),
                diff: 1,
            },
            3,
        );
        assert!(tracker.apply(&Command::AdvanceTime { epoch: 2 }, 4));
        for plan in [
            "write@1=short:5",  // the run file tears mid-write
            "write@1..=enospc", // the disk fills
            "fsync@1=eio",      // the run file cannot be made durable
            "rename@1=eio",     // the manifest commit point itself fails
        ] {
            let guard = FaultPlan::parse(plan).unwrap().scoped(&dir).install();
            assert!(
                write_checkpoint(&dir, &tracker, 2).is_err(),
                "{plan}: the checkpoint must fail"
            );
            drop(guard);
            assert_eq!(
                Manifest::load(&dir).unwrap().unwrap(),
                committed,
                "{plan}: the previous manifest must stay in force"
            );
            let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
            assert_eq!(
                recovered.tracker.watermark(),
                Some(2),
                "{plan}: recovery must see the old checkpoint"
            );
        }
        // The identical retry, with the disk healthy again, commits.
        write_checkpoint(&dir, &tracker, 2).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().unwrap().epoch, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
