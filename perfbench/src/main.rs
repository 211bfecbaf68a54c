//! The repository benchmark: drives a `kpg_server` child process over loopback.
//!
//! ```console
//! $ bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run has three phases, `interactive`, `ingest` and `fixpoint`; the phase named
//! by `--workload` is heavy (half the measured time, set up several times) and the other
//! two are light, so every end-to-end metric is measured on every workload. With `--trace 0` the last
//! line of standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` the run instead makes the three traced passes of `traced.rs` and reports
//! the per-layer metrics. The process exits non-zero when any answer differs from the
//! reference, the sharing check fails, or the update stream ran too late to be open
//! loop.

mod fixpoint;
mod gen;
mod ingest;
mod interactive;
mod plans;
mod procfs;
mod reference;
mod server;
mod spans;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::time::Duration;

use gen::Rng;
use plans::Tally;
use stats::{median, Samples};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Ingest,
    Fixpoint,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|arg| arg == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "interactive" => Workload::Interactive,
        "ingest" => Workload::Ingest,
        "fixpoint" => Workload::Fixpoint,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|error| format!("{flag}: {error}"))
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|error| format!("--seed: {error}"))?,
        seconds: number("--seconds")?.max(1.0),
        trace: number("--trace")? != 0.0,
        server_bin: PathBuf::from(value("--server-bin")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

/// The share of measured time given to the named workload's phase; the other two
/// phases share the rest.
const HEAVY_SHARE: f64 = 0.5;
/// Set-ups of the heavy phase; `setup_s` is their median.
const HEAVY_SETUPS: usize = 5;
/// The measured time is cut into rounds of about this many seconds, each giving every
/// phase one slice, so that every metric samples the whole run rather than one stretch
/// of it (a shared machine's speed drifts over seconds).
const ROUND_SECONDS: f64 = 5.0;
/// The stream thread must send 99% of its updates within this long of their due time,
/// or the run is invalid: the generator, not the server, would be setting the pace.
const LATENESS_LIMIT_MS: f64 = 10.0;
/// Tails are this percentile: the highest with at least ten samples beyond it in the
/// light phases of a run of 20 seconds or more. It is fixed rather than chosen per run,
/// so that a run with a few more samples than another reports the same statistic.
const TAIL_PERCENTILE: f64 = 90.0;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end(args: &Args, tally: &Tally) -> (Vec<Metric>, bool) {
    let mut rng = Rng::new(args.seed);
    let mut phases = [rng.fork(), rng.fork(), rng.fork()];
    let [interactive_rng, ingest_rng, fixpoint_rng] = &mut phases;
    let bin = &args.server_bin;
    let setups = |phase: Workload| {
        if phase == args.workload {
            HEAVY_SETUPS
        } else {
            1
        }
    };
    let mut interactive =
        interactive::Live::start(bin, setups(Workload::Interactive), interactive_rng, tally);
    let mut ingest = ingest::Live::start(
        bin,
        &args.work_dir,
        setups(Workload::Ingest),
        ingest_rng,
        tally,
    );
    let mut fixpoint = fixpoint::Live::start(bin, setups(Workload::Fixpoint), fixpoint_rng, tally);
    let rounds = (args.seconds / ROUND_SECONDS).round().max(1.0);
    let slice = |phase: Workload| {
        let share = if phase == args.workload {
            HEAVY_SHARE
        } else {
            (1.0 - HEAVY_SHARE) / 2.0
        };
        Duration::from_secs_f64(args.seconds / rounds * share)
    };
    for _ in 0..rounds as usize {
        interactive.slice(slice(Workload::Interactive), tally);
        ingest.slice(slice(Workload::Ingest), tally);
        fixpoint.slice(slice(Workload::Fixpoint), tally);
    }
    let interactive = interactive.finish();
    let ingest = ingest.finish();
    let fixpoint = fixpoint.finish();

    let (setup_s, rss, cpu) = match args.workload {
        Workload::Interactive => (
            &interactive.setup_s,
            interactive.peak_rss_mb,
            interactive.cpu_us_per_op,
        ),
        Workload::Ingest => (&ingest.setup_s, ingest.peak_rss_mb, ingest.cpu_us_per_op),
        Workload::Fixpoint => (
            &fixpoint.setup_s,
            fixpoint.peak_rss_mb,
            fixpoint.cpu_us_per_op,
        ),
    };
    let nan = f64::NAN;
    let p50 = |samples: &Samples| samples.median().unwrap_or(nan);
    let tail = |samples: &Samples, name: &str| {
        println!("# {name}: p{TAIL_PERCENTILE} of {} samples", samples.len());
        samples.tail(TAIL_PERCENTILE).unwrap_or(nan)
    };
    for (class, samples) in plans::CLASSES.iter().zip(&interactive.first_ms) {
        println!(
            "# {}_first_ms: p50 of {} sessions",
            class.label(),
            samples.len()
        );
    }
    let lateness_p99 = interactive.lateness_ms.quantile(0.99).unwrap_or(nan);
    println!(
        "# stream lateness p99 {lateness_p99:.3} ms over {} updates (limit {LATENESS_LIMIT_MS} ms); \
         {} quiescent checkpoints",
        interactive.lateness_ms.len(),
        interactive.checkpoints
    );
    let metrics = vec![
        metric("setup_s", median(setup_s).unwrap_or(nan), "s"),
        metric("server_peak_rss_mb", rss, "MB"),
        metric("server_cpu_us_per_op", cpu, "us"),
        metric("lookup_first_ms", p50(&interactive.first_ms[0]), "ms"),
        metric("hop2_first_ms", p50(&interactive.first_ms[1]), "ms"),
        metric("path4_first_ms", p50(&interactive.first_ms[2]), "ms"),
        metric("freshness_p50_ms", p50(&interactive.freshness_ms), "ms"),
        metric(
            "freshness_tail_ms",
            tail(&interactive.freshness_ms, "freshness_tail_ms"),
            "ms",
        ),
        metric("ingest_updates_per_s", ingest.updates_per_s, "1/s"),
        metric("epoch_ack_p50_ms", p50(&ingest.epoch_ack_ms), "ms"),
        metric(
            "epoch_ack_tail_ms",
            tail(&ingest.epoch_ack_ms, "epoch_ack_tail_ms"),
            "ms",
        ),
        metric("fixpoint_s", p50(&fixpoint.fixpoint_ms[0]) / 1e3, "s"),
        metric("fixpoint_1w_s", p50(&fixpoint.fixpoint_ms[1]) / 1e3, "s"),
        metric("fixpoint_update_ms", p50(&fixpoint.update_ms[0]), "ms"),
        metric("fixpoint_update_1w_ms", p50(&fixpoint.update_ms[1]), "ms"),
    ];
    let valid = lateness_p99 <= LATENESS_LIMIT_MS;
    if !valid {
        println!("# INVALID: the update stream ran later than the open-loop limit");
    }
    (metrics, valid)
}

fn run(args: &Args) -> bool {
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
    let tally = Tally::default();
    let (metrics, valid) = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            &args.server_bin,
            &args.work_dir,
            &tally,
        )
    } else {
        end_to_end(args, &tally)
    };
    let (attempted, failed) = (tally.attempted(), tally.failed());
    println!(
        "# failed_ops_ratio {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = valid && finite && failed == 0 && attempted > 0;
    let mut body = Vec::new();
    for m in &metrics {
        println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload interactive|ingest|fixpoint --seed N \
                 --seconds S --trace 0|1 --server-bin PATH --work-dir DIR"
            );
            std::process::exit(2);
        }
    };
    if !Path::new(&args.server_bin).is_file() {
        eprintln!(
            "perfbench: no server binary at {}",
            args.server_bin.display()
        );
        std::process::exit(2);
    }
    if !run(&args) {
        std::process::exit(1);
    }
}
