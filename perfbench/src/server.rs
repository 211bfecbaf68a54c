//! The server under test: a `kpg_server` child process on a loopback port.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use kpg_server::{Client, ClientError};
use kpg_wire::Response;

use crate::procfs;

/// How long any one request may take before the run is abandoned.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns `kpg_server` on an ephemeral loopback port and waits until it listens.
    pub fn spawn(bin: &Path, workers: usize, durable_dir: Option<&Path>) -> ServerProcess {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = durable_dir {
            command.arg("--durable-dir").arg(dir);
        }
        let mut child = command
            .spawn()
            .unwrap_or_else(|error| panic!("spawn {}: {error}", bin.display()));
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the server's banner");
        // "kpg_server listening on 127.0.0.1:PORT (...)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|addr| addr.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("unexpected server banner {line:?}");
        };
        ServerProcess { child, addr }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr)
            .and_then(|client| client.with_request_timeout(Some(REQUEST_TIMEOUT)))
            .expect("connect to the server")
    }

    pub fn sample(&self) -> procfs::Sample {
        procfs::sample(self.child.id()).expect("read the server's /proc entries")
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A fresh, empty directory for one durable server under the run's work directory.
pub fn fresh_dir(work_dir: &Path, name: &str) -> PathBuf {
    let dir = work_dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a working directory");
    dir
}

/// True if the response acknowledges the command.
pub fn is_ok(response: &Result<Response, ClientError>) -> bool {
    matches!(response, Ok(Response::Ok))
}

/// The rows of a query answer, or `None` for any other response.
pub fn rows(response: Result<Response, ClientError>) -> Option<Vec<(kpg_plan::Row, isize)>> {
    match response {
        Ok(Response::QueryResults { rows, diffs }) => Some(
            rows.into_iter()
                .zip(diffs)
                .map(|(row, diff)| (row, diff as isize))
                .collect(),
        ),
        _ => None,
    }
}

/// Sends `commands` keeping at most `kpg_server::PIPELINE_DEPTH` unanswered, and
/// receives every response. Returns how many were sent.
pub fn pipeline(
    client: &mut Client,
    commands: impl IntoIterator<Item = kpg_plan::Command>,
    tally: &crate::plans::Tally,
) -> u64 {
    let mut in_flight = 0;
    let mut sent = 0;
    for command in commands {
        if in_flight == kpg_server::PIPELINE_DEPTH {
            tally.record(is_ok(&client.receive()));
            in_flight -= 1;
        }
        client.send(&command).expect("send a pipelined command");
        in_flight += 1;
        sent += 1;
    }
    for _ in 0..in_flight {
        tally.record(is_ok(&client.receive()));
    }
    sent
}
