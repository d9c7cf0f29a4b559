//! Loopback multi-process harness: spawns the `tracker` and `peer`
//! binaries as real OS processes on 127.0.0.1, runs one auction slot, and
//! returns the decoded [`AuctionOutcome`] — or the typed error the failing
//! process reported on its stdout (`TRACKER_ERR` / `PEER_ERR` token
//! lines), so failure-path tests can assert error classes across the
//! process boundary.

use crate::proto::{decode_outcome, encode_instance};
use p2p_core::{AuctionOutcome, WelfareInstance};
use p2p_types::{P2pError, Result};
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a multi-process loopback run.
#[derive(Debug, Clone)]
pub struct MultiProcessConfig {
    /// Number of peer processes to spawn.
    pub peers: usize,
    /// Bid increment ε handed to the tracker.
    pub epsilon: f64,
    /// Per-connection read deadline for every process.
    pub io_timeout: Duration,
    /// Wall-clock budget for the whole run (handshake + slot + shutdown);
    /// expiry kills the processes and returns [`P2pError::Timeout`].
    pub deadline: Duration,
    /// Fault injection: make peer process `index` drop its connection
    /// after serving `polls` polls.
    pub fail_peer_after_polls: Option<(usize, u64)>,
}

impl Default for MultiProcessConfig {
    fn default() -> Self {
        MultiProcessConfig {
            peers: 3,
            epsilon: 0.0,
            io_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(60),
            fail_peer_after_polls: None,
        }
    }
}

/// Directory holding the compiled `tracker` and `peer` binaries:
/// `P2P_NET_BIN_DIR` when set, otherwise the directory of the current
/// executable (minus a trailing `deps`, so it works from `cargo test`
/// binaries too).
pub fn bin_dir() -> Result<PathBuf> {
    if let Ok(dir) = std::env::var("P2P_NET_BIN_DIR") {
        return Ok(PathBuf::from(dir));
    }
    let exe = std::env::current_exe().map_err(|e| {
        P2pError::invalid_config("P2P_NET_BIN_DIR", format!("cannot locate current exe: {e}"))
    })?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| P2pError::invalid_config("P2P_NET_BIN_DIR", "exe has no parent directory"))?
        .to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    Ok(dir)
}

/// Full path of a networked-runtime binary (`tracker` or `peer`).
pub fn bin_path(name: &str) -> Result<PathBuf> {
    let path = bin_dir()?.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if !path.is_file() {
        return Err(P2pError::invalid_config(
            "P2P_NET_BIN_DIR",
            format!("binary not found at {} (build p2p-net's bins first)", path.display()),
        ));
    }
    Ok(path)
}

/// A unique scratch path under the OS temp directory.
pub fn temp_path(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("p2p_net_{}_{}_{}", std::process::id(), seq, label))
}

/// Kills and reaps every child still running when dropped, so a failing
/// assertion never leaks processes.
struct ReapGuard {
    children: Vec<Child>,
    files: Vec<PathBuf>,
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// Runs one auction slot across a tracker process and `peers` peer
/// processes on 127.0.0.1, returning the tracker's outcome. Every failure
/// mode — a crashed peer, an unresponsive tracker, the deadline expiring —
/// comes back as a typed error, never a hang.
pub fn run_multiprocess(
    instance: &WelfareInstance,
    config: &MultiProcessConfig,
) -> Result<AuctionOutcome> {
    let tracker_bin = bin_path("tracker")?;
    let peer_bin = bin_path("peer")?;
    let instance_path = temp_path("instance.bin");
    let out_path = temp_path("outcome.bin");
    std::fs::write(&instance_path, encode_instance(instance)).map_err(|e| {
        P2pError::invalid_config("instance_path", format!("cannot write the instance file: {e}"))
    })?;
    let mut guard =
        ReapGuard { children: Vec::new(), files: vec![instance_path.clone(), out_path.clone()] };
    let started = Instant::now();
    let deadline = started + config.deadline;
    let io_ms = config.io_timeout.as_millis().to_string();

    let mut tracker = Command::new(&tracker_bin)
        .args(["--listen", "127.0.0.1:0"])
        .args(["--peers", &config.peers.to_string()])
        .args(["--instance", &instance_path.display().to_string()])
        .args(["--out", &out_path.display().to_string()])
        .args(["--epsilon", &config.epsilon.to_string()])
        .args(["--io-timeout-ms", &io_ms])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| P2pError::Disconnected { context: format!("spawning the tracker: {e}") })?;
    let mut tracker_stdout = BufReader::new(tracker.stdout.take().expect("stdout was piped"));
    guard.children.push(tracker);

    let mut line = String::new();
    tracker_stdout
        .read_line(&mut line)
        .map_err(|e| P2pError::Disconnected { context: format!("reading tracker stdout: {e}") })?;
    let addr = match line.trim().strip_prefix("LISTENING ") {
        Some(addr) => addr.to_string(),
        None => return Err(parse_process_error("TRACKER_ERR", line.trim())),
    };

    for i in 0..config.peers {
        let mut cmd = Command::new(&peer_bin);
        cmd.args(["--tracker", &addr]).args(["--io-timeout-ms", &io_ms]);
        if let Some((index, polls)) = config.fail_peer_after_polls {
            if index == i {
                cmd.args(["--fail-after-polls", &polls.to_string()]);
            }
        }
        let peer =
            cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn().map_err(|e| {
                P2pError::Disconnected { context: format!("spawning peer {i}: {e}") }
            })?;
        guard.children.push(peer);
    }

    // The tracker exits first (it writes the outcome, shuts the swarm
    // down, then quits); peers follow on the shutdown message.
    let tracker_status = wait_deadline(&mut guard.children[0], deadline)?;
    if !tracker_status.success() {
        let mut rest = String::new();
        let _ = tracker_stdout.read_to_string(&mut rest);
        let last = rest.lines().last().unwrap_or("").trim().to_string();
        return Err(parse_process_error("TRACKER_ERR", &last));
    }
    for i in 0..config.peers {
        let child = &mut guard.children[i + 1];
        let status = wait_deadline(child, deadline)?;
        if !status.success() {
            let mut out = String::new();
            if let Some(mut stdout) = child.stdout.take() {
                let _ = stdout.read_to_string(&mut out);
            }
            let last = out.lines().last().unwrap_or("").trim().to_string();
            return Err(parse_process_error("PEER_ERR", &last));
        }
    }

    let bytes = std::fs::read(&out_path).map_err(|e| {
        P2pError::invalid_config("out_path", format!("cannot read the outcome file: {e}"))
    })?;
    decode_outcome(&bytes, instance)
}

fn wait_deadline(child: &mut Child, deadline: Instant) -> Result<std::process::ExitStatus> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) => {
                if Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(P2pError::Timeout { elapsed: deadline.elapsed(), messages: 0 });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                return Err(P2pError::Disconnected {
                    context: format!("waiting on a child process: {e}"),
                })
            }
        }
    }
}

/// Maps a typed error to the stable token its process prints on stdout.
pub fn error_token(e: &P2pError) -> &'static str {
    match e {
        P2pError::Timeout { .. } => "timeout",
        P2pError::Disconnected { .. } => "disconnected",
        P2pError::ConnectFailed { .. } => "connect_failed",
        P2pError::AuctionDiverged { .. } => "diverged",
        P2pError::WireTruncated { .. }
        | P2pError::WireVersion { .. }
        | P2pError::WireMalformed { .. } => "wire",
        P2pError::WorkerPanicked { .. } => "panic",
        P2pError::InvalidConfig { .. } => "invalid_config",
        _ => "error",
    }
}

/// Reconstructs a typed error from a `TRACKER_ERR`/`PEER_ERR` stdout line.
/// Payload fields that do not survive the process boundary (durations,
/// counters) come back zeroed; the error *class* and display text do.
pub fn error_from_token(token: &str, message: &str) -> P2pError {
    match token {
        "timeout" => P2pError::Timeout { elapsed: Duration::ZERO, messages: 0 },
        "disconnected" => P2pError::Disconnected { context: message.to_string() },
        "connect_failed" => P2pError::ConnectFailed {
            addr: String::new(),
            attempts: 0,
            last_error: message.to_string(),
        },
        "diverged" => P2pError::AuctionDiverged { iterations: 0 },
        "wire" => P2pError::WireMalformed { reason: message.to_string() },
        "panic" => P2pError::WorkerPanicked { message: message.to_string() },
        // The refused field's name is inside the message; the error's
        // static field names the process boundary it crossed.
        "invalid_config" => {
            P2pError::InvalidConfig { field: "process", reason: message.to_string() }
        }
        _ => P2pError::WireMalformed { reason: format!("{token}: {message}") },
    }
}

fn parse_process_error(prefix: &str, line: &str) -> P2pError {
    if let Some(rest) = line.strip_prefix(prefix) {
        let rest = rest.trim_start();
        let (token, msg) = rest.split_once(' ').unwrap_or((rest, ""));
        return error_from_token(token, msg);
    }
    P2pError::Disconnected {
        context: format!("process exited without a structured error (last line: {line:?})"),
    }
}
