//! The tracker process: binds a loopback socket, hands out swarm
//! membership to `--peers` peer processes, runs one auction slot over the
//! wire, writes the outcome file and shuts the swarm down.
//!
//! Flags (each takes a value): `--listen`, `--peers`, `--instance`,
//! `--out`, `--epsilon`, `--max-rounds`, `--io-timeout-ms`,
//! `--handshake-timeout-ms` and `--heartbeat-ms`. An unknown, repeated or
//! value-less flag is an error naming it.
//!
//! stdout protocol (consumed by the multi-process harness):
//!   `LISTENING <addr>` once bound, then on success `OK`, or on failure
//!   `TRACKER_ERR <token> <message>` with a nonzero exit code.

use p2p_core::NoProbe;
use p2p_net::harness::error_token;
use p2p_net::proto::{decode_instance, encode_outcome};
use p2p_net::{NetConfig, Tracker};
use p2p_types::{Args, P2pError, Result};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// The tracker's flags, each taking a value; it has no switches.
const FLAGS: [&str; 9] = [
    "listen",
    "peers",
    "instance",
    "out",
    "epsilon",
    "max-rounds",
    "io-timeout-ms",
    "handshake-timeout-ms",
    "heartbeat-ms",
];

fn run(args: &Args) -> Result<()> {
    let listen = args.get_str("listen", "127.0.0.1:0");
    let peers = args.get_usize("peers", 0)?;
    let instance_path = args
        .get_opt_str("instance")
        .ok_or_else(|| P2pError::invalid_config("flag", "missing --instance"))?;
    let out_path = args.get_opt_str("out");
    let config = NetConfig {
        epsilon: args.get_f64("epsilon", 0.0)?,
        max_rounds: args.get_u64("max-rounds", 1_000_000)?,
        io_timeout: Duration::from_millis(args.get_u64("io-timeout-ms", 5_000)?),
        handshake_timeout: Duration::from_millis(args.get_u64("handshake-timeout-ms", 10_000)?),
        heartbeat_every: Duration::from_millis(args.get_u64("heartbeat-ms", 1_000)?),
        ..NetConfig::default()
    };
    let bytes = std::fs::read(&instance_path).map_err(|e| {
        P2pError::invalid_config("--instance", format!("cannot read {instance_path}: {e}"))
    })?;
    let instance = decode_instance(&bytes)?;

    let mut tracker = Tracker::bind(listen.as_str(), peers, config)?;
    println!("LISTENING {}", tracker.local_addr());
    std::io::stdout().flush().ok();

    let outcome = tracker.run(&instance, &mut NoProbe)?;
    tracker.shutdown();
    if let Some(path) = out_path {
        std::fs::write(&path, encode_outcome(&outcome))
            .map_err(|e| P2pError::invalid_config("--out", format!("cannot write {path}: {e}")))?;
    }
    println!("OK");
    Ok(())
}

fn main() -> ExitCode {
    match Args::from_env(&FLAGS, &[]).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("TRACKER_ERR {} {e}", error_token(&e));
            std::io::stdout().flush().ok();
            ExitCode::FAILURE
        }
    }
}
