//! The peer process: dials the tracker with retry/backoff and serves its
//! partition of bidders until the tracker shuts the swarm down.
//!
//! Flags (each takes a value): `--tracker`, `--io-timeout-ms`,
//! `--attempts`, `--backoff-ms` and `--fail-after-polls`. An unknown,
//! repeated or value-less flag is an error naming it.
//!
//! stdout protocol (consumed by the multi-process harness): nothing on
//! success (exit 0), `PEER_ERR <token> <message>` with a nonzero exit code
//! on failure.

use p2p_net::harness::error_token;
use p2p_net::{Peer, PeerConfig};
use p2p_types::{Args, P2pError, Result};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// The peer's flags, each taking a value; it has no switches.
const FLAGS: [&str; 5] = ["tracker", "io-timeout-ms", "attempts", "backoff-ms", "fail-after-polls"];

fn run(args: &Args) -> Result<()> {
    let tracker = args
        .get_opt_str("tracker")
        .ok_or_else(|| P2pError::invalid_config("flag", "missing --tracker"))?;
    let attempts = args.get_u64("attempts", 10)?;
    let config = PeerConfig {
        io_timeout: Duration::from_millis(args.get_u64("io-timeout-ms", 5_000)?),
        connect_attempts: u32::try_from(attempts).map_err(|_| {
            P2pError::invalid_config("flag", format!("`--attempts {attempts}` exceeds a u32"))
        })?,
        connect_backoff: Duration::from_millis(args.get_u64("backoff-ms", 50)?),
        fail_after_polls: args
            .has("fail-after-polls")
            .then(|| args.get_u64("fail-after-polls", 0))
            .transpose()?,
    };
    Peer::connect(&tracker, std::process::id() as u64, config)?.run()
}

fn main() -> ExitCode {
    match Args::from_env(&FLAGS, &[]).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("PEER_ERR {} {e}", error_token(&e));
            std::io::stdout().flush().ok();
            ExitCode::FAILURE
        }
    }
}
