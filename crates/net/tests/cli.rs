//! The `tracker` and `peer` binaries reject malformed command lines: an
//! unknown flag (misspelt, or one the tracker lacks, such as `--retire`),
//! a repeated flag and a flag without its value each exit non-zero with a
//! `TRACKER_ERR`/`PEER_ERR` line naming the argument, before the tracker
//! binds or the peer dials.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

/// The binary's last stdout line, after checking that it exited non-zero.
fn error_line(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!out.status.success(), "{args:?} exited 0:\n{stdout}");
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn tracker_refuses_malformed_command_lines_naming_the_argument() {
    let tracker = env!("CARGO_BIN_EXE_tracker");
    for (args, named) in [
        (&["--peers", "1", "--instance", "x", "--retire"][..], "`--retire`"),
        (&["--peers", "1", "--instance", "x", "--no-batch"][..], "`--no-batch`"),
        (&["--peers", "1", "--instance", "x", "--epsilno", "0.5"][..], "`--epsilno`"),
        (&["--bogus", "1"][..], "`--bogus`"),
        (&["--peers", "1", "--peers", "2", "--instance", "x"][..], "`--peers` given twice"),
        (&["--instance", "x", "--peers"][..], "`--peers` needs a value"),
    ] {
        let line = error_line(tracker, args);
        assert!(line.starts_with("TRACKER_ERR invalid_config "), "{args:?}: {line}");
        assert!(line.contains(named), "{args:?}: {line} does not name {named}");
    }
}

#[test]
fn peer_refuses_malformed_command_lines_naming_the_argument() {
    let peer = env!("CARGO_BIN_EXE_peer");
    // Nothing listens on the discard port; a peer that dialled anyway
    // would report `connect_failed` instead.
    for (args, named) in [
        (&["--tracker", "127.0.0.1:9", "--attempts", "1", "--bogus"][..], "`--bogus`"),
        (&["--tracker", "127.0.0.1:9", "--atempts", "1"][..], "`--atempts`"),
        (&["--attempts", "1", "--tracker"][..], "`--tracker` needs a value"),
    ] {
        let line = error_line(peer, args);
        assert!(line.starts_with("PEER_ERR invalid_config "), "{args:?}: {line}");
        assert!(line.contains(named), "{args:?}: {line} does not name {named}");
    }
}
