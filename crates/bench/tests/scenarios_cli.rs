//! The `scenarios` CLI rejects malformed command lines: an unknown
//! scenario name or backend, an unknown flag (misspelt or retired), a
//! value after a switch and a stray positional argument each exit non-zero
//! and name the argument on stderr, instead of running a default.

use std::process::{Command, Output};

fn scenarios(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios")).args(args).output().expect("spawn scenarios")
}

#[test]
fn malformed_command_lines_fail_naming_the_argument() {
    for (args, named) in [
        (&["--show", "--scenario", "nope"][..], "`nope`"),
        (&["--scenario", "flash_crowd", "--quick", "--slot-build", "cold"][..], "`--slot-build`"),
        (&["--scenario", "flash_crowd", "--quick", "--sedd", "3"][..], "`--sedd`"),
        (&["--scenario", "flash_crowd", "--quick", "--backend", "process"][..], "`process`"),
        (
            &["--scenario", "flash_crowd", "--quick", "--schedulers", "auction,auction_flat_warm"]
                [..],
            "`auction_flat_warm`",
        ),
        (&["--quick", "--scenario", "seed_starvation", "flash_crowd"][..], "`flash_crowd`"),
        // A switch takes no value: the value is refused, not dropped.
        (&["--list", "5"][..], "`--list`"),
        (&["--scenario", "flash_crowd", "--quick", "7"][..], "`--quick`"),
    ] {
        let out = scenarios(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(stderr.contains(named), "{args:?}: stderr does not name {named}:\n{stderr}");
    }
}

#[test]
fn list_succeeds() {
    let out = scenarios(&["--list"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("paper_flash_crowd"));
    assert!(stdout.contains("auction_flat"), "--list must print the scheduler names");
    assert!(!stdout.contains("_warm"), "--list prints a `_warm` scheduler:\n{stdout}");
}
