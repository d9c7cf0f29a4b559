//! The `scenarios` CLI rejects malformed command lines: an unknown
//! scenario name, an unknown flag (misspelt or retired) and a stray
//! positional argument each exit non-zero and name the argument on
//! stderr, instead of running a default.

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
        (&["--quick", "--scenario", "seed_starvation", "flash_crowd"][..], "`flash_crowd`"),
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
    assert!(String::from_utf8_lossy(&out.stdout).contains("paper_flash_crowd"));
}
