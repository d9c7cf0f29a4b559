//! End-to-end determinism of the sim backend at the scenario layer: the
//! whole pipeline — spec → scheduler registry → streaming system on the
//! virtual clock → `RunReport` JSON — must be a pure function of the
//! scenario seed, across repeated runs *and* across `P2P_CORES` pins.
//! This binary mutates `P2P_CORES`, so it owns its own process-wide lock
//! (the `cores_pin.rs` pattern: each integration-test binary is its own
//! process).

use isp_p2p::scenario::{builtin, run_scenario_probed, scheduler_for};
use std::sync::Mutex;

/// Serializes every env-mutating test in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `P2P_CORES` set to `value` (or unset for `None`),
/// restoring the previous state afterwards.
fn with_pin<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("P2P_CORES").ok();
    match value {
        Some(v) => std::env::set_var("P2P_CORES", v),
        None => std::env::remove_var("P2P_CORES"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("P2P_CORES", v),
        None => std::env::remove_var("P2P_CORES"),
    }
    out
}

/// One probed flash-crowd run on the given sim scheduler: returns the
/// summary table plus the structured `RunReport` JSON — every byte the
/// scenario pipeline emits about the run.
fn probed_run(net: &str, scheduler: &str) -> (String, String) {
    let scenario = builtin("flash_crowd").unwrap().quick(6).with_net(net);
    let report =
        run_scenario_probed(&scenario, vec![scheduler_for(&scenario, scheduler).unwrap()], true)
            .unwrap();
    (report.summary_table(), report.runs[0].report.as_ref().unwrap().to_json())
}

/// Virtual-clock sim runs emit byte-identical summaries and `RunReport`
/// JSON on every repetition — including under fault injection, where the
/// schedule depends on the seeded `NetworkModel` draw, not on wall time.
#[test]
fn sim_reports_replay_byte_identically() {
    for net in ["ideal", "lossy"] {
        let (sum_a, json_a) = probed_run(net, "auction_sim");
        let (sum_b, json_b) = probed_run(net, "auction_sim");
        assert_eq!(sum_a, sum_b, "summary table diverged on net={net}");
        assert_eq!(json_a, json_b, "RunReport JSON diverged on net={net}");
    }
}

/// `P2P_CORES` pins change worker fan-out elsewhere in the workspace but
/// can never reach the single-threaded simulator: pinned and free runs of
/// the same scenario produce the same bytes.
#[test]
fn sim_reports_are_invariant_under_cores_pins() {
    let baseline = with_pin(None, || probed_run("lossy", "auction_sim"));
    for pin in ["1", "16"] {
        let pinned = with_pin(Some(pin), || probed_run("lossy", "auction_sim"));
        assert_eq!(pinned.0, baseline.0, "P2P_CORES={pin} changed the summary table");
        assert_eq!(pinned.1, baseline.1, "P2P_CORES={pin} changed the RunReport JSON");
    }
}
