//! EXP-V — the virtual-time swarm simulator at flash-crowd scale.
//!
//! Runs the DES swarm backend ([`p2p_core::SwarmAuction`]: one logical
//! actor per peer on the event queue, message behavior from a seeded
//! [`NetworkModel`]) on flash-crowd-shaped slot instances from 10³ up to
//! 10⁵ requests, and answers three questions with hard failures:
//!
//! * **Is it the same auction?** Under the ideal (zero-fault) network
//!   every swarm outcome must be *bit-identical* — assignment, duals,
//!   rounds, bids — to the in-process flat CSR engine at one shard.
//! * **Is it still correct under faults?** Lossy rows run with seeded
//!   drop/delay/reorder/duplicate faults; every outcome must pass
//!   conservation and the Theorem 1 `n·ε` optimality certificate.
//! * **Is it fast enough to be useful?** The full run hard-fails unless
//!   the 10⁵-peer ideal scenario completes within the wall-clock budget
//!   (10 s) *and* holds the pre-coalescing events/s floor, and unless the
//!   10⁶-peer flash-crowd row lands inside its own 60 s budget —
//!   "million-peer scenarios in under a minute" is a gate, not a hope.
//! * **Does coalescing move anything?** Every lossy row runs twice —
//!   event coalescing on (the default) and off — and hard-fails unless
//!   the two outcomes are byte-identical: same `trace_hash`, same fault
//!   counters, same assignment/duals/bids/virtual time.
//!
//! Each row prints as soon as it is measured. A correctness gate stops the
//! run at once; timing-gate misses are collected and reported together
//! after the last size. Results land in `BENCH_sim.json` (events/sec
//! throughput, wall and virtual time, coalesced-event and peak-queue
//! counters per row), written only when every gate passed. Usage:
//!   `sim_bench [--quick] [--out PATH]`
//!
//! `--quick` shrinks sizes for CI smoke runs (the equivalence,
//! certificate and coalescing-divergence gates still apply; only the
//! wall/throughput gates are skipped).

use p2p_bench::Args;
use p2p_core::csr::{CsrInstance, FlatAuction};
use p2p_core::{
    verify_optimality, AuctionConfig, NetworkModel, ShardCount, SwarmAuction, SwarmConfig,
    SwarmOutcome, WelfareInstance,
};
use p2p_types::Result;
use std::process::ExitCode;
use std::time::Instant;

/// The ε every engine runs with (matches `flat_bench`): large instances
/// carry structural near-ties, and the faulty rows rely on ε > 0 to bound
/// rebids from stale prices.
const EPSILON: f64 = 0.01;

/// Wall-clock budget for the 10⁵-peer ideal row (release build).
const WALL_BUDGET_S: f64 = 10.0;

/// The request count the wall-clock gate applies to.
const GATE_REQUESTS: usize = 100_000;

/// Events/s floor for the 10⁵-peer ideal row: the throughput that row
/// recorded *before* the arena-mailbox/coalescing work landed. The
/// optimization must never cost throughput at the gated size.
const BASELINE_EVENTS_PER_SEC: f64 = 3_259_818.0;

/// The flash-crowd scale the 60 s budget applies to.
const FLASH_REQUESTS: usize = 1_000_000;

/// Wall-clock budget for the 10⁶-peer flash-crowd row (release build).
const FLASH_BUDGET_S: f64 = 60.0;

/// A flash-crowd-shaped slot at swarm scale: one provider per ~20
/// requesters (10⁵ requests ⇒ 5·10³ providers) and 4–8 candidate edges
/// per request — the sparse neighborhoods a real tracker hands out, not
/// the dense edge soup of the engine benches.
fn swarm_instance(seed: u64, requests: usize) -> WelfareInstance {
    let providers = (requests / 20).max(4);
    p2p_bench::instances::random_instance(seed, providers, requests, 8, 8)
}

fn certify(instance: &WelfareInstance, out: &SwarmOutcome, mode: &str) -> Result<()> {
    out.assignment.validate(instance)?;
    let tol = EPSILON * (instance.request_count() as f64 + 1.0);
    let report = verify_optimality(instance, &out.assignment, &out.duals, tol);
    if !report.is_optimal() {
        return Err(p2p_types::P2pError::MalformedInstance(format!(
            "the {mode} swarm lost the optimality certificate on the \
             {}-request instance: {:?}",
            instance.request_count(),
            report.violations
        )));
    }
    Ok(())
}

struct Row {
    requests: usize,
    providers: usize,
    mode: &'static str,
    wall_ns: u128,
    virtual_s: f64,
    events: u64,
    messages: u64,
    rounds: u64,
    bids: u64,
    welfare: f64,
    dropped: u64,
    coalesced: u64,
    peak_queue: u64,
    bit_identical: Option<bool>,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Prints the row as a table line, as soon as it is measured.
    fn print(&self) {
        println!(
            "{:<10} {:<13} {:>10}µs {:>9.3}s {:>12} {:>12.0} {:>10} {:>10} {:>10} {:>10}",
            self.requests,
            self.mode,
            self.wall_ns / 1_000,
            self.virtual_s,
            self.events,
            self.events_per_sec(),
            self.coalesced,
            self.peak_queue,
            self.rounds,
            self.bit_identical.map_or("-".to_string(), |b| b.to_string()),
        );
    }
}

/// The timing gates a full run holds an ideal row to: one message per
/// miss, for the report after the last size.
fn timing_misses(row: &Row) -> Vec<String> {
    let wall_s = row.wall_ns as f64 / 1e9;
    let mut misses = Vec::new();
    if row.requests == GATE_REQUESTS && wall_s > WALL_BUDGET_S {
        misses.push(format!(
            "the {GATE_REQUESTS}-peer ideal scenario took {wall_s:.2} s — over the \
             {WALL_BUDGET_S} s budget"
        ));
    }
    if row.requests == GATE_REQUESTS && row.events_per_sec() < BASELINE_EVENTS_PER_SEC {
        misses.push(format!(
            "the {GATE_REQUESTS}-peer ideal scenario ran at {:.0} events/s — under \
             the pre-optimization floor of {BASELINE_EVENTS_PER_SEC:.0}",
            row.events_per_sec()
        ));
    }
    if row.requests == FLASH_REQUESTS && wall_s > FLASH_BUDGET_S {
        misses.push(format!(
            "the {FLASH_REQUESTS}-peer flash-crowd scenario took {wall_s:.2} s — over \
             the {FLASH_BUDGET_S} s budget"
        ));
    }
    misses
}

fn run(args: &Args) -> Result<()> {
    let quick = args.has("quick");
    let ideal_sizes: &[usize] =
        if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000, FLASH_REQUESTS] };
    let lossy_sizes: &[usize] = if quick { &[1_000] } else { &[1_000, 10_000] };
    let out_path = args.get_str("out", "BENCH_sim.json");

    let mut rows: Vec<Row> = Vec::new();
    // Timing-gate misses, reported together after the last size so a
    // failing run still prints every row.
    let mut misses: Vec<String> = Vec::new();
    println!("virtual-time swarm auction, ε = {EPSILON} (DES: one actor per peer):");
    println!(
        "{:<10} {:<13} {:>12} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "requests",
        "net",
        "wall",
        "virtual",
        "events",
        "events/s",
        "coalesced",
        "peak_q",
        "rounds",
        "flat=="
    );

    for &requests in ideal_sizes {
        let instance = swarm_instance(0x51B3 ^ requests as u64, requests);
        let engine = SwarmAuction::new(SwarmConfig::with_epsilon(EPSILON), NetworkModel::ideal());
        let t0 = Instant::now();
        let out = engine.run(&instance, 0xCAFE ^ requests as u64)?;
        let wall_ns = t0.elapsed().as_nanos();

        // The equivalence gate: under zero faults the swarm is a replay of
        // the same auction the flat engine runs — assignment, duals,
        // rounds and bids must all be bit-identical, or the backend is
        // simulating some *other* protocol.
        let csr = CsrInstance::compile(&instance);
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(EPSILON), ShardCount::Fixed(1));
        let flat_out = flat.run(&csr)?;
        let identical = out.assignment == flat_out.assignment
            && out.duals == flat_out.duals
            && out.rounds == flat_out.rounds
            && out.bids_submitted == flat_out.bids_submitted;
        let row = Row {
            requests,
            providers: instance.provider_count(),
            mode: "ideal",
            wall_ns,
            virtual_s: out.converged_at.as_secs_f64(),
            events: out.events,
            messages: out.messages,
            rounds: out.rounds,
            bids: out.bids_submitted,
            welfare: out.assignment.welfare(&instance).get(),
            dropped: 0,
            coalesced: out.coalesced_events,
            peak_queue: out.peak_queue,
            bit_identical: Some(identical),
        };
        row.print();
        certify(&instance, &out, "ideal")?;
        if !identical {
            return Err(p2p_types::P2pError::MalformedInstance(format!(
                "the ideal swarm diverged from the flat engine on the {requests}-request \
                 instance: (rounds {}, bids {}) vs (rounds {}, bids {})",
                out.rounds, out.bids_submitted, flat_out.rounds, flat_out.bids_submitted
            )));
        }
        if !quick {
            misses.extend(timing_misses(&row));
        }
        rows.push(row);
    }

    for &requests in lossy_sizes {
        let instance = swarm_instance(0x51B3 ^ requests as u64, requests);
        let seed = 0xCAFE ^ requests as u64;
        let coalescing =
            SwarmAuction::new(SwarmConfig::with_epsilon(EPSILON), NetworkModel::lossy());
        let t0 = Instant::now();
        let out = coalescing.run(&instance, seed)?;
        let wall_ns = t0.elapsed().as_nanos();

        // The same row with coalescing off must reproduce the exact same
        // simulation (checked below).
        let mut uncoal_cfg = SwarmConfig::with_epsilon(EPSILON);
        uncoal_cfg.coalesce = false;
        let uncoalescing = SwarmAuction::new(uncoal_cfg, NetworkModel::lossy());
        let t1 = Instant::now();
        let off = uncoalescing.run(&instance, seed)?;
        let uncoal_wall_ns = t1.elapsed().as_nanos();

        for (mode, o, ns) in [("lossy", &out, wall_ns), ("lossy-uncoal", &off, uncoal_wall_ns)] {
            let row = Row {
                requests,
                providers: instance.provider_count(),
                mode,
                wall_ns: ns,
                virtual_s: o.converged_at.as_secs_f64(),
                events: o.events,
                messages: o.messages,
                rounds: o.rounds,
                bids: o.bids_submitted,
                welfare: o.assignment.welfare(&instance).get(),
                dropped: o.faults.dropped,
                coalesced: o.coalesced_events,
                peak_queue: o.peak_queue,
                bit_identical: None,
            };
            row.print();
            rows.push(row);
        }

        certify(&instance, &out, "lossy")?;
        if out.faults.dropped == 0 {
            return Err(p2p_types::P2pError::MalformedInstance(format!(
                "the lossy model injected no drops on the {requests}-request instance — \
                 the fault path is not being exercised"
            )));
        }
        // The coalescing-divergence gate: trace hash, fault counters,
        // outcome and virtual time must all match, or the fast path is
        // changing delivery order somewhere.
        let identical = out.trace_hash == off.trace_hash
            && out.faults == off.faults
            && out.messages == off.messages
            && out.assignment == off.assignment
            && out.duals.lambda == off.duals.lambda
            && out.bids_submitted == off.bids_submitted
            && out.converged_at == off.converged_at
            && out.converged == off.converged;
        if !identical || off.coalesced_events != 0 {
            return Err(p2p_types::P2pError::MalformedInstance(format!(
                "event coalescing diverged on the {requests}-request lossy instance: \
                 trace {:#x} vs {:#x}, coalesced {} vs {}",
                out.trace_hash, off.trace_hash, out.coalesced_events, off.coalesced_events
            )));
        }
    }

    if !misses.is_empty() {
        return Err(p2p_types::P2pError::MalformedInstance(format!(
            "{} timing gate(s) missed, {out_path} not written: {}",
            misses.len(),
            misses.join("; ")
        )));
    }

    let mut json_rows = Vec::new();
    for r in &rows {
        json_rows.push(format!(
            "    {{\n      \"requests\": {},\n      \"providers\": {},\n      \
             \"net\": \"{}\",\n      \"wall_ns\": {},\n      \"virtual_s\": {:.6},\n      \
             \"events\": {},\n      \"events_per_sec\": {:.0},\n      \
             \"coalesced_events\": {},\n      \"peak_queue\": {},\n      \
             \"messages\": {},\n      \"rounds\": {},\n      \"bids\": {},\n      \
             \"welfare\": {:.3},\n      \"dropped\": {},\n      \
             \"bit_identical_to_flat\": {},\n      \"certified\": true\n    }}",
            r.requests,
            r.providers,
            r.mode,
            r.wall_ns,
            r.virtual_s,
            r.events,
            r.events_per_sec(),
            r.coalesced,
            r.peak_queue,
            r.messages,
            r.rounds,
            r.bids,
            r.welfare,
            r.dropped,
            r.bit_identical.map_or("null".to_string(), |b| b.to_string()),
        ));
    }

    let json = format!(
        "{{\n  \"note\": \"The virtual-time swarm simulator (ISSUE 8, scaled to 10^6 \
         peers by ISSUE 10's arena mailboxes + event coalescing): every peer a \
         logical actor on the DES event queue, per-message latencies and faults drawn \
         from a seeded NetworkModel, timeouts firing through virtual-time fast-forward. \
         ideal rows are hard-gated bit-identical (assignment, duals, rounds, bids) to \
         the flat CSR engine at one shard — the swarm backend runs the *same* auction, \
         just on a simulated network. lossy rows inject seeded drop/delay/reorder/\
         duplicate faults with eventual delivery, must still pass conservation and \
         the Theorem 1 n*eps certificate, and are each re-run with coalescing off \
         (the lossy-uncoal rows) under a hard byte-identity gate: same trace_hash, \
         fault counters, assignment, duals, bids and virtual time either way. The \
         full run hard-fails if the 100000-peer ideal row exceeds {WALL_BUDGET_S} s \
         wall or drops under {BASELINE_EVENTS_PER_SEC:.0} events/s (its \
         pre-optimization throughput), or if the 1000000-peer flash-crowd row \
         exceeds {FLASH_BUDGET_S} s wall. Regenerate with `cargo run --release \
         -p p2p-bench --bin sim_bench` (add --quick for CI sizes); expect run-to-run \
         timing noise, the certified/welfare/bit-identity fields are exact.\",\n  \
         \"command\": \"cargo run --release -p p2p-bench --bin sim_bench{}\",\n  \
         \"epsilon\": {},\n  \"wall_budget_s\": {},\n  \"flash_budget_s\": {},\n  \
         \"events_per_sec_floor\": {:.0},\n  \"machine_cores\": {},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        if quick { " -- --quick" } else { "" },
        EPSILON,
        WALL_BUDGET_S,
        FLASH_BUDGET_S,
        BASELINE_EVENTS_PER_SEC,
        p2p_core::available_cores(),
        json_rows.join(",\n"),
    );
    std::fs::write(&out_path, json).map_err(|e| {
        p2p_types::P2pError::invalid_config("out", format!("cannot write `{out_path}`: {e}"))
    })?;
    println!("\nwrote {out_path}");
    Ok(())
}

fn main() -> ExitCode {
    match Args::from_env(&["out"], &["quick"]).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim_bench: {e}");
            eprintln!("usage: sim_bench [--quick] [--out PATH]");
            ExitCode::FAILURE
        }
    }
}
