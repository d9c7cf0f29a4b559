//! EXP-F2 — Fig. 2: evolution of a representative peer's bandwidth price
//! `λ_u` within time slots, under the message-level distributed auction
//! with link latencies.
//!
//! Paper setup: static network of 500 peers, 10-second slots, trace window
//! t ∈ [150 s, 250 s]. The expected shape: at each slot start the price
//! resets to 0, climbs as bids race in, and flattens ≈ 5 s into the slot —
//! the auction has converged well before the slot ends.
//!
//! Usage: `cargo run --release -p p2p-bench --bin fig2 [--peers N]
//! [--from SECS] [--to SECS] [--quick]`

use p2p_bench::{save_xy, Args};
use p2p_metrics::{ascii_plot, TimeSeries};
use p2p_sched::AuctionScheduler;
use p2p_streaming::fig2::{price_series_for, representative_trace, run_distributed_slot};
use p2p_streaming::{System, SystemConfig};

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["peers", "from", "to", "quick"])?;
    let quick = args.has("quick");
    // Price dynamics need contention, which needs the paper's 500-peer
    // scale; --quick shortens the traced window instead of shrinking the
    // swarm.
    let peers = args.get_usize("peers", 500)?;
    let from_secs = args.get_f64("from", 150.0)?;
    let to_secs = args.get_f64("to", if quick { 170.0 } else { 250.0 })?;

    let config = SystemConfig::paper().with_seed(42);
    let slot_secs = config.slot_len.as_secs_f64();
    let first_traced_slot = (from_secs / slot_secs) as u64;
    let last_traced_slot = (to_secs / slot_secs) as u64;

    eprintln!(
        "fig2: {peers} static peers, tracing slots {first_traced_slot}..{last_traced_slot} \
         (t in [{from_secs}, {to_secs}] s)"
    );

    let mut sys =
        System::new(config, Box::new(AuctionScheduler::paper())).expect("paper config is valid");
    sys.add_static_peers(peers).expect("distributions are valid");

    // Warm up with the fast synchronous engine until the trace window.
    eprintln!("fig2: warming up {first_traced_slot} slots (synchronous engine)...");
    sys.run_slots(first_traced_slot).expect("warm-up slots");

    // Trace window: run each slot at the message level.
    let mut outcomes = Vec::new();
    let mut slot_starts = Vec::new();
    for s in first_traced_slot..last_traced_slot {
        let start = sys.now();
        slot_starts.push(start);
        let out = run_distributed_slot(&mut sys).expect("message-level slot converges");
        eprintln!(
            "fig2: slot {s}: {} transfers, {} messages, converged {:.2} s into the slot",
            out.metrics.transfers,
            out.messages,
            out.convergence_secs - start.as_secs_f64(),
        );
        outcomes.push(out);
    }

    let Some(rep) = representative_trace(&outcomes) else {
        println!(
            "Fig. 2 — no provider's price moved: the swarm has no upload \
             contention at this scale. Re-run with more peers (--peers 500)."
        );
        return Ok(());
    };
    let series = price_series_for(rep, &outcomes, &slot_starts);

    let mut ts = TimeSeries::new("lambda_u");
    ts.extend(series.iter().copied());
    println!("Fig. 2 — price evolution at representative {rep}");
    println!("{}", ascii_plot(&[&ts], 90, 18));

    // Convergence summary per slot (the paper reports ≈ 5 s).
    let mut conv = Vec::new();
    for (o, s) in outcomes.iter().zip(&slot_starts) {
        conv.push(o.convergence_secs - s.as_secs_f64());
    }
    let mean_conv = conv.iter().sum::<f64>() / conv.len().max(1) as f64;
    println!("mean within-slot convergence: {mean_conv:.2} s (paper: ≈ 5 s)");
    println!(
        "slot-start resets: {} (price returns to 0 at every slot boundary)",
        slot_starts.len()
    );

    let path = save_xy("fig2_price_evolution", "time_s,lambda", &series);
    let conv_points: Vec<(f64, f64)> =
        slot_starts.iter().zip(&conv).map(|(s, c)| (s.as_secs_f64(), *c)).collect();
    let path2 = save_xy("fig2_convergence_secs", "slot_start_s,convergence_s", &conv_points);
    println!("wrote {} and {}", path.display(), path2.display());
    Ok(())
}
