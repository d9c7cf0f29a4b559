//! EXP-F5 — Fig. 5: averaged chunk miss rate per time slot in a static
//! network of 500 peers, auction vs. simple locality.
//!
//! Expected shape: both schedulers keep the miss rate small (< ~10 %), with
//! the auction below the baseline — its deadline-driven valuations steer
//! upload bandwidth toward the chunks that are about to be played.
//!
//! Usage: `cargo run --release -p p2p-bench --bin fig5 [--peers N]
//! [--slots N] [--seed S]`

use p2p_bench::{run_static, save_csv, Args};
use p2p_metrics::ascii_plot;
use p2p_sched::{AuctionScheduler, SimpleLocalityScheduler};
use p2p_streaming::SystemConfig;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["peers", "slots", "seed"], &[])?;
    let peers = args.get_usize("peers", 500)?;
    let slots = args.get_u64("slots", 25)?;
    let seed = args.get_u64("seed", 42)?;

    let config = SystemConfig::paper().with_seed(seed);
    eprintln!("fig5: static network of {peers} peers, {slots} slots");

    let auction = run_static(&config, Box::new(AuctionScheduler::paper()), peers, slots)
        .expect("auction run");
    let locality = run_static(&config, Box::new(SimpleLocalityScheduler::new()), peers, slots)
        .expect("locality run");

    let a = auction.recorder.miss_rate_series().renamed("auction");
    let l = locality.recorder.miss_rate_series().renamed("simple_locality");

    println!("Fig. 5 — chunk miss rate vs time (static, {peers} peers)");
    println!("{}", ascii_plot(&[&a, &l], 90, 16));
    let (am, lm) = (a.mean_y().unwrap_or(0.0), l.mean_y().unwrap_or(0.0));
    println!("mean miss rate: auction {am:.4}, locality {lm:.4}");
    println!(
        "auction {} locality ({})",
        if am <= lm { "<=" } else { ">" },
        if am <= lm { "matches the paper's ordering" } else { "UNEXPECTED ordering" }
    );

    let path = save_csv("fig5_miss_rate", "time_s", &[&a, &l]);
    println!("wrote {}", path.display());
    Ok(())
}
