//! EXP-F3 — Fig. 3: social welfare per time slot in a dynamic network
//! (Poisson joins at 1 peer/s, peers stay until their video ends), auction
//! vs. the simple locality baseline.
//!
//! Expected shape: the auction's welfare grows as the population grows; the
//! baseline's stagnates or declines and can go negative (it schedules
//! transfers without consulting valuations, so `v − w < 0` transfers slip
//! in).
//!
//! Usage: `cargo run --release -p p2p-bench --bin fig3 [--slots N] [--seed S]`

use p2p_bench::{run_dynamic, save_csv, Args};
use p2p_metrics::ascii_plot;
use p2p_sched::{AuctionScheduler, SimpleLocalityScheduler};
use p2p_streaming::SystemConfig;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["slots", "seed"], &[])?;
    let slots = args.get_u64("slots", 25)?;
    let seed = args.get_u64("seed", 42)?;

    let config = SystemConfig::paper().with_seed(seed);
    eprintln!("fig3: dynamic joins 1/s, no early departures, {slots} slots");

    let auction =
        run_dynamic(&config, Box::new(AuctionScheduler::paper()), slots).expect("auction run");
    let locality = run_dynamic(&config, Box::new(SimpleLocalityScheduler::new()), slots)
        .expect("locality run");

    let a = auction.recorder.welfare_series().renamed("auction");
    let l = locality.recorder.welfare_series().renamed("simple_locality");

    println!("Fig. 3 — social welfare vs time (dynamic joins)");
    println!("{}", ascii_plot(&[&a, &l], 90, 18));
    println!(
        "mean welfare/slot: auction {:.1}, locality {:.1}; final-slot population {}",
        a.mean_y().unwrap_or(0.0),
        l.mean_y().unwrap_or(0.0),
        auction.recorder.population_series().points().last().map_or(0.0, |&(_, y)| y)
    );
    let locality_min = l.y_min().unwrap_or(0.0);
    println!(
        "locality min welfare: {locality_min:.1} ({})",
        if locality_min < 0.0 {
            "goes negative, as in the paper"
        } else {
            "stays non-negative on this seed"
        }
    );

    let path = save_csv("fig3_social_welfare", "time_s", &[&a, &l]);
    println!("wrote {}", path.display());
    Ok(())
}
