//! EXP-F6 — Fig. 6(a,b,c): social welfare, inter-ISP traffic and chunk
//! miss rate under peer dynamics (Poisson joins at 1/s, early departure
//! with probability 0.6), auction vs. simple locality.
//!
//! Expected shape: the orderings of Figs. 3–5 survive churn — the auction
//! keeps higher welfare, a lower inter-ISP share and a lower miss rate.
//!
//! Usage: `cargo run --release -p p2p-bench --bin fig6 [--slots N] [--seed S]`

use p2p_bench::{run_dynamic, save_csv, Args};
use p2p_metrics::ascii_plot;
use p2p_sched::{AuctionScheduler, SimpleLocalityScheduler};
use p2p_streaming::SystemConfig;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["slots", "seed"])?;
    let slots = args.get_u64("slots", 25)?;
    let seed = args.get_u64("seed", 42)?;

    let config = SystemConfig::paper().with_seed(seed).with_departures(0.6);
    eprintln!("fig6: dynamic network (joins 1/s, departures w.p. 0.6), {slots} slots");

    let auction =
        run_dynamic(&config, Box::new(AuctionScheduler::paper()), slots).expect("auction run");
    let locality = run_dynamic(&config, Box::new(SimpleLocalityScheduler::new()), slots)
        .expect("locality run");

    // (a) social welfare
    let aw = auction.recorder.welfare_series().renamed("auction");
    let lw = locality.recorder.welfare_series().renamed("simple_locality");
    println!("Fig. 6(a) — social welfare under churn");
    println!("{}", ascii_plot(&[&aw, &lw], 90, 14));
    println!(
        "mean welfare/slot: auction {:.1}, locality {:.1}\n",
        aw.mean_y().unwrap_or(0.0),
        lw.mean_y().unwrap_or(0.0)
    );

    // (b) inter-ISP traffic
    let at = auction.recorder.inter_isp_series().renamed("auction");
    let lt = locality.recorder.inter_isp_series().renamed("simple_locality");
    println!("Fig. 6(b) — inter-ISP traffic under churn");
    println!("{}", ascii_plot(&[&at, &lt], 90, 14));
    println!(
        "mean inter-ISP share: auction {:.3}, locality {:.3}\n",
        at.mean_y().unwrap_or(0.0),
        lt.mean_y().unwrap_or(0.0)
    );

    // (c) miss rate
    let am = auction.recorder.miss_rate_series().renamed("auction");
    let lm = locality.recorder.miss_rate_series().renamed("simple_locality");
    println!("Fig. 6(c) — chunk miss rate under churn");
    println!("{}", ascii_plot(&[&am, &lm], 90, 14));
    println!(
        "mean miss rate: auction {:.4}, locality {:.4}",
        am.mean_y().unwrap_or(0.0),
        lm.mean_y().unwrap_or(0.0)
    );

    let p1 = save_csv("fig6a_welfare_churn", "time_s", &[&aw, &lw]);
    let p2 = save_csv("fig6b_inter_isp_churn", "time_s", &[&at, &lt]);
    let p3 = save_csv("fig6c_miss_rate_churn", "time_s", &[&am, &lm]);
    println!("wrote {}, {}, {}", p1.display(), p2.display(), p3.display());
    Ok(())
}
