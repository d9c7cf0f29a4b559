//! EXP-A3 — ISP cost-gap ablation: as the inter-ISP cost mean grows
//! relative to the intra-ISP mean, the auction should localize more of the
//! traffic (and the gap to the locality baseline should widen).
//!
//! Usage: `cargo run --release -p p2p-bench --bin ablation_isp
//! [--peers N] [--slots N]`

use p2p_bench::{run_static, save_xy, Args};
use p2p_sched::{AuctionScheduler, SimpleLocalityScheduler};
use p2p_streaming::SystemConfig;
use p2p_topology::CostDistributions;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["peers", "slots"])?;
    let peers = args.get_usize("peers", 200)?;
    let slots = args.get_u64("slots", 20)?;

    println!("ISP cost-gap ablation (static {peers} peers, {slots} slots)");
    println!(
        "{:>12} {:>16} {:>16} {:>16} {:>16}",
        "inter_mean",
        "auction_interisp",
        "locality_interisp",
        "auction_welfare",
        "locality_welfare"
    );

    let mut points = Vec::new();
    for &mean in &[2.0, 3.5, 5.0, 6.5, 8.0] {
        let dists = CostDistributions::with_inter_mean(mean).expect("valid mean");
        let mut config = SystemConfig::paper().with_seed(42);
        config.topology = config.topology.with_distributions(dists);

        let a = run_static(&config, Box::new(AuctionScheduler::paper()), peers, slots)
            .expect("auction run");
        let l = run_static(&config, Box::new(SimpleLocalityScheduler::new()), peers, slots)
            .expect("locality run");

        let at = a.recorder.inter_isp_series().mean_y().unwrap_or(0.0);
        let lt = l.recorder.inter_isp_series().mean_y().unwrap_or(0.0);
        let aw = a.recorder.welfare_series().mean_y().unwrap_or(0.0);
        let lw = l.recorder.welfare_series().mean_y().unwrap_or(0.0);
        println!("{mean:>12.1} {at:>16.3} {lt:>16.3} {aw:>16.1} {lw:>16.1}");
        points.push((mean, at));
    }

    let path = save_xy("ablation_isp_interisp", "inter_mean,auction_inter_isp", &points);
    println!("\nwrote {}", path.display());
    println!("expected: the auction's inter-ISP share falls as crossing ISPs gets costlier");
    Ok(())
}
