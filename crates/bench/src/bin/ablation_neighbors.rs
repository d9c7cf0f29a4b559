//! EXP-A2 — neighbor-count ablation: how the neighbor budget (the paper's
//! default is 30) affects welfare, inter-ISP traffic and miss rate.
//!
//! Usage: `cargo run --release -p p2p-bench --bin ablation_neighbors
//! [--peers N] [--slots N]`

use p2p_bench::{run_static, save_xy, Args};
use p2p_sched::AuctionScheduler;
use p2p_streaming::SystemConfig;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["peers", "slots"], &[])?;
    let peers = args.get_usize("peers", 200)?;
    let slots = args.get_u64("slots", 20)?;

    println!("neighbor-count ablation (auction, static {peers} peers, {slots} slots)");
    println!("{:>10} {:>14} {:>14} {:>12}", "neighbors", "mean_welfare", "inter_isp", "miss_rate");

    let mut welfare_points = Vec::new();
    for &n in &[5usize, 10, 20, 30, 40, 50] {
        let mut config = SystemConfig::paper().with_seed(42);
        config.neighbor_count = n;
        let run =
            run_static(&config, Box::new(AuctionScheduler::paper()), peers, slots).expect("run");
        let w = run.recorder.welfare_series().mean_y().unwrap_or(0.0);
        let t = run.recorder.inter_isp_series().mean_y().unwrap_or(0.0);
        let m = run.recorder.miss_rate_series().mean_y().unwrap_or(0.0);
        println!("{n:>10} {w:>14.1} {t:>14.3} {m:>12.4}");
        welfare_points.push((n as f64, w));
    }

    let path = save_xy("ablation_neighbors_welfare", "neighbors,mean_welfare", &welfare_points);
    println!("\nwrote {}", path.display());
    println!("expected: welfare rises with neighbor count and saturates near the default 30");
    Ok(())
}
