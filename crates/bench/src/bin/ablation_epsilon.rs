//! EXP-A1 — ε ablation: convergence speed vs. welfare loss.
//!
//! The paper's bid rule is the ε = 0 Bertsekas auction; ε > 0 trades up to
//! `n·ε` welfare for faster, tie-proof convergence (Sec. IV discussion in
//! DESIGN.md). This sweep quantifies the trade on random slot-shaped
//! instances.
//!
//! Usage: `cargo run --release -p p2p-bench --bin ablation_epsilon
//! [--trials N] [--requests N]`

use p2p_bench::{random_instance, save_xy, Args};
use p2p_core::{AuctionConfig, SyncAuction};

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["trials", "requests"], &[])?;
    let trials = args.get_usize("trials", 10)?;
    let requests = args.get_usize("requests", 400)?;
    let providers = requests / 10;

    println!("epsilon ablation ({trials} trials, {providers} providers x {requests} requests)");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>14}",
        "epsilon", "rounds", "bids", "welfare_gap", "gap_bound(n*eps)"
    );

    let mut points = Vec::new();
    for &eps in &[0.0, 1e-3, 1e-2, 0.05, 0.1, 0.5] {
        let mut rounds = 0.0;
        let mut bids = 0.0;
        let mut gap = 0.0_f64;
        for t in 0..trials {
            let inst = random_instance(900 + t as u64, providers, requests, 6, 6);
            let exact = inst.optimal_welfare().get();
            let out =
                SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).expect("converges");
            rounds += out.rounds as f64;
            bids += out.bids_submitted as f64;
            gap = gap.max(exact - out.assignment.welfare(&inst).get());
        }
        let n = trials as f64;
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>14.4} {:>14.4}",
            eps,
            rounds / n,
            bids / n,
            gap,
            requests as f64 * eps
        );
        points.push((eps, rounds / n));
    }

    let path = save_xy("ablation_epsilon_rounds", "epsilon,mean_rounds", &points);
    println!("\nwrote {}", path.display());
    println!("expected: rounds fall as eps grows; welfare gap stays <= n*eps");
    Ok(())
}
