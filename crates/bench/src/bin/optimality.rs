//! EXP-T1 — Theorem 1 at scale: the auction's welfare vs. the exact
//! min-cost-flow optimum over a sweep of instance sizes, plus the
//! complementary-slackness certificate and solver timings.
//!
//! Usage: `cargo run --release -p p2p-bench --bin optimality [--trials N]`

use p2p_bench::{random_instance, save_xy, Args};
use p2p_core::{verify_optimality, AuctionConfig, SyncAuction};
use std::time::Instant;

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["trials"], &[])?;
    let trials = args.get_usize("trials", 5)?;

    println!("Theorem 1 verification: auction vs exact optimum (mean over {trials} trials)");
    println!(
        "{:>10} {:>10} {:>14} {:>14} {:>10} {:>10} {:>9} {:>9}",
        "providers", "requests", "auction", "exact", "gap", "cs_ok", "auc_ms", "flow_ms"
    );

    let mut gap_points = Vec::new();
    for &(providers, requests) in
        &[(5usize, 20usize), (10, 50), (20, 200), (50, 500), (100, 2000), (200, 5000)]
    {
        let mut sum_auction = 0.0;
        let mut sum_exact = 0.0;
        let mut worst_gap = 0.0_f64;
        let mut cs_ok = true;
        let mut auction_ms = 0.0;
        let mut flow_ms = 0.0;
        for t in 0..trials {
            let inst =
                random_instance(1000 * providers as u64 + t as u64, providers, requests, 8, 6);
            let t0 = Instant::now();
            let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).expect("converges");
            auction_ms += t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let exact = inst.optimal_welfare().get();
            flow_ms += t1.elapsed().as_secs_f64() * 1e3;

            let got = out.assignment.welfare(&inst).get();
            sum_auction += got;
            sum_exact += exact;
            worst_gap = worst_gap.max((exact - got).abs());
            let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-7);
            cs_ok &= report.is_optimal();
        }
        let n = trials as f64;
        println!(
            "{:>10} {:>10} {:>14.3} {:>14.3} {:>10.2e} {:>10} {:>9.1} {:>9.1}",
            providers,
            requests,
            sum_auction / n,
            sum_exact / n,
            worst_gap,
            cs_ok,
            auction_ms / n,
            flow_ms / n,
        );
        gap_points.push((requests as f64, worst_gap));
    }

    let path = save_xy("optimality_gap", "requests,worst_gap", &gap_points);
    println!("\nwrote {}", path.display());
    println!("expected: gap ~ 1e-9 (float round-off only) and cs_ok = true everywhere");
    Ok(())
}
