//! EXP-EXT1 — strategic bidding (the paper's stated future work): the
//! auction is not incentive compatible, and this sweep quantifies how much
//! a coalition of valuation-inflating peers gains and how much society and
//! the honest majority lose.
//!
//! Usage: `cargo run --release -p p2p-bench --bin strategic
//! [--requests N] [--trials N]`

use p2p_bench::{random_instance, save_xy, Args};
use p2p_core::strategic::{evaluate_manipulation, Misreport};

fn main() -> p2p_types::Result<()> {
    let args = Args::from_env(&["requests", "trials"], &[])?;
    let requests = args.get_usize("requests", 400)?;
    let trials = args.get_usize("trials", 5)?;
    let providers = requests / 10;

    println!(
        "strategic-bidding sweep ({providers} providers x {requests} requests, \
         {trials} trials, misreport = MaxOut)"
    );
    println!(
        "{:>12} {:>14} {:>16} {:>16} {:>14}",
        "manip_frac", "welfare_loss%", "manip_gain%", "honest_loss%", "manip_chunks+"
    );

    let mut points = Vec::new();
    for &frac in &[0.0, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let mut loss = 0.0;
        let mut gain = 0.0;
        let mut honest_loss = 0.0;
        let mut chunk_gain = 0.0;
        for t in 0..trials {
            let inst = random_instance(7_000 + t as u64, providers, requests, 6, 6);
            let k = (requests as f64 * frac) as usize;
            // Deterministic manipulator set: every ceil(1/frac)-th request.
            let manipulators: Vec<usize> = match requests.checked_div(k) {
                None => Vec::new(),
                Some(step) => (0..requests).step_by(step.max(1)).take(k).collect(),
            };
            let out = evaluate_manipulation(&inst, &manipulators, Misreport::MaxOut)
                .expect("auction converges");
            loss += out.welfare_loss_fraction() * 100.0;
            let mg = if out.manipulator_truthful_utility.abs() > 1e-12 {
                (out.manipulator_utility - out.manipulator_truthful_utility)
                    / out.manipulator_truthful_utility.abs()
                    * 100.0
            } else {
                0.0
            };
            gain += mg;
            let hl = if out.honest_truthful_utility.abs() > 1e-12 {
                (out.honest_truthful_utility - out.honest_utility)
                    / out.honest_truthful_utility.abs()
                    * 100.0
            } else {
                0.0
            };
            honest_loss += hl;
            chunk_gain += out.manipulator_chunks as f64 - out.manipulator_truthful_chunks as f64;
        }
        let n = trials as f64;
        println!(
            "{frac:>12.2} {:>14.2} {:>16.2} {:>16.2} {:>14.1}",
            loss / n,
            gain / n,
            honest_loss / n,
            chunk_gain / n
        );
        points.push((frac, loss / n));
    }

    let path = save_xy("strategic_welfare_loss", "manipulator_fraction,welfare_loss_pct", &points);
    println!("\nwrote {}", path.display());
    println!(
        "expected: manipulators gain chunks at honest peers' expense and social \
         welfare falls — the mechanism is not truthful, motivating the paper's \
         future work"
    );
    Ok(())
}
