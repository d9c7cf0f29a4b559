//! Message-level emulation: run the same slot problem through the
//! synchronous rounds, the virtual-time swarm simulator with link latencies
//! derived from the edge costs, and a tracker plus peers exchanging real
//! TCP frames over loopback — and confirm all three land on the same
//! socially optimal welfare (Theorem 1 under racing messages).
//!
//! Run with: `cargo run --release --example message_level_emulation`

use isp_p2p::metrics::NoProbe;
use isp_p2p::net::{run_slot_local, NetConfig};
use isp_p2p::prelude::*;

fn main() -> Result<()> {
    // A contended instance: 40 requests over 6 providers.
    let mut b = WelfareInstance::builder();
    let providers: Vec<_> =
        (0..6).map(|i| b.add_provider(PeerId::new(1000 + i), 3 + (i % 3))).collect();
    for d in 0..40u32 {
        let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), d)));
        for (k, &u) in providers.iter().enumerate() {
            if (d as usize + k).is_multiple_of(2) {
                // Low-discrepancy irrational spreads keep every price
                // difference generic: the ε = 0 auction is exactly optimal
                // on tie-free instances (Theorem 1's generic position).
                // Rational lattices (e.g. hashes mod N) would create exact
                // ties and trigger the paper's wait-rule deadlocks.
                let frac = |x: f64| x - x.floor();
                let v = 0.8 + 7.2 * frac(f64::from(d) * 0.618_033_988_749_894_9);
                // The d·k interaction keeps cost *differences* generic
                // across requests: the paper's bid w_û − w_u* + λ_û cancels
                // v, so costs linear in (d, k) would make distinct requests
                // bid identical amounts and deadlock on the tie rule.
                let w = 0.2
                    + 3.0
                        * frac(
                            (f64::from(d) * 3.0 + k as f64 * 7.0) * std::f64::consts::SQRT_2
                                + f64::from(d) * k as f64 * 1.732_050_807_568_877,
                        )
                    + 0.9 * k as f64;
                b.add_edge(r, u, Valuation::new(v), Cost::new(w))?;
            }
        }
    }
    let instance = b.build()?;
    let exact = instance.optimal_welfare();
    println!("exact optimal welfare: {exact}");

    // 1. Synchronous rounds (the scheduler's fast path).
    let sync = SyncAuction::new(AuctionConfig::paper()).run(&instance)?;
    println!(
        "sync engine:        welfare {} in {} rounds",
        sync.assignment.welfare(&instance),
        sync.rounds
    );

    // 2. The swarm simulator: bids, evictions and price announcements race
    //    over links whose delay follows their cost (the paper's 5 ms + 100 ms
    //    per cost unit), on virtual time.
    let net = NetworkModel::cost_derived(CostLatency { base_ms: 5.0, ms_per_cost: 100.0 });
    let swarm = SwarmAuction::new(SwarmConfig::paper(), net).run(&instance, 0)?;
    println!(
        "swarm simulator:    welfare {} after {} messages, converged at {}",
        swarm.assignment.welfare(&instance),
        swarm.messages,
        swarm.converged_at
    );

    // 3. The real transport: a tracker and four peers exchanging wire
    //    frames over loopback TCP.
    let wired = run_slot_local(&instance, 4, &NetConfig::default(), &mut NoProbe)?;
    println!(
        "loopback TCP:       welfare {} in {} rounds",
        wired.assignment.welfare(&instance),
        wired.rounds
    );

    for (name, welfare) in [
        ("sync", sync.assignment.welfare(&instance)),
        ("swarm", swarm.assignment.welfare(&instance)),
        ("net", wired.assignment.welfare(&instance)),
    ] {
        assert!(
            (welfare.get() - exact.get()).abs() < 1e-6,
            "{name} engine missed the optimum: {welfare} vs {exact}"
        );
    }
    println!("ok: all three executions reach the exact social optimum");
    Ok(())
}
