//! The flat engine owns its slice workers: its first sharded run spawns
//! them, later runs reuse them, and dropping the engine joins them.
//!
//! Threads are read from `/proc/self/task`, so this file holds exactly one
//! `#[test]`: a sibling test running in parallel would add its own threads
//! to the listing.

#![cfg(target_os = "linux")]

use p2p_core::csr::{CsrInstance, FlatAuction};
use p2p_core::{AuctionConfig, ShardCount, WelfareInstance};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The kernel task ids of this process's live threads.
fn live_threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .map(|e| e.expect("readable task entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// 64 requests bidding for 8 upload units across 4 providers.
fn contended_instance() -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let us: Vec<_> = (0..4).map(|i| b.add_provider(PeerId::new(100 + i), 2)).collect();
    for d in 0..64u32 {
        let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), d)));
        for (i, &u) in us.iter().enumerate() {
            let v = 2.0 + f64::from(d % 7) * 0.73 + i as f64 * 0.11;
            let w = 0.2 + f64::from(d % 5) * 0.29 + i as f64 * 0.07;
            b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn engine_spawns_its_workers_once_and_joins_them_on_drop() {
    let csr = CsrInstance::compile(&contended_instance());
    let start = live_threads();
    let mut engine =
        FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(4)).with_workers(3);

    let first = engine.run(&csr).unwrap();
    let leased = live_threads();
    assert_eq!(leased.len(), start.len() + 3, "the first sharded run spawns the 3 workers");
    assert!(start.is_subset(&leased));
    let second = engine.run(&csr).unwrap();
    // Same task ids, not just the same count: a respawned worker would
    // carry a fresh id.
    assert_eq!(live_threads(), leased, "a second run reuses the same workers");
    assert_eq!(first.assignment, second.assignment);
    assert_eq!(first.duals, second.duals);

    drop(engine);
    // `join` returns as soon as a worker's thread id is cleared; the kernel
    // removes its task entry a moment later, so give that a bounded wait.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() != start && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(live_threads(), start, "dropping the engine joins every worker");
}
