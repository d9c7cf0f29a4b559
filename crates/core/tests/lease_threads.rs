//! The flat engine owns its slice helpers: a run that never fans a slice
//! out spawns none, its first fan-out spawns `workers − 1` of them (the
//! calling thread is the first scanner), later runs reuse them, and
//! dropping the engine joins them.
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

/// A deterministic hash in [0, 1): tie-free instance material.
fn unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `requests` requests bidding across one provider of capacity 1–4 per 16
/// requests (at least 4 providers), 4 distinct candidates a request.
fn contended_instance(requests: u64) -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let providers = (requests / 16).max(4);
    let us: Vec<_> = (0..providers)
        .map(|i| {
            b.add_provider(PeerId::new(1 << 20 | i as u32), 1 + (unit(i * 7 + 5) * 4.0) as u32)
        })
        .collect();
    for d in 0..requests {
        let chunk = ChunkId::new(VideoId::new(0), d as u32);
        let r = b.add_request(RequestId::new(PeerId::new(d as u32), chunk));
        let base = (unit(d * 13 + 3) * providers as f64) as u64;
        for k in 0..4 {
            let u = us[((base + k * (providers / 4)) % providers) as usize];
            let v = 2.0 + 6.0 * unit(d * 31 + k * 7 + 1);
            let w = 0.2 + 3.0 * unit(d * 17 + k * 13 + 2);
            b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn engine_spawns_its_workers_once_and_joins_them_on_drop() {
    // 64 requests cut into slices of at most 4 rows: far below the
    // engine's 2,048 rows per scanner, so nothing fans out.
    let small = CsrInstance::compile(&contended_instance(64));
    // Three shards cut the first round into 12 slices of 6,144 rows,
    // 2,048 for each of the 3 scanners.
    let big = CsrInstance::compile(&contended_instance(12 * 3 * 2_048));
    let start = live_threads();
    let mut engine =
        FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(3)).with_workers(3);

    engine.run(&small).unwrap();
    assert_eq!(live_threads(), start, "a run below the fan-out threshold spawns no thread");

    let first = engine.run(&big).unwrap();
    let leased = live_threads();
    assert_eq!(leased.len(), start.len() + 2, "the first fan-out spawns the 2 helpers");
    assert!(start.is_subset(&leased));
    let second = engine.run(&big).unwrap();
    // Same task ids, not just the same count: a respawned helper would
    // carry a fresh id.
    assert_eq!(live_threads(), leased, "a second run reuses the same helpers");
    assert_eq!(first.assignment, second.assignment);
    assert_eq!(first.duals, second.duals);
    engine.run(&small).unwrap();
    assert_eq!(live_threads(), leased, "a run below the threshold keeps the lease");

    drop(engine);
    // `join` returns as soon as a helper's thread id is cleared; the kernel
    // removes its task entry a moment later, so give that a bounded wait.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() != start && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(live_threads(), start, "dropping the engine joins every helper");
}
