//! The tracker runs one thread of its own per swarm, the heartbeat, which
//! also guards the handshake deadline. The coordinator reads every reply
//! itself, so no thread is spawned per peer, and `shutdown` joins the
//! heartbeat.
//!
//! Threads are read from `/proc/self/task`, so this file holds exactly one
//! `#[test]`: a sibling test running in parallel would add its own threads
//! to the listing.

#![cfg(target_os = "linux")]

use p2p_core::{NoProbe, WelfareInstance};
use p2p_net::{NetConfig, Peer, PeerConfig, Tracker};
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

/// 12 requests bidding for 4 upload units across 2 providers.
fn contended_instance() -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let us: Vec<_> = (0..2).map(|i| b.add_provider(PeerId::new(100 + i), 2)).collect();
    for d in 0..12u32 {
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
fn tracker_serves_its_swarm_on_one_thread_and_joins_it_on_shutdown() {
    let instance = contended_instance();
    let start = live_threads();
    let mut tracker = Tracker::bind("127.0.0.1:0", 3, NetConfig::default()).unwrap();
    let addr = tracker.local_addr().to_string();
    let peers: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || Peer::connect(&addr, i, PeerConfig::default())?.run())
        })
        .collect();

    tracker.accept_peers().unwrap();
    let serving = live_threads();
    assert_eq!(serving.len(), start.len() + 3 + 1, "3 peer threads plus the tracker's heartbeat");
    assert!(start.is_subset(&serving));
    tracker.run(&instance, &mut NoProbe).unwrap();
    assert_eq!(live_threads(), serving, "the sweep spawns no threads");

    tracker.shutdown();
    for peer in peers {
        peer.join().unwrap().unwrap();
    }
    // `join` returns as soon as a thread's id is cleared; the kernel
    // removes its task entry a moment later, so give that a bounded wait.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() != start && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(live_threads(), start, "shutdown joins the heartbeat thread");
}
