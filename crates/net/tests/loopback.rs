//! In-process loopback certification of the networked runtime: the full
//! wire stack (framing, control protocol, tracker coordinator, peer
//! actors) over real 127.0.0.1 TCP sockets, with the tracker and peers as
//! threads of this test process. Multi-OS-process certification lives in
//! the root `net_loopback` integration test; this file covers the
//! equivalence chain and every failure path at thread speed.

use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, CountingProbe, CsrInstance, FlatAuction,
    FlatOutcome, NoProbe, ShardCount, SyncAuction, WelfareInstance,
};
use p2p_net::{run_slot_local, run_slot_local_stats, NetConfig, Peer, PeerConfig, Tracker};
use p2p_types::{ChunkId, Cost, P2pError, PeerId, RequestId, Valuation, VideoId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Random tie-free instance shaped like a slot problem (same bands as the
/// bench generators: valuations `[0.8, 8)`, costs `[0, 10)`).
fn random_instance(seed: u64, providers: usize, requests: usize) -> WelfareInstance {
    shaped_instance(seed, providers, requests, 4, 3)
}

/// [`random_instance`] with capacities in `[1, max_capacity]` and up to
/// `max_edges` candidate providers per request.
fn shaped_instance(
    seed: u64,
    providers: usize,
    requests: usize,
    max_capacity: u32,
    max_edges: usize,
) -> WelfareInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WelfareInstance::builder();
    let ps: Vec<usize> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(100_000 + i as u32), rng.gen_range(1..=max_capacity)))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        let k = rng.gen_range(1..=max_edges.min(providers));
        let mut picked = std::collections::HashSet::new();
        for _ in 0..k {
            let u = ps[rng.gen_range(0..providers)];
            if picked.insert(u) {
                let v = Valuation::new(rng.gen_range(0.8..8.0));
                let w = Cost::new(rng.gen_range(0.0..10.0));
                b.add_edge(r, u, v, w).unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn quick_config() -> NetConfig {
    NetConfig {
        io_timeout: Duration::from_secs(5),
        handshake_timeout: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

#[test]
fn networked_slot_is_bit_identical_to_the_sync_engine() {
    for seed in 0..6 {
        let instance = random_instance(seed, 5, 24);
        let sync = SyncAuction::new(AuctionConfig::paper()).run(&instance).unwrap();
        for peers in [1, 3, 5] {
            let net = run_slot_local(&instance, peers, &quick_config(), &mut NoProbe).unwrap();
            assert_eq!(net.assignment, sync.assignment, "seed {seed}, {peers} peers");
            assert_eq!(net.duals, sync.duals, "seed {seed}, {peers} peers");
            assert_eq!(net.rounds, sync.rounds, "seed {seed}, {peers} peers");
            assert_eq!(net.bids_submitted, sync.bids_submitted, "seed {seed}, {peers} peers");
        }
    }
}

#[test]
fn networked_slot_is_bit_identical_to_the_flat_engine() {
    let instance = random_instance(42, 6, 32);
    let csr = CsrInstance::compile(&instance);
    let flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1)).run(&csr).unwrap();
    let net = run_slot_local(&instance, 3, &quick_config(), &mut NoProbe).unwrap();
    assert_eq!(net.assignment.choices(), flat.assignment.choices());
    assert_eq!(net.duals.lambda, flat.duals.lambda);
    assert_eq!(net.rounds, flat.rounds);
    assert_eq!(net.bids_submitted, flat.bids_submitted);
}

#[test]
fn batched_polls_match_the_per_request_protocol_and_the_flat_engine() {
    for seed in [13, 29] {
        let instance = random_instance(seed, 8, 64);
        let csr = CsrInstance::compile(&instance);
        let flat =
            FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1)).run(&csr).unwrap();
        for peers in [1, 2, 4] {
            let batched_cfg = NetConfig { batch_polls: true, ..quick_config() };
            let unbatched_cfg = NetConfig { batch_polls: false, ..quick_config() };
            let (batched, bstats) =
                run_slot_local_stats(&instance, peers, &batched_cfg, &mut NoProbe).unwrap();
            let (unbatched, ustats) =
                run_slot_local_stats(&instance, peers, &unbatched_cfg, &mut NoProbe).unwrap();
            for (label, got) in [("batched", &batched), ("unbatched", &unbatched)] {
                assert_eq!(
                    got.assignment.choices(),
                    flat.assignment.choices(),
                    "{label}, seed {seed}, {peers} peers"
                );
                assert_eq!(got.duals.lambda, flat.duals.lambda, "{label}, seed {seed}");
                assert_eq!(got.rounds, flat.rounds, "{label}, seed {seed}");
                assert_eq!(got.bids_submitted, flat.bids_submitted, "{label}, seed {seed}");
            }
            assert!(
                bstats.total() * 5 <= ustats.total(),
                "seed {seed}, {peers} peers: batching only cut frames from {} to {}",
                ustats.total(),
                bstats.total()
            );
        }
    }
}

#[test]
fn networked_outcome_carries_the_optimality_certificate() {
    let instance = random_instance(7, 4, 20);
    let outcome = run_slot_local(&instance, 3, &quick_config(), &mut NoProbe).unwrap();
    let n = instance.request_count() as f64;
    let report =
        verify_optimality(&instance, &outcome.assignment, &outcome.duals, 1e-9 * (n + 1.0));
    assert!(report.is_optimal(), "{report:?}");
}

/// The tracker, `SyncAuction` and the one-shard flat sweep count the same
/// rounds, bids, conflicts and retirements: all three retire priced-out
/// requests by the same rule.
#[test]
fn probe_counters_match_the_sync_engine() {
    let instance = random_instance(3, 4, 16);
    let mut sync_probe = CountingProbe::new();
    SyncAuction::new(AuctionConfig::paper()).run_probed(&instance, &mut sync_probe).unwrap();
    let mut flat_probe = CountingProbe::new();
    FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1))
        .run_into_probed(
            &CsrInstance::compile(&instance),
            &mut FlatOutcome::default(),
            &mut flat_probe,
        )
        .unwrap();
    let mut net_probe = CountingProbe::new();
    run_slot_local(&instance, 2, &quick_config(), &mut net_probe).unwrap();
    let sync_report = sync_probe.take_report();
    assert!(sync_report.retired > 0, "the instance prices no request out");
    for (label, report) in [("net", net_probe.take_report()), ("flat", flat_probe.take_report())] {
        assert_eq!(report.rounds, sync_report.rounds, "{label}: rounds");
        assert_eq!(report.bids, sync_report.bids, "{label}: bids");
        assert_eq!(report.conflicts, sync_report.conflicts, "{label}: conflicts");
        assert_eq!(report.retired, sync_report.retired, "{label}: retired");
    }
}

#[test]
fn a_non_finite_or_negative_epsilon_is_refused_at_bind() {
    for epsilon in [f64::NAN, f64::INFINITY, -1.0] {
        let config = NetConfig { epsilon, ..quick_config() };
        let err = Tracker::bind("127.0.0.1:0", 1, config).unwrap_err();
        assert!(
            matches!(err, P2pError::InvalidConfig { field: "epsilon", .. }),
            "ε = {epsilon}: {err:?}"
        );
    }
}

/// A tracker impostor whose `Init` carries an ε the auction cannot run:
/// the peer refuses it as malformed instead of bidding with it.
#[test]
fn a_non_finite_or_negative_init_epsilon_is_malformed_on_the_peer() {
    use p2p_net::{decode_net, encode_net, FrameConn, NetMsg};
    for epsilon in [f64::NAN, f64::INFINITY, -1.0] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            Peer::connect(&addr, 0, PeerConfig::default()).and_then(|mut p| p.run())
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream, Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(decode_net(&conn.recv().unwrap()).unwrap(), NetMsg::Hello { .. }));
        conn.send(&encode_net(&NetMsg::Welcome { peer_index: 0, peer_count: 1 })).unwrap();
        conn.send(&encode_net(&NetMsg::Init { epsilon, bidders: Vec::new() })).unwrap();
        let err = peer.join().unwrap().expect_err("the peer must refuse the init");
        assert!(matches!(err, P2pError::WireMalformed { .. }), "ε = {epsilon}: {err:?}");
        assert!(err.to_string().contains("epsilon"), "ε = {epsilon}: {err}");
    }
}

#[test]
fn peer_drop_mid_round_is_a_typed_error_within_budget() {
    let instance = random_instance(5, 4, 20);
    let config = NetConfig { io_timeout: Duration::from_millis(500), ..quick_config() };
    let mut tracker = Tracker::bind("127.0.0.1:0", 2, config.clone()).unwrap();
    let addr = tracker.local_addr().to_string();
    let spawn_peer = |fail_after: Option<u64>| {
        let addr = addr.clone();
        let cfg = PeerConfig {
            io_timeout: config.io_timeout,
            fail_after_polls: fail_after,
            ..PeerConfig::default()
        };
        std::thread::spawn(move || {
            let result = Peer::connect(&addr, 0, cfg).and_then(|mut p| p.run());
            drop(result); // the tracker-side error is what this test asserts
        })
    };
    let healthy = spawn_peer(None);
    let doomed = spawn_peer(Some(3));
    let started = Instant::now();
    let err = tracker.run(&instance, &mut NoProbe).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, P2pError::Disconnected { .. } | P2pError::Timeout { .. }),
        "expected a typed drop error, got {err:?}"
    );
    assert!(elapsed < Duration::from_secs(5), "drop detection took {elapsed:?}");
    tracker.shutdown();
    healthy.join().unwrap();
    doomed.join().unwrap();
}

/// A hand-rolled tracker impostor that completes the handshake and then
/// dies the way a killed process does — no shutdown courtesy message.
/// (A real [`Tracker`] sends `Shutdown` even from its drop handler, so
/// rude death has to be staged manually.)
fn dead_tracker_after_handshake(wedge: bool) -> (P2pError, Duration) {
    use p2p_net::{decode_net, encode_net, FrameConn, NetMsg};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer_cfg = PeerConfig { io_timeout: Duration::from_millis(300), ..PeerConfig::default() };
    let handle = std::thread::spawn(move || {
        let started = Instant::now();
        let err = Peer::connect(&addr, 0, peer_cfg)
            .and_then(|mut p| p.run())
            .expect_err("a dead tracker must error the peer out");
        (err, started.elapsed())
    });
    let (stream, _) = listener.accept().unwrap();
    let mut conn = FrameConn::new(stream, Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(decode_net(&conn.recv().unwrap()).unwrap(), NetMsg::Hello { .. }));
    conn.send(&encode_net(&NetMsg::Welcome { peer_index: 0, peer_count: 1 })).unwrap();
    if wedge {
        // Wedged: socket open, no traffic, no heartbeats. Hold the
        // connection until the peer gives up on its read deadline.
        let result = handle.join().unwrap();
        drop(conn);
        result
    } else {
        // Killed: the kernel resets the connection.
        drop(conn);
        handle.join().unwrap()
    }
}

#[test]
fn tracker_death_is_a_typed_error_on_the_peer_within_budget() {
    let (err, elapsed) = dead_tracker_after_handshake(false);
    assert!(
        matches!(err, P2pError::Disconnected { .. } | P2pError::Timeout { .. }),
        "expected a typed tracker-death error, got {err:?}"
    );
    assert!(elapsed < Duration::from_secs(5), "tracker-death detection took {elapsed:?}");
}

#[test]
fn wedged_tracker_is_a_typed_timeout_on_the_peer_within_budget() {
    let (err, elapsed) = dead_tracker_after_handshake(true);
    assert!(matches!(err, P2pError::Timeout { .. }), "expected a typed timeout, got {err:?}");
    assert!(elapsed < Duration::from_secs(5), "wedge detection took {elapsed:?}");
}

#[test]
fn unreachable_tracker_fails_typed_within_the_backoff_budget() {
    // Bind then drop, so the port is (momentarily) known-dead.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfg = PeerConfig {
        connect_attempts: 3,
        connect_backoff: Duration::from_millis(10),
        ..PeerConfig::default()
    };
    let started = Instant::now();
    let err = Peer::connect(&dead, 0, cfg).expect_err("nothing is listening");
    let elapsed = started.elapsed();
    match err {
        P2pError::ConnectFailed { addr, attempts, .. } => {
            assert_eq!(addr, dead);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected ConnectFailed, got {other:?}"),
    }
    // 3 attempts with 10 ms + 20 ms backoff: well under a second.
    assert!(elapsed < Duration::from_secs(2), "retry budget overrun: {elapsed:?}");
}

/// Runs `accept_peers` on its own thread and gives it 2 s to fail, so an
/// `accept` that nothing wakes fails the test instead of hanging it.
fn handshake_error_within_two_seconds(mut tracker: Tracker) -> P2pError {
    let (tx, rx) = channel();
    let accepting = std::thread::spawn(move || tx.send(tracker.accept_peers()));
    let received = rx.recv_timeout(Duration::from_secs(2));
    if let Err(RecvTimeoutError::Timeout) = received {
        panic!("accept_peers outlived its 200 ms handshake deadline by over 1.8 s");
    }
    accepting.join().expect("accept_peers does not panic").unwrap();
    received.unwrap().expect_err("the swarm never completes")
}

#[test]
fn incomplete_swarm_times_out_the_handshake() {
    let config = NetConfig { handshake_timeout: Duration::from_millis(200), ..quick_config() };
    let tracker = Tracker::bind("127.0.0.1:0", 2, config).unwrap();
    let err = handshake_error_within_two_seconds(tracker);
    assert!(matches!(err, P2pError::Timeout { .. }), "{err:?}");
}

#[test]
fn silent_client_times_out_the_handshake() {
    // A client that connects and never sends its `Hello` must not hold
    // the handshake past its deadline (here far below `io_timeout`).
    let config = NetConfig { handshake_timeout: Duration::from_millis(200), ..quick_config() };
    let tracker = Tracker::bind("127.0.0.1:0", 1, config).unwrap();
    let _silent = std::net::TcpStream::connect(tracker.local_addr()).unwrap();
    let err = handshake_error_within_two_seconds(tracker);
    assert!(matches!(err, P2pError::Timeout { .. }), "{err:?}");
}

/// Accepts a 2-peer swarm whose peers give up after 200 ms without
/// tracker traffic, leaves it idle for 600 ms, then runs one slot.
/// Returns the tracker's outcome and each peer's exit.
fn run_after_idle(
    instance: &WelfareInstance,
    heartbeat_every: Duration,
) -> (p2p_types::Result<AuctionOutcome>, Vec<p2p_types::Result<()>>) {
    let config = NetConfig { heartbeat_every, ..quick_config() };
    let mut tracker = Tracker::bind("127.0.0.1:0", 2, config).unwrap();
    let addr = tracker.local_addr().to_string();
    let peer_cfg = PeerConfig { io_timeout: Duration::from_millis(200), ..PeerConfig::default() };
    let peers: Vec<_> = (0..2)
        .map(|i| {
            let (addr, cfg) = (addr.clone(), peer_cfg.clone());
            std::thread::spawn(move || Peer::connect(&addr, i, cfg)?.run())
        })
        .collect();
    tracker.accept_peers().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let outcome = tracker.run(instance, &mut NoProbe);
    tracker.shutdown();
    (outcome, peers.into_iter().map(|p| p.join().unwrap()).collect())
}

#[test]
fn heartbeats_keep_idle_peers_alive() {
    let instance = random_instance(17, 5, 24);
    let flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1))
        .run(&CsrInstance::compile(&instance))
        .unwrap();
    let (outcome, peers) = run_after_idle(&instance, Duration::from_millis(50));
    let net = outcome.expect("heartbeats keep the idle swarm alive");
    assert_eq!(net.assignment.choices(), flat.assignment.choices());
    assert_eq!(net.duals.lambda, flat.duals.lambda);
    assert_eq!(net.rounds, flat.rounds);
    assert_eq!(net.bids_submitted, flat.bids_submitted);
    for exit in peers {
        exit.expect("a kept-alive peer exits cleanly on shutdown");
    }
}

#[test]
fn idle_peers_time_out_without_heartbeats() {
    // The same idle with heartbeats too sparse to reach the peers in time:
    // they give up, and the slot fails typed instead of hanging.
    let instance = random_instance(17, 5, 24);
    let (outcome, _) = run_after_idle(&instance, Duration::from_secs(10));
    let err = outcome.expect_err("the peers timed out during the idle");
    assert!(
        matches!(err, P2pError::Timeout { .. } | P2pError::Disconnected { .. }),
        "expected a typed failure, got {err:?}"
    );
}

/// The networked runtime's gates at slot scale: 10³ requests over 100
/// providers at ε = 0.01. Both wire protocols replay the flat engine's sweep
/// bit for bit and carry the `n·ε` certificate, and batching cuts frames
/// at least fivefold. Frame counts are deterministic.
#[test]
fn batched_polls_cut_frames_fivefold_on_a_thousand_request_slot() {
    let epsilon = 0.01;
    let requests = 1_000;
    let instance = shaped_instance(0x7E1 ^ requests as u64, 100, requests, 6, 6);
    let flat = FlatAuction::new(AuctionConfig::with_epsilon(epsilon), ShardCount::Fixed(1))
        .run(&CsrInstance::compile(&instance))
        .unwrap();
    let tol = epsilon * (requests as f64 + 1.0);
    for peers in [2, 4, 8] {
        let mut frames = [0u64; 2];
        for (total, batch_polls) in frames.iter_mut().zip([true, false]) {
            let config = NetConfig { epsilon, batch_polls, ..quick_config() };
            let (out, stats) =
                run_slot_local_stats(&instance, peers, &config, &mut NoProbe).unwrap();
            let label = format!("batch_polls {batch_polls}, {peers} peers");
            assert_eq!(out.assignment.choices(), flat.assignment.choices(), "{label}");
            assert_eq!(out.duals.lambda, flat.duals.lambda, "{label}");
            assert_eq!(out.rounds, flat.rounds, "{label}");
            assert_eq!(out.bids_submitted, flat.bids_submitted, "{label}");
            let report = verify_optimality(&instance, &out.assignment, &out.duals, tol);
            assert!(report.is_optimal(), "{label}: {:?}", report.violations);
            *total = stats.total();
        }
        let [batched, unbatched] = frames;
        assert!(
            batched * 5 <= unbatched,
            "{peers} peers: batching only cut frames from {unbatched} to {batched}"
        );
    }
}

#[test]
fn zero_capacity_providers_survive_the_wire() {
    let mut b = WelfareInstance::builder();
    let dead = b.add_provider(PeerId::new(1), 0);
    let live = b.add_provider(PeerId::new(2), 1);
    let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
    b.add_edge(r, dead, Valuation::new(9.0), Cost::new(0.0)).unwrap();
    b.add_edge(r, live, Valuation::new(5.0), Cost::new(1.0)).unwrap();
    let instance = b.build().unwrap();
    let sync = SyncAuction::new(AuctionConfig::paper()).run(&instance).unwrap();
    let net = run_slot_local(&instance, 2, &quick_config(), &mut NoProbe).unwrap();
    assert_eq!(net.assignment, sync.assignment);
    assert_eq!(net.duals, sync.duals);
    assert_eq!(net.assignment.provider_of(&instance, r), Some(live));
}
