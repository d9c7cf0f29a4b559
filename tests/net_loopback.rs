//! Multi-OS-process certification of the networked runtime: the `tracker`
//! and `peer` binaries as real processes over 127.0.0.1, asserting
//! bit-identity against the in-process flat engine and typed (never
//! hanging) failure paths across the process boundary.
//!
//! The binaries are compiled as part of the workspace build; set
//! `P2P_NET_BIN_DIR` to point elsewhere if the target layout differs.

use isp_p2p::net::{bin_path, run_multiprocess, MultiProcessConfig};
use isp_p2p::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A generic (tie-free w.p. 1) random instance shaped like a slot problem,
/// same bands as the engine-equivalence oracle.
fn random_instance(seed: u64, providers: usize, requests: usize) -> WelfareInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WelfareInstance::builder();
    let ps: Vec<_> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(5000 + i as u32), rng.gen_range(1..5)))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        let k = rng.gen_range(1..=providers.min(4));
        let mut used = std::collections::HashSet::new();
        for _ in 0..k {
            let u = ps[rng.gen_range(0..providers)];
            if used.insert(u) {
                b.add_edge(
                    r,
                    u,
                    Valuation::new(rng.gen_range(0.8..8.0)),
                    Cost::new(rng.gen_range(0.0..10.0)),
                )
                .unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn multiprocess_swarm_is_bit_identical_to_the_flat_engine() {
    for (seed, peers) in [(1, 3), (2, 5)] {
        let instance = random_instance(seed, 5, 24);
        let csr = CsrInstance::compile(&instance);
        let flat =
            FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1)).run(&csr).unwrap();
        let config = MultiProcessConfig { peers, ..MultiProcessConfig::default() };
        let net = run_multiprocess(&instance, &config).unwrap();
        assert_eq!(net.assignment.choices(), flat.assignment.choices(), "seed {seed}");
        assert_eq!(net.duals.lambda, flat.duals.lambda, "seed {seed}");
        assert_eq!(net.rounds, flat.rounds, "seed {seed}");
        assert_eq!(net.bids_submitted, flat.bids_submitted, "seed {seed}");
        // The wire run carries the same n·ε optimality certificate.
        let n = instance.request_count() as f64;
        let report = verify_optimality(&instance, &net.assignment, &net.duals, 1e-9 * (n + 1.0));
        assert!(report.is_optimal(), "seed {seed}: {report:?}");
    }
}

#[test]
fn crashing_peer_process_fails_the_run_with_a_typed_error() {
    let instance = random_instance(9, 4, 20);
    let config = MultiProcessConfig {
        io_timeout: Duration::from_millis(800),
        deadline: Duration::from_secs(30),
        fail_peer_after_polls: Some((1, 3)),
        ..MultiProcessConfig::default()
    };
    let err = run_multiprocess(&instance, &config).unwrap_err();
    assert!(
        matches!(err, P2pError::Disconnected { .. } | P2pError::Timeout { .. }),
        "expected a typed peer-crash error across the process boundary, got {err:?}"
    );
}

#[test]
fn a_non_finite_epsilon_is_a_typed_error_across_the_process_boundary() {
    let instance = random_instance(4, 3, 8);
    for epsilon in [f64::NAN, f64::INFINITY] {
        let config = MultiProcessConfig { epsilon, ..MultiProcessConfig::default() };
        let err = run_multiprocess(&instance, &config).unwrap_err();
        assert!(matches!(err, P2pError::InvalidConfig { .. }), "ε = {epsilon}: {err:?}");
        assert!(err.to_string().contains("`epsilon`"), "ε = {epsilon}: {err}");
    }
}

#[test]
fn peer_process_against_a_dead_port_reports_connect_failed() {
    // Bind then drop, so the port is (momentarily) known-dead.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = std::process::Command::new(bin_path("peer").unwrap())
        .args(["--tracker", &dead])
        .args(["--attempts", "2"])
        .args(["--backoff-ms", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    assert!(last.starts_with("PEER_ERR connect_failed"), "unexpected stdout: {stdout:?}");
}
