//! `P2P_CORES` pinning and shard-resolution parity.
//!
//! Every core-count consumer in the workspace (both engines' `Auto` shard
//! resolution and worker fan-out) routes through the single
//! [`available_cores`] entry point, pinnable via the `P2P_CORES`
//! environment variable. These tests mutate that variable, so
//! they live in their own integration-test binary: each test binary is its
//! own process, and the tests below run under a process-wide lock so
//! parallel test threads never observe each other's pins.

use p2p_core::csr::FlatAuction;
use p2p_core::{available_cores, AuctionConfig, ShardCount, ShardedAuction};
use std::sync::Mutex;

/// Serializes every env-mutating test in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `P2P_CORES` set to `value` (or unset for `None`),
/// restoring the previous state afterwards.
fn with_pin<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("P2P_CORES").ok();
    match value {
        Some(v) => std::env::set_var("P2P_CORES", v),
        None => std::env::remove_var("P2P_CORES"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("P2P_CORES", v),
        None => std::env::remove_var("P2P_CORES"),
    }
    out
}

#[test]
fn pin_overrides_the_machine_core_count() {
    for cores in [1usize, 2, 3, 17] {
        let pinned = with_pin(Some(&cores.to_string()), available_cores);
        assert_eq!(pinned, cores);
    }
}

#[test]
fn invalid_pins_fall_back_to_the_machine() {
    let machine = with_pin(None, available_cores);
    assert!(machine >= 1);
    for bad in ["0", "-3", "abc", "", "  ", "1.5"] {
        let got = with_pin(Some(bad), available_cores);
        assert_eq!(got, machine, "pin {bad:?} should fall back");
    }
    // Surrounding whitespace is tolerated on a valid pin.
    assert_eq!(with_pin(Some(" 4 "), available_cores), 4);
}

/// The regression the satellite pins down: `ShardedAuction` and
/// `FlatAuction` resolve `Auto` through the *same* entry point, so for the
/// same slot size on pinned cores they always pick the same effective
/// shard count — the two engines can never drift apart again.
#[test]
fn nested_and_flat_engines_resolve_identical_shard_counts() {
    for cores in [1usize, 2, 4, 8] {
        with_pin(Some(&cores.to_string()), || {
            for shards in [ShardCount::Auto, ShardCount::Fixed(3)] {
                let nested = ShardedAuction::new(AuctionConfig::paper(), shards);
                let flat = FlatAuction::new(AuctionConfig::paper(), shards);
                for requests in [0usize, 100, 256, 512, 1_000, 4_096, 10_000, 100_000] {
                    assert_eq!(
                        nested.effective_shards(requests),
                        flat.effective_shards(requests),
                        "cores={cores} shards={shards:?} requests={requests}"
                    );
                }
            }
        });
    }
}

#[test]
fn auto_resolution_is_capped_by_the_pin() {
    with_pin(Some("2"), || {
        let flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Auto);
        // Small slots stay sequential; large ones cap at the pinned cores.
        assert_eq!(flat.effective_shards(100), 1);
        assert_eq!(flat.effective_shards(10_000), 2);
        assert_eq!(ShardCount::Auto.resolve(), 2);
    });
    with_pin(Some("64"), || {
        let nested = ShardedAuction::new(AuctionConfig::paper(), ShardCount::Auto);
        // 10_000 / 256 = 39 shards, under the generous pin.
        assert_eq!(nested.effective_shards(10_000), 39);
    });
}

/// Pinning changes only the fan-out, never the outcome: a pinned 1-core
/// run and an unpinned run of the same instance are bit-identical.
#[test]
fn pinning_does_not_change_outcomes() {
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
    let mut b = p2p_core::WelfareInstance::builder();
    let providers: Vec<_> = (0..6).map(|u| b.add_provider(PeerId::new(100 + u), 2)).collect();
    for d in 0..40u32 {
        let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), d)));
        for (i, &u) in providers.iter().enumerate() {
            let v = 2.0 + f64::from(d % 7) * 0.31 + i as f64 * 0.17;
            b.add_edge(r, u, Valuation::new(v), Cost::new(0.4 + i as f64 * 0.05)).unwrap();
        }
    }
    let inst = b.build().unwrap();
    let csr = p2p_core::CsrInstance::compile(&inst);
    let pinned = with_pin(Some("1"), || {
        FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4)).run(&csr).unwrap()
    });
    let free = with_pin(None, || {
        FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4)).run(&csr).unwrap()
    });
    assert_eq!(pinned.assignment, free.assignment);
    assert_eq!(pinned.duals, free.duals);
    assert_eq!(pinned.rounds, free.rounds);
}
