//! The flat engine's zero-allocation guarantee, asserted with a counting
//! global allocator: after the first (warm-up) slot, the CSR hot loop —
//! runs into a reusable [`FlatOutcome`] — performs **zero** heap
//! allocations on same-shaped slots, with one worker and with two. The
//! instance layout is pinned too: building an instance grows a fixed set
//! of flat arrays (no allocation per request), and
//! [`CsrInstance::compile`] is a handle on those arrays that allocates
//! nothing.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently inside the measured windows.

use p2p_core::csr::{CsrInstance, FlatAuction, FlatOutcome};
use p2p_core::{AuctionConfig, NoProbe, ShardCount, WelfareInstance};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free and uncounted) — but only on threads
/// that opted in via [`MEASURED`]. The libtest harness's main thread sits
/// in a blocking `recv` while the test runs and lazily initializes its
/// channel-park context (`std::sync::mpmc::Context`) at an arbitrary
/// moment, so an unscoped counter flakes when that one-time allocation
/// races into the measured window. The hot loop under test runs entirely
/// on the test's own thread (shards=1 is sequential, and at shards=4 every
/// slice is far below the fan-out threshold, so even two workers scan it
/// inline), so thread-scoping loses no coverage.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations should count.
    static MEASURED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread opted into counting (false during TLS
/// teardown, when the keys are gone).
fn on_measured_thread() -> bool {
    MEASURED.try_with(std::cell::Cell::get).unwrap_or(false)
}

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic hash in [0, 1) — tie-free instance material (structural
/// ties at ε = 0 would livelock the paper rule; continuous values avoid
/// them).
fn unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A contended flash-crowd-shaped slot: `requests` requests over
/// `requests / 12` providers, ~6 candidate edges each.
fn slot_instance(salt: u64, requests: u64) -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let providers = (requests / 12).max(3);
    let us: Vec<_> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(100_000 + i as u32), 1 + (unit(salt ^ i) * 4.0) as u32))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        // A repeated provider is skipped before `add_edge`, whose rejection
        // would format an error message inside the measured window.
        let mut seen = [usize::MAX; 6];
        for k in 0..6u64 {
            let u = us[((unit(salt + d * 13 + k) * providers as f64) as usize).min(us.len() - 1)];
            let v = 2.0 + 6.0 * unit(salt + d * 31 + k * 7 + 1);
            let w = 0.2 + 3.0 * unit(salt + d * 17 + k * 11 + 2);
            if seen.contains(&u) {
                continue;
            }
            seen[k as usize] = u;
            b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn hot_loop_allocates_nothing_after_the_first_slot() {
    MEASURED.with(|m| m.set(true));
    // The builder appends to the instance's flat arrays: a few dozen
    // growth steps for 2,400 requests, not one allocation per request.
    let before = allocations();
    let big = slot_instance(3, 2_400);
    let built = allocations() - before;
    assert!(built < 128, "building 2,400 requests took {built} allocations");
    // Compiling copies nothing: the handle shares the instance's arrays.
    let before = allocations();
    let big_csr = CsrInstance::compile(&big);
    assert_eq!(allocations() - before, 0, "CsrInstance::compile allocated");
    assert_eq!(big_csr.edge_count(), big.edge_count());

    // Two same-shaped slots (different values — slot 2 is NOT a replay of
    // slot 1) for each engine schedule under test.
    let slot1 = slot_instance(1, 240);
    let slot2 = slot_instance(2, 240);
    let csr1 = CsrInstance::compile(&slot1);
    let csr2 = CsrInstance::compile(&slot2);

    // shards = 1 exercises the sequential sweep, 4 the batched sharded
    // schedule. Its slices hold at most 15 rows, so with two workers too
    // each stays on the calling thread: no helper, no price snapshot, no
    // channel traffic.
    for (shards, workers) in [(1usize, 1usize), (4, 1), (4, 2)] {
        let mut engine =
            FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(shards))
                .with_workers(workers);
        let mut out = FlatOutcome::default();

        // Warm-up slots: buffers grow to the slot shape here.
        engine.run_into(&csr1, &mut out).unwrap();
        engine.run_into(&csr2, &mut out).unwrap();
        let warmup_welfare = out.welfare();

        // Steady state: runs over both slots, zero allocations.
        let before = allocations();
        engine.run_into(&csr2, &mut out).unwrap();
        engine.run_into(&csr1, &mut out).unwrap();
        engine.run_into(&csr2, &mut out).unwrap();
        // Probes compiled in but disabled: the `NoProbe` entry points
        // monomorphize to the bare loop and must stay allocation-free too
        // (the observability layer's zero-overhead-when-off guarantee).
        engine.run_into_probed(&csr1, &mut out, &mut NoProbe).unwrap();
        engine.run_into_probed(&csr2, &mut out, &mut NoProbe).unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "shards={shards}, workers={workers}: the CSR hot loop must not allocate after warm-up"
        );
        assert!(out.welfare() > 0.0);
        assert_eq!(
            out.welfare(),
            warmup_welfare,
            "shards={shards}, workers={workers}: runs stay deterministic"
        );
    }
}
