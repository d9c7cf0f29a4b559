//! The coalesced swarm loop's zero-allocation steady state, asserted with
//! a counting global allocator: once the event queue's and the mail's
//! chain slabs and the per-node buffers have grown to the run's working
//! size, event dispatch, mail delivery and resequencing allocate nothing.
//!
//! Unlike the CSR engine (`csr_zero_alloc`), a swarm run builds its world
//! fresh per call, so warm-up cannot be a separate slot — the window is
//! carved out of a single run instead. An [`AuctionProbe`] snapshots the
//! allocation counter at every `price_change`/`round` callback into a
//! preallocated buffer; buffers reach their high-water marks in the
//! opening flash-crowd burst, so the back half of the callback stream must
//! sit on one flat allocation count.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! concurrently inside the measured windows.

use p2p_core::{
    verify_optimality, AuctionProbe, NetworkModel, SwarmAuction, SwarmConfig, WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, SimTime, Valuation, VideoId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free and uncounted) — but only on threads
/// that opted in via [`MEASURED`], for the same reason as `csr_zero_alloc`:
/// the libtest harness thread lazily allocates its channel-park context at
/// an arbitrary moment, and the swarm run is single-threaded anyway.
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

/// Records the allocation counter at every probe callback into a buffer
/// preallocated *before* measurement starts, so the recording itself
/// never allocates (pushes stay within capacity).
struct AllocTrace {
    snaps: Vec<u64>,
}

impl AllocTrace {
    fn with_capacity(cap: usize) -> Self {
        AllocTrace { snaps: Vec::with_capacity(cap) }
    }

    fn mark(&mut self) {
        if self.snaps.len() < self.snaps.capacity() {
            self.snaps.push(allocations());
        }
    }

    /// Allocations observed across the back half of the callback stream —
    /// zero means steady-state dispatch is allocation-free.
    fn tail_allocations(&self) -> u64 {
        let last = *self.snaps.last().expect("probe saw callbacks");
        last - self.snaps[self.snaps.len() / 2]
    }
}

impl AuctionProbe for AllocTrace {
    fn enabled(&self) -> bool {
        true
    }

    fn round(&mut self, _round: u64, _bids: u64, _conflicts: u64, _retries: u64, _retired: u64) {
        self.mark();
    }

    fn price_change(&mut self, _provider: usize, _old: f64, _new: f64, _at: SimTime) {
        self.mark();
    }
}

/// A deterministic hash in [0, 1) — tie-free instance material.
fn unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A contended flash-crowd slot: `requests` requests over `requests / 12`
/// providers, ~5 candidate edges each — enough conflict pressure that
/// prices keep moving (and the probe keeps sampling) deep into the run.
fn slot_instance(salt: u64, requests: u64) -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let providers = (requests / 12).max(3);
    let us: Vec<_> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(100_000 + i as u32), 1 + (unit(salt ^ i) * 3.0) as u32))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        for k in 0..5u64 {
            let u = us[((unit(salt + d * 13 + k) * providers as f64) as usize).min(us.len() - 1)];
            let v = 2.0 + 6.0 * unit(salt + d * 31 + k * 7 + 1);
            let w = 0.2 + 3.0 * unit(salt + d * 17 + k * 11 + 2);
            if b.add_edge(r, u, Valuation::new(v), Cost::new(w)).is_err() {
                continue; // duplicate (request, provider) pair — skip
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn swarm_dispatch_allocates_nothing_in_steady_state() {
    MEASURED.with(|m| m.set(true));
    let inst = slot_instance(5, 96);
    let config = SwarmConfig::with_epsilon(0.01);

    // Reactive mode on a latency-only network: uniform 1 ms hops make the
    // flash-crowd fan-in collide on identical timestamps, so the arena
    // mailboxes and the coalescing fast path both run hot. Zero faults
    // keep links in order — this is the dispatch/recycle loop itself, not
    // the resequencer, under the allocation microscope.
    let net = NetworkModel { base_latency: SimDuration::from_millis(1), ..NetworkModel::ideal() };
    let mut trace = AllocTrace::with_capacity(1 << 16);
    let out = SwarmAuction::new(config, net).run_probed(&inst, 42, &mut trace).unwrap();
    assert!(out.converged);
    assert!(out.coalesced_events > 0, "the coalesced path must actually execute: {out:?}");
    assert!(trace.snaps.len() >= 64, "probe window too small: {}", trace.snaps.len());
    assert_eq!(
        trace.tail_allocations(),
        0,
        "reactive dispatch + mailbox recycling must not allocate after warm-up"
    );
    let tol = 0.01 * (inst.request_count() as f64 + 1.0);
    assert!(verify_optimality(&inst, &out.assignment, &out.duals, tol).is_optimal());

    // The lossy preset: drops, duplicates and reorder detours park
    // out-of-order arrivals in the links' resequencing chains, which share
    // the mail slab, so faulty dispatch is allocation-free too.
    let mut trace = AllocTrace::with_capacity(1 << 16);
    let out =
        SwarmAuction::new(config, NetworkModel::lossy()).run_probed(&inst, 42, &mut trace).unwrap();
    assert!(out.converged);
    assert!(out.faults.resequenced > 0, "the resequencer must actually run: {:?}", out.faults);
    assert!(trace.snaps.len() >= 64, "probe window too small: {}", trace.snaps.len());
    assert_eq!(
        trace.tail_allocations(),
        0,
        "lossy dispatch + resequencing must not allocate after warm-up"
    );
    assert!(verify_optimality(&inst, &out.assignment, &out.duals, tol).is_optimal());

    // Ideal mode: the synchronous sweep replayed on virtual time. The
    // event queue and node buffers are warm after round 1; every later
    // round must run allocation-free.
    let mut trace = AllocTrace::with_capacity(1 << 16);
    let out =
        SwarmAuction::new(config, NetworkModel::ideal()).run_probed(&inst, 42, &mut trace).unwrap();
    assert!(out.converged);
    assert!(trace.snaps.len() >= 8, "probe window too small: {}", trace.snaps.len());
    assert_eq!(
        trace.tail_allocations(),
        0,
        "the ideal sweep loop must not allocate after its first round"
    );
}
