//! `net_slot`: one auction slot over loopback TCP through the public
//! `p2p-net` calls — a tracker on the benchmark thread and peers on their
//! own threads, batched wire v2. Each slot does a fresh
//! bind → accept → sweep → shutdown, as the `auction_net` backend does. One
//! unit runs each of the run's slots once, so every measured slot replays
//! its warm-up slot.

use crate::inputs::{build_run, generate_run, Shape, SlotInputs};
use crate::measure::{time_build, Fnv, Recorder, SlotSample, Workload};
use crate::Scale;
use p2p_core::csr::{CsrInstance, FlatAuction};
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, NoProbe, ShardCount, WelfareInstance,
};
use p2p_net::{NetConfig, NetRunStats, Peer, PeerConfig, Tracker};
use p2p_types::P2pError;
use std::thread::JoinHandle;
use std::time::Instant;

/// ε (as in `net_bench`).
const EPSILON: f64 = 0.01;

/// Peer connections per slot.
pub const PEERS: usize = 2;

/// The `net_slot` workload.
pub struct NetSlot {
    inputs: Vec<SlotInputs>,
    instances: Vec<WelfareInstance>,
    config: NetConfig,
    /// The flat engine's outcome at one shard, slot by slot.
    references: Vec<AuctionOutcome>,
}

impl NetSlot {
    /// Generates the run's slots from `seed`, builds them and computes the
    /// flat reference outcomes.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let requests = match scale {
            Scale::Full => 1_000,
            Scale::Smoke => 100,
        };
        let shape = Shape { requests, requests_per_provider: 10, max_capacity: 6, max_edges: 6 };
        let inputs = generate_run(seed, shape);
        let instances = build_run(&inputs).map_err(|e| e.to_string())?;
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(EPSILON), ShardCount::Fixed(1));
        let references = instances
            .iter()
            .map(|i| flat.run(&CsrInstance::compile(i)).map_err(|e| format!("flat reference: {e}")))
            .collect::<Result<_, _>>()?;
        let config = NetConfig { epsilon: EPSILON, batch_polls: true, ..NetConfig::default() };
        Ok(NetSlot { inputs, instances, config, references })
    }

    fn slot(&self, k: usize, rec: &mut Recorder, measured: bool) -> Result<SlotSample, String> {
        let instance = &self.instances[k];
        let id = rec.slot_id();
        let t0 = Instant::now();
        let root = rec.tracer.open("slot", id, None);

        let span = rec.tracer.open("net.bind", id, root);
        let mut tracker = Tracker::bind("127.0.0.1:0", PEERS, self.config.clone())
            .map_err(|e| format!("bind: {e}"))?;
        let peers = spawn_peers(&tracker, &self.config);
        rec.tracer.close(span);

        let span = rec.tracer.open("net.accept", id, root);
        let accepted = tracker.accept_peers();
        rec.tracer.close(span);

        let span = rec.tracer.open("net.sweep", id, root);
        let swept = accepted.and_then(|()| tracker.run(instance, &mut NoProbe));
        let frames = tracker.frame_stats();
        rec.tracer.close(span);

        let span = rec.tracer.open("net.teardown", id, root);
        tracker.shutdown();
        let joined = join_peers(peers);
        rec.tracer.close(span);
        rec.tracer.close(root);
        let wall_s = t0.elapsed().as_secs_f64();

        let out = swept.map_err(|e| format!("sweep: {e}"))?;
        joined.map_err(|e| format!("peer: {e}"))?;
        self.check(k, &out, frames, rec, measured)?;
        let inputs = &self.inputs[k];
        let choices = out.assignment.choices();
        let inter_isp = choices
            .iter()
            .enumerate()
            .filter(|(r, c)| c.is_some_and(|e| inputs.is_inter_isp(*r, e)))
            .count();
        Ok(SlotSample {
            wall_s,
            requests: instance.request_count() as u64,
            edges: instance.edge_count() as u64,
            transfers: out.assignment.assigned_count() as u64,
            inter_isp: inter_isp as u64,
            welfare: out.assignment.welfare(instance).get(),
            rounds: out.rounds,
            bids: out.bids_submitted,
            frames_sent: frames.frames_sent,
            frames_recv: frames.frames_recv,
            ..SlotSample::default()
        })
    }

    /// Conservation, bit-identity to the flat engine, the certificate and
    /// replay of the warm-up outcome.
    fn check(
        &self,
        k: usize,
        out: &AuctionOutcome,
        frames: NetRunStats,
        rec: &mut Recorder,
        measured: bool,
    ) -> Result<(), String> {
        let instance = &self.instances[k];
        out.assignment.validate(instance).map_err(|e| format!("conservation: {e}"))?;
        let flat = &self.references[k];
        let identical = out.assignment == flat.assignment
            && out.duals.lambda == flat.duals.lambda
            && out.rounds == flat.rounds
            && out.bids_submitted == flat.bids_submitted;
        if !identical {
            return Err("the networked slot diverged from the flat engine".into());
        }
        let tol = crate::tolerance(EPSILON, instance.request_count());
        let report = verify_optimality(instance, &out.assignment, &out.duals, tol);
        if !report.is_optimal() {
            return Err(format!("certificate violated: {:?}", report.violations.first()));
        }
        let mut h = Fnv::new();
        h.choices(out.assignment.choices());
        h.prices(&out.duals.lambda);
        h.word(out.rounds);
        h.word(out.bids_submitted);
        h.word(frames.frames_sent);
        h.word(frames.frames_recv);
        rec.check_replay(measured, k, h.finish())
    }
}

type PeerHandle = JoinHandle<Result<(), P2pError>>;

/// One thread per peer: connect (with the peer's retry/backoff), then
/// serve until the tracker shuts the swarm down.
fn spawn_peers(tracker: &Tracker, config: &NetConfig) -> Vec<PeerHandle> {
    let addr = tracker.local_addr().to_string();
    let peer_config = PeerConfig { io_timeout: config.io_timeout, ..PeerConfig::default() };
    (0..PEERS)
        .map(|i| {
            let addr = addr.clone();
            let cfg = peer_config.clone();
            std::thread::spawn(move || Peer::connect(&addr, i as u64, cfg)?.run())
        })
        .collect()
}

/// Joins every peer thread, returning the first failure.
fn join_peers(peers: Vec<PeerHandle>) -> Result<(), String> {
    let mut first = Ok(());
    for h in peers {
        let r = match h.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("a peer thread panicked".to_string()),
        };
        if first.is_ok() {
            first = r;
        }
    }
    first
}

impl Workload for NetSlot {
    fn setup(&mut self) -> Result<f64, String> {
        time_build(|| build_run(&self.inputs))
    }

    fn unit(&mut self, rec: &mut Recorder, measured: bool) {
        for k in 0..self.instances.len() {
            let result = self.slot(k, rec, measured);
            rec.finish_slot(measured, result);
        }
    }
}
