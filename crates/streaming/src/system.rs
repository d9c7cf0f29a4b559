//! The slot-driven streaming system.

use crate::buffer::ChunkBuffer;
use crate::config::{ClockMode, SeedPlacement, SystemConfig};
use crate::peer::PeerState;
use crate::tracker::Tracker;
use p2p_core::WelfareInstance;
use p2p_metrics::{Hll, PhaseTimings, RunReport, SlotMetrics, SlotRecorder, SlotReport};
use p2p_sched::{ChunkScheduler, Schedule, SlotProblem};
use p2p_topology::Topology;
use p2p_types::{
    Bandwidth, ChunkId, Cost, IspId, P2pError, PeerId, Result, SimDuration, SimTime, SlotIndex,
    VideoId,
};
use p2p_workload::churn::{ChurnConfig, ChurnModel};
use p2p_workload::{PeerArrival, UniformRange, VideoCatalog, ZipfMandelbrot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// The assembled P2P VoD system: peers + tracker + topology + scheduler,
/// advanced one time slot at a time.
///
/// # Examples
///
/// See the crate-level example.
pub struct System {
    config: SystemConfig,
    catalog: VideoCatalog,
    topology: Topology,
    tracker: Tracker,
    peers: Vec<Option<PeerState>>,
    scheduler: Box<dyn ChunkScheduler>,
    recorder: SlotRecorder,
    slot: SlotIndex,
    rng: StdRng,
    churn: Option<ChurnState>,
    pending_static: Vec<PeerArrival>,
    next_isp: u16,
    /// Per-ISP upload-capacity multipliers (scenario throttles); peers in
    /// an absent ISP run at full capacity.
    isp_throttles: HashMap<IspId, f64>,
    /// Workload recording/replay state (scenario sweeps record the first
    /// run's arrival trace and replay it for every other scheduler).
    workload: WorkloadMode,
    /// Run-report accumulation (`None` unless [`System::enable_probes`]
    /// was called; the bare slot loop carries zero observability cost).
    obs: Option<ObsState>,
    /// The last built slot's request and edge counts: the next slot's
    /// instance reserves its arrays from them (plus an eighth), so a slot
    /// about the size of the last one grows no array by doubling, which
    /// would leave every outgrown block resident.
    last_shape: (usize, usize),
}

/// Bounded-memory observability accumulation: one [`SlotReport`] per
/// stepped slot plus three fixed-size HLL sketches — memory is
/// O(slots + sketches), independent of swarm size.
struct ObsState {
    report: RunReport,
    requesters: Hll,
    providers: Hll,
    edges: Hll,
}

impl ObsState {
    fn new(scheduler: &str, slot_secs: f64) -> Self {
        ObsState {
            report: RunReport::new("", scheduler, slot_secs),
            requesters: Hll::new(Hll::DEFAULT_PRECISION),
            providers: Hll::new(Hll::DEFAULT_PRECISION),
            edges: Hll::new(Hll::DEFAULT_PRECISION),
        }
    }

    /// Writes the sketch estimates into the report and returns it.
    fn finish(mut self) -> RunReport {
        self.report.uniques.precision = self.requesters.precision();
        self.report.uniques.requesters = self.requesters.estimate();
        self.report.uniques.providers = self.providers.estimate();
        self.report.uniques.edges = self.edges.estimate();
        self.report
    }
}

struct ChurnState {
    model: ChurnModel,
    /// Generated-but-not-yet-due arrivals. A queue (not a single slot):
    /// churn bursts can put many arrivals between two slot boundaries, and
    /// none may be dropped.
    pending: VecDeque<PeerArrival>,
}

/// Workload generation mode (see [`System::record_workload`]).
enum WorkloadMode {
    /// Arrivals are drawn live from the system RNG and churn model.
    Live,
    /// Live, plus every admitted watcher is appended to the trace.
    Record(Vec<(u64, PeerArrival)>),
    /// Arrivals come verbatim from a recorded trace; every
    /// workload-generating hook is a no-op.
    Replay(VecDeque<(u64, PeerArrival)>),
}

/// A watcher-arrival trace recorded by [`System::record_workload`]: each
/// admitted watcher with the slot that admitted it, in admission order.
/// Replaying the trace on a fresh same-seed system reproduces the identical
/// peer population (ids, ISPs, videos, capacities, departures) without
/// re-deriving it from the RNG — scenario sweeps run the generation once
/// per (scenario, seed) instead of once per scheduler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadTrace {
    arrivals: Vec<(u64, PeerArrival)>,
}

impl WorkloadTrace {
    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// A provider's effective upload capacity under an ISP throttle factor.
///
/// A throttle is a hard cap on whole-chunk uploads, so fractional
/// capacities floor — but flooring must not silently zero a capacity-1
/// uploader under a mild throttle (factor 0.5 is "half speed", not an
/// outage), so nonzero factors keep at least one chunk per slot. A factor
/// of exactly 0 is the documented hard-outage semantics: the ISP's peers
/// upload nothing.
fn throttled_capacity(cap: u32, factor: f64) -> u32 {
    if factor <= 0.0 || cap == 0 {
        0
    } else {
        ((f64::from(cap) * factor).floor() as u32).clamp(1, cap)
    }
}

/// One neighbour a watcher can download from in the slot being built (see
/// [`System::build_slot_problem`]).
struct Candidate<'a> {
    /// The neighbour's provider index in the slot's instance.
    provider: usize,
    /// The link cost `w_{u→d}` from the neighbour to the watcher.
    cost: Cost,
    /// The neighbour's chunk holdings.
    buffer: &'a ChunkBuffer,
}

impl System {
    /// Builds the system: catalog, topology and seed peers; no watchers yet.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for invalid configuration.
    pub fn new(config: SystemConfig, scheduler: Box<dyn ChunkScheduler>) -> Result<Self> {
        config.validate()?;
        let catalog = VideoCatalog::uniform(config.video_count, config.streaming)?;
        let topology = Topology::new(config.topology)?;
        let mut sys = System {
            rng: StdRng::seed_from_u64(config.seed),
            recorder: SlotRecorder::new(config.slot_len),
            catalog,
            topology,
            tracker: Tracker::new(),
            peers: Vec::new(),
            scheduler,
            slot: SlotIndex::new(0),
            churn: None,
            pending_static: Vec::new(),
            next_isp: 0,
            isp_throttles: HashMap::new(),
            workload: WorkloadMode::Live,
            obs: None,
            last_shape: (0, 0),
            config,
        };
        sys.spawn_seeds()?;
        Ok(sys)
    }

    fn spawn_seeds(&mut self) -> Result<()> {
        let chunk_count = self.catalog.params().chunks_per_video();
        let capacity = Bandwidth::new(self.config.seed_capacity());
        let placements: Vec<(VideoId, IspId)> = match self.config.seeds {
            SeedPlacement::PerVideoTotal(k) => (0..self.config.video_count)
                .flat_map(|v| {
                    let m = self.config.isp_count as usize;
                    (0..k as usize).map(move |j| {
                        (VideoId::new(v as u32), IspId::new(((v * k as usize + j) % m) as u16))
                    })
                })
                .collect(),
            SeedPlacement::PerIspPerVideo(k) => (0..self.config.video_count)
                .flat_map(|v| {
                    (0..self.config.isp_count).flat_map(move |isp| {
                        (0..k).map(move |_| (VideoId::new(v as u32), IspId::new(isp)))
                    })
                })
                .collect(),
        };
        for (video, isp) in placements {
            let id = self.alloc_peer_id();
            let seed = PeerState::seed(id, isp, video, chunk_count, capacity);
            self.topology.register_peer(id, isp)?;
            self.tracker.register(id, video, true);
            self.peers[id.index()] = Some(seed);
        }
        Ok(())
    }

    fn alloc_peer_id(&mut self) -> PeerId {
        self.peers.push(None);
        PeerId::new((self.peers.len() - 1) as u32)
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The video catalog.
    pub fn catalog(&self) -> &VideoCatalog {
        &self.catalog
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The metrics recorder.
    pub fn recorder(&self) -> &SlotRecorder {
        &self.recorder
    }

    /// The upcoming slot index.
    pub fn current_slot(&self) -> SlotIndex {
        self.slot
    }

    /// The simulated time at the upcoming slot's start.
    pub fn now(&self) -> SimTime {
        self.slot.start(self.config.slot_len)
    }

    /// A peer's state, if online.
    pub fn peer(&self, id: PeerId) -> Option<&PeerState> {
        self.peers.get(id.index()).and_then(Option::as_ref)
    }

    /// Number of online watchers (excludes seeds).
    pub fn watcher_count(&self) -> usize {
        self.peers.iter().flatten().filter(|p| !p.is_seed()).count()
    }

    /// Number of online peers including seeds.
    pub fn online_count(&self) -> usize {
        self.peers.iter().flatten().count()
    }

    /// Number of online seeds.
    pub fn seed_count(&self) -> usize {
        self.peers.iter().flatten().filter(|p| p.is_seed()).count()
    }

    // ---- workload recording / replay ------------------------------------

    /// Starts recording every watcher admission (call before the first
    /// slot). The finished trace, obtained via
    /// [`System::take_workload_trace`], can be replayed on a fresh
    /// same-seed system with [`System::replay_workload`] to reproduce the
    /// identical workload without re-deriving it — how scenario sweeps
    /// share one generated workload across schedulers.
    pub fn record_workload(&mut self) {
        self.workload = WorkloadMode::Record(Vec::new());
    }

    /// Finishes recording and returns the trace (`None` unless
    /// [`System::record_workload`] was active).
    pub fn take_workload_trace(&mut self) -> Option<WorkloadTrace> {
        match std::mem::replace(&mut self.workload, WorkloadMode::Live) {
            WorkloadMode::Record(arrivals) => Some(WorkloadTrace { arrivals }),
            other => {
                self.workload = other;
                None
            }
        }
    }

    /// Switches the system to trace replay: watcher arrivals come verbatim
    /// from `trace` at their recorded slots, and every workload-*generating*
    /// entry point ([`System::add_static_peers`],
    /// [`System::enable_poisson_churn`], [`System::inject_flash_crowd`],
    /// [`System::set_churn_rate`], [`System::set_churn_popularity`])
    /// becomes a no-op — the trace already contains their effects. Events
    /// that mutate topology, seeds or throttles still apply normally.
    pub fn replay_workload(&mut self, trace: WorkloadTrace) {
        self.workload = WorkloadMode::Replay(trace.arrivals.into());
    }

    /// Whether the system is replaying a recorded workload trace.
    pub fn is_replaying_workload(&self) -> bool {
        matches!(self.workload, WorkloadMode::Replay(_))
    }

    // ---- end workload recording / replay --------------------------------

    /// Adds `n` watchers with join times staggered over
    /// `config.static_stagger`, Zipf-chosen videos, round-robin ISPs and
    /// uniform upload capacities — the paper's "static network". A no-op
    /// during workload replay (the trace already contains the arrivals).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] if distribution parameters are
    /// invalid.
    pub fn add_static_peers(&mut self, n: usize) -> Result<()> {
        if self.is_replaying_workload() {
            return Ok(());
        }
        let zipf = ZipfMandelbrot::paper_video_popularity(self.config.video_count);
        let caps = UniformRange::new(self.config.upload_multiple.0, self.config.upload_multiple.1)?;
        let stagger = self.config.static_stagger.as_secs_f64();
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            let at = SimTime::from_secs_f64(self.rng.gen::<f64>() * stagger);
            arrivals.push(self.draw_arrival(at, None, None, &zipf, &caps));
        }
        self.enqueue_pending(arrivals);
        Ok(())
    }

    /// Draws one synthetic arrival: round-robin ISP and paper-law video
    /// unless pinned, uniform upload capacity, no early departure.
    fn draw_arrival(
        &mut self,
        at: SimTime,
        video: Option<VideoId>,
        isp: Option<IspId>,
        zipf: &ZipfMandelbrot,
        caps: &UniformRange,
    ) -> PeerArrival {
        let isp = isp.unwrap_or_else(|| {
            let i = IspId::new(self.next_isp);
            self.next_isp = (self.next_isp + 1) % self.config.isp_count;
            i
        });
        PeerArrival {
            at,
            isp,
            video: video.unwrap_or_else(|| VideoId::new(zipf.sample_index(&mut self.rng) as u32)),
            upload_rate_multiple: caps.sample(&mut self.rng),
            departs_at: None,
        }
    }

    /// Queues arrivals for slot-boundary admission.
    fn enqueue_pending(&mut self, arrivals: Vec<PeerArrival>) {
        // Pop-from-end admission order ⇒ sort descending by time.
        self.pending_static.extend(arrivals);
        self.pending_static.sort_by_key(|a| std::cmp::Reverse(a.at));
    }

    /// Enables Poisson churn (dynamic experiments): joins at
    /// `config.arrival_rate`, early departures with
    /// `config.early_departure_prob`. A no-op during workload replay.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] if churn parameters are invalid.
    pub fn enable_poisson_churn(&mut self) -> Result<()> {
        if self.is_replaying_workload() {
            return Ok(());
        }
        let cc = ChurnConfig {
            arrival_rate: self.config.arrival_rate,
            early_departure_prob: self.config.early_departure_prob,
            upload_multiple: self.config.upload_multiple,
            isp_count: self.config.isp_count,
        };
        let mut model = ChurnModel::new(cc, &self.catalog)?;
        // Enabling churn mid-run must not flood the system with back-dated
        // arrivals: the process starts counting from the current instant.
        model.advance_to(self.now());
        self.churn = Some(ChurnState { model, pending: VecDeque::new() });
        Ok(())
    }

    // ---- scenario event hooks -------------------------------------------
    //
    // Controlled mutation APIs applied at slot boundaries by the
    // `p2p-scenario` engine. Each hook only uses the system RNG in ways
    // that are independent of the installed scheduler, so the same seed
    // and event sequence reproduce the identical workload under every
    // scheduler.

    /// Injects a flash crowd: `n` watchers joining at the upcoming slot
    /// boundary. `video`/`isp` pin the crowd to one title or region;
    /// `None` draws videos from the paper's Zipf–Mandelbrot law and
    /// spreads ISPs round-robin.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for an unknown video or ISP.
    pub fn inject_flash_crowd(
        &mut self,
        n: usize,
        video: Option<VideoId>,
        isp: Option<IspId>,
    ) -> Result<()> {
        if let Some(v) = video {
            self.catalog.video(v)?;
        }
        if let Some(i) = isp {
            if i.index() >= usize::from(self.config.isp_count) {
                return Err(P2pError::invalid_config("isp", "id out of range"));
            }
        }
        // Validate before the replay short-circuit so replayed runs reject
        // exactly what recorded runs would have rejected.
        if self.is_replaying_workload() {
            return Ok(());
        }
        let zipf = ZipfMandelbrot::paper_video_popularity(self.config.video_count);
        let caps = UniformRange::new(self.config.upload_multiple.0, self.config.upload_multiple.1)?;
        let at = self.now();
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            arrivals.push(self.draw_arrival(at, video, isp, &zipf, &caps));
        }
        self.enqueue_pending(arrivals);
        Ok(())
    }

    /// Fails up to `count` seed peers (lowest peer ids first, so the
    /// victim set is deterministic), optionally only seeds of one video.
    /// Returns how many were actually removed. Failed seeds vanish from
    /// the tracker and topology; neighbor lists shed them at the next
    /// slot boundary, exactly like a departed watcher.
    pub fn fail_seeds(&mut self, count: usize, video: Option<VideoId>) -> usize {
        let victims: Vec<PeerId> = self
            .peers
            .iter()
            .flatten()
            .filter(|p| p.is_seed() && video.is_none_or(|v| p.video() == v))
            .map(PeerState::id)
            .take(count)
            .collect();
        for id in &victims {
            if let Some(p) = self.peers[id.index()].take() {
                self.tracker.unregister(*id, p.video());
                self.topology.unregister_peer(*id);
            }
        }
        victims.len()
    }

    /// Brings up a fresh seed for `video` inside `isp` (late seeding /
    /// seed recovery), with the configured seed capacity and a full buffer.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for an unknown video or ISP.
    pub fn add_seed(&mut self, video: VideoId, isp: IspId) -> Result<PeerId> {
        let chunk_count = self.catalog.video(video)?.chunk_count();
        if isp.index() >= usize::from(self.config.isp_count) {
            return Err(P2pError::invalid_config("isp", "id out of range"));
        }
        let id = self.alloc_peer_id();
        let capacity = Bandwidth::new(self.config.seed_capacity());
        let seed = PeerState::seed(id, isp, video, chunk_count, capacity);
        self.topology.register_peer(id, isp)?;
        self.tracker.register(id, video, true);
        self.peers[id.index()] = Some(seed);
        Ok(id)
    }

    /// Changes the Poisson churn arrival rate mid-run, enabling churn
    /// first (from the current instant) if it was off.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for a non-positive rate.
    pub fn set_churn_rate(&mut self, rate: f64) -> Result<()> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(P2pError::invalid_config("arrival_rate", "must be positive"));
        }
        if self.is_replaying_workload() {
            return Ok(());
        }
        if self.churn.is_none() {
            self.enable_poisson_churn()?;
        }
        let now = self.now();
        let churn = self.churn.as_mut().expect("just enabled");
        churn.model.set_rate(rate)?;
        // Drop the pre-sampled old-rate arrivals and resample from this
        // instant: memorylessness makes the restart statistically exact,
        // and the burst takes effect at its event slot instead of after
        // one stale old-rate gap.
        churn.pending.clear();
        churn.model.restart_at(now);
        self.config.arrival_rate = rate;
        Ok(())
    }

    /// Re-weights churn video popularity to a Zipf–Mandelbrot law with the
    /// given `alpha`/`q` (popularity shifts: large `alpha` concentrates
    /// demand on the head of the catalog). Enables churn if it was off.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for invalid law parameters.
    pub fn set_churn_popularity(&mut self, alpha: f64, q: f64) -> Result<()> {
        let law = ZipfMandelbrot::new(self.config.video_count, alpha, q)?;
        if self.is_replaying_workload() {
            return Ok(());
        }
        if self.churn.is_none() {
            self.enable_poisson_churn()?;
        }
        let now = self.now();
        let churn = self.churn.as_mut().expect("just enabled");
        churn.model.set_popularity(law)?;
        // The queued arrival was drawn under the old law; resample it.
        churn.pending.clear();
        churn.model.restart_at(now);
        Ok(())
    }

    /// Throttles the upload capacity of every peer in `isp` by a
    /// multiplicative `factor` in `[0, 1]`, applied when slot problems are
    /// built; replaces any previous throttle for that ISP (1.0 lifts it).
    ///
    /// Capacities floor to whole chunks per slot, but a nonzero factor
    /// never floors a nonzero uploader to 0 — a mild throttle is "slower",
    /// not an outage, so at least one chunk per slot survives. A factor of
    /// exactly 0 is the explicit hard-outage semantics: the ISP's peers
    /// upload nothing until the throttle is lifted.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for an out-of-range ISP or a
    /// factor outside `[0, 1]`.
    pub fn set_isp_throttle(&mut self, isp: IspId, factor: f64) -> Result<()> {
        if isp.index() >= usize::from(self.config.isp_count) {
            return Err(P2pError::invalid_config("isp", "id out of range"));
        }
        if !factor.is_finite() || !(0.0..=1.0).contains(&factor) {
            return Err(P2pError::invalid_config("throttle", "must be a finite factor in [0, 1]"));
        }
        self.isp_throttles.insert(isp, factor);
        Ok(())
    }

    /// Removes every per-ISP throttle.
    pub fn clear_isp_throttles(&mut self) {
        self.isp_throttles.clear();
    }

    /// The active upload-capacity multiplier of an ISP (1.0 = unthrottled).
    pub fn isp_throttle(&self, isp: IspId) -> f64 {
        self.isp_throttles.get(&isp).copied().unwrap_or(1.0)
    }

    /// Reprices every inter-ISP link by `factor` (see
    /// [`Topology::set_inter_cost_scale`]).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for invalid factors.
    pub fn set_inter_link_cost_scale(&mut self, factor: f64) -> Result<()> {
        self.topology.set_inter_cost_scale(factor)
    }

    /// Reprices the inter-ISP links touching `isp` by `factor` (see
    /// [`Topology::set_isp_cost_scale`]).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for invalid factors or ISPs.
    pub fn set_isp_link_cost_scale(&mut self, isp: IspId, factor: f64) -> Result<()> {
        self.topology.set_isp_cost_scale(isp, factor)
    }

    /// Drops all link-cost repricing, restoring the base cost model.
    pub fn reset_link_cost_scales(&mut self) {
        self.topology.reset_cost_scales();
    }

    // ---- end scenario event hooks ---------------------------------------

    fn spawn_watcher(&mut self, arrival: PeerArrival) -> Result<PeerId> {
        if let WorkloadMode::Record(trace) = &mut self.workload {
            trace.push((self.slot.get(), arrival));
        }
        let id = self.alloc_peer_id();
        let chunk_count = self.catalog.video(arrival.video)?.chunk_count();
        let watcher = PeerState::watcher(
            id,
            arrival.isp,
            arrival.video,
            chunk_count,
            self.catalog.params().chunks_per_second(),
            arrival.at + self.config.startup_delay,
            Bandwidth::new(self.config.watcher_capacity(arrival.upload_rate_multiple)),
            arrival.departs_at,
        );
        self.topology.register_peer(id, arrival.isp)?;
        self.tracker.register(id, arrival.video, false);
        self.peers[id.index()] = Some(watcher);
        Ok(id)
    }

    /// Admits all pending joins with `at <= now` (the paper admits newly
    /// joined peers at slot boundaries so running auctions are undisturbed).
    fn admit_pending(&mut self, now: SimTime) -> Result<()> {
        if matches!(self.workload, WorkloadMode::Replay(_)) {
            // Scripted admission: spawn the trace's arrivals for this slot
            // in recorded order — identical ids, ISPs and capacities as the
            // recorded run, with zero RNG/churn-model work.
            let slot = self.slot.get();
            loop {
                let WorkloadMode::Replay(trace) = &mut self.workload else { unreachable!() };
                match trace.front() {
                    Some(&(s, a)) if s <= slot => {
                        trace.pop_front();
                        self.spawn_watcher(a)?;
                    }
                    _ => break,
                }
            }
            return Ok(());
        }
        while let Some(a) = self.pending_static.last() {
            if a.at > now {
                break;
            }
            let a = self.pending_static.pop().expect("peeked");
            self.spawn_watcher(a)?;
        }
        // Poisson arrivals: top the queue up until its tail is beyond `now`
        // (so the generator is always exactly one arrival ahead), then admit
        // every arrival that is due. The queue never drops arrivals, no
        // matter how many a churn burst packs into one slot.
        if let Some(churn) = self.churn.as_mut() {
            while churn.pending.back().is_none_or(|a| a.at <= now) {
                let a = churn.model.next_arrival(&self.catalog, &mut self.rng);
                churn.pending.push_back(a);
            }
        }
        while let Some(churn) = self.churn.as_mut() {
            match churn.pending.front() {
                Some(a) if a.at <= now => {
                    let a = churn.pending.pop_front().expect("peeked");
                    self.spawn_watcher(a)?;
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Removes watchers that finished or departed by `now`.
    fn remove_gone(&mut self, now: SimTime) {
        let gone: Vec<PeerId> =
            self.peers.iter().flatten().filter(|p| p.gone(now)).map(PeerState::id).collect();
        for id in &gone {
            if let Some(p) = self.peers[id.index()].take() {
                self.tracker.unregister(*id, p.video());
                self.topology.unregister_peer(*id);
            }
        }
        let online: Vec<bool> = self.peers.iter().map(Option::is_some).collect();
        for p in self.peers.iter_mut().flatten() {
            p.neighbors.retain(|n| online.get(n.index()).copied().unwrap_or(false));
        }
    }

    /// Refills neighbor lists up to the configured target.
    fn refresh_neighbors(&mut self, now: SimTime) {
        // Playback positions by peer index (0.0 for an absent peer).
        let positions: Vec<f64> =
            self.peers.iter().map(|p| p.as_ref().map_or(0.0, |p| p.position(now))).collect();
        let needy: Vec<(PeerId, VideoId, f64)> = self
            .peers
            .iter()
            .flatten()
            .filter(|p| !p.is_seed() && p.neighbors.len() < self.config.neighbor_count)
            .map(|p| (p.id(), p.video(), p.position(now)))
            .collect();
        for (id, video, pos) in needy {
            let neighbors = self.tracker.neighbors_for(
                id,
                video,
                self.config.neighbor_count,
                self.config.max_seed_neighbors,
                pos,
                |p| positions.get(p.index()).copied().unwrap_or(0.0),
            );
            if let Some(p) = self.peers[id.index()].as_mut() {
                p.neighbors = neighbors;
            }
        }
    }

    /// Builds the slot's welfare-maximization problem from current buffers,
    /// windows and prices (Sec. III-B). Public so harnesses (e.g. the
    /// Fig. 2 message-level auction) can drive slots manually.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal inconsistency.
    pub fn prepare_slot(&mut self) -> Result<SlotProblem> {
        let now = self.now();
        self.admit_pending(now)?;
        self.remove_gone(now);
        self.refresh_neighbors(now);
        let problem = self.build_slot_problem(now)?;
        self.last_shape = (problem.request_count(), problem.instance.edge_count());
        Ok(problem)
    }

    /// When this slot's scheduled chunks arrive: `delivery_fraction` of
    /// the way into the slot that starts at `now`.
    fn delivery_time(&self, now: SimTime) -> SimTime {
        now + SimDuration::from_secs_f64(
            self.config.slot_len.as_secs_f64() * self.config.delivery_fraction,
        )
    }

    /// Builds the slot's welfare problem (Sec. III-B): every online peer
    /// is a provider, in peer-id order, and every watcher requests the
    /// chunks of its window that it lacks, can still receive in time and
    /// some neighbour caches, in (peer, chunk) order.
    ///
    /// Table invariant: while a watcher `d`'s window is scanned,
    /// `candidates` holds exactly `d`'s online neighbours on `d`'s video,
    /// in `d.neighbors` order, each with its provider index, its link cost
    /// `w_{u→d}` and its chunk bitmap, and `words[i]` is entry `i`'s
    /// bitmap word for the 64-chunk block of the chunk being scanned. A
    /// request's edges are the entries that hold the chunk, in table
    /// order, so a link cost is drawn once per (neighbour, watcher) pair,
    /// not once per edge.
    fn build_slot_problem(&self, now: SimTime) -> Result<SlotProblem> {
        let delivery_time = self.delivery_time(now);
        let mut b = WelfareInstance::builder();
        let (requests, edges) = self.last_shape;
        b.reserve(requests + requests / 8, edges + edges / 8);
        // Peer index → provider index; only online peers' entries are read.
        let mut provider_of = vec![usize::MAX; self.peers.len()];
        for p in self.peers.iter().flatten() {
            let cap = p.upload_capacity().chunks_per_slot();
            let cap = match self.isp_throttles.get(&p.isp()) {
                Some(&f) => throttled_capacity(cap, f),
                None => cap,
            };
            provider_of[p.id().index()] = b.add_provider(p.id(), cap);
        }
        let mut urgency = Vec::new();
        let mut candidates: Vec<Candidate<'_>> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        let window = self.config.lookahead_chunks();
        for p in self.peers.iter().flatten() {
            if p.is_seed() {
                continue;
            }
            let chunk_count = p.buffer.chunk_count();
            let pos = p.position(now);
            let first = if pos < 0.0 { 0 } else { (pos.floor() as i64 + 1).max(0) as u32 };
            let last = first.saturating_add(window).min(chunk_count);
            if first >= last {
                continue;
            }
            candidates.clear();
            for &n in &p.neighbors {
                if let Some(np) = self.peer(n).filter(|np| np.video() == p.video()) {
                    candidates.push(Candidate {
                        provider: provider_of[n.index()],
                        cost: self.topology.cost(n, p.id())?,
                        buffer: &np.buffer,
                    });
                }
            }
            let mut block = usize::MAX;
            for k in first..last {
                if p.buffer.has_index(k) {
                    continue;
                }
                let deadline = p.deadline_of(k);
                // Chunks that no slot (including this one) can deliver
                // before their deadline are skipped: fetching them would
                // only waste bandwidth on an already-lost chunk.
                if deadline < delivery_time {
                    continue;
                }
                if block != (k / 64) as usize {
                    block = (k / 64) as usize;
                    words.clear();
                    words.extend(candidates.iter().map(|c| c.buffer.word(block)));
                }
                let bit = 1u64 << (k % 64);
                let holders = words.iter().filter(|&&w| w & bit != 0).count();
                if holders == 0 {
                    continue;
                }
                let d_time = deadline.since(now);
                // Remaining scheduling slack: how many future slots' mid-
                // slot deliveries would still beat the deadline.
                let slack_slots = (deadline.since(delivery_time).as_secs_f64()
                    / self.config.slot_len.as_secs_f64())
                .floor() as u32;
                let valuation = self.config.chunk_valuation(d_time, slack_slots);
                let chunk = ChunkId::new(p.video(), k);
                let r =
                    b.add_request_with_capacity(p2p_types::RequestId::new(p.id(), chunk), holders);
                for (c, _) in candidates.iter().zip(&words).filter(|&(_, &w)| w & bit != 0) {
                    b.add_edge(r, c.provider, valuation, c.cost)
                        .map_err(|e| P2pError::MalformedInstance(e.to_string()))?;
                }
                urgency.push(d_time);
            }
        }
        SlotProblem::new(b.build()?, urgency)
    }

    /// Applies a schedule to the system: chunk deliveries, welfare and
    /// traffic accounting, playback advance with miss accounting, and
    /// advancing to the next slot. Public counterpart of
    /// [`System::prepare_slot`].
    ///
    /// Every scheduled chunk arrives at the same instant, the slot's
    /// delivery time, so the deliveries are one list of (watcher, chunk
    /// index) sorted by peer id, then chunk. The miss accounting walks it
    /// beside the watchers in the same order, and the buffer inserts read
    /// the same list.
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule references unknown peers.
    pub fn complete_slot(
        &mut self,
        problem: &SlotProblem,
        schedule: &Schedule,
    ) -> Result<SlotMetrics> {
        let now = self.now();
        let slot_end = now + self.config.slot_len;
        let delivery_time = self.delivery_time(now);

        let mut metrics = SlotMetrics::default();
        let mut delivered: Vec<(PeerId, u32)> = Vec::new();
        let instance = &problem.instance;
        for (r, choice) in schedule.assignment.choices().iter().enumerate() {
            let Some(e) = choice else { continue };
            let req = instance.request(r);
            let edge = req.edge(*e);
            let downstream = req.id.downstream();
            let upstream = instance.provider(edge.provider).peer;
            let inter = self.topology.is_inter_isp(upstream, downstream)?;
            metrics.record_transfer(edge.utility(), inter);
            delivered.push((downstream, req.id.chunk().index_in_video()));
        }
        // A built problem emits requests in (peer, chunk) order, so this
        // sort only confirms the order; hand-built problems may differ.
        delivered.sort_unstable();

        // Miss accounting: chunks due during this slot are hits only if
        // buffered at slot start or delivered before their deadline.
        let mut next = delivered.iter().peekable();
        for p in self.peers.iter().flatten() {
            if p.is_seed() {
                continue;
            }
            let pos_now = p.position(now);
            let pos_end = p.position(slot_end);
            let first = (pos_now.floor() as i64 + 1).max(0);
            let last = pos_end.floor() as i64;
            for k in first..=last {
                if k < 0 || k >= i64::from(p.buffer.chunk_count()) {
                    continue;
                }
                let k = k as u32;
                metrics.due_chunks += 1;
                let key = (p.id(), k);
                while next.next_if(|&&d| d < key).is_some() {}
                let arrives = next.peek() == Some(&&key);
                let hit = p.buffer.has_index(k) || (arrives && p.deadline_of(k) >= delivery_time);
                if !hit {
                    metrics.missed_chunks += 1;
                }
            }
        }

        for &(peer, k) in &delivered {
            if let Some(p) = self.peers[peer.index()].as_mut() {
                p.buffer.insert_index(k);
            }
        }

        metrics.online_peers = self.watcher_count() as u64;
        self.recorder.record(self.slot, metrics);
        self.slot = self.slot.next();
        Ok(metrics)
    }

    /// Turns on run-report collection: engine probes on the scheduler,
    /// wall-clock phase timings, and HLL sketches of unique requesters /
    /// providers / transfer edges.
    /// Memory stays bounded by O(stepped slots) plus three fixed-size
    /// sketches; the slot loop without probes is untouched. Only slots
    /// stepped through [`System::step_slot`] / [`System::run_slots`] while
    /// probes are on appear in the report.
    pub fn enable_probes(&mut self) {
        self.scheduler.set_probes(true);
        self.obs = Some(ObsState::new(self.scheduler.name(), self.config.slot_len.as_secs_f64()));
    }

    /// Whether run-report collection is on.
    pub fn probes_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Finishes collection and returns the accumulated [`RunReport`]
    /// (`None` unless [`System::enable_probes`] was called). Probes are
    /// switched back off; the report's `scenario` field is left empty for
    /// the caller to fill.
    pub fn take_run_report(&mut self) -> Option<RunReport> {
        let obs = self.obs.take()?;
        self.scheduler.set_probes(false);
        Some(obs.finish())
    }

    /// Folds one completed slot into the run report (probes on only).
    fn observe_slot(
        &mut self,
        slot: u64,
        problem: &SlotProblem,
        metrics: &SlotMetrics,
        phases: PhaseTimings,
    ) {
        let engine = self.scheduler.take_probe_report().filter(|r| !r.is_empty());
        let Some(obs) = self.obs.as_mut() else { return };
        let instance = &problem.instance;
        for p in instance.providers() {
            obs.providers.insert_u64(u64::from(p.peer.get()));
        }
        for req in instance.requests() {
            let downstream = u64::from(req.id.downstream().get());
            obs.requesters.insert_u64(downstream);
            for &u in req.providers() {
                let upstream = u64::from(instance.provider(u as usize).peer.get());
                obs.edges.insert_pair(upstream, downstream);
            }
        }
        obs.report.push_slot(SlotReport {
            slot,
            phases,
            requests: instance.request_count() as u64,
            providers: instance.provider_count() as u64,
            edges: instance.edge_count() as u64,
            welfare: metrics.welfare,
            transfers: metrics.transfers,
            inter_isp: metrics.inter_isp_transfers,
            missed: metrics.missed_chunks,
            online: metrics.online_peers,
            engine,
        });
    }

    /// Runs one full slot with the system's own scheduler.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and accounting errors.
    pub fn step_slot(&mut self) -> Result<SlotMetrics> {
        if self.obs.is_none() {
            let problem = self.prepare_slot()?;
            let schedule = self.scheduler.schedule(&problem)?;
            return self.complete_slot(&problem, &schedule);
        }
        let slot = self.slot.get();
        let (problem, metrics, phases) = match self.config.clock {
            ClockMode::Wall => {
                let t0 = std::time::Instant::now();
                let problem = self.prepare_slot()?;
                let t1 = std::time::Instant::now();
                let schedule = self.scheduler.schedule(&problem)?;
                let t2 = std::time::Instant::now();
                let metrics = self.complete_slot(&problem, &schedule)?;
                let t3 = std::time::Instant::now();
                let phases = PhaseTimings {
                    prepare_s: (t1 - t0).as_secs_f64(),
                    schedule_s: (t2 - t1).as_secs_f64(),
                    complete_s: (t3 - t2).as_secs_f64(),
                };
                (problem, metrics, phases)
            }
            // Virtual time: the schedule phase is the simulated swarm's
            // convergence time and the bookkeeping phases don't exist on
            // that clock — no `Instant` is sampled anywhere, so probed
            // reports are byte-identical across runs and machines.
            ClockMode::Virtual => {
                let problem = self.prepare_slot()?;
                let schedule = self.scheduler.schedule(&problem)?;
                let metrics = self.complete_slot(&problem, &schedule)?;
                let phases = PhaseTimings {
                    prepare_s: 0.0,
                    schedule_s: self.scheduler.take_virtual_elapsed().unwrap_or(0.0),
                    complete_s: 0.0,
                };
                (problem, metrics, phases)
            }
        };
        self.observe_slot(slot, &problem, &metrics, phases);
        Ok(metrics)
    }

    /// Runs `n` consecutive slots.
    ///
    /// # Errors
    ///
    /// Propagates the first slot error.
    pub fn run_slots(&mut self, n: u64) -> Result<()> {
        for _ in 0..n {
            self.step_slot()?;
        }
        Ok(())
    }

    /// Name of the installed scheduler.
    pub fn scheduler_name(&self) -> String {
        self.scheduler.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::{Assignment, ShardCount};
    use p2p_sched::{AuctionScheduler, FlatAuctionScheduler, SimpleLocalityScheduler};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_system(seed: u64) -> System {
        let config = SystemConfig::small_test().with_seed(seed);
        System::new(config, Box::new(AuctionScheduler::paper())).unwrap()
    }

    /// The reference slot build and settle, the oracle for
    /// [`System::build_slot_problem`] and [`System::complete_slot`]: a
    /// peer lookup per (chunk, neighbour) pair, a link-cost draw per edge,
    /// a hash map from peer to provider index and a hash map of
    /// deliveries.
    impl System {
        fn reference_slot_problem(&self, now: SimTime) -> Result<SlotProblem> {
            let delivery_time = now
                + SimDuration::from_secs_f64(
                    self.config.slot_len.as_secs_f64() * self.config.delivery_fraction,
                );
            let mut b = WelfareInstance::builder();
            let mut provider_idx: HashMap<PeerId, usize> = HashMap::new();
            for p in self.peers.iter().flatten() {
                let cap = p.upload_capacity().chunks_per_slot();
                let cap = match self.isp_throttles.get(&p.isp()) {
                    Some(&f) => throttled_capacity(cap, f),
                    None => cap,
                };
                let idx = b.add_provider(p.id(), cap);
                provider_idx.insert(p.id(), idx);
            }
            let mut urgency = Vec::new();
            let window = self.config.lookahead_chunks();
            for p in self.peers.iter().flatten() {
                if p.is_seed() {
                    continue;
                }
                let chunk_count = p.buffer.chunk_count();
                let pos = p.position(now);
                let first = if pos < 0.0 { 0 } else { (pos.floor() as i64 + 1).max(0) as u32 };
                let last = first.saturating_add(window).min(chunk_count);
                if first >= last {
                    continue;
                }
                for k in first..last {
                    if p.buffer.has_index(k) {
                        continue;
                    }
                    let deadline = p.deadline_of(k);
                    if deadline < delivery_time {
                        continue;
                    }
                    let chunk = ChunkId::new(p.video(), k);
                    let mut edges = Vec::new();
                    for &n in &p.neighbors {
                        if let Some(np) = self.peer(n) {
                            if np.video() == p.video() && np.buffer.has_index(k) {
                                edges.push(n);
                            }
                        }
                    }
                    if edges.is_empty() {
                        continue;
                    }
                    let d_time = deadline.since(now);
                    let slack_slots = (deadline.since(delivery_time).as_secs_f64()
                        / self.config.slot_len.as_secs_f64())
                    .floor() as u32;
                    let valuation = self.config.chunk_valuation(d_time, slack_slots);
                    let r = b.add_request(p2p_types::RequestId::new(p.id(), chunk));
                    for u in edges {
                        let cost = self.topology.cost(u, p.id())?;
                        b.add_edge(r, provider_idx[&u], valuation, cost)
                            .map_err(|e| P2pError::MalformedInstance(e.to_string()))?;
                    }
                    urgency.push(d_time);
                }
            }
            SlotProblem::new(b.build()?, urgency)
        }

        /// What [`System::complete_slot`] should return and leave in the
        /// buffers, computed without mutating the system: the slot's
        /// metrics and every peer slot's buffer after the deliveries.
        fn reference_settle(
            &self,
            problem: &SlotProblem,
            schedule: &Schedule,
        ) -> Result<(SlotMetrics, Vec<Option<ChunkBuffer>>)> {
            let now = self.now();
            let slot_end = now + self.config.slot_len;
            let delivery_time = now
                + SimDuration::from_secs_f64(
                    self.config.slot_len.as_secs_f64() * self.config.delivery_fraction,
                );
            let mut metrics = SlotMetrics::default();
            let mut delivered: HashMap<(PeerId, u32), SimTime> = HashMap::new();
            let instance = &problem.instance;
            for (r, choice) in schedule.assignment.choices().iter().enumerate() {
                let Some(e) = choice else { continue };
                let req = instance.request(r);
                let edge = req.edge(*e);
                let downstream = req.id.downstream();
                let upstream = instance.provider(edge.provider).peer;
                let inter = self.topology.is_inter_isp(upstream, downstream)?;
                metrics.record_transfer(edge.utility(), inter);
                delivered.insert((downstream, req.id.chunk().index_in_video()), delivery_time);
            }
            for p in self.peers.iter().flatten() {
                if p.is_seed() {
                    continue;
                }
                let pos_now = p.position(now);
                let pos_end = p.position(slot_end);
                let first = (pos_now.floor() as i64 + 1).max(0);
                let last = pos_end.floor() as i64;
                for k in first..=last {
                    if k < 0 || k >= i64::from(p.buffer.chunk_count()) {
                        continue;
                    }
                    let k = k as u32;
                    metrics.due_chunks += 1;
                    let hit = p.buffer.has_index(k)
                        || delivered.get(&(p.id(), k)).is_some_and(|&t| p.deadline_of(k) >= t);
                    if !hit {
                        metrics.missed_chunks += 1;
                    }
                }
            }
            let mut buffers = self.buffers();
            for (peer, k) in delivered.into_keys() {
                if let Some(b) = buffers[peer.index()].as_mut() {
                    b.insert_index(k);
                }
            }
            metrics.online_peers = self.watcher_count() as u64;
            Ok((metrics, buffers))
        }

        /// Every peer slot's buffer, `None` for an offline peer.
        fn buffers(&self) -> Vec<Option<ChunkBuffer>> {
            self.peers.iter().map(|p| p.as_ref().map(|p| p.buffer.clone())).collect()
        }

        /// Steps one slot with the installed scheduler, asserting that the
        /// build and the settle equal their references.
        fn step_against_reference(&mut self) {
            let slot = self.current_slot().get();
            let problem = self.prepare_slot().unwrap();
            let reference = self.reference_slot_problem(self.now()).unwrap();
            assert_eq!(problem, reference, "slot {slot}: instance or urgencies differ");
            let schedule = self.scheduler.schedule(&problem).unwrap();
            let (metrics, buffers) = self.reference_settle(&problem, &schedule).unwrap();
            assert_eq!(self.complete_slot(&problem, &schedule).unwrap(), metrics, "slot {slot}");
            assert!(self.buffers() == buffers, "slot {slot}: buffers differ");
        }
    }

    /// Slot for slot, the table build and the delivery-list settle equal
    /// the per-(chunk, neighbour) build and hash-map settle on the paper
    /// profile, through a flash crowd on one video, churn with
    /// departures, hard, tiny and partial throttles, link repricing and a
    /// seed failure with a late seed.
    #[test]
    fn slot_build_and_settle_match_the_reference_through_events() {
        let config = SystemConfig::paper().with_seed(11).with_departures(0.3);
        let scheduler = FlatAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(1));
        let mut sys = System::new(config, Box::new(scheduler)).unwrap();
        let video = VideoId::new(0);
        sys.add_static_peers(30).unwrap();
        sys.enable_poisson_churn().unwrap();
        let mut transfers = 0;
        for slot in 0..12 {
            match slot {
                2 => sys.inject_flash_crowd(25, Some(video), None).unwrap(),
                4 => {
                    sys.set_isp_throttle(IspId::new(0), 0.0).unwrap();
                    sys.set_isp_throttle(IspId::new(1), 1e-6).unwrap();
                    sys.set_isp_throttle(IspId::new(2), 0.25).unwrap();
                }
                6 => sys.set_isp_link_cost_scale(IspId::new(3), 20.0).unwrap(),
                7 => {
                    assert!(sys.fail_seeds(4, Some(video)) > 0);
                    sys.add_seed(video, IspId::new(4)).unwrap();
                }
                9 => sys.clear_isp_throttles(),
                _ => {}
            }
            sys.step_against_reference();
            transfers += sys.recorder().slots().last().map_or(0, |(_, m)| m.transfers);
        }
        assert!(transfers > 0, "the run must deliver chunks");
    }

    /// A delivery that lands after its chunk's deadline still fills the
    /// buffer, but the chunk counts as missed. A built problem never
    /// requests such a chunk, so the problem here is made by hand.
    #[test]
    fn late_delivery_counts_as_missed_but_is_buffered() {
        let mut sys = small_system(9);
        sys.add_static_peers(6).unwrap();
        // Idle slots deliver nothing, so every watcher lacks every chunk.
        let now = loop {
            let problem = sys.prepare_slot().unwrap();
            let idle = Schedule {
                assignment: Assignment::empty(problem.request_count()),
                stats: p2p_sched::ScheduleStats::default(),
            };
            sys.complete_slot(&problem, &idle).unwrap();
            let now = sys.now();
            if sys.peers.iter().flatten().any(|p| !p.is_seed() && p.position(now) >= 0.0) {
                break now;
            }
        };
        let delivery_time = sys.delivery_time(now);
        let (watcher, k) = sys
            .peers
            .iter()
            .flatten()
            .filter(|p| !p.is_seed() && p.position(now) >= 0.0)
            .find_map(|p| {
                let k = p.position(now).floor() as u32 + 1;
                let due = k < p.buffer.chunk_count() && !p.buffer.has_index(k);
                (due && p.deadline_of(k) < delivery_time).then_some((p.id(), k))
            })
            .expect("a playing watcher lacks its next chunk, due before delivery");
        let video = sys.peer(watcher).unwrap().video();
        let seed = sys.peers.iter().flatten().find(|p| p.is_seed() && p.video() == video);
        let seed = seed.expect("the video has a seed").id();

        let mut b = WelfareInstance::builder();
        let u = b.add_provider(seed, 1);
        let r = b.add_request(p2p_types::RequestId::new(watcher, ChunkId::new(video, k)));
        b.add_edge(r, u, p2p_types::Valuation::new(2.0), sys.topology.cost(seed, watcher).unwrap())
            .unwrap();
        let problem = SlotProblem::new(b.build().unwrap(), vec![SimDuration::ZERO]).unwrap();
        let schedule = Schedule {
            assignment: Assignment::new(vec![Some(0)]),
            stats: p2p_sched::ScheduleStats::default(),
        };
        let (expected, buffers) = sys.reference_settle(&problem, &schedule).unwrap();
        let metrics = sys.complete_slot(&problem, &schedule).unwrap();
        assert_eq!(metrics, expected);
        assert_eq!(metrics.transfers, 1);
        assert_eq!(metrics.missed_chunks, metrics.due_chunks, "nothing else was delivered");
        assert!(metrics.missed_chunks >= 1);
        assert!(sys.peer(watcher).unwrap().buffer.has_index(k), "the late chunk is buffered");
        assert!(sys.buffers() == buffers);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The build and the settle equal their references on any small
        /// configuration: neighbour count, departures, seeds per video and
        /// an optional ISP throttle.
        #[test]
        fn slot_build_and_settle_match_the_reference(
            seed in 1u64..1000,
            neighbors in 3usize..11,
            depart in 0.0f64..1.0,
            seeds_per_video in 1u32..4,
            throttle in (0u8..3, 0.0f64..1.0),
            peers in 2usize..15,
        ) {
            let mut config = SystemConfig::small_test().with_seed(seed).with_departures(depart);
            config.neighbor_count = neighbors;
            config.seeds = SeedPlacement::PerVideoTotal(seeds_per_video);
            let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
            sys.add_static_peers(peers).unwrap();
            sys.enable_poisson_churn().unwrap();
            match throttle {
                (1, _) => sys.set_isp_throttle(IspId::new(0), 0.0).unwrap(),
                (2, f) => sys.set_isp_throttle(IspId::new(1), f).unwrap(),
                _ => {}
            }
            for _ in 0..6 {
                sys.step_against_reference();
            }
        }
    }

    #[test]
    fn seeds_are_spawned_per_placement() {
        let sys = small_system(1);
        // PerVideoTotal(2) × 5 videos = 10 seeds.
        assert_eq!(sys.online_count(), 10);
        assert_eq!(sys.watcher_count(), 0);
    }

    #[test]
    fn per_isp_per_video_placement() {
        let mut config = SystemConfig::small_test();
        config.seeds = SeedPlacement::PerIspPerVideo(2);
        let sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
        // 2 seeds × 2 ISPs × 5 videos = 20.
        assert_eq!(sys.online_count(), 20);
    }

    #[test]
    fn static_peers_join_within_stagger_window() {
        // A long-enough video that no watcher can finish inside the
        // observed window, for any draw of the staggered join times —
        // otherwise the final count would depend on the RNG stream.
        let mut config = SystemConfig::small_test().with_seed(2);
        config.streaming.video_size_bytes = 8_000_000; // 100 s of playback
        let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
        sys.add_static_peers(12).unwrap();
        assert_eq!(sys.watcher_count(), 0, "not admitted before first slot");
        sys.run_slots(3).unwrap();
        assert!(sys.watcher_count() > 0);
        // All admitted after the stagger window has fully elapsed.
        sys.run_slots(3).unwrap();
        assert_eq!(sys.watcher_count(), 12);
    }

    #[test]
    fn slots_produce_metrics_and_transfers() {
        let mut sys = small_system(3);
        sys.add_static_peers(10).unwrap();
        sys.run_slots(8).unwrap();
        assert_eq!(sys.recorder().len(), 8);
        let total_transfers: u64 = sys.recorder().slots().iter().map(|(_, m)| m.transfers).sum();
        assert!(total_transfers > 0, "peers must download chunks");
        let welfare: f64 = sys.recorder().slots().iter().map(|(_, m)| m.welfare).sum();
        assert!(welfare > 0.0, "auction welfare must be positive");
    }

    #[test]
    fn buffers_fill_monotonically() {
        let mut sys = small_system(4);
        sys.add_static_peers(6).unwrap();
        sys.run_slots(4).unwrap();
        let filled: Vec<f64> = sys
            .peers
            .iter()
            .flatten()
            .filter(|p| !p.is_seed())
            .map(|p| p.buffer.fill_ratio())
            .collect();
        assert!(filled.iter().any(|&f| f > 0.0), "someone downloaded something");
    }

    #[test]
    fn watchers_leave_after_finishing() {
        let mut sys = small_system(5);
        sys.add_static_peers(5).unwrap();
        // Small video: 125 chunks = 12.5 s; startup 10 s; stagger 10 s.
        // By t = 50 s everyone is done and gone.
        sys.run_slots(12).unwrap();
        assert_eq!(sys.watcher_count(), 0);
    }

    #[test]
    fn churn_admits_and_departs() {
        let config = SystemConfig::small_test().with_seed(6).with_departures(0.5);
        let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
        sys.enable_poisson_churn().unwrap();
        sys.run_slots(10).unwrap();
        let pops = sys.recorder().population_series();
        assert!(pops.y_max().unwrap() > 0.0, "peers joined");
    }

    #[test]
    fn locality_scheduler_also_runs() {
        let config = SystemConfig::small_test().with_seed(7);
        let mut sys = System::new(config, Box::new(SimpleLocalityScheduler::new())).unwrap();
        sys.add_static_peers(10).unwrap();
        sys.run_slots(6).unwrap();
        assert_eq!(sys.scheduler_name(), "simple_locality");
        let transfers: u64 = sys.recorder().slots().iter().map(|(_, m)| m.transfers).sum();
        assert!(transfers > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut sys = small_system(seed);
            sys.add_static_peers(8).unwrap();
            sys.run_slots(5).unwrap();
            sys.recorder()
                .slots()
                .iter()
                .map(|(_, m)| (m.welfare.to_bits(), m.transfers, m.missed_chunks))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn flash_crowd_joins_at_next_boundary() {
        let mut sys = small_system(20);
        sys.run_slots(2).unwrap();
        sys.inject_flash_crowd(25, Some(p2p_types::VideoId::new(1)), None).unwrap();
        assert_eq!(sys.watcher_count(), 0, "crowd waits for the slot boundary");
        sys.step_slot().unwrap();
        assert_eq!(sys.watcher_count(), 25);
        assert!(sys.inject_flash_crowd(1, Some(p2p_types::VideoId::new(99)), None).is_err());
        assert!(sys.inject_flash_crowd(1, None, Some(IspId::new(9))).is_err());
    }

    #[test]
    fn seeds_fail_and_recover() {
        let mut sys = small_system(21);
        let before = sys.seed_count();
        assert_eq!(sys.fail_seeds(3, None), 3);
        assert_eq!(sys.seed_count(), before - 3);
        // Per-video failure only touches that video's seeds.
        let v0 = VideoId::new(0);
        let removed = sys.fail_seeds(100, Some(v0));
        assert!(sys.peers.iter().flatten().all(|p| !(p.is_seed() && p.video() == v0)));
        let id = sys.add_seed(v0, IspId::new(1)).unwrap();
        assert!(sys.peer(id).unwrap().is_seed());
        assert_eq!(sys.seed_count(), before - 3 - removed + 1);
        assert!(sys.add_seed(VideoId::new(99), IspId::new(0)).is_err());
        // The system keeps running after the churn in the seed roster.
        sys.add_static_peers(5).unwrap();
        sys.run_slots(3).unwrap();
    }

    #[test]
    fn churn_rate_burst_floods_joins() {
        let count_with = |burst: Option<f64>| {
            let config = SystemConfig::small_test().with_seed(22);
            let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
            sys.enable_poisson_churn().unwrap();
            sys.run_slots(2).unwrap();
            if let Some(rate) = burst {
                sys.set_churn_rate(rate).unwrap();
            }
            sys.run_slots(2).unwrap();
            sys.recorder().population_series().y_max().unwrap()
        };
        assert!(count_with(Some(20.0)) > 2.0 * count_with(None));
    }

    #[test]
    fn churn_burst_takes_effect_at_its_slot() {
        // Baseline rate so low (mean gap 500 s) that the pre-sampled
        // arrival sits far beyond the horizon; the burst must not wait for
        // that stale old-rate gap.
        let mut config = SystemConfig::small_test().with_seed(26);
        config.arrival_rate = 0.002;
        let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
        sys.enable_poisson_churn().unwrap();
        sys.run_slots(3).unwrap();
        assert_eq!(sys.watcher_count(), 0, "nobody arrives at 0.002/s");
        sys.set_churn_rate(10.0).unwrap();
        // New-rate arrivals begin at the event instant; they land during
        // the event slot and are admitted at the next boundary.
        sys.run_slots(2).unwrap();
        assert!(sys.watcher_count() > 10, "the burst floods from its event slot");
    }

    #[test]
    fn churn_rate_auto_enables_churn() {
        let mut sys = small_system(23);
        sys.set_churn_rate(5.0).unwrap();
        sys.run_slots(3).unwrap();
        assert!(sys.recorder().population_series().y_max().unwrap() > 0.0);
        assert!(sys.set_churn_rate(0.0).is_err());
        sys.set_churn_popularity(10.0, 0.0).unwrap();
        assert!(sys.set_churn_popularity(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn isp_throttle_caps_provider_capacity() {
        let mut sys = small_system(24);
        sys.add_static_peers(8).unwrap();
        sys.set_isp_throttle(IspId::new(0), 0.25).unwrap();
        assert_eq!(sys.isp_throttle(IspId::new(0)), 0.25);
        assert_eq!(sys.isp_throttle(IspId::new(1)), 1.0);
        let problem = sys.prepare_slot().unwrap();
        for prov in problem.instance.providers() {
            let peer = sys.peer(prov.peer).unwrap();
            let full = peer.upload_capacity().chunks_per_slot();
            if peer.isp() == IspId::new(0) {
                assert_eq!(prov.capacity.chunks_per_slot(), (f64::from(full) * 0.25) as u32);
            } else {
                assert_eq!(prov.capacity.chunks_per_slot(), full);
            }
        }
        sys.clear_isp_throttles();
        assert_eq!(sys.isp_throttle(IspId::new(0)), 1.0);
        assert!(sys.set_isp_throttle(IspId::new(9), 0.5).is_err());
    }

    #[test]
    fn throttle_factors_validated_into_unit_interval() {
        let mut sys = small_system(27);
        sys.add_static_peers(4).unwrap();
        assert!(sys.set_isp_throttle(IspId::new(0), 1.5).is_err(), "boosts are not throttles");
        assert!(sys.set_isp_throttle(IspId::new(0), -0.1).is_err());
        assert!(sys.set_isp_throttle(IspId::new(0), f64::NAN).is_err());
        // Factor 0 is the documented hard-outage semantics.
        sys.set_isp_throttle(IspId::new(0), 0.0).unwrap();
        let problem = sys.prepare_slot().unwrap();
        for prov in problem.instance.providers() {
            let peer = sys.peer(prov.peer).unwrap();
            if peer.isp() == IspId::new(0) {
                assert_eq!(prov.capacity.chunks_per_slot(), 0, "hard outage uploads nothing");
            } else {
                assert!(prov.capacity.chunks_per_slot() > 0);
            }
        }
    }

    #[test]
    fn throttled_capacity_clamps_but_keeps_nonzero_uploaders_alive() {
        // The regression: capacity-1 uploaders under a mild throttle must
        // not be zeroed into fake outages.
        assert_eq!(throttled_capacity(1, 0.5), 1);
        assert_eq!(throttled_capacity(1, 0.01), 1);
        assert_eq!(throttled_capacity(50, 0.01), 1);
        // Ordinary flooring above the clamp.
        assert_eq!(throttled_capacity(50, 0.25), 12);
        assert_eq!(throttled_capacity(200, 0.5), 100);
        assert_eq!(throttled_capacity(7, 1.0), 7);
        // Hard-zero semantics: factor 0 is an outage; capacity 0 stays 0.
        assert_eq!(throttled_capacity(1, 0.0), 0);
        assert_eq!(throttled_capacity(100, 0.0), 0);
        assert_eq!(throttled_capacity(0, 0.7), 0);
    }

    #[test]
    fn mild_throttle_never_zeroes_a_nonzero_uploader() {
        // The regression: `(cap * f).floor()` used to zero small uploaders
        // under any factor < 1, turning mild throttles into fake outages.
        let mut sys = small_system(28);
        sys.add_static_peers(6).unwrap();
        sys.set_isp_throttle(IspId::new(0), 1e-6).unwrap();
        let problem = sys.prepare_slot().unwrap();
        assert!(problem.instance.provider_count() > 0);
        for prov in problem.instance.providers() {
            let peer = sys.peer(prov.peer).unwrap();
            if peer.isp() == IspId::new(0) {
                assert_eq!(
                    prov.capacity.chunks_per_slot(),
                    1,
                    "a nonzero throttle must keep nonzero uploaders alive"
                );
            }
        }
    }

    #[test]
    fn workload_replay_reproduces_the_recorded_run() {
        let fingerprint = |sys: &System| {
            sys.recorder()
                .slots()
                .iter()
                .map(|(_, m)| (m.welfare.to_bits(), m.transfers, m.missed_chunks, m.online_peers))
                .collect::<Vec<_>>()
        };
        let run = |replay: Option<WorkloadTrace>| {
            let config = SystemConfig::small_test().with_seed(32).with_departures(0.4);
            let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
            match replay {
                Some(trace) => sys.replay_workload(trace),
                None => sys.record_workload(),
            }
            sys.add_static_peers(6).unwrap();
            sys.enable_poisson_churn().unwrap();
            sys.inject_flash_crowd(5, None, None).unwrap();
            sys.run_slots(6).unwrap();
            let trace = sys.take_workload_trace();
            (fingerprint(&sys), trace)
        };
        let (live, trace) = run(None);
        let trace = trace.expect("recording was on");
        assert!(!trace.is_empty(), "the run admits watchers");
        let (replayed, no_trace) = run(Some(trace));
        assert_eq!(live, replayed, "replay must reproduce the recorded run bit-for-bit");
        assert!(no_trace.is_none(), "replay mode does not record");
    }

    #[test]
    fn replay_mode_still_validates_event_arguments() {
        let mut sys = small_system(33);
        sys.replay_workload(WorkloadTrace::default());
        // Invalid events fail exactly as they would on the recorded run...
        assert!(sys.inject_flash_crowd(1, Some(VideoId::new(99)), None).is_err());
        assert!(sys.inject_flash_crowd(1, None, Some(IspId::new(9))).is_err());
        // ...while valid ones are no-ops (the trace already has the crowd).
        sys.inject_flash_crowd(1, None, None).unwrap();
        sys.step_slot().unwrap();
        assert_eq!(sys.watcher_count(), 0, "an empty trace admits nobody");
    }

    #[test]
    fn link_repricing_localizes_traffic() {
        let run = |outage: bool| {
            let mut config = SystemConfig::small_test().with_seed(25);
            // One seed per video: roughly half the watchers sit across an
            // ISP boundary from their only seed, so the unpriced baseline
            // must ship chunks inter-ISP.
            config.seeds = SeedPlacement::PerVideoTotal(1);
            let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
            sys.add_static_peers(12).unwrap();
            if outage {
                sys.set_inter_link_cost_scale(50.0).unwrap();
            }
            sys.run_slots(6).unwrap();
            let slots = sys.recorder().slots().to_vec();
            let inter: u64 = slots.iter().map(|(_, m)| m.inter_isp_transfers).sum();
            let total: u64 = slots.iter().map(|(_, m)| m.transfers).sum();
            (inter, total)
        };
        let (inter_base, total_base) = run(false);
        let (inter_priced, total_priced) = run(true);
        assert!(total_base > 0 && total_priced > 0);
        // A 50× repricing makes cross-ISP chunks unprofitable: the auction
        // must cut inter-ISP traffic (to zero on this small instance).
        assert!(inter_priced < inter_base, "{inter_priced} vs {inter_base}");
    }

    /// Probes are an observer: the recorder's figures are bit-identical
    /// with probes on and off, and the report covers every stepped slot
    /// with consistent counters.
    #[test]
    fn run_report_observes_without_perturbing_the_run() {
        let fingerprint = |sys: &System| {
            sys.recorder()
                .slots()
                .iter()
                .map(|(_, m)| (m.welfare.to_bits(), m.transfers, m.missed_chunks))
                .collect::<Vec<_>>()
        };
        let run = |probes: bool| {
            let config = SystemConfig::small_test().with_seed(40);
            let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
            sys.add_static_peers(8).unwrap();
            if probes {
                sys.enable_probes();
                assert!(sys.probes_enabled());
            }
            sys.run_slots(6).unwrap();
            let report = sys.take_run_report();
            (fingerprint(&sys), report)
        };
        let (bare, none) = run(false);
        assert!(none.is_none(), "no report without enable_probes");
        let (probed, report) = run(true);
        assert_eq!(bare, probed, "probes must not change outcomes");
        let report = report.expect("probes were on");
        assert_eq!(report.slots.len(), 6);
        assert_eq!(report.scheduler, "auction");
        for (slot, rec) in report.slots.iter().zip(bare) {
            assert_eq!(slot.welfare.to_bits(), rec.0);
            assert_eq!(slot.transfers, rec.1);
            assert_eq!(slot.missed, rec.2);
            assert!(slot.phases.total_s() >= 0.0);
        }
        // Engine reports appear once the swarm has requests to schedule.
        let engine_bids: u64 =
            report.slots.iter().filter_map(|s| s.engine.as_ref()).map(|e| e.bids).sum();
        assert!(engine_bids > 0, "the auction must have submitted bids");
        // Sketches saw the population: estimates are positive and within
        // the precision's error bound of the true (small) cardinalities.
        assert!(report.uniques.requesters > 0.0);
        assert!(report.uniques.providers > 0.0);
        assert!(report.uniques.edges >= report.uniques.requesters * 0.9);
    }

    #[test]
    fn prepare_and_complete_can_drive_slots_manually() {
        let mut sys = small_system(8);
        sys.add_static_peers(6).unwrap();
        let problem = sys.prepare_slot().unwrap();
        let schedule = AuctionScheduler::paper().schedule(&problem).unwrap();
        let metrics = sys.complete_slot(&problem, &schedule).unwrap();
        assert_eq!(sys.recorder().len(), 1);
        assert_eq!(metrics.transfers, schedule.assignment.assigned_count() as u64);
    }
}
