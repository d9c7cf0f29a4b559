//! System configuration with the paper's defaults.

use p2p_core::ShardCount;
use p2p_topology::TopologyConfig;
use p2p_types::{P2pError, SimDuration};
use p2p_workload::{DeadlineValuation, StreamingParams};
use serde::{Deserialize, Serialize};

/// How seed peers are provisioned.
///
/// The paper states "in each ISP, for each video, there are 2 seed peers"
/// (Sec. V). The default follows that text literally
/// ([`SeedPlacement::PerIspPerVideo`]). On its own the literal placement
/// would let seeds serve the entire workload intra-ISP and collapse both
/// schedulers' inter-ISP traffic to ~0; what restores the paper's traffic
/// split is that the tracker hands each peer only a *subset* of the seed
/// roster (`max_seed_neighbors`, default 2 of the 10), as a real tracker
/// returning a bounded random peer list would. See DESIGN.md and
/// EXPERIMENTS.md for the calibration argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPlacement {
    /// `count` seeds per video in the whole system, ISPs assigned
    /// round-robin from the video index (scarcer variant for ablations).
    PerVideoTotal(u32),
    /// `count` seeds per video in *every* ISP (the literal text; default).
    PerIspPerVideo(u32),
}

/// How the deadline valuation's `d` ("time to the playback deadline") is
/// measured under slot-quantized scheduling.
///
/// The paper's emulator bids continuously: a chunk's valuation rises as its
/// deadline approaches, and a last-moment profitable fetch (e.g. across an
/// ISP at cost ≈ 5, worthwhile only when `v > 5`, i.e. < 0.3 s before
/// playback) still arrives in time because a chunk transfer takes ~0.1 s.
/// A slot-quantized simulation freezes valuations at slot start and
/// delivers mid-slot, so the literal seconds reading makes every such fetch
/// impossible — remote-only chunks would all miss, inverting Fig. 5.
///
/// [`ValuationTimeBase::SchedulingSlack`] (the default) is the faithful
/// translation: `d` counts the *remaining scheduling opportunities* — how
/// many more slots could still deliver the chunk before its deadline,
/// measured in slot units. A chunk whose **last** feasible slot is the
/// current one has `d = 0` and takes the paper's maximum valuation 8
/// (exactly the continuous protocol's last-moment urgency); a chunk that
/// can also wait for the next slot has `d = 1` (`v ≈ 2.54`), and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValuationTimeBase {
    /// `d` = raw seconds to deadline (the literal reading; kept for
    /// sensitivity studies).
    Seconds,
    /// `d` = remaining scheduling slack in slots (default; see above).
    SchedulingSlack,
}

/// Which clock the per-slot phase timings in a
/// [`RunReport`](p2p_metrics::RunReport) are measured on.
///
/// [`ClockMode::Wall`] samples `std::time::Instant` around each phase —
/// right for benchmarking real engines. [`ClockMode::Virtual`] is for
/// schedulers that simulate the swarm in virtual time (`auction_sim`):
/// the schedule phase reports the simulated convergence time taken from
/// [`ChunkScheduler::take_virtual_elapsed`](p2p_sched::ChunkScheduler::take_virtual_elapsed)
/// and the prepare/complete phases report zero, so reports are
/// byte-identical across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClockMode {
    /// Wall-clock phase timings via `Instant` (default).
    #[default]
    Wall,
    /// Virtual phase timings from the scheduler's simulated clock.
    Virtual,
}

impl ClockMode {
    /// The CLI/spec name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Wall => "wall",
            ClockMode::Virtual => "virtual",
        }
    }

    /// Parses a CLI/spec mode name.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self, P2pError> {
        match name {
            "wall" => Ok(ClockMode::Wall),
            "virtual" => Ok(ClockMode::Virtual),
            other => Err(P2pError::invalid_config(
                "clock",
                format!("unknown mode `{other}` (known: wall, virtual)"),
            )),
        }
    }
}

/// Full configuration of the streaming system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of ISPs `M` (paper: 5).
    pub isp_count: u16,
    /// Number of videos in the catalog (paper: 100).
    pub video_count: usize,
    /// Chunk/bitrate/file-size parameters (paper: 8 KB / 640 kbps / 20 MB).
    pub streaming: StreamingParams,
    /// Target neighbor count per peer (paper: 30).
    pub neighbor_count: usize,
    /// Prefetch horizon (paper: 10 s ⇒ 100 chunks).
    pub prefetch: SimDuration,
    /// Time-slot length (paper: 10 s).
    pub slot_len: SimDuration,
    /// Seed provisioning (see [`SeedPlacement`]).
    pub seeds: SeedPlacement,
    /// Seed upload capacity in multiples of the streaming rate (paper: 8).
    pub seed_rate_multiple: f64,
    /// Watcher upload capacity range in rate multiples (paper: [1, 4]).
    pub upload_multiple: (f64, f64),
    /// Deadline-based valuation parameters (paper: 2 / 1.2 / [0.8, 8]).
    pub valuation: DeadlineValuation,
    /// Unit in which the valuation's time-to-deadline is measured.
    pub valuation_time_base: ValuationTimeBase,
    /// Maximum seeds the tracker places in one neighbor list (`None` = all
    /// of the video's seeds; small values model trackers that return a
    /// random peer subset rather than the full seed roster).
    pub max_seed_neighbors: Option<usize>,
    /// Poisson arrival rate for dynamic experiments, peers/s (paper: 1.0).
    pub arrival_rate: f64,
    /// Early-departure probability (paper: 0 for Fig. 3, 0.6 for Fig. 6).
    pub early_departure_prob: f64,
    /// Playback start delay after join (startup buffering; two slots by
    /// default so the first window can arrive before it is due — the paper
    /// does not specify a value).
    pub startup_delay: SimDuration,
    /// Fraction of the slot after which scheduled chunks are delivered
    /// (the paper's auctions converge ≈ 5 s into a 10 s slot ⇒ 0.5).
    pub delivery_fraction: f64,
    /// Join-time stagger window for static networks (positions diversify
    /// within the first slots, avoiding a fully synchronized swarm).
    pub static_stagger: SimDuration,
    /// Topology parameters (cost distributions, latency mapping).
    pub topology: TopologyConfig,
    /// Shard count for sharded auction schedulers (`auction_sharded`):
    /// `auto` follows the machine's cores, a fixed `N` pins the partition
    /// for reproducible benchmarking (spec key `shards`, CLI `--shards`).
    /// Read by [`SystemConfig::sharded_scheduler`]; the scenario engine
    /// mirrors its own `shards` knob into this field via `base_config()`.
    /// The sequential schedulers ignore it.
    pub shards: ShardCount,
    /// Which clock the slot-phase timings are measured on (see
    /// [`ClockMode`]). The scenario runner flips this to `Virtual` for the
    /// `auction_sim` schedulers.
    pub clock: ClockMode,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's evaluation configuration (Sec. V).
    pub fn paper() -> Self {
        SystemConfig {
            isp_count: 5,
            video_count: 100,
            streaming: StreamingParams::paper_defaults(),
            neighbor_count: 30,
            prefetch: SimDuration::from_secs(10),
            slot_len: SimDuration::from_secs(10),
            seeds: SeedPlacement::PerIspPerVideo(2),
            seed_rate_multiple: 8.0,
            upload_multiple: (1.0, 4.0),
            valuation: DeadlineValuation::paper_defaults(),
            valuation_time_base: ValuationTimeBase::SchedulingSlack,
            max_seed_neighbors: Some(2),
            arrival_rate: 1.0,
            early_departure_prob: 0.0,
            startup_delay: SimDuration::from_secs(20),
            delivery_fraction: 0.5,
            static_stagger: SimDuration::from_secs(30),
            topology: TopologyConfig::paper_defaults(5),
            shards: ShardCount::Auto,
            clock: ClockMode::Wall,
            seed: 42,
        }
    }

    /// A scaled-down configuration for fast unit tests: 2 ISPs, 5 short
    /// videos, 8 neighbors, 5-second slots.
    pub fn small_test() -> Self {
        SystemConfig {
            isp_count: 2,
            video_count: 5,
            streaming: StreamingParams::small_test(),
            neighbor_count: 8,
            prefetch: SimDuration::from_secs(5),
            slot_len: SimDuration::from_secs(5),
            seeds: SeedPlacement::PerVideoTotal(2),
            seed_rate_multiple: 8.0,
            upload_multiple: (1.0, 4.0),
            valuation: DeadlineValuation::paper_defaults(),
            valuation_time_base: ValuationTimeBase::SchedulingSlack,
            max_seed_neighbors: None,
            arrival_rate: 1.0,
            early_departure_prob: 0.0,
            startup_delay: SimDuration::from_secs(10),
            delivery_fraction: 0.5,
            static_stagger: SimDuration::from_secs(10),
            topology: TopologyConfig::paper_defaults(2),
            shards: ShardCount::Auto,
            clock: ClockMode::Wall,
            seed: 42,
        }
    }

    /// Replaces the seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.topology.seed = seed ^ 0xC0517;
        self
    }

    /// Replaces the sharded-scheduler shard count (builder-style).
    #[must_use]
    pub fn with_shards(mut self, shards: ShardCount) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the phase-timing clock mode (builder-style).
    #[must_use]
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// A sharded auction scheduler (paper ε = 0 rule) configured by this
    /// configuration's `shards` knob — the scheduler to hand
    /// [`crate::System::new`] when scheduling slots with
    /// `auction_sharded`.
    pub fn sharded_scheduler(&self) -> p2p_sched::ShardedAuctionScheduler {
        p2p_sched::ShardedAuctionScheduler::paper(self.shards)
    }

    /// Enables churn with the paper's Sec. V-E departure probability
    /// (builder-style).
    #[must_use]
    pub fn with_departures(mut self, prob: f64) -> Self {
        self.early_departure_prob = prob;
        self
    }

    /// Number of chunks in the prefetch window (paper: 100).
    pub fn window_chunks(&self) -> u32 {
        (self.streaming.chunks_per_second() * self.prefetch.as_secs_f64()).round() as u32
    }

    /// Scheduling lookahead in chunks: the prefetch window plus one slot.
    ///
    /// The paper's window slides continuously, so a chunk participates in
    /// auctions for up to `prefetch` *before its due slot begins*. Under
    /// slot quantization the window must therefore extend one slot past the
    /// prefetch horizon, or chunks would only ever be auctioned in the slot
    /// they are consumed.
    pub fn lookahead_chunks(&self) -> u32 {
        self.window_chunks()
            + (self.streaming.chunks_per_second() * self.slot_len.as_secs_f64()).round() as u32
    }

    /// The valuation of a chunk whose deadline is `d_time` away and which
    /// has `slack_slots` scheduling opportunities left after the current
    /// slot, respecting the configured time base.
    pub fn chunk_valuation(&self, d_time: SimDuration, slack_slots: u32) -> p2p_types::Valuation {
        match self.valuation_time_base {
            ValuationTimeBase::Seconds => self.valuation.value(d_time),
            ValuationTimeBase::SchedulingSlack => self.valuation.value_secs(f64::from(slack_slots)),
        }
    }

    /// A watcher's upload budget in chunks per slot for a given rate
    /// multiple.
    pub fn watcher_capacity(&self, rate_multiple: f64) -> u32 {
        self.streaming.rate_multiple_per_slot(rate_multiple, self.slot_len)
    }

    /// A seed's upload budget in chunks per slot.
    pub fn seed_capacity(&self) -> u32 {
        self.streaming.rate_multiple_per_slot(self.seed_rate_multiple, self.slot_len)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] on any out-of-range parameter.
    pub fn validate(&self) -> Result<(), P2pError> {
        if self.isp_count == 0 {
            return Err(P2pError::invalid_config("isp_count", "must be positive"));
        }
        if self.video_count == 0 {
            return Err(P2pError::invalid_config("video_count", "must be positive"));
        }
        self.streaming.validate()?;
        if self.neighbor_count == 0 {
            return Err(P2pError::invalid_config("neighbor_count", "must be positive"));
        }
        if self.slot_len.is_zero() {
            return Err(P2pError::invalid_config("slot_len", "must be positive"));
        }
        if self.window_chunks() == 0 {
            return Err(P2pError::invalid_config("prefetch", "window must cover >= 1 chunk"));
        }
        if !(0.0..=1.0).contains(&self.delivery_fraction) {
            return Err(P2pError::invalid_config("delivery_fraction", "must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.early_departure_prob) {
            return Err(P2pError::invalid_config("early_departure_prob", "must be in [0, 1]"));
        }
        if self.arrival_rate <= 0.0 || !self.arrival_rate.is_finite() {
            return Err(P2pError::invalid_config("arrival_rate", "must be positive"));
        }
        let (lo, hi) = self.upload_multiple;
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || lo > hi {
            return Err(P2pError::invalid_config("upload_multiple", "need 0 < lo <= hi"));
        }
        if self.seed_rate_multiple <= 0.0 {
            return Err(P2pError::invalid_config("seed_rate_multiple", "must be positive"));
        }
        if self.isp_count != self.topology.isp_count {
            return Err(P2pError::invalid_config("topology.isp_count", "must match isp_count"));
        }
        self.shards.validate()?;
        match self.seeds {
            SeedPlacement::PerVideoTotal(0) | SeedPlacement::PerIspPerVideo(0) => {
                Err(P2pError::invalid_config("seeds", "seed count must be positive"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate_and_derive() {
        let c = SystemConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.window_chunks(), 100);
        assert_eq!(c.seed_capacity(), 800);
        assert_eq!(c.watcher_capacity(1.0), 100);
        assert_eq!(c.watcher_capacity(4.0), 400);
    }

    #[test]
    fn small_test_validates() {
        SystemConfig::small_test().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SystemConfig::paper();
        c.isp_count = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper();
        c.neighbor_count = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper();
        c.delivery_fraction = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper();
        c.upload_multiple = (4.0, 1.0);
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper();
        c.seeds = SeedPlacement::PerVideoTotal(0);
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper();
        c.isp_count = 3; // now disagrees with topology
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_methods() {
        let c = SystemConfig::paper().with_seed(7).with_departures(0.6);
        assert_eq!(c.seed, 7);
        assert_eq!(c.early_departure_prob, 0.6);
        c.validate().unwrap();
    }

    #[test]
    fn shards_knob_configures_and_validates() {
        let c = SystemConfig::small_test().with_shards(ShardCount::Fixed(8));
        assert_eq!(c.shards, ShardCount::Fixed(8));
        c.validate().unwrap();
        assert_eq!(c.sharded_scheduler().shards(), ShardCount::Fixed(8));
        let mut c = SystemConfig::paper();
        assert_eq!(c.shards, ShardCount::Auto);
        c.shards = ShardCount::Fixed(0);
        assert!(c.validate().is_err());
    }
}
