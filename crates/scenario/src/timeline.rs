//! The scenario timeline: a named workload plus events pinned to slots.

use crate::event::ScenarioEvent;
use p2p_streaming::{ShardCount, SystemConfig};
use p2p_types::{P2pError, Result};

/// Which base system configuration a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// The fast test-scale system (2 ISPs, 5 short videos, 5 s slots).
    #[default]
    Small,
    /// The paper's Sec. V evaluation system (5 ISPs, 100 videos, 10 s
    /// slots).
    Paper,
}

impl Profile {
    /// The profile's spec-file name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Small => "small",
            Profile::Paper => "paper",
        }
    }

    /// Parses a spec-file profile name.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self> {
        match name {
            "small" => Ok(Profile::Small),
            "paper" => Ok(Profile::Paper),
            other => Err(P2pError::invalid_config("profile", format!("unknown profile `{other}`"))),
        }
    }
}

/// One event pinned to a slot boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// The slot at whose *start* the event fires (0-based).
    pub at_slot: u64,
    /// What happens.
    pub event: ScenarioEvent,
}

/// A complete declarative scenario: base workload + event timeline.
///
/// # Examples
///
/// ```
/// use p2p_scenario::{Scenario, ScenarioEvent, TimedEvent};
///
/// let mut s = Scenario::new("surge", "a join surge at slot 5");
/// s.initial_peers = 10;
/// s.slots = 12;
/// s.events.push(TimedEvent {
///     at_slot: 5,
///     event: ScenarioEvent::FlashCrowd { peers: 20, video: None, isp: None },
/// });
/// s.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (CLI identifier, report heading).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Base system configuration.
    pub profile: Profile,
    /// Master seed; the same seed reproduces the identical run.
    pub seed: u64,
    /// Number of slots to simulate.
    pub slots: u64,
    /// Static watchers admitted over the configured stagger window at the
    /// start of the run.
    pub initial_peers: usize,
    /// Whether Poisson churn is on from slot 0.
    pub churn: bool,
    /// Churn arrival rate override, peers/s (`None` = profile default).
    pub arrival_rate: Option<f64>,
    /// Seed-scarcity override: `Some(k)` provisions `k` seeds per video in
    /// the whole system (round-robin ISPs) instead of the profile's
    /// per-ISP placement — scarce seeds force cross-ISP traffic, which is
    /// where repricing and outage events bite.
    pub seeds_per_video: Option<u32>,
    /// Shard count for sharded auction schedulers (`auction_sharded`):
    /// `auto` follows the machine's cores, a fixed `N` pins the partition.
    pub shards: ShardCount,
    /// Network-model preset for the virtual-time sim schedulers
    /// (`auction_sim`): `"ideal"`, `"lan"` or `"lossy"` (spec key `net`,
    /// CLI `--net`). The in-process schedulers ignore it.
    pub net: String,
    /// The event timeline (kept in spec order; the runner fires events
    /// stably sorted by slot).
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario with library defaults: small profile, seed 42,
    /// 20 slots, no peers, no churn, no events.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            description: description.into(),
            profile: Profile::Small,
            seed: 42,
            slots: 20,
            initial_peers: 0,
            churn: false,
            arrival_rate: None,
            seeds_per_video: None,
            shards: ShardCount::Auto,
            net: "ideal".into(),
            events: Vec::new(),
        }
    }

    /// Replaces the seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the sharded-scheduler shard count (builder-style).
    #[must_use]
    pub fn with_shards(mut self, shards: ShardCount) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the sim-scheduler network preset (builder-style).
    #[must_use]
    pub fn with_net(mut self, net: impl Into<String>) -> Self {
        self.net = net.into();
        self
    }

    /// Compresses the timeline for smoke runs: at most `max_slots` slots,
    /// with every event's slot rescaled proportionally so the dramatic arc
    /// survives.
    #[must_use]
    pub fn quick(mut self, max_slots: u64) -> Self {
        let max_slots = max_slots.max(1);
        if self.slots <= max_slots {
            return self;
        }
        for e in &mut self.events {
            e.at_slot = e.at_slot * max_slots / self.slots;
        }
        self.slots = max_slots;
        self
    }

    /// The system configuration this scenario runs on.
    pub fn base_config(&self) -> SystemConfig {
        let mut config = match self.profile {
            Profile::Small => SystemConfig::small_test(),
            Profile::Paper => SystemConfig::paper(),
        }
        .with_seed(self.seed);
        if let Some(rate) = self.arrival_rate {
            config.arrival_rate = rate;
        }
        if let Some(k) = self.seeds_per_video {
            config.seeds = p2p_streaming::SeedPlacement::PerVideoTotal(k);
        }
        config.shards = self.shards;
        config
    }

    /// Validates the scenario shape (system-level parameters are validated
    /// again when events are applied).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for an empty name, zero slots,
    /// an event beyond the horizon, or an invalid base configuration.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(P2pError::invalid_config("name", "must not be empty"));
        }
        if self.slots == 0 {
            return Err(P2pError::invalid_config("slots", "must be positive"));
        }
        for e in &self.events {
            if e.at_slot >= self.slots {
                return Err(P2pError::invalid_config(
                    "event",
                    format!(
                        "event at slot {} is beyond the {}-slot horizon",
                        e.at_slot, self.slots
                    ),
                ));
            }
        }
        if p2p_sched::NetworkModel::preset(&self.net).is_none() {
            return Err(P2pError::invalid_config(
                "net",
                format!("unknown network preset `{}` (known: ideal, lan, lossy)", self.net),
            ));
        }
        self.base_config().validate()
    }

    /// A deterministic multi-line description of the timeline (for report
    /// headers).
    pub fn timeline_description(&self) -> String {
        let mut out = String::new();
        let mut events: Vec<&TimedEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.at_slot);
        for e in events {
            out.push_str(&format!("  slot {:>4}: {}\n", e.at_slot, e.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_shape_errors() {
        let mut s = Scenario::new("x", "d");
        s.validate().unwrap();
        s.slots = 0;
        assert!(s.validate().is_err());
        s.slots = 10;
        s.events
            .push(TimedEvent { at_slot: 10, event: ScenarioEvent::LinkReprice { factor: 2.0 } });
        assert!(s.validate().is_err());
        s.events[0].at_slot = 9;
        s.validate().unwrap();
        s.name.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn quick_rescales_the_timeline() {
        let mut s = Scenario::new("x", "d");
        s.slots = 40;
        s.events
            .push(TimedEvent { at_slot: 20, event: ScenarioEvent::LinkReprice { factor: 2.0 } });
        s.events.push(TimedEvent {
            at_slot: 39,
            event: ScenarioEvent::IspRecovery { isp: p2p_types::IspId::new(0) },
        });
        let q = s.clone().quick(10);
        assert_eq!(q.slots, 10);
        assert_eq!(q.events[0].at_slot, 5);
        assert_eq!(q.events[1].at_slot, 9);
        q.validate().unwrap();
        // Already-short scenarios are untouched.
        assert_eq!(s.clone().quick(100), s);
    }

    #[test]
    fn profiles_round_trip_and_configure() {
        assert_eq!(Profile::from_name("small").unwrap(), Profile::Small);
        assert_eq!(Profile::from_name("paper").unwrap(), Profile::Paper);
        assert!(Profile::from_name("huge").is_err());
        let mut s = Scenario::new("x", "d").with_seed(7);
        s.profile = Profile::Paper;
        s.arrival_rate = Some(3.0);
        let c = s.base_config();
        assert_eq!(c.seed, 7);
        assert_eq!(c.isp_count, 5);
        assert_eq!(c.arrival_rate, 3.0);
    }

    #[test]
    fn shards_flow_into_the_base_config() {
        let s = Scenario::new("x", "d").with_shards(ShardCount::Fixed(4));
        assert_eq!(s.base_config().shards, ShardCount::Fixed(4));
        s.validate().unwrap();
        assert_eq!(Scenario::new("x", "d").shards, ShardCount::Auto);
    }

    #[test]
    fn timeline_description_is_sorted() {
        let mut s = Scenario::new("x", "d");
        s.events.push(TimedEvent { at_slot: 9, event: ScenarioEvent::LinkReprice { factor: 2.0 } });
        s.events.push(TimedEvent { at_slot: 1, event: ScenarioEvent::ChurnBurst { rate: 5.0 } });
        let d = s.timeline_description();
        let first = d.find("churn_burst").unwrap();
        let second = d.find("link_reprice").unwrap();
        assert!(first < second);
    }
}
