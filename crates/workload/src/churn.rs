//! Peer arrival/departure (churn) model.
//!
//! Reproduces the dynamic model of Sec. V: peers join as a Poisson process
//! (rate 1/s), are spread evenly over the ISPs, pick a video by the
//! Zipf–Mandelbrot law, draw an upload capacity uniform in \[1,4\]× the
//! streaming rate, and either watch to the end or (Sec. V-E) depart early
//! "at any time with probability 0.6" — modelled as a Bernoulli(0.6) early
//! departure at a uniformly random instant of the viewing period.

use crate::arrival::PoissonProcess;
use crate::catalog::VideoCatalog;
use crate::dist::{UniformRange, ZipfMandelbrot};
use p2p_types::{IspId, P2pError, SimDuration, SimTime, VideoId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One generated peer arrival, with everything the streaming system needs to
/// instantiate the peer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerArrival {
    /// Join instant.
    pub at: SimTime,
    /// ISP the peer lands in (round-robin ⇒ even spread, per the paper).
    pub isp: IspId,
    /// Video the peer watches (Zipf–Mandelbrot rank).
    pub video: VideoId,
    /// Upload capacity as a multiple of the streaming rate.
    pub upload_rate_multiple: f64,
    /// If `Some`, the peer departs early at this instant; otherwise it stays
    /// until playback finishes.
    pub departs_at: Option<SimTime>,
}

/// Configuration of the churn model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Poisson arrival rate in peers per second (paper: 1.0).
    pub arrival_rate: f64,
    /// Probability that a peer departs before finishing its video
    /// (paper Sec. V-E: 0.6; 0.0 reproduces the Sec. V-B dynamic model where
    /// peers "stay until they finish watching").
    pub early_departure_prob: f64,
    /// Upload capacity range in multiples of the streaming rate
    /// (paper: [1, 4]).
    pub upload_multiple: (f64, f64),
    /// Number of ISPs peers are spread over (paper: 5).
    pub isp_count: u16,
}

impl ChurnConfig {
    /// The paper's dynamic-join model without early departures (Sec. V-B).
    pub fn paper_joins_only(isp_count: u16) -> Self {
        ChurnConfig {
            arrival_rate: 1.0,
            early_departure_prob: 0.0,
            upload_multiple: (1.0, 4.0),
            isp_count,
        }
    }

    /// The paper's churn model with early departures (Sec. V-E).
    pub fn paper_with_departures(isp_count: u16) -> Self {
        ChurnConfig { early_departure_prob: 0.6, ..Self::paper_joins_only(isp_count) }
    }
}

/// Generator of peer arrivals following the paper's dynamic model.
///
/// # Examples
///
/// ```
/// use p2p_workload::{ChurnModel, VideoCatalog, StreamingParams};
/// use p2p_workload::churn::ChurnConfig;
/// use p2p_types::SimTime;
/// use rand::SeedableRng;
///
/// let catalog = VideoCatalog::uniform(100, StreamingParams::paper_defaults()).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &catalog).unwrap();
/// let arrivals = churn.arrivals_until(SimTime::from_secs_f64(60.0), &catalog, &mut rng);
/// assert!(!arrivals.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ChurnModel {
    config: ChurnConfig,
    process: PoissonProcess,
    popularity: ZipfMandelbrot,
    capacity: UniformRange,
    next_isp: u16,
}

impl ChurnModel {
    /// Creates a churn model for the given catalog.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for non-positive rates, an empty
    /// catalog, a departure probability outside `[0,1]`, or zero ISPs.
    pub fn new(config: ChurnConfig, catalog: &VideoCatalog) -> Result<Self, P2pError> {
        if !(0.0..=1.0).contains(&config.early_departure_prob) {
            return Err(P2pError::invalid_config("early_departure_prob", "must be within [0, 1]"));
        }
        if config.isp_count == 0 {
            return Err(P2pError::invalid_config("isp_count", "must be positive"));
        }
        Ok(ChurnModel {
            config,
            process: PoissonProcess::new(config.arrival_rate)?,
            popularity: ZipfMandelbrot::new(catalog.len(), 0.78, 4.0)?,
            capacity: UniformRange::new(config.upload_multiple.0, config.upload_multiple.1)?,
            next_isp: 0,
        })
    }

    /// The configuration this model was built with (the `arrival_rate`
    /// field reflects later [`ChurnModel::set_rate`] calls).
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Changes the Poisson arrival rate mid-run (scenario churn bursts).
    /// The process clock is preserved, so already-elapsed history is not
    /// replayed at the new rate.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] if the rate is not positive.
    pub fn set_rate(&mut self, rate: f64) -> Result<(), P2pError> {
        self.process.set_rate(rate)?;
        self.config.arrival_rate = rate;
        Ok(())
    }

    /// Replaces the video-popularity law mid-run (scenario popularity
    /// shifts, e.g. a new release concentrating demand).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] if the new law does not cover
    /// exactly the same number of videos as the current one.
    pub fn set_popularity(&mut self, popularity: ZipfMandelbrot) -> Result<(), P2pError> {
        if popularity.len() != self.popularity.len() {
            return Err(P2pError::invalid_config(
                "popularity",
                "new law must cover the same catalog",
            ));
        }
        self.popularity = popularity;
        Ok(())
    }

    /// Fast-forwards the arrival clock to `t` if it lags behind (used when
    /// churn is enabled mid-run so no back-dated arrival flood occurs).
    pub fn advance_to(&mut self, t: SimTime) {
        self.process.advance_to(t);
    }

    /// Restarts the arrival clock at `t` (see
    /// [`PoissonProcess::restart_at`]): callers changing the rate or the
    /// popularity law mid-run restart from the change instant so the new
    /// parameters take effect immediately instead of after one stale
    /// old-parameter gap.
    pub fn restart_at(&mut self, t: SimTime) {
        self.process.restart_at(t);
    }

    /// Generates the next arrival.
    pub fn next_arrival<R: Rng + ?Sized>(
        &mut self,
        catalog: &VideoCatalog,
        rng: &mut R,
    ) -> PeerArrival {
        let at = self.process.next_arrival(rng);
        let isp = IspId::new(self.next_isp);
        self.next_isp = (self.next_isp + 1) % self.config.isp_count;
        let video_rank = self.popularity.sample_index(rng);
        let video = VideoId::new(video_rank as u32);
        let upload_rate_multiple = self.capacity.sample(rng);

        let view_len: SimDuration = catalog.params().video_duration();
        let departs_at = if rng.gen::<f64>() < self.config.early_departure_prob {
            // Uniform instant within the viewing period.
            let frac: f64 = rng.gen();
            Some(at + SimDuration::from_secs_f64(view_len.as_secs_f64() * frac))
        } else {
            None
        };

        PeerArrival { at, isp, video, upload_rate_multiple, departs_at }
    }

    /// Generates all arrivals strictly before `horizon`.
    pub fn arrivals_until<R: Rng + ?Sized>(
        &mut self,
        horizon: SimTime,
        catalog: &VideoCatalog,
        rng: &mut R,
    ) -> Vec<PeerArrival> {
        let mut out = Vec::new();
        loop {
            let a = self.next_arrival(catalog, rng);
            if a.at >= horizon {
                break;
            }
            out.push(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StreamingParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> VideoCatalog {
        VideoCatalog::uniform(100, StreamingParams::paper_defaults()).unwrap()
    }

    #[test]
    fn isps_are_evenly_spread() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(2);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        let arrivals = churn.arrivals_until(SimTime::from_secs_f64(500.0), &cat, &mut rng);
        let mut counts = [0usize; 5];
        for a in &arrivals {
            counts[a.isp.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin must be perfectly even: {counts:?}");
    }

    #[test]
    fn popular_videos_dominate() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(3);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        let arrivals = churn.arrivals_until(SimTime::from_secs_f64(20_000.0), &cat, &mut rng);
        let head = arrivals.iter().filter(|a| a.video.index() < 10).count();
        let tail = arrivals.iter().filter(|a| a.video.index() >= 90).count();
        assert!(head > 2 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn upload_capacity_in_range() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(4);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(3), &cat).unwrap();
        for _ in 0..500 {
            let a = churn.next_arrival(&cat, &mut rng);
            assert!((1.0..=4.0).contains(&a.upload_rate_multiple));
            assert!(a.departs_at.is_none());
        }
    }

    #[test]
    fn departure_probability_is_honored() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(5);
        let mut churn = ChurnModel::new(ChurnConfig::paper_with_departures(5), &cat).unwrap();
        let n = 5_000;
        let mut early = 0usize;
        for _ in 0..n {
            let a = churn.next_arrival(&cat, &mut rng);
            if let Some(t) = a.departs_at {
                early += 1;
                assert!(t >= a.at);
                assert!(t <= a.at + cat.params().video_duration());
            }
        }
        let frac = early as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn config_validation() {
        let cat = catalog();
        let bad = ChurnConfig { early_departure_prob: 1.5, ..ChurnConfig::paper_joins_only(5) };
        assert!(ChurnModel::new(bad, &cat).is_err());
        let bad = ChurnConfig { isp_count: 0, ..ChurnConfig::paper_joins_only(5) };
        assert!(ChurnModel::new(bad, &cat).is_err());
        let bad = ChurnConfig { arrival_rate: 0.0, ..ChurnConfig::paper_joins_only(5) };
        assert!(ChurnModel::new(bad, &cat).is_err());
    }

    #[test]
    fn rate_can_change_mid_run() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(7);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        let before = churn.arrivals_until(SimTime::from_secs_f64(100.0), &cat, &mut rng);
        churn.set_rate(10.0).unwrap();
        assert_eq!(churn.config().arrival_rate, 10.0);
        let after = churn.arrivals_until(SimTime::from_secs_f64(200.0), &cat, &mut rng);
        // 10× the rate over an equal window ⇒ far more arrivals.
        assert!(after.len() > 3 * before.len(), "{} vs {}", after.len(), before.len());
        assert!(churn.set_rate(-1.0).is_err());
    }

    #[test]
    fn popularity_can_shift_mid_run() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(8);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        // A near-degenerate law: almost all mass on rank 1.
        churn.set_popularity(ZipfMandelbrot::new(cat.len(), 12.0, 0.0).unwrap()).unwrap();
        let arrivals = churn.arrivals_until(SimTime::from_secs_f64(2_000.0), &cat, &mut rng);
        let top = arrivals.iter().filter(|a| a.video.index() == 0).count();
        assert!(top as f64 > 0.95 * arrivals.len() as f64, "{top}/{}", arrivals.len());
        // Mismatched catalog size is rejected.
        assert!(churn.set_popularity(ZipfMandelbrot::new(3, 1.0, 0.0).unwrap()).is_err());
    }

    #[test]
    fn advance_skips_backlog() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(9);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        churn.advance_to(SimTime::from_secs_f64(500.0));
        let a = churn.next_arrival(&cat, &mut rng);
        assert!(a.at > SimTime::from_secs_f64(500.0));
    }

    #[test]
    fn arrivals_are_time_ordered() {
        let cat = catalog();
        let mut rng = StdRng::seed_from_u64(6);
        let mut churn = ChurnModel::new(ChurnConfig::paper_joins_only(5), &cat).unwrap();
        let arrivals = churn.arrivals_until(SimTime::from_secs_f64(100.0), &cat, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }
}
