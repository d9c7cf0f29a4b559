//! The closed loop every workload runs in, the per-slot samples it
//! records, outcome hashing, and the host stamps that go with a result.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Everything measured or counted about one slot. Fields a workload has
/// no counterpart for stay zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotSample {
    /// Slot wall time, seconds.
    pub wall_s: f64,
    /// Whether spans were recorded during the slot.
    pub traced: bool,
    /// Requests scheduled (requests in the slot's instance).
    pub requests: u64,
    /// Candidate edges in the slot's instance.
    pub edges: u64,
    /// Transfers scheduled (assigned requests).
    pub transfers: u64,
    /// Transfers crossing an ISP boundary.
    pub inter_isp: u64,
    /// Social welfare of the schedule.
    pub welfare: f64,
    /// Auction rounds.
    pub rounds: u64,
    /// Bids submitted.
    pub bids: u64,
    /// Chunks due for playback during the slot (streaming only).
    pub due: u64,
    /// Due chunks that missed their deadline (streaming only).
    pub missed: u64,
    /// Simulator events (swarm only); likewise the fields below.
    pub events: u64,
    /// Protocol messages exchanged.
    pub messages: u64,
    /// Peak pending-event queue.
    pub peak_queue: u64,
    /// Deliveries coalesced into an existing wake-up.
    pub coalesced: u64,
    /// Dropped delivery attempts.
    pub dropped: u64,
    /// Duplicate deliveries discarded.
    pub duplicates_discarded: u64,
    /// Out-of-order arrivals resequenced.
    pub resequenced: u64,
    /// Virtual time of quiescence, seconds.
    pub virtual_s: f64,
    /// Wire frames the tracker sent (networked only).
    pub frames_sent: u64,
    /// Wire frames the tracker received (networked only).
    pub frames_recv: u64,
}

/// Order-sensitive FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an assignment's choices in (`u64::MAX` for unassigned).
    pub fn choices(&mut self, choices: &[Option<usize>]) {
        self.word(choices.len() as u64);
        for c in choices {
            self.word(c.map_or(u64::MAX, |e| e as u64));
        }
    }

    /// Folds a price vector in, bit for bit.
    pub fn prices(&mut self, prices: &[f64]) {
        self.word(prices.len() as u64);
        for p in prices {
            self.word(p.to_bits());
        }
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// State shared by a run's units: samples, failures, set-up times, the
/// tracer and the warm-up's per-slot outcome hashes.
#[derive(Debug)]
pub struct Recorder {
    /// Spans (recorded only while the current unit is traced).
    pub tracer: Tracer,
    /// Whether the current unit is traced.
    pub traced: bool,
    /// Samples of every measured slot.
    pub samples: Vec<SlotSample>,
    /// Slots attempted, warm-up included.
    pub attempted: u64,
    /// Slots that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Per-slot outcome hashes of the warm-up unit; every measured unit
    /// must reproduce them.
    pub reference: Vec<u64>,
    next_slot: u64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            tracer: Tracer::new(),
            traced: false,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            reference: Vec::new(),
            next_slot: 0,
        }
    }

    /// A fresh slot id (spans of one slot share it).
    pub fn slot_id(&mut self) -> u64 {
        self.next_slot += 1;
        self.next_slot
    }

    /// Books one attempted slot: a sample if it passed and was measured,
    /// a failure otherwise.
    pub fn finish_slot(&mut self, measured: bool, result: Result<SlotSample, String>) {
        self.attempted += 1;
        self.tracer.close_open();
        match result {
            Ok(mut sample) if measured => {
                sample.traced = self.traced;
                self.samples.push(sample);
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
            }
        }
    }

    /// Records the warm-up's outcome hash for the slot at `position` of
    /// its unit, or checks a measured slot against it: the same inputs
    /// must replay to the same outcome.
    pub fn check_replay(
        &mut self,
        measured: bool,
        position: usize,
        hash: u64,
    ) -> Result<(), String> {
        if !measured {
            self.reference.push(hash);
            return Ok(());
        }
        match self.reference.get(position) {
            Some(&h) if h == hash => Ok(()),
            Some(&h) => Err(format!(
                "slot {position} replayed to outcome {hash:#018x}, the warm-up gave {h:#018x}"
            )),
            None => Err(format!("slot {position} has no warm-up outcome to replay")),
        }
    }

    /// The run's outcome hash: the warm-up's per-slot hashes, folded.
    pub fn outcome_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for &w in &self.reference {
            h.word(w);
        }
        h.finish()
    }
}

/// One unit of closed-loop work: a slot, or a whole scenario pass.
pub trait Workload {
    /// Builds the system under test once more from the generated inputs,
    /// drops it, and returns the build's wall time in seconds.
    fn setup(&mut self) -> Result<f64, String>;

    /// Runs one unit. The first call is the warm-up (`measured` false):
    /// it is checked in full, certified, and fixes the outcome hashes the
    /// measured units must reproduce.
    fn unit(&mut self, rec: &mut Recorder, measured: bool);
}

/// Share of a run's wall time spent re-timing the set-up.
const SETUP_SHARE: f64 = 0.1;

/// Set-up builds a run times at least.
const MIN_SETUPS: usize = 5;

/// Runs the warm-up unit, then measured units back to back until
/// `seconds` have passed (closed loop: each starts when the previous one
/// completed). Traced runs alternate traced and untraced units, starting
/// traced, with at least one of each.
///
/// The host's speed swings by a quarter within a second or two, so the
/// set-up is not timed in one window at the start: between units, builds
/// are timed until they have taken [`SETUP_SHARE`] of the elapsed time,
/// and `setup_s` is their median over the whole run.
pub fn closed_loop(
    work: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    let start = Instant::now();
    let mut setup_spent = 0.0;
    let mut time_setups = |work: &mut dyn Workload, rec: &mut Recorder| -> Result<(), String> {
        while rec.setup_s.len() < MIN_SETUPS
            || setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            let t = work.setup()?;
            setup_spent += t;
            rec.setup_s.push(t);
        }
        Ok(())
    };
    time_setups(work, rec)?;
    work.unit(rec, false);
    let budget = Duration::from_secs_f64(seconds);
    let min_units = if trace { 2 } else { 1 };
    let mut units = 0u64;
    while units < min_units || start.elapsed() < budget {
        rec.traced = trace && units.is_multiple_of(2);
        rec.tracer.set_enabled(rec.traced);
        work.unit(rec, true);
        rec.traced = false;
        rec.tracer.set_enabled(false);
        units += 1;
        time_setups(work, rec)?;
    }
    Ok(())
}

/// Times `build` once, returning its wall time in seconds; the built
/// value is dropped after the clock stops.
pub fn time_build<T, E: std::fmt::Display>(
    build: impl FnOnce() -> Result<T, E>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let built = build().map_err(|e| format!("set-up: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    drop(built);
    Ok(secs)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The host, commit and compiler a result was measured with.
#[derive(Debug, Clone)]
pub struct Stamps {
    /// Cores available to the process.
    pub nproc: usize,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Stamps {
    /// Reads the stamps (the commit from `.git` in the working directory
    /// only, never from a parent directory).
    pub fn read() -> Self {
        Stamps {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: git_head().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn replay_check_holds_measured_slots_to_the_warm_up() {
        let mut rec = Recorder::new();
        rec.check_replay(false, 0, 11).unwrap();
        rec.check_replay(true, 0, 11).unwrap();
        assert!(rec.check_replay(true, 0, 12).is_err());
        assert!(rec.check_replay(true, 1, 11).is_err());
        rec.finish_slot(true, Err("boom".into()));
        rec.finish_slot(true, Ok(SlotSample::default()));
        rec.finish_slot(false, Ok(SlotSample::default()));
        assert_eq!((rec.attempted, rec.failed, rec.samples.len()), (3, 1, 1));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
