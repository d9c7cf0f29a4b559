//! The metric catalog (names and units, as in `BENCHMARK.json`) and how
//! each value is derived from a run's samples and spans.
//!
//! Every end-to-end metric is defined on every workload. The end-to-end
//! numbers of the design that apply to one path only (`miss_rate`,
//! `sim_events_per_s`, `sim_converge_virtual_s`) travel with the traced
//! run's per-layer metrics and read 0 on the other paths, as do the
//! layer metrics of layers a workload does not call.

use crate::cli::WorkloadName;
use crate::measure::{quantile, ratio, Recorder, SlotSample};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("slot_p50_ms", "ms"),
    ("slot_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("welfare_per_slot", "utility"),
    ("inter_isp_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Times are mean self
/// time per measured slot; counts are means per slot.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("streaming.prepare_s", "s/slot"),
    ("sched.schedule_s", "s/slot"),
    ("streaming.complete_s", "s/slot"),
    ("scenario.apply_s", "s/slot"),
    ("stream.requests", "count/slot"),
    ("stream.edges", "count/slot"),
    ("stream.transfers", "count/slot"),
    ("sched.rounds", "count/slot"),
    ("sched.bids", "count/slot"),
    ("sched.bids_per_transfer", "ratio"),
    ("miss_rate", "share"),
    ("swarm.run_s", "s/slot"),
    ("sim.events", "count/slot"),
    ("sim.messages", "count/slot"),
    ("sim.peak_queue", "count/slot"),
    ("sim.coalesced_events", "count/slot"),
    ("sim.dropped", "count/slot"),
    ("sim.duplicates_discarded", "count/slot"),
    ("sim.resequenced", "count/slot"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.events_per_message", "ratio"),
    ("sim.peak_queue_per_peer", "ratio"),
    ("sim_events_per_s", "1/s"),
    ("sim_converge_virtual_s", "virtual_s"),
    ("net.bind_s", "s/slot"),
    ("net.accept_s", "s/slot"),
    ("net.sweep_s", "s/slot"),
    ("net.teardown_s", "s/slot"),
    ("net.frames_sent", "count/slot"),
    ("net.frames_recv", "count/slot"),
    ("net.wait_share", "share"),
    ("bench.remainder_s", "s/slot"),
    ("trace.overhead_ms", "ms"),
];

/// The design's end-to-end metrics beyond [`END_TO_END`] that apply to a
/// workload: they are printed on the untraced run's report lines (and
/// ride in the per-layer JSON), since the JSON's end-to-end metrics must
/// be defined, and never 0, on every workload.
pub fn path_only(workload: WorkloadName) -> &'static [(&'static str, &'static str)] {
    match workload {
        WorkloadName::StreamFlash => &[("miss_rate", "share"), ("failed_share", "share")],
        WorkloadName::SwarmLossy => &[
            ("sim_events_per_s", "1/s"),
            ("sim_converge_virtual_s", "virtual_s"),
            ("failed_share", "share"),
        ],
        WorkloadName::NetSlot => &[("failed_share", "share")],
    }
}

/// A run's samples, split by tracing, ready to be read out by name.
pub struct Summary<'a> {
    rec: &'a Recorder,
    rss_mb: f64,
    untraced: Vec<&'a SlotSample>,
    traced: Vec<&'a SlotSample>,
    self_s: BTreeMap<&'static str, f64>,
}

fn sum(samples: &[&SlotSample], f: impl Fn(&SlotSample) -> f64) -> f64 {
    samples.iter().map(|s| f(s)).sum()
}

fn walls(samples: &[&SlotSample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall_s).collect()
}

impl<'a> Summary<'a> {
    /// Summarizes `rec`; `rss_mb` is the process's peak RSS.
    pub fn new(rec: &'a Recorder, rss_mb: f64) -> Self {
        let (traced, untraced) = rec.samples.iter().partition(|s| s.traced);
        Summary { rec, rss_mb, untraced, traced, self_s: rec.tracer.self_times() }
    }

    /// Measured slots (untraced, traced).
    pub fn slot_counts(&self) -> (usize, usize) {
        (self.untraced.len(), self.traced.len())
    }

    /// Mean self time per traced slot of the spans named `span`.
    fn layer_s(&self, span: &str) -> f64 {
        ratio(self.self_s.get(span).copied().unwrap_or(0.0), self.traced.len() as f64)
    }

    /// Mean per measured slot.
    fn per_slot(&self, f: impl Fn(&SlotSample) -> f64) -> f64 {
        ratio(self.total(f), self.rec.samples.len() as f64)
    }

    fn total(&self, f: impl Fn(&SlotSample) -> f64) -> f64 {
        self.rec.samples.iter().map(f).sum()
    }

    /// The value of the metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog.
    pub fn value(&self, name: &str) -> f64 {
        let u = &self.untraced;
        let t = &self.traced;
        match name {
            "setup_s" => quantile(&self.rec.setup_s, 0.5),
            "slot_p50_ms" => 1e3 * quantile(&walls(u), 0.5),
            "slot_p90_ms" => 1e3 * quantile(&walls(u), 0.9),
            "requests_per_s" => ratio(sum(u, |s| s.requests as f64), sum(u, |s| s.wall_s)),
            "welfare_per_slot" => self.per_slot(|s| s.welfare),
            "inter_isp_share" => {
                ratio(self.total(|s| s.inter_isp as f64), self.total(|s| s.transfers as f64))
            }
            "peak_rss_mb" => self.rss_mb,
            "failed_share" => ratio(self.rec.failed as f64, self.rec.attempted as f64),
            "miss_rate" => ratio(self.total(|s| s.missed as f64), self.total(|s| s.due as f64)),
            "sim_events_per_s" => ratio(sum(u, |s| s.events as f64), sum(u, |s| s.wall_s)),
            "sim_converge_virtual_s" => self.per_slot(|s| s.virtual_s),
            "streaming.prepare_s" => self.layer_s("streaming.prepare"),
            "sched.schedule_s" => self.layer_s("sched.schedule"),
            "streaming.complete_s" => self.layer_s("streaming.complete"),
            "scenario.apply_s" => self.layer_s("scenario.apply"),
            "swarm.run_s" => self.layer_s("swarm.run"),
            "net.bind_s" => self.layer_s("net.bind"),
            "net.accept_s" => self.layer_s("net.accept"),
            "net.sweep_s" => self.layer_s("net.sweep"),
            "net.teardown_s" => self.layer_s("net.teardown"),
            "bench.remainder_s" => self.layer_s("slot"),
            "stream.requests" => self.per_slot(|s| s.requests as f64),
            "stream.edges" => self.per_slot(|s| s.edges as f64),
            "stream.transfers" => self.per_slot(|s| s.transfers as f64),
            "sched.rounds" => self.per_slot(|s| s.rounds as f64),
            "sched.bids" => self.per_slot(|s| s.bids as f64),
            "sched.bids_per_transfer" => {
                ratio(self.total(|s| s.bids as f64), self.total(|s| s.transfers as f64))
            }
            "sim.events" => self.per_slot(|s| s.events as f64),
            "sim.messages" => self.per_slot(|s| s.messages as f64),
            "sim.peak_queue" => self.per_slot(|s| s.peak_queue as f64),
            "sim.coalesced_events" => self.per_slot(|s| s.coalesced as f64),
            "sim.dropped" => self.per_slot(|s| s.dropped as f64),
            "sim.duplicates_discarded" => self.per_slot(|s| s.duplicates_discarded as f64),
            "sim.resequenced" => self.per_slot(|s| s.resequenced as f64),
            "sim.ns_per_event" => {
                1e9 * ratio(
                    self.self_s.get("swarm.run").copied().unwrap_or(0.0),
                    sum(t, |s| s.events as f64),
                )
            }
            "sim.events_per_message" => {
                ratio(self.total(|s| s.events as f64), self.total(|s| s.messages as f64))
            }
            "sim.peak_queue_per_peer" => {
                ratio(self.total(|s| s.peak_queue as f64), self.total(|s| s.requests as f64))
            }
            "net.frames_sent" => self.per_slot(|s| s.frames_sent as f64),
            "net.frames_recv" => self.per_slot(|s| s.frames_recv as f64),
            "net.wait_share" => ratio(
                self.self_s.get("net.accept").copied().unwrap_or(0.0)
                    + self.self_s.get("net.teardown").copied().unwrap_or(0.0),
                sum(t, |s| s.wall_s),
            ),
            "trace.overhead_ms" => 1e3 * (quantile(&walls(t), 0.5) - quantile(&walls(u), 0.5)),
            other => panic!("metric `{other}` is not in the catalog"),
        }
    }

    /// The untraced slot times' sample count and spread, as a report line.
    pub fn slot_distribution(&self) -> String {
        let w = walls(&self.untraced);
        let q = |p| 1e3 * quantile(&w, p);
        format!(
            "slot_ms n={} min={:.3} p10={:.3} p50={:.3} p90={:.3} max={:.3}",
            w.len(),
            q(0.0),
            q(0.1),
            q(0.5),
            q(0.9),
            q(1.0)
        )
    }

    /// Mean wall time per traced slot, seconds.
    pub fn traced_slot_s(&self) -> f64 {
        ratio(sum(&self.traced, |s| s.wall_s), self.traced.len() as f64)
    }

    /// Mean self time per traced slot of every recorded span name.
    pub fn layer_split(&self) -> Vec<(&'static str, f64)> {
        self.self_s.keys().map(|&k| (k, self.layer_s(k))).collect()
    }
}

/// Renders metrics as the body of the result's `metrics` object.
pub fn json_metrics(summary: &Summary<'_>, catalog: &[(&str, &str)]) -> String {
    let body: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = summary.value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
