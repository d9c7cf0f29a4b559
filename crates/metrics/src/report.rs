//! Structured run reports: the per-slot stitching of engine probes, cache
//! counters, sketched uniques and phase timings, with event-window
//! aggregation and machine-readable JSON/CSV export.
//!
//! A [`RunReport`] is what the streaming `System` accumulates when probes
//! are enabled and what the `scenarios --metrics-out` CLI writes to disk.
//! It is bounded-memory by construction: per slot it stores a fixed set of
//! scalars plus an optional [`EngineReport`] (fixed-bucket histograms), and
//! the run-level uniques are HLL estimates, so report size is O(slots),
//! never O(peers) or O(bids).
//!
//! Serialization is hand-rolled (`to_json`, `slot_csv`): the workspace's
//! serde shim is a no-op, so these emitters are the single source of truth
//! for the on-disk schema documented in the README.

use crate::probe::EngineReport;
use crate::Histogram;

/// Wall-clock seconds spent in each phase of one slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Admissions, churn, refresh and slot-problem construction.
    pub prepare_s: f64,
    /// The scheduler (auction) run.
    pub schedule_s: f64,
    /// Delivery application, metric recording, slot advance.
    pub complete_s: f64,
}

impl PhaseTimings {
    /// Total seconds across the three phases.
    pub fn total_s(&self) -> f64 {
        self.prepare_s + self.schedule_s + self.complete_s
    }
}

/// Slot-problem cache counters for one slot (plain numbers so the metrics
/// crate stays a leaf — the streaming crate converts its own stats type).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Watcher blocks rebuilt from scratch.
    pub blocks_rebuilt: u64,
    /// Watcher blocks reused.
    pub blocks_reused: u64,
    /// Chunk requests scanned fresh.
    pub chunks_fresh: u64,
    /// Chunk requests reused from a prior slot.
    pub chunks_reused: u64,
    /// Delivery patches applied to cached blocks this slot.
    pub patched: u64,
    /// Blocks pruned (departed or emptied watchers) this slot.
    pub pruned: u64,
}

impl CacheCounters {
    /// Folds another slot's counters in (all fields add).
    pub fn merge(&mut self, o: &CacheCounters) {
        self.blocks_rebuilt += o.blocks_rebuilt;
        self.blocks_reused += o.blocks_reused;
        self.chunks_fresh += o.chunks_fresh;
        self.chunks_reused += o.chunks_reused;
        self.patched += o.patched;
        self.pruned += o.pruned;
    }
}

/// One slot's observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotReport {
    /// Slot index.
    pub slot: u64,
    /// Wall-clock phase timings.
    pub phases: PhaseTimings,
    /// Requests in the slot problem.
    pub requests: u64,
    /// Providers in the slot problem.
    pub providers: u64,
    /// Candidate edges in the slot problem.
    pub edges: u64,
    /// The slot's social welfare.
    pub welfare: f64,
    /// Chunks delivered.
    pub transfers: u64,
    /// Deliveries crossing an ISP boundary.
    pub inter_isp: u64,
    /// Chunks missed at their deadline.
    pub missed: u64,
    /// Online peers at slot end.
    pub online: u64,
    /// Engine probe snapshot, when the scheduler exposes one.
    pub engine: Option<EngineReport>,
    /// Slot-problem cache counters, when the incremental builder ran.
    pub cache: Option<CacheCounters>,
}

/// Aggregation of a contiguous slot range — the before/during/after event
/// windows of a scenario run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// Window name (`before`, `during`, `after`, or `all`).
    pub name: String,
    /// First slot (inclusive).
    pub first_slot: u64,
    /// Last slot (inclusive).
    pub last_slot: u64,
    /// Slots aggregated.
    pub slots: u64,
    /// Mean per-slot welfare.
    pub welfare_mean: f64,
    /// Mean per-slot missed chunks.
    pub missed_mean: f64,
    /// Total wall-clock seconds across all phases.
    pub wall_s: f64,
    /// Merged engine reports of the window's slots.
    pub engine: Option<EngineReport>,
}

/// HLL-sketched unique counts over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UniqueCounts {
    /// Sketch precision used.
    pub precision: u8,
    /// Estimated distinct requesting peers.
    pub requesters: f64,
    /// Estimated distinct providing peers.
    pub providers: f64,
    /// Estimated distinct candidate edges (provider, requester) pairs.
    pub edges: f64,
}

/// The structured report of one run (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario name (empty outside the scenario runner).
    pub scenario: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Slot length in seconds.
    pub slot_secs: f64,
    /// Per-slot observations, ascending by slot.
    pub slots: Vec<SlotReport>,
    /// Run-level sketched uniques.
    pub uniques: UniqueCounts,
    /// Event-window aggregations (filled by
    /// [`RunReport::aggregate_windows`]).
    pub windows: Vec<WindowReport>,
    /// Distribution of per-slot schedule-phase latencies.
    pub schedule_latency: Histogram,
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport::new("", "", 0.0)
    }
}

impl RunReport {
    /// A report shell for one run.
    pub fn new(scenario: impl Into<String>, scheduler: impl Into<String>, slot_secs: f64) -> Self {
        RunReport {
            scenario: scenario.into(),
            scheduler: scheduler.into(),
            slot_secs,
            slots: Vec::new(),
            uniques: UniqueCounts::default(),
            windows: Vec::new(),
            schedule_latency: Histogram::for_seconds(),
        }
    }

    /// Appends one slot's observations (also feeds the run-level schedule
    /// latency histogram).
    pub fn push_slot(&mut self, slot: SlotReport) {
        self.schedule_latency.record(slot.phases.schedule_s);
        self.slots.push(slot);
    }

    /// Builds the window aggregations from named inclusive slot ranges,
    /// skipping empty ranges (`lo > hi`).
    pub fn aggregate_windows(&mut self, windows: &[(&str, u64, u64)]) {
        self.windows.clear();
        for &(name, lo, hi) in windows {
            if lo > hi {
                continue;
            }
            let mut w = WindowReport {
                name: name.to_string(),
                first_slot: lo,
                last_slot: hi,
                ..WindowReport::default()
            };
            let mut welfare = 0.0;
            let mut missed = 0.0;
            for s in self.slots.iter().filter(|s| s.slot >= lo && s.slot <= hi) {
                w.slots += 1;
                welfare += s.welfare;
                missed += s.missed as f64;
                w.wall_s += s.phases.total_s();
                if let Some(e) = &s.engine {
                    w.engine.get_or_insert_with(EngineReport::default).merge(e);
                }
            }
            if w.slots > 0 {
                w.welfare_mean = welfare / w.slots as f64;
                w.missed_mean = missed / w.slots as f64;
            }
            self.windows.push(w);
        }
    }

    /// The report as a JSON document (the schema in the README's
    /// Observability section).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.slots.len() * 512);
        out.push_str("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        out.push_str(&format!("  \"scheduler\": {},\n", json_str(&self.scheduler)));
        out.push_str(&format!("  \"slot_secs\": {},\n", json_f64(self.slot_secs)));
        out.push_str(&format!(
            "  \"uniques\": {{\"precision\": {}, \"requesters\": {}, \"providers\": {}, \"edges\": {}}},\n",
            self.uniques.precision,
            json_f64(self.uniques.requesters),
            json_f64(self.uniques.providers),
            json_f64(self.uniques.edges)
        ));
        out.push_str(&format!(
            "  \"schedule_latency\": {},\n",
            histogram_json(&self.schedule_latency)
        ));
        out.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"first_slot\": {}, \"last_slot\": {}, \"slots\": {}, \
                 \"welfare_mean\": {}, \"missed_mean\": {}, \"wall_s\": {}, \"engine\": {}}}{}\n",
                json_str(&w.name),
                w.first_slot,
                w.last_slot,
                w.slots,
                json_f64(w.welfare_mean),
                json_f64(w.missed_mean),
                json_f64(w.wall_s),
                engine_json(w.engine.as_ref()),
                comma(i, self.windows.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"slots\": [\n");
        for (i, s) in self.slots.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"slot\": {}, \"prepare_s\": {}, \"schedule_s\": {}, \"complete_s\": {}, \
                 \"requests\": {}, \"providers\": {}, \"edges\": {}, \"welfare\": {}, \
                 \"transfers\": {}, \"inter_isp\": {}, \"missed\": {}, \"online\": {}, \
                 \"engine\": {}, \"cache\": {}}}{}\n",
                s.slot,
                json_f64(s.phases.prepare_s),
                json_f64(s.phases.schedule_s),
                json_f64(s.phases.complete_s),
                s.requests,
                s.providers,
                s.edges,
                json_f64(s.welfare),
                s.transfers,
                s.inter_isp,
                s.missed,
                s.online,
                engine_json(s.engine.as_ref()),
                cache_json(s.cache.as_ref()),
                comma(i, self.slots.len())
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The per-slot counters as a CSV table (one row per slot).
    pub fn slot_csv(&self) -> String {
        let mut out = String::from(
            "slot,prepare_s,schedule_s,complete_s,requests,providers,edges,welfare,transfers,\
             inter_isp,missed,online,rounds,bids,conflicts,retries,retired,slack,\
             cache_rebuilt,cache_reused,cache_patched,cache_pruned\n",
        );
        for s in &self.slots {
            let e = s.engine.clone().unwrap_or_default();
            let c = s.cache.unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.slot,
                json_f64(s.phases.prepare_s),
                json_f64(s.phases.schedule_s),
                json_f64(s.phases.complete_s),
                s.requests,
                s.providers,
                s.edges,
                json_f64(s.welfare),
                s.transfers,
                s.inter_isp,
                s.missed,
                s.online,
                e.rounds,
                e.bids,
                e.conflicts,
                e.retries,
                e.retired,
                json_f64(e.slack),
                c.blocks_rebuilt,
                c.blocks_reused,
                c.patched,
                c.pruned,
            ));
        }
        out
    }
}

/// `,` for every row but the last.
fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

/// A JSON string literal (quotes and escapes the content).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values become `null` — JSON has no inf/NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A histogram as a JSON object with bucket counts and quantile bounds.
fn histogram_json(h: &Histogram) -> String {
    let quantile = |q| h.quantile(q).map_or("null".to_string(), json_f64);
    format!(
        "{{\"min_exp\": {}, \"total\": {}, \"nonfinite\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p99\": {}, \"counts\": [{}]}}",
        h.min_exp(),
        h.total(),
        h.nonfinite(),
        h.min().map_or("null".to_string(), json_f64),
        h.max().map_or("null".to_string(), json_f64),
        quantile(0.5),
        quantile(0.99),
        h.counts().iter().map(u64::to_string).collect::<Vec<_>>().join(",")
    )
}

/// An optional engine report as a JSON object (or `null`).
fn engine_json(e: Option<&EngineReport>) -> String {
    let Some(e) = e else {
        return "null".to_string();
    };
    format!(
        "{{\"runs\": {}, \"rounds\": {}, \"bids\": {}, \"conflicts\": {}, \"retries\": {}, \
         \"retired\": {}, \"assigned\": {}, \"slack\": {}, \"bids_per_round\": {}, \
         \"price_deltas\": {}}}",
        e.runs,
        e.rounds,
        e.bids,
        e.conflicts,
        e.retries,
        e.retired,
        e.assigned,
        json_f64(e.slack),
        histogram_json(&e.bids_per_round),
        histogram_json(&e.price_deltas)
    )
}

/// Optional cache counters as a JSON object (or `null`).
fn cache_json(c: Option<&CacheCounters>) -> String {
    let Some(c) = c else {
        return "null".to_string();
    };
    format!(
        "{{\"blocks_rebuilt\": {}, \"blocks_reused\": {}, \"chunks_fresh\": {}, \
         \"chunks_reused\": {}, \"patched\": {}, \"pruned\": {}}}",
        c.blocks_rebuilt, c.blocks_reused, c.chunks_fresh, c.chunks_reused, c.patched, c.pruned
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut r = RunReport::new("flash_crowd", "auction_flat", 5.0);
        for slot in 0..4u64 {
            let mut engine = EngineReport {
                runs: 1,
                rounds: 3 + slot,
                bids: 10 * (slot + 1),
                slack: 0.01,
                ..Default::default()
            };
            engine.bids_per_round.record(10.0);
            engine.price_deltas.record(0.5);
            r.push_slot(SlotReport {
                slot,
                phases: PhaseTimings { prepare_s: 0.001, schedule_s: 0.002, complete_s: 0.0005 },
                requests: 100,
                providers: 20,
                edges: 800,
                welfare: 50.0 + slot as f64,
                transfers: 40,
                inter_isp: 8,
                missed: slot,
                online: 120,
                engine: Some(engine),
                cache: Some(CacheCounters {
                    blocks_rebuilt: 2,
                    blocks_reused: 90,
                    chunks_fresh: 10,
                    chunks_reused: 500,
                    patched: 30,
                    pruned: 1,
                }),
            });
        }
        r.uniques =
            UniqueCounts { precision: 12, requesters: 118.0, providers: 20.0, edges: 790.0 };
        r.aggregate_windows(&[("before", 0, 1), ("during", 2, 2), ("after", 3, 3)]);
        r
    }

    #[test]
    fn windows_aggregate_contiguous_ranges() {
        let r = sample_report();
        assert_eq!(r.windows.len(), 3);
        let before = &r.windows[0];
        assert_eq!(before.slots, 2);
        assert!((before.welfare_mean - 50.5).abs() < 1e-12);
        let engine = before.engine.as_ref().unwrap();
        assert_eq!(engine.rounds, 3 + 4);
        assert_eq!(engine.bids, 30);
        // Empty ranges are skipped.
        let mut r2 = sample_report();
        r2.aggregate_windows(&[("before", 1, 0), ("all", 0, 3)]);
        assert_eq!(r2.windows.len(), 1);
        assert_eq!(r2.windows[0].slots, 4);
    }

    #[test]
    fn json_has_required_keys_and_no_bare_nonfinite() {
        let mut r = sample_report();
        r.slots[0].welfare = f64::NAN;
        let json = r.to_json();
        for key in [
            "\"scenario\"",
            "\"scheduler\"",
            "\"slot_secs\"",
            "\"uniques\"",
            "\"windows\"",
            "\"slots\"",
            "\"schedule_s\"",
            "\"rounds\"",
            "\"slack\"",
            "\"bids_per_round\"",
            "\"cache\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN"));
        assert!(!json.contains("inf"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_emits_one_row_per_slot() {
        let r = sample_report();
        let csv = r.slot_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[0].starts_with("slot,prepare_s"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols);
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
