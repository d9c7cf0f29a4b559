//! In-memory spans recorded by the benchmark around each call into a
//! layer, written out once the run ends.
//!
//! A span has a name, a start and an end on one monotonic clock, the span
//! that caused it, and the id of the slot it belongs to (all spans of one
//! slot share it). A layer's self time is its span's duration minus the
//! part its children cover. With tracing off, [`Tracer::open`] and
//! [`Tracer::close`] do nothing and read no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `net.accept`.
    pub name: &'static str,
    /// The slot this span belongs to.
    pub slot: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer { enabled: false, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        slot: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, slot, parent, start_ns, end_ns: 0 });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Closes every span still open (after a layer call failed part-way).
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for s in self.spans.iter_mut().filter(|s| s.end_ns == 0) {
            s.end_ns = now;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                s.duration_ns().saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Checks that every span is closed, ends after it starts, and lies
    /// inside its parent within the same slot.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns || s.end_ns == 0 {
                return Err(format!("span {i} `{}` is not closed properly", s.name));
            }
            if let Some(p) = s.parent {
                let parent = self.spans.get(p).ok_or(format!("span {i} has no parent {p}"))?;
                if p >= i
                    || parent.slot != s.slot
                    || s.start_ns < parent.start_ns
                    || s.end_ns > parent.end_ns
                {
                    return Err(format!(
                        "span {i} `{}` does not nest inside its parent `{}`",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The spans as one JSON document, with `header` (a JSON object body)
    /// in front.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"slot\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.slot,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.open("slot", 0, None);
        t.close(s);
        assert!(s.is_none() && t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_spans_nest() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let slot = t.open("slot", 3, None);
        let child = t.open("net.sweep", 3, slot);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(slot);
        t.check_nesting().unwrap();
        let times = t.self_times();
        assert!(times["net.sweep"] >= 0.002);
        let total = t.spans()[0].duration_ns() as f64 / 1e9;
        assert!((times["slot"] + times["net.sweep"] - total).abs() < 1e-9);
        assert!(t.to_json("\"workload\": \"x\"").contains("\"parent\": 0"));
    }

    #[test]
    fn a_child_outside_its_parent_is_caught() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let slot = t.open("slot", 1, None);
        t.close(slot);
        let late = t.open("net.teardown", 1, slot);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.close(late);
        assert!(t.check_nesting().is_err());
    }
}
