//! One benchmark for slot decision latency across the streaming,
//! simulated and networked auction paths.
//!
//! ```text
//! perfbench --workload stream_flash|swarm_lossy|net_slot --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its inputs from `--seed`, runs one checked
//! warm-up unit, then runs a closed loop of units for `--seconds`: a unit
//! starts only after the previous one completed. Builds of the system
//! under test are timed between units (`setup_s` is their median).
//!
//! Every slot is checked for capacity conservation and the n·ε
//! certificate, and `net_slot` slots for bit-identity to the flat engine.
//! Measured slots must also replay the warm-up's outcome hash;
//! `stream_flash` certifies its warm-up pass only (outside the timed
//! region), and the replay carries the certificate over to the measured
//! passes. A failed slot counts in `failed` and makes the command exit
//! non-zero. The report lines carry the host stamps and the
//! outcome hash; the last line is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run alternates traced and untraced units and writes its spans to
//! `.bench_out/`.

mod cli;
mod inputs;
mod measure;
mod metrics;
mod net;
mod stream;
mod swarm;
mod trace;

use cli::{Args, WorkloadName};
use measure::{closed_loop, peak_rss_mb, Recorder, Stamps, Workload};
use metrics::{json_metrics, Summary, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Input sizes: the benchmark's own (`Full`) or the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Reduced sizes for the smoke test.
    Smoke,
}

/// The Theorem 1 certificate tolerance for an ε-auction over `requests`
/// requests: n·ε.
pub fn tolerance(epsilon: f64, requests: usize) -> f64 {
    epsilon * (requests as f64 + 1.0)
}

/// A finished run: its samples, peak RSS and stamps.
struct Run {
    args: Args,
    rec: Recorder,
    rss_mb: f64,
    stamps: Stamps,
}

/// Generates the inputs, times the set-up and runs the closed loop.
fn run(args: &Args, scale: Scale) -> Result<Run, String> {
    let mut rec = Recorder::new();
    let seed = args.seed;
    let mut work: Box<dyn Workload> = match args.workload {
        WorkloadName::StreamFlash => Box::new(stream::Stream::new(seed, scale)?),
        WorkloadName::SwarmLossy => Box::new(swarm::Swarm::new(seed, scale)?),
        WorkloadName::NetSlot => Box::new(net::NetSlot::new(seed, scale)?),
    };
    closed_loop(work.as_mut(), &mut rec, args.seconds as f64, args.trace)?;
    drop(work);
    Ok(Run { args: args.clone(), rec, rss_mb: peak_rss_mb()?, stamps: Stamps::read() })
}

impl Run {
    fn correct(&self) -> bool {
        self.rec.failed == 0 && !self.rec.samples.is_empty()
    }

    fn stamp_line(&self) -> String {
        format!(
            "stamp workload={} seed={} seconds={} trace={} nproc={} commit={} rustc=\"{}\"",
            self.args.workload.as_str(),
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            self.stamps.nproc,
            self.stamps.commit,
            self.stamps.rustc,
        )
    }

    /// The report: stamp, outcome hash, metric lines, then the JSON
    /// result as the last line.
    fn report(&self) -> Vec<String> {
        let s = Summary::new(&self.rec, self.rss_mb);
        let (untraced, traced) = s.slot_counts();
        let mut lines = vec![
            self.stamp_line(),
            format!(
                "outcome_hash workload={} seed={} {:#018x}",
                self.args.workload.as_str(),
                self.args.seed,
                self.rec.outcome_hash()
            ),
            format!(
                "slots attempted={} failed={} measured_untraced={untraced} measured_traced={traced} \
                 setup_builds={}",
                self.rec.attempted,
                self.rec.failed,
                self.rec.setup_s.len()
            ),
        ];
        lines.extend(self.rec.failures.iter().map(|f| format!("failure {f}")));
        lines.push(s.slot_distribution());
        let catalog: &[(&str, &str)] = if self.args.trace {
            let slot_s = s.traced_slot_s();
            for (layer, per_slot) in s.layer_split() {
                lines.push(format!(
                    "split {layer} {per_slot} s/slot ({:.1}% of the traced slot)",
                    100.0 * measure::ratio(per_slot, slot_s)
                ));
            }
            lines.push(format!("split traced_slot {slot_s} s/slot"));
            for (name, unit) in PER_LAYER {
                lines.push(format!("layer {name} {} {unit}", s.value(name)));
            }
            &PER_LAYER
        } else {
            for (name, unit) in END_TO_END.iter().chain(metrics::path_only(self.args.workload)) {
                lines.push(format!("e2e {name} {} {unit}", s.value(name)));
            }
            &END_TO_END
        };
        lines.push(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.rec.attempted,
            self.rec.failed,
            json_metrics(&s, catalog)
        ));
        lines
    }

    /// Checks that the traced run's spans nest, then writes them (with the
    /// stamps) under [`OUT_DIR`].
    fn write_spans(&self) -> Result<String, String> {
        self.rec.tracer.check_nesting()?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let path =
            format!("{OUT_DIR}/spans-{}-seed{}.json", self.args.workload.as_str(), self.args.seed);
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"commit\": \"{}\", \
             \"rustc\": \"{}\"",
            self.args.workload.as_str(),
            self.args.seed,
            self.stamps.nproc,
            self.stamps.commit,
            self.stamps.rustc
        );
        std::fs::write(&path, self.rec.tracer.to_json(&header))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(path)
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let run = match run(&args, Scale::Full) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match run.write_spans() {
            Ok(path) => println!("spans {} written to {path}", run.rec.tracer.spans().len()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for line in run.report() {
        println!("{line}");
    }
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke pass: every workload at reduced size, untraced and
    /// traced. Each applicable metric appears with its unit, nothing
    /// fails, and traced spans nest inside their parents.
    #[test]
    fn smoke_every_workload() {
        for workload in WorkloadName::ALL {
            for trace in [false, true] {
                let args = Args { workload, seed: 3, seconds: 1, trace };
                let run = run(&args, Scale::Smoke).unwrap();
                let lines = run.report();
                let name = workload.as_str();
                assert_eq!(run.rec.failed, 0, "{name}: {:?}", run.rec.failures);
                assert!(run.correct(), "{name}");
                let json = lines.last().unwrap();
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
                let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (metric, unit) in catalog {
                    let entry = format!("\"{metric}\": {{\"value\": ");
                    assert!(json.contains(&entry), "{name}: {metric} missing");
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{name}: {unit}");
                }
                if trace {
                    run.rec.tracer.check_nesting().unwrap();
                    assert!(!run.rec.tracer.spans().is_empty(), "{name}: no spans");
                } else {
                    for (metric, unit) in END_TO_END.iter().chain(metrics::path_only(workload)) {
                        let prefix = format!("e2e {metric} ");
                        let line = lines.iter().find(|l| l.starts_with(&prefix));
                        let line = line.unwrap_or_else(|| panic!("{name}: no {metric} line"));
                        assert!(line.ends_with(&format!(" {unit}")), "{line}");
                    }
                    let failed = lines.iter().find(|l| l.starts_with("e2e failed_share "));
                    assert_eq!(failed.unwrap(), "e2e failed_share 0 share");
                    // Never zero, so a bound relative to a median means
                    // something.
                    let s = Summary::new(&run.rec, run.rss_mb);
                    for (metric, _) in END_TO_END {
                        assert!(s.value(metric) > 0.0, "{name}: {metric}");
                    }
                }
            }
        }
    }

    /// `BENCHMARK.json` lists exactly this catalog, names and units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        let entries = spec.matches("\"unit\"").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WorkloadName::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.as_str())));
        }
    }
}
