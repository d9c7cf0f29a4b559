//! Strict command-line parsing: an unknown flag, a missing or malformed
//! value, or a repeated flag is an error — never a silent default.

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The Sec. V streaming system through `paper_flash_crowd`.
    StreamFlash,
    /// A 3·10³-peer slot on the swarm simulator, lossy network.
    SwarmLossy,
    /// A 10³-request slot over loopback TCP.
    NetSlot,
}

impl WorkloadName {
    /// Every workload, in presentation order.
    pub const ALL: [WorkloadName; 3] =
        [WorkloadName::StreamFlash, WorkloadName::SwarmLossy, WorkloadName::NetSlot];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::StreamFlash => "stream_flash",
            WorkloadName::SwarmLossy => "swarm_lossy",
            WorkloadName::NetSlot => "net_slot",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// The seed every input is generated from.
    pub seed: u64,
    /// How long the closed loop measures, seconds.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload stream_flash|swarm_lossy|net_slot \
                         --seed N --seconds 1..=600 --trace 0|1";

/// Parses the arguments after the program name. `Ok(None)` means `--help`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
        if slot.replace(value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    let workload =
        WorkloadName::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = seed.ok_or("`--seed` is required")?;
    let seed = seed.parse::<u64>().map_err(|_| format!("`--seed {seed}` is not a u64"))?;
    let seconds = seconds.ok_or("`--seconds` is required")?;
    let seconds = match seconds.parse::<u64>() {
        Ok(n @ 1..=600) => n,
        _ => return Err(format!("`--seconds {seconds}` is not a whole number in 1..=600")),
    };
    let trace = match trace.ok_or("`--trace` is required")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("`--trace {t}` must be 0 or 1")),
    };
    Ok(Some(Args { workload, seed, seconds, trace }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Option<Args>, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_full_form_in_any_order() {
        let a = p("--workload net_slot --seed 7 --seconds 3 --trace 1").unwrap().unwrap();
        assert_eq!(a, Args { workload: WorkloadName::NetSlot, seed: 7, seconds: 3, trace: true });
        let a = p("--trace 0 --seconds 35 --seed 1 --workload swarm_lossy").unwrap().unwrap();
        assert_eq!((a.seconds, a.trace), (35, false));
        assert_eq!(p("--help").unwrap(), None);
    }

    #[test]
    fn rejects_everything_else() {
        for bad in [
            "",
            "--workload net_slot",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload swarm_flash --seed 1",
            "--workload net_slot --seed -1",
            "--workload net_slot --seed x",
            "--workload net_slot --seed 1 --trace 0",
            "--workload net_slot --seed 1 --seconds 5",
            "--workload net_slot --seed 1 --seconds 0 --trace 0",
            "--workload net_slot --seed 1 --seconds 1.5 --trace 0",
            "--workload net_slot --seed 1 --seconds 5 --trace 2",
            "--workload net_slot --seed 1 --seconds 5 --trace",
            "--workload net_slot --seed 1 --seed 2 --seconds 5 --trace 0",
            "--workload net_slot --seed 1 --seconds 5 --trace 0 --shards 2",
            "--workload net_slot --seed 1 --seconds 5 --trace 0 extra",
        ] {
            assert!(p(bad).is_err(), "accepted `{bad}`");
        }
    }
}
