//! Strict `--flag value` argument parsing, shared by every binary in the
//! workspace (the `p2p-bench` binaries, `tracker` and `peer`): an
//! unknown flag, a repeated flag, a valued flag without its value, a value
//! after a switch or a value with no flag before it is an error that names
//! the argument, never a silent default.

use crate::{P2pError, Result};
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command-line flags.
///
/// # Examples
///
/// ```
/// use p2p_types::Args;
/// let (valued, switches) = (["peers", "epsilon"], ["quick"]);
/// let a = Args::parse(&valued, &switches, ["--peers", "200", "--quick"])?;
/// assert_eq!(a.get_usize("peers", 500)?, 200);
/// assert!(a.has("quick"));
/// assert_eq!(a.get_f64("epsilon", 0.5)?, 0.5);
/// assert!(Args::parse(&valued, &switches, ["--peers", "abc"])?.get_usize("peers", 500).is_err());
/// // Misspelt, repeated, value-less and stray arguments fail instead of
/// // running defaults, and so does a value after a switch.
/// assert!(Args::parse(&valued, &switches, ["--peer", "200"]).is_err());
/// assert!(Args::parse(&valued, &switches, ["--quick", "--quick"]).is_err());
/// assert!(Args::parse(&valued, &switches, ["--peers", "--quick"]).is_err());
/// assert!(Args::parse(&valued, &switches, ["--quick", "5"]).is_err());
/// assert!(Args::parse(&valued, &switches, ["200"]).is_err());
/// # Ok::<(), p2p_types::P2pError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Given flags: a valued flag with its value, a switch with `None`.
    flags: HashMap<String, Option<String>>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name) against the
    /// binary's valued flags and switches.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`].
    pub fn from_env(valued: &[&str], switches: &[&str]) -> Result<Self> {
        Self::parse(valued, switches, std::env::args().skip(1))
    }

    /// Parses `args` against the binary's flag names, without their `--`:
    /// each of `valued` takes the argument after it as its value, and each
    /// of `switches` takes none.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] naming the argument for a flag
    /// in neither list, a flag given twice, a valued flag with no value
    /// after it, a value after a switch, or a value with no flag before
    /// it.
    pub fn parse<S: Into<String>>(
        valued: &[&str],
        switches: &[&str],
        args: impl IntoIterator<Item = S>,
    ) -> Result<Self> {
        let mut flags = HashMap::new();
        let mut args = args.into_iter().map(Into::into).peekable();
        let mut last_switch: Option<String> = None;
        while let Some(raw) = args.next() {
            let Some(name) = raw.strip_prefix("--") else {
                return Err(flag_error(match last_switch {
                    Some(switch) => format!("`--{switch}` takes no value, got `{raw}`"),
                    None => format!("unexpected argument `{raw}` with no flag before it"),
                }));
            };
            let value = if switches.contains(&name) {
                None
            } else if valued.contains(&name) {
                let value = args.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| flag_error(format!("`{raw}` needs a value")))?)
            } else {
                let known: Vec<String> =
                    valued.iter().chain(switches).map(|k| format!("--{k}")).collect();
                return Err(flag_error(format!(
                    "unknown flag `{raw}` (known: {})",
                    known.join(", ")
                )));
            };
            last_switch = value.is_none().then(|| name.to_string());
            if flags.insert(name.to_string(), value).is_some() {
                return Err(flag_error(format!("`{raw}` given twice")));
            }
        }
        Ok(Args { flags })
    }

    /// Whether a switch or a valued flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A `usize` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] naming the flag and its value
    /// when the value does not parse, or naming the flag when it is a
    /// switch.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize> {
        self.parse_value(name, default)
    }

    /// A `u64` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::get_usize`].
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64> {
        self.parse_value(name, default)
    }

    /// An `f64` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::get_usize`].
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64> {
        self.parse_value(name, default)
    }

    /// A string flag with default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.value(name).unwrap_or(default).to_string()
    }

    /// A string flag, if present with a value.
    pub fn get_opt_str(&self, name: &str) -> Option<String> {
        self.value(name).map(str::to_string)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    fn parse_value<T: FromStr>(&self, name: &str, default: T) -> Result<T>
    where
        T::Err: Display,
    {
        let ty = std::any::type_name::<T>();
        match self.flags.get(name) {
            None => Ok(default),
            Some(None) => Err(flag_error(format!("`--{name}` needs a {ty} value"))),
            Some(Some(raw)) => raw
                .parse()
                .map_err(|e| flag_error(format!("`--{name} {raw}` is not a valid {ty} ({e})"))),
        }
    }
}

fn flag_error(message: String) -> P2pError {
    P2pError::invalid_config("flag", message)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUED: [&str; 5] = ["peers", "slots", "eps", "seed", "scenario"];
    const SWITCHES: [&str; 2] = ["quick", "list"];

    fn parse(raw: &[&str]) -> Result<Args> {
        Args::parse(&VALUED, &SWITCHES, raw.iter().copied())
    }

    fn args(raw: &[&str]) -> Args {
        parse(raw).unwrap()
    }

    #[test]
    fn parses_values_and_bare_flags() {
        let a = args(&["--peers", "100", "--quick", "--eps", "0.25"]);
        assert_eq!(a.get_usize("peers", 1).unwrap(), 100);
        assert_eq!(a.get_f64("eps", 0.0).unwrap(), 0.25);
        assert!(a.has("quick"));
        assert!(!a.has("slots"));
    }

    #[test]
    fn defaults_apply_for_missing_flags() {
        let a = args(&["--peers", "abc"]);
        assert_eq!(a.get_u64("slots", 25).unwrap(), 25);
        assert_eq!(a.get_f64("eps", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn malformed_numeric_values_are_rejected_with_flag_and_value() {
        let a = args(&["--peers", "abc", "--slots", "1x", "--eps", "half", "--quick"]);
        for (err, shown) in [
            (a.get_usize("peers", 500).unwrap_err(), "--peers abc"),
            (a.get_u64("slots", 25).unwrap_err(), "--slots 1x"),
            (a.get_f64("eps", 0.0).unwrap_err(), "--eps half"),
            // A switch has no value to parse.
            (a.get_u64("quick", 42).unwrap_err(), "--quick"),
        ] {
            assert!(matches!(err, P2pError::InvalidConfig { field: "flag", .. }), "{err}");
            assert!(err.to_string().contains(shown), "{err}");
        }
    }

    #[test]
    fn trailing_bare_flag() {
        let a = args(&["--quick"]);
        assert!(a.has("quick"));
    }

    #[test]
    fn string_flags() {
        let a = args(&["--scenario", "flash_crowd", "--quick"]);
        assert_eq!(a.get_str("scenario", "none"), "flash_crowd");
        assert_eq!(a.get_str("peers", "none"), "none");
        assert_eq!(a.get_opt_str("scenario").as_deref(), Some("flash_crowd"));
        assert_eq!(a.get_opt_str("quick"), None, "bare flags carry no value");
    }

    #[test]
    fn unknown_repeated_and_stray_arguments_are_rejected_by_name() {
        for (raw, shown) in [
            (&["--sedd", "3"][..], "unknown flag `--sedd`"),
            (&["--quick", "--seed", "1", "--quick"][..], "`--quick` given twice"),
            (&["--seed", "1", "--seed", "1"][..], "`--seed` given twice"),
            (&["flash_crowd", "--quick"][..], "unexpected argument `flash_crowd`"),
            (&["--scenario", "a", "b"][..], "unexpected argument `b`"),
            // A valued flag needs its value; it never takes the next flag.
            (&["--seed"][..], "`--seed` needs a value"),
            (&["--scenario", "--quick"][..], "`--scenario` needs a value"),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, P2pError::InvalidConfig { field: "flag", .. }), "{err}");
            assert!(err.to_string().contains(shown), "{raw:?}: {err}");
        }
    }

    #[test]
    fn a_value_after_a_switch_is_rejected_naming_the_switch() {
        for (raw, shown) in [
            (&["--list", "5"][..], "`--list` takes no value, got `5`"),
            (
                &["--scenario", "flash_crowd", "--quick", "7"][..],
                "`--quick` takes no value, got `7`",
            ),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, P2pError::InvalidConfig { field: "flag", .. }), "{err}");
            assert!(err.to_string().contains(shown), "{raw:?}: {err}");
        }
        // Switches still mix freely with valued flags in any order.
        let a = args(&["--quick", "--seed", "3", "--list"]);
        assert!(a.has("quick") && a.has("list"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 3);
    }
}
