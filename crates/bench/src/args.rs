//! Strict `--flag value` argument parsing for the harness binaries: an
//! unknown flag, a repeated flag or a value with no flag before it is an
//! error that names the argument, never a silent default.

use p2p_types::{P2pError, Result};
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command-line flags.
///
/// # Examples
///
/// ```
/// use p2p_bench::Args;
/// let known = ["peers", "epsilon", "quick"];
/// let a = Args::parse(&known, ["--peers", "200", "--quick"])?;
/// assert_eq!(a.get_usize("peers", 500)?, 200);
/// assert!(a.has("quick"));
/// assert_eq!(a.get_f64("epsilon", 0.5)?, 0.5);
/// assert!(Args::parse(&known, ["--peers", "abc"])?.get_usize("peers", 500).is_err());
/// // Misspelt, repeated and stray arguments fail instead of running defaults.
/// assert!(Args::parse(&known, ["--peer", "200"]).is_err());
/// assert!(Args::parse(&known, ["--quick", "--quick"]).is_err());
/// assert!(Args::parse(&known, ["200"]).is_err());
/// # Ok::<(), p2p_types::P2pError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, Option<String>>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name) against the
    /// binary's flag names.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`].
    pub fn from_env(known: &[&str]) -> Result<Self> {
        Self::parse(known, std::env::args().skip(1))
    }

    /// Parses `args` against `known`, the flag names without their `--`.
    /// A flag takes the argument after it as its value unless that
    /// argument is itself a flag.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] naming the argument for a flag
    /// not in `known`, a flag given twice, or a value with no flag before
    /// it.
    pub fn parse<S: Into<String>>(
        known: &[&str],
        args: impl IntoIterator<Item = S>,
    ) -> Result<Self> {
        let mut flags = HashMap::new();
        let mut open: Option<String> = None;
        for raw in args {
            let raw: String = raw.into();
            if let Some(name) = raw.strip_prefix("--") {
                if !known.contains(&name) {
                    let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                    return Err(flag_error(format!(
                        "unknown flag `{raw}` (known: {})",
                        known.join(", ")
                    )));
                }
                if flags.insert(name.to_string(), None).is_some() {
                    return Err(flag_error(format!("`{raw}` given twice")));
                }
                open = Some(name.to_string());
            } else if let Some(name) = open.take() {
                flags.insert(name, Some(raw));
            } else {
                return Err(flag_error(format!(
                    "unexpected argument `{raw}` with no flag before it"
                )));
            }
        }
        Ok(Args { flags })
    }

    /// Whether a flag is present (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A `usize` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] naming the flag and its value
    /// when the flag is present without a value or with one that does not
    /// parse.
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

    const KNOWN: [&str; 6] = ["peers", "slots", "eps", "seed", "scenario", "quick"];

    fn args(raw: &[&str]) -> Args {
        Args::parse(&KNOWN, raw.iter().copied()).unwrap()
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
        let a = args(&["--peers", "abc", "--slots", "1x", "--eps", "half", "--seed"]);
        for (err, shown) in [
            (a.get_usize("peers", 500).unwrap_err(), "--peers abc"),
            (a.get_u64("slots", 25).unwrap_err(), "--slots 1x"),
            (a.get_f64("eps", 0.0).unwrap_err(), "--eps half"),
            // Present without a value.
            (a.get_u64("seed", 42).unwrap_err(), "--seed"),
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
        ] {
            let err = Args::parse(&KNOWN, raw.iter().copied()).unwrap_err();
            assert!(matches!(err, P2pError::InvalidConfig { field: "flag", .. }), "{err}");
            assert!(err.to_string().contains(shown), "{raw:?}: {err}");
        }
    }
}
