//! Minimal `--flag value` argument parsing for the harness binaries.

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
/// let a = Args::from_iter(["--peers", "200", "--quick"]);
/// assert_eq!(a.get_usize("peers", 500)?, 200);
/// assert!(a.has("quick"));
/// assert_eq!(a.get_f64("epsilon", 0.5)?, 0.5);
/// assert!(Args::from_iter(["--peers", "abc"]).get_usize("peers", 500).is_err());
/// # Ok::<(), p2p_types::P2pError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, Option<String>>,
}

impl<S: Into<String>> FromIterator<S> for Args {
    /// Parses an explicit iterator of arguments.
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut flags = HashMap::new();
        let mut key: Option<String> = None;
        for raw in iter {
            let raw: String = raw.into();
            if let Some(name) = raw.strip_prefix("--") {
                if let Some(k) = key.take() {
                    flags.insert(k, None);
                }
                key = Some(name.to_string());
            } else if let Some(k) = key.take() {
                flags.insert(k, Some(raw));
            }
        }
        if let Some(k) = key.take() {
            flags.insert(k, None);
        }
        Args { flags }
    }
}

impl Args {
    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Self::from_iter(std::env::args().skip(1))
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
        self.parse(name, default)
    }

    /// A `u64` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::get_usize`].
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64> {
        self.parse(name, default)
    }

    /// An `f64` flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::get_usize`].
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64> {
        self.parse(name, default)
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

    fn parse<T: FromStr>(&self, name: &str, default: T) -> Result<T>
    where
        T::Err: Display,
    {
        let ty = std::any::type_name::<T>();
        match self.flags.get(name) {
            None => Ok(default),
            Some(None) => {
                Err(P2pError::invalid_config("flag", format!("`--{name}` needs a {ty} value")))
            }
            Some(Some(raw)) => raw.parse().map_err(|e| {
                P2pError::invalid_config(
                    "flag",
                    format!("`--{name} {raw}` is not a valid {ty} ({e})"),
                )
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_and_bare_flags() {
        let a = Args::from_iter(["--peers", "100", "--quick", "--eps", "0.25"]);
        assert_eq!(a.get_usize("peers", 1).unwrap(), 100);
        assert_eq!(a.get_f64("eps", 0.0).unwrap(), 0.25);
        assert!(a.has("quick"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply_for_missing_flags() {
        let a = Args::from_iter(["--peers", "abc"]);
        assert_eq!(a.get_u64("slots", 25).unwrap(), 25);
        assert_eq!(a.get_f64("eps", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn malformed_numeric_values_are_rejected_with_flag_and_value() {
        let a = Args::from_iter(["--peers", "abc", "--slots", "1x", "--eps", "half", "--seed"]);
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
        let a = Args::from_iter(["--quick"]);
        assert!(a.has("quick"));
    }

    #[test]
    fn string_flags() {
        let a = Args::from_iter(["--scenario", "flash_crowd", "--quick"]);
        assert_eq!(a.get_str("scenario", "none"), "flash_crowd");
        assert_eq!(a.get_str("missing", "none"), "none");
        assert_eq!(a.get_opt_str("scenario").as_deref(), Some("flash_crowd"));
        assert_eq!(a.get_opt_str("quick"), None, "bare flags carry no value");
    }
}
