//! Error types shared across the workspace.

use crate::ids::{ChunkId, PeerId, VideoId};
use std::error::Error as StdError;
use std::fmt;

/// Convenience alias used by public APIs across the workspace.
pub type Result<T> = std::result::Result<T, P2pError>;

/// Errors surfaced by the P2P system crates.
///
/// # Examples
///
/// ```
/// use p2p_types::{P2pError, PeerId};
/// let err = P2pError::UnknownPeer(PeerId::new(9));
/// assert!(err.to_string().contains("peer#9"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum P2pError {
    /// A peer id was not found in the registry it was used against.
    UnknownPeer(PeerId),
    /// A video id was not found in the catalog.
    UnknownVideo(VideoId),
    /// A chunk index exceeds the video's chunk count.
    UnknownChunk(ChunkId),
    /// A configuration value failed validation.
    InvalidConfig {
        /// Name of the offending parameter.
        field: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The auction failed to converge within its iteration budget.
    AuctionDiverged {
        /// Number of iterations executed before giving up.
        iterations: u64,
    },
    /// A solver was handed an inconsistent instance (e.g. an edge referring
    /// to a provider index that does not exist).
    MalformedInstance(String),
    /// An edge carried a NaN or infinite welfare weight `v − w`. Non-finite
    /// utilities poison the bidder's argmax comparisons (every ordering of
    /// a NaN compares false) and the kernel's lane reductions, so builders
    /// reject them at construction time.
    NonFiniteUtility {
        /// The request (row) the edge belongs to.
        request: u32,
        /// The provider the edge points at.
        provider: u32,
        /// The offending `v − w` value.
        utility: f64,
    },
    /// A wall-clock deadline expired before the operation finished (the
    /// networked runtime's analogue of [`P2pError::AuctionDiverged`], which
    /// reports round-budget exhaustion in the in-process engines).
    Timeout {
        /// How long the operation ran before giving up.
        elapsed: std::time::Duration,
        /// Progress made before the deadline: frames exchanged on the
        /// timed-out link, or peers accepted when the tracker's handshake
        /// window closes.
        messages: u64,
    },
    /// A worker thread panicked; the panic payload is propagated instead of
    /// silently hanging the run.
    WorkerPanicked {
        /// The panic message (payload rendered to text).
        message: String,
    },
    /// A wire frame or payload ended before its declared contents did
    /// (truncated read, short frame, or a length prefix pointing past the
    /// available bytes). Decoders return this instead of panicking so a
    /// malicious or corrupted peer cannot crash the process.
    WireTruncated {
        /// Bytes the decoder needed to make progress.
        expected: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// A wire frame announced a protocol version this build does not speak.
    WireVersion {
        /// The version byte found on the wire.
        found: u8,
        /// The version this build encodes and accepts.
        supported: u8,
    },
    /// A wire frame was structurally invalid beyond truncation: unknown
    /// message tag, oversized length prefix, trailing garbage after a
    /// complete payload, or a field value outside its domain.
    WireMalformed {
        /// What exactly was wrong with the bytes.
        reason: String,
    },
    /// The remote end of a connection went away mid-protocol (EOF or a
    /// reset while a reply was still owed) — the networked runtime's
    /// peer-crash signal, distinct from [`P2pError::Timeout`] which covers
    /// a silent peer whose socket is still open.
    Disconnected {
        /// What the connection was doing when it died.
        context: String,
    },
    /// Every connection attempt within the configured retry/backoff budget
    /// failed — the networked runtime's tracker-unavailable signal.
    ConnectFailed {
        /// The address dialed.
        addr: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last attempt's error, rendered to text.
        last_error: String,
    },
}

impl fmt::Display for P2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2pError::UnknownPeer(p) => write!(f, "unknown {p}"),
            P2pError::UnknownVideo(v) => write!(f, "unknown {v}"),
            P2pError::UnknownChunk(c) => write!(f, "unknown chunk {c}"),
            P2pError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration for `{field}`: {reason}")
            }
            P2pError::AuctionDiverged { iterations } => {
                write!(f, "auction failed to converge after {iterations} iterations")
            }
            P2pError::MalformedInstance(msg) => write!(f, "malformed instance: {msg}"),
            P2pError::NonFiniteUtility { request, provider, utility } => {
                write!(
                    f,
                    "non-finite utility {utility} on the edge from request {request} \
                     to provider {provider}"
                )
            }
            P2pError::Timeout { elapsed, messages } => {
                write!(
                    f,
                    "timed out after {:.3}s with {messages} messages delivered",
                    elapsed.as_secs_f64()
                )
            }
            P2pError::WorkerPanicked { message } => {
                write!(f, "worker thread panicked: {message}")
            }
            P2pError::WireTruncated { expected, actual } => {
                write!(f, "truncated wire data: needed {expected} bytes, got {actual}")
            }
            P2pError::WireVersion { found, supported } => {
                write!(f, "unsupported wire version {found} (this build speaks {supported})")
            }
            P2pError::WireMalformed { reason } => write!(f, "malformed wire data: {reason}"),
            P2pError::Disconnected { context } => {
                write!(f, "connection lost: {context}")
            }
            P2pError::ConnectFailed { addr, attempts, last_error } => {
                write!(f, "failed to connect to {addr} after {attempts} attempts: {last_error}")
            }
        }
    }
}

impl StdError for P2pError {}

impl P2pError {
    /// Shorthand for an [`P2pError::InvalidConfig`] value.
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        P2pError::InvalidConfig { field, reason: reason.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_static() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<P2pError>();
    }

    #[test]
    fn messages_are_lowercase_without_trailing_punctuation() {
        let samples = [
            P2pError::UnknownPeer(PeerId::new(1)).to_string(),
            P2pError::invalid_config("neighbors", "must be positive").to_string(),
            P2pError::AuctionDiverged { iterations: 5 }.to_string(),
            P2pError::MalformedInstance("edge out of range".into()).to_string(),
            P2pError::NonFiniteUtility { request: 3, provider: 1, utility: f64::NAN }.to_string(),
            P2pError::Timeout { elapsed: std::time::Duration::from_millis(1500), messages: 12 }
                .to_string(),
            P2pError::WorkerPanicked { message: "boom".into() }.to_string(),
            P2pError::WireTruncated { expected: 8, actual: 3 }.to_string(),
            P2pError::WireVersion { found: 9, supported: 1 }.to_string(),
            P2pError::WireMalformed { reason: "unknown tag 77".into() }.to_string(),
            P2pError::Disconnected { context: "awaiting a bid reply".into() }.to_string(),
            P2pError::ConnectFailed {
                addr: "127.0.0.1:9".into(),
                attempts: 4,
                last_error: "connection refused".into(),
            }
            .to_string(),
        ];
        for s in samples {
            assert!(!s.ends_with('.'), "{s}");
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn invalid_config_formats_field() {
        let e = P2pError::invalid_config("isp_count", "must be at least 1");
        assert!(e.to_string().contains("isp_count"));
    }
}
