//! Length-prefixed framing over a TCP stream with typed error mapping.
//!
//! A [`FrameConn`] sends and receives the `u32`-LE length-prefixed frames
//! defined by [`p2p_core::codec`]. Every I/O failure is mapped to a typed
//! [`P2pError`]: a read deadline expiring becomes [`P2pError::Timeout`]
//! (silent peer, socket still open) and EOF/reset becomes
//! [`P2pError::Disconnected`] (peer gone) — the two failure classes the
//! tracker and peers distinguish for retry decisions.

use p2p_core::codec::{frame, frame_len};
use p2p_types::{P2pError, Result};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A framed, timeout-aware connection over one TCP stream.
///
/// `TCP_NODELAY` is always set: the protocol is request/reply with small
/// frames, where Nagle's algorithm would add a delayed-ACK round trip to
/// every message.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    opened: Instant,
    messages: u64,
}

impl FrameConn {
    /// Wraps a connected stream, setting `TCP_NODELAY` and the read
    /// deadline every [`recv`](FrameConn::recv) enforces (`None` blocks
    /// forever).
    pub fn new(stream: TcpStream, io_timeout: Option<Duration>) -> Result<Self> {
        stream.set_nodelay(true).map_err(|e| disconnected("setting TCP_NODELAY", &e))?;
        let conn = FrameConn { stream, opened: Instant::now(), messages: 0 };
        conn.set_read_timeout(io_timeout)?;
        Ok(conn)
    }

    /// Changes the read deadline (`None` blocks forever).
    pub fn set_read_timeout(&self, io_timeout: Option<Duration>) -> Result<()> {
        self.stream
            .set_read_timeout(io_timeout)
            .map_err(|e| disconnected("setting the read deadline", &e))
    }

    /// A second handle on the same socket (shared send/receive state and
    /// the read deadline live in the kernel; the message counter restarts
    /// at zero). The tracker's coordinator reads replies on this handle, so
    /// it never takes the lock it shares with the heartbeat thread on the
    /// writer.
    pub fn try_clone(&self) -> Result<FrameConn> {
        let stream =
            self.stream.try_clone().map_err(|e| disconnected("cloning the socket handle", &e))?;
        Ok(FrameConn { stream, opened: self.opened, messages: 0 })
    }

    /// Frames and sends one payload, flushing it onto the wire.
    pub fn send(&mut self, payload: &[u8]) -> Result<()> {
        let framed = frame(payload)?;
        self.stream.write_all(&framed).map_err(|e| self.map_io("sending a frame", &e))?;
        self.stream.flush().map_err(|e| self.map_io("flushing a frame", &e))?;
        self.messages += 1;
        Ok(())
    }

    /// Receives one frame's payload, enforcing the read deadline and the
    /// [`MAX_FRAME_LEN`](p2p_core::codec::MAX_FRAME_LEN) cap before
    /// allocating.
    pub fn recv(&mut self) -> Result<Vec<u8>> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header).map_err(|e| self.map_io("awaiting a frame", &e))?;
        let len = frame_len(header)?;
        let mut payload = vec![0u8; len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| self.map_io("reading a frame body", &e))?;
        self.messages += 1;
        Ok(payload)
    }

    /// Messages sent plus received on this handle.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The peer's socket address, if the socket can still report it.
    pub fn peer_addr(&self) -> Option<std::net::SocketAddr> {
        self.stream.peer_addr().ok()
    }

    fn map_io(&self, context: &str, e: &std::io::Error) -> P2pError {
        match e.kind() {
            // A silent peer whose socket is still open: the deadline from
            // `set_read_timeout` fired (reported as either kind depending
            // on the platform).
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                P2pError::Timeout { elapsed: self.opened.elapsed(), messages: self.messages }
            }
            _ => disconnected(context, e),
        }
    }
}

fn disconnected(context: &str, e: &std::io::Error) -> P2pError {
    P2pError::Disconnected { context: format!("{context}: {e}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn pair(io_timeout: Duration) -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let client = join.join().unwrap();
        (
            FrameConn::new(accepted, Some(io_timeout)).unwrap(),
            FrameConn::new(client, Some(io_timeout)).unwrap(),
        )
    }

    #[test]
    fn frames_roundtrip_over_loopback() {
        let (mut a, mut b) = pair(Duration::from_secs(5));
        a.send(&[1, 2, 3]).unwrap();
        a.send(&[9]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3]);
        assert_eq!(b.recv().unwrap(), vec![9]);
        assert_eq!(a.messages(), 2);
        assert_eq!(b.messages(), 2);
    }

    #[test]
    fn silent_peer_surfaces_as_typed_timeout() {
        let (_a, mut b) = pair(Duration::from_millis(50));
        match b.recv() {
            Err(P2pError::Timeout { elapsed, .. }) => {
                assert!(elapsed >= Duration::from_millis(50))
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn closed_peer_surfaces_as_typed_disconnect() {
        let (a, mut b) = pair(Duration::from_secs(5));
        drop(a);
        assert!(matches!(b.recv(), Err(P2pError::Disconnected { .. })));
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let (mut raw, mut b) = pair(Duration::from_secs(5));
        // Bypass `send` to write a hostile header claiming a 4 GiB body.
        raw.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.stream.flush().unwrap();
        assert!(matches!(b.recv(), Err(P2pError::WireMalformed { .. })));
    }
}
