//! Framed transports carrying the wire format between units.
//!
//! Two implementations of the same [`Transport`] contract:
//!
//! * [`InProcTransport`] — a loopback pair backed by crossbeam channels.
//!   Frames are still run through the binary codec on every send/recv, so
//!   in-process deployments exercise exactly the bytes a networked
//!   deployment would (and codec regressions surface in every test).
//! * [`TcpTransport`] — `std::net::TcpStream` with little-endian `u32`
//!   length-prefixed frames and `TCP_NODELAY` set (mirroring traffic is
//!   many small messages; Nagle would serialize checkpoint rounds).
//!
//! Both are reliable and in-order, the delivery contract the checkpoint
//! protocol of the paper assumes ("this version assumes reliable
//! communication across mirror sites").

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::wire::{decode_frame, encode_frame, Frame, WireError};

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Outcome of a bounded-wait receive ([`Transport::recv_timeout`]).
#[derive(Debug, PartialEq)]
pub enum Polled {
    /// A frame arrived.
    Frame(Frame),
    /// The peer shut the link down cleanly.
    Eof,
    /// Nothing arrived within the timeout; the link is still up.
    Idle,
}

/// A bidirectional frame transport.
///
/// The base implementations ([`InProcTransport`], [`TcpTransport`]) are
/// reliable and in-order for as long as the connection lives; surviving
/// frame loss, reordering and reconnects is layered on top by
/// [`ResilientTransport`](crate::resilient::ResilientTransport).
pub trait Transport: Send {
    /// Send one frame.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Send a frame that has already been encoded (see [`encode_frame`]).
    /// This is the zero-copy fast path: callers that fan one frame out to
    /// many links encode once and hand the same `Bytes` to every transport.
    ///
    /// The default implementation decodes and delegates to
    /// [`send`](Transport::send), so wrappers that inspect frames (fault
    /// injection, tracing) keep seeing every frame without overriding
    /// this; the base transports override it to move bytes straight to
    /// the wire.
    fn send_encoded(&mut self, bytes: &Bytes) -> io::Result<()> {
        let frame = decode_frame(bytes.clone()).map_err(wire_err)?;
        self.send(&frame)
    }

    /// Block until a frame arrives; `Ok(None)` on clean shutdown of the
    /// peer.
    fn recv(&mut self) -> io::Result<Option<Frame>>;

    /// Wait up to `timeout` for a frame.
    ///
    /// A zero `timeout` is a poll: it returns a frame that has already
    /// arrived, or [`Polled::Idle`], and never sleeps. A positive `timeout`
    /// is an upper bound, not a minimum: the call returns as soon as a
    /// frame, EOF or an error is available. This contract is what lets the
    /// resilient layer multiplex sending, receiving and reconnecting on one
    /// thread.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Polled>;

    /// Diagnostic label.
    fn label(&self) -> String;
}

fn wire_err(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Parse the `[u32 len]` prefix at the start of `buf`: `None` until all
/// four bytes are there, an `InvalidData` error for a length above
/// [`MAX_FRAME`], which guards against corrupt prefixes.
pub fn frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(prefix) = buf.first_chunk::<4>() else { return Ok(None) };
    match u32::from_le_bytes(*prefix) {
        len if len > MAX_FRAME => {
            Err(io::Error::new(io::ErrorKind::InvalidData, "frame length corrupt"))
        }
        len => Ok(Some(len as usize)),
    }
}

// ---------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------

/// One endpoint of an in-process transport pair.
pub struct InProcTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    label: String,
}

impl InProcTransport {
    /// Create a connected pair of endpoints.
    pub fn pair(label: &str) -> (InProcTransport, InProcTransport) {
        let (a_tx, b_rx) = channel::unbounded();
        let (b_tx, a_rx) = channel::unbounded();
        (
            InProcTransport { tx: a_tx, rx: a_rx, label: format!("{label}:a") },
            InProcTransport { tx: b_tx, rx: b_rx, label: format!("{label}:b") },
        )
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = encode_frame(frame);
        self.send_encoded(&bytes)
    }

    fn send_encoded(&mut self, bytes: &Bytes) -> io::Result<()> {
        self.tx
            .send(bytes.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        match self.rx.recv() {
            Ok(bytes) => decode_frame(bytes).map(Some).map_err(wire_err),
            Err(_) => Ok(None),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Polled> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => decode_frame(bytes).map(Polled::Frame).map_err(wire_err),
            Err(RecvTimeoutError::Timeout) => Ok(Polled::Idle),
            Err(RecvTimeoutError::Disconnected) => Ok(Polled::Eof),
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

// ---------------------------------------------------------------------
// In-process reconnection rendezvous
// ---------------------------------------------------------------------

/// Dialing side of an in-process "listener": every [`dial`](Self::dial)
/// manufactures a fresh [`InProcTransport`] pair and hands the far half to
/// the matching [`InProcListener`]. This gives in-process deployments (and
/// chaos tests) the same connect/accept lifecycle a TCP deployment has, so
/// reconnect-with-backoff paths can be exercised without sockets.
pub struct InProcDialer {
    tx: Sender<InProcTransport>,
    label: String,
    dialed: u64,
}

/// Accepting side of an in-process rendezvous; see [`InProcDialer`].
pub struct InProcListener {
    rx: Receiver<InProcTransport>,
    label: String,
}

/// Create a connected dialer/listener rendezvous named `label`.
pub fn inproc_rendezvous(label: &str) -> (InProcDialer, InProcListener) {
    let (tx, rx) = channel::unbounded();
    (
        InProcDialer { tx, label: label.to_string(), dialed: 0 },
        InProcListener { rx, label: label.to_string() },
    )
}

impl InProcDialer {
    /// Establish a fresh connection, returning the near half.
    pub fn dial(&mut self) -> io::Result<InProcTransport> {
        self.dialed += 1;
        let (near, far) = InProcTransport::pair(&format!("{}#{}", self.label, self.dialed));
        self.tx
            .send(far)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "listener dropped"))?;
        Ok(near)
    }
}

impl InProcListener {
    /// Wait up to `timeout` for the dialer to connect.
    pub fn accept(&mut self, timeout: Duration) -> io::Result<InProcTransport> {
        match self.rx.recv_timeout(timeout) {
            Ok(t) => Ok(t),
            Err(RecvTimeoutError::Timeout) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "no incoming connection"))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::ConnectionAborted, "dialer dropped"))
            }
        }
    }

    /// Diagnostic label.
    pub fn label(&self) -> String {
        self.label.clone()
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Socket-level options for [`TcpTransport`].
#[derive(Debug, Clone, Default)]
pub struct TcpOptions {
    /// If set, `recv` fails with `TimedOut` after this long with no
    /// complete frame. Without it a stalled peer blocks `recv` forever,
    /// defeating failure detection. A timed-out `recv` leaves any
    /// partially read frame buffered; the next call resumes it.
    pub read_timeout: Option<Duration>,
    /// If set, blocked writes fail with `TimedOut` after this long.
    pub write_timeout: Option<Duration>,
}

impl TcpOptions {
    /// Options with the given read timeout.
    pub fn with_read_timeout(timeout: Duration) -> Self {
        TcpOptions { read_timeout: Some(timeout), write_timeout: None }
    }
}

/// A TCP transport endpoint.
///
/// The read path is an incremental parser: bytes accumulate in an internal
/// buffer until a full length-prefixed frame is present, so a read timeout
/// (or a non-blocking poll) ending mid-frame never desynchronizes the
/// stream.
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
    /// Bytes of the current frame read so far: 4-byte length prefix, then
    /// the body. Empty between frames.
    partial: Vec<u8>,
    /// The read timeout currently programmed on the socket (avoids a
    /// setsockopt per recv).
    socket_timeout: Option<Duration>,
    /// Whether the socket is in `O_NONBLOCK` mode, which it is only while
    /// serving zero-wait polls. The mode belongs to the open file, not the
    /// handle; `stream` is never `try_clone`d, so nothing else sees it.
    nonblocking: bool,
    opts: TcpOptions,
}

impl TcpTransport {
    /// Connect to a listening peer with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, TcpOptions::default())
    }

    /// Connect to a listening peer.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: TcpOptions) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream_with(stream, opts)
    }

    /// Wrap an accepted stream with default options.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        Self::from_stream_with(stream, TcpOptions::default())
    }

    /// Wrap an accepted stream.
    pub fn from_stream_with(stream: TcpStream, opts: TcpOptions) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(opts.write_timeout)?;
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        Ok(TcpTransport {
            stream,
            peer,
            partial: Vec::new(),
            socket_timeout: None,
            nonblocking: false,
            opts,
        })
    }

    /// Bind a listener and accept exactly one connection (convenience for
    /// tests and point-to-point deployments). Returns the bound address
    /// via the callback before blocking in accept.
    pub fn accept_one(listener: &TcpListener) -> io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream)
    }

    /// Like [`accept_one`](Self::accept_one), with options.
    pub fn accept_one_with(listener: &TcpListener, opts: TcpOptions) -> io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Self::from_stream_with(stream, opts)
    }

    /// Program the socket for one read pass: `None` blocks until a frame,
    /// a positive wait becomes the socket read timeout, and a zero wait
    /// switches the socket to non-blocking so the pass never sleeps.
    fn arm_read(&mut self, wait: Option<Duration>) -> io::Result<()> {
        let poll = wait == Some(Duration::ZERO);
        self.set_nonblocking(poll)?;
        if !poll && wait != self.socket_timeout {
            self.stream.set_read_timeout(wait)?;
            self.socket_timeout = wait;
        }
        Ok(())
    }

    /// Switch `O_NONBLOCK` only on a transition.
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if on != self.nonblocking {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// How many bytes the in-progress frame still needs before it is
    /// complete, and (once known) the body length.
    fn frame_want(&self) -> io::Result<usize> {
        let len = frame_len(&self.partial)?.unwrap_or(0);
        Ok(4 + len - self.partial.len())
    }

    /// One bounded read pass: accumulate until a full frame, EOF, or the
    /// programmed socket timeout (in non-blocking mode: until the socket
    /// has nothing more to give).
    fn read_frame(&mut self) -> io::Result<Polled> {
        loop {
            let want = self.frame_want()?;
            if want == 0 {
                let body = Bytes::from(self.partial.split_off(4));
                self.partial.clear();
                return decode_frame(body).map(Polled::Frame).map_err(wire_err);
            }
            let mut chunk = [0u8; 16 * 1024];
            let cap = want.min(chunk.len());
            match self.stream.read(&mut chunk[..cap]) {
                Ok(0) => {
                    if self.partial.is_empty() {
                        return Ok(Polled::Eof);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ));
                }
                Ok(n) => self.partial.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Polled::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = encode_frame(frame);
        self.send_encoded(&bytes)
    }

    fn send_encoded(&mut self, bytes: &Bytes) -> io::Result<()> {
        // Compare before narrowing: casting first would let an oversized
        // frame wrap around the u32 and slip past the check.
        if bytes.len() > MAX_FRAME as usize {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
        }
        // Writes block (bounded by `write_timeout`) whatever the last poll
        // left the socket in.
        self.set_nonblocking(false)?;
        let len = (bytes.len() as u32).to_le_bytes();
        // Gather the length prefix and body into one vectored write so a
        // frame (even a large batch) normally costs a single syscall.
        let mut slices = [IoSlice::new(&len), IoSlice::new(bytes)];
        let mut bufs: &mut [IoSlice<'_>] = &mut slices;
        while !bufs.is_empty() {
            match self.stream.write_vectored(bufs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write whole frame",
                    ));
                }
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        self.arm_read(self.opts.read_timeout)?;
        match self.read_frame()? {
            Polled::Frame(f) => Ok(Some(f)),
            Polled::Eof => Ok(None),
            Polled::Idle => Err(io::Error::new(io::ErrorKind::TimedOut, "recv timed out")),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Polled> {
        self.arm_read(Some(timeout))?;
        self.read_frame()
    }

    fn label(&self) -> String {
        format!("tcp:{}", self.peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{Event, FlightStatus};
    use mirror_core::timestamp::VectorTimestamp;
    use mirror_core::ControlMsg;

    fn ev(seq: u64) -> Frame {
        Frame::Data(std::sync::Arc::new(
            Event::delta_status(seq, 55, FlightStatus::Boarding).with_total_size(256),
        ))
    }

    #[test]
    fn inproc_roundtrip_both_directions() {
        let (mut a, mut b) = InProcTransport::pair("t");
        a.send(&ev(1)).unwrap();
        b.send(&ev(2)).unwrap();
        assert_eq!(b.recv().unwrap(), Some(ev(1)));
        assert_eq!(a.recv().unwrap(), Some(ev(2)));
    }

    #[test]
    fn inproc_eof_on_peer_drop() {
        let (mut a, b) = InProcTransport::pair("t");
        drop(b);
        assert!(a.send(&ev(1)).is_err());
        assert_eq!(a.recv().unwrap(), None);
    }

    #[test]
    fn inproc_preserves_order_across_threads() {
        let (mut a, mut b) = InProcTransport::pair("t");
        let h = std::thread::spawn(move || {
            for i in 0..500 {
                a.send(&ev(i)).unwrap();
            }
        });
        for i in 0..500 {
            assert_eq!(b.recv().unwrap(), Some(ev(i)));
        }
        h.join().unwrap();
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::accept_one(&listener).unwrap();
            // Echo everything back until EOF.
            while let Some(f) = t.recv().unwrap() {
                t.send(&f).unwrap();
            }
        });
        let mut c = TcpTransport::connect(addr).unwrap();
        for i in 0..50 {
            c.send(&ev(i)).unwrap();
        }
        let ctrl = Frame::Control(ControlMsg::Chkpt {
            round: 9,
            stamp: VectorTimestamp::from_components(vec![1, 2, 3]),
            epoch: 0,
            term: 0,
        });
        c.send(&ctrl).unwrap();
        for i in 0..50 {
            assert_eq!(c.recv().unwrap(), Some(ev(i)));
        }
        assert_eq!(c.recv().unwrap(), Some(ctrl));
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn tcp_eof_is_clean() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::accept_one(&listener).unwrap();
            assert_eq!(t.recv().unwrap(), None);
        });
        let c = TcpTransport::connect(addr).unwrap();
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn inproc_send_encoded_matches_send() {
        let (mut a, mut b) = InProcTransport::pair("enc");
        let f = ev(7);
        a.send_encoded(&encode_frame(&f)).unwrap();
        assert_eq!(b.recv().unwrap(), Some(f));
    }

    #[test]
    fn tcp_send_encoded_batch_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let batch = Frame::Batch(vec![ev(1), ev(2), ev(3)]);
        let expect = batch.clone();
        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::accept_one(&listener).unwrap();
            assert_eq!(t.recv().unwrap(), Some(expect));
            assert_eq!(t.recv().unwrap(), None);
        });
        let mut c = TcpTransport::connect(addr).unwrap();
        c.send_encoded(&encode_frame(&batch)).unwrap();
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn labels_are_informative() {
        let (a, _b) = InProcTransport::pair("link");
        assert!(a.label().contains("link"));
    }
}
