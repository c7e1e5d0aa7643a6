//! Nonblocking-TCP front for the edge: a hand-rolled readiness loop over
//! `std::net` (no external event library), speaking the repo's standard
//! little-endian `u32` length-prefixed frame format so any
//! [`mirror_echo::TcpTransport`] can connect.
//!
//! One thread services every connection with a scan loop: accept new
//! sockets, read and parse `Frame::Subscribe` / `Frame::Resume`, pump
//! each connection's [`EdgeClient`] deliveries into a per-connection
//! write buffer, and flush what the socket will take. A socket that
//! stops draining simply stops being pumped once its write buffer hits
//! the high-water mark — backpressure then surfaces where it belongs, as
//! per-subscriber conflation inside the edge, with memory bounded on
//! both sides. The scan loop trades per-connection wakeup latency for
//! zero dependencies; the in-process virtual-socket path is the one
//! benchmarked at 100k+ subscribers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;

use crate::server::{EdgeClient, EdgeServer};
use mirror_echo::transport::frame_len;
use mirror_echo::{decode_frame, Frame};

/// Stop pumping deliveries into a connection whose unflushed write
/// buffer reaches this size; the edge's conflation takes over.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Deliveries pumped per connection per scan pass (fairness bound).
const PUMP_BATCH: usize = 32;

/// One accepted socket and its edge attachment.
struct TcpConn {
    sock: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    client: Option<EdgeClient>,
    dead: bool,
}

impl TcpConn {
    fn new(sock: TcpStream) -> io::Result<Self> {
        sock.set_nonblocking(true)?;
        sock.set_nodelay(true)?;
        Ok(TcpConn {
            sock,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            client: None,
            dead: false,
        })
    }

    /// Drain whatever the socket has; returns whether anything arrived.
    fn read_available(&mut self, scratch: &mut [u8]) -> bool {
        let mut any = false;
        loop {
            match self.sock.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        any
    }

    /// Parse complete length-prefixed frames out of `inbuf` and handle
    /// the control frames a subscriber may send.
    fn parse_frames(&mut self, edge: &EdgeServer) {
        loop {
            let len = match frame_len(&self.inbuf) {
                Ok(Some(len)) => len,
                Ok(None) => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            };
            if self.inbuf.len() < 4 + len {
                return;
            }
            let body = Bytes::copy_from_slice(&self.inbuf[4..4 + len]);
            self.inbuf.drain(..4 + len);
            match decode_frame(body) {
                Ok(Frame::Subscribe { client, filter }) => {
                    self.client = Some(edge.subscribe(client, filter));
                }
                Ok(Frame::Resume { client, last_seq }) => match edge.resume(client, last_seq) {
                    Ok(c) => self.client = Some(c),
                    Err(_) => {
                        // Unknown client: hang up; the subscriber must
                        // send a fresh Subscribe on its next connection.
                        self.dead = true;
                        return;
                    }
                },
                // Anything else from a subscriber (acks, probes) is
                // tolerated and ignored; a corrupt frame kills the link.
                Ok(_) => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Move deliveries from the edge into the write buffer, bounded by
    /// the high-water mark and the fairness batch.
    fn pump(&mut self) -> bool {
        let Some(client) = &self.client else { return false };
        let mut any = false;
        for _ in 0..PUMP_BATCH {
            if self.outbuf.len() - self.out_pos >= OUT_HIGH_WATER {
                break;
            }
            match client.poll() {
                Ok(Some(d)) => {
                    let wire = d.wire();
                    self.outbuf.extend_from_slice(&(wire.len() as u32).to_le_bytes());
                    self.outbuf.extend_from_slice(&wire);
                    any = true;
                }
                Ok(None) => break,
                Err(_) => {
                    // Typed edge disconnect (slow client, replaced,
                    // shutdown): flush what we have, then close.
                    self.dead = true;
                    break;
                }
            }
        }
        any
    }

    /// Write as much buffered output as the socket accepts.
    fn flush(&mut self) -> bool {
        let mut any = false;
        while self.out_pos < self.outbuf.len() {
            match self.sock.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > OUT_HIGH_WATER {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        any
    }
}

/// A running TCP front: owns the listener thread. Dropping it stops the
/// loop and closes every connection.
pub struct EdgeTcp {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl EdgeTcp {
    /// Bind `addr` and serve `edge` over TCP until [`stop`](Self::stop)
    /// or drop.
    pub fn serve<A: ToSocketAddrs>(edge: Arc<EdgeServer>, addr: A) -> io::Result<EdgeTcp> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("edge-tcp".into())
            .spawn(move || serve_loop(listener, edge, stop2))
            .expect("spawn edge tcp loop");
        Ok(EdgeTcp { local_addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the loop and close every connection.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for EdgeTcp {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(listener: TcpListener, edge: Arc<EdgeServer>, stop: Arc<AtomicBool>) {
    let mut conns: Vec<TcpConn> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    while !stop.load(Ordering::Acquire) {
        let mut active = false;
        loop {
            match listener.accept() {
                Ok((sock, _peer)) => {
                    if let Ok(conn) = TcpConn::new(sock) {
                        conns.push(conn);
                        active = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            active |= conn.read_available(&mut scratch);
            if !conn.dead {
                conn.parse_frames(&edge);
            }
            active |= conn.pump();
            active |= conn.flush();
        }
        // A dead connection is dropped after this pass's flush attempt;
        // its EdgeClient drops with it (the subscription stays in the
        // edge directory for a later Resume).
        conns.retain(|c| !c.dead);
        if !active {
            thread::sleep(Duration::from_millis(1));
        }
    }
}
