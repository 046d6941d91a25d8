//! Opening a connection, for every path that opens one (founders,
//! joiners, mid-run admission, the in-process fabrics): the one `dial`,
//! the one `accept`, the one reader of opening frames (`read_opening`)
//! and the one rule for a `Join` nobody expects (`park`). Handshake
//! frames count in the wire volume on both sides, never in the payload
//! stats or the write-syscall count. A bad frame or a bad id from a
//! config is a `TransportError`, never a panic.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use super::{Backoff, TcpEndpoint, TcpTransport, DEFAULT_CONNECT_TIMEOUT};
use crate::frame::{encode_frame, read_frame, Frame, FrameError};
use crate::transport::{Fabric, TransportError};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl TcpEndpoint {
    /// Bootstraps the distributed endpoint of node `id` in the mesh of
    /// the founding members `peers` (which must contain `id`): binds
    /// `addrs[id]`, dials every higher-id founder, and accepts one
    /// connection from every lower-id founder, each opening with a
    /// [`Frame::Hello`]. Ids outside `peers` stay unconnected and outside
    /// the barrier set until [`Endpoint::view_sync`](crate::transport::Endpoint::view_sync) admits them at their
    /// scheduled join epoch; a joiner that dials in before then is parked
    /// until that admission.
    ///
    /// # Errors
    /// On an id outside `addrs` or a mesh without `id`, a socket failure,
    /// a peer still away at `timeout`, or an opening frame the mesh does
    /// not expect.
    pub fn connect_among(
        id: usize,
        addrs: &[SocketAddr],
        peers: &[usize],
        timeout: Duration,
    ) -> Result<TcpEndpoint, TransportError> {
        let deadline = Instant::now() + timeout;
        if !peers.contains(&id) {
            return Err(TransportError::Io {
                detail: format!("node {id} outside its own mesh"),
            });
        }
        let listener = bind(addrs, id, deadline)?;
        let mut ep = TcpEndpoint::new(id, addrs.len());
        let hello = Frame::Hello { from: id };
        for &peer in peers.iter().filter(|&&p| p > id) {
            let stream = ep.dial(peer, addr_of(addrs, peer)?, &hello, deadline)?;
            ep.attach(peer, stream)?;
        }
        let mut waiting: Vec<usize> = peers.iter().copied().filter(|&p| p < id).collect();
        while !waiting.is_empty() {
            match ep.accept(&listener, deadline)? {
                (stream, Frame::Hello { from }) if waiting.contains(&from) => {
                    waiting.retain(|&p| p != from);
                    ep.attach(from, stream)?;
                }
                (stream, frame) => ep.park(stream, frame, 0, &waiting)?,
            }
        }
        ep.listener = Some(listener);
        Ok(ep)
    }

    /// Bootstraps the endpoint of a **scheduled joiner**: binds
    /// `addrs[id]`, dials every node in `dial` (the members it joins,
    /// plus any same-epoch joiner with a higher id), opening each
    /// connection with a [`Frame::Join`] carrying `epoch` and the
    /// late-attestation `evidence`; waits for every dialed peer's
    /// [`Frame::Welcome`] (members send it when the shared schedule
    /// reaches the join epoch, so this blocks until the running cluster
    /// arrives there); then admits every same-epoch joiner in
    /// `accept_from` (lower ids dial higher ids) at the learned
    /// generation, as a member admits.
    ///
    /// Returns the endpoint with its barrier generation aligned to the
    /// running cluster's, ready to enter the join epoch's view barrier.
    ///
    /// # Errors
    /// On a peer outside `addrs` or a joiner dialing itself, a socket
    /// failure or timeout, disagreeing welcome generations (the cluster
    /// and this process follow different schedules), or a
    /// protocol-violating peer.
    pub fn connect_as_joiner(
        id: usize,
        addrs: &[SocketAddr],
        epoch: usize,
        dial: &[usize],
        accept_from: &[usize],
        evidence: Vec<u8>,
        timeout: Duration,
    ) -> Result<TcpEndpoint, TransportError> {
        let deadline = Instant::now() + timeout;
        let bogus = |&&p: &&usize| p == id || p >= addrs.len();
        if let Some(peer) = dial.iter().chain(accept_from).find(bogus) {
            return Err(TransportError::Io {
                detail: format!("joiner {id} dialing bogus peer {peer}"),
            });
        }
        let listener = bind(addrs, id, deadline)?;
        let mut ep = TcpEndpoint::new(id, addrs.len());

        // Dial everyone first (connections complete via the peers'
        // listener backlogs even before they admit), so no admission
        // order can deadlock.
        let join = Frame::Join {
            from: id,
            epoch: epoch as u64,
            evidence,
        };
        let mut dialed = Vec::with_capacity(dial.len());
        for &peer in dial {
            dialed.push((peer, ep.dial(peer, addr_of(addrs, peer)?, &join, deadline)?));
        }

        // Every dialed peer welcomes at the same schedule point, so the
        // generations must agree.
        let mut generation = None;
        for &(peer, ref stream) in &dialed {
            let refused = |detail| TransportError::Protocol { peer, detail };
            match ep.read_opening(stream, peer, deadline)? {
                Frame::Welcome { epoch: at, .. } if at != epoch as u64 => {
                    return Err(refused(format!("welcomed epoch {at}, expected {epoch}")));
                }
                Frame::Welcome { generation: g, .. } => {
                    let agreed = *generation.get_or_insert(g);
                    if agreed != g {
                        return Err(refused(format!(
                            "welcome generation {g} disagrees with {agreed}"
                        )));
                    }
                }
                other => {
                    return Err(refused(format!("expected welcome, got {}", name(&other))));
                }
            }
        }
        ep.generation = generation.unwrap_or(0);
        for (peer, stream) in dialed {
            ep.attach(peer, stream)?;
        }

        // Same-epoch joiners with lower ids dial us. Their evidence is
        // the members' to check: a joiner verifies no one.
        ep.admit(&listener, epoch, accept_from, deadline)?;
        ep.evidence.clear();
        ep.listener = Some(listener);
        Ok(ep)
    }

    /// Admits the scheduled joiners `expected` of `epoch` (those parked
    /// earlier first, then fresh dial-ins off `listener`) by `deadline`:
    /// each `Join` is checked against the schedule and answered with a
    /// [`Frame::Welcome`] at the current barrier generation; its evidence
    /// is stashed and its connection attached at that generation. Other
    /// opening frames meanwhile go to the park rule.
    pub(super) fn admit(
        &mut self,
        listener: &TcpListener,
        epoch: usize,
        expected: &[usize],
        deadline: Instant,
    ) -> Result<(), TransportError> {
        let mut pending = expected.to_vec();
        let mut parked = std::mem::take(&mut self.parked).into_iter();
        while !pending.is_empty() {
            let (stream, frame) = match parked.next() {
                Some((_, early)) => early,
                None => self.accept(listener, deadline)?,
            };
            match frame {
                Frame::Join {
                    from,
                    epoch: at,
                    evidence,
                } if pending.contains(&from) => {
                    if at != epoch as u64 {
                        return Err(TransportError::Protocol {
                            peer: from,
                            detail: format!("joined for epoch {at}, schedule says {epoch}"),
                        });
                    }
                    pending.retain(|&p| p != from);
                    let welcome = Frame::Welcome {
                        from: self.id,
                        epoch: at,
                        generation: self.generation,
                    };
                    self.write_opening(&stream, &welcome)?;
                    self.evidence.insert(from, evidence);
                    self.attach(from, stream)?;
                }
                frame => self.park(stream, frame, epoch, &pending)?,
            }
        }
        self.parked.extend(parked);
        Ok(())
    }

    /// The one rule for an opening frame that no step of the handshake in
    /// progress takes: a [`Frame::Join`] for an epoch after `epoch`, from
    /// an id of the cluster that is neither this node, connected,
    /// `expected` nor parked already, is a joiner whose process started
    /// early. It waits in `parked`, outside the barrier set, until its
    /// epoch's admission. Anything else is refused.
    fn park(
        &mut self,
        stream: TcpStream,
        frame: Frame,
        epoch: usize,
        expected: &[usize],
    ) -> Result<(), TransportError> {
        match frame {
            Frame::Join {
                from, epoch: at, ..
            } if at > epoch as u64
                && from != self.id
                && !expected.contains(&from)
                && matches!(self.conns.get(from), Some(None))
                && !self.parked.contains_key(&from) =>
            {
                self.parked.insert(from, (stream, frame));
                Ok(())
            }
            frame => Err(self.refusal(&frame, epoch, expected)),
        }
    }

    /// The refusal of an opening `frame` while expecting `expected` at
    /// `epoch`: attributed to the id a `Hello` or `Join` names, else to
    /// nobody.
    fn refusal(&self, frame: &Frame, epoch: usize, expected: &[usize]) -> TransportError {
        let peer = match *frame {
            Frame::Hello { from } | Frame::Join { from, .. } => from,
            _ => TransportError::UNIDENTIFIED_PEER,
        };
        TransportError::Protocol {
            peer,
            detail: format!(
                "node {}: unexpected opening frame {} (expecting {expected:?} at epoch {epoch})",
                self.id,
                name(frame)
            ),
        }
    }

    /// Opens a connection to `peer` at `addr`: dials until its listener
    /// answers (under [`Backoff::dial`]) or `deadline` passes, then
    /// writes `opening`.
    fn dial(
        &mut self,
        peer: usize,
        addr: SocketAddr,
        opening: &Frame,
        deadline: Instant,
    ) -> Result<TcpStream, TransportError> {
        let mut backoff = Backoff::dial();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => backoff.pause(),
                Err(e) => {
                    let what = format!("node {}: dialing peer {peer} at {addr}: {e}", self.id);
                    return Err(TransportError::Timeout { what });
                }
            }
        };
        stream.set_nodelay(true)?;
        self.write_opening(&stream, opening)?;
        Ok(stream)
    }

    /// Takes the next connection off `listener`, polled under
    /// [`Backoff::accept`] until `deadline`, and reads the frame it opens
    /// with.
    fn accept(
        &self,
        listener: &TcpListener,
        deadline: Instant,
    ) -> Result<(TcpStream, Frame), TransportError> {
        listener.set_nonblocking(true)?;
        let mut backoff = Backoff::accept();
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() != io::ErrorKind::WouldBlock => return Err(e.into()),
                Err(_) if Instant::now() < deadline => backoff.pause(),
                Err(_) => {
                    let what = format!("node {}: accepting a connection", self.id);
                    return Err(TransportError::Timeout { what });
                }
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        let frame = self.read_opening(&stream, TransportError::UNIDENTIFIED_PEER, deadline)?;
        Ok((stream, frame))
    }

    /// Writes a handshake frame on a connection not attached yet.
    fn write_opening(&mut self, stream: &TcpStream, frame: &Frame) -> Result<(), TransportError> {
        let bytes = encode_frame(frame);
        (&mut &*stream).write_all(&bytes)?;
        self.wire_bytes_out += bytes.len() as u64;
        Ok(())
    }

    /// The one reader of opening frames: the first frame off a
    /// connection not attached yet, by `deadline`. `peer` is who the
    /// connection speaks for, [`TransportError::UNIDENTIFIED_PEER`]
    /// until a frame has said.
    fn read_opening(
        &self,
        stream: &TcpStream,
        peer: usize,
        deadline: Instant,
    ) -> Result<Frame, TransportError> {
        let budget = deadline.saturating_duration_since(Instant::now());
        stream.set_read_timeout(Some(budget.max(Duration::from_millis(10))))?;
        let read = read_frame(&mut &*stream);
        stream.set_read_timeout(None)?;
        let remote = stream.peer_addr()?;
        let refused = |what: String| TransportError::Protocol {
            peer,
            detail: format!("node {}, connection with {remote}: {what}", self.id),
        };
        match read {
            Ok(Some(frame)) => {
                let len = encode_frame(&frame).len() as u64;
                self.shared.wire_bytes_in.fetch_add(len, Ordering::Relaxed);
                Ok(frame)
            }
            Ok(None) => Err(refused("eof before the opening frame".into())),
            Err(FrameError::Io(e)) => Err(e.into()),
            Err(e @ FrameError::Invalid(_)) => Err(refused(e.to_string())),
        }
    }
}

impl TcpTransport {
    /// Builds the fully connected fabric: binds `n` ephemeral loopback
    /// listeners and connects every pair (`i` dials `j` for `i < j`,
    /// with the same hello handshake the distributed bootstrap uses).
    pub fn loopback(n: usize) -> Result<Self, TransportError> {
        let mut endpoints: Vec<TcpEndpoint> = (0..n).map(|id| TcpEndpoint::new(id, n)).collect();
        let deadline = Instant::now() + DEFAULT_CONNECT_TIMEOUT;
        for j in 1..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let (lower, upper) = endpoints.split_at_mut(j);
            let Some(b) = upper.first_mut() else { break };
            for a in lower {
                pair(a, b, &listener, deadline)?;
            }
        }
        Ok(Fabric::from_endpoints(endpoints))
    }

    /// Builds a **hub-star** fabric: endpoint 0 holds one connection to
    /// every other endpoint, the spokes hold only their hub link (their
    /// remaining peer slots stay outside the barrier set, like
    /// not-yet-admitted joiners). This is the connection-*scale* shape —
    /// one node with `n - 1` concurrent connections served by a single
    /// poller thread — used by the scale tests and
    /// `bench_transport`'s connection-scale arm; a full mesh of the same
    /// size would need O(n²) sockets.
    pub fn star(n: usize) -> Result<Self, TransportError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut endpoints: Vec<TcpEndpoint> = (0..n).map(|id| TcpEndpoint::new(id, n)).collect();
        let deadline = Instant::now() + DEFAULT_CONNECT_TIMEOUT;
        if let Some((hub, spokes)) = endpoints.split_first_mut() {
            for spoke in spokes {
                pair(spoke, hub, &listener, deadline)?;
            }
        }
        Ok(Fabric::from_endpoints(endpoints))
    }
}

/// Connects two endpoints of one process: `a` dials `b` at `listener`
/// with its `Hello`, `b` accepts it, and each attaches its end.
fn pair(
    a: &mut TcpEndpoint,
    b: &mut TcpEndpoint,
    listener: &TcpListener,
    deadline: Instant,
) -> Result<(), TransportError> {
    let hello = Frame::Hello { from: a.id };
    let dialed = a.dial(b.id, listener.local_addr()?, &hello, deadline)?;
    let (accepted, frame) = b.accept(listener, deadline)?;
    if frame != hello {
        return Err(b.refusal(&frame, 0, &[a.id]));
    }
    a.attach(b.id, dialed)?;
    b.attach(a.id, accepted)
}

/// Binds node `id`'s listener at `addrs[id]`, retrying `AddrInUse` until
/// `deadline`: a port reserved via [`super::reserve_loopback_addrs`] is
/// released before this rebind, so another process may hold it briefly.
fn bind(addrs: &[SocketAddr], id: usize, deadline: Instant) -> Result<TcpListener, TransportError> {
    let addr = addr_of(addrs, id)?;
    let mut backoff = Backoff::dial();
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                backoff.pause();
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// `addrs[id]`, or the refusal of an id outside the cluster.
fn addr_of(addrs: &[SocketAddr], id: usize) -> Result<SocketAddr, TransportError> {
    addrs.get(id).copied().ok_or_else(|| TransportError::Io {
        detail: format!("node id {id} outside cluster of {}", addrs.len()),
    })
}

/// A frame named without its byte fields: a stranger's frame may carry
/// up to [`crate::frame::MAX_BODY_LEN`] of them.
fn name(frame: &Frame) -> String {
    match frame {
        Frame::Data { from, payload } => {
            format!("Data {{ from: {from}, {} payload bytes }}", payload.len())
        }
        Frame::Join {
            from,
            epoch,
            evidence,
        } => format!(
            "Join {{ from: {from}, epoch: {epoch}, {} evidence bytes }}",
            evidence.len()
        ),
        other => format!("{other:?}"),
    }
}
