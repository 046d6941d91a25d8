//! Real-socket TCP transport: the deployment backend the paper's 8-node
//! SGX testbed corresponds to.
//!
//! [`TcpEndpoint`] implements [`Endpoint`] over genuine TCP connections
//! carrying the length-prefixed frames of [`crate::frame`]. It comes in
//! two shapes:
//!
//! * **Loopback fabric** ([`TcpTransport::loopback`], the [`Fabric`] of
//!   `n` endpoints) — all of them live in one process, fully connected
//!   over `127.0.0.1` sockets. This is what the cross-backend
//!   equivalence tests and the benches drive: every frame crosses the
//!   kernel's TCP stack, yet runs stay bit-identical with
//!   [`crate::mem::MemNetwork`], split or not.
//! * **Distributed endpoint** ([`TcpEndpoint::connect_among`], and
//!   [`TcpEndpoint::connect_as_joiner`] for a scheduled joiner) — one
//!   endpoint per OS process, bootstrapped from a node-id →
//!   socket-address map. The `rex-node` binary builds exactly this and
//!   runs one engine node per process.
//!
//! # Event-driven connection manager
//! Each endpoint runs **one** `Reactor` poller thread
//! that owns the non-blocking read halves of all its connections and
//! feeds decoded frames into the shared mailbox — thread cost is O(1) in
//! the peer count. The write side stages frames into **per-peer output
//! buffers** (`OutBuf`): all frames destined to a peer between two
//! flush points coalesce into a single `write` syscall, encoded in place
//! via [`crate::frame::encode_frame_into`] with the buffer's capacity
//! reused across epochs. Output is drained with non-blocking partial
//! writes serviced round-robin, so one slow peer's full socket never
//! stalls the other links (see [`TcpEndpoint::set_outbound_cap`] for the
//! backpressure bound).
//!
//! # Bootstrap
//! Every connection opens through one `dial` and one `accept` (the
//! private `handshake` module), whichever path asks: the founders'
//! mesh, a joiner, a mid-run admission, or the in-process fabrics. The
//! dialing side retries with capped exponential backoff until the
//! listener is up, and opens with a [`Frame::Hello`] (or a joiner's
//! [`Frame::Join`], answered by a [`Frame::Welcome`]), so the accepting
//! side learns which node the connection speaks for. In a mesh, node
//! `i` dials every peer `j > i` and accepts every `j < i`. Handshakes
//! run on blocking sockets; a connection turns non-blocking when it is
//! attached to the reactor. Frames of one connection are decoded in
//! arrival order by a single poller, which preserves canonical delivery
//! order (ascending sender id, per-sender FIFO).
//!
//! # Delivery barrier
//! TCP has real propagation delay, so "everything sent has arrived" must
//! be established explicitly: [`Endpoint::try_sync`] stages a
//! [`Frame::Barrier`] token behind every peer's coalesced output, drains
//! the buffers, and waits for every peer's token of the same generation.
//! Because tokens follow data frames on the same FIFO connection, a
//! completed sync guarantees the local mailbox holds every message any
//! peer sent before *its* sync — the exact property the engine's round
//! structure needs. The fabric-level
//! [`Transport::flush`](crate::transport::Transport::flush) runs the same
//! two-phase barrier across all owned endpoints.
//!
//! # Byte accounting
//! [`TrafficStats`] record **payload bytes of data frames only**, at the
//! frame layer: `bytes_out` when a data frame is staged, `bytes_in` when
//! the poller delivers it. Handshake, barrier and commitment control
//! frames and the 9-byte frame headers are excluded, so counts are
//! bit-identical with the in-memory backends; the physical wire volume
//! (headers + control plane, handshake included) is tracked separately
//! and exposed via
//! [`TcpEndpoint::wire_traffic`], and the number of `write` syscalls the
//! coalescing path actually issued via [`TcpEndpoint::write_syscalls`].

use crate::frame::{encode_frame_into, Frame, HEADER_LEN};
use crate::mem::Envelope;
use crate::reactor::{Reactor, ReactorSink};
use crate::stats::TrafficStats;
use crate::transport::{
    canonicalize, BarrierKind, Endpoint, Fabric, PeerCommitment, TransportError,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

mod handshake;

/// Shared atomic traffic counters for one node.
#[derive(Debug, Default)]
struct AtomicStats {
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    msgs_out: AtomicU64,
    msgs_in: AtomicU64,
}

impl AtomicStats {
    /// Records an outgoing message of `bytes` payload bytes.
    fn record_send(&self, bytes: u64) {
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an incoming message of `bytes` payload bytes.
    fn record_recv(&self, bytes: u64) {
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot into a plain [`TrafficStats`].
    #[must_use]
    fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            msgs_out: self.msgs_out.load(Ordering::Relaxed),
            msgs_in: self.msgs_in.load(Ordering::Relaxed),
        }
    }
}

/// Locks a mutex, recovering the guard from poisoning: the poller thread
/// must never panic on a lock another thread poisoned while unwinding —
/// that would escalate one failure into a process abort instead of a
/// surfaced [`TransportError`].
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long [`TcpEndpoint::connect_among`] keeps retrying peers that
/// have not bound their listener yet.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one barrier round; exceeding it means a peer died or
/// the fleet deadlocked, and the run cannot produce a correct result.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(120);

/// Output staged past this size triggers an opportunistic non-blocking
/// flush inside [`Endpoint::send`] — large epochs stream out in
/// ~256 KiB syscalls instead of accumulating without bound, while small
/// epochs still coalesce into a single write at the barrier.
const SOFT_FLUSH_BYTES: usize = 256 * 1024;

/// Default per-peer bound on staged output (see
/// [`TcpEndpoint::set_outbound_cap`]).
const DEFAULT_OUTBOUND_CAP: usize = 64 * 1024 * 1024;

/// Capped exponential backoff for retry/poll loops. The first pauses are
/// short (a dial usually succeeds on the second attempt); only a peer
/// that stays away drives the interval toward the cap.
struct Backoff {
    wait: Duration,
    cap: Duration,
}

impl Backoff {
    fn new(start: Duration, cap: Duration) -> Backoff {
        Backoff { wait: start, cap }
    }

    /// Dial retries: 50µs → 20ms. A peer's listener is usually up within
    /// a few tens of µs of the first refusal, on loopback at least.
    fn dial() -> Backoff {
        Backoff::new(Duration::from_micros(50), Duration::from_millis(20))
    }

    /// Accept polls: 20µs → 5ms. A local peer's dial usually lands within
    /// the first few polls.
    fn accept() -> Backoff {
        Backoff::new(Duration::from_micros(20), Duration::from_millis(5))
    }

    /// Output-drain waits while a peer's socket is full: 50µs → 2ms.
    fn drain() -> Backoff {
        Backoff::new(Duration::from_micros(50), Duration::from_millis(2))
    }

    fn pause(&mut self) {
        std::thread::sleep(self.wait);
        self.wait = (self.wait * 2).min(self.cap);
    }
}

/// Barrier bookkeeping shared with the poller thread, tracked per peer:
/// generations are strictly increasing on each connection, so "peer `p`
/// reached generation `g`" is simply `gens[p] >= g`. Per-peer tracking
/// (rather than a per-generation count) makes teardown races benign — a
/// peer closing its connection after its final token is harmless, while a
/// peer dying *before* delivering an awaited token is detected.
#[derive(Debug, Default)]
struct BarrierState {
    /// Highest barrier generation received from each peer. The own slot
    /// — and every peer without a live connection (a scheduled joiner
    /// that has not been admitted yet, or a retired leaver) — is
    /// pre-satisfied with `u64::MAX`, which is what scopes the wire
    /// barrier to the *current membership view*.
    gens: Vec<u64>,
    /// Peers whose connection reached EOF or errored.
    closed: Vec<bool>,
    /// Why a peer's connection was torn down, when the poller knows
    /// more than "closed" (a protocol violation, an io error) — surfaced
    /// through [`TransportError`] at the next barrier.
    reasons: Vec<Option<String>>,
}

/// Mailbox + barrier state one endpoint shares with its poller thread.
#[derive(Debug, Default)]
struct Shared {
    queue: Mutex<Vec<Envelope>>,
    /// Signalled on every delivery and connection close, so
    /// [`Endpoint::recv_wait`] (the bounded-staleness driver's arrival
    /// hook) blocks instead of polling.
    queue_cv: Condvar,
    barriers: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Peer commitments delivered by the poller, in arrival order,
    /// drained by [`Endpoint::take_commitments`]. Control plane — kept
    /// out of the data mailbox so canonical inbox order is untouched.
    commitments: Mutex<Vec<PeerCommitment>>,
    wire_bytes_in: AtomicU64,
}

impl Shared {
    /// Handles one frame read off the connection to `peer`.
    fn on_frame(&self, peer: usize, frame: Frame, stats: &AtomicStats) {
        match frame {
            Frame::Data { payload, .. } => {
                stats.record_recv(payload.len() as u64);
                self.wire_bytes_in
                    .fetch_add((HEADER_LEN + payload.len()) as u64, Ordering::Relaxed);
                // The connection is the sender's identity (established by
                // the bootstrap hello); a frame's self-declared `from`
                // cannot re-attribute it, which would break canonical
                // ordering's per-sender FIFO invariant.
                lock(&self.queue).push(Envelope {
                    from: peer,
                    bytes: payload,
                });
                self.queue_cv.notify_all();
            }
            Frame::Barrier { generation, .. } => {
                self.wire_bytes_in
                    .fetch_add((HEADER_LEN + 8) as u64, Ordering::Relaxed);
                let mut state = lock(&self.barriers);
                // The connection is the identity; generations only grow.
                state.gens[peer] = state.gens[peer].max(generation);
                self.barrier_cv.notify_all();
            }
            Frame::Commitment {
                epoch, digest, tag, ..
            } => {
                self.wire_bytes_in
                    .fetch_add((HEADER_LEN + 72) as u64, Ordering::Relaxed);
                // Connection-attributed like data frames: the frame's
                // self-declared `from` cannot impersonate another peer.
                lock(&self.commitments).push(PeerCommitment {
                    from: peer,
                    epoch,
                    digest,
                    tag,
                });
            }
            // Hello/join/welcome frames are consumed during bootstrap or
            // admission; one arriving later is a protocol violation from
            // a peer — drop it.
            Frame::Hello { .. } | Frame::Join { .. } | Frame::Welcome { .. } => {}
        }
    }

    fn on_closed(&self, peer: usize, reason: Option<String>) {
        let mut state = lock(&self.barriers);
        state.closed[peer] = true;
        if state.reasons[peer].is_none() {
            state.reasons[peer] = reason;
        }
        self.barrier_cv.notify_all();
        self.queue_cv.notify_all();
    }
}

/// Adapter feeding the poller's events into the endpoint's shared state.
struct EndpointSink {
    shared: Arc<Shared>,
    stats: Arc<AtomicStats>,
}

impl ReactorSink for EndpointSink {
    fn on_frame(&self, peer: usize, frame: Frame) {
        self.shared.on_frame(peer, frame, &self.stats);
    }

    fn on_closed(&self, peer: usize, reason: Option<String>) {
        self.shared.on_closed(peer, reason);
    }
}

/// Per-peer reusable output buffer: frames are staged in place via
/// [`encode_frame_into`] and drained with non-blocking partial writes,
/// so everything destined to one peer between two flush points leaves in
/// a single syscall (or a handful of `SOFT_FLUSH_BYTES`-sized ones for
/// very large epochs). `pos` tracks the partially written prefix.
#[derive(Debug, Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much staged output as `w` accepts right now. Returns
    /// `Ok(true)` when the buffer fully drained (its capacity is kept
    /// for the next epoch), `Ok(false)` on a partial write cut short by
    /// `WouldBlock` — frame bytes already accepted by the kernel stay
    /// consumed, the remainder stays staged, and the peer's decoder
    /// reassembles across the split.
    fn try_flush<W: Write>(&mut self, w: &mut W, syscalls: &mut u64) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    *syscalls += 1;
                    self.pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    *syscalls += 1;
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

/// One live connection: the write half (non-blocking — it shares its
/// file description with the read half the reactor owns) plus the staged
/// output. A connection whose write failed is `dead`: staged and future
/// output is discarded (the peer finished and closed; losing the
/// message is fine for the epoch-bounded experiments). Accounting still records the send — the
/// counters describe what this node *sent*, identically to a fabric
/// whose peer is alive.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    out: OutBuf,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            out: OutBuf::default(),
            dead: false,
        }
    }

    fn stage(&mut self, frame: &Frame) {
        if !self.dead {
            encode_frame_into(frame, &mut self.out.buf);
        }
    }

    /// One non-blocking drain attempt; returns whether the buffer is
    /// empty afterwards.
    fn try_flush(&mut self, syscalls: &mut u64) -> bool {
        if self.dead {
            return true;
        }
        match self.out.try_flush(&mut &self.stream, syscalls) {
            Ok(drained) => drained,
            Err(_) => {
                self.dead = true;
                self.out.clear();
                true
            }
        }
    }
}

/// One node's endpoint on a TCP fabric. See the module docs.
pub struct TcpEndpoint {
    id: usize,
    n: usize,
    /// Live connections, indexed by peer id (`None` at the own index, at
    /// peers without a live connection — scheduled joiners not yet
    /// admitted — and at retired leavers).
    conns: Vec<Option<Conn>>,
    /// The listening socket, retained after bootstrap so scheduled
    /// joiners can be admitted mid-run (`None` for loopback-fabric
    /// endpoints, which are fully pre-connected).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    stats: Arc<AtomicStats>,
    /// The single poller thread owning every connection's read half.
    reactor: Reactor,
    /// Barrier generation this endpoint has entered.
    generation: u64,
    wire_bytes_out: u64,
    /// `write` syscalls issued by the coalescing output path (including
    /// ones answered `WouldBlock`) — the module's "one syscall per peer
    /// per epoch" claim, measurable.
    write_syscalls: u64,
    /// Per-peer staged-output bound; see [`TcpEndpoint::set_outbound_cap`].
    outbound_cap: usize,
    /// Late-attestation evidence carried by admitted `Join` frames,
    /// keyed by joiner id, drained by [`Endpoint::join_evidence`].
    evidence: HashMap<usize, Vec<u8>>,
    /// Join connections that dialed in **early**, with their `Join`,
    /// keyed by joiner id — a joiner process may start (and dial) long
    /// before its scheduled epoch, even while the founders are still
    /// bootstrapping their mesh. They wait here, outside the barrier
    /// set, until [`Endpoint::view_sync`] admits them at the epoch the
    /// shared schedule names.
    parked: BTreeMap<usize, (TcpStream, Frame)>,
}

impl TcpEndpoint {
    /// An endpoint of node `id` among `n` nodes, with no connection yet:
    /// every peer stays outside the barrier set until
    /// [`TcpEndpoint::attach`] wires its connection in.
    fn new(id: usize, n: usize) -> TcpEndpoint {
        let shared = Arc::new(Shared {
            barriers: Mutex::new(BarrierState {
                gens: vec![u64::MAX; n],
                closed: vec![false; n],
                reasons: vec![None; n],
            }),
            ..Shared::default()
        });
        let stats = Arc::new(AtomicStats::default());
        let reactor = Reactor::spawn(Arc::new(EndpointSink {
            shared: Arc::clone(&shared),
            stats: Arc::clone(&stats),
        }));
        TcpEndpoint {
            id,
            n,
            conns: (0..n).map(|_| None).collect(),
            listener: None,
            shared,
            stats,
            reactor,
            generation: 0,
            wire_bytes_out: 0,
            write_syscalls: 0,
            outbound_cap: DEFAULT_OUTBOUND_CAP,
            evidence: HashMap::new(),
            parked: BTreeMap::new(),
        }
    }

    /// Wires one opened connection to `peer` in, at the current barrier
    /// generation: read half to the poller (which switches the shared
    /// file description non-blocking), write half into the connection
    /// pool.
    fn attach(&mut self, peer: usize, stream: TcpStream) -> Result<(), TransportError> {
        {
            let mut state = lock(&self.shared.barriers);
            state.gens[peer] = self.generation;
            state.closed[peer] = false;
            state.reasons[peer] = None;
        }
        self.reactor.add(peer, stream.try_clone()?)?;
        self.conns[peer] = Some(Conn::new(stream));
        Ok(())
    }

    /// Physical wire volume `(bytes_out, bytes_in)` including frame
    /// headers and control frames, the connection handshakes' too — the
    /// framing overhead excluded from [`TrafficStats`].
    #[must_use]
    pub fn wire_traffic(&self) -> (u64, u64) {
        (
            self.wire_bytes_out,
            self.shared.wire_bytes_in.load(Ordering::Relaxed),
        )
    }

    /// Number of `write` syscalls the coalescing output path issued so
    /// far: one per peer per flush interval (plus partial-write
    /// continuations). Handshakes write outside it.
    #[must_use]
    pub fn write_syscalls(&self) -> u64 {
        self.write_syscalls
    }

    /// Bounds staged output per peer (bytes). When a peer stops reading
    /// and its staged output exceeds the cap, [`Endpoint::send`]
    /// blocks (with capped-backoff drain attempts) until the backlog
    /// shrinks — backpressure on the producer instead of unbounded
    /// memory. A peer that stays stalled past the barrier timeout is
    /// declared dead and its staged output dropped, mirroring the
    /// fabric's write-failure policy.
    pub fn set_outbound_cap(&mut self, bytes: usize) {
        self.outbound_cap = bytes.max(1);
    }

    /// One non-blocking drain pass over every connection's staged
    /// output, round-robin; returns whether everything drained. A slow
    /// peer leaves its remainder staged without stalling the pass.
    fn flush_pass(&mut self) -> bool {
        let mut drained = true;
        for conn in self.conns.iter_mut().flatten() {
            drained &= conn.try_flush(&mut self.write_syscalls);
        }
        drained
    }

    /// Drains all staged output, waiting (capped backoff) for full
    /// sockets, bounded by `deadline`. Returns whether it fully drained.
    fn drain_staged(&mut self, deadline: Instant) -> bool {
        let mut backoff = Backoff::drain();
        while !self.flush_pass() {
            if Instant::now() >= deadline {
                return false;
            }
            backoff.pause();
        }
        true
    }

    /// Retires a departed peer from the barrier set (its slot is
    /// pre-satisfied forever) and tears down the connection. Graceful:
    /// the leaver stopped participating at this exact schedule point, so
    /// nothing is in flight; whatever output were still staged to it is
    /// discarded with the connection.
    fn retire(&mut self, peer: usize) {
        lock(&self.shared.barriers).gens[peer] = u64::MAX;
        if let Some(conn) = self.conns[peer].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        // Best-effort drain of staged output, then shutdown (not just
        // drop) so both pollers — ours via the cloned read half, the
        // peer's via FIN — wake up and exit. The reactor handle's own
        // drop joins the poller thread.
        self.drain_staged(Instant::now() + Duration::from_secs(5));
        for conn in self.conns.iter().flatten() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Endpoint for TcpEndpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    /// Stages one data frame to `to`, accounting payload bytes at the
    /// frame layer. The frame leaves with the peer's next coalesced
    /// flush (a barrier, [`Endpoint::flush_sends`], or the soft
    /// threshold).
    ///
    /// # Panics
    /// On self-send or unknown destination (protocol bugs).
    fn send(&mut self, to: usize, bytes: Vec<u8>) {
        assert_ne!(to, self.id, "self-send");
        let conn = self.conns[to]
            .as_mut()
            .expect("destination is this endpoint");
        self.stats.record_send(bytes.len() as u64);
        self.wire_bytes_out += (HEADER_LEN + bytes.len()) as u64;
        conn.stage(&Frame::Data {
            from: self.id,
            payload: bytes,
        });
        if conn.out.pending() > SOFT_FLUSH_BYTES {
            conn.try_flush(&mut self.write_syscalls);
        }
        // Backpressure: a peer that stopped reading bounds our memory,
        // not the other way round. The poller keeps serving every other
        // link meanwhile — only sends to *this* peer block.
        if conn.out.pending() > self.outbound_cap {
            let deadline = Instant::now() + BARRIER_TIMEOUT;
            let mut backoff = Backoff::drain();
            while !conn.dead && conn.out.pending() > self.outbound_cap {
                if Instant::now() >= deadline {
                    conn.dead = true;
                    conn.out.clear();
                    break;
                }
                backoff.pause();
                conn.try_flush(&mut self.write_syscalls);
            }
        }
    }

    fn recv(&mut self) -> Vec<Envelope> {
        let mut inbox = std::mem::take(&mut *lock(&self.shared.queue));
        canonicalize(&mut inbox);
        inbox
    }

    fn recv_wait(&mut self, timeout: Duration) -> Vec<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut queue = lock(&self.shared.queue);
        while queue.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let (guard, _) = self
                .shared
                .queue_cv
                .wait_timeout(queue, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
        let mut inbox = std::mem::take(&mut *queue);
        drop(queue);
        canonicalize(&mut inbox);
        inbox
    }

    fn flush_sends(&mut self) -> Result<(), TransportError> {
        if self.drain_staged(Instant::now() + BARRIER_TIMEOUT) {
            Ok(())
        } else {
            Err(TransportError::Timeout {
                what: format!("node {}: draining staged output", self.id),
            })
        }
    }

    /// Phase one of the round barrier: announce this endpoint's new
    /// generation to every peer, behind whatever data frames are staged
    /// — on the common path the whole epoch (data + token) leaves in one
    /// syscall per peer.
    fn arrive(&mut self, _kind: BarrierKind) {
        self.generation += 1;
        let token = Frame::Barrier {
            from: self.id,
            generation: self.generation,
        };
        for conn in self.conns.iter_mut().flatten() {
            self.wire_bytes_out += (HEADER_LEN + 8) as u64;
            conn.stage(&token);
        }
        self.flush_pass();
    }

    /// Phase two: wait until every peer's token of the current generation
    /// arrived (hence, by FIFO, every message they sent before it),
    /// keeping our own staged output draining meanwhile (a peer whose
    /// socket was full at `arrive` still needs our token). Surfaces
    /// a dead peer or a timed-out round as a [`TransportError`] — the
    /// fleet can no longer produce a correct result, and the caller
    /// decides whether that panics (the engine) or exits cleanly (the
    /// deployed binary).
    fn wait(&mut self, _kind: BarrierKind) -> Result<(), TransportError> {
        let g = self.generation;
        let deadline = Instant::now() + BARRIER_TIMEOUT;
        loop {
            let drained = self.flush_pass();
            let state = lock(&self.shared.barriers);
            if state.gens.iter().all(|&seen| seen >= g) {
                return Ok(());
            }
            if let Some(peer) = state
                .gens
                .iter()
                .zip(&state.closed)
                .position(|(&seen, &closed)| closed && seen < g)
            {
                let detail = state.reasons[peer]
                    .clone()
                    .unwrap_or_else(|| format!("disconnected before barrier {g}"));
                return Err(TransportError::PeerLost { peer, detail });
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return Err(TransportError::Timeout {
                    what: format!("node {}: barrier {g}", self.id),
                });
            }
            // With output pending, wake quickly to keep draining; fully
            // drained, only a peer's token (condvar) ends the wait.
            let slice = if drained {
                Duration::from_millis(100)
            } else {
                Duration::from_millis(1)
            };
            let _ = self
                .shared
                .barrier_cv
                .wait_timeout(state, timeout.min(slice))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn view_sync(
        &mut self,
        epoch: usize,
        joined: &[usize],
        left: &[usize],
    ) -> Result<(), TransportError> {
        for &l in left {
            if l != self.id {
                self.retire(l);
            }
        }
        // Admit only joiners we are not already connected to: on a
        // pre-connected loopback fabric (or for the joiner itself) this
        // is a no-op, on a distributed member it accepts the pending
        // dial-ins.
        let expected: Vec<usize> = joined
            .iter()
            .copied()
            .filter(|&j| j != self.id && self.conns[j].is_none())
            .collect();
        if expected.is_empty() {
            return Ok(());
        }
        // The listener leaves the endpoint while it admits, and comes
        // back on every path.
        let Some(listener) = self.listener.take() else {
            return Err(TransportError::Io {
                detail: format!(
                    "node {}: no listener to admit joiners {expected:?}",
                    self.id
                ),
            });
        };
        let result = self.admit(
            &listener,
            epoch,
            &expected,
            Instant::now() + BARRIER_TIMEOUT,
        );
        self.listener = Some(listener);
        result
    }

    fn join_evidence(&mut self, peer: usize) -> Option<Vec<u8>> {
        self.evidence.remove(&peer)
    }

    fn send_commitment(&mut self, epoch: u64, digest: [u8; 32], tag: [u8; 32]) {
        // Staged like a barrier token: behind the epoch's data frames on
        // every live connection, leaving with the same coalesced flush.
        // Control plane — accounted in wire bytes only, never in payload
        // stats.
        let frame = Frame::Commitment {
            from: self.id,
            epoch,
            digest,
            tag,
        };
        for conn in self.conns.iter_mut().flatten() {
            self.wire_bytes_out += (HEADER_LEN + 72) as u64;
            conn.stage(&frame);
        }
    }

    fn take_commitments(&mut self) -> Vec<PeerCommitment> {
        std::mem::take(&mut *lock(&self.shared.commitments))
    }

    fn stats(&self) -> TrafficStats {
        self.stats.snapshot()
    }
}

/// Reserves `n` distinct loopback addresses by binding ephemeral
/// listeners and releasing them (listeners set `SO_REUSEADDR`, so the
/// ports rebind immediately). Used by the multi-process launcher and
/// tests to pre-agree on a cluster address map.
pub fn reserve_loopback_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    // Hold all listeners before dropping any so the same port is never
    // handed out twice.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

/// A TCP fabric whose `n` endpoints all live in this process, wired over
/// loopback sockets. See the module docs.
pub type TcpTransport = Fabric<TcpEndpoint>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, read_frame, write_frame};
    use crate::transport::Transport;

    /// The round loop's drain barrier, with nothing in its gap.
    fn drain_barrier(ep: &mut TcpEndpoint) {
        ep.arrive(BarrierKind::Drain);
        ep.wait(BarrierKind::Drain).unwrap();
    }

    #[test]
    fn loopback_delivery_canonical_order_and_stats() {
        let mut net = TcpTransport::loopback(3).unwrap();
        Transport::send(&mut net, 2, 0, vec![1, 2, 3]);
        Transport::send(&mut net, 1, 0, vec![4]);
        Transport::send(&mut net, 2, 0, vec![5, 5]);
        net.flush();
        let inbox = Transport::recv(&mut net, 0);
        let order: Vec<(usize, usize)> = inbox.iter().map(|e| (e.from, e.bytes.len())).collect();
        assert_eq!(order, vec![(1, 1), (2, 3), (2, 2)]);

        // Payload-only accounting, both ends.
        assert_eq!(net.stats(0).bytes_in, 6);
        assert_eq!(net.stats(0).msgs_in, 3);
        assert_eq!(net.stats(2).bytes_out, 5);
        assert_eq!(net.stats(2).msgs_out, 2);
        assert_eq!(net.stats(1).bytes_out, 1);

        // The wire itself carried more (headers + barrier tokens).
        let (wire_out, _) = net.endpoints[2].wire_traffic();
        assert!(wire_out > 5);
    }

    #[test]
    fn epoch_coalesces_into_one_syscall_per_peer() {
        let mut net = TcpTransport::loopback(2).unwrap();
        // An epoch's worth of small frames plus the barrier token leave
        // in a single write per peer — the coalescing headline.
        for _ in 0..16 {
            Transport::send(&mut net, 0, 1, vec![7; 32]);
        }
        net.flush();
        assert_eq!(
            net.endpoints[0].write_syscalls(),
            1,
            "16 data frames + barrier must coalesce into one write"
        );
        assert_eq!(Transport::recv(&mut net, 1).len(), 16);
    }

    #[test]
    fn endpoint_sync_guarantees_delivery() {
        let net = TcpTransport::loopback(2).unwrap();
        let mut eps = net.into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
            b.try_sync().unwrap();
            // After the barrier, a's pre-barrier send must be here.
            let inbox = Endpoint::recv(&mut b);
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].bytes, vec![7; 1000]);
            Endpoint::send(&mut b, 0, vec![9]);
            b.try_sync().unwrap();
            b.stats()
        });
        Endpoint::send(&mut a, 1, vec![7; 1000]);
        a.try_sync().unwrap();
        a.try_sync().unwrap();
        let inbox = Endpoint::recv(&mut a);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].bytes, vec![9]);
        let b_stats = handle.join().unwrap();
        assert_eq!(b_stats.bytes_in, 1000);
        assert_eq!(b_stats.bytes_out, 1);
        assert_eq!(a.stats().bytes_out, 1000);
        assert_eq!(a.stats().bytes_in, 1);
    }

    #[test]
    fn distributed_bootstrap_connects_full_mesh() {
        let addrs = reserve_loopback_addrs(3).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    let mut ep =
                        TcpEndpoint::connect_among(id, &addrs, &[0, 1, 2], Duration::from_secs(10))
                            .unwrap();
                    // Everyone greets everyone, then proves the barrier
                    // delivered all greetings.
                    for peer in 0..3 {
                        if peer != id {
                            Endpoint::send(&mut ep, peer, vec![id as u8]);
                        }
                    }
                    ep.try_sync().unwrap();
                    let inbox = Endpoint::recv(&mut ep);
                    let senders: Vec<usize> = inbox.iter().map(|e| e.from).collect();
                    let expected: Vec<usize> = (0..3).filter(|&p| p != id).collect();
                    assert_eq!(senders, expected);
                    ep.stats()
                })
            })
            .collect();
        for h in handles {
            let stats = h.join().unwrap();
            assert_eq!(stats.msgs_out, 2);
            assert_eq!(stats.msgs_in, 2);
            assert_eq!(stats.bytes_in, 2);
        }
    }

    #[test]
    fn single_node_fabric_is_trivial() {
        let mut net = TcpTransport::loopback(1).unwrap();
        net.flush();
        assert!(Transport::recv(&mut net, 0).is_empty());
        assert_eq!(net.stats(0), TrafficStats::default());
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let net = TcpTransport::loopback(2).unwrap();
        let mut eps = net.into_endpoints();
        let mut a = eps.remove(0);
        Endpoint::send(&mut a, 0, vec![1]);
    }

    #[test]
    fn joiner_is_admitted_into_mesh_barrier_and_mailboxes() {
        // 2 founders (ids 0, 1) mesh among themselves; node 2 joins at
        // "epoch 1": founders admit via view_sync, the joiner dials in
        // with a Join frame carrying evidence, everyone barrier-syncs
        // together afterwards and data flows both ways. Finally node 0
        // "leaves" and the survivors' barrier keeps working.
        // Every thread follows the deployed node-loop shape per epoch:
        // [transition: view_sync + view barrier] → recv → drain barrier
        // → send → round barrier.
        let addrs = reserve_loopback_addrs(3).unwrap();
        let founders = vec![0usize, 1];
        let founder = |id: usize, addrs: Vec<SocketAddr>| {
            let founders = founders.clone();
            std::thread::spawn(move || {
                let mut ep =
                    TcpEndpoint::connect_among(id, &addrs, &founders, Duration::from_secs(10))
                        .unwrap();
                // Epoch 0: one round between the founders only.
                assert!(Endpoint::recv(&mut ep).is_empty());
                drain_barrier(&mut ep);
                Endpoint::send(&mut ep, 1 - id, vec![id as u8]);
                ep.try_sync().unwrap();

                // Epoch 1: admit the joiner, check its evidence, view
                // barrier (where a sponsor's bootstrap would travel).
                ep.view_sync(1, &[2], &[]).unwrap();
                assert_eq!(ep.join_evidence(2).as_deref(), Some(&b"quote"[..]));
                assert!(ep.join_evidence(2).is_none(), "evidence drains");
                ep.try_sync().unwrap();
                assert_eq!(Endpoint::recv(&mut ep).len(), 1, "epoch-0 round");
                drain_barrier(&mut ep);
                Endpoint::send(&mut ep, 2, vec![10 + id as u8]);
                ep.try_sync().unwrap();

                // Epoch 2: node 0 departs gracefully before any barrier;
                // node 1 retires it and continues with the joiner.
                if id == 0 {
                    return ep.stats();
                }
                ep.view_sync(2, &[], &[0]).unwrap();
                ep.try_sync().unwrap();
                let from_joiner = Endpoint::recv(&mut ep);
                assert_eq!(from_joiner.len(), 1);
                assert_eq!(from_joiner[0].from, 2);
                drain_barrier(&mut ep);
                Endpoint::send(&mut ep, 2, vec![99]);
                ep.try_sync().unwrap();
                ep.stats()
            })
        };
        let f0 = founder(0, addrs.clone());
        let f1 = founder(1, addrs.clone());

        let joiner = std::thread::spawn({
            let addrs = addrs.clone();
            move || {
                let mut ep = TcpEndpoint::connect_as_joiner(
                    2,
                    &addrs,
                    1,
                    &[0, 1],
                    &[],
                    b"quote".to_vec(),
                    Duration::from_secs(10),
                )
                .unwrap();
                // Epoch 1, from the view barrier onward.
                ep.try_sync().unwrap();
                assert!(Endpoint::recv(&mut ep).is_empty());
                drain_barrier(&mut ep);
                Endpoint::send(&mut ep, 0, vec![42]);
                Endpoint::send(&mut ep, 1, vec![42]);
                ep.try_sync().unwrap();

                // Epoch 2: node 0 left; rounds continue with node 1.
                ep.view_sync(2, &[], &[0]).unwrap();
                ep.try_sync().unwrap();
                let inbox = Endpoint::recv(&mut ep);
                let got: Vec<(usize, u8)> = inbox.iter().map(|e| (e.from, e.bytes[0])).collect();
                assert_eq!(got, vec![(0, 10), (1, 11)]);
                drain_barrier(&mut ep);
                ep.try_sync().unwrap();

                // Epoch 3 drain: node 1's epoch-2 message.
                let inbox = Endpoint::recv(&mut ep);
                assert_eq!(inbox.len(), 1);
                assert_eq!(inbox[0].bytes, vec![99]);
                ep.stats()
            }
        });

        let s0 = f0.join().unwrap();
        let s1 = f1.join().unwrap();
        let s2 = joiner.join().unwrap();
        // Payload accounting covers the join-era traffic; control frames
        // (join/welcome/barrier) stay out of it.
        assert_eq!(s0.msgs_out, 2); // founder round + to joiner
        assert_eq!(s1.msgs_out, 3); // + post-leave send
        assert_eq!(s2.msgs_out, 2);
        assert_eq!(s2.msgs_in, 3);
    }

    #[test]
    fn commitments_travel_control_plane_and_drain() {
        let net = TcpTransport::loopback(3).unwrap();
        let mut eps = net.into_endpoints();
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let payload_before = a.stats();
        let (wire_before, _) = b.wire_traffic();

        // Node 1 and node 2 commit and flush (barrier-free — a single
        // thread cannot serve three barriers); node 0 drains both,
        // connection-attributed, with payload stats untouched.
        Endpoint::send_commitment(&mut b, 4, [0x11; 32], [0x22; 32]);
        Endpoint::send_commitment(&mut c, 4, [0x33; 32], [0x44; 32]);
        b.flush_sends().unwrap();
        c.flush_sends().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            got.extend(Endpoint::take_commitments(&mut a));
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut senders: Vec<usize> = got.iter().map(|pc| pc.from).collect();
        senders.sort_unstable();
        assert_eq!(senders, vec![1, 2]);
        let from1 = got.iter().find(|pc| pc.from == 1).unwrap();
        assert_eq!(from1.epoch, 4);
        assert_eq!(from1.digest, [0x11; 32]);
        assert_eq!(from1.tag, [0x22; 32]);
        assert!(
            Endpoint::take_commitments(&mut a).is_empty(),
            "drained on first take"
        );

        // Payload accounting unchanged; the wire carried the frames.
        assert_eq!(a.stats(), payload_before);
        let (wire_after, _) = b.wire_traffic();
        assert!(wire_after >= wire_before + (HEADER_LEN as u64 + 72) * 2);
    }

    #[test]
    fn barrier_surfaces_peer_death_as_transport_error() {
        let net = TcpTransport::loopback(2).unwrap();
        let mut eps = net.into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b); // peer vanishes without serving the barrier
        let err = a.try_sync().expect_err("dead peer must surface");
        match err {
            TransportError::PeerLost { peer, .. } => assert_eq!(peer, 1),
            other => panic!("expected PeerLost, got {other}"),
        }
    }

    #[test]
    fn invalid_frames_surface_reason_not_panic() {
        // A hostile peer writes garbage: the poller records the reason
        // and the next barrier reports it instead of panicking.
        let addrs = reserve_loopback_addrs(2).unwrap();
        let victim = {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let mut ep =
                    TcpEndpoint::connect_among(0, &addrs, &[0, 1], Duration::from_secs(10))
                        .unwrap();
                ep.try_sync().expect_err("hostile peer must surface")
            })
        };
        let hostile = std::thread::spawn(move || {
            let mut ep =
                TcpEndpoint::connect_among(1, &addrs, &[0, 1], Duration::from_secs(10)).unwrap();
            // Raw garbage straight onto the wire, then hang up. The
            // stream is non-blocking (reactor-attached); 41 bytes always
            // fit a fresh socket buffer.
            let conn = ep.conns[0].take().unwrap();
            write_frame(&mut &conn.stream, &Frame::Hello { from: 1 }).unwrap(); // ignored, legal
            (&conn.stream).write_all(&[0xFF; 32]).unwrap();
            let _ = conn.stream.shutdown(Shutdown::Both);
        });
        hostile.join().unwrap();
        let err = victim.join().unwrap();
        match err {
            TransportError::PeerLost { peer, detail } => {
                assert_eq!(peer, 1);
                assert!(detail.contains("invalid frame"), "detail: {detail}");
            }
            other => panic!("expected PeerLost, got {other}"),
        }
    }

    #[test]
    fn hub_sustains_512_concurrent_connections() {
        // The acceptance headline: one endpoint holding 512 live
        // connections on a single poller thread, barriers and data
        // flowing both ways.
        let n = 513;
        let mut net = TcpTransport::star(n).unwrap();
        for i in 1..n {
            Transport::send(&mut net, i, 0, vec![(i % 251) as u8]);
        }
        net.flush();
        let inbox = Transport::recv(&mut net, 0);
        assert_eq!(inbox.len(), n - 1);
        let senders: Vec<usize> = inbox.iter().map(|e| e.from).collect();
        assert_eq!(senders, (1..n).collect::<Vec<_>>(), "canonical order");

        // Fan-out: the hub answers every spoke through the same pool.
        for i in 1..n {
            Transport::send(&mut net, 0, i, vec![1, 2]);
        }
        net.flush();
        for i in 1..n {
            let inbox = Transport::recv(&mut net, i);
            assert_eq!(inbox.len(), 1, "spoke {i}");
            assert_eq!(inbox[0].bytes, vec![1, 2]);
        }
        assert_eq!(net.stats(0).msgs_in, (n - 1) as u64);
        assert_eq!(net.stats(0).msgs_out, (n - 1) as u64);
    }

    /// Syscall-budget regression gate: a 1000-spoke hub must spend
    /// exactly **one `write(2)` per peer per epoch** — data frames and
    /// the barrier token coalesced — no matter how many messages the
    /// epoch carries. A regression here (per-frame writes, split
    /// barrier) multiplies the hub's syscall bill by the message count
    /// and shows up long before wall-clock does.
    #[test]
    #[ignore = "opens ~2k sockets; run explicitly (CI transport-perf job)"]
    fn syscall_budget_one_write_per_peer_per_epoch() {
        let n = 1001;
        let mut net = TcpTransport::star(n).unwrap();
        let mut last = net.endpoints[0].write_syscalls();
        assert_eq!(last, 0, "bootstrap must not charge the hub's budget");
        for epoch in 0..3u8 {
            // A fan-out epoch: several small frames to every spoke, then
            // the barrier.
            for i in 1..n {
                Transport::send(&mut net, 0, i, vec![epoch; 48]);
                Transport::send(&mut net, 0, i, vec![epoch; 16]);
            }
            net.flush();
            let now = net.endpoints[0].write_syscalls();
            assert_eq!(
                now - last,
                (n - 1) as u64,
                "epoch {epoch}: hub wrote more than once per peer"
            );
            last = now;
            for i in 1..n {
                assert_eq!(Transport::recv(&mut net, i).len(), 2, "spoke {i}");
            }
        }
    }

    #[test]
    fn slow_peer_does_not_stall_other_links() {
        // Raw-socket spokes so one of them can refuse to read: the hub
        // keeps its backlog staged (partial writes against a full
        // kernel buffer) while the fast link stays at full service.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw_pair = || {
            let dialed = TcpStream::connect(addr).unwrap();
            let (accepted, _) = listener.accept().unwrap();
            (accepted, dialed)
        };
        let (hub_slow, slow_end) = raw_pair();
        let (hub_fast, fast_end) = raw_pair();
        let mut hub = TcpEndpoint::new(0, 3);
        hub.attach(1, hub_slow).unwrap();
        hub.attach(2, hub_fast).unwrap();

        // Far more than loopback's socket buffers hold: the tail stays
        // staged in the hub's per-peer buffer.
        let chunk = vec![0xABu8; 64 * 1024];
        let total = 256;
        for _ in 0..total {
            hub.send(1, chunk.clone());
        }
        // The slow link is clogged…
        assert!(
            !hub.drain_staged(Instant::now() + Duration::from_millis(200)),
            "slow peer must leave a backlog"
        );
        // …yet the fast link delivers immediately through the same
        // endpoint.
        hub.send(2, b"ping".to_vec());
        let _ = hub.drain_staged(Instant::now() + Duration::from_millis(200));
        let got = read_frame(&mut &fast_end).unwrap().unwrap();
        assert_eq!(
            got,
            Frame::Data {
                from: 0,
                payload: b"ping".to_vec()
            }
        );

        // Once the slow reader drains, the backlog completes and every
        // byte frames correctly across the partial-write splits.
        let reader = std::thread::spawn(move || {
            let mut seen = 0usize;
            let mut reader = io::BufReader::new(slow_end);
            while seen < total {
                match read_frame(&mut reader).unwrap() {
                    Some(Frame::Data { payload, .. }) => {
                        assert_eq!(payload.len(), 64 * 1024);
                        seen += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            seen
        });
        assert!(
            hub.drain_staged(Instant::now() + Duration::from_secs(30)),
            "backlog must drain once the peer reads"
        );
        assert_eq!(reader.join().unwrap(), total);
    }

    #[test]
    fn outbound_cap_applies_backpressure_then_releases() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialed = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut hub = TcpEndpoint::new(0, 2);
        hub.attach(1, accepted).unwrap();
        hub.set_outbound_cap(128 * 1024);

        // A reader that starts late: sends beyond the cap must block
        // until it comes up, then complete.
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let mut seen = 0usize;
            let mut reader = io::BufReader::new(dialed);
            while let Ok(Some(Frame::Data { .. })) = read_frame(&mut reader) {
                seen += 1;
            }
            seen
        });
        let sent = 128;
        for _ in 0..sent {
            hub.send(1, vec![0x5A; 64 * 1024]);
        }
        assert!(hub.drain_staged(Instant::now() + Duration::from_secs(30)));
        drop(hub); // FIN → the reader's loop ends
        assert_eq!(reader.join().unwrap(), sent);
    }

    #[test]
    fn partial_writes_preserve_framing() {
        // A writer that accepts tiny, ragged chunks — every frame
        // boundary lands mid-write — must still produce a byte stream
        // the assembler decodes exactly.
        struct Ragged {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for Ragged {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let take = buf.len().min(7);
                self.out.extend_from_slice(&buf[..take]);
                Ok(take)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut out = OutBuf::default();
        let frames: Vec<Frame> = (0..20)
            .map(|i| Frame::Data {
                from: i,
                payload: vec![i as u8; i * 3],
            })
            .collect();
        for f in &frames {
            encode_frame_into(f, &mut out.buf);
        }
        let expected: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        let mut sink = Ragged {
            out: Vec::new(),
            calls: 0,
        };
        let mut syscalls = 0u64;
        while !out.try_flush(&mut sink, &mut syscalls).unwrap() {}
        assert_eq!(sink.out, expected, "byte stream intact across splits");
        assert!(syscalls > frames.len() as u64, "writes really were ragged");

        let mut asm = crate::frame::FrameAssembler::new();
        asm.extend(&sink.out);
        for f in &frames {
            assert_eq!(asm.next_frame().unwrap().as_ref(), Some(f));
        }
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn recv_wait_blocks_until_delivery() {
        let net = TcpTransport::loopback(2).unwrap();
        let mut eps = net.into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();

        // Nothing in flight: the wait times out empty.
        assert!(b.recv_wait(Duration::from_millis(20)).is_empty());

        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            Endpoint::send(&mut a, 1, vec![7]);
            a.flush_sends().unwrap();
            a
        });
        // Blocks across the sender's delay, wakes on arrival (no
        // barrier involved — this is the bounded-staleness path).
        let inbox = b.recv_wait(Duration::from_secs(10));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].bytes, vec![7]);
        let a = sender.join().unwrap();
        drop(a);
    }
}
