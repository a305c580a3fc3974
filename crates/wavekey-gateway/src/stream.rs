//! Simulated non-blocking byte streams with readiness.
//!
//! [`SimNet`] is an in-process listener: [`SimNet::connect`] creates a
//! bounded duplex byte pipe and queues the server end for
//! [`SimNet::accept`]. Streams behave like non-blocking sockets —
//! partial reads and writes, would-block backpressure with waker
//! registration on both sides, and EOF-after-drain close semantics — so
//! the gateway's framing, flushing, and eviction logic runs against the
//! same edge cases a kernel socket would produce, minus the
//! nondeterminism.
//!
//! [`StreamFaults`] composes the repo's seeded fault-injection idiom
//! (`wavekey_core::fault`) at the **stream** level: split reads (one
//! frame arriving as many chunks), stalled writes (a send window going
//! quiet for a few polls), and truncate-and-close (a peer dying mid
//! frame). Decisions are pure functions of `(seed, connection, lane,
//! op index)` — replaying a seed replays the exact fault schedule.
//!
//! Every connection also carries the session's frame channel: a
//! [`Link`] shared by both ends. Each end stamps the frames it writes
//! with its logical clock (`SimStream::depart`) and hands the frames it
//! decodes to the link (`SimStream::arrive`, then `next_frame`), which
//! pairs them with their stamps and applies the net's [`Adversary`]
//! ([`SimNet::with_adversary`]) and the session's ARQ. A net with no
//! adversary is the passive channel. The client (connecting) end is the
//! mobile, the accepted end the server.
//!
//! Both ends of a connection, and every clone of a listener, live on
//! the executor's one thread, so they share state through
//! `Rc<RefCell<_>>`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use wavekey_core::agreement::{AgreementError, RetryPolicy};
use wavekey_core::channel::{Adversary, Direction, MessageKind};
use wavekey_core::proto::{Decoder, Frame, Link};
use wavekey_obs::EventScope;

/// Stream-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The stream (or its peer) is closed.
    Closed,
    /// The listener refused the connection (shutdown).
    Refused,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Closed => write!(f, "stream closed"),
            StreamError::Refused => write!(f, "connection refused"),
        }
    }
}

impl std::error::Error for StreamError {}

/// SplitMix64 — the same generator `wavekey_core::fault` seeds its
/// schedules with (kept in sync by the gateway's determinism tests).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded stream-level fault plan, attached to a connection at
/// [`SimNet::connect_with`] time. Probabilities are per mille per IO
/// operation; `0` everywhere (the default) is a clean stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamFaults {
    /// Seed for the whole connection's schedule.
    pub seed: u64,
    /// P(a read returns fewer bytes than available), per mille.
    pub split_per_mille: u16,
    /// P(a write poll stalls), per mille.
    pub stall_per_mille: u16,
    /// How many polls a stall lasts once triggered.
    pub stall_polls: u32,
    /// P(a write is truncated and the stream closed), per mille —
    /// **lossy**: bytes are dropped and the session will be evicted.
    pub truncate_per_mille: u16,
}

impl StreamFaults {
    /// No faults.
    pub fn none() -> StreamFaults {
        StreamFaults::default()
    }

    /// Non-lossy turbulence: aggressive read splitting and write
    /// stalling. Every byte still arrives, so sessions must complete
    /// with bit-identical keys.
    pub fn lossless(seed: u64) -> StreamFaults {
        StreamFaults {
            seed,
            split_per_mille: 450,
            stall_per_mille: 200,
            stall_polls: 3,
            truncate_per_mille: 0,
        }
    }

    /// Lossless turbulence plus rare truncate-and-close — peers that
    /// die mid-frame. Their sessions must be evicted, never produce a
    /// divergent key.
    pub fn lossy(seed: u64) -> StreamFaults {
        StreamFaults { truncate_per_mille: 25, ..StreamFaults::lossless(seed) }
    }

    /// The raw decision hash for (`lane`, `op`).
    fn roll(&self, lane: u64, op: u64, salt: u64) -> u64 {
        splitmix64(
            self.seed
                ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ op.wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ salt,
        )
    }

    fn fires(&self, per_mille: u16, lane: u64, op: u64, salt: u64) -> bool {
        per_mille > 0 && self.roll(lane, op, salt) % 1000 < per_mille as u64
    }
}

/// One direction of a duplex connection.
#[derive(Debug)]
struct Pipe {
    buf: VecDeque<u8>,
    cap: usize,
    /// Writer closed (reader sees EOF once `buf` drains) — also set by
    /// a full stream close, failing subsequent writes.
    closed: bool,
    read_waker: Option<Waker>,
    write_waker: Option<Waker>,
    read_ops: u64,
    write_ops: u64,
    stall_left: u32,
    /// Fault lane: `conn_id * 2 + direction`.
    lane: u64,
}

impl Pipe {
    fn new(cap: usize, lane: u64) -> Pipe {
        Pipe {
            buf: VecDeque::new(),
            cap,
            closed: false,
            read_waker: None,
            write_waker: None,
            read_ops: 0,
            write_ops: 0,
            stall_left: 0,
            lane,
        }
    }

    fn wake_reader(&mut self) {
        if let Some(w) = self.read_waker.take() {
            w.wake();
        }
    }

    fn wake_writer(&mut self) {
        if let Some(w) = self.write_waker.take() {
            w.wake();
        }
    }

    /// How many of the buffered bytes one read takes: all of them,
    /// unless a split fault shortens it. Counts the read.
    fn read_len(&mut self, faults: StreamFaults) -> usize {
        self.read_ops += 1;
        let n = self.buf.len();
        if n > 1 && faults.fires(faults.split_per_mille, self.lane, self.read_ops, 0x51) {
            1 + (faults.roll(self.lane, self.read_ops, 0x52) % (n as u64 - 1).max(1)) as usize
        } else {
            n
        }
    }
}

#[derive(Debug)]
struct Duplex {
    /// Client → server bytes.
    a2b: Pipe,
    /// Server → client bytes.
    b2a: Pipe,
    faults: StreamFaults,
    link: Link,
    channel: Option<Rc<Channel>>,
}

/// The adversary every link of a net answers to, and the frames their
/// recovery put back on the wire.
struct Channel {
    adversary: RefCell<Box<dyn Adversary>>,
    retransmits: Cell<u64>,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel").field("retransmits", &self.retransmits.get()).finish()
    }
}

/// One end of a simulated connection.
#[derive(Debug)]
pub struct SimStream {
    duplex: Rc<RefCell<Duplex>>,
    /// True for the connecting (client) end.
    a_side: bool,
    conn_id: u64,
}

impl SimStream {
    /// The listener-assigned connection id (same value on both ends).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Reads *some* bytes straight into `sink` (the gateway's sinks are
    /// frame decoders, so no read buffer sits between pipe and decoder):
    /// resolves with `Ok(n > 0)` on data, as many bytes as the pipe
    /// holds unless a split fault shortens the read, `Ok(0)` on EOF
    /// (peer closed and the pipe drained), and waits while the pipe is
    /// empty but open.
    pub fn read_into<'a, S: ReadSink>(&'a self, sink: &'a mut S) -> ReadInto<'a, S> {
        ReadInto { stream: self, sink }
    }

    /// Writes *some* prefix of `bytes`: resolves with `Ok(n)` on first
    /// progress, `Err(Closed)` when the stream is closed, and waits
    /// while the pipe is full (or a stall fault holds the window shut).
    pub fn write_some<'a>(&'a self, bytes: &'a [u8]) -> WriteSome<'a> {
        WriteSome { stream: self, bytes }
    }

    /// Closes both directions: the peer reads EOF after draining
    /// buffered bytes, and all writes fail with [`StreamError::Closed`].
    pub fn close(&self) {
        let mut dx = self.duplex.borrow_mut();
        dx.a2b.closed = true;
        dx.b2a.closed = true;
        dx.a2b.wake_reader();
        dx.a2b.wake_writer();
        dx.b2a.wake_reader();
        dx.b2a.wake_writer();
    }

    fn sends(&self) -> Direction {
        if self.a_side {
            Direction::MobileToServer
        } else {
            Direction::ServerToMobile
        }
    }

    fn receives(&self) -> Direction {
        if self.a_side {
            Direction::ServerToMobile
        } else {
            Direction::MobileToServer
        }
    }

    /// Stamps the next frame this end writes with its departure, the
    /// sender's logical `clock` ([`Link::depart`]). Every frame written
    /// must be stamped, in write order: the peer refuses frames without
    /// a stamp.
    pub(crate) fn depart(&self, clock: f64) {
        self.duplex.borrow_mut().link.depart(self.sends(), clock);
    }

    /// The backoff this end owes its clock for resends the peer's end of
    /// the link ran on its behalf ([`Link::owed`]); charge it before
    /// handling the next frame.
    pub(crate) fn owed(&self) -> f64 {
        self.duplex.borrow_mut().link.owed(self.sends())
    }

    /// Hands a frame this end decoded to the connection's link, under the
    /// net's adversary ([`Link::arrive`]).
    ///
    /// # Errors
    ///
    /// [`AgreementError::Wire`] for an unstamped frame, or one damaged
    /// past what `retry` recovers.
    pub(crate) fn arrive(
        &self,
        frame: Frame,
        delay: f64,
        retry: &RetryPolicy,
        events: &EventScope,
    ) -> Result<(), AgreementError> {
        let dir = self.receives();
        let mut dx = self.duplex.borrow_mut();
        let Duplex { link, channel, .. } = &mut *dx;
        let Some(channel) = channel.as_deref() else {
            return link.arrive(dir, frame, delay, retry, None, events);
        };
        let before = link.retransmits();
        let mut adversary = channel.adversary.borrow_mut();
        let result = link.arrive(dir, frame, delay, retry, Some(&mut **adversary), events);
        channel.retransmits.set(channel.retransmits.get() + link.retransmits() - before);
        result
    }

    /// The next frame the link holds for this end, with its arrival time,
    /// given the kind the machine `expected` ([`Link::next`]).
    pub(crate) fn next_frame(
        &self,
        expected: Option<MessageKind>,
        events: &EventScope,
    ) -> Option<(Frame, f64)> {
        self.duplex.borrow_mut().link.next(self.receives(), expected, events)
    }

    /// Releases a frame the adversary reordered for this end
    /// ([`Link::release`]); call it once everything read is handled.
    pub(crate) fn release(&self, events: &EventScope) {
        self.duplex.borrow_mut().link.release(self.receives(), events);
    }
}

/// Where [`SimStream::read_into`] puts the bytes it reads.
pub trait ReadSink {
    /// Appends `bytes`, which follow every byte put before them.
    fn put(&mut self, bytes: &[u8]);
}

impl ReadSink for Decoder {
    fn put(&mut self, bytes: &[u8]) {
        self.push(bytes);
    }
}

impl ReadSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Future returned by [`SimStream::read_into`].
pub struct ReadInto<'a, S> {
    stream: &'a SimStream,
    sink: &'a mut S,
}

impl<S: ReadSink> Future for ReadInto<'_, S> {
    type Output = Result<usize, StreamError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut dx = this.stream.duplex.borrow_mut();
        let faults = dx.faults;
        let pipe = if this.stream.a_side { &mut dx.b2a } else { &mut dx.a2b };
        if pipe.buf.is_empty() {
            if pipe.closed {
                return Poll::Ready(Ok(0));
            }
            pipe.read_waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let n = pipe.read_len(faults);
        let (front, back) = pipe.buf.as_slices();
        let k = n.min(front.len());
        this.sink.put(&front[..k]);
        this.sink.put(&back[..n - k]);
        pipe.buf.drain(..n);
        if pipe.buf.is_empty() {
            // A drained pipe holds no buffer until the next write.
            pipe.buf = VecDeque::new();
        }
        pipe.wake_writer();
        Poll::Ready(Ok(n))
    }
}

/// Future returned by [`SimStream::write_some`].
pub struct WriteSome<'a> {
    stream: &'a SimStream,
    bytes: &'a [u8],
}

impl Future for WriteSome<'_> {
    type Output = Result<usize, StreamError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut dx = this.stream.duplex.borrow_mut();
        let faults = dx.faults;
        let pipe = if this.stream.a_side { &mut dx.a2b } else { &mut dx.b2a };
        if pipe.closed {
            return Poll::Ready(Err(StreamError::Closed));
        }
        if this.bytes.is_empty() {
            return Poll::Ready(Ok(0));
        }
        // A stalled send window: the poll fails but re-arms itself, so
        // the stall resolves after `stall_polls` scheduler rounds rather
        // than deadlocking the connection.
        if pipe.stall_left > 0 {
            pipe.stall_left -= 1;
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
        pipe.write_ops += 1;
        if faults.fires(faults.stall_per_mille, pipe.lane, pipe.write_ops, 0x57) {
            pipe.stall_left = faults.stall_polls;
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
        if faults.fires(faults.truncate_per_mille, pipe.lane, pipe.write_ops, 0x71) {
            // The peer dies mid-frame: a prefix lands, the rest is lost,
            // and the stream closes in both directions.
            let keep = (faults.roll(pipe.lane, pipe.write_ops, 0x72)
                % this.bytes.len() as u64) as usize;
            let keep = keep.min(pipe.cap - pipe.buf.len());
            pipe.buf.extend(&this.bytes[..keep]);
            pipe.closed = true;
            pipe.wake_reader();
            drop(dx);
            this.stream.close();
            return Poll::Ready(Ok(keep));
        }
        let free = pipe.cap - pipe.buf.len();
        if free == 0 {
            pipe.write_waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let n = free.min(this.bytes.len());
        pipe.buf.extend(&this.bytes[..n]);
        pipe.wake_reader();
        Poll::Ready(Ok(n))
    }
}

#[derive(Debug)]
struct NetInner {
    backlog: VecDeque<SimStream>,
    accept_waker: Option<Waker>,
    closed: bool,
    stream_cap: usize,
    next_conn: u64,
    channel: Option<Rc<Channel>>,
}

/// An in-process listener creating [`SimStream`] pairs.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Rc<RefCell<NetInner>>,
}

impl SimNet {
    /// A listener whose streams buffer up to `stream_cap` bytes per
    /// direction, over the passive channel.
    pub fn new(stream_cap: usize) -> SimNet {
        SimNet {
            inner: Rc::new(RefCell::new(NetInner {
                backlog: VecDeque::new(),
                accept_waker: None,
                closed: false,
                stream_cap,
                next_conn: 0,
                channel: None,
            })),
        }
    }

    /// Like [`SimNet::new`], but every frame of every connection crosses
    /// `adversary` (one instance for the whole net, so a
    /// [`wavekey_core::FaultPlan`]'s occurrence counters span sessions).
    pub fn with_adversary(stream_cap: usize, adversary: impl Adversary + 'static) -> SimNet {
        let net = SimNet::new(stream_cap);
        net.inner.borrow_mut().channel = Some(Rc::new(Channel {
            adversary: RefCell::new(Box::new(adversary)),
            retransmits: Cell::new(0),
        }));
        net
    }

    /// Frames the links' recovery put back on the wire so far (drop
    /// retransmissions and NAK re-sends; always 0 without an adversary).
    pub fn retransmits(&self) -> u64 {
        self.inner.borrow().channel.as_ref().map_or(0, |c| c.retransmits.get())
    }

    /// Connects a clean stream.
    ///
    /// # Errors
    ///
    /// [`StreamError::Refused`] once the listener closed.
    pub fn connect(&self) -> Result<SimStream, StreamError> {
        self.connect_with(StreamFaults::none())
    }

    /// Connects a stream with a seeded fault plan on its pipes.
    ///
    /// # Errors
    ///
    /// [`StreamError::Refused`] once the listener closed.
    pub fn connect_with(&self, faults: StreamFaults) -> Result<SimStream, StreamError> {
        let mut net = self.inner.borrow_mut();
        if net.closed {
            return Err(StreamError::Refused);
        }
        net.next_conn += 1;
        let conn_id = net.next_conn;
        let duplex = Rc::new(RefCell::new(Duplex {
            a2b: Pipe::new(net.stream_cap, conn_id * 2),
            b2a: Pipe::new(net.stream_cap, conn_id * 2 + 1),
            faults,
            link: Link::new(),
            channel: net.channel.clone(),
        }));
        let client = SimStream { duplex: Rc::clone(&duplex), a_side: true, conn_id };
        let server = SimStream { duplex, a_side: false, conn_id };
        net.backlog.push_back(server);
        if let Some(w) = net.accept_waker.take() {
            w.wake();
        }
        Ok(client)
    }

    /// Accepts the next queued connection; after [`SimNet::close`] the
    /// backlog drains and then accepts fail with [`StreamError::Closed`].
    pub fn accept(&self) -> Accept {
        Accept { net: self.clone() }
    }

    /// Closes the listener: new connects are refused immediately;
    /// already-queued connections still reach [`SimNet::accept`] (the
    /// acceptor decides their fate — the gateway rejects them when
    /// draining for shutdown).
    pub fn close(&self) {
        let mut net = self.inner.borrow_mut();
        net.closed = true;
        if let Some(w) = net.accept_waker.take() {
            w.wake();
        }
    }
}

/// Future returned by [`SimNet::accept`].
pub struct Accept {
    net: SimNet,
}

impl Future for Accept {
    type Output = Result<SimStream, StreamError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut net = self.net.inner.borrow_mut();
        if let Some(stream) = net.backlog.pop_front() {
            return Poll::Ready(Ok(stream));
        }
        if net.closed {
            return Poll::Ready(Err(StreamError::Closed));
        }
        net.accept_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn bytes_flow_with_partial_writes_under_a_tiny_cap() {
        let net = SimNet::new(4); // 4-byte pipe: every write is partial
        let mut exec = Executor::new();
        let client = net.connect().unwrap();
        let payload: Vec<u8> = (0u8..32).collect();
        let received = Rc::new(RefCell::new(Vec::new()));

        {
            let received = Rc::clone(&received);
            let accept = net.accept();
            exec.spawn(async move {
                let server = accept.await.unwrap();
                let mut buf = Vec::new();
                while server.read_into(&mut buf).await.unwrap() > 0 {}
                *received.borrow_mut() = buf;
            });
        }
        {
            let payload = payload.clone();
            exec.spawn(async move {
                let mut at = 0;
                while at < payload.len() {
                    let n = client.write_some(&payload[at..]).await.unwrap();
                    assert!(n > 0 && n <= 4);
                    at += n;
                }
                client.close();
            });
        }
        exec.run();
        assert_eq!(*received.borrow(), payload);
    }

    #[test]
    fn close_gives_eof_after_drain_and_fails_writes() {
        let net = SimNet::new(64);
        let mut exec = Executor::new();
        let client = net.connect().unwrap();
        let accept = net.accept();
        exec.spawn(async move {
            let server = accept.await.unwrap();
            server.write_some(b"tail").await.unwrap();
            server.close();
            assert_eq!(server.write_some(b"x").await, Err(StreamError::Closed));
        });
        let saw = Rc::new(RefCell::new(Vec::new()));
        {
            let saw = Rc::clone(&saw);
            exec.spawn(async move {
                let mut buf = Vec::new();
                while client.read_into(&mut buf).await.unwrap() > 0 {}
                *saw.borrow_mut() = buf;
                // Buffered bytes arrived before the EOF.
                assert_eq!(client.write_some(b"y").await, Err(StreamError::Closed));
            });
        }
        exec.run();
        assert_eq!(*saw.borrow(), b"tail");
    }

    #[test]
    fn listener_refuses_after_close_but_drains_backlog() {
        let net = SimNet::new(64);
        let _queued = net.connect().unwrap();
        net.close();
        assert!(matches!(net.connect(), Err(StreamError::Refused)));
        let mut exec = Executor::new();
        let results = Rc::new(RefCell::new(Vec::new()));
        {
            let net = net.clone();
            let results = Rc::clone(&results);
            exec.spawn(async move {
                // Await first: a borrow held across the await would clash
                // with any other task touching `results` meanwhile.
                let first = net.accept().await.is_ok();
                results.borrow_mut().push(first);
                let second = net.accept().await.is_ok();
                results.borrow_mut().push(second);
            });
        }
        exec.run();
        // Queued-before-close accepted, then Closed.
        assert_eq!(*results.borrow(), vec![true, false]);
    }

    #[test]
    fn lossless_faults_deliver_every_byte_in_order() {
        // Split reads and stalled writes reshape timing, never content.
        let net = SimNet::new(16);
        let mut exec = Executor::new();
        let client = net.connect_with(StreamFaults::lossless(0xFA01)).unwrap();
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        let received = Rc::new(RefCell::new(Vec::new()));
        {
            let received = Rc::clone(&received);
            let accept = net.accept();
            exec.spawn(async move {
                let server = accept.await.unwrap();
                let mut buf = Vec::new();
                while server.read_into(&mut buf).await.unwrap() > 0 {}
                *received.borrow_mut() = buf;
            });
        }
        {
            let payload = payload.clone();
            exec.spawn(async move {
                let mut at = 0;
                while at < payload.len() {
                    at += client.write_some(&payload[at..]).await.unwrap();
                }
                client.close();
            });
        }
        exec.run();
        assert_eq!(*received.borrow(), payload);
    }

    #[test]
    fn fault_schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let net = SimNet::new(8);
            let mut exec = Executor::new();
            let client = net.connect_with(StreamFaults::lossy(seed)).unwrap();
            let received = Rc::new(RefCell::new(Vec::new()));
            {
                let received = Rc::clone(&received);
                let accept = net.accept();
                exec.spawn(async move {
                    let server = accept.await.unwrap();
                    let mut buf = Vec::new();
                    while let Ok(1..) = server.read_into(&mut buf).await {}
                    *received.borrow_mut() = buf;
                });
            }
            exec.spawn(async move {
                let payload = [0xAB_u8; 256];
                let mut at = 0;
                while at < payload.len() {
                    match client.write_some(&payload[at..]).await {
                        Ok(n) => at += n,
                        Err(_) => break,
                    }
                }
                client.close();
            });
            exec.run();
            let bytes = received.borrow().clone();
            bytes
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(8), run(8));
    }
}
