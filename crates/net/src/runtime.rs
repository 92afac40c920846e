//! The threaded TCP runtime: hosts one sans-IO [`Process`] over real
//! sockets.
//!
//! # Thread layout
//!
//! One [`TcpRuntime`] runs one process (a replica or a client) and owns:
//!
//! * a **protocol thread** — the only thread that touches the process. It
//!   owns a [`SansIo`] driver and a monotonic-clock timer wheel, drains one
//!   mailbox, and executes handler callbacks strictly serially, so the
//!   process sees the same single-threaded world it sees under the
//!   simulator;
//! * an **acceptor thread** (replicas only) — accepts inbound connections;
//!   each gets a reader thread that reads the hello frame identifying the
//!   dialer, hands the write half to the protocol thread and then decodes
//!   frames into the mailbox;
//! * one **writer thread per dialed peer** — owns the outbound connection
//!   to that peer, dials lazily with exponential backoff, re-dials (and
//!   re-sends its hello) whenever a write fails, and spawns a reader on
//!   each fresh connection. The peer's current socket address is re-read
//!   from the shared [`PeerTable`] on every dial, so a peer that restarts
//!   on a new port is found without reconfiguration.
//!
//! # Write and read paths
//!
//! Every frame is built by one routine, `frame::append_msg_frame`, which
//! encodes the message straight into the destination buffer behind its
//! 4-byte length; a frame is never split across two syscalls.
//!
//! * **Peer sends.** The protocol thread encodes each frame into its own
//!   buffer and queues it to the peer's writer (at most `WRITER_QUEUE`
//!   frames; the rest are dropped and counted). A writer woken by one frame
//!   also takes every frame already queued behind it, up to `WRITE_BURST`
//!   bytes, and writes the burst with one `write_all`. [`PeerStats`] still
//!   counts frames and payload bytes, not writes.
//! * **Client replies.** All frames one callback sends to the same client
//!   are appended to that connection's buffer and written with one
//!   `write_all` when the callback's actions have been routed, in send
//!   order.
//! * **Reads.** Every reader wraps its socket in a `READ_BUFFER`-byte
//!   `BufReader`, so a burst of small frames costs one `read`. Each decoded
//!   frame is still handed to the protocol thread as its own mailbox entry.
//!
//! # Connection policy
//!
//! Node-to-node traffic always travels over the *sender's* dialed
//! connection: each replica dials every peer, writes only to sockets it
//! dialed, and treats inbound node connections as read-only. Clients never
//! listen; a node answers a client over the client's own inbound
//! connection, keyed by its hello. This keeps connection ownership
//! unambiguous (exactly one writer per socket) at the cost of two sockets
//! per node pair — the simulator models neither, see
//! `docs/architecture.md`.
//!
//! On shutdown every socket is shut down (`Shutdown::Both`) by the thread
//! that owns it: each writer its dialed connection, the protocol thread the
//! inbound ones. The readers at both ends of every connection then see EOF
//! and exit, so a shut-down runtime leaves no thread behind.
//!
//! # Time
//!
//! `ctx.now()` is the monotonic-clock duration since the runtime started,
//! in microseconds — the same [`Time`] axis the simulator uses, anchored at
//! process boot instead of at global virtual zero. Timers are kept in a
//! `BinaryHeap` and fire when the monotonic clock passes their deadline;
//! cancellation stays O(1) through the driver's [`TimerSlab`] generation
//! check, exactly as under the simulator.

use crate::frame;
use iss_messages::NetMsg;
use iss_runtime::{Action, Addr, Driver, Event, Process, SansIo};
use iss_types::{NodeId, Time, TimerId};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Shared node-id → socket-address table.
///
/// Writer threads re-read it on every dial, so restarting a node on a fresh
/// port only requires updating the table — every peer's reconnect loop picks
/// the new address up on its next attempt.
pub type PeerTable = Arc<RwLock<HashMap<NodeId, SocketAddr>>>;

/// Creates an empty peer table.
pub fn peer_table() -> PeerTable {
    Arc::new(RwLock::new(HashMap::new()))
}

/// Builds the hosted process. Runs *inside* the protocol thread, so the
/// process is free to hold thread-local handles (`Rc<dyn Storage>`,
/// `Rc<RefCell<dyn DeliverySink>>`) that could never cross threads
/// themselves.
pub type ProcessBuilder = Box<dyn FnOnce() -> Box<dyn Process<NetMsg>> + Send>;

/// Frames queued to one peer's writer thread beyond this bound are dropped:
/// a crashed or unreachable peer must not grow the sender's memory without
/// limit, and the protocols tolerate message loss by design (a recovering
/// replica catches up through the WAL / state-transfer path). Each drop is
/// counted in the peer's [`PeerStats`] and surfaced by a rate-limited
/// warning — loss is tolerated, but never silent.
const WRITER_QUEUE: usize = 4096;

/// A writer thread, woken by one frame, also takes every frame already
/// queued behind it until the burst reaches this many bytes, and writes the
/// burst with one `write_all`. A single larger frame is written alone.
const WRITE_BURST: usize = 64 << 10;

/// Read buffer of every connection's reader thread: a burst of small frames
/// costs one `read` instead of two per frame.
const READ_BUFFER: usize = 64 << 10;

/// Emit a dropped-frame warning on the first drop to a peer and then once
/// every this many drops (a saturated writer queue drops frames in bursts;
/// per-frame logging would melt stderr exactly when the node is busiest).
const DROP_WARN_EVERY: u64 = 1024;

/// Live statistics of one peer's outbound writer, shared between the
/// protocol thread (which enqueues), the writer thread (which drains and
/// writes) and any harness sampling them. All plain counters — no ordering
/// requirements beyond each counter being individually consistent, so
/// `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Frames currently queued to the writer thread.
    pub queue_depth: AtomicU64,
    /// Peak queue depth observed.
    pub max_queue_depth: AtomicU64,
    /// Frames dropped because the writer queue was full.
    pub dropped: AtomicU64,
    /// Successful dials (the first connect plus every reconnect).
    pub connects: AtomicU64,
    /// Frames successfully written to the socket (a burst of k frames
    /// written in one call counts k).
    pub frames_sent: AtomicU64,
    /// Payload bytes successfully written to the socket (length prefixes
    /// excluded).
    pub bytes_sent: AtomicU64,
}

impl PeerStats {
    fn note_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn note_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Live statistics of one [`TcpRuntime`]: mailbox depth plus one
/// [`PeerStats`] per dialed peer. Obtained from [`TcpHandle::stats`] and
/// safe to sample from any thread while the runtime runs.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Inputs currently queued to the protocol thread.
    pub mailbox_depth: AtomicU64,
    /// Peak mailbox depth observed.
    pub max_mailbox_depth: AtomicU64,
    /// Outbound writer statistics per dialed peer.
    pub peers: HashMap<NodeId, Arc<PeerStats>>,
}

/// The mailbox sender with depth accounting: every producer (acceptor,
/// readers, writer error paths) goes through [`MailboxTx::send`], the
/// protocol thread decrements after each receive, so `NetStats` always shows
/// how far the protocol thread has fallen behind its inputs.
#[derive(Clone)]
struct MailboxTx {
    tx: Sender<Input>,
    stats: Arc<NetStats>,
}

impl MailboxTx {
    /// Sends with depth accounting; the error (protocol thread gone — only
    /// during shutdown) carries no payload, every caller just stops.
    fn send(&self, input: Input) -> Result<(), ()> {
        let depth = self.stats.mailbox_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats
            .max_mailbox_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.tx.send(input).map_err(|_| {
            self.stats.mailbox_depth.fetch_sub(1, Ordering::Relaxed);
        })
    }
}

/// How long a dial-retry loop sleeps at most between attempts.
const MAX_BACKOFF_MS: u64 = 500;

/// Configuration of one [`TcpRuntime`].
pub struct TcpConfig {
    /// Address of the hosted process.
    pub addr: Addr,
    /// Every replica this runtime dials (usually all nodes except itself
    /// for a replica, all nodes for a client).
    pub dial: Vec<NodeId>,
    /// The shared node address table.
    pub peers: PeerTable,
    /// Seed for the driver's deterministic RNG.
    pub seed: u64,
}

/// Everything the protocol thread can receive.
enum Input {
    /// A decoded message from the network.
    Message { from: Addr, msg: NetMsg },
    /// The write half of a fresh inbound connection, keyed by its hello.
    Inbound { from: Addr, stream: TcpStream },
    /// Stop the runtime.
    Shutdown,
}

/// Handle to a running [`TcpRuntime`]; dropping it without calling
/// [`TcpHandle::shutdown`] detaches the runtime's threads.
pub struct TcpHandle {
    mailbox: MailboxTx,
    stop: Arc<AtomicBool>,
    listen: Option<SocketAddr>,
    thread: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl TcpHandle {
    /// Live transport statistics of this runtime (mailbox depth, per-peer
    /// writer queues/drops/reconnects). Safe to sample from any thread.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the runtime: the protocol thread shuts down its inbound sockets
    /// and drops the hosted process (flushing any durable storage it holds),
    /// the acceptor is woken and exits, writer threads shut down their
    /// dialed sockets as their channels close, and every reader exits on the
    /// resulting EOF. Blocks until the protocol thread has terminated, so a
    /// caller that restarts the process immediately afterwards observes
    /// fully-persisted state; the other threads finish shortly after.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.mailbox.send(Input::Shutdown);
        if let Some(listen) = self.listen {
            // Wake the acceptor blocked in accept().
            let _ = TcpStream::connect(listen);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The threaded TCP runtime (see the module docs for the thread layout).
pub struct TcpRuntime;

impl TcpRuntime {
    /// Spawns a runtime hosting the process built by `builder`.
    ///
    /// `listener` is the already-bound listening socket for a replica
    /// (bind first, publish the address in the peer table, then spawn —
    /// that way no peer can dial an unbound address), or `None` for a
    /// client, which only dials.
    pub fn spawn(
        cfg: TcpConfig,
        listener: Option<TcpListener>,
        builder: ProcessBuilder,
    ) -> io::Result<TcpHandle> {
        let (mailbox_tx, mailbox_rx) = mpsc::channel::<Input>();
        let stop = Arc::new(AtomicBool::new(false));
        let listen = listener.as_ref().map(|l| l.local_addr()).transpose()?;

        let mut stats = NetStats::default();
        for peer in &cfg.dial {
            stats.peers.insert(*peer, Arc::new(PeerStats::default()));
        }
        let stats = Arc::new(stats);
        let mailbox = MailboxTx {
            tx: mailbox_tx,
            stats: Arc::clone(&stats),
        };

        if let Some(listener) = listener {
            let tx = mailbox.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || acceptor_loop(listener, tx, stop));
        }

        // One writer per dialed peer, created up front; the writer dials on
        // first use and re-dials on failure.
        let mut writers: HashMap<NodeId, (SyncSender<Vec<u8>>, Arc<PeerStats>)> = HashMap::new();
        let hello = frame::encode_hello(cfg.addr);
        for peer in &cfg.dial {
            let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(WRITER_QUEUE);
            let peers = Arc::clone(&cfg.peers);
            let mailbox = mailbox.clone();
            let stop = Arc::clone(&stop);
            let hello = hello.clone();
            let peer = *peer;
            let peer_stats = Arc::clone(&stats.peers[&peer]);
            let writer_stats = Arc::clone(&peer_stats);
            thread::spawn(move || writer_loop(peer, peers, hello, rx, mailbox, stop, writer_stats));
            writers.insert(peer, (tx, peer_stats));
        }

        let run_stats = Arc::clone(&stats);
        let thread = thread::Builder::new()
            .name(format!("proto-{:?}", cfg.addr))
            .spawn(move || protocol_loop(cfg, builder, mailbox_rx, writers, run_stats))?;

        Ok(TcpHandle {
            mailbox,
            stop,
            listen,
            thread: Some(thread),
            stats,
        })
    }
}

/// The protocol thread: the single place the hosted process executes.
fn protocol_loop(
    cfg: TcpConfig,
    builder: ProcessBuilder,
    mailbox: Receiver<Input>,
    writers: HashMap<NodeId, (SyncSender<Vec<u8>>, Arc<PeerStats>)>,
    stats: Arc<NetStats>,
) {
    let start = Instant::now();
    let now = move || Time(start.elapsed().as_micros() as u64);

    let mut driver: SansIo<NetMsg> = SansIo::new(cfg.seed);
    driver.mount(cfg.addr, builder());

    // Timer wheel: min-heap of (deadline µs, insertion seq, handle, kind).
    // The insertion sequence keeps equal-deadline timers FIFO, matching the
    // simulator's same-time submission order.
    let mut timers: BinaryHeapWheel = BinaryHeapWheel::new();
    let mut inbound = InboundConns::default();
    // Self-addressed sends loop straight back as the next events, ahead of
    // anything the network delivers — same as the simulator's zero-latency
    // local delivery being scheduled before later arrivals.
    let mut selfq: VecDeque<NetMsg> = VecDeque::new();
    let mut actions: Vec<Action<NetMsg>> = Vec::new();

    driver.handle_into(now(), Event::Start, &mut actions);
    apply(
        cfg.addr,
        &mut actions,
        &mut timers,
        &writers,
        &mut inbound,
        &mut selfq,
        now(),
    );

    loop {
        // Self-sends first, then due timers, then the network.
        while let Some(msg) = selfq.pop_front() {
            driver.handle_into(
                now(),
                Event::Message {
                    from: cfg.addr,
                    msg,
                },
                &mut actions,
            );
            apply(
                cfg.addr,
                &mut actions,
                &mut timers,
                &writers,
                &mut inbound,
                &mut selfq,
                now(),
            );
        }
        while let Some((id, kind)) = timers.pop_due(now()) {
            driver.handle_into(now(), Event::Timer { id, kind }, &mut actions);
            apply(
                cfg.addr,
                &mut actions,
                &mut timers,
                &writers,
                &mut inbound,
                &mut selfq,
                now(),
            );
        }
        if !selfq.is_empty() {
            continue;
        }
        let wait = timers.until_next(now());
        let input = match mailbox.recv_timeout(wait) {
            Ok(input) => input,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        stats.mailbox_depth.fetch_sub(1, Ordering::Relaxed);
        match input {
            Input::Message { from, msg } => {
                driver.handle_into(now(), Event::Message { from, msg }, &mut actions);
                apply(
                    cfg.addr,
                    &mut actions,
                    &mut timers,
                    &writers,
                    &mut inbound,
                    &mut selfq,
                    now(),
                );
            }
            Input::Inbound { from, stream } => inbound.insert(from, stream),
            Input::Shutdown => break,
        }
    }
    // Shutting the inbound sockets down wakes their readers here and at the
    // dialing end with EOF. Then `driver` (and with it the process and its
    // storage handle) drops on this thread, and the `writers` senders drop,
    // ending the writer threads, which shut down the sockets they dialed.
    inbound.shutdown_all();
}

/// Encodes `msg` as one frame appended to `out`.
fn append_frame(out: &mut Vec<u8>, msg: &NetMsg, to: Addr) {
    if let Err(e) = frame::append_msg_frame(out, msg) {
        // Only simulator-only message kinds fail to encode; reaching this is
        // a deployment bug (e.g. booting a compartmentalized node over TCP),
        // not a runtime state.
        panic!("unencodable message to {to:?}: {e}");
    }
}

/// Write halves of inbound connections, keyed by their hello, each with the
/// reply frames queued to it during the current callback. Only clients are
/// written to (they never listen); node connections are registered too, so
/// that shutdown can close them.
#[derive(Default)]
struct InboundConns {
    conns: HashMap<Addr, (TcpStream, Vec<u8>)>,
    /// Connections whose buffer is non-empty, in first-queued order.
    queued: Vec<Addr>,
}

impl InboundConns {
    fn insert(&mut self, from: Addr, stream: TcpStream) {
        self.conns.insert(from, (stream, Vec::new()));
    }

    /// Queues one frame to `to`; a vanished client just loses it.
    fn queue(&mut self, to: Addr, msg: &NetMsg) {
        if let Some((_, out)) = self.conns.get_mut(&to) {
            if out.is_empty() {
                self.queued.push(to);
            }
            append_frame(out, msg, to);
        }
    }

    /// Writes every connection's queued frames with one `write_all` each;
    /// a connection whose write fails is dropped.
    fn flush(&mut self) {
        for to in self.queued.drain(..) {
            let (stream, out) = self
                .conns
                .get_mut(&to)
                .expect("a connection stays registered while frames are queued to it");
            let written = stream.write_all(out);
            out.clear();
            if written.is_err() {
                if let Some((stream, _)) = self.conns.remove(&to) {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }

    fn shutdown_all(&mut self) {
        for (stream, _) in self.conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Routes one callback's actions: timers onto the wheel, sends onto the
/// right socket. Replies to one client leave in one write at the end.
fn apply(
    self_addr: Addr,
    actions: &mut Vec<Action<NetMsg>>,
    timers: &mut BinaryHeapWheel,
    writers: &HashMap<NodeId, (SyncSender<Vec<u8>>, Arc<PeerStats>)>,
    inbound: &mut InboundConns,
    selfq: &mut VecDeque<NetMsg>,
    now: Time,
) {
    for action in actions.drain(..) {
        match action {
            Action::SetTimer { id, delay, kind } => {
                timers.push(now.0 + delay.as_micros(), id, kind);
            }
            Action::Send { to, msg } if to == self_addr => selfq.push_back(msg),
            Action::Send { to, msg } => match to {
                Addr::Node(n) => {
                    let Some((w, stats)) = writers.get(&n) else {
                        continue;
                    };
                    let mut frame = Vec::new();
                    append_frame(&mut frame, &msg, to);
                    // Count the frame in *before* the send: the writer thread
                    // may drain (and decrement) it the instant try_send
                    // returns, and the depth counter must never dip below
                    // zero.
                    stats.note_enqueued();
                    match w.try_send(frame) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) => {
                            stats.note_dequeued();
                            let drops = stats.dropped.fetch_add(1, Ordering::Relaxed) + 1;
                            if drops == 1 || drops % DROP_WARN_EVERY == 0 {
                                eprintln!(
                                    "iss-net: writer queue to {n:?} full, \
                                     {drops} frame(s) dropped so far"
                                );
                            }
                        }
                        // Shutdown path: the writer thread is gone.
                        Err(TrySendError::Disconnected(_)) => {
                            stats.note_dequeued();
                        }
                    }
                }
                // Clients never listen: answer over their inbound connection.
                Addr::Client(_) => inbound.queue(to, &msg),
                Addr::Stage { .. } => {
                    debug_assert!(false, "stage addresses are simulator-only");
                }
            },
        }
    }
    inbound.flush();
}

/// Min-heap timer wheel on the monotonic clock.
struct BinaryHeapWheel {
    heap: std::collections::BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    seq: u64,
}

impl BinaryHeapWheel {
    fn new() -> Self {
        BinaryHeapWheel {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, deadline_us: u64, id: TimerId, kind: u64) {
        self.heap.push(Reverse((deadline_us, self.seq, id.0, kind)));
        self.seq += 1;
    }

    /// Pops the next timer whose deadline has passed. Stale handles are
    /// filtered later by the driver's generation check, not here.
    fn pop_due(&mut self, now: Time) -> Option<(TimerId, u64)> {
        match self.heap.peek() {
            Some(&Reverse((deadline, _, id, kind))) if deadline <= now.0 => {
                self.heap.pop();
                Some((TimerId(id), kind))
            }
            _ => None,
        }
    }

    /// How long the protocol thread may sleep before the next deadline.
    fn until_next(&self, now: Time) -> std::time::Duration {
        match self.heap.peek() {
            Some(&Reverse((deadline, ..))) => {
                std::time::Duration::from_micros(deadline.saturating_sub(now.0))
            }
            // No timer armed: wake periodically anyway, purely defensively.
            None => std::time::Duration::from_millis(100),
        }
    }
}

/// Accepts inbound connections; each gets a thread that reads the hello,
/// registers the write half with the protocol thread and then reads frames
/// until the connection dies.
fn acceptor_loop(listener: TcpListener, mailbox: MailboxTx, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let mailbox = mailbox.clone();
        thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            // Bound the hello wait so a connection that never identifies
            // itself cannot hold this thread forever.
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
            let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
            let Ok(hello) = frame::read_frame(&mut reader) else {
                return;
            };
            let Ok(from) = frame::decode_hello(&hello) else {
                return;
            };
            let _ = reader.get_ref().set_read_timeout(None);
            if let Ok(write_half) = reader.get_ref().try_clone() {
                if mailbox
                    .send(Input::Inbound {
                        from,
                        stream: write_half,
                    })
                    .is_err()
                {
                    return;
                }
            }
            reader_loop(reader, from, mailbox);
        });
    }
}

/// Decodes frames from one connection into the mailbox. Exits when the
/// socket or the mailbox closes, or on the first malformed frame (a peer
/// speaking garbage gets its connection dropped, not interpreted).
fn reader_loop(mut reader: BufReader<TcpStream>, from: Addr, mailbox: MailboxTx) {
    loop {
        let Ok(payload) = frame::read_frame(&mut reader) else {
            return;
        };
        let Ok(msg) = frame::decode_msg(payload) else {
            return;
        };
        if mailbox.send(Input::Message { from, msg }).is_err() {
            return;
        }
    }
}

/// Owns the outbound connection to one peer: dials lazily (re-reading the
/// peer table each attempt, with exponential backoff), sends the hello on
/// every fresh connection, spawns a reader for whatever the peer writes
/// back, and re-dials whenever a write fails. Each wakeup writes a burst:
/// the frame that woke it plus every frame already queued, up to
/// [`WRITE_BURST`] bytes, in one `write_all`. The burst being written when
/// the connection died is re-sent whole on the new connection; frames
/// queued behind a full channel are dropped by the sender instead. On exit
/// it shuts its socket down, so the readers at both ends see EOF.
fn writer_loop(
    peer: NodeId,
    peers: PeerTable,
    hello: Vec<u8>,
    rx: Receiver<Vec<u8>>,
    mailbox: MailboxTx,
    stop: Arc<AtomicBool>,
    stats: Arc<PeerStats>,
) {
    let mut conn: Option<TcpStream> = None;
    let mut backoff = 10u64;
    'bursts: for mut burst in rx.iter() {
        stats.note_dequeued();
        let mut frames = 1u64;
        while burst.len() < WRITE_BURST {
            let Ok(frame) = rx.try_recv() else { break };
            stats.note_dequeued();
            burst.extend_from_slice(&frame);
            frames += 1;
        }
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'bursts;
            }
            if conn.is_none() {
                let target = peers.read().map(|t| t.get(&peer).copied()).unwrap_or(None);
                let dialed = target.and_then(|addr| TcpStream::connect(addr).ok());
                match dialed {
                    Some(mut stream) => {
                        let _ = stream.set_nodelay(true);
                        if frame::write_frame(&mut stream, &hello).is_err() {
                            continue;
                        }
                        if let Ok(read_half) = stream.try_clone() {
                            let mailbox = mailbox.clone();
                            let reader = BufReader::with_capacity(READ_BUFFER, read_half);
                            thread::spawn(move || reader_loop(reader, Addr::Node(peer), mailbox));
                        }
                        conn = Some(stream);
                        backoff = 10;
                        stats.connects.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        thread::sleep(std::time::Duration::from_millis(backoff));
                        backoff = (backoff * 2).min(MAX_BACKOFF_MS);
                        continue;
                    }
                }
            }
            if let Some(stream) = &mut conn {
                match stream.write_all(&burst) {
                    Ok(()) => {
                        stats.frames_sent.fetch_add(frames, Ordering::Relaxed);
                        stats
                            .bytes_sent
                            .fetch_add(burst.len() as u64 - 4 * frames, Ordering::Relaxed);
                        continue 'bursts;
                    }
                    Err(_) => {
                        if let Some(dead) = conn.take() {
                            let _ = dead.shutdown(Shutdown::Both);
                        }
                    }
                }
            }
        }
    }
    if let Some(stream) = conn {
        let _ = stream.shutdown(Shutdown::Both);
    }
}
