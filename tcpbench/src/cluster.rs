//! The 4-replica ISS-PBFT cluster under test, booted with the node recipe
//! of `iss::net::TcpCluster` (same `IssConfig`, node options and one
//! `TcpRuntime` per replica), plus the benchmark's instruments around the
//! public interfaces: a `DeliverySink` on every replica and, in traced runs,
//! a timing wrapper around each node's `Process` and around its `Storage`.

use crate::sys::thread_cpu_ns;
use iss::core::{DeliverySink, IssNode, NodeOptions};
use iss::crypto::SignatureRegistry;
use iss::messages::{ClientMsg, IssMsg, NetMsg, PbftMsg, SbMsg};
use iss::net::{peer_table, TcpConfig, TcpHandle, TcpRuntime};
use iss::runtime::{Addr, Context, Process};
use iss::sim::{make_factory, Protocol, Scenario};
use iss::storage::{FileStorage, Recovered, Snapshot, Storage, WalRecord};
use iss::types::{
    ClientId, Duration, EpochNr, Error, IssConfig, NodeId, Request, SeqNr, Time, TimerId,
};
use std::cell::RefCell;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Replicas in the cluster (f = 1).
pub const NODES: usize = 4;
/// The single client identity the generator uses.
pub const CLIENT: ClientId = ClientId(0);

/// The benchmark clock: ns since one process-wide origin, shared by every
/// thread so generator and replica timestamps compare directly.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The ISS configuration `TcpCluster::launch` derives: the Table 1 PBFT
/// preset, 2 s protocol timeouts and buffered early votes.
pub fn iss_config(seed: u64) -> IssConfig {
    let mut iss = Scenario::builder(Protocol::Pbft, NODES)
        .seed(seed)
        .build()
        .iss_config();
    iss.view_change_timeout = Duration::from_secs(2);
    iss.epoch_change_timeout = Duration::from_secs(2);
    iss.buffer_early_votes = true;
    iss
}

/// What one replica's sink saw, in its own delivery order.
#[derive(Default)]
pub struct NodeEvents {
    /// `(request seq nr, request timestamp, time)` per delivered request.
    pub delivered: Vec<(u64, u64, u64)>,
    /// `(requests in it, time)` per committed log entry.
    pub batches: Vec<(usize, u64)>,
    /// `(epoch, time)` per epoch advance.
    pub epochs: Vec<(EpochNr, u64)>,
    /// Time of every intake rejection.
    pub rejected: Vec<u64>,
}

/// A span: one call into a layer, on the clock of [`Clock`], with the CPU
/// time its thread spent inside the call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub cpu: u64,
    /// Request timestamp or batch sequence number the call was about.
    pub key: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans of one replica's protocol thread, plus its storage counters.
#[derive(Default)]
pub struct NodeTrace {
    pub handlers: Vec<Span>,
    pub storage: Vec<Span>,
    pub storage_errors: u64,
    pub wal_bytes_appended: u64,
}

/// Locks a mutex shared with protocol threads; a poisoned lock means a
/// replica panicked, which ends the run.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a replica thread panicked")
}

struct BenchSink {
    events: Arc<Mutex<NodeEvents>>,
    clock: Clock,
}

impl DeliverySink for BenchSink {
    fn on_request_delivered(&mut self, _: NodeId, request: &Request, sn: u64, _: Time) {
        let t = self.clock.ns();
        lock(&self.events)
            .delivered
            .push((sn, request.id.timestamp, t));
    }

    fn on_batch_committed(&mut self, _: NodeId, _: SeqNr, size: usize, _: Time) {
        let t = self.clock.ns();
        lock(&self.events).batches.push((size, t));
    }

    fn on_epoch_advanced(&mut self, _: NodeId, epoch: EpochNr, _: Time) {
        let t = self.clock.ns();
        lock(&self.events).epochs.push((epoch, t));
    }

    fn on_request_rejected(&mut self, _: NodeId, _: &Request, _: &Error, _: Time) {
        let t = self.clock.ns();
        lock(&self.events).rejected.push(t);
    }
}

/// Handler span name and key of an incoming message.
fn message_class(msg: &NetMsg) -> (&'static str, u64) {
    match msg {
        NetMsg::Client(ClientMsg::Request(r)) => ("intake", r.id.timestamp),
        NetMsg::Sb {
            msg: SbMsg::Pbft(m),
            ..
        } => match m {
            PbftMsg::PrePrepare { seq_nr, .. } => ("pbft.preprepare", *seq_nr),
            PbftMsg::Prepare { seq_nr, .. } | PbftMsg::Commit { seq_nr, .. } => {
                ("pbft.vote", *seq_nr)
            }
            PbftMsg::ViewChange { .. } | PbftMsg::NewView { .. } => ("pbft.viewchange", 0),
        },
        NetMsg::Iss(IssMsg::Checkpoint { max_seq_nr, .. }) => ("iss.checkpoint", *max_seq_nr),
        NetMsg::Iss(_) => ("iss.state", 0),
        _ => ("other", 0),
    }
}

/// Timer span name. iss-core tags its timers 1 (propose tick: batch cut
/// and proposal) and 2 (an SB instance's own timer).
fn timer_class(kind: u64) -> &'static str {
    match kind {
        1 => "timer.propose",
        2 => "timer.instance",
        _ => "timer.other",
    }
}

/// Times every handler call of the wrapped node.
struct TracedProcess {
    inner: Box<dyn Process<NetMsg>>,
    trace: Arc<Mutex<NodeTrace>>,
    clock: Clock,
}

impl TracedProcess {
    fn timed(&mut self, name: &'static str, key: u64, call: impl FnOnce(&mut dyn Process<NetMsg>)) {
        let (start, cpu) = (self.clock.ns(), thread_cpu_ns());
        call(&mut *self.inner);
        let span = Span {
            name,
            start,
            end: self.clock.ns(),
            cpu: thread_cpu_ns() - cpu,
            key,
        };
        lock(&self.trace).handlers.push(span);
    }
}

impl Process<NetMsg> for TracedProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.timed("start", 0, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let (name, key) = message_class(&msg);
        self.timed(name, key, |p| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        self.timed(timer_class(kind), 0, |p| p.on_timer(id, kind, ctx));
    }
}

/// Times every storage call and counts its errors and appended bytes.
struct TracedStorage {
    inner: FileStorage,
    trace: Arc<Mutex<NodeTrace>>,
    clock: Clock,
    wal_len: RefCell<u64>,
}

impl TracedStorage {
    fn timed<T>(
        &self,
        name: &'static str,
        key: u64,
        call: impl FnOnce() -> iss::types::Result<T>,
    ) -> iss::types::Result<T> {
        let (start, cpu) = (self.clock.ns(), thread_cpu_ns());
        let result = call();
        let span = Span {
            name,
            start,
            end: self.clock.ns(),
            cpu: thread_cpu_ns() - cpu,
            key,
        };
        let mut trace = lock(&self.trace);
        trace.storage.push(span);
        trace.storage_errors += u64::from(result.is_err());
        result
    }
}

impl Storage for TracedStorage {
    fn append(&self, record: &WalRecord) -> iss::types::Result<()> {
        let result = self.timed("storage.append", record.seq_nr(), || {
            self.inner.append(record)
        });
        let len = self.inner.wal_bytes();
        let grown = len.saturating_sub(self.wal_len.replace(len));
        lock(&self.trace).wal_bytes_appended += grown;
        result
    }

    fn save_snapshot(&self, snapshot: &Snapshot) -> iss::types::Result<()> {
        self.timed("storage.snapshot", 0, || self.inner.save_snapshot(snapshot))
    }

    fn prune_below(&self, below: SeqNr) -> iss::types::Result<()> {
        let result = self.timed("storage.prune", below, || self.inner.prune_below(below));
        self.wal_len.replace(self.inner.wal_bytes());
        result
    }

    fn recover(&self) -> iss::types::Result<Recovered> {
        self.timed("storage.recover", 0, || self.inner.recover())
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
}

/// Transport counters of the whole cluster, read from `TcpHandle::stats()`
/// and summed over nodes and peers.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTotals {
    pub frames: u64,
    pub bytes: u64,
    pub drops: u64,
    pub connects: u64,
}

/// A running cluster.
pub struct Cluster {
    nodes: Vec<TcpHandle>,
    pub addrs: Vec<SocketAddr>,
    pub events: Vec<Arc<Mutex<NodeEvents>>>,
    /// Per-replica spans; empty vectors in untraced runs.
    pub traces: Vec<Arc<Mutex<NodeTrace>>>,
}

impl Cluster {
    /// Boots the replicas: binds every listener first so the peer table is
    /// complete before anything dials, then spawns one runtime per replica.
    /// With `storage_root`, replica `i` persists to `<root>/node-<i>`.
    pub fn boot(
        seed: u64,
        storage_root: Option<&PathBuf>,
        traced: bool,
        clock: Clock,
    ) -> io::Result<Cluster> {
        let iss = iss_config(seed);
        let peers = peer_table();
        let mut listeners = Vec::with_capacity(NODES);
        let mut addrs = Vec::with_capacity(NODES);
        for n in 0..NODES as u32 {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            let addr = listener.local_addr()?;
            peers
                .write()
                .expect("peer table lock")
                .insert(NodeId(n), addr);
            listeners.push(listener);
            addrs.push(addr);
        }
        let mut cluster = Cluster {
            nodes: Vec::with_capacity(NODES),
            addrs,
            events: Vec::with_capacity(NODES),
            traces: Vec::with_capacity(NODES),
        };
        for (n, listener) in listeners.into_iter().enumerate() {
            let node_id = NodeId(n as u32);
            let events = Arc::new(Mutex::new(NodeEvents::default()));
            let trace = Arc::new(Mutex::new(NodeTrace::default()));
            let dir = storage_root.map(|root| root.join(format!("node-{n}")));
            let builder = {
                let (iss, events, trace) = (iss.clone(), Arc::clone(&events), Arc::clone(&trace));
                Box::new(move || build_node(node_id, iss, events, trace, dir, traced, clock))
            };
            let dial = (0..NODES as u32)
                .map(NodeId)
                .filter(|p| *p != node_id)
                .collect();
            let handle = TcpRuntime::spawn(
                TcpConfig {
                    addr: Addr::Node(node_id),
                    dial,
                    peers: Arc::clone(&peers),
                    seed: seed ^ n as u64,
                },
                Some(listener),
                builder,
            )?;
            cluster.nodes.push(handle);
            cluster.events.push(events);
            cluster.traces.push(trace);
        }
        Ok(cluster)
    }

    /// Whether every replica has dialed every peer at least once.
    pub fn fully_connected(&self) -> bool {
        self.nodes.iter().all(|h| {
            h.stats()
                .peers
                .values()
                .all(|p| p.connects.load(Relaxed) > 0)
        })
    }

    pub fn net_totals(&self) -> NetTotals {
        let mut t = NetTotals::default();
        for h in &self.nodes {
            for p in h.stats().peers.values() {
                t.frames += p.frames_sent.load(Relaxed);
                t.bytes += p.bytes_sent.load(Relaxed);
                t.drops += p.dropped.load(Relaxed);
                t.connects += p.connects.load(Relaxed);
            }
        }
        t
    }

    /// Current mailbox depth of every replica.
    pub fn mailbox_depths(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes
            .iter()
            .map(|h| h.stats().mailbox_depth.load(Relaxed))
    }

    /// Earliest time any replica entered each epoch ≥ 1.
    pub fn epoch_boundaries(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut b = std::collections::BTreeMap::new();
        for events in &self.events {
            for &(e, t) in &lock(events).epochs {
                let slot = b.entry(e).or_insert(t);
                *slot = (*slot).min(t);
            }
        }
        b
    }

    /// Delivered-request count of every replica.
    pub fn delivered_counts(&self) -> Vec<usize> {
        self.events
            .iter()
            .map(|e| lock(e).delivered.len())
            .collect()
    }

    /// Stops every replica and waits for its protocol thread.
    pub fn shutdown(self) {
        for h in self.nodes {
            h.shutdown();
        }
    }
}

/// Builds one replica on its protocol thread (the exact recipe of
/// `TcpCluster::spawn_node`, for one client identity), wrapped in the
/// tracing instruments when `traced`.
fn build_node(
    node_id: NodeId,
    iss: IssConfig,
    events: Arc<Mutex<NodeEvents>>,
    trace: Arc<Mutex<NodeTrace>>,
    dir: Option<PathBuf>,
    traced: bool,
    clock: Clock,
) -> Box<dyn Process<NetMsg>> {
    let registry = Arc::new(SignatureRegistry::with_processes(NODES, 1));
    let mut opts = NodeOptions::new(iss.clone());
    opts.respond_to_clients = true;
    opts.announce_buckets = true;
    opts.clients = vec![CLIENT];
    let factory = make_factory(Protocol::Pbft, &iss, Arc::clone(&registry));
    let sink = Rc::new(RefCell::new(BenchSink { events, clock }));
    let node = match dir {
        Some(dir) => {
            let file = FileStorage::open(&dir).expect("open replica storage");
            let storage: Rc<dyn Storage> = if traced {
                let wal_len = RefCell::new(file.wal_bytes());
                Rc::new(TracedStorage {
                    inner: file,
                    trace: Arc::clone(&trace),
                    clock,
                    wal_len,
                })
            } else {
                Rc::new(file)
            };
            IssNode::with_storage(node_id, opts, factory, registry, sink, storage)
        }
        None => IssNode::new(node_id, opts, factory, registry, sink),
    };
    if traced {
        Box::new(TracedProcess {
            inner: Box::new(node),
            trace,
            clock,
        })
    } else {
        Box::new(node)
    }
}
