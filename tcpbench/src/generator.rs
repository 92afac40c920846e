//! The load generator: the paper's client (§4.3) on one thread, with one
//! client identity and one connection per replica.
//!
//! Each replica writes its replies back over the client's own connection,
//! so one connection per replica is the fewest the client protocol allows.
//! The thread multiplexes the four sockets with `ppoll`, routes each
//! request to its bucket's leader through `LeaderTable`, completes it at
//! f+1 replies through `ResponseTracker`, and on every accepted bucket
//! rotation re-sends each unanswered request, as the simulator's
//! `ClientProcess::with_retransmission` does.

use crate::cluster::{Clock, CLIENT, NODES};
use crate::sys::{wait_readable, PollFd, POLLIN};
use iss::client::{LeaderTable, ResponseTracker};
use iss::messages::{ClientMsg, NetMsg};
use iss::net::frame;
use iss::runtime::Addr;
use iss::types::{NodeId, Request, RequestId};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::Duration;

/// Request payload size: the paper's 500-byte requests.
pub const PAYLOAD_BYTES: usize = 500;

/// How the generator offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Poisson arrivals at `rate` requests/s, independent of replies.
    Open { rate: f64 },
    /// A fixed number of requests in flight; each completion frees a slot.
    Closed { outstanding: usize },
}

/// SplitMix64: the seeded source of every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The open-loop schedule: due times of successive requests, as ns after
/// the load starts, with exponential gaps of mean `1 / rate`.
pub struct Schedule {
    rng: SplitMix,
    mean_gap_ns: f64,
    at: f64,
}

impl Schedule {
    pub fn new(seed: u64, rate: f64) -> Self {
        Schedule {
            rng: SplitMix::new(seed),
            mean_gap_ns: 1e9 / rate,
            at: 0.0,
        }
    }

    pub fn next_due(&mut self) -> u64 {
        self.at -= self.mean_gap_ns * (1.0 - self.rng.next_f64()).ln();
        self.at as u64
    }
}

/// The payload of request `ts`: seeded bytes, the same for the same seed.
pub fn payload(seed: u64, ts: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(seed ^ ts.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut bytes = Vec::with_capacity(PAYLOAD_BYTES);
    while bytes.len() < PAYLOAD_BYTES {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes.truncate(PAYLOAD_BYTES);
    bytes
}

/// What happened to one request (times in ns on the benchmark clock).
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Latency origin: the due time in open loop, the send time in closed
    /// loop.
    pub start: u64,
    /// When the generator should have sent it: the due time in open loop,
    /// the completion that freed its slot in closed loop.
    pub due: u64,
    pub sent: u64,
    /// When its f+1-th matching reply arrived; 0 while unanswered.
    pub done: u64,
    /// The `seq_nr` of its first reply; `u64::MAX` before any.
    pub seq_nr: u64,
    pub replies: u32,
    pub resends: u32,
}

/// Signals from the main thread. The window end is unknown (`u64::MAX`)
/// until the closing epoch boundary has been seen.
pub struct Control {
    pub window_end: AtomicU64,
    pub deadline: AtomicU64,
    pub abort: AtomicBool,
}

impl Control {
    pub fn new() -> Self {
        Control {
            window_end: AtomicU64::new(u64::MAX),
            deadline: AtomicU64::new(u64::MAX),
            abort: AtomicBool::new(false),
        }
    }
}

/// Everything the generator observed.
pub struct GenResult {
    /// Indexed by request timestamp.
    pub records: Vec<Record>,
    /// Replies that disagree on `seq_nr`.
    pub violations: Vec<String>,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

/// Bytes read from a socket per readiness event.
const READ_CHUNK: usize = 64 << 10;

pub struct Generator {
    conns: Vec<Conn>,
    leaders: LeaderTable,
    tracker: ResponseTracker,
    /// Unanswered requests with the announcement generation they were last
    /// sent in (0 before any accepted announcement).
    outstanding: BTreeMap<u64, (Request, u64)>,
    records: Vec<Record>,
    violations: Vec<String>,
    /// Closed loop: completion times of freed slots not yet refilled.
    freed: VecDeque<u64>,
    chunk: Vec<u8>,
    seed: u64,
    clock: Clock,
}

impl Generator {
    /// Opens one connection per replica and announces the client identity.
    pub fn connect(
        addrs: &[SocketAddr],
        num_buckets: usize,
        f: usize,
        seed: u64,
        clock: Clock,
    ) -> io::Result<Self> {
        let hello = frame::encode_hello(Addr::Client(CLIENT));
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            frame::write_frame(&mut stream, &hello)?;
            conns.push(Conn {
                stream,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
            });
        }
        let nodes = (0..NODES as u32).map(NodeId).collect();
        Ok(Generator {
            conns,
            leaders: LeaderTable::new(nodes, num_buckets, f + 1),
            tracker: ResponseTracker::new(f + 1),
            outstanding: BTreeMap::new(),
            records: Vec::new(),
            violations: Vec::new(),
            freed: VecDeque::new(),
            chunk: vec![0; READ_CHUNK],
            seed,
            clock,
        })
    }

    /// Sends one request and waits for its completion: the end of set-up.
    pub fn probe(&mut self, timeout: Duration) -> io::Result<()> {
        let now = self.clock.ns();
        let deadline = now + timeout.as_nanos() as u64;
        let ts = self.send_new(now, now);
        self.flush()?;
        while self.records[ts as usize].done == 0 {
            if self.clock.ns() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "set-up probe request unanswered",
                ));
            }
            self.poll(Duration::from_millis(2))?;
        }
        Ok(())
    }

    /// Offers `load` from `load_start` until every request started before
    /// the window end has completed, or the drain deadline passes.
    pub fn run(mut self, load: Load, load_start: u64, ctl: &Control) -> io::Result<GenResult> {
        let mut schedule = match load {
            Load::Open { rate } => Some(Schedule::new(self.seed, rate)),
            Load::Closed { .. } => None,
        };
        let mut next_due = schedule
            .as_mut()
            .map_or(u64::MAX, |s| load_start + s.next_due());
        loop {
            let now = self.clock.ns();
            let window_end = ctl.window_end.load(SeqCst);
            if window_end != u64::MAX {
                let waiting = self
                    .outstanding
                    .first_key_value()
                    .is_some_and(|(ts, _)| self.records[*ts as usize].start < window_end);
                if (!waiting && next_due >= window_end) || now >= ctl.deadline.load(SeqCst) {
                    break;
                }
            }
            if ctl.abort.load(SeqCst) {
                break;
            }
            match (load, schedule.as_mut()) {
                (Load::Open { .. }, Some(schedule)) => {
                    while next_due <= now {
                        self.send_new(next_due, next_due);
                        next_due = load_start + schedule.next_due();
                    }
                }
                (Load::Closed { outstanding }, _) => {
                    while self.outstanding.len() < outstanding {
                        let due = self.freed.pop_front().unwrap_or(now);
                        self.send_new(self.clock.ns(), due);
                    }
                }
                (Load::Open { .. }, None) => unreachable!("open loop has a schedule"),
            }
            self.freed.clear();
            self.flush()?;
            let wait = next_due.saturating_sub(self.clock.ns()).min(2_000_000);
            self.poll(Duration::from_nanos(wait))?;
        }
        Ok(GenResult {
            records: self.records,
            violations: self.violations,
        })
    }

    fn generation(&self) -> u64 {
        self.leaders.accepted_epoch().map_or(0, |e| e + 1)
    }

    /// Creates the next request, queues it to its bucket's leader and
    /// returns its timestamp.
    fn send_new(&mut self, start: u64, due: u64) -> u64 {
        let ts = self.records.len() as u64;
        let request = Request::new(CLIENT, ts, payload(self.seed, ts));
        self.queue(&request);
        self.records.push(Record {
            start,
            due,
            sent: self.clock.ns(),
            done: 0,
            seq_nr: u64::MAX,
            replies: 0,
            resends: 0,
        });
        self.outstanding.insert(ts, (request, self.generation()));
        ts
    }

    fn queue(&mut self, request: &Request) {
        let target = self.leaders.target_for(&request.id).index();
        let msg = NetMsg::Client(ClientMsg::Request(request.clone()));
        let body = frame::encode_msg(&msg).expect("client requests always encode");
        let out = &mut self.conns[target].outbuf;
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }

    fn flush(&mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            if !conn.outbuf.is_empty() {
                conn.stream.write_all(&conn.outbuf)?;
                conn.outbuf.clear();
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for replies and handles every complete frame.
    fn poll(&mut self, timeout: Duration) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        if wait_readable(&mut fds, timeout)? == 0 {
            return Ok(());
        }
        for (node, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let n = self.conns[node].stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("replica {node} closed the client connection"),
                ));
            }
            let mut buf = std::mem::take(&mut self.conns[node].inbuf);
            buf.extend_from_slice(&self.chunk[..n]);
            let mut at = 0;
            while buf.len() - at >= 4 {
                let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
                if buf.len() - at - 4 < len {
                    break;
                }
                let msg = frame::decode_msg(buf[at + 4..at + 4 + len].to_vec())?;
                at += 4 + len;
                self.handle(node, msg);
            }
            buf.drain(..at);
            self.conns[node].inbuf = buf;
        }
        Ok(())
    }

    fn handle(&mut self, node: usize, msg: NetMsg) {
        let NetMsg::Client(msg) = msg else { return };
        match msg {
            ClientMsg::Response { request, seq_nr } => self.on_response(node, request, seq_nr),
            ClientMsg::BucketLeaders { .. } => {
                if self.leaders.on_announcement(NodeId(node as u32), &msg) {
                    self.resend_stale();
                }
            }
            ClientMsg::Request(_) => {}
        }
    }

    fn on_response(&mut self, node: usize, request: RequestId, seq_nr: u64) {
        let Some(rec) = self.records.get_mut(request.timestamp as usize) else {
            self.violations.push(format!(
                "reply for unknown request {request:?} from replica {node}"
            ));
            return;
        };
        rec.replies += 1;
        if rec.seq_nr == u64::MAX {
            rec.seq_nr = seq_nr;
        } else if rec.seq_nr != seq_nr {
            self.violations.push(format!(
                "replies for request {} disagree: seq nr {} and {seq_nr} (replica {node})",
                request.timestamp, rec.seq_nr
            ));
        }
        if self
            .tracker
            .on_response(NodeId(node as u32), request, seq_nr)
            .is_some()
        {
            let now = self.clock.ns();
            rec.done = now;
            self.outstanding.remove(&request.timestamp);
            self.freed.push_back(now);
        }
    }

    /// Re-sends every unanswered request not yet sent under the newly
    /// accepted bucket assignment.
    fn resend_stale(&mut self) {
        let generation = self.generation();
        let stale: Vec<Request> = self
            .outstanding
            .values_mut()
            .filter(|(_, last)| *last < generation)
            .map(|(request, last)| {
                *last = generation;
                request.clone()
            })
            .collect();
        for request in stale {
            self.records[request.id.timestamp as usize].resends += 1;
            self.queue(&request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_payloads() {
        let due = |seed| {
            let mut s = Schedule::new(seed, 4000.0);
            (0..1000).map(|_| s.next_due()).collect::<Vec<_>>()
        };
        assert_eq!(due(1), due(1));
        assert_ne!(due(1), due(2));
        let d = due(3);
        assert!(
            d.windows(2).all(|w| w[0] <= w[1]),
            "due times never go back"
        );
        // 1000 gaps of mean 250 µs: within 10% of 250 ms.
        let last = *d.last().unwrap() as f64;
        assert!((last - 250e6).abs() < 25e6, "{last}");
        assert_eq!(payload(1, 5), payload(1, 5));
        assert_ne!(payload(1, 5), payload(2, 5));
        assert_eq!(payload(1, 5).len(), PAYLOAD_BYTES);
    }
}
