//! The coalesced write paths of [`TcpRuntime`], over real loopback sockets:
//! a burst of frames queued to one peer's writer, and a burst of replies
//! one callback sends to a client. The far end of each connection is a
//! bare socket speaking the frame format, so what it reads is exactly what
//! the runtime wrote.

use iss_messages::{ClientMsg, NetMsg};
use iss_net::{frame, peer_table, TcpConfig, TcpRuntime};
use iss_runtime::{Addr, Context, Process};
use iss_types::{ClientId, NodeId, Request, RequestId, TimerId};
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

fn request(client: u32, ts: u64, len: usize) -> NetMsg {
    NetMsg::Client(ClientMsg::Request(Request::new(
        ClientId(client),
        ts,
        vec![ts as u8; len],
    )))
}

/// Sends `msgs` to `to` from its start callback, then stays silent.
struct SendOnStart {
    to: Addr,
    msgs: Vec<NetMsg>,
}

impl Process<NetMsg> for SendOnStart {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        for msg in self.msgs.drain(..) {
            ctx.send(self.to, msg);
        }
    }
    fn on_message(&mut self, _: Addr, _: NetMsg, _: &mut Context<'_, NetMsg>) {}
    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

/// Answers every request with `k` responses, all from one callback.
struct Responder {
    k: u64,
}

impl Process<NetMsg> for Responder {
    fn on_start(&mut self, _: &mut Context<'_, NetMsg>) {}
    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        if let NetMsg::Client(ClientMsg::Request(req)) = msg {
            for seq_nr in 0..self.k {
                let response = ClientMsg::Response {
                    request: req.id,
                    seq_nr,
                };
                ctx.send(from, NetMsg::Client(response));
            }
        }
    }
    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

fn read_msg(reader: &mut BufReader<TcpStream>) -> NetMsg {
    frame::decode_msg(frame::read_frame(reader).expect("frame arrives")).expect("frame decodes")
}

#[test]
fn frames_queued_to_one_writer_arrive_in_order_and_are_counted() {
    // Well under the writer queue bound (nothing may be dropped), and well
    // over one write burst (the writer must split the backlog).
    const N: u64 = 1000;
    let msgs: Vec<NetMsg> = (0..N).map(|i| request(1, i, (i % 300) as usize)).collect();
    let payload_bytes: u64 = msgs
        .iter()
        .map(|m| frame::encode_msg(m).unwrap().len() as u64)
        .sum();
    // A bare listener stands in for node 1.
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let peers = peer_table();
    peers
        .write()
        .unwrap()
        .insert(NodeId(1), listener.local_addr().unwrap());
    let expected = msgs.clone();
    let to = Addr::Node(NodeId(1));
    let handle = TcpRuntime::spawn(
        TcpConfig {
            addr: Addr::Node(NodeId(0)),
            dial: vec![NodeId(1)],
            peers,
            seed: 1,
        },
        None,
        Box::new(move || Box::new(SendOnStart { to, msgs })),
    )
    .unwrap();

    let (stream, _) = listener.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let hello = frame::read_frame(&mut reader).unwrap();
    assert_eq!(frame::decode_hello(&hello).unwrap(), Addr::Node(NodeId(0)));
    for (i, msg) in expected.iter().enumerate() {
        assert_eq!(&read_msg(&mut reader), msg, "frame {i}");
    }

    // The writer counts a burst once its write returns, which may be just
    // after the bytes arrived here.
    let stats = handle.stats();
    let peer = &stats.peers[&NodeId(1)];
    let deadline = Instant::now() + Duration::from_secs(10);
    while peer.frames_sent.load(Relaxed) < N && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(peer.frames_sent.load(Relaxed), N);
    assert_eq!(peer.bytes_sent.load(Relaxed), payload_bytes);
    assert_eq!(peer.dropped.load(Relaxed), 0);
    assert_eq!(peer.queue_depth.load(Relaxed), 0);
    handle.shutdown();
}

#[test]
fn replies_from_one_callback_reach_the_client_in_send_order() {
    const K: u64 = 64;
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peers = peer_table();
    peers.write().unwrap().insert(NodeId(0), addr);
    let handle = TcpRuntime::spawn(
        TcpConfig {
            addr: Addr::Node(NodeId(0)),
            dial: Vec::new(),
            peers,
            seed: 1,
        },
        Some(listener),
        Box::new(|| Box::new(Responder { k: K })),
    )
    .unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let client = ClientId(7);
    frame::write_frame(&mut stream, &frame::encode_hello(Addr::Client(client))).unwrap();
    let req = request(client.0, 5, 10);
    frame::write_frame(&mut stream, &frame::encode_msg(&req).unwrap()).unwrap();

    let mut reader = BufReader::new(stream);
    for seq_nr in 0..K {
        let response = NetMsg::Client(ClientMsg::Response {
            request: RequestId::new(client, 5),
            seq_nr,
        });
        let frame_len = 4 + frame::encode_msg(&response).unwrap().len();
        if seq_nr == 0 {
            // The K replies left in one write of K * frame_len bytes (under
            // one loopback segment), so the first read took all of them.
            assert_eq!(reader.fill_buf().unwrap().len(), K as usize * frame_len);
        }
        assert_eq!(read_msg(&mut reader), response, "reply {seq_nr}");
    }
    handle.shutdown();
}
