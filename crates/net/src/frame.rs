//! Length-prefixed framing over a byte stream, plus the hello frame that
//! opens every connection.
//!
//! A connection carries a sequence of frames, each a `u32` little-endian
//! length followed by that many payload bytes. The first frame on every
//! connection is a *hello* identifying the dialing process by its
//! [`Addr`]; every later frame is one [`NetMsg`] encoded with
//! [`iss_messages::wire`]. The hello is what lets an accepting node route
//! responses: a client never listens, so the node writes `Response` frames
//! back over the client's own inbound connection, keyed by the hello.

use bytes::{Buf, BufMut, Bytes};
use iss_messages::wire::{decode_net_msg, encode_net_msg};
use iss_messages::NetMsg;
use iss_runtime::{Addr, StageRole};
use iss_types::{ClientId, NodeId};
use std::io::{self, Read, Write};

/// Refuse frames larger than this (a corrupt or hostile length prefix must
/// not make the reader allocate gigabytes). Generous: the largest legitimate
/// frame is a snapshot chunk, well under a megabyte.
pub const MAX_FRAME: usize = 64 << 20;

const ADDR_NODE: u8 = 0;
const ADDR_CLIENT: u8 = 1;
const ADDR_STAGE: u8 = 2;

/// Appends one frame to `out`: a 4-byte length placeholder, the payload
/// `body` writes, then the real length patched into the placeholder. Every
/// frame the crate sends is built here, so a frame always leaves in one
/// piece and its payload is never copied out of an intermediate buffer.
fn append_frame(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let len = body(out).and_then(|()| {
        u32::try_from(out.len() - start - 4)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame longer than u32::MAX"))
    });
    match len {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Appends one frame carrying `msg` to `out`, encoding the message straight
/// behind its length prefix. On error `out` is left as it was.
pub(crate) fn append_msg_frame(out: &mut Vec<u8>, msg: &NetMsg) -> io::Result<()> {
    append_frame(out, |out| encode_into(msg, out))
}

/// Writes one length-prefixed frame with a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    append_frame(&mut buf, |out| {
        out.extend_from_slice(payload);
        Ok(())
    })?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame. Wrap a socket in a `BufReader` first:
/// on a bare stream this costs two `read` calls per frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Encodes a message into a frame payload.
pub fn encode_msg(msg: &NetMsg) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    encode_into(msg, &mut buf)?;
    Ok(buf)
}

fn encode_into(msg: &NetMsg, out: &mut Vec<u8>) -> io::Result<()> {
    encode_net_msg(msg, out).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Decodes a frame payload into a message.
pub fn decode_msg(payload: Vec<u8>) -> io::Result<NetMsg> {
    let mut buf = Bytes::from(payload);
    let msg = decode_net_msg(&mut buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if buf.remaining() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after message",
        ));
    }
    Ok(msg)
}

/// Encodes a hello payload announcing `addr`.
pub fn encode_hello(addr: Addr) -> Vec<u8> {
    let mut buf = Vec::new();
    match addr {
        Addr::Node(n) => {
            buf.put_u8(ADDR_NODE);
            buf.put_u32_le(n.0);
        }
        Addr::Client(c) => {
            buf.put_u8(ADDR_CLIENT);
            buf.put_u32_le(c.0);
        }
        Addr::Stage { node, role, index } => {
            buf.put_u8(ADDR_STAGE);
            buf.put_u32_le(node.0);
            buf.put_u8(match role {
                StageRole::Batcher => 0,
                StageRole::Executor => 1,
            });
            buf.put_u32_le(index);
        }
    }
    buf
}

/// Decodes a hello payload.
pub fn decode_hello(payload: &[u8]) -> io::Result<Addr> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 5 {
        return Err(bad("truncated hello"));
    }
    match buf.get_u8() {
        ADDR_NODE => Ok(Addr::Node(NodeId(buf.get_u32_le()))),
        ADDR_CLIENT => Ok(Addr::Client(ClientId(buf.get_u32_le()))),
        ADDR_STAGE => {
            if buf.remaining() < 9 {
                return Err(bad("truncated stage hello"));
            }
            let node = NodeId(buf.get_u32_le());
            let role = match buf.get_u8() {
                0 => StageRole::Batcher,
                1 => StageRole::Executor,
                _ => return Err(bad("invalid stage role")),
            };
            Ok(Addr::Stage {
                node,
                role,
                index: buf.get_u32_le(),
            })
        }
        _ => Err(bad("invalid hello tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_messages::ClientMsg;
    use iss_types::{Request, RequestId};

    /// Yields its pieces one `read` call at a time (never more than one
    /// piece per call), counting the calls.
    struct Pieces<'a> {
        pieces: std::collections::VecDeque<&'a [u8]>,
        reads: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(piece) = self.pieces.front_mut() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            *piece = &piece[n..];
            if piece.is_empty() {
                self.pieces.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        // Message frames and raw frames (one of them empty), all appended
        // to one buffer, as a writer burst or a client reply batch is.
        let mut expected: Vec<Option<NetMsg>> = (0..40u64)
            .map(|i| {
                Some(NetMsg::Client(if i % 3 == 0 {
                    ClientMsg::Request(Request::new(ClientId(1), i, vec![i as u8; i as usize * 7]))
                } else {
                    ClientMsg::Response {
                        request: RequestId::new(ClientId(1), i),
                        seq_nr: i,
                    }
                }))
            })
            .collect();
        expected.insert(17, None);
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        for item in &expected {
            starts.push(wire.len());
            match item {
                Some(msg) => append_msg_frame(&mut wire, msg).unwrap(),
                None => write_frame(&mut wire, b"").unwrap(),
            }
        }
        // The first read ends in the middle of frame 30's payload.
        let split = starts[30] + 6;
        assert!(split < starts[31]);
        let mut reader = std::io::BufReader::with_capacity(
            64 << 10,
            Pieces {
                pieces: [&wire[..split], &wire[split..]].into(),
                reads: 0,
            },
        );
        for item in &expected {
            let payload = read_frame(&mut reader).unwrap();
            match item {
                Some(msg) => assert_eq!(&decode_msg(payload).unwrap(), msg),
                None => assert!(payload.is_empty()),
            }
        }
        assert!(read_frame(&mut reader).is_err(), "stream exhausted");
        // One read per piece plus the one that saw EOF: the buffered reader
        // never costs a read per frame.
        assert_eq!(reader.get_ref().reads, 3);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());
    }

    #[test]
    fn hello_roundtrips_for_every_addr_kind() {
        for addr in [
            Addr::Node(NodeId(3)),
            Addr::Client(ClientId(17)),
            Addr::Stage {
                node: NodeId(1),
                role: StageRole::Batcher,
                index: 2,
            },
            Addr::Stage {
                node: NodeId(0),
                role: StageRole::Executor,
                index: 0,
            },
        ] {
            assert_eq!(decode_hello(&encode_hello(addr)).unwrap(), addr);
        }
        assert!(decode_hello(&[9, 0, 0, 0, 0]).is_err());
        assert!(decode_hello(&[0, 1]).is_err());
    }

    #[test]
    fn messages_roundtrip_through_frame_payloads() {
        let msg = NetMsg::Client(ClientMsg::Response {
            request: RequestId::new(ClientId(1), 4),
            seq_nr: 9,
        });
        let payload = encode_msg(&msg).unwrap();
        assert_eq!(decode_msg(payload).unwrap(), msg);
        let req = NetMsg::Client(ClientMsg::Request(Request::new(
            ClientId(1),
            5,
            vec![1u8; 32],
        )));
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_msg(&req).unwrap()).unwrap();
        let decoded = decode_msg(read_frame(&mut &wire[..]).unwrap()).unwrap();
        assert_eq!(decoded, req);
    }
}
