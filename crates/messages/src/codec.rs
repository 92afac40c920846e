//! A small hand-written binary codec.
//!
//! Used by the state-transfer path and by the persistence example to encode
//! requests, batches and log entries into a compact, self-describing binary
//! format. The codec is deliberately simple (length-prefixed little-endian
//! fields) and fully round-trip tested, including property-based tests.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_types::{Batch, ClientId, Error, Request, Result, SeqNr};

/// Encodes a request.
pub fn encode_request(req: &Request, buf: &mut impl BufMut) {
    buf.put_u32_le(req.id.client.0);
    buf.put_u64_le(req.id.timestamp);
    buf.put_u32_le(req.payload_size);
    buf.put_u32_le(req.payload.len() as u32);
    buf.put_slice(&req.payload);
    buf.put_u32_le(req.signature.len() as u32);
    buf.put_slice(&req.signature);
}

/// Decodes a request.
///
/// Zero-copy: the decoded payload and signature are sub-slices of the input
/// buffer sharing its allocation (`Buf::copy_to_bytes` on a [`Bytes`] does
/// not copy), so decoding a batch of requests performs no per-request
/// payload allocation.
///
/// Trade-off: each decoded request keeps the *whole* input buffer's
/// allocation alive for as long as the request lives. Decode one wire unit
/// (one batch / one state-transfer chunk) per buffer — as this codec's
/// entry points do — so a surviving request pins at most its own chunk; if
/// a decoded request must outlive its buffer by a lot, copy it out
/// explicitly (`Bytes::copy_from_slice(&req.payload)`).
pub fn decode_request(buf: &mut Bytes) -> Result<Request> {
    if buf.remaining() < 20 {
        return Err(Error::Codec("truncated request header".into()));
    }
    let client = ClientId(buf.get_u32_le());
    let timestamp = buf.get_u64_le();
    let payload_size = buf.get_u32_le();
    let payload_len = buf.get_u32_le() as usize;
    if buf.remaining() < payload_len {
        return Err(Error::Codec("truncated request payload".into()));
    }
    let payload = buf.copy_to_bytes(payload_len);
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated signature length".into()));
    }
    let sig_len = buf.get_u32_le() as usize;
    if buf.remaining() < sig_len {
        return Err(Error::Codec("truncated signature".into()));
    }
    let signature = buf.copy_to_bytes(sig_len);
    let mut req = Request::new(client, timestamp, payload);
    req.payload_size = payload_size;
    req.signature = signature;
    Ok(req)
}

/// Encodes a batch.
pub fn encode_batch(batch: &Batch, buf: &mut impl BufMut) {
    buf.put_u32_le(batch.len() as u32);
    for req in batch.requests() {
        encode_request(req, buf);
    }
}

/// Decodes a batch.
pub fn decode_batch(buf: &mut Bytes) -> Result<Batch> {
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated batch header".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut requests = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        requests.push(decode_request(buf)?);
    }
    Ok(Batch::new(requests))
}

/// Encodes a log entry `(sn, Option<Batch>)`; ⊥ is encoded with a zero tag.
pub fn encode_log_entry(sn: SeqNr, batch: &Option<Batch>, buf: &mut impl BufMut) {
    buf.put_u64_le(sn);
    match batch {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            encode_batch(b, buf);
        }
    }
}

/// Decodes a log entry.
pub fn decode_log_entry(buf: &mut Bytes) -> Result<(SeqNr, Option<Batch>)> {
    if buf.remaining() < 9 {
        return Err(Error::Codec("truncated log entry".into()));
    }
    let sn = buf.get_u64_le();
    let tag = buf.get_u8();
    match tag {
        0 => Ok((sn, None)),
        1 => Ok((sn, Some(decode_batch(buf)?))),
        t => Err(Error::Codec(format!("invalid log entry tag {t}"))),
    }
}

/// Encodes a whole log (sequence of entries) into a byte vector.
pub fn encode_log(entries: &[(SeqNr, Option<Batch>)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(entries.len() as u64);
    for (sn, batch) in entries {
        encode_log_entry(*sn, batch, &mut buf);
    }
    buf.to_vec()
}

/// Decodes a whole log.
pub fn decode_log(data: &[u8]) -> Result<Vec<(SeqNr, Option<Batch>)>> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 8 {
        return Err(Error::Codec("truncated log".into()));
    }
    let n = buf.get_u64_le() as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        entries.push(decode_log_entry(&mut buf)?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request(i: u32) -> Request {
        Request::new(ClientId(i), i as u64 * 3, vec![i as u8; (i % 7) as usize])
            .with_signature(vec![0xAB; 64])
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request(5);
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        let mut bytes = buf.freeze();
        let decoded = decode_request(&mut bytes).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn batch_roundtrip() {
        let batch = Batch::new((0..10).map(sample_request).collect());
        let mut buf = BytesMut::new();
        encode_batch(&batch, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_batch(&mut bytes).unwrap(), batch);
    }

    #[test]
    fn log_roundtrip_with_nil_entries() {
        let entries = vec![
            (0u64, Some(Batch::new(vec![sample_request(1)]))),
            (1u64, None),
            (2u64, Some(Batch::empty())),
        ];
        let encoded = encode_log(&entries);
        assert_eq!(decode_log(&encoded).unwrap(), entries);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let entries = vec![(0u64, Some(Batch::new(vec![sample_request(1)])))];
        let encoded = encode_log(&entries);
        for cut in [0, 1, 5, 9, encoded.len() - 1] {
            assert!(decode_log(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        // The decoded payload must point into the encode buffer's allocation
        // rather than a fresh copy.
        let req = Request::new(ClientId(1), 2, vec![0xEE; 256]).with_signature(vec![0xDD; 64]);
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        let wire = buf.freeze();
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        let mut cursor = wire.clone();
        let decoded = decode_request(&mut cursor).unwrap();
        assert!(wire_range.contains(&(decoded.payload.as_ptr() as usize)));
        assert!(wire_range.contains(&(decoded.signature.as_ptr() as usize)));
    }

    #[test]
    fn invalid_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u8(7);
        let mut bytes = buf.freeze();
        assert!(decode_log_entry(&mut bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(
            client in 0u32..1000,
            ts in 0u64..1_000_000,
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            sig in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let req = Request::new(ClientId(client), ts, payload).with_signature(sig);
            let mut buf = BytesMut::new();
            encode_request(&req, &mut buf);
            let mut bytes = buf.freeze();
            prop_assert_eq!(decode_request(&mut bytes).unwrap(), req);
        }

        #[test]
        fn prop_log_roundtrip(
            lens in proptest::collection::vec(proptest::option::of(0usize..5), 0..8)
        ) {
            let entries: Vec<(SeqNr, Option<Batch>)> = lens
                .iter()
                .enumerate()
                .map(|(sn, l)| {
                    (sn as u64, l.map(|l| Batch::new((0..l as u32).map(sample_request).collect())))
                })
                .collect();
            let encoded = encode_log(&entries);
            prop_assert_eq!(decode_log(&encoded).unwrap(), entries);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_log(&data);
            let mut bytes = Bytes::copy_from_slice(&data);
            let _ = decode_request(&mut bytes);
        }
    }
}
