//! Messages of the Mir-BFT-style baseline (`iss_core::Mode::Mir`).
//!
//! Mir-BFT multiplexes PBFT instances like ISS but relies on an *epoch
//! primary* and a stop-the-world epoch change (Section 7 and the comparison
//! in Section 6.4.1). The baseline reuses the PBFT message set for ordering
//! and adds the epoch-change messages.

use crate::pbft::PbftMsg;
use crate::{DIGEST_WIRE, HEADER_WIRE, SIG_WIRE};
use bytes::Bytes;
use iss_types::EpochNr;

/// Mir-BFT baseline messages.
#[derive(Clone, Debug, PartialEq)]
pub enum MirMsg {
    /// An ordering-protocol message of the PBFT instance led by `leader_idx`
    /// within epoch `epoch`.
    Pbft {
        /// Epoch the instance belongs to.
        epoch: EpochNr,
        /// Index of the leader / instance within the epoch.
        leader_idx: u32,
        /// The wrapped PBFT message.
        inner: PbftMsg,
    },
    /// A node asks the epoch primary to advance to the next epoch (gracefully
    /// at the end of an epoch, or ungracefully when the primary is suspected).
    EpochChangeReq {
        /// The epoch the sender wants to enter.
        next_epoch: EpochNr,
        /// Signature by the sender.
        signature: Bytes,
    },
    /// The epoch primary announces the configuration of the next epoch.
    NewEpoch {
        /// The new epoch.
        epoch: EpochNr,
        /// Digest of the epoch configuration (leaders, buckets).
        config_digest: [u8; 32],
    },
}

impl MirMsg {
    /// Approximate size of the message on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            MirMsg::Pbft { inner, .. } => 12 + inner.wire_size(),
            MirMsg::EpochChangeReq { .. } => HEADER_WIRE + 8 + SIG_WIRE,
            MirMsg::NewEpoch { .. } => HEADER_WIRE + 8 + DIGEST_WIRE,
        }
    }

    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            MirMsg::Pbft { inner, .. } => inner.num_requests(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{Batch, ClientId, Request};

    #[test]
    fn wrapped_pbft_preserves_weight() {
        let inner = PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 0,
            batch: Some(Batch::new(vec![Request::synthetic(ClientId(0), 0, 500); 4])),
            digest: [0; 32],
        };
        let m = MirMsg::Pbft {
            epoch: 0,
            leader_idx: 1,
            inner: inner.clone(),
        };
        assert!(m.wire_size() >= inner.wire_size());
        assert_eq!(m.num_requests(), 4);
    }

    #[test]
    fn epoch_change_messages_small() {
        assert!(
            MirMsg::EpochChangeReq {
                next_epoch: 2,
                signature: vec![0u8; 64].into()
            }
            .wire_size()
                < 200
        );
        assert!(
            MirMsg::NewEpoch {
                epoch: 2,
                config_digest: [0; 32]
            }
            .wire_size()
                < 100
        );
    }
}
