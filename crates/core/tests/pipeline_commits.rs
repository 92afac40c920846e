//! Commits that reach a pipelined orderer through state transfer must reach
//! its batcher stages exactly like SB deliveries do: the owning batcher gets
//! a `StageMsg::Committed`, so it drops its queued copy of every ordered
//! request instead of proposing it again.

use bytes::BytesMut;
use iss_core::orderer::FnOrdererFactory;
use iss_core::{
    batcher_for, CheckpointManager, EpochConfig, IssLog, IssNode, NodeOptions, NullSink,
    PipelineOptions,
};
use iss_crypto::{KeyPair, SignatureRegistry};
use iss_messages::codec::encode_log;
use iss_messages::isscp::LogEntry;
use iss_messages::{IssMsg, NetMsg, StageMsg};
use iss_runtime::driver::{Driver, Event, SansIo};
use iss_runtime::process::{Action, Addr, StageRole};
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_storage::record::{encode_policy, PolicyState};
use iss_types::{Batch, ClientId, IssConfig, NodeId, Request, RequestId, SeqNr, Time};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const BATCHERS: u32 = 2;

fn config() -> IssConfig {
    let mut config = IssConfig::pbft(4);
    config.min_epoch_length = 8;
    config.client_signatures = false;
    config
}

/// Node 0 with two batcher stages and one executor, started.
fn pipelined_node(registry: &Arc<SignatureRegistry>) -> SansIo<NetMsg> {
    let mut opts = NodeOptions::new(config());
    opts.pipeline = Some(PipelineOptions {
        batchers: BATCHERS,
        executors: 1,
        counters: None,
    });
    let factory = FnOrdererFactory::new("reference", |id, seg| {
        Box::new(ReferenceSb::new(id, seg)) as Box<dyn SbInstance>
    });
    let node = IssNode::new(
        NodeId(0),
        opts,
        Box::new(factory),
        Arc::clone(registry),
        Rc::new(RefCell::new(NullSink)),
    );
    let mut driver = SansIo::new(7);
    driver.mount(Addr::Node(NodeId(0)), Box::new(node));
    driver.handle(Time::ZERO, Event::Start);
    driver
}

/// One single-request batch per sequence number in `0..=last`.
fn entries(last: SeqNr) -> Vec<(SeqNr, Option<Batch>)> {
    (0..=last)
        .map(|sn| {
            let req = Request::synthetic(ClientId(sn as u32 % 4), sn, 16);
            (sn, Some(Batch::new(vec![req])))
        })
        .collect()
}

/// The request ids each batcher was told are committed, by batcher index.
fn committed_per_batcher(actions: &[Action<NetMsg>]) -> Vec<Vec<RequestId>> {
    let mut out = vec![Vec::new(); BATCHERS as usize];
    for action in actions {
        if let Action::Send {
            to:
                Addr::Stage {
                    node: NodeId(0),
                    role: StageRole::Batcher,
                    index,
                },
            msg: NetMsg::Stage(StageMsg::Committed { requests }),
        } = action
        {
            out[*index as usize].extend_from_slice(requests);
        }
    }
    out
}

/// Every request of `entries`, grouped by the batcher owning its bucket.
fn expected_per_batcher(entries: &[(SeqNr, Option<Batch>)]) -> Vec<Vec<RequestId>> {
    let config = config();
    let mut out = vec![Vec::new(); BATCHERS as usize];
    for (_, batch) in entries {
        for req in batch.iter().flat_map(Batch::requests) {
            let bucket = req.id.bucket(config.num_buckets());
            out[batcher_for(bucket, config.num_nodes, BATCHERS) as usize].push(req.id);
        }
    }
    out
}

#[test]
fn state_response_commit_notifies_the_owning_batcher() {
    let registry = Arc::new(SignatureRegistry::with_processes(4, 4));
    let mut node = pipelined_node(&registry);
    let transferred = entries(5);
    let response = IssMsg::StateResponse {
        epoch: 0,
        entries: transferred
            .iter()
            .map(|(seq_nr, batch)| LogEntry {
                seq_nr: *seq_nr,
                batch: batch.clone(),
            })
            .collect(),
        root: [0u8; 32],
        proof: Vec::new(),
    };
    let actions = node.handle(
        Time::from_millis(1),
        Event::Message {
            from: Addr::Node(NodeId(1)),
            msg: NetMsg::Iss(response),
        },
    );
    let expected = expected_per_batcher(&transferred);
    assert!(
        expected.iter().all(|ids| !ids.is_empty()),
        "both batchers own some"
    );
    assert_eq!(committed_per_batcher(&actions), expected);
}

#[test]
fn snapshot_install_commit_notifies_the_owning_batcher() {
    let registry = Arc::new(SignatureRegistry::with_processes(4, 4));
    let mut node = pipelined_node(&registry);
    let config = config();
    let epoch0 = EpochConfig::build(&config, 0, 0, config.all_nodes());
    let last = epoch0.max_seq_nr();
    let transferred = entries(last);
    let mut log = IssLog::new();
    for (sn, batch) in &transferred {
        log.commit(*sn, batch.clone(), NodeId((*sn % 4) as u32));
    }
    let root = CheckpointManager::epoch_root(&log, 0, last);
    // A stable checkpoint: 2f+1 = 3 peers sign epoch 0's root.
    let proof = (1..4)
        .map(|n| {
            let mut peer = CheckpointManager::new(
                NodeId(n),
                KeyPair::for_node(NodeId(n)),
                Arc::clone(&registry),
                3,
            );
            let IssMsg::Checkpoint { signature, .. } = peer.make_checkpoint(0, last, root) else {
                unreachable!("make_checkpoint builds a CHECKPOINT");
            };
            (NodeId(n), signature)
        })
        .collect();
    let data = bytes::Bytes::from(encode_log(&transferred));
    let mut policy = BytesMut::new();
    encode_policy(&PolicyState::default(), &mut policy);
    let chunk = IssMsg::SnapshotChunk {
        epoch: 0,
        max_seq_nr: last,
        root,
        proof,
        total_delivered: transferred.len() as u64,
        policy: policy.freeze(),
        offset: 0,
        total_len: data.len() as u32,
        data,
        done: true,
    };
    let actions = node.handle(
        Time::from_millis(1),
        Event::Message {
            from: Addr::Node(NodeId(1)),
            msg: NetMsg::Iss(chunk),
        },
    );
    assert_eq!(
        committed_per_batcher(&actions),
        expected_per_batcher(&transferred)
    );
}
