//! Whole-cluster equivalence: a deployment whose nodes run on the dense
//! [`iss_core::EpochState`] arena must produce a *bit-identical* report to
//! the same deployment on the [`iss_core::ReferenceNodeState`] `HashMap`
//! oracle — same delivered count, same per-second timeline, same epoch
//! transition times, same message and byte totals. The epoch-state refactor
//! is pure bookkeeping; any observable drift is a bug.

use iss_sim::cluster::{run_scenario, CrashTiming, Report};
use iss_sim::{Protocol, Scenario, ScenarioBuilder};
use iss_types::{Duration, NodeId};

fn assert_identical(dense: &Report, reference: &Report, label: &str) {
    assert_eq!(
        dense.delivered, reference.delivered,
        "{label}: delivered diverged"
    );
    assert_eq!(
        dense.timeline, reference.timeline,
        "{label}: timeline diverged"
    );
    assert_eq!(
        dense.epochs, reference.epochs,
        "{label}: epoch transitions diverged"
    );
    assert_eq!(
        dense.nil_committed, reference.nil_committed,
        "{label}: nil commits diverged"
    );
    assert_eq!(
        dense.messages_sent, reference.messages_sent,
        "{label}: message count diverged"
    );
    assert_eq!(
        dense.bytes_sent, reference.bytes_sent,
        "{label}: byte count diverged"
    );
    assert_eq!(
        dense.messages_dropped, reference.messages_dropped,
        "{label}: drop count diverged"
    );
    assert_eq!(
        dense.throughput.to_bits(),
        reference.throughput.to_bits(),
        "{label}: throughput diverged"
    );
    assert_eq!(
        dense.mean_latency, reference.mean_latency,
        "{label}: mean latency diverged"
    );
    assert_eq!(
        dense.p95_latency, reference.p95_latency,
        "{label}: p95 latency diverged"
    );
}

fn run_both(scenario: ScenarioBuilder, label: &str) {
    let dense = run_scenario(scenario.clone().reference_node_state(false).build());
    let reference = run_scenario(scenario.reference_node_state(true).build());
    assert!(
        dense.delivered > 0,
        "{label}: the run must actually deliver requests"
    );
    assert_identical(&dense, &reference, label);
}

#[test]
fn fault_free_cluster_is_bit_identical_across_state_impls() {
    let scenario = Scenario::builder(Protocol::Pbft, 4)
        .open_loop(4, 600.0)
        .duration(Duration::from_secs(12))
        .warmup(Duration::from_secs(2));
    run_both(scenario, "fault-free pbft n=4");
}

#[test]
fn crashy_cluster_with_epoch_changes_is_bit_identical_across_state_impls() {
    // A crash plus several epoch transitions exercises the GC, timer
    // retirement and ⊥-resurrection paths of both state implementations.
    let scenario = Scenario::builder(Protocol::Pbft, 4)
        .open_loop(4, 500.0)
        .duration(Duration::from_secs(16))
        .warmup(Duration::from_secs(2))
        .crash(NodeId(0), CrashTiming::EpochStart);
    run_both(scenario, "epoch-start crash pbft n=4");
}
