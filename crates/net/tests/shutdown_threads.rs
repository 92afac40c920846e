//! `TcpHandle::shutdown` leaves no thread behind: every reader sees EOF
//! once the writer and protocol threads shut their sockets down. This is
//! its own test binary, so no other test's threads are counted.

use iss_net::{TcpCluster, TcpClusterConfig};
use iss_types::Duration;
use std::time::{Duration as StdDuration, Instant};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux lists a process's threads under /proc/self/task")
        .count()
}

#[test]
fn shutting_a_cluster_down_ends_every_thread_it_started() {
    let before = threads();
    let mut cfg = TcpClusterConfig::new(4);
    cfg.num_clients = 2;
    cfg.total_rate = 400.0;
    cfg.run_for = Duration::from_secs(10);
    let cluster = TcpCluster::launch(cfg).expect("cluster boots");
    let commits = cluster.commits();
    let nodes = cluster.node_ids();

    // Deliveries at every node mean every replica-to-replica connection,
    // with its two readers, is up.
    let deadline = Instant::now() + StdDuration::from_secs(30);
    while !nodes
        .iter()
        .all(|n| commits.lock().unwrap().delivered_at(*n) >= 100)
    {
        assert!(Instant::now() < deadline, "cluster failed to deliver");
        std::thread::sleep(StdDuration::from_millis(50));
    }
    let running = threads();
    assert!(
        running > before,
        "{running} threads running, {before} before"
    );

    cluster.shutdown();
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(50));
    }
    assert_eq!(
        threads(),
        before,
        "threads left behind by a shut-down cluster ({running} while running)"
    );
}
