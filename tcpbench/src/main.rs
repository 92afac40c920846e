//! Wall-clock benchmark of a 4-replica ISS-PBFT cluster on loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path tcpbench/Cargo.toml -- \
//!     --workload steady|saturate|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! One run is several sessions. Each boots a fresh cluster, loads it from an
//! in-process generator, measures one whole epoch after a warm-up epoch,
//! drains and checks that the outputs are correct. The run pools the
//! sessions' windows and prints the metrics; the last line of standard
//! output is one JSON object. See `README.md` beside this file for the
//! metrics, workloads and layers.

mod cluster;
mod generator;
mod report;
mod stats;
mod sys;

use cluster::{lock, Clock, Cluster};
use generator::{Control, Generator, Load};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

/// Open-loop rate of `steady` and `durable`, requests/s.
const STEADY_RATE: f64 = 4000.0;
/// Requests in flight in `saturate`.
const SATURATE_OUTSTANDING: usize = 16384;
/// Cluster boots per run, counting the sessions' own; `setup_s` is their
/// median.
const SETUP_BOOTS: usize = 5;
/// Nominal epoch length: 256 sequence numbers at 32 batches/s.
const EPOCH_SECONDS: u64 = 8;
/// How long after the window end unanswered window requests may still
/// complete before they count as failed.
const DRAIN: Duration = Duration::from_secs(5);
/// A run is invalid, not slow, when the open-loop generator runs later
/// than this (p99 against its schedule). A send late by `lag` misses its
/// batch with probability `lag / 125 ms`, the propose interval; at 50 ms
/// that is 40%, and the generator starts to shape the latency it measures.
/// Host steal alone has pushed the lag to 20 ms ...
const GEN_LAG_LIMIT_MS: f64 = 50.0;
/// ... or uses more than this share of one core.
const GEN_CPU_LIMIT: f64 = 0.5;

pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    pub durable: bool,
}

fn workload(name: &str) -> Option<Workload> {
    let open = Load::Open { rate: STEADY_RATE };
    Some(match name {
        "steady" => Workload {
            name: "steady",
            load: open,
            durable: false,
        },
        "saturate" => Workload {
            name: "saturate",
            load: Load::Closed {
                outstanding: SATURATE_OUTSTANDING,
            },
            durable: false,
        },
        "durable" => Workload {
            name: "durable",
            load: open,
            durable: true,
        },
        _ => return None,
    })
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tcpbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let wl = workload(&args.workload).ok_or(format!(
        "unknown workload {:?} (steady, saturate, durable)",
        args.workload
    ))?;
    // One measured epoch per session. Each session boots its own cluster,
    // so a run pools as many independent draws of the leaders' timer phases
    // as it has sessions (see README.md).
    let sessions = (args.seconds / EPOCH_SECONDS).max(1) as usize;
    let out_dir = PathBuf::from(".tcpbench/out").join(wl.name);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
    let storage_root = wl
        .durable
        .then(|| PathBuf::from(".tcpbench/data").join(wl.name));
    let clock = Clock::new();

    // Boots beyond the sessions' own only measure set-up.
    let mut setups = Vec::with_capacity(SETUP_BOOTS.max(sessions));
    for _ in sessions..SETUP_BOOTS {
        let (cluster, gen, setup) = boot(&args, storage_root.as_ref(), clock)?;
        setups.push(setup);
        drop(gen);
        cluster.shutdown();
        sys::release_freed_memory();
    }
    let mut runs = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let (cluster, gen, setup) = boot(&args, storage_root.as_ref(), clock)?;
        setups.push(setup);
        runs.push(session(cluster, gen, wl.load, args.trace, clock)?);
    }
    let recover_ms = match &storage_root {
        Some(root) if args.trace => report::time_recovery(&root.join("node-0"))?,
        _ => 0.0,
    };
    if let Some(root) = &storage_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let run = report::Run {
        args: &args,
        workload: &wl,
        setups,
        sessions: runs,
        recover_ms,
        context: sys::machine_context(std::path::Path::new(".tcpbench")),
        out_dir,
    };
    run.finish(GEN_LAG_LIMIT_MS, GEN_CPU_LIMIT)
}

/// Boots a fresh cluster (on a wiped storage directory) and connects the
/// generator. Returns them with the set-up time: boot start to the first
/// completed request, with every replica dialed by every peer.
fn boot(
    args: &Args,
    storage_root: Option<&PathBuf>,
    clock: Clock,
) -> Result<(Cluster, Generator, f64), String> {
    if let Some(root) = storage_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let iss = cluster::iss_config(args.seed);
    let t = clock.ns();
    let cluster = Cluster::boot(args.seed, storage_root, args.trace, clock)
        .map_err(|e| format!("boot: {e}"))?;
    let mut gen = Generator::connect(&cluster.addrs, iss.num_buckets(), iss.f(), args.seed, clock)
        .map_err(|e| format!("connect: {e}"))?;
    gen.probe(Duration::from_secs(10))
        .map_err(|e| format!("set-up probe: {e}"))?;
    let deadline = clock.ns() + 10_000_000_000;
    while !cluster.fully_connected() {
        if clock.ns() > deadline {
            return Err("replicas never connected to every peer".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((cluster, gen, (clock.ns() - t) as f64 / 1e9))
}

/// Loads a booted cluster through its warm-up epoch and one measured epoch,
/// drains, waits for the replicas to agree on what they delivered, and
/// shuts the cluster down.
fn session(
    cluster: Cluster,
    gen: Generator,
    load: Load,
    traced: bool,
    clock: Clock,
) -> Result<report::Session, String> {
    let ctl = Arc::new(Control::new());
    let load_start = clock.ns();
    let generator = {
        let ctl = Arc::clone(&ctl);
        std::thread::Builder::new()
            .name(sys::GENERATOR_THREAD.into())
            .spawn(move || gen.run(load, load_start, &ctl))
            .map_err(|e| format!("spawn generator: {e}"))?
    };

    // Watch epoch boundaries; sample the layers at the window's edges. Give
    // up at three times the nominal time to the window's end, so a stuck
    // session still ends well within the run's time limit.
    let give_up = load_start + EPOCH_SECONDS * 2 * 3 * 1_000_000_000;
    let mut at_start: Option<report::Sample> = None;
    let mut depths = Vec::new();
    let (window, at_end) = loop {
        if generator.is_finished() || clock.ns() > give_up {
            ctl.abort.store(true, SeqCst);
            let why = match generator.join() {
                Ok(Err(e)) => format!("generator failed: {e}"),
                Err(_) => "generator panicked".into(),
                Ok(Ok(_)) => "no epoch-aligned window within the time limit".into(),
            };
            cluster.shutdown();
            return Err(why);
        }
        let boundaries = cluster.epoch_boundaries();
        if at_start.is_none() && stats::first_measured_epoch(&boundaries, load_start).is_some() {
            at_start = Some(report::Sample::take(&cluster));
        }
        if let Some(w) = stats::select_window(&boundaries, load_start) {
            break (w, report::Sample::take(&cluster));
        }
        if traced && at_start.is_some() {
            depths.extend(cluster.mailbox_depths().map(|d| d as f64));
            std::thread::sleep(Duration::from_millis(10));
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let at_start = at_start.expect("the window opens before it closes");
    ctl.window_end.store(window.end, SeqCst);
    ctl.deadline
        .store(window.end + DRAIN.as_nanos() as u64, SeqCst);
    let gen = match generator.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("generator failed: {e}")),
        Err(_) => return Err("generator panicked".into()),
    };

    // Quiesce: every replica has delivered the same count, stable for 200 ms.
    let quiet_deadline = clock.ns() + 5_000_000_000;
    let mut last = cluster.delivered_counts();
    let mut stable_since = clock.ns();
    while clock.ns() < quiet_deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = cluster.delivered_counts();
        if now != last || now.windows(2).any(|w| w[0] != w[1]) {
            last = now;
            stable_since = clock.ns();
        } else if clock.ns() - stable_since > 200_000_000 {
            break;
        }
    }
    let net_end = cluster.net_totals();
    let events = cluster
        .events
        .iter()
        .map(|e| std::mem::take(&mut *lock(e)))
        .collect();
    let traces = cluster
        .traces
        .iter()
        .map(|t| std::mem::take(&mut *lock(t)))
        .collect();
    cluster.shutdown();
    sys::release_freed_memory();
    Ok(report::Session {
        window,
        at_start,
        at_end,
        net_end,
        depths,
        events,
        traces,
        gen,
    })
}
