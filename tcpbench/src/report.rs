//! Turning one run's observations into metrics: the end-to-end metrics of
//! untraced runs, the per-layer metrics of traced runs, the correctness
//! gate, the generator-health guard, and the artifacts written beside them.

use crate::cluster::{Cluster, NetTotals, NodeEvents, NodeTrace, Span, NODES};
use crate::generator::{GenResult, Load, Record};
use crate::stats::{check_replicas, mean, percentile, quantile, sorted, Window};
use crate::sys::{self, ClassTotals, ThreadClass, ThreadSample};
use crate::{Args, Workload};
use iss::storage::{FileStorage, Storage};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The layers' cumulative counters at one window edge.
pub struct Sample {
    threads: BTreeMap<u32, ThreadSample>,
    process_cpu_ns: u64,
    steal_s: f64,
    net: NetTotals,
    wal_bytes: u64,
}

impl Sample {
    pub fn take(cluster: &Cluster) -> Sample {
        Sample {
            threads: sys::sample_threads(),
            process_cpu_ns: sys::process_cpu_ns(),
            steal_s: sys::host_steal_s(),
            net: cluster.net_totals(),
            wal_bytes: cluster
                .traces
                .iter()
                .map(|t| crate::cluster::lock(t).wal_bytes_appended)
                .sum(),
        }
    }
}

/// Time to open one replica's storage directory and `recover()` it, ms.
pub fn time_recovery(dir: &Path) -> Result<f64, String> {
    let t = std::time::Instant::now();
    let storage = FileStorage::open(dir).map_err(|e| format!("reopen {dir:?}: {e}"))?;
    storage
        .recover()
        .map_err(|e| format!("recover {dir:?}: {e}"))?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What one session observed: one fresh cluster, one measured epoch.
pub struct Session {
    pub window: Window,
    pub at_start: Sample,
    pub at_end: Sample,
    pub net_end: NetTotals,
    /// Mailbox depths sampled every 10 ms in the window (traced runs).
    pub depths: Vec<f64>,
    pub events: Vec<NodeEvents>,
    pub traces: Vec<NodeTrace>,
    pub gen: GenResult,
}

impl Session {
    /// Requests started in the window, with their timestamps.
    fn window_requests(&self) -> impl Iterator<Item = (usize, &Record)> {
        self.gen
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| self.window.contains(r.start))
    }

    /// Requests whose f+1-th reply arrived inside the window.
    fn completed(&self) -> usize {
        self.gen
            .records
            .iter()
            .filter(|r| r.done != 0 && self.window.contains(r.done))
            .count()
    }

    fn classes(&self) -> ClassTotals {
        ClassTotals::between(&self.at_start.threads, &self.at_end.threads)
    }
}

/// Everything one run observed: its sessions, pooled.
pub struct Run<'a> {
    pub args: &'a Args,
    pub workload: &'a Workload,
    pub setups: Vec<f64>,
    pub sessions: Vec<Session>,
    pub recover_ms: f64,
    pub context: String,
    pub out_dir: PathBuf,
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

impl Run<'_> {
    fn window_requests(&self) -> impl Iterator<Item = &Record> {
        self.sessions
            .iter()
            .flat_map(|s| s.window_requests().map(|(_, r)| r))
    }

    fn completed(&self) -> usize {
        self.sessions.iter().map(Session::completed).sum()
    }

    fn seconds(&self) -> f64 {
        self.sessions.iter().map(|s| s.window.seconds()).sum()
    }

    fn classes(&self) -> ClassTotals {
        let mut total = ClassTotals::default();
        for s in &self.sessions {
            total += s.classes();
        }
        total
    }

    fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let latencies = sorted(self.window_requests().map(latency_ms).collect());
        let n = latencies.len();
        let too_few = |p| format!("too few window requests ({n}) for p{p}");
        let p50 = percentile(&latencies, 50).ok_or_else(|| too_few(50))?;
        let p99 = percentile(&latencies, 99).ok_or_else(|| too_few(99))?;
        let done = self.completed();
        let classes = self.classes();
        let cluster_cpu = classes.cpu(ThreadClass::Node) + classes.cpu(ThreadClass::Transport);
        let setups = sorted(self.setups.clone());
        Ok(vec![
            metric("goodput_rps", done as f64 / self.seconds(), "1/s", done),
            metric("latency_p50_ms", p50, "ms", n),
            metric("latency_p99_ms", p99, "ms", n),
            metric(
                "cpu_us_per_req",
                cluster_cpu as f64 / US / done as f64,
                "us",
                done,
            ),
            metric("rss_peak_mb", sys::peak_rss_mb(), "MB", 1),
            metric("setup_s", quantile(&setups, 50), "s", setups.len()),
        ])
    }

    fn per_layer(&self) -> Vec<Metric> {
        let done = self.completed().max(1);
        let per_req = |x: f64| x / done as f64;
        let classes = self.classes();
        let sessions = &self.sessions;

        // Handler calls in the windows. Per-request costs use the protocol
        // thread's CPU inside the call minus that of storage calls nested in
        // it (self time); maxima use wall time, which is what queued work
        // waits for.
        let mut self_cpu: BTreeMap<&str, u64> = BTreeMap::new();
        let (mut handler_cpu, mut handler_max, mut checkpoint_max) = (0u64, 0u64, 0u64);
        let mut view_changes = 0usize;
        for s in sessions {
            for trace in &s.traces {
                let children = child_time(&trace.handlers, &trace.storage);
                for (span, (_, child_cpu)) in trace.handlers.iter().zip(children) {
                    view_changes += usize::from(span.name == "pbft.viewchange");
                    if !s.window.contains(span.start) {
                        continue;
                    }
                    *self_cpu.entry(span.name).or_default() += span.cpu.saturating_sub(child_cpu);
                    handler_cpu += span.cpu;
                    handler_max = handler_max.max(span.ns());
                    if span.name == "iss.checkpoint" {
                        checkpoint_max = checkpoint_max.max(span.ns());
                    }
                }
            }
        }
        let self_us = |name: &str| self_cpu.get(name).map_or(0.0, |ns| *ns as f64 / US);

        // Storage spans in the windows.
        let storage_in = |name: &str| -> Vec<f64> {
            let spans = sessions.iter().flat_map(|s| {
                s.traces
                    .iter()
                    .flat_map(|t| &t.storage)
                    .filter(move |span| span.name == name && s.window.contains(span.start))
            });
            sorted(spans.map(|span| span.ns() as f64).collect())
        };
        let appends = storage_in("storage.append");
        let max_ms = |v: Vec<f64>| v.last().copied().unwrap_or(0.0) / MS;
        let storage_errors: u64 = sessions
            .iter()
            .flat_map(|s| &s.traces)
            .map(|t| t.storage_errors)
            .sum();

        // Replica-side events in the windows; batches and epochs at replica 0.
        let (mut rejected, mut transitions) = (0usize, 0usize);
        let mut batches: Vec<usize> = Vec::new();
        for s in sessions {
            let w = s.window;
            rejected += s
                .events
                .iter()
                .map(|e| e.rejected.iter().filter(|t| w.contains(**t)).count())
                .sum::<usize>();
            batches.extend(
                s.events[0]
                    .batches
                    .iter()
                    .filter(|b| w.contains(b.1))
                    .map(|b| b.0),
            );
            transitions += s.events[0]
                .epochs
                .iter()
                .filter(|e| w.contains(e.1))
                .count();
        }
        let full: Vec<f64> = batches
            .iter()
            .filter(|n| **n > 0)
            .map(|n| *n as f64)
            .collect();

        // Commit path per window request: start → f+1-th delivery → f+1-th
        // reply, and f+1-th → last delivery.
        let (mut order, mut reply, mut lag) = (Vec::new(), Vec::new(), Vec::new());
        let (mut replies, mut resends, mut answered) = (0u64, 0u64, 0usize);
        let mut gen_lag = Vec::new();
        for s in sessions {
            let mut delivered = vec![[0u64; NODES]; s.gen.records.len()];
            for (node, e) in s.events.iter().enumerate() {
                for &(_, ts, t) in &e.delivered {
                    if let Some(slot) = delivered.get_mut(ts as usize) {
                        slot[node] = t;
                    }
                }
            }
            for (ts, r) in s.window_requests() {
                gen_lag.push(r.sent.saturating_sub(r.due) as f64 / MS);
                if r.done == 0 {
                    continue;
                }
                answered += 1;
                replies += u64::from(r.replies);
                resends += u64::from(r.resends);
                let mut t = delivered[ts];
                if t.contains(&0) {
                    continue;
                }
                t.sort_unstable();
                order.push(t[1].saturating_sub(r.start) as f64 / MS);
                reply.push(r.done.saturating_sub(t[1]) as f64 / MS);
                lag.push((t[NODES - 1] - t[1]) as f64 / MS);
            }
        }
        let answered = answered.max(1) as f64;
        let node_cpu = classes.cpu(ThreadClass::Node);
        let nodes_dialed = (NODES * (NODES - 1)) as u64;
        let net = |f: fn(&NetTotals) -> u64| -> f64 {
            sessions
                .iter()
                .map(|s| f(&s.at_end.net) - f(&s.at_start.net))
                .sum::<u64>() as f64
        };
        let reconnects: u64 = sessions
            .iter()
            .map(|s| s.net_end.connects.saturating_sub(nodes_dialed))
            .sum();
        let wal_bytes: u64 = sessions
            .iter()
            .map(|s| s.at_end.wal_bytes - s.at_start.wal_bytes)
            .sum();
        let depths = sorted(sessions.iter().flat_map(|s| s.depths.clone()).collect());

        vec![
            metric(
                "net.cpu_us_per_req",
                per_req(classes.cpu(ThreadClass::Transport) as f64 / US),
                "us",
                done,
            ),
            metric(
                "net.ctx_switches_per_req",
                per_req(classes.ctx(ThreadClass::Transport) as f64),
                "count",
                done,
            ),
            metric(
                "net.frames_per_req",
                per_req(net(|n| n.frames)),
                "count",
                done,
            ),
            metric("net.bytes_per_req", per_req(net(|n| n.bytes)), "B", done),
            metric(
                "net.mailbox_depth_p99",
                quantile(&depths, 99),
                "count",
                depths.len(),
            ),
            metric("net.writer_drops", net(|n| n.drops), "count", 1),
            metric("net.reconnects", reconnects as f64, "count", 1),
            metric(
                "node.cpu_us_per_req",
                per_req(node_cpu as f64 / US),
                "us",
                done,
            ),
            metric(
                "node.intake_us_per_req",
                per_req(self_us("intake")),
                "us",
                done,
            ),
            metric(
                "node.tick_us_per_req",
                per_req(self_us("timer.propose")),
                "us",
                done,
            ),
            metric(
                "node.apply_us_per_req",
                per_req(node_cpu.saturating_sub(handler_cpu) as f64 / US),
                "us",
                done,
            ),
            metric(
                "node.checkpoint_ms_max",
                checkpoint_max as f64 / MS,
                "ms",
                1,
            ),
            metric("node.handler_ms_max", handler_max as f64 / MS, "ms", 1),
            metric(
                "node.rejected_per_req",
                per_req(rejected as f64),
                "count",
                done,
            ),
            metric(
                "pbft.preprepare_us_per_req",
                per_req(self_us("pbft.preprepare")),
                "us",
                done,
            ),
            metric(
                "pbft.vote_us_per_req",
                per_req(self_us("pbft.vote")),
                "us",
                done,
            ),
            metric("pbft.view_changes", view_changes as f64, "count", 1),
            metric("batch.reqs_per_batch", mean(&full), "count", full.len()),
            metric(
                "batch.empty_ratio",
                (batches.len() - full.len()) as f64 / batches.len().max(1) as f64,
                "ratio",
                batches.len(),
            ),
            metric("epoch.transitions", transitions as f64, "count", 1),
            metric(
                "path.order_ms_p50",
                quantile(&sorted(order), 50),
                "ms",
                lag.len(),
            ),
            metric(
                "path.reply_ms_p50",
                quantile(&sorted(reply), 50),
                "ms",
                lag.len(),
            ),
            metric(
                "replica.lag_ms_p99",
                quantile(&sorted(lag.clone()), 99),
                "ms",
                lag.len(),
            ),
            metric(
                "storage.append_us_p99",
                quantile(&appends, 99) / US,
                "us",
                appends.len(),
            ),
            metric(
                "storage.appends_per_req",
                per_req(appends.len() as f64),
                "count",
                done,
            ),
            metric(
                "storage.wal_bytes_per_req",
                per_req(wal_bytes as f64),
                "B",
                done,
            ),
            metric(
                "storage.prune_ms_max",
                max_ms(storage_in("storage.prune")),
                "ms",
                1,
            ),
            metric(
                "storage.snapshot_ms_max",
                max_ms(storage_in("storage.snapshot")),
                "ms",
                1,
            ),
            metric("storage.errors", storage_errors as f64, "count", 1),
            metric("storage.recover_ms", self.recover_ms, "ms", 1),
            metric(
                "client.replies_per_req",
                replies as f64 / answered,
                "count",
                answered as usize,
            ),
            metric(
                "client.resends_per_req",
                resends as f64 / answered,
                "count",
                answered as usize,
            ),
            metric("gen.lag_ms_p99", quantile(&sorted(gen_lag), 99), "ms", done),
            metric(
                "gen.cpu_us_per_req",
                per_req(classes.cpu(ThreadClass::Generator) as f64 / US),
                "us",
                done,
            ),
        ]
    }

    /// Violations of the correctness gate, per session: replica agreement,
    /// no duplicate delivery, equal delivered counts, and replies that agree
    /// with each other and with what the replicas delivered.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let mut found = s.gen.violations.clone();
            let logs: Vec<Vec<(u64, u64)>> = s
                .events
                .iter()
                .map(|e| e.delivered.iter().map(|&(sn, ts, _)| (sn, ts)).collect())
                .collect();
            if let Err(e) = check_replicas(&logs) {
                found.push(e);
            }
            let seq_of: HashMap<u64, u64> = logs[0].iter().map(|&(sn, ts)| (ts, sn)).collect();
            if let Some((ts, r)) = s
                .gen
                .records
                .iter()
                .enumerate()
                .find(|(ts, r)| r.done != 0 && seq_of.get(&(*ts as u64)) != Some(&r.seq_nr))
            {
                found.push(format!(
                    "request {ts} answered with seq nr {} but replica 0 delivered it at {:?}",
                    r.seq_nr,
                    seq_of.get(&(ts as u64))
                ));
            }
            v.extend(found.into_iter().map(|e| format!("session {i}: {e}")));
        }
        v
    }

    /// Prints the metrics, writes the artifacts and decides the exit code.
    pub fn finish(self, lag_limit_ms: f64, gen_cpu_limit: f64) -> Result<ExitCode, String> {
        let a = self.args;
        let attempted = self.window_requests().count();
        let failed = self.window_requests().filter(|r| r.done == 0).count();
        let e2e = self.end_to_end()?;
        let classes = self.classes();
        let delta = |f: fn(&Sample) -> f64| -> f64 {
            self.sessions
                .iter()
                .map(|s| f(&s.at_end) - f(&s.at_start))
                .sum()
        };
        let process_cpu = delta(|s| s.process_cpu_ns as f64) / 1e9;
        let class_sum = classes.cpu_ns.iter().sum::<u64>() as f64 / 1e9;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "tcpbench {} seed={} trace={} (wall-clock) {}\nload: {:?}, windows: {} sessions \
             x epoch 1 = {:.3} s, attempted {attempted}, failed {failed}",
            self.workload.name,
            a.seed,
            u8::from(a.trace),
            self.context,
            self.workload.load,
            self.sessions.len(),
            self.seconds(),
        );
        let _ = writeln!(text, "cpu reconciliation over the windows (s):");
        for class in ThreadClass::ALL {
            let _ = writeln!(
                text,
                "  {:<10} {:.4}",
                class.name(),
                classes.cpu(class) as f64 / 1e9
            );
        }
        let _ = writeln!(
            text,
            "  sum {class_sum:.4} vs process (getrusage) {process_cpu:.4}: {:.2}%",
            100.0 * class_sum / process_cpu.max(1e-9)
        );
        let _ = writeln!(
            text,
            "  host steal (all CPUs, other tenants) {:.3}",
            delta(|s| s.steal_s)
        );
        write_table(&mut text, "end-to-end", &e2e);
        text.push_str(&self.session_latency());

        let violations = self.violations();
        if !violations.is_empty() {
            print!("{text}");
            for v in &violations {
                eprintln!("tcpbench: correctness violation: {v}");
            }
            println!("{}", json(false, attempted, failed, &e2e));
            return Ok(ExitCode::from(1));
        }

        let layers = self.per_layer();
        let gen_lag = layers
            .iter()
            .find(|m| m.name == "gen.lag_ms_p99")
            .map_or(0.0, |m| m.value);
        // In closed loop the lag is the refill delay after a burst of
        // completions, not lateness against a schedule: only CPU guards it.
        let open_loop = matches!(self.workload.load, Load::Open { .. });
        let gen_share = classes.cpu(ThreadClass::Generator) as f64 / (self.seconds() * 1e9);
        if (open_loop && gen_lag > lag_limit_ms) || gen_share > gen_cpu_limit {
            print!("{text}");
            eprintln!(
                "tcpbench: run invalid: generator lag p99 {gen_lag:.3} ms (limit {lag_limit_ms}), \
                 generator CPU {:.1}% of a core (limit {:.0}%)",
                100.0 * gen_share,
                100.0 * gen_cpu_limit
            );
            return Ok(ExitCode::from(3));
        }

        let stem = self.out_dir.join(format!("seed{}", a.seed));
        let shown = if a.trace {
            write_table(&mut text, "per-layer", &layers);
            text.push_str(&self.overhead(&e2e));
            // One span file per workload, replaced by each traced run.
            self.write_spans(&self.out_dir.join("spans.jsonl"))?;
            write(&stem.with_extension("traced.txt"), &text)?;
            layers
        } else {
            let mut record = String::new();
            for m in &e2e {
                let _ = writeln!(record, "{} {}", m.name, m.value);
            }
            write(&stem.with_extension("untraced.txt"), &record)?;
            e2e
        };
        print!("{text}");
        println!("{}", json(true, attempted, failed, &shown));
        Ok(ExitCode::SUCCESS)
    }

    /// Latency p50/p99 of each session's window and of all of them pooled:
    /// on this engine one session can differ from the next by a large part
    /// of a propose tick (see README.md).
    fn session_latency(&self) -> String {
        let mut out = String::from("latency (ms) per session:");
        for (i, s) in self.sessions.iter().enumerate() {
            let lat = sorted(s.window_requests().map(|(_, r)| latency_ms(r)).collect());
            let (p50, p99) = (quantile(&lat, 50), quantile(&lat, 99));
            let _ = write!(out, "  s{i} p50 {p50:.1} p99 {p99:.1} (n={})", lat.len());
        }
        let all = sorted(self.window_requests().map(latency_ms).collect());
        let _ = writeln!(
            out,
            "  pooled p50 {:.1} p99 {:.1} (n={})",
            quantile(&all, 50),
            quantile(&all, 99),
            all.len()
        );
        out
    }

    /// Tracing overhead: this traced run against the median of the untraced
    /// runs of the same workload recorded in the output directory.
    fn overhead(&self, traced: &[Metric]) -> String {
        let mut untraced: HashMap<String, Vec<f64>> = HashMap::new();
        for entry in std::fs::read_dir(&self.out_dir)
            .into_iter()
            .flatten()
            .flatten()
        {
            if !entry
                .file_name()
                .to_string_lossy()
                .ends_with(".untraced.txt")
            {
                continue;
            }
            let body = std::fs::read_to_string(entry.path()).unwrap_or_default();
            for line in body.lines() {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        untraced.entry(k.to_string()).or_default().push(v);
                    }
                }
            }
        }
        let mut out = String::from("tracing overhead (traced minus median untraced):\n");
        for name in ["cpu_us_per_req", "latency_p50_ms"] {
            let t = traced
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            match untraced.get(name) {
                Some(v) => {
                    let u = quantile(&sorted(v.clone()), 50);
                    let _ = writeln!(
                        out,
                        "  {name}: traced {t:.3}, untraced {u:.3} over {} runs, overhead {:+.3} ({:+.1}%)",
                        v.len(),
                        t - u,
                        100.0 * (t - u) / u
                    );
                }
                None => {
                    let _ = writeln!(out, "  {name}: traced {t:.3}, no untraced run recorded yet");
                }
            }
        }
        out
    }

    /// Writes the first session's window of spans as JSONL: name, start,
    /// end, causing key, self time, and for storage calls the handler that
    /// made them. One session keeps the file bounded: a saturated window
    /// alone holds about a million spans.
    fn write_spans(&self, path: &Path) -> Result<(), String> {
        let s = &self.sessions[0];
        let io = |e: std::io::Error| format!("write {path:?}: {e}");
        let mut out = BufWriter::new(File::create(path).map_err(io)?);
        for (node, trace) in s.traces.iter().enumerate() {
            let children = child_time(&trace.handlers, &trace.storage);
            for (span, (child, child_cpu)) in trace.handlers.iter().zip(children) {
                if s.window.contains(span.start) {
                    writeln!(
                        out,
                        r#"{{"node":{node},"name":"{}","start_ns":{},"end_ns":{},"key":{},"self_ns":{},"self_cpu_ns":{}}}"#,
                        span.name,
                        span.start,
                        span.end,
                        span.key,
                        span.ns() - child,
                        span.cpu.saturating_sub(child_cpu)
                    )
                    .map_err(io)?;
                }
            }
            for span in trace
                .storage
                .iter()
                .filter(|span| s.window.contains(span.start))
            {
                writeln!(
                    out,
                    r#"{{"node":{node},"name":"{}","start_ns":{},"end_ns":{},"key":{},"self_ns":{},"self_cpu_ns":{},"parent":"handler"}}"#,
                    span.name,
                    span.start,
                    span.end,
                    span.key,
                    span.ns(),
                    span.cpu
                )
                .map_err(io)?;
            }
        }
        out.flush().map_err(io)
    }
}

/// Start to f+1-th reply; infinite for a request never answered.
fn latency_ms(r: &Record) -> f64 {
    match r.done {
        0 => f64::INFINITY,
        done => (done - r.start) as f64 / MS,
    }
}

/// Wall and CPU time of the storage calls nested inside each handler span.
/// Both lists come from one protocol thread, so they are ordered and a
/// storage call lies inside at most one handler call.
fn child_time(handlers: &[Span], storage: &[Span]) -> Vec<(u64, u64)> {
    let mut child = vec![(0u64, 0u64); handlers.len()];
    let mut h = 0;
    for s in storage {
        while h < handlers.len() && handlers[h].end < s.end {
            h += 1;
        }
        if h < handlers.len() && handlers[h].start <= s.start {
            child[h].0 += s.ns();
            child[h].1 += s.cpu;
        }
    }
    child
}

fn write_table(out: &mut String, title: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "{title} metrics (wall-clock):");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("write {path:?}: {e}"))
}

/// The result line. A non-finite value (a percentile reached by failed
/// requests) is written as `1e999`, which JSON readers take as infinity.
fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "1e999".into()
            };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start,
            end,
            cpu: (end - start) / 2,
            key: 0,
        }
    }

    #[test]
    fn storage_time_is_charged_to_the_enclosing_handler() {
        let handlers = [span(0, 10), span(20, 40), span(50, 60)];
        let storage = [span(22, 26), span(30, 38), span(52, 54)];
        assert_eq!(
            child_time(&handlers, &storage),
            vec![(0, 0), (12, 6), (2, 1)]
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = json(true, 10, 0, &[metric("setup_s", 0.25, "s", 5)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert!(json(true, 1, 1, &[metric("l", f64::INFINITY, "ms", 1)]).contains("1e999"));
    }
}
