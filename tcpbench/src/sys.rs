//! Operating-system probes: per-thread CPU and context switches from
//! `/proc/self/task`, process CPU from `getrusage`, peak RSS, readiness
//! polling for the generator's sockets, and the machine context recorded
//! with every result.
//!
//! The foreign calls (`getrusage`, `clock_gettime`, `ppoll`,
//! `malloc_trim`) are libc functions the standard library already links;
//! declaring them here avoids a dependency the offline build cannot fetch.

use std::collections::BTreeMap;
use std::ffi::c_void;
use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong};
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// `POLLIN`: data to read.
pub const POLLIN: c_short = 0x1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// User plus system CPU of the whole process, live and exited threads, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (two timevals and
    // fourteen longs, the Linux layout) that outlives the call; RUSAGE_SELF
    // is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    ns(&usage.ru_utime) + ns(&usage.ru_stime)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), in ns.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives the
    // call; CLOCK_THREAD_CPUTIME_ID is 3 on Linux.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Returns heap memory freed by a shut-down cluster to the operating
/// system, so one session's garbage does not count toward the next one's
/// peak RSS. A no-op outside glibc.
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> c_int;
        }
        // SAFETY: malloc_trim only hands free heap pages back to the kernel;
        // it accepts any padding and touches no memory still in use.
        unsafe { malloc_trim(0) };
    }
}

/// Blocks until one of `fds` is readable or `timeout` passes; returns how
/// many are ready (0 on timeout or signal).
pub fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()` pollfd
    // structs valid for the whole call, `ts` outlives the call, and a null
    // signal mask leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Who a thread works for, by its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadClass {
    /// `proto-*`: a replica's protocol thread (the node's handlers).
    Node,
    /// Every other cluster thread: iss-net acceptors, readers and writers.
    Transport,
    /// The load generator.
    Generator,
    /// The benchmark's main thread (boot, probes, sampling).
    Main,
}

impl ThreadClass {
    pub const ALL: [ThreadClass; 4] = [
        ThreadClass::Node,
        ThreadClass::Transport,
        ThreadClass::Generator,
        ThreadClass::Main,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ThreadClass::Node => "node",
            ThreadClass::Transport => "transport",
            ThreadClass::Generator => "generator",
            ThreadClass::Main => "main",
        }
    }
}

/// Name of the generator thread (a kernel `comm` holds at most 15 bytes).
pub const GENERATOR_THREAD: &str = "tcpbench-gen";

/// Classes a thread. iss-net names only its protocol threads; its acceptor,
/// reader and writer threads inherit the name of the thread that spawned
/// them, which is never the generator.
pub fn classify(tid: u32, pid: u32, comm: &str) -> ThreadClass {
    if tid == pid {
        ThreadClass::Main
    } else if comm.starts_with("proto-") {
        ThreadClass::Node
    } else if comm == GENERATOR_THREAD {
        ThreadClass::Generator
    } else {
        ThreadClass::Transport
    }
}

/// CPU and context switches of one thread at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThreadSample {
    pub class: ThreadClass,
    /// On-CPU time (first field of `schedstat`), ns.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parses one thread's `comm`, `schedstat` and `status` files.
pub fn parse_thread(
    tid: u32,
    pid: u32,
    comm: &str,
    schedstat: &str,
    status: &str,
) -> Option<ThreadSample> {
    let cpu_ns = schedstat.split_whitespace().next()?.parse().ok()?;
    let mut ctx_switches = 0;
    for line in status.lines() {
        if let Some(rest) = line
            .strip_prefix("voluntary_ctxt_switches:")
            .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
        {
            ctx_switches += rest.trim().parse::<u64>().ok()?;
        }
    }
    Some(ThreadSample {
        class: classify(tid, pid, comm.trim_end()),
        cpu_ns,
        ctx_switches,
    })
}

/// Samples every live thread of this process, keyed by thread id. A thread
/// that exits while being read is skipped.
pub fn sample_threads() -> BTreeMap<u32, ThreadSample> {
    let pid = std::process::id();
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        if let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        {
            if let Some(s) = parse_thread(tid, pid, &comm, &sched, &status) {
                out.insert(tid, s);
            }
        }
    }
    out
}

/// Per-class CPU (ns) and context switches between two samples. A thread
/// born in between counts from zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassTotals {
    pub cpu_ns: [u64; 4],
    pub ctx_switches: [u64; 4],
}

impl ClassTotals {
    pub fn between(
        before: &BTreeMap<u32, ThreadSample>,
        after: &BTreeMap<u32, ThreadSample>,
    ) -> Self {
        let mut totals = ClassTotals::default();
        for (tid, a) in after {
            let (cpu0, ctx0) = before
                .get(tid)
                .map_or((0, 0), |b| (b.cpu_ns, b.ctx_switches));
            let i = a.class as usize;
            totals.cpu_ns[i] += a.cpu_ns.saturating_sub(cpu0);
            totals.ctx_switches[i] += a.ctx_switches.saturating_sub(ctx0);
        }
        totals
    }

    pub fn cpu(&self, class: ThreadClass) -> u64 {
        self.cpu_ns[class as usize]
    }

    pub fn ctx(&self, class: ThreadClass) -> u64 {
        self.ctx_switches[class as usize]
    }
}

/// CPU time the hypervisor gave to other tenants, summed over all CPUs
/// (the `steal` column of `/proc/stat`), in seconds. 0 where unavailable.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

impl std::ops::AddAssign for ClassTotals {
    fn add_assign(&mut self, other: ClassTotals) {
        for i in 0..4 {
            self.cpu_ns[i] += other.cpu_ns[i];
            self.ctx_switches[i] += other.ctx_switches[i];
        }
    }
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine context recorded with every result: cores, commit and the
/// filesystem the durable workload writes to.
pub fn machine_context(data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} commit={} storage_fs={}",
        git_commit(),
        filesystem_of(data_dir)
    )
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// Filesystem type of the longest mount point containing `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tproto-Node(Node\nState:\tS (sleeping)\n\
                          voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn parses_and_classes_a_canned_task_sample() {
        let pid = 100;
        let node = parse_thread(101, pid, "proto-Node(Node\n", "2500000 300 9\n", STATUS).unwrap();
        assert_eq!(node.class, ThreadClass::Node);
        assert_eq!(node.cpu_ns, 2_500_000);
        assert_eq!(node.ctx_switches, 127);
        let main = parse_thread(100, pid, "iss-tcpbench\n", "10 0 1\n", STATUS).unwrap();
        assert_eq!(main.class, ThreadClass::Main);
        let reader = parse_thread(102, pid, "iss-tcpbench\n", "10 0 1\n", STATUS).unwrap();
        assert_eq!(reader.class, ThreadClass::Transport);
        let gen = parse_thread(103, pid, "tcpbench-gen\n", "10 0 1\n", STATUS).unwrap();
        assert_eq!(gen.class, ThreadClass::Generator);
        assert!(parse_thread(104, pid, "x", "garbage", STATUS).is_none());
    }

    #[test]
    fn class_totals_count_new_threads_from_zero() {
        let s = |class, cpu_ns, ctx_switches| ThreadSample {
            class,
            cpu_ns,
            ctx_switches,
        };
        let before = BTreeMap::from([(1, s(ThreadClass::Node, 100, 5))]);
        let after = BTreeMap::from([
            (1, s(ThreadClass::Node, 250, 8)),
            (2, s(ThreadClass::Transport, 40, 2)),
        ]);
        let t = ClassTotals::between(&before, &after);
        assert_eq!(t.cpu(ThreadClass::Node), 150);
        assert_eq!(t.ctx(ThreadClass::Node), 3);
        assert_eq!(t.cpu(ThreadClass::Transport), 40);
        assert_eq!(t.cpu(ThreadClass::Generator), 0);
    }

    #[test]
    fn live_sample_sees_this_thread() {
        assert!(!sample_threads().is_empty());
        assert!(process_cpu_ns() > 0);
    }
}
