//! Per-thread CPU attribution from `/proc/self/task/*`, grouped by thread
//! name prefix into the broker's layers.

use std::collections::HashMap;

/// Thread roles the benchmark reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// `broker-*`: the engine loop.
    EngineLoop,
    /// `sender-*`: the outbox's sending threads.
    Outbox,
    /// `reader-*`: per-connection framed readers.
    Transport,
    /// Any other broker thread (tickers, acceptor, link supervisors, match
    /// shards). Unknown names land here, so a rename cannot break a run.
    Other,
    /// The benchmark's own threads (`bench-*` and the main thread).
    Loadgen,
}

pub const ROLES: [Role; 5] = [
    Role::EngineLoop,
    Role::Outbox,
    Role::Transport,
    Role::Other,
    Role::Loadgen,
];

fn role(name: &str, is_main: bool) -> Role {
    if is_main || name.starts_with("bench-") {
        Role::Loadgen
    } else if name.starts_with("broker-") {
        Role::EngineLoop
    } else if name.starts_with("sender-") {
        Role::Outbox
    } else if name.starts_with("reader-") {
        Role::Transport
    } else {
        Role::Other
    }
}

/// Cumulative CPU nanoseconds per live thread.
#[derive(Clone, Default)]
pub struct Snapshot {
    threads: HashMap<u64, (Role, u64)>,
}

/// Reads one thread's consumed CPU in nanoseconds: `schedstat`'s first
/// field where the kernel has it, else `stat`'s utime + stime ticks.
fn thread_cpu_ns(dir: &std::path::Path, stat: &str) -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    // Fields after the parenthesised comm: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

pub fn snapshot() -> Snapshot {
    let pid = std::process::id() as u64;
    let mut threads = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Snapshot { threads };
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue; // the thread exited between listing and reading
        };
        let name = match (stat.find('('), stat.rfind(')')) {
            (Some(a), Some(b)) if a < b => &stat[a + 1..b],
            _ => "",
        };
        if let Some(ns) = thread_cpu_ns(&path, &stat) {
            threads.insert(tid, (role(name, tid == pid), ns));
        }
    }
    Snapshot { threads }
}

/// CPU nanoseconds per role consumed between two snapshots. Threads born
/// after `before` count from zero; threads gone by `after` are lost (the
/// broker's long-lived threads outlive every measured window).
pub fn delta(before: &Snapshot, after: &Snapshot) -> HashMap<Role, u64> {
    let mut out: HashMap<Role, u64> = ROLES.iter().map(|&r| (r, 0)).collect();
    for (tid, (role, ns)) in &after.threads {
        let base = before.threads.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(*role).or_default() += ns.saturating_sub(base);
    }
    out
}

/// A `/proc/self/status` memory figure (`VmHWM` = peak resident set,
/// `VmRSS` = current), MiB.
pub fn memory_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
