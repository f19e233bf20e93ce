//! Per-thread CPU time and process memory from `/proc/self`, read at
//! phase boundaries so CPU is attributed by thread name without any
//! hook in the program.

use std::fs;

/// CPU nanoseconds of this process's live threads, grouped by the
/// names the program gives them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCpu {
    /// `crowd-shard-N` threads.
    pub shard_ns: u64,
    /// `wire-conn` threads (one per connection).
    pub conn_ns: u64,
    /// Other `wire-*` threads (the acceptor).
    pub wire_other_ns: u64,
    /// Every other thread: the generator and the harness.
    pub generator_ns: u64,
}

impl ThreadCpu {
    /// Reads every thread's scheduler run time (nanoseconds, from
    /// `schedstat`).
    pub fn now() -> Self {
        let mut cpu = Self::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return cpu;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(dir.join("comm")),
                fs::read_to_string(dir.join("schedstat")),
            ) else {
                continue; // the thread exited between listing and reading
            };
            let ns: u64 = sched
                .split_whitespace()
                .next()
                .and_then(|x| x.parse().ok())
                .unwrap_or(0);
            let comm = comm.trim_end();
            let slot = if comm.starts_with("crowd-shard-") {
                &mut cpu.shard_ns
            } else if comm == "wire-conn" {
                &mut cpu.conn_ns
            } else if comm.starts_with("wire-") {
                &mut cpu.wire_other_ns
            } else {
                &mut cpu.generator_ns
            };
            *slot += ns;
        }
        cpu
    }

    /// CPU spent between `earlier` and `self` by threads alive at both
    /// reads.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            shard_ns: self.shard_ns.saturating_sub(earlier.shard_ns),
            conn_ns: self.conn_ns.saturating_sub(earlier.conn_ns),
            wire_other_ns: self.wire_other_ns.saturating_sub(earlier.wire_other_ns),
            generator_ns: self.generator_ns.saturating_sub(earlier.generator_ns),
        }
    }

    /// CPU of the service's threads: shards plus the wire server.
    pub fn service_ns(self) -> u64 {
        self.shard_ns + self.conn_ns + self.wire_other_ns
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in bytes.
pub fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}
