//! Fault-tolerance benchmark: ingest throughput under injected shard
//! panics at calibrated fault rates, with every number gated on
//! **bit-identity** against a never-crashed twin, plus the wire retry
//! path's exactly-once cost under dropped connections.
//!
//! Emits `BENCH_PR10.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr10
//! ```
//!
//! Two phases:
//!
//! 1. **Recovery differential** — the same Poisson trace streams into
//!    a supervised fleet at fault rates {0, 1/10k, 1/1k} per
//!    (shard, batch) and into a fault-free twin. Before *any* number
//!    is recorded, the faulted fleet's final snapshot must re-encode
//!    to exactly the twin's bytes — checkpoint restore plus WAL
//!    replay provably loses and duplicates nothing. Then the row
//!    records ingest wall time, recovery/checkpoint/WAL counters, and
//!    the recovery-duration distribution scraped from the journal's
//!    `ShardRecovered` events. Nonzero rates also pin one explicit
//!    panic site so even a sparse hash schedule exercises recovery.
//! 2. **Wire retry exactly-once** — a `crowd_wire` server with a
//!    deterministic connection-drop plan (sever after apply, before
//!    reply — the ambiguous window) fronts a fresh fleet; a
//!    [`RetryClient`] streams batches over the sequenced idempotent
//!    path. The gate: the final wire snapshot is byte-identical to a
//!    local twin fed the same batches — every retried batch landed
//!    exactly once — and the row records retries, reconnects and the
//!    per-batch round-trip cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crowd_core::WorkerReport;
use crowd_data::{Response, ResponseMatrix};
use crowd_obs::EventKind;
use crowd_service::{AssessmentService, FaultPlan, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, rng};
use crowd_wire::proto::encode_reply;
use crowd_wire::{Reply, RetryClient, RetryConfig, WireConfig, WireServer};

const CONFIDENCE: f64 = 0.9;

/// One fault-rate row of the recovery differential.
struct RecoveryRow {
    fault_rate: f64,
    pinned_sites: usize,
    ingest_ms: f64,
    throughput_rps: f64,
    recoveries: u64,
    checkpoints: u64,
    wal_replayed: u64,
    recovery_ns: Vec<u64>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn reports_byte_identical(a: &WorkerReport, b: &WorkerReport) -> bool {
    encode_reply(&Reply::Report(a.clone())) == encode_reply(&Reply::Report(b.clone()))
}

/// Retries the one typed failure an in-flight crash inflicts
/// ([`ServiceError::ShardUnavailable`] — the reply channel died with
/// the shard); anything else is a benchmark failure.
fn with_crash_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> T {
    for _ in 0..16 {
        match f() {
            Ok(v) => return v,
            Err(ServiceError::ShardUnavailable { .. }) => continue,
            Err(other) => panic!("unexpected service error: {other:?}"),
        }
    }
    panic!("call did not succeed within the retry budget");
}

fn spawn_fleet(data: &ResponseMatrix, n_shards: usize, config: ServiceConfig) -> AssessmentService {
    AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        config,
    )
}

/// Streams the trace into a supervised fleet under `fault`, gates the
/// final snapshot bit-identical against the twin's, and only then
/// returns the row.
#[allow(clippy::too_many_arguments)]
fn recovery_run(
    data: &ResponseMatrix,
    batches: &[Vec<Response>],
    n_shards: usize,
    checkpoint_interval: usize,
    fault_rate: f64,
    pinned_sites: usize,
    twin_report: &WorkerReport,
) -> RecoveryRow {
    let mut plan = FaultPlan::seeded(2707).with_panic_rate(fault_rate);
    for site in 0..pinned_sites {
        // A floor so sparse hash schedules still exercise recovery.
        plan = plan.with_panic_at(site % n_shards, 3 + 2 * site as u64);
    }
    let config = ServiceConfig::default()
        .with_checkpoint_interval(checkpoint_interval)
        .with_max_recoveries(1024)
        .with_fault(Arc::new(plan));
    let service = spawn_fleet(data, n_shards, config);
    let start = Instant::now();
    for batch in batches {
        service.ingest_batch(batch).expect("supervised ingest");
    }
    with_crash_retry(|| service.drain());
    let ingest_ms = ms(start);

    // The gate comes before any number: recovered state must be
    // byte-identical to the never-crashed twin's.
    let report = with_crash_retry(|| service.snapshot(CONFIDENCE));
    assert!(
        reports_byte_identical(&report, twin_report),
        "recovered snapshot diverged from the never-crashed twin at rate {fault_rate}"
    );

    let stats = with_crash_retry(|| service.stats());
    let metrics = service.metrics().expect("metrics");
    let mut recovery_ns: Vec<u64> = metrics
        .events_of(EventKind::ShardRecovered)
        .map(|e| e.b)
        .collect();
    recovery_ns.sort_unstable();
    let row = RecoveryRow {
        fault_rate,
        pinned_sites,
        ingest_ms,
        throughput_rps: data.n_responses() as f64 / (ingest_ms / 1e3),
        recoveries: stats.total_recoveries(),
        checkpoints: stats.total_checkpoints(),
        wal_replayed: stats.total_wal_replayed(),
        recovery_ns,
    };
    service.shutdown().expect("shutdown");
    row
}

fn main() {
    let mut out_path = "BENCH_PR10.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }

    let (n_workers, n_tasks, density, n_shards, batch_size, checkpoint_interval) = if smoke {
        (24usize, 120usize, 0.5, 2usize, 32usize, 4usize)
    } else {
        (200usize, 2000usize, 0.25, 4usize, 128usize, 8usize)
    };

    eprintln!("generating workload: {n_workers} workers x {n_tasks} tasks, density {density} ...");
    let inst = BinaryScenario::paper_default(n_workers, n_tasks, density).generate(&mut rng(2710));
    let data = inst.responses();
    let sched = ArrivalSchedule::poisson(data, 1e6, &mut rng(10));
    let batches: Vec<Vec<Response>> = sched
        .batches(batch_size)
        .map(<[Response]>::to_vec)
        .collect();
    eprintln!(
        "trace: {} responses in {} batches of ≤{batch_size}, {n_shards} shards, checkpoint every {checkpoint_interval}",
        data.n_responses(),
        batches.len()
    );

    // The never-crashed twin: the reference bytes every faulted run
    // must reproduce, and the zero-fault throughput baseline.
    let twin = spawn_fleet(
        data,
        n_shards,
        ServiceConfig::default().with_checkpoint_interval(checkpoint_interval),
    );
    let twin_start = Instant::now();
    for batch in &batches {
        twin.ingest_batch(batch).expect("twin ingest");
    }
    twin.drain().expect("twin drain");
    let twin_ms = ms(twin_start);
    let twin_report = twin.snapshot(CONFIDENCE).expect("twin snapshot");
    let twin_stats = twin.stats().expect("twin stats");
    assert_eq!(
        twin_stats.total_recoveries(),
        0,
        "the twin must never crash"
    );
    twin.shutdown().expect("twin shutdown");
    eprintln!(
        "twin baseline: ingest {twin_ms:.1} ms ({:.0} responses/s), {} checkpoints",
        data.n_responses() as f64 / (twin_ms / 1e3),
        twin_stats.total_checkpoints()
    );

    // Phase 1 — fault rates {0, 1/10k, 1/1k}; nonzero rates pin one
    // explicit site so recovery runs even if the hash schedule is
    // sparse over this trace.
    let mut rows: Vec<RecoveryRow> = Vec::new();
    for &(rate, pinned) in &[(0.0, 0usize), (1e-4, 1), (1e-3, 1)] {
        let row = recovery_run(
            data,
            &batches,
            n_shards,
            checkpoint_interval,
            rate,
            pinned,
            &twin_report,
        );
        eprintln!(
            "rate {rate}: ingest {:.1} ms ({:.0} rps), {} recoveries, {} checkpoints, {} WAL responses replayed",
            row.ingest_ms, row.throughput_rps, row.recoveries, row.checkpoints, row.wal_replayed
        );
        if rate > 0.0 {
            assert!(
                row.recoveries >= 1,
                "rate {rate} with a pinned site must recover at least once"
            );
        } else {
            assert_eq!(row.recoveries, 0, "rate 0 must not recover");
        }
        rows.push(row);
    }

    // Phase 2 — wire retry exactly-once under dropped connections.
    let wire_batches = if smoke {
        &batches[..]
    } else {
        &batches[..batches.len().min(64)]
    };
    let wire_responses: usize = wire_batches.iter().map(Vec::len).sum();
    let drop_rate = 5e-3;
    let service = spawn_fleet(data, n_shards, ServiceConfig::default());
    let local_twin = spawn_fleet(data, n_shards, ServiceConfig::default());
    let fault = Arc::new(
        FaultPlan::seeded(2711)
            .with_drop_rate(drop_rate)
            // Floor: the first connection's 2nd frame always drops, so
            // the ambiguous window is exercised even in smoke runs.
            .with_drop_at(1, 2),
    );
    let server = WireServer::bind(
        "127.0.0.1:0",
        service.handle(),
        WireConfig {
            fault: Some(fault),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = RetryClient::connect_with(
        server.local_addr(),
        RetryConfig {
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            session: Some(2025),
            ..RetryConfig::default()
        },
    )
    .expect("retry client");

    let wire_start = Instant::now();
    for batch in wire_batches {
        client.ingest_batch(batch).expect("exactly-once ingest");
        local_twin.ingest_batch(batch).expect("local twin ingest");
    }
    client.drain().expect("drain");
    let wire_ms = ms(wire_start);
    let (retries, reconnects) = (client.retries(), client.reconnects());
    assert!(
        retries >= 1,
        "the pinned drop site must force at least one retry"
    );

    // The gate again: every retried batch landed exactly once, or the
    // bytes shift.
    let over_wire = client.snapshot(CONFIDENCE).expect("wire snapshot");
    let local = local_twin.snapshot(CONFIDENCE).expect("local snapshot");
    assert!(
        reports_byte_identical(&over_wire, &local),
        "retried wire ingest diverged from the local twin — dedup lost or doubled a batch"
    );
    eprintln!(
        "wire retry: {} batches ({wire_responses} responses) in {wire_ms:.1} ms, {retries} retries, {reconnects} connections, exactly-once verified",
        wire_batches.len()
    );
    drop(client);
    drop(server);
    local_twin.shutdown().expect("local twin shutdown");
    drop(service);

    let json = render_json(
        data,
        n_shards,
        batch_size,
        batches.len(),
        checkpoint_interval,
        twin_ms,
        &rows,
        wire_batches.len(),
        wire_responses,
        drop_rate,
        wire_ms,
        retries,
        reconnects,
        smoke,
    );
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    data: &ResponseMatrix,
    n_shards: usize,
    batch_size: usize,
    n_batches: usize,
    checkpoint_interval: usize,
    twin_ms: f64,
    rows: &[RecoveryRow],
    wire_batches: usize,
    wire_responses: usize,
    drop_rate: f64,
    wire_ms: f64,
    retries: u64,
    reconnects: u64,
    smoke: bool,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"fault tolerance: supervised ingest under injected shard panics (bit-identity gated) and wire retry exactly-once under dropped connections\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"smoke\": {},\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"responses\": {},\n",
            "    \"batches\": {},\n",
            "    \"batch_size\": {},\n",
            "    \"shards\": {},\n",
            "    \"checkpoint_interval\": {}\n",
            "  }},\n",
            "  \"twin_baseline\": {{ \"ingest_ms\": {:.2}, \"throughput_rps\": {:.0} }},\n",
            "  \"recovery\": [\n",
        ),
        smoke,
        cores,
        data.n_workers(),
        data.n_tasks(),
        data.n_responses(),
        n_batches,
        batch_size,
        n_shards,
        checkpoint_interval,
        twin_ms,
        data.n_responses() as f64 / (twin_ms / 1e3),
    );
    for (i, r) in rows.iter().enumerate() {
        let (p50, max) = if r.recovery_ns.is_empty() {
            (0, 0)
        } else {
            (
                r.recovery_ns[r.recovery_ns.len() / 2],
                *r.recovery_ns.last().expect("non-empty"),
            )
        };
        s.push_str(&format!(
            concat!(
                "    {{ \"fault_rate\": {}, \"pinned_sites\": {}, \"ingest_ms\": {:.2}, ",
                "\"throughput_rps\": {:.0}, \"recoveries\": {}, \"checkpoints\": {}, ",
                "\"wal_responses_replayed\": {}, ",
                "\"recovery_ns\": {{ \"count\": {}, \"p50\": {}, \"max\": {} }}, ",
                "\"bit_identical_to_twin\": true }}{}\n",
            ),
            r.fault_rate,
            r.pinned_sites,
            r.ingest_ms,
            r.throughput_rps,
            r.recoveries,
            r.checkpoints,
            r.wal_replayed,
            r.recovery_ns.len(),
            p50,
            max,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n",
            "  \"wire_retry\": {{\n",
            "    \"batches\": {},\n",
            "    \"responses\": {},\n",
            "    \"drop_rate\": {},\n",
            "    \"pinned_drops\": 1,\n",
            "    \"ingest_ms\": {:.2},\n",
            "    \"throughput_rps\": {:.0},\n",
            "    \"retries\": {},\n",
            "    \"reconnects\": {},\n",
            "    \"exactly_once_verified\": true\n",
            "  }}\n",
            "}}\n",
        ),
        wire_batches,
        wire_responses,
        drop_rate,
        wire_ms,
        wire_responses as f64 / (wire_ms / 1e3),
        retries,
        reconnects,
    ));
    s
}
