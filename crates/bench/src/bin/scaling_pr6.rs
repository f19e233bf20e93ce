//! Pipelined-runtime load benchmark: sustained ingest+assess
//! throughput and open-loop request latency of the thread-per-shard
//! [`crowd_service::AssessmentService`].
//!
//! Emits `BENCH_PR6.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr6
//! ```
//!
//! The workload is the community-structured fleet of `scaling_pr4`
//! (co-occurrence is local — the regime sharding and the clustered
//! plan are for), streamed in the arrival order of a
//! [`crowd_sim::ArrivalSchedule`]. Three phases:
//!
//! 1. **Bit-identity gate** — for every shard count measured below,
//!    the full trace is streamed through a service and its mid-stream
//!    and final snapshots are compared bit for bit against a serial
//!    [`crowd_core::IncrementalEvaluator`] fed the same prefix. Any
//!    divergence aborts before a single number is written.
//! 2. **Closed-loop throughput** — per (shard count ∈ {1, 2, 8},
//!    batch ∈ {1, 256}): ingest the whole trace (an `assess_worker`
//!    request mixed in every `assess_every` responses), `drain()`,
//!    and report responses/second plus the runtime counters
//!    (queue-depth high-water, batch histogram, re-anchor and
//!    gram-patch totals). The **batching floor** is asserted here:
//!    at every shard count, batched ingest must sustain at least the
//!    request-at-a-time throughput — the amortization the runtime
//!    exists to provide, and a floor that holds even on one core.
//!    Thread scaling across shard counts is reported (meaningful when
//!    cores are available; on a 1-core host it shows the fan-out
//!    overhead instead).
//! 3. **Open-loop latency** — a Poisson arrival schedule offered at
//!    half the best measured throughput, ingested in due-time groups;
//!    every `assess_every`-th arrival issues a blocking
//!    `assess_worker` and its round-trip is recorded. p50/p99/max
//!    land in the JSON; because arrivals are scheduled up front
//!    (open loop), queueing delay is measured, not hidden.

use crowd_core::{EstimatorConfig, IncrementalEvaluator, WorkerReport};
use crowd_data::{Label, Response, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_service::{AssessmentService, ServiceConfig, ServiceStats};
use crowd_shard::ShardPlan;
use crowd_sim::ArrivalSchedule;
use std::time::{Duration, Instant};

/// Community-structured workload (same shape as `scaling_pr4`).
struct Workload {
    communities: usize,
    workers_per: usize,
    tasks_per: usize,
    density: f64,
}

impl Workload {
    fn n_workers(&self) -> usize {
        self.communities * self.workers_per
    }

    fn n_tasks(&self) -> usize {
        self.communities * self.tasks_per
    }

    /// Deterministic community-structured binary crowd; same
    /// `(shape, seed)` → same matrix.
    fn generate(&self, seed: u64) -> ResponseMatrix {
        let m = self.n_workers();
        let n = self.n_tasks();
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let unit = |x: u32| x as f64 / u32::MAX as f64 * 2.0;
        let truths: Vec<u16> = (0..n).map(|_| (next() % 2) as u16).collect();
        let error_rates: Vec<f64> = (0..m).map(|_| 0.05 + 0.15 * unit(next())).collect();
        let mut b = ResponseMatrixBuilder::new(m, n, 2);
        for w in 0..m {
            let community = w / self.workers_per;
            for t in community * self.tasks_per..(community + 1) * self.tasks_per {
                if unit(next()) / 2.0 >= self.density {
                    continue;
                }
                let flip = unit(next()) / 2.0 < error_rates[w];
                let label = Label(truths[t] ^ u16::from(flip));
                b.push(WorkerId(w as u32), TaskId(t as u32), label)
                    .expect("generated ids are valid");
            }
        }
        b.build().expect("generated cells are unique")
    }
}

/// One closed-loop throughput measurement.
struct ThroughputRow {
    n_shards: usize,
    batch: usize,
    responses: usize,
    assess_requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    stats: ServiceStats,
}

/// The open-loop latency measurement.
struct LatencyRow {
    n_shards: usize,
    offered_rps: f64,
    achieved_rps: f64,
    assess_requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn main() {
    let mut out_path = "BENCH_PR6.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let confidence = 0.9;

    let (workload, shard_counts, assess_every): (Workload, Vec<usize>, usize) = if smoke {
        (
            Workload {
                communities: 4,
                workers_per: 12,
                tasks_per: 30,
                density: 0.5,
            },
            vec![1, 2],
            50,
        )
    } else {
        (
            Workload {
                communities: 40,
                workers_per: 50,
                tasks_per: 80,
                density: 0.35,
            },
            vec![1, 2, 8],
            500,
        )
    };
    let config = EstimatorConfig::fleet(16);

    eprintln!(
        "generating community workload: {} workers, {} tasks ...",
        workload.n_workers(),
        workload.n_tasks()
    );
    let data = workload.generate(20260807);
    let sched = ArrivalSchedule::poisson(&data, 1000.0, &mut crowd_sim::rng(6));
    eprintln!("trace: {} responses", sched.len());

    // Phase 1 — bit-identity gate at every measured shard count,
    // mid-stream and final, before any number is written.
    let (reference_mid, reference_final) = serial_reference(&data, &sched, &config, confidence);
    let mut identity_checkpoints = 0usize;
    for &n_shards in &shard_counts {
        let plan = ShardPlan::build_clustered(&data, n_shards);
        let service = AssessmentService::spawn(
            plan,
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default().with_estimator(config.clone()),
        );
        let cut = sched.len() / 2;
        for batch in sched.responses()[..cut].chunks(64) {
            service.ingest_batch(batch).expect("ingest");
        }
        let snap = service.snapshot(confidence).expect("snapshot");
        assert!(
            reports_identical(&snap, &reference_mid),
            "mid-stream snapshot diverged from serial streaming at {n_shards} shards"
        );
        for batch in sched.responses()[cut..].chunks(64) {
            service.ingest_batch(batch).expect("ingest");
        }
        let snap = service.snapshot(confidence).expect("snapshot");
        assert!(
            reports_identical(&snap, &reference_final),
            "final snapshot diverged from serial streaming at {n_shards} shards"
        );
        identity_checkpoints += 2;
        eprintln!("bit-identity verified at {n_shards} shards (mid-stream + final)");
    }

    // Phase 2 — closed-loop throughput across shard counts × batch
    // sizes, with the batching floor asserted per shard count.
    let mut rows: Vec<ThroughputRow> = Vec::new();
    for &n_shards in &shard_counts {
        for &batch in &[1usize, 256] {
            rows.push(run_throughput(
                &data,
                &sched,
                n_shards,
                batch,
                assess_every,
                &config,
                confidence,
            ));
        }
    }
    for &n_shards in &shard_counts {
        let rps = |b: usize| {
            rows.iter()
                .find(|r| r.n_shards == n_shards && r.batch == b)
                .expect("measured above")
                .throughput_rps
        };
        let (batched, one_at_a_time) = (rps(256), rps(1));
        eprintln!(
            "{n_shards} shards: batched {batched:.0} rps vs request-at-a-time {one_at_a_time:.0} rps \
             ({:.1}x)",
            batched / one_at_a_time
        );
        if !smoke {
            assert!(
                batched >= one_at_a_time,
                "batched ingest ({batched:.0} rps) lost to request-at-a-time \
                 ({one_at_a_time:.0} rps) at {n_shards} shards — the amortization floor failed"
            );
        }
    }

    // Phase 3 — open-loop latency at half the best sustained
    // throughput, on the largest shard count.
    let best_rps = rows
        .iter()
        .map(|r| r.throughput_rps)
        .fold(f64::NEG_INFINITY, f64::max);
    let latency = run_latency(
        &data,
        *shard_counts.last().expect("non-empty"),
        best_rps * 0.5,
        assess_every,
        &config,
        confidence,
    );
    eprintln!(
        "open-loop @ {:.0} rps offered: assess p50 {:.3} ms, p99 {:.3} ms",
        latency.offered_rps, latency.p50_ms, latency.p99_ms
    );

    let json = render_json(
        &workload,
        &data,
        identity_checkpoints,
        assess_every,
        &rows,
        &latency,
    );
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The single-threaded streaming reference: one
/// [`IncrementalEvaluator`] fed the same arrival order, evaluated at
/// the same mid-stream cut and at the end.
fn serial_reference(
    data: &ResponseMatrix,
    sched: &ArrivalSchedule,
    config: &EstimatorConfig,
    confidence: f64,
) -> (WorkerReport, WorkerReport) {
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        config.clone(),
    );
    let cut = sched.len() / 2;
    for r in &sched.responses()[..cut] {
        serial.ingest(*r).expect("valid trace");
    }
    let mid = serial.evaluate_all(confidence).expect("m >= 3");
    for r in &sched.responses()[cut..] {
        serial.ingest(*r).expect("valid trace");
    }
    let fin = serial.evaluate_all(confidence).expect("m >= 3");
    (mid, fin)
}

fn run_throughput(
    data: &ResponseMatrix,
    sched: &ArrivalSchedule,
    n_shards: usize,
    batch: usize,
    assess_every: usize,
    config: &EstimatorConfig,
    confidence: f64,
) -> ThroughputRow {
    let plan = ShardPlan::build_clustered(data, n_shards);
    let service = AssessmentService::spawn(
        plan,
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default().with_estimator(config.clone()),
    );
    let m = data.n_workers() as u32;
    let mut assess_requests = 0usize;
    let mut seen = 0usize;
    let start = Instant::now();
    for group in sched.batches(batch) {
        service.ingest_batch(group).expect("ingest");
        let before = seen;
        seen += group.len();
        // One assessment per `assess_every` responses, interleaved
        // with ingest exactly as a serving mix would be.
        if seen / assess_every > before / assess_every {
            let worker = WorkerId(((seen / assess_every) as u32 * 37) % m);
            let _ = service.assess_worker(worker, confidence);
            assess_requests += 1;
        }
    }
    service.drain().expect("drain");
    let wall_ms = ms(start);
    let stats = service.stats().expect("live stats");
    let row = ThroughputRow {
        n_shards,
        batch,
        responses: sched.len(),
        assess_requests,
        wall_ms,
        throughput_rps: sched.len() as f64 / (wall_ms / 1e3),
        stats,
    };
    eprintln!(
        "throughput: {n_shards} shards, batch {batch}: {:.0} rps ({:.0} ms, {} assess)",
        row.throughput_rps, row.wall_ms, row.assess_requests
    );
    row
}

fn run_latency(
    data: &ResponseMatrix,
    n_shards: usize,
    offered_rps: f64,
    assess_every: usize,
    config: &EstimatorConfig,
    confidence: f64,
) -> LatencyRow {
    let plan = ShardPlan::build_clustered(data, n_shards);
    let service = AssessmentService::spawn(
        plan,
        data.n_tasks(),
        data.arity(),
        ServiceConfig::default().with_estimator(config.clone()),
    );
    let sched = ArrivalSchedule::poisson(data, offered_rps, &mut crowd_sim::rng(60));
    let m = data.n_workers() as u32;
    let mut latencies: Vec<f64> = Vec::new();
    let mut buf: Vec<Response> = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    let arrivals: Vec<(f64, Response)> = sched.arrivals().collect();
    while i < arrivals.len() {
        // Open loop: sleep until the next scheduled arrival, then
        // ingest everything that has come due as one group (the
        // batching a real ingest front-end does under load).
        let due = Duration::from_secs_f64(arrivals[i].0);
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let now = t0.elapsed().as_secs_f64();
        buf.clear();
        let before = i;
        while i < arrivals.len() && arrivals[i].0 <= now {
            buf.push(arrivals[i].1);
            i += 1;
        }
        service.ingest_batch(&buf).expect("ingest");
        if i / assess_every > before / assess_every {
            let worker = WorkerId(((i / assess_every) as u32 * 37) % m);
            let start = Instant::now();
            let _ = service.assess_worker(worker, confidence);
            latencies.push(ms(start));
        }
    }
    service.drain().expect("drain");
    let achieved_rps = sched.len() as f64 / t0.elapsed().as_secs_f64();
    assert!(!latencies.is_empty(), "at least one assess");
    LatencyRow {
        n_shards,
        offered_rps,
        achieved_rps,
        assess_requests: latencies.len(),
        p50_ms: crowd_obs::sample_percentile(&mut latencies, 0.50),
        p99_ms: crowd_obs::sample_percentile(&mut latencies, 0.99),
        max_ms: crowd_obs::sample_percentile(&mut latencies, 1.0),
    }
}

/// Bit-exact equality of two assessment reports.
fn reports_identical(a: &WorkerReport, b: &WorkerReport) -> bool {
    a.assessments.len() == b.assessments.len()
        && a.failures.len() == b.failures.len()
        && a.assessments.iter().zip(&b.assessments).all(|(x, y)| {
            x.worker == y.worker
                && x.triples_used == y.triples_used
                && x.weights_fell_back == y.weights_fell_back
                && x.interval.center.to_bits() == y.interval.center.to_bits()
                && x.interval.half_width.to_bits() == y.interval.half_width.to_bits()
        })
        && a.failures.iter().zip(&b.failures).all(|(x, y)| x.0 == y.0)
}

fn counters_json(stats: &ServiceStats, indent: &str) -> String {
    let buckets: Vec<String> = stats
        .batch_sizes
        .counts()
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| {
            format!(
                "{{\"min_size\": {}, \"batches\": {}}}",
                crowd_service::BatchHistogram::lower_bound(i),
                c
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "{i}  \"queue_depth_high_water\": {},\n",
            "{i}  \"dropped_batches\": {},\n",
            "{i}  \"dropped_responses\": {},\n",
            "{i}  \"reanchors\": {},\n",
            "{i}  \"gram_patches\": {},\n",
            "{i}  \"gram_rebuilds\": {},\n",
            "{i}  \"batch_size_histogram\": [{}]\n",
            "{i}}}",
        ),
        stats.max_queue_high_water(),
        stats.dropped_batches,
        stats.dropped_responses,
        stats.total_reanchors(),
        stats.total_gram_patches(),
        stats.total_gram_rebuilds(),
        buckets.join(", "),
        i = indent,
    )
}

fn render_json(
    w: &Workload,
    data: &ResponseMatrix,
    identity_checkpoints: usize,
    assess_every: usize,
    rows: &[ThroughputRow],
    latency: &LatencyRow,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"pipelined assessment runtime: thread-per-shard ingest/assess throughput and open-loop latency\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"timing\": \"wall clock; throughput in responses/second, latency in milliseconds (assess_worker round-trip)\",\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"communities\": {},\n",
            "    \"within_community_density\": {},\n",
            "    \"responses\": {},\n",
            "    \"assess_every_n_responses\": {}\n",
            "  }},\n",
            "  \"bit_identity\": {{\n",
            "    \"verified\": true,\n",
            "    \"checkpoints\": {},\n",
            "    \"reference\": \"serial IncrementalEvaluator, same arrival order, mid-stream + final\"\n",
            "  }},\n",
            "  \"throughput\": [\n",
        ),
        cores,
        w.n_workers(),
        w.n_tasks(),
        w.communities,
        w.density,
        data.n_responses(),
        assess_every,
        identity_checkpoints,
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"shards\": {},\n",
                "      \"ingest_batch_size\": {},\n",
                "      \"responses\": {},\n",
                "      \"assess_requests\": {},\n",
                "      \"wall_ms\": {:.2},\n",
                "      \"throughput_rps\": {:.1},\n",
                "      \"counters\": {}\n",
                "    }}{}\n",
            ),
            r.n_shards,
            r.batch,
            r.responses,
            r.assess_requests,
            r.wall_ms,
            r.throughput_rps,
            counters_json(&r.stats, "      "),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n",
            "  \"latency_open_loop\": {{\n",
            "    \"shards\": {},\n",
            "    \"offered_rps\": {:.1},\n",
            "    \"achieved_rps\": {:.1},\n",
            "    \"assess_requests\": {},\n",
            "    \"assess_p50_ms\": {:.4},\n",
            "    \"assess_p99_ms\": {:.4},\n",
            "    \"assess_max_ms\": {:.4}\n",
            "  }}\n",
            "}}\n",
        ),
        latency.n_shards,
        latency.offered_rps,
        latency.achieved_rps,
        latency.assess_requests,
        latency.p50_ms,
        latency.p99_ms,
        latency.max_ms,
    ));
    s
}
