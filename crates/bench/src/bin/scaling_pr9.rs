//! Observability overhead benchmark: the instrumented service against
//! its metrics-disabled twin, plus a wire-scraped stage-latency
//! profile.
//!
//! Emits `BENCH_PR9.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr9
//! ```
//!
//! Four phases:
//!
//! 1. **Overhead** — the same Poisson trace streams into a
//!    metrics-on and a metrics-off fleet, interleaved, best of three
//!    timed runs each. In full runs the instrumented ingest
//!    throughput must stay ≥ 95% of the uninstrumented one — the
//!    "provably cheap" half of the `crowd_obs` contract (three
//!    `Instant` reads and a handful of wait-free counter bumps per
//!    message must not move a queue-bound pipeline).
//! 2. **Bit identity** — the final snapshots of the two fleets are
//!    compared **byte-for-byte** via their wire encoding: the
//!    "provably free" half (timing observes evaluation, it never
//!    participates).
//! 3. **Scrape** — a `crowd_wire` server fronts the instrumented
//!    fleet and a loopback client issues the `Metrics` request; the
//!    per-shard stage histograms (queue-wait / batch-apply /
//!    drain-eval p50/p99/max) and the server's own per-opcode frame
//!    timings land in the JSON exactly as scraped, and the
//!    Prometheus exposition must carry the same counters the `Stats`
//!    path reports.
//! 4. **Flight recorder** — a run with a zero slow-op threshold
//!    forces every timed operation into the journal, proving the
//!    capture path the default 100 ms threshold would only exercise
//!    under real stalls.

use crowd_core::WorkerReport;
use crowd_data::{Response, ResponseMatrix};
use crowd_obs::EventKind;
use crowd_service::{AssessmentService, ServiceConfig};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, rng};
use crowd_wire::proto::encode_reply;
use crowd_wire::{Reply, WireClient, WireConfig, WireServer};
use std::time::{Duration, Instant};

/// One timed ingest run of the whole trace.
struct RunRow {
    instrumented: bool,
    run: usize,
    ingest_ms: f64,
    throughput_rps: f64,
}

/// One stage's scraped distribution, in nanoseconds.
struct StageRow {
    stage: &'static str,
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Byte-for-byte equality via the wire encoding — the strongest
/// equality the protocol can state (NaN payloads and signed zeros
/// included).
fn reports_byte_identical(a: &WorkerReport, b: &WorkerReport) -> bool {
    encode_reply(&Reply::Report(a.clone())) == encode_reply(&Reply::Report(b.clone()))
}

/// Streams the trace into a fresh fleet and times ingest-to-drain;
/// returns the elapsed wall time and the fleet (for snapshots).
fn timed_ingest(
    data: &ResponseMatrix,
    batches: &[Vec<Response>],
    n_shards: usize,
    config: ServiceConfig,
) -> (f64, AssessmentService) {
    let service = AssessmentService::spawn(
        ShardPlan::build_clustered(data, n_shards),
        data.n_tasks(),
        data.arity(),
        config,
    );
    let start = Instant::now();
    for batch in batches {
        service.ingest_batch(batch).expect("ingest");
    }
    service.drain().expect("drain");
    (ms(start), service)
}

fn main() {
    let mut out_path = "BENCH_PR9.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let confidence = 0.9;

    let (n_workers, n_tasks, density, n_shards, batch_size, runs) = if smoke {
        (24usize, 120usize, 0.5, 2usize, 32usize, 1usize)
    } else {
        (300usize, 4000usize, 0.25, 8usize, 256usize, 3usize)
    };

    eprintln!("generating workload: {n_workers} workers x {n_tasks} tasks, density {density} ...");
    let inst = BinaryScenario::paper_default(n_workers, n_tasks, density).generate(&mut rng(2609));
    let data = inst.responses();
    let sched = ArrivalSchedule::poisson(data, 1e6, &mut rng(9));
    let batches: Vec<Vec<Response>> = sched
        .batches(batch_size)
        .map(<[Response]>::to_vec)
        .collect();
    eprintln!(
        "trace: {} responses in {} batches of ≤{batch_size}, {n_shards} shards",
        data.n_responses(),
        batches.len()
    );

    // Phase 1 — interleaved best-of-N overhead runs.
    let mut rows: Vec<RunRow> = Vec::new();
    let mut final_on: Option<AssessmentService> = None;
    let mut final_off: Option<AssessmentService> = None;
    for run in 0..runs {
        for instrumented in [false, true] {
            let config = ServiceConfig::default().with_metrics(instrumented);
            let (ingest_ms, service) = timed_ingest(data, &batches, n_shards, config);
            let throughput_rps = data.n_responses() as f64 / (ingest_ms / 1e3);
            eprintln!(
                "run {run} metrics={instrumented}: ingest {ingest_ms:.1} ms ({throughput_rps:.0} responses/s)"
            );
            rows.push(RunRow {
                instrumented,
                run,
                ingest_ms,
                throughput_rps,
            });
            // Keep the last fleet of each mode alive for phases 2–3.
            if run + 1 == runs {
                if instrumented {
                    final_on = Some(service);
                } else {
                    final_off = Some(service);
                }
                continue;
            }
            service.shutdown().expect("shutdown");
        }
    }
    let best = |on: bool| {
        rows.iter()
            .filter(|r| r.instrumented == on)
            .map(|r| r.throughput_rps)
            .fold(f64::MIN, f64::max)
    };
    let (best_on, best_off) = (best(true), best(false));
    let overhead_ratio = best_on / best_off;
    eprintln!(
        "best instrumented {best_on:.0} rps vs uninstrumented {best_off:.0} rps (ratio {overhead_ratio:.3})"
    );
    if !smoke {
        assert!(
            overhead_ratio >= 0.95,
            "instrumented ingest throughput fell to {:.1}% of uninstrumented — \
             the metrics path is no longer cheap",
            overhead_ratio * 100.0
        );
    }

    // Phase 2 — the twins' final reports agree to the bit.
    let on = final_on.expect("instrumented fleet retained");
    let off = final_off.expect("uninstrumented fleet retained");
    let a = on.snapshot(confidence).expect("instrumented snapshot");
    let b = off.snapshot(confidence).expect("uninstrumented snapshot");
    assert!(
        reports_byte_identical(&a, &b),
        "metrics-on and metrics-off services diverged — instrumentation participated in evaluation"
    );
    off.shutdown().expect("shutdown");
    eprintln!("bit identity: instrumented and twin snapshots are byte-identical");

    // Phase 3 — scrape the instrumented fleet over loopback TCP.
    let server =
        WireServer::bind("127.0.0.1:0", on.handle(), WireConfig::default()).expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    // Give the server timers frames to measure before the scrape.
    let wire_stats = client.stats().expect("wire stats");
    assert_eq!(wire_stats.submitted, data.n_responses() as u64);
    let scrape = client.metrics().expect("wire metrics scrape");
    assert!(scrape.service.enabled);
    assert_eq!(scrape.service.stages.len(), n_shards);
    let merged = scrape.service.merged_stages();
    let stage_rows: Vec<StageRow> = [
        ("queue_wait", &merged.queue_wait),
        ("batch_apply", &merged.batch_apply),
        ("drain_eval", &merged.drain_eval),
    ]
    .into_iter()
    .map(|(stage, h)| StageRow {
        stage,
        count: h.count(),
        p50_ns: h.p50(),
        p99_ns: h.p99(),
        max_ns: h.max(),
    })
    .collect();
    for r in &stage_rows {
        assert!(r.count > 0, "stage {} recorded nothing", r.stage);
        eprintln!(
            "stage {}: n {} p50 {} ns p99 {} ns max {} ns",
            r.stage, r.count, r.p50_ns, r.p99_ns, r.max_ns
        );
    }
    let text = scrape.render_text();
    assert!(
        text.contains(&format!(
            "crowd_submitted_responses_total {}",
            scrape.service.stats.submitted
        )),
        "exposition dropped the submitted counter"
    );
    let server_ops = scrape.server.len();
    let exposition_lines = text.lines().count();
    eprintln!("scrape: {server_ops} server opcodes timed, {exposition_lines}-line exposition");
    drop(client);
    drop(server);
    on.shutdown().expect("shutdown");

    // Phase 4 — flight recorder under a zero slow-op threshold.
    let (_, traced) = timed_ingest(
        data,
        &batches[..batches.len().min(16)],
        n_shards,
        ServiceConfig::default().with_slow_op_threshold(Duration::ZERO),
    );
    traced.snapshot(confidence).expect("traced snapshot");
    let m = traced.metrics().expect("metrics");
    let slow_ops = m.events_of(EventKind::SlowOp).count();
    let journal_events = m.events.len();
    assert!(slow_ops > 0, "zero threshold must journal slow ops");
    eprintln!(
        "flight recorder: {journal_events} events retained ({slow_ops} slow-op), {} dropped",
        m.events_dropped
    );
    traced.shutdown().expect("shutdown");

    let json = render_json(
        data,
        n_shards,
        batch_size,
        batches.len(),
        runs,
        &rows,
        best_on,
        best_off,
        overhead_ratio,
        &stage_rows,
        server_ops,
        exposition_lines,
        journal_events,
        slow_ops,
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
    runs: usize,
    rows: &[RunRow],
    best_on: f64,
    best_off: f64,
    overhead_ratio: f64,
    stage_rows: &[StageRow],
    server_ops: usize,
    exposition_lines: usize,
    journal_events: usize,
    slow_ops: usize,
    smoke: bool,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"observability overhead: instrumented ingest vs metrics-off twin, plus wire-scraped stage profile\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"smoke\": {},\n",
            "  \"timing\": \"wall clock; ingest-to-drain of the whole trace, best of {} interleaved runs per mode\",\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"responses\": {},\n",
            "    \"batches\": {},\n",
            "    \"batch_size\": {},\n",
            "    \"shards\": {}\n",
            "  }},\n",
            "  \"runs\": [\n",
        ),
        smoke,
        runs,
        cores,
        data.n_workers(),
        data.n_tasks(),
        data.n_responses(),
        n_batches,
        batch_size,
        n_shards,
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{ \"run\": {}, \"metrics\": {}, \"ingest_ms\": {:.2}, ",
                "\"throughput_rps\": {:.0} }}{}\n",
            ),
            r.run,
            r.instrumented,
            r.ingest_ms,
            r.throughput_rps,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n",
            "  \"overhead\": {{\n",
            "    \"best_instrumented_rps\": {:.0},\n",
            "    \"best_uninstrumented_rps\": {:.0},\n",
            "    \"throughput_ratio\": {:.4},\n",
            "    \"ratio_floor\": 0.95,\n",
            "    \"ratio_floor_enforced\": {}\n",
            "  }},\n",
            "  \"bit_identity\": {{\n",
            "    \"verified\": true,\n",
            "    \"comparison\": \"byte equality of wire-encoded final snapshots, metrics-on vs metrics-off\"\n",
            "  }},\n",
            "  \"stages_ns\": [\n",
        ),
        best_on,
        best_off,
        overhead_ratio,
        !smoke,
    ));
    for (i, r) in stage_rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{ \"stage\": \"{}\", \"count\": {}, \"p50\": {}, ",
                "\"p99\": {}, \"max\": {} }}{}\n",
            ),
            r.stage,
            r.count,
            r.p50_ns,
            r.p99_ns,
            r.max_ns,
            if i + 1 < stage_rows.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n",
            "  \"scrape\": {{\n",
            "    \"transport\": \"Metrics opcode over loopback TCP\",\n",
            "    \"server_opcodes_timed\": {},\n",
            "    \"exposition_lines\": {}\n",
            "  }},\n",
            "  \"flight_recorder\": {{\n",
            "    \"zero_threshold_events\": {},\n",
            "    \"slow_op_events\": {}\n",
            "  }}\n",
            "}}\n",
        ),
        server_ops, exposition_lines, journal_events, slow_ops,
    ));
    s
}
