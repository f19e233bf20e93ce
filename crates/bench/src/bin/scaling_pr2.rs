//! Streaming-maintenance benchmark: incremental [`StreamingIndex`]
//! upkeep versus rebuilding the full [`OverlapIndex`] at every ingest
//! event, across ingest schedules (stream order × batch granularity).
//!
//! Emits `BENCH_PR2.json` (override the path with the first CLI
//! argument):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr2
//! ```
//!
//! Each schedule streams the same response set twice:
//!
//! * **rebuild arm** — the pre-PR-2 recipe: keep a `ResponseMatrix`,
//!   insert each arriving batch, then rebuild the `OverlapIndex` from
//!   scratch so evaluation always has an indexed substrate;
//! * **incremental arm** — the shipped [`IncrementalEvaluator`]
//!   ingesting response by response: amortized row appends, pair-table
//!   updates and anchored bitset maintenance, no rebuilds ever. The
//!   product streaming path itself is what gets timed and verified,
//!   not a reimplementation.
//!
//! At mid-stream and final checkpoints both arms run a full
//! `evaluate_all` and the streamed substrate's report is verified
//! **bit-identical** to the batch estimator on the accumulated matrix
//! — the speedups below are only meaningful because the outputs agree
//! exactly.

use crowd_core::{
    Assessment, EstimatorConfig, IncrementalEvaluator, MWorkerEstimator, WorkerReport,
};
use crowd_data::{OverlapIndex, Response, ResponseMatrix};
use crowd_sim::{BinaryScenario, rng};
use std::time::Instant;

/// How the stream is ordered before ingestion.
#[derive(Clone, Copy)]
enum StreamOrder {
    /// Tasks complete one after another (the natural platform order).
    TaskMajor,
    /// Responses arrive fully interleaved (deterministic shuffle).
    Shuffled,
}

impl StreamOrder {
    fn label(self) -> &'static str {
        match self {
            Self::TaskMajor => "task-major",
            Self::Shuffled => "shuffled",
        }
    }
}

/// One benchmark schedule: a scenario shape plus an ingest pattern.
struct Schedule {
    m: usize,
    n: usize,
    density: f64,
    order: StreamOrder,
    /// Responses per ingest event (the rebuild arm rebuilds once per
    /// event).
    chunk: usize,
}

/// Timing and equivalence results for one schedule.
struct Row {
    m: usize,
    n: usize,
    density: f64,
    order: &'static str,
    chunk: usize,
    events: usize,
    responses: usize,
    rebuild_maintain_ms: f64,
    incremental_maintain_ms: f64,
    eval_batch_ms: f64,
    eval_streaming_ms: f64,
    outputs_identical: bool,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR2.json".to_string());
    let confidence = 0.9;
    let est = MWorkerEstimator::new(EstimatorConfig::default());

    let schedules = [
        Schedule {
            m: 50,
            n: 1000,
            density: 0.5,
            order: StreamOrder::TaskMajor,
            chunk: 250,
        },
        Schedule {
            m: 50,
            n: 1000,
            density: 0.5,
            order: StreamOrder::Shuffled,
            chunk: 1000,
        },
        Schedule {
            m: 200,
            n: 5000,
            density: 0.5,
            order: StreamOrder::TaskMajor,
            chunk: 1000,
        },
        Schedule {
            m: 200,
            n: 5000,
            density: 0.5,
            order: StreamOrder::Shuffled,
            chunk: 2000,
        },
    ];

    let mut rows = Vec::new();
    for s in &schedules {
        let inst = BinaryScenario::paper_default(s.m, s.n, s.density).generate(&mut rng(20260730));
        let responses = stream_of(inst.responses(), s.order);
        let nnz = responses.len();
        let events = nnz.div_ceil(s.chunk);
        eprintln!(
            "schedule m={} n={} density={} order={} chunk={} ({events} events) ...",
            s.m,
            s.n,
            s.density,
            s.order.label(),
            s.chunk
        );

        // Checkpoints (event indices, 1-based) where both arms
        // evaluate and the outputs are compared.
        let checkpoints = [events.div_ceil(2), events];

        // Rebuild arm: matrix insert + full index rebuild per event.
        let mut rebuild_maintain = 0.0;
        let mut rebuild_reports: Vec<WorkerReport> = Vec::new();
        let mut eval_batch_ms = 0.0;
        {
            let mut accumulated = ResponseMatrix::empty(s.m, s.n, 2);
            for (e, chunk) in responses.chunks(s.chunk).enumerate() {
                let start = Instant::now();
                for r in chunk {
                    accumulated.insert(*r).expect("stream is duplicate-free");
                }
                let index = OverlapIndex::from_matrix(&accumulated);
                rebuild_maintain += start.elapsed().as_secs_f64() * 1e3;
                if checkpoints.contains(&(e + 1)) {
                    let start = Instant::now();
                    let report = est
                        .evaluate_all_indexed(&index, confidence)
                        .expect("m >= 3");
                    eval_batch_ms += start.elapsed().as_secs_f64() * 1e3;
                    rebuild_reports.push(report);
                }
            }
        }

        // Incremental arm: the shipped streaming evaluator itself.
        let mut incremental_maintain = 0.0;
        let mut streaming_reports: Vec<WorkerReport> = Vec::new();
        let mut eval_streaming_ms = 0.0;
        {
            let mut monitor = IncrementalEvaluator::new(s.m, s.n, 2, EstimatorConfig::default());
            for (e, chunk) in responses.chunks(s.chunk).enumerate() {
                let start = Instant::now();
                for r in chunk {
                    monitor.ingest(*r).expect("stream is duplicate-free");
                }
                incremental_maintain += start.elapsed().as_secs_f64() * 1e3;
                if checkpoints.contains(&(e + 1)) {
                    let start = Instant::now();
                    let report = monitor.evaluate_all(confidence).expect("m >= 3");
                    eval_streaming_ms += start.elapsed().as_secs_f64() * 1e3;
                    streaming_reports.push(report);
                }
            }
        }

        let outputs_identical = rebuild_reports.len() == streaming_reports.len()
            && rebuild_reports
                .iter()
                .zip(&streaming_reports)
                .all(|(a, b)| reports_identical(a, b));
        assert!(
            outputs_identical,
            "streamed substrate diverged from batch on m={} n={} order={} chunk={}",
            s.m,
            s.n,
            s.order.label(),
            s.chunk
        );

        eprintln!(
            "  rebuild {rebuild_maintain:.1} ms | incremental {incremental_maintain:.1} ms \
             ({:.1}x) | eval batch {eval_batch_ms:.1} ms | eval streaming {eval_streaming_ms:.1} ms",
            rebuild_maintain / incremental_maintain
        );
        rows.push(Row {
            m: s.m,
            n: s.n,
            density: s.density,
            order: s.order.label(),
            chunk: s.chunk,
            events,
            responses: nnz,
            rebuild_maintain_ms: rebuild_maintain,
            incremental_maintain_ms: incremental_maintain,
            eval_batch_ms,
            eval_streaming_ms,
            outputs_identical,
        });
    }

    // Acceptance floor: on the 200×5000-scale stream, incremental
    // maintenance must beat per-ingest full rebuild by ≥ 10×.
    let flagship_speedup = rows
        .iter()
        .filter(|r| r.m == 200)
        .map(|r| r.rebuild_maintain_ms / r.incremental_maintain_ms)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        flagship_speedup >= 10.0,
        "flagship incremental-maintenance speedup {flagship_speedup:.2}x fell below the 10x floor"
    );

    let json = render_json(&rows);
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path} (flagship incremental speedup {flagship_speedup:.1}x)");
}

/// The scenario's responses in the requested stream order.
fn stream_of(data: &ResponseMatrix, order: StreamOrder) -> Vec<Response> {
    match order {
        StreamOrder::TaskMajor => {
            let mut out = Vec::with_capacity(data.n_responses());
            for task in data.tasks() {
                for &(w, label) in data.task_responses(task) {
                    out.push(Response {
                        worker: crowd_data::WorkerId(w),
                        task,
                        label,
                    });
                }
            }
            out
        }
        StreamOrder::Shuffled => {
            let mut out: Vec<Response> = data.iter().collect();
            let mut seed = 0x5eed_cafe_f00du64;
            for i in (1..out.len()).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = ((seed >> 33) as usize) % (i + 1);
                out.swap(i, j);
            }
            out
        }
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

/// Hand-rolled JSON (the workspace builds without serde).
fn render_json(rows: &[Row]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\n  \"benchmark\": \"streaming maintenance: incremental StreamingIndex vs per-ingest full rebuild\",\n  \"confidence\": 0.9,\n  \"timing\": \"total wall clock over the stream, milliseconds\",\n  \"host_available_parallelism\": {cores},\n  \"schedules\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"workers\": {},\n",
                "      \"tasks\": {},\n",
                "      \"density\": {},\n",
                "      \"stream_order\": \"{}\",\n",
                "      \"chunk\": {},\n",
                "      \"ingest_events\": {},\n",
                "      \"responses\": {},\n",
                "      \"rebuild_maintain_ms\": {:.2},\n",
                "      \"incremental_maintain_ms\": {:.2},\n",
                "      \"maintenance_speedup\": {:.2},\n",
                "      \"eval_batch_ms\": {:.2},\n",
                "      \"eval_streaming_ms\": {:.2},\n",
                "      \"outputs_identical\": {}\n",
                "    }}{}\n",
            ),
            r.m,
            r.n,
            r.density,
            r.order,
            r.chunk,
            r.events,
            r.responses,
            r.rebuild_maintain_ms,
            r.incremental_maintain_ms,
            r.rebuild_maintain_ms / r.incremental_maintain_ms,
            r.eval_batch_ms,
            r.eval_streaming_ms,
            r.outputs_identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
