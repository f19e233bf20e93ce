//! Peer-scoped anchored-view benchmark: view memory and evaluate-all
//! throughput of the peer-scoped [`crowd_data::OverlapSource::anchored_for`]
//! path versus the population-wide views the pre-PR-3 pipeline built,
//! plus streaming ingest + evaluation residency on the lazily anchored
//! [`crowd_data::StreamingIndex`].
//!
//! Emits `BENCH_PR3.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr3
//! ```
//!
//! Per fleet size `m ∈ {200, 2000, 10000}` the harness runs the same
//! `evaluate_all` twice over one shared [`OverlapIndex`]:
//!
//! * **peer-scoped arm** — the shipped
//!   [`crowd_core::Assessment::evaluate_all_indexed`]: every evaluation
//!   builds its anchored view over the ≤ 2l peers the pairing
//!   selected, into a reused scratch allocation;
//! * **population arm** — the pre-PR-3 recipe, reconstructed through a
//!   thin adapter whose `anchored_for` ignores the peer scope: every
//!   evaluation allocates and fills an `m × words` mask matrix.
//!
//! The two reports are verified **bit-identical** (the memory numbers
//! are only meaningful because the outputs agree exactly), and view
//! memory is *measured* — `mask_bytes()` on real views, averaged over
//! the fleet — not derived from a formula. The streaming schedule
//! then ingests the full response stream into an
//! [`IncrementalEvaluator`] and evaluates once at the end, verifying
//! bit-identity against the batch path and measuring the resident
//! mask bytes of the maintained (peer-scoped, lazily anchored) views
//! against what population-scoped maintenance would hold.
//!
//! The `m = 200` row runs the paper-default (uncapped) configuration,
//! pinning backward compatibility with the PR 1/PR 2 outputs; the
//! larger rows use [`EstimatorConfig::fleet`] (16 triples) — the knob
//! that bounds every view at `O(l)` rows and makes fleet-scale memory
//! track the pairing degree instead of the worker count.

use crowd_core::{
    Assessment, EstimatorConfig, IncrementalEvaluator, MWorkerEstimator, WorkerReport,
};
use crowd_data::{BitsetAnchored, OverlapIndex, OverlapSource, PairStats, TripleStats, WorkerId};
use crowd_sim::{BinaryScenario, rng};
use std::time::Instant;

/// The pre-PR-3 view discipline: an [`OverlapIndex`] whose anchored
/// views always cover the whole population. `anchored_for` is left at
/// the trait default (ignore the peer scope, forward to `anchored`),
/// so every evaluation pays the `m × words` build the peer-scoped
/// refactor removed — the comparison arm, not a reimplementation of
/// the estimator.
struct PopulationViews<'a>(&'a OverlapIndex);

impl OverlapSource for PopulationViews<'_> {
    type Anchored<'b>
        = BitsetAnchored<'b>
    where
        Self: 'b;

    fn n_workers(&self) -> usize {
        OverlapSource::n_workers(self.0)
    }

    fn arity(&self) -> u16 {
        OverlapSource::arity(self.0)
    }

    fn pair(&self, a: WorkerId, b: WorkerId) -> PairStats {
        self.0.pair(a, b)
    }

    fn triple(&self, a: WorkerId, b: WorkerId, c: WorkerId) -> TripleStats {
        self.0.triple(a, b, c)
    }

    fn anchored(&self, anchor: WorkerId) -> BitsetAnchored<'_> {
        self.0.anchored(anchor)
    }
}

/// One benchmark schedule: a fleet shape plus the triple cap.
struct Schedule {
    m: usize,
    n: usize,
    density: f64,
    /// `None` = paper default (pair every peer).
    max_triples: Option<usize>,
}

/// Measurements for one schedule.
struct Row {
    m: usize,
    n: usize,
    density: f64,
    max_triples: Option<usize>,
    responses: usize,
    eval_peer_scoped_ms: f64,
    eval_population_ms: f64,
    outputs_identical: bool,
    bytes_per_view_peer_scoped: f64,
    bytes_per_view_population: f64,
    view_memory_reduction: f64,
    ingest_ms: f64,
    eval_streaming_ms: f64,
    streaming_outputs_identical: bool,
    streaming_resident_mask_bytes: usize,
    streaming_population_mask_bytes: f64,
    streaming_memory_reduction: f64,
    streaming_reanchors: usize,
}

fn main() {
    let mut out_path = "BENCH_PR3.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let confidence = 0.9;

    let schedules: Vec<Schedule> = if smoke {
        vec![Schedule {
            m: 60,
            n: 300,
            density: 0.4,
            max_triples: Some(4),
        }]
    } else {
        vec![
            // Paper-default configuration: backward compatibility with
            // the PR 1/PR 2 outputs (peers ≈ m − 1, so little memory
            // headroom — the cap below is what unlocks it).
            Schedule {
                m: 200,
                n: 2000,
                density: 0.3,
                max_triples: None,
            },
            Schedule {
                m: 200,
                n: 2000,
                density: 0.3,
                max_triples: Some(16),
            },
            Schedule {
                m: 2000,
                n: 2000,
                density: 0.1,
                max_triples: Some(16),
            },
            Schedule {
                m: 10000,
                n: 1000,
                density: 0.05,
                max_triples: Some(16),
            },
        ]
    };

    let mut rows = Vec::new();
    for s in &schedules {
        rows.push(run_schedule(s, confidence));
    }

    for r in &rows {
        assert!(
            r.outputs_identical,
            "peer-scoped evaluate_all diverged from the population-view path at m={}",
            r.m
        );
        assert!(
            r.streaming_outputs_identical,
            "streamed evaluation diverged from batch at m={}",
            r.m
        );
    }
    // Acceptance floor: at the flagship fleet size the peer-scoped
    // views must undercut population-wide views by ≥ 10×, in both the
    // per-evaluation (batch) and resident (streaming) senses.
    if !smoke {
        let flagship = rows
            .iter()
            .max_by_key(|r| r.m)
            .expect("at least one schedule");
        assert!(
            flagship.view_memory_reduction >= 10.0,
            "flagship per-view memory reduction {:.1}x fell below the 10x floor",
            flagship.view_memory_reduction
        );
        assert!(
            flagship.streaming_memory_reduction >= 10.0,
            "flagship streaming residency reduction {:.1}x fell below the 10x floor",
            flagship.streaming_memory_reduction
        );
    }

    let json = render_json(&rows);
    std::fs::write(&out_path, json).expect("write benchmark output");
    let best = rows
        .iter()
        .map(|r| r.view_memory_reduction)
        .fold(f64::NEG_INFINITY, f64::max);
    eprintln!("wrote {out_path} (best per-view memory reduction {best:.0}x)");
}

fn run_schedule(s: &Schedule, confidence: f64) -> Row {
    let config = match s.max_triples {
        Some(cap) => EstimatorConfig::fleet(cap),
        None => EstimatorConfig::default(),
    };
    let est = MWorkerEstimator::new(config.clone());
    let cap_label = s
        .max_triples
        .map_or("uncapped".to_string(), |c| format!("cap {c}"));
    eprintln!(
        "schedule m={} n={} density={} ({cap_label}) ...",
        s.m, s.n, s.density
    );
    let inst = BinaryScenario::paper_default(s.m, s.n, s.density).generate(&mut rng(20260730));
    let data = inst.responses();
    let index = OverlapIndex::from_matrix(data);

    // Peer-scoped arm: the shipped hot path.
    let start = Instant::now();
    let scoped_report = est
        .evaluate_all_indexed(&index, confidence)
        .expect("m >= 3");
    let eval_peer_scoped_ms = start.elapsed().as_secs_f64() * 1e3;

    // Population arm: the same estimator over the full-view adapter.
    let start = Instant::now();
    let population_report = evaluate_all_population(&est, &index, confidence);
    let eval_population_ms = start.elapsed().as_secs_f64() * 1e3;

    let outputs_identical = reports_identical(&scoped_report, &population_report);

    // Measured bytes per view, averaged over a deterministic sample of
    // anchors (building all m population views just to weigh them
    // would double the population arm for no extra information).
    let sample: Vec<WorkerId> = (0..s.m as u32)
        .step_by((s.m / 64).max(1))
        .map(WorkerId)
        .collect();
    let mut scoped_bytes = 0usize;
    let mut population_bytes = 0usize;
    for &w in &sample {
        let pairs = crowd_core::pairing::form_pairs_limited(
            &index,
            w,
            config.pairing,
            config.min_pair_overlap,
            config.max_triples,
        );
        let peers = crowd_core::pairing::pairing_peers(&pairs);
        scoped_bytes += index.anchored_for(w, &peers).mask_bytes();
        population_bytes += index.anchored(w).mask_bytes();
    }
    let bytes_per_view_peer_scoped = scoped_bytes as f64 / sample.len() as f64;
    let bytes_per_view_population = population_bytes as f64 / sample.len() as f64;

    // Streaming schedule: ingest everything, evaluate once, measure
    // what actually stays resident in the maintained views.
    let mut monitor = IncrementalEvaluator::new(s.m, s.n, 2, config.clone());
    let start = Instant::now();
    for r in data.iter() {
        monitor.ingest(r).expect("stream is duplicate-free");
    }
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let streaming_report = monitor.evaluate_all(confidence).expect("m >= 3");
    let eval_streaming_ms = start.elapsed().as_secs_f64() * 1e3;
    let streaming_outputs_identical = reports_identical(&scoped_report, &streaming_report);
    let streaming_resident_mask_bytes = monitor.view_mask_bytes();
    let streaming_population_mask_bytes = bytes_per_view_population * s.m as f64;

    let row = Row {
        m: s.m,
        n: s.n,
        density: s.density,
        max_triples: s.max_triples,
        responses: data.n_responses(),
        eval_peer_scoped_ms,
        eval_population_ms,
        outputs_identical,
        bytes_per_view_peer_scoped,
        bytes_per_view_population,
        view_memory_reduction: bytes_per_view_population / bytes_per_view_peer_scoped,
        ingest_ms,
        eval_streaming_ms,
        streaming_outputs_identical,
        streaming_resident_mask_bytes,
        streaming_population_mask_bytes,
        streaming_memory_reduction: streaming_population_mask_bytes
            / streaming_resident_mask_bytes.max(1) as f64,
        streaming_reanchors: monitor.reanchor_count(),
    };
    eprintln!(
        "  eval scoped {eval_peer_scoped_ms:.1} ms | population {eval_population_ms:.1} ms | \
         view {bytes_per_view_peer_scoped:.0} B vs {bytes_per_view_population:.0} B \
         ({:.1}x) | streaming resident {streaming_resident_mask_bytes} B ({:.1}x)",
        row.view_memory_reduction, row.streaming_memory_reduction
    );
    row
}

/// The population arm: every worker evaluated through the full-view
/// adapter, failure taxonomy collected exactly like
/// `evaluate_all_indexed`.
fn evaluate_all_population(
    est: &MWorkerEstimator,
    index: &OverlapIndex,
    confidence: f64,
) -> WorkerReport {
    let pop = PopulationViews(index);
    let mut report = WorkerReport::default();
    for worker in index.workers() {
        match est.evaluate_worker_on(&pop, worker, confidence) {
            Ok(a) => report.assessments.push(a),
            Err(e) => report.failures.push((worker, e)),
        }
    }
    report
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
        "{{\n  \"benchmark\": \"peer-scoped anchored views: per-view memory and evaluate-all/streaming throughput vs population-wide views\",\n  \"confidence\": 0.9,\n  \"timing\": \"wall clock, milliseconds; view memory measured via mask_bytes()\",\n  \"host_available_parallelism\": {cores},\n  \"schedules\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"workers\": {},\n",
                "      \"tasks\": {},\n",
                "      \"density\": {},\n",
                "      \"max_triples\": {},\n",
                "      \"responses\": {},\n",
                "      \"eval_peer_scoped_ms\": {:.2},\n",
                "      \"eval_population_ms\": {:.2},\n",
                "      \"outputs_identical\": {},\n",
                "      \"bytes_per_view_peer_scoped\": {:.1},\n",
                "      \"bytes_per_view_population\": {:.1},\n",
                "      \"view_memory_reduction\": {:.2},\n",
                "      \"streaming_ingest_ms\": {:.2},\n",
                "      \"eval_streaming_ms\": {:.2},\n",
                "      \"streaming_outputs_identical\": {},\n",
                "      \"streaming_resident_mask_bytes\": {},\n",
                "      \"streaming_population_mask_bytes\": {:.0},\n",
                "      \"streaming_memory_reduction\": {:.2},\n",
                "      \"streaming_reanchors\": {}\n",
                "    }}{}\n",
            ),
            r.m,
            r.n,
            r.density,
            r.max_triples.map_or("null".to_string(), |c| c.to_string()),
            r.responses,
            r.eval_peer_scoped_ms,
            r.eval_population_ms,
            r.outputs_identical,
            r.bytes_per_view_peer_scoped,
            r.bytes_per_view_population,
            r.view_memory_reduction,
            r.ingest_ms,
            r.eval_streaming_ms,
            r.streaming_outputs_identical,
            r.streaming_resident_mask_bytes,
            r.streaming_population_mask_bytes,
            r.streaming_memory_reduction,
            r.streaming_reanchors,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
