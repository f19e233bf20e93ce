//! `evaluate_all` scaling benchmark: the naive per-worker merge-scan
//! path versus the one-pass [`crowd_data::OverlapIndex`] substrate, at
//! 1, 4 and 8 threads, over several m × n × density scenarios.
//!
//! Emits `BENCH_PR1.json` (override the path with the first CLI
//! argument) so future PRs have a recorded perf trajectory to beat:
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr1
//! ```
//!
//! Every timed variant is also checked for *bit-identical* output
//! against the naive reference — the speedup claims below are only
//! meaningful because the substrates agree exactly.

use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator, WorkerReport};
use crowd_sim::{BinaryScenario, rng};
use std::time::Instant;

/// One benchmark scenario shape.
struct Scenario {
    m: usize,
    n: usize,
    density: f64,
    /// Timed repetitions (the minimum is reported).
    reps: usize,
}

/// Timing and equivalence results for one scenario.
struct Row {
    m: usize,
    n: usize,
    density: f64,
    naive_ms: f64,
    indexed_ms: f64,
    indexed_4t_ms: f64,
    indexed_8t_ms: f64,
    outputs_identical: bool,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR1.json".to_string());
    let confidence = 0.9;
    let est = MWorkerEstimator::new(EstimatorConfig::default());

    let scenarios = [
        Scenario {
            m: 25,
            n: 500,
            density: 0.8,
            reps: 5,
        },
        Scenario {
            m: 50,
            n: 1000,
            density: 0.7,
            reps: 3,
        },
        Scenario {
            m: 100,
            n: 2000,
            density: 0.5,
            reps: 3,
        },
        Scenario {
            m: 200,
            n: 5000,
            density: 0.5,
            reps: 1,
        },
    ];

    let mut rows = Vec::new();
    for s in &scenarios {
        eprintln!("scenario m={} n={} density={} ...", s.m, s.n, s.density);
        let inst = BinaryScenario::paper_default(s.m, s.n, s.density).generate(&mut rng(20260730));
        let data = inst.responses();

        let (naive_ms, naive) = time_best(s.reps, || {
            est.evaluate_all_naive(data, confidence).expect("m >= 3")
        });
        let (indexed_ms, indexed) = time_best(s.reps, || {
            est.evaluate_all(data, confidence).expect("m >= 3")
        });
        let (indexed_4t_ms, par4) = time_best(s.reps, || {
            est.evaluate_all_parallel(data, confidence, 4)
                .expect("m >= 3")
        });
        let (indexed_8t_ms, par8) = time_best(s.reps, || {
            est.evaluate_all_parallel(data, confidence, 8)
                .expect("m >= 3")
        });

        let outputs_identical = reports_identical(&naive, &indexed)
            && reports_identical(&indexed, &par4)
            && reports_identical(&indexed, &par8);
        assert!(
            outputs_identical,
            "substrates diverged on m={} n={} density={}",
            s.m, s.n, s.density
        );

        eprintln!(
            "  naive {naive_ms:.1} ms | indexed {indexed_ms:.1} ms ({:.1}x) | 4t {indexed_4t_ms:.1} ms | 8t {indexed_8t_ms:.1} ms ({:.1}x)",
            naive_ms / indexed_ms,
            naive_ms / indexed_8t_ms
        );
        rows.push(Row {
            m: s.m,
            n: s.n,
            density: s.density,
            naive_ms,
            indexed_ms,
            indexed_4t_ms,
            indexed_8t_ms,
            outputs_identical,
        });
    }

    let flagship = rows.last().expect("scenarios are non-empty");
    let flagship_speedup = flagship.naive_ms / flagship.indexed_ms;
    assert!(
        flagship_speedup >= 5.0,
        "flagship scenario speedup {flagship_speedup:.2}x fell below the 5x floor"
    );

    let json = render_json(&rows);
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path} (flagship indexed speedup {flagship_speedup:.1}x)");
}

/// Runs `f` `reps` times, returning the best wall-clock milliseconds
/// and the last result.
fn time_best<T>(reps: usize, f: impl Fn() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one repetition"))
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
    // Threaded columns only mean something relative to the host's core
    // budget — on a 1-core container 8t ≈ 1t by construction.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\n  \"benchmark\": \"evaluate_all scaling: naive merge scans vs OverlapIndex\",\n  \"confidence\": 0.9,\n  \"timing\": \"best-of-reps wall clock, milliseconds\",\n  \"host_available_parallelism\": {cores},\n  \"scenarios\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"workers\": {},\n",
                "      \"tasks\": {},\n",
                "      \"density\": {},\n",
                "      \"naive_ms\": {:.2},\n",
                "      \"indexed_1t_ms\": {:.2},\n",
                "      \"indexed_4t_ms\": {:.2},\n",
                "      \"indexed_8t_ms\": {:.2},\n",
                "      \"speedup_indexed_1t\": {:.2},\n",
                "      \"speedup_indexed_8t\": {:.2},\n",
                "      \"outputs_identical\": {}\n",
                "    }}{}\n",
            ),
            r.m,
            r.n,
            r.density,
            r.naive_ms,
            r.indexed_ms,
            r.indexed_4t_ms,
            r.indexed_8t_ms,
            r.naive_ms / r.indexed_ms,
            r.naive_ms / r.indexed_8t_ms,
            r.outputs_identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
