//! Sharded-assessment benchmark: pair-state memory and wall clock of
//! the shard-per-process pipeline (`crowd_shard`) versus the
//! single-process dense-pair-table path, at fleet scale.
//!
//! Emits `BENCH_PR4.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr4
//! ```
//!
//! The workload is **community-structured**: workers answer tasks in
//! their own task neighbourhood, the production shape of crowd
//! platforms (task batches / sessions) and the regime sharding is
//! for — co-occurrence is local, so a dense `O(m²)` pair table is
//! almost entirely zeros. The full run uses m = 10000 workers in 200
//! communities of 50, each answering its community's 100 tasks at 40%
//! density.
//!
//! Arms:
//!
//! * **unsharded** — one dense-backed [`OverlapIndex`] over the whole
//!   fleet, `evaluate_all_indexed_parallel`: the PR 3 pipeline. Pair
//!   state is the packed `m(m−1)/2`-entry table regardless of
//!   sparsity.
//! * **sharded, s ∈ {1, 2, 8}** — `ShardPlan::build`, then each shard
//!   builds its scoped sparse index ([`crowd_shard::ShardIndex`]) and
//!   evaluates its anchors; `merge_reports` recombines. Shards run
//!   sequentially here (one host), so the sharded wall clock is the
//!   *sum* over shards — the per-process number a deployment would
//!   see is `max_shard_ms`. Pair state is measured per shard
//!   (`pair_table_bytes`, capacity-true) and the peak across shards
//!   is what one process must hold.
//!
//! Every sharded report is verified **bit-identical** to the
//! unsharded one before any number is written, and the binary asserts
//! the acceptance floor: at the largest shard count, per-shard pair
//! state must undercut the dense table by ≥ 10× with total wall clock
//! at parity or better (≤ 1.15× the unsharded run).

use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator, WorkerReport};
use crowd_data::{Label, OverlapIndex, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_shard::{ShardIndex, ShardPlan, ShardRunner, merge_reports};
use std::time::Instant;

/// Benchmark workload shape: `communities × workers_per` workers,
/// `communities × tasks_per` tasks, every worker answering tasks of
/// its own community with probability `density`.
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

    /// Deterministic community-structured binary crowd: per-task truth,
    /// per-worker error rate in [0.05, 0.35], responses flipped with
    /// that rate. Same `(shape, seed)` → same matrix.
    fn generate(&self, seed: u64) -> ResponseMatrix {
        let m = self.n_workers();
        let n = self.communities * self.tasks_per;
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

/// Measurements for one shard count.
struct ShardedRow {
    n_shards: usize,
    plan_ms: f64,
    build_ms: f64,
    eval_ms: f64,
    total_ms: f64,
    max_shard_ms: f64,
    max_closure: usize,
    max_pair_bytes: usize,
    total_pair_bytes: usize,
    pair_memory_reduction: f64,
    outputs_identical: bool,
}

fn main() {
    let mut out_path = "BENCH_PR4.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let confidence = 0.9;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (workload, shard_counts): (Workload, Vec<usize>) = if smoke {
        (
            Workload {
                communities: 6,
                workers_per: 10,
                tasks_per: 20,
                density: 0.5,
            },
            vec![1, 2, 4],
        )
    } else {
        (
            Workload {
                communities: 200,
                workers_per: 50,
                tasks_per: 100,
                density: 0.4,
            },
            vec![1, 2, 8],
        )
    };

    let m = workload.n_workers();
    eprintln!(
        "generating community workload: {} workers, {} tasks ...",
        m,
        workload.communities * workload.tasks_per
    );
    let data = workload.generate(20260731);
    let config = EstimatorConfig::fleet(16);
    let est = MWorkerEstimator::new(config.clone());

    // Unsharded arm: dense fleet-wide index, the PR 3 pipeline.
    let start = Instant::now();
    let index = OverlapIndex::from_matrix(&data);
    let unsharded_build_ms = ms(start);
    let dense_pair_bytes = index.pair_table_bytes();
    let start = Instant::now();
    let unsharded = est
        .evaluate_all_indexed_parallel(&index, confidence, threads)
        .expect("m >= 3");
    let unsharded_eval_ms = ms(start);
    drop(index);
    eprintln!(
        "unsharded: build {unsharded_build_ms:.0} ms, eval {unsharded_eval_ms:.0} ms, \
         dense pair table {:.1} MB",
        mb(dense_pair_bytes)
    );

    let runner = ShardRunner::new(config).with_threads(threads);
    let mut rows = Vec::new();
    for &n_shards in &shard_counts {
        rows.push(run_sharded(
            &runner,
            &data,
            n_shards,
            confidence,
            dense_pair_bytes,
            &unsharded,
        ));
    }

    for r in &rows {
        assert!(
            r.outputs_identical,
            "sharded pipeline diverged from the unsharded report at {} shards",
            r.n_shards
        );
    }
    // Acceptance floor (full run): at the largest shard count the
    // per-shard pair state must undercut the dense table ≥ 10× and
    // total wall clock must hold parity.
    let unsharded_total_ms = unsharded_build_ms + unsharded_eval_ms;
    if !smoke {
        let flagship = rows.last().expect("at least one shard count");
        assert!(
            flagship.pair_memory_reduction >= 10.0,
            "pair-state reduction {:.1}x at {} shards fell below the 10x floor",
            flagship.pair_memory_reduction,
            flagship.n_shards
        );
        assert!(
            flagship.total_ms <= unsharded_total_ms * 1.15,
            "sharded wall clock {:.0} ms lost parity against unsharded {:.0} ms",
            flagship.total_ms,
            unsharded_total_ms
        );
    }

    let json = render_json(
        &workload,
        &data,
        unsharded_build_ms,
        unsharded_eval_ms,
        dense_pair_bytes,
        &rows,
    );
    std::fs::write(&out_path, json).expect("write benchmark output");
    let best = rows
        .iter()
        .map(|r| r.pair_memory_reduction)
        .fold(f64::NEG_INFINITY, f64::max);
    eprintln!("wrote {out_path} (best per-shard pair-state reduction {best:.0}x)");
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run_sharded(
    runner: &ShardRunner,
    data: &ResponseMatrix,
    n_shards: usize,
    confidence: f64,
    dense_pair_bytes: usize,
    unsharded: &WorkerReport,
) -> ShardedRow {
    eprintln!("sharded run: {n_shards} shards ...");
    let start = Instant::now();
    let plan = ShardPlan::build(data, n_shards);
    let plan_ms = ms(start);

    let mut build_ms = 0.0;
    let mut eval_ms = 0.0;
    let mut max_shard_ms = 0.0f64;
    let mut max_closure = 0usize;
    let mut max_pair_bytes = 0usize;
    let mut total_pair_bytes = 0usize;
    let mut parts = Vec::with_capacity(plan.n_shards());
    // One shard at a time, exactly as a per-process deployment would
    // hold state: peak pair memory is one shard's table.
    for spec in plan.shards() {
        let start = Instant::now();
        let shard = ShardIndex::build(data, spec);
        let b = ms(start);
        let start = Instant::now();
        parts.push(runner.evaluate_shard(&shard, confidence).expect("m >= 3"));
        let e = ms(start);
        build_ms += b;
        eval_ms += e;
        max_shard_ms = max_shard_ms.max(b + e);
        max_closure = max_closure.max(shard.closure_len());
        max_pair_bytes = max_pair_bytes.max(shard.pair_table_bytes());
        total_pair_bytes += shard.pair_table_bytes();
    }
    let merged = merge_reports(parts);

    let row = ShardedRow {
        n_shards,
        plan_ms,
        build_ms,
        eval_ms,
        total_ms: plan_ms + build_ms + eval_ms,
        max_shard_ms,
        max_closure,
        max_pair_bytes,
        total_pair_bytes,
        pair_memory_reduction: dense_pair_bytes as f64 / max_pair_bytes.max(1) as f64,
        outputs_identical: reports_identical(&merged, unsharded),
    };
    eprintln!(
        "  plan {plan_ms:.0} ms | build {build_ms:.0} ms | eval {eval_ms:.0} ms | \
         max closure {max_closure} | pair state {:.2} MB/shard vs {:.1} MB dense ({:.0}x)",
        mb(max_pair_bytes),
        mb(dense_pair_bytes),
        row.pair_memory_reduction
    );
    row
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
#[allow(clippy::too_many_arguments)]
fn render_json(
    w: &Workload,
    data: &ResponseMatrix,
    unsharded_build_ms: f64,
    unsharded_eval_ms: f64,
    dense_pair_bytes: usize,
    rows: &[ShardedRow],
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sharded assessment: per-shard sparse pair-state memory and wall clock vs the dense single-process pipeline\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"timing\": \"wall clock, milliseconds; pair state measured via pair_table_bytes() (capacity-true)\",\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"communities\": {},\n",
            "    \"within_community_density\": {},\n",
            "    \"responses\": {}\n",
            "  }},\n",
            "  \"unsharded\": {{\n",
            "    \"build_ms\": {:.2},\n",
            "    \"eval_ms\": {:.2},\n",
            "    \"dense_pair_table_bytes\": {}\n",
            "  }},\n",
            "  \"sharded\": [\n",
        ),
        cores,
        w.n_workers(),
        w.communities * w.tasks_per,
        w.communities,
        w.density,
        data.n_responses(),
        unsharded_build_ms,
        unsharded_eval_ms,
        dense_pair_bytes,
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"shards\": {},\n",
                "      \"plan_ms\": {:.2},\n",
                "      \"build_ms\": {:.2},\n",
                "      \"eval_ms\": {:.2},\n",
                "      \"total_ms\": {:.2},\n",
                "      \"max_shard_ms\": {:.2},\n",
                "      \"max_closure_workers\": {},\n",
                "      \"max_shard_pair_table_bytes\": {},\n",
                "      \"total_pair_table_bytes\": {},\n",
                "      \"pair_memory_reduction_vs_dense\": {:.2},\n",
                "      \"outputs_identical\": {}\n",
                "    }}{}\n",
            ),
            r.n_shards,
            r.plan_ms,
            r.build_ms,
            r.eval_ms,
            r.total_ms,
            r.max_shard_ms,
            r.max_closure,
            r.max_pair_bytes,
            r.total_pair_bytes,
            r.pair_memory_reduction,
            r.outputs_identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
