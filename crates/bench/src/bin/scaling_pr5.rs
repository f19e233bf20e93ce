//! PeerGram benchmark: evaluation-phase wall clock of the blocked
//! one-pass Gram covariance kernel versus the per-pair popcount path
//! it replaced, on a covariance-heavy fleet workload.
//!
//! Emits `BENCH_PR5.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr5
//! ```
//!
//! Per `BENCH_PR4.json`, **evaluation** — not index construction —
//! dominates assessment wall clock at fleet scale, and the Lemma 4
//! covariance assembly is its inner hot spot: `O(T²)` anchored
//! triple-overlap queries per evaluated worker, each one a fresh
//! word-by-word AND+popcount. The workload here makes that term loud
//! on purpose: a community-structured fleet (the production shape)
//! with a **high pairing degree** — `EstimatorConfig::fleet(128)`
//! gives every worker T = 128 triples over 256 distinct peers, i.e.
//! ~33k covariance popcount queries per worker on the per-pair path.
//!
//! Arms (all over one shared [`OverlapIndex`]):
//!
//! * **per-pair** — the pre-PeerGram path, reconstructed exactly: a
//!   thin [`OverlapSource`] wrapper whose anchored views answer the
//!   covariance assembly through the trait-default per-pair
//!   `triple_common` fills instead of the blocked kernel. Same
//!   integers, pre-PR cost shape.
//! * **gram** — `evaluate_all_indexed_parallel`: every consumer path
//!   now computes one blocked `PeerGram` per evaluated worker and
//!   reads the table.
//! * **streaming** — a seeded [`IncrementalEvaluator`] (maintained
//!   anchored views + maintained grams), serial by design and run
//!   over one community's anchors: a maintained gram costs
//!   `O(l²)` resident per evaluated view, so a monitor watches its
//!   community, not the whole fleet (that is what `crowd_shard`
//!   partitions).
//! * **sharded** — `ShardRunner` over an 8-shard [`ShardPlan`].
//!
//! Every arm's report is verified **bit-identical** to the per-pair
//! reference before any number is written, and the full run asserts
//! the acceptance floor: gram evaluation ≥ 2× faster than per-pair.
//! A final section sizes the locality-aware
//! [`ShardPlan::build_clustered`] against contiguous ranges on an
//! id-scrambled community fleet (closures must shrink).

use crowd_core::{
    Assessment, EstimatorConfig, IncrementalEvaluator, MWorkerEstimator, WorkerReport,
    parallel_index_map,
};
use crowd_data::{
    AnchoredOverlap, BitsetAnchored, Label, OverlapIndex, OverlapSource, PairStats, ResponseMatrix,
    ResponseMatrixBuilder, TaskId, TripleStats, WorkerId,
};
use crowd_shard::{ShardPlan, ShardRunner};
use std::time::Instant;

/// The pre-PeerGram reference substrate: forwards everything to the
/// wrapped [`OverlapIndex`] but hands out anchored views that keep
/// the **per-pair trait defaults** for the gram fills, so the
/// covariance assembly pays one popcount pass per table entry —
/// exactly the pre-PR cost — while producing the same integers.
struct PerPairIndex<'a>(&'a OverlapIndex);

/// Anchored view wrapper suppressing the blocked-kernel overrides.
struct PerPairAnchored<'a>(BitsetAnchored<'a>);

impl AnchoredOverlap for PerPairAnchored<'_> {
    fn triple_common(&self, a: WorkerId, b: WorkerId) -> usize {
        self.0.triple_common(a, b)
    }

    fn common_among(&self, others: &[WorkerId]) -> usize {
        self.0.common_among(others)
    }
    // No `gram_into`/`pair_gram_into` overrides: the trait defaults
    // run the per-pair queries above.
}

impl OverlapSource for PerPairIndex<'_> {
    type Anchored<'b>
        = PerPairAnchored<'b>
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

    fn anchored(&self, anchor: WorkerId) -> PerPairAnchored<'_> {
        PerPairAnchored(self.0.anchored(anchor))
    }

    fn anchored_for(&self, anchor: WorkerId, peers: &[WorkerId]) -> PerPairAnchored<'_> {
        PerPairAnchored(self.0.anchored_for(anchor, peers))
    }

    fn co_occurring_into(&self, worker: WorkerId, out: &mut Vec<WorkerId>) -> bool {
        self.0.co_occurring_into(worker, out)
    }
}

/// Benchmark workload shape: `communities × workers_per` workers,
/// `communities × tasks_per` tasks, every worker answering tasks of
/// its own community with probability `density`. `permute` scrambles
/// worker ids across communities (`w % communities`) — the fleet
/// shape the clustered planner exists for.
struct Workload {
    communities: usize,
    workers_per: usize,
    tasks_per: usize,
    density: f64,
    permute: bool,
}

impl Workload {
    fn n_workers(&self) -> usize {
        self.communities * self.workers_per
    }

    /// Deterministic community-structured binary crowd: per-task
    /// truth, per-worker error rate in [0.05, 0.35], responses flipped
    /// with that rate. Same `(shape, seed)` → same matrix.
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
            let community = if self.permute {
                w % self.communities
            } else {
                w / self.workers_per
            };
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

fn main() {
    let mut out_path = "BENCH_PR5.json".to_string();
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

    let (workload, max_triples, n_shards) = if smoke {
        (
            Workload {
                communities: 4,
                workers_per: 18,
                tasks_per: 40,
                density: 0.6,
                permute: false,
            },
            6,
            4,
        )
    } else {
        // High pairing degree (T = 128 triples over 256 peers) with
        // compact per-worker masks (~72 attempts → two words): the
        // regime where the per-pair path is dominated by its O(T²)
        // per-query overhead and popcount re-streaming, exactly what
        // the blocked gram batches away.
        (
            Workload {
                communities: 8,
                workers_per: 260,
                tasks_per: 80,
                density: 0.9,
                permute: false,
            },
            128,
            8,
        )
    };

    let m = workload.n_workers();
    eprintln!(
        "generating covariance-heavy workload: {} workers, {} tasks, T = {max_triples} ...",
        m,
        workload.communities * workload.tasks_per
    );
    let data = workload.generate(20260730);
    let config = EstimatorConfig::fleet(max_triples);
    let est = MWorkerEstimator::new(config.clone());

    let start = Instant::now();
    let index = OverlapIndex::from_matrix(&data);
    let build_ms = ms(start);

    // Arm 1: the per-pair reference (pre-PR covariance cost shape).
    eprintln!("per-pair arm ...");
    let per_pair_src = PerPairIndex(&index);
    let start = Instant::now();
    let outcomes = parallel_index_map(m, threads, |i| {
        est.evaluate_worker_on(&per_pair_src, WorkerId(i as u32), confidence)
    });
    let per_pair_eval_ms = ms(start);
    let mut per_pair = WorkerReport::default();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(a) => per_pair.assessments.push(a),
            Err(e) => per_pair.failures.push((WorkerId(i as u32), e)),
        }
    }

    // Arm 2: the PeerGram path every consumer now rides.
    eprintln!("gram arm ...");
    let start = Instant::now();
    let gram = est
        .evaluate_all_indexed_parallel(&index, confidence, threads)
        .expect("m >= 3");
    let gram_eval_ms = ms(start);

    // Arm 3: streaming (maintained views + maintained grams; serial).
    // A streaming monitor's maintained gram is O(l²) resident per
    // evaluated view, so the arm covers one community's anchors — the
    // deployment unit a sharded monitor would hold — and its rows are
    // pinned against the same per-pair reference.
    let streaming_subset = workload.workers_per.min(m);
    eprintln!("streaming arm ({streaming_subset} anchors) ...");
    let monitor = IncrementalEvaluator::from_matrix(&data, config.clone());
    let start = Instant::now();
    let mut streamed = WorkerReport::default();
    for i in 0..streaming_subset {
        match monitor.evaluate_worker(WorkerId(i as u32), confidence) {
            Ok(a) => streamed.assessments.push(a),
            Err(e) => streamed.failures.push((WorkerId(i as u32), e)),
        }
    }
    let streaming_eval_ms = ms(start);
    let per_pair_subset = WorkerReport {
        assessments: per_pair
            .assessments
            .iter()
            .filter(|a| a.worker.index() < streaming_subset)
            .cloned()
            .collect(),
        failures: per_pair
            .failures
            .iter()
            .filter(|f| f.0.index() < streaming_subset)
            .cloned()
            .collect(),
    };

    // Arm 4: sharded.
    eprintln!("sharded arm ({n_shards} shards) ...");
    let start = Instant::now();
    let plan = ShardPlan::build(&data, n_shards);
    let sharded = ShardRunner::new(config.clone())
        .with_threads(threads)
        .run(&data, &plan, confidence)
        .expect("m >= 3");
    let sharded_total_ms = ms(start);

    // Bit-identity gates: nothing is written unless every path agrees
    // with the per-pair reference to the bit.
    let gram_identical = reports_identical(&gram, &per_pair);
    let streaming_identical = reports_identical(&streamed, &per_pair_subset);
    let sharded_identical = reports_identical(&sharded, &per_pair);
    assert!(gram_identical, "gram path diverged from per-pair path");
    assert!(
        streaming_identical,
        "streaming path diverged from per-pair path"
    );
    assert!(
        sharded_identical,
        "sharded path diverged from per-pair path"
    );

    let speedup = per_pair_eval_ms / gram_eval_ms.max(1e-9);
    eprintln!(
        "build {build_ms:.0} ms | per-pair eval {per_pair_eval_ms:.0} ms | \
         gram eval {gram_eval_ms:.0} ms ({speedup:.2}x) | streaming {streaming_eval_ms:.0} ms | \
         sharded {sharded_total_ms:.0} ms"
    );
    if !smoke {
        assert!(
            speedup >= 2.0,
            "gram evaluation speedup {speedup:.2}x fell below the 2x floor \
             ({per_pair_eval_ms:.0} ms -> {gram_eval_ms:.0} ms)"
        );
    }

    // Shard-plan quality on an id-scrambled community fleet: the
    // locality-aware planner must shrink the largest closure.
    let plan_workload = if smoke {
        Workload {
            communities: 4,
            workers_per: 10,
            tasks_per: 20,
            density: 0.5,
            permute: true,
        }
    } else {
        Workload {
            communities: 50,
            workers_per: 20,
            tasks_per: 40,
            density: 0.5,
            permute: true,
        }
    };
    eprintln!(
        "shard-plan quality: {} scrambled workers ...",
        plan_workload.n_workers()
    );
    let scrambled = plan_workload.generate(20260731);
    let plan_shards = if smoke { 4 } else { 10 };
    let start = Instant::now();
    let contiguous = ShardPlan::build(&scrambled, plan_shards);
    let contiguous_plan_ms = ms(start);
    let start = Instant::now();
    let clustered = ShardPlan::build_clustered(&scrambled, plan_shards);
    let clustered_plan_ms = ms(start);
    let closure_reduction =
        contiguous.max_closure_len() as f64 / clustered.max_closure_len().max(1) as f64;
    eprintln!(
        "  contiguous max closure {} ({contiguous_plan_ms:.0} ms) | \
         clustered max closure {} ({clustered_plan_ms:.0} ms) | {closure_reduction:.1}x",
        contiguous.max_closure_len(),
        clustered.max_closure_len()
    );
    assert!(
        clustered.max_closure_len() < contiguous.max_closure_len(),
        "clustered planning must shrink closures on an id-scrambled community fleet"
    );

    let json = render_json(
        &workload,
        &data,
        max_triples,
        build_ms,
        per_pair_eval_ms,
        gram_eval_ms,
        (streaming_eval_ms, streaming_subset),
        sharded_total_ms,
        n_shards,
        &[
            ("gram", gram_identical),
            ("streaming", streaming_identical),
            ("sharded", sharded_identical),
        ],
        (contiguous.max_closure_len(), clustered.max_closure_len()),
    );
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path} (gram evaluation speedup {speedup:.2}x)");
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
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
    max_triples: usize,
    build_ms: f64,
    per_pair_eval_ms: f64,
    gram_eval_ms: f64,
    streaming: (f64, usize),
    sharded_total_ms: f64,
    n_shards: usize,
    identical: &[(&str, bool)],
    closures: (usize, usize),
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"PeerGram: blocked one-pass Gram covariance kernel vs the per-pair popcount path\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"timing\": \"wall clock, milliseconds; all arms share one prebuilt OverlapIndex except sharded (plan+build+eval) and streaming (seeded, serial)\",\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"communities\": {},\n",
            "    \"within_community_density\": {},\n",
            "    \"responses\": {},\n",
            "    \"max_triples\": {}\n",
            "  }},\n",
            "  \"index_build_ms\": {:.2},\n",
            "  \"eval\": {{\n",
            "    \"per_pair_ms\": {:.2},\n",
            "    \"gram_ms\": {:.2},\n",
            "    \"speedup\": {:.2},\n",
            "    \"streaming_serial_ms\": {:.2},\n",
            "    \"streaming_subset_workers\": {},\n",
            "    \"sharded_total_ms\": {:.2},\n",
            "    \"shards\": {}\n",
            "  }},\n",
        ),
        cores,
        w.n_workers(),
        w.communities * w.tasks_per,
        w.communities,
        w.density,
        data.n_responses(),
        max_triples,
        build_ms,
        per_pair_eval_ms,
        gram_eval_ms,
        per_pair_eval_ms / gram_eval_ms.max(1e-9),
        streaming.0,
        streaming.1,
        sharded_total_ms,
        n_shards,
    );
    s.push_str("  \"outputs_identical\": {\n");
    for (i, (name, ok)) in identical.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {ok}{}\n",
            if i + 1 < identical.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        concat!(
            "  }},\n",
            "  \"shard_plan_quality\": {{\n",
            "    \"fleet\": \"id-scrambled community workload\",\n",
            "    \"contiguous_max_closure\": {},\n",
            "    \"clustered_max_closure\": {},\n",
            "    \"closure_reduction\": {:.2}\n",
            "  }}\n",
            "}}\n",
        ),
        closures.0,
        closures.1,
        closures.0 as f64 / closures.1.max(1) as f64,
    ));
    s
}
