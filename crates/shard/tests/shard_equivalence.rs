//! Differential tests: the sharded pipeline must reproduce the
//! single-process `evaluate_all_indexed_parallel` **bit for bit** —
//! across shard counts, estimator families (binary + k-ary),
//! configurations, and the edge cases sharding introduces (empty
//! shards, silent workers, anchors whose peers all live in another
//! shard).

use crowd_core::pairing::reachable_peers;
use crowd_core::{
    Assessment, EstimatorConfig, KaryMWorkerEstimator, KaryWorkerReport, MWorkerEstimator,
    WorkerReport,
};
use crowd_data::{
    Label, OverlapIndex, PairBackend, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId,
};
use crowd_shard::{ShardIndex, ShardPlan, ShardRunner, merge_reports};
use crowd_sim::{BinaryScenario, KaryScenario, rng};

/// Bit-exact binary-report comparison.
fn assert_reports_identical(sharded: &WorkerReport, unsharded: &WorkerReport, label: &str) {
    assert_eq!(
        sharded.assessments.len(),
        unsharded.assessments.len(),
        "{label}: assessment count"
    );
    for (s, u) in sharded.assessments.iter().zip(&unsharded.assessments) {
        assert_eq!(s.worker, u.worker, "{label}");
        assert_eq!(
            s.interval.center.to_bits(),
            u.interval.center.to_bits(),
            "{label}: center of {:?}",
            s.worker
        );
        assert_eq!(
            s.interval.half_width.to_bits(),
            u.interval.half_width.to_bits(),
            "{label}: width of {:?}",
            s.worker
        );
        assert_eq!(s.triples_used, u.triples_used, "{label}: {:?}", s.worker);
        assert_eq!(s.weights_fell_back, u.weights_fell_back, "{label}");
    }
    let s_fail: Vec<WorkerId> = sharded.failures.iter().map(|f| f.0).collect();
    let u_fail: Vec<WorkerId> = unsharded.failures.iter().map(|f| f.0).collect();
    assert_eq!(s_fail, u_fail, "{label}: failure rows");
}

/// Bit-exact k-ary-report comparison.
fn assert_kary_identical(sharded: &KaryWorkerReport, unsharded: &KaryWorkerReport, label: &str) {
    assert_eq!(
        sharded.assessments.len(),
        unsharded.assessments.len(),
        "{label}: assessment count"
    );
    for (s, u) in sharded.assessments.iter().zip(&unsharded.assessments) {
        assert_eq!(s.worker, u.worker, "{label}");
        assert_eq!(s.triples_used, u.triples_used, "{label}: {:?}", s.worker);
        for (a, b) in s.intervals.iter().zip(&u.intervals) {
            assert_eq!(
                a.center.to_bits(),
                b.center.to_bits(),
                "{label}: {:?}",
                s.worker
            );
            assert_eq!(
                a.half_width.to_bits(),
                b.half_width.to_bits(),
                "{label}: {:?}",
                s.worker
            );
        }
    }
    let s_fail: Vec<WorkerId> = sharded.failures.iter().map(|f| f.0).collect();
    let u_fail: Vec<WorkerId> = unsharded.failures.iter().map(|f| f.0).collect();
    assert_eq!(s_fail, u_fail, "{label}: failure rows");
}

fn check_binary(data: &ResponseMatrix, config: EstimatorConfig, label: &str) {
    let index = OverlapIndex::from_matrix(data);
    let est = MWorkerEstimator::new(config.clone());
    let unsharded = est
        .evaluate_all_indexed_parallel(&index, 0.9, 2)
        .expect("m >= 3");
    for n_shards in [1usize, 2, 7] {
        let plan = ShardPlan::build(data, n_shards);
        let runner = ShardRunner::new(config.clone()).with_threads(2);
        let sharded = runner.run(data, &plan, 0.9).expect("m >= 3");
        assert_reports_identical(&sharded, &unsharded, &format!("{label}, {n_shards} shards"));
    }
}

fn check_kary(data: &ResponseMatrix, config: EstimatorConfig, label: &str) {
    let index = OverlapIndex::from_matrix(data);
    let est = KaryMWorkerEstimator::new(config.clone());
    let unsharded = est
        .evaluate_all_indexed_parallel(&index, 0.9, 2)
        .expect("m >= 3");
    for n_shards in [1usize, 2, 7] {
        let plan = ShardPlan::build(data, n_shards);
        let runner = ShardRunner::new(config.clone()).with_threads(2);
        let sharded = runner.run_kary(data, &plan, 0.9).expect("m >= 3");
        assert_kary_identical(&sharded, &unsharded, &format!("{label}, {n_shards} shards"));
    }
}

#[test]
fn binary_sharded_equals_unsharded() {
    let inst = BinaryScenario::paper_default(11, 150, 0.7).generate(&mut rng(601));
    check_binary(
        inst.responses(),
        EstimatorConfig::default(),
        "paper default",
    );
    check_binary(inst.responses(), EstimatorConfig::fleet(2), "fleet cap 2");
}

#[test]
fn kary_sharded_equals_unsharded() {
    let inst = KaryScenario::paper_default(3, 200, 0.9)
        .with_workers(8)
        .generate(&mut rng(607));
    check_kary(
        inst.responses(),
        EstimatorConfig::default(),
        "k-ary default",
    );
    check_kary(
        inst.responses(),
        EstimatorConfig::fleet(2),
        "k-ary fleet cap",
    );
}

#[test]
fn sparse_backed_full_index_is_bit_identical_to_dense() {
    // The opt-in sparse backend on an *unscoped* index: same report,
    // pairing candidates served by the co-occurrence fast path.
    let inst = BinaryScenario::paper_default(9, 120, 0.6).generate(&mut rng(613));
    let data = inst.responses();
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let dense = est
        .evaluate_all_indexed(&OverlapIndex::from_matrix(data), 0.9)
        .unwrap();
    let sparse = est
        .evaluate_all_indexed(
            &OverlapIndex::from_matrix_with(data, PairBackend::Sparse),
            0.9,
        )
        .unwrap();
    assert_reports_identical(&sparse, &dense, "sparse backend");
}

#[test]
fn more_shards_than_workers_handles_empty_shards() {
    // m = 5 with 7 shards: two trailing shards have no anchors and an
    // empty closure; their reports are empty and merging still matches.
    let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(617));
    check_binary(inst.responses(), EstimatorConfig::default(), "empty shards");
    let plan = ShardPlan::build(inst.responses(), 7);
    let runner = ShardRunner::new(EstimatorConfig::default());
    let empty_spec = plan.shards().last().unwrap();
    assert!(empty_spec.is_empty());
    let report = runner
        .evaluate_shard(&ShardIndex::build(inst.responses(), empty_spec), 0.9)
        .unwrap();
    assert!(report.assessments.is_empty() && report.failures.is_empty());
}

#[test]
fn silent_worker_fails_identically_in_both_pipelines() {
    // Worker 3 never responds; worker 6 answers a task nobody shares.
    let mut b = ResponseMatrixBuilder::new(7, 31, 2);
    for w in [0u32, 1, 2, 4, 5] {
        for t in 0..30u32 {
            b.push(WorkerId(w), TaskId(t), Label(((w + t) % 2) as u16))
                .unwrap();
        }
    }
    b.push(WorkerId(6), TaskId(30), Label(0)).unwrap();
    let data = b.build().unwrap();
    check_binary(&data, EstimatorConfig::default(), "silent + isolated");
}

#[test]
fn anchor_with_all_peers_in_another_shard() {
    // Workers 2 and 3 work only on community-A tasks (peers 0, 1 —
    // both anchored by shard 0 under a 3-shard plan), workers 4 and 5
    // on community B. Shard 1 evaluates anchors {2, 3} whose peers all
    // live outside its anchor range — the closure must pull them in.
    let mut b = ResponseMatrixBuilder::new(6, 20, 2);
    for w in 0..4u32 {
        for t in 0..10u32 {
            b.push(WorkerId(w), TaskId(t), Label(((w * t) % 2) as u16))
                .unwrap();
        }
    }
    for w in 4..6u32 {
        for t in 10..20u32 {
            b.push(WorkerId(w), TaskId(t), Label((w % 2) as u16))
                .unwrap();
        }
    }
    let data = b.build().unwrap();
    let plan = ShardPlan::build(&data, 3);
    assert_eq!(plan.shards()[1].anchors, [WorkerId(2), WorkerId(3)]);
    let closure: Vec<u32> = plan.shards()[1].closure.iter().map(|w| w.0).collect();
    assert_eq!(closure, vec![0, 1, 2, 3], "peers 0, 1 pulled across shards");
    check_binary(&data, EstimatorConfig::default(), "cross-shard peers");
}

#[test]
fn plan_closure_covers_reachable_peers() {
    // The planner's task-harvest closure must be exactly the pairing
    // oracle: anchors ∪ reachable_peers(anchor) over the full index.
    let inst = BinaryScenario::paper_default(10, 80, 0.4).generate(&mut rng(619));
    let data = inst.responses();
    let index = OverlapIndex::from_matrix(data);
    for n_shards in [2usize, 3, 5] {
        let plan = ShardPlan::build(data, n_shards);
        for spec in plan.shards() {
            let mut expected: Vec<WorkerId> = spec.anchor_ids().collect();
            for anchor in spec.anchor_ids() {
                expected.extend(reachable_peers(&index, anchor));
            }
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(spec.closure, expected, "{n_shards} shards");
        }
    }
}

#[test]
fn merged_report_queries_work_across_shard_boundaries() {
    // The merged report is a plain WorkerReport: lookups and summary
    // statistics behave as if it came from one process.
    let inst = BinaryScenario::paper_default(8, 100, 0.8).generate(&mut rng(631));
    let data = inst.responses();
    let plan = ShardPlan::build(data, 3);
    let runner = ShardRunner::new(EstimatorConfig::default());
    let parts: Vec<WorkerReport> = plan
        .shards()
        .iter()
        .map(|spec| {
            runner
                .evaluate_shard(&ShardIndex::build(data, spec), 0.9)
                .unwrap()
        })
        .collect();
    let merged = merge_reports(parts);
    assert_eq!(
        merged.assessments.len() + merged.failures.len(),
        data.n_workers()
    );
    for w in data.workers() {
        let assessed = merged.get(w).is_some();
        let failed = merged.failures.iter().any(|f| f.0 == w);
        assert!(assessed ^ failed, "worker {w:?} covered exactly once");
    }
    assert!(merged.mean_interval_size() > 0.0);
}

/// A community-structured fleet whose worker ids interleave across
/// communities (`w % communities`), so contiguous anchor ranges drag
/// every community into every closure while a locality-aware plan can
/// keep each community on one shard.
fn interleaved_communities(communities: usize, per: usize, tasks_per: usize) -> ResponseMatrix {
    let m = communities * per;
    let mut b = ResponseMatrixBuilder::new(m, communities * tasks_per, 2);
    for w in 0..m as u32 {
        let community = w as usize % communities;
        for t in 0..tasks_per as u32 {
            if (w / communities as u32 + t).is_multiple_of(5) {
                continue; // leave some attempt sparsity
            }
            b.push(
                WorkerId(w),
                TaskId((community * tasks_per) as u32 + t),
                Label((w.wrapping_mul(2654435761).wrapping_add(t * 97) >> 7) as u16 % 2),
            )
            .unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn clustered_plans_shrink_closures_and_stay_bit_identical() {
    // The locality-aware planner must (a) cut the per-shard closure on
    // an id-scrambled community fleet and (b) keep the merged report
    // bit-identical to the unsharded pipeline — the plan/runner split
    // means only the assignment changed, never the arithmetic.
    let data = interleaved_communities(4, 8, 30);
    let index = OverlapIndex::from_matrix(&data);
    let config = EstimatorConfig::default();
    let est = MWorkerEstimator::new(config.clone());
    let unsharded = est
        .evaluate_all_indexed_parallel(&index, 0.9, 2)
        .expect("m >= 3");
    for n_shards in [2usize, 4] {
        let contiguous = ShardPlan::build(&data, n_shards);
        let clustered = ShardPlan::build_clustered(&data, n_shards);
        assert!(
            clustered.max_closure_len() < contiguous.max_closure_len(),
            "{n_shards} shards: clustered closure {} must undercut contiguous {}",
            clustered.max_closure_len(),
            contiguous.max_closure_len()
        );
        let runner = ShardRunner::new(config.clone()).with_threads(2);
        let sharded = runner.run(&data, &clustered, 0.9).expect("m >= 3");
        assert_reports_identical(
            &sharded,
            &unsharded,
            &format!("clustered plan, {n_shards} shards"),
        );
    }
}

#[test]
fn clustered_plans_stay_bit_identical_kary() {
    let inst = KaryScenario::paper_default(3, 200, 0.9)
        .with_workers(8)
        .generate(&mut rng(641));
    let data = inst.responses();
    let index = OverlapIndex::from_matrix(data);
    let config = EstimatorConfig::default();
    let est = KaryMWorkerEstimator::new(config.clone());
    let unsharded = est
        .evaluate_all_indexed_parallel(&index, 0.9, 2)
        .expect("m >= 3");
    for n_shards in [2usize, 3] {
        let plan = ShardPlan::build_clustered(data, n_shards);
        let runner = ShardRunner::new(config.clone()).with_threads(2);
        let sharded = runner.run_kary(data, &plan, 0.9).expect("m >= 3");
        assert_kary_identical(
            &sharded,
            &unsharded,
            &format!("clustered k-ary, {n_shards} shards"),
        );
    }
}
