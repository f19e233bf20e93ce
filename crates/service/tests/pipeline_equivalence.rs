//! Differential tests pinning the pipelined runtime **bit-identical**
//! to single-threaded streaming evaluation at every snapshot, under
//! randomized arrival orders, batch sizes (1, 7, 256) and shard
//! counts (1, 2, 8), with mid-stream snapshots — binary and k-ary —
//! plus the runtime's edge cases (ingest-after-drain, empty-shard
//! routing, invalid requests).
//!
//! The reference is [`crowd_core::IncrementalEvaluator`] /
//! [`crowd_core::KaryIncrementalEvaluator`] fed exactly the same
//! responses in exactly the same order; the service's merged
//! snapshots must reproduce its reports bit for bit (interval bits,
//! triple counts, failure taxonomy) at every drain point.

use crowd_core::{
    EstimatorConfig, IncrementalEvaluator, KaryIncrementalEvaluator, KaryWorkerReport, WorkerReport,
};
use crowd_data::{Response, ResponseMatrix, WorkerId};
use crowd_service::{AssessmentService, ServiceConfig, ServiceError};
use crowd_shard::ShardPlan;
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng};

const CONFIDENCE: f64 = 0.9;

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
        && a.failures
            .iter()
            .zip(&b.failures)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1)
}

fn kary_reports_identical(a: &KaryWorkerReport, b: &KaryWorkerReport) -> bool {
    a.assessments.len() == b.assessments.len()
        && a.failures.len() == b.failures.len()
        && a.assessments.iter().zip(&b.assessments).all(|(x, y)| {
            x.worker == y.worker
                && x.triples_used == y.triples_used
                && x.intervals.len() == y.intervals.len()
                && x.intervals.iter().zip(&y.intervals).all(|(p, q)| {
                    p.center.to_bits() == q.center.to_bits()
                        && p.half_width.to_bits() == q.half_width.to_bits()
                })
        })
        && a.failures
            .iter()
            .zip(&b.failures)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1)
}

/// Streams one arrival schedule into both the service (batched) and
/// the serial reference, snapshotting mid-stream and at the end;
/// panics on any divergence. Returns the service for post-checks.
fn run_binary_differential(
    data: &ResponseMatrix,
    n_shards: usize,
    batch: usize,
    seed: u64,
) -> AssessmentService {
    let plan = ShardPlan::build_clustered(data, n_shards);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(seed));
    let batches: Vec<&[Response]> = sched.batches(batch).collect();
    let mid = batches.len() / 2;
    for (i, group) in batches.iter().enumerate() {
        service.ingest_batch(group).unwrap();
        for r in *group {
            serial.ingest(*r).unwrap();
        }
        if i + 1 == mid {
            // Mid-stream drain point: the snapshot rides the same
            // FIFO queues as the ingests, so it observes exactly this
            // prefix.
            let snap = service.snapshot(CONFIDENCE).unwrap();
            let reference = serial.evaluate_all(CONFIDENCE).unwrap();
            assert!(
                reports_identical(&snap, &reference),
                "mid-stream divergence: shards={n_shards} batch={batch} seed={seed}"
            );
            // Per-worker requests agree with the serial per-worker
            // path, including the failure taxonomy.
            for w in (0..data.n_workers() as u32).step_by(3) {
                let worker = WorkerId(w);
                match (
                    service.assess_worker(worker, CONFIDENCE),
                    serial.evaluate_worker(worker, CONFIDENCE),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.interval.center.to_bits(), b.interval.center.to_bits());
                        assert_eq!(
                            a.interval.half_width.to_bits(),
                            b.interval.half_width.to_bits()
                        );
                        assert_eq!(a.triples_used, b.triples_used);
                    }
                    (Err(ServiceError::Estimate(a)), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("outcome mismatch for {worker:?}: {a:?} vs {b:?}"),
                }
            }
        }
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert!(
        reports_identical(&snap, &reference),
        "final divergence: shards={n_shards} batch={batch} seed={seed}"
    );
    service
}

#[test]
fn binary_pipeline_is_bit_identical_to_serial_streaming() {
    let inst = BinaryScenario::paper_default(12, 60, 0.85).generate(&mut rng(501));
    let data = inst.responses();
    for &n_shards in &[1usize, 2, 8] {
        for &batch in &[1usize, 7, 256] {
            run_binary_differential(data, n_shards, batch, 1000 + n_shards as u64 * 10);
        }
    }
}

#[test]
fn binary_pipeline_is_arrival_order_invariant() {
    // Same fleet, three different arrival shuffles: every one must
    // land on the same (serial-reference) reports.
    let inst = BinaryScenario::paper_default(10, 50, 0.8).generate(&mut rng(503));
    let data = inst.responses();
    for seed in [7u64, 77, 777] {
        run_binary_differential(data, 2, 7, seed);
    }
}

#[test]
fn kary_pipeline_is_bit_identical_to_serial_streaming() {
    let inst = KaryScenario::paper_default(3, 60, 0.85)
        .with_workers(9)
        .generate(&mut rng(505));
    let data = inst.responses();
    for &(n_shards, batch) in &[(1usize, 7usize), (2, 1), (2, 256), (8, 7)] {
        let plan = ShardPlan::build_clustered(data, n_shards);
        let service =
            AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
        let mut serial = KaryIncrementalEvaluator::new(
            data.n_workers(),
            data.n_tasks(),
            data.arity(),
            EstimatorConfig::default(),
        );
        let sched = ArrivalSchedule::poisson(data, 1000.0, &mut rng(42 + batch as u64));
        let batches: Vec<&[Response]> = sched.batches(batch).collect();
        let mid = batches.len() / 2;
        for (i, group) in batches.iter().enumerate() {
            service.ingest_batch(group).unwrap();
            for r in *group {
                serial.ingest(*r).unwrap();
            }
            if i + 1 == mid {
                let snap = service.snapshot_kary(CONFIDENCE).unwrap();
                let reference = serial.evaluate_all(CONFIDENCE).unwrap();
                assert!(
                    kary_reports_identical(&snap, &reference),
                    "mid-stream k-ary divergence: shards={n_shards} batch={batch}"
                );
                let worker = WorkerId(1);
                match (
                    service.assess_worker_kary(worker, CONFIDENCE),
                    serial.evaluate_worker(worker, CONFIDENCE),
                ) {
                    (Ok(a), Ok(b)) => {
                        for (p, q) in a.intervals.iter().zip(&b.intervals) {
                            assert_eq!(p.center.to_bits(), q.center.to_bits());
                            assert_eq!(p.half_width.to_bits(), q.half_width.to_bits());
                        }
                    }
                    (Err(ServiceError::Estimate(a)), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("k-ary outcome mismatch: {a:?} vs {b:?}"),
                }
            }
        }
        let snap = service.snapshot_kary(CONFIDENCE).unwrap();
        let reference = serial.evaluate_all(CONFIDENCE).unwrap();
        assert!(
            kary_reports_identical(&snap, &reference),
            "final k-ary divergence: shards={n_shards} batch={batch}"
        );
    }
}

#[test]
fn ingest_continues_after_drain() {
    // Drain is a checkpoint, not shutdown: ingest before and after a
    // drain barrier, and the final snapshot still matches a serial
    // reference over everything.
    let inst = BinaryScenario::paper_default(8, 40, 0.9).generate(&mut rng(507));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    let all: Vec<Response> = data.iter().collect();
    let cut = all.len() / 2;
    for chunk in all[..cut].chunks(16) {
        service.ingest_batch(chunk).unwrap();
    }
    service.drain().unwrap();
    // At the drain point the resident counts are settled and exact.
    let stats = service.stats().unwrap();
    let expect_routed: u64 = all[..cut]
        .iter()
        .map(|r| service.plan().closure_shards(r.worker).len() as u64)
        .sum();
    assert_eq!(
        stats.shards.iter().map(|s| s.responses).sum::<u64>(),
        expect_routed
    );
    for chunk in all[cut..].chunks(16) {
        service.ingest_batch(chunk).unwrap();
    }
    for r in &all {
        serial.ingest(*r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert!(reports_identical(&snap, &reference));
}

#[test]
fn empty_shards_route_and_snapshot_cleanly() {
    // More shards than workers: trailing shards have no anchors, no
    // closure and receive no ingest, yet the fleet snapshot and
    // per-worker requests behave exactly like the serial reference.
    let inst = BinaryScenario::paper_default(5, 30, 0.9).generate(&mut rng(509));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 9);
    assert!(plan.shards().iter().any(|s| s.is_empty()));
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    for r in data.iter() {
        service.ingest(r).unwrap();
        serial.ingest(r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert!(reports_identical(&snap, &reference));
    let stats = service.stats().unwrap();
    for shard in &stats.shards {
        let spec = &service.plan().shards()[shard.shard];
        if spec.is_empty() {
            assert_eq!(shard.responses, 0, "empty shards must see no ingest");
        }
    }
}

#[test]
fn invalid_requests_surface_the_data_taxonomy() {
    use crowd_data::{DataError, Label, TaskId};
    let inst = BinaryScenario::paper_default(6, 30, 0.9).generate(&mut rng(511));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    // Out-of-fleet worker: rejected before routing, nothing enqueued.
    let bogus = Response {
        worker: WorkerId(99),
        task: TaskId(0),
        label: Label(0),
    };
    assert!(matches!(
        service.ingest(bogus),
        Err(ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 99
        }))
    ));
    assert!(matches!(
        service.assess_worker(WorkerId(99), CONFIDENCE),
        Err(ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 99
        }))
    ));
    let stats = service.stats().unwrap();
    assert_eq!(stats.shards.iter().map(|s| s.responses).sum::<u64>(), 0);
    // A duplicate response is rejected by the substrate on every
    // subscribing shard but counted once fleet-wide (home shard).
    let first = data.iter().next().unwrap();
    service.ingest(first).unwrap();
    service.ingest(first).unwrap();
    service.drain().unwrap();
    let stats = service.stats().unwrap();
    assert_eq!(stats.total_rejected(), 1);
    // The resident copy is intact: snapshot still works.
    for r in data.iter().skip(1) {
        service.ingest(r).unwrap();
    }
    let mut serial = IncrementalEvaluator::new(
        data.n_workers(),
        data.n_tasks(),
        data.arity(),
        EstimatorConfig::default(),
    );
    for r in data.iter() {
        serial.ingest(r).unwrap();
    }
    let snap = service.snapshot(CONFIDENCE).unwrap();
    let reference = serial.evaluate_all(CONFIDENCE).unwrap();
    assert!(reports_identical(&snap, &reference));
}

#[test]
fn runtime_counters_reflect_the_stream() {
    // After a full stream + snapshot, the surfaced diagnostics are
    // live: batches counted, batch-size histogram populated, and the
    // substrate's gram/reanchor counters visible through the service.
    let inst = BinaryScenario::paper_default(10, 50, 0.9).generate(&mut rng(513));
    let data = inst.responses();
    let plan = ShardPlan::build_clustered(data, 2);
    let service =
        AssessmentService::spawn(plan, data.n_tasks(), data.arity(), ServiceConfig::default());
    let all: Vec<Response> = data.iter().collect();
    let cut = all.len() / 2;
    for chunk in all[..cut].chunks(7) {
        service.ingest_batch(chunk).unwrap();
    }
    // First snapshot anchors every view; the second, after more
    // ingest, must have patched grams in place.
    service.snapshot(CONFIDENCE).unwrap();
    let before = service.stats().unwrap();
    for chunk in all[cut..].chunks(7) {
        service.ingest_batch(chunk).unwrap();
    }
    service.snapshot(CONFIDENCE).unwrap();
    let after = service.stats().unwrap();
    assert_eq!(after.submitted, all.len() as u64);
    assert!(after.batch_sizes.total() > 0);
    assert!(after.batch_sizes.counts()[3] > 0, "size-7 batches bucket");
    assert!(after.max_queue_high_water() >= 1);
    assert!(
        after.total_gram_patches() > before.total_gram_patches(),
        "second half of the stream must patch materialized grams in place"
    );
    assert!(after.total_reanchors() >= before.total_reanchors());
    // Shutdown serves the same counters from the joined threads.
    let finals = service.shutdown().unwrap();
    assert_eq!(finals.submitted, after.submitted);
    assert_eq!(
        finals.shards.iter().map(|s| s.responses).sum::<u64>(),
        after.shards.iter().map(|s| s.responses).sum::<u64>()
    );
}
