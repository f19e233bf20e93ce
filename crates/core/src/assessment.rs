//! The assessment plumbing shared by both m-worker estimators.
//!
//! Algorithm A2 ([`crate::MWorkerEstimator`], binary) and its k-ary
//! extension ([`crate::KaryMWorkerEstimator`]) are both *per-anchor*:
//! a report is a list of independent rows, one per evaluated worker.
//! Nothing around that per-anchor evaluation depends on which
//! estimator runs — the report and its merge ([`Report`]), the
//! evaluate-all and subset drivers below, the epoch-versioned
//! [`crate::ReportCache`], the streaming [`crate::Incremental`]
//! evaluator, and downstream the shard runner and the service's shard
//! lanes. All of it is written once, generic over [`Assessment`],
//! which supplies only the two per-anchor evaluations that exist:
//! against a batch [`OverlapIndex`] with reusable per-thread scratch,
//! and against a maintained [`StreamingIndex`].
//!
//! Each estimator's per-anchor body, behind every entry point, checks
//! the worker id against the substrate's population: an out-of-range
//! id becomes an [`EstimateError::UnknownWorker`] row, not an index
//! panic.

use crate::evaluation::{AssessmentRow, Report};
use crate::parallel::parallel_index_map_with;
use crate::{EstimateError, EstimatorConfig, Result};
use crowd_data::{OverlapIndex, OverlapSource, ResponseMatrix, StreamingIndex, WorkerId};

/// An m-worker estimator the generic drivers, caches and evaluators
/// can run: one row type, one scratch type, and the per-anchor
/// evaluations. Both evaluations must return bit-identical rows for
/// substrates holding the same responses; the drivers rely on it.
pub trait Assessment: Clone + std::fmt::Debug + Sync {
    /// One worker's assessment.
    type Row: AssessmentRow;
    /// Reusable per-thread state of the indexed path. It never
    /// influences outputs, only allocation traffic.
    type Scratch: Default;

    /// An estimator with the given configuration.
    fn from_config(config: EstimatorConfig) -> Self;

    /// Evaluates one anchor against a batch index, reusing `scratch`
    /// across calls.
    fn assess_indexed(
        &self,
        index: &OverlapIndex,
        worker: WorkerId,
        confidence: f64,
        scratch: &mut Self::Scratch,
    ) -> Result<Self::Row>;

    /// Evaluates one anchor against a maintained streaming substrate.
    fn assess_streaming(
        &self,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<Self::Row>;

    /// Evaluates every worker, collecting per-worker failures instead
    /// of aborting (sparse real data routinely has a few unevaluable
    /// workers). Builds one [`OverlapIndex`] over the matrix and runs
    /// every worker against it.
    fn evaluate_all(&self, data: &ResponseMatrix, confidence: f64) -> Result<Report<Self::Row>> {
        self.evaluate_all_parallel(data, confidence, 1)
    }

    /// [`Assessment::evaluate_all`] against a caller-built index, for
    /// pipelines that reuse one index across many operations.
    fn evaluate_all_indexed(
        &self,
        index: &OverlapIndex,
        confidence: f64,
    ) -> Result<Report<Self::Row>> {
        self.evaluate_all_indexed_parallel(index, confidence, 1)
    }

    /// [`Assessment::evaluate_all`] across `threads` scoped threads
    /// sharing one [`OverlapIndex`]; see
    /// [`Assessment::evaluate_workers_indexed_parallel`].
    fn evaluate_all_parallel(
        &self,
        data: &ResponseMatrix,
        confidence: f64,
        threads: usize,
    ) -> Result<Report<Self::Row>> {
        population(data.n_workers())?;
        let index = OverlapIndex::from_matrix(data);
        self.evaluate_all_indexed_parallel(&index, confidence, threads)
    }

    /// Parallel [`Assessment::evaluate_all_indexed`].
    fn evaluate_all_indexed_parallel(
        &self,
        index: &OverlapIndex,
        confidence: f64,
        threads: usize,
    ) -> Result<Report<Self::Row>> {
        let workers: Vec<WorkerId> = index.workers().collect();
        self.evaluate_workers_indexed_parallel(index, &workers, confidence, threads)
    }

    /// Evaluates the given workers against `index` — the driver every
    /// indexed entry point ends in, and the shard entry point. Workers
    /// are split into contiguous chunks across `threads` scoped
    /// threads, each holding one [`Assessment::Scratch`] for its whole
    /// chunk; evaluations are independent, so every row is
    /// bit-identical to a serial full-fleet run for any thread count.
    /// Assessments and failures come back in `workers` order.
    fn evaluate_workers_indexed_parallel(
        &self,
        index: &OverlapIndex,
        workers: &[WorkerId],
        confidence: f64,
        threads: usize,
    ) -> Result<Report<Self::Row>> {
        population(index.n_workers())?;
        let outcomes = parallel_index_map_with(
            workers.len(),
            threads.max(1),
            Self::Scratch::default,
            |scratch, i| self.assess_indexed(index, workers[i], confidence, scratch),
        );
        Ok(Report::collect(workers.iter().copied().zip(outcomes)))
    }

    /// Evaluates the given workers against a maintained streaming
    /// substrate (assessments and failures in `workers` order) — the
    /// subset entry point of the shard-resident runtime. Reports
    /// merged across shards with [`Report::merge`] equal a serial
    /// full-fleet pass.
    fn evaluate_workers_streaming(
        &self,
        stream: &StreamingIndex,
        workers: &[WorkerId],
        confidence: f64,
    ) -> Result<Report<Self::Row>> {
        population(OverlapSource::n_workers(stream))?;
        Ok(Report::collect(workers.iter().map(|&worker| {
            (worker, self.assess_streaming(stream, worker, confidence))
        })))
    }
}

/// The population guard of every driver: the m-worker method needs
/// at least three workers.
pub(crate) fn population(n_workers: usize) -> Result<()> {
    if n_workers < 3 {
        return Err(EstimateError::NotEnoughWorkers {
            got: n_workers,
            need: 3,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Incremental, KaryMWorkerEstimator, MWorkerEstimator, ReportCache};
    use crowd_data::PairCache;
    use crowd_sim::{BinaryScenario, rng};

    /// An out-of-range worker id is a typed failure on every per-anchor
    /// path — both trait evaluations, the indexed and streaming
    /// drivers, the streaming evaluator, the report cache and each
    /// estimator's own single-worker entry points — never an index
    /// panic; in-range anchors of the same call are still evaluated,
    /// and a repeated cache lookup of the bad id fails the same way.
    #[test]
    fn out_of_range_worker_is_a_typed_error_on_every_path() {
        const BAD: WorkerId = WorkerId(99);
        fn unknown(e: &EstimateError) -> bool {
            matches!(e, EstimateError::UnknownWorker { worker, n_workers: 5 } if *worker == BAD)
        }
        let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(17));
        let data = inst.responses();
        let index = OverlapIndex::from_matrix(data);
        let stream = StreamingIndex::from_matrix(data);

        fn check<A: Assessment>(
            data: &ResponseMatrix,
            index: &OverlapIndex,
            stream: &StreamingIndex,
        ) {
            let est = A::from_config(EstimatorConfig::default());
            let workers = [WorkerId(1), BAD];
            let only_bad_fails = |report: Report<A::Row>| {
                assert_eq!(report.assessments.len(), 1);
                assert_eq!(report.failures.len(), 1);
                assert_eq!(report.failures[0].0, BAD);
                assert!(unknown(&report.failures[0].1));
            };

            let mut scratch = A::Scratch::default();
            assert!(unknown(
                &est.assess_indexed(index, BAD, 0.9, &mut scratch)
                    .unwrap_err()
            ));
            for threads in [1, 2] {
                only_bad_fails(
                    est.evaluate_workers_indexed_parallel(index, &workers, 0.9, threads)
                        .unwrap(),
                );
            }
            assert!(unknown(
                &est.assess_streaming(stream, BAD, 0.9).unwrap_err()
            ));
            only_bad_fails(
                est.evaluate_workers_streaming(stream, &workers, 0.9)
                    .unwrap(),
            );

            let ev = Incremental::<A>::from_matrix(data, EstimatorConfig::default());
            assert!(unknown(&ev.evaluate_worker(BAD, 0.9).unwrap_err()));

            let mut cache = ReportCache::<A>::new();
            for _ in 0..2 {
                only_bad_fails(cache.refresh(&est, stream, &workers, 0.9).unwrap());
                assert!(unknown(&cache.assess(&est, stream, BAD, 0.9).unwrap_err()));
            }
        }
        check::<MWorkerEstimator>(data, &index, &stream);
        check::<KaryMWorkerEstimator>(data, &index, &stream);

        let est = MWorkerEstimator::new(EstimatorConfig::default());
        let pairs = PairCache::from_matrix(data);
        assert!(unknown(&est.evaluate_worker(data, BAD, 0.9).unwrap_err()));
        for cache in [None, Some(&pairs)] {
            assert!(unknown(
                &est.evaluate_worker_cached(data, cache, BAD, 0.9)
                    .unwrap_err()
            ));
        }
        assert!(unknown(
            &est.evaluate_worker_on(&index, BAD, 0.9).unwrap_err()
        ));
        assert!(unknown(
            &est.evaluate_worker_on(&stream, BAD, 0.9).unwrap_err()
        ));
        let kary = KaryMWorkerEstimator::new(EstimatorConfig::default());
        assert!(unknown(&kary.evaluate_worker(data, BAD, 0.9).unwrap_err()));
        assert!(unknown(
            &kary.evaluate_worker_indexed(&index, BAD, 0.9).unwrap_err()
        ));
    }
}
