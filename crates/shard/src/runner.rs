//! Shard indices, shard execution and report merging.
//!
//! [`ShardIndex`] is the state one shard *process* holds: a scoped
//! [`OverlapIndex`] (full rows for the shard's closure, empty rows
//! elsewhere, global id space) backed by the sparse
//! [`crowd_data::PairMap`] — pair state proportional to the
//! co-occurring pairs among the closure, never `O(m²)`.
//! [`ShardRunner`] evaluates a shard's anchors through the same
//! deterministic chunked-parallel machinery as the single-process
//! `evaluate_all_indexed_parallel`, and [`merge_reports`] recombines
//! the per-shard reports into one fleet report that is
//! **bit-identical** to the unsharded run. Both are generic over the
//! estimator ([`Assessment`]): binary and k-ary shards run the same
//! code.

use crowd_core::{
    Assessment, AssessmentRow, EstimateError, EstimatorConfig, KaryMWorkerEstimator,
    KaryWorkerReport, MWorkerEstimator, Report, WorkerReport,
};
use crowd_data::{OverlapIndex, ResponseMatrix, WorkerId};

use crate::plan::{ShardPlan, ShardSpec};

/// The per-process substrate of one shard; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardIndex {
    anchors: Vec<WorkerId>,
    closure_len: usize,
    index: OverlapIndex,
}

impl ShardIndex {
    /// Builds the shard's scoped, sparse-pair index from the full
    /// data. In a distributed deployment each shard process would run
    /// exactly this over its slice of the response log; the closure
    /// tells it which workers' responses to retain.
    pub fn build(data: &ResponseMatrix, spec: &ShardSpec) -> Self {
        Self {
            anchors: spec.anchors.clone(),
            closure_len: spec.closure.len(),
            index: OverlapIndex::from_matrix_scoped(data, &spec.closure),
        }
    }

    /// The scoped overlap index (global id space).
    pub fn index(&self) -> &OverlapIndex {
        &self.index
    }

    /// The anchors this shard evaluates.
    pub fn anchor_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.anchors.iter().copied()
    }

    /// Number of workers whose rows the shard holds.
    pub fn closure_len(&self) -> usize {
        self.closure_len
    }

    /// Responses resident in the shard (closure rows only).
    pub fn n_responses(&self) -> usize {
        self.index.n_responses()
    }

    /// Bytes resident in the shard's sparse pair table — the number
    /// the scaling benchmark compares against the dense fleet-wide
    /// [`crowd_data::PairCache`].
    pub fn pair_table_bytes(&self) -> usize {
        self.index.pair_table_bytes()
    }
}

/// Runs shards and merges their reports; see the [crate docs](crate)
/// for the pipeline shape and the bit-identity argument.
#[derive(Debug, Clone, Default)]
pub struct ShardRunner {
    config: EstimatorConfig,
    threads: usize,
}

impl ShardRunner {
    /// A runner evaluating with the given estimator configuration,
    /// serial within each shard.
    pub fn new(config: EstimatorConfig) -> Self {
        Self { config, threads: 1 }
    }

    /// Evaluate each shard's anchors across `threads` scoped threads
    /// (the per-process thread budget; chunking is deterministic, so
    /// the thread count never changes outputs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Evaluates one shard's anchors with estimator `A` against its
    /// scoped index. Rows are bit-identical to the corresponding rows
    /// of an unsharded `evaluate_all_indexed_parallel`.
    pub fn evaluate_shard_as<A: Assessment>(
        &self,
        shard: &ShardIndex,
        confidence: f64,
    ) -> Result<Report<A::Row>, EstimateError> {
        let anchors: Vec<WorkerId> = shard.anchor_ids().collect();
        A::from_config(self.config.clone()).evaluate_workers_indexed_parallel(
            shard.index(),
            &anchors,
            confidence,
            self.threads,
        )
    }

    /// The whole pipeline in one call with estimator `A` — build every
    /// shard index, evaluate its anchors, merge: the single-machine
    /// driver and the reference the differential tests pin against
    /// `evaluate_all_indexed_parallel`. Shards are built and dropped
    /// one at a time, so peak pair-state memory is one shard's, not
    /// the fleet's.
    pub fn run_as<A: Assessment>(
        &self,
        data: &ResponseMatrix,
        plan: &ShardPlan,
        confidence: f64,
    ) -> Result<Report<A::Row>, EstimateError> {
        let mut parts = Vec::with_capacity(plan.n_shards());
        for spec in plan.shards() {
            let shard = ShardIndex::build(data, spec);
            parts.push(self.evaluate_shard_as::<A>(&shard, confidence)?);
        }
        Ok(merge_reports(parts))
    }

    /// [`ShardRunner::evaluate_shard_as`] for binary data (Algorithm A2).
    pub fn evaluate_shard(
        &self,
        shard: &ShardIndex,
        confidence: f64,
    ) -> Result<WorkerReport, EstimateError> {
        self.evaluate_shard_as::<MWorkerEstimator>(shard, confidence)
    }

    /// [`ShardRunner::run_as`] for binary data (Algorithm A2).
    pub fn run(
        &self,
        data: &ResponseMatrix,
        plan: &ShardPlan,
        confidence: f64,
    ) -> Result<WorkerReport, EstimateError> {
        self.run_as::<MWorkerEstimator>(data, plan, confidence)
    }

    /// [`ShardRunner::run_as`] for k-ary data (the m-worker A3
    /// extension).
    pub fn run_kary(
        &self,
        data: &ResponseMatrix,
        plan: &ShardPlan,
        confidence: f64,
    ) -> Result<KaryWorkerReport, EstimateError> {
        self.run_as::<KaryMWorkerEstimator>(data, plan, confidence)
    }
}

/// Recombines per-shard reports of either estimator into one fleet
/// report in canonical worker order; rows are kept verbatim, so the
/// merged report is bit-identical to a single-process run (see
/// [`Report::merge`]). Shard order is irrelevant.
pub fn merge_reports<R: AssessmentRow>(parts: impl IntoIterator<Item = Report<R>>) -> Report<R> {
    Report::merge(parts)
}

/// The k-ary name of [`merge_reports`].
pub use merge_reports as merge_kary_reports;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::{Label, ResponseMatrixBuilder, TaskId};

    fn two_neighbourhoods() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::new(6, 24, 2);
        for w in 0..3u32 {
            for t in 0..12u32 {
                b.push(WorkerId(w), TaskId(t), Label(((w + t) % 2) as u16))
                    .unwrap();
            }
        }
        for w in 3..6u32 {
            for t in 12..24u32 {
                b.push(WorkerId(w), TaskId(t), Label((w % 2) as u16))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn shard_index_holds_only_closure_rows() {
        let data = two_neighbourhoods();
        let plan = ShardPlan::build(&data, 2);
        let shard = ShardIndex::build(&data, &plan.shards()[0]);
        assert_eq!(shard.closure_len(), 3, "disjoint neighbourhoods");
        assert_eq!(shard.anchor_ids().count(), 3);
        // Closure rows are complete, out-of-closure rows are empty.
        assert_eq!(
            shard.index().worker_responses(WorkerId(0)),
            data.worker_responses(WorkerId(0))
        );
        assert!(shard.index().worker_responses(WorkerId(4)).is_empty());
        assert_eq!(shard.n_responses(), 36);
        assert!(shard.pair_table_bytes() > 0);
    }

    #[test]
    fn merge_is_shard_order_invariant() {
        let data = two_neighbourhoods();
        let plan = ShardPlan::build(&data, 2);
        let runner = ShardRunner::new(EstimatorConfig::default());
        let parts: Vec<WorkerReport> = plan
            .shards()
            .iter()
            .map(|spec| {
                runner
                    .evaluate_shard(&ShardIndex::build(&data, spec), 0.9)
                    .unwrap()
            })
            .collect();
        let forward = merge_reports(parts.clone());
        let backward = merge_reports(parts.into_iter().rev());
        assert_eq!(forward.assessments.len(), backward.assessments.len());
        for (f, b) in forward.assessments.iter().zip(&backward.assessments) {
            assert_eq!(f.worker, b.worker);
            assert_eq!(f.interval, b.interval);
        }
        let f_fail: Vec<WorkerId> = forward.failures.iter().map(|f| f.0).collect();
        let b_fail: Vec<WorkerId> = backward.failures.iter().map(|f| f.0).collect();
        assert_eq!(f_fail, b_fail);
    }
}
