//! Epoch-versioned per-anchor report caching over the streaming
//! substrate — re-evaluate only what an ingest actually touched.
//!
//! The estimators are per-worker: a drain-point report is a list of
//! independent rows, one per anchor, and a new response from worker
//! `w` can only move the rows of `{w} ∪ cooccur(w)` (see the dirty
//! tracking in [`crowd_data::streaming`]). [`ReportCache`] exploits
//! that by remembering, per anchor, the
//! last evaluation outcome **and the ingest epoch it was computed
//! at**. A refresh re-evaluates an anchor only when
//! [`StreamingIndex::dirty_epoch`] has advanced past its row's epoch;
//! clean rows are cloned from the cache. Steady-state drain cost
//! drops from `O(m·T)` (T = per-anchor triple/covariance work) to
//! `O(|dirty|·T)` — the dominant win under realistic skewed arrival
//! streams where most anchors are quiet between drains.
//!
//! # Exactness
//!
//! The caches are **bit-identical** to full recomputation, not
//! approximately fresh: a clean row would re-derive the same bits
//! because every statistic its evaluation reads is unchanged, and
//! failures ([`crate::EstimateError`] rows) are cached and re-validated the
//! same way as successes. Anything that changes the evaluation
//! question rather than the data — a different confidence level —
//! invalidates wholesale. The service-level property tests
//! (`crowd_service/tests/incremental_equivalence.rs`) pin cached
//! reports against full recomputation at every drain point across
//! random interleavings.
//!
//! One generic cache serves both estimators: `ReportCache` is the
//! binary (Algorithm A2) instantiation, [`KaryReportCache`] the k-ary
//! one.
//!
//! A cache is keyed to **one** [`StreamingIndex`]: epochs are
//! stream-local, so feeding a cache from two different substrates
//! makes its version stamps meaningless. (The shard runtime owns one
//! cache per shard stream, which is the intended shape.)

use crate::assessment::population;
use crate::{Assessment, KaryMWorkerEstimator, MWorkerEstimator, Report, Result};
use crowd_data::{OverlapSource, StreamingIndex, WorkerId};

/// Running counters of a report cache (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rows served from the cache without re-evaluation.
    pub hits: u64,
    /// Rows (re-)evaluated because they were absent or dirty.
    pub misses: u64,
    /// Wholesale invalidations (the confidence level changed).
    pub full_refreshes: u64,
    /// Rows re-evaluated by the most recent [`ReportCache::refresh`]
    /// call — the dirty-set size the drain actually paid for.
    pub last_dirty: usize,
}

/// Epoch-versioned cache of one estimator's per-worker assessments;
/// see the [module docs](self).
///
/// # Example
///
/// ```
/// use crowd_core::{EstimatorConfig, MWorkerEstimator, ReportCache};
/// use crowd_data::{StreamingIndex, WorkerId};
/// use crowd_sim::BinaryScenario;
///
/// let data = BinaryScenario::paper_default(5, 60, 0.9)
///     .generate(&mut crowd_sim::rng(5));
/// let stream = StreamingIndex::from_matrix(data.responses());
/// let est = MWorkerEstimator::new(EstimatorConfig::default());
/// let anchors: Vec<WorkerId> = stream.index().workers().collect();
///
/// let mut cache = ReportCache::new();
/// let first = cache.refresh(&est, &stream, &anchors, 0.9)?;
/// // No ingest since: the second drain is served entirely from cache.
/// let second = cache.refresh(&est, &stream, &anchors, 0.9)?;
/// assert_eq!(first.assessments, second.assessments);
/// assert_eq!(cache.stats().last_dirty, 0);
/// # Ok::<(), crowd_core::EstimateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReportCache<A: Assessment = MWorkerEstimator> {
    /// One optional `(epoch, outcome)` slot per worker id.
    rows: Vec<Option<(u64, Result<A::Row>)>>,
    /// Bit pattern of the confidence level the cached rows were
    /// computed at; `None` until first use. Compared exactly — a
    /// different confidence is a different question, so the rows are
    /// dropped wholesale rather than risking a stale answer.
    confidence_bits: Option<u64>,
    stats: CacheStats,
}

/// The k-ary (m-worker A3) report cache.
pub type KaryReportCache = ReportCache<KaryMWorkerEstimator>;

impl<A: Assessment> ReportCache<A> {
    /// An empty cache (first refresh evaluates every anchor).
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            confidence_bits: None,
            stats: CacheStats::default(),
        }
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cache-consulting counterpart of [`Assessment::assess_streaming`]:
    /// serves the cached outcome when `worker` is clean, re-evaluates
    /// (and re-versions) it otherwise. Bit-identical to the uncached
    /// call either way.
    pub fn assess(
        &mut self,
        estimator: &A,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<A::Row> {
        self.ensure_confidence(confidence);
        self.outcome(estimator, stream, worker, confidence)
    }

    /// Cache-consulting counterpart of
    /// [`Assessment::evaluate_workers_streaming`]: re-evaluates only
    /// the anchors dirtied since their cached rows, cloning the rest.
    /// The report (assessments and failures in `anchors` order) is
    /// bit-identical to the uncached subset evaluation.
    pub fn refresh(
        &mut self,
        estimator: &A,
        stream: &StreamingIndex,
        anchors: &[WorkerId],
        confidence: f64,
    ) -> Result<Report<A::Row>> {
        // Mirror the uncached entry point's population guard exactly —
        // the cache must be invisible in the error taxonomy too.
        population(OverlapSource::n_workers(stream))?;
        self.ensure_confidence(confidence);
        let misses = self.stats.misses;
        let report = Report::collect(
            anchors
                .iter()
                .map(|&worker| (worker, self.outcome(estimator, stream, worker, confidence))),
        );
        self.stats.last_dirty = (self.stats.misses - misses) as usize;
        Ok(report)
    }

    /// Drops every row if `confidence` differs from the cached level
    /// (exact bit comparison), counting a full refresh when live rows
    /// were actually discarded.
    fn ensure_confidence(&mut self, confidence: f64) {
        let bits = confidence.to_bits();
        if self.confidence_bits != Some(bits) {
            if self.rows.iter().any(Option::is_some) {
                self.stats.full_refreshes += 1;
            }
            self.rows.clear();
            self.confidence_bits = Some(bits);
        }
    }

    /// One cache-consulting per-anchor evaluation: serve the row if it
    /// is still exact — present and computed at an epoch not older
    /// than the worker's last dirtying ingest — or evaluate and
    /// version the result at the stream's current epoch. An id outside
    /// the stream has no epoch to version by; it goes straight to the
    /// estimator, which reports it as unknown.
    fn outcome(
        &mut self,
        estimator: &A,
        stream: &StreamingIndex,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<A::Row> {
        if worker.index() >= OverlapSource::n_workers(stream) {
            return estimator.assess_streaming(stream, worker, confidence);
        }
        if let Some(Some((epoch, outcome))) = self.rows.get(worker.index())
            && *epoch >= stream.dirty_epoch(worker)
        {
            self.stats.hits += 1;
            return outcome.clone();
        }
        self.stats.misses += 1;
        let outcome = estimator.assess_streaming(stream, worker, confidence);
        if self.rows.len() <= worker.index() {
            self.rows.resize(worker.index() + 1, None);
        }
        self.rows[worker.index()] = Some((stream.epoch(), outcome.clone()));
        outcome
    }
}

impl<A: Assessment> Default for ReportCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimateError, EstimatorConfig};
    use crowd_data::{PairBackend, Response};
    use crowd_sim::{BinaryScenario, rng};

    /// Equal reports, bit for bit: `Debug` prints every `f64` in its
    /// shortest round-trip form, so equal strings mean equal values.
    fn same<R: std::fmt::Debug>(a: &Report<R>, b: &Report<R>) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    fn estimator<A: Assessment>() -> A {
        A::from_config(EstimatorConfig::default())
    }

    /// Cached refresh equals the uncached subset evaluation bit for
    /// bit at every prefix of a stream, with ingests interleaved
    /// between drains.
    #[test]
    fn cached_refresh_matches_full_recompute_at_every_drain() {
        fn check<A: Assessment>() {
            let inst = BinaryScenario::paper_default(8, 90, 0.8).generate(&mut rng(811));
            let data = inst.responses();
            let est = estimator::<A>();
            let mut stream =
                StreamingIndex::new_with(data.n_workers(), data.n_tasks(), 2, PairBackend::Sparse);
            let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
            let mut cache = ReportCache::new();
            for (i, r) in data.iter().enumerate() {
                stream.record_response(r).unwrap();
                if i % 37 == 0 || i + 1 == data.n_responses() {
                    let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
                    let full = est
                        .evaluate_workers_streaming(&stream, &anchors, 0.9)
                        .unwrap();
                    assert!(
                        same(&cached, &full),
                        "cached report diverged at response {i}"
                    );
                }
            }
            let stats = cache.stats();
            assert!(stats.hits > 0, "steady drains must produce cache hits");
            assert!(stats.misses > 0);
            assert_eq!(stats.full_refreshes, 0);
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// A quiet stretch makes the next drain free: zero dirty rows,
    /// all hits.
    #[test]
    fn quiet_drains_are_all_hits() {
        fn check<A: Assessment>() {
            let inst = BinaryScenario::paper_default(6, 60, 0.9).generate(&mut rng(821));
            let stream = StreamingIndex::from_matrix(inst.responses());
            let est = estimator::<A>();
            let anchors: Vec<WorkerId> = stream.index().workers().collect();
            let mut cache = ReportCache::new();
            cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            assert_eq!(cache.stats().last_dirty, anchors.len());
            cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            let stats = cache.stats();
            assert_eq!(stats.last_dirty, 0);
            assert_eq!(stats.hits, anchors.len() as u64);
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// A sparse ingest burst dirties only the responder's
    /// co-occurrence neighbourhood — the next refresh re-evaluates
    /// exactly that set and the result still matches full recompute.
    #[test]
    fn sparse_burst_reevaluates_only_the_dirty_set() {
        fn check<A: Assessment>() {
            // Two disjoint communities of 4 workers over disjoint tasks.
            let mut stream = StreamingIndex::new_with(8, 40, 2, PairBackend::Sparse);
            let ingest = |s: &mut StreamingIndex, w: u32, t: u32, l: u16| {
                s.record_response(Response {
                    worker: WorkerId(w),
                    task: crowd_data::TaskId(t),
                    label: crowd_data::Label(l),
                })
                .unwrap();
            };
            for t in 0..20u32 {
                for w in 0..4u32 {
                    ingest(&mut stream, w, t, ((w + t) % 2) as u16);
                }
            }
            for t in 20..40u32 {
                for w in 4..8u32 {
                    if (w, t) == (6, 25) {
                        continue; // left for the post-drain burst below
                    }
                    ingest(&mut stream, w, t, ((w * t) % 2) as u16);
                }
            }
            let est = estimator::<A>();
            let anchors: Vec<WorkerId> = (0..8u32).map(WorkerId).collect();
            let mut cache = ReportCache::new();
            cache.refresh(&est, &stream, &anchors, 0.9).unwrap();

            // One response from worker 6 dirties only community B.
            ingest(&mut stream, 6, 25, 1);
            let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            assert_eq!(
                cache.stats().last_dirty,
                4,
                "only the responder's community is dirty"
            );
            let full = est
                .evaluate_workers_streaming(&stream, &anchors, 0.9)
                .unwrap();
            assert!(same(&cached, &full));
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// Changing the confidence level invalidates wholesale — cached
    /// rows answer a different question and must not be served.
    #[test]
    fn confidence_change_forces_full_refresh() {
        fn check<A: Assessment>() {
            let inst = BinaryScenario::paper_default(5, 50, 0.9).generate(&mut rng(831));
            let stream = StreamingIndex::from_matrix(inst.responses());
            let est = estimator::<A>();
            let anchors: Vec<WorkerId> = stream.index().workers().collect();
            let mut cache = ReportCache::new();
            cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            let at95 = cache.refresh(&est, &stream, &anchors, 0.95).unwrap();
            assert_eq!(cache.stats().full_refreshes, 1);
            assert_eq!(cache.stats().last_dirty, anchors.len());
            let full = est
                .evaluate_workers_streaming(&stream, &anchors, 0.95)
                .unwrap();
            assert!(same(&at95, &full));
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// Failure rows (e.g. NoUsableTriples) are cached and re-served
    /// like successes, and the population guard mirrors the uncached
    /// entry point.
    #[test]
    fn failures_cache_and_guards_mirror_uncached_path() {
        fn check<A: Assessment>() {
            let mut stream = StreamingIndex::new_with(4, 8, 2, PairBackend::Sparse);
            for t in 0..8u32 {
                stream
                    .record_response(Response {
                        worker: WorkerId(t % 4),
                        task: crowd_data::TaskId(t),
                        label: crowd_data::Label((t % 2) as u16),
                    })
                    .unwrap();
            }
            let est = estimator::<A>();
            let anchors: Vec<WorkerId> = (0..4u32).map(WorkerId).collect();
            let mut cache = ReportCache::new();
            let first = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            assert_eq!(first.failures.len(), 4);
            let second = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            assert_eq!(cache.stats().last_dirty, 0, "failures must cache too");
            assert!(same(&first, &second));

            let tiny = StreamingIndex::new_with(2, 4, 2, PairBackend::Sparse);
            assert_eq!(OverlapSource::n_workers(&tiny), 2);
            assert!(matches!(
                ReportCache::new().refresh(&est, &tiny, &[WorkerId(0)], 0.9),
                Err(EstimateError::NotEnoughWorkers { got: 2, need: 3 })
            ));
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// Single-worker assess shares the same row store as refresh: an
    /// assess after a refresh hits and returns the uncached row, and a
    /// refresh after a dirtying ingest + assess does not re-evaluate
    /// the already-refreshed row.
    #[test]
    fn assess_and_refresh_share_rows() {
        fn check<A: Assessment>() {
            let inst = BinaryScenario::paper_default(5, 60, 0.9).generate(&mut rng(841));
            let data = inst.responses();
            let anchor = WorkerId(2);
            // Hold one of the anchor's responses back for the dirtying
            // ingest below.
            let held = data.iter().find(|r| r.worker == anchor).unwrap();
            let mut stream =
                StreamingIndex::new_with(data.n_workers(), data.n_tasks(), 2, PairBackend::Sparse);
            for r in data.iter().filter(|r| *r != held) {
                stream.record_response(r).unwrap();
            }
            let est = estimator::<A>();
            let anchors: Vec<WorkerId> = stream.index().workers().collect();
            let mut cache = ReportCache::new();
            cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            let misses_before = cache.stats().misses;
            let a = cache.assess(&est, &stream, anchor, 0.9).unwrap();
            assert_eq!(cache.stats().misses, misses_before, "assess must hit");
            let direct = est.assess_streaming(&stream, anchor, 0.9).unwrap();
            assert_eq!(format!("{a:?}"), format!("{direct:?}"));

            let refreshed_at = stream.epoch();
            stream.record_response(held).unwrap();
            assert!(stream.is_dirty_since(anchor, refreshed_at));
            let a = cache.assess(&est, &stream, anchor, 0.9).unwrap();
            assert_eq!(cache.stats().misses, misses_before + 1);
            let direct = est.assess_streaming(&stream, anchor, 0.9).unwrap();
            assert_eq!(format!("{a:?}"), format!("{direct:?}"));
            let others_dirty = anchors
                .iter()
                .filter(|&&w| w != anchor && stream.is_dirty_since(w, refreshed_at))
                .count();
            let report = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
            assert_eq!(cache.stats().last_dirty, others_dirty);
            let full = est
                .evaluate_workers_streaming(&stream, &anchors, 0.9)
                .unwrap();
            assert!(same(&report, &full));
        }
        check::<MWorkerEstimator>();
        check::<KaryMWorkerEstimator>();
    }

    /// The k-ary cache obeys the same contract on 3-ary data.
    #[test]
    fn kary_cache_matches_full_recompute() {
        use crowd_sim::KaryScenario;
        let inst = KaryScenario::paper_default(3, 80, 0.9)
            .with_workers(6)
            .generate(&mut rng(851));
        let data = inst.responses();
        let est = KaryMWorkerEstimator::new(EstimatorConfig::default());
        let mut stream =
            StreamingIndex::new_with(data.n_workers(), data.n_tasks(), 3, PairBackend::Sparse);
        let anchors: Vec<WorkerId> = (0..data.n_workers() as u32).map(WorkerId).collect();
        let mut cache = KaryReportCache::new();
        for (i, r) in data.iter().enumerate() {
            stream.record_response(r).unwrap();
            if i % 53 == 0 || i + 1 == data.n_responses() {
                let cached = cache.refresh(&est, &stream, &anchors, 0.9).unwrap();
                let full = est
                    .evaluate_workers_streaming(&stream, &anchors, 0.9)
                    .unwrap();
                assert!(same(&cached, &full), "at response {i}");
            }
        }
        assert!(cache.stats().hits > 0);
    }
}
