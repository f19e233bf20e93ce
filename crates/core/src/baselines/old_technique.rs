//! The reproduced "old technique" of reference [2] (Joglekar et al.,
//! KDD 2013) — the baseline of Figure 1.
//!
//! For worker `i` on **regular binary** data, the remaining workers are
//! split into two disjoint sets, each collapsed into a *super-worker*
//! whose response is the set's majority vote. The triangle equations
//! then yield `p_i` from the three pairwise agreement rates, exactly as
//! in the new technique — the difference is the interval construction:
//!
//! * each agreement rate gets an individual Wilson interval at the
//!   Bonferroni-elevated level `c' = 1 − (1−c)/3`, and
//! * the interval for `p_i` is the worst-case (min/max over the corner
//!   points of the `q`-box) propagation through the inversion `f`.
//!
//! Union bound + worst-case propagation are *valid* but conservative —
//! the paper reports the new delta-method intervals are up to 40%
//! tighter, which this reproduction preserves.
//!
//! The super-worker construction is the reason the old technique
//! cannot handle non-regular data: a super-worker only has a
//! well-defined error rate if its constituent workers answer the same
//! tasks (§III-C discusses exactly this limitation). Accordingly
//! [`OldTechnique::evaluate_worker`] rejects non-regular input.

use crate::agreement::Triangle;
use crate::{DegeneracyPolicy, EstimateError, EstimatorConfig, Result};
use crowd_data::{Label, ResponseMatrix, TaskId, WorkerId};
use crowd_stats::{ConfidenceInterval, wilson_interval};

/// The KDD'13 baseline estimator.
#[derive(Debug, Clone, Default)]
pub struct OldTechnique {
    config: EstimatorConfig,
}

impl OldTechnique {
    /// Creates the baseline with the given configuration (only the
    /// degeneracy policy is consulted).
    pub fn new(config: EstimatorConfig) -> Self {
        Self { config }
    }

    /// Conservative confidence interval for one worker's error rate.
    ///
    /// Requires regular data and at least 3 workers.
    pub fn evaluate_worker(
        &self,
        data: &ResponseMatrix,
        worker: WorkerId,
        confidence: f64,
    ) -> Result<ConfidenceInterval> {
        if !data.is_regular() {
            return Err(EstimateError::RequiresRegularData);
        }
        if data.n_workers() < 3 {
            return Err(EstimateError::NotEnoughWorkers {
                got: data.n_workers(),
                need: 3,
            });
        }
        if data.arity() != 2 {
            return Err(EstimateError::Numerical(
                "the old technique is defined for binary tasks only".into(),
            ));
        }
        let n = data.n_tasks();

        // Split the other workers into two balanced sets (alternating).
        let others: Vec<WorkerId> = data.workers().filter(|&w| w != worker).collect();
        let (set_a, set_b): (Vec<_>, Vec<_>) =
            others.iter().enumerate().partition(|(idx, _)| idx % 2 == 0);
        let set_a: Vec<WorkerId> = set_a.into_iter().map(|(_, &w)| w).collect();
        let set_b: Vec<WorkerId> = set_b.into_iter().map(|(_, &w)| w).collect();

        // Super-worker responses = within-set majority per task.
        let responses_a = super_worker_responses(data, &set_a);
        let responses_b = super_worker_responses(data, &set_b);
        let responses_i: Vec<Label> = (0..n)
            .map(|t| {
                data.response(worker, TaskId(t as u32))
                    .expect("regular data has all responses")
            })
            .collect();

        // Pairwise agreement counts.
        let count_agree =
            |x: &[Label], y: &[Label]| x.iter().zip(y).filter(|(a, b)| a == b).count();
        let agree_ia = count_agree(&responses_i, &responses_a);
        let agree_ib = count_agree(&responses_i, &responses_b);
        let agree_ab = count_agree(&responses_a, &responses_b);

        // Bonferroni-elevated per-rate intervals.
        let c_each = 1.0 - (1.0 - confidence) / 3.0;
        let box_ia = wilson_interval(agree_ia as u64, n as u64, c_each)?;
        let box_ib = wilson_interval(agree_ib as u64, n as u64, c_each)?;
        let box_ab = wilson_interval(agree_ab as u64, n as u64, c_each)?;

        // Worst-case propagation through the inversion over the box
        // corners.
        let epsilon = match self.config.degeneracy {
            DegeneracyPolicy::Clamp { epsilon } => epsilon,
            DegeneracyPolicy::Error => 1e-6,
        };
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &q_ij in &[box_ia.lo(), box_ia.hi()] {
            for &q_ik in &[box_ib.lo(), box_ib.hi()] {
                for &q_jk in &[box_ab.lo(), box_ab.hi()] {
                    let t = Triangle { q_ij, q_ik, q_jk }
                        .regularized(DegeneracyPolicy::Clamp { epsilon })
                        .expect("clamp policy cannot fail");
                    let p = t.error_rate();
                    if p.is_finite() {
                        lo = lo.min(p);
                        hi = hi.max(p);
                    }
                }
            }
        }
        if !(lo.is_finite() && hi.is_finite()) {
            return Err(EstimateError::Degenerate {
                what: "all corner evaluations of the q-box were invalid".into(),
            });
        }
        // Error rates live in [0, 1].
        Ok(ConfidenceInterval::from_bounds(
            lo.max(0.0),
            hi.min(1.0).max(lo.max(0.0)),
            confidence,
        ))
    }

    /// Evaluates every worker; failures abort (the baseline is only
    /// run on clean regular synthetic data).
    pub fn evaluate_all(
        &self,
        data: &ResponseMatrix,
        confidence: f64,
    ) -> Result<Vec<(WorkerId, ConfidenceInterval)>> {
        data.workers()
            .map(|w| Ok((w, self.evaluate_worker(data, w, confidence)?)))
            .collect()
    }
}

/// Majority response of a set of workers per task (ties resolve to the
/// smallest label, deterministic; with an odd set size binary ties are
/// impossible).
fn super_worker_responses(data: &ResponseMatrix, set: &[WorkerId]) -> Vec<Label> {
    let n = data.n_tasks();
    (0..n)
        .map(|t| {
            let mut counts = [0usize; 2];
            for &w in set {
                let l = data
                    .response(w, TaskId(t as u32))
                    .expect("regular data has all responses");
                counts[l.index()] += 1;
            }
            if counts[1] > counts[0] {
                Label(1)
            } else {
                Label(0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assessment, MWorkerEstimator};
    use crowd_sim::{BinaryScenario, rng};

    #[test]
    fn produces_valid_conservative_intervals() {
        let scenario = BinaryScenario::paper_default(3, 100, 1.0);
        let old = OldTechnique::default();
        let mut r = rng(73);
        let mut covered = 0;
        let mut total = 0;
        for _ in 0..100 {
            let inst = scenario.generate(&mut r);
            for (w, ci) in old.evaluate_all(inst.responses(), 0.8).unwrap() {
                total += 1;
                if ci.contains(inst.true_error_rate(w)) {
                    covered += 1;
                }
            }
        }
        let coverage = covered as f64 / total as f64;
        // Conservative: coverage must be at least the nominal level.
        assert!(
            coverage >= 0.8,
            "old-technique coverage {coverage} below nominal"
        );
    }

    #[test]
    fn wider_than_the_new_technique() {
        // The headline Figure 1 comparison: at m=3, n=100, c=0.5 the
        // old intervals are distinctly wider.
        let scenario = BinaryScenario::paper_default(3, 100, 1.0);
        let old = OldTechnique::default();
        let new = MWorkerEstimator::new(EstimatorConfig::default());
        let mut r = rng(79);
        let mut old_size = 0.0;
        let mut new_size = 0.0;
        let mut valid = 0usize;
        for _ in 0..50 {
            let inst = scenario.generate(&mut r);
            // The paper notes both techniques fail with minuscule
            // probability (square root of a negative); skip such reps.
            let report = new.evaluate_all(inst.responses(), 0.5).unwrap();
            if report.assessments.len() < 3 {
                continue;
            }
            let Ok(old_cis) = old.evaluate_all(inst.responses(), 0.5) else {
                continue;
            };
            valid += 1;
            old_size += old_cis.iter().map(|(_, ci)| ci.size()).sum::<f64>() / 3.0;
            new_size += report.mean_interval_size();
        }
        assert!(valid >= 30, "too many degenerate reps: {valid}");
        assert!(
            new_size < old_size * 0.8,
            "new technique should be ≥20% tighter over {valid} reps: new {new_size} vs old {old_size}"
        );
    }

    #[test]
    fn rejects_nonregular_data() {
        let inst = BinaryScenario::paper_default(5, 50, 0.8).generate(&mut rng(83));
        assert!(matches!(
            OldTechnique::default().evaluate_worker(inst.responses(), WorkerId(0), 0.8),
            Err(EstimateError::RequiresRegularData)
        ));
    }

    #[test]
    fn rejects_too_few_workers() {
        let inst = BinaryScenario::paper_default(2, 50, 1.0).generate(&mut rng(89));
        assert!(matches!(
            OldTechnique::default().evaluate_worker(inst.responses(), WorkerId(0), 0.8),
            Err(EstimateError::NotEnoughWorkers { .. })
        ));
    }

    #[test]
    fn super_worker_majority_is_correct() {
        use crowd_data::ResponseMatrixBuilder;
        let mut b = ResponseMatrixBuilder::new(3, 2, 2);
        // Task 0: votes 1,1,0 → majority 1. Task 1: 0,0,1 → majority 0.
        b.push(WorkerId(0), TaskId(0), Label(1)).unwrap();
        b.push(WorkerId(1), TaskId(0), Label(1)).unwrap();
        b.push(WorkerId(2), TaskId(0), Label(0)).unwrap();
        b.push(WorkerId(0), TaskId(1), Label(0)).unwrap();
        b.push(WorkerId(1), TaskId(1), Label(0)).unwrap();
        b.push(WorkerId(2), TaskId(1), Label(1)).unwrap();
        let data = b.build().unwrap();
        let resp = super_worker_responses(&data, &[WorkerId(0), WorkerId(1), WorkerId(2)]);
        assert_eq!(resp, vec![Label(1), Label(0)]);
    }

    #[test]
    fn seven_workers_supported() {
        let inst = BinaryScenario::paper_default(7, 100, 1.0).generate(&mut rng(97));
        let cis = OldTechnique::default()
            .evaluate_all(inst.responses(), 0.8)
            .unwrap();
        assert_eq!(cis.len(), 7);
        for (_, ci) in cis {
            assert!(ci.size() > 0.0);
            assert!(ci.lo() >= 0.0 && ci.hi() <= 1.0);
        }
    }
}
