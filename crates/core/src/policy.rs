//! Interval-based worker retention policies.
//!
//! The paper's introduction motivates confidence intervals with the
//! hiring problem: "if we're going to fire a worker for having a high
//! estimated error rate, then it is important to be sufficiently
//! confident that the worker has low ability because firing many good
//! workers can lead to a bad reputation". This module operationalizes
//! that: a [`RetentionPolicy`] turns a [`WorkerReport`] into
//! fire / retain / undecided decisions using the interval **bounds**,
//! and the simulation helpers quantify how many good workers a naive
//! point-estimate policy burns in comparison.

use crate::{WorkerAssessment, WorkerReport};
use crowd_data::WorkerId;

/// A decision about one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Error rate credibly above the threshold: let the worker go.
    Fire,
    /// Error rate credibly below the threshold: keep the worker.
    Retain,
    /// The interval straddles the threshold: gather more evidence.
    Undecided,
}

/// How the error-rate estimate is compared against the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionRule {
    /// Fire when the interval's *lower* bound exceeds the threshold,
    /// retain when the *upper* bound is below it (the reliable policy
    /// the paper argues for; default).
    #[default]
    IntervalBounds,
    /// Fire/retain by comparing the point estimate only — the naive
    /// baseline that burns unlucky good workers.
    PointEstimate,
}

/// A worker retention policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionPolicy {
    /// Maximum tolerable error rate.
    pub fire_threshold: f64,
    /// Decision rule.
    pub rule: DecisionRule,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self {
            fire_threshold: 0.25,
            rule: DecisionRule::IntervalBounds,
        }
    }
}

impl RetentionPolicy {
    /// Decides one worker.
    pub fn decide(&self, assessment: &WorkerAssessment) -> Decision {
        match self.rule {
            DecisionRule::IntervalBounds => {
                if assessment.interval.lo() > self.fire_threshold {
                    Decision::Fire
                } else if assessment.interval.hi() < self.fire_threshold {
                    Decision::Retain
                } else {
                    Decision::Undecided
                }
            }
            DecisionRule::PointEstimate => {
                if assessment.interval.center > self.fire_threshold {
                    Decision::Fire
                } else {
                    Decision::Retain
                }
            }
        }
    }

    /// Decides every assessed worker.
    pub fn decide_all(&self, report: &WorkerReport) -> Vec<(WorkerId, Decision)> {
        report
            .assessments
            .iter()
            .map(|a| (a.worker, self.decide(a)))
            .collect()
    }

    /// Scores the decisions against known true error rates: returns
    /// the confusion between decisions and ground truth.
    pub fn score(&self, report: &WorkerReport, true_rate: impl Fn(WorkerId) -> f64) -> PolicyScore {
        let mut score = PolicyScore::default();
        for a in &report.assessments {
            let truly_bad = true_rate(a.worker) > self.fire_threshold;
            match (self.decide(a), truly_bad) {
                (Decision::Fire, true) => score.fired_bad += 1,
                (Decision::Fire, false) => score.fired_good += 1,
                (Decision::Retain, true) => score.kept_bad += 1,
                (Decision::Retain, false) => score.kept_good += 1,
                (Decision::Undecided, true) => score.undecided_bad += 1,
                (Decision::Undecided, false) => score.undecided_good += 1,
            }
        }
        score
    }
}

/// Decision-vs-truth tallies for a policy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyScore {
    /// Truly bad workers fired (the goal).
    pub fired_bad: usize,
    /// Good workers wrongly fired (the reputational cost the paper
    /// warns about).
    pub fired_good: usize,
    /// Bad workers wrongly kept.
    pub kept_bad: usize,
    /// Good workers kept.
    pub kept_good: usize,
    /// Bad workers awaiting more evidence.
    pub undecided_bad: usize,
    /// Good workers awaiting more evidence.
    pub undecided_good: usize,
}

impl PolicyScore {
    /// Fraction of firings that hit good workers; `None` if nobody was
    /// fired.
    pub fn wrongful_firing_rate(&self) -> Option<f64> {
        let fired = self.fired_bad + self.fired_good;
        if fired == 0 {
            None
        } else {
            Some(self.fired_good as f64 / fired as f64)
        }
    }

    /// Merges another score into this one.
    pub fn merge(&mut self, other: PolicyScore) {
        self.fired_bad += other.fired_bad;
        self.fired_good += other.fired_good;
        self.kept_bad += other.kept_bad;
        self.kept_good += other.kept_good;
        self.undecided_bad += other.undecided_bad;
        self.undecided_good += other.undecided_good;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assessment;
    use crate::{EstimatorConfig, MWorkerEstimator};
    use crowd_sim::{BinaryScenario, rng};
    use crowd_stats::ConfidenceInterval;

    fn assessment(center: f64, half: f64) -> WorkerAssessment {
        WorkerAssessment {
            worker: WorkerId(0),
            interval: ConfidenceInterval {
                center,
                half_width: half,
                confidence: 0.9,
            },
            triples_used: 1,
            weights_fell_back: false,
        }
    }

    #[test]
    fn interval_rule_three_outcomes() {
        let policy = RetentionPolicy::default(); // threshold 0.25
        assert_eq!(policy.decide(&assessment(0.4, 0.1)), Decision::Fire); // lo = 0.3
        assert_eq!(policy.decide(&assessment(0.1, 0.1)), Decision::Retain); // hi = 0.2
        assert_eq!(policy.decide(&assessment(0.3, 0.1)), Decision::Undecided); // straddles
    }

    #[test]
    fn point_rule_never_abstains() {
        let policy = RetentionPolicy {
            fire_threshold: 0.25,
            rule: DecisionRule::PointEstimate,
        };
        assert_eq!(policy.decide(&assessment(0.3, 0.2)), Decision::Fire);
        assert_eq!(policy.decide(&assessment(0.2, 0.2)), Decision::Retain);
    }

    #[test]
    fn interval_policy_fires_fewer_good_workers() {
        // Pool with clearly-good, borderline and clearly-bad workers:
        // the naive rule misfires on the borderline ones, the interval
        // rule abstains on them but still catches the clearly bad.
        let mut scenario = BinaryScenario::paper_default(9, 150, 0.7);
        scenario.error_pool = vec![0.1, 0.2, 0.4];
        let est = MWorkerEstimator::new(EstimatorConfig::default());
        let mut r = rng(311);
        let mut naive = PolicyScore::default();
        let mut reliable = PolicyScore::default();
        for _ in 0..40 {
            let inst = scenario.generate(&mut r);
            let Ok(report) = est.evaluate_all(inst.responses(), 0.9) else {
                continue;
            };
            let truth = |w: WorkerId| inst.true_error_rate(w);
            naive.merge(
                RetentionPolicy {
                    fire_threshold: 0.25,
                    rule: DecisionRule::PointEstimate,
                }
                .score(&report, truth),
            );
            reliable.merge(
                RetentionPolicy {
                    fire_threshold: 0.25,
                    rule: DecisionRule::IntervalBounds,
                }
                .score(&report, truth),
            );
        }
        assert!(
            reliable.fired_good < naive.fired_good,
            "interval policy should fire fewer good workers: {} vs {}",
            reliable.fired_good,
            naive.fired_good
        );
        // And it should still catch some truly bad workers.
        assert!(
            reliable.fired_bad > 0,
            "interval policy must still fire bad workers"
        );
    }

    #[test]
    fn scores_tally_and_merge() {
        let report = WorkerReport {
            assessments: vec![assessment(0.4, 0.05)],
            failures: vec![],
        };
        let policy = RetentionPolicy::default();
        let mut s = policy.score(&report, |_| 0.4);
        assert_eq!(s.fired_bad, 1);
        assert_eq!(s.wrongful_firing_rate(), Some(0.0));
        s.merge(policy.score(&report, |_| 0.1));
        assert_eq!(s.fired_good, 1);
        assert_eq!(s.wrongful_firing_rate(), Some(0.5));
        assert_eq!(PolicyScore::default().wrongful_firing_rate(), None);
    }

    #[test]
    fn decide_all_covers_every_assessment() {
        let inst = BinaryScenario::paper_default(5, 100, 1.0).generate(&mut rng(313));
        let report = MWorkerEstimator::new(EstimatorConfig::default())
            .evaluate_all(inst.responses(), 0.9)
            .unwrap();
        let decisions = RetentionPolicy::default().decide_all(&report);
        assert_eq!(decisions.len(), report.assessments.len());
    }
}
