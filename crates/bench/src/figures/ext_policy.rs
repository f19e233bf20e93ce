//! Extension experiment: multi-round hiring with interval-based firing.
//!
//! The paper's introduction motivates confidence intervals with the
//! hiring problem, and its conclusion claims that "using confidence
//! intervals allows us to end up with a good set of workers faster
//! than we could by using mean error estimates, yielding improved
//! quality crowdsourced results". Neither is evaluated in the paper
//! itself (the claim defers to the authors' earlier KDD'13 study);
//! this experiment reproduces it end-to-end on our substrate.
//!
//! A pool of workers labels batches of binary tasks round after round.
//! After each round every active worker is re-evaluated on their full
//! history with the m-worker estimator, and a retention policy fires
//! workers deemed too error-prone, replacing them with fresh hires:
//!
//! * **interval policy** — fire only when the 90% interval's *lower*
//!   bound clears the threshold ([`DecisionRule::IntervalBounds`]);
//! * **point policy** — fire whenever the point estimate clears it
//!   ([`DecisionRule::PointEstimate`]);
//! * **never fire** — the do-nothing control.
//!
//! [`quality`] plots the pool's mean true error rate per round: both
//! firing policies drive it down, the point policy slightly faster.
//! [`cost`] plots the cumulative number of *good* workers wrongly
//! fired: the point policy burns many (every unlucky streak near the
//! threshold is fatal), the interval policy almost none — the paper's
//! "bad reputation" cost made measurable.

use crate::{FigureResult, RunOptions, Series, parallel_reps};
use crowd_core::{Assessment, DecisionRule, EstimatorConfig, MWorkerEstimator, RetentionPolicy};
use crowd_data::{Label, ResponseMatrixBuilder, TaskId, WorkerId};
use rand::RngExt;

/// Rounds of the simulation.
const ROUNDS: usize = 12;
/// Fresh tasks per round.
const TASKS_PER_ROUND: usize = 40;
/// Active workers at any time.
const POOL: usize = 9;
/// Probability a worker attempts a given task of the round.
const ATTEMPT: f64 = 0.9;
/// Firing threshold on the error rate.
const THRESHOLD: f64 = 0.3;
/// Confidence level of the interval policy.
const CONFIDENCE: f64 = 0.9;
/// Hiring pool: true error rates and their probabilities. The 0.45
/// workers are the ones worth firing (threshold 0.3); the rest are
/// keepers.
const HIRE_RATES: [f64; 3] = [0.1, 0.2, 0.45];
const HIRE_PROBS: [f64; 3] = [0.35, 0.35, 0.30];

/// One active worker: true error rate plus full response history.
struct Member {
    p: f64,
    history: Vec<(u32, Label)>,
}

/// Per-round outcomes of one simulated arm.
struct ArmTrace {
    /// Mean true error rate of the pool after each round's firing.
    pool_error: Vec<f64>,
    /// Cumulative good workers (p ≤ threshold) wrongly fired.
    wrongful: Vec<f64>,
}

fn hire(rng: &mut impl RngExt) -> Member {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (p, w) in HIRE_RATES.iter().zip(HIRE_PROBS) {
        acc += w;
        if u < acc {
            return Member {
                p: *p,
                history: Vec::new(),
            };
        }
    }
    Member {
        p: *HIRE_RATES.last().expect("non-empty pool"),
        history: Vec::new(),
    }
}

/// Runs one arm of the simulation. `rule = None` is the never-fire
/// control.
fn simulate(seed: u64, rule: Option<DecisionRule>) -> ArmTrace {
    let mut rng = crowd_sim::rng(seed);
    let mut members: Vec<Member> = (0..POOL).map(|_| hire(&mut rng)).collect();
    // The estimator must always produce an interval for near-spammer
    // histories, so agreement rates at the singularity are clamped.
    let estimator = MWorkerEstimator::new(EstimatorConfig::clamping());
    let mut trace = ArmTrace {
        pool_error: Vec::with_capacity(ROUNDS),
        wrongful: Vec::with_capacity(ROUNDS),
    };
    let mut wrongful_total = 0usize;

    for round in 0..ROUNDS {
        // The round's fresh tasks. Truths are 50/50 binary; the answer
        // itself never enters the evaluation (no gold standard).
        let base = (round * TASKS_PER_ROUND) as u32;
        for t in 0..TASKS_PER_ROUND as u32 {
            let truth = Label((rng.random::<f64>() < 0.5) as u16);
            for m in members.iter_mut() {
                if rng.random::<f64>() < ATTEMPT {
                    let wrong = rng.random::<f64>() < m.p;
                    m.history
                        .push((base + t, if wrong { truth.flipped() } else { truth }));
                }
            }
        }

        if let Some(rule) = rule {
            // Evaluate every active worker on their accumulated
            // history and apply the policy.
            let n_tasks = (round + 1) * TASKS_PER_ROUND;
            let mut b = ResponseMatrixBuilder::new(POOL, n_tasks, 2);
            for (w, m) in members.iter().enumerate() {
                for &(t, label) in &m.history {
                    b.push(WorkerId(w as u32), TaskId(t), label)
                        .expect("history ids are in range");
                }
            }
            let data = b.build().expect("histories are duplicate-free");
            let policy = RetentionPolicy {
                fire_threshold: THRESHOLD,
                rule,
            };
            if let Ok(report) = estimator.evaluate_all(&data, CONFIDENCE) {
                for (worker, decision) in policy.decide_all(&report) {
                    if decision == crowd_core::Decision::Fire {
                        let idx = worker.index();
                        if members[idx].p <= THRESHOLD {
                            wrongful_total += 1;
                        }
                        members[idx] = hire(&mut rng);
                    }
                }
            }
        }

        let mean_p = members.iter().map(|m| m.p).sum::<f64>() / POOL as f64;
        trace.pool_error.push(mean_p);
        trace.wrongful.push(wrongful_total as f64);
    }
    trace
}

fn mean_traces(traces: &[ArmTrace], field: impl Fn(&ArmTrace) -> &[f64]) -> Vec<(f64, f64)> {
    (0..ROUNDS)
        .map(|r| {
            let sum: f64 = traces.iter().map(|t| field(t)[r]).sum();
            ((r + 1) as f64, sum / traces.len().max(1) as f64)
        })
        .collect()
}

/// Pool quality per round under the three policies.
pub fn quality(options: &RunOptions) -> FigureResult {
    let arms: [(&str, Option<DecisionRule>); 3] = [
        ("interval policy", Some(DecisionRule::IntervalBounds)),
        ("point policy", Some(DecisionRule::PointEstimate)),
        ("never fire", None),
    ];
    let mut series = Vec::new();
    for (label, rule) in arms {
        let traces = parallel_reps(options, |seed| simulate(seed, rule));
        series.push(Series::new(label, mean_traces(&traces, |t| &t.pool_error)));
    }
    FigureResult {
        id: "ext_policy",
        title: format!(
            "Extension: pool mean error rate per round (fire at {THRESHOLD}, c = {CONFIDENCE})"
        ),
        x_label: "Round".into(),
        y_label: "Mean true error rate of pool".into(),
        series,
    }
}

/// Wrongful-firing cost per round for the two firing policies.
pub fn cost(options: &RunOptions) -> FigureResult {
    let arms: [(&str, DecisionRule); 2] = [
        ("interval policy", DecisionRule::IntervalBounds),
        ("point policy", DecisionRule::PointEstimate),
    ];
    let mut series = Vec::new();
    for (label, rule) in arms {
        let traces = parallel_reps(options, |seed| simulate(seed, Some(rule)));
        series.push(Series::new(label, mean_traces(&traces, |t| &t.wrongful)));
    }
    FigureResult {
        id: "ext_policy_cost",
        title: "Extension: cumulative good workers wrongly fired".into(),
        x_label: "Round".into(),
        y_label: "Good workers fired (cumulative mean)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_round(s: &Series, round: usize) -> f64 {
        s.points[round - 1].1
    }

    #[test]
    fn firing_policies_improve_the_pool() {
        let fig = quality(&RunOptions::quick().with_reps(12));
        let interval = &fig.series[0];
        let never = &fig.series[2];
        assert_eq!(interval.points.len(), ROUNDS);
        // The control drifts only by sampling noise; the interval
        // policy must end with a clearly better pool.
        let final_interval = at_round(interval, ROUNDS);
        let final_never = at_round(never, ROUNDS);
        assert!(
            final_interval < final_never - 0.03,
            "interval policy should purge bad workers: {final_interval:.3} vs control \
             {final_never:.3}"
        );
        // And it improves over its own starting pool.
        assert!(final_interval < at_round(interval, 1) - 0.03);
    }

    #[test]
    fn interval_policy_fires_fewer_good_workers() {
        let fig = cost(&RunOptions::quick().with_reps(12));
        let interval_cost = at_round(&fig.series[0], ROUNDS);
        let point_cost = at_round(&fig.series[1], ROUNDS);
        assert!(
            interval_cost < point_cost * 0.6,
            "interval policy should burn distinctly fewer good workers: {interval_cost:.2} \
             vs {point_cost:.2}"
        );
        // Costs are cumulative, hence monotone.
        for s in &fig.series {
            assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = simulate(99, Some(DecisionRule::IntervalBounds));
        let b = simulate(99, Some(DecisionRule::IntervalBounds));
        assert_eq!(a.pool_error, b.pool_error);
        assert_eq!(a.wrongful, b.wrongful);
    }
}
