//! Extension experiment: the gold-task equivalence of agreement-based
//! intervals.
//!
//! The paper's introduction motivates gold-free evaluation with the
//! cost of gold standards ("expert workers must be paid to identify
//! the correct responses", and tests "need to be changed frequently").
//! This experiment prices that argument: how many *gold-labeled* tasks
//! does the classical binomial interval need before it matches the
//! interval the paper's method extracts from the same workers'
//! ordinary, unlabeled work?
//!
//! Protocol: the Figure 2 workload (m = 7 workers, n = 300 binary
//! tasks, density 0.8, c = 0.9). One arm runs Algorithm A2 on the full
//! unlabeled data. The other reveals gold labels for the first `g`
//! tasks and builds Wilson intervals from each worker's responses to
//! them. The crossover `g*` is the gold budget the agreement method is
//! worth — per worker, for free. At full scale the crossover lands at
//! `g* ≈ 150`: half the dataset would have to be expert-labeled before
//! the classical intervals catch up.

use crate::{FigureResult, RunOptions, Series, parallel_reps};
use crowd_core::baselines::GoldBaseline;
use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator};
use crowd_data::{GoldStandard, TaskId};
use crowd_sim::BinaryScenario;

const CONFIDENCE: f64 = 0.9;
const GOLD_BUDGETS: [usize; 7] = [10, 20, 40, 80, 150, 225, 300];

/// Mean interval size vs. gold budget, with the agreement method as a
/// flat reference line.
pub fn run(options: &RunOptions) -> FigureResult {
    let scenario = BinaryScenario::paper_default(7, 300, 0.8);
    let est = MWorkerEstimator::new(EstimatorConfig::default());
    let gold_est = GoldBaseline::default();

    // (agreement size, per-budget gold sizes) per repetition.
    let per_rep: Vec<Option<(f64, Vec<f64>)>> = parallel_reps(options, |seed| {
        let mut rng = crowd_sim::rng(seed);
        let inst = scenario.generate(&mut rng);
        let report = est.evaluate_all(inst.responses(), CONFIDENCE).ok()?;
        if report.assessments.is_empty() {
            return None;
        }
        let agreement = report.mean_interval_size();
        let gold_sizes: Vec<f64> = GOLD_BUDGETS
            .iter()
            .map(|&g| {
                let partial = GoldStandard::partial(
                    300,
                    (0..g as u32)
                        .filter_map(|t| inst.gold().label(TaskId(t)).map(|l| (TaskId(t), l))),
                );
                let cis = gold_est.evaluate_all(inst.responses(), &partial, CONFIDENCE);
                let total: f64 = cis.iter().map(|(_, ci)| ci.size()).sum();
                total / cis.len().max(1) as f64
            })
            .collect();
        Some((agreement, gold_sizes))
    });

    let valid: Vec<(f64, Vec<f64>)> = per_rep.into_iter().flatten().collect();
    let n = valid.len().max(1) as f64;
    let agreement_mean = valid.iter().map(|(a, _)| a).sum::<f64>() / n;
    let gold_points: Vec<(f64, f64)> = GOLD_BUDGETS
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            (
                g as f64,
                valid.iter().map(|(_, sizes)| sizes[i]).sum::<f64>() / n,
            )
        })
        .collect();
    let reference: Vec<(f64, f64)> = GOLD_BUDGETS
        .iter()
        .map(|&g| (g as f64, agreement_mean))
        .collect();

    FigureResult {
        id: "ext_gold",
        title: format!(
            "Extension: gold-task equivalence at c = {CONFIDENCE} (m = 7, n = 300, d = 0.8)"
        ),
        x_label: "Gold-labeled tasks available".into(),
        y_label: "Mean interval size".into(),
        series: vec![
            Series::new("gold-standard Wilson interval", gold_points),
            Series::new("agreement-based (no gold), A2", reference),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gold_needs_a_large_budget_to_compete() {
        let fig = run(&RunOptions::quick().with_reps(20));
        let gold = &fig.series[0];
        let agreement = fig.series[1].points[0].1;
        // Gold intervals shrink monotonically with the budget.
        for w in gold.points.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "gold interval must shrink with budget: {:?}",
                gold.points
            );
        }
        // The agreement method beats small and moderate gold budgets
        // by a wide margin...
        let at = |g: f64| {
            gold.points
                .iter()
                .find(|p| (p.0 - g).abs() < 1e-9)
                .map(|p| p.1)
                .expect("budget in grid")
        };
        assert!(
            agreement < at(40.0) * 0.6,
            "agreement ({agreement:.3}) should be far tighter than 40 gold tasks \
             ({:.3})",
            at(40.0)
        );
        // ... and the crossover lands inside the sweep: somewhere
        // between 80 and 300 gold tasks per worker, gold catches up
        // (measured g* ≈ 150 at full scale).
        assert!(
            agreement < at(80.0) && agreement > at(300.0),
            "crossover should lie in (80, 300): agreement {agreement:.3}, \
             gold(80) {:.3}, gold(300) {:.3}",
            at(80.0),
            at(300.0)
        );
    }
}
