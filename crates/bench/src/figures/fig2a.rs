//! Figure 2(a) — "Accuracy of m-worker binary non-regular method in
//! estimating confidence".
//!
//! Setting (§III-D1): density 0.8, `n ∈ {100, 300}`, `m ∈ {3, 7}`, 500
//! repetitions; the fraction of c-confidence intervals containing the
//! true worker error rate is plotted against `c` and should track the
//! diagonal.

use crate::{FigureResult, RunOptions, Series, confidence_grid, parallel_reps, rescale_interval};
use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator};
use crowd_sim::BinaryScenario;

/// Runs the experiment.
pub fn run(options: &RunOptions) -> FigureResult {
    let grid = confidence_grid();
    let mut series = Vec::new();
    for &(m, n) in &[(3usize, 100usize), (3, 300), (7, 100), (7, 300)] {
        let scenario = BinaryScenario::paper_default(m, n, 0.8);
        // Per repetition: (covered, total) per confidence level.
        let per_rep: Vec<Vec<(usize, usize)>> = parallel_reps(options, |seed| {
            let mut rng = crowd_sim::rng(seed);
            let inst = scenario.generate(&mut rng);
            let est = MWorkerEstimator::new(EstimatorConfig::default());
            let Ok(report) = est.evaluate_all(inst.responses(), 0.5) else {
                return vec![(0, 0); grid.len()];
            };
            grid.iter()
                .map(|&c| {
                    let mut covered = 0;
                    let mut total = 0;
                    for a in &report.assessments {
                        total += 1;
                        let ci = rescale_interval(&a.interval, c);
                        if ci.contains(inst.true_error_rate(a.worker)) {
                            covered += 1;
                        }
                    }
                    (covered, total)
                })
                .collect()
        });
        let points: Vec<(f64, f64)> = grid
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let covered: usize = per_rep.iter().map(|r| r[i].0).sum();
                let total: usize = per_rep.iter().map(|r| r[i].1).sum();
                (c, covered as f64 / total.max(1) as f64)
            })
            .collect();
        series.push(Series::new(format!("{m} workers {n} tasks"), points));
    }
    FigureResult {
        id: "fig2a",
        title: "Interval accuracy vs. confidence (binary non-regular, density 0.8)".into(),
        x_label: "Confidence Level".into(),
        y_label: "Accuracy".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_tracks_the_diagonal() {
        let fig = run(&RunOptions::quick().with_reps(40));
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            // Check mid and high confidence levels stay near ideal.
            for &(c, acc) in s.points.iter().filter(|p| p.0 >= 0.5) {
                assert!(
                    (acc - c).abs() < 0.15,
                    "{}: accuracy {acc:.2} at c={c:.2} strays from the diagonal",
                    s.label
                );
            }
            // Accuracy is monotone-ish: high c beats low c.
            let lo = s.points.first().unwrap().1;
            let hi = s.points.last().unwrap().1;
            assert!(hi > lo, "{}: accuracy should grow with c", s.label);
        }
    }
}
