//! Figure 2(b) — "Size of intervals for varying levels of density".
//!
//! Setting (§III-D2): `c = 0.8`, density `d ∈ {0.5 … 0.95}`,
//! `(n, m) ∈ {(300, 3), (100, 7), (300, 7)}` (the paper omits
//! `(100, 3)` because its sizes blow past the plot scale at d = 0.5);
//! the mean interval size is expected to fall roughly like `1/d`.

use crate::{FigureResult, RunOptions, Series, density_grid, parallel_reps};
use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator};
use crowd_sim::BinaryScenario;

/// Confidence level fixed by the paper for this figure.
pub const CONFIDENCE: f64 = 0.8;

/// Runs the experiment.
pub fn run(options: &RunOptions) -> FigureResult {
    let grid = density_grid();
    let mut series = Vec::new();
    for &(m, n) in &[(3usize, 300usize), (7, 100), (7, 300)] {
        let mut points = Vec::with_capacity(grid.len());
        for &d in &grid {
            let scenario = BinaryScenario::paper_default(m, n, d);
            let sizes: Vec<Option<f64>> = parallel_reps(options, |seed| {
                let mut rng = crowd_sim::rng(seed);
                let inst = scenario.generate(&mut rng);
                let est = MWorkerEstimator::new(EstimatorConfig::default());
                let report = est.evaluate_all(inst.responses(), CONFIDENCE).ok()?;
                if report.assessments.is_empty() {
                    None
                } else {
                    Some(report.mean_interval_size())
                }
            });
            let valid: Vec<f64> = sizes.into_iter().flatten().collect();
            points.push((d, valid.iter().sum::<f64>() / valid.len().max(1) as f64));
        }
        series.push(Series::new(format!("{m} workers, {n} tasks"), points));
    }
    FigureResult {
        id: "fig2b",
        title: "Size of interval vs. density (c = 0.8)".into(),
        x_label: "Density".into(),
        y_label: "Size of Interval".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_fall_with_density_and_scale_with_data() {
        let fig = run(&RunOptions::quick().with_reps(12));
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last < first, "{}: size should shrink with density", s.label);
        }
        // More tasks → smaller intervals at the same m (compare the two
        // m=7 curves at d=0.9).
        let at = |label: &str, d: f64| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .points
                .iter()
                .find(|p| (p.0 - d).abs() < 1e-9)
                .unwrap()
                .1
        };
        assert!(at("7 workers, 300 tasks", 0.9) < at("7 workers, 100 tasks", 0.9));
    }
}
