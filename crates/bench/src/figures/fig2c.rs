//! Figure 2(c) — "Size of interval vs. confidence with and without
//! weight optimization".
//!
//! Setting (§III-D3): `n = 100`, `m = 7`, per-worker densities
//! `dᵢ = (0.5·i + (m − i)) / m` so triples differ in quality; Lemma 5
//! optimal weights vs. uniform weights. The paper reports the
//! optimized intervals at less than half the size around `c = 0.5`.

use crate::{FigureResult, RunOptions, Series, confidence_grid, parallel_reps, rescale_interval};
use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator};
use crowd_data::OverlapIndex;
use crowd_sim::{AttemptDesign, BinaryScenario, fig2c_densities};

/// Per-repetition mean interval sizes across the confidence grid, for
/// the (optimized, uniform) weight policies.
type SizePair = (Vec<f64>, Vec<f64>);

/// Runs the experiment.
pub fn run(options: &RunOptions) -> FigureResult {
    let grid = confidence_grid();
    let m = 7usize;
    let mut scenario = BinaryScenario::paper_default(m, 100, 0.8);
    scenario.design = AttemptDesign::PerWorkerDensity(fig2c_densities(m));

    let per_rep: Vec<Option<SizePair>> = parallel_reps(options, |seed| {
        let mut rng = crowd_sim::rng(seed);
        let inst = scenario.generate(&mut rng);
        let optimized = MWorkerEstimator::new(EstimatorConfig::default());
        let uniform = MWorkerEstimator::new(EstimatorConfig::with_uniform_weights());
        // One shared index serves both weight policies (the substrates
        // are bit-identical, so this cannot move a point — see
        // `tests/figure_regression.rs`).
        let index = OverlapIndex::from_matrix(inst.responses());
        let rep_opt = optimized.evaluate_all_indexed(&index, 0.5).ok()?;
        let rep_uni = uniform.evaluate_all_indexed(&index, 0.5).ok()?;
        if rep_opt.assessments.is_empty() || rep_uni.assessments.is_empty() {
            return None;
        }
        let sizes = |report: &crowd_core::WorkerReport| -> Vec<f64> {
            grid.iter()
                .map(|&c| {
                    report
                        .assessments
                        .iter()
                        .map(|a| rescale_interval(&a.interval, c).size())
                        .sum::<f64>()
                        / report.assessments.len() as f64
                })
                .collect()
        };
        Some((sizes(&rep_opt), sizes(&rep_uni)))
    });
    let valid: Vec<&SizePair> = per_rep.iter().flatten().collect();
    let count = valid.len().max(1) as f64;
    let mean = |pick: fn(&SizePair) -> &Vec<f64>| -> Vec<(f64, f64)> {
        grid.iter()
            .enumerate()
            .map(|(i, &c)| (c, valid.iter().map(|r| pick(r)[i]).sum::<f64>() / count))
            .collect()
    };
    FigureResult {
        id: "fig2c",
        title: "Size of interval vs. confidence, optimized vs. uniform weights".into(),
        x_label: "Confidence Level".into(),
        y_label: "Size of Interval".into(),
        series: vec![
            Series::new("With Optimization", mean(|r| &r.0)),
            Series::new("No Optimization", mean(|r| &r.1)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_shrinks_intervals_substantially() {
        let fig = run(&RunOptions::quick().with_reps(25));
        let opt = fig
            .series
            .iter()
            .find(|s| s.label == "With Optimization")
            .unwrap();
        let uni = fig
            .series
            .iter()
            .find(|s| s.label == "No Optimization")
            .unwrap();
        let at = |s: &Series, c: f64| s.points.iter().find(|p| (p.0 - c).abs() < 1e-9).unwrap().1;
        // The paper reports >2x at c = 0.5; require a clear win.
        let ratio = at(uni, 0.5) / at(opt, 0.5);
        assert!(ratio > 1.3, "uniform/optimized ratio only {ratio:.2}");
        // Both grow with confidence.
        assert!(at(opt, 0.95) > at(opt, 0.05));
        assert!(at(uni, 0.95) > at(uni, 0.05));
    }
}
