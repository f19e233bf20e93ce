//! Figure 1 — "Size of interval vs. confidence for old and new
//! techniques".
//!
//! Setting (§III-A1): `n = 100` regular binary tasks, `m ∈ {3, 7}`
//! workers with error rates drawn from {0.1, 0.2, 0.3}, 500
//! repetitions; the average c-confidence-interval size of the new
//! (delta-method, Algorithm A2) and old (KDD'13 super-worker)
//! techniques is plotted against `c`. The paper reports the new
//! technique up to ≈ 40% tighter.

use crate::{FigureResult, RunOptions, Series, confidence_grid, parallel_reps, rescale_interval};
use crowd_core::baselines::OldTechnique;
use crowd_core::{Assessment, EstimatorConfig, MWorkerEstimator};
use crowd_sim::BinaryScenario;

/// Per-repetition mean interval sizes across the confidence grid, for
/// the (new, old) techniques.
type SizePair = (Vec<f64>, Vec<f64>);

/// Runs the experiment.
pub fn run(options: &RunOptions) -> FigureResult {
    let grid = confidence_grid();
    let mut series = Vec::new();
    for &m in &[3usize, 7] {
        let scenario = BinaryScenario::paper_default(m, 100, 1.0);
        let per_rep: Vec<Option<SizePair>> = parallel_reps(options, |seed| {
            let mut rng = crowd_sim::rng(seed);
            let inst = scenario.generate(&mut rng);
            let new = MWorkerEstimator::new(EstimatorConfig::default());
            let report = new.evaluate_all(inst.responses(), 0.5).ok()?;
            if report.assessments.len() < m {
                // A degenerate repetition (§III-C: "minuscule
                // probability that our algorithm fails"); drop it for
                // both techniques to keep the comparison paired.
                return None;
            }
            let new_sizes: Vec<f64> = grid
                .iter()
                .map(|&c| {
                    report
                        .assessments
                        .iter()
                        .map(|a| rescale_interval(&a.interval, c).size())
                        .sum::<f64>()
                        / m as f64
                })
                .collect();
            let old = OldTechnique::default();
            let mut old_sizes = Vec::with_capacity(grid.len());
            for &c in &grid {
                let cis = old.evaluate_all(inst.responses(), c).ok()?;
                old_sizes.push(cis.iter().map(|(_, ci)| ci.size()).sum::<f64>() / m as f64);
            }
            Some((new_sizes, old_sizes))
        });
        let valid: Vec<&SizePair> = per_rep.iter().flatten().collect();
        let count = valid.len().max(1) as f64;
        let mean_at = |pick: fn(&SizePair) -> &Vec<f64>, idx: usize| -> f64 {
            valid.iter().map(|rep| pick(rep)[idx]).sum::<f64>() / count
        };
        series.push(Series::new(
            format!("new technique, {m} workers, 100 tasks"),
            grid.iter()
                .enumerate()
                .map(|(i, &c)| (c, mean_at(|r| &r.0, i)))
                .collect(),
        ));
        series.push(Series::new(
            format!("old technique, {m} workers, 100 tasks"),
            grid.iter()
                .enumerate()
                .map(|(i, &c)| (c, mean_at(|r| &r.1, i)))
                .collect(),
        ));
    }
    FigureResult {
        id: "fig1",
        title: "Size of interval vs. confidence for old and new techniques".into(),
        x_label: "Confidence Level".into(),
        y_label: "Size of Interval".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_shape() {
        let fig = run(&RunOptions::quick().with_reps(30));
        assert_eq!(fig.series.len(), 4);
        // Locate the four curves.
        let get = |label_frag: &str| {
            fig.series
                .iter()
                .find(|s| s.label.contains(label_frag))
                .unwrap_or_else(|| panic!("missing series {label_frag}"))
        };
        let new3 = get("new technique, 3");
        let old3 = get("old technique, 3");
        let new7 = get("new technique, 7");
        let old7 = get("old technique, 7");
        // Shape 1: sizes increase with confidence for every curve.
        for s in [new3, old3, new7, old7] {
            assert!(
                s.points.last().unwrap().1 > s.points.first().unwrap().1,
                "{} should increase with c",
                s.label
            );
        }
        // Shape 2: new is tighter than old at c = 0.5 for both m.
        let at = |s: &Series, c: f64| s.points.iter().find(|p| (p.0 - c).abs() < 1e-9).unwrap().1;
        assert!(at(new3, 0.5) < at(old3, 0.5));
        assert!(at(new7, 0.5) < at(old7, 0.5));
        // Shape 3 (headline): ≳ 30% reduction at m=3, c=0.5.
        let reduction = 1.0 - at(new3, 0.5) / at(old3, 0.5);
        assert!(reduction > 0.2, "size reduction only {reduction:.2}");
    }
}
