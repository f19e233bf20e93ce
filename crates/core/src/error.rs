//! Error type for the estimators.

use crowd_data::WorkerId;

/// Failure modes of the assessment algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// Two workers share fewer common tasks than the configured
    /// minimum; the paper requires at least one common task per pair.
    InsufficientOverlap {
        /// First worker of the pair.
        a: WorkerId,
        /// Second worker of the pair.
        b: WorkerId,
        /// Tasks they share.
        got: usize,
        /// Tasks required.
        need: usize,
    },
    /// The algorithm needs more workers than the data provides.
    NotEnoughWorkers {
        /// Workers available.
        got: usize,
        /// Workers required.
        need: usize,
    },
    /// The worker id is outside the data's worker population.
    UnknownWorker {
        /// The requested worker.
        worker: WorkerId,
        /// Workers the data holds (valid ids are `0..n_workers`).
        n_workers: usize,
    },
    /// No valid triple could be formed for the worker under evaluation.
    NoUsableTriples {
        /// The worker being evaluated.
        worker: WorkerId,
    },
    /// An agreement rate at or below 1/2 hit the singularity of the
    /// inversion `f` and the configured policy is to fail
    /// (see [`crate::DegeneracyPolicy`]).
    Degenerate {
        /// Description of the degenerate quantity.
        what: String,
    },
    /// The algorithm requires regular data (every worker attempts every
    /// task) — only the reproduced "old technique" baseline has this
    /// restriction.
    RequiresRegularData,
    /// A linear-algebra step failed (singular moment matrix, complex
    /// spectrum, ...).
    Numerical(String),
    /// A statistics-layer failure (invalid confidence level, negative
    /// variance, ...).
    Stats(crowd_stats::StatsError),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InsufficientOverlap { a, b, got, need } => write!(
                f,
                "workers {a:?} and {b:?} share only {got} tasks (need {need})"
            ),
            Self::NotEnoughWorkers { got, need } => {
                write!(f, "not enough workers: got {got}, need {need}")
            }
            Self::UnknownWorker { worker, n_workers } => {
                write!(f, "unknown worker {worker:?} (the data holds {n_workers})")
            }
            Self::NoUsableTriples { worker } => {
                write!(f, "no usable triples for worker {worker:?}")
            }
            Self::Degenerate { what } => write!(f, "degenerate estimate: {what}"),
            Self::RequiresRegularData => {
                write!(
                    f,
                    "this method requires regular data (every worker on every task)"
                )
            }
            Self::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            Self::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<crowd_stats::StatsError> for EstimateError {
    fn from(e: crowd_stats::StatsError) -> Self {
        Self::Stats(e)
    }
}

impl From<crowd_linalg::LinalgError> for EstimateError {
    fn from(e: crowd_linalg::LinalgError) -> Self {
        Self::Numerical(e.to_string())
    }
}

/// Result alias for estimator operations.
pub type Result<T> = std::result::Result<T, EstimateError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = EstimateError::InsufficientOverlap {
            a: WorkerId(0),
            b: WorkerId(1),
            got: 0,
            need: 1,
        };
        assert!(e.to_string().contains("share only 0"));
        assert!(
            EstimateError::NotEnoughWorkers { got: 2, need: 3 }
                .to_string()
                .contains("got 2")
        );
        assert!(
            EstimateError::NoUsableTriples {
                worker: WorkerId(4)
            }
            .to_string()
            .contains("w")
        );
        assert!(
            EstimateError::UnknownWorker {
                worker: WorkerId(99),
                n_workers: 5
            }
            .to_string()
            .contains("holds 5")
        );
        assert!(
            EstimateError::RequiresRegularData
                .to_string()
                .contains("regular")
        );
        assert!(
            EstimateError::Degenerate {
                what: "q <= 1/2".into()
            }
            .to_string()
            .contains("q <=")
        );
    }

    #[test]
    fn conversions() {
        let e: EstimateError = crowd_stats::StatsError::SingularCovariance.into();
        assert!(matches!(e, EstimateError::Stats(_)));
        let e: EstimateError = crowd_linalg::LinalgError::Singular { pivot: 0 }.into();
        assert!(matches!(e, EstimateError::Numerical(_)));
    }
}
