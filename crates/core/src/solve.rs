//! The typed job API of the scheduler facade: one serializable
//! [`SolveRequest`] describes *what* to schedule (strategy, power
//! assignment, problem variant, seed, backend policy), and
//! [`Scheduler::solve`](crate::scheduler::Scheduler::solve) turns it into a
//! [`ScheduleResult`](crate::scheduler::ScheduleResult) or a typed
//! [`ScheduleError`] — never a panic on input conditions.
//!
//! Every scenario in the repository — experiments, examples, the perf
//! suite and the `solve` verb of the `oblisched-server` daemon — is
//! expressed as data through this module's types.
//!
//! # Example
//!
//! ```
//! use oblisched::scheduler::Scheduler;
//! use oblisched::solve::{PowerAssignment, SolveRequest};
//! use oblisched_instances::nested_chain;
//! use oblisched_sinr::SinrParams;
//!
//! let scheduler = Scheduler::new(SinrParams::new(3.0, 1.0)?);
//! let instance = nested_chain(8, 2.0);
//! let request = SolveRequest::first_fit(PowerAssignment::SquareRoot);
//! let result = scheduler.solve(&instance, &request)?;
//! assert!(result.num_colors() <= 8);
//!
//! // Requests are serializable: the same run can come over the wire.
//! let json = serde_json::to_string(&request).unwrap();
//! let back: SolveRequest = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, request);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use oblisched_sinr::{ObliviousPower, SinrError, SparseConfig, Variant};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The oblivious power assignments a [`SolveRequest`] can name — the
/// schemes `p = ℓ^τ` studied by the paper, as serializable data.
///
/// Conversions to and from [`ObliviousPower`] are lossless.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerAssignment {
    /// All requests transmit with power `1` (`τ = 0`).
    Uniform,
    /// Power proportional to the path loss (`τ = 1`).
    Linear,
    /// The square-root assignment `p = √ℓ` (`τ = ½`) — the geometric mean
    /// of uniform and linear, and the paper's universally good assignment
    /// for bidirectional requests.
    SquareRoot,
    /// The general exponent assignment `p = ℓ^τ`, interpolating between
    /// the named schemes.
    Exponent {
        /// The exponent `τ`.
        tau: f64,
    },
}

impl PowerAssignment {
    /// The three named assignments compared throughout the experiments.
    pub fn standard() -> [PowerAssignment; 3] {
        [
            PowerAssignment::Uniform,
            PowerAssignment::Linear,
            PowerAssignment::SquareRoot,
        ]
    }

    /// The equivalent [`ObliviousPower`] scheme.
    pub fn scheme(self) -> ObliviousPower {
        self.into()
    }
}

impl From<PowerAssignment> for ObliviousPower {
    fn from(a: PowerAssignment) -> ObliviousPower {
        match a {
            PowerAssignment::Uniform => ObliviousPower::Uniform,
            PowerAssignment::Linear => ObliviousPower::Linear,
            PowerAssignment::SquareRoot => ObliviousPower::SquareRoot,
            PowerAssignment::Exponent { tau } => ObliviousPower::Exponent(tau),
        }
    }
}

impl From<ObliviousPower> for PowerAssignment {
    fn from(p: ObliviousPower) -> PowerAssignment {
        match p {
            ObliviousPower::Uniform => PowerAssignment::Uniform,
            ObliviousPower::Linear => PowerAssignment::Linear,
            ObliviousPower::SquareRoot => PowerAssignment::SquareRoot,
            ObliviousPower::Exponent(tau) => PowerAssignment::Exponent { tau },
        }
    }
}

/// Which algorithm a [`SolveRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SolveStrategy {
    /// Greedy first-fit coloring under the requested oblivious assignment;
    /// the interference backend follows the request's [`BackendPolicy`].
    FirstFit,
    /// Tile-sharded parallel batch scheduling with the deterministic
    /// conflict-repair merge (identical schedules for every thread count).
    Parallel {
        /// Worker threads for the shard phase (`0` = one per core).
        num_threads: usize,
    },
    /// Greedy first-fit where each color class gets its own optimised,
    /// non-oblivious power assignment (the paper's Theorem 1 baseline).
    /// The request's [`PowerAssignment`] is ignored.
    PowerControl,
    /// The §5 randomized LP-rounding coloring for the square-root
    /// assignment (bidirectional only); randomness comes from the request's
    /// `seed`.
    SqrtColoring,
    /// The Theorem 2 decomposition pipeline (tree embeddings + star
    /// analysis) for the square-root assignment (bidirectional only);
    /// randomness comes from the request's `seed`.
    SqrtDecomposition,
}

impl fmt::Display for SolveStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStrategy::FirstFit => write!(f, "first-fit"),
            SolveStrategy::Parallel { num_threads } => {
                write!(f, "parallel[{num_threads}t]")
            }
            SolveStrategy::PowerControl => write!(f, "power-control"),
            SolveStrategy::SqrtColoring => write!(f, "sqrt-coloring"),
            SolveStrategy::SqrtDecomposition => write!(f, "sqrt-decomposition"),
        }
    }
}

/// How the facade falls back when the dense gain matrix exceeds the memory
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendPolicy {
    /// Dense matrix under the budget, spatially-pruned sparse backend above
    /// it — the production tiering (conservative verdicts above the budget,
    /// `O(n)` memory at fixed density).
    #[default]
    Auto,
    /// Dense matrix under the budget, uncached on-the-fly contributions
    /// above it — exact verdicts at any size, slower repeated queries.
    Exact,
}

/// A complete, serializable description of one scheduling run: what the
/// single entry point
/// [`Scheduler::solve`](crate::scheduler::Scheduler::solve) consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The algorithm to run.
    pub strategy: SolveStrategy,
    /// The oblivious power assignment (ignored by
    /// [`SolveStrategy::PowerControl`]; forced to the square root by the
    /// `Sqrt*` strategies).
    pub assignment: PowerAssignment,
    /// The problem variant to solve.
    pub variant: Variant,
    /// Seed of the randomized strategies (`SqrtColoring`,
    /// `SqrtDecomposition`); ignored by the deterministic ones.
    pub seed: u64,
    /// Backend fallback policy for the first-fit and parallel strategies.
    pub backend: BackendPolicy,
    /// Memory budget (bytes) for the cached dense matrix; `None` uses the
    /// scheduler's configured budget.
    pub matrix_budget: Option<usize>,
    /// Sparse-backend construction knobs; `None` uses the scheduler's
    /// configured [`SparseConfig`].
    pub sparse: Option<SparseConfig>,
}

impl SolveRequest {
    fn new(strategy: SolveStrategy, assignment: PowerAssignment) -> Self {
        Self {
            strategy,
            assignment,
            variant: Variant::Bidirectional,
            seed: 0,
            backend: BackendPolicy::Auto,
            matrix_budget: None,
            sparse: None,
        }
    }

    /// A bidirectional first-fit request under `assignment` with the
    /// [`BackendPolicy::Auto`] tiering.
    pub fn first_fit(assignment: PowerAssignment) -> Self {
        Self::new(SolveStrategy::FirstFit, assignment)
    }

    /// A bidirectional parallel batch-scheduling request under `assignment`
    /// on `num_threads` worker threads (`0` = one per core).
    pub fn parallel(assignment: PowerAssignment, num_threads: usize) -> Self {
        Self::new(SolveStrategy::Parallel { num_threads }, assignment)
    }

    /// A bidirectional power-control request (non-oblivious per-class
    /// powers).
    pub fn power_control() -> Self {
        Self::new(SolveStrategy::PowerControl, PowerAssignment::SquareRoot)
    }

    /// A bidirectional LP-rounding request for the square-root assignment,
    /// seeded with `seed`.
    pub fn sqrt_coloring(seed: u64) -> Self {
        Self::new(SolveStrategy::SqrtColoring, PowerAssignment::SquareRoot).with_seed(seed)
    }

    /// A bidirectional decomposition-pipeline request for the square-root
    /// assignment, seeded with `seed`.
    pub fn sqrt_decomposition(seed: u64) -> Self {
        Self::new(
            SolveStrategy::SqrtDecomposition,
            PowerAssignment::SquareRoot,
        )
        .with_seed(seed)
    }

    /// Replaces the problem variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Replaces the seed of the randomized strategies.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the backend fallback policy.
    pub fn with_backend(mut self, backend: BackendPolicy) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the scheduler's dense-matrix memory budget for this run.
    pub fn with_matrix_budget(mut self, bytes: usize) -> Self {
        self.matrix_budget = Some(bytes);
        self
    }

    /// Overrides the scheduler's sparse-backend configuration for this run.
    pub fn with_sparse_config(mut self, config: SparseConfig) -> Self {
        self.sparse = Some(config);
        self
    }
}

impl Default for SolveRequest {
    /// A bidirectional auto-backend first-fit run of the square-root
    /// assignment — the paper's headline configuration.
    fn default() -> Self {
        Self::first_fit(PowerAssignment::SquareRoot)
    }
}

/// The algorithm half of a [`SolveLabel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Greedy first-fit on the exact backend tier (dense or on-the-fly).
    FirstFit,
    /// Greedy first-fit with the auto backend tiering (dense or sparse).
    FirstFitAuto,
    /// Tile-sharded parallel first-fit.
    ParallelFirstFit,
    /// The §5 randomized LP-rounding coloring.
    LpRounding,
    /// The Theorem 2 decomposition pipeline.
    Decomposition,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::FirstFit => write!(f, "first-fit"),
            Algorithm::FirstFitAuto => write!(f, "first-fit-auto"),
            Algorithm::ParallelFirstFit => write!(f, "parallel-first-fit"),
            Algorithm::LpRounding => write!(f, "lp-rounding"),
            Algorithm::Decomposition => write!(f, "decomposition"),
        }
    }
}

/// The power-assignment half of a [`SolveLabel`].
///
/// Unlike [`PowerAssignment`] (which only names the oblivious request-side
/// schemes), this also covers the non-oblivious power-control baseline, so
/// every result the facade can produce has a faithful structured label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Assignment {
    /// The uniform assignment.
    Uniform,
    /// The linear assignment.
    Linear,
    /// The square-root assignment.
    SquareRoot,
    /// The general exponent assignment `p = ℓ^τ`.
    Exponent {
        /// The exponent `τ`.
        tau: f64,
    },
    /// Non-oblivious per-class power control.
    PowerControl,
}

impl From<PowerAssignment> for Assignment {
    fn from(a: PowerAssignment) -> Assignment {
        match a {
            PowerAssignment::Uniform => Assignment::Uniform,
            PowerAssignment::Linear => Assignment::Linear,
            PowerAssignment::SquareRoot => Assignment::SquareRoot,
            PowerAssignment::Exponent { tau } => Assignment::Exponent { tau },
        }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assignment::Uniform => write!(f, "uniform"),
            Assignment::Linear => write!(f, "linear"),
            Assignment::SquareRoot => write!(f, "sqrt"),
            Assignment::Exponent { tau } => write!(f, "loss^{tau}"),
            Assignment::PowerControl => write!(f, "power-control"),
        }
    }
}

/// Structured description of how a [`ScheduleResult`] was produced: the
/// algorithm and the power assignment. `Display` renders exactly the
/// `algorithm/assignment` strings the experiment tables always used
/// (`first-fit/sqrt`, `lp-rounding/sqrt`, `first-fit/power-control`, …).
///
/// [`ScheduleResult`]: crate::scheduler::ScheduleResult
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveLabel {
    /// The algorithm that produced the schedule.
    pub algorithm: Algorithm,
    /// The power assignment the schedule was validated under.
    pub assignment: Assignment,
}

impl SolveLabel {
    /// Creates a label.
    pub fn new(algorithm: Algorithm, assignment: Assignment) -> Self {
        Self {
            algorithm,
            assignment,
        }
    }
}

impl fmt::Display for SolveLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.algorithm, self.assignment)
    }
}

/// Typed failures of [`Scheduler::solve`](crate::scheduler::Scheduler::solve):
/// input conditions and algorithm bugs are reported, never panicked on.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The SINR substrate rejected the run's inputs (invalid parameters,
    /// power vectors, …).
    Sinr(SinrError),
    /// The strategy only applies to a different problem variant (the `Sqrt*`
    /// strategies are bidirectional-only: the paper's guarantee does not
    /// exist for directed requests).
    UnsupportedVariant {
        /// The requested strategy.
        strategy: SolveStrategy,
        /// The variant it was requested for.
        variant: Variant,
    },
    /// A produced multi-request color class failed validation against the
    /// exact SINR checker — a bug in the algorithm, reported instead of
    /// panicking.
    ValidationFailed {
        /// The violating color class.
        color: usize,
        /// A request in the class whose constraint is violated.
        request: usize,
        /// The label of the run that produced the schedule.
        label: SolveLabel,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Sinr(e) => write!(f, "SINR model error: {e}"),
            ScheduleError::UnsupportedVariant { strategy, variant } => write!(
                f,
                "strategy {strategy} applies to the bidirectional variant, not {variant}"
            ),
            ScheduleError::ValidationFailed {
                color,
                request,
                label,
            } => write!(
                f,
                "{label} produced color class {color} violating the SINR constraint of \
                 request {request} (an algorithm bug, not an input condition)"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleError::Sinr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SinrError> for ScheduleError {
    fn from(e: SinrError) -> ScheduleError {
        ScheduleError::Sinr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_render_the_legacy_experiment_strings() {
        let cases = [
            (
                SolveLabel::new(Algorithm::FirstFit, Assignment::Uniform),
                "first-fit/uniform",
            ),
            (
                SolveLabel::new(Algorithm::FirstFitAuto, Assignment::SquareRoot),
                "first-fit-auto/sqrt",
            ),
            (
                SolveLabel::new(Algorithm::ParallelFirstFit, Assignment::Linear),
                "parallel-first-fit/linear",
            ),
            (
                SolveLabel::new(Algorithm::LpRounding, Assignment::SquareRoot),
                "lp-rounding/sqrt",
            ),
            (
                SolveLabel::new(Algorithm::Decomposition, Assignment::SquareRoot),
                "decomposition/sqrt",
            ),
            (
                SolveLabel::new(Algorithm::FirstFit, Assignment::PowerControl),
                "first-fit/power-control",
            ),
            (
                SolveLabel::new(Algorithm::FirstFit, Assignment::Exponent { tau: 0.25 }),
                "first-fit/loss^0.25",
            ),
        ];
        for (label, expected) in cases {
            assert_eq!(label.to_string(), expected);
        }
    }

    #[test]
    fn power_assignment_round_trips_through_oblivious_power() {
        for a in [
            PowerAssignment::Uniform,
            PowerAssignment::Linear,
            PowerAssignment::SquareRoot,
            PowerAssignment::Exponent { tau: 0.75 },
        ] {
            assert_eq!(PowerAssignment::from(a.scheme()), a);
        }
    }

    #[test]
    fn request_builders_set_their_strategy() {
        assert_eq!(
            SolveRequest::first_fit(PowerAssignment::Uniform).strategy,
            SolveStrategy::FirstFit
        );
        assert_eq!(
            SolveRequest::parallel(PowerAssignment::SquareRoot, 4).strategy,
            SolveStrategy::Parallel { num_threads: 4 }
        );
        assert_eq!(
            SolveRequest::power_control().strategy,
            SolveStrategy::PowerControl
        );
        assert_eq!(SolveRequest::sqrt_coloring(7).seed, 7);
        assert_eq!(
            SolveRequest::sqrt_decomposition(9).strategy,
            SolveStrategy::SqrtDecomposition
        );
        let r = SolveRequest::default()
            .with_variant(Variant::Directed)
            .with_backend(BackendPolicy::Exact)
            .with_matrix_budget(1024)
            .with_seed(3);
        assert_eq!(r.variant, Variant::Directed);
        assert_eq!(r.backend, BackendPolicy::Exact);
        assert_eq!(r.matrix_budget, Some(1024));
        assert_eq!(r.seed, 3);
    }

    #[test]
    fn schedule_error_implements_error_with_source() {
        let e = ScheduleError::from(SinrError::InvalidPower {
            index: 1,
            value: -1.0,
        });
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("SINR"));
        let e = ScheduleError::UnsupportedVariant {
            strategy: SolveStrategy::SqrtColoring,
            variant: Variant::Directed,
        };
        assert!(e.to_string().contains("bidirectional variant"));
        let e = ScheduleError::ValidationFailed {
            color: 2,
            request: 5,
            label: SolveLabel::new(Algorithm::FirstFit, Assignment::Uniform),
        };
        assert!(e.to_string().contains("color class 2"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
