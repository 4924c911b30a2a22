//! SINR physical-model substrate for the `oblisched` workspace.
//!
//! This crate implements the "physical model" of wireless interference used
//! throughout the paper *Oblivious Interference Scheduling* (Fanghänel,
//! Kesselheim, Räcke, Vöcking; PODC 2009):
//!
//! * [`SinrParams`] — the model parameters: path-loss exponent `α`, gain `β`
//!   and ambient noise `ν`,
//! * [`Request`], [`Instance`] — communication requests (pairs of metric
//!   nodes) and problem instances,
//! * [`power`] — power assignments, in particular the **oblivious**
//!   assignments (uniform, linear, square-root, arbitrary exponent) that the
//!   paper studies,
//! * [`feasibility`] — SINR feasibility of a set of simultaneously scheduled
//!   requests, in both the **directed** and the **bidirectional** variant,
//! * [`engine`] — the **incremental interference engine**: the
//!   [`GainBackend`] contract over tiered backends — a cached
//!   [`GainMatrix`] of pairwise contributions (exact, bit-for-bit the naive
//!   [`Evaluator`] verdicts) and the spatially-pruned
//!   [`SparseGainMatrix`] (conservative verdicts at `O(n)` memory, with a
//!   churn-capable sibling [`SparseChurnMatrix`] for dynamic sessions) —
//!   plus a
//!   [`ColorAccumulator`] that maintains per-color running interference
//!   sums, turning the "can request *i* join color *c*" query from
//!   `O(|c|²)` into `O(|c|)`; the naive path remains the source of truth
//!   for schedule validation,
//! * [`nodeloss`] — the node-loss scheduling problem of §3.2 (splitting
//!   pairs) used by the analysis of the square-root assignment,
//! * [`gain`] — constructive counterparts of Propositions 3 and 4 (trading
//!   gain against the number of colors),
//! * [`schedule`] — colorings of request sets and their validation,
//! * [`measure`] — static interference statistics used as baselines.
//!
//! # Example
//!
//! ```
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::{Instance, ObliviousPower, Request, SinrParams, Variant};
//!
//! // Two well separated unit-length requests on the line.
//! let metric = LineMetric::new(vec![0.0, 1.0, 100.0, 101.0]);
//! let instance = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)])?;
//! let params = SinrParams::new(3.0, 1.0)?;
//! let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
//! assert!(eval.is_feasible(Variant::Bidirectional, &[0, 1]));
//! # Ok::<(), oblisched_sinr::SinrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod feasibility;
pub mod gain;
pub mod measure;
pub mod nodeloss;
pub mod params;
pub mod power;
pub mod request;
pub mod schedule;

pub use engine::sparse::{SparseChurnMatrix, SparseConfig, SparseGainMatrix};
pub use engine::{ColorAccumulator, GainBackend, GainMatrix, ProbeBatch, NO_COLOR};
pub use error::SinrError;
pub use feasibility::{Evaluator, InterferenceSystem, Variant};
pub use gain::{extract_feasible_subset, partition_by_gain, rescale_coloring};
pub use nodeloss::{NodeLossEvaluator, NodeLossInstance};
pub use params::SinrParams;
pub use power::{ObliviousPower, PowerScheme, PowerVec};
pub use request::{Instance, Request};
pub use schedule::Schedule;
