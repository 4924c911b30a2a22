//! Experiment harness for the `oblisched` workspace.
//!
//! The paper *Oblivious Interference Scheduling* is a theory paper without an
//! experimental section; its "evaluation" is the set of quantitative claims
//! made by its theorems. This crate regenerates each of those claims as a
//! table (experiments E1–E8; the repository README lists E1–E11), plus the
//! E9–E11 measurements of the engine tiers (incremental engine vs naive
//! evaluator, dynamic churn, dense vs sparse vs parallel-sparse), whose
//! speedup floors they assert, and the pinned perf suite behind the CI
//! regression gate.
//!
//! Run all experiments with
//! `cargo run -p oblisched_bench --bin experiments --release`, or a single one
//! with `--exp e3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod experiments;
pub mod perf;
pub mod table;
pub mod tiers;

pub use churn::{
    replay_durable, replay_full_reschedule, replay_incremental, replay_incremental_with,
};
pub use experiments::{all_experiments, run_experiment, Experiment};
pub use perf::{run_suite, PerfCase, PerfReport};
pub use table::Table;
pub use tiers::{
    non_conservative_classes, parallel_tier_config, parallel_tier_sparse_config, TIER_SEED,
};
