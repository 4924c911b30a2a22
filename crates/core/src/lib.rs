//! # oblisched — Oblivious Interference Scheduling
//!
//! A from-scratch implementation of the algorithms and constructions of
//! *Oblivious Interference Scheduling* (Fanghänel, Kesselheim, Räcke,
//! Vöcking; PODC 2009): scheduling communication requests in the SINR
//! ("physical") model of wireless interference, where each request is
//! assigned a transmission **power** and a **color** (time slot) and all
//! requests of one color must satisfy the SINR constraints simultaneously.
//!
//! The paper's central question is how well **oblivious** power assignments —
//! powers that depend only on the sender–receiver distance — can perform:
//!
//! * in the **directed** variant they are hopeless: for every oblivious
//!   assignment there are instances needing `Ω(n)` colors although `O(1)`
//!   suffice (`oblisched_instances::adversarial` builds those instances and
//!   [`greedy`]/[`power_control`] realise both sides of the gap);
//! * in the **bidirectional** variant the **square-root assignment**
//!   `p = √ℓ` is universally good: it always admits a coloring within
//!   `polylog(n)` of the optimum (Theorem 2), and a randomized polynomial
//!   time algorithm finds an `O(log n)`-approximate coloring for it
//!   (Theorem 15, implemented in [`sqrt_coloring`](mod@sqrt_coloring)).
//!
//! ## Crate layout
//!
//! All coloring algorithms run on the **incremental interference engine** of
//! [`oblisched_sinr::engine`]: per-color running interference sums answer the
//! "can request *i* join color *c*" query in `O(|c|)` contributions (with an
//! optional cached gain matrix below a memory budget), while agreeing
//! bit-for-bit with the naive evaluator — the naive first-fit is kept as
//! [`first_fit_coloring_naive`] for baseline benchmarking.
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`greedy`] | baseline | first-fit coloring and greedy one-shot selection on the incremental engine |
//! | [`power_control`] | baseline | non-oblivious per-set power optimisation (the "optimal schedule" side of Theorem 1) |
//! | [`optimal`] | baseline | exact maximum one-shot sets and exact minimum colorings for small instances |
//! | [`sqrt_coloring`](mod@sqrt_coloring) | §5 | the randomized LP-rounding coloring algorithm for the square-root assignment |
//! | [`parallel`] | — | tile-sharded parallel batch scheduling with a deterministic conflict-repair merge |
//! | [`dynamic`] | — | online scheduling under churn: a [`DynamicScheduler`] maintaining a valid coloring across insert/remove events |
//! | [`durability`] | — | durable dynamic sessions: a write-ahead log + snapshot/restore behind a pluggable [`SessionStore`] |
//! | [`star_analysis`] | §4 | Lemma 5 machinery: decay classes, large/small-loss split, square-root-feasible subsets on stars |
//! | [`decomposition`] | §3 | metric → tree → star reduction (Lemmas 6–9) and the constructive Theorem 2 pipeline |
//! | [`convert`] | §6 | simulating bidirectional schedules by directed ones |
//! | [`scheduler`] | — | a facade bundling parameters, variant and algorithm choice |
//!
//! ## Quick start
//!
//! ```
//! use oblisched::scheduler::Scheduler;
//! use oblisched::solve::{PowerAssignment, SolveRequest};
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::{Instance, Request, SinrParams};
//!
//! // Three bidirectional requests on a line.
//! let metric = LineMetric::new(vec![0.0, 1.0, 10.0, 12.0, 300.0, 304.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let scheduler = Scheduler::new(SinrParams::new(3.0, 1.0)?);
//! let result = scheduler.solve(&instance, &SolveRequest::first_fit(PowerAssignment::SquareRoot))?;
//! assert!(result.schedule.num_colors() <= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod decomposition;
pub mod durability;
pub mod dynamic;
pub mod greedy;
pub mod optimal;
pub mod parallel;
pub mod power_control;
pub mod scheduler;
pub mod solve;
pub mod sqrt_coloring;
pub mod star_analysis;

pub use convert::directed_simulation;
pub use decomposition::{
    sqrt_feasible_nodes, sqrt_schedule_via_decomposition, DecompositionConfig,
};
pub use durability::{
    replay_records, DiskStore, DurabilityError, DurableScheduler, MemoryStore, SessionSnapshot,
    SessionStore, WalEvent, WalRecord, DEFAULT_CHECKPOINT_EVERY,
};
pub use dynamic::{
    DynamicConfig, DynamicError, DynamicScheduler, RecolorMove, Removal, RequestId, SchedulerState,
    StateMember,
};
pub use greedy::{
    first_fit_coloring, first_fit_coloring_naive, first_fit_into, first_fit_subset,
    first_fit_subset_with_gain, first_fit_with_order, first_fit_with_order_naive,
    first_fit_with_order_scratch, greedy_augment, greedy_one_shot, FirstFitScratch,
};
pub use optimal::{exact_chromatic_number, exact_max_one_shot};
pub use parallel::{parallel_first_fit, tile_shards, ParallelConfig, DEFAULT_TARGET_SHARDS};
pub use power_control::{feasible_powers, greedy_with_power_control, PowerControlConfig};
pub use scheduler::{EngineBackend, EngineStats, ScheduleResult, Scheduler, SessionBackend};
pub use solve::{
    Algorithm, Assignment, BackendPolicy, PowerAssignment, ScheduleError, SolveLabel, SolveRequest,
    SolveStrategy,
};
pub use sqrt_coloring::{sqrt_coloring, SqrtColoringConfig};
pub use star_analysis::{decay_classes, star_sqrt_subset, StarNodeKind};

// Re-export the substrate crates so downstream users need a single dependency.
pub use oblisched_lp as lp;
pub use oblisched_metric as metric;
pub use oblisched_sinr as sinr;
