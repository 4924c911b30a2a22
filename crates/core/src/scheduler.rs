//! A facade bundling parameters, problem variant and algorithm choice.
//!
//! Most users only want "give me a schedule for this instance"; the
//! [`Scheduler`] builder wraps the individual algorithms of this crate behind
//! one entry point — [`Scheduler::solve`], which consumes a typed,
//! serializable [`SolveRequest`] and returns a [`ScheduleResult`] whose
//! schedule has been validated against the exact SINR checker, or a typed
//! [`ScheduleError`].

use crate::decomposition::{sqrt_schedule_via_decomposition, DecompositionConfig};
use crate::greedy::first_fit_coloring;
use crate::parallel::{parallel_first_fit, tile_shards, ParallelConfig, DEFAULT_TARGET_SHARDS};
use crate::power_control::{greedy_with_power_control, PowerControlConfig};
use crate::solve::{
    Algorithm, Assignment, BackendPolicy, PowerAssignment, ScheduleError, SolveLabel, SolveRequest,
    SolveStrategy,
};
use crate::sqrt_coloring::{sqrt_coloring, SqrtColoringConfig};
use oblisched_metric::{MetricSpace, PlanarMetric};
use oblisched_sinr::engine::{RowRef, MAX_PORTS};
use oblisched_sinr::feasibility::VariantView;
use oblisched_sinr::{
    Evaluator, GainBackend, GainMatrix, Instance, InterferenceSystem, Schedule, SinrError,
    SinrParams, SparseChurnMatrix, SparseConfig, SparseGainMatrix, Variant,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which interference backend a scheduling run ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineBackend {
    /// The dense cached [`GainMatrix`] (`8 · ports · n²` bytes, exact).
    Dense,
    /// The spatially-pruned [`SparseGainMatrix`] (conservative verdicts,
    /// `O(n)` memory at fixed density).
    Sparse,
    /// No cache: contributions computed on the fly by the incremental
    /// engine (exact, `O(n)` memory, slower repeated queries).
    OnTheFly,
}

impl fmt::Display for EngineBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineBackend::Dense => write!(f, "dense"),
            EngineBackend::Sparse => write!(f, "sparse"),
            EngineBackend::OnTheFly => write!(f, "on-the-fly"),
        }
    }
}

/// How the facade answered the backend question for one run: which tier it
/// chose, what it would have cost to go dense, and against which budget the
/// decision was made. Surfaced in every [`ScheduleResult`] so the choice is
/// never silent (the experiments binary and the daemon's `solved` replies
/// report it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// The backend the run used.
    pub backend: EngineBackend,
    /// Number of requests.
    pub n: usize,
    /// Interference ports per request (1 directed, 2 bidirectional; always
    /// 1 on the sparse tiers, which keep one row per request).
    pub ports: usize,
    /// Actual heap footprint of the chosen backend in bytes (0 for
    /// [`EngineBackend::OnTheFly`]).
    pub bytes: usize,
    /// What the dense matrix would need ([`usize::MAX`] when the product
    /// overflows).
    pub dense_bytes: usize,
    /// The memory budget the decision was made against.
    pub budget: usize,
}

impl EngineStats {
    fn on_the_fly(n: usize, ports: usize, budget: usize) -> Self {
        Self {
            backend: EngineBackend::OnTheFly,
            n,
            ports,
            bytes: 0,
            dense_bytes: GainMatrix::bytes_for(n, ports),
            budget,
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
        write!(
            f,
            "backend={} n={} ports={} bytes={:.1}MiB dense={:.1}MiB budget={:.1}MiB",
            self.backend,
            self.n,
            self.ports,
            mib(self.bytes),
            mib(self.dense_bytes),
            mib(self.budget)
        )
    }
}

/// The outcome of a scheduling run: the coloring, the powers it was validated
/// with, and a structured label describing the algorithm/assignment used.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// The validated schedule.
    pub schedule: Schedule,
    /// The per-request powers under which the schedule is feasible.
    pub powers: Vec<f64>,
    /// Structured algorithm/assignment label; its `Display` renders the
    /// `first-fit/sqrt`-style strings used in experiment tables.
    pub label: SolveLabel,
    /// Which interference backend served the run, and why (see
    /// [`EngineStats`]).
    pub engine: EngineStats,
}

impl ScheduleResult {
    /// Number of colors of the schedule.
    pub fn num_colors(&self) -> usize {
        self.schedule.num_colors()
    }

    /// Total transmission energy `Σ p_i` of the powers used.
    pub fn total_energy(&self) -> f64 {
        self.powers.iter().sum()
    }
}

/// The backend chosen for a first-fit-style run.
enum SelectedBackend<'v, 'e, 'a, M> {
    Dense(GainMatrix),
    /// Boxed so the enum stays as small as its cheapest variant, matching
    /// [`SessionBackend`].
    Sparse(Box<SparseGainMatrix>),
    /// No cache: schedule straight off the view ([`BackendPolicy::Exact`]
    /// above the budget).
    Fly(&'v VariantView<'e, 'a, M>),
}

/// The interference backend of a *dynamic session*, chosen by
/// [`Scheduler::session_backend`] — the churn counterpart of the batch
/// backend selection inside [`Scheduler::solve`].
///
/// Dynamic and durable schedulers are generic over [`GainBackend`], so this
/// enum exists purely to let callers hold whichever tier the facade picked
/// in one variable and hand out `&backend` without matching on the tier
/// themselves: every engine method is forwarded verbatim to the chosen
/// backend, including the churn hooks
/// ([`note_arrival`](GainBackend::note_arrival) /
/// [`note_departure`](GainBackend::note_departure)) that keep the sparse
/// tier's live aggregates in step with the session.
pub enum SessionBackend<'v, 'e, 'a, M> {
    /// The dense cached [`GainMatrix`]: exact verdicts, `8 · ports · n²`
    /// bytes — the right tier while the universe fits the budget.
    Dense(GainMatrix),
    /// The churn-capable spatially-pruned [`SparseChurnMatrix`]:
    /// conservative verdicts, `O(n)` memory over the whole universe with
    /// rows only for live requests — the `Auto` tier above the budget.
    /// Boxed so the enum stays as small as its cheapest variant.
    Sparse(Box<SparseChurnMatrix>),
    /// No cache: exact contributions computed on the fly from the view
    /// ([`BackendPolicy::Exact`] above the budget).
    Fly(&'v VariantView<'e, 'a, M>),
}

impl<M: MetricSpace> SessionBackend<'_, '_, '_, M> {
    /// The tier the facade picked: the one match on it, through which every
    /// engine method below is forwarded.
    fn tier(&self) -> &dyn GainBackend {
        match self {
            SessionBackend::Dense(m) => m,
            SessionBackend::Sparse(s) => s.as_ref(),
            SessionBackend::Fly(v) => *v,
        }
    }
}

impl<M: MetricSpace> InterferenceSystem for SessionBackend<'_, '_, '_, M> {
    fn len(&self) -> usize {
        self.tier().len()
    }

    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        self.tier().sinr(i, others)
    }

    fn member_sinrs(&self, set: &[usize]) -> Vec<f64> {
        self.tier().member_sinrs(set)
    }

    fn beta(&self) -> f64 {
        self.tier().beta()
    }
}

// Every method is forwarded (none left at the trait default), so each
// tier's own layout-aware fold, pads and churn hooks keep serving sessions.
impl<M: MetricSpace> GainBackend for SessionBackend<'_, '_, '_, M> {
    fn num_ports(&self) -> usize {
        self.tier().num_ports()
    }

    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.tier().contribution(i, port, j)
    }

    fn signal(&self, i: usize) -> f64 {
        self.tier().signal(i)
    }

    fn noise(&self) -> f64 {
        self.tier().noise()
    }

    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        self.tier().stored_contribution(i, port, j)
    }

    fn stored_row(&self, i: usize) -> Option<RowRef<'_>> {
        self.tier().stored_row(i)
    }

    fn fold_candidate(
        &self,
        i: usize,
        ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut u32,
    ) -> bool {
        self.tier()
            .fold_candidate(i, ports, members, limit_hi, acc, dropped)
    }

    fn pad(&self, i: usize, dropped: u32) -> f64 {
        self.tier().pad(i, dropped)
    }

    fn is_exact(&self) -> bool {
        self.tier().is_exact()
    }

    fn note_arrival(&self, item: usize) {
        self.tier().note_arrival(item)
    }

    fn note_departure(&self, item: usize) {
        self.tier().note_departure(item)
    }
}

/// Scheduler facade: fix the SINR parameters once, then solve typed
/// [`SolveRequest`]s against instances.
///
/// # Example
///
/// ```
/// use oblisched::scheduler::Scheduler;
/// use oblisched::solve::{PowerAssignment, SolveRequest};
/// use oblisched_instances::nested_chain;
/// use oblisched_sinr::SinrParams;
///
/// let scheduler = Scheduler::new(SinrParams::new(3.0, 1.0)?);
/// let instance = nested_chain(8, 2.0);
/// let sqrt = scheduler.solve(&instance, &SolveRequest::first_fit(PowerAssignment::SquareRoot))?;
/// let uniform = scheduler.solve(&instance, &SolveRequest::first_fit(PowerAssignment::Uniform))?;
/// assert!(sqrt.num_colors() < uniform.num_colors());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduler {
    params: SinrParams,
    /// The variant of the request being solved: [`Scheduler::solve`] sets
    /// it on its per-call copy.
    variant: Variant,
    matrix_budget: usize,
    sparse_config: SparseConfig,
}

/// Default memory budget for the cached [`GainMatrix`]: below this size the
/// facade pre-computes all pairwise contributions (fast repeated lookups),
/// above it the incremental engine computes contributions on the fly (same
/// results, `O(n)` memory).
pub const DEFAULT_MATRIX_BUDGET: usize = 64 * 1024 * 1024;

impl Scheduler {
    /// Creates a scheduler with the given parameters and the default
    /// budget and sparse configuration.
    pub fn new(params: SinrParams) -> Self {
        Self {
            params,
            variant: Variant::Bidirectional,
            matrix_budget: DEFAULT_MATRIX_BUDGET,
            sparse_config: SparseConfig::default(),
        }
    }

    /// Sets the memory budget (in bytes) under which the facade caches the
    /// full [`GainMatrix`] instead of computing contributions on the fly.
    /// Both paths produce identical schedules; `0` disables the cache.
    pub fn matrix_budget(mut self, bytes: usize) -> Self {
        self.matrix_budget = bytes;
        self
    }

    /// Sets the [`SparseConfig`] used whenever the facade falls back to the
    /// spatially-pruned backend ([`BackendPolicy::Auto`]).
    pub fn sparse_config(mut self, config: SparseConfig) -> Self {
        self.sparse_config = config;
        self
    }

    /// The SINR parameters.
    pub fn params(&self) -> SinrParams {
        self.params
    }

    /// Solves one typed scheduling request — the single entry point every
    /// strategy, example, experiment and the daemon's `solve` verb share.
    ///
    /// The request's options override the scheduler's configured defaults
    /// for this run (variant always comes from the request; budget and
    /// sparse knobs only when set). Validation failures and infeasible
    /// configurations are reported as [`ScheduleError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::Sinr`] with [`SinrError::InvalidParams`] — the
    ///   scheduler's parameters fail the checks of
    ///   [`SinrParams::with_noise`] (parameters deserialized from data skip
    ///   them), or the sparse configuration, after the request's override,
    ///   fails [`SparseConfig::validate`] (both checked before any work),
    /// * [`ScheduleError::Sinr`] with [`SinrError::InvalidPower`] — a power
    ///   of the oblivious assignment the strategy runs is not positive and
    ///   finite (a large exponent overflows it; checked before any
    ///   coloring),
    /// * [`ScheduleError::UnsupportedVariant`] — a `Sqrt*` strategy was
    ///   requested for the directed variant,
    /// * [`ScheduleError::ValidationFailed`] — a produced multi-request
    ///   color class failed the exact checker (an algorithm bug),
    /// * [`ScheduleError::Sinr`] — the SINR substrate rejected derived
    ///   inputs.
    pub fn solve<M>(
        &self,
        instance: &Instance<M>,
        request: &SolveRequest,
    ) -> Result<ScheduleResult, ScheduleError>
    where
        M: MetricSpace + PlanarMetric + Sync,
    {
        let params = self.params;
        SinrParams::with_noise(params.alpha(), params.beta(), params.noise())?;
        let mut eff = *self;
        eff.variant = request.variant;
        if let Some(budget) = request.matrix_budget {
            eff.matrix_budget = budget;
        }
        if let Some(sparse) = request.sparse {
            eff.sparse_config = sparse;
        }
        eff.sparse_config.validate()?;
        let assignment = match request.strategy {
            SolveStrategy::PowerControl => return eff.power_control_impl(instance),
            SolveStrategy::SqrtColoring | SolveStrategy::SqrtDecomposition => {
                PowerAssignment::SquareRoot
            }
            SolveStrategy::FirstFit | SolveStrategy::Parallel { .. } => request.assignment,
        };
        // One evaluator per run, its powers checked before any coloring: a
        // large exponent can overflow them, and a schedule under infinite
        // powers is not one.
        let evaluator = instance.evaluator(params, &assignment.scheme());
        if let Some((index, &value)) = evaluator
            .powers()
            .iter()
            .enumerate()
            .find(|&(_, &power)| !(power.is_finite() && power > 0.0))
        {
            return Err(SinrError::InvalidPower { index, value }.into());
        }
        match request.strategy {
            SolveStrategy::Parallel { num_threads } => {
                eff.parallel_impl(&evaluator, assignment, num_threads, request.backend)
            }
            SolveStrategy::SqrtColoring => eff.sqrt_lp_impl(&evaluator, request.seed),
            SolveStrategy::SqrtDecomposition => {
                eff.sqrt_decomposition_impl(&evaluator, request.seed)
            }
            // FirstFit; PowerControl returned above.
            _ => eff.first_fit_impl(&evaluator, assignment, request.backend),
        }
    }

    /// The first-fit path: dense matrix under the budget; above it, the
    /// spatially-pruned sparse backend under [`BackendPolicy::Auto`] (the
    /// tier that keeps `n ≥ 10⁴` planar instances cached where the dense
    /// matrix would need gigabytes) or uncached exact contributions under
    /// [`BackendPolicy::Exact`]. Sparse verdicts are conservative, so the
    /// schedule validates against the exact evaluator either way (it may
    /// spend a few more colors). The label keeps the two policies apart:
    /// [`Algorithm::FirstFit`] for `Exact`, [`Algorithm::FirstFitAuto`] for
    /// `Auto`.
    fn first_fit_impl<M: MetricSpace + PlanarMetric>(
        &self,
        evaluator: &Evaluator<'_, M>,
        assignment: PowerAssignment,
        policy: BackendPolicy,
    ) -> Result<ScheduleResult, ScheduleError> {
        let view = evaluator.view(self.variant);
        let (backend, engine) = self.select_backend(&view, evaluator.len(), 1, policy);
        let schedule = match &backend {
            SelectedBackend::Dense(matrix) => first_fit_coloring(matrix),
            SelectedBackend::Sparse(sparse) => first_fit_coloring(sparse.as_ref()),
            SelectedBackend::Fly(view) => first_fit_coloring(*view),
        };
        let algorithm = match policy {
            BackendPolicy::Exact => Algorithm::FirstFit,
            BackendPolicy::Auto => Algorithm::FirstFitAuto,
        };
        let label = SolveLabel::new(algorithm, assignment.into());
        self.check_first_fit(&schedule, evaluator, &label)?;
        Ok(ScheduleResult {
            schedule,
            powers: evaluator.powers().to_vec(),
            label,
            engine,
        })
    }

    /// The parallel batch path: tile shards, shard coloring on worker
    /// threads, deterministic conflict-repair merge — the schedule is
    /// identical for every thread count. The backend follows the request's
    /// [`BackendPolicy`] (sparse fallback under `Auto`, uncached exact
    /// contributions under `Exact`).
    fn parallel_impl<M: MetricSpace + PlanarMetric + Sync>(
        &self,
        evaluator: &Evaluator<'_, M>,
        assignment: PowerAssignment,
        num_threads: usize,
        policy: BackendPolicy,
    ) -> Result<ScheduleResult, ScheduleError> {
        let view = evaluator.view(self.variant);
        let shards = tile_shards(evaluator.instance(), DEFAULT_TARGET_SHARDS);
        let config = ParallelConfig::with_threads(num_threads);
        let (backend, engine) = self.select_backend(&view, evaluator.len(), num_threads, policy);
        let schedule = match &backend {
            SelectedBackend::Dense(matrix) => parallel_first_fit(matrix, &shards, &config),
            SelectedBackend::Sparse(sparse) => {
                parallel_first_fit(sparse.as_ref(), &shards, &config)
            }
            SelectedBackend::Fly(view) => parallel_first_fit(*view, &shards, &config),
        };
        let label = SolveLabel::new(Algorithm::ParallelFirstFit, assignment.into());
        self.check_first_fit(&schedule, evaluator, &label)?;
        Ok(ScheduleResult {
            schedule,
            powers: evaluator.powers().to_vec(),
            label,
            engine,
        })
    }

    fn power_control_impl<M: MetricSpace>(
        &self,
        instance: &Instance<M>,
    ) -> Result<ScheduleResult, ScheduleError> {
        let (schedule, powers) = greedy_with_power_control(
            instance,
            &self.params,
            self.variant,
            PowerControlConfig::default(),
        );
        let label = SolveLabel::new(Algorithm::FirstFit, Assignment::PowerControl);
        let evaluator = Evaluator::with_powers(instance, self.params, powers.clone())?;
        self.require_valid(&schedule, &evaluator, &label)?;
        let engine = EngineStats::on_the_fly(
            instance.len(),
            evaluator.view(self.variant).num_ports(),
            self.matrix_budget,
        );
        Ok(ScheduleResult {
            schedule,
            powers,
            label,
            engine,
        })
    }

    fn sqrt_lp_impl<M: MetricSpace>(
        &self,
        evaluator: &Evaluator<'_, M>,
        seed: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.require_bidirectional(SolveStrategy::SqrtColoring)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = SqrtColoringConfig::default();
        let schedule = sqrt_coloring(evaluator.instance(), &self.params, &config, &mut rng);
        let label = SolveLabel::new(Algorithm::LpRounding, Assignment::SquareRoot);
        self.certified_sqrt_result(evaluator, schedule, label)
    }

    fn sqrt_decomposition_impl<M: MetricSpace>(
        &self,
        evaluator: &Evaluator<'_, M>,
        seed: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.require_bidirectional(SolveStrategy::SqrtDecomposition)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = DecompositionConfig::default();
        let schedule =
            sqrt_schedule_via_decomposition(evaluator.instance(), &self.params, &config, &mut rng);
        let label = SolveLabel::new(Algorithm::Decomposition, Assignment::SquareRoot);
        self.certified_sqrt_result(evaluator, schedule, label)
    }

    fn require_bidirectional(&self, strategy: SolveStrategy) -> Result<(), ScheduleError> {
        if self.variant == Variant::Bidirectional {
            Ok(())
        } else {
            Err(ScheduleError::UnsupportedVariant {
                strategy,
                variant: self.variant,
            })
        }
    }

    /// Validates a square-root-certified schedule and assembles its result.
    fn certified_sqrt_result<M: MetricSpace>(
        &self,
        evaluator: &Evaluator<'_, M>,
        schedule: Schedule,
        label: SolveLabel,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.require_valid(&schedule, evaluator, &label)?;
        let engine = EngineStats::on_the_fly(
            evaluator.len(),
            evaluator.view(self.variant).num_ports(),
            self.matrix_budget,
        );
        Ok(ScheduleResult {
            schedule,
            powers: evaluator.powers().to_vec(),
            label,
            engine,
        })
    }

    /// Whether the dense matrix fits the configured budget. Overflow of the
    /// byte estimate counts as over-budget (an unchecked product would wrap
    /// and could wrongly enable the matrix for huge `n`), hence the checked
    /// variant.
    fn dense_fits(&self, n: usize, ports: usize) -> bool {
        GainMatrix::checked_bytes_for(n, ports).is_some_and(|bytes| bytes <= self.matrix_budget)
    }

    /// The one place the backend tier decision is made (it used to be
    /// copy-pasted across the first-fit entry points): the dense matrix
    /// when it fits the budget; above it, the spatially-pruned sparse
    /// backend under [`BackendPolicy::Auto`] or the uncached view under
    /// [`BackendPolicy::Exact`]. `num_threads` is the caller's scheduling
    /// parallelism — when the caller asked for parallelism and the sparse
    /// build is at its serial default, the build is extended to the same
    /// thread count (the build output is identical for every thread count).
    fn select_backend<'v, 'e, 'a, M>(
        &self,
        view: &'v VariantView<'e, 'a, M>,
        n: usize,
        num_threads: usize,
        policy: BackendPolicy,
    ) -> (SelectedBackend<'v, 'e, 'a, M>, EngineStats)
    where
        M: MetricSpace + PlanarMetric,
    {
        let ports = view.num_ports();
        if self.dense_fits(n, ports) {
            (
                SelectedBackend::Dense(view.cached()),
                self.dense_stats(n, ports),
            )
        } else {
            match policy {
                BackendPolicy::Auto => {
                    let mut sparse_cfg = self.sparse_config;
                    if sparse_cfg.build_threads == 1 && num_threads != 1 {
                        sparse_cfg.build_threads = num_threads;
                    }
                    let sparse = SparseGainMatrix::build(view, &sparse_cfg);
                    let stats = self.sparse_stats(&sparse, sparse.bytes(), ports);
                    (SelectedBackend::Sparse(Box::new(sparse)), stats)
                }
                BackendPolicy::Exact => (
                    SelectedBackend::Fly(view),
                    EngineStats::on_the_fly(n, ports, self.matrix_budget),
                ),
            }
        }
    }

    fn dense_stats(&self, n: usize, ports: usize) -> EngineStats {
        let bytes = GainMatrix::bytes_for(n, ports);
        EngineStats {
            backend: EngineBackend::Dense,
            n,
            ports,
            bytes,
            dense_bytes: bytes,
            budget: self.matrix_budget,
        }
    }

    /// Picks the interference backend for a **dynamic session** over `view`
    /// — the churn counterpart of the batch tier decision inside
    /// [`solve`](Scheduler::solve), sharing its budget and
    /// [`SparseConfig`]. Under [`BackendPolicy::Auto`] the session gets the
    /// dense [`GainMatrix`] while it fits
    /// [`matrix_budget`](Scheduler::matrix_budget), and the churn-capable
    /// [`SparseChurnMatrix`] above it (built over the full universe with
    /// every request initially dead — the session's inserts and removes
    /// drive it through the engine's churn hooks). Under
    /// [`BackendPolicy::Exact`] the over-budget fallback is the uncached
    /// exact view instead.
    ///
    /// The reported [`EngineStats::bytes`] is the backend's footprint at
    /// selection time; the sparse tier grows as the session materialises
    /// rows for live requests (still `O(n)` at fixed density and cutoff).
    pub fn session_backend<'v, 'e, 'a, M>(
        &self,
        view: &'v VariantView<'e, 'a, M>,
        policy: BackendPolicy,
    ) -> (SessionBackend<'v, 'e, 'a, M>, EngineStats)
    where
        M: MetricSpace + PlanarMetric,
    {
        let n = view.len();
        let ports = view.num_ports();
        if self.dense_fits(n, ports) {
            (
                SessionBackend::Dense(view.cached()),
                self.dense_stats(n, ports),
            )
        } else {
            match policy {
                BackendPolicy::Auto => {
                    let sparse = SparseChurnMatrix::new(view, &self.sparse_config);
                    let stats = self.sparse_stats(&sparse, sparse.bytes(), ports);
                    (SessionBackend::Sparse(Box::new(sparse)), stats)
                }
                BackendPolicy::Exact => (
                    SessionBackend::Fly(view),
                    EngineStats::on_the_fly(n, ports, self.matrix_budget),
                ),
            }
        }
    }

    /// The stats of either sparse tier, batch or churn, whose footprint is
    /// `bytes`. `true_ports` is the variant's port count — the sparse tiers
    /// report a single port (one row per request), but the dense-footprint
    /// comparison must use what the dense matrix would actually allocate.
    fn sparse_stats(
        &self,
        sparse: &impl GainBackend,
        bytes: usize,
        true_ports: usize,
    ) -> EngineStats {
        EngineStats {
            backend: EngineBackend::Sparse,
            n: sparse.len(),
            ports: sparse.num_ports(),
            bytes,
            dense_bytes: GainMatrix::bytes_for(sparse.len(), true_ports),
            budget: self.matrix_budget,
        }
    }

    /// Shared validation of first-fit-style schedules: feasible, except
    /// that inherently infeasible singletons (heavy noise) are acceptable —
    /// any other violation is reported as
    /// [`ScheduleError::ValidationFailed`].
    fn check_first_fit<M: MetricSpace>(
        &self,
        schedule: &Schedule,
        evaluator: &Evaluator<'_, M>,
        label: &SolveLabel,
    ) -> Result<(), ScheduleError> {
        if schedule.validate(evaluator, self.variant).is_err() {
            let only_doomed_singletons = schedule
                .classes()
                .iter()
                .all(|class| class.len() == 1 || evaluator.is_feasible(self.variant, class));
            if !only_doomed_singletons {
                return self.require_valid(schedule, evaluator, label);
            }
        }
        Ok(())
    }

    /// Maps an exact-checker rejection to the typed
    /// [`ScheduleError::ValidationFailed`].
    fn require_valid<M: MetricSpace>(
        &self,
        schedule: &Schedule,
        evaluator: &Evaluator<'_, M>,
        label: &SolveLabel,
    ) -> Result<(), ScheduleError> {
        match schedule.validate(evaluator, self.variant) {
            Ok(()) => Ok(()),
            Err(SinrError::InfeasibleColorClass { color, request }) => {
                Err(ScheduleError::ValidationFailed {
                    color,
                    request,
                    label: label.clone(),
                })
            }
            Err(other) => Err(ScheduleError::Sinr(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::PowerAssignment;
    use oblisched_instances::{nested_chain, uniform_deployment, DeploymentConfig};
    use rand_chacha::ChaCha8Rng;

    fn scheduler() -> Scheduler {
        Scheduler::new(SinrParams::new(3.0, 1.0).unwrap())
    }

    #[test]
    fn builder_accessors() {
        assert_eq!(scheduler().params().alpha(), 3.0);
    }

    #[test]
    fn solve_reports_energy_colors_and_structured_label() {
        let inst = nested_chain(8, 2.0);
        let result = scheduler()
            .solve(&inst, &SolveRequest::first_fit(PowerAssignment::Linear))
            .unwrap();
        assert_eq!(result.schedule.len(), 8);
        assert!(result.num_colors() >= 1);
        assert!(result.total_energy() > 0.0);
        assert_eq!(result.label.assignment, Assignment::Linear);
        assert_eq!(result.label.to_string(), "first-fit-auto/linear");
    }

    #[test]
    fn sqrt_beats_uniform_via_the_facade() {
        let inst = nested_chain(10, 2.0);
        let s = scheduler();
        let sqrt = s
            .solve(&inst, &SolveRequest::first_fit(PowerAssignment::SquareRoot))
            .unwrap();
        let uniform = s
            .solve(&inst, &SolveRequest::first_fit(PowerAssignment::Uniform))
            .unwrap();
        assert!(sqrt.num_colors() < uniform.num_colors());
    }

    #[test]
    fn session_backend_tiers_follow_the_budget_and_policy() {
        use crate::dynamic::DynamicScheduler;
        use oblisched_sinr::ObliviousPower;

        let inst = nested_chain(10, 2.0);
        let eval = inst.evaluator(
            SinrParams::new(3.0, 1.0).unwrap(),
            &ObliviousPower::SquareRoot,
        );
        let view = eval.view(Variant::Bidirectional);

        // Under the budget: the dense cache, exact verdicts.
        let (backend, stats) = scheduler().session_backend(&view, BackendPolicy::Auto);
        assert!(matches!(backend, SessionBackend::Dense(_)));
        assert_eq!(stats.backend, EngineBackend::Dense);
        assert!(backend.is_exact());

        // Over the budget under Auto: the churn-capable sparse tier — and a
        // session over it schedules every request while certifying against
        // the naive view.
        let tight = scheduler().matrix_budget(64);
        let (backend, stats) = tight.session_backend(&view, BackendPolicy::Auto);
        assert!(matches!(backend, SessionBackend::Sparse(_)));
        assert_eq!(stats.backend, EngineBackend::Sparse);
        assert!(!backend.is_exact());
        assert!(stats.dense_bytes > stats.budget);
        let mut sched = DynamicScheduler::new(&backend);
        let ids: Vec<_> = (0..inst.len()).map(|i| sched.insert(i).unwrap()).collect();
        sched.validate_against(&view).unwrap();
        sched.remove(ids[3]).unwrap();
        sched.validate_against(&view).unwrap();
        sched.validate().unwrap();

        // Over the budget under Exact: the uncached fly view.
        let (backend, stats) = tight.session_backend(&view, BackendPolicy::Exact);
        assert!(matches!(backend, SessionBackend::Fly(_)));
        assert_eq!(stats.backend, EngineBackend::OnTheFly);
        assert!(backend.is_exact());
    }

    #[test]
    fn lp_and_decomposition_strategies_produce_valid_schedules() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let inst = uniform_deployment(
            DeploymentConfig {
                num_requests: 12,
                side: 300.0,
                min_link: 1.0,
                max_link: 10.0,
            },
            &mut rng,
        );
        let s = scheduler();
        let lp = s.solve(&inst, &SolveRequest::sqrt_coloring(9)).unwrap();
        assert_eq!(lp.schedule.len(), 12);
        assert_eq!(lp.label.algorithm, Algorithm::LpRounding);
        let dec = s
            .solve(&inst, &SolveRequest::sqrt_decomposition(9))
            .unwrap();
        assert_eq!(dec.schedule.len(), 12);
        assert_eq!(dec.label.to_string(), "decomposition/sqrt");
    }

    #[test]
    fn power_control_works_in_both_variants() {
        let inst = nested_chain(6, 2.0);
        for variant in Variant::all() {
            let result = scheduler()
                .solve(&inst, &SolveRequest::power_control().with_variant(variant))
                .unwrap();
            assert_eq!(result.schedule.len(), 6);
            assert!(result.powers.iter().all(|&p| p > 0.0));
            assert_eq!(result.label.to_string(), "first-fit/power-control");
        }
    }

    #[test]
    fn heavy_noise_instances_are_scheduled_not_rejected() {
        // With noise 10 and unit links, a request is infeasible even alone;
        // the facade must return the sequential-style schedule instead of
        // reporting a validation failure.
        let inst = nested_chain(4, 2.0);
        let params = SinrParams::with_noise(3.0, 1.0, 10.0).unwrap();
        let result = Scheduler::new(params)
            .solve(&inst, &SolveRequest::first_fit(PowerAssignment::Uniform))
            .unwrap();
        assert_eq!(result.schedule.len(), 4);
        // Every class is a singleton: nothing can share a slot under this
        // noise, and doomed requests still get their own color.
        assert_eq!(result.schedule.num_colors(), 4);
    }

    #[test]
    fn sqrt_strategies_reject_the_directed_variant_with_a_typed_error() {
        let inst = nested_chain(4, 2.0);
        for (request, strategy) in [
            (SolveRequest::sqrt_coloring(1), SolveStrategy::SqrtColoring),
            (
                SolveRequest::sqrt_decomposition(1),
                SolveStrategy::SqrtDecomposition,
            ),
        ] {
            let err = scheduler()
                .solve(&inst, &request.with_variant(Variant::Directed))
                .unwrap_err();
            assert_eq!(
                err,
                ScheduleError::UnsupportedVariant {
                    strategy,
                    variant: Variant::Directed
                }
            );
        }
    }

    #[test]
    fn parallel_honors_the_exact_backend_policy() {
        let inst = nested_chain(12, 2.0);
        let s = scheduler();
        let parallel = SolveRequest::parallel(PowerAssignment::SquareRoot, 2);
        let dense = s.solve(&inst, &parallel).unwrap();
        assert_eq!(dense.engine.backend, EngineBackend::Dense);
        // Over budget, Exact falls back to uncached exact contributions —
        // bit-for-bit the dense schedule, never the pruned sparse backend.
        let fly = s
            .solve(
                &inst,
                &parallel
                    .with_backend(BackendPolicy::Exact)
                    .with_matrix_budget(0),
            )
            .unwrap();
        assert_eq!(fly.engine.backend, EngineBackend::OnTheFly);
        assert_eq!(fly.schedule, dense.schedule);
        let sparse = s.solve(&inst, &parallel.with_matrix_budget(0)).unwrap();
        assert_eq!(sparse.engine.backend, EngineBackend::Sparse);
    }

    #[test]
    fn request_overrides_scheduler_budget_and_backend() {
        let inst = nested_chain(12, 2.0);
        let s = scheduler();
        // Budget 0 disables the dense cache; the exact policy then goes
        // on-the-fly while auto falls back to the sparse tier.
        let exact = s
            .solve(
                &inst,
                &SolveRequest::first_fit(PowerAssignment::SquareRoot)
                    .with_backend(BackendPolicy::Exact)
                    .with_matrix_budget(0),
            )
            .unwrap();
        assert_eq!(exact.engine.backend, EngineBackend::OnTheFly);
        let auto = s
            .solve(
                &inst,
                &SolveRequest::first_fit(PowerAssignment::SquareRoot).with_matrix_budget(0),
            )
            .unwrap();
        assert_eq!(auto.engine.backend, EngineBackend::Sparse);
        // Both tiers schedule the whole instance.
        assert_eq!(exact.schedule.len(), 12);
        assert_eq!(auto.schedule.len(), 12);
    }

    #[test]
    fn deserialized_params_are_rechecked_before_any_work() {
        let inst = nested_chain(6, 2.0);
        let request = SolveRequest::first_fit(PowerAssignment::SquareRoot);
        // Parameters read from data skip `SinrParams::with_noise`.
        for json in [
            r#"{"alpha":0.5,"beta":1,"noise":0}"#,
            r#"{"alpha":1e999,"beta":1,"noise":0}"#,
            r#"{"alpha":3,"beta":1e999,"noise":0}"#,
            r#"{"alpha":3,"beta":1,"noise":1e999}"#,
        ] {
            let params: SinrParams = serde_json::from_str(json).unwrap();
            let err = Scheduler::new(params).solve(&inst, &request).unwrap_err();
            assert!(
                matches!(err, ScheduleError::Sinr(SinrError::InvalidParams { .. })),
                "{json}: {err:?}"
            );
        }
        let params: SinrParams = serde_json::from_str(r#"{"alpha":3,"beta":1,"noise":0}"#).unwrap();
        assert!(Scheduler::new(params).solve(&inst, &request).is_ok());
    }

    #[test]
    fn overflowing_powers_are_refused_before_any_coloring() {
        use oblisched_instances::{build_family, Family, FamilyInstance};
        let Ok(FamilyInstance::Planar(inst)) = build_family(Family::Scaling, 30, 1) else {
            panic!("the scaling family is planar");
        };
        let at = |alpha| Scheduler::new(SinrParams::new(alpha, 1.0).unwrap());
        // At alpha 300 the linear and square-root powers of the long links
        // overflow, for every strategy that runs an oblivious assignment.
        for request in [
            SolveRequest::first_fit(PowerAssignment::Linear),
            SolveRequest::first_fit(PowerAssignment::SquareRoot),
            SolveRequest::sqrt_coloring(0),
        ] {
            let err = at(300.0).solve(&inst, &request).unwrap_err();
            assert!(
                matches!(
                    err,
                    ScheduleError::Sinr(SinrError::InvalidPower { value, .. }) if value.is_infinite()
                ),
                "{request:?}: {err:?}"
            );
        }
        // Negative control: at alpha 60 they are huge but finite.
        let result = at(60.0)
            .solve(&inst, &SolveRequest::first_fit(PowerAssignment::Linear))
            .unwrap();
        assert!(result.total_energy().is_finite() && result.total_energy() > 1e60);
    }

    #[test]
    fn out_of_range_sparse_cutoffs_are_typed_errors() {
        let inst = nested_chain(12, 2.0);
        // Budget 0 sends the solve to the sparse tier.
        let request = SolveRequest::first_fit(PowerAssignment::SquareRoot).with_matrix_budget(0);
        for cutoff in [-0.1, f64::NAN, f64::INFINITY] {
            let sparse = SparseConfig {
                cutoff_fraction: cutoff,
                ..SparseConfig::default()
            };
            // Through the request's override and the scheduler's own config.
            for (s, r) in [
                (scheduler(), request.with_sparse_config(sparse)),
                (scheduler().sparse_config(sparse), request),
            ] {
                let err = s.solve(&inst, &r).unwrap_err();
                assert!(
                    matches!(err, ScheduleError::Sinr(SinrError::InvalidParams { .. })),
                    "cutoff {cutoff}: {err:?}"
                );
            }
        }
        // Negative control: the boundary value 0 is legal.
        let zero = SparseConfig {
            cutoff_fraction: 0.0,
            ..SparseConfig::default()
        };
        let solved = scheduler()
            .solve(&inst, &request.with_sparse_config(zero))
            .unwrap();
        assert_eq!(solved.engine.backend, EngineBackend::Sparse);
    }
}
