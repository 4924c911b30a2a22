//! The experiments E1–E11: one per quantitative claim of the paper, plus the
//! E9 scaling measurement of the incremental interference engine, the E10
//! churn comparison of the dynamic scheduler, and the E11 backend-tier
//! comparison (dense vs sparse vs parallel-sparse).

use crate::table::Table;
use oblisched::scheduler::{ScheduleResult, Scheduler};
use oblisched::solve::{BackendPolicy, SolveRequest};
use oblisched::{
    decay_classes, exact_chromatic_number, first_fit_coloring, sqrt_coloring, star_sqrt_subset,
    SqrtColoringConfig,
};
use oblisched_instances::{
    adversarial_for, clustered_deployment, max_supported_n, nested_chain, uniform_deployment,
    DeploymentConfig,
};
use oblisched_metric::{
    DominatingTreeFamily, EmbeddingConfig, EuclideanSpace, MetricSpace, PlanarMetric, Point2,
    StarMetric,
};
use oblisched_sinr::{
    extract_feasible_subset, rescale_coloring, Instance, NodeLossInstance, ObliviousPower,
    PowerScheme, Schedule, SinrParams, Variant,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Identifier of an experiment in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Theorem 1: oblivious assignments need Ω(n) colors on adversarial
    /// directed instances; power control needs O(1).
    E1,
    /// §1.2: the nested chain separates uniform/linear from the square root.
    E2,
    /// Theorem 15: quality of the LP coloring vs greedy and the exact optimum.
    E3,
    /// Theorem 2: colors of the square-root assignment on instances with
    /// known O(1) optimum, as n grows.
    E4,
    /// Propositions 3/4: gain rescaling — kept fraction and color blow-up.
    E5,
    /// Lemma 5: fraction of star nodes kept by the square-root assignment.
    E6,
    /// Lemma 6: dominating tree families — stretch and core statistics.
    E7,
    /// §6: directed simulation of bidirectional schedules and the
    /// energy/colors trade-off of oblivious assignments.
    E8,
    /// Scaling: first-fit wall time and colors, incremental engine vs the
    /// naive evaluator, across growing n (identical colorings asserted).
    E9,
    /// Churn: the dynamic scheduler's incremental maintenance vs a full
    /// reschedule per event, across power assignments (colors, per-event
    /// latency, total wall time).
    E10,
    /// Backend tiers: dense `GainMatrix` at its budget ceiling (n=2000) vs
    /// the spatially-pruned sparse backend and tile-sharded parallel
    /// scheduling at n=10000, with conservativeness validated against the
    /// naive evaluator.
    E11,
}

impl Experiment {
    /// Parses an experiment id such as `"e3"` or `"E3"`.
    pub fn parse(s: &str) -> Option<Experiment> {
        match s.to_ascii_lowercase().as_str() {
            "e1" => Some(Experiment::E1),
            "e2" => Some(Experiment::E2),
            "e3" => Some(Experiment::E3),
            "e4" => Some(Experiment::E4),
            "e5" => Some(Experiment::E5),
            "e6" => Some(Experiment::E6),
            "e7" => Some(Experiment::E7),
            "e8" => Some(Experiment::E8),
            "e9" => Some(Experiment::E9),
            "e10" => Some(Experiment::E10),
            "e11" => Some(Experiment::E11),
            _ => None,
        }
    }
}

/// All experiments in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment::E1,
        Experiment::E2,
        Experiment::E3,
        Experiment::E4,
        Experiment::E5,
        Experiment::E6,
        Experiment::E7,
        Experiment::E8,
        Experiment::E9,
        Experiment::E10,
        Experiment::E11,
    ]
}

/// Runs one experiment and returns its table.
pub fn run_experiment(exp: Experiment) -> Table {
    match exp {
        Experiment::E1 => e1_adversarial_directed(),
        Experiment::E2 => e2_nested_chain(),
        Experiment::E3 => e3_lp_coloring_quality(),
        Experiment::E4 => e4_sqrt_vs_known_optimum(),
        Experiment::E5 => e5_gain_rescaling(),
        Experiment::E6 => e6_star_fraction(),
        Experiment::E7 => e7_tree_embeddings(),
        Experiment::E8 => e8_directed_simulation_and_energy(),
        Experiment::E9 => e9_scaling_engine(),
        Experiment::E10 => e10_dynamic_churn(),
        Experiment::E11 => e11_backend_tiers(),
    }
}

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).expect("valid parameters")
}

/// Runs one typed request through the facade — the experiments treat every
/// job as well-formed, so the typed error becomes a panic with context.
fn solve<M: MetricSpace + PlanarMetric + Sync>(
    scheduler: &Scheduler,
    instance: &Instance<M>,
    request: &SolveRequest,
) -> ScheduleResult {
    scheduler
        .solve(instance, request)
        .unwrap_or_else(|e| panic!("experiment solve failed: {e}"))
}

fn random_instance(seed: u64, n: usize) -> Instance<EuclideanSpace<2>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    uniform_deployment(
        DeploymentConfig {
            num_requests: n,
            side: 40.0 * (n as f64).sqrt(),
            min_link: 1.0,
            max_link: 15.0,
        },
        &mut rng,
    )
}

/// E1 — Theorem 1: Ω(n) vs O(1) on adversarial directed instances.
pub fn e1_adversarial_directed() -> Table {
    let p = params();
    let mut table = Table::new(
        "E1",
        "Theorem 1: oblivious assignments vs power control on adversarial directed instances",
        vec![
            "target assignment",
            "n",
            "colors (target oblivious)",
            "colors (power control)",
        ],
    );
    let scheduler = Scheduler::new(p);
    for power in ObliviousPower::standard_assignments() {
        let cap = max_supported_n(&power, &p);
        for &n in &[4usize, 8, 16, 32, 64] {
            if n > cap {
                continue;
            }
            let adv = adversarial_for(&power, &p, n);
            let oblivious = solve(
                &scheduler,
                adv.instance(),
                &SolveRequest::first_fit(power.into())
                    .with_backend(BackendPolicy::Exact)
                    .with_variant(Variant::Directed),
            );
            let optimal = solve(
                &scheduler,
                adv.instance(),
                &SolveRequest::power_control().with_variant(Variant::Directed),
            );
            table.push_row(vec![
                power.name(),
                n.to_string(),
                oblivious.num_colors().to_string(),
                optimal.num_colors().to_string(),
            ]);
        }
    }
    table.push_note("alpha = 3, beta = 1; the square-root construction is doubly exponential, so only small n fit in f64");
    table.push_note("paper prediction: the oblivious column grows linearly in n, the power-control column stays O(1)");
    table
}

/// E2 — §1.2: the nested chain.
pub fn e2_nested_chain() -> Table {
    let p = params();
    let mut table = Table::new(
        "E2",
        "§1.2: colors needed on the nested chain u_i = -2^i, v_i = 2^i (bidirectional, first-fit)",
        vec!["n", "uniform", "linear", "sqrt", "one-shot capacity (sqrt)"],
    );
    for &n in &[4usize, 8, 16, 24, 32] {
        let instance = nested_chain(n, 2.0);
        let mut row = vec![n.to_string()];
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(p, &power);
            let schedule = first_fit_coloring(&eval.view(Variant::Bidirectional));
            row.push(schedule.num_colors().to_string());
        }
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..n).collect();
        row.push(oblisched::greedy_one_shot(&view, &all).len().to_string());
        table.push_row(row);
    }
    table.push_note("paper prediction: uniform and linear grow ~n, sqrt stays O(1); the sqrt one-shot capacity grows ~n/4");
    table
}

/// E3 — Theorem 15: LP coloring vs greedy vs exact optimum.
pub fn e3_lp_coloring_quality() -> Table {
    let p = params();
    let mut table = Table::new(
        "E3",
        "Theorem 15: LP-rounding coloring for the sqrt assignment vs greedy and the exact optimum",
        vec![
            "n",
            "seeds",
            "greedy (avg)",
            "lp (avg)",
            "exact (avg, n<=10)",
            "lp / exact",
        ],
    );
    for &n in &[8usize, 10, 16, 32, 64] {
        let seeds: Vec<u64> = (0..3).map(|s| 1000 + s * 97 + n as u64).collect();
        let mut greedy_sum = 0.0;
        let mut lp_sum = 0.0;
        let mut exact_sum = 0.0;
        let mut exact_count = 0usize;
        for &seed in &seeds {
            let instance = random_instance(seed, n);
            let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
            let view = eval.view(Variant::Bidirectional);
            let greedy = first_fit_coloring(&view);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
            let lp = sqrt_coloring(&instance, &p, &SqrtColoringConfig::default(), &mut rng);
            greedy_sum += greedy.num_colors() as f64;
            lp_sum += lp.num_colors() as f64;
            if n <= 10 {
                let (optimum, _) = exact_chromatic_number(&view);
                exact_sum += optimum as f64;
                exact_count += 1;
            }
        }
        let k = seeds.len() as f64;
        let exact_avg = if exact_count > 0 {
            exact_sum / exact_count as f64
        } else {
            f64::NAN
        };
        let ratio = if exact_count > 0 {
            lp_sum / k / exact_avg
        } else {
            f64::NAN
        };
        table.push_row(vec![
            n.to_string(),
            seeds.len().to_string(),
            format!("{:.2}", greedy_sum / k),
            format!("{:.2}", lp_sum / k),
            if exact_count > 0 {
                format!("{exact_avg:.2}")
            } else {
                "-".to_string()
            },
            if exact_count > 0 {
                format!("{ratio:.2}")
            } else {
                "-".to_string()
            },
        ]);
    }
    table.push_note("random uniform deployments, alpha = 3, beta = 1");
    table.push_note("paper prediction: lp / exact stays O(log n) — in practice a small constant");
    table
}

/// E4 — Theorem 2: sqrt colors on instances whose optimum is O(1) by
/// construction.
pub fn e4_sqrt_vs_known_optimum() -> Table {
    let p = params();
    let mut table = Table::new(
        "E4",
        "Theorem 2: sqrt-assignment schedule length on instances with O(1)-color optima",
        vec![
            "family",
            "n",
            "sqrt colors (greedy)",
            "sqrt colors (lp)",
            "power-control colors",
        ],
    );
    let scheduler = Scheduler::new(p);
    let first_fit_sqrt = SolveRequest::first_fit(ObliviousPower::SquareRoot.into())
        .with_backend(BackendPolicy::Exact);
    for &n in &[8usize, 16, 32, 64] {
        let chain = nested_chain(n, 2.0);
        let greedy = solve(&scheduler, &chain, &first_fit_sqrt);
        let lp = solve(&scheduler, &chain, &SolveRequest::sqrt_coloring(n as u64));
        let pc = solve(&scheduler, &chain, &SolveRequest::power_control());
        table.push_row(vec![
            "nested chain".to_string(),
            n.to_string(),
            greedy.num_colors().to_string(),
            lp.num_colors().to_string(),
            pc.num_colors().to_string(),
        ]);
    }
    let cap = max_supported_n(&ObliviousPower::Uniform, &p);
    for &n in &[8usize, 16, 32] {
        if n > cap {
            continue;
        }
        let adv = adversarial_for(&ObliviousPower::Uniform, &p, n);
        let instance = adv.instance();
        let greedy = solve(&scheduler, instance, &first_fit_sqrt);
        let lp = solve(
            &scheduler,
            instance,
            &SolveRequest::sqrt_coloring(n as u64 ^ 0xff),
        );
        let pc = solve(&scheduler, instance, &SolveRequest::power_control());
        table.push_row(vec![
            "uniform-adversarial".to_string(),
            n.to_string(),
            greedy.num_colors().to_string(),
            lp.num_colors().to_string(),
            pc.num_colors().to_string(),
        ]);
    }
    table.push_note("both families have O(1)-color schedules under non-oblivious powers (last column approximates them)");
    table.push_note("paper prediction: the sqrt columns stay polylog(n) — empirically flat in n");
    table
}

/// E5 — Propositions 3/4: gain rescaling.
pub fn e5_gain_rescaling() -> Table {
    let p = params();
    let mut table = Table::new(
        "E5",
        "Propositions 3/4: extracting stricter-gain subsets and rescaled colorings",
        vec![
            "n",
            "gamma'/gamma",
            "kept fraction",
            "bound gamma/(8 gamma')",
            "rescaled colors",
            "bound O(g'/g log n)",
        ],
    );
    for &n in &[16usize, 32, 64] {
        for &factor in &[2.0f64, 4.0, 8.0] {
            let instance = random_instance(7 + n as u64, n);
            let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
            let view = eval.view(Variant::Bidirectional);
            // Start from the greedy coloring at the base gain.
            let base = first_fit_coloring(&view);
            let gamma = p.beta();
            let gamma_prime = gamma * factor;
            // Kept fraction of the largest base class.
            let largest = base
                .classes()
                .into_iter()
                .max_by_key(|c| c.len())
                .unwrap_or_default();
            let kept = extract_feasible_subset(&view, &largest, gamma_prime);
            let fraction = if largest.is_empty() {
                1.0
            } else {
                kept.len() as f64 / largest.len() as f64
            };
            let rescaled = rescale_coloring(&view, &base, gamma_prime);
            let bound_colors = (factor * (n as f64).log2()).ceil() * base.num_colors() as f64;
            table.push_row(vec![
                n.to_string(),
                format!("{factor:.0}"),
                format!("{fraction:.2}"),
                format!("{:.3}", gamma / (8.0 * gamma_prime)),
                rescaled.num_colors().to_string(),
                format!("{bound_colors:.0}"),
            ]);
        }
    }
    table.push_note(
        "kept fraction is measured on the largest color class of the greedy base coloring",
    );
    table.push_note("paper prediction: kept fraction >= gamma/(8 gamma'); rescaled colors <= O(gamma'/gamma log n) x base colors");
    table
}

/// E6 — Lemma 5: stars.
pub fn e6_star_fraction() -> Table {
    let p = params();
    let mut table = Table::new(
        "E6",
        "Lemma 5: fraction of star nodes kept by the square-root assignment",
        vec!["n", "star type", "gamma", "kept fraction", "decay classes"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for &n in &[32usize, 128, 512] {
        // Balanced stars (loss parameter = decay) and skewed stars (random
        // loss parameters).
        let radii: Vec<f64> = (0..n).map(|i| 1.5f64.powi((i % 40) as i32)).collect();
        let balanced_losses: Vec<f64> = radii.iter().map(|r| r.powi(3)).collect();
        let skewed_losses: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(0.0..6.0)))
            .collect();
        for (kind, losses) in [("balanced", balanced_losses), ("skewed", skewed_losses)] {
            let star = StarMetric::new(radii.clone());
            let classes = decay_classes(&star, p.alpha()).len();
            let instance = NodeLossInstance::new(star, losses).expect("positive losses");
            for &gamma in &[0.25f64, 1.0] {
                let kept = star_sqrt_subset(&instance, &p, gamma);
                table.push_row(vec![
                    n.to_string(),
                    kind.to_string(),
                    format!("{gamma:.2}"),
                    format!("{:.2}", kept.len() as f64 / n as f64),
                    classes.to_string(),
                ]);
            }
        }
    }
    table.push_note("paper prediction: the kept fraction approaches 1 as gamma shrinks relative to the gain at which the star is feasible");
    table
}

/// E7 — Lemma 6: dominating tree families.
pub fn e7_tree_embeddings() -> Table {
    let mut table = Table::new(
        "E7",
        "Lemma 6: dominating tree families — stretch and core statistics (FRT embeddings)",
        vec![
            "n",
            "trees",
            "avg stretch",
            "max stretch",
            "stretch threshold",
            "min core fraction",
        ],
    );
    for &n in &[16usize, 64, 256] {
        let mut rng = ChaCha8Rng::seed_from_u64(5 + n as u64);
        let points: Vec<Point2> = (0..n)
            .map(|_| Point2::xy(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let space = EuclideanSpace::from_points(points);
        let family = DominatingTreeFamily::build(&space, EmbeddingConfig::default(), &mut rng);
        let mut stretches = Vec::new();
        for tree in family.trees() {
            for v in 0..n {
                stretches.push(tree.max_stretch_at(&space, v));
            }
        }
        let avg = stretches.iter().sum::<f64>() / stretches.len() as f64;
        let max = stretches.iter().copied().fold(0.0, f64::max);
        let min_core = (0..n)
            .map(|v| family.core_fraction_of(v))
            .fold(f64::INFINITY, f64::min);
        table.push_row(vec![
            n.to_string(),
            family.num_trees().to_string(),
            format!("{avg:.1}"),
            format!("{max:.1}"),
            format!("{:.1}", family.stretch_threshold()),
            format!("{min_core:.2}"),
        ]);
    }
    table.push_note("every tree dominates the metric by construction; the table reports the per-node worst-case stretch");
    table.push_note("paper prediction: O(log n) trees suffice for every node to be in 9/10 of the cores with O(log n) stretch");
    table
}

/// E8 — §6: directed simulation and the energy/colors trade-off.
pub fn e8_directed_simulation_and_energy() -> Table {
    let p = params();
    let mut table = Table::new(
        "E8",
        "§6: directed simulation of bidirectional schedules and energy/colors trade-off",
        vec![
            "n",
            "bidi colors (sqrt)",
            "directed simulation colors",
            "energy sqrt / energy linear",
            "colors linear / colors sqrt",
        ],
    );
    for &n in &[16usize, 32, 64] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64 * 31);
        let instance = clustered_deployment(
            DeploymentConfig {
                num_requests: n,
                side: 50.0 * (n as f64).sqrt(),
                min_link: 1.0,
                max_link: 20.0,
            },
            4,
            30.0,
            &mut rng,
        );
        let scheduler = Scheduler::new(p);
        let exact = |power: ObliviousPower| {
            solve(
                &scheduler,
                &instance,
                &SolveRequest::first_fit(power.into()).with_backend(BackendPolicy::Exact),
            )
        };
        let sqrt = exact(ObliviousPower::SquareRoot);
        let linear = exact(ObliviousPower::Linear);
        let doubled = oblisched::convert::verify_directed_simulation(
            &instance,
            &p,
            &sqrt.powers,
            &sqrt.schedule,
        )
        .expect("simulation of a valid schedule is valid");
        table.push_row(vec![
            n.to_string(),
            sqrt.num_colors().to_string(),
            doubled.to_string(),
            format!("{:.2}", sqrt.total_energy() / linear.total_energy()),
            format!(
                "{:.2}",
                linear.num_colors() as f64 / sqrt.num_colors() as f64
            ),
        ]);
    }
    table.push_note(
        "paper prediction: the directed simulation uses exactly twice the bidirectional colors",
    );
    table.push_note("the energy column quantifies the §6 remark that sqrt trades energy (vs the energy-optimal linear assignment) for schedule length");
    table
}

/// E9 — scaling: the incremental interference engine vs the naive evaluator.
///
/// Runs first-fit on the seed-pinned scaling families across growing `n`,
/// recording colors and wall time for both paths (the naive path is skipped
/// beyond `n = 1000`, where it takes minutes). Where both run, the colorings
/// are asserted identical — the engine's exact-equivalence guarantee,
/// measured rather than assumed — and the uniform `n = 1000` row, the
/// largest the naive path runs at, asserts the engine's ≥ 10× speedup.
pub fn e9_scaling_engine() -> Table {
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched_sinr::GainMatrix;

    /// Naive first-fit is cubic-ish in practice; skip it above this size.
    const NAIVE_LIMIT: usize = 1000;
    let p = params();
    let mut table = Table::new(
        "E9",
        "Scaling: first-fit colors and wall time, incremental engine vs naive evaluator (sqrt, bidirectional)",
        vec!["family", "n", "colors", "engine ms", "naive ms", "speedup"],
    );
    let mut run_row =
        |family: &str, instance_colors: (usize, Schedule, f64, Option<(Schedule, f64)>)| {
            let (n, engine, engine_ms, naive) = instance_colors;
            let (naive_ms, speedup) = match &naive {
                Some((schedule, ms)) => {
                    assert_eq!(
                        schedule, &engine,
                        "incremental and naive colorings diverged on {family} n={n}"
                    );
                    (
                        format!("{ms:.1}"),
                        format!("{:.1}x", ms / engine_ms.max(1e-9)),
                    )
                }
                None => ("-".to_string(), "-".to_string()),
            };
            table.push_row(vec![
                family.to_string(),
                n.to_string(),
                engine.num_colors().to_string(),
                format!("{engine_ms:.1}"),
                naive_ms,
                speedup,
            ]);
            // Both paths of this row run on the uncached on-the-fly view
            // (`EngineStats::bytes` is 0 by definition for that tier).
            table.push_engine(
                format!("{family} n={n}"),
                EngineStats {
                    backend: EngineBackend::OnTheFly,
                    n,
                    ports: 2,
                    bytes: 0,
                    dense_bytes: GainMatrix::bytes_for(n, 2),
                    budget: DEFAULT_MATRIX_BUDGET,
                },
            );
        };

    let time_first_fit = |view: &dyn Fn() -> Schedule| -> (Schedule, f64) {
        let start = std::time::Instant::now();
        let schedule = view();
        (schedule, start.elapsed().as_secs_f64() * 1e3)
    };

    for &n in &[200usize, 500, 1000, 2000, 5000] {
        let instance = oblisched_instances::scaling_uniform(n, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let (engine, engine_ms) = time_first_fit(&|| first_fit_coloring(&view));
        let naive = (n <= NAIVE_LIMIT)
            .then(|| time_first_fit(&|| oblisched::first_fit_coloring_naive(&view)));
        if let Some((_, naive_ms)) = naive.as_ref().filter(|_| n == NAIVE_LIMIT) {
            let speedup = naive_ms / engine_ms.max(1e-9);
            assert!(
                speedup >= 10.0,
                "the engine must be >= 10x faster than naive at uniform n={n}, got {speedup:.1}x"
            );
        }
        run_row("uniform", (n, engine, engine_ms, naive));
    }
    for &n in &[200usize, 500, 2000] {
        let instance = oblisched_instances::scaling_line(n);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let (engine, engine_ms) = time_first_fit(&|| first_fit_coloring(&view));
        let naive =
            (n <= 500).then(|| time_first_fit(&|| oblisched::first_fit_coloring_naive(&view)));
        run_row("line", (n, engine, engine_ms, naive));
    }
    table.push_note(
        "seed-pinned instances (seed 42); '-' marks sizes where the naive baseline is skipped",
    );
    table.push_note(
        "where both paths run the colorings are asserted identical (exact-equivalence guarantee)",
    );
    table.push_note("asserted: the engine is >= 10x faster than naive on the uniform n=1000 row");
    table
}

/// E10 — churn: incremental maintenance vs full reschedules.
///
/// Replays the seed-pinned churn traces of `oblisched_instances::churn`
/// through the `DynamicScheduler` (per-event incremental work on the cached
/// gain matrix) and through a full first-fit reschedule of the live set
/// after every event, for each oblivious power assignment. The final dynamic
/// state is certified against the naive evaluator (`validate_against`), so
/// the speedup column compares two *valid* maintenance strategies.
///
/// The large-tier rows (`10k`/`50k` universes) are beyond the dense matrix
/// budget: they replay on the facade-selected churn-capable sparse backend
/// (square-root assignment) and double as the acceptance measurement that a
/// full churn session at `n = 5·10⁴` completes under the 64 MiB engine
/// budget.
pub fn e10_dynamic_churn() -> Table {
    use crate::churn::{replay_full_reschedule, replay_incremental, sparse_churn_outcome};
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched_instances::{
        churn_clustered, churn_clustered_10k, churn_uniform, churn_uniform_10k, churn_uniform_50k,
    };
    use oblisched_sinr::GainMatrix;

    let p = params();
    let mut table = Table::new(
        "E10",
        "Churn: dynamic scheduler (incremental) vs full reschedule per event (bidirectional)",
        vec![
            "family",
            "assignment",
            "events",
            "final live",
            "colors (dyn)",
            "colors (full)",
            "dyn ms",
            "dyn µs/event",
            "full ms",
            "speedup",
        ],
    );
    let workloads = [
        ("uniform", churn_uniform(400, 260, 800, 42)),
        ("clustered", churn_clustered(400, 260, 800, 42)),
    ];
    for (family, (instance, trace)) in &workloads {
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(p, &power);
            let view = eval.view(Variant::Bidirectional);
            let matrix = view.cached();

            // Incremental maintenance: one insert/remove per event.
            let start = std::time::Instant::now();
            let sched = replay_incremental(&matrix, trace);
            let dyn_time = start.elapsed();
            sched
                .validate_against(&view)
                .expect("the final churn state must certify against the naive evaluator");
            sched
                .validate()
                .expect("accumulated sums must stay within drift tolerance");

            // Baseline: full first-fit reschedule of the live set per event.
            let start = std::time::Instant::now();
            let full_colors = replay_full_reschedule(&matrix, trace);
            let full_time = start.elapsed();

            let dyn_ms = dyn_time.as_secs_f64() * 1e3;
            let full_ms = full_time.as_secs_f64() * 1e3;
            let speedup = full_ms / dyn_ms.max(1e-9);
            assert!(
                speedup >= 3.0,
                "incremental maintenance must be >= 3x faster than full reschedules on \
                 {family}/{}, got {speedup:.1}x",
                power.name()
            );
            table.push_row(vec![
                family.to_string(),
                power.name(),
                trace.len().to_string(),
                sched.len().to_string(),
                sched.num_colors().to_string(),
                full_colors.to_string(),
                format!("{dyn_ms:.1}"),
                format!("{:.1}", dyn_ms * 1e3 / trace.len() as f64),
                format!("{full_ms:.1}"),
                format!("{speedup:.1}x"),
            ]);
            // Both strategies of this row replay on the cached dense matrix.
            table.push_engine(
                format!("{family}/{}", power.name()),
                EngineStats {
                    backend: EngineBackend::Dense,
                    n: instance.len(),
                    ports: 2,
                    bytes: GainMatrix::bytes_for(instance.len(), 2),
                    dense_bytes: GainMatrix::bytes_for(instance.len(), 2),
                    budget: DEFAULT_MATRIX_BUDGET,
                },
            );
        }
    }
    // Large-tier rows: the dense matrix would need 1.6 GB (n = 10⁴) /
    // 40 GB (n = 5·10⁴), so `Scheduler::session_backend` routes these to
    // the churn-capable sparse backend; `sparse_churn_outcome` certifies
    // the final state against the naive evaluator and asserts the grown
    // backend stays under the 64 MiB engine budget. The per-event full
    // reschedule baseline is hopeless at this scale and is skipped ('-').
    let large = [
        ("uniform-10k", churn_uniform_10k(42)),
        ("clustered-10k", churn_clustered_10k(42)),
        ("uniform-50k", churn_uniform_50k(42)),
    ];
    for (family, (instance, trace)) in &large {
        let out = sparse_churn_outcome(instance, trace, p);
        // The facade's actual session-backend decision for this universe.
        table.push_engine(format!("{family}/sqrt"), out.stats);
        table.push_row(vec![
            family.to_string(),
            "sqrt".to_string(),
            out.events.to_string(),
            out.final_live.to_string(),
            out.colors.to_string(),
            "-".to_string(),
            format!("{:.1}", out.dyn_ms),
            format!("{:.1}", out.dyn_ms * 1e3 / out.events.max(1) as f64),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table.push_note("seed-pinned workloads (seed 42): universe 400, target 260 live, 800 events, cached gain matrix for both strategies");
    table.push_note("the final dynamic state is validated against the naive evaluator before timing is reported");
    table.push_note("asserted: incremental maintenance is >= 3x faster than the full-reschedule baseline on every dense-tier row, at similar color counts");
    table.push_note("large-tier rows (10k/50k universes, live target n/4 capped at 8000) replay on the facade-selected sparse churn backend; '-' marks the skipped full-reschedule baseline, and the grown backend is asserted under the 64 MiB budget");
    table
}

/// E11 — backend tiers: dense vs sparse vs parallel-sparse.
///
/// The dense `GainMatrix` tops out at its 64 MiB budget around `n ≈ 2000`
/// (bidirectional: `8·2·n²` bytes); the spatially-pruned sparse backend
/// holds `n = 10⁴` in ~33 MiB. This experiment times the facade end to end
/// (backend build + scheduling) on the seed-pinned uniform scaling family:
///
/// * `dense` at `n = 2000` — the dense tier at its ceiling,
/// * `sparse` (serial first-fit) and `parallel-sparse` (tile-sharded, 1 and
///   8 threads) at `n = 10⁴`.
///
/// Every sparse-tier schedule is then validated class-by-class against the
/// naive evaluator: the "non-conservative" column counts multi-member
/// classes the exact checker rejects, and the experiment *asserts* it is
/// zero — the sparse tier's conservativeness guarantee, measured rather
/// than assumed. The two parallel runs are asserted identical (thread-count
/// determinism), each must beat the dense ceiling (best of two runs), and
/// each may use at most 1.5× the colors of serial first-fit on the same
/// sparse backend. The serial rows are timed and printed but not held to
/// a floor: with the witness asked on every first-fit path, serial
/// first-fit on the same backend runs about as fast as parallel-sparse on
/// one thread. Engine decisions (backend, bytes, budget) are recorded in
/// the table's structured `engines` list, one per row.
///
/// The dense floor holds for the `tiers` profile (shard gain slack 3.0,
/// sparse cutoff 2e-3), which nothing served runs: the facade's `Parallel`
/// strategy, the daemon and `perfbench` run slack 2.0 and cutoff 1e-3. A
/// copy of this experiment at the served profile measured parallel-1t
/// only 6–8% under dense `n = 2000`, and unmodified, it failed that dense
/// floor 3 times out of 3 on a 2-vCPU host. Whether the tier stays at all
/// is an open decision in the ROADMAP's item 3.
pub fn e11_backend_tiers() -> Table {
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched::{parallel_first_fit, tile_shards};
    use oblisched_instances::scaling_uniform_10k;
    use oblisched_sinr::{GainBackend, GainMatrix, Schedule, SparseConfig, SparseGainMatrix};

    let p = params();
    let mut table = Table::new(
        "E11",
        "Backend tiers: dense (n=2000, budget ceiling) vs sparse and parallel-sparse (n=10000), sqrt assignment, bidirectional",
        vec!["backend", "n", "colors", "wall ms", "backend MiB", "non-conservative"],
    );
    let mib = |bytes: usize| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));

    // Dense tier at its ceiling: build the full matrix and color on it —
    // n = 2000 is the largest size whose bidirectional matrix (61 MiB) still
    // fits the facade's 64 MiB budget. Best of two runs: the parallel floors
    // below read against it, and one sample on a busy host can flake.
    let inst2k = oblisched_instances::scaling_uniform(2000, 42);
    let eval2k = inst2k.evaluator(p, &ObliviousPower::SquareRoot);
    let (mut dense_ms, mut dense_colors) = (f64::INFINITY, 0);
    for _ in 0..2 {
        let start = std::time::Instant::now();
        let matrix = eval2k.view(Variant::Bidirectional).cached();
        dense_colors = first_fit_coloring(&matrix).num_colors();
        dense_ms = dense_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    table.push_row(vec![
        "dense".into(),
        "2000".into(),
        dense_colors.to_string(),
        format!("{dense_ms:.0}"),
        mib(GainMatrix::bytes_for(2000, 2)),
        "-".into(),
    ]);
    table.push_engine(
        "dense n=2000",
        EngineStats {
            backend: EngineBackend::Dense,
            n: 2000,
            ports: 2,
            bytes: GainMatrix::bytes_for(2000, 2),
            dense_bytes: GainMatrix::bytes_for(2000, 2),
            budget: DEFAULT_MATRIX_BUDGET,
        },
    );

    // Sparse tier at 5x the size: serial first-fit on the pruned backend,
    // and the tile-sharded parallel scheduler (which prefers a slightly
    // coarser cutoff and a larger shard slack).
    let inst10k = scaling_uniform_10k(42);
    let eval = inst10k.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);

    let start = std::time::Instant::now();
    let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
    let serial_schedule = first_fit_coloring(&sparse);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let serial_bytes = sparse.bytes();

    // The parallel scheduler prefers a coarser cutoff (the shared tier
    // profile also used by the `sparse` bench); time serial first-fit on
    // that same backend too, so the parallel speedup in this table is an
    // apples-to-apples comparison.
    let par_config = crate::tiers::parallel_tier_sparse_config();
    let start = std::time::Instant::now();
    let same_backend = SparseGainMatrix::build(&view, &par_config);
    let serial_same_schedule = first_fit_coloring(&same_backend);
    let serial_same_ms = start.elapsed().as_secs_f64() * 1e3;
    let serial_same_bytes = same_backend.bytes();

    let mut par_runs: Vec<(usize, Schedule, f64, usize)> = Vec::new();
    for threads in [1usize, 8] {
        let start = std::time::Instant::now();
        let backend = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                build_threads: threads,
                ..par_config
            },
        );
        let shards = tile_shards(&inst10k, oblisched::DEFAULT_TARGET_SHARDS);
        let schedule = parallel_first_fit(
            &backend,
            &shards,
            &crate::tiers::parallel_tier_config(threads),
        );
        let ms = start.elapsed().as_secs_f64() * 1e3;
        par_runs.push((threads, schedule, ms, backend.bytes()));
    }
    assert_eq!(
        par_runs[0].1, par_runs[1].1,
        "parallel schedules must not depend on the thread count"
    );

    // Conservativeness, measured: every multi-member class of every
    // sparse-tier schedule must pass the naive evaluator.
    let non_conservative = |schedule: &Schedule| -> usize {
        crate::tiers::non_conservative_classes(&eval, Variant::Bidirectional, schedule)
    };
    let sparse_stats = |bytes: usize, ports: usize| EngineStats {
        backend: EngineBackend::Sparse,
        n: 10_000,
        ports,
        bytes,
        dense_bytes: GainMatrix::bytes_for(10_000, 2),
        budget: DEFAULT_MATRIX_BUDGET,
    };
    let serial_bad = non_conservative(&serial_schedule);
    assert_eq!(serial_bad, 0, "sparse verdicts must be conservative");
    table.push_row(vec![
        "sparse".into(),
        "10000".into(),
        serial_schedule.num_colors().to_string(),
        format!("{serial_ms:.0}"),
        mib(serial_bytes),
        serial_bad.to_string(),
    ]);
    table.push_engine(
        "sparse n=10000 (default cutoff)",
        sparse_stats(serial_bytes, sparse.num_ports()),
    );
    let serial_same_bad = non_conservative(&serial_same_schedule);
    assert_eq!(serial_same_bad, 0, "sparse verdicts must be conservative");
    table.push_row(vec![
        "sparse (2e-3 cutoff)".into(),
        "10000".into(),
        serial_same_schedule.num_colors().to_string(),
        format!("{serial_same_ms:.0}"),
        mib(serial_same_bytes),
        serial_same_bad.to_string(),
    ]);
    table.push_engine(
        "sparse n=10000 (2e-3 cutoff)",
        sparse_stats(serial_same_bytes, same_backend.num_ports()),
    );
    let serial_same_colors = serial_same_schedule.num_colors();
    for (threads, schedule, ms, bytes) in &par_runs {
        let bad = non_conservative(schedule);
        assert_eq!(bad, 0, "parallel-sparse verdicts must be conservative");
        // The tier's floor and its price: at 5x the size, parallel-sparse
        // beats the dense ceiling at 1 and 8 threads, and its colors stay
        // within 1.5x of serial first-fit on the same backend.
        assert!(
            *ms < dense_ms,
            "parallel-sparse at {threads}t ({ms:.0} ms) must beat dense n=2000 ({dense_ms:.0} ms)"
        );
        let colors = schedule.num_colors();
        assert!(
            2 * colors <= 3 * serial_same_colors,
            "parallel-sparse at {threads}t uses {colors} colors, more than 1.5x the \
             {serial_same_colors} of serial sparse on the same backend"
        );
        table.push_row(vec![
            format!("parallel-sparse ({threads}t)"),
            "10000".into(),
            schedule.num_colors().to_string(),
            format!("{ms:.0}"),
            mib(*bytes),
            bad.to_string(),
        ]);
        table.push_engine(
            format!("parallel-sparse n=10000 ({threads}t)"),
            sparse_stats(*bytes, same_backend.num_ports()),
        );
    }

    // The facade makes the same tier choice automatically; record its real
    // decision (not a synthesized one) without timing it.
    let scheduler = Scheduler::new(p);
    let auto2k = solve(
        &scheduler,
        &inst2k,
        &SolveRequest::first_fit(ObliviousPower::SquareRoot.into()),
    );
    table.push_engine("facade auto n=2000", auto2k.engine);
    table.push_note(format!(
        "facade auto n=10000 would pick sparse: dense needs {} vs budget {} bytes",
        GainMatrix::bytes_for(10_000, 2),
        DEFAULT_MATRIX_BUDGET
    ));
    table.push_note("seed-pinned uniform scaling family (seed 42); wall time is backend build + scheduling (validation excluded, reported in the last column); dense is the best of two runs");
    table.push_note("non-conservative = multi-member classes the naive evaluator rejects (asserted zero: sparse verdicts are conservative)");
    table.push_note("parallel rows: tile-sharded scheduling (64 shards, shard gain slack 3.0, sparse cutoff 2e-3, folded ports); 1t vs 8t schedules asserted identical; this is the tiers profile, not the served one (the facade, the daemon and perfbench run slack 2.0, cutoff 1e-3)");
    table.push_note("asserted: parallel-sparse (1t and 8t) is faster than dense n=2000 and uses at most 1.5x the colors of the same-backend serial row (sparse 2e-3); the serial rows are timed, not asserted: serial first-fit on the same backend runs about as fast as parallel-sparse at 1t, and extra threads pay off only on multi-core hardware");
    table
}

/// Validates a schedule against an instance/power pair — used by the harness
/// to double-check each experiment's artefacts before reporting.
pub fn check_schedule<M: MetricSpace>(
    instance: &Instance<M>,
    schedule: &Schedule,
    power: ObliviousPower,
    variant: Variant,
) -> bool {
    let eval = instance.evaluator(params(), &power);
    schedule.validate(&eval, variant).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_parse() {
        assert_eq!(Experiment::parse("e1"), Some(Experiment::E1));
        assert_eq!(Experiment::parse("E8"), Some(Experiment::E8));
        assert_eq!(Experiment::parse("e9"), Some(Experiment::E9));
        assert_eq!(Experiment::parse("e10"), Some(Experiment::E10));
        assert_eq!(Experiment::parse("e11"), Some(Experiment::E11));
        assert_eq!(Experiment::parse("e12"), None);
        assert_eq!(all_experiments().len(), 11);
    }

    #[test]
    fn nested_chain_experiment_has_expected_shape() {
        let table = e2_nested_chain();
        assert_eq!(table.id, "E2");
        assert_eq!(table.rows.len(), 5);
        // Uniform needs n colors, sqrt stays small: check the last row.
        let last = table.rows.last().unwrap();
        let n: usize = last[0].parse().unwrap();
        let uniform: usize = last[1].parse().unwrap();
        let sqrt: usize = last[3].parse().unwrap();
        assert_eq!(uniform, n);
        assert!(sqrt <= 8);
    }

    #[test]
    fn gain_rescaling_experiment_respects_bounds() {
        let table = e5_gain_rescaling();
        for row in &table.rows {
            let fraction: f64 = row[2].parse().unwrap();
            let bound: f64 = row[3].parse().unwrap();
            assert!(
                fraction + 1e-9 >= bound,
                "kept fraction {fraction} below bound {bound}"
            );
        }
    }

    #[test]
    fn star_experiment_reports_fractions_in_range() {
        let table = e6_star_fraction();
        for row in &table.rows {
            let fraction: f64 = row[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&fraction));
        }
    }

    #[test]
    fn scaling_experiment_reports_identical_colors_and_speedups() {
        // Keep this test cheap: run the real experiment shape on a small
        // instance rather than the full E9 sizes.
        let p = params();
        let instance = oblisched_instances::scaling_uniform(120, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let engine = first_fit_coloring(&view);
        let naive = oblisched::first_fit_coloring_naive(&view);
        assert_eq!(engine, naive);
    }

    #[test]
    fn churn_experiment_shape_on_a_small_workload() {
        // Keep this test cheap: run the real E10 event loop on a small
        // seed-pinned workload rather than the full experiment sizes.
        use crate::churn::{replay_full_reschedule, replay_incremental};
        use oblisched_instances::churn_uniform;
        let p = params();
        let (instance, trace) = churn_uniform(60, 36, 150, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let matrix = view.cached();
        let sched = replay_incremental(&matrix, &trace);
        sched.validate_against(&view).unwrap();
        sched.validate().unwrap();
        assert_eq!(sched.len(), trace.final_live().len());
        // Both strategies schedule the same live set; their color counts are
        // in the same ballpark (both are first-fit variants).
        let full_colors = replay_full_reschedule(&matrix, &trace);
        assert!(full_colors >= 1);
    }

    #[test]
    fn check_schedule_helper_detects_feasibility() {
        let instance = nested_chain(6, 2.0);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        let good = first_fit_coloring(&eval.view(Variant::Bidirectional));
        assert!(check_schedule(
            &instance,
            &good,
            ObliviousPower::SquareRoot,
            Variant::Bidirectional
        ));
        let bad = Schedule::new(vec![0; 6]);
        assert!(!check_schedule(
            &instance,
            &bad,
            ObliviousPower::Uniform,
            Variant::Bidirectional
        ));
    }
}
