//! Property-based tests for the SINR substrate.

use oblisched_metric::{EuclideanSpace, MetricSpace, Point2};
use oblisched_sinr::nodeloss::split_pairs;
use oblisched_sinr::power::PowerScheme;
use oblisched_sinr::{
    extract_feasible_subset, partition_by_gain, rescale_coloring, ColorAccumulator, GainMatrix,
    Instance, InterferenceSystem, ObliviousPower, Request, Schedule, SinrParams, SparseConfig,
    SparseGainMatrix, Variant,
};
use proptest::prelude::*;

/// Generates a random instance: `n` requests with endpoints in a square of
/// side `side`, each link of length between 0.5 and `max_len`.
fn arb_instance(
    max_requests: usize,
    side: f64,
    max_len: f64,
) -> impl Strategy<Value = Instance<EuclideanSpace<2>>> {
    prop::collection::vec(
        (
            0.0..side,
            0.0..side,
            0.5..max_len,
            0.0..std::f64::consts::TAU,
        ),
        1..max_requests,
    )
    .prop_map(|links| {
        let mut points = Vec::new();
        let mut requests = Vec::new();
        for (x, y, len, angle) in links {
            let a = Point2::xy(x, y);
            let b = Point2::xy(x + len * angle.cos(), y + len * angle.sin());
            let ia = points.len();
            points.push(a);
            points.push(b);
            requests.push(Request::new(ia, ia + 1));
        }
        Instance::new(EuclideanSpace::from_points(points), requests).unwrap()
    })
}

fn arb_params() -> impl Strategy<Value = SinrParams> {
    (1.5f64..5.0, 0.25f64..2.0).prop_map(|(alpha, beta)| SinrParams::new(alpha, beta).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn singleton_sets_are_always_feasible_without_noise(
        instance in arb_instance(8, 100.0, 5.0),
        params in arb_params(),
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        for i in 0..instance.len() {
            prop_assert!(eval.is_feasible(Variant::Directed, &[i]));
            prop_assert!(eval.is_feasible(Variant::Bidirectional, &[i]));
        }
    }

    #[test]
    fn bidirectional_interference_dominates_directed(
        instance in arb_instance(8, 100.0, 5.0),
        params in arb_params(),
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::Uniform);
        let all: Vec<usize> = (0..instance.len()).collect();
        for i in 0..instance.len() {
            let directed = eval.interference(Variant::Directed, i, &all);
            let bidirectional = eval.interference(Variant::Bidirectional, i, &all);
            prop_assert!(bidirectional >= directed - 1e-12);
        }
    }

    #[test]
    fn sinr_decreases_when_adding_interferers(
        instance in arb_instance(8, 100.0, 5.0),
        params in arb_params(),
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::Linear);
        let n = instance.len();
        if n >= 3 {
            let small: Vec<usize> = (0..n - 1).collect();
            let all: Vec<usize> = (0..n).collect();
            for i in 0..n - 1 {
                prop_assert!(
                    eval.sinr(Variant::Directed, i, &all)
                        <= eval.sinr(Variant::Directed, i, &small) + 1e-9
                );
            }
        }
    }

    #[test]
    fn scaling_all_powers_preserves_feasibility_without_noise(
        instance in arb_instance(7, 80.0, 4.0),
        params in arb_params(),
        factor in 0.1f64..10.0,
    ) {
        // §1.1: with ν = 0, multiplying all power levels by the same positive
        // factor leaves every SINR unchanged.
        let base = ObliviousPower::SquareRoot.powers(&instance, &params);
        let scaled: Vec<f64> = base.iter().map(|p| p * factor).collect();
        let eval_base =
            oblisched_sinr::Evaluator::with_powers(&instance, params, base).unwrap();
        let eval_scaled =
            oblisched_sinr::Evaluator::with_powers(&instance, params, scaled).unwrap();
        let all: Vec<usize> = (0..instance.len()).collect();
        for i in 0..instance.len() {
            let a = eval_base.sinr(Variant::Bidirectional, i, &all);
            let b = eval_scaled.sinr(Variant::Bidirectional, i, &all);
            if a.is_finite() {
                prop_assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
            } else {
                prop_assert!(b.is_infinite());
            }
        }
    }

    #[test]
    fn sequential_schedule_always_validates(
        instance in arb_instance(8, 50.0, 5.0),
        params in arb_params(),
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::Uniform);
        let schedule = Schedule::sequential(instance.len());
        prop_assert!(schedule.validate(&eval, Variant::Directed).is_ok());
        prop_assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
    }

    #[test]
    fn extracted_subsets_are_feasible_at_the_stricter_gain(
        instance in arb_instance(8, 60.0, 5.0),
        params in arb_params(),
        gamma_prime in 1.0f64..8.0,
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..instance.len()).collect();
        let subset = extract_feasible_subset(&view, &all, gamma_prime);
        prop_assert!(view.is_feasible_with_gain(&subset, gamma_prime));
        prop_assert!(subset.len() <= all.len());
    }

    #[test]
    fn partition_groups_cover_everything_exactly_once(
        instance in arb_instance(8, 60.0, 5.0),
        params in arb_params(),
        gamma_prime in 1.0f64..8.0,
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..instance.len()).collect();
        let groups = partition_by_gain(&view, &all, gamma_prime);
        let mut covered: Vec<usize> = groups.iter().flatten().copied().collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, all);
    }

    #[test]
    fn rescaled_colorings_validate_at_the_stricter_gain(
        instance in arb_instance(6, 60.0, 4.0),
        params in arb_params(),
    ) {
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let base = Schedule::new(vec![0; instance.len()]);
        let gamma_prime = params.beta() * 2.0;
        let rescaled = rescale_coloring(&view, &base, gamma_prime);
        for class in rescaled.classes() {
            prop_assert!(view.is_feasible_with_gain(&class, gamma_prime));
        }
    }

    #[test]
    fn split_pairs_preserves_losses_and_positions(
        instance in arb_instance(8, 60.0, 5.0),
        params in arb_params(),
    ) {
        let (node_loss, map) = split_pairs(&instance, &params);
        prop_assert_eq!(node_loss.len(), 2 * instance.len());
        for i in 0..instance.len() {
            let (a, b) = map.nodes_of_request(i);
            let loss = instance.link_loss(i, &params);
            prop_assert!((node_loss.loss(a) - loss).abs() < 1e-9 * loss.max(1.0));
            prop_assert!((node_loss.loss(b) - loss).abs() < 1e-9 * loss.max(1.0));
            // The two endpoints of a pair are at the pair's link distance.
            let d = node_loss.metric().distance(a, b);
            prop_assert!((d - instance.link_distance(i)).abs() < 1e-9 * d.max(1.0));
        }
    }

    #[test]
    fn schedule_color_classes_partition_requests(colors in prop::collection::vec(0usize..6, 0..32)) {
        let schedule = Schedule::new(colors.clone());
        let classes = schedule.classes();
        let total: usize = classes.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, colors.len());
        prop_assert!(schedule.num_colors() <= 6);
        for (c, class) in classes.iter().enumerate() {
            for &i in class {
                prop_assert_eq!(schedule.color_of(i), c);
            }
        }
    }

    #[test]
    fn gain_matrix_agrees_with_naive_evaluator_on_all_assignments(
        instance in arb_instance(10, 80.0, 6.0),
        params in arb_params(),
        subset_mask in 0usize..1024,
    ) {
        // Tentpole guarantee: the cached engine returns *identical*
        // `sinr`/`is_feasible` verdicts to the naive evaluator, for every
        // oblivious assignment and both problem variants.
        let n = instance.len();
        let set: Vec<usize> = (0..n).filter(|&i| subset_mask >> i & 1 == 1).collect();
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let matrix = GainMatrix::build(&view);
                for &i in &set {
                    let naive = view.sinr(i, &set);
                    let cached = matrix.sinr(i, &set);
                    prop_assert!(
                        naive == cached || (naive.is_infinite() && cached.is_infinite()),
                        "sinr({i}) diverged under {} / {variant}: naive {naive}, cached {cached}",
                        power.name()
                    );
                }
                prop_assert_eq!(matrix.is_feasible(&set), view.is_feasible(&set));
                prop_assert_eq!(
                    matrix.max_feasible_gain(&set),
                    view.max_feasible_gain(&set)
                );
            }
        }
    }

    #[test]
    fn color_accumulator_matches_naive_greedy_verdicts(
        instance in arb_instance(10, 80.0, 6.0),
        params in arb_params(),
        gain in 0.25f64..4.0,
    ) {
        // The accumulator's try-insert answers must equal the naive
        // push / is_feasible / pop protocol, item for item, for every
        // assignment and variant — this is what makes the migrated greedy
        // algorithms drift-free.
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let mut acc = ColorAccumulator::new(&view);
                let mut naive: Vec<usize> = Vec::new();
                for i in 0..instance.len() {
                    naive.push(i);
                    let ok = view.is_feasible_with_gain(&naive, gain);
                    if !ok {
                        naive.pop();
                    }
                    let engine_ok = acc.try_insert_with_gain(i, gain);
                    prop_assert!(
                        engine_ok == ok,
                        "verdict for item {} under {} / {} diverged",
                        i,
                        power.name(),
                        variant
                    );
                }
                prop_assert_eq!(acc.members(), naive.as_slice());
                for (pos, &i) in acc.members().iter().enumerate() {
                    let fresh = view.sinr(i, &naive);
                    let held = acc.sinr_of(pos);
                    prop_assert!(
                        fresh == held || (fresh.is_infinite() && held.is_infinite()),
                        "accumulated sinr of {i} drifted: {held} vs {fresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulator_over_cached_matrix_matches_naive_too(
        instance in arb_instance(9, 70.0, 5.0),
        params in arb_params(),
    ) {
        // Compose the two engine layers (matrix + accumulator) and compare
        // against the naive path at the model gain.
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let matrix = GainMatrix::build(&view);
                let mut acc = ColorAccumulator::new(&matrix);
                let mut naive: Vec<usize> = Vec::new();
                for i in 0..instance.len() {
                    naive.push(i);
                    let ok = view.is_feasible(&naive);
                    if !ok {
                        naive.pop();
                    }
                    prop_assert_eq!(acc.try_insert(i), ok);
                }
                prop_assert_eq!(acc.members(), naive.as_slice());
            }
        }
    }

    #[test]
    fn accumulator_removal_matches_scratch_rebuild(
        instance in arb_instance(10, 80.0, 6.0),
        params in arb_params(),
        ops in prop::collection::vec((any::<bool>(), any::<bool>(), any::<usize>()), 1..40),
    ) {
        // After ANY interleaving of inserts and removes the accumulator's
        // interference sums must stay within tolerance of an accumulator
        // rebuilt from scratch on the surviving members, and feasibility
        // verdicts must agree — for all three oblivious assignments and both
        // variants. Two drift-guard extremes are exercised side by side: an
        // interval-1 accumulator (rebuilds after every removal, bit-for-bit
        // fresh) and a never-rebuilding one (worst-case accumulated drift).
        // Checked inserts go through the interval-1 accumulator, so the
        // member that rejects them is remembered and then shifted or
        // forgotten by later removals.
        let n = instance.len();
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let mut drifted =
                    ColorAccumulator::new(&view).with_rebuild_interval(usize::MAX);
                let mut exact = ColorAccumulator::new(&view).with_rebuild_interval(1);
                let mut shadow: Vec<usize> = Vec::new();
                for &(is_insert, checked, sel) in &ops {
                    if is_insert {
                        let i = sel % n;
                        let joins = !shadow.contains(&i)
                            && if checked {
                                exact.try_insert(i)
                            } else {
                                // Unchecked insertion also covers infeasible
                                // sets.
                                exact.insert_unchecked(i);
                                true
                            };
                        if joins {
                            drifted.insert_unchecked(i);
                            shadow.push(i);
                        }
                    } else if !shadow.is_empty() {
                        let i = shadow.remove(sel % shadow.len());
                        prop_assert!(drifted.remove(i));
                        prop_assert!(exact.remove(i));
                    }
                    prop_assert_eq!(drifted.members(), shadow.as_slice());
                    prop_assert_eq!(exact.members(), shadow.as_slice());
                    let fresh = ColorAccumulator::with_members(&view, &shadow);
                    // The sums are bit-identical and the fresh accumulator
                    // has no witness, so the verdicts must agree.
                    for i in (0..n).filter(|i| !shadow.contains(i)) {
                        prop_assert!(
                            exact.clone().try_insert(i) == fresh.clone().try_insert(i),
                            "verdict for {} diverged from a fresh accumulator under {} / {}",
                            i, power.name(), variant
                        );
                    }
                    for pos in 0..shadow.len() {
                        // Interval 1: every removal rebuilds, so the sums are
                        // bit-for-bit the fresh left-to-right fold.
                        prop_assert_eq!(
                            exact.interference_of(pos).to_bits(),
                            fresh.interference_of(pos).to_bits()
                        );
                        // Never rebuilding: within tolerance of fresh.
                        let d = drifted.interference_of(pos);
                        let f = fresh.interference_of(pos);
                        if d.is_finite() && f.is_finite() {
                            let scale = d.abs().max(f.abs()).max(1.0);
                            prop_assert!(
                                (d - f).abs() <= 1e-6 * scale,
                                "sums drifted beyond tolerance: {} vs fresh {}", d, f
                            );
                        } else {
                            prop_assert!(
                                d.to_bits() == f.to_bits(),
                                "non-finite sums diverged: {} vs fresh {}", d, f
                            );
                        }
                    }
                }
                // Feasibility verdicts on further arrivals agree with an
                // accumulator rebuilt from scratch on the survivors.
                for i in 0..n {
                    if shadow.contains(&i) {
                        continue;
                    }
                    let mut fresh = ColorAccumulator::with_members(&view, &shadow);
                    let mut replay = drifted.clone();
                    prop_assert!(
                        replay.try_insert(i) == fresh.try_insert(i),
                        "post-churn verdict for {} diverged under {} / {}",
                        i, power.name(), variant
                    );
                }
            }
        }
    }

    #[test]
    fn oblivious_power_is_monotone_in_loss(
        tau in 0.0f64..2.0,
        l1 in 0.001f64..1.0e6,
        l2 in 0.001f64..1.0e6,
    ) {
        let scheme = ObliviousPower::Exponent(tau);
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(scheme.power(lo) <= scheme.power(hi) + 1e-12);
    }

    /// The sparse tier's load-bearing guarantee: whatever the pruned
    /// backend accepts — one-shot feasibility verdicts as well as whole
    /// first-fit color classes built through the accumulator — the naive
    /// evaluator accepts too, for every standard assignment, both variants
    /// and random cutoffs.
    #[test]
    fn sparse_verdicts_are_conservative_wrt_naive(
        instance in arb_instance(10, 60.0, 5.0),
        params in arb_params(),
        cutoff in 0.0f64..0.3,
    ) {
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let config = SparseConfig {
                    cutoff_fraction: cutoff,
                    ..SparseConfig::default()
                };
                let sparse = SparseGainMatrix::build(&view, &config);
                // First-fit through the accumulator: every emitted
                // multi-member class must be feasible for the naive path.
                let mut classes: Vec<ColorAccumulator<'_, SparseGainMatrix>> = Vec::new();
                for i in 0..instance.len() {
                    let placed = classes.iter_mut().any(|class| class.try_insert(i));
                    if !placed {
                        let mut class = ColorAccumulator::new(&sparse);
                        class.insert_unchecked(i);
                        classes.push(class);
                    }
                }
                for class in &classes {
                    if class.len() >= 2 {
                        prop_assert!(
                            view.is_feasible(class.members()),
                            "sparse-accepted class {:?} rejected by naive ({} / {variant}, \
                             cutoff {cutoff})",
                            class.members(), power.name()
                        );
                    }
                }
                // One-shot verdicts on prefix sets.
                let all: Vec<usize> = (0..instance.len()).collect();
                for k in 1..=all.len() {
                    if sparse.is_feasible(&all[..k]) {
                        prop_assert!(
                            view.is_feasible(&all[..k]),
                            "sparse accepted {:?} but naive rejects ({} / {variant})",
                            &all[..k], power.name()
                        );
                    }
                }
            }
        }
    }
}
