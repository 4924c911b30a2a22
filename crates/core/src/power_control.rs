//! Non-oblivious power control: the "optimal assignment" side of Theorem 1.
//!
//! Theorem 1 contrasts oblivious assignments with schedules that may pick an
//! arbitrary power per request. The classical way to find such powers for a
//! fixed set of simultaneous requests is the Foschini–Miljanic style fixed
//! point iteration: each request repeatedly raises its power to exactly meet
//! its SINR constraint against the current interference. Without noise the
//! iteration (with a small additive floor) converges whenever *some* feasible
//! power vector exists; the result is then verified against the exact SINR
//! checker, so a returned vector is always genuinely feasible.

use oblisched_metric::MetricSpace;
use oblisched_sinr::{Evaluator, Instance, Schedule, SinrParams, Variant};

/// Configuration of the power-control iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerControlConfig {
    /// Maximum number of fixed-point iterations per set.
    pub max_iterations: usize,
    /// Relative slack applied on top of the SINR requirement so the verified
    /// result is strictly feasible despite rounding.
    pub slack: f64,
    /// Abort threshold: if any power exceeds this value the set is declared
    /// infeasible (the iteration is diverging).
    pub power_ceiling: f64,
}

impl Default for PowerControlConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            slack: 1.05,
            power_ceiling: 1e200,
        }
    }
}

/// Tries to find per-request powers under which the whole `set` is
/// simultaneously feasible in the given variant.
///
/// Returns `Some(powers)` (indexed by request id, with untouched requests
/// keeping power 1) if the fixed-point iteration converges to a vector that
/// the exact checker accepts, and `None` otherwise. The procedure is complete
/// in the directed noise-free case (up to the iteration budget) because the
/// SINR constraints there form a monotone linear system; for the
/// bidirectional case it is a sound but possibly conservative heuristic.
pub fn feasible_powers<M: MetricSpace>(
    instance: &Instance<M>,
    params: &SinrParams,
    variant: Variant,
    set: &[usize],
    config: PowerControlConfig,
) -> Option<Vec<f64>> {
    if set.is_empty() {
        return Some(vec![1.0; instance.len()]);
    }
    let beta = params.beta();
    let m = set.len();

    // The geometry of the set is fixed across iterations, so the effective
    // path losses (the expensive distance + `powf` part of every
    // interference term) are cached once, taken from the engine's
    // [`VariantView::effective_loss`] — the single source of truth for the
    // per-variant convention. Each iteration then recomputes the very same
    // `p / loss` terms the naive evaluator folds, so the per-iteration
    // arithmetic is unchanged.
    let geometry = instance.evaluator(*params, &oblisched_sinr::ObliviousPower::Uniform);
    let view = geometry.view(variant);
    let ports = oblisched_sinr::GainBackend::num_ports(&view);
    let link_losses: Vec<f64> = set.iter().map(|&i| geometry.loss(i)).collect();
    // Flat row-major: entry ((a * ports) + port) * m + b is the effective
    // loss of member b's signal at port `port` of member a.
    let mut pair_loss = vec![f64::INFINITY; m * ports * m];
    for (a, &i) in set.iter().enumerate() {
        for port in 0..ports {
            let row = (a * ports + port) * m;
            for (b, &j) in set.iter().enumerate() {
                if j == i {
                    continue;
                }
                pair_loss[row + b] = view.effective_loss(i, port, j);
            }
        }
    }
    // Interference at member `a` under the current (set-local) powers,
    // folding the members in set order exactly as the naive evaluator does.
    let interference_of = |a: usize, local: &[f64]| -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for port in 0..ports {
            let row = (a * ports + port) * m;
            let mut sum = 0.0;
            for b in 0..m {
                if set[b] == set[a] {
                    continue;
                }
                sum += params.received_strength(local[b], pair_loss[row + b]);
            }
            worst = worst.max(sum);
        }
        worst
    };

    let mut local = vec![1.0f64; m];
    for _ in 0..config.max_iterations {
        // One synchronous update: every request raises (or lowers) its power
        // to `slack · β · ℓ_i · (interference + noise)`, with a floor of 1.
        let mut next = local.clone();
        for a in 0..m {
            let interference = interference_of(a, &local) + params.noise();
            let required = config.slack * beta * link_losses[a] * interference;
            next[a] = required.max(1.0);
            if !next[a].is_finite() || next[a] > config.power_ceiling {
                return None;
            }
        }
        let converged = (0..m).all(|a| {
            let rel = (next[a] - local[a]).abs() / local[a].max(1.0);
            rel < 1e-9
        });
        local = next;
        if converged {
            break;
        }
    }
    let mut powers = vec![1.0; instance.len()];
    for (a, &i) in set.iter().enumerate() {
        powers[i] = local[a];
    }
    let eval = Evaluator::with_powers(instance, *params, powers.clone()).ok()?;
    if eval.is_feasible(variant, set) {
        Some(powers)
    } else {
        None
    }
}

/// First-fit coloring where the feasibility test for a color class is "does
/// *some* power assignment make the class feasible?" — i.e. greedy scheduling
/// with per-class optimal power control. This is the non-oblivious baseline
/// against which Theorem 1 measures oblivious assignments.
///
/// Returns the schedule together with one power per request (requests in
/// different classes never transmit together, so stitching the per-class
/// vectors together is sound). The returned schedule is verified feasible
/// under the returned powers.
pub fn greedy_with_power_control<M: MetricSpace>(
    instance: &Instance<M>,
    params: &SinrParams,
    variant: Variant,
    config: PowerControlConfig,
) -> (Schedule, Vec<f64>) {
    let n = instance.len();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut class_powers: Vec<Vec<f64>> = Vec::new();
    let mut colors = vec![usize::MAX; n];
    for (i, color) in colors.iter_mut().enumerate() {
        let mut placed = false;
        for (c, class) in classes.iter_mut().enumerate() {
            class.push(i);
            if let Some(powers) = feasible_powers(instance, params, variant, class, config) {
                class_powers[c] = powers;
                *color = c;
                placed = true;
                break;
            }
            class.pop();
        }
        if !placed {
            let class = vec![i];
            let powers = feasible_powers(instance, params, variant, &class, config)
                .expect("singletons are feasible under some power without noise");
            *color = classes.len();
            classes.push(class);
            class_powers.push(powers);
        }
    }
    // Stitch per-class powers into one vector.
    let mut powers = vec![1.0; n];
    for (class, cp) in classes.iter().zip(class_powers.iter()) {
        for &i in class {
            powers[i] = cp[i];
        }
    }
    (Schedule::new(colors), powers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::{adversarial_for, evenly_spaced_line, nested_chain};
    use oblisched_sinr::ObliviousPower;
    use rand::SeedableRng;

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    #[test]
    fn empty_and_singleton_sets_are_feasible() {
        let inst = evenly_spaced_line(3, 1.0, 5.0);
        let p = params();
        assert!(feasible_powers(&inst, &p, Variant::Directed, &[], Default::default()).is_some());
        let powers =
            feasible_powers(&inst, &p, Variant::Directed, &[1], Default::default()).unwrap();
        assert_eq!(powers.len(), 3);
        assert!(powers.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn power_control_fixes_the_nested_chain_in_the_directed_variant() {
        // Under uniform power no two nested requests coexist; with free power
        // control a well-spread subset does (directed variant).
        let inst = nested_chain(8, 2.0);
        let p = params();
        let spaced: Vec<usize> = (0..8).step_by(3).collect();
        let powers =
            feasible_powers(&inst, &p, Variant::Directed, &spaced, Default::default()).unwrap();
        let eval = Evaluator::with_powers(&inst, p, powers).unwrap();
        assert!(eval.is_feasible(Variant::Directed, &spaced));
        // The uniform assignment cannot do this.
        let uniform = inst.evaluator(p, &ObliviousPower::Uniform);
        assert!(!uniform.is_feasible(Variant::Directed, &spaced));
    }

    #[test]
    fn infeasible_sets_are_reported_as_none() {
        // Two requests sharing a receiver position cannot both be satisfied in
        // the bidirectional variant regardless of power: the closer sender
        // always drowns the other pair (distance ~0 from the shared point).
        let metric = oblisched_metric::LineMetric::new(vec![0.0, 10.0, 10.001, 20.0]);
        let inst = oblisched_sinr::Instance::new(
            metric,
            vec![
                oblisched_sinr::Request::new(0, 1),
                oblisched_sinr::Request::new(2, 3),
            ],
        )
        .unwrap();
        let p = params();
        assert!(feasible_powers(
            &inst,
            &p,
            Variant::Bidirectional,
            &[0, 1],
            Default::default()
        )
        .is_none());
    }

    #[test]
    fn greedy_with_power_control_is_feasible_and_compact() {
        let inst = nested_chain(9, 2.0);
        let p = params();
        let (schedule, powers) =
            greedy_with_power_control(&inst, &p, Variant::Directed, Default::default());
        assert_eq!(schedule.len(), 9);
        let eval = Evaluator::with_powers(&inst, p, powers).unwrap();
        assert!(schedule.validate(&eval, Variant::Directed).is_ok());
        // Non-oblivious power control packs the nested chain into few colors.
        assert!(
            schedule.num_colors() <= 5,
            "power control should need O(1) colors, used {}",
            schedule.num_colors()
        );
    }

    #[test]
    fn theorem1_gap_on_the_adversarial_instance() {
        // The headline of Theorem 1: on the adversarial family the oblivious
        // assignment needs ~n colors, power control O(1).
        let p = params();
        let adv = adversarial_for(&ObliviousPower::Linear, &p, 8);
        let inst = adv.instance();

        let linear = inst.evaluator(p, &ObliviousPower::Linear);
        let oblivious_colors =
            crate::greedy::first_fit_coloring(&linear.view(Variant::Directed)).num_colors();

        let (schedule, powers) =
            greedy_with_power_control(inst, &p, Variant::Directed, Default::default());
        let eval = Evaluator::with_powers(inst, p, powers).unwrap();
        assert!(schedule.validate(&eval, Variant::Directed).is_ok());

        assert_eq!(
            oblivious_colors, 8,
            "every pair conflicts under the target assignment"
        );
        assert!(
            schedule.num_colors() <= 4,
            "power control should need O(1) colors, used {}",
            schedule.num_colors()
        );
    }

    /// The pre-engine implementation of the fixed point, kept verbatim as a
    /// reference: rebuilds an [`Evaluator`] every iteration instead of
    /// caching the loss geometry. `feasible_powers` must agree with it
    /// exactly — this pins the cached `effective_loss` table to the
    /// evaluator's interference convention.
    fn reference_feasible_powers<M: MetricSpace>(
        instance: &Instance<M>,
        params: &SinrParams,
        variant: Variant,
        set: &[usize],
        config: PowerControlConfig,
    ) -> Option<Vec<f64>> {
        if set.is_empty() {
            return Some(vec![1.0; instance.len()]);
        }
        let mut powers = vec![1.0; instance.len()];
        let beta = params.beta();
        for _ in 0..config.max_iterations {
            let eval = Evaluator::with_powers(instance, *params, powers.clone()).unwrap();
            let mut next = powers.clone();
            for &i in set {
                let interference = eval.interference(variant, i, set) + params.noise();
                let loss = instance.link_loss(i, params);
                let required = config.slack * beta * loss * interference;
                next[i] = required.max(1.0);
                if !next[i].is_finite() || next[i] > config.power_ceiling {
                    return None;
                }
            }
            let converged = set.iter().all(|&i| {
                let rel = (next[i] - powers[i]).abs() / powers[i].max(1.0);
                rel < 1e-9
            });
            powers = next;
            if converged {
                break;
            }
        }
        let eval = Evaluator::with_powers(instance, *params, powers.clone()).ok()?;
        if eval.is_feasible(variant, set) {
            Some(powers)
        } else {
            None
        }
    }

    #[test]
    fn cached_geometry_matches_the_reference_fixed_point_exactly() {
        let p = params();
        let chain = nested_chain(8, 2.0);
        let mut rng_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![3],
            (0..8).step_by(2).collect(),
            (0..8).collect(),
            vec![7, 2, 5, 0],
        ];
        // A Euclidean instance too, so both metric kinds are covered.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let planar = oblisched_instances::uniform_deployment(
            oblisched_instances::DeploymentConfig {
                num_requests: 8,
                side: 150.0,
                min_link: 1.0,
                max_link: 10.0,
            },
            &mut rng,
        );
        rng_sets.push(vec![1, 4, 6]);
        for variant in Variant::all() {
            for set in &rng_sets {
                assert_eq!(
                    feasible_powers(&chain, &p, variant, set, Default::default()),
                    reference_feasible_powers(&chain, &p, variant, set, Default::default()),
                    "chain set {set:?} under {variant}"
                );
                if set.iter().all(|&i| i < planar.len()) {
                    assert_eq!(
                        feasible_powers(&planar, &p, variant, set, Default::default()),
                        reference_feasible_powers(&planar, &p, variant, set, Default::default()),
                        "planar set {set:?} under {variant}"
                    );
                }
            }
        }
    }

    #[test]
    fn returned_powers_cover_all_requests() {
        let inst = evenly_spaced_line(5, 1.0, 50.0);
        let p = params();
        let (schedule, powers) =
            greedy_with_power_control(&inst, &p, Variant::Bidirectional, Default::default());
        assert_eq!(schedule.num_colors(), 1);
        assert_eq!(powers.len(), 5);
        assert!(powers.iter().all(|&x| x.is_finite() && x > 0.0));
    }
}
