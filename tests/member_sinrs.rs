//! The class pass behind the exact check: `InterferenceSystem::member_sinrs`
//! on a bidirectional `VariantView` computes the SINR of every member of a
//! set in one pass over the set's unordered pairs, sharing each endpoint
//! pair's loss between the pair's two directed contributions. Every solve's
//! `Schedule::validate_against` and every certified session's
//! `DynamicScheduler::validate_against` read their SINRs from it, so it must
//! return the per-member `sinr(i, set)` loop's bits for every set: every
//! family and assignment in both variants, the line and star metrics, a
//! distance matrix that is symmetric only up to its tolerance, sets that
//! repeat an item, coinciding endpoints, and empty and singleton sets.

use oblisched::greedy::first_fit_coloring;
use oblisched_instances::{build_family, Family, FamilyInstance};
use oblisched_metric::{DistanceMatrix, LineMetric, MetricSpace, StarMetric};
use oblisched_sinr::feasibility::REL_TOL;
use oblisched_sinr::{
    Evaluator, Instance, InterferenceSystem, ObliviousPower, Request, Schedule, SinrError,
    SinrParams, Variant,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ASSIGNMENTS: [ObliviousPower; 4] = [
    ObliviousPower::Uniform,
    ObliviousPower::Linear,
    ObliviousPower::SquareRoot,
    ObliviousPower::Exponent(0.75),
];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `member_sinrs` returns the per-member loop's bits on `set`
/// in both variants, and returns the bidirectional pass.
fn assert_class_pass<M: MetricSpace>(eval: &Evaluator<'_, M>, set: &[usize]) -> Vec<f64> {
    let mut bidirectional = Vec::new();
    for variant in Variant::all() {
        let pass = eval.view(variant).member_sinrs(set);
        let naive: Vec<f64> = set.iter().map(|&i| eval.sinr(variant, i, set)).collect();
        assert_eq!(
            bits(&pass),
            bits(&naive),
            "{variant} set {set:?}: class pass {pass:?}, per-member loop {naive:?}"
        );
        if variant == Variant::Bidirectional {
            bidirectional = pass;
        }
    }
    bidirectional
}

/// The first (color, request) the per-member loop finds below the gain.
fn first_violation<M: MetricSpace>(
    eval: &Evaluator<'_, M>,
    variant: Variant,
    schedule: &Schedule,
) -> Option<(usize, usize)> {
    let threshold = eval.params().beta() * (1.0 - REL_TOL);
    schedule
        .classes()
        .iter()
        .enumerate()
        .find_map(|(color, class)| {
            class
                .iter()
                .find(|&&i| eval.sinr(variant, i, class) < threshold)
                .map(|&i| (color, i))
        })
}

/// Checks the class pass on the whole instance, on random sets (which
/// repeat items), on first-fit classes, and checks that `validate` reports
/// the per-member loop's first violation on random colorings. Returns how
/// many of those colorings were infeasible.
fn check_instance<M: MetricSpace>(
    instance: &Instance<M>,
    params: SinrParams,
    rng: &mut ChaCha8Rng,
) -> usize {
    let n = instance.len();
    let mut infeasible = 0;
    for assignment in ASSIGNMENTS {
        let eval = instance.evaluator(params, &assignment);
        assert_class_pass(&eval, &(0..n).collect::<Vec<_>>());
        for _ in 0..8 {
            let len = rng.gen_range(0..=n.min(12));
            let set: Vec<usize> = (0..len).map(|_| rng.gen_range(0..n)).collect();
            assert_class_pass(&eval, &set);
        }
        for variant in Variant::all() {
            for class in first_fit_coloring(&eval.view(variant)).classes() {
                assert_class_pass(&eval, &class);
            }
            let random = Schedule::new((0..n).map(|_| rng.gen_range(0..3)).collect());
            let reported = match random.validate(&eval, variant) {
                Ok(()) => None,
                Err(SinrError::InfeasibleColorClass { color, request }) => {
                    infeasible += 1;
                    Some((color, request))
                }
                Err(e) => panic!("unexpected validation error: {e}"),
            };
            assert_eq!(
                reported,
                first_violation(&eval, variant, &random),
                "{variant} {assignment:?}: validate and the per-member loop disagree"
            );
        }
    }
    infeasible
}

#[test]
fn every_family_and_assignment_matches_the_per_member_loop() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let quiet = SinrParams::new(3.0, 1.0).unwrap();
    let noisy = SinrParams::with_noise(3.0, 1.0, 1e-4).unwrap();
    let mut infeasible = 0;
    for family in Family::all() {
        for params in [quiet, noisy] {
            infeasible += match build_family(family, 24, 5).unwrap() {
                FamilyInstance::Planar(instance) => check_instance(&instance, params, &mut rng),
                FamilyInstance::Line(instance) => check_instance(&instance, params, &mut rng),
            };
        }
    }
    assert!(infeasible > 0, "no random coloring was infeasible");
}

#[test]
fn line_and_star_metrics_match_the_per_member_loop() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let params = SinrParams::new(2.5, 1.0).unwrap();
    let positions: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..100.0)).collect();
    let requests: Vec<Request> = (0..10).map(|k| Request::new(2 * k, 2 * k + 1)).collect();
    let line = Instance::new(LineMetric::new(positions), requests.clone()).unwrap();
    check_instance(&line, params, &mut rng);
    let radii: Vec<f64> = (0..20).map(|_| rng.gen_range(0.5..30.0)).collect();
    let star = Instance::new(StarMetric::new(radii), requests).unwrap();
    check_instance(&star, params, &mut rng);
}

#[test]
fn a_matrix_symmetric_only_within_its_tolerance_matches_the_per_member_loop() {
    // Two requests (0, 1) and (2, 3) whose cross distances read 1e-10
    // longer from the higher node than from the lower one: `from_rows`
    // accepts that, and the class pass may not share those losses.
    let base = [
        [0.0, 1.0, 5.0, 6.5],
        [1.0, 0.0, 4.0, 5.5],
        [5.0, 4.0, 0.0, 1.5],
        [6.5, 5.5, 1.5, 0.0],
    ];
    let rows: Vec<Vec<f64>> = (0..4)
        .map(|u| {
            (0..4)
                .map(|v| {
                    let cross = (u < 2) != (v < 2);
                    base[u][v] + if cross && u > v { 1e-10 } else { 0.0 }
                })
                .collect()
        })
        .collect();
    let matrix = DistanceMatrix::from_rows(rows).unwrap();
    assert_ne!(
        matrix.distance(0, 2).to_bits(),
        matrix.distance(2, 0).to_bits()
    );
    let requests = vec![Request::new(0, 1), Request::new(2, 3)];
    let instance = Instance::new(matrix, requests).unwrap();
    let params = SinrParams::new(3.0, 1.0).unwrap();
    for assignment in ASSIGNMENTS {
        let eval = instance.evaluator(params, &assignment);
        for set in [[0, 1], [1, 0]] {
            assert_class_pass(&eval, &set);
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    check_instance(&instance, params, &mut rng);
}

#[test]
fn repeated_items_coinciding_endpoints_and_tiny_sets_match_the_per_member_loop() {
    // Requests 0 and 1 share node 1; request 2 lies apart.
    let metric = LineMetric::new(vec![0.0, 2.0, 5.0, 40.0, 41.5]);
    let requests = vec![Request::new(0, 1), Request::new(1, 2), Request::new(3, 4)];
    let instance = Instance::new(metric, requests).unwrap();
    let quiet = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(quiet, &ObliviousPower::SquareRoot);

    // A shared endpoint is an infinite contribution: both SINRs are zero.
    assert_eq!(assert_class_pass(&eval, &[0, 1]), vec![0.0, 0.0]);
    assert_eq!(assert_class_pass(&eval, &[0, 1, 2])[..2], [0.0, 0.0]);

    // Every copy of an item is the item itself, so a repeat adds nothing to
    // its own SINR, while another member hears every copy.
    let once = assert_class_pass(&eval, &[0, 2]);
    let twice = assert_class_pass(&eval, &[0, 2, 0]);
    assert_eq!(twice[0].to_bits(), once[0].to_bits());
    assert_eq!(twice[2].to_bits(), once[0].to_bits());
    assert!(twice[1] < once[1]);
    assert_class_pass(&eval, &[2, 2]);
    assert_class_pass(&eval, &[1, 0, 1, 2, 0]);

    // Empty and singleton sets at zero noise.
    assert!(assert_class_pass(&eval, &[]).is_empty());
    assert_eq!(assert_class_pass(&eval, &[2]), vec![f64::INFINITY]);
    assert_eq!(assert_class_pass(&eval, &[2, 2]), vec![f64::INFINITY; 2]);
}
