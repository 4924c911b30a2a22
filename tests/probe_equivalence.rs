//! Equivalence suite of the batched/scratch first-fit hot path: the
//! [`ProbeBatch`]-fed, scratch-reusing drivers introduced by the speed pass
//! must produce **bit-for-bit** the schedules of the sequential per-class
//! probe loop — across all three standard oblivious assignments, both
//! variants, and every backend tier (on-the-fly view, dense [`GainMatrix`],
//! pruned [`SparseGainMatrix`], churn-capable [`SparseChurnMatrix`]).
//!
//! The sequential oracle below is the pre-batching driver kept verbatim
//! (one [`ColorAccumulator::try_insert_with_gain`] per open class per item),
//! so any divergence in verdicts, class contents, or member order fails
//! loudly. The committed schedule goldens and the perf gate's fingerprints
//! pin the same property end to end at scale.
//!
//! [`ProbeBatch`]: oblisched_sinr::ProbeBatch

use oblisched::greedy::{
    first_fit_coloring, first_fit_coloring_naive, first_fit_into, first_fit_subset_with_gain,
    first_fit_with_order, first_fit_with_order_scratch, FirstFitScratch,
};
use oblisched_instances::scaling_uniform;
use oblisched_metric::EuclideanSpace;
use oblisched_sinr::feasibility::VariantView;
use oblisched_sinr::{
    ColorAccumulator, GainBackend, GainMatrix, InterferenceSystem, ObliviousPower, PowerScheme,
    SinrParams, SparseChurnMatrix, SparseConfig, SparseGainMatrix, Variant,
};
use proptest::prelude::*;

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).unwrap()
}

/// The pre-batching sequential first-fit driver, kept verbatim as the
/// oracle: probe every open class with the sequential per-class probe, open
/// a new class when none accepts.
fn sequential_oracle<S: GainBackend + ?Sized>(
    system: &S,
    items: &[usize],
    gain: f64,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<ColorAccumulator<'_, S>> = Vec::new();
    for &i in items {
        let placed = classes
            .iter_mut()
            .any(|class| class.try_insert_with_gain(i, gain));
        if !placed {
            let mut class = ColorAccumulator::new(system);
            class.insert_unchecked(i);
            classes.push(class);
        }
    }
    classes
        .iter()
        .map(|class| class.members().to_vec())
        .collect()
}

/// Batched public driver vs the sequential oracle on one backend: identical
/// class count, identical members, identical insertion order.
fn assert_batched_matches<S: GainBackend + ?Sized>(
    system: &S,
    items: &[usize],
    gain: f64,
    label: &str,
) {
    let batched = first_fit_subset_with_gain(system, items, gain);
    let oracle = sequential_oracle(system, items, gain);
    assert_eq!(
        batched, oracle,
        "batched first-fit diverged from the sequential probe on {label}"
    );
}

/// The tier equivalence both sparse tiers' shared row builder rests on: with
/// every request live, each churn row holds the batch row's stored values
/// and pads bit for bit, and no entry more. The pads are read through the
/// engine's `pad` hook at one, two and `u32::MAX` pruned members: with every
/// request live a row's cap never exceeds its mass, so one drop reads the
/// cap and `u32::MAX` drops read the mass.
fn assert_tiers_agree(view: &VariantView<'_, '_, EuclideanSpace<2>>, config: &SparseConfig) {
    let sparse = SparseGainMatrix::build(view, config);
    let churn = SparseChurnMatrix::new(view, config);
    for i in 0..view.len() {
        churn.note_arrival(i);
    }
    for i in 0..view.len() {
        let at = format!("row {i} under {config:?}");
        for (j, v) in sparse.row(i).iter() {
            let stored = churn.stored_contribution(i, 0, j as usize);
            assert_eq!(
                stored.map(f64::to_bits),
                Some(v.to_bits()),
                "{at}, column {j}"
            );
        }
        for dropped in [1, 2, u32::MAX] {
            assert_eq!(
                churn.pad(i, dropped).to_bits(),
                sparse.pad(i, dropped).to_bits(),
                "pad of {at} at {dropped} pruned members"
            );
        }
    }
    assert_eq!(churn.stored_entries(), sparse.stored_entries());
}

#[test]
fn batched_first_fit_matches_sequential_across_assignments_variants_backends() {
    let n = 60;
    let instance = scaling_uniform(n, 11);
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    for power in ObliviousPower::standard_assignments() {
        let eval = instance.evaluator(params(), &power);
        for variant in Variant::all() {
            let view = eval.view(variant);
            for cutoff_fraction in [1e-3, 0.05] {
                let config = SparseConfig {
                    cutoff_fraction,
                    ..SparseConfig::default()
                };
                assert_tiers_agree(&view, &config);
            }
            let matrix = GainMatrix::build(&view);
            let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
            let churn = SparseChurnMatrix::new(&view, &SparseConfig::default());
            for &i in &forward {
                churn.note_arrival(i);
            }
            let beta = view.beta();
            for items in [&forward, &reverse] {
                for gain in [beta, 2.0 * beta] {
                    let tag = format!("{} / {variant} / gain {gain}", power.name());
                    assert_batched_matches(&view, items, gain, &format!("view ({tag})"));
                    assert_batched_matches(&matrix, items, gain, &format!("dense ({tag})"));
                    assert_batched_matches(&sparse, items, gain, &format!("sparse ({tag})"));
                    assert_batched_matches(&churn, items, gain, &format!("churn ({tag})"));
                }
            }
            // Whole-schedule driver against the naive reference too: the
            // batched path must stay inside the existing exactness pin.
            assert_eq!(
                first_fit_coloring(&matrix),
                first_fit_coloring_naive(&view),
                "batched dense coloring left the naive-equivalence envelope"
            );
        }
    }
}

#[test]
fn scratch_and_pool_reuse_are_bit_for_bit_identical() {
    // One scratch driven across systems of different sizes, variants, and
    // backends in arbitrary order must match fresh-scratch results exactly:
    // no state may leak between drives.
    let mut scratch = FirstFitScratch::new();
    for (n, seed) in [(40usize, 3u64), (15, 5), (60, 7), (15, 5)] {
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
            let order: Vec<usize> = (0..n).rev().collect();
            assert_eq!(
                first_fit_with_order_scratch(&sparse, &order, &mut scratch),
                first_fit_with_order(&sparse, &order),
                "reused scratch diverged from a fresh one (n={n}, {variant})"
            );
        }
    }

    // One accumulator pool recycled across drives of different item sets:
    // classes beyond the open count are spares and must not perturb results.
    let instance = scaling_uniform(50, 9);
    let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
    let beta = view.beta();
    let mut pool: Vec<ColorAccumulator<'_, SparseGainMatrix>> = Vec::new();
    let sets: Vec<Vec<usize>> = vec![
        (0..50).collect(),
        (0..20).rev().collect(),
        (10..50).step_by(2).collect(),
        (0..50).collect(),
    ];
    for items in &sets {
        let open = first_fit_into(&sparse, items, beta, &mut scratch, &mut pool);
        let fresh = sequential_oracle(&sparse, items, beta);
        let pooled: Vec<Vec<usize>> = pool[..open]
            .iter()
            .map(|class| class.members().to_vec())
            .collect();
        assert_eq!(pooled, fresh, "pooled accumulators diverged on {items:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random subsets in random orders at random gain relaxations: the
    /// batched driver and the sequential oracle agree on every backend.
    #[test]
    fn batched_matches_sequential_on_random_subsets(
        seed in any::<u64>(),
        n in 12usize..28,
        picks in prop::collection::vec(any::<u8>(), 4..24),
        gain_step in 0usize..3,
    ) {
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            // Deduplicate picks into a subset in pick order (an item cannot
            // hold two colors).
            let mut items: Vec<usize> = Vec::new();
            for &p in &picks {
                let item = p as usize % n;
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            let gain = view.beta() * [1.0, 1.5, 3.0][gain_step];
            // A coarse cutoff so pruning (pads + row walks) genuinely
            // decides verdicts at this scale.
            let config = SparseConfig { cutoff_fraction: 0.05, ..SparseConfig::default() };
            let sparse = SparseGainMatrix::build(&view, &config);
            let churn = SparseChurnMatrix::new(&view, &config);
            for &i in &items {
                churn.note_arrival(i);
            }
            assert_batched_matches(&view, &items, gain, "view (proptest)");
            assert_batched_matches(&sparse, &items, gain, "sparse (proptest)");
            assert_batched_matches(&churn, &items, gain, "churn (proptest)");
        }
    }
}
