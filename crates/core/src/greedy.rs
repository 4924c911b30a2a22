//! Greedy baselines: first-fit coloring and greedy one-shot selection.
//!
//! First-fit over any [`InterferenceSystem`] is the natural `O(n)`-color
//! baseline mentioned in the paper's abstract (scheduling every request in
//! its own slot is always feasible without noise, so first-fit never does
//! worse). It is also the workhorse that turns any "large feasible subset"
//! primitive into a full coloring.
//!
//! All greedy procedures here run on the incremental engine
//! ([`oblisched_sinr::engine`]): every "does this item fit into this class"
//! query is answered from per-class running interference sums in
//! `O(class size)` contributions instead of the naive `O(class size²)`
//! recomputation. The sums are folded in the same order as the naive path,
//! so the results are **bit-for-bit identical**; the naive implementations
//! are kept as [`first_fit_coloring_naive`] / [`first_fit_with_order_naive`]
//! for baseline benchmarking and equivalence testing.

use oblisched_sinr::{
    ColorAccumulator, GainBackend, InterferenceSystem, ProbeBatch, Schedule, NO_COLOR,
};

/// Reusable workspace of the first-fit drivers: the `color_of` map feeding
/// [`ProbeBatch::gather`] plus the batch itself.
///
/// A fresh scratch allocates nothing; the first drive sizes `color_of` to the
/// system and the batch to the open classes, and every later drive through
/// the same scratch reuses those buffers. Callers on a hot loop (the parallel
/// scheduler's shard workers and merge, the churn replay's full-reschedule
/// baseline) keep one scratch alive across calls; one-shot callers get the
/// same results from a temporary.
///
/// The scratch carries no system-specific state between drives — `color_of`
/// is restored to all-[`NO_COLOR`] at the end of every drive — so one scratch
/// may serve systems of different sizes in any order.
#[derive(Debug, Default)]
pub struct FirstFitScratch {
    /// Bucket index of the class currently holding each item, `NO_COLOR`
    /// outside a drive. Sized lazily to the largest system seen.
    color_of: Vec<u32>,
    /// Batched multi-class probe workspace (see [`ProbeBatch`]).
    batch: ProbeBatch,
}

impl FirstFitScratch {
    /// Creates an empty scratch (no allocation until the first drive).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The core batched first-fit driver: colors `items` (in order) at `gain`
/// into `classes`, recycling any accumulators already in the pool.
///
/// `classes` doubles as accumulator pool and output: on entry every element
/// is treated as free (reset via [`ColorAccumulator::reset_for`] before
/// reuse), and on return `classes[..open]` — where `open` is the returned
/// count — are the color classes in first-fit order, members in insertion
/// order. Elements beyond `open` are untouched spares kept for the next
/// drive.
///
/// Per item the driver gathers one [`ProbeBatch`] (a single walk over the
/// item's stored row, bucketed by current color) and feeds it to
/// every open class via
/// [`ColorAccumulator::try_insert_with_gain_batched`], which replaces the
/// `O(classes · row)` sequential row re-walks with `O(row + classes)` work
/// while producing bit-for-bit identical schedules (classes where the batch
/// does not apply fall back to the sequential probe internally).
///
/// # Panics
///
/// Panics (in debug builds) if `items` contains a duplicate.
pub fn first_fit_into<'s, S: GainBackend + ?Sized>(
    system: &'s S,
    items: &[usize],
    gain: f64,
    scratch: &mut FirstFitScratch,
    classes: &mut Vec<ColorAccumulator<'s, S>>,
) -> usize {
    let n = system.len();
    if scratch.color_of.len() < n {
        scratch.color_of.resize(n, NO_COLOR);
    }
    debug_assert!(
        scratch.color_of.iter().all(|&c| c == NO_COLOR),
        "a previous drive left colors behind in the scratch"
    );
    let mut open = 0usize;
    for &i in items {
        debug_assert!(
            scratch.color_of[i] == NO_COLOR,
            "item {i} appears twice in the subset"
        );
        scratch.batch.gather(system, i, open, &scratch.color_of);
        let mut color = None;
        for (c, class) in classes[..open].iter_mut().enumerate() {
            if class.try_insert_with_gain_batched(i, gain, &scratch.batch, c) {
                color = Some(c);
                break;
            }
        }
        let c = match color {
            Some(c) => c,
            None => {
                if open == classes.len() {
                    classes.push(ColorAccumulator::new(system));
                } else {
                    classes[open].reset_for(system);
                }
                classes[open].insert_unchecked(i);
                open += 1;
                open - 1
            }
        };
        // Class counts stay far below `u32`: there are at most `n` classes.
        scratch.color_of[i] = c as u32;
    }
    for &i in items {
        scratch.color_of[i] = NO_COLOR;
    }
    open
}

/// First-fit coloring in index order, on the incremental engine.
///
/// Each item is placed into the first existing color class that remains
/// feasible (at the system's gain) after adding it; if no class accepts the
/// item, a new color is opened. Singletons without noise are always feasible,
/// so the result covers every item.
pub fn first_fit_coloring<S: GainBackend>(system: &S) -> Schedule {
    let order: Vec<usize> = (0..system.len()).collect();
    first_fit_with_order(system, &order)
}

/// First-fit coloring in a caller-chosen order, on the incremental engine.
///
/// Orderings matter in practice: processing requests by decreasing length
/// usually saves colors because long (fragile) links get first pick of the
/// empty slots. The experiment harness compares several orders.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..system.len()`.
pub fn first_fit_with_order<S: GainBackend>(system: &S, order: &[usize]) -> Schedule {
    first_fit_with_order_scratch(system, order, &mut FirstFitScratch::new())
}

/// [`first_fit_with_order`] through a caller-owned [`FirstFitScratch`],
/// reusing its probe buffers across calls. Identical results.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..system.len()`.
pub fn first_fit_with_order_scratch<S: GainBackend>(
    system: &S,
    order: &[usize],
    scratch: &mut FirstFitScratch,
) -> Schedule {
    let n = system.len();
    assert_order_is_permutation(n, order);

    let mut classes: Vec<ColorAccumulator<'_, S>> = Vec::new();
    let open = first_fit_into(system, order, system.beta(), scratch, &mut classes);
    let mut colors = vec![usize::MAX; n];
    for (c, class) in classes[..open].iter().enumerate() {
        for &i in class.members() {
            colors[i] = c;
        }
    }
    Schedule::new(colors)
}

/// The naive `O(class²)`-per-query first-fit coloring, kept as the reference
/// the incremental engine is benchmarked and property-tested against.
pub fn first_fit_coloring_naive<S: InterferenceSystem>(system: &S) -> Schedule {
    let order: Vec<usize> = (0..system.len()).collect();
    first_fit_with_order_naive(system, &order)
}

/// Naive counterpart of [`first_fit_with_order`]; identical results, without
/// the incremental engine.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..system.len()`.
pub fn first_fit_with_order_naive<S: InterferenceSystem>(system: &S, order: &[usize]) -> Schedule {
    let n = system.len();
    assert_order_is_permutation(n, order);

    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut colors = vec![usize::MAX; n];
    for &i in order {
        let mut placed = false;
        for (c, class) in classes.iter_mut().enumerate() {
            class.push(i);
            if system.is_feasible(class) {
                colors[i] = c;
                placed = true;
                break;
            }
            class.pop();
        }
        if !placed {
            colors[i] = classes.len();
            classes.push(vec![i]);
        }
    }
    Schedule::new(colors)
}

/// Shared order contract of the first-fit variants.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..n`.
fn assert_order_is_permutation(n: usize, order: &[usize]) {
    assert_eq!(order.len(), n, "order must cover every item exactly once");
    let mut seen = vec![false; n];
    for &i in order {
        assert!(i < n && !seen[i], "order must be a permutation of 0..n");
        seen[i] = true;
    }
}

/// First-fit coloring of an arbitrary subset of the system's items, in the
/// given order, returning the resulting color classes (members in insertion
/// order). Unlike [`first_fit_with_order`] the items need not cover the
/// whole system — this is the "full reschedule" baseline the dynamic
/// scheduler (`oblisched::dynamic`) and the churn experiments compare
/// against on a live subset.
///
/// # Panics
///
/// Panics (in debug builds) if `items` contains a duplicate — an item cannot
/// hold two colors. The check (against the driver's `color_of` map) is `O(1)`
/// per item and skipped in release builds, where this function sits on the
/// per-event hot path of the churn experiments.
pub fn first_fit_subset<S: GainBackend + ?Sized>(system: &S, items: &[usize]) -> Vec<Vec<usize>> {
    first_fit_subset_with_gain(system, items, system.beta())
}

/// [`first_fit_subset`] at an explicit gain instead of the system's `β`.
///
/// A stricter gain (`gain > β`) leaves every class with slack — each member
/// tolerates `gain/β` times its feasibility threshold of interference — at
/// the price of more classes. The parallel scheduler colors its spatial
/// shards this way so that shard-local classes survive being merged with
/// far-away classes of other shards (see `crate::parallel`), mirroring how
/// the paper's §5 algorithm admits candidates at the relaxed gain `β/2` and
/// certifies rounds at `β`.
///
/// # Panics
///
/// Panics (in debug builds) if `items` contains a duplicate.
pub fn first_fit_subset_with_gain<S: GainBackend + ?Sized>(
    system: &S,
    items: &[usize],
    gain: f64,
) -> Vec<Vec<usize>> {
    let mut scratch = FirstFitScratch::new();
    let mut classes: Vec<ColorAccumulator<'_, S>> = Vec::new();
    let open = first_fit_into(system, items, gain, &mut scratch, &mut classes);
    classes[..open]
        .iter()
        .map(|class| class.members().to_vec())
        .collect()
}

/// Greedily builds one large feasible set ("one shot") from `candidates`,
/// considering them in the given order and keeping an item whenever the set
/// stays feasible.
///
/// The returned set is always feasible at the system's gain; its size is the
/// greedy counterpart of the quantity `σ` (the maximum number of requests
/// schedulable with one color) that §5 approximates.
pub fn greedy_one_shot<S: GainBackend>(system: &S, candidates: &[usize]) -> Vec<usize> {
    let mut kept = ColorAccumulator::new(system);
    for &i in candidates {
        let _ = kept.try_insert(i);
    }
    kept.members().to_vec()
}

/// Extends an already feasible set `base` by greedily adding further
/// candidates whenever the set stays feasible at the system's gain.
///
/// Used by the LP-based and decomposition-based schedulers to make every
/// color class maximal, which never hurts and often saves colors on small
/// instances.
pub fn greedy_augment<S: GainBackend>(
    system: &S,
    base: Vec<usize>,
    candidates: &[usize],
) -> Vec<usize> {
    let mut kept = ColorAccumulator::with_members(system, &base);
    for &i in candidates {
        if kept.contains(i) {
            continue;
        }
        let _ = kept.try_insert(i);
    }
    kept.members().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::{evenly_spaced_line, nested_chain};
    use oblisched_sinr::{ObliviousPower, SinrParams, Variant};

    #[test]
    fn first_fit_uses_one_color_for_well_separated_links() {
        let inst = evenly_spaced_line(8, 1.0, 100.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let schedule = first_fit_coloring(&eval.view(Variant::Bidirectional));
        assert_eq!(schedule.num_colors(), 1);
        assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
    }

    #[test]
    fn first_fit_produces_feasible_schedules_on_nested_chains() {
        let inst = nested_chain(10, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            let schedule = first_fit_coloring(&eval.view(Variant::Bidirectional));
            assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
            assert_eq!(schedule.len(), 10);
        }
    }

    #[test]
    fn sqrt_assignment_beats_uniform_and_linear_on_nested_chains() {
        // §1.2: the square-root assignment needs O(1) colors on the nested
        // chain while uniform and linear need Ω(n).
        let inst = nested_chain(12, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let colors_for = |power: ObliviousPower| {
            let eval = inst.evaluator(params, &power);
            first_fit_coloring(&eval.view(Variant::Bidirectional)).num_colors()
        };
        let uniform = colors_for(ObliviousPower::Uniform);
        let linear = colors_for(ObliviousPower::Linear);
        let sqrt = colors_for(ObliviousPower::SquareRoot);
        assert!(
            sqrt < uniform,
            "sqrt ({sqrt}) must beat uniform ({uniform})"
        );
        assert!(sqrt < linear, "sqrt ({sqrt}) must beat linear ({linear})");
        assert!(sqrt <= 6, "sqrt should need O(1) colors, used {sqrt}");
        assert!(
            uniform >= 10,
            "uniform should need ~n colors, used {uniform}"
        );
    }

    #[test]
    fn first_fit_respects_custom_order() {
        let inst = nested_chain(8, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        // Longest-first order.
        let order: Vec<usize> = (0..8).rev().collect();
        let schedule = first_fit_with_order(&view, &order);
        assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
        assert_eq!(schedule.len(), 8);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn first_fit_rejects_duplicate_order() {
        let inst = evenly_spaced_line(3, 1.0, 10.0);
        let params = SinrParams::default();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let _ = first_fit_with_order(&eval.view(Variant::Directed), &[0, 0, 1]);
    }

    #[test]
    fn first_fit_subset_matches_full_first_fit_on_the_whole_set() {
        let inst = nested_chain(10, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..10).collect();
        let classes = first_fit_subset(&view, &all);
        let full = first_fit_coloring(&view);
        assert_eq!(classes.len(), full.num_colors());
        for class in &classes {
            assert!(class.len() == 1 || view.is_feasible(class));
        }
        // A strict subset is colored too, covering exactly the given items.
        let subset = [7usize, 2, 5];
        let classes = first_fit_subset(&view, &subset);
        let mut covered: Vec<usize> = classes.iter().flatten().copied().collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![2, 5, 7]);
        assert!(first_fit_subset(&view, &[]).is_empty());
    }

    #[test]
    fn greedy_one_shot_returns_feasible_subset() {
        let inst = nested_chain(10, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..10).collect();
        let set = greedy_one_shot(&view, &all);
        assert!(!set.is_empty());
        assert!(view.is_feasible(&set));
        // On the nested chain the square-root assignment packs several
        // requests into one shot.
        assert!(set.len() >= 2);
    }

    #[test]
    fn greedy_one_shot_on_empty_candidates() {
        let inst = evenly_spaced_line(2, 1.0, 10.0);
        let params = SinrParams::default();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        assert!(greedy_one_shot(&view, &[]).is_empty());
    }

    #[test]
    fn greedy_augment_extends_without_breaking_feasibility() {
        let inst = nested_chain(10, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let base = vec![0usize];
        let all: Vec<usize> = (0..10).collect();
        let augmented = greedy_augment(&view, base.clone(), &all);
        assert!(view.is_feasible(&augmented));
        assert!(augmented.len() >= base.len());
        assert!(augmented.contains(&0));
        // No duplicates.
        let mut sorted = augmented.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), augmented.len());
    }

    #[test]
    fn incremental_first_fit_matches_naive_exactly() {
        let inst = nested_chain(12, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                assert_eq!(first_fit_coloring(&view), first_fit_coloring_naive(&view));
                let order: Vec<usize> = (0..12).rev().collect();
                assert_eq!(
                    first_fit_with_order(&view, &order),
                    first_fit_with_order_naive(&view, &order)
                );
            }
        }
    }

    #[test]
    fn incremental_first_fit_matches_naive_on_cached_matrix() {
        let inst = nested_chain(10, 2.0);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let matrix = view.cached();
        assert_eq!(first_fit_coloring(&matrix), first_fit_coloring_naive(&view));
    }

    #[test]
    fn empty_system_yields_empty_schedule() {
        let metric = oblisched_metric::LineMetric::new(vec![0.0, 1.0]);
        let inst = oblisched_sinr::Instance::new(metric, vec![]).unwrap();
        let params = SinrParams::default();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let schedule = first_fit_coloring(&eval.view(Variant::Directed));
        assert!(schedule.is_empty());
        assert_eq!(schedule.num_colors(), 0);
    }
}
