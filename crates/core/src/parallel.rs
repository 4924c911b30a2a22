//! Parallel batch scheduling: tile-sharded first-fit with a deterministic
//! merge.
//!
//! First-fit's color classes are independent of each other — the only
//! coupling between requests is spatial (interference decays with
//! distance). That makes batch coloring embarrassingly parallel *per
//! region*: partition the requests by the tile of a uniform spatial grid
//! ([`tile_shards`]), color every shard independently at a relaxed gain
//! (mostly-local interference means shard-local verdicts are nearly the
//! global ones, and the gain slack reserves budget for what they miss),
//! then merge the shard colorings layer-by-layer with a conflict-repair
//! first-fit that re-validates every member through the engine.
//!
//! Two properties are load-bearing:
//!
//! * **Correctness** — the merge re-validates every member through the
//!   engine ([`ColorAccumulator`]), so
//!   the final schedule is feasible no
//!   matter how wrong the shard-local verdicts were. Sharding is a
//!   *heuristic for speed*, never trusted for feasibility.
//! * **Determinism** — the shard partition depends only on the geometry and
//!   the configured shard target, every shard is colored deterministically,
//!   and the merge walks shards in index order. Worker threads only decide
//!   *who* computes a shard, never *what* is computed, so the schedule is
//!   bit-for-bit identical for every thread count (pinned by the 1-vs-2-vs-8
//!   threads test in `tests/parallel_determinism.rs`).
//!
//! On a single core sharding buys little: probing only a shard's own
//! classes keeps the first-fit work at `O(Σ n_s²)` instead of `O(n²)`, but
//! plain first-fit asks each class's last rejecter first, so one-thread
//! `parallel_first_fit` runs about as fast as plain first-fit on the same
//! backend, with more colors. Extra threads are where the tier gains.

use crate::greedy::{first_fit_into, FirstFitScratch};
use oblisched_metric::PlanarMetric;
use oblisched_sinr::{ColorAccumulator, GainBackend, Instance, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of spatial shards aimed for by [`tile_shards`].
pub const DEFAULT_TARGET_SHARDS: usize = 64;

/// Tuning knobs of [`parallel_first_fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Worker threads for the shard phase (`0` = one per available core).
    /// The schedule is identical for every value.
    pub num_threads: usize,
    /// Gain slack of the shard-local coloring: shards are colored at
    /// `slack · β`, so every shard-local class keeps `1 − β/(slack·β)` of
    /// its interference budget free for the far-field members it is merged
    /// with. `1.0` disables the slack (maximal local classes, which merge
    /// poorly — almost every cross-shard union then exceeds some member's
    /// budget). Default `2.0`, the same relaxation the paper's §5 algorithm
    /// uses within a round.
    pub shard_gain_slack: f64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            num_threads: 0,
            shard_gain_slack: 2.0,
        }
    }
}

impl ParallelConfig {
    /// A config with the default slack and an explicit thread count.
    pub fn with_threads(num_threads: usize) -> Self {
        Self {
            num_threads,
            ..Self::default()
        }
    }
}

/// Partitions the requests of a planar instance into spatially coherent
/// shards: a uniform grid of roughly `target_shards` tiles is laid over the
/// request midpoints, and every non-empty tile becomes one shard (requests
/// in index order within a shard, shards in row-major tile order).
///
/// The partition depends only on the instance geometry and `target_shards`
/// — never on thread counts — which is what makes
/// [`parallel_first_fit`] reproducible.
///
/// # Panics
///
/// Panics if `target_shards` is zero.
pub fn tile_shards<M: PlanarMetric>(
    instance: &Instance<M>,
    target_shards: usize,
) -> Vec<Vec<usize>> {
    assert!(target_shards > 0, "at least one shard is required");
    let n = instance.len();
    if n == 0 {
        return Vec::new();
    }
    let metric = instance.metric();
    let anchors: Vec<[f64; 2]> = (0..n)
        .map(|i| {
            let r = instance.request(i);
            let s = metric.position(r.sender);
            let t = metric.position(r.receiver);
            [(s[0] + t[0]) / 2.0, (s[1] + t[1]) / 2.0]
        })
        .collect();
    let mut min = [f64::INFINITY; 2];
    let mut max = [f64::NEG_INFINITY; 2];
    for a in &anchors {
        for d in 0..2 {
            min[d] = min[d].min(a[d]);
            max[d] = max[d].max(a[d]);
        }
    }
    let side = (target_shards as f64).sqrt().ceil() as usize;
    let extent = |d: usize| (max[d] - min[d]).max(0.0);
    let tile_of = |a: &[f64; 2]| -> usize {
        let idx = |d: usize| -> usize {
            if extent(d) == 0.0 {
                0
            } else {
                (((a[d] - min[d]) / extent(d) * side as f64) as usize).min(side - 1)
            }
        };
        idx(1) * side + idx(0)
    };
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); side * side];
    for (i, a) in anchors.iter().enumerate() {
        shards[tile_of(a)].push(i);
    }
    shards.retain(|s| !s.is_empty());
    shards
}

/// First-fit coloring of `system` over an explicit shard partition, using
/// up to [`num_threads`](ParallelConfig::num_threads) worker threads.
///
/// Shards are colored independently in parallel
/// ([`first_fit_into`] per shard with a per-worker scratch and accumulator
/// pool, at the config's relaxed shard gain so local classes keep
/// headroom), then merged
/// deterministically layer by layer: layer `k` concatenates every shard's
/// `k`-th class (shards in index order) and is re-colored through the
/// engine at the true gain, repairing all cross-shard conflicts (see
/// [`ParallelConfig::shard_gain_slack`]). The result is feasible by
/// construction and identical for every thread count.
///
/// # Panics
///
/// Panics if `shards` is not a partition of `0..system.len()` (every item
/// exactly once), or if the config's gain slack is below 1.
pub fn parallel_first_fit<S: GainBackend + Sync + ?Sized>(
    system: &S,
    shards: &[Vec<usize>],
    config: &ParallelConfig,
) -> Schedule {
    assert!(
        config.shard_gain_slack.is_finite() && config.shard_gain_slack >= 1.0,
        "the shard gain slack must be finite and at least 1"
    );
    let shard_gain = system.beta() * config.shard_gain_slack;
    let n = system.len();
    let mut seen = vec![false; n];
    for shard in shards {
        for &i in shard {
            assert!(
                i < n && !std::mem::replace(&mut seen[i], true),
                "shards must partition 0..{n}: item {i} repeated or out of range"
            );
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "shards must partition 0..{n}: some item is missing"
    );

    let threads = match config.num_threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    let shard_classes: Vec<Vec<Vec<usize>>> = if threads <= 1 || shards.len() <= 1 {
        let mut scratch = FirstFitScratch::new();
        let mut pool = Vec::new();
        shards
            .iter()
            .map(|shard| color_shard(system, shard, shard_gain, &mut scratch, &mut pool))
            .collect()
    } else {
        // Work-stealing over shard indices: threads only decide *who*
        // computes a shard; the per-shard result is a pure function of the
        // shard, so the outcome is thread-count independent.
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, Vec<Vec<usize>>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(shards.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = FirstFitScratch::new();
                        let mut pool = Vec::new();
                        let mut out = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= shards.len() {
                                break;
                            }
                            let classes = color_shard(
                                system,
                                &shards[idx],
                                shard_gain,
                                &mut scratch,
                                &mut pool,
                            );
                            out.push((idx, classes));
                        }
                        out
                    })
                })
                .collect();
            let mut all = Vec::new();
            for w in workers {
                match w.join() {
                    Ok(mine) => all.extend(mine),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all
        });
        indexed.sort_unstable_by_key(|(idx, _)| *idx);
        indexed.into_iter().map(|(_, classes)| classes).collect()
    };

    merge_shard_classes(system, &shard_classes, n)
}

/// Colors one shard at `gain` through a worker-owned scratch and accumulator
/// pool, returning the shard-local classes as member lists. The probe
/// buffers and class allocations stay warm across every shard the worker
/// claims instead of being reallocated per shard.
fn color_shard<'s, S: GainBackend + ?Sized>(
    system: &'s S,
    shard: &[usize],
    gain: f64,
    scratch: &mut FirstFitScratch,
    pool: &mut Vec<ColorAccumulator<'s, S>>,
) -> Vec<Vec<usize>> {
    let open = first_fit_into(system, shard, gain, scratch, pool);
    pool[..open]
        .iter()
        .map(|class| class.members().to_vec())
        .collect()
}

/// Deterministic layered merge with conflict repair (see
/// [`parallel_first_fit`]).
///
/// Layer `k` is the concatenation of every shard's `k`-th local color class
/// (shards in index order). A layer is mostly conflict-free — its pieces
/// come from different tiles, and the shard pass already separated local
/// conflicts into different `k`s — but globally a layer can exceed one
/// class's interference capacity, so each layer is re-colored by a
/// first-fit over *its own* classes ([`first_fit_into`] at the true gain):
/// every verdict passes through the engine again, repairing all cross-shard
/// conflicts. Confining the repair to the layer keeps the merge
/// `O(Σ_k |layer_k| · layer_colors)` — a fraction of a global first-fit's
/// probe work — at the price of never reusing a class across layers (a few
/// extra colors). One scratch and one accumulator pool persist across
/// layers, and colors are written straight off the accumulators' member
/// lists, so the merge allocates no per-layer class vectors.
fn merge_shard_classes<S: GainBackend + ?Sized>(
    system: &S,
    shard_classes: &[Vec<Vec<usize>>],
    n: usize,
) -> Schedule {
    let max_classes = shard_classes.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut colors = vec![usize::MAX; n];
    let mut next_color = 0usize;
    let mut layer: Vec<usize> = Vec::new();
    let mut scratch = FirstFitScratch::new();
    let mut pool: Vec<ColorAccumulator<'_, S>> = Vec::new();
    for k in 0..max_classes {
        layer.clear();
        for classes in shard_classes {
            if let Some(class) = classes.get(k) {
                layer.extend_from_slice(class);
            }
        }
        let open = first_fit_into(system, &layer, system.beta(), &mut scratch, &mut pool);
        for class in &pool[..open] {
            for &i in class.members() {
                colors[i] = next_color;
            }
            next_color += 1;
        }
    }
    Schedule::new(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::first_fit_coloring;
    use oblisched_instances::{nested_chain, scaling_uniform};
    use oblisched_sinr::{ObliviousPower, SinrParams, Variant};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    #[test]
    fn shards_partition_the_instance() {
        let inst = scaling_uniform(200, 9);
        let shards = tile_shards(&inst, DEFAULT_TARGET_SHARDS);
        assert!(
            shards.len() > 1,
            "a 200-request deployment must split into several shards"
        );
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_schedule_is_feasible_and_thread_count_independent() {
        let inst = scaling_uniform(150, 4);
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let shards = tile_shards(&inst, DEFAULT_TARGET_SHARDS);
                let serial = parallel_first_fit(&view, &shards, &ParallelConfig::with_threads(1));
                assert!(serial.validate(&eval, variant).is_ok());
                for threads in [2usize, 8] {
                    assert_eq!(
                        parallel_first_fit(&view, &shards, &ParallelConfig::with_threads(threads)),
                        serial,
                        "schedules must not depend on the thread count"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_colors_stay_close_to_sequential_first_fit() {
        let inst = scaling_uniform(200, 7);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sequential = first_fit_coloring(&view).num_colors();
        let shards = tile_shards(&inst, DEFAULT_TARGET_SHARDS);
        let parallel =
            parallel_first_fit(&view, &shards, &ParallelConfig::with_threads(2)).num_colors();
        assert!(
            parallel <= 2 * sequential + 2,
            "parallel used {parallel} colors vs sequential {sequential}"
        );
    }

    #[test]
    fn single_shard_matches_sequential_first_fit() {
        // One shard = no partition benefit, but also bit-for-bit the
        // sequential schedule (same insertions in the same order).
        let inst = nested_chain(12, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let shard: Vec<Vec<usize>> = vec![(0..12).collect()];
        let config = ParallelConfig {
            num_threads: 4,
            shard_gain_slack: 1.0,
        };
        assert_eq!(
            parallel_first_fit(&view, &shard, &config),
            first_fit_coloring(&view)
        );
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let inst = nested_chain(3, 2.0);
        // All requests share a midpoint region: a single shard comes back.
        let shards = tile_shards(&inst, 4);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 3);
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let schedule = parallel_first_fit(&view, &shards, &ParallelConfig::with_threads(2));
        assert_eq!(schedule.len(), 3);
        assert!(schedule.validate(&eval, Variant::Bidirectional).is_ok());
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn missing_items_are_rejected() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let _ = parallel_first_fit(&view, &[vec![0, 2]], &ParallelConfig::with_threads(1));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_target_is_rejected() {
        let inst = nested_chain(2, 2.0);
        let _ = tile_shards(&inst, 0);
    }
}
