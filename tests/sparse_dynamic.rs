//! Certification of the churn-capable sparse backend under *arbitrary*
//! insert/remove/query interleavings: a [`DynamicScheduler`] running on a
//! [`SparseChurnMatrix`] must never accept a placement the naive evaluator
//! rejects, at **any** intermediate state — conservativeness is an invariant
//! of the whole trajectory, not just the final schedule.
//!
//! The release-mode acceptance test at the bottom replays the seed-pinned
//! large-tier churn workload through the facade-selected sparse session
//! backend (the loop experiment E10 times) and enforces the engine-budget
//! bound; `SPARSE_CHURN_SMOKE=1` shrinks it to a 4k universe for fast CI.

use oblisched::dynamic::{DynamicScheduler, RequestId};
use oblisched_instances::scaling_uniform;
use oblisched_sinr::{
    InterferenceSystem, ObliviousPower, SinrParams, SparseChurnMatrix, SparseConfig, Variant,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sparse_dynamic_conservative_under_interleavings(
        seed in any::<u64>(),
        n in 10usize..20,
        ops in prop::collection::vec((0u8..3, any::<u8>()), 8..48),
    ) {
        let instance = scaling_uniform(n, seed);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                // A coarse cutoff so pruning genuinely happens at this
                // scale — the pads, not just the stored entries, decide
                // verdicts.
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let matrix = SparseChurnMatrix::new(&view, &config);
                let mut sched = DynamicScheduler::new(&matrix);
                let mut ids: Vec<Option<RequestId>> = vec![None; n];
                let mut live: Vec<usize> = Vec::new();
                let mut dead: Vec<usize> = (0..n).collect();
                for &(kind, pick) in &ops {
                    let pick = pick as usize;
                    match kind {
                        0 => {
                            if dead.is_empty() {
                                continue;
                            }
                            let item = dead.swap_remove(pick % dead.len());
                            ids[item] = Some(sched.insert(item).unwrap());
                            live.push(item);
                        }
                        1 => {
                            if live.is_empty() {
                                continue;
                            }
                            let item = live.swap_remove(pick % live.len());
                            let id = ids[item].take().unwrap();
                            sched.remove(id).unwrap();
                            dead.push(item);
                        }
                        _ => {
                            // Query op: a raw SINR estimate over the live
                            // set must never exceed the naive value —
                            // the backend may only under-promise.
                            if live.is_empty() {
                                continue;
                            }
                            let item = live[pick % live.len()];
                            let estimate = matrix.sinr(item, &live);
                            let truth = view.sinr(item, &live);
                            prop_assert!(
                                estimate <= truth * (1.0 + 1e-9),
                                "sparse estimate {estimate} exceeds naive {truth} \
                                 (item {item}, {variant:?})"
                            );
                        }
                    }
                    // Every intermediate state must certify against the
                    // naive evaluator: the sparse-backed scheduler never
                    // holds a placement the ground truth rejects.
                    let certified = sched.validate_against(&view);
                    prop_assert!(
                        certified.is_ok(),
                        "non-conservative accept at an intermediate state: {certified:?} \
                         ({variant:?})"
                    );
                }
                // Structural consistency and drift of the final state.
                sched.validate().unwrap();
            }
        }
    }
}

/// Release-mode acceptance: the facade routes the large-tier churn workload
/// to the sparse backend, the full replay certifies against the naive
/// evaluator, and the grown backend stays under the 64 MiB engine budget —
/// the exact loop experiment E10's large rows time, via the same shared
/// helper. `SPARSE_CHURN_SMOKE=1` swaps in a 4k-universe workload (still
/// over the dense budget, so the sparse tier is still the one exercised)
/// to keep CI wall time bounded.
#[test]
#[cfg(not(debug_assertions))]
fn sparse_churn_acceptance_at_scale() {
    use oblisched_bench::churn::sparse_churn_outcome;
    use oblisched_instances::{churn_uniform, churn_uniform_10k};

    let params = SinrParams::new(3.0, 1.0).unwrap();
    let (instance, trace) = if std::env::var("SPARSE_CHURN_SMOKE").is_ok() {
        churn_uniform(4_000, 1_000, 3_000, 42)
    } else {
        churn_uniform_10k(42)
    };
    let out = sparse_churn_outcome(&instance, &trace, params);
    assert_eq!(out.events, trace.len());
    assert_eq!(out.final_live, trace.final_live().len());
    assert!(out.colors >= 1);
}
