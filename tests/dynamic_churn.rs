//! Acceptance test of the dynamic scheduling subsystem: a seed-pinned churn
//! trace replayed through `DynamicScheduler` with **every intermediate
//! state** validated against the naive `Evaluator` ground truth.
//!
//! The workload sizes are build-profile dependent: the debug run (plain
//! `cargo test`) uses a scaled-down trace so the tier-1 suite stays fast,
//! while the release run (`cargo test --release`, wired into ci.sh) replays
//! the full acceptance configuration — ≥ 2000 events hovering around
//! ≥ 1000 live requests.

use oblisched_bench::replay_incremental_with;
use oblisched_instances::{churn_clustered, churn_uniform, ChurnTrace};
use oblisched_metric::EuclideanSpace;
use oblisched_sinr::{Instance, InterferenceSystem, ObliviousPower, SinrParams, Variant};

/// (universe n, target live, events) per build profile.
#[cfg(debug_assertions)]
const ACCEPTANCE: (usize, usize, usize) = (300, 180, 500);
#[cfg(not(debug_assertions))]
const ACCEPTANCE: (usize, usize, usize) = (1600, 1100, 2000);

/// Replays `trace` through the shared event loop (the very one E10 and the
/// perf suite time), validating the scheduler against the naive evaluator
/// after **every** event, and returns the number of performed events.
fn replay_with_full_validation(
    instance: &Instance<EuclideanSpace<2>>,
    trace: &ChurnTrace,
    power: ObliviousPower,
) -> usize {
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &power);
    let view = eval.view(Variant::Bidirectional);
    // The scheduler runs on the cached engine; the validation ground truth
    // is the *naive* evaluator path, recomputed from scratch per state.
    let matrix = view.cached();
    let mut performed = 0usize;
    replay_incremental_with(&matrix, trace, |sched, index| {
        sched
            .validate_against(&view)
            .unwrap_or_else(|e| panic!("state after event {index} fails ground truth: {e}"));
        sched
            .validate()
            .unwrap_or_else(|e| panic!("state after event {index} fails drift check: {e}"));
        performed += 1;
    });
    performed
}

#[test]
fn every_intermediate_churn_state_validates_against_the_naive_evaluator() {
    let (n, target, events) = ACCEPTANCE;
    let (instance, trace) = churn_uniform(n, target, events, 42);
    assert_eq!(trace.len(), events);
    assert!(
        trace.max_live() >= target,
        "the trace must reach the target live count"
    );
    let performed = replay_with_full_validation(&instance, &trace, ObliviousPower::SquareRoot);
    assert_eq!(performed, events);
}

#[test]
fn clustered_churn_validates_under_every_power_assignment() {
    // Smaller per-assignment traces keep the three-assignment sweep cheap;
    // the full-size acceptance run above covers scale.
    let (n, target, events) = (ACCEPTANCE.0 / 2, ACCEPTANCE.1 / 2, ACCEPTANCE.2 / 2);
    let (instance, trace) = churn_clustered(n, target, events, 42);
    for power in ObliviousPower::standard_assignments() {
        let performed = replay_with_full_validation(&instance, &trace, power);
        assert_eq!(performed, events);
    }
}

#[test]
fn dynamic_and_full_reschedule_agree_on_the_live_set() {
    let (instance, trace) = churn_uniform(200, 120, 400, 11);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let matrix = view.cached();
    // The shared replay loop — the same one E10 and the perf suite time.
    let sched = oblisched_bench::replay_incremental(&matrix, &trace);
    let mut live = sched.live_items();
    live.sort_unstable();
    assert_eq!(live, trace.final_live());
    // The full reschedule covers the same items with a valid coloring.
    let classes = oblisched::first_fit_subset(&matrix, &live);
    let mut covered: Vec<usize> = classes.iter().flatten().copied().collect();
    covered.sort_unstable();
    assert_eq!(covered, live);
    for class in &classes {
        assert!(class.len() == 1 || view.is_feasible(class));
    }
}
