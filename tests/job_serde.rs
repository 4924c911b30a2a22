//! Serde acceptance tests of the job API: a `SolveRequest` survives a JSON
//! serialize→deserialize round trip unchanged for every strategy ×
//! assignment combination, and the daemon's `SolveJob`/`SolveOutcome`
//! payloads do too (the server's protocol tests add the line framing).

use oblisched::scheduler::{EngineBackend, EngineStats};
use oblisched::solve::{
    Algorithm, Assignment, BackendPolicy, PowerAssignment, SolveRequest, SolveStrategy,
};
use oblisched_instances::Family;
use oblisched_server::protocol::{SolveJob, SolveOutcome};
use oblisched_sinr::{SinrParams, SparseConfig, Variant};

fn strategies() -> [SolveStrategy; 6] {
    [
        SolveStrategy::FirstFit,
        SolveStrategy::Parallel { num_threads: 0 },
        SolveStrategy::Parallel { num_threads: 8 },
        SolveStrategy::PowerControl,
        SolveStrategy::SqrtColoring,
        SolveStrategy::SqrtDecomposition,
    ]
}

fn assignments() -> [PowerAssignment; 4] {
    [
        PowerAssignment::Uniform,
        PowerAssignment::Linear,
        PowerAssignment::SquareRoot,
        PowerAssignment::Exponent { tau: 0.75 },
    ]
}

#[test]
fn every_strategy_assignment_combination_round_trips() {
    for strategy in strategies() {
        for assignment in assignments() {
            for variant in Variant::all() {
                for backend in [BackendPolicy::Auto, BackendPolicy::Exact] {
                    let request = SolveRequest {
                        strategy,
                        assignment,
                        variant,
                        seed: 0xfeed,
                        backend,
                        matrix_budget: Some(1 << 20),
                        sparse: Some(SparseConfig {
                            cutoff_fraction: 2e-3,
                            strict: true,
                            ..SparseConfig::default()
                        }),
                    };
                    let json = serde_json::to_string(&request).unwrap();
                    let back: SolveRequest = serde_json::from_str(&json).unwrap();
                    assert_eq!(back, request, "round trip of {json}");
                }
            }
        }
    }
}

#[test]
fn optional_request_fields_round_trip_as_null_and_may_be_absent() {
    let request = SolveRequest::first_fit(PowerAssignment::SquareRoot);
    let json = serde_json::to_string(&request).unwrap();
    assert!(json.contains("\"matrix_budget\":null"));
    let back: SolveRequest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, request);

    // Hand-written request lines may omit the optional fields entirely.
    let terse = r#"{"strategy":"FirstFit","assignment":"SquareRoot","variant":"Bidirectional","seed":0,"backend":"Auto"}"#;
    let back: SolveRequest = serde_json::from_str(terse).unwrap();
    assert_eq!(back, request);
}

#[test]
fn job_specs_round_trip_for_every_family() {
    for family in Family::all() {
        for (request, params) in [
            (SolveRequest::sqrt_coloring(3), None),
            (
                SolveRequest::parallel(PowerAssignment::Linear, 2),
                Some(SinrParams::with_noise(2.5, 1.5, 0.1).unwrap()),
            ),
        ] {
            let job = SolveJob {
                family,
                n: 33,
                seed: 9,
                request,
                params,
            };
            let json = serde_json::to_string(&job).unwrap();
            let back: SolveJob = serde_json::from_str(&json).unwrap();
            assert_eq!(back, job);
        }
    }
}

#[test]
fn job_reports_round_trip() {
    let outcome = SolveOutcome {
        family: Family::Scaling,
        n: 100,
        seed: 42,
        algorithm: Algorithm::ParallelFirstFit,
        assignment: Assignment::Exponent { tau: 0.5 },
        variant: Variant::Bidirectional,
        colors: 17,
        energy: 123.456,
        wall_ms: 0.0,
        engine: EngineStats {
            backend: EngineBackend::Sparse,
            n: 100,
            ports: 1,
            bytes: 4096,
            dense_bytes: 160_000,
            budget: 1 << 16,
        },
    };
    let json = serde_json::to_string(&outcome).unwrap();
    let back: SolveOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome);
}
