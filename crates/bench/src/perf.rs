//! The pinned perf suite and its regression gate.
//!
//! Every optimization PR so far left its speedups as anecdotes in README
//! tables; this module makes the trajectory machine-readable. [`run_suite`]
//! times a pinned set of hot-path workloads (dense first-fit, sparse batch
//! scheduling, parallel-sparse at 50k, churn replay, and an end-to-end
//! server load run over loopback) and reports medians
//! over repeats plus a **schedule fingerprint** per case — a 64-bit FNV-1a
//! hash of the exact colors produced. The fingerprints make the gate double
//! as a bit-for-bit determinism check: an optimization that changes any
//! verdict, anywhere, flips a fingerprint and fails CI even if it is faster.
//!
//! The committed baseline lives in `BENCH_<date>.json` at the repo root;
//! `ci.sh` reruns the suite in smoke mode (`PERF_SMOKE=1`) and fails on a
//! median regression beyond [`REGRESSION_FACTOR`] (plus a small absolute
//! slack for timer noise on tiny cases) or on any fingerprint change. The
//! `PERF_FINGERPRINT_SALT` hook exists only so CI can prove the gate trips
//! on a fingerprint change without actually breaking a schedule.

use crate::tiers::{parallel_tier_config, parallel_tier_sparse_config, TIER_SEED};
use oblisched::{first_fit_coloring, parallel_first_fit, tile_shards, DEFAULT_TARGET_SHARDS};
use oblisched_instances::{churn_uniform, churn_uniform_10k, scaling_uniform};
use oblisched_sinr::{
    GainMatrix, ObliviousPower, Schedule, SinrParams, SparseConfig, SparseGainMatrix, Variant,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A current median above `baseline × REGRESSION_FACTOR + REGRESSION_SLACK_MS`
/// fails the gate.
pub const REGRESSION_FACTOR: f64 = 1.25;

/// Absolute slack added to the regression threshold, so sub-10ms smoke cases
/// don't fail on scheduler-jitter noise alone.
pub const REGRESSION_SLACK_MS: f64 = 20.0;

/// One timed workload of the suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfCase {
    /// Stable case id, e.g. `dense_first_fit_n2000`. Ids encode the problem
    /// size, so smoke and full cases never collide.
    pub id: String,
    /// Number of timed repeats the median is taken over.
    pub repeats: usize,
    /// Median wall time in milliseconds.
    pub median_ms: f64,
    /// Fastest repeat in milliseconds.
    pub min_ms: f64,
    /// Colors of the produced schedule (0 for build-only cases).
    pub colors: usize,
    /// FNV-1a fingerprint of the exact output (schedule colors, or matrix
    /// bits for build-only cases), asserted identical across repeats.
    pub fingerprint: String,
}

/// A full suite run: what `BENCH_<date>.json` holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Format version of this report.
    pub version: u32,
    /// ISO date the report was generated (passed in by the caller — the
    /// deterministic crates never read the clock, and the bench binary takes
    /// it as `--date` so file name and field always agree).
    pub date: String,
    /// All measured cases, in suite order.
    pub cases: Vec<PerfCase>,
    /// Free-form context lines (host notes, seed-measurement references).
    pub notes: Vec<String>,
}

impl PerfReport {
    /// A report over `cases` with no notes yet.
    pub fn new(date: &str, cases: Vec<PerfCase>) -> Self {
        Self {
            version: 1,
            date: date.to_string(),
            cases,
            notes: Vec::new(),
        }
    }
}

/// 64-bit FNV-1a over a stream of words — the suite's fingerprint hash.
pub fn fingerprint64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The fingerprint of a schedule: its length followed by every color, in
/// item order — bit-for-bit identical schedules, and only those, collide.
pub fn schedule_fingerprint(schedule: &Schedule) -> u64 {
    let len = schedule.len() as u64;
    fingerprint64(std::iter::once(len).chain(schedule.colors().iter().map(|&c| c as u64)))
}

/// The optional fingerprint XOR from `PERF_FINGERPRINT_SALT` — zero unless
/// CI's negative control injects a salt to prove the gate trips.
fn fingerprint_salt() -> u64 {
    std::env::var("PERF_FINGERPRINT_SALT")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

fn salted_hex(fp: u64) -> String {
    format!("{:016x}", fp ^ fingerprint_salt())
}

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).unwrap_or_else(|e| panic!("pinned SINR parameters are valid: {e}"))
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Times `repeats` runs of `f`, asserting the fingerprint is identical
/// across repeats, and folds them into a [`PerfCase`].
fn timed_case(id: &str, repeats: usize, mut f: impl FnMut() -> (f64, usize, u64)) -> PerfCase {
    let mut times = Vec::with_capacity(repeats);
    let mut colors = 0usize;
    let mut fp: Option<u64> = None;
    for _ in 0..repeats.max(1) {
        let (ms, c, h) = f();
        times.push(ms);
        colors = c;
        match fp {
            None => fp = Some(h),
            Some(prev) => assert_eq!(
                prev, h,
                "case {id}: output fingerprint changed between repeats — the \
                 workload is not deterministic"
            ),
        }
    }
    let min = min_ms(&times);
    PerfCase {
        id: id.to_string(),
        repeats: times.len(),
        median_ms: median_ms(&mut times),
        min_ms: min,
        colors,
        fingerprint: salted_hex(fp.unwrap_or(0)),
    }
}

fn repeats_override(default: usize) -> usize {
    std::env::var("PERF_REPEATS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(default, |r| r.max(1))
}

/// The dense pair: `dense_build_n{n}` times `GainMatrix::build`, and
/// `dense_first_fit_n{n}` times the first-fit probe loop on the prebuilt
/// matrix — the loop the ≥1.5× acceptance target applies to.
fn dense_cases(n: usize, repeats: usize, out: &mut Vec<PerfCase>) {
    let p = params();
    let instance = scaling_uniform(n, TIER_SEED);
    let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let mut matrix: Option<GainMatrix> = None;
    out.push(timed_case(&format!("dense_build_n{n}"), repeats, || {
        let start = Instant::now();
        let m = GainMatrix::build(&view);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Fingerprint the matrix bits themselves: a build optimization that
        // perturbs any stored gain flips this even before scheduling does.
        let fp = fingerprint64(
            (0..n)
                .flat_map(|i| (0..2).map(move |port| (i, port)))
                .flat_map(|(i, port)| m.row(i, port).iter().map(|v| v.to_bits())),
        );
        matrix = Some(m);
        (ms, 0, fp)
    }));
    let matrix = matrix.unwrap_or_else(|| GainMatrix::build(&view));
    out.push(timed_case(
        &format!("dense_first_fit_n{n}"),
        repeats,
        || {
            let start = Instant::now();
            let schedule = first_fit_coloring(&matrix);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (ms, schedule.num_colors(), schedule_fingerprint(&schedule))
        },
    ));
}

/// `sparse_batch_n{n}`: default-profile sparse build plus serial first-fit,
/// timed end to end — the serial-10k anchor the 50k parallel target reads
/// against.
fn sparse_batch_case(n: usize, repeats: usize) -> PerfCase {
    let p = params();
    let instance = scaling_uniform(n, TIER_SEED);
    let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    timed_case(&format!("sparse_batch_n{n}"), repeats, || {
        let start = Instant::now();
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        let schedule = first_fit_coloring(&sparse);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, schedule.num_colors(), schedule_fingerprint(&schedule))
    })
}

/// `parallel_sparse_n{n}`: the parallel tier end to end — sparse build
/// (tier profile, one build thread per available core) plus tile-sharded
/// parallel first-fit.
fn parallel_sparse_case(n: usize, repeats: usize) -> PerfCase {
    let p = params();
    let instance = scaling_uniform(n, TIER_SEED);
    let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    // Thread counts auto-size to the host (`0` = available parallelism):
    // schedules are bit-for-bit identical for every thread count (pinned by
    // the determinism tests), so the suite is free to use however many cores
    // the box offers — including none to spare.
    let config = SparseConfig {
        build_threads: 0,
        ..parallel_tier_sparse_config()
    };
    timed_case(&format!("parallel_sparse_n{n}"), repeats, || {
        let start = Instant::now();
        let backend = SparseGainMatrix::build(&view, &config);
        let shards = tile_shards(&instance, DEFAULT_TARGET_SHARDS);
        let schedule = parallel_first_fit(&backend, &shards, &parallel_tier_config(0));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, schedule.num_colors(), schedule_fingerprint(&schedule))
    })
}

/// `churn_replay_n{universe}`: the E10 large-tier loop — facade-selected
/// churn-capable sparse backend, full trace replay. The reported time is the
/// replay loop only (session build and naive certification excluded), and
/// the fingerprint pins the final live coloring.
fn churn_replay_case(
    workload: (
        oblisched_sinr::Instance<oblisched_metric::EuclideanSpace<2>>,
        oblisched_instances::ChurnTrace,
    ),
    repeats: usize,
) -> PerfCase {
    let (instance, trace) = workload;
    let p = params();
    let id = format!("churn_replay_n{}", trace.universe);
    timed_case(&id, repeats, || {
        let out = crate::churn::sparse_churn_outcome(&instance, &trace, p);
        (out.dyn_ms, out.colors, out.schedule_fingerprint)
    })
}

/// `server_load_c{connections}_n{universe}`: the full daemon stack over
/// loopback — an in-process [`oblisched_server::Server`] (no clock injected,
/// so wire payloads stay byte-deterministic) with [`oblisched_server::run_load`]
/// replaying seed-pinned churn traces from concurrent connections into
/// durable sessions. The reported time is the slowest connection's
/// wall-clock for its whole replay (socket + actor + WAL append included;
/// appends are written to the OS but not fsync'd, see `DiskStore::append`),
/// and the fingerprint is the combined per-session state fingerprint from
/// the load report. Each repeat gets a fresh data dir: durable sessions
/// persist, so a reused dir would recover round N-1's state into round N
/// and trip the determinism assertion.
fn server_load_case(
    connections: usize,
    universe: usize,
    target_live: usize,
    events: usize,
    repeats: usize,
) -> PerfCase {
    use oblisched_server::{run_load, send_shutdown, LoadConfig, Server, ServerConfig};
    fn die<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
        match result {
            Ok(value) => value,
            Err(e) => panic!("server_load case: {what}: {e}"),
        }
    }
    let id = format!("server_load_c{connections}_n{universe}");
    let mut round = 0usize;
    timed_case(&id, repeats, || {
        round += 1;
        let data_dir = std::env::temp_dir().join(format!(
            "oblisched-perf-server-{}-{round}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let server = die(
            Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                data_dir: data_dir.clone(),
                clock: None,
            }),
            "bind",
        );
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let config = LoadConfig {
            connections,
            universe,
            target_live,
            events,
            seed: TIER_SEED,
            ..LoadConfig::default()
        };
        let report = die(run_load(&addr, &config), "load run");
        die(send_shutdown(&addr), "shutdown");
        match daemon.join() {
            Ok(result) => die(result, "daemon loop"),
            Err(_) => panic!("server_load case: daemon thread panicked"),
        }
        let _ = std::fs::remove_dir_all(&data_dir);
        let fp = die(
            u64::from_str_radix(&report.fingerprint, 16),
            "fingerprint hex",
        );
        // Colors stay 0: per-session colorings are summarized by the
        // fingerprint, and the report carries no single schedule to count.
        (report.elapsed_ms, 0, fp)
    })
}

/// Runs the pinned suite. `smoke` selects the scaled-down variant that fits
/// tier-1 CI time; the full suite is the committed-baseline shape.
pub fn run_suite(smoke: bool) -> Vec<PerfCase> {
    let mut cases = Vec::new();
    if smoke {
        dense_cases(400, repeats_override(3), &mut cases);
        cases.push(sparse_batch_case(2000, repeats_override(3)));
        cases.push(parallel_sparse_case(5000, repeats_override(3)));
        cases.push(churn_replay_case(
            churn_uniform(2500, 1000, 3000, TIER_SEED),
            repeats_override(3),
        ));
        cases.push(server_load_case(8, 150, 50, 120, repeats_override(2)));
    } else {
        dense_cases(2000, repeats_override(5), &mut cases);
        cases.push(sparse_batch_case(10_000, repeats_override(3)));
        cases.push(parallel_sparse_case(50_000, repeats_override(2)));
        cases.push(churn_replay_case(
            churn_uniform_10k(TIER_SEED),
            repeats_override(2),
        ));
        cases.push(server_load_case(8, 400, 120, 400, repeats_override(2)));
    }
    cases
}

/// Compares a fresh run against the committed baseline. Returns the list of
/// failures — empty means the gate is green. A case missing from the
/// baseline is reported as a note in `skipped` (new cases must not fail the
/// gate retroactively); a fingerprint difference or a median beyond
/// `baseline × REGRESSION_FACTOR + REGRESSION_SLACK_MS` is a failure.
pub fn compare(current: &[PerfCase], baseline: &PerfReport) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut skipped = Vec::new();
    for case in current {
        let Some(base) = baseline.cases.iter().find(|b| b.id == case.id) else {
            skipped.push(format!("{}: not in baseline, skipped", case.id));
            continue;
        };
        if base.fingerprint != case.fingerprint {
            failures.push(format!(
                "{}: fingerprint changed {} -> {} (schedules are no longer \
                 bit-for-bit identical)",
                case.id, base.fingerprint, case.fingerprint
            ));
        }
        let limit = base.median_ms * REGRESSION_FACTOR + REGRESSION_SLACK_MS;
        if case.median_ms > limit {
            failures.push(format!(
                "{}: median {:.1}ms exceeds {:.1}ms (baseline {:.1}ms × {} + {}ms slack)",
                case.id,
                case.median_ms,
                limit,
                base.median_ms,
                REGRESSION_FACTOR,
                REGRESSION_SLACK_MS
            ));
        }
    }
    (failures, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_schedules() {
        // `Schedule::new` compacts sparse colors, so pick two colorings that
        // stay distinct after compaction.
        let a = Schedule::new(vec![0, 1, 0, 2]);
        let b = Schedule::new(vec![0, 1, 2, 0]);
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&a.clone()));
    }

    #[test]
    fn median_is_robust_to_order_and_parity() {
        assert_eq!(median_ms(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ms(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_ms(&mut []), 0.0);
    }

    #[test]
    fn compare_flags_regressions_and_fingerprint_changes() {
        let base_case = PerfCase {
            id: "x".into(),
            repeats: 3,
            median_ms: 100.0,
            min_ms: 90.0,
            colors: 5,
            fingerprint: "aa".into(),
        };
        let baseline = PerfReport::new("2026-01-01", vec![base_case.clone()]);
        // Unchanged: green.
        let (fails, _) = compare(std::slice::from_ref(&base_case), &baseline);
        assert!(fails.is_empty());
        // 25%-plus-slack regression: red.
        let slow = PerfCase {
            median_ms: 100.0 * REGRESSION_FACTOR + REGRESSION_SLACK_MS + 1.0,
            ..base_case.clone()
        };
        let (fails, _) = compare(&[slow], &baseline);
        assert_eq!(fails.len(), 1);
        // Same speed, different fingerprint: red — this is the negative
        // control's path.
        let flipped = PerfCase {
            fingerprint: "bb".into(),
            ..base_case.clone()
        };
        let (fails, _) = compare(&[flipped], &baseline);
        assert_eq!(fails.len(), 1);
        // New case absent from the baseline: skipped, not failed.
        let novel = PerfCase {
            id: "y".into(),
            ..base_case
        };
        let (fails, skipped) = compare(&[novel], &baseline);
        assert!(fails.is_empty());
        assert_eq!(skipped.len(), 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = PerfReport::new(
            "2026-08-08",
            vec![PerfCase {
                id: "dense_first_fit_n400".into(),
                repeats: 3,
                median_ms: 12.5,
                min_ms: 11.0,
                colors: 40,
                fingerprint: "0123456789abcdef".into(),
            }],
        );
        report.notes.push("seed reference".into());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.version, report.version);
        assert_eq!(back.date, report.date);
        assert_eq!(back.cases.len(), 1);
        assert_eq!(back.cases[0].id, report.cases[0].id);
        assert_eq!(back.cases[0].fingerprint, report.cases[0].fingerprint);
        assert_eq!(back.notes, report.notes);
    }
}
