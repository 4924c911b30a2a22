//! Crash-point recovery harness for durable dynamic sessions: a real
//! on-disk session records a seed-pinned churn trace, then the WAL is
//! truncated at **every byte offset** — every record boundary plus every
//! torn final line — paired with every snapshot that could have been on
//! disk at that point, and recovery must reproduce the pre-crash coloring
//! bit-for-bit, certified through the naive-evaluator `validate()` path.
//! The same holds on the churn-capable sparse tier at its default
//! configuration, whose verdicts depend on the backend's history: recovery
//! applies the logged placements instead of re-deriving them.
//!
//! Like `dynamic_churn.rs`, the workload is build-profile dependent: the
//! debug run keeps the tier-1 suite fast, the release run (wired into
//! ci.sh) sweeps a ≥ 500-event trace — the acceptance configuration.

use oblisched::durability::{
    replay_records, DiskStore, DurabilityError, DurableScheduler, MemoryStore, SessionStore,
    WalEvent, WalRecord,
};
use oblisched::dynamic::{DynamicConfig, DynamicScheduler, SchedulerState};
use oblisched_bench::{replay_durable, replay_incremental, replay_incremental_with};
use oblisched_instances::{churn_uniform, ChurnEvent};
use oblisched_sinr::{
    GainBackend, ObliviousPower, SinrParams, SparseChurnMatrix, SparseConfig, Variant,
};
use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;

/// (universe n, target live, events, checkpoint cadence K) per build
/// profile. The release configuration meets the crash-point suite's
/// ≥ 500-event acceptance bar.
#[cfg(debug_assertions)]
const CRASH: (usize, usize, usize, usize) = (60, 36, 160, 8);
#[cfg(not(debug_assertions))]
const CRASH: (usize, usize, usize, usize) = (140, 85, 520, 16);

/// A fresh scratch directory under the system temp dir, emptied on entry so
/// reruns never see stale session files.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblisched-durable-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Applies one churn event to a durable session, resolving departures
/// through the scheduler's owner map.
fn apply<S: GainBackend + ?Sized, St: SessionStore>(
    session: &mut DurableScheduler<'_, S, St>,
    event: ChurnEvent,
) {
    match event {
        ChurnEvent::Arrive(i) => {
            session.insert(i).unwrap();
        }
        ChurnEvent::Depart(i) => {
            let id = session.scheduler().id_of_item(i).unwrap();
            session.remove(id).unwrap();
        }
    }
}

/// The byte offset past each line's newline of a recorded WAL, which must
/// end with a newline.
fn index_log(wal: &[u8]) -> Vec<usize> {
    let text = std::str::from_utf8(wal).unwrap();
    let mut offset = 0usize;
    let ends: Vec<usize> = text
        .split_inclusive('\n')
        .map(|line| {
            offset += line.len();
            offset
        })
        .collect();
    assert_eq!(
        offset,
        wal.len(),
        "the recorded WAL must end with a newline"
    );
    ends
}

/// The number of Remove records of a WAL that carry recoloring moves.
fn moved_records(wal: &[u8]) -> usize {
    std::str::from_utf8(wal)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str::<WalRecord>(line).unwrap())
        .filter(
            |record| matches!(&record.event, WalEvent::Remove { moves, .. } if !moves.is_empty()),
        )
        .count()
}

#[test]
fn every_wal_truncation_recovers_the_pre_crash_state() {
    let (n, target, events, k) = CRASH;
    let (instance, trace) = churn_uniform(n, target, events, 42);
    assert_eq!(trace.len(), events);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    // The scheduler runs directly on the naive view, so `validate()` is the
    // naive-evaluator certification path.
    let view = eval.view(Variant::Bidirectional);
    let config = DynamicConfig::default();

    // Ground truth: the logical state after every prefix of the trace,
    // computed by the plain (non-durable) replay loop.
    let mut reference: Vec<SchedulerState> = Vec::with_capacity(events + 1);
    reference.push(DynamicScheduler::with_config(&view, config).export_state());
    replay_incremental_with(&view, &trace, |sched, _| {
        reference.push(sched.export_state());
    });

    // Recording run: a real on-disk session, capturing the bytes of the
    // snapshot file after creation and after every event — every snapshot
    // that could be on disk at any crash point.
    let record_dir = scratch_dir("record");
    let snapshot_path = record_dir.join(DiskStore::SNAPSHOT_FILE);
    let store = DiskStore::open(&record_dir).unwrap();
    let mut session = DurableScheduler::create(&view, config, k, store).unwrap();
    let mut snap_after: Vec<Vec<u8>> = Vec::with_capacity(events + 1);
    snap_after.push(fs::read(&snapshot_path).unwrap());
    for &event in &trace.events {
        apply(&mut session, event);
        snap_after.push(fs::read(&snapshot_path).unwrap());
    }
    assert_eq!(session.scheduler().export_state(), reference[events]);
    drop(session); // crash: only the files survive
    let wal = fs::read(record_dir.join(DiskStore::WAL_FILE)).unwrap();

    // Index the log: the byte offset past each line's newline. Every line
    // is one event.
    let line_ends = index_log(&wal);
    assert_eq!(line_ends.len(), events, "one record per event");
    assert!(
        moved_records(&wal) > 0,
        "the trace must trigger recoloring migrations (Remove records with moves)"
    );

    // The sweep: truncate the WAL at every byte offset. `ev` counts the
    // complete (newline-terminated) lines — the events recovery must
    // reproduce; a torn final line must be dropped.
    // Each truncation is paired with both snapshots that can coexist with it
    // on disk: the one taken after event `ev` (checkpoint already written
    // when the crash hit) and the one before it (crash between the append
    // and the checkpoint).
    let crash_dir = scratch_dir("crash");
    let crash_wal = crash_dir.join(DiskStore::WAL_FILE);
    let crash_snapshot = crash_dir.join(DiskStore::SNAPSHOT_FILE);
    let mut ev = 0usize;
    let mut validated: HashSet<(usize, usize)> = HashSet::new();
    for b in 0..=wal.len() {
        while ev < line_ends.len() && line_ends[ev] <= b {
            ev += 1;
        }
        let mut candidates = vec![ev];
        let prev = ev.saturating_sub(1);
        if prev != ev && snap_after[prev] != snap_after[ev] {
            candidates.push(prev);
        }
        for s in candidates {
            fs::write(&crash_wal, &wal[..b]).unwrap();
            fs::write(&crash_snapshot, &snap_after[s]).unwrap();
            let store = DiskStore::open(&crash_dir).unwrap();
            let recovered = DurableScheduler::recover(&view, store)
                .unwrap_or_else(|e| panic!("recovery failed at byte {b}/snapshot {s}: {e}"));
            assert_eq!(
                recovered.scheduler().export_state(),
                reference[ev],
                "recovered coloring diverges at byte {b}/snapshot {s} ({ev} events durable)"
            );
            // Certify each distinct recovered scheduler once, at the record
            // boundary where it first appears: a mid-line truncation drops
            // its torn line, so it rebuilds the very scheduler already
            // certified.
            let at_boundary = b == 0 || wal[b - 1] == b'\n';
            if at_boundary && validated.insert((ev, s)) {
                recovered.scheduler().validate().unwrap_or_else(|e| {
                    panic!("certification failed at byte {b}/snapshot {s}: {e}")
                });
            }
        }
    }
    assert!(validated.len() > events, "every record boundary certified");
    let _ = fs::remove_dir_all(&record_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

/// (universe n, target live, events, checkpoint cadence K) for the
/// sparse-backed crash sweep — smaller than [`CRASH`] because every
/// truncation point rebuilds a fresh sparse backend (grid and all), which
/// is exactly what a post-crash process would do.
#[cfg(debug_assertions)]
const SPARSE_CRASH: (usize, usize, usize, usize) = (48, 30, 100, 6);
#[cfg(not(debug_assertions))]
const SPARSE_CRASH: (usize, usize, usize, usize) = (120, 72, 360, 12);

#[test]
fn every_wal_truncation_recovers_the_sparse_backed_state() {
    // The durability guarantee: the truncate-at-every-byte sweep
    // over a session running on the churn-capable **sparse** backend at its
    // default (patched pads, never rebuilt on a timer), where recovery
    // rebuilds the spatial grid from scratch and must still reproduce the
    // pre-crash coloring bit-for-bit. The backend's verdicts depend on its
    // mutation history, which a fresh backend does not share; recovery
    // holds because it applies the logged placements instead of asking the
    // backend again. A coarse cutoff makes the conservative pads, not just
    // stored entries, part of the recorded verdicts.
    let (n, target, events, k) = SPARSE_CRASH;
    let (instance, trace) = churn_uniform(n, target, events, 47);
    assert_eq!(trace.len(), events);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let sparse_config = SparseConfig {
        cutoff_fraction: 0.05,
        ..SparseConfig::default()
    };
    let fresh_backend = || SparseChurnMatrix::new(&view, &sparse_config);
    let config = DynamicConfig::default();

    // Ground truth per prefix, replayed on its own fresh sparse backend: the
    // same events from an empty backend make the same history.
    let reference_backend = fresh_backend();
    let mut reference: Vec<SchedulerState> = Vec::with_capacity(events + 1);
    reference.push(DynamicScheduler::with_config(&reference_backend, config).export_state());
    replay_incremental_with(&reference_backend, &trace, |sched, _| {
        reference.push(sched.export_state());
    });

    // Recording run on another fresh sparse backend, with the same history
    // as the reference replay.
    let record_dir = scratch_dir("sparse-record");
    let snapshot_path = record_dir.join(DiskStore::SNAPSHOT_FILE);
    let record_backend = fresh_backend();
    let store = DiskStore::open(&record_dir).unwrap();
    let mut session = DurableScheduler::create(&record_backend, config, k, store).unwrap();
    let mut snap_after: Vec<Vec<u8>> = Vec::with_capacity(events + 1);
    snap_after.push(fs::read(&snapshot_path).unwrap());
    for &event in &trace.events {
        apply(&mut session, event);
        snap_after.push(fs::read(&snapshot_path).unwrap());
    }
    assert_eq!(session.scheduler().export_state(), reference[events]);
    session.scheduler().validate_against(&view).unwrap();
    drop(session); // crash: only the files survive
    let wal = fs::read(record_dir.join(DiskStore::WAL_FILE)).unwrap();

    let line_ends = index_log(&wal);
    assert_eq!(line_ends.len(), events, "one record per event");
    assert!(
        moved_records(&wal) > 0,
        "the trace must trigger recoloring migrations (Remove records with moves)"
    );

    // The sweep, as in the dense harness — but every recovery attempt gets
    // a brand-new sparse backend (fresh grid, no materialized rows), the
    // post-crash reality.
    let crash_dir = scratch_dir("sparse-crash");
    let crash_wal = crash_dir.join(DiskStore::WAL_FILE);
    let crash_snapshot = crash_dir.join(DiskStore::SNAPSHOT_FILE);
    let mut ev = 0usize;
    let mut validated: HashSet<(usize, usize)> = HashSet::new();
    for b in 0..=wal.len() {
        while ev < line_ends.len() && line_ends[ev] <= b {
            ev += 1;
        }
        let mut candidates = vec![ev];
        let prev = ev.saturating_sub(1);
        if prev != ev && snap_after[prev] != snap_after[ev] {
            candidates.push(prev);
        }
        for s in candidates {
            fs::write(&crash_wal, &wal[..b]).unwrap();
            fs::write(&crash_snapshot, &snap_after[s]).unwrap();
            let store = DiskStore::open(&crash_dir).unwrap();
            let recovery_backend = fresh_backend();
            let recovered = DurableScheduler::recover(&recovery_backend, store)
                .unwrap_or_else(|e| panic!("sparse recovery failed at byte {b}/snapshot {s}: {e}"));
            assert_eq!(
                recovered.scheduler().export_state(),
                reference[ev],
                "sparse-backed recovery diverges at byte {b}/snapshot {s} ({ev} events durable)"
            );
            // Certify each distinct recovered state once against the naive
            // evaluator — the rebuilt grid's verdicts must be conservative,
            // not merely self-consistent.
            let at_boundary = b == 0 || wal[b - 1] == b'\n';
            if at_boundary && validated.insert((ev, s)) {
                recovered
                    .scheduler()
                    .validate_against(&view)
                    .unwrap_or_else(|e| {
                        panic!("sparse certification failed at byte {b}/snapshot {s}: {e}")
                    });
                recovered
                    .scheduler()
                    .validate()
                    .unwrap_or_else(|e| panic!("drift check failed at byte {b}/snapshot {s}: {e}"));
            }
        }
    }
    assert!(validated.len() > events, "every record boundary certified");
    let _ = fs::remove_dir_all(&record_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

/// (universe n, target live, events, checkpoint cadence K) for the prefix
/// recovery on the served sparse configuration.
#[cfg(debug_assertions)]
const SPARSE_PREFIX: (usize, usize, usize, usize) = (200, 120, 400, 37);
#[cfg(not(debug_assertions))]
const SPARSE_PREFIX: (usize, usize, usize, usize) = (300, 180, 1200, 37);

#[test]
fn every_prefix_recovers_exactly_on_the_default_sparse_backend() {
    // The configuration the daemon serves above the dense budget: the
    // default `SparseConfig` with patched pads, whose verdicts depend on
    // the backend's history. After every event a copy of the store is
    // recovered onto a fresh backend, which shares none of that history,
    // and the recovered coloring must be the live one.
    let (n, target, events, k) = SPARSE_PREFIX;
    let (instance, trace) = churn_uniform(n, target, events, 3);
    let eval = instance.evaluator(SinrParams::default(), &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let sparse_config = SparseConfig::default();
    let backend = SparseChurnMatrix::new(&view, &sparse_config);
    let config = DynamicConfig::default();
    let mut session = DurableScheduler::create(&backend, config, k, MemoryStore::new()).unwrap();
    let mut diverged = Vec::new();
    for (index, &event) in trace.events.iter().enumerate() {
        apply(&mut session, event);
        let fresh = SparseChurnMatrix::new(&view, &sparse_config);
        let recovered = DurableScheduler::recover(&fresh, session.store().clone());
        if !recovered
            .is_ok_and(|r| r.scheduler().export_state() == session.scheduler().export_state())
        {
            diverged.push(index + 1);
        }
    }
    assert!(
        diverged.is_empty(),
        "recovery came back wrong or failed for {} of {events} prefixes, after these event \
         counts: {diverged:?}",
        diverged.len()
    );
    session.scheduler().validate_against(&view).unwrap();
}

#[test]
fn recovery_is_deterministic_across_checkpoint_cadences() {
    // Satellite regression: snapshot-at-K + replay-tail must equal the
    // full-WAL replay (and the plain in-memory replay) for K ∈ {1, 7, 64}
    // on a seed-pinned trace — one snapshot per event, mid-cadence, and a
    // cadence longer than the trace's checkpoint-free stretches.
    let (instance, trace) = churn_uniform(80, 48, 240, 7);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let config = DynamicConfig::default();
    let expected = replay_incremental(&view, &trace).export_state();
    for cadence in [1usize, 7, 64] {
        let session = replay_durable(&view, &trace, config, cadence, MemoryStore::new()).unwrap();
        assert_eq!(
            session.scheduler().export_state(),
            expected,
            "durable replay diverges for K={cadence}"
        );
        let records: Vec<WalRecord> = session.store().records().to_vec();
        let store = session.into_store();
        let replayed = replay_records(&view, config, &records).unwrap();
        assert_eq!(
            replayed.export_state(),
            expected,
            "full-WAL replay diverges for K={cadence}"
        );
        let recovered = DurableScheduler::recover(&view, store).unwrap();
        assert_eq!(
            recovered.scheduler().export_state(),
            expected,
            "snapshot+tail recovery diverges for K={cadence}"
        );
        recovered.validate().unwrap();
        recovered.scheduler().validate_against(&view).unwrap();
    }
}

#[test]
fn disk_recovery_error_paths_are_typed() {
    let (instance, trace) = churn_uniform(30, 18, 40, 3);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let config = DynamicConfig::default();
    let dir = scratch_dir("errors");

    // An empty/absent store (no snapshot, no WAL) is a typed NoSession, not
    // a panic — and the same holds when only an empty WAL file exists,
    // since DiskStore::open creates it eagerly.
    let store = DiskStore::open(dir.join("fresh")).unwrap();
    assert!(fs::metadata(dir.join("fresh").join(DiskStore::WAL_FILE)).is_ok());
    assert!(matches!(
        DurableScheduler::recover(&view, store),
        Err(DurabilityError::NoSession)
    ));

    // A recorded session whose WAL gains a garbage *terminated* line is
    // typed Corrupt (a torn, unterminated line would be dropped instead).
    let session_dir = dir.join("corrupt");
    let store = DiskStore::open(&session_dir).unwrap();
    let mut session = DurableScheduler::create(&view, config, 1000, store).unwrap();
    for &event in &trace.events[..20] {
        apply(&mut session, event);
    }
    drop(session);
    let wal_path = session_dir.join(DiskStore::WAL_FILE);
    let mut wal = fs::read_to_string(&wal_path).unwrap();
    let cut = wal.find('\n').unwrap() + 1;
    wal.insert_str(cut, "{not json}\n");
    fs::write(&wal_path, &wal).unwrap();
    let store = DiskStore::open(&session_dir).unwrap();
    match DurableScheduler::recover(&view, store) {
        Err(DurabilityError::Corrupt {
            seq: Some(1),
            detail,
        }) => {
            assert!(
                detail.contains("does not parse"),
                "unexpected detail: {detail}"
            );
        }
        Err(e) => panic!("expected Corrupt at seq 1, got {e}"),
        Ok(_) => panic!("expected Corrupt at seq 1, got a recovered session"),
    }

    // A tail in the format before records held their effects (an Insert
    // without its color) is refused the same way.
    let current = fs::read_to_string(&wal_path).unwrap();
    let first = current.find('\n').unwrap();
    let old = r#"{"seq":0,"event":{"Insert":{"item":0,"id":0}}}"#;
    fs::write(&wal_path, format!("{old}{}", &current[first..])).unwrap();
    let store = DiskStore::open(&session_dir).unwrap();
    assert!(matches!(
        DurableScheduler::recover(&view, store),
        Err(DurabilityError::Corrupt { seq: Some(0), .. })
    ));
    fs::write(&wal_path, &current).unwrap();

    // A snapshot that covers every old-format line, as a clean close leaves
    // it, recovers without reading them, and the session logs on after them.
    let upgraded = dir.join("upgraded");
    let store = DiskStore::open(&upgraded).unwrap();
    let mut session = DurableScheduler::create(&view, config, 1000, store).unwrap();
    apply(&mut session, trace.events[0]);
    session.checkpoint().unwrap();
    drop(session);
    fs::write(upgraded.join(DiskStore::WAL_FILE), format!("{old}\n")).unwrap();
    let store = DiskStore::open(&upgraded).unwrap();
    let mut session = DurableScheduler::recover(&view, store).unwrap();
    apply(&mut session, trace.events[1]);
    let expected = session.scheduler().export_state();
    drop(session);
    let store = DiskStore::open(&upgraded).unwrap();
    let recovered = DurableScheduler::recover(&view, store).unwrap();
    assert_eq!(recovered.scheduler().export_state(), expected);
    assert_eq!(recovered.scheduler().len(), 2);

    // Truncating the same WAL to an unterminated prefix of its first line
    // is a torn write: recovery succeeds with zero events replayed.
    let first_line = wal.find('\n').unwrap();
    fs::write(&wal_path, &wal.as_bytes()[..first_line.saturating_sub(2)]).unwrap();
    // Pair it with the initial (empty) snapshot: rewrite it from a fresh
    // create in a sibling dir.
    let fresh_dir = dir.join("fresh-snapshot");
    let fresh = DiskStore::open(&fresh_dir).unwrap();
    let created = DurableScheduler::create(&view, config, 1000, fresh).unwrap();
    drop(created);
    fs::copy(
        fresh_dir.join(DiskStore::SNAPSHOT_FILE),
        session_dir.join(DiskStore::SNAPSHOT_FILE),
    )
    .unwrap();
    let store = DiskStore::open(&session_dir).unwrap();
    let recovered = DurableScheduler::recover(&view, store).unwrap();
    assert!(recovered.scheduler().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_replay_runs_e10_style_traces() {
    // The churn replay helper wired into the bench layer runs a full
    // E10-style trace durably and recovers to the same live set the plain
    // replay reports.
    let (instance, trace) = churn_uniform(50, 30, 150, 9);
    let params = SinrParams::new(3.0, 1.0).unwrap();
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let session = replay_durable(
        &view,
        &trace,
        DynamicConfig::default(),
        13,
        MemoryStore::new(),
    )
    .unwrap();
    let mut live = session.scheduler().live_items();
    live.sort_unstable();
    assert_eq!(live, trace.final_live());
    let recovered = DurableScheduler::recover(&view, session.into_store()).unwrap();
    let mut recovered_live = recovered.scheduler().live_items();
    recovered_live.sort_unstable();
    assert_eq!(recovered_live, trace.final_live());
    recovered.validate().unwrap();
}
