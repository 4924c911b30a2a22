//! Recovery-on-restart, end to end against the real daemon binary: open
//! sessions, churn them, SIGKILL the daemon mid-churn (no close, no final
//! checkpoint — crash-point style per the PR-6 durability tests), restart
//! it over the same data directory, and assert every session's recovered
//! coloring is bit-for-bit the pre-crash state and naive-certified — on the
//! dense tier and on the sparse tier the daemon picks past the dense
//! budget.

use oblisched::scheduler::EngineBackend;
use oblisched::solve::PowerAssignment;
use oblisched_instances::{churn_trace_for, ChurnEvent, ChurnTrace, Family};
use oblisched_server::load::Client;
use oblisched_server::protocol::{
    IdRef, ItemRef, NameRef, OpenSpec, SessionVerb, StatsSpec, WireErrorKind, WireRequest,
    WireResponse,
};
use oblisched_server::{send_shutdown, LoadError};
use oblisched_sinr::Variant;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// The daemon process under test; killed on drop so a failing assert never
/// leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(data_dir: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_oblisched-server"))
            .args(["--addr", "127.0.0.1:0", "--no-timing", "--data-dir"])
            .arg(data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn oblisched-server");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        // {"listening":{"addr":"127.0.0.1:PORT"}}
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    /// SIGKILL — the hard-crash path; nothing gets to flush or checkpoint
    /// beyond what the per-append WAL discipline already persisted.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblisched-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_spec(name: &str, seed: u64) -> OpenSpec {
    OpenSpec {
        name: name.into(),
        family: Family::Scaling,
        n: 120,
        seed,
        assignment: PowerAssignment::SquareRoot,
        variant: Variant::Bidirectional,
        params: None,
        config: None,
        // A cadence far beyond the event count: recovery must come from
        // the initial snapshot plus a pure WAL-tail replay.
        checkpoint_every: Some(1_000),
        backend: None,
    }
}

/// One session of the crash test and the seed-pinned churn trace it
/// replays: `num_events` events around `target_live` live requests, with
/// the daemon killed after `crash_after` of them; `backend` is the tier the
/// daemon must pick for it.
struct CrashSession {
    spec: OpenSpec,
    target_live: usize,
    num_events: usize,
    crash_after: usize,
    backend: EngineBackend,
}

impl CrashSession {
    fn trace(&self) -> ChurnTrace {
        let (n, seed) = (self.spec.n, self.spec.seed);
        churn_trace_for(n, self.target_live, self.num_events, seed)
    }

    fn open(&self) -> WireRequest {
        WireRequest::Session(SessionVerb::Open(self.spec.clone()))
    }
}

/// Three scaling sessions that never checkpoint after their initial
/// snapshot, then one per other cadence: scaling/sqrt every 8 events,
/// clustered/uniform/directed after every event, and line/linear every 64
/// events, killed one event before its trace ends with no checkpoint since
/// creation. The last session's universe is past the 64 MiB dense budget
/// (8 · 2 · 2100² ≈ 70.6 MB), so it runs on the sparse tier at the
/// configuration the daemon serves, with a log tail past its snapshot at
/// the kill.
fn crash_sessions() -> Vec<CrashSession> {
    let mut sessions: Vec<CrashSession> = (0..3)
        .map(|i| CrashSession {
            spec: open_spec(&format!("crash-{i}"), 7 + i),
            target_live: 40,
            num_events: 120,
            crash_after: 70,
            backend: EngineBackend::Dense,
        })
        .collect();
    sessions.extend([
        CrashSession {
            spec: OpenSpec {
                n: 30,
                checkpoint_every: Some(8),
                ..open_spec("crash-scaling-sqrt", 42)
            },
            target_live: 18,
            num_events: 80,
            crash_after: 41,
            backend: EngineBackend::Dense,
        },
        CrashSession {
            spec: OpenSpec {
                family: Family::Clustered,
                n: 24,
                assignment: PowerAssignment::Uniform,
                variant: Variant::Directed,
                checkpoint_every: Some(1),
                ..open_spec("crash-clustered-uniform", 7)
            },
            target_live: 14,
            num_events: 60,
            crash_after: 30,
            backend: EngineBackend::Dense,
        },
        CrashSession {
            spec: OpenSpec {
                family: Family::Line,
                n: 20,
                assignment: PowerAssignment::Linear,
                checkpoint_every: Some(64),
                ..open_spec("crash-line-linear", 3)
            },
            target_live: 12,
            num_events: 50,
            crash_after: 49,
            backend: EngineBackend::Dense,
        },
        CrashSession {
            spec: OpenSpec {
                n: 2100,
                checkpoint_every: Some(16),
                ..open_spec("crash-sparse", 14)
            },
            target_live: 200,
            num_events: 220,
            crash_after: 171,
            backend: EngineBackend::Sparse,
        },
    ]);
    sessions
}

/// Applies `events[..upto]` to the named session, maintaining the
/// item → live-id map across the calls.
fn churn(client: &mut Client, name: &str, events: &[ChurnEvent], ids: &mut BTreeMap<usize, u64>) {
    for event in events {
        match *event {
            ChurnEvent::Arrive(item) => {
                let request = WireRequest::Session(SessionVerb::Insert(ItemRef {
                    name: name.into(),
                    item,
                }));
                match client.request(&request).expect("insert") {
                    WireResponse::Inserted(info) => {
                        ids.insert(item, info.id);
                    }
                    other => panic!("insert answered {other:?}"),
                }
            }
            ChurnEvent::Depart(item) => {
                let id = ids.remove(&item).expect("departing item is live");
                let request = WireRequest::Session(SessionVerb::Remove(IdRef {
                    name: name.into(),
                    id,
                }));
                match client.request(&request).expect("remove") {
                    WireResponse::Removed(_) => {}
                    other => panic!("remove answered {other:?}"),
                }
            }
        }
    }
}

fn stats(client: &mut Client, name: &str, validate: bool) -> (String, usize, bool) {
    let request = WireRequest::Session(SessionVerb::Stats(StatsSpec {
        name: name.into(),
        validate: Some(validate),
    }));
    match client.request(&request).expect("stats") {
        WireResponse::Stats(s) => (s.fingerprint, s.live, s.validated),
        other => panic!("stats answered {other:?}"),
    }
}

#[test]
fn killed_daemon_recovers_every_session_bit_for_bit() {
    let dir = temp_dir("recovery");
    let sessions = crash_sessions();

    // Phase 1: fresh daemon, open the sessions, churn each one to the
    // crash point, record its exact state fingerprint. No close, no
    // explicit checkpoint — the WAL tail is all that protects the state.
    let mut daemon = Daemon::start(&dir);
    let mut pre_crash: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut live_ids: BTreeMap<String, BTreeMap<usize, u64>> = BTreeMap::new();
    {
        let mut client = Client::connect(&daemon.addr).expect("connect");
        for session in &sessions {
            let name = &session.spec.name;
            match client.request(&session.open()).expect("open") {
                WireResponse::Opened(info) => {
                    assert!(!info.recovered, "fresh session");
                    assert_eq!(info.engine.backend, session.backend, "{name}: backend tier");
                }
                other => panic!("open answered {other:?}"),
            }
            let trace = session.trace();
            let mut ids = BTreeMap::new();
            churn(
                &mut client,
                name,
                &trace.events[..session.crash_after],
                &mut ids,
            );
            let (fingerprint, live, _) = stats(&mut client, name, false);
            assert!(live > 0, "{name}: the crash point leaves live requests");
            pre_crash.insert(name.clone(), (fingerprint, live));
            live_ids.insert(name.clone(), ids);
        }
    }
    daemon.kill();

    // Phase 2: restart over the same data directory. The startup scan must
    // bring every session back; its coloring must be bit-for-bit the
    // pre-crash state and must certify against the naive evaluator.
    let daemon = Daemon::start(&dir);
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    for session in &sessions {
        let name = &session.spec.name;
        match client.request(&session.open()).expect("re-open") {
            WireResponse::Opened(info) => {
                assert!(info.recovered, "{name} must attach to recovered state");
            }
            other => panic!("re-open answered {other:?}"),
        }
        let (fingerprint, live, validated) = stats(&mut client, name, true);
        let (expected_fingerprint, expected_live) = &pre_crash[name];
        assert_eq!(
            &fingerprint, expected_fingerprint,
            "{name}: recovered coloring differs from the pre-crash state"
        );
        assert_eq!(&live, expected_live, "{name}: live count diverged");
        assert!(validated, "{name}: naive certification must have run");
    }

    // The recovered sessions keep working: finish each trace and certify
    // the final state too.
    for session in &sessions {
        let name = &session.spec.name;
        let trace = session.trace();
        let mut ids = live_ids.remove(name).expect("pre-crash id map");
        churn(
            &mut client,
            name,
            &trace.events[session.crash_after..],
            &mut ids,
        );
        let (_, live, validated) = stats(&mut client, name, true);
        assert_eq!(live, ids.len(), "{name}: live set tracks the id map");
        assert!(validated);
    }

    // Satellite check: an open with a different DynamicConfig against the
    // recovered session is a *typed* config_mismatch carrying both configs.
    let mut wrong = sessions[0].spec.clone();
    wrong.config = Some(oblisched::dynamic::DynamicConfig {
        recolor_budget: 1,
        ..oblisched::dynamic::DynamicConfig::default()
    });
    let open = WireRequest::Session(SessionVerb::Open(wrong));
    match client.request(&open) {
        Err(LoadError::Wire(e)) => {
            assert_eq!(e.kind, WireErrorKind::ConfigMismatch);
            assert!(e.stored.is_some(), "stored config travels on the wire");
            assert!(
                e.requested.is_some(),
                "requested config travels on the wire"
            );
        }
        other => panic!("expected config_mismatch, got {other:?}"),
    }

    // Graceful shutdown still exits cleanly after all of that.
    let close = WireRequest::Session(SessionVerb::Close(NameRef {
        name: sessions[0].spec.name.clone(),
    }));
    client.request(&close).expect("close");
    send_shutdown(&daemon.addr).expect("shutdown");
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exit");
    assert!(
        status.success(),
        "graceful shutdown exits 0, got {status:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
