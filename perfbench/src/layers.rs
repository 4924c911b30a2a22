//! The in-process depths of the traced run. Each replays the same scripts
//! and solves one layer further out, with spans around the calls into
//! that layer's public functions:
//!
//! 1. `DynamicScheduler` over the backend `Scheduler::session_backend(Auto)`
//!    picks (also the reference replay every run checks against), and the
//!    solve pipeline taken apart into its public pieces next to
//!    `Scheduler::solve` itself;
//! 2. `DurableScheduler` over a timing `SessionStore` around `DiskStore`;
//! 3. `SessionRegistry`;
//! 4. `Server::dispatch_line`, with `parse_request` and `render_response`
//!    timed on the same lines.
//!
//! The fifth depth, the wire, is [`crate::wire::round`].

use crate::check::Tally;
use crate::daemon::pin_thread;
use crate::plan::{session_op_id, solve_op_id, Op, Script, Solve, SolveKind, PARALLEL_THREADS};
use crate::trace::{now_ns, span, Shared, Span, Tracer};
use crate::wire::{check_op, stats_of};
use oblisched::durability::{
    DiskStore, DurabilityError, DurableScheduler, SessionSnapshot, SessionStore, WalRecord,
    DEFAULT_CHECKPOINT_EVERY,
};
use oblisched::dynamic::{DynamicConfig, DynamicScheduler, RequestId};
use oblisched::greedy::first_fit_coloring;
use oblisched::parallel::{parallel_first_fit, tile_shards, ParallelConfig, DEFAULT_TARGET_SHARDS};
use oblisched::scheduler::{Scheduler, SessionBackend};
use oblisched::solve::{BackendPolicy, PowerAssignment};
use oblisched_instances::{build_family, Family, FamilyInstance};
use oblisched_metric::EuclideanSpace;
use oblisched_server::protocol::{SessionVerb, WireRequest};
use oblisched_server::session::state_fingerprint;
use oblisched_server::{parse_request, render_request, render_response, Server, ServerConfig};
use oblisched_server::{SessionRegistry, WireResponse};
use oblisched_sinr::{Instance, SinrParams, SparseConfig, SparseGainMatrix, Variant};
use std::path::Path;

/// Builds the scaling-family universe every workload uses.
pub fn universe(n: usize, seed: u64) -> Result<Instance<EuclideanSpace<2>>, String> {
    match build_family(Family::Scaling, n, seed) {
        Ok(FamilyInstance::Planar(instance)) => Ok(instance),
        Ok(FamilyInstance::Line(_)) => Err("the scaling family is planar".into()),
        Err(e) => Err(format!("build_family(scaling, {n}, {seed}): {e}")),
    }
}

/// Runs `f` inside a span when a tracer is given.
fn traced<T>(tracer: Option<&Shared>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => span(tracer, name, Some(op), f),
        None => f(),
    }
}

/// Runs `f` once per script on its own thread, each with its own tracer,
/// and returns the results in script order with every thread's spans.
pub fn per_script<T: Send>(
    scripts: &[Script],
    f: impl Fn(&Script, &Shared) -> T + Sync,
) -> (Vec<T>, Vec<Span>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let f = &f;
                scope.spawn(move || {
                    pin_thread(0, script.conn);
                    let tracer = Tracer::shared();
                    let out = f(script, &tracer);
                    let spans = tracer.borrow_mut().take();
                    (out, spans)
                })
            })
            .collect();
        let mut outs = Vec::with_capacity(handles.len());
        let mut spans = Vec::new();
        for handle in handles {
            let (out, mut s) = handle.join().expect("depth threads do not panic");
            outs.push(out);
            spans.append(&mut s);
        }
        (outs, spans)
    })
}

/// What the dynamic depth ends with.
#[derive(Debug, Clone, Default)]
pub struct DynamicRun {
    /// Fingerprint of the final scheduler state.
    pub fingerprint: u64,
    /// Removes replayed.
    pub removes: usize,
    /// Recolor moves those removes triggered.
    pub moves: usize,
    /// Sparse-churn rows materialized, entries stored and bytes at the end
    /// (zero on the dense tier).
    pub churn: [usize; 3],
    /// Span time of `Scheduler::session_backend`, in ns.
    pub session_backend_ns: u64,
}

/// Depth 1: the script on a bare `DynamicScheduler`, on the same backend
/// the daemon picks. Untraced, it is the reference replay.
pub fn dynamic_depth(script: &Script, tracer: Option<&Shared>) -> Result<DynamicRun, String> {
    let open = session_op_id(script.conn, 0);
    let instance = traced(tracer, "instances.build_family", open, || {
        universe(script.universe, script.seed)
    })?;
    let params = SinrParams::default();
    let eval = instance.evaluator(params, &PowerAssignment::SquareRoot.scheme());
    let view = eval.view(Variant::Bidirectional);
    let start = now_ns();
    let (backend, _) = traced(tracer, "scheduler.session_backend", open, || {
        Scheduler::new(params).session_backend(&view, BackendPolicy::Auto)
    });
    let mut run = DynamicRun {
        session_backend_ns: now_ns() - start,
        ..DynamicRun::default()
    };
    let mut sched = DynamicScheduler::with_config(&backend, DynamicConfig::default());
    for (index, &op) in script.ops.iter().enumerate() {
        let id = session_op_id(script.conn, index + 1);
        match op {
            Op::Insert { item, id: want } => {
                let got = traced(tracer, "dynamic.insert", id, || sched.insert(item))
                    .map_err(|e| format!("insert {item}: {e}"))?;
                if got.raw() != want {
                    return Err(format!("insert {item} got id {got}, script says {want}"));
                }
            }
            Op::Remove { id: raw, .. } => {
                let removal = traced(tracer, "dynamic.remove", id, || {
                    sched.remove_traced(RequestId::from_raw(raw))
                })
                .map_err(|e| format!("remove {raw}: {e}"))?;
                run.removes += 1;
                run.moves += removal.moves.len();
            }
            Op::Color { id: raw } => {
                traced(tracer, "dynamic.color", id, || {
                    sched.color_of(RequestId::from_raw(raw))
                })
                .ok_or_else(|| format!("color of {raw}: not live"))?;
            }
        }
    }
    run.fingerprint = state_fingerprint(&sched.export_state());
    if let SessionBackend::Sparse(sparse) = &backend {
        run.churn = [
            sparse.materialized_rows(),
            sparse.stored_entries(),
            sparse.bytes(),
        ];
    }
    Ok(run)
}

/// A `DiskStore` whose appends and snapshots are spans of the op that
/// caused them.
struct TimedStore {
    inner: DiskStore,
    tracer: Shared,
}

impl SessionStore for TimedStore {
    fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        span(&self.tracer, "durability.append", None, || {
            self.inner.append(record)
        })
    }

    fn write_snapshot(&mut self, snapshot: &SessionSnapshot) -> Result<(), DurabilityError> {
        span(&self.tracer, "durability.snapshot", None, || {
            self.inner.write_snapshot(snapshot)
        })
    }

    fn load_snapshot(&self) -> Result<Option<SessionSnapshot>, DurabilityError> {
        self.inner.load_snapshot()
    }

    fn read_tail(&self, from_seq: u64) -> Result<Vec<WalRecord>, DurabilityError> {
        self.inner.read_tail(from_seq)
    }
}

/// What the durable depth ends with.
#[derive(Debug, Clone, Default)]
pub struct DurableRun {
    /// Churn events logged.
    pub events: u64,
    /// WAL records written.
    pub records: u64,
    /// Bytes of the WAL.
    pub wal_bytes: u64,
    /// Snapshots written, the creation checkpoint included.
    pub snapshots: u64,
    /// Bytes of the final snapshot.
    pub snapshot_bytes: u64,
    /// Span time of `DurableScheduler::recover` on a fresh backend, in ns.
    pub recover_ns: u64,
    /// Recoveries from a copy of the store taken mid-script, with a log
    /// tail to replay, that failed or came back different (0 or 1).
    pub tail_recover_failures: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Depth 2: the script on a `DurableScheduler` logging to `dir`, then a
/// recovery from that log onto a fresh backend, which must reproduce the
/// reference fingerprint.
pub fn durable_depth(
    script: &Script,
    dir: &Path,
    want: u64,
    tracer: &Shared,
    tally: &mut Tally,
) -> Result<DurableRun, String> {
    let instance = universe(script.universe, script.seed)?;
    let params = SinrParams::default();
    let eval = instance.evaluator(params, &PowerAssignment::SquareRoot.scheme());
    let view = eval.view(Variant::Bidirectional);
    let scheduler = Scheduler::new(params);
    let (backend, _) = scheduler.session_backend(&view, BackendPolicy::Auto);
    let store = TimedStore {
        inner: DiskStore::open(dir).map_err(|e| format!("open store: {e}"))?,
        tracer: tracer.clone(),
    };
    let open = session_op_id(script.conn, 0);
    let mut session = span(tracer, "durable.open", Some(open), || {
        DurableScheduler::create(
            &backend,
            DynamicConfig::default(),
            script.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            store,
        )
    })
    .map_err(|e| format!("create durable session: {e}"))?;
    let mut run = DurableRun::default();
    // An odd event count is never a checkpoint, so the copy taken there
    // has a log tail past its snapshot.
    let probe_at = (script.events() as u64 * 7 / 8) | 1;
    let probe_dir = dir.with_extension("probe");
    let mut probe_fingerprint = None;
    for (index, &op) in script.ops.iter().enumerate() {
        let id = Some(session_op_id(script.conn, index + 1));
        let ok = match op {
            Op::Insert { item, id: want } => {
                span(tracer, "durable.insert", id, || session.insert(item))
                    .is_ok_and(|got| got.raw() == want)
            }
            Op::Remove { id: raw, .. } => span(tracer, "durable.remove", id, || {
                session.remove(RequestId::from_raw(raw))
            })
            .is_ok(),
            Op::Color { id: raw } => span(tracer, "durable.color", id, || {
                session.scheduler().color_of(RequestId::from_raw(raw))
            })
            .is_some(),
        };
        tally.op(ok, || format!("durable {}: {op:?}", script.name));
        run.events += u64::from(op.is_write());
        if op.is_write() && run.events == probe_at {
            copy_store(dir, &probe_dir)?;
            probe_fingerprint = Some(state_fingerprint(&session.scheduler().export_state()));
        }
    }
    let fingerprint = state_fingerprint(&session.scheduler().export_state());
    tally.expect_eq("durable depth fingerprint", fingerprint, want);
    run.records = session.next_seq();
    run.snapshots = session.snapshots_written();
    run.wal_bytes = file_len(&dir.join(DiskStore::WAL_FILE));
    run.snapshot_bytes = file_len(&dir.join(DiskStore::SNAPSHOT_FILE));

    // Recover from the log onto a fresh backend, as a restarted daemon does.
    let store = session.into_store();
    let (fresh, _) = scheduler.session_backend(&view, BackendPolicy::Auto);
    let start = now_ns();
    let recovered = span(tracer, "durability.recover", Some(open), || {
        DurableScheduler::recover(&fresh, store)
    });
    run.recover_ns = now_ns() - start;
    match recovered {
        Ok(session) => tally.expect_eq(
            "recovered durable fingerprint",
            state_fingerprint(&session.scheduler().export_state()),
            fingerprint,
        ),
        Err(e) => tally.op(false, || format!("durable {} recovery: {e}", script.name)),
    }

    // The mid-script copy: recovery replays a log tail after the snapshot.
    // It is reported as a count, not as a failed op, while the known
    // sparse-tier tail-replay divergence stands (ROADMAP open item 1).
    if let Some(want) = probe_fingerprint {
        let (fresh, _) = scheduler.session_backend(&view, BackendPolicy::Auto);
        let store = DiskStore::open(&probe_dir).map_err(|e| format!("open probe store: {e}"))?;
        let same = DurableScheduler::recover(&fresh, store)
            .is_ok_and(|s| state_fingerprint(&s.scheduler().export_state()) == want);
        run.tail_recover_failures = u64::from(!same);
    }
    Ok(run)
}

/// Copies a session store's WAL and snapshot into `to`.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for file in [DiskStore::WAL_FILE, DiskStore::SNAPSHOT_FILE] {
        std::fs::copy(from.join(file), to.join(file))
            .map_err(|e| format!("copy {file} to {}: {e}", to.display()))?;
    }
    Ok(())
}

/// Depth 3: the scripts through one in-process `SessionRegistry`, one
/// thread per session as in the daemon.
pub fn registry_depth(
    scripts: &[Script],
    dir: &Path,
    want: &[u64],
) -> Result<(Vec<Span>, Tally), String> {
    let registry = SessionRegistry::new(dir).map_err(|e| format!("registry: {e}"))?;
    let (tallies, spans) = per_script(scripts, |script, tracer| {
        let mut tally = Tally::default();
        let name = script.name.as_str();
        let opened = span(
            tracer,
            "registry.open",
            Some(session_op_id(script.conn, 0)),
            || registry.open(&script.open_spec()),
        );
        tally.op(opened.is_ok(), || {
            format!("registry open {name}: {opened:?}")
        });
        for (index, &op) in script.ops.iter().enumerate() {
            let id = Some(session_op_id(script.conn, index + 1));
            let ok = match op {
                Op::Insert { item, id: want } => span(tracer, "registry.insert", id, || {
                    registry.insert(name, item)
                })
                .is_ok_and(|r| r.id == want),
                Op::Remove { id: raw, .. } => {
                    span(tracer, "registry.remove", id, || registry.remove(name, raw)).is_ok()
                }
                Op::Color { id: raw } => {
                    span(tracer, "registry.color", id, || registry.color(name, raw)).is_ok()
                }
            };
            tally.op(ok, || format!("registry {name}: {op:?}"));
        }
        match registry.stats(name, true) {
            Ok(stats) => tally.expect_eq(
                "registry fingerprint",
                stats.fingerprint.clone(),
                format!("{:016x}", want[script.conn]),
            ),
            Err(e) => tally.op(false, || format!("registry stats {name}: {e}")),
        }
        tally
    });
    registry.shutdown_all();
    let mut tally = Tally::default();
    tallies.into_iter().for_each(|t| tally.merge(t));
    Ok((spans, tally))
}

/// Parses, dispatches and renders one line with a span around each step.
fn dispatch(server: &Server, tracer: &Shared, line: &str, op: u64) -> WireResponse {
    span(tracer, "protocol.parse", Some(op), || {
        parse_request(line).is_ok()
    });
    let response = span(tracer, "server.dispatch_line", Some(op), || {
        server.dispatch_line(line)
    });
    span(tracer, "protocol.render", Some(op), || {
        render_response(&response).len()
    });
    response
}

/// Depth 4: the scripts and the solves through `Server::dispatch_line` of
/// an in-process server that never accepts a connection.
pub fn dispatch_depth(
    scripts: &[Script],
    lines: &[Vec<String>],
    solves: &[Solve],
    solve_lines: &[String],
    want: &[u64],
    solve_colors: &[usize],
    dir: &Path,
) -> Result<(Vec<Span>, Tally), String> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        clock: None,
    })
    .map_err(|e| format!("bind in-process server: {e}"))?;
    let (tallies, mut spans) = per_script(scripts, |script, tracer| {
        let mut tally = Tally::default();
        let open = render_request(&WireRequest::Session(SessionVerb::Open(script.open_spec())));
        let opened = dispatch(&server, tracer, &open, session_op_id(script.conn, 0));
        tally.op(matches!(opened, WireResponse::Opened(_)), || {
            format!("dispatch open: {opened:?}")
        });
        for (index, (&op, line)) in script.ops.iter().zip(&lines[script.conn]).enumerate() {
            let response = dispatch(&server, tracer, line, session_op_id(script.conn, index + 1));
            let checked = check_op(op, &response);
            tally.op(checked.is_ok(), || {
                format!("dispatch {}: {checked:?}", script.name)
            });
        }
        let stats = server.dispatch_line(&render_request(&script.stats_request(true)));
        match stats_of(&stats) {
            Ok((fp, _, validated)) => tally.op(fp == want[script.conn] && validated, || {
                format!("dispatch {} fingerprint {fp:016x}", script.name)
            }),
            Err(e) => tally.op(false, || format!("dispatch stats: {e}")),
        }
        tally
    });
    let mut tally = Tally::default();
    tallies.into_iter().for_each(|t| tally.merge(t));
    let tracer = Tracer::shared();
    for (index, (line, &want)) in solve_lines.iter().zip(solve_colors).enumerate() {
        let response = dispatch(&server, &tracer, line, solve_op_id(index));
        let colors = match response {
            WireResponse::Solved(outcome) => Some(outcome.colors),
            _ => None,
        };
        tally.expect_eq(solves[index].kind.label(), colors, Some(want));
    }
    spans.append(&mut tracer.borrow_mut().take());
    server.registry().shutdown_all();
    Ok((spans, tally))
}

/// The facade's solve pipeline taken apart into the public functions it
/// calls, each in a span when traced. Returns the schedule's colors and
/// the entries the sparse-kind matrix stored.
fn solve_pieces(
    solve: &Solve,
    instance: &Instance<EuclideanSpace<2>>,
    op: u64,
    t: Option<&Shared>,
) -> (usize, usize, bool) {
    let job = &solve.job;
    let eval = instance.evaluator(
        job.params.unwrap_or_default(),
        &job.request.assignment.scheme(),
    );
    let view = eval.view(job.request.variant);
    let mut stored_entries = 0;
    let schedule = match solve.kind {
        SolveKind::Dense => {
            let matrix = traced(t, "engine.dense_build", op, || view.cached());
            traced(t, "greedy.first_fit", op, || first_fit_coloring(&matrix))
        }
        SolveKind::Sparse => {
            let sparse = traced(t, "sparse.build", op, || {
                SparseGainMatrix::build(&view, &SparseConfig::default())
            });
            stored_entries = sparse.stored_entries();
            traced(t, "greedy.first_fit", op, || first_fit_coloring(&sparse))
        }
        SolveKind::Parallel => {
            let shards = traced(t, "parallel.shards", op, || {
                tile_shards(instance, DEFAULT_TARGET_SHARDS)
            });
            let config = SparseConfig {
                build_threads: PARALLEL_THREADS,
                ..SparseConfig::default()
            };
            let sparse = traced(t, "parallel.sparse_build", op, || {
                SparseGainMatrix::build(&view, &config)
            });
            traced(t, "parallel.first_fit", op, || {
                parallel_first_fit(
                    &sparse,
                    &shards,
                    &ParallelConfig::with_threads(PARALLEL_THREADS),
                )
            })
        }
    };
    let valid = traced(t, "schedule.validate", op, || {
        schedule.validate(&eval, job.request.variant).is_ok()
    });
    (schedule.num_colors(), stored_entries, valid)
}

/// Depth 1 of a solve: `Scheduler::solve` in a span, and when traced also
/// its pipeline taken apart ([`solve_pieces`]). The pieces run once
/// untraced before the facade, so that neither side pays for first-touch
/// page faults alone, and once traced after it. Returns the facade's
/// colors (the pieces must agree) and the sparse-kind matrix's entries.
pub fn solve_depth(
    index: usize,
    solve: &Solve,
    tracer: Option<&Shared>,
    tally: &mut Tally,
) -> Result<(usize, usize), String> {
    let op = solve_op_id(index);
    let job = &solve.job;
    let instance = traced(tracer, "instances.build_family", op, || {
        universe(job.n, job.seed)
    })?;
    if tracer.is_some() {
        solve_pieces(solve, &instance, op, None);
    }
    let facade = traced(tracer, "scheduler.solve", op, || {
        Scheduler::new(job.params.unwrap_or_default()).solve(&instance, &job.request)
    })
    .map_err(|e| format!("solve {index}: {e}"))?;
    let Some(tracer) = tracer else {
        return Ok((facade.num_colors(), 0));
    };
    let (colors, stored_entries, valid) = solve_pieces(solve, &instance, op, Some(tracer));
    tally.op(valid, || {
        format!("solve {index}: pieces produced an invalid schedule")
    });
    tally.expect_eq("pieces vs facade colors", colors, facade.num_colors());
    Ok((facade.num_colors(), stored_entries))
}
