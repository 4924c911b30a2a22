//! The daemon core: a `std::net` accept loop with one scoped worker thread
//! per connection, dispatching wire requests to the batch solver and the
//! [`SessionRegistry`].
//!
//! Connection handling is defensive by construction: every request line —
//! including malformed JSON and bytes that are not UTF-8 — yields exactly
//! one response line on the same connection (a typed [`WireError`] when
//! anything goes wrong), and a panic while serving a request is caught and
//! answered as an `internal` error rather than dropping the connection or
//! the daemon. Lines are read as bytes under a 1 MiB cap: an over-long line
//! is the one request answered with an error *and* a hang-up, since the
//! rest of it is never read.
//!
//! Shutdown is a wire verb, not a signal: any client may send
//! `{"shutdown":{}}`. The daemon answers `{"shutting_down":{}}`, stops
//! accepting, half-closes every open connection's read side so workers
//! drain at their next read, then checkpoints and joins every session actor
//! before [`Server::run`] returns — the clean-exit path ci.sh asserts. A
//! hard kill (SIGKILL) is also safe: the WAL is flushed per append, which
//! is exactly what the restart-recovery test exercises.
//!
//! This module never reads the wall clock. The daemon binary *injects* a
//! monotonic clock (for `solved.wall_ms`) via [`ServerConfig::clock`];
//! under `--no-timing` — or in in-process test servers — no clock is
//! injected and timing fields render as zero, keeping transcripts
//! byte-deterministic for golden diffs.

use crate::protocol::{
    parse_request, render_response, SessionVerb, SolveJob, SolveOutcome, WireError, WireErrorKind,
    WireRequest, WireResponse,
};
use crate::session::SessionRegistry;
use oblisched::scheduler::{Scheduler, DEFAULT_MATRIX_BUDGET};
use oblisched::solve::{SolveRequest, SolveStrategy};
use oblisched_instances::{build_family, FamilyInstance};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The longest request line the daemon reads, not counting its newline. A
/// longer line is answered with a `bad_request` error and the connection is
/// closed, so a client that never sends a newline cannot grow the daemon's
/// memory without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A millisecond clock the daemon binary injects for `solved.wall_ms`;
/// `None` (the default, and the `--no-timing` convention) renders all
/// timing fields as zero for byte-deterministic transcripts.
pub type ClockMs = fn() -> f64;

/// Configuration of a [`Server`].
pub struct ServerConfig {
    /// The address to bind, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Root directory for durable session state (`<data_dir>/<name>/`).
    pub data_dir: PathBuf,
    /// Optional millisecond clock for `solved.wall_ms`.
    pub clock: Option<ClockMs>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The scheduler daemon: listener + session registry + shutdown machinery.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    registry: SessionRegistry,
    clock: Option<ClockMs>,
    shutdown: AtomicBool,
    /// A clone of every open connection, keyed by accept order, so shutdown
    /// can half-close them; each worker removes its own entry on exit.
    connections: Mutex<BTreeMap<u64, TcpStream>>,
}

impl Server {
    /// Binds the listener and opens the session registry (creating the
    /// data directory if needed). Does not recover sessions or accept yet.
    ///
    /// # Errors
    ///
    /// Bind / directory-creation failures.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = SessionRegistry::new(&config.data_dir)?;
        Ok(Server {
            listener,
            local_addr,
            registry,
            clock: config.clock,
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(BTreeMap::new()),
        })
    }

    /// The bound address (the ephemeral port, when `addr` ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The session registry behind the daemon.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Respawns an actor for every session persisted under the data
    /// directory — call once before [`run`](Server::run). Returns one
    /// `(name, outcome)` row per on-disk session.
    pub fn recover_sessions(
        &self,
    ) -> Vec<(String, Result<crate::protocol::OpenedInfo, WireError>)> {
        self.registry.recover_all()
    }

    /// Serves connections until a `shutdown` request arrives, then drains
    /// workers, checkpoints and joins every session actor, and returns.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures (per-connection errors are contained).
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| -> std::io::Result<()> {
            for (id, incoming) in (0u64..).zip(self.listener.incoming()) {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match incoming {
                    Ok(stream) => stream,
                    Err(e) => {
                        if self.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        return Err(e);
                    }
                };
                if let Ok(tracked) = stream.try_clone() {
                    lock(&self.connections).insert(id, tracked);
                }
                scope.spawn(move || {
                    self.serve_connection(stream);
                    lock(&self.connections).remove(&id);
                });
            }
            Ok(())
        })?;
        // All workers have drained; flush every session to its snapshot.
        self.registry.shutdown_all();
        Ok(())
    }

    /// Flips the shutdown flag, wakes the accept loop, and half-closes
    /// every tracked connection so workers drain at their next read.
    pub fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Self-connect to unblock the accept loop (std has no non-blocking
        // cancel path for a blocking accept).
        let _ = TcpStream::connect(self.local_addr);
        for stream in lock(&self.connections).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn serve_connection(&self, stream: TcpStream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let mut writer = write_half;
        let mut reader = BufReader::new(stream);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // One byte past the cap tells an over-long line from one that
            // fills the cap exactly.
            let limit = (MAX_LINE_BYTES + 1) as u64;
            match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let terminated = buf.last() == Some(&b'\n');
            let over_cap = !terminated && buf.len() > MAX_LINE_BYTES;
            let response = if over_cap {
                WireResponse::Error(WireError::new(
                    WireErrorKind::BadRequest,
                    format!("request line longer than {MAX_LINE_BYTES} bytes"),
                ))
            } else {
                let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
                match std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => self.dispatch_line(line),
                    Err(e) => WireResponse::Error(WireError::new(
                        WireErrorKind::BadRequest,
                        format!("request line is not UTF-8: {e}"),
                    )),
                }
            };
            let shutting_down = matches!(response, WireResponse::ShuttingDown);
            let mut rendered = render_response(&response);
            rendered.push('\n');
            if writer.write_all(rendered.as_bytes()).is_err() || writer.flush().is_err() {
                break;
            }
            if over_cap {
                // The rest of the line is never read: answer, then hang up.
                let _ = writer.shutdown(Shutdown::Write);
                break;
            }
            if shutting_down {
                self.initiate_shutdown();
            }
        }
    }

    /// Parses and serves one request line; never panics, never drops the
    /// connection — every outcome is a response line.
    pub fn dispatch_line(&self, line: &str) -> WireResponse {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => return WireResponse::Error(e),
        };
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(&request))) {
            Ok(response) => response,
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic while serving the request");
                WireResponse::Error(WireError::new(
                    WireErrorKind::Internal,
                    format!("internal panic: {detail}"),
                ))
            }
        }
    }

    fn dispatch(&self, request: &WireRequest) -> WireResponse {
        match request {
            WireRequest::Ping => WireResponse::Pong,
            WireRequest::Shutdown => WireResponse::ShuttingDown,
            WireRequest::Solve(job) => match self.solve(job) {
                Ok(outcome) => WireResponse::Solved(outcome),
                Err(e) => WireResponse::Error(e),
            },
            WireRequest::Session(verb) => match self.session_verb(verb) {
                Ok(response) => response,
                Err(e) => WireResponse::Error(e),
            },
        }
    }

    fn session_verb(&self, verb: &SessionVerb) -> Result<WireResponse, WireError> {
        Ok(match verb {
            SessionVerb::Open(spec) => WireResponse::Opened(self.registry.open(spec)?),
            SessionVerb::Insert(r) => {
                WireResponse::Inserted(self.registry.insert(&r.name, r.item)?)
            }
            SessionVerb::Remove(r) => WireResponse::Removed(self.registry.remove(&r.name, r.id)?),
            SessionVerb::Color(r) => WireResponse::Color(self.registry.color(&r.name, r.id)?),
            SessionVerb::Stats(s) => {
                WireResponse::Stats(self.registry.stats(&s.name, s.validate.unwrap_or(false))?)
            }
            SessionVerb::Close(n) => {
                self.registry.close(&n.name)?;
                WireResponse::Closed(crate::protocol::NameRef {
                    name: n.name.clone(),
                })
            }
        })
    }

    fn solve(&self, job: &SolveJob) -> Result<SolveOutcome, WireError> {
        let params = job.params.unwrap_or_default();
        let scheduler = Scheduler::new(params);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let request = bounded_request(job.request, DEFAULT_MATRIX_BUDGET, cores);
        let instance = build_family(job.family, job.n, job.seed)?;
        let start = self.clock.map(|clock| clock());
        let result = match &instance {
            FamilyInstance::Planar(inst) => scheduler.solve(inst, &request)?,
            FamilyInstance::Line(inst) => scheduler.solve(inst, &request)?,
        };
        let wall_ms = match (self.clock, start) {
            (Some(clock), Some(start)) => clock() - start,
            _ => 0.0,
        };
        Ok(SolveOutcome {
            family: job.family,
            n: job.n,
            seed: job.seed,
            algorithm: result.label.algorithm,
            assignment: result.label.assignment.clone(),
            variant: job.request.variant,
            colors: result.num_colors(),
            energy: result.total_energy(),
            wall_ms,
            engine: result.engine,
        })
    }
}

/// Bounds what one solve line can make the daemon spend: a wire
/// `matrix_budget` may lower `budget`, the scheduler's own, but never raise
/// it, and the parallel tier's `num_threads` and the sparse build's
/// `build_threads` come down to `cores` (`0` keeps meaning one per core).
/// Schedules do not depend on the thread count, so no answer changes.
fn bounded_request(mut request: SolveRequest, budget: usize, cores: usize) -> SolveRequest {
    if let Some(bytes) = &mut request.matrix_budget {
        *bytes = (*bytes).min(budget);
    }
    if let SolveStrategy::Parallel { num_threads } = &mut request.strategy {
        *num_threads = (*num_threads).min(cores);
    }
    if let Some(sparse) = &mut request.sparse {
        sparse.build_threads = sparse.build_threads.min(cores);
    }
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, render_request};
    use oblisched::solve::PowerAssignment;
    use oblisched_instances::Family;
    use oblisched_sinr::SparseConfig;

    fn test_server(tag: &str) -> Server {
        let dir = std::env::temp_dir().join(format!(
            "oblisched-server-core-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir,
            clock: None,
        })
        .expect("bind")
    }

    #[test]
    fn dispatch_answers_ping_solve_and_errors_in_process() {
        let server = test_server("dispatch");
        assert_eq!(server.dispatch_line("{\"ping\":{}}"), WireResponse::Pong);

        let job = SolveJob {
            family: Family::Scaling,
            n: 24,
            seed: 3,
            request: SolveRequest::first_fit(PowerAssignment::SquareRoot),
            params: None,
        };
        let line = render_request(&WireRequest::Solve(job));
        match server.dispatch_line(&line) {
            WireResponse::Solved(outcome) => {
                assert!(outcome.colors >= 1);
                assert_eq!(outcome.wall_ms, 0.0, "no clock injected");
            }
            other => panic!("expected solved, got {other:?}"),
        }

        // Malformed JSON is a typed error, not a panic or a dropped line.
        match server.dispatch_line("{malformed") {
            WireResponse::Error(e) => assert_eq!(e.kind, WireErrorKind::BadRequest),
            other => panic!("expected error, got {other:?}"),
        }

        // So is an out-of-range sparse cutoff on a solve that reaches the
        // sparse tier.
        let bad_cutoff = SolveJob {
            request: job.request.with_matrix_budget(0).with_sparse_config(
                oblisched_sinr::SparseConfig {
                    cutoff_fraction: -0.1,
                    ..Default::default()
                },
            ),
            ..job
        };
        match server.dispatch_line(&render_request(&WireRequest::Solve(bad_cutoff))) {
            WireResponse::Error(e) => assert_eq!(e.kind, WireErrorKind::Schedule, "{e}"),
            other => panic!("expected error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
    }

    #[test]
    fn a_solve_line_cannot_raise_the_budget_or_the_thread_counts() {
        let threads = |build_threads| SparseConfig {
            build_threads,
            ..SparseConfig::default()
        };
        let greedy = SolveRequest::parallel(PowerAssignment::SquareRoot, usize::MAX)
            .with_matrix_budget(usize::MAX)
            .with_sparse_config(threads(usize::MAX));
        let bounded = bounded_request(greedy, 1000, 4);
        assert_eq!(bounded.matrix_budget, Some(1000));
        assert_eq!(bounded.strategy, SolveStrategy::Parallel { num_threads: 4 });
        assert_eq!(bounded.sparse, Some(threads(4)));
        // Negative controls: lower values, `0` (one per core) and absent
        // fields pass through unchanged.
        let modest = SolveRequest::parallel(PowerAssignment::SquareRoot, 0)
            .with_matrix_budget(10)
            .with_sparse_config(threads(0));
        assert_eq!(bounded_request(modest, 1000, 4), modest);
        let at_cap = SolveRequest::parallel(PowerAssignment::SquareRoot, 4)
            .with_matrix_budget(1000)
            .with_sparse_config(threads(4));
        assert_eq!(bounded_request(at_cap, 1000, 4), at_cap);
        let plain = SolveRequest::first_fit(PowerAssignment::SquareRoot);
        assert_eq!(bounded_request(plain, 1000, 4), plain);
    }

    /// Dispatches a scaling n = 40 first-fit solve line whose request ends
    /// in `extra` (wire fields after `backend`).
    fn solve_with(server: &Server, extra: &str) -> WireResponse {
        server.dispatch_line(&format!(
            r#"{{"solve":{{"family":"scaling","n":40,"seed":1,"request":{{"strategy":"FirstFit","assignment":"SquareRoot","variant":"Bidirectional","seed":0,"backend":"Auto"{extra}}}}}}}"#
        ))
    }

    #[test]
    fn a_wire_budget_may_lower_the_daemons_but_not_raise_it() {
        let server = test_server("budget");
        let budget = |response: WireResponse| match response {
            WireResponse::Solved(outcome) => outcome.engine.budget,
            other => panic!("expected solved, got {other:?}"),
        };
        assert_eq!(
            budget(solve_with(&server, r#","matrix_budget":1000000000000"#)),
            67_108_864
        );
        // Negative control: a lower budget is the client's to choose.
        assert_eq!(
            budget(solve_with(&server, r#","matrix_budget":1000"#)),
            1000
        );
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
    }

    #[test]
    fn an_absurd_build_thread_count_still_solves() {
        // `2^61` build threads once wrapped the sparse build's chunk
        // arithmetic to a division by zero, answered as `internal`; the
        // daemon now clamps it to the host's cores before the build spawns.
        let server = test_server("build-threads");
        for threads in [1u64 << 61, 1] {
            let extra = format!(
                r#","matrix_budget":0,"sparse":{{"cutoff_fraction":0.001,"build_threads":{threads}}}"#
            );
            match solve_with(&server, &extra) {
                WireResponse::Solved(outcome) => {
                    assert_eq!(outcome.engine.backend, oblisched::EngineBackend::Sparse);
                }
                other => panic!("expected solved at {threads} threads, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
    }

    #[test]
    fn finished_connections_leave_the_tracking_list() {
        let server = test_server("fds");
        let addr = server.local_addr().to_string();
        let tracked = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.run());
            for i in 0..64 {
                assert!(crate::load::ping(&addr), "ping connection {i} unanswered");
            }
            // Workers notice the close asynchronously: wait up to 10 s for
            // every entry to go (each one is an open file descriptor).
            for _ in 0..1000 {
                if lock(&server.connections).is_empty() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let tracked = lock(&server.connections).len();
            crate::send_shutdown(&addr).expect("shutdown");
            daemon.join().expect("server thread").expect("server run");
            tracked
        });
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
        assert_eq!(tracked, 0, "closed connections still tracked");
    }

    /// Serves `server` on a scoped thread while `client` talks to its
    /// address, then shuts it down.
    fn while_serving<T>(server: &Server, client: impl FnOnce(&str) -> T) -> T {
        let addr = server.local_addr().to_string();
        let out = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.run());
            let out = client(&addr);
            crate::send_shutdown(&addr).expect("shutdown");
            daemon.join().expect("server thread").expect("server run");
            out
        });
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
        out
    }

    /// Sends `bytes` on a fresh connection, half-closes it, and collects
    /// every response line until the daemon closes its side (or stays
    /// silent for 10 s, so a lost reply fails the test instead of hanging).
    fn exchange(addr: &str, bytes: &[u8]) -> Vec<WireResponse> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        // The daemon may hang up before reading everything (over-cap lines).
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(Shutdown::Write);
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            responses.push(parse_response(line.trim_end()).expect("response line"));
            line.clear();
        }
        responses
    }

    fn is_bad_request(response: &WireResponse) -> bool {
        matches!(response, WireResponse::Error(e) if e.kind == WireErrorKind::BadRequest)
    }

    #[test]
    fn non_utf8_lines_get_a_typed_error_and_keep_the_connection() {
        let server = test_server("utf8");
        let responses = while_serving(&server, |addr| exchange(addr, b"\xff\xfe\n{\"ping\":{}}\n"));
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert!(is_bad_request(&responses[0]), "{responses:?}");
        assert_eq!(responses[1], WireResponse::Pong);
    }

    #[test]
    fn over_cap_lines_are_refused_and_the_connection_closed() {
        let server = test_server("cap");
        let (over, at_cap) = while_serving(&server, |addr| {
            let mut over = vec![b'x'; MAX_LINE_BYTES + 1];
            over.extend_from_slice(b"\n{\"ping\":{}}\n");
            // Negative control: a ping padded to exactly the cap is served,
            // and the connection stays up for the next line.
            let mut at_cap = b"{\"ping\":{}}".to_vec();
            at_cap.resize(MAX_LINE_BYTES, b' ');
            at_cap.extend_from_slice(b"\n{\"ping\":{}}\n");
            (exchange(addr, &over), exchange(addr, &at_cap))
        });
        assert_eq!(over.len(), 1, "nothing is served after an over-cap line");
        assert!(is_bad_request(&over[0]), "{over:?}");
        assert_eq!(at_cap, vec![WireResponse::Pong, WireResponse::Pong]);
    }

    #[test]
    fn values_json_cannot_carry_get_typed_errors_and_keep_the_daemon() {
        let server = test_server("non-finite");
        let lines = [
            r#"{"session":{"open":{"name":"s","family":"scaling","n":20,"seed":1,"assignment":"SquareRoot","variant":"Bidirectional"}}}"#,
            // An infinite drift tolerance would leave the config_mismatch
            // reply unrenderable, so the open refuses it...
            r#"{"session":{"open":{"name":"s","family":"scaling","n":20,"seed":1,"assignment":"SquareRoot","variant":"Bidirectional","config":{"recolor_budget":8,"rebuild_interval":64,"drift_tolerance":1e999}}}}"#,
            // ...as the solve refuses an infinite exponent, which would do
            // the same to the solved reply's energy.
            r#"{"solve":{"family":"scaling","n":20,"seed":1,"request":{"strategy":"FirstFit","assignment":"SquareRoot","variant":"Bidirectional","seed":0,"backend":"Auto"},"params":{"alpha":1e999,"beta":1,"noise":0}}}"#,
            // In-range params whose powers overflow get a typed error too.
            r#"{"solve":{"family":"scaling","n":30,"seed":1,"request":{"strategy":"FirstFit","assignment":"Linear","variant":"Bidirectional","seed":0,"backend":"Auto"},"params":{"alpha":300,"beta":1,"noise":0}}}"#,
            // Out-of-range params are refused before a session is written.
            r#"{"session":{"open":{"name":"t","family":"scaling","n":20,"seed":1,"assignment":"SquareRoot","variant":"Bidirectional","params":{"alpha":0.5,"beta":1,"noise":0}}}}"#,
            r#"{"ping":{}}"#,
        ];
        // `while_serving` also requires `run()` to return `Ok` after the
        // shutdown, so every session got its final checkpoint.
        let responses = while_serving(&server, |addr| {
            exchange(addr, (lines.join("\n") + "\n").as_bytes())
        });
        let kinds: Vec<&str> = responses
            .iter()
            .map(|response| match response {
                WireResponse::Opened(_) => "opened",
                WireResponse::Pong => "pong",
                WireResponse::Error(e) => e.kind.as_str(),
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "opened",
                "bad_request",
                "schedule",
                "schedule",
                "bad_request",
                "pong"
            ],
            "{responses:?}"
        );
    }

    #[test]
    fn responses_render_and_reparse() {
        let server = test_server("render");
        let rendered = render_response(&server.dispatch_line("{\"ping\":{}}"));
        assert_eq!(
            parse_response(&rendered).expect("parse"),
            WireResponse::Pong
        );
        let _ = std::fs::remove_dir_all(server.registry().data_dir());
    }
}
