//! The daemon core: a `std::net` accept loop with one scoped worker thread
//! per connection, dispatching wire requests to the batch solver and the
//! [`SessionRegistry`].
//!
//! Connection handling is defensive by construction: every request line —
//! including malformed JSON — yields exactly one response line on the same
//! connection (a typed [`WireError`] when anything goes wrong), and a panic
//! while serving a request is caught and answered as an `internal` error
//! rather than dropping the connection or the daemon.
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
use oblisched::scheduler::Scheduler;
use oblisched_instances::{build_family, FamilyInstance};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

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
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let response = self.dispatch_line(&line);
            let shutting_down = matches!(response, WireResponse::ShuttingDown);
            let mut rendered = render_response(&response);
            rendered.push('\n');
            if writer.write_all(rendered.as_bytes()).is_err() || writer.flush().is_err() {
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
        let instance = build_family(job.family, job.n, job.seed)?;
        let start = self.clock.map(|clock| clock());
        let result = match &instance {
            FamilyInstance::Planar(inst) => scheduler.solve(inst, &job.request)?,
            FamilyInstance::Line(inst) => scheduler.solve(inst, &job.request)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, render_request};
    use oblisched::solve::{PowerAssignment, SolveRequest};
    use oblisched_instances::Family;

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
