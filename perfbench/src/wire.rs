//! One round against the real daemon over loopback: spawn, open every
//! session, replay the scripts in a closed loop (one connection and one
//! thread per session), compare every session with the replay, run the
//! solves and kill the daemon. A checked round also certifies every
//! session, restarts the daemon after the SIGKILL and checks that every
//! session came back bit-for-bit.
//!
//! This is the outermost depth of the traced run too: with `traced` set,
//! every round trip is also recorded as a `wire.rtt` span.

use crate::check::Tally;
use crate::daemon::Daemon;
use crate::plan::{session_op_id, solve_op_id, Op, Script, Solve};
use crate::trace::{now_ns, secs, Span};
use oblisched_server::protocol::SessionVerb;
use oblisched_server::{parse_response, render_request, Client, WireRequest, WireResponse};
use std::path::Path;

/// Everything a round sends, rendered once per run, plus the in-process
/// reference answers it is checked against.
pub struct Inputs {
    /// One script per connection.
    pub scripts: Vec<Script>,
    /// Request lines of every script, op by op.
    pub lines: Vec<Vec<String>>,
    /// The solves of every cycle.
    pub solves: Vec<Solve>,
    /// Request lines of the solves.
    pub solve_lines: Vec<String>,
    /// Reference fingerprint of every session after its script.
    pub session_fingerprints: Vec<u64>,
    /// Reference colors of every solve.
    pub solve_colors: Vec<usize>,
}

impl Inputs {
    /// Renders every request line.
    pub fn new(
        scripts: Vec<Script>,
        solves: Vec<Solve>,
        session_fingerprints: Vec<u64>,
        solve_colors: Vec<usize>,
    ) -> Inputs {
        let lines = scripts
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|&op| render_request(&s.request(op)))
                    .collect()
            })
            .collect();
        let solve_lines = solves
            .iter()
            .map(|s| render_request(&WireRequest::Solve(s.job)))
            .collect();
        Inputs {
            scripts,
            lines,
            solves,
            solve_lines,
            session_fingerprints,
            solve_colors,
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Spawn until a ping answers and every session is open, in seconds.
    pub setup_s: f64,
    /// Restart after the SIGKILL until a ping answers, in seconds (checked
    /// rounds only).
    pub recover_s: f64,
    /// Churn events per second over every connection.
    pub events_per_s: f64,
    /// Daemon `VmHWM` before the kill, in MiB.
    pub peak_rss_mib: f64,
    /// Daemon threads before the kill.
    pub daemon_threads: usize,
    /// Whether every session thread of the daemon was pinned to its core.
    pub pinned: bool,
    /// Insert and remove round trips, in ms.
    pub write_ms: Vec<f64>,
    /// `color` round trips, in ms.
    pub read_ms: Vec<f64>,
    /// Solve round trips by [`crate::plan::SolveKind`] index, in ms.
    pub solve_ms: [Vec<f64>; 3],
    /// Final colors of every session.
    pub colors: usize,
    /// Colors of every solve sent, by solve index.
    pub solve_colors: Vec<(usize, usize)>,
    /// Sum of every round trip, in ns.
    pub total_ns: u64,
    /// `wire.rtt` spans (traced rounds only).
    pub spans: Vec<Span>,
}

/// Sends one pre-rendered line and times the round trip.
fn timed(client: &mut Client, line: &str) -> (Result<String, String>, u64, u64) {
    let start = now_ns();
    let answer = client.raw_line(line).map_err(|e| e.to_string());
    (answer, start, now_ns())
}

fn parse(answer: Result<String, String>) -> Result<WireResponse, String> {
    let line = answer?;
    match parse_response(&line) {
        Ok(WireResponse::Error(e)) => Err(format!("typed error {e}")),
        Ok(response) => Ok(response),
        Err(e) => Err(format!("unparseable answer {line:?}: {e}")),
    }
}

/// Checks a session op's answer against the id the script expects.
pub fn check_op(op: Op, response: &WireResponse) -> Result<(), String> {
    let ok = match (op, response) {
        (Op::Insert { item, id }, WireResponse::Inserted(r)) => r.item == item && r.id == id,
        (Op::Remove { item, id }, WireResponse::Removed(r)) => r.item == item && r.id == id,
        (Op::Color { id }, WireResponse::Color(r)) => r.id == id,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{op:?} answered {response:?}"))
    }
}

/// The fingerprint, colors and certification of a `stats` answer.
pub fn stats_of(response: &WireResponse) -> Result<(u64, usize, bool), String> {
    match response {
        WireResponse::Stats(s) => u64::from_str_radix(&s.fingerprint, 16)
            .map(|fp| (fp, s.colors, s.validated))
            .map_err(|e| format!("bad fingerprint {:?}: {e}", s.fingerprint)),
        other => Err(format!("stats answered {other:?}")),
    }
}

struct ConnOutcome {
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    spans: Vec<Span>,
    total_ns: u64,
    tally: Tally,
}

fn drive(client: &mut Client, script: &Script, lines: &[String], traced: bool) -> ConnOutcome {
    crate::daemon::pin_thread(0, script.conn);
    let mut out = ConnOutcome {
        write_ms: Vec::with_capacity(script.events()),
        read_ms: Vec::new(),
        spans: Vec::new(),
        total_ns: 0,
        tally: Tally::default(),
    };
    for (index, (&op, line)) in script.ops.iter().zip(lines).enumerate() {
        let (answer, start, end) = timed(client, line);
        let ms = (end - start) as f64 * 1e-6;
        out.total_ns += end - start;
        if traced {
            out.spans.push(Span {
                name: "wire.rtt",
                start_ns: start,
                end_ns: end,
                parent: None,
                op: session_op_id(script.conn, index + 1),
            });
        }
        if op.is_write() {
            out.write_ms.push(ms);
        } else {
            out.read_ms.push(ms);
        }
        let socket_failed = answer.is_err();
        let checked = parse(answer).and_then(|r| check_op(op, &r));
        if let Err(e) = checked {
            out.tally.op(false, || format!("{}: {e}", script.name));
        } else {
            out.tally.op(true, String::new);
        }
        if socket_failed {
            break;
        }
    }
    out
}

fn request(client: &mut Client, request: &WireRequest) -> Result<WireResponse, String> {
    parse(
        client
            .raw_line(&render_request(request))
            .map_err(|e| e.to_string()),
    )
}

/// Spawns the daemon over a fresh data dir in `dir`, pings it and opens
/// every session, each on its own connection; returns the daemon, the
/// clients and the seconds that took.
fn start(
    bin: &Path,
    dir: &Path,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Daemon, Vec<Client>, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let start = now_ns();
    let daemon = Daemon::spawn(bin, &dir.join("data"), &dir.join("daemon.log"))?;
    let mut clients = Vec::with_capacity(inputs.scripts.len());
    for script in &inputs.scripts {
        let mut client = daemon.connect()?;
        if clients.is_empty() {
            let pong = request(&mut client, &WireRequest::Ping);
            tally.op(matches!(pong, Ok(WireResponse::Pong)), || {
                format!("ping: {pong:?}")
            });
        }
        let open = WireRequest::Session(SessionVerb::Open(script.open_spec()));
        let opened = request(&mut client, &open);
        let fresh = matches!(&opened, Ok(WireResponse::Opened(o)) if !o.recovered);
        tally.op(fresh, || format!("open {}: {opened:?}", script.name));
        clients.push(client);
    }
    Ok((daemon, clients, secs(start, now_ns())))
}

/// Set-up alone, in `dir` (which must not exist yet): spawn, ping, open
/// every session, kill. Returns the seconds until every session was open.
pub fn setup_only(
    bin: &Path,
    dir: &Path,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<f64, String> {
    let (daemon, clients, setup_s) = start(bin, dir, inputs, tally)?;
    drop(clients);
    daemon.kill();
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup_s)
}

/// Runs one round in `dir` (which must not exist yet), with the solves of
/// `cycles`. With `check`, the daemon also certifies every session against
/// the naive evaluator, and is SIGKILLed and restarted to check that every
/// session comes back bit-for-bit; rounds repeat the same session ops, so
/// one checked round per run suffices.
pub fn round(
    bin: &Path,
    dir: &Path,
    inputs: &Inputs,
    cycles: &[usize],
    traced: bool,
    check: bool,
    tally: &mut Tally,
) -> Result<Round, String> {
    let mut round = Round::default();
    let (daemon, mut clients, setup_s) = start(bin, dir, inputs, tally)?;
    round.setup_s = setup_s;
    round.pinned = daemon.pin_session_threads();

    let phase_start = now_ns();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&inputs.scripts)
            .zip(&inputs.lines)
            .map(|((client, script), lines)| {
                scope.spawn(move || drive(client, script, lines, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let phase_s = secs(phase_start, now_ns());
    let events: usize = inputs.scripts.iter().map(Script::events).sum();
    round.events_per_s = events as f64 / phase_s;
    for outcome in outcomes {
        round.write_ms.extend(outcome.write_ms);
        round.read_ms.extend(outcome.read_ms);
        round.spans.extend(outcome.spans);
        round.total_ns += outcome.total_ns;
        tally.merge(outcome.tally);
    }

    // Compare every session with the in-process replay.
    let mut fingerprints = Vec::with_capacity(clients.len());
    for ((client, script), &want) in clients
        .iter_mut()
        .zip(&inputs.scripts)
        .zip(&inputs.session_fingerprints)
    {
        let stats = request(client, &script.stats_request(check)).and_then(|r| stats_of(&r));
        match stats {
            Ok((fp, colors, validated)) => {
                tally.op(fp == want && validated == check, || {
                    format!(
                        "{}: fingerprint {fp:016x} (certified {validated}), replay {want:016x}",
                        script.name
                    )
                });
                round.colors += colors;
                fingerprints.push(Some(fp));
            }
            Err(e) => {
                tally.op(false, || format!("{}: stats: {e}", script.name));
                fingerprints.push(None);
            }
        }
    }

    // The solves, on the first connection.
    let client = &mut clients[0];
    for (index, (solve, line)) in inputs.solves.iter().zip(&inputs.solve_lines).enumerate() {
        if !cycles.contains(&solve.cycle) {
            continue;
        }
        let (answer, start, end) = timed(client, line);
        round.total_ns += end - start;
        round.solve_ms[solve.kind.index()].push((end - start) as f64 * 1e-6);
        if traced {
            round.spans.push(Span {
                name: "wire.rtt",
                start_ns: start,
                end_ns: end,
                parent: None,
                op: solve_op_id(index),
            });
        }
        let want = inputs.solve_colors[index];
        match parse(answer) {
            Ok(WireResponse::Solved(outcome)) => {
                tally.op(outcome.colors == want, || {
                    format!(
                        "solve {index} ({}): {} colors, in-process {want}",
                        solve.kind.label(),
                        outcome.colors
                    )
                });
                round.solve_colors.push((index, outcome.colors));
            }
            other => tally.op(false, || format!("solve {index}: {other:?}")),
        }
    }

    round.peak_rss_mib = daemon.peak_rss_mib().unwrap_or(0.0);
    round.daemon_threads = daemon.threads().unwrap_or(0);
    drop(clients);
    daemon.kill();
    if check {
        restart(bin, dir, inputs, &fingerprints, &mut round, tally)?;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(round)
}

/// Restarts the daemon over the killed one's data dir, which recovers every
/// session before it announces its address, and checks each against its
/// pre-kill fingerprint.
fn restart(
    bin: &Path,
    dir: &Path,
    inputs: &Inputs,
    fingerprints: &[Option<u64>],
    round: &mut Round,
    tally: &mut Tally,
) -> Result<(), String> {
    let start = now_ns();
    let daemon = Daemon::spawn(bin, &dir.join("data"), &dir.join("restart.log"))?;
    let pinged = daemon.ping();
    round.recover_s = secs(start, now_ns());
    tally.op(pinged, || "ping after restart".into());
    let mut client = daemon.connect()?;
    for (script, &before) in inputs.scripts.iter().zip(fingerprints) {
        let after = request(&mut client, &script.stats_request(false)).and_then(|r| stats_of(&r));
        let ok = matches!((&after, before), (Ok((fp, _, _)), Some(b)) if *fp == b);
        tally.op(ok, || {
            format!(
                "{} after restart: {after:?}, before kill {before:?}; daemon log: {}",
                script.name,
                daemon.log().trim()
            )
        });
    }
    drop(client);
    daemon.kill();
    Ok(())
}
