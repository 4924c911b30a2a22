//! The wire protocol of the scheduler daemon: newline-delimited JSON over
//! TCP, one request object per line, one response object per line.
//!
//! Every request line is an object with exactly one top-level key naming the
//! operation — serde's externally tagged enum framing:
//!
//! ```text
//! {"ping":{}}
//! {"solve":{"family":"scaling","n":64,"seed":1,"request":{...SolveRequest...}}}
//! {"session":{"open":{"name":"s1","family":"scaling","n":120,"seed":7,
//!             "assignment":"SquareRoot","variant":"Bidirectional"}}}
//! {"session":{"insert":{"name":"s1","item":5}}}
//! {"session":{"remove":{"name":"s1","id":0}}}
//! {"session":{"color":{"name":"s1","id":2}}}
//! {"session":{"stats":{"name":"s1","validate":true}}}
//! {"session":{"close":{"name":"s1"}}}
//! {"shutdown":{}}
//! ```
//!
//! Responses mirror the shape: `{"pong":{}}`, `{"solved":{...}}`,
//! `{"opened":{...}}`, `{"inserted":{...}}`, `{"removed":{...}}`,
//! `{"color":{...}}`, `{"stats":{...}}`, `{"closed":{...}}`,
//! `{"shutting_down":{}}` — or `{"error":{"kind":"...","detail":"..."}}`
//! with a typed [`WireErrorKind`] mirroring the library's
//! `ScheduleError` / `DynamicError` / `DurabilityError` enums. A malformed
//! line yields a `bad_request` error response on the same connection; it
//! never drops the connection or kills the daemon.
//!
//! One private helper frames every line, request or response, under its
//! key; it borrows the payload instead of copying it, and renders a payload
//! JSON cannot carry (a non-finite float) as a typed `internal` error line.
//! Parsing reads each line into a JSON tree once, takes its single entry,
//! and deserializes the payload from that tree.
//!
//! This module is deterministic protocol plumbing only: it never reads the
//! wall clock (timing fields are filled in — or left at zero — by the
//! daemon's injected clock and by the load generator).

use oblisched::durability::DurabilityError;
use oblisched::dynamic::{DynamicConfig, DynamicError};
use oblisched::scheduler::EngineStats;
use oblisched::solve::{
    Algorithm, Assignment, BackendPolicy, PowerAssignment, ScheduleError, SolveRequest,
};
use oblisched_instances::{Family, FamilyError};
use oblisched_sinr::{SinrParams, Variant};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A batch solve over the wire: a family triple plus the [`SolveRequest`]
/// to run on it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveJob {
    /// The generator family of the instance.
    pub family: Family,
    /// Number of requests to generate.
    pub n: usize,
    /// Seed of the family's RNG.
    pub seed: u64,
    /// The scheduling run to execute.
    pub request: SolveRequest,
    /// SINR model parameters; absent means the harness defaults.
    pub params: Option<SinrParams>,
}

/// The response to a [`SolveJob`]: the outcome of `Scheduler::solve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// The family the job ran on (echoed).
    pub family: Family,
    /// Number of requests (echoed).
    pub n: usize,
    /// Family seed (echoed).
    pub seed: u64,
    /// The algorithm that produced the schedule.
    pub algorithm: Algorithm,
    /// The power assignment the schedule was validated under.
    pub assignment: Assignment,
    /// The problem variant that was solved.
    pub variant: Variant,
    /// Number of colors of the schedule.
    pub colors: usize,
    /// Total transmission energy `Σ p_i`.
    pub energy: f64,
    /// Wall time of the solve in milliseconds — `0` when the daemon runs
    /// with timing suppressed (`--no-timing`), the golden-diff convention.
    pub wall_ms: f64,
    /// The backend decision of the run.
    pub engine: EngineStats,
}

/// The `open` verb: create — or recover and attach to — a named durable
/// session over a family-built universe instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenSpec {
    /// Session name (also the on-disk directory name under the daemon's
    /// data dir); letters, digits, `-` and `_` only.
    pub name: String,
    /// The generator family of the universe instance.
    pub family: Family,
    /// Number of requests in the universe.
    pub n: usize,
    /// Seed of the family's RNG.
    pub seed: u64,
    /// The oblivious power assignment the session schedules under.
    pub assignment: PowerAssignment,
    /// The problem variant.
    pub variant: Variant,
    /// SINR model parameters; absent means the harness defaults.
    pub params: Option<SinrParams>,
    /// Scheduler configuration. Absent means: default config when creating,
    /// *accept the stored config* when attaching to an existing session. A
    /// present config that differs from an existing session's stored one is
    /// a typed `config_mismatch` error.
    pub config: Option<DynamicConfig>,
    /// Snapshot cadence (events per checkpoint). Absent means the durable
    /// default when creating and the session's cadence when re-opening it,
    /// live or closed; present, it replaces the session's cadence.
    pub checkpoint_every: Option<usize>,
    /// Backend fallback policy for the session's interference backend;
    /// absent means `Auto`.
    pub backend: Option<BackendPolicy>,
}

/// The session identity an [`OpenSpec`] pins on disk (`meta.json`): the
/// universe and model the session was created over. Re-opening with a
/// different identity is a typed `meta_mismatch` error — the WAL's records
/// only apply to the exact same universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMeta {
    /// The generator family of the universe instance.
    pub family: Family,
    /// Number of requests in the universe.
    pub n: usize,
    /// Seed of the family's RNG.
    pub seed: u64,
    /// The oblivious power assignment.
    pub assignment: PowerAssignment,
    /// The problem variant.
    pub variant: Variant,
    /// SINR model parameters; `None` means the harness defaults.
    pub params: Option<SinrParams>,
    /// Backend fallback policy; `None` means `Auto`.
    pub backend: Option<BackendPolicy>,
}

impl SessionMeta {
    /// The identity half of an [`OpenSpec`].
    pub fn of_spec(spec: &OpenSpec) -> SessionMeta {
        SessionMeta {
            family: spec.family,
            n: spec.n,
            seed: spec.seed,
            assignment: spec.assignment,
            variant: spec.variant,
            params: spec.params,
            backend: spec.backend,
        }
    }
}

/// The response to a successful `open`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenedInfo {
    /// Session name (echoed).
    pub name: String,
    /// `true` when the open attached to (or recovered) an existing session,
    /// `false` when it created a fresh one.
    pub recovered: bool,
    /// Live requests after the open.
    pub live: usize,
    /// Colors in use after the open.
    pub colors: usize,
    /// The sequence number the next WAL record will carry.
    pub next_seq: u64,
    /// The interference-backend decision for the session.
    pub engine: EngineStats,
}

/// An `insert` verb: add a universe item to a named session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemRef {
    /// Session name.
    pub name: String,
    /// The universe item index to insert.
    pub item: usize,
}

/// A `remove` / `color` verb operand: a live request id in a named session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdRef {
    /// Session name.
    pub name: String,
    /// The raw request id.
    pub id: u64,
}

/// A `stats` verb: session counters, optionally naive-certified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSpec {
    /// Session name.
    pub name: String,
    /// When `true`, the daemon certifies the live coloring against the
    /// naive evaluator before answering (an error response if certification
    /// fails — that would be a scheduler bug, not an input condition).
    pub validate: Option<bool>,
}

/// A verb operand naming just a session (`close`), and the `closed`
/// response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameRef {
    /// Session name.
    pub name: String,
}

/// The response to a successful `insert`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertedInfo {
    /// Session name (echoed).
    pub name: String,
    /// The inserted universe item (echoed).
    pub item: usize,
    /// The raw request id the scheduler assigned.
    pub id: u64,
    /// The color the request landed on.
    pub color: usize,
}

/// The response to a successful `remove`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemovedInfo {
    /// Session name (echoed).
    pub name: String,
    /// The removed raw request id (echoed).
    pub id: u64,
    /// The universe item that departed.
    pub item: usize,
    /// Number of recoloring migrations the departure triggered.
    pub moves: usize,
}

/// The response to a `color` query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColorInfo {
    /// Session name (echoed).
    pub name: String,
    /// The queried raw request id (echoed).
    pub id: u64,
    /// The universe item behind the id.
    pub item: usize,
    /// The request's current color.
    pub color: usize,
}

/// The response to a `stats` query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Session name (echoed).
    pub name: String,
    /// Live requests.
    pub live: usize,
    /// Colors in use.
    pub colors: usize,
    /// The sequence number the next WAL record will carry.
    pub next_seq: u64,
    /// FNV-1a fingerprint (hex) of the exact logical scheduler state —
    /// equal fingerprints mean bit-for-bit identical colorings, which is
    /// what the restart-recovery test asserts across a daemon kill.
    pub fingerprint: String,
    /// Whether the naive-evaluator certification ran for this answer.
    pub validated: bool,
}

/// The typed error kinds of the wire protocol, mirroring the library's
/// error enums: `schedule` ↔ `ScheduleError`, `dynamic` ↔ `DynamicError`,
/// `durability` ↔ `DurabilityError` — with the session-registry conditions
/// (`config_mismatch`, `meta_mismatch`, `unknown_session`, `session_exists`)
/// split out so clients can react without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The request line is not valid JSON or not a known request shape.
    BadRequest,
    /// The family triple cannot be built.
    Family,
    /// The solve call failed (`ScheduleError`).
    Schedule,
    /// A dynamic-scheduling step failed (`DynamicError`).
    Dynamic,
    /// A durability step failed (`DurabilityError` other than the variants
    /// with their own kind below).
    Durability,
    /// The session exists with a different `DynamicConfig` than requested
    /// (`DurabilityError::ConfigMismatch`); `stored` and `requested` carry
    /// the two configurations.
    ConfigMismatch,
    /// The session exists over a different universe (family/n/seed/
    /// assignment/variant/params/backend) than the open requested.
    MetaMismatch,
    /// No session with that name (live or on disk).
    UnknownSession,
    /// A session with that name already exists (`DurabilityError::SessionExists`).
    SessionExists,
    /// The session name is empty or contains characters outside
    /// letters/digits/`-`/`_`.
    BadName,
    /// Reading or writing session storage failed.
    Io,
    /// The daemon hit an internal inconsistency serving the request.
    Internal,
}

impl WireErrorKind {
    /// The lowercase wire spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            WireErrorKind::BadRequest => "bad_request",
            WireErrorKind::Family => "family",
            WireErrorKind::Schedule => "schedule",
            WireErrorKind::Dynamic => "dynamic",
            WireErrorKind::Durability => "durability",
            WireErrorKind::ConfigMismatch => "config_mismatch",
            WireErrorKind::MetaMismatch => "meta_mismatch",
            WireErrorKind::UnknownSession => "unknown_session",
            WireErrorKind::SessionExists => "session_exists",
            WireErrorKind::BadName => "bad_name",
            WireErrorKind::Io => "io",
            WireErrorKind::Internal => "internal",
        }
    }

    /// Parses the lowercase wire spelling.
    pub fn parse(s: &str) -> Option<WireErrorKind> {
        Some(match s {
            "bad_request" => WireErrorKind::BadRequest,
            "family" => WireErrorKind::Family,
            "schedule" => WireErrorKind::Schedule,
            "dynamic" => WireErrorKind::Dynamic,
            "durability" => WireErrorKind::Durability,
            "config_mismatch" => WireErrorKind::ConfigMismatch,
            "meta_mismatch" => WireErrorKind::MetaMismatch,
            "unknown_session" => WireErrorKind::UnknownSession,
            "session_exists" => WireErrorKind::SessionExists,
            "bad_name" => WireErrorKind::BadName,
            "io" => WireErrorKind::Io,
            "internal" => WireErrorKind::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl serde::Serialize for WireErrorKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for WireErrorKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct KindVisitor;

        impl serde::de::Visitor<'_> for KindVisitor {
            type Value = WireErrorKind;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a lowercase wire error kind")
            }

            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<WireErrorKind, E> {
                WireErrorKind::parse(v).ok_or_else(|| {
                    E::unknown_variant(v, &["bad_request", "config_mismatch", "..."])
                })
            }
        }

        deserializer.deserialize_str(KindVisitor)
    }
}

/// A typed wire error: the kind, a human-readable detail, and — for
/// `config_mismatch` — the stored and requested configurations so a client
/// can correct its open without parsing the detail string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The typed error kind.
    pub kind: WireErrorKind,
    /// Human-readable description.
    pub detail: String,
    /// The configuration the stored session runs under
    /// (`config_mismatch` only).
    pub stored: Option<DynamicConfig>,
    /// The configuration the client requested (`config_mismatch` only).
    pub requested: Option<DynamicConfig>,
}

impl WireError {
    /// A typed error with no configuration payload.
    pub fn new(kind: WireErrorKind, detail: impl Into<String>) -> WireError {
        WireError {
            kind,
            detail: detail.into(),
            stored: None,
            requested: None,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireError {}

impl From<ScheduleError> for WireError {
    fn from(e: ScheduleError) -> WireError {
        WireError::new(WireErrorKind::Schedule, e.to_string())
    }
}

impl From<DynamicError> for WireError {
    fn from(e: DynamicError) -> WireError {
        WireError::new(WireErrorKind::Dynamic, e.to_string())
    }
}

impl From<FamilyError> for WireError {
    fn from(e: FamilyError) -> WireError {
        WireError::new(WireErrorKind::Family, e.to_string())
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::new(WireErrorKind::Io, e.to_string())
    }
}

impl From<serde_json::Error> for WireError {
    fn from(e: serde_json::Error) -> WireError {
        WireError::new(WireErrorKind::BadRequest, e.to_string())
    }
}

impl From<DurabilityError> for WireError {
    fn from(e: DurabilityError) -> WireError {
        match e {
            DurabilityError::ConfigMismatch { stored, requested } => WireError {
                kind: WireErrorKind::ConfigMismatch,
                detail: format!(
                    "the stored session runs under a different DynamicConfig: \
                     stored {stored:?}, requested {requested:?}"
                ),
                stored: Some(stored),
                requested: Some(requested),
            },
            DurabilityError::NoSession => WireError::new(
                WireErrorKind::UnknownSession,
                "no session in the store (no snapshot)",
            ),
            DurabilityError::SessionExists => WireError::new(
                WireErrorKind::SessionExists,
                "a session already exists in the store",
            ),
            DurabilityError::Dynamic(inner) => WireError::from(inner),
            DurabilityError::Io(inner) => WireError::new(WireErrorKind::Io, inner.to_string()),
            other => WireError::new(WireErrorKind::Durability, other.to_string()),
        }
    }
}

/// A session verb of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionVerb {
    /// Create or recover-and-attach a named session.
    Open(OpenSpec),
    /// Insert a universe item.
    Insert(ItemRef),
    /// Remove a live request by id.
    Remove(IdRef),
    /// Query a live request's color.
    Color(IdRef),
    /// Session counters (optionally naive-certified).
    Stats(StatsSpec),
    /// Checkpoint and detach the session (its durable state stays on disk).
    Close(NameRef),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// A stateless batch solve.
    Solve(SolveJob),
    /// A durable-session verb.
    Session(SessionVerb),
    /// Graceful shutdown: the daemon stops accepting, drains connections,
    /// checkpoints every session and exits 0.
    Shutdown,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Reply to `ping`.
    Pong,
    /// Reply to `solve`.
    Solved(SolveOutcome),
    /// Reply to `session.open`.
    Opened(OpenedInfo),
    /// Reply to `session.insert`.
    Inserted(InsertedInfo),
    /// Reply to `session.remove`.
    Removed(RemovedInfo),
    /// Reply to `session.color`.
    Color(ColorInfo),
    /// Reply to `session.stats`.
    Stats(SessionStats),
    /// Reply to `session.close`.
    Closed(NameRef),
    /// Reply to `shutdown` (sent before the daemon begins draining).
    ShuttingDown,
    /// A typed error reply (to any request).
    Error(WireError),
}

/// Empty payload of the bodyless request/response variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Empty {}

/// The one framing rule of the protocol: `{"<key>":<payload>}`. It borrows
/// its payload, so rendering a line copies nothing; a session request nests
/// one `Line` in another.
struct Line<'a, T: ?Sized>(&'static str, &'a T);

impl<T: Serialize + ?Sized> Serialize for Line<'_, T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut line = serializer.serialize_struct("Line", 1)?;
        line.serialize_field(self.0, self.1)?;
        line.end()
    }
}

/// Renders `payload` framed under `key`. A payload JSON cannot carry (a
/// non-finite float) is rendered as a typed `internal` error line instead,
/// whose payload always serializes.
fn line<T: Serialize + ?Sized>(key: &'static str, payload: &T) -> String {
    serde_json::to_string(&Line(key, payload)).unwrap_or_else(|e| {
        let detail = format!("the {key} payload does not serialize: {e}");
        line("error", &WireError::new(WireErrorKind::Internal, detail))
    })
}

/// The key and payload of a single-entry JSON object, if the value is one.
fn single_entry(value: serde_json::Value) -> Option<(String, serde_json::Value)> {
    match value {
        serde_json::Value::Object(entries) if entries.len() == 1 => entries.into_iter().next(),
        _ => None,
    }
}

fn bad<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> WireError + '_ {
    move |e| WireError::new(WireErrorKind::BadRequest, format!("{what}: {e}"))
}

/// Parses a wire line, the only JSON parse of the protocol, and splits it
/// into its single top-level key and payload; `shape` is the error detail
/// for a line of any other shape.
fn split_line(line: &str, shape: &str) -> Result<(String, serde_json::Value), WireError> {
    let value = serde_json::from_str(line).map_err(bad("invalid JSON"))?;
    single_entry(value).ok_or_else(|| WireError::new(WireErrorKind::BadRequest, shape))
}

/// Deserializes a payload from the parsed tree; a mismatch is a
/// `bad_request` whose detail starts with `what`.
fn payload<T: for<'de> Deserialize<'de>>(
    value: serde_json::Value,
    what: &str,
) -> Result<T, WireError> {
    serde_json::from_value(value).map_err(bad(what))
}

/// Parses one request line.
///
/// # Errors
///
/// [`WireErrorKind::BadRequest`] when the line is not valid JSON, not a
/// single-key object, or not a known request/verb shape.
pub fn parse_request(line: &str) -> Result<WireRequest, WireError> {
    let (key, body) = split_line(
        line,
        "a request line must be a JSON object with exactly one top-level \
         key (ping | solve | session | shutdown)",
    )?;
    match key.as_str() {
        "ping" => Ok(WireRequest::Ping),
        "shutdown" => Ok(WireRequest::Shutdown),
        "solve" => Ok(WireRequest::Solve(payload(body, "bad solve")?)),
        "session" => {
            let Some((verb, body)) = single_entry(body) else {
                return Err(WireError::new(
                    WireErrorKind::BadRequest,
                    "a session request must be a single-verb object \
                     (open | insert | remove | color | stats | close)",
                ));
            };
            Ok(WireRequest::Session(match verb.as_str() {
                "open" => SessionVerb::Open(payload(body, "bad open")?),
                "insert" => SessionVerb::Insert(payload(body, "bad insert")?),
                "remove" => SessionVerb::Remove(payload(body, "bad remove")?),
                "color" => SessionVerb::Color(payload(body, "bad color")?),
                "stats" => SessionVerb::Stats(payload(body, "bad stats")?),
                "close" => SessionVerb::Close(payload(body, "bad close")?),
                other => {
                    return Err(WireError::new(
                        WireErrorKind::BadRequest,
                        format!("unknown session verb {other:?}"),
                    ))
                }
            }))
        }
        other => Err(WireError::new(
            WireErrorKind::BadRequest,
            format!("unknown request {other:?}"),
        )),
    }
}

/// Renders one request as its wire line (no trailing newline) — the client
/// half of the protocol, used by the load generator and tests.
pub fn render_request(request: &WireRequest) -> String {
    match request {
        WireRequest::Ping => line("ping", &Empty {}),
        WireRequest::Shutdown => line("shutdown", &Empty {}),
        WireRequest::Solve(job) => line("solve", job),
        WireRequest::Session(SessionVerb::Open(spec)) => line("session", &Line("open", spec)),
        WireRequest::Session(SessionVerb::Insert(item)) => line("session", &Line("insert", item)),
        WireRequest::Session(SessionVerb::Remove(id)) => line("session", &Line("remove", id)),
        WireRequest::Session(SessionVerb::Color(id)) => line("session", &Line("color", id)),
        WireRequest::Session(SessionVerb::Stats(spec)) => line("session", &Line("stats", spec)),
        WireRequest::Session(SessionVerb::Close(name)) => line("session", &Line("close", name)),
    }
}

/// Renders one response as its wire line (no trailing newline).
pub fn render_response(response: &WireResponse) -> String {
    match response {
        WireResponse::Pong => line("pong", &Empty {}),
        WireResponse::Solved(o) => line("solved", o),
        WireResponse::Opened(o) => line("opened", o),
        WireResponse::Inserted(o) => line("inserted", o),
        WireResponse::Removed(o) => line("removed", o),
        WireResponse::Color(o) => line("color", o),
        WireResponse::Stats(o) => line("stats", o),
        WireResponse::Closed(o) => line("closed", o),
        WireResponse::ShuttingDown => line("shutting_down", &Empty {}),
        WireResponse::Error(e) => line("error", e),
    }
}

/// Parses one response line — the client half of the protocol.
///
/// # Errors
///
/// [`WireErrorKind::BadRequest`] when the line is not a known response
/// shape (a protocol violation by the peer).
pub fn parse_response(line: &str) -> Result<WireResponse, WireError> {
    let (key, body) = split_line(
        line,
        "a response line must be a JSON object with exactly one top-level key",
    )?;
    match key.as_str() {
        "pong" => Ok(WireResponse::Pong),
        "shutting_down" => Ok(WireResponse::ShuttingDown),
        "solved" => Ok(WireResponse::Solved(payload(body, "bad solved")?)),
        "opened" => Ok(WireResponse::Opened(payload(body, "bad opened")?)),
        "inserted" => Ok(WireResponse::Inserted(payload(body, "bad inserted")?)),
        "removed" => Ok(WireResponse::Removed(payload(body, "bad removed")?)),
        "color" => Ok(WireResponse::Color(payload(body, "bad color")?)),
        "stats" => Ok(WireResponse::Stats(payload(body, "bad stats")?)),
        "closed" => Ok(WireResponse::Closed(payload(body, "bad closed")?)),
        "error" => Ok(WireResponse::Error(payload(body, "bad error")?)),
        other => Err(WireError::new(
            WireErrorKind::BadRequest,
            format!("unknown response {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_spec(name: &str) -> OpenSpec {
        OpenSpec {
            name: name.into(),
            family: Family::Scaling,
            n: 40,
            seed: 7,
            assignment: PowerAssignment::SquareRoot,
            variant: Variant::Bidirectional,
            params: None,
            config: None,
            checkpoint_every: None,
            backend: None,
        }
    }

    #[test]
    fn requests_round_trip_through_the_wire() {
        let mut requests = vec![
            WireRequest::Ping,
            WireRequest::Shutdown,
            WireRequest::Solve(SolveJob {
                family: Family::Nested,
                n: 8,
                seed: 0,
                request: SolveRequest::first_fit(PowerAssignment::SquareRoot),
                params: None,
            }),
            WireRequest::Session(SessionVerb::Open(open_spec("s1"))),
            WireRequest::Session(SessionVerb::Insert(ItemRef {
                name: "s1".into(),
                item: 5,
            })),
            WireRequest::Session(SessionVerb::Remove(IdRef {
                name: "s1".into(),
                id: 3,
            })),
            WireRequest::Session(SessionVerb::Color(IdRef {
                name: "s1".into(),
                id: 3,
            })),
            WireRequest::Session(SessionVerb::Stats(StatsSpec {
                name: "s1".into(),
                validate: Some(true),
            })),
            WireRequest::Session(SessionVerb::Close(NameRef { name: "s1".into() })),
        ];
        // Batch solves over every family, with and without model parameters.
        for family in Family::all() {
            for (request, params) in [
                (SolveRequest::sqrt_coloring(3), None),
                (
                    SolveRequest::parallel(PowerAssignment::Linear, 2),
                    Some(SinrParams::with_noise(2.5, 1.5, 0.1).unwrap()),
                ),
            ] {
                requests.push(WireRequest::Solve(SolveJob {
                    family,
                    n: 33,
                    seed: 9,
                    request,
                    params,
                }));
            }
        }
        for request in requests {
            let line = render_request(&request);
            assert_eq!(parse_request(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn hand_written_lines_parse_with_absent_optional_fields() {
        let line = "{\"session\":{\"open\":{\"name\":\"s1\",\"family\":\"scaling\",\"n\":40,\
                    \"seed\":7,\"assignment\":\"SquareRoot\",\"variant\":\"Bidirectional\"}}}";
        assert_eq!(
            parse_request(line).unwrap(),
            WireRequest::Session(SessionVerb::Open(open_spec("s1")))
        );
        let line = "{\"session\":{\"stats\":{\"name\":\"s1\"}}}";
        assert_eq!(
            parse_request(line).unwrap(),
            WireRequest::Session(SessionVerb::Stats(StatsSpec {
                name: "s1".into(),
                validate: None,
            }))
        );
    }

    #[test]
    fn malformed_lines_yield_typed_bad_request_errors() {
        // Without the JSON parser's nesting cap, this line would overflow
        // the stack and abort the daemon, which `catch_unwind` cannot stop.
        let deep = "[".repeat(100_000);
        for line in [
            "{not json",
            "[1,2,3]",
            "{\"ping\":{},\"solve\":{}}",
            "{\"frobnicate\":{}}",
            "{\"session\":{\"frobnicate\":{}}}",
            "{\"session\":{\"open\":{\"name\":17}}}",
            &deep,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, WireErrorKind::BadRequest, "{line}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire() {
        let stats = EngineStats {
            backend: oblisched::scheduler::EngineBackend::Dense,
            n: 40,
            ports: 2,
            bytes: 25_600,
            dense_bytes: 25_600,
            budget: 64 << 20,
        };
        let solved = SolveOutcome {
            family: Family::Scaling,
            n: 40,
            seed: 42,
            algorithm: Algorithm::FirstFit,
            assignment: Assignment::Exponent { tau: 0.5 },
            variant: Variant::Bidirectional,
            colors: 17,
            energy: 123.456,
            wall_ms: 0.0,
            engine: stats,
        };
        let responses = [
            WireResponse::Pong,
            WireResponse::ShuttingDown,
            WireResponse::Solved(solved.clone()),
            WireResponse::Solved(SolveOutcome {
                n: 100,
                algorithm: Algorithm::ParallelFirstFit,
                assignment: Assignment::SquareRoot,
                wall_ms: 12.5,
                engine: EngineStats {
                    backend: oblisched::scheduler::EngineBackend::Sparse,
                    n: 100,
                    ports: 1,
                    bytes: 4096,
                    dense_bytes: 160_000,
                    budget: 1 << 16,
                },
                ..solved
            }),
            WireResponse::Opened(OpenedInfo {
                name: "s1".into(),
                recovered: false,
                live: 0,
                colors: 0,
                next_seq: 0,
                engine: stats,
            }),
            WireResponse::Inserted(InsertedInfo {
                name: "s1".into(),
                item: 5,
                id: 0,
                color: 0,
            }),
            WireResponse::Removed(RemovedInfo {
                name: "s1".into(),
                id: 0,
                item: 5,
                moves: 2,
            }),
            WireResponse::Color(ColorInfo {
                name: "s1".into(),
                id: 1,
                item: 6,
                color: 3,
            }),
            WireResponse::Stats(SessionStats {
                name: "s1".into(),
                live: 4,
                colors: 2,
                next_seq: 9,
                fingerprint: "00ff00ff00ff00ff".into(),
                validated: true,
            }),
            WireResponse::Closed(NameRef { name: "s1".into() }),
            WireResponse::Error(WireError::new(WireErrorKind::UnknownSession, "nope")),
        ];
        for response in responses {
            let line = render_response(&response);
            assert_eq!(parse_response(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn durability_errors_map_to_typed_kinds() {
        let stored = DynamicConfig::default();
        let requested = DynamicConfig {
            recolor_budget: 1,
            ..stored
        };
        let err = WireError::from(DurabilityError::ConfigMismatch { stored, requested });
        assert_eq!(err.kind, WireErrorKind::ConfigMismatch);
        assert_eq!(err.stored, Some(stored));
        assert_eq!(err.requested, Some(requested));
        // The structured configs survive the wire.
        let line = render_response(&WireResponse::Error(err.clone()));
        assert_eq!(parse_response(&line).unwrap(), WireResponse::Error(err));

        assert_eq!(
            WireError::from(DurabilityError::NoSession).kind,
            WireErrorKind::UnknownSession
        );
        assert_eq!(
            WireError::from(DurabilityError::SessionExists).kind,
            WireErrorKind::SessionExists
        );
    }

    #[test]
    fn payloads_json_cannot_carry_render_as_typed_internal_errors() {
        let stored = DynamicConfig::default();
        let requested = DynamicConfig {
            drift_tolerance: f64::INFINITY,
            ..stored
        };
        let err = WireError::from(DurabilityError::ConfigMismatch { stored, requested });
        let line = render_response(&WireResponse::Error(err));
        match parse_response(&line).unwrap() {
            WireResponse::Error(e) => assert_eq!(e.kind, WireErrorKind::Internal, "{line}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    #[test]
    fn session_meta_is_the_identity_half_of_an_open() {
        let spec = open_spec("s1");
        let meta = SessionMeta::of_spec(&spec);
        assert_eq!(meta.family, Family::Scaling);
        assert_eq!(meta.n, 40);
        let json = serde_json::to_string(&meta).unwrap();
        let back: SessionMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }
}
