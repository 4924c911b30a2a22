//! Durable dynamic sessions: a write-ahead log plus snapshot/restore for the
//! [`DynamicScheduler`], behind a pluggable [`SessionStore`].
//!
//! A [`DurableScheduler`] appends one [`WalRecord`] per event, holding what
//! the event did: a [`WalEvent::Insert`] carries the item, its id and the
//! color it joined; a [`WalEvent::Remove`] carries the id, the recoloring
//! moves it triggered and the recolor cursor it left. A [`SessionSnapshot`]
//! is checkpointed every `checkpoint_every` events. Recovery
//! ([load-snapshot](SessionStore::load_snapshot) +
//! [read-tail](SessionStore::read_tail)) applies the tail to the snapshot's
//! [`SchedulerState`] as data and restores the scheduler once through
//! [`DynamicScheduler::from_state`]. No event is re-run, so recovery is exact
//! also on backends whose verdicts depend on their history (the
//! churn-capable sparse tier). The checks are structural — contiguous seqs,
//! each logged id the next id, each color at most the class count, each
//! removed or moved id live and each move leaving its class — and a failure
//! is [`DurabilityError::Corrupt`], as is a tail in the older format, whose
//! `Recolor` lines and color-less inserts do not parse.
//!
//! Two stores are provided: [`MemoryStore`] (tests, in-process handoff) and
//! [`DiskStore`] (an append-only JSONL `wal.jsonl` plus a `snapshot.json`
//! written atomically via a temp file + rename). A WAL line is durable only
//! once its trailing newline is on disk: recovery drops an unterminated
//! final line (a torn write mid-crash) and rejects any terminated line that
//! does not parse. The crash-point harness in `tests/durable_recovery.rs`
//! truncates a real session's WAL at every byte offset, on the exact and on
//! the sparse tier, and asserts recovery reproduces the pre-crash coloring
//! bit-for-bit, certified against the naive evaluator.
//!
//! # Example
//!
//! ```
//! use oblisched::durability::{DurableScheduler, MemoryStore};
//! use oblisched::dynamic::DynamicConfig;
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::{Instance, ObliviousPower, Request, SinrParams, Variant};
//!
//! let metric = LineMetric::new(vec![0.0, 1.0, 10.0, 12.0, 300.0, 304.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::SquareRoot);
//! let view = eval.view(Variant::Bidirectional);
//!
//! // A session over an in-memory store: every event is logged.
//! let config = DynamicConfig::default();
//! let mut session = DurableScheduler::create(&view, config, 2, MemoryStore::new())?;
//! let a = session.insert(0)?;
//! let _b = session.insert(1)?;
//! session.remove(a)?;
//!
//! // "Crash": drop the session, keep only the store. Recovery applies the
//! // tail after the last checkpoint and reproduces the state exactly.
//! let store = session.into_store();
//! let recovered = DurableScheduler::recover(&view, store)?;
//! assert_eq!(recovered.scheduler().len(), 1);
//! recovered.scheduler().validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dynamic::{
    DynamicConfig, DynamicError, DynamicScheduler, Removal, RequestId, SchedulerState, StateMember,
};
use oblisched_sinr::GainBackend;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default checkpoint cadence of a [`DurableScheduler`]: one snapshot per
/// this many insert/remove events.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 64;

/// One logged scheduler event and what it did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalEvent {
    /// An arrival: `item` was inserted, assigned the raw id `id` and placed
    /// in color `color`.
    Insert {
        /// The inserted engine item.
        item: usize,
        /// The raw [`RequestId`] the scheduler assigned.
        id: u64,
        /// The color the request joined.
        color: usize,
    },
    /// A departure of the raw id `id`.
    Remove {
        /// The raw [`RequestId`] that departed.
        id: u64,
        /// The recoloring moves the departure triggered, in application
        /// order: each the raw id of a live request and the color it joined.
        moves: Vec<(u64, usize)>,
        /// The recolor cursor after the departure. It advances also when a
        /// recolor pass moves nothing, so it cannot be inferred from `moves`.
        cursor: usize,
    },
}

/// One line of the write-ahead log: a sequence number plus the event.
/// Sequence numbers start at 0 and are contiguous, so the line index of an
/// unpruned log *is* the sequence number — what lets recovery skip the
/// snapshotted prefix without parsing it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalRecord {
    /// The record's position in the log, starting at 0.
    pub seq: u64,
    /// The logged event.
    pub event: WalEvent,
}

/// A checkpoint of a durable session: the scheduler's logical state plus
/// everything needed to resume logging (`next_seq`) and checkpointing
/// (`checkpoint_every`, `config`) exactly where the session left off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The sequence number of the first WAL record *not* covered by this
    /// snapshot — recovery replays the log from here.
    pub next_seq: u64,
    /// The session's checkpoint cadence.
    pub checkpoint_every: usize,
    /// The scheduler configuration the session runs under.
    pub config: DynamicConfig,
    /// The scheduler's logical state at `next_seq`.
    pub state: SchedulerState,
}

/// Everything that can go wrong logging, checkpointing or recovering a
/// durable session.
#[derive(Debug)]
pub enum DurabilityError {
    /// The underlying scheduler rejected an event.
    Dynamic(DynamicError),
    /// The store failed to read or write.
    Io(std::io::Error),
    /// A record or snapshot failed to serialize or deserialize.
    Serde(serde_json::Error),
    /// The log or snapshot is readable but inconsistent: a terminated WAL
    /// line that does not parse (an older log format included), a
    /// sequence-number gap, or a record that does not fit the state it is
    /// applied to (an id that is not the next one, a color past the class
    /// count, a removed or moved id that is not live).
    Corrupt {
        /// The sequence number of the offending record, when attributable.
        seq: Option<u64>,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Recovery was asked for a session that does not exist (no snapshot —
    /// an empty or absent store).
    NoSession,
    /// Creation was asked for a session that already exists.
    SessionExists,
    /// An existing session was opened with a different configuration.
    ConfigMismatch {
        /// The configuration the stored session runs under.
        stored: DynamicConfig,
        /// The configuration the caller requested.
        requested: DynamicConfig,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Dynamic(e) => write!(f, "scheduler rejected the event: {e}"),
            DurabilityError::Io(e) => write!(f, "session store i/o failed: {e}"),
            DurabilityError::Serde(e) => write!(f, "session record serialization failed: {e}"),
            DurabilityError::Corrupt {
                seq: Some(seq),
                detail,
            } => {
                write!(f, "session log corrupt at record {seq}: {detail}")
            }
            DurabilityError::Corrupt { seq: None, detail } => {
                write!(f, "session log corrupt: {detail}")
            }
            DurabilityError::NoSession => write!(f, "no session in the store (no snapshot)"),
            DurabilityError::SessionExists => write!(f, "a session already exists in the store"),
            DurabilityError::ConfigMismatch { stored, requested } => write!(
                f,
                "session config mismatch: stored {stored:?}, requested {requested:?}"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Dynamic(e) => Some(e),
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Serde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DynamicError> for DurabilityError {
    fn from(e: DynamicError) -> Self {
        DurabilityError::Dynamic(e)
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<serde_json::Error> for DurabilityError {
    fn from(e: serde_json::Error) -> Self {
        DurabilityError::Serde(e)
    }
}

/// Where a durable session keeps its write-ahead log and snapshot. The
/// contract is append-only: [`append`](SessionStore::append) must make the
/// record durable before returning, and
/// [`write_snapshot`](SessionStore::write_snapshot) must replace the
/// snapshot atomically *after* every record below its `next_seq` is durable
/// — so a crash at any point leaves either the old or the new snapshot, and
/// never a snapshot referencing log records that were lost.
pub trait SessionStore {
    /// Appends one record to the write-ahead log.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] / [`DurabilityError::Serde`] when the record
    /// cannot be made durable.
    fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError>;

    /// Atomically replaces the session snapshot.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] / [`DurabilityError::Serde`] when the
    /// snapshot cannot be made durable.
    fn write_snapshot(&mut self, snapshot: &SessionSnapshot) -> Result<(), DurabilityError>;

    /// Loads the current snapshot, `None` when the store holds no session.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] / [`DurabilityError::Serde`] when a present
    /// snapshot cannot be read back.
    fn load_snapshot(&self) -> Result<Option<SessionSnapshot>, DurabilityError>;

    /// Reads every durable log record with `seq >= from_seq`, in order.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] when the log is readable but
    /// inconsistent, [`DurabilityError::Io`] when it cannot be read.
    fn read_tail(&self, from_seq: u64) -> Result<Vec<WalRecord>, DurabilityError>;
}

/// An in-memory [`SessionStore`]: the log is a `Vec`, the snapshot an
/// `Option`. Used by tests and for handing a session between schedulers in
/// one process.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    records: Vec<WalRecord>,
    snapshot: Option<SessionSnapshot>,
}

impl MemoryStore {
    /// Creates an empty store (no session).
    pub fn new() -> Self {
        Self::default()
    }

    /// The full log, in order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// The current snapshot, if any.
    pub fn snapshot(&self) -> Option<&SessionSnapshot> {
        self.snapshot.as_ref()
    }
}

impl SessionStore for MemoryStore {
    fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        self.records.push(record.clone());
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &SessionSnapshot) -> Result<(), DurabilityError> {
        self.snapshot = Some(snapshot.clone());
        Ok(())
    }

    fn load_snapshot(&self) -> Result<Option<SessionSnapshot>, DurabilityError> {
        Ok(self.snapshot.clone())
    }

    fn read_tail(&self, from_seq: u64) -> Result<Vec<WalRecord>, DurabilityError> {
        Ok(self
            .records
            .iter()
            .filter(|r| r.seq >= from_seq)
            .cloned()
            .collect())
    }
}

/// An on-disk [`SessionStore`]: an append-only JSONL log `wal.jsonl` plus a
/// `snapshot.json` in one session directory.
///
/// * **Append** writes the record and its trailing newline in one write and
///   flushes; a line is durable exactly when its newline is on disk, so a
///   torn final line is dropped on recovery.
/// * **Snapshot** first syncs the log (the snapshot must never reference
///   records that were lost), then writes a temp file and renames it over
///   `snapshot.json` — readers see either the old or the new snapshot.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    wal: fs::File,
}

impl DiskStore {
    /// Name of the write-ahead log file inside the session directory.
    pub const WAL_FILE: &'static str = "wal.jsonl";
    /// Name of the snapshot file inside the session directory.
    pub const SNAPSHOT_FILE: &'static str = "snapshot.json";

    /// Opens (creating if needed) the session directory and its log.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the directory or log cannot be opened.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let wal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(Self::WAL_FILE))?;
        Ok(Self { dir, wal })
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(Self::SNAPSHOT_FILE)
    }
}

impl SessionStore for DiskStore {
    fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        let mut line = serde_json::to_string(record)?;
        line.push('\n');
        self.wal.write_all(line.as_bytes())?;
        self.wal.flush()?;
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &SessionSnapshot) -> Result<(), DurabilityError> {
        // The log must be durable before a snapshot claims to cover it.
        self.wal.sync_data()?;
        let tmp = self.dir.join(format!("{}.tmp", Self::SNAPSHOT_FILE));
        let json = serde_json::to_string(snapshot)?;
        fs::write(&tmp, json)?;
        fs::rename(&tmp, self.snapshot_path())?;
        Ok(())
    }

    fn load_snapshot(&self) -> Result<Option<SessionSnapshot>, DurabilityError> {
        let text = match fs::read_to_string(self.snapshot_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(serde_json::from_str(&text)?))
    }

    fn read_tail(&self, from_seq: u64) -> Result<Vec<WalRecord>, DurabilityError> {
        let text = match fs::read_to_string(self.dir.join(Self::WAL_FILE)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut tail = Vec::new();
        // Only newline-terminated lines are durable; an unterminated final
        // segment is a torn write and is dropped. The line index of the
        // unpruned log is the sequence number, so the snapshotted prefix is
        // skipped without parsing (recovery stays O(tail) in parse work).
        for (index, line) in text.split_inclusive('\n').enumerate() {
            let Some(line) = line.strip_suffix('\n') else {
                break;
            };
            let seq = index as u64;
            if seq < from_seq {
                continue;
            }
            let record: WalRecord =
                serde_json::from_str(line).map_err(|e| DurabilityError::Corrupt {
                    seq: Some(seq),
                    detail: format!("terminated WAL line does not parse: {e}"),
                })?;
            if record.seq != seq {
                return Err(DurabilityError::Corrupt {
                    seq: Some(seq),
                    detail: format!("record claims seq {}, log position says {seq}", record.seq),
                });
            }
            tail.push(record);
        }
        Ok(tail)
    }
}

/// Applies a log tail to `state` as plain data and restores the scheduler
/// from the result — the one fold behind [`replay_records`] and
/// [`DurableScheduler::recover`]. The first record must carry `next_seq`;
/// returns the scheduler and the seq after the tail.
fn restore<'s, S: GainBackend + ?Sized>(
    system: &'s S,
    config: DynamicConfig,
    mut state: SchedulerState,
    mut next_seq: u64,
    tail: &[WalRecord],
) -> Result<(DynamicScheduler<'s, S>, u64), DurabilityError> {
    for record in tail {
        let corrupt = |detail: String| DurabilityError::Corrupt {
            seq: Some(record.seq),
            detail,
        };
        if record.seq != next_seq {
            return Err(corrupt(format!(
                "expected seq {next_seq}, found {}",
                record.seq
            )));
        }
        let classes = &mut state.classes;
        match &record.event {
            &WalEvent::Insert { item, id, color } => {
                if id != state.next_id || color > classes.len() {
                    return Err(corrupt(format!(
                        "insert of id {id} into color {color} does not fit next id {} and {} \
                         classes",
                        state.next_id,
                        classes.len()
                    )));
                }
                state.next_id += 1;
                if color == classes.len() {
                    classes.push(Vec::new());
                }
                classes[color].push(StateMember { id, item });
            }
            WalEvent::Remove { id, moves, cursor } => {
                take(classes, *id).map_err(corrupt)?;
                for &(id, to) in moves {
                    match take(classes, id).map_err(corrupt)? {
                        (from, member) if from != to && to < classes.len() => {
                            classes[to].push(member);
                        }
                        (from, _) => {
                            return Err(corrupt(format!("id {id} cannot move from {from} to {to}")))
                        }
                    }
                }
                while classes.last().is_some_and(Vec::is_empty) {
                    classes.pop();
                }
                state.recolor_cursor = *cursor;
            }
        }
        next_seq += 1;
    }
    let sched = DynamicScheduler::from_state(system, config, &state)?;
    Ok((sched, next_seq))
}

/// Takes the live member `id` out of its class, keeping the order of the
/// others; returns the class it left.
fn take(classes: &mut [Vec<StateMember>], id: u64) -> Result<(usize, StateMember), String> {
    for (color, class) in classes.iter_mut().enumerate() {
        if let Some(pos) = class.iter().position(|member| member.id == id) {
            return Ok((color, class.remove(pos)));
        }
    }
    Err(format!("id {id} is not live"))
}

/// Applies a full record log (starting from sequence 0 over an empty
/// scheduler) and returns the resulting scheduler — the reference recovery
/// path the snapshot+tail fast path is tested against.
///
/// # Errors
///
/// [`DurabilityError::Corrupt`] on a sequence gap or a record that does not
/// fit the state, [`DurabilityError::Dynamic`] when the resulting state does
/// not restore over `system` (an item out of range or live twice).
pub fn replay_records<'s, S: GainBackend + ?Sized>(
    system: &'s S,
    config: DynamicConfig,
    records: &[WalRecord],
) -> Result<DynamicScheduler<'s, S>, DurabilityError> {
    let empty = DynamicScheduler::with_config(system, config).export_state();
    Ok(restore(system, config, empty, 0, records)?.0)
}

/// A [`DynamicScheduler`] wrapped with durability: every insert/remove is
/// appended to the [`SessionStore`]'s write-ahead log as one record of what
/// it did, a [`SessionSnapshot`] is checkpointed every `checkpoint_every`
/// events, and [`recover`](DurableScheduler::recover) rebuilds the exact
/// pre-crash state from snapshot + log tail.
#[derive(Debug)]
pub struct DurableScheduler<'s, S: GainBackend + ?Sized, St: SessionStore> {
    inner: DynamicScheduler<'s, S>,
    store: St,
    checkpoint_every: usize,
    events_since_checkpoint: usize,
    next_seq: u64,
    snapshots_written: u64,
}

impl<'s, S: GainBackend + ?Sized, St: SessionStore> DurableScheduler<'s, S, St> {
    /// Creates a *new* session in `store`: an empty scheduler plus an
    /// initial snapshot, so that from this point on "the store holds a
    /// session" and "a snapshot is present" are the same thing.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::SessionExists`] when the store already holds a
    /// session; store errors are passed through.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero or `config` is invalid (like
    /// [`DynamicScheduler::with_config`]).
    pub fn create(
        system: &'s S,
        config: DynamicConfig,
        checkpoint_every: usize,
        store: St,
    ) -> Result<Self, DurabilityError> {
        assert!(
            checkpoint_every >= 1,
            "the checkpoint cadence must be at least 1 event"
        );
        if store.load_snapshot()?.is_some() {
            return Err(DurabilityError::SessionExists);
        }
        let mut session = Self {
            inner: DynamicScheduler::with_config(system, config),
            store,
            checkpoint_every,
            events_since_checkpoint: 0,
            next_seq: 0,
            snapshots_written: 0,
        };
        session.checkpoint()?;
        Ok(session)
    }

    /// Recovers the session in `store`: loads the snapshot, applies the log
    /// tail from the snapshot's `next_seq` to its state as data (see the
    /// [module docs](self) for the checks), and restores the scheduler once
    /// via [`DynamicScheduler::from_state`].
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NoSession`] when the store holds no snapshot,
    /// [`DurabilityError::Corrupt`] on gaps or records that do not fit the
    /// state, and [`DurabilityError::Dynamic`] when the recovered state does
    /// not restore over the given system.
    pub fn recover(system: &'s S, store: St) -> Result<Self, DurabilityError> {
        let snapshot = store.load_snapshot()?.ok_or(DurabilityError::NoSession)?;
        let tail = store.read_tail(snapshot.next_seq)?;
        let (inner, next_seq) = restore(
            system,
            snapshot.config,
            snapshot.state,
            snapshot.next_seq,
            &tail,
        )?;
        Ok(Self {
            inner,
            store,
            checkpoint_every: snapshot.checkpoint_every,
            events_since_checkpoint: tail.len(),
            next_seq,
            snapshots_written: 0,
        })
    }

    /// Creates the session when the store is empty, recovers it otherwise —
    /// rejecting a recovery whose stored configuration differs from the
    /// requested one.
    ///
    /// `None` means the default ([`DynamicConfig::default`],
    /// [`DEFAULT_CHECKPOINT_EVERY`]) when creating, and the stored value when
    /// recovering; a requested cadence replaces the stored one.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::ConfigMismatch`] when an existing session runs
    /// under a different [`DynamicConfig`] than a requested one; otherwise
    /// the errors of [`create`](DurableScheduler::create) /
    /// [`recover`](DurableScheduler::recover).
    ///
    /// # Panics
    ///
    /// Panics if a requested cadence is zero or the config is invalid (like
    /// [`create`](DurableScheduler::create)).
    pub fn open(
        system: &'s S,
        config: Option<DynamicConfig>,
        checkpoint_every: Option<usize>,
        store: St,
    ) -> Result<Self, DurabilityError> {
        if store.load_snapshot()?.is_none() {
            return Self::create(
                system,
                config.unwrap_or_default(),
                checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
                store,
            );
        }
        let mut session = Self::recover(system, store)?;
        let stored = session.inner.config();
        if let Some(requested) = config.filter(|&requested| requested != stored) {
            return Err(DurabilityError::ConfigMismatch { stored, requested });
        }
        if let Some(every) = checkpoint_every {
            session.set_checkpoint_every(every);
        }
        Ok(session)
    }

    /// Replaces the checkpoint cadence; the next checkpoint is due once the
    /// events since the last one reach it.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn set_checkpoint_every(&mut self, every: usize) {
        assert!(
            every >= 1,
            "the checkpoint cadence must be at least 1 event"
        );
        self.checkpoint_every = every;
    }

    /// Inserts an item, logging the event (with the assigned id and color)
    /// and checkpointing when the cadence is due.
    ///
    /// # Errors
    ///
    /// The scheduler's [`DynamicError`]s (nothing is logged then), or store
    /// errors from the append/checkpoint.
    pub fn insert(&mut self, item: usize) -> Result<RequestId, DurabilityError> {
        let id = self.inner.insert(item)?;
        let color = self.inner.color_of(id).ok_or(DynamicError::UnknownId(id))?;
        self.log(WalEvent::Insert {
            item,
            id: id.raw(),
            color,
        })?;
        Ok(id)
    }

    /// Removes a live request, logging the removal with the recoloring moves
    /// it triggered and the cursor it left, and checkpointing when the
    /// cadence is due. Returns the removal's full effect.
    ///
    /// # Errors
    ///
    /// [`DynamicError::UnknownId`] via [`DurabilityError::Dynamic`] when
    /// `id` is not live (nothing is logged then), or store errors.
    pub fn remove(&mut self, id: RequestId) -> Result<Removal, DurabilityError> {
        let removal = self.inner.remove_traced(id)?;
        self.log(WalEvent::Remove {
            id: id.raw(),
            moves: removal
                .moves
                .iter()
                .map(|mv| (mv.id.raw(), mv.to))
                .collect(),
            cursor: removal.cursor,
        })?;
        Ok(removal)
    }

    /// Appends one event record and checkpoints when the cadence is due.
    fn log(&mut self, event: WalEvent) -> Result<(), DurabilityError> {
        self.store.append(&WalRecord {
            seq: self.next_seq,
            event,
        })?;
        self.next_seq += 1;
        self.events_since_checkpoint += 1;
        if self.events_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the current state now, resetting the cadence
    /// counter.
    ///
    /// # Errors
    ///
    /// Store errors from [`SessionStore::write_snapshot`].
    pub fn checkpoint(&mut self) -> Result<(), DurabilityError> {
        let snapshot = SessionSnapshot {
            next_seq: self.next_seq,
            checkpoint_every: self.checkpoint_every,
            config: self.inner.config(),
            state: self.inner.export_state(),
        };
        self.store.write_snapshot(&snapshot)?;
        self.snapshots_written += 1;
        self.events_since_checkpoint = 0;
        Ok(())
    }

    /// The wrapped scheduler (read-only — mutations must go through the
    /// logging methods).
    pub fn scheduler(&self) -> &DynamicScheduler<'s, S> {
        &self.inner
    }

    /// The session store.
    pub fn store(&self) -> &St {
        &self.store
    }

    /// Consumes the session and returns its store (e.g. to recover from it).
    pub fn into_store(self) -> St {
        self.store
    }

    /// The sequence number the next WAL record will carry (also the number
    /// of events logged so far for an unpruned session).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of snapshots this session handle has written (the initial
    /// creation checkpoint counts; recovery starts the counter at zero).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// The checkpoint cadence in effect.
    pub fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    /// Delegates to [`DynamicScheduler::validate`].
    ///
    /// # Errors
    ///
    /// Any [`DynamicError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), DynamicError> {
        self.inner.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::nested_chain;
    use oblisched_sinr::{ObliviousPower, SinrParams, Variant};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    #[test]
    fn memory_session_recovers_exactly() {
        let inst = nested_chain(10, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        let mut session = DurableScheduler::create(&view, config, 3, MemoryStore::new()).unwrap();
        let ids: Vec<RequestId> = (0..10).map(|i| session.insert(i).unwrap()).collect();
        let mut moves = 0;
        for &id in &ids[..7] {
            moves += session.remove(id).unwrap().moves.len();
        }
        let expected = session.scheduler().export_state();
        assert!(session.snapshots_written() >= 2);
        // One record per event, and removals under uniform power on the
        // nested chain recolor, so some Remove records carry moves.
        assert_eq!(session.next_seq(), 17);
        assert!(moves > 0);
        let store = session.into_store();
        let recovered = DurableScheduler::recover(&view, store).unwrap();
        assert_eq!(recovered.scheduler().export_state(), expected);
        recovered.validate().unwrap();
        // Full-log replay agrees with the snapshot+tail fast path.
        let replayed = replay_records(&view, config, recovered.store().records()).unwrap();
        assert_eq!(replayed.export_state(), expected);
    }

    #[test]
    fn create_rejects_an_existing_session_and_recover_an_absent_one() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        assert!(matches!(
            DurableScheduler::recover(&view, MemoryStore::new()),
            Err(DurabilityError::NoSession)
        ));
        let session = DurableScheduler::create(&view, config, 4, MemoryStore::new()).unwrap();
        let store = session.into_store();
        assert!(matches!(
            DurableScheduler::create(&view, config, 4, store),
            Err(DurabilityError::SessionExists)
        ));
    }

    #[test]
    fn open_creates_then_recovers_and_checks_the_config() {
        let inst = nested_chain(6, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        // Absent values are the defaults when creating...
        let mut session = DurableScheduler::open(&view, None, None, MemoryStore::new()).unwrap();
        assert_eq!(session.scheduler().config(), config);
        assert_eq!(session.checkpoint_every(), DEFAULT_CHECKPOINT_EVERY);
        session.insert(0).unwrap();
        session.insert(3).unwrap();
        let expected = session.scheduler().export_state();
        let store = session.into_store();
        let other = DynamicConfig {
            recolor_budget: 1,
            ..config
        };
        match DurableScheduler::open(&view, Some(other), Some(2), store.clone()) {
            Err(DurabilityError::ConfigMismatch { stored, requested }) => {
                assert_eq!(stored, config);
                assert_eq!(requested, other);
            }
            Ok(_) => panic!("expected ConfigMismatch, got a recovered session"),
            Err(e) => panic!("expected ConfigMismatch, got {e}"),
        }
        // ...a requested cadence replaces the stored one...
        let mut reopened = DurableScheduler::open(&view, Some(config), Some(5), store).unwrap();
        assert_eq!(reopened.scheduler().export_state(), expected);
        assert_eq!(reopened.checkpoint_every(), 5);
        // ...and absent values keep what the store holds.
        reopened.checkpoint().unwrap();
        let kept = DurableScheduler::open(&view, None, None, reopened.into_store()).unwrap();
        assert_eq!(kept.scheduler().export_state(), expected);
        assert_eq!(kept.checkpoint_every(), 5);
    }

    #[test]
    fn failed_events_log_nothing() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut session =
            DurableScheduler::create(&view, DynamicConfig::default(), 8, MemoryStore::new())
                .unwrap();
        let id = session.insert(1).unwrap();
        let before = session.next_seq();
        // Double insert of a live item: typed error, no new record.
        assert!(matches!(
            session.insert(1),
            Err(DurabilityError::Dynamic(DynamicError::AlreadyLive { .. }))
        ));
        // Removal of an unknown id: typed error, no new record.
        assert!(matches!(
            session.remove(RequestId::from_raw(999)),
            Err(DurabilityError::Dynamic(DynamicError::UnknownId(_)))
        ));
        assert_eq!(session.next_seq(), before);
        assert_eq!(session.scheduler().len(), 1);
        session.remove(id).unwrap();
        assert!(session.scheduler().is_empty());
    }

    #[test]
    fn replay_rejects_records_that_do_not_fit_the_state() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        let insert = |seq, item, id, color| WalRecord {
            seq,
            event: WalEvent::Insert { item, id, color },
        };
        let remove = |seq, id, moves: &[(u64, usize)]| WalRecord {
            seq,
            event: WalEvent::Remove {
                id,
                moves: moves.to_vec(),
                cursor: 0,
            },
        };
        // Two requests in colors 0 and 1: the prefix every case extends.
        let base = [insert(0, 0, 0, 0), insert(1, 1, 1, 1)];
        let replayed = replay_records(&view, config, &base).unwrap();
        assert_eq!(replayed.color_classes(), vec![vec![0], vec![1]]);
        for (bad, at) in [
            // A sequence gap.
            (insert(5, 2, 2, 0), 5),
            // An id that is not the next id.
            (insert(2, 2, 7, 0), 2),
            // A color past the class count.
            (insert(2, 2, 2, 3), 2),
            // The removal of an id that is not live.
            (remove(2, 9, &[]), 2),
            // A move of an id that is not live...
            (remove(2, 0, &[(9, 0)]), 2),
            // ...or within the class the request is in.
            (remove(2, 0, &[(1, 1)]), 2),
        ] {
            let records = [base[0].clone(), base[1].clone(), bad];
            match replay_records(&view, config, &records) {
                Err(DurabilityError::Corrupt { seq: Some(seq), .. }) => assert_eq!(seq, at),
                Err(e) => panic!("expected Corrupt at {at}, got {e}"),
                Ok(_) => panic!("expected Corrupt at {at}, got a scheduler"),
            }
        }
        // Negative control: a move out of the last class into an emptied one
        // applies, and the emptied trailing class goes.
        let records = [base[0].clone(), base[1].clone(), remove(2, 0, &[(1, 0)])];
        let replayed = replay_records(&view, config, &records).unwrap();
        assert_eq!(replayed.color_classes(), vec![vec![1]]);
        // Errors render readable descriptions.
        let err = replay_records(&view, config, &[insert(5, 0, 0, 0)]).unwrap_err();
        assert!(err.to_string().contains("corrupt"));
        assert!(DurabilityError::NoSession
            .to_string()
            .contains("no session"));
    }

    #[test]
    fn wal_records_round_trip_through_json_and_older_lines_do_not_parse() {
        let records = [
            WalRecord {
                seq: 0,
                event: WalEvent::Insert {
                    item: 3,
                    id: 0,
                    color: 2,
                },
            },
            WalRecord {
                seq: 1,
                event: WalEvent::Remove {
                    id: 0,
                    moves: vec![(4, 0), (6, 1)],
                    cursor: 16,
                },
            },
        ];
        for record in records {
            let line = serde_json::to_string(&record).unwrap();
            let back: WalRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, record);
        }
        // Lines of the format before records held their effects.
        for old in [
            r#"{"seq":0,"event":{"Insert":{"item":3,"id":0}}}"#,
            r#"{"seq":1,"event":{"Remove":{"id":0}}}"#,
            r#"{"seq":2,"event":{"Recolor":{"id":4,"from":2,"to":0}}}"#,
        ] {
            assert!(serde_json::from_str::<WalRecord>(old).is_err(), "{old}");
        }
    }
}
