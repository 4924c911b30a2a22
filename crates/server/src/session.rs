//! The daemon's session layer: one actor thread per named durable session,
//! coordinated by a [`SessionRegistry`].
//!
//! A session owns a deep borrow chain — instance → evaluator → variant view
//! → interference backend → [`DurableScheduler`] — that cannot be stored in
//! a shared map. The actor pattern sidesteps the lifetimes entirely: a
//! dedicated thread builds the whole stack on its own stack frame and
//! serves commands over an mpsc channel; the registry only holds the
//! channel's sender (behind a per-session mutex, so commands to one session
//! serialize while independent sessions mutate concurrently) plus the
//! session's pinned identity.
//!
//! Durability is the PR-6 contract: every insert/remove appends to the
//! session's WAL (flushed per append) under `data_dir/<name>/`, with
//! snapshots on the configured cadence, so a killed daemon recovers every
//! session bit-for-bit on restart — [`SessionRegistry::recover_all`] scans
//! the data directory and respawns an actor per persisted session before
//! the listener accepts its first connection.
//!
//! This module never reads the wall clock; latency is measured by clients.

use crate::protocol::{
    ColorInfo, InsertedInfo, OpenSpec, OpenedInfo, RemovedInfo, SessionMeta, SessionStats,
    WireError, WireErrorKind,
};
use oblisched::durability::{DiskStore, DurableScheduler, DEFAULT_CHECKPOINT_EVERY};
use oblisched::dynamic::{DynamicConfig, RequestId, SchedulerState};
use oblisched::scheduler::Scheduler;
use oblisched::solve::BackendPolicy;
use oblisched_instances::{build_family, FamilyInstance};
use oblisched_metric::{MetricSpace, PlanarMetric};
use oblisched_sinr::Instance;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::{fs, thread};

/// The per-session identity file written next to the PR-6 `wal.jsonl` /
/// `snapshot.json` pair: the family triple and model the WAL's events
/// replay against.
pub const META_FILE: &str = "meta.json";

/// The maximum accepted session-name length.
pub const MAX_NAME_LEN: usize = 64;

fn internal(detail: impl Into<String>) -> WireError {
    WireError::new(WireErrorKind::Internal, detail)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means some thread panicked mid-operation; the guarded
    // state (a sender / join handle / map of handles) is still structurally
    // sound, so serving is better than cascading the panic.
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Validates a session name: non-empty, at most [`MAX_NAME_LEN`] bytes,
/// letters/digits/`-`/`_` only (it doubles as an on-disk directory name).
///
/// # Errors
///
/// [`WireErrorKind::BadName`] otherwise.
pub fn validate_name(name: &str) -> Result<(), WireError> {
    if name.is_empty() || name.len() > MAX_NAME_LEN {
        return Err(WireError::new(
            WireErrorKind::BadName,
            format!("session names must be 1..={MAX_NAME_LEN} bytes"),
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(WireError::new(
            WireErrorKind::BadName,
            format!("session name {name:?} has characters outside [A-Za-z0-9_-]"),
        ));
    }
    Ok(())
}

/// FNV-1a (64-bit) over a word stream — the same deterministic fingerprint
/// construction the bench crate uses for schedules.
pub fn fingerprint64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The fingerprint of a scheduler's exact logical state: every class, every
/// member's `(id, item)` in order, plus the id counter and recolor cursor.
/// Equal fingerprints ⇔ bit-for-bit identical colorings (modulo the usual
/// 64-bit collision caveat) — the currency of the restart-recovery test.
pub fn state_fingerprint(state: &SchedulerState) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(8);
    words.push(state.classes.len() as u64);
    for (color, class) in state.classes.iter().enumerate() {
        words.push(color as u64);
        words.push(class.len() as u64);
        for member in class {
            words.push(member.id);
            words.push(member.item as u64);
        }
    }
    words.push(state.next_id);
    words.push(state.recolor_cursor as u64);
    fingerprint64(words)
}

/// How an actor should bring up its [`DurableScheduler`].
#[derive(Debug, Clone)]
struct OpenMode {
    /// The client-requested configuration; `None` accepts whatever the
    /// store holds (or the default for a fresh session).
    config: Option<DynamicConfig>,
    /// The client-requested snapshot cadence.
    checkpoint_every: Option<usize>,
    /// `true` for the startup scan: a snapshot must exist and its stored
    /// configuration is authoritative.
    restart: bool,
}

enum SessionCommand {
    /// Re-open of a live session: config check + counters.
    Attach {
        config: Option<DynamicConfig>,
        reply: Sender<Result<OpenedInfo, WireError>>,
    },
    Insert {
        item: usize,
        reply: Sender<Result<InsertedInfo, WireError>>,
    },
    Remove {
        id: u64,
        reply: Sender<Result<RemovedInfo, WireError>>,
    },
    Color {
        id: u64,
        reply: Sender<Result<ColorInfo, WireError>>,
    },
    Stats {
        validate: bool,
        reply: Sender<Result<SessionStats, WireError>>,
    },
    /// Checkpoint and stop the actor (durable state stays on disk).
    Close {
        reply: Sender<Result<(), WireError>>,
    },
}

/// A live session: the command channel to its actor thread plus its pinned
/// identity. The sender's mutex is the per-session lock — commands to the
/// same session serialize, independent sessions proceed concurrently.
struct SessionHandle {
    meta: SessionMeta,
    tx: Mutex<Sender<SessionCommand>>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl SessionHandle {
    /// Sends one command and waits for its reply, holding the per-session
    /// lock across the round trip.
    fn call<T>(
        &self,
        make: impl FnOnce(Sender<Result<T, WireError>>) -> SessionCommand,
    ) -> Result<T, WireError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = lock(&self.tx);
        tx.send(make(reply_tx))
            .map_err(|_| internal("session actor terminated"))?;
        match reply_rx.recv() {
            Ok(result) => result,
            Err(_) => Err(internal("session actor died serving the request")),
        }
    }

    fn join_actor(&self) {
        if let Some(handle) = lock(&self.join).take() {
            let _ = handle.join();
        }
    }
}

/// The registry of named durable sessions behind the daemon.
pub struct SessionRegistry {
    data_dir: PathBuf,
    sessions: Mutex<BTreeMap<String, Arc<SessionHandle>>>,
}

impl SessionRegistry {
    /// Opens (creating if needed) a registry rooted at `data_dir`; each
    /// session persists under `data_dir/<name>/`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn new(data_dir: impl Into<PathBuf>) -> std::io::Result<SessionRegistry> {
        let data_dir = data_dir.into();
        fs::create_dir_all(&data_dir)?;
        Ok(SessionRegistry {
            data_dir,
            sessions: Mutex::new(BTreeMap::new()),
        })
    }

    /// The registry's data directory.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Names of the currently live (in-memory) sessions.
    pub fn live_sessions(&self) -> Vec<String> {
        lock(&self.sessions).keys().cloned().collect()
    }

    /// Scans the data directory and respawns an actor for every persisted
    /// session — the daemon's restart path. Returns one `(name, outcome)`
    /// row per on-disk session; a failed recovery leaves that session on
    /// disk untouched and the daemon serving everything else.
    pub fn recover_all(&self) -> Vec<(String, Result<OpenedInfo, WireError>)> {
        let mut rows = Vec::new();
        let entries = match fs::read_dir(&self.data_dir) {
            Ok(entries) => entries,
            Err(e) => return vec![(String::from("<data-dir>"), Err(WireError::from(e)))],
        };
        let mut names: Vec<String> = entries
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.path().join(META_FILE).is_file())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .collect();
        names.sort();
        for name in names {
            let outcome = self.recover_one(&name);
            rows.push((name, outcome));
        }
        rows
    }

    fn recover_one(&self, name: &str) -> Result<OpenedInfo, WireError> {
        validate_name(name)?;
        let dir = self.data_dir.join(name);
        let meta = read_meta(&dir)?;
        let mode = OpenMode {
            config: None,
            checkpoint_every: None,
            restart: true,
        };
        let (handle, info) = spawn_session(name.to_owned(), meta, dir, mode)?;
        lock(&self.sessions).insert(name.to_owned(), handle);
        Ok(info)
    }

    /// Serves a session `open`: attach to a live session, recover a
    /// persisted one, or create a fresh one — with typed
    /// `meta_mismatch` / `config_mismatch` errors when the request
    /// contradicts what exists.
    ///
    /// A fresh session whose bring-up fails leaves nothing behind: the
    /// files this call wrote for it are removed again, so the name stays
    /// free and no daemon start tries to recover it. A session whose
    /// `meta.json` was already there is never touched on failure.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::BadName`], [`WireErrorKind::BadRequest`] (a zero
    /// `checkpoint_every` or a config that fails
    /// [`DynamicConfig::validate`], refused before anything is written),
    /// [`WireErrorKind::MetaMismatch`], [`WireErrorKind::ConfigMismatch`],
    /// or the family/durability errors of bringing the session up.
    pub fn open(&self, spec: &OpenSpec) -> Result<OpenedInfo, WireError> {
        validate_name(&spec.name)?;
        if spec.checkpoint_every == Some(0) {
            return Err(WireError::new(
                WireErrorKind::BadRequest,
                "checkpoint_every must be at least 1 event",
            ));
        }
        if let Some(config) = &spec.config {
            config
                .validate()
                .map_err(|reason| WireError::new(WireErrorKind::BadRequest, reason))?;
        }
        let requested = SessionMeta::of_spec(spec);

        if let Some(handle) = lock(&self.sessions).get(&spec.name).cloned() {
            if handle.meta != requested {
                return Err(meta_mismatch(&spec.name, &handle.meta, &requested));
            }
            let result = handle.call(|reply| SessionCommand::Attach {
                config: spec.config,
                reply,
            });
            if matches!(&result, Err(e) if e.kind == WireErrorKind::Internal) {
                self.forget(&spec.name);
            }
            return result;
        }

        let dir = self.data_dir.join(&spec.name);
        let created = if dir.join(META_FILE).is_file() {
            let stored = read_meta(&dir)?;
            if stored != requested {
                return Err(meta_mismatch(&spec.name, &stored, &requested));
            }
            Vec::new()
        } else {
            let created = missing_paths(&dir);
            if let Err(err) = write_meta(&dir, &requested) {
                remove_created(&created);
                return Err(err);
            }
            created
        };

        let mode = OpenMode {
            config: spec.config,
            checkpoint_every: spec.checkpoint_every,
            restart: false,
        };
        match spawn_session(spec.name.clone(), requested, dir, mode) {
            Ok((handle, info)) => {
                lock(&self.sessions).insert(spec.name.clone(), handle);
                Ok(info)
            }
            Err(err) => {
                remove_created(&created);
                Err(err)
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<Arc<SessionHandle>, WireError> {
        lock(&self.sessions).get(name).cloned().ok_or_else(|| {
            WireError::new(
                WireErrorKind::UnknownSession,
                format!("no open session named {name:?} (send a session open first)"),
            )
        })
    }

    fn forget(&self, name: &str) {
        if let Some(handle) = lock(&self.sessions).remove(name) {
            handle.join_actor();
        }
    }

    fn call_session<T>(
        &self,
        name: &str,
        make: impl FnOnce(Sender<Result<T, WireError>>) -> SessionCommand,
    ) -> Result<T, WireError> {
        let handle = self.lookup(name)?;
        let result = handle.call(make);
        if matches!(&result, Err(e) if e.kind == WireErrorKind::Internal) {
            self.forget(name);
        }
        result
    }

    /// Inserts a universe item into a named session.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::UnknownSession`], or the scheduler's errors.
    pub fn insert(&self, name: &str, item: usize) -> Result<InsertedInfo, WireError> {
        self.call_session(name, |reply| SessionCommand::Insert { item, reply })
    }

    /// Removes a live request by raw id.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::UnknownSession`], or the scheduler's errors.
    pub fn remove(&self, name: &str, id: u64) -> Result<RemovedInfo, WireError> {
        self.call_session(name, |reply| SessionCommand::Remove { id, reply })
    }

    /// Queries a live request's color.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::UnknownSession`], or an unknown-id error.
    pub fn color(&self, name: &str, id: u64) -> Result<ColorInfo, WireError> {
        self.call_session(name, |reply| SessionCommand::Color { id, reply })
    }

    /// Session counters, optionally certified against the naive evaluator.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::UnknownSession`], or a certification failure.
    pub fn stats(&self, name: &str, validate: bool) -> Result<SessionStats, WireError> {
        self.call_session(name, |reply| SessionCommand::Stats { validate, reply })
    }

    /// Checkpoints and detaches a session; its durable state stays on disk
    /// and a later `open` (or a daemon restart) recovers it.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::UnknownSession`], or checkpoint I/O errors.
    pub fn close(&self, name: &str) -> Result<(), WireError> {
        let handle = self.lookup(name)?;
        let result = handle.call(|reply| SessionCommand::Close { reply });
        self.forget(name);
        result
    }

    /// Closes every live session (checkpointing each) — the graceful
    /// shutdown path. Returns the number of sessions closed.
    pub fn shutdown_all(&self) -> usize {
        let drained: Vec<(String, Arc<SessionHandle>)> = {
            let mut sessions = lock(&self.sessions);
            std::mem::take(&mut *sessions).into_iter().collect()
        };
        let mut closed = 0;
        for (_, handle) in drained {
            if handle.call(|reply| SessionCommand::Close { reply }).is_ok() {
                closed += 1;
            }
            handle.join_actor();
        }
        closed
    }
}

fn meta_mismatch(name: &str, stored: &SessionMeta, requested: &SessionMeta) -> WireError {
    WireError::new(
        WireErrorKind::MetaMismatch,
        format!(
            "session {name:?} exists over a different universe: \
             stored {stored:?}, requested {requested:?}"
        ),
    )
}

/// Writes a fresh session's identity file, creating its directory.
fn write_meta(dir: &Path, meta: &SessionMeta) -> Result<(), WireError> {
    fs::create_dir_all(dir).map_err(WireError::from)?;
    let rendered = serde_json::to_string_pretty(meta).map_err(WireError::from)?;
    fs::write(dir.join(META_FILE), rendered + "\n").map_err(WireError::from)
}

/// The paths a fresh session's bring-up writes under `dir` that do not
/// exist yet: its identity file, log and snapshot, and `dir` itself when it
/// is missing too.
fn missing_paths(dir: &Path) -> Vec<PathBuf> {
    [META_FILE, DiskStore::WAL_FILE, DiskStore::SNAPSHOT_FILE]
        .iter()
        .map(|file| dir.join(file))
        .chain([dir.to_path_buf()])
        .filter(|path| !path.exists())
        .collect()
}

/// Takes back what a failed bring-up wrote at `paths` (see
/// [`missing_paths`]): the files, then the directory with whatever is left
/// in it when this call created it.
fn remove_created(paths: &[PathBuf]) {
    for path in paths {
        let _ = if path.is_dir() {
            fs::remove_dir_all(path)
        } else {
            fs::remove_file(path)
        };
    }
}

fn read_meta(dir: &Path) -> Result<SessionMeta, WireError> {
    let text = fs::read_to_string(dir.join(META_FILE)).map_err(WireError::from)?;
    serde_json::from_str(&text).map_err(|e| {
        WireError::new(
            WireErrorKind::Durability,
            format!("corrupt {META_FILE} in {dir:?}: {e}"),
        )
    })
}

/// Spawns the actor thread and waits for it to finish bring-up; returns the
/// handle and the `opened` counters, or the bring-up error.
fn spawn_session(
    name: String,
    meta: SessionMeta,
    dir: PathBuf,
    mode: OpenMode,
) -> Result<(Arc<SessionHandle>, OpenedInfo), WireError> {
    let (tx, rx) = mpsc::channel();
    let (ready_tx, ready_rx) = mpsc::channel();
    let actor_meta = meta.clone();
    let actor_name = name.clone();
    let join = thread::Builder::new()
        .name(format!("session-{name}"))
        .spawn(move || actor_main(actor_name, actor_meta, dir, mode, rx, ready_tx))
        .map_err(|e| internal(format!("failed to spawn session actor: {e}")))?;
    match ready_rx.recv() {
        Ok(Ok(info)) => Ok((
            Arc::new(SessionHandle {
                meta,
                tx: Mutex::new(tx),
                join: Mutex::new(Some(join)),
            }),
            info,
        )),
        Ok(Err(err)) => {
            let _ = join.join();
            Err(err)
        }
        Err(_) => {
            let _ = join.join();
            Err(internal("session actor died during bring-up"))
        }
    }
}

fn actor_main(
    name: String,
    meta: SessionMeta,
    dir: PathBuf,
    mode: OpenMode,
    rx: Receiver<SessionCommand>,
    ready: Sender<Result<OpenedInfo, WireError>>,
) {
    let instance = match build_family(meta.family, meta.n, meta.seed) {
        Ok(instance) => instance,
        Err(e) => {
            let _ = ready.send(Err(WireError::from(e)));
            return;
        }
    };
    match instance {
        FamilyInstance::Planar(inst) => actor_loop(name, inst, &meta, &dir, &mode, rx, ready),
        FamilyInstance::Line(inst) => actor_loop(name, inst, &meta, &dir, &mode, rx, ready),
    }
}

/// The actor body: builds the full borrow chain on this thread's stack and
/// serves commands until `Close` or the registry drops the sender.
fn actor_loop<M: MetricSpace + PlanarMetric>(
    name: String,
    instance: Instance<M>,
    meta: &SessionMeta,
    dir: &Path,
    mode: &OpenMode,
    rx: Receiver<SessionCommand>,
    ready: Sender<Result<OpenedInfo, WireError>>,
) {
    let params = meta.params.unwrap_or_default();
    let power = meta.assignment.scheme();
    let eval = instance.evaluator(params, &power);
    let view = eval.view(meta.variant);
    let scheduler = Scheduler::new(params);
    let (backend, engine) =
        scheduler.session_backend(&view, meta.backend.unwrap_or(BackendPolicy::Auto));

    let had_snapshot = dir.join(DiskStore::SNAPSHOT_FILE).is_file();
    let store = match DiskStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            let _ = ready.send(Err(WireError::from(e)));
            return;
        }
    };
    let cadence = mode.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    let opened = if mode.restart {
        DurableScheduler::recover(&backend, store)
    } else {
        match mode.config {
            Some(config) => DurableScheduler::open(&backend, config, cadence, store),
            // No requested config: accept whatever the store holds, or
            // start fresh with the defaults.
            None if had_snapshot => DurableScheduler::recover(&backend, store),
            None => DurableScheduler::create(&backend, DynamicConfig::default(), cadence, store),
        }
    };
    let mut session = match opened {
        Ok(session) => session,
        Err(e) => {
            let _ = ready.send(Err(WireError::from(e)));
            return;
        }
    };

    let opened_info = |session: &DurableScheduler<'_, _, DiskStore>, recovered: bool| OpenedInfo {
        name: name.clone(),
        recovered,
        live: session.scheduler().len(),
        colors: session.scheduler().num_colors(),
        next_seq: session.next_seq(),
        engine,
    };
    if ready.send(Ok(opened_info(&session, had_snapshot))).is_err() {
        return;
    }

    while let Ok(command) = rx.recv() {
        match command {
            SessionCommand::Attach { config, reply } => {
                let stored = session.scheduler().config();
                let result = match config {
                    Some(requested) if requested != stored => Err(WireError {
                        kind: WireErrorKind::ConfigMismatch,
                        detail: format!(
                            "session {name:?} runs under a different DynamicConfig: \
                             stored {stored:?}, requested {requested:?}"
                        ),
                        stored: Some(stored),
                        requested: Some(requested),
                    }),
                    _ => Ok(opened_info(&session, true)),
                };
                let _ = reply.send(result);
            }
            SessionCommand::Insert { item, reply } => {
                let result = session
                    .insert(item)
                    .map_err(WireError::from)
                    .and_then(|id| {
                        let color = session
                            .scheduler()
                            .color_of(id)
                            .ok_or_else(|| internal("inserted id has no color"))?;
                        Ok(InsertedInfo {
                            name: name.clone(),
                            item,
                            id: id.raw(),
                            color,
                        })
                    });
                let _ = reply.send(result);
            }
            SessionCommand::Remove { id, reply } => {
                let rid = RequestId::from_raw(id);
                let before = session.next_seq();
                let result = session.remove(rid).map_err(WireError::from).map(|item| {
                    // The WAL gets one record for the removal itself plus
                    // one per recoloring migration it triggered.
                    let moves = (session.next_seq() - before).saturating_sub(1) as usize;
                    RemovedInfo {
                        name: name.clone(),
                        id,
                        item,
                        moves,
                    }
                });
                let _ = reply.send(result);
            }
            SessionCommand::Color { id, reply } => {
                let rid = RequestId::from_raw(id);
                let result = match (
                    session.scheduler().item_of(rid),
                    session.scheduler().color_of(rid),
                ) {
                    (Some(item), Some(color)) => Ok(ColorInfo {
                        name: name.clone(),
                        id,
                        item,
                        color,
                    }),
                    _ => Err(WireError::new(
                        WireErrorKind::Dynamic,
                        format!("no live request with id {id} in session {name:?}"),
                    )),
                };
                let _ = reply.send(result);
            }
            SessionCommand::Stats { validate, reply } => {
                let result = if validate {
                    session
                        .scheduler()
                        .validate_against(&view)
                        .map_err(|e| {
                            WireError::new(
                                WireErrorKind::Dynamic,
                                format!("naive certification failed for {name:?}: {e}"),
                            )
                        })
                        .map(|()| true)
                } else {
                    Ok(false)
                };
                let result = result.map(|validated| {
                    let state = session.scheduler().export_state();
                    SessionStats {
                        name: name.clone(),
                        live: session.scheduler().len(),
                        colors: session.scheduler().num_colors(),
                        next_seq: session.next_seq(),
                        fingerprint: format!("{:016x}", state_fingerprint(&state)),
                        validated,
                    }
                });
                let _ = reply.send(result);
            }
            SessionCommand::Close { reply } => {
                let _ = reply.send(session.checkpoint().map_err(WireError::from));
                return;
            }
        }
    }
    // Sender dropped without a Close (e.g. the process is aborting): the
    // WAL is flushed per append, so there is nothing left to protect.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{OpenSpec, WireErrorKind};
    use oblisched::solve::PowerAssignment;
    use oblisched_instances::Family;
    use oblisched_sinr::Variant;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oblisched-server-session-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn spec(name: &str) -> OpenSpec {
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
    fn names_are_validated() {
        assert!(validate_name("load-3_x").is_ok());
        for bad in ["", "a/b", "a b", "..", &"x".repeat(65)] {
            assert_eq!(
                validate_name(bad).unwrap_err().kind,
                WireErrorKind::BadName,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn open_mutate_close_reopen_recovers_bit_for_bit() {
        let dir = temp_dir("reopen");
        let registry = SessionRegistry::new(&dir).expect("registry");
        let opened = registry.open(&spec("s1")).expect("open");
        assert!(!opened.recovered);
        assert_eq!(opened.live, 0);

        let mut ids = Vec::new();
        for item in 0..12 {
            let inserted = registry.insert("s1", item).expect("insert");
            assert_eq!(inserted.item, item);
            ids.push(inserted.id);
        }
        let removed = registry.remove("s1", ids[3]).expect("remove");
        assert_eq!(removed.item, 3);
        let stats = registry.stats("s1", true).expect("stats");
        assert!(stats.validated);
        assert_eq!(stats.live, 11);
        registry.close("s1").expect("close");
        assert!(registry.live_sessions().is_empty());

        // Reopen attaches to the durable state.
        let reopened = registry.open(&spec("s1")).expect("reopen");
        assert!(reopened.recovered);
        assert_eq!(reopened.live, 11);
        let stats2 = registry.stats("s1", true).expect("stats");
        assert_eq!(stats2.fingerprint, stats.fingerprint);

        // A second registry over the same data dir (a "restarted daemon")
        // recovers the session from the scan.
        registry.close("s1").expect("close");
        let registry2 = SessionRegistry::new(&dir).expect("registry2");
        let rows = registry2.recover_all();
        assert_eq!(rows.len(), 1);
        let (name, outcome) = &rows[0];
        assert_eq!(name, "s1");
        let info = outcome.as_ref().expect("recovered");
        assert!(info.recovered);
        assert_eq!(info.live, 11);
        let stats3 = registry2.stats("s1", true).expect("stats");
        assert_eq!(stats3.fingerprint, stats.fingerprint);
        registry2.shutdown_all();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_and_meta_mismatches_are_typed() {
        let dir = temp_dir("mismatch");
        let registry = SessionRegistry::new(&dir).expect("registry");
        registry.open(&spec("s1")).expect("open");
        registry.insert("s1", 0).expect("insert");

        // Live session, different config → config_mismatch with payloads.
        let mut wrong_config = spec("s1");
        wrong_config.config = Some(DynamicConfig {
            recolor_budget: 1,
            ..DynamicConfig::default()
        });
        let err = registry.open(&wrong_config).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::ConfigMismatch);
        assert!(err.stored.is_some() && err.requested.is_some());

        // Live session, different universe → meta_mismatch.
        let mut wrong_meta = spec("s1");
        wrong_meta.seed = 8;
        assert_eq!(
            registry.open(&wrong_meta).unwrap_err().kind,
            WireErrorKind::MetaMismatch
        );

        // Same checks against the persisted (closed) session.
        registry.close("s1").expect("close");
        assert_eq!(
            registry.open(&wrong_meta).unwrap_err().kind,
            WireErrorKind::MetaMismatch
        );
        let err = registry.open(&wrong_config).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::ConfigMismatch);
        assert!(err.stored.is_some() && err.requested.is_some());

        // Unknown session verbs are typed too.
        assert_eq!(
            registry.insert("nope", 0).unwrap_err().kind,
            WireErrorKind::UnknownSession
        );
        registry.shutdown_all();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_open_leaves_nothing_behind() {
        let dir = temp_dir("failed-open");
        let registry = SessionRegistry::new(&dir).expect("registry");

        // A universe the family cannot build fails in bring-up; the files
        // the open wrote go again, so the name is still free.
        let mut empty = spec("s1");
        empty.n = 0;
        assert_eq!(
            registry.open(&empty).unwrap_err().kind,
            WireErrorKind::Family
        );
        assert!(!dir.join("s1").exists());
        assert!(!registry.open(&spec("s1")).expect("open").recovered);

        // A configuration the scheduler refuses is a bad request, answered
        // before anything is written.
        for config in [
            DynamicConfig {
                rebuild_interval: 0,
                ..DynamicConfig::default()
            },
            DynamicConfig {
                drift_tolerance: -1e-6,
                ..DynamicConfig::default()
            },
        ] {
            let mut bad = spec("s2");
            bad.config = Some(config);
            assert_eq!(
                registry.open(&bad).unwrap_err().kind,
                WireErrorKind::BadRequest
            );
            assert!(!dir.join("s2").exists());
        }

        // Negative control: the valid session keeps its identity file and
        // snapshot, also through a failed bring-up of its own (a config
        // mismatch against the persisted state), and it is all a restarted
        // registry recovers.
        registry.insert("s1", 0).expect("insert");
        registry.close("s1").expect("close");
        let mut other_config = spec("s1");
        other_config.config = Some(DynamicConfig {
            recolor_budget: 1,
            ..DynamicConfig::default()
        });
        assert_eq!(
            registry.open(&other_config).unwrap_err().kind,
            WireErrorKind::ConfigMismatch
        );
        let s1 = dir.join("s1");
        assert!(s1.join(META_FILE).is_file());
        assert!(s1.join(DiskStore::SNAPSHOT_FILE).is_file());
        let restarted = SessionRegistry::new(&dir).expect("registry");
        let rows = restarted.recover_all();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "s1");
        assert_eq!(rows[0].1.as_ref().expect("recovered").live, 1);
        restarted.shutdown_all();
        let _ = fs::remove_dir_all(&dir);
    }
}
