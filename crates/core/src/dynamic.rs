//! Dynamic scheduling under churn: maintain a valid coloring while requests
//! arrive and depart.
//!
//! The paper's oblivious power assignments are motivated precisely by
//! settings where the request set is *not* known in advance — a power that
//! depends only on the sender–receiver distance keeps working as traffic
//! comes and goes. The static algorithms of this crate cannot exploit that:
//! any arrival or departure forces a full reschedule. [`DynamicScheduler`]
//! closes the gap on top of the incremental engine
//! ([`oblisched_sinr::engine`]):
//!
//! * **arrival** — first-fit placement into the existing
//!   [`ColorAccumulator`]s, `O(live)` contributions per event, exactly the
//!   query the engine answers incrementally;
//! * **departure** — [`ColorAccumulator::remove`] subtracts the departing
//!   member's contributions from its class in `O(class)`, with the engine's
//!   drift guard rebuilding sums exactly every few removals;
//! * **compaction** — emptied trailing classes are popped eagerly, interior
//!   holes are refilled lazily by later arrivals, and a *bounded local
//!   recoloring* step migrates up to
//!   [`recolor_budget`](DynamicConfig::recolor_budget) members of the last
//!   color into earlier classes after each departure, so the color count
//!   tracks the live set downward instead of ratcheting up;
//! * **validation** — [`DynamicScheduler::validate`] replays the current
//!   state through the naive from-scratch feasibility fold (the
//!   [`Evaluator`](oblisched_sinr::Evaluator) path when the scheduler runs
//!   on a [`VariantView`](oblisched_sinr::feasibility::VariantView)) as
//!   ground truth, and checks the accumulated sums against an exact rebuild.
//!
//! External [`RequestId`]s are stable (monotonically assigned, never reused)
//! and map to the dense item indices of the underlying
//! [`GainBackend`]; the same
//! engine item may be live at most once.
//!
//! # Example
//!
//! ```
//! use oblisched::dynamic::DynamicScheduler;
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::{Instance, ObliviousPower, Request, SinrParams, Variant};
//!
//! // A universe of three requests; churn toggles which of them are live.
//! let metric = LineMetric::new(vec![0.0, 1.0, 10.0, 12.0, 300.0, 304.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::SquareRoot);
//! let view = eval.view(Variant::Bidirectional);
//!
//! let mut scheduler = DynamicScheduler::new(&view);
//! let a = scheduler.insert(0)?;
//! let b = scheduler.insert(1)?;
//! let c = scheduler.insert(2)?;
//! assert_eq!(scheduler.len(), 3);
//!
//! // Departures keep the coloring valid; every state certifies against the
//! // naive evaluator.
//! scheduler.remove(b)?;
//! scheduler.validate()?;
//! assert_eq!(scheduler.len(), 2);
//! assert_eq!(scheduler.color_of(a), Some(0));
//! assert_eq!(scheduler.item_of(c), Some(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use oblisched_sinr::engine::DEFAULT_REBUILD_INTERVAL;
use oblisched_sinr::feasibility::REL_TOL;
use oblisched_sinr::{ColorAccumulator, GainBackend, InterferenceSystem};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Stable external identifier of a live request, assigned by
/// [`DynamicScheduler::insert`]. Ids are monotone and never reused, so a
/// caller can hold one across arbitrary churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw id value (for logging / external maps).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value — the inverse of
    /// [`raw`](RequestId::raw), for callers that persisted ids externally
    /// (e.g. a write-ahead log). The value is not checked against any
    /// scheduler; operations on a stale id fail with
    /// [`DynamicError::UnknownId`] as usual.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Tuning knobs of the [`DynamicScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Maximum number of members of the last color class that a departure
    /// event tries to migrate into earlier classes (bounded local
    /// recoloring). `0` disables recoloring — colors then only shrink when a
    /// class empties by itself.
    pub recolor_budget: usize,
    /// Removals per class after which the engine's drift guard rebuilds the
    /// running interference sums exactly
    /// (see [`ColorAccumulator::with_rebuild_interval`]).
    pub rebuild_interval: usize,
    /// Maximum relative drift between the accumulated sums and an exact
    /// rebuild that [`DynamicScheduler::validate`] accepts.
    pub drift_tolerance: f64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            recolor_budget: 8,
            rebuild_interval: DEFAULT_REBUILD_INTERVAL,
            drift_tolerance: 1e-6,
        }
    }
}

impl DynamicConfig {
    /// Checks the configuration: the rules [`DynamicScheduler::with_config`]
    /// enforces by panicking, for callers that take a configuration as data
    /// and must refuse a bad one with an error instead.
    ///
    /// # Errors
    ///
    /// A description of the first violated rule when `rebuild_interval` is
    /// zero or `drift_tolerance` is not positive and finite (NaN and +∞
    /// included: neither survives a snapshot or a wire reply as JSON).
    pub fn validate(&self) -> Result<(), String> {
        if self.rebuild_interval < 1 {
            return Err("the rebuild interval must be at least 1".to_owned());
        }
        if self.drift_tolerance > 0.0 && self.drift_tolerance.is_finite() {
            Ok(())
        } else {
            Err(format!(
                "the drift tolerance must be positive and finite, got {}",
                self.drift_tolerance
            ))
        }
    }
}

/// Errors of the dynamic scheduling subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// The inserted item index is outside the underlying system.
    ItemOutOfRange {
        /// The offending item index.
        item: usize,
        /// Number of items in the system.
        len: usize,
    },
    /// The item is already live under another id (an engine item may be live
    /// at most once — a duplicate would not interfere with itself and the
    /// verdicts would be bogus).
    AlreadyLive {
        /// The offending item index.
        item: usize,
        /// The id under which the item is currently live.
        id: RequestId,
    },
    /// The id is not live (never issued, or already removed).
    UnknownId(RequestId),
    /// Validation found a color class that the ground-truth evaluator
    /// rejects.
    InfeasibleClass {
        /// The color of the violating class.
        color: usize,
        /// A violating member of the class.
        item: usize,
    },
    /// Validation found accumulated sums drifted beyond the configured
    /// tolerance from an exact rebuild.
    DriftExceeded {
        /// The color of the drifted class.
        color: usize,
        /// The measured maximum relative drift.
        drift: f64,
    },
    /// Validation found the internal id/item/color maps out of sync (a bug
    /// in the scheduler, not an input condition).
    Inconsistent {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A persisted [`SchedulerState`] cannot be restored: it references
    /// items or ids inconsistently (duplicate member, item out of range,
    /// id at or above the recorded `next_id`), or comes with a
    /// [`DynamicConfig`] that fails [`DynamicConfig::validate`].
    InvalidState {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::ItemOutOfRange { item, len } => {
                write!(f, "item {item} is out of range for a system of {len} items")
            }
            DynamicError::AlreadyLive { item, id } => {
                write!(f, "item {item} is already live as {id}")
            }
            DynamicError::UnknownId(id) => write!(f, "{id} is not live"),
            DynamicError::InfeasibleClass { color, item } => {
                write!(f, "color {color} is infeasible at member {item}")
            }
            DynamicError::DriftExceeded { color, drift } => {
                write!(f, "color {color} drifted {drift:e} beyond tolerance")
            }
            DynamicError::Inconsistent { detail } => {
                write!(f, "internal maps out of sync: {detail}")
            }
            DynamicError::InvalidState { detail } => {
                write!(f, "scheduler state cannot be restored: {detail}")
            }
        }
    }
}

impl std::error::Error for DynamicError {}

/// Where a live request sits: its engine item and its current color.
#[derive(Debug, Clone, Copy)]
struct Entry {
    item: usize,
    color: usize,
}

/// One migration performed by the bounded local recoloring step of a
/// departure: the request `id` moved from color `from` to color `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecolorMove {
    /// The migrated live request.
    pub id: RequestId,
    /// The color the request left.
    pub from: usize,
    /// The color the request joined.
    pub to: usize,
}

/// The full effect of one departure event, as reported by
/// [`DynamicScheduler::remove_traced`]: the departed engine item, every
/// recoloring migration the event triggered, in the order they were applied,
/// and the recoloring cursor it left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Removal {
    /// The engine item that departed.
    pub item: usize,
    /// The bounded-recoloring migrations, in application order.
    pub moves: Vec<RecolorMove>,
    /// The recoloring cursor after the event (see
    /// [`SchedulerState::recolor_cursor`]).
    pub cursor: usize,
}

/// One live request in a [`SchedulerState`]: its stable id and engine item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateMember {
    /// The raw [`RequestId`] value.
    pub id: u64,
    /// The dense engine item index.
    pub item: usize,
}

/// A serializable snapshot of a [`DynamicScheduler`]'s logical state: the
/// coloring (members per class, in insertion order, including interior empty
/// classes left by lazy compaction), the id counter and the recoloring
/// cursor. Restored via [`DynamicScheduler::from_state`], it fixes the
/// coloring and future ids, and on an exact backend the future placements
/// too; a conservative backend's verdicts also depend on its history, which
/// is why write-ahead-log recovery (`oblisched::durability`) applies logged
/// placements instead of re-deriving them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerState {
    /// Members per color class, in insertion order. Trailing classes are
    /// never empty; interior ones may be.
    pub classes: Vec<Vec<StateMember>>,
    /// The next id to assign.
    pub next_id: u64,
    /// The rotating start offset of the recoloring probe window.
    pub recolor_cursor: usize,
}

/// An online first-fit scheduler maintaining a valid coloring of a changing
/// subset of a [`GainBackend`]'s items under
/// [`insert`](DynamicScheduler::insert) / [`remove`](DynamicScheduler::remove)
/// events. See the [module docs](self) for the event-handling strategy.
#[derive(Debug)]
pub struct DynamicScheduler<'s, S: GainBackend + ?Sized> {
    system: &'s S,
    config: DynamicConfig,
    /// One accumulator per color. Trailing empties are popped eagerly;
    /// interior empties are legal (lazy compaction) and refilled by later
    /// arrivals.
    classes: Vec<ColorAccumulator<'s, S>>,
    /// Live requests by raw id. A `BTreeMap` rather than a hash map: every
    /// collection in the scheduler must have deterministic iteration order
    /// so no future traversal can leak hash-order nondeterminism into
    /// schedules (`oblint`'s map-iteration-order lint enforces this).
    entries: BTreeMap<u64, Entry>,
    /// Dense item index → owning live id.
    owner: Vec<Option<u64>>,
    next_id: u64,
    /// Rotating start offset of the bounded-recoloring probe window, so that
    /// successive departures eventually probe every member of the last class
    /// instead of stalling on an unmovable prefix.
    recolor_cursor: usize,
}

// Manual impl: the derive would demand `S: Clone`, but the scheduler only
// holds a shared reference to the system.
impl<S: GainBackend + ?Sized> Clone for DynamicScheduler<'_, S> {
    fn clone(&self) -> Self {
        Self {
            system: self.system,
            config: self.config,
            classes: self.classes.clone(),
            entries: self.entries.clone(),
            owner: self.owner.clone(),
            next_id: self.next_id,
            recolor_cursor: self.recolor_cursor,
        }
    }
}

impl<'s, S: GainBackend + ?Sized> DynamicScheduler<'s, S> {
    /// Creates an empty scheduler over `system` with the default
    /// [`DynamicConfig`].
    pub fn new(system: &'s S) -> Self {
        Self::with_config(system, DynamicConfig::default())
    }

    /// Creates an empty scheduler with explicit tuning knobs.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DynamicConfig::validate`]: a zero
    /// `rebuild_interval` or a `drift_tolerance` that is not positive and
    /// finite.
    pub fn with_config(system: &'s S, config: DynamicConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("{reason}");
        }
        Self {
            system,
            config,
            classes: Vec::new(),
            entries: BTreeMap::new(),
            owner: vec![None; system.len()],
            next_id: 0,
            recolor_cursor: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> DynamicConfig {
        self.config
    }

    /// Number of live requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no request is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of colors in use (non-empty classes; interior holes left by
    /// lazy compaction do not count).
    pub fn num_colors(&self) -> usize {
        self.classes
            .iter()
            .filter(|class| !class.is_empty())
            .count()
    }

    /// The color of a live request, `None` when the id is not live.
    pub fn color_of(&self, id: RequestId) -> Option<usize> {
        self.entries.get(&id.0).map(|entry| entry.color)
    }

    /// The engine item of a live request, `None` when the id is not live.
    pub fn item_of(&self, id: RequestId) -> Option<usize> {
        self.entries.get(&id.0).map(|entry| entry.item)
    }

    /// The live id owning an engine item, `None` when the item is not live.
    pub fn id_of_item(&self, item: usize) -> Option<RequestId> {
        self.owner.get(item).copied().flatten().map(RequestId)
    }

    /// The live items grouped by color, indexed by color (members in
    /// insertion order; interior classes may be empty).
    pub fn color_classes(&self) -> Vec<Vec<usize>> {
        self.classes
            .iter()
            .map(|class| class.members().to_vec())
            .collect()
    }

    /// All live items, in color-then-insertion order.
    pub fn live_items(&self) -> Vec<usize> {
        self.classes
            .iter()
            .flat_map(|class| class.members().iter().copied())
            .collect()
    }

    /// Handles an arrival: places `item` into the first color class that
    /// stays feasible (the engine answers each probe in `O(class)`
    /// contributions), opening a fresh color when none accepts — including
    /// for noise-doomed singletons, which get a color of their own exactly as
    /// in static first-fit. Returns the stable id of the new live request.
    ///
    /// # Errors
    ///
    /// * [`DynamicError::ItemOutOfRange`] if `item` is not an item of the
    ///   underlying system.
    /// * [`DynamicError::AlreadyLive`] if `item` is already live.
    pub fn insert(&mut self, item: usize) -> Result<RequestId, DynamicError> {
        if item >= self.system.len() {
            return Err(DynamicError::ItemOutOfRange {
                item,
                len: self.system.len(),
            });
        }
        if let Some(id) = self.owner[item] {
            return Err(DynamicError::AlreadyLive {
                item,
                id: RequestId(id),
            });
        }
        // Churn-capable backends patch their live aggregates and materialised
        // rows here, before any class probes the newcomer.
        self.system.note_arrival(item);
        let color = match self
            .classes
            .iter_mut()
            .position(|class| class.try_insert(item))
        {
            Some(color) => color,
            None => {
                let mut class = ColorAccumulator::new(self.system)
                    .with_rebuild_interval(self.config.rebuild_interval);
                class.insert_unchecked(item);
                self.classes.push(class);
                self.classes.len() - 1
            }
        };
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.entries.insert(id.0, Entry { item, color });
        self.owner[item] = Some(id.0);
        Ok(id)
    }

    /// Handles a departure: subtracts the request's contributions from its
    /// class in `O(class)`, pops emptied trailing colors, and spends the
    /// bounded recoloring budget draining the last color into earlier ones.
    /// Returns the engine item that departed.
    ///
    /// # Errors
    ///
    /// [`DynamicError::UnknownId`] if `id` is not live.
    pub fn remove(&mut self, id: RequestId) -> Result<usize, DynamicError> {
        Ok(self.remove_traced(id)?.item)
    }

    /// [`remove`](DynamicScheduler::remove), additionally reporting every
    /// recoloring migration the departure triggered and the cursor it left —
    /// what a write-ahead log records so recovery can apply the departure
    /// without re-running it.
    ///
    /// # Errors
    ///
    /// [`DynamicError::UnknownId`] if `id` is not live.
    pub fn remove_traced(&mut self, id: RequestId) -> Result<Removal, DynamicError> {
        let entry = self
            .entries
            .remove(&id.0)
            .ok_or(DynamicError::UnknownId(id))?;
        self.owner[entry.item] = None;
        let removed = self.classes[entry.color].remove(entry.item);
        debug_assert!(removed, "live entry must be a member of its class");
        // Only after the class subtracted the member's stored contributions:
        // churn-capable backends drop the row and patch the survivors here,
        // before the recoloring probes below see the shrunken live set.
        self.system.note_departure(entry.item);
        self.pop_trailing_empties();
        let moves = self.local_recolor();
        self.pop_trailing_empties();
        Ok(Removal {
            item: entry.item,
            moves,
            cursor: self.recolor_cursor,
        })
    }

    fn pop_trailing_empties(&mut self) {
        while self.classes.last().is_some_and(|class| class.is_empty()) {
            self.classes.pop();
        }
    }

    /// Bounded local recoloring: try to migrate up to `recolor_budget`
    /// members of the last non-empty color into earlier classes. Each probe
    /// is an engine query; a successful migration can only shrink the last
    /// class, so the color count decreases once it drains. The probe window
    /// rotates across calls so every member is eventually probed even when
    /// an unmovable prefix would otherwise monopolise the budget. Returns
    /// the performed migrations in application order.
    fn local_recolor(&mut self) -> Vec<RecolorMove> {
        let budget = self.config.recolor_budget;
        if budget == 0 {
            return Vec::new();
        }
        let Some(last) = self.classes.iter().rposition(|class| !class.is_empty()) else {
            return Vec::new();
        };
        if last == 0 {
            return Vec::new();
        }
        let (earlier, rest) = self.classes.split_at_mut(last);
        let class = &mut rest[0];
        let len = class.len();
        let start = self.recolor_cursor % len;
        self.recolor_cursor = self.recolor_cursor.wrapping_add(budget);
        let candidates: Vec<usize> = (0..len.min(budget))
            .map(|k| class.members()[(start + k) % len])
            .collect();
        let mut moves = Vec::new();
        for item in candidates {
            let target = earlier.iter_mut().position(|class| class.try_insert(item));
            if let Some(color) = target {
                let removed = class.remove(item);
                debug_assert!(removed, "migrated member must leave its old class");
                let id = self.owner[item].expect("live member has an owner id");
                self.entries
                    .get_mut(&id)
                    .expect("owner map points at a live entry")
                    .color = color;
                moves.push(RecolorMove {
                    id: RequestId(id),
                    from: last,
                    to: color,
                });
            }
        }
        moves
    }

    /// Exports the scheduler's logical state — the coloring with its stable
    /// ids, the id counter and the recoloring cursor — as a serializable
    /// [`SchedulerState`], which [`from_state`](DynamicScheduler::from_state)
    /// restores over the same system and config.
    pub fn export_state(&self) -> SchedulerState {
        let classes = self
            .classes
            .iter()
            .map(|class| {
                class
                    .members()
                    .iter()
                    .map(|&item| StateMember {
                        id: self.owner[item].expect("live member has an owner id"),
                        item,
                    })
                    .collect()
            })
            .collect();
        SchedulerState {
            classes,
            next_id: self.next_id,
            recolor_cursor: self.recolor_cursor,
        }
    }

    /// Rebuilds a scheduler from a previously exported [`SchedulerState`]
    /// over the same `system` (same items in the same order) and `config`.
    /// The accumulated interference sums are recomputed exactly from the
    /// membership, so a restored scheduler starts drift-free.
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidState`] when `config` fails
    /// [`DynamicConfig::validate`] (a persisted snapshot carries its config
    /// as data), or when the state references an item out of range, repeats
    /// an item or id, or carries an id at or above its own `next_id`.
    pub fn from_state(
        system: &'s S,
        config: DynamicConfig,
        state: &SchedulerState,
    ) -> Result<Self, DynamicError> {
        config
            .validate()
            .map_err(|reason| DynamicError::InvalidState {
                detail: format!("invalid config: {reason}"),
            })?;
        let mut sched = Self::with_config(system, config);
        for (color, members) in state.classes.iter().enumerate() {
            let mut class =
                ColorAccumulator::new(system).with_rebuild_interval(config.rebuild_interval);
            for member in members {
                if member.item >= system.len() {
                    return Err(DynamicError::InvalidState {
                        detail: format!(
                            "member item {} of color {color} is out of range for a system of {} \
                             items",
                            member.item,
                            system.len()
                        ),
                    });
                }
                if member.id >= state.next_id {
                    return Err(DynamicError::InvalidState {
                        detail: format!(
                            "member id {} of color {color} is not below next_id {}",
                            member.id, state.next_id
                        ),
                    });
                }
                if sched.owner[member.item].is_some() {
                    return Err(DynamicError::InvalidState {
                        detail: format!("item {} appears twice", member.item),
                    });
                }
                if sched.entries.contains_key(&member.id) {
                    return Err(DynamicError::InvalidState {
                        detail: format!("id {} appears twice", member.id),
                    });
                }
                system.note_arrival(member.item);
                class.insert_unchecked(member.item);
                sched.entries.insert(
                    member.id,
                    Entry {
                        item: member.item,
                        color,
                    },
                );
                sched.owner[member.item] = Some(member.id);
            }
            sched.classes.push(class);
        }
        sched.pop_trailing_empties();
        sched.next_id = state.next_id;
        sched.recolor_cursor = state.recolor_cursor;
        Ok(sched)
    }

    /// Replays the current state through the underlying system's
    /// from-scratch feasibility fold (for a
    /// [`VariantView`](oblisched_sinr::feasibility::VariantView) this is the
    /// naive [`Evaluator`](oblisched_sinr::Evaluator) path — the workspace's
    /// ground truth) and checks the accumulated sums against an exact
    /// rebuild under the configured
    /// [`drift_tolerance`](DynamicConfig::drift_tolerance).
    ///
    /// The two halves are coherent: the drift check bounds how far placement
    /// verdicts can sit from exact arithmetic, and the feasibility check
    /// (see [`validate_against`](DynamicScheduler::validate_against))
    /// certifies at the gain relaxed by that same tolerance.
    ///
    /// On a **conservative** backend
    /// ([`is_exact`](oblisched_sinr::GainBackend::is_exact) `false`, e.g.
    /// the churn-capable sparse tier) the feasibility half of the self-check
    /// is skipped — only structural consistency and drift are enforced —
    /// because the backend's estimates move as the session churns; certify
    /// such sessions against the naive evaluator with
    /// [`validate_against`](DynamicScheduler::validate_against).
    ///
    /// # Errors
    ///
    /// Any [`DynamicError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), DynamicError> {
        // The feasibility half of the self-check is only meaningful on an
        // exact backend. A conservative backend's verdicts are time-varying
        // estimates — later arrivals anywhere in the universe grow the
        // pruned-mass pads of materialised rows — so a class the backend
        // certified at accept time (and that the ground truth still
        // certifies) need not re-certify against the backend's *current*
        // estimate. Structural consistency and the drift bound still hold
        // and are checked; ground-truth certification is
        // [`validate_against`](DynamicScheduler::validate_against)'s job.
        self.validate_with(self.system, self.system.is_exact())?;
        for (color, class) in self.classes.iter().enumerate() {
            let mut fresh = class.clone();
            let drift = fresh.rebuild();
            // NaN drift must fail too, hence the explicit check.
            if drift.is_nan() || drift > self.config.drift_tolerance {
                return Err(DynamicError::DriftExceeded { color, drift });
            }
        }
        Ok(())
    }

    /// Structural consistency plus class feasibility against an explicit
    /// ground-truth system (which must index the same items — e.g. the naive
    /// [`VariantView`](oblisched_sinr::feasibility::VariantView) when the
    /// scheduler itself runs on a cached
    /// [`GainMatrix`](oblisched_sinr::GainMatrix)).
    ///
    /// Multi-member classes must be simultaneously feasible at the truth's
    /// gain *relaxed by the configured
    /// [`drift_tolerance`](DynamicConfig::drift_tolerance)*: placement
    /// verdicts are decided on running sums that may carry bounded
    /// floating-point drift after removals (the engine's guarantee, enforced
    /// by [`validate`](DynamicScheduler::validate)), so a borderline accept
    /// inside the drift budget must not be reported as a scheduler bug,
    /// while any genuine misplacement — violations are factors, not parts
    /// per million — is still caught. Single-member classes are exempt (with
    /// ambient noise a request can be infeasible even alone, and a color of
    /// its own is the best any schedule can do — the same convention as the
    /// static `Scheduler` facade). A class's SINRs come from one
    /// [`member_sinrs`](InterferenceSystem::member_sinrs) call, one pass
    /// over its unordered pairs for a bidirectional view; an infeasible class
    /// names its first member whose SINR is below the relaxed gain or NaN.
    ///
    /// # Errors
    ///
    /// Any [`DynamicError`] describing the first violated invariant.
    pub fn validate_against<T: InterferenceSystem + ?Sized>(
        &self,
        truth: &T,
    ) -> Result<(), DynamicError> {
        self.validate_with(truth, true)
    }

    /// The shared body of [`validate`](DynamicScheduler::validate) and
    /// [`validate_against`](DynamicScheduler::validate_against): structural
    /// consistency always, class feasibility against `truth` only when
    /// `certify` is set (skipped when `truth` is a conservative backend
    /// re-checking itself).
    fn validate_with<T: InterferenceSystem + ?Sized>(
        &self,
        truth: &T,
        certify: bool,
    ) -> Result<(), DynamicError> {
        let certification_gain = truth.beta() * (1.0 - self.config.drift_tolerance);
        let mut seen = 0usize;
        for (color, class) in self.classes.iter().enumerate() {
            for &item in class.members() {
                let id = self.owner.get(item).copied().flatten().ok_or_else(|| {
                    DynamicError::Inconsistent {
                        detail: format!("member {item} of color {color} has no owner id"),
                    }
                })?;
                let entry = self
                    .entries
                    .get(&id)
                    .ok_or_else(|| DynamicError::Inconsistent {
                        detail: format!("owner id {id} of item {item} has no live entry"),
                    })?;
                if entry.item != item || entry.color != color {
                    return Err(DynamicError::Inconsistent {
                        detail: format!(
                            "entry of id {id} says (item {}, color {}), class says (item \
                             {item}, color {color})",
                            entry.item, entry.color
                        ),
                    });
                }
                seen += 1;
            }
            if certify && class.len() >= 2 {
                let threshold = certification_gain * (1.0 - REL_TOL);
                // NaN SINR counts as violating, like `is_feasible_with_gain`.
                if let Some(k) = truth
                    .member_sinrs(class.members())
                    .iter()
                    .position(|&sinr| sinr.is_nan() || sinr < threshold)
                {
                    let item = class.members()[k];
                    return Err(DynamicError::InfeasibleClass { color, item });
                }
            }
        }
        if seen != self.entries.len() {
            return Err(DynamicError::Inconsistent {
                detail: format!(
                    "{} live entries but {seen} class members",
                    self.entries.len()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::{nested_chain, scaling_uniform};
    use oblisched_sinr::{GainMatrix, ObliviousPower, SinrParams, Variant};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    #[test]
    fn insert_remove_roundtrip_keeps_state_consistent() {
        let inst = nested_chain(8, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let ids: Vec<RequestId> = (0..8).map(|i| sched.insert(i).unwrap()).collect();
        assert_eq!(sched.len(), 8);
        sched.validate().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(sched.item_of(id), Some(i));
            assert_eq!(sched.id_of_item(i), Some(id));
        }
        for &id in &ids {
            sched.remove(id).unwrap();
            sched.validate().unwrap();
        }
        assert!(sched.is_empty());
        assert_eq!(sched.num_colors(), 0);
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let a = sched.insert(0).unwrap();
        sched.remove(a).unwrap();
        let b = sched.insert(0).unwrap();
        assert_ne!(a, b, "ids must not be reused after a departure");
        assert!(b > a);
        assert_eq!(sched.color_of(a), None);
        assert_eq!(format!("{b}"), format!("req#{}", b.raw()));
    }

    #[test]
    fn duplicate_and_out_of_range_inserts_are_rejected() {
        let inst = nested_chain(3, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let id = sched.insert(1).unwrap();
        assert_eq!(
            sched.insert(1),
            Err(DynamicError::AlreadyLive { item: 1, id })
        );
        assert_eq!(
            sched.insert(99),
            Err(DynamicError::ItemOutOfRange { item: 99, len: 3 })
        );
        assert_eq!(
            sched.remove(RequestId(777)),
            Err(DynamicError::UnknownId(RequestId(777)))
        );
        // Errors render a readable description.
        assert!(DynamicError::UnknownId(id).to_string().contains("req#"));
    }

    #[test]
    fn first_fit_placement_matches_static_first_fit_on_pure_arrivals() {
        let inst = scaling_uniform(60, 11);
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let mut sched = DynamicScheduler::new(&view);
                for i in 0..inst.len() {
                    sched.insert(i).unwrap();
                }
                let static_first_fit = crate::greedy::first_fit_coloring(&view);
                assert_eq!(sched.num_colors(), static_first_fit.num_colors());
                for i in 0..inst.len() {
                    let id = sched.id_of_item(i).unwrap();
                    assert_eq!(sched.color_of(id), Some(static_first_fit.color_of(i)));
                }
            }
        }
    }

    #[test]
    fn departures_shrink_colors_via_local_recoloring() {
        // The nested chain under uniform power needs ~n colors; removing most
        // requests must let the color count fall, not ratchet.
        let inst = nested_chain(12, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let ids: Vec<RequestId> = (0..12).map(|i| sched.insert(i).unwrap()).collect();
        let full = sched.num_colors();
        assert!(full >= 10);
        for &id in &ids[..9] {
            sched.remove(id).unwrap();
            sched.validate().unwrap();
        }
        assert!(
            sched.num_colors() <= 4,
            "colors must shrink with the live set, still {} after 9 departures",
            sched.num_colors()
        );
    }

    #[test]
    fn recolor_probe_window_rotates_past_an_unmovable_prefix() {
        // Last class = {1, 3}: member 1 can never leave (it conflicts with
        // request 0 in class 0), member 3 becomes movable once its blocker
        // (request 2) departs. With budget 1 a fixed probe window would
        // retry member 1 forever; the rotating window must reach member 3
        // on the second departure.
        use oblisched_metric::LineMetric;
        use oblisched_sinr::{Instance, Request};
        let metric = LineMetric::new(vec![
            0.0, 1.0, // request 0
            1.5, 2.5, // request 1: conflicts with 0
            200.0, 201.0, // request 2
            201.5, 202.5, // request 3: conflicts with 2, fine with 0
            400.0, 401.0, // request 4
        ]);
        let inst = Instance::new(
            metric,
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
                Request::new(8, 9),
            ],
        )
        .unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        use oblisched_sinr::InterferenceSystem;
        assert!(!view.is_feasible(&[0, 1]) && !view.is_feasible(&[2, 3]));
        assert!(view.is_feasible(&[0, 3]));
        let config = DynamicConfig {
            recolor_budget: 1,
            ..DynamicConfig::default()
        };
        let mut sched = DynamicScheduler::with_config(&view, config);
        for item in [0, 2, 4, 1, 3] {
            sched.insert(item).unwrap();
        }
        let id_of = |s: &DynamicScheduler<_>, item| s.id_of_item(item).unwrap();
        assert_eq!(sched.color_of(id_of(&sched, 1)), Some(1));
        assert_eq!(sched.color_of(id_of(&sched, 3)), Some(1));
        // First departure: the window probes the unmovable member 1.
        let blocker_a = id_of(&sched, 2);
        sched.remove(blocker_a).unwrap();
        assert_eq!(sched.color_of(id_of(&sched, 3)), Some(1));
        // Second departure: the rotated window probes member 3, which now
        // fits class 0.
        let blocker_b = id_of(&sched, 4);
        sched.remove(blocker_b).unwrap();
        assert_eq!(sched.color_of(id_of(&sched, 3)), Some(0));
        sched.validate().unwrap();
    }

    #[test]
    fn matrix_backed_scheduler_validates_against_the_naive_view() {
        let inst = scaling_uniform(80, 5);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let matrix = GainMatrix::build(&view);
        let mut sched = DynamicScheduler::new(&matrix);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut live: Vec<RequestId> = Vec::new();
        for event in 0..200 {
            let arrive = live.is_empty() || (event % 3 != 0 && live.len() < 60);
            if arrive {
                let free: Vec<usize> = (0..inst.len())
                    .filter(|&i| sched.id_of_item(i).is_none())
                    .collect();
                let item = free[rng.gen_range(0..free.len())];
                live.push(sched.insert(item).unwrap());
            } else {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                sched.remove(id).unwrap();
            }
            sched.validate().unwrap();
            sched.validate_against(&view).unwrap();
        }
        assert_eq!(sched.len(), live.len());
    }

    #[test]
    fn validate_against_rejects_an_infeasible_class() {
        // Find a nested pair the square-root assignment schedules together
        // but uniform power rejects; replaying that shared color against the
        // uniform-power truth must surface InfeasibleClass.
        let inst = nested_chain(10, 2.0);
        let sqrt_eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let sqrt_view = sqrt_eval.view(Variant::Bidirectional);
        let uniform_eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let uniform_view = uniform_eval.view(Variant::Bidirectional);
        let (i, j) = (0..inst.len())
            .flat_map(|i| (0..inst.len()).map(move |j| (i, j)))
            .find(|&(i, j)| {
                i < j && sqrt_view.is_feasible(&[i, j]) && !uniform_view.is_feasible(&[i, j])
            })
            .expect("the nested chain separates sqrt from uniform on some pair");
        let mut sched = DynamicScheduler::new(&sqrt_view);
        let a = sched.insert(i).unwrap();
        let b = sched.insert(j).unwrap();
        assert_eq!(sched.color_of(a), sched.color_of(b));
        sched.validate().unwrap();
        match sched.validate_against(&uniform_view) {
            Err(DynamicError::InfeasibleClass { color: 0, .. }) => {}
            other => panic!("expected InfeasibleClass, got {other:?}"),
        }
        // Noise-doomed singletons stay exempt: one item per color validates
        // even when the truth rejects the singleton outright.
        let noisy = SinrParams::with_noise(3.0, 1.0, 1000.0).unwrap();
        let noisy_eval = inst.evaluator(noisy, &ObliviousPower::Uniform);
        let noisy_view = noisy_eval.view(Variant::Bidirectional);
        let mut lonely = DynamicScheduler::new(&noisy_view);
        lonely.insert(0).unwrap();
        assert!(!noisy_view.is_feasible(&[0]));
        lonely.validate().unwrap();
    }

    #[test]
    fn config_accessors_and_guards() {
        let inst = nested_chain(2, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig {
            recolor_budget: 0,
            rebuild_interval: 7,
            drift_tolerance: 1e-9,
        };
        let sched = DynamicScheduler::with_config(&view, config);
        assert_eq!(sched.config(), config);
        assert!(sched.is_empty());
        assert!(sched.live_items().is_empty());
        assert!(sched.color_classes().is_empty());
    }

    #[test]
    fn remove_traced_reports_the_performed_migrations() {
        // Same scenario as the probe-window test: after both blockers leave,
        // the migration of item 3 from color 1 to color 0 must be reported.
        let inst = nested_chain(12, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let ids: Vec<RequestId> = (0..12).map(|i| sched.insert(i).unwrap()).collect();
        let mut reported = 0usize;
        for &id in &ids[..9] {
            let item = sched.item_of(id).unwrap();
            let removal = sched.remove_traced(id).unwrap();
            assert_eq!(removal.item, item);
            for mv in &removal.moves {
                assert_eq!(sched.color_of(mv.id), Some(mv.to));
                assert!(mv.to < mv.from);
                reported += 1;
            }
            sched.validate().unwrap();
        }
        assert!(
            reported > 0,
            "draining the nested chain must trigger recoloring migrations"
        );
    }

    #[test]
    fn exported_state_restores_to_an_identical_scheduler() {
        let inst = scaling_uniform(50, 9);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut live: Vec<RequestId> = Vec::new();
        for event in 0..120 {
            if live.is_empty() || (event % 3 != 0 && live.len() < 35) {
                let free: Vec<usize> = (0..inst.len())
                    .filter(|&i| sched.id_of_item(i).is_none())
                    .collect();
                live.push(sched.insert(free[rng.gen_range(0..free.len())]).unwrap());
            } else {
                sched
                    .remove(live.swap_remove(rng.gen_range(0..live.len())))
                    .unwrap();
            }
        }
        let state = sched.export_state();
        let restored = DynamicScheduler::from_state(&view, sched.config(), &state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.len(), sched.len());
        assert_eq!(restored.num_colors(), sched.num_colors());
        assert_eq!(restored.color_classes(), sched.color_classes());
        restored.validate().unwrap();
        // The restored scheduler continues identically: same ids, same
        // placements for the same further events.
        let mut a = sched.clone();
        let mut b = restored;
        let free: Vec<usize> = (0..inst.len())
            .filter(|&i| a.id_of_item(i).is_none())
            .take(5)
            .collect();
        for item in free {
            let ia = a.insert(item).unwrap();
            let ib = b.insert(item).unwrap();
            assert_eq!(ia, ib);
            assert_eq!(a.color_of(ia), b.color_of(ib));
        }
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn invalid_states_are_rejected_with_typed_errors() {
        let inst = nested_chain(4, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        let member = |id, item| StateMember { id, item };
        let state = |classes: Vec<Vec<StateMember>>, next_id| SchedulerState {
            classes,
            next_id,
            recolor_cursor: 0,
        };
        for bad in [
            // Item out of range.
            state(vec![vec![member(0, 99)]], 1),
            // Id not below next_id.
            state(vec![vec![member(5, 0)]], 5),
            // Duplicate item across classes.
            state(vec![vec![member(0, 1)], vec![member(1, 1)]], 2),
            // Duplicate id across classes.
            state(vec![vec![member(0, 1)], vec![member(0, 2)]], 2),
        ] {
            match DynamicScheduler::from_state(&view, config, &bad) {
                Err(DynamicError::InvalidState { detail }) => {
                    assert!(!detail.is_empty());
                }
                other => panic!("expected InvalidState for {bad:?}, got {other:?}"),
            }
        }
        // The error renders a readable description.
        let err = DynamicScheduler::from_state(&view, config, &state(vec![vec![member(0, 99)]], 1))
            .unwrap_err();
        assert!(err.to_string().contains("cannot be restored"));
    }

    #[test]
    fn scheduler_state_round_trips_through_json() {
        let inst = nested_chain(6, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut sched = DynamicScheduler::new(&view);
        for i in 0..6 {
            sched.insert(i).unwrap();
        }
        sched.remove(sched.id_of_item(2).unwrap()).unwrap();
        let state = sched.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: SchedulerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let config_json = serde_json::to_string(&sched.config()).unwrap();
        let config_back: DynamicConfig = serde_json::from_str(&config_json).unwrap();
        assert_eq!(config_back, sched.config());
    }

    #[test]
    #[should_panic(expected = "drift tolerance")]
    fn non_positive_drift_tolerance_is_rejected() {
        let inst = nested_chain(2, 2.0);
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig {
            drift_tolerance: 0.0,
            ..DynamicConfig::default()
        };
        let _ = DynamicScheduler::with_config(&view, config);
    }
}
