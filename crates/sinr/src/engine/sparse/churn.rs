//! The churn-capable sparse backend: the pruning core of
//! [`SparseGainMatrix`](super::SparseGainMatrix) under insert/remove
//! mutations.
//!
//! The batch [`SparseGainMatrix`](super::SparseGainMatrix) builds every row
//! once, against grid aggregates that describe the full universe. A dynamic
//! session needs the opposite shape — at any moment only the *live* subset
//! interferes, rows must follow arrivals and departures, and the
//! conservativeness guarantee ("never accept a set the naive evaluator
//! rejects") must hold at **every** intermediate state, not just after a
//! batch build. [`SparseChurnMatrix`] provides that with the same core —
//! one geometry, one grid, one row builder, one pad type and pad rule (the
//! engine's [`pad`](GainBackend::pad) hook reads it through one row borrow)
//! — and its own row store:
//!
//! * the **spatial grid** (tile membership, positions, powers) is built once
//!   over the whole universe, and the tile and supertile aggregates the
//!   builder prunes against cover the *live* entries only; each arrival or
//!   departure recomputes exactly the touched tiles (a pure function of the
//!   live set, so no drift can accumulate in the aggregates themselves);
//! * rows are **lazily materialised**: only requests that a scheduler
//!   actually probes get a row, built by the shared builder against the
//!   live aggregates — with every request live, that is bit for bit the
//!   batch tier's row; a departing request's row is dropped whole, so only
//!   live requests ever hold rows;
//! * materialised rows are **patched** on churn: an arrival inserts a stored
//!   entry (when its inflated contribution reaches the row's cutoff) or adds
//!   to the row's dropped-mass pad; a departure removes the stored entry or
//!   subtracts from the pad with the *deflated* bound described below;
//! * a row is **rebuilt** (one row, against the current live aggregates)
//!   only when one of its pads turns non-finite. A rebuild would buy no
//!   conservativeness (the deflated subtraction below holds for any patch
//!   history), and it does not tighten pads in general: it bounds far tiles
//!   by their aggregates, where the patches hold the exact contributions of
//!   the requests that arrived since.
//!
//! # The corrected departure bound
//!
//! Subtracting a departed contribution from the dropped-mass pad is the one
//! place where naive arithmetic can *erode* conservativeness: the pad stores
//! the inflated value `SAFETY · v` (or a tile-aggregate bound that is larger
//! still), and subtracting that same inflated value back out spends the
//! term's safety margin — together with ordinary float rounding of the
//! subtraction, the remaining pad can dip below the true remaining dropped
//! mass. The corrected protocol subtracts the **deflated** contribution
//! `v / SAFETY` (never more than the true value, so the remainder keeps
//! every other term's margin intact) and re-inflates the remainder by
//! `SAFETY` (covering the rounding error of the subtraction itself, since
//! one part in `10^12` dwarfs half an ulp). Each out/in cycle of a pruned
//! request therefore leaves a small *non-negative* residue in the pad —
//! staleness, which costs a little precision, never unsoundness, and needs
//! no rebuild. The regression test
//! `departure_subtraction_never_erodes_the_pad` pins this bound.
//!
//! # Determinism and durable replay
//!
//! Stored entries are deterministic throughout: the pair `(i, j)` is stored
//! exactly when `SAFETY · contribution ≥ cutoff(i)` and both are live — a
//! pure function of the pair and the live set, independent of traversal,
//! patch order and rebuilds (the tile pruning bound dominates every member's
//! contribution, so a pruned tile can never hide a stored-worthy pair). The
//! *pads*, however, depend on when a row was materialised and how it was
//! patched since, so the verdicts are conservative at every state but
//! depend on the mutation history: two backends with the same live set can
//! place the next request differently. Durable sessions therefore never ask
//! this backend to re-derive a past placement. Their write-ahead log records
//! what each event did (the color of an insert, the moves of a removal), and
//! recovery applies the records as data and rebuilds the backend once from
//! the recovered live set (`oblisched::durability`).

use std::cell::RefCell;

use super::prune::{Aggregates, BuiltRow, Pads, Scratch, SparseCore};
use super::SparseConfig;
use crate::engine::{item_id, item_index, GainBackend, MAX_PORTS};
use crate::feasibility::{InterferenceSystem, VariantView};
use oblisched_metric::{MetricSpace, PlanarMetric};

/// Which items are live, and the grid aggregates of exactly those items.
#[derive(Debug, Clone)]
struct LiveState {
    live: Vec<bool>,
    agg: Aggregates,
}

/// One lazily-materialised row: the stored entries (live interferers at or
/// above the row's cutoff, sorted by index, in structure-of-arrays form —
/// parallel column/value vectors) and the dropped-mass pads.
#[derive(Debug, Clone)]
struct ChurnRow {
    cols: Vec<u32>,
    vals: Vec<f64>,
    pads: Pads,
}

impl ChurnRow {
    /// Splits a freshly built row into the parallel column/value vectors.
    fn from_built(row: BuiltRow) -> Self {
        Self {
            cols: row.entries.iter().map(|e| e.j).collect(),
            vals: row.entries.iter().map(|e| e.v).collect(),
            pads: row.pads,
        }
    }

    /// The stored value of interferer `j`, or `None` when the live pair is
    /// pruned (binary search over the sorted columns).
    #[inline]
    fn get(&self, j: u32) -> Option<f64> {
        self.cols.binary_search(&j).ok().map(|k| self.vals[k])
    }

    /// Inserts `(j, v)`, keeping the columns sorted. Overwrites an
    /// already-stored pair (patch idempotence).
    fn insert_sorted(&mut self, j: u32, v: f64) {
        match self.cols.binary_search(&j) {
            Ok(p) => self.vals[p] = v,
            Err(p) => {
                self.cols.insert(p, j);
                self.vals.insert(p, v);
            }
        }
    }

    /// Removes the stored pair of interferer `j`, if present. Returns `true`
    /// when an entry was removed.
    fn remove_entry(&mut self, j: u32) -> bool {
        match self.cols.binary_search(&j) {
            Ok(p) => {
                self.cols.remove(p);
                self.vals.remove(p);
                true
            }
            Err(_) => false,
        }
    }
}

/// The materialised rows plus the list of items currently holding one (so
/// patches iterate live rows, never the whole universe).
#[derive(Debug, Clone, Default)]
struct RowStore {
    rows: Vec<Option<ChurnRow>>,
    materialized: Vec<u32>,
}

/// A churn-capable spatially-pruned [`GainBackend`]: the sparse tier for
/// dynamic sessions.
///
/// Built once over the full universe of a [`VariantView`] (positions,
/// powers, signals and the static grid are copied in), it starts with every
/// request *dead* and is driven by the
/// [`note_arrival`](GainBackend::note_arrival) /
/// [`note_departure`](GainBackend::note_departure) hooks — the dynamic
/// schedulers in the core crate invoke them around each insert/remove. All
/// queries
/// (`stored_contribution`, [`pad`](GainBackend::pad),
/// [`sinr`](InterferenceSystem::sinr)) are only meaningful for **live**
/// items; rows materialise on first query
/// behind a `RefCell`, so the type is deliberately not `Sync`.
///
/// See the [module docs](self) for the incremental-maintenance and
/// conservativeness story.
#[derive(Debug)]
pub struct SparseChurnMatrix {
    core: SparseCore,
    state: RefCell<LiveState>,
    store: RefCell<RowStore>,
    scratch: RefCell<Scratch>,
}

impl SparseChurnMatrix {
    /// Builds the churn backend over `view`'s full universe with every
    /// request initially dead. Costs one grid build (`O(n)` at fixed
    /// occupancy) and copies the per-item geometry; no rows are materialised.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SparseConfig::validate`];
    /// [`build_threads`](SparseConfig::build_threads) is ignored — rows are
    /// built lazily, one at a time).
    pub fn new<M: MetricSpace + PlanarMetric>(
        view: &VariantView<'_, '_, M>,
        config: &SparseConfig,
    ) -> Self {
        let core = SparseCore::new(view, config);
        let n = core.n;
        Self {
            state: RefCell::new(LiveState {
                live: vec![false; n],
                agg: Aggregates::new(&core, |_| false),
            }),
            store: RefCell::new(RowStore {
                rows: (0..n).map(|_| None).collect(),
                materialized: Vec::new(),
            }),
            scratch: RefCell::new(Scratch::new(n)),
            core,
        }
    }

    /// Number of live requests currently holding a materialised CSR row.
    pub fn materialized_rows(&self) -> usize {
        self.store.borrow().materialized.len()
    }

    /// Number of stored (non-pruned) contributions across all materialised
    /// rows.
    pub fn stored_entries(&self) -> usize {
        self.store
            .borrow()
            .rows
            .iter()
            .flatten()
            .map(|row| row.cols.len())
            .sum()
    }

    /// Approximate heap footprint in bytes: the per-item geometry, the grid,
    /// the live aggregates, and every materialised row.
    pub fn bytes(&self) -> usize {
        let store = self.store.borrow();
        let rows = store.rows.len() * std::mem::size_of::<Option<ChurnRow>>()
            + store
                .rows
                .iter()
                .flatten()
                .map(|row| {
                    row.cols.capacity() * std::mem::size_of::<u32>()
                        + row.vals.capacity() * std::mem::size_of::<f64>()
                })
                .sum::<usize>();
        let state = self.state.borrow();
        self.core.bytes()
            + state.live.len() * std::mem::size_of::<bool>()
            + state.agg.bytes()
            + self.scratch.borrow().bytes()
            + rows
    }

    /// Builds row `i` from scratch against the **live** aggregates.
    fn fresh_row(&self, st: &LiveState, i: usize) -> ChurnRow {
        let mut scratch = self.scratch.borrow_mut();
        let built = self
            .core
            .build_row(&st.agg, |j| st.live[j], i, &mut scratch);
        ChurnRow::from_built(built)
    }

    /// Materialises row `i` if it does not exist yet.
    ///
    /// # Panics
    ///
    /// Panics if `i` is dead — only live requests ever get CSR rows, and
    /// every query path is specified for live items only.
    fn ensure_row(&self, i: usize) {
        if self.store.borrow().rows[i].is_some() {
            return;
        }
        let st = self.state.borrow();
        assert!(
            st.live[i],
            "sparse churn row requested for dead item {i}: queries are only \
             meaningful for live requests"
        );
        let row = self.fresh_row(&st, i);
        drop(st);
        let mut store = self.store.borrow_mut();
        if store.rows[i].is_none() {
            store.rows[i] = Some(row);
            store.materialized.push(item_id(i));
        }
    }

    /// Materialises row `i` if needed and returns a shared borrow of it —
    /// the one lookup point every query path goes through.
    ///
    /// # Panics
    ///
    /// Panics if `i` is dead (the liveness contract of
    /// [`ensure_row`](SparseChurnMatrix::ensure_row)).
    fn row_ref(&self, i: usize) -> std::cell::Ref<'_, ChurnRow> {
        self.ensure_row(i);
        match std::cell::Ref::filter_map(self.store.borrow(), |s| s.rows[i].as_ref()) {
            Ok(row) => row,
            Err(_) => unreachable!("ensure_row materialises row {i}"),
        }
    }

    /// The arrival (`live == true`) or departure patch of `item`:
    /// idempotent when `item` already has that liveness. Marks the item,
    /// refreshes the touched tile and supertile aggregates, drops a
    /// departing item's own row whole, and patches every other materialised
    /// row. An arrival inserts a stored entry when the inflated contribution
    /// reaches the row's cutoff and otherwise folds it into the pad; a
    /// departure removes the stored entry or applies the corrected deflated
    /// subtraction to the pad (see the [module docs](self)). A row whose pad
    /// turns non-finite is rebuilt instead.
    fn set_live(&self, item: usize, live: bool) {
        assert!(item < self.core.n, "item {item} out of range");
        {
            let mut st = self.state.borrow_mut();
            if st.live[item] == live {
                return;
            }
            let st = &mut *st;
            st.live[item] = live;
            st.agg.refresh(&self.core, item, |j| st.live[j]);
        }
        let st = self.state.borrow();
        let mut store = self.store.borrow_mut();
        let RowStore { rows, materialized } = &mut *store;
        if rows[item].take().is_some() {
            // Dropping the departed row un-materialises it; `retain` keeps
            // the survivors in their original order.
            materialized.retain(|&x| item_index(x) != item);
        }
        for &slot in materialized.iter() {
            let i = item_index(slot);
            let Some(row) = rows[i].as_mut() else {
                debug_assert!(false, "materialized list tracks every row");
                continue;
            };
            if !self.patch(row, i, item, live) {
                *row = self.fresh_row(&st, i);
            }
        }
    }

    /// Patches row `i` for `item`'s arrival (`live == true`) or departure;
    /// returns `false` when the pad turned non-finite and the row must be
    /// rebuilt.
    fn patch(&self, row: &mut ChurnRow, i: usize, item: usize, live: bool) -> bool {
        let v = self.core.inflated(i, item);
        if v >= self.core.cutoff(i) {
            if live {
                debug_assert!(row.get(item_id(item)).is_none());
                row.insert_sorted(item_id(item), v);
            } else {
                let removed = row.remove_entry(item_id(item));
                debug_assert!(removed, "stored pair ({i}, {item}) must exist");
            }
            true
        } else if live {
            row.pads.pad_absorb(v);
            true
        } else {
            row.pads.pad_shed(v).is_finite()
        }
    }
}

impl InterferenceSystem for SparseChurnMatrix {
    fn len(&self) -> usize {
        self.core.n
    }

    /// The conservative SINR of live item `i` against live `others`: stored
    /// contributions plus the row's dropped-mass pad. Never above the exact
    /// SINR of the live pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is dead (see [`SparseChurnMatrix`]'s liveness
    /// contract).
    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        let row = self.row_ref(i);
        self.core.padded_sinr(i, others, &row.pads, |j| row.get(j))
    }

    fn beta(&self) -> f64 {
        self.core.params.beta()
    }
}

impl GainBackend for SparseChurnMatrix {
    /// One row per request (see the [sparse module docs](super)).
    fn num_ports(&self) -> usize {
        1
    }

    /// The stored contribution, or `0.0` for pruned pairs — the engine adds
    /// the dropped-mass [`pad`](GainBackend::pad) separately.
    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.stored_contribution(i, port, j).unwrap_or(0.0)
    }

    fn signal(&self, i: usize) -> f64 {
        self.core.signals[i]
    }

    fn noise(&self) -> f64 {
        self.core.params.noise()
    }

    /// The stored live contribution of `j` to `i` — `None` both for pruned
    /// live pairs (covered by the dropped-mass pad) and for dead interferers
    /// (which contribute nothing and are never stored).
    fn stored_contribution(&self, i: usize, _port: usize, j: usize) -> Option<f64> {
        if j == i {
            return Some(0.0);
        }
        self.row_ref(i).get(item_id(j))
    }

    /// Candidate folds hold one row borrow for the whole member walk instead
    /// of re-entering `stored_contribution` (ensure + `RefCell` borrow +
    /// lookup) once per member. Same members, same order, same stored
    /// values — the sum and verdict are bit-for-bit those of the default
    /// hook.
    fn fold_candidate(
        &self,
        i: usize,
        _ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut u32,
    ) -> bool {
        let row = self.row_ref(i);
        let sum = &mut acc[0];
        for &j in members {
            let stored = if j == i {
                Some(0.0)
            } else {
                row.get(item_id(j))
            };
            match stored {
                Some(v) => *sum += v,
                None => *dropped += 1,
            }
            if *sum > limit_hi {
                return false;
            }
        }
        true
    }

    /// The pad rule of the shared pruning core, read through one row
    /// borrow.
    fn pad(&self, i: usize, dropped: u32) -> f64 {
        self.row_ref(i).pads.bound(dropped)
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn note_arrival(&self, item: usize) {
        self.set_live(item, true);
    }

    fn note_departure(&self, item: usize) {
        self.set_live(item, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ColorAccumulator;
    use crate::feasibility::Variant;
    use crate::params::SinrParams;
    use crate::power::ObliviousPower;
    use crate::request::{Instance, Request};
    use oblisched_metric::{EuclideanSpace, Point2};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    /// The parent module's mixed near/far planar deployment.
    fn planar_instance() -> Instance<EuclideanSpace<2>> {
        let mut points = Vec::new();
        let mut requests = Vec::new();
        for k in 0..12usize {
            let x = (k % 4) as f64 * 37.0 + (k as f64 * 0.7).sin() * 5.0;
            let y = (k / 4) as f64 * 41.0 + (k as f64 * 1.3).cos() * 5.0;
            let id = points.len();
            points.push(Point2::xy(x, y));
            points.push(Point2::xy(x + 1.0 + (k % 3) as f64, y + 0.5));
            requests.push(Request::new(id, id + 1));
        }
        Instance::new(EuclideanSpace::from_points(points), requests).unwrap()
    }

    /// Row `i`'s pads, materialising the row if needed (so `i` must be live).
    fn pads_of(m: &SparseChurnMatrix, i: usize) -> Pads {
        m.row_ref(i).pads
    }

    /// Brute-force true dropped mass of row `i` over the live set: the sum
    /// of every *un-inflated* live contribution below the cutoff.
    fn true_pruned_mass(m: &SparseChurnMatrix, live: &[usize], i: usize) -> f64 {
        live.iter()
            .filter(|&&j| j != i && m.core.inflated(i, j) < m.core.cutoff(i))
            .map(|&j| m.core.raw_contribution(i, j))
            .sum()
    }

    #[test]
    fn entries_match_the_pure_pair_predicate_under_churn() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let config = SparseConfig {
                cutoff_fraction: 0.05,
                ..SparseConfig::default()
            };
            let m = SparseChurnMatrix::new(&view, &config);
            let n = inst.len();
            // Interleaved arrivals and departures with every row forced
            // materialised in between.
            let events: Vec<(bool, usize)> = vec![
                (true, 0),
                (true, 3),
                (true, 7),
                (true, 1),
                (false, 3),
                (true, 11),
                (true, 4),
                (false, 0),
                (true, 2),
                (true, 3),
                (false, 7),
                (true, 8),
            ];
            let mut live: Vec<usize> = Vec::new();
            for &(arrive, item) in &events {
                if arrive {
                    m.note_arrival(item);
                    live.push(item);
                } else {
                    m.note_departure(item);
                    live.retain(|&x| x != item);
                }
                // Materialise every live row, then check storedness.
                for &i in &live {
                    for j in 0..n {
                        let stored = m.stored_contribution(i, 0, j);
                        if j == i {
                            assert_eq!(stored, Some(0.0));
                        } else if live.contains(&j) {
                            let v = m.core.inflated(i, j);
                            assert_eq!(
                                stored.is_some(),
                                v >= m.core.cutoff(i),
                                "storedness of ({i},{j}) must be the pure pair predicate"
                            );
                            if let Some(s) = stored {
                                assert_eq!(s, v, "stored value must be the inflated pair value");
                            }
                        } else {
                            assert_eq!(stored, None, "dead items are never stored");
                        }
                    }
                }
            }
            let st = m.state.borrow();
            assert_eq!(st.live.iter().filter(|&&l| l).count(), live.len());
        }
    }

    #[test]
    fn pads_stay_conservative_at_every_intermediate_state() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let config = SparseConfig {
                cutoff_fraction: 0.05,
                ..SparseConfig::default()
            };
            let m = SparseChurnMatrix::new(&view, &config);
            let n = inst.len();
            let mut live: Vec<usize> = Vec::new();
            let events: Vec<(bool, usize)> = (0..40)
                .map(|k| {
                    let item = (k * 7 + 3) % n;
                    (k % 3 != 2, item)
                })
                .collect();
            for (arrive, item) in events {
                if arrive && !live.contains(&item) {
                    m.note_arrival(item);
                    live.push(item);
                } else if !arrive && live.contains(&item) {
                    m.note_departure(item);
                    live.retain(|&x| x != item);
                }
                for &i in &live {
                    let tracked = pads_of(&m, i).mass;
                    let truth = true_pruned_mass(&m, &live, i);
                    assert!(
                        tracked >= truth,
                        "pad of row {i} eroded: tracked {tracked} < true {truth} under {variant}"
                    );
                }
            }
        }
    }

    /// The departure-bound regression: a pruned request
    /// cycling out and in many times must never push the tracked pad below
    /// the true live dropped mass — the deflate-then-reinflate subtraction
    /// leaves a non-negative residue per cycle where subtracting the stored
    /// inflated value would spend the margin.
    #[test]
    fn departure_subtraction_never_erodes_the_pad() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = SparseConfig {
            cutoff_fraction: 0.05,
            ..SparseConfig::default()
        };
        // Rows are only patched, never rebuilt, so every cycle is pure patch
        // arithmetic.
        let m = SparseChurnMatrix::new(&view, &config);
        // A far pair: row 0 watches, item 11 (other corner) cycles.
        m.note_arrival(0);
        m.note_arrival(11);
        assert!(
            m.stored_contribution(0, 0, 11).is_none(),
            "the far pair must actually be pruned for this test to bite"
        );
        let mut last = f64::INFINITY;
        for cycle in 0..200 {
            m.note_departure(11);
            let alone = pads_of(&m, 0).mass;
            assert!(
                alone >= 0.0,
                "pad went negative after {cycle} cycles: {alone}"
            );
            m.note_arrival(11);
            let tracked = pads_of(&m, 0).mass;
            let truth = true_pruned_mass(&m, &[0, 11], 0);
            assert!(
                tracked >= truth,
                "cycle {cycle}: tracked pad {tracked} dipped below true mass {truth}"
            );
            // The residue is non-negative: the pad never shrinks across a
            // full out/in cycle (staleness, not erosion).
            if last.is_finite() {
                assert!(
                    tracked >= last * (1.0 - 1e-15),
                    "cycle {cycle}: pad shrank from {last} to {tracked}"
                );
            }
            last = tracked;
        }
    }

    #[test]
    fn rows_exist_only_for_live_requests() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let m = SparseChurnMatrix::new(&view, &SparseConfig::default());
        assert_eq!(m.materialized_rows(), 0);
        m.note_arrival(0);
        m.note_arrival(1);
        m.note_arrival(2);
        // Rows are lazy: nothing materialised until queried.
        assert_eq!(m.materialized_rows(), 0);
        let _ = pads_of(&m, 0).mass;
        let _ = pads_of(&m, 1).mass;
        assert_eq!(m.materialized_rows(), 2);
        m.note_departure(0);
        assert_eq!(m.materialized_rows(), 1);
        assert_eq!(m.state.borrow().live[..3], [false, true, true]);
        // Re-arrival starts with a fresh, unmaterialised row.
        m.note_arrival(0);
        assert_eq!(m.materialized_rows(), 1);
    }

    #[test]
    fn accumulator_over_churn_backend_is_conservative() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let m = SparseChurnMatrix::new(&view, &config);
                for i in 0..inst.len() {
                    m.note_arrival(i);
                }
                let mut acc = ColorAccumulator::new(&m);
                for i in 0..inst.len() {
                    if acc.try_insert(i) {
                        assert!(
                            view.is_feasible(acc.members()),
                            "churn-backend-accepted class {:?} must be naive-feasible \
                             under {variant}",
                            acc.members()
                        );
                    }
                }
                assert!(!acc.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dead item")]
    fn querying_a_dead_item_panics() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let m = SparseChurnMatrix::new(&view, &SparseConfig::default());
        let _ = pads_of(&m, 0).mass;
    }
}
