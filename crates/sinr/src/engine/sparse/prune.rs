//! The pruning core both sparse tiers are built on.
//!
//! [`SparseGainMatrix`](super::SparseGainMatrix) (batch solves) and
//! [`SparseChurnMatrix`](super::SparseChurnMatrix) (dynamic sessions) compute
//! their rows with the same arithmetic: walk the spatial grid supertile →
//! tile → entry, store every interferer whose SAFETY-inflated contribution
//! reaches the row's cutoff, and pad the row with an inflated upper bound on
//! everything it dropped. This module holds the one copy of that arithmetic:
//!
//! * [`SparseCore`] — the per-universe geometry (signals, powers, endpoint
//!   positions, parameters) and the static grid over interfering endpoints;
//! * [`Aggregates`] — per-tile and per-supertile power bounds of one live
//!   set, each recomputed exactly from its members by one fold;
//! * [`SparseCore::build_row`] — the row builder, run against whichever
//!   aggregates and liveness the tier supplies;
//! * [`Pads`] — a row's dropped-mass pad and cap, written only through
//!   [`pad_absorb`](Pads::pad_absorb), [`pad_shed`](Pads::pad_shed) or an
//!   in-statement `SAFETY` bound, and read only through
//!   [`bound`](Pads::bound), the one pad rule both tiers and the engine's
//!   [`pad`](crate::engine::GainBackend::pad) hook answer with;
//! * [`SparseCore::padded_sinr`] — the conservative SINR of one row.
//!
//! The tiers differ only in where their rows live: the batch tier builds
//! every row once against all-live aggregates and packs them into `Sync` CSR
//! arrays; the churn tier builds rows lazily against live aggregates and
//! patches them as requests arrive and depart.

use super::SparseConfig;
use crate::engine::{approx_f64, item_id, item_index, sinr_from_ports};
use crate::feasibility::{Variant, VariantView};
use crate::params::SinrParams;
use oblisched_metric::{MetricSpace, PlanarMetric};

/// Relative inflation applied to every stored contribution and dropped-mass
/// bound, so conservativeness survives last-ulp divergence from the naive
/// evaluator's arithmetic.
const SAFETY: f64 = 1.0 + 1e-12;

/// Target number of grid entries (interfering endpoints) per tile; the tile
/// side is derived from it and the deployment's density.
const TILE_OCCUPANCY: f64 = 8.0;

/// Side length of a supertile, in tiles. Far-field pruning first tries to
/// discard a whole supertile through its aggregate bounds and only descends
/// to individual tiles near the cutoff boundary, which keeps the per-row
/// build cost at `O(supertiles + boundary tiles + near entries)`.
const SUPER: usize = 4;

/// A specialised path-loss evaluator: `d^α` through plain multiplications
/// for the integer exponents the experiments use (`powf` costs ~10× a
/// multiply, and the build evaluates millions of losses). The ulp-level
/// divergence from [`SinrParams::loss`]'s `powf` is covered by the
/// [`SAFETY`] inflation, so conservativeness is unaffected.
#[derive(Debug, Clone, Copy)]
enum FastLoss {
    One,
    Two,
    Three,
    Four,
    General(f64),
}

impl FastLoss {
    fn for_alpha(alpha: f64) -> FastLoss {
        if alpha == 1.0 {
            FastLoss::One
        } else if alpha == 2.0 {
            FastLoss::Two
        } else if alpha == 3.0 {
            FastLoss::Three
        } else if alpha == 4.0 {
            FastLoss::Four
        } else {
            FastLoss::General(alpha)
        }
    }

    /// `d^α` from the *squared* distance, saving the square root where the
    /// exponent allows it.
    #[inline]
    fn loss_sq(&self, d_sq: f64) -> f64 {
        match *self {
            FastLoss::One => d_sq.sqrt(),
            FastLoss::Two => d_sq,
            FastLoss::Three => d_sq * d_sq.sqrt(),
            FastLoss::Four => d_sq * d_sq,
            FastLoss::General(alpha) => d_sq.powf(alpha * 0.5),
        }
    }

    /// `p / d^α` from the squared distance, infinite at distance zero
    /// (matching [`SinrParams::received_strength`]).
    #[inline]
    fn strength_sq(&self, power: f64, d_sq: f64) -> f64 {
        let loss = self.loss_sq(d_sq);
        if loss == 0.0 {
            f64::INFINITY
        } else {
            power / loss
        }
    }
}

/// Squared Euclidean distance with the same arithmetic as
/// [`Point::distance_squared`](oblisched_metric::Point::distance_squared).
fn distance_sq(a: [f64; 2], b: [f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

/// One interfering endpoint in the spatial grid: its position, its request
/// and that request's transmission power.
#[derive(Debug, Clone, Copy)]
struct GridEntry {
    pos: [f64; 2],
    item: u32,
    power: f64,
}

/// Axis-aligned bounding box of the entries actually assigned to a tile (or
/// supertile). Distances are measured against this box, never against the
/// nominal tile rectangle, so clamped boundary entries can never make the
/// pruning bound overshoot.
#[derive(Debug, Clone, Copy)]
struct BBox {
    min: [f64; 2],
    max: [f64; 2],
}

impl BBox {
    const EMPTY: BBox = BBox {
        min: [f64::INFINITY; 2],
        max: [f64::NEG_INFINITY; 2],
    };

    fn point(p: [f64; 2]) -> BBox {
        BBox { min: p, max: p }
    }

    fn merge(&mut self, other: &BBox) {
        self.min = [self.min[0].min(other.min[0]), self.min[1].min(other.min[1])];
        self.max = [self.max[0].max(other.max[0]), self.max[1].max(other.max[1])];
    }

    /// Lower bound on the *squared* distance from `p` to any point inside
    /// the box (zero when `p` is inside).
    fn distance_sq_from(&self, p: [f64; 2]) -> f64 {
        let dx = (self.min[0] - p[0]).max(p[0] - self.max[0]).max(0.0);
        let dy = (self.min[1] - p[1]).max(p[1] - self.max[1]).max(0.0);
        dx * dx + dy * dy
    }
}

/// Saturating `f64 → usize` for grid sizing and cell coordinates.
///
/// Positions and cell sizes are finite by construction (instances validate
/// their coordinates), and saturation is the *intended* behaviour for
/// degenerate ratios: oversized dimension guesses fail the tile cap and
/// retry with a doubled cell, and cell coordinates are clamped to the grid
/// edge by the callers.
#[inline]
fn grid_index(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "grid arithmetic produced NaN");
    // oblint::allow(lossy-cast-in-engine): saturating by design — see the doc comment above.
    x as usize
}

/// The uniform spatial grid over the universe's interfering endpoints. It
/// records tile membership only; the power bounds the row builder prunes
/// against live in [`Aggregates`].
#[derive(Debug, Clone, Default)]
struct SpatialGrid {
    origin: [f64; 2],
    cell: f64,
    cols: usize,
    rows: usize,
    super_cols: usize,
    super_rows: usize,
    /// CSR layout: entries of tile `t` are `entries[offsets[t]..offsets[t+1]]`.
    offsets: Vec<usize>,
    entries: Vec<GridEntry>,
}

impl SpatialGrid {
    fn build(points: &[GridEntry]) -> SpatialGrid {
        let mut bbox = BBox::EMPTY;
        for e in points {
            bbox.merge(&BBox::point(e.pos));
        }
        let (width, height) = if points.is_empty() {
            (0.0, 0.0)
        } else {
            (bbox.max[0] - bbox.min[0], bbox.max[1] - bbox.min[1])
        };
        // The tile count must scale with the number of points, never with
        // the spatial extent: collinear point sets (every `LineMetric`
        // instance has y ≡ 0, so zero bounding-box area) fall back to the
        // 1-D density, and the hard cap below bounds the tile table for any
        // geometry — a nested chain spans 2ⁿ length units with only n
        // requests, and an extent-derived grid would try to allocate a tile
        // per unit.
        let area = width * height;
        let cell = if points.is_empty() {
            1.0
        } else {
            let by_area = if area > 0.0 {
                (TILE_OCCUPANCY * area / approx_f64(points.len())).sqrt()
            } else {
                0.0
            };
            let extent = width.max(height);
            let by_line = if extent > 0.0 {
                TILE_OCCUPANCY * extent / approx_f64(points.len())
            } else {
                1.0
            };
            by_area.max(by_line).max(1e-9)
        };
        let tile_cap = points.len().saturating_mul(4).max(1024);
        let dims = |cell: f64| -> (usize, usize) {
            // The float→usize conversion saturates, so absurd ratios simply
            // fail the cap check and double the cell again.
            (
                grid_index((width / cell).ceil()).max(1),
                grid_index((height / cell).ceil()).max(1),
            )
        };
        let mut cell = cell;
        let (mut cols, mut rows) = dims(cell);
        while cols.saturating_mul(rows) > tile_cap {
            cell *= 2.0;
            (cols, rows) = dims(cell);
        }
        let mut grid = SpatialGrid {
            origin: bbox.min,
            cell,
            cols,
            rows,
            super_cols: cols.div_ceil(SUPER),
            super_rows: rows.div_ceil(SUPER),
            offsets: Vec::with_capacity(cols * rows + 1),
            entries: Vec::new(),
        };

        let mut counts = vec![0usize; cols * rows];
        for e in points {
            counts[grid.tile_of(e.pos)] += 1;
        }
        let mut acc = 0usize;
        grid.offsets.push(0);
        for &c in &counts {
            acc += c;
            grid.offsets.push(acc);
        }
        let mut cursor = grid.offsets.clone();
        let mut entries = vec![
            GridEntry {
                pos: [0.0; 2],
                item: 0,
                power: 0.0
            };
            points.len()
        ];
        for e in points {
            let t = grid.tile_of(e.pos);
            entries[cursor[t]] = *e;
            cursor[t] += 1;
        }
        grid.entries = entries;
        grid
    }

    /// The tile holding position `pos` (clamped to the grid edge).
    fn tile_of(&self, pos: [f64; 2]) -> usize {
        let cx = grid_index((pos[0] - self.origin[0]) / self.cell).min(self.cols - 1);
        let cy = grid_index((pos[1] - self.origin[1]) / self.cell).min(self.rows - 1);
        cy * self.cols + cx
    }

    fn tile_entries(&self, t: usize) -> &[GridEntry] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// The supertile holding tile `t`.
    fn supertile_of(&self, t: usize) -> usize {
        (t / self.cols / SUPER) * self.super_cols + (t % self.cols) / SUPER
    }

    /// The tiles of supertile `s`, row by row.
    fn tiles_of(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        let (sx, sy) = (s % self.super_cols, s / self.super_cols);
        ((sy * SUPER)..((sy + 1) * SUPER).min(self.rows)).flat_map(move |ty| {
            ((sx * SUPER)..((sx + 1) * SUPER).min(self.cols)).map(move |tx| ty * self.cols + tx)
        })
    }
}

/// The power bound of one tile or supertile over the live entries it holds:
/// their bounding box, power sum and largest power.
#[derive(Debug, Clone, Copy)]
struct Aggregate {
    bbox: BBox,
    power_sum: f64,
    power_max: f64,
}

impl Aggregate {
    const EMPTY: Aggregate = Aggregate {
        bbox: BBox::EMPTY,
        power_sum: 0.0,
        power_max: 0.0,
    };

    /// Folds one member — a grid entry or a whole tile — into the bound.
    fn fold(&mut self, member: &Aggregate) {
        self.bbox.merge(&member.bbox);
        self.power_sum += member.power_sum;
        self.power_max = self.power_max.max(member.power_max);
    }
}

/// The per-tile and per-supertile [`Aggregate`]s of one live set. Every
/// bound is recomputed from its members in storage order, so the aggregates
/// are a pure function of the live set, whatever sequence of refreshes led
/// there.
#[derive(Debug, Clone)]
pub(super) struct Aggregates {
    tiles: Vec<Aggregate>,
    supers: Vec<Aggregate>,
}

impl Aggregates {
    /// The aggregates of the grid entries whose request `live` accepts.
    pub(super) fn new(core: &SparseCore, live: impl Fn(usize) -> bool) -> Self {
        let grid = &core.grid;
        let mut agg = Aggregates {
            tiles: vec![Aggregate::EMPTY; grid.cols * grid.rows],
            supers: vec![Aggregate::EMPTY; grid.super_cols * grid.super_rows],
        };
        for t in 0..agg.tiles.len() {
            agg.fold_tile(grid, t, &live);
        }
        for s in 0..agg.supers.len() {
            agg.fold_super(grid, s);
        }
        agg
    }

    /// Recomputes the tiles holding `item`'s interfering endpoints, and the
    /// supertiles above them, after `item`'s liveness changed.
    pub(super) fn refresh(&mut self, core: &SparseCore, item: usize, live: impl Fn(usize) -> bool) {
        let (points, count) = core.emitters(item);
        let tiles = points.map(|pos| core.grid.tile_of(pos));
        for (k, &t) in tiles[..count].iter().enumerate() {
            if !tiles[..k].contains(&t) {
                self.fold_tile(&core.grid, t, &live);
                self.fold_super(&core.grid, core.grid.supertile_of(t));
            }
        }
    }

    fn fold_tile(&mut self, grid: &SpatialGrid, t: usize, live: impl Fn(usize) -> bool) {
        let mut tile = Aggregate::EMPTY;
        for e in grid.tile_entries(t) {
            if live(item_index(e.item)) {
                tile.fold(&Aggregate {
                    bbox: BBox::point(e.pos),
                    power_sum: e.power,
                    power_max: e.power,
                });
            }
        }
        self.tiles[t] = tile;
    }

    fn fold_super(&mut self, grid: &SpatialGrid, s: usize) {
        let mut sup = Aggregate::EMPTY;
        for t in grid.tiles_of(s) {
            if self.tiles[t].power_sum != 0.0 {
                sup.fold(&self.tiles[t]);
            }
        }
        self.supers[s] = sup;
    }

    /// Heap footprint in bytes.
    pub(super) fn bytes(&self) -> usize {
        (self.tiles.len() + self.supers.len()) * std::mem::size_of::<Aggregate>()
    }
}

/// A row's dropped-mass accounting: an upper bound on the total pruned
/// contribution (`mass`) and on any single one (`cap`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(super) struct Pads {
    pub(super) mass: f64,
    pub(super) cap: f64,
}

impl Pads {
    /// The sanctioned per-entry pad update: folds one already
    /// SAFETY-inflated pruned contribution into the dropped-mass pad and
    /// cap. Every pad write outside the tile-aggregate bounds must route
    /// through here or [`pad_shed`](Pads::pad_shed) (`oblint`'s
    /// missing-safety-inflation rule), so the inflation discipline lives in
    /// one place.
    #[inline]
    pub(super) fn pad_absorb(&mut self, inflated: f64) {
        // oblint::allow(missing-safety-inflation): `inflated` is SAFETY-inflated by every caller — this helper IS the sanctioned pad entry point.
        self.mass += inflated;
        // oblint::allow(missing-safety-inflation): same contract as the mass update above.
        self.cap = self.cap.max(inflated);
    }

    /// The sanctioned pad subtraction — the corrected departure bound of the
    /// [churn module docs](super::churn): subtract the *deflated*
    /// contribution (never more than the true value, so every surviving term
    /// keeps its safety margin), clamp at zero, and re-inflate the remainder
    /// to cover the subtraction's own rounding. Returns the new pad so
    /// callers can rebuild the row when the arithmetic degenerates to a
    /// non-finite value.
    #[inline]
    pub(super) fn pad_shed(&mut self, inflated: f64) -> f64 {
        self.mass = (self.mass - inflated / (SAFETY * SAFETY)).max(0.0) * SAFETY;
        self.mass
    }

    /// The pad of a row `dropped` of whose class members were pruned:
    /// `0.0` at zero drops, otherwise `min(mass, dropped · cap)` — no more
    /// than the row dropped in total, and no more than `dropped` of its
    /// largest dropped contributions.
    #[inline]
    pub(super) fn bound(&self, dropped: u32) -> f64 {
        if dropped == 0 {
            0.0
        } else {
            self.mass.min(f64::from(dropped) * self.cap)
        }
    }
}

/// One stored (non-pruned) contribution of a freshly built row: the
/// interferer index and its SAFETY-inflated contribution.
#[derive(Debug, Clone, Copy)]
pub(super) struct SparseEntry {
    pub(super) j: u32,
    pub(super) v: f64,
}

/// A row builder's reused buffers: the epoch stamps deduplicating the two
/// grid endpoints of a request during one row build, and the stored entries
/// of the row built last.
#[derive(Debug, Clone)]
pub(super) struct Scratch {
    seen: Vec<u32>,
    epoch: u32,
    /// The stored entries of the row [`SparseCore::build_row`] built last,
    /// sorted by interferer.
    pub(super) row: Vec<SparseEntry>,
}

impl Scratch {
    pub(super) fn new(n: usize) -> Self {
        Self {
            seen: vec![0; n],
            epoch: 0,
            row: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.epoch
    }

    /// Heap footprint in bytes.
    pub(super) fn bytes(&self) -> usize {
        self.seen.len() * std::mem::size_of::<u32>()
            + self.row.capacity() * std::mem::size_of::<SparseEntry>()
    }
}

/// The per-universe geometry of a sparse tier: parameters, per-item signals,
/// powers and endpoint positions (copied in, so the churn tier can patch rows
/// without a view), and the static grid over interfering endpoints.
#[derive(Debug, Clone)]
pub(super) struct SparseCore {
    pub(super) n: usize,
    variant: Variant,
    pub(super) params: SinrParams,
    fast: FastLoss,
    cutoff_fraction: f64,
    pub(super) signals: Vec<f64>,
    powers: Vec<f64>,
    senders: Vec<[f64; 2]>,
    receivers: Vec<[f64; 2]>,
    grid: SpatialGrid,
}

impl SparseCore {
    /// Copies `view`'s geometry and builds the grid over its interfering
    /// endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SparseConfig::validate`]).
    pub(super) fn new<M: MetricSpace + PlanarMetric>(
        view: &VariantView<'_, '_, M>,
        config: &SparseConfig,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let eval = view.evaluator();
        let instance = eval.instance();
        let metric = instance.metric();
        let n = instance.len();
        let params = eval.params();
        let mut core = SparseCore {
            n,
            variant: view.variant(),
            params,
            fast: FastLoss::for_alpha(params.alpha()),
            cutoff_fraction: config.cutoff_fraction,
            signals: (0..n).map(|i| eval.signal(i)).collect(),
            powers: eval.powers().to_vec(),
            senders: (0..n)
                .map(|i| metric.position(instance.request(i).sender))
                .collect(),
            receivers: (0..n)
                .map(|i| metric.position(instance.request(i).receiver))
                .collect(),
            // Filled in below, once the emitters can be read off the core.
            grid: SpatialGrid::default(),
        };
        let mut points = Vec::with_capacity(2 * n);
        for j in 0..n {
            let (emitters, count) = core.emitters(j);
            for &pos in &emitters[..count] {
                points.push(GridEntry {
                    pos,
                    item: item_id(j),
                    power: core.powers[j],
                });
            }
        }
        core.grid = SpatialGrid::build(&points);
        core
    }

    /// Where item `j` interferes from — its sender in the directed variant
    /// (only senders transmit there), both endpoints in the bidirectional
    /// one (the worst endpoint transmits) — and how many of the two slots
    /// are used.
    fn emitters(&self, j: usize) -> ([[f64; 2]; 2], usize) {
        match self.variant {
            Variant::Directed => ([self.senders[j], self.senders[j]], 1),
            Variant::Bidirectional => ([self.senders[j], self.receivers[j]], 2),
        }
    }

    /// Where interference arrives at item `i` — the receiver in the directed
    /// variant, both endpoints in the bidirectional one — used by the grid
    /// traversal's pruning decisions.
    fn traversal_anchors(&self, i: usize) -> ([[f64; 2]; 2], usize) {
        match self.variant {
            Variant::Directed => ([self.receivers[i], self.receivers[i]], 1),
            Variant::Bidirectional => ([self.senders[i], self.receivers[i]], 2),
        }
    }

    /// Row `i`'s cutoff `cutoff_fraction · signal(i) / β`: a live pair is
    /// stored exactly when its inflated contribution reaches it.
    pub(super) fn cutoff(&self, i: usize) -> f64 {
        self.cutoff_fraction * self.signals[i] / self.params.beta()
    }

    /// The un-pruned contribution of `j` to `i`'s row, recomputed from the
    /// copied positions with the same arithmetic as the naive evaluator
    /// (Euclidean distance; in the bidirectional variant the worse of `i`'s
    /// two ports, each hearing the closer endpoint of `j`).
    pub(super) fn raw_contribution(&self, i: usize, j: usize) -> f64 {
        if j == i {
            return 0.0;
        }
        // `d^α` is monotone, so the bidirectional min-of-losses equals the
        // loss of the closer endpoint, and the max over `i`'s ports equals
        // the loss at the closest (endpoint, anchor) pair.
        let d_sq = match self.variant {
            Variant::Directed => distance_sq(self.senders[j], self.receivers[i]),
            Variant::Bidirectional => {
                let to = |w: [f64; 2]| {
                    distance_sq(self.senders[j], w).min(distance_sq(self.receivers[j], w))
                };
                to(self.senders[i]).min(to(self.receivers[i]))
            }
        };
        self.fast.strength_sq(self.powers[j], d_sq)
    }

    /// The SAFETY-inflated contribution of `j` to `i`'s row: the value a
    /// stored entry holds and a pad absorbs.
    pub(super) fn inflated(&self, i: usize, j: usize) -> f64 {
        SAFETY * self.raw_contribution(i, j)
    }

    /// Builds row `i` from scratch: the supertile → tile → entry traversal
    /// of the grid, pruning whole (super)tiles whose aggregate bound in `agg`
    /// stays below the cutoff, and visiting only interferers `live` accepts.
    /// A pruned (super)tile bounds every member it aggregates, so no
    /// stored-worthy live pair can hide in one: storedness is the pure pair
    /// predicate `inflated ≥ cutoff`.
    ///
    /// The stored entries replace `scratch.row`, sorted by interferer, so a
    /// caller building many rows reuses one buffer; the row's pads are
    /// returned.
    pub(super) fn build_row(
        &self,
        agg: &Aggregates,
        live: impl Fn(usize) -> bool,
        i: usize,
        scratch: &mut Scratch,
    ) -> Pads {
        let epoch = scratch.next_epoch();
        scratch.row.clear();
        let mut pads = Pads::default();
        let cutoff = self.cutoff(i);
        // Pruning bounds a (super)tile through the anchor closest to it,
        // which bounds every port of the row at once.
        let (anchors, num_anchors) = self.traversal_anchors(i);
        // Adds a (super)tile's aggregate bound to the pads; returns false
        // when the tile is too close (or too strong) to prune and must be
        // descended into.
        let prune = |pads: &mut Pads, bound: &Aggregate| -> bool {
            let d_min = anchors[..num_anchors]
                .iter()
                .map(|&a| bound.bbox.distance_sq_from(a))
                .fold(f64::INFINITY, f64::min);
            if d_min <= 0.0 {
                return false;
            }
            let strongest = self.fast.strength_sq(bound.power_max, d_min);
            if SAFETY * strongest >= cutoff {
                return false;
            }
            pads.mass += SAFETY * self.fast.strength_sq(bound.power_sum, d_min);
            pads.cap = pads.cap.max(SAFETY * strongest);
            true
        };
        for (s, sup) in agg.supers.iter().enumerate() {
            if sup.power_sum == 0.0 || prune(&mut pads, sup) {
                continue;
            }
            for t in self.grid.tiles_of(s) {
                let tile = &agg.tiles[t];
                if tile.power_sum == 0.0 || prune(&mut pads, tile) {
                    continue;
                }
                for e in self.grid.tile_entries(t) {
                    let j = item_index(e.item);
                    if j == i || !live(j) || scratch.seen[j] == epoch {
                        continue;
                    }
                    scratch.seen[j] = epoch;
                    let v = self.inflated(i, j);
                    if v >= cutoff {
                        scratch.row.push(SparseEntry { j: e.item, v });
                    } else {
                        pads.pad_absorb(v);
                    }
                }
            }
        }
        scratch.row.sort_unstable_by_key(|e| e.j);
        pads
    }

    /// The conservative SINR of `i` against `others` on one row: the stored
    /// contributions `stored(j)` returns, plus the pad
    /// [`bound`](Pads::bound) for the pruned members. Never above the exact
    /// SINR.
    pub(super) fn padded_sinr(
        &self,
        i: usize,
        others: &[usize],
        pads: &Pads,
        stored: impl Fn(u32) -> Option<f64>,
    ) -> f64 {
        let mut sum = 0.0f64;
        let mut dropped = 0u32;
        for &j in others {
            if j == i {
                continue;
            }
            match stored(item_id(j)) {
                Some(v) => sum += v,
                None => dropped += 1,
            }
        }
        sinr_from_ports(
            self.signals[i],
            &[sum + pads.bound(dropped)],
            self.params.noise(),
        )
    }

    /// Heap footprint in bytes of the per-item geometry and the grid.
    pub(super) fn bytes(&self) -> usize {
        (self.signals.len() + self.powers.len()) * std::mem::size_of::<f64>()
            + (self.senders.len() + self.receivers.len()) * std::mem::size_of::<[f64; 2]>()
            + self.grid.entries.len() * std::mem::size_of::<GridEntry>()
            + self.grid.offsets.len() * std::mem::size_of::<usize>()
    }
}
