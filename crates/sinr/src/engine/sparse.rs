//! The spatially-pruned sparse interference backend.
//!
//! The dense [`GainMatrix`](super::GainMatrix) costs `8 · ports · n²` bytes,
//! which blows any reasonable memory budget near `n ≈ 2000` and leaves large
//! instances on the slow uncached path. In *metric* instances the far field
//! is harmless: a polynomial path loss `d^α` makes the contribution of a
//! request at distance `d` decay like `d^{−α}`, so almost all of the `n²`
//! pairs are individually negligible. [`SparseGainMatrix`] exploits that:
//!
//! * requests are bucketed into a **uniform spatial grid** (with a coarser
//!   supertile level on top) keyed by their interfering endpoints;
//! * each row `(i, port)` stores, sorted by interferer, only the
//!   contributions at least the row's **cutoff**
//!   `cutoff_fraction · signal(i) / β`; everything below it — individual
//!   near-field runts and whole far-away (super)tiles, bounded through the
//!   grid aggregates without ever being computed — is *dropped*;
//! * what was dropped is **conservatively accounted**: the row tracks the
//!   total dropped mass and the largest single dropped contribution, and the
//!   [`ColorAccumulator`](super::ColorAccumulator) adds
//!   `min(total mass, dropped members · largest)` back onto its running sums
//!   before any feasibility comparison.
//!
//! The result is the engine's third tier (naive → dense incremental →
//! sparse pruned): `O(n)` memory at fixed density and cutoff, verdicts that
//! are **never non-conservative** — a color class accepted through the
//! sparse backend is always feasible for the exact evaluator, proven by the
//! property tests in `tests/properties.rs` — at the price of occasionally
//! rejecting a borderline join the exact system would accept (costing
//! colors, not correctness). The [`strict`](SparseConfig::strict) mode
//! buys those verdicts back by re-checking borderline rejections through
//! un-pruned contributions.
//!
//! All stored values, dropped masses and exact re-checks are inflated by a
//! relative `1e-12` so that the conservativeness guarantee survives the
//! last-ulp divergence between this module's position-based arithmetic and
//! the naive evaluator's metric-based arithmetic (identical for
//! [`EuclideanSpace<2>`](oblisched_metric::EuclideanSpace), one ulp apart
//! for [`LineMetric`](oblisched_metric::LineMetric)).
//!
//! Both sparse tiers run the same row builder over the same grid (the
//! private `prune` core) and differ only in where their rows live.
//! [`SparseGainMatrix`] runs it once over every row against all-live grid
//! aggregates and packs the rows into `Sync` CSR arrays — the store batch
//! solves need for parallel builds and contiguous row walks. Dynamic
//! sessions use the [`churn`] submodule's [`SparseChurnMatrix`], which runs
//! it lazily against *live* aggregates and patches its rows as requests
//! arrive and depart.
//!
//! # Example
//!
//! ```
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::engine::sparse::{SparseConfig, SparseGainMatrix};
//! use oblisched_sinr::{ColorAccumulator, Instance, InterferenceSystem, ObliviousPower,
//!     Request, SinrParams, Variant};
//!
//! let metric = LineMetric::new(vec![0.0, 1.0, 50.0, 51.0, 100.0, 101.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::SquareRoot);
//! let view = eval.view(Variant::Bidirectional);
//! let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
//!
//! let mut class = ColorAccumulator::new(&sparse);
//! for i in 0..3 {
//!     if class.try_insert(i) {
//!         // Conservative: whatever the sparse backend accepts, the naive
//!         // evaluator accepts too.
//!         assert!(view.is_feasible(class.members()));
//!     }
//! }
//! # Ok::<(), oblisched_sinr::SinrError>(())
//! ```

use super::{item_id, GainBackend, IncrementalSystem, RowRef};
use crate::feasibility::{InterferenceSystem, VariantView};
use oblisched_metric::{MetricSpace, PlanarMetric};
use prune::{Aggregates, BuiltRow, Pads, Scratch, SparseCore};

pub mod churn;
mod prune;

pub use churn::{SparseChurnMatrix, DEFAULT_REFRESH_INTERVAL};

/// Construction knobs of the sparse tiers ([`SparseGainMatrix`] and
/// [`SparseChurnMatrix`]).
///
/// Serializable so requests (`SolveRequest` in `oblisched`) can pin a
/// sparse profile as data.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SparseConfig {
    /// Per-row cutoff as a fraction of the row's interference budget
    /// (`signal / β`): contributions below `cutoff_fraction · signal(i) / β`
    /// are dropped from row `i` and covered by the dropped-mass bound.
    /// `0.0` disables pruning (every pair is stored — the dense verdicts at
    /// sparse prices, useful for testing). Default `1e-3`.
    pub cutoff_fraction: f64,
    /// Target number of grid entries (interfering endpoints) per tile; the
    /// tile side is derived from it and the deployment's density. Default
    /// `8.0`.
    pub tile_occupancy: f64,
    /// When `true`, borderline verdicts (rejected with the dropped-mass pad,
    /// accepted without it) are settled by re-checking the class through
    /// un-pruned contributions (`O(|class|²)` per borderline). Recovers
    /// most of the colors conservativeness costs. Default `false`.
    pub strict: bool,
    /// When `true` (the default), the two ports of a bidirectional request
    /// are folded into a single row storing `max(port contributions)` per
    /// pair. Since `max_port Σ_j v ≤ Σ_j max_port v`, folded sums
    /// overestimate the worst-port interference — still conservative —
    /// while halving build time, probe cost and memory. Costs some extra
    /// colors on instances where the two endpoints hear very different
    /// interferers; set to `false` for exact per-port rows. Irrelevant for
    /// the directed variant (one port either way).
    pub fold_ports: bool,
    /// Number of threads used to build the rows (`0` = one per available
    /// core). The build output is identical for every thread count. Default
    /// `1`.
    pub build_threads: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        Self {
            cutoff_fraction: 1e-3,
            tile_occupancy: 8.0,
            strict: false,
            fold_ports: true,
            build_threads: 1,
        }
    }
}

impl SparseConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_fraction` is negative or not finite, or if
    /// `tile_occupancy` is not positive and finite.
    fn validate(&self) {
        assert!(
            self.cutoff_fraction.is_finite() && self.cutoff_fraction >= 0.0,
            "cutoff fraction must be finite and non-negative"
        );
        assert!(
            self.tile_occupancy.is_finite() && self.tile_occupancy > 0.0,
            "tile occupancy must be finite and positive"
        );
    }
}

/// A spatially-pruned contribution cache implementing the engine's
/// [`GainBackend`] contract with conservative pruning accounting.
///
/// Built once per (instance, power assignment, variant) from a
/// [`VariantView`] over a [`PlanarMetric`]; self-contained afterwards (the
/// positions, powers and parameters needed for strict re-checks are copied
/// in). Memory is `O(stored entries)` — at a fixed deployment density and
/// cutoff that is `O(n)`, against the dense matrix's `O(n²)`. See the
/// [module docs](self) for the pruning and conservativeness story.
#[derive(Debug, Clone)]
pub struct SparseGainMatrix {
    core: SparseCore,
    /// CSR rows in structure-of-arrays form: row `(i, port)` is
    /// `cols[offsets[i * ports + port]..offsets[.. + 1]]` (sorted interferer
    /// indices) with its values in the parallel range of `vals`. The split
    /// packs twice as many indices per cache line as the former interleaved
    /// `Vec<SparseEntry>` and drops the per-entry footprint from 16 to 12
    /// bytes (no padding).
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Per-item dropped-mass pads.
    pads: Vec<Pads>,
}

impl SparseGainMatrix {
    /// Builds the pruned contribution cache of `view` over a planar metric.
    ///
    /// Runs in `O(n · (supertiles + boundary tiles) + stored entries)` time;
    /// with [`build_threads`](SparseConfig::build_threads) > 1 the rows are
    /// computed in parallel (the result is identical for every thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SparseConfig`]).
    pub fn build<M: MetricSpace + PlanarMetric>(
        view: &VariantView<'_, '_, M>,
        config: &SparseConfig,
    ) -> Self {
        let core = SparseCore::new(view, config);
        let agg = Aggregates::new(&core, |_| true);
        let n = core.n;
        let build_row =
            |i: usize, scratch: &mut Scratch| core.build_row(&agg, |_| true, i, scratch);
        let threads = match config.build_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        };
        let rows: Vec<BuiltRow> = if threads <= 1 || n < 2 * threads {
            let mut scratch = Scratch::new(n);
            (0..n).map(|i| build_row(i, &mut scratch)).collect()
        } else {
            // Work-stealing chunked build: workers claim fixed-size chunks
            // off a shared counter (balancing the load when dense regions
            // make some rows much costlier than others), return
            // `(start, rows)` parts, and the parts are reassembled in index
            // order — the output is identical for every thread count.
            let chunk = n.div_ceil(threads * 8).max(16);
            let next = std::sync::atomic::AtomicUsize::new(0);
            let build_ref = &build_row;
            let next_ref = &next;
            let mut parts: Vec<(usize, Vec<BuiltRow>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut scratch = Scratch::new(n);
                            let mut mine: Vec<(usize, Vec<BuiltRow>)> = Vec::new();
                            loop {
                                let start =
                                    next_ref.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                                if start >= n {
                                    break;
                                }
                                let end = (start + chunk).min(n);
                                let rows =
                                    (start..end).map(|i| build_ref(i, &mut scratch)).collect();
                                mine.push((start, rows));
                            }
                            mine
                        })
                    })
                    .collect();
                let mut parts = Vec::new();
                for h in handles {
                    match h.join() {
                        Ok(mine) => parts.extend(mine),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                parts
            });
            parts.sort_unstable_by_key(|&(start, _)| start);
            parts.into_iter().flat_map(|(_, rows)| rows).collect()
        };

        let ports = core.ports;
        // Sized exactly: the CSR arrays are the bulk of the footprint, and
        // growing them by doubling would transiently hold far more.
        let stored = rows
            .iter()
            .map(|row| row.entries.iter().map(Vec::len).sum::<usize>())
            .sum();
        let mut matrix = Self {
            core,
            offsets: Vec::with_capacity(n * ports + 1),
            cols: Vec::with_capacity(stored),
            vals: Vec::with_capacity(stored),
            pads: Vec::with_capacity(n),
        };
        matrix.offsets.push(0);
        for row in rows {
            for entries in &row.entries[..ports] {
                matrix.cols.extend(entries.iter().map(|e| e.j));
                matrix.vals.extend(entries.iter().map(|e| e.v));
                matrix.offsets.push(matrix.cols.len());
            }
            matrix.pads.push(row.pads);
        }
        matrix
    }

    /// The stored row of `(i, port)`, sorted by interferer index, as
    /// parallel column/value slices.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `port` is out of range.
    pub fn row(&self, i: usize, port: usize) -> RowRef<'_> {
        assert!(port < self.core.ports, "port {port} out of range");
        let r = i * self.core.ports + port;
        RowRef {
            cols: &self.cols[self.offsets[r]..self.offsets[r + 1]],
            vals: &self.vals[self.offsets[r]..self.offsets[r + 1]],
        }
    }

    /// Number of stored (non-pruned) contributions across all rows.
    pub fn stored_entries(&self) -> usize {
        self.cols.len()
    }

    /// Number of ports per item.
    pub fn ports(&self) -> usize {
        self.core.ports
    }

    /// Approximate heap footprint of the matrix in bytes: the per-item
    /// geometry, the grid and the CSR rows with their pads.
    pub fn bytes(&self) -> usize {
        self.core.bytes()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.pads.len() * std::mem::size_of::<Pads>()
    }
}

impl InterferenceSystem for SparseGainMatrix {
    fn len(&self) -> usize {
        self.core.n
    }

    /// The *conservative* SINR: stored contributions plus the dropped-mass
    /// pad of the row. Never above the exact SINR, so
    /// [`is_feasible`](InterferenceSystem::is_feasible) never accepts a set
    /// the exact system rejects.
    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        self.core
            .padded_sinr(i, others, &self.pads[i], |port, j| self.row(i, port).get(j))
    }

    fn beta(&self) -> f64 {
        self.core.params.beta()
    }
}

impl IncrementalSystem for SparseGainMatrix {
    fn num_ports(&self) -> usize {
        self.core.ports
    }

    /// The stored contribution, or `0.0` for pruned pairs — the engine adds
    /// the dropped-mass pad separately through the [`GainBackend`] hooks.
    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.stored_contribution(i, port, j).unwrap_or(0.0)
    }

    fn signal(&self, i: usize) -> f64 {
        self.core.signals[i]
    }

    fn noise(&self) -> f64 {
        self.core.params.noise()
    }
}

impl GainBackend for SparseGainMatrix {
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        if j == i {
            return Some(0.0);
        }
        self.row(i, port).get(item_id(j))
    }

    fn stored_row(&self, i: usize, port: usize) -> Option<RowRef<'_>> {
        Some(self.row(i, port))
    }

    fn pruned_cap(&self, i: usize, port: usize) -> f64 {
        self.pads[i].cap[port]
    }

    fn pruned_mass(&self, i: usize, port: usize) -> f64 {
        self.pads[i].mass[port]
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn strict_recheck(&self) -> bool {
        self.core.strict
    }

    fn exact_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.core.inflated(i, port, j)
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
    use oblisched_metric::{EuclideanSpace, LineMetric, Point2};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    /// A small planar deployment with a mix of near and far pairs.
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

    fn all_subsets(n: usize) -> Vec<Vec<usize>> {
        (0..1usize << n)
            .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn zero_cutoff_stores_every_pair() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            // Per-port rows so stored values are comparable one-to-one with
            // the naive contributions.
            let config = SparseConfig {
                cutoff_fraction: 0.0,
                fold_ports: false,
                ..SparseConfig::default()
            };
            let sparse = SparseGainMatrix::build(&view, &config);
            let n = inst.len();
            assert_eq!(sparse.stored_entries(), sparse.ports() * n * (n - 1));
            // Stored values match the naive contributions up to the safety
            // inflation.
            for i in 0..n {
                for port in 0..sparse.ports() {
                    for j in 0..n {
                        let naive = view.contribution(i, port, j);
                        let stored = sparse.stored_contribution(i, port, j).unwrap();
                        if naive.is_finite() {
                            assert!(stored >= naive, "stored must not underestimate");
                            assert!(stored <= naive * (1.0 + 1e-9));
                        } else {
                            assert_eq!(stored, naive);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn verdicts_are_conservative_for_every_subset() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                // A crude cutoff so that real pruning happens on this
                // instance.
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let sparse = SparseGainMatrix::build(&view, &config);
                let n = inst.len();
                assert!(
                    sparse.stored_entries() < sparse.ports() * n * (n - 1),
                    "the cutoff must actually prune"
                );
                for set in all_subsets(n.min(10)) {
                    if sparse.is_feasible(&set) {
                        assert!(
                            view.is_feasible(&set),
                            "sparse accepted {set:?} under {variant} but naive rejects"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulator_on_sparse_is_conservative() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let sparse = SparseGainMatrix::build(&view, &config);
                let mut acc = ColorAccumulator::new(&sparse);
                for i in 0..inst.len() {
                    if acc.try_insert(i) {
                        assert!(
                            view.is_feasible(acc.members()),
                            "sparse-accepted class {:?} must be naive-feasible",
                            acc.members()
                        );
                    }
                }
                assert!(!acc.is_empty());
            }
        }
    }

    /// A hand-built borderline: request 1 contributes 0.85 to request 0
    /// (stored), request 2 only ~1.25e-4 (pruned), but a pruned bystander
    /// (request 3, contribution 0.4) sets request 0's dropped cap, so the
    /// conservative pad pushes the padded interference past the budget when
    /// request 2 joins {0, 1} — a verdict only the strict re-check can
    /// settle.
    fn borderline_setup() -> Instance<EuclideanSpace<2>> {
        let d1 = (1.0f64 / 0.85).cbrt();
        let dc = (1.0f64 / 0.4).cbrt();
        let points = vec![
            Point2::xy(0.0, 0.0),      // r0 sender
            Point2::xy(1.0, 0.0),      // r0 receiver
            Point2::xy(1.0 + d1, 0.0), // r1 sender: 0.85 at r0's receiver
            Point2::xy(2.0 + d1, 0.0), // r1 receiver
            Point2::xy(21.0, 0.0),     // r2 sender: ~1.25e-4 at r0's receiver
            Point2::xy(22.0, 0.0),     // r2 receiver
            Point2::xy(1.0, dc),       // r3 sender: 0.4 at r0's receiver
            Point2::xy(1.0, dc + 1.0), // r3 receiver
        ];
        Instance::new(
            EuclideanSpace::from_points(points),
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn strict_mode_recovers_borderline_rejections() {
        let inst = borderline_setup();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        // Cutoff 0.5 stores the 0.85 contribution and prunes 0.4 and below.
        let config = SparseConfig {
            cutoff_fraction: 0.5,
            ..SparseConfig::default()
        };
        let lax = SparseGainMatrix::build(&view, &config);
        let strict = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                strict: true,
                ..config
            },
        );
        assert!(strict.strict_recheck() && !lax.strict_recheck());
        // The exact system accepts {0, 1, 2}.
        assert!(view.is_feasible(&[0, 1, 2]));
        // The lax backend rejects request 2: the pad (capped by the pruned
        // bystander's 0.4) pretends the pruned member could be that large.
        let mut lax_acc = ColorAccumulator::new(&lax);
        assert!(lax_acc.try_insert(0));
        assert!(lax_acc.try_insert(1));
        assert!(
            !lax_acc.try_insert(2),
            "the conservative pad must reject the borderline"
        );
        // The strict backend settles the same verdict through un-pruned
        // contributions and accepts.
        let mut strict_acc = ColorAccumulator::new(&strict);
        assert!(strict_acc.try_insert(0));
        assert!(strict_acc.try_insert(1));
        assert!(
            strict_acc.try_insert(2),
            "strict must recover the borderline reject"
        );
        assert_eq!(strict_acc.members(), &[0, 1, 2]);
        assert!(view.is_feasible(strict_acc.members()));
    }

    #[test]
    fn line_metric_instances_are_supported() {
        let metric = LineMetric::new(vec![0.0, 1.0, 40.0, 41.5, 200.0, 202.0, 1000.0, 1001.0]);
        let inst = Instance::new(
            metric,
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
            ],
        )
        .unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 4);
        for set in all_subsets(4) {
            if sparse.is_feasible(&set) {
                assert!(view.is_feasible(&set));
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let serial = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                build_threads: 1,
                ..SparseConfig::default()
            },
        );
        for threads in [2usize, 8] {
            let parallel = SparseGainMatrix::build(
                &view,
                &SparseConfig {
                    build_threads: threads,
                    ..SparseConfig::default()
                },
            );
            assert_eq!(parallel.offsets, serial.offsets);
            assert_eq!(parallel.cols, serial.cols);
            assert_eq!(parallel.vals, serial.vals);
            assert_eq!(parallel.pads, serial.pads);
        }
    }

    #[test]
    fn accessors_and_footprint() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        // A low cutoff so this spread-out instance still stores entries;
        // per-port rows so both ports are visible.
        let config = SparseConfig {
            cutoff_fraction: 1e-7,
            fold_ports: false,
            ..SparseConfig::default()
        };
        let sparse = SparseGainMatrix::build(&view, &config);
        assert_eq!(sparse.ports(), 2);
        let folded = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                cutoff_fraction: 1e-7,
                ..SparseConfig::default()
            },
        );
        assert_eq!(
            folded.ports(),
            1,
            "folding collapses the bidirectional ports"
        );
        assert!(folded.stored_entries() < sparse.stored_entries());
        assert!(sparse.bytes() > 0);
        assert!(sparse.stored_entries() > 0);
        let directed = SparseGainMatrix::build(&eval.view(Variant::Directed), &config);
        assert_eq!(directed.ports(), 1);
        // Rows are sorted by interferer, with columns and values parallel.
        for i in 0..sparse.len() {
            for port in 0..sparse.ports() {
                let row = sparse.row(i, port);
                assert_eq!(row.cols.len(), row.vals.len());
                assert!(row.cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cutoff fraction")]
    fn negative_cutoff_is_rejected() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let config = SparseConfig {
            cutoff_fraction: -0.1,
            ..SparseConfig::default()
        };
        let _ = SparseGainMatrix::build(&view, &config);
    }

    #[test]
    fn grid_stays_bounded_on_huge_extent_line_geometries() {
        // A nested-chain layout: request i spans [-2^(i+1), 2^(i+1)], so 40
        // requests cover 2^41 length units. The grid must scale with the
        // request count, not the extent — an extent-derived grid would try
        // to allocate terabytes of tiles here.
        let mut coords = Vec::new();
        for i in 0..40 {
            let r = 2f64.powi(i + 1);
            coords.push(-r);
            coords.push(r);
        }
        let metric = LineMetric::new(coords);
        let requests: Vec<Request> = (0..40).map(|i| Request::new(2 * i, 2 * i + 1)).collect();
        let inst = Instance::new(metric, requests).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 40);
        // The footprint stays in the kilobytes, and verdicts stay
        // conservative.
        assert!(
            sparse.bytes() < 1 << 20,
            "grid blew up: {} bytes",
            sparse.bytes()
        );
        for k in 1..=40 {
            let set: Vec<usize> = (0..k).collect();
            if sparse.is_feasible(&set) {
                assert!(view.is_feasible(&set));
            }
        }
    }

    #[test]
    fn grid_stays_bounded_on_long_sparse_lines() {
        // 2000 unit links spread over 340k length units (zero bounding-box
        // area): the 1-D density fallback keeps the tile table proportional
        // to the request count and the build instant.
        let mut coords = Vec::new();
        for i in 0..2000 {
            let base = i as f64 * 170.0;
            coords.push(base);
            coords.push(base + 1.0);
        }
        let metric = LineMetric::new(coords);
        let requests: Vec<Request> = (0..2000).map(|i| Request::new(2 * i, 2 * i + 1)).collect();
        let inst = Instance::new(metric, requests).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 2000);
        assert!(
            sparse.bytes() < 8 << 20,
            "grid blew up: {} bytes",
            sparse.bytes()
        );
    }

    #[test]
    fn empty_instance_builds_an_empty_matrix() {
        let metric = LineMetric::new(vec![0.0, 1.0]);
        let inst = Instance::new(metric, vec![]).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert!(sparse.is_empty());
        assert_eq!(sparse.stored_entries(), 0);
        assert!(sparse.is_feasible(&[]));
    }
}
