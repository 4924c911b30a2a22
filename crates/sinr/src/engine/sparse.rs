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
//! * each request `i` gets **one row**, which stores, sorted by interferer,
//!   only the contributions at least the row's **cutoff**
//!   `cutoff_fraction · signal(i) / β`; everything below it — individual
//!   near-field runts and whole far-away (super)tiles, bounded through the
//!   grid aggregates without ever being computed — is *dropped*;
//! * what was dropped is **conservatively accounted**: the row tracks the
//!   total dropped mass and the largest single dropped contribution, and its
//!   [`pad`](super::GainBackend::pad) for `d` pruned class members is the
//!   smaller of the total mass and `d` times the largest, which the
//!   [`ColorAccumulator`](super::ColorAccumulator) adds back onto its running
//!   sums before any feasibility comparison.
//!
//! The result is the engine's third tier (naive → dense incremental →
//! sparse pruned): `O(n)` memory at fixed density and cutoff, verdicts that
//! are **never non-conservative** — a color class accepted through the
//! sparse backend is always feasible for the exact evaluator, proven by the
//! property tests in `tests/properties.rs` — at the price of occasionally
//! rejecting a borderline join the exact system would accept (costing
//! colors, not correctness).
//!
//! # One row per request
//!
//! A bidirectional request hears interference at both endpoints, its two
//! *ports*, and the exact system takes the worse port's sum. The sparse
//! tiers fold the ports into the request's single row: each stored value is
//! `max_port v`, the contribution at the closest (endpoint, anchor) pair,
//! and the pads bound far tiles through the anchor closest to them. Since
//! `max_port Σ_j v ≤ Σ_j max_port v`, the folded sum overestimates the
//! worst port's interference, so verdicts stay conservative, at half the
//! build time, probe cost and memory of per-port rows. The price is a few
//! extra colors on instances where the two endpoints hear very different
//! interferers. Directed requests have one port, so their rows are exact.
//! Both sparse tiers report one port
//! ([`num_ports`](super::GainBackend::num_ports) is `1`) and ignore the
//! `port` argument of the engine's hooks. One row per request is also what
//! the engine asks of a pruned backend: the accumulator keeps one
//! pruned-member count per class member and asks one
//! [`pad`](super::GainBackend::pad) per row.
//!
//! All stored values and dropped masses are inflated by a relative `1e-12`
//! so that the conservativeness guarantee survives the
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

use super::{item_id, GainBackend, RowRef};
use crate::error::SinrError;
use crate::feasibility::{InterferenceSystem, VariantView};
use oblisched_metric::{MetricSpace, PlanarMetric};
use prune::{Aggregates, BuiltRow, Pads, Scratch, SparseCore};

pub mod churn;
mod prune;

pub use churn::SparseChurnMatrix;

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
    /// Number of threads used to build the rows (`0` = one per available
    /// core). The build output is identical for every thread count. Default
    /// `1`.
    pub build_threads: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        Self {
            cutoff_fraction: 1e-3,
            build_threads: 1,
        }
    }
}

impl SparseConfig {
    /// Checks the configuration: the one rule the sparse tiers enforce,
    /// shared by the facade's typed error and the constructors' panic.
    ///
    /// # Errors
    ///
    /// [`SinrError::InvalidParams`] if `cutoff_fraction` is negative or not
    /// finite.
    pub fn validate(&self) -> Result<(), SinrError> {
        if self.cutoff_fraction.is_finite() && self.cutoff_fraction >= 0.0 {
            Ok(())
        } else {
            Err(SinrError::InvalidParams {
                reason: format!(
                    "sparse cutoff fraction must be finite and non-negative, got {}",
                    self.cutoff_fraction
                ),
            })
        }
    }
}

/// A spatially-pruned contribution cache implementing the engine's
/// [`GainBackend`] contract with conservative pruning accounting.
///
/// Built once per (instance, power assignment, variant) from a
/// [`VariantView`] over a [`PlanarMetric`]; self-contained afterwards (the
/// positions, powers and parameters are copied in). Memory is
/// `O(stored entries)` — at a fixed deployment density and cutoff that is
/// `O(n)`, against the dense matrix's `O(n²)`. See the [module docs](self)
/// for the pruning and conservativeness story.
#[derive(Debug, Clone)]
pub struct SparseGainMatrix {
    core: SparseCore,
    /// CSR rows in structure-of-arrays form: row `i` is
    /// `cols[offsets[i]..offsets[i + 1]]` (sorted interferer indices) with
    /// its values in the parallel range of `vals`. The split packs twice as
    /// many indices per cache line as interleaved `(index, value)` entries
    /// and drops the per-entry footprint from 16 to 12 bytes (no padding).
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
    /// Panics if the configuration is invalid (see
    /// [`SparseConfig::validate`]).
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

        // Sized exactly: the CSR arrays are the bulk of the footprint, and
        // growing them by doubling would transiently hold far more.
        let stored = rows.iter().map(|row| row.entries.len()).sum();
        let mut matrix = Self {
            core,
            offsets: Vec::with_capacity(n + 1),
            cols: Vec::with_capacity(stored),
            vals: Vec::with_capacity(stored),
            pads: Vec::with_capacity(n),
        };
        matrix.offsets.push(0);
        for row in rows {
            matrix.cols.extend(row.entries.iter().map(|e| e.j));
            matrix.vals.extend(row.entries.iter().map(|e| e.v));
            matrix.offsets.push(matrix.cols.len());
            matrix.pads.push(row.pads);
        }
        matrix
    }

    /// The stored row of `i`, sorted by interferer index, as parallel
    /// column/value slices.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        let range = self.offsets[i]..self.offsets[i + 1];
        RowRef {
            cols: &self.cols[range.clone()],
            vals: &self.vals[range],
        }
    }

    /// Number of stored (non-pruned) contributions across all rows.
    pub fn stored_entries(&self) -> usize {
        self.cols.len()
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
        let row = self.row(i);
        self.core
            .padded_sinr(i, others, &self.pads[i], |j| row.get(j))
    }

    fn beta(&self) -> f64 {
        self.core.params.beta()
    }
}

impl GainBackend for SparseGainMatrix {
    /// One row per request (see the [module docs](self)).
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

    fn stored_contribution(&self, i: usize, _port: usize, j: usize) -> Option<f64> {
        if j == i {
            return Some(0.0);
        }
        self.row(i).get(item_id(j))
    }

    fn stored_row(&self, i: usize) -> Option<RowRef<'_>> {
        Some(self.row(i))
    }

    fn pad(&self, i: usize, dropped: u32) -> f64 {
        self.pads[i].bound(dropped)
    }

    fn is_exact(&self) -> bool {
        false
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
            let config = SparseConfig {
                cutoff_fraction: 0.0,
                ..SparseConfig::default()
            };
            let sparse = SparseGainMatrix::build(&view, &config);
            let n = inst.len();
            assert_eq!(sparse.stored_entries(), n * (n - 1));
            // Stored values match the worse port's naive contribution up to
            // the safety inflation.
            for i in 0..n {
                for j in 0..n {
                    let naive = (0..view.num_ports())
                        .map(|port| view.contribution(i, port, j))
                        .fold(0.0, f64::max);
                    let stored = sparse.stored_contribution(i, 0, j).unwrap();
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
                    sparse.stored_entries() < n * (n - 1),
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
        // A low cutoff so this spread-out instance still stores entries.
        let config = SparseConfig {
            cutoff_fraction: 1e-7,
            ..SparseConfig::default()
        };
        for variant in Variant::all() {
            let sparse = SparseGainMatrix::build(&eval.view(variant), &config);
            assert_eq!(sparse.num_ports(), 1, "one row per request");
            assert!(sparse.bytes() > 0);
            assert!(sparse.stored_entries() > 0);
            // Rows are sorted by interferer, with columns and values parallel.
            for i in 0..sparse.len() {
                let row = sparse.row(i);
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
