//! Large-`n` workload constructors for the scaling experiments.
//!
//! These are seed-pinned, density-normalised convenience wrappers around the
//! family generators of this crate, parameterised for the `n = 10⁴–10⁵`
//! regime that the incremental interference engine of `oblisched_sinr`
//! opens up. Generation is `O(n)` time and memory for every family; it is
//! the *scheduling* of these instances that used to be the bottleneck.
//!
//! Two conventions keep the families comparable across sizes:
//!
//! * **constant density** — random deployments live in a square of side
//!   `10·√n`, so the expected number of links per unit area (and with it the
//!   per-color packing behaviour) is independent of `n`;
//! * **seed-pinned determinism** — the same `(n, seed)` always produces the
//!   same instance, which is what lets experiment E9 assert that the
//!   incremental and the naive first-fit produce *identical* colorings.

use crate::line::evenly_spaced_line;
use crate::random::{clustered_deployment, uniform_deployment, DeploymentConfig};
use oblisched_metric::{EuclideanSpace, LineMetric};
use oblisched_sinr::Instance;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The [`DeploymentConfig`] used by the scaling families: `n` requests of
/// length 1–15 in a square of side `10·√n`. The density is chosen so that
/// first-fit needs a couple of dozen colors — dense enough that color
/// classes stay in the hundreds of members (the regime separating the
/// incremental engine from the naive path), sparse enough that the naive
/// baseline still terminates at `n = 5000`.
pub fn scaling_config(n: usize) -> DeploymentConfig {
    DeploymentConfig {
        num_requests: n,
        side: 10.0 * (n as f64).sqrt(),
        min_link: 1.0,
        max_link: 15.0,
    }
}

/// A seed-pinned uniform random deployment at constant density.
///
/// Tractable to *generate* for any `n` (including `10⁵`); scheduling it with
/// the incremental engine is practical well into the `n ≥ 10⁴` regime.
///
/// # Panics
///
/// Panics if `n == 0` (the deployment config requires at least one request).
///
/// # Example
///
/// ```
/// use oblisched_instances::scaling_uniform;
///
/// let inst = scaling_uniform(100, 7);
/// assert_eq!(inst.len(), 100);
/// assert_eq!(inst, scaling_uniform(100, 7)); // seed-pinned
/// ```
pub fn scaling_uniform(n: usize, seed: u64) -> Instance<EuclideanSpace<2>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    uniform_deployment(scaling_config(n), &mut rng)
}

/// A seed-pinned clustered deployment at constant density: `max(4, n/256)`
/// clusters of radius 30, producing the locally dense hot spots on which the
/// square-root assignment separates from uniform and linear.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn scaling_clustered(n: usize, seed: u64) -> Instance<EuclideanSpace<2>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let clusters = (n / 256).max(4);
    clustered_deployment(scaling_config(n), clusters, 30.0, &mut rng)
}

/// A deterministic line family: `n` unit links separated by gaps of 6 length
/// units. Moderately interfering — first-fit needs only a handful of colors,
/// which makes the color classes large and the instance a worst case for the
/// naive `O(class²)` feasibility queries.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn scaling_line(n: usize) -> Instance<LineMetric> {
    evenly_spaced_line(n, 1.0, 6.0)
}

/// The sizes of the *large* scaling tier: deployments the dense `GainMatrix`
/// cannot hold. At `n = 10⁴` the bidirectional matrix would need
/// `8 · 2 · n² = 1.6 GB` — 25× the scheduler facade's default 64 MiB budget
/// — and at `n = 5·10⁴` it would need 40 GB; only the spatially-pruned
/// sparse backend (and the uncached path) can schedule these.
pub const LARGE_SCALE_SIZES: [usize; 2] = [10_000, 50_000];

/// Seed-pinned uniform deployment at the large tier: `n = 10⁴` at constant
/// density. Generation is `O(n)`; scheduling requires the sparse backend
/// (see [`LARGE_SCALE_SIZES`]).
pub fn scaling_uniform_10k(seed: u64) -> Instance<EuclideanSpace<2>> {
    scaling_uniform(LARGE_SCALE_SIZES[0], seed)
}

/// Seed-pinned uniform deployment at the extreme tier: `n = 5·10⁴`.
pub fn scaling_uniform_50k(seed: u64) -> Instance<EuclideanSpace<2>> {
    scaling_uniform(LARGE_SCALE_SIZES[1], seed)
}

/// Seed-pinned clustered deployment at the large tier: `n = 10⁴` with
/// `n/256` hot spots.
pub fn scaling_clustered_10k(seed: u64) -> Instance<EuclideanSpace<2>> {
    scaling_clustered(LARGE_SCALE_SIZES[0], seed)
}

/// Seed-pinned clustered deployment at the extreme tier: `n = 5·10⁴`.
pub fn scaling_clustered_50k(seed: u64) -> Instance<EuclideanSpace<2>> {
    scaling_clustered(LARGE_SCALE_SIZES[1], seed)
}

/// The deterministic line family at the large tier: `n = 10⁴` unit links.
pub fn scaling_line_10k() -> Instance<LineMetric> {
    scaling_line(LARGE_SCALE_SIZES[0])
}

/// The deterministic line family at the extreme tier: `n = 5·10⁴` unit
/// links.
pub fn scaling_line_50k() -> Instance<LineMetric> {
    scaling_line(LARGE_SCALE_SIZES[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_metric::MetricSpace;

    #[test]
    fn families_are_seed_pinned_and_sized() {
        assert_eq!(scaling_uniform(50, 3), scaling_uniform(50, 3));
        assert_ne!(scaling_uniform(50, 3), scaling_uniform(50, 4));
        assert_eq!(scaling_clustered(50, 3), scaling_clustered(50, 3));
        assert_eq!(scaling_uniform(50, 3).len(), 50);
        assert_eq!(scaling_clustered(40, 1).len(), 40);
        assert_eq!(scaling_line(64).len(), 64);
    }

    #[test]
    fn density_is_constant_across_sizes() {
        let small = scaling_config(100);
        let large = scaling_config(10_000);
        let density = |c: &DeploymentConfig| c.num_requests as f64 / (c.side * c.side);
        assert!((density(&small) - density(&large)).abs() < 1e-12);
    }

    #[test]
    fn large_n_generation_is_tractable() {
        // 10⁴-sized instances must come out instantly; this exercises the
        // constructors in the regime the engine targets without scheduling.
        let inst = scaling_uniform_10k(1);
        assert_eq!(inst.len(), 10_000);
        assert_eq!(inst.metric().len(), 20_000);
        let line = scaling_line_10k();
        assert_eq!(line.len(), 10_000);
        let clustered = scaling_clustered_10k(1);
        assert_eq!(clustered.len(), 10_000);
    }

    #[test]
    fn large_tier_exceeds_the_dense_matrix_budget() {
        // The point of the large tier: these sizes cannot be held densely.
        // 64 MiB is the scheduler facade's default budget.
        const DEFAULT_BUDGET: usize = 64 * 1024 * 1024;
        for n in LARGE_SCALE_SIZES {
            for ports in [1usize, 2] {
                let dense = oblisched_sinr::GainMatrix::checked_bytes_for(n, ports)
                    .expect("these sizes do not overflow");
                assert!(
                    dense > DEFAULT_BUDGET,
                    "n={n} ports={ports} would fit the dense budget — not a large-tier size"
                );
            }
        }
    }

    #[test]
    fn extreme_tier_generation_is_tractable() {
        // Generation stays O(n) even at 5·10⁴; seed-pinning holds.
        let a = scaling_uniform_50k(3);
        assert_eq!(a.len(), 50_000);
        assert_eq!(a, scaling_uniform_50k(3));
        assert_eq!(scaling_line_50k().len(), 50_000);
        assert_eq!(scaling_clustered_50k(1).len(), 50_000);
    }
}
