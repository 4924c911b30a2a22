//! SINR feasibility checking for the directed and bidirectional variants.
//!
//! The checker here is the single source of truth for "can these requests be
//! scheduled simultaneously?". Every scheduling algorithm in the workspace
//! validates its output against this module, and the experiment harness uses
//! it to count how many colors each power assignment really needs.

use crate::error::SinrError;
use crate::params::SinrParams;
use crate::power::PowerScheme;
use crate::request::Instance;
use oblisched_metric::{MetricSpace, NodeId};
use serde::{Deserialize, Serialize};

/// Relative tolerance used when comparing a SINR against the gain, so that
/// schedules constructed from exact arithmetic are not rejected because of
/// floating-point rounding.
pub const REL_TOL: f64 = 1e-9;

/// Which variant of the interference scheduling problem is being solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Each request has a dedicated sender and receiver; only the receiver
    /// must decode the signal.
    Directed,
    /// Both endpoints of a request must be able to decode the signal of
    /// their partner (full-duplex channels, §1.1 of the paper).
    Bidirectional,
}

impl Variant {
    /// Both variants, in the order they appear in the paper.
    pub fn all() -> [Variant; 2] {
        [Variant::Directed, Variant::Bidirectional]
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Directed => write!(f, "directed"),
            Variant::Bidirectional => write!(f, "bidirectional"),
        }
    }
}

/// An abstract collection of items that interfere with each other.
///
/// `sinr(i, others)` is the ratio between the strength of item `i`'s own
/// signal and the interference generated by `others` (plus noise); a set `S`
/// is feasible at gain `γ` when `sinr(i, S) ≥ γ` for every `i ∈ S`. Both the
/// pair-based problem (via [`Evaluator::view`]) and the node-loss problem of
/// §3.2 implement this trait, so the greedy coloring and the gain-rescaling
/// machinery (Propositions 3 and 4) are written once.
pub trait InterferenceSystem {
    /// Number of schedulable items.
    fn len(&self) -> usize;

    /// Returns `true` if there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The SINR of item `i` when the items in `others` (minus `i` itself)
    /// transmit simultaneously.
    fn sinr(&self, i: usize, others: &[usize]) -> f64;

    /// The SINR of every member of `set` against `set`, in `set`'s order:
    /// entry `k` is `sinr(set[k], set)`, bit for bit.
    ///
    /// The default is that per-member loop. An override must return the
    /// same bits for every set, including sets that repeat an item (every
    /// copy of `i` is one of the "`i` itself" the SINR leaves out), the
    /// empty set and singletons; it may only share work between members.
    /// [`VariantView`] overrides it for the bidirectional variant.
    fn member_sinrs(&self, set: &[usize]) -> Vec<f64> {
        set.iter().map(|&i| self.sinr(i, set)).collect()
    }

    /// The gain (SINR threshold) of the underlying model.
    fn beta(&self) -> f64;

    /// Checks feasibility of `set` at an explicit gain.
    fn is_feasible_with_gain(&self, set: &[usize], gain: f64) -> bool {
        set.iter()
            .all(|&i| self.sinr(i, set) >= gain * (1.0 - REL_TOL))
    }

    /// Checks feasibility of `set` at the model gain [`InterferenceSystem::beta`].
    fn is_feasible(&self, set: &[usize]) -> bool {
        self.is_feasible_with_gain(set, self.beta())
    }

    /// The largest gain at which `set` is feasible (the minimum SINR over the
    /// set).
    ///
    /// Edge cases are part of the contract (and unit-tested): the empty set
    /// is vacuously feasible at every gain, so the result is
    /// `f64::INFINITY`; a singleton without noise likewise has infinite
    /// SINR, while with noise it is `signal / noise` and therefore finite.
    fn max_feasible_gain(&self, set: &[usize]) -> f64 {
        set.iter()
            .map(|&i| self.sinr(i, set))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Evaluates SINR quantities for one instance under one power assignment.
///
/// The evaluator pre-computes link losses and powers; all queries are then
/// pure functions of the metric.
///
/// # Example
///
/// ```
/// use oblisched_metric::LineMetric;
/// use oblisched_sinr::{Instance, ObliviousPower, Request, SinrParams, Variant};
///
/// let metric = LineMetric::new(vec![0.0, 1.0, 50.0, 51.0]);
/// let instance = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)])?;
/// let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::Uniform);
/// assert!(eval.is_feasible(Variant::Directed, &[0, 1]));
/// assert!(eval.sinr(Variant::Directed, 0, &[0, 1]) > 1.0);
/// # Ok::<(), oblisched_sinr::SinrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a, M> {
    instance: &'a Instance<M>,
    params: SinrParams,
    powers: Vec<f64>,
    losses: Vec<f64>,
}

impl<'a, M: MetricSpace> Evaluator<'a, M> {
    /// Builds an evaluator from a power scheme.
    pub fn new<P: PowerScheme + ?Sized>(
        instance: &'a Instance<M>,
        params: SinrParams,
        scheme: &P,
    ) -> Self {
        let losses: Vec<f64> = instance.link_losses(&params);
        let powers: Vec<f64> = losses
            .iter()
            .enumerate()
            .map(|(i, &l)| scheme.power_for(i, l))
            .collect();
        Self {
            instance,
            params,
            powers,
            losses,
        }
    }

    /// Builds an evaluator from an explicit power vector.
    ///
    /// # Errors
    ///
    /// * [`SinrError::PowerLengthMismatch`] if the vector length differs from
    ///   the number of requests.
    /// * [`SinrError::InvalidPower`] if a power is not positive and finite.
    pub fn with_powers(
        instance: &'a Instance<M>,
        params: SinrParams,
        powers: Vec<f64>,
    ) -> Result<Self, SinrError> {
        if powers.len() != instance.len() {
            return Err(SinrError::PowerLengthMismatch {
                expected: instance.len(),
                actual: powers.len(),
            });
        }
        for (index, &value) in powers.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(SinrError::InvalidPower { index, value });
            }
        }
        let losses = instance.link_losses(&params);
        Ok(Self {
            instance,
            params,
            powers,
            losses,
        })
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Returns `true` if the instance has no requests.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// The underlying instance.
    pub fn instance(&self) -> &'a Instance<M> {
        self.instance
    }

    /// The model parameters.
    pub fn params(&self) -> SinrParams {
        self.params
    }

    /// The power of request `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn power(&self, i: usize) -> f64 {
        self.powers[i]
    }

    /// All powers.
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// The link loss `ℓ_i` of request `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn loss(&self, i: usize) -> f64 {
        self.losses[i]
    }

    /// Received signal strength `p_i / ℓ_i` of request `i` at its own
    /// receiver.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn signal(&self, i: usize) -> f64 {
        self.params
            .received_strength(self.powers[i], self.losses[i])
    }

    /// Interference created by request `j` at metric node `w`, using the
    /// bidirectional convention: the transmitting endpoint is the one closer
    /// to `w` (the worst case over the unknown intra-pair protocol).
    ///
    /// # Panics
    ///
    /// Panics if `j` or `w` is out of range.
    pub fn node_contribution(&self, j: usize, w: NodeId) -> f64 {
        let r = self.instance.request(j);
        let metric = self.instance.metric();
        let loss = self
            .params
            .loss(metric.distance(r.sender, w))
            .min(self.params.loss(metric.distance(r.receiver, w)));
        self.params.received_strength(self.powers[j], loss)
    }

    /// Total bidirectional interference at metric node `w` caused by the
    /// requests in `set` (the quantity `I(w | S)` of §5).
    pub fn interference_at_node(&self, w: NodeId, set: &[usize]) -> f64 {
        set.iter().map(|&j| self.node_contribution(j, w)).sum()
    }

    /// Interference experienced by request `i` when the requests in `others`
    /// (minus `i`) transmit, in the given variant.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn interference(&self, variant: Variant, i: usize, others: &[usize]) -> f64 {
        let metric = self.instance.metric();
        let ri = self.instance.request(i);
        match variant {
            Variant::Directed => others
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| {
                    let rj = self.instance.request(j);
                    let loss = self.params.loss(metric.distance(rj.sender, ri.receiver));
                    self.params.received_strength(self.powers[j], loss)
                })
                .sum(),
            Variant::Bidirectional => {
                let at = |w: NodeId| -> f64 {
                    others
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| self.node_contribution(j, w))
                        .sum()
                };
                at(ri.sender).max(at(ri.receiver))
            }
        }
    }

    /// The SINR of request `i` against the requests in `others` (minus `i`).
    ///
    /// Returns `f64::INFINITY` when there is neither interference nor noise.
    pub fn sinr(&self, variant: Variant, i: usize, others: &[usize]) -> f64 {
        self.sinr_from(i, self.interference(variant, i, others))
    }

    /// The SINR of request `i` under `interference` plus the noise.
    fn sinr_from(&self, i: usize, interference: f64) -> f64 {
        let interference = interference + self.params.noise();
        if interference == 0.0 {
            f64::INFINITY
        } else {
            self.signal(i) / interference
        }
    }

    /// The bidirectional [`sinr`](Evaluator::sinr) of every member of `set`
    /// against `set`, bit for bit, from one pass over its unordered pairs.
    ///
    /// Each pair of positions holding different requests computes the
    /// losses between its four endpoint pairs once and adds both directed
    /// contributions to per-member running sums, one per endpoint. The
    /// operands of every `min`, division and sum are those of
    /// [`interference`](Evaluator::interference), and each member's sums
    /// visit the other positions in `set`'s order from `Iterator::sum`'s
    /// start value, so only the `powf` calls are shared. A loss is shared
    /// only when both orientations of the metric's `distance` return the
    /// same bits; a metric inside its symmetry tolerance pays both.
    fn bidirectional_sinrs(&self, set: &[usize]) -> Vec<f64> {
        let metric = self.instance.metric();
        let ends: Vec<[NodeId; 2]> = set
            .iter()
            .map(|&i| {
                let r = self.instance.request(i);
                [r.sender, r.receiver]
            })
            .collect();
        let zero: f64 = std::iter::empty::<f64>().sum();
        // `heard[a][x]`: the interference at endpoint `x` (sender, receiver)
        // of the request at position `a`.
        let mut heard = vec![[zero; 2]; set.len()];
        for a in 0..set.len() {
            for b in a + 1..set.len() {
                let (i, j) = (set[a], set[b]);
                if i == j {
                    continue;
                }
                // `at_i[x][y]`: the loss from endpoint `y` of `j` to endpoint
                // `x` of `i`; `at_j[y][x]` the other way round.
                let mut at_i = [[0.0; 2]; 2];
                let mut at_j = [[0.0; 2]; 2];
                for x in 0..2 {
                    for y in 0..2 {
                        let to_i = metric.distance(ends[b][y], ends[a][x]);
                        let to_j = metric.distance(ends[a][x], ends[b][y]);
                        at_i[x][y] = self.params.loss(to_i);
                        at_j[y][x] = if to_j.to_bits() == to_i.to_bits() {
                            at_i[x][y]
                        } else {
                            self.params.loss(to_j)
                        };
                    }
                }
                for x in 0..2 {
                    heard[a][x] += self
                        .params
                        .received_strength(self.powers[j], at_i[x][0].min(at_i[x][1]));
                    heard[b][x] += self
                        .params
                        .received_strength(self.powers[i], at_j[x][0].min(at_j[x][1]));
                }
            }
        }
        set.iter()
            .zip(&heard)
            .map(|(&i, &[sender, receiver])| self.sinr_from(i, sender.max(receiver)))
            .collect()
    }

    /// Checks whether `set` can be scheduled simultaneously at gain `gain`.
    pub fn is_feasible_with_gain(&self, variant: Variant, set: &[usize], gain: f64) -> bool {
        set.iter()
            .all(|&i| self.sinr(variant, i, set) >= gain * (1.0 - REL_TOL))
    }

    /// Checks whether `set` can be scheduled simultaneously at the model gain
    /// `β`.
    pub fn is_feasible(&self, variant: Variant, set: &[usize]) -> bool {
        self.is_feasible_with_gain(variant, set, self.params.beta())
    }

    /// The largest gain at which `set` is simultaneously feasible.
    pub fn max_feasible_gain(&self, variant: Variant, set: &[usize]) -> f64 {
        set.iter()
            .map(|&i| self.sinr(variant, i, set))
            .fold(f64::INFINITY, f64::min)
    }

    /// A view of this evaluator for one fixed variant, implementing
    /// [`InterferenceSystem`].
    pub fn view(&self, variant: Variant) -> VariantView<'_, 'a, M> {
        VariantView {
            evaluator: self,
            variant,
        }
    }
}

/// An [`Evaluator`] restricted to one problem variant, usable wherever an
/// [`InterferenceSystem`] is expected.
#[derive(Debug, Clone, Copy)]
pub struct VariantView<'e, 'a, M> {
    evaluator: &'e Evaluator<'a, M>,
    variant: Variant,
}

impl<'e, 'a, M: MetricSpace> VariantView<'e, 'a, M> {
    /// The variant of this view.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &'e Evaluator<'a, M> {
        self.evaluator
    }
}

impl<'e, 'a, M: MetricSpace> InterferenceSystem for VariantView<'e, 'a, M> {
    fn len(&self) -> usize {
        self.evaluator.len()
    }

    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        self.evaluator.sinr(self.variant, i, others)
    }

    /// One pass over the unordered pairs of `set` in the bidirectional
    /// variant, where a pair's two directed contributions share the losses
    /// of its four endpoint pairs; the per-member loop in the directed one,
    /// where they share none.
    fn member_sinrs(&self, set: &[usize]) -> Vec<f64> {
        match self.variant {
            Variant::Directed => set.iter().map(|&i| self.sinr(i, set)).collect(),
            Variant::Bidirectional => self.evaluator.bidirectional_sinrs(set),
        }
    }

    fn beta(&self) -> f64 {
        self.evaluator.params().beta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{ObliviousPower, PowerVec};
    use crate::request::Request;
    use oblisched_metric::LineMetric;

    /// Two unit-length requests separated by a configurable gap.
    fn two_links(gap: f64) -> Instance<LineMetric> {
        let metric = LineMetric::new(vec![0.0, 1.0, 1.0 + gap, 2.0 + gap]);
        Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)]).unwrap()
    }

    #[test]
    fn single_request_has_infinite_sinr_without_noise() {
        let inst = two_links(10.0);
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        assert_eq!(eval.sinr(Variant::Directed, 0, &[0]), f64::INFINITY);
        assert!(eval.is_feasible(Variant::Directed, &[0]));
        assert!(eval.is_feasible(Variant::Bidirectional, &[1]));
    }

    #[test]
    fn directed_interference_matches_hand_computation() {
        // Nodes at 0, 1, 11, 12; unit powers, alpha = 2.
        let inst = two_links(10.0);
        let eval = inst.evaluator(SinrParams::new(2.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // Interference at receiver of request 0 (node at 1.0) from sender of
        // request 1 (node at 11.0): 1 / 10^2.
        let i0 = eval.interference(Variant::Directed, 0, &[0, 1]);
        assert!((i0 - 0.01).abs() < 1e-12);
        // Signal of request 0 is 1 / 1^2 = 1, so SINR is 100.
        assert!((eval.sinr(Variant::Directed, 0, &[0, 1]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bidirectional_interference_uses_closest_endpoint() {
        let inst = two_links(10.0);
        let eval = inst.evaluator(SinrParams::new(2.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // For request 0 the worst endpoint is the one at coordinate 1.0; the
        // closest endpoint of request 1 is at 11.0, so interference 1/100.
        let i0 = eval.interference(Variant::Bidirectional, 0, &[0, 1]);
        assert!((i0 - 0.01).abs() < 1e-12);
        // For request 1 the worst endpoint is at 11.0 and the closest endpoint
        // of request 0 is at 1.0 — same value by symmetry of this layout.
        let i1 = eval.interference(Variant::Bidirectional, 1, &[0, 1]);
        assert!((i1 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bidirectional_is_never_easier_than_directed_on_these_instances() {
        let inst = two_links(3.0);
        let eval = inst.evaluator(
            SinrParams::new(3.0, 1.0).unwrap(),
            &ObliviousPower::SquareRoot,
        );
        for i in 0..2 {
            assert!(
                eval.interference(Variant::Bidirectional, i, &[0, 1])
                    >= eval.interference(Variant::Directed, i, &[0, 1]) - 1e-15
            );
        }
    }

    #[test]
    fn close_links_with_uniform_power_are_infeasible() {
        // Gap much smaller than the link length: mutual interference kills both.
        let metric = LineMetric::new(vec![0.0, 10.0, 10.5, 20.5]);
        let inst = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)]).unwrap();
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        assert!(!eval.is_feasible(Variant::Directed, &[0, 1]));
        assert!(!eval.is_feasible(Variant::Bidirectional, &[0, 1]));
    }

    #[test]
    fn noise_reduces_sinr() {
        let inst = two_links(10.0);
        let quiet = inst.evaluator(SinrParams::new(2.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        let noisy = inst.evaluator(
            SinrParams::with_noise(2.0, 1.0, 0.5).unwrap(),
            &ObliviousPower::Uniform,
        );
        assert!(
            noisy.sinr(Variant::Directed, 0, &[0, 1]) < quiet.sinr(Variant::Directed, 0, &[0, 1])
        );
        // With heavy noise even a single request can be infeasible.
        let very_noisy = inst.evaluator(
            SinrParams::with_noise(2.0, 1.0, 10.0).unwrap(),
            &ObliviousPower::Uniform,
        );
        assert!(!very_noisy.is_feasible(Variant::Directed, &[0]));
    }

    #[test]
    fn with_powers_validates_input() {
        let inst = two_links(5.0);
        let params = SinrParams::default();
        assert!(matches!(
            Evaluator::with_powers(&inst, params, vec![1.0]),
            Err(SinrError::PowerLengthMismatch { .. })
        ));
        assert!(matches!(
            Evaluator::with_powers(&inst, params, vec![1.0, 0.0]),
            Err(SinrError::InvalidPower { index: 1, .. })
        ));
        let eval = Evaluator::with_powers(&inst, params, vec![2.0, 3.0]).unwrap();
        assert_eq!(eval.power(0), 2.0);
        assert_eq!(eval.powers(), &[2.0, 3.0]);
    }

    #[test]
    fn signal_and_loss_accessors() {
        let inst = two_links(5.0);
        let eval = inst.evaluator(SinrParams::new(2.0, 1.0).unwrap(), &ObliviousPower::Linear);
        // Linear power equals the loss, so the signal is exactly 1.
        assert_eq!(eval.loss(0), 1.0);
        assert!((eval.signal(0) - 1.0).abs() < 1e-12);
        assert_eq!(eval.len(), 2);
        assert!(!eval.is_empty());
        assert_eq!(eval.params().alpha(), 2.0);
        assert_eq!(eval.instance().len(), 2);
    }

    #[test]
    fn interference_at_node_sums_contributions() {
        let inst = two_links(10.0);
        let eval = inst.evaluator(SinrParams::new(2.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // Node 0 (coordinate 0.0); request 1 endpoints at 11 and 12, so the
        // closest is 11 and the contribution is 1/121.
        let i = eval.interference_at_node(0, &[1]);
        assert!((i - 1.0 / 121.0).abs() < 1e-12);
        // Contribution of request 0 at its own endpoint is infinite.
        assert_eq!(eval.interference_at_node(0, &[0]), f64::INFINITY);
    }

    #[test]
    fn max_feasible_gain_is_min_sinr() {
        let inst = two_links(4.0);
        let eval = inst.evaluator(
            SinrParams::new(3.0, 1.0).unwrap(),
            &ObliviousPower::SquareRoot,
        );
        let set = [0, 1];
        let g = eval.max_feasible_gain(Variant::Bidirectional, &set);
        let min_sinr = set
            .iter()
            .map(|&i| eval.sinr(Variant::Bidirectional, i, &set))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(g, min_sinr);
        assert!(eval.is_feasible_with_gain(Variant::Bidirectional, &set, g * 0.999));
        assert!(!eval.is_feasible_with_gain(Variant::Bidirectional, &set, g * 1.001));
    }

    #[test]
    fn max_feasible_gain_edge_cases() {
        let inst = two_links(5.0);
        // Empty set: vacuously feasible at every gain.
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        assert_eq!(
            eval.max_feasible_gain(Variant::Directed, &[]),
            f64::INFINITY
        );
        assert_eq!(
            eval.view(Variant::Bidirectional).max_feasible_gain(&[]),
            f64::INFINITY
        );
        // Noise-free singleton: infinite.
        assert_eq!(
            eval.max_feasible_gain(Variant::Directed, &[0]),
            f64::INFINITY
        );
        // Noisy singleton: exactly signal / noise.
        let noisy = inst.evaluator(
            SinrParams::with_noise(2.0, 1.0, 0.25).unwrap(),
            &ObliviousPower::Uniform,
        );
        let g = noisy.max_feasible_gain(Variant::Directed, &[0]);
        assert_eq!(g, noisy.signal(0) / 0.25);
    }

    #[test]
    fn variant_view_implements_interference_system() {
        let inst = two_links(10.0);
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.beta(), 1.0);
        assert_eq!(view.variant(), Variant::Directed);
        assert!(view.is_feasible(&[0, 1]));
        assert_eq!(
            view.sinr(0, &[0, 1]),
            eval.sinr(Variant::Directed, 0, &[0, 1])
        );
        assert_eq!(view.evaluator().len(), 2);
    }

    #[test]
    fn explicit_powers_can_fix_an_infeasible_pair() {
        // Nested configuration: a long link containing a short link. Uniform
        // power starves the long link; boosting it with explicit powers fixes
        // the directed variant.
        let metric = LineMetric::new(vec![0.0, 100.0, 45.0, 55.0]);
        let inst = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)]).unwrap();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let uniform = inst.evaluator(params, &ObliviousPower::Uniform);
        assert!(!uniform.is_feasible(Variant::Directed, &[0, 1]));
        let boosted = inst.evaluator(params, &PowerVec::new(vec![100.0, 1.0]).unwrap());
        assert!(boosted.is_feasible(Variant::Directed, &[0, 1]));
    }

    #[test]
    fn variant_display_and_all() {
        assert_eq!(Variant::Directed.to_string(), "directed");
        assert_eq!(Variant::Bidirectional.to_string(), "bidirectional");
        assert_eq!(Variant::all().len(), 2);
    }
}
