//! Schedules (colorings) of request sets and their validation.

use crate::error::SinrError;
use crate::feasibility::{Evaluator, InterferenceSystem, Variant};
use oblisched_metric::MetricSpace;
use serde::{Deserialize, Serialize};

/// A schedule: an assignment of a color (time slot) to every request.
///
/// Colors are consecutive integers starting at 0; all requests with the same
/// color transmit simultaneously. The number of colors is the schedule length
/// the paper minimises.
///
/// # Example
///
/// ```
/// use oblisched_sinr::Schedule;
///
/// let schedule = Schedule::new(vec![0, 1, 0, 2]);
/// assert_eq!(schedule.num_colors(), 3);
/// assert_eq!(schedule.class(0), vec![0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    colors: Vec<usize>,
    num_colors: usize,
}

impl Schedule {
    /// Creates a schedule from per-request colors.
    ///
    /// Colors may be sparse; they are compacted so that the used colors are
    /// exactly `0..num_colors()`.
    pub fn new(colors: Vec<usize>) -> Self {
        let mut used: Vec<usize> = colors.clone();
        used.sort_unstable();
        used.dedup();
        let remap = |c: usize| {
            used.binary_search(&c)
                .expect("color present by construction")
        };
        let colors: Vec<usize> = colors.iter().map(|&c| remap(c)).collect();
        let num_colors = used.len();
        Self { colors, num_colors }
    }

    /// The schedule that gives every one of `n` requests its own color — the
    /// trivial `O(n)` upper bound mentioned in the abstract.
    pub fn sequential(n: usize) -> Self {
        Self {
            colors: (0..n).collect(),
            num_colors: n,
        }
    }

    /// Number of requests covered by the schedule.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if the schedule covers no requests.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of colors (time slots) used.
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// The color of request `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color_of(&self, i: usize) -> usize {
        self.colors[i]
    }

    /// The per-request colors.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// The requests assigned to color `c`.
    pub fn class(&self, c: usize) -> Vec<usize> {
        (0..self.colors.len())
            .filter(|&i| self.colors[i] == c)
            .collect()
    }

    /// All color classes, indexed by color.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (i, &c) in self.colors.iter().enumerate() {
            classes[c].push(i);
        }
        classes
    }

    /// Size of the largest color class.
    pub fn max_class_size(&self) -> usize {
        self.classes().iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Validates the schedule against an interference system: every color
    /// class must be simultaneously feasible at the system's gain.
    ///
    /// Each class's SINRs come from one
    /// [`member_sinrs`](InterferenceSystem::member_sinrs) call, so a
    /// bidirectional [`VariantView`](crate::feasibility::VariantView) checks a
    /// class in one pass over its unordered pairs; the verdict and the
    /// reported request are those of the per-member
    /// [`sinr`](InterferenceSystem::sinr) loop.
    ///
    /// # Errors
    ///
    /// * [`SinrError::ColoringLengthMismatch`] if the schedule does not cover
    ///   exactly the system's items.
    /// * [`SinrError::InfeasibleColorClass`] naming the first violating class
    ///   and, within it, the first violating request in index order.
    pub fn validate_against<S: InterferenceSystem>(&self, system: &S) -> Result<(), SinrError> {
        if self.colors.len() != system.len() {
            return Err(SinrError::ColoringLengthMismatch {
                expected: system.len(),
                actual: self.colors.len(),
            });
        }
        let threshold = system.beta() * (1.0 - crate::feasibility::REL_TOL);
        for (color, class) in self.classes().iter().enumerate() {
            let sinrs = system.member_sinrs(class);
            if let Some(k) = sinrs.iter().position(|&sinr| sinr < threshold) {
                return Err(SinrError::InfeasibleColorClass {
                    color,
                    request: class[k],
                });
            }
        }
        Ok(())
    }

    /// Validates the schedule for a pair instance in the given variant.
    ///
    /// # Errors
    ///
    /// See [`Schedule::validate_against`].
    pub fn validate<M: MetricSpace>(
        &self,
        evaluator: &Evaluator<'_, M>,
        variant: Variant,
    ) -> Result<(), SinrError> {
        self.validate_against(&evaluator.view(variant))
    }

    /// Merges another schedule for a disjoint set of requests onto new
    /// colors, returning the combined schedule over `self.len() +
    /// other.len()` requests (the first block keeps its colors, the second
    /// block is shifted).
    pub fn concat(&self, other: &Schedule) -> Schedule {
        let mut colors = self.colors.clone();
        colors.extend(other.colors.iter().map(|c| c + self.num_colors));
        Schedule {
            colors,
            num_colors: self.num_colors + other.num_colors,
        }
    }
}

impl FromIterator<usize> for Schedule {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Schedule::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SinrParams;
    use crate::power::ObliviousPower;
    use crate::request::{Instance, Request};
    use oblisched_metric::LineMetric;

    #[test]
    fn colors_are_compacted() {
        let s = Schedule::new(vec![5, 9, 5, 2]);
        assert_eq!(s.num_colors(), 3);
        assert_eq!(s.colors(), &[1, 2, 1, 0]);
        assert_eq!(s.color_of(3), 0);
    }

    #[test]
    fn classes_partition_the_requests() {
        let s = Schedule::new(vec![0, 1, 0, 2, 1]);
        assert_eq!(s.class(0), vec![0, 2]);
        assert_eq!(s.class(1), vec![1, 4]);
        assert_eq!(s.class(2), vec![3]);
        let classes = s.classes();
        assert_eq!(classes.len(), 3);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, s.len());
        assert_eq!(s.max_class_size(), 2);
    }

    #[test]
    fn sequential_schedule_uses_one_color_per_request() {
        let s = Schedule::sequential(4);
        assert_eq!(s.num_colors(), 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.max_class_size(), 1);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.num_colors(), 0);
        assert_eq!(s.max_class_size(), 0);
        assert_eq!(s.classes().len(), 0);
    }

    #[test]
    fn from_iterator_collects() {
        let s: Schedule = vec![1, 1, 3].into_iter().collect();
        assert_eq!(s.num_colors(), 2);
    }

    #[test]
    fn concat_shifts_second_block() {
        let a = Schedule::new(vec![0, 1]);
        let b = Schedule::new(vec![0, 0, 1]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.num_colors(), 4);
        assert_eq!(c.colors(), &[0, 1, 2, 2, 3]);
    }

    fn overlapping_instance() -> Instance<LineMetric> {
        // Two nested links that interfere heavily under uniform power, plus a
        // far-away third link.
        let metric = LineMetric::new(vec![0.0, 10.0, 4.0, 5.0, 1000.0, 1001.0]);
        Instance::new(
            metric,
            vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
        )
        .unwrap()
    }

    #[test]
    fn validate_accepts_sequential_schedule() {
        let inst = overlapping_instance();
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        let s = Schedule::sequential(3);
        assert!(s.validate(&eval, Variant::Directed).is_ok());
        assert!(s.validate(&eval, Variant::Bidirectional).is_ok());
    }

    #[test]
    fn validate_rejects_infeasible_class() {
        let inst = overlapping_instance();
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // Requests 0 and 1 are nested: scheduling them together under uniform
        // power violates the SINR constraint of the long link.
        let s = Schedule::new(vec![0, 0, 1]);
        let err = s.validate(&eval, Variant::Directed).unwrap_err();
        assert!(matches!(
            err,
            SinrError::InfeasibleColorClass { color: 0, .. }
        ));
    }

    #[test]
    fn validate_accepts_good_two_color_schedule() {
        let inst = overlapping_instance();
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // Separate the nested links; the far-away link can share with either.
        let s = Schedule::new(vec![0, 1, 0]);
        assert!(s.validate(&eval, Variant::Directed).is_ok());
    }

    #[test]
    fn validate_checks_length() {
        let inst = overlapping_instance();
        let eval = inst.evaluator(SinrParams::default(), &ObliviousPower::Uniform);
        let s = Schedule::new(vec![0, 1]);
        assert!(matches!(
            s.validate(&eval, Variant::Directed),
            Err(SinrError::ColoringLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }
}
