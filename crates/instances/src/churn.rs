//! Churn workloads: seed-pinned arrival/departure traces over the scaling
//! deployments.
//!
//! A churn workload is a fixed *universe* instance (one of the
//! density-normalised [`scale`](crate::scale) families) plus a deterministic
//! event trace toggling which universe requests are live. The trace is the
//! input of the dynamic scheduler (`oblisched::dynamic`): arrivals insert a
//! universe request, departures remove a live one, and the live count hovers
//! around a configurable target after a pure-arrival ramp-up.
//!
//! Determinism is load-bearing, exactly as for the scaling families: the
//! same `(n, target_live, num_events, seed)` always produces the same
//! universe *and* the same trace, which is what lets experiment E10
//! compare incremental maintenance against full reschedules on identical
//! event sequences.

use crate::scale::{scaling_clustered, scaling_uniform, LARGE_SCALE_SIZES};
use oblisched_metric::EuclideanSpace;
use oblisched_sinr::Instance;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One churn event over a universe instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// The universe request with this index becomes live.
    Arrive(usize),
    /// The universe request with this index departs (it is always live at
    /// this point of the trace).
    Depart(usize),
}

/// A deterministic arrival/departure trace over a universe of `universe`
/// requests. Every `Arrive(i)` targets a currently-dead request and every
/// `Depart(i)` a currently-live one, so the trace can be replayed without
/// bookkeeping errors by construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Number of requests in the universe instance.
    pub universe: usize,
    /// The events, in order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest number of simultaneously live requests over the replay
    /// (and, as a by-product, a consistency check of the trace).
    ///
    /// # Panics
    ///
    /// Panics if the trace is inconsistent (arrival of a live request or
    /// departure of a dead one) — impossible for generator-produced traces.
    pub fn max_live(&self) -> usize {
        let mut live = vec![false; self.universe];
        let mut count = 0usize;
        let mut max = 0usize;
        for event in &self.events {
            match *event {
                ChurnEvent::Arrive(i) => {
                    assert!(!live[i], "arrival of already-live request {i}");
                    live[i] = true;
                    count += 1;
                    max = max.max(count);
                }
                ChurnEvent::Depart(i) => {
                    assert!(live[i], "departure of dead request {i}");
                    live[i] = false;
                    count -= 1;
                }
            }
        }
        max
    }

    /// The requests live after the full replay, in increasing index order.
    pub fn final_live(&self) -> Vec<usize> {
        let mut live = vec![false; self.universe];
        for event in &self.events {
            match *event {
                ChurnEvent::Arrive(i) => live[i] = true,
                ChurnEvent::Depart(i) => live[i] = false,
            }
        }
        (0..self.universe).filter(|&i| live[i]).collect()
    }

    /// Renders the trace as JSONL: a `{"universe":N}` header line followed
    /// by one event object per line (`{"Arrive":5}` / `{"Depart":5}`) — the
    /// interchange format of the server load generator's `--export-trace`.
    ///
    /// # Errors
    ///
    /// Serialization failures (none for well-formed traces).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = serde_json::to_string(&TraceHeader {
            universe: self.universe,
        })?;
        out.push('\n');
        for event in &self.events {
            out.push_str(&serde_json::to_string(event)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a trace from the [`to_jsonl`](ChurnTrace::to_jsonl) format
    /// (blank lines and `#` comments skipped) and verifies its consistency:
    /// indices in range, arrivals of dead requests, departures of live ones.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or inconsistent line.
    pub fn from_jsonl(input: &str) -> Result<ChurnTrace, String> {
        let mut lines = input
            .lines()
            .enumerate()
            .map(|(i, line)| (i + 1, line.trim()))
            .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'));
        let Some((header_no, header)) = lines.next() else {
            return Err(String::from("empty trace: missing {\"universe\":N} header"));
        };
        let header: TraceHeader = serde_json::from_str(header)
            .map_err(|e| format!("line {header_no}: bad trace header: {e}"))?;
        let mut events = Vec::new();
        let mut live = vec![false; header.universe];
        for (line_no, line) in lines {
            let event: ChurnEvent = serde_json::from_str(line)
                .map_err(|e| format!("line {line_no}: bad churn event: {e}"))?;
            let (index, arriving) = match event {
                ChurnEvent::Arrive(i) => (i, true),
                ChurnEvent::Depart(i) => (i, false),
            };
            if index >= header.universe {
                return Err(format!(
                    "line {line_no}: request {index} outside universe {}",
                    header.universe
                ));
            }
            if live[index] == arriving {
                return Err(format!(
                    "line {line_no}: {} of {} request {index}",
                    if arriving { "arrival" } else { "departure" },
                    if live[index] { "live" } else { "dead" },
                ));
            }
            live[index] = arriving;
            events.push(event);
        }
        Ok(ChurnTrace {
            universe: header.universe,
            events,
        })
    }
}

/// The header line of the JSONL trace format.
#[derive(Serialize, Deserialize)]
struct TraceHeader {
    universe: usize,
}

/// Generates a churn trace over a universe of `universe` requests: a pure
/// arrival ramp-up to `target_live`, then a mixed phase whose
/// arrival/departure mix nudges the live count back toward the target
/// (probability 0.7 of arriving below target, 0.3 above).
fn churn_trace(
    universe: usize,
    target_live: usize,
    num_events: usize,
    rng: &mut ChaCha8Rng,
) -> ChurnTrace {
    assert!(
        universe > 0,
        "the universe must contain at least one request"
    );
    assert!(
        target_live <= universe,
        "target live count {target_live} exceeds the universe size {universe}"
    );
    // Swap-remove index pools keep both draws O(1).
    let mut dead: Vec<usize> = (0..universe).collect();
    let mut live: Vec<usize> = Vec::with_capacity(target_live.max(1));
    let mut events = Vec::with_capacity(num_events);
    while events.len() < num_events {
        let ramping = live.len() < target_live && events.len() < target_live;
        let arrive = if live.is_empty() || ramping {
            true
        } else if dead.is_empty() {
            false
        } else {
            let p_arrive = if live.len() < target_live { 0.7 } else { 0.3 };
            rng.gen_range(0.0f64..1.0) < p_arrive
        };
        if arrive {
            let pick = rng.gen_range(0..dead.len());
            let item = dead.swap_remove(pick);
            live.push(item);
            events.push(ChurnEvent::Arrive(item));
        } else {
            let pick = rng.gen_range(0..live.len());
            let item = live.swap_remove(pick);
            dead.push(item);
            events.push(ChurnEvent::Depart(item));
        }
    }
    ChurnTrace { universe, events }
}

/// A seed-pinned churn trace alone, without building a universe instance —
/// the trace half of [`churn_uniform`] decoupled from the deployment, for
/// callers that replay a trace over an instance they already have (e.g. a
/// durable session over a family-built instance). The same
/// `(universe, target_live, num_events, seed)` always produces the same
/// trace.
///
/// # Panics
///
/// Panics if `universe == 0` or `target_live > universe`.
pub fn churn_trace_for(
    universe: usize,
    target_live: usize,
    num_events: usize,
    seed: u64,
) -> ChurnTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD2C6_F00D);
    churn_trace(universe, target_live, num_events, &mut rng)
}

/// A seed-pinned churn workload over the uniform scaling deployment
/// [`scaling_uniform`]: the universe instance plus an arrival/departure
/// trace of `num_events` events hovering around `target_live` live requests
/// after the ramp-up.
///
/// # Panics
///
/// Panics if `n == 0` or `target_live > n`.
///
/// # Example
///
/// ```
/// use oblisched_instances::churn_uniform;
///
/// let (instance, trace) = churn_uniform(200, 120, 400, 7);
/// assert_eq!(instance.len(), 200);
/// assert_eq!(trace.len(), 400);
/// assert!(trace.max_live() >= 120);
/// // Seed-pinned: the same arguments reproduce the same workload.
/// let (again, trace_again) = churn_uniform(200, 120, 400, 7);
/// assert_eq!(instance, again);
/// assert_eq!(trace, trace_again);
/// ```
pub fn churn_uniform(
    n: usize,
    target_live: usize,
    num_events: usize,
    seed: u64,
) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let instance = scaling_uniform(n, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0A1_E5CE);
    let trace = churn_trace(n, target_live, num_events, &mut rng);
    (instance, trace)
}

/// A seed-pinned churn workload over the clustered scaling deployment
/// [`scaling_clustered`], with the same trace conventions as
/// [`churn_uniform`]. The locally dense hot spots are where the square-root
/// assignment separates from uniform and linear under churn.
///
/// # Panics
///
/// Panics if `n == 0` or `target_live > n`.
pub fn churn_clustered(
    n: usize,
    target_live: usize,
    num_events: usize,
    seed: u64,
) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let instance = scaling_clustered(n, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1B5_7E2D);
    let trace = churn_trace(n, target_live, num_events, &mut rng);
    (instance, trace)
}

/// The churn shape of the large-tier workloads for a universe of `n`
/// requests: the live target is `n / 4` (a quarter of the universe live
/// after the ramp-up — enough pressure that color classes stay large, with
/// plenty of dead requests to draw arrivals from), capped at 8000 on the
/// extreme tier so replay work (which scales with `events × live`) stays
/// bounded while the universe — and hence the grid, the cutoffs and the
/// dense-infeasibility of the instance — keeps growing. The event count is
/// `2 · target`: the ramp-up plus an equal stretch of mixed
/// arrivals/departures.
pub fn large_churn_shape(n: usize) -> (usize, usize) {
    let target = (n / 4).min(8_000);
    (target, 2 * target)
}

/// The uniform churn workload at the large tier (`n = 10⁴`, see
/// [`LARGE_SCALE_SIZES`]) with the [`large_churn_shape`] trace — the E10
/// family that needs the churn-capable sparse backend (the dense matrix
/// would take 1.6 GB).
pub fn churn_uniform_10k(seed: u64) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let n = LARGE_SCALE_SIZES[0];
    let (target, events) = large_churn_shape(n);
    churn_uniform(n, target, events, seed)
}

/// The uniform churn workload at the extreme tier (`n = 5·10⁴`) with the
/// [`large_churn_shape`] trace.
pub fn churn_uniform_50k(seed: u64) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let n = LARGE_SCALE_SIZES[1];
    let (target, events) = large_churn_shape(n);
    churn_uniform(n, target, events, seed)
}

/// The clustered churn workload at the large tier (`n = 10⁴`, `n/256` hot
/// spots) with the [`large_churn_shape`] trace.
pub fn churn_clustered_10k(seed: u64) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let n = LARGE_SCALE_SIZES[0];
    let (target, events) = large_churn_shape(n);
    churn_clustered(n, target, events, seed)
}

/// The clustered churn workload at the extreme tier (`n = 5·10⁴`) with the
/// [`large_churn_shape`] trace.
pub fn churn_clustered_50k(seed: u64) -> (Instance<EuclideanSpace<2>>, ChurnTrace) {
    let n = LARGE_SCALE_SIZES[1];
    let (target, events) = large_churn_shape(n);
    churn_clustered(n, target, events, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seed_pinned() {
        let (a_inst, a_trace) = churn_uniform(50, 30, 200, 3);
        let (b_inst, b_trace) = churn_uniform(50, 30, 200, 3);
        assert_eq!(a_inst, b_inst);
        assert_eq!(a_trace, b_trace);
        let (_, c_trace) = churn_uniform(50, 30, 200, 4);
        assert_ne!(a_trace, c_trace);
        let (d_inst, d_trace) = churn_clustered(50, 30, 200, 3);
        assert_eq!(d_trace, churn_clustered(50, 30, 200, 3).1);
        assert_eq!(d_inst.len(), 50);
    }

    #[test]
    fn traces_are_replayable_and_hover_near_the_target() {
        let (_, trace) = churn_uniform(100, 60, 500, 9);
        assert_eq!(trace.len(), 500);
        // max_live also validates arrive-dead / depart-live consistency.
        let max = trace.max_live();
        assert!(max >= 60, "ramp-up must reach the target, got {max}");
        assert!(max <= 100);
        // The ramp-up is pure arrivals.
        assert!(trace.events[..60]
            .iter()
            .all(|e| matches!(e, ChurnEvent::Arrive(_))));
        // The mixed phase contains genuine departures.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, ChurnEvent::Depart(_))));
        let live = trace.final_live();
        assert!(!live.is_empty());
        assert!(live.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_universe_target_drains_the_dead_pool() {
        // target == universe: once everything is live only departures remain
        // possible, and the generator must not get stuck.
        let (_, trace) = churn_uniform(20, 20, 100, 1);
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.max_live(), 20);
    }

    #[test]
    #[should_panic(expected = "exceeds the universe")]
    fn oversized_target_is_rejected() {
        let _ = churn_uniform(10, 11, 50, 1);
    }

    #[test]
    fn standalone_traces_are_seed_pinned_and_consistent() {
        let a = churn_trace_for(40, 25, 120, 6);
        let b = churn_trace_for(40, 25, 120, 6);
        assert_eq!(a, b);
        assert_ne!(a, churn_trace_for(40, 25, 120, 7));
        assert_eq!(a.len(), 120);
        assert!(a.max_live() >= 25);
    }

    #[test]
    fn traces_round_trip_through_json() {
        let trace = churn_trace_for(20, 12, 60, 3);
        let json = serde_json::to_string(&trace).unwrap();
        let back: ChurnTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        // Events serialize as tagged variants a hand-written line can spell.
        let event: ChurnEvent = serde_json::from_str("{\"Arrive\":5}").unwrap();
        assert_eq!(event, ChurnEvent::Arrive(5));
    }

    #[test]
    fn jsonl_round_trips_and_rejects_inconsistent_traces() {
        let trace = churn_trace_for(40, 15, 80, 11);
        let rendered = trace.to_jsonl().unwrap();
        assert!(rendered.starts_with("{\"universe\":40}\n"));
        let back = ChurnTrace::from_jsonl(&rendered).unwrap();
        assert_eq!(back, trace);

        // Comments and blank lines are tolerated.
        let commented = format!("# a trace\n\n{rendered}");
        assert_eq!(ChurnTrace::from_jsonl(&commented).unwrap(), trace);

        // Inconsistencies are rejected with the offending line.
        for (input, needle) in [
            ("", "missing"),
            ("{\"universe\":2}\n{\"Depart\":0}\n", "departure of dead"),
            (
                "{\"universe\":2}\n{\"Arrive\":0}\n{\"Arrive\":0}\n",
                "arrival of live",
            ),
            ("{\"universe\":2}\n{\"Arrive\":7}\n", "outside universe"),
            ("{\"universe\":2}\nnot json\n", "bad churn event"),
        ] {
            let err = ChurnTrace::from_jsonl(input).unwrap_err();
            assert!(err.contains(needle), "{input:?} -> {err}");
        }
    }
}
