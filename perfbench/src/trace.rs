//! The benchmark's clock, its in-memory span recorder and the small
//! statistics every report uses.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span carries its name, start, end, parent span and op id, and the
//! whole list is written out once the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Nanoseconds since the first call: the only clock the benchmark reads.
pub fn now_ns() -> u64 {
    // oblint::allow(wall-clock-in-core): the benchmark exists to measure time.
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    // oblint::allow(wall-clock-in-core): same clock origin as above.
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 * 1e-9
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `durability.append`.
    pub name: &'static str,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to; every depth replays the same op ids.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list with an open-span stack for parent links.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A tracer shared between the benchmark loop and the timing wrappers it
/// hands to a layer (the store wrapper records child spans of the op).
pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh shared tracer.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Tracer::default()))
    }

    /// Opens a span; `op` defaults to the enclosing span's op.
    pub fn enter(&mut self, name: &'static str, op: Option<u64>) -> usize {
        let parent = self.open.last().copied();
        let op = op.or_else(|| parent.map(|p| self.spans[p].op)).unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        self.spans[index].end_ns = now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }

    /// Moves every span out, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Runs `f` inside a span of the shared tracer.
pub fn span<T>(tracer: &Shared, name: &'static str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
    let index = tracer.borrow_mut().enter(name, op);
    let out = f();
    tracer.borrow_mut().exit(index);
    out
}

/// Renders spans as JSON lines: one object per span, start and end in
/// microseconds since the clock origin, the parent as a global index.
pub fn spans_jsonl(groups: &[(&str, Vec<Span>)]) -> String {
    let mut out = String::new();
    let mut base = 0usize;
    for (depth, spans) in groups {
        for span in spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| (base + p).to_string());
            let _ = writeln!(
                out,
                "{{\"depth\":\"{depth}\",\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"op\":{}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                span.op
            );
        }
        base += spans.len();
    }
    out
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; `0` when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The mean of the middle half of unsorted samples (the interquartile
/// mean); `0` when there are none.
pub fn middle_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
