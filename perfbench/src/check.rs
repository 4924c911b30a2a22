//! The failure tally behind `attempted` / `failed`.
//!
//! Every request sent is one attempted op. It fails on a typed error, a
//! socket error, an answer of the wrong shape, or an answer that disagrees
//! with the in-process reference: a fingerprint, a certification, an id or
//! a color count.

/// Attempted and failed ops, with the first few failure descriptions.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 12;

impl Tally {
    /// Counts one op; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Counts an op whose answer is compared with the reference.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.op(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Failed over attempted ops.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The negative control: a deliberately wrong expected fingerprint goes
/// through the same comparison as the real ones and must make the fail
/// ratio of its tally 1. Returns whether it did.
pub fn negative_control() -> bool {
    let fingerprint = 0x5eed_u64;
    let mut control = Tally::default();
    control.expect_eq("control fingerprint", fingerprint, fingerprint ^ 1);
    control.fail_ratio() == 1.0
}
