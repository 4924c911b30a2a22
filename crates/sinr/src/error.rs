//! Error types for the SINR model.

use std::fmt;

/// Errors produced when constructing instances, power assignments or
/// schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum SinrError {
    /// A model or engine parameter is outside its legal range: the
    /// path-loss exponent, gain or noise value, or the sparse tiers' cutoff
    /// fraction ([`SparseConfig::validate`](crate::SparseConfig::validate)).
    InvalidParams {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A request references a node that does not exist in the metric.
    NodeOutOfRange {
        /// Index of the offending request.
        request: usize,
        /// The offending node id.
        node: usize,
        /// Number of nodes in the metric.
        len: usize,
    },
    /// A request has sender equal to receiver or the two endpoints coincide
    /// (distance zero), which makes the SINR undefined.
    DegenerateRequest {
        /// Index of the offending request.
        request: usize,
    },
    /// A power vector does not match the number of requests.
    PowerLengthMismatch {
        /// Number of requests in the instance.
        expected: usize,
        /// Number of powers provided.
        actual: usize,
    },
    /// A power value is not a positive finite number.
    InvalidPower {
        /// Index of the offending request/node.
        index: usize,
        /// The offending power value.
        value: f64,
    },
    /// A loss parameter of the node-loss problem is not a positive finite
    /// number.
    InvalidLoss {
        /// Index of the offending node.
        index: usize,
        /// The offending loss value.
        value: f64,
    },
    /// A coloring does not match the number of requests.
    ColoringLengthMismatch {
        /// Number of requests in the instance.
        expected: usize,
        /// Number of colors provided.
        actual: usize,
    },
    /// A color class of a schedule violates the SINR constraints.
    InfeasibleColorClass {
        /// The violating color.
        color: usize,
        /// A request in the class whose constraint is violated.
        request: usize,
    },
    /// The number of losses does not match the metric size in a node-loss
    /// instance.
    LossLengthMismatch {
        /// Number of nodes in the metric.
        expected: usize,
        /// Number of losses provided.
        actual: usize,
    },
    /// A node selection (e.g. a restriction of a node-loss instance)
    /// references a node outside the metric.
    SelectionOutOfRange {
        /// Position of the offending entry in the selection.
        index: usize,
        /// The offending node id.
        node: usize,
        /// Number of nodes in the metric.
        len: usize,
    },
}

impl fmt::Display for SinrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinrError::InvalidParams { reason } => write!(f, "invalid SINR parameters: {reason}"),
            SinrError::NodeOutOfRange { request, node, len } => write!(
                f,
                "request {request} references node {node} but the metric has only {len} nodes"
            ),
            SinrError::DegenerateRequest { request } => {
                write!(
                    f,
                    "request {request} is degenerate (zero distance between endpoints)"
                )
            }
            SinrError::PowerLengthMismatch { expected, actual } => {
                write!(f, "expected {expected} power values, got {actual}")
            }
            SinrError::InvalidPower { index, value } => {
                write!(
                    f,
                    "power value {value} at index {index} is not positive and finite"
                )
            }
            SinrError::InvalidLoss { index, value } => {
                write!(
                    f,
                    "loss parameter {value} at index {index} is not positive and finite"
                )
            }
            SinrError::ColoringLengthMismatch { expected, actual } => {
                write!(f, "expected {expected} colors, got {actual}")
            }
            SinrError::InfeasibleColorClass { color, request } => {
                write!(
                    f,
                    "color class {color} violates the SINR constraint of request {request}"
                )
            }
            SinrError::LossLengthMismatch { expected, actual } => {
                write!(f, "expected {expected} loss parameters, got {actual}")
            }
            SinrError::SelectionOutOfRange { index, node, len } => write!(
                f,
                "selection entry {index} references node {node} but the metric has only {len} \
                 nodes"
            ),
        }
    }
}

impl std::error::Error for SinrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = SinrError::InvalidParams {
            reason: "alpha < 1".into(),
        };
        assert!(e.to_string().contains("alpha < 1"));
        let e = SinrError::NodeOutOfRange {
            request: 3,
            node: 10,
            len: 4,
        };
        assert!(e.to_string().contains("request 3"));
        let e = SinrError::DegenerateRequest { request: 1 };
        assert!(e.to_string().contains("degenerate"));
        let e = SinrError::PowerLengthMismatch {
            expected: 5,
            actual: 4,
        };
        assert!(e.to_string().contains("5"));
        let e = SinrError::InvalidPower {
            index: 2,
            value: -1.0,
        };
        assert!(e.to_string().contains("-1"));
        let e = SinrError::InvalidLoss {
            index: 2,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("index 2"));
        let e = SinrError::ColoringLengthMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("colors"));
        let e = SinrError::InfeasibleColorClass {
            color: 0,
            request: 7,
        };
        assert!(e.to_string().contains("request 7"));
        let e = SinrError::LossLengthMismatch {
            expected: 3,
            actual: 1,
        };
        assert!(e.to_string().contains("loss"));
        let e = SinrError::SelectionOutOfRange {
            index: 1,
            node: 9,
            len: 4,
        };
        assert!(e.to_string().contains("node 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<SinrError>();
    }
}
