//! Error types for traffic-pattern construction.

use core::fmt;
use noc_topology::NodeId;

/// Error returned when a traffic pattern cannot be constructed.
// `Eq` is omitted: `InvalidRate` carries an `f64`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrafficError {
    /// A hot-spot target is outside the node range.
    TargetOutOfRange {
        /// The offending target.
        target: NodeId,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// The two hot-spot targets coincide.
    DuplicateTargets {
        /// The duplicated target.
        target: NodeId,
    },
    /// The pattern needs at least this many nodes.
    TooFewNodes {
        /// Number of nodes requested.
        requested: usize,
        /// Minimum required.
        minimum: usize,
    },
    /// An injection rate was negative, NaN, or otherwise unusable.
    InvalidRate {
        /// The offending rate in flits/cycle.
        rate: f64,
    },
    /// A trace entry names a source or destination outside the node
    /// range.
    TraceEndpointOutOfRange {
        /// Index of the offending entry in the given entry list.
        entry: usize,
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// A trace entry sends a packet to its own source.
    TraceSelfAddressed {
        /// Index of the offending entry in the given entry list.
        entry: usize,
        /// The node that is both source and destination.
        node: NodeId,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficError::TargetOutOfRange { target, num_nodes } => {
                write!(
                    f,
                    "hot-spot target {target} out of range for {num_nodes} nodes"
                )
            }
            TrafficError::DuplicateTargets { target } => {
                write!(f, "hot-spot targets must differ, both are {target}")
            }
            TrafficError::TooFewNodes { requested, minimum } => {
                write!(
                    f,
                    "pattern requires at least {minimum} nodes, got {requested}"
                )
            }
            TrafficError::InvalidRate { rate } => {
                write!(
                    f,
                    "injection rate must be finite and non-negative, got {rate}"
                )
            }
            TrafficError::TraceEndpointOutOfRange {
                entry,
                node,
                num_nodes,
            } => {
                write!(
                    f,
                    "trace entry {entry}: endpoint {node} out of range for {num_nodes} nodes"
                )
            }
            TrafficError::TraceSelfAddressed { entry, node } => {
                write!(
                    f,
                    "trace entry {entry}: source and destination are both {node}"
                )
            }
        }
    }
}

impl std::error::Error for TrafficError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = TrafficError::TargetOutOfRange {
            target: NodeId::new(9),
            num_nodes: 8,
        };
        assert!(e.to_string().contains("n9"));
        let e = TrafficError::InvalidRate { rate: f64::NAN };
        assert!(e.to_string().contains("NaN"));
        let e = TrafficError::TraceEndpointOutOfRange {
            entry: 3,
            node: NodeId::new(9),
            num_nodes: 8,
        };
        assert_eq!(
            e.to_string(),
            "trace entry 3: endpoint n9 out of range for 8 nodes"
        );
        let e = TrafficError::TraceSelfAddressed {
            entry: 0,
            node: NodeId::new(2),
        };
        assert_eq!(
            e.to_string(),
            "trace entry 0: source and destination are both n2"
        );
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TrafficError>();
    }
}
