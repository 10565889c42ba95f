//! Error types for topology construction and queries.

use core::fmt;

/// Error returned when a topology cannot be constructed or a query is
/// given out-of-range arguments.
///
/// # Examples
///
/// ```
/// use noc_topology::{Ring, TopologyError};
///
/// let err = Ring::new(1).unwrap_err();
/// assert!(matches!(err, TopologyError::TooFewNodes { .. }));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// The requested node count is below the minimum for the family.
    TooFewNodes {
        /// Number of nodes requested.
        requested: usize,
        /// Minimum number of nodes supported by the family.
        minimum: usize,
    },
    /// Spidergon requires an even number of nodes (across links pair
    /// diametrically opposite nodes).
    OddNodeCount {
        /// Number of nodes requested.
        requested: usize,
    },
    /// A mesh dimension was zero.
    ZeroDimension,
    /// A node identifier was outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the topology.
        num_nodes: usize,
    },
    /// An irregular mesh was requested with more nodes than the grid can
    /// hold, or fewer nodes than one full row (which would disconnect
    /// the column structure).
    InvalidIrregularShape {
        /// Number of columns of the grid.
        cols: usize,
        /// Number of nodes requested.
        num_nodes: usize,
    },
    /// A `cols x rows` grid has more nodes than `usize` can count.
    NodeCountOverflow {
        /// Number of columns requested.
        cols: usize,
        /// Number of rows requested.
        rows: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::TooFewNodes { requested, minimum } => write!(
                f,
                "topology requires at least {minimum} nodes, got {requested}"
            ),
            TopologyError::OddNodeCount { requested } => {
                write!(f, "spidergon requires an even node count, got {requested}")
            }
            TopologyError::ZeroDimension => write!(f, "mesh dimensions must be nonzero"),
            TopologyError::NodeOutOfRange { node, num_nodes } => write!(
                f,
                "node index {node} out of range for topology with {num_nodes} nodes"
            ),
            TopologyError::InvalidIrregularShape { cols, num_nodes } => write!(
                f,
                "irregular mesh with {cols} columns cannot hold {num_nodes} nodes"
            ),
            TopologyError::NodeCountOverflow { cols, rows } => {
                write!(f, "a {cols}x{rows} grid has too many nodes to count")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: [(TopologyError, &str); 6] = [
            (
                TopologyError::TooFewNodes {
                    requested: 1,
                    minimum: 3,
                },
                "at least 3",
            ),
            (TopologyError::OddNodeCount { requested: 7 }, "even"),
            (TopologyError::ZeroDimension, "nonzero"),
            (
                TopologyError::NodeOutOfRange {
                    node: 9,
                    num_nodes: 4,
                },
                "out of range",
            ),
            (
                TopologyError::InvalidIrregularShape {
                    cols: 3,
                    num_nodes: 100,
                },
                "irregular",
            ),
            (
                TopologyError::NodeCountOverflow {
                    cols: usize::MAX,
                    rows: 2,
                },
                "too many nodes",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg:?}");
        }
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TopologyError>();
    }
}
