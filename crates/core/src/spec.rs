//! Serializable experiment specifications: which topology, which
//! routing algorithm, which traffic pattern.
//!
//! Specs are plain data (serde-serializable) so experiments can be
//! described in JSON, logged alongside results, and rebuilt exactly.

use crate::CoreError;
use noc_routing::{
    MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst, TableRouting, TorusXY,
    WestFirst,
};
use noc_topology::{
    IrregularMesh, NodeId, RectMesh, Ring, Spidergon, Topology, TopologyError, TopologyKind, Torus,
};
use noc_traffic::{
    placement, Complement, DoubleHotspot, MixedHotspot, NearestNeighbor, PlacementScenario,
    SingleHotspot, TrafficPattern, Transpose, UniformRandom,
};
use serde::{Deserialize, Serialize};

/// Specification of a topology instance.
///
/// # Examples
///
/// ```
/// use noc_core::TopologySpec;
///
/// let spec = TopologySpec::Spidergon { nodes: 16 };
/// assert_eq!(spec.nodes()?, 16);
/// let topo = spec.build()?;
/// assert_eq!(topo.num_nodes(), 16);
/// # Ok::<(), noc_core::CoreError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Bidirectional ring.
    Ring {
        /// Number of nodes.
        nodes: usize,
    },
    /// Spidergon (even node count).
    Spidergon {
        /// Number of nodes.
        nodes: usize,
    },
    /// Full rectangular mesh (`cols x rows`).
    Mesh {
        /// Columns (the paper's `m`).
        cols: usize,
        /// Rows (the paper's `n`).
        rows: usize,
    },
    /// Most square full rectangle holding exactly `nodes` nodes.
    MeshBalanced {
        /// Number of nodes.
        nodes: usize,
    },
    /// Irregular mesh: `cols`-wide grid, prefix-filled last row.
    IrregularMesh {
        /// Grid width.
        cols: usize,
        /// Number of nodes.
        nodes: usize,
    },
    /// The paper's "real mesh": `ceil(sqrt(nodes))`-wide irregular
    /// grid.
    RealisticMesh {
        /// Number of nodes.
        nodes: usize,
    },
    /// 2D torus (`cols x rows`), a future-work topology.
    Torus {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
    },
}

impl TopologySpec {
    /// Number of nodes the built topology will have.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Topology`] with
    /// [`TopologyError::NodeCountOverflow`] if a `cols x rows` grid has
    /// more nodes than `usize` can count.
    pub fn nodes(&self) -> Result<usize, CoreError> {
        Ok(match *self {
            TopologySpec::Ring { nodes }
            | TopologySpec::Spidergon { nodes }
            | TopologySpec::MeshBalanced { nodes }
            | TopologySpec::IrregularMesh { nodes, .. }
            | TopologySpec::RealisticMesh { nodes } => nodes,
            TopologySpec::Mesh { cols, rows } | TopologySpec::Torus { cols, rows } => cols
                .checked_mul(rows)
                .ok_or(TopologyError::NodeCountOverflow { cols, rows })?,
        })
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Topology`] if the dimensions are invalid.
    pub fn build(&self) -> Result<Box<dyn Topology>, CoreError> {
        Ok(match *self {
            TopologySpec::Ring { nodes } => Box::new(Ring::new(nodes)?),
            TopologySpec::Spidergon { nodes } => Box::new(Spidergon::new(nodes)?),
            TopologySpec::Mesh { cols, rows } => Box::new(RectMesh::new(cols, rows)?),
            TopologySpec::MeshBalanced { nodes } => Box::new(RectMesh::balanced(nodes)?),
            TopologySpec::IrregularMesh { cols, nodes } => {
                Box::new(IrregularMesh::new(cols, nodes)?)
            }
            TopologySpec::RealisticMesh { nodes } => Box::new(IrregularMesh::realistic(nodes)?),
            TopologySpec::Torus { cols, rows } => Box::new(Torus::new(cols, rows)?),
        })
    }

    /// Builds the paper's routing algorithm for this topology family:
    /// shortest-direction for rings, Across-First for Spidergon, XY
    /// dimension-order for (regular and irregular) meshes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Topology`] if the topology cannot be built.
    pub fn build_routing(&self) -> Result<Box<dyn RoutingAlgorithm>, CoreError> {
        Ok(match *self {
            TopologySpec::Ring { nodes } => Box::new(RingShortestPath::new(&Ring::new(nodes)?)),
            TopologySpec::Spidergon { nodes } => {
                Box::new(SpidergonAcrossFirst::new(&Spidergon::new(nodes)?))
            }
            TopologySpec::Mesh { cols, rows } => Box::new(MeshXY::new(&RectMesh::new(cols, rows)?)),
            TopologySpec::MeshBalanced { nodes } => {
                Box::new(MeshXY::new(&RectMesh::balanced(nodes)?))
            }
            TopologySpec::IrregularMesh { cols, nodes } => {
                Box::new(MeshXY::new_irregular(&IrregularMesh::new(cols, nodes)?))
            }
            TopologySpec::RealisticMesh { nodes } => {
                Box::new(MeshXY::new_irregular(&IrregularMesh::realistic(nodes)?))
            }
            TopologySpec::Torus { cols, rows } => Box::new(TorusXY::new(&Torus::new(cols, rows)?)),
        })
    }

    /// Builds the West-First partially-adaptive routing algorithm —
    /// only defined for full rectangular meshes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] for non-mesh families and
    /// [`CoreError::Topology`] if the mesh cannot be built.
    pub fn build_adaptive_routing(&self) -> Result<Box<dyn RoutingAlgorithm>, CoreError> {
        match *self {
            TopologySpec::Mesh { cols, rows } => {
                Ok(Box::new(WestFirst::new(&RectMesh::new(cols, rows)?)))
            }
            TopologySpec::MeshBalanced { nodes } => {
                Ok(Box::new(WestFirst::new(&RectMesh::balanced(nodes)?)))
            }
            _ => Err(CoreError::InvalidSpec {
                reason: "west-first adaptive routing requires a full rectangular mesh".to_owned(),
            }),
        }
    }

    /// Builds BFS table-driven routing for this topology (the oracle /
    /// fallback scheme).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Topology`] if the topology cannot be built.
    pub fn build_table_routing(&self) -> Result<Box<dyn RoutingAlgorithm>, CoreError> {
        let topo = self.build()?;
        Ok(Box::new(TableRouting::from_topology(topo.as_ref())))
    }

    /// Human-readable label of the built topology.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Topology`] if the spec is invalid.
    pub fn label(&self) -> Result<String, CoreError> {
        Ok(self.build()?.label())
    }

    /// The grid shape `(cols, rows)` if this spec is mesh-like.
    fn mesh_shape(&self) -> Option<(usize, usize)> {
        match *self {
            TopologySpec::Mesh { cols, rows } => Some((cols, rows)),
            TopologySpec::MeshBalanced { nodes } => {
                let mesh = RectMesh::balanced(nodes).ok()?;
                Some((mesh.cols(), mesh.rows()))
            }
            TopologySpec::IrregularMesh { cols, nodes } => Some((cols, nodes.div_ceil(cols))),
            TopologySpec::RealisticMesh { nodes } => {
                let mesh = IrregularMesh::realistic(nodes).ok()?;
                Some((mesh.cols(), mesh.rows()))
            }
            TopologySpec::Torus { cols, rows } => Some((cols, rows)),
            _ => None,
        }
    }
}

/// Specification of a traffic pattern.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// Homogeneous uniform sources/destinations (paper Section 3.1.3).
    Uniform,
    /// Single hot-spot with an explicit target (paper Section 3.1.1).
    SingleHotspot {
        /// Target node index.
        target: usize,
    },
    /// Double hot-spot with explicit targets.
    DoubleHotspot {
        /// The two target node indices.
        targets: [usize; 2],
    },
    /// Double hot-spot with targets placed by the paper's scenario
    /// rules for the topology family (Section 3.1.2).
    DoubleHotspotPlaced {
        /// Placement scenario (A / B / C).
        scenario: PlacementScenario,
    },
    /// Mixed hot-spot: each packet targets `target` with probability
    /// `fraction`, otherwise a uniformly random node.
    MixedHotspot {
        /// Hot node index.
        target: usize,
        /// Probability of addressing the hot node.
        fraction: f64,
    },
    /// Matrix transpose (square meshes only).
    Transpose,
    /// Bit-complement (`i -> N - 1 - i`).
    Complement,
    /// Nearest neighbor (`i -> i + 1 mod N`).
    NearestNeighbor,
}

impl TrafficSpec {
    /// Builds the traffic pattern for the given topology spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Traffic`] for out-of-range targets and
    /// [`CoreError::InvalidSpec`] for family mismatches (transpose on a
    /// non-square mesh, placed hot-spots on unsupported shapes).
    pub fn build(&self, topology: &TopologySpec) -> Result<Box<dyn TrafficPattern>, CoreError> {
        let n = topology.nodes()?;
        Ok(match *self {
            TrafficSpec::Uniform => Box::new(UniformRandom::new(n)?),
            TrafficSpec::SingleHotspot { target } => {
                Box::new(SingleHotspot::new(n, NodeId::new(target))?)
            }
            TrafficSpec::DoubleHotspot { targets } => Box::new(DoubleHotspot::new(
                n,
                [NodeId::new(targets[0]), NodeId::new(targets[1])],
            )?),
            TrafficSpec::DoubleHotspotPlaced { scenario } => {
                let kind = topology.build()?.kind();
                let targets = match kind {
                    TopologyKind::Ring | TopologyKind::Spidergon => {
                        placement::ring_placement(scenario, n)?
                    }
                    TopologyKind::Mesh | TopologyKind::IrregularMesh | TopologyKind::Torus => {
                        let (cols, rows) =
                            topology
                                .mesh_shape()
                                .ok_or_else(|| CoreError::InvalidSpec {
                                    reason: "mesh shape unavailable for placement".to_owned(),
                                })?;
                        placement::mesh_placement(scenario, cols, rows)?
                    }
                };
                if targets.iter().any(|t| t.index() >= n) {
                    return Err(CoreError::InvalidSpec {
                        reason: format!("placed target outside {n}-node topology"),
                    });
                }
                Box::new(DoubleHotspot::new(n, targets)?)
            }
            TrafficSpec::MixedHotspot { target, fraction } => {
                Box::new(MixedHotspot::new(n, NodeId::new(target), fraction)?)
            }
            TrafficSpec::Transpose => {
                let (cols, rows) = topology
                    .mesh_shape()
                    .ok_or_else(|| CoreError::InvalidSpec {
                        reason: "transpose traffic requires a mesh topology".to_owned(),
                    })?;
                if cols != rows {
                    return Err(CoreError::InvalidSpec {
                        reason: format!(
                            "transpose traffic requires a square mesh, got {cols}x{rows}"
                        ),
                    });
                }
                Box::new(Transpose::new(cols)?)
            }
            TrafficSpec::Complement => Box::new(Complement::new(n)?),
            TrafficSpec::NearestNeighbor => Box::new(NearestNeighbor::new(n)?),
        })
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            TrafficSpec::Uniform => "uniform".to_owned(),
            TrafficSpec::SingleHotspot { target } => format!("hotspot(n{target})"),
            TrafficSpec::DoubleHotspot { targets } => {
                format!("hotspot2(n{},n{})", targets[0], targets[1])
            }
            TrafficSpec::DoubleHotspotPlaced { scenario } => format!("hotspot2[{scenario}]"),
            TrafficSpec::MixedHotspot { target, fraction } => {
                format!("mixed-hotspot(n{target},{:.0}%)", fraction * 100.0)
            }
            TrafficSpec::Transpose => "transpose".to_owned(),
            TrafficSpec::Complement => "complement".to_owned(),
            TrafficSpec::NearestNeighbor => "nearest-neighbor".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_build_and_count_nodes() {
        let specs = [
            TopologySpec::Ring { nodes: 8 },
            TopologySpec::Spidergon { nodes: 8 },
            TopologySpec::Mesh { cols: 2, rows: 4 },
            TopologySpec::MeshBalanced { nodes: 8 },
            TopologySpec::IrregularMesh { cols: 3, nodes: 8 },
            TopologySpec::RealisticMesh { nodes: 8 },
        ];
        for spec in specs {
            assert_eq!(spec.nodes(), Ok(8), "{spec:?}");
            assert_eq!(spec.build().unwrap().num_nodes(), 8, "{spec:?}");
            let _ = spec.build_routing().unwrap();
            assert!(!spec.label().unwrap().is_empty());
        }
    }

    #[test]
    fn routing_matches_family() {
        assert_eq!(
            TopologySpec::Spidergon { nodes: 12 }
                .build_routing()
                .unwrap()
                .label(),
            "across-first"
        );
        assert_eq!(
            TopologySpec::Mesh { cols: 2, rows: 4 }
                .build_routing()
                .unwrap()
                .label(),
            "xy-dimension-order"
        );
        assert_eq!(
            TopologySpec::Ring { nodes: 5 }
                .build_routing()
                .unwrap()
                .label(),
            "ring-shortest"
        );
        assert_eq!(
            TopologySpec::Ring { nodes: 5 }
                .build_table_routing()
                .unwrap()
                .label(),
            "table-driven"
        );
    }

    #[test]
    fn invalid_specs_error() {
        assert!(TopologySpec::Ring { nodes: 2 }.build().is_err());
        assert!(TopologySpec::Spidergon { nodes: 7 }.build().is_err());
        assert!(TopologySpec::Mesh { cols: 0, rows: 3 }.build().is_err());
    }

    #[test]
    fn traffic_specs_build() {
        let topo = TopologySpec::Spidergon { nodes: 12 };
        for spec in [
            TrafficSpec::Uniform,
            TrafficSpec::SingleHotspot { target: 0 },
            TrafficSpec::DoubleHotspot { targets: [0, 6] },
            TrafficSpec::DoubleHotspotPlaced {
                scenario: PlacementScenario::Opposed,
            },
            TrafficSpec::MixedHotspot {
                target: 0,
                fraction: 0.3,
            },
            TrafficSpec::Complement,
            TrafficSpec::NearestNeighbor,
        ] {
            let pattern = spec.build(&topo).unwrap();
            assert_eq!(pattern.num_nodes(), 12, "{spec:?}");
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn placed_hotspots_follow_paper_positions() {
        // Mesh 2x4, scenario B: targets {0, 4}.
        let topo = TopologySpec::Mesh { cols: 2, rows: 4 };
        let spec = TrafficSpec::DoubleHotspotPlaced {
            scenario: PlacementScenario::CornerMiddle,
        };
        let pattern = spec.build(&topo).unwrap();
        assert!(!pattern.is_source(NodeId::new(0)));
        assert!(!pattern.is_source(NodeId::new(4)));
        // Spidergon 12, scenario A: {0, 6}.
        let topo = TopologySpec::Spidergon { nodes: 12 };
        let spec = TrafficSpec::DoubleHotspotPlaced {
            scenario: PlacementScenario::Opposed,
        };
        let pattern = spec.build(&topo).unwrap();
        assert!(!pattern.is_source(NodeId::new(6)));
    }

    #[test]
    fn transpose_requires_square_mesh() {
        let err = TrafficSpec::Transpose
            .build(&TopologySpec::Mesh { cols: 2, rows: 4 })
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec { .. }));
        let err = TrafficSpec::Transpose
            .build(&TopologySpec::Ring { nodes: 16 })
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec { .. }));
        assert!(TrafficSpec::Transpose
            .build(&TopologySpec::Mesh { cols: 4, rows: 4 })
            .is_ok());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let topo = TopologySpec::IrregularMesh { cols: 4, nodes: 14 };
        let json = serde_json::to_string(&topo).unwrap();
        assert_eq!(serde_json::from_str::<TopologySpec>(&json).unwrap(), topo);
        let traffic = TrafficSpec::DoubleHotspotPlaced {
            scenario: PlacementScenario::MiddlePair,
        };
        let json = serde_json::to_string(&traffic).unwrap();
        assert_eq!(serde_json::from_str::<TrafficSpec>(&json).unwrap(), traffic);
    }
}
