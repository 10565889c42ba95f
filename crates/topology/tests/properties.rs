//! Property-based tests for the topology crate: structural invariants,
//! closed-form-vs-BFS agreement, and cross-family orderings for
//! arbitrary node counts.

use noc_topology::{
    analytical, check_topology_invariants, graph::Graph, metrics, IrregularMesh, NodeId, RectMesh,
    Ring, Spidergon, Topology,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_invariants(n in 3usize..80) {
        let ring = Ring::new(n).unwrap();
        check_topology_invariants(&ring);
        prop_assert_eq!(ring.num_links(), analytical::ring_link_count(n));
    }

    #[test]
    fn spidergon_invariants(half in 2usize..40) {
        let n = half * 2;
        let sg = Spidergon::new(n).unwrap();
        check_topology_invariants(&sg);
        prop_assert_eq!(sg.num_links(), analytical::spidergon_link_count(n));
    }

    #[test]
    fn mesh_invariants(m in 1usize..9, n in 2usize..9) {
        let mesh = RectMesh::new(m, n).unwrap();
        check_topology_invariants(&mesh);
        prop_assert_eq!(mesh.num_links(), analytical::mesh_link_count(m, n));
    }

    #[test]
    fn irregular_mesh_invariants(cols in 2usize..8, extra in 0usize..30) {
        let n = cols + extra;
        let mesh = IrregularMesh::new(cols, n).unwrap();
        check_topology_invariants(&mesh);
        prop_assert_eq!(mesh.num_nodes(), n);
    }

    #[test]
    fn spidergon_closed_forms_match_bfs(half in 2usize..32) {
        let n = half * 2;
        let sg = Spidergon::new(n).unwrap();
        let apd = sg.graph().all_pairs_distances();
        prop_assert_eq!(apd.diameter() as usize, analytical::spidergon_diameter(n));
        let sum: u32 = apd.row(0).iter().sum();
        prop_assert_eq!(sum as usize, analytical::spidergon_distance_sum(n));
        prop_assert_eq!(apd.total_distance(), analytical::spidergon_total_distance(n));
    }

    #[test]
    fn spidergon_closed_form_distance_is_shortest_path(half in 2usize..24) {
        let n = half * 2;
        let sg = Spidergon::new(n).unwrap();
        let apd = sg.graph().all_pairs_distances();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    sg.distance(NodeId::new(a), NodeId::new(b)) as u32,
                    apd.distance(a, b)
                );
            }
        }
    }

    #[test]
    fn mesh_manhattan_is_shortest_path(m in 1usize..7, n in 2usize..7) {
        let mesh = RectMesh::new(m, n).unwrap();
        let apd = mesh.graph().all_pairs_distances();
        for a in mesh.node_ids() {
            for b in mesh.node_ids() {
                prop_assert_eq!(
                    mesh.manhattan_distance(a, b) as u32,
                    apd.distance(a.index(), b.index())
                );
            }
        }
    }

    #[test]
    fn irregular_manhattan_is_shortest_path(cols in 2usize..7, extra in 0usize..20) {
        let mesh = IrregularMesh::new(cols, cols + extra).unwrap();
        let apd = mesh.graph().all_pairs_distances();
        for a in mesh.node_ids() {
            for b in mesh.node_ids() {
                prop_assert_eq!(
                    mesh.manhattan_distance(a, b) as u32,
                    apd.distance(a.index(), b.index())
                );
            }
        }
    }

    #[test]
    fn spidergon_never_worse_than_ring(half in 2usize..30) {
        let n = half * 2;
        let ring = metrics::average_distance(&Ring::new(n).unwrap());
        let sg = metrics::average_distance(&Spidergon::new(n).unwrap());
        prop_assert!(sg <= ring + 1e-12);
        let ring_d = metrics::diameter(&Ring::new(n).unwrap());
        let sg_d = metrics::diameter(&Spidergon::new(n).unwrap());
        prop_assert!(sg_d <= ring_d);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality(n in 3usize..30, seed in 0u64..1000) {
        // Random connected graph: ring backbone + random chords.
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut state = seed.wrapping_add(12345);
        for _ in 0..n / 2 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (state >> 33) as usize % n;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = (state >> 33) as usize % n;
            if a != b {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(n, &edges);
        let apd = g.all_pairs_distances();
        for a in 0..n {
            prop_assert_eq!(apd.distance(a, a), 0);
            for b in 0..n {
                prop_assert_eq!(apd.distance(a, b), apd.distance(b, a));
                for c in 0..n {
                    prop_assert!(
                        apd.distance(a, c) <= apd.distance(a, b) + apd.distance(b, c)
                    );
                }
            }
        }
    }
}

/// Asserts that the grid closed forms give `topo`'s BFS diameter and
/// ordered-pair distance sum.
fn assert_grid_forms_match_bfs(topo: &impl Topology, cols: usize) {
    let n = topo.num_nodes();
    let apd = topo.graph().all_pairs_distances();
    let label = topo.label();
    assert_eq!(
        apd.diameter() as usize,
        analytical::grid_diameter(cols, n),
        "{label}"
    );
    assert_eq!(
        apd.total_distance(),
        analytical::grid_total_distance(cols, n),
        "{label}"
    );
}

#[test]
fn grid_closed_forms_match_bfs_for_every_irregular_mesh() {
    for cols in 1..=16usize {
        for n in cols.max(2)..=200 {
            assert_grid_forms_match_bfs(&IrregularMesh::new(cols, n).unwrap(), cols);
        }
    }
}

#[test]
fn grid_closed_forms_match_bfs_for_every_rect_mesh() {
    for cols in 1..=16usize {
        for rows in 1..=16usize {
            if cols * rows >= 2 {
                assert_grid_forms_match_bfs(&RectMesh::new(cols, rows).unwrap(), cols);
            }
        }
    }
}

#[test]
fn grid_closed_forms_match_bfs_for_the_figure_meshes() {
    for n in 2..=256usize {
        let rect = RectMesh::balanced(n).unwrap();
        assert_grid_forms_match_bfs(&rect, rect.cols());
        let irregular = IrregularMesh::realistic(n).unwrap();
        assert_grid_forms_match_bfs(&irregular, irregular.cols());
    }
}

#[test]
fn ring_closed_forms_match_bfs() {
    for n in 3..=128usize {
        let apd = Ring::new(n).unwrap().graph().all_pairs_distances();
        assert_eq!(
            apd.diameter() as usize,
            analytical::ring_diameter(n),
            "n={n}"
        );
        assert_eq!(
            apd.total_distance(),
            analytical::ring_total_distance(n),
            "n={n}"
        );
        assert!(
            (apd.mean_distance_paper() - analytical::ring_average_distance(n)).abs() < 1e-9,
            "n={n}"
        );
    }
}
