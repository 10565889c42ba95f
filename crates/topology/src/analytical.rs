//! Closed-form topology metrics from Section 2 of the paper.
//!
//! The paper quotes, for a NoC of `N` nodes:
//!
//! | Topology | `ND` | `E[D]` |
//! |---|---|---|
//! | Ring | `floor(N/2)` | `N/4` |
//! | `m x n` Mesh | `m + n - 2` | `(m + n)/3` (approximation) |
//! | Spidergon | `ceil(N/4)` | `(2x^2 + 2x - 1)/N` for `N = 4x`, `(2x^2 + 4x + 1)/N` for `N = 4x + 2` |
//!
//! **Erratum.** The paper's text swaps the two Spidergon `E[D]`
//! numerators. Checking against exact BFS distances (see tests and
//! `DESIGN.md`): for `N = 8` (`x = 2`) the per-node distance sum is 11,
//! which is `2x^2 + 2x - 1`, not `2x^2 + 4x + 1 = 17`; for `N = 10`
//! (`x = 2`) the sum is 17, which is `2x^2 + 4x + 1`. This module
//! implements the corrected assignment; the property tests prove it
//! exact for every even `N`.
//!
//! All `E[D]` values use the paper's normalization — per-source distance
//! sum divided by `N` — which matches
//! [`crate::graph::DistanceMatrix::mean_distance_paper`] for
//! vertex-symmetric topologies.
//!
//! The `*_total_distance` functions give the exact ordered-pair distance
//! sum in integers, and [`grid_diameter`] / [`grid_total_distance`]
//! cover both mesh families (a full [`crate::RectMesh`] and an
//! [`crate::IrregularMesh`] are the same row-major grid). Normalized by
//! [`pair_mean`] or [`paper_mean`], a total gives bit for bit the float
//! that [`crate::graph::DistanceMatrix`] computes from all-pairs BFS, at
//! O(`cols + rows`) cost instead of O(`N^2`); the property tests check
//! every form against BFS.

/// Ring network diameter: `floor(N/2)`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::ring_diameter(12), 6);
/// assert_eq!(noc_topology::analytical::ring_diameter(13), 6);
/// ```
pub fn ring_diameter(n: usize) -> usize {
    n / 2
}

/// Average distance over ordered pairs with `src != dst`:
/// `total / (N (N - 1))`, 0 below two nodes. The normalization of
/// [`crate::graph::DistanceMatrix::mean_distance`].
pub fn pair_mean(total: u64, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    total as f64 / (n * (n - 1)) as f64
}

/// Average distance with the paper's normalization: `total / N^2`, 0 for
/// an empty graph. The normalization of
/// [`crate::graph::DistanceMatrix::mean_distance_paper`].
pub fn paper_mean(total: u64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    total as f64 / (n * n) as f64
}

/// Ring distance sum over ordered pairs: `N floor(N^2/4)` (every node's
/// distance sum is `floor(N^2/4)`).
///
/// # Examples
///
/// ```
/// use noc_topology::analytical::ring_total_distance;
///
/// assert_eq!(ring_total_distance(4), 4 * (1 + 2 + 1));
/// assert_eq!(ring_total_distance(5), 5 * (1 + 2 + 2 + 1));
/// ```
pub fn ring_total_distance(n: usize) -> u64 {
    let n = n as u64;
    n * (n * n / 4)
}

/// Ring average distance, paper convention: exactly `N/4` for even `N`,
/// `(N^2 - 1) / (4N)` for odd `N` (which the paper rounds to `N/4`).
pub fn ring_average_distance(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n.is_multiple_of(2) {
        n as f64 / 4.0
    } else {
        ((n * n - 1) as f64) / (4.0 * n as f64)
    }
}

/// Number of unidirectional links of a ring: `2N`.
pub fn ring_link_count(n: usize) -> usize {
    2 * n
}

/// `m x n` mesh network diameter: `(m - 1) + (n - 1) = m + n - 2`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::mesh_diameter(4, 6), 8);
/// ```
pub fn mesh_diameter(m: usize, n: usize) -> usize {
    m + n - 2
}

/// The paper's mesh average-distance approximation `(m + n)/3`.
pub fn mesh_average_distance_approx(m: usize, n: usize) -> f64 {
    (m + n) as f64 / 3.0
}

/// Number of unidirectional links of an `m x n` mesh:
/// `2(m-1)n + 2(n-1)m`.
pub fn mesh_link_count(m: usize, n: usize) -> usize {
    2 * (m - 1) * n + 2 * (n - 1) * m
}

/// Spidergon network diameter: `ceil(N/4)`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::spidergon_diameter(16), 4);
/// assert_eq!(noc_topology::analytical::spidergon_diameter(18), 5);
/// ```
pub fn spidergon_diameter(n: usize) -> usize {
    n.div_ceil(4)
}

/// Per-node distance sum of a Spidergon with even `N` (exact, corrected
/// from the paper's swapped formulas; see the module docs).
///
/// * `N = 4x`: `2x^2 + 2x - 1`
/// * `N = 4x + 2`: `2x^2 + 4x + 1`
///
/// # Panics
///
/// Panics if `n` is odd or `n < 4`.
pub fn spidergon_distance_sum(n: usize) -> usize {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "spidergon requires even n >= 4"
    );
    let x = n / 4;
    if n.is_multiple_of(4) {
        2 * x * x + 2 * x - 1
    } else {
        2 * x * x + 4 * x + 1
    }
}

/// Spidergon distance sum over ordered pairs:
/// `N spidergon_distance_sum(N)` (the topology is vertex-symmetric).
///
/// # Panics
///
/// Panics if `n` is odd or `n < 4`.
pub fn spidergon_total_distance(n: usize) -> u64 {
    n as u64 * spidergon_distance_sum(n) as u64
}

/// Spidergon average distance, paper convention (`sum / N`).
///
/// # Panics
///
/// Panics if `n` is odd or `n < 4`.
pub fn spidergon_average_distance(n: usize) -> f64 {
    spidergon_distance_sum(n) as f64 / n as f64
}

/// Number of unidirectional links of a Spidergon: `3N`.
pub fn spidergon_link_count(n: usize) -> usize {
    3 * n
}

/// Diameter of a row-major grid of `num_nodes` nodes, `cols` wide, with
/// `rows = ceil(num_nodes / cols)` rows whose last one is filled as a
/// prefix: `(cols - 1) + (rows - 1)`, the distance between the last
/// node of the first row and the first node of the last row.
///
/// A full `m x n` [`crate::RectMesh`] is the grid `(m, m n)`; an
/// [`crate::IrregularMesh`] is the grid `(cols, num_nodes)`.
///
/// # Panics
///
/// Panics if `cols == 0` or `num_nodes < cols`.
///
/// # Examples
///
/// ```
/// use noc_topology::analytical::grid_diameter;
///
/// assert_eq!(grid_diameter(4, 24), 3 + 5); // 4x6 mesh
/// assert_eq!(grid_diameter(3, 7), 2 + 2); // rows [0,1,2], [3,4,5], [6]
/// ```
pub fn grid_diameter(cols: usize, num_nodes: usize) -> usize {
    check_grid(cols, num_nodes);
    (cols - 1) + (num_nodes.div_ceil(cols) - 1)
}

/// Distance sum over ordered pairs of the grid of [`grid_diameter`].
///
/// Shortest paths are Manhattan (the last row is a prefix, so every XY
/// route exists), so the sum splits by dimension: the cut between
/// column `x` and `x + 1` separates the `a_x` nodes in columns `<= x`
/// from the other `N - a_x`, and each such ordered pair crosses it
/// once, giving `2 sum_x a_x (N - a_x) + 2 sum_y b_y (N - b_y)` with
/// `b_y` the nodes in rows `<= y`. O(`cols + rows`), exact in `u64`.
///
/// # Panics
///
/// Panics if `cols == 0` or `num_nodes < cols`.
///
/// # Examples
///
/// ```
/// use noc_topology::analytical::grid_total_distance;
///
/// // A 1x3 line: pairs at distance 1, 1 and 2, both directions.
/// assert_eq!(grid_total_distance(1, 3), 8);
/// ```
pub fn grid_total_distance(cols: usize, num_nodes: usize) -> u64 {
    check_grid(cols, num_nodes);
    let n = num_nodes as u64;
    let rows = num_nodes.div_ceil(cols);
    // Columns before `last_row_len` hold `rows` nodes, the rest one fewer.
    let last_row_len = num_nodes - (rows - 1) * cols;
    let cut = |inside: u64| 2 * inside * (n - inside);
    let mut total = 0;
    let mut inside = 0;
    for x in 0..cols - 1 {
        inside += (rows - usize::from(x >= last_row_len)) as u64;
        total += cut(inside);
    }
    for y in 1..rows {
        total += cut((y * cols) as u64);
    }
    total
}

fn check_grid(cols: usize, num_nodes: usize) {
    assert!(
        cols > 0 && num_nodes >= cols,
        "a grid needs 0 < cols <= num_nodes, got cols {cols} and {num_nodes} nodes"
    );
}

/// Torus network diameter: `floor(m/2) + floor(n/2)`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::torus_diameter(4, 4), 4);
/// ```
pub fn torus_diameter(m: usize, n: usize) -> usize {
    m / 2 + n / 2
}

/// Torus average distance, paper convention (`sum / N^2`): the sum of
/// the per-dimension ring averages.
pub fn torus_average_distance(m: usize, n: usize) -> f64 {
    ring_average_distance(m) + ring_average_distance(n)
}

/// Number of unidirectional links of a torus: `4N`.
pub fn torus_link_count(m: usize, n: usize) -> usize {
    4 * m * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RectMesh, Ring, Spidergon, Topology};

    #[test]
    fn ring_formulas_match_bfs() {
        for n in 3..40usize {
            let ring = Ring::new(n).unwrap();
            let apd = ring.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, ring_diameter(n), "n={n}");
            assert!(
                (apd.mean_distance_paper() - ring_average_distance(n)).abs() < 1e-9,
                "n={n}"
            );
            assert_eq!(ring.num_links(), ring_link_count(n));
        }
    }

    #[test]
    fn mesh_formulas_match_bfs() {
        for (m, n) in [(2usize, 4usize), (4, 6), (3, 3), (5, 5), (2, 9), (1, 6)] {
            let mesh = RectMesh::new(m, n).unwrap();
            let apd = mesh.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, mesh_diameter(m, n));
            let total = grid_total_distance(m, m * n);
            assert_eq!(
                pair_mean(total, m * n).to_bits(),
                apd.mean_distance().to_bits(),
                "m={m} n={n}"
            );
            assert_eq!(
                paper_mean(total, m * n).to_bits(),
                apd.mean_distance_paper().to_bits(),
                "m={m} n={n}"
            );
            assert_eq!(mesh.num_links(), mesh_link_count(m, n));
        }
    }

    #[test]
    fn mesh_approximation_is_close_for_square_meshes() {
        for k in 2..10usize {
            let approx = mesh_average_distance_approx(k, k);
            let exact = paper_mean(grid_total_distance(k, k * k), k * k);
            assert!(
                (approx - exact).abs() / exact < 0.35,
                "k={k}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn spidergon_formulas_match_bfs_for_all_even_n() {
        for n in (4..=64usize).step_by(2) {
            let sg = Spidergon::new(n).unwrap();
            let apd = sg.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, spidergon_diameter(n), "n={n}");
            let sum: u32 = apd.row(0).iter().sum();
            assert_eq!(sum as usize, spidergon_distance_sum(n), "n={n}");
            assert!(
                (apd.mean_distance_paper() - spidergon_average_distance(n)).abs() < 1e-9,
                "n={n}"
            );
            assert_eq!(sg.num_links(), spidergon_link_count(n));
        }
    }

    #[test]
    fn paper_erratum_documented_values() {
        // The concrete counterexamples recorded in DESIGN.md.
        assert_eq!(spidergon_distance_sum(8), 11);
        assert_eq!(spidergon_distance_sum(10), 17);
        assert_eq!(spidergon_distance_sum(12), 23);
        assert_eq!(spidergon_distance_sum(16), 39);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn spidergon_sum_rejects_odd() {
        let _ = spidergon_distance_sum(7);
    }
}
