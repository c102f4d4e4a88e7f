//! Property-based tests for graph construction.

use hgnas_graph::{knn_brute, knn_grid, random_neighbors, AdjNorm, Csr, DiGraph, NeighborList};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cloud(seed: u64, n: usize) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn d2(pts: &[f32], i: usize, j: usize) -> f32 {
    (0..3)
        .map(|d| (pts[i * 3 + d] - pts[j * 3 + d]).powi(2))
        .sum()
}

/// Reference KNN at any dimension: each distance a sequential scalar fold
/// over the coordinates, candidates stably sorted by distance (so exact
/// ties keep index order, as the bounded insertion-select does).
fn knn_reference(pts: &[f32], dim: usize, k: usize) -> Vec<usize> {
    let n = pts.len() / dim;
    let mut idx = Vec::with_capacity(n * k);
    for i in 0..n {
        let pi = &pts[i * dim..(i + 1) * dim];
        let mut scored: Vec<(f32, usize)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let pj = &pts[j * dim..(j + 1) * dim];
                let d: f32 = pi.iter().zip(pj).map(|(x, y)| (x - y) * (x - y)).sum();
                (d, j)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        idx.extend(scored[..k].iter().map(|&(_, j)| j));
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn brute_matches_reference_on_hidden_features(
        seed in 0u64..500, n in 12usize..70, k in 1usize..11, mode in 0u32..3
    ) {
        use hgnas_tensor::simd::{with_path, LanePath};
        use rand::Rng;
        let dim = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<f32> = match mode {
            // Small integers: exact distance ties.
            0 => (0..n * dim).map(|_| rng.gen_range(-2i32..3) as f32).collect(),
            // The origin plus permutations of one vector: every distance
            // from the origin sums the same squares in a different order,
            // so only the rounding of that order separates them.
            1 => {
                let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut pts = vec![0.0f32; dim];
                for _ in 1..n {
                    let mut p = v.clone();
                    for d in (1..dim).rev() {
                        p.swap(d, rng.gen_range(0..d + 1));
                    }
                    pts.extend(p);
                }
                pts
            }
            _ => (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        };
        let want = knn_reference(&pts, dim, k);
        for path in [LanePath::Scalar, LanePath::Avx2] {
            let got = with_path(path, || knn_brute(&pts, dim, k));
            prop_assert_eq!(got.flat(), want.as_slice());
        }
    }

    #[test]
    fn knn_is_truly_nearest(seed in 0u64..500, n in 12usize..60, k in 1usize..8) {
        prop_assume!(n > k);
        let pts = cloud(seed, n);
        let nl = knn_brute(&pts, 3, k);
        for i in 0..n {
            let worst_selected = nl
                .neighbors(i)
                .iter()
                .map(|&j| d2(&pts, i, j))
                .fold(0.0f32, f32::max);
            // No unselected point may be strictly closer than the worst
            // selected neighbour.
            for j in 0..n {
                if j != i && !nl.neighbors(i).contains(&j) {
                    prop_assert!(d2(&pts, i, j) >= worst_selected - 1e-6);
                }
            }
        }
    }

    #[test]
    fn grid_and_brute_distances_match(seed in 0u64..200, n in 12usize..80) {
        let k = 5;
        prop_assume!(n > k);
        let pts = cloud(seed, n);
        let a = knn_brute(&pts, 3, k);
        let b = knn_grid(&pts, 3, k);
        for i in 0..n {
            for slot in 0..k {
                let da = d2(&pts, i, a.neighbors(i)[slot]);
                let db = d2(&pts, i, b.neighbors(i)[slot]);
                prop_assert!((da - db).abs() < 1e-6, "node {i} slot {slot}");
            }
        }
    }

    #[test]
    fn knn_sorted_ascending(seed in 0u64..200, n in 10usize..40) {
        let k = 4;
        prop_assume!(n > k);
        let pts = cloud(seed, n);
        let nl = knn_brute(&pts, 3, k);
        for i in 0..n {
            let ds: Vec<f32> = nl.neighbors(i).iter().map(|&j| d2(&pts, i, j)).collect();
            for w in ds.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
        }
    }

    #[test]
    fn random_neighbors_valid(seed in 0u64..500, n in 2usize..50, k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, k);
        prop_assert_eq!(nl.len(), n);
        for i in 0..n {
            prop_assert!(!nl.neighbors(i).contains(&i));
            prop_assert!(nl.neighbors(i).iter().all(|&j| j < n));
        }
    }

    #[test]
    fn csr_round_trip(n in 1usize..20, edges in prop::collection::vec((0usize..20, 0usize..20), 0..60)) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(s, d)| s < n && d < n)
            .collect();
        let csr = Csr::from_edges(n, &edges);
        prop_assert_eq!(csr.edge_count(), edges.len());
        let total: usize = (0..n).map(|i| csr.degree(i)).sum();
        prop_assert_eq!(total, edges.len());
    }

    #[test]
    fn neighbor_list_to_csr_preserves_order(
        n in 2usize..15, seed in 0u64..100
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, 3);
        let csr = Csr::from_neighbor_list(&nl);
        for i in 0..n {
            prop_assert_eq!(csr.neighbors(i), nl.neighbors(i));
        }
    }

    #[test]
    fn row_norm_adjacency_is_stochastic(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..40)
    ) {
        let mut g = DiGraph::new(n);
        for (s, d) in edges.into_iter().filter(|&(s, d)| s < n && d < n) {
            g.add_edge(s, d);
        }
        let a = g.adjacency(AdjNorm::Row, true);
        for i in 0..n {
            let s: f32 = a[i * n..(i + 1) * n].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn neighbor_list_flat_layout(n in 2usize..10, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, 2);
        let rebuilt = NeighborList::new(n, 2, nl.flat().to_vec());
        prop_assert_eq!(rebuilt, nl);
    }
}
