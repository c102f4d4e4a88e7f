//! Property-based tests for the tensor kernels.

use hgnas_tensor::kernels::{
    concat_cols, fold_rows, gather_rows, repeat_rows, row_norms, scatter_add_rows, split_cols,
    EdgeAggregate, EdgePart,
};
use hgnas_tensor::matmul::{matmul_at, matmul_blocked, matmul_bt, matmul_naive, matmul_parallel};
use hgnas_tensor::reduce::{reduce_mid_axis, segment_reduce_rows, Reduction};
use hgnas_tensor::simd::{self, LanePath};
use hgnas_tensor::threads::with_kernel_threads;
use hgnas_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]))
}

/// Runs `f` once on the scalar path and once on the lane path (which degrades
/// to scalar on hosts without AVX2) and returns both results for bitwise
/// comparison.
fn on_both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let scalar = simd::with_path(LanePath::Scalar, &mut f);
    let lanes = simd::with_path(LanePath::Avx2, &mut f);
    (scalar, lanes)
}

/// Single-float strategy that mixes finite values with the IEEE specials
/// the lane kernels must reproduce exactly: NaN, ±∞, and −0.0.
fn special_f32() -> impl Strategy<Value = f32> {
    (0usize..14, -10.0f32..10.0).prop_map(|(pick, v)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => 1e-30,
        _ => v,
    })
}

/// Bitwise equality of two tensors (NaN == NaN, -0.0 != +0.0).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_kernels_agree(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        let reference = matmul_naive(&a, &b);
        prop_assert!(matmul_blocked(&a, &b).allclose(&reference, 1e-3));
        prop_assert!(matmul_parallel(&a, &b, 3).allclose(&reference, 1e-3));
        prop_assert!(matmul_bt(&a, &b.transpose2()).allclose(&reference, 1e-3));
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        let c = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        // A(B + C) == AB + AC
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn transpose_is_involution(t in tensor_strategy(7, 5)) {
        prop_assert!(t.transpose2().transpose2().allclose(&t, 0.0));
    }

    #[test]
    fn concat_split_round_trip(a in tensor_strategy(6, 3), b in tensor_strategy(6, 4)) {
        let cat = concat_cols(&[&a, &b]);
        let parts = split_cols(&cat, &[3, 4]);
        prop_assert!(parts[0].allclose(&a, 0.0));
        prop_assert!(parts[1].allclose(&b, 0.0));
    }

    #[test]
    fn repeat_then_fold_scales(t in tensor_strategy(5, 3), k in 1usize..6) {
        let folded = fold_rows(&repeat_rows(&t, k), k);
        prop_assert!(folded.allclose(&t.scale(k as f32), 1e-4));
    }

    #[test]
    fn gather_scatter_degree_weighted(
        t in tensor_strategy(6, 2),
        idx in prop::collection::vec(0usize..6, 1..20)
    ) {
        let gathered = gather_rows(&t, &idx);
        let scattered = scatter_add_rows(&gathered, &idx, 6);
        // Row i of the result equals count(i in idx) * t[i].
        for i in 0..6 {
            let count = idx.iter().filter(|&&j| j == i).count() as f32;
            for c in 0..2 {
                prop_assert!((scattered.at2(i, c) - count * t.at2(i, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn reductions_bounded_by_extremes(
        data in prop::collection::vec(-100.0f32..100.0, 24)
    ) {
        let t = Tensor::from_vec(data, &[2, 4, 3]);
        let max = reduce_mid_axis(&t, Reduction::Max).values;
        let min = reduce_mid_axis(&t, Reduction::Min).values;
        let mean = reduce_mid_axis(&t, Reduction::Mean).values;
        for i in 0..max.numel() {
            prop_assert!(min.data()[i] <= mean.data()[i] + 1e-4);
            prop_assert!(mean.data()[i] <= max.data()[i] + 1e-4);
        }
    }

    #[test]
    fn sum_reduction_matches_k_times_mean(
        data in prop::collection::vec(-10.0f32..10.0, 30)
    ) {
        let t = Tensor::from_vec(data, &[2, 5, 3]);
        let sum = reduce_mid_axis(&t, Reduction::Sum).values;
        let mean = reduce_mid_axis(&t, Reduction::Mean).values;
        prop_assert!(sum.allclose(&mean.scale(5.0), 1e-3));
    }
}

// ---------------------------------------------------------------------------
// scalar == lane bit-identity
//
// Every kernel ported to the `simd` lane layer must produce the exact same
// bits whether the AVX2 leg or the scalar fallback runs, at every thread
// budget. Shapes are deliberately ragged (not multiples of the 8-wide lane)
// so the remainder schedule is exercised too.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_primitives_bit_identical(
        len in 1usize..70, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let y = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let acc0 = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);

        let (s, l) = on_both_paths(|| {
            let mut acc = acc0.data().to_vec();
            simd::axpy(&mut acc, 1.7, x.data());
            simd::add_assign(&mut acc, y.data());
            simd::scale(&mut acc, 0.3);
            (acc, simd::dot(x.data(), y.data()))
        });
        prop_assert!(s.0.iter().zip(&l.0).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(s.1.to_bits(), l.1.to_bits());
    }

    #[test]
    fn elementwise_kernels_bit_identical(
        len in 1usize..70,
        data in prop::collection::vec(special_f32(), 3 * 70),
        slope in 0.01f32..0.5,
    ) {
        // Three ragged slices drawn from the same special-laden pool: the
        // IEEE contract (NaN, ±∞, −0.0 behaviour) must hold bit-for-bit on
        // both paths, including the sub-8-lane remainder.
        let x = &data[..len];
        let y = &data[70..70 + len];
        let g0 = &data[140..140 + len];

        let (s, l) = on_both_paths(|| {
            let mut a = x.to_vec();
            simd::sub_assign(&mut a, y);
            let mut b = x.to_vec();
            simd::mul_assign(&mut b, y);
            let mut r = x.to_vec();
            simd::relu(&mut r);
            let mut lr = x.to_vec();
            simd::leaky_relu(&mut lr, slope);
            let mut gr = g0.to_vec();
            simd::relu_grad(&mut gr, x);
            let mut glr = g0.to_vec();
            simd::leaky_relu_grad(&mut glr, x, slope);
            (a, b, r, lr, gr, glr)
        });
        let pairs: [(&[f32], &[f32]); 6] = [
            (&s.0, &l.0), (&s.1, &l.1), (&s.2, &l.2),
            (&s.3, &l.3), (&s.4, &l.4), (&s.5, &l.5),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            prop_assert!(
                a.iter().zip(b.iter()).all(|(p, q)| p.to_bits() == q.to_bits()),
                "elementwise kernel {} diverged between paths", i
            );
        }
    }

    #[test]
    fn adam_step_bit_identical(
        len in 1usize..70, t in 1u32..50, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w0 = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let m0 = Tensor::rand_uniform(&mut rng, &[1, len], -1.0, 1.0);
        // Second moments are sums of squares: non-negative by construction.
        let v0 = Tensor::rand_uniform(&mut rng, &[1, len], 0.0, 2.0);
        let g = Tensor::rand_uniform(&mut rng, &[1, len], -5.0, 5.0);
        let p = simd::AdamParams {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bc1: 1.0 / (1.0 - 0.9f32.powi(t as i32)),
            inv_bc2: 1.0 / (1.0 - 0.999f32.powi(t as i32)),
        };

        let (s, l) = on_both_paths(|| {
            let (mut w, mut m, mut v) =
                (w0.data().to_vec(), m0.data().to_vec(), v0.data().to_vec());
            simd::adam_step(&mut w, &mut m, &mut v, g.data(), p);
            (w, m, v)
        });
        prop_assert!(s.0.iter().zip(&l.0).all(|(a, b)| a.to_bits() == b.to_bits()), "w diverged");
        prop_assert!(s.1.iter().zip(&l.1).all(|(a, b)| a.to_bits() == b.to_bits()), "m diverged");
        prop_assert!(s.2.iter().zip(&l.2).all(|(a, b)| a.to_bits() == b.to_bits()), "v diverged");
    }

    #[test]
    fn distances_3d_bit_identical(
        n in 1usize..40, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::rand_uniform(&mut rng, &[1, 3], -1.0, 1.0);
        let pts = Tensor::rand_uniform(&mut rng, &[n, 3], -1.0, 1.0);
        // Every other point, reversed: a ragged, non-contiguous index set.
        let idx: Vec<usize> = (0..n).rev().step_by(2).collect();

        let (s, l) = on_both_paths(|| {
            let mut d = vec![0.0f32; n];
            simd::squared_distances_3d(q.data(), pts.data(), &mut d);
            let mut di = vec![0.0f32; idx.len()];
            simd::squared_distances_3d_indexed(q.data(), pts.data(), &idx, &mut di);
            (d, di)
        });
        prop_assert!(s.0.iter().zip(&l.0).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert!(s.1.iter().zip(&l.1).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn matmul_family_bit_identical(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        threads in 1usize..5, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        let at = a.transpose2();
        let bt = b.transpose2();

        let (s, l) = on_both_paths(|| with_kernel_threads(threads, || (
            matmul_blocked(&a, &b),
            matmul_parallel(&a, &b, threads),
            matmul_bt(&a, &bt),
            matmul_at(&at, &b),
        )));
        prop_assert!(bits_eq(&s.0, &l.0), "blocked diverged");
        prop_assert!(bits_eq(&s.1, &l.1), "parallel diverged");
        prop_assert!(bits_eq(&s.2, &l.2), "bt diverged");
        prop_assert!(bits_eq(&s.3, &l.3), "at diverged");
        // The serial blocked kernel is also the parallel kernel's per-chunk
        // body: same bits at any thread budget.
        prop_assert!(bits_eq(&s.0, &s.1), "threads changed bits");
    }

    #[test]
    fn reductions_bit_identical(
        rows in 1usize..6, mid in 1usize..12, cols in 1usize..12, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows, mid, cols], -5.0, 5.0);
        let flat = Tensor::rand_uniform(&mut rng, &[mid, cols], -5.0, 5.0);
        // Ragged segment lengths (3,3,...,remainder) summing to the row count.
        let mut segments = vec![3usize; mid / 3];
        if mid % 3 != 0 {
            segments.push(mid % 3);
        }

        for how in [Reduction::Sum, Reduction::Mean] {
            let (s, l) = on_both_paths(|| (
                reduce_mid_axis(&t, how).values,
                segment_reduce_rows(&flat, &segments, how).values,
            ));
            prop_assert!(bits_eq(&s.0, &l.0), "reduce_mid_axis diverged");
            prop_assert!(bits_eq(&s.1, &l.1), "segment_reduce_rows diverged");
        }
    }

    #[test]
    fn row_kernels_bit_identical(
        rows in 1usize..10, cols in 1usize..20, k in 1usize..5, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows * k, cols], -4.0, 4.0);
        let idx: Vec<usize> = (0..rows * k).map(|i| i % rows).collect();

        let (s, l) = on_both_paths(|| (
            scatter_add_rows(&t, &idx, rows),
            fold_rows(&t, k),
            row_norms(&t),
        ));
        prop_assert!(bits_eq(&s.0, &l.0), "scatter_add_rows diverged");
        prop_assert!(bits_eq(&s.1, &l.1), "fold_rows diverged");
        prop_assert!(bits_eq(&s.2, &l.2), "row_norms diverged");
    }

    #[test]
    fn edge_aggregate_forward_matches_kernel_chain(
        n in 2usize..10, c in 1usize..20, k in 1usize..5, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use EdgePart::*;
        let mut rng = StdRng::seed_from_u64(seed);
        // Integer-valued features force exact ties and signed zeros.
        let h: Vec<f32> = (0..n * c)
            .map(|_| match rng.gen_range(0..6) {
                0 => -0.0,
                _ => rng.gen_range(-2i32..3) as f32,
            })
            .collect();
        let idx: Vec<usize> = (0..n * k).map(|_| rng.gen_range(0..n)).collect();
        let t = Tensor::from_vec(h.clone(), &[n, c]);
        let layouts: [&[EdgePart]; 7] = [
            &[Source],
            &[Target],
            &[Rel],
            &[Distance],
            &[Source, Rel],
            &[Target, Rel],
            &[Target, Source, Rel],
        ];
        for parts in layouts {
            for how in Reduction::ALL {
                let runs = on_both_paths(|| {
                    let nbr = gather_rows(&t, &idx);
                    let ctr = repeat_rows(&t, k);
                    let rel = nbr.sub(&ctr);
                    let cols: Vec<Tensor> = parts
                        .iter()
                        .map(|p| match p {
                            Target => ctr.clone(),
                            Source => nbr.clone(),
                            Rel => rel.clone(),
                            Distance => row_norms(&rel),
                        })
                        .collect();
                    let msg = concat_cols(&cols.iter().collect::<Vec<_>>());
                    let w = msg.dims()[1];
                    let chain = reduce_mid_axis(&msg.reshape(&[n, k, w]), how);
                    let spec = EdgeAggregate { h: &h, c, idx: &idx, k, parts, how };
                    let tracks = matches!(how, Reduction::Max | Reduction::Min);
                    let mut args = vec![0u16; if tracks { n * w } else { 0 }];
                    let fused = spec.forward(tracks.then_some(args.as_mut_slice()));
                    let args: Vec<usize> = args.into_iter().map(usize::from).collect();
                    (chain, Tensor::from_vec(fused, &[n, w]), args)
                });
                for (chain, fused, args) in [runs.0, runs.1] {
                    prop_assert!(bits_eq(&chain.values, &fused), "{parts:?}/{how} values");
                    prop_assert_eq!(chain.args, args);
                }
            }
        }
    }
}
