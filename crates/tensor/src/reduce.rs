//! Axis reductions with argument tracking.
//!
//! The GNN executor reduces neighbour messages laid out as `[n, k, c]` over
//! the middle axis, and pools per-cloud node features `[n, c]` over the rows.
//! Max/min reductions also return the winning indices so that the autograd
//! layer can route gradients.
//!
//! Sum/mean accumulate through the lane kernels in [`crate::simd`]
//! (elementwise over the feature axis, so per-element accumulation order —
//! and therefore every bit of the result — is independent of the lane
//! path). Max/min stay scalar: the winning-index tracking is inherently
//! branchy, and the comparison loop is cheap next to the matmuls feeding
//! it.

use crate::simd;
use crate::Tensor;

/// Result of an arg-tracked reduction: the reduced values plus, for max/min,
/// the flat index (into the reduced axis) of each winning element.
#[derive(Debug, Clone)]
pub struct ArgReduce {
    /// The reduced tensor.
    pub values: Tensor,
    /// For each output element, the index along the reduced axis that won.
    pub args: Vec<usize>,
}

/// Which reduction to apply over an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum (arg-tracked).
    Max,
    /// Minimum (arg-tracked).
    Min,
}

impl Reduction {
    /// All supported reductions, in a stable order.
    pub const ALL: [Reduction; 4] = [
        Reduction::Sum,
        Reduction::Mean,
        Reduction::Max,
        Reduction::Min,
    ];
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reduction::Sum => "sum",
            Reduction::Mean => "mean",
            Reduction::Max => "max",
            Reduction::Min => "min",
        };
        f.write_str(s)
    }
}

/// Reduces a `[n, k, c]` tensor over its middle axis, producing `[n, c]`.
///
/// For `Max`/`Min` the returned [`ArgReduce::args`] holds, for every `(n, c)`
/// output element, the winning `k` index; for `Sum`/`Mean` it is empty.
///
/// # Panics
///
/// Panics if `t` is not 3-D.
pub fn reduce_mid_axis(t: &Tensor, how: Reduction) -> ArgReduce {
    assert_eq!(
        t.shape().rank(),
        3,
        "reduce_mid_axis requires [n,k,c], got {}",
        t.shape()
    );
    let (n, k, c) = (t.dims()[0], t.dims()[1], t.dims()[2]);
    reduce_groups(t.data(), n, k, c, how)
}

/// [`reduce_mid_axis`] over a borrowed row-major `[n*k, c]` buffer: reduces
/// each run of `k` consecutive rows, producing `[n, c]`. No copy of the
/// input is made.
///
/// # Panics
///
/// Panics if `d.len() != n*k*c`.
pub fn reduce_groups(d: &[f32], n: usize, k: usize, c: usize, how: Reduction) -> ArgReduce {
    assert_eq!(
        d.len(),
        n * k * c,
        "reduce_groups: buffer is not [{n}*{k}, {c}]"
    );
    let mut values = vec![0.0f32; n * c];
    let mut args = Vec::new();
    match how {
        Reduction::Sum | Reduction::Mean => {
            for i in 0..n {
                for kk in 0..k {
                    let row = &d[(i * k + kk) * c..(i * k + kk + 1) * c];
                    simd::add_assign(&mut values[i * c..(i + 1) * c], row);
                }
            }
            if how == Reduction::Mean {
                simd::scale(&mut values, 1.0 / k as f32);
            }
        }
        Reduction::Max | Reduction::Min => {
            args = vec![0usize; n * c];
            let better = |a: f32, b: f32| match how {
                Reduction::Max => a > b,
                _ => a < b,
            };
            for i in 0..n {
                let out = &mut values[i * c..(i + 1) * c];
                let arg = &mut args[i * c..(i + 1) * c];
                out.copy_from_slice(&d[i * k * c..(i * k + 1) * c]);
                for kk in 1..k {
                    let row = &d[(i * k + kk) * c..(i * k + kk + 1) * c];
                    for j in 0..c {
                        if better(row[j], out[j]) {
                            out[j] = row[j];
                            arg[j] = kk;
                        }
                    }
                }
            }
        }
    }
    ArgReduce {
        values: Tensor::from_vec(values, &[n, c]),
        args,
    }
}

/// Reduces the rows of a `[n, c]` tensor, producing `[c]`. Used for global
/// pooling over the points of one cloud.
///
/// # Panics
///
/// Panics if `t` is not 2-D.
pub fn reduce_rows(t: &Tensor, how: Reduction) -> ArgReduce {
    assert_eq!(
        t.shape().rank(),
        2,
        "reduce_rows requires [n,c], got {}",
        t.shape()
    );
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let r = reduce_groups(t.data(), 1, n, c, how);
    ArgReduce {
        values: Tensor::from_vec(r.values.into_vec(), &[c]),
        args: r.args,
    }
}

/// Segment-reduces the rows of a `[n, c]` tensor according to contiguous
/// segment lengths (e.g. pooling a batched cloud tensor per cloud),
/// producing `[segments.len(), c]`.
///
/// # Panics
///
/// Panics if `t` is not 2-D, any segment is empty, or the lengths do not sum
/// to `n`.
pub fn segment_reduce_rows(t: &Tensor, segments: &[usize], how: Reduction) -> ArgReduce {
    assert_eq!(t.shape().rank(), 2, "segment_reduce_rows requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    assert_eq!(
        segments.iter().sum::<usize>(),
        n,
        "segment lengths must sum to row count"
    );
    assert!(
        segments.iter().all(|&s| s > 0),
        "segments must be non-empty"
    );
    let d = t.data();
    let s = segments.len();
    let mut values = vec![0.0f32; s * c];
    let mut args = Vec::new();
    let track = matches!(how, Reduction::Max | Reduction::Min);
    if track {
        args = vec![0usize; s * c];
    }
    let mut row0 = 0usize;
    for (si, &len) in segments.iter().enumerate() {
        let out = &mut values[si * c..(si + 1) * c];
        match how {
            Reduction::Sum | Reduction::Mean => {
                for r in row0..row0 + len {
                    simd::add_assign(out, &d[r * c..(r + 1) * c]);
                }
                if how == Reduction::Mean {
                    simd::scale(out, 1.0 / len as f32);
                }
            }
            Reduction::Max | Reduction::Min => {
                let arg = &mut args[si * c..(si + 1) * c];
                out.copy_from_slice(&d[row0 * c..(row0 + 1) * c]);
                for (off, r) in (row0..row0 + len).enumerate().skip(1) {
                    let row = &d[r * c..(r + 1) * c];
                    for j in 0..c {
                        let win = match how {
                            Reduction::Max => row[j] > out[j],
                            _ => row[j] < out[j],
                        };
                        if win {
                            out[j] = row[j];
                            arg[j] = off;
                        }
                    }
                }
            }
        }
        row0 += len;
    }
    ArgReduce {
        values: Tensor::from_vec(values, &[s, c]),
        args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t3() -> Tensor {
        // n=2, k=3, c=2
        Tensor::from_vec(
            vec![
                1.0, 9.0, 2.0, 8.0, 3.0, 7.0, // node 0
                -1.0, 0.0, -2.0, 5.0, -3.0, 2.0, // node 1
            ],
            &[2, 3, 2],
        )
    }

    #[test]
    fn mid_axis_sum_mean() {
        let r = reduce_mid_axis(&t3(), Reduction::Sum);
        assert_eq!(r.values.data(), &[6.0, 24.0, -6.0, 7.0]);
        let r = reduce_mid_axis(&t3(), Reduction::Mean);
        assert!(r.values.allclose(
            &Tensor::from_vec(vec![2.0, 8.0, -2.0, 7.0 / 3.0], &[2, 2]),
            1e-6
        ));
        assert!(r.args.is_empty());
    }

    #[test]
    fn mid_axis_max_tracks_args() {
        let r = reduce_mid_axis(&t3(), Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 9.0, -1.0, 5.0]);
        assert_eq!(r.args, vec![2, 0, 0, 1]);
    }

    #[test]
    fn mid_axis_min_tracks_args() {
        let r = reduce_mid_axis(&t3(), Reduction::Min);
        assert_eq!(r.values.data(), &[1.0, 7.0, -3.0, 0.0]);
        assert_eq!(r.args, vec![0, 2, 2, 0]);
    }

    #[test]
    fn rows_pooling() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[2, 2]);
        let r = reduce_rows(&t, Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 5.0]);
        assert_eq!(r.args, vec![1, 0]);
    }

    #[test]
    fn segments_match_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0], &[3, 2]);
        let r = segment_reduce_rows(&t, &[2, 1], Reduction::Mean);
        assert_eq!(r.values.data(), &[2.0, 3.0, 10.0, 20.0]);
        let r = segment_reduce_rows(&t, &[2, 1], Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 4.0, 10.0, 20.0]);
        assert_eq!(r.args, vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "sum to row count")]
    fn bad_segments_panic() {
        segment_reduce_rows(&Tensor::zeros(&[3, 2]), &[2, 2], Reduction::Sum);
    }
}
