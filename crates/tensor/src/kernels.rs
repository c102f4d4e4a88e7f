//! Row gather/scatter and layout kernels used by graph message passing.
//!
//! The accumulating kernels ([`scatter_add_rows`], [`fold_rows`]) run their
//! per-row feature loop through [`crate::simd::add_assign`] — elementwise
//! over the feature axis, so the lane path never changes a bit.
//! [`row_norms`] contracts with [`crate::simd::dot`]'s fixed
//! multi-accumulator schedule (same on every path). The pure-copy kernels
//! ([`gather_rows`], [`repeat_rows`], [`concat_cols`], [`split_cols`])
//! append straight into uninitialised capacity (`extend_from_slice`) — a
//! single `memcpy` pass per row instead of a zero-fill followed by a copy;
//! copies move bits, so no lane/scalar distinction exists for them.
//!
//! [`EdgeAggregate`] (forward and backward) fuses the whole
//! message-passing chain — gather, repeat, subtract, norm, concat and the
//! neighbour reduction — into one pass over the `[n, c]` node features.
//! Each edge's message row is built in a scratch row and reduced straight
//! into the output, with exactly the per-element operations (and order) the
//! chain's separate kernels perform, so results are bit-identical to it.

use crate::reduce::Reduction;
use crate::simd;
use crate::Tensor;

/// Gathers rows of a `[n, c]` tensor: `out[i] = t[idx[i]]`, producing
/// `[idx.len(), c]`.
///
/// This is the forward of neighbour-feature lookup; its adjoint is
/// [`scatter_add_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or any index is out of bounds.
pub fn gather_rows(t: &Tensor, idx: &[usize]) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "gather_rows requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = Vec::with_capacity(idx.len() * c);
    for &src in idx {
        assert!(src < n, "gather index {src} out of bounds for {n} rows");
        out.extend_from_slice(&d[src * c..(src + 1) * c]);
    }
    Tensor::from_vec(out, &[idx.len(), c])
}

/// Scatter-adds rows of `src` (`[idx.len(), c]`) into a fresh `[n, c]`
/// accumulator: `out[idx[i]] += src[i]`. Adjoint of [`gather_rows`].
///
/// # Panics
///
/// Panics if `src` is not 2-D, `src` row count differs from `idx.len()`, or
/// any index is out of bounds.
pub fn scatter_add_rows(src: &Tensor, idx: &[usize], n: usize) -> Tensor {
    assert_eq!(src.shape().rank(), 2, "scatter_add_rows requires [m,c]");
    assert_eq!(src.dims()[0], idx.len(), "row count must equal index count");
    let c = src.dims()[1];
    let d = src.data();
    let mut out = vec![0.0f32; n * c];
    for (i, &dst) in idx.iter().enumerate() {
        assert!(dst < n, "scatter index {dst} out of bounds for {n} rows");
        simd::add_assign(&mut out[dst * c..(dst + 1) * c], &d[i * c..(i + 1) * c]);
    }
    Tensor::from_vec(out, &[n, c])
}

/// Repeats each row of a `[n, c]` tensor `k` times consecutively, producing
/// `[n*k, c]`. This is the "target" side of an edge-feature expansion with a
/// fixed neighbourhood size `k`; its adjoint is [`fold_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or `k == 0`.
pub fn repeat_rows(t: &Tensor, k: usize) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "repeat_rows requires [n,c]");
    assert!(k > 0, "k must be positive");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = Vec::with_capacity(n * k * c);
    for i in 0..n {
        let row = &d[i * c..(i + 1) * c];
        for _ in 0..k {
            out.extend_from_slice(row);
        }
    }
    Tensor::from_vec(out, &[n * k, c])
}

/// Sums every group of `k` consecutive rows of a `[n*k, c]` tensor, producing
/// `[n, c]`. Adjoint of [`repeat_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or its row count is not a multiple of `k`.
pub fn fold_rows(t: &Tensor, k: usize) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "fold_rows requires [m,c]");
    assert!(
        k > 0 && t.dims()[0].is_multiple_of(k),
        "row count must be a multiple of k"
    );
    let n = t.dims()[0] / k;
    let c = t.dims()[1];
    let d = t.data();
    let mut out = vec![0.0f32; n * c];
    for i in 0..n {
        let acc = &mut out[i * c..(i + 1) * c];
        for kk in 0..k {
            simd::add_assign(acc, &d[(i * k + kk) * c..(i * k + kk + 1) * c]);
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Concatenates 2-D tensors along the feature (column) axis.
///
/// # Panics
///
/// Panics if `parts` is empty, any part is not 2-D, or row counts differ.
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols needs at least one part");
    let n = parts[0].dims()[0];
    for p in parts {
        assert_eq!(p.shape().rank(), 2, "concat_cols requires 2-D parts");
        assert_eq!(p.dims()[0], n, "concat_cols row counts differ");
    }
    let total_c: usize = parts.iter().map(|p| p.dims()[1]).sum();
    let mut out = Vec::with_capacity(n * total_c);
    for i in 0..n {
        for p in parts {
            let c = p.dims()[1];
            out.extend_from_slice(&p.data()[i * c..(i + 1) * c]);
        }
    }
    Tensor::from_vec(out, &[n, total_c])
}

/// Splits a 2-D tensor column-wise into chunks of the given widths. Inverse
/// of [`concat_cols`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or the widths do not sum to the column count.
pub fn split_cols(t: &Tensor, widths: &[usize]) -> Vec<Tensor> {
    assert_eq!(t.shape().rank(), 2, "split_cols requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    assert_eq!(
        widths.iter().sum::<usize>(),
        c,
        "widths must sum to column count"
    );
    let d = t.data();
    let mut outs = Vec::with_capacity(widths.len());
    let mut off = 0usize;
    for &w in widths {
        let mut data = Vec::with_capacity(n * w);
        for i in 0..n {
            data.extend_from_slice(&d[i * c + off..i * c + off + w]);
        }
        outs.push(Tensor::from_vec(data, &[n, w]));
        off += w;
    }
    outs
}

/// Per-row Euclidean norm of a `[n, c]` tensor, producing `[n, 1]`.
///
/// # Panics
///
/// Panics if `t` is not 2-D.
pub fn row_norms(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "row_norms requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = vec![0.0f32; n];
    for i in 0..n {
        let row = &d[i * c..(i + 1) * c];
        out[i] = simd::dot(row, row).sqrt();
    }
    Tensor::from_vec(out, &[n, 1])
}

/// Guards the division in the distance message's backward pass (the same
/// epsilon the autograd norm backward uses).
const EPS: f32 = 1e-8;

/// One column block of an edge message. For the edge from neighbour `j`
/// into target `i` of `[n, c]` node features `h`, a message is the
/// concatenation of its parts, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgePart {
    /// `h[i]`, the target node's own features (`c` wide).
    Target,
    /// `h[j]`, the neighbour's features (`c` wide).
    Source,
    /// `h[j] - h[i]` (`c` wide).
    Rel,
    /// `‖h[j] - h[i]‖₂` (one column); must be the message's only part.
    Distance,
}

impl EdgePart {
    /// Column width of this part over `c`-wide node features.
    pub fn width(self, c: usize) -> usize {
        match self {
            EdgePart::Distance => 1,
            _ => c,
        }
    }
}

/// Per-edge scratch: the relative vector `h[j] - h[i]` and its norm, computed
/// exactly as the chain's `sub` and `row_norms` kernels do, and only when
/// the message reads them.
struct EdgeScratch {
    rel: Vec<f32>,
    norm: f32,
    needs_rel: bool,
    needs_norm: bool,
}

impl EdgeScratch {
    fn new(c: usize, parts: &[EdgePart]) -> Self {
        let needs_norm = parts.contains(&EdgePart::Distance);
        EdgeScratch {
            rel: vec![0.0; c],
            norm: 0.0,
            needs_rel: needs_norm || parts.contains(&EdgePart::Rel),
            needs_norm,
        }
    }

    fn load(&mut self, hi: &[f32], hj: &[f32]) {
        if self.needs_rel {
            self.rel.copy_from_slice(hj);
            simd::sub_assign(&mut self.rel, hi);
        }
        if self.needs_norm {
            self.norm = simd::dot(&self.rel, &self.rel).sqrt();
        }
    }
}

/// Keeps, per element, the strictly better of `acc` and `row` (`MAX`: the
/// larger, else the smaller), recording slot `kk` in `arg` on a win.
fn keep_better<const MAX: bool>(acc: &mut [f32], arg: Option<&mut [u16]>, row: &[f32], kk: u16) {
    let better = |v: f32, o: f32| if MAX { v > o } else { v < o };
    match arg {
        Some(arg) => {
            for ((o, a), &v) in acc.iter_mut().zip(arg).zip(row) {
                if better(v, *o) {
                    *o = v;
                    *a = kk;
                }
            }
        }
        None => {
            for (o, &v) in acc.iter_mut().zip(row) {
                if better(v, *o) {
                    *o = v;
                }
            }
        }
    }
}

/// The gradient halves [`EdgeAggregate::backward`] routes back into `h`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeGrads {
    /// `[n, c]` target-side gradient (the adjoint of repeating each node's
    /// row `k` times), present when the message reads the target.
    pub fold: Option<Vec<f32>>,
    /// `[n, c]` source-side gradient (the adjoint of gathering neighbour
    /// rows), present when the message reads the source.
    pub scatter: Option<Vec<f32>>,
}

/// Fused message passing over a fixed-fanout graph: every node `i` of the
/// `[n, c]` features `h` (row-major) reduces, with `how`, the messages of
/// its `k` incoming edges `idx[i*k + kk] -> i`. A message is the
/// concatenation of `parts`, `w` columns in all.
///
/// The forward builds each edge's message in a `w`-float scratch row and
/// reduces it straight into `[n, w]`; nothing per-edge is materialised.
/// Both passes are bit-identical to the chain they replace — gather the
/// neighbour rows, repeat the target rows, subtract, take row norms,
/// concatenate, then [`crate::reduce::reduce_mid_axis`] — because every
/// element sees the same IEEE operations in the same order.
#[derive(Debug, Clone, Copy)]
pub struct EdgeAggregate<'a> {
    /// `[n, c]` node features, row-major.
    pub h: &'a [f32],
    /// Feature width of `h`.
    pub c: usize,
    /// `n*k` source indices, `k` consecutive ones per target node.
    pub idx: &'a [usize],
    /// Fixed fanout.
    pub k: usize,
    /// The message layout; no part repeats and `Distance` stands alone.
    pub parts: &'a [EdgePart],
    /// The neighbour reduction.
    pub how: Reduction,
}

impl EdgeAggregate<'_> {
    /// Checks the shape contract and returns `(n, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not whole `c`-wide rows, `k == 0`,
    /// `idx.len() != n*k`, or the layout is empty, repeats a part or
    /// combines `Distance` with another part.
    pub fn shape(&self) -> (usize, usize) {
        let (c, k, parts) = (self.c, self.k, self.parts);
        assert!(c > 0 && self.h.len().is_multiple_of(c), "h is not [n, {c}]");
        let n = self.h.len() / c;
        assert!(k > 0, "k must be positive");
        assert_eq!(
            self.idx.len(),
            n * k,
            "need k={k} neighbour indices per node"
        );
        assert!(!parts.is_empty(), "an edge message needs at least one part");
        for (i, p) in parts.iter().enumerate() {
            assert!(!parts[..i].contains(p), "edge part {p:?} repeated");
        }
        assert!(
            parts.len() == 1 || !parts.contains(&EdgePart::Distance),
            "the distance part must stand alone"
        );
        (n, parts.iter().map(|p| p.width(c)).sum())
    }

    fn tracks_args(&self) -> bool {
        matches!(self.how, Reduction::Max | Reduction::Min)
    }

    /// Column offset of `want` in the message row, if the layout has it.
    fn offset(&self, want: EdgePart) -> Option<usize> {
        let pos = self.parts.iter().position(|&p| p == want)?;
        Some(self.parts[..pos].iter().map(|p| p.width(self.c)).sum())
    }

    /// Forward pass, producing `[n, w]`:
    ///
    /// - Sum and Mean start from `+0.0` and add message rows in neighbour
    ///   order; Mean then scales once by `1/k`.
    /// - Max and Min copy the first message row, then keep strictly better
    ///   values. When `args` is given (`[n, w]`, Max/Min only), it receives
    ///   each output element's winning neighbour slot.
    ///
    /// # Panics
    ///
    /// Panics on a [`EdgeAggregate::shape`] violation, an out-of-bounds
    /// index, a `k` that overflows `u16` args, or misshapen `args`.
    pub fn forward(&self, mut args: Option<&mut [u16]>) -> Vec<f32> {
        let (n, w) = self.shape();
        let (h, c, k) = (self.h, self.c, self.k);
        let tracks = self.tracks_args();
        if let Some(a) = args.as_deref() {
            assert!(tracks, "winner args exist only for max/min");
            assert!(k <= usize::from(u16::MAX) + 1, "k={k} overflows u16 args");
            assert_eq!(a.len(), n * w, "args must be [n, w]");
        }
        let mut out = vec![0.0f32; n * w];
        let mut row = vec![0.0f32; w];
        let mut edge = EdgeScratch::new(c, self.parts);
        for i in 0..n {
            let hi = &h[i * c..(i + 1) * c];
            let acc = &mut out[i * w..(i + 1) * w];
            for kk in 0..k {
                let j = self.idx[i * k + kk];
                assert!(j < n, "gather index {j} out of bounds for {n} rows");
                let hj = &h[j * c..(j + 1) * c];
                edge.load(hi, hj);
                let mut off = 0;
                for &p in self.parts {
                    let dst = &mut row[off..off + p.width(c)];
                    match p {
                        EdgePart::Target => dst.copy_from_slice(hi),
                        EdgePart::Source => dst.copy_from_slice(hj),
                        EdgePart::Rel => dst.copy_from_slice(&edge.rel),
                        EdgePart::Distance => dst[0] = edge.norm,
                    }
                    off += dst.len();
                }
                if !tracks {
                    simd::add_assign(acc, &row);
                } else if kk == 0 {
                    acc.copy_from_slice(&row);
                } else {
                    let arg = args.as_deref_mut().map(|a| &mut a[i * w..(i + 1) * w]);
                    if self.how == Reduction::Max {
                        keep_better::<true>(acc, arg, &row, kk as u16);
                    } else {
                        keep_better::<false>(acc, arg, &row, kk as u16);
                    }
                }
            }
        }
        if self.how == Reduction::Mean {
            simd::scale(&mut out, 1.0 / k as f32);
        }
        out
    }

    /// Backward pass given the output gradient `g` (`[n, w]`) and, for
    /// Max/Min, the `args` the forward recorded.
    ///
    /// Reproduces the chain's arithmetic per edge. The message gradient row
    /// is `g` (Sum), `g·(1/k)` scaled once per node (Mean), or `g` at the
    /// winning slot and `+0.0` elsewhere (Max/Min); a distance part turns it
    /// into `g·rel / max(norm, ε)` for the relative vector. The source side
    /// then receives `g_source + g_rel` and the target side
    /// `g_target + g_rel·(−1)`; an absent part contributes no addition at
    /// all. Target rows are summed per node from `+0.0` in neighbour order
    /// (as [`fold_rows`] does), source rows scatter-added in edge order (as
    /// [`scatter_add_rows`] does). The caller adds [`EdgeGrads::fold`] into
    /// the gradient of `h` before [`EdgeGrads::scatter`], the order of the
    /// chain's reverse sweep.
    ///
    /// # Panics
    ///
    /// Panics on a [`EdgeAggregate::shape`] violation, an out-of-bounds
    /// index, `g.len() != n*w`, or Max/Min without `[n, w]` args.
    pub fn backward(&self, args: &[u16], g: &[f32]) -> EdgeGrads {
        let (n, w) = self.shape();
        let (h, c, k) = (self.h, self.c, self.k);
        assert_eq!(g.len(), n * w, "output gradient must be [n, w]");
        let tracks = self.tracks_args();
        if tracks {
            assert_eq!(args.len(), n * w, "max/min backward needs [n, w] args");
        }
        let (target_at, source_at) = (self.offset(EdgePart::Target), self.offset(EdgePart::Source));
        let rel_at = self.offset(EdgePart::Rel);
        let distance = self.parts.contains(&EdgePart::Distance);
        let has_rel = distance || rel_at.is_some();
        let mut fold = (has_rel || target_at.is_some()).then(|| vec![0.0f32; n * c]);
        let mut scatter = (has_rel || source_at.is_some()).then(|| vec![0.0f32; n * c]);
        let inv = 1.0 / k as f32;
        // The chain negates through a runtime multiply; a literal `-1.0`
        // lets the optimiser turn `x * -1.0` into a sign flip, which
        // differs from the multiply on NaN (the multiply keeps the sign).
        let minus_one = std::hint::black_box(-1.0f32);

        let mut gm = vec![0.0f32; w];
        let mut g_rel = vec![0.0f32; c];
        let mut neg = vec![0.0f32; c];
        let mut side = vec![0.0f32; c];
        let mut edge = EdgeScratch::new(c, self.parts);
        for i in 0..n {
            let gi = &g[i * w..(i + 1) * w];
            match self.how {
                Reduction::Sum => gm.copy_from_slice(gi),
                Reduction::Mean => {
                    gm.copy_from_slice(gi);
                    simd::scale(&mut gm, inv);
                }
                Reduction::Max | Reduction::Min => {}
            }
            let hi = &h[i * c..(i + 1) * c];
            for kk in 0..k {
                let j = self.idx[i * k + kk];
                assert!(j < n, "scatter index {j} out of bounds for {n} rows");
                if tracks {
                    let ai = &args[i * w..(i + 1) * w];
                    for ((m, &a), &v) in gm.iter_mut().zip(ai).zip(gi) {
                        *m = if usize::from(a) == kk { v } else { 0.0 };
                    }
                }
                if distance {
                    edge.load(hi, &h[j * c..(j + 1) * c]);
                    let nv = edge.norm.max(EPS);
                    for (r, &x) in g_rel.iter_mut().zip(&edge.rel) {
                        *r = gm[0] * x / nv;
                    }
                } else if let Some(off) = rel_at {
                    g_rel.copy_from_slice(&gm[off..off + c]);
                }
                if has_rel {
                    neg.copy_from_slice(&g_rel);
                    simd::scale(&mut neg, minus_one);
                }
                if let Some(fold) = fold.as_mut() {
                    let t = match target_at {
                        Some(off) => {
                            side.copy_from_slice(&gm[off..off + c]);
                            if has_rel {
                                simd::add_assign(&mut side, &neg);
                            }
                            &side
                        }
                        None => &neg,
                    };
                    simd::add_assign(&mut fold[i * c..(i + 1) * c], t);
                }
                if let Some(scatter) = scatter.as_mut() {
                    let s = match source_at {
                        Some(off) => {
                            side.copy_from_slice(&gm[off..off + c]);
                            if has_rel {
                                simd::add_assign(&mut side, &g_rel);
                            }
                            &side
                        }
                        None => &g_rel,
                    };
                    simd::add_assign(&mut scatter[j * c..(j + 1) * c], s);
                }
            }
        }
        EdgeGrads { fold, scatter }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])
    }

    #[test]
    fn gather_then_scatter_is_count_weighted_identity() {
        let t = m23();
        let idx = [1, 0, 1];
        let g = gather_rows(&t, &idx);
        assert_eq!(g.dims(), &[3, 3]);
        assert_eq!(&g.data()[0..3], &[4.0, 5.0, 6.0]);
        let s = scatter_add_rows(&g, &idx, 2);
        // Row 0 appears once, row 1 twice.
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn repeat_fold_adjoint_pair() {
        let t = m23();
        let r = repeat_rows(&t, 4);
        assert_eq!(r.dims(), &[8, 3]);
        let f = fold_rows(&r, 4);
        assert!(f.allclose(&t.scale(4.0), 1e-6));
    }

    #[test]
    fn concat_split_round_trip() {
        let a = m23();
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let cat = concat_cols(&[&a, &b]);
        assert_eq!(cat.dims(), &[2, 4]);
        assert_eq!(cat.at2(0, 3), 9.0);
        let parts = split_cols(&cat, &[3, 1]);
        assert!(parts[0].allclose(&a, 0.0));
        assert!(parts[1].allclose(&b, 0.0));
    }

    #[test]
    fn norms_match_hand_math() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let n = row_norms(&t);
        assert_eq!(n.data(), &[5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        gather_rows(&m23(), &[5]);
    }
}
