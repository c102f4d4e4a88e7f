//! The fused edge-aggregate tape op against the op chain it replaced.
//!
//! For every message type and every reduction, on both lane paths, the
//! fused op must reproduce the chain's forward values and the gradient of
//! `h` bit for bit. Inputs mix ties, ±0.0, an optional NaN row, and an `h`
//! that is also consumed downstream (so its gradient already holds a value
//! when the aggregate's backward adds into it).

use hgnas_autograd::{Reduction, Tape, Var};
use hgnas_ops::MessageType;
use hgnas_tensor::simd::{self, LanePath};
use hgnas_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-fusion message construction, verbatim.
fn chain(
    tape: &mut Tape,
    h: Var,
    idx: &[usize],
    k: usize,
    msg: MessageType,
    how: Reduction,
) -> Var {
    let nbr = tape.gather_rows(h, idx);
    let ctr = tape.repeat_rows(h, k);
    let message = match msg {
        MessageType::SourcePos => nbr,
        MessageType::TargetPos => ctr,
        MessageType::RelPos => tape.sub(nbr, ctr),
        MessageType::Distance => {
            let rel = tape.sub(nbr, ctr);
            tape.row_norms(rel)
        }
        MessageType::SourceRel => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[nbr, rel])
        }
        MessageType::TargetRel => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[ctr, rel])
        }
        MessageType::Full => {
            let rel = tape.sub(nbr, ctr);
            tape.concat_cols(&[ctr, nbr, rel])
        }
    };
    tape.reduce_mid(message, k, how)
}

/// One randomised case: features, neighbour table and loss weights.
struct Case {
    h: Tensor,
    idx: Vec<usize>,
    k: usize,
    /// Weights of the downstream `sum(h ∘ u)` term.
    u: Tensor,
    seed: u64,
}

fn case(seed: u64, n: usize, c: usize, k: usize, nan_row: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    // A small value alphabet forces exact ties in max/min and in the
    // relative vectors; the signed zeros exercise `+0.0` accumulation.
    let pick = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        _ => rng.gen_range(-3.0f32..3.0),
    };
    let mut data: Vec<f32> = (0..n * c).map(|_| pick(&mut rng)).collect();
    if nan_row {
        let r = rng.gen_range(0..n);
        data[r * c..(r + 1) * c].fill(f32::NAN);
    }
    let idx = (0..n * k).map(|_| rng.gen_range(0..n)).collect();
    let u = (0..n * c).map(|_| pick(&mut rng)).collect();
    Case {
        h: Tensor::from_vec(data, &[n, c]),
        idx,
        k,
        u: Tensor::from_vec(u, &[n, c]),
        seed,
    }
}

/// Runs one aggregate (fused or chain) with `h` trained through it and
/// through a downstream term; returns the output bits and `h`'s grad bits.
fn run(case: &Case, msg: MessageType, how: Reduction, fused: bool) -> (Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let h = tape.param(case.h.clone());
    let out = if fused {
        tape.edge_aggregate(h, &case.idx, case.k, msg.parts(), how)
    } else {
        chain(&mut tape, h, &case.idx, case.k, msg, how)
    };
    let dims = tape.value(out).dims().to_vec();
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5eed);
    let r: Vec<f32> = (0..dims[0] * dims[1])
        .map(|_| match rng.gen_range(0..4) {
            0 => 0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    let r = tape.input(Tensor::from_vec(r, &dims));
    let weighted = tape.mul(out, r);
    let loss_agg = tape.sum_all(weighted);
    // Recorded after the aggregate, so the reverse sweep gives `h` this
    // gradient first and the aggregate's backward adds into it.
    let u = tape.input(case.u.clone());
    let hu = tape.mul(h, u);
    let loss_h = tape.sum_all(hu);
    let loss = tape.add(loss_agg, loss_h);
    tape.backward(loss);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    (bits(tape.value(out)), bits(tape.grad(h).unwrap()))
}

/// Frozen forward (no grad tracking): the fused op must produce the
/// chain's values without recording winner args.
fn frozen(case: &Case, msg: MessageType, how: Reduction, fused: bool) -> Vec<u32> {
    let mut tape = Tape::new();
    let h = tape.input(case.h.clone());
    let out = if fused {
        tape.edge_aggregate(h, &case.idx, case.k, msg.parts(), how)
    } else {
        chain(&mut tape, h, &case.idx, case.k, msg, how)
    };
    tape.value(out).data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_matches_chain_bit_for_bit(
        seed in 0u64..10_000, n in 2usize..12, c in 1usize..20, k in 1usize..6, nan in 0u32..4
    ) {
        let case = case(seed, n, c, k, nan == 0);
        for path in [LanePath::Scalar, LanePath::Avx2] {
            simd::with_path(path, || {
                for msg in MessageType::ALL {
                    for how in Reduction::ALL {
                        let want = run(&case, msg, how, false);
                        let got = run(&case, msg, how, true);
                        assert_eq!(got.0, want.0, "{msg:?}/{how:?} values on {path}");
                        assert_eq!(got.1, want.1, "{msg:?}/{how:?} grad of h on {path}");
                        assert_eq!(
                            frozen(&case, msg, how, true),
                            frozen(&case, msg, how, false),
                            "{msg:?}/{how:?} frozen values on {path}"
                        );
                    }
                }
            });
        }
    }
}

#[test]
#[should_panic(expected = "out of bounds")]
fn out_of_bounds_neighbour_panics() {
    let mut tape = Tape::new();
    let h = tape.input(Tensor::zeros(&[3, 2]));
    tape.edge_aggregate(
        h,
        &[0, 1, 2, 3, 0, 1],
        2,
        MessageType::Full.parts(),
        Reduction::Max,
    );
}
