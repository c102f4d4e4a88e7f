//! Absolute numeric goldens: pinned bits of supernet training, stand-alone
//! model training and one tiny search.
//!
//! The lane golden and the fleet/daemon matrices compare two paths of the
//! same build, so a kernel change that moves every path by the same ulp
//! passes them. These values were computed before the fused edge-aggregate
//! op replaced the gather/repeat/sub/concat/reduce chain, and must never be
//! re-pinned by a performance change: a mismatch means results changed.
//!
//! The function sets below cover all 7 message types and all 4
//! aggregators, with KNN on hidden features, random sampling and skip
//! connections on the way.

use hgnas_core::search::{Hgnas, LatencyMode, SearchConfig, TaskConfig};
use hgnas_core::Supernet;
use hgnas_device::DeviceKind;
use hgnas_nn::{Module, Optimizer};
use hgnas_ops::train::{fit, FitConfig};
use hgnas_ops::{
    Aggregator, Architecture, ConnectFn, FunctionSet, GnnModel, MessageType, OpType, Operation,
    SampleFn,
};
use hgnas_pointcloud::{DatasetConfig, SynthNet40};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of 32-bit words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fs(message: MessageType, aggregator: Aggregator, sample: SampleFn) -> FunctionSet {
    FunctionSet {
        aggregator,
        message,
        sample,
        connect: ConnectFn::Skip,
        combine_dim: 16,
    }
}

/// `(upper, lower)` function-set pairs: together every message type and
/// every aggregator appears.
fn supernet_sets() -> [(FunctionSet, FunctionSet); 4] {
    use Aggregator::*;
    use MessageType::*;
    [
        (
            fs(SourcePos, Sum, SampleFn::Knn),
            fs(TargetPos, Mean, SampleFn::Knn),
        ),
        (
            fs(RelPos, Max, SampleFn::Knn),
            fs(Distance, Min, SampleFn::Random),
        ),
        (
            fs(SourceRel, Mean, SampleFn::Random),
            fs(TargetRel, Max, SampleFn::Knn),
        ),
        (
            fs(Full, Min, SampleFn::Knn),
            fs(Distance, Sum, SampleFn::Knn),
        ),
    ]
}

/// Two aggregates in each half, a KNN re-sample on hidden features in the
/// lower half, and a skip connection, so every fixed-path step runs both
/// function sets' aggregates forward and backward.
const FIXED_PATH: [OpType; 6] = [
    OpType::Aggregate,
    OpType::Combine,
    OpType::Aggregate,
    OpType::Sample,
    OpType::Aggregate,
    OpType::Connect,
];

/// What one supernet run produced, as bits.
#[derive(Debug, PartialEq, Eq)]
struct SupernetBits {
    losses: Vec<u32>,
    weights: u64,
    accs: Vec<u64>,
}

fn supernet_bits(upper: FunctionSet, lower: FunctionSet) -> SupernetBits {
    let ds = SynthNet40::generate(&DatasetConfig::tiny(31));
    let mut rng = StdRng::seed_from_u64(31);
    let mut sn = Supernet::new(&mut rng, 6, 16, 8, ds.classes, upper, lower, &[16]);
    let batches = SynthNet40::batches(&ds.train, 8);
    let mut opt = Optimizer::adam(3e-3);
    let mut losses: Vec<u32> = (0..2)
        .map(|_| sn.train_epoch(&batches, &mut opt, &mut rng).to_bits())
        .collect();
    for batch in &batches {
        let mut tape = hgnas_autograd::Tape::new();
        let logits = sn.forward(&mut tape, batch, &FIXED_PATH, &mut rng);
        let loss = tape.softmax_cross_entropy(logits, &batch.labels);
        losses.push(tape.value(loss).item().to_bits());
        tape.backward(loss);
        sn.apply_updates(&tape, &mut opt);
    }
    let weights = fnv(sn
        .export_weights()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
    let mut path_rng = StdRng::seed_from_u64(32);
    let mut accs = vec![sn.eval_genome(&FIXED_PATH, &ds.test, 0).to_bits()];
    for seed in 1..4 {
        let genome = sn.random_genome(&mut path_rng);
        accs.push(sn.eval_genome(&genome, &ds.test, seed).to_bits());
    }
    SupernetBits {
        losses,
        weights,
        accs,
    }
}

#[test]
fn supernet_training_matches_pinned_bits() {
    let got: Vec<SupernetBits> = supernet_sets()
        .into_iter()
        .map(|(u, l)| supernet_bits(u, l))
        .collect();
    let want = pinned_supernet();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "supernet set pair {i} drifted from the pinned bits");
    }
}

/// Stand-alone models (the `GnnModel` executor path): each aggregate with
/// a different message type and aggregator, KNN re-samples on hidden
/// features, and a skip concat.
fn model_archs() -> [Architecture; 2] {
    use Aggregator::*;
    use MessageType::*;
    let agg = |agg, msg| Operation::Aggregate { agg, msg };
    [
        Architecture::new(
            vec![
                agg(Sum, SourcePos),
                agg(Max, TargetRel),
                Operation::Combine { dim: 8 },
                Operation::Sample(SampleFn::Knn),
                agg(Min, Full),
                Operation::Combine { dim: 8 },
                Operation::Connect(ConnectFn::Skip),
                agg(Mean, Distance),
            ],
            6,
            4,
        ),
        Architecture::new(
            vec![
                agg(Mean, TargetPos),
                Operation::Sample(SampleFn::Random),
                agg(Max, RelPos),
                Operation::Combine { dim: 8 },
                Operation::Sample(SampleFn::Knn),
                agg(Sum, SourceRel),
                Operation::Connect(ConnectFn::Skip),
                agg(Min, Distance),
            ],
            6,
            4,
        ),
    ]
}

/// `[first-epoch loss bits, final loss bits, weight digest]`.
fn model_bits(arch: Architecture) -> [u64; 3] {
    let ds = SynthNet40::generate(&DatasetConfig::tiny(33));
    let mut rng = StdRng::seed_from_u64(33);
    let mut model = GnnModel::new(&mut rng, arch, &[8]);
    let report = fit(&mut model, &ds.train, &FitConfig::quick().with_epochs(2));
    let weights = fnv(model.params().iter().flat_map(|p| {
        p.value()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    }));
    [
        u64::from(report.first_epoch_loss.to_bits()),
        u64::from(report.final_loss.to_bits()),
        weights,
    ]
}

#[test]
fn model_training_matches_pinned_bits() {
    let got: Vec<[u64; 3]> = model_archs().into_iter().map(model_bits).collect();
    assert_eq!(got, pinned_models(), "stand-alone model training drifted");
}

#[test]
fn tiny_search_matches_pinned_bits() {
    let mut cfg = SearchConfig::fast(DeviceKind::JetsonTx2);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 2;
    cfg.ea_stage2.population = 6;
    cfg.epochs_stage1 = 1;
    cfg.epochs_stage2 = 2;
    cfg.predictor = hgnas_predictor::PredictorConfig {
        train_samples: 60,
        val_samples: 20,
        epochs: 6,
        lr: 3e-3,
        gcn_dims: vec![16, 16],
        mlp_hidden: vec![12],
        seed: 1,
        global_node: true,
        batch: 1,
    };
    cfg.eval_clouds = 20;
    cfg.latency_mode = LatencyMode::Predictor;
    cfg.eval_threads = 2;
    let out = Hgnas::new(TaskConfig::tiny(9), cfg).run();
    let got = (
        format!("{:?}", out.best.genome),
        out.best.score.to_bits(),
        out.best.supernet_accuracy.to_bits(),
        out.best.latency_ms.to_bits(),
    );
    let want = pinned_search();
    assert_eq!(
        (got.0.as_str(), got.1, got.2, got.3),
        want,
        "tiny search drifted"
    );
}

// ---- pinned values ---------------------------------------------------------

fn pinned_supernet() -> Vec<SupernetBits> {
    let bits = |losses: [u32; 6], weights: u64, accs: [u64; 4]| SupernetBits {
        losses: losses.to_vec(),
        weights,
        accs: accs.to_vec(),
    };
    vec![
        bits(
            [
                0x4110f415, 0x40814507, 0x414b6e50, 0x410c83a9, 0x40a495b3, 0x414e9020,
            ],
            0xa4b3b248b0bb4267,
            [
                0x3fbaf286bca1af28,
                0x3fc435e50d79435e,
                0x3fcaf286bca1af28,
                0x3fc435e50d79435e,
            ],
        ),
        bits(
            [
                0x3ff34144, 0x3ff3dcb0, 0x4026880f, 0x3ff35892, 0x3fbf6204, 0x4003a149,
            ],
            0x80ee949e710187bc,
            [
                0x3fc435e50d79435e,
                0x3fc435e50d79435e,
                0x3fc435e50d79435e,
                0x3fbaf286bca1af28,
            ],
        ),
        bits(
            [
                0x403d1d34, 0x3ff081bc, 0x3fbb7bdf, 0x3fcdcd4b, 0x3faf07ea, 0x3fc8f18a,
            ],
            0x0ec6b6b702a09907,
            [
                0x3fcaf286bca1af28,
                0x3fcaf286bca1af28,
                0x3fc435e50d79435e,
                0x3fc435e50d79435e,
            ],
        ),
        bits(
            [
                0x41135a42, 0x41064a4a, 0x40ca61ef, 0x40a80ec9, 0x4066b83e, 0x4082e670,
            ],
            0x29dc522223ebff6a,
            [
                0x3fc435e50d79435e,
                0x3fc435e50d79435e,
                0x3fdaf286bca1af28,
                0x3fdaf286bca1af28,
            ],
        ),
    ]
}

fn pinned_models() -> Vec<[u64; 3]> {
    vec![
        [1076340458, 1075313963, 10457410353819587019],
        [1090951778, 1090643437, 196776461098776151],
    ]
}

fn pinned_search() -> (&'static str, u64, u64, u64) {
    (
        "[Sample, Aggregate, Combine, Sample, Aggregate, Aggregate]",
        4592800484503442864,
        4601256629816635176,
        4625526678415942775,
    )
}
