//! Determinism guarantees of the parallel candidate evaluator: for a fixed
//! seed, thread count must never change any result bit.

use hgnas_core::search::{
    Hgnas, LatencyMode, PretrainedPredictor, RunOptions, SearchConfig, SearchOutcome, Strategy,
    TaskConfig,
};
use hgnas_core::{evolve_with, CandidateScorer, EaConfig, EaResult, Evaluator};
use hgnas_device::DeviceKind;
use hgnas_predictor::{LatencyPredictor, TrainStats};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Scorer with RNG-dependent output, so any stream misassignment between
/// thread counts shows up as a fitness difference.
struct NoisyOnemax;

impl CandidateScorer<u32> for NoisyOnemax {
    type Output = f64;

    fn score(&self, genome: &u32, rng: &mut StdRng) -> f64 {
        genome.count_ones() as f64 + rng.gen_range(0.0f64..1e-3)
    }
}

fn onemax_with_threads(threads: usize) -> EaResult<u32> {
    let mut evaluator = Evaluator::new(NoisyOnemax, threads, 99, |_: &u32, f: &f64, _| *f);
    evolve_with(
        vec![0u32],
        &EaConfig {
            population: 16,
            iterations: 30,
            elite_fraction: 0.4,
            mutation_prob: 0.8,
            seed: 3,
        },
        &mut evaluator,
        |g, rng| g ^ (1 << rng.gen_range(0..32)),
        |a, b, rng| {
            let mask: u32 = rng.gen();
            (a & mask) | (b & !mask)
        },
    )
}

#[test]
fn evolve_history_identical_at_1_2_and_8_threads() {
    let r1 = onemax_with_threads(1);
    let r2 = onemax_with_threads(2);
    let r8 = onemax_with_threads(8);
    assert_eq!(r1.best, r2.best);
    assert_eq!(r1.best, r8.best);
    assert_eq!(r1.best_fitness.to_bits(), r2.best_fitness.to_bits());
    assert_eq!(r1.best_fitness.to_bits(), r8.best_fitness.to_bits());
    assert_eq!(r1.evaluations, r2.evaluations);
    assert_eq!(r1.history, r2.history);
    assert_eq!(r1.history, r8.history);
}

fn tiny_config(device: DeviceKind, mode: LatencyMode, threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::fast(device);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 3;
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
    cfg.latency_mode = mode;
    cfg.eval_threads = threads;
    cfg
}

fn assert_outcomes_bit_identical(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.best.genome, b.best.genome);
    assert_eq!(a.best.architecture, b.best.architecture);
    assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
    assert_eq!(
        a.best.supernet_accuracy.to_bits(),
        b.best.supernet_accuracy.to_bits()
    );
    assert_eq!(a.best.latency_ms.to_bits(), b.best.latency_ms.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "history time diverged");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "history score diverged");
    }
    assert_eq!(a.search_hours.to_bits(), b.search_hours.to_bits());
    assert_eq!(a.eval_stats, b.eval_stats);
    assert_eq!(a.stage1_stats, b.stage1_stats);
    let stats_bits = |s: &TrainStats| {
        (
            s.train_mape.to_bits(),
            s.val_mape.to_bits(),
            s.val_within_10pct.to_bits(),
            s.train_size,
        )
    };
    assert_eq!(
        a.predictor_stats.as_ref().map(stats_bits),
        b.predictor_stats.as_ref().map(stats_bits),
        "predictor stats diverged"
    );
}

/// `Hgnas::run` — which trains the predictor beside supernet pre-training
/// when it has the threads — against the same search taken apart: a
/// `prepare_session()` session plus a separately trained predictor handed
/// to `run_with`. Every thread budget must give the same bits as well.
fn assert_run_matches_decomposed(strategy: Strategy, mode: LatencyMode) {
    let task = TaskConfig::tiny(9);
    let mut first: Option<SearchOutcome> = None;
    for threads in [1, 2, 3] {
        let mut cfg = tiny_config(DeviceKind::JetsonTx2, mode, threads);
        cfg.strategy = strategy;
        let hgnas = Hgnas::new(task.clone(), cfg.clone());
        let whole = hgnas.run();

        let session = hgnas.prepare_session();
        let predictor = (mode == LatencyMode::Predictor).then(|| {
            let (p, stats) = LatencyPredictor::train_with_profile(
                &cfg.device_profile(),
                &task.predictor_context(),
                &cfg.predictor,
            );
            PretrainedPredictor {
                predictor: Arc::new(p),
                stats,
            }
        });
        let parts = hgnas
            .run_with(RunOptions {
                session: Some(&session),
                predictor,
                ..RunOptions::default()
            })
            .outcome
            .expect("an un-aborted run yields an outcome");
        assert_outcomes_bit_identical(&whole, &parts);
        assert_eq!(
            whole.predictor_stats.is_some(),
            mode == LatencyMode::Predictor
        );
        assert_eq!(
            whole.stage1_stats.is_some(),
            strategy == Strategy::MultiStage
        );
        match &first {
            None => first = Some(whole),
            Some(serial) => assert_outcomes_bit_identical(serial, &whole),
        }
    }
}

#[test]
fn multi_stage_predictor_run_matches_decomposed_steps_at_1_2_3_threads() {
    assert_run_matches_decomposed(Strategy::MultiStage, LatencyMode::Predictor);
}

#[test]
fn multi_stage_measured_run_matches_decomposed_steps_at_1_2_3_threads() {
    assert_run_matches_decomposed(Strategy::MultiStage, LatencyMode::Measured);
}

#[test]
fn one_stage_predictor_run_matches_decomposed_steps_at_1_2_3_threads() {
    assert_run_matches_decomposed(Strategy::OneStage, LatencyMode::Predictor);
}

#[test]
fn one_stage_measured_run_matches_decomposed_steps_at_1_2_3_threads() {
    assert_run_matches_decomposed(Strategy::OneStage, LatencyMode::Measured);
}

#[test]
fn predictor_mode_search_is_bit_identical_serial_vs_4_threads() {
    let task = TaskConfig::tiny(5);
    let serial = Hgnas::new(
        task.clone(),
        tiny_config(DeviceKind::Rtx3080, LatencyMode::Predictor, 1),
    )
    .run();
    let parallel = Hgnas::new(
        task,
        tiny_config(DeviceKind::Rtx3080, LatencyMode::Predictor, 4),
    )
    .run();
    assert_outcomes_bit_identical(&serial, &parallel);
}

#[test]
fn measured_mode_search_is_bit_identical_serial_vs_4_threads() {
    let task = TaskConfig::tiny(7);
    let serial = Hgnas::new(
        task.clone(),
        tiny_config(DeviceKind::JetsonTx2, LatencyMode::Measured, 1),
    )
    .run();
    let parallel = Hgnas::new(
        task,
        tiny_config(DeviceKind::JetsonTx2, LatencyMode::Measured, 4),
    )
    .run();
    assert_outcomes_bit_identical(&serial, &parallel);
}

#[test]
fn search_reports_eval_stats() {
    let task = TaskConfig::tiny(5);
    let outcome = Hgnas::new(
        task,
        tiny_config(DeviceKind::Rtx3080, LatencyMode::Predictor, 2),
    )
    .run();
    let stats = outcome.eval_stats.expect("multi-stage search has stats");
    // population 6, 3 iterations with 3 elites -> 6 + 3×3 submissions.
    assert_eq!(stats.submitted, 15);
    assert_eq!(stats.hits + stats.misses, stats.submitted);
    assert!(stats.misses >= 1);
    assert_eq!(stats.batches, 4);
}
