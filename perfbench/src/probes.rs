//! The traced run's layer probes.
//!
//! [`decomposed_search`] runs one search as the four public steps
//! `Hgnas::run` is made of — dataset, session prefix, predictor training,
//! Stage 2 — each inside its own span, so every layer of the paper path is
//! timed from outside the program. [`layer_probes`] then calls the lower
//! layers' public functions directly on that search's own data: supernet
//! training and forward/backward on its batches, KNN at its `n` and `k`,
//! matmuls at its supernet's shapes, lowering and device execution of its
//! found architecture. [`fleet_probes`] times one request config through
//! `Scheduler::run` and `run_fleet`.

use crate::common::{model_digest, nproc, ScratchDir, REQUEST_DEVICES};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use hgnas_autograd::Tape;
use hgnas_core::{
    Hgnas, PretrainedPredictor, RunOptions, SearchConfig, SearchOutcome, SessionState, Supernet,
    TaskConfig,
};
use hgnas_fleet::{run_fleet, ArtifactStore, FleetConfig, Scheduler, SchedulerConfig, ShardSpec};
use hgnas_pointcloud::SynthNet40;
use hgnas_serve::ServeConfig;
use hgnas_predictor::LatencyPredictor;
use hgnas_tensor::threads::with_kernel_threads;
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Calls per micro-probe; the reported figure is the median span.
const MICRO_CALLS: usize = 64;

/// One search run as its public steps, with what the probes reuse.
pub struct CoreRun {
    /// The task searched.
    pub task: TaskConfig,
    /// The search configuration.
    pub config: SearchConfig,
    /// The generated dataset.
    pub ds: SynthNet40,
    /// The prepared session (Stage-1 functions + pre-trained supernet).
    pub session: SessionState,
    /// The trained latency predictor.
    pub predictor: Arc<LatencyPredictor>,
    /// The search outcome.
    pub outcome: SearchOutcome,
    /// Wall-clock of the four steps together, ms.
    pub total_ms: f64,
    /// `knn_brute` calls the four steps made.
    pub knn_brute_calls: usize,
}

/// Runs `Hgnas::run`'s four public steps under spans of trace `trace`:
/// `Hgnas::dataset`, `Hgnas::prepare_session`,
/// `LatencyPredictor::train_with_profile` (under the search's kernel
/// thread budget, as `run` trains it) and `Hgnas::run_with` with the
/// session and predictor supplied.
pub fn decomposed_search(
    tracer: &Tracer,
    trace: u64,
    task: &TaskConfig,
    config: &SearchConfig,
) -> CoreRun {
    let hgnas = Hgnas::new(task.clone(), config.clone());
    let knn_before = hgnas_graph::knn_brute_calls();
    let start = std::time::Instant::now();
    let (ds, session, predictor, outcome) = tracer.span("core.search", trace, None, |root| {
        let ds = tracer.span("pointcloud.dataset", trace, root, |_| hgnas.dataset());
        let session = tracer.span("core.prepare_session", trace, root, |_| {
            hgnas.prepare_session()
        });
        let (predictor, stats) = tracer.span("predictor.train", trace, root, |_| {
            with_kernel_threads(config.eval_threads, || {
                LatencyPredictor::train_with_profile(
                    &config.device_profile(),
                    &task.predictor_context(),
                    &config.predictor,
                )
            })
        });
        let predictor = Arc::new(predictor);
        let outcome = tracer.span("core.stage2", trace, root, |_| {
            hgnas
                .run_with(RunOptions {
                    session: Some(&session),
                    predictor: Some(PretrainedPredictor {
                        predictor: Arc::clone(&predictor),
                        stats,
                    }),
                    ..RunOptions::default()
                })
                .outcome
                .expect("an un-aborted search always yields an outcome")
        });
        (ds, session, predictor, outcome)
    });
    CoreRun {
        task: task.clone(),
        config: config.clone(),
        ds,
        session,
        predictor,
        outcome,
        total_ms: start.elapsed().as_secs_f64() * 1e3,
        knn_brute_calls: hgnas_graph::knn_brute_calls() - knn_before,
    }
}

/// Sets the per-layer metrics a [`CoreRun`]'s spans and counters give.
pub fn core_metrics(tracer: &Tracer, run: &CoreRun, out: &mut Outcome) {
    let span_ms = |name: &str| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
    out.set("pointcloud.dataset_ms", span_ms("pointcloud.dataset"));
    out.set("core.prefix_ms", span_ms("core.prepare_session"));
    out.set("predictor.train_ms", span_ms("predictor.train"));
    out.set("core.stage2_ms", span_ms("core.stage2"));
    let s1 = run.outcome.stage1_stats.unwrap_or_default();
    let s2 = run.outcome.eval_stats.unwrap_or_default();
    out.set("core.stage1_scored", s1.misses as f64);
    out.set("core.stage2_scored", s2.misses as f64);
    out.set(
        "core.stage2_hit_ratio",
        s2.hits as f64 / s2.submitted.max(1) as f64,
    );
    out.note(format!(
        "core.stage2_hit_ratio base: {} memo hits of {} Stage-2 submissions \
         ({} scored, {} imported); Stage 1 scored {} of {}",
        s2.hits, s2.submitted, s2.misses, s2.imported, s1.misses, s1.submitted
    ));
    out.set("graph.knn_brute_calls", run.knn_brute_calls as f64);
}

/// Times `f` `MICRO_CALLS` times, each call in its own span under
/// `parent`; returns the median in microseconds.
fn micro<R>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<u64>,
    mut f: impl FnMut() -> R,
) -> f64 {
    for _ in 0..MICRO_CALLS {
        tracer.span(name, 0, parent, |_| black_box(f()));
    }
    median(&tracer.durations_ms(name)) * 1e3
}

/// The lower-layer probes on `run`'s own data (see the module docs).
pub fn layer_probes(tracer: &Tracer, run: &CoreRun, out: &mut Outcome) {
    let task = &run.task;
    let arch = &run.outcome.best.architecture;
    let genome = &run.outcome.best.genome;
    tracer.span("probe.layers", 0, None, |root| {
        // Graph: KNN over one of the task's clouds at its k.
        let cloud = &run.ds.train[0].points;
        let knn_us = micro(tracer, "graph.knn_brute", root, || {
            hgnas_graph::knn_brute(cloud, 3, task.k)
        });
        out.set("graph.knn_ms", knn_us / 1e3);

        // Tensor: the supernet's matmul shapes — a training batch of 8
        // clouds through a hidden×hidden layer — under the search's
        // kernel thread budget.
        let rows = 8 * task.points();
        let hidden = task.supernet_hidden;
        let mut rng = StdRng::seed_from_u64(task.seed);
        let x = Tensor::randn(&mut rng, &[rows, hidden], 1.0);
        let g = Tensor::randn(&mut rng, &[rows, hidden], 1.0);
        let w = Tensor::randn(&mut rng, &[hidden, hidden], 1.0);
        with_kernel_threads(nproc(), || {
            let bt = micro(tracer, "tensor.matmul_bt", root, || {
                hgnas_tensor::matmul::matmul_bt(&g, &w)
            });
            let at = micro(tracer, "tensor.matmul_at", root, || {
                hgnas_tensor::matmul::matmul_at(&x, &g)
            });
            let blocked = micro(tracer, "tensor.matmul_blocked", root, || {
                hgnas_tensor::matmul::matmul_blocked(&x, &w)
            });
            out.set("tensor.matmul_bt_us", bt);
            out.set("tensor.matmul_at_us", at);
            out.set("tensor.matmul_blocked_us", blocked);
        });

        // Ops and device: lower the found architecture at the task's
        // size, execute it on the target profile, predict its latency.
        let profile = run.config.device_profile();
        let workload = arch.lower(task.points(), &task.head_hidden);
        out.set(
            "ops.lower_us",
            micro(tracer, "ops.lower", root, || {
                arch.lower(task.points(), &task.head_hidden)
            }),
        );
        out.set(
            "device.execute_us",
            micro(tracer, "device.execute", root, || {
                profile.execute(&workload)
            }),
        );
        out.set(
            "predictor.predict_us",
            micro(tracer, "predictor.predict", root, || {
                run.predictor.predict_ms(arch)
            }),
        );

        // Core + autograd: a supernet over the session's function sets,
        // trained and run on the workload's own batches.
        let (upper, lower) = run
            .session
            .functions()
            .expect("multi-stage sessions carry their Stage-1 function sets");
        let mut supernet = Supernet::for_task(
            &mut rng,
            task.task_kind,
            task.positions,
            task.supernet_hidden,
            task.k,
            task.out_classes(),
            upper,
            lower,
            &task.head_hidden,
        );
        let batches = task.task().batches(&run.ds.train, 8);
        let eval_n = run.config.eval_clouds.min(run.ds.test.len());
        let eval_batches = task.task().batches(&run.ds.test[..eval_n], 16);
        with_kernel_threads(run.config.eval_threads, || {
            let mut opt = hgnas_nn::Optimizer::adam(3e-3);
            for _ in 0..2 {
                tracer.span("core.supernet_train_epoch", 0, root, |_| {
                    supernet.train_epoch(&batches, &mut opt, &mut rng)
                });
            }
            for batch in batches.iter().take(8) {
                let mut tape = Tape::new();
                let logits = tracer.span("core.supernet_forward", 0, root, |_| {
                    supernet.forward(&mut tape, batch, genome, &mut rng)
                });
                let loss = tape.softmax_cross_entropy(logits, &batch.labels);
                tracer.span("autograd.backward", 0, root, |_| tape.backward(loss));
            }
            for i in 0..3 {
                tracer.span("core.eval_genome", 0, root, |_| {
                    supernet.eval_genome_batched(genome, &eval_batches, i)
                });
            }
        });
        for (metric, span) in [
            ("core.supernet_train_epoch_ms", "core.supernet_train_epoch"),
            ("core.supernet_forward_ms", "core.supernet_forward"),
            ("autograd.backward_ms", "autograd.backward"),
            ("core.eval_genome_ms", "core.eval_genome"),
        ] {
            out.set(metric, median(&tracer.durations_ms(span)));
        }
    });
}

/// The fleet layer on one request config: `Scheduler::run` on a fresh
/// store for its phase breakdown, and `run_fleet` for the direct
/// (daemon-free) request time, warm or cold as the workload's requests
/// are (see [`direct_run_fleet`]). Their results must match each other.
///
/// # Errors
///
/// A store directory that cannot be created or written.
pub fn fleet_probes(
    tracer: &Tracer,
    task: &TaskConfig,
    config: &SearchConfig,
    warm: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    tracer.span("probe.fleet", 0, None, |root| {
        let dir = ScratchDir::new("probe-scheduler").map_err(|e| e.to_string())?;
        let store = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
        let specs = REQUEST_DEVICES
            .iter()
            .map(|&device| {
                let mut cfg = config.clone();
                cfg.device = device;
                ShardSpec::new(task.clone(), cfg)
            })
            .collect();
        let serve = ServeConfig::default();
        let scheduler = Scheduler::new(
            specs,
            SchedulerConfig {
                threads: serve.threads,
                preemption_stride: serve.preemption_stride,
                checkpoint_every: serve.checkpoint_every,
                oracle: serve.oracle,
                session_memory_budget: serve.session_memory_budget,
                ..SchedulerConfig::default()
            },
        );
        let report = tracer
            .span("fleet.scheduler_run", 0, root, |_| {
                scheduler.run(Some(&store), None)
            })
            .map_err(|e| e.to_string())?;
        let p = report.phase_timings;
        out.set("fleet.phase_predictor_train_ms", p.predictor_train_ms);
        out.set("fleet.phase_session_build_ms", p.session_build_ms);
        out.set("fleet.phase_search_ms", p.search_ms);
        out.set("fleet.phase_persist_ms", p.persist_ms);

        let (direct_ms, direct) = direct_run_fleet(tracer, root, task, config, warm)?;
        out.set("fleet.direct_request_ms", direct_ms);
        let scheduled: Vec<u64> = report
            .shards
            .iter()
            .map(|s| s.outcome.as_ref().map_or(0, |o| model_digest(&o.best)))
            .collect();
        out.check(scheduled == direct, || {
            "Scheduler::run and run_fleet disagree on the same request config".into()
        });
        Ok(())
    })
}

/// The fleet shape the daemon serves with: both request devices under
/// the default `ServeConfig`'s scheduler settings.
pub fn serve_fleet_config() -> FleetConfig {
    let serve = ServeConfig::default();
    let mut fleet = FleetConfig::new(REQUEST_DEVICES.to_vec());
    fleet.threads = serve.threads;
    fleet.preemption_stride = serve.preemption_stride;
    fleet.checkpoint_every = serve.checkpoint_every;
    fleet.oracle = serve.oracle;
    fleet.session_memory_budget = serve.session_memory_budget;
    fleet
}

/// A `run_fleet` of a request config without the daemon: wall-clock ms
/// and the per-shard model digests. Cold (`warm == false`) it runs once on
/// a fresh store; warm it runs twice on one store and reports the second
/// run, which reads the first one's artifacts as a served warm request
/// does.
///
/// # Errors
///
/// A store directory that cannot be created, or a store failure.
pub fn direct_run_fleet(
    tracer: &Tracer,
    parent: Option<u64>,
    task: &TaskConfig,
    config: &SearchConfig,
    warm: bool,
) -> Result<(f64, Vec<u64>), String> {
    let dir = ScratchDir::new("direct").map_err(|e| e.to_string())?;
    let store = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
    if warm {
        run_fleet(task, config, &serve_fleet_config(), Some(&store))
            .map_err(|e| e.to_string())?;
    }
    let start = std::time::Instant::now();
    let report = tracer
        .span("fleet.run_fleet", 0, parent, |_| {
            run_fleet(task, config, &serve_fleet_config(), Some(&store))
        })
        .map_err(|e| e.to_string())?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((
        ms,
        report
            .reports
            .iter()
            .map(|r| model_digest(&r.outcome.best))
            .collect(),
    ))
}
