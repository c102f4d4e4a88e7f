//! `serve_cold` and `serve_warm`: two tenants' closed-loop request
//! streams through an in-process `hgnas-serve` daemon.

use crate::common::{
    deploy, dir_bytes, model_digest, request_config, request_seed, ScratchDir, Size,
    REQUEST_DEVICES,
};
use crate::paper::set_usage;
use crate::probes::{
    core_metrics, decomposed_search, direct_run_fleet, fleet_probes, layer_probes,
};
use crate::report::Outcome;
use crate::rusage::Usage;
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use crate::Args;
use hgnas_fleet::wire::WireReport;
use hgnas_fleet::{ArtifactStore, FleetEvent, SessionAction};
use hgnas_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The tenants, one closed-loop client thread each: (name, priority).
const TENANTS: [(&str, u8); 2] = [("tenant-p1", 1), ("tenant-p3", 3)];

/// Stream position of serve_cold's warm-up requests, far past any
/// request a measured window reaches.
const WARMUP_INDEX: usize = 1 << 30;

/// Stream position the traced run's second (traced) half starts at, so
/// its serve_cold requests are as cold as the untraced half's.
const TRACED_INDEX: usize = 1 << 20;

/// Per-frame protocol timeout.
const TICK: Duration = Duration::from_secs(30);

/// Requests per tenant the warm store holds (and the warm stream cycles).
fn warm_set(size: Size) -> usize {
    match size {
        Size::Full => 10,
        Size::Tiny => 1,
    }
}

/// Requests per tenant, from the start of the measured stream, whose
/// found models the quality figures average.
fn quality_set(size: Size) -> usize {
    match size {
        Size::Full => 4,
        Size::Tiny => 1,
    }
}

/// When a client stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests per tenant.
    Count(usize),
    /// Once this instant has passed (the in-flight request completes).
    Deadline(Instant),
}

/// One request as its client saw it.
#[derive(Debug)]
pub struct Sample {
    /// Tenant index into [`TENANTS`].
    pub tenant: usize,
    /// The request's seed.
    pub seed: u64,
    /// Submit to report, ms.
    pub latency_ms: f64,
    /// Submit to the first event, ms (the latency if none arrived).
    pub first_event_ms: f64,
    /// Events streamed for the request.
    pub events: u64,
    /// `SessionCache` builds / hits / deferrals, and preemptions.
    pub builds: u64,
    /// Resident-session reuses.
    pub hits: u64,
    /// Single-flight deferrals.
    pub deferrals: u64,
    /// Shard preemptions.
    pub preemptions: u64,
    /// Per shard, from its first `ShardStarted` event: whether the search
    /// began with a stored predictor, and whether it began from a stored
    /// checkpoint. (The report's own flags describe the final round, which
    /// on a multi-round cold request resumes from the request's own
    /// earlier rounds.)
    pub first_start: BTreeMap<usize, (bool, bool)>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
    /// The report of a completed request.
    pub report: Option<WireReport>,
}

impl Sample {
    fn new(tenant: usize, seed: u64) -> Sample {
        Sample {
            tenant,
            seed,
            latency_ms: 0.0,
            first_event_ms: 0.0,
            events: 0,
            builds: 0,
            hits: 0,
            deferrals: 0,
            preemptions: 0,
            first_start: BTreeMap::new(),
            error: None,
            report: None,
        }
    }

    /// Per-shard model digests of a completed request.
    pub fn digests(&self) -> Vec<u64> {
        self.report.as_ref().map_or_else(Vec::new, |r| {
            r.shards
                .iter()
                .map(|s| model_digest(&s.outcome.best))
                .collect()
        })
    }
}

/// A daemon over a fresh store.
pub struct ServeRun {
    dir: ScratchDir,
    server: Server,
}

impl ServeRun {
    /// Starts a daemon with the default `ServeConfig` on a fresh store and
    /// waits until it completes a hello handshake.
    ///
    /// # Errors
    ///
    /// The store directory cannot be created, or the daemon does not
    /// answer.
    pub fn start(label: &str) -> Result<ServeRun, String> {
        let dir = ScratchDir::new(label).map_err(|e| e.to_string())?;
        let store = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
        let server = Server::start(store, ServeConfig::default());
        let mut probe = server.connect();
        probe
            .hello("ready-probe", 1, TICK)
            .and_then(|_| probe.bye())
            .map_err(|e| e.to_string())?;
        Ok(ServeRun { server, dir })
    }

    /// Bytes the daemon's artifact store holds.
    pub fn store_bytes(&self) -> u64 {
        dir_bytes(self.dir.path())
    }

    /// Drains the daemon, joins its threads and removes its store.
    pub fn stop(self) {
        self.server.shutdown();
    }

    /// Runs every tenant's closed loop until `until`, starting at stream
    /// position `first_index`. Tenant `t`'s request at position `i`
    /// carries `request_seed(seed, t, i % cycle)` (no cycling without
    /// `cycle`), so streams replay exactly for a given seed.
    pub fn drive(
        &self,
        tracer: &Tracer,
        seed: u64,
        until: Until,
        cycle: Option<usize>,
        first_index: usize,
    ) -> Vec<Sample> {
        static TRACE_IDS: AtomicU64 = AtomicU64::new(1);
        let clients: Vec<_> = TENANTS.iter().map(|_| self.server.connect()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(tenant, mut client)| {
                    s.spawn(move || {
                        let (name, priority) = TENANTS[tenant];
                        let mut samples = Vec::new();
                        if let Err(e) = client.hello(name, priority, TICK) {
                            let mut failed = Sample::new(tenant, 0);
                            failed.error = Some(format!("hello: {e}"));
                            samples.push(failed);
                            return samples;
                        }
                        for i in first_index.. {
                            let done = match until {
                                Until::Count(n) => i - first_index >= n,
                                Until::Deadline(d) => Instant::now() >= d,
                            };
                            if done {
                                break;
                            }
                            let req_seed = request_seed(seed, tenant, cycle.map_or(i, |m| i % m));
                            let trace = 1_000_000 + TRACE_IDS.fetch_add(1, Ordering::Relaxed);
                            let sample = tracer.span("serve.request", trace, None, |root| {
                                one_request(tracer, trace, root, &mut client, tenant, req_seed)
                            });
                            let stop = sample.error.is_some() && sample.report.is_none();
                            samples.push(sample);
                            if stop {
                                break;
                            }
                        }
                        let _ = client.bye();
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }
}

/// Submits one request and streams it to its report.
fn one_request(
    tracer: &Tracer,
    trace: u64,
    root: Option<u64>,
    client: &mut hgnas_serve::SearchClient,
    tenant: usize,
    seed: u64,
) -> Sample {
    let (task, config) = request_config(seed);
    let start = Instant::now();
    let submitted = tracer.span("serve.submit", trace, root, |_| {
        client.submit(&task, &config, &REQUEST_DEVICES, TICK)
    });
    let mut s = Sample::new(tenant, seed);
    let request = match submitted {
        Ok((request, _shards)) => request,
        Err(e) => {
            s.error = Some(format!("submit: {e}"));
            return s;
        }
    };
    let mut first: Option<f64> = None;
    let waited = tracer.span("serve.wait_report", trace, root, |_| {
        client.wait_report(request, TICK, |_, event| {
            first.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
            s.events += 1;
            match event {
                FleetEvent::SessionCache { action, .. } => match action {
                    SessionAction::Built => s.builds += 1,
                    SessionAction::Hit => s.hits += 1,
                    SessionAction::Deferred => s.deferrals += 1,
                    _ => {}
                },
                FleetEvent::ShardPreempted { .. } => s.preemptions += 1,
                FleetEvent::ShardStarted {
                    shard,
                    resumed_from,
                    warm_predictor,
                    ..
                } => {
                    s.first_start
                        .entry(*shard)
                        .or_insert((*warm_predictor, resumed_from.is_some()));
                }
                FleetEvent::ShardFailed { error, .. } => {
                    s.error
                        .get_or_insert_with(|| format!("shard failed: {error}"));
                }
                _ => {}
            }
        })
    });
    s.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    s.first_event_ms = first.unwrap_or(s.latency_ms);
    match waited {
        Ok(report) => s.report = Some(report),
        Err(e) => s.error = Some(format!("wait_report: {e}")),
    }
    s
}

/// The completed (non-failed) samples.
fn completed(samples: &[Sample]) -> Vec<&Sample> {
    samples
        .iter()
        .filter(|s| s.error.is_none() && s.report.is_some())
        .collect()
}

/// Sets the end-to-end metrics of a measured window.
fn end_to_end(samples: &[Sample], elapsed_s: f64, out: &mut Outcome) {
    let ok = completed(samples);
    out.attempted = samples.len() as u64;
    out.failed = (samples.len() - ok.len()) as u64;
    if ok.is_empty() {
        out.check(false, || "no request completed in the window".into());
        return;
    }
    let lat: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let (pct, tail_ms) = tail(&lat);
    out.set("search_s", mean(&lat) / 1e3);
    out.set("request_p50_ms", median(&lat));
    out.set("request_tail_ms", tail_ms);
    out.set(
        "first_event_p50_ms",
        median(&ok.iter().map(|s| s.first_event_ms).collect::<Vec<_>>()),
    );
    out.set("requests_per_s", ok.len() as f64 / elapsed_s);
    out.note(format!(
        "{} request(s) completed of {} attempted in {elapsed_s:.2} s; request_tail_ms is \
         p{pct:.0} of {} samples; failed_frac {:.4}",
        ok.len(),
        samples.len(),
        lat.len(),
        out.failed as f64 / out.attempted.max(1) as f64
    ));
}

/// Found-model quality over the shards of the first `per_tenant`
/// requests of each tenant's stream: a fixed set for a given seed, so the
/// figures repeat exactly whatever the window completed beyond it.
fn quality(samples: &[Sample], per_tenant: usize, out: &mut Outcome) {
    let ok = completed(samples);
    let set =
        (0..TENANTS.len()).flat_map(|t| ok.iter().filter(move |s| s.tenant == t).take(per_tenant));
    let (mut acc, mut speedup, mut mem, mut n) = (0.0, 0.0, 0.0, 0.0);
    for s in set {
        for shard in &s
            .report
            .as_ref()
            .expect("completed samples carry a report")
            .shards
        {
            let d = deploy(&shard.outcome.best.architecture, &shard.device.profile());
            acc += shard.outcome.best.supernet_accuracy;
            speedup += d.speedup_x;
            mem += d.mem_reduction_pct;
            n += 1.0;
        }
    }
    let n = f64::max(n, 1.0);
    out.set("core.found_accuracy", acc / n);
    out.set("core.deploy_speedup_x", speedup / n);
    out.set("core.deploy_mem_reduction_pct", mem / n);
    out.note(format!(
        "found models (mean of {n} shard(s)): accuracy {:.4}, deploy_speedup_x {:.3}, \
         deploy_mem_reduction_pct {:.2}",
        acc / n,
        speedup / n,
        mem / n
    ));
}

/// Sets the serve- and fleet-layer per-request metrics from `samples`.
/// Needs `fleet.direct_request_ms` already set for `serve.overhead_ms`.
pub fn serve_metrics(tracer: &Tracer, samples: &[Sample], out: &mut Outcome) {
    let ok = completed(samples);
    out.check(!ok.is_empty(), || "no served request completed".into());
    let per = |f: &dyn Fn(&Sample) -> f64| mean(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.set(
        "serve.submit_ack_ms",
        median(&tracer.durations_ms("serve.submit")),
    );
    out.set("serve.events_per_request", per(&|s| s.events as f64));
    out.set(
        "serve.rounds_per_request",
        per(&|s| s.report.as_ref().map_or(0.0, |r| r.rounds as f64)),
    );
    out.set(
        "serve.slices_per_request",
        per(&|s| s.report.as_ref().map_or(0.0, |r| r.slices as f64)),
    );
    out.set("fleet.prefix_builds_per_request", per(&|s| s.builds as f64));
    out.set(
        "fleet.session_deferrals_per_request",
        per(&|s| s.deferrals as f64),
    );
    out.set("fleet.session_hits_per_request", per(&|s| s.hits as f64));
    out.set(
        "fleet.preemptions_per_request",
        per(&|s| s.preemptions as f64),
    );
    let starts: Vec<(bool, bool)> = ok
        .iter()
        .flat_map(|s| s.first_start.values().copied())
        .collect();
    let ratio = |f: &dyn Fn(&(bool, bool)) -> bool| {
        starts.iter().filter(|s| f(s)).count() as f64 / starts.len().max(1) as f64
    };
    out.set("fleet.warm_predictor_ratio", ratio(&|s| s.0));
    out.set("fleet.resumed_ratio", ratio(&|s| s.1));
    let p50 = median_latency(samples);
    let direct = out.get("fleet.direct_request_ms").unwrap_or(0.0);
    out.set("serve.overhead_ms", p50 - direct);
    out.note(format!(
        "serve.overhead_ms base: request p50 {p50:.1} ms minus direct run_fleet {direct:.1} ms; \
         warm/resumed ratios over the first start of {} shard(s) of {} request(s)",
        starts.len(),
        ok.len()
    ));
}

/// Runs `serve_cold` (`warm == false`) or `serve_warm`.
pub fn run(args: &Args, tracer: &Tracer, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let label = if warm { "warm" } else { "cold" };
    let cycle = warm.then(|| warm_set(args.size));
    let quiet = Tracer::new(false);

    // Set-up: a daemon on a fresh store, warmed up before timing starts.
    // serve_warm fills the store by running its replay set once;
    // serve_cold runs one request per tenant from a part of the stream
    // the window never reaches, so lazy start-up work is paid here while
    // the store stays cold for every measured request. Repeated; the last
    // daemon is the measured one.
    let reps = 3;
    let mut setup = Vec::with_capacity(reps);
    let mut fills: Vec<Vec<Sample>> = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        let start = Instant::now();
        let run = match ServeRun::start(&format!("{label}-{}", args.seed)) {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("daemon failed to start: {e}"));
                return out;
            }
        };
        match cycle {
            Some(m) => fills.push(run.drive(&quiet, args.seed, Until::Count(m), cycle, 0)),
            None => {
                let warmup = run.drive(&quiet, args.seed, Until::Count(1), None, WARMUP_INDEX);
                if let Some(e) = warmup.iter().find_map(|s| s.error.as_ref()) {
                    out.check(false, || format!("warm-up request failed: {e}"));
                }
            }
        }
        setup.push(start.elapsed().as_secs_f64());
        if let Some(previous) = server.replace(run) {
            previous.stop();
        }
    }
    let server = server.expect("at least one set-up ran");
    out.set("setup_s", median(&setup));

    let usage_before = Usage::now();
    let (mut samples, untraced) = if tracer.enabled() {
        // Half the window untraced, half traced: the p50 difference is
        // the tracing overhead.
        let half = args.seconds / 2;
        let base = server.drive(
            &quiet,
            args.seed,
            Until::Deadline(Instant::now() + half),
            cycle,
            0,
        );
        let traced = server.drive(
            tracer,
            args.seed,
            Until::Deadline(Instant::now() + half),
            cycle,
            if warm { 0 } else { TRACED_INDEX },
        );
        (traced, Some(base))
    } else {
        let start = Instant::now();
        let samples = server.drive(
            &quiet,
            args.seed,
            Until::Deadline(start + args.seconds),
            cycle,
            0,
        );
        end_to_end(&samples, start.elapsed().as_secs_f64(), &mut out);
        (samples, None)
    };
    let usage = Usage::now().since(&usage_before);
    quality(&samples, quality_set(args.size), &mut out);

    if args.corrupt_digest {
        // One bit of every measured report, so whichever request a check
        // samples carries the fault.
        for report in samples.iter_mut().filter_map(|s| s.report.as_mut()) {
            let best = &mut report.shards[0].outcome.best;
            best.score = f64::from_bits(best.score.to_bits() ^ 1);
        }
    }
    if warm {
        check_warm(&fills, &samples, &mut out);
    } else {
        check_cold_against_direct(args.seed, &samples, &mut out);
    }

    if let Some(base) = untraced {
        let untraced_p50 = median_latency(&base);
        let (task, config) = request_config(request_seed(args.seed, 0, 0));
        let core = decomposed_search(tracer, 1, &task, &config);
        core_metrics(tracer, &core, &mut out);
        // One shard's search as the public steps a request of this
        // workload runs, over the untraced request p50 (which carries two
        // shards sharing one prefix): all four cold; warm, only the
        // dataset and the session-prefix rebuild, since the predictor and
        // the final checkpoint load from the store.
        let steps_run: &[&str] = if warm {
            &["pointcloud.dataset", "core.prepare_session"]
        } else {
            &[
                "pointcloud.dataset",
                "core.prepare_session",
                "predictor.train",
                "core.stage2",
            ]
        };
        let steps: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.trace == 1 && steps_run.contains(&s.name))
            .map(|s| s.ms())
            .sum();
        out.set("core.coverage_pct", 100.0 * steps / untraced_p50.max(1e-9));
        out.note(format!(
            "core.coverage_pct base: {} {steps:.1} ms over untraced request p50 \
             {untraced_p50:.1} ms",
            steps_run.join(" + ")
        ));
        layer_probes(tracer, &core, &mut out);
        if let Err(e) = fleet_probes(tracer, &task, &config, warm, &mut out) {
            out.check(false, || format!("fleet probe failed: {e}"));
        }
        serve_metrics(tracer, &samples, &mut out);
        // Per request, so the figures do not grow with throughput: store
        // bytes over the requests the store holds (serve_warm's replay
        // set; serve_cold's warm-up and every request of both halves),
        // CPU time and context switches over the requests both halves
        // completed.
        let stored = if warm {
            TENANTS.len() * warm_set(args.size)
        } else {
            TENANTS.len() + base.len() + samples.len()
        };
        out.set(
            "fleet.store_bytes",
            server.store_bytes() as f64 / stored as f64,
        );
        let done = completed(&base).len() + completed(&samples).len();
        set_usage(&mut out, &usage, done.max(1) as f64);
        out.note(format!(
            "fleet.store_bytes over {stored} stored request(s); proc.* CPU time and context \
             switches over {done} completed request(s)"
        ));
        let traced_p50 = median_latency(&samples);
        out.set(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1e-9),
        );
        out.attempted = samples.len() as u64;
        out.failed = (samples.len() - completed(&samples).len()) as u64;
    }
    server.stop();
    out
}

fn median_latency(samples: &[Sample]) -> f64 {
    median(
        &completed(samples)
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    )
}

/// serve_warm's checks: every replayed report is bit-identical to the
/// cold report of the same request (and the cold fills agree across
/// set-ups), and every replayed shard warm-started its predictor and
/// resumed its final generation from the store.
fn check_warm(fills: &[Vec<Sample>], samples: &[Sample], out: &mut Outcome) {
    let key = |s: &Sample| (s.tenant, s.seed);
    let cold: std::collections::BTreeMap<(usize, u64), Vec<u64>> = fills
        .last()
        .map(|f| f.iter().map(|s| (key(s), s.digests())).collect())
        .unwrap_or_default();
    for fill in fills {
        for s in fill {
            out.check(s.error.is_none(), || {
                format!("warm-set fill request failed: {:?}", s.error)
            });
            out.check(cold.get(&key(s)) == Some(&s.digests()), || {
                format!(
                    "cold fills of request seed {} disagree across set-ups",
                    s.seed
                )
            });
        }
    }
    for s in completed(samples) {
        out.check(cold.get(&key(s)) == Some(&s.digests()), || {
            format!(
                "serve_warm report for request seed {} differs from its cold report",
                s.seed
            )
        });
        let report = s.report.as_ref().expect("completed samples carry a report");
        for (i, shard) in report.shards.iter().enumerate() {
            let started = s.first_start.get(&i).copied();
            out.check(
                shard.warm_predictor
                    && shard.resumed_from_generation.is_some()
                    && started == Some((true, true)),
                || {
                    format!(
                        "serve_warm shard {} of request seed {} did not start warm \
                         (report: warm_predictor {}, resumed {:?}; first start {started:?})",
                        shard.scenario, s.seed, shard.warm_predictor, shard.resumed_from_generation
                    )
                },
            );
        }
    }
}

/// serve_cold's check: one sampled request (picked by the workload seed)
/// is bit-identical to a direct `run_fleet` of the same config.
fn check_cold_against_direct(seed: u64, samples: &[Sample], out: &mut Outcome) {
    let ok = completed(samples);
    if ok.is_empty() {
        return;
    }
    let s = ok[(seed as usize) % ok.len()];
    let (task, config) = request_config(s.seed);
    match direct_run_fleet(&Tracer::new(false), None, &task, &config, false) {
        Ok((_, direct)) => out.check(direct == s.digests(), || {
            format!(
                "served request seed {} differs from a direct run_fleet of its config",
                s.seed
            )
        }),
        Err(e) => out.check(false, || format!("direct run_fleet failed: {e}")),
    }
}
