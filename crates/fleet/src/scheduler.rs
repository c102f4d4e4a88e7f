//! The fleet scheduler: multiplex N search shards over one host's kernel
//! thread budget with generation-granular preemptive time slices.
//!
//! PR 3's fleet driver ran one thread per device shard — fine for one
//! shard per [`DeviceKind`], oversubscribed the moment a tenant queues
//! more shards (several seeds or tasks per device) than the host has
//! cores. The scheduler fixes the shape: shards wait in a shared ready
//! queue, a bounded pool of workers pulls the next ready shard
//! (work-stealing at shard granularity — an idle worker always takes the
//! oldest runnable shard), runs it for a *time slice* of
//! [`SchedulerConfig::preemption_stride`] generations, checkpoints it at
//! the boundary, and re-queues it behind its peers. Because
//! checkpoint/resume is bit-identical (the core contract every prior PR
//! locked in), preemption is transparent: any (shard count × thread
//! budget × stride) cell produces per-shard results bit-identical to a
//! serial [`Hgnas::run_with`] of the same options.
//!
//! Each worker hands its slice a proportional share of the total kernel
//! thread budget ([`SchedulerConfig::threads`]), so the two levels of
//! parallelism — shards across workers, matmuls inside a shard — never
//! oversubscribe the machine. `eval_threads` is bit-transparent, so the
//! split never changes results either.
//!
//! The deterministic prefix (dataset + Stage 1 + supernet pre-training)
//! is kept in a budgeted **session cache keyed by prefix fingerprint**
//! ([`prefix_fingerprint`]): every shard whose prefix-relevant inputs
//! match — same task, strategy, Stage-1 EA, epoch counts, seed, eval
//! budget, whatever its device, objective weights or Stage-2 seed —
//! shares one resident (or spilled) session, so a K-shard sweep over one
//! prefix builds it exactly once. Builds are **single-flight**: while one
//! worker builds a prefix, any other slice wanting it defers — it
//! re-queues (its budget unit refunded) and its worker takes other work,
//! which is what lets a prefix build overlap other shards' search slices
//! instead of serialising the fleet behind it.
//!
//! Progress streams out as [`FleetEvent`]s; [`crate::StreamingReporter`]
//! renders them incrementally, and the blocking [`crate::run_fleet`] API
//! is a thin wrapper over `Scheduler::run`.

use crate::artifacts::{
    persona_predictor_fingerprint, prefix_fingerprint, search_fingerprint, ArtifactKey,
    ArtifactStore, PrefixKey, StoreError,
};
use crate::driver::ParetoPoint;
use crate::events::{FleetEvent, SessionAction, ShardId};
use crate::oracle::{MeasurementOracle, OracleConfig, OracleStats};
use crossbeam::channel::Sender;
use hgnas_core::{
    pareto_front_nd, Checkpoint, Hgnas, LatencyMode, MeasureBackend, PretrainedPredictor,
    RunOptions, ScoredCandidate, SearchConfig, SearchOutcome, SessionState, Strategy, TaskConfig,
};
use hgnas_device::DeviceKind;
use hgnas_ops::OpType;
use hgnas_predictor::LatencyPredictor;
use hgnas_tensor::threads::with_kernel_threads;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One unit of schedulable work: a full HGNAS search of `task` under
/// `config` (the device and seed live inside the config, so a fleet can
/// queue many shards per device — different seeds, tasks, constraint
/// sets).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Display label for reports (scenario name; defaults to the config's
    /// persona/device label).
    pub scenario: String,
    /// The task to search.
    pub task: TaskConfig,
    /// The search configuration (device, seed, EA budgets, ...).
    pub config: SearchConfig,
    /// A prior run's score cache to warm-start the shard's Stage-2
    /// evaluator with (see `hgnas_core::RunOptions::imported_cache` for
    /// the bit-identity contract). Multi-stage shards only.
    pub imported_cache: Option<Vec<(Vec<OpType>, ScoredCandidate)>>,
}

impl ShardSpec {
    /// A shard with no warm-start import, labelled by its persona/device.
    pub fn new(task: TaskConfig, config: SearchConfig) -> Self {
        ShardSpec {
            scenario: config.device_label(),
            task,
            config,
            imported_cache: None,
        }
    }

    /// Overrides the shard's report label.
    pub fn with_scenario(mut self, label: impl Into<String>) -> Self {
        self.scenario = label.into();
        self
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Total kernel-thread budget multiplexed across shards. `0` (the
    /// default) runs one worker per shard, each with its spec's own
    /// `eval_threads` — the pre-scheduler fleet behaviour.
    pub threads: usize,
    /// Generations per time slice. `0` (the default) disables preemption:
    /// a worker runs its shard to completion before taking the next one.
    pub preemption_stride: usize,
    /// Persist (and announce) a checkpoint every N generations within a
    /// slice (0 is treated as 1). Slice boundaries always checkpoint.
    pub checkpoint_every: usize,
    /// Measurement-oracle tuning (shards in [`LatencyMode::Measured`]).
    pub oracle: OracleConfig,
    /// Total slice budget across all shards; when it runs out, unfinished
    /// shards stay parked (their checkpoints persisted to the store) and
    /// [`Scheduler::run`] returns them with `outcome: None`. `None` (the
    /// default) runs every shard to completion. This is the budgeted
    /// scheduling-round lever — and the mid-run-kill test hook.
    pub max_slices: Option<u64>,
    /// Approximate byte budget for the session cache — the LRU of
    /// prefix-keyed [`SessionState`]s (dataset + Stage-1 outcome +
    /// pre-trained supernet), each shared by every shard whose
    /// [`prefix_fingerprint`] matches, kept resident across time slices
    /// so a resumed shard never replays its deterministic prefix. `None` (the
    /// default) keeps every session for the run's lifetime; under a
    /// budget, least-recently-used sessions are evicted — spilled to the
    /// artifact store when one is attached, dropped otherwise (the next
    /// slice then restores or replays; results are bit-identical in every
    /// case). `Some(0)` disables residency entirely, which without a
    /// store is exactly the pre-session replay-per-slice behaviour.
    pub session_memory_budget: Option<u64>,
    /// External drain flag: when set mid-run, workers stop picking up new
    /// slices at the next boundary — *before* decrementing `max_slices` —
    /// and unfinished shards park exactly as if the slice budget had run
    /// out (checkpoints persisted, `outcome: None`). The `hgnas-serve`
    /// daemon uses this for graceful shutdown; a parked shard resumed
    /// through the same store later is bit-identical. `None` (the
    /// default) never stops early.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 0,
            preemption_stride: 0,
            checkpoint_every: 1,
            oracle: OracleConfig::default(),
            max_slices: None,
            session_memory_budget: None,
            stop: None,
        }
    }
}

/// Aggregate counters of the scheduler's session cache. `hits`, `builds`
/// and `restores` are **disjoint**: every executed slice claims its
/// session through exactly one of the three, so they sum to the executed
/// slice count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Slices that reused a resident session (no prefix work at all).
    pub hits: u64,
    /// Sessions computed from scratch (Stage 1 + supernet pre-training
    /// for multi-stage shards). One per distinct *prefix* means
    /// preemption never replayed the expensive work — shards differing
    /// only in non-prefix fields share a single build.
    pub builds: u64,
    /// Sessions reloaded from an artifact-store spill (weights decoded,
    /// nothing retrained).
    pub restores: u64,
    /// Sessions evicted under the memory budget.
    pub evictions: u64,
    /// Evictions that wrote a spill artifact (the remainder were dropped:
    /// one-stage sessions, or no store attached).
    pub spills: u64,
    /// Slices re-queued because their prefix was already being built by
    /// another worker (single-flight): no duplicate work, no budget
    /// consumed — the worker went on to other shards.
    pub deferrals: u64,
}

/// Coarse wall-clock breakdown of a scheduler run, aggregated across all
/// workers and shards (phases running on two workers at once both count,
/// so the sum can exceed the run's wall-clock).
///
/// This is the re-profiling instrument for the perf roadmap: after each
/// optimisation lands, the fleet bench records these numbers so the next
/// bottleneck is measured, not guessed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseTimings {
    /// Cold latency-predictor training (zero when every shard warm-started
    /// from the artifact store).
    pub predictor_train_ms: f64,
    /// Deterministic-prefix builds (dataset + Stage 1 + supernet
    /// pre-training) the session cache could not avoid.
    pub session_build_ms: f64,
    /// Sessions decoded from artifact-store spills.
    pub session_restore_ms: f64,
    /// The search itself (`Hgnas::run_with`), minus checkpoint-sink
    /// persistence performed inside it.
    pub search_ms: f64,
    /// Artifact-store writes: checkpoint sink, predictor snapshots, score
    /// caches.
    pub persist_ms: f64,
}

/// Lock-free nanosecond accumulators behind [`PhaseTimings`]; workers add
/// into these concurrently.
#[derive(Default)]
struct PhaseClock {
    predictor_train: AtomicU64,
    session_build: AtomicU64,
    session_restore: AtomicU64,
    search: AtomicU64,
    persist: AtomicU64,
}

impl PhaseClock {
    /// Runs `f`, adding its wall-clock to `slot`.
    fn time<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let out = f();
        slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> PhaseTimings {
        let ms = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e6;
        PhaseTimings {
            predictor_train_ms: ms(&self.predictor_train),
            session_build_ms: ms(&self.session_build),
            session_restore_ms: ms(&self.session_restore),
            search_ms: ms(&self.search),
            persist_ms: ms(&self.persist),
        }
    }
}

/// One resident session.
struct SessionEntry {
    /// The shard whose slice created the entry (used to attribute
    /// eviction events).
    owner: ShardId,
    session: Arc<SessionState>,
    bytes: u64,
    /// Whether a spill artifact for this session already exists — sessions
    /// are immutable, so one write is enough for any number of evictions.
    on_disk: bool,
}

/// The budgeted LRU of [`SessionState`]s the scheduler keeps across time
/// slices, keyed by **prefix fingerprint** so every shard sharing a
/// deterministic prefix (same task, strategy, Stage-1 EA, epoch counts,
/// seed, eval budget — whatever its device, Stage-2 seed or objective
/// weights) shares one resident session.
///
/// Builds are **single-flight**: [`SessionCache::claim`] hands exactly
/// one caller a [`BuildGuard`] per missing key; every other worker
/// wanting that key while the build is in flight gets
/// [`SessionClaim::Deferred`] and re-queues its slice instead of building
/// a duplicate — which is also what lets a prefix build overlap other
/// shards' search slices on the worker budget.
struct SessionCache {
    budget: Option<u64>,
    inner: Mutex<SessionCacheState>,
    /// Signalled whenever an in-flight build publishes or aborts.
    build_done: Condvar,
}

#[derive(Default)]
struct SessionCacheState {
    /// Resident sessions by prefix fingerprint — O(1) lookups however
    /// many shards the fleet multiplexes.
    entries: HashMap<u64, SessionEntry>,
    /// LRU order over `entries` keys: front is the least recently used.
    /// Kept separately so eviction order is exactly the old Vec cache's
    /// (insertion order, refreshed on hit).
    order: Vec<u64>,
    /// Total resident bytes (maintained incrementally).
    resident_bytes: u64,
    /// Prefix fingerprints some worker is currently building.
    in_flight: HashSet<u64>,
    stats: SessionCacheStats,
}

/// What [`SessionCache::claim`] resolved to.
enum SessionClaim<'a> {
    /// A resident session; the LRU position was refreshed and the hit
    /// counted.
    Ready(Arc<SessionState>),
    /// The key is absent and the caller is now its only builder: restore
    /// or build the session, then [`BuildGuard::fulfil`]. Dropping the
    /// guard un-fulfilled (store error, panic) releases the key so
    /// another worker can claim it.
    Build(BuildGuard<'a>),
    /// Another worker is building the key right now; the caller should
    /// re-queue the slice (budget-neutral) and take other work.
    Deferred,
}

/// Exclusive build permission for one prefix key (see
/// [`SessionClaim::Build`]).
struct BuildGuard<'a> {
    cache: &'a SessionCache,
    key: PrefixKey,
    fulfilled: bool,
}

impl BuildGuard<'_> {
    /// Publishes the built/restored session, releases the in-flight
    /// claim, wakes deferred waiters, and applies the byte budget
    /// (spilling evicted sessions to `store` when possible). Returns
    /// `(owner, spilled)` per eviction for event emission.
    fn fulfil(
        mut self,
        owner: ShardId,
        session: Arc<SessionState>,
        on_disk: bool,
        store: Option<&ArtifactStore>,
    ) -> Result<Vec<(ShardId, bool)>, StoreError> {
        self.fulfilled = true;
        let bytes = session.approx_bytes();
        let fp = self.key.fingerprint;
        // Evictions are decided under the lock but *spilled* outside it:
        // serializing supernet weights to disk under the only cache mutex
        // would stall every other worker's slice boundary. A racing worker
        // that misses the evicted key before its spill lands simply
        // rebuilds — bit-identical, like any other cache miss.
        let mut to_spill = Vec::new();
        {
            let mut st = self.cache.inner.lock().unwrap();
            st.in_flight.remove(&fp);
            if let std::collections::hash_map::Entry::Vacant(slot) = st.entries.entry(fp) {
                slot.insert(SessionEntry {
                    owner,
                    session,
                    bytes,
                    on_disk,
                });
                st.order.push(fp);
                st.resident_bytes += bytes;
            }
            if let Some(budget) = self.cache.budget {
                while st.resident_bytes > budget && !st.order.is_empty() {
                    let victim = st.order.remove(0);
                    let e = st.entries.remove(&victim).expect("order tracks entries");
                    st.resident_bytes -= e.bytes;
                    st.stats.evictions += 1;
                    to_spill.push((victim, e));
                }
            }
        }
        self.cache.build_done.notify_all();
        let mut evicted = Vec::new();
        let mut spills = 0;
        for (victim, mut e) in to_spill {
            if !e.on_disk {
                if let (Some(store), Some(snap)) = (store, e.session.export()) {
                    store.save_session(
                        &PrefixKey {
                            fingerprint: victim,
                        },
                        &snap,
                    )?;
                    e.on_disk = true;
                    spills += 1;
                }
            }
            evicted.push((e.owner, e.on_disk));
        }
        if spills > 0 {
            self.cache.inner.lock().unwrap().stats.spills += spills;
        }
        Ok(evicted)
    }
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.cache
                .inner
                .lock()
                .unwrap()
                .in_flight
                .remove(&self.key.fingerprint);
            self.cache.build_done.notify_all();
        }
    }
}

impl SessionCache {
    /// Grace window a claimant waits for an in-flight build before
    /// deferring its slice — long enough to absorb a build that is just
    /// publishing, short enough that the worker gets back to useful work.
    const IN_FLIGHT_GRACE: std::time::Duration = std::time::Duration::from_millis(2);

    fn new(budget: Option<u64>) -> Self {
        SessionCache {
            budget,
            inner: Mutex::default(),
            build_done: Condvar::new(),
        }
    }

    /// Resolves `key` to a resident session, a build permission, or a
    /// deferral (see [`SessionClaim`]).
    fn claim(&self, key: PrefixKey) -> SessionClaim<'_> {
        let fp = key.fingerprint;
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(entry) = st.entries.get(&fp) {
                let session = Arc::clone(&entry.session);
                // Refresh the LRU position (same order discipline as the
                // pre-map Vec cache: move-to-back on hit).
                let pos = st.order.iter().position(|&f| f == fp).expect("order");
                st.order.remove(pos);
                st.order.push(fp);
                st.stats.hits += 1;
                return SessionClaim::Ready(session);
            }
            if !st.in_flight.contains(&fp) {
                st.in_flight.insert(fp);
                return SessionClaim::Build(BuildGuard {
                    cache: self,
                    key,
                    fulfilled: false,
                });
            }
            // Someone else is building this prefix. Wait out one short
            // grace window in case it is about to publish; if it is still
            // in flight after that, defer the slice instead of blocking a
            // worker on another worker's build.
            let (guard, timeout) = self
                .build_done
                .wait_timeout(st, Self::IN_FLIGHT_GRACE)
                .unwrap();
            st = guard;
            if timeout.timed_out() && !st.entries.contains_key(&fp) && st.in_flight.contains(&fp) {
                st.stats.deferrals += 1;
                return SessionClaim::Deferred;
            }
        }
    }

    fn note_built(&self) {
        self.inner.lock().unwrap().stats.builds += 1;
    }

    fn note_restored(&self) {
        self.inner.lock().unwrap().stats.restores += 1;
    }

    fn stats(&self) -> SessionCacheStats {
        self.inner.lock().unwrap().stats
    }
}

/// What one shard produced.
#[derive(Debug)]
pub struct ShardResult {
    /// The shard's index in the spec list.
    pub shard: ShardId,
    /// Its scenario label (from the spec).
    pub scenario: String,
    /// Its target device.
    pub device: DeviceKind,
    /// The search outcome — bit-identical to a serial
    /// [`Hgnas::run_with`] of the same options. `None` only when the
    /// slice budget ran out first.
    pub outcome: Option<SearchOutcome>,
    /// Latency/accuracy Pareto front over every constraint-satisfying
    /// candidate the shard scored so far, fastest first.
    pub pareto: Vec<ParetoPoint>,
    /// Predictor-training epochs this run actually executed (0 on a warm
    /// start from the artifact store).
    pub predictor_epochs_run: usize,
    /// Whether the predictor came from the artifact store.
    pub warm_predictor: bool,
    /// The generation a persisted checkpoint resumed the shard from.
    pub resumed_from_generation: Option<usize>,
    /// Time slices the shard consumed this run (deferred slices are not
    /// counted — they did no work and their budget unit was refunded).
    pub slices: u64,
    /// How many times this shard's slices computed the deterministic
    /// prefix from scratch (Stage 1 + supernet pre-training for
    /// multi-stage shards). With an adequate session memory budget, at
    /// most 1 across **all shards sharing the prefix** — the tentpole
    /// invariant; every extra unit is a replay the budget forced.
    pub prefix_builds: u64,
    /// Slices that reused a *resident* session. Disjoint from
    /// `session_restores` and `prefix_builds`; the three sum to `slices`.
    pub session_hits: u64,
    /// Slices that reloaded a spilled session from the artifact store
    /// (weights decoded, nothing retrained). Counted separately from
    /// `session_hits` so hit-rates reflect true cache residency.
    pub session_restores: u64,
    /// Slices re-queued because another worker was already building this
    /// shard's prefix (single-flight). Not part of the `slices` sum.
    pub session_deferrals: u64,
}

/// Everything a scheduler run produced.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Per-shard results, in spec order.
    pub shards: Vec<ShardResult>,
    /// Oracle counters (when any shard measured).
    pub oracle_stats: Option<OracleStats>,
    /// Session-cache counters for the whole run.
    pub session_stats: SessionCacheStats,
    /// Where the run's wall-clock went, summed across workers.
    pub phase_timings: PhaseTimings,
}

/// Mutable per-shard state carried between time slices.
#[derive(Default)]
struct ShardState {
    predictor: Option<PretrainedPredictor>,
    warm_predictor: bool,
    predictor_epochs_run: usize,
    /// In-memory checkpoint between slices (faster than a store
    /// round-trip and present even without a store).
    checkpoint: Option<Checkpoint>,
    /// Whether the store has been probed for a resume checkpoint.
    store_probed: bool,
    resumed_from_generation: Option<usize>,
    started: bool,
    slices: u64,
    prefix_builds: u64,
    session_hits: u64,
    session_restores: u64,
    session_deferrals: u64,
    /// `(latency bits, accuracy bits)` signature of the last announced
    /// Pareto front, for change detection.
    last_front: Vec<(u64, u64)>,
    finished: Option<ShardResult>,
}

/// What the ready queue carries.
enum Job {
    /// Run one slice of this shard.
    Slice(ShardId),
    /// Worker shutdown pill.
    Stop,
}

/// What one call to `run_slice` did.
enum SliceOutcome {
    /// The shard ran to completion.
    Finished,
    /// The slice expired; the shard re-queues behind its peers with its
    /// checkpoint retained.
    Preempted,
    /// Another worker was building this shard's prefix (single-flight):
    /// nothing ran, the shard re-queues, and the consumed budget unit is
    /// refunded.
    Deferred,
}

/// The fleet scheduler. See the module docs.
#[derive(Debug)]
pub struct Scheduler {
    specs: Vec<ShardSpec>,
    cfg: SchedulerConfig,
}

/// Builds the Pareto front from a checkpoint's score cache: every valid
/// scored candidate competes on (latency, accuracy), with energy and
/// peak-memory axes joining exactly when the shard's objective priced
/// them (then any candidate carries them). With only the two classic
/// axes, [`pareto_front_nd`] membership matches the 2-D [`pareto_front`]
/// exactly, so legacy fronts are bit-identical.
pub(crate) fn checkpoint_pareto(cp: &Checkpoint) -> Vec<ParetoPoint> {
    let entries: Vec<(&[OpType], &ScoredCandidate)> = match cp {
        Checkpoint::MultiStage(cp) => cp.cache.iter().map(|(g, c)| (g.as_slice(), c)).collect(),
        Checkpoint::OneStage(cp) => cp.cache.iter().map(|(g, c)| (g.2.as_slice(), c)).collect(),
    };
    let valid: Vec<_> = entries.into_iter().filter(|(_, c)| c.valid).collect();
    let has_energy = valid.iter().any(|(_, c)| c.energy_mj.is_some());
    let has_mem = valid.iter().any(|(_, c)| c.peak_mem_mb.is_some());
    let mut maximize = vec![false, true];
    let points: Vec<Vec<f64>> = valid
        .iter()
        .map(|(_, c)| {
            let mut p = vec![c.latency_ms, c.accuracy];
            if has_energy {
                p.push(c.energy_mj.unwrap_or(0.0));
            }
            if has_mem {
                p.push(c.peak_mem_mb.unwrap_or(0.0));
            }
            p
        })
        .collect();
    if has_energy {
        maximize.push(false);
    }
    if has_mem {
        maximize.push(false);
    }
    let mut front: Vec<ParetoPoint> = pareto_front_nd(&points, &maximize)
        .into_iter()
        .map(|i| ParetoPoint {
            latency_ms: valid[i].1.latency_ms,
            accuracy: valid[i].1.accuracy,
            energy_mj: valid[i].1.energy_mj,
            peak_mem_mb: valid[i].1.peak_mem_mb,
            genome: valid[i].0.to_vec(),
        })
        .collect();
    front.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    front
}

fn emit(events: Option<&Sender<FleetEvent>>, ev: FleetEvent) {
    if let Some(tx) = events {
        // A consumer that hung up is not the scheduler's problem.
        let _ = tx.send(ev);
    }
}

impl Scheduler {
    /// A scheduler over `specs` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<ShardSpec>, cfg: SchedulerConfig) -> Self {
        assert!(!specs.is_empty(), "scheduler needs at least one shard");
        Scheduler { specs, cfg }
    }

    /// The shard specs, in the order results are reported.
    pub fn specs(&self) -> &[ShardSpec] {
        &self.specs
    }

    /// Runs every shard (within the slice budget, if one is set) and
    /// returns per-shard results in spec order. `store` enables
    /// predictor/checkpoint/score-cache persistence and store-based
    /// resume; `events` streams [`FleetEvent`]s to a consumer on another
    /// thread.
    ///
    /// # Errors
    ///
    /// The first [`StoreError`] any shard hit; remaining shards are
    /// stopped at their next slice boundary.
    ///
    /// # Panics
    ///
    /// If a slice panics, every worker stops at its next slice boundary and
    /// the first panic is re-raised here with its original payload.
    pub fn run(
        &self,
        store: Option<&ArtifactStore>,
        events: Option<Sender<FleetEvent>>,
    ) -> Result<SchedulerReport, StoreError> {
        let n = self.specs.len();
        let measured: Vec<hgnas_device::DeviceProfile> = {
            let mut seen: Vec<hgnas_device::DeviceProfile> = Vec::new();
            for s in &self.specs {
                if s.config.latency_mode == LatencyMode::Measured {
                    let p = s.config.device_profile();
                    if !seen.contains(&p) {
                        seen.push(p);
                    }
                }
            }
            seen
        };
        let oracle = (!measured.is_empty())
            .then(|| MeasurementOracle::start_profiles(&measured, &self.cfg.oracle));

        let workers = if self.cfg.threads == 0 {
            n
        } else {
            self.cfg.threads.min(n).max(1)
        };
        let sessions = SessionCache::new(self.cfg.session_memory_budget);
        let phases = PhaseClock::default();
        let states: Vec<Mutex<ShardState>> = (0..n).map(|_| Mutex::default()).collect();
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..n {
            let _ = tx.send(Job::Slice(i));
        }
        let remaining = AtomicUsize::new(n);
        let budget = self.cfg.max_slices.map(AtomicU64::new);
        let failure: Mutex<Option<StoreError>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        crossbeam::scope(|s| {
            for w in 0..workers {
                let rx = rx.clone();
                let tx = tx.clone();
                let events = events.clone();
                let (states, remaining, budget, failure, abort, oracle, sessions, phases) = (
                    &states,
                    &remaining,
                    &budget,
                    &failure,
                    &abort,
                    oracle.as_ref(),
                    &sessions,
                    &phases,
                );
                let panicked = &panicked;
                // 0 tells the slice to use the spec's own eval_threads
                // (legacy one-worker-per-shard mode); otherwise split the
                // budget, spreading the remainder over the first workers.
                let kernel_budget = if self.cfg.threads == 0 {
                    0
                } else {
                    (self.cfg.threads / workers + usize::from(w < self.cfg.threads % workers))
                        .max(1)
                };
                s.spawn(move |_| {
                    let stop_all = || {
                        for _ in 0..workers {
                            let _ = tx.send(Job::Stop);
                        }
                    };
                    let finish_one = || {
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            stop_all();
                        }
                    };
                    // Exit on a Stop pill or channel teardown alike.
                    while let Ok(Job::Slice(i)) = rx.recv() {
                        // The drain flag is checked *before* the budget
                        // decrement so a drained round leaves the
                        // remaining grant intact (nothing is charged for
                        // slices that never ran).
                        let stopping = abort.load(Ordering::SeqCst)
                            || self
                                .cfg
                                .stop
                                .as_ref()
                                .is_some_and(|s| s.load(Ordering::SeqCst));
                        let budget_left = !stopping
                            && budget.as_ref().is_none_or(|b| {
                                b.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                                    v.checked_sub(1)
                                })
                                .is_ok()
                            });
                        if stopping || !budget_left {
                            // Parked: leaves the rotation with its latest
                            // checkpoint persisted/retained.
                            finish_one();
                            continue;
                        }
                        let mut st = states[i].lock().unwrap();
                        let slice = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            self.run_slice(
                                i,
                                &mut st,
                                kernel_budget,
                                store,
                                oracle,
                                sessions,
                                phases,
                                events.as_ref(),
                            )
                        }));
                        let slice = match slice {
                            Ok(slice) => slice,
                            Err(payload) => {
                                // Stop every worker, so none waits on
                                // shards that will never finish, and keep
                                // the payload for `run` to re-raise.
                                abort.store(true, Ordering::SeqCst);
                                panicked.lock().unwrap().get_or_insert(payload);
                                drop(st);
                                stop_all();
                                break;
                            }
                        };
                        match slice {
                            Ok(SliceOutcome::Finished) => {
                                drop(st);
                                finish_one();
                            }
                            Ok(SliceOutcome::Preempted) => {
                                drop(st);
                                let _ = tx.send(Job::Slice(i));
                            }
                            Ok(SliceOutcome::Deferred) => {
                                drop(st);
                                // The slice did no work: hand its budget
                                // unit back before re-queueing, so a
                                // deferral can never starve a budgeted
                                // run of real slices.
                                if let Some(b) = budget.as_ref() {
                                    b.fetch_add(1, Ordering::SeqCst);
                                }
                                let _ = tx.send(Job::Slice(i));
                            }
                            Err(e) => {
                                emit(
                                    events.as_ref(),
                                    FleetEvent::ShardFailed {
                                        shard: i,
                                        device: self.specs[i].config.device,
                                        error: e.to_string(),
                                    },
                                );
                                failure.lock().unwrap().get_or_insert(e);
                                abort.store(true, Ordering::SeqCst);
                                drop(st);
                                finish_one();
                            }
                        }
                    }
                });
            }
        })
        .expect("slice panics are caught inside the workers");

        let oracle_stats = oracle.map(MeasurementOracle::shutdown);
        if let Some(payload) = panicked.into_inner().unwrap() {
            std::panic::resume_unwind(payload);
        }
        if let Some(e) = failure.into_inner().unwrap() {
            return Err(e);
        }
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(i, st)| {
                let st = st.into_inner().unwrap();
                st.finished.unwrap_or_else(|| ShardResult {
                    shard: i,
                    scenario: self.specs[i].scenario.clone(),
                    device: self.specs[i].config.device,
                    outcome: None,
                    pareto: st
                        .checkpoint
                        .as_ref()
                        .map(checkpoint_pareto)
                        .unwrap_or_default(),
                    predictor_epochs_run: st.predictor_epochs_run,
                    warm_predictor: st.warm_predictor,
                    resumed_from_generation: st.resumed_from_generation,
                    slices: st.slices,
                    prefix_builds: st.prefix_builds,
                    session_hits: st.session_hits,
                    session_restores: st.session_restores,
                    session_deferrals: st.session_deferrals,
                })
            })
            .collect();
        Ok(SchedulerReport {
            shards,
            oracle_stats,
            session_stats: sessions.stats(),
            phase_timings: phases.snapshot(),
        })
    }

    /// Runs one time slice of shard `i`. See [`SliceOutcome`] for the
    /// three ways it can return.
    #[allow(clippy::too_many_arguments)]
    fn run_slice(
        &self,
        i: ShardId,
        st: &mut ShardState,
        kernel_budget: usize,
        store: Option<&ArtifactStore>,
        oracle: Option<&MeasurementOracle>,
        sessions: &SessionCache,
        phases: &PhaseClock,
        events: Option<&Sender<FleetEvent>>,
    ) -> Result<SliceOutcome, StoreError> {
        let spec = &self.specs[i];
        let mut cfg = spec.config.clone();
        if kernel_budget > 0 {
            // Bit-transparent by the evaluator contract, so the scheduler
            // is free to re-split the budget as the worker pool shrinks.
            cfg.eval_threads = kernel_budget;
        }
        let device = cfg.device;

        // Predictor: once per shard, reused across every later slice
        // (artifact store first, training second — exactly the serial
        // path, so warm or cold the outcome is unchanged).
        if cfg.latency_mode == LatencyMode::Predictor && st.predictor.is_none() {
            let key = ArtifactKey {
                device,
                fingerprint: persona_predictor_fingerprint(
                    &spec.task.predictor_context(),
                    &cfg.predictor,
                    cfg.persona.as_ref(),
                ),
            };
            let mut pretrained = None;
            if let Some(store) = store {
                if let Some(snap) = store.load_predictor(&key)? {
                    let (p, stats) = LatencyPredictor::from_snapshot(&snap);
                    pretrained = Some(PretrainedPredictor {
                        predictor: Arc::new(p),
                        stats,
                    });
                    st.warm_predictor = true;
                }
            }
            if pretrained.is_none() {
                let (p, stats) = PhaseClock::time(&phases.predictor_train, || {
                    with_kernel_threads(cfg.eval_threads, || {
                        LatencyPredictor::train_with_profile(
                            &cfg.device_profile(),
                            &spec.task.predictor_context(),
                            &cfg.predictor,
                        )
                    })
                });
                st.predictor_epochs_run = cfg.predictor.epochs;
                if let Some(store) = store {
                    PhaseClock::time(&phases.persist, || {
                        store.save_predictor(&key, &p.snapshot(&stats))
                    })?;
                }
                pretrained = Some(PretrainedPredictor {
                    predictor: Arc::new(p),
                    stats,
                });
            }
            st.predictor = pretrained;
        }

        let search_key = ArtifactKey {
            device,
            fingerprint: search_fingerprint(&spec.task, &cfg),
        };

        // Resume source: the in-memory checkpoint from the previous slice,
        // else (first slice only) whatever the store persisted.
        let resume = match st.checkpoint.take() {
            Some(cp) => Some(cp),
            None if !st.store_probed => {
                st.store_probed = true;
                match store {
                    Some(store) => {
                        let cp = match cfg.strategy {
                            Strategy::MultiStage => store
                                .load_checkpoint(&search_key)?
                                .map(Checkpoint::MultiStage),
                            Strategy::OneStage => store
                                .load_one_stage_checkpoint(&search_key)?
                                .map(Checkpoint::OneStage),
                        };
                        st.resumed_from_generation = cp.as_ref().map(Checkpoint::generation);
                        cp
                    }
                    None => None,
                }
            }
            None => None,
        };

        if !st.started {
            st.started = true;
            emit(
                events,
                FleetEvent::ShardStarted {
                    shard: i,
                    device,
                    resumed_from: st.resumed_from_generation,
                    warm_predictor: st.warm_predictor,
                },
            );
        }

        // Session: the shard's deterministic prefix (dataset, Stage-1
        // winners, pre-trained supernet), resident across slices AND
        // shared across every shard with the same prefix fingerprint, so
        // a resumed slice skips straight to its checkpointed generation.
        // Cache → store spill → fresh build, in that order; every path is
        // bit-identical, later ones just pay more. Builds are
        // single-flight: a second shard wanting an in-flight prefix
        // defers its slice instead of duplicating the work.
        let prefix_key = PrefixKey {
            fingerprint: prefix_fingerprint(&spec.task, &cfg),
        };
        let hgnas = Hgnas::new(spec.task.clone(), cfg);
        let session = match sessions.claim(prefix_key) {
            SessionClaim::Ready(session) => {
                st.session_hits += 1;
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard: i,
                        device,
                        action: SessionAction::Hit,
                    },
                );
                session
            }
            SessionClaim::Deferred => {
                // Put the resume checkpoint back untouched — the deferred
                // slice re-runs from exactly this state later.
                st.checkpoint = resume;
                st.session_deferrals += 1;
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard: i,
                        device,
                        action: SessionAction::Deferred,
                    },
                );
                return Ok(SliceOutcome::Deferred);
            }
            SessionClaim::Build(guard) => {
                let mut restored = None;
                if let Some(store) = store {
                    if let Some(snap) = store.load_session(&prefix_key)? {
                        restored = Some(PhaseClock::time(&phases.session_restore, || {
                            Arc::new(SessionState::restore(
                                spec.task.clone(),
                                hgnas.config().clone(),
                                snap,
                            ))
                        }));
                    }
                }
                let on_disk = restored.is_some();
                let (session, action) = match restored {
                    Some(session) => {
                        st.session_restores += 1;
                        sessions.note_restored();
                        (session, SessionAction::Restored)
                    }
                    None => {
                        st.prefix_builds += 1;
                        sessions.note_built();
                        let built = PhaseClock::time(&phases.session_build, || {
                            Arc::new(hgnas.prepare_session())
                        });
                        (built, SessionAction::Built)
                    }
                };
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard: i,
                        device,
                        action,
                    },
                );
                let evicted = guard.fulfil(i, Arc::clone(&session), on_disk, store)?;
                for (owner, spilled) in evicted {
                    emit(
                        events,
                        FleetEvent::SessionCache {
                            shard: owner,
                            device: self.specs[owner].config.device,
                            action: SessionAction::Evicted { spilled },
                        },
                    );
                }
                session
            }
        };

        let start_gen = resume.as_ref().map(Checkpoint::generation).unwrap_or(0);
        let iterations = hgnas.config().ea_stage2.iterations;
        let abort_after = (self.cfg.preemption_stride > 0)
            .then(|| start_gen + self.cfg.preemption_stride)
            .filter(|&g| g < iterations);

        let mut sink_err: Option<StoreError> = None;
        // Local persist accumulator: `phases.persist` is shared with the
        // other workers, so a cross-run delta of it would charge *their*
        // store writes against *this* shard's search time.
        let mut sink_persist_ns: u64 = 0;
        let mut sink = |cp: &Checkpoint| {
            if sink_err.is_none() {
                if let Some(store) = store {
                    let t = std::time::Instant::now();
                    let r = match cp {
                        Checkpoint::MultiStage(cp) => store
                            .save_checkpoint(&search_key, &spec.task, cp)
                            .map(|_| ()),
                        Checkpoint::OneStage(cp) => store
                            .save_one_stage_checkpoint(&search_key, &spec.task, cp)
                            .map(|_| ()),
                    };
                    let ns = t.elapsed().as_nanos() as u64;
                    sink_persist_ns += ns;
                    phases.persist.fetch_add(ns, Ordering::Relaxed);
                    if let Err(e) = r {
                        sink_err = Some(e);
                    }
                }
            }
            emit(
                events,
                FleetEvent::GenerationDone {
                    shard: i,
                    device,
                    generation: cp.generation(),
                    iterations,
                    best_score: cp.best_score(),
                    clock_hours: cp.clock_ms() / 3.6e6,
                },
            );
        };
        let want_sink = store.is_some() || events.is_some();
        // The import is only needed on the shard's first slice: from then
        // on the un-promoted remainder rides in the resume checkpoint's
        // warm cache, so re-cloning the donor every slice would be pure
        // overhead (re-importing is idempotent but not free).
        let imported = match (&spec.imported_cache, hgnas.config().strategy, st.slices) {
            (Some(c), Strategy::MultiStage, 0) => Some(c.clone()),
            _ => None,
        };
        // Search time is run_with's wall-clock minus whatever the sink
        // spent persisting checkpoints inside it.
        let search_t = std::time::Instant::now();
        let out = hgnas.run_with(RunOptions {
            backend: oracle.map(|o| {
                Arc::new(o.client_for(&hgnas.config().device_profile())) as Arc<dyn MeasureBackend>
            }),
            predictor: st.predictor.clone(),
            resume,
            checkpoint_sink: want_sink.then_some(&mut sink as &mut dyn FnMut(&Checkpoint)),
            checkpoint_every: self.cfg.checkpoint_every,
            abort_after_generation: abort_after,
            imported_cache: imported,
            session: Some(&session),
        });
        let search_ns = (search_t.elapsed().as_nanos() as u64).saturating_sub(sink_persist_ns);
        phases.search.fetch_add(search_ns, Ordering::Relaxed);
        if let Some(e) = sink_err {
            return Err(e);
        }
        st.slices += 1;

        // Announce front changes at every slice boundary.
        if let Some(cp) = &out.checkpoint {
            if events.is_some() {
                let front = checkpoint_pareto(cp);
                let sig: Vec<(u64, u64)> = front
                    .iter()
                    .map(|p| (p.latency_ms.to_bits(), p.accuracy.to_bits()))
                    .collect();
                if sig != st.last_front {
                    st.last_front = sig;
                    emit(
                        events,
                        FleetEvent::ParetoUpdated {
                            shard: i,
                            device,
                            front,
                        },
                    );
                }
            }
        }

        match out.outcome {
            None => {
                emit(
                    events,
                    FleetEvent::ShardPreempted {
                        shard: i,
                        device,
                        generation: out.checkpoint.as_ref().map_or(0, Checkpoint::generation),
                    },
                );
                st.checkpoint = out.checkpoint;
                Ok(SliceOutcome::Preempted)
            }
            Some(outcome) => {
                // Final persistence: the sink already wrote the last
                // checkpoint; multi-stage runs also publish their score
                // cache for future warm starts.
                if let (Some(store), Some(Checkpoint::MultiStage(cp))) =
                    (store, out.checkpoint.as_ref())
                {
                    PhaseClock::time(&phases.persist, || {
                        store.save_score_cache(&search_key, &spec.task, cp.functions, &cp.cache)
                    })?;
                }
                let pareto = out
                    .checkpoint
                    .as_ref()
                    .map(checkpoint_pareto)
                    .unwrap_or_default();
                let stats = outcome.eval_stats;
                emit(
                    events,
                    FleetEvent::ShardFinished {
                        shard: i,
                        device,
                        latency_ms: outcome.best.latency_ms,
                        accuracy: outcome.best.supernet_accuracy,
                        score: outcome.best.score,
                        reference_ms: outcome.reference_ms,
                        search_hours: outcome.search_hours,
                        hit_pct: stats.map_or(0.0, |e| {
                            100.0 * (e.hits + e.imported) as f64 / e.submitted.max(1) as f64
                        }),
                        imported: stats.map_or(0, |e| e.imported),
                    },
                );
                st.finished = Some(ShardResult {
                    shard: i,
                    scenario: spec.scenario.clone(),
                    device,
                    outcome: Some(outcome),
                    pareto,
                    predictor_epochs_run: st.predictor_epochs_run,
                    warm_predictor: st.warm_predictor,
                    resumed_from_generation: st.resumed_from_generation,
                    slices: st.slices,
                    prefix_builds: st.prefix_builds,
                    session_hits: st.session_hits,
                    session_restores: st.session_restores,
                    session_deferrals: st.session_deferrals,
                });
                Ok(SliceOutcome::Finished)
            }
        }
    }
}
