//! The server: frontend admission, the deterministic virtual-time event
//! loop, and the configuration that ties engine, fleet and batcher
//! together.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use vegeta::prelude::*;
use vegeta::session::{preflight, Preflight};

use crate::batch::{Admit, Batcher, BatcherConfig};
use crate::loadgen::LoadGen;
use crate::report::{percentile_us, ServeReport};
use crate::request::{BatchKey, Outcome, Request, RequestError, Response};
use crate::worker::{SimOutcome, WorkerPool};

/// Serving configuration: the engine and fleet the workers model, the
/// admission bound, and the batching policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine every worker runs.
    pub engine: EngineConfig,
    /// Per-core simulator configuration (also the virtual-clock source).
    pub sim: SimConfig,
    /// Fleet size: virtual workers serving batches.
    pub workers: usize,
    /// Simulator cores per worker (1 = an unsharded worker, the kernel's
    /// stream on one core; more shard each kernel and pack the shards
    /// longest first).
    pub cores_per_worker: usize,
    /// Admission bound: requests admitted but not yet dispatched beyond
    /// this are shed.
    pub queue_depth: usize,
    /// Batching policy.
    pub batcher: BatcherConfig,
    /// Shape fidelity for layer requests.
    pub fidelity: Fidelity,
    /// Kernel generation options for layer requests.
    pub opts: KernelOptions,
    /// Host threads simulating distinct batch keys (`0` = one per
    /// worker). Never affects results, only how fast they are computed.
    pub threads: usize,
    /// Whether admission runs the `vegeta-lint` preflight on every
    /// request, layer and spec work alike (verdicts are memoized in the
    /// server's trace cache).
    pub preflight: bool,
}

impl ServeConfig {
    /// Defaults: 4 single-core workers, a 64-deep queue,
    /// the default batching window, full fidelity, preflight on.
    pub fn new(engine: EngineConfig) -> Self {
        ServeConfig {
            engine,
            sim: SimConfig::default(),
            workers: 4,
            cores_per_worker: 1,
            queue_depth: 64,
            batcher: BatcherConfig::default(),
            fidelity: Fidelity::Full,
            opts: KernelOptions::default(),
            threads: 0,
            preflight: true,
        }
    }

    /// Sets the fleet size (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets simulator cores per worker (at least 1).
    pub fn with_cores_per_worker(mut self, cores: usize) -> Self {
        self.cores_per_worker = cores.max(1);
        self
    }

    /// Sets the admission queue bound (at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the batching policy.
    pub fn with_batcher(mut self, batcher: BatcherConfig) -> Self {
        self.batcher = batcher;
        self
    }

    /// Disables batching (every request is a batch of one).
    pub fn without_batching(mut self) -> Self {
        self.batcher = BatcherConfig::off();
        self
    }

    /// Sets the shape fidelity for layer requests.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the host thread count for key simulation (`0` = one per
    /// worker).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the admission preflight.
    pub fn with_preflight(mut self, enabled: bool) -> Self {
        self.preflight = enabled;
        self
    }

    /// The host thread count actually used.
    ///
    /// `0` means one per worker. When workers are multi-core, each
    /// worker's key simulation can itself fan out over host threads
    /// (its per-core runs), so the phase-1 fan-out is capped
    /// at the host's available parallelism — oversubscribing both layers
    /// at once only adds scheduling noise, never changes results.
    pub(crate) fn host_threads(&self) -> usize {
        let threads = if self.threads == 0 {
            self.workers
        } else {
            self.threads
        };
        if self.cores_per_worker > 1 {
            let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            threads.min(avail).max(1)
        } else {
            threads
        }
    }

    /// The `cores` argument admission preflights at: 0 selects the
    /// unsharded lint path for single-core workers, matching what the
    /// worker will execute.
    fn preflight_cores(&self) -> usize {
        if self.cores_per_worker <= 1 {
            0
        } else {
            self.cores_per_worker
        }
    }
}

/// The admission frontend: resolves each request to its batch key,
/// structurally validates it, and runs the `vegeta-lint`
/// [`preflight`] on it (layer and spec work alike, unless
/// [`ServeConfig::preflight`] is off) — so a malformed or unverifiable
/// spec becomes a structured [`RequestError`] at the door instead of a
/// panic inside a worker. Verdicts are memoized in the trace cache, so
/// every server and session sharing it verifies each key once.
#[derive(Debug, Clone)]
pub struct Frontend {
    engine: EngineConfig,
    opts: KernelOptions,
    fidelity: Fidelity,
    cores: usize,
    preflight: bool,
    cache: Arc<TraceCache>,
}

impl Frontend {
    /// The frontend for `cfg`, verifying against `cache`'s verdicts.
    pub fn new(cfg: &ServeConfig, cache: Arc<TraceCache>) -> Self {
        Frontend {
            engine: cfg.engine.clone(),
            opts: cfg.opts,
            fidelity: cfg.fidelity,
            cores: cfg.preflight_cores(),
            preflight: cfg.preflight,
            cache,
        }
    }

    /// Admits one request: `Ok` with the key it will execute as, or the
    /// structured error the client gets back.
    pub fn admit(&self, request: &Request) -> Result<BatchKey, RequestError> {
        let key = request
            .work
            .resolve(&self.engine, self.opts, self.fidelity)?;
        preflight(
            &self.cache,
            key.shape,
            &key.spec,
            self.cores,
            self.preflight,
        )
        .map_err(RequestError::Preflight)?;
        Ok(key)
    }
}

/// Event kinds of the virtual-time loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A worker finished its batch and is free again.
    Free { worker: usize },
    /// A request arrives at the frontend.
    Arrive { req: usize },
    /// A batch's window expired.
    Close { batch: usize },
}

/// A heap entry: ordered by time, then kind (Free < Arrive < Close, so a
/// freed worker is visible to arrivals on the same tick and a zero-window
/// close still coalesces that tick's arrivals), then insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: u64,
    order: u8,
    seq: u64,
    kind: EventKind,
}

/// The batched serving loop over a simulated worker fleet.
///
/// `serve` replays admission, batching, dispatch and completion on a
/// single-threaded discrete-event loop over virtual time. Host threads
/// parallelize only the per-key *simulations* (phase 1); the timeline
/// itself (phase 2) is sequential and fully ordered, so the emitted
/// [`ServeReport`] is byte-identical for a given `(config, load)`
/// regardless of host machine or thread count.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cache: Arc<TraceCache>,
    memo: Option<ServiceMemo>,
}

/// A shareable memo of per-key simulation outcomes, for reusing service
/// times across servers whose workers are identical (same engine, sim
/// config and cores per worker — the caller's contract; the
/// memo itself cannot check it).
pub type ServiceMemo = Arc<Mutex<HashMap<BatchKey, SimOutcome>>>;

impl Server {
    /// A server over a fresh shared [`TraceCache`].
    pub fn new(cfg: ServeConfig) -> Self {
        Server {
            cfg,
            cache: TraceCache::shared(),
            memo: None,
        }
    }

    /// Shares an existing trace cache, and with it the cache's preflight
    /// verdicts (e.g. across sweep cells, or with a
    /// [`Session`](vegeta::session::Session)).
    pub fn with_cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Shares a [`ServiceMemo`] across servers with identical worker
    /// configurations, so a QPS/worker-count sweep simulates each distinct
    /// key once instead of once per cell. Memoized or fresh, the outcomes
    /// are identical — the memo changes cost, never results.
    pub fn with_service_memo(mut self, memo: ServiceMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Does nothing: kept only because the perfbench serving harness
    /// calls it. Preflight verdicts live in the trace cache
    /// ([`Server::with_cache`] shares them).
    pub fn with_preflight_memo(self, _: Preflight) -> Self {
        self
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The admission frontend this server applies.
    pub fn frontend(&self) -> Frontend {
        Frontend::new(&self.cfg, Arc::clone(&self.cache))
    }

    /// The worker pool this server dispatches to.
    pub fn pool(&self) -> WorkerPool {
        WorkerPool::new(
            self.cfg.engine.clone(),
            self.cfg.sim.clone(),
            self.cfg.cores_per_worker,
            self.cfg.host_threads(),
            Arc::clone(&self.cache),
        )
    }

    /// Generates `load`'s arrival trace and serves it.
    pub fn serve(&self, load: &LoadGen) -> ServeReport {
        self.serve_requests(&load.generate(), load.qps, load.seed).0
    }

    /// Serves an explicit request trace. `offered_qps` and `seed` are
    /// echoed into the report (use the [`LoadGen`] values, or 0 for
    /// hand-built traces). Returns the report plus one [`Response`] per
    /// request, in input order.
    pub fn serve_requests(
        &self,
        requests: &[Request],
        offered_qps: f64,
        seed: u64,
    ) -> (ServeReport, Vec<Response>) {
        let frontend = self.frontend();

        // Admission: resolve every request to its key or its error.
        let admissions: Vec<Result<BatchKey, RequestError>> =
            requests.iter().map(|r| frontend.admit(r)).collect();

        // Phase 1: simulate each distinct admissible key once, fanning
        // out over host threads (results are thread-count independent).
        let keys: Vec<BatchKey> = admissions.iter().flatten().cloned().collect();
        let pool = self.pool();
        let outcomes: HashMap<BatchKey, SimOutcome> = match &self.memo {
            None => pool.simulate_all(&keys),
            Some(memo) => {
                let cached: HashMap<BatchKey, SimOutcome> = {
                    let memo = memo.lock().expect("service memo poisoned");
                    keys.iter()
                        .filter_map(|k| memo.get(k).map(|o| (k.clone(), *o)))
                        .collect()
                };
                let missing: Vec<BatchKey> = keys
                    .iter()
                    .filter(|k| !cached.contains_key(*k))
                    .cloned()
                    .collect();
                let mut fresh = pool.simulate_all(&missing);
                let mut memo = memo.lock().expect("service memo poisoned");
                for (k, o) in &fresh {
                    memo.insert(k.clone(), *o);
                }
                fresh.extend(cached);
                fresh
            }
        };

        // Phase 2: the sequential virtual-time replay.
        self.replay(requests, &admissions, &outcomes, offered_qps, seed)
    }

    /// The discrete-event replay: arrivals, admission control, batching,
    /// dispatch to the earliest-free lowest-id worker, completion.
    #[allow(clippy::too_many_lines)] // one linear event loop reads better unsplit
    fn replay(
        &self,
        requests: &[Request],
        admissions: &[Result<BatchKey, RequestError>],
        outcomes: &HashMap<BatchKey, SimOutcome>,
        offered_qps: f64,
        seed: u64,
    ) -> (ServeReport, Vec<Response>) {
        let cfg = &self.cfg;
        let mut responses: Vec<Option<Outcome>> = vec![None; requests.len()];
        let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |events: &mut BinaryHeap<Reverse<Event>>, at: u64, kind: EventKind| {
            let order = match kind {
                EventKind::Free { .. } => 0,
                EventKind::Arrive { .. } => 1,
                EventKind::Close { .. } => 2,
            };
            events.push(Reverse(Event {
                at,
                order,
                seq,
                kind,
            }));
            seq += 1;
        };

        // Reject at the door; queue arrivals for everyone else. Arrival
        // events are pushed in input order, so equal-time arrivals keep
        // their submission order (seq breaks the tie).
        for (i, admission) in admissions.iter().enumerate() {
            match admission {
                Err(err) => responses[i] = Some(Outcome::Rejected(err.clone())),
                Ok(_) => push(
                    &mut events,
                    requests[i].arrival_us,
                    EventKind::Arrive { req: i },
                ),
            }
        }

        let mut batcher = Batcher::new(cfg.batcher);
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut idle: BTreeSet<usize> = (0..cfg.workers).collect();
        let mut busy_us: Vec<u64> = vec![0; cfg.workers];
        let mut queued = 0usize;
        let mut max_queue_depth = 0usize;
        let mut shed = 0usize;
        let mut latencies: Vec<u64> = Vec::new();
        let mut batch_hist: HashMap<usize, usize> = HashMap::new();
        let mut deadline_misses = 0usize;
        let mut batches_dispatched = 0usize;
        let mut makespan_us = 0u64;

        while let Some(Reverse(event)) = events.pop() {
            let now = event.at;
            match event.kind {
                EventKind::Free { worker } => {
                    idle.insert(worker);
                }
                EventKind::Arrive { req } => {
                    if queued >= cfg.queue_depth {
                        responses[req] = Some(Outcome::Shed {
                            queue_depth: cfg.queue_depth,
                        });
                        shed += 1;
                        continue;
                    }
                    queued += 1;
                    max_queue_depth = max_queue_depth.max(queued);
                    let key = admissions[req].as_ref().expect("admitted request has key");
                    match batcher.add(key, req, now) {
                        Admit::Joined { .. } => {}
                        Admit::Opened { batch, close_at_us } => {
                            push(&mut events, close_at_us, EventKind::Close { batch });
                        }
                        Admit::Filled { batch } => ready.push_back(batch),
                    }
                }
                EventKind::Close { batch } => {
                    if batcher.close(batch, now) {
                        ready.push_back(batch);
                    }
                }
            }

            // Dispatch every ready batch an idle worker can take, FIFO to
            // the lowest idle worker id — both deterministic orders.
            while !ready.is_empty() {
                let Some(&worker) = idle.iter().next() else {
                    break;
                };
                idle.remove(&worker);
                let batch_idx = ready.pop_front().expect("checked non-empty");
                let batch = batcher.batch(batch_idx);
                let outcome = outcomes[&batch.key];
                let finish = now + outcome.service_us;
                busy_us[worker] += outcome.service_us;
                makespan_us = makespan_us.max(finish);
                batches_dispatched += 1;
                *batch_hist.entry(batch.len()).or_insert(0) += 1;
                for &req in &batch.members {
                    let request = &requests[req];
                    let latency = finish - request.arrival_us;
                    let missed = request.deadline_us.is_some_and(|d| latency > d);
                    deadline_misses += usize::from(missed);
                    latencies.push(latency);
                    responses[req] = Some(Outcome::Completed {
                        start_us: now,
                        finish_us: finish,
                        batch_size: batch.len(),
                        worker,
                        missed_deadline: missed,
                    });
                }
                queued -= batch.len();
                push(&mut events, finish, EventKind::Free { worker });
            }
        }

        let rejected = admissions.iter().filter(|a| a.is_err()).count();
        let completed = latencies.len();
        latencies.sort_unstable();
        let mut hist: Vec<(usize, usize)> = batch_hist.into_iter().collect();
        hist.sort_unstable();
        let achieved_qps = if makespan_us == 0 {
            0.0
        } else {
            completed as f64 / (makespan_us as f64 / 1e6)
        };
        let mean_latency_us = if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / completed as f64
        };
        let report = ServeReport {
            engine: cfg.engine.name().to_string(),
            scheduler: SchedulerPolicy::Lpt.label().to_string(),
            workers: cfg.workers,
            cores_per_worker: cfg.cores_per_worker,
            clock_ghz: cfg.sim.core_ghz,
            queue_depth: cfg.queue_depth,
            window_us: cfg.batcher.window_us,
            max_batch: cfg.batcher.max_batch,
            fidelity: cfg.fidelity.to_string(),
            seed,
            offered_qps,
            offered: requests.len(),
            admitted: requests.len() - rejected - shed,
            rejected,
            shed,
            completed,
            deadline_misses,
            batches: batches_dispatched,
            batch_hist: hist,
            max_queue_depth,
            makespan_us,
            achieved_qps,
            mean_latency_us,
            p50_latency_us: percentile_us(&latencies, 50.0),
            p95_latency_us: percentile_us(&latencies, 95.0),
            p99_latency_us: percentile_us(&latencies, 99.0),
            max_latency_us: latencies.last().copied().unwrap_or(0),
            per_worker_busy_us: busy_us,
            distinct_keys: outcomes.len(),
            sim_cycles: outcomes.values().map(|o| o.cycles).sum(),
            host_threads: cfg.host_threads(),
        };
        let responses = responses
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| Response {
                id: requests[i].id,
                arrival_us: requests[i].arrival_us,
                outcome: outcome.expect("every request resolved"),
            })
            .collect();
        (report, responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Work;

    fn spec_request(id: u64, arrival_us: u64, m: usize) -> Request {
        Request {
            id,
            work: Work::Spec {
                shape: GemmShape::new(m, 16, 128),
                spec: KernelSpec::tiled(SparseMode::Dense),
            },
            arrival_us,
            deadline_us: None,
        }
    }

    fn base_config() -> ServeConfig {
        ServeConfig::new(EngineConfig::rasa_dm())
            .with_workers(1)
            .with_fidelity(Fidelity::Quick(8))
    }

    #[test]
    fn sheds_exactly_when_queue_is_full() {
        // One worker, singleton batches, queue depth 2. Request 0 is
        // dispatched immediately (the worker is idle), requests 1 and 2
        // fill the queue, request 3 finds it full and is shed; request 4
        // arrives after slots have drained and completes.
        let cfg = base_config().without_batching().with_queue_depth(2);
        let server = Server::new(cfg);
        let mut requests: Vec<Request> = (0..4).map(|i| spec_request(i, 0, 16)).collect();
        requests.push(spec_request(4, 1_000_000, 16));
        let (report, responses) = server.serve_requests(&requests, 0.0, 0);
        assert_eq!(report.shed, 1, "{report:?}");
        assert!(
            matches!(responses[3].outcome, Outcome::Shed { queue_depth: 2 }),
            "{:?}",
            responses[3]
        );
        assert_eq!(report.completed, 4);
        assert_eq!(report.max_queue_depth, 2);
    }

    #[test]
    fn batch_window_coalesces_and_queue_counts_drain() {
        // Four same-key requests inside one window on one worker: one
        // batch of four, all four share start/finish times.
        let cfg = base_config().with_batcher(BatcherConfig {
            window_us: 100,
            max_batch: 8,
        });
        let server = Server::new(cfg);
        let requests: Vec<Request> = (0..4).map(|i| spec_request(i, i * 10, 16)).collect();
        let (report, responses) = server.serve_requests(&requests, 0.0, 0);
        assert_eq!(report.batches, 1);
        assert_eq!(report.batch_hist, vec![(4, 1)]);
        assert_eq!(report.completed, 4);
        let finishes: Vec<_> = responses
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Completed { finish_us, .. } => Some(finish_us),
                _ => None,
            })
            .collect();
        assert!(finishes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn malformed_spec_is_rejected_not_panicked() {
        let server = Server::new(base_config());
        let bad = Request {
            id: 9,
            work: Work::Spec {
                shape: GemmShape::new(32, 16, 128),
                spec: KernelSpec::RowWise {
                    row_ratios: vec![NmRatio::S2_4; 8], // 8 covers, 32 rows
                },
            },
            arrival_us: 0,
            deadline_us: None,
        };
        let (report, responses) = server.serve_requests(&[bad], 0.0, 0);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 0);
        assert!(
            matches!(
                &responses[0].outcome,
                Outcome::Rejected(RequestError::Malformed(msg)) if msg.contains("8")
            ),
            "{:?}",
            responses[0]
        );
    }

    #[test]
    fn report_surfaces_the_host_thread_count_outside_the_json() {
        // Explicit thread counts pass through for single-core workers;
        // multi-core workers cap the phase-1 fan-out at the host's
        // available parallelism. Either way the field stays host-side
        // metadata: it never appears in the serialized report.
        let cfg = base_config().with_threads(3);
        let (report, _) = Server::new(cfg).serve_requests(&[spec_request(0, 0, 16)], 0.0, 0);
        assert_eq!(report.host_threads, 3);
        assert!(!report.to_json().contains("host_threads"));

        let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cfg = base_config()
            .with_cores_per_worker(2)
            .with_threads(avail + 7);
        let (report, _) = Server::new(cfg).serve_requests(&[spec_request(0, 0, 16)], 0.0, 0);
        assert_eq!(report.host_threads, avail);
    }

    #[test]
    fn deadline_misses_are_counted() {
        let cfg = base_config().without_batching();
        let server = Server::new(cfg);
        let mut req = spec_request(0, 0, 64);
        req.deadline_us = Some(0); // impossible: service is never free
        let (report, responses) = server.serve_requests(&[req], 0.0, 0);
        assert_eq!(report.deadline_misses, 1);
        assert!(matches!(
            responses[0].outcome,
            Outcome::Completed {
                missed_deadline: true,
                ..
            }
        ));
    }

    #[test]
    fn service_memo_changes_cost_not_results() {
        let requests: Vec<Request> = (0..6).map(|i| spec_request(i, i * 5, 16)).collect();
        let fresh = Server::new(base_config()).serve_requests(&requests, 0.0, 0);
        let memo: crate::ServiceMemo = Arc::default();
        let warm = Server::new(base_config()).with_service_memo(Arc::clone(&memo));
        let first = warm.serve_requests(&requests, 0.0, 0);
        assert_eq!(memo.lock().unwrap().len(), 1, "one distinct key memoized");
        // Second serve hits the memo for every key; the report is unchanged.
        let second = warm.serve_requests(&requests, 0.0, 0);
        assert_eq!(fresh.0.to_json(), first.0.to_json());
        assert_eq!(fresh.0.to_json(), second.0.to_json());
    }

    #[test]
    fn servers_sharing_a_cache_share_preflight_verdicts() {
        // Two servers share only a trace cache: the first one's admission
        // lints each key into the cache entry, the second finds every
        // verdict slot already filled.
        let cache = TraceCache::shared();
        let server = || Server::new(base_config()).with_cache(Arc::clone(&cache));
        let requests: Vec<Request> = (0..4)
            .map(|i| spec_request(i, i * 5, 16 << (i % 2)))
            .collect();
        let first = server().serve_requests(&requests, 0.0, 0).0;
        let spec = KernelSpec::tiled(SparseMode::Dense);
        for m in [16, 32] {
            let relint = || Err("linted twice".to_string());
            let shape = GemmShape::new(m, 16, 128);
            assert_eq!(cache.verdict(shape, &spec, 0, Some(relint)), Ok(()));
        }
        let second = server().serve_requests(&requests, 0.0, 0).0;
        assert_eq!(first.to_json(), second.to_json());

        // A failing verdict is memoized like a clean one. Every
        // structurally valid spec lints clean, so the failure is the lint
        // report of a mutated stream, stored in the shared cache: both
        // servers reject with its text and neither re-lints.
        let mutated = vegeta::lint::Mutation::all()[0].run();
        assert!(!mutated.is_clean());
        let why = format!("preflight rejected {}:\n{mutated}", spec.name());
        let lint = || Err(why.clone());
        let shape = GemmShape::new(48, 16, 128);
        assert_eq!(cache.verdict(shape, &spec, 0, Some(lint)), Err(why.clone()));
        for _ in 0..2 {
            let (report, responses) = server().serve_requests(&[spec_request(9, 0, 48)], 0.0, 0);
            assert_eq!(report.rejected, 1);
            assert_eq!(
                responses[0].outcome,
                Outcome::Rejected(RequestError::Preflight(why.clone()))
            );
        }
    }

    #[test]
    fn workers_drain_in_lowest_id_order() {
        let cfg = base_config().with_workers(3).without_batching();
        let server = Server::new(cfg);
        let requests: Vec<Request> = (0..3).map(|i| spec_request(i, 0, 16)).collect();
        let (_, responses) = server.serve_requests(&requests, 0.0, 0);
        let workers: Vec<_> = responses
            .iter()
            .map(|r| match r.outcome {
                Outcome::Completed { worker, .. } => worker,
                _ => usize::MAX,
            })
            .collect();
        assert_eq!(workers, vec![0, 1, 2]);
    }
}
