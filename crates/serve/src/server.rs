//! The server: frontend admission, the deterministic virtual-time event
//! loop, and the configuration that ties engine, fleet and batcher
//! together.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use vegeta::prelude::*;
use vegeta::session::{preflight, Preflight};

use crate::batch::{Admit, Batcher, BatcherConfig};
use crate::loadgen::LoadGen;
use crate::report::{latency_quantiles, ServeReport};
use crate::request::{BatchKey, Outcome, Request, RequestError, Response, Work};
use crate::worker::{SimOutcome, WorkerPool};

/// Serving configuration: the engine and fleet the workers model, the
/// admission bound, and the batching policy.
///
/// Admission always runs the `vegeta-lint` preflight, once per distinct
/// work item in a call, its verdict answering every request that carries
/// it; layer requests run their kernels with default [`KernelOptions`].
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
    /// Host threads simulating distinct batch keys (`0` = one per
    /// worker). Never affects results, only how fast they are computed.
    pub threads: usize,
}

impl ServeConfig {
    /// Defaults: 4 single-core workers, a 64-deep queue,
    /// the default batching window, full fidelity.
    pub fn new(engine: EngineConfig) -> Self {
        ServeConfig {
            engine,
            sim: SimConfig::default(),
            workers: 4,
            cores_per_worker: 1,
            queue_depth: 64,
            batcher: BatcherConfig::default(),
            fidelity: Fidelity::Full,
            threads: 0,
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

/// The admission frontend: resolves each request to its batch key (layer
/// work with default [`KernelOptions`]), structurally validates it, and
/// runs the `vegeta-lint` [`preflight`] on it, layer and spec work alike —
/// so a malformed or unverifiable spec becomes a structured
/// [`RequestError`] at the door instead of a panic inside a worker.
/// Verdicts are memoized in the trace cache, so every server and session
/// sharing it verifies each key once.
#[derive(Debug, Clone)]
pub struct Frontend {
    engine: EngineConfig,
    fidelity: Fidelity,
    cores: usize,
    cache: Arc<TraceCache>,
}

impl Frontend {
    /// The frontend for `cfg`, verifying against `cache`'s verdicts.
    pub fn new(cfg: &ServeConfig, cache: Arc<TraceCache>) -> Self {
        Frontend {
            engine: cfg.engine.clone(),
            fidelity: cfg.fidelity,
            cores: cfg.preflight_cores(),
            cache,
        }
    }

    /// Admits one request: `Ok` with the key it will execute as, or the
    /// structured error the client gets back. The answer depends only on
    /// the request's work, so [`Server::serve_requests`] asks once per
    /// distinct work item.
    pub fn admit(&self, request: &Request) -> Result<BatchKey, RequestError> {
        let key = request
            .work
            .resolve(&self.engine, KernelOptions::default(), self.fidelity)?;
        preflight(&self.cache, key.shape, &key.spec, self.cores)
            .map_err(RequestError::Preflight)?;
        Ok(key)
    }
}

/// Where an event falls within its tick: a freed worker is visible to
/// arrivals on the same tick, and a zero-window close still coalesces
/// that tick's arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// A worker finished its batch and is free again (`id` = worker).
    Free,
    /// A request arrives at the frontend (`id` = request index).
    Arrive,
    /// A batch's window expired (`id` = batch index).
    Close,
}

/// An event of the virtual-time loop, ordered by time, then phase, then
/// sequence. Arrivals come from a cursor over the admitted requests in
/// `(arrival, input index)` order; only frees and closes go through the
/// heap, numbered by `seq` as they are pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: u64,
    phase: Phase,
    seq: u64,
    id: usize,
}

/// An FxHash-style hasher for interning work items: a rotate, xor and
/// multiply per word. Admission hashes every request's work, and the keys
/// are one call's own requests, so a DoS-resistant hasher would only cost
/// time (with SipHash, admission took about twice as long per request).
#[derive(Debug, Default)]
struct WorkHasher(u64);

impl Hasher for WorkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// One call's requests, admitted once per distinct work item.
#[derive(Debug, Default)]
struct Admitted {
    /// The distinct batch keys, by id, in order of first appearance.
    keys: Vec<BatchKey>,
    /// Per distinct work item: the key id it executes as, or its error.
    works: Vec<Result<usize, RequestError>>,
    /// Per request: the index of its work item in `works`.
    work_of: Vec<usize>,
}

impl Admitted {
    /// The admission of request `req`.
    fn of(&self, req: usize) -> &Result<usize, RequestError> {
        &self.works[self.work_of[req]]
    }
}

/// The batched serving loop over a simulated worker fleet.
///
/// `serve` admits each distinct work item once, interning its batch key
/// as a small id, then replays admission control, batching, dispatch and
/// completion on a single-threaded discrete-event loop over virtual time.
/// Host threads parallelize only the per-key *simulations* (phase 1); the
/// timeline itself (phase 2) is sequential and fully ordered, so the
/// emitted [`ServeReport`] is byte-identical for a given `(config, load)`
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
        let admitted = self.admit(requests);
        let outcomes = self.simulate(&admitted.keys);
        self.replay(requests, &admitted, &outcomes, offered_qps, seed)
    }

    /// Admission: [`Frontend::admit`] once per distinct work item, and
    /// works resolving to equal keys collapse onto one key id.
    fn admit(&self, requests: &[Request]) -> Admitted {
        let frontend = self.frontend();
        let mut work_ids: HashMap<&Work, usize, BuildHasherDefault<WorkHasher>> =
            HashMap::default();
        let mut key_ids: HashMap<BatchKey, usize> = HashMap::new();
        let mut admitted = Admitted::default();
        for request in requests {
            let next = admitted.works.len();
            let work = *work_ids.entry(&request.work).or_insert_with(|| {
                let admission = frontend.admit(request).map(|key| {
                    let id = key_ids.len();
                    *key_ids.entry(key).or_insert_with_key(|key| {
                        admitted.keys.push(key.clone());
                        id
                    })
                });
                admitted.works.push(admission);
                next
            });
            admitted.work_of.push(work);
        }
        admitted
    }

    /// Phase 1: each key's outcome, by key id. The service memo is read
    /// once per key, and only the keys it lacks are simulated, fanning out
    /// over host threads (results are thread-count independent).
    fn simulate(&self, keys: &[BatchKey]) -> Vec<SimOutcome> {
        let mut outcomes: Vec<Option<SimOutcome>> = match &self.memo {
            Some(memo) => {
                let memo = memo.lock().expect("service memo poisoned");
                keys.iter().map(|k| memo.get(k).copied()).collect()
            }
            None => vec![None; keys.len()],
        };
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| outcomes[i].is_none()).collect();
        let fresh = self
            .pool()
            .simulate_each(&missing.iter().map(|&i| &keys[i]).collect::<Vec<_>>());
        let mut memo = self
            .memo
            .as_ref()
            .map(|memo| memo.lock().expect("service memo poisoned"));
        for (i, outcome) in missing.into_iter().zip(fresh) {
            if let Some(memo) = &mut memo {
                memo.insert(keys[i].clone(), outcome);
            }
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every key has an outcome"))
            .collect()
    }

    /// Phase 2, the sequential discrete-event replay: arrivals, admission
    /// control, batching, dispatch to the earliest-free lowest-id worker,
    /// completion.
    #[allow(clippy::too_many_lines)] // one linear event loop reads better unsplit
    fn replay(
        &self,
        requests: &[Request],
        admitted: &Admitted,
        outcomes: &[SimOutcome],
        offered_qps: f64,
        seed: u64,
    ) -> (ServeReport, Vec<Response>) {
        let cfg = &self.cfg;

        // Reject at the door; everyone else arrives in (time, input index)
        // order. An admitted request is shed unless the loop queues it.
        // Load generators hand out sorted traces; others are sorted once,
        // stably, so equal-time arrivals keep their submission order.
        let mut rejected = 0;
        let mut arrivals: Vec<usize> = Vec::with_capacity(requests.len());
        let mut responses: Vec<Response> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| Response {
                id: request.id,
                arrival_us: request.arrival_us,
                outcome: match admitted.of(i) {
                    Err(err) => {
                        rejected += 1;
                        Outcome::Rejected(err.clone())
                    }
                    Ok(_) => {
                        arrivals.push(i);
                        Outcome::Shed {
                            queue_depth: cfg.queue_depth,
                        }
                    }
                },
            })
            .collect();
        if !arrivals
            .windows(2)
            .all(|w| requests[w[0]].arrival_us <= requests[w[1]].arrival_us)
        {
            arrivals.sort_by_key(|&i| requests[i].arrival_us);
        }
        let mut arrivals = arrivals.into_iter().map(|req| Event {
            at: requests[req].arrival_us,
            phase: Phase::Arrive,
            seq: 0,
            id: req,
        });
        let mut next_arrival = arrivals.next();

        let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |events: &mut BinaryHeap<Reverse<Event>>, at: u64, phase: Phase, id: usize| {
                events.push(Reverse(Event { at, phase, seq, id }));
                seq += 1;
            };

        let mut batcher = Batcher::new(cfg.batcher);
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut idle: BinaryHeap<Reverse<usize>> = (0..cfg.workers).map(Reverse).collect();
        let mut busy_us: Vec<u64> = vec![0; cfg.workers];
        let mut queued = 0usize;
        let mut max_queue_depth = 0usize;
        let mut shed = 0usize;
        let mut latencies: Vec<u64> = Vec::with_capacity(requests.len());
        let mut batch_hist: Vec<usize> = vec![0; cfg.batcher.max_batch.max(1) + 1];
        let mut deadline_misses = 0usize;
        let mut batches_dispatched = 0usize;
        let mut makespan_us = 0u64;

        loop {
            // The earlier of the next arrival and the heap's next event;
            // they never tie, their phases differ.
            let event = match (next_arrival, events.peek()) {
                (Some(arrival), Some(Reverse(timer))) if *timer < arrival => {
                    events.pop().expect("peeked").0
                }
                (Some(arrival), _) => {
                    next_arrival = arrivals.next();
                    arrival
                }
                (None, Some(_)) => events.pop().expect("peeked").0,
                (None, None) => break,
            };
            let now = event.at;
            match event.phase {
                Phase::Free => {
                    idle.push(Reverse(event.id));
                }
                Phase::Arrive => {
                    let req = event.id;
                    if queued >= cfg.queue_depth {
                        shed += 1;
                        continue;
                    }
                    queued += 1;
                    max_queue_depth = max_queue_depth.max(queued);
                    let key = *admitted.of(req).as_ref().expect("admitted request has key");
                    match batcher.add(key, req, now) {
                        Admit::Joined { .. } => {}
                        Admit::Opened { batch, close_at_us } => {
                            push(&mut events, close_at_us, Phase::Close, batch);
                        }
                        Admit::Filled { batch } => ready.push_back(batch),
                    }
                }
                Phase::Close => {
                    if batcher.close(event.id, now) {
                        ready.push_back(event.id);
                    }
                }
            }

            // Dispatch every ready batch an idle worker can take, FIFO to
            // the lowest idle worker id — both deterministic orders.
            while !ready.is_empty() {
                let Some(Reverse(worker)) = idle.pop() else {
                    break;
                };
                let batch_idx = ready.pop_front().expect("checked non-empty");
                let batch = batcher.batch(batch_idx);
                let outcome = outcomes[batch.key];
                let finish = now + outcome.service_us;
                busy_us[worker] += outcome.service_us;
                makespan_us = makespan_us.max(finish);
                batches_dispatched += 1;
                batch_hist[batch.len()] += 1;
                for &req in &batch.members {
                    let request = &requests[req];
                    let latency = finish - request.arrival_us;
                    let missed = request.deadline_us.is_some_and(|d| latency > d);
                    deadline_misses += usize::from(missed);
                    latencies.push(latency);
                    responses[req].outcome = Outcome::Completed {
                        start_us: now,
                        finish_us: finish,
                        batch_size: batch.len(),
                        worker,
                        missed_deadline: missed,
                    };
                }
                queued -= batch.len();
                push(&mut events, finish, Phase::Free, worker);
            }
        }

        let completed = latencies.len();
        let [p50, p95, p99, max] = latency_quantiles(&mut latencies);
        let hist: Vec<(usize, usize)> = batch_hist
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .collect();
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
            p50_latency_us: p50,
            p95_latency_us: p95,
            p99_latency_us: p99,
            max_latency_us: max,
            per_worker_busy_us: busy_us,
            distinct_keys: outcomes.len(),
            sim_cycles: outcomes.iter().map(|o| o.cycles).sum(),
            host_threads: cfg.host_threads(),
        };
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
            assert_eq!(cache.verdict(shape, &spec, 0, relint), Ok(()));
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
        assert_eq!(cache.verdict(shape, &spec, 0, lint), Err(why.clone()));
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
    fn each_distinct_work_is_admitted_and_looked_up_once() {
        // 8,192 default-mix requests carry three distinct works. A fresh
        // call looks each key up in the trace cache once to admit it and
        // once to simulate it.
        let requests = LoadGen::new(50_000.0, 8192).with_seed(3).generate();
        let cache = TraceCache::shared();
        let lookups = || cache.hits() + cache.misses();
        let server = Server::new(base_config()).with_cache(Arc::clone(&cache));
        let (fresh, _) = server.serve_requests(&requests, 0.0, 0);
        assert_eq!(fresh.distinct_keys, 3);
        assert_eq!(lookups(), 3 + 3);

        // With a memo that already holds all three keys, admission is the
        // only lookup, nothing is simulated, and the memo is not written:
        // its stand-in outcomes come back unchanged and are what the
        // report serves with.
        let stand_in = SimOutcome {
            cycles: 1,
            instructions: 1,
            service_us: 7,
        };
        let cfg = base_config();
        let memo: ServiceMemo = Arc::new(Mutex::new(
            requests
                .iter()
                .map(|r| {
                    let key = r
                        .work
                        .resolve(&cfg.engine, KernelOptions::default(), cfg.fidelity);
                    (key.unwrap(), stand_in)
                })
                .collect(),
        ));
        assert_eq!(memo.lock().unwrap().len(), 3);
        let before = lookups();
        let (warm, _) = Server::new(cfg)
            .with_cache(Arc::clone(&cache))
            .with_service_memo(Arc::clone(&memo))
            .serve_requests(&requests, 0.0, 0);
        assert_eq!(lookups() - before, 3);
        let memo = memo.lock().unwrap();
        assert_eq!(memo.len(), 3);
        assert!(memo.values().all(|&o| o == stand_in));
        assert_eq!(warm.sim_cycles, 3);
        assert_eq!(warm.completed + warm.shed, 8192);
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
