//! Differential test of the serving replay. `Server::serve_requests`
//! admits each distinct work item once, batches by interned key id, and
//! merges a sorted arrival cursor with a heap of frees and closes. The
//! reference below is the straightforward loop it replaced: every request
//! admitted on its own, every event (arrivals included) through one heap,
//! and batches keyed by `BatchKey`. Both must produce the same report,
//! field for field, and the same responses.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use vegeta::prelude::*;
use vegeta_serve::{
    percentile_us, BatchKey, BatcherConfig, LoadGen, Outcome, Request, RequestError, Response,
    ServeConfig, ServeReport, Server, ServiceMemo, Work,
};

/// A heap entry of the reference loop: time, then kind (free 0 <
/// arrive 1 < close 2), then push sequence, then the worker, request or
/// batch index.
type Event = (u64, u8, u64, usize);

const FREE: u8 = 0;
const ARRIVE: u8 = 1;
const CLOSE: u8 = 2;

/// One batch of the reference batcher.
struct RefBatch {
    key: BatchKey,
    members: Vec<usize>,
    closed: bool,
}

/// The reference replay: what `serve_requests` computed before it
/// interned keys, as one event heap over every arrival. Returns the report
/// and each request's outcome.
#[allow(clippy::too_many_lines)] // a reference reads best as one loop
fn reference(
    server: &Server,
    requests: &[Request],
    host_threads: usize,
) -> (ServeReport, Vec<Option<Outcome>>) {
    let cfg = server.config();
    let frontend = server.frontend();
    let admissions: Vec<Result<BatchKey, RequestError>> =
        requests.iter().map(|r| frontend.admit(r)).collect();
    let keys: Vec<BatchKey> = admissions.iter().flatten().cloned().collect();
    let outcomes = server.pool().simulate_all(&keys);

    let mut responses: Vec<Option<Outcome>> = vec![None; requests.len()];
    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BinaryHeap<Reverse<Event>>, at: u64, kind: u8, id: usize| {
        events.push(Reverse((at, kind, seq, id)));
        seq += 1;
    };
    for (i, admission) in admissions.iter().enumerate() {
        match admission {
            Err(err) => responses[i] = Some(Outcome::Rejected(err.clone())),
            Ok(_) => push(&mut events, requests[i].arrival_us, ARRIVE, i),
        }
    }

    let max_batch = cfg.batcher.max_batch.max(1);
    let mut batches: Vec<RefBatch> = Vec::new();
    let mut open: HashMap<BatchKey, usize> = HashMap::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut idle: BTreeSet<usize> = (0..cfg.workers).collect();
    let mut busy_us = vec![0u64; cfg.workers];
    let (mut queued, mut max_queue_depth, mut shed) = (0usize, 0usize, 0usize);
    let mut latencies: Vec<u64> = Vec::new();
    let mut batch_hist: HashMap<usize, usize> = HashMap::new();
    let (mut deadline_misses, mut dispatched, mut makespan_us) = (0usize, 0usize, 0u64);

    while let Some(Reverse((now, kind, _, id))) = events.pop() {
        match kind {
            FREE => {
                idle.insert(id);
            }
            ARRIVE => {
                if queued >= cfg.queue_depth {
                    responses[id] = Some(Outcome::Shed {
                        queue_depth: cfg.queue_depth,
                    });
                    shed += 1;
                    continue;
                }
                queued += 1;
                max_queue_depth = max_queue_depth.max(queued);
                let key = admissions[id].as_ref().expect("admitted");
                if let Some(&b) = open.get(key) {
                    batches[b].members.push(id);
                    if batches[b].members.len() >= max_batch {
                        batches[b].closed = true;
                        open.remove(key);
                        ready.push_back(b);
                    }
                } else {
                    let b = batches.len();
                    batches.push(RefBatch {
                        key: key.clone(),
                        members: vec![id],
                        closed: max_batch == 1,
                    });
                    if max_batch == 1 {
                        ready.push_back(b);
                    } else {
                        open.insert(key.clone(), b);
                        push(&mut events, now + cfg.batcher.window_us, CLOSE, b);
                    }
                }
            }
            _ => {
                if !batches[id].closed {
                    batches[id].closed = true;
                    open.remove(&batches[id].key);
                    ready.push_back(id);
                }
            }
        }
        while !ready.is_empty() {
            let Some(&worker) = idle.iter().next() else {
                break;
            };
            idle.remove(&worker);
            let batch = &batches[ready.pop_front().expect("non-empty")];
            let outcome = outcomes[&batch.key];
            let finish = now + outcome.service_us;
            busy_us[worker] += outcome.service_us;
            makespan_us = makespan_us.max(finish);
            dispatched += 1;
            *batch_hist.entry(batch.members.len()).or_insert(0) += 1;
            for &req in &batch.members {
                let latency = finish - requests[req].arrival_us;
                let missed = requests[req].deadline_us.is_some_and(|d| latency > d);
                deadline_misses += usize::from(missed);
                latencies.push(latency);
                responses[req] = Some(Outcome::Completed {
                    start_us: now,
                    finish_us: finish,
                    batch_size: batch.members.len(),
                    worker,
                    missed_deadline: missed,
                });
            }
            queued -= batch.members.len();
            push(&mut events, finish, FREE, worker);
        }
    }

    let rejected = admissions.iter().filter(|a| a.is_err()).count();
    let completed = latencies.len();
    latencies.sort_unstable();
    let mut hist: Vec<(usize, usize)> = batch_hist.into_iter().collect();
    hist.sort_unstable();
    let report = ServeReport {
        engine: cfg.engine.name().to_string(),
        scheduler: "lpt".to_string(),
        workers: cfg.workers,
        cores_per_worker: cfg.cores_per_worker,
        clock_ghz: cfg.sim.core_ghz,
        queue_depth: cfg.queue_depth,
        window_us: cfg.batcher.window_us,
        max_batch: cfg.batcher.max_batch,
        fidelity: cfg.fidelity.to_string(),
        seed: 0,
        offered_qps: 0.0,
        offered: requests.len(),
        admitted: requests.len() - rejected - shed,
        rejected,
        shed,
        completed,
        deadline_misses,
        batches: dispatched,
        batch_hist: hist,
        max_queue_depth,
        makespan_us,
        achieved_qps: if makespan_us == 0 {
            0.0
        } else {
            completed as f64 / (makespan_us as f64 / 1e6)
        },
        mean_latency_us: if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / completed as f64
        },
        p50_latency_us: percentile_us(&latencies, 50.0),
        p95_latency_us: percentile_us(&latencies, 95.0),
        p99_latency_us: percentile_us(&latencies, 99.0),
        max_latency_us: latencies.last().copied().unwrap_or(0),
        per_worker_busy_us: busy_us,
        distinct_keys: outcomes.len(),
        sim_cycles: outcomes.values().map(|o| o.cycles).sum(),
        host_threads,
    };
    (report, responses)
}

const FIDELITY: Fidelity = Fidelity::Quick(16);

fn engine() -> EngineConfig {
    EngineConfig::vegeta_s(16).expect("valid design")
}

fn layer(name: &str) -> Layer {
    *table4()
        .iter()
        .find(|l| l.name == name)
        .expect("Table IV layer")
}

/// A spec that resolves to the same key as a layer work item.
fn spec_of_layer(name: &str, weights: NmRatio) -> Work {
    Work::Spec {
        shape: FIDELITY.shape_of(&layer(name)),
        spec: engine().kernel_spec(weights, KernelOptions::default()),
    }
}

/// The spec whose lint verdict the shared cache holds as a rejection.
fn lint_rejected() -> (GemmShape, KernelSpec) {
    (
        GemmShape::new(48, 16, 128),
        KernelSpec::tiled(SparseMode::Dense),
    )
}

/// A hand-built trace: six work items (two layer/spec pairs of one key
/// each, a plain spec, a malformed and a lint-rejected spec), arrivals out
/// of order with runs of equal times, and deadlines on every third
/// request.
fn hand_built() -> Vec<Request> {
    let (shape, spec) = lint_rejected();
    let works = [
        Work::Layer {
            layer: layer("ResNet50-L6"),
            weights: NmRatio::S2_4,
        },
        spec_of_layer("ResNet50-L6", NmRatio::S2_4),
        Work::Layer {
            layer: layer("BERT-L2"),
            weights: NmRatio::S2_4,
        },
        Work::Spec {
            shape: GemmShape::new(16, 16, 128),
            spec: KernelSpec::tiled(SparseMode::Dense),
        },
        Work::Spec {
            shape: GemmShape::new(32, 16, 128),
            spec: KernelSpec::RowWise {
                row_ratios: vec![NmRatio::S2_4; 8],
            },
        },
        Work::Spec { shape, spec },
    ];
    (0..160u64)
        .map(|i| Request {
            id: 1000 + i,
            work: works[(i * 7 % 23 % 6) as usize].clone(),
            // Unsorted, and 160 requests over 40 distinct ticks.
            arrival_us: (i * i * 31 + i * 17) % 40 * 3,
            deadline_us: (i % 3 == 0).then_some(40),
        })
        .collect()
}

/// A load-generated trace (sorted arrivals) with one reversed pair of
/// equal-time requests spliced in and one malformed request.
fn generated() -> Vec<Request> {
    let mut requests = LoadGen::new(400_000.0, 96).with_seed(7).generate();
    requests[10].work = Work::Spec {
        shape: GemmShape::new(0, 16, 128),
        spec: KernelSpec::Vector,
    };
    let t = requests[20].arrival_us;
    requests[21].arrival_us = t;
    requests.swap(20, 21);
    requests
}

/// Serves `requests` on both sides under every batching, queue and
/// host-thread setting, compares reports and responses, and returns every
/// setting's report and responses.
fn check_against_reference(requests: &[Request]) -> Vec<(ServeReport, Vec<Response>)> {
    let cache = TraceCache::shared();
    let (shape, spec) = lint_rejected();
    let why = "preflight rejected by a stored lint report".to_string();
    let stored = cache.verdict(shape, &spec, 0, || Err(why.clone()));
    assert_eq!(stored, Err(why));
    let memo = ServiceMemo::default();
    let mut runs = Vec::new();
    for window_us in [0, 200] {
        for max_batch in [1, 8] {
            for queue_depth in [64, 3] {
                for threads in [1, 4] {
                    let cfg = ServeConfig::new(engine())
                        .with_workers(2)
                        .with_fidelity(FIDELITY)
                        .with_queue_depth(queue_depth)
                        .with_batcher(BatcherConfig {
                            window_us,
                            max_batch,
                        })
                        .with_threads(threads);
                    let server = Server::new(cfg).with_cache(Arc::clone(&cache));
                    // The 4-thread runs share a service memo, so they cover
                    // both memo hits and keys the memo lacks.
                    let server = if threads == 1 {
                        server
                    } else {
                        server.with_service_memo(Arc::clone(&memo))
                    };
                    let (report, responses) = server.serve_requests(requests, 0.0, 0);
                    let (expected, outcomes) = reference(&server, requests, report.host_threads);
                    let at = format!(
                        "window {window_us} max_batch {max_batch} depth {queue_depth} \
                         threads {threads}"
                    );
                    assert_eq!(report, expected, "{at}");
                    assert_eq!(report.to_json(), expected.to_json(), "{at}");
                    assert_eq!(responses.len(), requests.len(), "{at}");
                    for ((response, request), outcome) in
                        responses.iter().zip(requests).zip(outcomes)
                    {
                        assert_eq!(response.id, request.id, "{at}");
                        assert_eq!(response.arrival_us, request.arrival_us, "{at}");
                        assert_eq!(Some(&response.outcome), outcome.as_ref(), "{at}");
                    }
                    runs.push((report, responses));
                }
            }
        }
    }
    runs
}

/// Whether any response was rejected with an error `matches` accepts.
fn rejects(runs: &[(ServeReport, Vec<Response>)], matches: fn(&RequestError) -> bool) -> bool {
    runs.iter()
        .flat_map(|(_, responses)| responses)
        .any(|r| matches!(&r.outcome, Outcome::Rejected(e) if matches(e)))
}

#[test]
fn hand_built_traces_replay_like_the_reference() {
    let runs = check_against_reference(&hand_built());
    // The trace covers what it claims: rejections of both kinds, sheds at
    // depth 3, batches of more than one, and one key for a layer and its
    // equal spec.
    assert!(rejects(&runs, |e| matches!(e, RequestError::Malformed(_))));
    assert!(rejects(&runs, |e| matches!(e, RequestError::Preflight(_))));
    assert!(runs.iter().any(|(r, _)| r.shed > 0));
    assert!(runs
        .iter()
        .any(|(r, _)| r.batch_hist.iter().any(|&(size, _)| size > 1)));
    assert!(
        runs.iter().all(|(r, _)| r.distinct_keys == 3),
        "ResNet50-L6 as a layer and as a spec share one key"
    );
}

#[test]
fn generated_traces_replay_like_the_reference() {
    let runs = check_against_reference(&generated());
    assert!(rejects(&runs, |e| matches!(e, RequestError::Malformed(_))));
}
