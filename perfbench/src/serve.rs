//! `serve_sweep`: `vegeta-serve` over its default mix as open-loop Poisson
//! arrivals on the virtual clock, 2 engines x {1, 2, 4, 8} workers x 7
//! load factors x {batched, singleton} = 112 load points. Host-side this is
//! a batch replay with no wall-clock pacing. The trace cache and service
//! memo are shared per engine within a pass, so only six keys simulate.
//! Timed passes run each engine's points as a piece of their own (see
//! [`pieces`]).

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vegeta::prelude::*;
use vegeta::session::Preflight;
use vegeta_bench::serving::{calibrate_capacity_qps, serving_engines};
use vegeta_serve::{
    default_mix, BatchKey, LoadGen, Request, ServeConfig, ServeReport, Server, ServiceMemo, Work,
};

use crate::expected::{cycles_insts, fnv1a, Table};
use crate::trace::Trace;
use crate::{host_cpus, Metric, PassStats, Split, Tally};

/// Offered load as multiples of each engine's calibrated capacity per
/// worker, from well under to well past saturation.
const LOAD_FACTORS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0];

/// Fleet sizes.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Requests per load point: enough replay work per point that a pass is
/// not dominated by the per-point admission preflight.
const REQUESTS: usize = 8192;

/// Load points in one pass.
pub const POINTS: u64 = 112;

/// One offered load: its arrivals, shared by the batched and singleton
/// points.
struct Load {
    workers: usize,
    factor: f64,
    qps: f64,
    requests: Vec<Request>,
}

/// The generated grid of one engine.
struct EngineLoads {
    engine: EngineConfig,
    loads: Vec<Load>,
}

/// Everything built before timing starts: every point's arrivals.
pub struct Setup {
    seed: u64,
    engines: Vec<EngineLoads>,
}

pub fn expected() -> (Table, Table) {
    let text = include_str!("../expected/serve_sweep.tsv");
    (
        Table::parse(text, "key\t", 2),
        Table::parse(text, "point\t", 1),
    )
}

/// Each serving engine with its single-worker capacity in requests per
/// second, calibrated by simulating its keys into a memo of its own. The
/// capacities are deterministic, so a run calibrates once, untimed.
pub fn capacities() -> Vec<(EngineConfig, f64)> {
    serving_engines()
        .into_iter()
        .map(|engine| {
            let qps = calibrate_capacity_qps(&engine, Fidelity::Full, &ServiceMemo::default());
            (engine, qps)
        })
        .collect()
}

/// Builds the grid over `capacities` and generates every point's arrivals
/// with `generate`.
pub fn setup(
    seed: u64,
    capacities: &[(EngineConfig, f64)],
    mut generate: impl FnMut(&LoadGen) -> Vec<Request>,
) -> Setup {
    let engines = capacities
        .iter()
        .map(|(engine, capacity)| {
            let mut loads = Vec::new();
            for workers in WORKERS {
                for factor in LOAD_FACTORS {
                    let qps = factor * capacity * workers as f64;
                    let requests = generate(&LoadGen::new(qps, REQUESTS).with_seed(seed));
                    loads.push(Load {
                        workers,
                        factor,
                        qps,
                        requests,
                    });
                }
            }
            EngineLoads {
                engine: engine.clone(),
                loads,
            }
        })
        .collect();
    Setup { seed, engines }
}

/// The set-up split into one piece per engine, each with that engine's
/// points only. Nothing is shared across engines in a pass, so together
/// the pieces serve exactly the points of [`setup`] in the same order.
pub fn pieces(
    seed: u64,
    capacities: &[(EngineConfig, f64)],
    mut generate: impl FnMut(&LoadGen) -> Vec<Request>,
) -> Vec<Setup> {
    capacities
        .iter()
        .map(|c| setup(seed, std::slice::from_ref(c), &mut generate))
        .collect()
}

impl Setup {
    /// Load points this set-up serves.
    pub fn points(&self) -> u64 {
        self.engines.iter().map(|e| e.loads.len() as u64 * 2).sum()
    }
}

/// Host threads of the largest fleet's key simulation.
pub fn host_threads() -> usize {
    WORKERS[WORKERS.len() - 1].min(host_cpus())
}

/// A point's serving configuration, its host threads capped at the
/// host's CPUs.
fn config(engine: &EngineConfig, workers: usize, batched: bool) -> ServeConfig {
    let cfg = ServeConfig::new(engine.clone())
        .with_fidelity(Fidelity::Full)
        .with_workers(workers)
        .with_threads(workers.min(host_cpus()));
    if batched {
        cfg
    } else {
        cfg.without_batching()
    }
}

/// The key a mix layer executes as on `engine`.
fn key(engine: &EngineConfig, work: Work) -> BatchKey {
    work.resolve(engine, KernelOptions::default(), Fidelity::Full)
        .expect("default mix layers are well-formed")
}

/// Serves every point in grid order, with a fresh cache and memo per
/// engine; inside a `serve.serve_requests` span per point when traced.
/// Returns the seconds taken, the reports and each engine's memo.
fn run_points(
    setup: &Setup,
    mut trace: Option<(&mut Trace, usize)>,
) -> (f64, Vec<ServeReport>, Vec<ServiceMemo>) {
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut memos = Vec::new();
    for e in &setup.engines {
        let cache = TraceCache::shared();
        let memo = ServiceMemo::default();
        for load in &e.loads {
            for batched in [true, false] {
                let server = Server::new(config(&e.engine, load.workers, batched))
                    .with_cache(Arc::clone(&cache))
                    .with_service_memo(Arc::clone(&memo));
                let span = trace
                    .as_mut()
                    .map(|(t, root)| t.open("serve.serve_requests", Some(*root)));
                reports.push(
                    server
                        .serve_requests(&load.requests, load.qps, setup.seed)
                        .0,
                );
                if let (Some((t, _)), Some(id)) = (trace.as_mut(), span) {
                    t.close(id);
                }
            }
        }
        memos.push(memo);
    }
    (start.elapsed().as_secs_f64(), reports, memos)
}

/// Checks every point: its report digest where the expected table stores
/// one for this seed, else the report's invariants; and each engine's
/// simulated keys against the expected key table.
fn check(setup: &Setup, reports: &[ServeReport], memos: &[ServiceMemo], tally: &mut Tally) {
    let (keys, points) = expected();
    let mut next = reports.iter();
    for (e, memo) in setup.engines.iter().zip(memos) {
        let memo = memo.lock().expect("service memo poisoned");
        let key_problem = default_mix().into_iter().find_map(|m| {
            let label = format!(
                "key\t{}\t{}\t{}\t1",
                e.engine.name(),
                m.layer.name,
                m.weights
            );
            let work = Work::Layer {
                layer: m.layer,
                weights: m.weights,
            };
            match memo.get(&key(&e.engine, work)) {
                Some(o) => keys.check(&label, &cycles_insts(o.cycles, o.instructions)),
                None => Some(format!("{label}: never simulated")),
            }
        });
        for load in &e.loads {
            for batched in [true, false] {
                let Some(r) = next.next() else { break };
                let label = format!(
                    "point\t{}\t{}\t{}\t{}\t{batched}",
                    setup.seed,
                    e.engine.name(),
                    load.workers,
                    load.factor
                );
                let problem = if points.has(&label) {
                    points.check(&label, &fnv1a(r.to_json().as_bytes()))
                } else {
                    invariants(r, &e.engine, load, &memo).map(|why| format!("{label}: {why}"))
                };
                tally.op(key_problem.clone().or(problem));
            }
        }
    }
    tally.missing(setup.points(), reports.len(), "serve_sweep points");
}

/// What must hold of any point's report, for seeds without a stored
/// digest: every generated request admitted and either completed or shed,
/// an ordered latency tail, and simulated cycles equal to the sum over the
/// keys its requests used.
fn invariants(
    r: &ServeReport,
    engine: &EngineConfig,
    load: &Load,
    memo: &std::collections::HashMap<BatchKey, vegeta_serve::SimOutcome>,
) -> Option<String> {
    let used: HashSet<BatchKey> = load
        .requests
        .iter()
        .map(|q| key(engine, q.work.clone()))
        .collect();
    let cycles: Option<u64> = used.iter().map(|k| memo.get(k).map(|o| o.cycles)).sum();
    if r.offered != REQUESTS || r.rejected != 0 || r.completed + r.shed != r.offered {
        Some(format!(
            "offered {} rejected {} completed {} shed {}",
            r.offered, r.rejected, r.completed, r.shed
        ))
    } else if r.completed == 0
        || r.p50_latency_us > r.p99_latency_us
        || r.p99_latency_us > r.max_latency_us
    {
        Some(format!(
            "latency tail p50 {} p99 {} max {}",
            r.p50_latency_us, r.p99_latency_us, r.max_latency_us
        ))
    } else if cycles != Some(r.sim_cycles) {
        Some(format!(
            "sim_cycles {} but its keys sum to {cycles:?}",
            r.sim_cycles
        ))
    } else {
        None
    }
}

/// One timed run of a set-up's points, with a fresh cache and memo per
/// engine.
pub fn pass(setup: &Setup, tally: &mut Tally) -> PassStats {
    let (wall_s, reports, memos) = run_points(setup, None);
    check(setup, &reports, &memos, tally);
    let sim_insts = memos
        .iter()
        .flat_map(|m| {
            let m = m.lock().expect("service memo poisoned");
            m.values().map(|o| o.instructions).collect::<Vec<_>>()
        })
        .sum();
    PassStats {
        wall_s,
        sim_insts,
        served: reports.iter().map(|r| r.completed as u64).sum(),
    }
}

/// The traced run: setup with a span per `LoadGen::generate`, every point
/// once untraced and once inside spans, then every point piece by piece:
/// cold admission (with its lint preflight), simulation of the keys the
/// memo lacks, and `serve_requests` over the filled memo with admission
/// already warm, less a warm admission timed on its own.
pub fn traced(seed: u64, tally: &mut Tally, trace: &mut Trace) -> Split {
    let setup = setup(seed, &capacities(), |g| {
        trace.span("serve.loadgen", None, || g.generate())
    });
    let (untraced_s, _, _) = run_points(&setup, None);
    let root = trace.open("serve_sweep", None);
    let (_, entry, memos) = run_points(&setup, Some((&mut *trace, root)));
    let traced_s = trace.close(root);
    check(&setup, &entry, &memos, tally);

    let pieces = trace.open("serve_sweep.pieces", None);
    let mut entry = entry.iter();
    let (mut requests, mut verified, mut lookups, mut hits, mut batches) = (0, 0, 0, 0, 0);
    for e in &setup.engines {
        let cache = TraceCache::shared();
        let memo = ServiceMemo::default();
        for load in &e.loads {
            for batched in [true, false] {
                let server = Server::new(config(&e.engine, load.workers, batched))
                    .with_cache(Arc::clone(&cache))
                    .with_service_memo(Arc::clone(&memo))
                    .with_preflight_memo(Preflight::new());
                let frontend = server.frontend();
                let admit = |q: &Request| frontend.admit(q);
                let admitted: Vec<BatchKey> = trace
                    .span("serve.admit", Some(pieces), || {
                        load.requests.iter().map(admit).collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                let distinct: HashSet<&BatchKey> = admitted.iter().collect();
                requests += load.requests.len();
                verified += distinct.len();
                lookups += admitted.len();
                let missing: Vec<BatchKey> = {
                    let memo = memo.lock().expect("service memo poisoned");
                    hits += admitted.iter().filter(|k| memo.contains_key(*k)).count();
                    distinct
                        .into_iter()
                        .filter(|k| !memo.contains_key(*k))
                        .cloned()
                        .collect()
                };
                let fresh = trace.span("serve.simulate", Some(pieces), || {
                    server.pool().simulate_all(&missing)
                });
                memo.lock().expect("service memo poisoned").extend(fresh);
                trace.span("serve.admit_warm", Some(pieces), || {
                    black_box(load.requests.iter().map(admit).collect::<Vec<_>>())
                });
                let (report, _) = trace.span("serve.serve_warm", Some(pieces), || {
                    server.serve_requests(&load.requests, load.qps, setup.seed)
                });
                batches += report.batches;
                tally.op(match entry.next() {
                    Some(r) if r.to_json() == report.to_json() => None,
                    _ => Some(format!(
                        "{} {} workers x{} batched={batched}: pieces disagree with the entry point",
                        e.engine.name(),
                        load.workers,
                        load.factor
                    )),
                });
            }
        }
    }
    trace.close(pieces);

    let admit_s = trace.total("serve.admit");
    let replay_s = trace.total("serve.serve_warm") - trace.total("serve.admit_warm");
    Split {
        metrics: vec![
            Metric::new("serve.loadgen_s", trace.total("serve.loadgen"), "s"),
            Metric::new("serve.admit_s", admit_s, "s"),
            Metric::new(
                "serve.admit_ns_per_request",
                admit_s * 1e9 / requests as f64,
                "ns",
            ),
            Metric::new(
                "serve.preflight_hit_ratio",
                (lookups - verified) as f64 / lookups as f64,
                "ratio",
            ),
            Metric::new("serve.simulate_s", trace.total("serve.simulate"), "s"),
            Metric::new("serve.replay_s", replay_s, "s"),
            Metric::new(
                "serve.replay_ns_per_request",
                replay_s * 1e9 / requests as f64,
                "ns",
            ),
            Metric::new(
                "serve.memo_hit_ratio",
                hits as f64 / lookups as f64,
                "ratio",
            ),
            Metric::new("serve.batches", batches as f64, "count"),
        ],
        lint_s: 0.0,
        lint_ops: 0,
        tracing_overhead_s: traced_s - untraced_s,
        host_threads: host_threads(),
    }
}

/// Prints the expected key rows and this seed's point digests.
pub fn emit_expected(seed: u64) {
    let setup = setup(seed, &capacities(), LoadGen::generate);
    let (_, reports, memos) = run_points(&setup, None);
    for (e, memo) in setup.engines.iter().zip(&memos) {
        let memo = memo.lock().expect("service memo poisoned");
        for m in default_mix() {
            let work = Work::Layer {
                layer: m.layer,
                weights: m.weights,
            };
            let o = memo[&key(&e.engine, work)];
            println!(
                "key\t{}\t{}\t{}\t1\t{}",
                e.engine.name(),
                m.layer.name,
                m.weights,
                cycles_insts(o.cycles, o.instructions)
            );
        }
    }
    let mut reports = reports.iter();
    for e in &setup.engines {
        for load in &e.loads {
            for batched in [true, false] {
                let r = reports.next().expect("one report per point");
                println!(
                    "point\t{seed}\t{}\t{}\t{}\t{batched}\t{}",
                    e.engine.name(),
                    load.workers,
                    load.factor,
                    fnv1a(r.to_json().as_bytes())
                );
            }
        }
    }
}
