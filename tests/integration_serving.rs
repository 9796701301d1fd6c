//! End-to-end serving-layer tests: determinism of the virtual-time
//! report, the economics of batching, admission behavior under low load,
//! and structured rejection of malformed specs.

use std::sync::Arc;

use vegeta::prelude::*;
use vegeta_serve::{LoadGen, Outcome, Request, RequestError, ServeConfig, Server, Work};

fn quick_config() -> ServeConfig {
    ServeConfig::new(EngineConfig::vegeta_s(16).expect("valid design"))
        .with_workers(2)
        .with_fidelity(Fidelity::Quick(16))
}

#[test]
fn serve_report_is_byte_identical_across_runs_and_host_threads() {
    let load = LoadGen::new(3_000.0, 32).with_seed(11);
    let a = Server::new(quick_config().with_threads(1)).serve(&load);
    let b = Server::new(quick_config().with_threads(1)).serve(&load);
    assert_eq!(a.to_json(), b.to_json(), "same seed+config must replay");
    // Host threads parallelize only the key simulations; the timeline —
    // and therefore the serialized report — must not notice.
    let n = Server::new(quick_config().with_threads(4)).serve(&load);
    assert_eq!(a.to_json(), n.to_json(), "--threads must not leak in");
}

#[test]
fn different_seed_changes_the_timeline() {
    let a = Server::new(quick_config()).serve(&LoadGen::new(3_000.0, 32).with_seed(1));
    let b = Server::new(quick_config()).serve(&LoadGen::new(3_000.0, 32).with_seed(2));
    assert_ne!(a.to_json(), b.to_json());
}

#[test]
fn batching_outserves_singletons_under_overload() {
    // Overload one worker far beyond what it can serve unbatched. With
    // coalescing, one simulated execution completes a whole batch, so the
    // same fleet sustains a higher completion rate. Quick(4) services run
    // 5-7 us, so 1 us inter-arrival gaps put a singleton worker ~5x over
    // capacity while batches of up to 8 still keep up.
    let load = LoadGen::new(1_000_000.0, 64).with_seed(5);
    let cfg = || {
        ServeConfig::new(EngineConfig::vegeta_s(16).expect("valid design"))
            .with_workers(1)
            .with_fidelity(Fidelity::Quick(4))
    };
    let batched = Server::new(cfg()).serve(&load);
    let singleton = Server::new(cfg().without_batching()).serve(&load);
    assert!(batched.batch_hist.iter().any(|&(size, _)| size > 1));
    assert!(
        batched.achieved_qps > singleton.achieved_qps,
        "batched {:.0} QPS vs singleton {:.0} QPS",
        batched.achieved_qps,
        singleton.achieved_qps
    );
}

#[test]
fn low_qps_sheds_nothing_and_tracks_offered_load() {
    let load = LoadGen::new(40.0, 24).with_seed(3);
    let report = Server::new(quick_config()).serve(&load);
    assert_eq!(report.shed, 0, "{report:?}");
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.completed, 24);
    assert!(
        report.achieved_qps >= 0.9 * load.qps,
        "achieved {:.1} QPS vs offered {:.1}",
        report.achieved_qps,
        load.qps
    );
}

#[test]
fn mutated_spec_is_rejected_with_a_structured_error() {
    // A spec whose row-cover table was truncated (as the lint mutation
    // corpus does to streams) must come back as a structured admission
    // error — never a worker panic.
    let server = Server::new(quick_config());
    let shape = GemmShape::new(64, 16, 128);
    let good = Request {
        id: 0,
        work: Work::Spec {
            shape,
            spec: KernelSpec::RowWise {
                row_ratios: vec![NmRatio::S2_4; 64],
            },
        },
        arrival_us: 0,
        deadline_us: None,
    };
    let mut mutated = good.clone();
    mutated.id = 1;
    mutated.work = Work::Spec {
        shape,
        spec: KernelSpec::RowWise {
            row_ratios: vec![NmRatio::S2_4; 63],
        },
    };
    let (report, responses) = server.serve_requests(&[good, mutated], 0.0, 0);
    assert_eq!(report.completed, 1);
    assert_eq!(report.rejected, 1);
    match &responses[1].outcome {
        Outcome::Rejected(RequestError::Malformed(msg)) => {
            assert!(msg.contains("63"), "{msg}");
        }
        other => panic!("expected structured rejection, got {other:?}"),
    }
}

#[test]
fn report_accounting_is_internally_consistent() {
    let load = LoadGen::new(5_000.0, 40).with_seed(9);
    let report = Server::new(quick_config()).serve(&load);
    assert_eq!(
        report.offered,
        report.completed + report.shed + report.rejected
    );
    let batched: usize = report
        .batch_hist
        .iter()
        .map(|&(size, count)| size * count)
        .sum();
    assert_eq!(batched, report.completed);
    assert_eq!(
        report.batches,
        report.batch_hist.iter().map(|&(_, c)| c).sum::<usize>()
    );
    assert!(report.p50_latency_us <= report.p95_latency_us);
    assert!(report.p95_latency_us <= report.p99_latency_us);
    assert!(report.p99_latency_us <= report.max_latency_us);
    assert!(report.mean_utilization() <= 1.0 + 1e-9);
}

#[test]
fn a_session_and_a_server_sharing_a_cache_verify_a_key_once() {
    // The session's preflight stores its verdict in the shared cache entry;
    // the server's admission (single-core workers verify the unsharded
    // stream, as an unsharded cell does) finds it there.
    let cache = TraceCache::shared();
    let engine = EngineConfig::vegeta_s(16).expect("valid design");
    let session = Session::new(engine.clone()).with_cache(Arc::clone(&cache));
    let server =
        Server::new(quick_config().with_cores_per_worker(1)).with_cache(Arc::clone(&cache));
    let spec = engine.kernel_spec(NmRatio::S2_4, KernelOptions::default());
    let request = |shape| Request {
        id: 0,
        work: Work::Spec {
            shape,
            spec: spec.clone(),
        },
        arrival_us: 0,
        deadline_us: None,
    };
    let shape = GemmShape::new(64, 16, 128);
    session.run(&Cell::shape("k", shape, &spec));
    let relint = || Err("linted twice".to_string());
    assert_eq!(cache.verdict(shape, &spec, 0, Some(relint)), Ok(()));
    let (report, _) = server.serve_requests(&[request(shape)], 0.0, 0);
    assert_eq!(report.completed, 1);
    assert_eq!(cache.len(), 1, "one entry holds the trace and its verdict");

    // Both sides read the same slot: a failing verdict stored there stops
    // the session and rejects the request with the same text.
    let other = GemmShape::new(32, 16, 128);
    let why = "preflight rejected: planted".to_string();
    let plant = || Err(why.clone());
    assert!(cache.verdict(other, &spec, 0, Some(plant)).is_err());
    let panic = std::panic::catch_unwind(|| session.run(&Cell::shape("k", other, &spec)))
        .expect_err("the session must refuse a rejected stream");
    assert_eq!(panic.downcast_ref::<String>(), Some(&why));
    let (_, responses) = server.serve_requests(&[request(other)], 0.0, 0);
    assert_eq!(
        responses[0].outcome,
        Outcome::Rejected(RequestError::Preflight(why))
    );
}
