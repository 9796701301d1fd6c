//! Serving-layer benchmark behind the `fig_serving` binary.
//!
//! VEGETA's evaluation measures kernels in isolation; this module asks the
//! deployment question on top of them — "what QPS does a fleet of
//! simulated VEGETA workers sustain, and what does request batching buy?"
//! It drives the `vegeta-serve` stack (frontend → batcher → worker pool)
//! over a load grid expressed in *load factors* relative to each engine's
//! calibrated single-worker capacity, so the same sweep brackets
//! saturation at any fidelity, and emits the machine-readable
//! `BENCH_serving.json` artifact the CI drivers job uploads. Latencies
//! ride the serving layer's virtual clock, so every number here is
//! deterministic in `(config, seed)`.
//!
//! [`check_serving_floor`] is CI's guard: at the lowest load point no
//! request may be shed and achieved QPS must track offered within 10%,
//! and batching must raise the saturation QPS over singleton dispatch in
//! at least one engine's single-worker configuration.

use std::sync::Arc;

use vegeta::json::JsonValue;
use vegeta::prelude::*;
use vegeta_serve::{LoadGen, ServeConfig, ServeReport, Server, ServiceMemo, Work};

/// Offered load as multiples of calibrated fleet capacity; the grid
/// brackets the saturation knee from 4x under to 4x over.
pub const LOAD_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Fraction of offered QPS the *lowest* load point must achieve (the CI
/// sanity floor; higher points are judged by latency stability instead,
/// see [`saturation_qps`]).
pub const SUSTAIN_FRACTION: f64 = 0.9;

/// Stability bound for the saturation knee: a load point is sustained
/// while its p99 latency stays within this factor of the same curve's
/// lowest-load p99. An overloaded queue drags p99 far past this no matter
/// the fidelity, which is what makes the knee self-normalizing.
pub const SUSTAIN_P99_FACTOR: f64 = 4.0;

/// The engine classes the serving sweep compares: the dense SOTA baseline
/// and the flexible VEGETA-S design (the two ends of the §VI spectrum).
pub fn serving_engines() -> Vec<EngineConfig> {
    vec![
        EngineConfig::rasa_dm(),
        EngineConfig::vegeta_s(16)
            .expect("valid design")
            .with_output_forwarding(true),
    ]
}

/// Fleet sizes the sweep serves at.
pub fn serving_worker_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// One serving measurement.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Offered load relative to calibrated fleet capacity.
    pub load_factor: f64,
    /// Whether request batching was enabled.
    pub batched: bool,
    /// The full serving report.
    pub report: ServeReport,
}

impl ServingCell {
    /// The cell as JSON: the serving report with the sweep coordinates
    /// (`load_factor`, `batched`) prepended.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("load_factor".into(), self.load_factor.into()),
            ("batched".into(), JsonValue::Bool(self.batched)),
        ];
        if let JsonValue::Object(report) = self.report.to_json_value() {
            fields.extend(report);
        }
        JsonValue::Object(fields)
    }
}

/// The serving config every sweep cell starts from.
fn cell_config(engine: &EngineConfig, fidelity: Fidelity) -> ServeConfig {
    ServeConfig::new(engine.clone()).with_fidelity(fidelity)
}

/// Calibrates one engine's single-worker capacity in QPS: the mix-weighted
/// mean service time of the default workload mix, inverted. The
/// simulations run through `memo`, so the sweep itself reuses them.
pub fn calibrate_capacity_qps(
    engine: &EngineConfig,
    fidelity: Fidelity,
    memo: &ServiceMemo,
) -> f64 {
    let cfg = cell_config(engine, fidelity);
    let server = Server::new(cfg.clone()).with_service_memo(Arc::clone(memo));
    let pool = server.pool();
    let mut weighted_us = 0.0;
    let mut total_weight = 0.0;
    for entry in vegeta_serve::default_mix() {
        let key = Work::Layer {
            layer: entry.layer,
            weights: entry.weights,
        }
        .resolve(&cfg.engine, cfg.opts, cfg.fidelity)
        .expect("default mix layers are well-formed");
        let outcome = {
            let cached = memo
                .lock()
                .expect("service memo poisoned")
                .get(&key)
                .copied();
            match cached {
                Some(o) => o,
                None => {
                    let o = pool.simulate(&key);
                    memo.lock().expect("service memo poisoned").insert(key, o);
                    o
                }
            }
        };
        weighted_us += outcome.service_us as f64 * entry.weight;
        total_weight += entry.weight;
    }
    1e6 / (weighted_us / total_weight)
}

/// Runs the serving grid for one engine: worker counts × load factors ×
/// {batched, singleton}, `requests` Poisson arrivals per cell at `seed`.
/// Offered QPS at each cell is `factor × capacity × workers`, with the
/// capacity calibrated per engine so the grid brackets saturation at any
/// fidelity.
pub fn run_serving_sweep(
    engine: &EngineConfig,
    fidelity: Fidelity,
    worker_counts: &[usize],
    requests: usize,
    seed: u64,
) -> Vec<ServingCell> {
    let memo: ServiceMemo = Arc::default();
    let capacity = calibrate_capacity_qps(engine, fidelity, &memo);
    let cache = TraceCache::shared();
    let mut cells = Vec::new();
    for &workers in worker_counts {
        for &factor in &LOAD_FACTORS {
            let qps = factor * capacity * workers as f64;
            let load = LoadGen::new(qps, requests).with_seed(seed);
            for batched in [true, false] {
                let mut cfg = cell_config(engine, fidelity).with_workers(workers);
                if !batched {
                    cfg = cfg.without_batching();
                }
                let report = Server::new(cfg)
                    .with_cache(Arc::clone(&cache))
                    .with_service_memo(Arc::clone(&memo))
                    .serve(&load);
                cells.push(ServingCell {
                    load_factor: factor,
                    batched,
                    report,
                });
            }
        }
    }
    cells
}

/// The saturation QPS of one `(workers, batched)` curve: the highest
/// offered QPS the fleet *sustained*, or 0.0 if no point qualified.
///
/// A point is sustained when nothing was shed and its p99 latency stays
/// within [`SUSTAIN_P99_FACTOR`] of the curve's own lowest-load p99 — an
/// unstable queue blows the tail up by orders of magnitude, while a
/// loaded-but-stable one keeps it near the service-plus-window baseline,
/// at any fidelity or run length.
pub fn saturation_qps(cells: &[ServingCell], workers: usize, batched: bool) -> f64 {
    let curve: Vec<&ServingCell> = cells
        .iter()
        .filter(|c| c.batched == batched && c.report.workers == workers)
        .collect();
    let Some(baseline) = curve
        .iter()
        .min_by(|a, b| a.load_factor.total_cmp(&b.load_factor))
        .map(|c| c.report.p99_latency_us.max(1))
    else {
        return 0.0;
    };
    curve
        .iter()
        .filter(|c| {
            c.report.shed == 0
                && c.report.p99_latency_us <= (SUSTAIN_P99_FACTOR * baseline as f64) as u64
        })
        .map(|c| c.report.offered_qps)
        .fold(0.0, f64::max)
}

/// Wraps per-engine serving cells into the `BENCH_serving.json` document:
/// the QPS-vs-workers saturation curves per engine (batched and
/// singleton), plus every raw cell.
pub fn serving_report(mode: &str, runs: &[(String, Vec<ServingCell>)]) -> JsonValue {
    let mut saturation = Vec::new();
    let mut all_cells = Vec::new();
    for (engine, cells) in runs {
        let workers: Vec<usize> = {
            let mut w: Vec<usize> = cells.iter().map(|c| c.report.workers).collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        let curve = |batched: bool| {
            JsonValue::Object(
                workers
                    .iter()
                    .map(|&w| {
                        (
                            w.to_string(),
                            JsonValue::from(saturation_qps(cells, w, batched)),
                        )
                    })
                    .collect(),
            )
        };
        saturation.push((
            engine.clone(),
            JsonValue::Object(vec![
                ("batched".into(), curve(true)),
                ("singleton".into(), curve(false)),
            ]),
        ));
        all_cells.extend(cells.iter().map(ServingCell::to_json_value));
    }
    JsonValue::Object(vec![
        ("report".into(), "fig_serving".into()),
        ("mode".into(), mode.into()),
        (
            "load_factors".into(),
            JsonValue::Array(LOAD_FACTORS.iter().map(|&f| JsonValue::from(f)).collect()),
        ),
        ("sustain_fraction".into(), SUSTAIN_FRACTION.into()),
        ("sustain_p99_factor".into(), SUSTAIN_P99_FACTOR.into()),
        (
            "saturation_qps_vs_workers".into(),
            JsonValue::Object(saturation),
        ),
        ("cells".into(), JsonValue::Array(all_cells)),
    ])
}

/// CI's serving sanity floor over one engine's cells:
///
/// * at the lowest load point of every `(workers, batched)` curve nothing
///   is shed and achieved QPS reaches [`SUSTAIN_FRACTION`] of offered;
/// * every completed cell reports a positive, ordered latency tail
///   (p50 ≤ p99, p99 > 0);
/// * nothing was rejected (the generated load is all well-formed);
/// * batching sustains a saturation QPS strictly above singleton dispatch
///   on the single-worker curve.
///
/// # Errors
///
/// A human-readable description of the first violated floor.
pub fn check_serving_floor(engine: &str, cells: &[ServingCell]) -> Result<(), String> {
    if cells.is_empty() {
        return Err(format!("{engine}: no serving cells"));
    }
    for cell in cells {
        let r = &cell.report;
        let who = format!(
            "{engine} at {} workers, factor {}, {}",
            r.workers,
            cell.load_factor,
            if cell.batched { "batched" } else { "singleton" }
        );
        if r.rejected > 0 {
            return Err(format!("{who}: {} generated requests rejected", r.rejected));
        }
        if r.completed > 0 && (r.p99_latency_us == 0 || r.p50_latency_us > r.p99_latency_us) {
            return Err(format!(
                "{who}: degenerate latency tail p50 {} / p99 {}",
                r.p50_latency_us, r.p99_latency_us
            ));
        }
        if (cell.load_factor - LOAD_FACTORS[0]).abs() < f64::EPSILON {
            if r.shed > 0 {
                return Err(format!("{who}: shed {} at the lowest load point", r.shed));
            }
            if r.achieved_qps < SUSTAIN_FRACTION * r.offered_qps {
                return Err(format!(
                    "{who}: achieved {:.0} QPS below {:.0}% of offered {:.0}",
                    r.achieved_qps,
                    SUSTAIN_FRACTION * 100.0,
                    r.offered_qps
                ));
            }
        }
    }
    let batched = saturation_qps(cells, 1, true);
    let singleton = saturation_qps(cells, 1, false);
    if batched <= singleton {
        return Err(format!(
            "{engine}: batching does not raise single-worker saturation \
             ({batched:.0} vs {singleton:.0} QPS)"
        ));
    }
    Ok(())
}

/// Writes `BENCH_serving.json` into `$VEGETA_CSV_DIR` (when set) or the
/// current directory; returns the path on success. Like the scaling
/// report this is a CI artifact (gitignored), not a committed baseline.
pub fn write_serving_json(doc: &JsonValue) -> Option<std::path::PathBuf> {
    crate::write_artifact_json("BENCH_serving.json", doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cells() -> (EngineConfig, Vec<ServingCell>) {
        let engine = EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true);
        // Quick(4) keeps service times in the 5-7 us range — large enough
        // that the load grid actually brackets saturation.
        let cells = run_serving_sweep(&engine, Fidelity::Quick(4), &[1], 96, 13);
        (engine, cells)
    }

    #[test]
    fn sweep_brackets_saturation_and_passes_the_floor() {
        let (engine, cells) = quick_cells();
        assert_eq!(cells.len(), LOAD_FACTORS.len() * 2);
        check_serving_floor(engine.name(), &cells).expect("floor holds");
        // The overload end must actually overload the singleton curve.
        let worst = cells
            .iter()
            .filter(|c| !c.batched)
            .find(|c| (c.load_factor - 4.0).abs() < f64::EPSILON)
            .expect("4x singleton cell");
        assert!(
            worst.report.achieved_qps < worst.report.offered_qps,
            "4x offered load should not be fully served unbatched"
        );
    }

    #[test]
    fn serving_report_serializes_curves_and_cells() {
        let (engine, cells) = quick_cells();
        let doc = serving_report("test", &[(engine.name().to_string(), cells.clone())]);
        let parsed = JsonValue::parse(&doc.to_string()).expect("valid JSON");
        let curves = parsed
            .get("saturation_qps_vs_workers")
            .and_then(|s| s.get(engine.name()))
            .expect("engine curves");
        let batched = curves
            .get("batched")
            .and_then(|c| c.get("1"))
            .and_then(JsonValue::as_f64)
            .expect("batched 1-worker saturation");
        let singleton = curves
            .get("singleton")
            .and_then(|c| c.get("1"))
            .and_then(JsonValue::as_f64)
            .expect("singleton 1-worker saturation");
        assert!(
            batched > singleton,
            "batched saturation {batched:.0} must beat singleton {singleton:.0}"
        );
        assert_eq!(
            parsed
                .get("cells")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(cells.len())
        );
    }

    #[test]
    fn floor_rejects_degenerate_curves() {
        let (engine, mut cells) = quick_cells();
        // Forge a shed at the lowest load point.
        let idx = cells
            .iter()
            .position(|c| (c.load_factor - LOAD_FACTORS[0]).abs() < f64::EPSILON)
            .unwrap();
        cells[idx].report.shed = 3;
        let err = check_serving_floor(engine.name(), &cells).unwrap_err();
        assert!(err.contains("shed"), "{err}");
        assert!(check_serving_floor("none", &[]).is_err());
    }
}
