//! Multi-core scaling benchmark behind the `fig_scaling` binary.
//!
//! VEGETA's evaluation is single-core; this module answers the scale-out
//! question its deployment story implies — "how does each engine class
//! scale when one Table IV layer is sharded across 2–32 matrix-engine
//! cores?" — the way SparseZipper evaluates its matrix extensions. It
//! drives the `Sweep::with_cores` axis over the pinned perf-gate layer set
//! and one engine per §VI engine class, derives per-engine geometric-mean
//! speedups vs the 1-core cells, and emits the machine-readable
//! `BENCH_scaling.json` artifact the CI drivers job uploads (cycle counts
//! are simulated, so quick-mode output is deterministic).
//!
//! [`check_scaling_floor`] is the perf gate's guard against scaling
//! regressions: with 2D/K-split shard plans and LPT packing the pinned
//! set sustains well over [`DEFAULT_SCALING_FLOOR`]× geomean speedup at
//! [`SCALING_FLOOR_CORES`] cores (the old 1D/static path plateaued around
//! 2.2× with half the cores stranded).

use vegeta::json::JsonValue;
use vegeta::prelude::*;

use crate::perf_gate::{perf_gate_engines, pinned_layers};

/// The strong-scaling core counts the benchmark sweeps (1 is the
/// baseline the speedups are normalized to).
pub fn scaling_core_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Core count the perf gate's scaling floor is pinned at.
pub const SCALING_FLOOR_CORES: usize = 8;

/// Minimum across-engine geomean speedup at [`SCALING_FLOOR_CORES`] cores
/// the perf gate accepts (override per run with `--scaling-floor`). The
/// LPT-scheduled 2D shard plans deliver well above this; the floor exists
/// to catch a regression back toward the ~2.2× 1D/static plateau.
pub const DEFAULT_SCALING_FLOOR: f64 = 3.5;

/// Runs the small sweep behind the perf gate's scaling floor: pinned
/// layers × engine classes × 2:4 × {1, [`SCALING_FLOOR_CORES`]} cores.
pub fn run_scaling_floor_sweep(fidelity: Fidelity) -> SweepReport {
    Sweep::new()
        .with_engines(perf_gate_engines())
        .with_layers(pinned_layers())
        .with_sparsity(NmRatio::S2_4)
        .with_fidelity(fidelity)
        .with_cores([1, SCALING_FLOOR_CORES])
        .run()
}

/// Checks the strong-scaling floor on a cores-axis sweep: every engine's
/// geomean speedup at `cores` cores is folded into one across-engine
/// geomean, which must reach `floor`; any `cores`-core cell with stranded
/// (zero-cycle) cores fails outright. Returns the achieved geomean.
///
/// # Errors
///
/// A human-readable description of the shortfall: a missing baseline or
/// `cores`-core cell, a stranded core, or a geomean below the floor.
pub fn check_scaling_floor(report: &SweepReport, cores: usize, floor: f64) -> Result<f64, String> {
    for cell in report.cells.iter().filter(|c| c.cores == cores) {
        if cell.stranded_cores() > 0 {
            return Err(format!(
                "{} on {} strands {} of {} cores",
                cell.workload,
                cell.engine,
                cell.stranded_cores(),
                cell.cores
            ));
        }
    }
    let mut per_engine = Vec::new();
    for engine in report.engines() {
        let g = report
            .geomean_core_scaling(engine, "2:4", cores)
            .ok_or_else(|| format!("{engine} is missing 1- or {cores}-core cells"))?;
        per_engine.push(g);
    }
    let achieved =
        geomean(&per_engine).ok_or_else(|| "no engines in the scaling sweep".to_string())?;
    if achieved < floor {
        return Err(format!(
            "strong-scaling geomean at {cores} cores is {achieved:.2}x, below the {floor:.2}x floor"
        ));
    }
    Ok(achieved)
}

/// Runs the scaling grid: pinned layers × one engine per §VI engine class
/// × 2:4 weights × [`scaling_core_counts`], at the given fidelity, through
/// the sharded [`MultiCoreSim`] pipeline.
pub fn run_scaling_sweep(fidelity: Fidelity) -> SweepReport {
    Sweep::new()
        .with_engines(perf_gate_engines())
        .with_layers(pinned_layers())
        .with_sparsity(NmRatio::S2_4)
        .with_fidelity(fidelity)
        .with_cores(scaling_core_counts())
        .run()
}

/// Runs the same grid as [`run_scaling_sweep`] cell by cell in the sweep's
/// deterministic order (layer-major, then core count, then engine), timing
/// each sharded replay on the host clock. Returns the assembled
/// [`SweepReport`] plus one wall-clock-seconds entry per cell, index-
/// aligned with `report.cells` — the per-cell host cost `BENCH_scaling.json`
/// publishes next to the simulated cycles. One shared trace cache
/// amortizes generation exactly as the pooled sweep does.
pub fn run_timed_scaling_sweep(fidelity: Fidelity) -> (SweepReport, Vec<f64>) {
    let cache = TraceCache::shared();
    let mut cells = Vec::new();
    let mut walls = Vec::new();
    for layer in pinned_layers() {
        for &cores in &scaling_core_counts() {
            for engine in perf_gate_engines() {
                let session = Session::new(engine).with_cache(std::sync::Arc::clone(&cache));
                let start = std::time::Instant::now();
                cells.push(session.run_layer_cores_at(&layer, NmRatio::S2_4, fidelity, cores));
                walls.push(start.elapsed().as_secs_f64());
            }
        }
    }
    let report = SweepReport {
        cells,
        traces_built: cache.misses(),
        trace_cache_hits: cache.hits(),
        l1_fresh_replays: 0,
        cache: cache.stats(),
        threads: 1,
    };
    (report, walls)
}

/// Wraps a cores-axis sweep into the `BENCH_scaling.json` document:
/// per-engine geomean speedups vs 1 core (the numbers a perf gate can
/// watch), mean parallel efficiency and shared-L2 reuse per core count,
/// plus every raw cell.
///
/// `walls` is index-aligned per-cell host wall-clock seconds (from
/// [`run_timed_scaling_sweep`]); when non-empty it must have one entry
/// per cell, and each cell row gains `wall_seconds` and
/// `sim_insts_per_sec` columns next to its simulated cycles. Pass `&[]`
/// for an untimed (pooled) sweep.
///
/// # Panics
///
/// If `walls` is non-empty but not index-aligned with `report.cells`.
pub fn scaling_report(mode: &str, report: &SweepReport, walls: &[f64]) -> JsonValue {
    assert!(
        walls.is_empty() || walls.len() == report.cells.len(),
        "walls must align with cells: {} vs {}",
        walls.len(),
        report.cells.len()
    );
    let cell_json = |(i, cell): (usize, &RunReport)| {
        let mut value = cell.to_json_value();
        if let (JsonValue::Object(fields), Some(&wall)) = (&mut value, walls.get(i)) {
            fields.push(("wall_seconds".into(), wall.into()));
            let rate = if wall > 0.0 {
                cell.instructions as f64 / wall
            } else {
                0.0
            };
            fields.push(("sim_insts_per_sec".into(), rate.into()));
        }
        value
    };
    let sparsity = "2:4";
    let mut per_engine = Vec::new();
    for engine in report.engines() {
        let mut per_cores = Vec::new();
        for &cores in &report.cores_values() {
            if let Some(g) = report.geomean_core_scaling(engine, sparsity, cores) {
                per_cores.push((cores.to_string(), JsonValue::from(g)));
            }
        }
        per_engine.push((engine.to_string(), JsonValue::Object(per_cores)));
    }
    JsonValue::Object(vec![
        ("report".into(), "fig_scaling".into()),
        ("mode".into(), mode.into()),
        ("sparsity".into(), sparsity.into()),
        (
            "cores".into(),
            JsonValue::Array(
                report
                    .cores_values()
                    .iter()
                    .map(|&c| JsonValue::from(c))
                    .collect(),
            ),
        ),
        (
            "geomean_speedup_vs_1core".into(),
            JsonValue::Object(per_engine),
        ),
        (
            "cells".into(),
            JsonValue::Array(report.cells.iter().enumerate().map(cell_json).collect()),
        ),
    ])
}

/// Writes `BENCH_scaling.json` into `$VEGETA_CSV_DIR` (when set) or the
/// current directory; returns the path on success. The file is a CI
/// artifact (gitignored), not a committed baseline — scaling numbers move
/// whenever the core model does, and the perf gate already pins absolute
/// cycles.
pub fn write_scaling_json(doc: &JsonValue) -> Option<std::path::PathBuf> {
    crate::write_artifact_json("BENCH_scaling.json", doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_sweep_is_monotone_and_serializes() {
        // One small layer at deep quick scale keeps the unit test fast; the
        // drivers job runs the full pinned set.
        let report = Sweep::new()
            .with_engine(EngineConfig::vegeta_s(16).unwrap())
            .with_layer(table4()[7])
            .with_sparsity(NmRatio::S2_4)
            .with_fidelity(Fidelity::Quick(4))
            .with_cores([1, 2, 4])
            .run();
        assert_eq!(report.cells.len(), 3);
        let mut last = u64::MAX;
        for cell in &report.cells {
            assert!(cell.cycles <= last, "monotone non-increasing cycles");
            last = cell.cycles;
        }
        let doc = scaling_report("test", &report, &[]);
        let parsed = JsonValue::parse(&doc.to_string()).expect("valid JSON");
        let speedups = parsed
            .get("geomean_speedup_vs_1core")
            .and_then(|e| e.get("VEGETA-S-16-2"))
            .expect("engine entry");
        let at4 = speedups
            .get("4")
            .and_then(JsonValue::as_f64)
            .expect("4-core");
        assert!(at4 > 1.0, "4 cores must beat 1: {at4}");
        assert!(
            speedups.get("1").and_then(JsonValue::as_f64).unwrap() > 0.999,
            "the baseline's speedup over itself is 1"
        );
        // Untimed cells have no wall-clock columns.
        let first = &parsed.get("cells").unwrap().as_array().unwrap()[0];
        assert!(first.get("wall_seconds").is_none());
    }

    #[test]
    fn timed_cells_carry_wall_clock_next_to_cycles() {
        let report = Sweep::new()
            .with_engine(EngineConfig::vegeta_s(16).unwrap())
            .with_layer(table4()[7])
            .with_sparsity(NmRatio::S2_4)
            .with_fidelity(Fidelity::Quick(8))
            .with_cores([1, 2])
            .run();
        let walls = vec![0.5; report.cells.len()];
        let doc = scaling_report("test", &report, &walls);
        let parsed = JsonValue::parse(&doc.to_string()).expect("valid JSON");
        for cell in parsed.get("cells").unwrap().as_array().unwrap() {
            assert_eq!(
                cell.get("wall_seconds").and_then(JsonValue::as_f64),
                Some(0.5)
            );
            let insts = cell
                .get("instructions")
                .and_then(JsonValue::as_f64)
                .unwrap();
            let rate = cell
                .get("sim_insts_per_sec")
                .and_then(JsonValue::as_f64)
                .unwrap();
            assert!((rate - insts / 0.5).abs() < 1e-6, "{rate} vs {insts}/0.5");
        }
    }

    #[test]
    fn timed_sweep_matches_the_pooled_grid_shape() {
        // The timed runner must enumerate the same grid in the same order
        // the pooled sweep reports, or walls stop being index-aligned.
        let pooled = run_scaling_floor_sweep(Fidelity::Quick(2));
        let labels: Vec<(String, String, usize)> = pooled
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.engine.clone(), c.cores))
            .collect();
        let mut expect = Vec::new();
        for layer in pinned_layers() {
            for cores in [1, SCALING_FLOOR_CORES] {
                for engine in perf_gate_engines() {
                    expect.push((layer.name.to_string(), engine.name().to_string(), cores));
                }
            }
        }
        assert_eq!(labels, expect, "grid order is layer, cores, engine");
    }

    #[test]
    fn scaling_core_counts_start_at_the_baseline() {
        let counts = scaling_core_counts();
        assert_eq!(counts[0], 1, "speedups are normalized to 1 core");
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert!(
            counts.contains(&SCALING_FLOOR_CORES),
            "the floor's core count is part of the published curve"
        );
    }

    #[test]
    fn scaling_floor_passes_and_fails_sensibly() {
        let report = Sweep::new()
            .with_engine(EngineConfig::vegeta_s(16).unwrap())
            .with_layer(table4()[7])
            .with_sparsity(NmRatio::S2_4)
            .with_fidelity(Fidelity::Quick(4))
            .with_cores([1, 8])
            .run();
        let achieved = check_scaling_floor(&report, 8, 2.0).expect("8 cores beat 2x");
        assert!(achieved > 2.0);
        let err = check_scaling_floor(&report, 8, 1000.0).unwrap_err();
        assert!(
            err.contains("below the"),
            "floor failure names itself: {err}"
        );
        let err = check_scaling_floor(&report, 16, 2.0).unwrap_err();
        assert!(
            err.contains("missing"),
            "absent core count is refused: {err}"
        );
    }
}
