//! The performance gate behind the `perf_gate` binary and the CI
//! `perf-gate` job.
//!
//! Two halves:
//!
//! * **Regression gate** — [`compare_geomeans`] diffs a freshly computed
//!   Fig. 13 geomean-speedup document against the committed
//!   `BENCH_fig13.json` baseline within a relative tolerance
//!   ([`GEOMEAN_TOLERANCE`], ±2%); CI fails on any drift, so performance
//!   changes must update the baseline in the same PR that causes them.
//! * **Throughput report** — [`run_perf_cells`] replays the pinned layer
//!   set ([`pinned_layers`], one layer per source network) on one engine
//!   per §VI engine class ([`perf_gate_engines`]) at the requested
//!   fidelities through the streaming pipeline, and [`perf_report`] wraps
//!   the cells (cycles, wall-clock, simulated insts/sec, peak resident
//!   bytes) into the machine-readable `BENCH_perf.json` artifact.
//!
//! The simulated cycle counts are deterministic; only the wall-clock
//! columns vary by host, which is why `BENCH_perf.json` is a workflow
//! artifact rather than a committed baseline.

use std::time::Instant;

use vegeta::json::JsonValue;
use vegeta::prelude::*;

/// Maximum relative geomean drift the gate accepts by default (±2%).
pub const GEOMEAN_TOLERANCE: f64 = 0.02;

/// The environment variable that overrides the default gate tolerance
/// (a fraction, e.g. `0.05` for ±5%); an explicit `--tolerance` flag wins
/// over it.
pub const TOLERANCE_ENV: &str = "VEGETA_PERF_TOL";

/// Resolves one positive, finite gate parameter from its three sources,
/// strongest first: an explicit flag, an environment variable, then
/// `default` (which is `None` for opt-in gates).
///
/// Every gate parameter shares the same refusal rule: a NaN value would
/// silently pass everything and a non-positive one fail everything — in
/// both cases a gate checking criteria nobody chose — so bad values from
/// either source are errors, never ignored. `kind` finishes the error
/// message (e.g. `"fraction (e.g. 0.02 for ±2%)"`).
fn resolve_gate_value(
    flag: Option<f64>,
    flag_name: &str,
    env: Option<&str>,
    env_name: &str,
    kind: &str,
    default: Option<f64>,
) -> Result<Option<f64>, String> {
    if let Some(v) = flag {
        return if v.is_finite() && v > 0.0 {
            Ok(Some(v))
        } else {
            Err(format!("{flag_name} {v} is not a positive {kind}"))
        };
    }
    match env {
        None => Ok(default),
        Some(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(Some(v)),
            _ => Err(format!("{env_name}='{raw}' is not a positive {kind}")),
        },
    }
}

/// Resolves the gate tolerance from its three sources, strongest first:
/// the `--tolerance` flag, the [`TOLERANCE_ENV`] environment variable,
/// then the [`GEOMEAN_TOLERANCE`] default.
///
/// # Errors
///
/// A human-readable message when the chosen value (flag or environment)
/// is not a positive finite fraction (see `resolve_gate_value`'s
/// refusal rule).
pub fn resolve_tolerance(flag: Option<f64>, env: Option<&str>) -> Result<f64, String> {
    resolve_gate_value(
        flag,
        "--tolerance",
        env,
        TOLERANCE_ENV,
        "fraction (e.g. 0.02 for ±2%)",
        Some(GEOMEAN_TOLERANCE),
    )
    .map(|t| t.expect("tolerance has a default"))
}

/// The environment variable that sets the replay-throughput floor
/// (simulated instructions per wall-clock second, e.g. `250000`); an
/// explicit `--min-insts-per-sec` flag wins over it. Unset means the
/// throughput gate is off — wall-clock floors are host-dependent, so CI
/// opts in with a value calibrated to its runners.
pub const MIN_IPS_ENV: &str = "VEGETA_PERF_MIN_IPS";

/// Resolves the throughput floor from its three sources, strongest first:
/// the `--min-insts-per-sec` flag, the [`MIN_IPS_ENV`] environment
/// variable, then `None` (gate off).
///
/// # Errors
///
/// A human-readable message when the chosen value (flag or environment)
/// is not a positive finite rate (see `resolve_gate_value`'s refusal
/// rule).
pub fn resolve_min_ips(flag: Option<f64>, env: Option<&str>) -> Result<Option<f64>, String> {
    resolve_gate_value(
        flag,
        "--min-insts-per-sec",
        env,
        MIN_IPS_ENV,
        "rate (e.g. 250000)",
        None,
    )
}

/// The environment variable that sets the multi-core replay-throughput
/// floor (simulated instructions per wall-clock second across the
/// [`MC_PERF_CORES`]-core cells); an explicit `--min-multicore-ips` flag
/// wins over it. Unset means the gate is off, like [`MIN_IPS_ENV`].
pub const MIN_MC_IPS_ENV: &str = "VEGETA_PERF_MIN_MC_IPS";

/// Resolves the multi-core throughput floor from its three sources,
/// strongest first: the `--min-multicore-ips` flag, the
/// [`MIN_MC_IPS_ENV`] environment variable, then `None` (gate off).
///
/// # Errors
///
/// A human-readable message when the chosen value (flag or environment)
/// is not a positive finite rate (see `resolve_gate_value`'s refusal
/// rule).
pub fn resolve_min_multicore_ips(
    flag: Option<f64>,
    env: Option<&str>,
) -> Result<Option<f64>, String> {
    resolve_gate_value(
        flag,
        "--min-multicore-ips",
        env,
        MIN_MC_IPS_ENV,
        "rate (e.g. 250000)",
        None,
    )
}

/// Gates the cells' `geomean_sim_insts_per_sec` against a throughput
/// floor, returning the achieved geomean on success.
///
/// # Errors
///
/// A human-readable message when the geomean is below `min_ips` (or
/// cannot be computed because there are no cells).
pub fn check_throughput_floor(cells: &[PerfCell], min_ips: f64) -> Result<f64, String> {
    let rates: Vec<f64> = cells.iter().map(PerfCell::sim_insts_per_sec).collect();
    let Some(achieved) = geomean(&rates) else {
        return Err("no perf cells to gate".into());
    };
    if achieved >= min_ips {
        Ok(achieved)
    } else {
        Err(format!(
            "geomean {achieved:.0} sim insts/sec is below the {min_ips:.0} floor \
             ({:.1}% of it)",
            achieved / min_ips * 100.0
        ))
    }
}

/// One timed streamed replay of the perf set.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// The underlying simulation report.
    pub report: RunReport,
    /// Host wall-clock seconds the replay took (trace generation +
    /// simulation; nondeterministic).
    pub wall_seconds: f64,
}

impl PerfCell {
    /// Simulated instructions per wall-clock second — the streaming
    /// pipeline's replay throughput.
    pub fn sim_insts_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.report.instructions as f64 / self.wall_seconds
    }

    /// The cell as a JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("workload".into(), self.report.workload.as_str().into()),
            ("engine".into(), self.report.engine.as_str().into()),
            ("sparsity".into(), self.report.sparsity.as_str().into()),
            ("fidelity".into(), self.report.fidelity.as_str().into()),
            ("m".into(), self.report.shape.m.into()),
            ("n".into(), self.report.shape.n.into()),
            ("k".into(), self.report.shape.k.into()),
            ("cores".into(), self.report.cores.into()),
            ("cycles".into(), self.report.cycles.into()),
            ("instructions".into(), self.report.instructions.into()),
            ("insts_streamed".into(), self.report.insts_streamed.into()),
            (
                "peak_resident_bytes".into(),
                self.report.peak_resident_bytes.into(),
            ),
            ("wall_seconds".into(), self.wall_seconds.into()),
            ("sim_insts_per_sec".into(), self.sim_insts_per_sec().into()),
        ])
    }
}

/// The pinned perf-gate layer set: one Table IV layer per source network,
/// chosen small enough that full-fidelity replays stay CI-friendly.
pub fn pinned_layers() -> Vec<Layer> {
    table4()
        .into_iter()
        .filter(|l| matches!(l.name, "ResNet50-L6" | "BERT-L2" | "GPT-L1"))
        .collect()
}

/// One engine per §VI engine class: the dense SOTA baseline, the
/// fixed-pattern sparse engine, and the flexible VEGETA-S design.
pub fn perf_gate_engines() -> Vec<EngineConfig> {
    vec![
        EngineConfig::rasa_dm(),
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .expect("valid alpha")
            .with_output_forwarding(true),
    ]
}

/// Replays `layers` × [`perf_gate_engines`] at 2:4 weights for every
/// requested fidelity, timing each streamed replay. One shared trace cache
/// memoizes the generator summaries across engines.
pub fn run_perf_cells(layers: &[Layer], fidelities: &[Fidelity]) -> Vec<PerfCell> {
    let cache = std::sync::Arc::new(TraceCache::new());
    let mut cells = Vec::new();
    for layer in layers {
        for &fidelity in fidelities {
            for engine in perf_gate_engines() {
                let session = Session::new(engine).with_cache(std::sync::Arc::clone(&cache));
                let start = Instant::now();
                let report = session.run(&Cell::layer(layer, fidelity, NmRatio::S2_4));
                cells.push(PerfCell {
                    report,
                    wall_seconds: start.elapsed().as_secs_f64(),
                });
            }
        }
    }
    cells
}

/// Core count the multi-core perf cells shard at (matches the scaling
/// floor's pinned point).
pub const MC_PERF_CORES: usize = 8;

/// Replays `layers` × [`perf_gate_engines`] at 2:4 weights sharded across
/// [`MC_PERF_CORES`] simulated cores (LPT 2D/K-split plans, per-core runs
/// under [`ExecMode::Auto`] — so `VEGETA_HOST_THREADS` and the host's
/// available parallelism govern the fan-out), timing each run.
/// These cells feed the `geomean_multicore_insts_per_sec` summary and the
/// opt-in `--min-multicore-ips` floor.
pub fn run_multicore_perf_cells(layers: &[Layer], fidelity: Fidelity) -> Vec<PerfCell> {
    let cache = std::sync::Arc::new(TraceCache::new());
    let mut cells = Vec::new();
    for layer in layers {
        for engine in perf_gate_engines() {
            let session = Session::new(engine).with_cache(std::sync::Arc::clone(&cache));
            let start = Instant::now();
            let report =
                session.run(&Cell::layer(layer, fidelity, NmRatio::S2_4).cores(MC_PERF_CORES));
            cells.push(PerfCell {
                report,
                wall_seconds: start.elapsed().as_secs_f64(),
            });
        }
    }
    cells
}

/// Wraps perf cells into the `BENCH_perf.json` document. The top-level
/// `geomean_sim_insts_per_sec` and `geomean_multicore_insts_per_sec`
/// fields summarize replay throughput (single-core streamed and
/// [`MC_PERF_CORES`]-core host-parallel respectively) across their cells
/// in one number each, so workflow artifacts can be skimmed (and trended)
/// without re-aggregating the per-cell rows.
pub fn perf_report(mode: &str, cells: &[PerfCell], mc_cells: &[PerfCell]) -> JsonValue {
    let rates: Vec<f64> = cells.iter().map(PerfCell::sim_insts_per_sec).collect();
    let mc_rates: Vec<f64> = mc_cells.iter().map(PerfCell::sim_insts_per_sec).collect();
    JsonValue::Object(vec![
        ("report".into(), "perf_gate".into()),
        ("mode".into(), mode.into()),
        ("tolerance".into(), GEOMEAN_TOLERANCE.into()),
        ("cells".into(), (cells.len() + mc_cells.len()).into()),
        (
            "geomean_sim_insts_per_sec".into(),
            geomean(&rates).unwrap_or(0.0).into(),
        ),
        (
            "geomean_multicore_insts_per_sec".into(),
            geomean(&mc_rates).unwrap_or(0.0).into(),
        ),
        (
            "results".into(),
            JsonValue::Array(cells.iter().map(PerfCell::to_json_value).collect()),
        ),
        (
            "multicore_results".into(),
            JsonValue::Array(mc_cells.iter().map(PerfCell::to_json_value).collect()),
        ),
    ])
}

/// Writes `BENCH_perf.json` into `$VEGETA_CSV_DIR` (when set) or the
/// current directory; returns the path on success.
pub fn write_perf_json(doc: &JsonValue) -> Option<std::path::PathBuf> {
    crate::write_artifact_json("BENCH_perf.json", doc)
}

/// Diffs every `geomean_speedup_vs_baseline` entry of `baseline` against
/// `fresh` within relative `tolerance`.
///
/// Returns the number of geomeans compared; a baseline entry that is
/// missing from `fresh`, mistyped, or drifted beyond tolerance is a
/// failure.
///
/// # Errors
///
/// One human-readable line per failed comparison.
pub fn compare_geomeans(
    baseline: &JsonValue,
    fresh: &JsonValue,
    tolerance: f64,
) -> Result<usize, Vec<String>> {
    let section = "geomean_speedup_vs_baseline";
    let mut failures = Vec::new();
    let Some(JsonValue::Object(sparsities)) = baseline.get(section) else {
        return Err(vec![format!("baseline has no '{section}' object")]);
    };
    let mut compared = 0usize;
    for (sparsity, engines) in sparsities {
        let JsonValue::Object(engines) = engines else {
            failures.push(format!("baseline '{sparsity}' entry is not an object"));
            continue;
        };
        for (engine, value) in engines {
            let Some(base) = value.as_f64() else {
                failures.push(format!("baseline {sparsity}/{engine} is not a number"));
                continue;
            };
            let got = fresh
                .get(section)
                .and_then(|s| s.get(sparsity))
                .and_then(|e| e.get(engine))
                .and_then(JsonValue::as_f64);
            match got {
                None => failures.push(format!(
                    "{sparsity}/{engine}: missing from the fresh sweep (baseline {base:.4})"
                )),
                Some(fresh_v) => {
                    let drift = (fresh_v - base) / base;
                    if drift.abs() > tolerance {
                        failures.push(format!(
                            "{sparsity}/{engine}: geomean {fresh_v:.4} vs baseline {base:.4} \
                             ({:+.2}% > ±{:.0}%)",
                            drift * 100.0,
                            tolerance * 100.0
                        ));
                    } else {
                        compared += 1;
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(geomeans: &[(&str, &[(&str, f64)])]) -> JsonValue {
        JsonValue::Object(vec![(
            "geomean_speedup_vs_baseline".into(),
            JsonValue::Object(
                geomeans
                    .iter()
                    .map(|(sparsity, engines)| {
                        (
                            sparsity.to_string(),
                            JsonValue::Object(
                                engines
                                    .iter()
                                    .map(|(e, v)| (e.to_string(), JsonValue::from(*v)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_geomeans_pass() {
        let base = doc(&[("2:4", &[("VEGETA-S-16-2", 2.2), ("STC", 1.9)])]);
        assert_eq!(compare_geomeans(&base, &base.clone(), 0.02), Ok(2));
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = doc(&[("1:4", &[("VEGETA-S-16-2", 3.74)])]);
        let fresh = doc(&[("1:4", &[("VEGETA-S-16-2", 3.74 * 1.015)])]);
        assert_eq!(compare_geomeans(&base, &fresh, 0.02), Ok(1));
    }

    #[test]
    fn perturbed_geomean_beyond_tolerance_fails() {
        let base = doc(&[("1:4", &[("VEGETA-S-16-2", 3.74), ("STC", 2.0)])]);
        let fresh = doc(&[("1:4", &[("VEGETA-S-16-2", 3.74 * 1.05), ("STC", 2.0)])]);
        let failures = compare_geomeans(&base, &fresh, 0.02).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("VEGETA-S-16-2"), "{failures:?}");
        // Regressions (slowdowns) are caught symmetrically.
        let slower = doc(&[("1:4", &[("VEGETA-S-16-2", 3.74 * 0.9), ("STC", 2.0)])]);
        assert!(compare_geomeans(&base, &slower, 0.02).is_err());
    }

    #[test]
    fn missing_engine_or_section_fails() {
        let base = doc(&[("2:4", &[("VEGETA-S-16-2", 2.2)])]);
        let empty = doc(&[("2:4", &[])]);
        let failures = compare_geomeans(&base, &empty, 0.02).unwrap_err();
        assert!(failures[0].contains("missing"));
        assert!(compare_geomeans(&JsonValue::Object(vec![]), &base, 0.02).is_err());
    }

    #[test]
    fn tolerance_resolution_orders_flag_env_default() {
        // Default when neither source is set.
        assert_eq!(resolve_tolerance(None, None), Ok(GEOMEAN_TOLERANCE));
        // The environment variable overrides the default.
        assert_eq!(resolve_tolerance(None, Some("0.05")), Ok(0.05));
        assert_eq!(resolve_tolerance(None, Some(" 0.1 ")), Ok(0.1));
        // An explicit flag wins over the environment.
        assert_eq!(resolve_tolerance(Some(0.01), Some("0.5")), Ok(0.01));
        // Garbage and non-positive env values are refused, not ignored.
        for bad in ["2%", "", "-0.02", "0", "NaN", "inf"] {
            let err = resolve_tolerance(None, Some(bad)).unwrap_err();
            assert!(err.contains(TOLERANCE_ENV), "{err}");
        }
        // The flag is held to the same standard: a NaN tolerance would
        // pass everything, a non-positive one fail everything.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.02] {
            let err = resolve_tolerance(Some(bad), None).unwrap_err();
            assert!(err.contains("--tolerance"), "{err}");
        }
    }

    #[test]
    fn min_ips_resolution_orders_flag_env_off() {
        // The gate is off unless a source asks for it.
        assert_eq!(resolve_min_ips(None, None), Ok(None));
        // The environment variable turns it on.
        assert_eq!(resolve_min_ips(None, Some("250000")), Ok(Some(250_000.0)));
        assert_eq!(resolve_min_ips(None, Some(" 1e5 ")), Ok(Some(100_000.0)));
        // An explicit flag wins over the environment.
        assert_eq!(resolve_min_ips(Some(5e4), Some("250000")), Ok(Some(5e4)));
        // Garbage and non-positive env values are refused, not ignored.
        for bad in ["fast", "", "-1", "0", "NaN", "inf"] {
            let err = resolve_min_ips(None, Some(bad)).unwrap_err();
            assert!(err.contains(MIN_IPS_ENV), "{err}");
        }
        // The flag is held to the same standard.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -250_000.0] {
            let err = resolve_min_ips(Some(bad), None).unwrap_err();
            assert!(err.contains("--min-insts-per-sec"), "{err}");
        }
    }

    #[test]
    fn throughput_floor_gates_the_geomean() {
        let cell = |instructions: u64, wall_seconds: f64| PerfCell {
            report: RunReport {
                workload: "test".into(),
                engine: "test".into(),
                sparsity: "2:4".into(),
                fidelity: "full".into(),
                kernel: "test".into(),
                format: "-".into(),
                a_values_bytes: 0,
                a_metadata_bits: 0,
                shape: GemmShape::new(16, 16, 16),
                cycles: 1,
                instructions,
                tile_compute: 0,
                engine_busy_cycles: 0,
                insts_streamed: instructions,
                peak_resident_bytes: 1,
                macs: 0,
                core_ghz: 2.0,
                cores: 1,
                scheduler: "-".into(),
                per_core_cycles: Vec::new(),
                shared_l2: Default::default(),
                scaling_efficiency: 1.0,
            },
            wall_seconds,
        };
        // Two cells at 1e6 and 1e4 insts/sec: geomean 1e5.
        let cells = [cell(1_000_000, 1.0), cell(10_000, 1.0)];
        let achieved = check_throughput_floor(&cells, 99_000.0).expect("above floor");
        assert!((achieved - 1e5).abs() / 1e5 < 1e-9, "{achieved}");
        let err = check_throughput_floor(&cells, 101_000.0).unwrap_err();
        assert!(err.contains("below the 101000 floor"), "{err}");
        assert!(check_throughput_floor(&[], 1.0).is_err(), "empty set");
    }

    #[test]
    fn pinned_set_covers_every_network_and_engine_class() {
        let layers = pinned_layers();
        assert_eq!(layers.len(), 3);
        let networks: std::collections::HashSet<_> = layers.iter().map(|l| l.network).collect();
        assert_eq!(networks.len(), 3, "one layer per source network");
        assert_eq!(perf_gate_engines().len(), 3);
    }

    #[test]
    fn perf_cells_stream_and_serialize() {
        let layers = pinned_layers();
        let cells = run_perf_cells(&layers[..1], &[Fidelity::Quick(8)]);
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            assert_eq!(cell.report.fidelity, "quick/8");
            assert_eq!(cell.report.insts_streamed, cell.report.instructions);
            assert!(cell.report.peak_resident_bytes > 0);
        }
        let doc = perf_report("test", &cells, &[]);
        let parsed = JsonValue::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("results")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        // The top-level summary is the geomean of the per-cell rates.
        let rates: Vec<f64> = cells.iter().map(PerfCell::sim_insts_per_sec).collect();
        let expect = geomean(&rates).expect("three positive rates");
        let got = parsed
            .get("geomean_sim_insts_per_sec")
            .and_then(JsonValue::as_f64)
            .expect("summary field present");
        assert!(((got - expect) / expect).abs() < 1e-9, "{got} vs {expect}");
        assert!(got > 0.0);
    }

    #[test]
    fn multicore_cells_shard_and_summarize() {
        let layers = pinned_layers();
        let mc = run_multicore_perf_cells(&layers[..1], Fidelity::Quick(16));
        assert_eq!(mc.len(), 3, "one cell per engine class");
        for cell in &mc {
            assert_eq!(cell.report.cores, MC_PERF_CORES);
            assert!(cell.report.cycles > 0);
        }
        let doc = perf_report("test", &[], &mc);
        let parsed = JsonValue::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("multicore_results")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        let rates: Vec<f64> = mc.iter().map(PerfCell::sim_insts_per_sec).collect();
        let expect = geomean(&rates).expect("three positive rates");
        let got = parsed
            .get("geomean_multicore_insts_per_sec")
            .and_then(JsonValue::as_f64)
            .expect("summary field present");
        assert!(((got - expect) / expect).abs() < 1e-9, "{got} vs {expect}");
        // The per-cell rows carry the core count, so single-core and
        // multi-core rows stay distinguishable in merged tooling.
        assert_eq!(
            parsed.get("multicore_results").unwrap().as_array().unwrap()[0]
                .get("cores")
                .and_then(JsonValue::as_u64),
            Some(MC_PERF_CORES as u64)
        );
    }

    #[test]
    fn min_multicore_ips_resolution_orders_flag_env_off() {
        assert_eq!(resolve_min_multicore_ips(None, None), Ok(None));
        assert_eq!(
            resolve_min_multicore_ips(None, Some("100000")),
            Ok(Some(100_000.0))
        );
        assert_eq!(
            resolve_min_multicore_ips(Some(5e4), Some("100000")),
            Ok(Some(5e4))
        );
        for bad in ["fast", "", "-1", "0", "NaN", "inf"] {
            let err = resolve_min_multicore_ips(None, Some(bad)).unwrap_err();
            assert!(err.contains(MIN_MC_IPS_ENV), "{err}");
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -250_000.0] {
            let err = resolve_min_multicore_ips(Some(bad), None).unwrap_err();
            assert!(err.contains("--min-multicore-ips"), "{err}");
        }
    }

    #[test]
    fn perf_report_summary_survives_empty_cells() {
        let doc = perf_report("test", &[], &[]);
        assert_eq!(
            doc.get("geomean_sim_insts_per_sec")
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            doc.get("geomean_multicore_insts_per_sec")
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
    }
}
