//! The CI performance gate.
//!
//! Default mode (the PR `perf-gate` job):
//!
//! 1. regenerates the Fig. 13 quick-mode sweep and diffs its per-engine
//!    geomean speedups against the committed `BENCH_fig13.json` within
//!    ±2%, exiting non-zero on any drift (performance changes must update
//!    the baseline in the same PR);
//! 2. checks the strong-scaling floor: the pinned layers sharded across
//!    8 cores (2D/K-split shard plans, LPT scheduling) must sustain an
//!    across-engine geomean speedup of at least the floor (default 3.5×)
//!    with no stranded cores — catching any regression back toward the
//!    ~2.2× plateau the 1D/static path hit;
//! 3. replays the pinned layer set at **both** fidelities (quick/4 and
//!    full) through the streaming pipeline, plus the same layers sharded
//!    across 8 simulated cores through the host-parallel multi-core
//!    replay, and writes the timed `BENCH_perf.json` artifact (simulated
//!    insts/sec, wall-clock, cycles, peak resident bytes, and the
//!    single-core / multi-core throughput geomeans).
//!
//! `--full-scale` (the scheduled job): skips the baseline diff and replays
//! one full-fidelity Table IV layer per engine class — including the
//! largest GPT-3 layer — exercising the streaming path at network scale.
//!
//! Flags: `--baseline <path>` overrides the committed baseline
//! (`BENCH_fig13.json` in the current directory, the repository root in
//! CI),
//! `--tolerance <fraction>` the ±2% default (the `VEGETA_PERF_TOL`
//! environment variable also overrides the default; the flag wins over
//! both), `--scaling-floor <speedup>` the 3.5× scaling floor,
//! `--min-insts-per-sec <rate>` the opt-in replay-throughput floor on
//! the cells' `geomean_sim_insts_per_sec` (the `VEGETA_PERF_MIN_IPS`
//! environment variable also enables it; unset means off, because
//! wall-clock floors are host-dependent), and `--min-multicore-ips
//! <rate>` the analogous opt-in floor on
//! `geomean_multicore_insts_per_sec` (`VEGETA_PERF_MIN_MC_IPS`).

use vegeta::json::JsonValue;
use vegeta::prelude::*;
use vegeta_bench::perf_gate::{
    check_throughput_floor, compare_geomeans, perf_report, pinned_layers, resolve_min_ips,
    resolve_min_multicore_ips, resolve_tolerance, run_multicore_perf_cells, run_perf_cells,
    write_perf_json, MC_PERF_CORES, MIN_IPS_ENV, MIN_MC_IPS_ENV, TOLERANCE_ENV,
};
use vegeta_bench::scaling::{
    check_scaling_floor, run_scaling_floor_sweep, DEFAULT_SCALING_FLOOR, SCALING_FLOOR_CORES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full_scale = false;
    let mut baseline_path = std::path::PathBuf::from("BENCH_fig13.json");
    let mut tolerance_flag: Option<f64> = None;
    let mut min_ips_flag: Option<f64> = None;
    let mut min_mc_ips_flag: Option<f64> = None;
    let mut scaling_floor = DEFAULT_SCALING_FLOOR;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full-scale" => full_scale = true,
            "--baseline" => {
                baseline_path = iter.next().expect("--baseline needs a path").into();
            }
            "--tolerance" => {
                let raw = iter.next().expect("--tolerance needs a fraction");
                tolerance_flag = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("perf_gate: --tolerance '{raw}' is not a number (e.g. 0.02)");
                    std::process::exit(2);
                }));
            }
            "--min-insts-per-sec" => {
                let raw = iter.next().expect("--min-insts-per-sec needs a rate");
                min_ips_flag = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "perf_gate: --min-insts-per-sec '{raw}' is not a number (e.g. 250000)"
                    );
                    std::process::exit(2);
                }));
            }
            "--min-multicore-ips" => {
                let raw = iter.next().expect("--min-multicore-ips needs a rate");
                min_mc_ips_flag = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "perf_gate: --min-multicore-ips '{raw}' is not a number (e.g. 250000)"
                    );
                    std::process::exit(2);
                }));
            }
            "--scaling-floor" => {
                let raw = iter.next().expect("--scaling-floor needs a speedup");
                scaling_floor = raw.parse().unwrap_or_else(|_| {
                    eprintln!("perf_gate: --scaling-floor '{raw}' is not a number (e.g. 3.5)");
                    std::process::exit(2);
                });
            }
            // A gate that silently ignores a mistyped flag would run with
            // criteria the author did not intend; refuse instead.
            unknown => {
                eprintln!(
                    "perf_gate: unknown argument '{unknown}' (expected --full-scale, \
                     --baseline <path>, --tolerance <fraction>, \
                     --min-insts-per-sec <rate>, --min-multicore-ips <rate>, \
                     --scaling-floor <speedup>)"
                );
                std::process::exit(2);
            }
        }
    }
    // Flag > VEGETA_PERF_TOL > the ±2% default.
    let env_tolerance = std::env::var(TOLERANCE_ENV).ok();
    let tolerance =
        resolve_tolerance(tolerance_flag, env_tolerance.as_deref()).unwrap_or_else(|e| {
            eprintln!("perf_gate: {e}");
            std::process::exit(2);
        });
    // Flag > VEGETA_PERF_MIN_IPS > off.
    let env_min_ips = std::env::var(MIN_IPS_ENV).ok();
    let min_ips = resolve_min_ips(min_ips_flag, env_min_ips.as_deref()).unwrap_or_else(|e| {
        eprintln!("perf_gate: {e}");
        std::process::exit(2);
    });
    // Flag > VEGETA_PERF_MIN_MC_IPS > off.
    let env_min_mc_ips = std::env::var(MIN_MC_IPS_ENV).ok();
    let min_mc_ips = resolve_min_multicore_ips(min_mc_ips_flag, env_min_mc_ips.as_deref())
        .unwrap_or_else(|e| {
            eprintln!("perf_gate: {e}");
            std::process::exit(2);
        });

    if full_scale {
        // One full-fidelity layer per engine class, including the largest
        // GPT-3 layer: the network-scale streaming exercise.
        let layers: Vec<Layer> = table4()
            .into_iter()
            .filter(|l| matches!(l.name, "ResNet50-L6" | "BERT-L2" | "GPT-L3"))
            .collect();
        println!("## perf_gate --full-scale: full-fidelity streamed replays");
        let cells = run_perf_cells(&layers, &[Fidelity::Full]);
        print_cells(&cells);
        write_perf_json(&perf_report("full-scale", &cells, &[]));
        gate_throughput("throughput floor", &cells, min_ips, MIN_IPS_ENV);
        return;
    }

    // --- 1. Regression gate against the committed quick-mode baseline. ---
    println!(
        "## perf_gate: Fig. 13 geomean gate (tolerance ±{:.1}%)",
        tolerance * 100.0
    );
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", baseline_path.display());
        std::process::exit(1);
    });
    let baseline = JsonValue::parse(&baseline_text).unwrap_or_else(|e| {
        eprintln!(
            "baseline {} is not valid JSON: {e}",
            baseline_path.display()
        );
        std::process::exit(1);
    });
    // The committed baseline is the quick/4 artifact; regenerate at the
    // same fidelity regardless of the environment.
    let report = Sweep::figure13().with_scale(4).run();
    let tmp = std::env::temp_dir().join(format!("vegeta_perf_gate_{}", std::process::id()));
    let fresh_path =
        vegeta_bench::write_fig13_json_to(&report, 4, &tmp).expect("fresh geomeans written");
    let fresh = JsonValue::parse(&std::fs::read_to_string(&fresh_path).expect("readable"))
        .expect("fresh geomeans are valid JSON");
    std::fs::remove_dir_all(&tmp).ok();
    // When an artifact directory is configured, publish the sweep this
    // gate just computed (CSV + geomean JSON) instead of making CI rerun
    // the whole grid through fig13_runtime a second time. Without
    // VEGETA_CSV_DIR nothing is written — the committed workspace
    // baseline must stay untouched.
    if vegeta::report::requested_artifact_dir().is_some() {
        report.save_csv("fig13_runtime");
        vegeta_bench::write_fig13_json(&report, 4);
    }
    match compare_geomeans(&baseline, &fresh, tolerance) {
        Ok(compared) => {
            println!(
                "geomean gate PASSED: {compared} geomeans within ±{:.1}%",
                tolerance * 100.0
            );
        }
        Err(failures) => {
            eprintln!("geomean gate FAILED ({} drifts):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            eprintln!(
                "if this change is intentional, regenerate the baseline with \
                 `VEGETA_QUICK=1 cargo run --release -p vegeta-bench --bin fig13_runtime` \
                 and commit BENCH_fig13.json"
            );
            std::process::exit(1);
        }
    }

    // --- 2. Strong-scaling floor at the pinned core count. ---
    println!(
        "\n## perf_gate: {SCALING_FLOOR_CORES}-core scaling floor (>= {scaling_floor:.2}x geomean)"
    );
    let scaling = run_scaling_floor_sweep(Fidelity::from_env());
    match check_scaling_floor(&scaling, SCALING_FLOOR_CORES, scaling_floor) {
        Ok(achieved) => println!(
            "scaling floor PASSED: {achieved:.2}x geomean speedup at \
             {SCALING_FLOOR_CORES} cores, no stranded cores"
        ),
        Err(why) => {
            eprintln!("scaling floor FAILED: {why}");
            std::process::exit(1);
        }
    }

    // --- 3. Pinned perf set at both fidelities, timed. ---
    println!("\n## perf_gate: pinned layer set at quick/4 and full fidelity");
    let cells = run_perf_cells(&pinned_layers(), &[Fidelity::Quick(4), Fidelity::Full]);
    print_cells(&cells);

    // --- 4. The same layers sharded across 8 cores, host-parallel. ---
    println!("\n## perf_gate: pinned layer set sharded across {MC_PERF_CORES} cores, timed");
    let mc_cells = run_multicore_perf_cells(&pinned_layers(), Fidelity::Full);
    print_cells(&mc_cells);

    write_perf_json(&perf_report("gate", &cells, &mc_cells));
    gate_throughput("throughput floor", &cells, min_ips, MIN_IPS_ENV);
    gate_throughput(
        "multicore throughput floor",
        &mc_cells,
        min_mc_ips,
        MIN_MC_IPS_ENV,
    );
}

/// Applies one opt-in replay-throughput floor to a set of timed cells; a
/// floor of `None` (neither flag nor environment set) reports and moves
/// on.
fn gate_throughput(
    label: &str,
    cells: &[vegeta_bench::perf_gate::PerfCell],
    min_ips: Option<f64>,
    env_name: &str,
) {
    let Some(floor) = min_ips else {
        println!("\n{label}: off (set {env_name} or the matching flag)");
        return;
    };
    match check_throughput_floor(cells, floor) {
        Ok(achieved) => {
            println!("\n{label} PASSED: geomean {achieved:.0} sim insts/sec >= {floor:.0}");
        }
        Err(why) => {
            eprintln!("\n{label} FAILED: {why}");
            std::process::exit(1);
        }
    }
}

fn print_cells(cells: &[vegeta_bench::perf_gate::PerfCell]) {
    println!(
        "{:<14} {:<22} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "layer", "engine", "fidelity", "cycles", "insts", "sim insts/s", "peak bytes"
    );
    for cell in cells {
        println!(
            "{:<14} {:<22} {:>8} {:>12} {:>12} {:>14.0} {:>12}",
            cell.report.workload,
            cell.report.engine,
            cell.report.fidelity,
            cell.report.cycles,
            cell.report.instructions,
            cell.sim_insts_per_sec(),
            cell.report.peak_resident_bytes
        );
    }
}
