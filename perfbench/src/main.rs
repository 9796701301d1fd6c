//! The repository benchmark: host time, memory and throughput of the three
//! runs users of this workspace wait on, plus a traced per-layer split.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig13_sweep --seed 11 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. `--trace 0` times the pieces of one
//! workload's pass for `--seconds` and prints the end-to-end metrics; `--trace 1`
//! runs the traced split of every workload and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`), and a record of the run
//! (host, checks, spans) is written under `perfbench/out/`.
//! `--emit-expected` prints the workload's expected-results rows instead.
//! See `perfbench/README.md` for what each metric means.

mod expected;
mod fig13;
mod heap;
mod multicore;
mod serve;
mod trace;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use vegeta::json::JsonValue;
use vegeta::sim::HOST_THREADS_ENV;
use vegeta_serve::LoadGen;

use crate::trace::Trace;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Where run records go, relative to the working directory (the
/// repository root). Nothing is written anywhere else.
const OUT_DIR: &str = "perfbench/out";

/// One `setup_s` sample repeats the workload's set-up back to back until
/// this much time has passed and takes the mean, so that a grid built in
/// about a microsecond is timed over thousands of builds.
const SETUP_SAMPLE: Duration = Duration::from_millis(25);

/// `setup_s` samples taken before every round of timed pieces, so that
/// they spread over the whole run.
const SETUP_SAMPLES_PER_ROUND: usize = 8;

/// The host's CPU count: every pool the benchmark drives is capped at it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One named measurement with its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one timed run of a workload's pass, or of a piece of it, did.
pub struct PassStats {
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// Instructions the simulator executed.
    pub sim_insts: u64,
    /// Requests served (cells, on the sweeps).
    pub served: u64,
}

/// A workload's traced split.
pub struct Split {
    pub metrics: Vec<Metric>,
    /// Seconds and ops of its lint pieces.
    pub lint_s: f64,
    pub lint_ops: u64,
    /// Traced minus untraced seconds of the entry-point pass.
    pub tracing_overhead_s: f64,
    /// Host threads its pools resolved to.
    pub host_threads: usize,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `problem` says why.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.fail(1, why);
        }
    }

    /// Counts the operations of a pass that returned fewer than `want`.
    pub fn missing(&mut self, want: u64, got: usize, what: &str) {
        let missing = want.saturating_sub(got as u64);
        if missing > 0 {
            self.attempted += missing;
            self.fail(missing, format!("{what}: {missing} of {want} missing"));
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.problems.len() < 32 {
            eprintln!("perfbench: FAILED: {why}");
            self.problems.push(why);
        }
    }

    /// Runs one pass of `ops` operations, failing all of them if it panics.
    fn guarded<T>(&mut self, ops: u64, f: impl FnOnce(&mut Tally) -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(out) => Some(out),
            Err(_) => {
                self.attempted += ops;
                self.fail(ops, "a pass panicked".into());
                None
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Fig13,
    Multicore,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fig13_sweep" => Some(Workload::Fig13),
            "multicore_scaling" => Some(Workload::Multicore),
            "serve_sweep" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig13 => "fig13_sweep",
            Workload::Multicore => "multicore_scaling",
            Workload::Serve => "serve_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_expected: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 11, 10.0_f64, false);
        let mut emit_expected = false;
        while let Some(flag) = args.next() {
            if flag == "--emit-expected" {
                emit_expected = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or(
            "--workload must name fig13_sweep, multicore_scaling or serve_sweep".to_string(),
        )?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            emit_expected,
        })
    }
}

/// The `p`th percentile (nearest rank) of `values`.
fn percentile(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * p / 100).min(v.len() - 1)]
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage's layout on 64-bit Linux only");

/// The process's resource usage so far (`struct rusage` fields as i64).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage() -> [i64; 18] {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of `struct rusage` on this target, and getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.0
}

/// CPU seconds (user + system) all of the process's threads have run.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    // ru_utime and ru_stime, each (seconds, microseconds).
    (u[0] + u[2]) as f64 + (u[1] + u[3]) as f64 / 1e6
}

/// Seconds one set-up takes: the mean over as many back-to-back runs of
/// `setup` as fit in [`SETUP_SAMPLE`], at least one.
fn setup_sample<S>(setup: &impl Fn() -> S) -> f64 {
    let start = Instant::now();
    let mut runs = 0u32;
    while runs == 0 || start.elapsed() < SETUP_SAMPLE {
        drop(black_box(setup()));
        runs += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(runs)
}

/// Runs the workload's pieces round after round, each round on a fresh
/// set-up of every piece, and keeps each piece's fastest run. The first
/// round always completes; after it, the run stops after whichever piece
/// ends once `seconds` have elapsed. Before each round and after the last
/// it appends [`SETUP_SAMPLES_PER_ROUND`] set-up samples to `setups`.
/// Returns each piece's fastest run, `None` for a piece that never ran to
/// the end.
fn timed_pieces<S>(
    seconds: f64,
    setups: &mut Vec<f64>,
    setup: impl Fn() -> Vec<S>,
    mut run: impl FnMut(&S) -> Option<PassStats>,
) -> Vec<Option<PassStats>> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let sample = |setups: &mut Vec<f64>| {
        setups.extend((0..SETUP_SAMPLES_PER_ROUND).map(|_| setup_sample(&setup)));
    };
    let mut fastest: Vec<Option<PassStats>> = Vec::new();
    let mut walls: Vec<Vec<f64>> = Vec::new();
    'rounds: for round in 0.. {
        sample(setups);
        let pieces = setup();
        fastest.resize_with(pieces.len(), || None);
        walls.resize_with(pieces.len(), Vec::new);
        for (i, piece) in pieces.iter().enumerate() {
            if let Some(stats) = run(piece) {
                walls[i].push(stats.wall_s);
                if fastest[i].as_ref().is_none_or(|f| stats.wall_s < f.wall_s) {
                    fastest[i] = Some(stats);
                }
            }
            let last = i + 1 == pieces.len();
            if (round > 0 || last) && start.elapsed() >= budget {
                break 'rounds;
            }
        }
    }
    sample(setups);
    for (i, w) in walls.iter().enumerate() {
        eprintln!("perfbench: piece {i} wall_s {w:?}");
    }
    fastest
}

/// Runs the workload's memory pass, then times set-ups and pieces for
/// `seconds`; returns the end-to-end metrics.
///
/// The memory pass is one untimed run of the whole pass with allocation
/// counting on: it samples the live heap for `peak_rss_mb`, builds its own
/// set-up and is checked like every run. No timed set-up or piece runs
/// with counting on.
fn measure<S>(
    seconds: f64,
    tally: &mut Tally,
    memory_pass: impl FnOnce(&mut Tally),
    setup: impl Fn() -> Vec<S>,
    ops: impl Fn(&S) -> u64,
    run: impl Fn(&S, &mut Tally) -> PassStats,
) -> Vec<Metric> {
    let mut heap_samples = Vec::new();
    let mut setups = Vec::new();
    heap::sampled(&mut heap_samples, || memory_pass(tally));
    let fastest = timed_pieces(seconds, &mut setups, &setup, |piece| {
        tally.guarded(ops(piece), |t| run(piece, t))
    });
    eprintln!("perfbench: setup_s samples {setups:?}");
    let Some(fastest) = fastest.into_iter().collect::<Option<Vec<PassStats>>>() else {
        return Vec::new();
    };
    // A shared host only ever adds time, in spells that last from a
    // fraction of a second to many seconds, so the fastest run of a piece is
    // its least disturbed one. A piece is short, so it gets an undisturbed
    // run far more often than a whole pass does.
    let wall_s: f64 = fastest.iter().map(|p| p.wall_s).sum();
    let sim_insts: u64 = fastest.iter().map(|p| p.sim_insts).sum();
    let served: u64 = fastest.iter().map(|p| p.served).sum();
    vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("sim_insts_per_s", sim_insts as f64 / wall_s, "1/s"),
        Metric::new("requests_per_s", served as f64 / wall_s, "1/s"),
        Metric::new("peak_rss_mb", percentile(&heap_samples, 99), "MiB"),
        Metric::new(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
    ]
}

/// The named workload's end-to-end metrics and the host threads its pools
/// used.
fn end_to_end(args: &Args, tally: &mut Tally) -> (Vec<Metric>, usize) {
    let cpus = host_cpus();
    let cells = |grid: &vegeta::prelude::Sweep| grid.cell_count() as u64;
    match args.workload {
        Workload::Fig13 => {
            let expected = fig13::expected();
            let metrics = measure(
                args.seconds,
                tally,
                |tally| {
                    tally.guarded(fig13::CELLS, |t| {
                        fig13::pass(&fig13::grid(cpus), &expected, t)
                    });
                },
                || fig13::pieces(cpus),
                cells,
                |grid, t| fig13::pass(grid, &expected, t),
            );
            fig13::cross_check(cpus, tally);
            (metrics, cpus)
        }
        Workload::Multicore => {
            let expected = multicore::expected();
            let metrics = measure(
                args.seconds,
                tally,
                |tally| {
                    tally.guarded(multicore::CELLS, |t| {
                        multicore::pass(&multicore::grid(), &expected, t)
                    });
                },
                multicore::pieces,
                cells,
                |grid, t| multicore::pass(grid, &expected, t),
            );
            (metrics, cpus)
        }
        Workload::Serve => {
            let capacities = serve::capacities();
            let metrics = measure(
                args.seconds,
                tally,
                |tally| {
                    tally.guarded(serve::POINTS, |t| {
                        serve::pass(&serve::setup(args.seed, &capacities, LoadGen::generate), t)
                    });
                },
                || serve::pieces(args.seed, &capacities, LoadGen::generate),
                serve::Setup::points,
                serve::pass,
            );
            (metrics, serve::host_threads())
        }
    }
}

/// The traced run: every workload's split, whichever workload was named,
/// so each per-layer metric is measured on the workload that exercises it.
fn per_layer(args: &Args, tally: &mut Tally, trace: &mut Trace) -> (Vec<Metric>, usize) {
    let cpus = host_cpus();
    let splits: Vec<Split> = [
        tally.guarded(fig13::CELLS * 2, |t| {
            fig13::traced(cpus, &fig13::expected(), t, trace)
        }),
        tally.guarded(multicore::CELLS * 2, |t| {
            multicore::traced(&multicore::expected(), t, trace)
        }),
        tally.guarded(serve::POINTS * 2, |t| serve::traced(args.seed, t, trace)),
    ]
    .into_iter()
    .flatten()
    .collect();
    let lint_s: f64 = splits.iter().map(|s| s.lint_s).sum();
    let lint_ops: u64 = splits.iter().map(|s| s.lint_ops).sum();
    let overhead: f64 = splits.iter().map(|s| s.tracing_overhead_s).sum();
    let host_threads = splits.iter().map(|s| s.host_threads).max().unwrap_or(0);
    let mut metrics: Vec<Metric> = splits.into_iter().flat_map(|s| s.metrics).collect();
    metrics.extend([
        Metric::new("lint.verify_s", lint_s, "s"),
        Metric::new("lint.ops_checked", lint_ops as f64, "count"),
        Metric::new("lint.ns_per_op", lint_s * 1e9 / lint_ops as f64, "ns"),
        Metric::new("trace.overhead_s", overhead, "s"),
    ]);
    (metrics, host_threads)
}

/// The checked-out revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    std::fs::read_to_string(git.join(reference))
        .map_or_else(|_| "unknown".into(), |rev| rev.trim().to_string())
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), m.value.into()),
                        ("unit".into(), m.unit.into()),
                    ]),
                )
            })
            .collect(),
    )
}

/// Writes the run record under [`OUT_DIR`]; a failure is reported, not
/// fatal.
fn write_record(args: &Args, record: &JsonValue) {
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record.to_string()))
    {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    // The variable overrides ExecMode::Sequential and ExecMode::Auto,
    // which would make the traced split's two replays the same thing and
    // every pool's thread count a fiction.
    if let Some(value) = std::env::var_os(HOST_THREADS_ENV) {
        eprintln!(
            "perfbench: refusing to run with {HOST_THREADS_ENV}={} set: it overrides the \
             execution modes the benchmark measures; unset it",
            value.to_string_lossy()
        );
        std::process::exit(2);
    }
    if args.emit_expected {
        match args.workload {
            Workload::Fig13 => fig13::emit_expected(host_cpus()),
            Workload::Multicore => multicore::emit_expected(),
            Workload::Serve => serve::emit_expected(args.seed),
        }
        return;
    }

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = git_rev();
    println!(
        "# {} seed {} trace {}: available_parallelism {} profile {profile} git_rev {rev}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host_cpus()
    );
    let mut tally = Tally::default();
    let mut trace = Trace::new();
    let (metrics, host_threads) = if args.trace {
        per_layer(&args, &mut tally, &mut trace)
    } else {
        end_to_end(&args, &mut tally)
    };
    for m in &metrics {
        println!("{:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<30} {failed_frac:>18.6} ratio ({} of {} operations)",
        "ops_failed_frac", tally.failed, tally.attempted
    );

    write_record(
        &args,
        &JsonValue::Object(vec![
            ("workload".into(), args.workload.name().into()),
            ("seed".into(), args.seed.into()),
            ("seconds".into(), args.seconds.into()),
            ("trace".into(), args.trace.into()),
            ("available_parallelism".into(), host_cpus().into()),
            ("host_threads".into(), host_threads.into()),
            ("profile".into(), profile.into()),
            ("git_rev".into(), rev.into()),
            ("attempted".into(), tally.attempted.into()),
            ("failed".into(), tally.failed.into()),
            ("ops_failed_frac".into(), failed_frac.into()),
            (
                "problems".into(),
                JsonValue::Array(tally.problems.iter().map(|p| p.as_str().into()).collect()),
            ),
            ("metrics".into(), metrics_json(&metrics)),
            ("spans".into(), trace.to_json_value()),
        ]),
    );
    println!(
        "{}",
        JsonValue::Object(vec![
            ("correct".into(), (tally.failed == 0).into()),
            ("attempted".into(), tally.attempted.into()),
            ("failed".into(), tally.failed.into()),
            ("metrics".into(), metrics_json(&metrics)),
        ])
    );
}
