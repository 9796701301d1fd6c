//! Structured, self-describing experiment reports.
//!
//! Every [`crate::session`] run returns a [`RunReport`] (one
//! engine × workload × sparsity cell); grid runs aggregate them into a
//! [`SweepReport`] and network runs into a [`NetworkReport`]. Reports carry
//! the raw counters of the simulation (cycles, instruction counts, engine
//! busy time) plus enough labels to be interpreted standalone, and
//! serialize to JSON and CSV with no external dependencies
//! ([`crate::json`]).

use std::ffi::OsString;
use std::path::PathBuf;

use vegeta_kernels::GemmShape;
use vegeta_sim::SharedL2Stats;

use crate::json::{JsonError, JsonValue};

/// Geometric mean of a slice of positive values; `None` when empty.
///
/// # Example
///
/// ```
/// use vegeta::report::geomean;
///
/// assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
/// assert_eq!(geomean(&[]), None);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The environment variable naming the directory artifacts (CSV and JSON
/// reports) are written to.
const ARTIFACT_DIR_ENV: &str = "VEGETA_CSV_DIR";

/// Parses an [`ARTIFACT_DIR_ENV`] value: unset and empty both name no
/// directory.
fn parse_artifact_dir(raw: Option<OsString>) -> Option<PathBuf> {
    raw.filter(|dir| !dir.is_empty()).map(PathBuf::from)
}

/// The artifact directory `$VEGETA_CSV_DIR` names, or `None` when the
/// variable is unset or empty. Every artifact writer of the workspace
/// reads the variable through this function; each decides for itself what
/// `None` means (write nothing, or fall back to the current directory).
pub fn requested_artifact_dir() -> Option<PathBuf> {
    parse_artifact_dir(std::env::var_os(ARTIFACT_DIR_ENV))
}

/// Why a report failed to deserialize.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The document was not valid JSON.
    Json(JsonError),
    /// A required field was missing or had the wrong type.
    Field(&'static str),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Field(name) => write!(f, "missing or mistyped field '{name}'"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

/// The result of simulating one workload on one engine at one weight
/// sparsity: labels plus the raw counters of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload label (a Table IV layer name, or an ad-hoc label).
    pub workload: String,
    /// Engine design-point name.
    pub engine: String,
    /// Weight-sparsity label (for example `"2:4"`).
    pub sparsity: String,
    /// Fidelity label of the run: `"full"` for unscaled shapes,
    /// `"quick/4"`-style for proxy shapes (see
    /// [`crate::session::Fidelity`]).
    pub fidelity: String,
    /// Kernel that was executed (self-describing, from
    /// [`vegeta_kernels::KernelSpec::name`]).
    pub kernel: String,
    /// Storage-format label of the executed kernel's `A` operand
    /// (`"dense"`, `"2:4"`, `"rowwise:4"`, `"csr"`; `"-"` for prebuilt
    /// traces whose operands are unknown).
    pub format: String,
    /// Stored `A`-operand value bytes in that format
    /// ([`vegeta_kernels::KernelSpec::a_values_bytes`]; 0 for prebuilt
    /// traces).
    pub a_values_bytes: u64,
    /// `A`-operand metadata bits in that format
    /// ([`vegeta_kernels::KernelSpec::a_metadata_bits`]; 0 for prebuilt
    /// traces).
    pub a_metadata_bits: u64,
    /// The GEMM that was simulated.
    pub shape: GemmShape,
    /// Runtime in core cycles.
    pub cycles: u64,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// Tile compute instructions dispatched to the matrix engine.
    pub tile_compute: u64,
    /// Core cycles during which the matrix engine had work in flight.
    pub engine_busy_cycles: u64,
    /// Dynamic instructions delivered through the streaming pipeline (0
    /// when a prebuilt materialized trace was replayed instead).
    pub insts_streamed: u64,
    /// Peak bytes of trace data resident during the replay: one streaming
    /// chunk for streamed runs, the whole trace for materialized ones.
    pub peak_resident_bytes: u64,
    /// Dense-equivalent MACs of the workload (the engine skips a fraction
    /// given by the sparsity).
    pub macs: u64,
    /// Core clock the run was simulated at, in GHz.
    pub core_ghz: f64,
    /// Cores the GEMM was sharded across (1 for the classic single-core
    /// path; `cycles` is then the multi-core makespan including the
    /// end-of-shard barrier).
    pub cores: usize,
    /// Scheduler that assigned shards to cores: `"-"` for the classic
    /// single-core path, else `"lpt"` (longest processing time first; see
    /// [`vegeta_sim::SchedulerPolicy`]). Reports written by older versions
    /// may also say `"static"`.
    pub scheduler: String,
    /// Per-core cycle counts of a multi-core run, in core order (empty for
    /// single-core runs).
    pub per_core_cycles: Vec<u64>,
    /// Shared-L2 hit/miss/sharing statistics of a multi-core run (all
    /// zeros for single-core runs, which model a flat private L2).
    pub shared_l2: SharedL2Stats,
    /// Parallel efficiency of the run: the mean fraction of the makespan
    /// each core spent busy (`Σ per-core cycles / (cores × makespan)`,
    /// see [`vegeta_sim::MultiCoreResult::scaling_efficiency`]); 1.0 for
    /// single-core runs, 0.0 for zero-cycle runs.
    pub scaling_efficiency: f64,
}

impl RunReport {
    /// Fraction of the runtime the matrix engine had work in flight —
    /// for multi-core runs the *mean per-core* fraction of the makespan
    /// (`engine_busy_cycles` is the across-core sum).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.engine_busy_cycles as f64 / (self.cores.max(1) as f64 * self.cycles as f64)
    }

    /// Cores that retired nothing (zero per-core cycles) — provisioned
    /// silicon the shard plan and scheduler failed to feed. Always 0 for
    /// single-core runs and for healthy scaled-out ones.
    pub fn stranded_cores(&self) -> usize {
        self.per_core_cycles.iter().filter(|&&c| c == 0).count()
    }

    /// Instructions per core cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Runtime in seconds at the simulated core clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.core_ghz * 1e9)
    }

    /// Effective throughput in TFLOP/s (dense-equivalent work over
    /// runtime).
    pub fn effective_tflops(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        2.0 * self.macs as f64 / self.seconds() / 1e12
    }

    /// The report as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("workload".into(), self.workload.as_str().into()),
            ("engine".into(), self.engine.as_str().into()),
            ("sparsity".into(), self.sparsity.as_str().into()),
            ("fidelity".into(), self.fidelity.as_str().into()),
            ("kernel".into(), self.kernel.as_str().into()),
            ("format".into(), self.format.as_str().into()),
            ("a_values_bytes".into(), self.a_values_bytes.into()),
            ("a_metadata_bits".into(), self.a_metadata_bits.into()),
            ("m".into(), self.shape.m.into()),
            ("n".into(), self.shape.n.into()),
            ("k".into(), self.shape.k.into()),
            ("cycles".into(), self.cycles.into()),
            ("instructions".into(), self.instructions.into()),
            ("tile_compute".into(), self.tile_compute.into()),
            ("engine_busy_cycles".into(), self.engine_busy_cycles.into()),
            ("insts_streamed".into(), self.insts_streamed.into()),
            (
                "peak_resident_bytes".into(),
                self.peak_resident_bytes.into(),
            ),
            ("macs".into(), self.macs.into()),
            ("core_ghz".into(), self.core_ghz.into()),
            ("cores".into(), self.cores.into()),
            ("scheduler".into(), self.scheduler.as_str().into()),
            (
                "per_core_cycles".into(),
                JsonValue::Array(
                    self.per_core_cycles
                        .iter()
                        .map(|&c| JsonValue::from(c))
                        .collect(),
                ),
            ),
            (
                "shared_l2".into(),
                JsonValue::Object(vec![
                    ("accesses".into(), self.shared_l2.accesses.into()),
                    ("hits".into(), self.shared_l2.hits.into()),
                    ("misses".into(), self.shared_l2.misses.into()),
                    ("shared_hits".into(), self.shared_l2.shared_hits.into()),
                ]),
            ),
            ("scaling_efficiency".into(), self.scaling_efficiency.into()),
            (
                "stranded_cores".into(),
                (self.stranded_cores() as u64).into(),
            ),
            ("utilization".into(), self.utilization().into()),
            ("effective_tflops".into(), self.effective_tflops().into()),
        ])
    }

    /// Serializes to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parses a report back from [`RunReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] on malformed JSON, [`ReportError::Field`] when
    /// a required field is missing or mistyped. Derived fields
    /// (`utilization`, `effective_tflops`) are recomputed, not read.
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let v = JsonValue::parse(text)?;
        Self::from_json_value(&v)
    }

    /// Parses a report from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`ReportError::Field`] when a required field is missing or mistyped.
    pub fn from_json_value(v: &JsonValue) -> Result<RunReport, ReportError> {
        let s = |name: &'static str| -> Result<String, ReportError> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(ReportError::Field(name))
        };
        let u = |name: &'static str| -> Result<u64, ReportError> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or(ReportError::Field(name))
        };
        Ok(RunReport {
            workload: s("workload")?,
            engine: s("engine")?,
            sparsity: s("sparsity")?,
            fidelity: s("fidelity")?,
            kernel: s("kernel")?,
            format: s("format")?,
            a_values_bytes: u("a_values_bytes")?,
            a_metadata_bits: u("a_metadata_bits")?,
            shape: GemmShape::new(u("m")? as usize, u("n")? as usize, u("k")? as usize),
            cycles: u("cycles")?,
            instructions: u("instructions")?,
            tile_compute: u("tile_compute")?,
            engine_busy_cycles: u("engine_busy_cycles")?,
            insts_streamed: u("insts_streamed")?,
            peak_resident_bytes: u("peak_resident_bytes")?,
            macs: u("macs")?,
            core_ghz: v
                .get("core_ghz")
                .and_then(JsonValue::as_f64)
                .ok_or(ReportError::Field("core_ghz"))?,
            // The multi-core fields default to single-core values when
            // absent, so reports written before the scale-out refactor
            // still parse; when present they must be well-formed.
            cores: match v.get("cores") {
                None => 1,
                Some(c) => c.as_u64().ok_or(ReportError::Field("cores"))? as usize,
            },
            scheduler: match v.get("scheduler") {
                None => "-".to_string(),
                Some(p) => p
                    .as_str()
                    .map(str::to_string)
                    .ok_or(ReportError::Field("scheduler"))?,
            },
            per_core_cycles: match v.get("per_core_cycles") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()
                    .ok_or(ReportError::Field("per_core_cycles"))?
                    .iter()
                    .map(|c| c.as_u64().ok_or(ReportError::Field("per_core_cycles")))
                    .collect::<Result<Vec<u64>, ReportError>>()?,
            },
            shared_l2: match v.get("shared_l2") {
                None => SharedL2Stats::default(),
                Some(l2) => {
                    let lu = |name: &'static str| -> Result<u64, ReportError> {
                        l2.get(name)
                            .and_then(JsonValue::as_u64)
                            .ok_or(ReportError::Field("shared_l2"))
                    };
                    SharedL2Stats {
                        accesses: lu("accesses")?,
                        hits: lu("hits")?,
                        misses: lu("misses")?,
                        shared_hits: lu("shared_hits")?,
                    }
                }
            },
            scaling_efficiency: match v.get("scaling_efficiency") {
                None => 1.0,
                Some(s) => s.as_f64().ok_or(ReportError::Field("scaling_efficiency"))?,
            },
        })
    }

    /// The CSV header matching [`RunReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "workload,sparsity,fidelity,engine,kernel,format,a_values_bytes,a_metadata_bits,\
         m,n,k,cores,scheduler,cycles,per_core_cycles,scaling_efficiency,stranded_cores,\
         shared_l2_shared_hits,instructions,insts_streamed,peak_resident_bytes,\
         utilization,effective_tflops"
    }

    /// One CSV row (fields quoted where needed — engine names contain
    /// commas-free parentheses only, but quote defensively).
    /// `per_core_cycles` is `;`-joined (empty for single-core runs).
    pub fn csv_row(&self) -> String {
        let per_core = self
            .per_core_cycles
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(";");
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{},{:.4},{:.4}",
            csv_field(&self.workload),
            csv_field(&self.sparsity),
            csv_field(&self.fidelity),
            csv_field(&self.engine),
            csv_field(&self.kernel),
            csv_field(&self.format),
            self.a_values_bytes,
            self.a_metadata_bits,
            self.shape.m,
            self.shape.n,
            self.shape.k,
            self.cores,
            csv_field(&self.scheduler),
            self.cycles,
            per_core,
            self.scaling_efficiency,
            self.stranded_cores(),
            self.shared_l2.shared_hits,
            self.instructions,
            self.insts_streamed,
            self.peak_resident_bytes,
            self.utilization(),
            self.effective_tflops()
        )
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A layer suite run back to back on one engine (network inference order).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Engine design-point name.
    pub engine: String,
    /// Weight-sparsity label.
    pub sparsity: String,
    /// Per-layer reports in execution order.
    pub layers: Vec<RunReport>,
}

impl NetworkReport {
    /// Total core cycles across the suite.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|r| r.cycles).sum()
    }

    /// Total dense-equivalent MACs of the suite.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|r| r.macs).sum()
    }

    /// Effective throughput in TFLOP/s, at the core clock the layers were
    /// actually simulated at (every layer of a suite shares its session's
    /// clock).
    pub fn effective_tflops(&self) -> f64 {
        let cycles = self.total_cycles();
        let Some(core_ghz) = self.layers.first().map(|r| r.core_ghz) else {
            return 0.0;
        };
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / (core_ghz * 1e9);
        2.0 * self.total_macs() as f64 / seconds / 1e12
    }

    /// Serializes the suite (totals plus per-layer cells) to JSON.
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![
            ("engine".into(), self.engine.as_str().into()),
            ("sparsity".into(), self.sparsity.as_str().into()),
            ("total_cycles".into(), self.total_cycles().into()),
            ("total_macs".into(), self.total_macs().into()),
            (
                "layers".into(),
                JsonValue::Array(self.layers.iter().map(RunReport::to_json_value).collect()),
            ),
        ])
        .to_string()
    }
}

/// The result of a [`crate::session::Sweep`]: every grid cell plus
/// execution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One report per engine × workload × sparsity cell, in grid order
    /// (workload-major, then sparsity, then engine).
    pub cells: Vec<RunReport>,
    /// Trace-cache entries the sweep created (cache misses): one per
    /// `(shape, kernel)` the cache had not seen. Traces stream, so no
    /// trace is built.
    pub traces_built: u64,
    /// Trace-cache lookups during the sweep that found an existing entry.
    pub trace_cache_hits: u64,
    /// Cells whose L1 model replayed fresh, recording their key's
    /// [`vegeta_sim::L1Memo`]; every other cell replayed that memo, an
    /// unsharded cell's one lane or a shard set's lanes alike. On one
    /// thread, the number of distinct `(shape, kernel, cores)` keys.
    pub l1_fresh_replays: u64,
    /// Snapshot of the shared [`vegeta_kernels::TraceCache`]'s counters at
    /// sweep completion (hits/misses are lifetime totals for the shared
    /// cache; `traces_built`/`trace_cache_hits` above are this sweep's
    /// deltas).
    pub cache: vegeta_kernels::TraceCacheStats,
    /// Worker threads the sweep ran on.
    pub threads: usize,
}

impl SweepReport {
    /// The cell for a given workload/engine/sparsity combination.
    pub fn get(&self, workload: &str, engine: &str, sparsity: &str) -> Option<&RunReport> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.engine == engine && c.sparsity == sparsity)
    }

    /// Unique engine names, in first-appearance (grid) order.
    pub fn engines(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.engine.as_str()) {
                names.push(&c.engine);
            }
        }
        names
    }

    /// Unique workload names, in first-appearance (grid) order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.workload.as_str()) {
                names.push(&c.workload);
            }
        }
        names
    }

    /// Unique sparsity labels, in first-appearance (grid) order.
    pub fn sparsities(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.sparsity.as_str()) {
                names.push(&c.sparsity);
            }
        }
        names
    }

    /// The largest cycle count of any cell (the paper's Fig. 13
    /// normalization denominator); `None` for an empty sweep.
    pub fn max_cycles(&self) -> Option<u64> {
        self.cells.iter().map(|c| c.cycles).max()
    }

    /// Unique core counts, in first-appearance (grid) order (`[1]` for
    /// sweeps without a cores axis).
    pub fn cores_values(&self) -> Vec<usize> {
        let mut values: Vec<usize> = Vec::new();
        for c in &self.cells {
            if !values.contains(&c.cores) {
                values.push(c.cores);
            }
        }
        values
    }

    /// The cell for a workload/engine/sparsity combination at a specific
    /// core count.
    pub fn get_cores(
        &self,
        workload: &str,
        engine: &str,
        sparsity: &str,
        cores: usize,
    ) -> Option<&RunReport> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.engine == engine
                && c.sparsity == sparsity
                && c.cores == cores
        })
    }

    /// Geometric-mean speedup of `engine` at `cores` cores over its own
    /// 1-core cells, across every workload at the given sparsity — the
    /// strong-scaling curve of a cores sweep. `None` if any cell is
    /// missing.
    pub fn geomean_core_scaling(&self, engine: &str, sparsity: &str, cores: usize) -> Option<f64> {
        let ratios: Option<Vec<f64>> = self
            .workloads()
            .iter()
            .map(|w| {
                let one = self.get_cores(w, engine, sparsity, 1)?;
                let many = self.get_cores(w, engine, sparsity, cores)?;
                if many.cycles == 0 {
                    return None;
                }
                Some(one.cycles as f64 / many.cycles as f64)
            })
            .collect();
        geomean(&ratios?)
    }

    /// Geometric-mean speedup of `engine` over `baseline` across every
    /// workload at the given sparsity; `None` if any cell is missing or the
    /// grid is empty.
    pub fn geomean_speedup(&self, baseline: &str, engine: &str, sparsity: &str) -> Option<f64> {
        let ratios: Option<Vec<f64>> = self
            .workloads()
            .iter()
            .map(|w| {
                let base = self.get(w, baseline, sparsity)?;
                let ours = self.get(w, engine, sparsity)?;
                Some(base.cycles as f64 / ours.cycles as f64)
            })
            .collect();
        geomean(&ratios?)
    }

    /// The whole grid as CSV (header row included).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(RunReport::csv_header());
        out.push('\n');
        for cell in &self.cells {
            out.push_str(&cell.csv_row());
            out.push('\n');
        }
        out
    }

    /// The whole grid as a JSON object (metadata plus a `cells` array).
    ///
    /// The cells are written into the array one at a time, so only one
    /// cell's JSON tree is ever alive: the whole grid's tree is several
    /// times the size of its text, and was the largest heap spike of a
    /// Fig. 13 sweep.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = JsonValue::Object(vec![
            ("traces_built".into(), self.traces_built.into()),
            ("trace_cache_hits".into(), self.trace_cache_hits.into()),
            ("l1_fresh_replays".into(), self.l1_fresh_replays.into()),
            ("cache_entries".into(), self.cache.entries.into()),
            ("threads".into(), self.threads.into()),
            ("cells".into(), JsonValue::Array(Vec::new())),
        ])
        .to_string();
        // Reopen the empty `cells` array: drop its `]` and the object's `}`.
        out.truncate(out.len() - 2);
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", cell.to_json_value()).expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }

    /// Writes the CSV into `$VEGETA_CSV_DIR/<name>.csv` when that
    /// environment variable is set (creating the directory); returns the
    /// path written, or `None` when the variable is unset/empty or the
    /// write fails (a diagnostic goes to stderr — artifact dumps must never
    /// abort an experiment).
    pub fn save_csv(&self, name: &str) -> Option<PathBuf> {
        let path = requested_artifact_dir()?.join(format!("{name}.csv"));
        match std::fs::create_dir_all(path.parent().expect("joined path has a parent"))
            .and_then(|()| std::fs::write(&path, self.to_csv()))
        {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dir_parser_treats_empty_as_unset() {
        assert_eq!(parse_artifact_dir(None), None);
        assert_eq!(parse_artifact_dir(Some("".into())), None);
        assert_eq!(
            parse_artifact_dir(Some("out/csv".into())),
            Some(PathBuf::from("out/csv"))
        );
    }

    fn sample(workload: &str, engine: &str, sparsity: &str, cycles: u64) -> RunReport {
        RunReport {
            workload: workload.into(),
            engine: engine.into(),
            sparsity: sparsity.into(),
            fidelity: "full".into(),
            kernel: "tiled-dense-u3".into(),
            format: "dense".into(),
            a_values_bytes: 64 * 256 * 2,
            a_metadata_bits: 0,
            shape: GemmShape::new(64, 64, 256),
            cycles,
            instructions: 4 * cycles,
            tile_compute: 128,
            engine_busy_cycles: cycles / 2,
            insts_streamed: 4 * cycles,
            peak_resident_bytes: 4096,
            macs: 1_048_576,
            core_ghz: 2.0,
            cores: 1,
            scheduler: "-".into(),
            per_core_cycles: Vec::new(),
            shared_l2: SharedL2Stats::default(),
            scaling_efficiency: 1.0,
        }
    }

    #[test]
    fn geomean_handles_empty_and_values() {
        assert_eq!(geomean(&[]), None);
        let g = geomean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn run_report_json_round_trips() {
        let r = sample("BERT-L2", "RASA-DM (VEGETA-D-1-2)", "2:4", 123_456);
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn multi_core_fields_round_trip_through_json_and_csv() {
        let mut r = sample("GPT-L1", "VEGETA-S-16-2", "2:4", 50_000);
        r.cores = 4;
        r.scheduler = "lpt".into();
        r.per_core_cycles = vec![49_000, 48_500, 49_900, 47_000];
        r.shared_l2 = SharedL2Stats {
            accesses: 1000,
            hits: 990,
            misses: 10,
            shared_hits: 600,
        };
        r.scaling_efficiency = 0.97;
        // engine_busy_cycles is the across-core sum: utilization must stay
        // a per-core mean fraction, never exceed 1 because of the summing.
        r.engine_busy_cycles = 4 * r.cycles;
        assert!((r.utilization() - 1.0).abs() < 1e-12);
        r.engine_busy_cycles = r.cycles;
        assert!((r.utilization() - 0.25).abs() < 1e-12);
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(r.stranded_cores(), 0);
        let row = r.csv_row();
        assert!(row.contains(",4,lpt,50000,49000;48500;49900;47000,0.9700,0,600,"));
        assert_eq!(
            row.split(',').count(),
            RunReport::csv_header().split(',').count(),
            "row and header column counts agree"
        );
    }

    #[test]
    fn stranded_cores_surface_in_json_and_csv() {
        let mut r = sample("L", "E", "2:4", 1000);
        r.cores = 4;
        r.scheduler = "lpt".into();
        r.per_core_cycles = vec![0, 900, 0, 950];
        assert_eq!(r.stranded_cores(), 2);
        assert!(r.to_json().contains("\"stranded_cores\":2"));
        assert!(r.csv_row().contains(",4,lpt,1000,0;900;0;950,"));
        // Derived, like utilization: stripping it from the JSON is fine.
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.stranded_cores(), 2);
    }

    #[test]
    fn pre_scale_out_json_parses_with_single_core_defaults() {
        // A report serialized before the multi-core fields existed: strip
        // them and the parse must fall back to single-core values.
        let r = sample("L", "E", "2:4", 1000);
        let v = JsonValue::parse(&r.to_json()).unwrap();
        let JsonValue::Object(fields) = v else {
            unreachable!()
        };
        let stripped = JsonValue::Object(
            fields
                .into_iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "cores"
                            | "scheduler"
                            | "per_core_cycles"
                            | "shared_l2"
                            | "scaling_efficiency"
                    )
                })
                .collect(),
        );
        let back = RunReport::from_json_value(&stripped).unwrap();
        assert_eq!(back, r, "defaults reconstruct the single-core report");
        // Present-but-mistyped fields are still refused.
        let mut broken = stripped;
        if let JsonValue::Object(fields) = &mut broken {
            fields.push(("cores".into(), JsonValue::String("four".into())));
        }
        assert!(matches!(
            RunReport::from_json_value(&broken),
            Err(ReportError::Field("cores"))
        ));
    }

    #[test]
    fn sweep_report_core_scaling_helpers() {
        let mut one = sample("L1", "E", "2:4", 4000);
        let mut four = sample("L1", "E", "2:4", 1000);
        one.cores = 1;
        four.cores = 4;
        four.per_core_cycles = vec![990, 980, 1000, 960];
        let report = SweepReport {
            cells: vec![one, four],
            traces_built: 1,
            trace_cache_hits: 1,
            l1_fresh_replays: 0,
            cache: vegeta_kernels::TraceCacheStats::default(),
            threads: 1,
        };
        assert_eq!(report.cores_values(), vec![1, 4]);
        assert_eq!(report.get_cores("L1", "E", "2:4", 4).unwrap().cycles, 1000);
        let scaling = report.geomean_core_scaling("E", "2:4", 4).unwrap();
        assert!((scaling - 4.0).abs() < 1e-12);
        assert_eq!(report.geomean_core_scaling("E", "2:4", 8), None);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(matches!(
            RunReport::from_json("{\"workload\": \"x\"}"),
            Err(ReportError::Field(_))
        ));
        assert!(matches!(
            RunReport::from_json("not json"),
            Err(ReportError::Json(_))
        ));
    }

    #[test]
    fn derived_metrics() {
        let r = sample("L", "E", "4:4", 1000);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!((r.ipc() - 4.0).abs() < 1e-12);
        assert!(r.effective_tflops() > 0.0);
        let zero = RunReport { cycles: 0, ..r };
        assert_eq!(zero.utilization(), 0.0);
        assert_eq!(zero.effective_tflops(), 0.0);
    }

    #[test]
    fn sweep_report_lookup_and_geomean() {
        let report = SweepReport {
            cells: vec![
                sample("L1", "base", "2:4", 2000),
                sample("L1", "fast", "2:4", 1000),
                sample("L2", "base", "2:4", 4000),
                sample("L2", "fast", "2:4", 1000),
            ],
            traces_built: 2,
            trace_cache_hits: 2,
            l1_fresh_replays: 0,
            cache: vegeta_kernels::TraceCacheStats::default(),
            threads: 1,
        };
        assert_eq!(report.workloads(), vec!["L1", "L2"]);
        assert_eq!(report.engines(), vec!["base", "fast"]);
        assert_eq!(report.sparsities(), vec!["2:4"]);
        assert_eq!(report.max_cycles(), Some(4000));
        let g = report.geomean_speedup("base", "fast", "2:4").unwrap();
        assert!((g - (2.0f64 * 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(report.geomean_speedup("base", "missing", "2:4"), None);
        let csv = report.to_csv();
        assert!(csv.starts_with("workload,"));
        assert_eq!(csv.lines().count(), 5);
        // The JSON written cell by cell is the whole tree's text, byte for
        // byte, with no cells and with several.
        for cells in [0, report.cells.len()] {
            let part = SweepReport {
                cells: report.cells[..cells].to_vec(),
                cache: report.cache,
                ..report
            };
            let tree = JsonValue::Object(vec![
                ("traces_built".into(), part.traces_built.into()),
                ("trace_cache_hits".into(), part.trace_cache_hits.into()),
                ("l1_fresh_replays".into(), part.l1_fresh_replays.into()),
                ("cache_entries".into(), part.cache.entries.into()),
                ("threads".into(), part.threads.into()),
                (
                    "cells".into(),
                    JsonValue::Array(part.cells.iter().map(RunReport::to_json_value).collect()),
                ),
            ]);
            assert_eq!(part.to_json(), tree.to_string(), "{cells} cells");
        }
    }

    #[test]
    fn csv_quotes_awkward_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn network_report_totals() {
        let report = NetworkReport {
            engine: "E".into(),
            sparsity: "4:4".into(),
            layers: vec![
                sample("L1", "E", "4:4", 1000),
                sample("L2", "E", "4:4", 3000),
            ],
        };
        assert_eq!(report.total_cycles(), 4000);
        assert_eq!(report.total_macs(), 2 * 1_048_576);
        assert!(report.effective_tflops() > 0.0);
        assert!(report.to_json().contains("\"total_cycles\":4000"));
    }
}
