//! Trace-driven out-of-order core model.
//!
//! Reproduces the MacSim configuration of §VI-B: a 4-wide out-of-order core
//! (fetch/issue/retire width four, 16 front-end stages, 97 ROB entries, 96
//! load-buffer entries) running at 2 GHz, with the matrix engine in a
//! 0.5 GHz clock domain. The model is analytical-event-driven: every dynamic
//! instruction gets dispatch, execute and retire timestamps subject to
//!
//! * front-end and retire bandwidth (4 per cycle, in order);
//! * ROB and load-buffer occupancy (dispatch stalls when full);
//! * register dataflow (reads wait for producers, through renaming — only
//!   true RAW dependences stall);
//! * functional-unit ports (scalar/vector/load/store contention);
//! * the matrix engine's WL/FF/FS/DR pipelining and output-forwarding rules,
//!   via [`vegeta_engine::EngineTimer`], scaled by the clock-domain ratio.
//!
//! The pipeline state lives in [`Core`] — one composable core unit,
//! stepped one instruction at a time. [`crate::MultiCoreSim`] is the
//! driver every production run goes through, one lane per core;
//! [`CoreSim`] is the unmemoized single-core reference it is checked
//! against.

use vegeta_engine::{EngineConfig, EngineTimer};
use vegeta_isa::stream::InstStream;
use vegeta_isa::trace::{ArchReg, Trace, TraceOp};

use crate::cache::{CacheStats, SharedL2};
use crate::memo::L1Path;

/// Core configuration (§VI-B values by default).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-buffer entries.
    pub load_buffer_entries: usize,
    /// Front-end pipeline depth in cycles.
    pub frontend_stages: u64,
    /// Core clock in GHz.
    pub core_ghz: f64,
    /// Matrix-engine clock in GHz (0.5 GHz in the evaluation, the frequency
    /// every RTL design met).
    pub engine_ghz: f64,
    /// L1 data cache capacity in 64 B lines.
    pub l1_lines: usize,
    /// L1 hit latency (core cycles).
    pub l1_latency: u64,
    /// L2 hit latency (core cycles); the evaluation prefetches all data to L2.
    pub l2_latency: u64,
    /// Scalar ALU ports.
    pub scalar_ports: usize,
    /// Vector execution ports.
    pub vector_ports: usize,
    /// Load ports (each moves one 64 B line per cycle).
    pub load_ports: usize,
    /// Vector FMA latency (pipelined).
    pub vec_fma_latency: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 4,
            retire_width: 4,
            rob_entries: 97,
            load_buffer_entries: 96,
            frontend_stages: 16,
            core_ghz: 2.0,
            engine_ghz: 0.5,
            l1_lines: 768, // 48 KB
            l1_latency: 5,
            l2_latency: 14,
            scalar_ports: 4,
            vector_ports: 2,
            load_ports: 2,
            vec_fma_latency: 4,
        }
    }
}

impl SimConfig {
    /// Core cycles per engine cycle (4 for 2 GHz / 0.5 GHz).
    pub fn clock_ratio(&self) -> u64 {
        (self.core_ghz / self.engine_ghz).round() as u64
    }
}

/// Result of simulating one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total runtime in core cycles.
    pub core_cycles: u64,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// Tile compute instructions dispatched to the matrix engine.
    pub tile_compute: u64,
    /// Core cycles during which the matrix engine had work in flight.
    pub engine_busy_cycles: u64,
    /// Peak bytes of trace data resident in the instruction source during
    /// the run: the whole trace for a materialized replay, one streaming
    /// chunk (plus generator state) for a streamed one.
    pub peak_resident_bytes: u64,
    /// Cache behaviour.
    pub cache: CacheStats,
}

impl SimResult {
    /// Runtime in seconds at the configured core clock.
    pub fn seconds(&self, cfg: &SimConfig) -> f64 {
        self.core_cycles as f64 / (cfg.core_ghz * 1e9)
    }

    /// Instructions per core cycle; 0.0 for a zero-cycle (empty) run.
    pub fn ipc(&self) -> f64 {
        if self.core_cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.core_cycles as f64
    }
}

/// A fixed-capacity ring of the most recent retire timestamps: the
/// occupancy window the ROB / load-buffer checks need, in O(entries)
/// memory however long the trace is (the piece that used to grow one
/// element per instruction).
#[derive(Debug, Clone)]
struct RetireRing {
    buf: Vec<u64>,
    head: usize,
    len: usize,
}

impl RetireRing {
    fn new(capacity: usize) -> Self {
        RetireRing {
            buf: vec![0; capacity.max(1)],
            head: 0,
            len: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// The oldest retained timestamp (only meaningful when full: the
    /// instruction that must retire before the next one can dispatch).
    fn oldest(&self) -> u64 {
        self.buf[self.head]
    }

    fn push(&mut self, v: u64) {
        // Wraps with a compare, not a `%` by the ring's length: pushes run
        // once or twice per instruction.
        if self.len < self.buf.len() {
            let mut tail = self.head + self.len;
            if tail >= self.buf.len() {
                tail -= self.buf.len();
            }
            self.buf[tail] = v;
            self.len += 1;
        } else {
            self.buf[self.head] = v;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
        }
    }
}

/// Flat renaming table: the ready timestamp of every architectural
/// register, indexed directly by class and number (registers start ready at
/// cycle 0, matching the old map's "absent means 0" rule). Replaces a
/// `HashMap<ArchReg, u64>` that was hashed several times per instruction on
/// the hot path.
#[derive(Debug, Clone)]
struct ReadyTable {
    tile: [u64; 256],
    meta: [u64; 256],
    vec: [u64; 256],
    gpr: [u64; 256],
}

impl ReadyTable {
    fn new() -> Self {
        ReadyTable {
            tile: [0; 256],
            meta: [0; 256],
            vec: [0; 256],
            gpr: [0; 256],
        }
    }

    fn get(&self, r: ArchReg) -> u64 {
        match r {
            ArchReg::Tile(i) => self.tile[i as usize],
            ArchReg::Meta(i) => self.meta[i as usize],
            ArchReg::Vec(i) => self.vec[i as usize],
            ArchReg::Gpr(i) => self.gpr[i as usize],
        }
    }

    fn set(&mut self, r: ArchReg, t: u64) {
        match r {
            ArchReg::Tile(i) => self.tile[i as usize] = t,
            ArchReg::Meta(i) => self.meta[i as usize] = t,
            ArchReg::Vec(i) => self.vec[i as usize] = t,
            ArchReg::Gpr(i) => self.gpr[i as usize] = t,
        }
    }
}

/// Upper bound on tile registers one instruction writes (`TILE_SPMM_R`
/// writes a treg pair; everything else writes at most one tile register).
const MAX_ACC_REGS: usize = 8;

/// Round-robin earliest-free port pool.
#[derive(Debug, Clone)]
struct PortPool {
    next_free: Vec<u64>,
}

impl PortPool {
    fn new(ports: usize) -> Self {
        PortPool {
            next_free: vec![0; ports.max(1)],
        }
    }

    /// Reserves the earliest port at or after `ready`, holding it for
    /// `occupancy` cycles; returns the start cycle.
    fn reserve(&mut self, ready: u64, occupancy: u64) -> u64 {
        let (idx, &free) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("pool has at least one port");
        let start = ready.max(free);
        self.next_free[idx] = start + occupancy.max(1);
        start
    }
}

/// In-order bandwidth limiter (dispatch or retire): at most `width` events
/// per cycle, in program order.
#[derive(Debug, Clone)]
struct Bandwidth {
    width: usize,
    cycle: u64,
    used: usize,
}

impl Bandwidth {
    fn new(width: usize) -> Self {
        Bandwidth {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// The earliest cycle at or after `at` with a free slot; consumes it.
    fn take(&mut self, at: u64) -> u64 {
        if at > self.cycle {
            self.cycle = at;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// One out-of-order core's complete pipeline state: the unit a
/// [`crate::MultiCoreSim`] instantiates per core (and the [`CoreSim`]
/// reference wraps once).
///
/// The state is exactly what the monolithic simulator used to keep in
/// locals — renaming table, engine-ownership map, bandwidth limiters, port
/// pools, ROB/load-buffer occupancy rings, private L1 and engine timer —
/// so stepping a single core through a stream is cycle-identical to the
/// pre-refactor loop.
///
/// The private L1 is the core's memory outcome, kept apart from its
/// timing: a core built by [`Core::new`] steps a fresh L1 model, while
/// [`crate::MultiCoreSim::run_sharded_memoized`] may record that outcome
/// or replay it (see [`crate::L1Memo`]).
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    cfg: SimConfig,
    ratio: u64,
    engine: EngineTimer,
    pub(crate) l1: L1Path,
    reg_ready: ReadyTable,
    /// Which accumulator tregs were last written by the engine (so the
    /// engine's internal forwarding rule, not the architectural
    /// completion, governs same-acc chains).
    engine_owns: [bool; 256],
    dispatch_bw: Bandwidth,
    retire_bw: Bandwidth,
    scalar_ports: PortPool,
    vector_ports: PortPool,
    load_ports: PortPool,
    store_ports: PortPool,
    rob_window: RetireRing,
    mem_window: RetireRing,
    instructions: u64,
    last_retire: u64,
    tile_compute: u64,
    engine_first_start: Option<u64>,
    engine_last_completion: u64,
}

impl Core {
    /// A fresh core with the given id (its shared-L2 identity), simulator
    /// configuration and matrix-engine design point.
    pub fn new(id: usize, cfg: SimConfig, engine: EngineConfig) -> Self {
        Self::with_timer(id, cfg, EngineTimer::new(engine))
    }

    /// [`Core::new`] adopting an existing engine timer (so a driver that
    /// owns the timer across runs can lend it to the core).
    pub fn with_timer(id: usize, cfg: SimConfig, engine: EngineTimer) -> Self {
        let ratio = cfg.clock_ratio();
        let l1 = L1Path::model(&cfg);
        Core {
            id,
            ratio,
            engine,
            l1,
            reg_ready: ReadyTable::new(),
            engine_owns: [false; 256],
            dispatch_bw: Bandwidth::new(cfg.fetch_width),
            retire_bw: Bandwidth::new(cfg.retire_width),
            scalar_ports: PortPool::new(cfg.scalar_ports),
            vector_ports: PortPool::new(cfg.vector_ports),
            load_ports: PortPool::new(cfg.load_ports),
            store_ports: PortPool::new(1),
            rob_window: RetireRing::new(cfg.rob_entries),
            mem_window: RetireRing::new(cfg.load_buffer_entries),
            instructions: 0,
            last_retire: 0,
            tile_compute: 0,
            engine_first_start: None,
            engine_last_completion: 0,
            cfg,
        }
    }

    /// This core's identity within a multi-core simulation.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Advances the core by one instruction. `shared_l2` is the common next
    /// memory level of a multi-core run; `None` models the single-core
    /// setup's flat always-hitting L2.
    pub fn step(&mut self, op: TraceOp, mut shared_l2: Option<&mut SharedL2>) {
        // --- Dispatch: front-end bandwidth, ROB and LSQ occupancy. ---
        let mut earliest = self.cfg.frontend_stages;
        if self.rob_window.is_full() {
            earliest = earliest.max(self.rob_window.oldest());
        }
        let is_mem = op.mem_access().is_some();
        if is_mem && self.mem_window.is_full() {
            earliest = earliest.max(self.mem_window.oldest());
        }
        let dispatch = self.dispatch_bw.take(earliest);

        // --- Source readiness through renaming. ---
        let is_engine_op = op.is_tile_compute();
        let mut acc_regs = [0u8; MAX_ACC_REGS];
        let mut acc_len = 0usize;
        if is_engine_op {
            if let TraceOp::Tile(inst) = op {
                inst.visit_writes(|r| {
                    if let vegeta_isa::RegRef::Tile(t) = r {
                        acc_regs[acc_len] = t.index() as u8;
                        acc_len += 1;
                    }
                });
            }
        }
        let acc_regs = &acc_regs[..acc_len];
        let mut ready = dispatch + 1;
        op.visit_reads(|r| {
            // For engine ops, same-acc dependences on an engine-produced
            // value are resolved inside the engine (output forwarding);
            // skip them here and let EngineTimer apply its rule.
            if is_engine_op {
                if let ArchReg::Tile(t) = r {
                    if acc_regs.contains(&t) && self.engine_owns[t as usize] {
                        return;
                    }
                }
            }
            ready = ready.max(self.reg_ready.get(r));
        });

        // --- Execute. ---
        let complete = match op {
            TraceOp::Tile(inst) if inst.is_compute() => {
                self.tile_compute += 1;
                let acc = acc_regs.first().copied().unwrap_or(0);
                let ready_engine = ready.div_ceil(self.ratio);
                let timing = self.engine.issue(acc, ready_engine);
                let start_core = timing.start * self.ratio;
                let completion_core = timing.completion * self.ratio;
                self.engine_first_start = Some(
                    self.engine_first_start
                        .unwrap_or(start_core)
                        .min(start_core),
                );
                self.engine_last_completion = self.engine_last_completion.max(completion_core);
                completion_core
            }
            // Register-only tile ops (TILE_ZERO) complete in one cycle.
            TraceOp::Tile(_) if op.mem_access().is_none() => ready + 1,
            TraceOp::Tile(_) | TraceOp::VecLoad { .. } | TraceOp::VecStore { .. } => {
                let (addr, bytes, is_store) = op
                    .mem_access()
                    .expect("remaining tile ops and vec mem ops access memory");
                let next = shared_l2.as_mut().map(|l2| (self.id, &mut **l2));
                let (latency, lines) = self.l1.access(addr, bytes, is_store, next);
                if is_store {
                    let start = self.store_ports.reserve(ready, lines);
                    start + lines // drains into the store buffer
                } else {
                    // One line per port-cycle, pipelined behind the
                    // first-line latency.
                    let start = self.load_ports.reserve(ready, lines);
                    start + latency + lines - 1
                }
            }
            TraceOp::VecFma { .. } => {
                let start = self.vector_ports.reserve(ready, 1);
                start + self.cfg.vec_fma_latency
            }
            TraceOp::VecOp { .. } => {
                let start = self.vector_ports.reserve(ready, 1);
                start + 1
            }
            TraceOp::Scalar { .. } | TraceOp::Branch { .. } => {
                let start = self.scalar_ports.reserve(ready, 1);
                start + 1
            }
        };

        // --- Writeback: update renaming table. ---
        op.visit_writes(|w| {
            self.reg_ready.set(w, complete);
            if let ArchReg::Tile(t) = w {
                self.engine_owns[t as usize] = is_engine_op;
            }
        });

        // --- Retire: in order, bounded width. ---
        let retire = self.retire_bw.take(complete.max(self.last_retire));
        self.last_retire = retire;
        self.rob_window.push(retire);
        if is_mem {
            self.mem_window.push(retire);
        }

        self.instructions += 1;
    }

    /// The core's local time so far: the retire timestamp of the last
    /// instruction (0 before any instruction retires).
    pub fn cycles(&self) -> u64 {
        self.last_retire
    }

    /// Dynamic instructions consumed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Snapshot of the run so far. `peak_resident_bytes` is supplied by the
    /// caller, who owns the instruction stream and its byte accounting.
    pub fn result(&self, peak_resident_bytes: u64) -> SimResult {
        SimResult {
            core_cycles: self.last_retire,
            instructions: self.instructions,
            tile_compute: self.tile_compute,
            engine_busy_cycles: self
                .engine_last_completion
                .saturating_sub(self.engine_first_start.unwrap_or(0)),
            peak_resident_bytes,
            cache: self.l1.stats(),
        }
    }
}

/// The trace-driven single-core simulator: a thin driver over one [`Core`].
///
/// Production runs go through [`crate::MultiCoreSim`]: an unsharded run is
/// its one-lane case, cycle for cycle and byte for byte the same as
/// [`CoreSim::run_stream`]. `CoreSim` is kept as the unmemoized reference
/// that tests, benches and the repository benchmark call; deleting it
/// waits until the benchmark stops calling [`CoreSim::run`].
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: SimConfig,
    engine: EngineTimer,
}

impl CoreSim {
    /// Creates a core with the given matrix engine design point.
    pub fn new(cfg: SimConfig, engine: EngineConfig) -> Self {
        CoreSim {
            cfg,
            engine: EngineTimer::new(engine),
        }
    }

    /// Creates a core with the default §VI-B configuration.
    pub fn with_engine(engine: EngineConfig) -> Self {
        Self::new(SimConfig::default(), engine)
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Simulates a materialized trace to completion.
    ///
    /// Replays through the streaming path ([`CoreSim::run_stream`]) — the
    /// two are cycle-identical by construction; only the reported peak
    /// trace residency differs (a materialized trace is wholly resident).
    pub fn run(&mut self, trace: &Trace) -> SimResult {
        self.run_stream(trace.stream())
    }

    /// Simulates a streamed trace to completion, consuming it chunk-wise
    /// without ever holding the full instruction sequence: every occupancy
    /// window (ROB, load buffer) is a fixed ring, so memory is bounded by
    /// the stream's chunk size however many instructions flow through.
    pub fn run_stream<S: InstStream>(&mut self, mut stream: S) -> SimResult {
        let mut core = Core::with_timer(0, self.cfg.clone(), self.engine.clone());
        while let Some(op) = stream.next_op() {
            core.step(op, None);
        }
        let result = core.result(stream.peak_resident_bytes() as u64);
        // The timer belongs to the simulator across runs (its hazard state
        // deliberately persists for back-to-back replays on one CoreSim).
        self.engine = core.engine;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegeta_isa::{Inst, TReg, UReg};

    fn spmm_chain(n: usize, same_acc: bool) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let acc = if same_acc {
                TReg::T2
            } else {
                TReg::new((i % 2) as u8 + 2).unwrap()
            };
            t.push_inst(Inst::TileSpmmU {
                acc,
                a: TReg::T6,
                b: UReg::U0,
            });
        }
        t
    }

    #[test]
    fn empty_trace_takes_no_time() {
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&Trace::new());
        assert_eq!(res.core_cycles, 0);
        assert_eq!(res.instructions, 0);
    }

    #[test]
    fn zero_cycle_result_guards_derived_metrics() {
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&Trace::new());
        assert_eq!(res.ipc(), 0.0, "no division by zero cycles");
    }

    #[test]
    fn scalar_ipc_approaches_width() {
        let mut t = Trace::new();
        for i in 0..4000u32 {
            // Independent scalar ops across 8 registers.
            t.push(TraceOp::Scalar {
                dst: (i % 8) as u8,
                src: ((i + 4) % 8) as u8,
            });
        }
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&t);
        assert!(
            res.ipc() > 3.0,
            "4-wide core should sustain ~4 IPC, got {}",
            res.ipc()
        );
    }

    #[test]
    fn engine_clock_domain_scales_latency() {
        let res =
            CoreSim::with_engine(EngineConfig::vegeta_s(16).unwrap()).run(&spmm_chain(1, true));
        let engine_latency = EngineConfig::vegeta_s(16).unwrap().instruction_latency() as u64;
        // One instruction: ~latency x clock ratio (4), plus front end.
        assert!(res.core_cycles >= engine_latency * 4);
        assert!(res.core_cycles < engine_latency * 4 + 64);
    }

    #[test]
    fn dependent_chain_slower_than_independent_without_of() {
        let cfg = EngineConfig::vegeta_s(16).unwrap();
        let dep = CoreSim::with_engine(cfg.clone()).run(&spmm_chain(32, true));
        let ind = CoreSim::with_engine(cfg).run(&spmm_chain(32, false));
        assert!(
            dep.core_cycles > ind.core_cycles,
            "same-acc chain {} vs rotated {}",
            dep.core_cycles,
            ind.core_cycles
        );
    }

    #[test]
    fn output_forwarding_speeds_up_dependent_chains() {
        let base = EngineConfig::vegeta_s(16).unwrap();
        let no_of = CoreSim::with_engine(base.clone()).run(&spmm_chain(64, true));
        let with_of =
            CoreSim::with_engine(base.with_output_forwarding(true)).run(&spmm_chain(64, true));
        assert!(
            (with_of.core_cycles as f64) < no_of.core_cycles as f64 * 0.75,
            "OF {} vs no-OF {}",
            with_of.core_cycles,
            no_of.core_cycles
        );
    }

    #[test]
    fn rasa_dm_beats_rasa_sm_on_independent_tiles() {
        // §VI-C: RASA-SM's stage mismatch gives it the highest runtime.
        let t = spmm_gemm_chain(64);
        let sm = CoreSim::with_engine(EngineConfig::rasa_sm()).run(&t);
        let dm = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&t);
        assert!(
            (dm.core_cycles as f64) < sm.core_cycles as f64 * 0.65,
            "DM {} vs SM {}",
            dm.core_cycles,
            sm.core_cycles
        );
    }

    fn spmm_gemm_chain(n: usize) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let acc = TReg::new((i % 4) as u8).unwrap();
            t.push_inst(Inst::TileGemm {
                acc,
                a: TReg::T6,
                b: TReg::T7,
            });
        }
        t
    }

    #[test]
    fn rob_limits_runahead() {
        // A very long chain of independent loads cannot all be in flight;
        // the ROB forces dispatch to track retirement.
        let mut t = Trace::new();
        for i in 0..2000u64 {
            t.push(TraceOp::VecLoad {
                dst: (i % 16) as u8,
                addr: i * 64,
            });
        }
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&t);
        // Two load ports, 2000 loads -> at least 1000 cycles.
        assert!(res.core_cycles >= 1000);
        assert_eq!(
            res.cache.l2_hits, 2000,
            "every distinct line misses L1 once"
        );
    }

    #[test]
    fn tile_load_occupies_port_per_line() {
        let mut t = Trace::new();
        for i in 0..64u64 {
            t.push_inst(Inst::TileLoadT {
                dst: TReg::new((i % 8) as u8).unwrap(),
                addr: i * 1024,
            });
        }
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&t);
        // 64 tile loads x 16 lines = 1024 line transfers over 2 ports.
        assert!(res.core_cycles >= 512, "got {}", res.core_cycles);
    }

    #[test]
    fn cache_reuse_lowers_latency() {
        let mut t = Trace::new();
        for _ in 0..4 {
            for j in 0..4u64 {
                t.push(TraceOp::VecLoad {
                    dst: j as u8,
                    addr: j * 64,
                });
            }
        }
        let res = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&t);
        assert_eq!(res.cache.l2_hits, 4);
        assert_eq!(res.cache.l1_hits, 12);
    }

    #[test]
    fn streamed_replay_is_cycle_identical_to_materialized() {
        use vegeta_isa::stream::{BlockEmitter, ChunkedStream};

        // A mixed workload emitted block-wise: loads, engine ops, scalars.
        struct Blocks;
        impl BlockEmitter for Blocks {
            fn blocks(&self) -> usize {
                200
            }
            fn block_ops(&self, _block: usize) -> u64 {
                4
            }
            fn emit_block(&self, block: usize, out: &mut Vec<TraceOp>) {
                out.push(TraceOp::VecLoad {
                    dst: (block % 16) as u8,
                    addr: block as u64 * 64,
                });
                out.push(TraceOp::Tile(Inst::TileSpmmU {
                    acc: TReg::new((block % 3) as u8).unwrap(),
                    a: TReg::T6,
                    b: UReg::U2,
                }));
                out.push(TraceOp::Scalar { dst: 0, src: 0 });
                out.push(TraceOp::Branch { cond: 0 });
            }
        }

        let mut stream = ChunkedStream::new(Blocks);
        let materialized = {
            use vegeta_isa::stream::InstStream;
            ChunkedStream::new(Blocks).collect_trace()
        };
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let from_trace = CoreSim::with_engine(engine.clone()).run(&materialized);
        let from_stream = CoreSim::with_engine(engine).run_stream(&mut stream);
        assert_eq!(from_stream.core_cycles, from_trace.core_cycles);
        assert_eq!(from_stream.instructions, from_trace.instructions);
        assert_eq!(from_stream.tile_compute, from_trace.tile_compute);
        assert_eq!(
            from_stream.engine_busy_cycles,
            from_trace.engine_busy_cycles
        );
        assert_eq!(from_stream.cache, from_trace.cache);
        // Only residency differs: the stream never held the whole trace.
        assert!(
            from_stream.peak_resident_bytes < from_trace.peak_resident_bytes / 8,
            "stream {} vs materialized {}",
            from_stream.peak_resident_bytes,
            from_trace.peak_resident_bytes
        );
    }

    #[test]
    fn stepping_a_core_directly_matches_the_coresim_driver() {
        // The extraction contract: manually stepping one `Core` over the ops
        // replays exactly what `CoreSim` reports.
        let trace = spmm_chain(48, false);
        let engine = EngineConfig::vegeta_s(4).unwrap();
        let expected = CoreSim::with_engine(engine.clone()).run(&trace);
        let mut core = Core::new(0, SimConfig::default(), engine);
        for &op in trace.ops() {
            core.step(op, None);
        }
        assert_eq!(core.cycles(), expected.core_cycles);
        assert_eq!(core.instructions(), expected.instructions);
        let got = core.result(expected.peak_resident_bytes);
        assert_eq!(got, expected);
    }

    #[test]
    fn result_seconds_uses_core_clock() {
        let cfg = SimConfig::default();
        let res = SimResult {
            core_cycles: 2_000_000_000,
            instructions: 1,
            tile_compute: 0,
            engine_busy_cycles: 0,
            peak_resident_bytes: 0,
            cache: CacheStats::default(),
        };
        assert!((res.seconds(&cfg) - 1.0).abs() < 1e-12);
        assert_eq!(cfg.clock_ratio(), 4);
    }
}
