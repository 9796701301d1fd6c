//! Trace-driven CPU simulator with an integrated VEGETA matrix engine.
//!
//! This crate is the repository's substitute for MacSim (§VI-A/B): kernels
//! from `vegeta-kernels` produce dynamic instruction traces, and [`CoreSim`]
//! replays them on an out-of-order core model with the paper's parameters —
//! 4-wide fetch/issue/retire, 16 front-end stages, a 97-entry ROB, a
//! 96-entry load buffer, a 2 GHz core clock, data prefetched into L2, and
//! the matrix engine running in its own 0.5 GHz domain with the WL/FF/FS/DR
//! pipelining and output-forwarding rules of §V-C.
//!
//! The timing layer is composable: [`Core`] is one core's complete pipeline
//! state behind the [`CoreModel`] trait, [`CoreSim`] drives a single core
//! (the paper's setup), and [`MultiCoreSim`] interleaves many cores —
//! private L1s, one coherence-free [`SharedL2`] — to answer how a sharded
//! GEMM scales to 2/4/8/16 matrix-engine-equipped cores. A single core's
//! L1 outcome depends only on its trace's addresses, so an [`L1Memo`]
//! records it once and replays it for every other engine that runs the
//! same trace ([`CoreSim::run_stream_memoized`]).
//!
//! # Example
//!
//! ```
//! use vegeta_engine::EngineConfig;
//! use vegeta_isa::{Inst, TReg, UReg};
//! use vegeta_sim::simulate_insts;
//!
//! let insts: Vec<Inst> = (0..8)
//!     .map(|i| Inst::TileSpmmU {
//!         acc: TReg::new(i % 2).unwrap(),
//!         a: TReg::T6,
//!         b: UReg::U2,
//!     })
//!     .collect();
//! let dm = simulate_insts(&insts, EngineConfig::rasa_dm());
//! assert!(dm.core_cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod core;
pub mod event;
mod memo;
pub mod multicore;

pub use crate::core::{simulate, simulate_insts, Core, CoreModel, CoreSim, SimConfig, SimResult};
pub use cache::{CacheModel, CacheStats, SharedL2, SharedL2Stats, LINE_BYTES};
pub use event::EventQueue;
pub use memo::L1Memo;
pub use multicore::{
    ExecMode, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy, HOST_THREADS_ENV,
};
