//! Trace-driven CPU simulator with an integrated VEGETA matrix engine.
//!
//! This crate is the repository's substitute for MacSim (§VI-A/B): kernels
//! from `vegeta-kernels` produce dynamic instruction traces, and a [`Core`]
//! replays them on an out-of-order core model with the paper's parameters —
//! 4-wide fetch/issue/retire, 16 front-end stages, a 97-entry ROB, a
//! 96-entry load buffer, a 2 GHz core clock, data prefetched into L2, and
//! the matrix engine running in its own 0.5 GHz domain with the WL/FF/FS/DR
//! pipelining and output-forwarding rules of §V-C.
//!
//! The timing layer is composable: [`Core`] is one core's complete pipeline
//! state, and [`MultiCoreSim`] drives one or more of them — private L1s,
//! one coherence-free [`SharedL2`] — to answer how a sharded GEMM scales to
//! 2/4/8/16 matrix-engine-equipped cores. The paper's single-core setup is
//! its one-lane case. Each core's L1 outcome depends only on its lane's
//! addresses, so an [`L1Memo`] records it once and replays it for every
//! other engine that runs the same lanes
//! ([`MultiCoreSim::run_sharded_memoized`]). [`CoreSim`] is the unmemoized
//! single-core reference the one-lane run is checked against.
//!
//! # Example
//!
//! ```
//! use vegeta_engine::EngineConfig;
//! use vegeta_isa::trace::Trace;
//! use vegeta_isa::{Inst, TReg, UReg};
//! use vegeta_sim::CoreSim;
//!
//! let mut trace = Trace::new();
//! for i in 0..8 {
//!     trace.push_inst(Inst::TileSpmmU {
//!         acc: TReg::new(i % 2).unwrap(),
//!         a: TReg::T6,
//!         b: UReg::U2,
//!     });
//! }
//! let dm = CoreSim::with_engine(EngineConfig::rasa_dm()).run(&trace);
//! assert!(dm.core_cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod core;
mod memo;
pub mod multicore;

pub use crate::core::{Core, CoreSim, SimConfig, SimResult};
pub use cache::{CacheModel, CacheStats, SharedL2, SharedL2Stats, LINE_BYTES};
pub use memo::{L1Memo, MemoError};
pub use multicore::{
    ExecMode, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy, HOST_THREADS_ENV,
};
